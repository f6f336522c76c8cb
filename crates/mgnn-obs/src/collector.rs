//! The flag-and-buffer behind the two process-global logs,
//! [`crate::sink`] and [`crate::events`]: installed before a run, pushed
//! to *if* installed (one atomic load otherwise), drained afterwards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// An installable buffer of `T`. `const`-constructible, so each log is a
/// `static`.
pub(crate) struct Collector<T> {
    enabled: AtomicBool,
    items: Mutex<Vec<T>>,
}

impl<T> Collector<T> {
    /// An uninstalled, empty collector.
    pub(crate) const fn new() -> Self {
        Collector {
            enabled: AtomicBool::new(false),
            items: Mutex::new(Vec::new()),
        }
    }

    /// Empty the buffer and start accepting pushes.
    pub(crate) fn install(&self) {
        self.items.lock().unwrap().clear();
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop accepting pushes and return anything still buffered.
    pub(crate) fn uninstall(&self) -> Vec<T> {
        self.enabled.store(false, Ordering::Release);
        self.drain()
    }

    /// Whether the collector is installed (one atomic load).
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Buffer `item` if installed; a no-op otherwise.
    pub(crate) fn push(&self, item: T) {
        if self.enabled() {
            self.items.lock().unwrap().push(item);
        }
    }

    /// Take everything buffered, leaving the collector installed.
    pub(crate) fn drain(&self) -> Vec<T> {
        std::mem::take(&mut *self.items.lock().unwrap())
    }
}
