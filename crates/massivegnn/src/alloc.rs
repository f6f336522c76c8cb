//! Counting global allocator: proves the zero-allocation steady state
//! instead of asserting it in prose.
//!
//! The library installs no allocator. A process that declares
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;` (the
//! memory proofs, `tests/memory.rs`) sends every heap allocation through
//! it, which bumps a thread-local counter and a global live/peak byte
//! gauge (an RSS proxy that ignores allocator slack); anywhere else the
//! gauges and counters read zero. The engine brackets each training step
//! with [`thread_allocs`]/[`thread_excluded`] deltas: allocations made
//! under an [`ExcludeGuard`] — model math inside `forward_backward` and
//! inline minibatch preparation, which are *workload*, not bookkeeping —
//! still count toward the thread total but are subtracted out, so the
//! "hot" figure isolates the trainer loop proper (queue pops, clock
//! advances, accounting, DDP exchange, optimizer step).
//!
//! Steps of epoch ≥ 1 (after the warmup epoch has stretched every pooled
//! buffer to its high-water mark) record their hot count via
//! [`record_hot_step`] into thread-local accumulators; the threaded
//! engine flushes each worker's accumulator into the process-wide
//! [`global_hot`] totals at the end of the run. The bookkeeping is a few
//! thread-local reads and writes per step and allocates nothing. Nothing
//! here touches `RunReport`, so the bitwise-identity oracles do not
//! depend on which allocator the process runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Process-wide live heap bytes (allocated minus deallocated).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE_BYTES`] — the RSS proxy.
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);
/// Hot allocations flushed from finished runs/workers.
static GLOBAL_HOT_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Hot steps flushed from finished runs/workers.
static GLOBAL_HOT_STEPS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` init keeps first access allocation-free — a lazily
    // initialized TLS slot would recurse into the allocator.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_EXCLUDED: Cell<u64> = const { Cell::new(0) };
    static EXCLUDE_DEPTH: Cell<u32> = const { Cell::new(0) };
    static HOT_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static HOT_STEPS: Cell<u64> = const { Cell::new(0) };
}

/// A `System`-backed allocator that counts. `realloc`/`alloc_zeroed`
/// use the `GlobalAlloc` defaults, which route through `alloc`/`dealloc`,
/// so nothing escapes the count.
pub struct CountingAlloc;

// SAFETY: defers all actual allocation to `System`; the bookkeeping is
// atomics and Cell-based TLS without drop glue (safe during thread
// teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
            EXCLUDE_DEPTH.with(|d| {
                if d.get() > 0 {
                    THREAD_EXCLUDED.with(|c| c.set(c.get() + 1));
                }
            });
            let live = LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed)
                + layout.size() as i64;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

/// Total allocations made by the calling thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Allocations the calling thread made under an [`ExcludeGuard`].
pub fn thread_excluded() -> u64 {
    THREAD_EXCLUDED.with(|c| c.get())
}

/// Live heap bytes right now.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since start (or [`reset_peak`]).
pub fn peak_bytes() -> i64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restart the peak gauge from the current live level, so a measurement
/// window reports its own high-water mark rather than initialization's.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Marks a region whose allocations are workload, not trainer-loop
/// bookkeeping (model math, inline preparation). Nestable.
pub struct ExcludeGuard(());

impl ExcludeGuard {
    /// Enter an excluded region until the guard drops.
    pub fn new() -> Self {
        EXCLUDE_DEPTH.with(|d| d.set(d.get() + 1));
        ExcludeGuard(())
    }
}

impl Default for ExcludeGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ExcludeGuard {
    fn drop(&mut self) {
        EXCLUDE_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Record one steady-state step's hot (non-excluded) allocation count
/// into the calling thread's accumulator.
pub fn record_hot_step(allocs: u64) {
    HOT_ALLOCS.with(|c| c.set(c.get() + allocs));
    HOT_STEPS.with(|c| c.set(c.get() + 1));
}

/// Read and reset the calling thread's hot accumulators:
/// `(hot_allocations, steps_recorded)`.
pub fn take_hot() -> (u64, u64) {
    let a = HOT_ALLOCS.with(|c| c.replace(0));
    let s = HOT_STEPS.with(|c| c.replace(0));
    (a, s)
}

/// Flush the calling thread's hot accumulators into the process-wide
/// totals (the threaded engine calls this as each worker finishes).
pub fn flush_hot() {
    let (a, s) = take_hot();
    GLOBAL_HOT_ALLOCS.fetch_add(a, Ordering::Relaxed);
    GLOBAL_HOT_STEPS.fetch_add(s, Ordering::Relaxed);
}

/// Process-wide flushed hot totals: `(hot_allocations, steps_recorded)`.
pub fn global_hot() -> (u64, u64) {
    (
        GLOBAL_HOT_ALLOCS.load(Ordering::Relaxed),
        GLOBAL_HOT_STEPS.load(Ordering::Relaxed),
    )
}

/// Zero the process-wide hot totals before a measurement window.
pub fn reset_global_hot() {
    GLOBAL_HOT_ALLOCS.store(0, Ordering::Relaxed);
    GLOBAL_HOT_STEPS.store(0, Ordering::Relaxed);
}
