//! Two thread-local marks for a counting allocator to read: which
//! allocations belong to the steady-state trainer loop.
//!
//! The library counts nothing and installs no allocator. `Engine::drive`
//! holds an [`EpochGuard`] over each epoch after the first — by then the
//! warmup epoch has stretched every pooled buffer to its high-water
//! mark — and the trainer holds an [`ExcludeGuard`] over model math and
//! inline minibatch preparation, which are *workload*, not bookkeeping.
//! An allocation made while [`hot`] is true is the trainer loop proper's
//! (queue pops, clock advances, accounting, DDP exchange, optimizer
//! step). The memory proofs (`tests/memory.rs`) install an allocator
//! that asks [`hot`] of every allocation, and read [`epochs_marked`] so
//! that a loop that marks nothing cannot pass for one that allocates
//! nothing. A mark is a thread-local write and allocates nothing; nothing
//! here touches `RunReport`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Epoch guards created in this process.
static EPOCHS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` init keeps first access allocation-free: an allocator
    // reads these, and a lazily initialised slot would recurse into it.
    static IN_EPOCH: Cell<bool> = const { Cell::new(false) };
    static EXCLUDE_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Whether the calling thread is inside an [`EpochGuard`] and outside
/// every [`ExcludeGuard`]: an allocation now is the trainer loop's.
pub fn hot() -> bool {
    IN_EPOCH.get() && EXCLUDE_DEPTH.get() == 0
}

/// How many [`EpochGuard`]s this process has created.
pub fn epochs_marked() -> u64 {
    EPOCHS.load(Ordering::Relaxed)
}

/// Marks a steady-state epoch of the calling thread's step loop.
pub struct EpochGuard(());

impl EpochGuard {
    /// Enter a steady-state epoch until the guard drops.
    pub fn new() -> Self {
        IN_EPOCH.set(true);
        EPOCHS.fetch_add(1, Ordering::Relaxed);
        EpochGuard(())
    }
}

impl Default for EpochGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        IN_EPOCH.set(false);
    }
}

/// Marks a region whose allocations are workload, not trainer-loop
/// bookkeeping (model math, inline preparation). Nestable.
pub struct ExcludeGuard(());

impl ExcludeGuard {
    /// Enter an excluded region until the guard drops.
    pub fn new() -> Self {
        EXCLUDE_DEPTH.set(EXCLUDE_DEPTH.get() + 1);
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
        EXCLUDE_DEPTH.set(EXCLUDE_DEPTH.get() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_inside_an_epoch_and_outside_every_exclusion() {
        assert!(!hot(), "outside any epoch");
        let epoch = EpochGuard::new();
        assert!(hot(), "inside an epoch");
        {
            let _math = ExcludeGuard::new();
            assert!(!hot(), "inside an exclusion");
            let _prepare = ExcludeGuard::new();
            assert!(!hot(), "inside a nested exclusion");
        }
        assert!(hot(), "once the exclusions drop");
        drop(epoch);
        assert!(!hot(), "after the epoch");
        let _math = ExcludeGuard::new();
        assert!(!hot(), "an exclusion alone");
    }

    #[test]
    fn every_epoch_guard_is_counted() {
        // Engines in this binary's other tests mark their epochs on the
        // same counter meanwhile, so it can rise by more, never by less.
        let before = epochs_marked();
        for _ in 0..4 {
            let _epoch = EpochGuard::new();
        }
        assert!(epochs_marked() >= before + 4);
    }
}
