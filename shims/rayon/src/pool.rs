//! Persistent worker pool with deterministic chunk scheduling.
//!
//! One global pool is spawned lazily on first use, sized by
//! `MGNN_THREADS` (when set to a positive integer) or
//! [`std::thread::available_parallelism`]. Parallel calls split their
//! input into chunks whose boundaries depend **only on the input
//! length** ([`chunk_len`] / [`num_chunks`]) — never on the thread
//! count or on timing — and combine per-chunk results in chunk-index
//! order, so every parallel operation in this crate returns
//! bitwise-identical results at any thread count.
//!
//! Scheduling model: the caller of [`run`] announces the job to up to
//! `threads − 1` helper workers and then executes chunks itself, so a
//! parallel call never blocks waiting for a free worker; with one
//! thread (or a single chunk) the call degrades to an inline
//! sequential loop over the same chunk structure. Chunk indices are
//! claimed with an atomic counter, which makes the *assignment* of
//! chunks to threads racy — but never the result, because each chunk
//! is self-contained and chunk outputs are combined by index.
//!
//! Panics inside a chunk are caught, the job is poisoned (remaining
//! chunks are skipped), and the panic resumes on the calling thread
//! once every in-flight worker has left the job.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Upper bound on chunks per parallel call. A fixed constant (rather
/// than a multiple of the thread count) is what makes chunk boundaries
/// a pure function of input length.
const TARGET_CHUNKS: usize = 64;

/// Deterministic chunk length for an input of `len` items. Depends
/// only on `len`.
pub fn chunk_len(len: usize) -> usize {
    len.div_ceil(TARGET_CHUNKS).max(1)
}

/// Number of chunks an input of `len` items is split into. Depends
/// only on `len`; at most `TARGET_CHUNKS`.
pub fn num_chunks(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.div_ceil(chunk_len(len))
    }
}

/// Bookkeeping shared between the job owner and helper workers.
struct JobState {
    /// Chunks not yet executed (or skipped after poisoning).
    pending_chunks: usize,
    /// Workers currently inside [`execute_chunks`] for this job.
    active_workers: usize,
}

/// One parallel call, announced by reference to the workers. Lives on
/// the owner's stack; the owner only returns after `pending_chunks`
/// and `active_workers` both reach zero and every queued announcement
/// has been purged, so worker-held references never dangle.
struct Job {
    /// The chunk executor (borrowed from the owner's frame).
    func: *const (dyn Fn(usize) + Sync),
    /// Next chunk index to claim.
    next: AtomicUsize,
    num_chunks: usize,
    /// Set when a chunk panicked; later chunks are skipped.
    poisoned: AtomicBool,
    /// First panic payload, replayed on the owner thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    state: Mutex<JobState>,
    /// Signalled when `pending_chunks == 0 && active_workers == 0`.
    done: Condvar,
}

/// Queue entry pointing at an owner-stack [`Job`].
#[derive(Clone, Copy, PartialEq, Eq)]
struct JobRef(*const Job);
// SAFETY: the owner keeps the Job alive until all queued refs are
// purged and all in-flight workers have checked out (see `run`).
unsafe impl Send for JobRef {}

struct Shared {
    queue: Mutex<Vec<JobRef>>,
    ready: Condvar,
}

struct Pool {
    shared: &'static Shared,
    /// Helper workers spawned (total threads = workers + caller).
    workers: usize,
}

thread_local! {
    /// Set inside pool workers: nested parallel calls run inline.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread cap on threads used by `run` (0 = no cap). Test and
    /// diagnostic hook; results are identical at any cap.
    static MAX_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::env::var("MGNN_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            queue: Mutex::new(Vec::new()),
            ready: Condvar::new(),
        }));
        let workers = threads - 1;
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("mgnn-par-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, workers }
    })
}

/// Total threads the pool can bring to bear (helpers + the caller).
pub fn current_num_threads() -> usize {
    pool().workers + 1
}

/// Run `f` with parallel calls *from this thread* capped at `threads`
/// threads (1 = fully inline). The cap changes scheduling only — the
/// deterministic chunk structure guarantees identical results — so
/// this exists for tests pinning that contract and for measuring
/// thread scaling.
pub fn with_max_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread cap must be at least 1");
    MAX_THREADS.with(|m| {
        struct Reset<'a>(&'a Cell<usize>, usize);
        impl Drop for Reset<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _reset = Reset(m, m.get());
        m.set(threads);
        f()
    })
}

fn worker_loop(shared: &'static Shared) {
    IS_WORKER.with(|w| w.set(true));
    loop {
        let job_ref = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(j) = q.pop() {
                    // Check in while still holding the queue lock so the
                    // owner's purge can't miss an in-flight worker.
                    unsafe { &*j.0 }.state.lock().unwrap().active_workers += 1;
                    break j;
                }
                q = shared.ready.wait(q).unwrap();
            }
        };
        let job = unsafe { &*job_ref.0 };
        execute_chunks(job);
        let mut st = job.state.lock().unwrap();
        st.active_workers -= 1;
        if st.pending_chunks == 0 && st.active_workers == 0 {
            job.done.notify_all();
        }
    }
}

/// Claim and execute chunks of `job` until none remain.
fn execute_chunks(job: &Job) {
    let f = unsafe { &*job.func };
    loop {
        let c = job.next.fetch_add(1, Ordering::Relaxed);
        if c >= job.num_chunks {
            return;
        }
        if !job.poisoned.load(Ordering::Relaxed) {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(c))) {
                job.poisoned.store(true, Ordering::Relaxed);
                let mut p = job.panic.lock().unwrap();
                if p.is_none() {
                    *p = Some(payload);
                }
            }
        }
        let mut st = job.state.lock().unwrap();
        st.pending_chunks -= 1;
        if st.pending_chunks == 0 && st.active_workers == 0 {
            job.done.notify_all();
        }
    }
}

/// Execute `f(0), f(1), …, f(num_chunks - 1)`, each chunk exactly
/// once, across the pool. Returns after every chunk has completed.
/// The *order and thread placement* of chunks is unspecified; callers
/// obtain determinism by making chunks independent and combining
/// per-chunk results in index order.
pub fn run(num_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    if num_chunks == 0 {
        return;
    }
    let p = pool();
    let cap = MAX_THREADS.with(|m| m.get());
    let avail = if cap == 0 {
        p.workers
    } else {
        p.workers.min(cap - 1)
    };
    let helpers = avail.min(num_chunks - 1);
    if helpers == 0 || IS_WORKER.with(|w| w.get()) {
        // Inline sequential execution of the same chunk structure —
        // bitwise-identical results, zero scheduling overhead.
        for c in 0..num_chunks {
            f(c);
        }
        return;
    }

    // Erase the borrow's lifetime to store it in the type-erased Job.
    // SAFETY: `run` does not return until every queued JobRef is
    // purged and every in-flight worker has checked out, so no worker
    // can observe `func` after `f`'s frame is gone.
    let f_erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let job = Job {
        func: f_erased as *const _,
        next: AtomicUsize::new(0),
        num_chunks,
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        state: Mutex::new(JobState {
            pending_chunks: num_chunks,
            active_workers: 0,
        }),
        done: Condvar::new(),
    };
    {
        let mut q = p.shared.queue.lock().unwrap();
        for _ in 0..helpers {
            q.push(JobRef(&job));
        }
    }
    if helpers == 1 {
        p.shared.ready.notify_one();
    } else {
        p.shared.ready.notify_all();
    }

    // The owner works too — a parallel call never waits for a free
    // worker to make progress.
    execute_chunks(&job);

    // Purge announcements nobody claimed; workers that did claim one
    // are counted in `active_workers` and will check out.
    {
        let me = JobRef(&job);
        let mut q = p.shared.queue.lock().unwrap();
        q.retain(|r| *r != me);
    }
    {
        let mut st = job.state.lock().unwrap();
        while st.pending_chunks > 0 || st.active_workers > 0 {
            st = job.done.wait(st).unwrap();
        }
    }
    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunking_is_a_pure_function_of_len() {
        assert_eq!(num_chunks(0), 0);
        assert_eq!(num_chunks(1), 1);
        assert_eq!(num_chunks(64), 64);
        assert_eq!(num_chunks(65), 33); // chunk_len 2
        assert_eq!(num_chunks(128), 64);
        assert_eq!(num_chunks(129), 43); // chunk_len 3
        for len in [0usize, 1, 7, 63, 64, 65, 1000, 1 << 20] {
            let n = num_chunks(len);
            assert!(n <= TARGET_CHUNKS);
            if len > 0 {
                // Chunks tile the input exactly.
                assert!(chunk_len(len) * n >= len);
                assert!(chunk_len(len) * (n - 1) < len);
            }
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let counts: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        run(40, &|c| {
            counts[c].fetch_add(1, Ordering::Relaxed);
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            run(8, &|c| {
                if c == 3 {
                    panic!("chunk 3 exploded");
                }
            });
        });
        let err = result.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("chunk 3 exploded"), "got: {msg}");
    }

    #[test]
    fn max_threads_cap_restores_on_exit() {
        let before = MAX_THREADS.with(|m| m.get());
        with_max_threads(1, || {
            assert_eq!(MAX_THREADS.with(|m| m.get()), 1);
            let total: u64 = {
                let acc = AtomicU64::new(0);
                run(10, &|c| {
                    acc.fetch_add(c as u64, Ordering::Relaxed);
                });
                acc.load(Ordering::Relaxed)
            };
            assert_eq!(total, 45);
        });
        assert_eq!(MAX_THREADS.with(|m| m.get()), before);
    }
}
