//! Live telemetry: what a scrape can read while a run is going.
//!
//! The span layer ([`crate::span`]) buffers everything and exports after
//! the run; the registry answers *live* questions, and holds no copy of
//! anything the run report counts. A telemetry run [`attach`]es each
//! trainer's own [`CounterSet`] — the atomics its `CommMetrics` updates
//! and its report is snapshotted from — and [`scrape`] sums what is
//! attached: scraped totals equal the report's aggregate because they are
//! the same memory, and recording a counter never names the registry.
//! The world is counted off the attached sets, one per trainer. Beside
//! them, under the same lock, sit the only values no trainer owns: the
//! step count, the last finished run's makespan and one step-latency
//! histogram per pipeline lane ([`LANES`]).
//!
//! Lifecycle mirrors [`crate::sink`]: disabled by default; [`enable`]
//! resets first, so everything a scrape shows is attributable to the run
//! that enabled it; [`disable`] keeps what is there for a final snapshot.
//! Nothing in this module is read by the engine, so enabling telemetry
//! can never perturb the simulated clock or a `RunReport`.

use crate::counters::{CounterSet, CounterSnapshot};
use crate::hist::LatencyHistogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The pipeline lanes a step's simulated latency is recorded under, in
/// render order.
pub const LANES: [&str; 2] = ["prepare", "train"];

/// Everything the registry holds, behind one lock.
struct State {
    attached: Vec<Arc<CounterSet>>,
    steps: u64,
    makespan_s: f64,
    lanes: [LatencyHistogram; 2],
}

const EMPTY: State = State {
    attached: Vec::new(),
    steps: 0,
    makespan_s: 0.0,
    lanes: [LatencyHistogram::new(), LatencyHistogram::new()],
};

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(EMPTY);

fn state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap()
}

/// One read of the registry: everything [`crate::prom::render`] lowers.
#[derive(Debug, Clone)]
pub struct Scrape {
    /// The attached sets, summed: what a run report's aggregate will say
    /// once the counters stop moving, read live.
    pub counters: CounterSnapshot,
    /// Counter sets attached, one per trainer of the run being watched.
    pub world: usize,
    /// Trainer-steps completed.
    pub steps: u64,
    /// Simulated makespan of the last finished run; 0 until one finishes.
    pub makespan_s: f64,
    /// Simulated per-step latency of each of [`LANES`], in order. The
    /// registry observes the cost model; it never feeds back into it.
    pub lanes: [LatencyHistogram; 2],
}

/// Enable the registry, resetting it first so everything a scrape shows
/// is attributable to the run that enabled it.
pub fn enable() {
    *state() = EMPTY;
    ENABLED.store(true, Ordering::Release);
}

/// Disable the registry: nothing further is attached, everything stays
/// in place so a final snapshot can still be rendered after the run.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether the registry is live (one atomic load).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Make a trainer's counters visible to scrapes until the next
/// [`enable`]. Ignored while the registry is disabled.
pub fn attach(set: Arc<CounterSet>) {
    if enabled() {
        state().attached.push(set);
    }
}

/// Book one trainer-step and its simulated prepare and train latencies.
pub fn record_step(prepare_s: f64, train_s: f64) {
    let mut state = state();
    state.steps += 1;
    state.lanes[0].record(prepare_s);
    state.lanes[1].record(train_s);
}

/// Book a finished run's simulated makespan (its slowest trainer).
pub fn record_makespan(makespan_s: f64) {
    state().makespan_s = makespan_s;
}

/// Read everything at once.
pub fn scrape() -> Scrape {
    let state = state();
    Scrape {
        counters: state
            .attached
            .iter()
            .fold(CounterSnapshot::default(), |a, s| a.merge(&s.snapshot())),
        world: state.attached.len(),
        steps: state.steps,
        makespan_s: state.makespan_s,
        lanes: state.lanes.clone(),
    }
}

#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole lifecycle: the registry is
    // process-global, so splitting these assertions across #[test] fns
    // would race under the parallel test runner. Sibling modules that
    // touch the registry (prom) serialize on TEST_LOCK too.
    #[test]
    fn lifecycle() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        assert!(!enabled());
        let ignored = Arc::new(CounterSet::default());
        ignored.rpc_calls.fetch_add(9, Ordering::Relaxed);
        let before = scrape().world;
        attach(Arc::clone(&ignored));
        assert_eq!(
            scrape().world,
            before,
            "a disabled registry attaches nothing"
        );

        record_step(2.0e-3, 1.0e-3);
        record_step(4.0e-3, 3.0e-3);
        record_makespan(0.75);
        let live = scrape();
        assert_eq!(live.makespan_s, 0.75);
        let [prepare, train] = &live.lanes;
        assert_eq!((prepare.count(), train.count()), (live.steps, live.steps));
        assert!(live.steps >= 2);

        enable();
        assert!(enabled(), "enable flips the flag");
        let empty = scrape();
        assert_eq!(empty.steps, 0, "enable resets the step count");
        assert_eq!(empty.makespan_s, 0.0, "enable resets the makespan");
        assert!(
            empty.lanes.iter().all(|h| h.count() == 0),
            "enable resets the lanes"
        );
        assert_eq!(
            (empty.world, empty.counters),
            (0, CounterSnapshot::default())
        );

        // Attached *before* its increments: a scrape reads the set's own
        // atomics, so two scrapes around an increment are monotone, two
        // sets sum, and the world is the number attached.
        let (a, b) = (
            Arc::new(CounterSet::default()),
            Arc::new(CounterSet::default()),
        );
        attach(Arc::clone(&a));
        attach(Arc::clone(&b));
        assert_eq!(scrape().world, 2, "the world is counted off the sets");
        a.rpc_calls.fetch_add(7, Ordering::Relaxed);
        let first = scrape().counters;
        assert_eq!(first.rpc_calls, 7);
        b.rpc_calls.fetch_add(1, Ordering::Relaxed);
        b.evictions.fetch_add(4, Ordering::Relaxed);
        let second = scrape().counters;
        assert_eq!((second.rpc_calls, second.evictions), (8, 4));
        for ((name, _, was), (_, _, is)) in first.rows().zip(second.rows()) {
            assert!(is >= was, "{name} went back");
        }
        record_step(1.0e-3, 2.0e-3);
        let [prepare, train] = &scrape().lanes;
        assert_eq!((prepare.sum_s(), train.sum_s()), (1.0e-3, 2.0e-3));

        disable();
        assert!(!enabled());
        let kept = scrape();
        assert_eq!(
            (kept.counters, kept.world, kept.steps),
            (second, 2, 1),
            "disable keeps everything for a final scrape"
        );
        a.rpc_calls.fetch_add(1, Ordering::Relaxed);
        assert_eq!(
            scrape().counters.rpc_calls,
            9,
            "and the sets are still read live"
        );

        enable();
        let next = scrape();
        assert_eq!(
            (next.counters, next.world),
            (CounterSnapshot::default(), 0),
            "the next enable drops the previous run's sets"
        );
        disable();
    }

    #[test]
    fn metric_names_are_prometheus_style() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let text = crate::prom::render();
        let mut names = Vec::new();
        for family in text.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
            let (name, kind) = family.split_once(' ').unwrap();
            assert!(name.starts_with("mgnn_"), "{name}");
            assert_eq!(name.ends_with("_total"), kind == "counter", "{name} {kind}");
            let help = text
                .lines()
                .find_map(|l| l.strip_prefix(&format!("# HELP {name} ")))
                .unwrap_or_else(|| panic!("{name} has no help"));
            assert!(!help.is_empty(), "{name}");
            names.push(name);
        }
        assert!(names.len() > CounterSnapshot::default().rows().count());
        // Names must be unique across the whole exposition.
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
    }
}
