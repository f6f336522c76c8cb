//! Live metric registry: what a scrape can read while a run is going.
//!
//! The span layer ([`crate::span`]) buffers everything and exports after
//! the run; the registry answers *live* questions, and holds no copy of
//! anything the run report counts. A telemetry run [`attach`]es each
//! trainer's own [`CounterSet`] — the atomics its `CommMetrics` updates
//! and its report is snapshotted from — and a scrape ([`crate::prom`])
//! sums what is attached ([`scrape`]): scraped totals equal the report's
//! aggregate because they are the same memory, and recording a counter
//! never names the registry. Beside the sets sit the few engine-side
//! values no trainer owns: a step counter, two run-level gauges and the
//! per-lane step-latency histogram.
//!
//! Lifecycle mirrors [`crate::sink`]: disabled by default; [`enable`]
//! resets first, so everything a scrape shows is attributable to the run
//! that enabled it; [`disable`] keeps what is there for a final snapshot.
//! Nothing in this module is read by the engine, so enabling telemetry
//! can never perturb the simulated clock or a `RunReport`.

use crate::counters::{CounterSet, CounterSnapshot};
use crate::hist::LatencyHistogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (Prometheus `counter`) for events
/// no trainer owns; per-trainer counters are rows of [`crate::counters`].
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new zeroed counter. `const` so counters can be statics.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Add 1.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name as exposed to Prometheus.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line help string.
    pub fn help(&self) -> &'static str {
        self.help
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins f64 gauge (stored as bits in an `AtomicU64`).
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    bits: AtomicU64,
}

impl Gauge {
    /// A new gauge at 0.0 (`f64` zero is all-zero bits).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge {
            name,
            help,
            bits: AtomicU64::new(0),
        }
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Metric name as exposed to Prometheus.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line help string.
    pub fn help(&self) -> &'static str {
        self.help
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// A log₂-bucketed duration histogram ([`LatencyHistogram`]) per label
/// value, under one static label key. Label values are `&'static str`
/// so recording never allocates once a series exists; series are kept
/// sorted by label so scrapes render deterministically.
pub struct LabeledHistogram {
    name: &'static str,
    help: &'static str,
    label_key: &'static str,
    series: Mutex<Vec<(&'static str, LatencyHistogram)>>,
}

impl LabeledHistogram {
    /// A new empty histogram family.
    pub const fn new(name: &'static str, help: &'static str, label_key: &'static str) -> Self {
        LabeledHistogram {
            name,
            help,
            label_key,
            series: Mutex::new(Vec::new()),
        }
    }

    /// Record one duration (seconds) under `label`.
    pub fn record(&self, label: &'static str, dur_s: f64) {
        let mut series = self.series.lock().unwrap();
        match series.iter_mut().find(|(l, _)| *l == label) {
            Some((_, h)) => h.record(dur_s),
            None => {
                let mut h = LatencyHistogram::new();
                h.record(dur_s);
                series.push((label, h));
                series.sort_by_key(|(l, _)| *l);
            }
        }
    }

    /// Snapshot of every `(label, histogram)` series.
    pub fn series(&self) -> Vec<(&'static str, LatencyHistogram)> {
        self.series.lock().unwrap().clone()
    }

    /// Metric name as exposed to Prometheus.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line help string.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// The label key every series is keyed under.
    pub fn label_key(&self) -> &'static str {
        self.label_key
    }

    fn reset(&self) {
        self.series.lock().unwrap().clear();
    }
}

/// Training steps completed (engine-side; not a per-trainer counter).
pub static STEPS: Counter = Counter::new("mgnn_steps_total", "Training steps completed");

/// Simulated makespan of the latest finished run.
pub static MAKESPAN: Gauge = Gauge::new(
    "mgnn_sim_makespan_seconds",
    "Simulated makespan of the last finished run (slowest trainer)",
);
/// World size of the latest run.
pub static WORLD: Gauge = Gauge::new(
    "mgnn_world_trainers",
    "Total trainers in the last started run",
);

/// Per-step latency, labeled by pipeline lane (`prepare`/`train`).
/// Durations are *simulated* seconds — the registry observes the cost
/// model, it never feeds back into it.
pub static STEP_LATENCY: LabeledHistogram = LabeledHistogram::new(
    "mgnn_step_latency",
    "Simulated per-step latency by pipeline lane",
    "lane",
);

/// Every stored gauge, in render order (the hit-rate gauge is derived
/// from [`scrape`] at render time and precedes them).
pub static GAUGES: [&Gauge; 2] = [&MAKESPAN, &WORLD];

/// Every histogram family, in render order.
pub static HISTOGRAMS: [&LabeledHistogram; 1] = [&STEP_LATENCY];

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The trainers' own counter sets, as attached by the current run.
static ATTACHED: Mutex<Vec<Arc<CounterSet>>> = Mutex::new(Vec::new());

/// Enable the registry, resetting it first so totals are attributable
/// to the run that enabled it.
pub fn enable() {
    reset();
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
/// [`enable`] or [`reset`]. Ignored while the registry is disabled.
pub fn attach(set: Arc<CounterSet>) {
    if enabled() {
        ATTACHED.lock().unwrap().push(set);
    }
}

/// The attached sets, summed: what a run report's aggregate will say
/// once the counters stop moving, read live.
pub fn scrape() -> CounterSnapshot {
    let attached = ATTACHED.lock().unwrap();
    attached
        .iter()
        .fold(CounterSnapshot::default(), |a, s| a.merge(&s.snapshot()))
}

/// Drop every attached set, zero the engine-side counter and gauges and
/// clear every histogram series.
pub fn reset() {
    ATTACHED.lock().unwrap().clear();
    STEPS.reset();
    for g in GAUGES {
        g.reset();
    }
    for h in HISTOGRAMS {
        h.reset();
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
        reset();
        assert!(!enabled());
        let ignored = Arc::new(CounterSet::default());
        ignored.rpc_calls.fetch_add(9, Ordering::Relaxed);
        attach(Arc::clone(&ignored));
        assert_eq!(
            scrape().rpc_calls,
            0,
            "a disabled registry attaches nothing"
        );

        STEPS.inc();
        STEPS.inc();
        assert_eq!(STEPS.get(), 2);
        MAKESPAN.set(0.75);
        assert_eq!(MAKESPAN.get(), 0.75);

        STEP_LATENCY.record("train", 1.0e-3);
        STEP_LATENCY.record("prepare", 2.0e-3);
        STEP_LATENCY.record("train", 3.0e-3);
        let series = STEP_LATENCY.series();
        assert_eq!(series.len(), 2);
        // Sorted by label for deterministic rendering.
        assert_eq!(series[0].0, "prepare");
        assert_eq!(series[1].0, "train");
        assert_eq!(series[1].1.count(), 2);

        enable();
        assert!(enabled(), "enable flips the flag");
        assert_eq!(STEPS.get(), 0, "enable resets counters");
        assert_eq!(MAKESPAN.get(), 0.0, "enable resets gauges");
        assert!(STEP_LATENCY.series().is_empty(), "enable resets histograms");

        // Attached *before* its increments: a scrape reads the set's own
        // atomics, so two scrapes around an increment are monotone and
        // two sets sum.
        let (a, b) = (
            Arc::new(CounterSet::default()),
            Arc::new(CounterSet::default()),
        );
        attach(Arc::clone(&a));
        attach(Arc::clone(&b));
        assert_eq!(scrape(), CounterSnapshot::default());
        a.rpc_calls.fetch_add(7, Ordering::Relaxed);
        let first = scrape();
        assert_eq!(first.rpc_calls, 7);
        b.rpc_calls.fetch_add(1, Ordering::Relaxed);
        b.evictions.fetch_add(4, Ordering::Relaxed);
        let second = scrape();
        assert_eq!((second.rpc_calls, second.evictions), (8, 4));
        for ((name, _, was), (_, _, is)) in first.rows().zip(second.rows()) {
            assert!(is >= was, "{name} went back");
        }

        disable();
        assert!(!enabled());
        assert_eq!(
            scrape(),
            second,
            "disable keeps the sets for a final scrape"
        );
        a.rpc_calls.fetch_add(1, Ordering::Relaxed);
        assert_eq!(scrape().rpc_calls, 9, "and they are still read live");

        enable();
        assert_eq!(
            scrape(),
            CounterSnapshot::default(),
            "the next enable drops the previous run's sets"
        );
        disable();
        reset();
    }

    #[test]
    fn metric_names_are_prometheus_style() {
        let table = CounterSnapshot::default();
        for (name, help) in table
            .rows()
            .map(|(name, help, _)| (name, help))
            .chain([(STEPS.name(), STEPS.help())])
        {
            assert!(name.starts_with("mgnn_"), "{name}");
            assert!(name.ends_with("_total"), "{name}");
            assert!(!help.is_empty());
        }
        for g in GAUGES {
            assert!(g.name().starts_with("mgnn_"), "{}", g.name());
            assert!(!g.name().ends_with("_total"), "{}", g.name());
        }
        for h in HISTOGRAMS {
            assert!(h.name().starts_with("mgnn_"), "{}", h.name());
            assert!(!h.label_key().is_empty());
        }
        // Names must be unique across the whole registry.
        let mut names: Vec<&str> = table
            .rows()
            .map(|(name, _, _)| name)
            .chain([STEPS.name()])
            .chain(GAUGES.iter().map(|g| g.name()))
            .chain(HISTOGRAMS.iter().map(|h| h.name()))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
    }
}
