//! Step-scoped span recording for the training pipeline.
//!
//! A [`SpanRecorder`] belongs to one trainer and is shared (behind an
//! `Arc`) between that trainer's worker thread and its prepare thread —
//! exactly the two writers the threaded engine has. Every span is keyed by
//! the *global step* and a [`Lane`] (prepare, train, fault, lookahead), and
//! carries a start offset **relative to its lane's per-step anchor**: the
//! engine, which owns the simulated clocks, records one [`StepAnchor`] per
//! step mapping those offsets onto the absolute simulated timeline. This
//! split lets the prepare thread record spans for steps the trainer has
//! not reached yet without sharing clock state across threads.
//!
//! Recording is a short mutex-protected ring-buffer push plus an O(1)
//! histogram update; the disabled path is `Option::None` at every call
//! site, so a run without tracing does no synchronization at all.

use crate::hist::LatencyHistogram;
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Pipeline phase a span measures. The first seven mirror the fields of
/// the engine's `Breakdown`; `Allreduce` is the gradient-synchronization
/// tail nested inside `Train`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Neighbor sampling.
    Sampling,
    /// Prefetch-buffer membership probes.
    Lookup,
    /// Scoreboard maintenance (decay + S_A increments).
    Scoring,
    /// Δ-periodic eviction round.
    Evict,
    /// Remote feature fetch over RPC.
    Rpc,
    /// Local feature gather.
    Copy,
    /// DDP training (compute + allreduce).
    Train,
    /// Ring-allreduce portion of the training step.
    Allreduce,
    /// Simulated time lost to faults (injected delays, retries,
    /// backoff). Out of band: unlike the per-step pipeline phases it
    /// only appears on steps where a fault fired, so it is excluded
    /// from [`Phase::ALL`] (whose consumers assert one span per step).
    Fault,
    /// Planning round: the lookahead planner fetching halo rows for
    /// *future* minibatches ahead of their due step, and its
    /// bookkeeping. Out of band like [`Phase::Fault`]: it only appears on
    /// steps that charged a round — whether or not the round pulled —
    /// and its time is charged to the prepare window, not to the
    /// critical-path `rpc` phase.
    Planned,
}

impl Phase {
    /// The per-step pipeline phases, in stable display/index order.
    /// Does **not** include [`Phase::Fault`], which occurs at most once
    /// per step and only under chaos; use [`Phase::REPORTED`] to cover
    /// everything a recorder can hold.
    pub const ALL: [Phase; 8] = [
        Phase::Sampling,
        Phase::Lookup,
        Phase::Scoring,
        Phase::Evict,
        Phase::Rpc,
        Phase::Copy,
        Phase::Train,
        Phase::Allreduce,
    ];

    /// Every phase a recorder can report: [`Phase::ALL`] plus the
    /// out-of-band fault and planned-pull phases.
    pub const REPORTED: [Phase; 10] = [
        Phase::Sampling,
        Phase::Lookup,
        Phase::Scoring,
        Phase::Evict,
        Phase::Rpc,
        Phase::Copy,
        Phase::Train,
        Phase::Allreduce,
        Phase::Fault,
        Phase::Planned,
    ];

    /// Number of distinct phases (size of per-phase dense arrays).
    pub const COUNT: usize = Phase::REPORTED.len();

    /// Dense index into per-phase arrays: the declaration order, which
    /// [`Phase::REPORTED`] lists.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Metric name (stable; used in exports and docs).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Sampling => "sampling",
            Phase::Lookup => "lookup",
            Phase::Scoring => "scoring",
            Phase::Evict => "evict",
            Phase::Rpc => "rpc",
            Phase::Copy => "copy",
            Phase::Train => "train",
            Phase::Allreduce => "allreduce",
            Phase::Fault => "fault",
            Phase::Planned => "planned",
        }
    }

    /// The track this phase's spans live on: the planner's, the fault
    /// track, the trainer's (train, allreduce) or the prepare window's.
    pub fn lane(self) -> Lane {
        match self {
            Phase::Planned => Lane::Lookahead,
            Phase::Fault => Lane::Fault,
            Phase::Train | Phase::Allreduce => Lane::Train,
            _ => Lane::Prepare,
        }
    }
}

/// Which track of a trainer's timeline a span lives on ([`Phase::lane`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The prepare thread (or the interleaved preparation of the
    /// sequential engine): sampling → lookup → scoring → evict →
    /// rpc ∥ copy. Offsets are relative to the step's `prep_start_s`.
    Prepare,
    /// The trainer thread: train (with allreduce nested at its tail).
    /// Offsets are relative to the step's `train_start_s`.
    Train,
    /// Fault activity (retries, backoff, injected delays) charged to the
    /// simulated clock, anchored like [`Lane::Prepare`]: faults strike
    /// during preparation.
    Fault,
    /// Planned lookahead pulls issued by the lookahead prefetch policy;
    /// offsets are relative to the step's `prep_start_s` (the planner
    /// runs at the head of the prepare window). Keeping these on their
    /// own lane separates planned-pull time from critical-path `rpc`.
    Lookahead,
}

impl Lane {
    /// Track name for exports.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Prepare => "prepare",
            Lane::Train => "train",
            Lane::Fault => "fault",
            Lane::Lookahead => "lookahead",
        }
    }

    /// Perfetto thread id for this lane (1-based; tid 0 renders oddly).
    pub fn tid(self) -> u32 {
        match self {
            Lane::Train => 1,
            Lane::Prepare => 2,
            Lane::Fault => 4,
            Lane::Lookahead => 5,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Global step (continuous across epochs).
    pub step: u64,
    /// Phase measured; its [`Phase::lane`] is the span's track.
    pub phase: Phase,
    /// Start offset in seconds, relative to the lane's step anchor.
    pub rel_start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Correlation id tying this span to a tagged remote pull
    /// ([`crate::events::request_id`]); 0 = uncorrelated. Deterministic
    /// (a pure function of origin/trainer/step), so traced reports stay
    /// bitwise identical across engines and pool widths. Exports render
    /// correlated spans as Perfetto flow events.
    pub corr: u64,
}

/// Absolute simulated-time anchors of one step's two lanes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepAnchor {
    /// Global step.
    pub step: u64,
    /// When this step's preparation started on the simulated timeline.
    pub prep_start_s: f64,
    /// When this step's training started on the simulated timeline.
    pub train_start_s: f64,
}

/// One step's telemetry sample: stall, hit rate, overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepPoint {
    /// Global step.
    pub step: u64,
    /// Stall seconds attributed to this step: the time the trainer waited
    /// for its batch's preparation, in both modes (for the serial
    /// baseline, nothing prepared ahead, the whole preparation after the
    /// first step).
    pub stall_s: f64,
    /// Buffer hits this step.
    pub hits: u64,
    /// Buffer misses this step.
    pub misses: u64,
    /// Fraction of this step's preparation hidden under training
    /// (1.0 = perfectly overlapped; 0.0 for the serial baseline).
    pub overlap_efficiency: f64,
}

impl StepPoint {
    /// Hit rate of this step ([`crate::counters::hit_rate`]).
    pub fn hit_rate(&self) -> f64 {
        crate::counters::hit_rate(self.hits, self.misses)
    }
}

/// Per-phase latency summary extracted from a recorder.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase summarized.
    pub phase: Phase,
    /// Number of spans recorded for this phase.
    pub count: u64,
    /// Exact sum of span durations (seconds) — compare against the
    /// engine's `Breakdown` fields.
    pub sum_s: f64,
    /// Smallest span.
    pub min_s: f64,
    /// Largest span.
    pub max_s: f64,
    /// Median (log-bucket approximation clamped to [min, max]).
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
}

/// Everything one trainer's recorder captured, as plain clonable data.
#[derive(Debug, Clone, Default)]
pub struct TrainerTrace {
    /// Trainer index within the run.
    pub trainer: u32,
    /// Partition the trainer lives on.
    pub part_id: u32,
    /// Ring-buffer contents, oldest first (bounded; see `dropped`).
    pub events: Vec<SpanEvent>,
    /// Events overwritten after the ring filled.
    pub dropped: u64,
    /// Per-step timeline anchors, in step order.
    pub anchors: Vec<StepAnchor>,
    /// Per-phase latency summaries (histograms are complete even when the
    /// ring dropped events).
    pub phases: Vec<PhaseStats>,
    /// Per-step stall / hit-rate / overlap series, in step order.
    pub series: Vec<StepPoint>,
}

impl TrainerTrace {
    /// Absolute simulated start of `ev`, resolved through this trace's
    /// anchors (`None` if the step has no anchor yet — e.g. a prepared-
    /// ahead batch that was never trained on). A trainer records one
    /// anchor per step from step 0, in step order, so step `s`'s anchor
    /// is `anchors[s]`.
    pub fn absolute_start_s(&self, ev: &SpanEvent) -> Option<f64> {
        let a = usize::try_from(ev.step)
            .ok()
            .and_then(|i| self.anchors.get(i))
            .filter(|a| a.step == ev.step)?;
        Some(match ev.phase.lane() {
            Lane::Prepare | Lane::Fault | Lane::Lookahead => a.prep_start_s + ev.rel_start_s,
            Lane::Train => a.train_start_s + ev.rel_start_s,
        })
    }
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<SpanEvent>,
    capacity: usize,
    dropped: u64,
    hist: [LatencyHistogram; Phase::COUNT],
    anchors: Vec<StepAnchor>,
    series: Vec<StepPoint>,
}

/// Thread-safe per-trainer span recorder.
///
/// The engine holds one per trainer when tracing is enabled; when
/// disabled, no recorder exists and every call site short-circuits on
/// `Option::None` (the no-op fast path).
#[derive(Debug)]
pub struct SpanRecorder {
    trainer: u32,
    part_id: u32,
    inner: Mutex<Inner>,
}

/// Default ring capacity (events per trainer, ≈ 1.5 MiB).
pub const DEFAULT_CAPACITY: usize = 65_536;

impl SpanRecorder {
    /// Recorder for `(trainer, part_id)` with the default ring capacity.
    pub fn for_trainer(trainer: u32, part_id: u32) -> Self {
        Self::with_capacity(trainer, part_id, DEFAULT_CAPACITY)
    }

    /// Recorder with an explicit ring capacity (≥ 1).
    pub fn with_capacity(trainer: u32, part_id: u32, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanRecorder {
            trainer,
            part_id,
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
                hist: Default::default(),
                anchors: Vec::new(),
                series: Vec::new(),
            }),
        }
    }

    /// Record one span. The phase histogram is always updated; the ring
    /// drops its oldest event once full (counted in `dropped`).
    pub fn record(&self, step: u64, phase: Phase, rel_start_s: f64, dur_s: f64) {
        self.record_corr(step, phase, rel_start_s, dur_s, 0);
    }

    /// [`record`](Self::record) with a request-correlation id (0 = none).
    pub fn record_corr(&self, step: u64, phase: Phase, rel_start_s: f64, dur_s: f64, corr: u64) {
        let mut g = self.inner.lock().unwrap();
        g.hist[phase.index()].record(dur_s);
        if g.ring.len() == g.capacity {
            g.ring.pop_front();
            g.dropped += 1;
        }
        g.ring.push_back(SpanEvent {
            step,
            phase,
            rel_start_s,
            dur_s,
            corr,
        });
    }

    /// Record the simulated-time anchors of one step.
    pub fn record_anchor(&self, anchor: StepAnchor) {
        self.inner.lock().unwrap().anchors.push(anchor);
    }

    /// Record one step's telemetry sample.
    pub fn record_step(&self, point: StepPoint) {
        self.inner.lock().unwrap().series.push(point);
    }

    /// Snapshot everything recorded so far into plain data.
    pub fn snapshot(&self) -> TrainerTrace {
        let g = self.inner.lock().unwrap();
        let phases = Phase::REPORTED
            .iter()
            .filter(|p| g.hist[p.index()].count() > 0)
            .map(|&p| {
                let h = &g.hist[p.index()];
                PhaseStats {
                    phase: p,
                    count: h.count(),
                    sum_s: h.sum_s(),
                    min_s: h.min_s(),
                    max_s: h.max_s(),
                    p50_s: h.p50_s(),
                    p95_s: h.p95_s(),
                    p99_s: h.p99_s(),
                }
            })
            .collect();
        TrainerTrace {
            trainer: self.trainer,
            part_id: self.part_id,
            events: g.ring.iter().copied().collect(),
            dropped: g.dropped,
            anchors: g.anchors.clone(),
            phases,
            series: g.series.clone(),
        }
    }
}

impl Serialize for Phase {
    fn to_value(&self) -> Value {
        Value::Str(self.name().into())
    }
}

impl Serialize for Lane {
    fn to_value(&self) -> Value {
        Value::Str(self.name().into())
    }
}

impl Serialize for SpanEvent {
    fn to_value(&self) -> Value {
        Value::obj([
            ("step", self.step.to_value()),
            ("phase", self.phase.to_value()),
            ("lane", self.phase.lane().to_value()),
            ("rel_start_s", self.rel_start_s.to_value()),
            ("dur_s", self.dur_s.to_value()),
            ("corr", self.corr.to_value()),
        ])
    }
}

impl Serialize for StepAnchor {
    fn to_value(&self) -> Value {
        Value::obj([
            ("step", self.step.to_value()),
            ("prep_start_s", self.prep_start_s.to_value()),
            ("train_start_s", self.train_start_s.to_value()),
        ])
    }
}

impl Serialize for StepPoint {
    fn to_value(&self) -> Value {
        Value::obj([
            ("step", self.step.to_value()),
            ("stall_s", self.stall_s.to_value()),
            ("hits", self.hits.to_value()),
            ("misses", self.misses.to_value()),
            ("hit_rate", self.hit_rate().to_value()),
            ("overlap_efficiency", self.overlap_efficiency.to_value()),
        ])
    }
}

impl Serialize for PhaseStats {
    fn to_value(&self) -> Value {
        Value::obj([
            ("phase", self.phase.to_value()),
            ("count", self.count.to_value()),
            ("sum_s", self.sum_s.to_value()),
            ("min_s", self.min_s.to_value()),
            ("max_s", self.max_s.to_value()),
            ("p50_s", self.p50_s.to_value()),
            ("p95_s", self.p95_s.to_value()),
            ("p99_s", self.p99_s.to_value()),
        ])
    }
}

impl Serialize for TrainerTrace {
    fn to_value(&self) -> Value {
        Value::obj([
            ("trainer", self.trainer.to_value()),
            ("part_id", self.part_id.to_value()),
            ("dropped", self.dropped.to_value()),
            ("phases", self.phases.to_value()),
            ("series", self.series.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl TrainerTrace {
        /// Summary for `phase`, if any span of it was recorded.
        fn phase(&self, phase: Phase) -> Option<&PhaseStats> {
            self.phases.iter().find(|p| p.phase == phase)
        }
    }

    #[test]
    fn record_and_snapshot() {
        let r = SpanRecorder::for_trainer(3, 1);
        r.record(0, Phase::Sampling, 0.0, 1.0e-3);
        r.record(0, Phase::Rpc, 1.0e-3, 4.0e-3);
        r.record(0, Phase::Train, 0.0, 2.0e-3);
        r.record_anchor(StepAnchor {
            step: 0,
            prep_start_s: 0.0,
            train_start_s: 5.0e-3,
        });
        let t = r.snapshot();
        assert_eq!(t.trainer, 3);
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.dropped, 0);
        let rpc = t.phase(Phase::Rpc).unwrap();
        assert_eq!(rpc.count, 1);
        assert!((rpc.sum_s - 4.0e-3).abs() < 1e-15);
        assert!(t.phase(Phase::Evict).is_none());
        // Absolute placement through the anchor.
        let train_ev = t.events.iter().find(|e| e.phase == Phase::Train).unwrap();
        assert_eq!(t.absolute_start_s(train_ev), Some(5.0e-3));
        let rpc_ev = t.events.iter().find(|e| e.phase == Phase::Rpc).unwrap();
        assert_eq!(t.absolute_start_s(rpc_ev), Some(1.0e-3));
    }

    #[test]
    fn ring_drops_oldest_but_histograms_stay_complete() {
        let r = SpanRecorder::with_capacity(0, 0, 4);
        for step in 0..10u64 {
            r.record(step, Phase::Train, 0.0, 1.0e-3);
        }
        let t = r.snapshot();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        assert_eq!(t.events[0].step, 6, "oldest events evicted first");
        let train = t.phase(Phase::Train).unwrap();
        assert_eq!(train.count, 10, "histogram counts every record");
        assert!((train.sum_s - 10.0e-3).abs() < 1e-12);
    }

    #[test]
    fn concurrent_writers_sum_exactly() {
        let r = Arc::new(SpanRecorder::for_trainer(0, 0));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for step in 0..2000u64 {
                        r.record(step, Phase::Rpc, 0.0, 1.0e-6);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let t = r.snapshot();
        let rpc = t.phase(Phase::Rpc).unwrap();
        assert_eq!(rpc.count, 4000);
        assert!((rpc.sum_s - 4000.0e-6).abs() < 1e-9);
    }

    #[test]
    fn step_series_in_order() {
        let r = SpanRecorder::for_trainer(0, 0);
        for step in 0..5u64 {
            r.record_step(StepPoint {
                step,
                stall_s: 0.0,
                hits: step,
                misses: 1,
                overlap_efficiency: 1.0,
            });
        }
        let t = r.snapshot();
        assert_eq!(t.series.len(), 5);
        assert_eq!(t.series[4].hits, 4);
        assert!((t.series[4].hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fault_phase_is_out_of_band_but_reported() {
        assert!(!Phase::ALL.contains(&Phase::Fault));
        assert!(Phase::REPORTED.contains(&Phase::Fault));
        assert_eq!(Phase::REPORTED[..8], Phase::ALL);
        assert_eq!(Phase::Fault.index(), 8);
        assert_eq!(Phase::Fault.name(), "fault");
        assert_eq!(Lane::Fault.tid(), 4);

        let r = SpanRecorder::for_trainer(0, 0);
        r.record(2, Phase::Fault, 0.001, 0.05);
        // One anchor per step from step 0, as a trainer records them.
        for step in 0..2 {
            r.record_anchor(StepAnchor {
                step,
                ..Default::default()
            });
        }
        r.record_anchor(StepAnchor {
            step: 2,
            prep_start_s: 1.0,
            train_start_s: 2.0,
        });
        let t = r.snapshot();
        let f = t.phase(Phase::Fault).unwrap();
        assert_eq!(f.count, 1);
        assert!((f.sum_s - 0.05).abs() < 1e-15);
        // Fault spans anchor to the prepare window, like prepare spans.
        let ev = t
            .events
            .iter()
            .find(|e| e.phase.lane() == Lane::Fault)
            .unwrap();
        assert_eq!(t.absolute_start_s(ev), Some(1.001));
    }

    #[test]
    fn planned_phase_is_out_of_band_but_reported() {
        assert!(!Phase::ALL.contains(&Phase::Planned));
        assert!(Phase::REPORTED.contains(&Phase::Planned));
        assert_eq!(Phase::REPORTED[..8], Phase::ALL);
        assert_eq!(Phase::Planned.index(), 9);
        assert_eq!(Phase::Planned.name(), "planned");
        assert_eq!(Lane::Lookahead.tid(), 5);
        assert_eq!(Lane::Lookahead.name(), "lookahead");
        assert_eq!(Phase::REPORTED.len(), Phase::COUNT);
        for (i, p) in Phase::REPORTED.into_iter().enumerate() {
            assert_eq!(p.index(), i, "{}", p.name());
        }

        let r = SpanRecorder::for_trainer(0, 0);
        r.record(4, Phase::Planned, 0.0, 0.02);
        for step in 0..4 {
            r.record_anchor(StepAnchor {
                step,
                ..Default::default()
            });
        }
        r.record_anchor(StepAnchor {
            step: 4,
            prep_start_s: 3.0,
            train_start_s: 4.0,
        });
        let t = r.snapshot();
        let p = t.phase(Phase::Planned).unwrap();
        assert_eq!(p.count, 1);
        assert!((p.sum_s - 0.02).abs() < 1e-15);
        // Planned spans anchor to the prepare window, like prepare spans.
        let ev = t
            .events
            .iter()
            .find(|e| e.phase.lane() == Lane::Lookahead)
            .unwrap();
        assert_eq!(t.absolute_start_s(ev), Some(3.0));
    }

    #[test]
    fn corr_defaults_to_zero_and_round_trips() {
        let r = SpanRecorder::for_trainer(0, 0);
        r.record(0, Phase::Rpc, 0.0, 1.0e-3);
        r.record_corr(0, Phase::Fault, 0.0, 2.0e-3, 42);
        let t = r.snapshot();
        assert_eq!(t.events[0].corr, 0, "plain record is uncorrelated");
        assert_eq!(t.events[1].corr, 42);
    }

    #[test]
    fn missing_anchor_yields_none() {
        let r = SpanRecorder::for_trainer(0, 0);
        r.record(9, Phase::Sampling, 0.0, 1.0);
        let t = r.snapshot();
        assert_eq!(t.absolute_start_s(&t.events[0]), None);
        // An anchor at the step's index that belongs to another step
        // resolves nothing.
        r.record(0, Phase::Sampling, 0.0, 1.0);
        r.record_anchor(StepAnchor {
            step: 5,
            ..Default::default()
        });
        let t = r.snapshot();
        assert_eq!(t.absolute_start_s(&t.events[1]), None);
    }
}
