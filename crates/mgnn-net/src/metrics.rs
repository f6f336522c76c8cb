//! Communication and prefetch counters.
//!
//! Which counters exist, and what each is called in a report and in a
//! scrape, is the table in [`mgnn_obs::counters`]; this module folds the
//! pipeline's events into them. All are atomics so the prepare thread
//! and the trainer thread can update them concurrently (the paper's
//! Fig. 11 "remote nodes fetched" and §V-B5 communication-time analysis
//! come straight from these). Live telemetry reads the same atomics —
//! a telemetry run attaches [`CommMetrics::counters`] to
//! [`mgnn_obs::registry`] — so nothing here knows whether anyone is
//! looking.

use crate::wire::BYTES_PER_ELEM;
use mgnn_obs::events::{self, TraceEvent};
use mgnn_obs::{CounterSet, Phase, SpanRecorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Plain-data snapshot of [`CommMetrics`]' counters.
pub use mgnn_obs::CounterSnapshot as MetricsSnapshot;

/// Counters publish no other data, so every update is relaxed.
fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Exact event counters for one trainer.
///
/// Optionally carries that trainer's [`SpanRecorder`]: `CommMetrics` is
/// the one handle already shared by the trainer thread, its prepare
/// thread, and the prefetcher, so piggybacking the recorder here wires
/// span recording through the whole pipeline without changing any
/// signatures. With no recorder attached (the default), nothing records
/// a span.
#[derive(Debug, Default)]
pub struct CommMetrics {
    /// Span recorder for this trainer, when tracing is enabled.
    recorder: Option<Arc<SpanRecorder>>,
    /// Trainer rank used to derive deterministic request ids
    /// ([`mgnn_obs::events::request_id`]). Plain data set once at build
    /// time, before the metrics are shared.
    trace_rank: u64,
    /// The counters, shareable on their own so the live registry can
    /// hold them without holding the recorder's span ring.
    counters: Arc<CounterSet>,
}

impl CommMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh counters that also record spans into `recorder`.
    pub fn with_recorder(recorder: Arc<SpanRecorder>) -> Self {
        CommMetrics {
            recorder: Some(recorder),
            ..Self::default()
        }
    }

    /// The attached span recorder, if tracing is enabled.
    pub fn recorder(&self) -> Option<&Arc<SpanRecorder>> {
        self.recorder.as_ref()
    }

    /// The counter set every `record_*` method updates.
    pub fn counters(&self) -> &Arc<CounterSet> {
        &self.counters
    }

    /// Set the trainer rank request ids derive from. Called once at
    /// engine build, before the metrics are wrapped in an `Arc`.
    pub fn set_trace_rank(&mut self, rank: u64) {
        self.trace_rank = rank;
    }

    /// Trainer rank for request-id derivation (0 if never set).
    pub fn trace_rank(&self) -> u64 {
        self.trace_rank
    }

    /// Record one bulk RPC fetching `nodes` rows of `dim` features:
    /// `remote_bytes` grows by the payload those rows occupy on the wire.
    pub fn record_rpc(&self, nodes: u64, dim: usize) {
        if nodes == 0 {
            return;
        }
        let bytes = nodes * (dim * BYTES_PER_ELEM) as u64;
        let c = &*self.counters;
        add(&c.rpc_calls, 1);
        add(&c.remote_nodes_fetched, nodes);
        add(&c.remote_bytes, bytes);
    }

    /// Record gathering `nodes` local rows.
    pub fn record_local_copy(&self, nodes: u64) {
        add(&self.counters.local_nodes_copied, nodes);
    }

    /// Record buffer lookup results for one minibatch.
    pub fn record_lookup(&self, hits: u64, misses: u64) {
        let c = &*self.counters;
        add(&c.buffer_hits, hits);
        add(&c.buffer_misses, misses);
    }

    /// Record an eviction round that installed `replaced` rows, one per evicted slot.
    pub fn record_eviction(&self, replaced: u64) {
        let c = &*self.counters;
        add(&c.evictions, replaced);
        add(&c.replacements_fetched, replaced);
    }

    /// Fold one grouped pull's fault accounting into the counters.
    /// A no-op for a clean outcome, so the fault-free path's snapshot is
    /// untouched.
    pub fn record_pull_outcome(&self, o: &crate::cluster::PullOutcome) {
        if !o.had_faults() {
            return;
        }
        let c = &*self.counters;
        add(&c.rpc_retries, o.retries);
        add(&c.rpc_timeouts, o.timeouts);
        add(&c.rpc_truncations, o.truncations);
        add(&c.rpc_disconnects, o.disconnects);
        add(&c.rpc_delays, o.delay_events.len() as u64);
        add(&c.server_respawns, o.respawns);
    }

    /// Record the graceful-degradation rungs pull `request_id` of
    /// partition `part`'s trainer ended on: `stale` cancelled eviction
    /// replacements (the old resident kept serving) and `zero_filled`
    /// input rows served as zeros. Each non-zero count of a tagged pull
    /// (`request_id != 0`) also becomes a `stale_rows` / `degraded_rows`
    /// [`TraceEvent`] of that request, so the counters and the event log
    /// cannot be told different things.
    pub fn record_degradation(&self, request_id: u64, part: u32, stale: u64, zero_filled: u64) {
        let c = &*self.counters;
        for (counter, kind, value) in [
            (&c.stale_served, "stale_rows", stale),
            (&c.degraded_rows, "degraded_rows", zero_filled),
        ] {
            if value == 0 {
                continue;
            }
            add(counter, value);
            if request_id != 0 {
                events::push(TraceEvent {
                    request_id,
                    kind,
                    part,
                    attempt: 0,
                    value,
                });
            }
        }
    }

    /// Record a fault-lane span covering the simulated time `step` lost
    /// to faults (injected delays + retry/backoff charges), tagged with
    /// the pull's request-correlation id so the Perfetto export can draw
    /// a flow arrow from the pull's RPC span to the fault time it
    /// induced.
    pub fn fault_span_corr(&self, step: u64, rel_start_s: f64, dur_s: f64, corr: u64) {
        if let Some(r) = &self.recorder {
            r.record_corr(step, Phase::Fault, rel_start_s, dur_s, corr);
        }
    }

    /// Record one planned lookahead pull fetching `nodes` rows of `dim`
    /// features ahead of their due step. Counts into the planned
    /// counters *and* the remote-traffic totals
    /// ([`record_rpc`](Self::record_rpc)) — planned pulls move real bytes; the split
    /// lets reports separate planned volume from critical-path fetches.
    pub fn record_planned(&self, nodes: u64, dim: usize) {
        if nodes == 0 {
            return;
        }
        let c = &*self.counters;
        add(&c.planned_pulls, 1);
        add(&c.planned_rows, nodes);
        self.record_rpc(nodes, dim);
    }

    /// Snapshot all counters into a plain struct.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[test]
    fn empty_rpc_not_counted() {
        let m = CommMetrics::new();
        m.record_rpc(0, 128);
        assert_eq!(m.snapshot().rpc_calls, 0);
    }

    #[test]
    fn byte_accounting() {
        let m = CommMetrics::new();
        m.record_rpc(10, 128);
        let s = m.snapshot();
        assert_eq!(s.rpc_calls, 1);
        assert_eq!(s.remote_nodes_fetched, 10);
        assert_eq!(s.remote_bytes, 10 * 128 * BYTES_PER_ELEM as u64);
    }

    #[test]
    fn remote_bytes_equal_the_payload_bytes_actually_received() {
        use crate::kvstore::KvStore;
        // `remote_bytes` means "payload bytes of remote feature rows":
        // pin it to the payloads a store's bulk pull really fills, so the
        // counter cannot drift from the payload's element type.
        let dim = 5;
        let owned: Vec<u32> = (0..40).collect();
        let rows: Vec<f32> = (0..40 * dim).map(|i| i as f32 * 0.37 - 3.0).collect();
        let features = mgnn_graph::FeatureStore::from_parts(40, dim, rows, vec![0; 40], 1);
        let kv = KvStore::new(0, owned, &features);
        let m = CommMetrics::new();
        let mut payload = Vec::new();
        let mut received = 0u64;
        for ids in [vec![3u32, 1, 4], vec![], vec![15u32; 9], (0..40).collect()] {
            kv.pull_into(&ids, &mut payload).unwrap();
            received += std::mem::size_of_val(&payload[..]) as u64;
            m.record_rpc(ids.len() as u64, dim);
        }
        let s = m.snapshot();
        assert_eq!(s.remote_nodes_fetched, 3 + 9 + 40);
        assert_eq!(s.remote_bytes, received);
    }

    #[test]
    fn hit_rate_math() {
        let m = CommMetrics::new();
        assert_eq!(m.snapshot().hit_rate(), 0.0);
        m.record_lookup(3, 1);
        assert!((m.snapshot().hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums() {
        let a = MetricsSnapshot {
            buffer_hits: 2,
            buffer_misses: 2,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            buffer_hits: 6,
            buffer_misses: 0,
            ..Default::default()
        };
        let c = a.merge(&b);
        assert_eq!(c.buffer_hits, 8);
        assert!((c.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn concurrent_updates() {
        use std::sync::Arc;
        let m = Arc::new(CommMetrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record_lookup(1, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.buffer_hits, 4000);
        assert_eq!(s.buffer_misses, 4000);
    }

    #[test]
    fn two_threads_every_counter_sums_exactly() {
        use std::sync::Arc;
        // The real concurrency pattern: the trainer thread and the
        // prepare thread both hammer the same CommMetrics. Every
        // record_* method must sum exactly — no lost updates.
        let m = Arc::new(CommMetrics::new());
        const N: u64 = 2000;
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..N {
                        m.record_rpc(3, 8);
                        m.record_local_copy(5);
                        m.record_lookup(2, 1);
                        m.record_eviction(4);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.rpc_calls, 2 * N);
        assert_eq!(s.remote_nodes_fetched, 2 * N * 3);
        assert_eq!(s.remote_bytes, 2 * N * 3 * 8 * BYTES_PER_ELEM as u64);
        assert_eq!(s.local_nodes_copied, 2 * N * 5);
        assert_eq!(s.buffer_hits, 2 * N * 2);
        assert_eq!(s.buffer_misses, 2 * N);
        assert_eq!(s.evictions, 2 * N * 4);
        assert_eq!(s.replacements_fetched, 2 * N * 4);
    }

    #[test]
    fn pull_outcome_folds_into_counters() {
        use crate::cluster::PullOutcome;
        let m = CommMetrics::new();
        let clean = PullOutcome {
            rpcs: 3,
            ..Default::default()
        };
        m.record_pull_outcome(&clean);
        assert_eq!(
            m.snapshot(),
            MetricsSnapshot::default(),
            "clean outcome is a no-op"
        );
        assert!(!m.snapshot().had_faults());
        let chaotic = PullOutcome {
            request_id: 0,
            rpcs: 2,
            retries: 3,
            timeouts: 2,
            truncations: 1,
            disconnects: 1,
            rejections: 0,
            respawns: 1,
            delay_events: vec![(4, 2), (1, 5)],
            retry_events: vec![(4, 1), (4, 2), (1, 1)],
            failed_rows: vec![0],
        };
        m.record_pull_outcome(&chaotic);
        m.record_degradation(0, 0, 2, 1);
        let s = m.snapshot();
        assert!(s.had_faults());
        assert_eq!(s.rpc_retries, 3);
        assert_eq!(s.rpc_timeouts, 2);
        assert_eq!(s.rpc_truncations, 1);
        assert_eq!(s.rpc_disconnects, 1);
        assert_eq!(s.rpc_delays, 2);
        assert_eq!(s.server_respawns, 1);
        assert_eq!(s.stale_served, 2);
        assert_eq!(s.degraded_rows, 1);
        let merged = s.merge(&s);
        assert_eq!(merged.rpc_retries, 6);
        assert_eq!(merged.degraded_rows, 2);
        let v = s.to_value();
        assert_eq!(v.get("rpc_retries").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("server_respawns").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn fault_span_lands_on_fault_lane() {
        use mgnn_obs::{Lane, Phase};
        use std::sync::Arc;
        let rec = Arc::new(SpanRecorder::for_trainer(0, 0));
        let m = CommMetrics::with_recorder(Arc::clone(&rec));
        m.fault_span_corr(3, 0.001, 0.01, 0);
        let t = rec.snapshot();
        let f = t.phases.iter().find(|p| p.phase == Phase::Fault).unwrap();
        assert_eq!(f.count, 1);
        assert!((f.sum_s - 0.01).abs() < 1e-12);
        assert!(t
            .events
            .iter()
            .any(|e| e.phase.lane() == Lane::Fault && e.phase == Phase::Fault && e.step == 3));
    }

    #[test]
    fn planned_pulls_count_into_remote_totals_and_own_counters() {
        let m = CommMetrics::new();
        m.record_planned(0, 8); // empty planning round: no-op
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        m.record_planned(5, 8);
        let s = m.snapshot();
        assert_eq!(s.planned_pulls, 1);
        assert_eq!(s.planned_rows, 5);
        assert_eq!(s.rpc_calls, 1, "planned pulls are real RPC traffic");
        assert_eq!(s.remote_nodes_fetched, 5);
        assert_eq!(s.remote_bytes, 5 * 8 * BYTES_PER_ELEM as u64);
        let merged = s.merge(&s);
        assert_eq!(merged.planned_rows, 10);
        let v = s.to_value();
        assert_eq!(v.get("planned_pulls").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("planned_rows").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn snapshot_serializes() {
        let m = CommMetrics::new();
        m.record_rpc(2, 4);
        m.record_lookup(1, 1);
        let v = m.snapshot().to_value();
        assert_eq!(v.get("rpc_calls").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("remote_bytes").unwrap().as_u64(),
            Some(2 * 4 * BYTES_PER_ELEM as u64)
        );
        assert_eq!(v.get("hit_rate").unwrap().as_f64(), Some(0.5));
    }
}
