//! Communication and prefetch counters.
//!
//! All counters are atomics so the prepare thread and the trainer thread
//! can update them concurrently (the paper's Fig. 11 "remote nodes fetched"
//! and §V-B5 communication-time analysis come straight from these).
//!
//! When the live telemetry registry ([`mgnn_obs::registry`]) is enabled,
//! every `record_*` method mirrors its increments into the corresponding
//! global counter — the hook lives *inside* the method that updates the
//! per-trainer atomic, so registry totals reconcile exactly with the
//! summed [`MetricsSnapshot`]s by construction. Disabled, each hook is
//! one relaxed atomic load.

use crate::wire::BYTES_PER_ELEM;
use mgnn_obs::registry;
use mgnn_obs::{Lane, Phase, SpanRecorder};
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Exact event counters for one trainer.
///
/// Optionally carries that trainer's [`SpanRecorder`]: `CommMetrics` is
/// the one handle already shared by the trainer thread, its prepare
/// thread, and the prefetcher, so piggybacking the recorder here wires
/// span recording through the whole pipeline without changing any
/// signatures. With no recorder attached (the default), the `*_spanned`
/// methods degrade to their plain counterparts.
#[derive(Debug, Default)]
pub struct CommMetrics {
    /// Span recorder for this trainer, when tracing is enabled.
    recorder: Option<Arc<SpanRecorder>>,
    /// Trainer rank used to derive deterministic request ids
    /// ([`mgnn_obs::events::request_id`]). Plain data set once at build
    /// time, before the metrics are shared.
    trace_rank: u64,
    /// Bulk RPC requests issued.
    pub rpc_calls: AtomicU64,
    /// Remote node feature rows fetched over RPC (the paper's Fig. 11 Y).
    pub remote_nodes_fetched: AtomicU64,
    /// Payload bytes of the remote feature rows moved over the network.
    pub remote_bytes: AtomicU64,
    /// Local feature rows copied from the partition's own KVStore.
    pub local_nodes_copied: AtomicU64,
    /// Prefetch-buffer hits (sampled halo node found in buffer).
    pub buffer_hits: AtomicU64,
    /// Prefetch-buffer misses.
    pub buffer_misses: AtomicU64,
    /// Nodes evicted from the buffer.
    pub evictions: AtomicU64,
    /// Replacement nodes fetched on eviction rounds.
    pub replacements_fetched: AtomicU64,
    /// RPC retry attempts issued after a failed pull.
    pub rpc_retries: AtomicU64,
    /// Pull attempts that timed out (dropped replies).
    pub rpc_timeouts: AtomicU64,
    /// Replies rejected for a truncated payload.
    pub rpc_truncations: AtomicU64,
    /// Pull attempts that found a dead server.
    pub rpc_disconnects: AtomicU64,
    /// Injected delay tags observed on replies.
    pub rpc_delays: AtomicU64,
    /// Servers respawned from their resident KvStore.
    pub server_respawns: AtomicU64,
    /// Eviction replacements cancelled because the fetch failed — the
    /// stale resident row kept serving instead (degradation rung 2).
    pub stale_served: AtomicU64,
    /// Input rows zero-filled after retries were exhausted
    /// (degradation rung 3).
    pub degraded_rows: AtomicU64,
    /// Planned lookahead pulls issued (one per planning round that
    /// actually fetched rows). Zero under the scoreboard policy.
    pub planned_pulls: AtomicU64,
    /// Halo rows fetched ahead of their due step by the lookahead
    /// planner. Also counted in `remote_nodes_fetched` (they are real
    /// network traffic); this counter separates planned from
    /// critical-path volume.
    pub planned_rows: AtomicU64,
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

    /// Set the trainer rank request ids derive from. Called once at
    /// engine build, before the metrics are wrapped in an `Arc`.
    pub fn set_trace_rank(&mut self, rank: u64) {
        self.trace_rank = rank;
    }

    /// Trainer rank for request-id derivation (0 if never set).
    pub fn trace_rank(&self) -> u64 {
        self.trace_rank
    }

    /// Record a span for `phase` of `step` on the prepare lane, if a
    /// recorder is attached. `rel_start_s` is relative to the step's
    /// prepare-window start.
    pub fn span(&self, step: u64, phase: Phase, rel_start_s: f64, dur_s: f64) {
        if let Some(r) = &self.recorder {
            r.record(Lane::Prepare, step, phase, rel_start_s, dur_s);
        }
    }

    /// Record one bulk RPC fetching `nodes` rows of `dim` features:
    /// `remote_bytes` grows by the payload those rows occupy on the wire.
    pub fn record_rpc(&self, nodes: u64, dim: usize) {
        if nodes == 0 {
            return;
        }
        let bytes = nodes * (dim * BYTES_PER_ELEM) as u64;
        self.rpc_calls.fetch_add(1, Ordering::Relaxed);
        self.remote_nodes_fetched
            .fetch_add(nodes, Ordering::Relaxed);
        self.remote_bytes.fetch_add(bytes, Ordering::Relaxed);
        if registry::enabled() {
            registry::RPC_CALLS.inc();
            registry::REMOTE_NODES.add(nodes);
            registry::REMOTE_BYTES.add(bytes);
        }
    }

    /// Record gathering `nodes` local rows.
    pub fn record_local_copy(&self, nodes: u64) {
        self.local_nodes_copied.fetch_add(nodes, Ordering::Relaxed);
        if registry::enabled() {
            registry::LOCAL_NODES.add(nodes);
        }
    }

    /// [`record_rpc`](Self::record_rpc) plus an `rpc` span for `step`.
    /// The span is recorded even for `nodes == 0` (a zero-duration fetch
    /// is still one pipeline stage), keeping histogram counts equal to
    /// the step count.
    pub fn record_rpc_spanned(
        &self,
        nodes: u64,
        dim: usize,
        step: u64,
        rel_start_s: f64,
        dur_s: f64,
    ) {
        self.record_rpc_spanned_corr(nodes, dim, step, rel_start_s, dur_s, 0);
    }

    /// [`record_rpc_spanned`](Self::record_rpc_spanned) with a
    /// request-correlation id on the span (0 = none), tying the `rpc`
    /// slice to its tagged pull in Perfetto flow renderings.
    pub fn record_rpc_spanned_corr(
        &self,
        nodes: u64,
        dim: usize,
        step: u64,
        rel_start_s: f64,
        dur_s: f64,
        corr: u64,
    ) {
        if let Some(r) = &self.recorder {
            r.record_corr(Lane::Prepare, step, Phase::Rpc, rel_start_s, dur_s, corr);
        }
        self.record_rpc(nodes, dim);
    }

    /// [`record_local_copy`](Self::record_local_copy) plus a `copy` span
    /// for `step` (recorded even for `nodes == 0`; see
    /// [`record_rpc_spanned`](Self::record_rpc_spanned)).
    pub fn record_local_copy_spanned(&self, nodes: u64, step: u64, rel_start_s: f64, dur_s: f64) {
        self.span(step, Phase::Copy, rel_start_s, dur_s);
        self.record_local_copy(nodes);
    }

    /// Record buffer lookup results for one minibatch.
    pub fn record_lookup(&self, hits: u64, misses: u64) {
        self.buffer_hits.fetch_add(hits, Ordering::Relaxed);
        self.buffer_misses.fetch_add(misses, Ordering::Relaxed);
        if registry::enabled() {
            registry::PREFETCH_HITS.add(hits);
            registry::PREFETCH_MISSES.add(misses);
        }
    }

    /// Record an eviction round.
    pub fn record_eviction(&self, evicted: u64, replaced: u64) {
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.replacements_fetched
            .fetch_add(replaced, Ordering::Relaxed);
        if registry::enabled() {
            registry::EVICTIONS.add(evicted);
            registry::REPLACEMENTS.add(replaced);
        }
    }

    /// Fold one grouped pull's fault accounting into the counters.
    /// A no-op for a clean outcome, so the fault-free path's snapshot is
    /// untouched.
    pub fn record_pull_outcome(&self, o: &crate::cluster::PullOutcome) {
        if !o.had_faults() {
            return;
        }
        self.rpc_retries.fetch_add(o.retries, Ordering::Relaxed);
        self.rpc_timeouts.fetch_add(o.timeouts, Ordering::Relaxed);
        self.rpc_truncations
            .fetch_add(o.truncations, Ordering::Relaxed);
        self.rpc_disconnects
            .fetch_add(o.disconnects, Ordering::Relaxed);
        self.rpc_delays
            .fetch_add(o.delay_events.len() as u64, Ordering::Relaxed);
        self.server_respawns
            .fetch_add(o.respawns, Ordering::Relaxed);
        if registry::enabled() {
            registry::RPC_RETRIES.add(o.retries);
            registry::RPC_TIMEOUTS.add(o.timeouts);
            registry::RPC_TRUNCATIONS.add(o.truncations);
            registry::RPC_DISCONNECTS.add(o.disconnects);
            registry::RPC_DELAYS.add(o.delay_events.len() as u64);
            registry::SERVER_RESPAWNS.add(o.respawns);
        }
    }

    /// Record graceful-degradation events: `stale` cancelled eviction
    /// replacements (the old resident kept serving) and `zero_filled`
    /// input rows served as zeros.
    pub fn record_degradation(&self, stale: u64, zero_filled: u64) {
        self.stale_served.fetch_add(stale, Ordering::Relaxed);
        self.degraded_rows.fetch_add(zero_filled, Ordering::Relaxed);
        if registry::enabled() {
            registry::STALE_SERVED.add(stale);
            registry::DEGRADED_ROWS.add(zero_filled);
        }
    }

    /// Record a fault-lane span covering the simulated time `step` lost
    /// to faults (injected delays + retry/backoff charges).
    pub fn fault_span(&self, step: u64, rel_start_s: f64, dur_s: f64) {
        self.fault_span_corr(step, rel_start_s, dur_s, 0);
    }

    /// [`fault_span`](Self::fault_span) tagged with a request correlation
    /// id, so the Perfetto export can draw a flow arrow from the pull's
    /// RPC span to the fault time it induced.
    pub fn fault_span_corr(&self, step: u64, rel_start_s: f64, dur_s: f64, corr: u64) {
        if let Some(r) = &self.recorder {
            r.record_corr(Lane::Fault, step, Phase::Fault, rel_start_s, dur_s, corr);
        }
    }

    /// Record one planned lookahead pull fetching `nodes` rows of `dim`
    /// features ahead of their due step. Counts into the planned
    /// counters *and* the remote-traffic totals ([`record_rpc`]
    /// (Self::record_rpc)) — planned pulls move real bytes; the split
    /// lets reports separate planned volume from critical-path fetches.
    pub fn record_planned(&self, nodes: u64, dim: usize) {
        if nodes == 0 {
            return;
        }
        self.planned_pulls.fetch_add(1, Ordering::Relaxed);
        self.planned_rows.fetch_add(nodes, Ordering::Relaxed);
        if registry::enabled() {
            registry::PLANNED_PULLS.inc();
            registry::PLANNED_ROWS.add(nodes);
        }
        self.record_rpc(nodes, dim);
    }

    /// Record a lookahead-lane span covering a planning round's pull
    /// time within `step`'s prepare window.
    pub fn planned_span(&self, step: u64, rel_start_s: f64, dur_s: f64) {
        if let Some(r) = &self.recorder {
            r.record(Lane::Lookahead, step, Phase::Planned, rel_start_s, dur_s);
        }
    }

    /// Cumulative hit rate (Eq. 8 of the paper): `h / (h + m)`;
    /// 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.buffer_hits.load(Ordering::Relaxed) as f64;
        let m = self.buffer_misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Snapshot all counters into a plain struct.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            rpc_calls: self.rpc_calls.load(Ordering::Relaxed),
            remote_nodes_fetched: self.remote_nodes_fetched.load(Ordering::Relaxed),
            remote_bytes: self.remote_bytes.load(Ordering::Relaxed),
            local_nodes_copied: self.local_nodes_copied.load(Ordering::Relaxed),
            buffer_hits: self.buffer_hits.load(Ordering::Relaxed),
            buffer_misses: self.buffer_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            replacements_fetched: self.replacements_fetched.load(Ordering::Relaxed),
            rpc_retries: self.rpc_retries.load(Ordering::Relaxed),
            rpc_timeouts: self.rpc_timeouts.load(Ordering::Relaxed),
            rpc_truncations: self.rpc_truncations.load(Ordering::Relaxed),
            rpc_disconnects: self.rpc_disconnects.load(Ordering::Relaxed),
            rpc_delays: self.rpc_delays.load(Ordering::Relaxed),
            server_respawns: self.server_respawns.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
            degraded_rows: self.degraded_rows.load(Ordering::Relaxed),
            planned_pulls: self.planned_pulls.load(Ordering::Relaxed),
            planned_rows: self.planned_rows.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`CommMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Bulk RPC requests issued.
    pub rpc_calls: u64,
    /// Remote node feature rows fetched over RPC.
    pub remote_nodes_fetched: u64,
    /// Payload bytes of the remote feature rows moved over the network.
    pub remote_bytes: u64,
    /// Local feature rows copied.
    pub local_nodes_copied: u64,
    /// Prefetch-buffer hits.
    pub buffer_hits: u64,
    /// Prefetch-buffer misses.
    pub buffer_misses: u64,
    /// Nodes evicted.
    pub evictions: u64,
    /// Replacement rows fetched.
    pub replacements_fetched: u64,
    /// RPC retry attempts.
    pub rpc_retries: u64,
    /// Pull attempts that timed out.
    pub rpc_timeouts: u64,
    /// Truncated replies rejected.
    pub rpc_truncations: u64,
    /// Pull attempts that found a dead server.
    pub rpc_disconnects: u64,
    /// Injected delay tags observed.
    pub rpc_delays: u64,
    /// Servers respawned.
    pub server_respawns: u64,
    /// Stale buffer rows served after a cancelled replacement.
    pub stale_served: u64,
    /// Zero-filled input rows.
    pub degraded_rows: u64,
    /// Planned lookahead pulls issued.
    pub planned_pulls: u64,
    /// Halo rows fetched ahead of need by the lookahead planner.
    pub planned_rows: u64,
}

impl MetricsSnapshot {
    /// Hit rate of this snapshot.
    pub fn hit_rate(&self) -> f64 {
        let t = self.buffer_hits + self.buffer_misses;
        if t == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / t as f64
        }
    }

    /// Sum two snapshots (aggregate across trainers).
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            rpc_calls: self.rpc_calls + other.rpc_calls,
            remote_nodes_fetched: self.remote_nodes_fetched + other.remote_nodes_fetched,
            remote_bytes: self.remote_bytes + other.remote_bytes,
            local_nodes_copied: self.local_nodes_copied + other.local_nodes_copied,
            buffer_hits: self.buffer_hits + other.buffer_hits,
            buffer_misses: self.buffer_misses + other.buffer_misses,
            evictions: self.evictions + other.evictions,
            replacements_fetched: self.replacements_fetched + other.replacements_fetched,
            rpc_retries: self.rpc_retries + other.rpc_retries,
            rpc_timeouts: self.rpc_timeouts + other.rpc_timeouts,
            rpc_truncations: self.rpc_truncations + other.rpc_truncations,
            rpc_disconnects: self.rpc_disconnects + other.rpc_disconnects,
            rpc_delays: self.rpc_delays + other.rpc_delays,
            server_respawns: self.server_respawns + other.server_respawns,
            stale_served: self.stale_served + other.stale_served,
            degraded_rows: self.degraded_rows + other.degraded_rows,
            planned_pulls: self.planned_pulls + other.planned_pulls,
            planned_rows: self.planned_rows + other.planned_rows,
        }
    }

    /// Whether any fault, retry, or degradation event was recorded.
    pub fn had_faults(&self) -> bool {
        self.rpc_retries
            + self.rpc_timeouts
            + self.rpc_truncations
            + self.rpc_disconnects
            + self.rpc_delays
            + self.server_respawns
            + self.stale_served
            + self.degraded_rows
            > 0
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        Value::obj([
            ("rpc_calls", self.rpc_calls.to_value()),
            ("remote_nodes_fetched", self.remote_nodes_fetched.to_value()),
            ("remote_bytes", self.remote_bytes.to_value()),
            ("local_nodes_copied", self.local_nodes_copied.to_value()),
            ("buffer_hits", self.buffer_hits.to_value()),
            ("buffer_misses", self.buffer_misses.to_value()),
            ("evictions", self.evictions.to_value()),
            ("replacements_fetched", self.replacements_fetched.to_value()),
            ("rpc_retries", self.rpc_retries.to_value()),
            ("rpc_timeouts", self.rpc_timeouts.to_value()),
            ("rpc_truncations", self.rpc_truncations.to_value()),
            ("rpc_disconnects", self.rpc_disconnects.to_value()),
            ("rpc_delays", self.rpc_delays.to_value()),
            ("server_respawns", self.server_respawns.to_value()),
            ("stale_served", self.stale_served.to_value()),
            ("degraded_rows", self.degraded_rows.to_value()),
            ("planned_pulls", self.planned_pulls.to_value()),
            ("planned_rows", self.planned_rows.to_value()),
            ("hit_rate", self.hit_rate().to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use crate::rpc::RpcServer;
        // `remote_bytes` means "payload bytes of remote feature rows":
        // pin it to the replies a real server sends, so the counter
        // cannot drift from the payload's element type.
        let dim = 5;
        let owned: Vec<u32> = (0..40).collect();
        let rows: Vec<f32> = (0..40 * dim).map(|i| i as f32 * 0.37 - 3.0).collect();
        let features = mgnn_graph::FeatureStore::from_parts(40, dim, rows, vec![0; 40], 1);
        let kv = KvStore::new(0, owned, &features);
        let server = RpcServer::spawn(Arc::new(kv));
        let client = server.client();
        let m = CommMetrics::new();
        let mut received = 0u64;
        for ids in [vec![3u32, 1, 4], vec![], vec![15u32; 9], (0..40).collect()] {
            let rows = ids.len() as u64;
            let payload = client.pull(ids).unwrap();
            received += std::mem::size_of_val(&payload[..]) as u64;
            m.record_rpc(rows, dim);
        }
        let s = m.snapshot();
        assert_eq!(s.remote_nodes_fetched, 3 + 9 + 40);
        assert_eq!(s.remote_bytes, received);
    }

    #[test]
    fn hit_rate_math() {
        let m = CommMetrics::new();
        assert_eq!(m.hit_rate(), 0.0);
        m.record_lookup(3, 1);
        assert!((m.hit_rate() - 0.75).abs() < 1e-12);
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
                        m.record_eviction(4, 6);
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
        assert_eq!(s.replacements_fetched, 2 * N * 6);
    }

    #[test]
    fn spanned_variants_feed_recorder_and_counters() {
        use mgnn_obs::Phase;
        use std::sync::Arc;
        let rec = Arc::new(SpanRecorder::for_trainer(0, 0));
        let m = CommMetrics::with_recorder(Arc::clone(&rec));
        m.record_rpc_spanned(10, 4, 0, 0.001, 0.002);
        m.record_rpc_spanned(0, 4, 1, 0.001, 0.0); // empty fetch: span only
        m.record_local_copy_spanned(7, 0, 0.001, 0.0005);
        let s = m.snapshot();
        assert_eq!(s.rpc_calls, 1, "empty RPC still skipped in counters");
        assert_eq!(s.remote_nodes_fetched, 10);
        assert_eq!(s.local_nodes_copied, 7);
        let t = rec.snapshot();
        assert_eq!(t.phase(Phase::Rpc).unwrap().count, 2, "span per step");
        assert_eq!(t.phase(Phase::Copy).unwrap().count, 1);
    }

    #[test]
    fn spanned_variants_without_recorder_match_plain() {
        let a = CommMetrics::new();
        let b = CommMetrics::new();
        a.record_rpc_spanned(10, 4, 0, 0.0, 0.1);
        a.record_local_copy_spanned(3, 0, 0.0, 0.1);
        b.record_rpc(10, 4);
        b.record_local_copy(3);
        assert_eq!(a.snapshot(), b.snapshot());
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
        m.record_degradation(2, 1);
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
        m.fault_span(3, 0.001, 0.01);
        let t = rec.snapshot();
        let f = t.phase(Phase::Fault).unwrap();
        assert_eq!(f.count, 1);
        assert!((f.sum_s - 0.01).abs() < 1e-12);
        assert!(t
            .events
            .iter()
            .any(|e| e.lane == Lane::Fault && e.phase == Phase::Fault && e.step == 3));
    }

    #[test]
    fn planned_pulls_count_into_remote_totals_and_own_counters() {
        use mgnn_obs::{Lane, Phase};
        use std::sync::Arc;
        let rec = Arc::new(SpanRecorder::for_trainer(0, 0));
        let m = CommMetrics::with_recorder(Arc::clone(&rec));
        m.record_planned(0, 8); // empty planning round: no-op
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        m.record_planned(5, 8);
        m.planned_span(3, 0.0, 0.004);
        let s = m.snapshot();
        assert_eq!(s.planned_pulls, 1);
        assert_eq!(s.planned_rows, 5);
        assert_eq!(s.rpc_calls, 1, "planned pulls are real RPC traffic");
        assert_eq!(s.remote_nodes_fetched, 5);
        assert_eq!(s.remote_bytes, 5 * 8 * BYTES_PER_ELEM as u64);
        let t = rec.snapshot();
        let p = t.phase(Phase::Planned).unwrap();
        assert_eq!(p.count, 1);
        assert!((p.sum_s - 0.004).abs() < 1e-15);
        assert!(t
            .events
            .iter()
            .any(|e| e.lane == Lane::Lookahead && e.phase == Phase::Planned && e.step == 3));
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
