//! Simulated cluster wiring: one KVStore and one [`FaultPlan`] per
//! partition (every store a view of the one resident feature matrix),
//! and one bulk pull that groups requested nodes by owner partition
//! (DistDGL batches one RPC per remote server per minibatch). A pull
//! runs on the caller's thread: each attempt of a touched partition's
//! leg is that partition's [`FaultPlan::answer`] and, unless the verdict
//! loses the reply, a [`KvStore::pull_into`] into the leg's receive
//! buffer — real bytes in the [`wire`] format, while the *time* such a
//! pull would cost on a cluster is charged by the cost model.
//!
//! [`SimCluster::pull_rows`] hands the rows back as they arrived — a
//! [`PulledRows`] over the per-partition payloads, still in wire format
//! — and the caller decodes each row once, straight into the tensor row
//! or buffer slot it is for. The id lists and receive buffers of a pull
//! stay with their legs through every attempt and are recycled through
//! a free-list on the cluster, so a fault-free pull allocates nothing
//! once they have grown.
//!
//! The cluster is also where the fault-tolerance ladder lives. A pull
//! against a faulty server can have its reply dropped (a timeout), come
//! back truncated, or meet the profile's crash; the pull retries with
//! the configured [`RetryPolicy`], books a respawn for the crash, and —
//! once retries are exhausted — serves the affected rows as zeros rather
//! than failing the whole pull, reporting exactly what happened in a
//! [`PullOutcome`] so callers can charge simulated time and degrade
//! gracefully. What an attempt meets depends on its request id and
//! attempt number alone — the crash meets the designated trainer's
//! `crash_after`-th request to its part — never on which trainer got to
//! a server first. The crashed server keeps answering, so its respawn is
//! an event and a count. The crash countdown belongs to a run:
//! [`SimCluster::rearm_crash`] starts it again.

use crate::fault::{FaultPlan, FaultProfile, FaultVerdict, RetryPolicy};
use crate::kvstore::KvStore;
use crate::wire::{self, WireElem};
use mgnn_graph::{FeatureStore, NodeId};
use std::sync::{Arc, Mutex};

/// Everything that deviated from the happy path during one grouped pull.
/// All counts are exact and — with a seeded [`FaultProfile`] — a pure
/// function of the pull's request id and its trainer's earlier requests
/// to the crashing part, whichever thread issues it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PullOutcome {
    /// Correlation id this pull was tagged with
    /// ([`mgnn_obs::events::request_id`]); 0 means untagged. Tagged
    /// pulls additionally emit [`mgnn_obs::events::TraceEvent`]s as they
    /// walk the fault ladder, so every degraded row is attributable to
    /// the verdict that caused it.
    pub request_id: u64,
    /// Attempts whose reply was dropped.
    pub timeouts: u64,
    /// Replies rejected for a short payload.
    pub truncations: u64,
    /// Attempts that met the crash and found the server gone; each is
    /// booked as a server respawn ([`PullOutcome::respawns`]).
    pub disconnects: u64,
    /// Requests a server refused because they named an id it does not
    /// own. A routing error is deterministic: never retried.
    pub rejections: u64,
    /// Injected delay tags observed: `(nodes_in_request, k)` per event.
    pub delay_events: Vec<(usize, u32)>,
    /// Retry attempts issued after a failed attempt, each charged to the
    /// sim clock: `(nodes_in_request, attempt_number)` per event (1-based).
    pub retry_events: Vec<(usize, u32)>,
    /// Row indices (into the request's `ids`) that exhausted retries and
    /// were zero-filled, in ascending order.
    pub failed_rows: Vec<usize>,
}

impl PullOutcome {
    /// Whether any fault was observed at all.
    pub fn had_faults(&self) -> bool {
        // A retry, a respawn and a zero-filled row each follow a failed
        // attempt, so the failures and the delays are all there is.
        self.timeouts + self.truncations + self.disconnects + self.rejections > 0
            || !self.delay_events.is_empty()
    }

    /// Retry attempts issued after a failed attempt.
    pub fn retries(&self) -> u64 {
        self.retry_events.len() as u64
    }

    /// Crashes met, each booked as a server respawn: one per disconnect.
    pub fn respawns(&self) -> u64 {
        self.disconnects
    }

    /// Simulated seconds this pull lost to faults: each injected delay
    /// charges `k ×` the request's RPC time, and each retry re-charges
    /// the request's RPC time plus the policy's deterministic backoff.
    /// Zero on the fault-free path, so charging `t_rpc + charge_s` is
    /// bitwise-identical to the pre-fault timing when nothing fired.
    pub fn charge_s(&self, cost: &crate::cost::CostModel, dim: usize, retry: &RetryPolicy) -> f64 {
        let mut t = 0.0;
        for &(nodes, k) in &self.delay_events {
            t += f64::from(k) * cost.t_rpc(nodes, dim);
        }
        for &(nodes, attempt) in &self.retry_events {
            t += cost.t_rpc(nodes, dim) + retry.backoff_s(attempt);
        }
        t
    }
}

/// One partition's leg of a grouped pull, kept through every attempt.
#[derive(Default)]
struct Leg {
    /// Ids asked of this partition, in request order.
    ids: Vec<NodeId>,
    /// The receive buffer: `ids.len() × dim` wire elements once
    /// `delivered`.
    payload: Vec<WireElem>,
    /// Whether `payload` holds this pull's rows. False for a partition
    /// the pull did not touch or whose ladder was exhausted.
    delivered: bool,
}

/// Everything one grouped pull allocates, kept together so that it is
/// recycled in one piece.
#[derive(Default)]
struct PullSet {
    /// One leg per partition.
    legs: Vec<Leg>,
    /// Request row → (partition, index within that partition's leg).
    position: Vec<(u32, u32)>,
}

/// The rows of one grouped pull, as they arrived: per-partition payloads
/// in [`wire`] format plus the table that says where each requested row
/// sits. Nothing is decoded until [`decode_into`](Self::decode_into)
/// writes a row where it is used. Dropping the handle returns its
/// buffers to the cluster for the next pull.
pub struct PulledRows<'a> {
    cluster: &'a SimCluster,
    set: PullSet,
}

impl PulledRows<'_> {
    /// Widen request row `row` into `out` (`dim` long) — the one copy a
    /// pulled row makes on the client. A row listed in
    /// [`PullOutcome::failed_rows`] is written as zeros: `out` is fully
    /// overwritten either way, whatever it held.
    pub fn decode_into(&self, row: usize, out: &mut [f32]) {
        let (part, idx) = self.set.position[row];
        let leg = &self.set.legs[part as usize];
        if leg.delivered {
            let dim = self.cluster.dim;
            let start = idx as usize * dim;
            wire::decode_row(&leg.payload[start..start + dim], out);
        } else {
            out.fill(0.0);
        }
    }
}

impl Drop for PulledRows<'_> {
    fn drop(&mut self) {
        // A poisoned free-list only costs the recycling.
        if let Ok(mut free) = self.cluster.free_sets.lock() {
            free.push(std::mem::take(&mut self.set));
        }
    }
}

/// The in-process stand-in for a multi-node cluster.
pub struct SimCluster {
    stores: Vec<KvStore>,
    /// One per store; a plan of [`FaultProfile::off`] without a profile.
    plans: Vec<FaultPlan>,
    dim: usize,
    /// Owner partition of every global node, the one every store reads.
    assignment: Arc<[u32]>,
    retry: RetryPolicy,
    /// Pull sets between pulls: as many as pulls were ever in flight at
    /// once, each grown to the largest pull it carried.
    free_sets: Mutex<Vec<PullSet>>,
}

impl SimCluster {
    /// Build a cluster from a global feature store and a partition
    /// `assignment` (`assignment[u]` = owner partition of node `u`).
    pub fn new(features: &FeatureStore, assignment: &[u32], num_parts: usize) -> Self {
        Self::with_faults(
            features,
            assignment,
            num_parts,
            None,
            RetryPolicy::default(),
        )
    }

    /// Like [`SimCluster::new`], but servers answer under a deterministic
    /// fault profile (when `Some`) and failed pulls follow `retry`. The
    /// profile's crash, if it has one, meets rank 0's requests.
    pub fn with_faults(
        features: &FeatureStore,
        assignment: &[u32],
        num_parts: usize,
        profile: Option<FaultProfile>,
        retry: RetryPolicy,
    ) -> Self {
        Self::with_faults_designating(features, assignment, num_parts, profile, retry, 0)
    }

    /// [`SimCluster::with_faults`], with the profile's crash meeting the
    /// requests of trainer `designated` (the rank its request ids carry).
    /// Panics on a profile or policy whose `validate` refuses it.
    pub fn with_faults_designating(
        features: &FeatureStore,
        assignment: &[u32],
        num_parts: usize,
        profile: Option<FaultProfile>,
        retry: RetryPolicy,
        designated: u64,
    ) -> Self {
        assert_eq!(features.num_nodes(), assignment.len());
        let checked = profile.as_ref().map_or(Ok(()), |p| p.validate(num_parts));
        if let Err(problem) = checked.and(retry.validate()) {
            panic!("invalid fault configuration: {problem}");
        }
        let dim = features.dim();
        // Every shard serves out of `features` itself and reads the one
        // `assignment` (shared handles): building a cluster copies no
        // rows and lists no shard's ids.
        let assignment: Arc<[u32]> = assignment.into();
        let stores = (0..num_parts as u32)
            .map(|p| KvStore::new(p, Arc::clone(&assignment), features))
            .collect();
        let profile = profile.unwrap_or(FaultProfile::off(0));
        let plans = (0..num_parts as u32)
            .map(|p| profile.plan_for(p, designated))
            .collect();
        SimCluster {
            stores,
            plans,
            dim,
            assignment,
            retry,
            free_sets: Mutex::new(Vec::new()),
        }
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.stores.len()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The retry/backoff policy failed pulls follow.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Owner partition of global node `g`.
    pub fn owner(&self, g: NodeId) -> u32 {
        self.assignment[g as usize]
    }

    /// Direct (same-address-space) access to a partition's store — the
    /// *local* KVStore path, no RPC.
    pub fn store(&self, part: u32) -> &KvStore {
        &self.stores[part as usize]
    }

    /// Start the profile's crash countdown again ([`FaultPlan::rearm`]),
    /// so that a run of this cluster meets the same crash as the first.
    pub fn rearm_crash(&self) {
        for plan in &self.plans {
            plan.rearm();
        }
    }

    /// Pull features for arbitrary global `ids` from their owners'
    /// servers, grouping by owner (one bulk request per touched
    /// partition, like DistDGL), and hand them back undecoded.
    /// `request_id` tags the pull: every fault verdict the pull meets is
    /// answered for it ([`FaultPlan::answer`]), and when it is nonzero
    /// and the global event log ([`mgnn_obs::events`]) is installed,
    /// every verdict is recorded against that id.
    ///
    /// Ladder per partition, one partition after another: attempt → (on
    /// failure) book a respawn for a crash and retry up to
    /// `RetryPolicy::max_retries` times → give the partition's rows up:
    /// they read as zeros and are listed in `PullOutcome::failed_rows`.
    pub fn pull_rows(&self, ids: &[NodeId], request_id: u64) -> (PulledRows<'_>, PullOutcome) {
        let mut outcome = PullOutcome {
            request_id,
            ..PullOutcome::default()
        };
        let mut set = self
            .free_sets
            .lock()
            .expect("free-list holder panicked")
            .pop()
            .unwrap_or_default();
        let PullSet { legs, position } = &mut set;
        legs.resize_with(self.num_parts(), Leg::default);
        for leg in legs.iter_mut() {
            leg.ids.clear();
            leg.delivered = false;
        }
        position.clear();
        for &g in ids {
            let part = self.owner(g);
            let leg = &mut legs[part as usize];
            position.push((part, leg.ids.len() as u32));
            leg.ids.push(g);
        }
        for (part, leg) in legs.iter_mut().enumerate() {
            if !leg.ids.is_empty() {
                leg.delivered = self.climb_ladder(part, leg, &mut outcome);
            }
        }
        // Rows of partitions that exhausted every retry are reported as
        // failed, in request order.
        let starved = |leg: &Leg| !leg.ids.is_empty() && !leg.delivered;
        if legs.iter().any(starved) {
            for (row, &(part, _)) in position.iter().enumerate() {
                if !legs[part as usize].delivered {
                    outcome.failed_rows.push(row);
                }
            }
            for (part, leg) in legs.iter().enumerate() {
                if starved(leg) {
                    Self::emit(&outcome, "zero_fill", part, 0, leg.ids.len() as u64);
                }
            }
        }
        (PulledRows { cluster: self, set }, outcome)
    }

    /// [`pull_rows`](Self::pull_rows) decoded into one dense row-major
    /// `Vec<f32>` in the order of `ids` — each element rounded once by
    /// the [`wire`] format it crossed in, failed rows zero — with the
    /// pull's full fault accounting. For callers that want the whole
    /// image; the training path decodes row by row instead. The pull is
    /// untagged (request id 0): under a fault profile every such pull
    /// meets one fixed verdict per partition and attempt.
    pub fn pull_grouped_checked(&self, ids: &[NodeId]) -> (Vec<f32>, PullOutcome) {
        let (rows, outcome) = self.pull_rows(ids, 0);
        let mut out = vec![0.0f32; ids.len() * self.dim];
        if self.dim > 0 {
            for (row, dst) in out.chunks_mut(self.dim).enumerate() {
                rows.decode_into(row, dst);
            }
        }
        (out, outcome)
    }

    /// How many receive buffers sit in the free-list right now (grown
    /// ones only: a buffer of a partition no pull ever touched holds
    /// nothing).
    pub fn pooled_buffers(&self) -> usize {
        let free = self.free_sets.lock().expect("free-list holder panicked");
        free.iter()
            .flat_map(|set| &set.legs)
            .filter(|leg| leg.payload.capacity() > 0)
            .count()
    }

    /// Emit one fault-ladder event against a tagged pull. Free for
    /// untagged pulls and one atomic load when the event log is off.
    fn emit(outcome: &PullOutcome, kind: &'static str, part: usize, attempt: u32, value: u64) {
        if outcome.request_id != 0 && mgnn_obs::events::enabled() {
            mgnn_obs::events::push(mgnn_obs::events::TraceEvent {
                request_id: outcome.request_id,
                kind,
                part: part as u32,
                attempt,
                value,
            });
        }
    }

    /// The retry ladder of one partition's leg: attempt 0, then a retry
    /// after each failure up to the policy's `max_retries`, every
    /// attempt on the leg's own id list and receive buffer. Each attempt
    /// is the plan's verdict: a drop is a timeout and a crash a
    /// disconnect, both answered unserved; any other verdict gathers the
    /// rows, and then a truncation (of a payload that has a row to lose)
    /// fails the attempt while a delay tags the reply. Returns whether
    /// the rows were delivered; if not, they read as zeros. A crash is
    /// booked as a respawn — an event and a count, for the server
    /// answered it and keeps answering — even when retries are spent. A
    /// rejection ends the ladder at once: the server would refuse the
    /// same ids again.
    fn climb_ladder(&self, part: usize, leg: &mut Leg, outcome: &mut PullOutcome) -> bool {
        let rows = leg.ids.len();
        for attempt in 0..=self.retry.max_retries {
            if attempt > 0 {
                outcome.retry_events.push((rows, attempt));
                Self::emit(outcome, "retry", part, attempt, rows as u64);
            }
            let verdict = self.plans[part].answer(outcome.request_id, attempt);
            let lost = matches!(verdict, FaultVerdict::Drop | FaultVerdict::Crash);
            let store = &self.stores[part];
            if !lost && store.pull_into(&leg.ids, &mut leg.payload).is_err() {
                outcome.rejections += 1;
                Self::emit(outcome, "rejected", part, attempt, 0);
                return false;
            }
            let kind = match verdict {
                FaultVerdict::Drop => {
                    outcome.timeouts += 1;
                    "timeout"
                }
                FaultVerdict::Crash => {
                    outcome.disconnects += 1;
                    Self::emit(outcome, "disconnect", part, attempt, 0);
                    // The server answered and keeps answering: a respawn.
                    "respawn"
                }
                FaultVerdict::Truncate if !leg.payload.is_empty() => {
                    outcome.truncations += 1;
                    "truncated"
                }
                // A zero factor tags nothing.
                FaultVerdict::Delay(k) if k > 0 => {
                    outcome.delay_events.push((rows, k));
                    Self::emit(outcome, "delay", part, attempt, u64::from(k));
                    return true;
                }
                _ => return true,
            };
            Self::emit(outcome, kind, part, attempt, 0);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgnn_graph::generators::erdos_renyi;
    use mgnn_graph::FeatureStore;

    fn fixture() -> (FeatureStore, Vec<u32>) {
        let g = erdos_renyi(60, 240, 3);
        let f = FeatureStore::synthesize(&g, 8, 3, 1);
        let assignment: Vec<u32> = (0..60).map(|u| (u % 4) as u32).collect();
        (f, assignment)
    }

    /// What a pulled copy of `row` must equal, exactly.
    fn on_wire(row: &[f32]) -> Vec<f32> {
        row.iter().map(|&x| wire::round_trip(x)).collect()
    }

    fn two_retries() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn stores_partition_ownership() {
        let (f, a) = fixture();
        let c = SimCluster::new(&f, &a, 4);
        assert_eq!(c.num_parts(), 4);
        for u in 0..60u32 {
            assert!(c.store(c.owner(u)).owns(u));
        }
    }

    #[test]
    fn pull_grouped_matches_ground_truth() {
        let (f, a) = fixture();
        let c = SimCluster::new(&f, &a, 4);
        let ids = vec![7u32, 3, 42, 7, 11];
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert!(!outcome.had_faults());
        for (i, &g) in ids.iter().enumerate() {
            assert_eq!(&out[i * 8..(i + 1) * 8], on_wire(f.row(g)), "row {g}");
        }
    }

    #[test]
    fn pull_empty() {
        let (f, a) = fixture();
        let c = SimCluster::new(&f, &a, 4);
        let (out, outcome) = c.pull_grouped_checked(&[]);
        assert!(out.is_empty());
        assert_eq!(outcome, PullOutcome::default());
    }

    #[test]
    fn labels_preserved() {
        let (f, a) = fixture();
        let c = SimCluster::new(&f, &a, 4);
        for u in 0..60u32 {
            assert_eq!(c.store(c.owner(u)).label(u), f.label(u));
        }
    }

    #[test]
    fn faultless_profile_outcome_is_clean() {
        let (f, a) = fixture();
        let c = SimCluster::with_faults(&f, &a, 4, Some(FaultProfile::off(3)), two_retries());
        let ids = vec![7u32, 3, 42, 7, 11];
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert!(!outcome.had_faults());
        assert!(outcome.charge_s(&crate::cost::CostModel::default(), 8, c.retry_policy()) == 0.0);
        for (i, &g) in ids.iter().enumerate() {
            assert_eq!(&out[i * 8..(i + 1) * 8], on_wire(f.row(g)), "row {g}");
        }
    }

    /// A hand-built profile meets the rules `EngineConfig::validate` holds
    /// an engine's to: a delay of factor 0 would book as a clean reply.
    #[test]
    #[should_panic(expected = "fault.delay_factor must be >= 1")]
    fn a_directly_built_cluster_refuses_an_invalid_profile() {
        let (f, a) = fixture();
        let profile = FaultProfile {
            delay_prob: 0.5,
            delay_factor: 0,
            ..FaultProfile::off(1)
        };
        SimCluster::with_faults(&f, &a, 4, Some(profile), RetryPolicy::default());
    }

    #[test]
    fn crash_is_recovered_by_respawn_with_correct_data() {
        let (f, a) = fixture();
        let profile = FaultProfile {
            crash_part: Some(2),
            crash_after: 0,
            ..FaultProfile::off(5)
        };
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), two_retries());
        let ids: Vec<u32> = (0..60).collect();
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert_eq!(outcome.respawns(), 1);
        assert!(outcome.disconnects >= 1);
        assert!(outcome.retries() >= 1);
        assert!(
            outcome.failed_rows.is_empty(),
            "respawn + retry must deliver every row: {:?}",
            outcome.failed_rows
        );
        for (i, &g) in ids.iter().enumerate() {
            assert_eq!(&out[i * 8..(i + 1) * 8], on_wire(f.row(g)), "row {g}");
        }
        // The respawned server is healthy: a second pull is clean.
        let (_, second) = c.pull_grouped_checked(&ids);
        assert!(!second.had_faults());
    }

    /// A crash moves no other request's verdict: every other request is
    /// keyed on itself, so the same tagged pulls meet the same delays,
    /// truncations and drops on a crashing cluster as on a crash-free one
    /// — all but the designated rank's pull the crash hit, however the
    /// pulls of two ranks on two threads interleave.
    #[test]
    fn a_crash_moves_no_other_requests_verdict() {
        use mgnn_obs::events::{request_id, ORIGIN_PREPARE};
        let (f, a) = fixture();
        let calm = FaultProfile {
            drop_prob: 0.1,
            delay_prob: 0.2,
            delay_factor: 2,
            truncate_prob: 0.1,
            ..FaultProfile::off(13)
        };
        let crashing = FaultProfile {
            crash_part: Some(1),
            crash_after: 5,
            ..calm.clone()
        };
        let retry = RetryPolicy {
            max_retries: 4,
            ..RetryPolicy::default()
        };
        let calm = &SimCluster::with_faults(&f, &a, 4, Some(calm), retry.clone());
        let crashing = &SimCluster::with_faults(&f, &a, 4, Some(crashing), retry);
        let ids: &[u32] = &(0..60).collect::<Vec<_>>();
        // Rank 0 is a directly built cluster's designated trainer.
        let per_rank = std::thread::scope(|s| {
            [0u64, 1]
                .map(|rank| {
                    s.spawn(move || {
                        let mut differ = Vec::new();
                        let mut faults = 0;
                        for step in 0..32 {
                            let req = request_id(ORIGIN_PREPARE, rank, step);
                            let (_, want) = calm.pull_rows(ids, req);
                            let (_, got) = crashing.pull_rows(ids, req);
                            faults += want.timeouts + want.truncations;
                            faults += want.delay_events.len() as u64;
                            if got != want {
                                differ.push((rank, step, got.respawns()));
                            }
                        }
                        (differ, faults)
                    })
                })
                .map(|t| t.join().expect("puller panicked"))
        });
        let mut differ = Vec::new();
        for (moved, faults) in per_rank {
            assert!(faults > 20, "the profile must fire: {faults}");
            differ.extend(moved);
        }
        assert_eq!(
            differ.len(),
            1,
            "only the pull the crash hit moves: {differ:?}"
        );
        assert_eq!(differ[0].0, 0, "the designated rank's pull");
        assert_eq!(differ[0].2, 1, "and that pull met the crash");
    }

    #[test]
    fn exhausted_retries_zero_fill_and_report_rows() {
        let (f, a) = fixture();
        // Every partition drops every reply; retries can never succeed.
        let profile = FaultProfile {
            drop_prob: 1.0,
            ..FaultProfile::off(9)
        };
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), two_retries());
        let ids = vec![4u32, 5, 6, 7]; // parts 0..=3, one row each
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert_eq!(outcome.failed_rows, vec![0, 1, 2, 3]);
        assert_eq!(
            outcome.timeouts as usize,
            4 * (1 + 2),
            "first try + 2 retries per part"
        );
        assert_eq!(outcome.retries(), 8);
        assert!(out.iter().all(|&v| v == 0.0), "failed rows are zero-filled");
        assert!(!outcome.failed_rows.is_empty());
        assert_eq!(c.pooled_buffers(), 0, "a dropped reply grows no buffer");

        // Every reply served a row short: each leg's buffer was grown on
        // the first attempt, kept through both retries, and goes back to
        // the free-list with the rest of the pull.
        let profile = FaultProfile {
            truncate_prob: 1.0,
            ..FaultProfile::off(9)
        };
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), two_retries());
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert_eq!(outcome.failed_rows, vec![0, 1, 2, 3]);
        assert_eq!(outcome.truncations, 4 * (1 + 2));
        assert!(out.iter().all(|&v| v == 0.0));
        assert_eq!(c.pooled_buffers(), 4, "one grown buffer per touched leg");
    }

    /// Truncating an empty payload loses nothing: a zero-width store
    /// under a profile that truncates every reply delivers every row and
    /// counts no truncation.
    #[test]
    fn truncating_an_empty_payload_loses_nothing() {
        let f = FeatureStore::from_parts(8, 0, Vec::new(), vec![0; 8], 1);
        let a: Vec<u32> = (0..8).map(|u| u % 4).collect();
        let profile = FaultProfile {
            truncate_prob: 1.0,
            ..FaultProfile::off(9)
        };
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), two_retries());
        let (rows, outcome) = c.pull_rows(&[0, 1, 2, 3, 4, 5, 6, 7], 0);
        assert_eq!(outcome.truncations, 0);
        assert!(outcome.failed_rows.is_empty() && !outcome.had_faults());
        for row in 0..8 {
            rows.decode_into(row, &mut []);
        }
    }

    #[test]
    fn pull_sets_are_recycled_not_accumulated() {
        let (f, a) = fixture();
        let c = SimCluster::new(&f, &a, 4);
        assert_eq!(c.pooled_buffers(), 0);
        for round in 0..50u32 {
            // Parts 1 and 2 only, a different number of rows each round.
            let ids: Vec<u32> = (0..=round % 7)
                .flat_map(|k| [4 * k + 1, 4 * k + 2])
                .collect();
            let (rows, _) = c.pull_rows(&ids, 0);
            assert_eq!(c.pooled_buffers(), 0, "in use while the handle lives");
            drop(rows);
            assert_eq!(c.pooled_buffers(), 2, "round {round}");
        }
        // Two pulls alive at once need two sets; both come back.
        let (one, _) = c.pull_rows(&[1, 2], 0);
        let (two, _) = c.pull_rows(&[3], 0);
        drop((one, two));
        assert_eq!(c.pooled_buffers(), 3);
        assert_eq!(c.free_sets.lock().unwrap().len(), 2);
    }

    #[test]
    fn a_rejected_pull_is_attempted_once_and_zero_filled() {
        let (f, a) = fixture();
        let mut c = SimCluster::with_faults(&f, &a, 4, None, two_retries());
        // A routing bug: node 5 (owned by part 1) is believed to be on 2.
        let mut routing = c.assignment.to_vec();
        routing[5] = 2;
        c.assignment = routing.into();
        let (rows, outcome) = c.pull_rows(&[6, 5, 9], 0);
        assert_eq!(outcome.rejections, 1);
        assert_eq!(outcome.retries(), 0, "the same ids would be refused again");
        assert!(outcome.retry_events.is_empty());
        assert_eq!((outcome.disconnects, outcome.respawns()), (0, 0));
        // Part 2's whole request was refused; part 1's row is intact.
        assert_eq!(outcome.failed_rows, vec![0, 1]);
        let mut out = [f32::NAN; 8];
        for row in [0, 1] {
            rows.decode_into(row, &mut out);
            assert_eq!(out, [0.0; 8], "row {row}");
        }
        rows.decode_into(2, &mut out);
        assert_eq!(out[..], on_wire(f.row(9))[..]);
        drop(rows);
        // The server survived the request it refused.
        let (_, next) = c.pull_rows(&[6], 0);
        assert!(!next.had_faults());
    }

    #[test]
    fn delays_are_tagged_not_slept() {
        let (f, a) = fixture();
        let profile = FaultProfile {
            delay_prob: 1.0,
            delay_factor: 6,
            ..FaultProfile::off(2)
        };
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), two_retries());
        let ids = vec![0u32, 1, 2, 3];
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert_eq!(outcome.delay_events.len(), 4);
        assert!(outcome.delay_events.iter().all(|&(n, k)| n == 1 && k == 6));
        assert!(outcome.failed_rows.is_empty());
        for (i, &g) in ids.iter().enumerate() {
            assert_eq!(&out[i * 8..(i + 1) * 8], on_wire(f.row(g)), "row {g}");
        }
        // Sim-time charge: 4 delayed single-node requests at k=6.
        let cost = crate::cost::CostModel::default();
        let want = 4.0 * 6.0 * cost.t_rpc(1, 8);
        let got = outcome.charge_s(&cost, 8, c.retry_policy());
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    // The event log is process-global, so this must stay the only test
    // in this binary that installs it (see mgnn_obs::sink for the
    // pattern).
    #[test]
    fn tagged_pulls_emit_correlated_events_untagged_pulls_do_not() {
        use mgnn_obs::events;
        let (f, a) = fixture();
        let profile = FaultProfile {
            drop_prob: 1.0,
            ..FaultProfile::off(9)
        };
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), two_retries());
        let req = events::request_id(events::ORIGIN_PREPARE, 1, 42);
        events::install();
        // Untagged: full fault ladder, zero events.
        let (_, untagged) = c.pull_grouped_checked(&[4u32, 5, 6, 7]);
        assert!(!untagged.failed_rows.is_empty());
        assert_eq!(untagged.request_id, 0);
        assert!(events::drain().is_empty(), "untagged pulls must be silent");
        // Tagged: every ladder rung lands in the log under one id.
        let (_, tagged) = c.pull_rows(&[4u32, 5, 6, 7], req);
        // The degradation the trainer then books lands under the same
        // id, from the one call that also moves the counters; an
        // untagged one moves the counters only.
        let m = crate::CommMetrics::new();
        m.record_degradation(req, 2, 0, tagged.failed_rows.len() as u64);
        m.record_degradation(0, 2, 1, 1);
        assert_eq!(m.snapshot().degraded_rows, 5);
        assert_eq!(m.snapshot().stale_served, 1);
        let got = events::uninstall();
        assert_eq!(tagged.request_id, req);
        assert!(got.iter().all(|e| e.request_id == req));
        let count_kind = |k: &str| got.iter().filter(|e| e.kind == k).count();
        assert_eq!(count_kind("timeout") as u64, tagged.timeouts);
        assert_eq!(count_kind("retry") as u64, tagged.retries());
        assert_eq!(count_kind("zero_fill"), 4, "one per starved partition");
        let zero_rows: u64 = got
            .iter()
            .filter(|e| e.kind == "zero_fill")
            .map(|e| e.value)
            .sum();
        assert_eq!(zero_rows as usize, tagged.failed_rows.len());
        let degraded: Vec<_> = got.iter().filter(|e| e.kind == "degraded_rows").collect();
        assert_eq!(
            degraded.len(),
            1,
            "one event per non-zero count of a tagged request"
        );
        assert_eq!((degraded[0].part, degraded[0].value), (2, 4));
        assert_eq!(count_kind("stale_rows"), 0);
        // With the log uninstalled, tagged pulls cost one atomic load.
        let (_, after) = c.pull_rows(&[4u32], req);
        assert_eq!(after.request_id, req);
    }

    #[test]
    fn same_seed_same_outcome() {
        let (f, a) = fixture();
        let profile = FaultProfile {
            drop_prob: 0.3,
            delay_prob: 0.3,
            delay_factor: 2,
            truncate_prob: 0.2,
            ..FaultProfile::off(77)
        };
        let run = || {
            let c = SimCluster::with_faults(&f, &a, 4, Some(profile.clone()), two_retries());
            let mut outs = Vec::new();
            for _ in 0..3 {
                outs.push(c.pull_grouped_checked(&[1, 2, 3, 4, 5, 6, 7, 8]));
            }
            outs
        };
        assert_eq!(run(), run(), "seeded chaos must replay bit-for-bit");
    }
}
