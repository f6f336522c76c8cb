//! Simulated cluster wiring: one KVStore per partition (all of them
//! views of the one resident feature matrix), optional real RPC
//! server threads, and one bulk pull that groups requested nodes by
//! owner partition (DistDGL batches one RPC per remote server per
//! minibatch).
//!
//! [`SimCluster::pull_rows`] hands the rows back as they arrived — a
//! [`PulledRows`] over the per-partition payloads, still in wire format
//! — and the caller decodes each row once, straight into the tensor row
//! or buffer slot it is for. The id lists, receive buffers and reply
//! channels of a pull are recycled through a free-list on the cluster,
//! so a fault-free pull allocates nothing once they have grown.
//!
//! The cluster is also where the fault-tolerance ladder lives. A pull
//! against a faulty server can time out, come back truncated, or find
//! the server dead; the pull retries with the configured
//! [`RetryPolicy`], respawns a crashed server from its (still-resident)
//! [`KvStore`], and — once retries are exhausted — serves the affected
//! rows as zeros rather than failing the whole pull, reporting exactly
//! what happened in a [`PullOutcome`] so callers can charge simulated
//! time and degrade gracefully.

use crate::fault::{FaultProfile, RetryPolicy};
use crate::kvstore::KvStore;
use crate::rpc::{PullHandle, PullResponse, ReplyChannel, RpcClient, RpcError, RpcServer};
use crate::wire::{self, WireElem};
use mgnn_graph::{FeatureStore, NodeId};
use std::sync::{Arc, Mutex};

/// One partition's live server endpoint. Guarded by a mutex so a
/// crashed server can be respawned (and its client handle swapped)
/// without tearing down the cluster; `generation` detects respawns that
/// already happened between a failed attempt and the recovery path.
struct Remote {
    server: Option<RpcServer>,
    client: RpcClient,
    generation: u64,
}

/// Chaos configuration attached to a cluster.
struct ClusterFaults {
    profile: FaultProfile,
}

/// Everything that deviated from the happy path during one grouped pull.
/// All counts are exact and — with a seeded [`FaultProfile`] and a
/// single issuing thread — fully deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PullOutcome {
    /// Correlation id this pull was tagged with
    /// ([`mgnn_obs::events::request_id`]); 0 means untagged. Tagged
    /// pulls additionally emit [`mgnn_obs::events::TraceEvent`]s as they
    /// walk the fault ladder, so every degraded row is attributable to
    /// the verdict that caused it.
    pub request_id: u64,
    /// Bulk RPCs issued in the first round (one per touched partition);
    /// retries are counted separately so the fault-free accounting is
    /// unchanged.
    pub rpcs: usize,
    /// Retry attempts issued after a failed attempt.
    pub retries: u64,
    /// Attempts that timed out waiting for a reply.
    pub timeouts: u64,
    /// Replies rejected for a short payload.
    pub truncations: u64,
    /// Attempts that found the server dead (send failed or the reply
    /// channel disconnected).
    pub disconnects: u64,
    /// Requests a server refused because they named an id it does not
    /// own. A routing error is deterministic: never retried.
    pub rejections: u64,
    /// Servers respawned from their resident KvStore.
    pub respawns: u64,
    /// Injected delay tags observed: `(nodes_in_request, k)` per event.
    pub delay_events: Vec<(usize, u32)>,
    /// Retry attempts charged to the sim clock:
    /// `(nodes_in_request, attempt_number)` per event (1-based).
    pub retry_events: Vec<(usize, u32)>,
    /// Row indices (into the request's `ids`) that exhausted retries and
    /// were zero-filled, in ascending order.
    pub failed_rows: Vec<usize>,
}

impl PullOutcome {
    /// Whether any fault was observed at all.
    pub fn had_faults(&self) -> bool {
        self.retries > 0
            || self.timeouts > 0
            || self.truncations > 0
            || self.disconnects > 0
            || self.rejections > 0
            || self.respawns > 0
            || !self.delay_events.is_empty()
            || !self.failed_rows.is_empty()
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

/// One partition's leg of a grouped pull: what the request lends the
/// server and gets back with the reply.
#[derive(Default)]
struct Leg {
    /// Ids asked of this partition, in request order (away with the
    /// request while it is in flight).
    ids: Vec<NodeId>,
    /// How many ids that is, for the accounting while `ids` is away.
    rows: usize,
    /// The receive buffer: `rows × dim` wire elements once `delivered`.
    payload: Vec<WireElem>,
    /// The reply channel of the last served pull, free for the next.
    reply: Option<ReplyChannel>,
    /// First-round request and the server generation it was sent to.
    in_flight: Option<(Result<PullHandle, RpcError>, u64)>,
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
    stores: Vec<Arc<KvStore>>,
    remotes: Vec<Mutex<Remote>>,
    dim: usize,
    /// Owner partition of every global node.
    assignment: Vec<u32>,
    faults: Option<ClusterFaults>,
    retry: RetryPolicy,
    /// Pull sets between pulls: as many as pulls were ever in flight at
    /// once, each grown to the largest pull it carried.
    free_sets: Mutex<Vec<PullSet>>,
}

impl SimCluster {
    /// Build a cluster from a global feature store and a partition
    /// `assignment` (`assignment[u]` = owner partition of node `u`).
    /// Spawns one real server thread per partition.
    pub fn new(features: &FeatureStore, assignment: &[u32], num_parts: usize) -> Self {
        Self::with_faults(
            features,
            assignment,
            num_parts,
            None,
            RetryPolicy::default(),
        )
    }

    /// Like [`SimCluster::new`], but servers run under a deterministic
    /// fault profile (when `Some`) and failed pulls follow `retry`.
    pub fn with_faults(
        features: &FeatureStore,
        assignment: &[u32],
        num_parts: usize,
        profile: Option<FaultProfile>,
        retry: RetryPolicy,
    ) -> Self {
        assert_eq!(features.num_nodes(), assignment.len());
        let dim = features.dim();
        let mut owned: Vec<Vec<NodeId>> = vec![Vec::new(); num_parts];
        for (u, &p) in assignment.iter().enumerate() {
            owned[p as usize].push(u as NodeId);
        }
        // Every shard serves out of `features` itself (a shared handle):
        // spawning a cluster copies no rows.
        let stores: Vec<Arc<KvStore>> = owned
            .into_iter()
            .enumerate()
            .map(|(p, ids)| Arc::new(KvStore::new(p as u32, ids, features)))
            .collect();
        let remotes: Vec<Mutex<Remote>> = stores
            .iter()
            .enumerate()
            .map(|(p, s)| {
                let plan = profile.as_ref().map(|f| f.plan_for(p as u32));
                let server = RpcServer::spawn(Arc::clone(s), plan);
                let client = server.client();
                Mutex::new(Remote {
                    server: Some(server),
                    client,
                    generation: 0,
                })
            })
            .collect();
        SimCluster {
            stores,
            remotes,
            dim,
            assignment: assignment.to_vec(),
            faults: profile.map(|profile| ClusterFaults { profile }),
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
    pub fn store(&self, part: u32) -> &Arc<KvStore> {
        &self.stores[part as usize]
    }

    /// Pull features for arbitrary global `ids` through the RPC servers,
    /// grouping by owner (one bulk request per touched partition, like
    /// DistDGL), and hand them back undecoded. `request_id` tags the
    /// pull: when it is nonzero and the global event log
    /// ([`mgnn_obs::events`]) is installed, every fault verdict this pull
    /// hits is recorded against that id.
    ///
    /// Ladder per partition: issue → (on failure) respawn a dead server
    /// and retry up to `RetryPolicy::max_retries` times → give the
    /// partition's rows up: they read as zeros and are listed in
    /// `PullOutcome::failed_rows`.
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
        // Issue all first-round pulls before waiting on any, so healthy
        // servers overlap even while one partition misbehaves.
        for (part, leg) in legs.iter_mut().enumerate() {
            leg.rows = leg.ids.len();
            if leg.rows == 0 {
                continue;
            }
            outcome.rpcs += 1;
            let (client, generation) = self.current_client(part);
            let issued = client.pull_async_into(
                std::mem::take(&mut leg.ids),
                std::mem::take(&mut leg.payload),
                leg.reply.take(),
            );
            leg.in_flight = Some((issued, generation));
        }
        for (part, leg) in legs.iter_mut().enumerate() {
            let Some((issued, generation)) = leg.in_flight.take() else {
                continue;
            };
            let served = match issued.and_then(|h| self.wait_on(h)) {
                Ok(resp) => {
                    self.note_delay(&resp, part, 0, &mut outcome);
                    Some(resp)
                }
                Err(e) => {
                    // What the failed attempt was lent is gone with it.
                    let list: Vec<NodeId> = ids
                        .iter()
                        .zip(position.iter())
                        .filter(|(_, &(p, _))| p as usize == part)
                        .map(|(&g, _)| g)
                        .collect();
                    self.recover_part(part, &list, e, generation, &mut outcome)
                }
            };
            if let Some(resp) = served {
                leg.ids = resp.ids;
                leg.payload = resp.payload;
                leg.reply = Some(resp.reply);
                leg.delivered = true;
            }
        }
        // Rows of partitions that exhausted every retry are reported as
        // failed, in request order.
        let starved = |leg: &Leg| leg.rows > 0 && !leg.delivered;
        if legs.iter().any(starved) {
            for (row, &(part, _)) in position.iter().enumerate() {
                if !legs[part as usize].delivered {
                    outcome.failed_rows.push(row);
                }
            }
            for (part, leg) in legs.iter().enumerate() {
                if starved(leg) {
                    Self::emit(&outcome, "zero_fill", part, 0, leg.rows as u64);
                }
            }
        }
        (PulledRows { cluster: self, set }, outcome)
    }

    /// [`pull_rows`](Self::pull_rows) decoded into one dense row-major
    /// `Vec<f32>` in the order of `ids` — each element rounded once by
    /// the [`wire`] format it crossed in, failed rows zero — with the
    /// pull's full fault accounting. For callers that want the whole
    /// image; the training path decodes row by row instead.
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

    /// The live client of partition `part` and the generation it talks to.
    fn current_client(&self, part: usize) -> (RpcClient, u64) {
        let g = self.remotes[part].lock().unwrap();
        (g.client.clone(), g.generation)
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

    /// Wait for one reply, bounded by the retry policy's timeout when a
    /// fault profile is active. The fault-free path blocks indefinitely
    /// — exactly the pre-fault behaviour, with no wall-clock sensitivity.
    fn wait_on(&self, handle: PullHandle) -> Result<PullResponse, RpcError> {
        match &self.faults {
            Some(_) => handle.wait_timeout(self.retry.timeout),
            None => handle.wait(),
        }
    }

    fn note_delay(
        &self,
        resp: &PullResponse,
        part: usize,
        attempt: u32,
        outcome: &mut PullOutcome,
    ) {
        if resp.delay_k > 0 {
            outcome.delay_events.push((resp.ids.len(), resp.delay_k));
            Self::emit(outcome, "delay", part, attempt, u64::from(resp.delay_k));
        }
    }

    fn note_failure(&self, err: &RpcError, part: usize, attempt: u32, outcome: &mut PullOutcome) {
        let kind = match err {
            RpcError::Timeout => {
                outcome.timeouts += 1;
                "timeout"
            }
            RpcError::Truncated { .. } => {
                outcome.truncations += 1;
                "truncated"
            }
            RpcError::ServerGone => {
                outcome.disconnects += 1;
                "disconnect"
            }
            RpcError::Kv(_) => {
                outcome.rejections += 1;
                "rejected"
            }
        };
        Self::emit(outcome, kind, part, attempt, 0);
    }

    /// Retry ladder for one partition after a failed first attempt at
    /// `list`. Returns the served response, or `None` once every retry is
    /// exhausted (the rows then read as zeros). The server is respawned
    /// on disconnect even when retries are spent, so later pulls find a
    /// healthy endpoint. A rejection ends the ladder at once: the server
    /// would refuse the same ids again.
    fn recover_part(
        &self,
        part: usize,
        list: &[NodeId],
        first_err: RpcError,
        seen_generation: u64,
        outcome: &mut PullOutcome,
    ) -> Option<PullResponse> {
        let mut err = first_err;
        let mut generation = seen_generation;
        for attempt in 1..=self.retry.max_retries {
            self.note_failure(&err, part, attempt - 1, outcome);
            match err {
                RpcError::Kv(_) => return None,
                RpcError::ServerGone => self.respawn(part, generation, attempt - 1, outcome),
                RpcError::Timeout | RpcError::Truncated { .. } => {}
            }
            outcome.retries += 1;
            outcome.retry_events.push((list.len(), attempt));
            Self::emit(outcome, "retry", part, attempt, list.len() as u64);
            let (client, gen_now) = self.current_client(part);
            generation = gen_now;
            let result = client
                .pull_async(list.to_vec())
                .and_then(|h| self.wait_on(h));
            match result {
                Ok(resp) => {
                    self.note_delay(&resp, part, attempt, outcome);
                    return Some(resp);
                }
                Err(e) => err = e,
            }
        }
        self.note_failure(&err, part, self.retry.max_retries, outcome);
        if matches!(err, RpcError::ServerGone) {
            self.respawn(part, generation, self.retry.max_retries, outcome);
        }
        None
    }

    /// Respawn a dead server from its resident KvStore, unless another
    /// caller already did (the generation moved past what the failed
    /// attempt used). A respawned server's plan has its crash budget
    /// spent — a partition crashes at most once per incarnation chain.
    fn respawn(&self, part: usize, seen_generation: u64, attempt: u32, outcome: &mut PullOutcome) {
        let mut g = self.remotes[part].lock().unwrap();
        if g.generation != seen_generation {
            return;
        }
        Self::emit(outcome, "respawn", part, attempt, 0);
        let plan = self
            .faults
            .as_ref()
            .map(|f| f.profile.plan_for(part as u32).without_crash());
        let server = RpcServer::spawn(Arc::clone(&self.stores[part]), plan);
        g.client = server.client();
        // Dropping the old handle joins the already-dead thread.
        g.server = Some(server);
        g.generation += 1;
        outcome.respawns += 1;
    }

    /// Shut all servers down, returning total rows served per partition
    /// (for a respawned partition: rows served by its current
    /// incarnation).
    pub fn shutdown(self) -> Vec<u64> {
        self.remotes
            .into_iter()
            .map(|m| {
                let mut g = m.into_inner().unwrap();
                g.server.take().map(|s| s.shutdown()).unwrap_or(0)
            })
            .collect()
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

    fn retry_with_timeout(ms: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            timeout: std::time::Duration::from_millis(ms),
            ..RetryPolicy::default()
        }
    }

    /// Generous timeout for tests where a timeout firing would be a
    /// spurious failure (loaded CI), short enough to not matter.
    fn fast_retry() -> RetryPolicy {
        retry_with_timeout(2_000)
    }

    #[test]
    fn stores_partition_ownership() {
        let (f, a) = fixture();
        let c = SimCluster::new(&f, &a, 4);
        assert_eq!(c.num_parts(), 4);
        for u in 0..60u32 {
            assert!(c.store(c.owner(u)).owns(u));
        }
        let served = c.shutdown();
        assert_eq!(served.len(), 4);
    }

    #[test]
    fn pull_grouped_matches_ground_truth() {
        let (f, a) = fixture();
        let c = SimCluster::new(&f, &a, 4);
        let ids = vec![7u32, 3, 42, 7, 11];
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert!((1..=4).contains(&outcome.rpcs));
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
        assert_eq!(outcome.rpcs, 0);
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
        let c = SimCluster::with_faults(&f, &a, 4, Some(FaultProfile::off(3)), fast_retry());
        let ids = vec![7u32, 3, 42, 7, 11];
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert!(!outcome.had_faults());
        assert!(outcome.charge_s(&crate::cost::CostModel::default(), 8, c.retry_policy()) == 0.0);
        for (i, &g) in ids.iter().enumerate() {
            assert_eq!(&out[i * 8..(i + 1) * 8], on_wire(f.row(g)), "row {g}");
        }
    }

    #[test]
    fn crash_is_recovered_by_respawn_with_correct_data() {
        let (f, a) = fixture();
        let profile = FaultProfile {
            crash_part: Some(2),
            crash_after: 0,
            ..FaultProfile::off(5)
        };
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), fast_retry());
        let ids: Vec<u32> = (0..60).collect();
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert_eq!(outcome.respawns, 1);
        assert!(outcome.disconnects >= 1);
        assert!(outcome.retries >= 1);
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

    #[test]
    fn exhausted_retries_zero_fill_and_report_rows() {
        let (f, a) = fixture();
        // Partition 1 drops every reply; retries can never succeed.
        let profile = FaultProfile {
            drop_prob: 1.0,
            ..FaultProfile::off(9)
        };
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), retry_with_timeout(10));
        let ids = vec![4u32, 5, 6, 7]; // parts 0..=3, one row each
        let (out, outcome) = c.pull_grouped_checked(&ids);
        assert_eq!(outcome.failed_rows, vec![0, 1, 2, 3]);
        assert_eq!(
            outcome.timeouts as usize,
            4 * (1 + 2),
            "first try + 2 retries per part"
        );
        assert_eq!(outcome.retries, 8);
        assert!(out.iter().all(|&v| v == 0.0), "failed rows are zero-filled");
        assert!(!outcome.failed_rows.is_empty());
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
        let mut c = SimCluster::with_faults(&f, &a, 4, None, fast_retry());
        // A routing bug: node 5 (owned by part 1) is believed to be on 2.
        c.assignment[5] = 2;
        let (rows, outcome) = c.pull_rows(&[6, 5, 9], 0);
        assert_eq!(outcome.rpcs, 2);
        assert_eq!(outcome.rejections, 1);
        assert_eq!(outcome.retries, 0, "the same ids would be refused again");
        assert!(outcome.retry_events.is_empty());
        assert_eq!((outcome.disconnects, outcome.respawns), (0, 0));
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
        // The server survived the request it refused, and served none of it.
        assert_eq!(c.shutdown(), vec![0, 1, 0, 0]);
    }

    #[test]
    fn delays_are_tagged_not_slept() {
        let (f, a) = fixture();
        let profile = FaultProfile {
            delay_prob: 1.0,
            delay_factor: 6,
            ..FaultProfile::off(2)
        };
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), fast_retry());
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
        let c = SimCluster::with_faults(&f, &a, 4, Some(profile), retry_with_timeout(10));
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
        assert_eq!(count_kind("retry") as u64, tagged.retries);
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
            let c =
                SimCluster::with_faults(&f, &a, 4, Some(profile.clone()), retry_with_timeout(500));
            let mut outs = Vec::new();
            for _ in 0..3 {
                outs.push(c.pull_grouped_checked(&[1, 2, 3, 4, 5, 6, 7, 8]));
            }
            outs
        };
        assert_eq!(run(), run(), "seeded chaos must replay bit-for-bit");
    }
}
