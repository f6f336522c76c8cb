//! # mgnn-net — simulated distributed runtime
//!
//! The paper runs on NERSC Perlmutter: one DistDGL server per compute node,
//! trainer clients pulling halo-node features from remote KVStores over RPC
//! across a Slingshot fabric. None of that hardware is available here, so
//! this crate simulates it *in process* with two carefully separated layers:
//!
//! * **Real data movement** — [`kvstore::KvStore`] holds each partition's
//!   feature shard; a pull ([`cluster::SimCluster::pull_rows`]) gathers
//!   real feature bytes from it on the caller's thread, 16 bits per
//!   element ([`wire`]). Hit/miss counts, node counts and byte counts in
//!   [`metrics::CommMetrics`] are therefore *exact*, not modeled.
//! * **Modeled time** — [`cost::CostModel`] converts those exact counts
//!   into seconds using latency/bandwidth/compute-rate parameters
//!   calibrated to the paper's platform (§V), accumulated in a
//!   [`clock::PipelineClock`]. The paper's CPU-vs-GPU distinction is a compute
//!   rate; the `t_RPC / t_DDP` ratio that decides whether prefetch overlap
//!   wins (Eq. 6) is explicit and testable.
//!
//! This split is what makes the figure reproductions meaningful: the
//! *shape* of every result follows from real sampled-node/buffer behaviour,
//! while absolute seconds are transparently a model.

//! A third layer rides on top of both: **deterministic chaos**. A
//! seeded [`fault::FaultProfile`] makes servers drop, delay-tag,
//! truncate, or answer a crash, each decided by the request itself
//! ([`fault::FaultPlan::answer`]). [`cluster::SimCluster`]'s fault ladder
//! reads each attempt's verdict directly: it retries with
//! [`fault::RetryPolicy`] backoff charged to the *modeled* clock and
//! degrades (respawn → retry → zero-fill) instead of panicking,
//! reporting every deviation exactly.

pub mod clock;
pub mod cluster;
pub mod cost;
pub mod fault;
pub mod kvstore;
pub mod metrics;
pub mod wire;

pub use clock::{PipelineClock, PipelineStepTimes};
pub use cluster::{PullOutcome, SimCluster};
pub use cost::{Backend, CostModel};
pub use fault::{FaultPlan, FaultProfile, FaultVerdict, RetryPolicy};
pub use kvstore::{KvError, KvStore};
pub use metrics::{CommMetrics, MetricsSnapshot};

/// One pull attempt — DistDGL's bulk RPC to a feature server — as the
/// fault ladder of [`cluster::SimCluster`] answers it: each test pulls
/// with no retries, so every leg makes exactly one attempt.
#[cfg(test)]
mod rpc {
    mod tests {
        use crate::{FaultProfile, KvError, KvStore, PullOutcome, RetryPolicy, SimCluster};
        use mgnn_graph::{FeatureStore, NodeId};

        /// Six nodes; row `g` is `[g, g + 0.5]` (bf16-representable, so
        /// what crosses the wire is the row, bit for bit).
        fn features() -> FeatureStore {
            let data = (0..6).flat_map(|g| [g as f32, g as f32 + 0.5]).collect();
            FeatureStore::from_parts(6, 2, data, vec![0, 0, 0, 1, 0, 2], 3)
        }

        /// Part 0 owns nodes 1, 3, 5 and part 1 the rest; servers answer
        /// under `f` applied to a quiet profile, and a failed attempt is
        /// never retried. The profile's crash, if any, meets rank 0.
        fn cluster(f: impl FnOnce(&mut FaultProfile)) -> SimCluster {
            let mut profile = FaultProfile::off(11);
            f(&mut profile);
            let once = RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            };
            SimCluster::with_faults(&features(), &[1, 0, 1, 0, 1, 0], 2, Some(profile), once)
        }

        /// Pull `ids` under `request_id`, decoded in request order.
        fn pull(c: &SimCluster, ids: &[NodeId], request_id: u64) -> (Vec<f32>, PullOutcome) {
            let (rows, outcome) = c.pull_rows(ids, request_id);
            let mut out = vec![f32::NAN; 2 * ids.len()];
            for (row, dst) in out.chunks_mut(2).enumerate() {
                rows.decode_into(row, dst);
            }
            (out, outcome)
        }

        #[test]
        fn pull_round_trip() {
            let (out, outcome) = pull(&cluster(|_| {}), &[5, 1], 0);
            assert_eq!(out, [5.0, 5.5, 1.0, 1.5]);
            assert_eq!(outcome, PullOutcome::default());
        }

        /// The receive buffer is the cluster's, lent to each pull: the
        /// rows of the next pull replace what it held, in place, and a
        /// failed attempt hands it back too.
        #[test]
        fn a_served_pull_hands_back_what_it_was_lent() {
            let calm = cluster(|_| {});
            assert_eq!(pull(&calm, &[5, 1], 0).0, [5.0, 5.5, 1.0, 1.5]);
            assert_eq!(calm.pooled_buffers(), 1);
            assert_eq!(pull(&calm, &[3], 0).0, [3.0, 3.5]);
            assert_eq!(calm.pooled_buffers(), 1, "gathered into the lent buffer");
            let short = cluster(|p| p.truncate_prob = 1.0);
            let (out, outcome) = pull(&short, &[1, 5], 0);
            assert_eq!(
                (outcome.truncations, &outcome.failed_rows[..]),
                (1, &[0, 1][..])
            );
            assert_eq!(out, [0.0; 4]);
            assert_eq!(
                short.pooled_buffers(),
                1,
                "a failed attempt keeps the buffer"
            );
        }

        /// Pulls from many threads at once share one cluster.
        #[test]
        fn many_clients_one_server() {
            let c = cluster(|_| {});
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..50 {
                            let (out, outcome) = pull(&c, &[1], 0);
                            assert_eq!(out, [1.0, 1.5]);
                            assert!(!outcome.had_faults());
                        }
                    });
                }
            });
        }

        #[test]
        fn empty_pull() {
            let c = cluster(|_| {});
            let (out, outcome) = pull(&c, &[], 0);
            assert!(out.is_empty());
            assert_eq!(outcome, PullOutcome::default());
            assert_eq!(c.pooled_buffers(), 0, "an empty pull grows no buffer");
        }

        /// The crash is a verdict: rank 0's second request is answered at
        /// once with it, which reads as a disconnect and a respawn, and
        /// the server keeps serving — that rank's next request and every
        /// other rank's, which never count towards the crash. Rank 0's
        /// requests are untagged (an untagged pull is rank 0's), so no
        /// event of theirs reaches a log another test installed.
        #[test]
        fn a_crash_is_answered_at_once_and_the_server_keeps_serving() {
            use mgnn_obs::events::{request_id, ORIGIN_PREPARE};
            let c = cluster(|p| {
                p.crash_part = Some(0);
                p.crash_after = 1;
            });
            let rank = |r: u64| {
                if r == 0 {
                    0
                } else {
                    request_id(ORIGIN_PREPARE, r, 0)
                }
            };
            for r in [1, 0, 1] {
                let (out, outcome) = pull(&c, &[3], rank(r));
                assert_eq!(out, [3.0, 3.5], "rank {r}");
                assert!(!outcome.had_faults(), "rank {r}");
            }
            let (out, outcome) = pull(&c, &[3], rank(0));
            assert_eq!((outcome.disconnects, outcome.respawns()), (1, 1));
            assert_eq!(outcome.retries(), 0, "no retry left to make");
            assert_eq!((out, outcome.failed_rows), (vec![0.0, 0.0], vec![0]));
            for r in [0, 1, 0] {
                let (out, outcome) = pull(&c, &[3], rank(r));
                assert_eq!(out, [3.0, 3.5], "rank {r}");
                assert!(!outcome.had_faults(), "rank {r}");
            }
        }

        #[test]
        fn dropped_reply_times_out() {
            let c = cluster(|p| p.drop_prob = 1.0);
            // The drop is answered at once and reads as a timeout.
            let (out, outcome) = pull(&c, &[1], 0);
            assert_eq!((outcome.timeouts, outcome.disconnects), (1, 0));
            assert_eq!((out, outcome.failed_rows), (vec![0.0, 0.0], vec![0]));
            assert_eq!(c.pooled_buffers(), 0, "a dropped reply is never gathered");
            // The server lost the reply, it did not die: it keeps answering.
            let (_, outcome) = pull(&c, &[3, 5], 0);
            assert_eq!((outcome.timeouts, outcome.disconnects), (1, 0));
            assert_eq!(outcome.failed_rows, [0, 1]);
        }

        #[test]
        fn delay_verdict_tags_reply_without_wall_sleep() {
            let c = cluster(|p| {
                p.delay_prob = 1.0;
                p.delay_factor = 7;
            });
            let (out, outcome) = pull(&c, &[5], 0);
            assert_eq!(out, [5.0, 5.5]);
            assert!(outcome.failed_rows.is_empty());
            assert_eq!(
                outcome.delay_events,
                [(1, 7)],
                "delay rides the reply as a sim-time tag"
            );
        }

        /// A server asked for an id it does not own answers with a typed
        /// error — which the ladder books as a rejection — and serves
        /// the next request as if nothing happened.
        #[test]
        fn unowned_id_is_typed_error_and_server_survives() {
            let kv = KvStore::new(0, [1, 0, 1, 0, 1, 0].into(), &features());
            let mut buf = Vec::new();
            assert_eq!(
                kv.pull_into(&[1, 2], &mut buf),
                Err(KvError { node: 2, part: 0 })
            );
            assert_eq!(kv.pull_into(&[1], &mut buf), Ok(()));
            assert_eq!(buf, [1.0, 1.5].map(crate::wire::encode));
        }
    }
}
