//! One pull attempt against one partition's feature server.
//!
//! DistDGL's trainers pull halo features from remote KVStore servers via
//! bulk RPC. Here a pull is a function call on the caller's thread:
//! [`pull_attempt`] asks the partition's [`FaultPlan`] for the attempt's
//! verdict and, unless that verdict loses the reply, gathers the rows
//! with [`KvStore::pull_into`] into the caller's receive buffer — real
//! bytes in the [`crate::wire`] format, while the *time* such a pull
//! would cost on a cluster is charged separately by the cost model.
//!
//! Every outcome is a `Result<_, RpcError>`, never a panic: the crash
//! verdict reads as [`RpcError::ServerGone`], a dropped reply as
//! [`RpcError::Timeout`], a short payload as [`RpcError::Truncated`],
//! and a routing bug as [`RpcError::Kv`]. The verdict is decided by the
//! request id and attempt alone ([`FaultPlan::answer`]), so nothing ever
//! waits on the wall clock to learn one.

use crate::fault::{FaultPlan, FaultVerdict};
use crate::kvstore::{KvError, KvStore};
use crate::wire::WireElem;
use mgnn_graph::NodeId;

/// Why a pull attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The server answered with the crash verdict.
    ServerGone,
    /// The reply was lost: the server answered with a drop verdict.
    Timeout,
    /// The reply arrived with fewer elements than `rows × dim`.
    Truncated {
        /// Expected payload length in elements.
        expected: usize,
        /// Received payload length in elements.
        got: usize,
    },
    /// The server rejected the request (e.g. an id it does not own).
    Kv(KvError),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::ServerGone => f.write_str("server gone"),
            RpcError::Timeout => f.write_str("pull timed out"),
            RpcError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated payload: expected {expected} elements, got {got}"
                )
            }
            RpcError::Kv(e) => write!(f, "server rejected pull: {e}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Answer attempt `attempt` (0 for the first round) of the pull tagged
/// `request_id` for `ids` from `kv`, under `plan`: on success `buf`
/// (cleared first, grown only when too small) holds the rows in request
/// order, in wire format, and the result is the delay factor the reply
/// was tagged with (0 for none). A drop or the crash is answered at
/// once, unserved; a truncated reply was served a row short. On any
/// error `buf` keeps its capacity and unspecified content.
pub fn pull_attempt(
    kv: &KvStore,
    plan: &FaultPlan,
    ids: &[NodeId],
    buf: &mut Vec<WireElem>,
    request_id: u64,
    attempt: u32,
) -> Result<u32, RpcError> {
    let verdict = plan.answer(request_id, attempt);
    match verdict {
        FaultVerdict::Drop => return Err(RpcError::Timeout),
        FaultVerdict::Crash => return Err(RpcError::ServerGone),
        _ => {}
    }
    kv.pull_into(ids, buf).map_err(RpcError::Kv)?;
    match verdict {
        FaultVerdict::Delay(k) => Ok(k),
        // Truncating an empty payload loses nothing.
        FaultVerdict::Truncate if !buf.is_empty() => Err(RpcError::Truncated {
            expected: buf.len(),
            got: buf.len() - kv.dim(),
        }),
        _ => Ok(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use crate::wire;
    use mgnn_graph::FeatureStore;

    /// Wire image of `rows` (the fixture's values are bf16-representable,
    /// so this is what the store holds, bit for bit).
    fn on_wire<const N: usize>(rows: [f32; N]) -> Vec<WireElem> {
        rows.map(wire::encode).to_vec()
    }

    /// Owns nodes 1, 3, 5 of six; row `g` is `[g, g + 0.5]`.
    fn kv() -> KvStore {
        let data = (0..6).flat_map(|g| [g as f32, g as f32 + 0.5]).collect();
        let features = FeatureStore::from_parts(6, 2, data, vec![0, 0, 0, 1, 0, 2], 3);
        KvStore::new(0, vec![1, 3, 5], &features)
    }

    /// A plan for part 0 whose crash, if any, meets rank 0.
    fn plan_with(f: impl FnOnce(&mut FaultProfile)) -> FaultPlan {
        let mut p = FaultProfile::off(11);
        f(&mut p);
        p.plan_for(0, 0)
    }

    /// An untagged first-round pull into a fresh buffer.
    fn pull(kv: &KvStore, plan: &FaultPlan, ids: &[NodeId]) -> Result<Vec<WireElem>, RpcError> {
        let mut buf = Vec::new();
        pull_attempt(kv, plan, ids, &mut buf, 0, 0).map(|_| buf)
    }

    #[test]
    fn pull_round_trip() {
        let out = pull(&kv(), &plan_with(|_| {}), &[5, 1]).unwrap();
        assert_eq!(out, on_wire([5.0, 5.5, 1.0, 1.5]));
    }

    /// The id list and the buffer are borrowed, not taken: the rows of
    /// the next attempt replace what the buffer held, in place, and a
    /// failed attempt leaves the buffer with the caller too.
    #[test]
    fn a_served_pull_hands_back_what_it_was_lent() {
        let (kv, calm) = (kv(), plan_with(|_| {}));
        let mut buf = Vec::new();
        assert_eq!(pull_attempt(&kv, &calm, &[5, 1], &mut buf, 0, 0), Ok(0));
        let held = buf.as_ptr();
        assert_eq!(pull_attempt(&kv, &calm, &[3], &mut buf, 0, 0), Ok(0));
        assert_eq!(buf, on_wire([3.0, 3.5]));
        assert_eq!(buf.as_ptr(), held, "gathered into the lent buffer");
        let short = plan_with(|p| p.truncate_prob = 1.0);
        assert!(pull_attempt(&kv, &short, &[1, 5], &mut buf, 0, 0).is_err());
        assert_eq!(buf.as_ptr(), held, "a failed attempt keeps the buffer");
    }

    /// Pulls from many threads at once share one store and one plan.
    #[test]
    fn many_clients_one_server() {
        let (kv, plan) = (kv(), plan_with(|_| {}));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(pull(&kv, &plan, &[1]).unwrap(), on_wire([1.0, 1.5]));
                    }
                });
            }
        });
    }

    #[test]
    fn empty_pull() {
        let out = pull(&kv(), &plan_with(|_| {}), &[]).unwrap();
        assert_eq!(out, Vec::<WireElem>::new());
    }

    /// The crash is a verdict: the designated rank's (rank 0's) second
    /// request is answered at once with it, which reads as `ServerGone`,
    /// and the server keeps serving — that rank's retry and every other
    /// rank's pulls, which never count towards the crash.
    #[test]
    fn a_crash_is_answered_at_once_and_the_server_keeps_serving() {
        use mgnn_obs::events::{request_id, ORIGIN_PREPARE};
        let kv = kv();
        let plan = plan_with(|p| {
            p.crash_part = Some(0);
            p.crash_after = 1;
        });
        let tagged = |rank, attempt| {
            let mut buf = Vec::new();
            let id = request_id(ORIGIN_PREPARE, rank, 0);
            pull_attempt(&kv, &plan, &[3], &mut buf, id, attempt).map(|_| buf)
        };
        assert_eq!(tagged(1, 0).unwrap(), on_wire([3.0, 3.5]));
        assert_eq!(tagged(0, 0).unwrap(), on_wire([3.0, 3.5]));
        assert_eq!(tagged(1, 1).unwrap(), on_wire([3.0, 3.5]));
        assert_eq!(tagged(0, 1), Err(RpcError::ServerGone));
        for (rank, attempt) in [(0, 2), (1, 2), (0, 3)] {
            assert_eq!(tagged(rank, attempt).unwrap(), on_wire([3.0, 3.5]));
        }
    }

    #[test]
    fn dropped_reply_times_out() {
        let (kv, plan) = (kv(), plan_with(|p| p.drop_prob = 1.0));
        // The drop is answered at once and reads as a timeout.
        assert_eq!(pull(&kv, &plan, &[1]), Err(RpcError::Timeout));
        // The server lost the reply, it did not die: it keeps answering.
        assert_eq!(pull(&kv, &plan, &[3, 5]), Err(RpcError::Timeout));
    }

    #[test]
    fn the_verdict_is_the_requests_not_its_arrivals() {
        let kv = kv();
        let plan = plan_with(|p| {
            p.drop_prob = 0.3;
            p.delay_prob = 0.3;
            p.delay_factor = 2;
            p.truncate_prob = 0.2;
        });
        let mut buf = Vec::new();
        for (id, attempt) in (0..40).chain((0..40).rev()).zip((0..4).cycle()) {
            let got = pull_attempt(&kv, &plan, &[1, 3], &mut buf, id, attempt);
            let want = plan.verdict(crate::fault::fault_key(id, attempt));
            match got {
                Err(RpcError::Timeout) => assert_eq!(want, FaultVerdict::Drop),
                Err(RpcError::Truncated { .. }) => assert_eq!(want, FaultVerdict::Truncate),
                Ok(k) if k > 0 => assert_eq!(want, FaultVerdict::Delay(2)),
                Ok(_) => assert_eq!(want, FaultVerdict::None),
                Err(e) => panic!("request {id}, attempt {attempt}: {e}"),
            }
        }
    }

    #[test]
    fn truncated_payload_detected() {
        let (kv, plan) = (kv(), plan_with(|p| p.truncate_prob = 1.0));
        let err = pull(&kv, &plan, &[1, 3]).unwrap_err();
        assert_eq!(
            err,
            RpcError::Truncated {
                expected: 4,
                got: 2
            }
        );
        // Truncating an empty pull is a no-op, not an error.
        assert_eq!(pull(&kv, &plan, &[]).unwrap(), Vec::<WireElem>::new());
    }

    #[test]
    fn delay_verdict_tags_reply_without_wall_sleep() {
        let plan = plan_with(|p| {
            p.delay_prob = 1.0;
            p.delay_factor = 7;
        });
        let mut buf = Vec::new();
        let k = pull_attempt(&kv(), &plan, &[5], &mut buf, 0, 0).unwrap();
        assert_eq!(buf, on_wire([5.0, 5.5]));
        assert_eq!(k, 7, "delay rides the reply as a sim-time tag");
    }

    #[test]
    fn unowned_id_is_typed_error_and_server_survives() {
        let (kv, plan) = (kv(), plan_with(|_| {}));
        let err = pull(&kv, &plan, &[1, 2]).unwrap_err();
        assert_eq!(err, RpcError::Kv(KvError { node: 2, part: 0 }));
        // The store answers the next request as if nothing happened.
        assert_eq!(pull(&kv, &plan, &[1]).unwrap(), on_wire([1.0, 1.5]));
    }
}
