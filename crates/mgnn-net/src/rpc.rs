//! Channel-based RPC between trainer clients and partition servers.
//!
//! DistDGL's trainers pull halo features from remote KVStore servers via
//! bulk RPC. Here each server is a real thread draining a crossbeam
//! channel; a pull sends a request carrying a one-shot reply channel and
//! blocks on the response, so real bytes cross a real thread boundary —
//! the asynchrony/ordering behaviour the prefetch pipeline relies on is
//! exercised for real, while the *time* such a pull would cost on a
//! cluster is charged separately by the cost model.
//!
//! A pull *lends* the server everything it needs: the id list, the
//! buffer the rows are gathered into and the reply channel all travel
//! with the request and come back with the reply
//! ([`RpcClient::pull_async_into`] → [`PullResponse`]), so a caller that
//! feeds them into its next pull allocates nothing in steady state.
//! Whatever a failed pull was lent is lost with it and grown again.
//!
//! Every client-facing call returns `Result<_, RpcError>` instead of
//! panicking: a dead server surfaces as [`RpcError::ServerGone`], a
//! dropped reply as [`RpcError::Timeout`], a short payload as
//! [`RpcError::Truncated`], and a routing bug as [`RpcError::Kv`].
//! Servers optionally run under a deterministic [`FaultPlan`] that
//! decides per request — by the request id and attempt it carries —
//! whether to drop, delay-tag or truncate the reply, or to answer that
//! the server crashed, which reads as `ServerGone`. Every verdict rides
//! back on the reply, a drop and the crash included, so no client ever
//! waits on the wall clock to learn one, and a server thread only stops
//! when it is shut down.

use crate::fault::{FaultPlan, FaultVerdict};
use crate::kvstore::{KvError, KvStore};
use crate::wire::WireElem;
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use mgnn_graph::NodeId;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Why a pull failed at the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The server is gone: the request could not be sent, the reply
    /// channel disconnected before a reply arrived, or the server
    /// answered with a crash verdict.
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

/// One reply from a partition server.
pub struct PullReply {
    /// The request's id list, handed back.
    pub ids: Vec<NodeId>,
    /// The request's buffer, holding the gathered rows in wire format
    /// (unspecified content when `status` is an error or the reply was
    /// dropped).
    pub payload: Vec<WireElem>,
    /// Whether the server served the request or rejected it.
    pub status: Result<(), KvError>,
    /// The fault verdict the request met ([`FaultVerdict::None`] without
    /// a plan); a [`FaultVerdict::Drop`] or [`FaultVerdict::Crash`]
    /// reply was not served.
    pub verdict: FaultVerdict,
    /// The sender this reply was sent on, so the receiving end owns
    /// both halves again and can reuse the channel.
    pub reply: Sender<PullReply>,
}

/// A request to a partition server.
pub enum Request {
    /// Pull feature rows for `ids` (all owned by the server's partition)
    /// into `buf`; ids and buffer go back to `reply` with the rows.
    Pull {
        /// Global node ids to fetch.
        ids: Vec<NodeId>,
        /// The caller's receive buffer (cleared, then filled).
        buf: Vec<WireElem>,
        /// One-shot response channel.
        reply: Sender<PullReply>,
        /// The pull's request id, which a fault plan answers with its
        /// attempt ([`FaultPlan::answer`]).
        request_id: u64,
        /// 0 for the first round, then one more per retry.
        attempt: u32,
    },
    /// Stop the server loop.
    Shutdown,
}

/// The one-shot channel of a pull that was answered: empty again, both
/// halves in one hand, free to carry the next pull. A channel whose
/// reply never came is never reused — a late reply would be taken for
/// the next pull's.
pub struct ReplyChannel {
    tx: Sender<PullReply>,
    rx: Receiver<PullReply>,
}

impl std::fmt::Debug for ReplyChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplyChannel")
    }
}

/// A running partition feature server.
pub struct RpcServer {
    client: RpcClient,
    handle: Option<JoinHandle<u64>>,
}

impl RpcServer {
    /// Spawn a server thread for `kv`. Under a fault `plan` each
    /// request's verdict (serve / drop / delay-tag / truncate / crash) is
    /// what [`FaultPlan::answer`] says for its request id and attempt.
    /// Every verdict is a *tag* on an immediate reply, not a wall-clock
    /// sleep, silence or a thread exit, so chaos runs stay fast and
    /// reproducible.
    pub fn spawn(kv: Arc<KvStore>, mut plan: Option<FaultPlan>) -> Self {
        let dim = kv.dim();
        let (tx, rx) = unbounded::<Request>();
        let handle = std::thread::Builder::new()
            .name(format!("kvserver-{}", kv.part_id()))
            .spawn(move || {
                let mut served = 0u64;
                while let Ok(req) = rx.recv() {
                    match req {
                        Request::Pull {
                            ids,
                            mut buf,
                            reply,
                            request_id,
                            attempt,
                        } => {
                            let verdict = plan
                                .as_mut()
                                .map_or(FaultVerdict::None, |p| p.answer(request_id, attempt));
                            // A dropped reply and a crash are answered at
                            // once, unserved.
                            let mut status = Ok(());
                            if !matches!(verdict, FaultVerdict::Drop | FaultVerdict::Crash) {
                                status = kv.pull_into(&ids, &mut buf);
                                if status.is_ok() {
                                    if verdict == FaultVerdict::Truncate {
                                        buf.truncate(buf.len().saturating_sub(dim));
                                    }
                                    served += (buf.len() / dim.max(1)) as u64;
                                }
                            }
                            // The reply carries its own sender home. The
                            // server's handle drops right after, so a
                            // server that stops before this point still
                            // disconnects the waiting client. A client
                            // that stopped waiting is not a server error.
                            let _ = reply.send(PullReply {
                                ids,
                                payload: buf,
                                status,
                                verdict,
                                reply: reply.clone(),
                            });
                        }
                        Request::Shutdown => break,
                    }
                }
                served
            })
            .expect("failed to spawn kvserver thread");
        RpcServer {
            client: RpcClient { tx, dim },
            handle: Some(handle),
        }
    }

    /// The client handle to this server (cheaply cloneable).
    pub fn client(&self) -> &RpcClient {
        &self.client
    }

    /// Shut the server down, returning the rows it served (0 if it already
    /// was); requests queued behind the shutdown read `ServerGone`.
    pub fn shutdown(&mut self) -> u64 {
        let _ = self.client.tx.send(Request::Shutdown);
        self.handle
            .take()
            .map(|h| h.join().expect("kvserver panicked"))
            .unwrap_or(0)
    }

    /// Whether the server thread still runs: a crash verdict comes from a
    /// running server, a real disconnect from one that stopped.
    pub fn is_running(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        let _ = self.client.tx.send(Request::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Client handle for issuing pulls to one partition server.
#[derive(Clone)]
pub struct RpcClient {
    tx: Sender<Request>,
    dim: usize,
}

impl RpcClient {
    /// Fire a pull and return a waiter, letting the caller overlap other
    /// work before blocking — the RPC/score-update overlap of Algorithm 2
    /// line 20–22. The server gathers the rows into `buf` (cleared first)
    /// and replies on `reply` (a fresh channel when `None`); the
    /// [`PullResponse`] hands `ids`, `buf` and the channel back for the
    /// next pull. `request_id` and `attempt` name the request to a fault
    /// plan ([`FaultPlan::answer`]). Fails immediately if the server is
    /// already gone.
    pub fn pull_async_into(
        &self,
        ids: Vec<NodeId>,
        buf: Vec<WireElem>,
        reply: Option<ReplyChannel>,
        request_id: u64,
        attempt: u32,
    ) -> Result<PullHandle, RpcError> {
        let ReplyChannel { tx, rx } = reply.unwrap_or_else(|| {
            let (tx, rx) = bounded(1);
            ReplyChannel { tx, rx }
        });
        let expect_rows = ids.len();
        self.tx
            .send(Request::Pull {
                ids,
                buf,
                reply: tx,
                request_id,
                attempt,
            })
            .map_err(|_| RpcError::ServerGone)?;
        Ok(PullHandle {
            rx,
            expect_rows,
            dim: self.dim,
        })
    }
}

/// A validated, completed pull.
#[derive(Debug)]
pub struct PullResponse {
    /// The id list the request carried.
    pub ids: Vec<NodeId>,
    /// Dense row-major rows in request order, in wire format.
    pub payload: Vec<WireElem>,
    /// Injected sim-time delay factor carried back by the server.
    pub delay_k: u32,
    /// The channel the reply came on, for the next pull.
    pub reply: ReplyChannel,
}

/// In-flight pull.
pub struct PullHandle {
    rx: Receiver<PullReply>,
    expect_rows: usize,
    dim: usize,
}

impl PullHandle {
    /// Block until the reply arrives, which it always does unless the
    /// server stops with the request in flight: that returns
    /// [`RpcError::ServerGone`] instead of hanging or panicking. A reply
    /// with a drop verdict reads as [`RpcError::Timeout`], one with a
    /// crash verdict as [`RpcError::ServerGone`].
    pub fn wait(self) -> Result<PullResponse, RpcError> {
        let reply = self.rx.recv().map_err(|_| RpcError::ServerGone)?;
        match reply.verdict {
            FaultVerdict::Drop => return Err(RpcError::Timeout),
            FaultVerdict::Crash => return Err(RpcError::ServerGone),
            _ => {}
        }
        reply.status.map_err(RpcError::Kv)?;
        let expected = self.expect_rows * self.dim;
        if reply.payload.len() != expected {
            return Err(RpcError::Truncated {
                expected,
                got: reply.payload.len(),
            });
        }
        Ok(PullResponse {
            ids: reply.ids,
            payload: reply.payload,
            delay_k: match reply.verdict {
                FaultVerdict::Delay(k) => k,
                _ => 0,
            },
            reply: ReplyChannel {
                tx: reply.reply,
                rx: self.rx,
            },
        })
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
    fn kv() -> Arc<KvStore> {
        let data = (0..6).flat_map(|g| [g as f32, g as f32 + 0.5]).collect();
        let features = FeatureStore::from_parts(6, 2, data, vec![0, 0, 0, 1, 0, 2], 3);
        Arc::new(KvStore::new(0, vec![1, 3, 5], &features))
    }

    /// Issue an untagged first-round pull into fresh buffers.
    fn issue(client: &RpcClient, ids: Vec<NodeId>) -> Result<PullHandle, RpcError> {
        client.pull_async_into(ids, Vec::new(), None, 0, 0)
    }

    /// Issue, wait, keep the payload.
    fn pull(client: &RpcClient, ids: Vec<NodeId>) -> Result<Vec<WireElem>, RpcError> {
        issue(client, ids)?.wait().map(|r| r.payload)
    }

    /// A server for [`kv`], under `plan` if any.
    fn serve(plan: Option<FaultPlan>) -> RpcServer {
        RpcServer::spawn(kv(), plan)
    }

    /// A plan for part 0 whose crash, if any, meets rank 0.
    fn plan_with(f: impl FnOnce(&mut FaultProfile)) -> FaultPlan {
        let mut p = FaultProfile::off(11);
        f(&mut p);
        p.plan_for(0, 0)
    }

    /// Stop `server` with a pull for `ids` in flight: the server is held
    /// on a reply channel that is already full until the shutdown and the
    /// pull are both queued, so it reads the shutdown first, and the
    /// pull's channel goes down with the queue it sat in.
    fn stop_with_a_pull_in_flight(server: &RpcServer, ids: Vec<NodeId>) -> PullHandle {
        let client = server.client();
        let (tx, rx) = bounded(1);
        let filler = PullReply {
            ids: Vec::new(),
            payload: Vec::new(),
            status: Ok(()),
            verdict: FaultVerdict::None,
            reply: tx.clone(),
        };
        tx.send(filler).unwrap();
        let held = client
            .pull_async_into(Vec::new(), Vec::new(), Some(ReplyChannel { tx, rx }), 0, 0)
            .unwrap();
        server.client.tx.send(Request::Shutdown).unwrap();
        let in_flight = issue(client, ids).unwrap();
        drop(held); // the server's reply finds no reader; it reads on
        in_flight
    }

    #[test]
    fn pull_round_trip() {
        let mut server = serve(None);
        let client = server.client();
        let out = pull(client, vec![5, 1]).unwrap();
        assert_eq!(out, on_wire([5.0, 5.5, 1.0, 1.5]));
        assert_eq!(server.shutdown(), 2);
    }

    #[test]
    fn async_pull_overlaps() {
        let server = serve(None);
        let client = server.client();
        let handle = issue(client, vec![3]).unwrap();
        // Do "other work" before waiting.
        let x: u64 = (0..100).sum();
        assert_eq!(x, 4950);
        let resp = handle.wait().unwrap();
        assert_eq!(resp.payload, on_wire([3.0, 3.5]));
        assert_eq!(resp.delay_k, 0);
    }

    #[test]
    fn a_served_pull_hands_back_what_it_was_lent() {
        let mut server = serve(None);
        let client = server.client();
        let first = issue(client, vec![5, 1]).unwrap().wait().unwrap();
        assert_eq!(first.ids, [5, 1]);
        let buf = first.payload.as_ptr();
        // Second pull through the same id list, buffer and channel: the
        // rows replace what the buffer held, in place.
        let mut ids = first.ids;
        ids.clear();
        ids.push(3);
        let second = client
            .pull_async_into(ids, first.payload, Some(first.reply), 0, 0)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(second.ids, [3]);
        assert_eq!(second.payload, on_wire([3.0, 3.5]));
        assert_eq!(
            second.payload.as_ptr(),
            buf,
            "gathered into the lent buffer"
        );
        assert_eq!(server.shutdown(), 3);
    }

    #[test]
    fn many_clients_one_server() {
        let mut server = serve(None);
        let clients: Vec<RpcClient> = (0..4).map(|_| server.client().clone()).collect();
        let handles: Vec<_> = clients
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(pull(&c, vec![1]).unwrap(), on_wire([1.0, 1.5]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.shutdown(), 200);
    }

    #[test]
    fn empty_pull() {
        let server = serve(None);
        assert_eq!(
            pull(server.client(), vec![]).unwrap(),
            Vec::<WireElem>::new()
        );
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let server = serve(None);
        let client = server.client().clone();
        drop(server); // must not hang
        assert_eq!(pull(&client, vec![1]), Err(RpcError::ServerGone));
        assert!(issue(&client, vec![1]).is_err());
    }

    /// A server that stops with a request in flight — the death that
    /// once panicked `wait` via `expect("server dropped reply")` — reads
    /// as `ServerGone`: the queue the request sat in is drained on
    /// disconnect, its reply channel with it, so nothing hangs.
    #[test]
    fn wait_after_server_crash_errors_instead_of_hanging() {
        let mut server = serve(None);
        let client = server.client();
        let handle = stop_with_a_pull_in_flight(&server, vec![1]);
        assert_eq!(handle.wait().unwrap_err(), RpcError::ServerGone);
        // The server is gone for good: later sends fail fast too.
        assert_eq!(pull(client, vec![3]), Err(RpcError::ServerGone));
        assert_eq!(server.shutdown(), 0);
        assert!(!server.is_running());
    }

    /// A server that served two pulls, then stopped with a third in
    /// flight: the third reads as `ServerGone`, and the rows it served
    /// before it stopped are all it reports.
    #[test]
    fn crash_after_n_serves_n_then_dies() {
        let mut server = serve(None);
        let client = server.client();
        assert_eq!(pull(client, vec![1]).unwrap(), on_wire([1.0, 1.5]));
        assert_eq!(
            pull(client, vec![3, 5]).unwrap(),
            on_wire([3.0, 3.5, 5.0, 5.5])
        );
        let handle = stop_with_a_pull_in_flight(&server, vec![5]);
        assert_eq!(handle.wait().unwrap_err(), RpcError::ServerGone);
        assert_eq!(server.shutdown(), 3);
    }

    /// The crash is a verdict: the designated rank's (rank 0's) second
    /// request is answered at once with it, which reads as `ServerGone`,
    /// and the server keeps serving — that rank's retry and every other
    /// rank's pulls, which never count towards the crash.
    #[test]
    fn a_crash_is_answered_at_once_and_the_server_keeps_serving() {
        use mgnn_obs::events::{request_id, ORIGIN_PREPARE};
        let plan = plan_with(|p| {
            p.crash_part = Some(0);
            p.crash_after = 1;
        });
        let mut server = serve(Some(plan));
        let client = server.client();
        let tagged = |rank, attempt| {
            let id = request_id(ORIGIN_PREPARE, rank, 0);
            let resp = client.pull_async_into(vec![3], Vec::new(), None, id, attempt);
            resp.and_then(PullHandle::wait).map(|r| r.payload)
        };
        assert_eq!(tagged(1, 0).unwrap(), on_wire([3.0, 3.5]));
        assert_eq!(tagged(0, 0).unwrap(), on_wire([3.0, 3.5]));
        assert_eq!(tagged(1, 1).unwrap(), on_wire([3.0, 3.5]));
        assert_eq!(tagged(0, 1), Err(RpcError::ServerGone));
        assert!(server.is_running(), "the crash is an answer, not an exit");
        for (rank, attempt) in [(0, 2), (1, 2), (0, 3)] {
            assert_eq!(tagged(rank, attempt).unwrap(), on_wire([3.0, 3.5]));
        }
        assert_eq!(server.shutdown(), 6, "the crashed request served nothing");
    }

    #[test]
    fn dropped_reply_times_out() {
        let plan = plan_with(|p| p.drop_prob = 1.0);
        let mut server = serve(Some(plan));
        let client = server.client();
        // The drop comes back at once, as a reply, and reads as a timeout.
        assert_eq!(pull(client, vec![1]), Err(RpcError::Timeout));
        // The server is still alive — it lost the reply, it did not die —
        // so it keeps answering, and shutdown drains normally.
        assert_eq!(pull(client, vec![3, 5]), Err(RpcError::Timeout));
        assert_eq!(server.shutdown(), 0, "a dropped reply serves no rows");
    }

    #[test]
    fn the_verdict_is_the_requests_not_its_arrivals() {
        let plan = plan_with(|p| {
            p.drop_prob = 0.3;
            p.delay_prob = 0.3;
            p.delay_factor = 2;
            p.truncate_prob = 0.2;
        });
        let server = serve(Some(plan.clone()));
        let client = server.client();
        for (id, attempt) in (0..40).chain((0..40).rev()).zip((0..4).cycle()) {
            let got = client
                .pull_async_into(vec![1, 3], Vec::new(), None, id, attempt)
                .unwrap()
                .wait();
            let want = plan.verdict(crate::fault::fault_key(id, attempt));
            match got {
                Err(RpcError::Timeout) => assert_eq!(want, FaultVerdict::Drop),
                Err(RpcError::Truncated { .. }) => assert_eq!(want, FaultVerdict::Truncate),
                Ok(resp) if resp.delay_k > 0 => assert_eq!(want, FaultVerdict::Delay(2)),
                Ok(_) => assert_eq!(want, FaultVerdict::None),
                Err(e) => panic!("request {id}, attempt {attempt}: {e}"),
            }
        }
    }

    #[test]
    fn truncated_payload_detected() {
        let plan = plan_with(|p| p.truncate_prob = 1.0);
        let server = serve(Some(plan));
        let err = pull(server.client(), vec![1, 3]).unwrap_err();
        assert_eq!(
            err,
            RpcError::Truncated {
                expected: 4,
                got: 2
            }
        );
        // Truncating an empty pull is a no-op, not an error.
        assert_eq!(
            pull(server.client(), vec![]).unwrap(),
            Vec::<WireElem>::new()
        );
    }

    #[test]
    fn delay_verdict_tags_reply_without_wall_sleep() {
        let plan = plan_with(|p| {
            p.delay_prob = 1.0;
            p.delay_factor = 7;
        });
        let server = serve(Some(plan));
        let resp = issue(server.client(), vec![5]).unwrap().wait().unwrap();
        assert_eq!(resp.payload, on_wire([5.0, 5.5]));
        assert_eq!(resp.delay_k, 7, "delay rides the reply as a sim-time tag");
    }

    #[test]
    fn unowned_id_is_typed_error_and_server_survives() {
        let server = serve(None);
        let client = server.client();
        let err = pull(client, vec![1, 2]).unwrap_err();
        assert_eq!(err, RpcError::Kv(KvError { node: 2, part: 0 }));
        // The server did not die serving the bad request.
        assert_eq!(pull(client, vec![1]).unwrap(), on_wire([1.0, 1.5]));
    }
}
