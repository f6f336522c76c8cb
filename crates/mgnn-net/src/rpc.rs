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
//! swallowed reply as [`RpcError::Timeout`] (via
//! [`PullHandle::wait_timeout`]), a short payload as
//! [`RpcError::Truncated`], and a routing bug as [`RpcError::Kv`].
//! Servers optionally run under a deterministic [`FaultPlan`] that
//! decides per request whether to drop, delay-tag, or truncate the
//! reply, or crash the server thread outright.

use crate::fault::{FaultPlan, FaultVerdict};
use crate::kvstore::{KvError, KvStore};
use crate::wire::WireElem;
use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use mgnn_graph::NodeId;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Why a pull failed at the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The server thread is gone: the request could not be sent, or the
    /// reply channel disconnected before a reply arrived.
    ServerGone,
    /// No reply arrived within the wait bound.
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
    /// (unspecified content when `status` is an error).
    pub payload: Vec<WireElem>,
    /// Whether the server served the request or rejected it.
    pub status: Result<(), KvError>,
    /// Injected sim-time delay factor (0 when no delay fault fired).
    pub delay_k: u32,
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
    tx: Sender<Request>,
    handle: Option<JoinHandle<u64>>,
    dim: usize,
}

impl RpcServer {
    /// Spawn a server thread for `kv`. Under a fault `plan` each
    /// request's verdict (serve / drop / delay-tag / truncate) is a pure
    /// function of the plan seed and the request index, and the server
    /// thread exits — without replying — once the plan's crash budget is
    /// reached. Injected delays are *sim-time tags* on the reply, not
    /// wall-clock sleeps, so chaos runs stay fast and reproducible.
    pub fn spawn(kv: Arc<KvStore>, plan: Option<FaultPlan>) -> Self {
        let dim = kv.dim();
        let (tx, rx) = unbounded::<Request>();
        let handle = std::thread::Builder::new()
            .name(format!("kvserver-{}", kv.part_id()))
            .spawn(move || {
                let mut served = 0u64;
                let mut requests = 0u64;
                // Reply senders for swallowed (dropped) replies are parked
                // here instead of being dropped: dropping one would signal
                // "disconnected" to the waiting client, but a swallowed
                // reply must look like *silence* (a timeout), exactly as
                // on a real network.
                let mut parked: Vec<Sender<PullReply>> = Vec::new();
                while let Ok(req) = rx.recv() {
                    match req {
                        Request::Pull {
                            ids,
                            mut buf,
                            reply,
                        } => {
                            if let Some(p) = &plan {
                                if p.crash_before(requests) {
                                    // Simulated crash: exit without
                                    // replying. Dropping `reply` (and the
                                    // request channel) is what in-flight
                                    // and queued clients observe; what the
                                    // request lent goes down with it.
                                    break;
                                }
                            }
                            let verdict = plan
                                .as_ref()
                                .map(|p| p.verdict(requests))
                                .unwrap_or(FaultVerdict::None);
                            requests += 1;
                            if matches!(verdict, FaultVerdict::Drop) {
                                // Swallow the reply; the client times out.
                                parked.push(reply);
                                continue;
                            }
                            let status = kv.pull_into(&ids, &mut buf);
                            let delay_k = match verdict {
                                FaultVerdict::Delay(k) => k,
                                _ => 0,
                            };
                            if status.is_ok() {
                                if matches!(verdict, FaultVerdict::Truncate) {
                                    buf.truncate(buf.len().saturating_sub(dim));
                                }
                                served += (buf.len() / dim.max(1)) as u64;
                            }
                            // The reply carries its own sender home. The
                            // server's handle drops right after, so a
                            // crash before this point still disconnects
                            // the waiting client. A client that stopped
                            // waiting is not a server error.
                            let _ = reply.send(PullReply {
                                ids,
                                payload: buf,
                                status,
                                delay_k,
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
            tx,
            handle: Some(handle),
            dim,
        }
    }

    /// A client handle to this server (cheaply cloneable).
    pub fn client(&self) -> RpcClient {
        RpcClient {
            tx: self.tx.clone(),
            dim: self.dim,
        }
    }

    /// Shut the server down, returning the total rows it served. Safe to
    /// call on a server that already crashed: the join still succeeds.
    pub fn shutdown(mut self) -> u64 {
        let _ = self.tx.send(Request::Shutdown);
        self.handle
            .take()
            .map(|h| h.join().expect("kvserver panicked"))
            .unwrap_or(0)
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        let _ = self.tx.send(Request::Shutdown);
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
    /// line 20–22. Fails immediately if the server is already gone.
    pub fn pull_async(&self, ids: Vec<NodeId>) -> Result<PullHandle, RpcError> {
        self.pull_async_into(ids, Vec::new(), None)
    }

    /// [`pull_async`](Self::pull_async) into a registered receive buffer:
    /// the server gathers the rows into `buf` (cleared first) and replies
    /// on `reply` (a fresh channel when `None`); the [`PullResponse`]
    /// hands `ids`, `buf` and the channel back for the next pull.
    pub fn pull_async_into(
        &self,
        ids: Vec<NodeId>,
        buf: Vec<WireElem>,
        reply: Option<ReplyChannel>,
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
    /// Block until the response arrives. If the server thread dies
    /// mid-request this returns [`RpcError::ServerGone`] instead of
    /// hanging or panicking.
    pub fn wait(self) -> Result<PullResponse, RpcError> {
        let reply = self.rx.recv().map_err(|_| RpcError::ServerGone)?;
        self.validate(reply)
    }

    /// Block at most `timeout` for the response. A swallowed reply
    /// surfaces as [`RpcError::Timeout`]; a dead server as
    /// [`RpcError::ServerGone`].
    pub fn wait_timeout(self, timeout: std::time::Duration) -> Result<PullResponse, RpcError> {
        let reply = self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RpcError::Timeout,
            RecvTimeoutError::Disconnected => RpcError::ServerGone,
        })?;
        self.validate(reply)
    }

    fn validate(self, reply: PullReply) -> Result<PullResponse, RpcError> {
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
            delay_k: reply.delay_k,
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

    /// Issue, wait, keep the payload.
    fn pull(client: &RpcClient, ids: Vec<NodeId>) -> Result<Vec<WireElem>, RpcError> {
        client.pull_async(ids)?.wait().map(|r| r.payload)
    }

    /// A server for [`kv`], under `plan` if any.
    fn serve(plan: Option<FaultPlan>) -> RpcServer {
        RpcServer::spawn(kv(), plan)
    }

    fn plan_with(f: impl FnOnce(&mut FaultProfile)) -> FaultPlan {
        let mut p = FaultProfile::off(11);
        f(&mut p);
        p.plan_for(0)
    }

    #[test]
    fn pull_round_trip() {
        let server = serve(None);
        let client = server.client();
        let out = pull(&client, vec![5, 1]).unwrap();
        assert_eq!(out, on_wire([5.0, 5.5, 1.0, 1.5]));
        assert_eq!(server.shutdown(), 2);
    }

    #[test]
    fn async_pull_overlaps() {
        let server = serve(None);
        let client = server.client();
        let handle = client.pull_async(vec![3]).unwrap();
        // Do "other work" before waiting.
        let x: u64 = (0..100).sum();
        assert_eq!(x, 4950);
        let resp = handle.wait().unwrap();
        assert_eq!(resp.payload, on_wire([3.0, 3.5]));
        assert_eq!(resp.delay_k, 0);
    }

    #[test]
    fn a_served_pull_hands_back_what_it_was_lent() {
        let server = serve(None);
        let client = server.client();
        let first = client.pull_async(vec![5, 1]).unwrap().wait().unwrap();
        assert_eq!(first.ids, [5, 1]);
        let buf = first.payload.as_ptr();
        // Second pull through the same id list, buffer and channel: the
        // rows replace what the buffer held, in place.
        let mut ids = first.ids;
        ids.clear();
        ids.push(3);
        let second = client
            .pull_async_into(ids, first.payload, Some(first.reply))
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
        let server = serve(None);
        let clients: Vec<RpcClient> = (0..4).map(|_| server.client()).collect();
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
            pull(&server.client(), vec![]).unwrap(),
            Vec::<WireElem>::new()
        );
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let server = serve(None);
        let client = server.client();
        drop(server); // must not hang
        assert_eq!(pull(&client, vec![1]), Err(RpcError::ServerGone));
        assert!(client.pull_async(vec![1]).is_err());
    }

    #[test]
    fn wait_after_server_crash_errors_instead_of_hanging() {
        // Crash budget 0: the server dies on its first request without
        // replying — exactly the mid-request death that used to panic
        // `wait` via `expect("server dropped reply")`.
        let plan = plan_with(|p| {
            p.crash_part = Some(0);
            p.crash_after = 0;
        });
        let server = serve(Some(plan));
        let client = server.client();
        let handle = client.pull_async(vec![1]).unwrap();
        assert_eq!(handle.wait().unwrap_err(), RpcError::ServerGone);
        // The server is dead for good: later sends fail fast too.
        assert_eq!(pull(&client, vec![3]), Err(RpcError::ServerGone));
        assert_eq!(server.shutdown(), 0);
    }

    #[test]
    fn crash_after_n_serves_n_then_dies() {
        let plan = plan_with(|p| {
            p.crash_part = Some(0);
            p.crash_after = 2;
        });
        let server = serve(Some(plan));
        let client = server.client();
        assert_eq!(pull(&client, vec![1]).unwrap(), on_wire([1.0, 1.5]));
        assert_eq!(
            pull(&client, vec![3, 5]).unwrap(),
            on_wire([3.0, 3.5, 5.0, 5.5])
        );
        let handle = client.pull_async(vec![5]).unwrap();
        assert_eq!(handle.wait().unwrap_err(), RpcError::ServerGone);
        assert_eq!(server.shutdown(), 3);
    }

    #[test]
    fn dropped_reply_times_out() {
        let plan = plan_with(|p| p.drop_prob = 1.0);
        let server = serve(Some(plan));
        let handle = server.client().pull_async(vec![1]).unwrap();
        let t0 = std::time::Instant::now();
        let err = handle
            .wait_timeout(std::time::Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
        // The server is still alive — it swallowed the reply, it did not
        // die — so shutdown drains normally.
        assert_eq!(server.shutdown(), 0);
    }

    #[test]
    fn truncated_payload_detected() {
        let plan = plan_with(|p| p.truncate_prob = 1.0);
        let server = serve(Some(plan));
        let err = pull(&server.client(), vec![1, 3]).unwrap_err();
        assert_eq!(
            err,
            RpcError::Truncated {
                expected: 4,
                got: 2
            }
        );
        // Truncating an empty pull is a no-op, not an error.
        assert_eq!(
            pull(&server.client(), vec![]).unwrap(),
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
        let resp = server.client().pull_async(vec![5]).unwrap().wait().unwrap();
        assert_eq!(resp.payload, on_wire([5.0, 5.5]));
        assert_eq!(resp.delay_k, 7, "delay rides the reply as a sim-time tag");
    }

    #[test]
    fn unowned_id_is_typed_error_and_server_survives() {
        let server = serve(None);
        let client = server.client();
        let err = pull(&client, vec![1, 2]).unwrap_err();
        assert_eq!(err, RpcError::Kv(KvError { node: 2, part: 0 }));
        // The server did not die serving the bad request.
        assert_eq!(pull(&client, vec![1]).unwrap(), on_wire([1.0, 1.5]));
    }
}
