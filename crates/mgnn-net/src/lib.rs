//! # mgnn-net — simulated distributed runtime
//!
//! The paper runs on NERSC Perlmutter: one DistDGL server per compute node,
//! trainer clients pulling halo-node features from remote KVStores over RPC
//! across a Slingshot fabric. None of that hardware is available here, so
//! this crate simulates it *in process* with two carefully separated layers:
//!
//! * **Real data movement** — [`kvstore::KvStore`] holds each partition's
//!   feature shard; [`rpc`] moves real feature bytes between threads over
//!   crossbeam channels, 16 bits per element ([`wire`]). Hit/miss counts,
//!   node counts and byte counts in [`metrics::CommMetrics`] are therefore
//!   *exact*, not modeled.
//! * **Modeled time** — [`cost::CostModel`] converts those exact counts
//!   into seconds using latency/bandwidth/compute-rate parameters
//!   calibrated to the paper's platform (§V), accumulated in a
//!   [`clock::SimClock`]. The paper's CPU-vs-GPU distinction is a compute
//!   rate; the `t_RPC / t_DDP` ratio that decides whether prefetch overlap
//!   wins (Eq. 6) is explicit and testable.
//!
//! This split is what makes the figure reproductions meaningful: the
//! *shape* of every result follows from real sampled-node/buffer behaviour,
//! while absolute seconds are transparently a model.

//! A third layer rides on top of both: **deterministic chaos**. A
//! seeded [`fault::FaultProfile`] makes servers drop, delay-tag,
//! truncate, or crash per a pure hash of the request index; clients
//! retry with [`fault::RetryPolicy`] backoff charged to the *modeled*
//! clock; and [`cluster::SimCluster`] degrades (respawn → retry →
//! zero-fill) instead of panicking, reporting every deviation exactly.

pub mod clock;
pub mod cluster;
pub mod cost;
pub mod fault;
pub mod kvstore;
pub mod metrics;
pub mod rpc;
pub mod wire;

pub use clock::{PipelineClock, PipelineStepTimes, SimClock};
pub use cluster::{PullOutcome, SimCluster};
pub use cost::{Backend, CostModel};
pub use fault::{FaultPlan, FaultProfile, FaultVerdict, RetryPolicy};
pub use kvstore::{KvError, KvStore};
pub use metrics::{CommMetrics, MetricsSnapshot};
pub use rpc::RpcError;
