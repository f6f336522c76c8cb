//! # massivegnn — continuous prefetch & eviction for distributed GNN training
//!
//! Rust reproduction of *MassiveGNN: Efficient Training via Prefetching for
//! Massively Connected Distributed Graphs* (Sarkar, Ghosh, Tallent,
//! Jannesari — IEEE CLUSTER 2024).
//!
//! Distributed minibatch GNN training fetches the features of remotely
//! owned ("halo") nodes over RPC every minibatch, putting the network on
//! the critical path. MassiveGNN adds, per trainer:
//!
//! * a [`PrefetchBuffer`] of halo-node features,
//!   initialized with the highest-degree `f_p^h`% of halo nodes
//!   ([`init`], Algorithm 1 `INITIALIZE_PREFETCHER`);
//! * dual [scoreboards](scoreboard): an eviction score `S_E` decayed by
//!   `γ` whenever a buffered node goes unsampled, and an access score
//!   `S_A` incremented on every buffer miss, in either the dense `O(|V|)`
//!   layout or the memory-efficient `O(|V_p^h|)` binary-search layout
//!   (§IV-B);
//! * a Δ-periodic [evict-and-replace](prefetcher) pass using the Eq. 1
//!   threshold `α = γ^Δ` with score *swapping* (Algorithm 2);
//! * [asynchronous next-minibatch preparation](pipeline) overlapped with
//!   DDP training on the current minibatch (Algorithm 1 lines 5–9).
//!
//! The [`engine`] runs the full distributed training loop in both
//! baseline-DistDGL and prefetch modes over the simulated cluster of
//! [`mgnn_net`], producing exact hit/miss/byte counts and modeled times;
//! [`perfmodel`] carries the paper's analytical Eqs. 2–7 and
//! [`tradeoff`] the Fig. 5 (γ, Δ) quadrants.
//!
//! # Example
//!
//! ```
//! use massivegnn::{Engine, EngineConfig, Mode, PrefetchConfig};
//! use mgnn_graph::{DatasetKind, Scale};
//!
//! let mut cfg = EngineConfig {
//!     dataset: DatasetKind::Products,
//!     scale: Scale::Unit,
//!     num_parts: 2,
//!     trainers_per_part: 2,
//!     epochs: 1,
//!     batch_size: 64,
//!     ..Default::default()
//! };
//! let baseline = Engine::build(cfg.clone()).run();
//!
//! cfg.mode = Mode::Prefetch(PrefetchConfig {
//!     f_h: 0.25,
//!     gamma: 0.995,
//!     delta: 16,
//!     ..Default::default()
//! });
//! let prefetch = Engine::build(cfg).run();
//!
//! assert!(prefetch.makespan_s < baseline.makespan_s);
//! assert!(prefetch.hit_rate() > 0.0);
//! ```

pub mod ablation;
#[cfg(feature = "alloc-count")]
pub mod alloc;
pub mod buffer;
pub mod config;
pub mod engine;
pub mod hitrate;
pub mod init;
pub mod perfmodel;
pub mod pipeline;
pub mod policy;
pub mod prefetcher;
pub mod scoreboard;
pub mod serialize;
pub mod tradeoff;

pub use buffer::PrefetchBuffer;
pub use config::{PrefetchConfig, PrefetchPolicyKind, ScoreLayout};
pub use engine::{Engine, EngineConfig, Mode, RunReport};
pub use mgnn_net::{FaultProfile, RetryPolicy};
pub use policy::{LookaheadPolicy, PlanCtx, PrefetchPolicy, ScoreboardPolicy};
pub use prefetcher::{Prefetcher, PrepareScratch, PreparedBatch};

/// With `alloc-count` on, the whole process allocates through the
/// counting allocator, so the steady-state proof measures every code
/// path — including shims and std collections.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
