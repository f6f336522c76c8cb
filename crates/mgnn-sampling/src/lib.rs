//! # mgnn-sampling — neighbor sampling and minibatch loading
//!
//! DistDGL's trainer `DataLoader` shuffles its shard of train nodes each
//! epoch, chops them into minibatches, and runs a fanout
//! [`NeighborSampler`] over the *local partition*
//! (halo nodes included as frontier leaves) to produce the per-layer
//! bipartite [`Block`]s (message-flow graphs) the GNN
//! consumes. This crate reimplements that pipeline over
//! [`mgnn_partition::LocalPartition`].
//!
//! Node ids inside sampled structures are *partition-local* (`0..L` local,
//! `L..L+H` halo), so the prefetcher can split a sampled minibatch into
//! `V_p^{l|s}` and `V_p^{h|s}` (paper Algorithm 2 lines 2–3) with a single
//! comparison against `L`.

pub mod block;
pub mod dataloader;
pub mod sampler;

pub use block::{Block, SampledMinibatch};
pub use dataloader::{DataLoader, EpochPlan};
pub use sampler::{NeighborSampler, SamplerScratch, SamplingStrategy};
