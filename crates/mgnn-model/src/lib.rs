//! # mgnn-model — GraphSAGE, GAT, DDP training
//!
//! The paper's workloads: a 2-layer mean-aggregator [GraphSAGE](sage) with
//! fanout `{10, 25}` (§V) and a 2-head [GAT](gat) (§V-A4), trained with
//! synchronous data-parallel SGD — gradients ring-allreduced across all
//! trainer PEs every minibatch ([`ddp`]).
//!
//! Every architecture is one [`Layer`] — an explicit `forward`/`backward`
//! pair over [`mgnn_sampling::Block`]s, with gradient correctness pinned
//! by finite-difference tests — and [`Model`] is implemented once, for a
//! [`Stack`] of them: it abstracts parameter/gradient flattening so DDP
//! and the optimizers work on plain `f32` slices.

pub mod ddp;
pub mod gat;
pub mod gcn;
pub mod layer;
pub mod model;
pub mod optim;
pub mod sage;
pub mod train;

pub use ddp::{reduce_ring_chunk_average_with, ring_allreduce_average, ring_chunk_bounds};
pub use gat::GatModel;
pub use gcn::GcnModel;
pub use layer::Layer;
pub use model::{Model, ModelKind, Stack};
pub use optim::{Optimizer, Sgd};
pub use sage::SageModel;
