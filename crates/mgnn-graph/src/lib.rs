//! # mgnn-graph — graph substrate for MassiveGNN
//!
//! This crate provides everything the rest of the workspace needs to *have a
//! graph at all*: an immutable [CSR](csr::CsrGraph) representation, an
//! edge-list [builder](builder::GraphBuilder), synthetic graph
//! [generators] (R-MAT, Barabási–Albert, Erdős–Rényi, SBM), a
//! node [feature/label store](features::FeatureStore), OGB-lookalike
//! [dataset presets](datasets) matching the shape statistics of Table II of
//! the MassiveGNN paper, and degree/distribution [statistics](stats).
//!
//! The paper trains on `ogbn-arxiv`, `ogbn-products`, `reddit` and
//! `ogbn-papers100M`. Those datasets (and the hardware to hold them) are not
//! available here, so [`datasets`] synthesizes graphs whose *degree
//! distribution, density, feature dimension and label count* match each
//! dataset at a configurable scale — the properties that actually drive
//! sampling locality and therefore prefetch behaviour.
//!
//! All randomness is seeded and deterministic.

#![forbid(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod features;
pub mod generators;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, NodeId};
pub use datasets::{Dataset, DatasetGraph, DatasetKind, Scale};
pub use features::FeatureStore;
