//! Seeded synthetic graph generators.
//!
//! Four families, chosen to span the structural regimes of the paper's OGB
//! inputs:
//!
//! * [`mod@rmat`] — recursive-matrix (Graph500 style): heavy-tailed degrees,
//!   community-ish self-similarity. Used for the `products`- and
//!   `papers`-like presets.
//! * [`ba`] — Barabási–Albert preferential attachment: clean power law,
//!   large diameter when `m` is small. Used for the `arxiv`-like preset
//!   (the paper notes arxiv's "relatively large diameter and small degree").
//! * [`erdos`] — uniform G(n, m): dense and homogeneous. Used for the
//!   `reddit`-like preset's dense core mixing.
//! * [`mod@sbm`] — stochastic block model: explicit community structure, useful
//!   for partitioner tests where ground-truth clusters exist.
//!
//! Every generator takes an explicit seed and is deterministic across runs
//! and platforms (we use `StdRng` = ChaCha12 seeded from a u64).

pub mod ba;
pub mod erdos;
pub mod rmat;
pub mod sbm;

pub use ba::barabasi_albert;
pub use erdos::erdos_renyi;
pub use rmat::{rmat, RmatParams};
pub use sbm::{sbm, SbmParams};
