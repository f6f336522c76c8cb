//! # mgnn-tensor — dense math substrate
//!
//! The paper trains GraphSAGE/GAT through PyTorch; this crate provides the
//! minimal dense-tensor machinery those models need, in pure Rust:
//! a row-major 2-D `f32` [`Tensor`] with rayon-parallel [matmul](Tensor::matmul),
//! [elementwise ops](ops), a [`linear::Linear`] layer with manual backward,
//! [cross-entropy loss](loss), and seeded [Xavier init](init).
//!
//! It is deliberately *not* a general autograd engine: every layer in
//! `mgnn-model` implements an explicit `forward`/`backward` pair, which
//! keeps the hot paths allocation-predictable (the HPC idiom) and makes the
//! gradient flow auditable in tests against finite differences.

#![forbid(unsafe_code)]

pub mod init;
pub mod linear;
pub mod loss;
pub mod ops;
pub mod sparse;
pub mod tensor;

pub use linear::Linear;
pub use tensor::Tensor;
