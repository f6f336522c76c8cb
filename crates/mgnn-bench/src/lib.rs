//! # mgnn-bench — reproduction harness for every table and figure
//!
//! One module per artifact of the paper's evaluation (§V):
//!
//! | module            | paper artifact |
//! |-------------------|----------------|
//! | [`tables::table2`]| Table II — dataset statistics |
//! | [`tables::table3`]| Table III — remote nodes & minibatches per trainer |
//! | [`tables::table4`]| Table IV — optimal (f_p^h, γ, Δ) per dataset/backend |
//! | [`figures::fig6`] | Fig. 6 — end-to-end GraphSAGE time + hit rate |
//! | [`figures::fig7`] | Fig. 7 — GAT on papers |
//! | [`figures::fig8`] | Fig. 8 — initialization cost |
//! | [`figures::fig9`] | Fig. 9 — component breakdown / overlap efficiency |
//! | [`figures::fig10`]| Fig. 10 — hit-rate progression over minibatches |
//! | [`figures::fig11`]| Fig. 11 — remote-node fetch & communication reduction |
//! | [`figures::fig12`]| Fig. 12 — eviction interval (Δ) sweep per γ |
//! | [`figures::fig13`]| Fig. 13 — decay factor (γ) sweep across Δ |
//! | [`figures::fig14`]| Fig. 14 — peak memory in the extreme eviction config |
//! | [`figures::perfmodel`] | Eq. 6 — analytical model vs simulated improvement |
//!
//! Each module exposes `run(&Opts) -> …Report` (rows as plain data) and the
//! reports implement `Display` so `cargo run --release -p mgnn-bench --bin
//! repro -- --experiment fig6` prints the same rows/series the paper plots.
//! Absolute seconds come from the calibrated cost model; the *shapes*
//! (who wins, by what factor, where crossovers sit) come from real sampled
//! data movement. See EXPERIMENTS.md for paper-vs-measured notes.

pub mod experiments;
pub mod figures;
pub mod harness;
pub mod tables;

pub use harness::Opts;
