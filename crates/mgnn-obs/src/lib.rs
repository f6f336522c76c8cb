//! Observability for the MassiveGNN training pipeline.
//!
//! Three layers, cheapest first:
//!
//! 1. **Span recording** ([`SpanRecorder`]) — each trainer gets one
//!    recorder shared between its worker thread and its prepare thread.
//!    Every pipeline phase (`sampling`, `lookup`, `scoring`, `evict`,
//!    `rpc`, `copy`, `train`, `allreduce`) records a step-keyed span;
//!    per-step [`StepAnchor`]s map lane-relative offsets onto the
//!    simulated timeline.
//! 2. **Aggregation** ([`LatencyHistogram`], [`StepPoint`]) — log₂
//!    buckets give p50/p95/p99/max per phase without storing every
//!    sample; a per-step series tracks stall time, hit rate, and overlap
//!    efficiency.
//! 3. **Export** ([`export`], [`sink`]) — Chrome/Perfetto `trace.json`
//!    (one process per trainer, one thread per lane) and a compact serde
//!    JSON snapshot; a process-global sink lets the repro binary collect
//!    reports from experiment modules without rewiring them.
//! 4. **Live telemetry** ([`counters`], [`registry`], [`prom`],
//!    [`events`]) — the one table every per-trainer counter is declared
//!    in, a process-global registry that a telemetry run attaches its
//!    trainers' counter sets to (a scrape reads the atomics the report
//!    is snapshotted from), Prometheus text exposition over a one-thread
//!    scrape server, and a request-correlated event log that ties every
//!    degraded row to the fault verdict that caused it.
//!
//! Recording is strictly opt-in: when tracing is off, no recorder exists
//! and every integration point short-circuits on `Option::None`, so the
//! engine's simulated timings and reports are bitwise identical to a
//! build without this crate.

mod collector;
pub mod counters;
pub mod events;
pub mod export;
pub mod hist;
pub mod prom;
pub mod registry;
pub mod sink;
pub mod span;

pub use counters::{CounterSet, CounterSnapshot};
pub use events::TraceEvent;
pub use hist::LatencyHistogram;
pub use prom::ScrapeServer;
pub use sink::RunCapture;
pub use span::{
    Lane, Phase, PhaseStats, SpanEvent, SpanRecorder, StepAnchor, StepPoint, TrainerTrace,
};
