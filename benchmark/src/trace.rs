//! In-memory spans around calls into each layer. Spans are recorded
//! from the benchmark's own code (nothing inside the program is timed)
//! and written out only after the drive ends.

use serde::{Serialize, Value};
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// `step` of spans that belong to set-up rather than to a training step.
pub const SETUP_STEP: i64 = -1;

/// One timed call: which layer, which step, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub step: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder for one drive. Single-threaded by construction: the
/// drive replays one trainer on the calling thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`close`](Self::close).
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        step: i64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            step,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close `id`, returning its duration in milliseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ms()
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        step: i64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, layer, step, parent);
        let r = f();
        (r, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// The span file: one object per span, in recording order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Value::obj([
                ("id", id.to_value()),
                ("name", s.name.to_value()),
                ("layer", s.layer.to_value()),
                ("step", Value::I64(s.step)),
                ("start_ns", s.start_ns.to_value()),
                ("end_ns", s.end_ns.to_value()),
                ("parent", s.parent.to_value()),
            ])
        });
        serde_json::to_string(&Value::obj([
            ("workload", workload.to_value()),
            ("seed", seed.to_value()),
            ("spans", Value::arr(spans)),
        ]))
    }
}
