//! Global run-capture sink.
//!
//! The repro binary drives seventeen experiment modules that each build
//! and run engines internally; threading an output channel through every
//! one of them would touch far more code than it is worth. Instead the
//! sink follows the tracing-subscriber idiom: the binary installs a
//! process-global collector before running an experiment, the engine
//! pushes a [`RunCapture`] on finalize *if* a sink is installed, and the
//! binary drains captures afterwards. With no sink installed every hook
//! is a cheap atomic load — the library never pays for observability it
//! did not ask for.

use crate::collector::Collector;
use crate::span::TrainerTrace;
use serde::Value;

/// One finished run, as captured by the engine.
#[derive(Debug, Clone)]
pub struct RunCapture {
    /// Label of the run (the engine config's experiment label).
    pub label: String,
    /// The run report, already lowered to a serde value tree.
    pub report: Value,
    /// Per-trainer traces (empty when tracing was disabled).
    pub traces: Vec<TrainerTrace>,
}

static SINK: Collector<RunCapture> = Collector::new();

/// Install the global sink; subsequent runs push their captures here.
pub fn install() {
    SINK.install()
}

/// Disable the sink and return anything still buffered.
pub fn uninstall() -> Vec<RunCapture> {
    SINK.uninstall()
}

/// Whether a sink is currently installed (one atomic load).
pub fn enabled() -> bool {
    SINK.enabled()
}

/// Push a capture if a sink is installed; a no-op otherwise.
pub fn push(capture: RunCapture) {
    SINK.push(capture)
}

/// Take all buffered captures, leaving the sink installed.
pub fn drain() -> Vec<RunCapture> {
    SINK.drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole lifecycle: the sink is process-global,
    // so splitting these assertions across #[test] fns would race under
    // the parallel test runner.
    #[test]
    fn lifecycle() {
        assert!(!enabled());
        push(RunCapture {
            label: "ignored".into(),
            report: Value::Null,
            traces: Vec::new(),
        });
        install();
        assert!(enabled());
        assert!(drain().is_empty(), "push before install must not land");
        push(RunCapture {
            label: "a".into(),
            report: Value::Null,
            traces: Vec::new(),
        });
        push(RunCapture {
            label: "b".into(),
            report: Value::Null,
            traces: Vec::new(),
        });
        let got = drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].label, "a");
        assert!(drain().is_empty(), "drain empties the buffer");
        assert!(enabled(), "drain leaves the sink installed");
        push(RunCapture {
            label: "c".into(),
            report: Value::Null,
            traces: Vec::new(),
        });
        let rest = uninstall();
        assert_eq!(rest.len(), 1);
        assert!(!enabled());
    }
}
