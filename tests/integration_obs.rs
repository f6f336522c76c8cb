//! End-to-end observability: a traced engine run must produce spans that
//! reconcile with its own report, export to a parseable Perfetto trace
//! with every phase present on every trainer, and flow through the
//! global sink the repro CLI drains.

use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_bench::harness::{assert_trace_consistent, engine_config, Opts};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use mgnn_obs::Phase;
use serde::Serialize;

// One #[test] end to end: the sink is process-global, so concurrent
// tests in this binary would cross-contaminate its captures.
#[test]
fn traced_run_exports_consistent_perfetto_and_json() {
    let opts = Opts {
        epochs: 2,
        batch_size: 96,
        fanouts: vec![5, 10],
        hidden_dim: 32,
        ..Default::default()
    };
    let mut cfg = engine_config(&opts, DatasetKind::Products, Backend::Cpu, 2);
    cfg.trainers_per_part = 2;
    cfg.trace = true;
    cfg.mode = Mode::Prefetch(PrefetchConfig::default());

    mgnn_obs::sink::install();
    let report = Engine::build(cfg).run();
    let captures = mgnn_obs::sink::uninstall();

    // The engine pushed exactly this run into the sink.
    assert_eq!(captures.len(), 1);
    assert_eq!(captures[0].label, report.mode_label);
    assert_eq!(captures[0].traces.len(), report.world);
    assert_eq!(
        captures[0].report.get("world").and_then(|v| v.as_u64()),
        Some(report.world as u64)
    );

    // Spans reconcile with the report's own breakdown (harness check).
    assert_trace_consistent(&report);

    // The Perfetto export parses back and carries >= 1 span of every
    // phase for every trainer.
    let text = mgnn_obs::export::perfetto_trace_string(&report.traces);
    let v = serde_json::from_str(&text).expect("perfetto trace must be valid JSON");
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    for trace in &report.traces {
        let pid = trace.trainer as u64;
        for phase in Phase::ALL {
            let n = events
                .iter()
                .filter(|e| {
                    e.get("ph").unwrap().as_str() == Some("X")
                        && e.get("pid").unwrap().as_u64() == Some(pid)
                        && e.get("name").unwrap().as_str() == Some(phase.name())
                })
                .count();
            assert!(
                n >= 1,
                "trainer {pid} has no {} spans in the exported trace",
                phase.name()
            );
        }
        assert!(
            events.iter().any(|e| {
                e.get("ph").unwrap().as_str() == Some("M")
                    && e.get("pid").unwrap().as_u64() == Some(pid)
            }),
            "trainer {pid} has no metadata rows"
        );
    }

    // The compact snapshot also round-trips through JSON.
    let snap = serde_json::to_string(&mgnn_obs::export::snapshot(&report.traces));
    let v = serde_json::from_str(&snap).unwrap();
    assert_eq!(
        v.get("trainers").unwrap().as_array().unwrap().len(),
        report.world
    );

    // And the full report serializes with its traces attached.
    let report_json = serde_json::to_string(&report.to_value());
    let v = serde_json::from_str(&report_json).unwrap();
    assert_eq!(
        v.get("traces").unwrap().as_array().unwrap().len(),
        report.world
    );
}
