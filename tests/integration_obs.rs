//! End-to-end observability: a traced engine run must produce spans that
//! reconcile with its own report, export to a parseable Perfetto trace
//! with every phase present on every trainer, and flow through the
//! global sink the repro CLI drains.

use massivegnn::{Engine, Mode, PrefetchConfig, RunReport};
use mgnn_bench::harness::{engine_config, Opts};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use mgnn_obs::Phase;
use serde::Serialize;

/// Cross-check a traced run's spans against its own report: for every
/// trainer, every phase must have exactly one span per minibatch, the
/// span durations must sum to the corresponding `Breakdown` field
/// within 1e-6 s, and the per-step anchors/series must cover every step.
fn assert_trace_consistent(report: &RunReport) {
    assert_eq!(
        report.traces.len(),
        report.trainers.len(),
        "traced run must carry one trace per trainer"
    );
    for (trace, tr) in report.traces.iter().zip(&report.trainers) {
        assert_eq!(trace.part_id, tr.part_id);
        let steps = tr.minibatches;
        assert_eq!(trace.anchors.len() as u64, steps, "one anchor per step");
        assert_eq!(trace.series.len() as u64, steps, "one sample per step");
        for phase in Phase::ALL {
            let stats = trace
                .phases
                .iter()
                .find(|p| p.phase == phase)
                .unwrap_or_else(|| panic!("trainer {}: no {} spans", trace.trainer, phase.name()));
            assert_eq!(
                stats.count,
                steps,
                "trainer {}: {} span count != minibatches",
                trace.trainer,
                phase.name()
            );
            if let Some(expect) = tr.breakdown.phase_s(phase) {
                assert!(
                    (stats.sum_s - expect).abs() < 1e-6,
                    "trainer {}: {} spans sum to {} but breakdown says {}",
                    trace.trainer,
                    phase.name(),
                    stats.sum_s,
                    expect
                );
            }
        }
        for ev in &trace.events {
            let abs = trace.absolute_start_s(ev).unwrap_or_else(|| {
                panic!(
                    "trainer {}: {} span at step {} has no anchor",
                    trace.trainer,
                    ev.phase.name(),
                    ev.step
                )
            });
            assert!(abs >= 0.0 && abs.is_finite());
        }
    }
}

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

    // Spans reconcile with the report's own breakdown.
    assert_trace_consistent(&report);

    // The Perfetto export parses back and carries >= 1 span of every
    // phase for every trainer.
    let text = serde_json::to_string(&mgnn_obs::export::perfetto_trace(&report.traces));
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

    // The full report serializes with its traces attached.
    let report_json = serde_json::to_string(&report.to_value());
    let v = serde_json::from_str(&report_json).unwrap();
    assert_eq!(
        v.get("traces").unwrap().as_array().unwrap().len(),
        report.world
    );
}
