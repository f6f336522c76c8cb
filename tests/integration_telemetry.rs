//! Live-telemetry plane, end to end: a scrape must reconcile exactly
//! with the report, telemetry must never perturb a `RunReport`, and
//! the request-correlated event log must attribute every degraded row.
//!
//! One `#[test]` fn: the registry and the event log are process-global,
//! so concurrent tests in this binary would cross-contaminate them.

use massivegnn::{
    Engine, EngineConfig, FaultProfile, Mode, PrefetchConfig, RetryPolicy, RunReport,
};
use mgnn_obs::{events, prom, registry};
use serde::Serialize;
use std::time::Duration;

fn telemetry_config(seed: u64, fault: Option<FaultProfile>) -> EngineConfig {
    EngineConfig {
        seed,
        epochs: 2,
        batch_size: 64,
        fanouts: vec![4, 4],
        hidden_dim: 16,
        train_math: true,
        // No verdict in this file may depend on the wall clock: the fault
        // profiles below never drop a reply (see `without_drops`), so no
        // legitimate timeout exists and the bound only has to be long
        // enough that a slow host cannot turn a served reply into one.
        retry: RetryPolicy {
            timeout: Duration::from_secs(30),
            ..Default::default()
        },
        mode: Mode::Prefetch(PrefetchConfig {
            f_h: 0.25,
            delta: 4,
            ..Default::default()
        }),
        fault,
        telemetry: true,
        ..Default::default()
    }
}

/// `profile` minus its drops. A drop is detected by a wall-clock
/// timeout, and a timeout short enough to be cheap also fires spuriously
/// on a loaded host, which made the event logs of two runs differ. The
/// drop → timeout rung stays covered, deterministically, by mgnn-net's
/// `exhausted_retries_zero_fill_and_report_rows` (`drop_prob: 1.0`).
fn without_drops(profile: FaultProfile) -> FaultProfile {
    FaultProfile {
        drop_prob: 0.0,
        ..profile
    }
}

fn fingerprint(r: &RunReport) -> String {
    serde_json::to_string_pretty(&r.to_value())
}

/// Every counter of the table, as scraped, must equal the report's
/// aggregate, and so must its sample line in the exposition. A scrape
/// sums the trainers' own atomics — the ones the report was snapshotted
/// from — so this holds by construction; the loop pins that construction
/// for every row, present and future.
fn assert_registry_reconciles(report: &RunReport) {
    let agg = report.aggregate_metrics();
    let scraped = registry::scrape();
    let text = prom::render();
    for ((name, help, got), (_, _, want)) in scraped.rows().zip(agg.rows()) {
        assert_eq!(got, want, "scraped {name} diverged from the report");
        assert!(text.contains(&format!("# HELP {name} {help}\n")));
        assert!(text.contains(&format!("# TYPE {name} counter\n")));
        assert!(
            text.contains(&format!("\n{name} {want}\n")),
            "exposition sample of {name} is not the report's {want}"
        );
    }
    // The hit-rate gauge is the same formula over the same scrape.
    let gauge = text
        .lines()
        .find_map(|l| l.strip_prefix("mgnn_buffer_hit_rate "))
        .expect("hit-rate sample rendered");
    assert_eq!(
        gauge.parse::<f64>().unwrap().to_bits(),
        report.hit_rate().to_bits()
    );
    // Step counter and gauges: run-level, not per-trainer.
    let total_steps: u64 = report.trainers.iter().map(|t| t.minibatches).sum();
    assert_eq!(registry::STEPS.get(), total_steps);
    assert_eq!(registry::MAKESPAN.get(), report.makespan_s);
    assert_eq!(registry::WORLD.get(), report.world as f64);
    // The step-latency histogram saw one train sample per step.
    let series = registry::STEP_LATENCY.series();
    let train = series
        .iter()
        .find(|(label, _)| *label == "train")
        .expect("train lane recorded");
    assert_eq!(train.1.count(), total_steps);
    assert!(text.contains("mgnn_step_latency_bucket{lane=\"train\",le=\"+Inf\"}"));
}

#[test]
fn telemetry_reconciles_and_never_perturbs_reports() {
    // --- 1. Scrape ≡ report on the threaded engine, pool widths 1 and 4
    // (every trainer thread and prepare thread updates its attached set
    // at once). The registry stays armed and the sets attached after the
    // run, so the totals read here are exact.
    for width in [1usize, 4] {
        let report = rayon::pool::with_max_threads(width, || {
            let mut cfg = telemetry_config(11, None);
            cfg.parallel = true;
            Engine::build(cfg).run()
        });
        assert!(registry::enabled(), "run() must arm the registry");
        assert_registry_reconciles(&report);

        assert!(report.hit_rate() > 0.0, "the run must exercise the buffer");
        registry::disable();
    }

    // --- 2. Telemetry is report-neutral: bitwise-identical RunReports
    // with telemetry on and off, faultless and under light chaos (the
    // chaos schedule replays only on the sequential engine, so the
    // faulted comparison runs there).
    for fault in [None, Some(without_drops(FaultProfile::light(5)))] {
        let faulted = fault.is_some();
        let with_tel = {
            let mut cfg = telemetry_config(23, fault.clone());
            cfg.parallel = !faulted;
            Engine::build(cfg).run()
        };
        registry::disable();
        let without_tel = {
            let mut cfg = telemetry_config(23, fault);
            cfg.parallel = !faulted;
            cfg.telemetry = false;
            Engine::build(cfg).run()
        };
        assert!(
            !registry::enabled(),
            "telemetry-off run must not arm the registry"
        );
        assert_eq!(
            fingerprint(&with_tel),
            fingerprint(&without_tel),
            "telemetry must be invisible to the report (faulted: {faulted})"
        );
    }

    // --- 3. Request-correlated traceability under heavy chaos: every
    // degradation in the report is attributable to tagged events, and
    // the log itself is deterministic across kernel-pool widths.
    let chaos_events = |width: usize| {
        rayon::pool::with_max_threads(width, || {
            events::install();
            let mut cfg = telemetry_config(7, Some(without_drops(FaultProfile::heavy(3))));
            cfg.telemetry = false;
            let report = Engine::build(cfg).run();
            let mut got = events::uninstall();
            events::sort_events(&mut got);
            (report, got)
        })
    };
    let (report, evs) = chaos_events(1);
    let agg = report.aggregate_metrics();
    assert!(
        agg.had_faults(),
        "heavy profile must actually exercise the ladder"
    );
    assert!(!evs.is_empty());
    assert!(
        evs.iter().all(|e| e.request_id != 0),
        "every event must carry a request id"
    );
    // Exact attribution: the event log's degradation totals equal the
    // metrics' — every degraded row traces back to a tagged request.
    let sum_kind = |k: &str| -> u64 { evs.iter().filter(|e| e.kind == k).map(|e| e.value).sum() };
    assert_eq!(sum_kind("degraded_rows"), agg.degraded_rows);
    assert_eq!(sum_kind("stale_rows"), agg.stale_served);
    assert_eq!(
        evs.iter().filter(|e| e.kind == "retry").count() as u64,
        agg.rpc_retries
    );
    // Deterministic across kernel-pool widths (request ids are pure
    // functions of origin/rank/step, never a shared counter).
    let (_, evs4) = chaos_events(4);
    assert_eq!(evs, evs4, "event log must not depend on pool width");
    // And the JSONL rendering is line-per-event with the ids inline.
    let jsonl = events::to_jsonl(&evs);
    assert_eq!(jsonl.lines().count(), evs.len());
    assert!(jsonl.lines().all(|l| l.starts_with("{\"request_id\":")));
}
