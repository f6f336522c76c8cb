//! Live-telemetry plane, end to end: the registry must reconcile exactly
//! with `CommMetrics`, telemetry must never perturb a `RunReport`, and
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

/// Every registry counter must equal the corresponding field of the
/// report's aggregated `CommMetrics` snapshot — the hooks live inside
/// the `CommMetrics` methods, so this holds by construction, and this
/// assertion pins that construction.
fn assert_registry_reconciles(report: &RunReport) {
    let agg = report.aggregate_metrics();
    let pairs: [(&str, u64, u64); 18] = [
        ("rpc_calls", registry::RPC_CALLS.get(), agg.rpc_calls),
        (
            "remote_nodes",
            registry::REMOTE_NODES.get(),
            agg.remote_nodes_fetched,
        ),
        (
            "remote_bytes",
            registry::REMOTE_BYTES.get(),
            agg.remote_bytes,
        ),
        (
            "local_nodes",
            registry::LOCAL_NODES.get(),
            agg.local_nodes_copied,
        ),
        ("hits", registry::PREFETCH_HITS.get(), agg.buffer_hits),
        ("misses", registry::PREFETCH_MISSES.get(), agg.buffer_misses),
        ("evictions", registry::EVICTIONS.get(), agg.evictions),
        (
            "replacements",
            registry::REPLACEMENTS.get(),
            agg.replacements_fetched,
        ),
        ("retries", registry::RPC_RETRIES.get(), agg.rpc_retries),
        ("timeouts", registry::RPC_TIMEOUTS.get(), agg.rpc_timeouts),
        (
            "truncations",
            registry::RPC_TRUNCATIONS.get(),
            agg.rpc_truncations,
        ),
        (
            "disconnects",
            registry::RPC_DISCONNECTS.get(),
            agg.rpc_disconnects,
        ),
        ("delays", registry::RPC_DELAYS.get(), agg.rpc_delays),
        (
            "respawns",
            registry::SERVER_RESPAWNS.get(),
            agg.server_respawns,
        ),
        ("stale", registry::STALE_SERVED.get(), agg.stale_served),
        ("degraded", registry::DEGRADED_ROWS.get(), agg.degraded_rows),
        (
            "planned_pulls",
            registry::PLANNED_PULLS.get(),
            agg.planned_pulls,
        ),
        (
            "planned_rows",
            registry::PLANNED_ROWS.get(),
            agg.planned_rows,
        ),
    ];
    for (name, got, want) in pairs {
        assert_eq!(got, want, "registry {name} diverged from CommMetrics");
    }
    // Step counter and gauges: run-level, not per-trainer.
    let total_steps: u64 = report.trainers.iter().map(|t| t.minibatches).sum();
    assert_eq!(registry::STEPS.get(), total_steps);
    assert_eq!(registry::HIT_RATE.get(), report.hit_rate());
    assert_eq!(registry::MAKESPAN.get(), report.makespan_s);
    assert_eq!(registry::WORLD.get(), report.world as f64);
    // The step-latency histogram saw one train sample per step.
    let series = registry::STEP_LATENCY.series();
    let train = series
        .iter()
        .find(|(label, _)| *label == "train")
        .expect("train lane recorded");
    assert_eq!(train.1.count(), total_steps);
}

#[test]
fn telemetry_reconciles_and_never_perturbs_reports() {
    // --- 1. Registry ≡ CommMetrics on the threaded engine, pool widths
    // 1 and 4 (the registry is fed from every trainer thread at once).
    for width in [1usize, 4] {
        let report = rayon::pool::with_max_threads(width, || {
            let mut cfg = telemetry_config(11, None);
            cfg.parallel = true;
            Engine::build(cfg).run()
        });
        assert!(registry::enabled(), "run() must arm the registry");
        assert_registry_reconciles(&report);

        // A scrape of the armed registry renders valid exposition whose
        // totals match what the report says (the mid-run scrape path —
        // the registry is live the whole run; here we read it after so
        // the expected totals are exact).
        let text = prom::render();
        assert!(text.contains("# HELP mgnn_prefetch_hits_total "));
        assert!(text.contains("# TYPE mgnn_prefetch_hits_total counter"));
        let agg = report.aggregate_metrics();
        assert!(
            text.contains(&format!("mgnn_prefetch_hits_total {}\n", agg.buffer_hits)),
            "exposition must carry the reconciled hit total"
        );
        assert!(text.contains(&format!("mgnn_rpc_retries_total {}\n", agg.rpc_retries)));
        assert!(text.contains("mgnn_step_latency_bucket{lane=\"train\",le=\"+Inf\"}"));
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
