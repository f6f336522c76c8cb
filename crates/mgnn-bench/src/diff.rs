//! Run-diff regression reports (`report-diff A.json B.json`).
//!
//! Compares two benchmark documents (`mgnn-bench/v1`, from
//! `repro --bench-out`) or two report documents (`mgnn-repro/v1`, from
//! `repro --json-out`) and renders a per-row diff. Two kinds of check:
//!
//! - **Absolute floor** — the candidate bench document's end-to-end
//!   `speedup` must clear [`PERF_GUARD_MIN_SPEEDUP`]. Speedup is a ratio
//!   of two runs on the *same* host, so the floor applies no matter
//!   where either document was recorded.
//! - **Relative timings** — kernel milliseconds are wall-clock and only
//!   comparable when both documents were recorded on the same host
//!   (provenance `hostname` + `cores` match). On a mismatch — or when
//!   either document predates provenance — the relative rows are
//!   reported for context but never breach; a warning says why.
//!
//! - **Set-up footprint** — `end_to_end.build_peak_bytes` (the heap
//!   high-water mark of one `Engine::build`, counted by the `alloc-count`
//!   allocator, so host independent) may not grow past
//!   [`BUILD_PEAK_REGRESSION_TOLERANCE`]. Checked only against a baseline
//!   that has the column: documents recorded before it existed, or
//!   without the counting allocator (0), skip the check.
//!
//! Repro documents carry *simulated* makespans, which are host
//! independent by construction, so their relative check always applies.
//!
//! [`PERF_GUARD_MIN_SPEEDUP`]: crate::bench::PERF_GUARD_MIN_SPEEDUP

use crate::bench::PERF_GUARD_MIN_SPEEDUP;
use serde::Value;

/// A candidate kernel may be this much slower than baseline (same host)
/// before the diff counts it as a breach: wall-clock medians on shared
/// CI runners are noisy, so the bar is deliberately generous.
pub const KERNEL_REGRESSION_TOLERANCE: f64 = 1.25;

/// A candidate's simulated makespan may exceed baseline's by this factor
/// before breaching. Simulated time is deterministic — the slack only
/// absorbs intentional cost-model retunes, not noise.
pub const MAKESPAN_REGRESSION_TOLERANCE: f64 = 1.05;

/// A candidate's `build_peak_bytes` may exceed baseline's by this factor
/// before breaching. Counted bytes are deterministic; the slack is for
/// changes that legitimately hold a little more during set-up.
pub const BUILD_PEAK_REGRESSION_TOLERANCE: f64 = 1.10;

/// Outcome of one document comparison.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Human-readable per-metric rows (`name: baseline -> candidate`).
    pub rows: Vec<String>,
    /// Checks that were skipped and why (e.g. host mismatch).
    pub warnings: Vec<String>,
    /// Guard violations; any entry means the diff failed.
    pub breaches: Vec<String>,
}

impl DiffReport {
    /// Whether any guard was breached (process should exit non-zero).
    pub fn failed(&self) -> bool {
        !self.breaches.is_empty()
    }

    /// Render the full report as display text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(r);
            out.push('\n');
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        for b in &self.breaches {
            out.push_str(&format!("BREACH: {b}\n"));
        }
        if self.breaches.is_empty() {
            out.push_str("report-diff: ok\n");
        }
        out
    }
}

/// Host identity a document was recorded on, if it carries provenance.
fn host_identity(doc: &Value) -> Option<(String, u64)> {
    let prov = doc.get("provenance")?;
    let host = prov.get("hostname").and_then(Value::as_str)?;
    let cores = prov.get("cores").and_then(Value::as_u64)?;
    Some((host.to_string(), cores))
}

fn schema_of(doc: &Value) -> Result<&str, String> {
    doc.get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| "document has no \"schema\" field".to_string())
}

/// Compare two parsed documents. `Err` means the documents could not be
/// compared at all (unknown or mismatched schemas) — the CLI maps that
/// to exit code 2, distinct from a guard breach (exit 1).
pub fn diff_docs(baseline: &Value, candidate: &Value) -> Result<DiffReport, String> {
    let (bs, cs) = (schema_of(baseline)?, schema_of(candidate)?);
    if bs != cs {
        return Err(format!(
            "schema mismatch: baseline {bs:?} vs candidate {cs:?}"
        ));
    }
    match bs {
        "mgnn-bench/v1" => Ok(diff_bench(baseline, candidate)),
        "mgnn-repro/v1" => Ok(diff_repro(baseline, candidate)),
        other => Err(format!("unknown schema {other:?}")),
    }
}

fn diff_bench(baseline: &Value, candidate: &Value) -> DiffReport {
    let mut rep = DiffReport::default();

    // Absolute floor: always enforced, host-independent.
    match candidate
        .get("end_to_end")
        .and_then(|e| e.get("speedup"))
        .and_then(Value::as_f64)
    {
        Some(speedup) => {
            rep.rows.push(format!(
                "end_to_end.speedup: candidate {speedup:.3} (floor {PERF_GUARD_MIN_SPEEDUP:.2})"
            ));
            // Mirror the repro CLI's perf guard: a single-core host has
            // no helpers, so the floor would flag hardware, not code.
            let cores = candidate.get("cores").and_then(Value::as_u64).unwrap_or(0);
            if cores <= 1 {
                rep.warnings.push(
                    "speedup floor skipped: candidate recorded on a single-core host".to_string(),
                );
            } else if speedup < PERF_GUARD_MIN_SPEEDUP {
                rep.breaches.push(format!(
                    "end-to-end speedup {speedup:.3} below floor {PERF_GUARD_MIN_SPEEDUP:.2}"
                ));
            }
        }
        None => rep
            .warnings
            .push("candidate has no end_to_end.speedup column".to_string()),
    }

    // Set-up footprint: counted bytes, enforced wherever both documents
    // measured them.
    let build_bytes = |doc: &Value, key: &str| {
        doc.get("end_to_end")
            .and_then(|e| e.get(key))
            .and_then(Value::as_f64)
            .filter(|&bytes| bytes > 0.0)
    };
    if let Some(b) = build_bytes(baseline, "build_peak_bytes") {
        match build_bytes(candidate, "build_peak_bytes") {
            Some(c) => {
                let ratio = c / b;
                rep.rows.push(format!(
                    "end_to_end.build_peak_bytes: {b:.0} -> {c:.0} ({ratio:.3}x)"
                ));
                if let (Some(bl), Some(cl)) = (
                    build_bytes(baseline, "build_live_bytes"),
                    build_bytes(candidate, "build_live_bytes"),
                ) {
                    rep.rows.push(format!(
                        "end_to_end.build_live_bytes: {bl:.0} -> {cl:.0} ({:.3}x)",
                        cl / bl
                    ));
                }
                if ratio > BUILD_PEAK_REGRESSION_TOLERANCE {
                    rep.breaches.push(format!(
                        "Engine::build peak heap grew {ratio:.3}x (tolerance {BUILD_PEAK_REGRESSION_TOLERANCE:.2}x)"
                    ));
                }
            }
            None => rep.warnings.push(
                "candidate has no build_peak_bytes (recorded without alloc-count?): set-up footprint not checked"
                    .to_string(),
            ),
        }
    }

    // Relative wall-clock rows: breach only on a same-host comparison.
    let same_host = match (host_identity(baseline), host_identity(candidate)) {
        (Some(b), Some(c)) if b == c => true,
        (Some(b), Some(c)) => {
            rep.warnings.push(format!(
                "host mismatch ({}/{} cores vs {}/{} cores): relative timings reported but not enforced",
                b.0, b.1, c.0, c.1
            ));
            false
        }
        _ => {
            rep.warnings.push(
                "missing provenance on one or both documents: relative timings reported but not enforced"
                    .to_string(),
            );
            false
        }
    };

    let kernel_names: Vec<String> = baseline
        .get("kernels")
        .map(|k| match k {
            Value::Obj(fields) => fields.iter().map(|(name, _)| name.clone()).collect(),
            _ => Vec::new(),
        })
        .unwrap_or_default();
    for name in &kernel_names {
        let time = |doc: &Value| {
            doc.get("kernels")
                .and_then(|k| k.get(name))
                .and_then(|k| k.get("par_ms"))
                .and_then(Value::as_f64)
        };
        let (Some(b), Some(c)) = (time(baseline), time(candidate)) else {
            rep.warnings
                .push(format!("kernel {name}: missing in one document, skipped"));
            continue;
        };
        let ratio = if b == 0.0 { 1.0 } else { c / b };
        rep.rows.push(format!(
            "kernel {name}.par_ms: {b:.3} -> {c:.3} ({ratio:.2}x)"
        ));
        if same_host && ratio > KERNEL_REGRESSION_TOLERANCE {
            rep.breaches.push(format!(
                "kernel {name} regressed {ratio:.2}x (tolerance {KERNEL_REGRESSION_TOLERANCE:.2}x)"
            ));
        }
    }
    rep
}

fn diff_repro(baseline: &Value, candidate: &Value) -> DiffReport {
    let mut rep = DiffReport::default();
    // (experiment, label, seq) -> makespan_s, in document order.
    let collect = |doc: &Value| -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let Some(exps) = doc.get("experiments").and_then(Value::as_array) else {
            return out;
        };
        for exp in exps {
            let name = exp.get("name").and_then(Value::as_str).unwrap_or("?");
            let Some(runs) = exp.get("runs").and_then(Value::as_array) else {
                continue;
            };
            for (seq, run) in runs.iter().enumerate() {
                let label = run.get("label").and_then(Value::as_str).unwrap_or("?");
                if let Some(mk) = run
                    .get("report")
                    .and_then(|r| r.get("makespan_s"))
                    .and_then(Value::as_f64)
                {
                    out.push((format!("{name}/{label}#{seq}"), mk));
                }
            }
        }
        out
    };
    let base_runs = collect(baseline);
    let cand_runs = collect(candidate);
    if base_runs.is_empty() || cand_runs.is_empty() {
        rep.warnings
            .push("no per-run makespans found in one or both documents".to_string());
        return rep;
    }
    for (key, b) in &base_runs {
        let Some((_, c)) = cand_runs.iter().find(|(k, _)| k == key) else {
            rep.warnings
                .push(format!("run {key}: missing from candidate, skipped"));
            continue;
        };
        let ratio = if *b == 0.0 { 1.0 } else { c / b };
        rep.rows
            .push(format!("makespan {key}: {b:.6}s -> {c:.6}s ({ratio:.3}x)"));
        if ratio > MAKESPAN_REGRESSION_TOLERANCE {
            rep.breaches.push(format!(
                "makespan {key} regressed {ratio:.3}x (tolerance {MAKESPAN_REGRESSION_TOLERANCE:.2}x)"
            ));
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    fn bench_doc(host: &str, cores: u64, speedup: f64, matmul_ms: f64, with_prov: bool) -> Value {
        let mut fields = vec![
            ("schema", "mgnn-bench/v1".to_value()),
            ("cores", cores.to_value()),
            (
                "kernels",
                Value::obj([("matmul", Value::obj([("par_ms", matmul_ms.to_value())]))]),
            ),
            ("end_to_end", Value::obj([("speedup", speedup.to_value())])),
        ];
        if with_prov {
            fields.insert(
                1,
                (
                    "provenance",
                    Value::obj([
                        ("git_commit", Value::Null),
                        ("hostname", host.to_value()),
                        ("cores", cores.to_value()),
                    ]),
                ),
            );
        }
        Value::obj(fields)
    }

    #[test]
    fn absolute_floor_applies_regardless_of_provenance() {
        let base = bench_doc("a", 4, 1.2, 10.0, false);
        let bad = bench_doc("b", 4, 0.5, 10.0, false);
        let rep = diff_docs(&base, &bad).unwrap();
        assert!(rep.failed(), "speedup 0.5 must breach the floor");
        assert!(rep.breaches[0].contains("speedup"));
        // But relative rows were not enforced (no provenance).
        assert!(rep.warnings.iter().any(|w| w.contains("provenance")));
    }

    #[test]
    fn single_core_candidate_skips_the_floor() {
        let base = bench_doc("a", 1, 1.2, 10.0, true);
        let slow = bench_doc("a", 1, 0.5, 10.0, true);
        let rep = diff_docs(&base, &slow).unwrap();
        assert!(!rep.failed(), "single-core host cannot breach the floor");
        assert!(rep.warnings.iter().any(|w| w.contains("single-core")));
    }

    #[test]
    fn kernel_regression_breaches_only_on_same_host() {
        let base = bench_doc("ci-1", 8, 1.2, 10.0, true);
        let slow_same = bench_doc("ci-1", 8, 1.2, 20.0, true);
        let rep = diff_docs(&base, &slow_same).unwrap();
        assert!(rep.failed(), "2x kernel regression on the same host");
        assert!(rep.breaches[0].contains("matmul"));

        let slow_other = bench_doc("ci-2", 8, 1.2, 20.0, true);
        let rep = diff_docs(&base, &slow_other).unwrap();
        assert!(!rep.failed(), "cross-host milliseconds never breach");
        assert!(rep.warnings.iter().any(|w| w.contains("host mismatch")));
        // The row is still reported for context.
        assert!(rep.rows.iter().any(|r| r.contains("matmul")));
    }

    /// `bench_doc` with the set-up footprint columns set.
    fn with_build_bytes(mut doc: Value, live: u64, peak: u64) -> Value {
        let Value::Obj(fields) = &mut doc else {
            unreachable!("bench_doc is an object")
        };
        let e2e = fields.iter_mut().find(|(k, _)| k == "end_to_end").unwrap();
        e2e.1 = Value::obj([
            ("speedup", 1.2f64.to_value()),
            ("build_live_bytes", live.to_value()),
            ("build_peak_bytes", peak.to_value()),
        ]);
        doc
    }

    #[test]
    fn build_peak_growth_breaches_on_any_host() {
        let base = with_build_bytes(bench_doc("a", 4, 1.2, 10.0, true), 80, 100);
        let ok = with_build_bytes(bench_doc("b", 8, 1.2, 10.0, true), 85, 110);
        let rep = diff_docs(&base, &ok).unwrap();
        assert!(
            !rep.failed(),
            "10% is inside the tolerance: {:?}",
            rep.breaches
        );
        assert!(rep
            .rows
            .iter()
            .any(|r| r.contains("build_peak_bytes: 100 -> 110")));
        assert!(rep
            .rows
            .iter()
            .any(|r| r.contains("build_live_bytes: 80 -> 85")));

        let fat = with_build_bytes(bench_doc("b", 8, 1.2, 10.0, true), 80, 111);
        let rep = diff_docs(&base, &fat).unwrap();
        assert!(rep.failed(), "11% growth must breach, host mismatch or not");
        assert!(rep.breaches[0].contains("peak heap grew 1.110x"));
    }

    #[test]
    fn build_peak_check_needs_the_column_on_both_sides() {
        // Baselines older than the column (BENCH_PR3–5.json): skipped
        // without a word, whatever the candidate says.
        let old = bench_doc("a", 4, 1.2, 10.0, true);
        let new = with_build_bytes(bench_doc("a", 4, 1.2, 10.0, true), 80, 1_000_000);
        let rep = diff_docs(&old, &new).unwrap();
        assert!(!rep.failed());
        assert!(!rep.render().contains("build_peak_bytes"));
        // Zero means "counting allocator compiled out", on either side.
        let unmeasured = with_build_bytes(bench_doc("a", 4, 1.2, 10.0, true), 0, 0);
        assert!(!diff_docs(&unmeasured, &new).unwrap().failed());
        let rep = diff_docs(&new, &unmeasured).unwrap();
        assert!(!rep.failed());
        assert!(rep.warnings.iter().any(|w| w.contains("build_peak_bytes")));
    }

    #[test]
    fn schema_mismatch_and_unknown_schema_are_errors() {
        let bench = bench_doc("a", 4, 1.2, 10.0, true);
        let repro = Value::obj([("schema", "mgnn-repro/v1".to_value())]);
        assert!(diff_docs(&bench, &repro).is_err());
        let junk = Value::obj([("schema", "mgnn-junk/v9".to_value())]);
        assert!(diff_docs(&junk, &junk).is_err());
        let empty = Value::Obj(Vec::new());
        assert!(diff_docs(&empty, &empty).is_err());
    }

    fn repro_doc(makespan: f64) -> Value {
        Value::obj([
            ("schema", "mgnn-repro/v1".to_value()),
            (
                "experiments",
                Value::Arr(vec![Value::obj([
                    ("name", "fig6".to_value()),
                    (
                        "runs",
                        Value::Arr(vec![Value::obj([
                            ("label", "prefetch".to_value()),
                            ("report", Value::obj([("makespan_s", makespan.to_value())])),
                        ])]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn repro_makespan_regression_breaches_and_identity_passes() {
        let base = repro_doc(10.0);
        let same = repro_doc(10.0);
        let rep = diff_docs(&base, &same).unwrap();
        assert!(!rep.failed());
        assert!(rep.rows.iter().any(|r| r.contains("fig6/prefetch#0")));

        let slow = repro_doc(11.0);
        let rep = diff_docs(&base, &slow).unwrap();
        assert!(rep.failed(), "10% simulated-time regression must breach");
        assert!(rep.render().contains("BREACH"));
    }
}
