//! `compare A.json B.json`: one row per workload × end-to-end metric,
//! with both medians, the ratio and its base, and a verdict against the
//! benchmark's own bounds.

use crate::spec::{self, Better, MetricSpec};
use serde::Value;

/// What `compare` says about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// Run-to-run spread (quartile distance of the repetitions) is wider
    /// than the bound: the two medians cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartile spread of one metric in one document.
#[derive(Debug, Clone, Copy)]
struct Side {
    median: f64,
    spread: f64,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    let delta = match spec.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// The share of `a`'s median `spec` may worsen by. `setup_s` gets at
/// least [`spec::SETUP_ABS_BOUND_S`] seconds of room.
fn allowed(spec: &MetricSpec, a: f64) -> f64 {
    let bound = spec.bound.unwrap_or(0.0);
    if spec.name == "setup_s" && a > 0.0 {
        bound.max(spec::SETUP_ABS_BOUND_S / a)
    } else {
        bound
    }
}

fn verdict(spec: &MetricSpec, a: Side, b: Side) -> Verdict {
    if spec.name == spec::FAILED_OPS_FRAC {
        // Expected to be exactly 0: an absolute bound, and no spread.
        let rise = b.median - a.median;
        return if rise > spec::FAILED_OPS_ABS_BOUND {
            Verdict::Worse
        } else if rise < -spec::FAILED_OPS_ABS_BOUND {
            Verdict::Better
        } else {
            Verdict::WithinBound
        };
    }
    let bound = allowed(spec, a.median);
    let w = worsening(spec, a.median, b.median);
    if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The `metrics` object of one pass over one workload.
fn metrics_of<'a>(doc: &'a Value, workload: &str, pass: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")
}

fn metric<'a>(doc: &'a Value, workload: &str, pass: &str, name: &str) -> Option<&'a Value> {
    metrics_of(doc, workload, pass)?.get(name)
}

fn side(m: &Value) -> Option<Side> {
    let f = |k: &str| m.get(k).and_then(Value::as_f64);
    let median = f("median")?;
    let spread = if median == 0.0 {
        0.0
    } else {
        (f("q3")? - f("q1")?).abs() / median.abs()
    };
    Some(Side { median, spread })
}

fn workload_names(doc: &Value) -> Vec<String> {
    doc.get("workloads")
        .and_then(Value::as_object)
        .map(|o| o.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

/// Compare two parsed `run` documents. Returns the printed rows'
/// verdicts and the names of `[R]` metrics that are not bit-equal.
fn compare_docs(a: &Value, b: &Value) -> Result<(Vec<Verdict>, Vec<String>), String> {
    for (label, doc) in [("A", a), ("B", b)] {
        if doc.get("schema").and_then(Value::as_str) != Some(crate::run::SCHEMA) {
            return Err(format!("{label}: not a {} document", crate::run::SCHEMA));
        }
    }
    let names = workload_names(a);
    if names != workload_names(b) || names.is_empty() {
        return Err("the two documents do not hold the same workloads".into());
    }
    let seeds = (a.get("seed"), b.get("seed"));
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "spread", "bound"
    );
    // Everything end to end that carries a bound, relative or absolute.
    let judged: Vec<&MetricSpec> = spec::END_TO_END
        .iter()
        .chain(spec::END_TO_END_UNBOUNDED)
        .filter(|m| m.bound.is_some() || m.name == spec::FAILED_OPS_FRAC)
        .collect();
    let mut verdicts = Vec::new();
    for w in &names {
        for &spec in &judged {
            let get = |doc| {
                metric(doc, w, "end_to_end", spec.name)
                    .and_then(side)
                    .ok_or_else(|| format!("{w}: {} missing", spec.name))
            };
            let (sa, sb) = (get(a)?, get(b)?);
            let v = verdict(spec, sa, sb);
            let bound = if spec.name == spec::FAILED_OPS_FRAC {
                format!("{} abs", spec::FAILED_OPS_ABS_BOUND)
            } else {
                format!("{:.1}%", allowed(spec, sa.median) * 100.0)
            };
            println!(
                "{:<22} {:<20} {:>14.6} {:>14.6} {:>9.4} {:>7.1}% {:>7}  {}",
                w,
                spec.name,
                sa.median,
                sb.median,
                if sa.median == 0.0 {
                    1.0
                } else {
                    sb.median / sa.median
                },
                sa.spread.max(sb.spread) * 100.0,
                bound,
                v.as_str()
            );
            verdicts.push(v);
        }
    }

    // Same seed: everything taken from a RunReport must be bit-equal.
    let mut unequal = Vec::new();
    let mut compared = 0usize;
    if seeds.0 == seeds.1 {
        for w in &names {
            for pass in ["end_to_end", "per_layer"] {
                let Some(metrics) = metrics_of(a, w, pass).and_then(Value::as_object) else {
                    continue;
                };
                for (name, ma) in metrics {
                    if ma.get("source").and_then(Value::as_str) != Some("R") {
                        continue;
                    }
                    compared += 1;
                    let mb = metric(b, w, pass, name);
                    if mb.and_then(|m| m.get("median")) != ma.get("median") {
                        unequal.push(format!("{w}/{name}"));
                    }
                }
            }
        }
        println!(
            "exact metrics (same seed): {compared} compared, {} differ{}",
            unequal.len(),
            if unequal.is_empty() {
                String::new()
            } else {
                format!(": {}", unequal.join(", "))
            }
        );
    } else {
        println!("exact metrics: not compared (seeds differ)");
    }
    Ok((verdicts, unequal))
}

/// Read, compare, print. `Ok(false)` on any `worse` row.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (verdicts, _) = compare_docs(&read(a)?, &read(b)?)?;
    let count = |v| verdicts.iter().filter(|&&x| x == v).count();
    println!(
        "{} better, {} within-bound, {} worse, {} unresolved",
        count(Verdict::Better),
        count(Verdict::WithinBound),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Worse) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let rate = spec::find("steps_per_s").unwrap(); // higher is better
        let b = rate.bound.unwrap();
        let at = |share: f64| s(100.0 * (1.0 + share), 0.01);
        assert_eq!(verdict(rate, at(0.0), at(-b - 0.05)), Verdict::Worse);
        assert_eq!(verdict(rate, at(0.0), at(-b / 2.0)), Verdict::WithinBound);
        assert_eq!(verdict(rate, at(0.0), at(b + 0.05)), Verdict::Better);
        assert_eq!(
            verdict(rate, s(100.0, b + 0.01), at(-b - 0.05)),
            Verdict::Unresolved
        );
        let cpu = spec::find("cpu_ms_per_step").unwrap(); // lower is better
        let b = cpu.bound.unwrap();
        assert_eq!(
            verdict(cpu, s(10.0, 0.0), s(10.0 * (1.0 + b) + 0.5, 0.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(cpu, s(10.0, 0.0), s(10.0 * (1.0 - b) - 0.5, 0.0)),
            Verdict::Better
        );
    }

    #[test]
    fn setup_gets_absolute_room_and_failed_ops_an_absolute_bound() {
        let setup = spec::find("setup_s").unwrap();
        // 0.05 s -> 0.12 s is +140 %, but within 0.1 s.
        assert_eq!(
            verdict(setup, s(0.05, 0.0), s(0.12, 0.0)),
            Verdict::WithinBound
        );
        assert_eq!(verdict(setup, s(1.0, 0.0), s(1.5, 0.0)), Verdict::Worse);
        let failed = spec::find(spec::FAILED_OPS_FRAC).unwrap();
        assert_eq!(
            verdict(failed, s(0.0, 0.0), s(0.001, 0.0)),
            Verdict::WithinBound
        );
        assert_eq!(verdict(failed, s(0.0, 0.0), s(0.01, 0.0)), Verdict::Worse);
    }
}
