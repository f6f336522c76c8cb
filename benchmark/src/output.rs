//! What one pass over one workload prints and writes.

use crate::host::Provenance;
use crate::measure::{Check, Measured};
use crate::spec;
use crate::stats::Summary;
use serde::{Serialize, Value};
use std::path::PathBuf;

/// Where span files and detail documents go: `benchmark/out/`, resolved
/// from the crate's own location so it does not depend on the caller's
/// working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `text` to `out/<name>`, creating the directory.
pub fn write_out(name: &str, text: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Declared unit of a metric.
fn unit_of(name: &str) -> &'static str {
    spec::find(name).map_or("?", |s| s.unit)
}

impl Serialize for Summary {
    fn to_value(&self) -> Value {
        Value::obj([
            ("median", self.median.to_value()),
            ("min", self.min.to_value()),
            ("max", self.max.to_value()),
            ("q1", self.q1.to_value()),
            ("q3", self.q3.to_value()),
            ("raw", self.raw.to_value()),
        ])
    }
}

/// The result of one pass (`--trace 0` or `--trace 1`) over one workload.
pub struct PassResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    pub metrics: Vec<Measured>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Sizes and raw timings worth keeping next to the metrics.
    pub info: Vec<(&'static str, Value)>,
    pub provenance: Provenance,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn pass_name(&self) -> &'static str {
        if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        }
    }

    /// Name of the detail document under `out/`.
    pub fn detail_name(workload: &str, traced: bool) -> String {
        format!(
            "{workload}.{}.json",
            if traced { "per_layer" } else { "end_to_end" }
        )
    }

    /// Every metric by name with its unit, then the check verdicts.
    pub fn print_human(&self) {
        println!(
            "== {} · {} · seed {}{} ==",
            self.workload,
            self.pass_name(),
            self.seed,
            if self.quick { " · quick" } else { "" }
        );
        for m in &self.metrics {
            let unit = unit_of(m.name);
            let s = &m.summary;
            if s.raw.len() > 1 {
                println!(
                    "  {:<48} {:>14.6} {:<8} (n={} min {:.6} q1 {:.6} q3 {:.6} max {:.6})",
                    m.name,
                    s.median,
                    unit,
                    s.raw.len(),
                    s.min,
                    s.q1,
                    s.q3,
                    s.max
                );
            } else {
                println!("  {:<48} {:>14.6} {:<8}", m.name, s.median, unit);
            }
        }
        for c in &self.checks {
            println!(
                "  check {:<32} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
    }

    /// The full record: metrics with their repetitions, checks, sizes and
    /// provenance. `run` merges these; `compare` reads the merged form.
    pub fn detail(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let unit = unit_of(m.name);
            let mut fields = vec![
                ("unit".to_string(), unit.to_value()),
                ("source".to_string(), m.source.tag().to_value()),
            ];
            if let Value::Obj(s) = m.summary.to_value() {
                fields.extend(s);
            }
            (m.name, Value::Obj(fields))
        });
        Value::obj([
            ("workload", self.workload.to_value()),
            ("pass", self.pass_name().to_value()),
            ("seed", self.seed.to_value()),
            ("quick", self.quick.to_value()),
            ("correct", self.correct().to_value()),
            ("attempted", self.attempted.to_value()),
            ("failed", self.failed.to_value()),
            ("metrics", Value::obj(metrics)),
            (
                "checks",
                Value::arr(self.checks.iter().map(|c| {
                    Value::obj([
                        ("name", c.name.to_value()),
                        ("ok", c.ok.to_value()),
                        ("detail", c.detail.to_value()),
                    ])
                })),
            ),
            ("info", Value::obj(self.info.iter().cloned())),
            ("provenance", self.provenance.to_value()),
        ])
    }

    /// The one-line result the accepting driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the last holding the metrics
    /// `BENCHMARK.json` declares for this pass and no others.
    pub fn contract_line(&self) -> String {
        let declared = spec::declared_for(self.traced);
        let metrics = declared.iter().filter_map(|d| {
            let m = self.metrics.iter().find(|m| m.name == d.name)?;
            Some((
                d.name,
                Value::obj([
                    ("value", m.summary.median.to_value()),
                    ("unit", d.unit.to_value()),
                ]),
            ))
        });
        serde_json::to_string(&Value::obj([
            ("correct", self.correct().to_value()),
            ("attempted", self.attempted.max(1).to_value()),
            ("failed", self.failed.to_value()),
            ("metrics", Value::obj(metrics)),
        ]))
    }
}
