//! The repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! mgnn-benchmark run [--seed S] [--quick] [--seconds N] [--out FILE]
//! mgnn-benchmark compare A.json B.json
//! mgnn-benchmark spec
//! mgnn-benchmark --workload NAME --seed S --seconds N --trace 0|1 [--quick]
//! ```
//!
//! The last form measures one workload in this process and is what `run`
//! re-executes per workload and what `BENCHMARK.json`'s command invokes.

mod compare;
mod drive;
mod host;
mod layers;
mod measure;
mod output;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use measure::Check;
use output::PassResult;
use serde::Serialize;
use std::process::ExitCode;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage:
  mgnn-benchmark run [--seed S] [--quick] [--seconds N] [--out FILE]
  mgnn-benchmark compare A.json B.json
  mgnn-benchmark spec            (what BENCHMARK.json must declare)
  mgnn-benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--quick]
workloads: sage-math-threaded papers-pipeline reddit-baseline-rpc chaos-lookahead";

/// Flags shared by `run` and the single-workload form.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    /// `run`: where the merged document goes instead of `out/`.
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => f.workload = Some(value("--workload")?),
            "--seed" => {
                f.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                f.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                f.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => f.quick = true,
            "--out" => f.out = Some(value("--out")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(f)
}

/// Measure one workload in this process and print its result. A failed
/// output check is part of the result (`"correct": false`), not an error
/// of this form; `run` turns it into a non-zero exit.
fn single(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    if flags.out.is_some() {
        return Err("--out belongs to run".into());
    }
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    // Before anything touches the kernel pool: it reads the variable once.
    if let Some(t) = w.mgnn_threads {
        std::env::set_var("MGNN_THREADS", t);
    }
    let mut provenance = host::Provenance::start();
    let stop = if flags.quick {
        measure::Stop::AfterReps(1)
    } else {
        measure::Stop::AfterSeconds(flags.seconds as f64)
    };
    let (mut metrics, mut checks, attempted, failed, info) = if flags.trace {
        let l = layers::per_layer(w, flags.seed, flags.quick)?;
        (l.metrics, l.checks, l.attempted, l.failed, l.info)
    } else {
        let e = measure::end_to_end(w, flags.seed, stop, flags.quick);
        let info = vec![
            ("steps_per_repetition", e.steps.to_value()),
            ("repetitions", e.reps.to_value()),
            (
                "epochs",
                w.config(flags.seed, flags.quick).epochs.to_value(),
            ),
            ("world", e.report.world.to_value()),
            ("run_s", e.run_s.to_value()),
            ("build_s", e.build_s.to_value()),
        ];
        (e.metrics, e.checks, e.attempted, e.failed, info)
    };
    let declared = spec::declared_for(flags.trace);
    let bad: Vec<&str> = declared
        .iter()
        .map(|d| d.name)
        .filter(|n| {
            !metrics
                .iter()
                .any(|m| m.name == *n && m.summary.median.is_finite())
        })
        .collect();
    checks.push(Check::new(
        "metrics_present_and_finite",
        bad.is_empty(),
        format!("missing or non-finite: {bad:?}"),
    ));
    provenance.finish();
    metrics.sort_by_key(|m| spec::order(m.name));

    let result = PassResult {
        workload: w.name,
        seed: flags.seed,
        traced: flags.trace,
        quick: flags.quick,
        metrics,
        checks,
        attempted,
        failed,
        info,
        provenance,
    };
    result.print_human();
    output::write_out(
        &PassResult::detail_name(w.name, flags.trace),
        &serde_json::to_string_pretty(&result.detail()),
    )
    .map_err(|e| format!("writing detail: {e}"))?;
    println!("{}", result.contract_line());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| run::run(&f)),
        Some("compare") if args.len() == 3 => compare::compare_files(&args[1], &args[2]),
        Some("spec") if args.len() == 1 => {
            println!("{}", serde_json::to_string_pretty(&spec::declaration()));
            Ok(true)
        }
        Some(a) if a.starts_with("--") => parse_flags(&args).and_then(|f| single(&f)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
