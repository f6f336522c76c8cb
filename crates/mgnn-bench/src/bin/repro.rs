//! Reproduction CLI: regenerate any table or figure of the paper.
//!
//! ```bash
//! cargo run --release -p mgnn-bench --bin repro -- --experiment fig6
//! cargo run --release -p mgnn-bench --bin repro -- --experiment all --scale small
//! cargo run --release -p mgnn-bench --bin repro -- --experiment table4 --full
//! cargo run --release -p mgnn-bench --bin repro -- --experiment fig8 \
//!     --trace-out /tmp/trace --json-out /tmp/run.json
//! ```
//!
//! `--json-out FILE` writes every engine run's full `RunReport` as JSON;
//! `--trace-out DIR` additionally enables span tracing and writes one
//! Chrome/Perfetto `*.trace.json` per run (open at <https://ui.perfetto.dev>)
//! plus an `index.json` mapping files to experiments and one
//! `*-events.jsonl` per experiment with the request-correlated fault
//! ladder (empty files are skipped). Every JSON document is read back
//! before it is written: one that does not parse to the tree it came
//! from (a NaN or ∞ reads back as `null`) is not written, and `repro`
//! exits 1 naming its path.
//!
//! Live telemetry: `--telemetry-port N` serves Prometheus text
//! exposition at `http://127.0.0.1:N/metrics` for the life of the
//! process (port 0 picks an ephemeral port, printed on stderr);
//! `--metrics-out FILE` writes one final exposition snapshot after all
//! experiments, no server required. Both perturb only wall-clock — every
//! report stays bitwise identical to a telemetry-off run.

use mgnn_bench::{experiments, figures::chaos, harness, Opts};
use mgnn_graph::{DatasetKind, Scale};
use mgnn_net::{Backend, FaultProfile};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::str::FromStr;

fn usage() -> ! {
    eprintln!(
        "usage: repro --experiment <{}|all> [--scale unit|small|bench] [--epochs N] [--batch N] \
         [--hidden N] [--full] [--seed N] [--trace-out DIR] [--json-out FILE] [--depth N] \
         [--fault-profile <{}>] [--fault-seed N] \
         [--telemetry-port N] [--metrics-out FILE] [--telemetry-linger-ms N]",
        experiments::names().join("|"),
        FaultProfile::NAMES.join("|")
    );
    std::process::exit(2)
}

/// The value after a flag, parsed; usage if it is missing or does not
/// parse.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut experiment: Option<String> = None;
    let mut opts = Opts::default();
    let mut trace_out: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut telemetry_port: Option<u16> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut telemetry_linger_ms = 0u64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--experiment" | "-e" => experiment = Some(value(&mut args)),
            "--scale" => {
                opts.scale = match value::<String>(&mut args).as_str() {
                    "unit" => Scale::Unit,
                    "small" => Scale::Small,
                    "bench" => Scale::Bench,
                    _ => usage(),
                }
            }
            "--epochs" => opts.epochs = value(&mut args),
            "--batch" => opts.batch_size = value(&mut args),
            "--hidden" => opts.hidden_dim = value(&mut args),
            "--seed" => opts.seed = value(&mut args),
            "--trace-out" => trace_out = Some(value(&mut args)),
            "--json-out" => json_out = Some(value(&mut args)),
            "--depth" => {
                let depth: usize = value(&mut args);
                if depth == 0 {
                    usage()
                }
                opts.depth = Some(depth);
            }
            "--fault-profile" => {
                let name: String = value(&mut args);
                if FaultProfile::named(&name, 0).is_none() {
                    eprintln!("unknown fault profile: {name}");
                    usage()
                }
                opts.fault_profile = Some(name);
            }
            "--fault-seed" => opts.fault_seed = value(&mut args),
            "--telemetry-port" => telemetry_port = Some(value(&mut args)),
            "--metrics-out" => metrics_out = Some(value(&mut args)),
            "--telemetry-linger-ms" => telemetry_linger_ms = value(&mut args),
            "--full" => opts.full = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }

    // Reject a bad size option here, with its reason, before any
    // experiment generates a dataset for it (`--depth` is checked above).
    let probe = harness::engine_config(&opts, DatasetKind::Products, Backend::Cpu, 2);
    if let Err(problem) = probe.validate() {
        eprintln!("invalid options: {problem}");
        std::process::exit(2)
    }

    let experiment = experiment.unwrap_or_else(|| String::from("all"));
    let list: Vec<&experiments::Experiment> = if experiment == "all" {
        experiments::ALL.iter().collect()
    } else if let Some(e) = experiments::find(&experiment) {
        vec![e]
    } else {
        eprintln!("unknown experiment: {experiment}");
        usage()
    };

    // Spans are only worth recording when there is somewhere to write
    // them; reports alone (--json-out) keep the no-op fast path.
    opts.trace = trace_out.is_some();
    // Telemetry arms the registry inside every engine run; either flag
    // implies it (a scrape server with nothing mirrored would read 0s).
    opts.telemetry = telemetry_port.is_some() || metrics_out.is_some();
    let capture = trace_out.is_some() || json_out.is_some();
    if capture {
        mgnn_obs::sink::install();
    }
    if trace_out.is_some() {
        // Correlated fault-ladder events ride along with span traces.
        mgnn_obs::events::install();
    }
    let scrape = telemetry_port.map(|port| {
        let server = mgnn_obs::ScrapeServer::start(port)
            .unwrap_or_else(|e| die(format!("cannot bind scrape server on port {port}: {e}")));
        eprintln!(
            "[telemetry: serving /metrics on http://{}]",
            server.local_addr()
        );
        server
    });
    if let Some(dir) = &trace_out {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(format!("cannot create {}: {e}", dir.display())));
    }

    let mut experiment_values: Vec<Value> = Vec::new();
    let mut index_rows: Vec<Value> = Vec::new();
    let mut chaos_diverged = false;
    for exp in list {
        let t0 = std::time::Instant::now();
        let rendered = (exp.run)(&opts);
        println!("{rendered}");
        // The chaos experiment gates CI: a degraded run whose loss left
        // the tolerance band marks its verdict line and fails the CLI.
        chaos_diverged |= rendered.contains(chaos::DIVERGED_MARKER);
        eprintln!("[{} took {:.1?}]\n", exp.name, t0.elapsed());
        if !capture {
            continue;
        }
        let captures = mgnn_obs::sink::drain();
        if let Some(dir) = &trace_out {
            let events = mgnn_obs::events::drain();
            if !events.is_empty() {
                let file = format!("{}-events.jsonl", exp.name);
                write_or_die(&dir.join(file), &mgnn_obs::events::to_jsonl(&events));
            }
        }
        let mut run_values: Vec<Value> = Vec::new();
        for (seq, cap) in captures.iter().enumerate() {
            if let Some(dir) = &trace_out {
                if !cap.traces.is_empty() {
                    let file = format!("{}-{seq:03}.trace.json", exp.name);
                    let trace = mgnn_obs::export::perfetto_trace(&cap.traces);
                    write_json(&dir.join(&file), &trace, false).unwrap_or_else(|msg| die(msg));
                    index_rows.push(Value::obj([
                        ("file", file.to_value()),
                        ("experiment", exp.name.to_value()),
                        ("label", cap.label.to_value()),
                        ("seq", (seq as u64).to_value()),
                    ]));
                }
            }
            run_values.push(Value::obj([
                ("label", cap.label.to_value()),
                ("report", cap.report.clone()),
            ]));
        }
        experiment_values.push(Value::obj([
            ("name", exp.name.to_value()),
            ("about", exp.about.to_value()),
            ("runs", Value::Arr(run_values)),
        ]));
    }

    if capture {
        mgnn_obs::sink::uninstall();
    }
    if trace_out.is_some() {
        mgnn_obs::events::uninstall();
    }
    // Hold the scrape server open so an external scraper (CI smoke, a
    // real Prometheus) can read the finished run's totals.
    if telemetry_linger_ms > 0 && scrape.is_some() {
        eprintln!("[telemetry: lingering {telemetry_linger_ms} ms for scrapes]");
        std::thread::sleep(std::time::Duration::from_millis(telemetry_linger_ms));
    }
    if let Some(file) = &metrics_out {
        write_or_die(file, &mgnn_obs::prom::render());
        eprintln!("[metrics snapshot written to {}]", file.display());
    }
    if let Some(server) = scrape {
        server.shutdown();
    }
    if let Some(dir) = &trace_out {
        let index = Value::obj([("traces", Value::Arr(index_rows))]);
        write_json(&dir.join("index.json"), &index, true).unwrap_or_else(|msg| die(msg));
        eprintln!("[traces written to {}]", dir.display());
    }
    if let Some(file) = &json_out {
        let doc = Value::obj([
            ("schema", "mgnn-repro/v1".to_value()),
            ("scale", format!("{:?}", opts.scale).to_value()),
            ("seed", opts.seed.to_value()),
            (
                "fault_profile",
                opts.fault_profile
                    .as_deref()
                    .map_or(Value::Null, |p| p.to_value()),
            ),
            ("fault_seed", opts.fault_seed.to_value()),
            ("experiments", Value::Arr(experiment_values)),
        ]);
        write_json(file, &doc, true).unwrap_or_else(|msg| die(msg));
        eprintln!("[reports written to {}]", file.display());
    }
    if chaos_diverged {
        eprintln!("chaos verdict: degraded run's loss diverged beyond tolerance");
        std::process::exit(1);
    }
}

fn die(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

fn write_or_die(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        die(format!("cannot write {}: {e}", path.display()))
    }
}

/// Write `doc` as JSON (pretty or compact) only if the text parses back
/// to `doc` itself; otherwise write nothing and say which file it was.
fn write_json(path: &Path, doc: &Value, pretty: bool) -> Result<(), String> {
    let text = if pretty {
        serde_json::to_string_pretty(doc)
    } else {
        serde_json::to_string(doc)
    };
    if serde_json::from_str(&text).ok().as_ref() != Some(doc) {
        return Err(format!(
            "{} does not read back as the document it renders; not written",
            path.display()
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_document_that_does_not_read_back_is_not_written() {
        let dir = std::env::temp_dir().join(format!("repro-write-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = Value::obj([("makespan_s", Value::F64(1.5)), ("world", Value::U64(4))]);
        let bad = Value::obj([
            ("makespan_s", Value::F64(f64::NAN)),
            ("world", Value::U64(4)),
        ]);
        for pretty in [false, true] {
            let path = dir.join(format!("bad-{pretty}.json"));
            let err = write_json(&path, &bad, pretty).unwrap_err();
            assert!(err.contains(&path.display().to_string()), "{err}");
            assert!(!path.exists(), "a refused document was written");
            let path = dir.join(format!("good-{pretty}.json"));
            write_json(&path, &good, pretty).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(serde_json::from_str(&text), Ok(good.clone()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
