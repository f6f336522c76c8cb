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
//! ladder (empty files are skipped).
//!
//! Live telemetry: `--telemetry-port N` serves Prometheus text
//! exposition at `http://127.0.0.1:N/metrics` for the life of the
//! process (port 0 picks an ephemeral port, printed on stderr);
//! `--metrics-out FILE` writes one final exposition snapshot after all
//! experiments, no server required. Both perturb only wall-clock — every
//! report stays bitwise identical to a telemetry-off run.

use massivegnn::PrefetchPolicyKind;
use mgnn_bench::{experiments, figures::chaos, harness, Opts};
use mgnn_graph::{DatasetKind, Scale};
use mgnn_net::{Backend, FaultProfile};
use serde::{Serialize, Value};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: repro --experiment <{}|all> [--scale unit|small|bench] [--epochs N] [--batch N] \
         [--hidden N] [--full] [--seed N] [--trace-out DIR] [--json-out FILE] \
         [--policy scoreboard|lookahead] [--depth N] \
         [--fault-profile <{}>] [--fault-seed N] \
         [--telemetry-port N] [--metrics-out FILE] [--telemetry-linger-ms N]",
        experiments::names().join("|"),
        FaultProfile::NAMES.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<String> = None;
    let mut opts = Opts::standard();
    let mut trace_out: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut telemetry_port: Option<u16> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut telemetry_linger_ms = 0u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--experiment" | "-e" => {
                i += 1;
                experiment = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(String::as_str) {
                    Some("unit") => Scale::Unit,
                    Some("small") => Scale::Small,
                    Some("bench") => Scale::Bench,
                    _ => usage(),
                };
            }
            "--epochs" => {
                i += 1;
                opts.epochs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--batch" => {
                i += 1;
                opts.batch_size = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--hidden" => {
                i += 1;
                opts.hidden_dim = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(PathBuf::from(
                    args.get(i).cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--json-out" => {
                i += 1;
                json_out = Some(PathBuf::from(
                    args.get(i).cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--policy" => {
                i += 1;
                opts.policy = match args.get(i).map(String::as_str) {
                    Some("scoreboard") => PrefetchPolicyKind::Scoreboard,
                    Some("lookahead") => {
                        // Keep a --depth seen earlier on the line; the
                        // default is the shortest window, depth 1.
                        let depth = match opts.policy {
                            PrefetchPolicyKind::Lookahead { depth } => depth,
                            PrefetchPolicyKind::Scoreboard => 1,
                        };
                        PrefetchPolicyKind::Lookahead { depth }
                    }
                    _ => usage(),
                };
            }
            "--depth" => {
                i += 1;
                let depth: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|d| *d >= 1)
                    .unwrap_or_else(|| usage());
                opts.policy = PrefetchPolicyKind::Lookahead { depth };
            }
            "--fault-profile" => {
                i += 1;
                let name = args.get(i).cloned().unwrap_or_else(|| usage());
                if FaultProfile::named(&name, 0).is_none() {
                    eprintln!("unknown fault profile: {name}");
                    usage()
                }
                opts.fault_profile = Some(name);
            }
            "--fault-seed" => {
                i += 1;
                opts.fault_seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--telemetry-port" => {
                i += 1;
                telemetry_port = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(PathBuf::from(
                    args.get(i).cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--telemetry-linger-ms" => {
                i += 1;
                telemetry_linger_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--full" => opts.full = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
        i += 1;
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
        let server = mgnn_obs::ScrapeServer::start(port).unwrap_or_else(|e| {
            eprintln!("cannot bind scrape server on port {port}: {e}");
            std::process::exit(1)
        });
        eprintln!(
            "[telemetry: serving /metrics on http://{}]",
            server.local_addr()
        );
        server
    });
    if let Some(dir) = &trace_out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1)
        });
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
                    let text = mgnn_obs::export::perfetto_trace_string(&cap.traces);
                    write_or_die(&dir.join(&file), &text);
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
        let index = serde_json::to_string_pretty(&Value::obj([("traces", Value::Arr(index_rows))]));
        write_or_die(&dir.join("index.json"), &index);
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
        write_or_die(file, &serde_json::to_string_pretty(&doc));
        eprintln!("[reports written to {}]", file.display());
    }
    if chaos_diverged {
        eprintln!("chaos verdict: degraded run's loss diverged beyond tolerance");
        std::process::exit(1);
    }
}

fn write_or_die(path: &std::path::Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1)
    }
}
