//! Runs the benchmark end to end in `--quick` mode (one repetition, two
//! epochs, a 20-step drive), so an API change that breaks it fails here
//! in seconds rather than minutes into a capture.

use serde::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_mgnn-benchmark");

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: PathBuf) -> Value {
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn declared(doc: &Value, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_declaration_the_binary_prints() {
    let out = Command::new(BIN).arg("spec").output().expect("spawn");
    assert!(out.status.success());
    let printed = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let file = read_json(crate_dir().join("../BENCHMARK.json"));
    assert_eq!(
        file, printed,
        "BENCHMARK.json and benchmark/src/spec.rs + workloads.rs disagree; \
         `cargo run --manifest-path benchmark/Cargo.toml -- spec` prints the declaration"
    );
    for w in file.get("workloads").and_then(Value::as_array).unwrap() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
}

#[test]
fn quick_run_reports_every_declared_metric() {
    let status = Command::new(BIN)
        .args(["run", "--quick", "--seed", "42"])
        .env_remove("MGNN_THREADS")
        .status()
        .expect("spawn");
    assert!(status.success(), "run --quick failed its output check");

    let spec = read_json(crate_dir().join("../BENCHMARK.json"));
    let run = read_json(crate_dir().join("out/run-seed42-quick.json"));
    assert_eq!(run.get("correct").and_then(Value::as_bool), Some(true));

    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads.len(), 4);

    for w in workloads {
        for (pass, section) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let metrics = run
                .get("workloads")
                .and_then(|x| x.get(w))
                .and_then(|x| x.get(pass))
                .and_then(|x| x.get("metrics"))
                .unwrap_or_else(|| panic!("{w}: no {pass} metrics"));
            let mut want = declared(&spec, section);
            if pass == "end_to_end" {
                // Declared per-layer (they cannot carry a bound under the
                // driver's rules), shown by both passes.
                let per_layer = declared(&spec, "per_layer");
                for extra in [
                    "steps_per_s",
                    "cpu_ms_per_step",
                    "failed_ops_frac",
                    "sim_epoch_s",
                    "remote_mb_per_epoch",
                ] {
                    want.push(per_layer.iter().find(|(n, _)| n == extra).unwrap().clone());
                }
            }
            let got: BTreeSet<&str> = metrics
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let names: BTreeSet<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                got, names,
                "{w}/{pass}: metric names differ from BENCHMARK.json"
            );
            for (name, unit) in &want {
                let m = metrics.get(name).unwrap();
                let v = m.get("median").and_then(Value::as_f64);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{w}/{name}: not a finite number: {v:?}"
                );
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            }
        }
        let spans = read_json(crate_dir().join(format!("out/{w}.trace.json")));
        let spans = spans.get("spans").and_then(Value::as_array).unwrap();
        assert!(spans.len() > 20, "{w}: span file has {} spans", spans.len());
        for key in ["name", "layer", "step", "start_ns", "end_ns", "parent"] {
            assert!(spans[0].get(key).is_some(), "{w}: span without {key}");
        }
    }
}
