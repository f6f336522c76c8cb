//! `repro` argument handling: a flag the CLI does not know (the removed
//! `--bench-out`/`--perf-guard`/`--policy` included, so a stale script
//! fails loudly instead of running `--experiment all`) or a size it cannot run must
//! exit 2 with the reason on stderr, before anything reaches stdout. A
//! size it can run, however odd, must run, and what it writes it has
//! read back.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_usage_on_stderr() {
    let rejected: [&[&str]; 7] = [
        &["--bench-out", "x"],
        &["--perf-guard"],
        // `--depth N` alone selects the lookahead study's depth.
        &["--policy", "lookahead"],
        &["--batch", "0"],
        // A zero-wide hidden layer is refused by `validate`; the tensor
        // kernel would panic on it in the first training step.
        &["--hidden", "0"],
        &["--depth", "0"],
        &["--no-such-flag"],
    ];
    for args in rejected {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?}: nothing on stderr");
        assert!(out.stdout.is_empty(), "{args:?}: wrote to stdout");
    }
}

/// `--depth` is a horizon, not an allocation: the planner sizes its ring
/// (and the queue) by the run, so a depth far past the run's end is the
/// whole run planned at once — it used to abort on a 480 GB allocation.
#[test]
fn a_depth_past_the_end_of_the_run_is_served() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--experiment", "lookahead", "--scale", "unit"])
        .args(["--depth", "4000000000"])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Lookahead(d=4000000000"), "{stdout}");
}

/// A traced heavy-chaos run correlates each pull's fault span with its
/// rpc span by a flow (`"ph":"s"` … `"ph":"f"`). Its report and traces
/// are written, each trace is listed in `index.json`, and the run exits 0.
#[test]
fn a_traced_heavy_chaos_run_writes_its_flow_events() {
    let dir = std::env::temp_dir().join(format!("cli-repro-chaos-{}", std::process::id()));
    let traces = dir.join("trace");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--experiment", "chaos", "--scale", "unit"])
        .args(["--fault-profile", "heavy"])
        .arg("--trace-out")
        .arg(&traces)
        .arg("--json-out")
        .arg(dir.join("run.json"))
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let report = std::fs::read_to_string(dir.join("run.json")).unwrap();
    assert!(report.contains(r#""schema": "mgnn-repro/v1""#));
    let index = std::fs::read_to_string(traces.join("index.json")).unwrap();
    let mut flows = 0;
    for entry in std::fs::read_dir(&traces).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".trace.json") {
            assert!(
                index.contains(&format!("\"{name}\"")),
                "{name} not in index.json"
            );
            let text = std::fs::read_to_string(traces.join(&name)).unwrap();
            flows += text.matches(r#""ph":"s""#).count();
        }
    }
    assert!(flows > 0, "no flow start event in {}", traces.display());
    std::fs::remove_dir_all(&dir).unwrap();
}
