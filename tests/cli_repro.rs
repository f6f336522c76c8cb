//! `repro` argument handling: a flag the CLI does not know (the removed
//! `--bench-out`/`--perf-guard` included, so a stale script fails loudly
//! instead of running `--experiment all`) or a size it cannot run must
//! exit 2 with the reason on stderr, before anything reaches stdout. A
//! size it can run, however odd, must run.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_usage_on_stderr() {
    let rejected: [&[&str]; 6] = [
        &["--bench-out", "x"],
        &["--perf-guard"],
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
