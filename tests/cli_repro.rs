//! `repro` argument handling: a flag the CLI does not know (the removed
//! `--bench-out`/`--perf-guard` included, so a stale script fails loudly
//! instead of running `--experiment all`) or a size it cannot run must
//! exit 2 with the reason on stderr, before anything reaches stdout.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_usage_on_stderr() {
    let rejected: [&[&str]; 5] = [
        &["--bench-out", "x"],
        &["--perf-guard"],
        &["--batch", "0"],
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
