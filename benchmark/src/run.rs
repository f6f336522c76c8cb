//! `run`: every workload, both passes, one process per pass so peak RSS
//! and `MGNN_THREADS` belong to that workload alone.

use crate::host::Provenance;
use crate::output::{self, PassResult};
use crate::workloads;
use crate::Flags;
use serde::{Serialize, Value};
use std::process::Command;

/// Version tag of the merged document `run` writes and `compare` reads.
pub const SCHEMA: &str = "mgnn-benchmark/v1";

/// Re-execute this binary for one pass over one workload; its stdout and
/// stderr pass through. Returns the detail document it wrote.
fn child(workload: &str, flags: &Flags, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        // Each workload sets its own; an inherited value would leak into
        // the ones that leave it unset.
        .env_remove("MGNN_THREADS");
    if flags.quick {
        cmd.arg("--quick");
    }
    // `status` waits for the child, so none outlives this call.
    let status = cmd.status().map_err(|e| format!("spawning child: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            traced as u8
        ));
    }
    let path = output::out_dir().join(PassResult::detail_name(workload, traced));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run all workloads, print every metric, write the merged document.
/// `Ok(false)` when any output check failed.
pub fn run(flags: &Flags) -> Result<bool, String> {
    if flags.workload.is_some() || flags.trace {
        return Err("run takes --seed, --seconds, --quick and --out only".into());
    }
    let mut provenance = Provenance::start();
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for w in workloads::ALL {
        let e2e = child(w.name, flags, false)?;
        let layers = child(w.name, flags, true)?;
        for pass in [&e2e, &layers] {
            all_correct &= pass.get("correct").and_then(Value::as_bool) == Some(true);
        }
        per_workload.push((
            w.name,
            Value::obj([
                ("why", w.why.to_value()),
                ("end_to_end", e2e),
                ("per_layer", layers),
            ]),
        ));
    }
    provenance.finish();
    let doc = Value::obj([
        ("schema", SCHEMA.to_value()),
        ("seed", flags.seed.to_value()),
        ("quick", flags.quick.to_value()),
        ("correct", all_correct.to_value()),
        ("provenance", provenance.to_value()),
        ("workloads", Value::obj(per_workload)),
    ]);
    let name = format!(
        "run-seed{}{}.json",
        flags.seed,
        if flags.quick { "-quick" } else { "" }
    );
    let text = serde_json::to_string_pretty(&doc);
    let path = match &flags.out {
        Some(p) => std::fs::write(p, &text).map(|()| p.into()),
        None => output::write_out(&name, &text),
    }
    .map_err(|e| format!("writing the merged document: {e}"))?;
    println!(
        "{} · wrote {}{}",
        if all_correct {
            "all output checks passed"
        } else {
            "OUTPUT CHECK FAILED"
        },
        path.display(),
        if provenance.noisy_host() {
            " · noisy_host: load average exceeded the core count"
        } else {
            ""
        }
    );
    Ok(all_correct)
}
