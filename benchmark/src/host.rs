//! What the host says about this process and itself: CPU time, peak
//! RSS, load, and the provenance recorded with every output.

use serde::{Serialize, Value};
use std::process::Command;

/// Linux reports `/proc/*/stat` times in USER_HZ ticks, which is 100 on
/// every architecture the kernel supports.
const TICKS_PER_S: f64 = 100.0;

/// utime + stime of this process (all threads, exited ones included) in
/// seconds, from `/proc/self/stat`. 0.0 where procfs is missing.
pub fn cpu_time_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / TICKS_PER_S
}

/// Peak resident set size of this process in MB (`VmHWM`), 0.0 where
/// procfs is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One-minute load average, 0.0 where procfs is missing.
pub fn load_avg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], dir: Option<&str>) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(d) = dir {
        cmd.current_dir(d);
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and on what a set of numbers was taken.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub git_commit: String,
    pub hostname: String,
    pub nproc: usize,
    pub mgnn_threads: String,
    pub pool_threads: usize,
    pub rustc: String,
    pub load_start: f64,
    pub load_end: f64,
}

impl Provenance {
    /// Capture at the start of a run; call [`finish`](Self::finish) at
    /// its end.
    pub fn start() -> Provenance {
        let load = load_avg_1m();
        Provenance {
            // A driver's checkout is not a git repository: "unknown" there.
            git_commit: command_line(
                "git",
                &["rev-parse", "HEAD"],
                Some(env!("CARGO_MANIFEST_DIR")),
            )
            .unwrap_or_else(|| "unknown".into()),
            hostname: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            nproc: nproc(),
            mgnn_threads: std::env::var("MGNN_THREADS").unwrap_or_else(|_| "unset".into()),
            pool_threads: rayon::current_num_threads(),
            rustc: command_line("rustc", &["-V"], None).unwrap_or_else(|| "unknown".into()),
            load_start: load,
            load_end: load,
        }
    }

    /// Record the load at the end of the run.
    pub fn finish(&mut self) {
        self.load_end = load_avg_1m();
    }

    /// More runnable tasks than cores at either end: wall numbers taken
    /// here competed for the processor.
    pub fn noisy_host(&self) -> bool {
        self.load_start.max(self.load_end) > self.nproc as f64
    }
}

impl Serialize for Provenance {
    fn to_value(&self) -> Value {
        Value::obj([
            ("git_commit", self.git_commit.to_value()),
            ("hostname", self.hostname.to_value()),
            ("nproc", self.nproc.to_value()),
            ("mgnn_threads", self.mgnn_threads.to_value()),
            ("pool_threads", self.pool_threads.to_value()),
            ("rustc", self.rustc.to_value()),
            ("load_avg_1m_start", self.load_start.to_value()),
            ("load_avg_1m_end", self.load_end.to_value()),
            ("noisy_host", self.noisy_host().to_value()),
        ])
    }
}
