//! Every `pub fn` serves traffic. A `pub fn` / `pub(crate) fn` in the
//! non-test text of `crates/*/src` must be named somewhere else in that
//! text (the two binaries included), in `examples/` or in
//! `benchmark/src` — or be listed in `ORACLES` with the reached code it
//! checks. It is a floor, not a proof: a name shared with a reached
//! function passes, and a caller that is itself unreached hides its
//! callees until it is deleted and the test re-run.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Functions nothing but tests call, kept because a test checks reached
/// code against them: (name, what it is the oracle or probe for).
const ORACLES: &[(&str, &str)] = &[
    // mgnn-net
    (
        "round_trip",
        "the bf16 rounding every pulled row (`wire::encode_row` → `decode_row`) is compared with",
    ),
    (
        "advance_overlapped",
        "Eq. 5's `max(t_prepare, t_DDP)` in one call: what a `PipelineClock::step_timed` step settles to, never above the serial sum",
    ),
    (
        "pooled_buffers",
        "free-list probe: a thousand `SimCluster::pull_rows` leave one receive buffer per touched partition",
    ),
    // mgnn-graph / mgnn-partition
    (
        "is_symmetric",
        "checks that `GraphBuilder::build` and every generator emit an undirected graph",
    ),
    (
        "sbm",
        "planted-partition fixture `multilevel_partition`, `bfs_partition` and `refine` must recover",
    ),
    (
        "balance",
        "the ε-balance `multilevel_partition` is held to (`balanced_within_tolerance`)",
    ),
    (
        "weighted_cut",
        "the cut `multilevel::refine` must never increase, measured before and after",
    ),
    // mgnn-tensor
    (
        "transpose",
        "explicit transpose the fused `t_matmul` / `matmul_t` kernels are checked against",
    ),
    (
        "forward_inference",
        "cache-free forward that `Linear::backward`'s finite differences and `GatLayer::forward`'s self-attention check evaluate",
    ),
    // massivegnn
    (
        "increment",
        "serial reference of `AccessScores::increment_batch` (both layouts, both size paths)",
    ),
    (
        "decay",
        "serial reference of `EvictionScores::decay_or_reset_prefix`",
    ),
    (
        "occupied",
        "buffer-membership probe for `initialize_prefetcher` and the evict-and-replace rounds of `prepare`",
    ),
    (
        "t_prefetch_first",
        "the paper's Eq. 4, the first-batch cost `t_prefetch_steady` (Eq. 5, reached) may never exceed",
    ),
    (
        "improvement_factor",
        "the paper's Eq. 6 in full, which `improvement_factor_simplified` (figures/perfmodel.rs) must track within 20 %",
    ),
    (
        "compounded_prepare",
        "the paper's Eq. 7 with its worked example (10 % × 10 intervals); perfmodel.rs is Eqs. 2–7 kept whole",
    ),
    (
        "perfect_overlap",
        "the paper's perfect-overlap condition, under which `t_prefetch_steady` (reached) must collapse to `t_DDP`",
    ),
    (
        "live_bytes",
        "alloc-count probe: resident heap after `Engine::build` (tests/setup_memory.rs, run_memory.rs)",
    ),
    (
        "reset_peak",
        "alloc-count probe: restarts the high-water mark `Engine::build` / `run` are bounded by",
    ),
    (
        "global_hot",
        "alloc-count probe: hot-step allocations summed over trainer threads (`steady_state_steps_allocate_nothing`)",
    ),
    (
        "reset_global_hot",
        "alloc-count probe: zeroes `global_hot` before the measured run of `Engine::run`",
    ),
    // mgnn-bench
    (
        "assert_trace_consistent",
        "reconciles a traced `Engine::run`'s spans with its `RunReport` (tests/integration_obs.rs)",
    ),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `text` as code only: no `//` comments, no string or char literal
/// contents (a panic message is not a caller) and no `use` declarations
/// (nor is a re-export); with `non_test`, only the lines before the first
/// `#[cfg(test)]` (CI's line-count rule). The workspace has no raw
/// strings or block comments, so neither is lexed.
fn code_of(text: &str, non_test: bool) -> String {
    let text = match text.find("#[cfg(test)]") {
        Some(at) if non_test => &text[..at],
        _ => text,
    };
    let b = text.as_bytes();
    let mut bare = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let rest = &b[i..];
        if rest.starts_with(b"//") {
            i += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
        } else if rest[0] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
        } else if rest[0] == b'\'' && rest.get(2) == Some(&b'\'') {
            i += 3;
        } else if rest[0] == b'\'' && rest.get(1) == Some(&b'\\') {
            // An escaped char literal; any other `'` opens a lifetime.
            i += 3;
            while i < b.len() && b[i] != b'\'' {
                i += 1;
            }
            i += 1;
        } else {
            bare.push(rest[0]);
            i += 1;
        }
    }
    let bare = String::from_utf8(bare).expect("only ASCII-delimited runs were cut");
    let mut out = String::new();
    let mut in_use = false;
    for line in bare.lines() {
        let head = line.trim_start();
        in_use |= ["use ", "pub use ", "pub(crate) use "]
            .iter()
            .any(|u| head.starts_with(u));
        if in_use {
            in_use = !line.contains(';');
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Identifier → (occurrences, occurrences directly after `fn `).
fn count_words(code: &str, counts: &mut HashMap<String, (usize, usize)>) {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !is_word(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_word(bytes[i]) {
            i += 1;
        }
        let entry = counts.entry(code[start..i].to_string()).or_default();
        entry.0 += 1;
        if code[..start].ends_with("fn ") {
            entry.1 += 1;
        }
    }
}

#[test]
fn every_pub_fn_is_reached_or_a_named_oracle() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut counts = HashMap::new();
    let mut defined: Vec<(String, String)> = Vec::new();

    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path().join("src"))
        .collect();
    crate_dirs.sort();
    let mut sources = Vec::new();
    for dir in &crate_dirs {
        rust_files(dir, &mut sources);
    }
    for path in &sources {
        let code = code_of(&fs::read_to_string(path).expect("read source"), true);
        count_words(&code, &mut counts);
        let shown = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .display()
            .to_string();
        for marker in ["pub fn ", "pub(crate) fn "] {
            for (at, _) in code.match_indices(marker) {
                let rest = &code[at + marker.len()..];
                let end = rest.bytes().position(|b| !is_word(b)).unwrap_or(rest.len());
                defined.push((shown.clone(), rest[..end].to_string()));
            }
        }
    }
    let mut traffic = Vec::new();
    rust_files(&root.join("examples"), &mut traffic);
    rust_files(&root.join("benchmark/src"), &mut traffic);
    for path in &traffic {
        let code = code_of(&fs::read_to_string(path).expect("read source"), false);
        count_words(&code, &mut counts);
    }
    assert!(
        defined.len() > 100,
        "scan found only {} pub fns",
        defined.len()
    );

    let unreached: Vec<String> = defined
        .iter()
        .filter(|(_, name)| {
            let (all, defs) = counts[name];
            all == defs && !ORACLES.iter().any(|(oracle, _)| oracle == name)
        })
        .map(|(file, name)| format!("{file}: {name}"))
        .collect();
    assert!(
        unreached.is_empty(),
        "{} pub fn(s) named by nothing but tests — delete them, or list them in ORACLES \
         with the reached code they check:\n  {}",
        unreached.len(),
        unreached.join("\n  ")
    );

    assert!(ORACLES.len() <= 25, "ORACLES has {} entries", ORACLES.len());
    for (name, reason) in ORACLES {
        assert!(!reason.is_empty(), "{name}: an oracle needs its reason");
        assert!(
            defined.iter().any(|(_, d)| d == name),
            "{name} is in ORACLES but no pub fn has that name"
        );
    }
}
