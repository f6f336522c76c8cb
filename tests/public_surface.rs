//! Every `pub fn` serves traffic, and the docs name what exists.
//!
//! A `pub fn` / `pub(crate) fn` in the non-test text of `crates/*/src`
//! must be reached from somewhere else in that text (the two binaries
//! included), from `examples/` or from `benchmark/src` — or be listed in
//! `ORACLES` with the reached code it checks. A *method* (a `fn` taking
//! `self`) is reached only by a call- or path-shaped occurrence of its
//! name (`.name(`, `::name`), so a field, a local or a struct literal of
//! the same name is not a caller; a free or associated function by any
//! occurrence. `shims/*/src` lives under the same rule, with more
//! callers: a shim serves its callers' tests too, so all text of
//! `crates/`, `tests/` and the shims' own `tests/` counts. It is a
//! floor, not a proof: the lexer knows no types, so a method that shares
//! its name with a reached method of `std` or of a sibling type passes,
//! and a caller that is itself unreached hides its callees until it is
//! deleted and the test re-run.
//!
//! `docs_name_what_exists` holds README, DESIGN and EXPERIMENTS to the
//! tree with the same lexer: every back-ticked `path.rs`, `path.rs:LINE`
//! and `Type::method` resolves.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Functions nothing but tests call, kept because a test checks reached
/// code against them: (name — `Type::name` where the bare name is
/// ambiguous —, what it is the oracle or probe for).
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
    (
        "SimCluster::shutdown",
        "joins the servers and returns the rows each served: how many requests `SimCluster::pull_rows` really sent, and that a server outlives a request it refused",
    ),
    // mgnn-graph / mgnn-partition / mgnn-sampling
    (
        "CsrGraph::from_parts",
        "the validating constructor: hand-written CSR fixtures, and the invariants `from_parts_unchecked` (reached) trusts `GraphBuilder` for, rejected one by one",
    ),
    (
        "FeatureStore::from_parts",
        "a store with known rows: what `KvStore`, `RpcServer` and `SimCluster::pull_rows` must serve is compared with rows the test chose (tests/prop_net.rs)",
    ),
    (
        "Block::validate",
        "the bipartite-CSR invariants every block `NeighborSampler::sample_into` emits is held to (tests/prop_sampling.rs, prop_model.rs)",
    ),
    (
        "is_symmetric",
        "checks that `GraphBuilder::build` and every generator emit an undirected graph",
    ),
    (
        "sbm",
        "planted-partition fixture `multilevel_partition`, `bfs_partition` and `refine` must recover",
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
        "check_invariants",
        "the slot and halo maps of `PrefetchBuffer` stay mutually inverse, occupancy a prefix, through `initialize_prefetcher` and every evict-and-replace round of `Prefetcher::prepare_reuse`",
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

/// The identifier `text` starts with.
fn leading_word(text: &str) -> &str {
    let end = text.bytes().position(|b| !is_word(b)).unwrap_or(text.len());
    &text[..end]
}

/// How often an identifier occurs: anywhere, directly after `fn `, and
/// shaped like a method call or a path's tail (`.name(`, `::name`).
#[derive(Default, Clone, Copy)]
struct Seen {
    any: usize,
    defs: usize,
    called: usize,
}

fn count_words(code: &str, counts: &mut HashMap<String, Seen>) {
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
        let (before, after) = (&code[..start], &code[i..]);
        let seen = counts.entry(code[start..i].to_string()).or_default();
        seen.any += 1;
        seen.defs += usize::from(before.ends_with("fn "));
        let call = before.ends_with('.') && (after.starts_with('(') || after.starts_with("::<"));
        seen.called += usize::from(call || before.ends_with("::"));
    }
}

/// The type an `impl … {` header is for: `Stack` of
/// `impl<L: Layer> Model for Stack<L> {`.
fn impl_target(header: &str) -> String {
    let mut rest = header.strip_prefix("impl").expect("an impl header");
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.bytes().position(|b| {
            depth += i32::from(b == b'<') - i32::from(b == b'>');
            depth == 0
        });
        rest = &rest[close.expect("balanced generics") + 1..];
    }
    let rest = rest.rsplit(" for ").next().expect("rsplit yields once");
    let path = rest.trim_start_matches(['&', ' ']);
    let end = path
        .bytes()
        .position(|b| !is_word(b) && b != b':')
        .unwrap_or(path.len());
    let path = &path[..end];
    path.rsplit("::").next().unwrap_or(path).to_string()
}

/// Whether a signature (the text between a `fn`'s name and its body)
/// takes `self`, `&self`, `&'a self`, `&mut self` or `mut self`.
fn takes_self(signature: &str) -> bool {
    signature.match_indices('(').any(|(at, _)| {
        let mut rest = signature[at + 1..].trim_start();
        rest = rest.strip_prefix('&').unwrap_or(rest).trim_start();
        if rest.starts_with('\'') {
            rest = rest[1..].trim_start_matches(|c: char| is_word(c as u8));
        }
        rest = rest.trim_start();
        rest = rest.strip_prefix("mut ").unwrap_or(rest);
        leading_word(rest) == "self"
    })
}

struct Def {
    file: String,
    /// The `impl`'s type; `None` for a free function.
    owner: Option<String>,
    name: String,
    method: bool,
}

impl Def {
    fn is(&self, key: &str) -> bool {
        match (key.split_once("::"), &self.owner) {
            (Some((owner, name)), Some(mine)) => owner == mine && name == self.name,
            (Some(_), None) => false,
            (None, _) => key == self.name,
        }
    }
}

/// Every `pub fn` / `pub(crate) fn` of `code` (rustfmt's layout: an
/// `impl` block closes with a `}` at its header's indentation).
fn definitions(code: &str, file: &str, out: &mut Vec<Def>) {
    let mut owner: Option<(usize, String)> = None;
    let mut at = 0;
    for line in code.split_inclusive('\n') {
        let head = line.trim_start();
        let indent = line.len() - head.len();
        if head.starts_with("impl ") || head.starts_with("impl<") {
            owner = Some((indent, impl_target(head)));
        } else if head.trim_end() == "}" && owner.as_ref().is_some_and(|o| o.0 == indent) {
            owner = None;
        }
        for marker in ["pub fn ", "pub(crate) fn "] {
            if let Some(rest) = head.strip_prefix(marker) {
                let name = leading_word(rest);
                let tail = &code[at + indent + marker.len() + name.len()..];
                let signature = &tail[..tail.find(['{', ';']).unwrap_or(tail.len())];
                out.push(Def {
                    file: file.to_string(),
                    owner: owner.as_ref().map(|o| o.1.clone()),
                    name: name.to_string(),
                    method: takes_self(signature),
                });
            }
        }
        at += line.len();
    }
}

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.rs` files under `root/<dir>/*/<sub>` for every member `*`.
fn member_files(root: &Path, dir: &str, sub: &str) -> Vec<PathBuf> {
    let mut members: Vec<PathBuf> = fs::read_dir(root.join(dir))
        .unwrap_or_else(|e| panic!("read {dir}/: {e}"))
        .map(|e| e.expect("dir entry").path().join(sub))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    let mut files = Vec::new();
    for member in &members {
        rust_files(member, &mut files);
    }
    files
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_pub_fn_is_reached_or_a_named_oracle() {
    let root = workspace();
    let shown = |path: &Path| {
        path.strip_prefix(&root)
            .unwrap_or(path)
            .display()
            .to_string()
    };
    // Callers of the crates, and of the shims (a superset).
    let mut serving = HashMap::new();
    let mut testing = HashMap::new();
    let mut crate_defs = Vec::new();
    let mut shim_defs = Vec::new();

    for path in member_files(&root, "crates", "src") {
        let text = read(&path);
        let code = code_of(&text, true);
        count_words(&code, &mut serving);
        definitions(&code, &shown(&path), &mut crate_defs);
        // The file's test module serves nothing but is a shim's caller.
        let tests = &text[text.find("#[cfg(test)]").unwrap_or(text.len())..];
        count_words(&code_of(tests, false), &mut testing);
    }
    let mut traffic = Vec::new();
    rust_files(&root.join("examples"), &mut traffic);
    rust_files(&root.join("benchmark/src"), &mut traffic);
    for path in &traffic {
        count_words(&code_of(&read(path), false), &mut serving);
    }
    for path in member_files(&root, "shims", "src") {
        let code = code_of(&read(&path), true);
        count_words(&code, &mut testing);
        definitions(&code, &shown(&path), &mut shim_defs);
    }
    let mut tests = member_files(&root, "shims", "tests");
    rust_files(&root.join("tests"), &mut tests);
    for path in &tests {
        count_words(&code_of(&read(path), false), &mut testing);
    }
    for (name, seen) in &serving {
        let both = testing.entry(name.clone()).or_default();
        both.any += seen.any;
        both.defs += seen.defs;
        both.called += seen.called;
    }
    assert!(
        crate_defs.len() > 100 && shim_defs.len() > 30,
        "scan found only {} + {} pub fns",
        crate_defs.len(),
        shim_defs.len()
    );

    let oracle = |d: &Def| ORACLES.iter().any(|(key, _)| d.is(key));
    let reached = |d: &Def, callers: &HashMap<String, Seen>| {
        let seen = callers[&d.name];
        if d.method {
            seen.called > 0
        } else {
            seen.any > seen.defs
        }
    };
    let unreached: Vec<String> = crate_defs
        .iter()
        .filter(|d| !reached(d, &serving) && !oracle(d))
        .chain(shim_defs.iter().filter(|d| !reached(d, &testing)))
        .map(|d| match &d.owner {
            Some(owner) => format!("{}: {owner}::{}", d.file, d.name),
            None => format!("{}: {}", d.file, d.name),
        })
        .collect();
    assert!(
        unreached.is_empty(),
        "{} pub fn(s) reached by nothing but tests — delete them, or list them in ORACLES \
         with the reached code they check:\n  {}",
        unreached.len(),
        unreached.join("\n  ")
    );

    assert!(ORACLES.len() <= 25, "ORACLES has {} entries", ORACLES.len());
    for (key, reason) in ORACLES {
        assert!(!reason.is_empty(), "{key}: an oracle needs its reason");
        let named = crate_defs.iter().filter(|d| d.is(key)).count();
        assert_eq!(
            named, 1,
            "{key} is in ORACLES and names {named} pub fns: one `Type::name` each"
        );
    }
}

/// Types of `std` the docs may name members of.
const STD_TYPES: &[&str] = &["Option"];
/// What a path in the docs may start from outside the tree.
const FOREIGN: &[&str] = &["std", "mem"];

/// The back-ticked spans of a Markdown text, fenced blocks left out.
fn code_spans(markdown: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

#[test]
fn docs_name_what_exists() {
    let root = workspace();
    let mut files = member_files(&root, "crates", "src");
    files.extend(member_files(&root, "shims", "src"));
    files.extend(member_files(&root, "shims", "tests"));
    for dir in ["tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    // Per file: its path from the root, its line count, its words; and
    // per type, the files that define or implement it.
    let mut tree: Vec<(String, usize, HashMap<String, Seen>)> = Vec::new();
    let mut homes: HashMap<String, Vec<usize>> = HashMap::new();
    for path in &files {
        let text = read(path);
        let code = code_of(&text, false);
        let mut words = HashMap::new();
        count_words(&code, &mut words);
        for line in code.lines() {
            let head = line.trim_start();
            let head = head.strip_prefix("pub ").unwrap_or(head);
            let owner = if head.starts_with("impl ") || head.starts_with("impl<") {
                impl_target(head)
            } else {
                ["struct ", "enum ", "trait ", "type "]
                    .iter()
                    .find_map(|k| head.strip_prefix(k))
                    .map_or(String::new(), |rest| leading_word(rest).to_string())
            };
            if !owner.is_empty() {
                homes.entry(owner).or_default().push(tree.len());
            }
        }
        let shown = path.strip_prefix(&root).expect("under the root");
        tree.push((format!("/{}", shown.display()), text.lines().count(), words));
    }
    // A module is its file, its `mod.rs`, or its crate's (or shim's) files.
    let module = |name: &str| -> Vec<usize> {
        let package = format!("/{}/", name.replace('_', "-"));
        let ends = [format!("/{name}.rs"), format!("/{name}/mod.rs")];
        let tree = &tree;
        (0..tree.len())
            .filter(|&f| {
                let path = &tree[f].0;
                ["/crates", "/shims"].iter().any(|dir| {
                    path.strip_prefix(dir)
                        .is_some_and(|p| p.starts_with(&package))
                }) || ends.iter().any(|e| path.ends_with(e))
            })
            .collect()
    };

    let mut broken = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        for span in code_spans(&read(&root.join(doc))) {
            if ["..", "…", "*", "{"].iter().any(|glob| span.contains(glob)) {
                continue;
            }
            let mut segments: Vec<&str> = span.split("::").collect();
            let mut within: Option<Vec<usize>> = None;
            if let Some((path, tail)) = segments[0].split_once(".rs") {
                // `path.rs`, `path.rs:LINE`, `path.rs::item`.
                if !path.bytes().all(|b| is_word(b) || b == b'/' || b == b'-') {
                    continue;
                }
                let line: usize = match tail.strip_prefix(':') {
                    Some(n) => n.parse().unwrap_or(usize::MAX),
                    None if tail.is_empty() => 0,
                    None => continue,
                };
                let suffix = format!("/{path}.rs");
                let found: Vec<usize> = (0..tree.len())
                    .filter(|&f| tree[f].0.ends_with(&suffix) && tree[f].1 >= line)
                    .collect();
                if found.is_empty() {
                    broken.push(format!("{doc}: `{span}`: no such file, or a shorter one"));
                    continue;
                }
                within = Some(found);
                segments.remove(0);
            } else if segments.len() < 2 || segments.iter().any(|s| leading_word(s).is_empty()) {
                continue;
            }
            // `Type::member`, `module::item`: the last segment that is a
            // type or a module says where the ones after it must occur.
            let mut missing = None;
            for (i, segment) in segments.iter().enumerate() {
                // A crate may be named as Cargo does: `mgnn-net::metrics`.
                let word = match segment.split_once('-') {
                    Some((_, rest)) if i == 0 && !leading_word(rest).is_empty() => segment,
                    _ => leading_word(segment),
                };
                let here = match homes.get(word) {
                    Some(files) => files.clone(),
                    None => module(word),
                };
                if !here.is_empty() {
                    within = Some(here);
                } else if let Some(files) = &within {
                    if !files.iter().any(|&f| tree[f].2.contains_key(word)) {
                        missing = Some(word);
                    }
                } else if i == 0 && (FOREIGN.contains(&word) || STD_TYPES.contains(&word)) {
                    break;
                } else {
                    missing = Some(word);
                }
                if missing.is_some() {
                    break;
                }
            }
            if let Some(word) = missing {
                broken.push(format!("{doc}: `{span}`: `{word}` is not there"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "{} name(s) in the docs resolve to nothing in the tree:\n  {}",
        broken.len(),
        broken.join("\n  ")
    );
}
