//! Machine-readable kernel benchmarks (`repro --bench-out FILE`).
//!
//! Times the hot kernels the prefetcher leans on — tiled matmul,
//! `probe_batch`, `increment_batch`, top-k candidate selection, one full
//! minibatch `prepare` — each under a 1-thread cap and under the full
//! pool, plus an end-to-end [`wallclock_compare`] of the threaded
//! engine, and emits one JSON document so CI can track the perf
//! trajectory across PRs (BENCH_PR3.json is the first point).
//!
//! Every kernel is bitwise-deterministic across thread counts (the shim
//! guarantees it), so the 1-thread and N-thread runs do the *same*
//! arithmetic — the speedup column isolates scheduling, not luck. On a
//! single-core host the pool has no helpers and speedups sit near 1;
//! the recorded `cores`/`threads` fields keep such numbers honest.

use crate::harness::{engine_config, wallclock_compare_ordered, Opts};

/// The CI perf guard's floor on the end-to-end `speedup` column: the
/// threaded engine (with its adaptive single-core fallback) must never
/// run meaningfully slower than the sequential one. The single source of
/// truth — `repro --perf-guard` and the workflow both read it from here.
pub const PERF_GUARD_MIN_SPEEDUP: f64 = 0.95;
use massivegnn::config::{PrefetchConfig, ScoreLayout};
use massivegnn::init::initialize_prefetcher;
use massivegnn::scoreboard::AccessScores;
use massivegnn::{EngineConfig, Mode, PrefetchBuffer};
use mgnn_graph::generators::erdos_renyi;
use mgnn_graph::{DatasetKind, FeatureStore, NodeId};
use mgnn_net::{Backend, CommMetrics, CostModel, SimCluster};
use mgnn_partition::{build_local_partitions, multilevel_partition};
use mgnn_sampling::NeighborSampler;
use mgnn_tensor::Tensor;
use serde::{Serialize, Value};
use std::time::Instant;

/// Median wall-clock milliseconds of `iters` runs of `f`.
fn median_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut ts: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ts.sort_by(f64::total_cmp);
    ts[ts.len() / 2]
}

/// Time `f` under a 1-thread cap and under the full pool; returns
/// `(seq_ms, par_ms)`.
fn seq_vs_par(iters: usize, mut f: impl FnMut()) -> (f64, f64) {
    let seq = rayon::pool::with_max_threads(1, || median_ms(iters, &mut f));
    let par = median_ms(iters, &mut f);
    (seq, par)
}

fn speedup(seq_ms: f64, par_ms: f64) -> f64 {
    if par_ms == 0.0 {
        1.0
    } else {
        seq_ms / par_ms
    }
}

fn kernel_value(extra: Vec<(&'static str, Value)>, seq_ms: f64, par_ms: f64) -> Value {
    let mut fields = extra;
    fields.push(("seq_ms", seq_ms.to_value()));
    fields.push(("par_ms", par_ms.to_value()));
    fields.push(("speedup", speedup(seq_ms, par_ms).to_value()));
    Value::obj(fields)
}

/// Deterministic pseudo-random tensor (no RNG state threading needed).
fn filled(rows: usize, cols: usize, salt: u32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let h = (i as u32).wrapping_add(salt).wrapping_mul(2_654_435_761);
            ((h % 97) as f32 - 48.0) / 16.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn bench_matmul(iters: usize) -> Value {
    let (m, k, n) = (512usize, 256usize, 128usize);
    let a = filled(m, k, 1);
    let b = filled(k, n, 2);
    let (seq, par) = seq_vs_par(iters, || {
        std::hint::black_box(a.matmul(&b));
    });
    kernel_value(
        vec![
            ("m", (m as u64).to_value()),
            ("k", (k as u64).to_value()),
            ("n", (n as u64).to_value()),
        ],
        seq,
        par,
    )
}

fn bench_probe_batch(iters: usize) -> Value {
    let num_halo = 200_000usize;
    let capacity = 40_000usize;
    let mut buf = PrefetchBuffer::new(num_halo, capacity, 1);
    for h in 0..capacity as u32 {
        buf.insert(h * 5, &[0.0]); // every 5th halo index buffered
    }
    let sampled: Vec<u32> = (0..num_halo as u32).collect();
    let (seq, par) = seq_vs_par(iters, || {
        std::hint::black_box(buf.probe_batch(&sampled));
    });
    kernel_value(
        vec![
            ("batch", (sampled.len() as u64).to_value()),
            ("capacity", (capacity as u64).to_value()),
        ],
        seq,
        par,
    )
}

fn bench_increment_batch(iters: usize) -> Value {
    let num_halo = 200_000usize;
    let halo: Vec<NodeId> = (0..num_halo as u32).map(|i| i * 3).collect();
    let ids: Vec<NodeId> = (0..50_000usize).map(|i| halo[(i * 7) % num_halo]).collect();
    let mut uniq = ids;
    uniq.sort_unstable();
    uniq.dedup();
    let mut scores = AccessScores::new(ScoreLayout::MemEfficient, num_halo * 3, num_halo);
    let (seq, par) = seq_vs_par(iters, || {
        scores.increment_batch(&halo, &uniq);
    });
    kernel_value(
        vec![
            ("halo", (num_halo as u64).to_value()),
            ("batch", (uniq.len() as u64).to_value()),
        ],
        seq,
        par,
    )
}

/// Top-k candidate selection: the O(n) `select_nth_unstable` path
/// against a full-sort reference, at `n` and `4n`, so the JSON records
/// the complexity drop (select scales ~4×, full sort ~4·log-factor
/// more — and the select path is strictly faster at both sizes).
fn bench_top_k(iters: usize) -> Value {
    let k = 64usize;
    let time_at = |n: usize| -> (f64, f64) {
        let halo: Vec<NodeId> = (0..n as u32).collect();
        let mut scores = AccessScores::new(ScoreLayout::MemEfficient, n, n);
        for &g in &halo {
            for _ in 0..(g % 5) {
                scores.increment(&halo, g);
            }
        }
        let deg = |g: NodeId| g.wrapping_mul(2_654_435_761) % 1024;
        let select_ms = median_ms(iters, || {
            std::hint::black_box(scores.top_k_candidates(&halo, halo.iter().copied(), k, deg));
        });
        let full_sort_ms = median_ms(iters, || {
            // The pre-PR implementation: full sort, then truncate.
            let mut scored: Vec<(f32, u32, NodeId)> = halo
                .iter()
                .filter_map(|&g| {
                    let s = scores.get(&halo, g);
                    (s > 0.0).then(|| (s, deg(g), g))
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
            scored.truncate(k);
            std::hint::black_box(scored);
        });
        (select_ms, full_sort_ms)
    };
    let n = 100_000usize;
    let (select_ms, full_sort_ms) = time_at(n);
    let (select_ms_4n, full_sort_ms_4n) = time_at(4 * n);
    Value::obj([
        ("n", (n as u64).to_value()),
        ("k", (k as u64).to_value()),
        ("select_ms", select_ms.to_value()),
        ("full_sort_ms", full_sort_ms.to_value()),
        ("select_ms_4n", select_ms_4n.to_value()),
        ("full_sort_ms_4n", full_sort_ms_4n.to_value()),
        // ~4 for the O(n) path; the full sort grows strictly faster.
        (
            "select_scaling_4n",
            (select_ms_4n / select_ms.max(1e-9)).to_value(),
        ),
        (
            "full_sort_scaling_4n",
            (full_sort_ms_4n / full_sort_ms.max(1e-9)).to_value(),
        ),
        (
            "select_vs_sort_speedup",
            speedup(full_sort_ms_4n, select_ms_4n).to_value(),
        ),
    ])
}

/// Fault-free bulk pull over the `Result`-based RPC path (PR4): the
/// whole checked round-trip — group by owner, issue, block on replies,
/// scatter rows, fold the (empty) `PullOutcome`. With no fault profile
/// armed the client blocks exactly like the pre-PR4 panicking path, so
/// this kernel prices the error plumbing itself; compare against the
/// same kernel in BENCH_PR3-era documents to confirm the conversion is
/// within noise.
fn bench_pull_grouped(iters: usize, seed: u64) -> Value {
    let g = erdos_renyi(4000, 40_000, seed);
    let p = multilevel_partition(&g, 4, seed);
    let dim = 64usize;
    let feats = FeatureStore::synthesize(&g, dim, 8, 3);
    let cluster = SimCluster::new(&feats, &p.assignment, 4);
    // Every node once, shuffled deterministically across owners.
    let ids: Vec<NodeId> = (0..g.num_nodes() as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % g.num_nodes() as u32)
        .collect();
    let (seq, par) = seq_vs_par(iters, || {
        let (rows, outcome) = cluster.pull_grouped_checked(&ids);
        assert!(!outcome.had_faults(), "fault-free kernel saw faults");
        std::hint::black_box(rows);
    });
    kernel_value(
        vec![
            ("nodes", (ids.len() as u64).to_value()),
            ("dim", (dim as u64).to_value()),
            ("parts", 4u64.to_value()),
        ],
        seq,
        par,
    )
}

/// One full prefetching minibatch `prepare` (sample → probe → score →
/// gather) on a synthetic partition.
fn bench_prepare(iters: usize, seed: u64) -> Value {
    let g = erdos_renyi(4000, 80_000, seed);
    let p = multilevel_partition(&g, 4, seed);
    let dim = 64usize;
    let feats = FeatureStore::synthesize(&g, dim, 8, 3);
    let cluster = SimCluster::new(&feats, &p.assignment, 4);
    let part = build_local_partitions(&g, &p, &[]).remove(0);
    let cfg = PrefetchConfig {
        f_h: 0.25,
        ..Default::default()
    };
    let metrics = CommMetrics::new();
    let cost = CostModel::default();
    let (mut pf, _) = initialize_prefetcher(&part, cfg, g.num_nodes(), &cluster, &cost, &metrics);
    let sampler = NeighborSampler::new(vec![10, 25], seed ^ 0xe5a1);
    let batch = 256usize.min(part.num_local());
    let seeds: Vec<u32> = (0..batch as u32).collect();
    let mut step = 0u64;
    let (seq, par) = seq_vs_par(iters, || {
        step += 1;
        std::hint::black_box(
            pf.prepare(&part, &sampler, &seeds, 0, step, &cluster, &cost, &metrics),
        );
    });
    kernel_value(
        vec![
            ("halo", (part.num_halo() as u64).to_value()),
            ("dim", (dim as u64).to_value()),
            ("batch", (batch as u64).to_value()),
        ],
        seq,
        par,
    )
}

/// What one `Engine::build(cfg)` costs in heap, by the counting
/// allocator: `(live bytes it leaves behind, high-water mark it reaches
/// on the way)`, both relative to the heap before the call. `(0, 0)`
/// without the `alloc-count` feature — a build that allocates nothing
/// does not exist, so zero reads as "not measured".
fn build_footprint(cfg: &EngineConfig) -> (i64, i64) {
    #[cfg(feature = "alloc-count")]
    {
        use massivegnn::alloc;
        let before = alloc::live_bytes();
        alloc::reset_peak();
        let engine = massivegnn::Engine::build(cfg.clone());
        let footprint = (alloc::live_bytes() - before, alloc::peak_bytes() - before);
        drop(engine);
        footprint
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        let _ = cfg;
        (0, 0)
    }
}

/// End-to-end: sequential vs threaded engine on a real-math run.
///
/// With the `alloc-count` feature, two extra columns prove the
/// zero-allocation steady state: `allocs_per_step` (hot trainer-loop
/// allocations per steady-state step, across both engines' runs) and
/// `alloc_peak_bytes` (high-water live heap over the measurement window,
/// an RSS proxy). Without the feature both keys are `null`, so the
/// document shape is stable across build configurations. Beside them,
/// `build_live_bytes`/`build_peak_bytes` are the set-up footprint of
/// one `Engine::build` ([`build_footprint`]; 0 without the feature),
/// which `report-diff` holds against a baseline.
fn bench_end_to_end(seed: u64, iters: usize) -> Value {
    let mut opts = Opts::quick();
    opts.seed = seed;
    let mut cfg = engine_config(&opts, DatasetKind::Products, Backend::Cpu, 2);
    cfg.trainers_per_part = 2;
    cfg.train_math = true;
    cfg.mode = Mode::Prefetch(PrefetchConfig::default());
    let (build_live_bytes, build_peak_bytes) = build_footprint(&cfg);
    #[cfg(feature = "alloc-count")]
    {
        massivegnn::alloc::take_hot();
        massivegnn::alloc::reset_global_hot();
        massivegnn::alloc::reset_peak();
    }
    // One engine run lasts tens of milliseconds at the quick profile, so
    // a single-shot comparison is noise-dominated; repeat with
    // alternating measurement order (whichever engine runs second in a
    // pair pays a few percent of heap-warmth bias) and take the
    // per-column medians (identity is still asserted on every pass).
    let mut cmps: Vec<_> = (0..iters.max(2))
        .map(|i| wallclock_compare_ordered(&cfg, i % 2 == 1))
        .collect();
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let mut seqs: Vec<f64> = cmps.iter().map(|c| c.sequential_s).collect();
    let mut pars: Vec<f64> = cmps.iter().map(|c| c.parallel_s).collect();
    let sequential_s = median(&mut seqs);
    let parallel_s = median(&mut pars);
    let cmp = cmps.pop().expect("at least one comparison");
    let (allocs_per_step, alloc_peak_bytes) = {
        #[cfg(feature = "alloc-count")]
        {
            // The sequential run left its hot counts on this thread; the
            // threaded run's workers already flushed theirs.
            massivegnn::alloc::flush_hot();
            let (hot_allocs, hot_steps) = massivegnn::alloc::global_hot();
            (
                (hot_allocs as f64 / hot_steps.max(1) as f64).to_value(),
                massivegnn::alloc::peak_bytes().to_value(),
            )
        }
        #[cfg(not(feature = "alloc-count"))]
        {
            (Value::Null, Value::Null)
        }
    };
    let speedup = if parallel_s == 0.0 {
        1.0
    } else {
        sequential_s / parallel_s
    };
    Value::obj([
        ("world", (cmp.world as u64).to_value()),
        ("sequential_s", sequential_s.to_value()),
        ("parallel_s", parallel_s.to_value()),
        ("speedup", speedup.to_value()),
        ("allocs_per_step", allocs_per_step),
        ("alloc_peak_bytes", alloc_peak_bytes),
        ("build_live_bytes", build_live_bytes.to_value()),
        ("build_peak_bytes", build_peak_bytes.to_value()),
    ])
}

/// Where this benchmark document came from. `report-diff` refuses to
/// compare relative timings across documents whose host identity
/// (hostname + core count) differs — wall-clock milliseconds from two
/// different machines are not a regression signal.
pub fn provenance() -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Best-effort: a bench run outside a git checkout still produces a
    // valid document, just with an unknown commit.
    let git_commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok().filter(|s| !s.is_empty()))
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj([
        (
            "git_commit",
            git_commit.map_or(Value::Null, |c| c.to_value()),
        ),
        ("hostname", hostname.to_value()),
        ("cores", (cores as u64).to_value()),
    ])
}

/// Run the full kernel-benchmark suite and return the JSON document.
pub fn run_all(seed: u64, iters: usize) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = rayon::current_num_threads();
    // The override that produced `threads`, if any: numbers recorded on a
    // single-core host (or with a forced width) are not comparable to
    // multi-core runs, and CI reads these fields to decide whether the
    // perf guard is meaningful at all.
    let mgnn_threads = std::env::var("MGNN_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok());
    eprintln!(
        "[bench: {cores} cores, pool of {threads} threads (MGNN_THREADS={}), {iters} iters per kernel]",
        mgnn_threads.map_or_else(|| "unset".into(), |n| n.to_string())
    );
    let matmul = bench_matmul(iters);
    eprintln!("[bench: matmul done]");
    let probe = bench_probe_batch(iters);
    eprintln!("[bench: probe_batch done]");
    let increment = bench_increment_batch(iters);
    eprintln!("[bench: increment_batch done]");
    let top_k = bench_top_k(iters);
    eprintln!("[bench: top_k done]");
    let pull_grouped = bench_pull_grouped(iters, seed);
    eprintln!("[bench: pull_grouped done]");
    let prepare = bench_prepare(iters, seed);
    eprintln!("[bench: prepare done]");
    let end_to_end = bench_end_to_end(seed, iters);
    eprintln!("[bench: end-to-end done]");
    Value::obj([
        ("schema", "mgnn-bench/v1".to_value()),
        ("provenance", provenance()),
        ("seed", seed.to_value()),
        ("cores", (cores as u64).to_value()),
        ("threads", (threads as u64).to_value()),
        (
            "mgnn_threads",
            mgnn_threads.map_or(Value::Null, |n| n.to_value()),
        ),
        ("iters", (iters as u64).to_value()),
        (
            "kernels",
            Value::obj([
                ("matmul", matmul),
                ("probe_batch", probe),
                ("increment_batch", increment),
                ("top_k", top_k),
                ("pull_grouped", pull_grouped),
                ("prepare", prepare),
            ]),
        ),
        ("end_to_end", end_to_end),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_runs() {
        let mut calls = 0;
        let m = median_ms(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(m >= 0.0);
    }

    #[test]
    fn bench_document_shape() {
        // One cheap iteration end to end; the document must carry every
        // kernel section CI expects to archive.
        let doc = run_all(7, 1);
        let text = serde_json::to_string_pretty(&doc);
        for key in [
            "\"matmul\"",
            "\"probe_batch\"",
            "\"increment_batch\"",
            "\"top_k\"",
            "\"pull_grouped\"",
            "\"prepare\"",
            "\"end_to_end\"",
            "\"cores\"",
            "\"threads\"",
            "\"mgnn_threads\"",
            "\"provenance\"",
            "\"hostname\"",
            "\"git_commit\"",
            "\"speedup\"",
            "\"allocs_per_step\"",
            "\"alloc_peak_bytes\"",
            "\"build_live_bytes\"",
            "\"build_peak_bytes\"",
        ] {
            assert!(text.contains(key), "bench JSON missing {key}");
        }
        let e2e = doc.get("end_to_end").expect("end_to_end section");
        let allocs = e2e.get("allocs_per_step").expect("allocs column");
        if cfg!(feature = "alloc-count") {
            // The pooled engines must be at (or within noise of) zero.
            let per_step = allocs.as_f64().expect("numeric with alloc-count");
            assert!(
                per_step < 1.0,
                "steady state should be allocation-free, got {per_step} per step"
            );
            assert!(e2e.get("alloc_peak_bytes").unwrap().as_f64().unwrap() > 0.0);
        } else {
            assert_eq!(allocs, &Value::Null, "null without the feature");
        }
        let footprint = |key: &str| e2e.get(key).and_then(Value::as_f64).expect(key);
        let (live, peak) = (footprint("build_live_bytes"), footprint("build_peak_bytes"));
        if cfg!(feature = "alloc-count") {
            // The gauges are process-wide and tests run side by side:
            // only that something was measured is stable here; the
            // figures themselves are pinned by tests/setup_memory.rs.
            assert!(peak > 0.0, "live {live} peak {peak}");
        } else {
            assert_eq!((live, peak), (0.0, 0.0), "0 without the feature");
        }
    }
}
