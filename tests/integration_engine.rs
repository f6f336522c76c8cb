//! End-to-end engine integration across datasets, backends, model kinds
//! and modes — the behaviours the paper's evaluation hinges on, asserted
//! at test scale.

use massivegnn::{Engine, EngineConfig, Mode, PrefetchConfig, ScoreLayout};
use mgnn_graph::{DatasetKind, Scale};
use mgnn_model::ModelKind;
use mgnn_net::Backend;

fn cfg(kind: DatasetKind) -> EngineConfig {
    EngineConfig {
        dataset: kind,
        scale: Scale::Unit,
        num_parts: 2,
        trainers_per_part: 2,
        batch_size: 96,
        epochs: 2,
        fanouts: vec![5, 10],
        hidden_dim: 32,
        ..Default::default()
    }
}

fn prefetch(f_h: f64, gamma: f64, delta: usize) -> Mode {
    Mode::Prefetch(PrefetchConfig {
        f_h,
        gamma,
        delta,
        ..Default::default()
    })
}

#[test]
fn every_dataset_preset_trains_in_both_modes() {
    for kind in DatasetKind::ALL {
        let base = cfg(kind);
        let baseline = Engine::build(base.clone()).run();
        let mut p = base;
        p.mode = prefetch(0.25, 0.995, 8);
        let pref = Engine::build(p).run();
        assert!(baseline.makespan_s > 0.0, "{}", kind.name());
        assert!(pref.makespan_s > 0.0, "{}", kind.name());
        assert!(
            pref.hit_rate() > 0.05,
            "{}: hit rate {}",
            kind.name(),
            pref.hit_rate()
        );
    }
}

#[test]
fn oracle_holds_for_gcn_too() {
    let mut base = cfg(DatasetKind::Arxiv);
    base.model = ModelKind::Gcn;
    base.train_math = true;
    let baseline = Engine::build(base.clone()).run();
    base.mode = prefetch(0.35, 0.99, 4);
    let pref = Engine::build(base).run();
    assert_eq!(baseline.final_params, pref.final_params);
    assert!(!baseline.epoch_loss.is_empty());
    assert!(baseline.epoch_loss.iter().all(|l| l.is_finite()));
}

#[test]
fn oracle_holds_for_gat_too() {
    // Prefetching must not change GAT training either.
    let mut base = cfg(DatasetKind::Arxiv);
    base.model = ModelKind::Gat;
    base.train_math = true;
    let baseline = Engine::build(base.clone()).run();
    base.mode = prefetch(0.35, 0.99, 4);
    let pref = Engine::build(base).run();
    assert_eq!(baseline.final_params, pref.final_params);
}

#[test]
fn improvement_shape_cpu_vs_gpu() {
    // The paper's headline shape: prefetch wins on both backends, with
    // baseline GPU faster than baseline CPU in absolute terms.
    let base = cfg(DatasetKind::Products);
    let mut configs = [(Backend::Cpu, 0.0f64, 0.0f64), (Backend::Gpu, 0.0, 0.0)];
    for (backend, base_t, pref_t) in configs.iter_mut() {
        let mut b = base.clone();
        b.backend = *backend;
        b.hidden_dim = 64;
        *base_t = Engine::build(b.clone()).run().makespan_s;
        b.mode = prefetch(0.5, 0.995, 16);
        *pref_t = Engine::build(b).run().makespan_s;
    }
    let (_, cpu_base, cpu_pref) = configs[0];
    let (_, gpu_base, gpu_pref) = configs[1];
    assert!(gpu_base < cpu_base, "GPU baseline must be faster");
    assert!(cpu_pref < cpu_base, "CPU prefetch must improve");
    assert!(
        gpu_pref <= gpu_base * 1.05,
        "GPU prefetch should not regress badly"
    );
}

#[test]
fn larger_buffer_fraction_improves_hit_rate() {
    let base = cfg(DatasetKind::Products);
    let mut rates = Vec::new();
    for f_h in [0.1, 0.3, 0.6] {
        let mut b = base.clone();
        b.mode = prefetch(f_h, 0.995, 16);
        rates.push(Engine::build(b).run().hit_rate());
    }
    assert!(
        rates[2] > rates[0],
        "f_h=0.6 hit {} should beat f_h=0.1 hit {}",
        rates[2],
        rates[0]
    );
}

#[test]
fn hit_rate_declines_with_more_trainers() {
    // Table III / §V-A3: more trainers ⇒ fewer minibatches per trainer ⇒
    // less time for the buffer to adapt ⇒ lower hit rate.
    let mut small = cfg(DatasetKind::Products);
    small.trainers_per_part = 1;
    small.mode = prefetch(0.25, 0.995, 8);
    let few = Engine::build(small).run();

    let mut large = cfg(DatasetKind::Products);
    large.trainers_per_part = 4;
    large.mode = prefetch(0.25, 0.995, 8);
    let many = Engine::build(large).run();

    assert!(few.steps_per_epoch > many.steps_per_epoch);
    assert!(
        few.hit_rate() >= many.hit_rate() - 0.05,
        "few-trainer hit {} vs many-trainer {}",
        few.hit_rate(),
        many.hit_rate()
    );
}

#[test]
fn mem_efficient_layout_supports_full_run_on_papers() {
    let mut base = cfg(DatasetKind::Papers);
    base.mode = Mode::Prefetch(PrefetchConfig {
        f_h: 0.5,
        gamma: 0.995,
        delta: 8,
        layout: ScoreLayout::MemEfficient,
        ..Default::default()
    });
    let r = Engine::build(base).run();
    assert!(r.hit_rate() > 0.1);
    assert!(r.aggregate_metrics().evictions > 0 || r.steps_per_epoch < 8);
}

#[test]
fn longer_training_does_not_degrade_hit_rate() {
    // Fig. 10's long-run behaviour: the eviction scheme maintains or
    // grows the hit rate as minibatches accumulate.
    let mut base = cfg(DatasetKind::Products);
    base.epochs = 1;
    base.mode = prefetch(0.25, 0.995, 8);
    let short = Engine::build(base.clone()).run();
    base.epochs = 6;
    let long = Engine::build(base).run();
    assert!(
        long.hit_rate() >= short.hit_rate() - 0.02,
        "long {} vs short {}",
        long.hit_rate(),
        short.hit_rate()
    );
}

#[test]
fn prefetch_is_sampler_agnostic() {
    // §V-A4: "the performance primarily hinges on how the sampler
    // interacts with the Prefetcher ... versatile across GNN
    // architectures". Prefetch must deliver wins, and the oracle must
    // hold, under the sampler `EngineConfig::sampling` selects.
    let base = cfg(DatasetKind::Products);
    let baseline = Engine::build(base.clone()).run();
    let mut p = base.clone();
    p.mode = prefetch(0.35, 0.995, 8);
    let pref = Engine::build(p).run();
    assert!(
        pref.makespan_s < baseline.makespan_s,
        "prefetch {} vs baseline {}",
        pref.makespan_s,
        baseline.makespan_s
    );
    assert!(pref.hit_rate() > 0.1, "hit {}", pref.hit_rate());

    // Oracle under this sampler as well.
    let mut bm = base.clone();
    bm.train_math = true;
    let b = Engine::build(bm.clone()).run();
    bm.mode = prefetch(0.35, 0.995, 8);
    let q = Engine::build(bm).run();
    assert_eq!(b.final_params, q.final_params, "oracle broken");
}

#[test]
fn reports_internally_consistent() {
    let mut base = cfg(DatasetKind::Reddit);
    base.mode = prefetch(0.25, 0.995, 8);
    let r = Engine::build(base).run();
    let agg = r.aggregate_metrics();
    // Hits + misses == all halo lookups; hit rate consistent.
    let total = agg.buffer_hits + agg.buffer_misses;
    assert!(total > 0);
    assert!((r.hit_rate() - agg.buffer_hits as f64 / total as f64).abs() < 1e-12);
    // A positive makespan, and every trainer's sim time ≤ makespan.
    assert!(r.makespan_s > 0.0);
    for t in &r.trainers {
        assert!(t.sim_time_s <= r.makespan_s + 1e-12);
        assert!(t.overlap_efficiency >= 0.0 && t.overlap_efficiency <= 1.0);
        assert!(t.minibatches as usize == r.steps_per_epoch * 2);
    }
}

// ---------------------------------------------------------------------
// Old ≡ new: the step loop was collapsed from two twin engines into one
// driver with two schedulers (PR 14). The table below was recorded on
// the parent commit (`5facb2a`) with [`print_engine_fingerprints`]; the
// single driver has to reproduce every row under both schedulers — and,
// for the fault rows, under the sequential one, which is the only place
// the new round-robin scheduler is compared with the old one under
// faults rather than with itself.
// ---------------------------------------------------------------------

use massivegnn::{FaultProfile, RunReport};
use serde::Serialize;

/// 64-bit FNV-1a, fed a piece at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of the report's JSON form (which carries the serialized `traces`
/// when tracing is on) followed by the bits of `final_params` (which the
/// JSON form leaves out).
fn report_fingerprint(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.eat(serde_json::to_string_pretty(&r.to_value()).as_bytes());
    h.eat(&(r.final_params.len() as u64).to_le_bytes());
    for p in &r.final_params {
        h.eat(&p.to_bits().to_le_bytes());
    }
    h.0
}

/// Hash of what a run learned and what it probed — the bits of
/// `epoch_loss`, `epoch_acc` and `final_params`, then each trainer's
/// `hits + misses` — and of nothing a policy may move: which rows ride
/// in which pull, and when.
fn learning_fingerprint(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    for x in &r.epoch_loss {
        h.eat(&x.to_bits().to_le_bytes());
    }
    for x in &r.epoch_acc {
        h.eat(&x.to_bits().to_le_bytes());
    }
    for x in &r.final_params {
        h.eat(&x.to_bits().to_le_bytes());
    }
    for t in &r.trainers {
        h.eat(&(t.metrics.buffer_hits + t.metrics.buffer_misses).to_le_bytes());
    }
    h.0
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Baseline,
    Scoreboard,
    Lookahead2,
    /// Scoreboard with `EngineConfig::trace` on.
    ScoreboardTraced,
    /// `FaultProfile::heavy`, drops and crash included.
    ScoreboardHeavy,
    Lookahead2Heavy,
}

impl Shape {
    const ALL: [Shape; 6] = [
        Shape::Baseline,
        Shape::Scoreboard,
        Shape::Lookahead2,
        Shape::ScoreboardTraced,
        Shape::ScoreboardHeavy,
        Shape::Lookahead2Heavy,
    ];

    fn faulted(self) -> bool {
        matches!(self, Shape::ScoreboardHeavy | Shape::Lookahead2Heavy)
    }
}

fn fingerprint_config(shape: Shape, math: bool, seed: u64) -> EngineConfig {
    let scoreboard = PrefetchConfig {
        f_h: 0.25,
        gamma: 0.95,
        delta: 4,
        ..Default::default()
    };
    EngineConfig {
        dataset: DatasetKind::Products,
        scale: Scale::Unit,
        num_parts: 2,
        trainers_per_part: 2,
        batch_size: 64,
        epochs: 3,
        fanouts: vec![5, 10],
        hidden_dim: 16,
        seed,
        train_math: math,
        trace: shape == Shape::ScoreboardTraced,
        mode: match shape {
            Shape::Baseline => Mode::Baseline,
            Shape::Scoreboard | Shape::ScoreboardTraced | Shape::ScoreboardHeavy => {
                Mode::Prefetch(scoreboard)
            }
            Shape::Lookahead2 | Shape::Lookahead2Heavy => {
                Mode::Prefetch(scoreboard.with_lookahead_policy(2))
            }
        },
        fault: shape.faulted().then(|| FaultProfile::heavy(seed ^ 0xfa17)),
        ..Default::default()
    }
}

const FINGERPRINT_SEEDS: [u64; 2] = [1, 42];

/// `(shape, train_math, seed, fingerprint)`, recorded on the parent
/// commit's *sequential* engine; regenerate only for a change that is
/// meant to alter what a run computes (and say so in CHANGES.md). The
/// eight `Lookahead2*` rows were re-recorded when the planner went from a
/// pull per step to a pull per window (PR 19: fewer, larger planned
/// pulls, and `peak_bytes` counts the planner's own state) and again when
/// the look-ahead queue became as deep as that window (PR 21: a prepare
/// slot frees at `train_start(i − 3)`, so `sim_time_s`, `stall_s`,
/// `overlap_efficiency` and the three run-level figures derived from
/// them — `makespan_s`, `mean_overlap_efficiency`, `load_imbalance` —
/// moved; a line diff of the eight reports against `1c976db`'s showed no
/// other line, counters, breakdowns, `epoch_loss` bits and
/// `final_params` included) and once more when the planner began to evict
/// coldest-first past its window and to charge its bookkeeping (PR 22:
/// against `447e3cd` the eight reports differ in `planned_s` — the probe
/// counts and the eviction scan are charged now — `peak_bytes` — 4 B per
/// halo node of counts — and what follows from `planned_s`:
/// `total_serial_s`, `sim_time_s`, `stall_s`, `overlap_efficiency`,
/// `makespan_s`, `mean_overlap_efficiency`, `load_imbalance`. No counter
/// moved, before → after: `remote_bytes` 1 381 200 / 1 339 800,
/// `planned_pulls` 82 / 81, `planned_rows` 5 941 / 5 757 at seeds 1 / 42,
/// heavy or not — at `f_h` 0.25 on the unit graph a window outgrows the
/// buffer, every occupant the window does not probe leaves each round, and
/// the order chooses nothing; `makespan_s` rose 0.2 %, 0.030074 → 0.030144
/// at seed 1: the charge with nothing to buy. What those eight runs learn
/// and probe is pinned to that parent separately, by `LOOKAHEAD_LEARNING`.)
/// The eight `*Heavy` rows were re-recorded when a fault verdict became a
/// function of the request instead of its arrival index, and a drop a
/// reply instead of a wall-clock timeout (PR 25), which also gave these
/// runs `heavy`'s own drops back. A line diff of the eight reports against
/// `1bcc0b5`'s moved only fault counters (`rpc_timeouts` 0 → 5–12 a run,
/// `rpc_retries`, `rpc_delays`, `rpc_truncations`, and at seed 42 which
/// trainer's pull met the crash) and the simulated times charged for them
/// (`fetch_s`, `rpc_s`, `planned_s`, `stall_s`, `communication_stall_s`,
/// `total_s`, `total_serial_s`, `total_init_s`, `sim_time_s`, the two
/// overlap efficiencies, `makespan_s`, `load_imbalance`);
/// `degraded_rows` and `stale_served` stay 0, one
/// respawn a run, and `epoch_loss` and `final_params` did not move.
/// They were re-recorded once more when the crash became a verdict on
/// the designated trainer's own `crash_after`-th request instead of the
/// server's arrival count, which lets them run threaded. Against
/// `945a80e`'s, the event log of each run differs in exactly two
/// requests: the one that met the crash there (rank 2 or 3), which now
/// meets its own verdict, and rank 2's pull that meets the crash now
/// (step 7 or 8). The report lines that moved are those two pulls' fault
/// counters (`rpc_disconnects` and `server_respawns` where the crash
/// changed trainer, `rpc_retries`, `rpc_timeouts`, `rpc_truncations`,
/// `rpc_delays`) and the simulated times charged for them (`rpc_s`,
/// `planned_s`, `communication_stall_s`, `total_serial_s`, `sim_time_s`,
/// `stall_s`, the overlap efficiencies, `makespan_s`, `load_imbalance`);
/// `epoch_loss` and `final_params` did not move.
/// The four `Baseline` rows were re-recorded when the baseline trainer's
/// clock became a pipeline clock with nothing in flight. Against
/// `366d900`'s, each report moved every trainer's `stall_s` (0 → the
/// waits for its batches) and `overlap_efficiency` (1 → 0), so
/// `mean_overlap_efficiency` too, and one trainer's `sim_time_s` in its
/// last bit — the clock adds `(now + t_prepare) + t_train`, not
/// `now + (t_prepare + t_train)`; at seed 1 that trainer sets the
/// makespan, so `makespan_s` and `load_imbalance` moved in their last
/// bits as well. Counters, breakdowns, `epoch_loss` and `final_params`
/// did not move.
/// The other eight, `Scoreboard` and `ScoreboardTraced`, are the table's
/// first recording.
#[rustfmt::skip]
const PARENT_RUNS: [(Shape, bool, u64, u64); 24] = [
    (Shape::Baseline, false, 1, 0xfd0743c5372a3280),
    (Shape::Baseline, false, 42, 0x491b198fc28c157a),
    (Shape::Baseline, true, 1, 0x23643be6dddeb699),
    (Shape::Baseline, true, 42, 0xdaffcb9ccfad165f),
    (Shape::Scoreboard, false, 1, 0x69845dc5234c3d00),
    (Shape::Scoreboard, false, 42, 0xb258fb0ccf793e2f),
    (Shape::Scoreboard, true, 1, 0x040368a5eb0502b5),
    (Shape::Scoreboard, true, 42, 0x20dfd643441bd534),
    (Shape::Lookahead2, false, 1, 0x2a4007e3acb64df0),
    (Shape::Lookahead2, false, 42, 0xb1debf6ee90c3c54),
    (Shape::Lookahead2, true, 1, 0xc788cfcf3cdbaebf),
    (Shape::Lookahead2, true, 42, 0xd491700fcd6a2651),
    (Shape::ScoreboardTraced, false, 1, 0x44cc148d4de8b204),
    (Shape::ScoreboardTraced, false, 42, 0x9f760a40bdcd3eb1),
    (Shape::ScoreboardTraced, true, 1, 0x1d4c088f0731c31f),
    (Shape::ScoreboardTraced, true, 42, 0xe706284eb3c4fc1e),
    (Shape::ScoreboardHeavy, false, 1, 0x112ae642d3057c1b),
    (Shape::ScoreboardHeavy, false, 42, 0x8b05e46cda19c1b8),
    (Shape::ScoreboardHeavy, true, 1, 0x27fbc2c9f0bd838e),
    (Shape::ScoreboardHeavy, true, 42, 0x0ef0df3a632e464d),
    (Shape::Lookahead2Heavy, false, 1, 0x932e4760a635fc31),
    (Shape::Lookahead2Heavy, false, 42, 0xcb2fbd97888a3f25),
    (Shape::Lookahead2Heavy, true, 1, 0x5bb95222973aed10),
    (Shape::Lookahead2Heavy, true, 42, 0xfbbba3df4d247178),
];

/// `(train_math, seed, learning_fingerprint)` of the `Lookahead2` and
/// `Lookahead2Heavy` runs, recorded on `447e3cd` — the last commit before
/// the planner's eviction order changed. Heavy or not, the runs learn
/// the same: the ladder recovers every row. A change to the policy may
/// re-record the rows above; it may not move these.
const LOOKAHEAD_LEARNING: [(bool, u64, u64); 4] = [
    (false, 1, 0xbeee1fdb9534158f),
    (false, 42, 0x7ea778113be1d2dc),
    (true, 1, 0xbe45cc0f32457e11),
    (true, 42, 0x8e11774daf002ff0),
];

/// `(model, seed, fingerprint)` of the `train_math` `Scoreboard` run with
/// `EngineConfig::model` set: every row above trains the default SAGE, and
/// baseline ≡ prefetch (`oracle_holds_for_gat_too`) passes a change that
/// moves both sides alike. Recorded on `e273fe9`, the last commit with an
/// `impl Model` per architecture.
#[rustfmt::skip]
const PARENT_MODEL_RUNS: [(ModelKind, u64, u64); 4] = [
    (ModelKind::Gat, 1, 0xeb0bdd38234e5712),
    (ModelKind::Gat, 42, 0x17ec5b64afb4c9ca),
    (ModelKind::Gcn, 1, 0xe8dc47ff594cc31f),
    (ModelKind::Gcn, 42, 0x5fc38a0f8156ba9b),
];

fn model_config(model: ModelKind, seed: u64) -> EngineConfig {
    EngineConfig {
        model,
        ..fingerprint_config(Shape::Scoreboard, true, seed)
    }
}

#[test]
fn gat_and_gcn_reproduce_the_parent_reports() {
    for &(model, seed, expect) in &PARENT_MODEL_RUNS {
        let mut cfg = model_config(model, seed);
        let seq = Engine::build(cfg.clone()).run();
        assert!(seq.epoch_loss.iter().all(|l| l.is_finite()), "{model:?}");
        assert_eq!(
            report_fingerprint(&seq),
            expect,
            "sequential scheduler moved: {model:?} seed={seed}"
        );
        cfg.parallel = true;
        assert_eq!(
            report_fingerprint(&Engine::build(cfg).run()),
            expect,
            "threaded scheduler moved: {model:?} seed={seed}"
        );
    }
}

#[test]
fn both_schedulers_reproduce_the_parent_reports() {
    let mut want = Vec::new();
    for shape in Shape::ALL {
        for math in [false, true] {
            for seed in FINGERPRINT_SEEDS {
                want.push((shape, math, seed));
            }
        }
    }
    let have: Vec<_> = PARENT_RUNS.iter().map(|r| (r.0, r.1, r.2)).collect();
    assert_eq!(have, want, "table must cover every shape, math and seed");

    for &(shape, math, seed, expect) in &PARENT_RUNS {
        let mut cfg = fingerprint_config(shape, math, seed);
        let seq = Engine::build(cfg.clone()).run();
        if matches!(shape, Shape::Lookahead2 | Shape::Lookahead2Heavy) {
            let learned = LOOKAHEAD_LEARNING
                .iter()
                .find(|l| (l.0, l.1) == (math, seed))
                .expect("a learning row per math and seed");
            assert_eq!(
                learning_fingerprint(&seq),
                learned.2,
                "the planner changed what a run learns or probes: {shape:?} math={math} seed={seed}"
            );
        }
        assert_eq!(
            report_fingerprint(&seq),
            expect,
            "sequential scheduler moved: {shape:?} math={math} seed={seed}"
        );
        if shape.faulted() {
            let agg = seq.aggregate_metrics();
            assert!(
                agg.rpc_retries > 0 && agg.server_respawns == 1,
                "{shape:?}: ladder idle"
            );
        }
        cfg.parallel = true;
        let par = Engine::build(cfg).run();
        assert_eq!(
            report_fingerprint(&par),
            expect,
            "threaded scheduler moved: {shape:?} math={math} seed={seed}"
        );
    }
}

/// A fault verdict is a function of the request — its id and attempt —
/// and the crash of the designated trainer's own request count, not of
/// when a request reached the server, so a thread per trainer replays the
/// sequential report bit for bit, drops and crash included.
#[test]
fn threaded_chaos_replays_the_sequential_report() {
    for seed in FINGERPRINT_SEEDS {
        let profiles = [
            FaultProfile::light(seed ^ 0xfa17),
            FaultProfile::heavy(seed ^ 0xfa17),
        ];
        for shape in [Shape::Baseline, Shape::Scoreboard, Shape::Lookahead2] {
            for (name, profile) in ["light", "heavy"].into_iter().zip(profiles.clone()) {
                let mut cfg = EngineConfig {
                    fault: Some(profile),
                    ..fingerprint_config(shape, true, seed)
                };
                let seq = Engine::build(cfg.clone()).run();
                let agg = seq.aggregate_metrics();
                assert!(agg.had_faults(), "{shape:?} {name}: nothing fired");
                if name == "heavy" {
                    assert!(agg.rpc_timeouts > 0, "{shape:?} {name}: no drop fired");
                }
                cfg.parallel = true;
                assert_eq!(
                    report_fingerprint(&Engine::build(cfg).run()),
                    report_fingerprint(&seq),
                    "threaded chaos differs: {shape:?} {name} seed={seed}"
                );
            }
        }
    }
}

/// A profile's crash meets one request: the designated trainer's — the
/// lowest rank not on `crash_part` — `crash_after`-th to that part. Every
/// shape that arms a crash issues it: the fingerprint shapes under
/// `heavy`, and the benchmark's `chaos-lookahead` shape at two of its
/// seeds. Under either scheduler a run books exactly one respawn, on the
/// designated trainer (`crash_part` 0 of a 2 × 2 world: rank 2), and the
/// ladder loses no row to it.
#[test]
fn the_designated_crash_is_issued_in_every_shape_that_arms_one() {
    use massivegnn::RetryPolicy;
    let mut runs = Vec::new();
    for seed in FINGERPRINT_SEEDS {
        for shape in [Shape::Baseline, Shape::Scoreboard, Shape::Lookahead2] {
            let cfg = EngineConfig {
                fault: Some(FaultProfile::heavy(seed ^ 0xfa17)),
                ..fingerprint_config(shape, false, seed)
            };
            runs.push((format!("{shape:?} seed={seed}"), cfg));
        }
    }
    for seed in [42, 2718] {
        let chaos_lookahead = EngineConfig {
            dataset: DatasetKind::Products,
            scale: Scale::Small,
            num_parts: 2,
            trainers_per_part: 2,
            batch_size: 128,
            epochs: 2,
            fanouts: vec![10, 25],
            hidden_dim: 64,
            seed,
            mode: Mode::Prefetch(
                PrefetchConfig {
                    f_h: 0.35,
                    ..Default::default()
                }
                .with_lookahead_policy(2),
            ),
            fault: Some(FaultProfile {
                drop_prob: 0.0,
                truncate_prob: 0.10,
                ..FaultProfile::heavy(seed ^ 0xFA01)
            }),
            retry: RetryPolicy {
                max_retries: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        runs.push((format!("chaos-lookahead seed={seed}"), chaos_lookahead));
    }
    for (name, cfg) in runs {
        for parallel in [false, true] {
            let report = Engine::build(EngineConfig {
                parallel,
                ..cfg.clone()
            })
            .run();
            let agg = report.aggregate_metrics();
            assert!(agg.rpc_retries > 0, "{name} parallel={parallel}: no retry");
            assert_eq!(agg.degraded_rows, 0, "{name} parallel={parallel}");
            let respawns: Vec<u64> = report
                .trainers
                .iter()
                .map(|t| t.metrics.server_respawns)
                .collect();
            assert_eq!(
                respawns,
                [0, 0, 1, 0],
                "{name} parallel={parallel}: one respawn, on the designated trainer"
            );
        }
    }
}

/// A run's crash countdown starts afresh: a second `run()` of one
/// `Engine` under `heavy` books the same respawn as the first and
/// replays its report bit for bit, under either scheduler.
#[test]
fn a_second_run_of_one_engine_replays_the_first() {
    for seed in FINGERPRINT_SEEDS {
        for parallel in [false, true] {
            let engine = Engine::build(EngineConfig {
                fault: Some(FaultProfile::heavy(seed ^ 0xfa17)),
                parallel,
                ..fingerprint_config(Shape::Scoreboard, false, seed)
            });
            let first = engine.run();
            let second = engine.run();
            assert_eq!(
                first.aggregate_metrics().server_respawns,
                1,
                "seed={seed} parallel={parallel}"
            );
            assert_eq!(
                report_fingerprint(&second),
                report_fingerprint(&first),
                "seed={seed} parallel={parallel}: the second run differs"
            );
        }
    }
}

/// What a build makes does not depend on `mode`: two builds that differ
/// only in it hold the same partitions, feed every trainer the same
/// shard and sampler, and step the same number of times an epoch. So one
/// engine can run any mode ([`Engine::run_as`]).
#[test]
fn a_build_does_not_read_the_mode() {
    let shapes = [Shape::Baseline, Shape::Scoreboard, Shape::Lookahead2];
    let engines = shapes.map(|shape| Engine::build(fingerprint_config(shape, false, 42)));
    let [first, rest @ ..] = &engines;
    for (shape, other) in shapes[1..].iter().zip(rest) {
        assert_eq!(
            other.steps_per_epoch(),
            first.steps_per_epoch(),
            "{shape:?}"
        );
        assert_eq!(other.world(), first.world(), "{shape:?}");
        for (a, b) in first.partitions().iter().zip(other.partitions()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{shape:?}: partition");
        }
        for t in 0..first.world() {
            let (part_a, loader_a, sampler_a) = first.trainer_inputs(t);
            let (part_b, loader_b, sampler_b) = other.trainer_inputs(t);
            assert_eq!(part_a.part_id, part_b.part_id, "{shape:?}: trainer {t}");
            assert_eq!(sampler_a, sampler_b, "{shape:?}: trainer {t}");
            for epoch in 0..3 {
                assert_eq!(
                    loader_a.epoch(epoch),
                    loader_b.epoch(epoch),
                    "{shape:?}: trainer {t} epoch {epoch}"
                );
            }
        }
    }
}

/// One engine runs a sequence of modes, and each run reports exactly
/// what a fresh engine built for that mode reports — under either
/// scheduler, traced, under `light` and under `heavy`, whose crash
/// re-arms for every run.
#[test]
fn run_as_matches_a_fresh_build_of_each_mode() {
    let seed = 42;
    let scoreboard = PrefetchConfig {
        f_h: 0.25,
        gamma: 0.95,
        delta: 4,
        ..Default::default()
    };
    let modes = [
        (
            "lookahead",
            Mode::Prefetch(scoreboard.with_lookahead_policy(2)),
        ),
        ("baseline", Mode::Baseline),
        ("scoreboard+evict", Mode::Prefetch(scoreboard)),
        (
            "mem-efficient, no eviction",
            Mode::Prefetch(PrefetchConfig {
                layout: ScoreLayout::MemEfficient,
                ..scoreboard.without_eviction()
            }),
        ),
        ("baseline again", Mode::Baseline),
    ];
    let profiles = [
        ("light", FaultProfile::light(seed ^ 0xfa17)),
        ("heavy", FaultProfile::heavy(seed ^ 0xfa17)),
    ];
    for (profile_name, profile) in profiles {
        let cfg = EngineConfig {
            fault: Some(profile),
            ..fingerprint_config(Shape::ScoreboardTraced, false, seed)
        };
        let fresh: Vec<u64> = modes
            .iter()
            .map(|&(_, mode)| {
                let r = Engine::build(EngineConfig {
                    mode,
                    ..cfg.clone()
                })
                .run();
                assert!(!r.traces.is_empty());
                report_fingerprint(&r)
            })
            .collect();
        for parallel in [false, true] {
            let engine = Engine::build(EngineConfig {
                parallel,
                ..cfg.clone()
            });
            for (&(name, mode), &expect) in modes.iter().zip(&fresh) {
                let r = engine.run_as(mode).expect("valid mode");
                if profile_name == "heavy" {
                    assert_eq!(r.aggregate_metrics().server_respawns, 1, "{name}");
                }
                assert_eq!(
                    report_fingerprint(&r),
                    expect,
                    "{name} under {profile_name}, parallel={parallel}: differs from a fresh build"
                );
            }
        }
    }
}

/// A mode a run cannot survive is refused before the run starts, with
/// the field named — as `Engine::build` refuses it in the configuration.
#[test]
fn run_as_rejects_an_invalid_mode_by_name() {
    let engine = Engine::build(fingerprint_config(Shape::Baseline, false, 42));
    let base = PrefetchConfig::default();
    for (field, pcfg) in [
        ("delta", PrefetchConfig { delta: 0, ..base }),
        ("depth", base.with_lookahead_policy(0)),
        ("f_h", PrefetchConfig { f_h: 1.5, ..base }),
    ] {
        let err = engine
            .run_as(Mode::Prefetch(pcfg))
            .err()
            .unwrap_or_else(|| panic!("{field}: accepted"));
        assert!(err.contains(field), "{field}: {err}");
    }
    assert!(engine.run_as(Mode::Baseline).is_ok());
}

/// The partitioner is an argument of the constructor: naming the default
/// changes nothing, and an assignment the multilevel partitioner did not
/// make (hash: every other node remote, halo fractions near 1) runs
/// through both schedulers bit for bit.
#[test]
fn the_partitioner_is_an_argument_and_any_assignment_runs_on_both_schedulers() {
    use mgnn_partition::{hash::hash_partition, multilevel_partition};
    for shape in [Shape::Baseline, Shape::Scoreboard, Shape::Lookahead2] {
        let mut cfg = fingerprint_config(shape, true, 42);
        assert_eq!(
            report_fingerprint(&Engine::build_with(cfg.clone(), multilevel_partition).run()),
            report_fingerprint(&Engine::build(cfg.clone()).run()),
            "{shape:?}: build_with(multilevel_partition) is not build"
        );
        let hash = |g: &_, k, _| hash_partition(g, k);
        let seq = Engine::build_with(cfg.clone(), hash).run();
        assert!(seq.aggregate_metrics().remote_nodes_fetched > 0);
        cfg.parallel = true;
        assert_eq!(
            report_fingerprint(&Engine::build_with(cfg, hash).run()),
            report_fingerprint(&seq),
            "{shape:?}: threaded scheduler differs on a hash assignment"
        );
    }
}

/// `cargo test --release -p mgnn-bench --test integration_engine -- --ignored --nocapture`
/// prints the table in source form.
#[test]
#[ignore = "prints the fingerprint table; run on the commit whose bits are the reference"]
fn print_engine_fingerprints() {
    for shape in Shape::ALL {
        for math in [false, true] {
            for seed in FINGERPRINT_SEEDS {
                let r = Engine::build(fingerprint_config(shape, math, seed)).run();
                println!(
                    "    (Shape::{shape:?}, {math}, {seed}, {:#018x}),",
                    report_fingerprint(&r)
                );
            }
        }
    }
    for model in [ModelKind::Gat, ModelKind::Gcn] {
        for seed in FINGERPRINT_SEEDS {
            let r = Engine::build(model_config(model, seed)).run();
            println!(
                "    (ModelKind::{model:?}, {seed}, {:#018x}),",
                report_fingerprint(&r)
            );
        }
    }
}
