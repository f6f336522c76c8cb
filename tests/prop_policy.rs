//! Prefetch-policy neutrality properties: the planner (DESIGN §10)
//! changes *when* halo rows are fetched, never *what* the trainer
//! computes on. Scoreboard and lookahead runs on the same seed must
//! therefore produce identical per-epoch losses, accuracies, and final
//! parameters — at any kernel-pool width, and under the `light` fault
//! profile (whose drops/delays/truncations the retry ladder fully
//! recovers, and whose failed rows the planner refuses to install).
//!
//! Below them, the lookahead planner's own invariants, stated directly
//! and checked round by round against an oracle that samples the same
//! schedule itself: capacity, Belady's order of eviction, failed rows
//! staying out, no miss the buffer had room to avoid, the window
//! cadence, and past the window the coldest rows leaving first.

use massivegnn::init::initialize_prefetcher;
use massivegnn::{
    Engine, EngineConfig, FaultProfile, LookaheadPolicy, Mode, PrefetchConfig, RetryPolicy,
};
use mgnn_graph::{Dataset, DatasetKind, Scale};
use mgnn_net::{wire, CommMetrics, CostModel, SimCluster};
use mgnn_partition::{build_local_partitions, multilevel_partition, LocalPartition, Partitioning};
use mgnn_sampling::{DataLoader, NeighborSampler};
use proptest::prelude::*;
use std::time::Duration;

fn policy_config(seed: u64, fault: Option<FaultProfile>, pcfg: PrefetchConfig) -> EngineConfig {
    EngineConfig {
        seed,
        // Two epochs so the planner crosses an epoch-plan boundary and
        // the second epoch runs against a warm (planned) buffer.
        epochs: 2,
        batch_size: 64,
        fanouts: vec![4, 4],
        hidden_dim: 16,
        train_math: true,
        // Dropped replies are detected by wall-clock timeout; keep the
        // retry wait short so `light`'s 2% drops cost milliseconds.
        retry: RetryPolicy {
            timeout: Duration::from_millis(50),
            ..Default::default()
        },
        mode: Mode::Prefetch(pcfg),
        fault,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lookahead_losses_match_scoreboard(
        run_seed in 0u64..1000,
        depth_sel in 0u32..3,
        width_sel in 0u32..2,
    ) {
        let width = if width_sel == 1 { 4 } else { 1 };
        let depth = 1usize << depth_sel; // 1, 2 or 4
        let pcfg = PrefetchConfig {
            f_h: 0.25,
            delta: 4,
            ..Default::default()
        };
        let scoreboard = rayon::pool::with_max_threads(width, || {
            Engine::build(policy_config(run_seed, None, pcfg)).run()
        });
        let lookahead = rayon::pool::with_max_threads(width, || {
            Engine::build(policy_config(
                run_seed,
                None,
                pcfg.with_lookahead_policy(depth),
            ))
            .run()
        });
        prop_assert_eq!(&scoreboard.epoch_loss, &lookahead.epoch_loss);
        prop_assert_eq!(&scoreboard.epoch_acc, &lookahead.epoch_acc);
        prop_assert_eq!(&scoreboard.final_params, &lookahead.final_params);
    }

    #[test]
    fn lookahead_losses_match_scoreboard_under_light_chaos(
        run_seed in 0u64..1000,
        fault_seed in 0u64..1000,
        depth_sel in 0u32..3,
    ) {
        // Chaos replay is pinned to the sequential engine (stable
        // per-server request indices). The planner pulls through the
        // same faulted transport but skips installing failed rows, so
        // every feature the trainer reads is still the server's truth
        // and the training trajectory cannot diverge.
        let depth = 1usize << depth_sel;
        let pcfg = PrefetchConfig {
            f_h: 0.25,
            delta: 4,
            ..Default::default()
        };
        let fault = Some(FaultProfile::light(fault_seed));
        let scoreboard =
            Engine::build(policy_config(run_seed, fault.clone(), pcfg)).run();
        let lookahead = Engine::build(policy_config(
            run_seed,
            fault,
            pcfg.with_lookahead_policy(depth),
        ))
        .run();
        prop_assert_eq!(&scoreboard.epoch_loss, &lookahead.epoch_loss);
        prop_assert_eq!(&scoreboard.epoch_acc, &lookahead.epoch_acc);
        prop_assert_eq!(&scoreboard.final_params, &lookahead.final_params);
    }
}

/// How the cluster under the planner behaves.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Transport {
    FaultFree,
    /// `FaultProfile::light` with no retries, so that a few percent of
    /// the pulls really do exhaust their ladder.
    LightNoRetry,
    /// Every reply truncated and no retries: no pull ever delivers.
    Blackout,
}

/// Epochs of a planner check.
const EPOCHS: usize = 2;

/// What a graph seed fixes: one trainer's partition, its schedule, and
/// the oracle — the halo indices every step of that schedule probes,
/// sampled by the test itself.
struct Schedule {
    graph_seed: u64,
    dataset: Dataset,
    partitioning: Partitioning,
    part: LocalPartition,
    loader: DataLoader,
    sampler: NeighborSampler,
    probes: Vec<Vec<u32>>,
}

impl Schedule {
    fn new(graph_seed: u64) -> Self {
        let dataset = Dataset::generate(DatasetKind::Products, Scale::Unit, graph_seed);
        let partitioning = multilevel_partition(&dataset.graph, 2, graph_seed);
        let part =
            build_local_partitions(&dataset.graph, &partitioning, &dataset.train_nodes).remove(0);
        let shard = part
            .train_nodes
            .iter()
            .map(|&g| part.local_id(g).expect("train node in its partition"))
            .collect();
        let loader = DataLoader::new(shard, 48, graph_seed ^ 1);
        let sampler = NeighborSampler::new(vec![4, 4], graph_seed ^ 2);
        let per_epoch = loader.batches_per_epoch();
        let num_local = part.num_local();
        let probes = (0..(EPOCHS * per_epoch) as u64)
            .map(|g| {
                let epoch = g / per_epoch as u64;
                let seeds = &loader.epoch(epoch)[g as usize % per_epoch];
                let mb = sampler.sample(&part, seeds, epoch, g);
                let (_, halo) = mb.split_local_halo(num_local);
                halo.iter().map(|&lid| lid - num_local as u32).collect()
            })
            .collect();
        Schedule {
            graph_seed,
            dataset,
            partitioning,
            part,
            loader,
            sampler,
            probes,
        }
    }
}

/// One trainer's lookahead prefetcher driven step by step through
/// `prepare`, with every invariant of the planner checked after every
/// step against the schedule's oracle.
fn check_planner_round_by_round(world: &Schedule, f_h: f64, depth: usize, transport: Transport) {
    let Schedule {
        graph_seed,
        dataset,
        partitioning,
        part,
        loader,
        sampler,
        probes,
    } = world;
    let fault = match transport {
        Transport::FaultFree => None,
        Transport::LightNoRetry => Some(FaultProfile::light(graph_seed ^ 0xfa17)),
        Transport::Blackout => Some(FaultProfile {
            truncate_prob: 1.0,
            ..FaultProfile::off(*graph_seed)
        }),
    };
    let retry = RetryPolicy {
        max_retries: 0,
        timeout: Duration::from_millis(50),
        ..Default::default()
    };
    let cluster =
        SimCluster::with_faults(&dataset.features, &partitioning.assignment, 2, fault, retry);
    let per_epoch = loader.batches_per_epoch();
    let total = probes.len() as u64;
    let (cost, metrics) = (CostModel::default(), CommMetrics::new());
    let pcfg = PrefetchConfig {
        f_h,
        ..Default::default()
    };
    let (mut pf, _) =
        initialize_prefetcher(part, pcfg, dataset.num_nodes(), &cluster, &cost, &metrics);
    pf.set_policy(Box::new(LookaheadPolicy::new(
        depth,
        loader.clone(),
        sampler.clone(),
        per_epoch,
        EPOCHS,
        part.num_halo(),
    )));

    let seeds_of = |g: u64| loader.epoch(g / per_epoch as u64)[g as usize % per_epoch].clone();
    // First step of `window` that probes each halo row, if any does.
    let first_uses = |window: std::ops::RangeInclusive<u64>| {
        let mut first = vec![None; part.num_halo()];
        for f in window.rev() {
            for &h in &probes[f as usize] {
                first[h as usize] = Some(f);
            }
        }
        first
    };
    let resident = |pf: &massivegnn::Prefetcher| -> Vec<bool> {
        (0..part.num_halo() as u32)
            .map(|h| pf.buffer.contains(h))
            .collect()
    };

    // How many of the steps `0..counted_through` probe each halo row.
    let (mut probed_by, mut counted_through) = (vec![0u32; part.num_halo()], 0usize);
    let (mut next_plan, mut windows, mut forced) = (0u64, 0u64, 0u64);
    let mut last_misses = 0;
    let mut carcass = None;
    for g in 0..total {
        let before = resident(&pf);
        let pulls_before = metrics.snapshot().planned_pulls;
        // The cadence: a round at the first step not planned yet, and
        // ahead of that only for a row that was left out of the buffer
        // and is probed now (or was, by the step just before: where it is
        // probed next only a fresh walk can tell).
        let starts_window = g == next_plan;
        let due_now = last_misses > 0 || probes[g as usize].iter().any(|&h| !before[h as usize]);
        let batch = pf.prepare_reuse(
            carcass.take(),
            part,
            sampler,
            &seeds_of(g),
            g / per_epoch as u64,
            g,
            &cluster,
            &cost,
            &metrics,
        );
        let after = resident(&pf);
        let pulled = metrics.snapshot().planned_pulls - pulls_before;
        let at = format!("step {g} f_h {f_h} depth {depth} {transport:?}");

        // Capacity is never exceeded, and the buffer stays well-formed.
        assert!(pf.buffer.len() <= pf.buffer.capacity(), "{at}");
        pf.buffer.check_invariants().expect(&at);

        if starts_window || due_now {
            windows += u64::from(starts_window);
            forced += u64::from(!starts_window);
            next_plan = g + depth as u64 + 1;
            assert!(pulled <= 1, "{at}: one pull per round");
        } else {
            // In between, the planner plans nothing, pulls nothing and
            // charges exactly nothing — and nothing it left out is missed.
            assert_eq!(before, after, "{at}: buffer written between rounds");
            assert_eq!(pulled, 0, "{at}");
            assert_eq!(batch.timing.t_planned.to_bits(), 0.0f64.to_bits(), "{at}");
            assert_eq!(batch.counts.misses, 0, "{at}");
        }

        // Belady's order. What a round installs is probed by its window;
        // an occupant the window does not probe goes before one it does;
        // and no occupant is displaced by a want that is due later than
        // the occupant's own next use.
        let first = first_uses(g..=(g + depth as u64).min(total - 1));
        let rows = |keep: &dyn Fn(usize) -> bool| -> Vec<usize> {
            (0..part.num_halo()).filter(|&h| keep(h)).collect()
        };
        let installed = rows(&|h| after[h] && !before[h]);
        let displaced_live = rows(&|h| before[h] && !after[h] && first[h].is_some());
        let latest_due = installed
            .iter()
            .map(|&h| first[h].unwrap_or_else(|| panic!("{at}: installed row {h} has no use")))
            .max();
        if let Some(&soonest) = displaced_live.iter().map(|&h| &first[h]).min() {
            assert!(
                soonest > latest_due,
                "{at}: {soonest:?} displaced for {latest_due:?}"
            );
            assert!(
                rows(&|h| after[h] && first[h].is_none()).is_empty(),
                "{at}: a needed row evicted while an unneeded one stays"
            );
        }

        // Past the window, coldest first. Among the occupants the window
        // does not probe, no evicted row was probed by more of the steps
        // planned so far — all of them up to this round's horizon — than
        // a row that stayed, and at equal counts none has the higher
        // degree (which of two equal rows goes is the slot's to decide).
        let horizon = (g as usize + depth).min(probes.len() - 1);
        for step_probes in &probes[counted_through..=horizon] {
            for &h in step_probes {
                probed_by[h as usize] += 1;
            }
        }
        counted_through = horizon + 1;
        let coldness = |h: &usize| (probed_by[*h], part.halo_degree[*h]);
        let hottest_evicted = rows(&|h| before[h] && !after[h] && first[h].is_none())
            .iter()
            .map(coldness)
            .max();
        let coldest_kept = rows(&|h| before[h] && after[h] && first[h].is_none())
            .iter()
            .map(coldness)
            .min();
        if let (Some(evicted), Some(kept)) = (hottest_evicted, coldest_kept) {
            assert!(
                evicted <= kept,
                "{at}: (probes, degree) {evicted:?} evicted, {kept:?} kept"
            );
        }

        // A row whose fetch failed is not resident after the round: what
        // a round installs is the owner's row as the wire carries it,
        // never the zeros a failed row decodes to.
        for &h in &installed {
            let g_id = part.halo_nodes[h];
            let truth: Vec<f32> = cluster
                .store(cluster.owner(g_id))
                .row(g_id)
                .iter()
                .map(|&x| wire::round_trip(x))
                .collect();
            let slot = pf.buffer.slot_of(h as u32).unwrap();
            assert_eq!(pf.buffer.row(slot), truth, "{at}: row {h}");
        }
        match transport {
            Transport::Blackout => assert!(installed.is_empty(), "{at}"),
            // With faults off, every halo row a step probes is resident,
            // unless the buffer is full of rows this very step probes.
            Transport::FaultFree => assert!(
                batch.counts.misses == 0 || batch.counts.hits == pf.buffer.capacity(),
                "{at}: {} misses with room to avoid them",
                batch.counts.misses
            ),
            Transport::LightNoRetry => {}
        }
        last_misses = batch.counts.misses;
        carcass = Some(batch);
    }
    // One round per window of `depth + 1` steps, plus the rounds a due
    // left-out row forced; at most one pull each.
    assert!(windows <= total.div_ceil(depth as u64 + 1));
    let pulls = metrics.snapshot().planned_pulls;
    assert!(
        pulls <= windows + forced,
        "{pulls} planned pulls from {windows} windows + {forced} forced rounds"
    );
    if transport == Transport::FaultFree && f_h >= 1.0 {
        assert_eq!(
            forced, 0,
            "a buffer that holds every row leaves nothing out"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn planner_invariants_hold_round_by_round(graph_seed in 0u64..1000) {
        let world = Schedule::new(graph_seed);
        // From a buffer a single step overflows to one that holds every
        // halo row, at every horizon, over every transport.
        for f_h in [0.05, 0.25, 0.5, 0.8, 1.0] {
            for depth in [1, 2, 4] {
                for transport in [
                    Transport::FaultFree,
                    Transport::LightNoRetry,
                    Transport::Blackout,
                ] {
                    check_planner_round_by_round(&world, f_h, depth, transport);
                }
            }
        }
    }
}
