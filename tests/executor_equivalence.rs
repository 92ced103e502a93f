//! The schedule-driven executor's two contracts, end to end:
//!
//! 1. **Numerics are schedule- and placement-independent.** Executing
//!    the verified DAGs on resource pools — at any worker count per pool,
//!    under either offload schedule, wherever the host capacity has the
//!    f32 masters rest — produces bitwise-identical losses and master
//!    weights to plain in-memory training, and then eval losses and
//!    generated tokens to its forward passes, across a small zoo of
//!    model shapes.
//! 2. **The static verifier guards dispatch.** Mutating the lowered
//!    plan by dropping a dependency edge is caught by the same
//!    `ratel-verify` pass that debug builds run before the executor
//!    ever sees the graph.

mod common;

use common::{config_with, min_host_capacity, zoo};
use ratel_repro::core::engine::sample_from_logits;
use ratel_repro::core::schedule::IterationSpec;
use ratel_repro::prelude::*;
use ratel_repro::storage::{Route, Tier};

/// Micro-batch counts of the accumulated steps every run ends with.
const MICRO_BATCHES: [usize; 3] = [1, 2, 4];

/// The micro-batches of the accumulated step of `n` of them.
fn micro_batches(model: &GptConfig, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    (0..n as u64).map(|s| random_batch(model, 20 + s)).collect()
}

/// Every run trains with block 0 frozen under a loss scale that
/// overflows on the first step (every update skipped) and backs off to
/// one that trains.
const FROZEN: usize = 1;
const SCALE: ScalePolicy = ScalePolicy::Dynamic {
    init: 1e30,
    backoff: 1e-27,
    growth: 2.0,
    growth_interval: 50,
};

/// What the trained model's forward passes give: the bits of the eval
/// loss on one batch, then the tokens greedy decoding picks after a
/// prompt, and those one seeded sampler picks.
type Forward = (u32, [Vec<usize>; 2]);

/// The prompt the forward passes continue, and how many tokens.
const PROMPT: [usize; 3] = [5, 1, 7];
const NEW_TOKENS: usize = 4;

/// The seeded sampling rule of the forward passes.
fn sampler(seed: u64) -> impl FnMut(&[f32]) -> usize {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    move |logits| sample_from_logits(logits, 0.9, 8, &mut rng)
}

/// The in-memory reference's forward passes: its eval loss and its
/// position-major decode.
fn reference_forward(reference: &ReferenceTrainer, model: &GptConfig) -> Forward {
    let (t, y) = random_batch(model, 40);
    let greedy = reference.decode(&PROMPT, NEW_TOKENS, |logits| {
        (0..logits.len())
            .max_by(|&a, &b| logits[a].total_cmp(&logits[b]))
            .unwrap()
    });
    let sampled = reference.decode(&PROMPT, NEW_TOKENS, sampler(3));
    (reference.eval_loss(&t, &y).to_bits(), [greedy, sampled])
}

/// The engine's: `eval_loss`, then `generate` and `generate_cached`
/// (both greedy, which must agree) and `generate_sampled`.
fn engine_forward(engine: &mut RatelEngine, model: &GptConfig) -> Forward {
    let (t, y) = random_batch(model, 40);
    let loss = engine.eval_loss(&t, &y).unwrap();
    let greedy = engine.generate(&PROMPT, NEW_TOKENS).unwrap();
    let cached = engine.generate_cached(&PROMPT, NEW_TOKENS).unwrap();
    assert_eq!(greedy, cached, "generate and generate_cached");
    let sampled = engine
        .generate_sampled(&PROMPT, NEW_TOKENS, 0.9, 8, 3)
        .unwrap();
    (loss.to_bits(), [cached, sampled])
}

/// Run three plain training steps and one accumulated step of each of
/// [`MICRO_BATCHES`], then the forward passes, returning the losses,
/// final masters and [`Forward`]. Every step must move exactly the
/// bytes of the DAG it ran, and every run stay inside the arena and the
/// host pool.
fn run(config: EngineConfig) -> (Vec<f32>, Vec<Vec<f32>>, Forward) {
    let model = config.model;
    let capacities = [
        (Tier::Gpu, config.gpu_capacity),
        (Tier::Host, config.host_capacity),
    ];
    let mut engine = RatelEngine::new(config).unwrap();
    let spec = engine.movement_spec().clone();
    let planned = |micro_batches| {
        let spec = IterationSpec {
            micro_batches,
            ..spec.clone()
        };
        spec.planned_route_bytes()
    };
    let mut losses = Vec::new();
    for s in 0..3 {
        let (t, y) = random_batch(&model, 7 + s);
        let stats = engine.train_step(&t, &y).unwrap();
        let trained = engine.layer_count() - 1;
        assert_eq!(stats.skipped_layers, if s == 0 { trained } else { 0 });
        // (A skipped update publishes no fresh P16 to the SSD tier.)
        if stats.skipped_layers == 0 {
            assert_eq!(Route::ALL.map(|r| stats.traffic.bytes(r)), planned(1));
        }
        losses.push(stats.loss);
    }
    for n in MICRO_BATCHES {
        let stats = engine
            .train_step_accumulated(&micro_batches(&model, n))
            .unwrap();
        assert_eq!(stats.skipped_layers, 0);
        let moved = Route::ALL.map(|r| stats.traffic.bytes(r));
        assert_eq!(moved, planned(n), "{n} micro-batches");
        losses.push(stats.loss);
    }
    let forward = engine_forward(&mut engine, &model);
    assert_eq!(engine.store().used(Tier::Gpu), 0);
    assert_eq!(engine.store().used(Tier::Host), engine.host_state_bytes());
    for (tier, capacity) in capacities {
        if let Some(capacity) = capacity {
            let peak = engine.store().peak_used(tier);
            assert!(0 < peak && peak <= capacity, "{tier:?} peaked at {peak} B");
        }
    }
    let masters = (0..engine.layer_count())
        .map(|l| engine.master_params(l).unwrap())
        .collect();
    (losses, masters, forward)
}

/// The host capacities that give `config` each placement: none (every
/// master host-resident) and the smallest the plan accepts (the paper's,
/// every state on the SSD tier).
fn placements(config: &EngineConfig) -> [Option<u64>; 2] {
    [None, Some(min_host_capacity(config))]
}

/// Pool-parallel DAG execution is bitwise-equal to the in-memory
/// reference, for 1/2/4 workers per pool, both offload schedules and
/// both placements, across the model zoo: with a frozen layer, through
/// an overflow-skipped update, plain steps and accumulated ones of 1, 2
/// and 4 micro-batches, then an eval and greedy, cached and sampled
/// decoding of the trained model.
#[test]
fn executor_matches_the_reference_across_the_zoo() {
    for shape in zoo() {
        let model = shape.model;
        // The ground truth: everything in memory.
        let mut reference =
            ReferenceTrainer::with_policy(model, 1234, AdamParams::default(), SCALE, None)
                .with_frozen_layers(vec![FROZEN]);
        let mut ref_losses: Vec<f32> = (0..3)
            .map(|s| {
                let (t, y) = random_batch(&model, 7 + s);
                reference.train_step(&t, &y)
            })
            .collect();
        for n in MICRO_BATCHES {
            ref_losses.push(reference.train_step_accumulated(&micro_batches(&model, n)));
        }
        let ref_masters: Vec<Vec<f32>> = (0..model.layers + 2)
            .map(|l| reference.master_params(l).to_vec())
            .collect();
        let ref_forward = reference_forward(&reference, &model);
        let bits = |losses: &[f32]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();

        for workers in [1usize, 2, 4] {
            for offload in [
                GradOffloadMode::OptimizedActive,
                GradOffloadMode::SeparateStage,
            ] {
                let execution = ExecutionOptions::Executor(ExecutorOptions {
                    workers_per_pool: workers,
                    offload,
                });
                let config = EngineConfig {
                    frozen_layers: vec![FROZEN],
                    loss_scale: SCALE,
                    ..config_with(&shape, execution)
                };
                for host_capacity in placements(&config) {
                    let what = format!(
                        "{model:?} with {workers} workers, {offload:?}, host {host_capacity:?}"
                    );
                    let (losses, masters, forward) = run(EngineConfig {
                        host_capacity,
                        ..config.clone()
                    });
                    assert_eq!(bits(&losses), bits(&ref_losses), "{what}");
                    assert_eq!(masters, ref_masters, "{what}");
                    assert_eq!(forward, ref_forward, "{what}");
                }
            }
        }
    }
}

/// Dropping a staging edge from the lowered plan is caught by the static
/// verifier — the check debug builds run on every plan before dispatch.
#[test]
fn dropped_dependency_edges_are_caught_before_dispatch() {
    use ratel_repro::core::verify::Limits;
    use ratel_repro::sim::TaskKind;

    let shape = &zoo()[0];
    let model = shape.model;
    let engine = RatelEngine::new(config_with(shape, ExecutionOptions::default())).unwrap();
    let (mut graph, _, _) = engine.movement_spec().build();
    let base = ratel_repro::core::verify::verify(&graph, &Limits::none());
    assert!(base.is_clean(), "{}", base.render());

    // Every staging edge — a fetch/read feeding the compute or write
    // that consumes it — must be load-bearing: drop it and the verifier
    // reports a violation.
    let staged_pairs = [
        (TaskKind::FwdFetch, TaskKind::Fwd),
        (TaskKind::BwdFetch, TaskKind::Bwd),
        (TaskKind::ActUp, TaskKind::Bwd),
        (TaskKind::OptRead, TaskKind::OptCpu),
        (TaskKind::OptCpu, TaskKind::OptWrite),
    ];
    let kind_of = |g: &ratel_repro::sim::TaskGraph, t| {
        g.meta(t)
            .and_then(|m| m.identity)
            .map(|id| id.kind)
            .expect("every plan task carries a typed identity")
    };
    let edges: Vec<_> = graph
        .edges()
        .map(|e| {
            let d: ratel_repro::sim::TaskId = e.from;
            let t: ratel_repro::sim::TaskId = e.to;
            (d, t)
        })
        .collect();
    let mut mutations_caught = 0usize;
    for &(dep, task) in &edges {
        let dep_label = graph.label(dep).unwrap_or("").to_string();
        let task_label = graph.label(task).unwrap_or("").to_string();
        let staging = staged_pairs.contains(&(kind_of(&graph, dep), kind_of(&graph, task)));
        if !staging {
            continue;
        }
        assert!(graph.remove_dep(task, dep), "{dep_label} -> {task_label}");
        let report = ratel_repro::core::verify::verify(&graph, &Limits::none());
        assert!(
            !report.is_clean(),
            "dropping `{dep_label}` -> `{task_label}` went unnoticed"
        );
        mutations_caught += 1;
        // Restore the edge and confirm the plan is whole again.
        graph.add_dep(task, dep);
        let healed = ratel_repro::core::verify::verify(&graph, &Limits::none());
        assert!(healed.is_clean(), "{}", healed.render());
    }
    assert!(
        mutations_caught >= 2 * model.layers + 4,
        "only {mutations_caught} staging edges found"
    );

    // Seeded random sweep over the remaining edges: a mutation may be
    // masked by a transitive path, but the verifier must never accept a
    // graph and then fail on the healed one — and a healthy share of all
    // edges must be load-bearing.
    let mut lcg = 0x5eed_cafe_u64;
    let mut caught = 0usize;
    let mut tried = 0usize;
    for _ in 0..32 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (dep, task) = edges[(lcg >> 33) as usize % edges.len()];
        if !graph.remove_dep(task, dep) {
            continue; // already dropped by an earlier duplicate pick
        }
        tried += 1;
        if !ratel_repro::core::verify::verify(&graph, &Limits::none()).is_clean() {
            caught += 1;
        }
        graph.add_dep(task, dep);
    }
    assert!(tried > 0);
    assert!(
        caught * 2 >= tried,
        "verifier caught only {caught}/{tried} random edge drops"
    );
}

/// In a step of two micro-batches every edge from the first to the second
/// is load-bearing, and each placement's verifier proves it: the compute
/// stream and the accumulator chain (each `grad-off` → the next
/// micro-batch's first staging task) and each reused staging key (a
/// pass's P16, refilled only after the earlier micro-batch consumed it).
#[test]
fn dropped_edges_between_micro_batches_are_caught() {
    use ratel_repro::core::verify::{verify, Limits};
    use ratel_repro::sim::{TaskGraph, TaskId, TaskKind};

    let shape = &zoo()[0];
    let config = EngineConfig {
        frozen_layers: vec![FROZEN],
        ..config_with(shape, ExecutionOptions::default())
    };
    for host_capacity in placements(&config) {
        let engine = RatelEngine::new(EngineConfig {
            host_capacity,
            ..config.clone()
        })
        .unwrap();
        let spec = IterationSpec {
            micro_batches: 2,
            ..engine.movement_spec().clone()
        };
        let (mut graph, _, _) = spec.build();
        let base = verify(&graph, &Limits::none());
        assert!(base.is_clean(), "{}", base.render());
        let identity = |g: &TaskGraph, t: TaskId| g.meta(t).and_then(|m| m.identity).unwrap();
        let between: Vec<(TaskId, TaskId)> = (graph.edges())
            .filter(|e| identity(&graph, e.from).micro < identity(&graph, e.to).micro)
            .map(|e| (e.from, e.to))
            .collect();
        let kinds: Vec<_> = (between.iter())
            .map(|&(d, t)| (identity(&graph, d).kind, identity(&graph, t).kind))
            .collect();
        // The first staging task of a pass: a read from the SSD tier, or
        // a fetch rounded from a resident master.
        let [forward, backward] = match host_capacity {
            None => [TaskKind::FwdFetch, TaskKind::BwdFetch],
            Some(_) => [TaskKind::FwdRead, TaskKind::BwdRead],
        };
        for pair in [(TaskKind::GradOff, forward), (TaskKind::Bwd, backward)] {
            assert!(kinds.contains(&pair), "{host_capacity:?}: no {pair:?} edge");
        }
        for &(dep, task) in &between {
            let what = format!(
                "{host_capacity:?}: `{}` -> `{}`",
                graph.label(dep).unwrap(),
                graph.label(task).unwrap()
            );
            assert!(graph.remove_dep(task, dep), "{what}");
            assert!(
                !verify(&graph, &Limits::none()).is_clean(),
                "{what} went unnoticed"
            );
            graph.add_dep(task, dep);
        }
    }
}
