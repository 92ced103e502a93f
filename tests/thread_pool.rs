//! No OS thread starts at steady state: the executor's workers and the
//! kernels' band threads are the process pool's parked threads, handed
//! each run and each fan-out rather than spawned for it. After one
//! warm-up step, twenty steps, an eval and a cached generation start
//! none. One `#[test]` in its own binary, because the count is
//! process-wide.

mod common;

use ratel_repro::prelude::*;
use ratel_repro::tensor::{parallel_stats, pool_stats};

/// Blocks that swap to the SSD, to host memory and recompute, so every
/// resource pool has tasks; hidden 128 over 32 rows, so the GEMMs are
/// tiled and fan out to the band threads.
fn shape() -> common::Shape {
    common::Shape {
        model: GptConfig {
            vocab: 64,
            seq: 16,
            hidden: 128,
            heads: 4,
            layers: 3,
            batch: 2,
        },
        decisions: [
            ActDecision::SwapToSsd,
            ActDecision::SwapToHost,
            ActDecision::Recompute,
        ],
        gpu_capacity: None,
    }
}

#[test]
fn steps_an_eval_and_a_generation_start_no_thread_once_warm() {
    let shape = shape();
    let model = shape.model;
    let config = common::config_with(&shape, ExecutionOptions::default());
    let mut engine = RatelEngine::new(config).unwrap();
    let (tokens, targets) = random_batch(&model, 1);
    engine.train_step(&tokens, &targets).unwrap();
    let warm = pool_stats();
    assert!(warm.workers > 0, "the step ran on pool workers: {warm:?}");
    let (pooled, _) = parallel_stats();

    for step in 0..20 {
        let (tokens, targets) = random_batch(&model, 2 + step);
        engine.train_step(&tokens, &targets).unwrap();
    }
    let (tokens, targets) = random_batch(&model, 100);
    engine.eval_loss(&tokens, &targets).unwrap();
    engine.generate_cached(&[1, 2, 3], 4).unwrap();

    let after = pool_stats();
    assert_eq!(
        after.threads_started, warm.threads_started,
        "threads started once warm: {warm:?} -> {after:?}"
    );
    if ratel_repro::tensor::num_threads() > 1 {
        assert!(
            parallel_stats().0 > pooled,
            "no kernel fanned out to the pool"
        );
    }
}
