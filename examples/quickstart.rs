//! Quickstart: fine-tune a small GPT *out of core* with Ratel's engine.
//!
//! Model states live in the tiered store — the Adam moments as files in
//! the SSD tier, and with them the fp32 masters and fp16 copies when the
//! host pool is capped (uncapped, as here, the masters stay resident in
//! host memory, and so do the moments of the two layers whose gradients
//! arrive last); the "GPU" arena only ever holds one layer's working
//! set; activations are swapped or recomputed; and a concurrent CPU
//! optimizer consumes gradients the moment backward produces them —
//! while every number stays bit-identical to ordinary in-memory training.
//!
//! Run with: `cargo run --release --example quickstart`

use ratel_repro::core::engine::scaler::ScalePolicy;
use ratel_repro::prelude::*;
use ratel_storage::Route;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny 4-block GPT the engine can really train on a laptop.
    let model = GptConfig {
        vocab: 256,
        seq: 32,
        hidden: 64,
        heads: 4,
        layers: 4,
        batch: 4,
    };
    let config = EngineConfig {
        model,
        seed: 7,
        adam: AdamParams {
            lr: 3e-3,
            ..Default::default()
        },
        // Mix all three activation policies across the blocks, like a
        // planner would: swap the cheap-to-move ones, recompute the rest.
        act_decisions: vec![
            ActDecision::SwapToHost,
            ActDecision::SwapToSsd,
            ActDecision::Recompute,
            ActDecision::SwapToHost,
        ],
        gpu_capacity: Some(8 << 20), // an 8 MiB "GPU"
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
        dropout: None,
        frozen_layers: Vec::new(),
    };

    // Plan-first: the same movement plan the engine will execute can be
    // inspected and statically verified before any tensor exists.
    let plan = Ratel::init(model)
        .seed(7)
        .activation_decisions(config.act_decisions.clone())
        .plan()?;
    plan.verify()?;
    println!("plan: {}", plan.summary());

    let mut engine = RatelEngine::new(config)?;
    // Telemetry is off by default (the disabled path is one atomic load);
    // turn it on to watch each step's spans and route metrics.
    engine.enable_telemetry();
    println!(
        "model: {} parameters across {} movable layers; {} bytes of model states on the SSD \
         tier, {} (the f32 masters, and the moments of the last two handlers) resident in \
         host memory",
        engine.total_params(),
        engine.layer_count(),
        engine.ssd_state_bytes(),
        engine.host_state_bytes()
    );

    // Train on a learnable synthetic language; the loss should collapse.
    // `stats.traffic` is this step's per-route byte delta, and the
    // telemetry adds the §IV-C overlap ratio: how much of the optimizer's
    // work ran hidden under backward.
    let (tokens, targets) = learnable_batch(&model, 42);
    for step in 0..40 {
        let stats = engine.train_step(&tokens, &targets)?;
        if step % 5 == 0 || step == 39 {
            let overlap = engine
                .last_step_telemetry()
                .map(|t| t.optimizer_overlap_ratio())
                .unwrap_or(0.0);
            // Robustness counters ride along on every step; a healthy
            // run keeps them at zero, so only surface the exceptions.
            let faults = if stats.fault_stats.is_empty() {
                String::new()
            } else {
                format!(
                    ", faults: {} retries / {} give-ups",
                    stats.fault_stats.retries, stats.fault_stats.give_ups,
                )
            };
            println!(
                "step {step:>3}: loss {:.4}  ({:.0} ms, {} MB moved: G2M {} / M2G {} / H2S {} / S2H {}, opt overlap {:.0}%{faults})",
                stats.loss,
                stats.wall_seconds * 1e3,
                stats.traffic.total() / 1_000_000,
                stats.traffic.bytes(Route::GpuToHost) / 1_000_000,
                stats.traffic.bytes(Route::HostToGpu) / 1_000_000,
                stats.traffic.bytes(Route::HostToSsd) / 1_000_000,
                stats.traffic.bytes(Route::SsdToHost) / 1_000_000,
                100.0 * overlap,
            );
        }
    }
    if let Some(t) = engine.last_step_telemetry() {
        let b = t.stage_breakdown();
        println!(
            "last step spans: fwd {:.1} ms, bwd {:.1} ms, optimizer {:.1} ms, transfers {:.1} ms",
            b.forward * 1e3,
            b.backward * 1e3,
            b.optimizer * 1e3,
            b.transfer * 1e3,
        );
    }
    // The executor reports which resource pool ran each task.
    if let Some(tasks) = engine.train_step(&tokens, &targets)?.tasks {
        println!(
            "executor: {} tasks, critical path {:.0} ms of {:.0} ms busy",
            tasks.tasks_total,
            tasks.critical_path_seconds * 1e3,
            tasks.busy_seconds_total() * 1e3,
        );
        for pool in &tasks.pools {
            println!(
                "  {:?}: {} tasks, {:.1} ms busy",
                pool.class,
                pool.tasks,
                pool.busy_seconds * 1e3
            );
        }
    }

    // Prove the "no staleness" claim: replay the same schedule in memory
    // and compare the final master weights bit for bit.
    let mut reference = ReferenceTrainer::new(
        model,
        7,
        AdamParams {
            lr: 3e-3,
            ..Default::default()
        },
    );
    let mut engine2 = RatelEngine::new(EngineConfig {
        model,
        seed: 7,
        adam: AdamParams {
            lr: 3e-3,
            ..Default::default()
        },
        act_decisions: vec![ActDecision::SwapToSsd; 4],
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
        dropout: None,
        frozen_layers: Vec::new(),
    })?;
    for _ in 0..3 {
        engine2.train_step(&tokens, &targets)?;
        reference.train_step(&tokens, &targets);
    }
    let identical = (0..engine2.layer_count())
        .all(|l| engine2.master_params(l).unwrap() == reference.master_params(l));
    println!("offloaded == in-memory training, bit for bit: {identical}");
    assert!(identical);
    Ok(())
}
