//! Mixed-precision integration tests: loss scaling, overflow handling,
//! and per-layer gradient clipping — identical between the out-of-core
//! engine and the in-memory reference.

use ratel_repro::core::engine::scaler::ScalePolicy;
use ratel_repro::prelude::*;

fn tiny() -> GptConfig {
    GptConfig {
        vocab: 128,
        seq: 16,
        hidden: 32,
        heads: 4,
        layers: 3,
        batch: 2,
    }
}

fn engine_with(policy: ScalePolicy, clip: Option<f32>) -> RatelEngine {
    let model = tiny();
    RatelEngine::new(EngineConfig {
        model,
        seed: 17,
        adam: AdamParams::default(),
        act_decisions: vec![ActDecision::SwapToHost; model.layers],
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: policy,
        grad_clip: clip,
        lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
        dropout: None,
        frozen_layers: Vec::new(),
    })
    .unwrap()
}

/// With a sane static scale, scaled training matches the reference bit
/// for bit and matches *unscaled* training up to f16 rounding effects.
#[test]
fn static_scaling_matches_reference_exactly() {
    let model = tiny();
    let policy = ScalePolicy::Static(1024.0);
    let mut engine = engine_with(policy, None);
    let mut reference =
        ReferenceTrainer::with_policy(model, 17, AdamParams::default(), policy, None);
    for s in 0..4 {
        let (t, y) = random_batch(&model, 200 + s);
        let stats = engine.train_step(&t, &y).unwrap();
        let ref_loss = reference.train_step(&t, &y);
        assert_eq!(stats.loss, ref_loss, "step {s}");
        assert_eq!(stats.loss_scale, 1024.0);
        assert_eq!(stats.skipped_layers, 0, "1024x should not overflow");
    }
    for l in 0..engine.layer_count() {
        assert_eq!(engine.master_params(l).unwrap(), reference.master_params(l));
    }
}

/// Scaling preserves small gradients: with a large scale the G16 round
/// trip keeps components that unscaled f16 would flush to zero, so the
/// scaled run makes at least as much progress.
#[test]
fn scaling_rescues_tiny_gradients_from_f16_underflow() {
    use ratel_repro::tensor::dtype::round_to_f16;
    // A direct demonstration on the codec: a gradient of 1e-9 dies in
    // f16; scaled by 2^16 it survives and unscales back.
    let g = 1e-9f32;
    assert_eq!(round_to_f16(g), 0.0);
    let scaled = round_to_f16(g * 65536.0) / 65536.0;
    assert!(scaled != 0.0 && (scaled - g).abs() / g < 0.01);
}

/// An absurd static scale overflows every layer: all updates skip, the
/// parameters stay exactly put, and the engine agrees with the reference.
#[test]
fn overflow_skips_updates_without_corruption() {
    let model = tiny();
    let policy = ScalePolicy::Static(1e30);
    let mut engine = engine_with(policy, None);
    let before: Vec<Vec<f32>> = (0..engine.layer_count())
        .map(|l| engine.master_params(l).unwrap())
        .collect();
    let (t, y) = random_batch(&model, 5);
    let stats = engine.train_step(&t, &y).unwrap();
    assert_eq!(stats.skipped_layers, engine.layer_count());
    for (l, expected) in before.iter().enumerate() {
        assert_eq!(
            &engine.master_params(l).unwrap(),
            expected,
            "layer {l} moved"
        );
    }
    // Reference behaves identically.
    let mut reference =
        ReferenceTrainer::with_policy(model, 17, AdamParams::default(), policy, None);
    reference.train_step(&t, &y);
    for l in 0..engine.layer_count() {
        assert_eq!(engine.master_params(l).unwrap(), reference.master_params(l));
    }
}

/// Dynamic scaling recovers: it starts absurdly high, backs off across
/// steps until updates apply, and training proceeds — with the engine and
/// reference in lockstep the whole way.
#[test]
fn dynamic_scaling_backs_off_and_trains() {
    let model = tiny();
    let policy = ScalePolicy::Dynamic {
        init: 1e30,
        backoff: 1e-8,
        growth: 2.0,
        growth_interval: 50,
    };
    let mut engine = engine_with(policy, None);
    let mut reference =
        ReferenceTrainer::with_policy(model, 17, AdamParams::default(), policy, None);
    let (t, y) = random_batch(&model, 6);
    let mut saw_overflow = false;
    let mut saw_clean = false;
    for _ in 0..6 {
        let stats = engine.train_step(&t, &y).unwrap();
        let ref_loss = reference.train_step(&t, &y);
        assert_eq!(stats.loss, ref_loss);
        if stats.skipped_layers > 0 {
            saw_overflow = true;
        } else if saw_overflow {
            saw_clean = true;
        }
    }
    assert!(saw_overflow, "initial scale should overflow");
    assert!(saw_clean, "scale should back off enough to train");
    for l in 0..engine.layer_count() {
        assert_eq!(engine.master_params(l).unwrap(), reference.master_params(l));
    }
}

/// Per-layer gradient clipping changes the trajectory (vs no clipping)
/// but keeps engine == reference.
#[test]
fn clipping_matches_reference_and_changes_updates() {
    let model = tiny();
    let clip = Some(0.05f32);
    let mut clipped = engine_with(ScalePolicy::None, clip);
    let mut unclipped = engine_with(ScalePolicy::None, None);
    let mut reference =
        ReferenceTrainer::with_policy(model, 17, AdamParams::default(), ScalePolicy::None, clip);
    let (t, y) = random_batch(&model, 7);
    for _ in 0..3 {
        let a = clipped.train_step(&t, &y).unwrap();
        let b = unclipped.train_step(&t, &y).unwrap();
        let r = reference.train_step(&t, &y);
        assert_eq!(a.loss, r);
        // Clipping alters the optimization path after the first step.
        let _ = b;
    }
    assert_ne!(
        clipped.master_params(1).unwrap(),
        unclipped.master_params(1).unwrap(),
        "a 0.05 clip must bite on fresh Adam steps"
    );
    for l in 0..clipped.layer_count() {
        assert_eq!(
            clipped.master_params(l).unwrap(),
            reference.master_params(l)
        );
    }
}

/// A warmup+cosine learning-rate schedule runs identically in the engine
/// and the reference, and actually changes the trajectory vs constant LR.
#[test]
fn lr_schedule_matches_reference() {
    use ratel_repro::core::engine::lr::LrSchedule;
    let model = tiny();
    let schedule = LrSchedule::WarmupCosine {
        warmup_steps: 2,
        total_steps: 8,
        min_factor: 0.1,
    };
    let mut engine = RatelEngine::new(EngineConfig {
        model,
        seed: 17,
        adam: AdamParams::default(),
        act_decisions: vec![ActDecision::SwapToHost; model.layers],
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: schedule,
        dropout: None,
        frozen_layers: Vec::new(),
    })
    .unwrap();
    let mut reference =
        ReferenceTrainer::with_policy(model, 17, AdamParams::default(), ScalePolicy::None, None)
            .with_lr_schedule(schedule);
    let mut constant = engine_with(ScalePolicy::None, None);
    let (t, y) = random_batch(&model, 8);
    for _ in 0..5 {
        let a = engine.train_step(&t, &y).unwrap();
        let r = reference.train_step(&t, &y);
        constant.train_step(&t, &y).unwrap();
        assert_eq!(a.loss, r);
    }
    for l in 0..engine.layer_count() {
        assert_eq!(engine.master_params(l).unwrap(), reference.master_params(l));
    }
    assert_ne!(
        engine.master_params(1).unwrap(),
        constant.master_params(1).unwrap(),
        "the schedule must change the trajectory"
    );
}

/// Gradient accumulation matches the reference bit for bit, and a
/// single-micro-batch "accumulated" step equals a plain step.
#[test]
fn gradient_accumulation_matches_reference() {
    let model = tiny();
    let micro: Vec<_> = (0..3).map(|s| random_batch(&model, 300 + s)).collect();

    let mut engine = engine_with(ScalePolicy::Static(256.0), Some(1.0));
    let mut reference = ReferenceTrainer::with_policy(
        model,
        17,
        AdamParams::default(),
        ScalePolicy::Static(256.0),
        Some(1.0),
    );
    for _ in 0..2 {
        let stats = engine.train_step_accumulated(&micro).unwrap();
        let ref_loss = reference.train_step_accumulated(&micro);
        assert_eq!(stats.loss, ref_loss);
    }
    for l in 0..engine.layer_count() {
        assert_eq!(engine.master_params(l).unwrap(), reference.master_params(l));
    }

    // n = 1 degenerates to the plain step.
    let mut a = engine_with(ScalePolicy::None, None);
    let mut b = engine_with(ScalePolicy::None, None);
    let one = vec![micro[0].clone()];
    let s1 = a.train_step_accumulated(&one).unwrap();
    let s2 = b.train_step(&one[0].0, &one[0].1).unwrap();
    assert_eq!(s1.loss, s2.loss);
    assert_eq!(a.master_params(1).unwrap(), b.master_params(1).unwrap());
}

/// Accumulated gradients leave no residue: the host tier drains to the
/// resident masters and the accumulators are consumed by the final
/// micro-batch.
#[test]
fn accumulation_cleans_up_host_tier() {
    use ratel_repro::storage::Tier;
    let model = tiny();
    let micro: Vec<_> = (0..2).map(|s| random_batch(&model, 500 + s)).collect();
    let mut engine = engine_with(ScalePolicy::None, None);
    engine.train_step_accumulated(&micro).unwrap();
    assert_eq!(engine.store().used(Tier::Host), engine.host_state_bytes());
    assert_eq!(engine.store().used(Tier::Gpu), 0);
}

/// Dropout: deterministic masks make the offloaded engine match the
/// reference exactly, *including* blocks whose forward is recomputed
/// during backward (the RNG-state rematerialization problem).
#[test]
fn dropout_is_deterministic_across_rematerialization() {
    use ratel_repro::core::engine::lr::LrSchedule;
    let model = tiny();
    let build = |acts: Vec<ActDecision>| {
        RatelEngine::new(EngineConfig {
            model,
            seed: 17,
            adam: AdamParams::default(),
            act_decisions: acts,
            gpu_capacity: None,
            host_capacity: None,
            execution: ExecutionOptions::default(),
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: LrSchedule::Constant,
            dropout: Some(0.2),
            frozen_layers: Vec::new(),
        })
        .unwrap()
    };
    let mut swapped = build(vec![ActDecision::SwapToHost; model.layers]);
    let mut recomputed = build(vec![ActDecision::Recompute; model.layers]);
    let mut reference =
        ReferenceTrainer::with_policy(model, 17, AdamParams::default(), ScalePolicy::None, None)
            .with_dropout(0.2);
    let (t, y) = random_batch(&model, 11);
    for _ in 0..3 {
        let a = swapped.train_step(&t, &y).unwrap();
        let b = recomputed.train_step(&t, &y).unwrap();
        let r = reference.train_step(&t, &y);
        assert_eq!(a.loss, r, "swap path diverged");
        assert_eq!(
            b.loss, r,
            "recompute path diverged (mask not rematerialized)"
        );
    }
    for l in 0..swapped.layer_count() {
        assert_eq!(
            swapped.master_params(l).unwrap(),
            reference.master_params(l)
        );
        assert_eq!(
            recomputed.master_params(l).unwrap(),
            reference.master_params(l)
        );
    }
}

/// Dropout actually drops: masks differ across steps, and training with
/// dropout takes a different trajectory than without.
#[test]
fn dropout_changes_the_trajectory_per_step() {
    use ratel_repro::core::engine::lr::LrSchedule;
    let model = tiny();
    let mut with = RatelEngine::new(EngineConfig {
        model,
        seed: 17,
        adam: AdamParams::default(),
        act_decisions: vec![ActDecision::SwapToHost; model.layers],
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: LrSchedule::Constant,
        dropout: Some(0.3),
        frozen_layers: Vec::new(),
    })
    .unwrap();
    let mut without = engine_with(ScalePolicy::None, None);
    let (t, y) = random_batch(&model, 13);
    let l1 = with.train_step(&t, &y).unwrap().loss;
    let l2 = with.train_step(&t, &y).unwrap().loss;
    without.train_step(&t, &y).unwrap();
    // Same data, but step-2 masks differ from step-1 masks; and the
    // dropout trajectory differs from the no-dropout one.
    assert_ne!(l1, l2);
    assert_ne!(
        with.master_params(1).unwrap(),
        without.master_params(1).unwrap()
    );
}

/// Partial freezing: frozen layers' masters never move, their optimizer
/// I/O disappears, training still works, and the engine matches the
/// reference bit for bit.
#[test]
fn frozen_layers_train_correctly_and_cheaply() {
    use ratel_repro::core::engine::lr::LrSchedule;
    use ratel_repro::storage::Route;
    let model = tiny();
    let l = model.layers;
    // Freeze everything except the head (linear probing).
    let frozen: Vec<usize> = (0..=l).collect();
    let mut engine = RatelEngine::new(EngineConfig {
        model,
        seed: 17,
        adam: AdamParams::default(),
        act_decisions: vec![ActDecision::SwapToHost; l],
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: LrSchedule::Constant,
        dropout: None,
        frozen_layers: frozen.clone(),
    })
    .unwrap();
    let mut reference =
        ReferenceTrainer::with_policy(model, 17, AdamParams::default(), ScalePolicy::None, None)
            .with_frozen_layers(frozen.clone());
    let before_block = engine.master_params(1).unwrap();
    let (t, y) = random_batch(&model, 21);
    let mut stats = None;
    for _ in 0..3 {
        let s = engine.train_step(&t, &y).unwrap();
        let r = reference.train_step(&t, &y);
        assert_eq!(s.loss, r);
        stats = Some(s);
    }
    // Frozen layers did not move; the head did.
    assert_eq!(engine.master_params(1).unwrap(), before_block);
    assert_ne!(
        engine.master_params(l + 1).unwrap(),
        reference.p16_params(l + 1),
        "sanity: head params are non-trivial"
    );
    for layer in 0..engine.layer_count() {
        assert_eq!(
            engine.master_params(layer).unwrap(),
            reference.master_params(layer)
        );
    }
    // Optimizer-state traffic collapsed to the head's share: SSD writes
    // are the moments' 8 bytes per *head* parameter only (its master,
    // like every layer's here, is host-resident).
    let head_params = engine.layer_param_count(l + 1) as u64;
    let h2s = stats.unwrap().traffic.bytes(Route::HostToSsd);
    assert_eq!(h2s, head_params * 8, "frozen layers still paid state I/O");
}
