//! Integration tests of the real out-of-core engine driven end to end:
//! planner decisions -> tiered storage -> concurrent optimizer ->
//! numeric equivalence and convergence.

use ratel_repro::core::engine::scaler::ScalePolicy;
use ratel_repro::prelude::*;
use ratel_repro::storage::{Route, Tier};

fn tiny_config() -> GptConfig {
    GptConfig {
        vocab: 128,
        seq: 16,
        hidden: 32,
        heads: 4,
        layers: 4,
        batch: 2,
    }
}

/// Every combination of activation decisions produces the exact same
/// training trajectory — swap/recompute choices are performance-only.
#[test]
fn all_activation_policies_are_numerically_interchangeable() {
    let model = tiny_config();
    let policies: [Vec<ActDecision>; 3] = [
        vec![ActDecision::SwapToHost; 4],
        vec![ActDecision::SwapToSsd; 4],
        vec![
            ActDecision::Recompute,
            ActDecision::SwapToSsd,
            ActDecision::SwapToHost,
            ActDecision::Recompute,
        ],
    ];
    let (tokens, targets) = ratel_repro::core::engine::data::random_batch(&model, 9);
    let mut losses = Vec::new();
    let mut finals = Vec::new();
    for acts in policies {
        let mut engine = RatelEngine::new(EngineConfig {
            model,
            seed: 11,
            adam: AdamParams::default(),
            act_decisions: acts,
            gpu_capacity: None,
            host_capacity: None,
            execution: ExecutionOptions::default(),
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
            dropout: None,
            frozen_layers: Vec::new(),
        })
        .unwrap();
        let mut run_losses = Vec::new();
        for _ in 0..3 {
            run_losses.push(engine.train_step(&tokens, &targets).unwrap().loss);
        }
        losses.push(run_losses);
        finals.push(engine.master_params(1).unwrap());
    }
    assert_eq!(losses[0], losses[1]);
    assert_eq!(losses[0], losses[2]);
    assert_eq!(finals[0], finals[1]);
    assert_eq!(finals[0], finals[2]);
}

/// Training converges on learnable data and generalizes the pattern to a
/// *fresh* batch drawn from the same synthetic language.
#[test]
fn engine_learns_the_synthetic_language() {
    let model = tiny_config();
    let mut engine = RatelEngine::new(EngineConfig {
        model,
        seed: 3,
        adam: AdamParams {
            lr: 3e-3,
            ..Default::default()
        },
        act_decisions: vec![ActDecision::SwapToHost; 4],
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
        dropout: None,
        frozen_layers: Vec::new(),
    })
    .unwrap();
    let initial = {
        let (t, y) = learnable_batch(&model, 0);
        engine.eval_loss(&t, &y).unwrap()
    };
    // 100 steps reaches ~0.3x the initial held-out loss across seeds with
    // the vendored deterministic RNG (60 steps sits right at the 0.6x
    // threshold and is seed-sensitive).
    for step in 0..100 {
        let (t, y) = learnable_batch(&model, step);
        engine.train_step(&t, &y).unwrap();
    }
    // Held-out batch (seed outside the training range).
    let (t, y) = learnable_batch(&model, 10_000);
    let held_out = engine.eval_loss(&t, &y).unwrap();
    assert!(
        held_out < initial * 0.6,
        "no generalization: {initial:.3} -> {held_out:.3}"
    );
}

/// The GPU arena really is the constraint: a capacity that fits one
/// layer's working set trains fine; one that cannot OOMs.
#[test]
fn gpu_arena_capacity_separates_feasible_from_oom() {
    let model = tiny_config();
    let (tokens, targets) = random_batch(&model, 4);
    let build = |cap: u64| {
        RatelEngine::new(EngineConfig {
            model,
            seed: 5,
            adam: AdamParams::default(),
            act_decisions: vec![ActDecision::SwapToHost; 4],
            gpu_capacity: Some(cap),
            host_capacity: None,
            execution: ExecutionOptions::default(),
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
            dropout: None,
            frozen_layers: Vec::new(),
        })
        .unwrap()
    };
    // Generous arena: works.
    let mut ok = build(16 << 20);
    ok.train_step(&tokens, &targets).unwrap();
    // Starved arena: errors with a GPU OOM, and the error is typed.
    let mut starved = build(4 << 10);
    let err = starved.train_step(&tokens, &targets).unwrap_err();
    assert!(matches!(
        err,
        ratel_repro::core::RatelError::Storage(ratel_repro::storage::StorageError::OutOfMemory {
            tier: Tier::Gpu,
            ..
        })
    ));
}

/// SSD-swapped runs move strictly more host<->SSD bytes, and all runs
/// leave the tiers clean (no leaked blobs) after each step.
#[test]
fn traffic_scales_with_policy_and_tiers_stay_clean() {
    let model = tiny_config();
    let (tokens, targets) = random_batch(&model, 6);
    let run = |acts: Vec<ActDecision>| {
        let mut e = RatelEngine::new(EngineConfig {
            model,
            seed: 8,
            adam: AdamParams::default(),
            act_decisions: acts,
            gpu_capacity: None,
            host_capacity: None,
            execution: ExecutionOptions::default(),
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
            dropout: None,
            frozen_layers: Vec::new(),
        })
        .unwrap();
        let stats = e.train_step(&tokens, &targets).unwrap();
        // After the step only the states at rest remain: the masters'
        // 4 bytes/param in host memory (uncapped, every master is
        // resident), the moments' 8 on SSD — but for the two layers whose
        // handlers rotate, whose moments rest in host memory.
        let rotated = 8 * (e.layer_param_count(0) + e.layer_param_count(1));
        assert_eq!(e.store().used(Tier::Gpu), 0, "GPU tier not drained");
        assert_eq!(
            e.store().used(Tier::Host) as usize,
            e.total_params() * 4 + rotated
        );
        assert_eq!(e.store().used(Tier::Host), e.host_state_bytes());
        assert_eq!(
            e.store().used(Tier::Ssd) as usize,
            e.total_params() * 8 - rotated
        );
        stats
    };
    let host = run(vec![ActDecision::SwapToHost; 4]);
    let ssd = run(vec![ActDecision::SwapToSsd; 4]);
    let rec = run(vec![ActDecision::Recompute; 4]);
    assert!(ssd.traffic.bytes(Route::HostToSsd) > host.traffic.bytes(Route::HostToSsd));
    assert!(rec.traffic.bytes(Route::GpuToHost) < host.traffic.bytes(Route::GpuToHost));
}

/// The separate-stage ablation and the active engine agree numerically —
/// overlap is a scheduling property, not a semantic one. Both run
/// through the schedule-driven executor, so this also pins the two DAG
/// shapes against each other.
#[test]
fn active_and_separate_stage_agree() {
    let model = tiny_config();
    let (tokens, targets) = random_batch(&model, 12);
    let run = |active: bool| {
        let mut e = RatelEngine::new(EngineConfig {
            model,
            seed: 21,
            adam: AdamParams::default(),
            act_decisions: vec![ActDecision::SwapToHost; 4],
            gpu_capacity: None,
            host_capacity: None,
            execution: ExecutionOptions::Executor(ExecutorOptions {
                offload: if active {
                    GradOffloadMode::OptimizedActive
                } else {
                    GradOffloadMode::SeparateStage
                },
                ..ExecutorOptions::default()
            }),
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
            dropout: None,
            frozen_layers: Vec::new(),
        })
        .unwrap();
        let mut losses = Vec::new();
        for _ in 0..3 {
            losses.push(e.train_step(&tokens, &targets).unwrap().loss);
        }
        (losses, e.master_params(2).unwrap())
    };
    let (la, pa) = run(true);
    let (ls, ps) = run(false);
    assert_eq!(la, ls);
    assert_eq!(pa, ps);
}

/// Planner decisions can drive the engine: map a SwapPlan onto per-block
/// ActDecisions and train with them.
#[test]
fn planner_output_drives_the_engine() {
    use ratel_repro::model::{ModelConfig, ModelProfile, UnitKind};

    let gpt = tiny_config();
    // Build the analytic twin of the executable model.
    let analytic = ModelConfig {
        seq_len: gpt.seq,
        vocab: gpt.vocab,
        ..ModelConfig::decoder_lm("tiny", gpt.layers, gpt.heads, gpt.hidden)
    };
    let profile = ModelProfile::new(&analytic, gpt.batch);
    let server = ServerConfig::paper_default();
    let hw = HardwareProfile::measure(&server, &profile, gpt.batch);
    let plan = ActivationPlanner::new(&hw, &profile).plan();

    // Block b's analytic layer id is b+1; swap if the planner swapped
    // either half, to SSD if either half spilled.
    let decisions: Vec<ActDecision> = (0..gpt.layers)
        .map(|b| {
            let id = b + 1;
            let swapped = plan.swaps(id, UnitKind::Mlp) || plan.swaps(id, UnitKind::Attention);
            if swapped {
                ActDecision::SwapToHost
            } else {
                ActDecision::Recompute
            }
        })
        .collect();

    let mut engine = RatelEngine::new(EngineConfig {
        model: gpt,
        seed: 77,
        adam: AdamParams::default(),
        act_decisions: decisions,
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
        dropout: None,
        frozen_layers: Vec::new(),
    })
    .unwrap();
    let (tokens, targets) = random_batch(&gpt, 1);
    let s1 = engine.train_step(&tokens, &targets).unwrap();
    let s2 = engine.train_step(&tokens, &targets).unwrap();
    assert!(s1.loss.is_finite() && s2.loss.is_finite());
    assert!(s2.loss < s1.loss, "{} -> {}", s1.loss, s2.loss);
}

/// End-to-end: fine-tune on the affine-walk language, then *generate*
/// through the tiered engine and check the continuation follows the rule
/// `t_{k+1} = (5 t_k + 3) mod V` — the trained model demonstrably works.
#[test]
fn generation_continues_the_learned_language() {
    let model = GptConfig {
        vocab: 64,
        seq: 16,
        hidden: 48,
        heads: 4,
        layers: 3,
        batch: 4,
    };
    let mut engine = RatelEngine::new(EngineConfig {
        model,
        seed: 91,
        adam: AdamParams {
            lr: 4e-3,
            ..Default::default()
        },
        act_decisions: vec![ActDecision::SwapToHost; model.layers],
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
        dropout: None,
        frozen_layers: Vec::new(),
    })
    .unwrap();
    for step in 0..150 {
        let (t, y) = learnable_batch(&model, step % 8);
        engine.train_step(&t, &y).unwrap();
    }
    // Prompt with a valid walk prefix, generate, and score the rule.
    let mut prompt = vec![9usize];
    for _ in 0..7 {
        let next = (5 * prompt.last().unwrap() + 3) % model.vocab;
        prompt.push(next);
    }
    let generated = engine.generate(&prompt, 6).unwrap();
    let mut expected = Vec::new();
    let mut t = *prompt.last().unwrap();
    for _ in 0..6 {
        t = (5 * t + 3) % model.vocab;
        expected.push(t);
    }
    let correct = generated
        .iter()
        .zip(&expected)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        correct >= 4,
        "generation off-language: got {generated:?}, expected {expected:?}"
    );
}

/// KV-cached generation produces the same tokens as the full-forward
/// path on a trained model, and its host-tier cache traffic drains.
#[test]
fn cached_generation_matches_full_forward_generation() {
    use ratel_repro::storage::Tier;
    let model = GptConfig {
        vocab: 64,
        seq: 24,
        hidden: 48,
        heads: 4,
        layers: 3,
        batch: 4,
    };
    let mut engine = RatelEngine::new(EngineConfig {
        model,
        seed: 91,
        adam: AdamParams {
            lr: 4e-3,
            ..Default::default()
        },
        act_decisions: vec![ActDecision::SwapToHost; model.layers],
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
        dropout: None,
        frozen_layers: Vec::new(),
    })
    .unwrap();
    for step in 0..120 {
        let (t, y) = learnable_batch(&model, step % 6);
        engine.train_step(&t, &y).unwrap();
    }
    let mut prompt = vec![3usize];
    for _ in 0..9 {
        prompt.push((5 * prompt.last().unwrap() + 3) % model.vocab);
    }
    let full = engine.generate(&prompt, 8).unwrap();
    let cached = engine.generate_cached(&prompt, 8).unwrap();
    assert_eq!(
        full, cached,
        "incremental decoding diverged from full forward"
    );
    // Caches and pinned copies were cleaned up.
    assert_eq!(engine.store().used(Tier::Host), engine.host_state_bytes());
    assert_eq!(engine.store().used(Tier::Gpu), 0);
}

/// End-to-end with a learned BPE vocabulary: train the tokenizer, fine-
/// tune out of core on subword tokens, watch perplexity fall, and decode
/// a generated continuation back to text.
#[test]
fn bpe_finetuning_end_to_end() {
    use ratel_repro::core::api::Ratel;
    use ratel_repro::core::engine::bpe::BpeTokenizer;
    use ratel_repro::core::engine::data::token_batches;

    let corpus = "the tensors feed the gradients and the gradients feed the optimizer \
                  and the optimizer moves the weights and the weights move the model "
        .repeat(4);
    let bpe = BpeTokenizer::train(&corpus, 96);
    let ids = bpe.encode(&corpus);
    let model = GptConfig {
        vocab: bpe.vocab_size(),
        seq: 16,
        hidden: 64,
        heads: 4,
        layers: 3,
        batch: 4,
    };
    let mut trainer = Ratel::init(model)
        .seed(2)
        .learning_rate(3e-3)
        .build()
        .unwrap();
    let batches = token_batches(&ids, &model, 4);
    let probe = ratel_repro::core::Batch::new(&model, &batches[0].0, &batches[0].1).unwrap();
    let ppl0 = trainer.perplexity(probe).unwrap();
    trainer.train_epochs(&batches, 25).unwrap();
    let ppl1 = trainer.perplexity(probe).unwrap();
    assert!(
        ppl1 < ppl0 * 0.3,
        "perplexity did not collapse: {ppl0:.1} -> {ppl1:.1}"
    );
    // Generate and decode.
    let prompt = bpe.encode("the gradients feed ");
    let generated = trainer.generate_cached(&prompt, 6).unwrap();
    let text = bpe.decode(&generated);
    assert!(!text.is_empty());
    assert!(text.chars().all(|c| corpus.contains(c)));
}

/// The engine's data-movement plan passes static verification: every
/// blob the schedule reads is produced-then-ordered before the read,
/// residency is balanced, and every task sits on a legal resource.
/// (Debug builds also run this check inside `RatelEngine::new`.)
#[test]
fn engine_movement_plan_passes_static_verification() {
    use ratel_repro::core::verify::Limits;

    let model = tiny_config();
    for execution in [
        ExecutionOptions::default(),
        ExecutionOptions::Executor(ExecutorOptions {
            offload: GradOffloadMode::SeparateStage,
            ..ExecutorOptions::default()
        }),
    ] {
        let engine = RatelEngine::new(EngineConfig {
            model,
            seed: 3,
            adam: AdamParams::default(),
            act_decisions: vec![
                ActDecision::Recompute,
                ActDecision::SwapToSsd,
                ActDecision::SwapToHost,
                ActDecision::Recompute,
            ],
            gpu_capacity: None,
            host_capacity: None,
            execution,
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
            dropout: None,
            frozen_layers: Vec::new(),
        })
        .unwrap();
        let report = engine.movement_spec().verify(2, &Limits::none());
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.tasks_checked > 0);
        assert!(report.versions_seen > 0);
    }
}

/// Streaming attention shrinks the per-block saved-activation blob: the
/// A16 element count carries no `[s, s]` probabilities term (it scales
/// linearly in sequence length), stays strictly below the old
/// materialized-softmax accounting, and the implied per-token-channel
/// bytes agree with the analytic planner's intra-block constant — while
/// the engine's movement plan still passes static verification with the
/// smaller blobs (the test above).
#[test]
fn streaming_attention_shrinks_saved_activation_blob() {
    use ratel_repro::model::config::ACT_INTRA_BYTES_PER_TOKEN_CHANNEL;
    use ratel_repro::tensor::BlockSaved;

    let (batch, heads, h) = (4, 8, 256);
    // Linear in seq: doubling the sequence doubles the blob.
    let at_seq = |s: usize| BlockSaved::element_count_for(batch, s, h, heads);
    assert_eq!(at_seq(512) * 2, at_seq(1024));
    // Strictly below the old accounting that stored `[s, s]` probabilities
    // per head; the gap is exactly the dropped quadratic term minus the
    // two per-row statistics that replaced it.
    for s in [16, 64, 256, 1024] {
        let rows = batch * s;
        let old = rows * (15 * h + 4) + batch * heads * s * s;
        assert!(at_seq(s) < old, "s={s}: {} !< {old}", at_seq(s));
        assert_eq!(old - at_seq(s), batch * heads * s * (s - 2));
    }
    // The A16 bytes one block's swap moves at the bench suite's shape
    // (batch 1, hidden 512, 8 heads), pinned: any growth is a code change
    // (e.g. something re-materializing the `[s, s]` probabilities).
    for (s, bytes) in [(128, 1_971_200), (512, 7_884_800), (1024, 15_769_600)] {
        assert_eq!(2 * BlockSaved::element_count_for(1, s, 512, 8), bytes);
    }
    // Analytic agreement at the paper's 13B shape (h=5120, 40 heads,
    // batch 32, seq 1024): ~30 A16 bytes per token-channel per block.
    let (b13, s13, h13, heads13) = (32usize, 1024usize, 5120usize, 40usize);
    let blob_bytes = 2.0 * BlockSaved::element_count_for(b13, s13, h13, heads13) as f64;
    let per_token_channel = blob_bytes / (b13 * s13 * h13) as f64;
    let rel = (per_token_channel - ACT_INTRA_BYTES_PER_TOKEN_CHANNEL).abs()
        / ACT_INTRA_BYTES_PER_TOKEN_CHANNEL;
    assert!(
        rel < 0.005,
        "engine stores {per_token_channel:.3} B/token-channel, planner assumes {ACT_INTRA_BYTES_PER_TOKEN_CHANNEL}"
    );
}

/// Under the paper's all-SSD placement each model state at rest — every
/// layer's master, moments and P16, a frozen layer's too — has a file of
/// its own on the SSD tier, and the tier holds nothing else: after the
/// build, after two steps, and after a checkpoint is saved and loaded
/// back, the files named for those keys are all the SSD directory holds
/// and their sizes sum to `used(Ssd)`.
#[test]
fn all_ssd_states_rest_in_one_file_each() {
    use ratel_repro::sim::{BlobKey, BlobKind};
    use ratel_repro::storage::TieredStore;
    use std::collections::HashSet;

    let model = GptConfig::tiny();
    let builder = Ratel::init(model).seed(3).freeze_layers(vec![1]);
    let min = builder.min_host_capacity().unwrap();
    let mut trainer = builder.host_capacity(min).build().unwrap();
    let layers = model.layers + 2;
    let check = |store: &TieredStore<BlobKey>, when: &str| {
        let mut files = HashSet::new();
        for layer in 0..layers {
            for kind in [BlobKind::Master, BlobKind::Moments, BlobKind::Param16] {
                let key = BlobKey::shared(kind, layer);
                let file = store.ssd_file(&key).unwrap();
                assert!(files.insert(file), "{when}: {key} shares a file");
            }
        }
        let on_disk: HashSet<_> = std::fs::read_dir(store.ssd_dir())
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        assert_eq!(on_disk, files, "{when}");
        let bytes: u64 = files
            .iter()
            .map(|file| std::fs::metadata(file).unwrap().len())
            .sum();
        assert_eq!(bytes, store.used(Tier::Ssd), "{when}");
    };

    check(trainer.engine().store(), "after the build");
    for step in 0..2 {
        let (tokens, targets) = learnable_batch(&model, step);
        trainer
            .step(Batch::new(&model, &tokens, &targets).unwrap())
            .unwrap();
    }
    check(trainer.engine().store(), "after two steps");
    let dir = std::env::temp_dir().join(format!("ratel-one-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    trainer.save_checkpoint(&dir).unwrap();
    trainer.load_checkpoint(&dir).unwrap();
    check(trainer.engine().store(), "after a checkpoint round trip");
    let _ = std::fs::remove_dir_all(&dir);
}
