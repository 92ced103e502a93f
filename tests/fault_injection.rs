//! Chaos-style integration tests of the storage fault plane driven
//! through the public trainer API: injected transient SSD faults must be
//! invisible to training (retries absorb them bitwise), permanent faults
//! must surface as typed errors that a checkpoint resume recovers from,
//! and host-memory pressure is a typed out-of-memory error that moves
//! nothing: the plan's floor is the smallest host pool a job runs in.

mod common;

use std::sync::Arc;

use ratel_repro::core::api::Ratel;
use ratel_repro::core::{Batch, RatelError, RatelTrainer};
use ratel_repro::prelude::*;
use ratel_repro::sim::{BlobKey, BlobKind, MemTier};
use ratel_repro::storage::{FaultKind, FaultPlan, Route, StorageError, Tier};

fn tiny_config() -> GptConfig {
    GptConfig {
        vocab: 64,
        seq: 16,
        hidden: 32,
        heads: 4,
        layers: 3,
        batch: 2,
    }
}

/// The store's name of layer `layer`'s Adam moments.
fn moments(layer: usize) -> BlobKey {
    BlobKey::shared(BlobKind::Moments, layer)
}

fn build(model: GptConfig, plan: Option<Arc<FaultPlan<BlobKey>>>) -> RatelTrainer {
    let mut b = Ratel::init(model).seed(17).learning_rate(1e-3);
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    b.build().expect("trainer builds")
}

fn train_steps(trainer: &mut RatelTrainer, model: &GptConfig, steps: usize) -> Vec<f32> {
    (0..steps)
        .map(|step| {
            let (tokens, targets) = learnable_batch(model, step as u64);
            let batch = Batch::new(model, &tokens, &targets).unwrap();
            trainer.step(batch).unwrap().loss
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ratel-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The acceptance chaos test: >= 5 seeded transient SSD faults scattered
/// over 10 training steps are retried transparently — the loss history
/// is bitwise identical to the fault-free run and the always-on
/// telemetry accounts for every retry.
#[test]
fn transient_ssd_faults_are_invisible_to_training() {
    let model = tiny_config();

    // Fault-free baseline; the empty plan faults nothing but counts SSD
    // ops, giving the window to scatter faults over.
    let counter = Arc::new(FaultPlan::new());
    let mut baseline = build(model, Some(Arc::clone(&counter)));
    let baseline_losses = train_steps(&mut baseline, &model, 10);
    let window = counter.ops_seen();
    // Ten a step: every handler's moments read and written once.
    assert!(window >= 100, "expected plenty of SSD ops, saw {window}");

    // Chaos run: seeded transient faults across that op window.
    let plan = Arc::new(FaultPlan::seeded_transient(0xC0FFEE, 5, window));
    let mut chaos = build(model, Some(Arc::clone(&plan)));
    let chaos_losses = train_steps(&mut chaos, &model, 10);

    assert!(plan.injected_count() >= 5, "{:?}", plan.injected());
    let stats = chaos.engine().store().telemetry().fault_stats();
    assert!(
        stats.retries >= plan.injected_count() as u64,
        "telemetry counted {} retries for {} injected faults",
        stats.retries,
        plan.injected_count()
    );
    assert_eq!(
        stats.give_ups, 0,
        "transient faults must never exhaust retries"
    );

    let baseline_bits: Vec<u32> = baseline_losses.iter().map(|l| l.to_bits()).collect();
    let chaos_bits: Vec<u32> = chaos_losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(
        baseline_bits, chaos_bits,
        "faults changed the training trajectory"
    );

    // The model itself is also bitwise identical, not just the losses.
    for layer in 0..model.layers + 2 {
        assert_eq!(
            baseline.engine().master_params(layer).unwrap(),
            chaos.engine().master_params(layer).unwrap(),
            "layer {layer} master params diverged"
        );
    }
}

/// A permanent SSD fault exhausts the retry budget, surfaces as the
/// typed [`RatelError::Storage`] fault variant, and a fresh trainer
/// resumed from the last checkpoint finishes the job with exactly the
/// trajectory a never-faulted run produces.
#[test]
fn permanent_fault_surfaces_and_checkpoint_resume_recovers() {
    let model = tiny_config();
    let dir = temp_dir("resume");

    // The straight run this job should end up matching.
    let mut straight = build(model, None);
    let straight_losses = train_steps(&mut straight, &model, 4);

    // The doomed run: two good steps, a checkpoint, then the SSD "dies".
    let mut doomed = build(model, None);
    let early_losses = train_steps(&mut doomed, &model, 2);
    assert_eq!(
        early_losses,
        straight_losses[..2],
        "runs diverged before any fault"
    );
    doomed.save_checkpoint(&dir).unwrap();
    let dead_ssd = Arc::new(FaultPlan::new());
    dead_ssd.fault_at(0, FaultKind::Permanent);
    doomed.engine().store().set_fault_plan(Some(dead_ssd));
    let (tokens, targets) = learnable_batch(&model, 2);
    let err = doomed
        .step(Batch::new(&model, &tokens, &targets).unwrap())
        .unwrap_err();
    assert!(
        matches!(
            err,
            RatelError::Storage(StorageError::Faulted { attempts, .. }) if attempts > 1
        ),
        "expected an exhausted-retries fault, got: {err}"
    );
    let stats = doomed.engine().store().telemetry().fault_stats();
    assert!(stats.give_ups >= 1, "give-up not counted: {stats:?}");
    drop(doomed);

    // Recovery: a fresh trainer resumes from the manifest and replays
    // the remaining steps — bitwise equal to the straight run.
    let mut resumed = Ratel::init(model)
        .seed(17)
        .learning_rate(1e-3)
        .resume_from(&dir)
        .build()
        .unwrap();
    let resumed_losses: Vec<f32> = (2..4)
        .map(|step| {
            let (tokens, targets) = learnable_batch(&model, step as u64);
            let batch = Batch::new(&model, &tokens, &targets).unwrap();
            resumed.step(batch).unwrap().loss
        })
        .collect();
    let straight_bits: Vec<u32> = straight_losses[2..].iter().map(|l| l.to_bits()).collect();
    let resumed_bits: Vec<u32> = resumed_losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(
        straight_bits, resumed_bits,
        "resume diverged from the straight run"
    );
    for layer in 0..model.layers + 2 {
        assert_eq!(
            straight.engine().master_params(layer).unwrap(),
            resumed.engine().master_params(layer).unwrap(),
            "layer {layer} master params diverged after resume"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A layer whose master is host-resident writes back its moments only.
/// Where its handler does not rotate, that write follows the layer's CPU
/// step: a transient fault on it is retried and invisible; a permanent
/// one fails the step with the typed error after the master was stepped
/// where it lies — and `load_checkpoint` puts master and moments back, so
/// the trainer goes on bitwise like a run that never faulted. Layer 2's
/// handler is the last that does not rotate: its write is the step's
/// last SSD write.
///
/// The two rotated handlers' writes (layers 1 and 0) are the step's
/// first: a permanent fault on one fails the step before any master
/// moves, the moments are back in host memory, and a retry of the same
/// step is bitwise the straight run.
#[test]
fn a_moments_write_beside_a_resident_master_is_retried_or_fails_and_restores() {
    use ratel_repro::storage::FaultOp;
    let model = tiny_config();
    let dir = temp_dir("moments");
    let step = |trainer: &mut RatelTrainer, step: u64| {
        let (tokens, targets) = learnable_batch(&model, step);
        trainer.step(Batch::new(&model, &tokens, &targets).unwrap())
    };
    let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let masters = |trainer: &mut RatelTrainer| {
        (0..model.layers + 2)
            .map(|layer| trainer.engine().master_params(layer).unwrap())
            .collect::<Vec<_>>()
    };
    let given_up = |err: &RatelError| {
        matches!(
            err,
            RatelError::Storage(StorageError::Faulted {
                op: FaultOp::Write,
                ..
            })
        )
    };
    let mut straight = build(model, None);
    let straight_losses = train_steps(&mut straight, &model, 5);

    let mut trainer = build(model, None);
    assert_eq!(trainer.engine().placement(), Placement::HostMaster);
    let mut losses = train_steps(&mut trainer, &model, 2);
    trainer.save_checkpoint(&dir).unwrap();

    // Retried: the step succeeds and nothing shows but the counter.
    let flaky = Arc::new(FaultPlan::new());
    flaky.fault_on_key_op(&moments(2), FaultOp::Write, FaultKind::Transient);
    trainer.engine().store().set_fault_plan(Some(flaky));
    let stats = step(&mut trainer, 2).unwrap();
    assert_eq!(stats.fault_stats.retries, 1);
    assert_eq!(stats.fault_stats.give_ups, 0);
    losses.push(stats.loss);

    // A head write given up: nothing was stepped yet — the fetches are
    // slowed so that no backward, let alone a CPU step, starts before it
    // gives up — and the rotated moments are back in host memory.
    let dead_head = Arc::new(FaultPlan::new());
    dead_head.fault_on_key_op(&moments(0), FaultOp::Write, FaultKind::Permanent);
    trainer.engine().store().set_fault_plan(Some(dead_head));
    trainer
        .engine()
        .set_route_throttle(Route::HostToGpu, Some(1e6));
    let before = masters(&mut trainer);
    let err = step(&mut trainer, 3).unwrap_err();
    assert!(given_up(&err), "{err}");
    assert_eq!(masters(&mut trainer), before);
    let engine = trainer.engine();
    for key in [moments(0), moments(1)] {
        assert_eq!(engine.store().tier_of(&key).unwrap(), Tier::Host, "{key}");
    }
    assert_eq!(engine.store().used(Tier::Host), engine.host_state_bytes());
    engine.store().set_fault_plan(None);
    engine.set_route_throttle(Route::HostToGpu, None);
    losses.push(step(&mut trainer, 3).unwrap().loss);
    assert_eq!(bits(&losses), bits(&straight_losses[..4]));

    // Given up behind the CPU step: the typed error names the write.
    let dead = Arc::new(FaultPlan::new());
    dead.fault_on_key_op(&moments(2), FaultOp::Write, FaultKind::Permanent);
    trainer.engine().store().set_fault_plan(Some(dead));
    let before = trainer.engine().master_params(2).unwrap();
    let err = step(&mut trainer, 4).unwrap_err();
    assert!(given_up(&err), "{err}");
    // The master moved before the write failed; the checkpoint restores
    // it, and the three steps since replay bitwise.
    assert!(trainer.engine().master_params(2).unwrap() != before);
    trainer.engine().store().set_fault_plan(None);
    trainer.load_checkpoint(&dir).unwrap();
    losses.truncate(2);
    for s in 2..5 {
        losses.push(step(&mut trainer, s).unwrap().loss);
    }
    assert_eq!(bits(&losses), bits(&straight_losses));
    assert_eq!(masters(&mut trainer), masters(&mut straight));
    assert_eq!(
        trainer.engine().store().used(Tier::Host),
        trainer.engine().host_state_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A step of three micro-batches that the SSD tier fails for good — from
/// an op in the middle of the second micro-batch on, or in the middle of
/// the last one's forward, before any handler could commit — returns the
/// typed fault and leaves nothing behind: the host tier holds what it
/// held before the step, and no accumulator remains. A retry of the same
/// step is bitwise the uninterrupted run.
#[test]
fn a_failed_accumulated_step_leaves_nothing_behind() {
    let model = tiny_config();
    // The paper's placement with every block recomputing: per micro-batch
    // the SSD tier serves one P16 read per layer and pass — the head is
    // staged once — and nothing else until the handlers.
    let config = EngineConfig {
        model,
        act_decisions: vec![ActDecision::Recompute; model.layers],
        host_capacity: Some(1 << 30),
        ..EngineConfig::tiny()
    };
    let per_micro = 2 * (model.layers as u64 + 2) - 1;
    let micro: Vec<_> = (0..3).map(|s| learnable_batch(&model, s)).collect();
    let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let masters = |engine: &RatelEngine| {
        (0..model.layers + 2)
            .map(|layer| engine.master_params(layer).unwrap())
            .collect::<Vec<_>>()
    };
    let mut straight = RatelEngine::new(config.clone()).unwrap();
    let straight_losses: Vec<f32> = (0..2)
        .map(|_| straight.train_step_accumulated(&micro).unwrap().loss)
        .collect();

    for dead_from in [per_micro + per_micro / 2, 2 * per_micro + per_micro / 2] {
        let mut engine = RatelEngine::new(config.clone()).unwrap();
        let mut losses = vec![engine.train_step_accumulated(&micro).unwrap().loss];
        let host = engine.store().used(Tier::Host);
        let dead = Arc::new(FaultPlan::new());
        dead.fault_at(dead_from, FaultKind::Permanent);
        engine.store().set_fault_plan(Some(dead));
        let err = engine.train_step_accumulated(&micro).unwrap_err();
        assert!(
            matches!(err, RatelError::Storage(StorageError::Faulted { .. })),
            "op {dead_from}: {err}"
        );
        assert_eq!(engine.store().used(Tier::Host), host, "op {dead_from}");
        for layer in 0..model.layers + 2 {
            let sum = BlobKey::shared(BlobKind::GradReduced, layer);
            assert!(!engine.store().contains(&sum), "op {dead_from}: {sum}");
        }
        engine.store().set_fault_plan(None);
        losses.push(engine.train_step_accumulated(&micro).unwrap().loss);
        assert_eq!(bits(&losses), bits(&straight_losses), "op {dead_from}");
        assert_eq!(masters(&engine), masters(&straight), "op {dead_from}");
    }
}

/// A blob file that no longer holds what was written to it reads as a
/// typed error, not as bytes of the wrong length for a decoder to panic
/// on. Truncated on disk, a layer's moments do not reach host memory —
/// the move fails and the host tier is left as it was — the step that
/// reads them fails with the error instead of a panic, and
/// `load_checkpoint` writes them whole again: the trainer then goes on
/// bitwise like a run that never lost them.
#[test]
fn a_truncated_blob_file_is_a_typed_error_and_a_checkpoint_restores_it() {
    use ratel_repro::storage::RetryPolicy;
    let model = tiny_config();
    let dir = temp_dir("truncated");
    let step = |trainer: &mut RatelTrainer, step: u64| {
        let (tokens, targets) = learnable_batch(&model, step);
        trainer.step(Batch::new(&model, &tokens, &targets).unwrap())
    };
    let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut straight = build(model, None);
    let straight_losses = train_steps(&mut straight, &model, 4);

    let mut trainer = build(model, None);
    let mut losses = train_steps(&mut trainer, &model, 2);
    trainer.save_checkpoint(&dir).unwrap();
    let store = trainer.engine().store();
    store.set_retry_policy(RetryPolicy::none());
    // A block whose moments rest on the SSD tier (its handler does not
    // rotate).
    let key = moments(2);
    let file = store.ssd_file(&key).unwrap();
    let written = std::fs::metadata(&file).unwrap().len();
    assert_eq!(written, 8 * model.layer_params(2) as u64);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&file)
        .unwrap()
        .set_len(100)
        .unwrap();

    let host = store.used(Tier::Host);
    let err = store.move_to(&key, Tier::Host).unwrap_err();
    let names_both = |e: &StorageError| {
        matches!(e, StorageError::Io(io) if io.kind() == std::io::ErrorKind::InvalidData
            && io.to_string().contains(&format!("{key}: its file holds 100 B, {written} B")))
    };
    assert!(names_both(&err), "{err}");
    assert_eq!(store.used(Tier::Host), host);
    assert_eq!(store.tier_of(&key).unwrap(), Tier::Ssd);

    // What the rest of the step had staged by the time the read failed
    // is released with it.
    match step(&mut trainer, 2).unwrap_err() {
        RatelError::Storage(e) => assert!(names_both(&e), "{e}"),
        other => panic!("expected the typed read error, got {other}"),
    }
    let store = trainer.engine().store();
    assert_eq!(store.tier_of(&key).unwrap(), Tier::Ssd);
    assert_eq!(store.used(Tier::Host), host);
    assert_eq!(host, trainer.engine().host_state_bytes());

    trainer.load_checkpoint(&dir).unwrap();
    for s in 2..4 {
        losses.push(step(&mut trainer, s).unwrap().loss);
    }
    assert_eq!(bits(&losses), bits(&straight_losses));
    for layer in 0..model.layers + 2 {
        assert_eq!(
            straight.engine().master_params(layer).unwrap(),
            trainer.engine().master_params(layer).unwrap(),
            "layer {layer} master params diverged after the restore"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fault aimed at a blob hits that blob and not the shadow a
/// checkpoint load stages it under: the load goes through, and the step
/// that reads the blob back fails on it, by its name.
#[test]
fn a_fault_on_a_blob_spares_its_loader_shadow() {
    let model = tiny_config();
    let dir = temp_dir("shadow");
    let mut trainer = build(model, None);
    train_steps(&mut trainer, &model, 1);
    trainer.save_checkpoint(&dir).unwrap();
    // Layer 2's moments rest on the SSD tier, so the load stages them
    // there under their shadow.
    let dead = Arc::new(FaultPlan::new());
    dead.fault_on_key(&moments(2), FaultKind::Permanent);
    trainer
        .engine()
        .store()
        .set_fault_plan(Some(Arc::clone(&dead)));
    trainer.load_checkpoint(&dir).unwrap();
    assert_eq!(dead.injected_count(), 0, "{:?}", dead.injected());
    assert_eq!(
        trainer.engine().store().tier_of(&moments(2)).unwrap(),
        Tier::Ssd
    );

    let (tokens, targets) = learnable_batch(&model, 1);
    let err = trainer
        .step(Batch::new(&model, &tokens, &targets).unwrap())
        .unwrap_err();
    assert!(
        matches!(&err, RatelError::Storage(StorageError::Faulted { key, .. })
            if *key == moments(2).to_string()),
        "{err}"
    );
    assert!(dead.injected().iter().all(|e| e.key == moments(2)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Host-pool pressure is a typed error that moves nothing: at the
/// floor `Ratel::plan` accepts, a probe `put` larger than the whole pool
/// is refused with a host out-of-memory error, and the next step is
/// bitwise the step of an untouched twin.
#[test]
fn a_probe_over_the_host_floor_is_refused_and_moves_nothing() {
    let model = tiny_config();
    let builder = || {
        Ratel::init(model)
            .seed(17)
            .activation_decisions(vec![ActDecision::Recompute; model.layers])
    };
    let floor = builder().min_host_capacity().unwrap();
    let mut probed = builder().host_capacity(floor).build().unwrap();
    let mut twin = builder().host_capacity(floor).build().unwrap();

    // The probe is named by a kind the engine never stores.
    let probe = BlobKey::shared(BlobKind::Stage, 0);
    let store = probed.engine().store();
    let (before, held) = (store.traffic(), store.used(Tier::Host));
    let err = store
        .put(&probe, Tier::Host, vec![7u8; floor as usize + 1])
        .unwrap_err();
    assert!(
        matches!(
            err,
            StorageError::OutOfMemory {
                tier: Tier::Host,
                requested,
                ..
            } if requested == floor + 1
        ),
        "{err}"
    );
    assert!(!store.contains(&probe));
    assert_eq!(store.traffic().since(&before).total(), 0);
    assert_eq!(store.used(Tier::Host), held);

    let bits = |l: Vec<f32>| l.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(train_steps(&mut probed, &model, 1)),
        bits(train_steps(&mut twin, &model, 1))
    );
    for layer in 0..model.layers + 2 {
        assert_eq!(
            probed.engine().master_params(layer).unwrap(),
            twin.engine().master_params(layer).unwrap(),
            "layer {layer}"
        );
    }
}

/// The builder holds a host pool to what a step may keep there: one
/// under the plan's static peak is refused with the bytes it needs, and
/// at exactly those bytes the plan verifies clean and the trainer steps
/// bitwise the unbounded run, within the peak and moving exactly the
/// planned bytes. The refused pool is the one the pre-residency floor
/// accepted and then ran out of mid-step.
#[test]
fn a_built_trainer_steps_at_the_host_floor_bitwise_the_unbounded_run() {
    let model = tiny_config();
    let builder = || {
        Ratel::init(model)
            .seed(17)
            .activation_decisions(vec![ActDecision::SwapToHost; model.layers])
    };
    let floor = builder().min_host_capacity().unwrap();
    let tight = 14 * model.max_layer_params() as u64;
    assert!(tight < floor);
    match builder().host_capacity(tight).plan() {
        Err(RatelError::InvalidConfig(v)) => {
            assert!(v[0].starts_with("host capacity"), "{v:?}");
            assert!(v[0].ends_with(&format!("needs {floor} B")), "{v:?}");
        }
        other => panic!("a {tight} B host pool was not refused: {other:?}"),
    }

    let plan = builder().host_capacity(floor).plan().unwrap();
    plan.verify().unwrap();
    let static_peak = plan.static_peak(MemTier::Host);
    let planned = plan.planned_route_bytes();
    let mut capped = plan.build().unwrap();
    let mut free = builder().build().unwrap();
    let before = capped.engine().store().traffic();
    let bits = |l: Vec<f32>| l.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    let steps = 3;
    assert_eq!(
        bits(train_steps(&mut capped, &model, steps)),
        bits(train_steps(&mut free, &model, steps))
    );
    let store = capped.engine().store();
    assert!(store.peak_used(Tier::Host) <= static_peak);
    let moved = store.traffic().since(&before);
    assert_eq!(
        Route::ALL.map(|r| moved.bytes(r)),
        planned.map(|b| b * steps as u64)
    );
}

/// Training itself at the floor, not just a probe `put`: only the
/// embedding — the largest layer of this shape — trains, the activations
/// recompute, and three micro-batches then an accumulated step of them
/// lose and update bitwise like the unbounded run. Below the floor,
/// where the pool holds the embedding's P16 or G16 (2 B/param) but not
/// its master or accumulator (4) or moments (8), `RatelEngine::new`
/// still builds, its step fails with a typed host out-of-memory error,
/// and the failed run's release leaves the tiers at rest with every
/// master as it was.
#[test]
fn training_at_the_host_floor_matches_the_unbounded_run() {
    let model = GptConfig {
        vocab: 1024,
        layers: 2,
        ..tiny_config()
    };
    let config = |host_capacity: Option<u64>| EngineConfig {
        model,
        act_decisions: vec![ActDecision::Recompute; model.layers],
        frozen_layers: (1..model.layers + 2).collect(),
        host_capacity,
        ..EngineConfig::tiny()
    };
    let micro: Vec<_> = (0..3).map(|s| learnable_batch(&model, s)).collect();
    let run = |host_capacity: Option<u64>| {
        let mut engine = RatelEngine::new(config(host_capacity)).unwrap();
        let mut losses = Vec::new();
        for (tokens, targets) in &micro {
            losses.push(engine.train_step(tokens, targets).unwrap().loss);
        }
        losses.push(engine.train_step_accumulated(&micro).unwrap().loss);
        (losses, engine.master_params(0).unwrap())
    };
    let floor = common::min_host_capacity(&config(None));
    let (free_losses, free_master) = run(None);
    let (floor_losses, floor_master) = run(Some(floor));
    let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&free_losses), bits(&floor_losses));
    assert_eq!(free_master, floor_master);

    let embedding = model.vocab * model.hidden + model.seq * model.hidden;
    assert_eq!(embedding, model.max_layer_params());
    let short = 3 * embedding as u64;
    assert!(short < floor);
    let mut engine = RatelEngine::new(config(Some(short))).unwrap();
    let layers = 0..model.layers + 2;
    let masters = |engine: &RatelEngine| {
        let read = |layer| engine.master_params(layer).unwrap();
        layers.clone().map(read).collect::<Vec<_>>()
    };
    let at_rest = masters(&engine);
    let (tokens, targets) = &micro[0];
    let err = engine.train_step(tokens, targets).unwrap_err();
    assert!(
        matches!(
            err,
            RatelError::Storage(StorageError::OutOfMemory {
                tier: Tier::Host,
                ..
            })
        ),
        "{err}"
    );
    let store = engine.store();
    assert_eq!(store.used(Tier::Gpu), 0);
    assert_eq!(store.used(Tier::Host), engine.host_state_bytes());
    assert_eq!(masters(&engine), at_rest);
}
