//! Property-based corruption tests of the crash-safe checkpoint format:
//! truncate or bit-flip *any* byte of *any* file in a two-generation
//! checkpoint directory and loading must either fall back to the other
//! intact generation or report corruption — never hand back a silently
//! wrong model. The checkpoint checksum steps each of its four lanes
//! with a bijection of the little-endian word it reads and folds the
//! lanes, tail and length in by bijections too, so any change confined
//! to one 8-byte word — any single-byte change — is guaranteed to shift
//! a blob or manifest checksum (or, in the manifest's header line, to
//! fail its version check), making every verdict below deterministic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use ratel_repro::core::engine::scaler::ScalePolicy;
use ratel_repro::core::RatelError;
use ratel_repro::prelude::*;

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

fn engine_config(model: GptConfig) -> EngineConfig {
    EngineConfig {
        model,
        seed: 23,
        adam: AdamParams::default(),
        act_decisions: vec![ActDecision::Recompute; model.layers],
        gpu_capacity: None,
        host_capacity: None,
        execution: ExecutionOptions::default(),
        loss_scale: ScalePolicy::None,
        grad_clip: None,
        lr_schedule: ratel_repro::core::engine::lr::LrSchedule::Constant,
        dropout: None,
        frozen_layers: Vec::new(),
    }
}

/// A two-generation checkpoint built once and cloned per proptest case:
/// the directory, its sorted file listing, and per-generation snapshots
/// of every layer's master parameters.
struct Fixture {
    dir: PathBuf,
    files: Vec<String>,
    gen1_masters: Vec<Vec<f32>>,
    gen2_masters: Vec<Vec<f32>>,
}

fn masters_of(engine: &RatelEngine, layers: usize) -> Vec<Vec<f32>> {
    (0..layers + 2)
        .map(|l| engine.master_params(l).unwrap())
        .collect()
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let model = tiny_config();
        let dir = std::env::temp_dir().join(format!("ratel-atomicity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = RatelEngine::new(engine_config(model)).unwrap();
        let (tokens, targets) = learnable_batch(&model, 0);
        engine.train_step(&tokens, &targets).unwrap();
        engine.save_checkpoint(&dir).unwrap();
        let gen1_masters = masters_of(&engine, model.layers);
        let (tokens, targets) = learnable_batch(&model, 1);
        engine.train_step(&tokens, &targets).unwrap();
        engine.save_checkpoint(&dir).unwrap();
        let gen2_masters = masters_of(&engine, model.layers);
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert!(
            files.iter().any(|f| f.starts_with("g1-"))
                && files.iter().any(|f| f.starts_with("g2-"))
                && files.contains(&"manifest-g1.txt".to_string())
                && files.contains(&"manifest-g2.txt".to_string()),
            "unexpected checkpoint layout: {files:?}"
        );
        Fixture {
            dir,
            files,
            gen1_masters,
            gen2_masters,
        }
    })
}

/// Copies the pristine fixture into a fresh per-case directory.
fn clone_fixture(tag: usize) -> PathBuf {
    let fx = fixture();
    let dir =
        std::env::temp_dir().join(format!("ratel-atomicity-case-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for f in &fx.files {
        std::fs::copy(fx.dir.join(f), dir.join(f)).unwrap();
    }
    dir
}

fn corrupt(path: &Path, truncate: bool, pos: usize) {
    let bytes = std::fs::read(path).unwrap();
    assert!(!bytes.is_empty(), "checkpoint files are never empty");
    let mutated = if truncate {
        bytes[..bytes.len() / 2].to_vec()
    } else {
        let mut b = bytes;
        let i = pos % b.len();
        b[i] ^= 1 << (pos % 8);
        b
    };
    std::fs::write(path, mutated).unwrap();
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corrupting any single file of the newest generation falls back to
    /// the previous one; corrupting an old-generation file leaves the
    /// newest loading cleanly. Either way the loaded model is bitwise
    /// one of the two committed snapshots — never a blend and never
    /// garbage.
    #[test]
    fn any_single_file_corruption_is_detected(
        file_sel in 0usize..10_000,
        truncate in any::<bool>(),
        pos in 0usize..100_000,
    ) {
        let fx = fixture();
        let model = tiny_config();
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = clone_fixture(case);
        let victim = &fx.files[file_sel % fx.files.len()];
        corrupt(&dir.join(victim), truncate, pos);

        let mut engine = RatelEngine::new(engine_config(model)).unwrap();
        engine.load_checkpoint(&dir).expect("one generation is intact");
        let loaded = masters_of(&engine, model.layers);
        let expected = if victim.contains("g2") {
            &fx.gen1_masters // newest generation torn: previous one loads
        } else {
            &fx.gen2_masters // old generation torn: newest still loads
        };
        prop_assert!(&loaded == expected, "corrupted {} -> wrong snapshot", victim);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With every generation corrupted, loading reports checkpoint
    /// corruption instead of handing back a wrong model.
    #[test]
    fn corrupting_every_generation_is_a_typed_error(
        truncate in any::<bool>(),
        pos in 0usize..100_000,
    ) {
        let model = tiny_config();
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = clone_fixture(case);
        for manifest in ["manifest-g1.txt", "manifest-g2.txt"] {
            corrupt(&dir.join(manifest), truncate, pos);
        }
        let mut engine = RatelEngine::new(engine_config(model)).unwrap();
        let before = masters_of(&engine, model.layers);
        let err = engine.load_checkpoint(&dir).expect_err("no generation intact");
        prop_assert!(
            matches!(err, RatelError::CheckpointCorrupt(_)),
            "expected CheckpointCorrupt, got: {}", err
        );
        // The failed load did not scribble on the engine.
        prop_assert_eq!(masters_of(&engine, model.layers), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
