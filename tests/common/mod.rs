//! The small model zoo and engine configuration shared by the suites
//! that sweep worker counts and offload schedules
//! (`executor_equivalence.rs`, `telemetry_spine.rs`), hold the tiers
//! to the plan's residency bound (`fits.rs`) or train at the plan's host
//! floor (`fault_injection.rs`). Each suite uses part of it.
#![allow(dead_code)]

use ratel_repro::prelude::*;

/// One zoo entry: a model shape, the activation decisions its blocks
/// take in turn, and the GPU arena it runs under.
pub struct Shape {
    pub model: GptConfig,
    pub decisions: [ActDecision; 3],
    pub gpu_capacity: Option<u64>,
}

/// Rotate through all three policies so every DAG shape appears.
const HOST_SSD_RECOMPUTE: [ActDecision; 3] = [
    ActDecision::SwapToHost,
    ActDecision::SwapToSsd,
    ActDecision::Recompute,
];

pub fn zoo() -> Vec<Shape> {
    let unbounded = |model| Shape {
        model,
        decisions: HOST_SSD_RECOMPUTE,
        gpu_capacity: None,
    };
    vec![
        // Wide-ish and shallow.
        unbounded(GptConfig {
            vocab: 96,
            seq: 12,
            hidden: 32,
            heads: 4,
            layers: 2,
            batch: 2,
        }),
        // Deeper, mixed activation policies exercise spill + recompute.
        unbounded(GptConfig {
            vocab: 64,
            seq: 8,
            hidden: 16,
            heads: 2,
            layers: 4,
            batch: 2,
        }),
        // Single block: the shortest pipeline the lowering supports.
        unbounded(GptConfig {
            vocab: 48,
            seq: 8,
            hidden: 16,
            heads: 2,
            layers: 1,
            batch: 1,
        }),
        // The benchmark's `train-actswap` in miniature: two SSD-bound
        // blobs moving in chunks, and an arena whose byte budget (half of
        // 64 KiB, a little over two blocks' 15 KB of backward inputs)
        // paces what is read ahead — the plan's static peak at four
        // workers per pool is 59,936 B.
        Shape {
            model: GptConfig {
                vocab: 64,
                seq: 8,
                hidden: 16,
                heads: 2,
                layers: 6,
                batch: 2,
            },
            decisions: [
                ActDecision::SwapToSsd,
                ActDecision::SwapToHost,
                ActDecision::Recompute,
            ],
            gpu_capacity: Some(64 << 10),
        },
    ]
}

pub fn config_with(shape: &Shape, execution: ExecutionOptions) -> EngineConfig {
    let decisions = shape.decisions.iter().copied().cycle();
    EngineConfig {
        model: shape.model,
        seed: 1234,
        act_decisions: decisions.take(shape.model.layers).collect(),
        gpu_capacity: shape.gpu_capacity,
        execution,
        ..EngineConfig::tiny()
    }
}

/// The smallest host pool [`Ratel::plan`] accepts for `config`'s model,
/// decisions, frozen layers, execution and arena
/// ([`Ratel::min_host_capacity`]): the paper's all-SSD placement, paced
/// as tightly as it runs.
pub fn min_host_capacity(config: &EngineConfig) -> u64 {
    let mut builder = Ratel::init(config.model)
        .activation_decisions(config.act_decisions.clone())
        .freeze_layers(config.frozen_layers.clone())
        .execution(config.execution);
    if let Some(bytes) = config.gpu_capacity {
        builder = builder.gpu_capacity(bytes);
    }
    builder.min_host_capacity().unwrap()
}
