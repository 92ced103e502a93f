//! The small model zoo and engine configuration shared by the suites
//! that sweep worker counts and offload schedules
//! (`executor_equivalence.rs`, `telemetry_spine.rs`).

use ratel_repro::prelude::*;

pub fn zoo() -> Vec<GptConfig> {
    vec![
        // Wide-ish and shallow.
        GptConfig {
            vocab: 96,
            seq: 12,
            hidden: 32,
            heads: 4,
            layers: 2,
            batch: 2,
        },
        // Deeper, mixed activation policies exercise spill + recompute.
        GptConfig {
            vocab: 64,
            seq: 8,
            hidden: 16,
            heads: 2,
            layers: 4,
            batch: 2,
        },
        // Single block: the shortest pipeline the lowering supports.
        GptConfig {
            vocab: 48,
            seq: 8,
            hidden: 16,
            heads: 2,
            layers: 1,
            batch: 1,
        },
    ]
}

fn decisions_for(model: &GptConfig) -> Vec<ActDecision> {
    // Rotate through all three policies so every DAG shape appears.
    (0..model.layers)
        .map(|b| match b % 3 {
            0 => ActDecision::SwapToHost,
            1 => ActDecision::SwapToSsd,
            _ => ActDecision::Recompute,
        })
        .collect()
}

pub fn config_with(model: GptConfig, execution: ExecutionOptions) -> EngineConfig {
    EngineConfig {
        model,
        seed: 1234,
        act_decisions: decisions_for(&model),
        execution,
        ..EngineConfig::tiny()
    }
}
