//! Engine configuration: how a step executes, what each block does
//! with its activations, and the capacities of the tiers it runs in.

use ratel_tensor::{AdamParams, GptConfig};

use super::lr::LrSchedule;
use super::scaler::ScalePolicy;

/// How a training step executes: the engine lowers its movement plan
/// into a task DAG (statically verified in debug builds) and dispatches
/// it onto one worker pool per resource class — see [`super::executor`]. The
/// single-variant enum is the shape `benchmark/` compiles against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionOptions {
    /// Schedule-driven: `train_step` executes the verified movement DAG
    /// on per-resource worker pools.
    Executor(ExecutorOptions),
}

impl ExecutionOptions {
    pub(crate) fn executor(self) -> ExecutorOptions {
        let ExecutionOptions::Executor(opts) = self;
        opts
    }
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions::Executor(ExecutorOptions::default())
    }
}

/// Tuning knobs of the schedule-driven executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Worker threads per resource pool. One worker per pool already
    /// overlaps the pipeline across resources (each pool serves a
    /// distinct class); the default of two lets one class run
    /// independent tasks concurrently — an SSD array services a state
    /// read while a state write streams out, which the single-threaded
    /// pool would serialize. Numerics are identical at any count.
    pub workers_per_pool: usize,
    /// The gradient-offloading schedule to lower and execute.
    /// [`crate::offload::GradOffloadMode::OptimizedActive`] is Ratel's
    /// Fig. 3b pipeline; `SeparateStage` runs the optimizer after
    /// backward (the Ratel+ZeRO ablation shape).
    pub offload: crate::offload::GradOffloadMode,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            workers_per_pool: 2,
            offload: crate::offload::GradOffloadMode::OptimizedActive,
        }
    }
}

/// What to do with one transformer block's intra-layer activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActDecision {
    /// Swap the saved-activation blob to main memory.
    SwapToHost,
    /// Swap the saved-activation blob through main memory to the SSDs.
    SwapToSsd,
    /// Discard it and recompute the block's forward during backward.
    Recompute,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The executable model shape.
    pub model: GptConfig,
    /// Seed for parameter initialization.
    pub seed: u64,
    /// Adam hyperparameters.
    pub adam: AdamParams,
    /// Per-block activation decision (length = `model.layers`).
    pub act_decisions: Vec<ActDecision>,
    /// "GPU" arena capacity in bytes (`None` = unbounded).
    pub gpu_capacity: Option<u64>,
    /// Host pool capacity in bytes (`None` = unbounded).
    pub host_capacity: Option<u64>,
    /// Executor worker count and gradient-offloading schedule.
    pub execution: ExecutionOptions,
    /// Mixed-precision loss scaling policy (see [`super::scaler`]).
    pub loss_scale: ScalePolicy,
    /// Per-layer gradient-norm clip (None disables clipping).
    pub grad_clip: Option<f32>,
    /// Learning-rate schedule applied on top of `adam.lr`.
    pub lr_schedule: LrSchedule,
    /// Residual dropout probability (None disables). Masks are derived
    /// from the step index and layer id, so swapped and recomputed
    /// backward passes regenerate identical masks.
    pub dropout: Option<f32>,
    /// Layers whose parameters are *frozen* (no gradient offload, no
    /// optimizer handler, no state I/O) — parameter-efficient fine-tuning
    /// such as linear probing. Ids: 0 = embedding, 1..=L = blocks,
    /// L+1 = head. Backpropagation still flows *through* frozen layers.
    pub frozen_layers: Vec<usize>,
}

impl EngineConfig {
    /// Checks the configuration's shape and returns *every* violation
    /// found (empty = valid): a degenerate model, a per-block or
    /// per-layer list that does not match it, no workers. No engine is
    /// built over one of these ([`super::RatelEngine::new`] refuses it),
    /// and [`crate::Ratel::build`] reports the full list in one
    /// [`crate::RatelError::InvalidConfig`], so a bad config is fixed in
    /// one pass instead of one error per run. Whether the tiers can hold
    /// a step is not a shape question: the plan's residency bound
    /// answers it ([`crate::api::TrainingPlan::static_peak`]).
    pub fn validate(&self) -> Vec<String> {
        let m = &self.model;
        let mut v = Vec::new();
        if m.layers == 0 {
            v.push("model needs at least one transformer block".to_string());
        }
        if m.heads == 0 {
            v.push("model needs at least one attention head".to_string());
        }
        if m.hidden == 0 {
            v.push("hidden dimension must be non-zero".to_string());
        }
        if m.vocab == 0 {
            v.push("vocabulary must be non-empty".to_string());
        }
        if m.seq == 0 {
            v.push("sequence length must be non-zero".to_string());
        }
        if m.batch == 0 {
            v.push("micro-batch size must be non-zero".to_string());
        }
        if m.heads != 0 && !m.hidden.is_multiple_of(m.heads) {
            v.push(format!(
                "hidden ({}) must be divisible by heads ({})",
                m.hidden, m.heads
            ));
        }
        if self.act_decisions.len() != m.layers {
            v.push(format!(
                "one activation decision per block: got {}, model has {} blocks",
                self.act_decisions.len(),
                m.layers
            ));
        }
        for &layer in &self.frozen_layers {
            if layer >= m.layers + 2 {
                v.push(format!(
                    "frozen layer {layer} out of range (model has layers 0..={})",
                    m.layers + 1
                ));
            }
        }
        if self.execution.executor().workers_per_pool == 0 {
            v.push("executor needs at least one worker per resource pool".to_string());
        }
        v
    }

    /// A reasonable default: tiny model, everything swapped to host.
    pub fn tiny() -> Self {
        let model = GptConfig::tiny();
        EngineConfig {
            model,
            seed: 42,
            adam: AdamParams::default(),
            act_decisions: vec![ActDecision::SwapToHost; model.layers],
            gpu_capacity: None,
            host_capacity: None,
            execution: ExecutionOptions::default(),
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: LrSchedule::Constant,
            dropout: None,
            frozen_layers: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::data::random_batch;
    use crate::engine::RatelEngine;
    use crate::error::RatelError;
    use ratel_storage::{StorageError, Tier};

    #[test]
    fn gpu_capacity_is_enforced() {
        let mut config = EngineConfig::tiny();
        config.gpu_capacity = Some(1024); // absurdly small "GPU"
        let err = match RatelEngine::new(config) {
            // Initialization itself doesn't touch the GPU tier...
            Ok(mut engine) => {
                let (tokens, targets) = random_batch(&GptConfig::tiny(), 4);
                engine.train_step(&tokens, &targets).unwrap_err()
            }
            Err(e) => e,
        };
        assert!(
            matches!(
                err,
                RatelError::Storage(StorageError::OutOfMemory {
                    tier: Tier::Gpu,
                    ..
                })
            ),
            "expected GPU OOM, got {err}"
        );
    }

    #[test]
    fn a_misshapen_config_builds_no_engine_in_either_profile() {
        // `RatelEngine::new` is public: a caller that skips the builder
        // gets the shape violations back, not an out-of-bounds index (too
        // few decisions) or a silently ignored surplus or frozen id.
        let layers = EngineConfig::tiny().model.layers;
        let refused = |config: EngineConfig, field: &str| match RatelEngine::new(config) {
            Err(RatelError::InvalidConfig(v)) => {
                assert!(v.iter().any(|m| m.contains(field)), "{field}: {v:?}")
            }
            Err(other) => panic!("{field}: expected InvalidConfig, got {other}"),
            Ok(_) => panic!("{field}: a misshapen config built an engine"),
        };
        for decisions in [layers - 1, layers + 1] {
            let mut config = EngineConfig::tiny();
            config.act_decisions = vec![ActDecision::SwapToHost; decisions];
            refused(config, "one activation decision per block");
        }
        let mut config = EngineConfig::tiny();
        config.frozen_layers = vec![layers + 2];
        refused(config, &format!("frozen layer {}", layers + 2));
        RatelEngine::new(EngineConfig::tiny()).unwrap();
    }
}
