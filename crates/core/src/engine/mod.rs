//! The real out-of-core fine-tuning engine.
//!
//! This module executes Ratel's algorithms *for real* on a small GPT:
//! model states live as blobs in the SSD tier of a
//! [`ratel_storage::TieredStore`], the "GPU" is a capacity-enforced arena
//! that only ever holds one layer's working set, activations are swapped
//! to host/SSD or recomputed per a planner decision, and a concurrent CPU
//! optimizer consumes each layer's gradient the moment backward produces
//! it (active gradient offloading, §IV-C) while staying fully synchronous:
//! every parameter read by iteration *k+1* reflects every gradient of
//! iteration *k*, with no staleness.
//!
//! A step runs exactly one way: the engine's movement plan
//! ([`movement_spec_for`]) is lowered to a verified task DAG
//! (`dag_step`) and dispatched on one worker pool per resource class
//! ([`executor`]). Gradient accumulation and the separate-stage ablation
//! are other DAGs over the same executor, not other code paths.
//!
//! Mixed precision is emulated faithfully: the master parameters and Adam
//! moments are f32 blobs (P32/OS32), the compute copies, activations, and
//! gradients move as IEEE-754 binary16 bytes (P16/A16/G16). Because both
//! the offloaded engine and the in-memory [`reference::ReferenceTrainer`]
//! round at the same points, their losses and parameters match *exactly*
//! — the strongest possible check of the paper's "no parameter staleness"
//! claim (§IV-C's footnote distinguishing Ratel from one-step-delayed
//! ZeRO-Offload).

pub mod bpe;
pub mod checkpoint;
pub mod conformance;
mod dag_step;
pub mod data;
pub mod executor;
mod generate;
pub mod lr;
pub mod obs;
pub mod profiler;
pub mod reference;
pub mod scaler;
pub mod telemetry;

use std::sync::Arc;

use ratel_obs::EventKind;
use ratel_sim::SpanKind;
use ratel_storage::telemetry::{FaultStats, TelemetryRecorder};
use ratel_storage::{Route, StorageError, Tier, TierConfig, TieredStore, TrafficSnapshot};
use ratel_tensor::dtype::{decode_f16, decode_f32, encode_f16, encode_f32};
use ratel_tensor::{Adam, AdamParams, BlockSaved, GptConfig, GptModel, ParamLayer};

use crate::error::RatelError;
use dag_step::{GradSink, StepDag};
use lr::LrSchedule;
use scaler::{LossScaler, ScalePolicy};
use telemetry::StepTelemetry;

/// How a training step executes: the engine lowers its movement plan
/// into a task DAG (statically verified in debug builds) and dispatches
/// it onto one worker pool per resource class — see [`executor`]. The
/// single-variant enum is the shape `benchmark/` compiles against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionOptions {
    /// Schedule-driven: `train_step` executes the verified movement DAG
    /// on per-resource worker pools.
    Executor(ExecutorOptions),
}

impl ExecutionOptions {
    fn executor(self) -> ExecutorOptions {
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
    /// Mixed-precision loss scaling policy (see [`scaler`]).
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
    /// Checks the whole configuration and returns *every* violation
    /// found (empty = valid). [`crate::Ratel::build`] calls this and
    /// reports the full list in one [`RatelError::InvalidConfig`], so a
    /// bad config is fixed in one pass instead of one error per run.
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
        // Capacity floors only make sense once the shape itself is sane.
        if v.is_empty() {
            let max_p = m.max_layer_params() as u64;
            if let Some(cap) = self.gpu_capacity {
                let (in_flight, staged) = self.arena_demand();
                // Staging fills half the arena, or one kernel's inputs
                // when those are larger; the offloads pass through beside
                // it.
                let need = in_flight + in_flight.max(staged);
                if cap < need {
                    v.push(format!(
                        "gpu capacity {cap} B cannot hold the offloads in flight \
                         ({in_flight} B, one blob or chunk per G2M worker) beside the \
                         staging window (half the arena, at least the {staged} B one \
                         kernel consumes): needs {need} B"
                    ));
                }
            }
            if let Some(cap) = self.host_capacity {
                let need = 14 * max_p; // master (4) + moments (8) + G16 (2)
                if cap < need {
                    v.push(format!(
                        "host capacity {cap} B cannot hold the largest layer's \
                         optimizer working set ({need} B)"
                    ));
                }
            }
        }
        v
    }

    /// Lowers `spec` — this config's movement plan or its accumulation
    /// variant — into the DAG a step dispatches, paced against the
    /// configured tier capacities. The builder self-verifies the schedule
    /// in debug builds and the lowering re-verifies it after pacing,
    /// holding it to those capacities when the config clears
    /// [`EngineConfig::validate`]'s floors (below them a step is expected
    /// to fail with a typed out-of-memory error, which is not a lowering
    /// defect) — so the DAG `train_step` dispatches is the DAG that
    /// passed.
    fn lower(&self, spec: &crate::schedule::IterationSpec) -> Result<Arc<StepDag>, RatelError> {
        let tiers = ratel_verify::Limits {
            gpu: self.gpu_capacity.map(|c| c as f64),
            host: self.host_capacity.map(|c| c as f64),
            ssd: None,
        };
        StepDag::lower(spec, &tiers, self.validate().is_empty()).map(Arc::new)
    }

    /// What a step puts into the GPU arena, every blob in transit counted
    /// (`offload_f16` and the staged copies all live in `Tier::Gpu`):
    /// `(in_flight, staged)`, where `in_flight` is the largest blob or
    /// chunk a G2M worker offloads — a checkpoint, a saved-activation
    /// blob or one chunk of an SSD-bound one, a G16 — times the G2M
    /// workers, and `staged` is the most one kernel consumes from the
    /// arena: its P16 and, for a block's backward, the checkpoint and
    /// swapped activations.
    fn arena_demand(&self) -> (u64, u64) {
        let m = &self.model;
        let p16 = 2 * m.max_layer_params() as u64;
        let ckpt = 2 * (m.batch * m.seq * m.hidden) as u64;
        let act_elems = BlockSaved::element_count_for(m.batch, m.seq, m.hidden, m.heads) as u64;
        let chunks = crate::schedule::ACT_SPILL_CHUNKS as u64;
        let mut blob = p16; // a G16 is as large as its layer's P16
        let mut staged = p16;
        for decision in &self.act_decisions {
            let (offloaded, swapped) = match decision {
                ActDecision::Recompute => (ckpt, 0),
                ActDecision::SwapToHost => (ckpt.max(2 * act_elems), 2 * act_elems),
                ActDecision::SwapToSsd => (ckpt.max(2 * act_elems.div_ceil(chunks)), 2 * act_elems),
            };
            blob = blob.max(offloaded);
            staged = staged.max(2 * m.block_params() as u64 + ckpt + swapped);
        }
        let workers = self.execution.executor().workers_per_pool as u64;
        (workers * blob, staged)
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

/// Statistics of one engine training step.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Mean cross-entropy loss of the step.
    pub loss: f32,
    /// Bytes moved per route during the step.
    pub traffic: ratel_storage::TrafficSnapshot,
    /// Wall-clock seconds of the step.
    pub wall_seconds: f64,
    /// Loss scale applied to this step's backward pass.
    pub loss_scale: f32,
    /// Layers whose update was skipped because their (unscaled) gradient
    /// overflowed the f16 range.
    pub skipped_layers: usize,
    /// Robustness-counter deltas for the step (SSD retries/give-ups and
    /// host-pressure spills) — always collected, telemetry on or off.
    pub fault_stats: FaultStats,
    /// Per-task execution breakdown — tasks and busy time per resource
    /// pool plus the measured critical path, summed over the micro-batch
    /// DAG runs of an accumulated step. Always `Some`; the `Option` is
    /// kept for source compatibility.
    pub tasks: Option<executor::TaskBreakdown>,
}

/// Scalar parameters of engine layer `id` (0 = embedding, 1..=L =
/// blocks, L+1 = head), computed from the shape alone so movement plans
/// can be drawn up before any model is materialized.
fn analytic_layer_params(model: &GptConfig, id: usize) -> usize {
    if id == 0 {
        model.embedding_params()
    } else if id <= model.layers {
        model.block_params()
    } else {
        model.head_params()
    }
}

/// Lowers one engine step of `config` into its schedule twin: an
/// [`IterationSpec`](crate::schedule::IterationSpec) planning exactly
/// what the engine moves (the same shape `ratel-bench validate`
/// compares telemetry against). Layer ids follow the engine: 0 =
/// embedding, 1..=L = blocks, L+1 = head. Compute durations are
/// placeholders — the twin exists for dataflow/residency structure,
/// which `ratel-verify` checks statically.
///
/// This is a free function so a [`crate::api::TrainingPlan`] can build
/// and verify the plan *before* an engine (and its model) exists;
/// [`RatelEngine::movement_spec`] delegates here.
pub fn movement_spec_for(config: &EngineConfig) -> crate::schedule::IterationSpec {
    use crate::schedule::{IterationSpec, LayerTask, LinkRates, OptimizerKind, ParamSource};
    let model = config.model;
    let rows = (model.batch * model.seq) as f64;
    let ckpt_bytes = 2.0 * rows * model.hidden as f64;
    let act_bytes = 2.0
        * BlockSaved::element_count_for(model.batch, model.seq, model.hidden, model.heads) as f64;
    let layer_count = model.layers + 2;
    let layers = (0..layer_count)
        .map(|id| {
            let params = analytic_layer_params(&model, id) as f64;
            let is_block = id >= 1 && id <= model.layers;
            let is_head = id == layer_count - 1;
            // Frozen layers move no gradient and run no optimizer
            // handler; backward still flows through them.
            let frozen = config.frozen_layers.contains(&id);
            let (to_host, to_ssd) = if is_block {
                match config.act_decisions[id - 1] {
                    ActDecision::SwapToHost => (ckpt_bytes + act_bytes, 0.0),
                    ActDecision::SwapToSsd => (ckpt_bytes, act_bytes),
                    ActDecision::Recompute => (ckpt_bytes, 0.0),
                }
            } else {
                (0.0, 0.0)
            };
            LayerTask {
                label: if id == 0 {
                    "embedding".into()
                } else if is_head {
                    "head".into()
                } else {
                    format!("block{}", id - 1)
                },
                p16_bytes: 2.0 * params,
                param_source: ParamSource::Ssd,
                fwd_flops: 0.0,
                bwd_flops: 0.0,
                act_to_host_bytes: to_host,
                act_to_ssd_bytes: to_ssd,
                refetch_in_backward: !is_head,
                grad_bytes: if frozen { 0.0 } else { 2.0 * params },
                grad_spill_to_ssd: false,
                optimizer: if frozen {
                    OptimizerKind::None
                } else {
                    OptimizerKind::CpuOutOfCore {
                        read_bytes: 12.0 * params,
                        write_bytes: 14.0 * params,
                        cpu_params: params,
                    }
                },
            }
        })
        .collect();
    IterationSpec {
        layers,
        mode: config.execution.executor().offload,
        rates: LinkRates {
            thp_gpu: 1.0,
            bw_g2m: 1.0,
            bw_m2g: 1.0,
            ssd_read: 1.0,
            ssd_write: 1.0,
            cpu_params_per_sec: 1.0,
            state_io_efficiency: 1.0,
        },
        gpus: 1,
        items_per_iteration: model.batch as f64,
        per_layer_overhead_seconds: 0.0,
    }
}

/// The out-of-core engine.
pub struct RatelEngine {
    config: EngineConfig,
    store: Arc<TieredStore>,
    /// Layer skeletons; weights are loaded per use from the P16 blobs.
    model: GptModel,
    /// Monotone step counter (wall steps, including skipped ones).
    step: u64,
    /// Per-layer count of *applied* Adam updates (the bias-correction
    /// clock; overflow-skipped steps do not advance it).
    layer_steps: Vec<u64>,
    /// Mixed-precision loss scaler.
    scaler: LossScaler,
    /// Spans/metrics of the most recent instrumented step (None until a
    /// step runs with telemetry enabled).
    last_telemetry: Option<StepTelemetry>,
    /// Plan-conformance monitor, checked after every instrumented step
    /// once [`RatelEngine::enable_conformance`] is called.
    conformance: Option<conformance::ConformanceMonitor>,
    /// Findings of the most recent conformance-checked step.
    last_findings: Vec<conformance::Finding>,
    /// Cumulative conformance findings across all checked steps.
    total_findings: u64,
    /// The lowered, paced, verified step DAG. The plan depends only on
    /// the config, so it is built once and reused every step.
    step_dag: Arc<StepDag>,
    /// The DAG non-final micro-batches of an accumulated step run (see
    /// [`RatelEngine::accumulation_dag`]); lowered on first use.
    accum_dag: Option<Arc<StepDag>>,
}

/// Storage keys for a layer's blobs. Layer ids: 0 = embedding, 1..=L =
/// blocks, L+1 = head.
pub(crate) fn master_key(layer: usize) -> String {
    format!("layer{layer}/master")
}
pub(crate) fn moments_key(layer: usize) -> String {
    format!("layer{layer}/moments")
}
pub(crate) fn p16_key(layer: usize) -> String {
    format!("layer{layer}/p16")
}
/// A layer's P16 held in the host tier for one decode call (see
/// `generate.rs`).
fn pinned_key(layer: usize) -> String {
    format!("layer{layer}/p16#pinned")
}
fn grad_key(layer: usize) -> String {
    format!("layer{layer}/grad")
}
/// A block's saved activations: the whole blob, or — for a blob that
/// moves in chunks — chunk `c` of it (`block{b}/acts#c`).
fn act_key(block: usize, chunk: Option<usize>) -> String {
    match chunk {
        Some(c) => format!("block{block}/acts#{c}"),
        None => format!("block{block}/acts"),
    }
}
fn ckpt_key(layer: usize) -> String {
    format!("layer{layer}/ckpt")
}
fn accum_key(layer: usize) -> String {
    format!("layer{layer}/grad-accum")
}

/// Loads flat parameters into layer `layer` of the model skeleton
/// (0 = embedding, 1..=L = blocks, L+1 = head).
fn set_layer_params(model: &mut GptModel, layer: usize, flat: &[f32]) {
    let l = model.blocks.len();
    if layer == 0 {
        model.embedding.set_params_flat(flat);
    } else if layer <= l {
        model.blocks[layer - 1].set_params_flat(flat);
    } else {
        model.head.set_params_flat(flat);
    }
}

/// Stores an f16 blob in the GPU tier and swaps it to `target`.
fn offload_f16(
    store: &TieredStore,
    key: &str,
    bytes: Vec<u8>,
    target: Tier,
) -> Result<(), StorageError> {
    store.put(key, Tier::Gpu, bytes)?;
    store.move_to(key, target)?;
    Ok(())
}

/// Fetches an f16 blob back to the GPU tier and takes it out of the
/// store, returning the bytes.
fn fetch_f16(store: &TieredStore, key: &str) -> Result<Vec<u8>, StorageError> {
    store.move_to(key, Tier::Gpu)?;
    store.take(key)
}

impl RatelEngine {
    /// Initializes the engine: builds the model, then *moves every model
    /// state to the SSD tier* (P32, OS32, P16 blobs per layer).
    ///
    /// This low-level constructor trusts its config (debug builds assert
    /// the basics); [`crate::Ratel::build`] runs the full
    /// [`EngineConfig::validate`] pass first and reports every violation.
    pub fn new(config: EngineConfig) -> Result<Self, RatelError> {
        debug_assert_eq!(
            config.act_decisions.len(),
            config.model.layers,
            "one activation decision per block"
        );
        let tier_config = TierConfig {
            gpu_capacity: config.gpu_capacity,
            host_capacity: config.host_capacity,
            ssd_capacity: None,
            ssd_dir: TierConfig::unbounded_temp().ssd_dir,
        };
        let store = Arc::new(TieredStore::new(tier_config)?);
        let model = GptModel::new(config.model, config.seed);

        let scaler = LossScaler::new(config.loss_scale);
        let layer_steps = vec![0u64; config.model.layers + 2];
        // The movement plan is lowered once here.
        let step_dag = config.lower(&movement_spec_for(&config))?;
        let engine = RatelEngine {
            config,
            store,
            model,
            step: 0,
            layer_steps,
            scaler,
            last_telemetry: None,
            conformance: None,
            last_findings: Vec::new(),
            total_findings: 0,
            step_dag,
            accum_dag: None,
        };
        debug_assert!(
            (0..engine.layer_count()).all(|id| analytic_layer_params(&engine.config.model, id)
                == engine.layer_param_count(id)),
            "analytic layer param counts diverged from the live model"
        );
        engine.init_states()?;
        Ok(engine)
    }

    /// Lowers one engine step into its schedule twin: an
    /// [`IterationSpec`] planning exactly what the engine moves (the
    /// same shape `ratel-bench validate` compares telemetry against).
    /// Layer ids follow the engine: 0 = embedding, 1..=L = blocks,
    /// L+1 = head. Compute durations are placeholders — the twin exists
    /// for dataflow/residency structure, which `ratel-verify` checks
    /// statically; see [`IterationSpec::verify`].
    pub fn movement_spec(&self) -> crate::schedule::IterationSpec {
        movement_spec_for(&self.config)
    }

    /// Number of schedulable layers (embedding + blocks + head).
    pub fn layer_count(&self) -> usize {
        self.config.model.layers + 2
    }

    /// The model shape the engine was built with.
    pub fn model_config(&self) -> GptConfig {
        self.config.model
    }

    fn layer_params_flat(&self, layer: usize) -> Vec<f32> {
        let l = self.config.model.layers;
        if layer == 0 {
            self.model.embedding.params_flat()
        } else if layer <= l {
            self.model.blocks[layer - 1].params_flat()
        } else {
            self.model.head.params_flat()
        }
    }

    fn init_states(&self) -> Result<(), StorageError> {
        // All initial states stream to the SSD tier in one coalesced
        // batch per layer kind: three sequential segment writes instead of
        // 3 * layer_count random blob writes.
        let mut masters = Vec::new();
        let mut moments = Vec::new();
        let mut p16s = Vec::new();
        for layer in 0..self.layer_count() {
            let master = self.layer_params_flat(layer);
            // P16 is what the GPU computes with: the f16 rounding of the
            // master, exactly what the optimizer will emit after steps.
            p16s.push((p16_key(layer), encode_f16(&master)));
            moments.push((
                moments_key(layer),
                encode_f32(&Adam::new(master.len()).to_flat()),
            ));
            masters.push((master_key(layer), encode_f32(&master)));
        }
        self.store.put_batch(Tier::Ssd, masters)?;
        self.store.put_batch(Tier::Ssd, moments)?;
        self.store.put_batch(Tier::Ssd, p16s)?;
        Ok(())
    }

    /// Loads a layer's P16 blob into the GPU arena, decodes it into the
    /// layer skeleton, and removes the staged copy (read-only streaming).
    /// The bytes come from the layer's pinned host copy while a decode
    /// call holds one, from the SSD tier otherwise.
    fn stage_params(&mut self, layer: usize) -> Result<(), StorageError> {
        let pinned = pinned_key(layer);
        let key = if self.store.contains(&pinned) {
            pinned
        } else {
            p16_key(layer)
        };
        let staged = format!("{}#staged", p16_key(layer));
        self.store.copy_to(&key, &staged, Tier::Gpu)?;
        let flat = decode_f16(&self.store.take(&staged)?);
        set_layer_params(&mut self.model, layer, &flat);
        Ok(())
    }

    /// Runs one full training step (forward, backward with swapped or
    /// recomputed activations, actively offloaded synchronous optimizer).
    ///
    /// `tokens`/`targets` are `batch * seq` ids, sequence-major.
    pub fn train_step(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
    ) -> Result<StepStats, RatelError> {
        let result = self.run_step(&[], (tokens, targets));
        self.seal_step(result)
    }

    /// Runs one training step over several micro-batches with gradient
    /// accumulation: each micro-batch's G16 gradients land in host memory
    /// and are summed into f32 accumulators there; only after the final
    /// micro-batch does the (averaged, re-rounded) gradient reach the
    /// optimizer, whose handlers then overlap the final backward's tail.
    ///
    /// Semantics (mirrored exactly by
    /// [`reference::ReferenceTrainer::train_step_accumulated`]): per-layer
    /// gradient = `f16( mean_i( f16(g_i) ) )`; the reported loss is the
    /// mean micro-batch loss.
    ///
    /// # Errors
    /// [`RatelError::InvalidBatch`] when `micro_batches` is empty.
    pub fn train_step_accumulated(
        &mut self,
        micro_batches: &[(Vec<usize>, Vec<usize>)],
    ) -> Result<StepStats, RatelError> {
        let Some(((tokens, targets), accumulated)) = micro_batches.split_last() else {
            return Err(RatelError::InvalidBatch(
                "need at least one micro-batch".into(),
            ));
        };
        let result = self.run_step(accumulated, (tokens, targets));
        self.seal_step(result)
    }

    /// One synchronous step: every micro-batch in `accumulated` runs the
    /// accumulation DAG, then `last` runs the step DAG, whose optimizer
    /// handlers consume the merged gradient. A plain step is the case
    /// `accumulated == []`.
    fn run_step(
        &mut self,
        accumulated: &[(Vec<usize>, Vec<usize>)],
        last: (&[usize], &[usize]),
    ) -> Result<StepStats, RatelError> {
        let t0 = std::time::Instant::now();
        let traffic_before = self.store.traffic();
        let faults_before = self.store.telemetry().fault_stats();
        let step_start = self.begin_step_telemetry();
        self.step += 1;
        ratel_obs::flight().record(EventKind::StepBegin, 0, "step", 0, self.step);
        let scale = self.scaler.current();
        let inv_n = 1.0 / (accumulated.len() + 1) as f32;

        let mut loss_sum = 0.0f32;
        let mut tasks = executor::TaskBreakdown::default();
        if !accumulated.is_empty() {
            let dag = self.accumulation_dag()?;
            for (run, (tokens, targets)) in accumulated.iter().enumerate() {
                let (loss, _, breakdown) =
                    self.run_dag(&dag, run, tokens, targets, scale, GradSink::Accumulate)?;
                loss_sum += loss;
                tasks.absorb(breakdown);
            }
        }
        let sink = if accumulated.is_empty() {
            GradSink::Optimizer
        } else {
            GradSink::MergeAccumulated { inv_n }
        };
        let dag = Arc::clone(&self.step_dag);
        let (loss, skipped, breakdown) =
            self.run_dag(&dag, accumulated.len(), last.0, last.1, scale, sink)?;
        tasks.absorb(breakdown);
        self.finish_step(
            skipped,
            tasks,
            accumulated.len() + 1,
            t0,
            (loss_sum + loss) * inv_n,
            scale,
            traffic_before,
            faults_before,
            step_start,
        )
    }

    /// The DAG a non-final micro-batch runs (the movement plan's
    /// [`accumulation_spec`](crate::schedule::IterationSpec::accumulation_spec)),
    /// lowered on first use.
    fn accumulation_dag(&mut self) -> Result<Arc<StepDag>, RatelError> {
        if let Some(dag) = &self.accum_dag {
            return Ok(Arc::clone(dag));
        }
        let dag = self
            .config
            .lower(&self.movement_spec().accumulation_spec())?;
        self.accum_dag = Some(Arc::clone(&dag));
        Ok(dag)
    }

    /// Dispatches one lowered DAG over the engine's state as DAG run
    /// `run` of the current step. Returns `(loss, overflow-skipped
    /// layers, task breakdown)`.
    fn run_dag(
        &mut self,
        dag: &StepDag,
        run: usize,
        tokens: &[usize],
        targets: &[usize],
        scale: f32,
        grad_sink: GradSink,
    ) -> Result<(f32, Vec<usize>, executor::TaskBreakdown), RatelError> {
        let step_seed = self.dropout_step_seed();
        // The LR schedule runs on the wall-step clock (0-based).
        let mut adam = self.config.adam;
        adam.lr *= self.config.lr_schedule.factor(self.step - 1);
        let ctx = dag_step::StepCtx::new(
            &self.store,
            &self.config,
            dag,
            run,
            &mut self.model,
            tokens,
            targets,
            scale,
            step_seed,
            adam,
            &self.layer_steps,
            grad_sink,
        );
        let workers = self.config.execution.executor().workers_per_pool;
        let breakdown = executor::Executor::new(workers).run(&dag.graph, &ctx)?;
        let (loss, skipped) = ctx.into_outcome();
        Ok((loss, skipped, breakdown))
    }

    /// Flight-records the step outcome: an `Error` event plus a
    /// postmortem dump when the step failed (the ring's tail then holds
    /// the failing transfer and its retries), pass-through otherwise.
    fn seal_step(&self, result: Result<StepStats, RatelError>) -> Result<StepStats, RatelError> {
        if let Err(e) = &result {
            ratel_obs::flight().record(EventKind::Error, 0, &e.to_string(), 0, self.step);
            ratel_obs::dump_postmortem("train step failed");
        }
        result
    }

    /// Marks the start of an instrumented step: discards spans left over
    /// from inter-step activity (eval, generation) so the step's record
    /// holds only its own spans. Returns the step's recorder-clock start
    /// and a route-metrics snapshot to delta against, or `None` when
    /// telemetry is off.
    fn begin_step_telemetry(&self) -> Option<(f64, [ratel_storage::RouteMetrics; 4])> {
        let rec = self.store.telemetry();
        rec.enabled().then(|| {
            rec.drain_spans();
            (rec.now(), rec.route_metrics())
        })
    }

    /// Seals one step after every layer's update has been written back:
    /// advances the scaler and per-layer clocks, records the scaler
    /// span, collects telemetry/conformance, and assembles the stats.
    /// `skipped` is the optimizer's overflow-skip list; `tasks` the
    /// executor breakdown summed over the step's `runs` DAG runs.
    #[allow(clippy::too_many_arguments)]
    fn finish_step(
        &mut self,
        skipped: Vec<usize>,
        tasks: executor::TaskBreakdown,
        runs: usize,
        t0: std::time::Instant,
        loss: f32,
        scale: f32,
        traffic_before: TrafficSnapshot,
        faults_before: FaultStats,
        step_start: Option<(f64, [ratel_storage::RouteMetrics; 4])>,
    ) -> Result<StepStats, RatelError> {
        let rec = Arc::clone(self.store.telemetry());
        let t_scaler = rec.enabled().then(|| rec.now());
        self.scaler.update(!skipped.is_empty());
        for layer in 0..self.layer_count() {
            if !skipped.contains(&layer) && !self.is_frozen(layer) {
                self.layer_steps[layer] += 1;
            }
        }
        if let Some(t) = t_scaler {
            let label = if skipped.is_empty() {
                format!("scaler ok (scale {scale})")
            } else {
                format!("scaler overflow ({} skipped)", skipped.len())
            };
            rec.record_span("engine", SpanKind::Other, None, label, t, rec.now());
        }
        let traffic = self.store.traffic().since(&traffic_before);
        let fault_stats = rec.fault_stats().since(&faults_before);
        let wall_seconds = t0.elapsed().as_secs_f64();
        let collected = step_start.map(|(step_start, metrics_before)| {
            StepTelemetry::collect(
                &rec,
                traffic,
                runs,
                step_start,
                wall_seconds,
                &metrics_before,
                fault_stats,
            )
        });
        // Conformance: hold what *this* step recorded against the
        // movement plan; every divergence becomes a structured finding
        // plus a flight-recorder Drift event. A step that recorded
        // nothing is not checked.
        self.last_findings.clear();
        if let (Some(monitor), Some(t)) = (&self.conformance, &collected) {
            let findings = monitor.check(t);
            for f in &findings {
                ratel_obs::flight().record(
                    EventKind::Drift,
                    f.kind.index() as u8,
                    &f.detail,
                    f.measured.unwrap_or(0),
                    self.step,
                );
            }
            self.total_findings += findings.len() as u64;
            self.last_findings = findings;
        }
        if collected.is_some() {
            self.last_telemetry = collected;
        }
        ratel_obs::flight().record(EventKind::StepEnd, 0, "step", traffic.total(), self.step);
        Ok(StepStats {
            loss,
            traffic,
            wall_seconds,
            loss_scale: scale,
            skipped_layers: skipped.len(),
            fault_stats,
            tasks: Some(tasks),
        })
    }

    /// The dropout step-seed for the current (1-based) wall step.
    fn dropout_step_seed(&self) -> u64 {
        self.config.seed ^ self.step.wrapping_mul(0x517C_C1B7_2722_0A95)
    }

    /// Whether a layer's parameters are frozen.
    fn is_frozen(&self, layer: usize) -> bool {
        self.config.frozen_layers.contains(&layer)
    }

    /// Reads the current master (f32) parameters of a layer — for tests
    /// and checkpoint export.
    pub fn master_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        Ok(decode_f32(&self.store.read(&master_key(layer))?))
    }

    /// Reads the current P16 compute copy of a layer (decoded to f32).
    pub fn p16_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        Ok(decode_f16(&self.store.read(&p16_key(layer))?))
    }

    /// The tiered store (for inspection in tests/examples).
    pub fn store(&self) -> &TieredStore {
        &self.store
    }

    /// Evaluates the loss on a batch without training (no state change).
    pub fn eval_loss(&mut self, tokens: &[usize], targets: &[usize]) -> Result<f32, RatelError> {
        let c = self.config.model;
        self.stage_params(0)?;
        let mut x = self
            .model
            .embedding
            .forward(tokens, c.batch, c.seq)
            .quantize_f16();
        for b in 0..c.layers {
            self.stage_params(b + 1)?;
            let (y, _) = self.model.blocks[b].forward(&x);
            x = y.quantize_f16();
        }
        self.stage_params(c.layers + 1)?;
        let (loss, _) = self.model.head.forward(&x, targets);
        Ok(loss)
    }

    /// Total SSD-tier bytes currently holding model states.
    pub fn ssd_state_bytes(&self) -> u64 {
        self.store.used(Tier::Ssd)
    }

    /// Total scalar parameters across all layers.
    pub fn total_params(&self) -> usize {
        (0..self.layer_count())
            .map(|l| self.layer_params_flat(l).len())
            .sum()
    }

    /// Scalar parameters of one layer (0 = embedding, 1..=L = blocks,
    /// L+1 = head).
    pub fn layer_param_count(&self, layer: usize) -> usize {
        self.layer_params_flat(layer).len()
    }

    /// Route-level traffic helper: *cumulative* bytes that crossed
    /// `route` since the engine was created (per-step deltas are in
    /// [`StepStats::traffic`]).
    pub fn traffic_bytes(&self, route: Route) -> u64 {
        self.store.traffic().bytes(route)
    }

    /// Turns span/metrics recording on. Subsequent `train_step` calls
    /// populate [`RatelEngine::last_step_telemetry`]; every store
    /// transfer and engine stage is timestamped while enabled.
    pub fn enable_telemetry(&self) {
        self.store.telemetry().set_enabled(true);
    }

    /// The shared telemetry recorder (owned by the store; disabled until
    /// [`RatelEngine::enable_telemetry`]).
    pub fn telemetry(&self) -> &Arc<TelemetryRecorder> {
        self.store.telemetry()
    }

    /// The most recent instrumented step's telemetry: spans, per-route
    /// metrics, stage breakdown, overlap ratio. `None` until a step runs
    /// with telemetry enabled.
    pub fn last_step_telemetry(&self) -> Option<&StepTelemetry> {
        self.last_telemetry.as_ref()
    }

    /// Turns live plan-conformance monitoring on (enabling telemetry,
    /// which it needs): after every subsequent step the drained spans and
    /// traffic are held against the engine's movement plan, and any
    /// divergence lands in [`RatelEngine::conformance_findings`], the
    /// flight recorder (as `Drift` events), and the cumulative
    /// [`RatelEngine::total_findings`] count.
    pub fn enable_conformance(&mut self, config: conformance::ConformanceConfig) {
        self.enable_telemetry();
        self.conformance = Some(conformance::ConformanceMonitor::new(
            &self.movement_spec(),
            config,
        ));
    }

    /// Findings of the most recent step (empty when it conformed, when
    /// it recorded no telemetry to check, or monitoring is off).
    pub fn conformance_findings(&self) -> &[conformance::Finding] {
        &self.last_findings
    }

    /// Cumulative conformance findings across all checked steps.
    pub fn total_findings(&self) -> u64 {
        self.total_findings
    }

    /// Training steps run by this engine (including overflow-skipped
    /// ones).
    pub fn steps_run(&self) -> u64 {
        self.step
    }

    /// Caps an inter-tier route's bandwidth in the underlying store —
    /// used to emulate real link speeds so wall-clock measurements show
    /// scheduling effects (see the overlap integration test).
    pub fn set_route_throttle(&self, route: Route, bytes_per_sec: Option<f64>) {
        self.store.set_throttle(route, bytes_per_sec);
    }

    /// Saves a crash-safe training checkpoint (masters, Adam moments,
    /// step clocks) as a new *generation* in `dir`: every file is written
    /// to a temp sibling, fsynced, and renamed, with a checksummed
    /// manifest committed last — a crash at any point leaves the previous
    /// generation loadable. The two newest generations are kept. The P16
    /// copies are derivable and not stored. See [`checkpoint`] for the
    /// on-disk format.
    pub fn save_checkpoint(&self, dir: &std::path::Path) -> Result<(), RatelError> {
        checkpoint::save(self, dir)
    }

    /// Restores the newest verifiable checkpoint generation from `dir`
    /// into this engine (which must have the same model shape). Every
    /// blob is length- and checksum-verified before any engine state is
    /// touched; a torn or corrupted generation is skipped in favor of the
    /// previous good one. The P16 compute copies are re-derived from the
    /// restored masters.
    ///
    /// # Errors
    /// [`RatelError::CheckpointCorrupt`] when no generation in `dir`
    /// passes verification (the error lists why each one failed).
    pub fn load_checkpoint(&mut self, dir: &std::path::Path) -> Result<(), RatelError> {
        checkpoint::load(self, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::data::{learnable_batch, random_batch};
    use super::reference::ReferenceTrainer;
    use super::*;

    fn assert_bitwise_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x == y,
                "{what}: element {i} differs: {x} vs {y} (diff {})",
                (x - y).abs()
            );
        }
    }

    fn run_equivalence(config: EngineConfig, steps: usize) {
        let model = config.model;
        let seed = config.seed;
        let adam = config.adam;
        let mut engine = RatelEngine::new(config).unwrap();
        let mut reference = ReferenceTrainer::new(model, seed, adam);
        for s in 0..steps {
            let (tokens, targets) = random_batch(&model, 100 + s as u64);
            let stats = engine.train_step(&tokens, &targets).unwrap();
            let ref_loss = reference.train_step(&tokens, &targets);
            assert!(
                stats.loss == ref_loss,
                "step {s}: loss diverged: engine {} vs reference {ref_loss}",
                stats.loss
            );
        }
        for layer in 0..engine.layer_count() {
            let e = engine.master_params(layer).unwrap();
            assert_bitwise_close(&e, reference.master_params(layer), "master");
            let p = engine.p16_params(layer).unwrap();
            assert_bitwise_close(&p, &reference.p16_params(layer), "p16");
        }
    }

    #[test]
    fn offloaded_training_is_bitwise_identical_to_in_memory() {
        // The headline correctness claim: active gradient offloading with
        // everything swapped keeps training fully synchronous.
        run_equivalence(EngineConfig::tiny(), 3);
    }

    #[test]
    fn recompute_decisions_do_not_change_the_math() {
        let mut config = EngineConfig::tiny();
        config.act_decisions = vec![
            ActDecision::Recompute,
            ActDecision::SwapToSsd,
            ActDecision::Recompute,
        ];
        run_equivalence(config, 3);
    }

    #[test]
    fn separate_stage_optimizer_gives_the_same_result() {
        let mut config = EngineConfig::tiny();
        config.execution = ExecutionOptions::Executor(ExecutorOptions {
            offload: crate::offload::GradOffloadMode::SeparateStage,
            ..ExecutorOptions::default()
        });
        run_equivalence(config, 2);
    }

    #[test]
    fn executor_steps_report_a_task_breakdown() {
        use ratel_sim::meta::ResourceClass;
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = random_batch(&model, 21);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        let tasks = stats.tasks.as_ref().expect("executor attaches breakdown");
        assert_eq!(tasks.tasks_total, engine.step_dag.graph.len() as u64);
        // Every resource class of the plan ran work.
        for class in [
            ResourceClass::GpuCompute,
            ResourceClass::CpuCompute,
            ResourceClass::PcieG2M,
            ResourceClass::PcieM2G,
            ResourceClass::SsdArray,
        ] {
            assert!(
                tasks.pool(class).is_some_and(|p| p.tasks > 0),
                "{class:?} pool idle"
            );
        }
        assert!(tasks.busy_seconds_total() > 0.0);
        assert!(tasks.critical_path_seconds <= tasks.busy_seconds_total() + 1e-9);
    }

    #[test]
    fn accumulated_steps_run_through_the_executor_and_drain_the_tiers() {
        // A frozen layer has no gradient, so no accumulator either.
        let mut config = EngineConfig::tiny();
        config.frozen_layers = vec![1];
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let micro: Vec<_> = (0..3).map(|s| random_batch(&model, 30 + s)).collect();
        let stats = engine.train_step_accumulated(&micro).unwrap();
        let tasks = stats
            .tasks
            .as_ref()
            .expect("accumulated steps report tasks");
        let accum_tasks = engine.accum_dag.as_ref().unwrap().graph.len() as u64;
        assert_eq!(
            tasks.tasks_total,
            2 * accum_tasks + engine.step_dag.graph.len() as u64
        );
        assert_eq!(engine.store().used(Tier::Gpu), 0);
        assert_eq!(engine.store().used(Tier::Host), 0);
    }

    #[test]
    fn an_empty_accumulated_step_is_rejected_not_panicked() {
        let mut engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let err = engine.train_step_accumulated(&[]).unwrap_err();
        assert!(matches!(err, RatelError::InvalidBatch(_)), "{err}");
        assert_eq!(engine.steps_run(), 0, "a rejected call is not a step");
    }

    #[test]
    fn ssd_swapped_activations_generate_ssd_traffic() {
        let mut config = EngineConfig::tiny();
        config.act_decisions = vec![ActDecision::SwapToSsd; config.model.layers];
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = random_batch(&model, 1);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        // Each block's A16 blob goes host->ssd and comes back.
        let h2s = stats.traffic.bytes(Route::HostToSsd);
        let s2h = stats.traffic.bytes(Route::SsdToHost);
        assert!(h2s > 0 && s2h > 0);

        let mut host_only = EngineConfig::tiny();
        host_only.act_decisions = vec![ActDecision::SwapToHost; host_only.model.layers];
        let mut engine2 = RatelEngine::new(host_only).unwrap();
        let stats2 = engine2.train_step(&tokens, &targets).unwrap();
        assert!(
            stats.traffic.bytes(Route::HostToSsd) > stats2.traffic.bytes(Route::HostToSsd),
            "SSD swapping must add SSD writes"
        );
        // But the GPU<->host traffic of the swap itself is the same.
        assert_eq!(
            stats.traffic.bytes(Route::GpuToHost),
            stats2.traffic.bytes(Route::GpuToHost)
        );
    }

    #[test]
    fn recompute_reduces_offload_traffic() {
        let swap = {
            let mut c = EngineConfig::tiny();
            c.act_decisions = vec![ActDecision::SwapToHost; c.model.layers];
            c
        };
        let rec = {
            let mut c = EngineConfig::tiny();
            c.act_decisions = vec![ActDecision::Recompute; c.model.layers];
            c
        };
        let model = swap.model;
        let (tokens, targets) = random_batch(&model, 2);
        let mut e1 = RatelEngine::new(swap).unwrap();
        let mut e2 = RatelEngine::new(rec).unwrap();
        let t1 = e1.train_step(&tokens, &targets).unwrap().traffic;
        let t2 = e2.train_step(&tokens, &targets).unwrap().traffic;
        assert!(
            t2.bytes(Route::GpuToHost) < t1.bytes(Route::GpuToHost),
            "recompute should shrink G2M traffic: {} vs {}",
            t2.bytes(Route::GpuToHost),
            t1.bytes(Route::GpuToHost)
        );
    }

    #[test]
    fn state_traffic_matches_the_paper_inventory() {
        // Per step the SSD tier must serve at least: P16 forward (2
        // bytes/param) + P16 backward (2) + P32+OS32 reads (12), and
        // absorb P32+OS32+P16 writes (14).
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let params = engine.total_params() as u64;
        // The head is staged once (its forward and backward are adjacent
        // at the loss); every other layer is staged twice.
        let head_params = engine.layer_param_count(engine.layer_count() - 1) as u64;
        let (tokens, targets) = random_batch(&model, 3);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        let s2h = stats.traffic.bytes(Route::SsdToHost);
        let h2s = stats.traffic.bytes(Route::HostToSsd);
        let expected_reads = params * 12 + (2 * params - head_params) * 2;
        assert_eq!(
            s2h, expected_reads,
            "SSD reads must be exactly P16 stages + 12P state reads"
        );
        assert_eq!(
            h2s,
            params * 14,
            "SSD writes must be exactly the 14P state write-back"
        );
    }

    #[test]
    fn step_stats_traffic_is_a_per_step_delta() {
        // Regression: StepStats.traffic must be a per-step delta taken
        // against a start-of-step snapshot, not a cumulative counter —
        // two identical steps report identical per-route byte counts.
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = random_batch(&model, 7);
        let first = engine.train_step(&tokens, &targets).unwrap().traffic;
        let second = engine.train_step(&tokens, &targets).unwrap().traffic;
        for route in Route::ALL {
            assert!(first.bytes(route) > 0, "{route:?} should move bytes");
            assert_eq!(
                first.bytes(route),
                second.bytes(route),
                "{route:?}: identical steps must report identical deltas"
            );
        }
        // The store's cumulative counters keep growing underneath.
        for route in Route::ALL {
            assert_eq!(engine.traffic_bytes(route), 2 * first.bytes(route));
        }
    }

    #[test]
    fn telemetry_captures_spans_and_optimizer_overlap() {
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        engine.enable_telemetry();
        let (tokens, targets) = random_batch(&model, 11);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        let t = engine.last_step_telemetry().expect("telemetry collected");
        assert!(!t.spans.is_empty());
        // Task spans sit on the graph's own resource rows, the scaler
        // on "engine", transfers on their route.
        let graph = &engine.step_dag.graph;
        let task_tracks: std::collections::BTreeSet<&str> = t
            .spans
            .iter()
            .filter(|s| s.task.is_some())
            .map(|s| s.track.as_str())
            .collect();
        let resources: std::collections::BTreeSet<&str> = graph
            .task_ids()
            .map(|id| graph.resource_name(graph.resource(id)))
            .collect();
        assert_eq!(task_tracks, resources);
        assert!(resources.contains("gpu0") && resources.contains("ssd"));
        assert!(t.spans.iter().any(|s| s.track == "engine"));
        // Telemetry's traffic snapshot is the same delta StepStats got.
        for route in Route::ALL {
            assert_eq!(t.traffic.bytes(route), stats.traffic.bytes(route));
        }
        let b = t.stage_breakdown();
        assert!(b.forward > 0.0 && b.backward > 0.0 && b.optimizer > 0.0);
        assert!(b.transfer > 0.0, "store transfers must be spanned");
        // Whether optimizer work actually hides behind backward is a
        // timing property, asserted under throttled links in
        // tests/overlap_timing.rs; here the ratio only has to be sane.
        let overlap = t.optimizer_overlap_ratio();
        assert!((0.0..=1.0 + 1e-9).contains(&overlap), "{overlap}");
        // The timeline view carries every span, rebased to step start.
        let tl = t.timeline("measured");
        assert_eq!(tl.spans.len(), t.spans.len());
        assert!(tl.spans.iter().all(|s| s.start >= -1e-9));
        let with_task = tl.spans.iter().filter(|s| s.task.is_some()).count();
        assert_eq!(with_task, graph.len());
    }

    #[test]
    fn loss_decreases_on_learnable_data() {
        let mut config = EngineConfig::tiny();
        config.adam.lr = 3e-3;
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = learnable_batch(&model, 5);
        let first = engine.train_step(&tokens, &targets).unwrap().loss;
        let mut last = first;
        for _ in 0..30 {
            last = engine.train_step(&tokens, &targets).unwrap().loss;
        }
        assert!(
            last < first * 0.7,
            "loss did not fall enough: {first} -> {last}"
        );
    }

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
    fn the_arena_floor_counts_what_the_decisions_move_through_it() {
        let mut config = EngineConfig::tiny();
        config.act_decisions = vec![
            ActDecision::SwapToSsd,
            ActDecision::SwapToHost,
            ActDecision::Recompute,
        ];
        let model = config.model;
        let (in_flight, staged) = config.arena_demand();
        let floor = in_flight + in_flight.max(staged);
        let p16 = 2 * model.max_layer_params() as u64;
        assert!(p16 < floor, "swapped activations transit the arena too");

        // One byte short: reported up front, with the other violations.
        config.gpu_capacity = Some(floor - 1);
        config.host_capacity = Some(64);
        let violations = config.validate().join("\n");
        assert!(violations.contains("gpu capacity"), "{violations}");
        assert!(violations.contains("host capacity"), "{violations}");
        // An arena that only stages the largest P16 used to pass and then
        // ran out of memory mid-step.
        config.host_capacity = None;
        config.gpu_capacity = Some(p16);
        assert!(!config.validate().is_empty());
        let (tokens, targets) = random_batch(&model, 4);
        let err = RatelEngine::new(config.clone())
            .unwrap()
            .train_step(&tokens, &targets)
            .unwrap_err();
        assert!(matches!(
            err,
            RatelError::Storage(StorageError::OutOfMemory {
                tier: Tier::Gpu,
                ..
            })
        ));

        // At the floor the config is valid and a step fits.
        config.gpu_capacity = Some(floor);
        assert_eq!(config.validate(), Vec::<String>::new());
        let mut engine = RatelEngine::new(config).unwrap();
        engine.train_step(&tokens, &targets).unwrap();
        assert!(engine.store().peak_used(Tier::Gpu) <= floor);
    }

    #[test]
    fn model_states_live_on_the_ssd_tier() {
        let config = EngineConfig::tiny();
        let engine = RatelEngine::new(config).unwrap();
        let params = engine.total_params() as u64;
        // P32 (4) + OS32 (8) + P16 (2) = 14 bytes/param at rest.
        assert_eq!(engine.ssd_state_bytes(), params * 14);
        assert_eq!(engine.store().used(Tier::Gpu), 0);
        assert_eq!(engine.store().used(Tier::Host), 0);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::data::random_batch;
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ratel-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted_run() {
        let model = GptConfig::tiny();
        let mk = || RatelEngine::new(EngineConfig::tiny()).unwrap();
        let batches: Vec<_> = (0..6).map(|s| random_batch(&model, 400 + s)).collect();

        // Uninterrupted run.
        let mut straight = mk();
        for (t, y) in &batches {
            straight.train_step(t, y).unwrap();
        }

        // Run 3 steps, checkpoint, resume in a fresh engine.
        let dir = temp_dir("resume");
        let mut first = mk();
        for (t, y) in &batches[..3] {
            first.train_step(t, y).unwrap();
        }
        first.save_checkpoint(&dir).unwrap();
        drop(first);
        let mut resumed = mk();
        resumed.load_checkpoint(&dir).unwrap();
        for (t, y) in &batches[3..] {
            resumed.train_step(t, y).unwrap();
        }

        for l in 0..straight.layer_count() {
            assert_eq!(
                straight.master_params(l).unwrap(),
                resumed.master_params(l).unwrap(),
                "layer {l} diverged after resume"
            );
            assert_eq!(
                straight.p16_params(l).unwrap(),
                resumed.p16_params(l).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_files_are_complete() {
        let engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("files");
        engine.save_checkpoint(&dir).unwrap();
        assert!(dir.join("manifest-g1.txt").exists());
        for l in 0..engine.layer_count() {
            assert!(dir.join(format!("g1-layer{l}.master")).exists());
            assert!(dir.join(format!("g1-layer{l}.moments")).exists());
        }
        // No temp droppings survive a successful save.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_accumulate_and_prune_to_two() {
        let engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("gens");
        for _ in 0..4 {
            engine.save_checkpoint(&dir).unwrap();
        }
        assert_eq!(checkpoint::generations(&dir), vec![3, 4]);
        // Pruned generations leave no blob files behind.
        assert!(!dir.join("g1-layer0.master").exists());
        assert!(!dir.join("manifest-g2.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_latest_generation_falls_back_to_previous() {
        let model = GptConfig::tiny();
        let mk = || RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("fallback");
        let mut engine = mk();
        let (t, y) = random_batch(&model, 900);
        engine.train_step(&t, &y).unwrap();
        engine.save_checkpoint(&dir).unwrap(); // generation 1 (good)
        engine.train_step(&t, &y).unwrap();
        engine.save_checkpoint(&dir).unwrap(); // generation 2
        let good_master = engine.master_params(0).unwrap();

        // "Kill mid-checkpoint": generation 2's blob is torn after the
        // manifest committed — truncate it behind the manifest's back.
        let victim = dir.join("g2-layer0.master");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let mut resumed = mk();
        resumed.load_checkpoint(&dir).unwrap();
        // Generation 2 fails verification; generation 1 loads.
        assert_eq!(resumed.step, 1, "fell back to the step-1 generation");
        assert_ne!(resumed.master_params(0).unwrap(), good_master);

        // With generation 1 also gone, corruption is an error — never a
        // silently wrong model.
        std::fs::remove_file(dir.join("manifest-g1.txt")).unwrap();
        let mut fresh = mk();
        let err = fresh.load_checkpoint(&dir).unwrap_err();
        assert!(matches!(err, RatelError::CheckpointCorrupt(_)), "{err}");
        assert!(err.to_string().contains("generation 2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
