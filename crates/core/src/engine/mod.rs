//! The real out-of-core fine-tuning engine.
//!
//! This module executes Ratel's algorithms *for real* on a small GPT:
//! model states live as blobs in a [`ratel_storage::TieredStore`] — on
//! its SSD tier, except the f32 masters an unbounded host pool keeps
//! resident ([`crate::schedule::Placement`]) — the "GPU" is a
//! capacity-enforced arena
//! that only ever holds one layer's working set, activations are swapped
//! to host/SSD or recomputed per a planner decision, and a concurrent CPU
//! optimizer consumes each layer's gradient the moment backward produces
//! it (active gradient offloading, §IV-C) while staying fully synchronous:
//! every parameter read by iteration *k+1* reflects every gradient of
//! iteration *k*, with no staleness.
//!
//! A step runs exactly one way: the engine's movement plan
//! ([`movement_spec_for`]) is lowered once into a verified task DAG
//! (`plan`, `dag_step`) and dispatched on one worker pool per resource
//! class ([`executor`]). Gradient accumulation, the separate-stage
//! ablation, an eval and a decode call are other DAGs over the same
//! executor, not other code paths.
//!
//! Mixed precision is emulated faithfully: the master parameters and Adam
//! moments are f32 blobs (P32/OS32), the compute copies, activations, and
//! gradients move as IEEE-754 binary16 bytes (P16/A16/G16). Because both
//! the offloaded engine and the in-memory [`reference::ReferenceTrainer`]
//! round at the same points, their losses and parameters match *exactly*
//! — the strongest possible check of the paper's "no parameter staleness"
//! claim (§IV-C's footnote distinguishing Ratel from one-step-delayed
//! ZeRO-Offload).

mod blobs;
pub mod bpe;
pub mod checkpoint;
mod config;
pub mod conformance;
mod dag_step;
pub mod data;
pub mod executor;
mod generate;
pub mod lr;
pub mod obs;
mod plan;
pub mod profiler;
pub mod reference;
pub mod scaler;
mod step;
pub mod telemetry;

use std::sync::Arc;

use ratel_sim::BlobKey;
use ratel_storage::{Route, Tier, TierConfig, TieredStore};
use ratel_tensor::GptConfig;

use crate::error::RatelError;
use scaler::LossScaler;
use telemetry::StepTelemetry;

pub use config::{ActDecision, EngineConfig, ExecutionOptions, ExecutorOptions};
pub use generate::sample_from_logits;
pub use plan::movement_spec_for;
pub(crate) use plan::StepPlan;
pub use step::StepStats;

/// The out-of-core engine.
pub struct RatelEngine {
    config: EngineConfig,
    /// Every blob the engine holds, named by its typed [`BlobKey`].
    store: Arc<TieredStore<BlobKey>>,
    /// The f32 tensors kernels compute on — one block's, the
    /// embedding's and the head's — loaded per use from the layer's P16.
    scratch: blobs::LayerScratch,
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
    /// The lowered, paced, verified plan every step dispatches — shared
    /// with the conformance monitor and, when the engine came from a
    /// [`crate::api::TrainingPlan`], the plan object that was inspected.
    plan: Arc<StepPlan>,
}

impl RatelEngine {
    /// Initializes the engine: lowers the plan, then builds the model
    /// one layer at a time, *placing each layer's states where the plan
    /// says they rest* — P32, OS32 and P16 blobs on the SSD tier, or the
    /// P32 in host memory and the OS32 on the SSD tier.
    ///
    /// # Errors
    /// [`RatelError::InvalidConfig`] carrying the configuration's shape
    /// violations — a decision list that does not match the model's
    /// depth, an out-of-range frozen layer, a degenerate model. Tiers
    /// smaller than the plan's [`RatelEngine::static_peak`] are
    /// [`crate::Ratel::build`]'s to refuse: such a config builds, and a
    /// step that does not fit fails with a typed out-of-memory error —
    /// nothing moves a blob the plan did not schedule — and is released,
    /// leaving the tiers holding the states at rest.
    pub fn new(config: EngineConfig) -> Result<Self, RatelError> {
        let violations = config.validate();
        if !violations.is_empty() {
            return Err(RatelError::InvalidConfig(violations));
        }
        let plan = Arc::new(StepPlan::lower(&config)?);
        Self::with_plan(config, plan)
    }

    /// Builds the engine that executes `plan`, which was lowered from
    /// `config` ([`StepPlan::lower`]).
    pub(crate) fn with_plan(config: EngineConfig, plan: Arc<StepPlan>) -> Result<Self, RatelError> {
        let tier_config = TierConfig {
            gpu_capacity: config.gpu_capacity,
            host_capacity: config.host_capacity,
            ssd_capacity: None,
            ssd_dir: TierConfig::unbounded_temp().ssd_dir,
        };
        let store = Arc::new(TieredStore::new(tier_config)?);
        let scratch = blobs::LayerScratch::new(config.model);

        let scaler = LossScaler::new(config.loss_scale);
        let layer_steps = vec![0u64; config.model.layers + 2];
        let engine = RatelEngine {
            config,
            store,
            scratch,
            step: 0,
            layer_steps,
            scaler,
            last_telemetry: None,
            conformance: None,
            last_findings: Vec::new(),
            total_findings: 0,
            plan,
        };
        engine.init_states()?;
        Ok(engine)
    }

    /// The movement plan this engine executes, as lowered by
    /// [`movement_spec_for`] over [`crate::schedule::LayerTask::ratel`];
    /// see [`crate::schedule::IterationSpec::verify`] for checking it
    /// statically.
    pub fn movement_spec(&self) -> &crate::schedule::IterationSpec {
        &self.plan.step.spec
    }

    /// The most bytes a step of this engine's plan — plain or
    /// accumulated — can hold in `tier` at once under any interleaving
    /// of its tasks: the static residency bound of the DAGs it
    /// dispatches, which [`TieredStore::peak_used`] never exceeds.
    pub fn static_peak(&self, tier: ratel_sim::MemTier) -> u64 {
        self.plan.static_peak(tier)
    }

    /// Number of schedulable layers (embedding + blocks + head).
    pub fn layer_count(&self) -> usize {
        self.config.model.layers + 2
    }

    /// The model shape the engine was built with.
    pub fn model_config(&self) -> GptConfig {
        self.config.model
    }

    /// The per-block activation decisions the engine was built with.
    pub(crate) fn act_decisions(&self) -> &[ActDecision] {
        &self.config.act_decisions
    }

    /// Where every layer's states rest between steps, as the plan chose
    /// from the host capacity (see [`crate::api::TrainingPlan::placement`]).
    pub fn placement(&self) -> crate::schedule::Placement {
        self.plan.placement
    }

    /// The tiered store (for inspection in tests/examples).
    pub fn store(&self) -> &TieredStore<BlobKey> {
        &self.store
    }

    /// Evaluates the loss on a batch without training (no state change):
    /// the plan's eval DAG — every layer's fetch and forward, the head
    /// computing the loss — run once.
    pub fn eval_loss(&mut self, tokens: &[usize], targets: &[usize]) -> Result<f32, RatelError> {
        self.last_findings.clear();
        let dag = self.plan.eval()?;
        Ok(self.run_forward(&dag, &[(tokens, targets)], None)?.0)
    }

    /// Total SSD-tier bytes currently holding model states.
    pub fn ssd_state_bytes(&self) -> u64 {
        self.store.used(Tier::Ssd)
    }

    /// Host-tier bytes the plan keeps resident between steps: the f32
    /// masters of the host-placed layers and the Adam moments of the
    /// handlers that rotate (the last two in gradient-arrival order,
    /// beside resident masters). All the host tier holds at rest.
    pub fn host_state_bytes(&self) -> u64 {
        self.plan.step.spec.resident_host_bytes() as u64
    }

    /// Total scalar parameters across all layers.
    pub fn total_params(&self) -> usize {
        (0..self.layer_count())
            .map(|layer| self.layer_param_count(layer))
            .sum()
    }

    /// Scalar parameters of one layer (0 = embedding, 1..=L = blocks,
    /// L+1 = head).
    pub fn layer_param_count(&self, layer: usize) -> usize {
        self.config.model.layer_params(layer)
    }

    /// Route-level traffic helper: *cumulative* bytes that crossed
    /// `route` since the engine was created (per-step deltas are in
    /// [`StepStats::traffic`]).
    pub fn traffic_bytes(&self, route: Route) -> u64 {
        self.store.traffic().bytes(route)
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
    /// manifest committed last and the directory fsynced after it — a
    /// crash at any point leaves the previous generation loadable. The
    /// two newest generations are kept. The P16 copies are derivable and
    /// not stored, so a checkpoint does not depend on the placement that
    /// saved it. See [`checkpoint`] for the on-disk format.
    pub fn save_checkpoint(&self, dir: &std::path::Path) -> Result<(), RatelError> {
        checkpoint::save(self, dir)
    }

    /// Restores the newest verifiable checkpoint generation from `dir`
    /// into this engine (which must have the same model shape). Every
    /// blob is length- and checksum-verified before any engine state is
    /// touched; a torn or corrupted generation is skipped in favor of the
    /// previous good one. The P16 copies that rest on the SSD tier are
    /// re-derived from the restored masters.
    ///
    /// # Errors
    /// [`RatelError::CheckpointCorrupt`] when no generation in `dir`
    /// passes verification (the error lists why each one failed).
    pub fn load_checkpoint(&mut self, dir: &std::path::Path) -> Result<(), RatelError> {
        checkpoint::load(self, dir)
    }
}
