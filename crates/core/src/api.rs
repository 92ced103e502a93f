//! The user-facing training interface (§IV-E, Fig. 4).
//!
//! The paper's pitch is that Ratel hides all tensor management behind a
//! few wrappers: `Ratel_init()` runs the profiling stage, `Ratel_hook()`
//! injects prefetching/pipelining into the model, and `Ratel_Optimizer`
//! replaces `optimizer.step()` with active gradient offloading. This
//! module is that interface for the real engine:
//!
//! ```no_run
//! use ratel::api::Ratel;
//! use ratel::Batch;
//! use ratel_tensor::GptConfig;
//!
//! // Ratel_init(): profile the substrate, plan activations, wire the
//! // engine — one builder chain instead of manual tensor management.
//! let mut trainer = Ratel::init(GptConfig::tiny())
//!     .seed(7)
//!     .learning_rate(3e-3)
//!     .build()
//!     .unwrap();
//!
//! let (tokens, targets) = ratel::engine::data::learnable_batch(&GptConfig::tiny(), 1);
//! let batch = Batch::new(&GptConfig::tiny(), &tokens, &targets).unwrap();
//! for _epoch in 0..3 {
//!     // No optimizer.step(): updates happen during backward.
//!     let stats = trainer.step(batch).unwrap();
//!     println!("loss {:.3}", stats.loss);
//! }
//! ```
//!
//! Every fallible call returns [`RatelError`]; batches are validated at
//! construction (see [`Batch`]) instead of panicking deep in the tensor
//! crate; and the builder's [`Ratel::build`] reports *every* config
//! violation at once.
//!
//! # Plan-first flow
//!
//! [`Ratel::build`] is a shorthand for [`Ratel::plan`] followed by
//! [`TrainingPlan::build`]. The intermediate [`TrainingPlan`] is the
//! profiled, validated movement plan: inspect its activation
//! [`decisions`](TrainingPlan::decisions), its state
//! [`placement`](TrainingPlan::placement), its per-route
//! [`planned_route_bytes`](TrainingPlan::planned_route_bytes), or run
//! the full static [`verify`](TrainingPlan::verify) pass — all before
//! any tensor is allocated. The plan is lowered once, here; the engine
//! built from it dispatches the very DAG that was inspected.

use std::sync::Arc;

use ratel_sim::{BlobKey, MemTier};
use ratel_storage::{FaultPlan, RetryPolicy, Route, TierConfig, TieredStore};
use ratel_tensor::{AdamParams, GptConfig};

use crate::batch::Batch;
use crate::engine::lr::LrSchedule;
use crate::engine::profiler::{plan_decisions, MeasuredProfile};
use crate::engine::scaler::ScalePolicy;
use crate::engine::{
    ActDecision, EngineConfig, ExecutionOptions, RatelEngine, StepPlan, StepStats,
};
use crate::error::RatelError;
use crate::schedule::{IterationSpec, Placement};

/// Builder for a [`RatelTrainer`] — the `Ratel_init()` of Fig. 4.
#[derive(Debug, Clone)]
pub struct Ratel {
    model: GptConfig,
    seed: u64,
    adam: AdamParams,
    gpu_capacity: Option<u64>,
    host_capacity: Option<u64>,
    loss_scale: ScalePolicy,
    grad_clip: Option<f32>,
    lr_schedule: LrSchedule,
    dropout: Option<f32>,
    frozen_layers: Vec<usize>,
    throttles: Vec<(Route, f64)>,
    act_override: Option<Vec<ActDecision>>,
    execution: ExecutionOptions,
    probe_bytes: usize,
    fault_plan: Option<Arc<FaultPlan<BlobKey>>>,
    retry_policy: Option<RetryPolicy>,
    spill_on_host_pressure: bool,
    resume_from: Option<std::path::PathBuf>,
}

impl Ratel {
    /// Starts configuring a trainer for `model`.
    pub fn init(model: GptConfig) -> Self {
        Ratel {
            model,
            seed: 42,
            adam: AdamParams::default(),
            gpu_capacity: None,
            host_capacity: None,
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: LrSchedule::Constant,
            dropout: None,
            frozen_layers: Vec::new(),
            throttles: Vec::new(),
            act_override: None,
            execution: ExecutionOptions::default(),
            probe_bytes: 1 << 20,
            fault_plan: None,
            retry_policy: None,
            spill_on_host_pressure: false,
            resume_from: None,
        }
    }

    /// Parameter-initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adam learning rate (other hyperparameters stay at defaults).
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.adam.lr = lr;
        self
    }

    /// Full Adam hyperparameters.
    pub fn adam(mut self, adam: AdamParams) -> Self {
        self.adam = adam;
        self
    }

    /// Caps the "GPU" arena (bytes).
    pub fn gpu_capacity(mut self, bytes: u64) -> Self {
        self.gpu_capacity = Some(bytes);
        self
    }

    /// Caps the host pool (bytes). Uncapped, every layer keeps its f32
    /// master in host memory and only the Adam moments cross the SSD
    /// link; under a cap every state rests on the SSDs — the paper's
    /// placement ([`TrainingPlan::placement`]) — and the pool is the
    /// activations'. [`Ratel::min_host_capacity`] is the least
    /// [`Ratel::plan`] asks for.
    pub fn host_capacity(mut self, bytes: u64) -> Self {
        self.host_capacity = Some(bytes);
        self
    }

    /// Mixed-precision loss-scaling policy.
    pub fn loss_scale(mut self, policy: ScalePolicy) -> Self {
        self.loss_scale = policy;
        self
    }

    /// Per-layer gradient-norm clip.
    pub fn grad_clip(mut self, max_norm: f32) -> Self {
        self.grad_clip = Some(max_norm);
        self
    }

    /// Learning-rate schedule applied on top of the base rate.
    pub fn lr_schedule(mut self, schedule: LrSchedule) -> Self {
        self.lr_schedule = schedule;
        self
    }

    /// Residual dropout probability.
    pub fn dropout(mut self, p: f32) -> Self {
        self.dropout = Some(p);
        self
    }

    /// Sets the executor's worker count and gradient-offloading
    /// schedule. See [`ExecutionOptions`].
    pub fn execution(mut self, execution: ExecutionOptions) -> Self {
        self.execution = execution;
        self
    }

    /// Freezes the given layers (0 = embedding, 1..=L = blocks, L+1 =
    /// head): no gradients, no optimizer I/O — parameter-efficient
    /// fine-tuning.
    pub fn freeze_layers(mut self, layers: Vec<usize>) -> Self {
        self.frozen_layers = layers;
        self
    }

    /// Emulates a link speed (bytes/s) on an inter-tier route; profiling
    /// measures the throttled rate and the planner adapts to it.
    pub fn throttle(mut self, route: Route, bytes_per_sec: f64) -> Self {
        self.throttles.push((route, bytes_per_sec));
        self
    }

    /// Bypasses the planner with explicit per-block decisions.
    pub fn activation_decisions(mut self, decisions: Vec<ActDecision>) -> Self {
        self.act_override = Some(decisions);
        self
    }

    /// Size of the profiling stage's bandwidth probe blob.
    pub fn probe_bytes(mut self, bytes: usize) -> Self {
        self.probe_bytes = bytes;
        self
    }

    /// Installs a deterministic SSD fault-injection plan on the trainer's
    /// store (see [`FaultPlan`]). Injection starts *after* engine
    /// initialization, so op indices count training-time SSD operations.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan<BlobKey>>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the SSD retry policy (default: 3 retries, 500 µs base
    /// backoff, doubling).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = Some(policy);
        self
    }

    /// Enables graceful degradation under host-pool pressure: blobs
    /// headed for a full host pool land on the SSD tier (each spill is
    /// counted in the store's fault stats) instead of failing the step.
    /// [`Ratel::plan`] then accepts a host pool under the plan's
    /// [`TrainingPlan::static_peak`] and only reports the need.
    pub fn spill_on_host_pressure(mut self) -> Self {
        self.spill_on_host_pressure = true;
        self
    }

    /// Restores the newest good checkpoint generation from `dir` right
    /// after the trainer is built — the resume path after a crash.
    pub fn resume_from(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.resume_from = Some(dir.into());
        self
    }

    /// The configuration [`Ratel::plan`] starts from, its shape validated
    /// up front: the overridden activation decisions, or — until the
    /// planner picks them, their count correct by construction — every
    /// block recomputing.
    fn provisional(&self) -> Result<EngineConfig, RatelError> {
        let provisional = EngineConfig {
            model: self.model,
            seed: self.seed,
            adam: self.adam,
            act_decisions: self
                .act_override
                .clone()
                .unwrap_or_else(|| vec![ActDecision::Recompute; self.model.layers]),
            gpu_capacity: self.gpu_capacity,
            host_capacity: self.host_capacity,
            loss_scale: self.loss_scale,
            grad_clip: self.grad_clip,
            lr_schedule: self.lr_schedule,
            dropout: self.dropout,
            execution: self.execution,
            frozen_layers: self.frozen_layers.clone(),
        };
        let violations = provisional.validate();
        if violations.is_empty() {
            Ok(provisional)
        } else {
            Err(RatelError::InvalidConfig(violations))
        }
    }

    /// The [`Ratel::host_capacity`] [`Ratel::plan`] asks for when it
    /// refuses one, whatever capacity this builder was given: the bytes a
    /// step of the paper's placement, paced for no more, may keep in host
    /// memory at once — under the overridden activation decisions, or
    /// with every block recomputing when the planner is to choose.
    /// `plan()` accepts it and refuses one byte less.
    ///
    /// # Errors
    /// [`RatelError::InvalidConfig`] for a misshapen configuration.
    pub fn min_host_capacity(&self) -> Result<u64, RatelError> {
        let starved = EngineConfig {
            host_capacity: Some(0),
            ..self.provisional()?
        };
        let (_, fitting) = lower_fitting(&starved, true)?;
        Ok(fitting.host_capacity.unwrap_or_default())
    }

    /// Runs the profiling stage (unless decisions were overridden), plans
    /// the activations, and returns the [`TrainingPlan`] — validated,
    /// inspectable, and statically verifiable — without building any
    /// model state yet. [`TrainingPlan::build`] turns it into a trainer.
    ///
    /// # Errors
    /// [`RatelError::InvalidConfig`] listing *every* configuration
    /// violation found; [`RatelError::Storage`] if the profiling
    /// substrate fails.
    pub fn plan(self) -> Result<TrainingPlan, RatelError> {
        let provisional = self.provisional()?;

        let (decisions, measured) = match &self.act_override {
            Some(d) => (d.clone(), None),
            None => {
                // Profiling stage: measure on a scratch store configured
                // like the real one (same throttles; no fault plan — the
                // plan's op clock must count the trainer's own SSD ops).
                let scratch = TieredStore::new(TierConfig::unbounded_temp())?;
                for &(route, rate) in &self.throttles {
                    scratch.set_throttle(route, Some(rate));
                }
                let measured = MeasuredProfile::measure(self.model, &scratch, self.probe_bytes)?;
                // MEM_avail: the host pool less what a step holds there
                // besides swapped activations — the static host peak of
                // this very config with every block recomputing — or
                // effectively unbounded when uncapped.
                let budget = match self.host_capacity {
                    Some(capacity) => {
                        let held = StepPlan::lower(&provisional)?.static_peak(MemTier::Host);
                        capacity.saturating_sub(held) as f64
                    }
                    None => f64::INFINITY,
                };
                let hw = measured.to_hardware_profile(budget);
                (plan_decisions(self.model, &hw), Some(measured))
            }
        };

        let mut config = EngineConfig {
            act_decisions: decisions,
            ..provisional
        };
        // A pool that spills under pressure is not held to what a step
        // may keep in it: the plan reports that need, and runs over less.
        let hold_host = !self.spill_on_host_pressure;
        let mut lowered = fit(&config, hold_host);
        // The planner budgets the host bytes of the blobs it swaps, not
        // the arena they come back through or the chunks an SSD-bound
        // one stages on its way: where its choice does not fit, swap
        // less, the last block first.
        while lowered.is_err() && measured.is_some() {
            let swaps = |d: &ActDecision| *d != ActDecision::Recompute;
            let Some(last) = config.act_decisions.iter().rposition(swaps) else {
                break;
            };
            config.act_decisions[last] = ActDecision::Recompute;
            lowered = fit(&config, hold_host);
        }
        Ok(TrainingPlan {
            plan: lowered?,
            builder: self,
            config,
            measured,
        })
    }

    /// [`Ratel::plan`] followed by [`TrainingPlan::build`]: profile,
    /// plan, and construct the trainer in one call.
    ///
    /// # Errors
    /// Everything [`Ratel::plan`] reports, plus
    /// [`RatelError::CheckpointCorrupt`] if [`Ratel::resume_from`] was
    /// given a directory with no loadable generation.
    pub fn build(self) -> Result<RatelTrainer, RatelError> {
        self.plan()?.build()
    }
}

/// Lowers `config` and holds its arena — and with `hold_host` its host
/// pool — to the plan's static peak there.
///
/// # Errors
/// One [`RatelError::InvalidConfig`] naming every tier too small and the
/// bytes it needs.
fn fit(config: &EngineConfig, hold_host: bool) -> Result<Arc<StepPlan>, RatelError> {
    let (plan, roomy) = lower_fitting(config, hold_host)?;
    let workers = config.execution.executor().workers_per_pool;
    let tiers = [
        ("gpu", config.gpu_capacity, roomy.gpu_capacity),
        ("host", config.host_capacity, roomy.host_capacity),
    ];
    let violations: Vec<String> = tiers
        .iter()
        .filter(|(_, have, need)| have != need)
        .filter_map(|(tier, have, need)| {
            Some(format!(
                "{tier} capacity {} B cannot hold what a step may keep there at once \
                 ({workers} worker(s) per pool, any interleaving): needs {} B",
                (*have)?,
                (*need)?
            ))
        })
        .collect();
    if violations.is_empty() {
        Ok(Arc::new(plan))
    } else {
        Err(RatelError::InvalidConfig(violations))
    }
}

/// `config`'s plan, and `config` with each held capacity that is under
/// what a step may keep in its tier raised to the bytes that fit.
/// Pacing reads ahead as far as a tier has room, so a roomier tier is
/// asked to hold more: the bytes a tier needs are the capacity whose own
/// pacing fits it.
fn lower_fitting(
    config: &EngineConfig,
    hold_host: bool,
) -> Result<(StepPlan, EngineConfig), RatelError> {
    let plan = StepPlan::lower(config)?;
    let mut roomy = config.clone();
    let mut repaced = None;
    while raise_short_capacities(&mut roomy, repaced.as_ref().unwrap_or(&plan), hold_host) {
        repaced = Some(StepPlan::lower(&roomy)?);
    }
    Ok((plan, roomy))
}

/// Raises each held capacity of `config` that is under `plan`'s static
/// peak for its tier to that peak; whether any was.
fn raise_short_capacities(config: &mut EngineConfig, plan: &StepPlan, hold_host: bool) -> bool {
    let mut raised = false;
    for (tier, capacity, held) in [
        (MemTier::Gpu, &mut config.gpu_capacity, true),
        (MemTier::Host, &mut config.host_capacity, hold_host),
    ] {
        let need = plan.static_peak(tier);
        if held && capacity.is_some_and(|c| c < need) {
            *capacity = Some(need);
            raised = true;
        }
    }
    raised
}

/// A validated movement plan, between [`Ratel::plan`] and
/// [`TrainingPlan::build`].
///
/// The plan owns the fully resolved [`EngineConfig`] (profiled
/// activation decisions included) and its lowering, done once by
/// [`Ratel::plan`]: the schedule twin — the same [`IterationSpec`] the
/// engine executes and `ratel-bench validate` audits — and the paced
/// task DAG the executor will dispatch, before any model parameter
/// exists. That makes "what will move where, and is it sound?"
/// answerable up front: [`TrainingPlan::planned_route_bytes`] for the
/// traffic contract, and [`TrainingPlan::verify`], which checks that
/// paced DAG — the one [`TrainingPlan::build`] hands to the trainer, not
/// a rebuilt copy of it — against the configured capacities.
#[derive(Debug, Clone)]
pub struct TrainingPlan {
    builder: Ratel,
    config: EngineConfig,
    measured: Option<MeasuredProfile>,
    plan: Arc<StepPlan>,
}

impl TrainingPlan {
    /// The fully resolved engine configuration the trainer will run.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The activation decisions in effect (planned or overridden).
    pub fn decisions(&self) -> &[ActDecision] {
        &self.config.act_decisions
    }

    /// Where every layer's states rest between steps: each f32 master
    /// host-resident when the host pool is unbounded, the paper's all-SSD
    /// placement under a [`Ratel::host_capacity`].
    pub fn placement(&self) -> Placement {
        self.plan.placement
    }

    /// The profiling stage's measurements (None when decisions were
    /// overridden).
    pub fn measured(&self) -> Option<&MeasuredProfile> {
        self.measured.as_ref()
    }

    /// The plan's schedule twin: the [`IterationSpec`] whose task DAG
    /// the executor runs (see
    /// [`movement_spec_for`](crate::engine::movement_spec_for)).
    pub fn spec(&self) -> &IterationSpec {
        &self.plan.step.spec
    }

    /// Per-route byte totals one step is planned to move, indexed like
    /// [`Route::ALL`] (GPU→host, host→GPU, host→SSD, SSD→host). The live
    /// conformance monitor holds each step to exactly these numbers.
    pub fn planned_route_bytes(&self) -> [u64; 4] {
        self.spec().planned_route_bytes()
    }

    /// Statically verifies the task DAG the trainer will dispatch —
    /// pacing edges included — with `ratel-verify` (staleness,
    /// use-before-fetch, WAR hazards, residency within the configured
    /// capacities).
    ///
    /// # Errors
    /// [`RatelError::InvalidConfig`] carrying the rendered report when
    /// any pass fails — which is where a host pool accepted only
    /// because it may spill ([`Ratel::spill_on_host_pressure`]) has its
    /// need reported.
    pub fn verify(&self) -> Result<(), RatelError> {
        let report = self.verify_report();
        if report.is_clean() {
            Ok(())
        } else {
            Err(RatelError::InvalidConfig(vec![report.render()]))
        }
    }

    /// What the static passes said of the paced DAG a plain step
    /// dispatches, against the configured capacities: the report
    /// [`TrainingPlan::verify`] summarizes, with its per-tier peaks.
    pub fn verify_report(&self) -> &ratel_verify::VerifyReport {
        &self.plan.step.report
    }

    /// What the static passes say of the paced DAGs an eval and a
    /// KV-cached decode call of `new_tokens` after `prompt` tokens
    /// dispatch: the eval's, and each of the call's runs' in turn, with
    /// the pins the host pool admits when the call finds it at rest.
    ///
    /// # Errors
    /// [`RatelError::InvalidConfig`] if a DAG does not lower.
    pub fn forward_reports(
        &self,
        prompt: usize,
        new_tokens: usize,
    ) -> Result<(ratel_verify::VerifyReport, Vec<ratel_verify::VerifyReport>), RatelError> {
        let plan = &self.plan;
        let at_rest = plan.step.spec.resident_host_bytes() as u64;
        let free = (self.config.host_capacity).map(|cap| cap.saturating_sub(at_rest));
        let pinned = plan.decode_pins(prompt, new_tokens, true, free)?;
        let runs = plan.decode_runs(prompt, new_tokens, true, pinned);
        let decode = runs.map(|run| Ok(plan.decode(run)?.report.clone()));
        Ok((
            plan.eval()?.report.clone(),
            decode.collect::<Result<_, RatelError>>()?,
        ))
    }

    /// The paced task DAG a plain step dispatches, for the mutation
    /// tests that seed defects into it.
    #[doc(hidden)]
    pub fn graph(&self) -> &ratel_sim::TaskGraph {
        &self.plan.step.graph
    }

    /// The most bytes a step of this plan — plain or accumulated — can
    /// hold in `tier` at once under any interleaving of its tasks: the
    /// residency pass's static peak over the DAGs the trainer
    /// dispatches. [`Ratel::plan`] refuses a capacity below it.
    pub fn static_peak(&self, tier: MemTier) -> u64 {
        self.plan.static_peak(tier)
    }

    /// A short human-readable description of the plan.
    pub fn summary(&self) -> String {
        let m = self.config.model;
        let [g2h, h2g, h2s, s2h] = self.planned_route_bytes();
        format!(
            "{} layers ({} blocks), hidden {}, {:?}: {} tasks/step; \
             states {:?}; \
             planned bytes g2h {g2h}, h2g {h2g}, h2s {h2s}, s2h {s2h}; \
             static peak gpu {} B, host {} B",
            m.layers + 2,
            m.layers,
            m.hidden,
            self.config.execution,
            self.plan.step.graph.len(),
            self.placement(),
            self.static_peak(MemTier::Gpu),
            self.static_peak(MemTier::Host),
        )
    }

    /// Builds the engine and trainer that execute this plan.
    ///
    /// # Errors
    /// [`RatelError::Storage`] if the substrate fails;
    /// [`RatelError::CheckpointCorrupt`] if the builder's
    /// [`Ratel::resume_from`] directory has no loadable generation.
    pub fn build(self) -> Result<RatelTrainer, RatelError> {
        let TrainingPlan {
            builder,
            config,
            measured,
            plan,
        } = self;
        let engine = RatelEngine::with_plan(config, plan)?;
        for &(route, rate) in &builder.throttles {
            engine.set_route_throttle(route, Some(rate));
        }
        // Robustness knobs land on the live store only after the engine's
        // initial state placement, so fault op indices are training ops.
        if let Some(policy) = builder.retry_policy {
            engine.store().set_retry_policy(policy);
        }
        if builder.spill_on_host_pressure {
            engine.store().set_spill_on_host_pressure(true);
        }
        if let Some(plan) = builder.fault_plan {
            engine.store().set_fault_plan(Some(plan));
        }
        let mut trainer = RatelTrainer {
            engine,
            measured,
            loss_history: Vec::new(),
        };
        if let Some(dir) = &builder.resume_from {
            trainer.load_checkpoint(dir)?;
        }
        Ok(trainer)
    }
}

/// A built trainer: step it like `loss.backward()` in Fig. 4 — no
/// `optimizer.step()` call exists because updates happen inside.
pub struct RatelTrainer {
    engine: RatelEngine,
    measured: Option<MeasuredProfile>,
    loss_history: Vec<f32>,
}

impl std::fmt::Debug for RatelTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RatelTrainer")
            .field("decisions", &self.decisions())
            .field("steps_recorded", &self.loss_history.len())
            .finish_non_exhaustive()
    }
}

impl RatelTrainer {
    /// One fine-tuning step; the optimizer runs inside (actively
    /// offloaded). Records the loss in the history.
    pub fn step(&mut self, batch: Batch<'_>) -> Result<StepStats, RatelError> {
        let stats = self.engine.train_step(batch.tokens(), batch.targets())?;
        self.loss_history.push(stats.loss);
        Ok(stats)
    }

    /// Trains over a set of batches for `epochs`, returning the final
    /// epoch's mean loss. Each pair is validated like a [`Batch`].
    pub fn train_epochs(
        &mut self,
        batches: &[(Vec<usize>, Vec<usize>)],
        epochs: usize,
    ) -> Result<f32, RatelError> {
        if batches.is_empty() {
            return Err(RatelError::InvalidBatch("need at least one batch".into()));
        }
        let model = self.engine.model_config();
        let mut last = 0.0f32;
        for _ in 0..epochs {
            let mut sum = 0.0f32;
            for (t, y) in batches {
                sum += self.step(Batch::new(&model, t, y)?)?.loss;
            }
            last = sum / batches.len() as f32;
        }
        Ok(last)
    }

    /// One step with gradient accumulation over micro-batches.
    pub fn step_accumulated(
        &mut self,
        micro_batches: &[Batch<'_>],
    ) -> Result<StepStats, RatelError> {
        if micro_batches.is_empty() {
            return Err(RatelError::InvalidBatch(
                "need at least one micro-batch".into(),
            ));
        }
        let owned: Vec<(Vec<usize>, Vec<usize>)> = micro_batches
            .iter()
            .map(|b| (b.tokens().to_vec(), b.targets().to_vec()))
            .collect();
        let stats = self.engine.train_step_accumulated(&owned)?;
        self.loss_history.push(stats.loss);
        Ok(stats)
    }

    /// Evaluation loss without updating.
    pub fn eval(&mut self, batch: Batch<'_>) -> Result<f32, RatelError> {
        self.engine.eval_loss(batch.tokens(), batch.targets())
    }

    /// Evaluation perplexity (`exp` of the mean cross-entropy).
    pub fn perplexity(&mut self, batch: Batch<'_>) -> Result<f32, RatelError> {
        Ok(self.eval(batch)?.exp())
    }

    /// Greedy generation through the tiered engine.
    pub fn generate(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
    ) -> Result<Vec<usize>, RatelError> {
        self.engine.generate(prompt, max_new_tokens)
    }

    /// KV-cached greedy generation (context must fit `seq` positions).
    pub fn generate_cached(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
    ) -> Result<Vec<usize>, RatelError> {
        self.engine.generate_cached(prompt, max_new_tokens)
    }

    /// The activation decisions in effect (planned or overridden).
    pub fn decisions(&self) -> &[ActDecision] {
        self.engine.act_decisions()
    }

    /// The profiling stage's measurements (None when decisions were
    /// overridden).
    pub fn measured(&self) -> Option<&MeasuredProfile> {
        self.measured.as_ref()
    }

    /// All step losses so far.
    pub fn loss_history(&self) -> &[f32] {
        &self.loss_history
    }

    /// Saves a crash-safe checkpoint generation into `dir` (see
    /// [`crate::engine::checkpoint`] for the on-disk format).
    pub fn save_checkpoint(&self, dir: &std::path::Path) -> Result<(), RatelError> {
        self.engine.save_checkpoint(dir)
    }

    /// Restores the newest verifiable checkpoint generation from `dir`,
    /// falling back through older generations on corruption.
    pub fn load_checkpoint(&mut self, dir: &std::path::Path) -> Result<(), RatelError> {
        self.engine.load_checkpoint(dir)
    }

    /// Direct access to the underlying engine.
    pub fn engine(&mut self) -> &mut RatelEngine {
        &mut self.engine
    }

    /// The underlying engine alone, for callers that drive steps
    /// themselves.
    pub fn into_engine(self) -> RatelEngine {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::data::learnable_batch;

    #[test]
    fn builder_profiles_and_plans() {
        let mut trainer = Ratel::init(GptConfig::tiny()).seed(3).build().unwrap();
        assert_eq!(trainer.decisions().len(), GptConfig::tiny().layers);
        assert!(trainer.measured().is_some());
        let (t, y) = learnable_batch(&GptConfig::tiny(), 1);
        let s = trainer
            .step(Batch::new(&GptConfig::tiny(), &t, &y).unwrap())
            .unwrap();
        assert!(s.loss.is_finite());
        assert_eq!(trainer.loss_history().len(), 1);
    }

    #[test]
    fn plan_is_inspectable_and_verifiable_before_build() {
        let model = GptConfig::tiny();
        let plan = Ratel::init(model).seed(3).plan().unwrap();
        assert_eq!(plan.decisions().len(), model.layers);
        assert!(plan.measured().is_some());
        plan.verify().expect("plan must pass static verification");
        let bytes = plan.planned_route_bytes();
        assert!(bytes.iter().all(|&b| b > 0), "{bytes:?}");
        let summary = plan.summary();
        assert!(summary.contains("tasks/step"), "{summary}");
        // The plan the trainer executes is the plan we inspected.
        let mut trainer = plan.build().unwrap();
        let (t, y) = learnable_batch(&model, 2);
        let stats = trainer.step(Batch::new(&model, &t, &y).unwrap()).unwrap();
        assert!(stats.loss.is_finite());
        assert!(stats.tasks.is_some());
    }

    #[test]
    fn train_epochs_reduces_loss() {
        let mut trainer = Ratel::init(GptConfig::tiny())
            .seed(4)
            .learning_rate(3e-3)
            .build()
            .unwrap();
        let batches: Vec<_> = (0..4)
            .map(|s| learnable_batch(&GptConfig::tiny(), s))
            .collect();
        let first = trainer.train_epochs(&batches, 1).unwrap();
        let later = trainer.train_epochs(&batches, 8).unwrap();
        assert!(later < first * 0.8, "{first} -> {later}");
    }

    #[test]
    fn explicit_decisions_skip_profiling() {
        let model = GptConfig::tiny();
        let trainer = Ratel::init(model)
            .activation_decisions(vec![ActDecision::Recompute; model.layers])
            .build()
            .unwrap();
        assert!(trainer.measured().is_none());
        assert!(trainer
            .decisions()
            .iter()
            .all(|d| *d == ActDecision::Recompute));
    }

    #[test]
    fn throttled_links_steer_the_plan_toward_recompute() {
        let model = GptConfig::tiny();
        // Glacial GPU<->host link: swapping is hopeless; the profiling
        // stage must notice and choose recomputation.
        let trainer = Ratel::init(model)
            .throttle(Route::GpuToHost, 1e4)
            .throttle(Route::HostToGpu, 1e4)
            .probe_bytes(1 << 14)
            .build()
            .unwrap();
        assert!(
            trainer
                .decisions()
                .iter()
                .all(|d| *d == ActDecision::Recompute),
            "{:?}",
            trainer.decisions()
        );
    }

    #[test]
    fn wrong_decision_count_is_reported_not_panicked() {
        let err = Ratel::init(GptConfig::tiny())
            .activation_decisions(vec![ActDecision::Recompute])
            .build()
            .unwrap_err();
        match err {
            RatelError::InvalidConfig(v) => {
                assert!(
                    v.iter()
                        .any(|m| m.contains("one activation decision per block")),
                    "{v:?}"
                );
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn build_reports_every_violation_at_once() {
        let mut model = GptConfig::tiny();
        model.heads = 5; // 32 % 5 != 0
        model.batch = 0;
        let err = Ratel::init(model)
            .activation_decisions(vec![ActDecision::Recompute]) // wrong count
            .build()
            .unwrap_err();
        match err {
            RatelError::InvalidConfig(v) => {
                assert!(v.len() >= 3, "want all violations listed, got {v:?}");
                let joined = v.join("\n");
                assert!(joined.contains("divisible by heads"), "{joined}");
                assert!(joined.contains("micro-batch"), "{joined}");
                assert!(joined.contains("one activation decision"), "{joined}");
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn undersized_capacities_are_rejected_up_front() {
        let err = Ratel::init(GptConfig::tiny())
            .gpu_capacity(64) // cannot even stage one layer's P16
            .host_capacity(64)
            .build()
            .unwrap_err();
        match err {
            RatelError::InvalidConfig(v) => {
                let joined = v.join("\n");
                assert!(joined.contains("gpu capacity"), "{joined}");
                assert!(joined.contains("host capacity"), "{joined}");
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn invalid_batches_are_rejected_at_the_boundary() {
        let model = GptConfig::tiny();
        let mut trainer = Ratel::init(model)
            .activation_decisions(vec![ActDecision::Recompute; model.layers])
            .build()
            .unwrap();
        let short = vec![0usize; 3];
        assert!(Batch::new(&model, &short, &short).is_err());
        // Via train_epochs, which validates each owned pair.
        let err = trainer
            .train_epochs(&[(short.clone(), short)], 1)
            .unwrap_err();
        assert!(matches!(err, RatelError::InvalidBatch(_)), "{err}");
        assert!(trainer.train_epochs(&[], 1).is_err());
        assert!(trainer.step_accumulated(&[]).is_err());
    }
}
