//! The plan of one engine step: built once per configuration, held by
//! whoever needs it, and the only thing a step reads.
//!
//! [`movement_spec_for`] maps an [`EngineConfig`] and a [`Placement`]
//! onto Ratel's movement table ([`LayerTask::ratel`]);
//! [`StepPlan::lower`] picks the placement from the host capacity and
//! lowers that spec into the paced, verified DAG the executor
//! dispatches. A [`crate::api::TrainingPlan`] inspects and verifies the
//! plan before an engine exists and hands it over; the engine runs it;
//! the conformance monitor checks each step's telemetry against it.

use std::sync::OnceLock;

use ratel_sim::MemTier;

use super::dag_step::{StepDag, UNBUDGETED_DEPTH};
use super::{ActDecision, EngineConfig};
use crate::error::RatelError;
use crate::offload::GradOffloadMode;
use crate::schedule::{IterationSpec, LayerBlobs, LayerTask, LinkRates, OptimizerKind, Placement};

/// Lowers one engine step of `config`, every layer's states placed as
/// `placement` says, into its schedule twin: an
/// [`IterationSpec`] planning exactly what the engine moves (the same
/// shape `ratel-bench validate` compares telemetry against). Layer ids
/// follow the engine: 0 = embedding, 1..=L = blocks, L+1 = head. Compute
/// durations are placeholders — the twin exists for dataflow/residency
/// structure, which `ratel-verify` checks statically.
///
/// What this function decides is the per-layer mapping: a frozen layer
/// trains no parameter, a block's decision splits its checkpoint and
/// saved activations between host memory and the SSDs, the head — whose
/// forward and backward are adjacent at the loss — is staged once, and
/// which handlers rotate ([`LayerTask::moments_host_bytes`]). The bytes
/// each of those moves are [`LayerTask::ratel`]'s.
///
/// A handler rotates when its master is host-resident, the schedule is
/// the optimized active one and it is one of the last two handlers in
/// gradient-arrival order: its moments then rest in host memory, and
/// their write-back crosses the SSD link under the next step's forward
/// instead of after this step's last backward. Two is the window the
/// lowering's `opt_gates` read ahead without a budget, so at rest the
/// host holds no more moments than a step already stages.
///
/// # Panics
/// If `config.act_decisions` is shorter than the model is deep
/// ([`EngineConfig::validate`] reports that as a violation).
pub fn movement_spec_for(config: &EngineConfig, placement: Placement) -> IterationSpec {
    let model = config.model;
    let head = model.layers + 1;
    let mode = config.execution.executor().offload;
    let mut layers: Vec<LayerTask> = (0..=head)
        .map(|id| {
            let label = match id {
                0 => "embedding".to_string(),
                _ if id == head => "head".to_string(),
                _ => format!("block{}", id - 1),
            };
            let params = model.layer_params(id) as f64;
            // Frozen layers move no gradient and run no optimizer
            // handler; backward still flows through them.
            let trainable = if config.frozen_layers.contains(&id) {
                0.0
            } else {
                params
            };
            let blobs = LayerBlobs::of(&model, id);
            let (to_host, to_ssd) = if (1..head).contains(&id) {
                match config.act_decisions[id - 1] {
                    ActDecision::SwapToHost => (blobs.ckpt + blobs.acts, 0),
                    ActDecision::SwapToSsd => (blobs.ckpt, blobs.acts),
                    ActDecision::Recompute => (blobs.ckpt, 0),
                }
            } else {
                (0, 0)
            };
            LayerTask {
                act_to_host_bytes: to_host as f64,
                act_ckpt_bytes: blobs.ckpt as f64,
                act_to_ssd_bytes: to_ssd as f64,
                refetch_in_backward: id != head,
                ..LayerTask::ratel(label, params, trainable, placement)
            }
        })
        .collect();
    if placement == Placement::HostMaster && mode == GradOffloadMode::OptimizedActive {
        // Gradients arrive from the head down: the last handlers are the
        // first trained layers.
        let handlers = (layers.iter_mut()).filter_map(|l| match l.optimizer {
            OptimizerKind::CpuOutOfCore { read_bytes, .. } => Some((l, read_bytes)),
            _ => None,
        });
        for (layer, moments) in handlers.take(UNBUDGETED_DEPTH) {
            layer.moments_host_bytes = moments;
        }
    }
    IterationSpec {
        layers,
        mode,
        rates: LinkRates::UNIT,
        gpus: 1,
        items_per_iteration: model.batch as f64,
        per_layer_overhead_seconds: 0.0,
    }
}

/// Everything one configuration's steps execute, lowered once. Shared
/// (`Arc`) between the [`crate::api::TrainingPlan`] that inspects it, the
/// engine that dispatches it and the conformance monitor that checks
/// against it, so all three hold the same graphs and specs.
#[derive(Debug)]
pub(crate) struct StepPlan {
    /// The DAG a plain step — and the final micro-batch of an
    /// accumulated one — runs.
    pub(crate) step: StepDag,
    /// Where every layer's states rest between steps: what `step.spec`
    /// was lowered under.
    pub(crate) placement: Placement,
    /// The DAG a non-final micro-batch runs; see [`StepPlan::accumulation`].
    accumulation: OnceLock<StepDag>,
    /// That DAG's static peak per memory tier ([`MemTier::ALL`] order):
    /// all of it a plan that may never accumulate keeps.
    accumulation_peaks: [ratel_verify::TierPeak; 3],
    /// The configured tier capacities and executor width the DAGs are
    /// paced and verified against.
    tiers: ratel_verify::Limits,
}

impl StepPlan {
    /// Lowers `config`'s movement plan into the DAG a step dispatches,
    /// paced against the configured tier capacities, under the placement
    /// its host pool calls for: every layer's master resident when the
    /// pool is unbounded; under any capacity the paper's — every state on
    /// the SSDs, the host pool left to the activations. The builder
    /// self-verifies the schedule in debug builds and the lowering
    /// re-verifies it after pacing — so the DAG `train_step` dispatches
    /// is the DAG that passed.
    pub(crate) fn lower(config: &EngineConfig) -> Result<StepPlan, RatelError> {
        let placement = match config.host_capacity {
            None => Placement::HostMaster,
            Some(_) => Placement::Ssd,
        };
        let tiers = ratel_verify::Limits {
            gpu: config.gpu_capacity.map(|c| c as f64),
            host: config.host_capacity.map(|c| c as f64),
            width: Some(config.execution.executor().workers_per_pool),
            ..ratel_verify::Limits::none()
        };
        let spec = movement_spec_for(config, placement);
        // What fits must cover an accumulated step too, so its DAG is
        // lowered here for its peaks alone, and dropped before the step
        // DAG exists beside it.
        let accumulation_peaks = StepDag::lower(&spec.accumulation_spec(), &tiers)?
            .report
            .peaks;
        Ok(StepPlan {
            step: StepDag::lower(&spec, &tiers)?,
            placement,
            accumulation: OnceLock::new(),
            accumulation_peaks,
            tiers,
        })
    }

    /// The DAG a non-final micro-batch runs (the movement plan's
    /// [`accumulation_spec`](IterationSpec::accumulation_spec)), lowered
    /// on first use.
    pub(crate) fn accumulation(&self) -> Result<&StepDag, RatelError> {
        if let Some(dag) = self.accumulation.get() {
            return Ok(dag);
        }
        let dag = StepDag::lower(&self.step.spec.accumulation_spec(), &self.tiers)?;
        Ok(self.accumulation.get_or_init(|| dag))
    }

    /// The most bytes a step of this plan — plain or accumulated over
    /// any number of micro-batches — can hold in `tier` at once, under
    /// any interleaving the executor may produce: the residency pass's
    /// static peak over the DAGs as dispatched. An accumulated step's
    /// runs all start with what the accumulation DAG leaves behind and a
    /// plain step does not (the f32 accumulators; resident masters
    /// outlive both and are in both totals) already there.
    pub(crate) fn static_peak(&self, tier: MemTier) -> u64 {
        let step = self.step.report.peak(tier);
        let accumulation = self.accumulation_peaks[tier as usize];
        let carried = accumulation.outliving - step.outliving;
        (carried + step.total.max(accumulation.total)).ceil() as u64
    }
}
