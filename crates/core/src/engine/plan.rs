//! The plan of one engine configuration: built once, held by whoever
//! needs it, and the only thing a step, an eval or a decode call reads.
//!
//! [`movement_spec_for`] maps an [`EngineConfig`] and a [`Placement`]
//! onto Ratel's movement table ([`LayerTask::ratel`]);
//! [`StepPlan::lower`] picks the placement from the host capacity and
//! lowers that spec into the paced, verified DAGs the executor
//! dispatches. A [`crate::api::TrainingPlan`] inspects and verifies the
//! plan before an engine exists and hands it over; the engine runs it;
//! the conformance monitor checks each step's telemetry against it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ratel_sim::MemTier;

use super::dag_step::{StepDag, UNBUDGETED_DEPTH};
use super::{ActDecision, EngineConfig};
use crate::error::RatelError;
use crate::offload::GradOffloadMode;
use crate::schedule::{
    Decode, IterationSpec, LayerBlobs, LayerTask, LinkRates, OptimizerKind, Pass, Placement,
};

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
        micro_batches: 1,
        per_layer_overhead_seconds: 0.0,
        pass: Pass::Step,
    }
}

/// Passes one decode DAG runs at most: a longer call runs as several
/// DAGs in turn, so what a call lowers and holds does not grow with the
/// tokens it asks for.
pub(crate) const DECODE_PASSES: usize = 8;

/// Decode DAGs a plan keeps lowered at most.
const LOWERED_DECODE: usize = 16;

/// Everything one configuration executes, lowered once. Shared (`Arc`)
/// between the [`crate::api::TrainingPlan`] that inspects it, the engine
/// that dispatches it and the conformance monitor that checks against
/// it, so all three hold the same graphs and specs.
#[derive(Debug)]
pub(crate) struct StepPlan {
    /// The DAG a plain step runs: one micro-batch.
    pub(crate) step: Arc<StepDag>,
    /// Where every layer's states rest between steps: what `step.spec`
    /// was lowered under.
    pub(crate) placement: Placement,
    /// The other DAGs — accumulated steps, the eval, decode runs — by
    /// the micro-batch count and pass asked for, each lowered on first
    /// use ([`StepPlan::lower_once`]).
    lowered: Mutex<HashMap<(usize, Pass), Arc<StepDag>>>,
    /// Per tier, in [`MemTier::ALL`] order, the residency pass's peak
    /// over a step of three micro-batches ([`StepPlan::static_peak`]),
    /// kept without its DAG: only an accumulated step of three runs that
    /// graph, and it lowers it on first use like the others.
    accumulated_peaks: OnceLock<[f64; 3]>,
    /// KV-cache bytes a block holds per position: `hidden` f16 keys and
    /// as many values.
    kv_bytes: u64,
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
        Ok(StepPlan {
            step: Arc::new(StepDag::lower(&spec, &tiers)?),
            placement,
            lowered: Mutex::new(HashMap::new()),
            accumulated_peaks: OnceLock::new(),
            kv_bytes: 4 * config.model.hidden as u64,
            tiers,
        })
    }

    /// The DAG a step of `micro_batches` micro-batches runs: the plain
    /// step's for one, otherwise the movement plan over that many,
    /// lowered on first use.
    pub(crate) fn dag(&self, micro_batches: usize) -> Result<Arc<StepDag>, RatelError> {
        if micro_batches == 1 {
            return Ok(Arc::clone(&self.step));
        }
        self.lower_once(micro_batches, Pass::Step)
    }

    /// The DAG an eval runs: the step's forward half, saving nothing.
    pub(crate) fn eval(&self) -> Result<Arc<StepDag>, RatelError> {
        self.lower_once(1, Pass::Eval)
    }

    /// The runs of a decode call of `new_tokens` after `prompt` tokens,
    /// KV-cached or not, that pins `pinned` layers: [`DECODE_PASSES`]
    /// passes each, the last the rest, in the order they run. Runs that
    /// differ only in where they sit in a call — the middle runs of an
    /// uncached call, cached runs of two calls that start at one position
    /// — come out equal, and share one DAG.
    pub(crate) fn decode_runs(
        &self,
        prompt: usize,
        new_tokens: usize,
        cached: bool,
        pinned: usize,
    ) -> impl Iterator<Item = Decode> {
        let kv_bytes = if cached { self.kv_bytes } else { 0 };
        (0..new_tokens).step_by(DECODE_PASSES).map(move |start| {
            let passes = DECODE_PASSES.min(new_tokens - start);
            let last = start + passes == new_tokens;
            let (prompt, start) = match (cached, start) {
                (false, _) => (0, start.min(1)),
                (true, 0) => (prompt, 0),
                // Its first pass sees `prompt + start - 1` positions.
                (true, _) => (prompt + start - 1, 1),
            };
            Decode {
                prompt,
                start,
                passes,
                last,
                cached,
                kv_bytes,
                pinned,
            }
        })
    }

    /// The DAG of one run of a decode call.
    pub(crate) fn decode(&self, run: Decode) -> Result<Arc<StepDag>, RatelError> {
        self.lower_once(1, Pass::Decode(run))
    }

    /// How many layers, in id order from 0, a decode call pins: all of
    /// them when the host pool is unbounded (`free` is `None`); under a
    /// capacity, the most whose runs' DAGs the residency pass admits in
    /// the `free` bytes the call finds in the pool — none when not even
    /// streaming every layer fits, and the call then fails with a typed
    /// out-of-memory error. Bisected: the host peak rises with the pins.
    pub(crate) fn decode_pins(
        &self,
        prompt: usize,
        new_tokens: usize,
        cached: bool,
        free: Option<u64>,
    ) -> Result<usize, RatelError> {
        let layers = self.step.spec.layers.len();
        let Some(free) = free else {
            return Ok(layers);
        };
        let fits = |pinned| -> Result<bool, RatelError> {
            let mut previous = None;
            for run in self.decode_runs(prompt, new_tokens, cached, pinned) {
                if previous.replace(run) != Some(run)
                    && self.decode(run)?.report.peak(MemTier::Host).total > free as f64
                {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        if fits(layers)? {
            return Ok(layers);
        }
        let (mut fit, mut over) = (0, layers);
        while fit + 1 < over {
            let mid = (fit + over) / 2;
            *(if fits(mid)? { &mut fit } else { &mut over }) = mid;
        }
        Ok(fit)
    }

    /// `pass` over the movement plan with `micro_batches`, lowered the
    /// first time it is asked for. Past [`LOWERED_DECODE`] decode DAGs
    /// the plan forgets them all, so calls of ever new shapes hold no
    /// more.
    fn lower_once(&self, micro_batches: usize, pass: Pass) -> Result<Arc<StepDag>, RatelError> {
        let mut lowered = self.lowered.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(dag) = lowered.get(&(micro_batches, pass)) {
            return Ok(Arc::clone(dag));
        }
        let spec = IterationSpec {
            micro_batches,
            pass,
            ..self.step.spec.clone()
        };
        let dag = Arc::new(StepDag::lower(&spec, &self.tiers)?);
        let decoding = |p: &Pass| matches!(p, Pass::Decode(_));
        if decoding(&pass) && lowered.keys().filter(|(_, p)| decoding(p)).count() >= LOWERED_DECODE
        {
            lowered.retain(|(_, p), _| !decoding(p));
        }
        lowered.insert((micro_batches, pass), Arc::clone(&dag));
        Ok(dag)
    }

    /// The most bytes a step of this plan — plain or accumulated over
    /// any number of micro-batches — or an eval can hold in `tier` at
    /// once, under any interleaving the executor may produce: the
    /// residency pass's static peak over the DAGs as dispatched. A step
    /// of three micro-batches — a first, a middle and a last — peaks as
    /// high as any longer one (each middle one refills what the one
    /// before drained) and no lower than one of two, so it stands for
    /// them all. (A decode call fits its pins to the host bytes it finds
    /// free: [`StepPlan::decode_pins`].)
    pub(crate) fn static_peak(&self, tier: MemTier) -> u64 {
        // The step of one lowered, so the others lower too.
        let accumulated = self.accumulated_peaks.get_or_init(|| {
            let spec = IterationSpec {
                micro_batches: 3,
                ..self.step.spec.clone()
            };
            (StepDag::lower(&spec, &self.tiers)).map_or([f64::INFINITY; 3], |d| {
                MemTier::ALL.map(|t| d.report.peak(t).total)
            })
        });
        let eval = self
            .eval()
            .map_or(f64::INFINITY, |d| d.report.peak(tier).total);
        let step = self.step.report.peak(tier).total;
        step.max(eval).max(accumulated[tier as usize]).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Ratel;
    use crate::engine::{ExecutionOptions, ExecutorOptions};
    use ratel_tensor::GptConfig;

    /// What [`StepPlan::static_peak`] stands on: in every tier, steps of
    /// three, four and five micro-batches peak alike and one of two no
    /// higher, so lowering the step of three answers for them all. (Two
    /// has no middle micro-batch: on the single-block shape at its
    /// smallest host pool its bound is lower.) Over the
    /// integration suites' model zoo
    /// (`tests/common`) plus the tiny shape, under both placements — the
    /// host pool unbounded, roomy and the smallest the plan accepts — at
    /// 1, 2 and 4 workers per pool.
    #[test]
    fn a_step_of_three_micro_batches_peaks_as_high_as_any_longer_one() {
        use ActDecision::{Recompute, SwapToHost as Host, SwapToSsd as Ssd};
        let shape = |vocab, seq, hidden, heads, layers, batch| GptConfig {
            vocab,
            seq,
            hidden,
            heads,
            layers,
            batch,
        };
        for (model, decisions, gpu_capacity) in [
            (GptConfig::tiny(), [Ssd, Host, Recompute], None),
            (shape(96, 12, 32, 4, 2, 2), [Host, Ssd, Recompute], None),
            (shape(64, 8, 16, 2, 4, 2), [Host, Ssd, Recompute], None),
            (shape(48, 8, 16, 2, 1, 1), [Host, Ssd, Recompute], None),
            (
                shape(64, 8, 16, 2, 6, 2),
                [Ssd, Host, Recompute],
                Some(64 << 10),
            ),
        ] {
            let act_decisions: Vec<_> = decisions.into_iter().cycle().take(model.layers).collect();
            for workers_per_pool in [1, 2, 4] {
                let execution = ExecutionOptions::Executor(ExecutorOptions {
                    workers_per_pool,
                    ..ExecutorOptions::default()
                });
                let mut builder = Ratel::init(model)
                    .activation_decisions(act_decisions.clone())
                    .execution(execution);
                if let Some(bytes) = gpu_capacity {
                    builder = builder.gpu_capacity(bytes);
                }
                let least = builder.min_host_capacity().unwrap();
                for host_capacity in [None, Some(1 << 30), Some(least)] {
                    let config = EngineConfig {
                        model,
                        act_decisions: act_decisions.clone(),
                        gpu_capacity,
                        host_capacity,
                        execution,
                        ..EngineConfig::tiny()
                    };
                    let plan = StepPlan::lower(&config).unwrap();
                    let peaks = |n| {
                        let dag = plan.dag(n).unwrap();
                        MemTier::ALL.map(|tier| dag.report.peak(tier).total)
                    };
                    let what = format!("{model:?}, {workers_per_pool} workers, {host_capacity:?}");
                    let three = peaks(3);
                    assert_eq!(peaks(4), three, "{what}");
                    assert_eq!(peaks(5), three, "{what}");
                    let two = peaks(2);
                    assert!(two.iter().zip(three).all(|(a, b)| *a <= b), "{what}");
                }
            }
        }
    }
}
