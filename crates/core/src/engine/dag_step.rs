//! Lowering the engine's movement plan into an executable step DAG.
//!
//! [`StepDag::lower`] takes the engine's schedule twin (the
//! [`IterationSpec`] from [`super::RatelEngine::movement_spec`]), builds
//! the statically verified task graph, reads every task's typed
//! [`TaskKind`] and layer off its metadata, and adds *pacing* edges that
//! window read-ahead tasks two layers behind compute, so staging never
//! runs further ahead than the tiers have room for.
//!
//! [`StepCtx`] then maps each task onto tiered-store transfers and
//! tensor kernels. f16 rounding happens at the same points as in the
//! in-memory reference trainer, so a step is bitwise identical to it —
//! whatever worker count each pool runs.

use std::sync::Arc;
use std::time::Instant;

use ratel_check::sync::Mutex;

use ratel_sim::{TaskGraph, TaskId, TaskKind, TaskRef};
use ratel_storage::{StorageError, Tier, TieredStore};
use ratel_tensor::dtype::{decode_f16, decode_f32, encode_f16, encode_f32, round_to_f16};
use ratel_tensor::{block_dropout_spec, Adam, AdamParams, BlockSaved, GptModel, HeadSaved, Tensor};

use super::executor::TaskAction;
use super::scaler::prepare_gradient;
use super::{
    accum_key, act_key, ckpt_key, fetch_f16, grad_key, master_key, moments_key, offload_f16,
    p16_key, set_layer_params, ActDecision, EngineConfig,
};
use crate::error::RatelError;
use crate::schedule::IterationSpec;

/// A lowered, verified, paced step graph plus what each task does
/// (indexed by `TaskId.0`). Built once per engine (the plan depends only
/// on the config) and reused every step.
#[derive(Debug)]
pub(super) struct StepDag {
    /// The executable task graph.
    pub(super) graph: TaskGraph,
    /// `actions[t]` is task `t`'s kind and engine layer id (0 =
    /// embedding, 1..=L = blocks, L+1 = head).
    pub(super) actions: Vec<(TaskKind, usize)>,
}

/// How many GPU-compute tasks ahead of the consuming kernel a staging
/// read may start.
const PACE_WINDOW: usize = 2;

impl StepDag {
    /// Lowers a movement plan into an executable DAG: builds the spec's
    /// (self-verified) graph, reads every task's typed identity, and
    /// adds pacing edges. Debug builds re-verify the paced graph before
    /// it can reach the executor.
    ///
    /// # Errors
    /// [`RatelError::InvalidConfig`] if any task has no engine action —
    /// multi-GPU or multi-iteration plans and hook/reduce tasks are
    /// simulation-only shapes.
    pub(super) fn lower(spec: &IterationSpec) -> Result<StepDag, RatelError> {
        let (mut graph, _resources, _flops) = spec.build();
        let tasks: Vec<TaskId> = graph.task_ids().collect();
        let mut actions = Vec::with_capacity(tasks.len());
        let mut bad = Vec::new();
        for &t in &tasks {
            let executable = graph.meta(t).and_then(|m| {
                let id = m.identity?;
                let single = m.iteration == 0 && (spec.gpus == 1 || id.gpu.is_none());
                (id.kind.is_executable() && single).then_some((id.kind, id.layer))
            });
            match executable {
                Some(a) => actions.push(a),
                None => bad.push(format!(
                    "plan task {} is not executable: label {:?} has no engine action \
                     (multi-GPU, multi-iteration, and hook tasks are simulation-only)",
                    t.0,
                    graph.label(t).unwrap_or("")
                )),
            }
        }
        if !bad.is_empty() {
            return Err(RatelError::InvalidConfig(bad));
        }

        // GPU compute order: fwd L0..L{n-1} then bwd L{n-1}..L0. A
        // staging read for the kernel at position `p` may not start
        // before the kernel at `p - PACE_WINDOW` finished.
        let n = spec.layers.len();
        let mut gpu_seq: Vec<Option<TaskId>> = vec![None; 2 * n];
        for (&t, &(kind, li)) in tasks.iter().zip(&actions) {
            match kind {
                TaskKind::Fwd => gpu_seq[li] = Some(t),
                TaskKind::Bwd => gpu_seq[n + (n - 1 - li)] = Some(t),
                _ => {}
            }
        }
        for (&t, &(kind, li)) in tasks.iter().zip(&actions) {
            let gate = match kind {
                TaskKind::FwdRead => li.checked_sub(PACE_WINDOW),
                TaskKind::BwdRead | TaskKind::ActLoad | TaskKind::ActUp => {
                    Some(n + (n - 1 - li) - PACE_WINDOW)
                }
                _ => None,
            };
            if let Some(pos) = gate {
                let dep = gpu_seq[pos].ok_or_else(|| {
                    RatelError::InvalidConfig(vec![format!(
                        "pacing edge for task {} gates on sequence slot {pos}, which has no \
                         compute task — every layer must have fwd and bwd compute tasks",
                        t.0
                    )])
                })?;
                graph.add_dep(t, dep);
            }
        }
        // Optimizer handlers in gradient-arrival order: handler h's
        // state read waits for handler h-2's CPU compute, bounding the
        // host memory held by staged states.
        let mut opt_reads = Vec::new();
        let mut opt_cpus = Vec::new();
        for (&t, &(kind, _)) in tasks.iter().zip(&actions) {
            match kind {
                TaskKind::OptRead => opt_reads.push(t),
                TaskKind::OptCpu => opt_cpus.push(t),
                _ => {}
            }
        }
        for h in PACE_WINDOW..opt_reads.len() {
            graph.add_dep(opt_reads[h], opt_cpus[h - PACE_WINDOW]);
        }

        // The builder self-verified the plan; re-verify after pacing so
        // no added edge can smuggle in a defect.
        #[cfg(debug_assertions)]
        {
            let report = ratel_verify::verify(&graph, &ratel_verify::Limits::none());
            assert!(
                report.is_clean(),
                "paced step DAG fails static verification:\n{}",
                report.render()
            );
        }

        Ok(StepDag { graph, actions })
    }
}

/// One layer's computed Adam update, parked between the CPU compute
/// task and the SSD write-back task.
struct OptUpdate {
    master: Vec<f32>,
    moments: Vec<f32>,
    /// False when the unscaled gradient overflowed and the update was
    /// skipped — write-back then only returns the untouched states.
    applied: bool,
}

/// What `grad-off` does with a layer's gradient once backward produced
/// it. Gradient accumulation is the same step DAG run per micro-batch
/// with a different sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum GradSink {
    /// A plain step: the G16 lands in host memory for its optimizer
    /// handler.
    Optimizer,
    /// A non-final micro-batch: the G16 crosses to host memory and is
    /// summed into the layer's host f32 accumulator; no handler runs.
    Accumulate,
    /// The final of `1 / inv_n` micro-batches: merge the accumulator,
    /// average, and hand `f16(mean_i(f16(g_i)))` to the optimizer
    /// handler.
    MergeAccumulated {
        /// Reciprocal of the micro-batch count.
        inv_n: f32,
    },
}

/// A step-DAG slot protocol violation: a task ran before the dependency
/// that fills the slot it consumes. The verifier proves the plan's edges
/// make this unreachable, so hitting it means executor or lowering bug —
/// surfaced as a typed error so the step fails cleanly instead of
/// panicking a worker.
fn slot_violation(what: &str) -> StorageError {
    StorageError::Io(std::io::Error::other(format!(
        "step-DAG slot protocol violated: expected {what}"
    )))
}

/// The staged-copy key a layer's P16 uses for one pass. Forward and
/// backward stage separately (the head is staged once, in forward).
fn staged_key(layer: usize, pass: char) -> String {
    format!("{}#stage-{pass}", p16_key(layer))
}

/// Shared state of one executing step: the [`TaskAction`] behind
/// [`super::RatelEngine::train_step`].
///
/// Worker threads of different pools run disjoint actions concurrently;
/// every hand-off slot (activation bytes, gradients, Adam updates) is a
/// mutex around an `Option`, filled by the producing task and taken by
/// the consuming one. GPU tasks additionally serialize on the model
/// skeleton's lock — the graph already orders them into a chain, so the
/// lock is never contended, it just satisfies the borrow checker.
pub(super) struct StepCtx<'a> {
    store: &'a Arc<TieredStore>,
    config: &'a EngineConfig,
    dag: &'a StepDag,
    /// Which DAG run of the step this is (micro-batch number).
    run: usize,
    model: Mutex<&'a mut GptModel>,
    tokens: &'a [usize],
    targets: &'a [usize],
    scale: f32,
    step_seed: u64,
    adam: AdamParams,
    layer_steps: &'a [u64],
    grad_sink: GradSink,
    /// The activation flowing forward between layers.
    flow: Mutex<Option<Tensor>>,
    /// The gradient flowing backward between layers.
    dflow: Mutex<Option<Tensor>>,
    /// The head's forward input and saved state, parked between the
    /// adjacent head forward and backward (the head stages once).
    head: Mutex<Option<(Tensor, HeadSaved)>>,
    /// Per block: checkpoint bytes between forward and act-off.
    pending_ckpt: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per block: saved-activation bytes between forward and act-off.
    pending_act: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per block: checkpoint bytes between act-up and backward.
    fetched_ckpt: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per block: saved-activation bytes between act-up and backward.
    fetched_act: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per layer: raw (scaled) f32 gradient between backward and
    /// grad-off.
    grads: Vec<Mutex<Option<Vec<f32>>>>,
    /// Per layer: the Adam update between opt-cpu and opt-write.
    updates: Vec<Mutex<Option<OptUpdate>>>,
    /// Layers whose update was skipped on gradient overflow.
    skipped: Mutex<Vec<usize>>,
    loss: Mutex<f32>,
}

impl<'a> StepCtx<'a> {
    /// Builds the shared context of one step.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        store: &'a Arc<TieredStore>,
        config: &'a EngineConfig,
        dag: &'a StepDag,
        run: usize,
        model: &'a mut GptModel,
        tokens: &'a [usize],
        targets: &'a [usize],
        scale: f32,
        step_seed: u64,
        adam: AdamParams,
        layer_steps: &'a [u64],
        grad_sink: GradSink,
    ) -> Self {
        let blocks = config.model.layers;
        let layers = blocks + 2;
        fn slots<T>(n: usize) -> Vec<Mutex<Option<T>>> {
            (0..n).map(|_| Mutex::new(None)).collect()
        }
        StepCtx {
            store,
            config,
            dag,
            run,
            model: Mutex::new(model),
            tokens,
            targets,
            scale,
            step_seed,
            adam,
            layer_steps,
            grad_sink,
            flow: Mutex::new(None),
            dflow: Mutex::new(None),
            head: Mutex::new(None),
            pending_ckpt: slots(blocks),
            pending_act: slots(blocks),
            fetched_ckpt: slots(blocks),
            fetched_act: slots(blocks),
            grads: slots(layers),
            updates: slots(layers),
            skipped: Mutex::new(Vec::new()),
            loss: Mutex::new(0.0),
        }
    }

    /// Consumes the context after a successful run, returning the loss
    /// and the overflow-skipped layers (sorted).
    pub(super) fn into_outcome(self) -> (f32, Vec<usize>) {
        debug_assert!(self.flow.lock().is_none(), "forward flow drained");
        debug_assert!(self.dflow.lock().is_none(), "backward flow drained");
        let loss = *self.loss.lock();
        let mut skipped = self.skipped.lock().clone();
        skipped.sort_unstable();
        (loss, skipped)
    }

    fn dropout_spec(&self, block: usize) -> Option<ratel_tensor::DropoutSpec> {
        self.config
            .dropout
            .map(|p| block_dropout_spec(p, self.step_seed, block))
    }

    /// Stage a layer's P16 from SSD into host memory (`pass` selects the
    /// forward or backward staged copy).
    fn param_read(&self, layer: usize, pass: char) -> Result<(), StorageError> {
        self.store
            .copy_to(&p16_key(layer), &staged_key(layer, pass), Tier::Host)
    }

    /// Move a staged P16 into the GPU arena.
    fn param_fetch(&self, layer: usize, pass: char) -> Result<(), StorageError> {
        self.store.move_to(&staged_key(layer, pass), Tier::Gpu)
    }

    /// Decode a staged P16 into the layer skeleton and free the copy.
    /// Caller holds the model lock.
    fn load_params(
        &self,
        model: &mut GptModel,
        layer: usize,
        pass: char,
    ) -> Result<(), StorageError> {
        let staged = staged_key(layer, pass);
        let flat = decode_f16(&self.store.read(&staged)?);
        set_layer_params(model, layer, &flat);
        self.store.remove(&staged)?;
        Ok(())
    }

    /// The layer's forward kernels, after decoding its staged P16.
    fn forward(&self, layer: usize) -> Result<(), StorageError> {
        let c = self.config.model;
        let l = c.layers;
        let mut model = self.model.lock();
        self.load_params(&mut model, layer, 'f')?;
        if layer == 0 {
            let x = model
                .embedding
                .forward(self.tokens, c.batch, c.seq)
                .quantize_f16();
            *self.flow.lock() = Some(x);
        } else if layer <= l {
            let b = layer - 1;
            let x = self
                .flow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("forward flow produced by the previous layer"))?;
            // The block's input is its checkpoint (the inter-block A16);
            // the act-off task offloads these bytes after this kernel.
            *self.pending_ckpt[b].lock() = Some(x.to_f16_bytes());
            let spec = self.dropout_spec(b);
            let (y, mut saved) = model.blocks[b].forward_with(&x, spec);
            saved.quantize_f16();
            if self.config.act_decisions[b] != ActDecision::Recompute {
                *self.pending_act[b].lock() = Some(saved.to_f16_bytes());
            }
            *self.flow.lock() = Some(y.quantize_f16());
        } else {
            let x = self
                .flow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("forward flow reaches the head"))?;
            let (loss, head_saved) = model.head.forward(&x, self.targets);
            *self.loss.lock() = loss;
            *self.head.lock() = Some((x, head_saved));
        }
        Ok(())
    }

    /// Offload the block's checkpoint (and saved activations) to host
    /// memory. Both swap decisions stop at host here; the spill task
    /// carries SSD-bound activations onward.
    fn act_off(&self, layer: usize) -> Result<(), StorageError> {
        let b = layer - 1;
        let ckpt = self.pending_ckpt[b]
            .lock()
            .take()
            .ok_or_else(|| slot_violation("checkpoint pending after block forward"))?;
        offload_f16(self.store, &ckpt_key(layer), ckpt, Tier::Host)?;
        if let Some(act) = self.pending_act[b].lock().take() {
            offload_f16(self.store, &act_key(b), act, Tier::Host)?;
        }
        Ok(())
    }

    /// Fetch the block's checkpoint (and activations) back into the GPU
    /// arena for backward.
    fn act_up(&self, layer: usize) -> Result<(), StorageError> {
        let b = layer - 1;
        *self.fetched_ckpt[b].lock() = Some(fetch_f16(self.store, &ckpt_key(layer))?);
        if self.config.act_decisions[b] != ActDecision::Recompute {
            *self.fetched_act[b].lock() = Some(fetch_f16(self.store, &act_key(b))?);
        }
        Ok(())
    }

    /// The layer's backward kernels. Recompute decisions rerun the
    /// block's forward inside this task (same step-seeded dropout
    /// masks).
    fn backward(&self, layer: usize) -> Result<(), StorageError> {
        let c = self.config.model;
        let l = c.layers;
        let frozen = self.config.frozen_layers.contains(&layer);
        let mut model = self.model.lock();
        if layer == l + 1 {
            // Head: parameters are still resident from forward (the plan
            // stages the head once), its input was parked at the loss.
            let (x, head_saved) = self
                .head
                .lock()
                .take()
                .ok_or_else(|| slot_violation("head forward parked its input"))?;
            let (dx, head_grads) =
                model
                    .head
                    .backward_scaled(&x, &head_saved, self.targets, self.scale);
            *self.dflow.lock() = Some(dx);
            if !frozen {
                *self.grads[layer].lock() = Some(head_grads);
            }
        } else if layer >= 1 {
            let b = layer - 1;
            self.load_params(&mut model, layer, 'b')?;
            let rows = c.batch * c.seq;
            let ckpt = self.fetched_ckpt[b]
                .lock()
                .take()
                .ok_or_else(|| slot_violation("checkpoint fetched before block backward"))?;
            let input = Tensor::from_f16_bytes(&[rows, c.hidden], &ckpt);
            let spec = self.dropout_spec(b);
            let fetched = self.fetched_act[b].lock().take();
            let dx = self
                .dflow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("backward flow from the layer above"))?;
            let saved = match fetched {
                Some(bytes) => {
                    BlockSaved::from_f16_bytes(&bytes, c.batch, c.seq, c.hidden, c.heads)
                }
                None => {
                    // Rematerialization regenerates the same dropout
                    // masks from the step/layer-derived seed.
                    let (_, mut s) = model.blocks[b].forward_with(&input, spec);
                    s.quantize_f16();
                    s
                }
            };
            let (dprev, grads) = model.blocks[b].backward_with(&input, &saved, &dx, spec);
            *self.dflow.lock() = Some(dprev);
            if !frozen {
                *self.grads[layer].lock() = Some(grads);
            }
        } else {
            self.load_params(&mut model, 0, 'b')?;
            let dx = self
                .dflow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("backward flow reaches the embedding"))?;
            let emb_grads = model.embedding.backward(self.tokens, c.batch, c.seq, &dx);
            if !frozen {
                *self.grads[0].lock() = Some(emb_grads);
            }
        }
        Ok(())
    }

    /// Quantize the layer's gradient to G16 and land it in host memory —
    /// the active offload's GPU->host leg — routed per [`GradSink`].
    fn grad_off(&self, layer: usize) -> Result<(), StorageError> {
        let mut grads = self.grads[layer]
            .lock()
            .take()
            .ok_or_else(|| slot_violation("backward produced this layer's gradient"))?;
        match self.grad_sink {
            GradSink::Accumulate => self.accumulate(layer, &grads)?,
            sink => {
                if let GradSink::MergeAccumulated { inv_n } = sink {
                    let akey = accum_key(layer);
                    let acc = decode_f32(&self.store.read(&akey)?);
                    self.store.remove(&akey)?;
                    for (g, a) in grads.iter_mut().zip(&acc) {
                        *g = (round_to_f16(*g) + a) * inv_n;
                    }
                }
                offload_f16(self.store, &grad_key(layer), encode_f16(&grads), Tier::Host)?;
            }
        }
        Ok(())
    }

    /// Sums a micro-batch's f16-rounded gradient into the layer's host
    /// f32 accumulator (creating it on first use). The f16 blob still
    /// crosses the GPU->host link like any G16 offload.
    fn accumulate(&self, layer: usize, grads: &[f32]) -> Result<(), StorageError> {
        let gkey = format!("layer{layer}/grad-micro");
        offload_f16(self.store, &gkey, encode_f16(grads), Tier::Host)?;
        let g16 = decode_f16(&self.store.read(&gkey)?);
        self.store.remove(&gkey)?;
        let akey = accum_key(layer);
        if self.store.contains(&akey) {
            let mut acc = decode_f32(&self.store.read(&akey)?);
            for (a, g) in acc.iter_mut().zip(&g16) {
                *a += g;
            }
            self.store.overwrite(&akey, encode_f32(&acc))?;
        } else {
            self.store.put(&akey, Tier::Host, encode_f32(&g16))?;
        }
        Ok(())
    }

    /// Stage the layer's master + moments from SSD into host memory —
    /// the handler's SSD->Main leg.
    fn opt_read(&self, layer: usize) -> Result<(), StorageError> {
        self.store.move_to(&master_key(layer), Tier::Host)?;
        self.store.move_to(&moments_key(layer), Tier::Host)?;
        Ok(())
    }

    /// Decode the G16 gradient and run the f32 Adam step over the
    /// staged states.
    fn opt_cpu(&self, layer: usize) -> Result<(), StorageError> {
        let key = grad_key(layer);
        let mut grads = decode_f16(&self.store.read(&key)?);
        self.store.remove(&key)?;
        if prepare_gradient(&mut grads, self.scale, self.config.grad_clip).is_some() {
            let mut master = decode_f32(&self.store.read(&master_key(layer))?);
            let moments = decode_f32(&self.store.read(&moments_key(layer))?);
            let mut state = Adam::new(0);
            state.load_flat(&moments, self.layer_steps[layer]);
            state.step(&mut master, &grads, &self.adam);
            let mut flat = Vec::new();
            state.write_flat_into(&mut flat);
            *self.updates[layer].lock() = Some(OptUpdate {
                master,
                moments: flat,
                applied: true,
            });
        } else {
            self.skipped.lock().push(layer);
            *self.updates[layer].lock() = Some(OptUpdate {
                master: Vec::new(),
                moments: Vec::new(),
                applied: false,
            });
        }
        Ok(())
    }

    /// Write the updated P32 + OS32 back and publish the fresh P16 —
    /// the handler's Main->SSD leg (or, on a skipped update, just return
    /// the untouched states).
    fn opt_write(&self, layer: usize) -> Result<(), StorageError> {
        let update = self.updates[layer]
            .lock()
            .take()
            .ok_or_else(|| slot_violation("opt-cpu parked this layer's update"))?;
        if update.applied {
            self.store
                .overwrite(&master_key(layer), encode_f32(&update.master))?;
            self.store
                .overwrite(&moments_key(layer), encode_f32(&update.moments))?;
            let p16 = p16_key(layer);
            self.store.remove(&p16)?;
            self.store
                .put(&p16, Tier::Host, encode_f16(&update.master))?;
            self.store.move_to(&p16, Tier::Ssd)?;
        }
        self.store.move_to(&master_key(layer), Tier::Ssd)?;
        self.store.move_to(&moments_key(layer), Tier::Ssd)
    }
}

impl TaskAction for StepCtx<'_> {
    fn run(&self, task: TaskId) -> Result<(), RatelError> {
        let (kind, li) = self.dag.actions[task.0];
        let result = match kind {
            TaskKind::FwdRead => self.param_read(li, 'f'),
            TaskKind::FwdFetch => self.param_fetch(li, 'f'),
            TaskKind::Fwd => self.forward(li),
            TaskKind::ActOff => self.act_off(li),
            TaskKind::ActSpill => self.store.move_to(&act_key(li - 1), Tier::Ssd),
            TaskKind::BwdRead => self.param_read(li, 'b'),
            TaskKind::BwdFetch => self.param_fetch(li, 'b'),
            TaskKind::ActLoad => self.store.move_to(&act_key(li - 1), Tier::Host),
            TaskKind::ActUp => self.act_up(li),
            TaskKind::Bwd => self.backward(li),
            TaskKind::GradOff => self.grad_off(li),
            TaskKind::OptRead => self.opt_read(li),
            TaskKind::OptCpu => self.opt_cpu(li),
            TaskKind::OptWrite => self.opt_write(li),
            TaskKind::FwdHook
            | TaskKind::BwdHook
            | TaskKind::Reduce
            | TaskKind::GradSpill
            | TaskKind::OptUp
            | TaskKind::OptKernel
            | TaskKind::OptDown => {
                // `StepDag::lower` rejects these; reaching one is a
                // lowering bug, reported instead of panicking a worker.
                return Err(RatelError::Runtime(format!(
                    "task {} ({} L{li}) has no engine action",
                    task.0,
                    kind.name()
                )));
            }
        };
        result.map_err(RatelError::from)
    }

    /// The one place the engine measures a task: its span is the interval
    /// the executor charged to it, on the recorder clock. Track and label
    /// are the graph's own resource name and task label, so a measured
    /// timeline lines up with the simulated one of the same plan.
    /// Telemetry off costs one relaxed load.
    fn completed(&self, task: TaskId, start: Instant, end: Instant) {
        let rec = self.store.telemetry();
        if !rec.enabled() {
            return;
        }
        let (kind, layer) = self.dag.actions[task.0];
        let graph = &self.dag.graph;
        let task_ref = TaskRef {
            run: self.run,
            task,
            kind,
            layer,
        };
        rec.record_span(
            graph.resource_name(graph.resource(task)),
            kind.span_kind(),
            Some(task_ref),
            graph.label(task).unwrap_or_default(),
            rec.at(start),
            rec.at(end),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{movement_spec_for, ExecutionOptions, ExecutorOptions};
    use crate::offload::GradOffloadMode;

    /// The tiny engine's own movement plan (3 blocks), block 1 spilling
    /// its activations to SSD.
    fn tiny_spec(offload: GradOffloadMode) -> IterationSpec {
        let mut config = EngineConfig::tiny();
        config.act_decisions[0] = ActDecision::SwapToSsd;
        config.execution = ExecutionOptions::Executor(ExecutorOptions {
            offload,
            ..ExecutorOptions::default()
        });
        movement_spec_for(&config)
    }

    #[test]
    fn lower_types_every_task_and_adds_pacing_edges() {
        for mode in [
            GradOffloadMode::OptimizedActive,
            GradOffloadMode::SeparateStage,
        ] {
            let spec = tiny_spec(mode);
            let dag = StepDag::lower(&spec).unwrap();
            assert_eq!(dag.actions.len(), dag.graph.len());
            // Every layer's compute is present.
            let count = |kind| dag.actions.iter().filter(|a| a.0 == kind).count();
            assert_eq!(count(TaskKind::Fwd), 5);
            assert_eq!(count(TaskKind::Bwd), 5);
            // Pacing: fwd-read L2 gained a dep on the fwd L0 kernel.
            let find = |want: (TaskKind, usize)| {
                dag.graph
                    .task_ids()
                    .find(|t| dag.actions[t.0] == want)
                    .unwrap()
            };
            let read2 = find((TaskKind::FwdRead, 2));
            let fwd0 = find((TaskKind::Fwd, 0));
            assert!(
                dag.graph.deps(read2).contains(&fwd0),
                "fwd-read L2 is paced behind fwd L0"
            );
            // The spilled block round-trips through act-spill/act-load.
            assert!(dag.actions.contains(&(TaskKind::ActSpill, 1)));
            assert!(dag.actions.contains(&(TaskKind::ActLoad, 1)));
        }
    }

    #[test]
    fn optimizer_reads_are_windowed_behind_compute() {
        let spec = tiny_spec(GradOffloadMode::OptimizedActive);
        let dag = StepDag::lower(&spec).unwrap();
        let reads: Vec<TaskId> = dag
            .graph
            .task_ids()
            .filter(|t| dag.actions[t.0].0 == TaskKind::OptRead)
            .collect();
        let cpus: Vec<TaskId> = dag
            .graph
            .task_ids()
            .filter(|t| dag.actions[t.0].0 == TaskKind::OptCpu)
            .collect();
        assert_eq!(reads.len(), 5);
        for h in 2..reads.len() {
            assert!(
                dag.graph.deps(reads[h]).contains(&cpus[h - 2]),
                "handler {h}'s state read waits for handler {}'s compute",
                h - 2
            );
        }
    }

    #[test]
    fn simulation_only_shapes_are_rejected() {
        // Multi-GPU plans carry per-GPU replicas and `reduce` tasks that
        // have no engine action.
        let mut spec = tiny_spec(GradOffloadMode::OptimizedActive);
        spec.gpus = 2;
        let err = StepDag::lower(&spec).unwrap_err();
        assert!(matches!(err, RatelError::InvalidConfig(_)), "{err}");

        // Hook tasks (per-layer overhead) are simulation-only too.
        let mut spec = tiny_spec(GradOffloadMode::OptimizedActive);
        spec.per_layer_overhead_seconds = 0.5;
        let err = StepDag::lower(&spec).unwrap_err();
        assert!(matches!(err, RatelError::InvalidConfig(_)), "{err}");
    }
}
