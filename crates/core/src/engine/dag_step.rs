//! Lowering the engine's movement plan into an executable step DAG.
//!
//! [`StepDag::lower`] takes the engine's schedule twin (the
//! [`IterationSpec`] from [`super::movement_spec_for`]), builds the
//! statically verified task graph, reads every task's typed identity off
//! its metadata, and adds *pacing* edges that hold each staging task
//! back until the bytes staged ahead of compute fit its destination
//! tier's budget ([`staging_gates`]), so read-ahead runs as far ahead as
//! the tiers have room for and no further.
//!
//! [`StepCtx`] then maps each task onto tiered-store transfers and
//! tensor kernels, as the lowered plan's own [`LayerTask`]s say. f16
//! rounding happens at the same points as in the in-memory reference
//! trainer, so a step is bitwise identical to it — whatever worker count
//! each pool runs.

use std::sync::Arc;
use std::time::Instant;

use ratel_check::sync::Mutex;

use ratel_sim::{BlobKey, BlobKind, MemTier, TaskGraph, TaskId, TaskIdentity, TaskKind, TaskRef};
use ratel_storage::{StorageError, Tier, TieredStore};
use ratel_tensor::dtype::{
    add_f16_le_to_f32_le, decode_f16, encode_f16, encode_f32, f32_le_to_f16_le,
    round_to_f16_in_place,
};
use ratel_tensor::{
    adam, block_dropout_spec, AdamParams, BlockSaved, DropoutSpec, HeadSaved, KvCache, Tensor,
};

use super::blobs::{key, load_staged_params, moments_tier, offload_f16, publish_p16, LayerScratch};
use super::executor::{Executor, TaskAction, TaskBreakdown};
use super::EngineConfig;
use crate::error::RatelError;
use crate::schedule::{Decode, IterationSpec, LayerTask, OptimizerKind, Pass};

/// A lowered, verified, paced graph of one [`Pass`] plus what each task
/// does (indexed by `TaskId.0`) and the spec it was lowered from. Built
/// once per shape (it depends only on the config) and reused every run.
#[derive(Debug)]
pub(crate) struct StepDag {
    /// The movement plan this DAG executes: what the handlers read, and
    /// the byte ledger ([`IterationSpec::planned_route_bytes`]) a run of
    /// it is held to.
    pub(crate) spec: IterationSpec,
    /// The executable task graph, pacing edges included.
    pub(crate) graph: TaskGraph,
    /// `actions[t]` is task `t`'s typed identity: its kind, the
    /// micro-batch it serves, engine layer id (0 = embedding, 1..=L =
    /// blocks, L+1 = head) and, for a chunked activation transfer, the
    /// chunk it moves.
    pub(super) actions: Vec<TaskIdentity>,
    /// What the static passes say of `graph` against the tiers it was
    /// paced for: its per-tier residency peaks and any finding.
    pub(crate) report: ratel_verify::VerifyReport,
}

/// How many consumers ahead of the running kernel staging may run toward
/// a tier that has no configured capacity to budget bytes against — and
/// how many handlers' moments rest in host memory beside resident
/// masters ([`super::movement_spec_for`]).
pub(super) const UNBUDGETED_DEPTH: usize = 2;

/// The pacing rule. `staged[p]` is the bytes staged into one tier for
/// the kernel at position `p` of the GPU's compute order; the result's
/// entry `p` is the position of the kernel whose completion lets that
/// staging start (`None`: it may start with the step).
///
/// With a byte `budget`, that is the earliest kernel after which
/// everything staged and not yet consumed — the inputs of the kernels
/// from the next one through `p` — fits the budget; a kernel whose
/// inputs alone exceed it is still admitted once its predecessor is
/// done. Without one there is nothing to count bytes against, and
/// staging runs [`UNBUDGETED_DEPTH`] kernels ahead.
fn staging_gates(staged: &[f64], budget: Option<f64>) -> Vec<Option<usize>> {
    let Some(budget) = budget else {
        return (0..staged.len())
            .map(|p| p.checked_sub(UNBUDGETED_DEPTH))
            .collect();
    };
    (0..staged.len())
        .map(|p| {
            // Widen the window (first, p] backwards while it still fits.
            let mut first = p;
            let mut held = staged[p];
            while first > 0 && held + staged[first - 1] <= budget {
                first -= 1;
                held += staged[first];
            }
            first.checked_sub(1)
        })
        .collect()
}

impl StepDag {
    /// Lowers a movement plan into an executable DAG: builds the spec's
    /// (self-verified) graph, reads every task's typed identity, and
    /// adds pacing edges, against the configured capacities and executor
    /// width in `tiers`. The paced graph is verified against the same
    /// `tiers` and the report kept.
    ///
    /// # Errors
    /// [`RatelError::InvalidConfig`] if any task has no engine action —
    /// multi-GPU or multi-iteration plans and hook/reduce tasks are
    /// simulation-only shapes.
    pub(super) fn lower(
        spec: &IterationSpec,
        tiers: &ratel_verify::Limits,
    ) -> Result<StepDag, RatelError> {
        let (mut graph, _resources, _flops) = spec.build();
        let tasks: Vec<TaskId> = graph.task_ids().collect();
        let mut actions = Vec::with_capacity(tasks.len());
        let mut bad = Vec::new();
        for &t in &tasks {
            let executable = graph.meta(t).and_then(|m| {
                let id = m.identity?;
                let single = m.iteration == 0 && (spec.gpus == 1 || id.gpu.is_none());
                (id.kind.is_executable() && single).then_some(id)
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

        // The kernels in the GPU's compute order — the plan emits them in
        // it — each at its position by (micro-batch or pass, layer, is
        // backward). A staging task serves the kernel at the position
        // `serves` names.
        let n = spec.layers.len();
        let gpu_seq: Vec<TaskId> = (tasks.iter().zip(&actions))
            .filter(|(_, id)| matches!(id.kind, TaskKind::Fwd | TaskKind::Bwd))
            .map(|(&t, _)| t)
            .collect();
        let slot = |micro: usize, layer: usize, bwd: bool| 2 * (micro * n + layer) + bwd as usize;
        let rounds = actions.iter().map(|a| a.micro + 1).max().unwrap_or(1);
        let mut position = vec![None; slot(rounds, 0, false)];
        for (pos, t) in gpu_seq.iter().enumerate() {
            let id = actions[t.0];
            position[slot(id.micro, id.layer, id.kind == TaskKind::Bwd)] = Some(pos);
        }
        let serves = |id: &TaskIdentity| {
            let bwd = match id.kind {
                TaskKind::FwdRead | TaskKind::FwdFetch | TaskKind::KvUp => false,
                TaskKind::BwdRead | TaskKind::BwdFetch | TaskKind::ActLoad | TaskKind::ActUp => {
                    true
                }
                _ => return None,
            };
            position[slot(id.micro, id.layer, bwd)]
        };
        // Bytes a task's own annotations bring into `tier`: what pacing
        // counts is what the verifier charges.
        let staged = |t: TaskId, tier: MemTier| -> f64 {
            let allocs = graph.meta(t).map_or(&[][..], |m| &m.allocs[..]);
            (allocs.iter().filter(|a| a.tier == tier))
                .map(|a| a.bytes)
                .sum()
        };
        // Per kernel: bytes staged into the arena (fetched P16, swapped
        // activations coming back) and into host memory on the way there
        // (the SSD hop of the P16 and of SSD-spilled activations). Per
        // optimizer handler, in gradient-arrival order: the states its
        // read stages into host memory.
        let mut to_gpu = vec![0.0f64; gpu_seq.len()];
        let mut to_host = to_gpu.clone();
        let mut opt_reads = Vec::new();
        let mut opt_bytes = Vec::new();
        let mut opt_cpu_of = vec![None; n];
        for (&t, id) in tasks.iter().zip(&actions) {
            match id.kind {
                TaskKind::OptRead => {
                    opt_reads.push((t, id.layer));
                    opt_bytes.push(staged(t, MemTier::Host));
                }
                TaskKind::OptCpu => opt_cpu_of[id.layer] = Some(t),
                _ => {}
            }
            if let Some(pos) = serves(id) {
                to_gpu[pos] += staged(t, MemTier::Gpu);
                to_host[pos] += staged(t, MemTier::Host);
            }
        }
        // Half of each tier is the budget staging toward it may fill —
        // the other half is left to the running kernel's working set and
        // the offloads in flight.
        let budget = |capacity: Option<f64>| capacity.map(|c| c / 2.0);
        let gpu_gates = staging_gates(&to_gpu, budget(tiers.gpu));
        let host_gates = match (tiers.host, tiers.gpu) {
            // Unbounded host memory under a bounded arena: the first hop
            // of an SSD→host→GPU chain is paced by the arena too, one
            // kernel ahead of its second hop, so the blob is in host
            // memory by the time the arena admits it.
            (None, Some(_)) => gpu_gates
                .iter()
                .map(|gate| gate.and_then(|q| q.checked_sub(1)))
                .collect(),
            _ => staging_gates(&to_host, budget(tiers.host)),
        };
        for (&t, id) in tasks.iter().zip(&actions) {
            let Some(pos) = serves(id) else { continue };
            let gate = match id.kind {
                TaskKind::FwdRead | TaskKind::BwdRead | TaskKind::ActLoad => host_gates[pos],
                TaskKind::ActUp | TaskKind::KvUp => gpu_gates[pos],
                // At the unbudgeted depth a fetch just follows its read,
                // which is gated; under an arena budget, or with no read
                // to follow (a host-resident master, a pin), it is
                // admitted like every other transfer into the arena.
                _ if tiers.gpu.is_some()
                    || spec.layers[id.layer].master_in_host()
                    || spec.pass.pins(id.layer) =>
                {
                    gpu_gates[pos]
                }
                _ => None,
            };
            if let Some(pos) = gate {
                graph.add_dep(t, gpu_seq[pos]);
            }
        }
        // Handler h's state read waits for the CPU compute of the handler
        // its gate names.
        let opt_gates = staging_gates(&opt_bytes, budget(tiers.host));
        for (&(read, _), gate) in opt_reads.iter().zip(opt_gates) {
            if let Some(cpu) = gate.and_then(|h| opt_cpu_of[opt_reads[h].1]) {
                graph.add_dep(read, cpu);
            }
        }

        // The builder self-verified the plan; re-verify after pacing so
        // no added edge can smuggle in a defect. Whether the paced DAG
        // fits `tiers` is the report's to say, not a reason to refuse
        // the lowering: a step over it then fails with a typed
        // out-of-memory error.
        let report = ratel_verify::verify(&graph, tiers);
        debug_assert!(
            (report.findings.iter()).all(|f| f.rule == ratel_verify::Rule::CapacityExceeded),
            "paced step DAG fails static verification:\n{}",
            report.render()
        );
        graph.shrink_to_fit();

        Ok(StepDag {
            spec: spec.clone(),
            graph,
            actions,
            report,
        })
    }

    /// Dispatches the DAG once, `workers` threads a pool, each task
    /// doing what `ctx` says. A run that fails is released
    /// ([`StepDag::release_failed_run`]).
    pub(super) fn run(&self, ctx: &StepCtx, workers: usize) -> Result<TaskBreakdown, RatelError> {
        let run = Executor::new(workers).run(&self.graph, ctx);
        if run.is_err() {
            self.release_failed_run(ctx.store);
        }
        run
    }

    /// Undoes what a run that failed left in the store, best-effort:
    /// every blob a run stages for itself is removed (an accumulated
    /// step's f32 accumulators with them — the step is lost — and a
    /// decode call's pins and caches) and the states a step's handlers
    /// staged go back where they rest. The tiers then hold what they held
    /// before the run, so a retry or a `load_checkpoint` starts from the
    /// states alone.
    pub(super) fn release_failed_run(&self, store: &TieredStore<BlobKey>) {
        for (layer, task) in self.spec.layers.iter().enumerate() {
            // A kind a layer never stages is simply not found.
            let staged = [
                BlobKind::P16Fwd,
                BlobKind::P16Bwd,
                BlobKind::P16Pinned,
                BlobKind::Kv,
                BlobKind::Grad,
                BlobKind::GradMicro,
                BlobKind::GradReduced,
                BlobKind::Ckpt,
            ];
            let acts = saved_act_chunks(task).into_iter();
            let acts = acts.map(|chunk| key(BlobKind::Act, layer).chunk(chunk));
            for blob in staged.map(|kind| key(kind, layer)).into_iter().chain(acts) {
                let _ = store.remove(&blob);
            }
            if let OptimizerKind::CpuOutOfCore { .. } = task.optimizer {
                let _ = store.move_to(&key(BlobKind::Moments, layer), moments_tier(task));
                if !task.master_in_host() {
                    let _ = store.move_to(&key(BlobKind::Master, layer), Tier::Ssd);
                }
            }
        }
    }
}

/// What `opt-cpu` leaves for the `opt-write` of a layer whose P16 rests
/// on the SSD tier. The update itself is already in the P32 + OS32 blobs
/// where the store holds them: a model state has one copy in the
/// process, the tier's.
struct OptUpdate {
    /// False when the unscaled gradient overflowed and the update was
    /// skipped — write-back then only returns the untouched states.
    applied: bool,
}

/// The chunks a block's *saved activations* move in, as the plan's tasks
/// name them: the layer's [`LayerTask::act_chunks`] when it swaps more
/// than its checkpoint, none when the checkpoint is all it moves — the
/// block then recomputes.
fn saved_act_chunks(task: &LayerTask) -> Vec<Option<usize>> {
    if task.act_to_host_bytes + task.act_to_ssd_bytes > task.act_ckpt_bytes {
        task.act_chunks()
    } else {
        Vec::new()
    }
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

/// Rows of one width, stacked into one tensor.
fn stack(rows: Vec<Tensor>) -> Tensor {
    let width = rows[0].shape()[1];
    let data: Vec<f32> = rows.iter().flat_map(|r| r.data().iter().copied()).collect();
    Tensor::from_vec(&[rows.len(), width], data)
}

/// Shared state of one executing DAG: the [`TaskAction`] behind
/// [`super::RatelEngine::train_step`], `eval_loss` and the `generate`
/// calls.
///
/// Worker threads of different pools run disjoint actions concurrently;
/// every hand-off slot (activation bytes, gradients, Adam updates) is a
/// mutex around an `Option`, filled by the producing task and taken by
/// the consuming one. GPU tasks additionally serialize on the kernel
/// scratch's lock — the graph already orders them into a chain, so the
/// lock is never contended, it just satisfies the borrow checker.
pub(super) struct StepCtx<'a> {
    store: &'a Arc<TieredStore<BlobKey>>,
    config: &'a EngineConfig,
    dag: &'a StepDag,
    scratch: Mutex<&'a mut LayerScratch>,
    /// `(tokens, targets)` of each micro-batch, in the order they run.
    batches: &'a [(&'a [usize], &'a [usize])],
    /// What a step's handlers read; `None` in an eval or a decode call.
    training: Option<Training<'a>>,
    /// The activation flowing forward between layers.
    flow: Mutex<Option<Tensor>>,
    /// The gradient flowing backward between layers.
    dflow: Mutex<Option<Tensor>>,
    /// The head's forward input and saved state, parked between the
    /// adjacent head forward and backward (the head stages once).
    head: Mutex<Option<(Tensor, HeadSaved)>>,
    /// Per block: what its forward leaves for its offload — the
    /// checkpoint bytes for act-off in a step, the KV cache for kv-off
    /// in a decode pass.
    pending_off: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per block: its [`saved_act_chunks`].
    act_chunks: Vec<Vec<Option<usize>>>,
    /// Per block: saved-activation bytes between forward and act-off, one
    /// slot per chunk.
    pending_act: Vec<Vec<Mutex<Option<Vec<u8>>>>>,
    /// Per layer: the (scaled) G16 between backward and grad-off.
    grads: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per SSD-placed layer: the Adam update between opt-cpu and
    /// opt-write.
    updates: Vec<Mutex<Option<OptUpdate>>>,
    /// Layers whose update was skipped on gradient overflow.
    skipped: Mutex<Vec<usize>>,
    /// Per micro-batch: its loss.
    losses: Mutex<Vec<f32>>,
    /// A decode call's prompt, then every token picked so far.
    tokens: Mutex<Vec<usize>>,
    /// A decode call's picking rule.
    pick: Option<Mutex<Pick<'a>>>,
}

/// A decode call's rule picking each token from the head's logits.
pub(super) type Pick<'a> = &'a mut (dyn FnMut(&[f32]) -> usize + Send);

/// What a training step's handlers read besides the store and the batch.
pub(super) struct Training<'a> {
    /// The loss scale of the backward pass.
    pub(super) scale: f32,
    /// The dropout seed of the step.
    pub(super) step_seed: u64,
    /// Adam's hyperparameters, the learning rate scheduled.
    pub(super) adam: AdamParams,
    /// Per layer: its Adam clock.
    pub(super) layer_steps: &'a [u64],
}

impl<'a> StepCtx<'a> {
    /// Builds the shared context of one run of `dag` over `batches`, one
    /// `(tokens, targets)` per micro-batch (none for a decode call): a
    /// step's, with its `training`, an eval's, or a decode call's, which
    /// continues `decode`'s tokens so far, each new one chosen by its
    /// pick.
    pub(super) fn new(
        store: &'a Arc<TieredStore<BlobKey>>,
        config: &'a EngineConfig,
        dag: &'a StepDag,
        scratch: &'a mut LayerScratch,
        batches: &'a [(&'a [usize], &'a [usize])],
        training: Option<Training<'a>>,
        decode: Option<(Vec<usize>, Pick<'a>)>,
    ) -> Self {
        let blocks = config.model.layers;
        let layers = blocks + 2;
        fn slots<T>(n: usize) -> Vec<Mutex<Option<T>>> {
            (0..n).map(|_| Mutex::new(None)).collect()
        }
        let act_chunks: Vec<_> = (1..=blocks)
            .map(|id| saved_act_chunks(&dag.spec.layers[id]))
            .collect();
        StepCtx {
            store,
            config,
            dag,
            scratch: Mutex::new(scratch),
            batches,
            training,
            flow: Mutex::new(None),
            dflow: Mutex::new(None),
            head: Mutex::new(None),
            pending_off: slots(blocks),
            pending_act: act_chunks.iter().map(|c| slots(c.len())).collect(),
            act_chunks,
            grads: slots(layers),
            updates: slots(layers),
            skipped: Mutex::new(Vec::new()),
            losses: Mutex::new(vec![0.0; batches.len()]),
            tokens: Mutex::new(decode.as_ref().map_or(Vec::new(), |d| d.0.clone())),
            pick: decode.map(|d| Mutex::new(d.1)),
        }
    }

    /// What the step's handlers read: only a step trains.
    fn training(&self) -> Result<&Training<'a>, StorageError> {
        (self.training.as_ref()).ok_or_else(|| slot_violation("a step's training inputs"))
    }

    /// Consumes the context after a successful run, returning the mean
    /// micro-batch loss (summed in micro-batch order), the
    /// overflow-skipped layers (sorted) and a decode call's tokens.
    pub(super) fn into_outcome(self) -> (f32, Vec<usize>, Vec<usize>) {
        debug_assert!(self.flow.lock().is_none(), "forward flow drained");
        debug_assert!(self.dflow.lock().is_none(), "backward flow drained");
        let losses = self.losses.lock();
        let loss = losses.iter().fold(0.0, |sum, l| sum + l) * (1.0 / losses.len() as f32);
        let mut skipped = self.skipped.lock().clone();
        skipped.sort_unstable();
        (loss, skipped, self.tokens.into_inner())
    }

    fn dropout_spec(&self, block: usize) -> Result<Option<DropoutSpec>, StorageError> {
        let seed = self.training()?.step_seed;
        Ok((self.config.dropout).map(|p| block_dropout_spec(p, seed, block)))
    }

    /// Stage a layer's P16 from SSD into host memory as the copy `pass`
    /// (`P16Fwd` or `P16Bwd`: forward and backward stage separately, the
    /// head once, in forward).
    fn param_read(&self, layer: usize, pass: BlobKind) -> Result<(), StorageError> {
        let p16 = key(BlobKind::Param16, layer);
        self.store.copy_to(&p16, &key(pass, layer), Tier::Host)
    }

    /// Bring a layer's P16 into the GPU arena: a copy of its pin, the
    /// copy its read staged, or one rounded from the resident master.
    fn param_fetch(&self, layer: usize, pass: BlobKind) -> Result<(), StorageError> {
        let staged = key(pass, layer);
        if self.dag.spec.pass.pins(layer) {
            let pinned = key(BlobKind::P16Pinned, layer);
            self.store.copy_to(&pinned, &staged, Tier::Gpu)
        } else if self.dag.spec.layers[layer].master_in_host() {
            publish_p16(self.store, layer, staged, Tier::Gpu)
        } else {
            self.store.move_to(&staged, Tier::Gpu)
        }
    }

    /// Hold a layer's P16 in host memory for the call: copied from the
    /// SSD tier, or rounded from the resident master.
    fn pin(&self, layer: usize) -> Result<(), StorageError> {
        let pinned = key(BlobKind::P16Pinned, layer);
        if self.dag.spec.layers[layer].master_in_host() {
            publish_p16(self.store, layer, pinned, Tier::Host)
        } else {
            (self.store).copy_to(&key(BlobKind::Param16, layer), &pinned, Tier::Host)
        }
    }

    /// Decode a staged P16 into the layer's scratch slot and free the
    /// copy. Caller holds the scratch lock.
    fn load_params(
        &self,
        scratch: &mut LayerScratch,
        layer: usize,
        pass: BlobKind,
    ) -> Result<(), StorageError> {
        load_staged_params(self.store, scratch, layer, key(pass, layer))
    }

    /// The layer's forward kernels over micro-batch `micro` (or decode
    /// pass `micro`), after decoding its staged P16. A step's blocks save
    /// what backward needs; an eval saves nothing.
    fn forward(&self, layer: usize, micro: usize) -> Result<(), StorageError> {
        let c = self.config.model;
        let l = c.layers;
        let mut scratch = self.scratch.lock();
        self.load_params(&mut scratch, layer, BlobKind::P16Fwd)?;
        if let Pass::Decode(d) = self.dag.spec.pass {
            return self.decode_forward(&mut scratch, layer, micro, d);
        }
        let saves = self.dag.spec.pass == Pass::Step;
        let (tokens, targets) = self.batches[micro];
        if layer == 0 {
            let mut x = scratch.embedding.forward(tokens, c.batch, c.seq);
            round_to_f16_in_place(x.data_mut());
            *self.flow.lock() = Some(x);
        } else if layer <= l {
            let b = layer - 1;
            let x = self
                .flow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("forward flow produced by the previous layer"))?;
            if !saves {
                *self.flow.lock() = Some(scratch.block.forward(&x).0.quantize_f16());
                return Ok(());
            }
            // The block's input is its checkpoint (the inter-block A16);
            // the act-off task offloads these bytes after this kernel.
            *self.pending_off[b].lock() = Some(x.to_f16_bytes());
            let spec = self.dropout_spec(b)?;
            let (mut y, saved) = scratch.block.forward_with(&x, spec);
            // The saved set crosses to f16 once, in its encode; a block
            // that recomputes drops it unencoded. The act-off task of
            // each chunk offloads its share of the blob: split it here,
            // back to front, so no byte is copied more than once.
            let slots = &self.pending_act[b];
            if !slots.is_empty() {
                let mut bytes = saved.into_f16_bytes();
                let elems = bytes.len() / 2;
                for (i, slot) in slots.iter().enumerate().skip(1).rev() {
                    *slot.lock() = Some(bytes.split_off(2 * (elems * i / slots.len())));
                }
                bytes.shrink_to_fit();
                *slots[0].lock() = Some(bytes);
            }
            round_to_f16_in_place(y.data_mut());
            *self.flow.lock() = Some(y);
        } else {
            let x = self
                .flow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("forward flow reaches the head"))?;
            let (loss, head_saved) = scratch.head.forward(&x, targets);
            self.losses.lock()[micro] = loss;
            if saves {
                *self.head.lock() = Some((x, head_saved));
            }
        }
        Ok(())
    }

    /// Decode pass `pass`'s kernels of `layer`: the embedding of the
    /// tokens no block has seen (cached) or of the window (uncached), a
    /// block over them — through its KV cache, one position at a time,
    /// when cached — or the head's logits of the last position, which
    /// the flow carries to the pick.
    fn decode_forward(
        &self,
        scratch: &mut LayerScratch,
        layer: usize,
        pass: usize,
        d: Decode,
    ) -> Result<(), StorageError> {
        let c = self.config.model;
        let (h, tokens) = (c.hidden, self.tokens.lock().clone());
        let row = |x: &Tensor, i: usize| Tensor::from_vec(&[1, h], x.data()[i * h..][..h].to_vec());
        // The positions every block's cache held before this pass.
        let pass = d.start + pass;
        let seen = if pass == 0 { 0 } else { d.prompt + pass - 1 };
        let y = if layer == 0 && d.cached {
            let rows =
                (seen..tokens.len()).map(|pos| scratch.embedding.forward_at(tokens[pos], pos));
            stack(rows.map(Tensor::quantize_f16).collect())
        } else if layer == 0 {
            // The window of the last `seq` tokens, zero-padded at the
            // tail; the model runs at its configured micro-batch, so the
            // window is replicated and row 0 read.
            let window = &tokens[tokens.len().saturating_sub(c.seq)..];
            let mut ids = vec![0usize; c.seq];
            ids[..window.len()].copy_from_slice(window);
            let ids: Vec<usize> = (0..c.batch).flat_map(|_| ids.iter().copied()).collect();
            scratch
                .embedding
                .forward(&ids, c.batch, c.seq)
                .quantize_f16()
        } else {
            let x = (self.flow.lock().take())
                .ok_or_else(|| slot_violation("forward flow produced by the previous layer"))?;
            if layer > c.layers && d.cached {
                scratch.head.logits(&row(&x, x.shape()[0] - 1))
            } else if layer > c.layers {
                let last = tokens.len().min(c.seq) - 1;
                let logits = scratch.head.logits(&x);
                Tensor::from_vec(
                    &[1, c.vocab],
                    logits.data()[last * c.vocab..][..c.vocab].to_vec(),
                )
            } else if !d.cached {
                scratch.block.forward(&x).0.quantize_f16()
            } else {
                let head_dim = h / c.heads;
                let mut cache = match pass {
                    0 => KvCache::new(c.heads, head_dim),
                    _ => {
                        let bytes = self.store.take(&key(BlobKind::Kv, layer))?;
                        KvCache::from_f16_bytes(&bytes, c.heads, head_dim, seen)
                    }
                };
                let rows = (0..x.shape()[0]).map(|i| {
                    // A position attends to its own K/V in f32 and to
                    // earlier ones as the store returns them, in f16:
                    // round what the previous position of this pass left.
                    if i > 0 {
                        cache.round_to_f16();
                    }
                    let y = scratch.block.forward_cached(&row(&x, i), &mut cache);
                    y.quantize_f16()
                });
                let y = stack(rows.collect());
                *self.pending_off[layer - 1].lock() = Some(cache.to_f16_bytes());
                y
            }
        };
        *self.flow.lock() = Some(y);
        Ok(())
    }

    /// Offload a block's KV cache, as its kernel left it, to host memory.
    fn kv_off(&self, layer: usize) -> Result<(), StorageError> {
        let cache = self.pending_off[layer - 1]
            .lock()
            .take()
            .ok_or_else(|| slot_violation("KV cache pending after block forward"))?;
        offload_f16(self.store, key(BlobKind::Kv, layer), cache, Tier::Host)
    }

    /// Choose pass `pass`'s token from the head's logits; the call's last
    /// pass releases its pins and caches.
    fn pick(&self, pass: usize) -> Result<(), StorageError> {
        let (Pass::Decode(d), Some(pick)) = (self.dag.spec.pass, &self.pick) else {
            return Err(slot_violation("a decode call"));
        };
        let logits =
            (self.flow.lock().take()).ok_or_else(|| slot_violation("the head's logits"))?;
        let token = (pick.lock())(logits.data());
        self.tokens.lock().push(token);
        if d.last && pass + 1 == d.passes {
            for layer in 0..d.pinned {
                self.store.remove(&key(BlobKind::P16Pinned, layer))?;
            }
            for layer in (1..=self.config.model.layers).filter(|_| d.cached) {
                self.store.remove(&key(BlobKind::Kv, layer))?;
            }
        }
        Ok(())
    }

    /// Offload one chunk of the block's saved activations to host
    /// memory — and, with the first (or only) chunk, its checkpoint.
    /// Both swap decisions stop at host here; the spill task carries
    /// SSD-bound chunks onward.
    fn act_off(&self, layer: usize, chunk: Option<usize>) -> Result<(), StorageError> {
        let b = layer - 1;
        let c = chunk.unwrap_or(0);
        if c == 0 {
            let ckpt = self.pending_off[b]
                .lock()
                .take()
                .ok_or_else(|| slot_violation("checkpoint pending after block forward"))?;
            offload_f16(self.store, key(BlobKind::Ckpt, layer), ckpt, Tier::Host)?;
        }
        if let Some(slot) = self.pending_act[b].get(c) {
            let act = slot
                .lock()
                .take()
                .ok_or_else(|| slot_violation("activations pending after block forward"))?;
            let acts = key(BlobKind::Act, layer).chunk(chunk);
            offload_f16(self.store, acts, act, Tier::Host)?;
        }
        Ok(())
    }

    /// Move one chunk of the block's activations — and, with the first
    /// (or only) chunk, its checkpoint — back into the GPU arena, where
    /// backward takes them.
    fn act_up(&self, layer: usize, chunk: Option<usize>) -> Result<(), StorageError> {
        if chunk.unwrap_or(0) == 0 {
            self.store.move_to(&key(BlobKind::Ckpt, layer), Tier::Gpu)?;
        }
        if !self.act_chunks[layer - 1].is_empty() {
            let acts = key(BlobKind::Act, layer).chunk(chunk);
            self.store.move_to(&acts, Tier::Gpu)?;
        }
        Ok(())
    }

    /// The layer's backward kernels over micro-batch `micro`. Recompute
    /// decisions rerun the block's forward inside this task (same
    /// step-seeded dropout masks).
    fn backward(&self, layer: usize, micro: usize) -> Result<(), StorageError> {
        let c = self.config.model;
        let l = c.layers;
        let (tokens, targets) = self.batches[micro];
        // A layer the plan moves no gradient for is frozen.
        let frozen = self.dag.spec.layers[layer].grad_bytes == 0.0;
        let mut scratch = self.scratch.lock();
        if layer == l + 1 {
            // Head: parameters are still resident from forward (the plan
            // stages the head once), its input was parked at the loss.
            let (x, head_saved) = self
                .head
                .lock()
                .take()
                .ok_or_else(|| slot_violation("head forward parked its input"))?;
            let (dx, head_grads) =
                scratch
                    .head
                    .backward_scaled(&x, &head_saved, targets, self.training()?.scale);
            *self.dflow.lock() = Some(dx);
            self.park_gradient(layer, frozen, &head_grads);
        } else if layer >= 1 {
            let b = layer - 1;
            self.load_params(&mut scratch, layer, BlobKind::P16Bwd)?;
            let rows = c.batch * c.seq;
            let ckpt = self.store.take(&key(BlobKind::Ckpt, layer))?;
            let input = Tensor::from_f16_bytes(&[rows, c.hidden], &ckpt);
            let spec = self.dropout_spec(b)?;
            let chunks = &self.act_chunks[b];
            let fetched = (chunks.iter())
                .map(|&chunk| self.store.take(&key(BlobKind::Act, layer).chunk(chunk)))
                .collect::<Result<Vec<_>, _>>()?;
            let dx = self
                .dflow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("backward flow from the layer above"))?;
            let saved = if fetched.is_empty() {
                // Rematerialization regenerates the same dropout masks
                // from the step/layer-derived seed, and rounds what it
                // saves as a swap's round trip would have.
                let (_, mut s) = scratch.block.forward_with(&input, spec);
                s.quantize_f16();
                s
            } else {
                // Each field decodes straight from the chunks it spans.
                BlockSaved::from_f16_bytes(fetched, c.batch, c.seq, c.hidden, c.heads)
            };
            let (dprev, grads) = scratch.block.backward_with(&input, &saved, &dx, spec);
            *self.dflow.lock() = Some(dprev);
            self.park_gradient(layer, frozen, &grads);
        } else {
            self.load_params(&mut scratch, 0, BlobKind::P16Bwd)?;
            let dx = self
                .dflow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("backward flow reaches the embedding"))?;
            let emb_grads = scratch.embedding.backward(tokens, c.batch, c.seq, &dx);
            self.park_gradient(0, frozen, &emb_grads);
        }
        Ok(())
    }

    /// Parks a trained layer's gradient for its `grad-off` as the G16 the
    /// GPU's mixed-precision backward emits: the f32 vector ends with the
    /// backward task that produced it.
    fn park_gradient(&self, layer: usize, frozen: bool, grads: &[f32]) {
        if !frozen {
            *self.grads[layer].lock() = Some(encode_f16(grads));
        }
    }

    /// Land the layer's G16 of micro-batch `micro` in host memory — the
    /// active offload's GPU->host leg. Of a step's several micro-batches
    /// the first sums it into a new host f32 accumulator, the middle ones
    /// add into that, and the last merges it, averages and rounds once
    /// more: the handler reads `f16(mean_i(f16(g_i)))`.
    fn grad_off(&self, layer: usize, micro: usize) -> Result<(), StorageError> {
        let g16 = self.grads[layer]
            .lock()
            .take()
            .ok_or_else(|| slot_violation("backward produced this layer's gradient"))?;
        let n = self.batches.len();
        let acc = key(BlobKind::GradReduced, layer);
        if micro + 1 < n {
            let landed = key(BlobKind::GradMicro, layer);
            offload_f16(self.store, landed, g16, Tier::Host)?;
            let g16 = self.store.take(&landed)?;
            return if micro == 0 {
                (self.store).put(&acc, Tier::Host, encode_f32(&decode_f16(&g16)))
            } else {
                (self.store).modify([&acc], |[acc]| add_f16_le_to_f32_le(acc, &g16))
            };
        }
        let g16 = if micro == 0 {
            g16
        } else {
            let mut acc = self.store.take(&acc)?;
            add_f16_le_to_f32_le(&mut acc, &g16);
            let inv_n = 1.0 / n as f32;
            for a in acc.chunks_exact_mut(4) {
                let mean = f32::from_le_bytes([a[0], a[1], a[2], a[3]]) * inv_n;
                a.copy_from_slice(&mean.to_le_bytes());
            }
            f32_le_to_f16_le(&acc)
        };
        offload_f16(self.store, key(BlobKind::Grad, layer), g16, Tier::Host)
    }

    /// Stage the layer's SSD-resident optimizer states — the moments,
    /// and the master unless host memory holds it — into host memory:
    /// the handler's SSD->Main leg.
    fn opt_read(&self, layer: usize) -> Result<(), StorageError> {
        if !self.dag.spec.layers[layer].master_in_host() {
            self.store
                .move_to(&key(BlobKind::Master, layer), Tier::Host)?;
        }
        self.store
            .move_to(&key(BlobKind::Moments, layer), Tier::Host)
    }

    /// Run the f32 Adam step over the states where the store holds them,
    /// reading the G16 gradient as the bytes it arrived in: one pass for
    /// the overflow check and the clip norm, one for the update.
    fn opt_cpu(&self, layer: usize) -> Result<(), StorageError> {
        let g16 = self.store.take(&key(BlobKind::Grad, layer))?;
        let step = self.training()?;
        let factors = adam::GradFactors::measure(&g16, step.scale, self.config.grad_clip);
        if let Some(factors) = factors {
            self.store.modify(
                [
                    &key(BlobKind::Master, layer),
                    &key(BlobKind::Moments, layer),
                ],
                |[master, moments]| {
                    adam::step_le_bytes(
                        master,
                        moments,
                        &g16,
                        factors,
                        step.layer_steps[layer],
                        &step.adam,
                    )
                },
            )?;
        } else {
            self.skipped.lock().push(layer);
        }
        if !self.dag.spec.layers[layer].master_in_host() {
            let applied = factors.is_some();
            *self.updates[layer].lock() = Some(OptUpdate { applied });
        }
        Ok(())
    }

    /// Write the staged states back — the handler's Main->SSD leg — and,
    /// for a layer whose P16 rests on the SSD tier, publish the fresh one
    /// rounded from the updated master first (on a skipped update, just
    /// return the untouched states). A resident master was stepped where
    /// it stays: its next fetch rounds the same bits, and the write moves
    /// the moments alone — this step's, or, at the head of the step, the
    /// ones a rotated handler left in host memory.
    fn opt_write(&self, layer: usize) -> Result<(), StorageError> {
        if !self.dag.spec.layers[layer].master_in_host() {
            let update = self.updates[layer]
                .lock()
                .take()
                .ok_or_else(|| slot_violation("opt-cpu parked this layer's update"))?;
            if update.applied {
                let p16 = key(BlobKind::Param16, layer);
                self.store.remove(&p16)?;
                publish_p16(self.store, layer, p16, Tier::Ssd)?;
            }
            self.store
                .move_to(&key(BlobKind::Master, layer), Tier::Ssd)?;
        }
        self.store
            .move_to(&key(BlobKind::Moments, layer), Tier::Ssd)
    }
}

impl TaskAction for StepCtx<'_> {
    fn run(&self, task: TaskId) -> Result<(), RatelError> {
        let TaskIdentity {
            kind,
            micro,
            layer: li,
            chunk,
            ..
        } = self.dag.actions[task.0];
        let acts = key(BlobKind::Act, li).chunk(chunk);
        let result = match kind {
            TaskKind::FwdRead => self.param_read(li, BlobKind::P16Fwd),
            TaskKind::FwdFetch => self.param_fetch(li, BlobKind::P16Fwd),
            TaskKind::Fwd => self.forward(li, micro),
            TaskKind::ActOff => self.act_off(li, chunk),
            TaskKind::ActSpill => self.store.move_to(&acts, Tier::Ssd),
            TaskKind::BwdRead => self.param_read(li, BlobKind::P16Bwd),
            TaskKind::BwdFetch => self.param_fetch(li, BlobKind::P16Bwd),
            TaskKind::ActLoad => self.store.move_to(&acts, Tier::Host),
            TaskKind::ActUp => self.act_up(li, chunk),
            TaskKind::Bwd => self.backward(li, micro),
            TaskKind::GradOff => self.grad_off(li, micro),
            TaskKind::OptRead => self.opt_read(li),
            TaskKind::OptCpu => self.opt_cpu(li),
            TaskKind::OptWrite => self.opt_write(li),
            TaskKind::Pin => self.pin(li),
            TaskKind::KvUp => self.store.move_to(&key(BlobKind::Kv, li), Tier::Gpu),
            TaskKind::KvOff => self.kv_off(li),
            TaskKind::Pick => self.pick(micro),
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
        let TaskIdentity { kind, layer, .. } = self.dag.actions[task.0];
        let graph = &self.dag.graph;
        let task_ref = TaskRef { task, kind, layer };
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
    use std::collections::BTreeSet;

    use super::*;
    use crate::engine::{movement_spec_for, ActDecision, ExecutionOptions, ExecutorOptions};
    use crate::offload::GradOffloadMode;
    use crate::schedule::{LinkRates, Placement, ACT_SPILL_CHUNKS};
    use ratel_verify::Limits;

    /// The tiny engine's movement plan (3 blocks) under the paper's
    /// placement, block 1 spilling its activations to SSD.
    fn tiny_spec(offload: GradOffloadMode) -> IterationSpec {
        let mut config = EngineConfig::tiny();
        config.act_decisions[0] = ActDecision::SwapToSsd;
        config.execution = ExecutionOptions::Executor(ExecutorOptions {
            offload,
            ..ExecutorOptions::default()
        });
        movement_spec_for(&config, Placement::Ssd)
    }

    /// Bytes of the miniature's blobs: a P16, a block's checkpoint, its
    /// saved activations.
    const P16: f64 = 2.0;
    const CKPT: f64 = 4.0;
    const ACTS: f64 = 40.0;
    /// Seconds (at unit rates) of every forward kernel: long enough that
    /// no two blocks' swaps meet on a link.
    const FWD: f64 = 100.0;

    /// Embedding, six blocks deciding `SwapToSsd, SwapToHost, Recompute`
    /// in turn, head — one parameter a layer (a 2 B P16, 12 B of
    /// optimizer state) at unit rates, so a task's seconds are its bytes
    /// — under the paper's placement.
    fn miniature() -> IterationSpec {
        miniature_placed(Placement::Ssd)
    }

    /// [`miniature`] with every layer's states placed as `placement` says.
    fn miniature_placed(placement: Placement) -> IterationSpec {
        let layer = |id: usize, label: &str, to_host: f64, to_ssd: f64| LayerTask {
            fwd_flops: FWD,
            bwd_flops: 1.0,
            act_to_host_bytes: to_host,
            act_to_ssd_bytes: to_ssd,
            refetch_in_backward: id != 7,
            ..LayerTask::ratel(label, P16 / 2.0, P16 / 2.0, placement)
        };
        let mut layers = vec![layer(0, "embedding", 0.0, 0.0)];
        for b in 0..6 {
            layers.push(match b % 3 {
                0 => layer(b + 1, "ssd", CKPT, ACTS),
                1 => layer(b + 1, "host", CKPT + ACTS, 0.0),
                _ => layer(b + 1, "recompute", CKPT, 0.0),
            });
        }
        layers.push(layer(7, "head", 0.0, 0.0));
        IterationSpec {
            layers,
            mode: GradOffloadMode::OptimizedActive,
            rates: LinkRates::UNIT,
            gpus: 1,
            items_per_iteration: 1.0,
            micro_batches: 1,
            pass: Pass::Step,
            per_layer_overhead_seconds: 0.0,
        }
    }

    fn label(graph: &TaskGraph, t: TaskId) -> String {
        graph.label(t).unwrap_or_default().to_string()
    }

    /// The `(task, gate)` edges lowering added to the plan's own.
    fn pacing_edges(spec: &IterationSpec, tiers: &Limits) -> BTreeSet<(String, String)> {
        let dag = StepDag::lower(spec, tiers).unwrap();
        let (plan, _, _) = spec.build();
        dag.graph
            .task_ids()
            .flat_map(|t| {
                let added: Vec<TaskId> = dag
                    .graph
                    .deps(t)
                    .iter()
                    .filter(|d| !plan.deps(t).contains(d))
                    .copied()
                    .collect();
                added
                    .into_iter()
                    .map(|d| (label(&dag.graph, t), label(&dag.graph, d)))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn edges(pairs: &[(&str, &str)]) -> BTreeSet<(String, String)> {
        pairs
            .iter()
            .map(|(t, d)| (t.to_string(), d.to_string()))
            .collect()
    }

    #[test]
    fn the_window_function_counts_bytes_or_falls_back_to_depth_two() {
        assert!(staging_gates(&[], Some(8.0)).is_empty());
        assert!(staging_gates(&[], None).is_empty());
        // No budget to count against: two kernels ahead.
        assert_eq!(
            staging_gates(&[1.0; 4], None),
            vec![None, None, Some(0), Some(1)]
        );
        // Everything fits: nothing is held back.
        assert_eq!(staging_gates(&[1.0; 4], Some(8.0)), vec![None; 4]);
        // An exact fit is a fit: kernels 1..=3 hold 2+3+3 = 8.
        assert_eq!(
            staging_gates(&[5.0, 2.0, 3.0, 3.0], Some(8.0)),
            vec![None, None, Some(0), Some(0)]
        );
        // One oversized blob is admitted once its predecessor is done,
        // and the kernels after it no longer count it.
        assert_eq!(
            staging_gates(&[1.0, 20.0, 1.0, 1.0], Some(8.0)),
            vec![None, Some(0), Some(1), Some(1)]
        );
        assert_eq!(staging_gates(&[20.0], Some(8.0)), vec![None]);
    }

    #[test]
    fn lower_types_every_task_and_adds_pacing_edges() {
        for mode in [
            GradOffloadMode::OptimizedActive,
            GradOffloadMode::SeparateStage,
        ] {
            let spec = tiny_spec(mode);
            let dag = StepDag::lower(&spec, &Limits::none()).unwrap();
            assert_eq!(dag.actions.len(), dag.graph.len());
            // Every layer's compute is present.
            let count = |kind| dag.actions.iter().filter(|a| a.kind == kind).count();
            assert_eq!(count(TaskKind::Fwd), 5);
            assert_eq!(count(TaskKind::Bwd), 5);
            // Pacing: fwd-read L2 gained a dep on the fwd L0 kernel.
            let find = |kind, layer| {
                dag.graph
                    .task_ids()
                    .find(|t| (dag.actions[t.0].kind, dag.actions[t.0].layer) == (kind, layer))
                    .unwrap()
            };
            let read2 = find(TaskKind::FwdRead, 2);
            let fwd0 = find(TaskKind::Fwd, 0);
            assert!(
                dag.graph.deps(read2).contains(&fwd0),
                "fwd-read L2 is paced behind fwd L0"
            );
            // The spilled block round-trips through act-spill/act-load,
            // chunk by chunk; the others move whole.
            for kind in [
                TaskKind::ActOff,
                TaskKind::ActSpill,
                TaskKind::ActLoad,
                TaskKind::ActUp,
            ] {
                let chunks: Vec<Option<usize>> = dag
                    .actions
                    .iter()
                    .filter(|a| (a.kind, a.layer) == (kind, 1))
                    .map(|a| a.chunk)
                    .collect();
                let expected: Vec<_> = (0..ACT_SPILL_CHUNKS).map(Some).collect();
                assert_eq!(chunks, expected, "{}", kind.name());
            }
            assert_eq!(count(TaskKind::ActSpill), ACT_SPILL_CHUNKS);
            assert_eq!(count(TaskKind::ActUp), ACT_SPILL_CHUNKS + 2);
        }
    }

    #[test]
    fn without_capacities_pacing_is_two_kernels_deep() {
        let expected = edges(&[
            ("fwd-read L2", "fwd L0"),
            ("fwd-read L3", "fwd L1"),
            ("fwd-read L4", "fwd L2"),
            ("fwd-read L5", "fwd L3"),
            ("fwd-read L6", "fwd L4"),
            ("fwd-read L7", "fwd L5"),
            ("bwd-read L6", "fwd L7"),
            ("act-up L6", "fwd L7"),
            ("bwd-read L5", "bwd L7"),
            ("act-up L5", "bwd L7"),
            ("bwd-read L4", "bwd L6"),
            ("act-load L4#0", "bwd L6"),
            ("act-load L4#1", "bwd L6"),
            ("act-load L4#2", "bwd L6"),
            ("act-load L4#3", "bwd L6"),
            ("act-up L4#0", "bwd L6"),
            ("act-up L4#1", "bwd L6"),
            ("act-up L4#2", "bwd L6"),
            ("act-up L4#3", "bwd L6"),
            ("bwd-read L3", "bwd L5"),
            ("act-up L3", "bwd L5"),
            ("bwd-read L2", "bwd L4"),
            ("act-up L2", "bwd L4"),
            ("bwd-read L1", "bwd L3"),
            ("act-load L1#0", "bwd L3"),
            ("act-load L1#1", "bwd L3"),
            ("act-load L1#2", "bwd L3"),
            ("act-load L1#3", "bwd L3"),
            ("act-up L1#0", "bwd L3"),
            ("act-up L1#1", "bwd L3"),
            ("act-up L1#2", "bwd L3"),
            ("act-up L1#3", "bwd L3"),
            ("bwd-read L0", "bwd L2"),
            // Optimizer handlers, in gradient-arrival order.
            ("opt-read L5", "opt-cpu L7"),
            ("opt-read L4", "opt-cpu L6"),
            ("opt-read L3", "opt-cpu L5"),
            ("opt-read L2", "opt-cpu L4"),
            ("opt-read L1", "opt-cpu L3"),
            ("opt-read L0", "opt-cpu L2"),
        ]);
        assert_eq!(pacing_edges(&miniature(), &Limits::none()), expected);
    }

    #[test]
    fn a_resident_master_is_fetched_at_the_depth_its_read_was_paced_to() {
        // A host-resident master has no read for its fetch to follow, so
        // the fetch takes the read's gate; everything else is paced as
        // under the paper's placement.
        let paper = pacing_edges(&miniature(), &Limits::none());
        let expected: BTreeSet<(String, String)> = (paper.iter().cloned())
            .map(|(task, gate)| match task.split_once("-read ") {
                Some((pass @ ("fwd" | "bwd"), layer)) => (format!("{pass}-fetch {layer}"), gate),
                _ => (task, gate),
            })
            .collect();
        let spec = miniature_placed(Placement::HostMaster);
        assert_eq!(pacing_edges(&spec, &Limits::none()), expected);
        let dag = StepDag::lower(&spec, &Limits::none()).unwrap();
        let reads = |kind| dag.actions.iter().filter(|a| a.kind == kind).count();
        assert_eq!(reads(TaskKind::FwdRead), 0);
        assert_eq!(reads(TaskKind::BwdRead), 0);
        assert_eq!(reads(TaskKind::OptRead), 8);
    }

    #[test]
    fn beside_a_resident_master_the_moments_are_read_ahead_of_the_gradient() {
        // Host-resident master: the read waits for no gradient, the CPU
        // step does. Paper's placement: both wait, as at the parent.
        for (placement, read_waits) in [(Placement::HostMaster, false), (Placement::Ssd, true)] {
            let dag = StepDag::lower(&miniature_placed(placement), &Limits::none()).unwrap();
            let graph = &dag.graph;
            let reach = ratel_verify::Reachability::new(graph);
            let task = |kind, layer| {
                let t = graph.task_ids().find(|t| {
                    let a = dag.actions[t.0];
                    (a.kind, a.layer) == (kind, layer)
                });
                t.unwrap_or_else(|| panic!("no {} L{layer}", kind.name()))
            };
            for layer in 0..dag.spec.layers.len() {
                let grad = task(TaskKind::GradOff, layer);
                assert_eq!(
                    reach.reaches(grad, task(TaskKind::OptRead, layer)),
                    read_waits,
                    "{placement:?}: opt-read L{layer}"
                );
                assert!(reach.reaches(grad, task(TaskKind::OptCpu, layer)));
            }
        }
    }

    #[test]
    fn under_an_arena_pacing_deepens_as_the_byte_rule_says() {
        // Half of 240 B is the staging budget. Walking back from the
        // head's backward: blocks 6..=3 need 6 + 46 + 46 + 6 B in the
        // arena, which with every forward P16 comes to exactly 120 B —
        // nothing up to `bwd L3` is held back. `bwd L2`'s 46 B fit once
        // `bwd L5` has consumed its own (46 + 6 + 46 = 98 B staged),
        // `bwd L1`'s and `bwd L0`'s once `bwd L4` has.
        let tiers = Limits {
            gpu: Some(240.0),
            ..Limits::none()
        };
        let expected = edges(&[
            ("bwd-fetch L2", "bwd L5"),
            ("act-up L2", "bwd L5"),
            ("bwd-fetch L1", "bwd L4"),
            ("act-up L1#0", "bwd L4"),
            ("act-up L1#1", "bwd L4"),
            ("act-up L1#2", "bwd L4"),
            ("act-up L1#3", "bwd L4"),
            ("bwd-fetch L0", "bwd L4"),
            // First hops open one kernel before their second hop.
            ("bwd-read L2", "bwd L6"),
            ("bwd-read L1", "bwd L5"),
            ("act-load L1#0", "bwd L5"),
            ("act-load L1#1", "bwd L5"),
            ("act-load L1#2", "bwd L5"),
            ("act-load L1#3", "bwd L5"),
            ("bwd-read L0", "bwd L5"),
            // Host memory is unbounded: optimizer reads stay two deep.
            ("opt-read L5", "opt-cpu L7"),
            ("opt-read L4", "opt-cpu L6"),
            ("opt-read L3", "opt-cpu L5"),
            ("opt-read L2", "opt-cpu L4"),
            ("opt-read L1", "opt-cpu L3"),
            ("opt-read L0", "opt-cpu L2"),
        ]);
        assert_eq!(pacing_edges(&miniature(), &tiers), expected);
    }

    #[test]
    fn a_chunk_moves_on_as_soon_as_it_lands() {
        let spec = miniature();
        let tiers = Limits {
            gpu: Some(240.0),
            ..Limits::none()
        };
        let dag = StepDag::lower(&spec, &tiers).unwrap();
        let graph = &dag.graph;
        let task = |name: &str| {
            graph
                .task_ids()
                .find(|t| graph.label(*t) == Some(name))
                .unwrap_or_else(|| panic!("no task `{name}`"))
        };
        let deps = |name: &str| -> BTreeSet<String> {
            graph
                .deps(task(name))
                .iter()
                .map(|d| label(graph, *d))
                .collect()
        };
        for c in 0..ACT_SPILL_CHUNKS {
            let only = |dep: String| BTreeSet::from([dep]);
            assert_eq!(deps(&format!("act-off L4#{c}")), only("fwd L4".into()));
            assert_eq!(
                deps(&format!("act-spill L4#{c}")),
                only(format!("act-off L4#{c}"))
            );
            assert_eq!(
                deps(&format!("act-load L4#{c}")),
                only(format!("act-spill L4#{c}"))
            );
            assert_eq!(
                deps(&format!("act-up L4#{c}")),
                BTreeSet::from([format!("act-off L4#{c}"), format!("act-load L4#{c}")])
            );
            assert!(deps("bwd L4").contains(&format!("act-up L4#{c}")));
        }

        // Cut-through: the last chunk is back in the arena well under the
        // 3.8 blob times the four hops take store-and-forward
        // (2 x 44 B over PCIe + 2 x 40 B over the SSD, for a 44 B blob).
        let sim = ratel_sim::simulate(graph);
        let produced = sim.task_finish(task("fwd L4"));
        let back = (0..ACT_SPILL_CHUNKS)
            .map(|c| sim.task_finish(task(&format!("act-up L4#{c}"))))
            .fold(0.0, f64::max);
        let blob_time = CKPT + ACTS;
        assert!(
            back - produced < 2.5 * blob_time,
            "block 3's swap took {:.2} blob times",
            (back - produced) / blob_time
        );
    }

    #[test]
    fn a_host_budget_paces_first_hops_and_optimizer_reads_by_bytes() {
        // 40 B of host memory: half of it takes one handler's 12 B of
        // optimizer state (depth one), or a chunked blob's SSD hop plus
        // its P16 (42 B is over, so those are depth one too). (It could
        // not hold the 104 B of activations this plan parks there: that
        // is the report's capacity finding, not a reason not to lower.)
        let tiers = Limits {
            host: Some(40.0),
            ..Limits::none()
        };
        let paced = pacing_edges(&miniature(), &tiers);
        for edge in [
            ("opt-read L6", "opt-cpu L7"),
            ("opt-read L0", "opt-cpu L1"),
            ("act-load L4#0", "bwd L5"),
            ("bwd-read L4", "bwd L5"),
            ("bwd-read L2", "bwd L4"),
        ] {
            let (t, d) = edge;
            assert!(
                paced.contains(&(t.to_string(), d.to_string())),
                "{t} should wait for {d}: {paced:?}"
            );
        }
        // 2 B of P16 per kernel: the ten up to `bwd L5` fit in 20 B.
        assert!(!paced.iter().any(|(t, _)| t == "bwd-read L5"));
        // The arena is unbounded: its transfers stay two deep, fetches
        // following their reads.
        assert!(paced.contains(&("act-up L4#0".to_string(), "bwd L6".to_string())));
        assert!(!paced.iter().any(|(t, _)| t.contains("fetch")));
    }

    #[test]
    fn simulation_only_shapes_are_rejected() {
        // Multi-GPU plans carry per-GPU replicas and `reduce` tasks that
        // have no engine action.
        let mut spec = tiny_spec(GradOffloadMode::OptimizedActive);
        spec.gpus = 2;
        let err = StepDag::lower(&spec, &Limits::none()).unwrap_err();
        assert!(matches!(err, RatelError::InvalidConfig(_)), "{err}");

        // Hook tasks (per-layer overhead) are simulation-only too.
        let mut spec = tiny_spec(GradOffloadMode::OptimizedActive);
        spec.per_layer_overhead_seconds = 0.5;
        let err = StepDag::lower(&spec, &Limits::none()).unwrap_err();
        assert!(matches!(err, RatelError::InvalidConfig(_)), "{err}");
    }

    /// The DAG `config` steps dispatch, as lowered by the engine.
    fn engine_dag(config: &EngineConfig) -> Arc<StepDag> {
        crate::engine::StepPlan::lower(config).unwrap().step
    }

    #[test]
    fn rotated_handlers_write_back_at_the_head_of_the_step() {
        let dag = engine_dag(&EngineConfig::tiny());
        let graph = &dag.graph;
        let reach = ratel_verify::Reachability::new(graph);
        let task = |kind, layer| {
            let t = graph.task_ids().find(|t| {
                let a = dag.actions[t.0];
                (a.kind, a.layer) == (kind, layer)
            });
            t.unwrap_or_else(|| panic!("no {} L{layer}", kind.name()))
        };
        // The last two handlers in gradient-arrival order: the embedding
        // and the first block.
        let layers = &dag.spec.layers;
        let rotated: Vec<usize> = (0..layers.len())
            .filter(|&l| layers[l].moments_in_host())
            .collect();
        assert_eq!(rotated, [0, 1]);
        for layer in 0..layers.len() {
            let (write, read, cpu) = (
                task(TaskKind::OptWrite, layer),
                task(TaskKind::OptRead, layer),
                task(TaskKind::OptCpu, layer),
            );
            if rotated.contains(&layer) {
                // Out under forward, back in before the CPU step, and
                // nothing after that.
                assert_eq!(graph.deps(write), [task(TaskKind::Fwd, 0)], "L{layer}");
                assert!(reach.reaches(write, read), "L{layer}");
                assert!(graph.task_ids().all(|t| !graph.deps(t).contains(&cpu)));
            } else {
                assert!(reach.reaches(cpu, write), "L{layer}");
            }
        }
        // What rests in host memory is charged from before the step until
        // after it: the masters, and the moments the rotated handlers
        // read back.
        let at_rest = dag.report.peak(MemTier::Host).outliving;
        assert_eq!(at_rest, dag.spec.resident_host_bytes());
    }

    /// The DAG as text, task by task: its label and its dependencies'.
    fn edge_hash(dag: &StepDag) -> u64 {
        let graph = &dag.graph;
        let text: String = (graph.task_ids())
            .map(|t| {
                let deps = graph.deps(t).iter().map(|&d| label(graph, d));
                let line: Vec<String> = std::iter::once(label(graph, t)).chain(deps).collect();
                line.join(" <- ") + "\n"
            })
            .collect();
        crate::engine::checkpoint::fnv64(text.as_bytes())
    }

    #[test]
    fn nothing_rotates_under_a_host_cap_or_in_an_ablation() {
        // Edge for edge the DAGs lowered before handlers rotated.
        let capped = EngineConfig {
            host_capacity: Some(1 << 30),
            ..EngineConfig::tiny()
        };
        let ablation = |offload| EngineConfig {
            execution: ExecutionOptions::Executor(ExecutorOptions {
                offload,
                ..ExecutorOptions::default()
            }),
            ..EngineConfig::tiny()
        };
        for (config, hash) in [
            (capped, 2_734_876_050_559_202_072),
            (
                ablation(GradOffloadMode::SeparateStage),
                15_476_443_927_575_757_672,
            ),
            (
                ablation(GradOffloadMode::NaiveActive),
                9_900_543_148_539_599_945,
            ),
        ] {
            let dag = engine_dag(&config);
            assert!(dag.spec.layers.iter().all(|l| !l.moments_in_host()));
            assert_eq!(edge_hash(&dag), hash, "{:?}", config.execution);
        }
    }
}
