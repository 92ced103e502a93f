//! Builds per-layer training-iteration task graphs for the discrete-event
//! simulator.
//!
//! One generic builder serves Ratel *and* every baseline, because the
//! paper's systems differ only in placement and ordering decisions:
//! where parameters are fetched from, which activations are offloaded
//! where, whether gradients spill to SSD, where the optimizer runs, and
//! how its per-layer handlers are scheduled against backward propagation
//! (§IV-C's three modes). Each of those is a field of [`LayerTask`] /
//! [`IterationSpec`]; the builder emits the corresponding task DAG over
//! the server's five resource classes (GPU compute, PCIe G2M, PCIe M2G,
//! the simplex SSD array, CPU compute).

use ratel_model::{ModelKind, ModelProfile, ModelStates};
use ratel_sim::{
    simulate, BlobKey, BlobKind, MemTier, OpClass, ResourceClass, ResourceId, Stage, TaskGraph,
    TaskId, TaskIdentity, TaskKind, TaskMeta, VersionedBlob,
};

use crate::offload::GradOffloadMode;
use crate::planner::{SwapPlan, SwapTarget};
use crate::profile::HardwareProfile;
use crate::report::IterationReport;
use ratel_tensor::{BlockSaved, GptConfig};

/// Per-blob version counters for the builder's `ratel-verify`
/// annotations: a write bumps the counter, a read references the current
/// value. Version 0 is the pre-schedule initial state, so reading a blob
/// nobody has written yet is legal.
#[derive(Debug, Default)]
struct Annot {
    vers: std::collections::HashMap<BlobKey, u64>,
}

impl Annot {
    fn cur(&self, key: BlobKey) -> VersionedBlob {
        VersionedBlob {
            key,
            version: self.vers.get(&key).copied().unwrap_or(0),
        }
    }

    fn bump(&mut self, key: BlobKey) -> VersionedBlob {
        let v = self.vers.entry(key).or_insert(0);
        *v += 1;
        VersionedBlob { key, version: *v }
    }
}

/// The one place a task enters the graph. It stamps the micro-batch
/// being emitted on the task's identity and derives the display label
/// from it — `fwd L12`, `opt-read L7`, `act-spill L4#2` for a chunk, …
/// with an `iN ` prefix when the DAG spans several iterations, an `mN `
/// prefix when an iteration spans several micro-batches and a ` gN`
/// suffix on per-GPU tasks when it spans several GPUs — so consumers
/// dispatch on [`TaskMeta::identity`] and the label stays display-only.
struct Emitter {
    g: TaskGraph,
    multi_iteration: bool,
    multi_micro: bool,
    multi_gpu: bool,
    /// The micro-batch the tasks emitted now serve.
    micro: usize,
}

impl Emitter {
    fn task(
        &mut self,
        id: TaskIdentity,
        resource: ResourceId,
        seconds: f64,
        stage: Stage,
        deps: &[TaskId],
        mut meta: TaskMeta,
    ) -> TaskId {
        let id = TaskIdentity {
            micro: self.micro,
            ..id
        };
        let mut iter = if self.multi_iteration {
            format!("i{} ", meta.iteration)
        } else {
            String::new()
        };
        if self.multi_micro {
            iter += &format!("m{} ", id.micro);
        }
        let gpu = match id.gpu {
            Some(gi) if self.multi_gpu => format!(" g{gi}"),
            _ => String::new(),
        };
        let chunk = id.chunk.map(|c| format!("#{c}")).unwrap_or_default();
        let label = format!("{iter}{} L{}{chunk}{gpu}", id.kind.name(), id.layer);
        meta.identity = Some(id);
        let t = self
            .g
            .add_task_labeled(resource, seconds, stage, deps, label);
        self.g.set_meta(t, meta);
        t
    }
}

/// Equal chunks an SSD-bound activation blob moves in. Its swap is two
/// hops each way (GPU→host→SSD, then back); moved whole, each hop waits
/// for the previous one to finish the blob (store-and-forward, four blob
/// times from forward to backward). In chunks, hop *n+1* moves chunk *c*
/// while hop *n* moves chunk *c+1* (cut-through), and the chain fills in
/// `(hops − 1) / chunks` of a blob time — past four chunks the gain is
/// smaller than the per-task cost. Host-bound blobs make one hop each way
/// and move whole.
pub const ACT_SPILL_CHUNKS: usize = 4;

/// Where Ratel keeps a layer's model states between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The paper's: P32 + OS32 + P16 all on the SSDs. Per parameter and
    /// step the SSD link carries the P16 twice up (forward, backward),
    /// P32 + OS32 up and P32 + OS32 + a fresh P16 down — 30 bytes.
    Ssd,
    /// The f32 master resident in host memory, the moments on the SSDs:
    /// each fetch rounds the master to P16 on its way into the arena (the
    /// bits the SSD placement's write-back publishes), the handler steps
    /// the master where it lies, and only OS32 crosses the SSD link — 16
    /// bytes per parameter and step, for 4 held. (A rotated handler's
    /// moments rest in host memory too: [`LayerTask::moments_host_bytes`].)
    HostMaster,
}

/// Where a layer's fp16 parameters live between iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSource {
    /// On the SSDs (Ratel, ZeRO-Infinity, G10): fetched SSD->host->GPU.
    Ssd,
    /// In main memory (ZeRO-Offload's P16, the f32 master of a
    /// [`Placement::HostMaster`] layer): fetched host->GPU.
    Host,
    /// Resident in GPU memory (FlashNeuron, Megatron): no fetch.
    Gpu,
}

/// How (and where) the optimizer for a layer executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Out-of-core CPU Adam: read master states from SSD, update on CPU,
    /// write states + fresh P16 back (the paper's handler).
    CpuOutOfCore {
        /// Bytes read from SSD (P32+OS32 = 12 bytes/param, plus spilled
        /// gradients for ZeRO-Infinity; OS32 alone, 8, beside a
        /// host-resident master).
        read_bytes: f64,
        /// Bytes written to SSD (P32+OS32+P16 = 14 bytes/param; OS32
        /// alone, 8, beside a host-resident master).
        write_bytes: f64,
        /// Parameters updated (drives CPU time).
        cpu_params: f64,
    },
    /// CPU Adam over states resident in main memory (ZeRO-Offload): no
    /// SSD I/O, only CPU time.
    CpuInMemory {
        /// Parameters updated.
        cpu_params: f64,
    },
    /// In-GPU Adam over SSD-resident states (G10): massive transfers in
    /// both directions around a tiny GPU kernel (§III-C issue 1).
    GpuOverSsd {
        /// Bytes staged SSD->host->GPU (12 bytes/param).
        fetch_bytes: f64,
        /// Bytes staged GPU->host->SSD (14 bytes/param).
        writeback_bytes: f64,
        /// GPU FLOPs of the update kernel.
        gpu_flops: f64,
    },
    /// In-GPU Adam over GPU-resident states (FlashNeuron): just a kernel.
    GpuResident {
        /// GPU FLOPs of the update kernel.
        gpu_flops: f64,
    },
    /// The layer has no trainable parameters worth an update (tied head).
    None,
}

/// One schedulable layer of the iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTask {
    /// Display label.
    pub label: String,
    /// fp16 parameter bytes moved per fetch (2 bytes/param).
    pub p16_bytes: f64,
    /// Where the fp16 parameters are fetched from.
    pub param_source: ParamSource,
    /// Bytes of the layer's f32 master held in host memory from before
    /// the step until after it ([`Placement::HostMaster`]; 0 otherwise).
    /// Its fetches round it to P16 through a host buffer of `p16_bytes`.
    pub master_host_bytes: f64,
    /// Bytes of the layer's Adam moments held in host memory from before
    /// the step until after it, beside a host-resident master (0: they
    /// rest on the SSDs). The handler then rotates: its `opt-write`
    /// carries the moments the previous step's `opt-cpu` left in host
    /// memory out to the SSDs under forward, and its `opt-cpu` is its last
    /// task.
    pub moments_host_bytes: f64,
    /// Forward GPU FLOPs.
    pub fwd_flops: f64,
    /// Backward GPU FLOPs (2x forward + this layer's recomputation).
    pub bwd_flops: f64,
    /// Activation bytes offloaded GPU->host that stay in host memory.
    pub act_to_host_bytes: f64,
    /// Of those, the layer's input checkpoint (the inter-layer
    /// activation): a blob of its own, offloaded ahead of the rest with
    /// the first (or only) chunk.
    pub act_ckpt_bytes: f64,
    /// Activation bytes offloaded GPU->host->SSD (read back in backward).
    pub act_to_ssd_bytes: f64,
    /// Whether backward re-fetches this layer's fp16 parameters (Eq. 5's
    /// extra 2P terms). The engine stages the head only once — its
    /// forward and backward are adjacent at the loss — so a spec matching
    /// the engine sets this `false` for the head layer.
    pub refetch_in_backward: bool,
    /// fp16 gradient bytes offloaded GPU->host (0 for in-GPU optimizers).
    pub grad_bytes: f64,
    /// Whether gradients additionally spill host->SSD (ZeRO-Infinity).
    pub grad_spill_to_ssd: bool,
    /// The optimizer handler for this layer.
    pub optimizer: OptimizerKind,
}

impl LayerTask {
    /// The one emitter of Ratel's per-layer movement table: a layer of
    /// `params` parameters, `trainable_params` of which are fine-tuned
    /// (all of them for full fine-tuning, a fraction for LoRA-style
    /// adapters, 0 for a frozen layer), its states placed as `placement`
    /// says. The P16 reaches the arena for forward and again for
    /// backward — streamed from the SSDs, or rounded from the
    /// host-resident master; the trainable subset's G16 lands in host
    /// memory and its out-of-core CPU handler reads the states the SSDs
    /// hold and writes them back (with a fresh P16 where one rests
    /// there). Every bytes-per-parameter figure is Table II's
    /// ([`ModelStates::of_params`]).
    ///
    /// What the parameter counts do not decide — activation bytes,
    /// FLOPs, a layer staged only once — starts at zero (refetching on)
    /// and is set by the caller with struct-update syntax.
    pub fn ratel(
        label: impl Into<String>,
        params: f64,
        trainable_params: f64,
        placement: Placement,
    ) -> LayerTask {
        let all = ModelStates::of_params(params);
        let trained = ModelStates::of_params(trainable_params);
        let (param_source, master_host_bytes, read_bytes, write_bytes) = match placement {
            Placement::Ssd => (
                ParamSource::Ssd,
                0.0,
                trained.optimizer_read(),
                trained.optimizer_write(),
            ),
            Placement::HostMaster => (ParamSource::Host, all.p32, trained.os32, trained.os32),
        };
        LayerTask {
            label: label.into(),
            p16_bytes: all.p16,
            param_source,
            master_host_bytes,
            moments_host_bytes: 0.0,
            fwd_flops: 0.0,
            bwd_flops: 0.0,
            act_to_host_bytes: 0.0,
            act_ckpt_bytes: 0.0,
            act_to_ssd_bytes: 0.0,
            refetch_in_backward: true,
            grad_bytes: trained.g16,
            grad_spill_to_ssd: false,
            optimizer: if trainable_params > 0.0 {
                OptimizerKind::CpuOutOfCore {
                    read_bytes,
                    write_bytes,
                    cpu_params: trainable_params,
                }
            } else {
                OptimizerKind::None
            },
        }
    }

    /// Whether the layer's f32 master rests in host memory
    /// ([`Placement::HostMaster`]): its fetches round it, with no staging
    /// read before them, and its handler moves the moments only.
    pub fn master_in_host(&self) -> bool {
        self.master_host_bytes > 0.0
    }

    /// Whether the layer's moments rest in host memory between steps
    /// (see [`LayerTask::moments_host_bytes`]): its handler writes them
    /// back at the head of the step and steps them where they lie.
    pub fn moments_in_host(&self) -> bool {
        self.moments_host_bytes > 0.0
    }

    /// The chunks this layer's swapped activations move in, one task per
    /// chunk and hop: [`ACT_SPILL_CHUNKS`] of them when SSD-bound, the
    /// whole blob (`None`) when host-bound, none when nothing is swapped.
    pub fn act_chunks(&self) -> Vec<Option<usize>> {
        if self.act_to_ssd_bytes > 0.0 {
            (0..ACT_SPILL_CHUNKS).map(Some).collect()
        } else if self.act_to_host_bytes > 0.0 {
            vec![None]
        } else {
            Vec::new()
        }
    }

    /// Bytes chunk `chunk` leaves in host memory: the host-resident
    /// bytes ride with the first (or only) chunk.
    fn act_chunk_host_bytes(&self, chunk: Option<usize>) -> f64 {
        if chunk.unwrap_or(0) == 0 {
            self.act_to_host_bytes
        } else {
            0.0
        }
    }

    /// Bytes of one chunk on the SSD hops: an equal share of the
    /// SSD-bound bytes.
    fn act_chunk_ssd_bytes(&self) -> f64 {
        self.act_to_ssd_bytes / ACT_SPILL_CHUNKS as f64
    }

    /// The largest blob chunk `chunk` passes through the arena on its way
    /// down: the checkpoint, the rest of the host-resident share and the
    /// SSD-bound share are offloaded one after the other.
    fn act_chunk_arena_transit(&self, chunk: Option<usize>) -> f64 {
        let to_host = self.act_chunk_host_bytes(chunk);
        let ckpt = self.act_ckpt_bytes.min(to_host);
        ckpt.max(to_host - ckpt).max(self.act_chunk_ssd_bytes())
    }

    /// Bytes of chunk `chunk` on the PCIe hops.
    fn act_chunk_pcie_bytes(&self, chunk: Option<usize>) -> f64 {
        self.act_chunk_host_bytes(chunk) + self.act_chunk_ssd_bytes()
    }
}

/// Bytes of the blobs one layer of the executable model moves through
/// the tiers — the sizes the engine's plan, the profiler and the decode
/// path all reason about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LayerBlobs {
    /// The P16 compute copy (a G16 is as large).
    pub(crate) p16: u64,
    /// A block's input checkpoint, the inter-block A16 (0 off-block).
    pub(crate) ckpt: u64,
    /// A block's saved intra-layer activations (0 off-block).
    pub(crate) acts: u64,
}

impl LayerBlobs {
    /// The blobs of engine layer `id` of `model` (0 = embedding,
    /// 1..=L = blocks, L+1 = head).
    pub(crate) fn of(model: &GptConfig, id: usize) -> LayerBlobs {
        let states = ModelStates::of_params(model.layer_params(id) as f64);
        let a16 = |elements: usize| 2 * elements as u64;
        let is_block = (1..=model.layers).contains(&id);
        let (ckpt, acts) = if is_block {
            let saved =
                BlockSaved::element_count_for(model.batch, model.seq, model.hidden, model.heads);
            (a16(model.batch * model.seq * model.hidden), a16(saved))
        } else {
            (0, 0)
        };
        LayerBlobs {
            p16: states.p16 as u64,
            ckpt,
            acts,
        }
    }
}

/// Resource rates of the simulated server (from the profiling stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRates {
    /// GPU compute, FLOP/s.
    pub thp_gpu: f64,
    /// GPU->host PCIe, bytes/s.
    pub bw_g2m: f64,
    /// Host->GPU PCIe, bytes/s.
    pub bw_m2g: f64,
    /// SSD array read, bytes/s.
    pub ssd_read: f64,
    /// SSD array write, bytes/s.
    pub ssd_write: f64,
    /// CPU Adam, parameters/s.
    pub cpu_params_per_sec: f64,
    /// Optimizer-state I/O efficiency (chunked reads/writes reach only a
    /// fraction of sequential SSD bandwidth).
    pub state_io_efficiency: f64,
}

impl LinkRates {
    /// Every rate 1: a task's seconds are its bytes, FLOPs or parameters
    /// — for plans read for structure, not time.
    pub const UNIT: LinkRates = LinkRates {
        thp_gpu: 1.0,
        bw_g2m: 1.0,
        bw_m2g: 1.0,
        ssd_read: 1.0,
        ssd_write: 1.0,
        cpu_params_per_sec: 1.0,
        state_io_efficiency: 1.0,
    };

    /// Rates from a hardware profile.
    pub fn from_profile(p: &HardwareProfile) -> Self {
        LinkRates {
            thp_gpu: p.thp_gpu,
            bw_g2m: p.bw_gpu,
            bw_m2g: p.bw_gpu,
            ssd_read: p.bw_s2m,
            ssd_write: p.bw_m2s,
            cpu_params_per_sec: p.cpu_adam_params_per_sec,
            state_io_efficiency: p.state_io_efficiency,
        }
    }
}

/// A complete iteration to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationSpec {
    /// Layers in forward execution order.
    pub layers: Vec<LayerTask>,
    /// Gradient-offloading schedule (§IV-C).
    pub mode: GradOffloadMode,
    /// Server resource rates.
    pub rates: LinkRates,
    /// Number of data-parallel GPUs sharing the SSD array and CPU (§V-G).
    pub gpus: usize,
    /// Items (tokens or images) processed per iteration, all GPUs.
    pub items_per_iteration: f64,
    /// Fixed per-layer overhead added to each forward/backward compute
    /// task — framework hook/synchronization cost. 0 for Ratel; the
    /// DeepSpeed/Colossal baselines pay ~0.15 s per layer per stage,
    /// which is what stretches ZeRO-Infinity's 13B forward stage to ~14 s
    /// in Fig. 1a despite only ~6 s of kernel time.
    pub per_layer_overhead_seconds: f64,
    /// Micro-batches per iteration (at least 1). Each runs forward and
    /// backward in turn; its gradients are summed into a per-layer
    /// accumulator, and the optimizer handlers run after the last one.
    pub micro_batches: usize,
    /// What the iteration runs over the layers: a training step, or
    /// forward passes only.
    pub pass: Pass,
}

/// What an [`IterationSpec`] runs over its layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Training: forward, backward and the optimizer handlers.
    Step,
    /// One forward pass to the head's loss, saving nothing.
    Eval,
    /// A run of an autoregressive decode call.
    Decode(Decode),
}

impl Pass {
    /// Whether the pass fetches layer `layer`'s P16 from a pin.
    pub fn pins(&self, layer: usize) -> bool {
        matches!(self, Pass::Decode(d) if layer < d.pinned)
    }
}

/// A run of a decode call's passes — one forward pass over the layers
/// per new token, each ending in the `pick` of its token, which the next
/// pass embeds. A call runs as one or more of these in turn, so no DAG
/// grows with the tokens a call asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decode {
    /// Prompt tokens of the call.
    pub prompt: usize,
    /// Passes of the call that ran before this run's first. The first
    /// run's `pin` tasks take the call's pins; a later run finds them, and
    /// the caches, held from its first kernel on.
    pub start: usize,
    /// Passes this run runs.
    pub passes: usize,
    /// Whether this run ends the call: its last `pick` frees the pins and
    /// the caches.
    pub last: bool,
    /// Whether each block keeps a KV cache in host memory between passes
    /// (a pass then runs only the tokens no block has seen: the prompt,
    /// then each pick), or every pass runs the whole window.
    pub cached: bool,
    /// KV-cache bytes one block holds per position.
    pub kv_bytes: u64,
    /// Layers, in id order from 0, whose P16 the call holds in host
    /// memory from its first `pin` to its last `pick`.
    pub pinned: usize,
}

impl Decode {
    /// Bytes one block's KV cache holds after the call's first `passes`
    /// passes.
    fn kv_held(&self, passes: usize) -> f64 {
        match passes {
            0 => 0.0,
            _ => (self.kv_bytes * (self.prompt + passes - 1) as u64) as f64,
        }
    }
}

/// The tasks one micro-batch ran: the next micro-batch refills the slots
/// they drained.
struct MicroTasks {
    /// `fwd[gpu][layer]`: the forward kernels.
    fwd: Vec<Vec<TaskId>>,
    /// `bwd[gpu][layer]`: the backward kernels.
    bwd: Vec<Vec<TaskId>>,
    /// Its last tasks on every GPU: the gradient offloads, and the last
    /// backward kernel when the first layer has none.
    drained: Vec<TaskId>,
}

/// Resource handles of a built iteration graph.
#[derive(Debug, Clone)]
pub struct ScheduleResources {
    /// GPU compute, one per GPU.
    pub gpu: Vec<ResourceId>,
    /// GPU->host PCIe, one per GPU.
    pub g2m: Vec<ResourceId>,
    /// Host->GPU PCIe, one per GPU.
    pub m2g: Vec<ResourceId>,
    /// The shared SSD array.
    pub ssd: ResourceId,
    /// The shared CPU.
    pub cpu: ResourceId,
}

impl IterationSpec {
    /// Per-route planned bytes of one iteration, indexed like
    /// `ratel_storage::Route::ALL` (GPU→host, host→GPU, host→SSD,
    /// SSD→host).
    ///
    /// Per micro-batch (or pass), fp16 parameters stage SSD→host→GPU
    /// (one count on each hop, twice for refetched layers of a step;
    /// host-sourced ones skip the SSD hop, GPU-resident ones both, a
    /// pinned one crosses the SSD link in a call's first run only), a
    /// step's activations round-trip GPU→host→GPU (plus the SSD spill
    /// when planned) and its gradients land GPU→host, and a cached
    /// decode's KV caches leave the arena after every pass and come back
    /// before every pass but the call's first; once per step,
    /// out-of-core optimizer state I/O is SSD-only. This is the byte
    /// ledger both `ratel-bench validate` and the plan-conformance
    /// monitor hold the engine's measured traffic against — *exactly*,
    /// since plan and engine derive from the same blob inventory.
    pub fn planned_route_bytes(&self) -> [u64; 4] {
        let mut g2h = 0.0;
        let mut h2g = 0.0;
        let mut h2s = 0.0;
        let mut s2h = 0.0;
        let training = self.pass == Pass::Step;
        let micro = self.rounds() as f64;
        for (li, layer) in self.layers.iter().enumerate() {
            let refetched = layer.refetch_in_backward && training;
            let stages = micro * if refetched { 2.0 } else { 1.0 };
            let reads = match self.pass {
                Pass::Decode(d) if self.pass.pins(li) => (d.start == 0) as u8 as f64,
                _ => stages,
            };
            match layer.param_source {
                ParamSource::Ssd => {
                    s2h += layer.p16_bytes * reads;
                    h2g += layer.p16_bytes * stages;
                }
                ParamSource::Host => h2g += layer.p16_bytes * stages,
                ParamSource::Gpu => {}
            }
            if !training {
                continue;
            }
            let act = micro * (layer.act_to_host_bytes + layer.act_to_ssd_bytes);
            g2h += act + micro * layer.grad_bytes;
            h2g += act;
            h2s += micro * layer.act_to_ssd_bytes;
            s2h += micro * layer.act_to_ssd_bytes;
            if let OptimizerKind::CpuOutOfCore {
                read_bytes,
                write_bytes,
                ..
            } = layer.optimizer
            {
                s2h += read_bytes;
                h2s += write_bytes;
            }
        }
        if let Pass::Decode(d @ Decode { cached: true, .. }) = self.pass {
            let blocks = (self.layers.len() - 2) as f64;
            for t in d.start..d.start + d.passes {
                g2h += blocks * d.kv_held(t + 1);
                h2g += blocks * d.kv_held(t);
            }
        }
        [g2h as u64, h2g as u64, h2s as u64, s2h as u64]
    }

    /// Rounds of forward (and backward) an iteration runs in turn: its
    /// micro-batches, or a decode run's passes.
    fn rounds(&self) -> usize {
        match self.pass {
            Pass::Decode(d) => d.passes,
            _ => self.micro_batches,
        }
    }

    /// Host bytes the plan keeps resident from before the step until
    /// after it: the f32 masters of its [`Placement::HostMaster`] layers
    /// and the moments its rotated handlers step where they lie.
    pub fn resident_host_bytes(&self) -> f64 {
        (self.layers.iter())
            .map(|l| l.master_host_bytes + l.moments_host_bytes)
            .sum()
    }

    /// Builds the task DAG for one iteration. Returns the graph, its
    /// resources, and the total GPU FLOPs scheduled (for TFLOPS
    /// reporting).
    pub fn build(&self) -> (TaskGraph, ScheduleResources, f64) {
        self.build_iterations(1)
    }

    /// Builds `iterations` back-to-back training iterations in one DAG,
    /// with the synchronous-update dependency between them: iteration
    /// k+1 may not fetch a layer's P16 until iteration k's optimizer
    /// handler has written it back. This exposes the steady-state
    /// pipelining (activation tails and prefetches of adjacent
    /// iterations overlap) while keeping the paper's no-staleness
    /// semantics.
    ///
    /// Within an iteration the micro-batches run in turn (forward, then
    /// backward) on one compute stream, and each refills the slots the
    /// previous one drained only after it drained them: a pass's staged
    /// P16, a layer's gradient slot. A trained layer's `grad-off` creates
    /// its f32 accumulator in the first micro-batch, adds into it in the
    /// middle ones and, in the last, merges and averages it into the G16
    /// its handler reads — one chain in micro-batch order, so the sum is
    /// `f16(mean_i(f16(g_i)))` bit for bit.
    ///
    /// A forward [`Pass`] runs the same forward half, saving nothing,
    /// once (an eval, whose head computes the loss) or once per new token
    /// (a decode run): a cached decode brings each block's KV cache up
    /// before its kernel and offloads it after, and each pass ends in the
    /// `pick` the next pass's first kernel waits for. A call's pins are
    /// its first run's sources; a later run charges them, and the caches,
    /// on its first kernel; the call's last `pick` is the sink that frees
    /// them.
    pub fn build_iterations(&self, iterations: usize) -> (TaskGraph, ScheduleResources, f64) {
        assert!(self.gpus >= 1, "need at least one GPU");
        assert!(iterations >= 1, "need at least one iteration");
        assert!(self.micro_batches >= 1, "need at least one micro-batch");
        let training = self.pass == Pass::Step;
        assert!(training || (iterations, self.gpus) == (1, 1));
        let r = &self.rates;
        let mut g = TaskGraph::new();
        let gpu: Vec<ResourceId> = (0..self.gpus)
            .map(|i| g.add_resource(format!("gpu{i}")))
            .collect();
        let g2m: Vec<ResourceId> = (0..self.gpus)
            .map(|i| g.add_resource(format!("pcie-g2m{i}")))
            .collect();
        let m2g: Vec<ResourceId> = (0..self.gpus)
            .map(|i| g.add_resource(format!("pcie-m2g{i}")))
            .collect();
        let ssd = g.add_resource("ssd");
        let cpu = g.add_resource("cpu");
        // Framework hook/staging stalls serialize with the compute chain
        // but do not occupy the GPU's execution units, so they live on
        // their own per-GPU resource and stay out of GPU-busy accounting.
        let stall: Vec<ResourceId> = (0..self.gpus)
            .map(|i| g.add_resource(format!("stall{i}")))
            .collect();
        for &res in &gpu {
            g.set_resource_class(res, ResourceClass::GpuCompute);
        }
        for &res in &g2m {
            g.set_resource_class(res, ResourceClass::PcieG2M);
        }
        for &res in &m2g {
            g.set_resource_class(res, ResourceClass::PcieM2G);
        }
        g.set_resource_class(ssd, ResourceClass::SsdArray);
        g.set_resource_class(cpu, ResourceClass::CpuCompute);
        for &res in &stall {
            g.set_resource_class(res, ResourceClass::Overhead);
        }
        let mut em = Emitter {
            g,
            multi_iteration: iterations > 1,
            multi_micro: self.rounds() > 1,
            multi_gpu: self.gpus > 1,
            micro: 0,
        };
        // Blob/version annotations for the static analyzer.
        let mut an = Annot::default();

        let n = self.layers.len();
        let decode = match self.pass {
            Pass::Decode(d) => Some(d),
            _ => None,
        };
        let pin_key = |li| BlobKey::shared(BlobKind::P16Pinned, li);
        let taken = decode.filter(|d| d.start == 0).map_or(0, |d| d.pinned);
        let pins: Vec<TaskId> = (0..taken)
            .map(|li| {
                // Copied from the SSDs, or rounded from a resident master.
                let p16 = self.layers[li].p16_bytes;
                let (resource, op, seconds, src) = match self.layers[li].param_source {
                    ParamSource::Ssd => {
                        (ssd, OpClass::SsdRead, p16 / r.ssd_read, BlobKind::Param16)
                    }
                    _ => (
                        cpu,
                        OpClass::CpuCompute,
                        p16 / 2.0 / r.cpu_params_per_sec,
                        BlobKind::Master,
                    ),
                };
                let meta = TaskMeta::new(op, 0)
                    .read(an.cur(BlobKey::shared(src, li)))
                    .write(an.bump(pin_key(li)))
                    .alloc(MemTier::Host, pin_key(li), p16);
                let id = TaskIdentity::shared(TaskKind::Pin, li);
                em.task(id, resource, seconds, Stage::Forward, &[], meta)
            })
            .collect();
        let mut kv_offs: Vec<Option<TaskId>> = vec![None; n];
        let mut total_gpu_flops = 0.0;
        // Per-layer optimizer write-back of the previous iteration (the
        // cross-iteration synchronization point).
        let mut prev_updates: Vec<Option<TaskId>> = vec![None; n];

        let mut this_updates: Vec<Option<TaskId>> = vec![None; n];
        // The iteration's first forward kernel: where handlers whose
        // moments rest in host memory write them back.
        let mut iteration_head: Option<TaskId> = None;
        // What the previous micro-batch of this iteration ran, per GPU
        // and layer: the slots it drained are the ones this one fills.
        let mut prev: Option<MicroTasks> = None;

        let micro_batches = self.rounds();
        for (iter, micro) in (0..iterations).flat_map(|i| (0..micro_batches).map(move |m| (i, m))) {
            em.micro = micro;
            let last = micro + 1 == micro_batches;
            if micro == 0 {
                (iteration_head, prev) = (None, None);
            }
            // ----- Forward -----
            // fwd[gpu][layer]
            let mut fwd: Vec<Vec<TaskId>> = vec![Vec::with_capacity(n); self.gpus];
            // Activation offload tasks, for backward-fetch dependencies:
            // act_offloaded[gpu][layer] = G2M offloads, act_spilled[gpu][layer]
            // = SSD writes, one per chunk in `LayerTask::act_chunks` order.
            let mut act_offloaded: Vec<Vec<Vec<TaskId>>> = vec![vec![Vec::new(); n]; self.gpus];
            let mut act_spilled: Vec<Vec<Vec<TaskId>>> = vec![vec![Vec::new(); n]; self.gpus];
            for (li, layer) in self.layers.iter().enumerate() {
                // Parameter fetch: one SSD read staged to host, then a
                // per-GPU host->GPU copy — after the previous
                // micro-batch consumed the copy it staged. One compute
                // stream: a micro-batch starts, first layer first, once
                // the previous one drained (its gradients left the arena
                // and the slots this one's backward fills).
                let updated: Vec<TaskId> = prev_updates[li].into_iter().collect();
                let mut refill = updated.clone();
                match &prev {
                    Some(p) if li == 0 && training => refill.extend(&p.drained),
                    Some(p) => {
                        let consumers = if layer.refetch_in_backward || !training {
                            &p.fwd
                        } else {
                            &p.bwd
                        };
                        refill.extend(consumers.iter().map(|c| c[li]));
                    }
                    None => {}
                }
                let p16_key = BlobKey::shared(BlobKind::Param16, li);
                let host_ready =
                    self.stage_read(&mut em, &mut an, ssd, Stage::Forward, li, iter, &refill);
                // A staged read already waits for the refill.
                let fetch_after = host_ready.map_or(&refill, |_| &updated);
                // A cached decode's block brings its KV cache up first.
                let kv_key = BlobKey::shared(BlobKind::Kv, li);
                let cache = decode.filter(|d| d.cached && (1..n - 1).contains(&li));
                for gi in 0..self.gpus {
                    let param_gpu_key = BlobKey::on_gpu(BlobKind::P16Fwd, li, gi);
                    let source = host_ready.or(pins.get(li).copied());
                    let staged = (Stage::Forward, source, &fetch_after[..]);
                    let fetch = self.stage_fetch(&mut em, &mut an, m2g[gi], staged, li, gi, iter);
                    let kv_up = cache.filter(|d| d.start + micro > 0).map(|d| {
                        let held = d.kv_held(d.start + micro);
                        // After the offload that left the cache, or the
                        // first kernel, where a later run charges it.
                        let after = kv_offs[li].unwrap_or(fwd[gi][0]);
                        em.task(
                            TaskIdentity::on_gpu(TaskKind::KvUp, li, gi),
                            m2g[gi],
                            held / r.bw_m2g,
                            Stage::Forward,
                            &[after],
                            TaskMeta::new(OpClass::TransferM2G, iter)
                                .read(an.cur(kv_key))
                                .write(an.bump(kv_key))
                                .free(MemTier::Host, kv_key)
                                .alloc(MemTier::Gpu, kv_key, held),
                        )
                    });
                    let mut deps: Vec<TaskId> = fetch.into_iter().chain(kv_up).collect();
                    if fetch.is_none() {
                        // GPU-resident parameters: compute still waits for the
                        // previous iteration's in-place update.
                        deps.extend(updated.iter().copied());
                    }
                    if li > 0 {
                        deps.push(fwd[gi][li - 1]);
                    } else if let Some(p) = prev.as_ref().filter(|_| fetch.is_none() || !training) {
                        // A decode pass embeds the token the last one picked.
                        deps.extend(&p.drained);
                    }
                    let deps = if self.per_layer_overhead_seconds > 0.0 {
                        vec![em.task(
                            TaskIdentity::on_gpu(TaskKind::FwdHook, li, gi),
                            stall[gi],
                            self.per_layer_overhead_seconds,
                            Stage::Forward,
                            &deps,
                            TaskMeta::new(OpClass::Hook, iter),
                        )]
                    } else {
                        deps
                    };
                    let act_bytes = layer.act_to_host_bytes + layer.act_to_ssd_bytes;
                    let act_key = BlobKey::on_gpu(BlobKind::Act, li, gi);
                    let mut meta = TaskMeta::new(OpClass::GpuCompute, iter);
                    match layer.param_source {
                        // GPU-resident parameters are read in place.
                        ParamSource::Gpu => meta = meta.read(an.cur(p16_key)),
                        // The kernel consumes the fetched copy: its arena
                        // residency ends here.
                        _ if fetch.is_some() => {
                            meta = meta
                                .read(an.cur(param_gpu_key))
                                .free(MemTier::Gpu, param_gpu_key)
                        }
                        _ => {}
                    }
                    if li > 0 {
                        meta = meta.read(an.cur(BlobKey::on_gpu(BlobKind::Flow, li - 1, gi)));
                    }
                    meta = meta.write(an.bump(BlobKey::on_gpu(BlobKind::Flow, li, gi)));
                    if act_bytes > 0.0 && training {
                        meta = meta.write(an.bump(act_key));
                    }
                    if kv_up.is_some() {
                        meta = meta.read(an.cur(kv_key)).free(MemTier::Gpu, kv_key);
                    }
                    if cache.is_some() {
                        meta = meta.write(an.bump(kv_key));
                    }
                    if (iter, micro, li, gi) == (0, 0, 0, 0) {
                        // Host-resident masters are there before the
                        // first kernel and after the last: charged on
                        // the head of the compute chain, never freed.
                        // So are moments resting in host memory, until
                        // their handler's write-back frees them.
                        for (resident, layer) in self.layers.iter().enumerate() {
                            let master = BlobKey::shared(BlobKind::Master, resident);
                            let moments = BlobKey::shared(BlobKind::StageOpt, resident);
                            meta = meta
                                .alloc(MemTier::Host, master, layer.master_host_bytes)
                                .alloc(MemTier::Host, moments, layer.moments_host_bytes);
                        }
                        // So are the pins and caches a decode call's
                        // earlier runs left.
                        if let Some(d) = decode.filter(|d| d.start > 0) {
                            for (held, layer) in self.layers.iter().enumerate().take(d.pinned) {
                                meta = meta.alloc(MemTier::Host, pin_key(held), layer.p16_bytes);
                            }
                            for block in (1..n - 1).filter(|_| d.cached) {
                                let kv = BlobKey::shared(BlobKind::Kv, block);
                                meta = meta.alloc(MemTier::Host, kv, d.kv_held(d.start));
                            }
                        }
                    }
                    let f = em.task(
                        TaskIdentity::on_gpu(TaskKind::Fwd, li, gi),
                        gpu[gi],
                        layer.fwd_flops / r.thp_gpu,
                        Stage::Forward,
                        &deps,
                        meta,
                    );
                    total_gpu_flops += layer.fwd_flops;
                    fwd[gi].push(f);
                    if let Some(d) = cache {
                        let held = d.kv_held(d.start + micro + 1);
                        kv_offs[li] = Some(
                            em.task(
                                TaskIdentity::on_gpu(TaskKind::KvOff, li, gi),
                                g2m[gi],
                                held / r.bw_g2m,
                                Stage::Forward,
                                &[f],
                                TaskMeta::new(OpClass::TransferG2M, iter)
                                    .read(an.cur(kv_key))
                                    .write(an.bump(kv_key))
                                    .transit(MemTier::Gpu, kv_key, held)
                                    .alloc(MemTier::Host, kv_key, held),
                            ),
                        );
                    }

                    // Activation offload (host-resident + SSD-spilled share the
                    // same G2M hop; the spill continues to the SSDs), one
                    // independent chain per chunk: a chunk's spill waits
                    // for that chunk's offload only.
                    let produced = an.cur(act_key);
                    for chunk in layer.act_chunks().into_iter().filter(|_| training) {
                        let key = act_key.chunk(chunk);
                        // The chunk passes through the arena on its way
                        // down; its SSD-bound share waits in host memory
                        // for its spill.
                        let in_transit = BlobKey {
                            kind: BlobKind::Stage,
                            ..key
                        };
                        let to_ssd = layer.act_chunk_ssd_bytes();
                        let off = em.task(
                            TaskIdentity::on_gpu(TaskKind::ActOff, li, gi).chunk(chunk),
                            g2m[gi],
                            layer.act_chunk_pcie_bytes(chunk) / r.bw_g2m,
                            Stage::Forward,
                            &[f],
                            TaskMeta::new(OpClass::TransferG2M, iter)
                                .read(produced)
                                .write(an.bump(key))
                                .transit(MemTier::Gpu, key, layer.act_chunk_arena_transit(chunk))
                                .alloc(MemTier::Host, key, layer.act_chunk_host_bytes(chunk))
                                .alloc(MemTier::Host, in_transit, to_ssd),
                        );
                        act_offloaded[gi][li].push(off);
                        if layer.act_to_ssd_bytes > 0.0 {
                            let spill = em.task(
                                TaskIdentity::on_gpu(TaskKind::ActSpill, li, gi).chunk(chunk),
                                ssd,
                                layer.act_chunk_ssd_bytes() / r.ssd_write,
                                Stage::Forward,
                                &[off],
                                TaskMeta::new(OpClass::SsdWrite, iter)
                                    .read(an.cur(key))
                                    .write(an.bump(key))
                                    .alloc(MemTier::Ssd, key, to_ssd)
                                    .free(MemTier::Host, in_transit),
                            );
                            act_spilled[gi][li].push(spill);
                        }
                    }
                }
            }

            if !training {
                // Decode passes end in the pick of their token, on the
                // device that holds the logits.
                let drained: Vec<TaskId> = (decode.iter())
                    .map(|d| {
                        let mut deps = vec![fwd[0][n - 1]];
                        let head = BlobKey::on_gpu(BlobKind::Flow, n - 1, 0);
                        let mut meta = TaskMeta::new(OpClass::GpuCompute, 0).read(an.cur(head));
                        if last && d.last {
                            deps.extend(kv_offs.iter().flatten());
                            for li in 0..d.pinned {
                                meta = meta.free(MemTier::Host, pin_key(li));
                            }
                            for li in (0..n).filter(|&li| kv_offs[li].is_some()) {
                                meta = meta.free(MemTier::Host, BlobKey::shared(BlobKind::Kv, li));
                            }
                        }
                        let id = TaskIdentity::shared(TaskKind::Pick, n - 1);
                        em.task(id, gpu[0], 0.0, Stage::Forward, &deps, meta)
                    })
                    .collect();
                let bwd = Vec::new();
                prev = Some(MicroTasks { fwd, bwd, drained });
                continue;
            }
            let head = *iteration_head.get_or_insert(fwd[0][0]);

            // ----- Backward (+ optimizer handlers after the last micro-batch) -----
            // Backward starts at the loss: it depends on the last forward task.
            let mut prev_bwd: Vec<Option<TaskId>> =
                (0..self.gpus).map(|gi| fwd[gi].last().copied()).collect();
            let mut bwd: Vec<Vec<TaskId>> = vec![vec![TaskId(0); n]; self.gpus];
            let mut drained: Vec<TaskId> = Vec::new();
            let mut last_grad_landed: Vec<TaskId> = Vec::new();
            // Handler chaining state for the §IV-C modes.
            let mut prev_handler_write: Option<TaskId> = None; // naive: full serialization
            let mut prev_handler_read: Option<TaskId> = None; // optimized: write after prev read
            let mut deferred: Vec<(usize, Vec<TaskId>)> = Vec::new(); // separate stage

            for li in (0..self.layers.len()).rev() {
                let layer = &self.layers[li];
                let mut grad_ready_all: Vec<TaskId> = Vec::new();
                // Refetch parameters for backward (Eq. 5's extra 2P terms):
                // like the forward fetch, one SSD read stages the layer to
                // host memory and every GPU copies from that staging buffer —
                // the SSD traffic must not scale with the GPU count. The
                // refetch reads what the *previous* iteration's handler wrote
                // back, so it also waits on that write (no staleness), and
                // after the previous micro-batch's backward took its copy.
                let updated: Vec<TaskId> = prev_updates[li].into_iter().collect();
                let mut refill = updated.clone();
                if let Some(p) = &prev {
                    refill.extend(p.bwd.iter().map(|b| b[li]));
                }
                let p16_key = BlobKey::shared(BlobKind::Param16, li);
                let refetch = layer.refetch_in_backward;
                let host_ready = refetch
                    .then(|| {
                        self.stage_read(&mut em, &mut an, ssd, Stage::Backward, li, iter, &refill)
                    })
                    .flatten();
                // A staged read already waits for the refill.
                let fetch_after = host_ready.map_or(&refill, |_| &updated);
                for gi in 0..self.gpus {
                    let param_gpu_key = if refetch {
                        BlobKey::on_gpu(BlobKind::P16Bwd, li, gi)
                    } else {
                        BlobKey::on_gpu(BlobKind::P16Fwd, li, gi)
                    };
                    let staged = (Stage::Backward, host_ready, &fetch_after[..]);
                    let fetch_p = refetch
                        .then(|| self.stage_fetch(&mut em, &mut an, m2g[gi], staged, li, gi, iter))
                        .flatten();
                    // Fetch swapped activations back (SSD spill first).
                    // Each chunk comes back along its own chain (SSD read,
                    // then the M2G hop into the arena, where it stays
                    // until the backward kernel consumes it).
                    let act_key = BlobKey::on_gpu(BlobKind::Act, li, gi);
                    let mut act_ups: Vec<TaskId> = Vec::new();
                    let act_chunks = layer.act_chunks();
                    for (c, &chunk) in act_chunks.iter().enumerate() {
                        let key = act_key.chunk(chunk);
                        let in_transit = BlobKey {
                            kind: BlobKind::Stage,
                            ..key
                        };
                        // The spill must have been written before it can be
                        // read back.
                        let ssd_read = act_spilled[gi][li].get(c).map(|&spill| {
                            em.task(
                                TaskIdentity::on_gpu(TaskKind::ActLoad, li, gi).chunk(chunk),
                                ssd,
                                layer.act_chunk_ssd_bytes() / r.ssd_read,
                                Stage::Backward,
                                &[spill],
                                TaskMeta::new(OpClass::SsdRead, iter)
                                    .read(an.cur(key))
                                    .write(an.bump(key))
                                    .alloc(MemTier::Host, in_transit, layer.act_chunk_ssd_bytes())
                                    .free(MemTier::Ssd, key),
                            )
                        });
                        let mut deps: Vec<TaskId> = ssd_read.into_iter().collect();
                        deps.push(act_offloaded[gi][li][c]);
                        let mut meta = TaskMeta::new(OpClass::TransferM2G, iter)
                            .read(an.cur(key))
                            .write(an.bump(key))
                            .alloc(MemTier::Gpu, key, layer.act_chunk_pcie_bytes(chunk));
                        if layer.act_chunk_host_bytes(chunk) > 0.0 {
                            meta = meta.free(MemTier::Host, key);
                        }
                        if ssd_read.is_some() {
                            meta = meta.free(MemTier::Host, in_transit);
                        }
                        act_ups.push(em.task(
                            TaskIdentity::on_gpu(TaskKind::ActUp, li, gi).chunk(chunk),
                            m2g[gi],
                            layer.act_chunk_pcie_bytes(chunk) / r.bw_m2g,
                            Stage::Backward,
                            &deps,
                            meta,
                        ));
                    }

                    let mut deps: Vec<TaskId> = Vec::new();
                    deps.extend(fetch_p);
                    deps.extend(act_ups);
                    deps.extend(prev_bwd[gi]);
                    let deps = if self.per_layer_overhead_seconds > 0.0 {
                        vec![em.task(
                            TaskIdentity::on_gpu(TaskKind::BwdHook, li, gi),
                            stall[gi],
                            self.per_layer_overhead_seconds,
                            Stage::Backward,
                            &deps,
                            TaskMeta::new(OpClass::Hook, iter),
                        )]
                    } else {
                        deps
                    };
                    let mut meta = TaskMeta::new(OpClass::GpuCompute, iter);
                    match layer.param_source {
                        ParamSource::Gpu => meta = meta.read(an.cur(p16_key)),
                        // Refetched layers read (and release) the backward
                        // copy; the head (staged once) reuses the forward
                        // copy.
                        _ if layer.p16_bytes > 0.0 => {
                            meta = meta.read(an.cur(param_gpu_key));
                            if fetch_p.is_some() {
                                meta = meta.free(MemTier::Gpu, param_gpu_key);
                            }
                        }
                        _ => {}
                    }
                    for &chunk in &act_chunks {
                        let key = act_key.chunk(chunk);
                        meta = meta.read(an.cur(key)).free(MemTier::Gpu, key);
                    }
                    meta = if li + 1 < n {
                        meta.read(an.cur(BlobKey::on_gpu(BlobKind::FlowGrad, li + 1, gi)))
                    } else {
                        // The loss gradient descends from the last
                        // forward hidden state.
                        meta.read(an.cur(BlobKey::on_gpu(BlobKind::Flow, li, gi)))
                    };
                    meta = meta.write(an.bump(BlobKey::on_gpu(BlobKind::FlowGrad, li, gi)));
                    if layer.grad_bytes > 0.0 {
                        meta = meta.write(an.bump(BlobKey::on_gpu(BlobKind::Grad, li, gi)));
                    }
                    let b = em.task(
                        TaskIdentity::on_gpu(TaskKind::Bwd, li, gi),
                        gpu[gi],
                        layer.bwd_flops / r.thp_gpu,
                        Stage::Backward,
                        &deps,
                        meta,
                    );
                    total_gpu_flops += layer.bwd_flops;
                    prev_bwd[gi] = Some(b);
                    bwd[gi][li] = b;

                    // Gradient offload GPU->host, along the accumulator
                    // chain when several micro-batches sum into it.
                    if layer.grad_bytes > 0.0 {
                        let grad_key = BlobKey::on_gpu(BlobKind::Grad, li, gi);
                        let sum = BlobKey::on_gpu(BlobKind::GradReduced, li, gi);
                        let mut meta = TaskMeta::new(OpClass::TransferG2M, iter)
                            .read(an.cur(grad_key))
                            .transit(MemTier::Gpu, grad_key, layer.grad_bytes);
                        if micro > 0 {
                            meta = meta.read(an.cur(sum));
                        }
                        if last {
                            if micro > 0 {
                                meta = meta.free(MemTier::Host, sum);
                            }
                            meta = (meta.write(an.bump(grad_key))).alloc(
                                MemTier::Host,
                                grad_key,
                                layer.grad_bytes,
                            );
                        } else {
                            meta = (meta.write(an.bump(sum))).transit(
                                MemTier::Host,
                                grad_key,
                                layer.grad_bytes,
                            );
                            if micro == 0 {
                                meta = meta.alloc(MemTier::Host, sum, 2.0 * layer.grad_bytes);
                            }
                        }
                        let go = em.task(
                            TaskIdentity::on_gpu(TaskKind::GradOff, li, gi),
                            g2m[gi],
                            layer.grad_bytes / r.bw_g2m,
                            Stage::Backward,
                            &[b],
                            meta,
                        );
                        drained.push(go);
                        let landed = if layer.grad_spill_to_ssd && last {
                            em.task(
                                TaskIdentity::on_gpu(TaskKind::GradSpill, li, gi),
                                ssd,
                                layer.grad_bytes / r.ssd_write,
                                Stage::Backward,
                                &[go],
                                TaskMeta::new(OpClass::SsdWrite, iter)
                                    .read(an.cur(grad_key))
                                    .write(an.bump(grad_key))
                                    .alloc(MemTier::Ssd, grad_key, layer.grad_bytes)
                                    .free(MemTier::Host, grad_key),
                            )
                        } else {
                            go
                        };
                        grad_ready_all.push(landed);
                        last_grad_landed.push(landed);
                    } else {
                        grad_ready_all.push(b);
                        last_grad_landed.push(b);
                    }
                }
                if !last {
                    continue;
                }

                // Multi-GPU gradient reduction on the CPU before the handler.
                let handler_input: Vec<TaskId> = if self.gpus > 1 && layer.grad_bytes > 0.0 {
                    let reduce_params = layer.grad_bytes / 2.0 * (self.gpus as f64 - 1.0);
                    let mut meta = TaskMeta::new(OpClass::CpuCompute, iter);
                    for gi in 0..self.gpus {
                        meta = meta.read(an.cur(BlobKey::on_gpu(BlobKind::Grad, li, gi)));
                    }
                    meta = meta.write(an.bump(BlobKey::shared(BlobKind::GradReduced, li)));
                    meta = self.host_grad_consumed(meta, li, true);
                    vec![em.task(
                        TaskIdentity::shared(TaskKind::Reduce, li),
                        cpu,
                        reduce_params / (4.0 * r.cpu_params_per_sec),
                        Stage::Backward,
                        &grad_ready_all,
                        meta,
                    )]
                } else {
                    grad_ready_all.clone()
                };

                match self.mode {
                    GradOffloadMode::SeparateStage => {
                        deferred.push((li, handler_input));
                    }
                    GradOffloadMode::NaiveActive | GradOffloadMode::OptimizedActive => {
                        let (read, write) = self.add_handler(
                            &mut em,
                            ssd,
                            cpu,
                            gpu[0],
                            &g2m[0],
                            &m2g[0],
                            head,
                            li,
                            &handler_input,
                            prev_updates[li],
                            prev_handler_write,
                            prev_handler_read,
                            Stage::Backward,
                            iter,
                            &mut an,
                        );
                        prev_handler_read = read;
                        prev_handler_write = write;
                        this_updates[li] = write;
                    }
                }
            }

            // ----- Separate optimizer stage (barrier after backward) -----
            if self.mode == GradOffloadMode::SeparateStage && last {
                let barrier = last_grad_landed;
                let mut prev_write: Option<TaskId> = None;
                let mut prev_read: Option<TaskId> = None;
                for (li, mut inputs) in deferred {
                    inputs.extend(barrier.iter().copied());
                    let (read, write) = self.add_handler(
                        &mut em,
                        ssd,
                        cpu,
                        gpu[0],
                        &g2m[0],
                        &m2g[0],
                        head,
                        li,
                        &inputs,
                        prev_updates[li],
                        prev_write,
                        prev_read,
                        Stage::Optimizer,
                        iter,
                        &mut an,
                    );
                    // The separate stage serializes each chunk's read ->
                    // compute -> write like DeepSpeed's synchronous swapper;
                    // only the *optimized* active mode pipelines them.
                    prev_read = read;
                    prev_write = write;
                    this_updates[li] = write;
                }
            }
            if self.layers[0].grad_bytes == 0.0 {
                drained.extend(bwd.iter().map(|b| b[0]));
            }
            prev = Some(MicroTasks { fwd, bwd, drained });
            if last {
                prev_updates = std::mem::replace(&mut this_updates, vec![None; n]);
            }
        } // per-micro-batch loop
        let _ = prev_updates;
        let g = em.g;

        // Debug builds statically verify every schedule they emit: any
        // staleness, use-before-fetch, WAR, residency-bookkeeping, or
        // resource-legality defect aborts before the simulator can
        // launder it into a plausible-looking timeline.
        #[cfg(debug_assertions)]
        {
            let report = ratel_verify::verify(&g, &ratel_verify::Limits::none());
            if !report.is_clean() {
                panic!(
                    "emitted schedule fails static verification:\n{}",
                    report.render()
                );
            }
        }

        (
            g,
            ScheduleResources {
                gpu,
                g2m,
                m2g,
                ssd,
                cpu,
            },
            total_gpu_flops,
        )
    }

    /// Statically verifies the schedule this spec lowers to, over
    /// `iterations` back-to-back iterations, against the given residency
    /// budgets. See the `ratel-verify` crate for the pass inventory.
    pub fn verify(
        &self,
        iterations: usize,
        limits: &ratel_verify::Limits,
    ) -> ratel_verify::VerifyReport {
        let (g, _, _) = self.build_iterations(iterations);
        ratel_verify::verify(&g, limits)
    }

    /// One pass's SSD read of layer `li`'s P16 into the host staging
    /// buffer every GPU then copies from — SSD-resident parameters only,
    /// so the SSD traffic does not scale with the GPU count.
    #[allow(clippy::too_many_arguments)]
    fn stage_read(
        &self,
        em: &mut Emitter,
        an: &mut Annot,
        ssd: ResourceId,
        pass: Stage,
        li: usize,
        iter: usize,
        updated: &[TaskId],
    ) -> Option<TaskId> {
        let layer = &self.layers[li];
        let (kind, stage_key) = match pass {
            Stage::Forward => (TaskKind::FwdRead, BlobKey::shared(BlobKind::P16Fwd, li)),
            _ => (TaskKind::BwdRead, BlobKey::shared(BlobKind::P16Bwd, li)),
        };
        let staged = layer.param_source == ParamSource::Ssd && !self.pass.pins(li);
        (staged && layer.p16_bytes > 0.0).then(|| {
            em.task(
                TaskIdentity::shared(kind, li),
                ssd,
                layer.p16_bytes / self.rates.ssd_read,
                pass,
                updated,
                TaskMeta::new(OpClass::SsdRead, iter)
                    .read(an.cur(BlobKey::shared(BlobKind::Param16, li)))
                    .write(an.bump(stage_key))
                    .alloc(MemTier::Host, stage_key, layer.p16_bytes),
            )
        })
    }

    /// One GPU's copy of layer `li`'s P16 into its arena for the pass
    /// `staged` names, after that pass's staging read or pin (if any)
    /// and the previous iteration's update. A pinned layer's fetch copies
    /// its pin; SSD-sourced fetches copy from the staging buffer the
    /// shared read filled — released with the last GPU's copy;
    /// host-sourced fetches read the persistent host copy (a resident
    /// f32 master through a P16-sized host buffer).
    #[allow(clippy::too_many_arguments)]
    fn stage_fetch(
        &self,
        em: &mut Emitter,
        an: &mut Annot,
        m2g: ResourceId,
        (pass, host_ready, updated): (Stage, Option<TaskId>, &[TaskId]),
        li: usize,
        gi: usize,
        iter: usize,
    ) -> Option<TaskId> {
        let layer = &self.layers[li];
        if layer.param_source == ParamSource::Gpu || layer.p16_bytes <= 0.0 {
            return None;
        }
        let (kind, staged) = match pass {
            Stage::Forward => (TaskKind::FwdFetch, BlobKind::P16Fwd),
            _ => (TaskKind::BwdFetch, BlobKind::P16Bwd),
        };
        let stage_key = BlobKey::shared(staged, li);
        let param_gpu_key = BlobKey::on_gpu(staged, li, gi);
        let pinned = self.pass.pins(li);
        let src = match layer.param_source {
            _ if pinned => an.cur(BlobKey::shared(BlobKind::P16Pinned, li)),
            ParamSource::Ssd => an.cur(stage_key),
            _ => an.cur(BlobKey::shared(BlobKind::Param16, li)),
        };
        let mut meta = TaskMeta::new(OpClass::TransferM2G, iter)
            .read(src)
            .write(an.bump(param_gpu_key))
            .alloc(MemTier::Gpu, param_gpu_key, layer.p16_bytes);
        if host_ready.is_some() && gi + 1 == self.gpus && !pinned {
            meta = meta.free(MemTier::Host, stage_key);
        }
        if layer.master_in_host() && !pinned {
            // The P16 is rounded from the resident master into a host
            // buffer that this copy carries into the arena.
            meta = meta.transit(MemTier::Host, stage_key, layer.p16_bytes);
        }
        let deps: Vec<TaskId> = host_ready
            .into_iter()
            .chain(updated.iter().copied())
            .collect();
        Some(em.task(
            TaskIdentity::on_gpu(kind, li, gi),
            m2g,
            layer.p16_bytes / self.rates.bw_m2g,
            pass,
            &deps,
            meta,
        ))
    }

    /// Releases the G16s `grad-off` left in host memory, on the task
    /// that consumes them: the reduction on a multi-GPU server, the
    /// handler's CPU update otherwise (a spilled gradient left with its
    /// spill).
    fn host_grad_consumed(&self, mut meta: TaskMeta, li: usize, reduce: bool) -> TaskMeta {
        let layer = &self.layers[li];
        let held = layer.grad_bytes > 0.0
            && !layer.grad_spill_to_ssd
            && layer.optimizer != OptimizerKind::None;
        if held && reduce == (self.gpus > 1) {
            for gi in 0..self.gpus {
                meta = meta.free(MemTier::Host, BlobKey::on_gpu(BlobKind::Grad, li, gi));
            }
        }
        meta
    }

    /// Attaches the handler's gradient inputs to the task that consumes
    /// them: the reduced (or lone) gradient read, plus release of any SSD
    /// grad spill space, which is dead once the handler has consumed it.
    fn handler_grad_meta(&self, mut meta: TaskMeta, li: usize, an: &Annot) -> TaskMeta {
        let layer = &self.layers[li];
        if layer.grad_bytes > 0.0 {
            if self.gpus > 1 {
                meta = meta.read(an.cur(BlobKey::shared(BlobKind::GradReduced, li)));
            } else {
                meta = meta.read(an.cur(BlobKey::on_gpu(BlobKind::Grad, li, 0)));
            }
            if layer.grad_spill_to_ssd {
                for gi in 0..self.gpus {
                    meta = meta.free(MemTier::Ssd, BlobKey::on_gpu(BlobKind::Grad, li, gi));
                }
            }
        }
        meta
    }

    /// Emits one optimizer handler (§IV-C): returns `(read, write)` task
    /// ids for chaining — `write` being the task after which the layer's
    /// states are updated. `updated` is the previous iteration's one;
    /// `head` is this iteration's first forward kernel.
    #[allow(clippy::too_many_arguments)]
    fn add_handler(
        &self,
        em: &mut Emitter,
        ssd: ResourceId,
        cpu: ResourceId,
        gpu0: ResourceId,
        g2m0: &ResourceId,
        m2g0: &ResourceId,
        head: TaskId,
        li: usize,
        inputs: &[TaskId],
        updated: Option<TaskId>,
        prev_write: Option<TaskId>,
        prev_read: Option<TaskId>,
        stage: Stage,
        iter: usize,
        an: &mut Annot,
    ) -> (Option<TaskId>, Option<TaskId>) {
        let r = &self.rates;
        let master_key = BlobKey::shared(BlobKind::Master, li);
        let p16_key = BlobKey::shared(BlobKind::Param16, li);
        let sopt_key = BlobKey::shared(BlobKind::StageOpt, li);
        match self.layers[li].optimizer {
            OptimizerKind::CpuOutOfCore {
                read_bytes,
                write_bytes,
                cpu_params,
            } => {
                let layer = &self.layers[li];
                let eff = r.state_io_efficiency;
                let write_seconds = write_bytes / (eff * r.ssd_write);
                // Moments resting in host memory rotate through the step:
                // the write-back of what the previous iteration's CPU step
                // left there is this iteration's first SSD write, after
                // its first forward kernel — the link carries it under
                // forward instead of behind the last gradient (it is
                // still attributed to the handler's stage). The read that
                // brings them back waits for it, and the CPU step is the
                // handler's last task.
                let head_write = layer.moments_in_host().then(|| {
                    let deps: Vec<TaskId> = std::iter::once(head).chain(updated).collect();
                    em.task(
                        TaskIdentity::shared(TaskKind::OptWrite, li),
                        ssd,
                        write_seconds,
                        stage,
                        &deps,
                        TaskMeta::new(OpClass::SsdWrite, iter)
                            .read(an.cur(sopt_key))
                            .write(an.bump(master_key))
                            .free(MemTier::Host, sopt_key),
                    )
                });
                // SSD->Main: in naive mode (and in the ZeRO-style separate
                // stage) this handler may not start until the previous
                // handler fully finished (Fig. 3a).
                let serialize =
                    self.mode == GradOffloadMode::NaiveActive || stage == Stage::Optimizer;
                // Beside a host-resident master the read moves the
                // moments only, which nothing in the step writes before
                // it: during backward it reads ahead, after only the last
                // write-back of the same states (the previous iteration's,
                // or the head write), and the gradient edge moves to the
                // CPU step that reads the G16 (`StepDag::lower`'s
                // `opt_gates` pace how far ahead).
                // Under the paper's placement the link also carries the
                // P16 reads the GPU chain waits on, and the separate stage
                // is a barrier by definition: both keep the trigger.
                let read_ahead = layer.master_in_host() && stage == Stage::Backward;
                let read_meta = TaskMeta::new(OpClass::SsdRead, iter)
                    .read(an.cur(master_key))
                    .write(an.bump(sopt_key))
                    .alloc(MemTier::Host, sopt_key, read_bytes);
                let mut cpu_meta = TaskMeta::new(OpClass::CpuCompute, iter)
                    .read(an.cur(sopt_key))
                    .write(an.bump(sopt_key));
                if head_write.is_some() {
                    // The next fetch rounds the master this step updates.
                    cpu_meta = cpu_meta.write(an.bump(p16_key));
                }
                let mut read_deps: Vec<TaskId> = Vec::new();
                let mut cpu_deps: Vec<TaskId> = Vec::new();
                let (read_meta, cpu_meta) = if read_ahead {
                    read_deps.extend(head_write.or(updated));
                    cpu_deps.extend_from_slice(inputs);
                    (read_meta, self.handler_grad_meta(cpu_meta, li, an))
                } else {
                    read_deps.extend(head_write);
                    read_deps.extend_from_slice(inputs);
                    (self.handler_grad_meta(read_meta, li, an), cpu_meta)
                };
                if serialize {
                    read_deps.extend(prev_write);
                }
                let read = em.task(
                    TaskIdentity::shared(TaskKind::OptRead, li),
                    ssd,
                    read_bytes / (eff * r.ssd_read),
                    stage,
                    &read_deps,
                    read_meta,
                );
                cpu_deps.push(read);
                let compute = em.task(
                    TaskIdentity::shared(TaskKind::OptCpu, li),
                    cpu,
                    cpu_params / r.cpu_params_per_sec,
                    stage,
                    &cpu_deps,
                    self.host_grad_consumed(cpu_meta, li, false),
                );
                if head_write.is_some() {
                    return (Some(read), Some(compute));
                }
                // Main->SSD: optimized mode issues it after the *previous*
                // handler's SSD->Main (Fig. 3b), which lets the FIFO SSD
                // overlap it with this handler's CPU compute.
                let mut write_deps = vec![compute];
                if self.mode == GradOffloadMode::OptimizedActive {
                    write_deps.extend(prev_read);
                }
                let write = em.task(
                    TaskIdentity::shared(TaskKind::OptWrite, li),
                    ssd,
                    write_seconds,
                    stage,
                    &write_deps,
                    // The states leave host memory with the fresh P16,
                    // which this task builds there and writes out.
                    TaskMeta::new(OpClass::SsdWrite, iter)
                        .read(an.cur(sopt_key))
                        .write(an.bump(master_key))
                        .write(an.bump(p16_key))
                        .free(MemTier::Host, sopt_key)
                        .transit(MemTier::Host, p16_key, write_bytes - read_bytes),
                );
                (Some(read), Some(write))
            }
            OptimizerKind::CpuInMemory { cpu_params } => {
                let mut deps: Vec<TaskId> = inputs.to_vec();
                if self.mode == GradOffloadMode::NaiveActive || stage == Stage::Optimizer {
                    deps.extend(prev_write);
                }
                let compute = em.task(
                    TaskIdentity::shared(TaskKind::OptCpu, li),
                    cpu,
                    cpu_params / r.cpu_params_per_sec,
                    stage,
                    &deps,
                    self.host_grad_consumed(
                        self.handler_grad_meta(
                            TaskMeta::new(OpClass::CpuCompute, iter)
                                .read(an.cur(master_key))
                                .write(an.bump(master_key))
                                .write(an.bump(p16_key)),
                            li,
                            an,
                        ),
                        li,
                        false,
                    ),
                );
                (Some(compute), Some(compute))
            }
            OptimizerKind::GpuOverSsd {
                fetch_bytes,
                writeback_bytes,
                gpu_flops,
            } => {
                let read = em.task(
                    TaskIdentity::shared(TaskKind::OptRead, li),
                    ssd,
                    fetch_bytes / r.ssd_read,
                    stage,
                    inputs,
                    self.handler_grad_meta(
                        TaskMeta::new(OpClass::SsdRead, iter)
                            .read(an.cur(master_key))
                            .write(an.bump(sopt_key)),
                        li,
                        an,
                    ),
                );
                let up = em.task(
                    TaskIdentity::shared(TaskKind::OptUp, li),
                    *m2g0,
                    fetch_bytes / r.bw_m2g,
                    stage,
                    &[read],
                    TaskMeta::new(OpClass::TransferM2G, iter)
                        .read(an.cur(sopt_key))
                        .write(an.bump(sopt_key)),
                );
                let kernel = em.task(
                    TaskIdentity::shared(TaskKind::OptKernel, li),
                    gpu0,
                    gpu_flops / r.thp_gpu,
                    stage,
                    &[up],
                    TaskMeta::new(OpClass::GpuCompute, iter)
                        .read(an.cur(sopt_key))
                        .write(an.bump(sopt_key)),
                );
                let down = em.task(
                    TaskIdentity::shared(TaskKind::OptDown, li),
                    *g2m0,
                    writeback_bytes / r.bw_g2m,
                    stage,
                    &[kernel],
                    TaskMeta::new(OpClass::TransferG2M, iter)
                        .read(an.cur(sopt_key))
                        .write(an.bump(sopt_key)),
                );
                let write = em.task(
                    TaskIdentity::shared(TaskKind::OptWrite, li),
                    ssd,
                    writeback_bytes / r.ssd_write,
                    stage,
                    &[down],
                    TaskMeta::new(OpClass::SsdWrite, iter)
                        .read(an.cur(sopt_key))
                        .write(an.bump(master_key))
                        .write(an.bump(p16_key)),
                );
                (Some(read), Some(write))
            }
            OptimizerKind::GpuResident { gpu_flops } => {
                let kernel = em.task(
                    TaskIdentity::shared(TaskKind::OptKernel, li),
                    gpu0,
                    gpu_flops / r.thp_gpu,
                    stage,
                    inputs,
                    self.handler_grad_meta(
                        TaskMeta::new(OpClass::GpuCompute, iter)
                            .read(an.cur(master_key))
                            .write(an.bump(master_key))
                            .write(an.bump(p16_key)),
                        li,
                        an,
                    ),
                );
                (Some(kernel), Some(kernel))
            }
            OptimizerKind::None => (prev_read, prev_write),
        }
    }

    /// Simulates `n` back-to-back iterations and reports *per-iteration*
    /// figures (makespan divided by `n`); stage windows span the whole
    /// run. Useful to check that the single-iteration numbers hold in
    /// steady state.
    pub fn simulate_iterations(&self, model: &ModelProfile, n: usize) -> IterationReport {
        let (graph, res, flops) = self.build_iterations(n);
        let sim = simulate(&graph);
        let mut report = IterationReport::new(
            sim,
            model,
            self.items_per_iteration * n as f64,
            flops,
            res.gpu[0],
        );
        report.iteration_seconds /= n as f64;
        if self.gpus > 1 {
            let busy: f64 = res.gpu.iter().map(|r| report.sim.resources[r.0].busy).sum();
            report.gpu_busy_fraction = busy
                / (self.gpus as f64 * (report.iteration_seconds * n as f64).max(f64::MIN_POSITIVE));
        }
        report
    }

    /// Simulates the iteration and summarizes it.
    pub fn simulate(&self, model: &ModelProfile) -> IterationReport {
        let (graph, res, flops) = self.build();
        let sim = simulate(&graph);
        // Aggregate GPU busy over all GPUs for the utilization number.
        let mut report =
            IterationReport::new(sim, model, self.items_per_iteration, flops, res.gpu[0]);
        if self.gpus > 1 {
            let busy: f64 = res.gpu.iter().map(|r| report.sim.resources[r.0].busy).sum();
            report.gpu_busy_fraction =
                busy / (self.gpus as f64 * report.iteration_seconds.max(f64::MIN_POSITIVE));
        }
        report
    }
}

/// Ratel's own schedule: planner decisions + active gradient offloading.
#[derive(Debug, Clone)]
pub struct RatelSchedule<'a> {
    /// Profiled hardware.
    pub profile: &'a HardwareProfile,
    /// Profiled model.
    pub model: &'a ModelProfile,
    /// The activation plan (from [`crate::planner::ActivationPlanner`]).
    pub plan: &'a SwapPlan,
    /// Gradient-offloading mode.
    pub mode: GradOffloadMode,
    /// Data-parallel GPU count.
    pub gpus: usize,
}

impl<'a> RatelSchedule<'a> {
    /// Lowers the plan into an [`IterationSpec`].
    pub fn to_spec(&self) -> IterationSpec {
        // Distribute the host activation budget: checkpoints first (they
        // are placed in host by construction), then swapped units by plan.
        let placement: std::collections::HashMap<(usize, ratel_model::UnitKind), SwapTarget> = self
            .plan
            .swapped
            .iter()
            .map(|(u, target)| ((u.layer, u.kind), *target))
            .collect();
        let mut layers = Vec::with_capacity(self.model.layers.len());
        for layer in &self.model.layers {
            let mut host = layer.inter_act_bytes;
            let mut ssd = 0.0;
            let mut recompute = 0.0;
            for unit in &layer.units {
                if let Some(target) = placement.get(&(unit.layer, unit.kind)) {
                    match target {
                        SwapTarget::Host => host += unit.bytes,
                        SwapTarget::Ssd => ssd += unit.bytes,
                    }
                } else {
                    recompute += unit.recompute_flops;
                }
            }
            layers.push(LayerTask {
                fwd_flops: layer.forward_flops,
                bwd_flops: 2.0 * layer.forward_flops + recompute,
                act_to_host_bytes: host,
                act_ckpt_bytes: layer.inter_act_bytes,
                act_to_ssd_bytes: ssd,
                // The paper's placement: what `repro` regenerates is
                // what the paper measured.
                ..LayerTask::ratel(
                    layer.label.as_str(),
                    layer.params,
                    layer.params,
                    Placement::Ssd,
                )
            });
        }
        let items = match self.model.config.kind {
            ModelKind::DecoderLm => {
                (self.model.batch * self.model.config.seq_len * self.gpus) as f64
            }
            ModelKind::DiT => (self.model.batch * self.gpus) as f64,
        };
        IterationSpec {
            layers,
            mode: self.mode,
            rates: LinkRates::from_profile(self.profile),
            gpus: self.gpus,
            items_per_iteration: items,
            micro_batches: 1,
            pass: Pass::Step,
            per_layer_overhead_seconds: 0.0,
        }
    }

    /// Builds and simulates one iteration.
    pub fn simulate(&self) -> IterationReport {
        self.to_spec().simulate(self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::ActivationPlanner;
    use ratel_hw::ServerConfig;
    use ratel_model::zoo;

    fn ratel_report(batch: usize, mode: GradOffloadMode) -> IterationReport {
        let server = ServerConfig::paper_default();
        let model = ModelProfile::new(&zoo::llm("13B"), batch);
        let profile = HardwareProfile::measure(&server, &model, batch);
        let plan = ActivationPlanner::new(&profile, &model).plan();
        RatelSchedule {
            profile: &profile,
            model: &model,
            plan: &plan,
            mode,
            gpus: 1,
        }
        .simulate()
    }

    #[test]
    fn simulated_iteration_is_near_the_paper_figure() {
        // Fig. 1c: 13B @ batch 32 -> ~25 s per iteration.
        let r = ratel_report(32, GradOffloadMode::OptimizedActive);
        assert!(
            (15.0..40.0).contains(&r.iteration_seconds),
            "T = {:.1}s",
            r.iteration_seconds
        );
        // Throughput around 1.3k tokens/s (Fig. 5a's Ratel bar).
        assert!(
            (800.0..2200.0).contains(&r.throughput_items_per_sec),
            "tok/s = {:.0}",
            r.throughput_items_per_sec
        );
    }

    #[test]
    fn optimized_beats_naive_beats_separate_stage() {
        // Fig. 7a at large batches: Optimized > Naive > Ratel+ZeRO. (At
        // batch 8 the paper itself observes the gaps nearly vanish, so the
        // naive-vs-zero ordering is only asserted for batch >= 32.)
        for batch in [32usize, 64] {
            let opt = ratel_report(batch, GradOffloadMode::OptimizedActive);
            let naive = ratel_report(batch, GradOffloadMode::NaiveActive);
            let zero = ratel_report(batch, GradOffloadMode::SeparateStage);
            assert!(
                opt.throughput_items_per_sec > naive.throughput_items_per_sec,
                "b={batch}: opt {:.0} <= naive {:.0}",
                opt.throughput_items_per_sec,
                naive.throughput_items_per_sec
            );
            assert!(
                naive.throughput_items_per_sec > zero.throughput_items_per_sec,
                "b={batch}: naive {:.0} <= zero {:.0}",
                naive.throughput_items_per_sec,
                zero.throughput_items_per_sec
            );
        }
        // Optimized wins at small batch too, just by less.
        let opt8 = ratel_report(8, GradOffloadMode::OptimizedActive);
        let zero8 = ratel_report(8, GradOffloadMode::SeparateStage);
        assert!(opt8.throughput_items_per_sec > zero8.throughput_items_per_sec);
    }

    #[test]
    fn active_offloading_gain_shrinks_at_small_batch() {
        // Fig. 7's second observation: at batch 8 the gap narrows because
        // backward is short relative to the optimizer, leaving little to
        // overlap.
        let gain = |b: usize| {
            ratel_report(b, GradOffloadMode::OptimizedActive).throughput_items_per_sec
                / ratel_report(b, GradOffloadMode::SeparateStage).throughput_items_per_sec
        };
        let g8 = gain(8);
        let g32 = gain(32);
        assert!(g32 > g8, "gain should grow with batch: {g8:.2} vs {g32:.2}");
    }

    #[test]
    fn gpu_stays_busy_with_optimized_offloading() {
        let r = ratel_report(32, GradOffloadMode::OptimizedActive);
        assert!(
            r.gpu_busy_fraction > 0.5,
            "GPU busy only {:.0}%",
            r.gpu_busy_fraction * 100.0
        );
    }

    #[test]
    fn separate_stage_has_an_optimizer_window() {
        let r = ratel_report(32, GradOffloadMode::SeparateStage);
        assert!(r.stage_seconds[2] > 0.0);
        // Optimizer stage takes a meaningful share (Fig. 2c: 30-60%).
        assert!(
            r.optimizer_fraction > 0.15,
            "optimizer fraction {:.2}",
            r.optimizer_fraction
        );
    }

    #[test]
    fn two_gpus_scale_sublinearly_but_positively() {
        let server = ServerConfig::paper_default();
        let model = ModelProfile::new(&zoo::llm("13B"), 32);
        let profile = HardwareProfile::measure(&server, &model, 32);
        let plan = ActivationPlanner::new(&profile, &model).plan();
        let one = RatelSchedule {
            profile: &profile,
            model: &model,
            plan: &plan,
            mode: GradOffloadMode::OptimizedActive,
            gpus: 1,
        }
        .simulate();
        let two = RatelSchedule {
            profile: &profile,
            model: &model,
            plan: &plan,
            mode: GradOffloadMode::OptimizedActive,
            gpus: 2,
        }
        .simulate();
        let speedup = two.throughput_items_per_sec / one.throughput_items_per_sec;
        assert!(
            speedup > 1.2 && speedup < 2.01,
            "2-GPU speedup {speedup:.2} out of range"
        );
    }

    #[test]
    fn more_ssds_help_until_another_bottleneck() {
        // Fig. 10a shape: near-linear 1->3, clearly sub-linear 6->12 as the
        // bottleneck shifts toward GPU compute (the paper uses the largest
        // trainable batch; 48 is feasible for 135B on the 4090).
        let model = ModelProfile::new(&zoo::llm("135B"), 48);
        let tok = |ssds: usize| {
            let server = ServerConfig::paper_default().with_ssd_count(ssds);
            let profile = HardwareProfile::measure(&server, &model, 48);
            let plan = ActivationPlanner::new(&profile, &model).plan();
            RatelSchedule {
                profile: &profile,
                model: &model,
                plan: &plan,
                mode: GradOffloadMode::OptimizedActive,
                gpus: 1,
            }
            .simulate()
            .throughput_items_per_sec
        };
        let t1 = tok(1);
        let t3 = tok(3);
        let t6 = tok(6);
        let t12 = tok(12);
        let low_ratio = t3 / t1;
        let high_ratio = t12 / t6;
        assert!(
            low_ratio > 2.0,
            "1->3 SSDs should be near-linear: {low_ratio:.2}"
        );
        assert!(
            low_ratio > 1.5 * high_ratio,
            "scaling should flatten: 1->3 gives {low_ratio:.2}x, 6->12 gives {high_ratio:.2}x"
        );
        assert!(t12 >= t6 && t6 >= t3 && t3 >= t1);
    }
}

#[cfg(test)]
mod multi_iteration_tests {
    use super::*;
    use crate::planner::ActivationPlanner;
    use ratel_hw::ServerConfig;
    use ratel_model::zoo;

    fn spec(mode: GradOffloadMode) -> (IterationSpec, ModelProfile) {
        let server = ServerConfig::paper_default();
        let model = ModelProfile::new(&zoo::llm("13B"), 32);
        let profile = HardwareProfile::measure(&server, &model, 32);
        let plan = ActivationPlanner::new(&profile, &model).plan();
        let spec = RatelSchedule {
            profile: &profile,
            model: &model,
            plan: &plan,
            mode,
            gpus: 1,
        }
        .to_spec();
        (spec, model)
    }

    #[test]
    fn steady_state_matches_single_iteration_within_tolerance() {
        let (spec, model) = spec(GradOffloadMode::OptimizedActive);
        let one = spec.simulate(&model).iteration_seconds;
        let steady = spec.simulate_iterations(&model, 4).iteration_seconds;
        // The synchronous dependency (next forward waits for this
        // iteration's last update) prevents big cross-iteration gains;
        // adjacent-iteration transfer overlap can shave a little.
        assert!(
            steady <= one * 1.05,
            "steady state slower than single shot: {steady:.1} vs {one:.1}"
        );
        assert!(
            steady >= one * 0.75,
            "implausible cross-iteration speedup: {steady:.1} vs {one:.1}"
        );
    }

    #[test]
    fn iterations_cannot_collapse_into_each_other() {
        // With the separate-stage mode, k iterations must take at least
        // k times the optimizer stage (it is serialized against both
        // neighbors).
        let (spec, model) = spec(GradOffloadMode::SeparateStage);
        let one = spec.simulate(&model);
        let three = spec.simulate_iterations(&model, 3);
        let opt_window = one.stage_seconds[2];
        assert!(
            three.iteration_seconds * 3.0 >= 3.0 * opt_window,
            "optimizer stages overlapped: {:.1}s total vs {:.1}s of optimizer alone",
            three.iteration_seconds * 3.0,
            3.0 * opt_window
        );
    }

    #[test]
    fn multi_iteration_graph_grows_linearly() {
        let (spec, _) = spec(GradOffloadMode::OptimizedActive);
        let (g1, _, f1) = spec.build_iterations(1);
        let (g3, _, f3) = spec.build_iterations(3);
        assert_eq!(g3.len(), 3 * g1.len());
        assert!((f3 - 3.0 * f1).abs() < 1e-3);
    }
}

#[cfg(test)]
mod scheduling_correctness_tests {
    use super::*;
    use ratel_sim::simulate;

    /// One parameter per layer and no SSD activation spill: the
    /// remaining SSD traffic (parameter staging, optimizer state) must
    /// not scale with the GPU count.
    fn layer() -> LayerTask {
        LayerTask {
            fwd_flops: 1.0,
            bwd_flops: 2.0,
            act_to_host_bytes: 1.0,
            ..LayerTask::ratel("blk", 1.0, 1.0, Placement::Ssd)
        }
    }

    /// Unit rates make every task's service time equal to its byte/flop
    /// count, so timeline positions are easy to reason about.
    fn spec(gpus: usize, layers: usize, mode: GradOffloadMode) -> IterationSpec {
        IterationSpec {
            layers: (0..layers).map(|_| layer()).collect(),
            mode,
            rates: LinkRates::UNIT,
            gpus,
            items_per_iteration: 1.0,
            micro_batches: 1,
            pass: Pass::Step,
            per_layer_overhead_seconds: 0.0,
        }
    }

    fn find<'a>(sim: &'a ratel_sim::SimReport, label: &str) -> &'a ratel_sim::TimelineEntry {
        sim.timeline()
            .iter()
            .find(|e| e.label.as_deref() == Some(label))
            .unwrap_or_else(|| panic!("no task labeled `{label}`"))
    }

    #[test]
    fn backward_refetch_waits_for_previous_iterations_update() {
        // Iteration k+1 re-reads the P16 the iteration-k handler wrote
        // back; scheduling the refetch before the write-back would feed
        // backward stale parameters.
        let s = spec(1, 3, GradOffloadMode::OptimizedActive);
        let (g, _, _) = s.build_iterations(2);
        let sim = simulate(&g);
        for li in 0..3 {
            let write = find(&sim, &format!("i0 opt-write L{li}"));
            for kind in ["fwd-read", "bwd-read", "bwd-fetch"] {
                let refetch = find(&sim, &format!("i1 {kind} L{li}"));
                assert!(
                    refetch.start >= write.finish - 1e-9,
                    "i1 {kind} L{li} starts at {:.3} before i0 opt-write L{li} \
                     finishes at {:.3} (stale parameters)",
                    refetch.start,
                    write.finish
                );
            }
        }
        // The dependency is load-bearing for the makespan: the final
        // backward chain of iteration 1 cannot start before iteration
        // 0's layer-0 write-back lands.
        let last_write = find(&sim, "i0 opt-write L0").finish;
        let final_bwd = find(&sim, "i1 bwd L0");
        assert!(final_bwd.finish >= last_write + 2.0 + 2.0 + 2.0 - 1e-9);
    }

    #[test]
    fn backward_ssd_staging_is_shared_across_gpus() {
        // Like the forward fetch, the backward refetch stages each layer
        // from SSD to host once; GPUs copy from the shared staging
        // buffer. Total SSD service must be GPU-count invariant.
        for mode in GradOffloadMode::ALL {
            let (g1, r1, _) = spec(1, 4, mode).build();
            let (g4, r4, _) = spec(4, 4, mode).build();
            let s1 = g1.total_service(r1.ssd);
            let s4 = g4.total_service(r4.ssd);
            assert!(
                (s1 - s4).abs() < 1e-9,
                "{}: SSD service scales with GPU count: {s1:.3} (1 GPU) vs {s4:.3} (4 GPUs)",
                mode.name()
            );
        }
    }

    #[test]
    fn backward_staging_is_one_read_per_layer() {
        let s = spec(3, 2, GradOffloadMode::OptimizedActive);
        let (g, _, _) = s.build();
        let sim = simulate(&g);
        for li in 0..2 {
            let reads = sim
                .timeline()
                .iter()
                .filter(|e| e.label.as_deref() == Some(&format!("bwd-read L{li}")[..]))
                .count();
            assert_eq!(reads, 1, "layer {li}: expected one shared staging read");
            // ...feeding one host->GPU copy per GPU.
            let copies = sim
                .timeline()
                .iter()
                .filter(|e| {
                    e.label
                        .as_deref()
                        .is_some_and(|l| l.starts_with(&format!("bwd-fetch L{li} ")))
                })
                .count();
            assert_eq!(copies, 3);
        }
    }
}

#[cfg(test)]
mod emitter_tests {
    use super::*;
    use crate::engine::profiler::analytic_twin;
    use crate::engine::{movement_spec_for, EngineConfig};
    use crate::planner::ActivationPlanner;
    use ratel_hw::ServerConfig;
    use ratel_model::TensorKind::{Os32, G16, P16, P32};

    #[test]
    fn table_ii_is_the_byte_table() {
        let p = 1e6;
        let (p32, os32) = (P32.bytes_per_param(), Os32.bytes_per_param());
        for t in [p, p / 100.0, 0.0] {
            // (placement, source, master held in host, read, write) per
            // trained parameter.
            let placements = [
                (
                    Placement::Ssd,
                    ParamSource::Ssd,
                    0.0,
                    p32 + os32,
                    p32 + os32 + P16.bytes_per_param(),
                ),
                (
                    Placement::HostMaster,
                    ParamSource::Host,
                    p * p32,
                    os32,
                    os32,
                ),
            ];
            for (placement, source, held, read, write) in placements {
                let task = LayerTask::ratel("layer", p, t, placement);
                assert_eq!(task.p16_bytes, p * P16.bytes_per_param());
                assert_eq!(task.grad_bytes, t * G16.bytes_per_param());
                assert_eq!(task.param_source, source);
                assert_eq!(task.master_host_bytes, held);
                assert!(!task.grad_spill_to_ssd && task.refetch_in_backward);
                let expected = if t > 0.0 {
                    OptimizerKind::CpuOutOfCore {
                        read_bytes: t * read,
                        write_bytes: t * write,
                        cpu_params: t,
                    }
                } else {
                    OptimizerKind::None
                };
                assert_eq!(task.optimizer, expected, "trainable {t}, {placement:?}");
            }
        }
    }

    /// One refetched layer of `p` parameters, all trained, alone in a
    /// spec.
    fn lone_layer(p: f64, placement: Placement) -> IterationSpec {
        IterationSpec {
            layers: vec![LayerTask::ratel("layer", p, p, placement)],
            mode: GradOffloadMode::OptimizedActive,
            rates: LinkRates::UNIT,
            gpus: 1,
            items_per_iteration: 1.0,
            micro_batches: 1,
            pass: Pass::Step,
            per_layer_overhead_seconds: 0.0,
        }
    }

    #[test]
    fn a_host_master_moves_the_moments_only_and_is_charged_for_the_whole_step() {
        let p = 1000.0;
        // Per parameter: G16 down; P16 up twice; on the SSD link 14 down
        // and 2 + 2 + 12 up, or the moments' 8 each way.
        assert_eq!(
            lone_layer(p, Placement::Ssd).planned_route_bytes(),
            [2000, 4000, 14000, 16000]
        );
        let host = lone_layer(p, Placement::HostMaster);
        assert_eq!(host.planned_route_bytes(), [2000, 4000, 8000, 8000]);

        let (graph, _, _) = host.build();
        let kinds: Vec<TaskKind> = graph
            .task_ids()
            .filter_map(|t| Some(graph.meta(t)?.identity?.kind))
            .collect();
        assert!(!kinds.contains(&TaskKind::FwdRead) && !kinds.contains(&TaskKind::BwdRead));
        assert!(kinds.contains(&TaskKind::OptRead) && kinds.contains(&TaskKind::OptWrite));
        let report = ratel_verify::verify(&graph, &ratel_verify::Limits::none());
        assert!(report.is_clean(), "{}", report.render());
        // 4 B/param from before the first kernel to after the last. The
        // moments (8) are read ahead of backward, so they are staged
        // beside the fetches' P16 transits (2 + 2, the two fetches being
        // unordered here) rather than beside the G16 (2) that lands later.
        let peak = report.peak(MemTier::Host);
        assert_eq!(peak.outliving, 4.0 * p);
        assert_eq!(peak.total, (4.0 + 8.0 + 2.0 + 2.0) * p);
    }

    #[test]
    fn a_rotated_handler_s_next_iteration_waits_for_its_cpu_step() {
        // The engine's uncapped plan over two iterations: the moments
        // iteration 0 steps in host memory are what iteration 1 writes
        // out first, and its fetches round the master iteration 0 stepped.
        let spec = movement_spec_for(&EngineConfig::tiny(), Placement::HostMaster);
        let (graph, _, _) = spec.build_iterations(2);
        let find = |label: String| {
            let t = graph.task_ids().find(|t| graph.label(*t) == Some(&label));
            t.unwrap_or_else(|| panic!("no task `{label}`"))
        };
        let reach = ratel_verify::Reachability::new(&graph);
        let rotated: Vec<usize> = (0..spec.layers.len())
            .filter(|&li| spec.layers[li].moments_in_host())
            .collect();
        assert_eq!(rotated.len(), 2);
        for li in rotated {
            let cpu = find(format!("i0 opt-cpu L{li}"));
            let write = find(format!("i1 opt-write L{li}"));
            assert!(graph.deps(write).contains(&cpu), "i1 opt-write L{li}");
            for kind in ["fwd-fetch", "bwd-fetch"] {
                let fetch = find(format!("i1 {kind} L{li}"));
                assert!(reach.reaches(cpu, fetch), "i1 {kind} L{li}");
            }
        }
        let report = ratel_verify::verify(&graph, &ratel_verify::Limits::none());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn the_engine_and_the_planner_lower_through_the_same_table() {
        // Where the executable model and its analytic twin agree on a
        // layer's parameters (`vocab·h + seq·h`, `12h² + 13h`), the two
        // lowerings must agree on what it moves.
        let config = EngineConfig::tiny();
        let engine = movement_spec_for(&config, Placement::Ssd);
        let twin = ModelProfile::new(&analytic_twin(&config.model), config.model.batch);
        let profile =
            HardwareProfile::measure(&ServerConfig::paper_default(), &twin, config.model.batch);
        let plan = ActivationPlanner::new(&profile, &twin).plan();
        let planner = RatelSchedule {
            profile: &profile,
            model: &twin,
            plan: &plan,
            mode: engine.mode,
            gpus: 1,
        }
        .to_spec();
        let parameter_side =
            |l: &LayerTask| (l.p16_bytes, l.grad_bytes, l.param_source, l.optimizer);
        let head = config.model.layers + 1;
        assert_eq!(engine.layers.len(), head + 1);
        assert_eq!(planner.layers.len(), head + 1);
        for id in 0..head {
            assert_eq!(
                parameter_side(&engine.layers[id]),
                parameter_side(&planner.layers[id]),
                "layer {id}"
            );
        }
        // The head differs the way it is meant to: the analytic decoder
        // ties it to the embedding, the executable model trains its own.
        assert_eq!(
            parameter_side(&planner.layers[head]),
            parameter_side(&LayerTask::ratel("head", 0.0, 0.0, Placement::Ssd))
        );
        let untied = config.model.head_params() as f64;
        assert_eq!(
            parameter_side(&engine.layers[head]),
            parameter_side(&LayerTask::ratel("head", untied, untied, Placement::Ssd))
        );
    }
}
