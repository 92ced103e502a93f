#![warn(missing_docs)]
//! The plan contract: the types a movement schedule is *made of*.
//!
//! One schedule representation flows through the whole stack — the
//! planner emits it, `ratel-sim` simulates it, `ratel-verify` proves it
//! safe, and the engine's resource-pool executor dispatches it. This
//! leaf crate holds the shared vocabulary so none of those layers has to
//! depend on another to talk about a task: task/resource identities, the
//! training [`Stage`] attribution, and the semantic [`TaskMeta`] layer
//! (which logical blob each task reads or writes and at which version,
//! which [`OpClass`] it performs, which memory-tier residency it opens
//! or closes). The measurement side speaks the same vocabulary: a
//! recorded span names the task it measured ([`TaskRef`]) and is
//! classified by one [`SpanKind`].
//!
//! All metadata is optional at the graph level: tasks without it
//! simulate exactly as before and are simply invisible to the static
//! passes. For the executor, however, the contract is load-bearing — the
//! `ResourceClass` of a task's bound resource decides which worker pool
//! runs it.

/// Identifies a resource registered with a task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub usize);

/// Identifies a task within a task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// The training stage a task is attributed to, for breakdown reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Forward propagation.
    Forward,
    /// Backward propagation (includes recomputation).
    Backward,
    /// Optimizer execution (SSD state I/O + CPU Adam).
    Optimizer,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 3] = [Stage::Forward, Stage::Backward, Stage::Optimizer];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Forward => "forward",
            Stage::Backward => "backward",
            Stage::Optimizer => "optimizer",
        }
    }

    /// This stage's position in [`Stage::ALL`] — the index used by
    /// per-stage breakdown arrays.
    pub fn index(self) -> usize {
        match self {
            Stage::Forward => 0,
            Stage::Backward => 1,
            Stage::Optimizer => 2,
        }
    }
}

/// What a timeline span shows — the one span vocabulary shared by the
/// simulator's timelines, the engine's telemetry recorder and the flight
/// recorder's `Span` events (whose `code` is [`SpanKind::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Forward compute for one layer.
    Forward,
    /// Backward compute for one layer.
    Backward,
    /// Optimizer work (Adam update, state write-back).
    Optimizer,
    /// An inter-tier blob transfer, recorded by the store itself.
    Transfer,
    /// Parameter, activation or optimizer-state staging ahead of its
    /// consumer.
    Prefetch,
    /// Everything else (offloads, scaler decisions, bookkeeping).
    Other,
}

impl SpanKind {
    /// All kinds, in [`SpanKind::index`] order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Forward,
        SpanKind::Backward,
        SpanKind::Optimizer,
        SpanKind::Transfer,
        SpanKind::Prefetch,
        SpanKind::Other,
    ];

    /// Short stable name, used in exports and flight-recorder dumps.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::Optimizer => "optimizer",
            SpanKind::Transfer => "transfer",
            SpanKind::Prefetch => "prefetch",
            SpanKind::Other => "other",
        }
    }

    /// Single-character Gantt glyph.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Forward => 'F',
            SpanKind::Backward => 'B',
            SpanKind::Optimizer => 'O',
            SpanKind::Transfer => 'T',
            SpanKind::Prefetch => 'P',
            SpanKind::Other => '#',
        }
    }

    /// This kind's position in [`SpanKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl From<Stage> for SpanKind {
    fn from(s: Stage) -> Self {
        match s {
            Stage::Forward => SpanKind::Forward,
            Stage::Backward => SpanKind::Backward,
            Stage::Optimizer => SpanKind::Optimizer,
        }
    }
}

/// The kind of logical blob a task touches, or the engine's tiered store
/// holds.
///
/// *Persistent* kinds ([`BlobKind::is_persistent`]) survive across
/// iterations in exactly one storage location, so writing version `v+1`
/// physically overwrites what readers of version `v` depend on — the
/// verifier enforces write-after-read ordering for them. The remaining
/// kinds are transient, double-buffered staging or per-iteration data,
/// where only read-after-write (producer dominates consumer) applies.
///
/// Which kinds the schedule emitter annotates on its tasks and which the
/// engine's store holds as blobs (keyed by engine layer id, whole or by
/// chunk):
///
/// | kind | emitter | store |
/// |---|---|---|
/// | `Param16` | yes | P16 at rest (all-SSD placement) |
/// | `Master` | yes (P32 + OS32) | P32 only |
/// | `Grad` | yes | G16 landed in host memory |
/// | `GradReduced` | yes | an accumulated step's f32 sum |
/// | `Act` | yes (checkpoint included) | saved activations, per chunk |
/// | `Flow`, `FlowGrad`, `Stage`, `StageOpt` | yes | — |
/// | `Moments` | — (inside `Master`) | OS32 |
/// | `P16Fwd`, `P16Bwd` | yes (shared: host staging; per GPU: the arena copy) | a pass's staged P16 |
/// | `Ckpt` | — (inside `Act`) | a block's checkpoint |
/// | `GradMicro` | — | a non-final micro-batch's G16 |
/// | `P16Pinned`, `Kv` | — | a decode call's pins and KV caches |
/// | `MasterLoading`, `MomentsLoading`, `P16Loading` | — | checkpoint-load shadows |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlobKind {
    /// The fp16 parameter copy wherever it persists between iterations
    /// (SSD for Ratel/ZeRO-Infinity, host for ZeRO-Offload, GPU for
    /// FlashNeuron/Megatron). Persistent.
    Param16,
    /// P32 master weights + OS32 optimizer moments. Persistent.
    Master,
    /// A layer's fp16 gradient as it moves GPU → host (→ SSD).
    Grad,
    /// The CPU-reduced gradient: summed across the GPUs of a multi-GPU
    /// step, or across the micro-batches of an accumulated one (the host
    /// f32 accumulator).
    GradReduced,
    /// A layer's saved activations along the offload/reload chain
    /// (GPU produce → host offload → SSD spill → reload).
    Act,
    /// Forward hidden state at a layer boundary (per GPU).
    Flow,
    /// Backward hidden-state gradient at a layer boundary (per GPU).
    FlowGrad,
    /// Host staging buffer of an SSD-bound activation chunk on its way
    /// down or back.
    Stage,
    /// Staging/working buffers of an optimizer handler.
    StageOpt,
    /// A layer's OS32 Adam moments, which the engine keeps apart from its
    /// P32 master. Persistent.
    Moments,
    /// A layer's P16 staged for one forward pass (of a step, an eval or a
    /// decode position) on its way to the arena, and its arena copy.
    P16Fwd,
    /// A layer's P16 staged for its backward pass, and its arena copy.
    P16Bwd,
    /// A layer's P16 held in host memory for one decode call.
    P16Pinned,
    /// A block's checkpoint: its input A16, offloaded by forward and
    /// fetched back for backward.
    Ckpt,
    /// A non-final micro-batch's G16 on its way into the accumulator.
    GradMicro,
    /// A block's KV cache between decode passes.
    Kv,
    /// A verified checkpoint master waiting on the SSD tier beside the
    /// one it replaces.
    MasterLoading,
    /// Checkpoint moments waiting like [`BlobKind::MasterLoading`].
    MomentsLoading,
    /// A re-derived P16 waiting like [`BlobKind::MasterLoading`].
    P16Loading,
}

impl BlobKind {
    /// Whether versions of this blob share one physical location (see the
    /// type-level docs): write-after-read hazards are checked only for
    /// persistent kinds.
    pub fn is_persistent(self) -> bool {
        matches!(self, Self::Param16 | Self::Master | Self::Moments)
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            BlobKind::Param16 => "p16",
            BlobKind::Master => "master",
            BlobKind::Grad => "grad",
            BlobKind::GradReduced => "grad-reduced",
            BlobKind::Act => "act",
            BlobKind::Flow => "flow",
            BlobKind::FlowGrad => "flow-grad",
            BlobKind::Stage => "stage",
            BlobKind::StageOpt => "stage-opt",
            BlobKind::Moments => "moments",
            BlobKind::P16Fwd => "p16-fwd",
            BlobKind::P16Bwd => "p16-bwd",
            BlobKind::P16Pinned => "p16-pinned",
            BlobKind::Ckpt => "ckpt",
            BlobKind::GradMicro => "grad-micro",
            BlobKind::Kv => "kv",
            BlobKind::MasterLoading => "master-loading",
            BlobKind::MomentsLoading => "moments-loading",
            BlobKind::P16Loading => "p16-loading",
        }
    }
}

/// Identifies one logical blob: a kind, its owning layer, (for per-GPU
/// data) the GPU replica, and (for a blob that moves in chunks) which
/// chunk of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobKey {
    /// What the blob is.
    pub kind: BlobKind,
    /// Owning layer (or layer boundary for [`BlobKind::Flow`]).
    pub layer: usize,
    /// GPU replica for per-GPU blobs; `None` for shared blobs.
    pub gpu: Option<usize>,
    /// Which chunk of a blob that moves in chunks; `None` for the whole
    /// blob.
    pub chunk: Option<usize>,
}

impl BlobKey {
    /// A shared (not per-GPU) blob.
    pub fn shared(kind: BlobKind, layer: usize) -> Self {
        BlobKey {
            kind,
            layer,
            gpu: None,
            chunk: None,
        }
    }

    /// A per-GPU blob.
    pub fn on_gpu(kind: BlobKind, layer: usize, gpu: usize) -> Self {
        BlobKey {
            kind,
            layer,
            gpu: Some(gpu),
            chunk: None,
        }
    }

    /// Chunk `chunk` of this blob (`None` is the whole blob).
    pub fn chunk(self, chunk: Option<usize>) -> Self {
        BlobKey { chunk, ..self }
    }
}

impl std::fmt::Display for BlobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[L{}", self.kind.name(), self.layer)?;
        if let Some(c) = self.chunk {
            write!(f, "#{c}")?;
        }
        match self.gpu {
            Some(g) => write!(f, " g{g}]"),
            None => write!(f, "]"),
        }
    }
}

/// A blob at a specific version. Version 0 is the initial, pre-schedule
/// state (legal to read without a recorded producer); each write bumps
/// the version by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VersionedBlob {
    /// Which blob.
    pub key: BlobKey,
    /// Which version of it.
    pub version: u64,
}

impl std::fmt::Display for VersionedBlob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@v{}", self.key, self.version)
    }
}

/// The class of operation a task performs, matched against the
/// [`ResourceClass`] of the resource it is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// A GPU kernel.
    GpuCompute,
    /// CPU work (Adam updates, gradient reduction).
    CpuCompute,
    /// GPU → host PCIe transfer.
    TransferG2M,
    /// Host → GPU PCIe transfer.
    TransferM2G,
    /// A read served by the SSD array.
    SsdRead,
    /// A write served by the SSD array.
    SsdWrite,
    /// Framework hook / synchronization stall (occupies no data path).
    Hook,
}

impl OpClass {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::GpuCompute => "gpu-compute",
            OpClass::CpuCompute => "cpu-compute",
            OpClass::TransferG2M => "xfer-g2m",
            OpClass::TransferM2G => "xfer-m2g",
            OpClass::SsdRead => "ssd-read",
            OpClass::SsdWrite => "ssd-write",
            OpClass::Hook => "hook",
        }
    }
}

/// What a schedule task *is* — the typed identity the schedule builder
/// stamps on every task it emits and the engine dispatches on. The
/// display label of a task is derived from this (`fwd-read L3`); nothing
/// reads the label back.
///
/// The first fourteen kinds are the ones a real engine step is made of
/// ([`TaskKind::is_executable`]); the rest model baseline systems and
/// multi-GPU servers in the simulator only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Stage a layer's P16 from SSD into host memory for forward.
    FwdRead,
    /// Move the forward-staged P16 from host into the GPU arena.
    FwdFetch,
    /// The layer's forward kernels.
    Fwd,
    /// Offload the layer's checkpoint and saved activations to host.
    ActOff,
    /// Spill the layer's saved activations from host to the SSD tier.
    ActSpill,
    /// Stage a layer's P16 from SSD into host memory for backward.
    BwdRead,
    /// Move the backward-staged P16 from host into the GPU arena.
    BwdFetch,
    /// Load the layer's spilled activations from SSD back to host.
    ActLoad,
    /// Fetch the layer's checkpoint and activations back to the GPU.
    ActUp,
    /// The layer's backward kernels.
    Bwd,
    /// Offload the layer's G16 gradient to host memory.
    GradOff,
    /// Stage the layer's master + moments from SSD into host memory.
    OptRead,
    /// The layer's f32 Adam update on the CPU.
    OptCpu,
    /// Write the updated P32/OS32/P16 back to the SSD tier.
    OptWrite,
    /// Framework hook stall before a forward kernel (simulation only).
    FwdHook,
    /// Framework hook stall before a backward kernel (simulation only).
    BwdHook,
    /// CPU reduction of the per-GPU gradients (simulation only).
    Reduce,
    /// Spill the offloaded gradient host -> SSD (simulation only).
    GradSpill,
    /// Stage optimizer state host -> GPU for an in-GPU update
    /// (simulation only).
    OptUp,
    /// In-GPU optimizer kernel (simulation only).
    OptKernel,
    /// Return updated optimizer state GPU -> host (simulation only).
    OptDown,
}

impl TaskKind {
    /// The stable display name task labels are built from.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::FwdRead => "fwd-read",
            TaskKind::FwdFetch => "fwd-fetch",
            TaskKind::Fwd => "fwd",
            TaskKind::ActOff => "act-off",
            TaskKind::ActSpill => "act-spill",
            TaskKind::BwdRead => "bwd-read",
            TaskKind::BwdFetch => "bwd-fetch",
            TaskKind::ActLoad => "act-load",
            TaskKind::ActUp => "act-up",
            TaskKind::Bwd => "bwd",
            TaskKind::GradOff => "grad-off",
            TaskKind::OptRead => "opt-read",
            TaskKind::OptCpu => "opt-cpu",
            TaskKind::OptWrite => "opt-write",
            TaskKind::FwdHook => "fwd-hook",
            TaskKind::BwdHook => "bwd-hook",
            TaskKind::Reduce => "reduce",
            TaskKind::GradSpill => "grad-spill",
            TaskKind::OptUp => "opt-up",
            TaskKind::OptKernel => "opt-kernel",
            TaskKind::OptDown => "opt-down",
        }
    }

    /// Whether the engine has an action for this kind; the rest exist
    /// only in simulated schedules.
    pub fn is_executable(self) -> bool {
        !matches!(
            self,
            TaskKind::FwdHook
                | TaskKind::BwdHook
                | TaskKind::Reduce
                | TaskKind::GradSpill
                | TaskKind::OptUp
                | TaskKind::OptKernel
                | TaskKind::OptDown
        )
    }

    /// How a measured span of this task is classified: compute kernels
    /// by pass, the optimizer's update and write-back as optimizer work,
    /// everything staged ahead of its consumer as prefetch, offloads as
    /// other.
    pub fn span_kind(self) -> SpanKind {
        match self {
            TaskKind::Fwd => SpanKind::Forward,
            TaskKind::Bwd => SpanKind::Backward,
            TaskKind::OptCpu | TaskKind::OptWrite | TaskKind::OptKernel | TaskKind::Reduce => {
                SpanKind::Optimizer
            }
            TaskKind::FwdRead
            | TaskKind::FwdFetch
            | TaskKind::BwdRead
            | TaskKind::BwdFetch
            | TaskKind::ActLoad
            | TaskKind::ActUp
            | TaskKind::OptRead
            | TaskKind::OptUp => SpanKind::Prefetch,
            TaskKind::ActOff
            | TaskKind::ActSpill
            | TaskKind::GradOff
            | TaskKind::GradSpill
            | TaskKind::OptDown
            | TaskKind::FwdHook
            | TaskKind::BwdHook => SpanKind::Other,
        }
    }
}

/// A task's typed identity: its kind, the micro-batch and layer it
/// serves, — for tasks replicated per data-parallel GPU — which replica,
/// and — for a transfer of one chunk of a blob — which chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskIdentity {
    /// What the task does.
    pub kind: TaskKind,
    /// The micro-batch of its iteration it serves (0 in a step of one).
    pub micro: usize,
    /// The schedule layer it serves.
    pub layer: usize,
    /// GPU replica for per-GPU tasks; `None` for tasks shared by all
    /// GPUs (SSD staging reads, reductions, optimizer handlers).
    pub gpu: Option<usize>,
    /// Which chunk of the layer's blob the task moves; `None` when it
    /// moves the blob whole.
    pub chunk: Option<usize>,
}

impl TaskIdentity {
    /// A task shared by all GPUs.
    pub fn shared(kind: TaskKind, layer: usize) -> Self {
        TaskIdentity {
            kind,
            micro: 0,
            layer,
            gpu: None,
            chunk: None,
        }
    }

    /// A per-GPU task.
    pub fn on_gpu(kind: TaskKind, layer: usize, gpu: usize) -> Self {
        TaskIdentity {
            kind,
            micro: 0,
            layer,
            gpu: Some(gpu),
            chunk: None,
        }
    }

    /// The same task moving chunk `chunk` of the blob (`None` moves it
    /// whole).
    pub fn chunk(self, chunk: Option<usize>) -> Self {
        TaskIdentity { chunk, ..self }
    }
}

/// Which executed task a measured span belongs to: the task's id in the
/// one graph its step ran, and what the task does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskRef {
    /// The task's id in the graph the step executed.
    pub task: TaskId,
    /// What the task does.
    pub kind: TaskKind,
    /// The schedule layer it serves.
    pub layer: usize,
}

/// The class of a registered resource, declared by the schedule builder
/// so the verifier can check task-to-resource legality — and so the
/// executor knows which worker pool serves the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// A GPU's execution units.
    GpuCompute,
    /// The host CPU.
    CpuCompute,
    /// One GPU's G2M PCIe direction (the duplex link's down lane).
    PcieG2M,
    /// One GPU's M2G PCIe direction (the duplex link's up lane).
    PcieM2G,
    /// The *simplex* SSD array: one FIFO shared by reads and writes.
    SsdArray,
    /// Bookkeeping resource for hook/stall time (no hardware behind it).
    Overhead,
}

impl ResourceClass {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ResourceClass::GpuCompute => "gpu",
            ResourceClass::CpuCompute => "cpu",
            ResourceClass::PcieG2M => "pcie-g2m",
            ResourceClass::PcieM2G => "pcie-m2g",
            ResourceClass::SsdArray => "ssd",
            ResourceClass::Overhead => "overhead",
        }
    }
}

/// A memory tier for residency-interval accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTier {
    /// GPU device memory.
    Gpu,
    /// Host main memory.
    Host,
    /// The SSD array.
    Ssd,
}

impl MemTier {
    /// All tiers, in capacity order.
    pub const ALL: [MemTier; 3] = [MemTier::Gpu, MemTier::Host, MemTier::Ssd];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            MemTier::Gpu => "gpu",
            MemTier::Host => "host",
            MemTier::Ssd => "ssd",
        }
    }
}

/// A residency allocation: `bytes` of `blob` occupy `tier` from the
/// *start* of the allocating task — the bytes land while it runs — until
/// the completion of the task that records the matching
/// [`TaskMeta::frees`] entry (or to the end of the graph and beyond). As
/// a [`TaskMeta::transits`] entry the bytes enter and leave the tier
/// inside the one task: they are held only while it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidencyAlloc {
    /// Which tier holds the bytes.
    pub tier: MemTier,
    /// Which blob they belong to (used to match the release).
    pub blob: BlobKey,
    /// How many bytes.
    pub bytes: f64,
}

/// Semantic metadata attached to one task. Everything defaults to empty;
/// a default `TaskMeta` with just an op class and iteration is already
/// useful to the legality pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMeta {
    /// Operation class, checked against the bound resource's class.
    pub op: OpClass,
    /// 0-based training iteration the task belongs to.
    pub iteration: usize,
    /// The task's typed identity; `None` on hand-built graphs that only
    /// exercise the static passes.
    pub identity: Option<TaskIdentity>,
    /// Versioned blobs this task consumes.
    pub reads: Vec<VersionedBlob>,
    /// Versioned blobs this task produces.
    pub writes: Vec<VersionedBlob>,
    /// Residency intervals opened by this task.
    pub allocs: Vec<ResidencyAlloc>,
    /// Bytes that pass through a tier while this task runs (the GPU side
    /// of an offload, a blob built and written out by one handler).
    pub transits: Vec<ResidencyAlloc>,
    /// Residency intervals (identified by tier + blob) closed by this
    /// task's completion.
    pub frees: Vec<(MemTier, BlobKey)>,
}

impl TaskMeta {
    /// Metadata with an op class and iteration, nothing else.
    pub fn new(op: OpClass, iteration: usize) -> Self {
        TaskMeta {
            op,
            iteration,
            identity: None,
            reads: Vec::new(),
            writes: Vec::new(),
            allocs: Vec::new(),
            transits: Vec::new(),
            frees: Vec::new(),
        }
    }

    /// Adds a read.
    pub fn read(mut self, blob: VersionedBlob) -> Self {
        self.reads.push(blob);
        self
    }

    /// Adds a write.
    pub fn write(mut self, blob: VersionedBlob) -> Self {
        self.writes.push(blob);
        self
    }

    /// Opens a residency interval (skipped for zero/negative sizes).
    pub fn alloc(mut self, tier: MemTier, blob: BlobKey, bytes: f64) -> Self {
        if bytes > 0.0 {
            self.allocs.push(ResidencyAlloc { tier, blob, bytes });
        }
        self
    }

    /// Holds bytes in a tier for the task's own duration (skipped for
    /// zero/negative sizes).
    pub fn transit(mut self, tier: MemTier, blob: BlobKey, bytes: f64) -> Self {
        if bytes > 0.0 {
            self.transits.push(ResidencyAlloc { tier, blob, bytes });
        }
        self
    }

    /// Closes a residency interval.
    pub fn free(mut self, tier: MemTier, blob: BlobKey) -> Self {
        self.frees.push((tier, blob));
        self
    }
}

/// A dependency edge `from -> to` (`to` waits for `from`), as reported
/// by a task graph's edge iterator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// The prerequisite task.
    pub from: TaskId,
    /// The dependent task.
    pub to: TaskId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistent_kinds_are_exactly_params_master_and_moments() {
        for kind in [
            BlobKind::Param16,
            BlobKind::Master,
            BlobKind::Grad,
            BlobKind::GradReduced,
            BlobKind::Act,
            BlobKind::Flow,
            BlobKind::FlowGrad,
            BlobKind::Stage,
            BlobKind::StageOpt,
            BlobKind::Moments,
            BlobKind::P16Fwd,
            BlobKind::P16Bwd,
            BlobKind::P16Pinned,
            BlobKind::Ckpt,
            BlobKind::GradMicro,
            BlobKind::Kv,
            BlobKind::MasterLoading,
            BlobKind::MomentsLoading,
            BlobKind::P16Loading,
        ] {
            assert_eq!(
                kind.is_persistent(),
                matches!(
                    kind,
                    BlobKind::Param16 | BlobKind::Master | BlobKind::Moments
                ),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn meta_builder_accumulates_and_skips_empty_allocs() {
        let blob = BlobKey::shared(BlobKind::Grad, 3);
        let meta = TaskMeta::new(OpClass::CpuCompute, 0)
            .read(VersionedBlob {
                key: blob,
                version: 1,
            })
            .alloc(MemTier::Host, blob, 0.0)
            .alloc(MemTier::Host, blob, 64.0)
            .transit(MemTier::Gpu, blob, 0.0)
            .transit(MemTier::Gpu, blob, 64.0)
            .free(MemTier::Host, blob);
        assert_eq!(meta.reads.len(), 1);
        assert_eq!(meta.allocs.len(), 1);
        assert_eq!(meta.transits.len(), 1);
        assert_eq!(meta.frees.len(), 1);
    }

    #[test]
    fn span_kind_indices_follow_all() {
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{}", kind.name());
        }
        assert_eq!(SpanKind::from(Stage::Backward), SpanKind::Backward);
        assert_eq!(TaskKind::BwdFetch.span_kind(), SpanKind::Prefetch);
        assert_eq!(TaskKind::OptWrite.span_kind(), SpanKind::Optimizer);
    }

    #[test]
    fn display_formats_are_stable() {
        let shared = BlobKey::shared(BlobKind::Param16, 2);
        let per_gpu = BlobKey::on_gpu(BlobKind::Flow, 1, 0);
        assert_eq!(shared.to_string(), "p16[L2]");
        assert_eq!(per_gpu.to_string(), "flow[L1 g0]");
        let chunk = BlobKey::on_gpu(BlobKind::Act, 4, 0).chunk(Some(2));
        assert_eq!(chunk.to_string(), "act[L4#2 g0]");
        let v = VersionedBlob {
            key: shared,
            version: 4,
        };
        assert_eq!(v.to_string(), "p16[L2]@v4");
    }
}
