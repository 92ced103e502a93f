#![warn(missing_docs)]
//! A small deterministic discrete-event simulator of intra-server tensor
//! movement.
//!
//! Training-iteration schedules are expressed as a DAG of *tasks*, each
//! bound to one *resource* (GPU compute, each PCIe direction, the SSD
//! array, CPU compute). A resource serves one task at a time in (rank,
//! ready time, id) order; a task becomes ready when all its dependencies
//! have finished. With every rank 0 — the figures' schedules and the
//! baselines — that is ready order (FIFO), which mirrors how CUDA
//! streams, DMA engines, and an io_uring SSD queue behave at the
//! granularity the paper reasons about: fully pipelinable,
//! bandwidth-bound, no preemption; a plan that knows which task its
//! consumer needs soonest sets ranks ([`TaskGraph::set_rank`]) to issue
//! it first. That policy is one state
//! machine, the [`Dispatcher`], which the engine's executor drives with
//! worker threads too; [`simulate_width`] gives each resource the
//! executor's `width` slots.
//!
//! The engine reports the makespan, per-resource busy time, and per-stage
//! windows/utilizations — exactly the quantities in the paper's Fig. 1
//! stage breakdowns ("PCIe_G2M: 47%", "Optimizer (23s)") and the GPU-busy
//! percentages of Fig. 2b/2c. The recorded per-task timeline additionally
//! feeds the [`trace`] module: Chrome trace-event JSON export, ASCII
//! timelines, and an idle-gap ("bubble") analyzer.

pub mod dispatch;
pub mod engine;
pub mod graph;
pub mod meta;
pub mod report;
pub mod trace;

pub use dispatch::Dispatcher;
pub use engine::{simulate, simulate_width};
pub use graph::{ResourceId, Stage, TaskGraph, TaskId};
pub use meta::{
    BlobKey, BlobKind, Edge, MemTier, OpClass, ResidencyAlloc, ResourceClass, TaskIdentity,
    TaskKind, TaskMeta, TaskRef, VersionedBlob,
};
pub use report::{ResourceUsage, SimReport, StageReport, TimelineEntry};
pub use trace::{
    analyze_bubbles, ascii_timeline, bubble_summary, bubbles, chrome_trace_json,
    chrome_trace_json_timelines, critical_resource, utilization_breakdown, utilization_table,
    Bubble, BubbleReport, FlowEvent, SpanKind, Timeline, TimelineSpan, UtilizationRow,
};
