#![warn(missing_docs)]
//! Ratel: holistic data-movement optimization for fine-tuning 100B-scale
//! models on a single consumer GPU (ICDE 2025 reproduction).
//!
//! The crate has two faces:
//!
//! * **Analytic/simulated** — [`profile::HardwareProfile`] (the
//!   hardware-aware profiling stage, §IV-B), [`planner`] (the convex
//!   iteration-time model and Algorithm 1, §IV-D), [`memory`] (feasibility
//!   of a model/batch on a server), and [`schedule`] (builds per-layer task
//!   graphs executed by `ratel-sim`, including the naive and optimized
//!   active-gradient-offloading schedules of §IV-C). These regenerate the
//!   paper's figures.
//! * **Real execution** — [`engine`] actually fine-tunes a small GPT
//!   through `ratel-storage` tiers: parameters and optimizer states live as
//!   blobs in the SSD tier, activations are swapped or recomputed per the
//!   planner's decisions, and CPU optimizer tasks consume gradients the
//!   moment backward produces them (active gradient offloading) while
//!   keeping updates fully synchronous — one verified task DAG per step,
//!   run on per-resource worker pools.

pub mod api;
pub mod batch;
pub mod cost;
pub mod engine;
pub mod error;
pub mod memory;
pub mod offload;
pub mod planner;
pub mod profile;
pub mod report;
pub mod schedule;

pub use api::{Ratel, RatelTrainer, TrainingPlan};
pub use batch::Batch;
pub use error::RatelError;
pub use memory::RatelMemoryModel;
pub use offload::GradOffloadMode;
pub use planner::{ActivationPlanner, SwapPlan};
pub use profile::HardwareProfile;
pub use report::IterationReport;
pub use schedule::RatelSchedule;
// The static schedule analyzer, re-exported so downstream code can
// verify the specs this crate emits without naming a second crate.
pub use ratel_verify as verify;

/// One-stop imports for the plan-first training flow:
///
/// ```no_run
/// use ratel::prelude::*;
///
/// let trainer = Ratel::init(GptConfig::tiny()).plan()?.build()?;
/// # Ok::<(), RatelError>(())
/// ```
pub mod prelude {
    pub use crate::api::{Ratel, RatelTrainer, TrainingPlan};
    pub use crate::batch::Batch;
    pub use crate::engine::executor::TaskBreakdown;
    pub use crate::engine::{
        ActDecision, EngineConfig, ExecutionOptions, ExecutorOptions, RatelEngine, StepStats,
    };
    pub use crate::error::RatelError;
    pub use crate::offload::GradOffloadMode;
    pub use crate::schedule::Placement;
    pub use ratel_tensor::{AdamParams, GptConfig};
}
