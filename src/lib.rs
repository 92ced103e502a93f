#![warn(missing_docs)]
//! # ratel-repro
//!
//! A from-scratch Rust reproduction of **"Ratel: Optimizing Holistic Data
//! Movement to Fine-tune 100B Model on a Consumer GPU"** (ICDE 2025).
//!
//! The workspace builds everything the paper describes or depends on:
//!
//! * [`tensor`] — a CPU tensor/transformer library with explicit per-layer
//!   forward/backward and emulated half precision;
//! * [`storage`] — a three-tier store (GPU arena / host pool / SSD spill
//!   files) with byte-metered inter-tier traffic;
//! * [`hw`] — the evaluation server's hardware catalog (Table III/VII);
//! * [`model`] — analytic model descriptions (Tables II/IV/VI);
//! * [`sim`] — a deterministic discrete-event simulator of intra-server
//!   tensor movement;
//! * [`core`] — Ratel itself: hardware-aware profiling (§IV-B), active
//!   gradient offloading (§IV-C), the convex activation planner (§IV-D),
//!   schedule builders, and a *real* out-of-core training engine whose
//!   results are bit-identical to in-memory training;
//! * [`baselines`] — ZeRO-Infinity/Offload, Colossal-AI, FlashNeuron, G10,
//!   Capuchin, Checkmate, Megatron-LM, and Fast-DiT as strategies.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure; `cargo run -p ratel-bench
//! --bin repro all` regenerates them.

pub use ratel as core;
pub use ratel_baselines as baselines;
pub use ratel_hw as hw;
pub use ratel_model as model;
pub use ratel_obs as obs;
pub use ratel_sim as sim;
pub use ratel_storage as storage;
pub use ratel_tensor as tensor;

/// Convenience prelude for the examples and downstream users.
pub mod prelude {
    pub use ratel::engine::data::{corpus_batches, learnable_batch, random_batch, CharVocab};
    pub use ratel::engine::executor::TaskBreakdown;
    pub use ratel::engine::lr::LrSchedule;
    pub use ratel::engine::reference::ReferenceTrainer;
    pub use ratel::engine::scaler::ScalePolicy;
    pub use ratel::engine::{
        ActDecision, EngineConfig, ExecutionOptions, ExecutorOptions, RatelEngine, StepStats,
    };
    pub use ratel::offload::GradOffloadMode;
    pub use ratel::planner::{ActivationPlanner, SwapPlan};
    pub use ratel::profile::HardwareProfile;
    pub use ratel::schedule::{Placement, RatelSchedule};
    pub use ratel::{Batch, Ratel, RatelError, RatelMemoryModel, RatelTrainer, TrainingPlan};
    pub use ratel_baselines::{ActStrategy, System};
    pub use ratel_hw::{GpuSpec, ServerConfig};
    pub use ratel_model::{zoo, ModelConfig, ModelProfile};
    pub use ratel_tensor::{AdamParams, GptConfig};
}
