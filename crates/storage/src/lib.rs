#![warn(missing_docs)]
//! A three-tier tensor store: "GPU" arena, host pool, and an SSD volume
//! backed by real files.
//!
//! This is the substrate the *real* out-of-core engine runs on. It mirrors
//! the paper's memory hierarchy at API level:
//!
//! * every blob lives in exactly one tier at a time;
//! * the GPU and host tiers have hard byte capacities — exceeding one is an
//!   out-of-memory error, which is how the maximum-trainable-size
//!   experiments fail honestly;
//! * blobs are named by a key type of the caller's choosing (the engine's
//!   typed `BlobKey`, or `String`); the SSD tier keeps each blob's bytes
//!   in a file of its own that it names itself, so offloaded model states
//!   and activations really leave memory, no key can collide with
//!   another's file, and the tier's `used` is the bytes on disk;
//! * consumer GPUs have no GPUDirect (§III-C), so a GPU→SSD move is
//!   forcibly two hops (GPU→Host, Host→SSD) and both hops are metered;
//! * all inter-tier traffic is counted per route, letting tests assert the
//!   exact byte flows the paper reasons about (e.g. "the optimizer reads
//!   12P and writes 14P per iteration");
//! * the SSD tier can be wrapped in a deterministic [`FaultPlan`] that
//!   injects transient/permanent I/O errors and latency spikes, with
//!   bounded [`RetryPolicy`] recovery and always-on [`FaultStats`]
//!   counters — the failure model chaos tests and the simulator share.

pub mod error;
pub mod fault;
pub mod store;
pub mod telemetry;
pub mod traffic;

pub use error::StorageError;
pub use fault::{FaultEvent, FaultKind, FaultOp, FaultPlan, RetryPolicy};
pub use store::{Tier, TierConfig, TieredStore};
pub use telemetry::{FaultStats, LatencyHistogram, RouteMetrics, SpanRecord, TelemetryRecorder};
pub use traffic::{Route, TrafficSnapshot};
