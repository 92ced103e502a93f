#![warn(missing_docs)]
//! Unified observability plane for the Ratel reproduction.
//!
//! Three pillars, each deliberately below every other workspace crate in
//! the dependency order so the storage engine, the training engine, and
//! the bench harness can all feed it:
//!
//! * **Metrics registry** ([`Registry`], [`metrics`]) — typed counters,
//!   gauges, and power-of-two latency histograms under one `ratel_*`
//!   namespace, exportable as Prometheus text exposition format or JSONL
//!   (both hand-rolled; the workspace has no serde). A self-check parser
//!   ([`metrics::validate_prometheus`]) lets CI prove the export is
//!   well-formed without a real Prometheus.
//! * **Flight recorder** ([`FlightRecorder`], [`flight`]) — an always-on,
//!   fixed-capacity, lock-free ring of compact events (transfers,
//!   retries, checkpoint commits, spans, step markers). Recording
//!   an event costs one `fetch_add` plus a handful of relaxed stores, so
//!   it stays on even when full span telemetry is disabled: a black box
//!   for crash forensics.
//! * **Postmortem dumps** ([`dump_postmortem`]) — whenever a training
//!   error surfaces, a fault exhausts its retry budget, or a checkpoint
//!   load falls back a generation, the ring is serialized to a JSON file
//!   so the events leading up to the failure survive the process.
//!
//! The plan-conformance monitor that consumes this plane lives in
//! `ratel::engine::conformance` (it needs the schedule twin, which sits
//! above this crate).

pub mod flight;
pub mod metrics;

pub use flight::{flight, EventKind, FlightEvent, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, Registry};

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use ratel_check::sync::Mutex;

/// The process-global metrics registry. Bridges all over the workspace
/// publish into this one instance so a single export call sees the whole
/// `ratel_*` namespace.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

fn postmortem_state() -> &'static Mutex<(Option<PathBuf>, Option<PathBuf>)> {
    // (configured dir, last dump path)
    static STATE: OnceLock<Mutex<(Option<PathBuf>, Option<PathBuf>)>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::named("obs.postmortem", (None, None)))
}

/// Overrides where postmortem dumps are written (highest precedence;
/// above the `RATEL_POSTMORTEM_DIR` environment variable and the system
/// temp dir). Intended for tests and embedding harnesses.
pub fn set_postmortem_dir(dir: impl Into<PathBuf>) {
    postmortem_state().lock().0 = Some(dir.into());
}

/// The file a postmortem dump will be (over)written to: one file per
/// process, under the configured dir, `RATEL_POSTMORTEM_DIR`, or the
/// system temp dir.
pub fn postmortem_path() -> PathBuf {
    let configured = postmortem_state().lock().0.clone();
    let dir = configured
        .or_else(|| std::env::var_os("RATEL_POSTMORTEM_DIR").map(PathBuf::from))
        .unwrap_or_else(std::env::temp_dir);
    dir.join(format!("ratel-postmortem-{}.json", std::process::id()))
}

/// Serializes the global flight recorder to the postmortem file (see
/// [`postmortem_path`]), recording `reason` in the dump header. Returns
/// the written path, or `None` if the write failed (postmortems are
/// best-effort: a failing dump must never mask the original error).
pub fn dump_postmortem(reason: &str) -> Option<PathBuf> {
    let path = postmortem_path();
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let json = flight().dump_json(reason);
    match std::fs::write(&path, json) {
        Ok(()) => {
            postmortem_state().lock().1 = Some(path.clone());
            Some(path)
        }
        Err(_) => None,
    }
}

/// Path of the most recent successful [`dump_postmortem`] in this
/// process, if any.
pub fn last_postmortem() -> Option<PathBuf> {
    postmortem_state().lock().1.clone()
}

/// Convenience: `true` if `path` exists and parses as a flight-recorder
/// dump (has a `"reason"` header and an `"events"` array). Used by tests
/// and the bench harness to sanity-check dumps without a JSON parser.
pub fn looks_like_postmortem(path: &Path) -> bool {
    match std::fs::read_to_string(path) {
        Ok(text) => text.contains("\"reason\"") && text.contains("\"events\""),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postmortem_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ratel-obs-pm-{}", std::process::id()));
        set_postmortem_dir(&dir);
        flight().record(EventKind::Retry, 0, "layer0/p16", 0, 1);
        let path = dump_postmortem("unit test").expect("dump should succeed");
        assert_eq!(path, postmortem_path());
        assert_eq!(last_postmortem().as_deref(), Some(path.as_path()));
        assert!(looks_like_postmortem(&path));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("unit test"));
        assert!(text.contains("layer0/p16"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
