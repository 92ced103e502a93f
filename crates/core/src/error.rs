//! The crate-level error type of the public API.
//!
//! Two PRs of organic growth had every public function leak
//! [`StorageError`] — a tier-local concern — straight to users, and left
//! config/batch mistakes to panic deep inside the tensor crate.
//! [`RatelError`] is the single error surface now: storage failures are
//! wrapped, config and batch problems are caught *before* the engine
//! runs, and checkpoint corruption (torn writes, bit rot) is its own
//! variant so callers can distinguish "retry the load" from "the drive
//! is gone".

use std::fmt;

use ratel_storage::StorageError;

/// Errors returned by the `ratel` crate's public API.
#[derive(Debug)]
pub enum RatelError {
    /// The tiered store failed underneath the engine (capacity, I/O,
    /// injected or real SSD faults that survived the retry budget).
    Storage(StorageError),
    /// The builder configuration is unusable. Every violation found is
    /// listed — fix them all in one pass instead of peeling an error per
    /// run.
    InvalidConfig(Vec<String>),
    /// A training/eval batch failed validation (mismatched lengths,
    /// out-of-vocabulary ids, wrong size for the model).
    InvalidBatch(String),
    /// A checkpoint on disk is missing, torn, or fails its checksums —
    /// and no earlier good generation could be loaded either.
    CheckpointCorrupt(String),
    /// The runtime itself failed: a pool thread could not be started or
    /// a task panicked. Distinct from task errors — the
    /// work may have been fine, the machinery running it was not.
    Runtime(String),
}

impl fmt::Display for RatelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatelError::Storage(e) => write!(f, "storage: {e}"),
            RatelError::InvalidConfig(violations) => {
                write!(f, "invalid configuration ({} problem", violations.len())?;
                if violations.len() != 1 {
                    write!(f, "s")?;
                }
                write!(f, "): {}", violations.join("; "))
            }
            RatelError::InvalidBatch(msg) => write!(f, "invalid batch: {msg}"),
            RatelError::CheckpointCorrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
            RatelError::Runtime(msg) => write!(f, "runtime: {msg}"),
        }
    }
}

impl std::error::Error for RatelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RatelError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for RatelError {
    fn from(e: StorageError) -> Self {
        RatelError::Storage(e)
    }
}

impl RatelError {
    /// The wrapped [`StorageError`], if this is a storage failure.
    pub fn as_storage(&self) -> Option<&StorageError> {
        match self {
            RatelError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let s: RatelError = StorageError::NotFound("k".into()).into();
        assert!(s.to_string().contains("not found"));
        assert!(s.as_storage().is_some());
        let c = RatelError::InvalidConfig(vec!["a".into(), "b".into()]);
        let msg = c.to_string();
        assert!(msg.contains("2 problems") && msg.contains("a; b"), "{msg}");
        let one = RatelError::InvalidConfig(vec!["x".into()]);
        assert!(one.to_string().contains("1 problem)"), "{one}");
        assert!(RatelError::InvalidBatch("len".into())
            .to_string()
            .contains("len"));
        assert!(RatelError::CheckpointCorrupt("torn".into())
            .to_string()
            .contains("torn"));
        assert!(RatelError::Runtime("spawn failed".into())
            .to_string()
            .contains("spawn failed"));
    }
}
