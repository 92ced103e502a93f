//! Storage error types.

use std::fmt;

use crate::fault::FaultOp;
use crate::store::Tier;

/// Errors raised by the tiered store.
#[derive(Debug)]
pub enum StorageError {
    /// A tier's byte capacity would be exceeded — the honest OOM that
    /// bounds maximum trainable model size.
    OutOfMemory {
        /// Tier that ran out.
        tier: Tier,
        /// Bytes the operation needed.
        requested: u64,
        /// Bytes actually free.
        available: u64,
    },
    /// The key is not present in any tier.
    NotFound(String),
    /// The key already exists (put of a duplicate).
    AlreadyExists(String),
    /// The key was named twice in one [`crate::TieredStore::modify`],
    /// which hands out each blob's bytes exclusively.
    DuplicateKey(String),
    /// [`crate::TieredStore::modify`] named a key on the SSD tier: it
    /// updates blobs where a memory tier holds them, and only there.
    NotInMemory(String),
    /// Underlying filesystem failure in the SSD tier.
    Io(std::io::Error),
    /// An SSD-tier fault (injected by a [`crate::FaultPlan`], or a real
    /// I/O error) that survived the store's bounded retries.
    Faulted {
        /// The SSD operation that kept failing.
        op: FaultOp,
        /// Blob key the operation targeted.
        key: String,
        /// Attempts made (1 initial + retries) before giving up.
        attempts: u32,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfMemory {
                tier,
                requested,
                available,
            } => write!(
                f,
                "{tier:?} tier out of memory: need {requested} bytes, {available} free"
            ),
            StorageError::NotFound(k) => write!(f, "blob {k:?} not found"),
            StorageError::AlreadyExists(k) => write!(f, "blob {k:?} already exists"),
            StorageError::DuplicateKey(k) => {
                write!(f, "blob {k:?} named twice in one in-place modify")
            }
            StorageError::NotInMemory(k) => {
                write!(f, "blob {k:?} is on the ssd tier, out of modify's reach")
            }
            StorageError::Io(e) => write!(f, "ssd tier I/O error: {e}"),
            StorageError::Faulted { op, key, attempts } => write!(
                f,
                "ssd {} of {key:?} still failing after {attempts} attempts",
                op.name()
            ),
        }
    }
}

impl StorageError {
    /// Whether retrying the operation could plausibly succeed — the
    /// store's retry loop re-issues only these. Logical errors
    /// (missing/duplicate keys, capacity) are never retried.
    pub fn is_retryable(&self) -> bool {
        matches!(self, StorageError::Io(_) | StorageError::Faulted { .. })
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::OutOfMemory {
            tier: Tier::Gpu,
            requested: 100,
            available: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains("Gpu") && msg.contains("100") && msg.contains("10"));
        assert!(StorageError::NotFound("k".into()).to_string().contains("k"));
    }
}
