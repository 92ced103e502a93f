//! Small, faithful models of two Ratel sync protocols and of a lock
//! order, plus seeded-bug mutants.
//!
//! Each module models one protocol with [`crate::sync`] primitives so it
//! runs under the [`crate::explore::Explorer`]:
//!
//! * [`seqlock`] — the flight-recorder seqlock ring
//!   (`crates/obs/src/flight.rs`): invalidate-stamp / payload / publish-
//!   stamp writer vs. stamp / payload / stamp-recheck reader.
//! * [`pending`] — the `TieredStore` pending-key condvar protocol
//!   (`crates/storage/src/store.rs`): I/O marked pending outside the
//!   lock, waiters blocked on a condvar until the key clears.
//! * [`locks`] — a two-lock ordering model for the lock-order tracker
//!   and explorer deadlock detection.
//!
//! Every module has a `Pristine` variant (must pass full bounded
//! exploration) and at least one seeded-bug mutant (must be caught with
//! an interleaving witness); `tests/check_mutations.rs` at the workspace
//! root enforces both directions. The executor has no model: its
//! dispatch is one state machine under one lock (`ratel_sim::Dispatcher`),
//! whose every completion order `ratel-sim`'s own tests enumerate.

pub mod locks;
pub mod pending;
pub mod seqlock;
