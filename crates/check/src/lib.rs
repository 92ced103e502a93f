#![warn(missing_docs)]
//! Concurrency analysis for the Ratel synchronization layer.
//!
//! PRs 5–7 hand-rolled exactly the primitives that fail silently under
//! rare interleavings: a condvar pending-key protocol in `TieredStore`,
//! dependency-counted ready queues in the executor, and a lock-free
//! seqlock ring in the flight recorder. This crate gives that layer the
//! same "provably safe before CI merges" treatment `ratel-verify` gives
//! plans, with three pillars:
//!
//! * **Shimmed sync primitives** ([`sync`]) — `Mutex`, `Condvar`,
//!   atomics, and `thread::spawn` wrappers that pass straight through to
//!   `std` in normal builds, feed the debug-build lock-order tracker
//!   when named, and — inside an [`explore::Explorer`] run — hand every
//!   blocking or atomic operation to a deterministic scheduler.
//! * **A bounded interleaving explorer** ([`explore`]) — loom/DPOR-style
//!   stateless search: model threads run one at a time, every sync
//!   operation is a schedule point, and the explorer enumerates
//!   schedules depth-first under a preemption bound (with an optional
//!   seeded-random mode for larger models). Deadlocks, lost wake-ups,
//!   and assertion failures are reported with a full interleaving
//!   witness naming each lock/atomic touched.
//! * **A runtime lock-order tracker** ([`lockorder`]) — always on in
//!   debug builds: every named-lock acquisition records an edge in a
//!   process-global acquisition graph and fails on cycles (potential
//!   deadlock); blocking operations (SSD I/O, sleeps, condvar waits
//!   with a foreign lock held) fail when executed under a tracked lock.
//!
//! The [`models`] module holds small, faithful models of the seqlock
//! ring, the pending-key/condvar handshake and a two-lock order, plus
//! seeded-bug mutants; `tests/check_mutations.rs` proves the explorer
//! catches every mutant and passes every pristine model.

pub mod explore;
pub mod lockorder;
pub mod models;
pub mod sync;

pub use explore::{CheckFailure, Explorer, FailureKind, Report};

/// Fails the current model run with `message`. Inside an explorer run
/// the failure is reported with the interleaving witness that led to
/// it; outside, this is a plain panic.
pub fn fail(message: impl Into<String>) -> ! {
    explore::fail(message.into())
}

/// Asserts a model invariant, failing the run with the interleaving
/// witness when it does not hold.
pub fn check(cond: bool, message: impl Into<String>) {
    if !cond {
        explore::fail(message.into());
    }
}
