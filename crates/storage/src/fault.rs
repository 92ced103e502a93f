//! Deterministic fault injection for the SSD tier.
//!
//! Commodity NVMe arrays — the substrate the paper's consumer-GPU rig
//! trains on — throw transient I/O errors, stall on internal GC, and
//! occasionally die outright. A [`FaultPlan`] scripts those failures
//! deterministically: every SSD-tier file operation the
//! [`crate::TieredStore`] performs consults the plan, which decides by
//! *operation index* (a global, monotonically increasing counter of SSD
//! ops) whether to inject a fault. Because injection keys off the op
//! counter and the store's op sequence is deterministic for a fixed
//! workload, a seeded plan reproduces the exact same failure schedule on
//! every run — chaos tests can assert bitwise-identical training results
//! with and without faults.
//!
//! Three fault kinds model the failure taxonomy:
//!
//! * [`FaultKind::Transient`] — the op fails once with an injected I/O
//!   error; the store's bounded retry (see `TieredStore`) re-issues it,
//!   which consumes a *new* op index and therefore succeeds. This is the
//!   bit-flip / command-timeout class a retry absorbs.
//! * [`FaultKind::Permanent`] — every op from that index onward fails:
//!   a dead drive. Retries are exhausted and the error surfaces.
//! * [`FaultKind::LatencySpike`] — the op succeeds but only after an
//!   injected sleep: SSD garbage-collection pauses and thermal
//!   throttling. Numerics are untouched; only wall-clock suffers.

use std::borrow::Borrow;

use ratel_check::sync::Mutex;

/// Which SSD-tier file operation a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Reading a blob's bytes from its file (`SSD -> Main` data path).
    Read,
    /// Writing a blob's bytes to a new file of its own (`Main -> SSD`
    /// data path).
    Write,
}

impl FaultOp {
    /// Short stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
        }
    }

    /// Stable index, matching the flight recorder's retry/give-up `code`
    /// contract (`ratel_obs::EventKind::code_name` resolves it back).
    pub fn index(self) -> usize {
        match self {
            FaultOp::Read => 0,
            FaultOp::Write => 1,
        }
    }
}

/// What kind of failure to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail this one op with an injected I/O error; a retry succeeds.
    Transient,
    /// Fail this and every later matching op — a dead device.
    Permanent,
    /// Delay the op by the given seconds, then let it succeed.
    LatencySpike(f64),
}

/// One injected fault, recorded for post-run inspection.
#[derive(Debug, Clone)]
pub struct FaultEvent<K = String> {
    /// Global SSD op index at which the fault fired.
    pub op_index: u64,
    /// The operation that was hit.
    pub op: FaultOp,
    /// Blob key the operation targeted.
    pub key: K,
    /// The injected failure.
    pub kind: FaultKind,
}

/// One scripted fault in a plan.
#[derive(Debug, Clone)]
enum Rule<K> {
    /// Fires by global op index.
    AtIndex {
        /// Restrict to one op type (`None` matches any).
        op: Option<FaultOp>,
        /// Op index the rule triggers at. `Transient`/`LatencySpike` fire
        /// at exactly this index; `Permanent` fires at this index and
        /// every one after it.
        at_op: u64,
        kind: FaultKind,
    },
    /// Fires by blob key, independent of op ordering — the deterministic
    /// choice when several threads interleave SSD ops and the global
    /// index is racy. `Transient`/`LatencySpike` fire on the *first*
    /// matching op only; `Permanent` fires on every matching op.
    OnKey {
        /// Restrict to one op type (`None` matches any).
        op: Option<FaultOp>,
        key: K,
        kind: FaultKind,
        fired: bool,
        /// Matching ops still to let through before the rule applies.
        skip: u64,
    },
}

#[derive(Debug)]
struct Inner<K> {
    rules: Vec<Rule<K>>,
    next_op: u64,
    injected: Vec<FaultEvent<K>>,
}

/// A deterministic schedule of SSD faults, shared with a
/// [`crate::TieredStore`] via `Arc` and keyed like it.
///
/// The plan is consulted *before* each SSD file operation; the op counter
/// advances on every consultation (including retries, which is what makes
/// a [`FaultKind::Transient`] fault recoverable: the retry presents a new
/// index that no longer matches the rule).
#[derive(Debug)]
pub struct FaultPlan<K = String> {
    inner: Mutex<Inner<K>>,
}

impl<K> Default for FaultPlan<K> {
    fn default() -> Self {
        let inner = Inner {
            rules: Vec::new(),
            next_op: 0,
            injected: Vec::new(),
        };
        FaultPlan {
            inner: Mutex::named("storage.fault_plan", inner),
        }
    }
}

/// SplitMix64 — a tiny, dependency-free deterministic PRNG step, used to
/// scatter seeded fault indices.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<K: Clone + Eq> FaultPlan<K> {
    /// An empty plan: no faults, but the op counter still runs, so the
    /// plan doubles as an SSD-op profiler (see [`FaultPlan::ops_seen`]).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan with `count` transient faults at distinct pseudorandom op
    /// indices in `[0, window)`, deterministic in `seed`. `window` should
    /// be (an estimate of) the total SSD ops of the workload — run once
    /// with an empty plan and read [`FaultPlan::ops_seen`] to measure it.
    pub fn seeded_transient(seed: u64, count: usize, window: u64) -> Self {
        assert!(window > 0, "fault window must be non-empty");
        assert!(
            (count as u64) <= window,
            "cannot place {count} faults in {window} ops"
        );
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let mut indices = std::collections::BTreeSet::new();
        while indices.len() < count {
            indices.insert(splitmix64(&mut state) % window);
        }
        let plan = FaultPlan::new();
        {
            let mut inner = plan.inner.lock();
            for at_op in indices {
                inner.rules.push(Rule::AtIndex {
                    op: None,
                    at_op,
                    kind: FaultKind::Transient,
                });
            }
        }
        plan
    }

    /// Adds one scripted fault at `at_op` (any op type).
    pub fn fault_at(&self, at_op: u64, kind: FaultKind) {
        self.inner.lock().rules.push(Rule::AtIndex {
            op: None,
            at_op,
            kind,
        });
    }

    /// Adds one scripted fault at `at_op`, restricted to `op`.
    pub fn fault_at_op(&self, at_op: u64, op: FaultOp, kind: FaultKind) {
        self.inner.lock().rules.push(Rule::AtIndex {
            op: Some(op),
            at_op,
            kind,
        });
    }

    /// Adds a fault targeting a blob key (any op type): deterministic
    /// even when concurrent threads race for op indices.
    /// `Transient`/`LatencySpike` fire on the first op touching `key`;
    /// `Permanent` fires on all of them.
    pub fn fault_on_key<Q: ?Sized + ToOwned<Owned = K>>(&self, key: &Q, kind: FaultKind) {
        self.push_key_rule(key.to_owned(), None, kind);
    }

    /// Like [`FaultPlan::fault_on_key`], restricted to one op type.
    pub fn fault_on_key_op<Q>(&self, key: &Q, op: FaultOp, kind: FaultKind)
    where
        Q: ?Sized + ToOwned<Owned = K>,
    {
        self.push_key_rule(key.to_owned(), Some(op), kind);
    }

    /// Like [`FaultPlan::fault_on_key_op`], from the `nth` (0-based) op
    /// of type `op` touching `key` on: the first `nth` pass. A blob read
    /// once per pass of a run is faulted in pass `nth` this way, however
    /// its reads interleave with other blobs'.
    pub fn fault_on_nth_key_op<Q>(&self, key: &Q, op: FaultOp, nth: u64, kind: FaultKind)
    where
        Q: ?Sized + ToOwned<Owned = K>,
    {
        self.push_rule(key.to_owned(), Some(op), kind, nth);
    }

    fn push_key_rule(&self, key: K, op: Option<FaultOp>, kind: FaultKind) {
        self.push_rule(key, op, kind, 0);
    }

    fn push_rule(&self, key: K, op: Option<FaultOp>, kind: FaultKind, skip: u64) {
        self.inner.lock().rules.push(Rule::OnKey {
            op,
            key,
            kind,
            fired: false,
            skip,
        });
    }

    /// Consults the plan for the next SSD operation. Advances the op
    /// counter and returns the fault to inject, if any. Called by the
    /// store; not normally called by users.
    pub fn before_op<Q>(&self, op: FaultOp, key: &Q) -> Option<FaultKind>
    where
        K: Borrow<Q>,
        Q: ?Sized + Eq + ToOwned<Owned = K>,
    {
        let mut inner = self.inner.lock();
        let idx = inner.next_op;
        inner.next_op += 1;
        let kind = inner.rules.iter_mut().find_map(|r| match r {
            Rule::AtIndex {
                op: rop,
                at_op,
                kind,
            } => {
                let op_matches = rop.is_none() || *rop == Some(op);
                let idx_matches = match kind {
                    FaultKind::Permanent => idx >= *at_op,
                    FaultKind::Transient | FaultKind::LatencySpike(_) => idx == *at_op,
                };
                (op_matches && idx_matches).then_some(*kind)
            }
            Rule::OnKey {
                op: rop,
                key: rkey,
                kind,
                fired,
                skip,
            } => {
                let op_matches = rop.is_none() || *rop == Some(op);
                let once_ok = matches!(kind, FaultKind::Permanent) || !*fired;
                if op_matches && (*rkey).borrow() == key && *skip > 0 {
                    *skip -= 1;
                    None
                } else if op_matches && (*rkey).borrow() == key && once_ok {
                    *fired = true;
                    Some(*kind)
                } else {
                    None
                }
            }
        })?;
        inner.injected.push(FaultEvent {
            op_index: idx,
            op,
            key: key.to_owned(),
            kind,
        });
        Some(kind)
    }

    /// Total SSD ops consulted so far (fired or not).
    pub fn ops_seen(&self) -> u64 {
        self.inner.lock().next_op
    }

    /// Every fault injected so far, in firing order.
    pub fn injected(&self) -> Vec<FaultEvent<K>> {
        self.inner.lock().injected.clone()
    }

    /// Number of faults injected so far.
    pub fn injected_count(&self) -> usize {
        self.inner.lock().injected.len()
    }
}

/// Bounded retry-with-backoff policy for SSD-tier I/O errors.
///
/// Attempt `k` (1-based) sleeps `base_seconds * multiplier^(k-1)` before
/// re-issuing the op. Transient faults clear within a retry or two;
/// permanent ones exhaust the budget and surface as
/// [`crate::StorageError::Faulted`] / [`crate::StorageError::Io`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 disables retrying).
    pub max_retries: u32,
    /// Sleep before the first retry, in seconds.
    pub base_seconds: f64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    /// Three retries starting at 500 µs, doubling: worst case ~3.5 ms of
    /// backoff per op — invisible next to an SSD round trip, enough to
    /// ride out transient device hiccups.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_seconds: 5e-4,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based), in seconds.
    pub fn backoff_seconds(&self, attempt: u32) -> f64 {
        self.base_seconds * self.multiplier.powi(attempt.saturating_sub(1) as i32)
    }

    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_seconds: 0.0,
            multiplier: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fires_exactly_once_at_its_index() {
        let plan = FaultPlan::new();
        plan.fault_at(2, FaultKind::Transient);
        assert_eq!(plan.before_op(FaultOp::Read, "a"), None); // op 0
        assert_eq!(plan.before_op(FaultOp::Write, "b"), None); // op 1
        assert_eq!(
            plan.before_op(FaultOp::Read, "c"),
            Some(FaultKind::Transient)
        ); // op 2
        assert_eq!(plan.before_op(FaultOp::Read, "c"), None); // op 3: retry clears
        assert_eq!(plan.injected_count(), 1);
        let ev = &plan.injected()[0];
        assert_eq!(ev.op_index, 2);
        assert_eq!(ev.key, "c");
    }

    #[test]
    fn permanent_fires_from_its_index_onward() {
        let plan = FaultPlan::new();
        plan.fault_at(1, FaultKind::Permanent);
        assert_eq!(plan.before_op(FaultOp::Write, "k"), None);
        for _ in 0..5 {
            assert_eq!(
                plan.before_op(FaultOp::Write, "k"),
                Some(FaultKind::Permanent)
            );
        }
        assert_eq!(plan.injected_count(), 5);
    }

    #[test]
    fn op_restricted_rules_skip_other_ops() {
        let plan = FaultPlan::new();
        plan.fault_at_op(0, FaultOp::Write, FaultKind::Transient);
        assert_eq!(plan.before_op(FaultOp::Read, "k"), None); // op 0, wrong type
        assert_eq!(plan.before_op(FaultOp::Write, "k"), None); // op 1, right type, wrong index
    }

    #[test]
    fn seeded_plans_are_deterministic_and_distinct() {
        let a = FaultPlan::seeded_transient(7, 5, 100);
        let b = FaultPlan::seeded_transient(7, 5, 100);
        let c = FaultPlan::seeded_transient(8, 5, 100);
        let fire = |p: &FaultPlan| -> Vec<u64> {
            (0..100)
                .filter(|_| p.before_op(FaultOp::Read, "k").is_some())
                .map(|i| i as u64)
                .collect()
        };
        let fa = fire(&a);
        assert_eq!(fa.len(), 5, "all 5 faults must land in the window");
        assert_eq!(fa, fire(&b), "same seed, same schedule");
        assert_ne!(fa, fire(&c), "different seed, different schedule");
    }

    #[test]
    fn key_rules_fire_regardless_of_op_order() {
        let plan = FaultPlan::new();
        plan.fault_on_key("slow", FaultKind::LatencySpike(0.5));
        // Ops on other keys at any index are untouched.
        assert_eq!(plan.before_op(FaultOp::Write, "other"), None);
        assert_eq!(plan.before_op(FaultOp::Read, "another"), None);
        assert_eq!(
            plan.before_op(FaultOp::Write, "slow"),
            Some(FaultKind::LatencySpike(0.5))
        );
        // One-shot: the next op on the same key is clean.
        assert_eq!(plan.before_op(FaultOp::Read, "slow"), None);
        assert_eq!(plan.injected_count(), 1);
        assert_eq!(plan.injected()[0].key, "slow");
    }

    #[test]
    fn key_rule_op_restriction_applies() {
        let plan = FaultPlan::new();
        plan.fault_on_key_op("k", FaultOp::Read, FaultKind::Transient);
        assert_eq!(plan.before_op(FaultOp::Write, "k"), None);
        assert_eq!(
            plan.before_op(FaultOp::Read, "k"),
            Some(FaultKind::Transient)
        );
    }

    #[test]
    fn retry_policy_backoff_grows_geometrically() {
        let p = RetryPolicy {
            max_retries: 3,
            base_seconds: 0.001,
            multiplier: 2.0,
        };
        assert!((p.backoff_seconds(1) - 0.001).abs() < 1e-12);
        assert!((p.backoff_seconds(2) - 0.002).abs() < 1e-12);
        assert!((p.backoff_seconds(3) - 0.004).abs() < 1e-12);
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }
}
