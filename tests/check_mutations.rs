//! Seeded-bug mutant suite for `ratel-check`.
//!
//! Each modeled protocol — the flight-recorder seqlock, the store's
//! pending-key handshake, a two-lock order — runs twice: the pristine
//! protocol must pass full bounded exploration, and a seeded-bug mutant
//! — torn-read seqlock, lost-notify condvar, lock-order-inverted
//! two-lock — must be caught with a finding that names the lock/atomic
//! and carries an interleaving witness. The pending-key handshake is
//! also explored on the real `TieredStore`, not only on its model — the
//! in-place `modify` included. (The executor's dispatch has no model:
//! `ratel-sim`'s dispatcher tests enumerate its completion orders.)

use std::sync::Arc;

use ratel_check::models::{locks, pending, seqlock};
use ratel_check::sync::thread::spawn_named;
use ratel_check::{lockorder, CheckFailure, Explorer, FailureKind, Report};
use ratel_storage::{StorageError, Tier, TierConfig, TieredStore};

fn explore_model<F>(model: F) -> Result<Report, CheckFailure>
where
    F: Fn() + Send + Sync + 'static,
{
    Explorer::default().explore(model)
}

// ---- seqlock ring (obs::flight) ----

#[test]
fn pristine_seqlock_passes_bounded_exploration() {
    let report = explore_model(|| seqlock::run(seqlock::Variant::Pristine))
        .unwrap_or_else(|f| panic!("pristine seqlock failed:\n{f}"));
    assert!(report.complete, "schedule tree not fully enumerated");
    assert!(report.schedules > 1);
}

#[test]
fn torn_read_seqlock_mutant_is_caught() {
    let failure = explore_model(|| seqlock::run(seqlock::Variant::TornRead))
        .expect_err("torn-read mutant must be caught");
    assert_eq!(failure.kind, FailureKind::Assertion);
    assert!(
        failure.message.contains("flight.slot.stamp"),
        "finding must name the atomic:\n{failure}"
    );
    assert!(
        failure
            .witness
            .iter()
            .any(|line| line.contains("flight.slot")),
        "witness must show the interleaving:\n{failure}"
    );
}

// ---- pending-key condvar protocol (storage::store) ----

#[test]
fn pristine_pending_key_passes_bounded_exploration() {
    let report = explore_model(|| pending::run(pending::Variant::Pristine))
        .unwrap_or_else(|f| panic!("pristine pending-key failed:\n{f}"));
    assert!(report.complete, "schedule tree not fully enumerated");
    assert!(report.schedules > 1);
}

#[test]
fn lost_notify_mutant_is_caught() {
    let failure = explore_model(|| pending::run(pending::Variant::LostNotify))
        .expect_err("lost-notify mutant must be caught");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        failure.message.contains("store.pending_cv"),
        "finding must name the condvar:\n{failure}"
    );
    assert!(
        failure
            .witness
            .iter()
            .any(|line| line.contains("store.inner")),
        "witness must show the interleaving:\n{failure}"
    );
}

// ---- the same handshake on the store that ships ----

fn store() -> Arc<TieredStore> {
    Arc::new(TieredStore::new(TierConfig::unbounded_temp()).expect("open store"))
}

#[test]
fn real_store_put_against_two_readers_passes_bounded_exploration() {
    let report = explore_model(|| {
        let store = store();
        let readers: Vec<_> = ["reader-0", "reader-1"]
            .into_iter()
            .map(|name| {
                let store = Arc::clone(&store);
                spawn_named(name, move || match store.read("k") {
                    Ok(bytes) => ratel_check::check(
                        bytes == [7u8; 16],
                        format!("reader saw a half-written blob: {bytes:?} [store.inner]"),
                    ),
                    Err(StorageError::NotFound(_)) => {}
                    Err(e) => ratel_check::fail(format!("read failed: {e}")),
                })
            })
            .collect();
        store.put("k", Tier::Ssd, vec![7u8; 16]).expect("put");
        for r in readers {
            r.join();
        }
        assert_eq!(store.read("k").expect("read after put"), [7u8; 16]);
    })
    .unwrap_or_else(|f| panic!("put vs. readers on the real store failed:\n{f}"));
    assert!(report.complete, "schedule tree not fully enumerated");
    assert!(report.schedules > 1);
}

#[test]
fn real_store_racing_moves_to_one_tier_both_succeed() {
    let report = explore_model(|| {
        let store = store();
        store.put("k", Tier::Gpu, vec![1u8; 8]).expect("put");
        let other = {
            let store = Arc::clone(&store);
            spawn_named("mover", move || store.move_to("k", Tier::Host))
        };
        let mine = store.move_to("k", Tier::Host);
        let theirs = other.join();
        ratel_check::check(
            mine.is_ok() && theirs.is_ok(),
            format!("a racing move failed: {mine:?} / {theirs:?} [store.inner]"),
        );
        assert_eq!(store.tier_of("k").expect("tier"), Tier::Host);
        let traffic = store.traffic();
        assert_eq!(traffic.total(), 8, "exactly one hop is metered");
    })
    .unwrap_or_else(|f| panic!("racing moves on the real store failed:\n{f}"));
    assert!(report.complete, "schedule tree not fully enumerated");
    assert!(report.schedules > 1);
}

#[test]
fn real_store_modify_against_reader_and_mover() {
    let report = explore_model(|| {
        let store = store();
        store.put("k", Tier::Host, vec![1u8; 8]).expect("put");
        let reader = {
            let store = Arc::clone(&store);
            spawn_named("reader", move || match store.read("k") {
                Ok(bytes) => ratel_check::check(
                    bytes == [1u8; 8] || bytes == [2u8; 8],
                    format!("reader saw a half-modified blob: {bytes:?} [store.inner]"),
                ),
                // The buffer leaves the index while `f` runs; a reader
                // must wait for it, not miss it.
                Err(e) => ratel_check::fail(format!("read during modify failed: {e}")),
            })
        };
        let mover = {
            let store = Arc::clone(&store);
            spawn_named("mover", move || store.move_to("k", Tier::Gpu))
        };
        let modified = store.modify(["k"], |[k]| k.fill(2));
        reader.join();
        let moved = mover.join();
        ratel_check::check(
            modified.is_ok() && moved.is_ok(),
            format!("modify or move failed: {modified:?} / {moved:?} [store.inner]"),
        );
        // Whichever went first, the move carried the modified bytes (or
        // they were modified where it put them), and no key is left
        // pending: these calls return.
        assert_eq!(store.tier_of("k").expect("tier"), Tier::Gpu);
        assert_eq!(store.read("k").expect("read after modify"), [2u8; 8]);
        assert_eq!(store.used(Tier::Gpu), 8);
        assert_eq!(store.used(Tier::Host), 0);
    })
    .unwrap_or_else(|f| panic!("modify vs. reader and mover on the real store failed:\n{f}"));
    assert!(report.complete, "schedule tree not fully enumerated");
    assert!(report.schedules > 1);
}

// ---- two-lock ordering ----

#[test]
fn pristine_lock_order_passes_bounded_exploration() {
    let report = explore_model(|| locks::run(locks::Variant::Pristine))
        .unwrap_or_else(|f| panic!("pristine lock order failed:\n{f}"));
    assert!(report.complete, "schedule tree not fully enumerated");
}

#[test]
fn inverted_lock_order_mutant_is_caught() {
    let failure = explore_model(|| locks::run(locks::Variant::Inverted))
        .expect_err("inverted lock order must be caught");
    // In debug builds the lock-order tracker rejects the cycle on the
    // very first schedule (assertion); in release the explorer finds the
    // hold-and-wait interleaving (deadlock). Both name the locks.
    assert!(
        matches!(failure.kind, FailureKind::Assertion | FailureKind::Deadlock),
        "unexpected kind:\n{failure}"
    );
    assert!(
        failure.message.contains("model.lock_a") && failure.message.contains("model.lock_b"),
        "finding must name both locks:\n{failure}"
    );
    assert!(!failure.witness.is_empty());
}

/// The acquisition-graph analysis alone (no exploration needed) rejects
/// the inverted order.
#[test]
fn lock_graph_rejects_inversion_statically() {
    let graph = lockorder::LockGraph::new();
    graph
        .check_acquire(&["mutation.lock_a"], "mutation.lock_b")
        .expect("first order is consistent");
    let violation = graph
        .check_acquire(&["mutation.lock_b"], "mutation.lock_a")
        .expect_err("inversion closes a cycle");
    let text = violation.to_string();
    assert!(text.contains("mutation.lock_a") && text.contains("mutation.lock_b"));
}
