//! Model of the `TieredStore` pending-key condvar protocol.
//!
//! `storage::store` keeps a pending set of keys with I/O in flight: the
//! I/O path marks the key pending, runs the transfer with the lock
//! *released*, then re-locks, installs the result, clears the pending
//! mark, and `notify_all`s waiters. Readers that find the key pending
//! wait on the condvar in a loop. The model is one key (a boolean) with
//! one I/O thread and two waiting readers; the invariant is that every
//! reader eventually observes the installed value — the lost-notify
//! mutant turns a rare unlucky interleaving into a reader that sleeps
//! forever, which the explorer reports as a deadlock.
//!
//! The pristine protocol is also explored on the store that ships
//! (`tests/check_mutations.rs` drives a real `TieredStore`: a put
//! against two readers, two moves racing to one tier). This miniature
//! stays for its `LostNotify` mutant, which is what shows the explorer
//! catches that class of bug.

use std::sync::Arc;

use crate::sync::{thread, Condvar, Mutex};

/// Which pending-key protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The shipped protocol: clearing the pending mark notifies all
    /// waiters.
    Pristine,
    /// Seeded bug: the I/O completion clears the pending mark without
    /// notifying — any reader that started waiting before the clear
    /// sleeps forever.
    LostNotify,
}

struct Key {
    state: Mutex<KeyState>,
    cv: Condvar,
}

#[derive(Debug)]
struct KeyState {
    pending: bool,
    value: u64,
}

/// Runs the model once under the current scheduler: the key starts
/// pending (I/O already dispatched), one I/O thread completes it, two
/// readers block until it clears.
pub fn run(variant: Variant) {
    let key = Arc::new(Key {
        state: Mutex::named(
            "store.inner",
            KeyState {
                pending: true,
                value: 0,
            },
        ),
        cv: Condvar::named("store.pending_cv"),
    });

    let io = {
        let key = Arc::clone(&key);
        thread::spawn_named("io", move || {
            // The transfer itself happens with the lock released; the
            // yield is the schedule point standing in for SSD latency.
            thread::yield_now();
            let mut st = key.state.lock();
            st.value = 42;
            st.pending = false;
            if variant == Variant::Pristine {
                key.cv.notify_all();
            }
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|i| {
            let key = Arc::clone(&key);
            thread::spawn_named(if i == 0 { "reader-0" } else { "reader-1" }, move || {
                let mut st = key.state.lock();
                while st.pending {
                    key.cv.wait(&mut st);
                }
                crate::check(
                    st.value == 42,
                    format!(
                        "reader observed pending clear without the installed value \
                         (value = {}) [store.inner]",
                        st.value
                    ),
                );
            })
        })
        .collect();

    io.join();
    for r in readers {
        r.join();
    }
}
