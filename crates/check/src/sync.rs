//! Shimmed synchronization primitives.
//!
//! Drop-in `Mutex`/`Condvar`/atomic/`thread::spawn` wrappers with three
//! personalities, selected automatically:
//!
//! * **Normal builds** — passthrough to `std::sync` (lock methods never
//!   return poison errors: a poisoned lock is recovered, `parking_lot`
//!   style).
//! * **Debug builds, named primitives** — every acquisition feeds the
//!   process-global lock-order tracker ([`crate::lockorder`]): cycles in
//!   the acquisition graph and blocking ops under a tracked lock fail
//!   fast at the point of the bug.
//! * **Inside an [`crate::explore::Explorer`] run** — every operation
//!   becomes a schedule point of the deterministic interleaving
//!   scheduler; locks, waits, and atomics are model-level so the
//!   explorer can enumerate interleavings.
//!
//! Production code names its primitives ([`Mutex::named`]) so both the
//! lock-order tracker and exploration witnesses can report `storage.inner`
//! rather than an address.

use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::{self as std_sync, Arc};

use crate::explore::{self, RunCtx};
use crate::lockorder;

fn obj_id<T: ?Sized>(r: &T) -> usize {
    r as *const T as *const () as usize
}

/// A mutex whose `lock` never fails; named instances feed the
/// lock-order tracker (debug) and the interleaving explorer.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    name: &'static str,
    inner: std_sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// An unnamed (untracked) mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self::named("", value)
    }

    /// A named mutex: acquisitions are recorded in the debug lock-order
    /// graph and exploration witnesses under `name`.
    pub const fn named(name: &'static str, value: T) -> Self {
        Mutex {
            name,
            inner: std_sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// This mutex's tracker name (empty if unnamed).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let id = obj_id(self);
        let sched = explore::current();
        if let Some((ctx, tid)) = &sched {
            ctx.register_name(id, self.name);
            ctx.acquire(*tid, id);
        }
        let held = lockorder::on_lock(self.name);
        let real = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard {
            mutex: self,
            real: ManuallyDrop::new(real),
            held,
            sched,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    real: ManuallyDrop<std_sync::MutexGuard<'a, T>>,
    held: Option<lockorder::Held>,
    sched: Option<(Arc<RunCtx>, usize)>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.real
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.real
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Order matters: the real lock is released before the model-level
        // release hands the token to a thread that may acquire it.
        unsafe { ManuallyDrop::drop(&mut self.real) };
        self.held.take();
        if let Some((ctx, tid)) = self.sched.take() {
            ctx.release(tid, obj_id(self.mutex), !std::thread::panicking());
        }
    }
}

/// A condition variable usable with [`MutexGuard`] (no poison plumbing,
/// explorer-aware). Spurious wake-ups are possible in passthrough mode;
/// callers must re-check their predicate in a loop.
#[derive(Debug, Default)]
pub struct Condvar {
    name: &'static str,
    inner: std_sync::Condvar,
}

impl Condvar {
    /// An unnamed condition variable.
    pub const fn new() -> Self {
        Self::named("")
    }

    /// A named condition variable (name appears in witnesses).
    pub const fn named(name: &'static str) -> Self {
        Condvar {
            name,
            inner: std_sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's mutex and blocks until notified,
    /// re-acquiring the mutex before returning.
    ///
    /// In debug builds this fails fast if the calling thread holds any
    /// *other* tracked lock — waiting with a foreign lock held is the
    /// classic shape of a condvar deadlock.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        lockorder::on_condvar_wait(guard.mutex.name);
        // The wait releases the mutex: pop it from the held stack for
        // the duration (re-pushed on re-acquisition below).
        let was_tracked = guard.held.take().is_some();
        match guard.sched.clone() {
            Some((ctx, tid)) => {
                let cv_id = obj_id(self);
                let lock_id = obj_id(guard.mutex);
                ctx.register_name(cv_id, self.name);
                // Really unlock before parking: the next lock holder
                // takes the real mutex for real.
                unsafe { ManuallyDrop::drop(&mut guard.real) };
                ctx.wait(tid, cv_id, lock_id);
                // Granted again with model ownership of the mutex.
                let real = guard.mutex.inner.lock().unwrap_or_else(|e| e.into_inner());
                guard.real = ManuallyDrop::new(real);
            }
            None => unsafe {
                let real = ManuallyDrop::take(&mut guard.real);
                let real = self.inner.wait(real).unwrap_or_else(|e| e.into_inner());
                guard.real = ManuallyDrop::new(real);
            },
        }
        if was_tracked {
            guard.held = lockorder::on_lock(guard.mutex.name);
        }
    }

    /// Wakes one waiting thread (the longest-waiting one under the
    /// explorer).
    pub fn notify_one(&self) {
        if let Some((ctx, tid)) = explore::current() {
            ctx.register_name(obj_id(self), self.name);
            ctx.notify(tid, obj_id(self), false);
        }
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        if let Some((ctx, tid)) = explore::current() {
            ctx.register_name(obj_id(self), self.name);
            ctx.notify(tid, obj_id(self), true);
        }
        self.inner.notify_all();
    }
}

macro_rules! checked_atomic {
    ($name:ident, $std:ty, $raw:ty) => {
        /// Explorer-aware atomic: every operation is a schedule point
        /// inside an exploration (sequentially-consistent interleaving
        /// semantics), a plain std atomic otherwise.
        #[derive(Debug, Default)]
        pub struct $name {
            tag: &'static str,
            inner: $std,
        }

        impl $name {
            /// An unnamed atomic holding `value`.
            pub const fn new(value: $raw) -> Self {
                Self::named("", value)
            }

            /// A named atomic (name appears in exploration witnesses).
            pub const fn named(tag: &'static str, value: $raw) -> Self {
                Self {
                    tag,
                    inner: <$std>::new(value),
                }
            }

            fn point(&self, op: &str) {
                if let Some((ctx, tid)) = explore::current() {
                    let id = obj_id(self);
                    ctx.register_name(id, self.tag);
                    let tag = if self.tag.is_empty() {
                        "atomic"
                    } else {
                        self.tag
                    };
                    ctx.point(tid, format!("{op} [{tag}]"));
                }
            }

            /// Atomic load (schedule point under the explorer).
            pub fn load(&self, order: std_sync::atomic::Ordering) -> $raw {
                self.point("load");
                self.inner.load(order)
            }

            /// Atomic store (schedule point under the explorer).
            pub fn store(&self, value: $raw, order: std_sync::atomic::Ordering) {
                self.point("store");
                self.inner.store(value, order)
            }
        }
    };
}

checked_atomic!(AtomicU64, std_sync::atomic::AtomicU64, u64);
checked_atomic!(AtomicUsize, std_sync::atomic::AtomicUsize, usize);
checked_atomic!(AtomicBool, std_sync::atomic::AtomicBool, bool);

impl AtomicU64 {
    /// Atomic add returning the previous value.
    pub fn fetch_add(&self, value: u64, order: std_sync::atomic::Ordering) -> u64 {
        self.point("fetch_add");
        self.inner.fetch_add(value, order)
    }
}

impl AtomicUsize {
    /// Atomic add returning the previous value.
    pub fn fetch_add(&self, value: usize, order: std_sync::atomic::Ordering) -> usize {
        self.point("fetch_add");
        self.inner.fetch_add(value, order)
    }
}

/// Explorer-aware threads for models.
pub mod thread {
    use super::*;

    enum Imp<T> {
        Std(std::thread::JoinHandle<T>),
        Sched {
            ctx: Arc<RunCtx>,
            child: usize,
            real: std::thread::JoinHandle<()>,
            result: Arc<std_sync::Mutex<Option<T>>>,
        },
    }

    /// Handle to a spawned (possibly explorer-controlled) thread.
    pub struct JoinHandle<T>(Imp<T>);

    impl<T> JoinHandle<T> {
        /// Waits for the thread and returns its value. Panics from the
        /// thread propagate (passthrough) or fail the exploration run.
        pub fn join(self) -> T {
            match self.0 {
                Imp::Std(h) => match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                },
                Imp::Sched {
                    ctx,
                    child,
                    real,
                    result,
                } => {
                    let (_, tid) = explore::current()
                        .unwrap_or_else(|| panic!("scheduled JoinHandle joined outside its run"));
                    ctx.join(tid, child);
                    let _ = real.join();
                    let value = result.lock().unwrap_or_else(|e| e.into_inner()).take();
                    match value {
                        Some(v) => v,
                        // The child aborted without producing a value;
                        // the failure is already recorded.
                        None => explore::fail("joined thread produced no value".to_string()),
                    }
                }
            }
        }
    }

    /// Spawns a thread; controlled by the scheduler inside an explorer
    /// run, a plain std thread otherwise.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        spawn_named("worker", f)
    }

    /// [`spawn`] with a thread name for witnesses.
    pub fn spawn_named<F, T>(name: &str, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        try_spawn_named(name, f).unwrap_or_else(|e| panic!("spawn {name}: {e}"))
    }

    /// [`spawn_named`], returning the OS's refusal to start a thread
    /// instead of panicking on it (outside an exploration; a model
    /// thread that cannot start still panics).
    pub fn try_spawn_named<F, T>(name: &str, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match explore::current() {
            None => std::thread::Builder::new()
                .name(name.to_string())
                .spawn(f)
                .map(|h| JoinHandle(Imp::Std(h))),
            Some((ctx, tid)) => {
                let child = ctx.register_thread(name.to_string());
                ctx.add_real_thread();
                let result = Arc::new(std_sync::Mutex::new(None));
                let result2 = Arc::clone(&result);
                let cctx = Arc::clone(&ctx);
                let real = std::thread::Builder::new()
                    .name(format!("ratel-check-{name}"))
                    .spawn(move || {
                        explore::trampoline(cctx, child, move || {
                            let v = f();
                            *result2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                        })
                    })
                    .unwrap_or_else(|e| panic!("spawn model thread {name}: {e}"));
                // Schedule point: the child may be scheduled immediately.
                ctx.point(tid, format!("spawn t{child}({name})"));
                Ok(JoinHandle(Imp::Sched {
                    ctx,
                    child,
                    real,
                    result,
                }))
            }
        }
    }

    /// A voluntary schedule point (no-op outside an exploration).
    pub fn yield_now() {
        if let Some((ctx, tid)) = explore::current() {
            ctx.point(tid, "yield".to_string());
        }
    }
}
