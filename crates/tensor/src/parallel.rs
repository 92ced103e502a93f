//! The kernels' fan-out and the process's one thread pool.
//!
//! A kernel's width (the threads it fans out to) belongs to its call:
//! [`with_width`] sets it for one closure on the calling thread, and the
//! work the pool runs for that thread runs at it (`par_bands`' bands, the
//! executor's workers), so two calls at different widths never see each
//! other's. Elsewhere [`num_threads`] reads the process default. Kernels
//! deep inside layer code pick the width up without a config argument.
//!
//! Every kernel fans out through one primitive, `par_bands`: the caller
//! cuts its outputs into bands (with `chunks_mut` zips, sized by
//! `band_len`), posts them to the pool and runs bands itself, claiming
//! every band no pool thread has started, so a fan-out never waits on a
//! busy pool and nested or concurrent fan-outs cannot deadlock. So
//! [`parallel_stats`] counts every kernel fan-out. Parallel results are
//! **bitwise deterministic across thread counts**: a band's size depends
//! only on the problem and the width, and each band owns whole units of
//! work (rows, panels, `(batch, head)` units, elements) whose
//! per-element reduction order never depends on which thread runs it.
//!
//! The pool's threads are started on demand, here and nowhere else, and
//! are never torn down; between jobs they park on a condvar. They have
//! two roles:
//! - *band threads*, at most `cores − 1` ([`Pool`]'s `band_cap`), started
//!   by the first fan-out at a width that wants them. They keep their
//!   scratch buffers from band to band.
//! - *workers*, which [`run_workers`] hands the executor's per-resource
//!   loops to and starts only when none is parked. A worker frees its
//!   scratch before it parks, as an exiting thread would.
//!
//! A job that panics is re-raised in the caller that posted it, once
//! every thread is done with that caller's borrows; a panic never kills
//! a pool thread. A caller that unwinds out of its own wait (a debug
//! lock-order check, an explorer's abort) first closes what it lent the
//! pool ([`Lent`]), so no pool thread touches its borrows after it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use ratel_check::sync::thread::{try_spawn_named, JoinHandle};
use ratel_check::sync::{Condvar, Mutex};

use crate::scratch::{self, ScratchStats};

thread_local! {
    /// The width a [`with_width`] on this thread set; 0 = none, so
    /// [`num_threads`] reads the process default.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Kernel fan-outs whose bands were posted to the pool.
static POOLED_DISPATCHES: AtomicU64 = AtomicU64::new(0);
/// Kernel fan-outs that ran inline (a single band).
static INLINE_DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(pooled, inline)` kernel fan-out counts since process
/// start: how often a kernel's parallel loop posted its bands to the
/// pool versus ran one band inline. Every kernel fan-out (GEMM,
/// attention, layernorm, GELU, Adam and the row interleaves) is counted
/// once per call. Cheap relaxed counters, always on; the observability
/// plane exports them as gauges.
pub fn parallel_stats() -> (u64, u64) {
    (
        POOLED_DISPATCHES.load(Ordering::Relaxed),
        INLINE_DISPATCHES.load(Ordering::Relaxed),
    )
}

/// The process-wide pool's counters ([`pool_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// OS threads the pool has started since process start, both roles.
    /// Flat at steady state: no thread starts per fan-out or per run.
    pub threads_started: u64,
    /// Workers among them; the others are band threads.
    pub workers: usize,
    /// Per band thread, its scratch counters as of the last band it ran.
    /// Their `kept` is what the band threads retain between bands, the
    /// pool's one standing heap cost.
    pub band_scratch: Vec<ScratchStats>,
}

impl PoolStats {
    /// Band threads started.
    pub fn band_threads(&self) -> usize {
        self.band_scratch.len()
    }

    /// Floats of scratch the band threads keep, together.
    pub fn band_scratch_kept(&self) -> usize {
        self.band_scratch.iter().map(|s| s.kept).sum()
    }
}

/// The process-wide pool's counters.
pub fn pool_stats() -> PoolStats {
    pool().stats()
}

/// The width (≥ 1) a kernel called on this thread fans out to: the
/// innermost [`with_width`] here or inherited, else the process default
/// (`RATEL_THREADS`, else the available parallelism, read once).
pub fn num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    match WIDTH.get() {
        0 => *DEFAULT
            .get_or_init(|| threads_from(std::env::var("RATEL_THREADS").ok().as_deref(), cores())),
        n => n,
    }
}

/// The cores this process may run on.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The default width: `RATEL_THREADS` (`var`) when it parses, trimmed,
/// as a positive integer, else the `cores`.
fn threads_from(var: Option<&str>, cores: usize) -> usize {
    (var.and_then(|s| s.trim().parse::<usize>().ok()))
        .filter(|&n| n > 0)
        .unwrap_or(cores)
}

/// Runs `f` with the kernels it calls fanning out to `n` threads, and
/// restores this thread's width on return or unwind.
///
/// # Panics
/// If `n == 0`.
pub fn with_width<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be >= 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.set(self.0);
        }
    }
    let _restore = Restore(WIDTH.replace(n));
    f()
}

/// Minimum elements a row- or element-parallel kernel needs before it
/// fans out: below this, the hand-off costs more than the parallel win.
pub(crate) const MIN_BLOCK: usize = 4096;

/// Units per band when `units` units of work are split over the
/// caller's width into at most `max_bands` bands; at least 1, so it
/// is always a valid chunk length.
pub(crate) fn band_len(units: usize, max_bands: usize) -> usize {
    units.div_ceil(num_threads().min(max_bands).max(1)).max(1)
}

/// Runs `f(band_index, band)` for every band at the caller's width, the
/// caller running bands beside the pool's band threads, and returns when
/// all have finished. A lone band runs inline; with no band, `f` is not
/// called and nothing is counted. This is the crate's one fan-out and
/// the only place the dispatch counters move.
///
/// # Panics
/// Re-raises the first panic of a band, once every band has finished.
pub(crate) fn par_bands<I, F>(bands: I, f: F)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    F: Fn(usize, I::Item) + Sync,
{
    pool().par_bands(bands, f);
}

/// Runs `job(0)`, …, `job(n − 1)` at once, each on a pool worker of its
/// own at the caller's width, and returns when all have returned: the
/// executor's per-resource worker loops. A worker is a parked pool
/// thread, handed the job; the pool starts one only when none is parked.
///
/// # Errors
/// If a thread the run needs cannot be started; then no job has run.
///
/// # Panics
/// Re-raises the first panic of a job, once every job has returned.
pub fn run_workers(n: usize, job: &(dyn Fn(usize) + Sync)) -> std::io::Result<()> {
    pool().run_workers(n, job)
}

/// The process-wide pool: band threads up to one fewer than the cores,
/// since a fan-out's caller runs bands too.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(cores() - 1))
}

/// What a panicking job unwound with.
type Payload = Box<dyn Any + Send>;

/// A job borrowed from a caller, its lifetime erased so a pool thread
/// can hold it; only a [`Lent`] holds one.
#[derive(Clone, Copy)]
struct Job(&'static (dyn Fn(usize) + Sync));

/// A caller's job as the pool's threads see it: they call it only
/// through [`Lent::call`], under the read side of its lock, and the
/// caller [`Lent::close`]s it on every way out of its call, return or
/// unwind. Closing waits out every running call and turns every later
/// one into a no-op, so no thread touches the caller's borrows after it.
/// A plain `std` lock, not a checked shim: closing runs while the caller
/// unwinds, where a shim may panic again (its lock-order check, an
/// explorer's abort) and so abort the process. An unwound caller leaves
/// its fan-out's or run's record with the pool, which runs what is left
/// of it as no-ops.
struct Lent(RwLock<Option<Job>>);

impl Lent {
    /// # Safety
    /// The caller must [`close`](Lent::close) the result before `f`'s
    /// borrows end, on return and on unwind alike ([`Closing`]).
    unsafe fn new<'a>(f: &'a (dyn Fn(usize) + Sync + 'a)) -> Arc<Lent> {
        // SAFETY: only the lifetime changes; `f` is called only through
        // the lock the caller closes before `f` goes away.
        let job = Job(unsafe {
            std::mem::transmute::<&'a (dyn Fn(usize) + Sync + 'a), &'static (dyn Fn(usize) + Sync)>(
                f,
            )
        });
        Arc::new(Lent(RwLock::new(Some(job))))
    }

    /// Calls the job at `width`, catching its panic; nothing once closed.
    fn call(&self, width: usize, arg: usize) -> Result<(), Payload> {
        let job = self.0.read().unwrap_or_else(PoisonError::into_inner);
        match *job {
            Some(Job(f)) => panic::catch_unwind(AssertUnwindSafe(|| with_width(width, || f(arg)))),
            None => Ok(()),
        }
    }

    /// Waits for every running call to return and bars any later one.
    fn close(&self) {
        *self.0.write().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Closes a [`Lent`] when its caller leaves, by return or by unwind.
struct Closing<'a>(&'a Lent);

impl Drop for Closing<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One posted fan-out.
struct Fanout {
    id: u64,
    /// Takes the next unstarted band and runs it.
    job: Arc<Lent>,
    width: usize,
    /// Bands no thread has claimed yet.
    unclaimed: usize,
    /// Bands claimed and not yet finished.
    running: usize,
    panic: Option<Payload>,
}

/// One [`Pool::run_workers`] call.
struct Run {
    id: u64,
    /// Jobs handed off and not yet returned.
    running: usize,
    panic: Option<Payload>,
}

/// A job handed to a parked worker.
struct Handoff {
    run: u64,
    job: Arc<Lent>,
    index: usize,
    width: usize,
}

/// Everything the pool's threads and callers share, under one lock.
#[derive(Default)]
struct State {
    /// Fan-outs not yet finished, oldest first.
    fanouts: Vec<Fanout>,
    /// Worker runs not yet finished.
    runs: Vec<Run>,
    /// Per worker, the hand-off it has yet to take.
    handoffs: Vec<Option<Handoff>>,
    /// Workers parked with no hand-off, the last parked on top.
    parked: Vec<usize>,
    /// Per band thread, its scratch counters as of its last band.
    band_scratch: Vec<ScratchStats>,
    /// Ids for fan-outs and runs.
    next_id: u64,
    threads_started: u64,
    /// Set when a pool is dropped: its threads exit once idle.
    exit: bool,
    handles: Vec<JoinHandle<()>>,
}

impl State {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Claims one unstarted band of fan-out `id`, if it has one.
    fn claim(&mut self, id: u64) -> Option<(Arc<Lent>, usize)> {
        let f = self.fanouts.iter_mut().find(|f| f.id == id)?;
        f.unclaimed = f.unclaimed.checked_sub(1)?;
        f.running += 1;
        Some((Arc::clone(&f.job), f.width))
    }

    /// Reports a claimed band of fan-out `id` finished; true if it was
    /// the fan-out's last.
    fn finish(&mut self, id: u64, outcome: Result<(), Payload>) -> bool {
        let Some(f) = self.fanouts.iter_mut().find(|f| f.id == id) else {
            return false;
        };
        f.running -= 1;
        if let Err(payload) = outcome {
            f.panic.get_or_insert(payload);
        }
        f.running == 0 && f.unclaimed == 0
    }
}

struct Inner {
    state: Mutex<State>,
    /// Where idle band threads park; a fan-out wakes one per band it
    /// leaves to them.
    posted: Condvar,
    /// Where a fan-out's caller waits for the bands pool threads run.
    band_done: Condvar,
    /// Where parked workers wait for their hand-off.
    handed: Condvar,
    /// Where a run's caller waits for its workers.
    run_done: Condvar,
    /// The most band threads this pool starts.
    band_cap: usize,
}

/// A pool of parked threads: the process has one ([`par_bands`],
/// [`run_workers`]); tests build their own, whose drop stops and joins
/// its threads.
pub(crate) struct Pool(Arc<Inner>);

impl Pool {
    /// A pool with no thread yet, which starts up to `band_cap` band
    /// threads and workers as they are wanted.
    pub(crate) fn new(band_cap: usize) -> Pool {
        Pool(Arc::new(Inner {
            state: Mutex::named("pool.state", State::default()),
            posted: Condvar::named("pool.posted"),
            band_done: Condvar::named("pool.band_done"),
            handed: Condvar::named("pool.handed"),
            run_done: Condvar::named("pool.run_done"),
            band_cap,
        }))
    }

    /// [`par_bands`] on this pool.
    pub(crate) fn par_bands<I, F>(&self, bands: I, f: F)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        I::Item: Send,
        F: Fn(usize, I::Item) + Sync,
    {
        let mut bands = bands.into_iter().enumerate();
        match bands.len() {
            0 => {}
            1 => {
                INLINE_DISPATCHES.fetch_add(1, Ordering::Relaxed);
                if let Some((i, band)) = bands.next() {
                    f(i, band);
                }
            }
            n => {
                POOLED_DISPATCHES.fetch_add(1, Ordering::Relaxed);
                // Whoever claims a band takes the next one in order.
                let bands = Mutex::named("pool.bands", bands);
                let run_next = |_: usize| {
                    let next = bands.lock().next();
                    if let Some((i, band)) = next {
                        f(i, band);
                    }
                };
                self.fan_out(n, &run_next);
            }
        }
    }

    /// Posts `bands` calls of `run_next` at the caller's width, runs
    /// every one no band thread claims first, and returns once all have
    /// finished.
    fn fan_out(&self, bands: usize, run_next: &(dyn Fn(usize) + Sync)) {
        let inner = &self.0;
        let width = num_threads();
        // SAFETY: `_closing` closes `job` on every way out of this call,
        // while `run_next` still lives. It is declared before the state
        // guards, so they are dropped first and a band it waits for can
        // still lock the state.
        let job = unsafe { Lent::new(run_next) };
        let _closing = Closing(&job);
        let mut st = inner.state.lock();
        let id = st.fresh_id();
        st.fanouts.push(Fanout {
            id,
            job: Arc::clone(&job),
            width,
            unclaimed: bands,
            running: 0,
            panic: None,
        });
        let wanted = inner.band_cap.min(width - 1);
        while st.band_scratch.len() < wanted && self.start_band_thread(&mut st) {}
        drop(st);
        for _ in 1..bands {
            inner.posted.notify_one();
        }
        let mut st = inner.state.lock();
        loop {
            if st.claim(id).is_some() {
                drop(st);
                let outcome = job.call(width, 0);
                st = inner.state.lock();
                st.finish(id, outcome);
            } else if st.fanouts.iter().any(|f| f.id == id && f.running > 0) {
                inner.band_done.wait(&mut st);
            } else {
                break;
            }
        }
        let done = st.fanouts.iter().position(|f| f.id == id);
        let panic = done.and_then(|i| st.fanouts.remove(i).panic);
        drop(st);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
    }

    /// Starts one more band thread; false if the OS refused it.
    fn start_band_thread(&self, st: &mut State) -> bool {
        let index = st.band_scratch.len();
        let inner = Arc::clone(&self.0);
        let name = format!("ratel-pool-band-{index}");
        let Ok(handle) = try_spawn_named(&name, move || inner.band_thread(index)) else {
            return false;
        };
        st.band_scratch.push(ScratchStats::default());
        st.threads_started += 1;
        st.handles.push(handle);
        true
    }

    /// [`run_workers`] on this pool.
    pub(crate) fn run_workers(
        &self,
        n: usize,
        job: &(dyn Fn(usize) + Sync),
    ) -> std::io::Result<()> {
        let inner = &self.0;
        let width = num_threads();
        // SAFETY: `_closing` closes `lent` on every way out of this
        // call, while `job` still lives. It is dropped after the state
        // guard, so a worker it waits for can still lock the state.
        let lent = unsafe { Lent::new(job) };
        let _closing = Closing(&lent);
        let mut st = inner.state.lock();
        while st.parked.len() < n {
            let worker = st.handoffs.len();
            let pool = Arc::clone(inner);
            let name = format!("ratel-pool-worker-{worker}");
            let handle = try_spawn_named(&name, move || pool.worker(worker))?;
            st.handoffs.push(None);
            st.parked.push(worker);
            st.threads_started += 1;
            st.handles.push(handle);
        }
        let run = st.fresh_id();
        st.runs.push(Run {
            id: run,
            running: n,
            panic: None,
        });
        for index in 0..n {
            if let Some(worker) = st.parked.pop() {
                st.handoffs[worker] = Some(Handoff {
                    run,
                    job: Arc::clone(&lent),
                    index,
                    width,
                });
            }
        }
        inner.handed.notify_all();
        while st.runs.iter().any(|r| r.id == run && r.running > 0) {
            inner.run_done.wait(&mut st);
        }
        let done = st.runs.iter().position(|r| r.id == run);
        let panic = done.and_then(|i| st.runs.remove(i).panic);
        drop(st);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
        Ok(())
    }

    fn stats(&self) -> PoolStats {
        let st = self.0.state.lock();
        PoolStats {
            threads_started: st.threads_started,
            workers: st.handoffs.len(),
            band_scratch: st.band_scratch.clone(),
        }
    }
}

impl Inner {
    /// A band thread's life: claim the oldest posted band, run it, report
    /// it, park when none is left.
    fn band_thread(&self, index: usize) {
        let mut st = self.state.lock();
        loop {
            let posted = st.fanouts.iter().find(|f| f.unclaimed > 0).map(|f| f.id);
            let Some((id, (job, width))) = posted.and_then(|id| Some((id, st.claim(id)?))) else {
                if st.exit {
                    return;
                }
                self.posted.wait(&mut st);
                continue;
            };
            drop(st);
            let outcome = job.call(width, 0);
            drop(job);
            let scratch = scratch::scratch_stats();
            st = self.state.lock();
            st.band_scratch[index] = scratch;
            if st.finish(id, outcome) {
                #[cfg(not(ratel_mutant = "lost_wakeup"))]
                self.band_done.notify_all();
            }
        }
    }

    /// A worker's life: take the hand-off, run it, give the scratch back,
    /// report it and park.
    fn worker(&self, worker: usize) {
        let mut st = self.state.lock();
        loop {
            let Some(h) = st.handoffs[worker].take() else {
                if st.exit {
                    return;
                }
                self.handed.wait(&mut st);
                continue;
            };
            drop(st);
            let outcome = h.job.call(h.width, h.index);
            drop(h.job);
            scratch::release();
            st = self.state.lock();
            if let Some(run) = st.runs.iter_mut().find(|r| r.id == h.run) {
                run.running -= 1;
                if let Err(payload) = outcome {
                    run.panic.get_or_insert(payload);
                }
                if run.running == 0 {
                    self.run_done.notify_all();
                }
            }
            st.parked.push(worker);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Unwinding (a failed test, an explorer run that found a fault),
        // the pool is left as it is: its lock may be what failed.
        if std::thread::panicking() {
            return;
        }
        let handles = {
            let mut st = self.0.state.lock();
            st.exit = true;
            std::mem::take(&mut st.handles)
        };
        self.0.posted.notify_all();
        self.0.handed.notify_all();
        for handle in handles {
            handle.join();
        }
    }
}

/// Splits `out` into bands of whole `row_len`-sized rows, one per worker,
/// and runs `f(first_row_index, band)` for each; inline below
/// [`MIN_BLOCK`] elements.
pub(crate) fn par_rows<F>(out: &mut [f32], row_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert!(
        out.len().is_multiple_of(row_len),
        "output length {} not a multiple of row length {row_len}",
        out.len()
    );
    let rows = out.len() / row_len;
    let per = band_len(rows, if out.len() < MIN_BLOCK { 1 } else { rows });
    par_bands(out.chunks_mut(per * row_len), |i, band| f(i * per, band));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_rows_covers_every_row_once() {
        // Above MIN_BLOCK elements, so the rows are banded.
        let row_len = MIN_BLOCK / 4;
        let mut out = vec![0.0f32; 7 * row_len];
        with_width(4, || {
            par_rows(&mut out, row_len, |row0, band| {
                assert_eq!(num_threads(), 4);
                for (r, row) in band.chunks_exact_mut(row_len).enumerate() {
                    for v in row {
                        *v += (row0 + r) as f32 + 1.0;
                    }
                }
            })
        });
        for (r, row) in out.chunks_exact(row_len).enumerate() {
            assert!(row.iter().all(|&v| v == (r + 1) as f32), "row {r}");
        }
    }

    #[test]
    fn par_rows_single_row_runs_inline() {
        let mut out = vec![0.0f32; 5];
        with_width(8, || {
            par_rows(&mut out, 5, |row0, band| {
                assert_eq!(row0, 0);
                band.fill(2.0);
            })
        });
        assert!(out.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn par_bands_runs_each_band_once_with_its_index() {
        let mut out = vec![0usize; 10];
        par_bands(out.chunks_mut(3), |i, band| band.fill(i + 1));
        assert_eq!(out, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn band_len_caps_the_band_count_and_is_a_valid_chunk_length() {
        assert_eq!(band_len(10, 1), 10);
        assert_eq!(with_width(3, || band_len(10, 3)), 4);
        assert_eq!(with_width(8, || band_len(10, 3)), 4, "at most 3 bands");
        assert_eq!(band_len(0, 0), 1);
    }

    #[test]
    fn dispatch_counters_track_pooled_and_inline() {
        let (_, i0) = parallel_stats();
        par_bands(std::iter::once(()), |_, ()| {}); // lone band -> inline
        let (p1, i1) = parallel_stats();
        assert!(i1 > i0, "inline counter should advance");
        par_bands([(), ()], |_, ()| {}); // two bands -> pooled
        let (p2, _) = parallel_stats();
        assert!(p2 > p1, "pooled counter should advance");
        let calls = AtomicUsize::new(0);
        par_bands(std::iter::empty::<()>(), |_, ()| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no band, no call");
    }

    #[test]
    fn the_default_parses_a_positive_count_or_falls_back_to_the_cores() {
        assert_eq!(threads_from(None, 6), 6);
        for garbage in ["", "0", "-1", "abc"] {
            assert_eq!(threads_from(Some(garbage), 6), 6, "{garbage:?}");
        }
        assert_eq!(threads_from(Some(" 3 "), 6), 3);
    }

    #[test]
    fn a_width_is_scoped_to_its_closure_and_nests() {
        let outside = num_threads();
        with_width(3, || {
            assert_eq!(num_threads(), 3);
            with_width(5, || assert_eq!(num_threads(), 5));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outside);
        // An unwinding closure restores it too.
        let unwound = std::panic::catch_unwind(|| with_width(7, || panic!("mid-call")));
        assert!(unwound.is_err());
        assert_eq!(num_threads(), outside);
    }

    #[test]
    fn concurrent_callers_each_see_their_own_width_in_every_band() {
        // Two threads fan out side by side at different widths, each
        // round started together: every band must run at its own
        // caller's width, whatever the other thread set.
        let round = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for width in [1, 4] {
                let round = &round;
                s.spawn(move || {
                    for _ in 0..1000 {
                        round.wait();
                        with_width(width, || {
                            let mut out = [0usize; 4];
                            par_bands(out.chunks_mut(band_len(4, 4)), |_, band| {
                                assert_eq!(num_threads(), width);
                                band.fill(1);
                            });
                            assert_eq!(out, [1; 4]);
                        });
                    }
                });
            }
        });
    }

    /// `f`'s panic message, if it panicked.
    fn panic_of(f: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(AssertUnwindSafe(f)).err()?;
        (payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
    }

    #[test]
    fn a_panicking_band_re_raises_in_its_caller_and_the_pool_keeps_serving() {
        let pool = Pool::new(1);
        with_width(2, || {
            for _ in 0..20 {
                let mut out = [0usize; 4];
                let raised = panic_of(|| {
                    pool.par_bands(out.chunks_mut(1), |i, band| {
                        assert_ne!(i, 2, "band 2 fails");
                        band[0] = 1;
                    })
                });
                assert!(raised.is_some_and(|m| m.contains("band 2 fails")));
                // Every other band still ran: the caller waited for them.
                assert_eq!(out, [1, 1, 0, 1]);
                let mut out = [0usize; 4];
                pool.par_bands(out.chunks_mut(1), |i, band| band[0] = i + 1);
                assert_eq!(out, [1, 2, 3, 4]);
            }
        });
        let stats = pool.stats();
        assert_eq!((stats.band_threads(), stats.threads_started), (1, 1));
    }

    #[test]
    fn a_panicking_worker_re_raises_in_its_caller_and_the_worker_is_reused() {
        let pool = Pool::new(0);
        for _ in 0..10 {
            let raised = panic_of(|| {
                let run = pool.run_workers(3, &|i| assert_ne!(i, 1, "worker 1 fails"));
                run.expect("start the workers");
            });
            assert!(raised.is_some_and(|m| m.contains("worker 1 fails")));
            let ran = AtomicUsize::new(0);
            pool.run_workers(3, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .expect("start the workers");
            assert_eq!(ran.load(Ordering::Relaxed), 3);
        }
        let stats = pool.stats();
        assert_eq!(
            (stats.workers, stats.threads_started),
            (3, 3),
            "reused, not respawned"
        );
    }

    /// Runs `call` holding a named lock of its own, so the pool wait it
    /// reaches panics (debug builds' lock-order check), and returns
    /// whether a pool thread had run `job`: the caller may unwind past
    /// `job`'s borrows only once no pool thread is inside it, and no pool
    /// thread may start it later.
    fn unwind_from_the_wait(call: impl FnOnce(&(dyn Fn(usize) + Sync))) -> bool {
        let caller = std::thread::current().id();
        let started = std::sync::atomic::AtomicBool::new(false);
        let done = std::sync::atomic::AtomicBool::new(false);
        let job = |_: usize| {
            if std::thread::current().id() == caller {
                // Leave the caller a pool thread to wait for.
                while !started.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            } else {
                started.store(true, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(50));
                done.store(true, Ordering::SeqCst);
            }
        };
        let foreign = Mutex::named("parallel-test.foreign", ());
        let raised = panic_of(|| {
            let _held = foreign.lock();
            call(&job);
        });
        assert!(
            raised.is_some_and(|m| m.contains("parallel-test.foreign")),
            "the wait must fail the lock-order check"
        );
        let ran = started.load(Ordering::SeqCst);
        assert_eq!(
            done.load(Ordering::SeqCst),
            ran,
            "the caller unwound while a pool thread ran its job"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert_eq!(
            started.load(Ordering::SeqCst),
            ran,
            "a pool thread started the job after its caller left"
        );
        ran
    }

    #[test]
    fn a_caller_unwinding_from_its_band_wait_outlasts_its_bands() {
        if !cfg!(debug_assertions) {
            return; // no lock-order check to panic
        }
        let pool = Pool::new(1);
        let ran = unwind_from_the_wait(|job| {
            with_width(2, || pool.par_bands([(), ()], |i, ()| job(i)));
        });
        assert!(ran, "the caller waits for the band thread to start");
        // The pool still serves.
        let mut out = [0usize; 2];
        with_width(2, || pool.par_bands(out.chunks_mut(1), |i, b| b[0] = i + 1));
        assert_eq!(out, [1, 2]);
    }

    #[test]
    fn a_caller_unwinding_from_its_run_wait_outlasts_its_workers() {
        if !cfg!(debug_assertions) {
            return; // no lock-order check to panic
        }
        let pool = Pool::new(0);
        // The worker may or may not have taken its hand-off by then.
        unwind_from_the_wait(|job| {
            let _ = pool.run_workers(1, job);
        });
        let ran = AtomicUsize::new(0);
        pool.run_workers(2, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .expect("start the workers");
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn workers_run_at_the_callers_width_all_at_once() {
        let pool = Pool::new(0);
        // Each job waits for all three: they must run side by side.
        let all = std::sync::Barrier::new(3);
        with_width(3, || {
            pool.run_workers(3, &|_| {
                assert_eq!(num_threads(), 3);
                all.wait();
            })
        })
        .expect("start the workers");
    }

    #[test]
    fn a_worker_gives_its_scratch_back_when_it_parks_and_a_band_thread_keeps_it() {
        let pool = Pool::new(1);
        for _ in 0..3 {
            pool.run_workers(1, &|_| {
                assert_eq!(scratch::scratch_stats().kept, 0, "kept from the last run");
                drop(scratch::scratch_f32(1000));
            })
            .expect("start a worker");
        }
        with_width(2, || {
            for _ in 0..3 {
                pool.par_bands([(), ()], |_, ()| drop(scratch::scratch_f32(1000)));
            }
        });
        // Whichever bands the band thread ran, it kept what they returned.
        for band in pool.stats().band_scratch {
            assert!(band.checkouts == 0 || band.kept >= 1000, "{band:?}");
        }
    }
}

/// The pool's claim, finish, park and wake code under `ratel-check`'s
/// bounded explorer: every interleaving of two callers fanning out two
/// bands each onto one band thread, then of two worker runs, the second
/// handed to the worker the first one started and parked.
#[cfg(test)]
mod explore_tests {
    use super::*;
    use ratel_check::sync::thread::spawn_named;
    use ratel_check::{check, CheckFailure, Explorer, Report};
    use std::sync::atomic::AtomicUsize;

    /// Two bands at width 2 on `pool`: each must run exactly once.
    fn two_bands(pool: &Pool) {
        with_width(2, || {
            let mut out = [0usize; 2];
            pool.par_bands(out.chunks_mut(1), |i, band| band[0] += i + 1);
            check(out == [1, 2], format!("bands ran as {out:?} [pool.state]"));
        });
    }

    fn model() {
        let pool = Arc::new(Pool::new(1));
        let other = {
            let pool = Arc::clone(&pool);
            spawn_named("caller-1", move || two_bands(&pool))
        };
        two_bands(&pool);
        other.join();
        for _ in 0..2 {
            let ran = AtomicUsize::new(0);
            pool.run_workers(1, &|i| {
                ran.fetch_add(i + 1, Ordering::Relaxed);
            })
            .expect("start a worker");
            check(
                ran.load(Ordering::Relaxed) == 1,
                "the worker ran its job once [pool.handed]",
            );
        }
        let stats = pool.stats();
        check(
            (stats.band_threads(), stats.workers) == (1, 1),
            format!("the second run started a thread: {stats:?} [pool.state]"),
        );
    }

    fn explore() -> Result<Report, CheckFailure> {
        Explorer::default().explore(model)
    }

    #[cfg(not(ratel_mutant = "lost_wakeup"))]
    #[test]
    fn every_interleaving_of_two_callers_and_a_parked_worker_passes() {
        let report = explore().unwrap_or_else(|f| panic!("the pool failed:\n{f}"));
        assert!(
            report.complete,
            "schedule tree not fully enumerated: {report:?}"
        );
        assert!(report.schedules > 1);
    }

    /// Built with `--cfg ratel_mutant="lost_wakeup"`: the band thread
    /// that finishes a fan-out's last band does not wake its caller.
    #[cfg(ratel_mutant = "lost_wakeup")]
    #[test]
    fn a_lost_band_wakeup_is_caught_with_a_named_witness() {
        let failure = explore().expect_err("the lost wake-up must be caught");
        assert_eq!(
            failure.kind,
            ratel_check::FailureKind::Deadlock,
            "{failure}"
        );
        assert!(failure.message.contains("pool.band_done"), "{failure}");
        assert!(
            failure.witness.iter().any(|l| l.contains("pool.state")),
            "{failure}"
        );
    }
}
