//! Scoped-thread work partitioning for the hot kernels.
//!
//! A kernel's width (the threads it fans out to) belongs to its call:
//! [`with_width`] sets it for one closure on the calling thread, and the
//! threads started under it inherit it (`par_bands`' bands, the
//! executor's workers), so two calls at different widths never see each
//! other's. Elsewhere [`num_threads`] reads the process default. Kernels
//! deep inside layer code pick the width up without a config argument.
//!
//! Every kernel fans out through one primitive, `par_bands`: the caller
//! cuts its outputs into bands (with `chunks_mut` zips, sized by
//! `band_len`), and each band runs on its own scoped thread. It is the
//! crate's only `thread::scope`, so [`parallel_stats`] counts every
//! kernel fan-out. Parallel results are **bitwise deterministic across
//! thread counts**: a band's size depends only on the problem and the
//! thread count, and each band owns whole units of work (rows, panels,
//! `(batch, head)` units, elements) whose per-element reduction order
//! never depends on how bands map to threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// The width a [`with_width`] on this thread set; 0 = none, so
    /// [`num_threads`] reads the process default.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Kernel fan-outs that spawned scoped worker threads.
static SPAWNED_DISPATCHES: AtomicU64 = AtomicU64::new(0);
/// Kernel fan-outs that ran inline (a single band).
static INLINE_DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(spawned, inline)` kernel fan-out counts since process
/// start: how often a kernel's parallel loop ran its bands on worker
/// threads versus as one band inline. Every kernel fan-out (GEMM,
/// attention, layernorm, GELU, Adam and the row interleaves) is counted
/// once per call. Cheap relaxed counters, always on; the observability
/// plane exports them as gauges.
pub fn parallel_stats() -> (u64, u64) {
    (
        SPAWNED_DISPATCHES.load(Ordering::Relaxed),
        INLINE_DISPATCHES.load(Ordering::Relaxed),
    )
}

/// The width (≥ 1) a kernel called on this thread fans out to: the
/// innermost [`with_width`] here or inherited, else the process default
/// (`RATEL_THREADS`, else the available parallelism, read once).
pub fn num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    match WIDTH.get() {
        0 => *DEFAULT.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            threads_from(std::env::var("RATEL_THREADS").ok().as_deref(), cores)
        }),
        n => n,
    }
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
/// fans out: below this, spawn overhead beats the parallel win.
pub(crate) const MIN_BLOCK: usize = 4096;

/// Units per band when `units` units of work are split over the
/// caller's width into at most `max_bands` bands; at least 1, so it
/// is always a valid chunk length.
pub(crate) fn band_len(units: usize, max_bands: usize) -> usize {
    units.div_ceil(num_threads().min(max_bands).max(1)).max(1)
}

/// Runs `f(band_index, band)` for every band, one scoped thread per band
/// at the caller's width, and returns when all have finished. A lone
/// band runs inline on the caller's thread; with no band, `f` is not
/// called and nothing is counted. This is the crate's one fan-out and
/// the only place the dispatch counters move.
pub(crate) fn par_bands<I, F>(bands: I, f: F)
where
    I: IntoIterator,
    I::Item: Send,
    F: Fn(usize, I::Item) + Sync,
{
    let mut bands = bands.into_iter().peekable();
    let Some(first) = bands.next() else {
        return;
    };
    if bands.peek().is_none() {
        INLINE_DISPATCHES.fetch_add(1, Ordering::Relaxed);
        f(0, first);
        return;
    }
    SPAWNED_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let width = num_threads();
    std::thread::scope(|s| {
        let f = &f;
        for (i, band) in std::iter::once(first).chain(bands).enumerate() {
            s.spawn(move || with_width(width, || f(i, band)));
        }
    });
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
    fn dispatch_counters_track_spawned_and_inline() {
        let (_, i0) = parallel_stats();
        par_bands(std::iter::once(()), |_, ()| {}); // lone band -> inline
        let (s1, i1) = parallel_stats();
        assert!(i1 > i0, "inline counter should advance");
        par_bands([(), ()], |_, ()| {}); // two bands -> spawned
        let (s2, _) = parallel_stats();
        assert!(s2 > s1, "spawned counter should advance");
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
}
