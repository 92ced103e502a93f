//! Scoped-thread work partitioning for the hot kernels.
//!
//! The thread count is a process-wide setting (`RATEL_THREADS` env var,
//! overridable at runtime with [`set_num_threads`]) rather than a
//! per-call argument, so kernels deep inside layer code pick it up
//! without threading a config through every signature.
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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// 0 = "unset, consult the environment".
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

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

/// Returns the configured worker-thread count (≥ 1).
///
/// Resolution order: [`set_num_threads`] value if set, else the
/// `RATEL_THREADS` environment variable, else the machine's available
/// parallelism. The resolved value is cached.
pub fn num_threads() -> usize {
    let cached = NUM_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("RATEL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    NUM_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Overrides the worker-thread count for subsequent kernel calls.
///
/// # Panics
/// If `n == 0`.
pub fn set_num_threads(n: usize) {
    assert!(n > 0, "thread count must be >= 1");
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// Minimum elements a row- or element-parallel kernel needs before it
/// fans out: below this, spawn overhead beats the parallel win.
pub(crate) const MIN_BLOCK: usize = 4096;

/// Units per band when `units` units of work are split over the
/// configured threads into at most `max_bands` bands; at least 1, so it
/// is always a valid chunk length.
pub(crate) fn band_len(units: usize, max_bands: usize) -> usize {
    units.div_ceil(num_threads().min(max_bands).max(1)).max(1)
}

/// Runs `f(band_index, band)` for every band, one scoped thread per band,
/// and returns when all have finished. A lone band runs inline on the
/// caller's thread; with no band, `f` is not called and nothing is
/// counted. This is the crate's one fan-out and the only place the
/// dispatch counters move.
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
    std::thread::scope(|s| {
        let f = &f;
        for (i, band) in std::iter::once(first).chain(bands).enumerate() {
            s.spawn(move || f(i, band));
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

    #[test]
    fn par_rows_covers_every_row_once() {
        set_num_threads(4);
        // Above MIN_BLOCK elements, so the rows are banded.
        let row_len = MIN_BLOCK / 4;
        let mut out = vec![0.0f32; 7 * row_len];
        par_rows(&mut out, row_len, |row0, band| {
            for (r, row) in band.chunks_exact_mut(row_len).enumerate() {
                for v in row {
                    *v += (row0 + r) as f32 + 1.0;
                }
            }
        });
        for (r, row) in out.chunks_exact(row_len).enumerate() {
            assert!(row.iter().all(|&v| v == (r + 1) as f32), "row {r}");
        }
        set_num_threads(1);
    }

    #[test]
    fn par_rows_single_row_runs_inline() {
        set_num_threads(8);
        let mut out = vec![0.0f32; 5];
        par_rows(&mut out, 5, |row0, band| {
            assert_eq!(row0, 0);
            band.fill(2.0);
        });
        assert!(out.iter().all(|&v| v == 2.0));
        set_num_threads(1);
    }

    #[test]
    fn par_bands_runs_each_band_once_with_its_index() {
        let mut out = vec![0usize; 10];
        par_bands(out.chunks_mut(3), |i, band| band.fill(i + 1));
        assert_eq!(out, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn band_len_caps_the_band_count_and_is_a_valid_chunk_length() {
        // Thread-count independent: other tests move the setting.
        assert_eq!(band_len(10, 1), 10);
        assert!(band_len(10, 3) >= 4, "at most 3 bands of 10 units");
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
    fn env_parsing_ignores_garbage() {
        // Can't safely mutate the environment in-process; just exercise
        // the setter/getter contract.
        set_num_threads(2);
        assert_eq!(num_threads(), 2);
        set_num_threads(1);
        assert_eq!(num_threads(), 1);
    }
}
