//! Scoped-thread work partitioning for the hot kernels.
//!
//! The thread count is a process-wide setting (`RATEL_THREADS` env var,
//! overridable at runtime with [`set_num_threads`]) rather than a
//! per-call argument, so kernels deep inside layer code pick it up
//! without threading a config through every signature. Parallel results
//! are **bitwise deterministic across thread counts**: work is split
//! into fixed-size bands whose per-element reduction order never depends
//! on how bands map to threads.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// 0 = "unset, consult the environment".
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Kernel dispatches that fanned out to scoped worker threads.
static SPAWNED_DISPATCHES: AtomicU64 = AtomicU64::new(0);
/// Kernel dispatches that ran inline (single worker or tiny buffer).
static INLINE_DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(spawned, inline)` kernel-dispatch counts since process
/// start — how often `par_rows`/`par_blocks`/`par_chunks` fanned out to
/// worker threads versus running the closure inline. Cheap relaxed
/// counters, always on; the observability plane exports them as gauges.
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

/// Splits `out` into contiguous chunks of whole `row_len`-sized rows and
/// runs `f(first_row_index, chunk)` for each chunk, one chunk per worker.
///
/// The chunk boundaries depend only on `(rows, threads)` — never on
/// scheduling — and each output row is written by exactly one worker, so
/// results are bitwise deterministic. With one thread (or one row-band)
/// the closure runs inline with no thread spawn.
pub fn par_rows<F>(out: &mut [f32], row_len: usize, f: F)
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
    let threads = num_threads().min(rows.max(1));
    if threads <= 1 || rows <= 1 || out.len() < MIN_BLOCK {
        INLINE_DISPATCHES.fetch_add(1, Ordering::Relaxed);
        f(0, out);
        return;
    }
    SPAWNED_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let per = rows.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = out;
        let mut row0 = 0usize;
        let f = &f;
        while !rest.is_empty() {
            let take = per.min(rest.len() / row_len);
            let (band, tail) = rest.split_at_mut(take * row_len);
            rest = tail;
            let start = row0;
            s.spawn(move || f(start, band));
            row0 += take;
        }
    });
}

/// Minimum elements per worker before an elementwise op bothers
/// spawning: below this, spawn overhead beats the parallel win.
pub const MIN_BLOCK: usize = 4096;

/// Splits a flat buffer into one near-equal contiguous block per worker
/// and runs `f(start_offset, block)` for each. Meant for elementwise
/// kernels, whose per-element results don't depend on the split at all.
/// Runs inline when a single worker (or a small buffer) makes spawning
/// pointless.
pub fn par_blocks<F>(out: &mut [f32], f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let len = out.len();
    let threads = num_threads().min(len.div_ceil(MIN_BLOCK).max(1));
    if threads <= 1 {
        INLINE_DISPATCHES.fetch_add(1, Ordering::Relaxed);
        f(0, out);
        return;
    }
    SPAWNED_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let per = len.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = out;
        let mut off = 0usize;
        let f = &f;
        while !rest.is_empty() {
            let take = per.min(rest.len());
            let (block, tail) = rest.split_at_mut(take);
            rest = tail;
            let start = off;
            s.spawn(move || f(start, block));
            off += take;
        }
    });
}

/// Runs `f(chunk_index)` for `chunks` independent chunks, spread over the
/// configured workers. Used when the work units are not slices of one
/// output buffer (e.g. pre-packing panels into separate scratch buffers).
pub fn par_chunks<F>(chunks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = num_threads().min(chunks.max(1));
    if threads <= 1 || chunks <= 1 {
        INLINE_DISPATCHES.fetch_add(1, Ordering::Relaxed);
        for c in 0..chunks {
            f(c);
        }
        return;
    }
    SPAWNED_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let f = &f;
        let next = &next;
        for _ in 0..threads {
            s.spawn(move || loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    break;
                }
                f(c);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_rows_covers_every_row_once() {
        set_num_threads(4);
        let mut out = vec![0.0f32; 7 * 3];
        par_rows(&mut out, 3, |row0, band| {
            for (r, row) in band.chunks_exact_mut(3).enumerate() {
                for v in row {
                    *v += (row0 + r) as f32 + 1.0;
                }
            }
        });
        for (r, row) in out.chunks_exact(3).enumerate() {
            assert!(row.iter().all(|&v| v == (r + 1) as f32), "row {r}: {row:?}");
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
    fn par_chunks_visits_each_index() {
        set_num_threads(3);
        let hits: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
        par_chunks(10, |c| {
            hits[c].fetch_add(1, Ordering::SeqCst);
        });
        for (c, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "chunk {c}");
        }
        set_num_threads(1);
    }

    #[test]
    fn dispatch_counters_track_spawned_and_inline() {
        let (s0, i0) = parallel_stats();
        set_num_threads(1);
        par_chunks(4, |_| {}); // single worker -> inline
        set_num_threads(2);
        par_chunks(4, |_| {}); // multi-worker -> spawned
        let (s1, i1) = parallel_stats();
        assert!(s1 > s0, "spawned counter should advance");
        assert!(i1 > i0, "inline counter should advance");
        set_num_threads(1);
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
