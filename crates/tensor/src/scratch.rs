//! Thread-local scratch-buffer pool for the hot kernels.
//!
//! Packing buffers and other per-call temporaries used to be fresh `Vec`
//! allocations on every kernel invocation — per training step that is
//! thousands of transient allocations on the critical path. This pool
//! hands out recycled `Vec<f32>`s instead: a checkout takes the smallest
//! free buffer that fits (the most recently returned of equals, warm in
//! cache), else grows the largest, and the RAII guard returns it on drop.
//!
//! Ownership rules (see DESIGN.md "Scratch arena"):
//! - Buffers never cross threads: the pool is `thread_local!`, so a band
//!   that [`crate::parallel`] runs on a pool thread checks out from that
//!   thread's *own* pool. A guard must therefore not be sent into a band.
//! - Who keeps what: the pool's band threads live as long as the process
//!   and keep their buffers from band to band; executor workers free
//!   theirs ([`release`]) when they park at the end of a run.
//! - A checked-out buffer is exclusively owned until the guard drops;
//!   recursive kernel calls simply check out further buffers.
//! - Contents are uninitialized from the caller's perspective: the guard
//!   hands out a zero-filled prefix of the requested length, but callers
//!   must not rely on data surviving between checkouts.
//! - The pool keeps no buffer of more than [`SCRATCH_BLOCK`] floats: a
//!   larger one (attention's operand-sized unit-major staging) is freed
//!   when its guard drops. A GEMM band checks its one B block out on the
//!   thread that runs it, so the GEMMs stay allocation-free once warm at
//!   any width, and a thread that lives as long as the process holds at
//!   most a few blocks, whatever the model's size.

use std::cell::RefCell;

/// The most floats (256 KiB) a buffer the pool keeps may hold: one packed
/// GEMM block (`gemm::KC` × `gemm::NC`) fits it.
pub const SCRATCH_BLOCK: usize = 64 * 1024;

thread_local! {
    static POOL: RefCell<Pool> = const { RefCell::new(Pool::new()) };
}

struct Pool {
    free: Vec<Vec<f32>>,
    stats: ScratchStats,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            free: Vec::new(),
            stats: ScratchStats {
                checkouts: 0,
                misses: 0,
                largest: 0,
                kept: 0,
            },
        }
    }
}

/// One thread's pool counters since the thread started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Buffers checked out.
    pub checkouts: u64,
    /// Checkouts that had to allocate: no free buffer was large enough.
    /// At steady state misses stop growing while checkouts keep counting.
    pub misses: u64,
    /// The longest checkout, in floats.
    pub largest: usize,
    /// Floats the pool keeps now, in the buffers no guard holds.
    pub kept: usize,
}

/// RAII handle to a pooled `Vec<f32>`; derefs to `[f32]` of the requested
/// length and returns the buffer to this thread's pool on drop.
pub struct ScratchVec {
    buf: Vec<f32>,
}

/// Checks out a zeroed scratch buffer of `len` floats from the current
/// thread's pool.
pub fn scratch_f32(len: usize) -> ScratchVec {
    let mut buf = POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.stats.checkouts += 1;
        p.stats.largest = p.stats.largest.max(len);
        // Newest first, so the most recently returned of equal fits wins.
        // A buffer over the bound is not kept, so it takes none from the
        // pool.
        let free = p.free.iter().enumerate().rev();
        let fit = (free.clone().filter(|(_, b)| b.capacity() >= len))
            .min_by_key(|(_, b)| b.capacity())
            .or_else(|| free.max_by_key(|(_, b)| b.capacity()))
            .filter(|_| len <= SCRATCH_BLOCK)
            .map(|(i, _)| i);
        let buf = fit.map_or_else(Vec::new, |i| p.free.swap_remove(i));
        if buf.capacity() < len {
            p.stats.misses += 1;
        }
        buf
    });
    buf.clear();
    // Exact, so a buffer grown to the bound stays within it.
    buf.reserve_exact(len);
    buf.resize(len, 0.0);
    ScratchVec { buf }
}

impl std::ops::Deref for ScratchVec {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl std::ops::DerefMut for ScratchVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for ScratchVec {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() <= SCRATCH_BLOCK {
            POOL.with(|p| p.borrow_mut().free.push(buf));
        }
    }
}

/// This thread's pool counters.
pub fn scratch_stats() -> ScratchStats {
    POOL.with(|p| {
        let p = p.borrow();
        let kept = p.free.iter().map(Vec::capacity).sum();
        ScratchStats { kept, ..p.stats }
    })
}

/// Frees every buffer this thread's pool keeps, as the thread's exit
/// would: a pool thread that served an executor run calls it before it
/// parks, so what a run checked out does not outlive the run.
pub(crate) fn release() {
    POOL.with(|p| p.borrow_mut().free = Vec::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_and_zeroing() {
        {
            let mut a = scratch_f32(16);
            a[0] = 42.0;
            a[15] = 7.0;
        }
        let b = scratch_f32(8);
        assert!(b.iter().all(|&v| v == 0.0), "recycled buffer not zeroed");
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn steady_state_stops_missing() {
        // Two live checkouts at once: the first round allocates both
        // buffers, and every later round takes them back, whichever of
        // the two was returned last.
        for round in 0..100 {
            let before = scratch_stats().misses;
            {
                let _a = scratch_f32(64);
                let _b = scratch_f32(32);
            }
            {
                let _b = scratch_f32(32);
                let _a = scratch_f32(64);
            }
            let missed = scratch_stats().misses - before;
            assert_eq!(missed, if round == 0 { 2 } else { 0 }, "round {round}");
        }
    }

    #[test]
    fn nested_checkouts_are_distinct() {
        let mut a = scratch_f32(4);
        let mut b = scratch_f32(4);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_eq!(a[0], 1.0);
        assert_eq!(b[0], 2.0);
    }

    #[test]
    fn a_buffer_over_the_bound_is_not_kept() {
        // On a thread of its own, so the pool starts empty.
        std::thread::scope(|s| {
            s.spawn(|| {
                for len in [SCRATCH_BLOCK, SCRATCH_BLOCK + 1] {
                    drop(scratch_f32(len));
                    let before = scratch_stats().misses;
                    drop(scratch_f32(len));
                    let kept = scratch_stats().misses == before;
                    assert_eq!(kept, len <= SCRATCH_BLOCK, "{len} floats");
                }
                assert_eq!(scratch_stats().largest, SCRATCH_BLOCK + 1);
                // Nor does it take a kept buffer with it.
                let before = scratch_stats().misses;
                drop(scratch_f32(SCRATCH_BLOCK));
                assert_eq!(scratch_stats().misses, before, "the kept block was lost");
                POOL.with(|p| {
                    let p = p.borrow();
                    assert!(p.free.iter().all(|b| b.capacity() <= SCRATCH_BLOCK));
                });
            });
        });
    }
}
