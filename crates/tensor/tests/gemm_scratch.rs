//! A GEMM band checks its `KC×NC` B block out of the scratch of the
//! thread that runs it, so no checkout grows with the width: once warm,
//! `ops::matmul` at 384³ allocates no scratch on the calling thread or on
//! any of the pool's band threads, at widths 1 to 4. One `#[test]` in its
//! own binary, so no other test's bands land on the band threads.

use ratel_tensor::ops::matmul;
use ratel_tensor::{pool_stats, scratch_stats, with_width, Tensor};

/// Scratch misses of the calling thread and of every band thread.
fn misses() -> (u64, Vec<u64>) {
    let bands = pool_stats().band_scratch.iter().map(|s| s.misses).collect();
    (scratch_stats().misses, bands)
}

#[test]
fn a_warm_matmul_allocates_no_scratch_on_any_thread_at_any_width() {
    let a = Tensor::randn(&[384, 384], 1.0, 1);
    let b = Tensor::randn(&[384, 384], 1.0, 2);
    for width in 1..=4 {
        with_width(width, || {
            // Warm until every band thread has run a band of this shape:
            // which thread claims which band is the pool's to decide.
            for call in 0.. {
                drop(matmul(&a, &b));
                let stats = pool_stats();
                if stats.band_scratch.iter().all(|s| s.checkouts > 0) {
                    break;
                }
                assert!(call < 10_000, "a band thread never ran a band: {stats:?}");
            }
            let before = misses();
            for _ in 0..10 {
                drop(matmul(&a, &b));
            }
            assert_eq!(misses(), before, "at width {width}: (caller, band threads)");
        });
    }
}
