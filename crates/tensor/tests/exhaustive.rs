//! Exhaustive sweeps of the elementwise kernels against their oracles,
//! `#[ignore]`d because they take minutes; run them in a release build:
//! `cargo test --release -p ratel-tensor -- --ignored`.
//!
//! - the f16 encode lane (`f32_to_f16_bits_slice`) is bitwise the scalar
//!   `f32_to_f16_bits` on all 2^32 inputs;
//! - the scalar is bitwise F16C's `vcvtps2ph` (round to nearest) on every
//!   non-NaN input, where the CPU has F16C;
//! - GELU and its derivative stay within their bounds of the libm formula
//!   (`ops::naive`) on every f32 in [-12, 12].

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use ratel_tensor::dtype::{f32_to_f16_bits, f32_to_f16_bits_slice};
use ratel_tensor::ops::{self, naive};
use ratel_tensor::{num_threads, with_width, Tensor};

/// Runs `check(block)` for every block index in `blocks`, spread over the
/// cores, with the kernels inside serial: the sweep is the fan-out. A
/// block is the 2^16 bit patterns `block << 16 | 0..=0xffff`.
fn for_each_block(blocks: std::ops::Range<u32>, check: impl Fn(u32) + Sync) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for w in 0..workers {
            let (check, blocks) = (&check, blocks.clone());
            s.spawn(move || {
                with_width(1, || {
                    assert_eq!(num_threads(), 1);
                    blocks.skip(w).step_by(workers).for_each(check)
                })
            });
        }
    });
}

fn block_values(block: u32) -> Vec<f32> {
    (0..=0xffff)
        .map(|lo| f32::from_bits(block << 16 | lo))
        .collect()
}

#[test]
#[ignore = "exhaustive: all 2^32 inputs, seconds in release"]
fn encode_lane_is_the_scalar_on_every_f32() {
    for_each_block(0..1 << 16, |block| {
        let vals = block_values(block);
        let mut got = vec![0u16; vals.len()];
        f32_to_f16_bits_slice(&vals, &mut got);
        for (&v, &g) in vals.iter().zip(&got) {
            assert_eq!(g, f32_to_f16_bits(v), "f32 bits {:#010x}", v.to_bits());
        }
    });
}

#[cfg(target_arch = "x86_64")]
#[test]
#[ignore = "exhaustive: all 2^32 inputs, tens of seconds in release"]
fn scalar_encode_is_f16c_on_every_non_nan_f32() {
    if !is_x86_feature_detected!("f16c") {
        eprintln!("no F16C on this CPU: nothing to compare against");
        return;
    }
    for_each_block(0..1 << 16, |block| {
        for chunk in block_values(block).chunks_exact(8) {
            // SAFETY: F16C support was checked above; F16C implies AVX.
            let hardware = unsafe { f16c_encode(chunk) };
            for (&v, &h) in chunk.iter().zip(&hardware) {
                if !v.is_nan() {
                    assert_eq!(f32_to_f16_bits(v), h, "f32 bits {:#010x}", v.to_bits());
                }
            }
        }
    });
}

/// Eight values through `vcvtps2ph` with round-to-nearest-even.
///
/// # Safety
/// The CPU must support F16C and AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,f16c")]
unsafe fn f16c_encode(values: &[f32]) -> [u16; 8] {
    use std::arch::x86_64::*;
    assert_eq!(values.len(), 8);
    let mut out = [0u16; 8];
    // SAFETY: both pointers cover eight elements (asserted above) and the
    // caller guarantees the features.
    unsafe {
        let half = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(values.as_ptr()));
        _mm_storeu_si128(out.as_mut_ptr() as *mut _, half);
    }
    out
}

#[test]
#[ignore = "exhaustive: every f32 in [-12, 12], minutes in release"]
fn gelu_is_within_its_bounds_of_the_libm_formula_on_every_f32_to_12() {
    let twelve = 12.0f32.to_bits() >> 16;
    let (exact, total) = (AtomicU64::new(0), AtomicU64::new(0));
    // Worst errors as f32 bits: non-negative floats order as integers.
    let (worst_fwd, worst_bwd) = (AtomicU32::new(0), AtomicU32::new(0));
    for_each_block(0..2 * (twelve + 1), |i| {
        let block = if i > twelve {
            0x8000 | (i - twelve - 1)
        } else {
            i
        };
        let xs: Vec<f32> = block_values(block)
            .into_iter()
            .filter(|v| v.abs() <= 12.0)
            .collect();
        let x = Tensor::from_vec(&[xs.len()], xs.clone());
        let dy = Tensor::full(&[xs.len()], 1.0);
        let (fwd, fwd_want) = (ops::gelu(&x), naive::gelu(&x));
        let (bwd, bwd_want) = (ops::gelu_backward(&x, &dy), naive::gelu_backward(&x, &dy));
        let mut block_exact = 0;
        for (i, &v) in xs.iter().enumerate() {
            let (got, want) = (fwd.data()[i], fwd_want.data()[i]);
            let (dgot, dwant) = (bwd.data()[i], bwd_want.data()[i]);
            let fwd_err = (got - want).abs() / v.abs().max(1.0);
            let bwd_err = (dgot - dwant).abs();
            assert!(fwd_err <= 2.5e-7, "gelu({v:e}) {got:e} vs {want:e}");
            assert!(bwd_err <= 2e-6, "gelu'({v:e}) {dgot:e} vs {dwant:e}");
            block_exact += u64::from(got.to_bits() == want.to_bits());
            worst_fwd.fetch_max(fwd_err.to_bits(), Ordering::Relaxed);
            worst_bwd.fetch_max(bwd_err.to_bits(), Ordering::Relaxed);
        }
        exact.fetch_add(block_exact, Ordering::Relaxed);
        total.fetch_add(xs.len() as u64, Ordering::Relaxed);
    });
    let (exact, total) = (exact.into_inner(), total.into_inner());
    eprintln!(
        "{total} inputs, {:.2} % bitwise the formula; worst gelu {:e} x max(1, |x|), worst gelu' {:e}",
        100.0 * exact as f64 / total as f64,
        f32::from_bits(worst_fwd.into_inner()),
        f32::from_bits(worst_bwd.into_inner()),
    );
}
