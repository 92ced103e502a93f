//! Property-based equivalence: the tiled/parallel kernels against the
//! naive reference oracle (`ratel_tensor::ops::naive`), across shapes,
//! thread counts, and NaN/Inf-laced inputs.
//!
//! Tolerance model: the scalar tiled kernel accumulates in exactly the
//! same element order as the reference, so without FMA the results are
//! bitwise equal. The AVX2+FMA microkernel fuses each multiply-add
//! (one rounding instead of two), so each output may differ by the
//! accumulated rounding of `k` fused steps — bounded here by
//! `k * eps * sum(|a_ip| * |b_pj|)` plus one ulp of the result.

use proptest::prelude::*;
use ratel_tensor::ops::{self, naive};
use ratel_tensor::{num_threads, with_width, Tensor};

/// |tiled - reference| bound for one output element with accumulator
/// magnitude `mag` over a length-`k` reduction.
fn tolerance(k: usize, mag: f32) -> f32 {
    let eps = f32::EPSILON;
    2.0 * (k as f32) * eps * mag + eps
}

/// Sum of |a_ip| * |b_pj| — the worst-case accumulator magnitude.
fn magnitude(av: &[f32], bv: &[f32], m: usize, k: usize, n: usize, i: usize, j: usize) -> f32 {
    debug_assert_eq!(av.len(), m * k);
    debug_assert_eq!(bv.len(), k * n);
    (0..k).map(|p| (av[i * k + p] * bv[p * n + j]).abs()).sum()
}

fn assert_matches_oracle(
    got: &Tensor,
    want: &Tensor,
    a: &Tensor,
    b: &Tensor,
    shape: (usize, usize, usize),
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (m, k, n) = shape;
    let (gd, wd) = (got.data(), want.data());
    prop_assert_eq!(gd.len(), wd.len());
    for i in 0..m {
        for j in 0..n {
            let (g, w) = (gd[i * n + j], wd[i * n + j]);
            // Non-finite results must match in kind and placement; the
            // exact NaN payload / Inf sign can differ only if the
            // reference itself produced NaN (e.g. Inf - Inf), which the
            // same-order scalar path reproduces and the FMA path may not
            // sign-match — so compare classes, not bits.
            if w.is_nan() {
                prop_assert!(g.is_nan(), "[{},{}]: oracle NaN, got {}", i, j, g);
                continue;
            }
            if w.is_infinite() {
                prop_assert!(
                    !g.is_finite(),
                    "[{},{}]: oracle {}, got finite {}",
                    i,
                    j,
                    w,
                    g
                );
                continue;
            }
            let mag = magnitude(a.data(), b.data(), m, k, n, i, j);
            let tol = tolerance(k, mag);
            prop_assert!(
                (g - w).abs() <= tol,
                "[{},{}]: got {}, want {}, tol {}",
                i,
                j,
                g,
                w,
                tol
            );
        }
    }
    Ok(())
}

/// Builds the explicit transpose of a row-major `r x c` matrix.
fn transpose(t: &Tensor, r: usize, c: usize) -> Tensor {
    let d = t.data();
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = d[i * c + j];
        }
    }
    Tensor::from_vec(&[c, r], out)
}

/// Sprinkles NaN/Inf values at pseudo-random positions.
fn lace(data: &mut [f32], specials: &[(usize, f32)]) {
    for &(pos, val) in specials {
        if !data.is_empty() {
            data[pos % data.len()] = val;
        }
    }
}

const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    #[test]
    fn tiled_matmul_matches_naive_for_finite_inputs(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        threads in 1usize..5,
        seed_a in proptest::collection::vec(-4.0f32..4.0, 1..1601),
        seed_b in proptest::collection::vec(-4.0f32..4.0, 1..1601),
    ) {
        let av: Vec<f32> = (0..m * k).map(|i| seed_a[i % seed_a.len()]).collect();
        let bv: Vec<f32> = (0..k * n).map(|i| seed_b[i % seed_b.len()]).collect();
        let a = Tensor::from_vec(&[m, k], av);
        let b = Tensor::from_vec(&[k, n], bv);
        let got = with_width(threads, || {
            assert_eq!(num_threads(), threads);
            ops::matmul(&a, &b)
        });
        let want = naive::matmul(&a, &b);
        assert_matches_oracle(&got, &want, &a, &b, (m, k, n))?;
    }

    #[test]
    fn tiled_matmul_at_matches_naive(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        threads in 1usize..5,
        seed in proptest::collection::vec(-3.0f32..3.0, 1..601),
    ) {
        let av: Vec<f32> = (0..m * k).map(|i| seed[(i * 7 + 1) % seed.len()]).collect();
        let bv: Vec<f32> = (0..k * n).map(|i| seed[(i * 11 + 3) % seed.len()]).collect();
        let a = Tensor::from_vec(&[m, k], av);
        let b = Tensor::from_vec(&[k, n], bv);
        // matmul_at takes A already transposed: at is k x m.
        let at = transpose(&a, m, k);
        let got = with_width(threads, || {
            assert_eq!(num_threads(), threads);
            ops::matmul_at(&at, &b)
        });
        let want = naive::matmul_at(&at, &b);
        assert_matches_oracle(&got, &want, &a, &b, (m, k, n))?;
    }

    #[test]
    fn tiled_matmul_bt_matches_naive(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        threads in 1usize..5,
        seed in proptest::collection::vec(-3.0f32..3.0, 1..601),
    ) {
        let av: Vec<f32> = (0..m * k).map(|i| seed[(i * 5 + 2) % seed.len()]).collect();
        let bv: Vec<f32> = (0..k * n).map(|i| seed[(i * 13 + 5) % seed.len()]).collect();
        let a = Tensor::from_vec(&[m, k], av);
        let b = Tensor::from_vec(&[k, n], bv);
        // matmul_bt takes B already transposed: bt is n x k.
        let bt = transpose(&b, k, n);
        let got = with_width(threads, || {
            assert_eq!(num_threads(), threads);
            ops::matmul_bt(&a, &bt)
        });
        let want = naive::matmul_bt(&a, &bt);
        assert_matches_oracle(&got, &want, &a, &b, (m, k, n))?;
    }

    #[test]
    fn nan_and_inf_placement_matches_naive(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        threads in 1usize..5,
        seed in proptest::collection::vec(-2.0f32..2.0, 1..401),
        spots in proptest::collection::vec((any::<usize>(), 0usize..4), 0..6),
    ) {
        let mut av: Vec<f32> = (0..m * k).map(|i| seed[(i * 3 + 1) % seed.len()]).collect();
        let mut bv: Vec<f32> = (0..k * n).map(|i| seed[(i * 17 + 7) % seed.len()]).collect();
        let a_spots: Vec<(usize, f32)> =
            spots.iter().map(|&(p, s)| (p, SPECIALS[s])).collect();
        let b_spots: Vec<(usize, f32)> =
            spots.iter().map(|&(p, s)| (p.rotate_left(16), SPECIALS[s])).collect();
        lace(&mut av, &a_spots);
        lace(&mut bv, &b_spots);
        let a = Tensor::from_vec(&[m, k], av);
        let b = Tensor::from_vec(&[k, n], bv);
        let got = with_width(threads, || {
            assert_eq!(num_threads(), threads);
            ops::matmul(&a, &b)
        });
        let want = naive::matmul(&a, &b);
        assert_matches_oracle(&got, &want, &a, &b, (m, k, n))?;
    }

    #[test]
    fn thread_count_never_changes_bits(
        m in 1usize..32,
        k in 1usize..32,
        n in 1usize..32,
        seed in proptest::collection::vec(-5.0f32..5.0, 1..1025),
    ) {
        let av: Vec<f32> = (0..m * k).map(|i| seed[(i * 19 + 3) % seed.len()]).collect();
        let bv: Vec<f32> = (0..k * n).map(|i| seed[(i * 23 + 9) % seed.len()]).collect();
        let a = Tensor::from_vec(&[m, k], av);
        let b = Tensor::from_vec(&[k, n], bv);
        let mut reference: Option<Vec<u32>> = None;
        for threads in 1..=4 {
            let out = with_width(threads, || {
                assert_eq!(num_threads(), threads);
                ops::matmul(&a, &b)
            });
            let bits: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(want) => {
                    prop_assert!(want == &bits, "thread count {} changed result bits", threads)
                }
            }
        }
    }
}

/// GELU and layernorm are elementwise/row-wise; their parallel split must
/// be bitwise invariant too. Deterministic (non-proptest) spot check over
/// a sweep of sizes crossing the MIN_BLOCK inline threshold.
#[test]
fn elementwise_kernels_bitwise_stable_across_threads() {
    for &len in &[1usize, 100, 4095, 4096, 10_000, 50_000] {
        let x = Tensor::from_vec(
            &[len],
            (0..len)
                .map(|i| ((i * 29) % 97) as f32 * 0.07 - 3.0)
                .collect(),
        );
        let dy = x.scale(-0.5);
        let kernels: [(&str, &dyn Fn() -> Tensor); 2] = [
            ("gelu", &|| ops::gelu(&x)),
            ("gelu_backward", &|| ops::gelu_backward(&x, &dy)),
        ];
        for (name, kernel) in kernels {
            let g1 = with_width(1, || {
                assert_eq!(num_threads(), 1);
                kernel()
            });
            let g4 = with_width(4, || {
                assert_eq!(num_threads(), 4);
                kernel()
            });
            assert!(
                g1.data()
                    .iter()
                    .zip(g4.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name} at len {len} not thread-invariant"
            );
        }
    }
}
