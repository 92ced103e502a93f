//! Property-based equivalence: the streaming tiled attention against the
//! materialized-score naive oracle, across shapes (crossing the `ATTN_TM`
//! row-block boundary; the `ATTN_TC` column tile exceeds these sequence
//! lengths, so the in-block masking path is the one exercised), thread
//! counts, and NaN/Inf-laced inputs.
//!
//! Tolerance model: the streaming path accumulates the softmax online
//! (rescaling the running context by `exp(m_old - m_new)` per tile) while
//! the oracle normalizes once over the materialized row, so results agree
//! only up to the rounding accumulated over `O(s)` extra operations.
//! Context entries are convex combinations of the laced `|v| < 2` values
//! and gradients stay `O(s)`-bounded at these shapes; the streaming
//! path's polynomial exp adds a further ~3e-7 relative error per weight.
//! A small relative tolerance is therefore sound and still tight enough
//! to catch indexing or rescaling bugs (O(1) errors, not O(s*eps)).
//!
//! Specials: the streaming kernel never computes columns at or beyond a
//! row block's causal bound and gives in-block future columns the same
//! exact-zero probability the oracle's `-inf` mask produces, so a laced
//! NaN/Inf in a *future* `v` row poisons (or doesn't) identically in both
//! backends. The sharp direction that must always hold: a nonfinite
//! streaming output implies the oracle saw a nonfinite output for the
//! same row.

use proptest::prelude::*;
use ratel_tensor::{
    attn_backward_into, attn_backward_naive_into, attn_forward_into, attn_forward_naive_into,
    num_threads, with_width,
};

/// Runs one forward, returning `(ctx, row_max, row_lse)`.
#[allow(clippy::type_complexity)]
fn forward(
    streaming: bool,
    qkv: &[f32],
    b: usize,
    s: usize,
    h: usize,
    heads: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut ctx = vec![0.0f32; b * s * h];
    let mut row_max = vec![0.0f32; b * heads * s];
    let mut row_lse = vec![0.0f32; b * heads * s];
    if streaming {
        attn_forward_into(qkv, b, s, h, heads, &mut ctx, &mut row_max, &mut row_lse);
    } else {
        attn_forward_naive_into(qkv, b, s, h, heads, &mut ctx, &mut row_max, &mut row_lse);
    }
    (ctx, row_max, row_lse)
}

fn close(got: f32, want: f32, rel: f32) -> bool {
    (got - want).abs() <= rel * (1.0 + want.abs())
}

/// Expands a seed vector into a deterministic `len`-element buffer.
fn expand(seed: &[f32], len: usize, stride: usize, off: usize) -> Vec<f32> {
    (0..len)
        .map(|i| seed[(i * stride + off) % seed.len()])
        .collect()
}

/// Sprinkles special values at pseudo-random positions.
fn lace(data: &mut [f32], spots: &[(usize, usize)]) {
    const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0];
    for &(pos, s) in spots {
        if !data.is_empty() {
            data[pos % data.len()] = SPECIALS[s % SPECIALS.len()];
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    #[test]
    fn streaming_forward_matches_naive_for_finite_inputs(
        b in 1usize..3,
        heads in 1usize..4,
        d_pow in 2u32..5, // d in {4, 8, 16}
        s in 1usize..100, // crosses the 32-row and 64-column tile edges
        threads in 1usize..5,
        seed in proptest::collection::vec(-2.0f32..2.0, 1..801),
    ) {
        let d = 1usize << d_pow;
        let h = heads * d;
        let qkv = expand(&seed, b * s * 3 * h, 7, 1);
        let (ctx, row_max, row_lse) = with_width(threads, || {
            assert_eq!(num_threads(), threads);
            forward(true, &qkv, b, s, h, heads)
        });
        let (ctx_o, max_o, lse_o) = forward(false, &qkv, b, s, h, heads);
        for (i, (&g, &w)) in ctx.iter().zip(&ctx_o).enumerate() {
            prop_assert!(close(g, w, 5e-4), "ctx[{}]: got {}, want {}", i, g, w);
        }
        for (i, (&g, &w)) in row_max.iter().zip(&max_o).enumerate() {
            prop_assert!(close(g, w, 5e-4), "row_max[{}]: got {}, want {}", i, g, w);
        }
        for (i, (&g, &w)) in row_lse.iter().zip(&lse_o).enumerate() {
            prop_assert!(close(g, w, 5e-4), "row_lse[{}]: got {}, want {}", i, g, w);
        }
    }

    #[test]
    fn streaming_backward_matches_naive_for_finite_inputs(
        b in 1usize..3,
        heads in 1usize..4,
        d_pow in 2u32..5,
        s in 1usize..80,
        threads in 1usize..5,
        seed in proptest::collection::vec(-2.0f32..2.0, 1..801),
    ) {
        let d = 1usize << d_pow;
        let h = heads * d;
        let qkv = expand(&seed, b * s * 3 * h, 7, 1);
        let dctx = expand(&seed, b * s * h, 11, 3);
        // Each backend consumes its own forward's saved set, exactly as
        // the layer does at train time.
        let dqkv = with_width(threads, || {
            assert_eq!(num_threads(), threads);
            let (ctx, row_max, row_lse) = forward(true, &qkv, b, s, h, heads);
            let mut dqkv = vec![0.0f32; qkv.len()];
            attn_backward_into(
                &qkv, &ctx, &row_max, &row_lse, &dctx, b, s, h, heads, &mut dqkv,
            );
            dqkv
        });
        let (ctx_o, max_o, lse_o) = forward(false, &qkv, b, s, h, heads);
        let mut dqkv_o = vec![0.0f32; qkv.len()];
        attn_backward_naive_into(
            &qkv, &ctx_o, &max_o, &lse_o, &dctx, b, s, h, heads, &mut dqkv_o,
        );
        for (i, (&g, &w)) in dqkv.iter().zip(&dqkv_o).enumerate() {
            prop_assert!(close(g, w, 2e-3), "dqkv[{}]: got {}, want {}", i, g, w);
        }
    }

    #[test]
    fn specials_never_make_streaming_less_finite_than_naive(
        b in 1usize..3,
        heads in 1usize..3,
        s in 1usize..70,
        threads in 1usize..5,
        seed in proptest::collection::vec(-2.0f32..2.0, 1..401),
        spots in proptest::collection::vec((any::<usize>(), 0usize..4), 0..8),
    ) {
        let d = 8usize;
        let h = heads * d;
        let mut qkv = expand(&seed, b * s * 3 * h, 7, 1);
        lace(&mut qkv, &spots);
        let (ctx, row_max, row_lse) = with_width(threads, || {
            assert_eq!(num_threads(), threads);
            forward(true, &qkv, b, s, h, heads)
        });
        let (ctx_o, max_o, lse_o) = forward(false, &qkv, b, s, h, heads);
        for bi in 0..b {
            for hd in 0..heads {
                for t in 0..s {
                    let row = (bi * s + t) * h + hd * d;
                    let got = &ctx[row..row + d];
                    let want = &ctx_o[row..row + d];
                    let u = bi * heads + hd;
                    let got_stats = [row_max[u * s + t], row_lse[u * s + t]];
                    let want_stats = [max_o[u * s + t], lse_o[u * s + t]];
                    let naive_finite = want.iter().chain(&want_stats).all(|v| v.is_finite());
                    if naive_finite {
                        // Oracle untouched by specials here -> streaming
                        // must agree (and in particular stay finite).
                        for (j, (&g, &w)) in got.iter().zip(want).enumerate() {
                            prop_assert!(
                                close(g, w, 5e-4),
                                "unit {} row {} ctx[{}]: got {}, want {}", u, t, j, g, w
                            );
                        }
                        for (g, w) in got_stats.iter().zip(&want_stats) {
                            prop_assert!(close(*g, *w, 5e-4), "unit {} row {} stats", u, t);
                        }
                    }
                    // The sharp causality direction: streaming nonfinite
                    // implies naive nonfinite. (Naive nonfinite with
                    // streaming finite is legal: the special sat in a
                    // masked-future column the streaming kernel skips.)
                    let got_nonfinite =
                        got.iter().chain(&got_stats).any(|v| !v.is_finite());
                    prop_assert!(
                        !(got_nonfinite && naive_finite),
                        "unit {} row {}: streaming nonfinite but oracle finite", u, t
                    );
                }
            }
        }
    }

    #[test]
    fn thread_count_never_changes_attention_bits(
        b in 1usize..3,
        heads in 1usize..4,
        s in 1usize..70,
        seed in proptest::collection::vec(-2.0f32..2.0, 1..601),
    ) {
        let d = 8usize;
        let h = heads * d;
        let qkv = expand(&seed, b * s * 3 * h, 5, 2);
        let dctx = expand(&seed, b * s * h, 13, 4);
        let mut reference: Option<Vec<u32>> = None;
        for threads in 1..=4 {
            let (ctx, row_max, row_lse, dqkv) = with_width(threads, || {
                assert_eq!(num_threads(), threads);
                let (ctx, row_max, row_lse) = forward(true, &qkv, b, s, h, heads);
                let mut dqkv = vec![0.0f32; qkv.len()];
                attn_backward_into(
                    &qkv, &ctx, &row_max, &row_lse, &dctx, b, s, h, heads, &mut dqkv,
                );
                (ctx, row_max, row_lse, dqkv)
            });
            let bits: Vec<u32> = ctx
                .iter()
                .chain(&row_max)
                .chain(&row_lse)
                .chain(&dqkv)
                .map(|v| v.to_bits())
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(want) => prop_assert!(
                    want == &bits,
                    "thread count {} changed attention bits", threads
                ),
            }
        }
    }
}
