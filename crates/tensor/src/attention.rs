//! Streaming tiled causal attention kernels.
//!
//! The forward pass processes K/V in column tiles with an online-softmax
//! accumulator (running `(max, sum-of-exp)` per query row, rescaled by
//! `exp(m_old - m_new)` when a tile raises the max) and never materializes
//! the `[s, s]` score or probability matrices: the only per-row state that
//! survives the forward is `(row_max, row_lse)` plus the `[s, d]` context.
//! The backward pass recomputes per-tile probabilities from Q/K and the
//! saved row statistics — `p = exp(score - row_max - row_lse)` — and uses
//! the flash-attention identity `D_t = dc_t · ctx_t = Σ_j p_tj (dc_t · v_j)`
//! so the softmax Jacobian never needs a full row either.
//!
//! Score tiles are produced by the serial entry of the blocked GEMM
//! (`gemm::gemm_serial`), so the microkernel and its AVX2 dispatch are
//! shared with the matmul path; parallelism lives one level up, over
//! `(batch, head)` units, which write disjoint per-unit scratch regions and
//! are therefore bitwise deterministic across thread counts. All tile and
//! panel buffers come from the thread-local scratch pool ([`crate::scratch`]),
//! so a steady-state single-threaded attention step performs zero heap
//! allocations in these kernels (asserted by the perf suite).
//!
//! The previous materialized path is kept as the oracle
//! ([`attn_forward_naive_into`] / [`attn_backward_naive_into`]): it builds
//! the full score matrix per unit exactly as before and is the reference the
//! streaming path is property-tested against and the bench ratio is taken
//! over; no layer calls it. Both produce the same shrunken saved set — the
//! oracle, too, recomputes probabilities in backward from the row statistics.
//!
//! Causality works at two granularities in the streaming path: columns at
//! or beyond a row block's bound (`j >= t0 + tm`) are never computed at
//! all, while in-block future columns (`t < j < t0 + tm`) are assigned an
//! exact `0.0` probability before the tile-level `P~ @ V` GEMM — the same
//! zero the oracle's `exp(-inf)` mask produces, so IEEE poisoning
//! (`0 * inf = 0 * NaN = NaN`) behaves identically in both kernels.
//! All-finite rows take the crate's polynomial exp (`ops::exp_nonpos`,
//! in an AVX2+FMA lane when available); any row holding a non-finite
//! score falls back to libm `exp` so NaN propagation and `exp(-inf) = 0`
//! stay exact.

use crate::gemm::{
    gemm_serial, gemm_serial_packed, pack_b_full, packed_b_len, LayoutA, LayoutB, NR,
};
use crate::ops::{exp_nonpos, matmul, matmul_at, matmul_bt, softmax_backward_into};
use crate::parallel::{band_len, par_bands, par_rows};
use crate::scratch::scratch_f32;
use crate::tensor::Tensor;

/// Query rows per streaming block.
pub const ATTN_TM: usize = 64;
/// K/V columns per streaming tile.
pub const ATTN_TC: usize = 256;

/// In-place `row[i] = exp(row[i] - m)` over finite scores with max `m`,
/// returning the row sum. Eight independent accumulator lanes keep the
/// reduction order fixed (bitwise deterministic for a given machine)
/// regardless of how the surrounding tile loop is scheduled.
#[inline]
fn exp_shift_sum(row: &mut [f32], m: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::fma_available() {
        // SAFETY: gated on runtime detection of avx2+fma.
        return unsafe { exp_shift_sum_fma(row, m) };
    }
    let n8 = row.len() & !7;
    let mut lanes = [0.0f32; 8];
    for c in row[..n8].chunks_exact_mut(8) {
        for (i, v) in c.iter_mut().enumerate() {
            let e = exp_nonpos(*v - m);
            *v = e;
            lanes[i] += e;
        }
    }
    let mut tail = 0.0f32;
    for v in row[n8..].iter_mut() {
        let e = exp_nonpos(*v - m);
        *v = e;
        tail += e;
    }
    lanes.iter().sum::<f32>() + tail
}

/// AVX2+FMA lane of [`exp_shift_sum`]: [`exp_nonpos`] on eight elements
/// per step (`cvtps` round-to-nearest supplies the exponent split), with
/// the same eight-lane fixed-order reduction as the scalar fallback.
///
/// # Safety
/// Caller must ensure the CPU supports `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_shift_sum_fma(row: &mut [f32], m: f32) -> f32 {
    use std::arch::x86_64::*;
    let n8 = row.len() & !7;
    let mv = _mm256_set1_ps(m);
    let clamp = _mm256_set1_ps(-87.0);
    let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
    let ln2_hi = _mm256_set1_ps(0.693_359_4);
    let ln2_lo = _mm256_set1_ps(-2.121_944_4e-4);
    let c0 = _mm256_set1_ps(1.987_569_1e-4);
    let c1 = _mm256_set1_ps(1.398_199_9e-3);
    let c2 = _mm256_set1_ps(8.333_452e-3);
    let c3 = _mm256_set1_ps(4.166_579_6e-2);
    let c4 = _mm256_set1_ps(1.666_666_6e-1);
    let c5 = _mm256_set1_ps(5e-1);
    let one = _mm256_set1_ps(1.0);
    let bias = _mm256_set1_epi32(127);
    let mut acc = _mm256_setzero_ps();
    let p = row.as_mut_ptr();
    let mut i = 0usize;
    while i < n8 {
        let x = _mm256_max_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mv), clamp);
        let z = _mm256_mul_ps(x, log2e);
        let ni = _mm256_cvtps_epi32(z);
        let n = _mm256_cvtepi32_ps(ni);
        let r = _mm256_fnmadd_ps(n, ln2_lo, _mm256_fnmadd_ps(n, ln2_hi, x));
        let mut q = c0;
        q = _mm256_fmadd_ps(q, r, c1);
        q = _mm256_fmadd_ps(q, r, c2);
        q = _mm256_fmadd_ps(q, r, c3);
        q = _mm256_fmadd_ps(q, r, c4);
        q = _mm256_fmadd_ps(q, r, c5);
        let poly = _mm256_add_ps(_mm256_fmadd_ps(q, _mm256_mul_ps(r, r), r), one);
        let scale2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(ni, bias)));
        let e = _mm256_mul_ps(poly, scale2n);
        _mm256_storeu_ps(p.add(i), e);
        acc = _mm256_add_ps(acc, e);
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut sum = lanes.iter().sum::<f32>();
    for v in row[n8..].iter_mut() {
        let e = exp_nonpos(*v - m);
        *v = e;
        sum += e;
    }
    sum
}

fn check_shapes(
    qkv: &[f32],
    batch: usize,
    seq: usize,
    h: usize,
    heads: usize,
    ctx_len: usize,
    stat_len: usize,
) -> usize {
    assert!(
        heads > 0 && h.is_multiple_of(heads),
        "h {h} / heads {heads}"
    );
    assert_eq!(qkv.len(), batch * seq * 3 * h, "qkv length");
    assert_eq!(ctx_len, batch * seq * h, "ctx length");
    assert_eq!(stat_len, batch * heads * seq, "row-stat length");
    h / heads
}

/// Streaming causal attention forward.
///
/// Reads `qkv: [b*s, 3h]` and writes the concatenated per-head context
/// `ctx: [b*s, h]` plus per-row softmax statistics `row_max`/`row_lse`
/// (`[b*heads*s]`, unit-major) — everything backward needs.
#[allow(clippy::too_many_arguments)]
pub fn attn_forward_into(
    qkv: &[f32],
    batch: usize,
    seq: usize,
    h: usize,
    heads: usize,
    ctx: &mut [f32],
    row_max: &mut [f32],
    row_lse: &mut [f32],
) {
    let d = check_shapes(qkv, batch, seq, h, heads, ctx.len(), row_max.len());
    assert_eq!(row_lse.len(), row_max.len(), "row-stat length");
    let units = batch * heads;
    let scale = 1.0 / (d as f32).sqrt();
    let mut ctx_units = scratch_f32(units * seq * d);
    // Bands of whole units: each unit's outputs are computed by exactly
    // one worker with unit-local loop order, so any split is bitwise
    // equivalent. (`max(1)`: an empty problem has no band.)
    let per = band_len(units, units);
    let bands = ctx_units
        .chunks_mut((per * seq * d).max(1))
        .zip(row_max.chunks_mut((per * seq).max(1)))
        .zip(row_lse.chunks_mut((per * seq).max(1)));
    par_bands(bands, |i, ((cb, mb), lb)| {
        let unit_bands = cb
            .chunks_exact_mut(seq * d)
            .zip(mb.chunks_exact_mut(seq))
            .zip(lb.chunks_exact_mut(seq));
        for (j, ((c, m), l)) in unit_bands.enumerate() {
            let u = i * per + j;
            unit_forward(qkv, u / heads, u % heads, seq, h, d, scale, c, m, l);
        }
    });
    // Interleave the unit-major context back into [b*s, h] rows.
    let cu = &ctx_units[..];
    par_rows(ctx, h, |row0, band| {
        for (r, row) in band.chunks_exact_mut(h).enumerate() {
            let gr = row0 + r;
            let (bi, t) = (gr / seq, gr % seq);
            for hd in 0..heads {
                let src = ((bi * heads + hd) * seq + t) * d;
                row[hd * d..(hd + 1) * d].copy_from_slice(&cu[src..src + d]);
            }
        }
    });
}

/// One `(batch, head)` unit of the streaming forward: gathers this head's
/// `[s, d]` Q/K/V panels, then walks query-row blocks × K/V column tiles
/// with the online-softmax recurrence.
#[allow(clippy::too_many_arguments)]
fn unit_forward(
    qkv: &[f32],
    bi: usize,
    hd: usize,
    seq: usize,
    h: usize,
    d: usize,
    scale: f32,
    ctx_u: &mut [f32],
    m_out: &mut [f32],
    lse_out: &mut [f32],
) {
    let mut qb = scratch_f32(seq * d);
    let mut kb = scratch_f32(seq * d);
    let mut vb = scratch_f32(seq * d);
    gather_head(qkv, bi, seq, h, 0, hd, d, &mut qb);
    gather_head(qkv, bi, seq, h, 1, hd, d, &mut kb);
    gather_head(qkv, bi, seq, h, 2, hd, d, &mut vb);
    // Fold the softmax scale into the Q panel once (s*d multiplies)
    // instead of into every score tile (s^2/2).
    for q in qb.iter_mut() {
        *q *= scale;
    }
    // Pre-pack K^T once per unit: every row block walks the same K
    // columns, so per-tile re-packing (a strided scalar gather for the
    // transposed layout) would otherwise dominate the score GEMMs.
    let mut kpack = scratch_f32(packed_b_len(d, seq));
    pack_b_full(d, seq, &kb, LayoutB::Transposed, &mut kpack);
    // Tiles no larger than the sequence: a short one checks out, and a
    // pool thread keeps, only what its blocks can fill.
    let (tm_max, tc_max) = (ATTN_TM.min(seq), ATTN_TC.min(seq));
    let mut sc = scratch_f32(tm_max * tc_max);
    let mut acc = scratch_f32(tm_max * d);
    let mut pv = scratch_f32(tm_max * d);
    let mut mvec = [f32::NEG_INFINITY; ATTN_TM];
    let mut lvec = [0.0f32; ATTN_TM];
    let mut fvec = [1.0f32; ATTN_TM];

    let mut t0 = 0usize;
    while t0 < seq {
        let tm = ATTN_TM.min(seq - t0);
        // Causal bound for this row block: no row needs a column >= t0+tm.
        let w = t0 + tm;
        acc[..tm * d].fill(0.0);
        mvec[..tm].fill(f32::NEG_INFINITY);
        lvec[..tm].fill(0.0);
        let mut j0 = 0usize;
        while j0 < w {
            let tc = ATTN_TC.min(w - j0);
            gemm_serial_packed(
                tm,
                d,
                tc,
                &qb[t0 * d..(t0 + tm) * d],
                LayoutA::Normal,
                &kpack[(j0 / NR) * d * NR..(j0 + tc).div_ceil(NR) * d * NR],
                &mut sc[..tm * tc],
            );
            // Turn the score tile into unnormalized probabilities in
            // place, per row, updating the online (max, sum) recurrence.
            // Masked columns get an exact 0.0 weight — the same zero the
            // oracle's `exp(-inf)` produces — so the tile-level GEMM
            // below can consume the full [tm, tc] buffer.
            for r in 0..tm {
                let t = t0 + r;
                let row = &mut sc[r * tc..(r + 1) * tc];
                if t < j0 {
                    // Row entirely in the future of this tile: zero
                    // weight everywhere, recurrence untouched.
                    row.fill(0.0);
                    fvec[r] = 1.0;
                    continue;
                }
                let cnt = (t + 1 - j0).min(tc);
                // Fold the tile max (scores carry the scale via the Q
                // panel); f32::max ignores NaN like the oracle's fold.
                // The finiteness fold picks the exp flavor below.
                let mut tile_max = f32::NEG_INFINITY;
                let mut finite = true;
                for &v in row[..cnt].iter() {
                    tile_max = tile_max.max(v);
                    finite &= v.is_finite();
                }
                let m_new = mvec[r].max(tile_max);
                // Rescale the running sum; exp(0) = 1 and exp(-inf) = 0
                // make the no-change and first-tile cases exact, and a
                // +inf score poisons the row to NaN exactly like the
                // materialized softmax does.
                let factor = (mvec[r] - m_new).exp();
                lvec[r] *= factor;
                fvec[r] = factor;
                if finite && m_new.is_finite() {
                    // All-finite tile under a finite running max (the
                    // overwhelmingly common case): vectorized polynomial
                    // exp. A +inf max inherited from a poisoned earlier
                    // tile falls through to the exact path.
                    lvec[r] += exp_shift_sum(&mut row[..cnt], m_new);
                } else {
                    // Exact IEEE path: `exp` propagates NaN and maps
                    // `-inf` to a true zero weight, matching the
                    // oracle's masked softmax bit for bit.
                    let mut sum = 0.0f32;
                    for v in row[..cnt].iter_mut() {
                        *v = (*v - m_new).exp();
                        sum += *v;
                    }
                    lvec[r] += sum;
                }
                row[cnt..].fill(0.0);
                mvec[r] = m_new;
            }
            // The bulk of the forward's arithmetic: P~ @ V_tile on the
            // tiled kernel (running it as scalar axpys halves forward
            // throughput), then the per-row rescale-and-add.
            gemm_serial(
                tm,
                tc,
                d,
                &sc[..tm * tc],
                LayoutA::Normal,
                &vb[j0 * d..(j0 + tc) * d],
                LayoutB::Normal,
                &mut pv[..tm * d],
            );
            for r in 0..tm {
                let f = fvec[r];
                let prow = &pv[r * d..(r + 1) * d];
                for (x, &p) in acc[r * d..(r + 1) * d].iter_mut().zip(prow) {
                    *x = *x * f + p;
                }
            }
            j0 += tc;
        }
        for r in 0..tm {
            let t = t0 + r;
            m_out[t] = mvec[r];
            lse_out[t] = lvec[r].ln();
            let inv = 1.0 / lvec[r];
            let arow = &acc[r * d..(r + 1) * d];
            for (c, &a) in ctx_u[t * d..(t + 1) * d].iter_mut().zip(arow) {
                *c = a * inv;
            }
        }
        t0 += tm;
    }
}

/// Streaming causal attention backward.
///
/// Consumes the forward's `qkv`/`ctx` plus the saved row statistics and the
/// gradient `dctx: [b*s, h]` w.r.t. the context, and fully overwrites
/// `dqkv: [b*s, 3h]`. Probabilities are recomputed tile by tile as
/// `exp(score - row_max - row_lse)`.
#[allow(clippy::too_many_arguments)]
pub fn attn_backward_into(
    qkv: &[f32],
    ctx: &[f32],
    row_max: &[f32],
    row_lse: &[f32],
    dctx: &[f32],
    batch: usize,
    seq: usize,
    h: usize,
    heads: usize,
    dqkv: &mut [f32],
) {
    let d = check_shapes(qkv, batch, seq, h, heads, ctx.len(), row_max.len());
    assert_eq!(row_lse.len(), row_max.len(), "row-stat length");
    assert_eq!(dctx.len(), ctx.len(), "dctx length");
    assert_eq!(dqkv.len(), qkv.len(), "dqkv length");
    let units = batch * heads;
    let scale = 1.0 / (d as f32).sqrt();
    // Per-unit [dq | dk | dv] accumulators, unit-major like the forward.
    let mut dunits = scratch_f32(units * 3 * seq * d);
    let per = band_len(units, units);
    let bands = dunits
        .chunks_mut((per * 3 * seq * d).max(1))
        .zip(row_max.chunks((per * seq).max(1)))
        .zip(row_lse.chunks((per * seq).max(1)));
    par_bands(bands, |i, ((db, mb), lb)| {
        let unit_bands = db
            .chunks_exact_mut(3 * seq * d)
            .zip(mb.chunks_exact(seq))
            .zip(lb.chunks_exact(seq));
        for (j, ((dout, m), lse)) in unit_bands.enumerate() {
            let (bi, hd) = ((i * per + j) / heads, (i * per + j) % heads);
            unit_backward(qkv, ctx, dctx, m, lse, bi, hd, seq, h, d, scale, dout);
        }
    });
    // Interleave [unit][dq|dk|dv] back into [b*s, 3h] rows.
    let du = &dunits[..];
    par_rows(dqkv, 3 * h, |row0, band| {
        for (r, row) in band.chunks_exact_mut(3 * h).enumerate() {
            let gr = row0 + r;
            let (bi, t) = (gr / seq, gr % seq);
            for hd in 0..heads {
                let base = (bi * heads + hd) * 3 * seq * d;
                for which in 0..3 {
                    let src = base + (which * seq + t) * d;
                    let dst = which * h + hd * d;
                    row[dst..dst + d].copy_from_slice(&du[src..src + d]);
                }
            }
        }
    });
}

/// One `(batch, head)` unit of the streaming backward. `dout` is this
/// unit's `[dq | dk | dv]` region (`3 * seq * d`), fully overwritten.
#[allow(clippy::too_many_arguments)]
fn unit_backward(
    qkv: &[f32],
    ctx: &[f32],
    dctx: &[f32],
    m: &[f32],
    lse: &[f32],
    bi: usize,
    hd: usize,
    seq: usize,
    h: usize,
    d: usize,
    scale: f32,
    dout: &mut [f32],
) {
    let mut qb = scratch_f32(seq * d);
    let mut kb = scratch_f32(seq * d);
    let mut vb = scratch_f32(seq * d);
    let mut dc = scratch_f32(seq * d);
    let mut cx = scratch_f32(seq * d);
    gather_head(qkv, bi, seq, h, 0, hd, d, &mut qb);
    gather_head(qkv, bi, seq, h, 1, hd, d, &mut kb);
    gather_head(qkv, bi, seq, h, 2, hd, d, &mut vb);
    gather_ctx_head(dctx, bi, seq, h, hd, d, &mut dc);
    gather_ctx_head(ctx, bi, seq, h, hd, d, &mut cx);

    // D_t = dc_t . ctx_t  (= sum_j p_tj (dc_t . v_j), the flash identity).
    let mut dvec = scratch_f32(seq);
    for t in 0..seq {
        let mut acc = 0.0f32;
        for (x, y) in dc[t * d..(t + 1) * d].iter().zip(&cx[t * d..(t + 1) * d]) {
            acc += x * y;
        }
        dvec[t] = acc;
    }

    dout.fill(0.0);
    let (dq_u, rest) = dout.split_at_mut(seq * d);
    let (dk_u, dv_u) = rest.split_at_mut(seq * d);

    // Pre-pack K^T and V^T once per unit for the score and dP tile
    // GEMMs — the transposed per-tile pack is a strided scalar gather
    // that every row block would otherwise repeat.
    let mut kpack = scratch_f32(packed_b_len(d, seq));
    pack_b_full(d, seq, &kb, LayoutB::Transposed, &mut kpack);
    let mut vpack = scratch_f32(packed_b_len(d, seq));
    pack_b_full(d, seq, &vb, LayoutB::Transposed, &mut vpack);

    let (tm_max, tc_max) = (ATTN_TM.min(seq), ATTN_TC.min(seq));
    let mut p = scratch_f32(tm_max * tc_max);
    let mut dp = scratch_f32(tm_max * tc_max);
    let mut ds = scratch_f32(tm_max * tc_max);
    let mut tmp = scratch_f32(tm_max.max(tc_max) * d);

    let mut t0 = 0usize;
    while t0 < seq {
        let tm = ATTN_TM.min(seq - t0);
        let w = t0 + tm;
        let q_block = &qb[t0 * d..(t0 + tm) * d];
        let dc_block = &dc[t0 * d..(t0 + tm) * d];
        let mut j0 = 0usize;
        while j0 < w {
            let tc = ATTN_TC.min(w - j0);
            let k_tile = &kb[j0 * d..(j0 + tc) * d];
            // Recompute probabilities for this tile from Q/K + row stats;
            // entries above the diagonal are exact zeros so the tile-level
            // products below see no future contribution.
            gemm_serial_packed(
                tm,
                d,
                tc,
                q_block,
                LayoutA::Normal,
                &kpack[(j0 / NR) * d * NR..(j0 + tc).div_ceil(NR) * d * NR],
                &mut p[..tm * tc],
            );
            gemm_serial_packed(
                tm,
                d,
                tc,
                dc_block,
                LayoutA::Normal,
                &vpack[(j0 / NR) * d * NR..(j0 + tc).div_ceil(NR) * d * NR],
                &mut dp[..tm * tc],
            );
            for r in 0..tm {
                let t = t0 + r;
                let cnt = (t + 1).saturating_sub(j0).min(tc);
                // A non-finite row statistic means the forward already
                // poisoned this row (a NaN or +inf score); only then is
                // the exact libm exp needed to reproduce that poisoning.
                // Finite stats imply every recomputed probability is
                // exp(finite_or_neg_inf), where the polynomial's 2^-126
                // flush of -inf scales gradients by ~1e-38 — vanishing.
                let mlse = m[t] + lse[t];
                if mlse.is_finite() {
                    let dvt = dvec[t];
                    let prow = &mut p[r * tc..r * tc + cnt];
                    let dprow = &dp[r * tc..r * tc + cnt];
                    let dsrow = &mut ds[r * tc..r * tc + cnt];
                    for ((pv, &dpv), dsv) in prow.iter_mut().zip(dprow).zip(dsrow.iter_mut()) {
                        let pj = exp_nonpos(*pv * scale - mlse);
                        *pv = pj;
                        *dsv = pj * (dpv - dvt) * scale;
                    }
                } else {
                    for j in 0..cnt {
                        let pj = (p[r * tc + j] * scale - m[t] - lse[t]).exp();
                        p[r * tc + j] = pj;
                        ds[r * tc + j] = pj * (dp[r * tc + j] - dvec[t]) * scale;
                    }
                }
                for j in cnt..tc {
                    p[r * tc + j] = 0.0;
                    ds[r * tc + j] = 0.0;
                }
            }
            // dq_block += ds @ K_tile
            gemm_serial(
                tm,
                tc,
                d,
                &ds[..tm * tc],
                LayoutA::Normal,
                k_tile,
                LayoutB::Normal,
                &mut tmp[..tm * d],
            );
            for (x, &y) in dq_u[t0 * d..(t0 + tm) * d].iter_mut().zip(&tmp[..tm * d]) {
                *x += y;
            }
            // dk_tile += ds^T @ Q_block
            gemm_serial(
                tc,
                tm,
                d,
                &ds[..tm * tc],
                LayoutA::Transposed,
                q_block,
                LayoutB::Normal,
                &mut tmp[..tc * d],
            );
            for (x, &y) in dk_u[j0 * d..(j0 + tc) * d].iter_mut().zip(&tmp[..tc * d]) {
                *x += y;
            }
            // dv_tile += p^T @ dC_block
            gemm_serial(
                tc,
                tm,
                d,
                &p[..tm * tc],
                LayoutA::Transposed,
                dc_block,
                LayoutB::Normal,
                &mut tmp[..tc * d],
            );
            for (x, &y) in dv_u[j0 * d..(j0 + tc) * d].iter_mut().zip(&tmp[..tc * d]) {
                *x += y;
            }
            j0 += tc;
        }
        t0 += tm;
    }
}

/// Gathers one head's `[s, d]` q/k/v panel (`which`: 0=q, 1=k, 2=v) out of
/// the fused `[b*s, 3h]` buffer.
#[allow(clippy::too_many_arguments)]
fn gather_head(
    qkv: &[f32],
    bi: usize,
    seq: usize,
    h: usize,
    which: usize,
    hd: usize,
    d: usize,
    out: &mut [f32],
) {
    for t in 0..seq {
        let src = (bi * seq + t) * 3 * h + which * h + hd * d;
        out[t * d..(t + 1) * d].copy_from_slice(&qkv[src..src + d]);
    }
}

/// Gathers one head's `[s, d]` slice out of a `[b*s, h]` buffer.
fn gather_ctx_head(
    buf: &[f32],
    bi: usize,
    seq: usize,
    h: usize,
    hd: usize,
    d: usize,
    out: &mut [f32],
) {
    for t in 0..seq {
        let src = (bi * seq + t) * h + hd * d;
        out[t * d..(t + 1) * d].copy_from_slice(&buf[src..src + d]);
    }
}

// ---------------------------------------------------------------------------
// Naive oracle
// ---------------------------------------------------------------------------

/// The materialized-score oracle forward: per unit, builds the full `[s, s]`
/// score matrix, masks, softmaxes, and multiplies — exactly the original
/// implementation — while also emitting the `(row_max, row_lse)` statistics
/// so both kernels share one saved-set layout.
#[allow(clippy::too_many_arguments)]
pub fn attn_forward_naive_into(
    qkv: &[f32],
    batch: usize,
    seq: usize,
    h: usize,
    heads: usize,
    ctx: &mut [f32],
    row_max: &mut [f32],
    row_lse: &mut [f32],
) {
    let d = check_shapes(qkv, batch, seq, h, heads, ctx.len(), row_max.len());
    assert_eq!(row_lse.len(), row_max.len(), "row-stat length");
    let scale = 1.0 / (d as f32).sqrt();
    for bi in 0..batch {
        for hd in 0..heads {
            let q = head_tensor(qkv, bi, seq, h, 0, hd, d);
            let k = head_tensor(qkv, bi, seq, h, 1, hd, d);
            let v = head_tensor(qkv, bi, seq, h, 2, hd, d);
            let mut scores = matmul_bt(&q, &k).scale(scale);
            apply_causal_mask(&mut scores, seq);
            // Row softmax in the same operation order as `softmax_rows`,
            // capturing the per-row max and log-sum-exp on the way.
            let u = bi * heads + hd;
            let data = scores.data_mut();
            for t in 0..seq {
                let row = &mut data[t * seq..(t + 1) * seq];
                let mx = row.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(v));
                let mut sum = 0.0f32;
                for v in row.iter_mut() {
                    *v = (*v - mx).exp();
                    sum += *v;
                }
                let inv = 1.0 / sum;
                for v in row.iter_mut() {
                    *v *= inv;
                }
                row_max[u * seq + t] = mx;
                row_lse[u * seq + t] = sum.ln();
            }
            let c = matmul(&scores, &v); // [s, d]
            for t in 0..seq {
                let dst = (bi * seq + t) * h + hd * d;
                ctx[dst..dst + d].copy_from_slice(&c.data()[t * d..(t + 1) * d]);
            }
        }
    }
}

/// The oracle backward: recomputes the full `[s, s]` probability matrix per
/// unit from Q/K and the saved row statistics, then applies the exact
/// softmax Jacobian via `softmax_backward_into`.
#[allow(clippy::too_many_arguments)]
pub fn attn_backward_naive_into(
    qkv: &[f32],
    ctx: &[f32],
    row_max: &[f32],
    row_lse: &[f32],
    dctx: &[f32],
    batch: usize,
    seq: usize,
    h: usize,
    heads: usize,
    dqkv: &mut [f32],
) {
    let d = check_shapes(qkv, batch, seq, h, heads, ctx.len(), row_max.len());
    assert_eq!(row_lse.len(), row_max.len(), "row-stat length");
    assert_eq!(dctx.len(), ctx.len(), "dctx length");
    assert_eq!(dqkv.len(), qkv.len(), "dqkv length");
    let scale = 1.0 / (d as f32).sqrt();
    for bi in 0..batch {
        for hd in 0..heads {
            let q = head_tensor(qkv, bi, seq, h, 0, hd, d);
            let k = head_tensor(qkv, bi, seq, h, 1, hd, d);
            let v = head_tensor(qkv, bi, seq, h, 2, hd, d);
            let u = bi * heads + hd;
            let mut p = matmul_bt(&q, &k).scale(scale);
            apply_causal_mask(&mut p, seq);
            {
                let data = p.data_mut();
                for t in 0..seq {
                    let (mx, ls) = (row_max[u * seq + t], row_lse[u * seq + t]);
                    for v in data[t * seq..(t + 1) * seq].iter_mut() {
                        *v = (*v - mx - ls).exp();
                    }
                }
            }

            let mut dc = vec![0.0f32; seq * d];
            for t in 0..seq {
                let src = (bi * seq + t) * h + hd * d;
                dc[t * d..(t + 1) * d].copy_from_slice(&dctx[src..src + d]);
            }
            let dc = Tensor::from_vec(&[seq, d], dc);

            let dv = matmul_at(&p, &dc); // p^T @ dc
            let dp = matmul_bt(&dc, &v); // dc @ v^T
            let mut dscores = scratch_f32(seq * seq);
            softmax_backward_into(p.data(), dp.data(), seq, &mut dscores);
            for x in dscores.iter_mut() {
                *x *= scale;
            }
            let dscores = Tensor::from_vec(&[seq, seq], dscores.to_vec());
            let dq = matmul(&dscores, &k);
            let dk = matmul_at(&dscores, &q);

            for t in 0..seq {
                let row = (bi * seq + t) * 3 * h;
                let qdst = row + hd * d;
                let kdst = row + h + hd * d;
                let vdst = row + 2 * h + hd * d;
                dqkv[qdst..qdst + d].copy_from_slice(&dq.data()[t * d..(t + 1) * d]);
                dqkv[kdst..kdst + d].copy_from_slice(&dk.data()[t * d..(t + 1) * d]);
                dqkv[vdst..vdst + d].copy_from_slice(&dv.data()[t * d..(t + 1) * d]);
            }
        }
    }
}

/// Extracts one head's `[s, d]` q/k/v slice as a tensor (oracle path).
fn head_tensor(
    qkv: &[f32],
    bi: usize,
    seq: usize,
    h: usize,
    which: usize,
    hd: usize,
    d: usize,
) -> Tensor {
    let mut out = vec![0.0f32; seq * d];
    gather_head(qkv, bi, seq, h, which, hd, d, &mut out);
    Tensor::from_vec(&[seq, d], out)
}

/// Writes `-inf` above the diagonal of an `[s, s]` score matrix.
pub fn apply_causal_mask(scores: &mut Tensor, seq: usize) {
    let data = scores.data_mut();
    for t in 0..seq {
        for u in (t + 1)..seq {
            data[t * seq + u] = f32::NEG_INFINITY;
        }
    }
}
