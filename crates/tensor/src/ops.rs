//! Numerical primitives: matmuls, activations, normalization, embedding and
//! loss, each with an explicit backward.
//!
//! Conventions: matrices are row-major; `Linear` weights are laid out
//! `[in, out]` so that `y = x @ w + b`, giving the backward identities
//! `dx = dy @ w^T` and `dw = x^T @ dy`.

use crate::gemm::{self, LayoutA, LayoutB};
use crate::parallel;
use crate::tensor::Tensor;

/// `c[m,n] = a[m,k] @ b[k,n]`.
///
/// Runs the tiled, multi-threaded GEMM ([`crate::gemm`]); small problems
/// fall back to the naive loop. No zero-skip shortcuts anywhere: NaN and
/// Inf propagate per IEEE 754 (`0.0 * inf = NaN`), which matters because
/// fp16-emulated overflow surfaces as Inf and must not be silently
/// swallowed by a "sparse" fast path.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm::gemm(
        m,
        k,
        n,
        a.data(),
        LayoutA::Normal,
        b.data(),
        LayoutB::Normal,
        &mut out,
    );
    Tensor::from_vec(&[m, n], out)
}

/// `c[m,n] = a[k,m]^T @ b[k,n]` — the `dw = x^T @ dy` shape.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = (dims2(a, "matmul_at lhs").1, dims2(b, "matmul_at rhs").1);
    let mut out = vec![0.0f32; m * n];
    matmul_at_into(a, b, &mut out);
    Tensor::from_vec(&[m, n], out)
}

/// [`matmul_at`] into `out` (`[m, n]` row-major, fully overwritten): a
/// weight gradient written straight into its slot of a layer's flat
/// gradient.
pub fn matmul_at_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let (k, m) = dims2(a, "matmul_at lhs");
    let (k2, n) = dims2(b, "matmul_at rhs");
    assert_eq!(k, k2, "matmul_at inner dims: {k} vs {k2}");
    gemm::gemm(
        m,
        k,
        n,
        a.data(),
        LayoutA::Transposed,
        b.data(),
        LayoutB::Normal,
        out,
    );
}

/// `c[m,n] = a[m,k] @ b[n,k]^T` — the `dx = dy @ w^T` shape.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_bt lhs");
    let (n, k2) = dims2(b, "matmul_bt rhs");
    assert_eq!(k, k2, "matmul_bt inner dims: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm::gemm(
        m,
        k,
        n,
        a.data(),
        LayoutA::Normal,
        b.data(),
        LayoutB::Transposed,
        &mut out,
    );
    Tensor::from_vec(&[m, n], out)
}

/// Naive references — the oracles the tuned kernels are verified
/// against (see `tests/kernel_equivalence.rs`). The matmuls are
/// single-threaded, unblocked, and free of shortcuts, so their IEEE
/// behaviour is the plain textbook reduction; GELU is its formula on
/// libm's `tanhf`.
pub mod naive {
    use super::{dims2, gelu_grad_scalar, gelu_scalar, LayoutA, LayoutB, Tensor};
    use crate::gemm::gemm_reference;

    /// Reference GELU, single-threaded.
    pub fn gelu(x: &Tensor) -> Tensor {
        let out = x.data().iter().map(|&v| gelu_scalar(v, f32::tanh));
        Tensor::from_vec(x.shape(), out.collect())
    }

    /// Reference GELU backward, single-threaded.
    pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
        assert_eq!(x.shape(), dy.shape(), "gelu_backward shapes");
        let out = x.data().iter().zip(dy.data());
        let out = out.map(|(&v, &g)| gelu_grad_scalar(v, f32::tanh) * g);
        Tensor::from_vec(x.shape(), out.collect())
    }

    /// Reference `a[m,k] @ b[k,n]`.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = dims2(a, "matmul lhs");
        let (_, n) = dims2(b, "matmul rhs");
        let mut out = vec![0.0f32; m * n];
        gemm_reference(
            m,
            k,
            n,
            a.data(),
            LayoutA::Normal,
            b.data(),
            LayoutB::Normal,
            &mut out,
        );
        Tensor::from_vec(&[m, n], out)
    }

    /// Reference `a[k,m]^T @ b[k,n]`.
    pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = dims2(a, "matmul_at lhs");
        let (_, n) = dims2(b, "matmul_at rhs");
        let mut out = vec![0.0f32; m * n];
        gemm_reference(
            m,
            k,
            n,
            a.data(),
            LayoutA::Transposed,
            b.data(),
            LayoutB::Normal,
            &mut out,
        );
        Tensor::from_vec(&[m, n], out)
    }

    /// Reference `a[m,k] @ b[n,k]^T`.
    pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = dims2(a, "matmul_bt lhs");
        let (n, _) = dims2(b, "matmul_bt rhs");
        let mut out = vec![0.0f32; m * n];
        gemm_reference(
            m,
            k,
            n,
            a.data(),
            LayoutA::Normal,
            b.data(),
            LayoutB::Transposed,
            &mut out,
        );
        Tensor::from_vec(&[m, n], out)
    }
}

/// Adds a `[cols]` bias to every row of a `[rows, cols]` tensor, in place.
pub fn add_bias(x: &mut Tensor, bias: &Tensor) {
    let (_, c) = dims2(x, "add_bias input");
    assert_eq!(bias.shape(), &[c], "bias shape");
    let bd = bias.data();
    for row in x.data_mut().chunks_exact_mut(c) {
        for (v, &b) in row.iter_mut().zip(bd) {
            *v += b;
        }
    }
}

/// Sums gradient rows into a `[cols]` bias gradient in `out` (fully
/// overwritten).
pub fn bias_grad_into(dy: &Tensor, out: &mut [f32]) {
    let (_, c) = dims2(dy, "bias_grad input");
    assert_eq!(out.len(), c, "bias_grad out");
    out.fill(0.0);
    for row in dy.data().chunks_exact(c) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// GELU activation (tanh approximation, as used by GPT-2/3), on
/// [`tanh_exp`] rather than libm's `tanhf`: within 2.5e-7 · max(1, |x|)
/// of [`naive::gelu`], and NaN/±Inf/overflowing inputs give that
/// formula's results. The per-element body is branch-free and fuses no
/// multiply-add, so the vectorized loop and its scalar tail compute the
/// same bits and the parallel split cannot change results.
pub fn gelu(x: &Tensor) -> Tensor {
    let xd = x.data();
    let mut out = vec![0.0f32; xd.len()];
    let per = elementwise_band_len(out.len());
    parallel::par_bands(out.chunks_mut(per), |i, block| {
        let src = &xd[i * per..i * per + block.len()];
        for (o, &v) in block.iter_mut().zip(src) {
            *o = gelu_scalar(v, tanh_exp);
        }
    });
    Tensor::from_vec(x.shape(), out)
}

/// Backward of [`gelu`]: needs the forward *input*. Same tanh, same
/// bitwise invariance; within 2e-6 of [`naive::gelu_backward`]'s
/// derivative.
pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(x.shape(), dy.shape(), "gelu_backward shapes");
    let xd = x.data();
    let dyd = dy.data();
    let mut out = vec![0.0f32; xd.len()];
    let per = elementwise_band_len(out.len());
    parallel::par_bands(out.chunks_mut(per), |i, block| {
        let (off, n) = (i * per, block.len());
        for ((o, &v), &g) in block
            .iter_mut()
            .zip(&xd[off..off + n])
            .zip(&dyd[off..off + n])
        {
            *o = gelu_grad_scalar(v, tanh_exp) * g;
        }
    });
    Tensor::from_vec(x.shape(), out)
}

/// Elements per band of an elementwise kernel over `len` elements: at
/// most one band per [`parallel::MIN_BLOCK`] elements.
fn elementwise_band_len(len: usize) -> usize {
    parallel::band_len(len, len.div_ceil(parallel::MIN_BLOCK))
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

/// The GELU formula over a given `tanh`: [`tanh_exp`] in the kernel,
/// libm's in the oracle.
#[inline(always)]
fn gelu_scalar(x: f32, tanh: impl Fn(f32) -> f32) -> f32 {
    0.5 * x * (1.0 + tanh(GELU_C * (x + GELU_A * x * x * x)))
}

/// GELU's derivative over a given `tanh`, as [`gelu_scalar`].
#[inline(always)]
fn gelu_grad_scalar(x: f32, tanh: impl Fn(f32) -> f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    let t = tanh(u);
    let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// `tanh(u)` without libm: `copysign((1 - e) / (1 + e), u)` with
/// `e = exp(-2|u|)` from [`exp_nonpos`]. Branch-free, so loops over it
/// vectorize. The `1 - e` cancellation near 0 costs relative accuracy
/// but not absolute (~2e-7), which is all GELU sees, since it adds
/// `tanh` to 1. `|u|` past ~43.5 gives exactly ±1, and so does NaN:
/// GELU carries a NaN input through its other factor, `x`.
#[inline(always)]
fn tanh_exp(u: f32) -> f32 {
    let e = exp_nonpos(-2.0 * u.abs());
    ((1.0 - e) / (1.0 + e)).copysign(u)
}

/// Branch-free polynomial `exp` for non-positive finite arguments: the
/// crate's one polynomial exp, behind attention's softmax (the streaming
/// kernels' probabilities) and GELU's tanh ([`tanh_exp`]).
///
/// Arguments below -87 flush to `exp(-87)` (~1.6e-38) instead of underflowing
/// — harmless wherever the result meets a sum whose leading term is
/// `exp(0) = 1` or scales a finite value. Max relative error is ~3e-7
/// against `f32::exp` (Cephes minimax coefficients). Because the body has
/// no branches or calls, LLVM vectorizes loops over it; that is the whole
/// point — per element, a libm call in attention's softmax or GELU's tanh
/// would be a block's largest non-GEMM cost. `NaN` and `-inf` flush too: a caller
/// that must propagate them IEEE-exactly (attention's poisoned rows) routes
/// them to `f32::exp` instead.
#[inline(always)]
pub(crate) fn exp_nonpos(x: f32) -> f32 {
    // Round-to-nearest integer via the 1.5 * 2^23 shift (|z| < 2^22 here).
    const RND: f32 = 12_582_912.0;
    // Cody-Waite split of ln(2): computing the residual in the original
    // domain keeps full precision where `z - round(z)` would not.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = x.max(-87.0);
    let n = (x * std::f32::consts::LOG2_E + RND) - RND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 5e-1;
    let poly = p * r * r + r + 1.0;
    f32::from_bits(((n as i32 + 127) << 23) as u32) * poly
}

/// Row-wise numerically stable softmax of a `[rows, cols]` buffer, in
/// place. Slice-level core of [`softmax_rows`], allocation-free so hot
/// paths can run it on scratch-pool buffers.
///
/// # Panics
/// If `data.len()` is not a multiple of `cols`.
pub fn softmax_rows_inplace(data: &mut [f32], cols: usize) {
    assert!(cols > 0, "softmax cols must be positive");
    assert!(
        data.len().is_multiple_of(cols),
        "softmax length {} not a multiple of cols {cols}",
        data.len()
    );
    for row in data.chunks_exact_mut(cols) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Row-wise numerically stable softmax of a `[rows, cols]` tensor.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let (_, c) = dims2(x, "softmax input");
    let mut out = x.data().to_vec();
    softmax_rows_inplace(&mut out, c);
    Tensor::from_vec(x.shape(), out)
}

/// Backward of [`softmax_rows`] given the forward *output* `probs`:
/// `dx = p * (dy - sum(dy * p))` per row, written into `out`.
/// Allocation-free, so hot paths can run it on scratch-pool buffers.
///
/// # Panics
/// If lengths mismatch or are not a multiple of `cols`.
pub fn softmax_backward_into(probs: &[f32], dy: &[f32], cols: usize, out: &mut [f32]) {
    assert!(cols > 0, "softmax cols must be positive");
    assert_eq!(probs.len(), dy.len(), "softmax_backward shapes");
    assert_eq!(probs.len(), out.len(), "softmax_backward output length");
    assert!(
        probs.len().is_multiple_of(cols),
        "softmax length {} not a multiple of cols {cols}",
        probs.len()
    );
    for ((orow, prow), dyrow) in out
        .chunks_exact_mut(cols)
        .zip(probs.chunks_exact(cols))
        .zip(dy.chunks_exact(cols))
    {
        let dot: f32 = prow.iter().zip(dyrow).map(|(&p, &g)| p * g).sum();
        for ((o, &p), &g) in orow.iter_mut().zip(prow).zip(dyrow) {
            *o = p * (g - dot);
        }
    }
}

/// Saved statistics of a layer-norm forward, needed by its backward.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNormStats {
    /// Per-row mean.
    pub mean: Vec<f32>,
    /// Per-row reciprocal standard deviation.
    pub rstd: Vec<f32>,
}

/// Layer normalization over the last dimension of a `[rows, h]` tensor.
pub fn layernorm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> (Tensor, LayerNormStats) {
    let (rows, h) = dims2(x, "layernorm input");
    assert_eq!(gamma.shape(), &[h], "gamma shape");
    assert_eq!(beta.shape(), &[h], "beta shape");
    let mut out = vec![0.0f32; rows * h];
    let mut mean = vec![0.0f32; rows];
    let mut rstd = vec![0.0f32; rows];
    let g = gamma.data();
    let b = beta.data();
    let xd = x.data();
    // Each worker owns a contiguous band of rows across all three output
    // buffers; per-row statistics are computed serially inside the row,
    // so the split never changes results.
    layernorm_rows(xd, g, b, eps, h, &mut out, &mut mean, &mut rstd);
    (
        Tensor::from_vec(x.shape(), out),
        LayerNormStats { mean, rstd },
    )
}

#[allow(clippy::too_many_arguments)]
fn layernorm_rows(
    xd: &[f32],
    g: &[f32],
    b: &[f32],
    eps: f32,
    h: usize,
    out: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
) {
    let rows = mean.len();
    let per = parallel::band_len(
        rows,
        if out.len() < parallel::MIN_BLOCK {
            1
        } else {
            rows
        },
    );
    let bands = out
        .chunks_mut(per * h)
        .zip(mean.chunks_mut(per))
        .zip(rstd.chunks_mut(per));
    parallel::par_bands(bands, |i, ((out, mean), rstd)| {
        for (r, (orow, (mo, ro))) in out
            .chunks_exact_mut(h)
            .zip(mean.iter_mut().zip(rstd.iter_mut()))
            .enumerate()
        {
            let row = i * per + r;
            let xrow = &xd[row * h..(row + 1) * h];
            let m = xrow.iter().sum::<f32>() / h as f32;
            let var = xrow.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / h as f32;
            let rs = 1.0 / (var + eps).sqrt();
            *mo = m;
            *ro = rs;
            for (j, (o, &xv)) in orow.iter_mut().zip(xrow).enumerate() {
                *o = (xv - m) * rs * g[j] + b[j];
            }
        }
    });
}

/// Backward of [`layernorm`]: returns `(dx, dgamma, dbeta)`.
pub fn layernorm_backward(
    x: &Tensor,
    gamma: &Tensor,
    stats: &LayerNormStats,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (rows, h) = dims2(x, "layernorm_backward input");
    assert_eq!(dy.shape(), x.shape(), "layernorm_backward dy");
    let g = gamma.data();
    let mut dx = vec![0.0f32; rows * h];
    let mut dgamma = vec![0.0f32; h];
    let mut dbeta = vec![0.0f32; h];
    for i in 0..rows {
        let xrow = &x.data()[i * h..(i + 1) * h];
        let dyrow = &dy.data()[i * h..(i + 1) * h];
        let m = stats.mean[i];
        let rs = stats.rstd[i];
        // xhat_j = (x_j - m) * rs; dy_hat_j = dy_j * gamma_j
        let mut sum_dyh = 0.0f32;
        let mut sum_dyh_xhat = 0.0f32;
        for j in 0..h {
            let xhat = (xrow[j] - m) * rs;
            let dyh = dyrow[j] * g[j];
            sum_dyh += dyh;
            sum_dyh_xhat += dyh * xhat;
            dgamma[j] += dyrow[j] * xhat;
            dbeta[j] += dyrow[j];
        }
        let inv_h = 1.0 / h as f32;
        let dxrow = &mut dx[i * h..(i + 1) * h];
        for j in 0..h {
            let xhat = (xrow[j] - m) * rs;
            let dyh = dyrow[j] * g[j];
            dxrow[j] = rs * (dyh - inv_h * sum_dyh - xhat * inv_h * sum_dyh_xhat);
        }
    }
    (
        Tensor::from_vec(x.shape(), dx),
        Tensor::from_vec(&[h], dgamma),
        Tensor::from_vec(&[h], dbeta),
    )
}

/// Gathers embedding rows: `out[i] = table[ids[i]]`.
///
/// # Panics
/// If any id is out of range.
pub fn embedding_gather(table: &Tensor, ids: &[usize]) -> Tensor {
    let (v, h) = dims2(table, "embedding table");
    let mut out = vec![0.0f32; ids.len() * h];
    for (orow, &id) in out.chunks_exact_mut(h).zip(ids) {
        assert!(id < v, "token id {id} out of vocab {v}");
        orow.copy_from_slice(&table.data()[id * h..(id + 1) * h]);
    }
    Tensor::from_vec(&[ids.len(), h], out)
}

/// Backward of [`embedding_gather`]: scatter-adds `dy` rows into the
/// table gradient `grad` (`[vocab, h]` row-major), zeroed first.
pub fn embedding_scatter_add_into(ids: &[usize], dy: &Tensor, grad: &mut [f32]) {
    let h = dims2(dy, "embedding grad").1;
    assert_eq!(dy.shape(), &[ids.len(), h], "embedding grad shape");
    grad.fill(0.0);
    for (dyrow, &id) in dy.data().chunks_exact(h).zip(ids) {
        let grow = &mut grad[id * h..(id + 1) * h];
        for (g, &d) in grow.iter_mut().zip(dyrow) {
            *g += d;
        }
    }
}

/// Mean cross-entropy over rows of `logits[n, v]` against `targets[n]`.
/// Returns `(loss, probs)`; the probs are reused by the backward.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let (n, v) = dims2(logits, "cross_entropy logits");
    assert_eq!(targets.len(), n, "target count");
    let probs = softmax_rows(logits);
    let mut loss = 0.0f64;
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < v, "target {t} out of vocab {v}");
        let p = probs.data()[i * v + t].max(1e-30);
        loss -= (p as f64).ln();
    }
    ((loss / n as f64) as f32, probs)
}

/// Backward of [`cross_entropy`]: `dlogits = (probs - onehot) / n`.
pub fn cross_entropy_backward(probs: &Tensor, targets: &[usize]) -> Tensor {
    let (n, v) = dims2(probs, "cross_entropy probs");
    let mut d = probs.data().to_vec();
    let inv_n = 1.0 / n as f32;
    for (i, &t) in targets.iter().enumerate() {
        d[i * v + t] -= 1.0;
    }
    for x in &mut d {
        *x *= inv_n;
    }
    Tensor::from_vec(probs.shape(), d)
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().len(),
        2,
        "{what} must be 2-D, got {:?}",
        t.shape()
    );
    (t.shape()[0], t.shape()[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check: perturbs each input element and
    /// compares against the analytic gradient under a scalar loss
    /// `L = sum(out * probe)`.
    fn grad_check<F>(x: &Tensor, analytic: &Tensor, f: F, tol: f32)
    where
        F: Fn(&Tensor) -> f64,
    {
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((f(&xp) - f(&xm)) / (2.0 * eps as f64)) as f32;
            let ana = analytic.data()[i];
            let denom = num.abs().max(ana.abs()).max(1.0);
            assert!(
                (num - ana).abs() / denom < tol,
                "elem {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    fn probe_loss(out: &Tensor, probe: &Tensor) -> f64 {
        out.data()
            .iter()
            .zip(probe.data())
            .map(|(&a, &b)| (a * b) as f64)
            .sum()
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_variants_agree_with_explicit_transposes() {
        let a = Tensor::randn(&[4, 3], 1.0, 1);
        let b = Tensor::randn(&[4, 5], 1.0, 2);
        // a^T @ b via matmul_at vs manual transpose.
        let mut at = Tensor::zeros(&[3, 4]);
        for i in 0..4 {
            for j in 0..3 {
                at.data_mut()[j * 4 + i] = a.data()[i * 3 + j];
            }
        }
        assert_close(&matmul_at(&a, &b), &matmul(&at, &b), 1e-5);

        let c = Tensor::randn(&[5, 3], 1.0, 3);
        let mut ct = Tensor::zeros(&[3, 5]);
        for i in 0..5 {
            for j in 0..3 {
                ct.data_mut()[j * 5 + i] = c.data()[i * 3 + j];
            }
        }
        // x[4,3] @ c[5,3]^T
        let x = Tensor::randn(&[4, 3], 1.0, 4);
        assert_close(&matmul_bt(&x, &c), &matmul(&x, &ct), 1e-5);
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    /// Regression test for the removed `if aik == 0.0 { continue }`
    /// shortcut: with a zero row in A and an Inf in B, IEEE 754 demands
    /// `0.0 * inf = NaN` — the old skip returned clean zeros instead,
    /// masking fp16-overflow Infs during training. All three variants
    /// must propagate identically.
    #[test]
    fn zero_times_inf_is_nan_in_all_variants() {
        // A's row 0 is all zeros; B has an Inf in column 1.
        let a = Tensor::from_vec(&[2, 2], vec![0.0, 0.0, 1.0, 1.0]);
        let mut b = Tensor::from_vec(&[2, 2], vec![1.0, f32::INFINITY, 1.0, 2.0]);
        let c = matmul(&a, &b);
        assert!(
            c.data()[1].is_nan(),
            "matmul: 0*inf must be NaN, got {}",
            c.data()[1]
        );
        assert!(c.data()[3].is_infinite(), "nonzero row must see the Inf");

        // Same logical product through matmul_at: lhs stored as [k, m].
        let at = Tensor::from_vec(&[2, 2], vec![0.0, 1.0, 0.0, 1.0]);
        let c_at = matmul_at(&at, &b);
        assert!(c_at.data()[1].is_nan(), "matmul_at: 0*inf must be NaN");
        assert!(c_at.data()[3].is_infinite());

        // And through matmul_bt: rhs stored as [n, k].
        b = Tensor::from_vec(&[2, 2], vec![1.0, 1.0, f32::INFINITY, 2.0]);
        let c_bt = matmul_bt(&a, &b);
        assert!(c_bt.data()[1].is_nan(), "matmul_bt: 0*inf must be NaN");
        assert!(c_bt.data()[3].is_infinite());
    }

    /// NaNs and Infs laced anywhere in the inputs must land in exactly
    /// the same output positions for the tiled kernels as for the naive
    /// oracle, in every variant.
    #[test]
    fn nan_inf_placement_matches_naive_oracle() {
        // Big enough that matmul's dispatch takes the tiled path.
        let (m, k, n) = (33, 17, 29);
        assert!(m * k * n > crate::gemm::NAIVE_THRESHOLD);
        let mut av = Tensor::randn(&[m, k], 1.0, 21);
        let mut bv = Tensor::randn(&[k, n], 1.0, 22);
        av.data_mut()[3] = f32::NAN;
        av.data_mut()[k + 1] = f32::INFINITY;
        bv.data_mut()[5] = f32::NEG_INFINITY;
        bv.data_mut()[2 * n + 3] = f32::NAN;
        let same_specials = |fast: &Tensor, slow: &Tensor, what: &str| {
            assert_eq!(fast.shape(), slow.shape());
            for (i, (f, s)) in fast.data().iter().zip(slow.data()).enumerate() {
                assert_eq!(
                    f.is_nan(),
                    s.is_nan(),
                    "{what} elem {i}: NaN mismatch ({f} vs {s})"
                );
                assert_eq!(
                    f.is_infinite() && !f.is_nan(),
                    s.is_infinite() && !s.is_nan(),
                    "{what} elem {i}: Inf mismatch ({f} vs {s})"
                );
            }
        };
        same_specials(&matmul(&av, &bv), &naive::matmul(&av, &bv), "matmul");

        let at = Tensor::from_vec(&[k, m], {
            // transpose av into [k, m]
            let mut t = vec![0.0f32; k * m];
            for i in 0..m {
                for p in 0..k {
                    t[p * m + i] = av.data()[i * k + p];
                }
            }
            t
        });
        same_specials(
            &matmul_at(&at, &bv),
            &naive::matmul_at(&at, &bv),
            "matmul_at",
        );

        let bt = Tensor::from_vec(&[n, k], {
            let mut t = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    t[j * k + p] = bv.data()[p * n + j];
                }
            }
            t
        });
        same_specials(
            &matmul_bt(&av, &bt),
            &naive::matmul_bt(&av, &bt),
            "matmul_bt",
        );
    }

    #[test]
    fn bias_roundtrip() {
        let mut x = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        add_bias(&mut x, &b);
        assert_eq!(x.data(), &[1., 2., 3., 1., 2., 3.]);
        let mut g = [f32::NAN; 3];
        bias_grad_into(&x, &mut g);
        assert_eq!(g, [2., 4., 6.]);
    }

    #[test]
    fn gelu_gradient_check() {
        let x = Tensor::randn(&[2, 5], 1.0, 9);
        let probe = Tensor::randn(&[2, 5], 1.0, 10);
        let analytic = gelu_backward(&x, &probe);
        grad_check(&x, &analytic, |xx| probe_loss(&gelu(xx), &probe), 2e-2);
    }

    /// GELU and its derivative against the libm formula, on a dense grid
    /// over [-12, 12] (every f32 there is the ignored sweep in
    /// `tests/exhaustive.rs`), and bitwise on the inputs whose result
    /// class the formula fixes: NaN -> NaN, +Inf -> +Inf, -Inf -> NaN,
    /// 1e20 -> 1e20, -1e20 -> -0.
    #[test]
    fn gelu_tracks_the_libm_formula() {
        let mut xs: Vec<f32> = (-120_000..=120_000).map(|i| i as f32 * 1e-4).collect();
        let classes = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e20,
            -1e20,
            -0.0,
            1e-30,
            -40.0,
            40.0,
        ];
        xs.extend(classes);
        let x = Tensor::from_vec(&[xs.len()], xs.clone());
        let dy = Tensor::full(&[xs.len()], 1.0);
        let (fwd, fwd_want) = (gelu(&x), naive::gelu(&x));
        let (bwd, bwd_want) = (gelu_backward(&x, &dy), naive::gelu_backward(&x, &dy));
        let pairs = xs.iter().zip(fwd.data().iter().zip(fwd_want.data()));
        for ((&v, (&got, &want)), (&dgot, &dwant)) in
            pairs.zip(bwd.data().iter().zip(bwd_want.data()))
        {
            if v.abs() <= 12.0 && v != 0.0 {
                let bound = 2.5e-7 * v.abs().max(1.0);
                assert!(
                    (got - want).abs() <= bound,
                    "gelu({v:e}) {got:e} vs {want:e}"
                );
                assert!(
                    (dgot - dwant).abs() <= 2e-6,
                    "gelu'({v:e}) {dgot:e} vs {dwant:e}"
                );
            } else {
                let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
                assert!(same(got, want), "gelu({v:e}) {got:e} vs {want:e}");
                assert!(same(dgot, dwant), "gelu'({v:e}) {dgot:e} vs {dwant:e}");
            }
        }
        let at = |v: f32| fwd.data()[xs.iter().position(|x| x.to_bits() == v.to_bits()).unwrap()];
        assert!(at(f32::NAN).is_nan() && at(f32::NEG_INFINITY).is_nan());
        assert_eq!(at(f32::INFINITY), f32::INFINITY);
        assert_eq!(at(1e20), 1e20);
        assert_eq!(at(-1e20).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn exp_nonpos_tracks_libm_exp_on_the_softmax_range() {
        // Dense grid over the arguments its callers feed it: non-positive
        // (softmax shifts by the row max, GELU's tanh takes -2|u|), down
        // past the -87 flush threshold.
        let mut worst = 0.0f64;
        let mut x = -90.0f32;
        while x <= 0.0 {
            let got = exp_nonpos(x) as f64;
            let want = (x as f64).exp();
            if x >= -87.0 {
                let rel = ((got - want) / want).abs();
                worst = worst.max(rel);
            } else {
                // Flushed region: tiny, never negative, never large.
                assert!((0.0..=1.7e-38).contains(&got), "exp_nonpos({x}) = {got}");
            }
            x += 1e-3;
        }
        assert!(worst < 1e-6, "max relative error {worst:e}");
        assert_eq!(exp_nonpos(0.0), 1.0);
        assert_eq!(exp_nonpos(f32::NEG_INFINITY), exp_nonpos(-104.0));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::randn(&[4, 7], 3.0, 11);
        let p = softmax_rows(&x);
        for row in p.data().chunks_exact(7) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_gradient_check() {
        let x = Tensor::randn(&[3, 4], 1.0, 12);
        let probe = Tensor::randn(&[3, 4], 1.0, 13);
        let p = softmax_rows(&x);
        let mut analytic = vec![0.0f32; p.len()];
        softmax_backward_into(p.data(), probe.data(), 4, &mut analytic);
        let analytic = Tensor::from_vec(p.shape(), analytic);
        grad_check(
            &x,
            &analytic,
            |xx| probe_loss(&softmax_rows(xx), &probe),
            2e-2,
        );
    }

    #[test]
    fn layernorm_normalizes() {
        let x = Tensor::randn(&[3, 16], 5.0, 14);
        let g = Tensor::full(&[16], 1.0);
        let b = Tensor::zeros(&[16]);
        let (y, _) = layernorm(&x, &g, &b, 1e-5);
        for row in y.data().chunks_exact(16) {
            let m: f32 = row.iter().sum::<f32>() / 16.0;
            let v: f32 = row.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / 16.0;
            assert!(m.abs() < 1e-4, "mean {m}");
            assert!((v - 1.0).abs() < 1e-2, "var {v}");
        }
    }

    #[test]
    fn layernorm_gradient_check() {
        let x = Tensor::randn(&[2, 8], 1.0, 15);
        let g = Tensor::randn(&[8], 0.5, 16).add(&Tensor::full(&[8], 1.0));
        let b = Tensor::randn(&[8], 0.5, 17);
        let probe = Tensor::randn(&[2, 8], 1.0, 18);
        let (_, stats) = layernorm(&x, &g, &b, 1e-5);
        let (dx, dgamma, dbeta) = layernorm_backward(&x, &g, &stats, &probe);
        grad_check(
            &x,
            &dx,
            |xx| probe_loss(&layernorm(xx, &g, &b, 1e-5).0, &probe),
            3e-2,
        );
        grad_check(
            &g,
            &dgamma,
            |gg| probe_loss(&layernorm(&x, gg, &b, 1e-5).0, &probe),
            2e-2,
        );
        grad_check(
            &b,
            &dbeta,
            |bb| probe_loss(&layernorm(&x, &g, bb, 1e-5).0, &probe),
            2e-2,
        );
    }

    #[test]
    fn embedding_gather_scatter_round_trip() {
        let table = Tensor::randn(&[10, 4], 1.0, 19);
        let ids = vec![3usize, 3, 7];
        let out = embedding_gather(&table, &ids);
        assert_eq!(out.shape(), &[3, 4]);
        assert_eq!(&out.data()[0..4], &table.data()[12..16]);
        let dy = Tensor::full(&[3, 4], 1.0);
        let mut g = vec![f32::NAN; 10 * 4];
        embedding_scatter_add_into(&ids, &dy, &mut g);
        // id 3 appears twice -> gradient 2.0, id 7 once -> 1.0.
        assert_eq!(g[3 * 4], 2.0);
        assert_eq!(g[7 * 4], 1.0);
        assert_eq!(g[0], 0.0);
    }

    #[test]
    fn cross_entropy_gradient_check() {
        let logits = Tensor::randn(&[3, 5], 1.0, 20);
        let targets = vec![0usize, 2, 4];
        let (_, probs) = cross_entropy(&logits, &targets);
        let analytic = cross_entropy_backward(&probs, &targets);
        grad_check(
            &logits,
            &analytic,
            |ll| cross_entropy(ll, &targets).0 as f64,
            2e-2,
        );
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_near_zero() {
        let mut logits = Tensor::full(&[2, 4], -20.0);
        logits.data_mut()[1] = 20.0; // row 0 predicts class 1
        logits.data_mut()[4 + 2] = 20.0; // row 1 predicts class 2
        let (loss, _) = cross_entropy(&logits, &[1, 2]);
        assert!(loss < 1e-4, "loss {loss}");
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn embedding_rejects_bad_ids() {
        let table = Tensor::zeros(&[4, 2]);
        embedding_gather(&table, &[4]);
    }
}

/// Specification of a dropout application: probability and the seed that
/// makes the mask *rematerializable* — recomputing a discarded forward
/// must regenerate the exact same mask, the RNG-state problem every
/// activation-checkpointing system has to solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropoutSpec {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    /// Mask seed (derived from step and layer by the caller).
    pub seed: u64,
}

/// Generates the inverted-dropout mask for `len` elements: each entry is
/// `0` with probability `p`, otherwise `1/(1-p)`. Deterministic in
/// `spec.seed`.
pub fn dropout_mask(len: usize, spec: DropoutSpec) -> Vec<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    assert!((0.0..1.0).contains(&spec.p), "dropout p {}", spec.p);
    if spec.p == 0.0 {
        return vec![1.0; len];
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let keep_scale = 1.0 / (1.0 - spec.p);
    (0..len)
        .map(|_| {
            if rng.gen::<f32>() < spec.p {
                0.0
            } else {
                keep_scale
            }
        })
        .collect()
}

/// Applies a mask elementwise (forward and backward of dropout are the
/// same multiplication).
pub fn apply_mask(x: &Tensor, mask: &[f32]) -> Tensor {
    assert_eq!(x.len(), mask.len(), "mask length");
    Tensor::from_vec(
        x.shape(),
        x.data().iter().zip(mask).map(|(v, m)| v * m).collect(),
    )
}

#[cfg(test)]
mod dropout_tests {
    use super::*;

    #[test]
    fn mask_is_deterministic_and_scaled() {
        let spec = DropoutSpec { p: 0.5, seed: 9 };
        let a = dropout_mask(1000, spec);
        let b = dropout_mask(1000, spec);
        assert_eq!(a, b, "same seed must give the same mask");
        let c = dropout_mask(1000, DropoutSpec { p: 0.5, seed: 10 });
        assert_ne!(a, c);
        // Every entry is 0 or 2, and ~half are dropped.
        assert!(a.iter().all(|&v| v == 0.0 || v == 2.0));
        let dropped = a.iter().filter(|&&v| v == 0.0).count();
        assert!((350..650).contains(&dropped), "{dropped}");
    }

    #[test]
    fn zero_probability_is_identity() {
        let mask = dropout_mask(16, DropoutSpec { p: 0.0, seed: 1 });
        assert!(mask.iter().all(|&v| v == 1.0));
        let x = Tensor::randn(&[4, 4], 1.0, 2);
        assert_eq!(apply_mask(&x, &mask), x);
    }

    #[test]
    fn mask_preserves_expectation() {
        let mask = dropout_mask(100_000, DropoutSpec { p: 0.3, seed: 4 });
        let mean: f64 = mask.iter().map(|&v| v as f64).sum::<f64>() / mask.len() as f64;
        assert!((mean - 1.0).abs() < 0.02, "{mean}");
    }
}
