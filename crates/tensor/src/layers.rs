//! Transformer layers with explicit forward/backward and flat parameter
//! access.
//!
//! Every layer exposes its parameters in one flat order, and its backward
//! writes its gradients in the same order into a flat slot the caller
//! owns, because a layer's flat parameters are the unit the out-of-core
//! engine moves between tiers, as P32 and P16 byte blobs, and the unit
//! the CPU Adam updates. Saved
//! activations are separate structs with half-precision (de)serialization
//! so they can be offloaded byte-for-byte like the paper's A16 tensors.

use crate::attention::{attn_backward_into, attn_forward_into};
use crate::dtype::{decode_f16_into, encode_f16_into, encode_f32_into, round_to_f16_in_place};
use crate::ops::{
    add_bias, apply_mask, bias_grad_into, cross_entropy, cross_entropy_backward, dropout_mask,
    embedding_gather, embedding_scatter_add_into, gelu, gelu_backward, layernorm,
    layernorm_backward, matmul, matmul_at_into, matmul_bt, DropoutSpec, LayerNormStats,
};
use crate::scratch::scratch_f32;
use crate::tensor::Tensor;

/// Common parameter access for movable layers: a layer names its
/// parameter tensors, in a fixed field order, through the two visitors;
/// every flat form — the `f32` vector gradients are ordered by, the P32
/// and P16 blobs the engine stores — is provided over them.
pub trait ParamLayer {
    /// Calls `f` on every parameter tensor, in the fixed field order.
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor));
    /// Calls `f` on every parameter tensor mutably, in the same order.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor));

    /// Number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |t| n += t.len());
        n
    }

    /// Copies all parameters into one flat vector.
    fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.for_each_param(&mut |t| push_tensor(&mut out, t));
        out
    }

    /// Loads parameters from a flat vector produced by
    /// [`ParamLayer::params_flat`].
    ///
    /// # Panics
    /// If the length does not match [`ParamLayer::param_count`].
    fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_count(), "flat param length");
        let mut rest = flat;
        self.for_each_param_mut(&mut |t| {
            let (head, tail) = rest.split_at(t.len());
            t.data_mut().copy_from_slice(head);
            rest = tail;
        });
    }

    /// The parameters as little-endian f32 bytes, flat order: the layer's
    /// P32 master blob.
    fn params_f32_le(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.param_count() * 4];
        let mut rest = &mut out[..];
        self.for_each_param(&mut |t| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(t.len() * 4);
            encode_f32_into(t.data(), head);
            rest = tail;
        });
        out
    }

    /// Loads parameters from little-endian binary16 bytes in flat order —
    /// the layer's P16 blob — decoding straight into the tensors.
    ///
    /// # Panics
    /// If `bytes` is not two bytes per parameter.
    fn set_params_f16_le(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.param_count() * 2, "P16 blob length");
        let mut rest = bytes;
        self.for_each_param_mut(&mut |t| {
            let (head, tail) = rest.split_at(t.len() * 2);
            decode_f16_into(head, t.data_mut());
            rest = tail;
        });
    }
}

fn push_tensor(out: &mut Vec<f32>, t: &Tensor) {
    out.extend_from_slice(t.data());
}

/// Splits a layer's gradient slot after `first`'s share of it.
fn split_slot<'g>(grads: &'g mut [f32], first: &dyn ParamLayer) -> (&'g mut [f32], &'g mut [f32]) {
    grads.split_at_mut(first.param_count())
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// A dense layer `y = x @ w + b` with `w: [in, out]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix `[in, out]`.
    pub w: Tensor,
    /// Bias `[out]`.
    pub b: Tensor,
}

impl Linear {
    /// GPT-style init: normal(0, 0.02) weights, zero bias.
    pub fn new(dim_in: usize, dim_out: usize, seed: u64) -> Self {
        Linear {
            w: Tensor::randn(&[dim_in, dim_out], 0.02, seed),
            b: Tensor::zeros(&[dim_out]),
        }
    }

    /// `y = x @ w + b`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = matmul(x, &self.w);
        add_bias(&mut y, &self.b);
        y
    }

    /// Returns `dx` given the forward input `x`, and writes `[dw | db]`
    /// into `grads`.
    pub fn backward(&self, x: &Tensor, dy: &Tensor, grads: &mut [f32]) -> Tensor {
        let (dw, db) = grads.split_at_mut(self.w.len());
        matmul_at_into(x, dy, dw);
        bias_grad_into(dy, db);
        matmul_bt(dy, &self.w)
    }
}

impl ParamLayer for Linear {
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.w);
        f(&self.b);
    }
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

/// Layer normalization with learned scale and shift.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    /// Scale `[h]`.
    pub gamma: Tensor,
    /// Shift `[h]`.
    pub beta: Tensor,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl LayerNorm {
    /// Identity init (gamma 1, beta 0).
    pub fn new(h: usize) -> Self {
        LayerNorm {
            gamma: Tensor::full(&[h], 1.0),
            beta: Tensor::zeros(&[h]),
            eps: 1e-5,
        }
    }

    /// Normalizes rows; returns output and per-row stats for the backward.
    pub fn forward(&self, x: &Tensor) -> (Tensor, LayerNormStats) {
        layernorm(x, &self.gamma, &self.beta, self.eps)
    }

    /// Returns `dx`, and writes `[dgamma | dbeta]` into `grads`.
    pub fn backward(
        &self,
        x: &Tensor,
        stats: &LayerNormStats,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        let (dx, dgamma, dbeta) = layernorm_backward(x, &self.gamma, stats, dy);
        let (dg, db) = grads.split_at_mut(dgamma.len());
        dg.copy_from_slice(dgamma.data());
        db.copy_from_slice(dbeta.data());
        dx
    }
}

impl ParamLayer for LayerNorm {
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.gamma);
        f(&self.beta);
    }
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

// ---------------------------------------------------------------------------
// Multi-head causal self-attention
// ---------------------------------------------------------------------------

/// Multi-head causal self-attention.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    /// Fused QKV projection `[h, 3h]` (+ bias).
    pub wqkv: Linear,
    /// Output projection `[h, h]` (+ bias).
    pub wo: Linear,
    /// Number of attention heads.
    pub heads: usize,
}

/// Activations saved by an attention forward, consumed by its backward.
///
/// The `[s, s]` probability matrices are *not* stored: backward recomputes
/// per-tile probabilities from `qkv` and the per-row softmax statistics
/// (`p = exp(score - row_max - row_lse)`), so the saved set is
/// `O(b·heads·s)` instead of `O(b·heads·s²)` — the difference is what the
/// engine no longer quantizes, offloads, and refetches per block per step.
#[derive(Debug, Clone, PartialEq)]
pub struct AttnSaved {
    /// Fused QKV output `[b*s, 3h]`.
    pub qkv: Tensor,
    /// Per-row score max, `[b*heads*s]` unit-major.
    pub row_max: Vec<f32>,
    /// Per-row `ln(Σ exp(score - row_max))`, `[b*heads*s]` unit-major.
    pub row_lse: Vec<f32>,
    /// Concatenated per-head context `[b*s, h]` (input to `wo`).
    pub ctx: Tensor,
}

impl MultiHeadAttention {
    /// Creates attention over `h` channels split into `heads` heads.
    ///
    /// # Panics
    /// If `h` is not divisible by `heads`.
    pub fn new(h: usize, heads: usize, seed: u64) -> Self {
        assert_eq!(h % heads, 0, "hidden {h} not divisible by heads {heads}");
        MultiHeadAttention {
            wqkv: Linear::new(h, 3 * h, seed),
            wo: Linear::new(h, h, seed.wrapping_add(1)),
            heads,
        }
    }

    fn dims(&self, x: &Tensor, batch: usize, seq: usize) -> (usize, usize) {
        let h = x.shape()[1];
        assert_eq!(x.shape()[0], batch * seq, "attention input rows");
        (h, h / self.heads)
    }

    /// Causal attention forward over `x: [b*s, h]` through the streaming
    /// tiled kernel.
    pub fn forward(&self, x: &Tensor, batch: usize, seq: usize) -> (Tensor, AttnSaved) {
        let (h, _d) = self.dims(x, batch, seq);
        let qkv = self.wqkv.forward(x);

        let mut ctx = vec![0.0f32; batch * seq * h];
        let mut row_max = vec![0.0f32; batch * self.heads * seq];
        let mut row_lse = vec![0.0f32; batch * self.heads * seq];
        attn_forward_into(
            qkv.data(),
            batch,
            seq,
            h,
            self.heads,
            &mut ctx,
            &mut row_max,
            &mut row_lse,
        );

        let ctx = Tensor::from_vec(&[batch * seq, h], ctx);
        let out = self.wo.forward(&ctx);
        (
            out,
            AttnSaved {
                qkv,
                row_max,
                row_lse,
                ctx,
            },
        )
    }

    /// Backward; returns `dx` given the forward input `x`, and writes
    /// `[d_wqkv | d_wo]` into `grads`. Attention probabilities are
    /// recomputed from `saved.qkv` and the saved row statistics — nothing
    /// `O(s²)` is read back.
    pub fn backward(
        &self,
        x: &Tensor,
        saved: &AttnSaved,
        dy: &Tensor,
        batch: usize,
        seq: usize,
        grads: &mut [f32],
    ) -> Tensor {
        let (h, _d) = self.dims(x, batch, seq);
        let (dwqkv, dwo) = split_slot(grads, &self.wqkv);

        let dctx = self.wo.backward(&saved.ctx, dy, dwo);

        let mut dqkv = vec![0.0f32; batch * seq * 3 * h];
        attn_backward_into(
            saved.qkv.data(),
            saved.ctx.data(),
            &saved.row_max,
            &saved.row_lse,
            dctx.data(),
            batch,
            seq,
            h,
            self.heads,
            &mut dqkv,
        );

        let dqkv = Tensor::from_vec(&[batch * seq, 3 * h], dqkv);
        self.wqkv.backward(x, &dqkv, dwqkv)
    }
}

impl ParamLayer for MultiHeadAttention {
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        self.wqkv.for_each_param(f);
        self.wo.for_each_param(f);
    }
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.wqkv.for_each_param_mut(f);
        self.wo.for_each_param_mut(f);
    }
}

// ---------------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------------

/// The transformer feed-forward block: `fc2(gelu(fc1(x)))` with a 4x
/// expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    /// Expansion projection `[h, 4h]`.
    pub fc1: Linear,
    /// Contraction projection `[4h, h]`.
    pub fc2: Linear,
}

/// Activations saved by an MLP forward.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpSaved {
    /// `fc1` output before GELU `[b*s, 4h]`.
    pub pre: Tensor,
    /// GELU output `[b*s, 4h]` (input to `fc2`).
    pub act: Tensor,
}

impl Mlp {
    /// Creates the feed-forward block for hidden size `h`.
    pub fn new(h: usize, seed: u64) -> Self {
        Mlp {
            fc1: Linear::new(h, 4 * h, seed),
            fc2: Linear::new(4 * h, h, seed.wrapping_add(1)),
        }
    }

    /// Forward pass; saves the pre-GELU and post-GELU activations.
    pub fn forward(&self, x: &Tensor) -> (Tensor, MlpSaved) {
        let pre = self.fc1.forward(x);
        let act = gelu(&pre);
        let y = self.fc2.forward(&act);
        (y, MlpSaved { pre, act })
    }

    /// Backward; returns `dx` given the forward input `x`, and writes
    /// `[d_fc1 | d_fc2]` into `grads`.
    pub fn backward(&self, x: &Tensor, saved: &MlpSaved, dy: &Tensor, grads: &mut [f32]) -> Tensor {
        let (dfc1, dfc2) = split_slot(grads, &self.fc1);
        let dact = self.fc2.backward(&saved.act, dy, dfc2);
        let dpre = gelu_backward(&saved.pre, &dact);
        // Dead once the GELU consumed it: fc1's backward runs without it.
        drop(dact);
        self.fc1.backward(x, &dpre, dfc1)
    }
}

impl ParamLayer for Mlp {
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        self.fc1.for_each_param(f);
        self.fc2.for_each_param(f);
    }
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.fc1.for_each_param_mut(f);
        self.fc2.for_each_param_mut(f);
    }
}

// ---------------------------------------------------------------------------
// Transformer block
// ---------------------------------------------------------------------------

/// A pre-norm transformer block:
/// `x + attn(ln1(x))` followed by `(+) mlp(ln2(.))`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerBlock {
    /// Pre-attention layer norm.
    pub ln1: LayerNorm,
    /// Self-attention.
    pub attn: MultiHeadAttention,
    /// Pre-MLP layer norm.
    pub ln2: LayerNorm,
    /// Feed-forward.
    pub mlp: Mlp,
    /// Micro-batch size the block was built for.
    pub batch: usize,
    /// Sequence length the block was built for.
    pub seq: usize,
}

/// Everything a block's backward needs besides its input — the "A16
/// intra-block activations" of the paper, offloadable as one blob.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSaved {
    /// `ln1` output `[b*s, h]`.
    pub x1: Tensor,
    /// `ln1` statistics.
    pub ln1_stats: LayerNormStats,
    /// Attention intermediates.
    pub attn: AttnSaved,
    /// Residual after attention `[b*s, h]`.
    pub x2: Tensor,
    /// `ln2` output `[b*s, h]`.
    pub x3: Tensor,
    /// `ln2` statistics.
    pub ln2_stats: LayerNormStats,
    /// MLP intermediates.
    pub mlp: MlpSaved,
}

/// Derives block `block`'s dropout spec for a given training step: the
/// same `(p, step_seed, block)` triple always produces the same masks, so
/// swapped and recomputed backward paths agree, and the out-of-core
/// engine and the in-memory reference agree.
pub fn block_dropout_spec(p: f32, step_seed: u64, block: usize) -> DropoutSpec {
    DropoutSpec {
        p,
        seed: step_seed ^ ((block as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    }
}

impl TransformerBlock {
    /// Creates a block for `(batch, seq, h, heads)` with a deterministic
    /// seed.
    pub fn new(batch: usize, seq: usize, h: usize, heads: usize, seed: u64) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(h),
            attn: MultiHeadAttention::new(h, heads, seed),
            ln2: LayerNorm::new(h),
            mlp: Mlp::new(h, seed.wrapping_add(100)),
            batch,
            seq,
        }
    }

    /// Forward pass over `x: [b*s, h]`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, BlockSaved) {
        self.forward_with(x, None)
    }

    /// Forward with optional residual dropout after the attention and MLP
    /// sublayers (GPT-2 style). The masks are *not* stored with the saved
    /// activations: they are regenerated from `spec.seed` during backward
    /// — and during recomputation — which is exactly how checkpointing
    /// systems keep dropout deterministic across rematerialization.
    pub fn forward_with(&self, x: &Tensor, dropout: Option<DropoutSpec>) -> (Tensor, BlockSaved) {
        let (x1, ln1_stats) = self.ln1.forward(x);
        let (a, attn_saved) = self.attn.forward(&x1, self.batch, self.seq);
        let a = match dropout {
            Some(spec) => apply_mask(&a, &dropout_mask(a.len(), spec)),
            None => a,
        };
        let x2 = x.add(&a);
        let (x3, ln2_stats) = self.ln2.forward(&x2);
        let (m, mlp_saved) = self.mlp.forward(&x3);
        let m = match dropout {
            Some(spec) => apply_mask(
                &m,
                &dropout_mask(
                    m.len(),
                    DropoutSpec {
                        p: spec.p,
                        seed: spec.seed ^ 0x9e37_79b9,
                    },
                ),
            ),
            None => m,
        };
        let y = x2.add(&m);
        (
            y,
            BlockSaved {
                x1,
                ln1_stats,
                attn: attn_saved,
                x2,
                x3,
                ln2_stats,
                mlp: mlp_saved,
            },
        )
    }

    /// Backward pass. Needs the forward input `x` plus the saved
    /// activations; returns `dx` and writes the block's gradients into
    /// `grads` in [`ParamLayer::params_flat`] order.
    pub fn backward(
        &self,
        x: &Tensor,
        saved: &BlockSaved,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        self.backward_with(x, saved, dy, None, grads)
    }

    /// Backward matching [`TransformerBlock::forward_with`]: the dropout
    /// masks are regenerated from the same spec and applied to the
    /// sublayer gradients. `grads` is the block's flat gradient, fully
    /// overwritten: each weight gradient's GEMM writes into its own slice
    /// of it, so the block holds no gradient outside the slot.
    ///
    /// # Panics
    /// If `grads` is not [`ParamLayer::param_count`] long.
    pub fn backward_with(
        &self,
        x: &Tensor,
        saved: &BlockSaved,
        dy: &Tensor,
        dropout: Option<DropoutSpec>,
        grads: &mut [f32],
    ) -> Tensor {
        assert_eq!(grads.len(), self.param_count(), "block gradient slot");
        // Slot order is params_flat order: ln1, attn(wqkv, wo), ln2, mlp.
        let (g_ln1, rest) = split_slot(grads, &self.ln1);
        let (g_attn, rest) = split_slot(rest, &self.attn);
        let (g_ln2, g_mlp) = split_slot(rest, &self.ln2);
        // Besides the saved set and the slot, the block holds only the
        // running activation gradients, each dropped once the next
        // sublayer has consumed it.
        let masked = |g: &Tensor, spec: DropoutSpec| apply_mask(g, &dropout_mask(g.len(), spec));
        // y = x2 + drop(mlp(ln2(x2)))
        let dm = dropout.map(|spec| {
            let seed = spec.seed ^ 0x9e37_79b9;
            masked(dy, DropoutSpec { p: spec.p, seed })
        });
        let dx3 = (self.mlp).backward(&saved.x3, &saved.mlp, dm.as_ref().unwrap_or(dy), g_mlp);
        drop(dm);
        let dx2_ln = self.ln2.backward(&saved.x2, &saved.ln2_stats, &dx3, g_ln2);
        drop(dx3);
        let mut dx = dy.clone();
        dx.add_assign(&dx2_ln);
        drop(dx2_ln);
        // x2 = x + drop(attn(ln1(x)))
        let da = dropout.map(|spec| masked(&dx, spec));
        let dx1 = self.attn.backward(
            &saved.x1,
            &saved.attn,
            da.as_ref().unwrap_or(&dx),
            self.batch,
            self.seq,
            g_attn,
        );
        drop(da);
        let dx_ln = self.ln1.backward(x, &saved.ln1_stats, &dx1, g_ln1);
        drop(dx1);
        dx.add_assign(&dx_ln);
        dx
    }
}

impl ParamLayer for TransformerBlock {
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        self.ln1.for_each_param(f);
        self.attn.for_each_param(f);
        self.ln2.for_each_param(f);
        self.mlp.for_each_param(f);
    }
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.ln1.for_each_param_mut(f);
        self.attn.for_each_param_mut(f);
        self.ln2.for_each_param_mut(f);
        self.mlp.for_each_param_mut(f);
    }
}

impl BlockSaved {
    /// Stored activation elements for a block of the given shape — the
    /// exact count [`BlockSaved::into_f16_chunks`] serializes (the A16 blob
    /// is twice this many bytes), computable without running a forward.
    pub fn element_count_for(batch: usize, seq: usize, h: usize, heads: usize) -> usize {
        let rows = batch * seq;
        // x1 + qkv(3) + ctx + x2 + x3 + mlp.pre(4) + mlp.act(4) = 15 rows*h,
        // plus two LayerNorm (mean, rstd) pairs and the attention row
        // statistics (max + logsumexp per row per head). Streaming
        // attention stores no `[s, s]` probabilities, so there is no
        // quadratic-in-seq term.
        rows * (15 * h + 4) + 2 * batch * heads * seq
    }

    /// Total stored activation elements (for accounting).
    pub fn element_count(&self) -> usize {
        self.tensors().iter().map(|t| t.len()).sum()
    }

    /// Serializes all saved activations as half-precision bytes — the A16
    /// offload format — in `n` chunks, consuming the set. Chunk `i` holds
    /// elements `elems·i/n .. elems·(i+1)/n` of the blob, wherever fields
    /// fall: each field is encoded straight into the chunks it spans, so
    /// the chunks are the only buffers and no byte is copied twice, and
    /// each f32 field is freed once a later chunk needs the next one.
    /// Chunks are encoded as the iterator reaches them. Encoding rounds,
    /// so the set needs no [`BlockSaved::quantize_f16`] first: the encode
    /// of a rounded value is the encode of the value.
    ///
    /// # Panics
    /// If `n` is zero.
    pub fn into_f16_chunks(self, n: usize) -> impl Iterator<Item = Vec<u8>> {
        assert!(n > 0, "a saved set moves in at least one chunk");
        let elems = self.element_count();
        let mut fields = self.into_fields().into_iter();
        // The field being encoded, and how many of its elements are done.
        let (mut field, mut at) = (Vec::new(), 0);
        (0..n).map(move |i| {
            let len = elems * (i + 1) / n - elems * i / n;
            let mut out = vec![0u8; 2 * len];
            let mut filled = 0;
            while filled < len {
                if at == field.len() {
                    // The element count covers every field.
                    let Some(next) = fields.next() else { break };
                    (field, at) = (next, 0);
                    continue;
                }
                let k = (len - filled).min(field.len() - at);
                encode_f16_into(&field[at..at + k], &mut out[2 * filled..2 * (filled + k)]);
                (filled, at) = (filled + k, at + k);
            }
            out
        })
    }

    /// Reconstructs saved activations from the A16 blob
    /// [`BlockSaved::into_f16_chunks`] wrote, given whole or as the chunks
    /// it was split into (at element boundaries): each field is decoded
    /// straight from its byte range, and nothing is concatenated first.
    ///
    /// # Panics
    /// If the bytes do not add up to the shapes implied by
    /// `(batch, seq, h, heads)`, or a chunk boundary splits an element.
    pub fn from_f16_bytes<B: AsRef<[u8]>>(
        chunks: impl IntoIterator<Item = B>,
        batch: usize,
        seq: usize,
        h: usize,
        heads: usize,
    ) -> BlockSaved {
        let (rows, stats) = (batch * seq, batch * heads * seq);
        let lens = [
            rows * h,
            rows,
            rows,
            rows * 3 * h,
            stats,
            stats,
            rows * h,
            rows * h,
            rows * h,
            rows,
            rows,
            rows * 4 * h,
            rows * 4 * h,
        ];
        let mut chunks = chunks.into_iter();
        let mut chunk: Option<B> = None;
        let mut at = 0;
        let fields = lens.map(|n| {
            let mut field = vec![0.0f32; n];
            let mut filled = 0;
            while filled < n {
                let rest = chunk.as_ref().map_or(&[][..], |c| &c.as_ref()[at..]);
                if rest.len() < 2 {
                    assert!(rest.is_empty(), "an A16 chunk splits an element");
                    let Some(next) = chunks.next() else {
                        panic!("activation blob length mismatch: too short");
                    };
                    chunk = Some(next);
                    at = 0;
                    continue;
                }
                let k = (n - filled).min(rest.len() / 2);
                decode_f16_into(&rest[..2 * k], &mut field[filled..filled + k]);
                filled += k;
                at += 2 * k;
            }
            field
        });
        let left = chunk.map_or(0, |c| c.as_ref().len() - at)
            + chunks.map(|c| c.as_ref().len()).sum::<usize>();
        assert_eq!(left, 0, "activation blob length mismatch");
        let [x1, ln1_mean, ln1_rstd, qkv, row_max, row_lse, ctx, x2, x3, ln2_mean, ln2_rstd, pre, act] =
            fields;
        BlockSaved {
            x1: Tensor::from_vec(&[rows, h], x1),
            ln1_stats: LayerNormStats {
                mean: ln1_mean,
                rstd: ln1_rstd,
            },
            attn: AttnSaved {
                qkv: Tensor::from_vec(&[rows, 3 * h], qkv),
                row_max,
                row_lse,
                ctx: Tensor::from_vec(&[rows, h], ctx),
            },
            x2: Tensor::from_vec(&[rows, h], x2),
            x3: Tensor::from_vec(&[rows, h], x3),
            ln2_stats: LayerNormStats {
                mean: ln2_mean,
                rstd: ln2_rstd,
            },
            mlp: MlpSaved {
                pre: Tensor::from_vec(&[rows, 4 * h], pre),
                act: Tensor::from_vec(&[rows, 4 * h], act),
            },
        }
    }

    /// Rounds every saved value through binary16 in place — what a
    /// recomputed set must look like to equal one that was swapped.
    pub fn quantize_f16(&mut self) {
        for t in [
            &mut self.x1,
            &mut self.attn.qkv,
            &mut self.attn.ctx,
            &mut self.x2,
            &mut self.x3,
            &mut self.mlp.pre,
            &mut self.mlp.act,
        ] {
            round_to_f16_in_place(t.data_mut());
        }
        for v in [
            &mut self.attn.row_max,
            &mut self.attn.row_lse,
            &mut self.ln1_stats.mean,
            &mut self.ln1_stats.rstd,
            &mut self.ln2_stats.mean,
            &mut self.ln2_stats.rstd,
        ] {
            round_to_f16_in_place(v);
        }
    }

    /// The saved fields, owned, in the A16 blob's order (the order
    /// [`BlockSaved::from_f16_bytes`] reads them in).
    fn into_fields(self) -> [Vec<f32>; 13] {
        let BlockSaved {
            x1,
            ln1_stats,
            attn,
            x2,
            x3,
            ln2_stats,
            mlp,
        } = self;
        [
            x1.into_vec(),
            ln1_stats.mean,
            ln1_stats.rstd,
            attn.qkv.into_vec(),
            attn.row_max,
            attn.row_lse,
            attn.ctx.into_vec(),
            x2.into_vec(),
            x3.into_vec(),
            ln2_stats.mean,
            ln2_stats.rstd,
            mlp.pre.into_vec(),
            mlp.act.into_vec(),
        ]
    }

    /// The saved fields, borrowed, in the A16 blob's order.
    pub(crate) fn tensors(&self) -> [&[f32]; 13] {
        [
            self.x1.data(),
            &self.ln1_stats.mean,
            &self.ln1_stats.rstd,
            self.attn.qkv.data(),
            &self.attn.row_max,
            &self.attn.row_lse,
            self.attn.ctx.data(),
            self.x2.data(),
            self.x3.data(),
            &self.ln2_stats.mean,
            &self.ln2_stats.rstd,
            self.mlp.pre.data(),
            self.mlp.act.data(),
        ]
    }
}

// ---------------------------------------------------------------------------
// Embedding and head
// ---------------------------------------------------------------------------

/// Token + learned positional embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// Token table `[vocab, h]`.
    pub tokens: Tensor,
    /// Positional table `[seq, h]`.
    pub positions: Tensor,
}

impl Embedding {
    /// Creates embeddings for `(vocab, seq, h)`.
    pub fn new(vocab: usize, seq: usize, h: usize, seed: u64) -> Self {
        Embedding {
            tokens: Tensor::randn(&[vocab, h], 0.02, seed),
            positions: Tensor::randn(&[seq, h], 0.01, seed.wrapping_add(1)),
        }
    }

    /// Embeds `ids: [b*s]` (sequence-major within each sample).
    pub fn forward(&self, ids: &[usize], batch: usize, seq: usize) -> Tensor {
        assert_eq!(ids.len(), batch * seq, "id count");
        let mut x = embedding_gather(&self.tokens, ids);
        let h = self.tokens.shape()[1];
        for bi in 0..batch {
            for t in 0..seq {
                let row = (bi * seq + t) * h;
                let pos = &self.positions.data()[t * h..(t + 1) * h];
                for (v, &p) in x.data_mut()[row..row + h].iter_mut().zip(pos) {
                    *v += p;
                }
            }
        }
        x
    }

    /// Embeds a single token at absolute position `pos` (incremental
    /// decoding path).
    ///
    /// # Panics
    /// If the token or position is out of range.
    pub fn forward_at(&self, token: usize, pos: usize) -> Tensor {
        let h = self.tokens.shape()[1];
        assert!(token < self.tokens.shape()[0], "token {token} out of vocab");
        assert!(
            pos < self.positions.shape()[0],
            "position {pos} out of range"
        );
        let data: Vec<f32> = self.tokens.data()[token * h..(token + 1) * h]
            .iter()
            .zip(&self.positions.data()[pos * h..(pos + 1) * h])
            .map(|(t, p)| t + p)
            .collect();
        Tensor::from_vec(&[1, h], data)
    }

    /// Backward: writes the flat gradients (tokens then positions) into
    /// `grads`, fully overwritten.
    ///
    /// # Panics
    /// If `grads` is not [`ParamLayer::param_count`] long.
    pub fn backward(
        &self,
        ids: &[usize],
        batch: usize,
        seq: usize,
        dy: &Tensor,
        grads: &mut [f32],
    ) {
        assert_eq!(grads.len(), self.param_count(), "embedding gradient slot");
        let h = self.tokens.shape()[1];
        let (dtok, dpos) = grads.split_at_mut(self.tokens.len());
        embedding_scatter_add_into(ids, dy, dtok);
        dpos.fill(0.0);
        for bi in 0..batch {
            for t in 0..seq {
                let row = (bi * seq + t) * h;
                for j in 0..h {
                    dpos[t * h + j] += dy.data()[row + j];
                }
            }
        }
    }
}

impl ParamLayer for Embedding {
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.tokens);
        f(&self.positions);
    }
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.tokens);
        f(&mut self.positions);
    }
}

/// Final layer norm plus (untied) LM head projection and loss.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossEntropy {
    /// Final layer norm.
    pub ln_f: LayerNorm,
    /// Output projection `[h, vocab]` (untied from the embedding so the
    /// head is a self-contained movable layer).
    pub w_out: Tensor,
}

/// Activations saved by the head forward.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadSaved {
    /// `ln_f` output.
    pub xf: Tensor,
    /// `ln_f` statistics.
    pub ln_stats: LayerNormStats,
    /// Softmax probabilities (consumed immediately by the backward, like
    /// the paper's loss values).
    pub probs: Tensor,
}

impl CrossEntropy {
    /// Creates the head for `(h, vocab)`.
    pub fn new(h: usize, vocab: usize, seed: u64) -> Self {
        CrossEntropy {
            ln_f: LayerNorm::new(h),
            w_out: Tensor::randn(&[h, vocab], 0.02, seed),
        }
    }

    /// Computes the vocabulary logits for every position (inference path:
    /// no targets, nothing saved).
    pub fn logits(&self, x: &Tensor) -> Tensor {
        let (xf, _) = self.ln_f.forward(x);
        matmul(&xf, &self.w_out)
    }

    /// Computes mean loss against `targets`; saves what backward needs.
    pub fn forward(&self, x: &Tensor, targets: &[usize]) -> (f32, HeadSaved) {
        let (xf, ln_stats) = self.ln_f.forward(x);
        let logits = matmul(&xf, &self.w_out);
        let (loss, probs) = cross_entropy(&logits, targets);
        (
            loss,
            HeadSaved {
                xf,
                ln_stats,
                probs,
            },
        )
    }

    /// Backward with *loss scaling*, given the forward input `x`: the
    /// loss gradient is multiplied by `scale` before propagating, so small
    /// gradients survive the f16 G16 format (the optimizer divides by the
    /// same factor). Returns `dx` and writes the flat gradients into
    /// `grads`, fully overwritten.
    ///
    /// # Panics
    /// If `grads` is not [`ParamLayer::param_count`] long.
    pub fn backward_scaled(
        &self,
        x: &Tensor,
        saved: &HeadSaved,
        targets: &[usize],
        scale: f32,
        grads: &mut [f32],
    ) -> Tensor {
        assert_eq!(grads.len(), self.param_count(), "head gradient slot");
        let (g_ln, dw) = split_slot(grads, &self.ln_f);
        let mut dlogits = cross_entropy_backward(&saved.probs, targets);
        if scale != 1.0 {
            dlogits = dlogits.scale(scale);
        }
        matmul_at_into(&saved.xf, &dlogits, dw);
        let dxf = matmul_bt(&dlogits, &self.w_out);
        self.ln_f.backward(x, &saved.ln_stats, &dxf, g_ln)
    }
}

impl ParamLayer for CrossEntropy {
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        self.ln_f.for_each_param(f);
        f(&self.w_out);
    }
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.ln_f.for_each_param_mut(f);
        f(&mut self.w_out);
    }
}

// ---------------------------------------------------------------------------
// Whole model
// ---------------------------------------------------------------------------

/// Shape of a small executable GPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GptConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length.
    pub seq: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Micro-batch size.
    pub batch: usize,
}

impl GptConfig {
    /// A tiny config used across tests and examples.
    pub fn tiny() -> Self {
        GptConfig {
            vocab: 64,
            seq: 16,
            hidden: 32,
            heads: 4,
            layers: 3,
            batch: 2,
        }
    }

    /// Scalar parameters of the embedding layer (token + positional
    /// tables).
    pub fn embedding_params(&self) -> usize {
        self.vocab * self.hidden + self.seq * self.hidden
    }

    /// Scalar parameters of one transformer block: two LayerNorms (2h
    /// each), fused QKV (h·3h + 3h), output projection (h·h + h), and the
    /// 4h MLP (h·4h + 4h and 4h·h + h) — `12h² + 13h` in total.
    pub fn block_params(&self) -> usize {
        12 * self.hidden * self.hidden + 13 * self.hidden
    }

    /// Scalar parameters of the head (final LayerNorm + untied LM
    /// projection).
    pub fn head_params(&self) -> usize {
        2 * self.hidden + self.hidden * self.vocab
    }

    /// Scalar parameters of schedulable layer `id` (0 = embedding,
    /// 1..=L = blocks, L+1 = head), from the shape alone, so movement
    /// plans can be drawn up before any model is materialized.
    pub fn layer_params(&self, id: usize) -> usize {
        if id == 0 {
            self.embedding_params()
        } else if id <= self.layers {
            self.block_params()
        } else {
            self.head_params()
        }
    }

    /// Scalar parameters of the largest schedulable layer — what sizes
    /// the per-layer working set capacity checks reason about.
    pub fn max_layer_params(&self) -> usize {
        let mut m = self.embedding_params().max(self.head_params());
        if self.layers > 0 {
            m = m.max(self.block_params());
        }
        m
    }

    /// Total scalar parameters of the model.
    pub fn total_params(&self) -> usize {
        self.embedding_params() + self.layers * self.block_params() + self.head_params()
    }
}

/// A complete small GPT: embedding, `L` transformer blocks, head.
#[derive(Debug, Clone, PartialEq)]
pub struct GptModel {
    /// The shape this model was built with.
    pub config: GptConfig,
    /// Token + positional embedding.
    pub embedding: Embedding,
    /// Transformer blocks.
    pub blocks: Vec<TransformerBlock>,
    /// Final norm + LM head + loss.
    pub head: CrossEntropy,
}

impl GptModel {
    /// Builds a model with deterministic per-layer seeds derived from
    /// `seed`.
    pub fn new(config: GptConfig, seed: u64) -> Self {
        GptModel {
            config,
            embedding: Self::embedding_of(config, seed),
            blocks: (0..config.layers)
                .map(|i| Self::block_of(config, seed, i))
                .collect(),
            head: Self::head_of(config, seed),
        }
    }

    /// The embedding of the model [`GptModel::new`] builds from `seed`,
    /// built alone.
    pub fn embedding_of(config: GptConfig, seed: u64) -> Embedding {
        Embedding::new(config.vocab, config.seq, config.hidden, seed)
    }

    /// Block `i` of the model [`GptModel::new`] builds from `seed`, built
    /// alone.
    pub fn block_of(config: GptConfig, seed: u64, i: usize) -> TransformerBlock {
        TransformerBlock::new(
            config.batch,
            config.seq,
            config.hidden,
            config.heads,
            seed.wrapping_add(1000 + i as u64 * 17),
        )
    }

    /// The head of the model [`GptModel::new`] builds from `seed`, built
    /// alone.
    pub fn head_of(config: GptConfig, seed: u64) -> CrossEntropy {
        CrossEntropy::new(config.hidden, config.vocab, seed.wrapping_add(7))
    }

    /// Total parameters across all movable layers.
    pub fn param_count(&self) -> usize {
        self.embedding.param_count()
            + self.blocks.iter().map(|b| b.param_count()).sum::<usize>()
            + self.head.param_count()
    }

    /// Straight-line forward+backward with everything in memory: returns
    /// `(loss, per-layer flat gradients)` ordered embedding, blocks 0..L,
    /// head. This is the reference the out-of-core engine must match.
    ///
    /// `quantize_activations` applies the A16 rounding right after each
    /// block's forward, mirroring what offloading does, so the two paths
    /// stay bit-identical.
    pub fn train_step_reference(
        &self,
        tokens: &[usize],
        targets: &[usize],
        quantize_activations: bool,
    ) -> (f32, Vec<Vec<f32>>) {
        self.train_step_reference_scaled(tokens, targets, quantize_activations, 1.0)
    }

    /// [`GptModel::train_step_reference`] with a loss-scaling factor: all
    /// returned gradients are multiplied by `scale` (the caller unscales
    /// after the f16 round trip, as mixed-precision training does).
    pub fn train_step_reference_scaled(
        &self,
        tokens: &[usize],
        targets: &[usize],
        quantize_activations: bool,
        scale: f32,
    ) -> (f32, Vec<Vec<f32>>) {
        self.train_step_reference_opts(tokens, targets, quantize_activations, scale, None)
    }

    /// The full-option reference step: loss scaling plus optional
    /// residual dropout, given as `(p, step_seed)`.
    pub fn train_step_reference_opts(
        &self,
        tokens: &[usize],
        targets: &[usize],
        quantize_activations: bool,
        scale: f32,
        dropout: Option<(f32, u64)>,
    ) -> (f32, Vec<Vec<f32>>) {
        let c = self.config;
        let mut x = self.embedding.forward(tokens, c.batch, c.seq);
        if quantize_activations {
            x = x.quantize_f16();
        }
        let mut inputs = Vec::with_capacity(c.layers);
        let mut saves = Vec::with_capacity(c.layers);
        for (bi, block) in self.blocks.iter().enumerate() {
            let spec = dropout.map(|(p, seed)| block_dropout_spec(p, seed, bi));
            let (y, mut saved) = block.forward_with(&x, spec);
            let mut y = y;
            if quantize_activations {
                saved.quantize_f16();
                y = y.quantize_f16();
            }
            inputs.push(x);
            saves.push(saved);
            x = y;
        }
        let (loss, head_saved) = self.head.forward(&x, targets);
        // One gradient slot per layer, each written by its backward.
        let mut all: Vec<Vec<f32>> = (0..c.layers + 2)
            .map(|layer| vec![0.0; c.layer_params(layer)])
            .collect();
        let head_grads = &mut all[c.layers + 1];
        let mut dx = (self.head).backward_scaled(&x, &head_saved, targets, scale, head_grads);
        for i in (0..c.layers).rev() {
            let spec = dropout.map(|(p, seed)| block_dropout_spec(p, seed, i));
            dx = self.blocks[i].backward_with(&inputs[i], &saves[i], &dx, spec, &mut all[i + 1]);
        }
        (self.embedding).backward(tokens, c.batch, c.seq, &dx, &mut all[0]);
        (loss, all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::LayerNormStats;

    fn finite(vs: &[f32]) -> bool {
        vs.iter().all(|v| v.is_finite())
    }

    #[test]
    fn config_param_formulas_match_the_built_model() {
        let c = GptConfig::tiny();
        let m = GptModel::new(c, 1);
        assert_eq!(c.embedding_params(), m.embedding.param_count());
        assert_eq!(c.block_params(), m.blocks[0].param_count());
        assert_eq!(c.head_params(), m.head.param_count());
        let total: usize = m.embedding.param_count()
            + m.blocks.iter().map(|b| b.param_count()).sum::<usize>()
            + m.head.param_count();
        assert_eq!(c.total_params(), total);
        assert!(c.max_layer_params() >= c.block_params());
    }

    #[test]
    fn linear_gradient_check() {
        let lin = Linear::new(4, 3, 21);
        let x = Tensor::randn(&[5, 4], 1.0, 22);
        let probe = Tensor::randn(&[5, 3], 1.0, 23);
        let mut grads = vec![f32::NAN; lin.param_count()];
        let dx = lin.backward(&x, &probe, &mut grads);
        let loss = |xx: &Tensor| -> f64 {
            lin.forward(xx)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(&a, &b)| (a * b) as f64)
                .sum()
        };
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&xp) - loss(&xm)) / (2.0 * eps as f64)) as f32;
            let ana = dx.data()[i];
            assert!((num - ana).abs() < 2e-2, "{num} vs {ana}");
        }
        assert!(finite(&grads));
    }

    #[test]
    fn attention_gradient_check_against_finite_differences() {
        let (batch, seq, h, heads) = (1usize, 4usize, 8usize, 2usize);
        let attn = MultiHeadAttention::new(h, heads, 31);
        let x = Tensor::randn(&[batch * seq, h], 0.5, 32);
        let probe = Tensor::randn(&[batch * seq, h], 1.0, 33);
        let (_, saved) = attn.forward(&x, batch, seq);
        let mut grads = vec![f32::NAN; attn.param_count()];
        let dx = attn.backward(&x, &saved, &probe, batch, seq, &mut grads);
        assert!(finite(&grads));
        let loss = |xx: &Tensor| -> f64 {
            attn.forward(xx, batch, seq)
                .0
                .data()
                .iter()
                .zip(probe.data())
                .map(|(&a, &b)| (a * b) as f64)
                .sum()
        };
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&xp) - loss(&xm)) / (2.0 * eps as f64)) as f32;
            let ana = dx.data()[i];
            let denom = num.abs().max(ana.abs()).max(1.0);
            assert!(
                (num - ana).abs() / denom < 3e-2,
                "elem {i}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn attention_is_causal() {
        let (batch, seq, h, heads) = (1usize, 6usize, 8usize, 2usize);
        let attn = MultiHeadAttention::new(h, heads, 41);
        let x = Tensor::randn(&[seq, h], 1.0, 42);
        let (y1, _) = attn.forward(&x, batch, seq);
        // Changing a *later* token must not change earlier outputs.
        let mut x2 = x.clone();
        for j in 0..h {
            x2.data_mut()[(seq - 1) * h + j] += 5.0;
        }
        let (y2, _) = attn.forward(&x2, batch, seq);
        for t in 0..seq - 1 {
            for j in 0..h {
                assert_eq!(
                    y1.data()[t * h + j],
                    y2.data()[t * h + j],
                    "token {t} leaked future information"
                );
            }
        }
        // And the last token's output does change.
        assert_ne!(&y1.data()[(seq - 1) * h..], &y2.data()[(seq - 1) * h..]);
    }

    #[test]
    fn block_gradient_check() {
        let (batch, seq, h, heads) = (1usize, 3usize, 8usize, 2usize);
        let block = TransformerBlock::new(batch, seq, h, heads, 51);
        let x = Tensor::randn(&[batch * seq, h], 0.5, 52);
        let probe = Tensor::randn(&[batch * seq, h], 1.0, 53);
        let (_, saved) = block.forward(&x);
        let mut grads = vec![f32::NAN; block.param_count()];
        let dx = block.backward(&x, &saved, &probe, &mut grads);
        assert!(finite(&grads), "every slot element is written");
        let loss = |xx: &Tensor| -> f64 {
            block
                .forward(xx)
                .0
                .data()
                .iter()
                .zip(probe.data())
                .map(|(&a, &b)| (a * b) as f64)
                .sum()
        };
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&xp) - loss(&xm)) / (2.0 * eps as f64)) as f32;
            let ana = dx.data()[i];
            let denom = num.abs().max(ana.abs()).max(1.0);
            assert!(
                (num - ana).abs() / denom < 3e-2,
                "elem {i}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn params_flat_round_trips() {
        let mut block = TransformerBlock::new(2, 4, 16, 4, 61);
        let flat = block.params_flat();
        assert_eq!(flat.len(), block.param_count());
        let mut clone = TransformerBlock::new(2, 4, 16, 4, 999);
        assert_ne!(clone.params_flat(), flat);
        clone.set_params_flat(&flat);
        assert_eq!(clone.params_flat(), flat);
        // Mutating through set preserves structure.
        let zeros = vec![0.0f32; flat.len()];
        block.set_params_flat(&zeros);
        assert_eq!(block.params_flat(), zeros);
        // The byte forms are the flat form, encoded.
        use crate::dtype::{decode_f16, encode_f16, encode_f32};
        assert_eq!(clone.params_f32_le(), encode_f32(&flat));
        block.set_params_f16_le(&encode_f16(&flat));
        assert_eq!(block.params_flat(), decode_f16(&encode_f16(&flat)));
    }

    #[test]
    fn block_saved_f16_round_trip() {
        let (batch, seq, h, heads) = (2usize, 4usize, 16usize, 4usize);
        let block = TransformerBlock::new(batch, seq, h, heads, 71);
        let x = Tensor::randn(&[batch * seq, h], 0.5, 72);
        let (_, saved) = block.forward(&x);
        let mut rounded = saved.clone();
        rounded.quantize_f16();
        assert_eq!(
            saved.element_count(),
            BlockSaved::element_count_for(batch, seq, h, heads)
        );
        // The encode needs no rounding first.
        let bytes: Vec<u8> = saved.clone().into_f16_chunks(1).flatten().collect();
        let whole: Vec<Vec<u8>> = rounded.clone().into_f16_chunks(1).collect();
        assert_eq!(whole, std::slice::from_ref(&bytes));
        assert_eq!(bytes.len(), rounded.element_count() * 2);
        let restored = BlockSaved::from_f16_bytes([&bytes], batch, seq, h, heads);
        assert_eq!(restored, rounded);
        // Chunks split at any element boundary decode to the same set.
        let (head, tail) = bytes.split_at(2 * 37);
        let (mid, tail) = tail.split_at((tail.len() / 2) & !1);
        let chunked = BlockSaved::from_f16_bytes([head, mid, tail], batch, seq, h, heads);
        assert_eq!(chunked, rounded);
        // Encoded in n chunks, cut at `elems·i/n` — mid-field for every n
        // here but 1 — the set is the whole blob, cut there.
        let elems = rounded.element_count();
        let starts = |n: usize| (0..n).map(move |i| elems * i / n);
        let field_starts: Vec<usize> = (rounded.tensors().iter())
            .scan(0, |at, t| Some(std::mem::replace(at, *at + t.len())))
            .collect();
        for n in [1, 2, 3, 4, 7] {
            let cuts: Vec<usize> = starts(n).skip(1).collect();
            assert!(cuts.iter().all(|c| !field_starts.contains(c)), "n = {n}");
            let chunks: Vec<Vec<u8>> = saved.clone().into_f16_chunks(n).collect();
            let lens: Vec<usize> = chunks.iter().map(|c| c.len() / 2).collect();
            let want: Vec<usize> = (starts(n).zip(starts(n).skip(1).chain([elems])))
                .map(|(a, b)| b - a)
                .collect();
            assert_eq!(lens, want, "n = {n}");
            assert_eq!(chunks.concat(), bytes, "n = {n}");
            let decoded = BlockSaved::from_f16_bytes(&chunks, batch, seq, h, heads);
            let bits = |s: &BlockSaved| -> Vec<u32> {
                (s.tensors().iter())
                    .flat_map(|t| t.iter().map(|v| v.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&decoded), bits(&rounded), "n = {n}");
        }
    }

    #[test]
    fn recompute_equals_saved_backward() {
        // The core recomputation invariant: running forward again from the
        // (quantized) input produces the same saved activations, hence the
        // same gradients.
        let (batch, seq, h, heads) = (2usize, 4usize, 16usize, 4usize);
        let block = TransformerBlock::new(batch, seq, h, heads, 81);
        let x = Tensor::randn(&[batch * seq, h], 0.5, 82).quantize_f16();
        let probe = Tensor::randn(&[batch * seq, h], 1.0, 83);
        let (_, saved) = block.forward(&x);
        let (_, recomputed) = block.forward(&x);
        assert_eq!(saved, recomputed);
        let (mut g1, mut g2) = (
            vec![0.0; block.param_count()],
            vec![1.0; block.param_count()],
        );
        let dx1 = block.backward(&x, &saved, &probe, &mut g1);
        let dx2 = block.backward(&x, &recomputed, &probe, &mut g2);
        assert_eq!(dx1, dx2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn embedding_forward_backward_shapes() {
        let emb = Embedding::new(16, 4, 8, 91);
        let ids = vec![1usize, 2, 3, 4, 5, 6, 7, 8];
        let x = emb.forward(&ids, 2, 4);
        assert_eq!(x.shape(), &[8, 8]);
        let dy = Tensor::full(&[8, 8], 1.0);
        let mut g = vec![f32::NAN; emb.param_count()];
        emb.backward(&ids, 2, 4, &dy, &mut g);
        assert!(finite(&g), "every slot element is written");
    }

    #[test]
    fn model_reference_step_decreases_loss_with_sgd() {
        let config = GptConfig::tiny();
        let mut model = GptModel::new(config, 1234);
        let n = config.batch * config.seq;
        let tokens: Vec<usize> = (0..n).map(|i| i % config.vocab).collect();
        let targets: Vec<usize> = (0..n).map(|i| (i + 1) % config.vocab).collect();
        let (loss0, grads) = model.train_step_reference(&tokens, &targets, false);
        assert!(loss0.is_finite());
        // Manual SGD step on every layer.
        let lr = 0.5f32;
        let apply = |layer: &mut dyn ParamLayer, g: &[f32]| {
            let mut p = layer.params_flat();
            for (pv, gv) in p.iter_mut().zip(g) {
                *pv -= lr * gv;
            }
            layer.set_params_flat(&p);
        };
        apply(&mut model.embedding, &grads[0]);
        for (i, block) in model.blocks.iter_mut().enumerate() {
            apply(block, &grads[i + 1]);
        }
        apply(&mut model.head, &grads[config.layers + 1]);
        let (loss1, _) = model.train_step_reference(&tokens, &targets, false);
        assert!(loss1 < loss0, "loss did not decrease: {loss0} -> {loss1}");
    }

    #[test]
    fn quantized_reference_is_deterministic() {
        let config = GptConfig::tiny();
        let model = GptModel::new(config, 99);
        let n = config.batch * config.seq;
        let tokens: Vec<usize> = (0..n).map(|i| (i * 7) % config.vocab).collect();
        let targets: Vec<usize> = (0..n).map(|i| (i * 7 + 1) % config.vocab).collect();
        let (l1, g1) = model.train_step_reference(&tokens, &targets, true);
        let (l2, g2) = model.train_step_reference(&tokens, &targets, true);
        assert_eq!(l1, l2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn layernorm_stats_survive_blob_round_trip() {
        let stats = LayerNormStats {
            mean: vec![0.5, -0.25],
            rstd: vec![1.0, 2.0],
        };
        // Values exactly representable in f16 survive quantization.
        let mut s2 = stats.clone();
        for v in s2.mean.iter_mut().chain(s2.rstd.iter_mut()) {
            *v = crate::dtype::round_to_f16(*v);
        }
        assert_eq!(stats, s2);
    }
}

// ---------------------------------------------------------------------------
// Incremental (KV-cached) inference
// ---------------------------------------------------------------------------

/// Per-block key/value cache for incremental decoding (batch 1): keys and
/// values of every past position, laid out `[heads][t][d]`. Like any other
/// tensor in this system it serializes to half-precision bytes, so the
/// out-of-core engine can *offload the KV cache* between tiers — the
/// inference-side analogue of activation swapping.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    k: Vec<f32>,
    v: Vec<f32>,
    heads: usize,
    head_dim: usize,
    tokens: usize,
}

impl KvCache {
    /// An empty cache for `heads` heads of dimension `head_dim`.
    pub fn new(heads: usize, head_dim: usize) -> Self {
        KvCache {
            k: Vec::new(),
            v: Vec::new(),
            heads,
            head_dim,
            tokens: 0,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.tokens
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0
    }

    /// Serializes to half-precision bytes (`[k..., v...]`).
    pub fn to_f16_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; 2 * (self.k.len() + self.v.len())];
        let (k, v) = out.split_at_mut(2 * self.k.len());
        encode_f16_into(&self.k, k);
        encode_f16_into(&self.v, v);
        out
    }

    /// Restores a cache of `tokens` positions from
    /// [`KvCache::to_f16_bytes`] output.
    pub fn from_f16_bytes(bytes: &[u8], heads: usize, head_dim: usize, tokens: usize) -> Self {
        let n = heads * tokens * head_dim;
        assert_eq!(bytes.len(), 4 * n, "kv blob length");
        let (k_bytes, v_bytes) = bytes.split_at(2 * n);
        let (mut k, mut v) = (vec![0.0f32; n], vec![0.0f32; n]);
        decode_f16_into(k_bytes, &mut k);
        decode_f16_into(v_bytes, &mut v);
        KvCache {
            k,
            v,
            heads,
            head_dim,
            tokens,
        }
    }

    /// Rounds every cached key and value to half precision in place:
    /// the cache a [`KvCache::to_f16_bytes`] /
    /// [`KvCache::from_f16_bytes`] round trip returns, without the bytes.
    pub fn round_to_f16(&mut self) {
        round_to_f16_in_place(&mut self.k);
        round_to_f16_in_place(&mut self.v);
    }

    fn head_k(&self, head: usize) -> &[f32] {
        let per_head = self.tokens * self.head_dim;
        &self.k[head * per_head..(head + 1) * per_head]
    }
    fn head_v(&self, head: usize) -> &[f32] {
        let per_head = self.tokens * self.head_dim;
        &self.v[head * per_head..(head + 1) * per_head]
    }

    /// Appends one position's per-head keys/values (layout `[3h]` fused
    /// qkv row; k at offset h, v at 2h).
    fn append(&mut self, qkv_row: &[f32], h: usize) {
        let d = self.head_dim;
        // Rebuild per-head contiguous layout with the new token appended.
        let t = self.tokens;
        let mut k = vec![0.0f32; self.heads * (t + 1) * d];
        let mut v = vec![0.0f32; self.heads * (t + 1) * d];
        for hd in 0..self.heads {
            let old = t * d;
            k[hd * (t + 1) * d..hd * (t + 1) * d + old]
                .copy_from_slice(&self.k[hd * old..(hd + 1) * old]);
            v[hd * (t + 1) * d..hd * (t + 1) * d + old]
                .copy_from_slice(&self.v[hd * old..(hd + 1) * old]);
            k[hd * (t + 1) * d + old..hd * (t + 1) * d + old + d]
                .copy_from_slice(&qkv_row[h + hd * d..h + (hd + 1) * d]);
            v[hd * (t + 1) * d + old..hd * (t + 1) * d + old + d]
                .copy_from_slice(&qkv_row[2 * h + hd * d..2 * h + (hd + 1) * d]);
        }
        self.k = k;
        self.v = v;
        self.tokens = t + 1;
    }
}

impl MultiHeadAttention {
    /// Incremental attention for one new token (batch 1): appends the
    /// token's K/V to the cache and attends over all cached positions.
    /// Equivalent to the last row of [`MultiHeadAttention::forward`] over
    /// the full sequence.
    pub fn forward_cached(&self, x_t: &Tensor, cache: &mut KvCache) -> Tensor {
        let h = x_t.shape()[1];
        assert_eq!(x_t.shape()[0], 1, "incremental path is batch 1");
        let d = h / self.heads;
        assert_eq!(cache.head_dim, d, "cache head_dim");
        let qkv = self.wqkv.forward(x_t);
        cache.append(qkv.data(), h);
        let t = cache.tokens;
        let scale = 1.0 / (d as f32).sqrt();

        let mut ctx = vec![0.0f32; h];
        // One decode step scores every cached position per head; the buffer
        // comes from the thread-local scratch pool so the per-token decode
        // loop stops allocating once the pool is warm.
        let mut scores = scratch_f32(t);
        for hd in 0..self.heads {
            let q = &qkv.data()[hd * d..(hd + 1) * d];
            let keys = cache.head_k(hd);
            let vals = cache.head_v(hd);
            // scores over all t cached positions (the new one included).
            for (p, s) in scores.iter_mut().enumerate() {
                let krow = &keys[p * d..(p + 1) * d];
                *s = q.iter().zip(krow).map(|(a, b)| a * b).sum::<f32>() * scale;
            }
            // Softmax (stable).
            let max = scores.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut sum = 0.0f32;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                sum += *s;
            }
            let inv = 1.0 / sum;
            let out = &mut ctx[hd * d..(hd + 1) * d];
            for (p, &s) in scores.iter().enumerate() {
                let w = s * inv;
                let vrow = &vals[p * d..(p + 1) * d];
                for (o, &vv) in out.iter_mut().zip(vrow) {
                    *o += w * vv;
                }
            }
        }
        self.wo.forward(&Tensor::from_vec(&[1, h], ctx))
    }
}

impl TransformerBlock {
    /// Incremental block forward for one token (batch 1), using and
    /// updating the KV cache. Matches the last row of
    /// [`TransformerBlock::forward`] over the full context.
    pub fn forward_cached(&self, x_t: &Tensor, cache: &mut KvCache) -> Tensor {
        let (x1, _) = self.ln1.forward(x_t);
        let a = self.attn.forward_cached(&x1, cache);
        let x2 = x_t.add(&a);
        let (x3, _) = self.ln2.forward(&x2);
        let (m, _) = self.mlp.forward(&x3);
        x2.add(&m)
    }
}

#[cfg(test)]
mod kv_cache_tests {
    use super::*;

    #[test]
    fn incremental_attention_matches_full_forward() {
        let (seq, h, heads) = (6usize, 16usize, 4usize);
        let attn = MultiHeadAttention::new(h, heads, 3);
        let x = Tensor::randn(&[seq, h], 0.7, 4);
        let (full, _) = attn.forward(&x, 1, seq);
        let mut cache = KvCache::new(heads, h / heads);
        for t in 0..seq {
            let row = Tensor::from_vec(&[1, h], x.data()[t * h..(t + 1) * h].to_vec());
            let inc = attn.forward_cached(&row, &mut cache);
            for j in 0..h {
                let a = full.data()[t * h + j];
                let b = inc.data()[j];
                assert!((a - b).abs() < 1e-4, "token {t} channel {j}: {a} vs {b}");
            }
        }
        assert_eq!(cache.len(), seq);
    }

    #[test]
    fn incremental_block_matches_full_forward() {
        let (seq, h, heads) = (5usize, 16usize, 4usize);
        let block = TransformerBlock::new(1, seq, h, heads, 7);
        let x = Tensor::randn(&[seq, h], 0.5, 8);
        let (full, _) = block.forward(&x);
        let mut cache = KvCache::new(heads, h / heads);
        for t in 0..seq {
            let row = Tensor::from_vec(&[1, h], x.data()[t * h..(t + 1) * h].to_vec());
            let inc = block.forward_cached(&row, &mut cache);
            for j in 0..h {
                let a = full.data()[t * h + j];
                let b = inc.data()[j];
                assert!((a - b).abs() < 1e-4, "token {t} ch {j}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn kv_cache_blob_round_trips() {
        let (h, heads) = (16usize, 4usize);
        let attn = MultiHeadAttention::new(h, heads, 11);
        let mut cache = KvCache::new(heads, h / heads);
        for t in 0..4 {
            let row = Tensor::randn(&[1, h], 0.5, 20 + t);
            attn.forward_cached(&row, &mut cache);
        }
        // Quantize then round-trip: restoring must be exact.
        let bytes = cache.to_f16_bytes();
        let restored = KvCache::from_f16_bytes(&bytes, heads, h / heads, cache.len());
        assert_eq!(restored.to_f16_bytes(), bytes);
        assert_eq!(restored.len(), 4);
        // Rounding in place is that round trip without the bytes.
        assert_ne!(cache, restored);
        cache.round_to_f16();
        assert_eq!(cache, restored);
    }
}
