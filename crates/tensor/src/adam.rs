//! The Adam optimizer, executed on the CPU in full precision.
//!
//! This is the "out-of-core CPU Adam" of the paper: it consumes fp16
//! gradients and updates fp32 master parameters and fp32 first and second
//! moments (`OS32` of Table II). The engine's optimizer handler runs it
//! over the states where the store holds them — [`step_le_bytes`], on
//! the little-endian P32 blob, the flat `[m..., v...]` OS32 blob and
//! the G16 blob, which it reads twice ([`GradFactors::measure`], then
//! the step) instead of decoding into a vector; [`Adam::step`] is the
//! same arithmetic over `f32` vectors, the reference trainer's kernel
//! and the byte kernel's oracle.

use crate::dtype::{decode_f16_into, decode_f32_into, encode_f32_into, CODEC_CHUNK};
use crate::parallel::{self, par_bands, MIN_BLOCK};

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamParams {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay of the first moment.
    pub beta1: f32,
    /// Exponential decay of the second moment.
    pub beta2: f32,
    /// Denominator epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW); 0 disables it.
    pub weight_decay: f32,
}

impl Default for AdamParams {
    fn default() -> Self {
        AdamParams {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam state for one layer's flat parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// First moment, one entry per parameter.
    pub m: Vec<f32>,
    /// Second moment, one entry per parameter.
    pub v: Vec<f32>,
    /// Completed steps (bias correction uses `t + 1`).
    pub t: u64,
}

impl Adam {
    /// Fresh state for `n` parameters.
    pub fn new(n: usize) -> Self {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Applies one Adam update to `params` given `grads`.
    ///
    /// The update is elementwise, so it is split into contiguous bands —
    /// one per worker thread — without changing any result bit; see
    /// [`crate::parallel`].
    ///
    /// # Panics
    /// If lengths disagree with the state.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], hp: &AdamParams) {
        assert_eq!(params.len(), self.m.len(), "param/state length");
        assert_eq!(grads.len(), self.m.len(), "grad/state length");
        self.t += 1;
        let (bc1, bc2) = bias_corrections(self.t, hp);
        let per = band_len(params.len());
        let bands = params
            .chunks_mut(per)
            .zip(grads.chunks(per))
            .zip(self.m.chunks_mut(per))
            .zip(self.v.chunks_mut(per));
        par_bands(bands, |_, (((pb, gb), mb), vb)| {
            step_band(pb, gb, mb, vb, hp, bc1, bc2)
        });
    }
}

/// What turns a stored G16 element into the gradient Adam steps with:
/// the decoded value times `unscale` (the reciprocal of the loss scale)
/// times `clip` (the norm clip's factor), each applied only when present
/// and in that order — per element what unscaling and then clipping an
/// f32 vector of the gradient computes, rounding included.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GradFactors {
    /// `1 / scale` under a loss scale other than 1.
    pub unscale: Option<f32>,
    /// `max_norm / norm` when the unscaled gradient's norm exceeds the
    /// clip.
    pub clip: Option<f32>,
}

impl GradFactors {
    /// The first pass over a layer's G16 blob: the factors its update
    /// applies, or `None` when an unscaled element is not finite and the
    /// update must be skipped. The norm is the f64 sum of squares in
    /// element order, as over a vector.
    pub fn measure(g16: &[u8], scale: f32, max_norm: Option<f32>) -> Option<GradFactors> {
        let unclipped = GradFactors {
            unscale: (scale != 1.0).then(|| 1.0 / scale),
            clip: None,
        };
        let mut g = [0.0f32; CODEC_CHUNK];
        let mut sum_sq = 0.0f64;
        for bytes in g16.chunks(2 * CODEC_CHUNK) {
            let g = &mut g[..bytes.len() / 2];
            unclipped.load(bytes, g);
            if g.iter().any(|g| !g.is_finite()) {
                return None;
            }
            // One running sum, not a sum of chunk sums: f64 addition
            // does not associate.
            for g in g.iter() {
                sum_sq += (*g as f64) * (*g as f64);
            }
        }
        let norm = sum_sq.sqrt() as f32;
        let clip = max_norm
            .filter(|max_norm| norm > *max_norm)
            .map(|max_norm| max_norm / norm);
        Some(GradFactors { clip, ..unclipped })
    }

    /// Decodes one chunk of G16 bytes into `out` and applies the factors.
    fn load(&self, g16: &[u8], out: &mut [f32]) {
        decode_f16_into(g16, out);
        for factor in [self.unscale, self.clip].into_iter().flatten() {
            out.iter_mut().for_each(|g| *g *= factor);
        }
    }
}

/// One Adam update over a layer's states as the store holds them:
/// `master` is the little-endian f32 parameter blob (P32), `moments` the
/// little-endian flat `[m..., v...]` blob (OS32), `g16` the little-endian
/// binary16 gradient blob with the `factors` its first pass measured, `t`
/// the updates applied so far (bias correction uses `t + 1`). The blobs
/// are updated where they lie, [`CODEC_CHUNK`] elements at a time through
/// a stack scratch; bitwise what [`Adam::step`] computes on the decoded
/// vectors, at every thread count — the same [`step_band`] under the same
/// band split.
///
/// # Panics
/// If `master` is not 4 bytes per gradient element or `moments` not 8.
pub fn step_le_bytes(
    master: &mut [u8],
    moments: &mut [u8],
    g16: &[u8],
    factors: GradFactors,
    t: u64,
    hp: &AdamParams,
) {
    let n = g16.len() / 2;
    assert_eq!(master.len(), 4 * n, "master/grad length");
    assert_eq!(moments.len(), 8 * n, "moments/grad length");
    let (bc1, bc2) = bias_corrections(t + 1, hp);
    let (m, v) = moments.split_at_mut(4 * n);
    let per = band_len(n);
    let bands = master
        .chunks_mut(4 * per)
        .zip(g16.chunks(2 * per))
        .zip(m.chunks_mut(4 * per))
        .zip(v.chunks_mut(4 * per));
    par_bands(bands, |_, (((pb, gb), mb), vb)| {
        step_band_le(pb, gb, factors, mb, vb, hp, bc1, bc2)
    });
}

/// The bias-correction denominators of update number `t` (1-based).
fn bias_corrections(t: u64, hp: &AdamParams) -> (f32, f32) {
    let t = t as i32;
    (1.0 - hp.beta1.powi(t), 1.0 - hp.beta2.powi(t))
}

/// Elements per band of an `n`-element update: all of them below the
/// parallel threshold, one contiguous band per worker thread above it.
fn band_len(n: usize) -> usize {
    parallel::band_len(n, if n < 2 * MIN_BLOCK { 1 } else { n })
}

/// [`step_band`] over one band of little-endian blobs.
#[allow(clippy::too_many_arguments)]
fn step_band_le(
    params: &mut [u8],
    g16: &[u8],
    factors: GradFactors,
    m: &mut [u8],
    v: &mut [u8],
    hp: &AdamParams,
    bc1: f32,
    bc2: f32,
) {
    let mut p = [0.0f32; CODEC_CHUNK];
    let mut g = [0.0f32; CODEC_CHUNK];
    let mut ms = [0.0f32; CODEC_CHUNK];
    let mut vs = [0.0f32; CODEC_CHUNK];
    let chunks = params
        .chunks_mut(4 * CODEC_CHUNK)
        .zip(g16.chunks(2 * CODEC_CHUNK))
        .zip(m.chunks_mut(4 * CODEC_CHUNK))
        .zip(v.chunks_mut(4 * CODEC_CHUNK));
    for (((pb, gb), mb), vb) in chunks {
        let n = gb.len() / 2;
        let (p, g, ms, vs) = (&mut p[..n], &mut g[..n], &mut ms[..n], &mut vs[..n]);
        decode_f32_into(pb, p);
        factors.load(gb, g);
        decode_f32_into(mb, ms);
        decode_f32_into(vb, vs);
        step_band(p, g, ms, vs, hp, bc1, bc2);
        encode_f32_into(p, pb);
        encode_f32_into(ms, mb);
        encode_f32_into(vs, vb);
    }
}

/// The per-element Adam update over one contiguous band.
fn step_band(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    hp: &AdamParams,
    bc1: f32,
    bc2: f32,
) {
    for i in 0..params.len() {
        let g = grads[i];
        m[i] = hp.beta1 * m[i] + (1.0 - hp.beta1) * g;
        v[i] = hp.beta2 * v[i] + (1.0 - hp.beta2) * g * g;
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        params[i] -= hp.lr * (mhat / (vhat.sqrt() + hp.eps) + hp.weight_decay * params[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_moves_by_lr_against_gradient_sign() {
        let mut adam = Adam::new(2);
        let mut p = vec![1.0f32, -1.0];
        let g = vec![0.5f32, -0.5];
        let hp = AdamParams {
            lr: 0.1,
            ..Default::default()
        };
        adam.step(&mut p, &g, &hp);
        // On step one, mhat/vhat = g/|g| so the move is ~lr * sign(g).
        assert!((p[0] - 0.9).abs() < 1e-3, "{}", p[0]);
        assert!((p[1] + 0.9).abs() < 1e-3, "{}", p[1]);
    }

    #[test]
    fn converges_on_a_quadratic() {
        let mut adam = Adam::new(1);
        let mut p = vec![5.0f32];
        let hp = AdamParams {
            lr: 0.1,
            ..Default::default()
        };
        for _ in 0..500 {
            let g = vec![2.0 * p[0]]; // d/dp p^2
            adam.step(&mut p, &g, &hp);
        }
        assert!(p[0].abs() < 1e-2, "{}", p[0]);
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let mut adam = Adam::new(1);
        let mut p = vec![1.0f32];
        let hp = AdamParams {
            lr: 0.1,
            weight_decay: 0.5,
            ..Default::default()
        };
        adam.step(&mut p, &[0.0], &hp);
        assert!(p[0] < 1.0);
    }

    #[test]
    fn sequential_updates_are_deterministic() {
        let run = || {
            let mut adam = Adam::new(3);
            let mut p = vec![0.3f32, -0.7, 1.1];
            for s in 0..10 {
                let g: Vec<f32> = p.iter().map(|v| v * 0.1 + s as f32 * 0.01).collect();
                adam.step(&mut p, &g, &AdamParams::default());
            }
            p
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_step_is_bitwise_equal_to_serial() {
        let n = 20_000; // above the parallel threshold at 4 threads
        let g: Vec<f32> = (0..n)
            .map(|i| ((i * 37) % 101) as f32 * 0.01 - 0.5)
            .collect();
        let run = |threads: usize| {
            crate::parallel::with_width(threads, || {
                assert_eq!(crate::parallel::num_threads(), threads);
                let mut adam = Adam::new(n);
                let mut p = vec![0.25f32; n];
                for _ in 0..3 {
                    adam.step(&mut p, &g, &AdamParams::default());
                }
                (p, adam)
            })
        };
        let (p1, a1) = run(1);
        let (p4, a4) = run(4);
        assert!(p1.iter().zip(&p4).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a1, a4);
    }

    #[test]
    fn byte_kernel_equals_the_f32_step_bit_for_bit() {
        use crate::dtype::encode_f32;
        use crate::parallel::MIN_BLOCK;
        let fill = |n: usize, seed: u64| crate::Tensor::randn(&[n], 0.5, seed).into_vec();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Sizes on both sides of the parallel threshold and of the stack
        // scratch, none a multiple of either.
        let sizes = [
            0,
            1,
            CODEC_CHUNK - 1,
            CODEC_CHUNK + 1,
            2 * MIN_BLOCK - 1,
            2 * MIN_BLOCK,
            2 * MIN_BLOCK + 3,
            5 * MIN_BLOCK + 77,
        ];
        for (case, &n) in sizes.iter().enumerate() {
            for threads in 1..=cores {
                for weight_decay in [0.0, 0.01] {
                    for t in [0u64, 1, 1000] {
                        let hp = AdamParams {
                            weight_decay,
                            ..AdamParams::default()
                        };
                        let seed = case as u64 * 10 + t;
                        let g16 = crate::dtype::encode_f16(&fill(n, seed + 1));
                        let grads = crate::dtype::decode_f16(&g16);
                        let mut params = fill(n, seed + 2);
                        let mut adam = Adam {
                            m: fill(n, seed + 3),
                            // Second moments are sums of squares.
                            v: fill(n, seed + 4).iter().map(|x| x * x).collect(),
                            t,
                        };
                        let mut master = encode_f32(&params);
                        let mut moments = encode_f32(&[&adam.m[..], &adam.v[..]].concat());

                        crate::parallel::with_width(threads, || {
                            assert_eq!(crate::parallel::num_threads(), threads);
                            adam.step(&mut params, &grads, &hp);
                            let as_stored = GradFactors::default();
                            step_le_bytes(&mut master, &mut moments, &g16, as_stored, t, &hp);
                        });

                        let what = format!("n {n}, {threads} threads, wd {weight_decay}, t {t}");
                        assert_eq!(master, encode_f32(&params), "master: {what}");
                        assert_eq!(
                            moments,
                            encode_f32(&[&adam.m[..], &adam.v[..]].concat()),
                            "moments: {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "moments/grad length")]
    fn a_moments_blob_of_the_wrong_length_panics() {
        step_le_bytes(
            &mut [0u8; 8],
            &mut [0u8; 8],
            &[0u8; 4],
            GradFactors::default(),
            0,
            &AdamParams::default(),
        );
    }

    #[test]
    #[should_panic(expected = "grad/state length")]
    fn mismatched_grads_panic() {
        let mut adam = Adam::new(2);
        let mut p = vec![0.0f32; 2];
        adam.step(&mut p, &[1.0], &AdamParams::default());
    }
}
