//! Mixed-precision loss scaling and per-layer gradient processing.
//!
//! Training in half precision loses small gradients to underflow; loss
//! scaling multiplies the loss gradient by a large factor before backward
//! and divides it back out before the optimizer. When the scale is too
//! large, gradients overflow the f16 range instead; the scaler then skips
//! the affected update and backs the scale off (the usual dynamic
//! GradScaler protocol).
//!
//! One Ratel-specific adaptation: active gradient offloading consumes each
//! layer's gradient *immediately*, before later layers' gradients exist,
//! so any policy that needs the full gradient set (global-norm clipping,
//! all-or-nothing overflow skipping) would reintroduce the serialization
//! the paper removes. Both the engine and the in-memory reference
//! therefore apply overflow skipping and norm clipping **per layer** —
//! a deliberate, documented deviation from PyTorch's global GradScaler,
//! chosen so the schedule stays overlap-friendly and the two paths stay
//! bit-identical.

/// How the loss gradient is scaled before backward propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalePolicy {
    /// No scaling (scale is 1).
    None,
    /// A fixed scale factor.
    Static(f32),
    /// Dynamic scaling: back off on overflow, grow after a streak of
    /// clean steps.
    Dynamic {
        /// Initial scale.
        init: f32,
        /// Multiplier applied on overflow (< 1).
        backoff: f32,
        /// Multiplier applied after a clean streak (> 1).
        growth: f32,
        /// Clean steps required before growing.
        growth_interval: u64,
    },
}

impl ScalePolicy {
    /// The conventional dynamic policy (init 2^16, halve on overflow,
    /// double after 2000 clean steps — scaled down to 20 for the small
    /// models this engine trains).
    pub fn dynamic_default() -> Self {
        ScalePolicy::Dynamic {
            init: 65_536.0,
            backoff: 0.5,
            growth: 2.0,
            growth_interval: 20,
        }
    }
}

/// Runtime state of the loss scaler.
#[derive(Debug, Clone, PartialEq)]
pub struct LossScaler {
    policy: ScalePolicy,
    scale: f32,
    clean_streak: u64,
}

impl LossScaler {
    /// Creates the scaler for a policy.
    pub fn new(policy: ScalePolicy) -> Self {
        let scale = match policy {
            ScalePolicy::None => 1.0,
            ScalePolicy::Static(s) => s,
            ScalePolicy::Dynamic { init, .. } => init,
        };
        LossScaler {
            policy,
            scale,
            clean_streak: 0,
        }
    }

    /// The scale to apply to this step's loss gradient.
    pub fn current(&self) -> f32 {
        self.scale
    }

    /// Records a finished step; `overflowed` if any layer skipped.
    pub fn update(&mut self, overflowed: bool) {
        if let ScalePolicy::Dynamic {
            backoff,
            growth,
            growth_interval,
            ..
        } = self.policy
        {
            if overflowed {
                self.scale = (self.scale * backoff).max(1.0);
                self.clean_streak = 0;
            } else {
                self.clean_streak += 1;
                if self.clean_streak >= growth_interval {
                    self.scale *= growth;
                    self.clean_streak = 0;
                }
            }
        }
    }
}

/// Per-layer gradient post-processing — unscale, overflow check,
/// optional norm clip — over an f32 vector: the in-memory reference's,
/// and the oracle of what the engine's handler computes in two passes
/// over the G16 bytes (`ratel_tensor::adam::GradFactors`). Returns `None`
/// when the layer's update must be skipped.
pub fn prepare_gradient(grads: &mut [f32], scale: f32, clip: Option<f32>) -> Option<()> {
    if scale != 1.0 {
        let inv = 1.0 / scale;
        for g in grads.iter_mut() {
            *g *= inv;
        }
    }
    if grads.iter().any(|g| !g.is_finite()) {
        return None;
    }
    if let Some(max_norm) = clip {
        let norm = grads
            .iter()
            .map(|g| (*g as f64) * (*g as f64))
            .sum::<f64>()
            .sqrt() as f32;
        if norm > max_norm {
            let factor = max_norm / norm;
            for g in grads.iter_mut() {
                *g *= factor;
            }
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_and_none_policies_never_change() {
        let mut s = LossScaler::new(ScalePolicy::Static(1024.0));
        s.update(true);
        s.update(false);
        assert_eq!(s.current(), 1024.0);
        let mut n = LossScaler::new(ScalePolicy::None);
        n.update(true);
        assert_eq!(n.current(), 1.0);
    }

    #[test]
    fn dynamic_backs_off_and_regrows() {
        let mut s = LossScaler::new(ScalePolicy::Dynamic {
            init: 1024.0,
            backoff: 0.5,
            growth: 2.0,
            growth_interval: 3,
        });
        s.update(true);
        assert_eq!(s.current(), 512.0);
        s.update(false);
        s.update(false);
        assert_eq!(s.current(), 512.0);
        s.update(false);
        assert_eq!(s.current(), 1024.0);
        // An overflow resets the streak.
        s.update(false);
        s.update(true);
        assert_eq!(s.current(), 512.0);
        s.update(false);
        s.update(false);
        s.update(false);
        assert_eq!(s.current(), 1024.0);
    }

    #[test]
    fn dynamic_scale_never_drops_below_one() {
        let mut s = LossScaler::new(ScalePolicy::Dynamic {
            init: 2.0,
            backoff: 0.5,
            growth: 2.0,
            growth_interval: 100,
        });
        for _ in 0..10 {
            s.update(true);
        }
        assert_eq!(s.current(), 1.0);
    }

    #[test]
    fn prepare_gradient_unscales_and_clips() {
        let mut g = vec![2.0f32, 0.0, -2.0];
        prepare_gradient(&mut g, 2.0, None).unwrap();
        assert_eq!(g, vec![1.0, 0.0, -1.0]);
        // Norm is sqrt(2); clip to 0.5 scales by 0.5/sqrt(2).
        prepare_gradient(&mut g, 1.0, Some(0.5)).unwrap();
        let norm = g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 0.5).abs() < 1e-6, "{norm}");
    }

    #[test]
    fn prepare_gradient_skips_on_overflow() {
        let mut g = vec![1.0f32, f32::INFINITY];
        assert!(prepare_gradient(&mut g, 4.0, None).is_none());
        let mut g = vec![1.0f32, f32::NAN];
        assert!(prepare_gradient(&mut g, 1.0, None).is_none());
    }

    #[test]
    fn two_passes_over_the_g16_bytes_equal_prepare_gradient_then_adam() {
        // The handler never builds the f32 gradient: `GradFactors::measure`
        // then `step_le_bytes` over the G16 bytes must be, bit for bit,
        // `prepare_gradient` over the decoded vector then `Adam::step`.
        use ratel_tensor::adam::{step_le_bytes, GradFactors};
        use ratel_tensor::dtype::{decode_f16, encode_f16, encode_f32};
        use ratel_tensor::{Adam, AdamParams, Tensor};
        let hp = AdamParams::default();
        // Sizes on both sides of the codec's 256-element chunk.
        for (case, n) in [1usize, 255, 257, 1000].into_iter().enumerate() {
            for scale in [1.0f32, 1024.0] {
                let seed = case as u64 * 10;
                let stored = Tensor::randn(&[n], 0.05 * scale, seed).into_vec();
                let norm = {
                    let mut g = decode_f16(&encode_f16(&stored));
                    prepare_gradient(&mut g, scale, None).unwrap();
                    g.iter().map(|g| g * g).sum::<f32>().sqrt()
                };
                // No clip, one the norm exceeds, one it does not.
                for clip in [None, Some(norm / 2.0), Some(norm * 2.0)] {
                    // As stored, then with an element the unscale leaves
                    // infinite, then with a NaN.
                    for poison in [None, Some(f32::INFINITY), Some(f32::NAN)] {
                        let mut stored = stored.clone();
                        if let Some(bad) = poison {
                            stored[n / 2] = bad;
                        }
                        let g16 = encode_f16(&stored);
                        let what = format!("n {n}, scale {scale}, clip {clip:?}, {poison:?}");

                        let mut grads = decode_f16(&g16);
                        let prepared = prepare_gradient(&mut grads, scale, clip);
                        let factors = GradFactors::measure(&g16, scale, clip);
                        assert_eq!(prepared.is_some(), factors.is_some(), "{what}");
                        assert_eq!(prepared.is_some(), poison.is_none(), "{what}");
                        let Some(factors) = factors else { continue };
                        assert_eq!(factors.unscale.is_some(), scale != 1.0, "{what}");
                        assert_eq!(factors.clip.is_some(), clip == Some(norm / 2.0), "{what}");

                        let mut params = Tensor::randn(&[n], 0.5, seed + 1).into_vec();
                        let mut adam = Adam::new(n);
                        let mut master = encode_f32(&params);
                        let mut moments = vec![0u8; 8 * n];
                        for t in 0..2 {
                            adam.step(&mut params, &grads, &hp);
                            step_le_bytes(&mut master, &mut moments, &g16, factors, t, &hp);
                        }
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
    fn clipping_leaves_small_gradients_alone() {
        let mut g = vec![0.1f32, -0.1];
        let orig = g.clone();
        prepare_gradient(&mut g, 1.0, Some(10.0)).unwrap();
        assert_eq!(g, orig);
    }
}
