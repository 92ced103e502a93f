//! The Adam optimizer, executed on the CPU in full precision.
//!
//! This is the "out-of-core CPU Adam" of the paper: it owns the fp32 first
//! and second moments (`OS32` of Table II), consumes fp16 gradients, updates
//! fp32 master parameters, and its state is a flat `[m..., v...]` buffer so
//! the whole thing can be spilled to and restored from the SSD tier as one
//! blob.

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
        let t = self.t as i32;
        let bc1 = 1.0 - hp.beta1.powi(t);
        let bc2 = 1.0 - hp.beta2.powi(t);
        let n = params.len();
        let threads = crate::parallel::num_threads();
        if threads <= 1 || n < 2 * crate::parallel::MIN_BLOCK {
            step_band(params, grads, &mut self.m, &mut self.v, hp, bc1, bc2);
            return;
        }
        let per = n.div_ceil(threads);
        std::thread::scope(|s| {
            let mut p_rest = &mut params[..];
            let mut m_rest = &mut self.m[..];
            let mut v_rest = &mut self.v[..];
            let mut off = 0usize;
            while !p_rest.is_empty() {
                let take = per.min(p_rest.len());
                let (pb, pt) = p_rest.split_at_mut(take);
                let (mb, mt) = m_rest.split_at_mut(take);
                let (vb, vt) = v_rest.split_at_mut(take);
                p_rest = pt;
                m_rest = mt;
                v_rest = vt;
                let gb = &grads[off..off + take];
                s.spawn(move || step_band(pb, gb, mb, vb, hp, bc1, bc2));
                off += take;
            }
        });
    }

    /// Serializes the moments as one flat `[m..., v...]` f32 buffer — the
    /// OS32 blob stored in the SSD tier.
    ///
    /// Allocates a fresh buffer; hot paths should use
    /// [`Adam::write_flat_into`] with a reused buffer instead.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.m.len() * 2);
        out.extend_from_slice(&self.m);
        out.extend_from_slice(&self.v);
        out
    }

    /// Writes the flat `[m..., v...]` blob into `out`, resizing it only
    /// on first use — the allocation-free counterpart of
    /// [`Adam::to_flat`] for the per-step optimizer loop.
    pub fn write_flat_into(&self, out: &mut Vec<f32>) {
        let n = self.m.len();
        out.resize(2 * n, 0.0);
        out[..n].copy_from_slice(&self.m);
        out[n..].copy_from_slice(&self.v);
    }

    /// Restores moments from [`Adam::to_flat`] output; `t` is tracked by
    /// the caller per layer.
    ///
    /// Allocates fresh moment vectors; hot paths should keep one `Adam`
    /// alive and use [`Adam::load_flat`] instead.
    ///
    /// # Panics
    /// If the buffer length is odd or disagrees with `n`.
    pub fn from_flat(flat: &[f32], t: u64) -> Self {
        let mut adam = Adam::new(0);
        adam.load_flat(flat, t);
        adam
    }

    /// Reloads moments from a flat `[m..., v...]` blob in place, reusing
    /// the existing moment buffers when the size matches — the
    /// allocation-free counterpart of [`Adam::from_flat`].
    ///
    /// # Panics
    /// If the buffer length is odd.
    pub fn load_flat(&mut self, flat: &[f32], t: u64) {
        assert!(
            flat.len().is_multiple_of(2),
            "flat Adam state must be [m..., v...]"
        );
        let n = flat.len() / 2;
        self.m.resize(n, 0.0);
        self.v.resize(n, 0.0);
        self.m.copy_from_slice(&flat[..n]);
        self.v.copy_from_slice(&flat[n..]);
        self.t = t;
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
    fn state_round_trips_through_flat_blob() {
        let mut adam = Adam::new(4);
        let mut p = vec![1.0f32; 4];
        adam.step(&mut p, &[0.1, 0.2, 0.3, 0.4], &AdamParams::default());
        let flat = adam.to_flat();
        let restored = Adam::from_flat(&flat, adam.t);
        assert_eq!(restored, adam);
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
    fn load_flat_and_write_flat_into_match_allocating_forms() {
        let mut adam = Adam::new(8);
        let mut p = vec![0.5f32; 8];
        let g: Vec<f32> = (0..8).map(|i| i as f32 * 0.1 - 0.3).collect();
        adam.step(&mut p, &g, &AdamParams::default());

        let mut blob = Vec::new();
        adam.write_flat_into(&mut blob);
        assert_eq!(blob, adam.to_flat());

        let mut reused = Adam::new(8);
        reused.load_flat(&blob, adam.t);
        assert_eq!(reused, adam);
        // Reload into the same instance: no growth needed, same result.
        let cap_m = reused.m.capacity();
        reused.load_flat(&blob, adam.t);
        assert_eq!(reused, adam);
        assert_eq!(reused.m.capacity(), cap_m);
    }

    #[test]
    fn parallel_step_is_bitwise_equal_to_serial() {
        let n = 20_000; // above the parallel threshold at 4 threads
        let g: Vec<f32> = (0..n)
            .map(|i| ((i * 37) % 101) as f32 * 0.01 - 0.5)
            .collect();
        let run = |threads: usize| {
            crate::parallel::set_num_threads(threads);
            let mut adam = Adam::new(n);
            let mut p = vec![0.25f32; n];
            for _ in 0..3 {
                adam.step(&mut p, &g, &AdamParams::default());
            }
            crate::parallel::set_num_threads(1);
            (p, adam)
        };
        let (p1, a1) = run(1);
        let (p4, a4) = run(4);
        assert!(p1.iter().zip(&p4).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a1, a4);
    }

    #[test]
    #[should_panic(expected = "grad/state length")]
    fn mismatched_grads_panic() {
        let mut adam = Adam::new(2);
        let mut p = vec![0.0f32; 2];
        adam.step(&mut p, &[1.0], &AdamParams::default());
    }
}
