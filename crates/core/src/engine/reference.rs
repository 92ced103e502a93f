//! The in-memory reference trainer.
//!
//! Trains the same model with the same mixed-precision convention as the
//! out-of-core engine, but with everything resident in memory and the
//! optimizer running inline. The engine must match it bit-for-bit — that
//! equality is the executable form of the paper's claim that active
//! gradient offloading "keeps synchronous model updating" (§IV-C).

use ratel_tensor::dtype::round_to_f16;
use ratel_tensor::{Adam, AdamParams, GptConfig, GptModel, KvCache, ParamLayer};

use super::lr::LrSchedule;
use super::scaler::{prepare_gradient, LossScaler, ScalePolicy};

/// An in-memory mixed-precision trainer over the same tiny GPT.
pub struct ReferenceTrainer {
    /// Model skeleton holding the current P16 (f16-rounded) weights.
    pub model: GptModel,
    /// f32 master parameters per layer (embedding, blocks..., head).
    masters: Vec<Vec<f32>>,
    /// Adam moments per layer.
    adams: Vec<Adam>,
    hp: AdamParams,
    scaler: LossScaler,
    grad_clip: Option<f32>,
    lr_schedule: LrSchedule,
    wall_step: u64,
    dropout: Option<f32>,
    base_seed: u64,
    frozen: Vec<usize>,
}

impl ReferenceTrainer {
    /// Builds the trainer with the same `(config, seed)` as the engine
    /// and no loss scaling or clipping.
    pub fn new(config: GptConfig, seed: u64, hp: AdamParams) -> Self {
        Self::with_policy(config, seed, hp, ScalePolicy::None, None)
    }

    /// Builds the trainer with an explicit mixed-precision policy,
    /// matching an engine configured the same way.
    pub fn with_policy(
        config: GptConfig,
        seed: u64,
        hp: AdamParams,
        policy: ScalePolicy,
        grad_clip: Option<f32>,
    ) -> Self {
        let mut model = GptModel::new(config, seed);
        let mut masters = Vec::with_capacity(config.layers + 2);
        masters.push(model.embedding.params_flat());
        for b in &model.blocks {
            masters.push(b.params_flat());
        }
        masters.push(model.head.params_flat());
        let adams = masters.iter().map(|m| Adam::new(m.len())).collect();
        // The model computes with the f16 copy of the master, like the
        // engine's P16 blobs.
        let quantized: Vec<Vec<f32>> = masters
            .iter()
            .map(|m| m.iter().map(|&v| round_to_f16(v)).collect())
            .collect();
        Self::load(&mut model, &quantized);
        ReferenceTrainer {
            model,
            masters,
            adams,
            hp,
            scaler: LossScaler::new(policy),
            grad_clip,
            lr_schedule: LrSchedule::Constant,
            wall_step: 0,
            dropout: None,
            base_seed: seed,
            frozen: Vec::new(),
        }
    }

    /// Freezes the given layers (matching an engine's `frozen_layers`).
    pub fn with_frozen_layers(mut self, frozen: Vec<usize>) -> Self {
        self.frozen = frozen;
        self
    }

    /// Enables residual dropout with probability `p` (matching an engine
    /// configured with the same `dropout`).
    pub fn with_dropout(mut self, p: f32) -> Self {
        self.dropout = Some(p);
        self
    }

    /// Sets the learning-rate schedule (builder style).
    pub fn with_lr_schedule(mut self, schedule: LrSchedule) -> Self {
        self.lr_schedule = schedule;
        self
    }

    fn load(model: &mut GptModel, params: &[Vec<f32>]) {
        model.embedding.set_params_flat(&params[0]);
        let l = model.config.layers;
        for (i, b) in model.blocks.iter_mut().enumerate() {
            b.set_params_flat(&params[i + 1]);
        }
        model.head.set_params_flat(&params[l + 1]);
    }

    /// One training step: quantized-activation forward/backward, G16
    /// gradient rounding, f32 Adam on the masters, fresh P16 publish.
    /// Returns the loss.
    pub fn train_step(&mut self, tokens: &[usize], targets: &[usize]) -> f32 {
        let scale = self.scaler.current();
        let mut hp = self.hp;
        hp.lr *= self.lr_schedule.factor(self.wall_step);
        self.wall_step += 1;
        let dropout = self.dropout.map(|p| {
            (
                p,
                self.base_seed ^ self.wall_step.wrapping_mul(0x517C_C1B7_2722_0A95),
            )
        });
        let (loss, grads) = self
            .model
            .train_step_reference_opts(tokens, targets, true, scale, dropout);
        let mut overflowed = false;
        for (i, g) in grads.iter().enumerate() {
            if self.frozen.contains(&i) {
                continue;
            }
            // Gradients move as G16 in the engine; round identically,
            // then unscale/check/clip exactly as the optimizer thread does.
            let mut g16: Vec<f32> = g.iter().map(|&v| round_to_f16(v)).collect();
            if prepare_gradient(&mut g16, scale, self.grad_clip).is_some() {
                self.adams[i].step(&mut self.masters[i], &g16, &hp);
            } else {
                overflowed = true;
            }
        }
        self.scaler.update(overflowed);
        let quantized: Vec<Vec<f32>> = self
            .masters
            .iter()
            .map(|m| m.iter().map(|&v| round_to_f16(v)).collect())
            .collect();
        Self::load(&mut self.model, &quantized);
        loss
    }

    /// The gradient-accumulation counterpart of
    /// [`crate::engine::RatelEngine::train_step_accumulated`]: per layer,
    /// the applied gradient is `f16( mean_i( f16(g_i) ) )`. Returns the
    /// mean micro-batch loss.
    pub fn train_step_accumulated(&mut self, micro_batches: &[(Vec<usize>, Vec<usize>)]) -> f32 {
        assert!(!micro_batches.is_empty(), "need at least one micro-batch");
        let scale = self.scaler.current();
        let mut hp = self.hp;
        hp.lr *= self.lr_schedule.factor(self.wall_step);
        self.wall_step += 1;
        let n = micro_batches.len();
        let inv_n = 1.0 / n as f32;

        let mut loss_sum = 0.0f32;
        let mut accum: Vec<Vec<f32>> = Vec::new();
        for (tokens, targets) in micro_batches {
            let (loss, grads) = self
                .model
                .train_step_reference_scaled(tokens, targets, true, scale);
            loss_sum += loss;
            if accum.is_empty() {
                accum = grads
                    .iter()
                    .map(|g| g.iter().map(|&v| round_to_f16(v)).collect())
                    .collect();
            } else {
                for (a, g) in accum.iter_mut().zip(&grads) {
                    for (av, &gv) in a.iter_mut().zip(g) {
                        *av += round_to_f16(gv);
                    }
                }
            }
        }

        let mut overflowed = false;
        for (i, acc) in accum.iter().enumerate() {
            if self.frozen.contains(&i) {
                continue;
            }
            let mut g16: Vec<f32> = acc.iter().map(|&v| round_to_f16(v * inv_n)).collect();
            if prepare_gradient(&mut g16, scale, self.grad_clip).is_some() {
                self.adams[i].step(&mut self.masters[i], &g16, &hp);
            } else {
                overflowed = true;
            }
        }
        self.scaler.update(overflowed);
        let quantized: Vec<Vec<f32>> = self
            .masters
            .iter()
            .map(|m| m.iter().map(|&v| round_to_f16(v)).collect())
            .collect();
        Self::load(&mut self.model, &quantized);
        loss_sum * inv_n
    }

    /// Loss on a batch without updating.
    pub fn eval_loss(&self, tokens: &[usize], targets: &[usize]) -> f32 {
        let (loss, _) = self.model.train_step_reference(tokens, targets, true);
        loss
    }

    /// The decode oracle, position-major: every position runs through
    /// every layer in turn, each block's KV cache crossing to f16 bytes
    /// and back between positions — the round trip through a host tier —
    /// and a trailing pass runs whose output nothing reads. `pick`
    /// chooses each of the `max_new_tokens` tokens from the head's
    /// logits of the position before it.
    pub fn decode(
        &self,
        prompt: &[usize],
        max_new_tokens: usize,
        mut pick: impl FnMut(&[f32]) -> usize,
    ) -> Vec<usize> {
        let c = self.model.config;
        let d = c.hidden / c.heads;
        let mut caches: Vec<Vec<u8>> = vec![Vec::new(); c.layers];
        let mut out = Vec::with_capacity(max_new_tokens);
        let mut next_token: Option<usize> = None;
        for pos in 0..prompt.len() + max_new_tokens {
            let token = match next_token {
                Some(t) => t,
                None => prompt[pos],
            };
            let mut x_t = self.model.embedding.forward_at(token, pos).quantize_f16();
            for (b, block) in self.model.blocks.iter().enumerate() {
                let mut cache = if pos == 0 {
                    KvCache::new(c.heads, d)
                } else {
                    KvCache::from_f16_bytes(&caches[b], c.heads, d, pos)
                };
                let y = block.forward_cached(&x_t, &mut cache);
                caches[b] = cache.to_f16_bytes();
                x_t = y.quantize_f16();
            }
            if pos + 1 >= prompt.len() && out.len() < max_new_tokens {
                let logits = self.model.head.logits(&x_t);
                let next = pick(logits.data());
                out.push(next);
                next_token = Some(next);
            }
        }
        out
    }

    /// The f32 master parameters of `layer`.
    pub fn master_params(&self, layer: usize) -> &[f32] {
        &self.masters[layer]
    }

    /// The f16-rounded compute parameters of `layer`.
    pub fn p16_params(&self, layer: usize) -> Vec<f32> {
        self.masters[layer]
            .iter()
            .map(|&v| round_to_f16(v))
            .collect()
    }
}
