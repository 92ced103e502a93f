//! Autoregressive generation through the tiered engine: full-window
//! greedy decoding, and KV-cached decoding (greedy or sampled) whose
//! per-block caches are offloaded to the host tier between tokens.

use ratel_storage::Tier;
use ratel_tensor::KvCache;

use super::{fetch_f16, offload_f16, RatelEngine};
use crate::error::RatelError;

/// Index of the largest logit.
fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty vocabulary")
}

/// Picks a token from `logits` with temperature + top-k filtering;
/// greedy when `temperature <= 0` or `top_k <= 1`.
fn sample_from_logits(
    logits: &[f32],
    temperature: f32,
    top_k: usize,
    rng: &mut impl rand::Rng,
) -> usize {
    if temperature <= 0.0 || top_k <= 1 {
        return argmax(logits);
    }
    // Keep the top-k logits, softmax at the given temperature, sample.
    let mut indexed: Vec<(usize, f32)> = logits.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
    indexed.truncate(top_k.min(indexed.len()));
    let max = indexed[0].1;
    let weights: Vec<f32> = indexed
        .iter()
        .map(|(_, v)| ((v - max) / temperature).exp())
        .collect();
    let total: f32 = weights.iter().sum();
    let mut draw = rng.gen::<f32>() * total;
    for ((idx, _), w) in indexed.iter().zip(&weights) {
        draw -= w;
        if draw <= 0.0 {
            return *idx;
        }
    }
    indexed
        .last()
        .map(|(i, _)| *i)
        .unwrap_or_else(|| argmax(logits))
}

impl RatelEngine {
    /// Greedy autoregressive generation through the tiered engine: the
    /// prompt is extended one token at a time, each step streaming every
    /// layer's P16 from the SSD tier exactly like a training forward.
    ///
    /// The model has a fixed context of `seq` tokens; the window holds
    /// the most recent `seq` tokens (causal attention makes trailing
    /// padding harmless for the positions before it). Returns the
    /// `max_new_tokens` generated ids.
    ///
    /// # Panics
    /// If the prompt is empty or contains out-of-vocabulary ids.
    pub fn generate(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
    ) -> Result<Vec<usize>, RatelError> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let c = self.config.model;
        assert!(
            prompt.iter().all(|&t| t < c.vocab),
            "prompt token out of vocabulary"
        );
        let mut context: Vec<usize> = prompt.to_vec();
        let mut out = Vec::with_capacity(max_new_tokens);
        for _ in 0..max_new_tokens {
            // Window of the last `seq` tokens, zero-padded at the tail.
            let start = context.len().saturating_sub(c.seq);
            let window = &context[start..];
            let last_pos = window.len() - 1;
            let mut ids = vec![0usize; c.seq];
            ids[..window.len()].copy_from_slice(window);
            // The model runs at its configured micro-batch; replicate the
            // window and read row 0.
            let batch_ids: Vec<usize> = (0..c.batch).flat_map(|_| ids.iter().copied()).collect();

            self.stage_params(0)?;
            let mut x = self
                .model
                .embedding
                .forward(&batch_ids, c.batch, c.seq)
                .quantize_f16();
            for b in 0..c.layers {
                self.stage_params(b + 1)?;
                let (y, _) = self.model.blocks[b].forward(&x);
                x = y.quantize_f16();
            }
            self.stage_params(c.layers + 1)?;
            let logits = self.model.head.logits(&x);
            let next = argmax(&logits.data()[last_pos * c.vocab..(last_pos + 1) * c.vocab]);
            context.push(next);
            out.push(next);
        }
        Ok(out)
    }

    /// KV-cached greedy generation: like [`RatelEngine::generate`], but
    /// each block keeps a key/value cache that is *offloaded to the host
    /// tier between tokens* and fetched back per layer — the
    /// inference-side analogue of activation swapping, with every byte
    /// metered. The total context (prompt + generated) must fit the
    /// model's `seq` positions.
    ///
    /// # Panics
    /// If the prompt is empty, contains out-of-vocabulary ids, or the
    /// total context would exceed `seq`.
    pub fn generate_cached(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
    ) -> Result<Vec<usize>, RatelError> {
        self.decode_cached(prompt, max_new_tokens, argmax)
    }

    /// Samples a continuation with temperature and top-k filtering
    /// (KV-cached path). `temperature <= 0` or `top_k == 1` degenerate to
    /// greedy decoding; sampling is deterministic in `sample_seed`.
    ///
    /// # Panics
    /// Same conditions as [`RatelEngine::generate_cached`].
    pub fn generate_sampled(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
        temperature: f32,
        top_k: usize,
        sample_seed: u64,
    ) -> Result<Vec<usize>, RatelError> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(sample_seed);
        self.decode_cached(prompt, max_new_tokens, |logits| {
            sample_from_logits(logits, temperature, top_k, &mut rng)
        })
    }

    /// The KV-cached decode loop: one position at a time, `pick` choosing
    /// each new token from the head's logits.
    fn decode_cached(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
        mut pick: impl FnMut(&[f32]) -> usize,
    ) -> Result<Vec<usize>, RatelError> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let c = self.config.model;
        assert!(
            prompt.len() + max_new_tokens <= c.seq,
            "context {} exceeds the model's {} positions",
            prompt.len() + max_new_tokens,
            c.seq
        );
        let d = c.hidden / c.heads;
        let kv_key = |b: usize| format!("block{b}/kv");

        let mut out = Vec::with_capacity(max_new_tokens);
        let mut next_token: Option<usize> = None;
        for pos in 0..prompt.len() + max_new_tokens {
            let token = match next_token {
                Some(t) => t,
                None => prompt[pos],
            };
            self.stage_params(0)?;
            let mut x_t = self.model.embedding.forward_at(token, pos).quantize_f16();
            for b in 0..c.layers {
                self.stage_params(b + 1)?;
                let mut cache = if pos == 0 {
                    KvCache::new(c.heads, d)
                } else {
                    let bytes = fetch_f16(&self.store, &kv_key(b))?;
                    KvCache::from_f16_bytes(&bytes, c.heads, d, pos)
                };
                let y = self.model.blocks[b].forward_cached(&x_t, &mut cache);
                offload_f16(&self.store, &kv_key(b), cache.to_f16_bytes(), Tier::Host)?;
                x_t = y.quantize_f16();
            }
            if pos + 1 >= prompt.len() && out.len() < max_new_tokens {
                self.stage_params(c.layers + 1)?;
                let logits = self.model.head.logits(&x_t);
                let next = pick(logits.data());
                out.push(next);
                next_token = Some(next);
            }
        }
        // Drop the caches so the tiers drain.
        for b in 0..c.layers {
            self.store.remove(&kv_key(b))?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::super::data::random_batch;
    use super::super::EngineConfig;
    use super::*;
    use rand::SeedableRng;
    use ratel_tensor::GptConfig;

    #[test]
    fn greedy_degenerate_cases_pick_the_argmax() {
        let logits = [0.1f32, 2.0, -1.0, 1.9];
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(sample_from_logits(&logits, 0.0, 5, &mut rng), 1);
        assert_eq!(sample_from_logits(&logits, 1.0, 1, &mut rng), 1);
    }

    #[test]
    fn sampling_is_seeded_and_respects_top_k() {
        let logits = [0.0f32, 0.1, 5.0, 4.9, -3.0];
        // top_k = 2 can only ever return 2 or 3.
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pick = sample_from_logits(&logits, 1.0, 2, &mut rng);
            assert!(pick == 2 || pick == 3, "{pick}");
        }
        // Deterministic per seed.
        let mut a = rand::rngs::StdRng::seed_from_u64(7);
        let mut b = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(
            sample_from_logits(&logits, 0.8, 3, &mut a),
            sample_from_logits(&logits, 0.8, 3, &mut b)
        );
    }

    #[test]
    fn low_temperature_concentrates_on_the_mode() {
        let logits = [1.0f32, 1.2, 1.1];
        let mut hits = 0;
        for seed in 0..50u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            if sample_from_logits(&logits, 0.02, 3, &mut rng) == 1 {
                hits += 1;
            }
        }
        assert!(hits >= 48, "{hits}/50");
    }

    #[test]
    fn engine_sampled_generation_runs_and_is_deterministic() {
        let mut engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let c = GptConfig::tiny();
        let (tokens, targets) = random_batch(&c, 1);
        engine.train_step(&tokens, &targets).unwrap();
        let prompt = &tokens[..4];
        let a = engine.generate_sampled(prompt, 5, 0.9, 8, 42).unwrap();
        let b = engine.generate_sampled(prompt, 5, 0.9, 8, 42).unwrap();
        engine.generate_sampled(prompt, 5, 0.9, 8, 43).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| t < c.vocab));
        let greedy_like = engine.generate_sampled(prompt, 5, 0.0, 8, 1).unwrap();
        let cached = engine.generate_cached(prompt, 5).unwrap();
        assert_eq!(greedy_like, cached);
    }
}
