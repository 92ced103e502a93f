//! Autoregressive generation through the tiered engine: full-window
//! greedy decoding, and KV-cached decoding (greedy or sampled) whose
//! per-block caches are offloaded to the host tier between tokens.
//!
//! A call reads parameters it never writes, so it treats the host tier
//! as a budgeted cache of P16: as many layers' as fit are pinned there
//! once, for the duration of the call — copied from the SSD tier, or
//! rounded from a host-resident master with no SSD hop — and every pass
//! stages them from there. See [`pinned_layers`] for the budget.

use std::sync::Arc;

use ratel_sim::{BlobKey, BlobKind};
use ratel_storage::{StorageError, Tier, TieredStore};
use ratel_tensor::{GptConfig, KvCache};

use super::blobs::{fetch_f16, key, offload_f16, publish_p16};
use super::RatelEngine;
use crate::error::RatelError;
use crate::schedule::{LayerBlobs, Placement};

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

/// Bytes of the blocks' KV caches when each holds `positions` tokens:
/// per block and token, `hidden` f16 keys and as many values.
fn kv_bytes(model: &GptConfig, positions: usize) -> u64 {
    (model.layers * 2 * 2 * model.hidden * positions) as u64
}

/// How many layers, in id order, a decode call pins in the host tier:
/// all of them when the pool is unbounded (`host_free == None`),
/// otherwise the longest prefix of `p16_bytes` (each layer's P16 size)
/// that fits in `host_free` beside `kv_reserve` — the call's KV caches
/// at full context — and one transit copy of the largest layer left
/// streaming. Holding to that budget is what keeps a pinned copy from
/// ever pushing a KV offload or a streamed layer out of the pool.
fn pinned_layers(host_free: Option<u64>, p16_bytes: &[u64], kv_reserve: u64) -> usize {
    let Some(free) = host_free else {
        return p16_bytes.len();
    };
    let mut pinned = 0u64;
    for (layer, &bytes) in p16_bytes.iter().enumerate() {
        let transit = p16_bytes[layer + 1..].iter().copied().max().unwrap_or(0);
        if pinned + bytes + transit + kv_reserve > free {
            return layer;
        }
        pinned += bytes;
    }
    p16_bytes.len()
}

/// What one decode call keeps in the store between its store calls —
/// pinned P16 copies and the blocks' KV caches — removed when the call
/// ends, on its error paths too. (A staged copy never outlives
/// `stage_params`: nothing can fail between its `copy_to` and `take`.)
struct DecodeState {
    store: Arc<TieredStore<BlobKey>>,
    layers: usize,
}

impl Drop for DecodeState {
    fn drop(&mut self) {
        // Most of these keys are absent on any one exit (the embedding
        // and the head hold no cache); `NotFound` is the expected answer
        // and nothing here may panic.
        for layer in 0..self.layers + 2 {
            let _ = self.store.remove(&key(BlobKind::P16Pinned, layer));
            let _ = self.store.remove(&key(BlobKind::Kv, layer));
        }
    }
}

impl RatelEngine {
    /// Starts a decode call whose KV caches grow to `context` positions
    /// (0 for the uncached path): pins the P16 of as many layers as
    /// [`pinned_layers`] allows in the host tier — one metered
    /// `SSD -> Main` hop for a layer placed there, one rounding of the
    /// master for a host-resident one — where
    /// [`RatelEngine::stage_params`] finds them for the rest of the
    /// call. The returned guard releases them.
    ///
    /// The copies live only as long as the call: P16 changes on every
    /// step and checkpoint load, so a cache that outlived it would need
    /// an invalidation protocol that a read-only call does not.
    fn begin_decode(&self, context: usize) -> Result<DecodeState, StorageError> {
        let c = self.config.model;
        let state = DecodeState {
            store: Arc::clone(&self.store),
            layers: c.layers,
        };
        let p16_bytes: Vec<u64> = (0..self.layer_count())
            .map(|layer| LayerBlobs::of(&c, layer).p16)
            .collect();
        let host_free = self
            .config
            .host_capacity
            .map(|cap| cap.saturating_sub(self.store.used(Tier::Host)));
        let kv_reserve = kv_bytes(&c, context);
        for layer in 0..pinned_layers(host_free, &p16_bytes, kv_reserve) {
            let pinned = key(BlobKind::P16Pinned, layer);
            match self.plan.placement {
                Placement::HostMaster => publish_p16(&self.store, layer, pinned, Tier::Host)?,
                Placement::Ssd => {
                    (self.store).copy_to(&key(BlobKind::Param16, layer), &pinned, Tier::Host)?
                }
            }
        }
        Ok(state)
    }

    /// Greedy autoregressive generation through the tiered engine: the
    /// prompt is extended one token at a time, each token a full forward
    /// over the window. Parameters reach the GPU arena one layer at a
    /// time as in training, but cross the SSD link at most once per call,
    /// not once per token: the call holds the P16 of every layer the host
    /// budget admits in the host tier (see `pinned_layers`) and streams
    /// only the rest — from the SSDs, or rounded from a resident master —
    /// on each pass.
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
        if max_new_tokens == 0 {
            return Ok(Vec::new());
        }
        let _state = self.begin_decode(0)?;
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
                .scratch
                .embedding
                .forward(&batch_ids, c.batch, c.seq)
                .quantize_f16();
            for b in 0..c.layers {
                self.stage_params(b + 1)?;
                let (y, _) = self.scratch.block.forward(&x);
                x = y.quantize_f16();
            }
            self.stage_params(c.layers + 1)?;
            let logits = self.scratch.head.logits(&x);
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
    /// metered. Each new token costs one pass over the parameters (the
    /// prompt is prefilled layer by layer inside the first), and the
    /// parameters are held in the host tier for the call as far as its
    /// budget admits, beside the caches. The total context (prompt +
    /// generated) must fit the model's `seq` positions.
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

    /// The KV-cached decode loop: one pass over the layers per new
    /// token, `pick` choosing it from the head's logits. A pass runs the
    /// tokens no block has seen yet — the whole prompt in the first, the
    /// previous pick afterwards — through one layer at a time, so each
    /// layer is staged and each cache offloaded once per pass.
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
        if max_new_tokens == 0 {
            return Ok(Vec::new());
        }
        let d = c.hidden / c.heads;
        let _state = self.begin_decode(prompt.len() + max_new_tokens)?;

        let mut out = Vec::with_capacity(max_new_tokens);
        let mut pending: Vec<usize> = prompt.to_vec();
        let mut cached = 0;
        while out.len() < max_new_tokens {
            self.stage_params(0)?;
            let mut xs: Vec<_> = pending
                .iter()
                .enumerate()
                .map(|(i, &token)| {
                    self.scratch
                        .embedding
                        .forward_at(token, cached + i)
                        .quantize_f16()
                })
                .collect();
            for layer in 1..=c.layers {
                self.stage_params(layer)?;
                let kv = key(BlobKind::Kv, layer);
                let mut cache = if cached == 0 {
                    KvCache::new(c.heads, d)
                } else {
                    let bytes = fetch_f16(&self.store, kv)?;
                    KvCache::from_f16_bytes(&bytes, c.heads, d, cached)
                };
                for (i, x_t) in xs.iter_mut().enumerate() {
                    // A position attends to its own K/V in f32 and to
                    // earlier ones as the store returns them, in f16:
                    // round what the previous position of this pass left.
                    if i > 0 {
                        cache.round_to_f16();
                    }
                    *x_t = self
                        .scratch
                        .block
                        .forward_cached(x_t, &mut cache)
                        .quantize_f16();
                }
                offload_f16(&self.store, kv, cache.to_f16_bytes(), Tier::Host)?;
            }
            cached += pending.len();
            self.stage_params(c.layers + 1)?;
            // `pending` is never empty, so neither is `xs`.
            let next = pick(self.scratch.head.logits(&xs[xs.len() - 1]).data());
            out.push(next);
            pending = vec![next];
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

#[cfg(test)]
mod decode_tests {
    use super::super::EngineConfig;
    use super::*;
    use rand::SeedableRng;
    use ratel_storage::fault::{FaultKind, FaultOp, FaultPlan};
    use ratel_storage::Route;

    /// The decode loop this module replaced, kept verbatim as the
    /// arithmetic reference: position-major, every layer staged for
    /// every position, each block's cache through the store between
    /// positions, and a trailing pass whose output nothing reads.
    fn reference_decode(
        engine: &mut RatelEngine,
        prompt: &[usize],
        max_new_tokens: usize,
        mut pick: impl FnMut(&[f32]) -> usize,
    ) -> Vec<usize> {
        let c = engine.config.model;
        let d = c.hidden / c.heads;
        let kv_key = |b: usize| key(BlobKind::Kv, b + 1);

        let mut out = Vec::with_capacity(max_new_tokens);
        let mut next_token: Option<usize> = None;
        for pos in 0..prompt.len() + max_new_tokens {
            let token = match next_token {
                Some(t) => t,
                None => prompt[pos],
            };
            engine.stage_params(0).unwrap();
            let mut x_t = engine
                .scratch
                .embedding
                .forward_at(token, pos)
                .quantize_f16();
            for b in 0..c.layers {
                engine.stage_params(b + 1).unwrap();
                let mut cache = if pos == 0 {
                    KvCache::new(c.heads, d)
                } else {
                    let bytes = fetch_f16(&engine.store, kv_key(b)).unwrap();
                    KvCache::from_f16_bytes(&bytes, c.heads, d, pos)
                };
                let y = engine.scratch.block.forward_cached(&x_t, &mut cache);
                offload_f16(&engine.store, kv_key(b), cache.to_f16_bytes(), Tier::Host).unwrap();
                x_t = y.quantize_f16();
            }
            if pos + 1 >= prompt.len() && out.len() < max_new_tokens {
                engine.stage_params(c.layers + 1).unwrap();
                let logits = engine.scratch.head.logits(&x_t);
                let next = pick(logits.data());
                out.push(next);
                next_token = Some(next);
            }
        }
        for b in 0..c.layers {
            engine.store.remove(&kv_key(b)).unwrap();
        }
        out
    }

    const SHAPES: [GptConfig; 3] = [
        GptConfig {
            vocab: 64,
            seq: 16,
            hidden: 32,
            heads: 4,
            layers: 3,
            batch: 2,
        },
        GptConfig {
            vocab: 96,
            seq: 12,
            hidden: 48,
            heads: 2,
            layers: 2,
            batch: 1,
        },
        GptConfig {
            vocab: 40,
            seq: 10,
            hidden: 16,
            heads: 4,
            layers: 5,
            batch: 1,
        },
    ];
    /// `(prompt length, new tokens)`.
    const CALLS: [(usize, usize); 4] = [(1, 6), (5, 1), (4, 0), (3, 7)];

    /// An engine over `model`: every master host-resident when
    /// `host_capacity` is `None`, the paper's placement under a capacity.
    fn engine(model: GptConfig, host_capacity: Option<u64>) -> RatelEngine {
        let mut config = EngineConfig::tiny();
        config.model = model;
        config.act_decisions = vec![super::super::ActDecision::SwapToHost; model.layers];
        config.seed = 5 + model.hidden as u64;
        config.host_capacity = host_capacity;
        let engine = RatelEngine::new(config).unwrap();
        engine.store.set_spill_on_host_pressure(true);
        engine
    }

    /// A host pool that bounds nothing a call holds, yet is one: the
    /// paper's placement with room to pin every layer.
    const ROOMY: Option<u64> = Some(1 << 30);

    fn p16_bytes(model: &GptConfig) -> Vec<u64> {
        (0..model.layers + 2)
            .map(|layer| LayerBlobs::of(model, layer).p16)
            .collect()
    }

    fn prompt_of(model: &GptConfig, len: usize) -> Vec<usize> {
        (0..len).map(|i| (7 * i + 3) % model.vocab).collect()
    }

    /// The host capacity at which a `(p, n)` cached call pins exactly
    /// `pinned` layers: those, the call's caches, one transit copy.
    fn capacity_pinning(model: &GptConfig, pinned: usize, p: usize, n: usize) -> u64 {
        let bytes = p16_bytes(model);
        let kv_reserve = kv_bytes(model, p + n);
        let cap = bytes[..pinned].iter().sum::<u64>()
            + bytes[pinned..].iter().copied().max().unwrap_or(0)
            + kv_reserve;
        assert_eq!(pinned_layers(Some(cap), &bytes, kv_reserve), pinned);
        cap
    }

    /// The capacity cases of a `(p, n)` call: `(host capacity, layers it
    /// pins)` — every master resident and everything pinned (the
    /// uncapped default), then the paper's placement pinning everything,
    /// half the layers, nothing.
    fn capacity_cases(model: &GptConfig, p: usize, n: usize) -> [(Option<u64>, usize); 4] {
        let layers = model.layers + 2;
        [
            (None, layers),
            (ROOMY, layers),
            (Some(capacity_pinning(model, layers / 2, p, n)), layers / 2),
            (Some(capacity_pinning(model, 0, p, n)), 0),
        ]
    }

    /// Bytes a cached `(p, n)` call moves per route, in `Route::ALL`'s
    /// terms: every layer crosses `Main -> GPU` once per new token; under
    /// a host capacity — P16 at rest on the SSD tier — the pinned ones
    /// cross `SSD -> Main` once, the rest once per token (a host-resident
    /// master never does); each block's cache is offloaded after every
    /// pass and fetched before every pass but the first; nothing is
    /// written to the SSDs.
    fn expected_traffic(
        model: &GptConfig,
        (host_capacity, pinned): (Option<u64>, usize),
        p: usize,
        n: usize,
    ) -> [(Route, u64); 4] {
        let bytes = p16_bytes(model);
        let n64 = n as u64;
        let kv = |positions: std::ops::Range<usize>| -> u64 {
            positions.map(|t| kv_bytes(model, t)).sum()
        };
        let (s2h, h2g, g2h) = if n == 0 {
            (0, 0, 0)
        } else {
            let streamed =
                bytes[..pinned].iter().sum::<u64>() + n64 * bytes[pinned..].iter().sum::<u64>();
            (
                host_capacity.map_or(0, |_| streamed),
                n64 * bytes.iter().sum::<u64>() + kv(p..p + n - 1),
                kv(p..p + n),
            )
        };
        [
            (Route::SsdToHost, s2h),
            (Route::HostToGpu, h2g),
            (Route::GpuToHost, g2h),
            (Route::HostToSsd, 0),
        ]
    }

    /// At rest the host tier holds the resident masters and nothing
    /// else, the arena nothing.
    fn assert_drained(engine: &RatelEngine, what: &str) {
        let resident = engine.host_state_bytes();
        assert_eq!(engine.store.used(Tier::Host), resident, "{what}: host tier");
        assert_eq!(engine.store.used(Tier::Gpu), 0, "{what}: gpu tier");
    }

    #[test]
    fn the_pin_budget_is_a_prefix_that_leaves_room_for_caches_and_transit() {
        let bytes = [40u64, 10, 10, 30];
        // Unbounded pool: everything.
        assert_eq!(pinned_layers(None, &bytes, 1 << 40), 4);
        // All four beside the caches, exactly; nothing streams, so no
        // transit copy is reserved.
        assert_eq!(pinned_layers(Some(90 + 7), &bytes, 7), 4);
        // One byte short: the last layer streams, and its transit copy
        // takes the room its pin would have — pinning the last layer
        // never costs more than streaming it — so layer 2 goes as well.
        assert_eq!(pinned_layers(Some(90 + 7 - 1), &bytes, 7), 2);
        // Layers 0..2 need 50 + a 30 B transit; layers 0..1 need 40 + 30.
        assert_eq!(pinned_layers(Some(80), &bytes, 0), 2);
        assert_eq!(pinned_layers(Some(79), &bytes, 0), 1);
        assert_eq!(pinned_layers(Some(70), &bytes, 0), 1);
        // Nothing fits: layer 0 and the largest other layer's transit
        // exceed the pool; so does streaming alone — pin nothing and let
        // the store report what the call cannot hold.
        assert_eq!(pinned_layers(Some(69), &bytes, 0), 0);
        assert_eq!(pinned_layers(Some(10), &bytes, 0), 0);
        assert_eq!(pinned_layers(Some(0), &bytes, 0), 0);
        assert_eq!(pinned_layers(Some(1000), &bytes, 1000), 0);
        // The caller passes what is *free*: a pool already partly used
        // pins less.
        let free = |capacity: u64, used: u64| Some(capacity.saturating_sub(used));
        assert_eq!(pinned_layers(free(97, 0), &bytes, 7), 4);
        assert_eq!(pinned_layers(free(97, 10), &bytes, 7), 2);
        assert_eq!(pinned_layers(free(97, 200), &bytes, 7), 0);
        assert_eq!(pinned_layers(Some(5), &[], 0), 0);
    }

    #[test]
    fn a_host_pool_already_in_use_shrinks_the_pin_set() {
        let model = SHAPES[0];
        let (p, n) = (3, 4);
        let layers = model.layers + 2;
        let cap = capacity_pinning(&model, layers, p, n);
        let mut e = engine(model, Some(cap));
        let prompt = prompt_of(&model, p);
        let before = e.store.traffic();
        let tokens = e.generate_cached(&prompt, n).unwrap();
        let s2h = |pinned| expected_traffic(&model, (Some(cap), pinned), p, n)[0].1;
        assert_eq!(
            e.store.traffic().since(&before).bytes(Route::SsdToHost),
            s2h(layers)
        );
        // Someone else holds one byte of the pool: fewer layers fit, the
        // rest stream, and nothing spills.
        let squatter = key(BlobKind::Grad, 0);
        e.store.put(&squatter, Tier::Host, vec![0u8]).unwrap();
        let pinned = pinned_layers(Some(cap - 1), &p16_bytes(&model), kv_bytes(&model, p + n));
        assert!(pinned < layers);
        let before = e.store.traffic();
        assert_eq!(e.generate_cached(&prompt, n).unwrap(), tokens);
        assert_eq!(
            e.store.traffic().since(&before).bytes(Route::SsdToHost),
            s2h(pinned)
        );
        assert_eq!(e.store.telemetry().fault_stats().host_spills, 0);
        assert_eq!(e.store.used(Tier::Host), 1);
    }

    #[test]
    fn cached_and_sampled_decoding_match_the_position_major_reference() {
        for model in SHAPES {
            let mut reference = engine(model, None);
            for (p, n) in CALLS {
                let prompt = prompt_of(&model, p);
                // Tokens can survive a rounding slip; the logits behind
                // them, compared bit for bit, cannot.
                let mut logits_seen: Vec<Vec<u32>> = Vec::new();
                let greedy = reference_decode(&mut reference, &prompt, n, |logits| {
                    logits_seen.push(logits.iter().map(|v| v.to_bits()).collect());
                    argmax(logits)
                });
                assert_eq!(greedy.len(), n);
                let samplings = [
                    (0.7f32, 5usize, 1u64),
                    (0.7, 5, 2),
                    (1.3, 8, 1),
                    (1.3, 8, 2),
                ];
                let sampled: Vec<Vec<usize>> = samplings
                    .iter()
                    .map(|&(temperature, top_k, seed)| {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                        reference_decode(&mut reference, &prompt, n, |logits| {
                            sample_from_logits(logits, temperature, top_k, &mut rng)
                        })
                    })
                    .collect();
                for case in capacity_cases(&model, p, n) {
                    let what = format!("{model:?} P={p} N={n} {case:?}");
                    let mut e = engine(model, case.0);
                    assert_eq!(e.generate_cached(&prompt, n).unwrap(), greedy, "{what}");
                    assert_drained(&e, &what);
                    let mut logits_got: Vec<Vec<u32>> = Vec::new();
                    e.decode_cached(&prompt, n, |logits| {
                        logits_got.push(logits.iter().map(|v| v.to_bits()).collect());
                        argmax(logits)
                    })
                    .unwrap();
                    assert!(logits_got == logits_seen, "{what}: logits differ");
                    for (&(temperature, top_k, seed), expected) in samplings.iter().zip(&sampled) {
                        let got = e
                            .generate_sampled(&prompt, n, temperature, top_k, seed)
                            .unwrap();
                        assert_eq!(&got, expected, "{what} T={temperature} seed={seed}");
                        assert_drained(&e, &what);
                    }
                    assert_eq!(e.store.telemetry().fault_stats().host_spills, 0);
                }
            }
        }
    }

    #[test]
    fn a_call_moves_exactly_the_bytes_its_closed_form_says() {
        // The benchmark's `ckpt-gen` call (6 blocks, hidden 96, 8 + 24
        // tokens) offloads 6 * 384 * (8 + ... + 31) bytes of KV cache.
        let ckpt_gen = GptConfig {
            vocab: 512,
            seq: 64,
            hidden: 96,
            heads: 4,
            layers: 6,
            batch: 2,
        };
        let uncapped = capacity_cases(&ckpt_gen, 8, 24)[0];
        assert_eq!(expected_traffic(&ckpt_gen, uncapped, 8, 24)[2].1, 1_078_272);

        for model in SHAPES {
            for (p, n) in CALLS {
                for case in capacity_cases(&model, p, n) {
                    let what = format!("{model:?} P={p} N={n} {case:?}");
                    let mut e = engine(model, case.0);
                    let before = e.store.traffic();
                    e.generate_cached(&prompt_of(&model, p), n).unwrap();
                    let moved = e.store.traffic().since(&before);
                    for (route, bytes) in expected_traffic(&model, case, p, n) {
                        assert_eq!(moved.bytes(route), bytes, "{what}: {route:?}");
                    }
                    assert_eq!(e.store.telemetry().fault_stats().host_spills, 0);
                    if let Some(cap) = case.0 {
                        assert!(e.store.peak_used(Tier::Host) <= cap, "{what}");
                    }
                    assert_drained(&e, &what);
                }
            }
        }
    }

    #[test]
    fn uncached_generation_pins_too_and_reads_each_byte_once() {
        let model = SHAPES[0];
        let all: u64 = p16_bytes(&model).iter().sum();
        let prompt = prompt_of(&model, 4);
        // The paper's placement, room to pin: one SSD read of each layer.
        let mut roomy = engine(model, ROOMY);
        let before = roomy.store.traffic();
        let tokens = roomy.generate(&prompt, 5).unwrap();
        let moved = roomy.store.traffic().since(&before);
        assert_eq!(moved.bytes(Route::SsdToHost), all);
        assert_eq!(moved.bytes(Route::HostToGpu), 5 * all);
        assert_drained(&roomy, "roomy");
        // Every master resident: the same tokens and no SSD read at all.
        let mut resident = engine(model, None);
        let before = resident.store.traffic();
        assert_eq!(resident.generate(&prompt, 5).unwrap(), tokens);
        let moved = resident.store.traffic().since(&before);
        assert_eq!(moved.bytes(Route::SsdToHost), 0);
        assert_eq!(moved.bytes(Route::HostToGpu), 5 * all);
        assert_drained(&resident, "resident");
        // No room to pin: the same tokens, every pass from the SSDs.
        let floor = *p16_bytes(&model).iter().max().unwrap();
        let mut streaming = engine(model, Some(floor));
        let before = streaming.store.traffic();
        assert_eq!(streaming.generate(&prompt, 5).unwrap(), tokens);
        let moved = streaming.store.traffic().since(&before);
        assert_eq!(moved.bytes(Route::SsdToHost), 5 * all);
        assert_eq!(moved.bytes(Route::HostToSsd), 0);
        assert_drained(&streaming, "streaming");
    }

    #[test]
    fn a_failed_call_leaves_nothing_behind_and_the_next_call_is_unaffected() {
        let model = SHAPES[0];
        let (p, n) = (4, 6);
        let prompt = prompt_of(&model, p);
        let expected = engine(model, None).generate_cached(&prompt, n).unwrap();
        let reads_per_pass = model.layers as u64 + 2;
        // Room to pin: the read that gives up is the third pin, with two
        // pins already in the host tier. Streaming: a block's read in
        // the fourth pass, with every block's cache in the host tier.
        let cases = [
            (ROOMY, 2),
            (
                Some(capacity_pinning(&model, 0, p, n)),
                3 * reads_per_pass + 2,
            ),
        ];
        for (host_capacity, at_op) in cases {
            let mut e = engine(model, host_capacity);
            let retries = e.store.retry_policy().max_retries as u64;
            let plan = FaultPlan::new();
            for attempt in 0..=retries {
                plan.fault_at_op(at_op + attempt, FaultOp::Read, FaultKind::Transient);
            }
            e.store.set_fault_plan(Some(Arc::new(plan)));
            let err = e.generate_cached(&prompt, n).unwrap_err();
            assert!(
                matches!(
                    err,
                    RatelError::Storage(StorageError::Faulted {
                        op: FaultOp::Read,
                        ..
                    })
                ),
                "{err}"
            );
            assert_eq!(e.store.telemetry().fault_stats().give_ups, 1);
            assert_drained(&e, "after the failed call");
            assert_eq!(e.generate_cached(&prompt, n).unwrap(), expected);
            assert_drained(&e, "after the next call");
        }
    }
}
