//! Autoregressive generation through the tiered engine: full-window
//! greedy decoding, and KV-cached decoding (greedy or sampled) whose
//! per-block caches are offloaded to the host tier between tokens.
//!
//! A call runs decode DAGs ([`crate::schedule::Decode`]) on the
//! executor in turn, each over up to eight passes and lowered once per
//! shape. Per new token a DAG runs a pass of `fetch L -> fwd L` over the
//! layers — each block's cache brought up before its kernel and
//! offloaded after it, when cached — ending in the `pick` of the token
//! the next pass embeds. The call reads parameters it never writes, so
//! it pins the P16 of as many layers as the residency pass admits in the
//! host bytes it finds free, for the whole call, and streams the rest
//! each pass.

use std::sync::Arc;

use ratel_storage::Tier;

use super::dag_step::Pick;
use super::RatelEngine;
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
/// greedy when `temperature <= 0` or `top_k <= 1` — the rule
/// [`RatelEngine::generate_sampled`] picks each token by.
pub fn sample_from_logits(
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
    /// prompt is extended one token at a time, each token a full forward
    /// over the window. Parameters reach the GPU arena one layer at a
    /// time as in training, but cross the SSD link at most once per call
    /// for every layer the call pins in host memory; only the rest
    /// stream — from the SSDs, or rounded from a resident master — on
    /// each pass.
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
        self.decode(prompt, max_new_tokens, false, &mut argmax)
    }

    /// KV-cached greedy generation: like [`RatelEngine::generate`], but
    /// each block keeps a key/value cache that is *offloaded to the host
    /// tier between tokens* and fetched back per layer — the
    /// inference-side analogue of activation swapping, with every byte
    /// metered. Each new token costs one pass over the parameters (the
    /// prompt is prefilled layer by layer inside the first). The total
    /// context (prompt + generated) must fit the model's `seq` positions.
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

    /// A KV-cached decode call, `pick` choosing each token from the
    /// head's logits.
    fn decode_cached(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
        mut pick: impl FnMut(&[f32]) -> usize + Send,
    ) -> Result<Vec<usize>, RatelError> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let c = self.config.model;
        assert!(
            prompt.len() + max_new_tokens <= c.seq,
            "context {} exceeds the model's {} positions",
            prompt.len() + max_new_tokens,
            c.seq
        );
        self.decode(prompt, max_new_tokens, true, &mut pick)
    }

    /// Runs the decode call of `new_tokens` after `prompt`: each of its
    /// runs' DAGs once, in turn, with the pins the host bytes free now
    /// admit. A call that fails leaves the tiers as they were.
    fn decode(
        &mut self,
        prompt: &[usize],
        new_tokens: usize,
        cached: bool,
        pick: Pick<'_>,
    ) -> Result<Vec<usize>, RatelError> {
        self.last_findings.clear();
        let used = self.store.used(Tier::Host);
        let free = (self.config.host_capacity).map(|cap| cap.saturating_sub(used));
        let pinned = (self.plan).decode_pins(prompt.len(), new_tokens, cached, free)?;
        let mut tokens = prompt.to_vec();
        let plan = Arc::clone(&self.plan);
        for run in plan.decode_runs(prompt.len(), new_tokens, cached, pinned) {
            // A later run lowers as the first did; should it not, the
            // first run's pins go.
            let dag = plan.decode(run).inspect_err(|_| {
                plan.step.release_failed_run(&self.store);
            })?;
            tokens = self.run_forward(&dag, &[], Some((tokens, &mut *pick)))?.1;
        }
        Ok(tokens.split_off(prompt.len()))
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
    use std::sync::Arc;

    use super::super::dag_step::StepDag;
    use super::super::reference::ReferenceTrainer;
    use super::super::{ActDecision, EngineConfig};
    use super::*;
    use crate::schedule::{LayerBlobs, Pass};
    use rand::SeedableRng;
    use ratel_sim::{BlobKey, BlobKind, MemTier};
    use ratel_storage::fault::{FaultKind, FaultOp, FaultPlan};
    use ratel_storage::{Route, StorageError, Tier};
    use ratel_tensor::GptConfig;

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
    /// `(prompt length, new tokens)`; the last runs as two DAGs.
    const CALLS: [(usize, usize); 5] = [(1, 6), (5, 1), (4, 0), (3, 7), (1, 9)];

    /// The configuration of an engine over `model`: every master
    /// host-resident when `host_capacity` is `None`, the paper's
    /// placement under a capacity.
    fn config(model: GptConfig, host_capacity: Option<u64>) -> EngineConfig {
        EngineConfig {
            model,
            act_decisions: vec![ActDecision::SwapToHost; model.layers],
            seed: 5 + model.hidden as u64,
            host_capacity,
            ..EngineConfig::tiny()
        }
    }

    fn engine(model: GptConfig, host_capacity: Option<u64>) -> RatelEngine {
        RatelEngine::new(config(model, host_capacity)).unwrap()
    }

    /// The in-memory trainer whose parameters [`engine`]'s start from.
    fn reference(model: GptConfig) -> ReferenceTrainer {
        let config = config(model, None);
        ReferenceTrainer::new(model, config.seed, config.adam)
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

    /// The DAGs a call of the shape would run on `engine` now: its runs',
    /// pinning what the host bytes free now admit.
    fn runs(engine: &RatelEngine, p: usize, n: usize, cached: bool) -> Vec<Arc<StepDag>> {
        let used = engine.store.used(Tier::Host);
        let free = (engine.config.host_capacity).map(|cap| cap - used);
        let plan = &engine.plan;
        let pinned = plan.decode_pins(p, n, cached, free).unwrap();
        (plan.decode_runs(p, n, cached, pinned))
            .map(|run| plan.decode(run).unwrap())
            .collect()
    }

    /// The host bytes a call's runs may hold at once.
    fn host_peak(runs: &[Arc<StepDag>]) -> f64 {
        let peaks = runs.iter().map(|dag| dag.report.peak(MemTier::Host).total);
        peaks.fold(0.0, f64::max)
    }

    /// What a call's runs move, per route.
    fn planned(runs: &[Arc<StepDag>]) -> [u64; 4] {
        let mut bytes = [0; 4];
        for dag in runs {
            let run = dag.spec.planned_route_bytes();
            (0..4).for_each(|route| bytes[route] += run[route]);
        }
        bytes
    }

    /// The layers a call of the shape pins.
    fn pinned(engine: &RatelEngine, p: usize, n: usize, cached: bool) -> usize {
        match runs(engine, p, n, cached)[0].spec.pass {
            Pass::Decode(d) => d.pinned,
            pass => panic!("{pass:?} is no decode"),
        }
    }

    /// The host capacities a cached `(p, n)` call runs under: none (every
    /// master resident, everything pinned), then the paper's placement —
    /// roomy, exactly what pinning everything needs, and the smallest
    /// pool whose plan the residency pass admits.
    fn capacity_cases(model: GptConfig, p: usize, n: usize) -> [Option<u64>; 4] {
        let all = host_peak(&runs(&engine(model, ROOMY), p, n, true)).ceil() as u64;
        let admits = |cap: u64| {
            let e = engine(model, Some(cap));
            host_peak(&runs(&e, p, n, true)) <= cap as f64
        };
        let (mut lo, mut hi) = (0, all);
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if admits(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        [None, ROOMY, Some(all), Some(hi)]
    }

    /// KV-cache bytes of the blocks when each holds `positions` tokens:
    /// per block and token, `hidden` f16 keys and as many values.
    fn kv_bytes(model: &GptConfig, positions: usize) -> u64 {
        (model.layers * 2 * 2 * model.hidden * positions) as u64
    }

    /// Bytes a cached `(p, n)` call that pins every layer moves, in
    /// `Route::ALL`'s order: every layer crosses `Main -> GPU` once per
    /// new token and, under a host capacity — P16 at rest on the SSD tier
    /// — `SSD -> Main` once (a host-resident master never does); each
    /// block's cache is offloaded after every pass and fetched before
    /// every pass but the first; nothing is written to the SSDs.
    fn pinning_all(model: &GptConfig, host_capacity: Option<u64>, p: usize, n: usize) -> [u64; 4] {
        let all: u64 = p16_bytes(model).iter().sum();
        let kv = |positions: std::ops::Range<usize>| -> u64 {
            positions.map(|t| kv_bytes(model, t)).sum()
        };
        let (g2h, h2g) = (kv(p..p + n), n as u64 * all + kv(p..p + n - 1));
        [g2h, h2g, 0, host_capacity.map_or(0, |_| all)]
    }

    /// At rest the host tier holds the resident masters and nothing
    /// else, the arena nothing.
    fn assert_drained(engine: &RatelEngine, what: &str) {
        let resident = engine.host_state_bytes();
        assert_eq!(engine.store.used(Tier::Host), resident, "{what}: host tier");
        assert_eq!(engine.store.used(Tier::Gpu), 0, "{what}: gpu tier");
    }

    fn moved(engine: &RatelEngine, before: &ratel_storage::TrafficSnapshot) -> [u64; 4] {
        Route::ALL.map(|route| engine.store.traffic().since(before).bytes(route))
    }

    #[test]
    fn a_call_fits_its_plan_and_matches_the_position_major_oracle() {
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
        assert_eq!(pinning_all(&ckpt_gen, None, 8, 24)[0], 1_078_272);

        for model in SHAPES {
            let oracle = reference(model);
            let layers = model.layers + 2;
            for (p, n) in CALLS.into_iter().filter(|&(_, n)| n > 0) {
                let prompt = prompt_of(&model, p);
                // Tokens can survive a rounding slip; the logits behind
                // them, compared bit for bit, cannot.
                let mut logits_seen: Vec<Vec<u32>> = Vec::new();
                let greedy = oracle.decode(&prompt, n, |logits| {
                    logits_seen.push(logits.iter().map(|v| v.to_bits()).collect());
                    argmax(logits)
                });
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
                        oracle.decode(&prompt, n, |logits| {
                            sample_from_logits(logits, temperature, top_k, &mut rng)
                        })
                    })
                    .collect();
                let cases = capacity_cases(model, p, n);
                let [_, _, all, least] = cases;
                for host_capacity in cases {
                    let what = format!("{model:?} P={p} N={n} host {host_capacity:?}");
                    let mut e = engine(model, host_capacity);
                    let dags = runs(&e, p, n, true);
                    assert_eq!(dags.len(), n.div_ceil(8), "{what}");
                    let before = e.store.traffic();
                    assert_eq!(e.generate_cached(&prompt, n).unwrap(), greedy, "{what}");
                    let bytes = moved(&e, &before);
                    assert_eq!(bytes, planned(&dags), "{what}");
                    if host_capacity.is_none() || host_capacity == ROOMY {
                        assert_eq!(pinned(&e, p, n, true), layers, "{what}");
                        assert_eq!(bytes, pinning_all(&model, host_capacity, p, n), "{what}");
                    }
                    if host_capacity.is_some() {
                        let peak = e.store.peak_used(Tier::Host) as f64;
                        assert!(peak <= host_peak(&dags), "{what}");
                    }
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
                // The tightest pool the plan admits pins fewer layers than
                // one that holds them all.
                let pins = |cap| pinned(&engine(model, cap), p, n, true);
                assert!(pins(least) < pins(all), "{model:?} P={p} N={n}");
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
        // Room for one layer's P16 at a time: nothing pinned, the same
        // tokens, every pass from the SSDs.
        let floor = *p16_bytes(&model).iter().max().unwrap();
        let mut streaming = engine(model, Some(floor));
        assert_eq!(pinned(&streaming, 4, 5, false), 0);
        let before = streaming.store.traffic();
        assert_eq!(streaming.generate(&prompt, 5).unwrap(), tokens);
        let moved = streaming.store.traffic().since(&before);
        assert_eq!(moved.bytes(Route::SsdToHost), 5 * all);
        assert_eq!(moved.bytes(Route::HostToSsd), 0);
        assert_drained(&streaming, "streaming");
    }

    #[test]
    fn a_host_pool_already_in_use_shrinks_the_pin_set() {
        let model = SHAPES[0];
        let (p, n) = (3, 4);
        let layers = model.layers + 2;
        let cap = capacity_cases(model, p, n)[2].unwrap();
        let mut e = engine(model, Some(cap));
        assert_eq!(pinned(&e, p, n, true), layers);
        let prompt = prompt_of(&model, p);
        let tokens = e.generate_cached(&prompt, n).unwrap();
        // Someone else holds one byte of the pool: fewer layers fit, the
        // rest stream, and nothing spills.
        let squatter = BlobKey::shared(BlobKind::Grad, 0);
        e.store.put(&squatter, Tier::Host, vec![0u8]).unwrap();
        let dags = runs(&e, p, n, true);
        assert!(pinned(&e, p, n, true) < layers);
        let before = e.store.traffic();
        assert_eq!(e.generate_cached(&prompt, n).unwrap(), tokens);
        assert_eq!(moved(&e, &before), planned(&dags));
        assert_eq!(e.store.telemetry().fault_stats().host_spills, 0);
        assert_eq!(e.store.used(Tier::Host), 1);
    }

    #[test]
    fn a_long_call_runs_as_bounded_dags_and_continues_like_a_second_call() {
        let model = SHAPES[0];
        let prompt = prompt_of(&model, 5);
        let n = 5 * model.seq + 3;
        for host_capacity in [None, capacity_cases(model, 1, 9)[3]] {
            let what = format!("host {host_capacity:?}");
            let mut e = engine(model, host_capacity);
            let dags = runs(&e, prompt.len(), n, false);
            assert_eq!(dags.len(), n.div_ceil(8), "{what}");
            // First, middle, last: every middle run is one DAG.
            let distinct = dags.iter().filter(|d| !Arc::ptr_eq(d, &dags[1])).count();
            assert_eq!(distinct, 2, "{what}");
            let before = e.store.traffic();
            let tokens = e.generate(&prompt, n).unwrap();
            assert_eq!(moved(&e, &before), planned(&dags), "{what}");
            assert_drained(&e, &what);
            // The window slides: the last `seq` tokens are all a call sees.
            let split = 2 * model.seq + 1;
            let head = e.generate(&prompt, split).unwrap();
            let context = [prompt.clone(), head.clone()].concat();
            let tail = e.generate(&context, n - split).unwrap();
            assert_eq!([head, tail].concat(), tokens, "{what}");
            assert_eq!(e.store.telemetry().fault_stats().host_spills, 0);
        }
    }

    /// A plan whose reads of `blob` give up from the `nth` on.
    fn dead_from(blob: BlobKey, nth: u64) -> Arc<FaultPlan<BlobKey>> {
        let plan = FaultPlan::new();
        plan.fault_on_nth_key_op(&blob, FaultOp::Read, nth, FaultKind::Permanent);
        Arc::new(plan)
    }

    fn assert_gave_up(e: &RatelEngine, err: RatelError, what: &str) {
        assert!(
            matches!(
                err,
                RatelError::Storage(StorageError::Faulted {
                    op: FaultOp::Read,
                    ..
                })
            ),
            "{what}: {err}"
        );
        assert_eq!(e.store.telemetry().fault_stats().give_ups, 1, "{what}");
        assert_drained(e, what);
        e.store.set_fault_plan(None);
    }

    #[test]
    fn a_failed_call_leaves_nothing_behind_and_the_next_call_is_unaffected() {
        let model = SHAPES[0];
        let (p, n) = (4, 6);
        let prompt = prompt_of(&model, p);
        let expected = engine(model, None).generate_cached(&prompt, n).unwrap();
        let block = BlobKey::shared(BlobKind::Param16, 2);
        let least = capacity_cases(model, p, n)[3];
        // Room to pin: block 1's pin gives up, beside the pins already
        // taken. Streaming: block 1's read in the fourth pass, with
        // every block's cache in the store.
        for (host_capacity, nth) in [(ROOMY, 0), (least, 3)] {
            let what = format!("host {host_capacity:?}");
            let mut e = engine(model, host_capacity);
            assert_eq!(pinned(&e, p, n, true) == 0, nth > 0, "{what}");
            e.store.set_fault_plan(Some(dead_from(block, nth)));
            let err = e.generate_cached(&prompt, n).unwrap_err();
            assert_gave_up(&e, err, &what);
            assert_eq!(e.generate_cached(&prompt, n).unwrap(), expected, "{what}");
            assert_drained(&e, &what);
        }
        // An eval under the paper's placement, its read of block 1 gone.
        let (tokens, targets) = super::super::data::random_batch(&model, 3);
        let mut e = engine(model, ROOMY);
        let loss = e.eval_loss(&tokens, &targets).unwrap();
        e.store.set_fault_plan(Some(dead_from(block, 0)));
        let err = e.eval_loss(&tokens, &targets).unwrap_err();
        assert_gave_up(&e, err, "eval");
        let again = e.eval_loss(&tokens, &targets).unwrap();
        assert_eq!(again.to_bits(), loss.to_bits());
        assert_drained(&e, "the next eval");
    }
}
