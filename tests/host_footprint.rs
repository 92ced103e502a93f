//! What a build and a step hold in host memory, counted: a model state
//! has one copy in the process — the tier's blob — so the heap a step
//! adds is what the memory tiers account for plus the gradient being
//! handed over, and a built engine holds the masters the host tier keeps
//! resident, one layer's worth of f32 kernel scratch (an embedding, one
//! block, a head — whatever the depth) and, while building, one layer's
//! states in flight. Under both placements: every master host-resident,
//! and all states on the SSD tier. A decode call holds no more for
//! asking for more tokens. Its own test binary, because the
//! count is a `#[global_allocator]`; one `#[test]`, because the count is
//! process-wide.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{config_with, min_host_capacity, zoo};
use ratel_repro::prelude::*;
use ratel_repro::storage::Tier;

/// Live heap bytes and their high-water mark since [`restart_peak`].
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout`, forwarded as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes now; the high-water mark restarts from them.
fn restart_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most the heap grew over `base` since [`restart_peak`].
fn peak_over(base: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

/// Tensor threads the bounds are stated for: every attention call hands
/// each of its threads a 64 KiB score tile, so the kernel scratch below
/// scales with this, not with the machine.
const TENSOR_THREADS: usize = 2;

/// What a step holds of gradients outside the tiers, per parameter of
/// the largest layer: one backward's G16, parked for its `grad-off`
/// (2 B), beside the next backward's gradient slot (4 B) and the G16 it
/// is encoded into (2 B). The slot is the layer's only f32 gradient: each
/// weight-gradient GEMM writes straight into its slice, so no per-weight
/// tensor sits beside it. It ends with the task that filled it, and the
/// optimizer reads the G16 where the store holds it, so no other task
/// holds a decoded one.
const GRADIENT_HANDED_OVER: usize = 2 + 4 + 2;

/// What else a step may hold outside the tiers: the running block's
/// activations in f32 (a few rows at these shapes), kernel scratch,
/// blobs between their encoding and their `put`, worker threads and task
/// bookkeeping. The kernel scratch is fixed, not scaled by the model:
/// every temporary a kernel checks out — a band's packed `KC×NC` GEMM
/// block (128 KiB), an attention unit's panels and score tiles — is
/// bounded by a block per thread, and the pools keep nothing larger than
/// `SCRATCH_BLOCK`. So the step bound says something only where a second
/// copy of a layer's 8 B/param of moments, or one operand-sized pack of
/// a weight, does not fit in it — which is where it is asserted.
const STEP_SLACK: usize = 512 << 10;

/// What a build may hold beside the kernel scratch and the layer in
/// flight: the plan, its DAG and the verifier's working set.
const BUILD_SLACK: usize = 128 << 10;

/// What a long decode call may hold beyond a short one: the tokens it
/// has picked, copied into each run. A call that lowered all its passes
/// into one DAG would hold megabytes more.
const DECODE_SLACK: usize = 32 << 10;

/// The zoo's blocks (3-13 K parameters) hide in [`STEP_SLACK`]; this
/// shape's (112 K parameters, 1.3 MB of optimizer state) do not. One
/// block per activation decision.
fn wide() -> common::Shape {
    common::Shape {
        model: GptConfig {
            vocab: 128,
            seq: 8,
            hidden: 96,
            heads: 4,
            layers: 3,
            batch: 1,
        },
        decisions: [
            ActDecision::SwapToSsd,
            ActDecision::SwapToHost,
            ActDecision::Recompute,
        ],
        gpu_capacity: None,
    }
}

/// Hidden 256: an MLP weight is 256 × 1024 floats, so one pack of a
/// whole GEMM operand (1 MiB), or one weight's gradient held beside the
/// layer's slot, does not hide in [`STEP_SLACK`] either.
fn wider() -> common::Shape {
    common::Shape {
        model: GptConfig {
            vocab: 64,
            seq: 8,
            hidden: 256,
            heads: 4,
            layers: 2,
            batch: 1,
        },
        ..wide()
    }
}

#[test]
fn a_build_and_a_step_hold_one_copy_of_each_model_state() {
    // The executor's workers inherit the width, so it covers the steps.
    ratel_repro::tensor::with_width(TENSOR_THREADS, one_copy_of_each_model_state);
}

fn one_copy_of_each_model_state() {
    for (s, shape) in zoo().into_iter().chain([wide(), wider()]).enumerate() {
        let model = shape.model;
        let layer_params: Vec<usize> = (0..model.layers + 2)
            .map(|layer| model.layer_params(layer))
            .collect();
        let largest = layer_params.iter().copied().max().unwrap_or(0);
        // The f32 tensors the kernels compute on: one of each kind.
        let head = model.layers + 1;
        let scratch = 4 * (layer_params[0] + layer_params[1] + layer_params[head]);
        for (all_host, resident) in [(true, true), (false, true), (false, false)] {
            let mut config = config_with(&shape, ExecutionOptions::default());
            if all_host {
                config.act_decisions = vec![ActDecision::SwapToHost; model.layers];
            }
            if !resident {
                config.host_capacity = Some(min_host_capacity(&config));
            }
            let what = format!(
                "shape {s}, {}, masters {}",
                if all_host { "all-host" } else { "mixed" },
                if resident { "resident" } else { "on SSD" },
            );

            // Build: the masters the host tier keeps, the scratch, and one
            // layer's P32 + OS32 + P16 on their way to the tiers — twice,
            // for the layer being built and the write in flight.
            let base = restart_peak();
            let mut engine = RatelEngine::new(config).unwrap();
            let build_peak = peak_over(base);
            let at_rest = engine.store().used(Tier::Host) as usize;
            assert_eq!(at_rest as u64, engine.host_state_bytes(), "{what}");
            // Resident masters rest beside the moments of the two layers
            // whose gradients arrive last (their handlers rotate).
            let masters = 4 * layer_params.iter().sum::<usize>();
            let rotated = 8 * (layer_params[0] + layer_params[1]);
            let expected = if resident { masters + rotated } else { 0 };
            assert_eq!(at_rest, expected, "{what}");
            let build_bound = at_rest + scratch + 2 * 14 * largest + BUILD_SLACK;
            assert!(
                build_peak <= build_bound,
                "{what}: the build peaked at {build_peak} B over a bound of {build_bound} B \
                 (resident {at_rest} B, scratch {scratch} B, largest layer {largest} params)"
            );

            // The step's bound could not fail on this shape: a second
            // copy of its largest layer's moments hides in the slack.
            if 8 * largest <= STEP_SLACK {
                continue;
            }
            // The second step is the measured one: lazily built tables
            // are in place by then.
            for step in 0..2 {
                let (tokens, targets) = random_batch(&model, 40 + step);
                engine.store().reset_traffic();
                let base = restart_peak();
                engine.train_step(&tokens, &targets).unwrap();
                let step_peak = peak_over(base);
                // What the tiers held at most, less what they hold at
                // rest — that was on the heap before the step.
                let tiers = (engine.store().peak_used(Tier::Host)
                    + engine.store().peak_used(Tier::Gpu)) as usize
                    - at_rest;
                let step_bound = tiers + GRADIENT_HANDED_OVER * largest + STEP_SLACK;
                assert!(
                    step == 0 || step_peak <= step_bound,
                    "{what}: the step peaked at {step_peak} B over a bound of {step_bound} B \
                     (tiers {tiers} B over {at_rest} B at rest, largest layer {largest} params)"
                );
            }
        }
    }
    a_long_generation_holds_what_a_short_one_does();
}

/// What a decode call lowers and holds does not grow with the tokens it
/// asks for: on an engine under the smallest host pool its plan admits,
/// a call of forty context windows peaks no higher than one of four.
fn a_long_generation_holds_what_a_short_one_does() {
    let shape = wide();
    // One worker a pool: one thread runs a run's kernels and keeps the
    // kernel scratch.
    let one = ExecutorOptions {
        workers_per_pool: 1,
        ..ExecutorOptions::default()
    };
    let mut config = config_with(&shape, ExecutionOptions::Executor(one));
    config.host_capacity = Some(min_host_capacity(&config));
    let prompt = [1, 2, 3];
    let peak = |tokens| {
        let mut engine = RatelEngine::new(config.clone()).unwrap();
        let base = restart_peak();
        engine.generate(&prompt, tokens).unwrap();
        peak_over(base)
    };
    let seq = shape.model.seq;
    let (short, long) = (peak(4 * seq), peak(40 * seq));
    assert!(
        long <= short + DECODE_SLACK,
        "{} tokens peaked at {long} B, {} at {short} B",
        40 * seq,
        4 * seq
    );
}
