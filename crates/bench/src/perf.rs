//! `ratel-bench bench`: the perf numbers only this binary can take, and
//! a gate (`--check`) that reads no baseline.
//!
//! Four suites — **attention**, **kernels**, **adam**, **ssd** — print
//! throughputs of the tuned paths beside the oracles they replaced.
//! Absolute numbers (`gflops`, `elems_per_s`, `gbps`) wander 20–30 % from
//! minute to minute on a shared box and are printed, never compared; the
//! end-to-end harness under `benchmark/` measures them beside the step
//! and compares parent against change. The gate fails on two kinds of
//! entry only, each with its expected value in code beside the
//! measurement:
//!
//! * `allocs` — heap allocations per steady-state call of a hot path,
//!   counted by the global allocator below (which is why this is a
//!   binary and not a test): must be 0, or the buffers the call returns
//!   where it returns some, or a staging buffer over the scratch pool's
//!   bound where the call needs one (a `count` beside one is the same
//!   call done another way, printed for contrast);
//! * `ratio` with a floor — two wall-clocks taken back to back in this
//!   process, tuned path over its oracle, so machine speed cancels. The
//!   claim is "the path we ship is not slower than the path it
//!   replaced", the idiom of `tests/overlap_timing.rs`. Floors are at
//!   most 0.8 × the least of at least ten runs on the bench box (DESIGN.md
//!   "Perf gate" has the table); a ratio whose floor would fall below
//!   1.0 carries none and is report-only.
//!
//! Timing takes the minimum over a sampling window — the standard way to
//! reject scheduler noise on a shared box.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ratel::engine::checkpoint::checksum;
use ratel::schedule::ACT_CHUNKS;
use ratel_sim::{BlobKey, BlobKind};
use ratel_storage::{Tier, TierConfig, TieredStore};
use ratel_tensor::dtype::{
    decode_f16, decode_f32, encode_f16, encode_f32, f32_to_f16_bits, f32_to_f16_bits_slice,
    round_to_f16, round_to_f16_in_place,
};
use ratel_tensor::{
    adam, num_threads, ops, with_width, Adam, AdamParams, BlockSaved, Tensor, SCRATCH_BLOCK,
};

/// The suite names, in emission order.
pub const SUITES: [&str; 4] = ["attention", "kernels", "adam", "ssd"];

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// A [`System`] wrapper that counts allocations, so benches can assert
/// that a hot path performs none at steady state.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed atomic increment with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Total heap allocations since process start (monotonic; diff two reads
/// around a region to count its allocations).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Results model
// ---------------------------------------------------------------------

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// Unique name within the suite (encodes variant + problem size).
    pub name: String,
    /// One of `gflops`, `elems_per_s`, `gbps`, `count` (printed, never
    /// compared), `ratio` or `allocs` (both compared against `gate`).
    pub metric: &'static str,
    /// The measured value.
    pub value: f64,
    /// What `--check` holds the value to: the least a `ratio` may read,
    /// the count an `allocs` entry must read. `None` is report-only.
    pub gate: Option<f64>,
}

impl PerfEntry {
    /// An absolute throughput: machine-dependent, so never gated.
    fn report(name: String, metric: &'static str, value: f64) -> Self {
        Self {
            name,
            metric,
            value,
            gate: None,
        }
    }

    /// A same-process quotient of two wall-clocks, gated when it has a
    /// floor.
    fn ratio(name: String, value: f64, floor: Option<f64>) -> Self {
        Self {
            name,
            metric: "ratio",
            value,
            gate: floor,
        }
    }

    /// Heap allocations per steady-state call; the gate requires 0.
    fn allocs(name: &str, value: f64) -> Self {
        Self::allocs_exactly(name, value, 0)
    }

    /// Heap allocations per steady-state call of a path that returns
    /// `expected` buffers; the gate requires exactly those.
    fn allocs_exactly(name: &str, value: f64, expected: usize) -> Self {
        Self {
            name: name.into(),
            metric: "allocs",
            value,
            gate: Some(expected as f64),
        }
    }
}

/// One suite's results.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSuite {
    /// Suite name (one of [`SUITES`]).
    pub suite: String,
    /// Measured entries.
    pub entries: Vec<PerfEntry>,
}

// ---------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------

/// Minimum allocations observed across single calls of `f` (after one
/// warmup call). The minimum rejects allocations from other threads
/// sharing the process-global counter: if any call sees zero, the hot
/// path itself allocates nothing.
fn min_allocs_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = u64::MAX;
    for _ in 0..calls.max(1) {
        let before = allocation_count();
        f();
        best = best.min(allocation_count() - before);
    }
    best as f64
}

/// Minimum wall-clock seconds of single calls of `f`, sampling for at
/// least `budget` seconds (and at least three calls) after one warmup
/// call. The minimum over a longer window gets far more chances to land
/// in an un-contended slice of a noisy shared machine than a fixed
/// handful of samples would.
fn time_min_for(budget: f64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut calls = 0;
    while calls < 3 || start.elapsed().as_secs_f64() < budget {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
        calls += 1;
    }
    best
}

/// The thread counts a ladder measures: 1 and, when it differs, the
/// count the engine actually runs with — never more than the cores this
/// box has, where a wider entry would only measure oversubscription.
fn thread_ladder() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wide = num_threads().min(cores);
    if wide > 1 {
        vec![1, wide]
    } else {
        vec![1]
    }
}

/// Deterministic pseudo-random fill in [-1, 1).
fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

// ---------------------------------------------------------------------
// Suites
// ---------------------------------------------------------------------

/// Runs one suite by name. `smoke` restricts to the reduced sizes CI can
/// afford. Everything off a thread ladder is measured with the kernels
/// serial, each rung at its own width.
pub fn run_suite(suite: &str, smoke: bool) -> Result<PerfSuite, String> {
    let ladder = thread_ladder();
    let entries = with_width(1, || match suite {
        "kernels" => Ok(run_kernels(smoke, &ladder)),
        "attention" => Ok(run_attention(smoke, &ladder)),
        "adam" => Ok(run_adam(smoke, &ladder)),
        "ssd" => run_ssd(smoke),
        other => Err(format!("unknown suite {other:?} ({})", SUITES.join("|"))),
    })?;
    Ok(PerfSuite {
        suite: suite.into(),
        entries,
    })
}

fn run_kernels(smoke: bool, ladder: &[usize]) -> Vec<PerfEntry> {
    // (size, part of --smoke, floor of tiled/naive at one thread).
    let sizes = [
        (96, true, Some(1.8)),
        (192, false, Some(2.3)),
        (384, true, Some(2.5)),
        (1024, false, Some(3.6)),
    ];
    let mut entries = Vec::new();
    for (s, _, floor) in sizes.into_iter().filter(|t| t.1 || !smoke) {
        let a = Tensor::from_vec(&[s, s], fill(s * s, 1));
        let b = Tensor::from_vec(&[s, s], fill(s * s, 2));
        let flops = 2.0 * (s as f64).powi(3);

        let naive_s = time_min_for(0.3, || {
            std::hint::black_box(ops::naive::matmul(&a, &b));
        });
        entries.push(PerfEntry::report(
            format!("matmul_naive_{s}"),
            "gflops",
            flops / naive_s / 1e9,
        ));

        // Multi-thread numbers only where the problem amortizes the
        // spawns; tiny sizes measure scheduler noise, not the kernel.
        let rungs = if s >= 384 { ladder } else { &ladder[..1] };
        for &threads in rungs {
            let tiled_s = with_width(threads, || {
                time_min_for(0.3, || {
                    std::hint::black_box(ops::matmul(&a, &b));
                })
            });
            entries.push(PerfEntry::report(
                format!("matmul_tiled_t{threads}_{s}"),
                "gflops",
                flops / tiled_s / 1e9,
            ));
            if threads == 1 {
                entries.push(PerfEntry::ratio(
                    format!("matmul_tiled_over_naive_{s}"),
                    naive_s / tiled_s,
                    floor,
                ));
            }
        }
    }
    // The backward-pass shapes at one mid size: same GEMM core, different
    // packing routes.
    let s = 384;
    let a = Tensor::from_vec(&[s, s], fill(s * s, 3));
    let b = Tensor::from_vec(&[s, s], fill(s * s, 4));
    let flops = 2.0 * (s as f64).powi(3);
    for (name, f) in [
        (
            "matmul_at",
            ops::matmul_at as fn(&Tensor, &Tensor) -> Tensor,
        ),
        ("matmul_bt", ops::matmul_bt),
    ] {
        let secs = time_min_for(0.3, || {
            std::hint::black_box(f(&a, &b));
        });
        entries.push(PerfEntry::report(
            format!("{name}_tiled_t1_{s}"),
            "gflops",
            flops / secs / 1e9,
        ));
    }
    // At steady state each route allocates its output tensor (its data
    // and its shape) and nothing else: every packed block comes from the
    // scratch pool, and none is over the bound the pool keeps.
    for (name, f) in [
        ("matmul", ops::matmul as fn(&Tensor, &Tensor) -> Tensor),
        ("matmul_at", ops::matmul_at),
        ("matmul_bt", ops::matmul_bt),
    ] {
        entries.push(PerfEntry::allocs_exactly(
            &format!("{name}_allocs_per_call_{s}"),
            min_allocs_per_call(10, || {
                std::hint::black_box(f(&a, &b));
            }),
            2,
        ));
    }
    entries.extend(run_elementwise());
    entries
}

/// The element-wise kernels beside the GEMMs, at one thread: the f16
/// codecs over a block's saved set, its chunked encode, and GELU.
fn run_elementwise() -> Vec<PerfEntry> {
    let mut entries = Vec::new();
    // Rounding one block's saved set (at `train-compute`'s shape) through
    // f16 in place, against the scalar map it replaced. It allocates
    // nothing ...
    let n = BlockSaved::element_count_for(2, 256, 192, 4);
    let mut sliced = fill(n, 13);
    let mut scalar = sliced.clone();
    entries.push(PerfEntry::allocs(
        "round_to_f16_in_place_allocs_per_call",
        min_allocs_per_call(10, || round_to_f16_in_place(&mut sliced)),
    ));
    // ... and is faster: fifteen runs on the bench box read 3.83-4.52.
    let in_place = time_min_for(0.3, || {
        round_to_f16_in_place(std::hint::black_box(&mut sliced));
    });
    let mapped = time_min_for(0.3, || {
        for v in std::hint::black_box(&mut scalar).iter_mut() {
            *v = round_to_f16(*v);
        }
    });
    entries.push(PerfEntry::ratio(
        format!("round_to_f16_in_place_over_scalar_map_{n}"),
        mapped / in_place,
        Some(1.3),
    ));

    // Encoding a saved set through the slice encode against the
    // per-element scalar map, its oracle and non-AVX2 path: fifteen runs
    // on the bench box read 2.89-3.29, and the scalar path reads ~1.
    let values = fill(n, 14);
    let mut bits = vec![0u16; n];
    let lane = time_min_for(0.3, || {
        f32_to_f16_bits_slice(std::hint::black_box(&values), &mut bits);
    });
    let scalar = time_min_for(0.3, || {
        for (b, &v) in bits.iter_mut().zip(std::hint::black_box(&values)) {
            *b = f32_to_f16_bits(v);
        }
    });
    entries.push(PerfEntry::ratio(
        format!("encode_f16_over_scalar_map_{n}"),
        scalar / lane,
        Some(2.2),
    ));

    // A block's forward encodes its saved set straight into the chunks
    // its offloads move: one buffer per chunk, nothing copied. (A small
    // shape: the count does not depend on it, and each call consumes a
    // set made before the count starts.)
    let (batch, seq, h, heads) = (1, 16, 32, 4);
    let bytes = vec![0u8; 2 * BlockSaved::element_count_for(batch, seq, h, heads)];
    let mut sets: Vec<BlockSaved> = (0..11)
        .map(|_| BlockSaved::from_f16_bytes([&bytes], batch, seq, h, heads))
        .collect();
    entries.push(PerfEntry::allocs_exactly(
        "block_saved_into_f16_chunks_allocs_per_call",
        min_allocs_per_call(10, || {
            // One set per call: a call without one counts 0 and fails.
            if let Some(saved) = sets.pop() {
                for chunk in saved.into_f16_chunks(ACT_CHUNKS) {
                    std::hint::black_box(chunk);
                }
            }
        }),
        ACT_CHUNKS,
    ));

    // GELU forward + backward over one `[512, 768]` MLP pre-activation
    // against the libm formula: fifteen runs on the bench box read
    // 5.88-6.66, and libm's `tanhf` in the kernel reads ~1.
    let shape = [512, 768];
    let pre = Tensor::from_vec(&shape, fill(512 * 768, 15)).scale(3.0);
    let dy = Tensor::from_vec(&shape, fill(512 * 768, 16));
    let kernel = time_min_for(0.3, || {
        std::hint::black_box(ops::gelu(&pre));
        std::hint::black_box(ops::gelu_backward(&pre, &dy));
    });
    let formula = time_min_for(0.3, || {
        std::hint::black_box(ops::naive::gelu(&pre));
        std::hint::black_box(ops::naive::gelu_backward(&pre, &dy));
    });
    entries.push(PerfEntry::ratio(
        format!("gelu_over_libm_formula_{}", pre.len()),
        formula / kernel,
        Some(4.5),
    ));
    entries
}

fn run_attention(smoke: bool, ladder: &[usize]) -> Vec<PerfEntry> {
    use ratel_tensor::{
        attn_backward_into, attn_backward_naive_into, attn_forward_into, attn_forward_naive_into,
    };

    // One head geometry across the ladder (8 heads of 64 = hidden 512);
    // the sequence length is what moves the streaming-vs-naive gap.
    let (batch, heads, d) = (1usize, 8usize, 64usize);
    let h = heads * d;
    // (seq, part of --smoke, floors of the forward and backward speedup).
    // The backward at 128 read 1.19–2.24 over 62 runs: 0.8 × the least
    // is under 1.0, so it is report-only.
    let sizes = [
        (128, true, Some(1.1), None),
        (512, false, Some(1.4), Some(1.6)),
        (1024, false, Some(1.6), Some(1.8)),
    ];
    let budget = 0.3;
    let mut entries = Vec::new();
    for (s, _, fwd_floor, bwd_floor) in sizes.into_iter().filter(|t| t.1 || !smoke) {
        let qkv = fill(batch * s * 3 * h, 21);
        let dctx = fill(batch * s * h, 22);
        let mut ctx = vec![0.0f32; batch * s * h];
        let mut row_max = vec![0.0f32; batch * heads * s];
        let mut row_lse = vec![0.0f32; batch * heads * s];
        let mut dqkv = vec![0.0f32; qkv.len()];
        // Nominal work unit: the b*heads*s*s attention cells a
        // materialized implementation touches. Both kernels share it,
        // so the speedup reads straight off the cells/s pair (the
        // streaming kernel actually skips the masked half — that skipped
        // work *is* part of its advantage).
        let cells = (batch * heads * s * s) as f64;

        let mut fwd_streaming_t1 = f64::INFINITY;
        for &threads in ladder {
            let secs = with_width(threads, || {
                time_min_for(budget, || {
                    attn_forward_into(
                        &qkv,
                        batch,
                        s,
                        h,
                        heads,
                        &mut ctx,
                        &mut row_max,
                        &mut row_lse,
                    );
                    std::hint::black_box(&mut ctx);
                })
            });
            if threads == 1 {
                fwd_streaming_t1 = secs;
            }
            entries.push(PerfEntry::report(
                format!("attn_fwd_streaming_t{threads}_{s}"),
                "elems_per_s",
                cells / secs,
            ));
        }
        let fwd_naive = time_min_for(budget, || {
            attn_forward_naive_into(
                &qkv,
                batch,
                s,
                h,
                heads,
                &mut ctx,
                &mut row_max,
                &mut row_lse,
            );
            std::hint::black_box(&mut ctx);
        });
        entries.push(PerfEntry::report(
            format!("attn_fwd_naive_t1_{s}"),
            "elems_per_s",
            cells / fwd_naive,
        ));
        entries.push(PerfEntry::ratio(
            format!("attn_fwd_speedup_{s}"),
            fwd_naive / fwd_streaming_t1,
            fwd_floor,
        ));

        // Backward: each kernel consumes its own forward's saved set,
        // exactly as the layer does at train time.
        attn_forward_into(
            &qkv,
            batch,
            s,
            h,
            heads,
            &mut ctx,
            &mut row_max,
            &mut row_lse,
        );
        let mut bwd_streaming_t1 = f64::INFINITY;
        for &threads in ladder {
            let secs = with_width(threads, || {
                time_min_for(budget, || {
                    attn_backward_into(
                        &qkv, &ctx, &row_max, &row_lse, &dctx, batch, s, h, heads, &mut dqkv,
                    );
                    std::hint::black_box(&mut dqkv);
                })
            });
            if threads == 1 {
                bwd_streaming_t1 = secs;
            }
            entries.push(PerfEntry::report(
                format!("attn_bwd_streaming_t{threads}_{s}"),
                "elems_per_s",
                cells / secs,
            ));
        }
        attn_forward_naive_into(
            &qkv,
            batch,
            s,
            h,
            heads,
            &mut ctx,
            &mut row_max,
            &mut row_lse,
        );
        let bwd_naive = time_min_for(budget, || {
            attn_backward_naive_into(
                &qkv, &ctx, &row_max, &row_lse, &dctx, batch, s, h, heads, &mut dqkv,
            );
            std::hint::black_box(&mut dqkv);
        });
        entries.push(PerfEntry::report(
            format!("attn_bwd_naive_t1_{s}"),
            "elems_per_s",
            cells / bwd_naive,
        ));
        entries.push(PerfEntry::ratio(
            format!("attn_bwd_speedup_{s}"),
            bwd_naive / bwd_streaming_t1,
            bwd_floor,
        ));
    }

    entries.extend(attention_allocs(batch, heads, d));
    entries
}

/// Steady-state allocation counts: both streaming kernels run out of the
/// scratch pool once warmed, at any thread count — asserted here at the
/// serial setting the counter can attribute — except for a unit-major
/// staging buffer over the pool's bound, which each call allocates and
/// frees. At this shape the forward's (`b·s·h` floats, 256 KiB) is at the
/// bound and kept; the backward's (three times that) is over it.
fn attention_allocs(batch: usize, heads: usize, d: usize) -> Vec<PerfEntry> {
    use ratel_tensor::{attn_backward_into, attn_forward_into};

    let (h, s) = (heads * d, 128);
    let mut entries = Vec::new();
    let qkv = fill(batch * s * 3 * h, 23);
    let dctx = fill(batch * s * h, 24);
    let mut ctx = vec![0.0f32; batch * s * h];
    let mut row_max = vec![0.0f32; batch * heads * s];
    let mut row_lse = vec![0.0f32; batch * heads * s];
    let mut dqkv = vec![0.0f32; qkv.len()];
    entries.push(PerfEntry::allocs(
        "attn_fwd_streaming_allocs_per_call",
        min_allocs_per_call(10, || {
            attn_forward_into(
                &qkv,
                batch,
                s,
                h,
                heads,
                &mut ctx,
                &mut row_max,
                &mut row_lse,
            )
        }),
    ));
    assert!(batch * s * h <= SCRATCH_BLOCK && 3 * batch * s * h > SCRATCH_BLOCK);
    entries.push(PerfEntry::allocs_exactly(
        "attn_bwd_streaming_allocs_per_call",
        min_allocs_per_call(10, || {
            attn_backward_into(
                &qkv, &ctx, &row_max, &row_lse, &dctx, batch, s, h, heads, &mut dqkv,
            )
        }),
        1,
    ));
    entries
}

fn run_adam(smoke: bool, ladder: &[usize]) -> Vec<PerfEntry> {
    let sizes: &[usize] = if smoke {
        &[200_000]
    } else {
        &[200_000, 4_000_000]
    };
    let hp = AdamParams::default();
    let mut entries = Vec::new();
    for &n in sizes {
        let grads = fill(n, 5);
        for &threads in ladder {
            let mut adam = Adam::new(n);
            let mut params = fill(n, 6);
            let secs = with_width(threads, || {
                time_min_for(0.3, || {
                    adam.step(&mut params, &grads, &hp);
                })
            });
            entries.push(PerfEntry::report(
                format!("adam_step_t{threads}_{n}"),
                "elems_per_s",
                n as f64 / secs,
            ));
        }
    }

    // Steady-state allocation counts: the bugfix contract is that these
    // hot paths allocate nothing per call once warmed up. The Adam size
    // sits below the parallel threshold so the step is serial (no scoped
    // spawns) at any width.
    let m = 4096;
    let mut adam = Adam::new(m);
    let mut params = fill(m, 7);
    let grads_s = fill(m, 8);
    entries.push(PerfEntry::allocs(
        "adam_step_serial_allocs_per_call",
        min_allocs_per_call(10, || adam.step(&mut params, &grads_s, &hp)),
    ));

    let mut x = Tensor::from_vec(&[8, 512], fill(m, 9));
    let bias = Tensor::from_vec(&[512], fill(512, 10));
    entries.push(PerfEntry::allocs(
        "add_bias_allocs_per_call",
        min_allocs_per_call(10, || ops::add_bias(&mut x, &bias)),
    ));

    // The optimizer handler's kernel: Adam over the staged blobs where
    // they lie. It allocates nothing (same serial size as above) ...
    let mut master = encode_f32(&params);
    let mut moments = vec![0u8; 8 * m];
    let g16_s = encode_f16(&grads_s);
    let as_stored = adam::GradFactors::default();
    entries.push(PerfEntry::allocs(
        "adam_step_le_bytes_allocs_per_call",
        min_allocs_per_call(10, || {
            adam::step_le_bytes(&mut master, &mut moments, &g16_s, as_stored, 0, &hp)
        }),
    ));

    // ... and is faster than the handler body it replaced, which decoded
    // all three blobs into vectors, ran `Adam::step` and encoded two back.
    let n = sizes[0];
    let g16 = encode_f16(&fill(n, 11));
    let mut master = encode_f32(&fill(n, 12));
    let mut moments = vec![0u8; 8 * n];
    let in_place = time_min_for(0.3, || {
        adam::step_le_bytes(&mut master, &mut moments, &g16, as_stored, 0, &hp)
    });
    let through_vectors = time_min_for(0.3, || {
        let grads = decode_f16(&g16);
        let mut p = decode_f32(&master);
        let flat = decode_f32(&moments);
        let mut state = Adam {
            m: flat[..n].to_vec(),
            v: flat[n..].to_vec(),
            t: 0,
        };
        state.step(&mut p, &grads, &hp);
        master = encode_f32(&p);
        moments = encode_f32(&[state.m, state.v].concat());
    });
    // Twenty runs on the bench box read 2.87-3.28.
    entries.push(PerfEntry::ratio(
        "adam_le_bytes_over_f32_step".into(),
        through_vectors / in_place,
        Some(2.2),
    ));
    entries
}

fn run_ssd(smoke: bool) -> Result<Vec<PerfEntry>, String> {
    let configs: &[(usize, usize, usize)] = if smoke {
        &[(32, 256 * 1024, 8)]
    } else {
        &[(32, 256 * 1024, 8), (64, 1024 * 1024, 4)]
    };
    let store = TieredStore::new(TierConfig::unbounded_temp()).map_err(|e| e.to_string())?;
    let mut entries = Vec::new();

    for &(blobs, blob_len, rounds) in configs {
        let total = (blobs * blob_len) as f64;
        let payload = vec![0xA5u8; blob_len];
        let mut best_put = f64::INFINITY;
        let mut best_read = f64::INFINITY;

        // Best-of-N rounds on fresh keys each time, so a one-off
        // filesystem hiccup can't poison the result.
        for round in 0..rounds {
            let keys: Vec<String> = (0..blobs).map(|i| format!("r{round}/{i}")).collect();
            let prepared: Vec<Vec<u8>> = keys.iter().map(|_| payload.clone()).collect();
            let t0 = Instant::now();
            for (key, bytes) in keys.iter().zip(prepared) {
                store
                    .put(key, Tier::Ssd, bytes)
                    .map_err(|e| e.to_string())?;
            }
            best_put = best_put.min(t0.elapsed().as_secs_f64());

            // Read-back: one file a blob.
            let t0 = Instant::now();
            for key in &keys {
                std::hint::black_box(store.read(key).map_err(|e| e.to_string())?);
            }
            best_read = best_read.min(t0.elapsed().as_secs_f64());

            // Untimed cleanup so rounds don't accumulate disk usage.
            for key in &keys {
                store.remove(key).map_err(|e| e.to_string())?;
            }
        }

        let shape = format!("{blobs}x{blob_len}");
        for (name, secs) in [("ssd_put_per_blob", best_put), ("ssd_read", best_read)] {
            entries.push(PerfEntry::report(
                format!("{name}_{shape}"),
                "gbps",
                total / secs / 1e9,
            ));
        }
    }

    // What a store call costs in allocations for its key: nothing with
    // the engine's `Copy` keys; with `String` keys, printed for contrast,
    // each call owns a copy of its key.
    let typed = key_allocs([BlobKind::Master, BlobKind::Moments].map(|k| BlobKey::shared(k, 0)))?;
    let named = key_allocs(["layer0/master", "layer0/moments"].map(String::from))?;
    for (call, (typed, named)) in ["modify_two_host_blobs", "move_host_gpu_host"]
        .into_iter()
        .zip(typed.into_iter().zip(named))
    {
        entries.push(PerfEntry::allocs(
            &format!("store_{call}_allocs_per_call"),
            typed,
        ));
        let name = format!("store_{call}_string_keys_allocs_per_call");
        entries.push(PerfEntry::report(name, "count", named));
    }

    // The checksum every checkpoint blob is saved and verified with,
    // against the byte-serial FNV-1a it replaced: thirteen runs on the
    // bench box read 17.2-19.4, and one lane of words read 5.2.
    let bytes = encode_f32(&fill(1 << 18, 17));
    let words = time_min_for(0.3, || {
        std::hint::black_box(checksum(std::hint::black_box(&bytes)));
    });
    let serial = time_min_for(0.3, || {
        std::hint::black_box(fnv1a(std::hint::black_box(&bytes)));
    });
    entries.push(PerfEntry::ratio(
        format!("ckpt_checksum_over_fnv1a_{}", bytes.len()),
        serial / words,
        Some(12.0),
    ));
    Ok(entries)
}

/// FNV-1a 64, one byte a step: the checkpoint checksum's oracle.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Allocations per call, on a store keyed by `keys`' type, of `modify` over
/// two host-resident blobs and of an in-memory `move_to` round trip
/// Host → Gpu → Host.
fn key_allocs<K: Clone + Eq + std::hash::Hash + std::fmt::Display>(
    [a, b]: [K; 2],
) -> Result<[f64; 2], String> {
    let store = TieredStore::new(TierConfig::unbounded_temp()).map_err(|e| e.to_string())?;
    for key in [&a, &b] {
        (store.put(key, Tier::Host, vec![0u8; 4096])).map_err(|e| e.to_string())?;
    }
    let modify = min_allocs_per_call(10, || {
        let flip = |[x, y]: [&mut [u8]; 2]| {
            x[0] ^= 1;
            y[0] ^= 1;
        };
        std::hint::black_box(store.modify([&a, &b], flip)).ok();
    });
    let round_trip = min_allocs_per_call(10, || {
        std::hint::black_box(store.move_to(&a, Tier::Gpu)).ok();
        std::hint::black_box(store.move_to(&a, Tier::Host)).ok();
    });
    Ok([modify, round_trip])
}

// ---------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------

/// The gate over one run: `(entry name, message)` for every `allocs`
/// entry off its expected count and every `ratio` under its floor.
/// Absolute throughputs and ratios without a floor never fail.
pub fn check(suite: &PerfSuite) -> Vec<(String, String)> {
    let mut failures = Vec::new();
    for e in &suite.entries {
        let message = match (e.metric, e.gate) {
            ("allocs", Some(expected)) if e.value != expected => {
                format!(
                    "{}: {} allocation(s) per call, expected {expected}",
                    e.name, e.value
                )
            }
            ("ratio", Some(floor)) if e.value < floor => {
                format!(
                    "{}: ratio {:.3} is under its floor {floor}",
                    e.name, e.value
                )
            }
            _ => continue,
        };
        failures.push((e.name.clone(), message));
    }
    failures
}

/// [`check`], with the rule that a failure must reproduce: when `first`
/// fails anything, `rerun` measures the suite once more and only entries
/// that fail in both runs are returned. A one-off stall on a shared box
/// is noise; a real regression repeats.
pub fn check_confirmed(
    first: &PerfSuite,
    rerun: impl FnOnce() -> Result<PerfSuite, String>,
) -> Result<Vec<(String, String)>, String> {
    let mut failures = check(first);
    if !failures.is_empty() {
        let again = check(&rerun()?);
        failures.retain(|(name, _)| again.iter().any(|(n, _)| n == name));
    }
    Ok(failures)
}

/// Human-readable table of a suite's entries.
pub fn render(suite: &PerfSuite) -> String {
    let mut s = format!("suite: {}\n", suite.suite);
    let width = suite
        .entries
        .iter()
        .map(|e| e.name.len())
        .max()
        .unwrap_or(0);
    for e in &suite.entries {
        s.push_str(&format!(
            "  {:width$}  {:>14.3} {}",
            e.name, e.value, e.metric
        ));
        match (e.metric, e.gate) {
            ("allocs", Some(expected)) => s.push_str(&format!(" (expected {expected})")),
            (_, Some(floor)) => s.push_str(&format!(" (floor {floor})")),
            _ => {}
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The allocation counter is process-wide: a suite running beside
    /// the allocation-count test would allocate into every call it
    /// counts, so the tests that call `run_suite` take turns.
    static RUN_SUITE: Mutex<()> = Mutex::new(());

    fn suite_of(entries: Vec<PerfEntry>) -> PerfSuite {
        PerfSuite {
            suite: "kernels".into(),
            entries,
        }
    }

    fn names(failures: &[(String, String)]) -> Vec<&str> {
        failures.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn gate_fails_ratios_under_their_floor_and_any_allocation_only() {
        let suite = suite_of(vec![
            PerfEntry::ratio("attn_fwd_speedup_128".into(), 1.1, Some(1.3)),
            PerfEntry::ratio("attn_fwd_speedup_512".into(), 1.4, Some(1.4)),
            // No floor: report-only, however low.
            PerfEntry::ratio("attn_bwd_speedup_128".into(), 0.2, None),
            PerfEntry::allocs("add_bias_allocs_per_call", 1.0),
            PerfEntry::allocs("adam_step_serial_allocs_per_call", 0.0),
        ]);
        let failures = check(&suite);
        assert_eq!(
            names(&failures),
            ["attn_fwd_speedup_128", "add_bias_allocs_per_call"]
        );
        assert!(failures[0].1.contains("1.3"), "{}", failures[0].1);
        assert!(failures[1].1.contains("expected 0"), "{}", failures[1].1);
    }

    #[test]
    fn an_allocs_entry_fails_off_its_expected_count_either_way() {
        let entry = |value| PerfEntry::allocs_exactly("into_chunks", value, 4);
        let suite = suite_of(vec![entry(3.0), entry(4.0), entry(5.0)]);
        let failures = check(&suite);
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().all(|(_, m)| m.contains("expected 4")));
    }

    #[test]
    fn absolute_throughputs_never_fail() {
        // Whatever they read, and however far under any earlier run.
        for metric in ["gflops", "gbps", "elems_per_s"] {
            for value in [0.0, 0.65, 65.0, 65e9] {
                let e = PerfEntry::report("matmul_tiled_t1_384".into(), metric, value);
                assert!(check(&suite_of(vec![e])).is_empty(), "{metric} {value}");
            }
        }
    }

    #[test]
    fn a_failure_must_repeat_under_the_same_name_to_count() {
        let slow = |name: &str| PerfEntry::ratio(name.into(), 1.0, Some(1.3));
        let fine = |name: &str| PerfEntry::ratio(name.into(), 2.0, Some(1.3));
        let first = suite_of(vec![slow("attn_fwd_speedup_128"), slow("x_1280")]);
        // `…_128` failing again must not confirm `…_1280`, nor the
        // other way round: confirmation is by equal name.
        let again = suite_of(vec![slow("attn_fwd_speedup_128"), fine("x_1280")]);
        let kept = check_confirmed(&first, || Ok(again)).unwrap();
        assert_eq!(names(&kept), ["attn_fwd_speedup_128"]);
        let again = suite_of(vec![fine("x_128"), slow("x_1280")]);
        let first = suite_of(vec![slow("x_128"), fine("x_1280")]);
        assert!(check_confirmed(&first, || Ok(again)).unwrap().is_empty());
        // A clean first run never pays for a second.
        let clean = suite_of(vec![fine("x_128")]);
        let kept = check_confirmed(&clean, || panic!("re-ran a clean suite")).unwrap();
        assert!(kept.is_empty());
        // A re-run that cannot be taken is an error, not a pass.
        let first = suite_of(vec![slow("x_128")]);
        assert!(check_confirmed(&first, || Err("no store".into())).is_err());
    }

    #[test]
    fn counting_allocator_sees_allocations() {
        let before = allocation_count();
        let v: Vec<u64> = std::hint::black_box((0..100).collect());
        assert!(allocation_count() > before);
        drop(v);
    }

    #[test]
    fn every_suite_runs_and_names_each_entry_once() {
        let _turn = RUN_SUITE.lock().unwrap_or_else(|e| e.into_inner());
        for suite in SUITES {
            let result = run_suite(suite, true).unwrap();
            assert_eq!(result.suite, suite);
            assert!(!result.entries.is_empty());
            for (i, e) in result.entries.iter().enumerate() {
                assert!(e.value.is_finite() && e.value >= 0.0, "{}", e.name);
                assert!(
                    result.entries[..i].iter().all(|p| p.name != e.name),
                    "duplicate entry {}",
                    e.name
                );
            }
        }
    }

    #[test]
    fn hot_paths_allocate_nothing_at_steady_state() {
        let _turn = RUN_SUITE.lock().unwrap_or_else(|e| e.into_inner());
        // The satellite contract, asserted directly: add_bias and the
        // serial Adam step perform zero allocations per call.
        let adam_suite = run_suite("adam", true).unwrap();
        for name in [
            "adam_step_serial_allocs_per_call",
            "add_bias_allocs_per_call",
            "adam_step_le_bytes_allocs_per_call",
        ] {
            let e = adam_suite
                .entries
                .iter()
                .find(|e| e.name == name)
                .expect(name);
            assert_eq!(e.value, 0.0, "{name} allocates at steady state");
        }
        // The streaming attention kernels run out of the scratch pool
        // once warmed: the forward allocates nothing, the backward only
        // its staging buffer, which is over the bound the pool keeps.
        let attn_suite = run_suite("attention", true).unwrap();
        for (name, allocs) in [
            ("attn_fwd_streaming_allocs_per_call", 0.0),
            ("attn_bwd_streaming_allocs_per_call", 1.0),
        ] {
            let e = attn_suite
                .entries
                .iter()
                .find(|e| e.name == name)
                .expect(name);
            assert_eq!(e.value, allocs, "{name} at steady state");
        }
    }
}
