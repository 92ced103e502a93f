//! The tracked perf trajectory: measured kernel / optimizer / SSD
//! throughput, emitted as `BENCH_*.json` files committed at the repo
//! root and re-checked by `ratel-bench bench --check`.
//!
//! Five suites:
//!
//! * **kernels** — GFLOP/s of the naive reference matmul vs the tiled
//!   GEMM at 1 and 4 configured worker threads, over a size ladder,
//!   plus the fused f16-dequant GEMM against its decode-then-multiply
//!   equivalent;
//! * **attention** — attention cells/s of the streaming tiled causal
//!   attention (forward and backward) vs the materialized-score naive
//!   oracle over a sequence-length ladder, the streaming/naive speedup
//!   ratios, the per-block saved-activation bytes (a `bytes` entry:
//!   any growth fails the check), and steady-state allocation counts
//!   for both streaming kernels (asserted zero);
//! * **adam** — elements/s of the flat-buffer CPU Adam step at 1 and 4
//!   threads, plus steady-state allocation counts for the hot kernels
//!   (asserted zero: regressions reintroducing per-call allocation fail
//!   the bench, not just slow it down);
//! * **ssd** — GB/s of the SSD tier per route: per-blob random writes vs
//!   one coalesced `put_batch` segment write, and the read-back path;
//! * **executor** — steps/s of the engine under its two offload
//!   schedules (optimized active vs separate stage — the Fig. 7
//!   ablation as two DAGs over one executor) on a route-throttled
//!   engine (so transfer overlap, not raw compute, decides the
//!   ranking), plus the active schedule's speedup and its SSD-pool
//!   utilisation. Speedups and utilisations use the `ratio` metric, which the
//!   regression check compares *without* calibration scaling: a ratio
//!   of two wall-clocks on the same box is already machine-free.
//!
//! Everything is hand-rolled (timing, JSON emit, JSON parse) so the
//! harness adds no dependencies. Timing takes the minimum over a few
//! samples — the standard way to reject scheduler noise on a shared box.
//! Each file also records a [`calibration_score`] — a fixed scalar
//! workload's throughput on the machine that wrote it — and the
//! regression check rescales by the calibration ratio, so CI boxes
//! slower (or faster) than the baseline writer compare code against
//! code rather than machine against machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ratel_storage::{Tier, TierConfig, TieredStore};
use ratel_tensor::{gemm, ops, set_num_threads, Adam, AdamParams, Tensor};

/// Schema tag every BENCH file must carry.
pub const SCHEMA: &str = "ratel-bench-perf/1";

/// Relative slowdown vs the committed baseline that fails `--check`.
pub const REGRESSION_THRESHOLD: f64 = 0.20;

/// The suite names, in emission order.
// Attention runs first: its streaming/naive speedup ratios are compared
// un-calibrated against the committed baseline, and they compress
// measurably on a package still hot from the kernel suite's sustained
// AVX2 work. Keeping the suite order identical between `--write` (which
// stamps the baseline) and CI's `--smoke --check` keeps that gate fair.
pub const SUITES: [&str; 5] = ["attention", "kernels", "adam", "ssd", "executor"];

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
    /// One of `gflops`, `elems_per_s`, `gbps`, `ratio`, `allocs`,
    /// `bytes`.
    pub metric: String,
    /// The measured value.
    pub value: f64,
}

/// One suite's results.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSuite {
    /// Suite name (`kernels` | `adam` | `ssd`).
    pub suite: String,
    /// Machine-speed score (GFLOP/s of a fixed scalar workload) measured
    /// alongside the entries. The regression check rescales current
    /// values by `baseline.calibration / current.calibration`, so a
    /// throttled or contended box doesn't read as a code regression.
    pub calibration: f64,
    /// Measured entries.
    pub entries: Vec<PerfEntry>,
}

/// Higher-is-better metrics (regression = value dropped); `allocs` and
/// `bytes` are lower-is-better and checked strictly — both count
/// deterministic quantities (heap allocations per call, saved-blob
/// bytes per step), so *any* increase is a code change, not noise.
/// `ratio` is higher-is-better but never calibration-scaled: it divides
/// two wall-clocks measured on the same machine, so machine speed
/// already cancels.
fn is_throughput(metric: &str) -> bool {
    matches!(metric, "gflops" | "elems_per_s" | "gbps" | "ratio")
}

/// Lower-is-better metrics, compared exactly (no calibration, no slack).
fn is_strict_count(metric: &str) -> bool {
    matches!(metric, "allocs" | "bytes")
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

/// Measures the machine-speed score stored in every BENCH file: GFLOP/s
/// of a fixed scalar matmul, minimum over several runs. Both the
/// baseline writer and the checker run it on their own hardware; the
/// ratio of the two scores cancels CPU-frequency and contention
/// differences out of the regression comparison.
pub fn calibration_score() -> f64 {
    let n = 256;
    let a = fill(n * n, 101);
    let b = fill(n * n, 102);
    let mut c = vec![0.0f32; n * n];
    let secs = time_min_for(0.2, || {
        c.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..n {
            for p in 0..n {
                let aip = a[i * n + p];
                for j in 0..n {
                    c[i * n + j] += aip * b[p * n + j];
                }
            }
        }
        std::hint::black_box(&mut c);
    });
    2.0 * (n as f64).powi(3) / secs / 1e9
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
/// afford; the committed baselines are generated without it, so a smoke
/// run compares only its reduced-size entries against the baseline.
pub fn run_suite(suite: &str, smoke: bool) -> Result<PerfSuite, String> {
    let mut result = match suite {
        "kernels" => run_kernels(smoke),
        "attention" => run_attention(smoke),
        "adam" => run_adam(smoke),
        "ssd" => run_ssd(smoke)?,
        "executor" => run_executor(smoke)?,
        other => return Err(format!("unknown suite {other:?} ({})", SUITES.join("|"))),
    };
    result.calibration = calibration_score();
    Ok(result)
}

/// Smoke sizes are a subset of the full ladder, so a smoke run's entry
/// names all exist in the committed full-run baseline.
fn matmul_sizes(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![96, 384]
    } else {
        vec![96, 192, 384, 1024]
    }
}

fn run_kernels(smoke: bool) -> PerfSuite {
    let mut entries = Vec::new();
    for s in matmul_sizes(smoke) {
        let a = Tensor::from_vec(&[s, s], fill(s * s, 1));
        let b = Tensor::from_vec(&[s, s], fill(s * s, 2));
        let flops = 2.0 * (s as f64).powi(3);

        let naive_s = time_min_for(0.3, || {
            std::hint::black_box(ops::naive::matmul(&a, &b));
        });
        entries.push(PerfEntry {
            name: format!("matmul_naive_{s}"),
            metric: "gflops".into(),
            value: flops / naive_s / 1e9,
        });

        // Multi-thread numbers only where the problem amortizes the
        // spawns; tiny sizes measure scheduler noise, not the kernel.
        let thread_counts: &[usize] = if s >= 384 { &[1, 4] } else { &[1] };
        for &threads in thread_counts {
            set_num_threads(threads);
            let tiled_s = time_min_for(0.3, || {
                std::hint::black_box(ops::matmul(&a, &b));
            });
            set_num_threads(1);
            entries.push(PerfEntry {
                name: format!("matmul_tiled_t{threads}_{s}"),
                metric: "gflops".into(),
                value: flops / tiled_s / 1e9,
            });
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
        entries.push(PerfEntry {
            name: format!("{name}_tiled_t1_{s}"),
            metric: "gflops".into(),
            value: flops / secs / 1e9,
        });
    }
    // Fused f16-dequant GEMM vs decode-then-multiply at the same shape:
    // the fused path converts half-precision B panels during operand
    // packing, so its win is the skipped materialized f32 copy of B.
    let bits: Vec<u16> = fill(s * s, 11)
        .iter()
        .map(|&v| ratel_tensor::f32_to_f16_bits(v))
        .collect();
    let mut out = vec![0.0f32; s * s];
    let fused_s = time_min_for(0.3, || {
        gemm::gemm_f16b(
            s,
            s,
            s,
            a.data(),
            gemm::LayoutA::Normal,
            &bits,
            gemm::LayoutB::Normal,
            &mut out,
        );
        std::hint::black_box(&mut out);
    });
    entries.push(PerfEntry {
        name: format!("gemm_f16b_fused_t1_{s}"),
        metric: "gflops".into(),
        value: flops / fused_s / 1e9,
    });
    let mut bf = vec![0.0f32; s * s];
    let decode_s = time_min_for(0.3, || {
        ratel_tensor::dtype::f16_bits_to_f32_slice(&bits, &mut bf);
        gemm::gemm_tiled(
            s,
            s,
            s,
            a.data(),
            gemm::LayoutA::Normal,
            &bf,
            gemm::LayoutB::Normal,
            &mut out,
        );
        std::hint::black_box(&mut out);
    });
    entries.push(PerfEntry {
        name: format!("gemm_f16b_decode_then_gemm_t1_{s}"),
        metric: "gflops".into(),
        value: flops / decode_s / 1e9,
    });
    PerfSuite {
        suite: "kernels".into(),
        calibration: 0.0,
        entries,
    }
}

fn run_attention(smoke: bool) -> PerfSuite {
    use ratel_tensor::{
        attn_backward_into, attn_backward_naive_into, attn_forward_into, attn_forward_naive_into,
        BlockSaved,
    };

    // One head geometry across the ladder (8 heads of 64 = hidden 512);
    // the sequence length is what moves the streaming-vs-naive gap. The
    // smoke size always runs so its entry names exist in the committed
    // full baseline; the full run adds the long sequences on top.
    let (batch, heads, d) = (1usize, 8usize, 64usize);
    let h = heads * d;
    let sizes: &[usize] = if smoke { &[128] } else { &[128, 512, 1024] };
    let budget = 0.3;
    let mut entries = Vec::new();
    for &s in sizes {
        let qkv = fill(batch * s * 3 * h, 21);
        let dctx = fill(batch * s * h, 22);
        let mut ctx = vec![0.0f32; batch * s * h];
        let mut row_max = vec![0.0f32; batch * heads * s];
        let mut row_lse = vec![0.0f32; batch * heads * s];
        let mut dqkv = vec![0.0f32; qkv.len()];
        // Nominal work unit: the b*heads*s*s attention cells a
        // materialized implementation touches. Both backends share it,
        // so the speedup reads straight off the cells/s pair (the
        // streaming kernel actually skips the masked half — that skipped
        // work *is* part of its advantage).
        let cells = (batch * heads * s * s) as f64;

        let mut fwd_streaming_t1 = f64::INFINITY;
        for threads in [1usize, 4] {
            set_num_threads(threads);
            let secs = time_min_for(budget, || {
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
            });
            set_num_threads(1);
            if threads == 1 {
                fwd_streaming_t1 = secs;
            }
            entries.push(PerfEntry {
                name: format!("attn_fwd_streaming_t{threads}_{s}"),
                metric: "elems_per_s".into(),
                value: cells / secs,
            });
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
        entries.push(PerfEntry {
            name: format!("attn_fwd_naive_t1_{s}"),
            metric: "elems_per_s".into(),
            value: cells / fwd_naive,
        });
        entries.push(PerfEntry {
            name: format!("attn_fwd_speedup_{s}"),
            metric: "ratio".into(),
            value: fwd_naive / fwd_streaming_t1,
        });

        // Backward: each backend consumes its own forward's saved set,
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
        for threads in [1usize, 4] {
            set_num_threads(threads);
            let secs = time_min_for(budget, || {
                attn_backward_into(
                    &qkv, &ctx, &row_max, &row_lse, &dctx, batch, s, h, heads, &mut dqkv,
                );
                std::hint::black_box(&mut dqkv);
            });
            set_num_threads(1);
            if threads == 1 {
                bwd_streaming_t1 = secs;
            }
            entries.push(PerfEntry {
                name: format!("attn_bwd_streaming_t{threads}_{s}"),
                metric: "elems_per_s".into(),
                value: cells / secs,
            });
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
        entries.push(PerfEntry {
            name: format!("attn_bwd_naive_t1_{s}"),
            metric: "elems_per_s".into(),
            value: cells / bwd_naive,
        });
        entries.push(PerfEntry {
            name: format!("attn_bwd_speedup_{s}"),
            metric: "ratio".into(),
            value: bwd_naive / bwd_streaming_t1,
        });

        // The A16 blob of one transformer block at this shape — the
        // bytes a saved-activation swap actually moves per step. This is
        // arithmetic, not a measurement: any growth is a code change
        // (e.g. something re-materializing the [s, s] probabilities) and
        // fails the check outright.
        entries.push(PerfEntry {
            name: format!("block_saved_bytes_{s}"),
            metric: "bytes".into(),
            value: (2 * BlockSaved::element_count_for(batch, s, h, heads)) as f64,
        });
    }

    // Steady-state allocation counts: both streaming kernels run
    // entirely out of the scratch pool once warmed, at any thread count
    // — asserted here at the serial setting the counter can attribute.
    let s = 128;
    let qkv = fill(batch * s * 3 * h, 23);
    let dctx = fill(batch * s * h, 24);
    let mut ctx = vec![0.0f32; batch * s * h];
    let mut row_max = vec![0.0f32; batch * heads * s];
    let mut row_lse = vec![0.0f32; batch * heads * s];
    let mut dqkv = vec![0.0f32; qkv.len()];
    set_num_threads(1);
    entries.push(PerfEntry {
        name: "attn_fwd_streaming_allocs_per_call".into(),
        metric: "allocs".into(),
        value: min_allocs_per_call(10, || {
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
    });
    entries.push(PerfEntry {
        name: "attn_bwd_streaming_allocs_per_call".into(),
        metric: "allocs".into(),
        value: min_allocs_per_call(10, || {
            attn_backward_into(
                &qkv, &ctx, &row_max, &row_lse, &dctx, batch, s, h, heads, &mut dqkv,
            )
        }),
    });

    PerfSuite {
        suite: "attention".into(),
        calibration: 0.0,
        entries,
    }
}

fn run_adam(smoke: bool) -> PerfSuite {
    // The smoke size always runs so its entry names exist in the full
    // baseline; the full run adds the large size on top.
    let sizes: &[usize] = if smoke {
        &[200_000]
    } else {
        &[200_000, 4_000_000]
    };
    let hp = AdamParams::default();
    let mut entries = Vec::new();
    for &n in sizes {
        let grads = fill(n, 5);
        for threads in [1usize, 4] {
            let mut adam = Adam::new(n);
            let mut params = fill(n, 6);
            set_num_threads(threads);
            let secs = time_min_for(0.3, || {
                adam.step(&mut params, &grads, &hp);
            });
            set_num_threads(1);
            entries.push(PerfEntry {
                name: format!("adam_step_t{threads}_{n}"),
                metric: "elems_per_s".into(),
                value: n as f64 / secs,
            });
        }
    }

    // Steady-state allocation counts: the bugfix contract is that these
    // hot paths allocate nothing per call once warmed up. The Adam size
    // sits below the parallel threshold so the step is serial (no scoped
    // spawns) whatever the global thread count is.
    let m = 4096;
    let mut adam = Adam::new(m);
    let mut params = fill(m, 7);
    let grads_s = fill(m, 8);
    entries.push(PerfEntry {
        name: "adam_step_serial_allocs_per_call".into(),
        metric: "allocs".into(),
        value: min_allocs_per_call(10, || adam.step(&mut params, &grads_s, &hp)),
    });

    let mut x = Tensor::from_vec(&[8, 512], fill(m, 9));
    let bias = Tensor::from_vec(&[512], fill(512, 10));
    entries.push(PerfEntry {
        name: "add_bias_allocs_per_call".into(),
        metric: "allocs".into(),
        value: min_allocs_per_call(10, || ops::add_bias(&mut x, &bias)),
    });

    // A flat state round-trip through a reused buffer is also free.
    let mut flat = Vec::new();
    let t = adam.t;
    entries.push(PerfEntry {
        name: "adam_flat_roundtrip_allocs_per_call".into(),
        metric: "allocs".into(),
        value: min_allocs_per_call(10, || {
            adam.write_flat_into(&mut flat);
            adam.load_flat(&flat, t);
        }),
    });

    PerfSuite {
        suite: "adam".into(),
        calibration: 0.0,
        entries,
    }
}

fn run_ssd(smoke: bool) -> Result<PerfSuite, String> {
    // The smoke config always runs so its entry names exist in the full
    // baseline; the full run adds a larger config on top.
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
        let mut best_solo = f64::INFINITY;
        let mut best_batch = f64::INFINITY;
        let mut best_read = f64::INFINITY;

        // Per-blob route: one random write per blob.
        let solo = |round: usize| -> Result<f64, String> {
            let prepared: Vec<(String, Vec<u8>)> = (0..blobs)
                .map(|i| (format!("r{round}/solo/{i}"), payload.clone()))
                .collect();
            let t0 = Instant::now();
            for (key, bytes) in prepared {
                store
                    .put(&key, Tier::Ssd, bytes)
                    .map_err(|e| e.to_string())?;
            }
            Ok(t0.elapsed().as_secs_f64())
        };
        // Batched route: all blobs coalesced into one sequential
        // segment.
        let batched = |round: usize| -> Result<f64, String> {
            let batch: Vec<(String, Vec<u8>)> = (0..blobs)
                .map(|i| (format!("r{round}/batch/{i}"), payload.clone()))
                .collect();
            let t0 = Instant::now();
            store
                .put_batch(Tier::Ssd, batch)
                .map_err(|e| e.to_string())?;
            Ok(t0.elapsed().as_secs_f64())
        };

        // Best-of-N rounds on fresh keys each time, so a one-off
        // filesystem hiccup can't poison the committed baseline. Route
        // order alternates per round: whichever runs second inherits the
        // writeback pressure of the first's dirty pages, so each route
        // gets at least one round at the front.
        for round in 0..rounds {
            if round % 2 == 0 {
                best_solo = best_solo.min(solo(round)?);
                best_batch = best_batch.min(batched(round)?);
            } else {
                best_batch = best_batch.min(batched(round)?);
                best_solo = best_solo.min(solo(round)?);
            }

            // Read-back of the segment-resident blobs.
            let t0 = Instant::now();
            for i in 0..blobs {
                std::hint::black_box(
                    store
                        .read(&format!("r{round}/batch/{i}"))
                        .map_err(|e| e.to_string())?,
                );
            }
            best_read = best_read.min(t0.elapsed().as_secs_f64());

            // Untimed cleanup so rounds don't accumulate disk usage.
            for i in 0..blobs {
                store
                    .remove(&format!("r{round}/solo/{i}"))
                    .map_err(|e| e.to_string())?;
                store
                    .remove(&format!("r{round}/batch/{i}"))
                    .map_err(|e| e.to_string())?;
            }
        }

        entries.push(PerfEntry {
            name: format!("ssd_put_per_blob_{blobs}x{blob_len}"),
            metric: "gbps".into(),
            value: total / best_solo / 1e9,
        });
        entries.push(PerfEntry {
            name: format!("ssd_put_batched_{blobs}x{blob_len}"),
            metric: "gbps".into(),
            value: total / best_batch / 1e9,
        });
        entries.push(PerfEntry {
            name: format!("ssd_read_{blobs}x{blob_len}"),
            metric: "gbps".into(),
            value: total / best_read / 1e9,
        });
    }

    Ok(PerfSuite {
        suite: "ssd".into(),
        calibration: 0.0,
        entries,
    })
}

fn run_executor(smoke: bool) -> Result<PerfSuite, String> {
    use ratel::engine::data::random_batch;
    use ratel::engine::executor::TaskBreakdown;
    use ratel::engine::lr::LrSchedule;
    use ratel::engine::scaler::ScalePolicy;
    use ratel::engine::{
        ActDecision, EngineConfig, ExecutionOptions, ExecutorOptions, RatelEngine,
    };
    use ratel::GradOffloadMode;
    use ratel_sim::ResourceClass;
    use ratel_storage::Route;
    use ratel_tensor::GptConfig;

    // Small enough that compute is cheap, routes throttled hard enough
    // that state I/O takes real time: whichever schedule overlaps
    // transfers with compute best wins, which is exactly what this suite
    // tracks.
    let model = GptConfig {
        vocab: 128,
        seq: 32,
        hidden: 64,
        heads: 4,
        layers: 4,
        batch: 4,
    };
    let steps = if smoke { 3u64 } else { 6 };
    let mk = |offload: GradOffloadMode| -> Result<RatelEngine, String> {
        let engine = RatelEngine::new(EngineConfig {
            model,
            seed: 55,
            adam: AdamParams::default(),
            act_decisions: vec![ActDecision::SwapToHost; model.layers],
            gpu_capacity: None,
            host_capacity: None,
            execution: ExecutionOptions::Executor(ExecutorOptions {
                offload,
                ..ExecutorOptions::default()
            }),
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: LrSchedule::Constant,
            dropout: None,
            frozen_layers: Vec::new(),
        })
        .map_err(|e| e.to_string())?;
        engine.set_route_throttle(Route::SsdToHost, Some(20e6));
        engine.set_route_throttle(Route::HostToSsd, Some(20e6));
        Ok(engine)
    };
    let (tokens, targets) = random_batch(&model, 9);
    let time_mode = |offload: GradOffloadMode| -> Result<(f64, f32, TaskBreakdown), String> {
        let mut engine = mk(offload)?;
        // Warm-up step: first-touch staging and file creation.
        let mut stats = engine
            .train_step(&tokens, &targets)
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for _ in 0..steps {
            stats = engine
                .train_step(&tokens, &targets)
                .map_err(|e| e.to_string())?;
        }
        let sps = steps as f64 / t0.elapsed().as_secs_f64();
        let tasks = stats.tasks.ok_or("step reported no task breakdown")?;
        Ok((sps, stats.loss, tasks))
    };

    let (active_sps, active_loss, tasks) = time_mode(GradOffloadMode::OptimizedActive)?;
    let (separate_sps, separate_loss, _) = time_mode(GradOffloadMode::SeparateStage)?;

    // The ranking is only meaningful if both schedules computed the same
    // step; a numeric divergence here is a bug, not a perf result.
    if active_loss != separate_loss {
        return Err(format!(
            "schedules diverged: optimized active {active_loss} vs separate stage {separate_loss}"
        ));
    }

    let mut entries = vec![
        PerfEntry {
            name: "engine_steps_optimized_active".into(),
            metric: "elems_per_s".into(),
            value: active_sps,
        },
        PerfEntry {
            name: "engine_steps_separate_stage".into(),
            metric: "elems_per_s".into(),
            value: separate_sps,
        },
        PerfEntry {
            name: "active_over_separate_stage".into(),
            metric: "ratio".into(),
            value: active_sps / separate_sps,
        },
    ];
    // Per-worker utilisation of the bottleneck pool: busy seconds over
    // wall clock times pool width. The throttle puts the whole step on
    // the SSD array, so this is the paper's "keep the hop busy" claim
    // in number form; a scheduling regression shows up here before it
    // shows up in steps/s. (The PCIe pools are near-idle by design in
    // this scenario — their utilisation would only measure noise.)
    let util = tasks.pool(ResourceClass::SsdArray).map_or(0.0, |p| {
        p.busy_seconds / (tasks.wall_seconds * p.workers.max(1) as f64)
    });
    entries.push(PerfEntry {
        name: "executor_util_ssd".into(),
        metric: "ratio".into(),
        value: util,
    });
    Ok(PerfSuite {
        suite: "executor".into(),
        calibration: 0.0,
        entries,
    })
}

// ---------------------------------------------------------------------
// JSON emit / parse / check
// ---------------------------------------------------------------------

/// Serializes a suite to the committed BENCH file format.
pub fn to_json(suite: &PerfSuite) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"suite\": \"{}\",\n", suite.suite));
    s.push_str(&format!("  \"calibration\": {:.6},\n", suite.calibration));
    s.push_str("  \"entries\": [\n");
    for (i, e) in suite.entries.iter().enumerate() {
        let comma = if i + 1 < suite.entries.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"metric\": \"{}\", \"value\": {:.6} }}{comma}\n",
            e.name, e.metric, e.value
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses and schema-validates a BENCH file.
pub fn parse_suite(text: &str) -> Result<PerfSuite, String> {
    let v = json::parse(text)?;
    let obj = v.as_object().ok_or("top level must be an object")?;
    let schema = json::get_str(obj, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let suite = json::get_str(obj, "suite")?.to_string();
    if !SUITES.contains(&suite.as_str()) {
        return Err(format!("unknown suite {suite:?}"));
    }
    let calibration = json::get(obj, "calibration")?
        .as_number()
        .ok_or("\"calibration\" must be a number")?;
    if !calibration.is_finite() || calibration <= 0.0 {
        return Err(format!("calibration out of range: {calibration}"));
    }
    let entries_v = json::get(obj, "entries")?
        .as_array()
        .ok_or("\"entries\" must be an array")?;
    let mut entries = Vec::new();
    for (i, ev) in entries_v.iter().enumerate() {
        let eo = ev
            .as_object()
            .ok_or_else(|| format!("entries[{i}] must be an object"))?;
        let name = json::get_str(eo, "name")?.to_string();
        let metric = json::get_str(eo, "metric")?.to_string();
        if !is_throughput(&metric) && !is_strict_count(&metric) {
            return Err(format!("entries[{i}]: unknown metric {metric:?}"));
        }
        let value = json::get(eo, "value")?
            .as_number()
            .ok_or_else(|| format!("entries[{i}].value must be a number"))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!("entries[{i}].value out of range: {value}"));
        }
        if entries.iter().any(|e: &PerfEntry| e.name == name) {
            return Err(format!("duplicate entry name {name:?}"));
        }
        entries.push(PerfEntry {
            name,
            metric,
            value,
        });
    }
    if entries.is_empty() {
        return Err("entries must not be empty".into());
    }
    Ok(PerfSuite {
        suite,
        calibration,
        entries,
    })
}

/// Compares `current` against `baseline`; returns one line per failure.
/// Throughput values are first rescaled by the calibration-score ratio
/// (clamped to [0.25, 4]) so a faster or slower machine than the one
/// that wrote the baseline is factored out; the rescaled value then
/// fails below `(1 - REGRESSION_THRESHOLD) * baseline`. `allocs` and
/// `bytes` entries fail on any increase, unscaled. Entries missing on
/// either side are skipped (smoke runs measure a subset of the
/// committed baseline).
pub fn check_regressions(current: &PerfSuite, baseline: &PerfSuite) -> Vec<String> {
    let scale = if current.calibration > 0.0 && baseline.calibration > 0.0 {
        (baseline.calibration / current.calibration).clamp(0.25, 4.0)
    } else {
        1.0
    };
    let mut failures = Vec::new();
    for cur in &current.entries {
        let Some(base) = baseline.entries.iter().find(|b| b.name == cur.name) else {
            continue;
        };
        if base.metric != cur.metric {
            failures.push(format!(
                "{}: metric changed {} -> {}",
                cur.name, base.metric, cur.metric
            ));
            continue;
        }
        if is_throughput(&cur.metric) {
            // Ratios are same-machine quotients; rescaling them by the
            // calibration ratio would *introduce* a machine dependence.
            let adjusted = if cur.metric == "ratio" {
                cur.value
            } else {
                cur.value * scale
            };
            let floor = base.value * (1.0 - REGRESSION_THRESHOLD);
            if adjusted < floor {
                failures.push(format!(
                    "{}: {:.3} {} ({:.3} machine-adjusted) is {:.0}% below baseline {:.3}",
                    cur.name,
                    cur.value,
                    cur.metric,
                    adjusted,
                    (1.0 - adjusted / base.value) * 100.0,
                    base.value
                ));
            }
        } else if cur.value > base.value {
            failures.push(format!(
                "{}: {} {}, baseline {}",
                cur.name, cur.value, cur.metric, base.value
            ));
        }
    }
    failures
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
            "  {:width$}  {:>14.3} {}\n",
            e.name, e.value, e.metric
        ));
    }
    s
}

/// Minimal JSON parser — just enough for the BENCH schema (objects,
/// arrays, strings without escapes beyond `\"`/`\\`, numbers, literals).
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (f64 precision).
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, insertion-ordered.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(o) => Some(o),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_number(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Looks up a key in an object.
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    /// Looks up a key and requires a string value.
    pub fn get_str<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
        get(obj, key)?
            .as_str()
            .ok_or_else(|| format!("{key:?} must be a string"))
    }

    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            other => {
                                return Err(format!(
                                    "unsupported escape {:?} at byte {}",
                                    other.map(|c| c as char),
                                    self.pos
                                ))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (multi-byte safe).
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                        let ch = s.chars().next().unwrap();
                        out.push(ch);
                        self.pos += ch.len_utf8();
                    }
                    None => return Err("unterminated string".into()),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while self.peek().is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| format!("invalid number {text:?} at byte {start}"))
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_suite() -> PerfSuite {
        PerfSuite {
            suite: "kernels".into(),
            calibration: 1.0,
            entries: vec![
                PerfEntry {
                    name: "matmul_naive_96".into(),
                    metric: "gflops".into(),
                    value: 1.25,
                },
                PerfEntry {
                    name: "matmul_tiled_t1_96".into(),
                    metric: "gflops".into(),
                    value: 6.5,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_emit_and_parse() {
        let suite = sample_suite();
        let parsed = parse_suite(&to_json(&suite)).unwrap();
        assert_eq!(parsed.suite, suite.suite);
        assert_eq!(parsed.entries.len(), suite.entries.len());
        for (a, b) in parsed.entries.iter().zip(&suite.entries) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.metric, b.metric);
            assert!((a.value - b.value).abs() < 1e-9);
        }
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert!(parse_suite("{}").is_err());
        assert!(parse_suite("[1,2]").is_err());
        let wrong_schema = to_json(&sample_suite()).replace(SCHEMA, "bogus/9");
        assert!(parse_suite(&wrong_schema).is_err());
        let bad_metric = to_json(&sample_suite()).replace("gflops", "parsecs");
        assert!(parse_suite(&bad_metric).is_err());
        let dup = to_json(&sample_suite()).replace("matmul_naive_96", "matmul_tiled_t1_96");
        assert!(parse_suite(&dup).is_err());
    }

    #[test]
    fn regression_check_flags_slowdowns_and_alloc_growth() {
        let mut base = sample_suite();
        base.entries.push(PerfEntry {
            name: "add_bias_allocs_per_call".into(),
            metric: "allocs".into(),
            value: 0.0,
        });
        let mut current = base.clone();
        assert!(check_regressions(&current, &base).is_empty());
        // 10% down: within the 20% budget.
        current.entries[0].value = base.entries[0].value * 0.9;
        assert!(check_regressions(&current, &base).is_empty());
        // 30% down: flagged.
        current.entries[0].value = base.entries[0].value * 0.7;
        assert_eq!(check_regressions(&current, &base).len(), 1);
        // Any allocation growth is flagged.
        current.entries[0].value = base.entries[0].value;
        current.entries[2].value = 1.0;
        assert_eq!(check_regressions(&current, &base).len(), 1);
        // Entries only in the baseline (full sizes during a smoke run)
        // are ignored.
        current.entries[2].value = 0.0;
        current.entries.remove(1);
        assert!(check_regressions(&current, &base).is_empty());
    }

    #[test]
    fn calibration_ratio_cancels_machine_speed() {
        let base = sample_suite();
        // A box running at 40% of the baseline machine's speed: every
        // throughput number drops proportionally, including the
        // calibration score. Machine-adjusted, nothing regressed.
        let mut throttled = base.clone();
        throttled.calibration *= 0.4;
        for e in &mut throttled.entries {
            e.value *= 0.4;
        }
        assert!(check_regressions(&throttled, &base).is_empty());
        // A genuine 30% code regression on the same throttled box is
        // still flagged: the kernel dropped further than the machine.
        throttled.entries[1].value *= 0.7;
        assert_eq!(check_regressions(&throttled, &base).len(), 1);
        // The scale is clamped, so an absurd calibration ratio cannot
        // wave through an arbitrarily slow run.
        let mut implausible = base.clone();
        implausible.calibration *= 0.01;
        for e in &mut implausible.entries {
            e.value *= 0.01;
        }
        assert!(!check_regressions(&implausible, &base).is_empty());
    }

    #[test]
    fn counting_allocator_sees_allocations() {
        let before = allocation_count();
        let v: Vec<u64> = std::hint::black_box((0..100).collect());
        assert!(allocation_count() > before);
        drop(v);
    }

    #[test]
    fn smoke_suites_produce_valid_schema() {
        for suite in ["attention", "adam", "ssd"] {
            let result = run_suite(suite, true).unwrap();
            let parsed = parse_suite(&to_json(&result)).unwrap();
            assert_eq!(parsed.suite, suite);
            assert!(!parsed.entries.is_empty());
        }
    }

    #[test]
    fn hot_paths_allocate_nothing_at_steady_state() {
        // The satellite contract, asserted directly: add_bias and the
        // serial Adam step perform zero allocations per call.
        let adam_suite = run_suite("adam", true).unwrap();
        for name in [
            "adam_step_serial_allocs_per_call",
            "add_bias_allocs_per_call",
            "adam_flat_roundtrip_allocs_per_call",
        ] {
            let e = adam_suite
                .entries
                .iter()
                .find(|e| e.name == name)
                .expect(name);
            assert_eq!(e.value, 0.0, "{name} allocates at steady state");
        }
        // The streaming attention kernels run out of the scratch pool
        // once warmed: a full forward + backward step allocates nothing.
        let attn_suite = run_suite("attention", true).unwrap();
        for name in [
            "attn_fwd_streaming_allocs_per_call",
            "attn_bwd_streaming_allocs_per_call",
        ] {
            let e = attn_suite
                .entries
                .iter()
                .find(|e| e.name == name)
                .expect(name);
            assert_eq!(e.value, 0.0, "{name} allocates at steady state");
        }
    }
}
