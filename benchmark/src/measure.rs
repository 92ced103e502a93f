//! One benchmark run: set-up, the measured window, correctness checks,
//! and the metrics derived from what the public API returns.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ratel::engine::conformance::ConformanceConfig;
use ratel::engine::data::{random_batch, Batch as OwnedBatch};
use ratel::engine::executor::{TaskBreakdown, POOL_CLASSES};
use ratel::engine::reference::ReferenceTrainer;
use ratel::prelude::{AdamParams, Batch, Ratel, RatelError, RatelTrainer, StepStats};
use ratel_storage::{Route, Tier};

use crate::alloc;
use crate::cpu::process_cpu_seconds;
use crate::probes;
use crate::spec::{OpKind, Workload, GEN_NEW, GEN_PROMPT, POOL_TAGS, ROUTE_TAGS};
use crate::stats::{block_deltas, median, percentile, BLOCK_OPS};
use crate::trace::{SpanId, Tracer};

/// Distinct batches a run cycles through.
const BATCH_RING: usize = 8;
/// Ops run in every set-up before timing starts: the first op pays
/// one-off costs (thread-local scratch, page faults on fresh blobs), and
/// `ckpt-gen` needs two saves before its directory holds the two
/// generations it keeps from then on.
const WARMUP_OPS: usize = 2;
/// Engines built per run; the median set-up time is reported.
const SETUPS: usize = 5;
const SMOKE_OPS: usize = 3;
/// `engine.loss_final` is the loss of this op of the window (or of the
/// last op of a shorter run): a fixed step, so it repeats exactly for one
/// seed however many ops the window fits.
const LOSS_OP: usize = BLOCK_OPS - 1;
/// A window stops early after this many failed ops.
const MAX_FAILED: u64 = 3;

const MB: f64 = 1e6;

pub struct RunOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: telemetry, conformance, spans, probes, per-layer metrics.
    pub trace: bool,
    /// One set-up and three ops: a correctness pass for the tests.
    pub smoke: bool,
    /// Off only to measure what the throttles add (README, dominance table).
    pub throttled: bool,
    /// Directory for checkpoints (the SSD tier goes to `TMPDIR`).
    pub work_dir: PathBuf,
    /// Whether that directory is memory-backed (`env.ssd_dir_tmpfs`).
    pub work_dir_tmpfs: bool,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer ones of a traced run.
    pub metrics: Vec<(String, f64)>,
    /// Why `correct` is false, and failed ops.
    pub problems: Vec<String>,
    pub loss_final: f32,
    pub tracer: Tracer,
}

/// A fixed single-thread integer loop, timed. Its time is a property of
/// the machine at that moment, not of the engine: a run disturbed by a
/// neighbour shows it here.
fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

fn builder(opts: &RunOptions) -> Ratel {
    let w = opts.workload;
    let mut b = Ratel::init(w.model)
        .seed(opts.seed)
        .activation_decisions(w.decisions());
    if let Some(cap) = w.gpu_capacity {
        b = b.gpu_capacity(cap);
    }
    if opts.throttled {
        for &(route, rate) in w.throttles {
            b = b.throttle(route, rate);
        }
    }
    b
}

/// The timed calls of one `ckpt-gen` cycle besides the step.
struct Cycle {
    eval_s: [f64; 2],
    save_s: f64,
    load_s: f64,
    gen_s: f64,
    /// `eval` after `load_checkpoint` equals `eval` before
    /// `save_checkpoint`, bit for bit.
    restored_bitwise: bool,
}

struct OpRecord {
    wall_s: f64,
    /// Wall time of the `step()` call alone.
    step_wall_s: f64,
    stats: StepStats,
    cycle: Option<Cycle>,
}

/// Seconds `f` took, with its result, under a span named `name`.
fn timed<T>(
    tracer: &mut Tracer,
    name: &str,
    parent: SpanId,
    f: impl FnOnce() -> Result<T, RatelError>,
) -> Result<(T, f64), RatelError> {
    let t = Instant::now();
    let out = tracer.scope(name, parent, f)?;
    Ok((out, t.elapsed().as_secs_f64()))
}

fn run_op(
    workload: &Workload,
    trainer: &mut RatelTrainer,
    batch: &OwnedBatch,
    ckpt_dir: &Path,
    tracer: &mut Tracer,
    op_span: SpanId,
) -> Result<OpRecord, RatelError> {
    let model = workload.model;
    let batch = Batch::new(&model, &batch.0, &batch.1)?;
    let t0 = Instant::now();
    let (stats, step_wall_s) = timed(tracer, "op.step", op_span, || trainer.step(batch))?;
    let cycle = match workload.op {
        OpKind::Step => None,
        OpKind::CkptGen => {
            let (before, eval0_s) = timed(tracer, "op.eval", op_span, || trainer.eval(batch))?;
            let ((), save_s) = timed(tracer, "op.save", op_span, || {
                trainer.save_checkpoint(ckpt_dir)
            })?;
            let ((), load_s) = timed(tracer, "op.load", op_span, || {
                trainer.load_checkpoint(ckpt_dir)
            })?;
            let (after, eval1_s) = timed(tracer, "op.eval", op_span, || trainer.eval(batch))?;
            let (generated, gen_s) = timed(tracer, "op.generate", op_span, || {
                trainer.generate_cached(&batch.tokens()[..GEN_PROMPT], GEN_NEW)
            })?;
            Some(Cycle {
                eval_s: [eval0_s, eval1_s],
                save_s,
                load_s,
                gen_s,
                restored_bitwise: before.to_bits() == after.to_bits()
                    && generated.len() == GEN_NEW
                    && generated.iter().all(|&t| t < model.vocab),
            })
        }
    };
    Ok(OpRecord {
        wall_s: t0.elapsed().as_secs_f64(),
        step_wall_s,
        stats,
        cycle,
    })
}

/// What one set-up measured.
#[derive(Clone, Copy)]
struct SetUpFigures {
    total_s: f64,
    plan_verify_s: f64,
    build_s: f64,
    warmup_op_s: f64,
    /// Peak live heap bytes while planning and building.
    build_peak: f64,
}

/// The median of one figure over the run's set-ups.
fn setup_median(setups: &[SetUpFigures], figure: fn(&SetUpFigures) -> f64) -> f64 {
    median(&setups.iter().map(figure).collect::<Vec<_>>())
}

struct SetUp {
    trainer: RatelTrainer,
    ckpt_dir: PathBuf,
    planned: [u64; 4],
    warm_losses: Vec<f32>,
    figures: SetUpFigures,
}

/// Plan, verify, build (which places every model state on the SSD tier)
/// and the warm-up ops: everything before the first measured op.
fn set_up(
    opts: &RunOptions,
    k: usize,
    batches: &[OwnedBatch],
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<SetUp, RatelError> {
    let span = tracer.begin(format!("setup[{k}]"), root);
    alloc::reset_peak();
    let t0 = Instant::now();
    let ((plan, planned), plan_verify_s) = timed(tracer, "setup.plan", span, || {
        let plan = builder(opts).plan()?;
        plan.verify()?;
        let planned = plan.planned_route_bytes();
        Ok((plan, planned))
    })?;
    let (mut trainer, build_s) = timed(tracer, "setup.build", span, || plan.build())?;
    let build_peak = alloc::snapshot().peak;
    if opts.trace {
        trainer
            .engine()
            .enable_conformance(ConformanceConfig::default());
    }
    let ckpt_dir = opts.work_dir.join(format!("ckpt-{k}"));
    let warm = tracer.begin("setup.warmup", span);
    let t = Instant::now();
    let mut warm_losses = Vec::with_capacity(WARMUP_OPS);
    for batch in &batches[..WARMUP_OPS] {
        let rec = run_op(opts.workload, &mut trainer, batch, &ckpt_dir, tracer, warm)?;
        warm_losses.push(rec.stats.loss);
    }
    let warmup_op_s = t.elapsed().as_secs_f64() / WARMUP_OPS as f64;
    tracer.end(warm);
    tracer.end(span);
    Ok(SetUp {
        trainer,
        ckpt_dir,
        planned,
        warm_losses,
        figures: SetUpFigures {
            total_s: t0.elapsed().as_secs_f64(),
            plan_verify_s,
            build_s,
            warmup_op_s,
            build_peak: build_peak as f64,
        },
    })
}

/// Route figures of one instrumented step, in `Route::ALL` order.
struct RouteSample {
    ops: [f64; 4],
    bytes: [f64; 4],
    seconds: [f64; 4],
    overlap_ratio: f64,
}

/// Everything the measured window recorded.
#[derive(Default)]
struct Window {
    attempted: u64,
    failed: u64,
    records: Vec<OpRecord>,
    /// Whether engine telemetry recorded each op of `records` (traced run).
    telemetry_on: Vec<bool>,
    route_samples: Vec<RouteSample>,
    /// Cumulative readings taken before every op and once after the last:
    /// window clock, process CPU clock, allocation count and bytes.
    wall_marks: Vec<f64>,
    cpu_marks: Vec<f64>,
    alloc_marks: Vec<f64>,
    alloc_byte_marks: Vec<f64>,
    /// Peak live heap of each op (the peak restarts before every op).
    op_heap_peaks: Vec<f64>,
    /// Highest SSD-tier residency seen between ops (traced run). At rest
    /// only the SSD tier holds anything, and the store keeps no
    /// high-water mark to read the other tiers' from.
    ssd_resident: u64,
}

impl Window {
    fn read_marks(&mut self, start: Instant) {
        let a = alloc::snapshot();
        self.wall_marks.push(start.elapsed().as_secs_f64());
        self.cpu_marks.push(process_cpu_seconds());
        self.alloc_marks.push(a.allocs as f64);
        self.alloc_byte_marks.push(a.bytes as f64);
    }
}

/// The measured window: closed loop, one client.
fn measure_window(
    opts: &RunOptions,
    trainer: &mut RatelTrainer,
    batches: &[OwnedBatch],
    ckpt_dir: &Path,
    tracer: &mut Tracer,
    root: SpanId,
    problems: &mut Vec<String>,
) -> Window {
    let span = tracer.begin("window", root);
    let mut win = Window::default();
    let start = Instant::now();
    loop {
        let i = win.attempted as usize;
        // Traced run: telemetry alternates by block, so the same run
        // prices it (obs.trace_overhead_ratio). The engine has no switch
        // for conformance, which stays on: in a block without telemetry it
        // re-checks the last recorded step, so the zero-findings
        // requirement covers the recorded blocks (and the warm-up ops)
        // only, and the ratio prices recording, not checking.
        let recording = opts.trace && (i / BLOCK_OPS).is_multiple_of(2);
        if opts.trace && i.is_multiple_of(BLOCK_OPS) {
            trainer.engine().telemetry().set_enabled(recording);
        }
        win.read_marks(start);
        let op_span = tracer.begin(format!("op[{i}]"), span);
        let batch = &batches[(i + WARMUP_OPS) % BATCH_RING];
        alloc::reset_peak();
        let result = run_op(opts.workload, trainer, batch, ckpt_dir, tracer, op_span);
        win.op_heap_peaks.push(alloc::snapshot().peak as f64);
        tracer.end(op_span);
        win.attempted += 1;
        match result {
            Ok(rec) => {
                if let Some(tasks) = &rec.stats.tasks {
                    // Self time of the op: what the engine and this loop
                    // spent outside the executor's DAG.
                    tracer.annotate(op_span, "exec_wall_us", tasks.wall_seconds * 1e6);
                    tracer.annotate(op_span, "self_us", (rec.wall_s - tasks.wall_seconds) * 1e6);
                }
                if recording {
                    if let Some(t) = trainer.engine().last_step_telemetry() {
                        let m = &t.route_metrics;
                        win.route_samples.push(RouteSample {
                            ops: std::array::from_fn(|r| m[r].ops as f64),
                            bytes: std::array::from_fn(|r| m[r].bytes as f64),
                            seconds: std::array::from_fn(|r| m[r].seconds),
                            overlap_ratio: t.optimizer_overlap_ratio(),
                        });
                    }
                }
                win.telemetry_on.push(recording);
                win.records.push(rec);
            }
            Err(e) => {
                win.failed += 1;
                problems.push(format!("op {i} failed: {e}"));
            }
        }
        if opts.trace {
            let used = trainer.engine().store().used(Tier::Ssd);
            win.ssd_resident = win.ssd_resident.max(used);
        }
        let done = if opts.smoke {
            win.attempted as usize >= SMOKE_OPS
        } else {
            start.elapsed().as_secs_f64() >= opts.seconds
        };
        if done || win.failed >= MAX_FAILED {
            break;
        }
    }
    win.read_marks(start);
    tracer.end(span);
    win
}

/// Per-op figures from cumulative marks: one value per whole block, the
/// blocks starting every `stride` ops.
///
/// A failed op leaves no record but still advances the marks, so block
/// figures describe a clean window — one with failures is not `correct`.
fn per_op(marks: &[f64], stride: usize) -> Vec<f64> {
    block_deltas(marks, BLOCK_OPS, stride)
        .into_iter()
        .map(|d| d / BLOCK_OPS as f64)
        .collect()
}

fn end_to_end_metrics(w: &Workload, win: &Window, setups: &[SetUpFigures]) -> Vec<(String, f64)> {
    let op_walls: Vec<f64> = win.records.iter().map(|r| r.wall_s).collect();
    // Every run of 8 consecutive ops, not just the aligned ones: a 20 s
    // window of `ckpt-gen` holds two aligned blocks and sixteen runs.
    let tokens_per_s: Vec<f64> = per_op(&win.wall_marks, 1)
        .iter()
        .map(|s| w.tokens_per_op() as f64 / s)
        .collect();
    // The highest the live heap gets: while an engine is built, or in the
    // typical op. Medians on both sides — which blobs happen to be in
    // flight together varies from op to op, and one rare coincidence
    // should not decide the number.
    let peak_heap = setup_median(setups, |s| s.build_peak).max(median(&win.op_heap_peaks));
    vec![
        ("setup_s".into(), setup_median(setups, |s| s.total_s)),
        ("step_s_p50".into(), median(&op_walls)),
        ("tokens_per_s".into(), median(&tokens_per_s)),
        ("peak_heap_mb".into(), peak_heap / MB),
    ]
}

fn checkpoint_generation_bytes(dir: &Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0.0;
    };
    let (mut bytes, mut generations) = (0u64, 0u64);
    for entry in entries.flatten() {
        bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
        if entry.file_name().to_string_lossy().starts_with("manifest-") {
            generations += 1;
        }
    }
    bytes as f64 / generations.max(1) as f64
}

/// Inputs of the per-layer metrics besides the window.
struct LayerInputs<'a> {
    workload: &'a Workload,
    setups: &'a [SetUpFigures],
    probe: &'a probes::Probes,
    ckpt_dir: &'a Path,
    loss_final: f32,
    spin_ms: [f64; 2],
    work_dir_tmpfs: bool,
}

fn per_layer_metrics(win: &Window, inp: &LayerInputs<'_>) -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push((name.to_string(), value));
    let probe = inp.probe;

    put("tensor.gemm_gflops", probe.gemm_gflops);
    put("tensor.attn_fwd_s", probe.attn_fwd_s);
    put("tensor.attn_bwd_s", probe.attn_bwd_s);
    put("tensor.adam_melem_per_s", probe.adam_melem_per_s);
    put("tensor.f16_codec_gbps", probe.f16_codec_gbps);

    // storage: exact byte counts from every step; op counts and route
    // time from the steps telemetry recorded.
    let steps: Vec<&StepStats> = win.records.iter().map(|r| &r.stats).collect();
    for (r, tag) in ROUTE_TAGS.iter().enumerate() {
        let bytes: Vec<f64> = steps
            .iter()
            .map(|s| s.traffic.bytes(Route::ALL[r]) as f64)
            .collect();
        put(&format!("storage.bytes_per_step.{tag}"), median(&bytes));
    }
    let route_column =
        |f: &dyn Fn(&RouteSample) -> f64| -> Vec<f64> { win.route_samples.iter().map(f).collect() };
    for (r, tag) in ROUTE_TAGS.iter().enumerate() {
        let ops = route_column(&|s| s.ops[r]);
        put(&format!("storage.ops_per_step.{tag}"), median(&ops));
    }
    for (r, tag) in ROUTE_TAGS.iter().enumerate() {
        let seconds = route_column(&|s| s.seconds[r]);
        put(&format!("storage.busy_s.{tag}"), median(&seconds));
    }
    for (r, tag) in ROUTE_TAGS.iter().enumerate() {
        let bytes: f64 = route_column(&|s| s.bytes[r]).iter().sum();
        let seconds: f64 = route_column(&|s| s.seconds[r]).iter().sum();
        let gbps = if seconds > 0.0 {
            bytes / seconds / 1e9
        } else {
            0.0
        };
        put(&format!("storage.gbps.{tag}"), gbps);
    }
    let fault_total =
        |f: &dyn Fn(&StepStats) -> u64| -> f64 { steps.iter().map(|s| f(s) as f64).sum() };
    put(
        "storage.retries_per_step",
        fault_total(&|s| s.fault_stats.retries) / steps.len().max(1) as f64,
    );
    put("storage.giveups", fault_total(&|s| s.fault_stats.give_ups));
    put(
        "storage.spills",
        fault_total(&|s| s.fault_stats.host_spills),
    );
    put("storage.tier_peak_mb.ssd", win.ssd_resident as f64 / MB);
    put("storage.probe_put_ssd_gbps", probe.put_ssd_gbps);
    put("storage.probe_read_ssd_gbps", probe.read_ssd_gbps);
    put("storage.probe_move_h2g_gbps", probe.move_h2g_gbps);

    // executor: the breakdown every step returns, with the wall time of
    // the `step()` call it belongs to.
    let tasks: Vec<(&TaskBreakdown, f64)> = win
        .records
        .iter()
        .filter_map(|r| r.stats.tasks.as_ref().map(|t| (t, r.step_wall_s)))
        .collect();
    let over_tasks = |f: &dyn Fn(&TaskBreakdown, f64) -> f64| -> f64 {
        median(
            &tasks
                .iter()
                .map(|(t, wall)| f(t, *wall))
                .collect::<Vec<_>>(),
        )
    };
    put(
        "executor.tasks_per_step",
        over_tasks(&|t, _| t.tasks_total as f64),
    );
    for (class, tag) in POOL_CLASSES.iter().zip(POOL_TAGS) {
        put(
            &format!("executor.busy_s.{tag}"),
            over_tasks(&|t, _| t.pool(*class).map_or(0.0, |p| p.busy_seconds)),
        );
    }
    for (class, tag) in POOL_CLASSES.iter().zip(POOL_TAGS) {
        put(
            &format!("executor.util.{tag}"),
            over_tasks(&|t, _| {
                t.pool(*class).map_or(0.0, |p| {
                    p.busy_seconds / (p.workers as f64 * t.wall_seconds)
                })
            }),
        );
    }
    put(
        "executor.critical_path_s",
        over_tasks(&|t, _| t.critical_path_seconds),
    );
    put(
        "executor.slack_s",
        over_tasks(&|t, _| t.wall_seconds - t.critical_path_seconds),
    );
    put(
        "executor.outside_s",
        over_tasks(&|t, wall| wall - t.wall_seconds),
    );
    put("executor.dispatch_us_per_task", probe.dispatch_us_per_task);
    put(
        "optimizer.overlap_ratio",
        median(&route_column(&|s| s.overlap_ratio)),
    );

    let cycles: Vec<&Cycle> = win
        .records
        .iter()
        .filter_map(|r| r.cycle.as_ref())
        .collect();
    let over_cycles = |f: &dyn Fn(&Cycle) -> f64| -> f64 {
        median(&cycles.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let save_s = over_cycles(&|c| c.save_s);
    let ckpt_bytes = match inp.workload.op {
        OpKind::CkptGen => checkpoint_generation_bytes(inp.ckpt_dir),
        OpKind::Step => 0.0,
    };
    put("checkpoint.save_s_p50", save_s);
    put("checkpoint.load_s_p50", over_cycles(&|c| c.load_s));
    put("checkpoint.mb", ckpt_bytes / MB);
    put(
        "checkpoint.save_gbps",
        if save_s > 0.0 {
            ckpt_bytes / save_s / 1e9
        } else {
            0.0
        },
    );

    // CPU time and allocation counts come from the blocks with telemetry
    // off: span recording costs both, the engine's steady state is the
    // subject.
    let quiet_blocks = |marks: &[f64]| -> Vec<f64> {
        let all = per_op(marks, BLOCK_OPS);
        let quiet: Vec<f64> = all.iter().copied().skip(1).step_by(2).collect();
        if quiet.is_empty() {
            all
        } else {
            quiet
        }
    };
    let op_walls: Vec<f64> = win.records.iter().map(|r| r.wall_s).collect();
    put(
        "engine.cpu_s_per_step",
        median(&quiet_blocks(&win.cpu_marks)),
    );
    put(
        "engine.allocs_per_step",
        median(&quiet_blocks(&win.alloc_marks)),
    );
    put(
        "engine.alloc_mb_per_step",
        median(&quiet_blocks(&win.alloc_byte_marks)) / MB,
    );
    put("engine.step_s_p90", percentile(&op_walls, 0.9));
    put("engine.step_s_max", percentile(&op_walls, 1.0));
    put(
        "engine.gen_ms_per_token",
        over_cycles(&|c| c.gen_s) * 1e3 / GEN_NEW as f64,
    );
    put(
        "engine.eval_s_p50",
        median(&cycles.iter().flat_map(|c| c.eval_s).collect::<Vec<_>>()),
    );
    put(
        "engine.plan_verify_s",
        setup_median(inp.setups, |s| s.plan_verify_s),
    );
    put("engine.build_s", setup_median(inp.setups, |s| s.build_s));
    put(
        "engine.warmup_step_s",
        setup_median(inp.setups, |s| s.warmup_op_s),
    );
    put("engine.loss_final", inp.loss_final as f64);

    let walls_where = |on: bool| -> Vec<f64> {
        op_walls
            .iter()
            .zip(&win.telemetry_on)
            .filter(|(_, &t)| t == on)
            .map(|(w, _)| *w)
            .collect()
    };
    let (on, off) = (walls_where(true), walls_where(false));
    put(
        "obs.trace_overhead_ratio",
        if on.is_empty() || off.is_empty() {
            0.0
        } else {
            median(&on) / median(&off)
        },
    );

    put(
        "env.nproc",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    put("env.tensor_threads", ratel_tensor::num_threads() as f64);
    put("env.workers_per_pool", probe.workers_per_pool as f64);
    put("env.ssd_dir_tmpfs", f64::from(u8::from(inp.work_dir_tmpfs)));
    put("env.spin_ms_before", inp.spin_ms[0]);
    put("env.spin_ms_after", inp.spin_ms[1]);
    metrics
}

pub fn run(opts: &RunOptions, process_start: Instant) -> Result<Outcome, RatelError> {
    let w = opts.workload;
    let mut tracer = Tracer::new(opts.trace, process_start);
    let root = tracer.begin(format!("run {}", w.name), 0);
    let mut problems = Vec::new();

    let batches: Vec<OwnedBatch> = (0..BATCH_RING as u64)
        .map(|i| {
            let seed = opts.seed.wrapping_mul(BATCH_RING as u64).wrapping_add(i);
            random_batch(&w.model, seed)
        })
        .collect();
    let spin_before = spin_ms();

    // The oracle: in-memory training of the same model on the same
    // batches, outside every timed region. Dropped before any peak is
    // read (each set-up and op restarts the peak), so its memory does not
    // mask the engine's.
    let oracle_losses: Vec<f32> = {
        let mut oracle = ReferenceTrainer::new(w.model, opts.seed, AdamParams::default());
        batches[..WARMUP_OPS]
            .iter()
            .map(|(tokens, targets)| oracle.train_step(tokens, targets))
            .collect()
    };

    let mut kept: Option<SetUp> = None;
    let mut setups: Vec<SetUpFigures> = Vec::new();
    for k in 0..if opts.smoke { 1 } else { SETUPS } {
        // The previous engine goes first (its SSD files with it), outside
        // the timed set-up.
        drop(kept.take());
        let s = set_up(opts, k, &batches, &mut tracer, root)?;
        let bitwise = s
            .warm_losses
            .iter()
            .zip(&oracle_losses)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !bitwise {
            problems.push(format!(
                "set-up {k}: warm-up losses {:?} differ from the in-memory reference {:?}",
                s.warm_losses, oracle_losses
            ));
        }
        setups.push(s.figures);
        kept = Some(s);
    }
    let SetUp {
        mut trainer,
        ckpt_dir,
        planned,
        ..
    } = kept.expect("at least one set-up ran");

    let win = measure_window(
        opts,
        &mut trainer,
        &batches,
        &ckpt_dir,
        &mut tracer,
        root,
        &mut problems,
    );
    let spin_after = spin_ms();

    // Correctness of what the window produced.
    for (i, rec) in win.records.iter().enumerate() {
        if !rec.stats.loss.is_finite() {
            problems.push(format!("op {i}: loss {} is not finite", rec.stats.loss));
        }
        let moved: [u64; 4] = std::array::from_fn(|r| rec.stats.traffic.bytes(Route::ALL[r]));
        if moved != planned {
            problems.push(format!(
                "op {i}: moved {moved:?} B, the plan says {planned:?} B"
            ));
        }
        if rec.cycle.as_ref().is_some_and(|c| !c.restored_bitwise) {
            problems.push(format!(
                "op {i}: eval after load_checkpoint differs from eval before save_checkpoint"
            ));
        }
    }
    if opts.trace {
        let findings = trainer.engine().total_findings();
        if findings != 0 {
            problems.push(format!(
                "{findings} conformance findings, last: {:?}",
                trainer.engine().conformance_findings()
            ));
        }
    }
    let loss_final = win
        .records
        .get(LOSS_OP)
        .or(win.records.last())
        .map_or(f32::NAN, |r| r.stats.loss);

    let metrics = if opts.trace {
        let probe = probes::run(opts, &builder(opts), &mut tracer, root)?;
        per_layer_metrics(
            &win,
            &LayerInputs {
                workload: w,
                setups: &setups,
                probe: &probe,
                ckpt_dir: &ckpt_dir,
                loss_final,
                spin_ms: [spin_before, spin_after],
                work_dir_tmpfs: opts.work_dir_tmpfs,
            },
        )
    } else {
        end_to_end_metrics(w, &win, &setups)
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    tracer.end(root);
    Ok(Outcome {
        correct: win.failed == 0 && !win.records.is_empty() && problems.is_empty(),
        attempted: win.attempted,
        failed: win.failed,
        metrics,
        problems,
        loss_final,
        tracer,
    })
}
