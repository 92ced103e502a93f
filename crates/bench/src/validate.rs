//! `ratel-bench validate`: sim-vs-real cross-validation of the engine.
//!
//! The simulator predicts iteration timelines from an [`IterationSpec`];
//! the engine actually executes training steps through the tiered store.
//! This module closes the loop: it runs an instrumented
//! [`RatelEngine::train_step`] with per-route throttles derived from a
//! [`ServerConfig`] (scaled down so a test-sized model produces
//! measurable transfers), takes the engine's own movement plan,
//! simulates it with the same link rates plus compute rates calibrated
//! from a warm-up step and the pacing edges and issue ranks the engine
//! dispatches it under, and reports per-stage predicted-vs-measured
//! deltas and the kernels the GPU idled longest before.
//!
//! Two classes of agreement are checked:
//!
//! * **bytes — exact.** The spec's planned per-route byte totals must
//!   equal the engine's measured [`TrafficSnapshot`] to the byte; both
//!   sides derive from the same P16/P32/OS32 inventory (per layer 12P
//!   reads and 14P writes, or the moments' 8P each way beside a
//!   host-resident master; 2P stages and gradients) and activation
//!   shapes, so any drift is a modelling bug.
//! * **times — within tolerance.** Transfer times follow bytes/rate
//!   under throttling, and the simulation dispatches the paced DAG the
//!   way the executor does — the same dispatcher, at the engine's
//!   `workers_per_pool` tasks per resource at once, so two SSD tasks
//!   overlap in both, each at its route's full rate. What is left is
//!   glue the calibration does not see and thread scheduling noise.

use ratel::engine::data::random_batch;
use ratel::engine::telemetry::{kernel_waits_by, StepTelemetry};
use ratel::engine::{ActDecision, ExecutionOptions, RatelEngine};
use ratel::schedule::{IterationSpec, LinkRates, OptimizerKind, Placement};
use ratel::{Ratel, TrainingPlan};
use ratel_hw::ServerConfig;
use ratel_sim::{
    simulate_width, MemTier, SimReport, SpanKind, TaskGraph, TaskId, TaskKind, Timeline,
};
use ratel_storage::{Route, Tier, TrafficSnapshot};
use ratel_tensor::GptConfig;

/// What to validate: one engine configuration and a throttle level.
#[derive(Debug, Clone)]
pub struct ValidateConfig {
    /// Model shape name (`tiny` or `small`).
    pub model: String,
    /// Measured steps after the calibration warm-up.
    pub steps: usize,
    /// Fraction of the server's link bandwidths applied as route
    /// throttles (small models need slow links for measurable
    /// transfers).
    pub throttle: f64,
    /// Relative per-stage timing tolerance for the ok/MISMATCH verdict.
    pub tolerance: f64,
    /// Chrome-trace output path (simulated + measured timelines).
    pub out: Option<String>,
    /// Activation decisions and tier capacities of the engine under test.
    pub shape: EngineShape,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        ValidateConfig {
            model: "tiny".into(),
            steps: 1,
            throttle: 1e-4,
            tolerance: 0.5,
            out: None,
            shape: EngineShape::default(),
        }
    }
}

/// What `validate` and `obs` vary about the engine they build besides
/// the model: `--decisions`, `--gpu-capacity` and `--host-capacity`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineShape {
    /// Activation decisions, cycled over the blocks.
    pub decisions: Vec<ActDecision>,
    /// GPU arena capacity in bytes (`None` = unbounded).
    pub gpu_capacity: Option<u64>,
    /// Host pool capacity in bytes. `None` = unbounded: every master
    /// host-resident; any capacity runs the paper's all-SSD placement.
    pub host_capacity: Option<u64>,
}

impl Default for EngineShape {
    /// Everything swapped to host, no arena or host-pool bound.
    fn default() -> Self {
        EngineShape {
            decisions: vec![ActDecision::SwapToHost],
            gpu_capacity: None,
            host_capacity: None,
        }
    }
}

impl EngineShape {
    /// This shape under the smallest host pool [`Ratel::plan`] accepts
    /// for it on `model` ([`Ratel::min_host_capacity`]): the paper's
    /// all-SSD placement, paced as tightly as it runs.
    ///
    /// # Errors
    /// What the builder refuses about the shape.
    pub fn at_min_host_capacity(self, model: GptConfig) -> Result<EngineShape, String> {
        let need = validate_builder(model, &self)
            .min_host_capacity()
            .map_err(|e| format!("engine: {e}"))?;
        Ok(EngineShape {
            host_capacity: Some(need),
            ..self
        })
    }

    /// Parses a `--decisions` list: `ssd`, `host` and `recompute`,
    /// comma-separated.
    pub fn parse_decisions(list: &str) -> Result<Vec<ActDecision>, String> {
        list.split(',')
            .map(|d| match d {
                "ssd" => Ok(ActDecision::SwapToSsd),
                "host" => Ok(ActDecision::SwapToHost),
                "recompute" => Ok(ActDecision::Recompute),
                other => Err(format!(
                    "unknown activation decision {other:?} (ssd|host|recompute)"
                )),
            })
            .collect()
    }
}

/// Resolves a validate model name to an executable shape.
pub fn validate_model(name: &str) -> Option<GptConfig> {
    match name {
        "tiny" => Some(GptConfig::tiny()),
        "small" => Some(GptConfig {
            vocab: 96,
            seq: 24,
            hidden: 48,
            heads: 6,
            layers: 4,
            batch: 2,
        }),
        _ => None,
    }
}

/// One stage's predicted vs measured wall time.
#[derive(Debug, Clone, Copy)]
pub struct StageDelta {
    /// Stage name (`forward`, `backward+optimizer`, `step`).
    pub name: &'static str,
    /// Simulator prediction, seconds.
    pub predicted: f64,
    /// Engine measurement, seconds (mean over the measured steps).
    pub measured: f64,
}

impl StageDelta {
    /// Relative error of the prediction against the measurement.
    pub fn relative_error(&self) -> f64 {
        if self.measured == 0.0 {
            return if self.predicted == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.predicted - self.measured).abs() / self.measured
    }
}

/// One kernel the GPU idled before: the gap measured and simulated.
#[derive(Debug, Clone)]
pub struct KernelGap {
    /// The kernel's label.
    pub kernel: String,
    /// Measured idle seconds before it, in the last measured step.
    pub measured: f64,
    /// Simulated idle seconds before it.
    pub simulated: f64,
    /// The label of the task it waited on, as measured.
    pub waited_on: String,
}

/// How many of the longest measured gaps the report keeps.
const KERNEL_GAPS: usize = 3;

/// Everything one validation run produced.
pub struct ValidateReport {
    /// Spec-planned bytes per route, indexed like [`Route::ALL`].
    pub planned_bytes: [u64; 4],
    /// Engine-measured per-step byte deltas (identical across steps).
    pub measured_bytes: [u64; 4],
    /// Where the plan rests the model states between steps.
    pub placement: Placement,
    /// Per memory tier: the plan's static residency peak and the most
    /// the tier actually held over the run, `(tier, static, measured)`.
    pub tier_peaks: [(MemTier, u64, u64); 2],
    /// Per-stage predicted-vs-measured wall times.
    pub stages: Vec<StageDelta>,
    /// The kernels the GPU idled longest before in the last measured
    /// step, longest first, beside their simulated gaps.
    pub kernel_gaps: Vec<KernelGap>,
    /// Measured optimizer-overlap ratio (§IV-C), mean over steps: the
    /// share of optimizer span time inside the backward stage window.
    pub overlap_ratio: f64,
    /// Achieved vs throttled bandwidth per route: `(route, achieved,
    /// throttle_cap)`; achieved is `None` for idle routes.
    pub bandwidth: Vec<(Route, Option<f64>, f64)>,
    /// The simulated timeline (named `simulated`).
    pub sim_timeline: Timeline,
    /// The last measured step's timeline (named `measured`).
    pub measured_timeline: Timeline,
    /// The raw simulation report.
    pub sim: SimReport,
    /// The last measured step's telemetry.
    pub telemetry: StepTelemetry,
}

impl ValidateReport {
    /// Human-readable reasons this run fails validation under
    /// `tolerance`: any planned/measured byte mismatch and any tier that
    /// held more than the plan's static peak (always bugs) plus any
    /// stage whose relative error exceeds the tolerance.
    pub fn failures(&self, tolerance: f64) -> Vec<String> {
        let mut out = Vec::new();
        for (i, route) in Route::ALL.iter().enumerate() {
            if self.planned_bytes[i] != self.measured_bytes[i] {
                out.push(format!(
                    "{}: planned {} bytes but measured {}",
                    route.name(),
                    self.planned_bytes[i],
                    self.measured_bytes[i]
                ));
            }
        }
        for (tier, bound, measured) in self.tier_peaks {
            if measured > bound {
                out.push(format!(
                    "{} tier held {measured} bytes, over the plan's static peak of {bound}",
                    tier.name()
                ));
            }
        }
        for stage in &self.stages {
            let err = stage.relative_error();
            if err > tolerance {
                out.push(format!(
                    "stage {}: predicted {:.3}s vs measured {:.3}s ({:.0}% off > {:.0}% tolerance)",
                    stage.name,
                    stage.predicted,
                    stage.measured,
                    100.0 * err,
                    100.0 * tolerance
                ));
            }
        }
        out
    }
}

/// Per-route throttle caps from a server config: PCIe per direction,
/// SSD-array read/write — all scaled by `factor`.
pub fn route_caps(server: &ServerConfig, factor: f64) -> [(Route, f64); 4] {
    [
        (Route::GpuToHost, server.pcie.bandwidth_per_dir * factor),
        (Route::HostToGpu, server.pcie.bandwidth_per_dir * factor),
        (Route::HostToSsd, server.ssds.write_bw() * factor),
        (Route::SsdToHost, server.ssds.read_bw() * factor),
    ]
}

/// The builder of the engine a validation run executes: `shape`'s
/// decisions and capacities on the paper's optimized schedule.
pub fn validate_builder(model: GptConfig, shape: &EngineShape) -> Ratel {
    let decisions = shape.decisions.iter().copied().cycle().take(model.layers);
    let mut builder = Ratel::init(model).activation_decisions(decisions.collect());
    if let Some(bytes) = shape.gpu_capacity {
        builder = builder.gpu_capacity(bytes);
    }
    if let Some(bytes) = shape.host_capacity {
        builder = builder.host_capacity(bytes);
    }
    builder
}

/// Builds the engine a validation run executes ([`validate_builder`]) —
/// which is also what the spec models. Shared by the `validate` and
/// `obs` smokes.
///
/// # Errors
/// What [`Ratel::build`] refuses (an arena or host pool below the bytes
/// the plan's static residency peak needs), or the engine's own
/// construction error.
pub fn validate_engine(model: GptConfig, shape: &EngineShape) -> Result<RatelEngine, String> {
    let trainer = validate_builder(model, shape)
        .build()
        .map_err(|e| format!("engine: {e}"))?;
    Ok(trainer.into_engine())
}

/// What lowering added to the plan's own graph: the pacing edges and the
/// issue ranks the engine dispatches under. The simulation carries them
/// too, so it times the DAG that runs, in the order it runs — without
/// them every read the plan lets start early would start at once, and
/// each link would serve its tasks in arrival order.
struct Lowering {
    /// `(task, gate)`: the edges the plan's own graph lacks.
    pacing: Vec<(TaskId, TaskId)>,
    /// Every task's rank, by id.
    ranks: Vec<u32>,
}

impl Lowering {
    fn of(plan: &TrainingPlan) -> Self {
        let (unpaced, _, _) = plan.spec().build();
        let paced = plan.graph();
        let pacing = (paced.task_ids())
            .flat_map(|t| {
                let own = unpaced.deps(t);
                (paced.deps(t).iter())
                    .filter(|d| !own.contains(d))
                    .map(move |&d| (t, d))
                    .collect::<Vec<_>>()
            })
            .collect();
        let ranks = paced.task_ids().map(|t| paced.rank(t)).collect();
        Lowering { pacing, ranks }
    }

    /// Adds the same to `graph`, a rebuild of the plan's own.
    fn apply(&self, graph: &mut TaskGraph) {
        for &(task, gate) in &self.pacing {
            graph.add_dep(task, gate);
        }
        for (t, &rank) in self.ranks.iter().enumerate() {
            graph.set_rank(TaskId(t), rank);
        }
    }
}

/// Calibrated compute rates from a warm-up step's telemetry: per-layer
/// compute *seconds* become the spec's "flops" with `thp_gpu = 1.0`, and
/// the CPU Adam rate is total updated params over optimizer CPU time.
fn calibrate(spec: &mut IterationSpec, warmup: &StepTelemetry) {
    let mut fwd = vec![0.0f64; spec.layers.len()];
    let mut bwd = vec![0.0f64; spec.layers.len()];
    let mut opt_cpu = 0.0f64;
    for (s, t) in warmup.spans.iter().filter_map(|s| Some((s, s.task?))) {
        match t.kind {
            TaskKind::Fwd => fwd[t.layer] += s.seconds(),
            TaskKind::Bwd => bwd[t.layer] += s.seconds(),
            TaskKind::OptCpu => opt_cpu += s.seconds(),
            _ => {}
        }
    }
    let total_params: f64 = spec
        .layers
        .iter()
        .map(|l| match l.optimizer {
            OptimizerKind::CpuOutOfCore { cpu_params, .. } => cpu_params,
            _ => 0.0,
        })
        .sum();
    spec.rates.thp_gpu = 1.0;
    if opt_cpu > 0.0 {
        spec.rates.cpu_params_per_sec = total_params / opt_cpu;
    }
    for (task, (f, b)) in spec.layers.iter_mut().zip(fwd.iter().zip(&bwd)) {
        task.fwd_flops = *f;
        // The measured backward task also decodes the fetched checkpoint
        // and activations; keep only a compute floor so that glue is not
        // charged to the kernels.
        task.bwd_flops = (b - f).max(*f);
    }
}

/// Runs the full validation: calibration step, measured steps, matching
/// simulation, and the cross-check report.
pub fn run(cfg: &ValidateConfig) -> Result<ValidateReport, String> {
    let model =
        validate_model(&cfg.model).ok_or_else(|| format!("unknown model {:?}", cfg.model))?;
    let server = crate::paper_server();
    let caps = route_caps(&server, cfg.throttle);
    let steps = cfg.steps.max(1);

    let plan = validate_builder(model, &cfg.shape)
        .plan()
        .map_err(|e| format!("engine: {e}"))?;
    let lowering = Lowering::of(&plan);
    let ExecutionOptions::Executor(executor) = plan.config().execution;
    let mut engine = (plan.build())
        .map_err(|e| format!("engine: {e}"))?
        .into_engine();
    engine.enable_telemetry();
    let (tokens, targets) = random_batch(&model, 1234);

    // Warm-up step at full speed: calibrates compute rates and pays
    // one-time costs (thread spawning, allocator warm-up).
    engine
        .train_step(&tokens, &targets)
        .map_err(|e| format!("warm-up step: {e}"))?;
    let warmup = engine
        .last_step_telemetry()
        .expect("telemetry enabled")
        .clone();

    // Measured steps under the throttled links.
    for (route, cap) in caps {
        engine.set_route_throttle(route, Some(cap));
    }
    let mut measured_traffic: Option<TrafficSnapshot> = None;
    let mut wall = 0.0f64;
    let mut fwd_s = 0.0f64;
    let mut bwd_opt_s = 0.0f64;
    let mut overlap = 0.0f64;
    for step in 0..steps {
        let stats = engine
            .train_step(&tokens, &targets)
            .map_err(|e| format!("measured step: {e}"))?;
        if let Some(prev) = &measured_traffic {
            for route in Route::ALL {
                if prev.bytes(route) != stats.traffic.bytes(route) {
                    return Err(format!(
                        "step {step}: {route:?} moved {} bytes vs {} in step 0 — \
                         steps should be identical",
                        stats.traffic.bytes(route),
                        prev.bytes(route)
                    ));
                }
            }
        } else {
            measured_traffic = Some(stats.traffic);
        }
        let t = engine.last_step_telemetry().expect("telemetry enabled");
        wall += t.wall_seconds;
        // The measured forward stage is a *wall window* (step start to
        // the last forward span's end, transfers included), predicted the
        // same way below; backward+optimizer is the rest.
        let fwd_end = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Forward)
            .map(|s| s.end)
            .fold(t.step_start, f64::max);
        let fwd_window = fwd_end - t.step_start;
        fwd_s += fwd_window;
        bwd_opt_s += t.wall_seconds - fwd_window;
        // Overlap with the same window semantics: the share of optimizer
        // span time inside the backward *stage window* (first to last
        // backward span). The executor's backward computes are thin
        // slivers paced by throttled transfers, so intersecting spans
        // with spans (`optimizer_overlap_ratio`) would measure
        // coincidence, not the §IV-C claim that the optimizer stage
        // hides inside backward.
        let bwd_window = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Backward)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
                (lo.min(s.start), hi.max(s.end))
            });
        let opt: Vec<(f64, f64)> = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Optimizer)
            .map(|s| (s.start, s.end))
            .collect();
        let opt_total: f64 = opt.iter().map(|(s, e)| e - s).sum();
        if opt_total > 0.0 && bwd_window.0.is_finite() {
            let hidden: f64 = opt
                .iter()
                .map(|(s, e)| (e.min(bwd_window.1) - s.max(bwd_window.0)).max(0.0))
                .sum();
            overlap += hidden / opt_total;
        }
    }
    let measured_traffic = measured_traffic.expect("at least one step");
    let telemetry = engine
        .last_step_telemetry()
        .expect("telemetry enabled")
        .clone();
    let n = steps as f64;

    // The engine's own plan with throttled link rates and calibrated
    // compute.
    let rates = LinkRates {
        bw_g2m: caps[0].1,
        bw_m2g: caps[1].1,
        ssd_write: caps[2].1,
        ssd_read: caps[3].1,
        ..LinkRates::UNIT
    };
    let mut spec = IterationSpec {
        rates,
        ..engine.movement_spec().clone()
    };
    calibrate(&mut spec, &warmup);
    let planned = spec.planned_route_bytes();
    let (mut graph, _, _) = spec.build();
    lowering.apply(&mut graph);
    let sim = simulate_width(&graph, executor.workers_per_pool);

    // Up to the last forward kernel's end, as measured: not the sim's
    // forward stage window, which also spans the offloads that drain
    // after it.
    let sim_fwd = (graph.task_ids())
        .filter(|&t| {
            (graph.meta(t).and_then(|m| m.identity)).is_some_and(|id| id.kind == TaskKind::Fwd)
        })
        .map(|t| sim.task_finish(t))
        .fold(0.0, f64::max);
    let stages = vec![
        StageDelta {
            name: "forward",
            predicted: sim_fwd,
            measured: fwd_s / n,
        },
        StageDelta {
            name: "backward+optimizer",
            predicted: (sim.makespan - sim_fwd).max(0.0),
            measured: bwd_opt_s / n,
        },
        StageDelta {
            name: "step",
            predicted: sim.makespan,
            measured: wall / n,
        },
    ];

    let label = |t: TaskId| graph.label(t).unwrap_or_default().to_string();
    let simulated = kernel_waits_by(&graph, |t| Some((sim.task_start(t), sim.task_finish(t))));
    let mut measured = telemetry.kernel_waits(&graph);
    measured.sort_by(|a, b| b.gap.total_cmp(&a.gap));
    let kernel_gaps = (measured.iter().take(KERNEL_GAPS))
        .map(|w| KernelGap {
            kernel: label(w.kernel),
            measured: w.gap,
            simulated: (simulated.iter())
                .find(|s| s.kernel == w.kernel)
                .map_or(f64::NAN, |s| s.gap),
            waited_on: w.waited_on.map_or_else(|| "-".into(), label),
        })
        .collect();

    let bandwidth = Route::ALL
        .iter()
        .map(|&route| {
            let cap = caps
                .iter()
                .find(|(r, _)| *r == route)
                .map(|(_, c)| *c)
                .expect("all routes capped");
            (
                route,
                telemetry.route_metrics[route.index()].achieved_bandwidth(),
                cap,
            )
        })
        .collect();

    let mut sim_timeline = Timeline::from_sim(&sim);
    sim_timeline.name = "simulated".into();
    let measured_timeline = telemetry.timeline("measured");

    let tier_peaks =
        [(MemTier::Gpu, Tier::Gpu), (MemTier::Host, Tier::Host)].map(|(tier, held)| {
            (
                tier,
                engine.static_peak(tier),
                engine.store().peak_used(held),
            )
        });

    Ok(ValidateReport {
        placement: engine.placement(),
        tier_peaks,
        planned_bytes: planned,
        measured_bytes: Route::ALL.map(|r| measured_traffic.bytes(r)),
        stages,
        kernel_gaps,
        overlap_ratio: overlap / n,
        bandwidth,
        sim_timeline,
        measured_timeline,
        sim,
        telemetry,
    })
}

fn human_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// Renders the validation report as aligned text.
pub fn render(cfg: &ValidateConfig, report: &ValidateReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "sim-vs-real validation: model={} steps={} throttle={:.0e} states={:?}\n\n",
        cfg.model, cfg.steps, cfg.throttle, report.placement
    ));
    out.push_str("per-route bytes (planned == measured required):\n");
    for (i, route) in Route::ALL.iter().enumerate() {
        let ok = if report.planned_bytes[i] == report.measured_bytes[i] {
            "ok"
        } else {
            "MISMATCH"
        };
        out.push_str(&format!(
            "  {:<10} planned {:>12} measured {:>12}  {}\n",
            route.name(),
            report.planned_bytes[i],
            report.measured_bytes[i],
            ok
        ));
    }
    out.push_str("\nper-tier residency (measured peak <= static peak required):\n");
    for (tier, bound, measured) in report.tier_peaks {
        let ok = if measured <= bound { "ok" } else { "OVER" };
        out.push_str(&format!(
            "  {:<10} static  {bound:>12} measured {measured:>12}  {ok}\n",
            tier.name()
        ));
    }
    out.push_str("\nper-stage wall time (predicted vs measured):\n");
    for s in &report.stages {
        let verdict = if s.relative_error() <= cfg.tolerance {
            "ok"
        } else {
            "MISMATCH"
        };
        out.push_str(&format!(
            "  {:<20} predicted {:>8.3}s measured {:>8.3}s  ({:>5.1}% off, {})\n",
            s.name,
            s.predicted,
            s.measured,
            100.0 * s.relative_error(),
            verdict
        ));
    }
    out.push_str("\nlongest GPU idle before a kernel (measured vs simulated):\n");
    for g in &report.kernel_gaps {
        out.push_str(&format!(
            "  {:<20} measured {:>8.1}ms simulated {:>8.1}ms  waited on {}\n",
            g.kernel,
            1e3 * g.measured,
            1e3 * g.simulated,
            g.waited_on
        ));
    }
    out.push_str(&format!(
        "\noptimizer overlap ratio: {:.2} (share of optimizer time hidden under backward)\n",
        report.overlap_ratio
    ));
    out.push_str("\nachieved vs throttled bandwidth:\n");
    for (route, achieved, cap) in &report.bandwidth {
        match achieved {
            Some(a) => out.push_str(&format!(
                "  {:<10} {:>12}/s of {:>12}/s cap ({:.0}%)\n",
                route.name(),
                human_bytes(*a),
                human_bytes(*cap),
                100.0 * a / cap
            )),
            None => out.push_str(&format!("  {:<10} idle\n", route.name())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratel_tensor::BlockSaved;

    #[test]
    fn planned_bytes_match_the_closed_form_of_either_placement() {
        let model = GptConfig::tiny();
        let rows = (model.batch * model.seq) as u64;
        let ckpt = 2 * rows * model.hidden as u64;
        let acts =
            2 * BlockSaved::element_count_for(model.batch, model.seq, model.hidden, model.heads)
                as u64;
        let l = model.layers as u64;
        let uncapped = EngineShape::default();
        let all_ssd = uncapped.clone().at_min_host_capacity(model).unwrap();
        // Per parameter on the SSD link, down and up: the moments beside
        // a resident master; P32 + OS32 + P16, and P32 + OS32 plus the
        // P16 stages, under the paper's placement.
        for (shape, resident) in [(uncapped, true), (all_ssd, false)] {
            let engine = validate_engine(model, &shape).unwrap();
            let held = engine.placement() == Placement::HostMaster;
            assert_eq!(held, resident, "{shape:?}");
            let planned = engine.movement_spec().planned_route_bytes();
            let params = engine.total_params() as u64;
            let head = engine.layer_param_count(engine.layer_count() - 1) as u64;
            let stages = 2 * (2 * params - head);
            // Route::ALL order: GpuToHost, HostToGpu, HostToSsd, SsdToHost.
            assert_eq!(planned[0], l * (ckpt + acts) + 2 * params);
            assert_eq!(planned[1], stages + l * (ckpt + acts));
            if resident {
                assert_eq!(planned[2..], [8 * params, 8 * params]);
            } else {
                assert_eq!(planned[2..], [14 * params, 12 * params + stages]);
            }
        }
    }

    #[test]
    fn decisions_cycle_over_the_blocks_and_a_starved_arena_is_refused() {
        let decisions = EngineShape::parse_decisions("ssd,host,recompute").unwrap();
        assert_eq!(
            decisions,
            [
                ActDecision::SwapToSsd,
                ActDecision::SwapToHost,
                ActDecision::Recompute
            ]
        );
        assert!(EngineShape::parse_decisions("ssd,disk").is_err());
        let model = validate_model("small").unwrap();
        let shape = EngineShape {
            decisions,
            gpu_capacity: Some(1 << 20),
            host_capacity: None,
        };
        let engine = validate_engine(model, &shape).unwrap();
        // Four blocks: the SSD decision comes round again, and its blob
        // plans both SSD hops.
        let planned = engine.movement_spec().planned_route_bytes();
        let acts =
            2 * BlockSaved::element_count_for(model.batch, model.seq, model.hidden, model.heads)
                as u64;
        let params = engine.total_params() as u64;
        assert_eq!(planned[2], 8 * params + 2 * acts);
        let starved = EngineShape {
            gpu_capacity: Some(4096),
            ..shape
        };
        let err = validate_engine(model, &starved).err().unwrap();
        assert!(err.contains("gpu capacity"), "{err}");
    }

    #[test]
    fn unknown_model_is_rejected() {
        let cfg = ValidateConfig {
            model: "100B".into(),
            ..ValidateConfig::default()
        };
        assert!(run(&cfg).is_err());
        assert!(validate_model("small").is_some());
    }
}
