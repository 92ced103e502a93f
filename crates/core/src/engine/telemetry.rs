//! Per-step telemetry analysis over the engine's span recorder.
//!
//! The raw substrate lives in `ratel_storage::telemetry` (the store owns
//! the [`TelemetryRecorder`] so its transfer instrumentation sits below
//! the engine). This module interprets one training step's drained spans:
//! per-kind wall-time breakdown, the optimizer-overlap ratio of §IV-C
//! (how much of the active optimizer's work was hidden behind backward),
//! achieved-vs-profiled bandwidth per route, and conversion into a
//! [`ratel_sim::Timeline`] so a *measured* step renders through the same
//! Chrome-trace/ASCII writers as a simulated one.

use ratel_sim::{FlowEvent, SpanKind, TaskGraph, TaskId, TaskKind, Timeline, TimelineSpan};
use ratel_storage::telemetry::{FaultStats, RouteMetrics, SpanRecord, TelemetryRecorder};
use ratel_storage::{Route, TrafficSnapshot};

use crate::profile::HardwareProfile;

/// Wall-time totals per span kind for one step, in seconds. These are
/// *span sums*, not disjoint wall-clock partitions: concurrent spans (an
/// optimizer update under a backward layer) both count in full.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// `fwd` tasks (P16 decode + kernels).
    pub forward: f64,
    /// `bwd` tasks (P16/activation decode, recompute, kernels).
    pub backward: f64,
    /// Optimizer handlers' `opt-cpu` and `opt-write` tasks.
    pub optimizer: f64,
    /// Inter-tier transfer time (sum over all routes).
    pub transfer: f64,
    /// Staging tasks: parameter reads/fetches, activation reloads,
    /// optimizer-state reads.
    pub prefetch: f64,
    /// Everything else (activation/gradient offload tasks, scaler).
    pub other: f64,
}

/// One route's achieved bandwidth next to the profiled figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteBandwidth {
    /// The route.
    pub route: Route,
    /// Measured bytes/second over this step's transfer spans (`None` if
    /// the route was idle).
    pub achieved: Option<f64>,
    /// The profiling stage's figure for the same link, bytes/second.
    pub profiled: f64,
}

/// How long the GPU sat idle before one kernel, and on what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelWait {
    /// The `fwd`/`bwd` task.
    pub kernel: TaskId,
    /// Seconds from the end of the last kernel that ended before it
    /// started (or from the step's start) to its start.
    pub gap: f64,
    /// The dependency whose span ended last: the task the kernel waited
    /// on. `None` for a kernel with no dependency that ran.
    pub waited_on: Option<TaskId>,
}

/// [`KernelWait`]s of every kernel of `graph` that ran, in start order,
/// each task's `(start, end)` in seconds from the step's start given by
/// `interval` (`None`: it did not run). One rule for a measured step
/// ([`StepTelemetry::kernel_waits`]) and a simulated one.
pub fn kernel_waits_by(
    graph: &TaskGraph,
    interval: impl Fn(TaskId) -> Option<(f64, f64)>,
) -> Vec<KernelWait> {
    let is_kernel = |t: TaskId| {
        (graph.meta(t).and_then(|m| m.identity))
            .is_some_and(|id| matches!(id.kind, TaskKind::Fwd | TaskKind::Bwd))
    };
    let mut kernels: Vec<(TaskId, f64, f64)> = (graph.task_ids())
        .filter(|&t| is_kernel(t))
        .filter_map(|t| interval(t).map(|(start, end)| (t, start, end)))
        .collect();
    kernels.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    (kernels.iter())
        .map(|&(kernel, start, _)| {
            let idle_from = (kernels.iter())
                .filter(|&&(k, _, end)| k != kernel && end <= start)
                .map(|&(_, _, end)| end)
                .fold(0.0, f64::max);
            let waited_on = (graph.deps(kernel).iter())
                .filter_map(|&d| interval(d).map(|(_, end)| (d, end)))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .map(|(d, _)| d);
            KernelWait {
                kernel,
                gap: (start - idle_from).max(0.0),
                waited_on,
            }
        })
        .collect()
}

/// Everything the recorder captured for one `train_step`.
#[derive(Debug, Clone)]
pub struct StepTelemetry {
    /// All spans recorded during the step — one per executed task, plus
    /// store transfers and the scaler — timestamps on the recorder clock
    /// (seconds since store creation).
    pub spans: Vec<SpanRecord>,
    /// Per-route byte deltas for the step.
    pub traffic: TrafficSnapshot,
    /// Micro-batches the step ran (1 for a plain step): which of the
    /// plan's DAGs its task spans belong to.
    pub micro_batches: usize,
    /// Recorder-clock time at which the step began.
    pub step_start: f64,
    /// Wall-clock duration of the step.
    pub wall_seconds: f64,
    /// Per-route transfer metrics for this step (ops/bytes/seconds +
    /// latency histograms, deltas of the recorder's cumulative counters),
    /// indexed like [`ratel_storage::Route::ALL`].
    pub route_metrics: [RouteMetrics; 4],
    /// Robustness-counter deltas for this step: SSD retries and
    /// give-ups. Always collected (the underlying counters run even with
    /// tracing off).
    pub fault_stats: FaultStats,
}

/// Merges possibly-overlapping `(start, end)` intervals into a disjoint,
/// sorted set.
fn merge_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of the intersection of two disjoint sorted interval sets.
fn intersection_seconds(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

impl StepTelemetry {
    /// Sums span durations per kind.
    pub fn stage_breakdown(&self) -> StageBreakdown {
        let mut b = StageBreakdown::default();
        for s in &self.spans {
            let slot = match s.kind {
                SpanKind::Forward => &mut b.forward,
                SpanKind::Backward => &mut b.backward,
                SpanKind::Optimizer => &mut b.optimizer,
                SpanKind::Transfer => &mut b.transfer,
                SpanKind::Prefetch => &mut b.prefetch,
                SpanKind::Other => &mut b.other,
            };
            *slot += s.seconds();
        }
        b
    }

    /// Merged, disjoint intervals of all spans of `kind`.
    fn kind_intervals(&self, kind: SpanKind) -> Vec<(f64, f64)> {
        merge_intervals(
            self.spans
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| (s.start, s.end))
                .collect(),
        )
    }

    /// The fraction of optimizer span time that ran *while backward was
    /// running* — the paper's active-offloading claim (§IV-C) that the
    /// optimizer hides behind backward. 0 when no optimizer span was
    /// recorded (e.g. every layer frozen). A span's kind follows its
    /// task, not the outcome: the `opt-cpu`/`opt-write` tasks of a
    /// handler skipped on gradient overflow count as optimizer time too.
    pub fn optimizer_overlap_ratio(&self) -> f64 {
        let opt = self.kind_intervals(SpanKind::Optimizer);
        let bwd = self.kind_intervals(SpanKind::Backward);
        let opt_total: f64 = opt.iter().map(|(s, e)| e - s).sum();
        if opt_total == 0.0 {
            return 0.0;
        }
        intersection_seconds(&opt, &bwd) / opt_total
    }

    /// The GPU's idle gap before each `fwd`/`bwd` span of the step, and
    /// the task each kernel waited on ([`kernel_waits_by`]), in start
    /// order. `graph` is the DAG the step ran — for an accumulated step,
    /// the one of its [`micro_batches`](Self::micro_batches).
    pub fn kernel_waits(&self, graph: &TaskGraph) -> Vec<KernelWait> {
        let mut interval = vec![None; graph.len()];
        for s in &self.spans {
            if let Some(t) = s.task.filter(|t| t.task.0 < graph.len()) {
                interval[t.task.0] = Some((s.start - self.step_start, s.end - self.step_start));
            }
        }
        kernel_waits_by(graph, |t| interval[t.0])
    }

    /// Achieved bandwidth per route (from this step's cumulative metrics)
    /// against the profiled link speeds, indexed like [`Route::ALL`].
    pub fn achieved_vs_profiled(&self, profile: &HardwareProfile) -> [RouteBandwidth; 4] {
        Route::ALL.map(|route| RouteBandwidth {
            route,
            achieved: self.route_metrics[route.index()].achieved_bandwidth(),
            profiled: match route {
                Route::GpuToHost | Route::HostToGpu => profile.bw_gpu,
                Route::HostToSsd => profile.bw_m2s,
                Route::SsdToHost => profile.bw_s2m,
            },
        })
    }

    /// Converts the step's spans into a substrate-neutral timeline named
    /// `name`, timestamps rebased so the step starts at t=0. Tracks
    /// appear in first-span order: the graph's resource names carry the
    /// task spans (each with its task id), route tracks the transfers.
    /// Each parameter-fetch span links to the compute span that consumes
    /// its staged blob via a [`FlowEvent`] arrow, so the Chrome trace
    /// shows *which* forward/backward each fetch fed.
    pub fn timeline(&self, name: &str) -> Timeline {
        let mut tl = Timeline::new(name);
        for s in &self.spans {
            let track = tl.track(&s.track);
            tl.spans.push(TimelineSpan {
                track,
                label: s.label.clone(),
                kind: s.kind,
                start: s.start - self.step_start,
                end: s.end - self.step_start,
                task: s.task.map(|t| t.task.0),
                bytes: s.bytes,
            });
        }
        tl.flows = self.prefetch_flows(&tl);
        tl
    }

    /// One arrow per parameter fetch: the `fwd-fetch`/`bwd-fetch` span
    /// of layer *l* feeds the first `fwd`/`bwd` span of the same *l* to
    /// start once it ended — its own micro-batch's, since a later
    /// micro-batch stages the layer again only after that consumer ran.
    /// `tl.spans` is index-aligned with `self.spans`. Arrow endpoints sit
    /// at span midpoints so Perfetto binds each to its enclosing slice.
    fn prefetch_flows(&self, tl: &Timeline) -> Vec<FlowEvent> {
        let mid = |i: usize| 0.5 * (tl.spans[i].start + tl.spans[i].end);
        let mut flows = Vec::new();
        for (i, fetch) in self.spans.iter().enumerate() {
            let Some(f) = fetch.task else { continue };
            let consumer_kind = match f.kind {
                TaskKind::FwdFetch => TaskKind::Fwd,
                TaskKind::BwdFetch => TaskKind::Bwd,
                _ => continue,
            };
            let consumer = (self.spans.iter().enumerate())
                .filter(|(_, s)| {
                    s.start >= fetch.end
                        && s.task
                            .is_some_and(|c| c.kind == consumer_kind && c.layer == f.layer)
                })
                .min_by(|(_, a), (_, b)| a.start.total_cmp(&b.start))
                .map(|(c, _)| c);
            if let Some(c) = consumer {
                flows.push(FlowEvent {
                    name: fetch.label.clone(),
                    from_track: tl.spans[i].track,
                    from_ts: mid(i),
                    to_track: tl.spans[c].track,
                    to_ts: mid(c),
                });
            }
        }
        flows
    }

    /// Builds the step record by draining `recorder` — called by the
    /// engine at the end of an instrumented step. `metrics_before` is the
    /// recorder's cumulative route metrics at step start; the stored
    /// metrics are the step's delta against it.
    pub(crate) fn collect(
        recorder: &TelemetryRecorder,
        traffic: TrafficSnapshot,
        micro_batches: usize,
        step_start: f64,
        wall_seconds: f64,
        metrics_before: &[RouteMetrics; 4],
        fault_stats: FaultStats,
    ) -> Self {
        let now = recorder.route_metrics();
        let route_metrics = [
            now[0].since(&metrics_before[0]),
            now[1].since(&metrics_before[1]),
            now[2].since(&metrics_before[2]),
            now[3].since(&metrics_before[3]),
        ];
        StepTelemetry {
            spans: recorder.drain_spans(),
            traffic,
            micro_batches,
            step_start,
            wall_seconds,
            route_metrics,
            fault_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratel_sim::{TaskId, TaskRef};

    /// The span of task `id` (`kind`, `layer`), shaped like the engine's
    /// one recording site emits it.
    fn task_span(id: usize, kind: TaskKind, layer: usize, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            track: if matches!(kind, TaskKind::Fwd | TaskKind::Bwd) {
                "gpu0".into()
            } else {
                "pcie-m2g0".into()
            },
            kind: kind.span_kind(),
            task: Some(TaskRef {
                task: TaskId(id),
                kind,
                layer,
            }),
            label: format!("{} L{layer}", kind.name()),
            start,
            end,
            bytes: None,
            route: None,
        }
    }

    fn telemetry(spans: Vec<SpanRecord>) -> StepTelemetry {
        StepTelemetry {
            spans,
            traffic: TrafficSnapshot::default(),
            micro_batches: 1,
            step_start: 0.0,
            wall_seconds: 1.0,
            route_metrics: Default::default(),
            fault_stats: FaultStats::default(),
        }
    }

    #[test]
    fn a_kernel_names_the_gap_before_it_and_what_it_waited_on() {
        use ratel_sim::{OpClass, Stage, TaskIdentity, TaskMeta};
        // fwd L0 -> act-off L0 -> act-up L0 -> bwd L0, and fwd L1 ->
        // bwd L1 -> bwd L0; a transfer span with no task besides.
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu0");
        let pcie = g.add_resource("pcie");
        let mut add = |resource, kind: TaskKind, layer, deps: &[TaskId]| {
            let t = g.add_task(resource, 1.0, Stage::Forward, deps);
            let meta = TaskMeta {
                identity: Some(TaskIdentity::shared(kind, layer)),
                ..TaskMeta::new(OpClass::GpuCompute, 0)
            };
            g.set_meta(t, meta);
            t
        };
        let fwd0 = add(gpu, TaskKind::Fwd, 0, &[]);
        let off = add(pcie, TaskKind::ActOff, 0, &[fwd0]);
        let fwd1 = add(gpu, TaskKind::Fwd, 1, &[fwd0]);
        let bwd1 = add(gpu, TaskKind::Bwd, 1, &[fwd1]);
        let up = add(pcie, TaskKind::ActUp, 0, &[off]);
        let bwd0 = add(gpu, TaskKind::Bwd, 0, &[bwd1, up]);
        let mut t = telemetry(vec![
            task_span(fwd0.0, TaskKind::Fwd, 0, 10.5, 11.0),
            task_span(off.0, TaskKind::ActOff, 0, 11.0, 14.0),
            task_span(fwd1.0, TaskKind::Fwd, 1, 11.0, 12.0),
            task_span(bwd1.0, TaskKind::Bwd, 1, 12.0, 13.0),
            task_span(up.0, TaskKind::ActUp, 0, 14.0, 16.0),
            task_span(bwd0.0, TaskKind::Bwd, 0, 16.5, 17.0),
        ]);
        t.spans.push(SpanRecord {
            task: None,
            kind: SpanKind::Transfer,
            ..task_span(0, TaskKind::ActOff, 0, 11.0, 14.0)
        });
        t.step_start = 10.0;
        let waits = t.kernel_waits(&g);
        let got: Vec<(TaskId, f64, Option<TaskId>)> = waits
            .iter()
            .map(|w| (w.kernel, w.gap, w.waited_on))
            .collect();
        assert_eq!(
            got,
            [
                (fwd0, 0.5, None),
                (fwd1, 0.0, Some(fwd0)),
                (bwd1, 0.0, Some(fwd1)),
                // Idle from `bwd L1`'s end until `act-up L0` landed, and
                // half a second more.
                (bwd0, 3.5, Some(up)),
            ]
        );
        // A simulated step of the same graph goes through the same rule.
        let ends = [1.0, 2.0, 2.0, 3.0, 4.0, 5.0];
        let sim = kernel_waits_by(&g, |t| Some((ends[t.0] - 1.0, ends[t.0])));
        assert_eq!(sim[3].gap, 1.0);
    }

    #[test]
    fn interval_merge_and_intersection() {
        let merged = merge_intervals(vec![(2.0, 3.0), (0.0, 1.0), (0.5, 1.5), (3.0, 4.0)]);
        assert_eq!(merged, vec![(0.0, 1.5), (2.0, 4.0)]);
        let other = vec![(1.0, 2.5), (3.5, 5.0)];
        // [1,1.5) + [2,2.5) + [3.5,4) = 1.5
        assert!((intersection_seconds(&merged, &other) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_counts_optimizer_time_under_backward() {
        let t = telemetry(vec![
            task_span(0, TaskKind::Bwd, 2, 0.0, 4.0),
            task_span(1, TaskKind::OptCpu, 2, 1.0, 3.0), // fully inside
            task_span(2, TaskKind::OptWrite, 2, 4.0, 6.0), // fully outside
        ]);
        // 2s of 4s optimizer time overlapped.
        assert!((t.optimizer_overlap_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_is_zero_without_optimizer_spans() {
        let t = telemetry(vec![task_span(0, TaskKind::Bwd, 0, 0.0, 1.0)]);
        assert_eq!(t.optimizer_overlap_ratio(), 0.0);
    }

    #[test]
    fn breakdown_sums_per_kind() {
        let transfer = SpanRecord {
            track: "ssd->host".into(),
            kind: SpanKind::Transfer,
            task: None,
            label: "layer0/p16".into(),
            start: 0.0,
            end: 0.25,
            bytes: Some(64),
            route: Some(Route::SsdToHost),
        };
        let t = telemetry(vec![
            task_span(0, TaskKind::Fwd, 0, 0.0, 1.0),
            task_span(1, TaskKind::Fwd, 1, 1.0, 1.5),
            task_span(2, TaskKind::Bwd, 1, 2.0, 3.0),
            task_span(3, TaskKind::OptRead, 1, 2.0, 2.5),
            transfer,
        ]);
        let b = t.stage_breakdown();
        assert!((b.forward - 1.5).abs() < 1e-12);
        assert!((b.backward - 1.0).abs() < 1e-12);
        assert!((b.transfer - 0.25).abs() < 1e-12);
        assert!((b.prefetch - 0.5).abs() < 1e-12);
        assert_eq!(b.optimizer, 0.0);
    }

    #[test]
    fn prefetch_flows_link_each_fetch_to_its_own_consumer() {
        // Layer 1 is fetched once for forward and once for backward, in
        // both micro-batches of an accumulated step. The spans arrive
        // backward first and the later micro-batch first: each fetch
        // links to the first consumer to start once it ended.
        let t = telemetry(vec![
            task_span(17, TaskKind::BwdFetch, 1, 12.0, 12.5),
            task_span(18, TaskKind::Bwd, 1, 13.0, 14.0),
            task_span(12, TaskKind::FwdFetch, 1, 10.0, 10.5),
            task_span(13, TaskKind::Fwd, 1, 11.0, 12.0),
            task_span(7, TaskKind::BwdFetch, 1, 2.0, 2.5),
            task_span(8, TaskKind::Bwd, 1, 3.0, 4.0),
            task_span(2, TaskKind::FwdFetch, 1, 0.0, 0.5),
            task_span(3, TaskKind::Fwd, 1, 1.0, 2.0),
            // Another layer's compute never attracts layer 1's arrows.
            task_span(4, TaskKind::Fwd, 2, 0.6, 0.7),
        ]);
        let tl = t.timeline("measured");
        let mut ends: Vec<(f64, f64)> = tl.flows.iter().map(|f| (f.from_ts, f.to_ts)).collect();
        ends.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Midpoints: fwd-fetch -> fwd, bwd-fetch -> bwd, per micro-batch.
        assert_eq!(
            ends,
            vec![(0.25, 1.5), (2.25, 3.5), (10.25, 11.5), (12.25, 13.5)]
        );
        assert_eq!(tl.flows[0].name, "bwd-fetch L1");
        // Arrows cross from the PCIe track to the GPU track.
        assert!(tl.flows.iter().all(|f| f.from_track != f.to_track));
    }

    #[test]
    fn timeline_rebases_to_step_start_and_keeps_task_ids() {
        let mut t = telemetry(vec![task_span(5, TaskKind::Fwd, 0, 10.0, 11.0)]);
        t.step_start = 10.0;
        let tl = t.timeline("measured");
        assert_eq!(tl.name, "measured");
        assert_eq!(tl.tracks, vec!["gpu0"]);
        assert_eq!(tl.spans[0].start, 0.0);
        assert_eq!(tl.spans[0].end, 1.0);
        assert_eq!(tl.spans[0].kind, SpanKind::Forward);
        assert_eq!(tl.spans[0].task, Some(5));
    }
}
