//! Simulation results: makespan, per-resource busy time, per-stage windows
//! and utilizations — the raw material for the paper's Fig. 1 breakdowns.

use crate::graph::{ResourceId, Stage, TaskGraph, TaskId};

/// Busy-time accounting for one resource.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUsage {
    /// Resource name as registered with the graph.
    pub name: String,
    /// Total seconds the resource was serving tasks.
    pub busy: f64,
    /// Busy seconds attributed to each stage (indexed by `Stage::ALL`).
    pub busy_by_stage: [f64; 3],
}

/// Timing of one stage across the whole iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageReport {
    /// Stage this row describes.
    pub stage: Stage,
    /// Earliest task start in the stage (0 if the stage is empty).
    pub start: f64,
    /// Latest task finish in the stage.
    pub end: f64,
}

impl StageReport {
    /// Wall-clock span of the stage window.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// One task's slot in the execution timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// The task.
    pub task: TaskId,
    /// Resource it ran on.
    pub resource_id: ResourceId,
    /// Resource name as registered with the graph.
    pub resource: String,
    /// Stage tag.
    pub stage: Stage,
    /// Start time (seconds).
    pub start: f64,
    /// Finish time (seconds).
    pub finish: f64,
    /// Optional label from the graph builder.
    pub label: Option<String>,
}

impl TimelineEntry {
    /// Seconds the task occupied its resource.
    pub fn duration(&self) -> f64 {
        (self.finish - self.start).max(0.0)
    }

    /// The label, or a generated `task N` fallback.
    pub fn display_label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| format!("task {}", self.task.0))
    }
}

/// The full result of simulating a task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total wall-clock time until the last task finished.
    pub makespan: f64,
    /// Per-resource busy accounting, indexed by `ResourceId`.
    pub resources: Vec<ResourceUsage>,
    /// Per-stage windows, indexed as `Stage::ALL`.
    pub stages: [StageReport; 3],
    start: Vec<f64>,
    finish: Vec<f64>,
    timeline: Vec<TimelineEntry>,
}

impl SimReport {
    pub(crate) fn build(graph: &TaskGraph, start: &[f64], finish: &[f64]) -> Self {
        let makespan = finish.iter().copied().fold(0.0, f64::max);

        let mut resources: Vec<ResourceUsage> = graph
            .resources
            .iter()
            .map(|name| ResourceUsage {
                name: name.clone(),
                busy: 0.0,
                busy_by_stage: [0.0; 3],
            })
            .collect();

        let stage_index = |s: Stage| s.index();

        let mut windows: [(f64, f64); 3] = [(f64::INFINITY, 0.0); 3];
        for (i, t) in graph.tasks.iter().enumerate() {
            let r = &mut resources[t.resource.0];
            r.busy += t.service;
            let si = stage_index(t.stage);
            r.busy_by_stage[si] += t.service;
            windows[si].0 = windows[si].0.min(start[i]);
            windows[si].1 = windows[si].1.max(finish[i]);
        }

        let stages = [0, 1, 2].map(|si| {
            let (s, e) = windows[si];
            StageReport {
                stage: Stage::ALL[si],
                start: if s.is_finite() { s } else { 0.0 },
                end: e,
            }
        });

        let mut timeline: Vec<TimelineEntry> = graph
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TimelineEntry {
                task: TaskId(i),
                resource_id: t.resource,
                resource: graph.resources[t.resource.0].clone(),
                stage: t.stage,
                start: start[i],
                finish: finish[i],
                label: t.label.clone(),
            })
            .collect();
        timeline.sort_by(|a, b| a.start.total_cmp(&b.start));

        SimReport {
            makespan,
            resources,
            stages,
            start: start.to_vec(),
            finish: finish.to_vec(),
            timeline,
        }
    }

    /// The execution timeline, sorted by start time.
    pub fn timeline(&self) -> &[TimelineEntry] {
        &self.timeline
    }

    /// Renders an ASCII Gantt chart, one row per resource, `width`
    /// character cells across the makespan. Cell glyphs encode the busy
    /// stage: `F` forward, `B` backward, `O` optimizer, `.` idle.
    pub fn render_gantt(&self, width: usize) -> String {
        crate::trace::Timeline::from_sim(self).gantt(width)
    }

    /// Start time of a task.
    pub fn task_start(&self, id: TaskId) -> f64 {
        self.start[id.0]
    }

    /// Finish time of a task.
    pub fn task_finish(&self, id: TaskId) -> f64 {
        self.finish[id.0]
    }

    /// Busy fraction of `resource` over the whole makespan (0 if empty).
    pub fn utilization(&self, resource: ResourceId) -> f64 {
        if self.makespan == 0.0 {
            0.0
        } else {
            self.resources[resource.0].busy / self.makespan
        }
    }

    /// Busy fraction of `resource` within a stage's window — the paper's
    /// per-stage "PCIe utilization" numbers in Fig. 1.
    pub fn stage_utilization(&self, resource: ResourceId, stage: Stage) -> f64 {
        let si = stage.index();
        let d = self.stages[si].duration();
        if d == 0.0 {
            0.0
        } else {
            self.resources[resource.0].busy_by_stage[si] / d
        }
    }

    /// The stage window report for `stage`.
    pub fn stage(&self, stage: Stage) -> StageReport {
        let si = stage.index();
        self.stages[si]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::graph::TaskGraph;

    #[test]
    fn stage_windows_and_utilization() {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let pcie = g.add_resource("pcie");
        let f = g.add_task(gpu, 2.0, Stage::Forward, &[]);
        let t = g.add_task(pcie, 1.0, Stage::Forward, &[f]);
        let b = g.add_task(gpu, 4.0, Stage::Backward, &[t]);
        let _ = b;
        let r = simulate(&g);
        assert_eq!(r.makespan, 7.0);
        assert_eq!(r.stage(Stage::Forward).start, 0.0);
        assert_eq!(r.stage(Stage::Forward).end, 3.0);
        assert_eq!(r.stage(Stage::Backward).duration(), 4.0);
        // GPU busy 2s of the 3s forward window.
        assert!((r.stage_utilization(gpu, Stage::Forward) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.stage_utilization(gpu, Stage::Backward), 1.0);
        assert_eq!(r.stage_utilization(pcie, Stage::Backward), 0.0);
        // Whole-run utilization: gpu busy 6 of 7 seconds.
        assert!((r.utilization(gpu) - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stage_reports_zero() {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        g.add_task(gpu, 1.0, Stage::Forward, &[]);
        let r = simulate(&g);
        assert_eq!(r.stage(Stage::Optimizer).duration(), 0.0);
        assert_eq!(r.stage_utilization(gpu, Stage::Optimizer), 0.0);
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use crate::engine::simulate;
    use crate::graph::TaskGraph;

    fn demo_report() -> SimReport {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let pcie = g.add_resource("pcie");
        let f = g.add_task(gpu, 2.0, Stage::Forward, &[]);
        g.set_label(f, "fwd block0");
        let t = g.add_task(pcie, 1.0, Stage::Forward, &[f]);
        g.add_task(gpu, 3.0, Stage::Backward, &[t]);
        simulate(&g)
    }

    #[test]
    fn timeline_is_sorted_and_labeled() {
        let r = demo_report();
        let tl = r.timeline();
        assert_eq!(tl.len(), 3);
        for w in tl.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert_eq!(tl[0].label.as_deref(), Some("fwd block0"));
        assert_eq!(tl[0].resource, "gpu");
        assert_eq!(tl[1].start, 2.0);
    }

    #[test]
    fn gantt_rows_cover_busy_spans() {
        let r = demo_report();
        let chart = r.render_gantt(60);
        let gpu_row = chart
            .lines()
            .find(|l| l.trim_start().starts_with("gpu"))
            .unwrap();
        assert!(gpu_row.contains('F') && gpu_row.contains('B'));
        let pcie_row = chart
            .lines()
            .find(|l| l.trim_start().starts_with("pcie"))
            .unwrap();
        assert!(pcie_row.contains('F') && !pcie_row.contains('B'));
    }
}
