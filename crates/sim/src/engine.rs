//! The discrete-event execution engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dispatch::Dispatcher;
use crate::graph::{TaskGraph, TaskId};
use crate::report::SimReport;

/// A completion event in the global event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Completion {
    at: f64,
    id: TaskId,
}

impl Eq for Completion {}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.total_cmp(&other.at).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Executes `graph` to completion and returns timing and utilization data.
///
/// Each resource serves its ready tasks one at a time in (rank, ready
/// time, id) order. Where every rank is 0 — the figures' schedules and
/// the baselines — that is ready order, a FIFO DMA/stream model. The
/// simulation is deterministic for a given graph.
pub fn simulate(graph: &TaskGraph) -> SimReport {
    simulate_width(graph, 1)
}

/// [`simulate`] with `width` tasks of each resource in service at once:
/// the [`Dispatcher`] the engine's executor runs `width` workers per
/// pool over, driven by the event clock.
///
/// # Panics
/// If `width` is zero.
pub fn simulate_width(graph: &TaskGraph, width: usize) -> SimReport {
    let n = graph.len();
    let mut dispatch = Dispatcher::new(graph, width);
    let mut start = vec![f64::NAN; n];
    let mut finish = vec![f64::NAN; n];
    let mut events: BinaryHeap<Reverse<Completion>> = BinaryHeap::new();
    let mut now = 0.0;
    loop {
        for r in graph.resource_ids() {
            while let Some(id) = dispatch.next(r) {
                start[id.0] = now;
                finish[id.0] = now + graph.service(id);
                events.push(Reverse(Completion {
                    at: finish[id.0],
                    id,
                }));
            }
        }
        let Some(Reverse(Completion { at, id })) = events.pop() else {
            break;
        };
        now = at;
        dispatch.complete(id, at, |_| {});
    }

    assert!(
        dispatch.finished(),
        "deadlock: {} of {n} tasks completed (cycle or orphaned dependency)",
        dispatch.completed()
    );

    SimReport::build(graph, &start, &finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Stage, TaskGraph};

    #[test]
    fn empty_graph_has_zero_makespan() {
        let g = TaskGraph::new();
        let r = simulate(&g);
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn serial_chain_sums_service_times() {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let a = g.add_task(gpu, 1.0, Stage::Forward, &[]);
        let b = g.add_task(gpu, 2.0, Stage::Forward, &[a]);
        let _ = g.add_task(gpu, 3.0, Stage::Forward, &[b]);
        assert_eq!(simulate(&g).makespan, 6.0);
    }

    #[test]
    fn independent_tasks_on_distinct_resources_overlap() {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let pcie = g.add_resource("pcie");
        g.add_task(gpu, 4.0, Stage::Forward, &[]);
        g.add_task(pcie, 3.0, Stage::Forward, &[]);
        assert_eq!(simulate(&g).makespan, 4.0);
    }

    #[test]
    fn contention_serializes_on_one_resource() {
        let mut g = TaskGraph::new();
        let pcie = g.add_resource("pcie");
        g.add_task(pcie, 2.0, Stage::Forward, &[]);
        g.add_task(pcie, 2.0, Stage::Forward, &[]);
        g.add_task(pcie, 2.0, Stage::Forward, &[]);
        // One slot serves the three in turn; each slot more serves one
        // more of them at once.
        for (width, makespan) in [(1, 6.0), (2, 4.0), (3, 2.0)] {
            assert_eq!(
                simulate_width(&g, width).makespan,
                makespan,
                "width {width}"
            );
        }
    }

    #[test]
    fn fifo_order_is_by_ready_time() {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let pcie = g.add_resource("pcie");
        // Producer chain: a (1s) then b (3s) on gpu; transfers depend on
        // each and contend on pcie. t_a is ready at 1, t_b at 4.
        let a = g.add_task(gpu, 1.0, Stage::Forward, &[]);
        let b = g.add_task(gpu, 3.0, Stage::Forward, &[a]);
        let ta = g.add_task(pcie, 5.0, Stage::Forward, &[a]);
        let tb = g.add_task(pcie, 1.0, Stage::Forward, &[b]);
        let r = simulate(&g);
        // ta starts at 1 and holds pcie until 6; tb then runs 6..7.
        assert_eq!(r.task_start(ta), 1.0);
        assert_eq!(r.task_finish(ta), 6.0);
        assert_eq!(r.task_start(tb), 6.0);
        assert_eq!(r.makespan, 7.0);
    }

    #[test]
    fn pipelining_overlaps_compute_and_transfer() {
        // Classic two-stage pipeline: n layers of (compute 1s -> transfer
        // 1s). Makespan should be n + 1, not 2n.
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let pcie = g.add_resource("pcie");
        let mut prev_compute = None;
        for _ in 0..8 {
            let deps: Vec<_> = prev_compute.into_iter().collect();
            let c = g.add_task(gpu, 1.0, Stage::Forward, &deps);
            g.add_task(pcie, 1.0, Stage::Forward, &[c]);
            prev_compute = Some(c);
        }
        assert_eq!(simulate(&g).makespan, 9.0);
    }

    #[test]
    fn diamond_dependencies_join_correctly() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let src = g.add_task(r1, 1.0, Stage::Forward, &[]);
        let left = g.add_task(r1, 2.0, Stage::Forward, &[src]);
        let right = g.add_task(r2, 5.0, Stage::Forward, &[src]);
        let join = g.add_task(r1, 1.0, Stage::Backward, &[left, right]);
        let r = simulate(&g);
        assert_eq!(r.task_start(join), 6.0);
        assert_eq!(r.makespan, 7.0);
    }

    #[test]
    fn zero_service_tasks_are_fine() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("a");
        let a = g.add_task(r1, 0.0, Stage::Forward, &[]);
        let b = g.add_task(r1, 1.0, Stage::Forward, &[a]);
        let r = simulate(&g);
        assert_eq!(r.task_finish(b), 1.0);
    }
}
