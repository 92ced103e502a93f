//! The dispatch policy: which ready task a resource runs next.
//!
//! One state machine, no threads and no clock, driven by both
//! [`crate::simulate`] (with its event clock) and the engine's executor
//! (with worker threads and the wall clock): whatever one predicts about
//! who waits on which resource is what the other does.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{ResourceId, TaskGraph, TaskId};

/// A ready task, ordered by (rank, ready time, id).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ready {
    rank: u32,
    at: f64,
    id: TaskId,
}

impl Eq for Ready {}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.rank.cmp(&other.rank))
            .then(self.at.total_cmp(&other.at))
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Dependency counts and per-pool ready sets of one run over a
/// [`TaskGraph`].
///
/// A task's pool is its graph resource. A task is ready once its last
/// dependency completed, at that completion's time (sources at 0). Each
/// pool has `width` slots: [`next`](Self::next) hands out the pool's
/// ready task of least (rank, ready time, id) while a slot is free, and
/// [`complete`](Self::complete) frees the slot and readies the task's
/// dependents. A task's rank is the issue order its plan set
/// ([`TaskGraph::set_rank`]); where every rank is 0 — the figures'
/// schedules and the baselines — a resource at width 1 serves its ready
/// tasks one at a time in ready order, a FIFO stream or DMA queue.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    pool_of: Vec<ResourceId>,
    rank: Vec<u32>,
    /// Tasks waiting on each task.
    dependents: Vec<Vec<TaskId>>,
    /// Dependencies each task still waits for.
    waiting_on: Vec<usize>,
    ready: Vec<BinaryHeap<Reverse<Ready>>>,
    in_flight: Vec<usize>,
    width: usize,
    completed: usize,
}

impl Dispatcher {
    /// A run over `graph` with `width` slots per resource, its sources
    /// ready at time 0.
    ///
    /// # Panics
    /// If `width` is zero.
    pub fn new(graph: &TaskGraph, width: usize) -> Self {
        assert!(width >= 1, "a pool needs at least one slot");
        let n = graph.len();
        let mut dependents = vec![Vec::new(); n];
        let mut ready: Vec<_> = graph.resource_ids().map(|_| BinaryHeap::new()).collect();
        for t in graph.task_ids() {
            for d in graph.deps(t) {
                dependents[d.0].push(t);
            }
            if graph.deps(t).is_empty() {
                ready[graph.resource(t).0].push(Reverse(Ready {
                    rank: graph.rank(t),
                    at: 0.0,
                    id: t,
                }));
            }
        }
        Dispatcher {
            pool_of: graph.task_ids().map(|t| graph.resource(t)).collect(),
            rank: graph.task_ids().map(|t| graph.rank(t)).collect(),
            dependents,
            waiting_on: graph.task_ids().map(|t| graph.deps(t).len()).collect(),
            in_flight: vec![0; ready.len()],
            ready,
            width,
            completed: 0,
        }
    }

    /// Hands out `pool`'s next ready task and takes one of its slots, or
    /// `None` when the pool has no ready task or no free slot.
    pub fn next(&mut self, pool: ResourceId) -> Option<TaskId> {
        if self.in_flight[pool.0] == self.width {
            return None;
        }
        let Reverse(Ready { id, .. }) = self.ready[pool.0].pop()?;
        self.in_flight[pool.0] += 1;
        Some(id)
    }

    /// Records that `task`, handed out by [`next`](Self::next), completed
    /// at time `at`: frees its slot and readies, at `at` and in ascending
    /// id, each dependent whose last dependency it was, telling
    /// `readied` each one's pool.
    pub fn complete(&mut self, task: TaskId, at: f64, mut readied: impl FnMut(ResourceId)) {
        self.in_flight[self.pool_of[task.0].0] -= 1;
        self.completed += 1;
        for &d in &self.dependents[task.0] {
            self.waiting_on[d.0] -= 1;
            if self.waiting_on[d.0] == 0 {
                let pool = self.pool_of[d.0];
                self.ready[pool.0].push(Reverse(Ready {
                    rank: self.rank[d.0],
                    at,
                    id: d,
                }));
                readied(pool);
            }
        }
    }

    /// Whether every task of the graph has completed.
    pub fn finished(&self) -> bool {
        self.completed == self.pool_of.len()
    }

    /// How many tasks have completed.
    pub fn completed(&self) -> usize {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Stage;

    /// Two pools: a diamond on `a` with one side on `b`, and a fan-in on
    /// `b` of three sources and the diamond's join.
    fn diamond_and_fan_in() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_resource("a");
        let b = g.add_resource("b");
        let top = g.add_task(a, 1.0, Stage::Forward, &[]);
        let left = g.add_task(a, 1.0, Stage::Forward, &[top]);
        let right = g.add_task(b, 1.0, Stage::Forward, &[top]);
        let join = g.add_task(a, 1.0, Stage::Forward, &[left, right]);
        let sources: Vec<TaskId> = (0..3)
            .map(|_| g.add_task(b, 1.0, Stage::Backward, &[]))
            .collect();
        g.add_task(b, 1.0, Stage::Backward, &[&sources[..], &[join]].concat());
        g
    }

    /// Walks every order in which the tasks in flight can complete, each
    /// state handing out everything the dispatcher allows first. Returns
    /// the number of complete orders.
    fn explore(
        g: &TaskGraph,
        width: usize,
        mut d: Dispatcher,
        mut handed: Vec<bool>,
        done: Vec<bool>,
        mut in_flight: Vec<TaskId>,
    ) -> usize {
        for pool in g.resource_ids() {
            while let Some(t) = d.next(pool) {
                assert!(!handed[t.0], "{t:?} handed out twice");
                assert!(
                    g.deps(t).iter().all(|dep| done[dep.0]),
                    "{t:?} handed out before its dependencies completed"
                );
                handed[t.0] = true;
                in_flight.push(t);
            }
            let busy = in_flight.iter().filter(|t| g.resource(**t) == pool).count();
            assert!(busy <= width, "{busy} tasks in flight on a pool of {width}");
        }
        if in_flight.is_empty() {
            assert!(handed.iter().all(|&h| h), "a task was never handed out");
            assert!(d.finished());
            return 1;
        }
        let mut orders = 0;
        for i in 0..in_flight.len() {
            let (mut d, mut done, mut rest) = (d.clone(), done.clone(), in_flight.clone());
            let t = rest.swap_remove(i);
            assert!(!d.finished(), "finished with {t:?} still in flight");
            d.complete(t, d.completed() as f64, |_| {});
            done[t.0] = true;
            orders += explore(g, width, d, handed.clone(), done, rest);
        }
        orders
    }

    #[test]
    fn every_completion_order_honours_edges_and_slots() {
        let mut g = diamond_and_fan_in();
        let n = g.len();
        let counts = |g: &TaskGraph| -> Vec<usize> {
            (1..=3)
                .map(|width| {
                    let d = Dispatcher::new(g, width);
                    explore(g, width, d, vec![false; n], vec![false; n], Vec::new())
                })
                .collect()
        };
        // Wider pools put more tasks in flight at once, so more orders.
        let fifo = counts(&g);
        assert!(fifo[0] > 1 && fifo[0] < fifo[1] && fifo[1] < fifo[2]);
        // An issue order changes who goes first, never what may: the
        // fan-in's sources rank in reverse, and the diamond's side on `b`
        // ahead of them all.
        for (t, rank) in [(2, 0), (4, 3), (5, 2), (6, 1)] {
            g.set_rank(TaskId(t), rank);
        }
        let ranked = counts(&g);
        assert!(ranked[0] > 1 && ranked[0] < ranked[1] && ranked[1] < ranked[2]);
    }

    #[test]
    fn a_pool_picks_by_rank_then_ready_time_then_id() {
        let mut g = TaskGraph::new();
        let a = g.add_resource("a");
        let b = g.add_resource("b");
        let first = g.add_task(a, 1.0, Stage::Forward, &[]);
        let early = g.add_task(b, 1.0, Stage::Forward, &[]);
        let late = g.add_task(b, 1.0, Stage::Forward, &[first]);
        let tie_late = g.add_task(b, 1.0, Stage::Forward, &[first]);
        let tie_early = g.add_task(b, 1.0, Stage::Forward, &[]);
        let tie_low = g.add_task(b, 1.0, Stage::Forward, &[]);
        g.set_rank(early, 2);
        g.set_rank(late, 1);
        for t in [tie_late, tie_early, tie_low] {
            g.set_rank(t, 3);
        }
        let mut d = Dispatcher::new(&g, 1);
        assert_eq!(d.next(a), Some(first));
        d.complete(first, 1.0, |_| {});
        // `late` became ready after `early`, but ranks lower.
        let mut order = Vec::new();
        while let Some(t) = d.next(b) {
            order.push(t);
            d.complete(t, 2.0 + order.len() as f64, |_| {});
        }
        // Among equal ranks: ready at 0 before ready at 1, then by id.
        assert_eq!(order, [late, early, tie_early, tie_low, tie_late]);
        assert!(d.finished());
    }

    #[test]
    fn a_pool_picks_by_ready_time_then_id() {
        let mut g = TaskGraph::new();
        let a = g.add_resource("a");
        let b = g.add_resource("b");
        let first = g.add_task(a, 1.0, Stage::Forward, &[]);
        let second = g.add_task(a, 1.0, Stage::Forward, &[]);
        let y = g.add_task(b, 1.0, Stage::Forward, &[first]);
        let z = g.add_task(b, 1.0, Stage::Forward, &[first]);
        let x = g.add_task(b, 1.0, Stage::Forward, &[second]);
        let mut d = Dispatcher::new(&g, 2);
        assert_eq!(
            (d.next(a), d.next(a), d.next(a)),
            (Some(first), Some(second), None)
        );
        let mut readied = Vec::new();
        d.complete(second, 1.0, |p| readied.push(p));
        d.complete(first, 2.0, |p| readied.push(p));
        assert_eq!(readied, [b, b, b]);
        // `x` became ready first, though its id is the highest; `y` and
        // `z` together, in id order.
        assert_eq!((d.next(b), d.next(b), d.next(b)), (Some(x), Some(y), None));
        d.complete(x, 3.0, |_| {});
        assert_eq!(d.next(b), Some(z));
        d.complete(y, 3.0, |_| {});
        assert!(!d.finished());
        d.complete(z, 4.0, |_| {});
        assert!(d.finished());
    }
}
