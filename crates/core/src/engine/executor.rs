//! The resource-pool executor: runs a verified task graph for real.
//!
//! The simulator's [`TaskGraph`] is not only a prediction — it is what
//! the engine runs: one worker pool per [`ResourceClass`] (GPU kernels,
//! CPU optimizer math, each PCIe direction, the SSD array) pulls *ready*
//! tasks — dependency count zero — from the graph, runs them through a
//! [`TaskAction`], and decrements its dependents' counters, unlocking
//! downstream work the moment its last input lands. Ordering is exactly the verified DAG's:
//! the executor adds no scheduling policy of its own beyond FIFO within
//! a pool, so whatever `ratel-verify` proved about the plan (no
//! read-before-write, no overwrite-under-reader, residency within
//! capacity) holds for the execution too.
//!
//! The executor is deliberately generic: it knows nothing about
//! training. The engine supplies the graph (its movement plan) and an
//! action that maps each task id onto tensor kernels and tiered-store
//! transfers; tests supply toy graphs and counters.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use ratel_check::sync::{Condvar, Mutex};

use ratel_sim::meta::ResourceClass;
use ratel_sim::{TaskGraph, TaskId};

use crate::error::RatelError;

/// What the executor runs: maps a [`TaskId`] of the graph being executed
/// onto real work (kernels, transfers, optimizer math).
///
/// Implementations are shared across worker threads; interior
/// mutability (locks around per-task slots) is the implementor's
/// responsibility. The executor guarantees that `run(t)` is called at
/// most once per task, only after every dependency of `t` completed
/// successfully.
pub trait TaskAction: Sync {
    /// Executes one task. An error aborts the whole run: no new tasks
    /// are dispatched and [`Executor::run`] returns the first error.
    fn run(&self, task: TaskId) -> Result<(), RatelError>;

    /// Told, once `run(task)` returned `Ok`, the interval the executor
    /// charged to the task — the very instants
    /// [`PoolStats::busy_seconds`] adds up, so an action that records its
    /// spans from them agrees with the breakdown by construction. Does
    /// nothing by default.
    fn completed(&self, _task: TaskId, _start: Instant, _end: Instant) {}
}

impl<F> TaskAction for F
where
    F: Fn(TaskId) -> Result<(), RatelError> + Sync,
{
    fn run(&self, task: TaskId) -> Result<(), RatelError> {
        self(task)
    }
}

/// Per-pool execution stats for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolStats {
    /// The resource class this pool served.
    pub class: ResourceClass,
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Tasks the pool completed.
    pub tasks: u64,
    /// Total seconds workers spent inside task actions (summed across
    /// workers, so it can exceed wall time when workers overlap).
    pub busy_seconds: f64,
}

/// Per-task breakdown of one executed graph, attached to
/// [`crate::engine::StepStats`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskBreakdown {
    /// Stats per worker pool, in [`POOL_CLASSES`] order; pools with no
    /// tasks are omitted.
    pub pools: Vec<PoolStats>,
    /// The dependency-chain lower bound on this run's wall time: the
    /// longest path through the graph weighted by *measured* task
    /// durations. Wall time close to this means the schedule, not the
    /// executor, set the pace.
    pub critical_path_seconds: f64,
    /// Wall-clock seconds from dispatch of the first task to completion
    /// of the last.
    pub wall_seconds: f64,
    /// Total tasks executed.
    pub tasks_total: u64,
}

impl TaskBreakdown {
    /// Stats of the pool serving `class`, if it ran any tasks. The
    /// [`ResourceClass::Overhead`] bookkeeping class folds into the CPU
    /// pool.
    pub fn pool(&self, class: ResourceClass) -> Option<&PoolStats> {
        let class = POOL_CLASSES[pool_index(class)];
        self.pools.iter().find(|p| p.class == class)
    }

    /// Busy seconds summed over every pool.
    pub fn busy_seconds_total(&self) -> f64 {
        self.pools.iter().map(|p| p.busy_seconds).sum()
    }

    /// Folds in the breakdown of another DAG run of the same step (its
    /// micro-batches run back to back): task counts, busy time, critical
    /// path and wall time add up.
    pub(crate) fn absorb(&mut self, other: TaskBreakdown) {
        if self.tasks_total == 0 {
            *self = other;
            return;
        }
        for p in other.pools {
            match self.pools.iter_mut().find(|q| q.class == p.class) {
                Some(q) => {
                    q.workers = q.workers.max(p.workers);
                    q.tasks += p.tasks;
                    q.busy_seconds += p.busy_seconds;
                }
                None => self.pools.push(p),
            }
        }
        self.pools.sort_by_key(|p| pool_index(p.class));
        self.critical_path_seconds += other.critical_path_seconds;
        self.wall_seconds += other.wall_seconds;
        self.tasks_total += other.tasks_total;
    }
}

/// The resource classes that get a worker pool, in display order.
/// [`ResourceClass::Overhead`] tasks (bookkeeping stalls) run on the CPU
/// pool rather than deserving threads of their own.
pub const POOL_CLASSES: [ResourceClass; 5] = [
    ResourceClass::GpuCompute,
    ResourceClass::CpuCompute,
    ResourceClass::PcieG2M,
    ResourceClass::PcieM2G,
    ResourceClass::SsdArray,
];

fn pool_index(class: ResourceClass) -> usize {
    match class {
        ResourceClass::GpuCompute => 0,
        ResourceClass::CpuCompute | ResourceClass::Overhead => 1,
        ResourceClass::PcieG2M => 2,
        ResourceClass::PcieM2G => 3,
        ResourceClass::SsdArray => 4,
    }
}

/// One pool's ready queue. Workers block on the condvar; every terminal
/// event (abort, last task done) wakes *all* pools so no worker is left
/// parked.
struct Pool {
    queue: Mutex<VecDeque<usize>>,
    ready: Condvar,
}

/// Static lock/condvar names per pool index, for the `ratel-check`
/// lock-order tracker and exploration witnesses.
const POOL_LOCK_NAMES: [(&str, &str); 5] = [
    ("exec.queue.gpu", "exec.ready.gpu"),
    ("exec.queue.cpu", "exec.ready.cpu"),
    ("exec.queue.pcie_g2m", "exec.ready.pcie_g2m"),
    ("exec.queue.pcie_m2g", "exec.ready.pcie_m2g"),
    ("exec.queue.ssd", "exec.ready.ssd"),
];

impl Pool {
    fn new(idx: usize) -> Self {
        let (queue_name, ready_name) = POOL_LOCK_NAMES[idx];
        Pool {
            queue: Mutex::named(queue_name, VecDeque::new()),
            ready: Condvar::named(ready_name),
        }
    }
}

/// State shared by every worker of one run.
struct Shared {
    pools: Vec<Pool>,
    /// Outstanding dependency count per task; a task becomes ready when
    /// its counter hits zero.
    remaining: Vec<AtomicUsize>,
    /// Forward adjacency: tasks waiting on each task.
    dependents: Vec<Vec<usize>>,
    /// Pool index per task.
    pool_of: Vec<usize>,
    /// Measured seconds per completed task (f64 bits).
    durations: Vec<AtomicU64>,
    /// Completed task count; `done == total` ends the run.
    done: AtomicUsize,
    total: usize,
    /// Set on the first action error; stops dispatch everywhere.
    abort: AtomicBool,
    error: Mutex<Option<RatelError>>,
}

impl Shared {
    /// Wakes every parked worker. Taking each queue lock first closes
    /// the race with a worker that checked the exit conditions and is
    /// about to wait.
    fn wake_all(&self) {
        for pool in &self.pools {
            drop(pool.queue.lock());
            pool.ready.notify_all();
        }
    }

    fn enqueue(&self, task: usize) {
        let pool = &self.pools[self.pool_of[task]];
        pool.queue.lock().push_back(task);
        pool.ready.notify_one();
    }

    /// Records a successful task: stores its duration, unlocks
    /// dependents whose last input this was, and ends the run if it was
    /// the final task.
    fn complete(&self, task: usize, seconds: f64) {
        self.durations[task].store(seconds.to_bits(), Ordering::Relaxed);
        for &d in &self.dependents[task] {
            if self.remaining[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.enqueue(d);
            }
        }
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.wake_all();
        }
    }

    fn fail(&self, error: RatelError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(error);
        }
        drop(slot);
        self.abort.store(true, Ordering::Release);
        self.wake_all();
    }

    fn finished(&self) -> bool {
        self.abort.load(Ordering::Acquire) || self.done.load(Ordering::Acquire) == self.total
    }
}

fn worker(shared: &Shared, pool_idx: usize, action: &dyn TaskAction) {
    let pool = &shared.pools[pool_idx];
    loop {
        let task = {
            let mut queue = pool.queue.lock();
            loop {
                if shared.finished() {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                pool.ready.wait(&mut queue);
            }
        };
        let start = Instant::now();
        match action.run(TaskId(task)) {
            Ok(()) => {
                let end = Instant::now();
                shared.complete(task, (end - start).as_secs_f64());
                action.completed(TaskId(task), start, end);
            }
            Err(e) => {
                shared.fail(e);
                return;
            }
        }
    }
}

/// A dependency-counted executor over [`TaskGraph`]s: one FIFO worker
/// pool per [`ResourceClass`], `workers_per_pool` threads each.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    workers_per_pool: usize,
}

impl Executor {
    /// An executor with `workers_per_pool` threads per resource pool.
    ///
    /// # Panics
    /// If `workers_per_pool` is zero.
    pub fn new(workers_per_pool: usize) -> Self {
        assert!(workers_per_pool >= 1, "a pool needs at least one worker");
        Executor { workers_per_pool }
    }

    /// Runs every task of `graph` through `action`, respecting the
    /// graph's dependency edges, and reports the per-pool breakdown.
    ///
    /// On the first action error, dispatch stops everywhere (tasks
    /// already running finish) and that error is returned.
    ///
    /// # Panics
    /// If a task is bound to a resource with no declared
    /// [`ResourceClass`] — plans destined for execution must classify
    /// every resource — or if the graph's edges are cyclic (cannot
    /// happen for graphs built through [`TaskGraph`]'s constructors,
    /// which enforce topological insertion order).
    pub fn run(
        &self,
        graph: &TaskGraph,
        action: &dyn TaskAction,
    ) -> Result<TaskBreakdown, RatelError> {
        let total = graph.len();
        if total == 0 {
            return Ok(TaskBreakdown::default());
        }

        let mut pool_of = Vec::with_capacity(total);
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut remaining = Vec::with_capacity(total);
        for t in graph.task_ids() {
            let class = graph.resource_class(graph.resource(t)).unwrap_or_else(|| {
                panic!(
                    "task {:?} ({:?}) is bound to unclassified resource {:?}",
                    t,
                    graph.label(t),
                    graph.resource_name(graph.resource(t))
                )
            });
            pool_of.push(pool_index(class));
            let deps = graph.deps(t);
            remaining.push(AtomicUsize::new(deps.len()));
            for d in deps {
                dependents[d.0].push(t.0);
            }
        }

        let shared = Shared {
            pools: (0..POOL_CLASSES.len()).map(Pool::new).collect(),
            remaining,
            dependents,
            pool_of,
            durations: (0..total).map(|_| AtomicU64::new(0)).collect(),
            done: AtomicUsize::new(0),
            total,
            abort: AtomicBool::new(false),
            error: Mutex::named("exec.error", None),
        };

        // Seed the ready queues with the graph's sources before any
        // worker exists, in task order.
        let mut pool_tasks = [0u64; POOL_CLASSES.len()];
        for t in 0..total {
            pool_tasks[shared.pool_of[t]] += 1;
            if shared.remaining[t].load(Ordering::Relaxed) == 0 {
                shared.pools[shared.pool_of[t]].queue.lock().push_back(t);
            }
        }

        let wall_start = Instant::now();
        std::thread::scope(|scope| {
            for (idx, class) in POOL_CLASSES.iter().enumerate() {
                // A pool with no tasks bound to it needs no threads; one
                // with fewer tasks than the worker budget needs fewer.
                let workers = (pool_tasks[idx] as usize).min(self.workers_per_pool);
                for w in 0..workers {
                    let shared = &shared;
                    let spawned = std::thread::Builder::new()
                        .name(format!("ratel-exec-{}-{w}", class.name()))
                        .spawn_scoped(scope, move || worker(shared, idx, action));
                    if let Err(e) = spawned {
                        // Abort the whole run: already-spawned workers
                        // drain out via the abort flag and the error
                        // surfaces below.
                        shared.fail(RatelError::Runtime(format!(
                            "spawn executor worker {w} for {}: {e}",
                            class.name()
                        )));
                        return;
                    }
                }
            }
        });
        let wall_seconds = wall_start.elapsed().as_secs_f64();

        if let Some(error) = shared.error.lock().take() {
            return Err(error);
        }
        let done = shared.done.load(Ordering::Acquire);
        assert_eq!(
            done, total,
            "executor stalled: {done}/{total} tasks completed with no error — \
             the graph reached the executor unverified"
        );

        // Post-hoc breakdown: per-pool busy time and the measured
        // critical path (finish[t] = max over deps of finish + duration).
        let mut pools: Vec<PoolStats> = POOL_CLASSES
            .iter()
            .enumerate()
            .map(|(idx, &class)| PoolStats {
                class,
                workers: (pool_tasks[idx] as usize).min(self.workers_per_pool),
                tasks: pool_tasks[idx],
                busy_seconds: 0.0,
            })
            .collect();
        let mut finish = vec![0.0f64; total];
        let mut critical = 0.0f64;
        for t in graph.task_ids() {
            let seconds = f64::from_bits(shared.durations[t.0].load(Ordering::Relaxed));
            pools[shared.pool_of[t.0]].busy_seconds += seconds;
            let ready = graph
                .deps(t)
                .iter()
                .map(|d| finish[d.0])
                .fold(0.0f64, f64::max);
            finish[t.0] = ready + seconds;
            critical = critical.max(finish[t.0]);
        }
        pools.retain(|p| p.tasks > 0);

        Ok(TaskBreakdown {
            pools,
            critical_path_seconds: critical,
            wall_seconds,
            tasks_total: total as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A diamond across three pools: gpu -> {g2m, m2g} -> cpu.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu0");
        g.set_resource_class(gpu, ResourceClass::GpuCompute);
        let g2m = g.add_resource("pcie-g2m0");
        g.set_resource_class(g2m, ResourceClass::PcieG2M);
        let m2g = g.add_resource("pcie-m2g0");
        g.set_resource_class(m2g, ResourceClass::PcieM2G);
        let cpu = g.add_resource("cpu");
        g.set_resource_class(cpu, ResourceClass::CpuCompute);
        let a = g.add_task(gpu, 1.0, ratel_sim::Stage::Forward, &[]);
        let b = g.add_task(g2m, 1.0, ratel_sim::Stage::Forward, &[a]);
        let c = g.add_task(m2g, 1.0, ratel_sim::Stage::Forward, &[a]);
        g.add_task(cpu, 1.0, ratel_sim::Stage::Optimizer, &[b, c]);
        g
    }

    #[test]
    fn executes_every_task_exactly_once_in_dependency_order() {
        let g = diamond();
        let order = Mutex::new(Vec::new());
        let breakdown = Executor::new(2)
            .run(&g, &|t: TaskId| {
                order.lock().push(t.0);
                Ok(())
            })
            .unwrap();
        let order = order.into_inner();
        assert_eq!(breakdown.tasks_total, 4);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "each task ran once: {order:?}");
        let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
        assert!(
            pos(0) < pos(1) && pos(0) < pos(2),
            "source first: {order:?}"
        );
        assert_eq!(pos(3), 3, "sink last: {order:?}");
    }

    #[test]
    fn breakdown_reports_pools_and_critical_path() {
        let g = diamond();
        let breakdown = Executor::new(1).run(&g, &|_| Ok(())).unwrap();
        assert_eq!(breakdown.pools.len(), 4, "gpu, cpu, g2m, m2g all ran");
        assert_eq!(breakdown.pool(ResourceClass::GpuCompute).unwrap().tasks, 1);
        assert_eq!(breakdown.pool(ResourceClass::CpuCompute).unwrap().tasks, 1);
        assert!(breakdown.critical_path_seconds <= breakdown.wall_seconds * 1.5 + 1e-3);
        assert!(breakdown.busy_seconds_total() >= breakdown.critical_path_seconds - 1e-9);
        assert!(
            breakdown.pool(ResourceClass::SsdArray).is_none(),
            "idle pool omitted"
        );
    }

    #[test]
    fn an_error_aborts_the_run_and_surfaces_first() {
        // A long serial chain on one pool: the failure at task 1 must
        // stop dispatch well before the chain's end.
        let mut g = TaskGraph::new();
        let cpu = g.add_resource("cpu");
        g.set_resource_class(cpu, ResourceClass::CpuCompute);
        let mut prev = None;
        for _ in 0..64 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(g.add_task(cpu, 1.0, ratel_sim::Stage::Optimizer, &deps));
        }
        let ran = AtomicU32::new(0);
        let err = Executor::new(4)
            .run(&g, &|t: TaskId| {
                ran.fetch_add(1, Ordering::Relaxed);
                if t.0 == 1 {
                    Err(RatelError::InvalidBatch("injected".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, RatelError::InvalidBatch(_)), "{err}");
        assert!(
            ran.load(Ordering::Relaxed) < 64,
            "abort stopped dispatch before the chain finished"
        );
    }

    #[test]
    fn overhead_tasks_fold_into_the_cpu_pool() {
        let mut g = TaskGraph::new();
        let stall = g.add_resource("stall0");
        g.set_resource_class(stall, ResourceClass::Overhead);
        g.add_task(stall, 1.0, ratel_sim::Stage::Forward, &[]);
        let breakdown = Executor::new(1).run(&g, &|_| Ok(())).unwrap();
        assert_eq!(breakdown.pool(ResourceClass::Overhead).unwrap().tasks, 1);
        assert_eq!(
            breakdown.pool(ResourceClass::Overhead).unwrap().class,
            ResourceClass::CpuCompute
        );
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let g = TaskGraph::new();
        let breakdown = Executor::new(3).run(&g, &|_| Ok(())).unwrap();
        assert_eq!(breakdown.tasks_total, 0);
        assert!(breakdown.pools.is_empty());
    }

    #[test]
    fn wide_fanout_completes_under_many_workers() {
        // One source fanning out to 40 tasks across two pools, all
        // joining into one sink: exercises concurrent completion racing
        // the final wake-up.
        let mut g = TaskGraph::new();
        let ssd = g.add_resource("ssd");
        g.set_resource_class(ssd, ResourceClass::SsdArray);
        let cpu = g.add_resource("cpu");
        g.set_resource_class(cpu, ResourceClass::CpuCompute);
        let src = g.add_task(cpu, 1.0, ratel_sim::Stage::Forward, &[]);
        let mid: Vec<TaskId> = (0..40)
            .map(|i| {
                let r = if i % 2 == 0 { ssd } else { cpu };
                g.add_task(r, 1.0, ratel_sim::Stage::Forward, &[src])
            })
            .collect();
        g.add_task(cpu, 1.0, ratel_sim::Stage::Optimizer, &mid);
        for workers in [1, 2, 4] {
            let count = AtomicU32::new(0);
            let breakdown = Executor::new(workers)
                .run(&g, &|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
                .unwrap();
            assert_eq!(count.load(Ordering::Relaxed), 42);
            assert_eq!(breakdown.tasks_total, 42);
        }
    }
}
