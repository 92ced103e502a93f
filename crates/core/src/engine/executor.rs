//! The resource-pool executor: runs a verified task graph for real.
//!
//! The simulator's [`TaskGraph`] is not only a prediction — it is what
//! the engine runs: one worker pool per graph resource (in an engine
//! DAG, one per [`ResourceClass`]: GPU kernels, CPU optimizer math, each
//! PCIe direction, the SSD array) takes *ready* tasks — every dependency
//! completed — runs them through a [`TaskAction`], and reports each
//! completion, which readies downstream work the moment its last input
//! lands. Which ready task a pool runs next is decided by the
//! simulator's own [`Dispatcher`] — (rank, ready time, id) order, the
//! rank the plan's lowering set (all 0, ready order, in a graph that sets
//! none), at most `workers_per_pool` in flight — under one lock, so the
//! executor has no scheduling policy the simulator does not, and
//! whatever `ratel-verify` proved about the plan (no read-before-write,
//! no overwrite-under-reader, residency within capacity) holds for the
//! execution too.
//!
//! The executor is deliberately generic: it knows nothing about
//! training. The engine supplies the graph (its movement plan) and an
//! action that maps each task id onto tensor kernels and tiered-store
//! transfers; tests supply toy graphs and counters.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use ratel_check::sync::{Condvar, Mutex};

use ratel_sim::meta::ResourceClass;
use ratel_sim::{Dispatcher, ResourceId, TaskGraph, TaskId};

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

/// What the workers of one run share under one lock: the dispatcher
/// and the run's outcome.
struct RunState {
    dispatch: Dispatcher,
    /// Measured seconds per completed task.
    seconds: Vec<f64>,
    /// The first action error; stops dispatch everywhere.
    error: Option<RatelError>,
}

struct Shared {
    state: Mutex<RunState>,
    /// Per pool (graph resource), where its idle workers park.
    ready: Vec<Condvar>,
    /// Ready times are seconds since this instant.
    start: Instant,
}

impl Shared {
    /// Wakes every parked worker. Called once the run stopped, a fact set
    /// under the state lock that each worker checks before it waits.
    fn wake_all(&self) {
        for ready in &self.ready {
            ready.notify_all();
        }
    }

    fn fail(&self, error: RatelError) {
        self.state.lock().error.get_or_insert(error);
        self.wake_all();
    }
}

/// Runs one task, a panic in its action failing it like an error would:
/// the run stops and returns a [`RatelError::Runtime`] naming the task,
/// where an unwinding worker would leave the task never completed and
/// every other worker waiting for it. The action's state is not looked
/// at again — a failed run is released by its caller.
fn run_guarded(graph: &TaskGraph, action: &dyn TaskAction, task: TaskId) -> Result<(), RatelError> {
    panic::catch_unwind(AssertUnwindSafe(|| action.run(task))).unwrap_or_else(|payload| {
        let what = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a non-string payload");
        let name = graph
            .label(task)
            .map_or_else(|| format!("{task:?}"), String::from);
        Err(RatelError::Runtime(format!(
            "task `{name}` panicked: {what}"
        )))
    })
}

fn worker(shared: &Shared, graph: &TaskGraph, pool: ResourceId, action: &dyn TaskAction) {
    let mut state = shared.state.lock();
    loop {
        let task = loop {
            if state.error.is_some() || state.dispatch.finished() {
                return;
            }
            if let Some(task) = state.dispatch.next(pool) {
                break task;
            }
            shared.ready[pool.0].wait(&mut state);
        };
        drop(state);
        let start = Instant::now();
        let outcome = run_guarded(graph, action, task);
        let end = Instant::now();
        if let Err(e) = outcome {
            shared.fail(e);
            return;
        }
        state = shared.state.lock();
        state.seconds[task.0] = (end - start).as_secs_f64();
        let at = (end - shared.start).as_secs_f64();
        state
            .dispatch
            .complete(task, at, |r| shared.ready[r.0].notify_one());
        if state.dispatch.finished() {
            shared.wake_all();
        }
        // Told after the dependents are released and outside the lock,
        // so recording the task's span delays no other task.
        drop(state);
        action.completed(task, start, end);
        state = shared.state.lock();
    }
}

/// A dependency-counted executor over [`TaskGraph`]s: one worker pool
/// per graph resource, `workers_per_pool` workers each, picking ready
/// tasks by the simulator's [`Dispatcher`].
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
    /// The workers are parked threads of the process's pool
    /// ([`ratel_tensor::run_workers`]), handed this run and parked again
    /// at its end; each runs its kernels at the caller's
    /// [`ratel_tensor::num_threads`] width.
    ///
    /// On the first action error, dispatch stops everywhere (tasks
    /// already running finish) and that error is returned. An action
    /// that panics fails its task the same way, with a
    /// [`RatelError::Runtime`] naming it.
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

        // Per resource: its tasks, the threads of its pool — the worker
        // budget, or its task count if fewer — and the class it counts to.
        let resources = graph.resource_ids().count();
        let mut tasks = vec![0usize; resources];
        for t in graph.task_ids() {
            tasks[graph.resource(t).0] += 1;
        }
        let mut stats: Vec<PoolStats> = (POOL_CLASSES.iter())
            .map(|&class| PoolStats {
                class,
                workers: 0,
                tasks: 0,
                busy_seconds: 0.0,
            })
            .collect();
        let (mut workers, mut stat_of) = (vec![0usize; resources], vec![0usize; resources]);
        for r in graph.resource_ids().filter(|r| tasks[r.0] > 0) {
            let class = graph.resource_class(r).unwrap_or_else(|| {
                panic!(
                    "{} task(s) are bound to unclassified resource {:?}",
                    tasks[r.0],
                    graph.resource_name(r)
                )
            });
            stat_of[r.0] = pool_index(class);
            workers[r.0] = tasks[r.0].min(self.workers_per_pool);
            stats[stat_of[r.0]].workers += workers[r.0];
            stats[stat_of[r.0]].tasks += tasks[r.0] as u64;
        }

        let shared = Shared {
            state: Mutex::named(
                "exec.state",
                RunState {
                    dispatch: Dispatcher::new(graph, self.workers_per_pool),
                    seconds: vec![0.0; total],
                    error: None,
                },
            ),
            ready: graph
                .resource_ids()
                .map(|_| Condvar::named("exec.ready"))
                .collect(),
            start: Instant::now(),
        };
        // One job per worker, in resource order; each runs on a parked
        // pool thread at this caller's width.
        let pools: Vec<ResourceId> = (graph.resource_ids())
            .flat_map(|r| std::iter::repeat_n(r, workers[r.0]))
            .collect();
        let job = |i: usize| worker(&shared, graph, pools[i], action);
        if let Err(e) = ratel_tensor::run_workers(pools.len(), &job) {
            return Err(RatelError::Runtime(format!(
                "start {} executor workers: {e}",
                pools.len()
            )));
        }
        let wall_seconds = shared.start.elapsed().as_secs_f64();

        let RunState {
            dispatch,
            seconds,
            error,
        } = shared.state.into_inner();
        if let Some(error) = error {
            return Err(error);
        }
        assert!(
            dispatch.finished(),
            "executor stalled: {}/{total} tasks completed with no error — \
             the graph reached the executor unverified",
            dispatch.completed()
        );

        for t in graph.task_ids() {
            stats[stat_of[graph.resource(t).0]].busy_seconds += seconds[t.0];
        }
        stats.retain(|p| p.tasks > 0);

        Ok(TaskBreakdown {
            pools: stats,
            critical_path_seconds: graph.critical_path_by(|t| seconds[t.0]),
            wall_seconds,
            tasks_total: total as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

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
    fn a_panicking_task_fails_the_run_instead_of_hanging_it() {
        let mut g = diamond();
        let g2m = TaskId(1);
        g.set_label(g2m, "act-off L1");
        for workers in [1, 2] {
            let ran = AtomicU32::new(0);
            let err = Executor::new(workers)
                .run(&g, &|t: TaskId| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert_ne!(t, g2m, "injected");
                    Ok(())
                })
                .unwrap_err();
            let RatelError::Runtime(message) = &err else {
                panic!("{err}");
            };
            assert!(message.contains("`act-off L1` panicked"), "{message}");
            assert!(message.contains("injected"), "{message}");
            // The sink waits for the panicked task: it never runs.
            assert!(ran.load(Ordering::Relaxed) <= 3, "workers {workers}");
        }
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
    fn workers_run_kernels_at_the_callers_width() {
        let g = diamond();
        let at = |width: usize| {
            move |_: TaskId| {
                assert_eq!(ratel_tensor::num_threads(), width);
                Ok(())
            }
        };
        ratel_tensor::with_width(3, || Executor::new(2).run(&g, &at(3))).unwrap();
        let default = ratel_tensor::num_threads();
        Executor::new(2).run(&g, &at(default)).unwrap();
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let g = TaskGraph::new();
        let breakdown = Executor::new(3).run(&g, &|_| Ok(())).unwrap();
        assert_eq!(breakdown.tasks_total, 0);
        assert!(breakdown.pools.is_empty());
    }

    #[test]
    fn one_worker_starts_tasks_in_the_simulated_order() {
        use rand::{Rng, SeedableRng};
        for seed in 0..8 {
            // Forty tasks on one resource, each depending on a few random
            // earlier ones: at width 1 the pick order alone sets the
            // start order.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = TaskGraph::new();
            let cpu = g.add_resource("cpu");
            g.set_resource_class(cpu, ResourceClass::CpuCompute);
            for t in 0..40 {
                let deps: Vec<TaskId> = (0..t).filter(|_| rng.gen_bool(0.08)).map(TaskId).collect();
                g.add_task(cpu, 1.0, ratel_sim::Stage::Forward, &deps);
            }
            let report = ratel_sim::simulate(&g);
            let mut simulated: Vec<usize> = (0..g.len()).collect();
            simulated.sort_by(|&a, &b| {
                let start = |t| report.task_start(TaskId(t));
                start(a).total_cmp(&start(b))
            });
            let executed = Mutex::new(Vec::new());
            Executor::new(1)
                .run(&g, &|t: TaskId| {
                    executed.lock().push(t.0);
                    Ok(())
                })
                .unwrap();
            assert_eq!(executed.into_inner(), simulated, "seed {seed}");
        }
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
