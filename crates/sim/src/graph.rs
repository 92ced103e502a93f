//! Task-graph construction.

use crate::meta::{Edge, ResourceClass, TaskMeta};

// Task/resource identities and the stage attribution are part of the
// shared plan contract: the executor addresses the same `TaskId`s the
// verifier proved safe.
pub use ratel_contract::{ResourceId, Stage, TaskId};

#[derive(Debug, Clone)]
pub(crate) struct Task {
    pub(crate) resource: ResourceId,
    /// Service time in seconds on the bound resource.
    pub(crate) service: f64,
    pub(crate) stage: Stage,
    pub(crate) deps: Vec<TaskId>,
    pub(crate) label: Option<String>,
    pub(crate) meta: Option<TaskMeta>,
}

/// A DAG of tasks over named resources.
///
/// Dependencies must refer to already-added tasks, which makes the graph
/// acyclic by construction.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    pub(crate) resources: Vec<String>,
    pub(crate) resource_classes: Vec<Option<ResourceClass>>,
    pub(crate) tasks: Vec<Task>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource and returns its id.
    ///
    /// Resource names are unique: registering a name that already exists
    /// returns the id of the existing resource instead of silently
    /// creating a second queue with the same name (which would split its
    /// traffic across two FIFOs and corrupt per-resource accounting).
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        let name = name.into();
        if let Some(i) = self.resources.iter().position(|r| *r == name) {
            return ResourceId(i);
        }
        self.resources.push(name);
        self.resource_classes.push(None);
        ResourceId(self.resources.len() - 1)
    }

    /// Declares the [`ResourceClass`] of a registered resource, for the
    /// static legality pass. Untyped resources are skipped by verifiers.
    pub fn set_resource_class(&mut self, id: ResourceId, class: ResourceClass) {
        self.resource_classes[id.0] = Some(class);
    }

    /// The declared class of a resource, if any.
    pub fn resource_class(&self, id: ResourceId) -> Option<ResourceClass> {
        self.resource_classes[id.0]
    }

    /// Ids of all registered resources.
    pub fn resource_ids(&self) -> impl Iterator<Item = ResourceId> {
        (0..self.resources.len()).map(ResourceId)
    }

    /// Adds a task bound to `resource` that occupies it for `service`
    /// seconds once started, attributed to `stage`, ready after `deps`.
    ///
    /// # Panics
    /// If `resource` or any dependency is unknown, or `service` is not a
    /// finite non-negative number.
    pub fn add_task(
        &mut self,
        resource: ResourceId,
        service: f64,
        stage: Stage,
        deps: &[TaskId],
    ) -> TaskId {
        assert!(
            resource.0 < self.resources.len(),
            "unknown resource {resource:?}"
        );
        assert!(
            service.is_finite() && service >= 0.0,
            "invalid service time {service} (resource {})",
            self.resources[resource.0]
        );
        let id = TaskId(self.tasks.len());
        for d in deps {
            assert!(d.0 < id.0, "dependency {d:?} of {id:?} does not exist yet");
        }
        self.tasks.push(Task {
            resource,
            service,
            stage,
            deps: deps.to_vec(),
            label: None,
            meta: None,
        });
        id
    }

    /// [`add_task`](Self::add_task) plus a timeline label in one call.
    pub fn add_task_labeled(
        &mut self,
        resource: ResourceId,
        service: f64,
        stage: Stage,
        deps: &[TaskId],
        label: impl Into<String>,
    ) -> TaskId {
        let id = self.add_task(resource, service, stage, deps);
        self.set_label(id, label);
        id
    }

    /// Attaches a human-readable label to a task (shown in timelines).
    pub fn set_label(&mut self, task: TaskId, label: impl Into<String>) {
        self.tasks[task.0].label = Some(label.into());
    }

    /// The label of a task, if any.
    pub fn label(&self, task: TaskId) -> Option<&str> {
        self.tasks[task.0].label.as_deref()
    }

    /// Attaches semantic metadata to a task for static verification.
    pub fn set_meta(&mut self, task: TaskId, meta: TaskMeta) {
        self.tasks[task.0].meta = Some(meta);
    }

    /// Gives back the capacity the graph's growth left unused — in its
    /// task list and each task's dependencies and metadata — for a graph
    /// held while it runs rather than built and dropped.
    pub fn shrink_to_fit(&mut self) {
        self.tasks.shrink_to_fit();
        for task in &mut self.tasks {
            task.deps.shrink_to_fit();
            if let Some(meta) = &mut task.meta {
                meta.reads.shrink_to_fit();
                meta.writes.shrink_to_fit();
                meta.allocs.shrink_to_fit();
                meta.transits.shrink_to_fit();
                meta.frees.shrink_to_fit();
            }
        }
    }

    /// The metadata of a task, if any.
    pub fn meta(&self, task: TaskId) -> Option<&TaskMeta> {
        self.tasks[task.0].meta.as_ref()
    }

    /// Mutable access to a task's metadata, if any. Intended for test
    /// harnesses that perturb annotations (e.g. the mutation suite).
    pub fn meta_mut(&mut self, task: TaskId) -> Option<&mut TaskMeta> {
        self.tasks[task.0].meta.as_mut()
    }

    /// The dependencies of a task.
    pub fn deps(&self, task: TaskId) -> &[TaskId] {
        &self.tasks[task.0].deps
    }

    /// The resource a task is bound to.
    pub fn resource(&self, task: TaskId) -> ResourceId {
        self.tasks[task.0].resource
    }

    /// The stage a task is attributed to.
    pub fn stage(&self, task: TaskId) -> Stage {
        self.tasks[task.0].stage
    }

    /// A task's service time in seconds.
    pub fn service(&self, task: TaskId) -> f64 {
        self.tasks[task.0].service
    }

    /// Ids of all tasks, in insertion (= topological) order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// All dependency edges in the graph.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.tasks.iter().enumerate().flat_map(|(i, t)| {
            t.deps.iter().map(move |d| Edge {
                from: *d,
                to: TaskId(i),
            })
        })
    }

    /// Adds the direct dependency `dep` to an existing `task`, preserving
    /// the acyclic-by-construction invariant (`dep` must precede `task`
    /// in insertion order). Used by executors to thread pacing edges —
    /// e.g. residency windows — through an already-built plan. Duplicate
    /// edges are ignored.
    ///
    /// # Panics
    /// If `dep` does not precede `task` in insertion order.
    pub fn add_dep(&mut self, task: TaskId, dep: TaskId) {
        assert!(
            dep.0 < task.0,
            "dependency {dep:?} of {task:?} would break topological order"
        );
        let deps = &mut self.tasks[task.0].deps;
        if !deps.contains(&dep) {
            deps.push(dep);
        }
    }

    /// Removes the direct dependency `dep` from `task`, if present.
    /// Returns whether an edge was removed. Intended for mutation-testing
    /// harnesses; the simulator never needs it.
    pub fn remove_dep(&mut self, task: TaskId, dep: TaskId) -> bool {
        let deps = &mut self.tasks[task.0].deps;
        let before = deps.len();
        deps.retain(|d| *d != dep);
        deps.len() != before
    }

    /// Rebinds a task to a different (already-registered) resource.
    /// Intended for mutation-testing harnesses.
    ///
    /// # Panics
    /// If `resource` is unknown.
    pub fn rebind_resource(&mut self, task: TaskId, resource: ResourceId) {
        assert!(
            resource.0 < self.resources.len(),
            "unknown resource {resource:?}"
        );
        self.tasks[task.0].resource = resource;
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Name of a registered resource.
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.0]
    }

    /// Total service time bound to `resource` — a lower bound on the
    /// makespan contribution of that resource.
    pub fn total_service(&self, resource: ResourceId) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.resource == resource)
            .map(|t| t.service)
            .sum()
    }

    /// Length of the longest dependency chain (sum of service times) — a
    /// lower bound on the makespan.
    pub fn critical_path(&self) -> f64 {
        self.critical_path_by(|t| self.service(t))
    }

    /// [`critical_path`](Self::critical_path) with each task taking
    /// `seconds(task)` instead of its service time — e.g. the durations
    /// an execution measured.
    pub fn critical_path_by(&self, seconds: impl Fn(TaskId) -> f64) -> f64 {
        let mut finish = vec![0.0_f64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let ready = t.deps.iter().map(|d| finish[d.0]).fold(0.0_f64, f64::max);
            finish[i] = ready + seconds(TaskId(i));
        }
        finish.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_small_graph() {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let a = g.add_task(gpu, 1.0, Stage::Forward, &[]);
        let b = g.add_task(gpu, 2.0, Stage::Forward, &[a]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.total_service(gpu), 3.0);
        assert_eq!(g.critical_path(), 3.0);
        assert_eq!(b, TaskId(1));
    }

    #[test]
    fn critical_path_takes_the_longest_chain() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let a = g.add_task(r1, 1.0, Stage::Forward, &[]);
        let b = g.add_task(r2, 5.0, Stage::Forward, &[]);
        let _c = g.add_task(r1, 1.0, Stage::Backward, &[a, b]);
        assert_eq!(g.critical_path(), 6.0);
        // Measured durations can move the path to the other branch.
        assert_eq!(g.critical_path_by(|t| [7.0, 1.0, 1.0][t.0]), 8.0);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependencies_are_rejected() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        g.add_task(r, 1.0, Stage::Forward, &[TaskId(7)]);
    }

    #[test]
    #[should_panic(expected = "invalid service time")]
    fn nan_service_is_rejected() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        g.add_task(r, f64::NAN, Stage::Forward, &[]);
    }

    #[test]
    fn duplicate_resource_names_are_deduplicated() {
        let mut g = TaskGraph::new();
        let a = g.add_resource("gpu");
        let b = g.add_resource("ssd");
        let a2 = g.add_resource("gpu");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(g.resource_ids().count(), 2);
        // Traffic registered via either id lands on the same queue.
        g.add_task(a, 1.0, Stage::Forward, &[]);
        g.add_task(a2, 2.0, Stage::Forward, &[]);
        assert_eq!(g.total_service(a), 3.0);
    }

    #[test]
    fn resource_classes_round_trip() {
        use crate::meta::ResourceClass;
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let ssd = g.add_resource("ssd");
        g.set_resource_class(gpu, ResourceClass::GpuCompute);
        assert_eq!(g.resource_class(gpu), Some(ResourceClass::GpuCompute));
        assert_eq!(g.resource_class(ssd), None);
    }

    #[test]
    fn edges_and_accessors_expose_the_graph() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        let a = g.add_task(r, 1.0, Stage::Forward, &[]);
        let b = g.add_task(r, 2.0, Stage::Backward, &[a]);
        assert_eq!(g.deps(b), &[a]);
        assert_eq!(g.resource(b), r);
        assert_eq!(g.stage(b), Stage::Backward);
        assert_eq!(g.service(b), 2.0);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, a);
        assert_eq!(edges[0].to, b);
        assert!(g.remove_dep(b, a));
        assert!(!g.remove_dep(b, a));
        assert!(g.deps(b).is_empty());
    }

    #[test]
    fn meta_round_trips() {
        use crate::meta::{BlobKey, BlobKind, OpClass, TaskMeta, VersionedBlob};
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        let a = g.add_task(r, 1.0, Stage::Forward, &[]);
        assert!(g.meta(a).is_none());
        let blob = VersionedBlob {
            key: BlobKey::shared(BlobKind::Param16, 0),
            version: 1,
        };
        g.set_meta(a, TaskMeta::new(OpClass::GpuCompute, 0).write(blob));
        assert_eq!(g.meta(a).unwrap().writes, vec![blob]);
        g.meta_mut(a).unwrap().writes[0].version = 2;
        assert_eq!(g.meta(a).unwrap().writes[0].version, 2);
    }
}
