//! Live plan-conformance monitoring: did the step the engine just ran
//! *move what the plan said it would move*?
//!
//! The engine's plan (`engine::plan`) fixes one step's data movement
//! down to the byte and its task order down to the edge; `ratel-verify`
//! checks that plan statically when it is lowered. This module closes
//! the remaining gap — plan vs *execution* — by matching each
//! instrumented step's drained telemetry against the DAGs the engine
//! dispatched and emitting structured [`Finding`]s for every divergence:
//!
//! * **byte mismatches** — a route's measured step traffic differs from
//!   the planned total of the step's DAG (exact, same contract as
//!   `ratel-bench validate`);
//! * **stage inversions** — a task's span started before the span of one
//!   of its dependencies in the dispatched DAG ended — the spec's
//!   dataflow edges, the edges between micro-batches and the pacing
//!   edges the lowering added to bound tier residency alike;
//! * **stalls** — a route with a configured bandwidth target achieved
//!   less than the configured fraction of it.
//!
//! A clean engine step produces **zero findings**; the `obs_conformance`
//! integration suite seeds each drift class into recorded telemetry and
//! asserts the monitor names it.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ratel_sim::TaskId;
use ratel_storage::telemetry::SpanRecord;
use ratel_storage::Route;

use super::dag_step::StepDag;
use super::telemetry::StepTelemetry;
use super::StepPlan;

/// Drift classes the monitor can report. The discriminants mirror the
/// flight recorder's drift code table (`ratel_obs::EventKind::Drift`
/// payload codes), so a dumped event decodes to the same name. Every
/// blob the engine moves is named by a typed key, so a transfer the plan
/// does not account for shows as a [`DriftKind::ByteMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriftKind {
    /// A route's measured bytes differ from the planned total.
    ByteMismatch,
    /// A task's span started before a plan dependency's span ended.
    StageInversion,
    /// A route underran its configured bandwidth target.
    Stall,
}

impl DriftKind {
    /// Stable code matching `ratel_obs`'s drift-name table.
    pub fn index(self) -> usize {
        match self {
            DriftKind::ByteMismatch => 0,
            DriftKind::StageInversion => 1,
            DriftKind::Stall => 2,
        }
    }

    /// Short stable name (matches the flight recorder's decoding).
    pub fn name(self) -> &'static str {
        match self {
            DriftKind::ByteMismatch => "byte_mismatch",
            DriftKind::StageInversion => "stage_inversion",
            DriftKind::Stall => "stall",
        }
    }
}

/// One structured conformance finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The drift class.
    pub kind: DriftKind,
    /// The route involved, when the finding is route-scoped.
    pub route: Option<Route>,
    /// Human-readable specifics (span labels, bandwidths).
    pub detail: String,
    /// Planned quantity (bytes or bytes/s), when applicable.
    pub planned: Option<u64>,
    /// Measured quantity, when applicable.
    pub measured: Option<u64>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.name())?;
        if let Some(route) = self.route {
            write!(f, " [{}]", route.name())?;
        }
        write!(f, ": {}", self.detail)?;
        if let (Some(p), Some(m)) = (self.planned, self.measured) {
            write!(f, " (planned {p}, measured {m})")?;
        }
        Ok(())
    }
}

/// Monitor configuration. The default checks bytes and dependency
/// order; bandwidth stall detection stays off until a route
/// target is set (an unthrottled in-memory run has no meaningful
/// bandwidth floor).
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Per-route bandwidth targets in bytes/s, indexed like
    /// [`Route::ALL`]. `None` disables the stall check for that route.
    pub bandwidth_targets: [Option<f64>; 4],
    /// A route stalls when its achieved bandwidth drops below this
    /// fraction of the target (default 0.5).
    pub min_bandwidth_fraction: f64,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            bandwidth_targets: [None; 4],
            min_bandwidth_fraction: 0.5,
        }
    }
}

/// Checks instrumented steps against the engine's plan.
///
/// Built by [`super::RatelEngine::conformance_monitor`] over the plan
/// the engine holds — the DAG of each micro-batch count, with its
/// per-route byte ledger — and applied to every [`StepTelemetry`] the
/// engine collects. Each check sees one step.
#[derive(Debug, Clone)]
pub struct ConformanceMonitor {
    plan: Arc<StepPlan>,
    config: ConformanceConfig,
}

impl ConformanceMonitor {
    pub(super) fn new(plan: Arc<StepPlan>, config: ConformanceConfig) -> Self {
        ConformanceMonitor { plan, config }
    }

    /// The plan's per-route byte totals for a plain step, indexed like
    /// [`Route::ALL`].
    pub fn planned_bytes(&self) -> [u64; 4] {
        self.plan.step.spec.planned_route_bytes()
    }

    /// Matches one step's telemetry against the plan. Returns every
    /// divergence found; an empty vector means the step conformed.
    pub fn check(&self, step: &StepTelemetry) -> Vec<Finding> {
        // A micro-batch count the plan cannot lower is one the engine
        // refused to run: it plans no bytes and no order.
        let dag = self.plan.dag(step.micro_batches.max(1)).ok();
        self.check_dag(dag.as_deref(), step)
    }

    /// Matches the telemetry of one run of `dag` — a step's, an eval's
    /// or a decode call's — against it.
    pub(super) fn check_dag(&self, dag: Option<&StepDag>, run: &StepTelemetry) -> Vec<Finding> {
        let mut findings = Vec::new();
        if let Some(dag) = dag {
            Self::check_bytes(dag, run, &mut findings);
            Self::check_dependencies(dag, run, &mut findings);
        }
        self.check_stalls(run, &mut findings);
        findings
    }

    /// Measured route traffic must equal, to the byte, the ledger of the
    /// DAG the step ran.
    fn check_bytes(dag: &StepDag, step: &StepTelemetry, findings: &mut Vec<Finding>) {
        let ledger = dag.spec.planned_route_bytes();
        for (route, planned) in Route::ALL.into_iter().zip(ledger) {
            let measured = step.traffic.bytes(route);
            if measured != planned {
                findings.push(Finding {
                    kind: DriftKind::ByteMismatch,
                    route: Some(route),
                    detail: "route traffic diverged from the plan".into(),
                    planned: Some(planned),
                    measured: Some(measured),
                });
            }
        }
    }

    /// No task's span may start before the span of any of its
    /// dependencies ended — in the graph that was dispatched, pacing
    /// edges included.
    fn check_dependencies(dag: &StepDag, step: &StepTelemetry, findings: &mut Vec<Finding>) {
        let graph = &dag.graph;
        let by_task: HashMap<TaskId, &SpanRecord> = (step.spans.iter())
            .filter_map(|s| s.task.map(|t| (t.task, s)))
            .collect();
        for s in &step.spans {
            let Some(t) = s.task else { continue };
            if t.task.0 >= graph.len() {
                continue; // not a task of this plan
            }
            for dep in graph.deps(t.task) {
                let Some(d) = by_task.get(dep) else {
                    continue;
                };
                if s.start < d.end {
                    findings.push(Finding {
                        kind: DriftKind::StageInversion,
                        route: None,
                        detail: format!(
                            "{:?} started before its dependency {:?} ended",
                            s.label, d.label
                        ),
                        planned: None,
                        measured: None,
                    });
                }
            }
        }
    }

    /// Routes with configured targets must achieve the minimum fraction.
    fn check_stalls(&self, step: &StepTelemetry, findings: &mut Vec<Finding>) {
        for (i, route) in Route::ALL.iter().enumerate() {
            let Some(target) = self.config.bandwidth_targets[i] else {
                continue;
            };
            let Some(achieved) = step.route_metrics[i].achieved_bandwidth() else {
                continue; // idle route: nothing to rate
            };
            let floor = target * self.config.min_bandwidth_fraction;
            if achieved < floor {
                findings.push(Finding {
                    kind: DriftKind::Stall,
                    route: Some(*route),
                    detail: format!(
                        "achieved {achieved:.0} B/s of {target:.0} B/s target \
                         (floor {floor:.0})"
                    ),
                    planned: Some(target as u64),
                    measured: Some(achieved as u64),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_codes_match_the_flight_recorder_table() {
        for kind in [
            DriftKind::ByteMismatch,
            DriftKind::StageInversion,
            DriftKind::Stall,
        ] {
            let decoded = ratel_obs::EventKind::Drift.code_name(kind.index() as u8);
            assert_eq!(decoded, Some(kind.name()));
        }
    }
}
