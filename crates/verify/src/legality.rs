//! Resource-legality pass.
//!
//! Checks the schedule's physical plausibility: every annotated task is
//! bound to a resource of the matching class, all SSD traffic shares the
//! *one* simplex array FIFO (its reads and writes contend; they must not
//! be split across queues, which would let them overlap), the two PCIe
//! directions stay on disjoint lanes (the link is duplex; merging them
//! would serialize traffic that real hardware overlaps), and every
//! dependency edge runs forward in time — non-decreasing `Stage::ALL`
//! index within a micro-batch, non-decreasing micro-batch within an
//! iteration, non-decreasing iteration across them — and in issue order:
//! no dependency ranks after its dependent.

use std::collections::HashMap;

use ratel_sim::{OpClass, ResourceClass, ResourceId, Stage, TaskGraph, TaskId};

use crate::finding::{task_label, Finding, Rule};

/// The resource class an operation class must be bound to.
fn required_class(op: OpClass) -> ResourceClass {
    match op {
        OpClass::GpuCompute => ResourceClass::GpuCompute,
        OpClass::CpuCompute => ResourceClass::CpuCompute,
        OpClass::TransferG2M => ResourceClass::PcieG2M,
        OpClass::TransferM2G => ResourceClass::PcieM2G,
        OpClass::SsdRead | OpClass::SsdWrite => ResourceClass::SsdArray,
        OpClass::Hook => ResourceClass::Overhead,
    }
}

fn stage_index(s: Stage) -> usize {
    s.index()
}

/// A task's place in time above the stage: its `(iteration,
/// micro-batch)`; a task with no metadata or identity counts as the first
/// micro-batch of iteration 0.
pub(crate) fn micro_batch(graph: &TaskGraph, t: TaskId) -> (usize, usize) {
    graph.meta(t).map_or((0, 0), |m| {
        (m.iteration, m.identity.map_or(0, |id| id.micro))
    })
}

/// Runs the legality pass.
pub fn check(graph: &TaskGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    resource_classes(graph, &mut findings);
    simplex_ssd(graph, &mut findings);
    duplex_pcie(graph, &mut findings);
    edge_order(graph, &mut findings);
    findings.sort_by_key(|f| f.task);
    findings
}

/// Op class vs declared resource class.
fn resource_classes(graph: &TaskGraph, findings: &mut Vec<Finding>) {
    for t in graph.task_ids() {
        let Some(meta) = graph.meta(t) else { continue };
        let res = graph.resource(t);
        if let Some(class) = graph.resource_class(res) {
            let want = required_class(meta.op);
            if class != want {
                findings.push(Finding {
                    rule: Rule::IllegalResource,
                    task: t,
                    label: task_label(graph, t),
                    blob: None,
                    detail: format!(
                        "op `{}` is bound to `{}` (class {}), which cannot serve it",
                        meta.op.name(),
                        graph.resource_name(res),
                        class.name()
                    ),
                    witness: Vec::new(),
                    suggestion: format!("bind the task to a {} resource", want.name()),
                });
            }
        }
    }
}

/// Simplex SSD: at most one SsdArray-classed resource, and all SSD ops on
/// one resource.
fn simplex_ssd(graph: &TaskGraph, findings: &mut Vec<Finding>) {
    let ssd_resources: Vec<ResourceId> = graph
        .resource_ids()
        .filter(|r| graph.resource_class(*r) == Some(ResourceClass::SsdArray))
        .collect();
    if ssd_resources.len() > 1 {
        let names: Vec<&str> = ssd_resources
            .iter()
            .map(|r| graph.resource_name(*r))
            .collect();
        findings.push(Finding {
            rule: Rule::SimplexViolation,
            task: TaskId(0),
            label: "graph".into(),
            blob: None,
            detail: format!(
                "{} resources declared as the SSD array ({}): the simplex array is one FIFO",
                ssd_resources.len(),
                names.join(", ")
            ),
            witness: Vec::new(),
            suggestion: "register a single `ssd` resource and route all reads and writes \
                         through it"
                .into(),
        });
    }
    let mut ssd_home: Option<ResourceId> = None;
    for t in graph.task_ids() {
        let Some(meta) = graph.meta(t) else { continue };
        if !matches!(meta.op, OpClass::SsdRead | OpClass::SsdWrite) {
            continue;
        }
        let res = graph.resource(t);
        match ssd_home {
            None => ssd_home = Some(res),
            Some(home) if home != res => {
                findings.push(Finding {
                    rule: Rule::SimplexViolation,
                    task: t,
                    label: task_label(graph, t),
                    blob: None,
                    detail: format!(
                        "SSD traffic split across `{}` and `{}`: reads and writes must \
                         contend on the one simplex FIFO",
                        graph.resource_name(home),
                        graph.resource_name(res)
                    ),
                    witness: Vec::new(),
                    suggestion: format!(
                        "route this task through `{}` like the rest of the SSD traffic",
                        graph.resource_name(home)
                    ),
                });
            }
            Some(_) => {}
        }
    }
}

/// Duplex PCIe: no resource serves both transfer directions.
fn duplex_pcie(graph: &TaskGraph, findings: &mut Vec<Finding>) {
    let mut directions: HashMap<ResourceId, (OpClass, TaskId)> = HashMap::new();
    for t in graph.task_ids() {
        let Some(meta) = graph.meta(t) else { continue };
        if !matches!(meta.op, OpClass::TransferG2M | OpClass::TransferM2G) {
            continue;
        }
        let res = graph.resource(t);
        match directions.get(&res) {
            None => {
                directions.insert(res, (meta.op, t));
            }
            Some(&(dir, first)) if dir != meta.op => {
                findings.push(Finding {
                    rule: Rule::DuplexViolation,
                    task: t,
                    label: task_label(graph, t),
                    blob: None,
                    detail: format!(
                        "`{}` serves both PCIe directions (`{}` also runs {} on it): \
                         the link is duplex, directions must not share a queue",
                        graph.resource_name(res),
                        task_label(graph, first),
                        dir.name()
                    ),
                    witness: Vec::new(),
                    suggestion: "split G2M and M2G traffic onto separate per-direction \
                                 resources"
                        .into(),
                });
            }
            Some(_) => {}
        }
    }
}

/// Edges run forward in time and in issue order.
fn edge_order(graph: &TaskGraph, findings: &mut Vec<Finding>) {
    for e in graph.edges() {
        let (ru, rw) = (graph.rank(e.from), graph.rank(e.to));
        if ru > rw {
            findings.push(Finding {
                rule: Rule::RankOrder,
                task: e.to,
                label: task_label(graph, e.to),
                blob: None,
                detail: format!(
                    "ranks {rw} but depends on `{}`, which ranks {ru}: a dependency \
                     must not rank after its dependent",
                    task_label(graph, e.from),
                ),
                witness: vec![task_label(graph, e.from), task_label(graph, e.to)],
                suggestion: "rank the dependency at most at its dependent's rank".into(),
            });
        }
        let (Some(mu), Some(mw)) = (graph.meta(e.from), graph.meta(e.to)) else {
            continue;
        };
        if mu.iteration > mw.iteration {
            findings.push(Finding {
                rule: Rule::StageOrder,
                task: e.to,
                label: task_label(graph, e.to),
                blob: None,
                detail: format!(
                    "depends on `{}` from iteration {} while itself in iteration {}: \
                     edges must not run backwards across iterations",
                    task_label(graph, e.from),
                    mu.iteration,
                    mw.iteration
                ),
                witness: vec![task_label(graph, e.from), task_label(graph, e.to)],
                suggestion: "re-derive the dependency from the producing iteration".into(),
            });
        } else if micro_batch(graph, e.from) > micro_batch(graph, e.to) {
            findings.push(Finding {
                rule: Rule::StageOrder,
                task: e.to,
                label: task_label(graph, e.to),
                blob: None,
                detail: format!(
                    "depends on `{}` of a later micro-batch of its iteration",
                    task_label(graph, e.from),
                ),
                witness: vec![task_label(graph, e.from), task_label(graph, e.to)],
                suggestion: "order micro-batches front to back".into(),
            });
        } else if micro_batch(graph, e.from) == micro_batch(graph, e.to) {
            let (su, sw) = (graph.stage(e.from), graph.stage(e.to));
            if stage_index(su) > stage_index(sw) {
                findings.push(Finding {
                    rule: Rule::StageOrder,
                    task: e.to,
                    label: task_label(graph, e.to),
                    blob: None,
                    detail: format!(
                        "{} task depends on same-iteration {} task `{}`: edges must \
                         follow Stage::ALL order within a micro-batch",
                        sw.name(),
                        su.name(),
                        task_label(graph, e.from)
                    ),
                    witness: vec![task_label(graph, e.from), task_label(graph, e.to)],
                    suggestion: "attribute the earlier task to the earlier stage, or move \
                                 the dependency to the next iteration"
                        .into(),
                });
            }
        }
    }
}
