//! Residency interval analysis: the one answer to "does it fit".
//!
//! Each annotated allocation opens an interval on a memory tier at the
//! *start* of its task — the bytes land while the task runs — and closes
//! it when the matching free task completes (or never); a *transit* is
//! an interval that opens and closes with one task. The pass bounds the
//! most bytes a tier can hold at once under **any** executor
//! interleaving, for an executor that runs at most [`Limits::width`]
//! tasks of one resource at a time.
//!
//! **The phase bound.** Take a resource whose tasks form a chain (each
//! reaches the next — the GPU's compute order). The chain cuts every
//! execution into phases: phase `k` lasts from the completion of chain
//! task `k-1` to the completion of chain task `k`, and a tail phase
//! follows the last. An interval can be live in phase `k` only if its
//! free is not at or before chain task `k-1` and chain task `k` is not
//! a strict ancestor of its alloc — a contiguous range of phases. The
//! bytes that may be live in a phase are summed; of the transits that
//! may be, only the `width` largest per resource count, since no more of
//! its tasks run at once. Every chain gives a sound bound, so the
//! smallest is taken.
//!
//! A graph without a chain has no phases to tell apart: everything it
//! annotates may coexist, and the bound is the sum.
//!
//! This is the static form of the paper's §IV-D capacity model: swapped
//! activations must fit `MEM_avail` (a caller holds
//! [`TierPeak::activations`] to it), with at most the `α·A_G2M` overflow
//! allowed onto the SSD spill budget — and, for the engine, every other
//! byte a step parks in a tier beside them.

use std::collections::HashMap;

use ratel_sim::{BlobKey, BlobKind, MemTier, ResidencyAlloc, ResourceId, TaskGraph, TaskId};

use crate::finding::{task_label, Finding, Rule, TierPeak};
use crate::reach::Reachability;

/// Per-tier worst-case footprint budgets, in bytes. `None` disables the
/// capacity check for that tier (bookkeeping checks still run and the
/// peaks are still reported).
#[derive(Debug, Clone, Copy, Default)]
pub struct Limits {
    /// GPU device-memory budget.
    pub gpu: Option<f64>,
    /// Host main-memory budget.
    pub host: Option<f64>,
    /// SSD budget (capacity, or the planner's spill allowance).
    pub ssd: Option<f64>,
    /// Tasks the executor runs on one resource at a time (its workers
    /// per pool); `None` bounds any executor.
    pub width: Option<usize>,
}

impl Limits {
    /// No capacity limits: structural checks only.
    pub fn none() -> Self {
        Limits::default()
    }

    /// The budget for one tier.
    pub fn for_tier(&self, tier: MemTier) -> Option<f64> {
        match tier {
            MemTier::Gpu => self.gpu,
            MemTier::Host => self.host,
            MemTier::Ssd => self.ssd,
        }
    }
}

/// One residency interval; a transit has `free == Some(alloc)`.
#[derive(Debug)]
struct Interval {
    tier: MemTier,
    blob: BlobKey,
    bytes: f64,
    alloc: TaskId,
    free: Option<TaskId>,
}

/// Runs the residency pass. Returns findings, the number of intervals
/// analyzed and the static peak of every tier in [`MemTier::ALL`] order.
pub fn check(
    graph: &TaskGraph,
    reach: &Reachability,
    limits: &Limits,
) -> (Vec<Finding>, usize, [TierPeak; 3]) {
    let mut findings = Vec::new();
    let mut intervals: Vec<Interval> = Vec::new();
    // Open interval per (tier, blob); insertion order is topological, so
    // a free closes the most recent alloc of that slot.
    let mut open: HashMap<(MemTier, BlobKey), usize> = HashMap::new();

    for t in graph.task_ids() {
        let Some(meta) = graph.meta(t) else { continue };
        let interval = |a: &ResidencyAlloc, free| Interval {
            tier: a.tier,
            blob: a.blob,
            bytes: a.bytes,
            alloc: t,
            free,
        };
        for f in &meta.frees {
            match open.remove(f) {
                Some(idx) => {
                    intervals[idx].free = Some(t);
                    let alloc = intervals[idx].alloc;
                    if !reach.reaches(alloc, t) {
                        findings.push(Finding {
                            rule: Rule::ResidencyBookkeeping,
                            task: t,
                            label: task_label(graph, t),
                            blob: Some(f.1.to_string()),
                            detail: format!(
                                "frees {} on {} but is not ordered after the allocating \
                                 task `{}` — the interval has no well-defined lifetime",
                                f.1,
                                f.0.name(),
                                task_label(graph, alloc)
                            ),
                            witness: Vec::new(),
                            suggestion: "make the freeing task depend (transitively) on the \
                                         allocating task"
                                .into(),
                        });
                    }
                }
                None => {
                    findings.push(Finding {
                        rule: Rule::ResidencyBookkeeping,
                        task: t,
                        label: task_label(graph, t),
                        blob: Some(f.1.to_string()),
                        detail: format!("frees {} on {} with no open allocation", f.1, f.0.name()),
                        witness: Vec::new(),
                        suggestion: "drop the stray free, or add the matching alloc".into(),
                    });
                }
            }
        }
        for a in &meta.allocs {
            let slot = (a.tier, a.blob);
            if let Some(&prev) = open.get(&slot) {
                findings.push(Finding {
                    rule: Rule::ResidencyBookkeeping,
                    task: t,
                    label: task_label(graph, t),
                    blob: Some(a.blob.to_string()),
                    detail: format!(
                        "allocates {} on {} while `{}` already holds it open",
                        a.blob,
                        a.tier.name(),
                        task_label(graph, intervals[prev].alloc)
                    ),
                    witness: Vec::new(),
                    suggestion: "free the previous allocation first, or key the blob per \
                                 iteration/buffer"
                        .into(),
                });
            }
            open.insert(slot, intervals.len());
            intervals.push(interval(a, None));
        }
        intervals.extend(meta.transits.iter().map(|a| interval(a, Some(t))));
    }

    let chains = chains(graph, reach);
    let peaks = MemTier::ALL.map(|tier| {
        let on_tier: Vec<&Interval> = intervals.iter().filter(|i| i.tier == tier).collect();
        let acts: Vec<&Interval> = (on_tier.iter().copied())
            .filter(|i| i.blob.kind == BlobKind::Act)
            .collect();
        let (total, at) = static_peak(graph, reach, &chains, &on_tier, limits.width);
        if let (Some(budget), Some(at)) = (limits.for_tier(tier).filter(|b| total > *b), at) {
            findings.push(Finding {
                rule: Rule::CapacityExceeded,
                task: at,
                label: task_label(graph, at),
                blob: None,
                detail: format!(
                    "{} footprint may reach {total:.0} B around this task, exceeding the \
                     {budget:.0} B budget",
                    tier.name(),
                ),
                witness: Vec::new(),
                suggestion: "shrink the swap plan for this tier, free intervals earlier, or \
                             serialize the overlapping allocations"
                    .into(),
            });
        }
        TierPeak {
            total,
            activations: static_peak(graph, reach, &chains, &acts, limits.width).0,
            outliving: (on_tier.iter().filter(|i| i.free.is_none()))
                .map(|i| i.bytes)
                .sum(),
        }
    });

    findings.sort_by_key(|f| f.task);
    (findings, intervals.len(), peaks)
}

/// The task lists of every resource whose two or more tasks form a
/// chain — each is a strict ancestor of the next — and the empty chain,
/// whose one phase is the whole execution.
fn chains(graph: &TaskGraph, reach: &Reachability) -> Vec<Vec<TaskId>> {
    let mut by_resource: HashMap<ResourceId, Vec<TaskId>> = HashMap::new();
    for t in graph.task_ids() {
        by_resource.entry(graph.resource(t)).or_default().push(t);
    }
    let mut chains: Vec<Vec<TaskId>> = by_resource
        .into_values()
        .filter(|tasks| tasks.len() > 1 && tasks.windows(2).all(|w| reach.reaches(w[0], w[1])))
        .collect();
    chains.sort();
    chains.push(Vec::new());
    chains
}

/// The most bytes `ivs` (one tier's intervals) may hold at once, and a
/// task to report it at: the smallest phase bound over `chains`.
fn static_peak(
    graph: &TaskGraph,
    reach: &Reachability,
    chains: &[Vec<TaskId>],
    ivs: &[&Interval],
    width: Option<usize>,
) -> (f64, Option<TaskId>) {
    let bounds = chains
        .iter()
        .map(|chain| phase_bound(graph, reach, chain, ivs, width));
    let least = |best: (f64, _), bound: (f64, _)| if bound.0 < best.0 { bound } else { best };
    let (bytes, at) = bounds.fold((f64::INFINITY, None), least);
    (bytes, at.or(ivs.first().map(|i| i.alloc)))
}

fn phase_bound(
    graph: &TaskGraph,
    reach: &Reachability,
    chain: &[TaskId],
    ivs: &[&Interval],
    width: Option<usize>,
) -> (f64, Option<TaskId>) {
    let phases = chain.len() + 1;
    // Bytes of the intervals live in each phase (as a difference array
    // first), and the transits that may be passing through it.
    let mut held = vec![0.0f64; phases + 1];
    let mut passing: Vec<Vec<(ResourceId, f64)>> = vec![Vec::new(); phases];
    for iv in ivs {
        let first = chain.partition_point(|&c| reach.reaches(c, iv.alloc));
        let last = iv.free.map_or(chain.len(), |f| {
            chain.partition_point(|&c| !(f == c || reach.reaches(f, c)))
        });
        if iv.free == Some(iv.alloc) && width.is_some() {
            let entry = (graph.resource(iv.alloc), iv.bytes);
            passing[first..=last].iter_mut().for_each(|p| p.push(entry));
        } else {
            held[first] += iv.bytes;
            held[last + 1] -= iv.bytes;
        }
    }
    let mut peak = (0.0, None);
    let mut live = 0.0;
    for (k, transits) in passing.iter_mut().enumerate() {
        live += held[k];
        // Largest first, the `width` largest of each resource count.
        transits.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut running: HashMap<ResourceId, usize> = HashMap::new();
        let counted = transits.iter().filter(|(resource, _)| {
            let n = running.entry(*resource).or_default();
            *n += 1;
            Some(*n) <= width
        });
        let bytes = live + counted.map(|t| t.1).sum::<f64>();
        if bytes > peak.0 {
            peak = (bytes, chain.get(k).or(chain.last()).copied());
        }
    }
    peak
}
