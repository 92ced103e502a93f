//! Mutation tests of the static schedule verifier: seed a known defect
//! into a clean, fully-annotated schedule and require `ratel-verify` to
//! catch it — and to stay silent on the unmutated graph. Each mutation
//! class maps to one invariant family: dropped domination edges →
//! staleness / use-before-fetch, swapped producer versions → staleness,
//! inflated residency → capacity, rebinding onto the wrong resource →
//! legality. Three more are seeded into the paced DAG the engine
//! dispatches: a dropped pacing edge → capacity, a dropped free →
//! capacity (and, across micro-batches, residency bookkeeping), a rotated
//! handler's read cut from its head write → staleness.

use proptest::prelude::*;

use ratel_repro::core::schedule::{
    IterationSpec, LayerTask, LinkRates, Pass, Placement, ACT_CHUNKS,
};
use ratel_repro::core::verify::{verify, Limits, Reachability, Rule};
use ratel_repro::core::GradOffloadMode;
use ratel_repro::prelude::{ActDecision, GptConfig, Ratel, TrainingPlan};
use ratel_repro::sim::{MemTier, ResourceClass, TaskGraph, TaskId};

fn rates() -> LinkRates {
    LinkRates {
        thp_gpu: 1e12,
        bw_g2m: 20e9,
        bw_m2g: 20e9,
        ssd_read: 10e9,
        ssd_write: 8e9,
        cpu_params_per_sec: 1e9,
        state_io_efficiency: 0.8,
    }
}

/// A small but fully-featured spec: parameter staging from the SSDs and
/// from host-resident masters, host and SSD activation traffic,
/// gradients, and out-of-core optimizer handlers.
fn spec(mode: GradOffloadMode) -> IterationSpec {
    let layer = |label: &str, p: f64, host: f64, ssd: f64, placement| LayerTask {
        fwd_flops: 1e9,
        bwd_flops: 2e9,
        act_to_host_bytes: host,
        act_to_ssd_bytes: ssd,
        grad_spill_to_ssd: mode == GradOffloadMode::SeparateStage,
        ..LayerTask::ratel(label, p, p, placement)
    };
    IterationSpec {
        layers: vec![
            layer("embedding", 1e6, 0.0, 0.0, Placement::HostMaster),
            layer("block0", 2e6, 3e6, 1e6, Placement::HostMaster),
            layer("block1", 2e6, 3e6, 0.0, Placement::Ssd),
            layer("head", 1e6, 0.0, 0.0, Placement::Ssd),
        ],
        mode,
        rates: rates(),
        gpus: 1,
        items_per_iteration: 1.0,
        micro_batches: 1,
        pass: Pass::Step,
        per_layer_overhead_seconds: 0.01,
    }
}

const MODES: [GradOffloadMode; 3] = GradOffloadMode::ALL;

fn graph(mode: GradOffloadMode, iterations: usize) -> TaskGraph {
    let (g, _, _) = spec(mode).build_iterations(iterations);
    g
}

/// Readers whose read has a recorded producer, as (reader, producer).
fn dominated_reads(g: &TaskGraph) -> Vec<(TaskId, TaskId)> {
    let mut producers = std::collections::HashMap::new();
    for t in g.task_ids() {
        if let Some(meta) = g.meta(t) {
            for w in &meta.writes {
                producers.insert(*w, t);
            }
        }
    }
    let mut out = Vec::new();
    for t in g.task_ids() {
        if let Some(meta) = g.meta(t) {
            for r in &meta.reads {
                if let Some(&p) = producers.get(r) {
                    if p != t {
                        out.push((t, p));
                    }
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unmutated schedules produce zero findings under every mode and
    /// iteration count, including with exact-fit residency budgets.
    #[test]
    fn unmutated_schedules_are_clean(mode_ix in 0usize..3, iters in 1usize..3) {
        let g = graph(MODES[mode_ix], iters);
        let report = verify(&g, &Limits::none());
        prop_assert!(report.is_clean(), "{}", report.render());
        prop_assert!(report.tasks_checked > 0);
        prop_assert!(report.intervals > 0);
    }

    /// Dropping every dependency that carries a producer's ordering to
    /// one of its readers is always caught as a dataflow violation.
    #[test]
    fn dropped_domination_is_caught(mode_ix in 0usize..3, pick in 0usize..4096) {
        let mut g = graph(MODES[mode_ix], 2);
        let reads = dominated_reads(&g);
        prop_assert!(!reads.is_empty());
        let (reader, producer) = reads[pick % reads.len()];
        // Sever every path producer -> reader: remove the deps of
        // `reader` through which the producer's completion is ordered.
        let reach = Reachability::new(&g);
        let severed: Vec<TaskId> = g
            .deps(reader)
            .iter()
            .copied()
            .filter(|d| *d == producer || reach.reaches(producer, *d))
            .collect();
        prop_assert!(!severed.is_empty(), "producer did not dominate via deps");
        for d in severed {
            // Repeat for duplicate edges; at least one must exist.
            while g.remove_dep(reader, d) {}
        }
        let report = verify(&g, &Limits::none());
        prop_assert!(
            report
                .findings
                .iter()
                .any(|f| matches!(f.rule, Rule::Staleness | Rule::UseBeforeFetch)),
            "mutant not caught:\n{}",
            report.render()
        );
    }

    /// Swapping the version numbers of two writes to the same blob (the
    /// stale-parameter bug: iteration k+1 reading iteration k-1's copy)
    /// is always caught.
    #[test]
    fn swapped_producer_versions_are_caught(mode_ix in 0usize..3, pick in 0usize..4096) {
        let mut g = graph(MODES[mode_ix], 2);
        // Blobs written at both version 1 and version 2 (once per
        // iteration): persistent parameter/master state qualifies. A
        // blob nobody reads (the embedding's input gradient) has no
        // reader to starve, so swapping its versions is not a defect.
        let mut writers: std::collections::HashMap<_, Vec<(TaskId, usize)>> =
            std::collections::HashMap::new();
        let mut read = std::collections::HashSet::new();
        for t in g.task_ids() {
            if let Some(meta) = g.meta(t) {
                for (i, w) in meta.writes.iter().enumerate() {
                    writers.entry(w.key).or_default().push((t, i));
                }
                read.extend(meta.reads.iter().map(|r| r.key));
            }
        }
        let mut twice: Vec<_> = writers
            .into_iter()
            .filter(|(key, v)| v.len() == 2 && read.contains(key))
            .collect();
        twice.sort_by_key(|(k, _)| *k);
        prop_assert!(!twice.is_empty());
        let (_, pair) = &twice[pick % twice.len()];
        let ((t1, i1), (t2, i2)) = (pair[0], pair[1]);
        let v1 = g.meta(t1).unwrap().writes[i1];
        let v2 = g.meta(t2).unwrap().writes[i2];
        g.meta_mut(t1).unwrap().writes[i1] = v2;
        g.meta_mut(t2).unwrap().writes[i2] = v1;
        let report = verify(&g, &Limits::none());
        prop_assert!(
            report.findings.iter().any(|f| matches!(
                f.rule,
                Rule::Staleness | Rule::UseBeforeFetch | Rule::WriteAfterRead
            )),
            "mutant not caught:\n{}",
            report.render()
        );
    }

    /// Inflating any one residency interval past the tier budget is
    /// always caught by the capacity pass.
    #[test]
    fn inflated_residency_is_caught(mode_ix in 0usize..3, pick in 0usize..4096) {
        let mut g = graph(MODES[mode_ix], 2);
        // Budget = the sum of all allocations and transits per tier: a
        // sound upper bound on any concurrent footprint, so the
        // unmutated graph is clean even if everything coexisted.
        let mut totals: std::collections::HashMap<MemTier, f64> =
            std::collections::HashMap::new();
        let mut allocs: Vec<(TaskId, usize)> = Vec::new();
        for t in g.task_ids() {
            if let Some(meta) = g.meta(t) {
                for (i, a) in meta.allocs.iter().enumerate() {
                    *totals.entry(a.tier).or_default() += a.bytes;
                    allocs.push((t, i));
                }
                for a in &meta.transits {
                    *totals.entry(a.tier).or_default() += a.bytes;
                }
            }
        }
        prop_assert!(!allocs.is_empty());
        let limits = Limits {
            gpu: totals.get(&MemTier::Gpu).copied(),
            host: totals.get(&MemTier::Host).copied(),
            ssd: totals.get(&MemTier::Ssd).copied(),
            ..Limits::none()
        };
        prop_assert!(verify(&g, &limits).is_clean());
        let (t, i) = allocs[pick % allocs.len()];
        let tier = g.meta(t).unwrap().allocs[i].tier;
        let budget = limits.for_tier(tier).unwrap();
        g.meta_mut(t).unwrap().allocs[i].bytes += 2.0 * budget;
        let report = verify(&g, &limits);
        prop_assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == Rule::CapacityExceeded),
            "mutant not caught:\n{}",
            report.render()
        );
    }

    /// Rebinding any compute or transfer task onto the wrong resource
    /// class is always caught by the legality pass.
    #[test]
    fn illegal_rebinding_is_caught(mode_ix in 0usize..3, pick in 0usize..4096) {
        let mut g = graph(MODES[mode_ix], 1);
        let cpu = g
            .resource_ids()
            .find(|r| g.resource_class(*r) == Some(ResourceClass::CpuCompute))
            .unwrap();
        let gpu = g
            .resource_ids()
            .find(|r| g.resource_class(*r) == Some(ResourceClass::GpuCompute))
            .unwrap();
        let victims: Vec<TaskId> = g
            .task_ids()
            .filter(|t| g.meta(*t).is_some() && g.resource(*t) != cpu && g.resource(*t) != gpu)
            .collect();
        prop_assert!(!victims.is_empty());
        let t = victims[pick % victims.len()];
        // A transfer or SSD op on a compute engine is never legal.
        g.rebind_resource(t, cpu);
        let report = verify(&g, &Limits::none());
        prop_assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == Rule::IllegalResource),
            "mutant not caught:\n{}",
            report.render()
        );
    }
}

/// Splitting SSD traffic across two array resources trips the simplex
/// check (deterministic: there is exactly one way to seed it).
#[test]
fn split_ssd_traffic_is_caught() {
    let mut g = graph(GradOffloadMode::OptimizedActive, 1);
    let second = g.add_resource("ssd2");
    g.set_resource_class(second, ResourceClass::SsdArray);
    let victim = g
        .task_ids()
        .find(|t| {
            g.meta(*t).is_some_and(|m| {
                matches!(
                    m.op,
                    ratel_repro::sim::OpClass::SsdRead | ratel_repro::sim::OpClass::SsdWrite
                )
            })
        })
        .unwrap();
    g.rebind_resource(victim, second);
    let report = verify(&g, &Limits::none());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::SimplexViolation),
        "{}",
        report.render()
    );
}

/// The benchmark's `train-actswap` in miniature (the shared zoo's last
/// shape) under its 64 KiB arena: the plan whose paced DAG the engine
/// dispatches, and the limits that DAG exactly fits at two workers.
fn paced_engine_plan() -> (TrainingPlan, Limits) {
    let model = GptConfig {
        vocab: 64,
        seq: 8,
        hidden: 16,
        heads: 2,
        layers: 6,
        batch: 2,
    };
    let decisions = [
        ActDecision::SwapToSsd,
        ActDecision::SwapToHost,
        ActDecision::Recompute,
    ];
    let plan = Ratel::init(model)
        .activation_decisions(decisions.iter().copied().cycle().take(6).collect())
        .gpu_capacity(64 << 10)
        .plan()
        .unwrap();
    let width = Some(2);
    let unlimited = Limits {
        width,
        ..Limits::none()
    };
    let peak = verify(plan.graph(), &unlimited).peak(MemTier::Gpu).total;
    assert!(0.0 < peak && peak <= (64 << 10) as f64, "{peak}");
    let limits = Limits {
        gpu: Some(peak),
        ..unlimited
    };
    (plan, limits)
}

fn labelled(g: &TaskGraph, label: &str) -> TaskId {
    g.task_ids()
        .find(|t| g.label(*t) == Some(label))
        .unwrap_or_else(|| panic!("no task `{label}`"))
}

/// Pacing is what keeps read-ahead inside the arena: without the edges
/// that hold block 2's swapped activations — each of their chunks — back
/// until `bwd L4` is done, they may land beside those of the blocks
/// above.
#[test]
fn dropped_pacing_edge_is_caught() {
    let (plan, limits) = paced_engine_plan();
    let mut g = plan.graph().clone();
    assert!(verify(&g, &limits).is_clean());
    let (unpaced, _, _) = plan.spec().build();
    for c in 0..ACT_CHUNKS {
        let held_back = labelled(&g, &format!("act-up L2#{c}"));
        let pacing: Vec<TaskId> = (g.deps(held_back).iter().copied())
            .filter(|d| !unpaced.deps(held_back).contains(d))
            .collect();
        assert_eq!(pacing, [labelled(&g, "bwd L4")]);
        g.remove_dep(held_back, pacing[0]);
    }
    let report = verify(&g, &limits);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::CapacityExceeded),
        "mutant not caught:\n{}",
        report.render()
    );
}

/// A rotated handler's `opt-read` brings back the moments its head write
/// carried out under forward. Without the edge between them it may read
/// the file before the write lands: a staleness finding on the layer's
/// SSD-side states blob — beside a host-resident master, its moments.
#[test]
fn dropped_head_write_edge_is_caught() {
    let model = GptConfig {
        vocab: 64,
        seq: 8,
        hidden: 16,
        heads: 2,
        layers: 2,
        batch: 2,
    };
    let plan = Ratel::init(model).plan().unwrap();
    let mut g = plan.graph().clone();
    assert!(verify(&g, &Limits::none()).is_clean());
    let (write, read) = (labelled(&g, "opt-write L0"), labelled(&g, "opt-read L0"));
    assert!(g.deps(read).contains(&write));
    g.remove_dep(read, write);
    let report = verify(&g, &Limits::none());
    assert!(
        report.findings.iter().any(|f| f.rule == Rule::Staleness
            && f.task == read
            && f.blob.as_deref() == Some("master[L0]@v1")),
        "mutant not caught:\n{}",
        report.render()
    );
}

/// A staged P16 the forward kernel never releases stays in the arena: the
/// paced DAG no longer fits the arena it exactly fitted, and in a step of
/// two micro-batches the next forward stages the layer again while the
/// copy is still open.
#[test]
fn dropped_free_is_caught() {
    let (plan, limits) = paced_engine_plan();
    let mut g = plan.graph().clone();
    let kernel = labelled(&g, "fwd L1");
    let frees = &mut g.meta_mut(kernel).unwrap().frees;
    assert_eq!(frees.len(), 1, "{frees:?}");
    frees.clear();
    let report = verify(&g, &limits);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::CapacityExceeded),
        "mutant not caught:\n{}",
        report.render()
    );

    let spec = IterationSpec {
        micro_batches: 2,
        ..plan.spec().clone()
    };
    let (mut g, _, _) = spec.build();
    let kernel = labelled(&g, "m0 fwd L1");
    g.meta_mut(kernel).unwrap().frees.clear();
    let report = verify(&g, &Limits::none());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::ResidencyBookkeeping && f.label == "m1 fwd-fetch L1"),
        "mutant not caught:\n{}",
        report.render()
    );
}
