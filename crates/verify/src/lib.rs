#![warn(missing_docs)]
//! Static schedule & invariant analyzer: proves a [`TaskGraph`] safe
//! before it runs, without simulating it.
//!
//! The simulator executes *one* linear extension of the task DAG; a
//! schedule can look correct under FIFO service yet still be unsafe —
//! a missing edge only bites when queue timing shifts. This crate checks
//! the properties the Ratel paper claims, over **all** linear
//! extensions:
//!
//! 1. **Dataflow / version analysis** ([`dataflow`]) — every consumer of
//!    a blob version is dominated by its producer (use-before-fetch,
//!    §IV-C parameter/gradient staleness), and in-place writers of
//!    persistent state are ordered after every reader of the previous
//!    version (write-after-read hazards).
//! 2. **Residency interval analysis** ([`residency`]) — the worst-case
//!    concurrent footprint per memory tier, via interval overlap over
//!    the partial order (not enumeration), stays within the planner's
//!    §IV-D budgets (`MEM_avail`, SSD spill allowance).
//! 3. **Resource legality** ([`legality`]) — tasks are bound to
//!    resources that can physically serve them, the SSD array stays
//!    simplex (one FIFO for reads and writes), PCIe stays duplex
//!    (directions on disjoint lanes), and every edge runs forward in
//!    `Stage::ALL`/iteration order and in issue order (no dependency
//!    ranks after its dependent).
//!
//! Tasks without [`TaskMeta`] annotations are invisible to the passes,
//! so foreign or hand-built graphs verify clean by default; annotated
//! graphs built by `ratel-core`'s schedule builder get the full check.
//! `ratel-bench verify-plans` sweeps the model zoo × offload modes ×
//! baselines through [`verify`] and fails CI on any finding.

pub mod dataflow;
pub mod finding;
pub mod legality;
pub mod reach;
pub mod residency;

pub use finding::{Finding, Rule, TierPeak, VerifyReport};
pub use reach::{witness_path, Reachability};
pub use residency::Limits;

use ratel_sim::TaskGraph;
#[cfg(doc)]
use ratel_sim::TaskMeta;

/// Runs all static passes over `graph` against `limits`.
pub fn verify(graph: &TaskGraph, limits: &Limits) -> VerifyReport {
    let reach = Reachability::new(graph);
    let mut report = VerifyReport {
        tasks_checked: graph
            .task_ids()
            .filter(|t| graph.meta(*t).is_some())
            .count(),
        ..VerifyReport::default()
    };
    let (df, versions) = dataflow::check(graph, &reach);
    report.versions_seen = versions;
    report.findings.extend(df);
    let (res, intervals, peaks) = residency::check(graph, &reach, limits);
    report.intervals = intervals;
    report.peaks = peaks;
    report.findings.extend(res);
    report.findings.extend(legality::check(graph));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratel_sim::{
        BlobKey, BlobKind, MemTier, OpClass, ResourceClass, Stage, TaskGraph, TaskIdentity,
        TaskKind, TaskMeta, VersionedBlob,
    };

    fn v(kind: BlobKind, layer: usize, version: u64) -> VersionedBlob {
        VersionedBlob {
            key: BlobKey::shared(kind, layer),
            version,
        }
    }

    #[test]
    fn unannotated_graphs_verify_clean() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        let a = g.add_task(r, 1.0, Stage::Forward, &[]);
        g.add_task(r, 1.0, Stage::Backward, &[a]);
        let report = verify(&g, &Limits::none());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.tasks_checked, 0);
    }

    #[test]
    fn dominated_reads_are_clean_and_undominated_reads_are_flagged() {
        let mut g = TaskGraph::new();
        let ssd = g.add_resource("ssd");
        let gpu = g.add_resource("gpu");
        let p = v(BlobKind::Act, 0, 1);
        let w = g.add_task_labeled(ssd, 1.0, Stage::Forward, &[], "produce");
        g.set_meta(w, TaskMeta::new(OpClass::SsdWrite, 0).write(p));
        let rd = g.add_task_labeled(gpu, 1.0, Stage::Backward, &[w], "consume");
        g.set_meta(rd, TaskMeta::new(OpClass::GpuCompute, 0).read(p));
        assert!(verify(&g, &Limits::none()).is_clean());

        // Sever the edge: the read is no longer dominated.
        g.remove_dep(rd, w);
        let report = verify(&g, &Limits::none());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::UseBeforeFetch);
        assert_eq!(report.findings[0].task, rd);
    }

    #[test]
    fn param_reads_map_to_the_staleness_rule() {
        let mut g = TaskGraph::new();
        let ssd = g.add_resource("ssd");
        let p = v(BlobKind::Param16, 3, 1);
        let w = g.add_task_labeled(ssd, 1.0, Stage::Optimizer, &[], "opt-write");
        g.set_meta(w, TaskMeta::new(OpClass::SsdWrite, 0).write(p));
        let rd = g.add_task_labeled(ssd, 1.0, Stage::Forward, &[], "fwd-read");
        g.set_meta(rd, TaskMeta::new(OpClass::SsdRead, 1).read(p));
        let report = verify(&g, &Limits::none());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::Staleness);
    }

    #[test]
    fn version_zero_reads_need_no_producer() {
        let mut g = TaskGraph::new();
        let ssd = g.add_resource("ssd");
        let rd = g.add_task(ssd, 1.0, Stage::Forward, &[]);
        g.set_meta(
            rd,
            TaskMeta::new(OpClass::SsdRead, 0).read(v(BlobKind::Param16, 0, 0)),
        );
        assert!(verify(&g, &Limits::none()).is_clean());
    }

    #[test]
    fn missing_producer_of_a_positive_version_is_flagged() {
        let mut g = TaskGraph::new();
        let ssd = g.add_resource("ssd");
        let rd = g.add_task(ssd, 1.0, Stage::Forward, &[]);
        g.set_meta(
            rd,
            TaskMeta::new(OpClass::SsdRead, 0).read(v(BlobKind::Act, 0, 2)),
        );
        let report = verify(&g, &Limits::none());
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].detail.contains("no task produces"));
    }

    #[test]
    fn write_after_read_hazard_on_persistent_state() {
        let mut g = TaskGraph::new();
        let ssd = g.add_resource("ssd");
        let p0 = v(BlobKind::Param16, 0, 0);
        let p1 = v(BlobKind::Param16, 0, 1);
        let rd = g.add_task_labeled(ssd, 1.0, Stage::Forward, &[], "read-v0");
        g.set_meta(rd, TaskMeta::new(OpClass::SsdRead, 0).read(p0));
        // The overwrite is concurrent with the read: hazard.
        let w = g.add_task_labeled(ssd, 1.0, Stage::Optimizer, &[], "write-v1");
        g.set_meta(w, TaskMeta::new(OpClass::SsdWrite, 0).write(p1));
        let report = verify(&g, &Limits::none());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::WriteAfterRead);

        // Ordering the write after the read fixes it.
        let mut g2 = TaskGraph::new();
        let ssd = g2.add_resource("ssd");
        let rd = g2.add_task(ssd, 1.0, Stage::Forward, &[]);
        g2.set_meta(rd, TaskMeta::new(OpClass::SsdRead, 0).read(p0));
        let w = g2.add_task(ssd, 1.0, Stage::Optimizer, &[rd]);
        g2.set_meta(w, TaskMeta::new(OpClass::SsdWrite, 0).write(p1));
        assert!(verify(&g2, &Limits::none()).is_clean());
    }

    /// A write of version 2 of a transient blob, ordered after its
    /// version-1 producer only, in micro-batch `micro` of iteration 0;
    /// the version-1 reader is in micro-batch 0.
    fn refill(micro: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let m2g = g.add_resource("m2g");
        let b0 = v(BlobKind::Grad, 0, 1);
        let b1 = v(BlobKind::Grad, 0, 2);
        let meta = |micro| {
            let id = TaskIdentity {
                micro,
                ..TaskIdentity::shared(TaskKind::GradOff, 0)
            };
            TaskMeta {
                identity: Some(id),
                ..TaskMeta::new(OpClass::TransferM2G, 0)
            }
        };
        let f = g.add_task(m2g, 1.0, Stage::Forward, &[]);
        g.set_meta(f, meta(0).write(b0));
        let use0 = g.add_task(m2g, 1.0, Stage::Forward, &[f]);
        g.set_meta(use0, meta(0).read(b0));
        let refill = g.add_task(m2g, 1.0, Stage::Backward, &[f]);
        g.set_meta(refill, meta(micro).write(b1));
        g
    }

    #[test]
    fn transient_blobs_are_exempt_from_write_after_read_within_a_micro_batch() {
        // Double-buffered staging: the backward prefetch may legally
        // overlap the forward copy's use.
        assert!(verify(&refill(0), &Limits::none()).is_clean());
    }

    #[test]
    fn a_later_micro_batch_refills_a_slot_only_after_its_readers() {
        let report = verify(&refill(1), &Limits::none());
        let rules: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, [Rule::WriteAfterRead], "{}", report.render());
    }

    #[test]
    fn duplicate_producers_are_flagged() {
        let mut g = TaskGraph::new();
        let ssd = g.add_resource("ssd");
        let p = v(BlobKind::Act, 0, 1);
        let a = g.add_task(ssd, 1.0, Stage::Forward, &[]);
        g.set_meta(a, TaskMeta::new(OpClass::SsdWrite, 0).write(p));
        let b = g.add_task(ssd, 1.0, Stage::Forward, &[a]);
        g.set_meta(b, TaskMeta::new(OpClass::SsdWrite, 0).write(p));
        let report = verify(&g, &Limits::none());
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::DuplicateProducer));
    }

    #[test]
    fn overlapping_residency_exceeding_budget_is_flagged() {
        let mut g = TaskGraph::new();
        let g2m = g.add_resource("g2m");
        let k0 = BlobKey::shared(BlobKind::Act, 0);
        let k1 = BlobKey::shared(BlobKind::Act, 1);
        // Two 1 GB intervals with no ordering between alloc/free pairs:
        // they may coexist.
        let a0 = g.add_task(g2m, 1.0, Stage::Forward, &[]);
        g.set_meta(
            a0,
            TaskMeta::new(OpClass::TransferG2M, 0).alloc(MemTier::Host, k0, 1e9),
        );
        let a1 = g.add_task(g2m, 1.0, Stage::Forward, &[]);
        g.set_meta(
            a1,
            TaskMeta::new(OpClass::TransferG2M, 0).alloc(MemTier::Host, k1, 1e9),
        );
        let report = verify(
            &g,
            &Limits {
                host: Some(1.5e9),
                ..Limits::none()
            },
        );
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::CapacityExceeded);
        assert_eq!(report.intervals, 2);

        // A 2 GB budget fits both.
        let report = verify(
            &g,
            &Limits {
                host: Some(2.0e9),
                ..Limits::none()
            },
        );
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn serialized_residency_does_not_stack() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        let k0 = BlobKey::shared(BlobKind::Act, 0);
        let k1 = BlobKey::shared(BlobKind::Act, 1);
        let a0 = g.add_task(r, 1.0, Stage::Forward, &[]);
        g.set_meta(
            a0,
            TaskMeta::new(OpClass::CpuCompute, 0).alloc(MemTier::Host, k0, 1e9),
        );
        let f0 = g.add_task(r, 1.0, Stage::Backward, &[a0]);
        g.set_meta(
            f0,
            TaskMeta::new(OpClass::CpuCompute, 0).free(MemTier::Host, k0),
        );
        // Second interval allocates strictly after the first is freed.
        let a1 = g.add_task(r, 1.0, Stage::Backward, &[f0]);
        g.set_meta(
            a1,
            TaskMeta::new(OpClass::CpuCompute, 0).alloc(MemTier::Host, k1, 1e9),
        );
        let report = verify(
            &g,
            &Limits {
                host: Some(1.5e9),
                ..Limits::none()
            },
        );
        assert!(report.is_clean(), "{}", report.render());
    }

    /// A GPU chain of `kernels` tasks plus one resource per entry of
    /// `pools`; returns the graph, the kernels and the pool resources.
    fn chain_with_pools(
        kernels: usize,
        pools: usize,
    ) -> (
        TaskGraph,
        Vec<ratel_sim::TaskId>,
        Vec<ratel_sim::ResourceId>,
    ) {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let mut chain: Vec<ratel_sim::TaskId> = Vec::new();
        for _ in 0..kernels {
            let deps: Vec<_> = chain.last().copied().into_iter().collect();
            chain.push(g.add_task(gpu, 1.0, Stage::Forward, &deps));
        }
        let pools = (0..pools)
            .map(|p| g.add_resource(format!("pool{p}")))
            .collect();
        (g, chain, pools)
    }

    fn peak_at_width(g: &TaskGraph, tier: MemTier, width: Option<usize>) -> f64 {
        let limits = Limits {
            width,
            ..Limits::none()
        };
        let report = verify(g, &limits);
        assert!(report.is_clean(), "{}", report.render());
        report.peak(tier).total
    }

    #[test]
    fn a_blob_put_and_moved_by_one_task_is_held_while_it_runs() {
        // An offload: the task puts 8 B into the arena and moves them to
        // host memory, where they stay until the consumer frees them;
        // the chain's second kernel leaves 3 B there for good.
        let (mut g, chain, pools) = chain_with_pools(2, 2);
        let k = BlobKey::shared(BlobKind::Act, 0);
        let sum = BlobKey::shared(BlobKind::GradReduced, 0);
        g.set_meta(
            chain[1],
            TaskMeta::new(OpClass::GpuCompute, 0).alloc(MemTier::Host, sum, 3.0),
        );
        let off = g.add_task(pools[0], 1.0, Stage::Forward, &[chain[0]]);
        g.set_meta(
            off,
            TaskMeta::new(OpClass::TransferG2M, 0)
                .transit(MemTier::Gpu, k, 8.0)
                .alloc(MemTier::Host, k, 8.0),
        );
        let back = g.add_task(pools[1], 1.0, Stage::Backward, &[off, chain[1]]);
        g.set_meta(
            back,
            TaskMeta::new(OpClass::TransferM2G, 0).free(MemTier::Host, k),
        );
        assert_eq!(peak_at_width(&g, MemTier::Gpu, Some(1)), 8.0);
        assert_eq!(peak_at_width(&g, MemTier::Host, Some(1)), 11.0);
        let report = verify(&g, &Limits::none());
        assert_eq!(report.intervals, 3);
        assert_eq!(report.peak(MemTier::Host).activations, 8.0);
        assert_eq!(report.peak(MemTier::Host).outliving, 3.0);
        assert_eq!(report.peak(MemTier::Gpu).outliving, 0.0);
    }

    #[test]
    fn a_pool_runs_only_so_many_transits_at_once() {
        // Four unordered offloads of 1, 2, 3 and 4 B on one pool.
        let (mut g, chain, pools) = chain_with_pools(2, 1);
        for b in 1..=4 {
            let t = g.add_task(pools[0], 1.0, Stage::Forward, &[chain[0]]);
            let k = BlobKey::shared(BlobKind::Grad, b);
            g.set_meta(
                t,
                TaskMeta::new(OpClass::TransferG2M, 0).transit(MemTier::Gpu, k, b as f64),
            );
        }
        assert_eq!(peak_at_width(&g, MemTier::Gpu, Some(1)), 4.0);
        assert_eq!(peak_at_width(&g, MemTier::Gpu, Some(2)), 7.0);
        assert_eq!(peak_at_width(&g, MemTier::Gpu, Some(8)), 10.0);
        // Any executor: nothing says they do not all run together.
        assert_eq!(peak_at_width(&g, MemTier::Gpu, None), 10.0);
    }

    #[test]
    fn a_transit_meets_only_what_its_phases_hold() {
        // `fetch` stages 100 B the chain's second kernel frees; a 4 B
        // offload gated behind the first kernel may run beside them,
        // gated behind the second it cannot.
        for (gate, peak) in [(0, 104.0), (1, 100.0)] {
            let mut g = TaskGraph::new();
            let gpu = g.add_resource("gpu");
            let m2g = g.add_resource("m2g");
            let g2m = g.add_resource("g2m");
            let held = BlobKey::on_gpu(BlobKind::P16Fwd, 0, 0);
            let fetch = g.add_task(m2g, 1.0, Stage::Forward, &[]);
            g.set_meta(
                fetch,
                TaskMeta::new(OpClass::TransferM2G, 0).alloc(MemTier::Gpu, held, 100.0),
            );
            let first = g.add_task(gpu, 1.0, Stage::Forward, &[]);
            let second = g.add_task(gpu, 1.0, Stage::Forward, &[first, fetch]);
            g.set_meta(
                second,
                TaskMeta::new(OpClass::GpuCompute, 0).free(MemTier::Gpu, held),
            );
            let off = g.add_task(g2m, 1.0, Stage::Forward, &[[first, second][gate]]);
            let k = BlobKey::shared(BlobKind::Grad, 0);
            g.set_meta(
                off,
                TaskMeta::new(OpClass::TransferG2M, 0).transit(MemTier::Gpu, k, 4.0),
            );
            assert_eq!(
                peak_at_width(&g, MemTier::Gpu, Some(1)),
                peak,
                "gate {gate}"
            );
        }
    }

    #[test]
    fn transits_on_different_pools_are_both_counted() {
        let (mut g, chain, pools) = chain_with_pools(2, 2);
        for (p, bytes) in [(0, 5.0), (1, 7.0)] {
            let t = g.add_task(pools[p], 1.0, Stage::Forward, &[chain[0]]);
            let k = BlobKey::shared(BlobKind::Grad, p);
            g.set_meta(
                t,
                TaskMeta::new(OpClass::TransferG2M, 0).transit(MemTier::Host, k, bytes),
            );
        }
        assert_eq!(peak_at_width(&g, MemTier::Host, Some(1)), 12.0);
        // Ordered after each other they would not coexist; on different
        // pools and unordered, one worker each is enough.
        assert_eq!(peak_at_width(&g, MemTier::Host, None), 12.0);
    }

    #[test]
    fn an_allocation_lands_when_its_task_starts() {
        // `b` frees what `a` allocated and allocates as much again: both
        // are in the tier while `b` runs.
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        let (k0, k1) = (
            BlobKey::shared(BlobKind::Act, 0),
            BlobKey::shared(BlobKind::Act, 1),
        );
        let a = g.add_task(r, 1.0, Stage::Forward, &[]);
        g.set_meta(
            a,
            TaskMeta::new(OpClass::CpuCompute, 0).alloc(MemTier::Host, k0, 4.0),
        );
        let b = g.add_task(r, 1.0, Stage::Forward, &[a]);
        g.set_meta(
            b,
            TaskMeta::new(OpClass::CpuCompute, 0)
                .free(MemTier::Host, k0)
                .alloc(MemTier::Host, k1, 4.0),
        );
        let c = g.add_task(r, 1.0, Stage::Forward, &[b]);
        g.set_meta(
            c,
            TaskMeta::new(OpClass::CpuCompute, 0).free(MemTier::Host, k1),
        );
        let report = verify(&g, &Limits::none());
        assert_eq!(report.peak(MemTier::Host).total, 8.0);
        assert_eq!(report.peak(MemTier::Host).activations, 8.0);
    }

    #[test]
    fn residency_bookkeeping_errors_are_flagged() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        let k = BlobKey::shared(BlobKind::Act, 0);
        let stray = g.add_task(r, 1.0, Stage::Forward, &[]);
        g.set_meta(
            stray,
            TaskMeta::new(OpClass::TransferM2G, 0).free(MemTier::Host, k),
        );
        let report = verify(&g, &Limits::none());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::ResidencyBookkeeping);
    }

    #[test]
    fn op_class_must_match_resource_class() {
        let mut g = TaskGraph::new();
        let pcie = g.add_resource("pcie-g2m");
        g.set_resource_class(pcie, ResourceClass::PcieG2M);
        let t = g.add_task(pcie, 1.0, Stage::Optimizer, &[]);
        g.set_meta(t, TaskMeta::new(OpClass::CpuCompute, 0));
        let report = verify(&g, &Limits::none());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::IllegalResource);
    }

    #[test]
    fn ssd_traffic_must_share_one_simplex_resource() {
        let mut g = TaskGraph::new();
        let ssd_r = g.add_resource("ssd-read-lane");
        let ssd_w = g.add_resource("ssd-write-lane");
        let a = g.add_task(ssd_r, 1.0, Stage::Forward, &[]);
        g.set_meta(a, TaskMeta::new(OpClass::SsdRead, 0));
        let b = g.add_task(ssd_w, 1.0, Stage::Forward, &[]);
        g.set_meta(b, TaskMeta::new(OpClass::SsdWrite, 0));
        let report = verify(&g, &Limits::none());
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::SimplexViolation));
    }

    #[test]
    fn pcie_directions_must_not_share_a_resource() {
        let mut g = TaskGraph::new();
        let lane = g.add_resource("pcie");
        let a = g.add_task(lane, 1.0, Stage::Forward, &[]);
        g.set_meta(a, TaskMeta::new(OpClass::TransferM2G, 0));
        let b = g.add_task(lane, 1.0, Stage::Forward, &[]);
        g.set_meta(b, TaskMeta::new(OpClass::TransferG2M, 0));
        let report = verify(&g, &Limits::none());
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::DuplexViolation));
    }

    #[test]
    fn edges_must_follow_stage_and_iteration_order() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        // Same iteration, backward -> forward edge: illegal.
        let b = g.add_task(r, 1.0, Stage::Backward, &[]);
        g.set_meta(b, TaskMeta::new(OpClass::GpuCompute, 0));
        let f = g.add_task(r, 1.0, Stage::Forward, &[b]);
        g.set_meta(f, TaskMeta::new(OpClass::GpuCompute, 0));
        let report = verify(&g, &Limits::none());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::StageOrder);

        // Iteration going backwards along an edge: illegal.
        let mut g2 = TaskGraph::new();
        let r = g2.add_resource("r");
        let late = g2.add_task(r, 1.0, Stage::Forward, &[]);
        g2.set_meta(late, TaskMeta::new(OpClass::GpuCompute, 1));
        let early = g2.add_task(r, 1.0, Stage::Forward, &[late]);
        g2.set_meta(early, TaskMeta::new(OpClass::GpuCompute, 0));
        let report = verify(&g2, &Limits::none());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::StageOrder);
    }

    #[test]
    fn a_dependency_must_not_rank_after_its_dependent() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        let a = g.add_task_labeled(r, 1.0, Stage::Forward, &[], "a");
        let b = g.add_task_labeled(r, 1.0, Stage::Forward, &[a], "b");
        g.set_rank(a, 1);
        g.set_rank(b, 1);
        assert!(verify(&g, &Limits::none()).is_clean());
        g.set_rank(a, 2);
        let report = verify(&g, &Limits::none());
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!((f.rule, f.task), (Rule::RankOrder, b));
        assert_eq!(f.witness, ["a", "b"]);
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        let t = g.add_task_labeled(r, 1.0, Stage::Forward, &[], "a \"quoted\" label");
        g.set_meta(
            t,
            TaskMeta::new(OpClass::GpuCompute, 0).read(v(BlobKind::Act, 0, 5)),
        );
        let report = verify(&g, &Limits::none());
        let json = report.to_json();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("use-before-fetch"));
        assert!(json.contains("a \\\"quoted\\\" label"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
