//! The benchmark's definition: workloads and metric declarations.
//! `BENCHMARK.json` repeats these tables; a test holds the two together.

use ratel::prelude::{ActDecision, GptConfig};
use ratel_storage::Route;

/// What one op of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One `RatelTrainer::step`.
    Step,
    /// `step`, `eval`, `save_checkpoint`, `load_checkpoint`, `eval`,
    /// `generate_cached`.
    CkptGen,
}

/// Prompt and continuation lengths of the `ckpt-gen` generation call.
pub const GEN_PROMPT: usize = 8;
pub const GEN_NEW: usize = 24;

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line, repeated in `BENCHMARK.json`.
    pub why: &'static str,
    pub model: GptConfig,
    /// Per-block activation decisions, cycled over the blocks. Always
    /// explicit: a profiled plan could flip with probe noise and change
    /// the bytes a run moves.
    pub decisions: &'static [ActDecision],
    /// Emulated link speeds, bytes/s — the SSD and PCIe model.
    pub throttles: &'static [(Route, f64)],
    pub gpu_capacity: Option<u64>,
    pub op: OpKind,
}

impl Workload {
    pub fn decisions(&self) -> Vec<ActDecision> {
        self.decisions
            .iter()
            .copied()
            .cycle()
            .take(self.model.layers)
            .collect()
    }

    /// Tokens one op trains on plus tokens it generates.
    pub fn tokens_per_op(&self) -> usize {
        let trained = self.model.batch * self.model.seq;
        match self.op {
            OpKind::Step => trained,
            OpKind::CkptGen => trained + GEN_NEW,
        }
    }
}

const MB: f64 = 1e6;

/// The SSD model three workloads share: both directions at 120 MB/s.
const SSD_120: [(Route, f64); 2] = [
    (Route::SsdToHost, 120.0 * MB),
    (Route::HostToSsd, 120.0 * MB),
];

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train-compute",
        why: "Compute-heavy shape on the 120 MB/s SSD: GPU pool ~0.6 busy, SSD pool ~0.6, the balance Ratel plans for; kernel and glue work shows here at about half strength, train-ssd's I/O work too.",
        model: GptConfig {
            vocab: 512,
            seq: 256,
            hidden: 192,
            heads: 4,
            layers: 4,
            batch: 2,
        },
        decisions: &[ActDecision::SwapToHost],
        throttles: &SSD_120,
        gpu_capacity: None,
        op: OpKind::Step,
    },
    Workload {
        name: "train-ssd",
        why: "79 MB of optimizer-state read-modify-write per step at 120 MB/s keeps the SSD pool ~0.9 busy with CPU hidden: store scheduling, fewer bytes and optimizer overlap show in wall time.",
        model: GptConfig {
            vocab: 512,
            seq: 16,
            hidden: 256,
            heads: 4,
            layers: 3,
            batch: 1,
        },
        decisions: &[ActDecision::SwapToHost],
        throttles: &SSD_120,
        gpu_capacity: None,
        op: OpKind::Step,
    },
    Workload {
        name: "train-actswap",
        why: "Write-once/read-once activation blobs over all four routes at 40 MB/s under a 12 MB GPU arena, almost no optimizer state: streaming costs move opposite to train-ssd's state RMW.",
        model: GptConfig {
            vocab: 256,
            seq: 64,
            hidden: 64,
            heads: 4,
            layers: 6,
            batch: 16,
        },
        decisions: &[
            ActDecision::SwapToSsd,
            ActDecision::SwapToHost,
            ActDecision::Recompute,
        ],
        throttles: &[
            (Route::GpuToHost, 40.0 * MB),
            (Route::HostToGpu, 40.0 * MB),
            (Route::HostToSsd, 40.0 * MB),
            (Route::SsdToHost, 40.0 * MB),
        ],
        gpu_capacity: Some(12_000_000),
        op: OpKind::Step,
    },
    Workload {
        name: "ckpt-gen",
        why: "Cycle of step, eval, fsynced checkpoint save, verified load, eval, 24-token cached generation on the 120 MB/s SSD: the costs users pay outside the step, through the same store and kernels.",
        model: GptConfig {
            vocab: 512,
            seq: 64,
            hidden: 96,
            heads: 4,
            layers: 6,
            batch: 2,
        },
        decisions: &[ActDecision::SwapToHost],
        throttles: &SSD_120,
        gpu_capacity: None,
        op: OpKind::CkptGen,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A declared metric; `bound` is set on end-to-end metrics only.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the engine sees; reported by the untraced run.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("step_s_p50", "s", "lower", 0.25),
    e2e("tokens_per_s", "tokens/s", "higher", 0.25),
    e2e("peak_heap_mb", "MB", "lower", 0.10),
];

/// `<r>` of the per-route metrics, in `Route::ALL` order.
pub const ROUTE_TAGS: [&str; 4] = ["g2h", "h2g", "h2s", "s2h"];
/// `<p>` of the per-pool metrics, in `executor::POOL_CLASSES` order.
pub const POOL_TAGS: [&str; 5] = ["gpu", "cpu", "pcie_g2m", "pcie_m2g", "ssd"];

/// One module each; reported by the traced run. "better" for a pure
/// count or an environment reading is nominal.
pub const PER_LAYER: [MetricDecl; 66] = [
    // tensor: direct kernel calls at the workload's shapes.
    layer("tensor.gemm_gflops", "GFLOP/s", "higher"),
    layer("tensor.attn_fwd_s", "s", "lower"),
    layer("tensor.attn_bwd_s", "s", "lower"),
    layer("tensor.adam_melem_per_s", "Melem/s", "higher"),
    layer("tensor.f16_codec_gbps", "GB/s", "higher"),
    // storage: per-step traffic and route time, fault counters, residency.
    layer("storage.bytes_per_step.g2h", "B", "lower"),
    layer("storage.bytes_per_step.h2g", "B", "lower"),
    layer("storage.bytes_per_step.h2s", "B", "lower"),
    layer("storage.bytes_per_step.s2h", "B", "lower"),
    layer("storage.ops_per_step.g2h", "count", "lower"),
    layer("storage.ops_per_step.h2g", "count", "lower"),
    layer("storage.ops_per_step.h2s", "count", "lower"),
    layer("storage.ops_per_step.s2h", "count", "lower"),
    layer("storage.busy_s.g2h", "s", "lower"),
    layer("storage.busy_s.h2g", "s", "lower"),
    layer("storage.busy_s.h2s", "s", "lower"),
    layer("storage.busy_s.s2h", "s", "lower"),
    layer("storage.gbps.g2h", "GB/s", "higher"),
    layer("storage.gbps.h2g", "GB/s", "higher"),
    layer("storage.gbps.h2s", "GB/s", "higher"),
    layer("storage.gbps.s2h", "GB/s", "higher"),
    layer("storage.retries_per_step", "count", "lower"),
    layer("storage.giveups", "count", "lower"),
    layer("storage.spills", "count", "lower"),
    layer("storage.tier_peak_mb.ssd", "MB", "lower"),
    layer("storage.probe_put_ssd_gbps", "GB/s", "higher"),
    layer("storage.probe_read_ssd_gbps", "GB/s", "higher"),
    layer("storage.probe_move_h2g_gbps", "GB/s", "higher"),
    // executor: StepStats.tasks.
    layer("executor.tasks_per_step", "count", "lower"),
    layer("executor.busy_s.gpu", "s", "lower"),
    layer("executor.busy_s.cpu", "s", "lower"),
    layer("executor.busy_s.pcie_g2m", "s", "lower"),
    layer("executor.busy_s.pcie_m2g", "s", "lower"),
    layer("executor.busy_s.ssd", "s", "lower"),
    layer("executor.util.gpu", "ratio", "higher"),
    layer("executor.util.cpu", "ratio", "higher"),
    layer("executor.util.pcie_g2m", "ratio", "higher"),
    layer("executor.util.pcie_m2g", "ratio", "higher"),
    layer("executor.util.ssd", "ratio", "higher"),
    layer("executor.critical_path_s", "s", "lower"),
    layer("executor.slack_s", "s", "lower"),
    layer("executor.outside_s", "s", "lower"),
    layer("executor.dispatch_us_per_task", "us", "lower"),
    layer("optimizer.overlap_ratio", "ratio", "higher"),
    layer("checkpoint.save_s_p50", "s", "lower"),
    layer("checkpoint.load_s_p50", "s", "lower"),
    layer("checkpoint.mb", "MB", "lower"),
    layer("checkpoint.save_gbps", "GB/s", "higher"),
    // engine: glue, generation, the set-up split.
    layer("engine.cpu_s_per_step", "CPU-s", "lower"),
    layer("engine.allocs_per_step", "count", "lower"),
    layer("engine.alloc_mb_per_step", "MB", "lower"),
    layer("engine.step_s_p90", "s", "lower"),
    layer("engine.step_s_max", "s", "lower"),
    layer("engine.gen_ms_per_token", "ms", "lower"),
    layer("engine.eval_s_p50", "s", "lower"),
    layer("engine.plan_verify_s", "s", "lower"),
    layer("engine.build_s", "s", "lower"),
    layer("engine.warmup_step_s", "s", "lower"),
    layer("engine.loss_final", "nats", "lower"),
    layer("obs.trace_overhead_ratio", "ratio", "lower"),
    // env: what the numbers were measured on.
    layer("env.nproc", "count", "higher"),
    layer("env.tensor_threads", "count", "higher"),
    layer("env.workers_per_pool", "count", "higher"),
    layer("env.ssd_dir_tmpfs", "bool", "higher"),
    layer("env.spin_ms_before", "ms", "lower"),
    layer("env.spin_ms_after", "ms", "lower"),
];

pub fn declared_unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` missing in {entry}"))
    }

    #[test]
    fn workload_table_matches_benchmark_json() {
        let doc = benchmark_json();
        let listed = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(text(entry, "name"), w.name);
            assert_eq!(text(entry, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(w.decisions().len(), w.model.layers);
            assert!(w.model.seq >= GEN_PROMPT + GEN_NEW || w.op == OpKind::Step);
        }
    }

    #[test]
    fn metric_declarations_match_benchmark_json() {
        let doc = benchmark_json();
        for (key, decls) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), decls.len(), "{key}");
            for (entry, decl) in listed.iter().zip(decls) {
                assert_eq!(text(entry, "name"), decl.name);
                assert_eq!(text(entry, "unit"), decl.unit, "{}", decl.name);
                assert_eq!(text(entry, "better"), decl.better, "{}", decl.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    decl.bound,
                    "{}",
                    decl.name
                );
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
    }

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&MetricDecl> = END_TO_END.iter().chain(&PER_LAYER).collect();
        assert!(PER_LAYER.len() <= 128);
        for (i, m) in all.iter().enumerate() {
            let name_ok = m.name.len() <= 64
                && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(name_ok, "name {}", m.name);
            let unit_ok = !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(unit_ok, "unit {} of {}", m.unit, m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
        }
        // `BENCHMARK.json` is refused with a bound outside (0, 0.25].
        for m in &END_TO_END {
            assert!(
                matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25),
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for route in ROUTE_TAGS {
            assert!(declared_unit(&format!("storage.bytes_per_step.{route}")).is_some());
        }
        for pool in POOL_TAGS {
            assert!(declared_unit(&format!("executor.util.{pool}")).is_some());
        }
    }
}
