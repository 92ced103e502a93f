//! Extension experiments beyond the paper's evaluation.
//!
//! * `ext-seqlen` — the paper fixes the sequence length at 1024; this
//!   sweep varies it. Attention FLOPs grow quadratically while activation
//!   bytes grow linearly, so longer sequences raise every layer's
//!   offloading benefit (`OB = FLOP/A`) and push the planner from Case 1
//!   (PCIe-bound, recompute) toward Case 2/3 (swap aggressively).
//! * `ext-pcie` — sweeps the GPU link bandwidth: on slow links the
//!   planner collapses toward the checkpoint floor (recompute nearly
//!   everything); as the link speeds up it swaps several times more
//!   bytes, until the SSD/CPU optimizer path becomes the binding
//!   resource and extra link bandwidth stops mattering — the crossover
//!   structure the paper's Fig. 9b shows at a single bandwidth.

use ratel::offload::GradOffloadMode;
use ratel::planner::{ActivationPlanner, PlanCase};
use ratel::profile::HardwareProfile;
use ratel::schedule::RatelSchedule;
use ratel_model::{zoo, ModelConfig, ModelProfile};

use crate::paper_server;
use crate::table::{fnum, Table};

fn simulate(hw: &HardwareProfile, model: &ModelProfile) -> (f64, f64, PlanCase, f64) {
    let plan = ActivationPlanner::new(hw, model).plan();
    let r = RatelSchedule {
        profile: hw,
        model,
        plan: &plan,
        mode: GradOffloadMode::OptimizedActive,
        gpus: 1,
    }
    .simulate();
    (
        r.iteration_seconds,
        r.throughput_items_per_sec,
        plan.case,
        plan.a_g2m / model.total_act_bytes(),
    )
}

/// Sequence-length sweep at fixed tokens-per-iteration (batch adjusts so
/// `batch * seq` stays 32k, like comparing packing strategies).
pub fn run_seqlen() -> Table {
    let server = paper_server();
    let mut t = Table::new(
        "Extension: sequence length sweep, 13B, 32k tokens/iteration",
        &[
            "seq len",
            "batch",
            "T_iter (s)",
            "token/s",
            "swap fraction",
            "planner case",
        ],
    );
    for seq in [512usize, 1024, 2048, 4096] {
        let batch = 32 * 1024 / seq;
        let config = ModelConfig {
            seq_len: seq,
            ..zoo::llm("13B")
        };
        let model = ModelProfile::new(&config, batch);
        let hw = HardwareProfile::measure(&server, &model, batch);
        let (iter, tput, case, frac) = simulate(&hw, &model);
        t.row(vec![
            seq.to_string(),
            batch.to_string(),
            fnum(iter, 1),
            fnum(tput, 0),
            fnum(frac, 2),
            format!("{case:?}"),
        ]);
    }
    t
}

/// GPU-link bandwidth sweep at 13B, batch 32.
pub fn run_pcie() -> Table {
    let server = paper_server();
    let model = ModelProfile::new(&zoo::llm("13B"), 32);
    let mut t = Table::new(
        "Extension: GPU link bandwidth sweep, 13B, batch 32",
        &[
            "PCIe GB/s per dir",
            "T_iter (s)",
            "swap fraction",
            "planner case",
        ],
    );
    for gbps in [4.0f64, 8.0, 16.0, 21.0, 32.0, 64.0, 128.0] {
        let mut hw = HardwareProfile::measure(&server, &model, 32);
        hw.bw_gpu = gbps * 1e9;
        let (iter, _, case, frac) = simulate(&hw, &model);
        t.row(vec![
            fnum(gbps, 0),
            fnum(iter, 1),
            fnum(frac, 2),
            format!("{case:?}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_sequences_swap_more() {
        let t = run_seqlen();
        let first: f64 = t.rows.first().unwrap()[4].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[4].parse().unwrap();
        assert!(
            last >= first,
            "swap fraction should not shrink with sequence length: {first} vs {last}"
        );
    }

    #[test]
    fn faster_links_swap_more_and_run_faster() {
        let t = run_pcie();
        let fracs: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        let iters: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // Swap fraction is non-decreasing in bandwidth; iteration time is
        // non-increasing.
        for w in fracs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{fracs:?}");
        }
        for w in iters.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{iters:?}");
        }
        // Slow links collapse the swap toward the floor; fast links swap
        // at least 2x more, then plateau once the SSD/CPU path binds.
        assert!(
            fracs.first().unwrap() * 2.0 <= *fracs.last().unwrap(),
            "{fracs:?}"
        );
        let n = fracs.len();
        assert!(
            (fracs[n - 1] - fracs[n - 2]).abs() < 1e-6,
            "expected a plateau at high bandwidth: {fracs:?}"
        );
    }
}

/// Builds a Ratel iteration spec where only `trainable_fraction` of each
/// layer's parameters receive optimizer updates (LoRA-style adapters):
/// the full P16 still streams for forward/backward, but gradients and
/// optimizer-state I/O shrink to the adapter set.
fn lora_spec(
    hw: &HardwareProfile,
    model: &ModelProfile,
    trainable_fraction: f64,
) -> ratel::schedule::IterationSpec {
    use ratel::schedule::{LayerTask, Placement};

    let plan = ActivationPlanner::new(hw, model).plan();
    let mut spec = RatelSchedule {
        profile: hw,
        model,
        plan: &plan,
        mode: GradOffloadMode::OptimizedActive,
        gpus: 1,
    }
    .to_spec();
    for (task, layer) in spec.layers.iter_mut().zip(&model.layers) {
        let adapters = layer.params * trainable_fraction;
        let trained = LayerTask::ratel(task.label.as_str(), layer.params, adapters, Placement::Ssd);
        task.grad_bytes = trained.grad_bytes;
        task.optimizer = trained.optimizer;
    }
    spec
}

/// `ext-lora`: full fine-tuning vs LoRA-style parameter-efficient
/// fine-tuning under Ratel's offloading.
pub fn run_lora() -> Table {
    let server = paper_server();
    let mut t = Table::new(
        "Extension: LoRA-style fine-tuning under Ratel (token/s, best of batch 8-64)",
        &["model", "full FT", "LoRA ~1%", "LoRA ~0.1%", "LoRA speedup"],
    );
    for (name, batches) in [
        ("13B", &[16usize, 32, 64][..]),
        ("70B", &[16, 32][..]),
        ("175B", &[8, 16][..]),
    ] {
        let best = |fraction: f64| -> f64 {
            batches
                .iter()
                .map(|&b| {
                    let model = ModelProfile::new(&zoo::llm(name), b);
                    let hw = HardwareProfile::measure(&server, &model, b);
                    lora_spec(&hw, &model, fraction)
                        .simulate(&model)
                        .throughput_items_per_sec
                })
                .fold(0.0, f64::max)
        };
        let full = best(1.0);
        let lora1 = best(0.01);
        let lora01 = best(0.001);
        t.row(vec![
            name.to_string(),
            fnum(full, 0),
            fnum(lora1, 0),
            fnum(lora01, 0),
            fnum(lora1 / full, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod lora_tests {
    use super::*;

    #[test]
    fn lora_removes_the_optimizer_bottleneck() {
        let t = run_lora();
        for row in &t.rows {
            let full: f64 = row[1].parse().unwrap();
            let lora: f64 = row[2].parse().unwrap();
            assert!(lora > full, "{row:?}");
        }
        // The win grows with model size (the optimizer I/O grows with P
        // while the GPU work per token does not).
        let first: f64 = t.rows.first().unwrap()[4].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[4].parse().unwrap();
        assert!(last >= first, "speedups: {first} vs {last}");
    }

    #[test]
    fn tiny_adapters_approach_the_compute_bound() {
        let t = run_lora();
        for row in &t.rows {
            let lora1: f64 = row[2].parse().unwrap();
            let lora01: f64 = row[3].parse().unwrap();
            // Another 10x fewer trainable params gains little: the GPU is
            // already the bottleneck.
            assert!(lora01 <= lora1 * 1.25, "{row:?}");
        }
    }
}
