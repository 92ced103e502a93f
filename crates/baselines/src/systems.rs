//! End-to-end baseline systems.
//!
//! Each system is described by where it places the three tensor families
//! (model states, activations, gradients), where its optimizer runs, and
//! how much memory its runtime needs — the axes §III uses to diagnose
//! why each baseline fails. Memory-model constants are calibrated to the
//! paper's reported maxima (Fig. 2a / Fig. 6): ZeRO-Infinity tops out at
//! 135B with 768 GB of main memory (~5.5 bytes/param of host residency),
//! Colossal-AI at ~70B (~10.5 bytes/param), ZeRO-Offload at 30B (16
//! bytes/param in host), FlashNeuron at ~1.5B (16 bytes/param *in GPU*),
//! and G10 needs GPUDirect, which consumer GPUs lack.

use ratel::offload::GradOffloadMode;
use ratel::planner::ActivationPlanner;
use ratel::profile::HardwareProfile;
use ratel::report::IterationReport;
use ratel::schedule::{
    IterationSpec, LayerTask, LinkRates, OptimizerKind, ParamSource, RatelSchedule,
};
use ratel::RatelMemoryModel;
use ratel_hw::ServerConfig;
use ratel_model::{ModelConfig, ModelKind, ModelProfile};

/// A complete training system under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Ratel with optimized active gradient offloading and the holistic
    /// activation planner.
    Ratel,
    /// DeepSpeed ZeRO-Infinity: model states on SSD, inter-block
    /// activation checkpoints in host memory, full intra-block
    /// recomputation, gradients spilled to SSD, separate-stage CPU Adam.
    ZeroInfinity,
    /// DeepSpeed ZeRO-Offload: model states resident in host memory,
    /// otherwise like ZeRO-Infinity without SSDs.
    ZeroOffload,
    /// Colossal-AI with the Gemini chunk manager: states on SSD,
    /// checkpoints kept in GPU memory, chunky serialized optimizer.
    ColossalAi,
    /// FlashNeuron: model states resident in GPU memory, activations
    /// offloaded to SSD, in-GPU optimizer.
    FlashNeuron,
    /// G10: unified host/SSD tensor space, all activations offloaded, no
    /// recomputation, in-GPU optimizer over SSD-resident states. Requires
    /// GPUDirect.
    G10,
}

/// Host bytes DeepSpeed-family runtimes pin regardless of model size.
const DS_HOST_BASE: f64 = 8e9;
/// Host bytes per parameter ZeRO-Infinity keeps resident (pinned fp16
/// param/grad buckets, partitions, swap buffers).
const ZERO_INF_HOST_BYTES_PER_PARAM: f64 = 5.5;
/// Host bytes per parameter for Colossal-AI's Gemini chunks.
const COLOSSAL_HOST_BYTES_PER_PARAM: f64 = 10.5;
/// Host bytes per parameter for ZeRO-Offload (all 16P states in memory).
const ZERO_OFFLOAD_HOST_BYTES_PER_PARAM: f64 = 16.0;
/// GPU bytes per largest-layer parameter for layer-streaming baselines
/// (double-buffered fp16 weights + fp16 gradients).
const STREAMING_GPU_BYTES_PER_LAYER_PARAM: f64 = 6.0;
/// Unpinned staging throughput of the DeepSpeed/Colossal swap path,
/// bytes/s — the per-layer stall that stretches ZeRO-Infinity's 13B
/// forward stage to ~14 s in Fig. 1a.
const DS_STAGING_BYTES_PER_SEC: f64 = 1.5e9;
/// Fixed per-layer hook overhead of the DeepSpeed family, seconds.
const DS_LAYER_OVERHEAD_SEC: f64 = 0.05;
/// Fixed per-layer overhead of Colossal-AI's chunk manager, seconds.
const COLOSSAL_LAYER_OVERHEAD_SEC: f64 = 0.2;
/// Extra host bytes per parameter ZeRO-Infinity pins for each additional
/// GPU process (per-rank partitions and pinned buckets). This is the
/// paper's footnote 6: 135B fine-tunes on a single 4090, but only 70B on
/// the multi-GPU server "because of the additional GPU and main memory
/// overhead introduced by multi-GPU synchronization and multiprocessing".
const ZERO_INF_MULTI_GPU_BYTES_PER_PARAM: f64 = 1.5;
/// In-GPU Adam kernel cost, FLOPs per parameter.
const GPU_ADAM_FLOPS_PER_PARAM: f64 = 8.0;

impl System {
    /// All systems in figure-legend order.
    pub const ALL: [System; 6] = [
        System::FlashNeuron,
        System::ColossalAi,
        System::ZeroInfinity,
        System::ZeroOffload,
        System::G10,
        System::Ratel,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            System::Ratel => "Ratel",
            System::ZeroInfinity => "ZeRO-Infinity",
            System::ZeroOffload => "ZeRO-Offload",
            System::ColossalAi => "Colossal-AI",
            System::FlashNeuron => "FlashNeuron",
            System::G10 => "G10",
        }
    }

    /// Whether `model` at `batch` fits this system's memory model on
    /// `server`.
    pub fn feasible(self, server: &ServerConfig, model: &ModelConfig, batch: usize) -> bool {
        let profile = ModelProfile::new(model, batch);
        let p = profile.total_params();
        let gpu_cap = server.gpu.memory_bytes as f64;
        let host_cap = server.usable_main_memory() as f64;
        let ssd_cap = server.ssds.capacity_bytes() as f64;
        let tc = (batch * model.seq_len * model.hidden) as f64;
        let ws = 17.0 * tc; // same kernels, same working set as Ratel
        let streaming_gpu =
            STREAMING_GPU_BYTES_PER_LAYER_PARAM * profile.max_layer_params() + ws + 2.3e9;
        let inter = profile.inter_act_bytes();

        match self {
            System::Ratel => RatelMemoryModel::default().check(server, &profile).is_ok(),
            System::ZeroInfinity => {
                let per_param = ZERO_INF_HOST_BYTES_PER_PARAM
                    + ZERO_INF_MULTI_GPU_BYTES_PER_PARAM * (server.gpu_count as f64 - 1.0);
                streaming_gpu <= gpu_cap
                    && DS_HOST_BASE + per_param * p + inter * server.gpu_count as f64 <= host_cap
                    && 16.0 * p <= ssd_cap
                    && server.ssds.count > 0
            }
            System::ZeroOffload => {
                streaming_gpu <= gpu_cap
                    && DS_HOST_BASE + ZERO_OFFLOAD_HOST_BYTES_PER_PARAM * p + inter <= host_cap
            }
            System::ColossalAi => {
                // Gemini keeps the checkpoints (double-buffered chunks) in
                // GPU memory, which is what caps its batch size.
                streaming_gpu + 2.0 * inter <= gpu_cap
                    && DS_HOST_BASE + COLOSSAL_HOST_BYTES_PER_PARAM * p <= host_cap
                    && 16.0 * p <= ssd_cap
                    && server.ssds.count > 0
            }
            System::FlashNeuron => {
                16.0 * p + ws + 3e9 <= gpu_cap
                    && profile.total_act_bytes() <= ssd_cap
                    && server.ssds.count > 0
            }
            System::G10 => {
                server.gpu.gpudirect
                    && streaming_gpu <= gpu_cap
                    && 16.0 * p + profile.total_act_bytes() <= ssd_cap
                    && server.ssds.count > 0
            }
        }
    }

    /// Largest model of `ladder` trainable at `batch`, in billions of
    /// parameters (0 if none).
    pub fn max_trainable_billions(
        self,
        server: &ServerConfig,
        ladder: &[ModelConfig],
        batch: usize,
    ) -> f64 {
        ladder
            .iter()
            .filter(|m| self.feasible(server, m, batch))
            .map(|m| m.size_billions())
            .fold(0.0, f64::max)
    }

    /// Largest feasible batch among `candidates` (None if none fit).
    pub fn max_batch(
        self,
        server: &ServerConfig,
        model: &ModelConfig,
        candidates: &[usize],
    ) -> Option<usize> {
        candidates
            .iter()
            .copied()
            .filter(|&b| self.feasible(server, model, b))
            .max()
    }

    /// Lowers this system's schedule for `model` at `batch` into an
    /// [`IterationSpec`]; `None` if infeasible. This is the spec
    /// [`System::simulate`] runs — exposing it lets tools analyze the
    /// schedule (e.g. `ratel-bench verify-plans`) without simulating it.
    pub fn spec(
        self,
        server: &ServerConfig,
        model: &ModelConfig,
        batch: usize,
    ) -> Option<IterationSpec> {
        if !self.feasible(server, model, batch) {
            return None;
        }
        let profile = ModelProfile::new(model, batch);
        let hw = HardwareProfile::measure(server, &profile, batch);
        Some(match self {
            System::Ratel => {
                let plan = ActivationPlanner::new(&hw, &profile).plan();
                RatelSchedule {
                    profile: &hw,
                    model: &profile,
                    plan: &plan,
                    mode: GradOffloadMode::OptimizedActive,
                    gpus: server.gpu_count,
                }
                .to_spec()
            }
            System::ZeroInfinity => {
                ds_spec(&hw, &profile, server.gpu_count, ParamSource::Ssd, true)
            }
            System::ZeroOffload => {
                ds_spec(&hw, &profile, server.gpu_count, ParamSource::Host, false)
            }
            System::ColossalAi => colossal_spec(&hw, &profile, server.gpu_count),
            System::FlashNeuron => flashneuron_spec(&hw, &profile),
            System::G10 => g10_spec(&hw, &profile),
        })
    }

    /// Simulates one iteration; `None` if infeasible.
    pub fn simulate(
        self,
        server: &ServerConfig,
        model: &ModelConfig,
        batch: usize,
    ) -> Option<IterationReport> {
        let spec = self.spec(server, model, batch)?;
        let profile = ModelProfile::new(model, batch);
        Some(spec.simulate(&profile))
    }

    /// Peak throughput over a batch sweep: `(batch, report)` of the best
    /// feasible batch, or `None` if nothing fits.
    pub fn best_over_batches(
        self,
        server: &ServerConfig,
        model: &ModelConfig,
        batches: &[usize],
    ) -> Option<(usize, IterationReport)> {
        batches
            .iter()
            .filter_map(|&b| self.simulate(server, model, b).map(|r| (b, r)))
            .max_by(|a, b| {
                a.1.throughput_items_per_sec
                    .total_cmp(&b.1.throughput_items_per_sec)
            })
    }
}

fn items(profile: &ModelProfile, gpus: usize) -> f64 {
    match profile.config.kind {
        ModelKind::DecoderLm => (profile.batch * profile.config.seq_len * gpus) as f64,
        ModelKind::DiT => (profile.batch * gpus) as f64,
    }
}

/// Shared DeepSpeed-family schedule: inter-block checkpoints to host, full
/// intra recomputation, separate-stage CPU Adam.
fn ds_spec(
    hw: &HardwareProfile,
    profile: &ModelProfile,
    gpus: usize,
    params: ParamSource,
    states_on_ssd: bool,
) -> IterationSpec {
    let mut layers = Vec::with_capacity(profile.layers.len());
    let mut staging_bytes_per_layer: f64 = 0.0;
    for layer in &profile.layers {
        let p = layer.params;
        let recompute: f64 = layer.units.iter().map(|u| u.recompute_flops).sum();
        staging_bytes_per_layer = staging_bytes_per_layer.max(layer.inter_act_bytes);
        layers.push(LayerTask {
            label: layer.label.clone(),
            p16_bytes: 2.0 * p,
            param_source: params,
            master_host_bytes: 0.0,
            moments_host_bytes: 0.0,
            fwd_flops: layer.forward_flops,
            bwd_flops: 2.0 * layer.forward_flops + recompute,
            act_to_host_bytes: layer.inter_act_bytes,
            act_ckpt_bytes: layer.inter_act_bytes,
            act_to_ssd_bytes: 0.0,
            refetch_in_backward: true,
            grad_bytes: 2.0 * p,
            grad_spill_to_ssd: states_on_ssd,
            optimizer: if p == 0.0 {
                OptimizerKind::None
            } else if states_on_ssd {
                OptimizerKind::CpuOutOfCore {
                    // Reads P32+OS32 plus the spilled G16 back from SSD.
                    read_bytes: 14.0 * p,
                    write_bytes: 14.0 * p,
                    cpu_params: p,
                }
            } else {
                OptimizerKind::CpuInMemory { cpu_params: p }
            },
        });
    }
    IterationSpec {
        layers,
        mode: GradOffloadMode::SeparateStage,
        rates: LinkRates::from_profile(hw),
        gpus,
        items_per_iteration: items(profile, gpus),
        micro_batches: 1,
        per_layer_overhead_seconds: DS_LAYER_OVERHEAD_SEC
            + staging_bytes_per_layer / DS_STAGING_BYTES_PER_SEC,
    }
}

/// Colossal-AI: checkpoints never leave the GPU (no activation traffic),
/// full recomputation, serialized Gemini optimizer with heavy per-layer
/// chunk management.
fn colossal_spec(hw: &HardwareProfile, profile: &ModelProfile, gpus: usize) -> IterationSpec {
    let mut layers = Vec::with_capacity(profile.layers.len());
    for layer in &profile.layers {
        let p = layer.params;
        let recompute: f64 = layer.units.iter().map(|u| u.recompute_flops).sum();
        layers.push(LayerTask {
            label: layer.label.clone(),
            p16_bytes: 2.0 * p,
            param_source: ParamSource::Ssd,
            master_host_bytes: 0.0,
            moments_host_bytes: 0.0,
            fwd_flops: layer.forward_flops,
            bwd_flops: 2.0 * layer.forward_flops + recompute,
            act_to_host_bytes: 0.0,
            act_ckpt_bytes: 0.0,
            act_to_ssd_bytes: 0.0,
            refetch_in_backward: true,
            grad_bytes: 2.0 * p,
            grad_spill_to_ssd: true,
            optimizer: if p == 0.0 {
                OptimizerKind::None
            } else {
                OptimizerKind::CpuOutOfCore {
                    read_bytes: 14.0 * p,
                    write_bytes: 14.0 * p,
                    cpu_params: p,
                }
            },
        });
    }
    IterationSpec {
        layers,
        mode: GradOffloadMode::SeparateStage,
        rates: LinkRates::from_profile(hw),
        gpus,
        items_per_iteration: items(profile, gpus),
        micro_batches: 1,
        per_layer_overhead_seconds: COLOSSAL_LAYER_OVERHEAD_SEC,
    }
}

/// FlashNeuron: states never move, all activations stream to the SSDs
/// (through host — no GPUDirect on consumer GPUs), in-GPU Adam.
fn flashneuron_spec(hw: &HardwareProfile, profile: &ModelProfile) -> IterationSpec {
    let mut layers = Vec::with_capacity(profile.layers.len());
    for layer in &profile.layers {
        let p = layer.params;
        let acts = layer.inter_act_bytes + layer.intra_act_bytes();
        layers.push(LayerTask {
            label: layer.label.clone(),
            p16_bytes: 0.0,
            param_source: ParamSource::Gpu,
            master_host_bytes: 0.0,
            moments_host_bytes: 0.0,
            fwd_flops: layer.forward_flops,
            bwd_flops: 2.0 * layer.forward_flops,
            act_to_host_bytes: 0.0,
            act_ckpt_bytes: 0.0,
            act_to_ssd_bytes: acts,
            refetch_in_backward: true,
            grad_bytes: 0.0,
            grad_spill_to_ssd: false,
            optimizer: if p == 0.0 {
                OptimizerKind::None
            } else {
                OptimizerKind::GpuResident {
                    gpu_flops: GPU_ADAM_FLOPS_PER_PARAM * p,
                }
            },
        });
    }
    IterationSpec {
        layers,
        mode: GradOffloadMode::SeparateStage,
        rates: LinkRates::from_profile(hw),
        gpus: 1,
        items_per_iteration: items(profile, 1),
        micro_batches: 1,
        per_layer_overhead_seconds: 0.0,
    }
}

/// G10: unified tensor space — states on SSD, *all* activations offloaded
/// with no recomputation, in-GPU Adam shuttling 12P/14P per direction
/// through the PCIe link every iteration (§III-C).
fn g10_spec(hw: &HardwareProfile, profile: &ModelProfile) -> IterationSpec {
    let mut layers = Vec::with_capacity(profile.layers.len());
    for layer in &profile.layers {
        let p = layer.params;
        let acts = layer.inter_act_bytes + layer.intra_act_bytes();
        layers.push(LayerTask {
            label: layer.label.clone(),
            p16_bytes: 2.0 * p,
            param_source: ParamSource::Ssd,
            master_host_bytes: 0.0,
            moments_host_bytes: 0.0,
            fwd_flops: layer.forward_flops,
            bwd_flops: 2.0 * layer.forward_flops,
            act_to_host_bytes: 0.0,
            act_ckpt_bytes: 0.0,
            act_to_ssd_bytes: acts,
            refetch_in_backward: true,
            grad_bytes: 2.0 * p,
            grad_spill_to_ssd: true,
            optimizer: if p == 0.0 {
                OptimizerKind::None
            } else {
                OptimizerKind::GpuOverSsd {
                    fetch_bytes: 14.0 * p,
                    writeback_bytes: 14.0 * p,
                    gpu_flops: GPU_ADAM_FLOPS_PER_PARAM * p,
                }
            },
        });
    }
    IterationSpec {
        layers,
        mode: GradOffloadMode::SeparateStage,
        rates: LinkRates::from_profile(hw),
        gpus: 1,
        items_per_iteration: items(profile, 1),
        micro_batches: 1,
        per_layer_overhead_seconds: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratel_hw::units::GIB;
    use ratel_hw::GpuSpec;
    use ratel_model::zoo;

    fn server() -> ServerConfig {
        ServerConfig::paper_default()
    }

    #[test]
    fn flashneuron_cannot_even_fit_6b() {
        // §III-A / Fig. 2a: FlashNeuron tops out around 1.55B on a 24 GB
        // GPU because it keeps 16 bytes/param of states in device memory.
        assert!(!System::FlashNeuron.feasible(&server(), &zoo::llm("6B"), 1));
        let tiny = ModelConfig::decoder_lm("1.4B", 24, 16, 2048);
        assert!(System::FlashNeuron.feasible(&server(), &tiny, 1));
    }

    #[test]
    fn zero_infinity_maxes_at_135b_with_768g() {
        let max = System::ZeroInfinity.max_trainable_billions(&server(), &zoo::llm_ladder(), 1);
        assert!((130.0..140.0).contains(&max), "max = {max}");
        // And cannot train 175B even with 768 GB (§III-B issue 3).
        assert!(!System::ZeroInfinity.feasible(&server(), &zoo::llm("175B"), 1));
    }

    #[test]
    fn max_size_staircase_matches_fig2a() {
        // ZeRO-Infinity's max trainable size vs main memory (Fig. 2a).
        let expect = [(128u64, 13.0), (256, 30.0), (512, 70.0), (768, 135.0)];
        for (gib, nominal) in expect {
            let s = server().with_main_memory(gib * GIB);
            let max = System::ZeroInfinity.max_trainable_billions(&s, &zoo::llm_ladder(), 1);
            let rel = (max - nominal).abs() / nominal;
            assert!(rel < 0.15, "{gib} GiB: max {max:.1}B, expected ~{nominal}B");
        }
    }

    #[test]
    fn zero_offload_maxes_at_30b() {
        let max = System::ZeroOffload.max_trainable_billions(&server(), &zoo::llm_ladder(), 1);
        assert!((28.0..35.0).contains(&max), "max = {max}");
    }

    #[test]
    fn colossal_sits_between_offload_and_infinity() {
        let col = System::ColossalAi.max_trainable_billions(&server(), &zoo::llm_ladder(), 1);
        let inf = System::ZeroInfinity.max_trainable_billions(&server(), &zoo::llm_ladder(), 1);
        let off = System::ZeroOffload.max_trainable_billions(&server(), &zoo::llm_ladder(), 1);
        assert!(col > off && col < inf, "off {off} col {col} inf {inf}");
    }

    #[test]
    fn ratel_dominates_every_baseline_in_max_size() {
        // Fig. 6a: Ratel trains significantly larger models at every
        // memory capacity.
        for gib in [128u64, 256, 384, 512, 640, 768] {
            let s = server().with_main_memory(gib * GIB);
            let ratel = System::Ratel.max_trainable_billions(&s, &zoo::llm_ladder(), 1);
            for other in [
                System::ZeroInfinity,
                System::ZeroOffload,
                System::ColossalAi,
                System::FlashNeuron,
            ] {
                let m = other.max_trainable_billions(&s, &zoo::llm_ladder(), 1);
                assert!(
                    ratel > m,
                    "{gib} GiB: Ratel {ratel:.0}B vs {} {m:.0}B",
                    other.name()
                );
            }
        }
    }

    #[test]
    fn ratel_is_at_least_2x_zero_infinity_at_768g() {
        // "2.04x larger than ZeRO-Infinity" (§V-B).
        let ratel = System::Ratel.max_trainable_billions(&server(), &zoo::llm_ladder(), 1);
        let zero = System::ZeroInfinity.max_trainable_billions(&server(), &zoo::llm_ladder(), 1);
        let ratio = ratel / zero;
        assert!((1.8..2.3).contains(&ratio), "ratio = {ratio:.2}");
    }

    #[test]
    fn g10_requires_gpudirect() {
        assert!(!System::G10.feasible(&server(), &zoo::llm("13B"), 32));
        let dgx_ish = server().with_gpu(GpuSpec::a100_80g());
        assert!(System::G10.feasible(&dgx_ish, &zoo::llm("13B"), 32));
    }

    #[test]
    fn throughput_ordering_matches_fig5a() {
        // Best-over-batches at 13B on the 4090: Ratel > ZeRO-Offload >
        // ZeRO-Infinity > Colossal-AI.
        let m = zoo::llm("13B");
        let batches = [8usize, 16, 32, 64, 128];
        let best = |sys: System| {
            sys.best_over_batches(&server(), &m, &batches)
                .map(|(_, r)| r.throughput_items_per_sec)
                .unwrap_or(0.0)
        };
        let ratel = best(System::Ratel);
        let offload = best(System::ZeroOffload);
        let infinity = best(System::ZeroInfinity);
        let colossal = best(System::ColossalAi);
        assert!(
            ratel > offload && offload > infinity && infinity > colossal,
            "ratel {ratel:.0} offload {offload:.0} infinity {infinity:.0} colossal {colossal:.0}"
        );
        // Win factors in the paper's ballpark: 2.32x / 3.46x / 8.02x.
        assert!(
            (1.4..3.5).contains(&(ratel / offload)),
            "ratel/offload = {:.2}",
            ratel / offload
        );
        assert!(
            (2.0..5.0).contains(&(ratel / infinity)),
            "ratel/infinity = {:.2}",
            ratel / infinity
        );
        assert!(
            (5.0..12.0).contains(&(ratel / colossal)),
            "ratel/colossal = {:.2}",
            ratel / colossal
        );
    }

    #[test]
    fn zero_infinity_gpu_busy_fraction_matches_fig2b() {
        // Fig. 2b: ~36% GPU busy at 13B, batch 32.
        let r = System::ZeroInfinity
            .simulate(&server(), &zoo::llm("13B"), 32)
            .unwrap();
        assert!(
            (0.2..0.5).contains(&r.gpu_busy_fraction),
            "busy = {:.2}",
            r.gpu_busy_fraction
        );
    }

    #[test]
    fn zero_infinity_optimizer_proportion_matches_fig2c() {
        // Fig. 2c: the optimizer stage is 30-60% of a step.
        for batch in [8usize, 16, 32] {
            let r = System::ZeroInfinity
                .simulate(&server(), &zoo::llm("13B"), batch)
                .unwrap();
            assert!(
                (0.3..0.75).contains(&r.optimizer_fraction),
                "batch {batch}: optimizer fraction {:.2}",
                r.optimizer_fraction
            );
        }
    }

    #[test]
    fn g10_optimizer_stage_is_transfer_bound() {
        // Fig. 1b: G10's optimizer stage moves 14P per direction while the
        // GPU kernel takes ~0.1 s.
        let dgx_ish = server().with_gpu(GpuSpec::a100_80g());
        let r = System::G10
            .simulate(&dgx_ish, &zoo::llm("13B"), 32)
            .unwrap();
        // Optimizer window must dominate a pure-kernel estimate by far.
        assert!(
            r.stage_seconds[2] > 5.0,
            "optimizer stage {:.2}s",
            r.stage_seconds[2]
        );
    }

    #[test]
    fn zero_infinity_multi_gpu_cap_is_70b() {
        // Footnote 6: 135B single-GPU, but only 70B on the 2/4-GPU server.
        let single = server();
        let quad = server().with_gpu_count(4);
        assert!(System::ZeroInfinity.feasible(&single, &zoo::llm("135B"), 1));
        assert!(!System::ZeroInfinity.feasible(&quad, &zoo::llm("135B"), 1));
        assert!(System::ZeroInfinity.feasible(&quad, &zoo::llm("70B"), 1));
    }

    #[test]
    fn infeasible_simulation_returns_none() {
        assert!(System::FlashNeuron
            .simulate(&server(), &zoo::llm("13B"), 32)
            .is_none());
    }
}
