//! Hardware-aware profiling for the *real* engine (§IV-B, executable).
//!
//! The paper's profiling stage runs one instrumented iteration to learn
//! the peak GPU throughput, the achieved bandwidth of every link, and the
//! free main memory, then hands those numbers to the activation planner.
//! This module does the same against the actual substrate: it times the
//! tensor backend's transformer-block kernels to get FLOP/s, times blob
//! movement over each (possibly throttled) store route to get bytes/s,
//! and packages everything as the same [`HardwareProfile`] the analytic
//! planner consumes — so Algorithm 1 can drive the real engine's
//! per-block [`ActDecision`]s from *measurements*, exactly as in Fig. 4's
//! `Ratel_init()` flow.

use std::time::Instant;

use ratel_model::{ModelConfig, ModelProfile, UnitKind};
use ratel_storage::{StorageError, Tier, TieredStore};
use ratel_tensor::{GptConfig, Tensor, TransformerBlock};

use crate::planner::ActivationPlanner;
use crate::profile::HardwareProfile;
use crate::schedule::LayerBlobs;

use super::ActDecision;

/// Bandwidths and compute throughput measured on the live substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredProfile {
    /// Sustained FLOP/s of the tensor backend on a transformer block.
    pub flops_per_sec: f64,
    /// GPU->host route bandwidth, bytes/s.
    pub g2m_bytes_per_sec: f64,
    /// Host->GPU route bandwidth, bytes/s.
    pub m2g_bytes_per_sec: f64,
    /// SSD->host route bandwidth, bytes/s.
    pub s2h_bytes_per_sec: f64,
    /// Host->SSD route bandwidth, bytes/s.
    pub h2s_bytes_per_sec: f64,
}

/// Analytic FLOPs of one block forward at the profiled shape.
fn block_flops(c: &GptConfig) -> f64 {
    let (b, s, h) = (c.batch as f64, c.seq as f64, c.hidden as f64);
    24.0 * b * s * h * h + 4.0 * b * s * s * h
}

impl MeasuredProfile {
    /// Profiles the tensor backend and a store's routes.
    ///
    /// `probe_bytes` sizes the bandwidth probe blob (bigger = less timer
    /// noise, more probe time). Unthrottled in-memory routes measure in
    /// the tens of GB/s, mirroring a real pinned-memory link.
    pub fn measure(
        config: GptConfig,
        store: &TieredStore,
        probe_bytes: usize,
    ) -> Result<Self, crate::error::RatelError> {
        // --- compute probe: time a block forward a few times ---
        let block = TransformerBlock::new(config.batch, config.seq, config.hidden, config.heads, 1);
        let x = Tensor::randn(&[config.batch * config.seq, config.hidden], 0.5, 2);
        let _warm = block.forward(&x);
        let reps = 3;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(block.forward(&x));
        }
        let per_fwd = t0.elapsed().as_secs_f64() / reps as f64;
        let flops_per_sec = block_flops(&config) / per_fwd.max(1e-9);

        // --- bandwidth probes: move one blob over each route, timed ---
        let key = "__ratel_profile_probe__";
        store.put(key, Tier::Gpu, vec![0u8; probe_bytes])?;
        let time_route = |target: Tier| -> Result<f64, StorageError> {
            let t0 = Instant::now();
            store.move_to(key, target)?;
            Ok(probe_bytes as f64 / t0.elapsed().as_secs_f64().max(1e-9))
        };
        let g2m = time_route(Tier::Host)?;
        let h2s = time_route(Tier::Ssd)?;
        let s2h = time_route(Tier::Host)?;
        let m2g = time_route(Tier::Gpu)?;
        store.remove(key)?;

        Ok(MeasuredProfile {
            flops_per_sec,
            g2m_bytes_per_sec: g2m,
            m2g_bytes_per_sec: m2g,
            s2h_bytes_per_sec: s2h,
            h2s_bytes_per_sec: h2s,
        })
    }

    /// Packages the measurements as the planner's [`HardwareProfile`].
    ///
    /// `host_act_budget` is the `MEM_avail` term (host bytes available to
    /// hold swapped activations); the engine substrate has no chunked
    /// state-I/O penalty, so the efficiency is 1.
    pub fn to_hardware_profile(&self, host_act_budget: f64) -> HardwareProfile {
        HardwareProfile {
            thp_gpu: self.flops_per_sec,
            // The planner's model has one duplex GPU link; use the slower
            // measured direction to stay conservative.
            bw_gpu: self.g2m_bytes_per_sec.min(self.m2g_bytes_per_sec),
            bw_s2m: self.s2h_bytes_per_sec,
            bw_m2s: self.h2s_bytes_per_sec,
            mem_avail: host_act_budget,
            cpu_adam_params_per_sec: 0.55e9,
            state_io_efficiency: 1.0,
        }
    }
}

/// The analytic description of the executable model Algorithm 1 plans
/// over: same depth, width, sequence and vocabulary, as a decoder LM
/// (whose head is tied to the embedding).
pub(crate) fn analytic_twin(config: &GptConfig) -> ModelConfig {
    ModelConfig {
        seq_len: config.seq,
        vocab: config.vocab,
        ..ModelConfig::decoder_lm("engine-model", config.layers, config.heads, config.hidden)
    }
}

/// Runs the measured profile through Algorithm 1 on the executable
/// model's analytic twin and lowers the plan to per-block decisions:
/// blocks whose activation units the planner swaps are swapped (to host
/// while the budget lasts, then SSD), the rest recompute.
pub fn plan_decisions(config: GptConfig, hw: &HardwareProfile) -> Vec<ActDecision> {
    let profile = ModelProfile::new(&analytic_twin(&config), config.batch);
    let plan = ActivationPlanner::new(hw, &profile).plan();

    // Actual A16 blob size of one executable block: x1 + qkv(3h) + ctx +
    // x2 + x3 + mlp pre/act(8h) + LN stats + the streaming-attention row
    // statistics (max + logsumexp per row per head; no materialized
    // probabilities).
    let block_blob_bytes = LayerBlobs::of(&config, 1).acts as f64;

    let mut host_left = hw.mem_avail;
    (0..config.layers)
        .map(|b| {
            let id = b + 1; // analytic layer ids: 0 = embedding
            let swapped = plan.swaps(id, UnitKind::Mlp) || plan.swaps(id, UnitKind::Attention);
            if !swapped {
                ActDecision::Recompute
            } else if block_blob_bytes <= host_left {
                host_left -= block_blob_bytes;
                ActDecision::SwapToHost
            } else {
                ActDecision::SwapToSsd
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratel_storage::{Route, TierConfig};

    #[test]
    fn measures_positive_rates() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        let p = MeasuredProfile::measure(GptConfig::tiny(), &store, 1 << 20).unwrap();
        assert!(p.flops_per_sec > 1e6, "{:?}", p);
        for bw in [
            p.g2m_bytes_per_sec,
            p.m2g_bytes_per_sec,
            p.s2h_bytes_per_sec,
            p.h2s_bytes_per_sec,
        ] {
            assert!(bw > 1e6, "{:?}", p);
        }
        // Probe blob is cleaned up.
        assert_eq!(store.used(Tier::Gpu), 0);
        assert_eq!(store.used(Tier::Ssd), 0);
    }

    #[test]
    fn throttles_show_up_in_measurements() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.set_throttle(Route::HostToSsd, Some(10e6));
        let p = MeasuredProfile::measure(GptConfig::tiny(), &store, 1 << 20).unwrap();
        assert!(
            (5e6..20e6).contains(&p.h2s_bytes_per_sec),
            "throttled route measured {:.1e} B/s",
            p.h2s_bytes_per_sec
        );
        assert!(p.g2m_bytes_per_sec > 50e6, "unthrottled route stays fast");
    }

    #[test]
    fn slow_links_push_the_plan_toward_recompute() {
        let config = GptConfig::tiny();
        // Fast compute, glacial links: recompute everything.
        let slow_links = HardwareProfile {
            thp_gpu: 1e15,
            bw_gpu: 1e3,
            bw_s2m: 1e3,
            bw_m2s: 1e3,
            mem_avail: 1e12,
            cpu_adam_params_per_sec: 1e9,
            state_io_efficiency: 1.0,
        };
        let d = plan_decisions(config, &slow_links);
        assert!(d.iter().all(|x| *x == ActDecision::Recompute), "{d:?}");

        // Slow compute, infinite links: swap everything, host first.
        let fast_links = HardwareProfile {
            thp_gpu: 1e6,
            bw_gpu: 1e12,
            bw_s2m: 1e12,
            bw_m2s: 1e12,
            mem_avail: 1e12,
            cpu_adam_params_per_sec: 1e9,
            state_io_efficiency: 1.0,
        };
        let d = plan_decisions(config, &fast_links);
        assert!(d.iter().all(|x| *x == ActDecision::SwapToHost), "{d:?}");
    }

    #[test]
    fn tight_host_budget_spills_swaps_to_ssd() {
        let config = GptConfig::tiny();
        let hw = HardwareProfile {
            thp_gpu: 1e6,
            bw_gpu: 1e12,
            bw_s2m: 1e12,
            bw_m2s: 1e12,
            mem_avail: 0.0, // no host room at all
            cpu_adam_params_per_sec: 1e9,
            state_io_efficiency: 1.0,
        };
        let d = plan_decisions(config, &hw);
        assert!(d.iter().all(|x| *x == ActDecision::SwapToSsd), "{d:?}");
    }
}
