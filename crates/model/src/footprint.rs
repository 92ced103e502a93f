//! Table II: the tensors of mixed-precision LLM fine-tuning, their sizes,
//! and their lifecycles.

use crate::config::ModelConfig;

/// The tensor classes of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// fp32 master parameters, produced and consumed by the optimizer.
    P32,
    /// fp32 Adam optimizer states (first and second moments).
    Os32,
    /// fp16 gradients, produced by backward, consumed by the optimizer.
    G16,
    /// fp16 parameter copy used by forward/backward compute.
    P16,
    /// fp16 activations, produced by forward, consumed by backward.
    A16,
}

/// The training stage during which a tensor is produced or consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Forward propagation.
    Forward,
    /// Backward propagation.
    Backward,
    /// Optimizer execution (previous or current iteration).
    Optimizer,
}

impl TensorKind {
    /// Bytes per model parameter this tensor class occupies (Table II).
    pub fn bytes_per_param(self) -> f64 {
        match self {
            TensorKind::P32 => 4.0,
            TensorKind::Os32 => 8.0,
            TensorKind::G16 => 2.0,
            TensorKind::P16 => 2.0,
            TensorKind::A16 => 0.0, // activation size depends on batch, not P
        }
    }

    /// The stage that produces this tensor.
    pub fn produced_during(self) -> Stage {
        match self {
            TensorKind::P32 | TensorKind::Os32 | TensorKind::P16 => Stage::Optimizer,
            TensorKind::G16 => Stage::Backward,
            TensorKind::A16 => Stage::Forward,
        }
    }

    /// The stage that consumes this tensor.
    pub fn consumed_during(self) -> Stage {
        match self {
            TensorKind::P32 | TensorKind::Os32 | TensorKind::G16 => Stage::Optimizer,
            TensorKind::P16 => Stage::Forward, // and backward
            TensorKind::A16 => Stage::Backward,
        }
    }
}

/// Model-state byte totals for a given model (everything except A16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelStates {
    /// fp32 master parameters: `4P`.
    pub p32: f64,
    /// fp32 optimizer moments: `8P`.
    pub os32: f64,
    /// fp16 gradients: `2P`.
    pub g16: f64,
    /// fp16 compute copy: `2P`.
    pub p16: f64,
}

impl ModelStates {
    /// Computes the Table II model-state inventory for `model`.
    pub fn of(model: &ModelConfig) -> Self {
        ModelStates::of_params(model.total_params())
    }

    /// The Table II inventory of `params` parameters — one layer's, or
    /// the trainable subset of one. Every per-parameter byte figure a
    /// schedule uses comes from here.
    pub fn of_params(params: f64) -> Self {
        let bytes = |kind: TensorKind| kind.bytes_per_param() * params;
        ModelStates {
            p32: bytes(TensorKind::P32),
            os32: bytes(TensorKind::Os32),
            g16: bytes(TensorKind::G16),
            p16: bytes(TensorKind::P16),
        }
    }

    /// Total model-state bytes: `16P`.
    pub fn total(&self) -> f64 {
        self.p32 + self.os32 + self.g16 + self.p16
    }

    /// Bytes the optimizer *reads* per parameter-complete update: the fp32
    /// master states (`12P`; gradients are already in main memory after
    /// active offloading).
    pub fn optimizer_read(&self) -> f64 {
        self.p32 + self.os32
    }

    /// Bytes the optimizer *writes* back: updated fp32 states plus the
    /// fresh fp16 copy (`14P`) — the `14P` terms of Eq. 5.
    pub fn optimizer_write(&self) -> f64 {
        self.p32 + self.os32 + self.p16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_sizes() {
        assert_eq!(TensorKind::P32.bytes_per_param(), 4.0);
        assert_eq!(TensorKind::Os32.bytes_per_param(), 8.0);
        assert_eq!(TensorKind::G16.bytes_per_param(), 2.0);
        assert_eq!(TensorKind::P16.bytes_per_param(), 2.0);
    }

    #[test]
    fn lifecycle_matches_table_ii() {
        assert_eq!(TensorKind::A16.produced_during(), Stage::Forward);
        assert_eq!(TensorKind::A16.consumed_during(), Stage::Backward);
        assert_eq!(TensorKind::G16.produced_during(), Stage::Backward);
        assert_eq!(TensorKind::G16.consumed_during(), Stage::Optimizer);
        assert_eq!(TensorKind::P16.produced_during(), Stage::Optimizer);
    }

    #[test]
    fn state_totals_for_13b() {
        // §III-C: the GPU-resident optimizer of G10 moves 14P = 182 GB per
        // direction for a 13B model; 16P of total states is ~208 GB.
        let m = ModelConfig::decoder_lm("13B", 40, 40, 5120);
        let s = ModelStates::of(&m);
        assert!((s.optimizer_write() - 14.0 * m.total_params()).abs() < 1.0);
        assert!(
            (175e9..190e9).contains(&s.optimizer_write()),
            "{}",
            s.optimizer_write()
        );
        assert!((200e9..215e9).contains(&s.total()));
    }
}
