//! A dense row-major `f32` tensor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dtype::{decode_f16, encode_f16, round_to_f16_in_place};

/// A dense row-major tensor of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    /// If `data.len()` does not match the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "shape {shape:?} needs {n} elements");
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Standard-normal initialization scaled by `std`, from a seeded RNG —
    /// deterministic across runs, which the equivalence tests rely on.
    pub fn randn(shape: &[usize], std: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| {
                // Box-Muller from two uniforms; avoids a distribution dep.
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                std * (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
            })
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Elementwise `self + other`.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise scale.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Rounds every element through binary16 in place — what a tensor
    /// looks like after a half-precision offload/fetch round trip.
    pub fn quantize_f16(mut self) -> Tensor {
        round_to_f16_in_place(&mut self.data);
        self
    }

    /// Serializes to half-precision bytes (A16/P16/G16 storage format).
    pub fn to_f16_bytes(&self) -> Vec<u8> {
        encode_f16(&self.data)
    }

    /// Deserializes from half-precision bytes produced by
    /// [`Tensor::to_f16_bytes`].
    pub fn from_f16_bytes(shape: &[usize], bytes: &[u8]) -> Tensor {
        Tensor::from_vec(shape, decode_f16(bytes))
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Maximum absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(t.sum(), 0.0);
        let u = Tensor::full(&[2], 1.5);
        assert_eq!(u.data(), &[1.5, 1.5]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn(&[16], 1.0, 42);
        let b = Tensor::randn(&[16], 1.0, 42);
        let c = Tensor::randn(&[16], 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_has_roughly_unit_scale() {
        let t = Tensor::randn(&[10_000], 1.0, 7);
        let mean = t.sum() / t.len() as f64;
        let var: f64 = t
            .data()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / t.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]);
        assert_eq!(a.add(&b).data(), &[1.5, 2.5, 3.5]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[1.5, 2.5, 3.5]);
        assert_eq!(a.max_abs(), 3.0);
    }

    #[test]
    fn f16_round_trip_matches_quantize() {
        let t = Tensor::randn(&[64], 1.0, 3);
        let rt = Tensor::from_f16_bytes(t.shape(), &t.to_f16_bytes());
        assert_eq!(t.to_f16_bytes().len(), 128);
        assert_eq!(rt, t.quantize_f16());
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn mismatched_add_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }
}
