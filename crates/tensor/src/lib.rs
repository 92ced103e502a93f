#![warn(missing_docs)]
//! A minimal CPU tensor and transformer-layer library with *explicit*
//! per-layer forward/backward passes.
//!
//! The Ratel engine schedules work layer by layer: fetch a layer's fp16
//! parameters, run its forward, offload its activations, and later run its
//! backward (possibly after recomputing discarded activations), emitting
//! per-layer gradients that the CPU optimizer consumes immediately. That
//! structure is easiest to drive when every layer exposes
//! `forward(input) -> (output, saved)` and
//! `backward(saved, grad_out) -> (grad_in, param_grads)` directly, rather
//! than through a dynamic autograd tape — so that is exactly the API here.
//!
//! Numerics are plain `f32` with an emulated IEEE-754 binary16 used for the
//! stored copies (P16/A16/G16 of Table II), mirroring mixed-precision
//! training: compute in full precision, store and move in half precision.
//!
//! Scope: big enough to really train a small GPT (embedding, pre-norm
//! transformer blocks with causal attention, GELU MLP, cross-entropy) and
//! verify Ratel's synchronous-update claim by bit-comparing offloaded and
//! in-memory training; deliberately not a general autograd framework.

pub mod adam;
pub mod attention;
pub mod dtype;
pub mod gemm;
pub mod layers;
pub mod ops;
pub mod parallel;
pub mod scratch;
pub mod tensor;

pub use adam::{Adam, AdamParams};
pub use attention::{
    attn_backward_into, attn_backward_naive_into, attn_forward_into, attn_forward_naive_into,
};
pub use dtype::{f16_bits_to_f32, f32_to_f16_bits, DType};
pub use layers::{
    block_dropout_spec, AttnSaved, BlockSaved, CrossEntropy, Embedding, GptConfig, GptModel,
    HeadSaved, KvCache, LayerNorm, Linear, Mlp, MlpSaved, MultiHeadAttention, ParamLayer,
    TransformerBlock,
};
pub use ops::DropoutSpec;
pub use parallel::{num_threads, parallel_stats, with_width};
pub use scratch::{scratch_f32, scratch_stats, ScratchStats, ScratchVec, SCRATCH_BLOCK};
pub use tensor::Tensor;
