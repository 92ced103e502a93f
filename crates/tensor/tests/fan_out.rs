//! Every kernel fan-out is counted. Each entry point below, on a shape
//! above its parallel threshold, must advance `parallel_stats()` by
//! exactly its number of fan-outs: spawned at two threads, inline at one.
//! One `#[test]` in its own binary, so no concurrent test moves the
//! process-wide counters between two readings.

use ratel_tensor::adam::{step_le_bytes, GradFactors};
use ratel_tensor::ops::{gelu, layernorm, matmul};
use ratel_tensor::{
    attn_backward_into, attn_forward_into, f32_to_f16_bits, num_threads, parallel_stats,
    with_width, Adam, AdamParams, Tensor,
};

/// Attention shape: two `(batch, head)` units, and a `[64, 64]` context
/// of exactly one `MIN_BLOCK`, so the interleave fans out too.
const B: usize = 1;
const S: usize = 64;
const H: usize = 64;
const HEADS: usize = 2;

/// Elements of the elementwise and Adam calls: two `MIN_BLOCK`s, the Adam
/// threshold.
const N: usize = 8192;

/// One streaming attention forward: `(ctx, row_max, row_lse)`.
fn attn_forward(qkv: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (mut ctx, mut m, mut lse) = (
        vec![0.0; B * S * H],
        vec![0.0; B * HEADS * S],
        vec![0.0; B * HEADS * S],
    );
    attn_forward_into(qkv, B, S, H, HEADS, &mut ctx, &mut m, &mut lse);
    (ctx, m, lse)
}

/// `(spawned, inline)` fan-outs of one call of `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (s0, i0) = parallel_stats();
    f();
    let (s1, i1) = parallel_stats();
    (s1 - s0, i1 - i0)
}

#[test]
fn every_kernel_fan_out_is_counted_once() {
    // 64x64x64 is above the naive GEMM threshold.
    let a = Tensor::randn(&[64, 64], 1.0, 1);
    let x = Tensor::randn(&[64, N / 64], 1.0, 2);
    let (gamma, beta) = (Tensor::full(&[N / 64], 1.0), Tensor::zeros(&[N / 64]));
    let grads = Tensor::randn(&[N], 1e-2, 3).into_vec();
    let g16: Vec<u8> = grads
        .iter()
        .flat_map(|g| f32_to_f16_bits(*g).to_le_bytes())
        .collect();
    let hp = AdamParams::default();
    let qkv = Tensor::randn(&[B * S, 3 * H], 1.0, 4).into_vec();
    let (ctx, m, lse) = attn_forward(&qkv);
    for threads in [2, 1] {
        with_width(threads, || {
            assert_eq!(num_threads(), threads);
            let want = |fan_outs| match threads {
                1 => (0, fan_outs),
                _ => (fan_outs, 0),
            };
            let at = format!("at {threads} threads: (spawned, inline)");
            assert_eq!(counted(|| drop(matmul(&a, &a))), want(1), "matmul {at}");
            assert_eq!(counted(|| drop(gelu(&x))), want(1), "gelu {at}");
            let ln = || drop(layernorm(&x, &gamma, &beta, 1e-5));
            assert_eq!(counted(ln), want(1), "layernorm {at}");
            let mut params = vec![0.5f32; N];
            let step = || Adam::new(N).step(&mut params, &grads, &hp);
            assert_eq!(counted(step), want(1), "Adam::step {at}");
            let (mut master, mut moments) = (vec![0u8; 4 * N], vec![0u8; 8 * N]);
            let factors = GradFactors::default();
            let step = || step_le_bytes(&mut master, &mut moments, &g16, factors, 0, &hp);
            assert_eq!(counted(step), want(1), "step_le_bytes {at}");
            let fwd = || drop(attn_forward(&qkv));
            assert_eq!(counted(fwd), want(2), "attn_forward_into {at}");
            let mut dqkv = vec![0.0; qkv.len()];
            let bwd = || attn_backward_into(&qkv, &ctx, &m, &lse, &ctx, B, S, H, HEADS, &mut dqkv);
            assert_eq!(counted(bwd), want(2), "attn_backward_into {at}");
        });
    }
}
