//! Direct calls into single layers at the workload's shapes — the
//! ceilings the engine's per-step figures are read against. Traced run
//! only, after the window, each under a `probe.*` span.

use std::hint::black_box;
use std::time::Instant;

use ratel::engine::executor::Executor;
use ratel::prelude::{AdamParams, ExecutionOptions, Ratel, RatelError};
use ratel_storage::{Tier, TierConfig, TieredStore};
use ratel_tensor::dtype::{decode_f16, encode_f16, encode_f32};
use ratel_tensor::ops::matmul;
use ratel_tensor::{attn_backward_into, attn_forward_into, Adam, Tensor};

use crate::measure::RunOptions;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

pub struct Probes {
    pub gemm_gflops: f64,
    pub attn_fwd_s: f64,
    pub attn_bwd_s: f64,
    pub adam_melem_per_s: f64,
    pub f16_codec_gbps: f64,
    pub put_ssd_gbps: f64,
    pub read_ssd_gbps: f64,
    pub move_h2g_gbps: f64,
    pub dispatch_us_per_task: f64,
    pub workers_per_pool: usize,
}

/// Median seconds of `f` over `reps` calls, after one untimed call.
fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

pub fn run(
    opts: &RunOptions,
    builder: &Ratel,
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<Probes, RatelError> {
    let c = opts.workload.model;
    let reps = if opts.smoke { 2 } else { 9 };
    let (rows, h) = (c.batch * c.seq, c.hidden);
    let block = c.block_params();

    // tensor: the MLP up-projection GEMM, [tokens, h] x [h, 4h].
    let gemm_s = tracer.scope("probe.gemm", root, || {
        let a = Tensor::randn(&[rows, h], 0.02, 1);
        let b = Tensor::randn(&[h, 4 * h], 0.02, 2);
        median_seconds(reps, || {
            black_box(matmul(black_box(&a), black_box(&b)));
        })
    });
    let gemm_flops = 2.0 * rows as f64 * h as f64 * 4.0 * h as f64;

    let (attn_fwd_s, attn_bwd_s) = tracer.scope("probe.attention", root, || {
        let qkv = Tensor::randn(&[rows, 3 * h], 0.5, 3);
        let dctx = Tensor::randn(&[rows, h], 0.5, 4);
        let mut ctx = vec![0.0f32; rows * h];
        let mut row_max = vec![0.0f32; c.batch * c.heads * c.seq];
        let mut row_lse = row_max.clone();
        let mut dqkv = vec![0.0f32; rows * 3 * h];
        let fwd = median_seconds(reps, || {
            attn_forward_into(
                black_box(qkv.data()),
                c.batch,
                c.seq,
                h,
                c.heads,
                &mut ctx,
                &mut row_max,
                &mut row_lse,
            );
        });
        let bwd = median_seconds(reps, || {
            attn_backward_into(
                black_box(qkv.data()),
                &ctx,
                &row_max,
                &row_lse,
                dctx.data(),
                c.batch,
                c.seq,
                h,
                c.heads,
                &mut dqkv,
            );
        });
        black_box(&dqkv);
        (fwd, bwd)
    });

    // One transformer block's parameters: the unit the optimizer updates
    // and the store moves.
    let params = Tensor::randn(&[block], 0.02, 5);
    let adam_s = tracer.scope("probe.adam", root, || {
        let grads = Tensor::randn(&[block], 0.01, 6);
        let mut master = params.data().to_vec();
        let mut adam = Adam::new(block);
        let hp = AdamParams::default();
        median_seconds(reps, || {
            adam.step(&mut master, black_box(grads.data()), &hp)
        })
    });
    let codec_s = tracer.scope("probe.f16_codec", root, || {
        median_seconds(reps, || {
            black_box(decode_f16(&encode_f16(black_box(params.data()))));
        })
    });

    // storage: an unthrottled store and one block's master copy.
    let blob = encode_f32(params.data());
    let blob_gb = blob.len() as f64 / 1e9;
    let (put_s, read_s, move_s) = tracer.scope("probe.store", root, || {
        let store = TieredStore::new(TierConfig::unbounded_temp())?;
        let mut n = 0u32;
        let mut fresh_key = move || {
            n += 1;
            format!("probe/{n}")
        };
        let mut put_samples = Vec::new();
        let mut read_samples = Vec::new();
        let mut move_samples = Vec::new();
        for _ in 0..=reps {
            let key = fresh_key();
            let bytes = blob.clone();
            let t = Instant::now();
            store.put(&key, Tier::Ssd, bytes)?;
            put_samples.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            black_box(store.read(&key)?);
            read_samples.push(t.elapsed().as_secs_f64());
            store.remove(&key)?;

            let key = fresh_key();
            store.put(&key, Tier::Host, blob.clone())?;
            let t = Instant::now();
            store.move_to(&key, Tier::Gpu)?;
            move_samples.push(t.elapsed().as_secs_f64());
            store.remove(&key)?;
        }
        // Like `median_seconds`: the first round warms up.
        Ok::<_, RatelError>((
            median(&put_samples[1..]),
            median(&read_samples[1..]),
            median(&move_samples[1..]),
        ))
    })?;

    // executor: the step's own task graph with every task a no-op — what
    // dispatch alone costs at this graph size.
    let plan = builder.clone().plan()?;
    let workers_per_pool = match plan.config().execution {
        ExecutionOptions::Executor(o) => o.workers_per_pool,
        _ => 0,
    };
    let dispatch_us_per_task = tracer.scope("probe.dispatch", root, || {
        let (graph, _, _) = plan.spec().build();
        let executor = Executor::new(workers_per_pool.max(1));
        let noop = |_: ratel_sim::TaskId| Ok(());
        let mut failed = None;
        let s = median_seconds(reps, || {
            if let Err(e) = executor.run(&graph, &noop) {
                failed = Some(e);
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(s * 1e6 / graph.len().max(1) as f64),
        }
    })?;

    Ok(Probes {
        gemm_gflops: gemm_flops / gemm_s / 1e9,
        attn_fwd_s,
        attn_bwd_s,
        adam_melem_per_s: block as f64 / adam_s / 1e6,
        // f32 bytes in plus f32 bytes out of one encode + decode round trip.
        f16_codec_gbps: 8.0 * block as f64 / codec_s / 1e9,
        put_ssd_gbps: blob_gb / put_s,
        read_ssd_gbps: blob_gb / read_s,
        move_h2g_gbps: blob_gb / move_s,
        dispatch_us_per_task,
        workers_per_pool,
    })
}
