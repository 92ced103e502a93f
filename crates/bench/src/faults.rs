//! `ratel-bench faults`: chaos smoke test for the storage fault plane.
//!
//! Runs the same short fine-tuning job twice through [`Ratel`]'s typed
//! trainer: once fault-free (with an empty [`FaultPlan`] installed purely
//! as an SSD op-counter), then again with a seeded plan that injects
//! transient SSD I/O faults scattered across the observed op window. The
//! job is the training steps followed by a read-only tail — one eval and
//! one KV-cached generation — so the window also covers the parameter
//! reads outside a step, streamed (eval) and pinned (generation). The
//! store's bounded retry-with-backoff must absorb every injected fault,
//! so the chaos run's loss history, eval loss and generated tokens have
//! to be **bitwise identical** to the baseline — faults may cost time,
//! never correctness. The command exits nonzero if any loss or token
//! diverges, if fewer faults were injected than requested, or if the
//! retry telemetry does not account for them.

use std::sync::Arc;

use ratel::api::Ratel;
use ratel::engine::data::learnable_batch;
use ratel::{Batch, RatelTrainer};
use ratel_sim::BlobKey;
use ratel_storage::fault::FaultPlan;
use ratel_storage::telemetry::FaultStats;
use ratel_tensor::GptConfig;

/// What to chaos-test: one trainer configuration and a fault budget.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    /// Model shape name (`tiny` or `small`), same ladder as `validate`.
    pub model: String,
    /// Training steps per run.
    pub steps: usize,
    /// Transient SSD faults to scatter across the chaos run.
    pub faults: usize,
    /// Seed for the fault-index PRNG (and reported for reproduction).
    pub seed: u64,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            model: "tiny".into(),
            steps: 10,
            faults: 5,
            seed: 7,
        }
    }
}

/// What one run of the job computed.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Per-step training losses.
    pub losses: Vec<f32>,
    /// Eval loss after the last step.
    pub eval_loss: f32,
    /// Tokens of the cached generation after the eval.
    pub tokens: Vec<usize>,
}

/// Everything one chaos run produced.
#[derive(Debug, Clone)]
pub struct FaultsReport {
    /// SSD ops the fault-free baseline issued (the injection window).
    pub baseline_ops: u64,
    /// What the fault-free run computed.
    pub baseline: JobOutcome,
    /// What the chaos run computed.
    pub chaos: JobOutcome,
    /// Faults actually injected (ops may repeat an index post-retry).
    pub injected: usize,
    /// The chaos store's retry and give-up counters.
    pub stats: FaultStats,
}

impl FaultsReport {
    /// Steps whose loss bits differ between the two runs.
    pub fn diverged_steps(&self) -> Vec<usize> {
        self.baseline
            .losses
            .iter()
            .zip(&self.chaos.losses)
            .enumerate()
            .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the read-only tail (eval loss bits, generated tokens)
    /// differs between the two runs.
    pub fn tail_diverged(&self) -> bool {
        self.baseline.eval_loss.to_bits() != self.chaos.eval_loss.to_bits()
            || self.baseline.tokens != self.chaos.tokens
    }

    /// Human-readable reasons this run fails the smoke test.
    pub fn failures(&self, cfg: &FaultsConfig) -> Vec<String> {
        let mut out = Vec::new();
        if self.baseline.losses.len() != self.chaos.losses.len() {
            out.push(format!(
                "step counts differ: baseline {} vs chaos {}",
                self.baseline.losses.len(),
                self.chaos.losses.len()
            ));
        }
        let diverged = self.diverged_steps();
        if !diverged.is_empty() {
            out.push(format!(
                "loss diverged at step(s) {:?} — faults must not change results",
                diverged
            ));
        }
        if self.tail_diverged() {
            out.push(
                "eval loss or generated tokens diverged — faults must not change results".into(),
            );
        }
        if self.injected < cfg.faults {
            out.push(format!(
                "only {} of {} requested faults were injected (window {} ops)",
                self.injected, cfg.faults, self.baseline_ops
            ));
        }
        if (self.stats.retries as usize) < self.injected {
            out.push(format!(
                "telemetry counted {} retries for {} injected faults",
                self.stats.retries, self.injected
            ));
        }
        if self.stats.give_ups > 0 {
            out.push(format!(
                "{} operation(s) exhausted the retry budget on transient faults",
                self.stats.give_ups
            ));
        }
        out
    }
}

/// Resolves a faults model name to an executable shape.
pub fn faults_model(name: &str) -> Option<GptConfig> {
    crate::validate::validate_model(name)
}

/// Builds one trainer with `plan` installed, identical otherwise.
fn build_trainer(model: GptConfig, plan: Arc<FaultPlan<BlobKey>>) -> Result<RatelTrainer, String> {
    Ratel::init(model)
        .seed(42)
        .learning_rate(1e-3)
        .fault_plan(plan)
        .build()
        .map_err(|e| format!("trainer build: {e}"))
}

/// Runs the job: `steps` deterministic training steps, then one eval and
/// one cached generation on the batch a further step would have seen.
fn run_job(
    trainer: &mut RatelTrainer,
    model: &GptConfig,
    steps: usize,
) -> Result<JobOutcome, String> {
    let mut losses = Vec::with_capacity(steps);
    for step in 0..steps {
        let (tokens, targets) = learnable_batch(model, step as u64);
        let batch = Batch::new(model, &tokens, &targets).map_err(|e| format!("batch: {e}"))?;
        let stats = trainer
            .step(batch)
            .map_err(|e| format!("step {step}: {e}"))?;
        losses.push(stats.loss);
    }
    let (tokens, targets) = learnable_batch(model, steps as u64);
    let batch = Batch::new(model, &tokens, &targets).map_err(|e| format!("batch: {e}"))?;
    let eval_loss = trainer.eval(batch).map_err(|e| format!("eval: {e}"))?;
    let prompt = &tokens[..(model.seq / 4).max(1)];
    let tokens = trainer
        .generate_cached(prompt, model.seq / 2)
        .map_err(|e| format!("generate: {e}"))?;
    Ok(JobOutcome {
        losses,
        eval_loss,
        tokens,
    })
}

/// Runs the full chaos smoke: baseline, seeded chaos run, comparison.
pub fn run(cfg: &FaultsConfig) -> Result<FaultsReport, String> {
    let model = faults_model(&cfg.model).ok_or_else(|| format!("unknown model {:?}", cfg.model))?;
    let steps = cfg.steps.max(1);

    // Baseline: an empty plan faults nothing but counts every SSD op,
    // giving the exact op window the seeded plan scatters faults over.
    let counter = Arc::new(FaultPlan::new());
    let mut baseline = build_trainer(model, Arc::clone(&counter))?;
    let baseline_job = run_job(&mut baseline, &model, steps)?;
    let baseline_ops = counter.ops_seen();
    if baseline_ops == 0 {
        return Err("baseline issued no SSD ops — nothing to fault".into());
    }

    // Chaos: same job, transient faults scattered across that window.
    let plan = Arc::new(FaultPlan::seeded_transient(
        cfg.seed,
        cfg.faults,
        baseline_ops,
    ));
    let mut chaos = build_trainer(model, Arc::clone(&plan))?;
    let chaos_job = run_job(&mut chaos, &model, steps)?;
    let stats = chaos.engine().store().telemetry().fault_stats();

    Ok(FaultsReport {
        baseline_ops,
        baseline: baseline_job,
        chaos: chaos_job,
        injected: plan.injected_count(),
        stats,
    })
}

/// Renders the chaos report as aligned text.
pub fn render(cfg: &FaultsConfig, report: &FaultsReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fault-injection smoke: model={} steps={} faults={} seed={}\n\n",
        cfg.model, cfg.steps, cfg.faults, cfg.seed
    ));
    out.push_str(&format!(
        "baseline: {} SSD ops, final loss {:.6}\n",
        report.baseline_ops,
        report.baseline.losses.last().copied().unwrap_or(f32::NAN)
    ));
    out.push_str(&format!(
        "chaos:    {} transient fault(s) injected, {} retried, {} gave up, final loss {:.6}\n",
        report.injected,
        report.stats.retries,
        report.stats.give_ups,
        report.chaos.losses.last().copied().unwrap_or(f32::NAN)
    ));
    let diverged = report.diverged_steps();
    if diverged.is_empty() {
        out.push_str(&format!(
            "loss history: bitwise identical across all {} steps\n",
            report.baseline.losses.len()
        ));
    } else {
        out.push_str(&format!("loss history: DIVERGED at steps {diverged:?}\n"));
        for i in &diverged {
            out.push_str(&format!(
                "  step {i}: baseline {:.9} vs chaos {:.9}\n",
                report.baseline.losses[*i], report.chaos.losses[*i]
            ));
        }
    }
    if report.tail_diverged() {
        out.push_str(&format!(
            "eval + generation: DIVERGED (loss {:.9} vs {:.9}, tokens {:?} vs {:?})\n",
            report.baseline.eval_loss,
            report.chaos.eval_loss,
            report.baseline.tokens,
            report.chaos.tokens
        ));
    } else {
        out.push_str(&format!(
            "eval + generation: eval loss {:.6} and all {} generated tokens identical\n",
            report.baseline.eval_loss,
            report.baseline.tokens.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_model_is_rejected() {
        let cfg = FaultsConfig {
            model: "100B".into(),
            ..FaultsConfig::default()
        };
        assert!(run(&cfg).is_err());
        assert!(faults_model("tiny").is_some());
    }

    #[test]
    fn chaos_smoke_passes_on_the_tiny_model() {
        let cfg = FaultsConfig {
            steps: 3,
            faults: 4,
            ..FaultsConfig::default()
        };
        let report = run(&cfg).unwrap();
        let failures = report.failures(&cfg);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(report.injected >= 4, "{report:?}");
        assert!(report.stats.retries >= report.injected as u64);
        assert_eq!(
            report.baseline.tokens.len(),
            faults_model("tiny").unwrap().seq / 2
        );
        // One differing token or eval-loss bit fails the smoke.
        let mut bad = report.clone();
        bad.chaos.tokens[0] ^= 1;
        assert_eq!(bad.failures(&cfg).len(), 1, "{:?}", bad.failures(&cfg));
        let mut bad = report;
        bad.chaos.eval_loss = f32::from_bits(bad.chaos.eval_loss.to_bits() ^ 1);
        assert_eq!(bad.failures(&cfg).len(), 1);
    }
}
