//! `ratel-bench verify-plans`: statically verifies every schedule this
//! repo can emit — the model zoo × every gradient-offloading mode for
//! Ratel, plus every baseline system at its best feasible batch, plus
//! the paced DAGs the engine dispatches for its executable shapes under
//! each state placement — using
//! the `ratel-verify` passes, without running the simulator. Exits
//! non-zero if any plan violates a dataflow, residency, or resource
//! invariant — for the engine's DAGs, also if a dependency ranks after
//! its dependent in the issue order their lowering set (`rank-order`) —
//! which makes it a cheap CI gate for planner and schedule changes.

use ratel::offload::GradOffloadMode;
use ratel::planner::ActivationPlanner;
use ratel::profile::HardwareProfile;
use ratel::schedule::{IterationSpec, RatelSchedule};
use ratel_baselines::System;
use ratel_model::{zoo, ModelConfig, ModelProfile};
use ratel_sim::{MemTier, TaskId};
use ratel_verify::{Finding, Limits, Rule, VerifyReport};

/// Batch sizes tried per model; each plan is checked at the largest
/// feasible one.
const BATCHES: [usize; 3] = [1, 8, 32];

/// Relative slack on residency budgets, to keep exact-fit plans (the
/// planner fills `MEM_avail` to the byte) from tripping on rounding.
const BUDGET_SLACK: f64 = 1e-9;

/// Configuration for the `verify-plans` sweep.
#[derive(Debug, Clone)]
pub struct VerifyPlansConfig {
    /// Only verify plans for this model name (e.g. `13B`), if set.
    pub model: Option<String>,
    /// Back-to-back iterations per Ratel plan (cross-iteration hazards
    /// such as stale-parameter reuse only appear with at least 2).
    pub iterations: usize,
    /// Write the machine-readable JSON report here, if set.
    pub out: Option<String>,
}

impl Default for VerifyPlansConfig {
    fn default() -> Self {
        VerifyPlansConfig {
            model: None,
            iterations: 2,
            out: None,
        }
    }
}

/// One verified plan.
#[derive(Debug)]
pub struct PlanCheck {
    /// System / mode legend name.
    pub system: String,
    /// Model name.
    pub model: String,
    /// Batch size the plan was built for.
    pub batch: usize,
    /// Iterations the verified graph spans.
    pub iterations: usize,
    /// The verifier's report.
    pub report: VerifyReport,
}

/// The whole sweep's outcome.
#[derive(Debug, Default)]
pub struct VerifyPlansReport {
    /// Every plan checked.
    pub checks: Vec<PlanCheck>,
    /// Plans skipped because no candidate batch was feasible.
    pub skipped: usize,
}

impl VerifyPlansReport {
    /// Total violations across all checked plans.
    pub fn violations(&self) -> usize {
        self.checks.iter().map(|c| c.report.findings.len()).sum()
    }

    /// Machine-readable JSON for the whole sweep.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"plans\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"system\":\"{}\",\"model\":\"{}\",\"batch\":{},\"iterations\":{},\"report\":{}}}",
                c.system,
                c.model,
                c.batch,
                c.iterations,
                c.report.to_json()
            ));
        }
        out.push_str(&format!(
            "],\"skipped\":{},\"violations\":{}}}",
            self.skipped,
            self.violations()
        ));
        out
    }
}

fn models(cfg: &VerifyPlansConfig) -> Vec<ModelConfig> {
    let mut all = zoo::llm_ladder();
    all.extend(zoo::dit_ladder());
    if let Some(name) = &cfg.model {
        all.retain(|m| m.name == *name);
    }
    all
}

fn slack(budget: f64) -> f64 {
    budget * (1.0 + BUDGET_SLACK) + 1.0
}

/// Verifies `iterations` of `spec`, holding the activations it parks in
/// host memory to `host_act` and everything it parks on the SSDs to
/// `ssd` (each with the sweep's slack).
fn verify_within(spec: &IterationSpec, iterations: usize, host_act: f64, ssd: f64) -> VerifyReport {
    let limits = Limits {
        ssd: Some(slack(ssd)),
        ..Limits::none()
    };
    let mut report = spec.verify(iterations, &limits);
    let (held, budget) = (report.peak(MemTier::Host).activations, slack(host_act));
    if held > budget {
        report.findings.push(Finding {
            rule: Rule::CapacityExceeded,
            task: TaskId(0),
            label: "host activations".into(),
            blob: None,
            detail: format!(
                "host activation footprint may reach {held:.3e} B, exceeding the \
                 {budget:.3e} B budget"
            ),
            witness: Vec::new(),
            suggestion: "swap fewer activations to host memory".into(),
        });
    }
    report
}

/// The executable shapes whose engine plans join the sweep.
const ENGINE_MODELS: [&str; 2] = ["tiny", "small"];

/// The engine's own plans for `name`'s executable shape — the paced
/// DAGs a step, an eval and the runs of a KV-cached decode call of half
/// the context after a quarter of it dispatch, mixed activation decisions — under
/// both state placements: every master host-resident (an unbounded host
/// pool) and the paper's, at the smallest pool [`ratel::Ratel::plan`]
/// accepts. Each is verified against the capacities it was planned for.
fn engine_checks(name: &str) -> Result<Vec<PlanCheck>, String> {
    let model = crate::validate::validate_model(name)
        .ok_or_else(|| format!("unknown engine model {name:?}"))?;
    let uncapped = crate::validate::EngineShape {
        decisions: crate::validate::EngineShape::parse_decisions("ssd,host,recompute")?,
        ..Default::default()
    };
    let capped = uncapped.clone().at_min_host_capacity(model)?;
    let mut checks = Vec::new();
    for shape in [uncapped, capped] {
        let plan = crate::validate::validate_builder(model, &shape)
            .plan()
            .map_err(|e| e.to_string())?;
        let (prompt, new_tokens) = (model.seq / 4, model.seq / 2);
        let (eval, decode) =
            (plan.forward_reports(prompt, new_tokens)).map_err(|e| e.to_string())?;
        let runs = (decode.into_iter().enumerate())
            .map(|(run, report)| (format!(" decode {prompt}+{new_tokens} run {run}"), report));
        let dags = [
            (String::new(), plan.verify_report().clone()),
            (" eval".into(), eval),
        ];
        for (dag, report) in dags.into_iter().chain(runs) {
            checks.push(PlanCheck {
                system: format!("engine{dag}, states {:?}", plan.placement()),
                model: name.to_string(),
                batch: model.batch,
                iterations: 1,
                report,
            });
        }
    }
    Ok(checks)
}

/// Runs the sweep.
pub fn run(cfg: &VerifyPlansConfig) -> Result<VerifyPlansReport, String> {
    let models = models(cfg);
    let engine_models: Vec<&str> = (ENGINE_MODELS.into_iter())
        .filter(|name| cfg.model.as_deref().is_none_or(|m| m == *name))
        .collect();
    if models.is_empty() && engine_models.is_empty() {
        return Err(format!(
            "no zoo model matches {:?}; try one of: {} {}",
            cfg.model.as_deref().unwrap_or(""),
            zoo::llm_ladder()
                .iter()
                .chain(zoo::dit_ladder().iter())
                .map(|m| m.name.as_str())
                .collect::<Vec<_>>()
                .join(" "),
            ENGINE_MODELS.join(" ")
        ));
    }
    let server = crate::paper_server();
    // The paper's own G10 methodology: simulate it as if the consumer GPU
    // had GPUDirect (§III-C); on the stock 4090 it is never feasible.
    let g10_server = crate::paper_server().with_gpu(crate::gpudirect_4090());

    let mut report = VerifyPlansReport::default();
    for model in &models {
        // Ratel's planner output under every gradient-offloading mode,
        // verified against the §IV-D budgets the planner claims to
        // respect: host activations fit MEM_avail, SSD spill fits the
        // plan's own spill allowance. (The unpaced 12 B/param of every
        // handler's states are in the reported host peak, not held to an
        // activation budget.)
        match System::Ratel.max_batch(&server, model, &BATCHES) {
            None => report.skipped += GradOffloadMode::ALL.len(),
            Some(batch) => {
                let profile = ModelProfile::new(model, batch);
                let hw = HardwareProfile::measure(&server, &profile, batch);
                let plan = ActivationPlanner::new(&hw, &profile).plan();
                for mode in GradOffloadMode::ALL {
                    let spec = RatelSchedule {
                        profile: &hw,
                        model: &profile,
                        plan: &plan,
                        mode,
                        gpus: server.gpu_count,
                    }
                    .to_spec();
                    report.checks.push(PlanCheck {
                        system: mode.name().to_string(),
                        model: model.name.clone(),
                        batch,
                        iterations: cfg.iterations,
                        report: verify_within(
                            &spec,
                            cfg.iterations,
                            hw.mem_avail,
                            plan.spill_bytes,
                        ),
                    });
                }
            }
        }

        // Baseline systems against their physical capacities. Ratel is
        // covered above (System::Ratel is the OptimizedActive plan).
        for sys in System::ALL {
            if sys == System::Ratel {
                continue;
            }
            let server = if sys == System::G10 {
                &g10_server
            } else {
                &server
            };
            match sys.max_batch(server, model, &BATCHES) {
                None => report.skipped += 1,
                Some(batch) => {
                    let spec = sys
                        .spec(server, model, batch)
                        .expect("max_batch returned a feasible batch");
                    report.checks.push(PlanCheck {
                        system: sys.name().to_string(),
                        model: model.name.clone(),
                        batch,
                        iterations: 1,
                        report: verify_within(
                            &spec,
                            1,
                            server.usable_main_memory() as f64,
                            server.ssds.capacity_bytes() as f64,
                        ),
                    });
                }
            }
        }
    }
    for name in engine_models {
        report.checks.extend(engine_checks(name)?);
    }
    Ok(report)
}

/// Renders the sweep as an aligned text report.
pub fn render(cfg: &VerifyPlansConfig, report: &VerifyPlansReport) -> String {
    let mut out = format!(
        "verify-plans: {} plan(s) over {} batch candidates {:?}, {} Ratel iteration(s)\n",
        report.checks.len(),
        BATCHES.len(),
        BATCHES,
        cfg.iterations,
    );
    let width = report
        .checks
        .iter()
        .map(|c| c.system.len())
        .max()
        .unwrap_or(0);
    for c in &report.checks {
        if c.report.is_clean() {
            out.push_str(&format!(
                "  ok    {:width$}  {:>6}  b{:<3}  {} tasks, {} versions, {} intervals; peak {}\n",
                c.system,
                c.model,
                c.batch,
                c.report.tasks_checked,
                c.report.versions_seen,
                c.report.intervals,
                c.report.render_peaks(),
            ));
        } else {
            out.push_str(&format!(
                "  FAIL  {:width$}  {:>6}  b{:<3}  {} violation(s)\n",
                c.system,
                c.model,
                c.batch,
                c.report.findings.len(),
            ));
            for line in c.report.render().lines().skip(1) {
                out.push_str(&format!("      {}\n", line.trim_start()));
            }
        }
    }
    let v = report.violations();
    if v == 0 {
        out.push_str(&format!(
            "all {} plan(s) clean ({} skipped as infeasible)\n",
            report.checks.len(),
            report.skipped
        ));
    } else {
        out.push_str(&format!(
            "{v} violation(s) across {} plan(s) ({} skipped as infeasible)\n",
            report.checks.len(),
            report.skipped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swapped_activations_alone_are_held_to_the_host_budget() {
        let server = crate::paper_server();
        let model = &models(&VerifyPlansConfig {
            model: Some("13B".into()),
            ..VerifyPlansConfig::default()
        })[0];
        let batch = System::Ratel.max_batch(&server, model, &BATCHES).unwrap();
        let profile = ModelProfile::new(model, batch);
        let hw = HardwareProfile::measure(&server, &profile, batch);
        let plan = ActivationPlanner::new(&hw, &profile).plan();
        let spec = RatelSchedule {
            profile: &hw,
            model: &profile,
            plan: &plan,
            mode: GradOffloadMode::OptimizedActive,
            gpus: server.gpu_count,
        }
        .to_spec();
        let clean = verify_within(&spec, 1, hw.mem_avail, plan.spill_bytes);
        assert!(clean.is_clean(), "{}", clean.render());
        // The handlers' 12 B/param pile up beside the activations in the
        // reported peak, and are not held to the activation budget.
        let host = clean.peak(MemTier::Host);
        assert!(0.0 < host.activations && host.activations <= slack(hw.mem_avail));
        assert!(host.total > 2.0 * host.activations, "{host:?}");
        let short = verify_within(&spec, 1, host.total / 2.0, plan.spill_bytes);
        assert!(short.is_clean(), "{}", short.render());
        let short = verify_within(&spec, 1, host.activations / 2.0, plan.spill_bytes);
        let rules: Vec<Rule> = short.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, [Rule::CapacityExceeded], "{}", short.render());
    }
}
