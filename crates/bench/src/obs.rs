//! `ratel-bench obs`: end-to-end smoke of the observability plane.
//!
//! Runs an instrumented engine with the live plan-conformance monitor
//! enabled — its steps, then one eval and one cached generation, each
//! held against the DAG it ran — then exercises every export path the
//! plane offers: the
//! Prometheus text exposition (self-checked with
//! [`ratel_obs::metrics::validate_prometheus`]), the JSONL dump, the
//! Chrome trace with prefetch→consumer flow arrows, and the flight
//! recorder's occupancy. A clean run must produce **zero** conformance
//! findings — CI runs this on the tiny model as the obs smoke gate —
//! and any drift surfaces both as a structured finding in the report
//! and as a `Drift` event in the flight recorder.

use ratel::engine::conformance::ConformanceConfig;
use ratel::engine::data::random_batch;
use ratel::engine::obs::publish_engine_metrics;
use ratel_obs::metrics::validate_prometheus;
use ratel_storage::telemetry::FaultStats;
use ratel_storage::Route;

use crate::validate::{route_caps, validate_engine, validate_model, EngineShape};

/// What to run: one engine configuration plus export destinations.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Model shape name (`tiny` or `small`).
    pub model: String,
    /// Instrumented steps to run (each one is conformance-checked).
    pub steps: usize,
    /// Optional throttle factor: when set, per-route throttles are
    /// derived from the paper server (like `validate`) and the same
    /// caps become the conformance monitor's bandwidth-stall targets.
    pub throttle: Option<f64>,
    /// Prometheus text exposition output path.
    pub metrics_out: Option<String>,
    /// JSONL metrics output path.
    pub jsonl_out: Option<String>,
    /// Chrome-trace output path (last step, with prefetch flow arrows).
    pub trace_out: Option<String>,
    /// Activation decisions and arena size of the engine under test.
    pub shape: EngineShape,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            model: "tiny".into(),
            steps: 5,
            throttle: None,
            metrics_out: None,
            jsonl_out: None,
            trace_out: None,
            shape: EngineShape::default(),
        }
    }
}

/// One step's observable surface, as the monitor saw it.
#[derive(Debug, Clone)]
pub struct ObsStep {
    /// Training loss.
    pub loss: f32,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Bytes moved across all routes this step.
    pub traffic_total: u64,
    /// Fault counters that ticked during this step.
    pub fault_stats: FaultStats,
    /// Rendered conformance findings (empty on a clean step).
    pub findings: Vec<String>,
}

/// Everything one obs run produced.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Per-step observations, in order.
    pub steps: Vec<ObsStep>,
    /// The calls run after the steps (`eval`, `generate_cached`) and the
    /// conformance findings of each (rendered).
    pub calls: Vec<(&'static str, Vec<String>)>,
    /// Conformance findings across all steps and calls (rendered).
    pub findings: Vec<String>,
    /// Samples counted by the Prometheus exposition self-check.
    pub samples: usize,
    /// The Prometheus text exposition.
    pub metrics_text: String,
    /// The JSONL metrics dump.
    pub metrics_jsonl: String,
    /// Flight-recorder events written since process start.
    pub flight_events: u64,
    /// Flight-recorder ring capacity.
    pub flight_capacity: u64,
    /// Planned per-route bytes the monitor checked against, indexed
    /// like [`Route::ALL`].
    pub planned_bytes: [u64; 4],
}

impl ObsReport {
    /// Reasons this run fails the smoke gate: any conformance finding
    /// (a clean engine must match its own plan exactly).
    pub fn failures(&self) -> Vec<String> {
        self.findings.clone()
    }
}

/// Runs the instrumented steps, conformance-checks each, publishes the
/// unified metrics, and self-checks every export format.
pub fn run(cfg: &ObsConfig) -> Result<ObsReport, String> {
    let model =
        validate_model(&cfg.model).ok_or_else(|| format!("unknown model {:?}", cfg.model))?;
    let mut engine = validate_engine(model, &cfg.shape)?;

    let mut conformance = ConformanceConfig::default();
    if let Some(factor) = cfg.throttle {
        let caps = route_caps(&crate::paper_server(), factor);
        for (route, cap) in caps {
            engine.set_route_throttle(route, Some(cap));
            // Under a hard throttle the cap *is* the expected bandwidth,
            // so the stall detector gets a meaningful floor.
            conformance.bandwidth_targets[route.index()] = Some(cap);
        }
    }
    engine.enable_conformance(conformance);
    let planned_bytes = engine.movement_spec().planned_route_bytes();

    let (tokens, targets) = random_batch(&model, 1234);
    let mut steps = Vec::with_capacity(cfg.steps);
    let mut findings = Vec::new();
    for _ in 0..cfg.steps.max(1) {
        let stats = engine
            .train_step(&tokens, &targets)
            .map_err(|e| format!("train step: {e}"))?;
        let step_findings: Vec<String> = engine
            .conformance_findings()
            .iter()
            .map(|f| f.to_string())
            .collect();
        findings.extend(step_findings.iter().cloned());
        steps.push(ObsStep {
            loss: stats.loss,
            wall_seconds: stats.wall_seconds,
            traffic_total: stats.traffic.total(),
            fault_stats: stats.fault_stats,
            findings: step_findings,
        });
    }
    let findings_of = |engine: &ratel::engine::RatelEngine| -> Vec<String> {
        (engine.conformance_findings().iter())
            .map(|f| f.to_string())
            .collect()
    };
    engine
        .eval_loss(&tokens, &targets)
        .map_err(|e| format!("eval: {e}"))?;
    let mut calls = vec![("eval", findings_of(&engine))];
    (engine.generate_cached(&tokens[..model.seq / 4], model.seq / 2))
        .map_err(|e| format!("generate_cached: {e}"))?;
    calls.push(("generate_cached", findings_of(&engine)));
    findings.extend(calls.iter().flat_map(|(_, f)| f.iter().cloned()));

    // One registry snapshot covers every subsystem; the exposition
    // self-check proves the export is well-formed without a Prometheus.
    let registry = ratel_obs::registry();
    publish_engine_metrics(&engine, registry);
    let metrics_text = registry.prometheus_text();
    let samples =
        validate_prometheus(&metrics_text).map_err(|e| format!("exposition self-check: {e}"))?;
    let metrics_jsonl = registry.jsonl();

    if let Some(path) = &cfg.metrics_out {
        std::fs::write(path, &metrics_text).map_err(|e| format!("could not write {path}: {e}"))?;
    }
    if let Some(path) = &cfg.jsonl_out {
        std::fs::write(path, &metrics_jsonl).map_err(|e| format!("could not write {path}: {e}"))?;
    }
    if let Some(path) = &cfg.trace_out {
        let telemetry = engine
            .last_step_telemetry()
            .expect("conformance keeps telemetry on");
        let timeline = telemetry.timeline("measured");
        let json = ratel_sim::chrome_trace_json_timelines(&[timeline]);
        std::fs::write(path, json).map_err(|e| format!("could not write {path}: {e}"))?;
    }

    let flight = ratel_obs::flight();
    Ok(ObsReport {
        steps,
        calls,
        findings,
        samples,
        metrics_text,
        metrics_jsonl,
        flight_events: flight.recorded(),
        flight_capacity: flight.capacity() as u64,
        planned_bytes,
    })
}

/// Renders the obs report as aligned text.
pub fn render(cfg: &ObsConfig, report: &ObsReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "observability smoke: model={} steps={}{}\n\n",
        cfg.model,
        report.steps.len(),
        match cfg.throttle {
            Some(t) => format!(" throttle={t:.0e} (stall targets armed)"),
            None => String::new(),
        }
    ));
    out.push_str("planned per-route bytes (conformance reference):\n");
    for (i, route) in Route::ALL.iter().enumerate() {
        out.push_str(&format!(
            "  {:<10} {:>12}\n",
            route.name(),
            report.planned_bytes[i]
        ));
    }
    out.push_str("\nper-step conformance:\n");
    for (i, s) in report.steps.iter().enumerate() {
        let verdict = if s.findings.is_empty() {
            "conforms".to_string()
        } else {
            format!("{} finding(s)", s.findings.len())
        };
        let faults = if s.fault_stats.is_empty() {
            String::new()
        } else {
            format!(
                ", faults: {} retries / {} give-ups",
                s.fault_stats.retries, s.fault_stats.give_ups
            )
        };
        out.push_str(&format!(
            "  step {i:>3}: loss {:.4}  ({:.0} ms, {} MB moved, {verdict}{faults})\n",
            s.loss,
            s.wall_seconds * 1e3,
            s.traffic_total / 1_000_000,
        ));
        for f in &s.findings {
            out.push_str(&format!("    drift: {f}\n"));
        }
    }
    for (call, findings) in &report.calls {
        let verdict = match findings.len() {
            0 => "conforms".to_string(),
            n => format!("{n} finding(s)"),
        };
        out.push_str(&format!("  {call}: {verdict}\n"));
        for f in findings {
            out.push_str(&format!("    drift: {f}\n"));
        }
    }
    out.push_str(&format!(
        "\nmetrics: {} samples pass the Prometheus exposition self-check\n",
        report.samples
    ));
    out.push_str(&format!(
        "flight recorder: {} events recorded (ring capacity {})\n",
        report.flight_events, report.flight_capacity
    ));
    if report.findings.is_empty() {
        out.push_str("conformance: clean — every step and call matched the verified plan\n");
    } else {
        out.push_str(&format!(
            "conformance: {} finding(s) — see drift lines above\n",
            report.findings.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_has_zero_findings_and_valid_exports() {
        let cfg = ObsConfig {
            steps: 2,
            ..ObsConfig::default()
        };
        let report = run(&cfg).expect("obs run succeeds");
        assert!(
            report.failures().is_empty(),
            "clean run drifted: {:?}",
            report.findings
        );
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.calls.len(), 2);
        assert!(report.samples > 10, "thin metric surface");
        assert!(report.metrics_text.contains("ratel_route_bytes_total"));
        assert!(report.metrics_jsonl.contains("\"name\""));
        assert!(report.flight_events > 0, "flight recorder stayed silent");
        let rendered = render(&cfg, &report);
        assert!(rendered.contains("conformance: clean"));
    }

    #[test]
    fn unknown_model_is_rejected() {
        let cfg = ObsConfig {
            model: "100B".into(),
            ..ObsConfig::default()
        };
        assert!(run(&cfg).is_err());
    }
}
