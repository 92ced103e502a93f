//! Integration tests of the observability plane: the live
//! plan-conformance monitor must stay silent on clean runs, each seeded
//! drift class must surface as its structured finding (mirroring the
//! mutation suite the static verifier gets in `verify_mutations.rs`),
//! and a permanent SSD fault must leave a flight-recorder postmortem
//! whose tail names the failing transfer and its retries.

use ratel_repro::core::engine::conformance::{
    ConformanceConfig, ConformanceMonitor, DriftKind, Finding,
};
use ratel_repro::core::engine::telemetry::StepTelemetry;
use ratel_repro::prelude::*;
use ratel_repro::sim::{BlobKey, BlobKind, SpanKind};
use ratel_repro::storage::{FaultKind, FaultPlan, Route};

/// The paper's optimized schedule on the tiny model, the shape the `obs`
/// smoke runs: everything swapped to host, active offload and prefetch
/// on.
fn build(frozen_layers: Vec<usize>) -> RatelEngine {
    RatelEngine::new(EngineConfig {
        frozen_layers,
        ..EngineConfig::tiny()
    })
    .unwrap()
}

/// One instrumented step's telemetry plus a monitor over the same
/// engine's plan — the DAG that ran — the seed every mutation perturbs.
fn instrumented_step(config: ConformanceConfig) -> (StepTelemetry, ConformanceMonitor) {
    let model = GptConfig::tiny();
    let mut engine = build(Vec::new());
    engine.enable_telemetry();
    let monitor = engine.conformance_monitor(config);
    let (tokens, targets) = random_batch(&model, 1234);
    engine.train_step(&tokens, &targets).unwrap();
    let telemetry = engine.last_step_telemetry().unwrap().clone();
    (telemetry, monitor)
}

fn kinds(findings: &[Finding]) -> Vec<DriftKind> {
    let mut out: Vec<DriftKind> = findings.iter().map(|f| f.kind).collect();
    out.dedup();
    out
}

/// The acceptance criterion's clean half: a healthy engine matches its
/// own verified plan on every step — zero findings, live in the engine.
#[test]
fn clean_runs_produce_zero_findings() {
    let model = GptConfig::tiny();
    let mut engine = build(Vec::new());
    engine.enable_conformance(ConformanceConfig::default());
    let (tokens, targets) = random_batch(&model, 7);
    for step in 0..3 {
        engine.train_step(&tokens, &targets).unwrap();
        assert!(
            engine.conformance_findings().is_empty(),
            "step {step} drifted: {:?}",
            engine.conformance_findings()
        );
    }
    assert_eq!(engine.total_findings(), 0);
}

/// Drift class 1: route traffic that diverges from the plan's ledger —
/// here wiped to zero, as if a whole route's movement went missing.
#[test]
fn byte_mismatch_is_flagged_per_route() {
    let (clean, monitor) = instrumented_step(ConformanceConfig::default());
    let mut mutated = clean.clone();
    mutated.traffic = clean.traffic.since(&clean.traffic); // all-zero snapshot
    let findings = monitor.check(&mutated);
    assert_eq!(kinds(&findings), vec![DriftKind::ByteMismatch]);
    // Every route the plan moves bytes on must report its own mismatch.
    let planned = monitor.planned_bytes();
    let expected = planned.iter().filter(|b| **b > 0).count();
    assert_eq!(findings.len(), expected, "{findings:?}");
    for f in &findings {
        assert_eq!(f.measured, Some(0));
        assert!(f.planned.unwrap() > 0);
    }
}

/// Drift class 2: two forward layers started out of plan order, so the
/// later one began before its dependency — the earlier one — ended.
#[test]
fn stage_inversion_is_flagged() {
    let (clean, monitor) = instrumented_step(ConformanceConfig::default());
    let mut mutated = clean.clone();
    // Found by layer: spans are recorded as tasks complete, and a worker
    // may record the next layer's before its own.
    let fwd = |layer: usize| {
        let span = (clean.spans.iter())
            .position(|s| s.kind == SpanKind::Forward && s.task.is_some_and(|t| t.layer == layer));
        span.unwrap_or_else(|| panic!("no forward span of layer {layer}"))
    };
    let (a, b) = (fwd(0), fwd(1));
    let (sa, sb) = (mutated.spans[a].start, mutated.spans[b].start);
    mutated.spans[a].start = sb;
    mutated.spans[b].start = sa;
    let findings = monitor.check(&mutated);
    assert_eq!(kinds(&findings), vec![DriftKind::StageInversion]);
    let (first, second) = (&clean.spans[a].label, &clean.spans[b].label);
    assert!(
        findings
            .iter()
            .any(|f| f.detail.contains(first.as_str()) && f.detail.contains(second.as_str())),
        "no finding names both {first:?} and {second:?}: {findings:?}"
    );
}

/// Drift class 2 on the edges only the dispatched DAG has: under a
/// bounded arena the lowering gates read-ahead on backward kernels the
/// spec's dataflow does not order it after, to bound what sits in the
/// arena. A transfer that jumps its gate — while still following every
/// dependency of the un-paced spec graph — is an inversion; a monitor
/// holding its own copy of the spec's graph could not see it.
#[test]
fn a_transfer_that_jumps_its_pacing_gate_is_flagged() {
    // The `executor_equivalence` zoo's arena shape: SSD, host and
    // recompute decisions in turn under a 64 KiB arena.
    let model = GptConfig {
        vocab: 64,
        seq: 8,
        hidden: 16,
        heads: 2,
        layers: 6,
        batch: 2,
    };
    let decisions = [
        ActDecision::SwapToSsd,
        ActDecision::SwapToHost,
        ActDecision::Recompute,
    ];
    let mut engine = RatelEngine::new(EngineConfig {
        model,
        act_decisions: decisions.iter().copied().cycle().take(6).collect(),
        gpu_capacity: Some(64 << 10),
        ..EngineConfig::tiny()
    })
    .unwrap();
    engine.enable_telemetry();
    let monitor = engine.conformance_monitor(ConformanceConfig::default());
    let (tokens, targets) = random_batch(&model, 1234);
    engine.train_step(&tokens, &targets).unwrap();
    let clean = engine.last_step_telemetry().unwrap().clone();
    assert!(monitor.check(&clean).is_empty(), "seed telemetry drifted");

    // Transfers the arena's byte budget gates on a kernel (the rule
    // `dag_step`'s pacing tests pin edge for edge), and that kernel.
    let gated = [
        ("bwd-fetch L3", "bwd L5"),
        ("bwd-fetch L2", "bwd L4"),
        ("act-up L2", "bwd L4"),
        ("bwd-fetch L1", "bwd L3"),
        ("act-up L1#0", "bwd L3"),
        ("bwd-fetch L0", "bwd L3"),
    ];
    let (unpaced, _, _) = engine.movement_spec().build();
    let span_of = |label: &str| {
        let found = clean
            .spans
            .iter()
            .position(|s| s.task.is_some() && s.label == label);
        found.unwrap_or_else(|| panic!("no task span {label:?}"))
    };
    // When the un-paced graph would have let span `i` start: the moment
    // the last of its dependencies there ended.
    let ready = |i: usize| {
        let task = clean.spans[i].task.unwrap().task;
        let ends = unpaced.deps(task).iter().map(|dep| {
            let span = clean
                .spans
                .iter()
                .find(|s| s.task.is_some_and(|t| t.task == *dep));
            span.unwrap().end
        });
        ends.fold(clean.step_start, f64::max)
    };
    let (moved, gate) = gated
        .iter()
        .map(|(transfer, kernel)| (span_of(transfer), span_of(kernel)))
        .find(|&(i, g)| ready(i) < clean.spans[g].end)
        .expect("some gated transfer's inputs were ready before its gate kernel ended");

    let mut mutated = clean.clone();
    mutated.spans[moved].start = ready(moved);
    let findings = monitor.check(&mutated);
    assert_eq!(kinds(&findings), vec![DriftKind::StageInversion]);
    let (moved, gate) = (&clean.spans[moved].label, &clean.spans[gate].label);
    assert!(
        findings
            .iter()
            .any(|f| f.detail.contains(&format!("{moved:?}"))
                && f.detail.contains(&format!("{gate:?}"))),
        "no finding names {moved:?} and its gate {gate:?}: {findings:?}"
    );
}

/// An accumulated step conforms to its one DAG (a frozen layer has no
/// gradient to accumulate), and that DAG orders its micro-batches: micro
/// batch 1's first task, the embedding's P16 fetch, started before micro
/// batch 0's last backward kernel ended — so before that kernel's
/// gradient left the arena — is an inversion the monitor names. A
/// checker matching spans within one run of a DAG per micro-batch could
/// not see it.
#[test]
fn a_stage_inversion_across_micro_batches_is_flagged() {
    let model = GptConfig::tiny();
    let mut engine = build(vec![1]);
    engine.enable_conformance(ConformanceConfig::default());
    let micro: Vec<_> = (0..3).map(|s| random_batch(&model, 40 + s)).collect();
    engine.train_step_accumulated(&micro).unwrap();
    assert!(
        engine.conformance_findings().is_empty(),
        "accumulated step drifted: {:?}",
        engine.conformance_findings()
    );
    let clean = engine.last_step_telemetry().unwrap().clone();
    assert_eq!(clean.micro_batches, 3);

    let monitor = engine.conformance_monitor(ConformanceConfig::default());
    let span = |label: &str| {
        let found = (clean.spans.iter()).position(|s| s.task.is_some() && s.label == label);
        found.unwrap_or_else(|| panic!("no task span {label:?}"))
    };
    let (first, last) = (span("m1 fwd-fetch L0"), span("m0 bwd L0"));
    let mut mutated = clean.clone();
    mutated.spans[first].start = clean.spans[last].end - 1e-9;
    let findings = monitor.check(&mutated);
    assert_eq!(kinds(&findings), vec![DriftKind::StageInversion]);
    // Its dependencies are micro-batch 0's gradient offloads, which the
    // last backward kernel precedes.
    let named = |f: &Finding| {
        f.detail.contains("\"m1 fwd-fetch L0\"") && f.detail.contains("\"m0 grad-off L0\"")
    };
    assert!(
        findings.iter().any(named),
        "no finding names the fetch and micro-batch 0's last offload: {findings:?}"
    );
}

/// Conformance checks what a step recorded, nothing older: with
/// recording switched off, a finding from an earlier step is neither
/// re-counted nor re-emitted.
#[test]
fn steps_that_record_nothing_are_not_rechecked() {
    let model = GptConfig::tiny();
    let mut engine = build(Vec::new());
    let mut config = ConformanceConfig::default();
    config.bandwidth_targets[Route::SsdToHost.index()] = Some(1e18);
    engine.enable_conformance(config);
    let (tokens, targets) = random_batch(&model, 7);
    engine.train_step(&tokens, &targets).unwrap();
    assert_eq!(engine.total_findings(), 1, "the armed stall is the seed");

    engine.telemetry().set_enabled(false);
    for _ in 0..2 {
        engine.train_step(&tokens, &targets).unwrap();
        assert!(engine.conformance_findings().is_empty());
    }
    assert_eq!(engine.total_findings(), 1);
}

/// Drift class 3: a route with an armed bandwidth target achieving less
/// than the configured fraction of it stalls. The target here is set
/// absurdly high so the real measured bandwidth is guaranteed to be
/// under the floor.
#[test]
fn bandwidth_stall_is_flagged_when_a_target_is_armed() {
    let mut config = ConformanceConfig::default();
    config.bandwidth_targets[Route::SsdToHost.index()] = Some(1e18);
    let (clean, monitor) = instrumented_step(config);
    let findings = monitor.check(&clean);
    assert_eq!(kinds(&findings), vec![DriftKind::Stall]);
    assert_eq!(findings[0].route, Some(Route::SsdToHost));

    // The same telemetry with no target armed is clean: the stall check
    // never invents a floor on its own.
    let quiet = build(Vec::new()).conformance_monitor(ConformanceConfig::default());
    assert!(quiet.check(&clean).is_empty());
}

/// A permanent SSD fault exhausts its retries, fails the step, and the
/// engine dumps the flight recorder: the postmortem must exist and its
/// event tail must include the failing blob's retries and give-up.
#[test]
fn permanent_fault_leaves_a_postmortem_naming_the_failing_transfer() {
    let dir = std::env::temp_dir().join(format!("ratel-obs-conf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ratel_repro::obs::set_postmortem_dir(&dir);

    let model = GptConfig::tiny();
    let mut engine = build(Vec::new());
    let (tokens, targets) = random_batch(&model, 7);
    engine.train_step(&tokens, &targets).unwrap();

    // The SSD "loses" one optimizer-state blob for good.
    let lost = BlobKey::shared(BlobKind::Moments, 0);
    let plan = std::sync::Arc::new(FaultPlan::new());
    plan.fault_on_key(&lost, FaultKind::Permanent);
    engine.store().set_fault_plan(Some(plan));
    let err = engine.train_step(&tokens, &targets).unwrap_err();
    let msg = err.to_string();

    let path = ratel_repro::obs::last_postmortem().expect("step failure dumps a postmortem");
    assert!(path.starts_with(&dir), "dump landed at {}", path.display());
    assert!(ratel_repro::obs::looks_like_postmortem(&path));
    let dump = std::fs::read_to_string(&path).unwrap();
    assert!(
        dump.contains("\"reason\":\"train step failed\""),
        "dump header lacks the failure reason"
    );
    assert!(
        dump.contains("\"kind\":\"retry\"") && dump.contains(&format!("\"label\":\"{lost}\"")),
        "dump does not show the failing blob's retries"
    );
    assert!(
        dump.contains("\"kind\":\"give_up\""),
        "dump does not show the give-up"
    );
    assert!(
        dump.contains("\"kind\":\"error\""),
        "dump does not show the surfaced step error"
    );
    assert!(
        msg.contains(&lost.to_string()),
        "error does not name the blob: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
