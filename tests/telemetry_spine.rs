//! The telemetry spine: one typed span per executed task, recorded at
//! one site. Across the model zoo, 1/2/4 workers per pool and both
//! offload schedules, for a plain and an accumulated step:
//!
//! * every executed task of the step's one graph has exactly one span,
//!   keyed by its task id;
//! * the span's kind and layer are the task's identity in that graph,
//!   its track the graph's resource name, its label the graph's label;
//! * per pool, the spans add up to the executor's own `busy_seconds` —
//!   both are cut from the same two instants per task;
//! * the live conformance monitor (dependency rule included) is silent.

mod common;

use std::collections::HashSet;

use common::{config_with, zoo};
use ratel_repro::core::engine::conformance::ConformanceConfig;
use ratel_repro::core::engine::executor::POOL_CLASSES;
use ratel_repro::core::schedule::IterationSpec;
use ratel_repro::prelude::*;

/// Holds the step the engine just ran against the spine's contract: its
/// spans are those of the movement plan `spec` over as many micro-batches
/// as the telemetry says the step ran.
fn check_step(engine: &RatelEngine, stats: &StepStats, spec: &IterationSpec, what: &str) {
    assert!(
        engine.conformance_findings().is_empty(),
        "{what}: {:?}",
        engine.conformance_findings()
    );
    let telemetry = engine.last_step_telemetry().expect("telemetry is on");
    let tasks = stats.tasks.as_ref().expect("steps report tasks");
    let spec = IterationSpec {
        micro_batches: telemetry.micro_batches,
        ..spec.clone()
    };
    let graph = spec.build().0;

    let mut seen = HashSet::new();
    let mut pool_seconds = [0.0f64; POOL_CLASSES.len()];
    for span in &telemetry.spans {
        let Some(t) = span.task else { continue };
        assert!(seen.insert(t.task), "{what}: {t:?} spanned twice");
        let identity = graph
            .meta(t.task)
            .and_then(|m| m.identity)
            .expect("plan tasks are typed");
        assert_eq!((t.kind, t.layer), (identity.kind, identity.layer), "{what}");
        assert_eq!(span.kind, t.kind.span_kind(), "{what}");
        let resource = graph.resource(t.task);
        assert_eq!(span.track, graph.resource_name(resource), "{what}");
        assert_eq!(Some(span.label.as_str()), graph.label(t.task), "{what}");
        let class = graph.resource_class(resource).expect("classified");
        let pool = POOL_CLASSES.iter().position(|c| *c == class).unwrap();
        pool_seconds[pool] += span.seconds();
    }
    assert_eq!(
        seen.len() as u64,
        tasks.tasks_total,
        "{what}: one span per task"
    );
    assert_eq!(seen.len(), graph.len(), "{what}: every planned task ran");
    assert!(tasks.critical_path_seconds <= tasks.wall_seconds, "{what}");

    for (class, spanned) in POOL_CLASSES.iter().zip(pool_seconds) {
        let busy = tasks.pool(*class).map_or(0.0, |p| p.busy_seconds);
        assert!(
            (busy - spanned).abs() < 1e-6,
            "{what}: {} pool busy {busy:.9}s but its spans sum to {spanned:.9}s",
            class.name()
        );
    }
}

#[test]
fn every_executed_task_has_one_typed_span_that_agrees_with_the_executor() {
    for shape in zoo() {
        let model = shape.model;
        for workers in [1usize, 2, 4] {
            for offload in [
                GradOffloadMode::OptimizedActive,
                GradOffloadMode::SeparateStage,
            ] {
                let what = format!("{model:?}, {workers} workers, {offload:?}");
                let mut config = config_with(
                    &shape,
                    ExecutionOptions::Executor(ExecutorOptions {
                        workers_per_pool: workers,
                        offload,
                    }),
                );
                // A frozen block: a layer with no gradient to accumulate.
                config.frozen_layers = vec![1];
                let gpu_capacity = config.gpu_capacity;
                let mut engine = RatelEngine::new(config).unwrap();
                engine.enable_conformance(ConformanceConfig::default());
                let spec = engine.movement_spec().clone();

                let (tokens, targets) = random_batch(&model, 7);
                let stats = engine.train_step(&tokens, &targets).unwrap();
                check_step(&engine, &stats, &spec, &what);

                let micro: Vec<_> = (0..3).map(|s| random_batch(&model, 20 + s)).collect();
                let stats = engine.train_step_accumulated(&micro).unwrap();
                let micro_batches = engine.last_step_telemetry().unwrap().micro_batches;
                assert_eq!(micro_batches, 3, "{what}");
                let what = format!("{what}, accumulated");
                check_step(&engine, &stats, &spec, &what);
                assert_eq!(engine.total_findings(), 0, "{what}");
                if let Some(capacity) = gpu_capacity {
                    let peak = engine.store().peak_used(ratel_repro::storage::Tier::Gpu);
                    assert!(peak <= capacity, "{what}: arena peaked at {peak} B");
                }
            }
        }
    }
}
