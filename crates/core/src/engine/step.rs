//! The step itself: one synchronous training step — over one
//! micro-batch or several — is the plan's DAG for that many micro-batches
//! dispatched once on the executor, then sealed — scaler and per-layer
//! clocks advanced, telemetry collected and held against the plan. An
//! eval or a decode call is its own DAG, dispatched once the same way
//! ([`RatelEngine::run_forward`]).

use std::sync::Arc;

use ratel_obs::EventKind;
use ratel_sim::SpanKind;
use ratel_storage::telemetry::{FaultStats, TelemetryRecorder};
use ratel_storage::TrafficSnapshot;

use super::dag_step::{Pick, StepCtx, StepDag, Training};
use super::telemetry::StepTelemetry;
use super::{conformance, executor, RatelEngine};
use crate::error::RatelError;

/// Where a run's measurements start: [`RatelEngine::begin_run`].
struct RunStart {
    t0: std::time::Instant,
    traffic: TrafficSnapshot,
    faults: FaultStats,
    telemetry: Option<(f64, [ratel_storage::RouteMetrics; 4])>,
}

/// Statistics of one engine training step.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Mean cross-entropy loss of the step.
    pub loss: f32,
    /// Bytes moved per route during the step.
    pub traffic: ratel_storage::TrafficSnapshot,
    /// Wall-clock seconds of the step.
    pub wall_seconds: f64,
    /// Loss scale applied to this step's backward pass.
    pub loss_scale: f32,
    /// Layers whose update was skipped because their (unscaled) gradient
    /// overflowed the f16 range.
    pub skipped_layers: usize,
    /// Robustness-counter deltas for the step (SSD retries/give-ups and
    /// host-pressure spills) — always collected, telemetry on or off.
    pub fault_stats: FaultStats,
    /// Per-task execution breakdown of the step's one DAG run — tasks
    /// and busy time per resource pool plus the measured critical path.
    /// Always `Some`; the `Option` is kept for source compatibility.
    pub tasks: Option<executor::TaskBreakdown>,
}

impl RatelEngine {
    /// Runs one full training step (forward, backward with swapped or
    /// recomputed activations, actively offloaded synchronous optimizer).
    ///
    /// `tokens`/`targets` are `batch * seq` ids, sequence-major.
    pub fn train_step(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
    ) -> Result<StepStats, RatelError> {
        let result = self.run_step(&[(tokens, targets)]);
        self.seal_step(result)
    }

    /// Runs one training step over several micro-batches with gradient
    /// accumulation, as one DAG: each micro-batch's G16 gradients land in
    /// host memory and are summed into f32 accumulators there; only after
    /// the final micro-batch does the (averaged, re-rounded) gradient
    /// reach the optimizer, whose handlers then overlap the final
    /// backward's tail. One micro-batch is a plain step.
    ///
    /// Semantics (mirrored exactly by
    /// [`ReferenceTrainer::train_step_accumulated`][reference]): per-layer
    /// gradient = `f16( mean_i( f16(g_i) ) )`; the reported loss is the
    /// mean micro-batch loss.
    ///
    /// [reference]: super::reference::ReferenceTrainer::train_step_accumulated
    ///
    /// # Errors
    /// [`RatelError::InvalidBatch`] when `micro_batches` is empty.
    pub fn train_step_accumulated(
        &mut self,
        micro_batches: &[(Vec<usize>, Vec<usize>)],
    ) -> Result<StepStats, RatelError> {
        if micro_batches.is_empty() {
            return Err(RatelError::InvalidBatch(
                "need at least one micro-batch".into(),
            ));
        }
        let batches: Vec<(&[usize], &[usize])> = (micro_batches.iter())
            .map(|(tokens, targets)| (&tokens[..], &targets[..]))
            .collect();
        let result = self.run_step(&batches);
        self.seal_step(result)
    }

    /// One synchronous step over `batches`, one `(tokens, targets)` per
    /// micro-batch: the plan's DAG for that many dispatched once. A run
    /// that fails leaves the tiers as they were before it.
    fn run_step(&mut self, batches: &[(&[usize], &[usize])]) -> Result<StepStats, RatelError> {
        let run = self.begin_run(true);
        self.step += 1;
        ratel_obs::flight().record(EventKind::StepBegin, 0, "step", 0, self.step);
        let scale = self.scaler.current();
        let dag = self.plan.dag(batches.len())?;
        // The LR schedule runs on the wall-step clock (0-based).
        let mut adam = self.config.adam;
        adam.lr *= self.config.lr_schedule.factor(self.step - 1);
        let training = Training {
            scale,
            step_seed: self.dropout_step_seed(),
            adam,
            layer_steps: &self.layer_steps,
        };
        let ctx = StepCtx::new(
            &self.store,
            &self.config,
            &dag,
            &mut self.scratch,
            batches,
            Some(training),
            None,
        );
        let tasks = dag.run(&ctx, self.config.execution.executor().workers_per_pool)?;
        let (loss, skipped, _) = ctx.into_outcome();

        // Seal the step: every layer's update has been written back.
        let rec = Arc::clone(self.store.telemetry());
        let t_scaler = rec.enabled().then(|| rec.now());
        self.scaler.update(!skipped.is_empty());
        // A layer's Adam clock advances when its update was applied: the
        // plan moved a gradient for it and the gradient did not overflow.
        for (layer, task) in self.plan.step.spec.layers.iter().enumerate() {
            if task.grad_bytes > 0.0 && !skipped.contains(&layer) {
                self.layer_steps[layer] += 1;
            }
        }
        if let Some(t) = t_scaler {
            let label = if skipped.is_empty() {
                format!("scaler ok (scale {scale})")
            } else {
                format!("scaler overflow ({} skipped)", skipped.len())
            };
            rec.record_span("engine", SpanKind::Other, None, label, t, rec.now());
        }
        self.last_findings.clear();
        let (traffic, fault_stats, wall_seconds, collected) = self.end_run(run, &dag);
        if collected.is_some() {
            self.last_telemetry = collected;
        }
        ratel_obs::flight().record(EventKind::StepEnd, 0, "step", traffic.total(), self.step);
        Ok(StepStats {
            loss,
            traffic,
            wall_seconds,
            loss_scale: scale,
            skipped_layers: skipped.len(),
            fault_stats,
            tasks: Some(tasks),
        })
    }

    /// Runs an eval over `batches`, or one run of a decode call that
    /// continues `decode`'s tokens, as `dag`, dispatched once like a
    /// step. With conformance on, what the run recorded is held against
    /// `dag`. Returns the loss, and a decode call's tokens.
    pub(super) fn run_forward(
        &mut self,
        dag: &StepDag,
        batches: &[(&[usize], &[usize])],
        decode: Option<(Vec<usize>, Pick<'_>)>,
    ) -> Result<(f32, Vec<usize>), RatelError> {
        let run = self.begin_run(self.conformance.is_some());
        // The pick is held no longer than the run.
        let decode = decode.map(|(tokens, pick)| (tokens, pick as Pick));
        let ctx = StepCtx::new(
            &self.store,
            &self.config,
            dag,
            &mut self.scratch,
            batches,
            None,
            decode,
        );
        dag.run(&ctx, self.config.execution.executor().workers_per_pool)?;
        let (loss, _, tokens) = ctx.into_outcome();
        self.end_run(run, dag);
        Ok((loss, tokens))
    }

    /// What a run is measured from: its clock, the traffic and fault
    /// counters and — when `recorded` and telemetry is on, its spans
    /// drained — where its telemetry starts.
    fn begin_run(&self, recorded: bool) -> RunStart {
        let rec = self.store.telemetry();
        RunStart {
            t0: std::time::Instant::now(),
            traffic: self.store.traffic(),
            faults: rec.fault_stats(),
            telemetry: (recorded && rec.enabled()).then(|| {
                rec.drain_spans();
                (rec.now(), rec.route_metrics())
            }),
        }
    }

    /// Ends a run of `dag` begun at `start`: its traffic, fault counters
    /// and wall seconds, and what it recorded, held against `dag` when
    /// conformance is on — each finding counted, added to
    /// [`RatelEngine::conformance_findings`] and flight-recorded as a
    /// `Drift` event. A run that recorded nothing is not checked.
    fn end_run(
        &mut self,
        start: RunStart,
        dag: &StepDag,
    ) -> (TrafficSnapshot, FaultStats, f64, Option<StepTelemetry>) {
        let rec = self.store.telemetry();
        let traffic = self.store.traffic().since(&start.traffic);
        let faults = rec.fault_stats().since(&start.faults);
        let wall_seconds = start.t0.elapsed().as_secs_f64();
        let collected = start.telemetry.map(|(at, metrics)| {
            let n = dag.spec.micro_batches;
            StepTelemetry::collect(rec, traffic, n, at, wall_seconds, &metrics, faults)
        });
        if let (Some(monitor), Some(t)) = (&self.conformance, &collected) {
            let findings = monitor.check_dag(Some(dag), t);
            for f in &findings {
                let code = f.kind.index() as u8;
                let measured = f.measured.unwrap_or(0);
                ratel_obs::flight().record(EventKind::Drift, code, &f.detail, measured, self.step);
            }
            self.total_findings += findings.len() as u64;
            self.last_findings.extend(findings);
        }
        (traffic, faults, wall_seconds, collected)
    }

    /// Flight-records the step outcome: an `Error` event plus a
    /// postmortem dump when the step failed (the ring's tail then holds
    /// the failing transfer and its retries), pass-through otherwise.
    fn seal_step(&self, result: Result<StepStats, RatelError>) -> Result<StepStats, RatelError> {
        if let Err(e) = &result {
            ratel_obs::flight().record(EventKind::Error, 0, e, 0, self.step);
            ratel_obs::dump_postmortem("train step failed");
        }
        result
    }

    /// The dropout step-seed for the current (1-based) wall step.
    fn dropout_step_seed(&self) -> u64 {
        self.config.seed ^ self.step.wrapping_mul(0x517C_C1B7_2722_0A95)
    }

    /// Turns span/metrics recording on. Subsequent `train_step` calls
    /// populate [`RatelEngine::last_step_telemetry`]; every store
    /// transfer and engine stage is timestamped while enabled.
    pub fn enable_telemetry(&self) {
        self.store.telemetry().set_enabled(true);
    }

    /// The shared telemetry recorder (owned by the store; disabled until
    /// [`RatelEngine::enable_telemetry`]).
    pub fn telemetry(&self) -> &Arc<TelemetryRecorder> {
        self.store.telemetry()
    }

    /// The most recent instrumented step's telemetry: spans, per-route
    /// metrics, stage breakdown, overlap ratio. `None` until a step runs
    /// with telemetry enabled.
    pub fn last_step_telemetry(&self) -> Option<&StepTelemetry> {
        self.last_telemetry.as_ref()
    }

    /// Turns live plan-conformance monitoring on (enabling telemetry,
    /// which it needs): after every subsequent step, eval and decode call
    /// the drained spans and traffic are held against the DAG it ran,
    /// and any divergence lands in [`RatelEngine::conformance_findings`],
    /// the flight recorder (as `Drift` events), and the cumulative
    /// [`RatelEngine::total_findings`] count.
    pub fn enable_conformance(&mut self, config: conformance::ConformanceConfig) {
        self.enable_telemetry();
        self.conformance = Some(self.conformance_monitor(config));
    }

    /// A conformance monitor over this engine's plan: it shares the DAGs
    /// the engine dispatches and their byte ledgers, so what it checks a
    /// step's telemetry against is what ran.
    pub fn conformance_monitor(
        &self,
        config: conformance::ConformanceConfig,
    ) -> conformance::ConformanceMonitor {
        conformance::ConformanceMonitor::new(Arc::clone(&self.plan), config)
    }

    /// Findings of the most recent step, eval or decode call (empty when
    /// it conformed, when it recorded no telemetry to check, or
    /// monitoring is off).
    pub fn conformance_findings(&self) -> &[conformance::Finding] {
        &self.last_findings
    }

    /// Cumulative conformance findings across all checked runs.
    pub fn total_findings(&self) -> u64 {
        self.total_findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::data::{learnable_batch, random_batch};
    use crate::engine::reference::ReferenceTrainer;
    use crate::engine::{ActDecision, EngineConfig, ExecutionOptions, ExecutorOptions};
    use ratel_storage::{Route, Tier};

    fn assert_bitwise_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x == y,
                "{what}: element {i} differs: {x} vs {y} (diff {})",
                (x - y).abs()
            );
        }
    }

    /// Under both placements — every master host-resident (no host
    /// capacity) and the paper's (one) — the engine equals the in-memory
    /// reference bit for bit.
    fn run_equivalence(config: EngineConfig, steps: usize) {
        for host_capacity in [None, ROOMY] {
            let config = EngineConfig {
                host_capacity,
                ..config.clone()
            };
            run_equivalence_placed(config, steps);
        }
    }

    /// A host pool that bounds nothing a step holds, yet is one: the
    /// paper's all-SSD placement.
    const ROOMY: Option<u64> = Some(1 << 30);

    fn run_equivalence_placed(config: EngineConfig, steps: usize) {
        let model = config.model;
        let seed = config.seed;
        let adam = config.adam;
        let mut engine = RatelEngine::new(config).unwrap();
        let mut reference = ReferenceTrainer::new(model, seed, adam);
        for s in 0..steps {
            let (tokens, targets) = random_batch(&model, 100 + s as u64);
            let stats = engine.train_step(&tokens, &targets).unwrap();
            let ref_loss = reference.train_step(&tokens, &targets);
            assert!(
                stats.loss == ref_loss,
                "step {s}: loss diverged: engine {} vs reference {ref_loss}",
                stats.loss
            );
        }
        for layer in 0..engine.layer_count() {
            let e = engine.master_params(layer).unwrap();
            assert_bitwise_close(&e, reference.master_params(layer), "master");
            let p = engine.p16_params(layer).unwrap();
            assert_bitwise_close(&p, &reference.p16_params(layer), "p16");
        }
    }

    #[test]
    fn offloaded_training_is_bitwise_identical_to_in_memory() {
        // The headline correctness claim: active gradient offloading with
        // everything swapped keeps training fully synchronous.
        run_equivalence(EngineConfig::tiny(), 3);
    }

    #[test]
    fn recompute_decisions_do_not_change_the_math() {
        let mut config = EngineConfig::tiny();
        config.act_decisions = vec![
            ActDecision::Recompute,
            ActDecision::SwapToSsd,
            ActDecision::Recompute,
        ];
        run_equivalence(config, 3);
    }

    #[test]
    fn separate_stage_optimizer_gives_the_same_result() {
        let mut config = EngineConfig::tiny();
        config.execution = ExecutionOptions::Executor(ExecutorOptions {
            offload: crate::offload::GradOffloadMode::SeparateStage,
            ..ExecutorOptions::default()
        });
        run_equivalence(config, 2);
    }

    #[test]
    fn executor_steps_report_a_task_breakdown() {
        use ratel_sim::meta::ResourceClass;
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = random_batch(&model, 21);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        let tasks = stats.tasks.as_ref().expect("executor attaches breakdown");
        assert_eq!(tasks.tasks_total, engine.plan.step.graph.len() as u64);
        // Every resource class of the plan ran work.
        for class in [
            ResourceClass::GpuCompute,
            ResourceClass::CpuCompute,
            ResourceClass::PcieG2M,
            ResourceClass::PcieM2G,
            ResourceClass::SsdArray,
        ] {
            assert!(
                tasks.pool(class).is_some_and(|p| p.tasks > 0),
                "{class:?} pool idle"
            );
        }
        assert!(tasks.busy_seconds_total() > 0.0);
        assert!(tasks.critical_path_seconds <= tasks.busy_seconds_total() + 1e-9);
    }

    #[test]
    fn accumulated_steps_run_through_the_executor_and_drain_the_tiers() {
        // A frozen layer has no gradient, so no accumulator either.
        let mut config = EngineConfig::tiny();
        config.frozen_layers = vec![1];
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let micro: Vec<_> = (0..3).map(|s| random_batch(&model, 30 + s)).collect();
        let stats = engine.train_step_accumulated(&micro).unwrap();
        let tasks = stats
            .tasks
            .as_ref()
            .expect("accumulated steps report tasks");
        // One run of the one graph of three micro-batches.
        let dag = engine.plan.dag(3).unwrap();
        assert_eq!(tasks.tasks_total, dag.graph.len() as u64);
        assert!(tasks.critical_path_seconds <= tasks.wall_seconds);
        assert_eq!(engine.store().used(Tier::Gpu), 0);
        assert_eq!(engine.store().used(Tier::Host), engine.host_state_bytes());
    }

    #[test]
    fn an_empty_accumulated_step_is_rejected_not_panicked() {
        let mut engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let err = engine.train_step_accumulated(&[]).unwrap_err();
        assert!(matches!(err, RatelError::InvalidBatch(_)), "{err}");
        assert_eq!(engine.steps_run(), 0, "a rejected call is not a step");
    }

    #[test]
    fn ssd_swapped_activations_generate_ssd_traffic() {
        let mut config = EngineConfig::tiny();
        config.act_decisions = vec![ActDecision::SwapToSsd; config.model.layers];
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = random_batch(&model, 1);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        // Each block's A16 blob goes host->ssd and comes back.
        let h2s = stats.traffic.bytes(Route::HostToSsd);
        let s2h = stats.traffic.bytes(Route::SsdToHost);
        assert!(h2s > 0 && s2h > 0);

        let mut host_only = EngineConfig::tiny();
        host_only.act_decisions = vec![ActDecision::SwapToHost; host_only.model.layers];
        let mut engine2 = RatelEngine::new(host_only).unwrap();
        let stats2 = engine2.train_step(&tokens, &targets).unwrap();
        assert!(
            stats.traffic.bytes(Route::HostToSsd) > stats2.traffic.bytes(Route::HostToSsd),
            "SSD swapping must add SSD writes"
        );
        // But the GPU<->host traffic of the swap itself is the same.
        assert_eq!(
            stats.traffic.bytes(Route::GpuToHost),
            stats2.traffic.bytes(Route::GpuToHost)
        );
    }

    #[test]
    fn recompute_reduces_offload_traffic() {
        let swap = {
            let mut c = EngineConfig::tiny();
            c.act_decisions = vec![ActDecision::SwapToHost; c.model.layers];
            c
        };
        let rec = {
            let mut c = EngineConfig::tiny();
            c.act_decisions = vec![ActDecision::Recompute; c.model.layers];
            c
        };
        let model = swap.model;
        let (tokens, targets) = random_batch(&model, 2);
        let mut e1 = RatelEngine::new(swap).unwrap();
        let mut e2 = RatelEngine::new(rec).unwrap();
        let t1 = e1.train_step(&tokens, &targets).unwrap().traffic;
        let t2 = e2.train_step(&tokens, &targets).unwrap().traffic;
        assert!(
            t2.bytes(Route::GpuToHost) < t1.bytes(Route::GpuToHost),
            "recompute should shrink G2M traffic: {} vs {}",
            t2.bytes(Route::GpuToHost),
            t1.bytes(Route::GpuToHost)
        );
    }

    #[test]
    fn state_traffic_matches_the_placement_inventory() {
        let config = EngineConfig::tiny();
        let model = config.model;
        let layers = model.layers + 2;
        let (tokens, targets) = random_batch(&model, 3);
        let step_traffic = |host_capacity: Option<u64>| {
            let config = EngineConfig {
                host_capacity,
                ..config.clone()
            };
            let mut engine = RatelEngine::new(config).unwrap();
            let planned = engine.movement_spec().planned_route_bytes();
            let traffic = engine.train_step(&tokens, &targets).unwrap().traffic;
            assert_eq!(Route::ALL.map(|r| traffic.bytes(r)), planned);
            (traffic, engine)
        };
        let (paper, engine) = step_traffic(ROOMY);
        let params = engine.total_params() as u64;
        // The head is staged once (its forward and backward are adjacent
        // at the loss); every other layer is staged twice.
        let head_params = engine.layer_param_count(layers - 1) as u64;
        let p16_stages = (2 * params - head_params) * 2;
        // The paper's placement: per step the SSD tier serves P16 forward
        // (2 bytes/param) + P16 backward (2) + P32+OS32 reads (12), and
        // absorbs P32+OS32+P16 writes (14).
        assert_eq!(paper.bytes(Route::SsdToHost), params * 12 + p16_stages);
        assert_eq!(paper.bytes(Route::HostToSsd), params * 14);
        // Every master host-resident: the moments (8) each way, nothing
        // else; the arena receives the same P16 bytes either way.
        let (resident, _) = step_traffic(None);
        assert_eq!(resident.bytes(Route::SsdToHost), params * 8);
        assert_eq!(resident.bytes(Route::HostToSsd), params * 8);
        for route in [Route::HostToGpu, Route::GpuToHost] {
            assert_eq!(resident.bytes(route), paper.bytes(route), "{route:?}");
        }
    }

    #[test]
    fn step_stats_traffic_is_a_per_step_delta() {
        // Regression: StepStats.traffic must be a per-step delta taken
        // against a start-of-step snapshot, not a cumulative counter —
        // two identical steps report identical per-route byte counts.
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = random_batch(&model, 7);
        let first = engine.train_step(&tokens, &targets).unwrap().traffic;
        let second = engine.train_step(&tokens, &targets).unwrap().traffic;
        for route in Route::ALL {
            assert!(first.bytes(route) > 0, "{route:?} should move bytes");
            assert_eq!(
                first.bytes(route),
                second.bytes(route),
                "{route:?}: identical steps must report identical deltas"
            );
        }
        // The store's cumulative counters keep growing underneath.
        for route in Route::ALL {
            assert_eq!(engine.traffic_bytes(route), 2 * first.bytes(route));
        }
    }

    #[test]
    fn telemetry_captures_spans_and_optimizer_overlap() {
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        engine.enable_telemetry();
        let (tokens, targets) = random_batch(&model, 11);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        let t = engine.last_step_telemetry().expect("telemetry collected");
        assert!(!t.spans.is_empty());
        // Task spans sit on the graph's own resource rows, the scaler
        // on "engine", transfers on their route.
        let graph = &engine.plan.step.graph;
        let task_tracks: std::collections::BTreeSet<&str> = t
            .spans
            .iter()
            .filter(|s| s.task.is_some())
            .map(|s| s.track.as_str())
            .collect();
        let resources: std::collections::BTreeSet<&str> = graph
            .task_ids()
            .map(|id| graph.resource_name(graph.resource(id)))
            .collect();
        assert_eq!(task_tracks, resources);
        assert!(resources.contains("gpu0") && resources.contains("ssd"));
        assert!(t.spans.iter().any(|s| s.track == "engine"));
        // Telemetry's traffic snapshot is the same delta StepStats got.
        for route in Route::ALL {
            assert_eq!(t.traffic.bytes(route), stats.traffic.bytes(route));
        }
        let b = t.stage_breakdown();
        assert!(b.forward > 0.0 && b.backward > 0.0 && b.optimizer > 0.0);
        assert!(b.transfer > 0.0, "store transfers must be spanned");
        // Whether optimizer work actually hides behind backward is a
        // timing property, asserted under throttled links in
        // tests/overlap_timing.rs; here the ratio only has to be sane.
        let overlap = t.optimizer_overlap_ratio();
        assert!((0.0..=1.0 + 1e-9).contains(&overlap), "{overlap}");
        // The timeline view carries every span, rebased to step start.
        let tl = t.timeline("measured");
        assert_eq!(tl.spans.len(), t.spans.len());
        assert!(tl.spans.iter().all(|s| s.start >= -1e-9));
        let with_task = tl.spans.iter().filter(|s| s.task.is_some()).count();
        assert_eq!(with_task, graph.len());
    }

    #[test]
    fn loss_decreases_on_learnable_data() {
        let mut config = EngineConfig::tiny();
        config.adam.lr = 3e-3;
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = learnable_batch(&model, 5);
        let first = engine.train_step(&tokens, &targets).unwrap().loss;
        let mut last = first;
        for _ in 0..30 {
            last = engine.train_step(&tokens, &targets).unwrap().loss;
        }
        assert!(
            last < first * 0.7,
            "loss did not fall enough: {first} -> {last}"
        );
    }
}
