//! Bridge from the engine's internal counters into the unified
//! [`ratel_obs`] metrics registry.
//!
//! The engine's subsystems each keep their own counters — the store's
//! [`TrafficMeter`](ratel_storage::TieredStore::traffic) and
//! always-on [`FaultStats`](ratel_storage::telemetry::FaultStats), the
//! telemetry recorder's per-route [`RouteMetrics`] with latency
//! histograms, the tensor crate's scratch-arena and kernel thread-pool
//! counters, the flight recorder's cursor. [`publish_engine_metrics`]
//! snapshots all of them into one registry under the `ratel_` namespace,
//! from which one call renders the Prometheus text exposition or JSONL
//! (`ratel-bench obs` does both). Cumulative sources set counter totals,
//! so publishing is idempotent — call it whenever a scrape is due.

use ratel_obs::Registry;
use ratel_storage::Route;

use super::RatelEngine;

/// Snapshots every engine subsystem's counters into `registry`.
///
/// Safe to call repeatedly: cumulative values overwrite (counters track
/// the source's monotone totals), gauges reflect the moment of the call.
pub fn publish_engine_metrics(engine: &RatelEngine, registry: &Registry) {
    let rec = engine.telemetry();

    // Inter-tier traffic: the store's cumulative byte meter.
    for route in Route::ALL {
        registry
            .counter_with(
                "ratel_route_bytes_total",
                "Cumulative bytes moved per inter-tier route",
                &[("route", route.name())],
            )
            .set_total(engine.traffic_bytes(route));
    }

    // Per-route transfer metrics (populated while telemetry is enabled):
    // op/byte/second totals plus latency percentiles from the
    // power-of-two histograms.
    let metrics = rec.route_metrics();
    for route in Route::ALL {
        let m = &metrics[route.index()];
        let labels = [("route", route.name())];
        registry
            .counter_with(
                "ratel_transfer_ops_total",
                "Instrumented transfer operations per route",
                &labels,
            )
            .set_total(m.ops);
        registry
            .counter_with(
                "ratel_transfer_bytes_total",
                "Bytes moved by instrumented transfers per route",
                &labels,
            )
            .set_total(m.bytes);
        registry
            .gauge_with(
                "ratel_transfer_seconds",
                "Seconds spent in instrumented transfers per route",
                &labels,
            )
            .set(m.seconds);
        for (q, tag) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
            registry
                .gauge_with(
                    "ratel_transfer_latency_seconds",
                    "Transfer latency quantile upper bound per route",
                    &[("route", route.name()), ("quantile", tag)],
                )
                .set(m.histogram.quantile_upper_bound(q));
        }
    }

    // Robustness counters: always on, even with telemetry disabled.
    let faults = rec.fault_stats();
    registry
        .counter(
            "ratel_ssd_retries_total",
            "SSD operations that failed and were re-issued",
        )
        .set_total(faults.retries);
    registry
        .counter(
            "ratel_ssd_give_ups_total",
            "SSD operations that exhausted their retry budget",
        )
        .set_total(faults.give_ups);
    registry
        .counter(
            "ratel_dropped_spans_total",
            "Telemetry spans evicted by the bounded span ring",
        )
        .set_total(rec.dropped_spans());

    // Tensor-kernel substrate: scratch-arena reuse (this thread's pool)
    // and thread-pool dispatch fan-out.
    let scratch = ratel_tensor::scratch_stats();
    registry
        .gauge(
            "ratel_scratch_checkouts",
            "Scratch-arena buffer checkouts on the publishing thread",
        )
        .set(scratch.checkouts as f64);
    registry
        .gauge(
            "ratel_scratch_misses",
            "Scratch checkouts that had to allocate (steady state: flat)",
        )
        .set(scratch.misses as f64);
    let (spawned, inline) = ratel_tensor::parallel_stats();
    registry
        .counter_with(
            "ratel_kernel_dispatches_total",
            "Parallel kernel dispatches by execution mode",
            &[("mode", "spawned")],
        )
        .set_total(spawned);
    registry
        .counter_with(
            "ratel_kernel_dispatches_total",
            "Parallel kernel dispatches by execution mode",
            &[("mode", "inline")],
        )
        .set_total(inline);

    // Flight recorder occupancy.
    let flight = ratel_obs::flight();
    registry
        .counter(
            "ratel_flight_events_total",
            "Events written to the flight-recorder ring since start",
        )
        .set_total(flight.recorded());
    registry
        .gauge(
            "ratel_flight_capacity",
            "Flight-recorder ring capacity in events",
        )
        .set(flight.capacity() as f64);

    // Engine-level step state.
    registry
        .counter("ratel_steps_total", "Training steps run by this engine")
        .set_total(engine.steps_run());
    if let Some(t) = engine.last_step_telemetry() {
        registry
            .gauge(
                "ratel_step_wall_seconds",
                "Wall-clock duration of the most recent instrumented step",
            )
            .set(t.wall_seconds);
        registry
            .gauge(
                "ratel_optimizer_overlap_ratio",
                "Share of optimizer time hidden under backward (last step)",
            )
            .set(t.optimizer_overlap_ratio());
        let histogram = registry.histogram(
            "ratel_step_seconds",
            "Distribution of instrumented step wall times",
        );
        histogram.record(t.wall_seconds);
    }
    registry
        .counter(
            "ratel_conformance_findings_total",
            "Plan-conformance findings across instrumented steps",
        )
        .set_total(engine.total_findings());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::data::random_batch;
    use crate::engine::EngineConfig;
    use ratel_obs::metrics::validate_prometheus;

    #[test]
    fn published_metrics_pass_the_exposition_self_check() {
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        engine.enable_telemetry();
        let (tokens, targets) = random_batch(&model, 7);
        engine.train_step(&tokens, &targets).unwrap();

        let registry = Registry::default();
        publish_engine_metrics(&engine, &registry);
        let text = registry.prometheus_text();
        let samples = validate_prometheus(&text).expect("exposition is well-formed");
        assert!(samples > 10, "expected a real metric surface: {text}");
        assert!(text.contains("ratel_route_bytes_total{route=\"gpu->host\"}"));
        assert!(text.contains("ratel_steps_total 1"));
    }
}
