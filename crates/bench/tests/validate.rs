//! Sim-vs-real validation: the engine's measured traffic and timing must
//! agree with the schedule the simulator predicts for the same
//! configuration (bytes exactly, times within a tolerance — see
//! `ratel_bench::validate`).

use ratel::schedule::Placement;
use ratel_bench::validate::{run, validate_model, EngineShape, ValidateConfig, ValidateReport};
use ratel_sim::chrome_trace_json_timelines;

#[test]
fn measured_step_agrees_with_the_simulated_schedule() {
    let report = agrees_with_the_simulated_schedule(EngineShape::default());
    assert_eq!(report.placement, Placement::HostMaster);
}

/// The same agreement over the chunked two-hop SSD swap chains, with
/// read-ahead paced by the bytes a 128 KiB arena has room for.
#[test]
fn ssd_swaps_under_a_bounded_arena_agree_with_the_simulated_schedule() {
    agrees_with_the_simulated_schedule(EngineShape {
        decisions: EngineShape::parse_decisions("ssd,host,recompute").unwrap(),
        gpu_capacity: Some(128 << 10),
        host_capacity: None,
    });
}

/// And under the smallest host pool the plan accepts: the paper's
/// all-SSD placement.
#[test]
fn the_all_ssd_placement_agrees_with_the_simulated_schedule() {
    let model = validate_model("tiny").unwrap();
    let shape = EngineShape::default().at_min_host_capacity(model).unwrap();
    let report = agrees_with_the_simulated_schedule(shape);
    assert_eq!(report.placement, Placement::Ssd);
}

fn agrees_with_the_simulated_schedule(shape: EngineShape) -> ValidateReport {
    let cfg = ValidateConfig {
        model: "tiny".into(),
        steps: 2,
        // ~4-6 MB/s route caps: slow enough that transfer time dominates
        // scheduling noise, fast enough for a quick test.
        throttle: 2e-4,
        tolerance: 1.0,
        out: None,
        shape,
    };
    let report = run(&cfg).expect("validation run");

    // Bytes: the spec plans exactly what the engine moves. Any drift is
    // a modelling bug, so this is equality, not a tolerance.
    assert_eq!(
        report.planned_bytes, report.measured_bytes,
        "planned per-route bytes must match the measured step exactly"
    );
    for (i, bytes) in report.measured_bytes.iter().enumerate() {
        assert!(*bytes > 0, "route {i} moved no bytes");
    }

    // Times: throttled transfers dominate, and the sim dispatches the
    // paced DAG at the engine's width, so the two agree within a few
    // percent in release builds. This is a debug build running its three
    // tests at once, where glue and contention for the cores put the
    // worst stage 10-59 % off (42 runs, median about 20 %) on a 2-core
    // machine.
    for stage in &report.stages {
        assert!(
            stage.relative_error() <= cfg.tolerance,
            "stage {} predicted {:.3}s vs measured {:.3}s ({:.0}% off)",
            stage.name,
            stage.predicted,
            stage.measured,
            100.0 * stage.relative_error()
        );
        assert!(stage.predicted > 0.0 && stage.measured > 0.0);
    }

    // The CLI's pass/fail summary must agree with the assertions above.
    assert!(
        report.failures(cfg.tolerance).is_empty(),
        "failures: {:?}",
        report.failures(cfg.tolerance)
    );
    assert!(
        !report.failures(0.0).is_empty(),
        "a zero tolerance must flag every imperfect stage prediction"
    );

    // Active offloading must hide some optimizer time behind backward.
    assert!(
        report.overlap_ratio > 0.0,
        "optimizer overlap ratio was {}, expected > 0 with active_offload",
        report.overlap_ratio
    );
    assert!(report.overlap_ratio <= 1.0 + 1e-9);

    // Throttled routes cannot beat their cap (modulo timestamp jitter).
    for (route, achieved, cap) in &report.bandwidth {
        if let Some(a) = achieved {
            assert!(
                *a <= cap * 1.05,
                "{route:?} achieved {a} B/s above its {cap} B/s throttle"
            );
        }
    }

    // One Chrome trace holds both timelines, named and separated by pid.
    let json = chrome_trace_json_timelines(&[
        report.sim_timeline.clone(),
        report.measured_timeline.clone(),
    ]);
    assert!(json.contains(r#""name":"simulated""#));
    assert!(json.contains(r#""name":"measured""#));
    assert!(json.contains(r#""pid":1"#));
    assert!(json.contains(r#""stage":"optimizer""#));
    report
}
