//! `repro` / `ratel-bench`: regenerates the Ratel paper's tables and
//! figures, and exports simulator timelines.
//!
//! Usage: `repro <figure-id>... | all | list | trace [options]`. Figure
//! output goes to stdout and, as CSV, to `./results/`; `trace` prints an
//! ASCII timeline with utilization/bubble analysis and can write Chrome
//! trace-event JSON (`--out trace.json`) for `chrome://tracing`/Perfetto.

use std::path::Path;

use ratel_bench::figs;
use ratel_bench::figs::trace::{parse_mode, render_report, TraceConfig};

const TRACE_USAGE: &str = "usage: ratel-bench trace [--model 13B] [--batch 32] \
[--mode optimized|naive|separate] [--gpus 1] [--iters 1] [--width 100] [--out trace.json]";

const VALIDATE_USAGE: &str = "usage: ratel-bench validate [--model tiny|small] [--steps 1] \
[--throttle 1e-4] [--tolerance 0.5] [--decisions ssd,host,recompute] [--gpu-capacity BYTES] \
[--host-capacity BYTES|min] [--out validate.json]";

const FAULTS_USAGE: &str = "usage: ratel-bench faults [--model tiny|small] [--steps 10] \
[--faults 5] [--seed 7]";

const VERIFY_PLANS_USAGE: &str = "usage: ratel-bench verify-plans [--model 13B|tiny|small] \
[--iters 2] [--out verify.json]";

const BENCH_USAGE: &str =
    "usage: ratel-bench bench [--smoke] [--check] [--suite attention|kernels|adam|ssd]";

const OBS_USAGE: &str = "usage: ratel-bench obs [--model tiny|small] [--steps 5] \
[--throttle 1e-4] [--decisions ssd,host,recompute] [--gpu-capacity BYTES] \
[--host-capacity BYTES|min] [--metrics-out metrics.prom] [--jsonl-out metrics.jsonl] \
[--trace-out trace.json]";

/// Applies `--decisions` (cycled over the blocks), `--gpu-capacity` or
/// `--host-capacity` to the engine `validate` and `obs` build;
/// `Ok(false)` for any other flag.
fn engine_shape_flag(
    shape: &mut ratel_bench::validate::EngineShape,
    flag: &str,
    v: &str,
) -> Result<bool, String> {
    match flag {
        "--decisions" => {
            shape.decisions = ratel_bench::validate::EngineShape::parse_decisions(v)?;
        }
        "--gpu-capacity" | "--host-capacity" => {
            let bytes = v
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a size in bytes, got {v:?}"))?;
            match flag {
                "--gpu-capacity" => shape.gpu_capacity = Some(bytes),
                _ => shape.host_capacity = Some(bytes),
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// `--host-capacity min`: `shape` under the smallest host pool the plan
/// accepts for it on `model`.
fn at_min_host_capacity(
    model: &str,
    shape: &ratel_bench::validate::EngineShape,
) -> Result<ratel_bench::validate::EngineShape, String> {
    let model = ratel_bench::validate::validate_model(model)
        .ok_or_else(|| format!("unknown model {model:?} (tiny|small)"))?;
    shape.clone().at_min_host_capacity(model)
}

fn obs_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = ratel_bench::obs::ObsConfig::default();
    let mut host_min = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "help" {
            return Err(OBS_USAGE.to_string());
        }
        let v = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{OBS_USAGE}"))?;
        match flag {
            "--model" => {
                if ratel_bench::validate::validate_model(v).is_none() {
                    return Err(format!("unknown model {v:?} (tiny|small)"));
                }
                cfg.model = v.clone();
            }
            "--steps" => {
                cfg.steps = v
                    .parse::<usize>()
                    .map_err(|_| format!("--steps expects a positive integer, got {v:?}"))?
                    .max(1)
            }
            "--throttle" => {
                cfg.throttle =
                    Some(v.parse::<f64>().ok().filter(|t| *t > 0.0).ok_or_else(|| {
                        format!("--throttle expects a positive number, got {v:?}")
                    })?)
            }
            "--metrics-out" => cfg.metrics_out = Some(v.clone()),
            "--jsonl-out" => cfg.jsonl_out = Some(v.clone()),
            "--trace-out" => cfg.trace_out = Some(v.clone()),
            "--host-capacity" if v == "min" => host_min = true,
            _ if engine_shape_flag(&mut cfg.shape, flag, v)? => {}
            _ => return Err(format!("unknown flag {flag:?}\n{OBS_USAGE}")),
        }
        i += 2;
    }
    if host_min {
        cfg.shape = at_min_host_capacity(&cfg.model, &cfg.shape)?;
    }
    let report = ratel_bench::obs::run(&cfg)?;
    print!("{}", ratel_bench::obs::render(&cfg, &report));
    for (name, path) in [
        ("metrics", &cfg.metrics_out),
        ("jsonl", &cfg.jsonl_out),
        ("trace", &cfg.trace_out),
    ] {
        if let Some(path) = path {
            println!("wrote {name} to {path}");
        }
    }
    let failures = report.failures();
    if !failures.is_empty() {
        return Err(format!(
            "plan-conformance drift:\n  {}",
            failures.join("\n  ")
        ));
    }
    Ok(())
}

fn bench_cmd(args: &[String]) -> Result<(), String> {
    use ratel_bench::perf;

    let mut smoke = false;
    let mut check = false;
    let mut suites: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "help" => return Err(BENCH_USAGE.to_string()),
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--suite" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--suite needs a value\n{BENCH_USAGE}"))?;
                if !perf::SUITES.contains(&v.as_str()) {
                    return Err(format!("unknown suite {v:?} ({})", perf::SUITES.join("|")));
                }
                suites.push(v.clone());
                i += 2;
            }
            flag => return Err(format!("unknown flag {flag:?}\n{BENCH_USAGE}")),
        }
    }
    if suites.is_empty() {
        suites = perf::SUITES.iter().map(|s| s.to_string()).collect();
    }
    let mut failures = Vec::new();
    for suite in &suites {
        let result = perf::run_suite(suite, smoke)?;
        print!("{}", perf::render(&result));
        if check {
            failures.extend(perf::check_confirmed(&result, || {
                println!("suite {suite}: possible regression, re-running to confirm");
                let retry = perf::run_suite(suite, smoke)?;
                print!("{}", perf::render(&retry));
                Ok(retry)
            })?);
        }
    }
    if !failures.is_empty() {
        let lines: Vec<String> = failures.into_iter().map(|(_, message)| message).collect();
        return Err(format!(
            "perf gate failed twice in a row:\n  {}",
            lines.join("\n  ")
        ));
    }
    if check {
        println!("perf check ok: every allocs entry reads its expected count, every gated ratio is over its floor");
    }
    Ok(())
}

fn verify_plans_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = ratel_bench::verify_plans::VerifyPlansConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "help" {
            return Err(VERIFY_PLANS_USAGE.to_string());
        }
        let v = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{VERIFY_PLANS_USAGE}"))?;
        match flag {
            "--model" => cfg.model = Some(v.clone()),
            "--iters" => {
                cfg.iterations = v
                    .parse::<usize>()
                    .map_err(|_| format!("--iters expects a positive integer, got {v:?}"))?
                    .max(1)
            }
            "--out" => cfg.out = Some(v.clone()),
            _ => return Err(format!("unknown flag {flag:?}\n{VERIFY_PLANS_USAGE}")),
        }
        i += 2;
    }
    let report = ratel_bench::verify_plans::run(&cfg)?;
    print!("{}", ratel_bench::verify_plans::render(&cfg, &report));
    if let Some(path) = &cfg.out {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if report.violations() > 0 {
        return Err(format!(
            "static verification failed: {} violation(s)",
            report.violations()
        ));
    }
    Ok(())
}

fn faults_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = ratel_bench::faults::FaultsConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "help" {
            return Err(FAULTS_USAGE.to_string());
        }
        let v = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{FAULTS_USAGE}"))?;
        match flag {
            "--model" => {
                if ratel_bench::faults::faults_model(v).is_none() {
                    return Err(format!("unknown model {v:?} (tiny|small)"));
                }
                cfg.model = v.clone();
            }
            "--steps" => {
                cfg.steps = v
                    .parse::<usize>()
                    .map_err(|_| format!("--steps expects a positive integer, got {v:?}"))?
                    .max(1)
            }
            "--faults" => {
                cfg.faults = v
                    .parse::<usize>()
                    .map_err(|_| format!("--faults expects a non-negative integer, got {v:?}"))?
            }
            "--seed" => {
                cfg.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed expects an integer, got {v:?}"))?
            }
            _ => return Err(format!("unknown flag {flag:?}\n{FAULTS_USAGE}")),
        }
        i += 2;
    }
    let report = ratel_bench::faults::run(&cfg)?;
    print!("{}", ratel_bench::faults::render(&cfg, &report));
    let failures = report.failures(&cfg);
    if !failures.is_empty() {
        return Err(format!("chaos smoke failed:\n  {}", failures.join("\n  ")));
    }
    Ok(())
}

fn validate_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = ratel_bench::validate::ValidateConfig::default();
    let mut host_min = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "help" {
            return Err(VALIDATE_USAGE.to_string());
        }
        let v = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{VALIDATE_USAGE}"))?;
        match flag {
            "--model" => {
                if ratel_bench::validate::validate_model(v).is_none() {
                    return Err(format!("unknown model {v:?} (tiny|small)"));
                }
                cfg.model = v.clone();
            }
            "--steps" => {
                cfg.steps = v
                    .parse::<usize>()
                    .map_err(|_| format!("--steps expects a positive integer, got {v:?}"))?
                    .max(1)
            }
            "--throttle" => {
                cfg.throttle = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| *t > 0.0)
                    .ok_or_else(|| format!("--throttle expects a positive number, got {v:?}"))?
            }
            "--tolerance" => {
                cfg.tolerance =
                    v.parse::<f64>().ok().filter(|t| *t > 0.0).ok_or_else(|| {
                        format!("--tolerance expects a positive number, got {v:?}")
                    })?
            }
            "--out" => cfg.out = Some(v.clone()),
            "--host-capacity" if v == "min" => host_min = true,
            _ if engine_shape_flag(&mut cfg.shape, flag, v)? => {}
            _ => return Err(format!("unknown flag {flag:?}\n{VALIDATE_USAGE}")),
        }
        i += 2;
    }
    if host_min {
        cfg.shape = at_min_host_capacity(&cfg.model, &cfg.shape)?;
    }
    let report = ratel_bench::validate::run(&cfg)?;
    print!("{}", ratel_bench::validate::render(&cfg, &report));
    if let Some(path) = &cfg.out {
        let json = ratel_sim::chrome_trace_json_timelines(&[
            report.sim_timeline.clone(),
            report.measured_timeline.clone(),
        ]);
        std::fs::write(path, json).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote {path} — load it in chrome://tracing or https://ui.perfetto.dev");
    }
    // Fail the command (after the report and trace are out, so they can
    // be inspected) if bytes drifted or a stage blew the tolerance.
    let failures = report.failures(cfg.tolerance);
    if !failures.is_empty() {
        return Err(format!("validation failed:\n  {}", failures.join("\n  ")));
    }
    Ok(())
}

fn trace_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = TraceConfig::default();
    let mut out: Option<String> = None;
    let mut i = 0;
    let parse = |flag: &str, v: &str| -> Result<usize, String> {
        v.parse::<usize>()
            .map_err(|_| format!("{flag} expects a positive integer, got {v:?}"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "help" {
            return Err(TRACE_USAGE.to_string());
        }
        let v = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{TRACE_USAGE}"))?;
        match flag {
            "--model" => {
                let ladder = ratel_model::zoo::llm_ladder();
                if !ladder.iter().any(|m| m.name == *v) {
                    let names: Vec<&str> = ladder.iter().map(|m| m.name.as_str()).collect();
                    return Err(format!("unknown model {v:?} ({})", names.join("|")));
                }
                cfg.model = v.clone();
            }
            "--batch" => cfg.batch = parse(flag, v)?,
            "--mode" => {
                cfg.mode = parse_mode(v)
                    .ok_or_else(|| format!("unknown mode {v:?} (optimized|naive|separate)"))?
            }
            "--gpus" => cfg.gpus = parse(flag, v)?.max(1),
            "--iters" => cfg.iterations = parse(flag, v)?.max(1),
            "--width" => cfg.width = parse(flag, v)?,
            "--out" => out = Some(v.clone()),
            _ => return Err(format!("unknown flag {flag:?}\n{TRACE_USAGE}")),
        }
        i += 2;
    }
    let report = figs::trace::report(&cfg);
    print!("{}", render_report(&cfg, &report));
    if let Some(path) = out {
        let json = ratel_sim::chrome_trace_json(&report);
        std::fs::write(&path, json).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote {path} — load it in chrome://tracing or https://ui.perfetto.dev");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!(
            "usage: repro <figure-id>... | all | list | trace [options] | validate [options] \
             | faults [options] | verify-plans [options] | bench [options] | obs [options]"
        );
        eprintln!("figure ids: {}", figs::ALL.join(" "));
        eprintln!("{TRACE_USAGE}");
        eprintln!("{VALIDATE_USAGE}");
        eprintln!("{FAULTS_USAGE}");
        eprintln!("{VERIFY_PLANS_USAGE}");
        eprintln!("{BENCH_USAGE}");
        eprintln!("{OBS_USAGE}");
        std::process::exit(2);
    }
    if args[0] == "obs" {
        if let Err(e) = obs_cmd(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }
    if args[0] == "bench" {
        if let Err(e) = bench_cmd(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }
    if args[0] == "verify-plans" {
        if let Err(e) = verify_plans_cmd(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }
    if args[0] == "validate" {
        if let Err(e) = validate_cmd(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }
    if args[0] == "faults" {
        if let Err(e) = faults_cmd(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }
    if args[0] == "trace" {
        if args.len() == 1 {
            // Bare `trace`: the default all-modes ASCII overview.
            print!("{}", figs::trace::run());
            return;
        }
        if let Err(e) = trace_cmd(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }
    if args[0] == "list" {
        for id in figs::ALL {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if args[0] == "all" {
        figs::ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let out_dir = Path::new("results");
    for id in ids {
        match figs::run(id) {
            Some(tables) => {
                for (i, t) in tables.iter().enumerate() {
                    println!("{}", t.render());
                    let name = if tables.len() == 1 {
                        id.to_string()
                    } else {
                        format!("{id}_{i}")
                    };
                    if let Err(e) = t.write_csv(out_dir, &name) {
                        eprintln!("warning: could not write {name}.csv: {e}");
                    }
                }
            }
            None => {
                eprintln!("unknown figure id {id:?}; try `repro list`");
                std::process::exit(2);
            }
        }
    }
}
