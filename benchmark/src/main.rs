//! `ratel-e2e`: the repository's step-level benchmark. One workload per
//! process, driven through the engine's public API; see `README.md`.

mod alloc;
mod compare;
mod cpu;
mod json;
mod measure;
mod probes;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use measure::{Outcome, RunOptions};
use spec::{declared_unit, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`, the default of `run`.
const RUN_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  ratel-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--no-throttle]
      one run; the last line of stdout is the result
  ratel-e2e run [--rounds <k>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]
      every workload k times (order rotated per round, seed n+round), as a result set
  ratel-e2e compare <A.json> <B.json>
      is result set B worse than A? exits 1 on a `worse` row or a higher failed share
workloads:";

/// Everything the benchmark writes lives under `benchmark/out`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The run's scratch directory, removed however the run ends. The SSD
/// tier and the checkpoints go here, inside the checkout: the benchmark
/// may write nowhere else, so it cannot pick a tmpfs; what it landed on
/// is reported (`env.ssd_dir_tmpfs`, and by name on stderr).
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<Self> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        // The store places its SSD tier under `std::env::temp_dir()`. Set
        // before any engine (and so any other thread) exists.
        std::env::set_var("TMPDIR", &dir);
        Ok(WorkDir(dir))
    }
}

/// Filesystem type of the mount that holds `dir`: the longest mount point
/// of `/proc/self/mountinfo` that is a prefix of it.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|line| {
            let (mount_fields, fs_fields) = line.split_once(" - ")?;
            let mount = mount_fields.split(' ').nth(4)?;
            let fs = fs_fields.split(' ').next()?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        // A later mount on the same point shadows an earlier one.
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

const SWITCHES: [&str; 2] = ["--smoke", "--no-throttle"];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        flags: Vec::new(),
        switches: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if SWITCHES.contains(&arg.as_str()) {
            parsed.switches.push(arg.clone());
        } else if arg.starts_with("--") {
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            parsed.flags.push((arg.clone(), value.clone()));
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    Ok(parsed)
}

impl Args {
    fn flag<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read `{v}`")),
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.flag(name)?
            .ok_or_else(|| format!("{name} is required"))
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn trace(&self) -> Result<Option<bool>, String> {
        match self.flag::<u8>("--trace")? {
            None => Ok(None),
            Some(0) => Ok(Some(false)),
            Some(1) => Ok(Some(true)),
            Some(n) => Err(format!("--trace takes 0 or 1, not {n}")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag {k}")),
            None => Ok(()),
        }
    }
}

/// The result object of the contract: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome.metrics.iter().map(|(name, value)| {
        let unit = declared_unit(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        (
            name.as_str(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn single_run(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    args.reject_unknown(&["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = args.required("--workload")?;
    let workload = spec::workload(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seconds: f64 = args.required("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let work = WorkDir::create().map_err(|e| format!("cannot create the work directory: {e}"))?;
    let work_fs = fs_type(&work.0);
    let opts = RunOptions {
        workload,
        seed: args.required("--seed")?,
        seconds,
        trace: args.trace()?.ok_or("--trace is required")?,
        smoke: args.switch("--smoke"),
        throttled: !args.switch("--no-throttle"),
        work_dir: work.0.clone(),
        work_dir_tmpfs: matches!(work_fs.as_str(), "tmpfs" | "ramfs"),
    };
    let outcome = measure::run(&opts, process_start).map_err(|e| format!("run aborted: {e}"))?;
    for problem in &outcome.problems {
        eprintln!("ratel-e2e: {problem}");
    }
    eprintln!(
        "ratel-e2e: {} seed {} trace {}: {} ops, loss_final {:?} (bits {:#010x}), tensor threads {}, SSD tier in {} ({work_fs})",
        workload.name,
        opts.seed,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.loss_final,
        outcome.loss_final.to_bits(),
        ratel_tensor::num_threads(),
        work.0.display(),
    );
    if opts.trace {
        let path = out_dir().join(format!("trace-{}.json", workload.name));
        std::fs::write(&path, outcome.tracer.chrome_trace().to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    drop(work);
    println!("{}", result_json(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload as a child process (set-up time and peak heap are
/// per process) and collects the result lines into a result set.
fn run_suite(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&["--rounds", "--seed", "--seconds", "--trace", "--out"])?;
    let rounds: usize = args.flag("--rounds")?.unwrap_or(1);
    let seed: u64 = args.flag("--seed")?.unwrap_or(1);
    let seconds: f64 = args.flag("--seconds")?.unwrap_or(RUN_SECONDS);
    let trace = args.trace()?.unwrap_or(false);
    let out: PathBuf = args
        .flag("--out")?
        .unwrap_or_else(|| out_dir().join("results.json"));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for round in 0..rounds {
        // Rotated, so no workload always runs right after the same other.
        for i in 0..WORKLOADS.len() {
            let w = &WORKLOADS[(i + round) % WORKLOADS.len()];
            let run_seed = seed + round as u64;
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.switch("--smoke") {
                child.arg("--smoke");
            }
            // `output` waits for the child to end.
            let output = child
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!("{} exited with {}", w.name, output.status));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let Json::Obj(mut fields) = Json::parse(line)? else {
                return Err(format!("{}: result line is not an object", w.name));
            };
            all_correct &= fields
                .iter()
                .any(|(k, v)| k == "correct" && *v == Json::Bool(true));
            println!("{} seed {run_seed}: {line}", w.name);
            fields.insert(0, ("seed".into(), Json::Num(run_seed as f64)));
            fields.insert(0, ("workload".into(), Json::str(w.name)));
            runs.push(Json::Obj(fields));
        }
    }
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let set = Json::obj([("runs", Json::Arr(runs))]);
    std::fs::write(&out, format!("{set}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("ratel-e2e: wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&[])?;
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare takes two result sets".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result =
        parse_args(&raw).and_then(|args| match args.positional.first().map(String::as_str) {
            None if !args.flags.is_empty() => single_run(&args, process_start),
            Some("run") if args.positional.len() == 1 => run_suite(&args),
            Some("compare") => compare_sets(&args),
            _ => Err("nothing to do".into()),
        });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ratel-e2e: {message}\n{USAGE}");
            for w in &WORKLOADS {
                eprintln!("  {:<14} {}", w.name, w.why);
            }
            ExitCode::from(2)
        }
    }
}
