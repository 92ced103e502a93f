//! `compare A.json B.json`: is result set B worse than result set A?
//!
//! A result set is what the `run` subcommand writes: `{"runs": [...]}`,
//! each run one result line plus its workload and seed. One row per
//! workload and end-to-end metric; the rule is the one this benchmark is
//! accepted by, so a row can also say the data cannot tell.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{MetricDecl, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// data cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's values of one metric against A's. Returns the wider of the
/// two quartile spreads and the verdict.
pub fn judge(decl: &MetricDecl, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let bound = decl.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse_by = match decl.better {
        "higher" => (ma - mb) / ma.abs(),
        _ => (mb - ma) / ma.abs(),
    };
    // A single run has no spread to show; it is taken at face value.
    let spread = [a, b]
        .iter()
        .filter_map(|v| quartile_spread(v))
        .fold(0.0, f64::max);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (spread, verdict)
}

struct Side {
    /// Values per end-to-end metric, in `END_TO_END` order.
    values: Vec<Vec<f64>>,
    attempted: f64,
    failed: f64,
}

fn side(set: &Json, workload: &str) -> Result<Side, String> {
    let runs = set
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("result set has no `runs` array")?;
    let mut s = Side {
        values: vec![Vec::new(); END_TO_END.len()],
        attempted: 0.0,
        failed: 0.0,
    };
    for run in runs {
        if run.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        let metrics = run.get("metrics").ok_or("run without `metrics`")?;
        // Traced runs carry per-layer metrics only.
        if metrics.get(END_TO_END[0].name).is_none() {
            continue;
        }
        for (slot, decl) in s.values.iter_mut().zip(&END_TO_END) {
            let value = metrics
                .get(decl.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: run without `{}`", decl.name))?;
            slot.push(value);
        }
        s.attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        s.failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if run.get("correct").and_then(Json::as_bool) != Some(true) {
            // An incorrect run counts wholly against its side.
            s.failed = s.failed.max(1.0);
        }
    }
    Ok(s)
}

/// The comparison table and whether B regressed (a `worse` row, or a
/// larger share of failed ops).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut regressed = false;
    writeln!(
        out,
        "{:<14} {:<15} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread", "bound"
    )
    .ok();
    for w in &WORKLOADS {
        let (sa, sb) = (side(a, w.name)?, side(b, w.name)?);
        if sa.values[0].is_empty() || sb.values[0].is_empty() {
            writeln!(out, "{:<14} (no untraced runs on one side)", w.name).ok();
            continue;
        }
        for (i, decl) in END_TO_END.iter().enumerate() {
            let (va, vb) = (&sa.values[i], &sb.values[i]);
            let (spread, verdict) = judge(decl, va, vb);
            regressed |= verdict == Verdict::Worse;
            // Signed as measured: B relative to A.
            let change = (median(vb) - median(va)) / median(va).abs();
            writeln!(
                out,
                "{:<14} {:<15} {:>12.5} {:>12.5} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                w.name,
                decl.name,
                median(va),
                median(vb),
                change * 100.0,
                spread * 100.0,
                decl.bound.unwrap_or(0.0) * 100.0,
                verdict.name()
            )
            .ok();
        }
        let share = |s: &Side| s.failed / s.attempted.max(1.0);
        if share(&sb) > share(&sa) {
            regressed = true;
            writeln!(
                out,
                "{:<14} failed share rose: {}/{} -> {}/{}",
                w.name, sa.failed, sa.attempted, sb.failed, sb.attempted
            )
            .ok();
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str) -> &'static MetricDecl {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let step = decl("step_s_p50"); // lower is better
        let bound = step.bound.unwrap();
        let steady = [1.00, 1.01, 0.99, 1.00, 1.005];
        let scaled = |k: f64| steady.map(|v| v * k);
        let (slower, faster) = (scaled(1.0 + 2.0 * bound), scaled(1.0 - 2.0 * bound));
        assert_eq!(judge(step, &steady, &slower).1, Verdict::Worse);
        assert_eq!(judge(step, &steady, &faster).1, Verdict::Better);
        assert_eq!(judge(step, &steady, &steady).1, Verdict::Same);
        // Within the bound is not a regression, whatever the direction.
        let a_bit_slower = scaled(1.0 + 0.5 * bound);
        assert_eq!(judge(step, &steady, &a_bit_slower).1, Verdict::Same);
        // A side noisier than the bound cannot resolve anything, on any
        // metric: set-up time gets no exemption.
        let noisy = [0.6, 1.0, 1.4, 1.8, 0.8];
        for m in &END_TO_END {
            assert_eq!(
                judge(m, &steady, &noisy).1,
                Verdict::Unresolved,
                "{}",
                m.name
            );
            assert_eq!(
                judge(m, &noisy, &steady).1,
                Verdict::Unresolved,
                "{}",
                m.name
            );
        }

        let tokens = decl("tokens_per_s"); // higher is better, same bound
        assert_eq!(judge(tokens, &steady, &slower).1, Verdict::Better);
        assert_eq!(judge(tokens, &steady, &faster).1, Verdict::Worse);
    }

    fn result_set(step_s: f64, failed: u64) -> Json {
        let runs = WORKLOADS
            .iter()
            .flat_map(|w| {
                (0..5).map(move |seed| {
                    let jitter = 1.0 + 0.002 * seed as f64;
                    let metrics = END_TO_END.iter().map(|m| {
                        let value = if m.name == "step_s_p50" { step_s } else { 1.0 };
                        (
                            m.name,
                            Json::obj([
                                ("value", Json::Num(value * jitter)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    });
                    Json::obj([
                        ("workload", Json::str(w.name)),
                        ("seed", Json::Num(seed as f64)),
                        ("correct", Json::Bool(failed == 0)),
                        ("attempted", Json::Num(50.0)),
                        ("failed", Json::Num(failed as f64)),
                        ("metrics", Json::obj(metrics)),
                    ])
                })
            })
            .collect();
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn compare_flags_a_slower_set_and_a_failing_set() {
        let base = result_set(0.5, 0);
        let (table, regressed) = compare(&base, &base).unwrap();
        assert!(!regressed, "{table}");
        assert_eq!(
            table.matches(" same").count(),
            WORKLOADS.len() * END_TO_END.len()
        );

        let (table, regressed) = compare(&base, &result_set(0.8, 0)).unwrap();
        assert!(regressed, "{table}");
        assert_eq!(table.matches(" worse").count(), WORKLOADS.len());

        let (table, regressed) = compare(&base, &result_set(0.5, 2)).unwrap();
        assert!(regressed, "{table}");
        assert!(table.contains("failed share rose"), "{table}");

        assert!(compare(&Json::Null, &base).is_err());
    }
}
