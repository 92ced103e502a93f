//! Trace export and utilization analysis over a finished [`SimReport`].
//!
//! Three consumers share the timeline the engine records:
//!
//! * [`chrome_trace_json`] — Chrome trace-event JSON (`ph: "X"` duration
//!   events, one track per resource, stage-colored slices) loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! * [`ascii_timeline`] — a terminal Gantt with per-resource utilization.
//! * [`utilization_breakdown`] / [`analyze_bubbles`] — per-resource,
//!   per-stage busy fractions and an idle-gap ("bubble") analyzer that
//!   names the longest stalls on the critical resource.

use std::fmt::Write as _;

use crate::graph::ResourceId;
use crate::report::{SimReport, TimelineEntry};

/// Microseconds per simulated second in the Chrome trace. Trace-event
/// timestamps are integers in microseconds; simulated seconds map 1:1.
const US_PER_SEC: f64 = 1e6;

// One span vocabulary for simulated tasks and *measured* engine spans
// (transfers, prefetches, bookkeeping), so both render through the same
// writers.
pub use ratel_contract::SpanKind;

/// Chrome trace-event reserved color name (cname) of a span kind.
fn color(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Forward => "thread_state_running",
        SpanKind::Backward => "thread_state_iowait",
        SpanKind::Optimizer => "thread_state_uninterruptible",
        SpanKind::Transfer => "thread_state_runnable",
        SpanKind::Prefetch => "thread_state_sleeping",
        SpanKind::Other => "thread_state_unknown",
    }
}

/// One slice on a [`Timeline`] track.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSpan {
    /// Index into [`Timeline::tracks`].
    pub track: usize,
    /// Display label (task or blob name).
    pub label: String,
    /// Classification for coloring/categorizing.
    pub kind: SpanKind,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
    /// Id of the task the span shows, in the graph that was simulated
    /// or executed; `None` for transfers and bookkeeping.
    pub task: Option<usize>,
    /// Payload size, if the span is a data transfer.
    pub bytes: Option<u64>,
}

impl TimelineSpan {
    /// Span duration in seconds (non-negative).
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// A producer→consumer dependency arrow between two points on a
/// timeline — e.g. a parameter prefetch feeding the forward pass that
/// consumes the staged blob. Rendered as Chrome trace *flow events*
/// (`ph: "s"` at the source, `ph: "f"` at the destination), which
/// Perfetto draws as arrows across tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEvent {
    /// Arrow label (shared by both endpoints).
    pub name: String,
    /// Source track index (into [`Timeline::tracks`]).
    pub from_track: usize,
    /// Source timestamp, seconds.
    pub from_ts: f64,
    /// Destination track index.
    pub to_track: usize,
    /// Destination timestamp, seconds.
    pub to_ts: f64,
}

/// A substrate-neutral execution timeline: named tracks holding labeled,
/// classified spans. Both the simulator ([`Timeline::from_sim`]) and the
/// real engine (via its telemetry recorder) produce these, so one Chrome
/// trace can show a predicted and a measured iteration side by side
/// ([`chrome_trace_json_timelines`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Process-level name in the Chrome trace (e.g. `"simulated"`,
    /// `"measured"`). An empty name suppresses the `process_name`
    /// metadata event, which keeps single-report exports minimal.
    pub name: String,
    /// Track (row) names, in display order.
    pub tracks: Vec<String>,
    /// The spans; need not be sorted.
    pub spans: Vec<TimelineSpan>,
    /// Cross-track dependency arrows (may be empty).
    pub flows: Vec<FlowEvent>,
}

impl Timeline {
    /// An empty timeline with the given process name.
    pub fn new(name: impl Into<String>) -> Self {
        Timeline {
            name: name.into(),
            tracks: Vec::new(),
            spans: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Index of the track named `name`, adding it if new.
    pub fn track(&mut self, name: &str) -> usize {
        if let Some(i) = self.tracks.iter().position(|t| t == name) {
            return i;
        }
        self.tracks.push(name.to_string());
        self.tracks.len() - 1
    }

    /// Converts a finished simulation into a timeline (anonymous name;
    /// one track per resource, spans in start order).
    pub fn from_sim(report: &SimReport) -> Self {
        let mut tl = Timeline::new("");
        for r in &report.resources {
            tl.tracks.push(r.name.clone());
        }
        for e in report.timeline() {
            tl.spans.push(TimelineSpan {
                track: e.resource_id.0,
                label: e.display_label(),
                kind: e.stage.into(),
                start: e.start,
                end: e.finish,
                task: Some(e.task.0),
                bytes: None,
            });
        }
        tl
    }

    /// Latest span end (0 for an empty timeline).
    pub fn end(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Shifts all spans so the earliest start sits at t=0 — used to align
    /// a measured timeline (whose clock starts at recorder creation) with
    /// a simulated one (whose clock starts at the iteration).
    pub fn shift_to_zero(&mut self) {
        let t0 = self
            .spans
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        if t0.is_finite() && t0 != 0.0 {
            for s in &mut self.spans {
                s.start -= t0;
                s.end -= t0;
            }
            for f in &mut self.flows {
                f.from_ts -= t0;
                f.to_ts -= t0;
            }
        }
    }

    /// Renders this timeline as an ASCII Gantt: one row per track, `width`
    /// cells across [`Timeline::end`]; glyphs from [`SpanKind::glyph`],
    /// `.` for idle. The same chart shape as `SimReport::render_gantt`,
    /// but substrate-neutral.
    pub fn gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let end = self.end();
        let name_w = self.tracks.iter().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>name_w$}  0s{}{:.3}s",
            "",
            " ".repeat(width.saturating_sub(8)),
            end
        );
        for (ti, track) in self.tracks.iter().enumerate() {
            let mut row = vec!['.'; width];
            for s in self.spans.iter().filter(|s| s.track == ti) {
                if end == 0.0 {
                    continue;
                }
                let a = ((s.start / end) * width as f64).floor() as usize;
                let b = ((s.end / end) * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = s.kind.glyph();
                }
            }
            let _ = writeln!(out, "{track:>name_w$}  {}", row.iter().collect::<String>());
        }
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes the report's timeline as Chrome trace-event JSON.
///
/// One track (`tid`) per resource, named via `thread_name` metadata
/// events; every task becomes a complete (`ph: "X"`) slice colored by
/// stage, carrying its stage and task id in `args`. The output loads
/// directly in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(report: &SimReport) -> String {
    chrome_trace_json_timelines(&[Timeline::from_sim(report)])
}

/// Serializes any number of [`Timeline`]s into one Chrome trace-event
/// JSON document: each timeline becomes a process (`pid` = its index,
/// named by `process_name` metadata when [`Timeline::name`] is set), each
/// track a thread. Loading a simulated and a measured timeline into one
/// trace is how the sim-vs-real validator renders its side-by-side view.
pub fn chrome_trace_json_timelines(timelines: &[Timeline]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for (pid, tl) in timelines.iter().enumerate() {
        if !tl.name.is_empty() {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(&tl.name)
                ),
                &mut out,
                &mut first,
            );
        }
        for (ti, track) in tl.tracks.iter().enumerate() {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{ti},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(track)
                ),
                &mut out,
                &mut first,
            );
        }
    }
    for (pid, tl) in timelines.iter().enumerate() {
        for s in &tl.spans {
            let ts = s.start * US_PER_SEC;
            let dur = s.duration() * US_PER_SEC;
            let mut args = format!("\"stage\":\"{}\"", s.kind.name());
            if let Some(task) = s.task {
                let _ = write!(args, ",\"task\":{task}");
            }
            if let Some(bytes) = s.bytes {
                let _ = write!(args, ",\"bytes\":{bytes}");
            }
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                     \"name\":\"{name}\",\"cat\":\"{cat}\",\"cname\":\"{cname}\",\
                     \"args\":{{{args}}}}}",
                    tid = s.track,
                    name = json_escape(&s.label),
                    cat = s.kind.name(),
                    cname = color(s.kind),
                ),
                &mut out,
                &mut first,
            );
        }
    }
    // Flow arrows: a `ph:"s"` start and a `ph:"f"` finish (binding point
    // "e" = enclosing slice) sharing one id per arrow. Ids are unique
    // across timelines so two processes' arrows never merge.
    let mut flow_id = 0usize;
    for (pid, tl) in timelines.iter().enumerate() {
        for f in &tl.flows {
            flow_id += 1;
            push(
                format!(
                    "{{\"ph\":\"s\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\
                     \"id\":{flow_id},\"name\":\"{name}\",\"cat\":\"flow\"}}",
                    tid = f.from_track,
                    ts = f.from_ts * US_PER_SEC,
                    name = json_escape(&f.name),
                ),
                &mut out,
                &mut first,
            );
            push(
                format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\
                     \"id\":{flow_id},\"name\":\"{name}\",\"cat\":\"flow\"}}",
                    tid = f.to_track,
                    ts = f.to_ts * US_PER_SEC,
                    name = json_escape(&f.name),
                ),
                &mut out,
                &mut first,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// One resource's share of the run, overall and per stage.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationRow {
    /// The resource.
    pub resource: ResourceId,
    /// Resource name as registered with the graph.
    pub name: String,
    /// Total busy seconds.
    pub busy: f64,
    /// Busy fraction of the makespan (0 when the makespan is 0).
    pub utilization: f64,
    /// Busy seconds attributed to each stage (indexed by `Stage::ALL`).
    pub busy_by_stage: [f64; 3],
}

/// Per-resource utilization breakdown, ordered by descending busy time —
/// the first row is the critical (most-loaded) resource.
pub fn utilization_breakdown(report: &SimReport) -> Vec<UtilizationRow> {
    let mut rows: Vec<UtilizationRow> = report
        .resources
        .iter()
        .enumerate()
        .map(|(ri, r)| UtilizationRow {
            resource: ResourceId(ri),
            name: r.name.clone(),
            busy: r.busy,
            utilization: if report.makespan > 0.0 {
                r.busy / report.makespan
            } else {
                0.0
            },
            busy_by_stage: r.busy_by_stage,
        })
        .collect();
    rows.sort_by(|a, b| b.busy.total_cmp(&a.busy));
    rows
}

/// Renders [`utilization_breakdown`] as an aligned text table.
pub fn utilization_table(report: &SimReport) -> String {
    let rows = utilization_breakdown(report);
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(0)
        .max("resource".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>8}  {:>6}  {:>8}  {:>8}  {:>8}",
        "resource", "busy", "util", "fwd", "bwd", "opt"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>7.3}s  {:>5.1}%  {:>7.3}s  {:>7.3}s  {:>7.3}s",
            r.name,
            r.busy,
            r.utilization * 100.0,
            r.busy_by_stage[0],
            r.busy_by_stage[1],
            r.busy_by_stage[2],
        );
    }
    out
}

/// An idle gap on one resource between two busy slices (or between the
/// run's boundaries and the resource's first/last task).
#[derive(Debug, Clone, PartialEq)]
pub struct Bubble {
    /// The resource that sat idle.
    pub resource: ResourceId,
    /// When the gap opened (seconds).
    pub start: f64,
    /// When the gap closed (seconds).
    pub end: f64,
    /// Label of the task whose finish opened the gap, if any.
    pub after: Option<String>,
    /// Label of the task whose start closed the gap, if any.
    pub before: Option<String>,
}

impl Bubble {
    /// Idle seconds in the gap.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// All idle gaps longer than `min_gap` seconds on `resource`, longest
/// first. Includes the lead-in before the resource's first task and the
/// tail after its last.
pub fn bubbles(report: &SimReport, resource: ResourceId, min_gap: f64) -> Vec<Bubble> {
    let mut slices: Vec<&TimelineEntry> = report
        .timeline()
        .iter()
        .filter(|e| e.resource_id == resource)
        .collect();
    slices.sort_by(|a, b| a.start.total_cmp(&b.start));

    let mut out = Vec::new();
    let mut cursor = 0.0_f64;
    let mut after: Option<String> = None;
    for s in &slices {
        if s.start - cursor > min_gap {
            out.push(Bubble {
                resource,
                start: cursor,
                end: s.start,
                after: after.clone(),
                before: Some(s.display_label()),
            });
        }
        if s.finish > cursor {
            cursor = s.finish;
            after = Some(s.display_label());
        }
    }
    if report.makespan - cursor > min_gap && !slices.is_empty() {
        out.push(Bubble {
            resource,
            start: cursor,
            end: report.makespan,
            after,
            before: None,
        });
    }
    out.sort_by(|a, b| b.duration().total_cmp(&a.duration()));
    out
}

/// Bubble analysis for one resource: its idle gaps and totals.
#[derive(Debug, Clone, PartialEq)]
pub struct BubbleReport {
    /// The analyzed resource (the critical one in [`analyze_bubbles`]).
    pub resource: ResourceId,
    /// Resource name.
    pub name: String,
    /// Idle gaps, longest first.
    pub bubbles: Vec<Bubble>,
    /// Total idle seconds across all gaps.
    pub idle_total: f64,
    /// Idle fraction of the makespan.
    pub idle_fraction: f64,
}

/// The most-loaded resource — the one whose stalls bound the iteration.
/// `None` for an empty report.
pub fn critical_resource(report: &SimReport) -> Option<ResourceId> {
    report
        .resources
        .iter()
        .enumerate()
        .filter(|(_, r)| r.busy > 0.0)
        .max_by(|(_, a), (_, b)| a.busy.total_cmp(&b.busy))
        .map(|(ri, _)| ResourceId(ri))
}

/// Finds the critical resource and its idle gaps longer than `min_gap`
/// seconds. Returns `None` when no resource did any work.
pub fn analyze_bubbles(report: &SimReport, min_gap: f64) -> Option<BubbleReport> {
    let resource = critical_resource(report)?;
    let bubbles = bubbles(report, resource, min_gap);
    let idle_total: f64 = bubbles.iter().map(Bubble::duration).sum();
    Some(BubbleReport {
        resource,
        name: report.resources[resource.0].name.clone(),
        bubbles,
        idle_total,
        idle_fraction: if report.makespan > 0.0 {
            idle_total / report.makespan
        } else {
            0.0
        },
    })
}

/// Renders [`analyze_bubbles`] as text, naming the `top_n` longest stalls
/// on the critical resource and the slices bracketing each.
pub fn bubble_summary(report: &SimReport, top_n: usize) -> String {
    let Some(analysis) = analyze_bubbles(report, 0.0) else {
        return String::from("no busy resources\n");
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical resource: {} (idle {:.3}s, {:.1}% of {:.3}s makespan)",
        analysis.name,
        analysis.idle_total,
        analysis.idle_fraction * 100.0,
        report.makespan,
    );
    for b in analysis.bubbles.iter().take(top_n) {
        let after = b.after.as_deref().unwrap_or("run start");
        let before = b.before.as_deref().unwrap_or("run end");
        let _ = writeln!(
            out,
            "  bubble {:>7.3}s [{:.3}s..{:.3}s] after `{}` before `{}`",
            b.duration(),
            b.start,
            b.end,
            after,
            before,
        );
    }
    out
}

/// Renders an ASCII timeline: the stage-glyph Gantt rows from
/// [`SimReport::render_gantt`] plus a utilization column per resource and
/// a legend. `width` is the chart width in character cells.
pub fn ascii_timeline(report: &SimReport, width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "makespan {:.3}s   legend: F forward, B backward, O optimizer, . idle",
        report.makespan
    );
    let gantt = report.render_gantt(width);
    let mut lines = gantt.lines();
    if let Some(header) = lines.next() {
        let _ = writeln!(out, "{header}");
    }
    // Gantt rows come out in ResourceId order; annotate each with its
    // busy fraction.
    for (ri, line) in lines.enumerate() {
        let util = report.utilization(ResourceId(ri)) * 100.0;
        let _ = writeln!(out, "{line}  {util:>5.1}%");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::graph::{Stage, TaskGraph};

    /// gpu: [0,2) fwd, idle [2,3), [3,6) bwd; pcie: [2,3).
    fn demo() -> SimReport {
        let mut g = TaskGraph::new();
        let gpu = g.add_resource("gpu");
        let pcie = g.add_resource("pcie");
        let f = g.add_task_labeled(gpu, 2.0, Stage::Forward, &[], "fwd L0");
        let t = g.add_task_labeled(pcie, 1.0, Stage::Forward, &[f], "fetch L1");
        g.add_task_labeled(gpu, 3.0, Stage::Backward, &[t], "bwd L1");
        simulate(&g)
    }

    #[test]
    fn chrome_trace_has_tracks_and_slices() {
        let r = demo();
        let json = chrome_trace_json(&r);
        // One metadata event per resource, one X event per task.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"args\":{\"name\":\"gpu\"}"));
        assert!(json.contains("\"args\":{\"name\":\"pcie\"}"));
        assert!(json.contains("\"name\":\"fwd L0\""));
        // bwd L1 runs [3,6)s -> ts 3e6 us, dur 3e6 us on tid 0.
        assert!(json.contains("\"tid\":0,\"ts\":3000000.000,\"dur\":3000000.000"));
        assert!(json.contains("\"cat\":\"backward\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_emits_flow_arrow_pairs() {
        let mut tl = Timeline::new("measured");
        let pf = tl.track("pcie-m2g0");
        let gpu = tl.track("gpu0");
        tl.flows.push(FlowEvent {
            name: "fwd-fetch L1".into(),
            from_track: pf,
            from_ts: 0.5,
            to_track: gpu,
            to_ts: 1.25,
        });
        let json = chrome_trace_json_timelines(&[tl]);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\",\"bp\":\"e\"").count(), 1);
        // Both endpoints share the arrow's id and name.
        assert_eq!(
            json.matches("\"id\":1,\"name\":\"fwd-fetch L1\"").count(),
            2
        );
        assert!(json.contains("\"ts\":500000.000"));
        assert!(json.contains("\"ts\":1250000.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn shift_to_zero_moves_flows_with_spans() {
        let mut tl = Timeline::new("t");
        let a = tl.track("a");
        tl.spans.push(TimelineSpan {
            track: a,
            label: "x".into(),
            kind: SpanKind::Forward,
            start: 10.0,
            end: 11.0,
            task: None,
            bytes: None,
        });
        tl.flows.push(FlowEvent {
            name: "f".into(),
            from_track: a,
            from_ts: 10.25,
            to_track: a,
            to_ts: 10.75,
        });
        tl.shift_to_zero();
        assert_eq!(tl.spans[0].start, 0.0);
        assert!((tl.flows[0].from_ts - 0.25).abs() < 1e-12);
        assert!((tl.flows[0].to_ts - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_escapes_labels() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("weird \"res\"");
        g.add_task_labeled(r, 1.0, Stage::Forward, &[], "a\\b\n\"c\"");
        let json = chrome_trace_json(&simulate(&g));
        assert!(json.contains("weird \\\"res\\\""));
        assert!(json.contains("a\\\\b\\n\\\"c\\\""));
    }

    #[test]
    fn utilization_rows_are_sorted_and_sum() {
        let r = demo();
        let rows = utilization_breakdown(&r);
        assert_eq!(rows[0].name, "gpu"); // 5s busy > pcie 1s
        assert!((rows[0].busy - 5.0).abs() < 1e-12);
        assert!((rows[0].utilization - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(rows[0].busy_by_stage, [2.0, 3.0, 0.0]);
        let table = utilization_table(&r);
        assert!(table.contains("gpu"));
        assert!(table.contains("83.3%"));
    }

    #[test]
    fn bubbles_find_the_gap_and_name_its_neighbors() {
        let r = demo();
        let gpu = ResourceId(0);
        let bs = bubbles(&r, gpu, 0.0);
        assert_eq!(bs.len(), 1);
        assert_eq!((bs[0].start, bs[0].end), (2.0, 3.0));
        assert_eq!(bs[0].after.as_deref(), Some("fwd L0"));
        assert_eq!(bs[0].before.as_deref(), Some("bwd L1"));
        // min_gap filters it out.
        assert!(bubbles(&r, gpu, 1.5).is_empty());
        // pcie idles [0,2) and [3,6).
        let pcie = bubbles(&r, ResourceId(1), 0.0);
        assert_eq!(pcie.len(), 2);
        assert_eq!((pcie[0].start, pcie[0].end), (3.0, 6.0)); // longest first
        assert!(pcie[0].before.is_none());
        assert!(pcie[1].after.is_none());
    }

    #[test]
    fn bubble_analysis_targets_the_critical_resource() {
        let r = demo();
        assert_eq!(critical_resource(&r), Some(ResourceId(0)));
        let a = analyze_bubbles(&r, 0.0).unwrap();
        assert_eq!(a.name, "gpu");
        assert!((a.idle_total - 1.0).abs() < 1e-12);
        assert!((a.idle_fraction - 1.0 / 6.0).abs() < 1e-12);
        let text = bubble_summary(&r, 5);
        assert!(text.contains("critical resource: gpu"));
        assert!(text.contains("after `fwd L0` before `bwd L1`"));
    }

    #[test]
    fn empty_report_is_handled() {
        let g = TaskGraph::new();
        let r = simulate(&g);
        assert!(critical_resource(&r).is_none());
        assert!(analyze_bubbles(&r, 0.0).is_none());
        assert!(bubble_summary(&r, 3).contains("no busy resources"));
        let json = chrome_trace_json(&r);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 0);
    }

    #[test]
    fn timeline_from_sim_matches_the_report() {
        let r = demo();
        let tl = Timeline::from_sim(&r);
        assert_eq!(tl.tracks, vec!["gpu", "pcie"]);
        assert_eq!(tl.spans.len(), 3);
        assert!((tl.end() - r.makespan).abs() < 1e-12);
        let bwd = tl.spans.iter().find(|s| s.label == "bwd L1").unwrap();
        assert_eq!(bwd.kind, SpanKind::Backward);
        assert_eq!((bwd.start, bwd.end), (3.0, 6.0));
        assert_eq!(bwd.track, 0);
        assert!(bwd.bytes.is_none());
    }

    #[test]
    fn multi_timeline_trace_gets_one_pid_per_timeline() {
        let mut sim = Timeline::from_sim(&demo());
        sim.name = "simulated".into();
        let mut measured = Timeline::new("measured");
        let gpu = measured.track("gpu");
        let route = measured.track("ssd->host");
        measured.spans.push(TimelineSpan {
            track: gpu,
            label: "fwd L0".into(),
            kind: SpanKind::Forward,
            start: 5.0,
            end: 6.0,
            task: None,
            bytes: None,
        });
        measured.spans.push(TimelineSpan {
            track: route,
            label: "block0/p16".into(),
            kind: SpanKind::Transfer,
            start: 5.5,
            end: 5.9,
            task: None,
            bytes: Some(4096),
        });
        measured.shift_to_zero();
        assert_eq!(measured.spans[0].start, 0.0);

        let json = chrome_trace_json_timelines(&[sim, measured]);
        assert!(json.contains("\"name\":\"process_name\",\"args\":{\"name\":\"simulated\"}"));
        assert!(json.contains("\"name\":\"process_name\",\"args\":{\"name\":\"measured\"}"));
        // The measured spans land on pid 1; the transfer carries bytes but
        // no task id, the compute span neither.
        assert!(json.contains("\"args\":{\"stage\":\"transfer\",\"bytes\":4096}"));
        assert!(json.contains("\"args\":{\"stage\":\"forward\"}"));
        assert!(json.matches("\"pid\":1,").count() >= 4);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn timeline_gantt_renders_all_kinds() {
        let mut tl = Timeline::new("measured");
        let cpu = tl.track("cpu");
        let route = tl.track("host->ssd");
        tl.spans.push(TimelineSpan {
            track: cpu,
            label: "opt L0".into(),
            kind: SpanKind::Optimizer,
            start: 0.0,
            end: 1.0,
            task: None,
            bytes: None,
        });
        tl.spans.push(TimelineSpan {
            track: route,
            label: "wb".into(),
            kind: SpanKind::Transfer,
            start: 1.0,
            end: 2.0,
            task: None,
            bytes: Some(10),
        });
        let chart = tl.gantt(40);
        let cpu_row = chart
            .lines()
            .find(|l| l.trim_start().starts_with("cpu"))
            .unwrap();
        assert!(cpu_row.contains('O') && !cpu_row.contains('T'));
        let route_row = chart
            .lines()
            .find(|l| l.trim_start().starts_with("host->ssd"))
            .unwrap();
        assert!(route_row.contains('T') && !route_row.contains('O'));
    }

    #[test]
    fn ascii_timeline_annotates_utilization() {
        let r = demo();
        let text = ascii_timeline(&r, 60);
        assert!(text.contains("makespan 6.000s"));
        assert!(text.contains("legend"));
        let gpu_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("gpu"))
            .unwrap();
        assert!(gpu_line.contains('F') && gpu_line.contains('B'));
        assert!(gpu_line.trim_end().ends_with("83.3%"));
    }
}
