//! The benchmark's own spans: one around every call it makes into the
//! engine, each naming the span that caused it, kept in memory and written
//! as Chrome-trace JSON when the run ends. Off in the untraced run.

use std::time::Instant;

use crate::json::Json;

/// Index of a recorded span; 0 is "no parent".
pub type SpanId = usize;

struct Span {
    name: String,
    parent: SpanId,
    start_us: f64,
    end_us: f64,
    /// Extra numbers shown in the trace viewer (executor wall, self time).
    args: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: SpanId) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_us: now,
            end_us: now,
            args: Vec::new(),
        });
        self.spans.len()
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        if let Some(span) = id.checked_sub(1).and_then(|i| self.spans.get_mut(i)) {
            span.end_us = now;
        }
    }

    pub fn annotate(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(span) = id.checked_sub(1).and_then(|i| self.spans.get_mut(i)) {
            span.args.push((key, value));
        }
    }

    /// Times `f` under a span named `name`.
    pub fn scope<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto): complete events on one track, span id and parent id in
    /// `args`.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("id".to_string(), Json::Num((i + 1) as f64)),
                    ("parent".to_string(), Json::Num(s.parent as f64)),
                ];
                args.extend(s.args.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))));
                Json::obj([
                    ("name", Json::str(s.name.as_str())),
                    ("cat", Json::str("benchmark")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_complete_events() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin("window", 0);
        let op = t.begin("op[0]", root);
        t.annotate(op, "exec_wall_us", 12.0);
        t.end(op);
        t.end(root);
        let trace = t.chrome_trace();
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("name").and_then(Json::as_str), Some("op[0]"));
        assert_eq!(child.get("ph").and_then(Json::as_str), Some("X"));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(root as f64));
        assert_eq!(args.get("exec_wall_us").and_then(Json::as_f64), Some(12.0));
        // Loadable: the writer's output parses back.
        assert_eq!(Json::parse(&trace.to_string()).unwrap(), trace);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("op[0]", 0);
        t.annotate(id, "x", 1.0);
        t.end(id);
        assert_eq!(t.scope("probe", id, || 7), 7);
        let trace = t.chrome_trace();
        assert!(trace
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    }
}
