//! Typed metrics registry with Prometheus-text and JSONL export.
//!
//! Metrics are registered once by name (+ an optional static label set)
//! and return cheap `Arc`-backed handles; every subsequent registration
//! under the same name returns a handle to the same sample, so bridges
//! can re-resolve handles without caching them. Three types:
//!
//! * [`Counter`] — monotonically increasing `u64`. Bridges mirroring an
//!   externally-maintained cumulative count use [`Counter::set_total`].
//! * [`Gauge`] — an `f64` that can go up and down.
//! * [`Histogram`] — power-of-two latency buckets (base 1 µs, 32
//!   buckets) with percentile helpers. The layout — constants,
//!   [`pow2_bucket_index`], [`pow2_quantile_upper_bound`] — is defined
//!   here once; the storage layer's `LatencyHistogram` is built on it.
//!
//! The export formats are hand-rolled (the workspace vendors no serde);
//! [`validate_prometheus`] is a self-check parser strict enough for CI to
//! prove an export well-formed without running a real Prometheus.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ratel_check::sync::Mutex;

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Lower bound of histogram bucket 0, in seconds (1 µs). Bucket `i`
/// covers `[1µs·2^i, 1µs·2^(i+1))`; the first and last buckets absorb
/// anything below/above the covered range.
pub const HISTOGRAM_BASE_SECONDS: f64 = 1e-6;

/// Bucket index for a latency, clamped into the covered range.
pub fn pow2_bucket_index(seconds: f64) -> usize {
    if seconds <= HISTOGRAM_BASE_SECONDS {
        return 0;
    }
    let idx = (seconds / HISTOGRAM_BASE_SECONDS).log2().floor() as i64;
    idx.clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
}

/// Upper bound of the smallest power-of-two bucket such that at least
/// `q` (0..=1) of the observations in `buckets` fall at or below it.
/// Bucket `i` is `[base·2^i, base·2^(i+1))`. Returns 0 when empty.
///
/// Shared by this module's [`Histogram`] and the storage layer's
/// `LatencyHistogram`.
pub fn pow2_quantile_upper_bound(buckets: &[u64], base_seconds: f64, q: f64) -> f64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil() as u64;
    let mut seen = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= target {
            return base_seconds * (1u64 << (i + 1).min(63)) as f64;
        }
    }
    base_seconds * (1u64 << buckets.len().min(63)) as f64
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Mirrors an externally-maintained cumulative total (bridge use:
    /// the source counter is the ground truth, this sample echoes it).
    pub fn set_total(&self, total: u64) {
        self.0.store(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

/// A power-of-two latency histogram handle (see module docs for the
/// bucket layout).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation, in seconds.
    pub fn record(&self, seconds: f64) {
        let seconds = seconds.max(0.0);
        self.0.buckets[pow2_bucket_index(seconds)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0
            .sum_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.0.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Snapshot of the bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.0.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Percentile helper: upper bound of the bucket containing the
    /// `q`-quantile (see [`pow2_quantile_upper_bound`]).
    pub fn quantile_upper_bound(&self, q: f64) -> f64 {
        pow2_quantile_upper_bound(&self.buckets(), HISTOGRAM_BASE_SECONDS, q)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Sample {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    /// Keyed by the canonical label string (`""` for unlabeled).
    samples: BTreeMap<String, Sample>,
}

/// A metrics registry: named families of typed samples. See the module
/// docs; most code uses the process-global [`crate::registry`].
#[derive(Debug)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            families: Mutex::named("obs.registry", BTreeMap::new()),
        }
    }
}

fn label_key(labels: &[(&str, &str)]) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    parts.sort();
    parts.join(",")
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

pub(crate) fn json_escape(s: &str) -> String {
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

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)]) -> Sample {
        assert!(
            valid_metric_name(name),
            "invalid metric name {name:?} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        );
        let mut families = self.families.lock();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            samples: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} already registered as a {}, not a {}",
            family.kind.name(),
            kind.name()
        );
        family
            .samples
            .entry(label_key(labels))
            .or_insert_with(|| match kind {
                Kind::Counter => Sample::Counter(Counter(Arc::new(AtomicU64::new(0)))),
                Kind::Gauge => Sample::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))),
                Kind::Histogram => Sample::Histogram(Histogram(Arc::new(HistogramCore::default()))),
            })
            .clone()
    }

    /// Registers (or re-resolves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or re-resolves) a counter with a static label set.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, Kind::Counter, labels) {
            Sample::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or re-resolves) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or re-resolves) a gauge with a static label set.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, Kind::Gauge, labels) {
            Sample::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or re-resolves) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or re-resolves) a histogram with a static label set.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, Kind::Histogram, labels) {
            Sample::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Renders every family in Prometheus text exposition format, names
    /// sorted, `# HELP`/`# TYPE` headers per family. Histograms emit
    /// cumulative `_bucket{le=...}` samples plus `_sum` and `_count`.
    pub fn prometheus_text(&self) -> String {
        let families = self.families.lock();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.name());
            for (labels, sample) in &family.samples {
                match sample {
                    Sample::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", braced(labels), c.get());
                    }
                    Sample::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", braced(labels), g.get());
                    }
                    Sample::Histogram(h) => {
                        let buckets = h.buckets();
                        let mut cumulative = 0u64;
                        for (i, b) in buckets.iter().enumerate() {
                            cumulative += b;
                            let le = HISTOGRAM_BASE_SECONDS * (1u64 << (i + 1).min(63)) as f64;
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                braced(&merge_le(labels, &format!("{le}")))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            braced(&merge_le(labels, "+Inf")),
                            h.count()
                        );
                        let _ = writeln!(out, "{name}_sum{} {}", braced(labels), h.sum_seconds());
                        let _ = writeln!(out, "{name}_count{} {}", braced(labels), h.count());
                    }
                }
            }
        }
        out
    }

    /// Renders every sample as one JSON object per line. Histogram lines
    /// carry `count`, `sum_seconds`, and the p50/p95/p99 percentile
    /// upper bounds.
    pub fn jsonl(&self) -> String {
        let families = self.families.lock();
        let mut out = String::new();
        for (name, family) in families.iter() {
            for (labels, sample) in &family.samples {
                let labels_json = labels_to_json(labels);
                match sample {
                    Sample::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{{\"name\":\"{}\",\"type\":\"counter\",\"labels\":{labels_json},\"value\":{}}}",
                            json_escape(name),
                            c.get()
                        );
                    }
                    Sample::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{{\"name\":\"{}\",\"type\":\"gauge\",\"labels\":{labels_json},\"value\":{}}}",
                            json_escape(name),
                            finite(g.get())
                        );
                    }
                    Sample::Histogram(h) => {
                        let _ = writeln!(
                            out,
                            "{{\"name\":\"{}\",\"type\":\"histogram\",\"labels\":{labels_json},\
                             \"count\":{},\"sum_seconds\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                            json_escape(name),
                            h.count(),
                            finite(h.sum_seconds()),
                            finite(h.quantile_upper_bound(0.50)),
                            finite(h.quantile_upper_bound(0.95)),
                            finite(h.quantile_upper_bound(0.99)),
                        );
                    }
                }
            }
        }
        out
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn merge_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("le=\"{le}\"")
    } else {
        format!("{labels},le=\"{le}\"")
    }
}

/// Converts a canonical label string (`k="v",k2="v2"`) into a JSON object.
fn labels_to_json(labels: &str) -> String {
    if labels.is_empty() {
        return "{}".to_string();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in parse_labels(labels).unwrap_or_default().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

/// Parses a Prometheus label body (`k="v",k2="v2"`), un-escaping values.
/// An empty body (from `name{}`) parses as no labels.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    if body.trim().is_empty() {
        return Ok(out);
    }
    let mut rest = body;
    loop {
        let eq = rest.find('=').ok_or("label missing '='")?;
        let key = rest[..eq].trim().to_string();
        if key.is_empty() || !valid_metric_name(&key) {
            return Err(format!("bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err("label value not quoted".into());
        }
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e)) => value.push(e),
                    None => return Err("dangling escape in label value".into()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        out.push((key, value));
        rest = after[1 + end + 1..].trim_start();
        if rest.is_empty() {
            return Ok(out);
        }
        rest = rest
            .strip_prefix(',')
            .ok_or("expected ',' between labels")?;
    }
}

/// Self-check parser for Prometheus text exposition format. Validates
/// metric/label names, numeric values, that every sample's family was
/// declared with a preceding `# TYPE`, and that histograms are internally
/// consistent (cumulative buckets non-decreasing, the `+Inf` bucket equal
/// to `_count`). Returns the number of samples on success.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = 0usize;
    // (family, non-le labels) -> (ordered (le, cumulative), count sample)
    #[derive(Default)]
    struct HistoState {
        buckets: Vec<(f64, f64)>,
        count: Option<f64>,
    }
    let mut histos: BTreeMap<(String, String), HistoState> = BTreeMap::new();

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", ln + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let name = it.next().ok_or_else(|| err("TYPE missing name"))?;
                let kind = it.next().ok_or_else(|| err("TYPE missing kind"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(err("unknown TYPE kind"));
                }
                if !valid_metric_name(name) {
                    return Err(err("bad metric name in TYPE"));
                }
                types.insert(name.to_string(), kind.to_string());
            } else if !rest.starts_with("HELP ") && !rest.starts_with("EOF") {
                // Other comments are legal; HELP needs no validation beyond
                // being a comment.
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }

        // Sample line: name[{labels}] value
        let (name_part, rest) = match line.find('{') {
            Some(b) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| err("unclosed label braces"))?;
                (&line[..b], {
                    let labels = &line[b + 1..close];
                    parse_labels(labels).map_err(|e| err(&e))?;
                    (labels.to_string(), line[close + 1..].trim())
                })
            }
            None => {
                let sp = line.find(' ').ok_or_else(|| err("sample missing value"))?;
                (&line[..sp], (String::new(), line[sp + 1..].trim()))
            }
        };
        let (labels, value_str) = rest;
        if !valid_metric_name(name_part) {
            return Err(err("bad metric name"));
        }
        let value: f64 = match value_str.split_whitespace().next() {
            Some("+Inf") => f64::INFINITY,
            Some(v) => v.parse().map_err(|_| err("unparseable value"))?,
            None => return Err(err("sample missing value")),
        };
        samples += 1;

        // Resolve the family: exact name, or histogram sub-sample.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name_part
                    .strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name_part);
        let declared = types
            .get(family)
            .ok_or_else(|| err("sample precedes its # TYPE declaration"))?;
        if declared == "counter" && value < 0.0 {
            return Err(err("negative counter"));
        }
        if declared == "histogram" {
            let parsed = parse_labels(&labels).map_err(|e| err(&e))?;
            let le = parsed
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone());
            let others = label_key(
                &parsed
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect::<Vec<_>>(),
            );
            let state = histos.entry((family.to_string(), others)).or_default();
            if name_part.ends_with("_bucket") {
                let le = le.ok_or_else(|| err("histogram bucket missing le"))?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().map_err(|_| err("unparseable le bound"))?
                };
                state.buckets.push((bound, value));
            } else if name_part.ends_with("_count") {
                state.count = Some(value);
            }
        }
    }

    for ((family, labels), state) in &histos {
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_cum = -1.0;
        for &(bound, cum) in &state.buckets {
            if bound <= prev_bound {
                return Err(format!("{family}{{{labels}}}: le bounds not increasing"));
            }
            if cum < prev_cum {
                return Err(format!("{family}{{{labels}}}: bucket counts decrease"));
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        match (state.buckets.last(), state.count) {
            (Some(&(bound, cum)), Some(count)) => {
                if !bound.is_infinite() {
                    return Err(format!("{family}{{{labels}}}: missing +Inf bucket"));
                }
                if (cum - count).abs() > 1e-9 {
                    return Err(format!("{family}{{{labels}}}: +Inf bucket != _count"));
                }
            }
            (Some(_), None) => return Err(format!("{family}{{{labels}}}: missing _count")),
            (None, _) => return Err(format!("{family}{{{labels}}}: no buckets")),
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter_with("ratel_test_total", "a counter", &[("route", "gpu->host")]);
        c.add(3);
        // Re-registration resolves the same sample.
        reg.counter_with("ratel_test_total", "a counter", &[("route", "gpu->host")])
            .inc();
        assert_eq!(c.get(), 4);
        let g = reg.gauge("ratel_test_gauge", "a gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        let h = reg.histogram("ratel_test_seconds", "a histogram");
        h.record(3e-6);
        h.record(1.0);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_upper_bound(0.99) >= 1.0);

        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE ratel_test_total counter"));
        assert!(text.contains("ratel_test_total{route=\"gpu->host\"} 4"));
        assert!(text.contains("ratel_test_seconds_bucket"));
        let n = validate_prometheus(&text).expect("well-formed export");
        assert!(n > HISTOGRAM_BUCKETS, "histogram buckets counted: {n}");

        let jsonl = reg.jsonl();
        assert!(jsonl.lines().count() >= 3);
        assert!(jsonl.contains("\"p95\""));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("ratel_test_total", "c");
        let _ = reg.gauge("ratel_test_total", "g");
    }

    #[test]
    fn validator_rejects_malformed_exports() {
        assert!(validate_prometheus("ratel_x 1\n").is_err()); // no TYPE
        let ok = "# TYPE ratel_x counter\nratel_x 1\n";
        assert_eq!(validate_prometheus(ok).unwrap(), 1);
        assert!(validate_prometheus("# TYPE ratel_x counter\nratel_x -1\n").is_err());
        assert!(validate_prometheus("# TYPE ratel_x counter\nratel_x{a=b} 1\n").is_err());
        assert!(validate_prometheus("# TYPE 9bad counter\n").is_err());
        // Histogram with decreasing cumulative buckets.
        let bad_histo = "# TYPE ratel_h histogram\n\
                         ratel_h_bucket{le=\"0.1\"} 5\n\
                         ratel_h_bucket{le=\"+Inf\"} 3\n\
                         ratel_h_sum 1\nratel_h_count 3\n";
        assert!(validate_prometheus(bad_histo).is_err());
        // +Inf bucket must equal _count.
        let bad_count = "# TYPE ratel_h histogram\n\
                         ratel_h_bucket{le=\"+Inf\"} 3\n\
                         ratel_h_sum 1\nratel_h_count 4\n";
        assert!(validate_prometheus(bad_count).is_err());
    }

    #[test]
    fn pow2_quantiles_match_bucket_bounds() {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[0] = 50; // <= 2µs
        buckets[10] = 49; // ~1-2ms
        buckets[20] = 1; // ~1-2s
        let p50 = pow2_quantile_upper_bound(&buckets, HISTOGRAM_BASE_SECONDS, 0.50);
        assert_eq!(p50, HISTOGRAM_BASE_SECONDS * 2.0);
        let p95 = pow2_quantile_upper_bound(&buckets, HISTOGRAM_BASE_SECONDS, 0.95);
        assert_eq!(p95, HISTOGRAM_BASE_SECONDS * (1u64 << 11) as f64);
        let p100 = pow2_quantile_upper_bound(&buckets, HISTOGRAM_BASE_SECONDS, 1.0);
        assert_eq!(p100, HISTOGRAM_BASE_SECONDS * (1u64 << 21) as f64);
        assert_eq!(pow2_quantile_upper_bound(&[0; 4], 1e-6, 0.5), 0.0);
    }
}
