//! Runtime telemetry: timestamped spans and per-route transfer metrics.
//!
//! The [`TelemetryRecorder`] is the observability substrate for the *real*
//! engine (the simulator has its own report types). It is created by every
//! [`crate::TieredStore`] but **disabled by default**: the disabled fast
//! path is a single relaxed atomic load, so un-instrumented training pays
//! essentially nothing. When enabled it collects
//!
//! * **spans** — `(track, kind, label, start, end)` intervals: one per
//!   executed task of the engine's step DAG (carrying the task's
//!   [`TaskRef`]), one for the scaler decision, and one recorded by the
//!   store for every inter-tier transfer (tagged with route, blob key,
//!   bytes);
//! * **per-route metrics** — op/byte counters, busy seconds, and a
//!   power-of-two latency histogram per transfer route, from which the
//!   achieved bandwidth on each link can be compared against the profiled
//!   one.
//!
//! Timestamps are `f64` seconds since the recorder's creation instant, so
//! spans from concurrent threads share one clock and can be rendered on a
//! common timeline (see `ratel_sim::trace`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use ratel_check::sync::Mutex;
use ratel_contract::{SpanKind, TaskRef};
use ratel_obs::metrics::{
    pow2_bucket_index, pow2_quantile_upper_bound, HISTOGRAM_BASE_SECONDS, HISTOGRAM_BUCKETS,
};
use ratel_obs::EventKind;

use crate::traffic::Route;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Lane the span belongs to: the task's resource name in the step
    /// graph (`"gpu0"`, `"ssd"`), a route name like `"ssd->host"`, or
    /// `"engine"`. Tracks map to timeline rows on export.
    pub track: String,
    /// Classification for grouping and coloring.
    pub kind: SpanKind,
    /// The executed task this span measures; `None` for transfers and
    /// the scaler span.
    pub task: Option<TaskRef>,
    /// Display label: the task's label in the graph (`"fwd L3"`) or a
    /// blob key. Nothing reads it back.
    pub label: String,
    /// Start, in seconds since the recorder epoch.
    pub start: f64,
    /// End, in seconds since the recorder epoch.
    pub end: f64,
    /// Payload size for transfers, `None` for compute spans.
    pub bytes: Option<u64>,
    /// Transfer route, `None` for compute spans.
    pub route: Option<Route>,
}

impl SpanRecord {
    /// Span duration in seconds (non-negative).
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// A power-of-two latency histogram over the bucket layout of
/// [`ratel_obs::metrics`]: bucket `i` counts transfers whose wall time
/// fell in `[1µs·2^i, 1µs·2^(i+1))`, the first and last buckets absorbing
/// anything below/above the covered range.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total_seconds: f64,
    max_seconds: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_seconds: 0.0,
            max_seconds: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// Adds one observation.
    pub fn record(&mut self, seconds: f64) {
        let seconds = seconds.max(0.0);
        self.buckets[pow2_bucket_index(seconds)] += 1;
        self.count += 1;
        self.total_seconds += seconds;
        if seconds > self.max_seconds {
            self.max_seconds = seconds;
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// `[low, high)` bounds of bucket `i`, in seconds.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        let low = HISTOGRAM_BASE_SECONDS * (1u64 << i) as f64;
        (low, low * 2.0)
    }

    /// Mean observed latency in seconds (0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }

    /// Largest observed latency in seconds.
    pub fn max_seconds(&self) -> f64 {
        self.max_seconds
    }

    /// Observations added since `earlier` (an older copy of this
    /// histogram): bucket-wise and total-count saturating differences.
    /// `max_seconds` cannot be recovered from two cumulative snapshots, so
    /// the delta keeps the later value (an upper bound for the window).
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, (now, then)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *b = now.saturating_sub(*then);
        }
        LatencyHistogram {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            total_seconds: (self.total_seconds - earlier.total_seconds).max(0.0),
            max_seconds: self.max_seconds,
        }
    }

    /// Upper bound of the smallest bucket such that at least `q` (0..=1)
    /// of observations fall at or below it. 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> f64 {
        pow2_quantile_upper_bound(&self.buckets, HISTOGRAM_BASE_SECONDS, q)
    }
}

/// Aggregated transfer metrics for one route.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteMetrics {
    /// Number of transfers recorded.
    pub ops: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total wall seconds spent in transfers on this route.
    pub seconds: f64,
    /// Latency distribution of individual transfers.
    pub histogram: LatencyHistogram,
}

impl RouteMetrics {
    /// Achieved bandwidth in bytes/second (`None` if no time was spent).
    pub fn achieved_bandwidth(&self) -> Option<f64> {
        if self.seconds > 0.0 {
            Some(self.bytes as f64 / self.seconds)
        } else {
            None
        }
    }

    /// Metrics accumulated since `earlier` (an older copy): saturating
    /// counter differences, histogram bucket deltas.
    pub fn since(&self, earlier: &RouteMetrics) -> RouteMetrics {
        RouteMetrics {
            ops: self.ops.saturating_sub(earlier.ops),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            seconds: (self.seconds - earlier.seconds).max(0.0),
            histogram: self.histogram.since(&earlier.histogram),
        }
    }
}

/// Default cap on buffered (recorded but not yet drained) spans. An
/// instrumented step of even a deep model records a few thousand spans,
/// so a step-draining engine never comes close; the cap exists for the
/// pathological case — telemetry enabled but never drained — which used
/// to grow without bound.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

#[derive(Debug, Default)]
struct Shared {
    spans: VecDeque<SpanRecord>,
    routes: [RouteMetrics; 4],
}

/// Robustness counters: SSD retries and give-ups.
///
/// Unlike spans and route metrics these are **always on** — they count
/// error-path events, which are rare and must never be silently dropped
/// just because tracing was off (chaos tests and operators both read them
/// after the fact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// SSD operations that failed and were re-issued.
    pub retries: u64,
    /// SSD operations that kept failing until the retry budget ran out.
    pub give_ups: u64,
    /// Always 0: the store places a blob only where its caller says, so
    /// nothing spills from the host pool to the SSD tier. Kept for the
    /// readers that report it.
    pub host_spills: u64,
}

impl FaultStats {
    /// Events counted since `earlier` (an older snapshot): saturating
    /// per-counter differences. This is how per-step fault deltas in
    /// `StepTelemetry` are computed from the cumulative counters.
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            retries: self.retries.saturating_sub(earlier.retries),
            give_ups: self.give_ups.saturating_sub(earlier.give_ups),
            host_spills: self.host_spills.saturating_sub(earlier.host_spills),
        }
    }

    /// True when no fault-path event was counted.
    pub fn is_empty(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Lock-cheap span and metrics recorder shared between the store, the
/// engine's threads, and the caller (via `Arc`).
///
/// Disabled (the default) it records nothing and costs one relaxed atomic
/// load per would-be event. Enabled, each event takes a short
/// tracked critical section to push a span and bump route metrics.
#[derive(Debug)]
pub struct TelemetryRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    shared: Mutex<Shared>,
    span_capacity: AtomicUsize,
    dropped_spans: AtomicU64,
    retries: AtomicU64,
    give_ups: AtomicU64,
}

impl Default for TelemetryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryRecorder {
    /// A fresh, disabled recorder; its epoch is the creation instant.
    pub fn new() -> Self {
        TelemetryRecorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            shared: Mutex::named("storage.telemetry", Shared::default()),
            span_capacity: AtomicUsize::new(DEFAULT_SPAN_CAPACITY),
            dropped_spans: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            give_ups: AtomicU64::new(0),
        }
    }

    /// Whether recording is on. The hot-path guard: callers skip all
    /// timestamping when this is false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Already-recorded data is kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Seconds since the recorder epoch (monotonic, shared by threads).
    pub fn now(&self) -> f64 {
        self.at(Instant::now())
    }

    /// `instant` on the recorder clock: seconds since the epoch.
    pub fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Caps the buffered span store at `cap` (≥ 1): once full, the
    /// oldest span is evicted per new span (ring semantics) and the
    /// [`TelemetryRecorder::dropped_spans`] counter is bumped. Excess
    /// already-buffered spans are evicted immediately.
    pub fn set_span_capacity(&self, cap: usize) {
        let cap = cap.max(1);
        self.span_capacity.store(cap, Ordering::Relaxed);
        let mut shared = self.shared.lock();
        while shared.spans.len() > cap {
            shared.spans.pop_front();
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans evicted because the buffer was full and never drained.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans.load(Ordering::Relaxed)
    }

    /// Appends a span, evicting the oldest when the buffer is at
    /// capacity. Callers hold the `shared` lock.
    fn push_span(&self, shared: &mut Shared, span: SpanRecord) {
        let cap = self.span_capacity.load(Ordering::Relaxed);
        while shared.spans.len() >= cap {
            shared.spans.pop_front();
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
        shared.spans.push_back(span);
    }

    /// Records the span of one executed task (`task` set) or of
    /// un-tasked engine work. No-op while disabled.
    pub fn record_span(
        &self,
        track: &str,
        kind: SpanKind,
        task: Option<TaskRef>,
        label: impl Into<String>,
        start: f64,
        end: f64,
    ) {
        if !self.enabled() {
            return;
        }
        let label = label.into();
        ratel_obs::flight().record(
            EventKind::Span,
            kind.index() as u8,
            &label,
            0,
            ((end - start).max(0.0) * 1e6) as u64,
        );
        let mut shared = self.shared.lock();
        self.push_span(
            &mut shared,
            SpanRecord {
                track: track.to_string(),
                kind,
                task,
                label,
                start,
                end,
                bytes: None,
                route: None,
            },
        );
    }

    /// Records a transfer span (route track, `Transfer` kind, a blob key
    /// as its label) and folds it into the route's metrics. No-op while
    /// disabled.
    pub fn record_transfer(&self, route: Route, label: String, bytes: u64, start: f64, end: f64) {
        if !self.enabled() {
            return;
        }
        let seconds = (end - start).max(0.0);
        let mut shared = self.shared.lock();
        let m = &mut shared.routes[route.index()];
        m.ops += 1;
        m.bytes += bytes;
        m.seconds += seconds;
        m.histogram.record(seconds);
        self.push_span(
            &mut shared,
            SpanRecord {
                track: route.name().to_string(),
                kind: SpanKind::Transfer,
                task: None,
                label,
                start,
                end,
                bytes: Some(bytes),
                route: Some(route),
            },
        );
    }

    /// Takes all recorded spans, leaving the (cumulative) route metrics in
    /// place. The engine drains once per step to build `StepTelemetry`.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        self.shared.lock().spans.drain(..).collect()
    }

    /// Copies the current per-route metrics, indexed like [`Route::ALL`].
    pub fn route_metrics(&self) -> [RouteMetrics; 4] {
        self.shared.lock().routes.clone()
    }

    /// Clears spans and route metrics (the epoch is unchanged). Fault
    /// counters are cleared too.
    pub fn reset(&self) {
        let mut shared = self.shared.lock();
        shared.spans.clear();
        shared.routes = Default::default();
        drop(shared);
        self.dropped_spans.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.give_ups.store(0, Ordering::Relaxed);
    }

    /// Counts one SSD retry (always on; see [`FaultStats`]).
    pub fn count_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one exhausted retry budget (always on; see [`FaultStats`]).
    pub fn count_give_up(&self) {
        self.give_ups.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the robustness counters.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            retries: self.retries.load(Ordering::Relaxed),
            give_ups: self.give_ups.load(Ordering::Relaxed),
            host_spills: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = TelemetryRecorder::new();
        rec.record_span("gpu0", SpanKind::Forward, None, "fwd L0", 0.0, 1.0);
        rec.record_transfer(Route::SsdToHost, "k".into(), 100, 0.0, 0.5);
        assert!(rec.drain_spans().is_empty());
        assert_eq!(rec.route_metrics()[Route::SsdToHost.index()].ops, 0);
    }

    #[test]
    fn spans_and_metrics_accumulate_when_enabled() {
        let rec = TelemetryRecorder::new();
        rec.set_enabled(true);
        rec.record_span("gpu0", SpanKind::Forward, None, "fwd L0", 0.0, 1.0);
        rec.record_transfer(Route::SsdToHost, "blob".into(), 1000, 1.0, 1.5);
        rec.record_transfer(Route::SsdToHost, "blob2".into(), 500, 1.5, 2.0);
        let spans = rec.drain_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].bytes, Some(1000));
        assert_eq!(spans[1].route, Some(Route::SsdToHost));
        assert_eq!(spans[1].track, "ssd->host");
        // Drain leaves metrics in place.
        assert!(rec.drain_spans().is_empty());
        let m = &rec.route_metrics()[Route::SsdToHost.index()];
        assert_eq!(m.ops, 2);
        assert_eq!(m.bytes, 1500);
        assert!((m.seconds - 1.0).abs() < 1e-9);
        let bw = m.achieved_bandwidth().unwrap();
        assert!((bw - 1500.0).abs() < 1e-6);
        assert_eq!(m.histogram.count(), 2);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let mut h = LatencyHistogram::default();
        h.record(0.0); // below base -> bucket 0
        h.record(3e-6); // [2µs, 4µs) -> bucket 1
        h.record(1.0); // [~0.52s, ~1.05s) -> bucket 19
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(pow2_bucket_index(1.0)), 1);
        let (lo, hi) = LatencyHistogram::bucket_bounds(pow2_bucket_index(1.0));
        assert!(lo <= 1.0 && 1.0 < hi, "1s not in [{lo}, {hi})");
        assert!(h.max_seconds() == 1.0);
        // All observations are at or below the top bucket's bound.
        assert!(h.quantile_upper_bound(1.0) >= 1.0);
        // Way-out-of-range values clamp to the last bucket.
        h.record(1e9);
        assert_eq!(h.bucket_count(HISTOGRAM_BUCKETS - 1), 1);
    }

    #[test]
    fn route_metrics_since_subtracts_the_snapshot() {
        let rec = TelemetryRecorder::new();
        rec.set_enabled(true);
        rec.record_transfer(Route::SsdToHost, "warmup".into(), 1000, 0.0, 0.001);
        let before = rec.route_metrics();
        rec.record_transfer(Route::SsdToHost, "step".into(), 500, 1.0, 2.0);
        let m =
            rec.route_metrics()[Route::SsdToHost.index()].since(&before[Route::SsdToHost.index()]);
        assert_eq!(m.ops, 1);
        assert_eq!(m.bytes, 500);
        assert!((m.seconds - 1.0).abs() < 1e-9);
        assert_eq!(m.histogram.count(), 1);
        // The warm-up's 1 ms observation is subtracted out of its bucket.
        assert_eq!(m.histogram.bucket_count(pow2_bucket_index(0.001)), 0);
        assert_eq!(m.histogram.bucket_count(pow2_bucket_index(1.0)), 1);
        // Only the step's slow transfer remains -> bandwidth 500 B/s.
        assert!((m.achieved_bandwidth().unwrap() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn fault_counters_count_even_while_disabled() {
        let rec = TelemetryRecorder::new();
        assert!(!rec.enabled());
        rec.count_retry();
        rec.count_retry();
        rec.count_give_up();
        let s = rec.fault_stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.give_ups, 1);
        assert_eq!(s.host_spills, 0);
        rec.reset();
        assert_eq!(rec.fault_stats(), FaultStats::default());
    }

    #[test]
    fn span_store_is_bounded_with_ring_semantics() {
        // Regression: an enabled-but-never-drained recorder used to grow
        // its span Vec without limit. It must instead evict the oldest
        // span and count the drop.
        let rec = TelemetryRecorder::new();
        rec.set_enabled(true);
        rec.set_span_capacity(8);
        for i in 0..20 {
            rec.record_span(
                "gpu0",
                SpanKind::Forward,
                None,
                format!("fwd L{i}"),
                0.0,
                1.0,
            );
        }
        assert_eq!(rec.dropped_spans(), 12);
        let spans = rec.drain_spans();
        assert_eq!(spans.len(), 8);
        // Ring semantics: the *newest* spans survive.
        assert_eq!(spans[0].label, "fwd L12");
        assert_eq!(spans[7].label, "fwd L19");
        // Transfers share the same bounded store.
        for _ in 0..10 {
            rec.record_transfer(Route::SsdToHost, "k".into(), 1, 0.0, 0.1);
        }
        assert_eq!(rec.drain_spans().len(), 8);
        assert_eq!(rec.dropped_spans(), 14);
        // Shrinking the cap evicts immediately.
        for _ in 0..8 {
            rec.record_transfer(Route::SsdToHost, "k".into(), 1, 0.0, 0.1);
        }
        rec.set_span_capacity(2);
        assert_eq!(rec.drain_spans().len(), 2);
        rec.reset();
        assert_eq!(rec.dropped_spans(), 0);
    }

    #[test]
    fn fault_stats_since_subtracts_snapshots() {
        let a = FaultStats {
            retries: 5,
            give_ups: 1,
            host_spills: 2,
        };
        let b = FaultStats {
            retries: 7,
            give_ups: 1,
            host_spills: 4,
        };
        let d = b.since(&a);
        assert_eq!(
            d,
            FaultStats {
                retries: 2,
                give_ups: 0,
                host_spills: 2,
            }
        );
        assert!(!d.is_empty());
        assert!(a.since(&b).is_empty(), "saturating, not wrapping");
    }

    #[test]
    fn reset_clears_everything() {
        let rec = TelemetryRecorder::new();
        rec.set_enabled(true);
        rec.record_transfer(Route::HostToGpu, "k".into(), 10, 0.0, 0.1);
        rec.reset();
        assert!(rec.drain_spans().is_empty());
        assert_eq!(rec.route_metrics()[Route::HostToGpu.index()].ops, 0);
        assert!(rec.enabled(), "reset must not flip the enable bit");
    }
}
