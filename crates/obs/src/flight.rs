//! Always-on flight recorder: a fixed-capacity, lock-free ring of compact
//! events — the training run's black box.
//!
//! Every event is packed into eight `u64` words (a publish stamp, a
//! timestamp/kind/code word, payload bytes, an auxiliary value, and up to
//! 24 label bytes). Recording claims a slot with one `fetch_add` and then
//! issues plain atomic stores, so the hot path costs a few atomics and no
//! locks — cheap enough to stay on even when full span telemetry is
//! disabled. The ring overwrites its oldest events; readers run only at
//! dump time and use the per-slot stamp to skip slots caught mid-write
//! (an event can be lost to a torn write only if the ring wraps an entire
//! lap while one `record` call is in flight).
//!
//! The event schema (see `DESIGN.md` "Observability plane"): `seq` is the
//! global event index, `t` seconds since recorder creation, `kind` one of
//! [`EventKind`], `code` a kind-specific discriminant (route index for
//! transfers, fault op for retries, span kind for spans), `bytes` the
//! payload size, `aux` a kind-specific value (attempt number, step
//! number, checkpoint generation, span duration in µs), and `label` the
//! first 24 bytes of the blob key or span label as `Display` writes it.

use std::fmt::Display;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ratel_contract::SpanKind;

use crate::metrics::json_escape;

/// Words per ring slot: stamp, meta, bytes, aux, label ×3, reserved.
const SLOT_WORDS: usize = 8;

/// Max label bytes preserved per event (3 little-endian `u64` words).
pub const LABEL_BYTES: usize = 24;

/// Default capacity of the process-global recorder ([`flight`]).
pub const DEFAULT_CAPACITY: usize = 4096;

/// What a flight-recorder event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A completed telemetry span (`code` = span kind index, `aux` =
    /// duration in µs). Only recorded while span telemetry is enabled.
    Span = 1,
    /// An inter-tier blob transfer (`code` = route index, always on).
    Transfer = 2,
    /// An SSD operation failed and was re-issued (`code` = fault op,
    /// `aux` = attempt number).
    Retry = 3,
    /// An SSD operation exhausted its retry budget (`code` = fault op,
    /// `aux` = attempts).
    GiveUp = 4,
    /// A checkpoint generation committed (`aux` = generation).
    CheckpointCommit = 6,
    /// A checkpoint generation failed verification and the loader fell
    /// back to an older one (`aux` = failing generation).
    CheckpointFallback = 7,
    /// A training error surfaced (`label` = truncated error text).
    Error = 8,
    /// A training step began (`aux` = step number).
    StepBegin = 9,
    /// A training step finished (`aux` = step number, `bytes` = traffic).
    StepEnd = 10,
    /// The plan-conformance monitor emitted a finding (`code` = drift
    /// kind index, `label` = truncated detail).
    Drift = 11,
}

impl EventKind {
    /// Stable lower-case name, used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Transfer => "transfer",
            EventKind::Retry => "retry",
            EventKind::GiveUp => "give_up",
            EventKind::CheckpointCommit => "ckpt_commit",
            EventKind::CheckpointFallback => "ckpt_fallback",
            EventKind::Error => "error",
            EventKind::StepBegin => "step_begin",
            EventKind::StepEnd => "step_end",
            EventKind::Drift => "drift",
        }
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::Span,
            2 => EventKind::Transfer,
            3 => EventKind::Retry,
            4 => EventKind::GiveUp,
            6 => EventKind::CheckpointCommit,
            7 => EventKind::CheckpointFallback,
            8 => EventKind::Error,
            9 => EventKind::StepBegin,
            10 => EventKind::StepEnd,
            11 => EventKind::Drift,
            _ => return None,
        })
    }

    /// Human-readable name for this kind's `code` discriminant, if the
    /// kind defines one. Span codes are [`SpanKind::index`]; route
    /// indices follow `Route::ALL` order in `ratel-storage` (a stable,
    /// documented contract — this crate sits below storage).
    pub fn code_name(self, code: u8) -> Option<&'static str> {
        const ROUTES: [&str; 4] = ["gpu->host", "host->gpu", "host->ssd", "ssd->host"];
        const FAULT_OPS: [&str; 2] = ["read", "write"];
        const DRIFT: [&str; 3] = ["byte_mismatch", "stage_inversion", "stall"];
        let table: &[&str] = match self {
            EventKind::Transfer => &ROUTES,
            EventKind::Retry | EventKind::GiveUp => &FAULT_OPS,
            EventKind::Span => return SpanKind::ALL.get(code as usize).map(|k| k.name()),
            EventKind::Drift => &DRIFT,
            _ => return None,
        };
        table.get(code as usize).copied()
    }
}

/// One decoded flight-recorder event (see [`EventKind`] for field
/// semantics per kind).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global 0-based event index (monotonic across ring wraps).
    pub seq: u64,
    /// Seconds since recorder creation.
    pub t: f64,
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific discriminant (route, fault op, span kind, …).
    pub code: u8,
    /// Payload bytes (transfers, step traffic), 0 otherwise.
    pub bytes: u64,
    /// Kind-specific value (attempt, step, generation, duration µs).
    pub aux: u64,
    /// First [`LABEL_BYTES`] bytes of the blob key / span label / detail.
    pub label: String,
}

/// The lock-free event ring. Most code uses the process-global
/// [`flight`]; separate instances exist for tests.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    cursor: AtomicU64,
    enabled: AtomicBool,
    slots: Box<[AtomicU64]>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (min 16).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        let mut slots = Vec::with_capacity(capacity * SLOT_WORDS);
        slots.resize_with(capacity * SLOT_WORDS, || AtomicU64::new(0));
        FlightRecorder {
            epoch: Instant::now(),
            cursor: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            slots: slots.into_boxed_slice(),
            capacity,
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether recording is on (it is by default; the kill switch exists
    /// so the overhead benchmark can measure the recorder against a
    /// recorder-compiled-out baseline).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips the recording kill switch (benchmarks/tests only — the
    /// recorder is designed to stay on in production runs).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Total events ever recorded (≥ what the ring still holds).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records one event: one `fetch_add` to claim a slot, relaxed
    /// payload stores, one release store to publish. The label is
    /// formatted straight into the slot's 24 bytes, with no allocation.
    #[inline]
    pub fn record(&self, kind: EventKind, code: u8, label: impl Display, bytes: u64, aux: u64) {
        if !self.enabled() {
            return;
        }
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        let base = (idx as usize % self.capacity) * SLOT_WORDS;
        let t_us = self.epoch.elapsed().as_micros() as u64 & ((1 << 48) - 1);
        let meta = (t_us << 16) | ((kind as u64) << 8) | code as u64;
        let slot = &self.slots[base..base + SLOT_WORDS];
        slot[0].store(0, Ordering::Release); // invalidate while writing
        slot[1].store(meta, Ordering::Relaxed);
        slot[2].store(bytes, Ordering::Relaxed);
        slot[3].store(aux, Ordering::Relaxed);
        let mut packed = [0u8; LABEL_BYTES];
        // Writing into the slice stops, with an error, where it is full.
        let _ = write!(&mut packed[..], "{label}");
        for (w, chunk) in packed.chunks_exact(8).enumerate() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            slot[4 + w].store(u64::from_le_bytes(word), Ordering::Relaxed);
        }
        slot[0].store(idx + 1, Ordering::Release); // publish
    }

    /// Decodes the ring's surviving events, oldest first. Slots caught
    /// mid-write are skipped.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::new();
        for s in 0..self.capacity {
            let base = s * SLOT_WORDS;
            let slot = &self.slots[base..base + SLOT_WORDS];
            let stamp = slot[0].load(Ordering::Acquire);
            if stamp == 0 {
                continue;
            }
            let meta = slot[1].load(Ordering::Relaxed);
            let bytes = slot[2].load(Ordering::Relaxed);
            let aux = slot[3].load(Ordering::Relaxed);
            let mut packed = [0u8; LABEL_BYTES];
            for (w, chunk) in packed.chunks_exact_mut(8).enumerate() {
                chunk.copy_from_slice(&slot[4 + w].load(Ordering::Relaxed).to_le_bytes());
            }
            if slot[0].load(Ordering::Acquire) != stamp {
                continue; // torn: overwritten while we read
            }
            let Some(kind) = EventKind::from_u8((meta >> 8) as u8) else {
                continue;
            };
            let end = packed.iter().position(|&b| b == 0).unwrap_or(LABEL_BYTES);
            out.push(FlightEvent {
                seq: stamp - 1,
                t: (meta >> 16) as f64 / 1e6,
                kind,
                code: meta as u8,
                bytes,
                aux,
                label: String::from_utf8_lossy(&packed[..end]).into_owned(),
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Serializes the ring (plus a `reason` header and drop accounting)
    /// as a JSON document — the postmortem dump format.
    pub fn dump_json(&self, reason: &str) -> String {
        use std::fmt::Write as _;
        let events = self.events();
        let recorded = self.recorded();
        let mut out = String::with_capacity(events.len() * 96 + 256);
        let _ = writeln!(
            out,
            "{{\"reason\":\"{}\",\"recorded\":{recorded},\"capacity\":{},\
             \"overwritten\":{},\"events\":[",
            json_escape(reason),
            self.capacity,
            recorded.saturating_sub(events.len() as u64),
        );
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"t\":{:.6},\"kind\":\"{}\",\"code\":{},",
                e.seq,
                e.t,
                e.kind.name(),
                e.code,
            );
            if let Some(code_name) = e.kind.code_name(e.code) {
                let _ = write!(out, "\"code_name\":\"{code_name}\",");
            }
            let _ = write!(
                out,
                "\"bytes\":{},\"aux\":{},\"label\":\"{}\"}}",
                e.bytes,
                e.aux,
                json_escape(&e.label)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The process-global flight recorder ([`DEFAULT_CAPACITY`] events).
pub fn flight() -> &'static FlightRecorder {
    static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
    FLIGHT.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_decodes_in_order() {
        let rec = FlightRecorder::new(64);
        rec.record(EventKind::Transfer, 3, "layer0/p16", 1024, 0);
        rec.record(EventKind::Retry, 0, "layer0/p16", 0, 1);
        rec.record(EventKind::GiveUp, 0, "layer0/p16", 0, 4);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Transfer);
        assert_eq!(events[0].bytes, 1024);
        assert_eq!(events[0].label, "layer0/p16");
        assert_eq!(events[0].kind.code_name(events[0].code), Some("ssd->host"));
        assert_eq!(events[2].kind, EventKind::GiveUp);
        assert_eq!(events[2].aux, 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn span_codes_decode_to_the_dump_format_names() {
        let names: Vec<_> = (0..7).map(|c| EventKind::Span.code_name(c)).collect();
        let expected = [
            Some("forward"),
            Some("backward"),
            Some("optimizer"),
            Some("transfer"),
            Some("prefetch"),
            Some("other"),
            None,
        ];
        assert_eq!(names, expected);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(16);
        for i in 0..40u64 {
            rec.record(EventKind::StepBegin, 0, "", 0, i);
        }
        let events = rec.events();
        assert_eq!(events.len(), 16);
        assert_eq!(rec.recorded(), 40);
        // Tail survives: the last event is step 39.
        assert_eq!(events.last().unwrap().aux, 39);
        let dump = rec.dump_json("wrap test");
        assert!(dump.contains("\"overwritten\":24"));
    }

    #[test]
    fn long_labels_truncate_and_disabled_records_nothing() {
        let rec = FlightRecorder::new(16);
        let long = "layer12/optimizer-moments-staged-very-long";
        rec.record(EventKind::Transfer, 2, long, 7, 0);
        let e = &rec.events()[0];
        assert_eq!(e.label, &long[..LABEL_BYTES]);
        // A `Display` label is truncated as it is written, across pieces.
        let (head, tail) = long.split_at(20);
        rec.record(EventKind::Transfer, 2, format_args!("{head}{tail}"), 7, 0);
        assert_eq!(rec.events()[1].label, &long[..LABEL_BYTES]);
        rec.set_enabled(false);
        rec.record(EventKind::Transfer, 2, "x", 0, 0);
        assert_eq!(rec.recorded(), 2);
    }

    #[test]
    fn concurrent_writers_keep_the_ring_decodable() {
        let rec = std::sync::Arc::new(FlightRecorder::new(128));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        rec.record(EventKind::Transfer, (t % 4) as u8, "key", i, t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rec.recorded(), 4000);
        let events = rec.events();
        assert!(!events.is_empty() && events.len() <= 128);
        for e in &events {
            assert_eq!(e.kind, EventKind::Transfer);
            assert_eq!(e.label, "key");
        }
    }
}
