//! The tiered store itself.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ratel_check::lockorder;
use ratel_check::sync::{Condvar, Mutex, MutexGuard};

use std::sync::Arc;

use crate::error::StorageError;
use crate::fault::{FaultKind, FaultOp, FaultPlan, RetryPolicy};
use crate::telemetry::TelemetryRecorder;
use crate::traffic::{Route, TrafficCounters, TrafficSnapshot};

/// A storage tier in the server's memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// GPU device memory (capacity-enforced arena).
    Gpu,
    /// Main memory (capacity-enforced pool).
    Host,
    /// NVMe SSD volume (files on disk).
    Ssd,
}

/// Capacities for the memory tiers. `None` means unbounded (useful in
/// tests that only exercise traffic accounting).
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// GPU arena capacity in bytes.
    pub gpu_capacity: Option<u64>,
    /// Host pool capacity in bytes.
    pub host_capacity: Option<u64>,
    /// SSD volume capacity in bytes.
    pub ssd_capacity: Option<u64>,
    /// Directory holding SSD-tier blob files.
    pub ssd_dir: PathBuf,
}

impl TierConfig {
    /// Unbounded tiers spilling to a fresh unique directory under the
    /// system temp dir.
    pub fn unbounded_temp() -> Self {
        TierConfig {
            gpu_capacity: None,
            host_capacity: None,
            ssd_capacity: None,
            ssd_dir: unique_temp_dir(),
        }
    }

    /// Bounded GPU/host tiers spilling to a fresh temp directory.
    pub fn bounded_temp(gpu_capacity: u64, host_capacity: u64) -> Self {
        TierConfig {
            gpu_capacity: Some(gpu_capacity),
            host_capacity: Some(host_capacity),
            ssd_capacity: None,
            ssd_dir: unique_temp_dir(),
        }
    }
}

/// Creates a unique empty directory under the system temp dir.
fn unique_temp_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ratel-ssd-{}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0),
        n
    ));
    // Best-effort: `TieredStore::new` re-creates the directory and is
    // the place that surfaces a typed error if the filesystem refuses.
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Where an SSD-tier blob's bytes live on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SsdLoc {
    /// Its own file (`blob_path(key)`).
    File {
        /// Blob size in bytes.
        len: u64,
    },
    /// A byte range inside a shared segment file written by
    /// [`TieredStore::put_batch`].
    Segment {
        /// Segment id (`seg-{id}` file).
        seg: u64,
        /// Byte offset of this blob within the segment.
        offset: u64,
        /// Blob size in bytes.
        len: u64,
    },
}

impl SsdLoc {
    fn len(self) -> u64 {
        match self {
            SsdLoc::File { len } | SsdLoc::Segment { len, .. } => len,
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// In-memory blobs (GPU and host tiers).
    mem: HashMap<String, (Tier, Vec<u8>)>,
    /// SSD-tier blob locations (contents live in files).
    ssd: HashMap<String, SsdLoc>,
    /// Live-blob count per segment file; a segment is unlinked when its
    /// count reaches zero. Blobs removed earlier leave dead bytes in the
    /// file until then (accounted per blob, so `ssd_used` can undercount
    /// disk footprint while a segment is partially dead).
    segments: HashMap<u64, u32>,
    next_seg: u64,
    /// Keys with SSD file I/O in flight *outside* the lock. Any operation
    /// touching one of these keys waits on the store's condvar, which
    /// preserves per-key atomicity while letting unrelated keys' I/O —
    /// and its injected latency spikes and retry backoff — overlap.
    pending: HashSet<String>,
    gpu_used: u64,
    host_used: u64,
    ssd_used: u64,
    /// High-water marks of the three `*_used` counters since the last
    /// [`TieredStore::reset_traffic`], indexed by `Tier as usize`.
    peak_used: [u64; 3],
}

/// A thread-safe three-tier blob store with traffic metering.
///
/// Blobs are identified by string keys (e.g. `"block3/p16"`); each key
/// lives in exactly one tier. Dropping the store removes its SSD directory.
#[derive(Debug)]
pub struct TieredStore {
    config: TierConfig,
    inner: Mutex<Inner>,
    /// Signalled whenever a key's in-flight SSD I/O completes.
    pending_cv: Condvar,
    traffic: TrafficCounters,
    /// Optional per-route bandwidth caps (bytes/second). A transfer over a
    /// throttled route sleeps for `bytes / rate` *outside* the store lock,
    /// so concurrent transfers on different routes still overlap — this is
    /// how the real engine emulates the paper's link speeds and lets
    /// wall-clock measurements show the active-offloading overlap.
    throttle: Mutex<[Option<f64>; 4]>,
    /// Span/metrics recorder; disabled by default. Shared (`Arc`) so the
    /// engine's worker threads record onto the same timeline.
    telemetry: Arc<TelemetryRecorder>,
    /// Scripted SSD failures (None = healthy drives). Every SSD file op
    /// consults the plan; see [`FaultPlan`].
    fault: Mutex<Option<Arc<FaultPlan>>>,
    /// Bounded retry-with-backoff applied to failing SSD file ops.
    retry: Mutex<RetryPolicy>,
    /// When set, blobs headed for a full host pool spill to the SSD tier
    /// (counted as a degradation event) instead of erroring the caller.
    host_spill: AtomicBool,
}

impl TieredStore {
    /// Opens a store with the given tier configuration.
    pub fn new(config: TierConfig) -> Result<Self, StorageError> {
        fs::create_dir_all(&config.ssd_dir)?;
        Ok(TieredStore {
            config,
            inner: Mutex::named(
                "store.inner",
                Inner {
                    mem: HashMap::new(),
                    ssd: HashMap::new(),
                    segments: HashMap::new(),
                    next_seg: 0,
                    pending: HashSet::new(),
                    gpu_used: 0,
                    host_used: 0,
                    ssd_used: 0,
                    peak_used: [0; 3],
                },
            ),
            pending_cv: Condvar::named("store.pending_cv"),
            traffic: TrafficCounters::default(),
            throttle: Mutex::named("store.throttle", [None; 4]),
            telemetry: Arc::new(TelemetryRecorder::new()),
            fault: Mutex::named("store.fault", None),
            retry: Mutex::named("store.retry", RetryPolicy::default()),
            host_spill: AtomicBool::new(false),
        })
    }

    /// Installs (or clears) a fault-injection plan. All subsequent SSD
    /// file operations consult the plan before touching disk.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault.lock() = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault.lock().clone()
    }

    /// Replaces the SSD retry policy (default: 3 retries, 500 µs base
    /// backoff, doubling).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// The SSD retry policy in effect.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.lock()
    }

    /// Enables graceful degradation: an operation whose *final target* is
    /// the host pool and which would fail with a host OOM instead lands
    /// the blob on the SSD tier. Each spill bumps
    /// [`crate::telemetry::FaultStats::host_spills`]. Reads stay
    /// transparent — the blob is simply found on the SSD tier later.
    /// Off by default (capacity errors stay honest for sizing tests).
    pub fn set_spill_on_host_pressure(&self, on: bool) {
        self.host_spill.store(on, Ordering::Relaxed);
    }

    /// Whether host-pressure spilling is enabled.
    pub fn spill_on_host_pressure(&self) -> bool {
        self.host_spill.load(Ordering::Relaxed)
    }

    /// Runs one SSD file operation under the fault plan and retry policy:
    /// consults the plan (advancing its op counter — retries present new
    /// indices, which is how transient faults clear), then retries
    /// failures with geometric backoff up to the policy's budget. Retries
    /// and give-ups are counted in the recorder's always-on
    /// [`crate::telemetry::FaultStats`].
    ///
    /// Callers must NOT hold the store lock: backoff sleeps and injected
    /// latency spikes block for up to seconds, and holding the lock
    /// through them would serialize every unrelated transfer (the bug
    /// this protocol replaced). Instead, call sites mark their keys
    /// in [`Inner::pending`], drop the lock via
    /// [`TieredStore::run_unlocked`], and finalize after re-acquiring it.
    fn ssd_io<T>(
        &self,
        op: FaultOp,
        key: &str,
        mut io: impl FnMut() -> std::io::Result<T>,
    ) -> Result<T, StorageError> {
        let policy = *self.retry.lock();
        let plan = self.fault.lock().clone();
        // The whole I/O + latency-spike + retry-backoff loop must run
        // with no store lock held (PR 7 fixed two lock-held sleeps found
        // by eye; this excludes the class mechanically in debug builds).
        lockorder::assert_blocking_ok("ssd_io (file I/O, spikes, retry backoff)");
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let injected = plan.as_ref().and_then(|p| p.before_op(op, key));
            let result = match injected {
                Some(FaultKind::Transient) | Some(FaultKind::Permanent) => {
                    Err(StorageError::Faulted {
                        op,
                        key: key.to_string(),
                        attempts: attempt,
                    })
                }
                Some(FaultKind::LatencySpike(secs)) => {
                    if secs > 0.0 {
                        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
                    }
                    io().map_err(StorageError::Io)
                }
                None => io().map_err(StorageError::Io),
            };
            match result {
                Ok(v) => return Ok(v),
                Err(e) if attempt <= policy.max_retries && e.is_retryable() => {
                    self.telemetry.count_retry();
                    ratel_obs::flight().record(
                        ratel_obs::EventKind::Retry,
                        op.index() as u8,
                        key,
                        0,
                        attempt as u64,
                    );
                    let backoff = policy.backoff_seconds(attempt);
                    if backoff > 0.0 {
                        std::thread::sleep(std::time::Duration::from_secs_f64(backoff));
                    }
                }
                Err(e) => {
                    if e.is_retryable() {
                        self.telemetry.count_give_up();
                        // Black-box the failure: the ring's tail now holds
                        // this op's retries; dump it before the error
                        // propagates (the process may not survive it).
                        ratel_obs::flight().record(
                            ratel_obs::EventKind::GiveUp,
                            op.index() as u8,
                            key,
                            0,
                            attempt as u64,
                        );
                        ratel_obs::dump_postmortem("ssd retry budget exhausted");
                    }
                    return Err(match e {
                        StorageError::Faulted { op, key, .. } => StorageError::Faulted {
                            op,
                            key,
                            attempts: attempt,
                        },
                        other => other,
                    });
                }
            }
        }
    }

    /// Locks the store and blocks until `key` has no SSD I/O in flight.
    /// Every operation that examines or mutates a key's state must enter
    /// through this (or [`TieredStore::lock_keys`]) so it never observes
    /// the transient mid-I/O state.
    fn lock_key(&self, key: &str) -> MutexGuard<'_, Inner> {
        let mut inner = self.inner.lock();
        while inner.pending.contains(key) {
            self.pending_cv.wait(&mut inner);
        }
        inner
    }

    /// Locks the store and blocks until none of `keys` has I/O in flight.
    fn lock_keys(&self, keys: &[&str]) -> MutexGuard<'_, Inner> {
        let mut inner = self.inner.lock();
        loop {
            if keys.iter().any(|k| inner.pending.contains(*k)) {
                self.pending_cv.wait(&mut inner);
            } else {
                return inner;
            }
        }
    }

    /// Releases the lock, runs `f` (the slow part: file I/O, injected
    /// spikes, retry backoff), and re-acquires the lock. The caller must
    /// have marked the affected keys pending first and must clear them
    /// (via [`TieredStore::unpend`]) after finalizing.
    fn run_unlocked<'a, T>(
        &'a self,
        inner: MutexGuard<'a, Inner>,
        f: impl FnOnce() -> T,
    ) -> (MutexGuard<'a, Inner>, T) {
        drop(inner);
        lockorder::assert_blocking_ok("run_unlocked slow path");
        let result = f();
        (self.inner.lock(), result)
    }

    /// Clears pending marks and wakes waiters.
    fn unpend(&self, inner: &mut Inner, keys: &[&str]) {
        for k in keys {
            inner.pending.remove(*k);
        }
        self.pending_cv.notify_all();
    }

    /// Reads an SSD blob's bytes given its location. No lock held.
    fn read_ssd_blob(&self, key: &str, loc: SsdLoc) -> Result<Vec<u8>, StorageError> {
        match loc {
            SsdLoc::File { .. } => {
                self.ssd_io(FaultOp::Read, key, || fs::read(self.blob_path(key)))
            }
            SsdLoc::Segment { seg, offset, len } => {
                let path = self.segment_path(seg);
                self.ssd_io(FaultOp::Read, key, || {
                    use std::io::{Read, Seek, SeekFrom};
                    let mut f = fs::File::open(&path)?;
                    f.seek(SeekFrom::Start(offset))?;
                    let mut buf = vec![0u8; len as usize];
                    f.read_exact(&mut buf)?;
                    Ok(buf)
                })
            }
        }
    }

    /// Drops one reference to a segment (a blob left it). Returns the
    /// segment file to unlink if this was the last live blob; the caller
    /// unlinks best-effort *after* releasing the lock.
    fn release_segment(inner: &mut Inner, seg: u64) -> Option<u64> {
        // A missing refcount would mean the index already forgot this
        // segment; nothing to release, and unlinking now could race a
        // concurrent reuse — leave the file for store-drop cleanup.
        let live = inner.segments.get_mut(&seg)?;
        *live -= 1;
        if *live == 0 {
            inner.segments.remove(&seg);
            Some(seg)
        } else {
            None
        }
    }

    /// Best-effort unlink of a dead segment file. The blobs are already
    /// gone from the index, so a failure only orphans bytes in the SSD
    /// dir (cleaned up on store drop); it is not surfaced.
    fn unlink_segment(&self, seg: Option<u64>) {
        if let Some(seg) = seg {
            let _ = fs::remove_file(self.segment_path(seg));
        }
    }

    fn segment_path(&self, seg: u64) -> PathBuf {
        self.config.ssd_dir.join(format!("seg-{seg}"))
    }

    /// The store's telemetry recorder (disabled until
    /// [`TelemetryRecorder::set_enabled`] is called). Every transfer the
    /// store performs while enabled is recorded as a span tagged with
    /// route, blob key, and bytes, plus per-route latency metrics.
    pub fn telemetry(&self) -> &Arc<TelemetryRecorder> {
        &self.telemetry
    }

    /// Caps `route` at `bytes_per_sec` (None removes the cap). Transfers
    /// over a capped route block the calling thread for `bytes / rate`.
    pub fn set_throttle(&self, route: Route, bytes_per_sec: Option<f64>) {
        self.throttle.lock()[route.index()] = bytes_per_sec;
    }

    /// Sleeps according to the route's throttle, if any.
    fn apply_throttle(&self, route: Route, bytes: u64) {
        let rate = self.throttle.lock()[route.index()];
        if let Some(rate) = rate {
            if rate > 0.0 {
                let secs = bytes as f64 / rate;
                lockorder::assert_blocking_ok("throttle sleep");
                std::thread::sleep(std::time::Duration::from_secs_f64(secs));
            }
        }
    }

    fn capacity(&self, tier: Tier) -> Option<u64> {
        match tier {
            Tier::Gpu => self.config.gpu_capacity,
            Tier::Host => self.config.host_capacity,
            Tier::Ssd => self.config.ssd_capacity,
        }
    }

    fn used_locked(inner: &Inner, tier: Tier) -> u64 {
        match tier {
            Tier::Gpu => inner.gpu_used,
            Tier::Host => inner.host_used,
            Tier::Ssd => inner.ssd_used,
        }
    }

    fn check_fits(&self, inner: &Inner, tier: Tier, bytes: u64) -> Result<(), StorageError> {
        if let Some(cap) = self.capacity(tier) {
            let used = Self::used_locked(inner, tier);
            if used + bytes > cap {
                return Err(StorageError::OutOfMemory {
                    tier,
                    requested: bytes,
                    available: cap.saturating_sub(used),
                });
            }
        }
        Ok(())
    }

    fn add_used(inner: &mut Inner, tier: Tier, bytes: i64) {
        let slot = match tier {
            Tier::Gpu => &mut inner.gpu_used,
            Tier::Host => &mut inner.host_used,
            Tier::Ssd => &mut inner.ssd_used,
        };
        *slot = (*slot as i64 + bytes).max(0) as u64;
        let peak = &mut inner.peak_used[tier as usize];
        *peak = (*peak).max(*slot);
    }

    fn blob_path(&self, key: &str) -> PathBuf {
        // Keys may contain '/', which we flatten to keep one flat dir.
        self.config.ssd_dir.join(key.replace('/', "_"))
    }

    /// Stores a new blob in `tier`.
    ///
    /// With [`TieredStore::set_spill_on_host_pressure`] enabled, a put
    /// into a full host pool degrades to an SSD put (metered as a
    /// `Host -> SSD` transfer and counted as a spill) instead of erroring.
    ///
    /// # Errors
    /// [`StorageError::AlreadyExists`] on duplicate keys,
    /// [`StorageError::OutOfMemory`] if the tier is full.
    pub fn put(&self, key: &str, tier: Tier, bytes: Vec<u8>) -> Result<(), StorageError> {
        let len = bytes.len() as u64;
        let mut inner = self.lock_key(key);
        if inner.mem.contains_key(key) || inner.ssd.contains_key(key) {
            return Err(StorageError::AlreadyExists(key.to_string()));
        }
        let mut tier = tier;
        if let Err(e) = self.check_fits(&inner, tier, len) {
            let spillable = tier == Tier::Host && self.spill_on_host_pressure();
            if !spillable {
                return Err(e);
            }
            // Degrade: the blob lands on the SSD tier instead. The extra
            // hop is metered so traffic accounting stays honest.
            self.check_fits(&inner, Tier::Ssd, len)?;
            self.telemetry.count_host_spill();
            ratel_obs::flight().record(
                ratel_obs::EventKind::Spill,
                Route::HostToSsd.index() as u8,
                key,
                len,
                0,
            );
            tier = Tier::Ssd;
        }
        match tier {
            Tier::Gpu | Tier::Host => {
                inner.mem.insert(key.to_string(), (tier, bytes));
                Self::add_used(&mut inner, tier, len as i64);
                Ok(())
            }
            Tier::Ssd => {
                // Reserve space and mark the key in flight, then write
                // with the lock released so injected spikes and backoff
                // never stall unrelated keys.
                Self::add_used(&mut inner, Tier::Ssd, len as i64);
                inner.pending.insert(key.to_string());
                let (mut inner, res) = self.run_unlocked(inner, || {
                    self.ssd_io(FaultOp::Write, key, || {
                        fs::write(self.blob_path(key), &bytes)
                    })
                });
                match &res {
                    Ok(_) => {
                        inner.ssd.insert(key.to_string(), SsdLoc::File { len });
                    }
                    Err(_) => {
                        // Roll back the reservation; the key was never
                        // registered.
                        Self::add_used(&mut inner, Tier::Ssd, -(len as i64));
                    }
                }
                self.unpend(&mut inner, &[key]);
                res.map(|_| ())
            }
        }
    }

    /// Stores many new blobs at once. For the SSD tier the blobs are
    /// coalesced into **one** sequential segment file written with a
    /// single I/O — the batched write path that turns per-blob random
    /// writes into the sequential streams SSDs like. Memory tiers fall
    /// back to per-blob puts.
    ///
    /// All-or-nothing on SSD: capacity for the whole batch is checked up
    /// front, and a failed segment write registers none of the keys.
    ///
    /// # Errors
    /// Same as [`TieredStore::put`]; the first duplicate key aborts the
    /// whole batch before anything is written.
    pub fn put_batch(
        &self,
        tier: Tier,
        entries: Vec<(String, Vec<u8>)>,
    ) -> Result<(), StorageError> {
        if entries.is_empty() {
            return Ok(());
        }
        if tier != Tier::Ssd {
            for (key, bytes) in entries {
                self.put(&key, tier, bytes)?;
            }
            return Ok(());
        }
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let total: u64 = entries.iter().map(|(_, b)| b.len() as u64).sum();
        let mut inner = self.lock_keys(&keys);
        for key in &keys {
            if inner.mem.contains_key(*key) || inner.ssd.contains_key(*key) {
                return Err(StorageError::AlreadyExists(key.to_string()));
            }
        }
        self.check_fits(&inner, Tier::Ssd, total)?;
        Self::add_used(&mut inner, Tier::Ssd, total as i64);
        let seg = inner.next_seg;
        inner.next_seg += 1;
        for key in &keys {
            inner.pending.insert(key.to_string());
        }
        let seg_name = format!("seg-{seg}");
        let path = self.segment_path(seg);
        let (mut inner, res) = self.run_unlocked(inner, || {
            // One sequential stream into the segment file — no staging
            // copy. `File::create` truncates, so a retried attempt
            // restarts the segment from scratch.
            self.ssd_io(FaultOp::Write, &seg_name, || {
                use std::io::Write;
                let mut f = fs::File::create(&path)?;
                for (_, bytes) in &entries {
                    f.write_all(bytes)?;
                }
                Ok(())
            })
        });
        match &res {
            Ok(_) => {
                let mut offset = 0u64;
                for (key, bytes) in &entries {
                    let len = bytes.len() as u64;
                    inner
                        .ssd
                        .insert(key.clone(), SsdLoc::Segment { seg, offset, len });
                    offset += len;
                }
                inner.segments.insert(seg, entries.len() as u32);
            }
            Err(_) => {
                Self::add_used(&mut inner, Tier::Ssd, -(total as i64));
            }
        }
        self.unpend(&mut inner, &keys);
        res.map(|_| ())
    }

    /// Which tier currently holds `key`.
    pub fn tier_of(&self, key: &str) -> Result<Tier, StorageError> {
        let inner = self.lock_key(key);
        if let Some((tier, _)) = inner.mem.get(key) {
            Ok(*tier)
        } else if inner.ssd.contains_key(key) {
            Ok(Tier::Ssd)
        } else {
            Err(StorageError::NotFound(key.to_string()))
        }
    }

    /// Whether `key` exists in any tier.
    pub fn contains(&self, key: &str) -> bool {
        let inner = self.lock_key(key);
        inner.mem.contains_key(key) || inner.ssd.contains_key(key)
    }

    /// Reads a copy of the blob without moving it.
    pub fn read(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let mut inner = self.lock_key(key);
        if let Some((_, data)) = inner.mem.get(key) {
            return Ok(data.clone());
        }
        let Some(&loc) = inner.ssd.get(key) else {
            return Err(StorageError::NotFound(key.to_string()));
        };
        inner.pending.insert(key.to_string());
        let (mut inner, res) = self.run_unlocked(inner, || self.read_ssd_blob(key, loc));
        self.unpend(&mut inner, &[key]);
        res
    }

    /// Removes a blob and returns its bytes: [`TieredStore::read`] then
    /// [`TieredStore::remove`], but a memory-resident blob is handed
    /// over, not copied.
    pub fn take(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let mut inner = self.lock_key(key);
        if let Some((tier, data)) = inner.mem.remove(key) {
            Self::add_used(&mut inner, tier, -(data.len() as i64));
            return Ok(data);
        }
        drop(inner);
        let bytes = self.read(key)?;
        self.remove(key)?;
        Ok(bytes)
    }

    /// Removes a blob, freeing its tier space.
    pub fn remove(&self, key: &str) -> Result<(), StorageError> {
        let mut inner = self.lock_key(key);
        if let Some((tier, data)) = inner.mem.remove(key) {
            let len = data.len() as i64;
            Self::add_used(&mut inner, tier, -len);
            return Ok(());
        }
        let Some(&loc) = inner.ssd.get(key) else {
            return Err(StorageError::NotFound(key.to_string()));
        };
        match loc {
            SsdLoc::File { len } => {
                inner.pending.insert(key.to_string());
                let (mut inner, res) = self.run_unlocked(inner, || {
                    self.ssd_io(FaultOp::Remove, key, || {
                        fs::remove_file(self.blob_path(key))
                    })
                });
                if res.is_ok() {
                    inner.ssd.remove(key);
                    Self::add_used(&mut inner, Tier::Ssd, -(len as i64));
                }
                self.unpend(&mut inner, &[key]);
                res
            }
            SsdLoc::Segment { seg, len, .. } => {
                // No per-blob file op: the bytes just go dead inside the
                // segment, which is unlinked when its last live blob leaves.
                inner.ssd.remove(key);
                Self::add_used(&mut inner, Tier::Ssd, -(len as i64));
                let dead = Self::release_segment(&mut inner, seg);
                drop(inner);
                self.unlink_segment(dead);
                Ok(())
            }
        }
    }

    /// Moves a blob to `target`, metering every hop. GPU↔SSD moves are
    /// forced through the host tier (no GPUDirect on consumer GPUs,
    /// §III-C), so they record two hops *and* require transient host space.
    ///
    /// With [`TieredStore::set_spill_on_host_pressure`] enabled, a move
    /// whose *final target* is a full host pool degrades instead of
    /// erroring: an SSD-resident blob simply stays on SSD, a GPU-resident
    /// blob streams straight through to SSD (both hops metered, no host
    /// residency). Transit host space for GPU↔SSD moves is still required
    /// — only the destination degrades, not the data path.
    pub fn move_to(&self, key: &str, target: Tier) -> Result<(), StorageError> {
        let current = self.tier_of(key)?;
        if current == target {
            return Ok(());
        }
        let result = match (current, target) {
            (Tier::Gpu, Tier::Ssd) => self
                .move_one_hop(key, Tier::Host)
                .and_then(|_| self.move_one_hop(key, Tier::Ssd)),
            (Tier::Ssd, Tier::Gpu) => self
                .move_one_hop(key, Tier::Host)
                .and_then(|_| self.move_one_hop(key, Tier::Gpu)),
            _ => self.move_one_hop(key, target),
        };
        match result {
            Err(StorageError::OutOfMemory {
                tier: Tier::Host, ..
            }) if target == Tier::Host && self.spill_on_host_pressure() => {
                self.telemetry.count_host_spill();
                ratel_obs::flight().record(
                    ratel_obs::EventKind::Spill,
                    Route::HostToSsd.index() as u8,
                    key,
                    0,
                    0,
                );
                match current {
                    // Already on the slow tier: degrading means staying put.
                    Tier::Ssd => Ok(()),
                    // Stream GPU -> SSD without host residency.
                    Tier::Gpu => self.spill_gpu_to_ssd(key),
                    Tier::Host => unreachable!("current == target handled above"),
                }
            }
            other => other,
        }
    }

    /// Degraded GPU→SSD path used when the host pool is full: the blob is
    /// written straight to an SSD file and both logical hops are metered,
    /// but no host-tier residency is consumed (modeling a bounce buffer
    /// too small to count).
    fn spill_gpu_to_ssd(&self, key: &str) -> Result<(), StorageError> {
        let mut inner = self.lock_key(key);
        let bytes = match inner.mem.get(key) {
            Some((Tier::Gpu, data)) => data.clone(),
            _ => return Err(StorageError::NotFound(key.to_string())),
        };
        let len = bytes.len() as u64;
        self.check_fits(&inner, Tier::Ssd, len)?;
        Self::add_used(&mut inner, Tier::Ssd, len as i64);
        inner.pending.insert(key.to_string());
        let (mut inner, res) = self.run_unlocked(inner, || {
            self.ssd_io(FaultOp::Write, key, || {
                fs::write(self.blob_path(key), &bytes)
            })
        });
        match &res {
            Ok(_) => {
                inner.mem.remove(key);
                Self::add_used(&mut inner, Tier::Gpu, -(len as i64));
                inner.ssd.insert(key.to_string(), SsdLoc::File { len });
            }
            Err(_) => Self::add_used(&mut inner, Tier::Ssd, -(len as i64)),
        }
        self.unpend(&mut inner, &[key]);
        drop(inner);
        res?;
        for route in [Route::GpuToHost, Route::HostToSsd] {
            let t0 = self.telemetry.enabled().then(|| self.telemetry.now());
            self.traffic.record(route, len);
            ratel_obs::flight().record(
                ratel_obs::EventKind::Transfer,
                route.index() as u8,
                key,
                len,
                0,
            );
            self.apply_throttle(route, len);
            if let Some(t0) = t0 {
                self.telemetry
                    .record_transfer(route, key, len, t0, self.telemetry.now());
            }
        }
        Ok(())
    }

    fn move_one_hop(&self, key: &str, target: Tier) -> Result<(), StorageError> {
        // Span covers the whole hop — lock wait, file I/O, throttle sleep —
        // which is what a wall-clock bandwidth measurement should see.
        let t0 = self.telemetry.enabled().then(|| self.telemetry.now());
        let mut inner = self.lock_key(key);
        let current = if let Some((tier, _)) = inner.mem.get(key) {
            *tier
        } else if inner.ssd.contains_key(key) {
            Tier::Ssd
        } else {
            return Err(StorageError::NotFound(key.to_string()));
        };
        debug_assert_ne!(current, target);

        let route = match (current, target) {
            (Tier::Gpu, Tier::Host) => Route::GpuToHost,
            (Tier::Host, Tier::Gpu) => Route::HostToGpu,
            (Tier::Host, Tier::Ssd) => Route::HostToSsd,
            (Tier::Ssd, Tier::Host) => Route::SsdToHost,
            (a, b) => unreachable!("single hop {a:?}->{b:?}"),
        };

        // Commit target-first: the new copy exists before the old one goes
        // away, so a fault between the two steps can at worst orphan a
        // stale source copy — never lose the blob. All file I/O (and its
        // injected faults, spikes, and retry backoff) runs with the lock
        // released and the key marked pending.
        let len = match (current, target) {
            (Tier::Gpu, Tier::Host) | (Tier::Host, Tier::Gpu) => {
                // Pure in-memory hop: no file I/O, the entry is retagged
                // in place under the lock.
                let Some(entry) = inner.mem.get(key) else {
                    return Err(StorageError::NotFound(key.to_string()));
                };
                let len = entry.1.len() as u64;
                // The source still holds the blob while we check the
                // target, which is how double-buffered transfers behave.
                self.check_fits(&inner, target, len)?;
                if let Some(entry) = inner.mem.get_mut(key) {
                    entry.0 = target;
                }
                Self::add_used(&mut inner, target, len as i64);
                Self::add_used(&mut inner, current, -(len as i64));
                drop(inner);
                len
            }
            (_, Tier::Ssd) => {
                let bytes = match inner.mem.get(key) {
                    Some((_, b)) => b.clone(),
                    None => return Err(StorageError::NotFound(key.to_string())),
                };
                let len = bytes.len() as u64;
                self.check_fits(&inner, Tier::Ssd, len)?;
                Self::add_used(&mut inner, Tier::Ssd, len as i64);
                inner.pending.insert(key.to_string());
                let (mut inner, res) = self.run_unlocked(inner, || {
                    self.ssd_io(FaultOp::Write, key, || {
                        fs::write(self.blob_path(key), &bytes)
                    })
                });
                match &res {
                    Ok(_) => {
                        inner.ssd.insert(key.to_string(), SsdLoc::File { len });
                        inner.mem.remove(key);
                        Self::add_used(&mut inner, current, -(len as i64));
                    }
                    Err(_) => Self::add_used(&mut inner, Tier::Ssd, -(len as i64)),
                }
                self.unpend(&mut inner, &[key]);
                drop(inner);
                res?;
                len
            }
            (Tier::Ssd, _) => {
                let loc = match inner.ssd.get(key) {
                    Some(loc) => *loc,
                    None => return Err(StorageError::NotFound(key.to_string())),
                };
                let len = loc.len();
                self.check_fits(&inner, target, len)?;
                inner.pending.insert(key.to_string());
                let (mut inner, res) = self.run_unlocked(inner, || self.read_ssd_blob(key, loc));
                let bytes = match res {
                    Ok(b) => b,
                    Err(e) => {
                        self.unpend(&mut inner, &[key]);
                        return Err(e);
                    }
                };
                inner.mem.insert(key.to_string(), (target, bytes));
                Self::add_used(&mut inner, target, len as i64);
                inner.ssd.remove(key);
                Self::add_used(&mut inner, Tier::Ssd, -(len as i64));
                // Drop the stale on-disk copy, best-effort (the blob is
                // safe in its target tier). The key stays pending through
                // the unlink so a concurrent re-put can't race with it.
                let dead_seg = match loc {
                    SsdLoc::File { .. } => {
                        inner = self
                            .run_unlocked(inner, || {
                                let _ = self.ssd_io(FaultOp::Remove, key, || {
                                    fs::remove_file(self.blob_path(key))
                                });
                            })
                            .0;
                        None
                    }
                    SsdLoc::Segment { seg, .. } => Self::release_segment(&mut inner, seg),
                };
                self.unpend(&mut inner, &[key]);
                drop(inner);
                self.unlink_segment(dead_seg);
                len
            }
            (a, b) => unreachable!("single hop {a:?}->{b:?}"),
        };

        self.traffic.record(route, len);
        ratel_obs::flight().record(
            ratel_obs::EventKind::Transfer,
            route.index() as u8,
            key,
            len,
            0,
        );
        self.apply_throttle(route, len);
        if let Some(t0) = t0 {
            self.telemetry
                .record_transfer(route, key, len, t0, self.telemetry.now());
        }
        Ok(())
    }

    /// Stages a *copy* of `key` into `tier` under `new_key`, metering the
    /// hops from the source tier (via host if GPU<->SSD). This models a
    /// read-only fetch — e.g. streaming a layer's P16 from SSD to the GPU
    /// for compute — where the source copy stays put and the staged copy
    /// is discarded (via [`TieredStore::remove`]) after use. Like
    /// [`TieredStore::move_to`], a GPU<->SSD copy needs transient host
    /// space for the blob and is refused when the host pool has none.
    pub fn copy_to(&self, key: &str, new_key: &str, tier: Tier) -> Result<(), StorageError> {
        let src_tier = self.tier_of(key)?;
        let bytes = self.read(key)?;
        let len = bytes.len() as u64;
        let hops: &[Route] = match (src_tier, tier) {
            (a, b) if a == b => &[],
            (Tier::Gpu, Tier::Host) => &[Route::GpuToHost],
            (Tier::Host, Tier::Gpu) => &[Route::HostToGpu],
            (Tier::Host, Tier::Ssd) => &[Route::HostToSsd],
            (Tier::Ssd, Tier::Host) => &[Route::SsdToHost],
            (Tier::Gpu, Tier::Ssd) => &[Route::GpuToHost, Route::HostToSsd],
            (Tier::Ssd, Tier::Gpu) => &[Route::SsdToHost, Route::HostToGpu],
            _ => unreachable!(),
        };
        if hops.len() == 2 {
            self.check_fits(&self.inner.lock(), Tier::Host, len)?;
        }
        self.put(new_key, tier, bytes)?;
        for &h in hops {
            let t0 = self.telemetry.enabled().then(|| self.telemetry.now());
            self.traffic.record(h, len);
            ratel_obs::flight().record(
                ratel_obs::EventKind::Transfer,
                h.index() as u8,
                key,
                len,
                0,
            );
            self.apply_throttle(h, len);
            if let Some(t0) = t0 {
                self.telemetry
                    .record_transfer(h, key, len, t0, self.telemetry.now());
            }
        }
        Ok(())
    }

    /// Overwrites an existing blob in place (same tier). Used by the
    /// optimizer to write back updated master states. A segment-resident
    /// SSD blob migrates to its own file (its segment bytes go dead).
    pub fn overwrite(&self, key: &str, bytes: Vec<u8>) -> Result<(), StorageError> {
        let new_len = bytes.len() as u64;
        let mut inner = self.lock_key(key);
        if let Some((tier, data)) = inner.mem.get(key) {
            let tier = *tier;
            let old_len = data.len() as u64;
            if new_len > old_len {
                self.check_fits(&inner, tier, new_len - old_len)?;
            }
            inner.mem.insert(key.to_string(), (tier, bytes));
            Self::add_used(&mut inner, tier, new_len as i64 - old_len as i64);
            return Ok(());
        }
        let Some(&loc) = inner.ssd.get(key) else {
            return Err(StorageError::NotFound(key.to_string()));
        };
        let old_len = loc.len();
        // Reserve any growth up front so concurrent writers can't both
        // pass the capacity check; shrinkage is credited after success.
        if new_len > old_len {
            self.check_fits(&inner, Tier::Ssd, new_len - old_len)?;
            Self::add_used(&mut inner, Tier::Ssd, (new_len - old_len) as i64);
        }
        inner.pending.insert(key.to_string());
        let (mut inner, res) = self.run_unlocked(inner, || {
            self.ssd_io(FaultOp::Write, key, || {
                fs::write(self.blob_path(key), &bytes)
            })
        });
        let dead_seg = match &res {
            Ok(_) => {
                if new_len < old_len {
                    Self::add_used(&mut inner, Tier::Ssd, -((old_len - new_len) as i64));
                }
                let old = inner
                    .ssd
                    .insert(key.to_string(), SsdLoc::File { len: new_len });
                match old {
                    Some(SsdLoc::Segment { seg, .. }) => Self::release_segment(&mut inner, seg),
                    _ => None,
                }
            }
            Err(_) => {
                if new_len > old_len {
                    Self::add_used(&mut inner, Tier::Ssd, -((new_len - old_len) as i64));
                }
                None
            }
        };
        self.unpend(&mut inner, &[key]);
        drop(inner);
        self.unlink_segment(dead_seg);
        res.map(|_| ())
    }

    /// Bytes currently resident in `tier`.
    pub fn used(&self, tier: Tier) -> u64 {
        Self::used_locked(&self.inner.lock(), tier)
    }

    /// The most bytes `tier` held at once since the store was opened or
    /// [`TieredStore::reset_traffic`] was last called.
    pub fn peak_used(&self, tier: Tier) -> u64 {
        self.inner.lock().peak_used[tier as usize]
    }

    /// Current traffic counters.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.traffic.snapshot()
    }

    /// Resets the traffic counters and restarts the tiers' high-water
    /// marks from what they hold now (e.g. between iterations).
    pub fn reset_traffic(&self) {
        self.traffic.reset();
        let mut inner = self.inner.lock();
        inner.peak_used = [inner.gpu_used, inner.host_used, inner.ssd_used];
    }
}

impl Drop for TieredStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.config.ssd_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_read_remove_round_trip() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("a", Tier::Gpu, vec![1, 2, 3]).unwrap();
        assert_eq!(store.read("a").unwrap(), vec![1, 2, 3]);
        assert_eq!(store.tier_of("a").unwrap(), Tier::Gpu);
        assert_eq!(store.used(Tier::Gpu), 3);
        store.remove("a").unwrap();
        assert!(!store.contains("a"));
        assert_eq!(store.used(Tier::Gpu), 0);
    }

    #[test]
    fn ssd_tier_really_writes_files() {
        let config = TierConfig::unbounded_temp();
        let dir = config.ssd_dir.clone();
        let store = TieredStore::new(config).unwrap();
        store.put("w/x", Tier::Ssd, vec![9u8; 64]).unwrap();
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(store.read("w/x").unwrap(), vec![9u8; 64]);
        drop(store);
        assert!(!dir.exists(), "ssd dir should be cleaned up on drop");
    }

    #[test]
    fn capacity_is_enforced() {
        let store = TieredStore::new(TierConfig::bounded_temp(10, 100)).unwrap();
        store.put("a", Tier::Gpu, vec![0u8; 8]).unwrap();
        let err = store.put("b", Tier::Gpu, vec![0u8; 8]).unwrap_err();
        match err {
            StorageError::OutOfMemory {
                tier,
                requested,
                available,
            } => {
                assert_eq!(tier, Tier::Gpu);
                assert_eq!(requested, 8);
                assert_eq!(available, 2);
            }
            other => panic!("expected OOM, got {other}"),
        }
        // Freeing makes room again.
        store.remove("a").unwrap();
        store.put("b", Tier::Gpu, vec![0u8; 8]).unwrap();
    }

    #[test]
    fn gpu_to_ssd_routes_through_host_and_meters_both_hops() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("t", Tier::Gpu, vec![0u8; 100]).unwrap();
        store.move_to("t", Tier::Ssd).unwrap();
        assert_eq!(store.tier_of("t").unwrap(), Tier::Ssd);
        let s = store.traffic();
        assert_eq!(s.bytes(Route::GpuToHost), 100);
        assert_eq!(s.bytes(Route::HostToSsd), 100);
        // And back.
        store.move_to("t", Tier::Gpu).unwrap();
        let s = store.traffic();
        assert_eq!(s.bytes(Route::SsdToHost), 100);
        assert_eq!(s.bytes(Route::HostToGpu), 100);
        assert_eq!(store.used(Tier::Host), 0);
    }

    #[test]
    fn gpu_to_ssd_requires_transient_host_space() {
        let mut config = TierConfig::bounded_temp(1000, 50);
        config.ssd_capacity = None;
        let store = TieredStore::new(config).unwrap();
        store.put("big", Tier::Gpu, vec![0u8; 100]).unwrap();
        let err = store.move_to("big", Tier::Ssd).unwrap_err();
        assert!(matches!(
            err,
            StorageError::OutOfMemory {
                tier: Tier::Host,
                ..
            }
        ));
        // Blob is still intact on the GPU tier.
        assert_eq!(store.tier_of("big").unwrap(), Tier::Gpu);
    }

    #[test]
    fn a_two_hop_copy_requires_transient_host_space_too() {
        let store = TieredStore::new(TierConfig::bounded_temp(1000, 150)).unwrap();
        store.put("p16", Tier::Ssd, vec![3u8; 100]).unwrap();
        // 50 B held: the 100 B transit copy fits exactly.
        store.put("held", Tier::Host, vec![0u8; 50]).unwrap();
        store.copy_to("p16", "staged", Tier::Gpu).unwrap();
        assert_eq!(store.take("staged").unwrap(), vec![3u8; 100]);
        assert_eq!(store.traffic().bytes(Route::SsdToHost), 100);
        assert_eq!(store.traffic().bytes(Route::HostToGpu), 100);
        // One byte more held and it is refused, as `move_to` would be —
        // spilling degrades a destination, never the data path.
        store.put("one", Tier::Host, vec![0u8; 1]).unwrap();
        store.set_spill_on_host_pressure(true);
        let before = store.traffic();
        let err = store.copy_to("p16", "staged", Tier::Gpu).unwrap_err();
        assert!(matches!(
            err,
            StorageError::OutOfMemory {
                tier: Tier::Host,
                requested: 100,
                available: 99,
            }
        ));
        assert!(!store.contains("staged"));
        assert_eq!(store.traffic().since(&before).total(), 0);
        assert_eq!(store.telemetry().fault_stats().host_spills, 0);
        // A one-hop copy into the GPU arena needs no transit space.
        store.copy_to("held", "staged", Tier::Gpu).unwrap();
        assert_eq!(store.used(Tier::Gpu), 50);
    }

    #[test]
    fn memory_hops_and_take_hand_the_buffer_over_without_copying() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        let bytes = vec![7u8; 4096];
        let buffer = bytes.as_ptr();
        store.put("a", Tier::Gpu, bytes).unwrap();
        store.move_to("a", Tier::Host).unwrap();
        assert_eq!(store.tier_of("a").unwrap(), Tier::Host);
        assert_eq!((store.used(Tier::Gpu), store.used(Tier::Host)), (0, 4096));
        store.move_to("a", Tier::Gpu).unwrap();
        let taken = store.take("a").unwrap();
        assert_eq!(taken.as_ptr(), buffer, "a hop or the take copied the blob");
        assert_eq!(taken, vec![7u8; 4096]);
        assert!(!store.contains("a"));
        assert_eq!(store.used(Tier::Gpu), 0);
        let s = store.traffic();
        assert_eq!(s.bytes(Route::GpuToHost), 4096);
        assert_eq!(s.bytes(Route::HostToGpu), 4096);
        // An SSD-resident blob is read, then removed.
        store.put("s", Tier::Ssd, vec![3u8; 16]).unwrap();
        assert_eq!(store.take("s").unwrap(), vec![3u8; 16]);
        assert_eq!(store.used(Tier::Ssd), 0);
        assert!(matches!(store.take("s"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn peak_used_is_a_high_water_mark_reset_with_the_traffic_counters() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("a", Tier::Gpu, vec![0u8; 100]).unwrap();
        store.put("b", Tier::Gpu, vec![0u8; 50]).unwrap();
        store.remove("a").unwrap();
        assert_eq!(store.used(Tier::Gpu), 50);
        assert_eq!(store.peak_used(Tier::Gpu), 150);
        assert_eq!(store.peak_used(Tier::Host), 0);
        store.reset_traffic();
        assert_eq!(store.peak_used(Tier::Gpu), 50, "restarts from what is held");
        store.move_to("b", Tier::Host).unwrap();
        assert_eq!(store.peak_used(Tier::Host), 50);
    }

    #[test]
    fn move_to_same_tier_is_a_noop() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("t", Tier::Host, vec![0u8; 10]).unwrap();
        store.move_to("t", Tier::Host).unwrap();
        assert_eq!(store.traffic().total(), 0);
    }

    #[test]
    fn overwrite_adjusts_usage() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("s", Tier::Ssd, vec![0u8; 10]).unwrap();
        store.overwrite("s", vec![1u8; 30]).unwrap();
        assert_eq!(store.used(Tier::Ssd), 30);
        assert_eq!(store.read("s").unwrap(), vec![1u8; 30]);
        store.overwrite("s", vec![2u8; 5]).unwrap();
        assert_eq!(store.used(Tier::Ssd), 5);
    }

    #[test]
    fn duplicate_put_is_rejected() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("k", Tier::Host, vec![1]).unwrap();
        assert!(matches!(
            store.put("k", Tier::Ssd, vec![2]),
            Err(StorageError::AlreadyExists(_))
        ));
    }

    #[test]
    fn missing_keys_error() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        assert!(matches!(store.read("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(
            store.move_to("nope", Tier::Gpu),
            Err(StorageError::NotFound(_))
        ));
        assert!(matches!(
            store.remove("nope"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let store = std::sync::Arc::new(TieredStore::new(TierConfig::unbounded_temp()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let key = format!("t{t}/k{i}");
                    s.put(&key, Tier::Host, vec![0u8; 128]).unwrap();
                    s.move_to(&key, Tier::Ssd).unwrap();
                    s.move_to(&key, Tier::Host).unwrap();
                    s.remove(&key).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.used(Tier::Host), 0);
        assert_eq!(store.used(Tier::Ssd), 0);
        assert_eq!(store.traffic().bytes(Route::HostToSsd), 4 * 50 * 128);
    }
}

#[cfg(test)]
mod segment_tests {
    use super::*;

    fn batch(n: usize, len: usize) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| (format!("seg/k{i}"), vec![i as u8 + 1; len]))
            .collect()
    }

    #[test]
    fn put_batch_coalesces_into_one_segment_file() {
        let config = TierConfig::unbounded_temp();
        let dir = config.ssd_dir.clone();
        let store = TieredStore::new(config).unwrap();
        store.put_batch(Tier::Ssd, batch(3, 64)).unwrap();
        // One sequential segment file, not three blob files.
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "expected one coalesced segment file");
        for i in 0..3 {
            let key = format!("seg/k{i}");
            assert_eq!(store.tier_of(&key).unwrap(), Tier::Ssd);
            assert_eq!(store.read(&key).unwrap(), vec![i as u8 + 1; 64]);
        }
        assert_eq!(store.used(Tier::Ssd), 3 * 64);
    }

    #[test]
    fn segment_is_unlinked_when_last_blob_leaves() {
        let config = TierConfig::unbounded_temp();
        let dir = config.ssd_dir.clone();
        let store = TieredStore::new(config).unwrap();
        store.put_batch(Tier::Ssd, batch(2, 32)).unwrap();
        store.remove("seg/k0").unwrap();
        // Dead bytes linger while k1 is live.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(store.used(Tier::Ssd), 32);
        assert_eq!(store.read("seg/k1").unwrap(), vec![2u8; 32]);
        store.remove("seg/k1").unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "segment not GCed");
        assert_eq!(store.used(Tier::Ssd), 0);
    }

    #[test]
    fn overwrite_migrates_segment_blob_to_own_file() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put_batch(Tier::Ssd, batch(2, 16)).unwrap();
        store.overwrite("seg/k0", vec![9u8; 40]).unwrap();
        assert_eq!(store.read("seg/k0").unwrap(), vec![9u8; 40]);
        // The neighbour's bytes are untouched by the migration.
        assert_eq!(store.read("seg/k1").unwrap(), vec![2u8; 16]);
        assert_eq!(store.used(Tier::Ssd), 40 + 16);
        // k0 now lives in its own file; removing k1 GCs the segment and
        // removing k0 unlinks the file.
        store.remove("seg/k1").unwrap();
        store.remove("seg/k0").unwrap();
        assert_eq!(store.used(Tier::Ssd), 0);
    }

    #[test]
    fn move_lifts_blob_out_of_its_segment() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put_batch(Tier::Ssd, batch(2, 128)).unwrap();
        store.move_to("seg/k0", Tier::Host).unwrap();
        assert_eq!(store.tier_of("seg/k0").unwrap(), Tier::Host);
        assert_eq!(store.read("seg/k0").unwrap(), vec![1u8; 128]);
        assert_eq!(store.read("seg/k1").unwrap(), vec![2u8; 128]);
        assert_eq!(store.traffic().bytes(Route::SsdToHost), 128);
        assert_eq!(store.used(Tier::Ssd), 128);
        assert_eq!(store.used(Tier::Host), 128);
    }

    #[test]
    fn put_batch_rejects_duplicates_atomically() {
        let config = TierConfig::unbounded_temp();
        let dir = config.ssd_dir.clone();
        let store = TieredStore::new(config).unwrap();
        store.put("seg/k1", Tier::Host, vec![0u8; 4]).unwrap();
        let err = store.put_batch(Tier::Ssd, batch(3, 8)).unwrap_err();
        assert!(matches!(err, StorageError::AlreadyExists(_)));
        // Nothing from the batch landed.
        assert!(!store.contains("seg/k0"));
        assert_eq!(store.used(Tier::Ssd), 0);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
    }

    #[test]
    fn put_batch_enforces_total_capacity() {
        let mut config = TierConfig::unbounded_temp();
        config.ssd_capacity = Some(100);
        let store = TieredStore::new(config).unwrap();
        let err = store.put_batch(Tier::Ssd, batch(3, 40)).unwrap_err();
        assert!(matches!(
            err,
            StorageError::OutOfMemory {
                tier: Tier::Ssd,
                ..
            }
        ));
        assert_eq!(store.used(Tier::Ssd), 0);
        // A batch that fits goes through.
        store.put_batch(Tier::Ssd, batch(2, 40)).unwrap();
        assert_eq!(store.used(Tier::Ssd), 80);
    }

    #[test]
    fn put_batch_to_memory_tier_falls_back_to_per_blob_puts() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put_batch(Tier::Host, batch(2, 16)).unwrap();
        assert_eq!(store.tier_of("seg/k0").unwrap(), Tier::Host);
        assert_eq!(store.used(Tier::Host), 32);
    }

    #[test]
    fn failed_segment_write_registers_nothing() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.set_retry_policy(RetryPolicy::none());
        let plan = Arc::new(crate::fault::FaultPlan::new());
        plan.fault_on_key("seg-0", crate::fault::FaultKind::Permanent);
        store.set_fault_plan(Some(plan));
        let err = store.put_batch(Tier::Ssd, batch(2, 8)).unwrap_err();
        assert!(matches!(err, StorageError::Faulted { .. }));
        assert!(!store.contains("seg/k0"));
        assert!(!store.contains("seg/k1"));
        assert_eq!(store.used(Tier::Ssd), 0);
        // The keys are not left pending: later puts proceed normally.
        store.set_fault_plan(None);
        store.put_batch(Tier::Ssd, batch(2, 8)).unwrap();
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultOp, FaultPlan};

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_seconds: 0.0,
            multiplier: 1.0,
        }
    }

    #[test]
    fn transient_fault_is_retried_transparently() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.set_retry_policy(fast_retry());
        let plan = Arc::new(FaultPlan::new());
        plan.fault_at(0, FaultKind::Transient); // first SSD op fails once
        store.set_fault_plan(Some(plan.clone()));
        store.put("k", Tier::Ssd, vec![7u8; 32]).unwrap();
        assert_eq!(store.read("k").unwrap(), vec![7u8; 32]);
        assert_eq!(plan.injected_count(), 1);
        let stats = store.telemetry().fault_stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.give_ups, 0);
    }

    #[test]
    fn permanent_fault_exhausts_retries_and_surfaces() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.set_retry_policy(fast_retry());
        let plan = Arc::new(FaultPlan::new());
        plan.fault_at(0, FaultKind::Permanent);
        store.set_fault_plan(Some(plan));
        let err = store.put("k", Tier::Ssd, vec![0u8; 8]).unwrap_err();
        match err {
            StorageError::Faulted { op, attempts, .. } => {
                assert_eq!(op, FaultOp::Write);
                assert_eq!(attempts, 4, "1 initial + 3 retries");
            }
            other => panic!("expected Faulted, got {other}"),
        }
        let stats = store.telemetry().fault_stats();
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.give_ups, 1);
        // The store stays consistent: the key was never registered.
        assert!(!store.contains("k"));
    }

    #[test]
    fn latency_spike_delays_but_succeeds() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        let plan = Arc::new(FaultPlan::new());
        plan.fault_at(0, FaultKind::LatencySpike(0.05));
        store.set_fault_plan(Some(plan));
        let t0 = std::time::Instant::now();
        store.put("k", Tier::Ssd, vec![1u8; 8]).unwrap();
        assert!(t0.elapsed().as_secs_f64() >= 0.045, "spike not applied");
        assert_eq!(store.read("k").unwrap(), vec![1u8; 8]);
        assert_eq!(store.telemetry().fault_stats().retries, 0);
    }

    #[test]
    fn faulted_move_leaves_blob_in_source_tier() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.set_retry_policy(RetryPolicy::none());
        store.put("k", Tier::Host, vec![3u8; 16]).unwrap();
        let plan = Arc::new(FaultPlan::new());
        plan.fault_at_op(0, FaultOp::Write, FaultKind::Permanent);
        store.set_fault_plan(Some(plan));
        let err = store.move_to("k", Tier::Ssd).unwrap_err();
        assert!(matches!(err, StorageError::Faulted { .. }));
        // Target-first commit: the write never landed, the source copy is
        // still intact and readable.
        assert_eq!(store.tier_of("k").unwrap(), Tier::Host);
        assert_eq!(store.read("k").unwrap(), vec![3u8; 16]);
        assert_eq!(store.used(Tier::Ssd), 0);
    }

    #[test]
    fn host_pressure_put_spills_to_ssd_when_enabled() {
        let store = TieredStore::new(TierConfig::bounded_temp(1000, 10)).unwrap();
        // Without the knob the OOM is honest.
        assert!(matches!(
            store.put("big", Tier::Host, vec![0u8; 64]),
            Err(StorageError::OutOfMemory {
                tier: Tier::Host,
                ..
            })
        ));
        store.set_spill_on_host_pressure(true);
        store.put("big", Tier::Host, vec![5u8; 64]).unwrap();
        assert_eq!(store.tier_of("big").unwrap(), Tier::Ssd);
        assert_eq!(store.read("big").unwrap(), vec![5u8; 64]);
        assert_eq!(store.used(Tier::Host), 0);
        assert_eq!(store.telemetry().fault_stats().host_spills, 1);
    }

    #[test]
    fn host_pressure_move_spills_gpu_blob_to_ssd() {
        let store = TieredStore::new(TierConfig::bounded_temp(1000, 10)).unwrap();
        store.set_spill_on_host_pressure(true);
        store.put("g", Tier::Gpu, vec![2u8; 64]).unwrap();
        store.move_to("g", Tier::Host).unwrap();
        assert_eq!(store.tier_of("g").unwrap(), Tier::Ssd);
        // Both logical hops of the degraded path are metered.
        let s = store.traffic();
        assert_eq!(s.bytes(Route::GpuToHost), 64);
        assert_eq!(s.bytes(Route::HostToSsd), 64);
        assert_eq!(store.used(Tier::Gpu), 0);
        assert_eq!(store.telemetry().fault_stats().host_spills, 1);
    }

    #[test]
    fn host_pressure_move_keeps_ssd_blob_on_ssd() {
        let store = TieredStore::new(TierConfig::bounded_temp(1000, 10)).unwrap();
        store.set_spill_on_host_pressure(true);
        store.put("s", Tier::Ssd, vec![4u8; 64]).unwrap();
        store.move_to("s", Tier::Host).unwrap();
        assert_eq!(store.tier_of("s").unwrap(), Tier::Ssd);
        assert_eq!(store.telemetry().fault_stats().host_spills, 1);
        // No phantom traffic for a move that never happened.
        assert_eq!(store.traffic().total(), 0);
    }

    #[test]
    fn latency_spike_on_one_key_does_not_stall_other_keys() {
        // Regression test for sleeping while holding the store lock: a
        // seconds-scale injected spike on one blob must not serialize an
        // unrelated blob's I/O behind it.
        let store = std::sync::Arc::new(TieredStore::new(TierConfig::unbounded_temp()).unwrap());
        let plan = Arc::new(FaultPlan::new());
        plan.fault_on_key_op("slow", FaultOp::Write, FaultKind::LatencySpike(0.6));
        store.set_fault_plan(Some(plan));

        let s = store.clone();
        let spiked = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            s.put("slow", Tier::Ssd, vec![1u8; 64]).unwrap();
            t0.elapsed().as_secs_f64()
        });
        // Give the spiked write time to enter its sleep.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let t0 = std::time::Instant::now();
        store.put("fast", Tier::Ssd, vec![2u8; 64]).unwrap();
        let bytes = store.read("fast").unwrap();
        let fast_elapsed = t0.elapsed().as_secs_f64();
        let slow_elapsed = spiked.join().unwrap();

        assert!(
            slow_elapsed >= 0.55,
            "spike not applied: {slow_elapsed:.3}s"
        );
        assert!(
            fast_elapsed < 0.3,
            "unrelated key serialized behind the spike: {fast_elapsed:.3}s"
        );
        assert_eq!(bytes, vec![2u8; 64]);
        assert_eq!(store.read("slow").unwrap(), vec![1u8; 64]);
    }

    #[test]
    fn retry_backoff_does_not_hold_the_lock() {
        // Same property for the retry path: a transient fault's backoff
        // sleep must only delay the faulted key.
        let store = std::sync::Arc::new(TieredStore::new(TierConfig::unbounded_temp()).unwrap());
        store.set_retry_policy(RetryPolicy {
            max_retries: 1,
            base_seconds: 0.5,
            multiplier: 1.0,
        });
        let plan = Arc::new(FaultPlan::new());
        plan.fault_on_key("flaky", FaultKind::Transient);
        store.set_fault_plan(Some(plan));

        let s = store.clone();
        let flaky = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            s.put("flaky", Tier::Ssd, vec![3u8; 32]).unwrap();
            t0.elapsed().as_secs_f64()
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        let t0 = std::time::Instant::now();
        store.put("steady", Tier::Ssd, vec![4u8; 32]).unwrap();
        let steady_elapsed = t0.elapsed().as_secs_f64();
        let flaky_elapsed = flaky.join().unwrap();

        assert!(
            flaky_elapsed >= 0.45,
            "backoff skipped: {flaky_elapsed:.3}s"
        );
        assert!(
            steady_elapsed < 0.25,
            "unrelated key waited out the backoff: {steady_elapsed:.3}s"
        );
        assert_eq!(store.read("flaky").unwrap(), vec![3u8; 32]);
        assert_eq!(store.telemetry().fault_stats().retries, 1);
    }

    #[test]
    fn same_key_operations_still_serialize_behind_in_flight_io() {
        // The per-key pending set is what preserves atomicity: a reader of
        // the spiked key must wait for the write to land.
        let store = std::sync::Arc::new(TieredStore::new(TierConfig::unbounded_temp()).unwrap());
        let plan = Arc::new(FaultPlan::new());
        plan.fault_on_key_op("k", FaultOp::Write, FaultKind::LatencySpike(0.3));
        store.set_fault_plan(Some(plan));
        let s = store.clone();
        let writer = std::thread::spawn(move || s.put("k", Tier::Ssd, vec![5u8; 16]).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(100));
        // The key is mid-write; contains() must not observe the half-done
        // state, and read() must return the completed bytes.
        assert!(store.contains("k"));
        assert_eq!(store.read("k").unwrap(), vec![5u8; 16]);
        writer.join().unwrap();
    }
}

#[cfg(test)]
mod throttle_tests {
    use super::*;

    #[test]
    fn throttled_route_takes_proportional_time() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("t", Tier::Host, vec![0u8; 100_000]).unwrap();
        // 1 MB/s -> 100 KB takes ~100 ms.
        store.set_throttle(Route::HostToSsd, Some(1e6));
        let t0 = std::time::Instant::now();
        store.move_to("t", Tier::Ssd).unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed >= 0.09, "only {elapsed:.3}s");
        // The reverse route is not throttled.
        let t0 = std::time::Instant::now();
        store.move_to("t", Tier::Host).unwrap();
        assert!(t0.elapsed().as_secs_f64() < 0.05);
        // Removing the cap restores full speed.
        store.set_throttle(Route::HostToSsd, None);
        let t0 = std::time::Instant::now();
        store.move_to("t", Tier::Ssd).unwrap();
        assert!(t0.elapsed().as_secs_f64() < 0.05);
    }

    #[test]
    fn throttled_transfer_lands_in_the_latency_histogram() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.telemetry().set_enabled(true);
        store.put("t", Tier::Host, vec![0u8; 100_000]).unwrap();
        // 1 MB/s -> this 100 KB hop must take >= bytes/rate = 100 ms.
        store.set_throttle(Route::HostToSsd, Some(1e6));
        let t0 = std::time::Instant::now();
        store.move_to("t", Tier::Ssd).unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed >= 0.1, "only {elapsed:.3}s for bytes/rate = 0.1s");

        let metrics = store.telemetry().route_metrics();
        let m = &metrics[Route::HostToSsd.index()];
        assert_eq!(m.ops, 1);
        assert_eq!(m.bytes, 100_000);
        assert!(m.seconds >= 0.1, "span shorter than the throttle sleep");
        assert_eq!(m.histogram.count(), 1);
        // The observation sits in a bucket whose bounds contain it.
        let bucket = (0..ratel_obs::metrics::HISTOGRAM_BUCKETS)
            .find(|&i| m.histogram.bucket_count(i) == 1)
            .expect("one bucket holds the observation");
        let (lo, hi) = crate::telemetry::LatencyHistogram::bucket_bounds(bucket);
        assert!(lo <= m.seconds && m.seconds < hi);
        // Achieved bandwidth reflects the cap (can only be slower).
        let bw = m.achieved_bandwidth().unwrap();
        assert!(
            bw <= 1e6 * 1.01,
            "achieved {bw:.0} B/s beats the 1 MB/s cap"
        );
        // The untouched routes recorded nothing.
        assert_eq!(metrics[Route::GpuToHost.index()].ops, 0);
    }

    #[test]
    fn throttled_routes_overlap_across_threads() {
        // Two different routes sleep concurrently, not serially — the
        // property the active optimizer's overlap relies on.
        let store = std::sync::Arc::new(TieredStore::new(TierConfig::unbounded_temp()).unwrap());
        store.put("a", Tier::Host, vec![0u8; 100_000]).unwrap();
        store.put("b", Tier::Ssd, vec![0u8; 100_000]).unwrap();
        store.set_throttle(Route::HostToSsd, Some(1e6));
        store.set_throttle(Route::SsdToHost, Some(1e6));
        let t0 = std::time::Instant::now();
        let s1 = store.clone();
        let h = std::thread::spawn(move || s1.move_to("a", Tier::Ssd).unwrap());
        store.move_to("b", Tier::Host).unwrap();
        h.join().unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        // Each move sleeps ~100 ms; overlapped they finish well under the
        // 200 ms serial time.
        assert!(elapsed < 0.18, "transfers serialized: {elapsed:.3}s");
    }
}
