//! The tiered store itself. Its SSD tier keeps each blob in a file of
//! its own.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Where an SSD-tier blob's bytes live: the whole of the store's file
/// number `file`, `len` bytes long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SsdLoc {
    file: u64,
    len: u64,
}

#[derive(Debug)]
struct Inner<K> {
    /// In-memory blobs (GPU and host tiers).
    mem: HashMap<K, (Tier, Vec<u8>)>,
    /// SSD-tier blob locations (contents live in files, one a blob).
    ssd: HashMap<K, SsdLoc>,
    /// Keys with SSD file I/O in flight *outside* the lock. Any operation
    /// touching one of these keys waits on the store's condvar, which
    /// preserves per-key atomicity while letting unrelated keys' I/O —
    /// and its injected latency spikes and retry backoff — overlap.
    /// Written only by [`TieredStore::with_pending`].
    pending: HashSet<K>,
    /// Bytes resident per tier, indexed by `Tier as usize`.
    used: [u64; 3],
    /// High-water marks of `used` since the last
    /// [`TieredStore::reset_traffic`], indexed the same way.
    peak_used: [u64; 3],
}

impl<K: Eq + Hash + fmt::Display> Inner<K> {
    fn exists(&self, key: &K) -> bool {
        self.mem.contains_key(key) || self.ssd.contains_key(key)
    }

    /// The tier holding `key` and the blob's length.
    fn locate(&self, key: &K) -> Result<(Tier, u64), StorageError> {
        match self.mem.get(key) {
            Some((tier, data)) => Ok((*tier, data.len() as u64)),
            None => self.ssd_loc(key).map(|loc| (Tier::Ssd, loc.len)),
        }
    }

    fn ssd_loc(&self, key: &K) -> Result<SsdLoc, StorageError> {
        let loc = self.ssd.get(key).copied();
        loc.ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn add_used(&mut self, tier: Tier, bytes: i64) {
        let slot = &mut self.used[tier as usize];
        *slot = (*slot as i64 + bytes).max(0) as u64;
        let peak = &mut self.peak_used[tier as usize];
        *peak = (*peak).max(*slot);
    }

    /// Drops `key` from the SSD tier's index and its bytes from `used`.
    /// Returns its file, which the caller unlinks *after* releasing the
    /// lock ([`TieredStore::unlink`]); `None` if `key` was not there.
    fn forget_ssd(&mut self, key: &K) -> Option<u64> {
        let loc = self.ssd.remove(key)?;
        self.add_used(Tier::Ssd, -(loc.len as i64));
        Some(loc.file)
    }
}

/// A thread-safe three-tier blob store with traffic metering.
///
/// Blobs are identified by keys of type `K` (the engine's store uses the
/// plan's typed `BlobKey`; `String` is the default); each key lives in
/// exactly one tier. The SSD tier keeps each of its blobs in a file of
/// its own, named by a number it assigns, so no two keys can share a file
/// and the directory's file sizes sum to `used(Ssd)`. Dropping the store
/// removes its SSD directory.
///
/// Every operation is a composition of four private pieces, each the
/// only place its decision is made: `Route::hops` (which hops a
/// `from → to` transfer crosses), `with_pending` (the pending-key
/// handshake around unlocked SSD I/O), `ssd_write` (reserve → write →
/// commit or roll back) and `meter` (bytes, flight event, throttle,
/// span).
#[derive(Debug)]
pub struct TieredStore<K = String> {
    config: TierConfig,
    inner: Mutex<Inner<K>>,
    /// Signalled whenever a key's in-flight SSD I/O completes.
    pending_cv: Condvar,
    /// Number of the next SSD file the store writes. Never reused, so a
    /// dead file can be unlinked without holding the lock.
    next_file: AtomicU64,
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
    fault: Mutex<Option<Arc<FaultPlan<K>>>>,
    /// Bounded retry-with-backoff applied to failing SSD file ops.
    retry: Mutex<RetryPolicy>,
}

impl<K: Clone + Eq + Hash + fmt::Display> TieredStore<K> {
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
                    pending: HashSet::new(),
                    used: [0; 3],
                    peak_used: [0; 3],
                },
            ),
            pending_cv: Condvar::named("store.pending_cv"),
            next_file: AtomicU64::new(0),
            traffic: TrafficCounters::default(),
            throttle: Mutex::named("store.throttle", [None; 4]),
            telemetry: Arc::new(TelemetryRecorder::new()),
            fault: Mutex::named("store.fault", None),
            retry: Mutex::named("store.retry", RetryPolicy::default()),
        })
    }

    /// The directory the SSD tier's files live in.
    pub fn ssd_dir(&self) -> &Path {
        &self.config.ssd_dir
    }

    /// The file holding SSD-resident `key`'s bytes, and nothing else —
    /// for inspecting the tier on disk.
    ///
    /// # Errors
    /// [`StorageError::NotFound`] when `key` is not on the SSD tier.
    pub fn ssd_file<Q: ?Sized + ToOwned<Owned = K>>(
        &self,
        key: &Q,
    ) -> Result<PathBuf, StorageError> {
        let key = &key.to_owned();
        let loc = self.lock_keys(&[key]).ssd_loc(key)?;
        Ok(self.file_path(loc.file))
    }

    /// Installs (or clears) a fault-injection plan. All subsequent SSD
    /// file operations consult the plan before touching disk.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan<K>>>) {
        *self.fault.lock() = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan<K>>> {
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
    /// this protocol replaced). Call sites run it as the slow part of
    /// [`TieredStore::with_pending`].
    fn ssd_io<T>(
        &self,
        op: FaultOp,
        key: &K,
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

    /// Locks the store and blocks until none of `keys` has SSD I/O in
    /// flight. Every operation that examines or mutates a key's state
    /// enters through this so it never observes the transient mid-I/O
    /// state.
    fn lock_keys(&self, keys: &[&K]) -> MutexGuard<'_, Inner<K>> {
        let mut inner = self.inner.lock();
        while keys.iter().any(|k| inner.pending.contains(*k)) {
            self.pending_cv.wait(&mut inner);
        }
        inner
    }

    /// The pending-key handshake: marks `keys` in flight, releases the
    /// lock, runs `slow` (file I/O, injected spikes, retry backoff),
    /// re-acquires the lock, clears the marks and wakes the waiters.
    /// The caller commits or rolls back under the returned guard, so no
    /// other thread sees the keys between the I/O and its outcome — and
    /// no call site has an error path on which they could stay pending.
    fn with_pending<'a, T>(
        &'a self,
        mut inner: MutexGuard<'a, Inner<K>>,
        keys: &[&K],
        slow: impl FnOnce() -> T,
    ) -> (MutexGuard<'a, Inner<K>>, T) {
        for k in keys {
            inner.pending.insert((*k).clone());
        }
        drop(inner);
        lockorder::assert_blocking_ok("with_pending slow path");
        let out = slow();
        let mut inner = self.inner.lock();
        for k in keys {
            inner.pending.remove(*k);
        }
        self.pending_cv.notify_all();
        (inner, out)
    }

    /// The SSD write transaction, the tier's one write path: `key`'s
    /// `bytes` into a new file of their own. The bytes are a new key, a
    /// blob leaving memory tier `from` (the caller has taken them out of
    /// `mem`; they go back if the write fails, so the transaction owns the
    /// buffer while the key is pending and nothing is cloned), or new
    /// contents for an SSD-resident key. Growth is reserved before the
    /// lock is released for the write (so concurrent writers can't both
    /// pass the capacity check) and rolled back if it fails; shrinkage is
    /// credited after success, and the key's old file is unlinked.
    fn ssd_write(
        &self,
        mut inner: MutexGuard<'_, Inner<K>>,
        key: &K,
        from: Option<Tier>,
        bytes: Vec<u8>,
    ) -> Result<(), StorageError> {
        let len = bytes.len() as u64;
        let old_len = inner.ssd.get(key).map_or(0, |loc| loc.len);
        let growth = len.saturating_sub(old_len);
        let (mut inner, res) = match self.check_fits(&inner, Tier::Ssd, growth) {
            Ok(()) => {
                inner.add_used(Tier::Ssd, growth as i64);
                let (mut inner, res) =
                    self.with_pending(inner, &[key], || self.write_file(key, &bytes));
                if res.is_err() {
                    inner.add_used(Tier::Ssd, -(growth as i64));
                }
                (inner, res)
            }
            Err(e) => (inner, Err(e)),
        };
        let file = match res {
            Ok(file) => file,
            Err(e) => {
                if let Some(tier) = from {
                    inner.mem.insert(key.clone(), (tier, bytes));
                }
                return Err(e);
            }
        };
        inner.add_used(Tier::Ssd, -(old_len.saturating_sub(len) as i64));
        if let Some(tier) = from {
            inner.add_used(tier, -(len as i64));
        }
        let old = inner.ssd.insert(key.clone(), SsdLoc { file, len });
        drop(inner);
        self.unlink(old.map(|loc| loc.file));
        Ok(())
    }

    /// The store's one file write: `bytes` into a new file, under the
    /// retry policy, consulted as a write of `key`. Returns the file's
    /// number. No lock held. A write that gives up leaves no file behind.
    fn write_file(&self, key: &K, bytes: &[u8]) -> Result<u64, StorageError> {
        let file = self.next_file.fetch_add(1, Ordering::Relaxed);
        let path = self.file_path(file);
        // `fs::write` truncates, so a retried attempt starts over.
        let written = self.ssd_io(FaultOp::Write, key, || fs::write(&path, bytes));
        if written.is_err() {
            let _ = fs::remove_file(&path);
        }
        written.map(|()| file)
    }

    /// Reads SSD-resident `key`'s blob: the whole of its file. No lock
    /// held. A file whose length is not the blob's is an `InvalidData`
    /// I/O error naming the key and both lengths, retried like any other.
    fn read_ssd_blob(&self, key: &K, loc: SsdLoc) -> Result<Vec<u8>, StorageError> {
        let path = self.file_path(loc.file);
        self.ssd_io(FaultOp::Read, key, || {
            let bytes = fs::read(&path)?;
            if bytes.len() as u64 != loc.len {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{key}: its file holds {} B, {} B were written",
                        bytes.len(),
                        loc.len
                    ),
                ));
            }
            Ok(bytes)
        })
    }

    /// Best-effort unlink of a file no blob lives in any more. Its blob is
    /// already gone from the index and file numbers are never reused, so
    /// no lock is needed; a failure only orphans bytes in the SSD dir
    /// (cleaned up on store drop) and is not surfaced.
    fn unlink(&self, file: Option<u64>) {
        if let Some(file) = file {
            let _ = fs::remove_file(self.file_path(file));
        }
    }

    fn file_path(&self, file: u64) -> PathBuf {
        self.config.ssd_dir.join(format!("{file}.blob"))
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

    /// Where a transfer's first span starts, if spans are being recorded.
    /// Taken before the lock wait and the file I/O — what a wall-clock
    /// bandwidth measurement should see.
    fn span_start(&self) -> Option<f64> {
        self.telemetry.enabled().then(|| self.telemetry.now())
    }

    /// The one metering site: for each hop `len` bytes of `key` crossed,
    /// in order, counts the bytes, records the flight event, sleeps out
    /// the route's throttle (no store lock held) and records the span.
    /// The first hop's span starts at `t0` ([`TieredStore::span_start`]),
    /// each later hop's where the one before it ended.
    fn meter(
        &self,
        hops: &[Route],
        key: &(impl fmt::Display + ?Sized),
        len: u64,
        mut t0: Option<f64>,
    ) {
        for &route in hops {
            self.traffic.record(route, len);
            ratel_obs::flight().record(
                ratel_obs::EventKind::Transfer,
                route.index() as u8,
                key,
                len,
                0,
            );
            self.apply_throttle(route, len);
            if let Some(start) = t0 {
                let end = self.telemetry.now();
                let label = key.to_string();
                self.telemetry
                    .record_transfer(route, label, len, start, end);
                t0 = Some(end);
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

    fn check_fits(&self, inner: &Inner<K>, tier: Tier, bytes: u64) -> Result<(), StorageError> {
        if let Some(cap) = self.capacity(tier) {
            let used = inner.used[tier as usize];
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

    /// Stores a new blob in `tier`.
    ///
    /// # Errors
    /// [`StorageError::AlreadyExists`] on duplicate keys,
    /// [`StorageError::OutOfMemory`] if the tier is full.
    pub fn put<Q: ?Sized + ToOwned<Owned = K>>(
        &self,
        key: &Q,
        tier: Tier,
        bytes: Vec<u8>,
    ) -> Result<(), StorageError> {
        let key = &key.to_owned();
        self.put_locked(self.lock_keys(&[key]), key, tier, bytes)
    }

    fn put_locked(
        &self,
        mut inner: MutexGuard<'_, Inner<K>>,
        key: &K,
        tier: Tier,
        bytes: Vec<u8>,
    ) -> Result<(), StorageError> {
        let len = bytes.len() as u64;
        if inner.exists(key) {
            return Err(StorageError::AlreadyExists(key.to_string()));
        }
        self.check_fits(&inner, tier, len)?;
        if tier == Tier::Ssd {
            return self.ssd_write(inner, key, None, bytes);
        }
        inner.mem.insert(key.clone(), (tier, bytes));
        inner.add_used(tier, len as i64);
        Ok(())
    }

    /// Which tier currently holds `key`.
    pub fn tier_of<Q: ?Sized + ToOwned<Owned = K>>(&self, key: &Q) -> Result<Tier, StorageError> {
        let key = &key.to_owned();
        self.lock_keys(&[key]).locate(key).map(|(tier, _)| tier)
    }

    /// Whether `key` exists in any tier.
    pub fn contains<Q: ?Sized + ToOwned<Owned = K>>(&self, key: &Q) -> bool {
        let key = &key.to_owned();
        self.lock_keys(&[key]).exists(key)
    }

    /// Reads a copy of the blob without moving it.
    pub fn read<Q: ?Sized + ToOwned<Owned = K>>(&self, key: &Q) -> Result<Vec<u8>, StorageError> {
        let key = &key.to_owned();
        self.fetch(key).map(|(_, bytes)| bytes)
    }

    /// A copy of the blob and the tier it was found in, from one lock
    /// acquisition.
    fn fetch(&self, key: &K) -> Result<(Tier, Vec<u8>), StorageError> {
        let inner = self.lock_keys(&[key]);
        if let Some((tier, data)) = inner.mem.get(key) {
            return Ok((*tier, data.clone()));
        }
        let loc = inner.ssd_loc(key)?;
        let (_, res) = self.with_pending(inner, &[key], || self.read_ssd_blob(key, loc));
        Ok((Tier::Ssd, res?))
    }

    /// Removes a blob and returns its bytes: [`TieredStore::read`] then
    /// [`TieredStore::remove`], but a memory-resident blob is handed
    /// over, not copied.
    pub fn take<Q: ?Sized + ToOwned<Owned = K>>(&self, key: &Q) -> Result<Vec<u8>, StorageError> {
        let key = &key.to_owned();
        self.detach(key, true)
    }

    /// Removes a blob, freeing its tier space.
    pub fn remove<Q: ?Sized + ToOwned<Owned = K>>(&self, key: &Q) -> Result<(), StorageError> {
        let key = &key.to_owned();
        self.detach(key, false).map(drop)
    }

    /// Unregisters `key` and hands its buffer over. An SSD-resident blob
    /// is read first when `read` says so, and stays registered if the
    /// read fails.
    fn detach(&self, key: &K, read: bool) -> Result<Vec<u8>, StorageError> {
        let mut inner = self.lock_keys(&[key]);
        if let Some((tier, data)) = inner.mem.remove(key) {
            inner.add_used(tier, -(data.len() as i64));
            return Ok(data);
        }
        let loc = inner.ssd_loc(key)?;
        let (mut inner, bytes) = if read {
            let (inner, res) = self.with_pending(inner, &[key], || self.read_ssd_blob(key, loc));
            (inner, res?)
        } else {
            (inner, Vec::new())
        };
        let dead = inner.forget_ssd(key);
        drop(inner);
        self.unlink(dead);
        Ok(bytes)
    }

    /// Moves a blob to `target`, metering every hop. GPU↔SSD moves are
    /// forced through the host tier (no GPUDirect on consumer GPUs,
    /// §III-C), so they record two hops *and* require transient host space.
    pub fn move_to<Q: ?Sized + ToOwned<Owned = K>>(
        &self,
        key: &Q,
        target: Tier,
    ) -> Result<(), StorageError> {
        let key = &key.to_owned();
        // One hop per turn, re-planned from wherever the key is found
        // under the lock that then moves it: a concurrent mover can only
        // shorten the way left, never invalidate it.
        loop {
            let t0 = self.span_start();
            let inner = self.lock_keys(&[key]);
            let (current, len) = inner.locate(key)?;
            let plan = Route::hops(current, target);
            let Some(first) = plan.first() else {
                return Ok(());
            };
            self.hop(inner, key, current, first.dest(), len)?;
            self.meter(&plan[..1], key, len, t0);
            if plan.len() == 1 {
                return Ok(());
            }
        }
    }

    /// Moves `key` (`len` bytes, found in `from` under `inner`) into `to`.
    ///
    /// Target-first: the source copy is given up only once the new one
    /// exists, so a fault on the way can at worst orphan a stale source
    /// file — never lose the blob.
    fn hop(
        &self,
        mut inner: MutexGuard<'_, Inner<K>>,
        key: &K,
        from: Tier,
        to: Tier,
        len: u64,
    ) -> Result<(), StorageError> {
        if to == Tier::Ssd {
            let Some((_, bytes)) = inner.mem.remove(key) else {
                return Err(StorageError::NotFound(key.to_string()));
            };
            return self.ssd_write(inner, key, Some(from), bytes);
        }
        // The source still holds the blob while we check the target,
        // which is how double-buffered transfers behave.
        self.check_fits(&inner, to, len)?;
        if from != Tier::Ssd {
            // Pure in-memory hop: no file I/O, the entry is retagged in
            // place under the lock.
            if let Some(entry) = inner.mem.get_mut(key) {
                entry.0 = to;
            }
            inner.add_used(to, len as i64);
            inner.add_used(from, -(len as i64));
            return Ok(());
        }
        let loc = inner.ssd_loc(key)?;
        // Reserved before the lock is released for the read, so two
        // arrivals can't both pass the capacity check above.
        inner.add_used(to, len as i64);
        let (mut inner, res) = self.with_pending(inner, &[key], || self.read_ssd_blob(key, loc));
        let bytes = match res {
            Ok(bytes) => bytes,
            Err(e) => {
                inner.add_used(to, -(len as i64));
                return Err(e);
            }
        };
        inner.mem.insert(key.clone(), (to, bytes));
        let dead = inner.forget_ssd(key);
        drop(inner);
        self.unlink(dead);
        Ok(())
    }

    /// Stages a *copy* of `key` into `tier` under `new_key`, metering the
    /// hops from the source tier (via host if GPU<->SSD). This models a
    /// read-only fetch — e.g. streaming a layer's P16 from SSD to the GPU
    /// for compute — where the source copy stays put and the staged copy
    /// is discarded (via [`TieredStore::remove`]) after use. Like
    /// [`TieredStore::move_to`], a GPU<->SSD copy needs transient host
    /// space for the blob and is refused when the host pool has none.
    pub fn copy_to<Q: ?Sized + ToOwned<Owned = K>>(
        &self,
        key: &Q,
        new_key: &Q,
        tier: Tier,
    ) -> Result<(), StorageError> {
        let (key, new_key) = (&key.to_owned(), &new_key.to_owned());
        let t0 = self.span_start();
        let (src_tier, bytes) = self.fetch(key)?;
        let len = bytes.len() as u64;
        let hops = Route::hops(src_tier, tier);
        let inner = self.lock_keys(&[new_key]);
        if hops.len() == 2 {
            self.check_fits(&inner, Tier::Host, len)?;
        }
        self.put_locked(inner, new_key, tier, bytes)?;
        self.meter(hops, key, len, t0);
        Ok(())
    }

    /// Overwrites an existing blob in place (same tier). Used by the
    /// optimizer to write back updated master states. An SSD-resident
    /// blob is written to a new file, which replaces its old one.
    pub fn overwrite<Q: ?Sized + ToOwned<Owned = K>>(
        &self,
        key: &Q,
        bytes: Vec<u8>,
    ) -> Result<(), StorageError> {
        let key = &key.to_owned();
        let new_len = bytes.len() as u64;
        let mut inner = self.lock_keys(&[key]);
        if let Some((tier, data)) = inner.mem.get(key) {
            let (tier, old_len) = (*tier, data.len() as u64);
            if new_len > old_len {
                self.check_fits(&inner, tier, new_len - old_len)?;
            }
            if let Some(entry) = inner.mem.get_mut(key) {
                entry.1 = bytes;
            }
            inner.add_used(tier, new_len as i64 - old_len as i64);
            return Ok(());
        }
        inner.ssd_loc(key)?;
        self.ssd_write(inner, key, None, bytes)
    }

    /// Gives SSD-resident `from`'s blob the key `to`: a change to the
    /// index alone — nothing is read, written, renamed on disk or metered
    /// — which is how a blob staged under a shadow key replaces the one
    /// it shadows without crossing the disk twice. The file of whatever
    /// `to` named on the SSD tier is unlinked.
    ///
    /// # Errors
    /// [`StorageError::NotFound`] when `from` is not on the SSD tier,
    /// [`StorageError::AlreadyExists`] when a memory tier holds `to` (a
    /// rename does not cross tiers).
    pub fn rename<Q: ?Sized + ToOwned<Owned = K>>(
        &self,
        from: &Q,
        to: &Q,
    ) -> Result<(), StorageError> {
        let (from, to) = (&from.to_owned(), &to.to_owned());
        let mut inner = self.lock_keys(&[from, to]);
        let loc = inner.ssd_loc(from)?;
        if from == to {
            return Ok(());
        }
        if inner.mem.contains_key(to) {
            return Err(StorageError::AlreadyExists(to.to_string()));
        }
        inner.ssd.remove(from);
        let dead = inner.forget_ssd(to);
        inner.ssd.insert(to.clone(), loc);
        drop(inner);
        self.unlink(dead);
        Ok(())
    }

    /// Hands `f` the blobs' bytes to update where they lie — what the
    /// optimizer does to the states it staged into host memory, without
    /// a `read` copy out and an `overwrite` back in. Each blob's own
    /// buffer leaves the index for the duration of
    /// [`TieredStore::with_pending`]'s handshake: `f` runs with no store
    /// lock held, and another operation on one of the keys waits for the
    /// blobs to be whole again. Only a memory tier is reached: a blob
    /// keeps its tier and, being a slice, its length, so nothing is
    /// metered, no file is touched and `used`/`peak_used` do not move.
    /// `f` must not panic: its buffers would be lost with it.
    ///
    /// # Errors
    /// [`StorageError::NotFound`] for a key in no tier,
    /// [`StorageError::NotInMemory`] for one on the SSD tier,
    /// [`StorageError::DuplicateKey`] for one named twice: each refused
    /// before `f` ran, with the store untouched.
    pub fn modify<const N: usize, Q: ?Sized + ToOwned<Owned = K>, T>(
        &self,
        keys: [&Q; N],
        f: impl FnOnce([&mut [u8]; N]) -> T,
    ) -> Result<T, StorageError> {
        let owned = keys.map(ToOwned::to_owned);
        let keys = owned.each_ref();
        let mut inner = self.lock_keys(&keys);
        for (i, key) in keys.iter().enumerate() {
            if keys[..i].contains(key) {
                return Err(StorageError::DuplicateKey(key.to_string()));
            }
            if inner.locate(key)?.0 == Tier::Ssd {
                return Err(StorageError::NotInMemory(key.to_string()));
            }
        }
        // Every key is memory-resident, so each takes its own buffer.
        let mut blobs = keys.map(|key| inner.mem.remove(key).unwrap_or((Tier::Host, Vec::new())));
        let (mut inner, out) = self.with_pending(inner, &keys, || {
            f(blobs.each_mut().map(|(_, bytes)| bytes.as_mut_slice()))
        });
        for (key, blob) in owned.into_iter().zip(blobs) {
            inner.mem.insert(key, blob);
        }
        Ok(out)
    }

    /// Bytes currently resident in `tier`.
    pub fn used(&self, tier: Tier) -> u64 {
        self.inner.lock().used[tier as usize]
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
        inner.peak_used = inner.used;
    }
}

impl<K> Drop for TieredStore<K> {
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
        store.remove("w/x").unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "file not unlinked");
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
    fn ssd_capacity_is_enforced_on_puts_and_growth() {
        let mut config = TierConfig::unbounded_temp();
        config.ssd_capacity = Some(100);
        let store = TieredStore::new(config).unwrap();
        store.put("a", Tier::Ssd, vec![1u8; 80]).unwrap();
        let refused = [
            store.put("b", Tier::Ssd, vec![2u8; 40]),
            store.overwrite("a", vec![3u8; 120]),
        ];
        for (err, requested) in refused.into_iter().zip([40, 40]) {
            assert!(matches!(
                err,
                Err(StorageError::OutOfMemory { tier: Tier::Ssd, requested: r, available: 20 })
                    if r == requested
            ));
        }
        assert!(!store.contains("b"));
        assert_eq!(store.read("a").unwrap(), vec![1u8; 80]);
        assert_eq!(store.used(Tier::Ssd), 80);
        assert_eq!(fs::read_dir(store.ssd_dir()).unwrap().count(), 1);
        // Growth that fits goes through.
        store.overwrite("a", vec![4u8; 100]).unwrap();
        assert_eq!(store.used(Tier::Ssd), 100);
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
        // One byte more held and it is refused, as `move_to` would be.
        store.put("one", Tier::Host, vec![0u8; 1]).unwrap();
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
    fn modify_updates_memory_blobs_where_they_lie() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        let host = vec![1u8; 64];
        let buffer = host.as_ptr();
        store.put("h", Tier::Host, host).unwrap();
        store.put("g", Tier::Gpu, vec![2u8; 8]).unwrap();
        store.put("s", Tier::Ssd, vec![3u8; 8]).unwrap();
        store.reset_traffic();
        let sum = store
            .modify(["h", "g"], |[h, g]| {
                h.fill(9);
                g[0] = 7;
                h.len() + g.len()
            })
            .unwrap();
        assert_eq!(sum, 72);
        assert_eq!(store.tier_of("h").unwrap(), Tier::Host);
        assert_eq!(store.tier_of("g").unwrap(), Tier::Gpu);
        assert_eq!(store.read("g").unwrap(), [7, 2, 2, 2, 2, 2, 2, 2]);
        assert_eq!(store.traffic().total(), 0, "nothing is metered");
        assert_eq!(
            (store.used(Tier::Host), store.peak_used(Tier::Host)),
            (64, 64)
        );
        assert_eq!((store.used(Tier::Gpu), store.peak_used(Tier::Gpu)), (8, 8));
        let taken = store.take("h").unwrap();
        assert_eq!(taken.as_ptr(), buffer, "modify copied the blob");
        assert_eq!(taken, vec![9u8; 64]);

        // Typed refusals, before `f` runs and with the store untouched.
        let untouched = |_: [&mut [u8]; 2]| panic!("f ran");
        assert!(matches!(
            store.modify(["g", "nope"], untouched),
            Err(StorageError::NotFound(k)) if k == "nope"
        ));
        assert!(matches!(
            store.modify(["g", "g"], untouched),
            Err(StorageError::DuplicateKey(k)) if k == "g"
        ));
        assert_eq!(store.read("g").unwrap()[0], 7);
        assert_eq!(store.read("s").unwrap(), vec![3u8; 8]);
    }

    #[test]
    fn modify_refuses_an_ssd_key_before_f_runs() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("h", Tier::Host, vec![1u8; 4]).unwrap();
        store.put("file", Tier::Ssd, vec![2u8; 6]).unwrap();
        for key in ["a", "b"] {
            store.put(key, Tier::Ssd, vec![3u8; 5]).unwrap();
        }
        // A fault on the first SSD op would fail any read or write-back.
        let plan = Arc::new(FaultPlan::new());
        plan.fault_at(0, FaultKind::Permanent);
        store.set_fault_plan(Some(plan.clone()));
        store.reset_traffic();
        let files = || fs::read_dir(&store.config.ssd_dir).unwrap().count();
        let on_disk = files();
        for ssd_key in ["file", "a"] {
            assert!(matches!(
                store.modify(["h", ssd_key], |_: [&mut [u8]; 2]| panic!("f ran")),
                Err(StorageError::NotInMemory(k)) if k == ssd_key
            ));
        }
        assert_eq!(plan.ops_seen(), 0, "an SSD file was consulted");
        assert_eq!(files(), on_disk);
        assert_eq!(store.traffic().total(), 0);
        assert_eq!((store.used(Tier::Ssd), store.used(Tier::Host)), (16, 4));
        store.set_fault_plan(None);
        // Every blob is whole where it was, and no key is left pending
        // (a `read` would block on one that was).
        assert_eq!(store.read("h").unwrap(), vec![1u8; 4]);
        assert_eq!(store.read("file").unwrap(), vec![2u8; 6]);
        assert_eq!(store.read("a").unwrap(), vec![3u8; 5]);
        assert_eq!(store.read("b").unwrap(), vec![3u8; 5]);
        for key in ["file", "a", "b"] {
            assert_eq!(store.tier_of(key).unwrap(), Tier::Ssd);
        }
        store.modify(["h"], |[h]| h[0] = 8).unwrap();
        assert_eq!(store.read("h").unwrap(), [8, 1, 1, 1]);
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
    fn keys_that_flatten_alike_keep_their_own_files() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("a/b", Tier::Ssd, vec![1u8; 8]).unwrap();
        store.put("a_b", Tier::Ssd, vec![2u8; 8]).unwrap();
        assert_eq!(store.read("a/b").unwrap(), vec![1u8; 8]);
        assert_eq!(store.read("a_b").unwrap(), vec![2u8; 8]);
        store.remove("a_b").unwrap();
        assert_eq!(store.read("a/b").unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn a_key_named_like_a_store_file_leaves_that_file_alone() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("k0", Tier::Ssd, vec![1u8; 16]).unwrap();
        store.put("k1", Tier::Ssd, vec![2u8; 16]).unwrap();
        let file = store.ssd_file("k0").unwrap();
        store
            .put(&file.display().to_string(), Tier::Ssd, vec![8u8; 4])
            .unwrap();
        assert_eq!(store.read("k0").unwrap(), vec![1u8; 16]);
        assert_eq!(store.read("k1").unwrap(), vec![2u8; 16]);
        assert_eq!(store.ssd_file("k0").unwrap(), file);
    }

    #[test]
    fn rename_commits_a_shadow_without_moving_a_byte() {
        let config = TierConfig::unbounded_temp();
        let dir = config.ssd_dir.clone();
        let store = TieredStore::new(config).unwrap();
        let files = || fs::read_dir(&dir).unwrap().count();
        store.put("k0", Tier::Ssd, vec![1u8; 16]).unwrap();
        store.put("k1", Tier::Ssd, vec![2u8; 16]).unwrap();
        // Over a blob: the shadow's file is the blob's now, and the file
        // it replaces goes.
        store.put("k0#new", Tier::Ssd, vec![7u8; 24]).unwrap();
        let shadow = store.ssd_file("k0#new").unwrap();
        store.rename("k0#new", "k0").unwrap();
        assert_eq!(store.ssd_file("k0").unwrap(), shadow);
        assert_eq!(store.read("k0").unwrap(), vec![7u8; 24]);
        assert!(!store.contains("k0#new"));
        assert_eq!(store.used(Tier::Ssd), 24 + 16);
        assert_eq!(files(), 2);
        // Onto a new key.
        store.rename("k1", "moved").unwrap();
        assert_eq!(store.read("moved").unwrap(), vec![2u8; 16]);
        assert!(!store.contains("k1"));
        assert_eq!(store.used(Tier::Ssd), 24 + 16);
        assert_eq!(files(), 2);
        // Onto itself: nothing to do.
        store.rename("moved", "moved").unwrap();
        assert_eq!(store.read("moved").unwrap(), vec![2u8; 16]);
        assert_eq!(store.used(Tier::Ssd), 24 + 16);
        // Metadata only: nothing crossed a link.
        assert!(Route::ALL.iter().all(|&r| store.traffic().bytes(r) == 0));
        // No rename across tiers, or of a blob that is not there.
        store.put("host", Tier::Host, vec![1u8; 4]).unwrap();
        let into_memory = store.rename("moved", "host").unwrap_err();
        assert!(matches!(into_memory, StorageError::AlreadyExists(_)));
        let missing = store.rename("host", "moved").unwrap_err();
        assert!(matches!(missing, StorageError::NotFound(_)));
        assert_eq!(store.read("moved").unwrap(), vec![2u8; 16]);
        assert_eq!(files(), 2);
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
    fn faulted_read_up_gives_back_the_room_it_reserved() {
        // An SSD→memory hop counts its bytes in the target before it
        // reads them (so two arrivals can't both pass the capacity
        // check); a read that fails must not keep them.
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.set_retry_policy(RetryPolicy::none());
        store.put("k", Tier::Ssd, vec![3u8; 16]).unwrap();
        let plan = Arc::new(FaultPlan::new());
        plan.fault_at_op(0, FaultOp::Read, FaultKind::Permanent);
        store.set_fault_plan(Some(plan));
        let err = store.move_to("k", Tier::Host).unwrap_err();
        assert!(matches!(err, StorageError::Faulted { .. }));
        assert_eq!(store.tier_of("k").unwrap(), Tier::Ssd);
        assert_eq!((store.used(Tier::Host), store.used(Tier::Ssd)), (0, 16));
        store.set_fault_plan(None);
        store.move_to("k", Tier::Host).unwrap();
        assert_eq!((store.used(Tier::Host), store.used(Tier::Ssd)), (16, 0));
        assert_eq!(store.peak_used(Tier::Host), 16);
    }

    #[test]
    fn a_rename_touches_no_file_and_no_fault_plan() {
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.set_retry_policy(fast_retry());
        store.put("k", Tier::Ssd, vec![1u8; 8]).unwrap();
        store.put("k#new", Tier::Ssd, vec![2u8; 12]).unwrap();
        let file = store.ssd_file("k#new").unwrap();
        // A dead drive does not stop it: there is no file op to fail.
        let dead = Arc::new(FaultPlan::new());
        dead.fault_at(0, FaultKind::Permanent);
        store.set_fault_plan(Some(dead.clone()));
        store.rename("k#new", "k").unwrap();
        assert_eq!(dead.ops_seen(), 0);
        assert_eq!(store.ssd_file("k").unwrap(), file);
        assert!(!store.contains("k#new"));
        assert_eq!(store.used(Tier::Ssd), 12);
        store.set_fault_plan(None);
        assert_eq!(store.read("k").unwrap(), vec![2u8; 12]);
    }

    #[test]
    fn host_pressure_is_an_honest_oom_for_put_and_move() {
        let store = TieredStore::new(TierConfig::bounded_temp(1000, 10)).unwrap();
        store.put("g", Tier::Gpu, vec![2u8; 64]).unwrap();
        store.put("s", Tier::Ssd, vec![4u8; 64]).unwrap();
        for refused in [
            store.put("big", Tier::Host, vec![0u8; 64]),
            store.move_to("g", Tier::Host),
            store.move_to("s", Tier::Host),
        ] {
            assert!(matches!(
                refused,
                Err(StorageError::OutOfMemory {
                    tier: Tier::Host,
                    requested: 64,
                    available: 10,
                })
            ));
        }
        assert!(!store.contains("big"));
        assert_eq!(store.tier_of("g").unwrap(), Tier::Gpu);
        assert_eq!(store.tier_of("s").unwrap(), Tier::Ssd);
        assert_eq!(store.used(Tier::Host), 0);
        // No phantom traffic for moves that never happened.
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

    #[test]
    fn copy_from_ssd_span_covers_the_source_read() {
        // The first hop's span starts before the source is read, as a
        // move's does: a slow read is a slow SSD -> Main transfer.
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.telemetry().set_enabled(true);
        store.put("k", Tier::Ssd, vec![6u8; 64]).unwrap();
        let plan = Arc::new(FaultPlan::new());
        plan.fault_on_key_op("k", FaultOp::Read, FaultKind::LatencySpike(0.05));
        store.set_fault_plan(Some(plan));
        store.copy_to("k", "k2", Tier::Host).unwrap();
        let m = &store.telemetry().route_metrics()[Route::SsdToHost.index()];
        assert_eq!((m.ops, m.bytes), (1, 64));
        assert!(m.seconds >= 0.05, "span of {}s misses the spike", m.seconds);
        assert_eq!(m.histogram.count(), 1);
        assert!(m.histogram.max_seconds() >= 0.05);
    }

    /// What must not move when the store's internals do: one script over
    /// all six tier pairs and every operation, with its ledger — traffic,
    /// residency, fault counters and the SSD op sequence the seeded fault
    /// suites index into — pinned.
    #[test]
    fn scripted_ledger_over_all_six_tier_pairs_is_pinned() {
        let store = TieredStore::new(TierConfig::bounded_temp(4096, 300)).unwrap();
        store.set_retry_policy(fast_retry());
        // One transient fault (the first rule to match wins), and a
        // zero-second spike at every other index, which records each SSD
        // op's (index, op, key) without changing what it does.
        let plan = Arc::new(FaultPlan::new());
        plan.fault_at(4, FaultKind::Transient);
        for at_op in 0..32 {
            plan.fault_at(at_op, FaultKind::LatencySpike(0.0));
        }
        store.set_fault_plan(Some(plan.clone()));

        store.put("g", Tier::Gpu, vec![1; 100]).unwrap();
        store.put("h", Tier::Host, vec![2; 60]).unwrap();
        store.put("s", Tier::Ssd, vec![3; 40]).unwrap();
        store.put("b0", Tier::Ssd, vec![4; 16]).unwrap();
        store.put("b1", Tier::Ssd, vec![5; 24]).unwrap();
        // All six tier pairs as moves; the Ssd -> Host read is retried.
        store.move_to("g", Tier::Host).unwrap();
        store.move_to("g", Tier::Gpu).unwrap();
        store.move_to("h", Tier::Ssd).unwrap();
        store.move_to("h", Tier::Host).unwrap();
        store.move_to("g", Tier::Ssd).unwrap();
        store.move_to("g", Tier::Gpu).unwrap();
        // Copies: two-hop both ways, one hop from memory, one from SSD.
        store.copy_to("s", "s2g", Tier::Gpu).unwrap();
        store.copy_to("g", "g2s", Tier::Ssd).unwrap();
        store.copy_to("h", "h2g", Tier::Gpu).unwrap();
        store.copy_to("b1", "b2h", Tier::Host).unwrap();
        // Overwrites: SSD growth, SSD shrinkage, memory.
        store.overwrite("s", vec![6; 70]).unwrap();
        store.overwrite("b0", vec![7; 8]).unwrap();
        store.overwrite("h", vec![8; 50]).unwrap();
        assert_eq!(store.take("s2g").unwrap(), vec![3; 40]);
        assert_eq!(store.take("g2s").unwrap(), vec![1; 100]);
        assert_eq!(store.take("b1").unwrap(), vec![5; 24]);
        store.remove("h2g").unwrap();
        store.remove("s").unwrap();
        // Host pressure: a put, a GPU blob and an SSD blob are all
        // refused, typed, and leave the store as it was.
        store.put("fill", Tier::Host, vec![9; 200]).unwrap();
        store.put("big", Tier::Ssd, vec![10; 250]).unwrap();
        for refused in [
            store.put("late", Tier::Host, vec![11; 250]),
            store.move_to("g", Tier::Host),
            store.move_to("big", Tier::Host),
        ] {
            assert!(matches!(
                refused,
                Err(StorageError::OutOfMemory {
                    tier: Tier::Host,
                    available: 26,
                    ..
                })
            ));
        }
        assert!(!store.contains("late"));
        assert_eq!(store.tier_of("g").unwrap(), Tier::Gpu);
        assert_eq!(store.tier_of("big").unwrap(), Tier::Ssd);
        assert_eq!(store.read("g").unwrap(), vec![1; 100]);

        let traffic = store.traffic();
        assert_eq!(Route::ALL.map(|r| traffic.bytes(r)), [300, 300, 260, 224]);
        let tiers = [Tier::Gpu, Tier::Host, Tier::Ssd];
        assert_eq!(tiers.map(|t| store.used(t)), [100, 274, 258]);
        assert_eq!(tiers.map(|t| store.peak_used(t)), [200, 274, 258]);
        let stats = store.telemetry().fault_stats();
        assert_eq!(
            (stats.retries, stats.give_ups, stats.host_spills),
            (1, 0, 0)
        );
        // Every op fired a rule, so `injected()` is the whole sequence:
        // index 4 is the transient fault, index 5 its retry.
        let ops = plan.injected();
        assert!(ops.iter().enumerate().all(|(i, e)| e.op_index == i as u64));
        assert_eq!(plan.ops_seen(), ops.len() as u64);
        let ops: Vec<String> = ops
            .iter()
            .map(|e| format!("{} {}", e.op.name(), e.key))
            .collect();
        assert_eq!(
            ops.join(", "),
            "write s, write b0, write b1, write h, read h, read h, write g, read g, \
             read s, write g2s, read b1, write s, write b0, read g2s, read b1, write big"
        );
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
