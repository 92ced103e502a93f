//! Inter-tier traffic accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::store::Tier;

/// A directed inter-tier transfer route. The GPU↔host routes correspond to
/// the paper's duplex PCIe directions (`PCIe_G2M` / `PCIe_M2G`); the
/// host↔SSD routes to `BW_M2S` / `BW_S2M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// GPU to main memory (activation/gradient offload).
    GpuToHost,
    /// Main memory to GPU (parameter/activation fetch).
    HostToGpu,
    /// Main memory to SSD (state write-back, activation spill).
    HostToSsd,
    /// SSD to main memory (state read, activation fetch).
    SsdToHost,
}

impl Route {
    /// All routes, in a fixed order.
    pub const ALL: [Route; 4] = [
        Route::GpuToHost,
        Route::HostToGpu,
        Route::HostToSsd,
        Route::SsdToHost,
    ];

    /// Position of this route in [`Route::ALL`]; stable across releases,
    /// usable to index per-route arrays (e.g. telemetry metrics).
    pub fn index(self) -> usize {
        match self {
            Route::GpuToHost => 0,
            Route::HostToGpu => 1,
            Route::HostToSsd => 2,
            Route::SsdToHost => 3,
        }
    }

    /// The hops a `from → to` transfer crosses, in order: none within a
    /// tier, one between neighbours, two through the host tier between
    /// GPU and SSD (no GPUDirect on a consumer GPU, §III-C). The store's
    /// only `(Tier, Tier)` table.
    pub(crate) fn hops(from: Tier, to: Tier) -> &'static [Route] {
        use Route::*;
        match (from, to) {
            (Tier::Gpu, Tier::Gpu) | (Tier::Host, Tier::Host) | (Tier::Ssd, Tier::Ssd) => &[],
            (Tier::Gpu, Tier::Host) => &[GpuToHost],
            (Tier::Host, Tier::Gpu) => &[HostToGpu],
            (Tier::Host, Tier::Ssd) => &[HostToSsd],
            (Tier::Ssd, Tier::Host) => &[SsdToHost],
            (Tier::Gpu, Tier::Ssd) => &[GpuToHost, HostToSsd],
            (Tier::Ssd, Tier::Gpu) => &[SsdToHost, HostToGpu],
        }
    }

    /// The tier this route delivers into.
    pub(crate) fn dest(self) -> Tier {
        match self {
            Route::HostToGpu => Tier::Gpu,
            Route::GpuToHost | Route::SsdToHost => Tier::Host,
            Route::HostToSsd => Tier::Ssd,
        }
    }

    /// Short stable name, e.g. `"gpu->host"`; used as a telemetry track.
    pub fn name(self) -> &'static str {
        match self {
            Route::GpuToHost => "gpu->host",
            Route::HostToGpu => "host->gpu",
            Route::HostToSsd => "host->ssd",
            Route::SsdToHost => "ssd->host",
        }
    }
}

/// Byte counters per route; lives inside the store and is read via
/// [`TrafficCounters::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct TrafficCounters {
    bytes: [AtomicU64; 4],
}

impl TrafficCounters {
    pub(crate) fn record(&self, route: Route, bytes: u64) {
        self.bytes[route.index()].fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            bytes: [
                self.bytes[0].load(Ordering::Relaxed),
                self.bytes[1].load(Ordering::Relaxed),
                self.bytes[2].load(Ordering::Relaxed),
                self.bytes[3].load(Ordering::Relaxed),
            ],
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.bytes {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of the traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficSnapshot {
    bytes: [u64; 4],
}

impl TrafficSnapshot {
    /// Bytes moved on `route` since the last reset.
    pub fn bytes(&self, route: Route) -> u64 {
        self.bytes[route.index()]
    }

    /// Total bytes moved on all routes.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Route-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        let mut out = [0u64; 4];
        for (o, (a, b)) in out.iter_mut().zip(self.bytes.iter().zip(&earlier.bytes)) {
            *o = a.saturating_sub(*b);
        }
        TrafficSnapshot { bytes: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = TrafficCounters::default();
        c.record(Route::GpuToHost, 10);
        c.record(Route::GpuToHost, 5);
        c.record(Route::SsdToHost, 7);
        let s = c.snapshot();
        assert_eq!(s.bytes(Route::GpuToHost), 15);
        assert_eq!(s.bytes(Route::SsdToHost), 7);
        assert_eq!(s.total(), 22);
        c.reset();
        assert_eq!(c.snapshot().total(), 0);
    }

    #[test]
    fn route_all_ordering_matches_snapshot_indexing() {
        // `Route::ALL[i].index() == i` is a documented invariant: telemetry
        // metrics arrays and `TrafficSnapshot` both rely on it.
        for (i, r) in Route::ALL.iter().enumerate() {
            assert_eq!(r.index(), i, "Route::ALL order diverged from index()");
        }
        // Recording on ALL[i] shows up at exactly that route, no other.
        for (i, &r) in Route::ALL.iter().enumerate() {
            let c = TrafficCounters::default();
            c.record(r, 7);
            let s = c.snapshot();
            for (j, &q) in Route::ALL.iter().enumerate() {
                assert_eq!(s.bytes(q), if i == j { 7 } else { 0 });
            }
        }
    }

    #[test]
    fn hops_chain_from_source_to_target_through_host() {
        let tiers = [Tier::Gpu, Tier::Host, Tier::Ssd];
        for from in tiers {
            for to in tiers {
                let hops = Route::hops(from, to);
                assert_eq!(hops.len(), (from as usize).abs_diff(to as usize));
                let mut at = from;
                for hop in hops {
                    assert_eq!(Route::hops(at, hop.dest()), &[*hop]);
                    at = hop.dest();
                }
                assert_eq!(at, to, "{from:?} -> {to:?} ends elsewhere");
            }
        }
    }

    #[test]
    fn since_subtracts_per_route() {
        let c = TrafficCounters::default();
        c.record(Route::HostToSsd, 100);
        let before = c.snapshot();
        c.record(Route::HostToSsd, 50);
        c.record(Route::HostToGpu, 30);
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.bytes(Route::HostToSsd), 50);
        assert_eq!(delta.bytes(Route::HostToGpu), 30);
        assert_eq!(delta.bytes(Route::GpuToHost), 0);
    }
}
