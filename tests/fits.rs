//! One answer to "does it fit": the plan's static residency peak
//! ([`TrainingPlan::static_peak`]) against what the engine's tiers
//! actually hold, over the shared zoo plus the tiny shape × three
//! activation mixes × 1/2/4 workers per pool. Every case runs a plain
//! step and a four-micro-batch accumulated one, unthrottled and with
//! each of the four routes throttled to 2 MB/s in turn — a slow link
//! is what makes blobs queue in the tier before it.
//!
//! 1. **Sound.** With unbounded tiers — every master host-resident —
//!    `peak_used` never exceeds the static peak.
//! 2. **Sufficient.** At the smallest capacities [`Ratel::plan`]
//!    accepts ([`Ratel::min_host_capacity`] reports such a host pool
//!    without the search) every step succeeds under every throttle,
//!    inside them. Under a
//!    host capacity the plan is the paper's all-SSD one, and for the
//!    tiny shape its DAG and byte ledger are pinned to the ones lowered
//!    before placements existed.
//! 3. **Refused up front.** One byte below either, `plan()` returns
//!    `InvalidConfig` naming the tier and the bytes it needs.
//!
//! A second test leaves the decisions to the planner under a host pool
//! at and at twice what the all-recompute plan needs: whatever it picks
//! for `MEM_avail = host_capacity − that need`, `plan()` accepts the
//! pool and every step runs inside it.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use ratel_repro::core::schedule::Placement;
use ratel_repro::prelude::*;
use ratel_repro::sim::MemTier;
use ratel_repro::storage::{Route, Tier};

const TIERS: [(Tier, MemTier); 2] = [(Tier::Gpu, MemTier::Gpu), (Tier::Host, MemTier::Host)];

/// Activation decisions cycled over a shape's blocks.
const MIXES: [&[ActDecision]; 3] = [
    &[ActDecision::SwapToHost],
    &[
        ActDecision::SwapToSsd,
        ActDecision::SwapToHost,
        ActDecision::Recompute,
    ],
    &[ActDecision::Recompute],
];

#[derive(Debug, Clone, Copy)]
struct Case {
    model: GptConfig,
    mix: &'static [ActDecision],
    workers: usize,
}

impl Case {
    /// The case's builder under `[gpu, host]` capacities.
    fn builder(&self, capacities: [Option<u64>; 2]) -> Ratel {
        let decisions = self.mix.iter().copied().cycle().take(self.model.layers);
        let mut b = Ratel::init(self.model)
            .activation_decisions(decisions.collect())
            .execution(ExecutionOptions::Executor(ExecutorOptions {
                workers_per_pool: self.workers,
                ..ExecutorOptions::default()
            }));
        if let Some(bytes) = capacities[0] {
            b = b.gpu_capacity(bytes);
        }
        if let Some(bytes) = capacities[1] {
            b = b.host_capacity(bytes);
        }
        b
    }
}

fn cases() -> Vec<Case> {
    let mut models: Vec<GptConfig> = common::zoo().iter().map(|s| s.model).collect();
    models.push(GptConfig::tiny());
    let mut cases = Vec::new();
    for model in models {
        for mix in MIXES {
            for workers in [1, 2, 4] {
                cases.push(Case {
                    model,
                    mix,
                    workers,
                });
            }
        }
    }
    cases
}

/// Runs a plain step and a four-micro-batch accumulated one unthrottled,
/// then with each route throttled in turn, holding the tiers' high-water
/// marks after each to `limits` (`[gpu, host]`).
fn run_under_every_throttle(plan: TrainingPlan, limits: [u64; 2], what: &str) {
    let model = plan.config().model;
    let mut trainer = plan.build().unwrap();
    let (tokens, targets) = random_batch(&model, 7);
    let micro: Vec<_> = (0..4).map(|s| random_batch(&model, 20 + s)).collect();
    for throttled in std::iter::once(None).chain(Route::ALL.map(Some)) {
        let engine = trainer.engine();
        for route in Route::ALL {
            engine.set_route_throttle(route, (Some(route) == throttled).then_some(2e6));
        }
        for accumulated in [false, true] {
            engine.store().reset_traffic();
            let step = if accumulated {
                engine.train_step_accumulated(&micro)
            } else {
                engine.train_step(&tokens, &targets)
            };
            let what = format!("{what}, {throttled:?} throttled, accumulated {accumulated}");
            if let Err(e) = step {
                panic!("{what}: {e}");
            }
            for ((tier, _), limit) in TIERS.into_iter().zip(limits) {
                let peak = engine.store().peak_used(tier);
                assert!(peak <= limit, "{what}: {tier:?} held {peak} B > {limit} B");
            }
        }
    }
}

/// The paced DAG of `plan` as `(tasks, edges, FNV-1a 64 of its sorted
/// "dependency -> task" label pairs)`.
fn dag_fingerprint(plan: &TrainingPlan) -> (usize, usize, u64) {
    let g = plan.graph();
    let label = |t| g.label(t).unwrap_or_default().to_string();
    let mut edges: Vec<String> = g
        .task_ids()
        .flat_map(|t| g.deps(t).iter().map(move |d| (*d, t)))
        .map(|(d, t)| format!("{} -> {}", label(d), label(t)))
        .collect();
    edges.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in edges.join("\n").bytes() {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (g.len(), edges.len(), hash)
}

/// What the tiny shape lowered to at its boundary capacities, two
/// workers per pool, before a layer could be placed anywhere but the SSD
/// tier: per mix of [`MIXES`] the `[gpu, host]` boundary, the DAG's
/// [`dag_fingerprint`] and the planned bytes per route.
type Pinned = ([u64; 2], (usize, usize, u64), [u64; 4]);
const TINY_AT_THE_BOUNDARY: [Pinned; 3] = [
    (
        [109_760, 820_928],
        (72, 108, 14_194_106_823_556_210_694),
        [186_176, 267_520, 598_976, 680_320],
    ),
    (
        [109_760, 820_928],
        (74, 108, 13_758_022_566_940_311_474),
        [154_688, 236_032, 630_464, 711_808],
    ),
    (
        [83_392, 820_928],
        (54, 72, 17_224_473_505_834_213_963),
        [91_712, 173_056, 598_976, 680_320],
    ),
];

/// The boundary of `accepts` at or below `hint`'s first accepted
/// doubling: the returned value is accepted and the one below it is not.
fn smallest_accepted(hint: u64, accepts: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0, hint.max(1));
    while !accepts(hi) {
        (lo, hi) = (hi, 2 * hi);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if accepts(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn check(case: Case) {
    let what = format!("{case:?}");
    // (i) Unbounded tiers: every master is host-resident, and the static
    // peak covers what any step holds.
    let free = case.builder([None, None]).plan().unwrap();
    assert_eq!(free.placement(), Placement::HostMaster);
    let peaks = TIERS.map(|(_, tier)| free.static_peak(tier));
    run_under_every_throttle(free, peaks, &format!("{what} unbounded"));

    // The smallest arena the plan accepts, then the smallest host pool
    // beside it.
    let accepts = |capacities| case.builder(capacities).plan().is_ok();
    let gpu = smallest_accepted(peaks[0], |c| accepts([Some(c), None]));
    let host = smallest_accepted(peaks[1], |c| accepts([Some(gpu), Some(c)]));
    // What the builder reports without a search is such a boundary too
    // (not always the same one: a roomier pool is paced to read further
    // ahead, so acceptance is not monotone in the capacity).
    let reported = case.builder([Some(gpu), None]).min_host_capacity().unwrap();
    assert!(reported <= host, "{what}: {reported} B over {host} B");
    assert!(accepts([Some(gpu), Some(reported)]), "{what}");
    assert!(!accepts([Some(gpu), Some(reported - 1)]), "{what}");

    // (iii) One byte below either is refused, naming tier and need.
    for (capacities, tier) in [
        ([Some(gpu - 1), Some(host)], "gpu"),
        ([Some(gpu), Some(host - 1)], "host"),
    ] {
        match case.builder(capacities).plan() {
            Err(RatelError::InvalidConfig(v)) => {
                let named = v
                    .iter()
                    .find(|m| m.starts_with(&format!("{tier} capacity")));
                let need = named.and_then(|m| m.rsplit("needs ").next()?.strip_suffix(" B"));
                let need: u64 = need
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("{what} at {capacities:?}: {v:?}"));
                assert!(
                    need > capacities[(tier == "host") as usize].unwrap(),
                    "{v:?}"
                );
            }
            other => panic!("{what} at {capacities:?}: expected InvalidConfig, got {other:?}"),
        }
    }

    // (ii) At the boundary — under a host capacity the plan is the
    // all-SSD one — every step fits, whatever link is slow.
    let tight = case.builder([Some(gpu), Some(host)]).plan().unwrap();
    tight.verify().unwrap();
    assert_eq!(tight.placement(), Placement::Ssd);
    let mix = MIXES.iter().position(|m| *m == case.mix);
    if let (Some(mix), true, 2) = (mix, case.model == GptConfig::tiny(), case.workers) {
        let lowered = (
            [gpu, host],
            dag_fingerprint(&tight),
            tight.planned_route_bytes(),
        );
        assert_eq!(lowered, TINY_AT_THE_BOUNDARY[mix], "{what}");
    }
    run_under_every_throttle(
        tight,
        [gpu, host],
        &format!("{what} at gpu {gpu} host {host}"),
    );
}

/// Runs `check` over `cases`, a few at a time: throttled steps sleep,
/// so this keeps the suite short without loading the cores.
fn for_each<T: Copy + Sync>(cases: &[T], check: impl Fn(T) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..6 {
            s.spawn(|| {
                while let Some(case) = cases.get(next.fetch_add(1, Ordering::Relaxed)) {
                    check(*case);
                }
            });
        }
    });
}

#[test]
fn the_static_peak_is_sound_sufficient_and_refuses_one_byte_less() {
    for_each(&cases(), check);
}

#[test]
fn what_the_planner_picks_under_a_host_cap_fits_it() {
    let mut models: Vec<GptConfig> = common::zoo().iter().map(|s| s.model).collect();
    models.push(GptConfig::tiny());
    for_each(&models, |model| {
        // What a step needs whatever is swapped: the arena and the host
        // pool of the all-recompute plan.
        let recompute = Case {
            model,
            mix: MIXES[2],
            workers: ExecutorOptions::default().workers_per_pool,
        };
        let accepts = |capacities| recompute.builder(capacities).plan().is_ok();
        let arena = smallest_accepted(1 << 16, |c| accepts([Some(c), None]));
        // Under an unbounded arena the planner's swaps stand; under the
        // one recomputing needs they are undone where they do not fit
        // it. Either way: no room in host memory for a swapped
        // activation, then as much again for them.
        for gpu in [None, Some(arena)] {
            let need = smallest_accepted(1 << 16, |c| accepts([gpu, Some(c)]));
            for host in [need, 2 * need] {
                let mut planner = Ratel::init(model).host_capacity(host).probe_bytes(1 << 16);
                if let Some(bytes) = gpu {
                    planner = planner.gpu_capacity(bytes);
                }
                let what = format!("{model:?} under gpu {gpu:?}, host {host}");
                let plan = planner.plan().unwrap_or_else(|e| panic!("{what}: {e}"));
                plan.verify().unwrap();
                let what = format!("{what}, planned {:?}", plan.decisions());
                run_under_every_throttle(plan, [gpu.unwrap_or(u64::MAX), host], &what);
            }
        }
    });
}
