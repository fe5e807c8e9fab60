//! `fault-storm`: repeated fiber cuts and repairs on a plant carrying a
//! preloaded live population.
//!
//! Set-up provisions [`PRELOAD`] wavelengths in group-committed waves
//! and tears down [`PRELOAD_CHURN`] of them, leaving [`LIVE`] in
//! service. Each cycle cuts one fiber (`inject_fiber_cut`), runs the
//! controller to idle (sequential restoration), schedules its repair
//! (`schedule_repair`) and runs to idle again: on every repair the
//! default `auto_revert` calls `regroom_all`, which re-plans every live
//! connection with an uncached exclusion search. One round cuts and
//! repairs, in a seeded order, every fiber the live population uses that
//! is not a bridge of the fiber graph, so the round's cost averages over
//! the whole population rather than a sample of cuts. One operation is
//! one cut or one repair.

use std::collections::BTreeSet;
use std::time::Instant;

use griphon::{ConnState, Controller, CustomerId, WalConfig};
use photonic::{FiberId, GeneratedPlant, LineRate, RoadmId};
use simcore::{DataRate, SimDuration, SimRng};

use crate::alloc;
use crate::checks::{self, PlantView};
use crate::common::{self, Layers, LogCapture, Mode, Outcome, PeakRss, Spans};
use crate::stats::{cpu_timed, median, percentile};

/// Wavelengths provisioned by the preload.
pub const PRELOAD: usize = 650;
/// Of which this many are torn down again.
pub const PRELOAD_CHURN: usize = 60;
/// The live population the cuts hit.
pub const LIVE: usize = PRELOAD - PRELOAD_CHURN;
/// Preload wave size (one `journal_batch` each).
pub const WAVE: usize = 50;
/// Transponders per node.
pub const OTS_PER_NODE: usize = 16;
/// Regenerators per hub and anchor.
pub const REGENS_PER_HUB: usize = 32;
/// Repair crew delay after a cut.
pub const REPAIR_AFTER: SimDuration = SimDuration::from_hours(4);
/// Cycles after which the log `recover_s` replays is captured.
pub const LOG_CYCLES: usize = 64;
/// Rounds after which `peak_rss_mb` is read.
pub const RSS_ROUNDS: usize = 1;
/// Recoveries per run; `recover_s` is their median.
pub const RECOVERIES: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 25;

struct Storm {
    plant: GeneratedPlant,
    ctl: Controller,
    cuts: Vec<FiberId>,
    next_cut: usize,
}

#[derive(Default)]
struct Tally {
    /// Host seconds per cycle (cut + restoration + repair + reversion).
    cycle_secs: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Fibers whose removal disconnects the graph (Tarjan bridges).
fn graph_bridges(view: &PlantView) -> BTreeSet<usize> {
    let n = view.adjacency.len();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut bridges = BTreeSet::new();
    let mut time = 0;
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        // Iterative DFS: (node, fiber used to enter, next edge index).
        let mut stack = vec![(root, usize::MAX, 0usize)];
        disc[root] = time;
        low[root] = time;
        time += 1;
        while let Some(&mut (u, via, ref mut i)) = stack.last_mut() {
            if let Some(&(f, v)) = view.adjacency[u].get(*i) {
                *i += 1;
                if f == via {
                    continue;
                }
                if disc[v] == usize::MAX {
                    disc[v] = time;
                    low[v] = time;
                    time += 1;
                    stack.push((v, f, 0));
                } else {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    if low[u] > disc[p] {
                        bridges.insert(via);
                    }
                }
            }
        }
    }
    bridges
}

impl Storm {
    fn setup(seed: u64, spans: &mut Spans, bad: &mut Vec<String>) -> Storm {
        let plant = common::plant(seed, OTS_PER_NODE, REGENS_PER_HUB);
        let mut ctl = common::controller(&plant, seed);
        ctl.enable_journal(WalConfig::default());
        let customer = ctl.register_tenant("storm", DataRate::from_gbps(1_000_000_000));
        let mut rng = SimRng::new(seed).fork(0x5702);
        let pairs = preload_pairs(&plant, &mut rng);
        let mut ids = Vec::with_capacity(PRELOAD);
        for wave in pairs.chunks(WAVE) {
            provision(&mut ctl, customer, wave, spans, &mut ids);
        }
        // Tear down a seeded sample, leaving `LIVE` in service.
        let mut order: Vec<usize> = (0..ids.len()).collect();
        rng.shuffle(&mut order);
        let gone: Vec<_> = order[..PRELOAD_CHURN.min(ids.len())]
            .iter()
            .map(|&i| ids[i])
            .collect();
        let (results, _) = ctl.journal_batch(|c| {
            gone.iter()
                .map(|&id| spans.span("controller.teardown", || c.request_teardown(id)))
                .collect::<Vec<_>>()
        });
        ctl.run_until_idle();
        let live = ctl
            .connections()
            .filter(|c| c.state == ConnState::Active)
            .count();
        if ids.len() != PRELOAD || results.iter().any(Result::is_err) || live != LIVE {
            bad.push(format!(
                "preload left {live} live connections ({} provisioned), expected {LIVE}",
                ids.len()
            ));
        }
        let view = PlantView::of(&ctl);
        let bridges = graph_bridges(&view);
        let mut cuts: Vec<FiberId> = (0..view.fibers.len())
            .filter(|f| !bridges.contains(f) && !checks::impacted_by(&view, *f).is_empty())
            .map(FiberId::from_index)
            .collect();
        rng.shuffle(&mut cuts);
        if cuts.is_empty() {
            bad.push("no fiber qualifies for the cut schedule".into());
        }
        Storm {
            plant,
            ctl,
            cuts,
            next_cut: 0,
        }
    }

    /// One cut + restoration and one repair + reversion. Returns CPU
    /// seconds of the two operations; the benchmark's own impacted-set
    /// computation and the checks between them are outside it.
    fn cycle(&mut self, spans: &mut Spans, tally: &mut Tally, bad: &mut Vec<String>) -> f64 {
        let fiber = self.cuts[self.next_cut % self.cuts.len()];
        self.next_cut += 1;
        let expected = checks::impacted_by(&PlantView::of(&self.ctl), fiber.index());

        let ((), cut_call) =
            cpu_timed(|| common::batch(&mut self.ctl, spans, |c| c.inject_fiber_cut(fiber, 0)));
        let failed: BTreeSet<u32> = self
            .ctl
            .connections()
            .filter(|c| c.state == ConnState::Failed)
            .map(|c| c.id.raw())
            .collect();
        let ((), cut_events) = cpu_timed(|| self.ctl.run_until_idle());
        let cut_secs = cut_call + cut_events;
        let view = PlantView::of(&self.ctl);
        let mut cut_bad = checks::check_cut(&expected, &failed);
        cut_bad.extend(checks::check_restored(&view, &expected, fiber.index()));

        let ((), repair_call) = cpu_timed(|| {
            common::batch(&mut self.ctl, spans, |c| {
                c.schedule_repair(fiber, REPAIR_AFTER)
            })
        });
        let ((), repair_events) = cpu_timed(|| self.ctl.run_until_idle());
        let repair_secs = repair_call + repair_events;
        let repair_bad: Vec<String> = self
            .ctl
            .connections()
            .filter(|c| !c.state.is_terminal() && c.state != ConnState::Active)
            .map(|c| format!("conn {} is {:?} after repair", c.id.raw(), c.state))
            .collect();

        spans.record("controller.events", cut_events + repair_events);
        spans.record("fault.cut", cut_secs);
        spans.record("maintenance.repair", repair_secs);
        tally.cycle_secs.push(cut_secs + repair_secs);
        tally.attempted += 2;
        tally.failed += u64::from(!cut_bad.is_empty()) + u64::from(!repair_bad.is_empty());
        bad.extend(cut_bad);
        bad.extend(repair_bad);
        cut_secs + repair_secs
    }

    fn genesis(&self, seed: u64) -> impl Fn() -> Controller + '_ {
        move || common::controller(&self.plant, seed)
    }
}

/// Seeded preload endpoint pairs, both ends inside one region, so every
/// restoration detour stays within optical reach and needs no
/// regenerator (see `churn::working_set` for why that matters).
fn preload_pairs(plant: &GeneratedPlant, rng: &mut SimRng) -> Vec<(RoadmId, RoadmId)> {
    let regions = plant.interior.len();
    let mut pairs = Vec::with_capacity(PRELOAD);
    while pairs.len() < PRELOAD {
        let r = rng.below(regions as u64) as usize;
        let a = *rng.choose(&plant.interior[r]);
        let b = *rng.choose(&plant.interior[r]);
        if a != b {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Provision one preload wave in a batch and run to idle, recording the
/// request spans the way `provision-churn` does.
fn provision(
    ctl: &mut Controller,
    customer: CustomerId,
    wave: &[(RoadmId, RoadmId)],
    spans: &mut Spans,
    ids: &mut Vec<griphon::ConnectionId>,
) {
    let trace = spans.on();
    let (results, _) = ctl.journal_batch(|c| {
        wave.iter()
            .map(|&(a, b)| {
                let m0 = c.route_cache_stats().misses;
                let t = Instant::now();
                let r = c.request_wavelength(customer, a, b, LineRate::Gbps10);
                if trace {
                    let s = t.elapsed().as_secs_f64();
                    let miss = c.route_cache_stats().misses > m0;
                    spans.record(
                        if miss {
                            "controller.request_miss"
                        } else {
                            "controller.request_hit"
                        },
                        s,
                    );
                }
                r
            })
            .collect::<Vec<_>>()
    });
    ctl.run_until_idle();
    ids.extend(
        results
            .into_iter()
            .flatten()
            .filter(|&id| ctl.connection(id).map(|c| c.state) == Some(ConnState::Active)),
    );
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let setups = if mode == Mode::Full { SETUPS } else { 1 };
    // Only the kept set-up records spans (its preload requests).
    let ((mut storm, mut spans), setup_secs) = common::set_up(setups, |kept| {
        let mut spans = Spans::new(trace && kept);
        (Storm::setup(seed, &mut spans, &mut out.bad), spans)
    });

    let mut tally = Tally::default();
    let mut rates = Vec::new();
    let mut rss = PeakRss::at_round(RSS_ROUNDS);
    let mut round_events = Vec::new();
    let mut round_event_secs = Vec::new();
    let mut first_log = None;
    let mut timed_secs = 0.0;
    let cache0 = storm.ctl.route_cache_stats();
    if trace {
        alloc::start();
    }
    loop {
        let ops0 = tally.attempted;
        let ev0 = storm.ctl.events_processed();
        let evs0 = spans.total("controller.events");
        let mut secs = 0.0;
        for _ in 0..storm.cuts.len() {
            secs += storm.cycle(&mut spans, &mut tally, &mut out.bad);
            if storm.next_cut == LOG_CYCLES {
                alloc::pause();
                first_log = Some(LogCapture::of(&storm.ctl));
                alloc::resume();
            }
        }
        timed_secs += secs;
        rates.push((tally.attempted - ops0) as f64 / secs);
        rss.round_done(rates.len());
        round_events.push((storm.ctl.events_processed() - ev0) as f64);
        round_event_secs.push(spans.total("controller.events") - evs0);
        if mode == Mode::Probe || timed_secs >= seconds {
            break;
        }
    }
    alloc::pause();
    let allocations = alloc::allocations();
    out.bad
        .extend(checks::check_plant(&PlantView::of(&storm.ctl)));
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    let rounds = rates.len();
    out.notes.push(format!(
        "fault-storm: {rounds} rounds, {} ops over {} cut fibers, {:.0} ops/s (median round)",
        tally.attempted,
        storm.cuts.len(),
        median(&rates)
    ));

    // A schedule shorter than `LOG_CYCLES` is logged whole.
    let log = first_log.unwrap_or_else(|| LogCapture::of(&storm.ctl));
    let genesis = storm.genesis(seed);
    if !trace {
        let recover_s = common::recover_s(&log, &genesis, RECOVERIES, &mut out.bad);
        // Cut and repair costs differ by an order of magnitude, so the
        // per-intent figures are taken over whole fault cycles.
        let intent_us = (
            percentile(&tally.cycle_secs, 0.50) * 1e6,
            percentile(&tally.cycle_secs, 0.99) * 1e6,
        );
        common::end_to_end(
            &mut out.metrics,
            &setup_secs,
            &rates,
            intent_us,
            recover_s,
            &rss,
        );
        return out;
    }
    let m = &mut out.metrics;
    Layers {
        spans: &spans,
        ctl: &storm.ctl,
        cache0,
        rounds,
        allocations,
        ops: tally.attempted,
    }
    .record(m);
    m.set("controller.events_s", median(&round_event_secs), "s");
    m.set("controller.events", median(&round_events), "count");
    out.notes.push(format!(
        "fault-storm traced: {:.0} ops/s (median round)",
        median(&rates)
    ));
    if mode == Mode::Full {
        common::recovery_split(&log, &genesis, m, &mut out.bad);
    }
    out
}
