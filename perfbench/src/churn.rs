//! `provision-churn`: one closed-loop caller provisions and tears down
//! wavelengths on the generated 600-ROADM plant.
//!
//! Each step provisions a wave of [`WAVE`] wavelengths in one
//! group-committed `journal_batch` (WAL attached), runs the controller
//! to idle, tears down the oldest live wave in a second batch and runs
//! to idle again, so [`LIVE_WAVES`] waves stay in service. Endpoint
//! pairs are drawn Zipf-skewed ([`ZIPF_S`]) from a working set of
//! [`WORKING_SET`] ordered pairs, twice the route cache's 8192 entries,
//! so misses and evictions continue after warm-up. One operation is one
//! `request_wavelength` or `request_teardown` call.

use std::collections::VecDeque;
use std::time::Instant;

use griphon::{ConnState, ConnectionId, Controller, CustomerId, WalConfig};
use photonic::{GeneratedPlant, LineRate, RoadmId};
use simcore::{DataRate, SimRng, ZipfSampler};

use crate::alloc;
use crate::checks::{self, PlantView};
use crate::common::{self, Layers, LogCapture, Mode, Outcome, PeakRss, Spans};
use crate::stats::{cpu_timed, median, percentile};

/// Distinct ordered endpoint pairs the caller draws from.
pub const WORKING_SET: usize = 16_384;
/// Zipf exponent over the pair ranks.
pub const ZIPF_S: f64 = 1.0;
/// Intents per group-committed wave.
pub const WAVE: usize = 32;
/// Waves in service at once.
pub const LIVE_WAVES: usize = 2;
/// Steps per round: 16 × 2 × 32 = 1024 operations.
pub const ROUND_STEPS: usize = 16;
/// Transponders per node: at least the live population, so transponder
/// pools never block a request.
pub const OTS_PER_NODE: usize = LIVE_WAVES * WAVE;
/// Regenerators per hub and anchor: likewise never the blocking resource.
pub const REGENS_PER_HUB: usize = LIVE_WAVES * WAVE;
/// Rounds after which `peak_rss_mb` is read (131,072 operations).
pub const RSS_ROUNDS: usize = 128;
/// Recoveries per run; `recover_s` is their median.
pub const RECOVERIES: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Route-cache capacity the warm-up pass fills.
pub const CACHE_CAPACITY: usize = 8_192;

/// The caller's state between steps.
struct Churn {
    plant: GeneratedPlant,
    ctl: Controller,
    customer: CustomerId,
    pairs: Vec<(RoadmId, RoadmId)>,
    zipf: ZipfSampler,
    rng: SimRng,
    live: VecDeque<Vec<ConnectionId>>,
}

/// Per-run accumulators of the timed phase.
#[derive(Default)]
struct Tally {
    /// Wall-clock seconds of each `request_wavelength` call.
    request_secs: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// `WORKING_SET` distinct ordered pairs of interior nodes, in rank order.
///
/// Only pairs whose shortest route (the benchmark's own Dijkstra) is
/// within the 10G optical reach qualify: the RWA places regenerators by
/// reach alone, so a longer pair can be blocked on an idle plant when a
/// regeneration point falls on a node without regenerators.
fn working_set(
    plant: &GeneratedPlant,
    ctl: &Controller,
    rng: &mut SimRng,
) -> Vec<(RoadmId, RoadmId)> {
    let reach = ctl.config().rwa.reach.reach_km(LineRate::Gbps10);
    let view = PlantView::of(ctl);
    let nodes: Vec<RoadmId> = plant.interior.iter().flatten().copied().collect();
    let km: Vec<Vec<f64>> = (0..view.adjacency.len())
        .map(|n| checks::dijkstra_km(&view, n))
        .collect();
    let mut seen = std::collections::HashSet::with_capacity(WORKING_SET);
    let mut pairs = Vec::with_capacity(WORKING_SET);
    while pairs.len() < WORKING_SET {
        let a = *rng.choose(&nodes);
        let b = *rng.choose(&nodes);
        if a != b && km[a.index()][b.index()] <= reach && seen.insert((a, b)) {
            pairs.push((a, b));
        }
    }
    pairs
}

impl Churn {
    /// Plant, controller with WAL, working set, warm-up pass over the
    /// `CACHE_CAPACITY` most popular pairs (least popular first, so the
    /// hottest are most recent), then `LIVE_WAVES` waves put in service.
    fn setup(seed: u64, bad: &mut Vec<String>) -> Churn {
        let plant = common::plant(seed, OTS_PER_NODE, REGENS_PER_HUB);
        let mut ctl = common::controller(&plant, seed);
        ctl.enable_journal(WalConfig::default());
        let customer = ctl.register_tenant("churn", DataRate::from_gbps(1_000_000_000));
        let mut rng = SimRng::new(seed).fork(0xC4E2);
        let pairs = working_set(&plant, &ctl, &mut rng);
        let mut churn = Churn {
            plant,
            ctl,
            customer,
            pairs,
            zipf: ZipfSampler::new(WORKING_SET, ZIPF_S),
            rng,
            live: VecDeque::new(),
        };
        let warm: Vec<(RoadmId, RoadmId)> = churn.pairs[..CACHE_CAPACITY]
            .iter()
            .rev()
            .copied()
            .collect();
        let mut spans = Spans::new(false);
        let mut tally = Tally::default();
        for wave in warm.chunks(WAVE) {
            let ids = churn.provision(wave, &mut spans, &mut tally);
            churn.live.push_back(ids);
            churn.retire(&mut spans, &mut tally);
        }
        for _ in 0..LIVE_WAVES {
            let wave = churn.draw();
            let ids = churn.provision(&wave, &mut spans, &mut tally);
            churn.live.push_back(ids);
        }
        if tally.failed > 0 {
            bad.push(format!("{} set-up operations failed", tally.failed));
        }
        churn
    }

    /// The next wave's endpoint pairs.
    fn draw(&mut self) -> Vec<(RoadmId, RoadmId)> {
        (0..WAVE)
            .map(|_| self.pairs[self.zipf.sample(&mut self.rng)])
            .collect()
    }

    /// Provision `wave` in one batch and run to idle; returns the ids
    /// that came up Active.
    fn provision(
        &mut self,
        wave: &[(RoadmId, RoadmId)],
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Vec<ConnectionId> {
        let customer = self.customer;
        let trace = spans.on();
        let mut requests = Vec::with_capacity(wave.len());
        let results = common::batch(&mut self.ctl, spans, |c| {
            wave.iter()
                .map(|&(a, b)| {
                    let misses = trace.then(|| c.route_cache_stats().misses);
                    let t = Instant::now();
                    let r = c.request_wavelength(customer, a, b, LineRate::Gbps10);
                    requests.push((
                        t.elapsed().as_secs_f64(),
                        misses.map(|m0| c.route_cache_stats().misses > m0),
                    ));
                    r
                })
                .collect::<Vec<_>>()
        });
        for (s, miss) in requests {
            tally.request_secs.push(s);
            match miss {
                Some(true) => spans.record("controller.request_miss", s),
                Some(false) => spans.record("controller.request_hit", s),
                None => {}
            }
        }
        spans.span("controller.events", || self.ctl.run_until_idle());
        tally.attempted += wave.len() as u64;
        let mut ids = Vec::with_capacity(wave.len());
        for r in results {
            match r {
                Ok(id) if self.state(id) == Some(ConnState::Active) => ids.push(id),
                _ => tally.failed += 1,
            }
        }
        ids
    }

    /// Tear down the oldest live wave in one batch and run to idle.
    fn retire(&mut self, spans: &mut Spans, tally: &mut Tally) {
        let ids = self.live.pop_front().unwrap_or_default();
        let mut teardowns = Vec::with_capacity(ids.len());
        let results = common::batch(&mut self.ctl, spans, |c| {
            ids.iter()
                .map(|&id| {
                    let t = Instant::now();
                    let r = c.request_teardown(id);
                    teardowns.push(t.elapsed().as_secs_f64());
                    r
                })
                .collect::<Vec<_>>()
        });
        for s in teardowns {
            spans.record("controller.teardown", s);
        }
        spans.span("controller.events", || self.ctl.run_until_idle());
        tally.attempted += ids.len() as u64;
        for (id, r) in ids.iter().zip(results) {
            if r.is_err() || self.state(*id) != Some(ConnState::Released) {
                tally.failed += 1;
            }
        }
    }

    fn state(&self, id: ConnectionId) -> Option<ConnState> {
        self.ctl.connection(id).map(|c| c.state)
    }

    /// One round of `ROUND_STEPS` steps. Returns the CPU seconds of the
    /// steps: the batches, the runs to idle and the caller's state checks
    /// on the returned ids (the pair draw is outside it).
    fn round(&mut self, spans: &mut Spans, tally: &mut Tally) -> f64 {
        let mut secs = 0.0;
        for _ in 0..ROUND_STEPS {
            let wave = self.draw();
            let ((), s) = cpu_timed(|| {
                let ids = self.provision(&wave, spans, tally);
                self.live.push_back(ids);
                self.retire(spans, tally);
            });
            secs += s;
        }
        secs
    }

    fn genesis(&self, seed: u64) -> impl Fn() -> Controller + '_ {
        move || common::controller(&self.plant, seed)
    }
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let setups = if mode == Mode::Full { SETUPS } else { 1 };
    let (mut churn, setup_secs) = common::set_up(setups, |_| Churn::setup(seed, &mut out.bad));

    let mut spans = Spans::new(trace);
    let mut tally = Tally::default();
    let mut rates = Vec::new();
    let mut rss = PeakRss::at_round(RSS_ROUNDS);
    let mut round_events = Vec::new();
    let mut round_event_secs = Vec::new();
    let cache0 = churn.ctl.route_cache_stats();
    let mut first_log = None;
    let mut timed_secs = 0.0;
    if trace {
        alloc::start();
    }
    loop {
        let ops0 = tally.attempted;
        let ev0 = churn.ctl.events_processed();
        let evs0 = spans.total("controller.events");
        let secs = churn.round(&mut spans, &mut tally);
        timed_secs += secs;
        rates.push((tally.attempted - ops0) as f64 / secs);
        rss.round_done(rates.len());
        round_events.push((churn.ctl.events_processed() - ev0) as f64);
        round_event_secs.push(spans.total("controller.events") - evs0);
        if first_log.is_none() {
            alloc::pause();
            first_log = Some(LogCapture::of(&churn.ctl));
            out.bad
                .extend(checks::check_plant(&PlantView::of(&churn.ctl)));
            alloc::resume();
        }
        if mode == Mode::Probe || timed_secs >= seconds {
            break;
        }
    }
    alloc::pause();
    let allocations = alloc::allocations();
    let cache = churn.ctl.route_cache_stats();
    out.bad
        .extend(checks::check_plant(&PlantView::of(&churn.ctl)));
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    let rounds = rates.len();
    out.notes.push(format!(
        "provision-churn: {rounds} rounds, {} ops, {:.0} ops/s (median round), cache {} hits / {} misses / {} evictions",
        tally.attempted,
        median(&rates),
        cache.hits - cache0.hits,
        cache.misses - cache0.misses,
        cache.evictions - cache0.evictions,
    ));

    let log = first_log.expect("at least one round");
    let genesis = churn.genesis(seed);
    if !trace {
        let recover_s = common::recover_s(&log, &genesis, RECOVERIES, &mut out.bad);
        // Over `request_wavelength` calls only: a teardown costs a tenth
        // of a request and both are half the operations, so a median
        // over both would sit on the gap between them.
        let intent_us = (
            percentile(&tally.request_secs, 0.50) * 1e6,
            percentile(&tally.request_secs, 0.99) * 1e6,
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
        ctl: &churn.ctl,
        cache0,
        rounds,
        allocations,
        ops: tally.attempted,
    }
    .record(m);
    m.set("controller.events_s", median(&round_event_secs), "s");
    m.set("controller.events", median(&round_events), "count");
    out.notes.push(format!(
        "provision-churn traced: {:.0} ops/s (median round)",
        median(&rates)
    ));
    if mode == Mode::Full {
        common::recovery_split(&log, &genesis, m, &mut out.bad);
    }
    out
}
