//! `edge-overload`: `northbound::ApiServer`, WAL attached, serving a
//! fleet that offers [`LOAD`]× the drain capacity throughout one diurnal
//! cycle.
//!
//! The fleet is [`TENANTS`] tenants (Zipf popularity, bounded-Pareto
//! rates) offering [`BASE_RATE`] requests/s over [`HORIZON_SECS`] s of
//! simulated time against a server that hands off 10 bookings per
//! 100 ms drain tick, so the admitted stream, `HORIZON_SECS × 100`
//! bookings, accumulates into the tens of thousands of reservations.
//! Arrivals follow the fleet schedule: an open loop in simulated time.
//! One round is one `ApiServer::run` + `finish` over the whole fleet on a
//! fresh `build_testbed`; one operation is one offered request.

use std::time::Instant;

use griphon::{Controller, WalConfig};
use northbound::{
    build_testbed, generate_fleet, replay_admitted, AdmittedIntent, ApiServer, FleetConfig,
    ServerConfig, TenantDirectory, Testbed,
};
use simcore::{DataRate, SimDuration, SimTime};

use crate::alloc;
use crate::checks::{self, EdgeView};
use crate::common::{self, Layers, LogCapture, Mode, Outcome, PeakRss, Spans, ROADMS};
use crate::stats::{cpu_timed, median, percentile};

/// Fleet size.
pub const TENANTS: u64 = 1_000_000;
/// Simulated serving horizon, seconds (one diurnal period).
pub const HORIZON_SECS: u64 = 240;
/// Horizon of the one-round probe other workloads' traced runs use.
pub const PROBE_HORIZON_SECS: u64 = 20;
/// Offered load over the drain capacity (100 bookings/s).
pub const LOAD: f64 = 10.0;
/// Mean offered requests per second before diurnal modulation.
pub const BASE_RATE: f64 = 100.0 * LOAD;
/// Endpoint pairs tenants book between.
pub const PAIRS: usize = 64;
/// Rounds after which `peak_rss_mb` is read.
pub const RSS_ROUNDS: usize = 1;
/// Recoveries per run; `recover_s` is their median.
pub const RECOVERIES: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

fn fleet_config(seed: u64, horizon_secs: u64) -> FleetConfig {
    FleetConfig {
        tenants: TENANTS,
        seed,
        horizon: SimTime::from_secs(horizon_secs),
        base_rate_per_sec: BASE_RATE,
        diurnal_period: SimDuration::from_secs(horizon_secs),
        pairs: PAIRS,
        ..FleetConfig::default()
    }
}

/// The default server, except that the tier-wide gbps-hour budgets are
/// lifted so that no tier runs dry before the horizon: the overload then
/// lasts the whole run and every drain tick hands off a full budget.
fn server_config() -> ServerConfig {
    let mut cfg = ServerConfig::default();
    for tier in &mut cfg.quota {
        tier.tier_budget_mgh = u64::MAX / 4;
    }
    cfg
}

fn testbed(seed: u64) -> Testbed {
    build_testbed(ROADMS, PAIRS, seed)
}

/// The benchmark's own booking pass: the admitted stream booked through
/// `reserve_bandwidth` on a fresh testbed with a WAL, one
/// `journal_batch` per drain tick, as `replay_admitted` does. Per-call
/// times go to `calls`.
fn book(
    seed: u64,
    admitted: &[AdmittedIntent],
    horizon: SimTime,
    spans: &mut Spans,
    calls: &mut Vec<f64>,
) -> (Controller, u64) {
    let Testbed {
        mut ctl,
        customers,
        pairs,
    } = testbed(seed);
    ctl.enable_journal(WalConfig::default());
    let mut refused = 0u64;
    let mut i = 0;
    while i < admitted.len() {
        let at = admitted[i].at;
        spans.span("controller.events", || ctl.run_until(at));
        let j = i + admitted[i..].iter().take_while(|a| a.at == at).count();
        common::batch(&mut ctl, spans, |c| {
            for a in &admitted[i..j] {
                let (from, to) = pairs[a.pair];
                let t = Instant::now();
                let r = c.reserve_bandwidth(
                    customers[a.tier.index()],
                    from,
                    to,
                    DataRate::from_bps(a.rate_bps),
                    a.start,
                    a.end,
                );
                calls.push(t.elapsed().as_secs_f64());
                refused += u64::from(r.is_err());
            }
        });
        i = j;
    }
    spans.span("controller.events", || ctl.run_until(horizon));
    (ctl, refused)
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let horizon_secs = if mode == Mode::Full {
        HORIZON_SECS
    } else {
        PROBE_HORIZON_SECS
    };
    let horizon = SimTime::from_secs(horizon_secs);
    let cfg = fleet_config(seed, horizon_secs);
    let server_cfg = server_config();
    let setups = if mode == Mode::Full { SETUPS } else { 1 };
    let mut fleet_secs = Vec::new();
    let ((dir, requests, bed), setup_secs) = common::set_up(setups, |_| {
        let dir = TenantDirectory::new(cfg.tenants, cfg.seed);
        let (requests, s) = cpu_timed(|| generate_fleet(&cfg, &dir));
        fleet_secs.push(s);
        (dir, requests, testbed(seed))
    });
    let offered = requests.len() as u64;

    let mut spans = Spans::new(trace);
    let mut rates = Vec::new();
    let mut rss = PeakRss::at_round(RSS_ROUNDS);
    let mut costs_us = Vec::new();
    let mut first: Option<(EdgeView, u32)> = None;
    let mut timed_secs = 0.0;
    let mut next_bed = Some(bed);
    if trace {
        alloc::start();
    }
    loop {
        alloc::pause();
        let mut bed = next_bed.take().unwrap_or_else(|| testbed(seed));
        bed.ctl.enable_journal(WalConfig::default());
        alloc::resume();
        let (outcome, secs) = cpu_timed(|| {
            let mut server = ApiServer::new(bed, dir.clone(), server_cfg.clone());
            server.run(&requests, horizon);
            server.finish()
        });
        alloc::pause();
        timed_secs += secs;
        rates.push(offered as f64 / secs);
        rss.round_done(rates.len());
        costs_us.push(secs / offered as f64 * 1e6);
        spans.record("northbound.run", secs);
        let view = EdgeView::of(offered, &outcome);
        out.attempted += offered;
        out.failed += view.controller_refusals + view.offered.abs_diff(view.accounted());
        match &first {
            None => {
                out.bad
                    .extend(checks::check_edge(&view, &server_cfg, horizon.as_nanos()));
                first = Some((view, outcome.digest_crc));
            }
            Some((v, digest)) => {
                out.bad.extend(checks::check_digest(
                    "round vs first round",
                    *digest,
                    outcome.digest_crc,
                ));
                if v.admitted != view.admitted {
                    out.bad
                        .push("admitted stream differs between rounds".into());
                }
            }
        }
        alloc::resume();
        if mode == Mode::Probe || timed_secs >= seconds {
            break;
        }
    }
    alloc::pause();
    let allocations = alloc::allocations();
    let (view, server_digest) = first.expect("at least one round");
    let admitted = view.admitted_per_tier.iter().sum::<u64>();
    out.notes.push(format!(
        "edge-overload: {} rounds of {offered} offered requests; per round {admitted} admitted, \
         401 {}, 429 {:?}, 403 {:?}, 503 {:?}, queued at horizon {}; {:.0} req/s (median round)",
        rates.len(),
        view.unauthorized,
        view.rate_limited,
        view.quota,
        view.shed,
        view.queued,
        median(&rates)
    ));

    // Properties: the server's digest equals the replayed admitted
    // stream's and the benchmark's own booking pass's.
    let replayed = replay_admitted(testbed(seed), &view.admitted, horizon);
    out.bad.extend(checks::check_digest(
        "replay_admitted vs server",
        server_digest,
        replayed,
    ));
    let mut calls = Vec::with_capacity(view.admitted.len());
    let ((ctl, refused), book_s) =
        cpu_timed(|| book(seed, &view.admitted, horizon, &mut spans, &mut calls));
    if refused > 0 {
        out.bad
            .push(format!("booking pass refused {refused} admitted intents"));
    }
    out.bad.extend(checks::check_digest(
        "booking pass vs server",
        server_digest,
        ctl.state_digest_crc(),
    ));
    let log = LogCapture::of(&ctl);
    let genesis = || testbed(seed).ctl;

    if !trace {
        let recover_s = common::recover_s(&log, &genesis, RECOVERIES, &mut out.bad);
        // No per-request boundary is visible outside `ApiServer::run`:
        // the per-intent figures are per-round CPU time per offered
        // request, its median and its 99th percentile over the rounds.
        let intent_us = (median(&costs_us), percentile(&costs_us, 0.99));
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
    // The booking pass is the one round whose controller calls the
    // benchmark sees: its spans, its controller and its event loop.
    Layers {
        spans: &spans,
        ctl: &ctl,
        cache0: Default::default(),
        rounds: 1,
        allocations,
        ops: out.attempted,
    }
    .record(m);
    let run_s = median(&spans.of("northbound.run"));
    let tenth = (calls.len() / 10).max(1);
    m.set("northbound.run_s", run_s, "s");
    m.set("calendar.book_s", book_s, "s");
    m.set("northbound.edge_s", run_s - book_s, "s");
    m.set(
        "calendar.reserve_first_us",
        median(&calls[..tenth]) * 1e6,
        "us",
    );
    m.set(
        "calendar.reserve_last_us",
        median(&calls[calls.len() - tenth..]) * 1e6,
        "us",
    );
    m.set("northbound.fleet_s", median(&fleet_secs), "s");
    m.set("controller.events_s", spans.total("controller.events"), "s");
    m.set("controller.events", ctl.events_processed() as f64, "count");
    out.notes.push(format!(
        "edge-overload traced: {:.0} req/s (median round)",
        median(&rates)
    ));
    if mode == Mode::Full {
        common::recovery_split(&log, &genesis, m, &mut out.bad);
    }
    out
}
