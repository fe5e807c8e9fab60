//! Pieces every workload shares: the generated plant and controller
//! set-up, the benchmark's own layer spans, and the recovery
//! measurements taken on a captured write-ahead log.

use std::time::Instant;

use griphon::durability::recovery::replay;
use griphon::durability::wal::decode_threads;
use griphon::{
    recover, Controller, ControllerConfig, RegionMap, RouteCacheStats, SnapshotStore, Wal,
    WalConfig,
};
use photonic::{generate, GeneratedPlant, GeneratorConfig};
use simcore::SimTime;

use crate::checks;
use crate::stats::{cpu_timed, median, peak_rss_mb, timed, Metrics};

/// Plant size of every workload.
pub const ROADMS: usize = 600;

/// The generated plant for `seed` with the given equipment counts.
pub fn plant(seed: u64, ots_per_node: usize, regens_per_hub: usize) -> GeneratedPlant {
    generate(&GeneratorConfig {
        ots_per_node,
        regens_per_hub,
        ..GeneratorConfig::with_target_roadms(ROADMS, seed)
    })
}

/// A controller over `plant` with deterministic device timings and the
/// plant's region map installed, as `repro scale` builds it. This is the
/// genesis state recovery starts from.
pub fn controller(plant: &GeneratedPlant, seed: u64) -> Controller {
    let cfg = ControllerConfig {
        seed,
        ems: photonic::EmsProfile::calibrated_deterministic(),
        equalization: photonic::EqualizationModel::calibrated_deterministic(),
        ..ControllerConfig::default()
    };
    let mut ctl = Controller::new(plant.net.clone(), cfg);
    ctl.install_region_map(RegionMap::new(plant.region_of.clone()))
        .expect("generated plants satisfy the single-gateway invariant");
    ctl
}

/// Run `f` inside one `journal_batch` and record the wall-clock time
/// the batch takes beyond `f` (the group commit) as a
/// `durability.commit` span. Returns `f`'s result.
pub fn batch<T>(
    ctl: &mut Controller,
    spans: &mut Spans,
    f: impl FnOnce(&mut Controller) -> T,
) -> T {
    let t0 = Instant::now();
    let ((r, inner), _) = ctl.journal_batch(|c| {
        let t = Instant::now();
        let r = f(c);
        (r, t.elapsed().as_secs_f64())
    });
    spans.record("durability.commit", t0.elapsed().as_secs_f64() - inner);
    r
}

/// Wall-clock samples per layer boundary, kept in memory while a traced
/// run executes. With tracing off every call is a plain pass-through.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    samples: Vec<(&'static str, f64)>,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            samples: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Record `secs` under `name`.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        if self.on {
            self.samples.push((name, secs));
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.samples.push((name, t0.elapsed().as_secs_f64()));
        r
    }

    /// All samples of `name`, in seconds.
    pub fn of(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, s)| s)
            .collect()
    }

    /// Sum of the samples of `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.of(name).iter().sum()
    }

    /// Median of the samples of `name` scaled by `scale`, if any.
    pub fn p50(&self, name: &str, scale: f64) -> Option<f64> {
        let v = self.of(name);
        (!v.is_empty()).then(|| median(&v) * scale)
    }
}

/// Run `setup` `n` times, dropping each result before the next is built,
/// and keep the last. The closure is told whether it builds the kept
/// one. Returns it with the CPU seconds of every set-up.
pub fn set_up<T>(n: usize, mut setup: impl FnMut(bool) -> T) -> (T, Vec<f64>) {
    let n = n.max(1);
    let mut secs = Vec::with_capacity(n);
    let mut kept = None;
    for i in 0..n {
        drop(kept.take());
        let (t, s) = cpu_timed(|| setup(i + 1 == n));
        secs.push(s);
        kept = Some(t);
    }
    (kept.expect("at least one set-up"), secs)
}

/// Peak resident set once the timed phase has done a fixed amount of
/// work: read when round `at_round` ends, or at the end of a run with
/// fewer rounds. A faster program then is not charged for the state of
/// the extra operations it fits into the run.
pub struct PeakRss {
    at_round: usize,
    mb: Option<f64>,
}

impl PeakRss {
    /// Read the peak when round `at_round` (counting from 1) ends.
    pub fn at_round(at_round: usize) -> PeakRss {
        PeakRss { at_round, mb: None }
    }

    /// Call after each round with the number of rounds done.
    pub fn round_done(&mut self, rounds: usize) {
        if rounds == self.at_round {
            self.mb = Some(peak_rss_mb());
        }
    }

    /// The reading, in MiB.
    pub fn mb(&self) -> f64 {
        self.mb.unwrap_or_else(peak_rss_mb)
    }
}

/// The end-to-end metrics of an untraced run; `intent_us` is the
/// (p50, p99) pair.
pub fn end_to_end(
    m: &mut Metrics,
    setup_secs: &[f64],
    rates: &[f64],
    intent_us: (f64, f64),
    recover_s: f64,
    rss: &PeakRss,
) {
    m.set("setup_s", median(setup_secs), "s");
    m.set("intents_per_s", median(rates), "1/s");
    m.set("intent_p50_us", intent_us.0, "us");
    m.set("intent_p99_us", intent_us.1, "us");
    m.set("recover_s", recover_s, "s");
    m.set("peak_rss_mb", rss.mb(), "MiB");
}

/// Per-layer metrics of a traced run: the p50 of every span the run
/// recorded, the route-cache traffic since `cache0` per round, the
/// controller's own footprint estimate and allocations per operation.
pub struct Layers<'a> {
    /// The run's spans.
    pub spans: &'a Spans,
    /// The controller the timed phase drove.
    pub ctl: &'a Controller,
    /// Route-cache counters when the timed phase began.
    pub cache0: RouteCacheStats,
    /// Rounds in the timed phase.
    pub rounds: usize,
    /// Allocations counted over the timed phase.
    pub allocations: u64,
    /// Operations in the timed phase.
    pub ops: u64,
}

impl Layers<'_> {
    /// Record the metrics into `m`.
    pub fn record(&self, m: &mut Metrics) {
        const SPANS: [(&str, &str, f64, &str); 6] = [
            (
                "controller.request_hit",
                "controller.request_hit_us",
                1e6,
                "us",
            ),
            (
                "controller.request_miss",
                "controller.request_miss_us",
                1e6,
                "us",
            ),
            ("controller.teardown", "controller.teardown_us", 1e6, "us"),
            ("durability.commit", "durability.commit_us", 1e6, "us"),
            ("fault.cut", "fault.cut_ms", 1e3, "ms"),
            ("maintenance.repair", "maintenance.repair_ms", 1e3, "ms"),
        ];
        for (span, metric, scale, unit) in SPANS {
            if let Some(v) = self.spans.p50(span, scale) {
                m.set(metric, v, unit);
            }
        }
        let cache = self.ctl.route_cache_stats();
        let hits = cache.hits - self.cache0.hits;
        let misses = cache.misses - self.cache0.misses;
        let rounds = self.rounds.max(1) as f64;
        m.set(
            "rwa.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        m.set("rwa.cache_misses", misses as f64 / rounds, "count");
        m.set(
            "rwa.cache_evictions",
            (cache.evictions - self.cache0.evictions) as f64 / rounds,
            "count",
        );
        m.set(
            "controller.footprint_mb",
            self.ctl.memory_footprint().total() as f64 / (1024.0 * 1024.0),
            "MiB",
        );
        m.set(
            "alloc.per_intent",
            self.allocations as f64 / self.ops.max(1) as f64,
            "count",
        );
    }
}

/// A write-ahead log captured at a fixed point of a run, with the live
/// state digest and clock at that point.
pub struct LogCapture {
    /// Segment bytes.
    pub segments: Vec<Vec<u8>>,
    /// Records in the log.
    pub records: u64,
    /// Sim time at capture.
    pub at: SimTime,
    /// Live `state_digest_crc` at capture.
    pub digest: u32,
}

impl LogCapture {
    /// Copy `ctl`'s journal (which must be enabled) and digest.
    pub fn of(ctl: &Controller) -> LogCapture {
        let wal = ctl.journal().expect("journal enabled");
        LogCapture {
            segments: wal.segments().to_vec(),
            records: wal.records(),
            at: ctl.now(),
            digest: ctl.state_digest_crc(),
        }
    }

    /// Total log bytes.
    pub fn bytes(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }
}

/// Decode and replay repetitions of the traced recovery split.
pub const SPLIT_REPS: usize = 3;

/// Time `durability::recover` of `log` from `genesis` with no snapshot,
/// at the default decode thread count, `reps` times. Returns the median
/// seconds; every recovered digest must equal the live one.
pub fn recover_s(
    log: &LogCapture,
    genesis: &dyn Fn() -> Controller,
    reps: usize,
    bad: &mut Vec<String>,
) -> f64 {
    let store = SnapshotStore::new(u64::MAX);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (out, s) =
            cpu_timed(|| recover(genesis, &log.segments, &store, log.at, WalConfig::default()));
        times.push(s);
        match out {
            Ok(o) => bad.extend(checks::check_digest(
                "recovered vs live",
                log.digest,
                o.controller.state_digest_crc(),
            )),
            Err(e) => bad.push(format!("recovery failed: {e}")),
        }
    }
    median(&times)
}

/// The traced recovery split on `log`: parallel decode, sequential
/// decode and replay, plus journal bytes per record.
pub fn recovery_split(
    log: &LogCapture,
    genesis: &dyn Fn() -> Controller,
    m: &mut Metrics,
    bad: &mut Vec<String>,
) {
    let mut par = Vec::new();
    let mut seq = Vec::new();
    let mut records = Vec::new();
    for _ in 0..SPLIT_REPS {
        let (p, s) = timed(|| Wal::decode_parallel(&log.segments, decode_threads()));
        par.push(s);
        let (q, s) = timed(|| Wal::decode(&log.segments));
        seq.push(s);
        match (p, q) {
            (Ok((a, _)), Ok((b, _))) if a == b => records = a,
            _ => bad.push("parallel and sequential decode disagree".into()),
        }
    }
    let mut replays = Vec::new();
    for _ in 0..SPLIT_REPS {
        let mut ctl = genesis();
        let (r, s) = timed(|| replay(&mut ctl, &records));
        replays.push(s);
        if let Err(e) = r {
            bad.push(format!("replay failed: {e}"));
        }
    }
    m.set("durability.decode_ms", median(&par) * 1e3, "ms");
    m.set("durability.decode_seq_ms", median(&seq) * 1e3, "ms");
    m.set("durability.replay_s", median(&replays), "s");
    m.set(
        "durability.wal_bytes_per_intent",
        log.bytes() as f64 / log.records.max(1) as f64,
        "B",
    );
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output-check violations (any one makes the run incorrect).
    pub bad: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// How much of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The full measured run.
    Full,
    /// One set-up and one round, traced, to give the layers a workload
    /// does not touch a figure in another workload's traced run.
    Probe,
}
