//! `serve_day`: the sharded PTDR tier (`ServeTier`: 4 shards, shed-oldest,
//! `JOBS` workers) replays seeded `LoadGen` days on a ladder of offered
//! rates that brackets its calibrated capacity. Arrivals are an open loop
//! in simulated time, processed as a batch in host time. The work is PTDR
//! Monte-Carlo fills, two-level LRU hits, the hash ring and admission
//! queues; each ladder day draws fresh users, so the hit share shifts
//! across days and loads and a cache change shows both its hit and its
//! fill side. It does no compile work.
//!
//! A run serves `POPULATIONS` user populations of one fixed city, each
//! with its own seed derived from `--seed` (the first is `--seed`
//! itself), because the cost of an arrival depends on which commutes a
//! seed makes popular; one population alone makes the host rate swing
//! with the seed. Every iteration starts each tier cold, replays its two
//! calibration days untimed to reach the calibrated cache state, then
//! times its ladder, so every iteration does the same work and the
//! simulated outputs repeat exactly.

use crate::ledger::Spans;
use crate::report::{self, median, Outcome};
use crate::{measure, set_up, sub_seed, Args, JOBS};
use everest_apps::traffic::serve::{
    diurnal_shape, Arrival, LoadGen, ServeConfig, ServeReport, ServeTier, ShedPolicy,
};
use everest_apps::traffic::service::PtdrEngine;
use everest_apps::traffic::{generate_fcd, RoadNetwork, SpeedProfiles};
use everest_telemetry::MetricsSnapshot;
use std::time::Instant;

const POPULATIONS: usize = 3;
const SHARDS: usize = 4;
const QUEUE_DEPTH: usize = 64;
const POOL_ROUTES: usize = 64;
/// Arrivals per calibration day.
const CALIBRATION: usize = 4_000;
/// Expected arrivals per ladder day; a day is generated with a cap of
/// `CAP_FACTOR` times this and a day that reaches its cap is truncated.
const POINT_ARRIVALS: usize = 12_000;
const CAP_FACTOR: usize = 2;
/// Offered mean rates, as multiples of the calibrated (warm, mean-rate)
/// capacity. The diurnal peak runs `peak_to_mean` times higher.
const LADDER: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
const ONE_X: usize = 3;
/// The stated latency limit `serve_max_qps` is judged against, with at
/// most `MAX_DROP_FRAC` of a day's arrivals shed or rejected.
const P99_LIMIT_US: f64 = 5_000.0;
const MAX_DROP_FRAC: f64 = 0.01;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Iterations whose memory `peak_rss_mb` covers.
const RSS_ITERATIONS: usize = 3;
/// `PtdrEngine::estimate` probe repetitions (traced runs).
const PROBE_REPS: usize = 201;

/// The fixed city every population commutes in.
struct City {
    network: RoadNetwork,
    profiles: SpeedProfiles,
}

/// One seeded user population and the tier that serves it.
struct Population {
    config: ServeConfig,
    tier: ServeTier,
    warm_days: [Vec<Arrival>; 2],
    ladder: Vec<Vec<Arrival>>,
    capacity_qps: f64,
    cold_capacity_qps: f64,
}

impl Population {
    fn new(city: &City, seed: u64) -> Population {
        let gen = LoadGen::new(&city.network, &city.profiles, POOL_ROUTES, seed);
        let mut config = ServeConfig::new(SHARDS);
        config.seed = seed;
        config.jobs = JOBS;
        config.queue_depth = QUEUE_DEPTH;
        config.policy = ShedPolicy::ShedOldest;
        let tier = ServeTier::new(city.network.clone(), city.profiles.clone(), config);
        let cold_capacity_qps = tier.calibrate(&gen, 0, CALIBRATION);
        let capacity_qps = tier.calibrate(&gen, 1, CALIBRATION);
        // The calibration streams themselves, replayed at the start of
        // every iteration to bring a cold tier back to the calibrated
        // cache state (`calibrate` offers half the all-miss capacity).
        let worst = config.cost.worst_case_us(gen.longest_route_edges(), gen.max_samples());
        let safe_qps = SHARDS as f64 * 1e6 / (2.0 * worst);
        let warm_days = [0, 1]
            .map(|day| gen.generate(day, safe_qps, CALIBRATION as f64 / safe_qps, CALIBRATION));
        let ladder = LADDER
            .iter()
            .enumerate()
            .map(|(i, mult)| {
                let offered = mult * capacity_qps;
                let duration_s = POINT_ARRIVALS as f64 / offered;
                gen.generate(2 + i as u64, offered, duration_s, CAP_FACTOR * POINT_ARRIVALS)
            })
            .collect();
        Population { config, tier, warm_days, ladder, capacity_qps, cold_capacity_qps }
    }

    /// Starts `tier` cold and replays the calibration days.
    fn warm(&self, tier: &ServeTier) -> ServeReport {
        tier.reset();
        tier.run(&self.warm_days[0]);
        tier.run(&self.warm_days[1])
    }

    /// Truncation guard: a day that reached its cap stopped early and
    /// replays only part of the diurnal curve.
    fn truncated(&self, point: usize) -> bool {
        self.ladder[point].len() >= CAP_FACTOR * POINT_ARRIVALS
    }

    fn arrivals(&self) -> usize {
        self.ladder.iter().map(Vec::len).sum()
    }
}

fn setup(seed: u64) -> (City, Vec<Population>) {
    let network = RoadNetwork::grid(2026, 12, 1.0);
    let fcd = generate_fcd(&network, 7, 150_000);
    let profiles = SpeedProfiles::learn(&network, &fcd);
    let city = City { network, profiles };
    let pops = (0..POPULATIONS).map(|k| Population::new(&city, sub_seed(seed, k))).collect();
    (city, pops)
}

/// Ratio of the diurnal curve's peak to its mean on the generator's own
/// grid, so every ladder rate can be stated against both.
fn peak_to_mean() -> f64 {
    const STEPS: usize = 960;
    let shape: Vec<f64> =
        (0..STEPS).map(|i| diurnal_shape(24.0 * (i as f64 + 0.5) / STEPS as f64)).collect();
    let mean = shape.iter().sum::<f64>() / STEPS as f64;
    shape.iter().copied().fold(0.0, f64::max) / mean
}

/// Accounting checks of one ladder day; `true` when they hold.
fn day_ok(day: &[Arrival], r: &ServeReport) -> bool {
    let served = r.results.iter().filter(|x| x.is_some()).count() as u64;
    r.arrivals() == day.len() as u64
        && r.results.len() == day.len()
        && r.served() + r.dropped() == r.arrivals()
        && served == r.served()
}

/// A digest of every per-arrival result and shard counter, cheaper than
/// `ServeReport::fingerprint`, for the per-iteration determinism check.
fn digest(r: &ServeReport) -> u64 {
    let mut bytes = Vec::with_capacity(r.results.len() * 24 + r.shards.len() * 64);
    for x in &r.results {
        match x {
            Some(t) => {
                for v in [t.mean_h, t.p95_h, t.std_h] {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            None => bytes.push(0xff),
        }
    }
    for sh in &r.shards {
        let counters = [
            sh.arrivals,
            sh.served,
            sh.edge_hits,
            sh.edge_misses,
            sh.cloud_fills,
            sh.shed,
            sh.rejected,
            sh.peak_queue as u64,
        ];
        for c in counters {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    report::fnv1a(&bytes)
}

fn drop_frac(r: &ServeReport) -> f64 {
    r.dropped() as f64 / r.arrivals().max(1) as f64
}

fn stamp_population(out: &mut Outcome, k: usize, p: &Population, peak: f64) {
    out.stamp(
        &format!("pop{k}.capacity_qps"),
        format!("cold {:.1}, warm {:.1} (simulated)", p.cold_capacity_qps, p.capacity_qps),
    );
    for (i, mult) in LADDER.iter().enumerate() {
        out.stamp(
            &format!("pop{k}.point{i}"),
            format!(
                "{:.1} q/s = {mult:.2}x capacity at the mean, {:.2}x at the peak; \
                 {} arrivals generated (cap {}){}",
                mult * p.capacity_qps,
                mult * peak,
                p.ladder[i].len(),
                CAP_FACTOR * POINT_ARRIVALS,
                if p.truncated(i) { " TRUNCATED" } else { "" }
            ),
        );
    }
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (setup_s, (city, pops)) = set_up(SETUP_REPS, || Ok(setup(args.seed)))?;
    let peak = peak_to_mean();
    let seeds: Vec<u64> = (0..POPULATIONS).map(|k| sub_seed(args.seed, k)).collect();
    out.stamp("cache_mode", "warm: cold tier + both calibration days replayed per iteration");
    out.stamp("loop", "open loop, simulated arrival times, batch replay in host time");
    out.stamp("shards/queue/policy", format!("{SHARDS}/{QUEUE_DEPTH}/shed-oldest"));
    out.stamp("population_seeds", format!("{seeds:?}"));
    out.stamp("peak_to_mean", format!("{peak:.4}"));
    out.stamp("p99_limit_us", P99_LIMIT_US);
    for (k, p) in pops.iter().enumerate() {
        stamp_population(out, k, p, peak);
        for i in 0..LADDER.len() {
            out.check(!p.truncated(i), || format!("population {k} point {i} reached its cap"));
        }
        // The warm replay must land exactly where calibration left the tier.
        let replayed = p.warm(&p.tier).capacity_qps();
        out.check(replayed == p.capacity_qps, || {
            format!("population {k}: warm replay capacity {replayed} != {}", p.capacity_qps)
        });
    }

    let arrivals: usize = pops.iter().map(Population::arrivals).sum();
    let mut reference: Option<Vec<u64>> = None;
    let mut reports: Vec<Vec<ServeReport>> = Vec::new();
    let mut spans = Spans::default();
    let mut snapshot: Option<MetricsSnapshot> = None;
    let window = measure(args, RSS_ITERATIONS, |traced| {
        let mut secs = 0.0;
        reports.clear();
        for p in &pops {
            p.warm(&p.tier);
            everest_telemetry::metrics().reset();
            let start = Instant::now();
            reports.push(if traced {
                spans.iteration(|sp| {
                    let mut run = |day| sp.span("apps", "serve_run", |_| p.tier.run(day));
                    p.ladder.iter().map(|day| run(day)).collect()
                })
            } else {
                p.ladder.iter().map(|day| p.tier.run(day)).collect()
            });
            secs += start.elapsed().as_secs_f64();
            if traced {
                let snap = everest_telemetry::metrics().snapshot();
                match &mut snapshot {
                    Some(acc) => acc.merge(&snap),
                    None => snapshot = Some(snap),
                }
            }
        }

        // Output checks, outside the timed replays.
        let mut fps = Vec::new();
        for (p, reps) in pops.iter().zip(&reports) {
            for (i, (day, r)) in p.ladder.iter().zip(reps).enumerate() {
                out.attempted += day.len() as u64;
                if p.truncated(i) || !day_ok(day, r) {
                    out.failed += day.len() as u64;
                }
                fps.push(digest(r));
            }
        }
        match &reference {
            None => reference = Some(fps),
            Some(expected) => out.check(expected == &fps, || {
                "a ladder replay diverged from the first iteration".to_owned()
            }),
        }
        Ok(secs)
    })?;
    out.stamp("iteration_s", report::timing_line(&window.untraced));

    // A jobs = 1 shadow of the first population replays its ladder up to
    // the 1x point from the same cold start; its fingerprint there must
    // equal the jobs = 2 tier's.
    let (p0, reports0) = (&pops[0], &reports[0]);
    let tier_fp = report::fnv1a(reports0[ONE_X].fingerprint().as_bytes());
    let shadow_fp = {
        let mut config = p0.config;
        config.jobs = 1;
        let shadow = ServeTier::new(city.network.clone(), city.profiles.clone(), config);
        p0.warm(&shadow);
        let mut last = None;
        for day in &p0.ladder[..=ONE_X] {
            last = Some(shadow.run(day));
        }
        report::fnv1a(last.expect("ladder is non-empty").fingerprint().as_bytes())
    };
    out.check(shadow_fp == tier_fp, || {
        format!("jobs=1 shadow {shadow_fp:016x} != jobs={JOBS} tier {tier_fp:016x} at 1x")
    });

    // Simulated outputs of the first population's ladder (identical in
    // every iteration).
    let one_x = &reports0[ONE_X];
    let max_qps = LADDER
        .iter()
        .zip(reports0)
        .filter(|(_, r)| r.latency.p99() <= P99_LIMIT_US && drop_frac(r) <= MAX_DROP_FRAC)
        .map(|(mult, _)| mult * p0.capacity_qps)
        .fold(0.0, f64::max);
    for (i, r) in reports0.iter().enumerate() {
        out.stamp(
            &format!("pop0.point{i}.result"),
            format!(
                "served {} shed {} rejected {} drop_frac {:.4} p50 {:.1} p99 {:.1} us (simulated)",
                r.served(),
                r.shards.iter().map(|x| x.shed).sum::<u64>(),
                r.shards.iter().map(|x| x.rejected).sum::<u64>(),
                drop_frac(r),
                r.latency.p50(),
                r.latency.p99()
            ),
        );
    }
    let serve_qps = arrivals as f64 / median(&window.untraced);
    out.named.host("serve_qps", serve_qps, "1/s");
    out.named.sim("serve_p99_us", one_x.latency.p99(), "us");
    out.named.sim("serve_max_qps", max_qps, "1/s");
    out.named.sim("serve_drop_frac_1x", drop_frac(one_x), "share");

    if !args.trace {
        let e2e = &mut out.end_to_end;
        e2e.host("setup_s", setup_s, "s");
        e2e.host("peak_rss_mb", window.peak_rss_mb, "MB");
        e2e.host("host_ops_per_s", serve_qps, "1/s");
        return Ok(());
    }

    let m = &mut out.per_layer;
    let snap = snapshot.expect("a traced iteration ran");
    m.host("apps.serve_run_us", spans.total_us("serve_run") / LADDER.len() as f64, "us");
    let all = || reports.iter().flatten();
    m.count("apps.cloud_fills", all().map(ServeReport::cloud_fills).sum::<u64>() as f64);
    let (hits, misses) = all().fold((0, 0), |(h, mi), r| (h + r.edge_hits(), mi + r.edge_misses()));
    m.sim("apps.edge_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "share");
    m.sim("apps.queue_wait_p99_us", one_x.wait.p99(), "us");
    m.host("apps.ptdr_estimate_us", estimate_probe(&city, p0), "us");
    m.hls_memo(&snap);
    m.pool(&snap);
    // Each ledger iteration is one population's ladder.
    spans.publish(1e6 * median(&window.untraced) / POPULATIONS as f64, m);
    out.ledger = Some(spans.render());
    let synth_calls = snap.counter("dse.hls.cache.miss") as f64;
    out.predict("hls_synth_calls", synth_calls, "0", synth_calls == 0.0);
    Ok(())
}

/// Median host µs of one `PtdrEngine::estimate` on the first population's
/// first 1x query, with a warm engine.
fn estimate_probe(city: &City, p: &Population) -> f64 {
    let query = &p.ladder[ONE_X][0].query;
    let mut engine: PtdrEngine = PtdrEngine::new();
    let mut times = Vec::with_capacity(PROBE_REPS);
    for i in 0..=PROBE_REPS {
        let start = Instant::now();
        let stats = engine.estimate(
            &city.network,
            &city.profiles,
            &query.route,
            query.depart_hour,
            query.samples,
            i as u64,
        );
        std::hint::black_box(stats);
        if i > 0 {
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&times)
}
