//! "Route calculation as a service" (paper §VI-C): a high-throughput
//! serving engine for probabilistic time-dependent routing.
//!
//! The scalar [`ptdr_travel_time`](super::ptdr_travel_time) kernel
//! re-derives per-edge data on every Monte-Carlo sample, allocates a
//! fresh sample vector per call, and sorts the whole vector to read one
//! percentile. This module restructures that kernel the way the EVEREST
//! design flow restructures kernels before offloading them:
//!
//! * [`PtdrEngine`] — route-local **SoA tables** (`length_km`,
//!   `clamp_hi`, flattened per-hour `mean`/`std`) prefetched once per
//!   route, a reusable scratch buffer (zero heap allocations per query
//!   once warm), and **block-wise sampling** over a lane-count-
//!   parameterized inner loop mirroring the 32-lane FPGA sampling engine
//!   modeled in E11. Normals come from a 128-layer ziggurat sampler (one
//!   RNG word and one multiply on the 97.2% fast path, no
//!   transcendentals), and the result summary folds streaming Welford
//!   mean/variance into the last edge pass, then takes a
//!   `select_nth_unstable` 95th percentile instead of a full sort.
//! * [`PtdrService`] — the batch front-end: fans a slice of
//!   [`RouteQuery`]s across [`everest_workflow::pool::parallel_map`]
//!   and answers repeated questions from an LRU response cache keyed by
//!   (route hash, departure bin, sample count). Departure times are
//!   quantized to 15-minute bins and the per-query RNG seed is derived
//!   from the cache key, so a cached answer is bit-identical to a
//!   recomputed one and `jobs = N` reproduces `jobs = 1` exactly. As in
//!   the DSE engine, `jobs` only sets the worker count: every batch goes
//!   through the cache, and `jobs = 1` runs the pool's worker inline.
//!
//! Telemetry: `ptdr.queries`, `ptdr.cache.hit`, `ptdr.cache.miss`
//! counters, and a `ptdr.batch` span per batch.

use super::{RoadNetwork, SpeedProfiles, TravelTimeStats, HOUR_BINS};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Slowest speed a sampled segment can fall to, km/h (matches the
/// reference kernel's clamp).
pub const MIN_SPEED_KMH: f64 = 3.0;

/// Lane count of the default engine, matching the "32-lane sampling
/// engine" modeled for the E11 accelerator estimate.
pub const DEFAULT_LANES: usize = 32;

/// Departure-time quantization of the response cache: 15-minute bins.
pub const DEPARTURE_BINS_PER_HOUR: usize = 4;

/// Total departure bins per day.
pub const DEPARTURE_BINS: usize = HOUR_BINS * DEPARTURE_BINS_PER_HOUR;

// ---------------------------------------------------------------------------
// Reference kernel
// ---------------------------------------------------------------------------

/// The pre-service scalar PTDR kernel, kept verbatim as the validation
/// and benchmark baseline: per-sample edge walk with Box-Muller normals,
/// a fresh `Vec` per call, and a full sort for the 95th percentile.
pub fn ptdr_travel_time_reference(
    network: &RoadNetwork,
    profiles: &SpeedProfiles,
    route: &[usize],
    depart_hour: f64,
    samples: usize,
    seed: u64,
) -> TravelTimeStats {
    assert!(samples > 0, "need at least one sample");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut t = 0.0f64;
        for &ei in route {
            let hour = ((depart_hour + t) as usize) % HOUR_BINS;
            let mean = profiles.mean_speed(ei, hour);
            let std = profiles.std_speed(ei, hour);
            // Box-Muller normal sample, truncated to plausible speeds.
            let u1: f64 = rng.gen_range(1e-9..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let speed =
                (mean + std * z).clamp(MIN_SPEED_KMH, network.edges[ei].free_speed_kmh * 1.1);
            t += network.edges[ei].length_km / speed;
        }
        times.push(t);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let n = times.len() as f64;
    let mean = times.iter().sum::<f64>() / n;
    let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n;
    let p95 = times[((0.95 * (times.len() - 1) as f64).round() as usize).min(times.len() - 1)];
    TravelTimeStats { mean_h: mean, p95_h: p95, std_h: var.sqrt() }
}

// ---------------------------------------------------------------------------
// Streaming summary
// ---------------------------------------------------------------------------

/// Summarizes a sample buffer without sorting it: Welford's streaming
/// mean/variance in one pass, then the 95th percentile via
/// `select_nth_unstable` (average O(n), versus O(n log n) for the sorted
/// reference). Produces the same percentile element the sorted reference
/// indexes at `round(0.95 * (n - 1))`.
///
/// The buffer is reordered in place by the selection.
///
/// # Panics
///
/// Panics on an empty buffer.
pub fn summarize(times: &mut [f64]) -> TravelTimeStats {
    let mut moments = Welford::default();
    for &t in times.iter() {
        moments.push(t);
    }
    moments.finish(times)
}

/// Welford's streaming mean and sum of squared deviations. The engine
/// folds it into its last edge pass; [`summarize`] runs it over a
/// finished buffer. Both push samples in buffer order, so they agree
/// bit for bit.
#[derive(Debug, Default)]
struct Welford {
    pushed: usize,
    mean: f64,
    m2: f64,
}

impl Welford {
    #[inline(always)]
    fn push(&mut self, t: f64) {
        self.pushed += 1;
        let delta = t - self.mean;
        self.mean += delta / self.pushed as f64;
        self.m2 += delta * (t - self.mean);
    }

    /// Stats of `times`, whose samples were pushed in order (a buffer of
    /// zeros may skip its pushes: they leave the moments at zero). Picks
    /// the p95 by selection, reordering `times`.
    fn finish(&self, times: &mut [f64]) -> TravelTimeStats {
        assert!(!times.is_empty(), "need at least one sample");
        let var = (self.m2 / times.len() as f64).max(0.0);
        let idx = ((0.95 * (times.len() - 1) as f64).round() as usize).min(times.len() - 1);
        let (_, p95, _) = times.select_nth_unstable_by(idx, |a, b| a.total_cmp(b));
        TravelTimeStats { mean_h: self.mean, p95_h: *p95, std_h: var.sqrt() }
    }
}

// ---------------------------------------------------------------------------
// Batched SoA Monte-Carlo engine
// ---------------------------------------------------------------------------

/// Ziggurat tables for the standard normal (Marsaglia & Tsang, 128
/// layers): `x[i]` are the layer widths (descending, `x[1]` = the tail
/// cutoff `R`), `f[i] = exp(-x[i]²/2)` the layer heights. Built once per
/// process; stored inline in a `OnceLock`, so initialization performs no
/// heap allocation.
struct ZigTables {
    x: [f64; 129],
    f: [f64; 129],
}

/// Tail cutoff and per-layer area of the 128-layer normal ziggurat.
const ZIG_R: f64 = 3.442_619_855_899;
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

fn zig_tables() -> &'static ZigTables {
    static TABLES: std::sync::OnceLock<ZigTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0f64; 129];
        let mut f = [0.0f64; 129];
        // Layer 0 is the base strip: a pseudo-rectangle of width V/f(R)
        // whose overhang past R is the tail. Each further layer satisfies
        // x_i * (f(x_{i+1}) - f(x_i)) = V.
        x[0] = ZIG_V / (-0.5 * ZIG_R * ZIG_R).exp();
        x[1] = ZIG_R;
        for i in 2..128 {
            let prev = x[i - 1];
            x[i] = (-2.0 * (ZIG_V / prev + (-0.5 * prev * prev).exp()).ln()).sqrt();
        }
        x[128] = 0.0;
        for i in 0..129 {
            f[i] = (-0.5 * x[i] * x[i]).exp();
        }
        ZigTables { x, f }
    })
}

/// `(bits >> 11) / 2⁵³`: a uniform in [0, 1) from a word's top 53 bits.
#[inline(always)]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// `x` with its sign bit flipped when bit 7 of `bits` is set — the same
/// value as `±1.0 * x`, without a data-dependent branch.
#[inline(always)]
fn signed(x: f64, bits: u64) -> f64 {
    f64::from_bits(x.to_bits() ^ ((bits & 0x80) << 56))
}

/// One standard normal by the ziggurat method: 97.2% of draws take the
/// fast path of a single RNG word, one table compare and one multiply —
/// no `ln`/`sqrt`/`cos` (the Box-Muller reference pays one of each per
/// draw). One u64 supplies the 7-bit layer index, the sign bit, and the
/// 53-bit mantissa. The wedge and tail rejections live out of line in
/// [`normal_slow`].
#[inline(always)]
fn normal(rng: &mut StdRng, tables: &ZigTables) -> f64 {
    let bits = rng.next_u64();
    let i = (bits & 0x7F) as usize;
    let x = unit(bits) * tables.x[i];
    if x < tables.x[i + 1] {
        return signed(x, bits);
    }
    normal_slow(rng, tables, bits)
}

/// The ziggurat's rejection loop, entered with the first word `bits` of
/// a draw that missed the fast path. Draws further words in the same
/// order as one loop over both paths would.
#[cold]
#[inline(never)]
fn normal_slow(rng: &mut StdRng, tables: &ZigTables, mut bits: u64) -> f64 {
    loop {
        let i = (bits & 0x7F) as usize;
        let x = unit(bits) * tables.x[i];
        if x < tables.x[i + 1] {
            return signed(x, bits);
        }
        if i == 0 {
            // Tail past R: Marsaglia's exponential-rejection sampler.
            loop {
                let u1 = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                let u2 = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                let xt = -u1.ln() / ZIG_R;
                let yt = -u2.ln();
                if yt + yt > xt * xt {
                    return signed(ZIG_R + xt, bits);
                }
            }
        }
        // Wedge between the layer's rectangle and the density.
        let y = tables.f[i] + (tables.f[i + 1] - tables.f[i]) * unit(rng.next_u64());
        if y < (-0.5 * x * x).exp() {
            return signed(x, bits);
        }
        bits = rng.next_u64();
    }
}

/// Hour bin for an absolute clock value (hours since midnight). Clocks
/// below 2³² h take a 32-bit truncation, which is cheaper than the
/// saturating `usize` cast and gives the same bin; negative clocks
/// saturate to 0 on both paths, and NaN and larger clocks take the
/// `usize` path.
#[inline(always)]
fn hour_bin(clock_h: f64) -> usize {
    if clock_h < 4_294_967_296.0 {
        (clock_h as u32 % HOUR_BINS as u32) as usize
    } else {
        (clock_h as usize) % HOUR_BINS
    }
}

/// The restructured PTDR Monte-Carlo kernel.
///
/// Holds route-local SoA tables and a scratch sample buffer, both reused
/// across queries: estimating repeatedly over routes of bounded length
/// and sample counts performs **zero heap allocations** once the
/// high-water capacity is reached (enforced by the
/// `ptdr_no_alloc` integration test).
///
/// `LANES` parameterizes the block width of the inner sampling loop:
/// each block advances `LANES` Monte-Carlo walkers through the route
/// edge-by-edge, so per-edge table rows are loaded once per block
/// instead of once per sample. The default (32) matches the sampling
/// engine modeled in E11. Note that the lane count shapes the RNG draw
/// order, so estimates are reproducible per `(seed, LANES)` pair.
#[derive(Debug, Default)]
pub struct PtdrEngine<const LANES: usize = 32> {
    /// Edge ids of the currently prepared route (`prepare` fast-path).
    edges: Vec<usize>,
    /// Per route position: segment length, km.
    length_km: Vec<f64>,
    /// Per route position: upper speed clamp (1.1 × free-flow), km/h.
    clamp_hi: Vec<f64>,
    /// Per route position × hour: mean speed, km/h (row-major rows of
    /// [`HOUR_BINS`]).
    mean: Vec<f64>,
    /// Per route position × hour: speed spread, km/h.
    std: Vec<f64>,
    /// Reusable sample buffer.
    times: Vec<f64>,
}

impl<const LANES: usize> PtdrEngine<LANES> {
    /// An empty engine; tables are built on first use.
    pub fn new() -> PtdrEngine<LANES> {
        assert!(LANES >= 1, "need at least one lane");
        PtdrEngine {
            edges: Vec::new(),
            length_km: Vec::new(),
            clamp_hi: Vec::new(),
            mean: Vec::new(),
            std: Vec::new(),
            times: Vec::new(),
        }
    }

    /// Prefetches the SoA tables for `route`, reusing existing capacity.
    /// A repeated route is detected by comparison and skipped entirely.
    fn prepare(&mut self, network: &RoadNetwork, profiles: &SpeedProfiles, route: &[usize]) {
        if self.edges == route {
            return;
        }
        self.edges.clear();
        self.edges.extend_from_slice(route);
        self.length_km.clear();
        self.clamp_hi.clear();
        self.mean.clear();
        self.std.clear();
        for &ei in route {
            let e = &network.edges[ei];
            self.length_km.push(e.length_km);
            self.clamp_hi.push(e.free_speed_kmh * 1.1);
            for h in 0..HOUR_BINS {
                self.mean.push(profiles.mean_speed(ei, h));
                self.std.push(profiles.std_speed(ei, h));
            }
        }
    }

    /// Estimates the travel-time distribution of `route` departing at
    /// `depart_hour`, from `samples` Monte-Carlo walks seeded with
    /// `seed`. Statistically equivalent to
    /// [`ptdr_travel_time_reference`] (same speed distributions, clamps
    /// and clock advance) but not draw-for-draw identical to it.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is zero or `route` names an edge outside
    /// `network`.
    pub fn estimate(
        &mut self,
        network: &RoadNetwork,
        profiles: &SpeedProfiles,
        route: &[usize],
        depart_hour: f64,
        samples: usize,
        seed: u64,
    ) -> TravelTimeStats {
        assert!(samples > 0, "need at least one sample");
        self.prepare(network, profiles, route);
        let tables = zig_tables();
        let mut rng = StdRng::seed_from_u64(seed);
        self.times.clear();
        self.times.reserve(samples);
        let route_len = self.edges.len();
        // The last edge pass also pushes each finished walker into the
        // running moments, in sample order; an empty route's zeros need
        // no pushes.
        let mut moments = Welford::default();
        let mut t = [0.0f64; LANES];
        let mut done = 0usize;
        while done < samples {
            let width = LANES.min(samples - done);
            let lanes = &mut t[..width];
            lanes.fill(0.0);
            for e in 0..route_len {
                let len = self.length_km[e];
                let hi = self.clamp_hi[e];
                let mean = &self.mean[e * HOUR_BINS..(e + 1) * HOUR_BINS];
                let std = &self.std[e * HOUR_BINS..(e + 1) * HOUR_BINS];
                let mut advance = |lane_t: &mut f64| {
                    let z = normal(&mut rng, tables);
                    let h = hour_bin(depart_hour + *lane_t);
                    let v = (mean[h] + std[h] * z).clamp(MIN_SPEED_KMH, hi);
                    *lane_t += len / v;
                };
                if e + 1 < route_len {
                    lanes.iter_mut().for_each(advance);
                } else {
                    for lane_t in lanes.iter_mut() {
                        advance(lane_t);
                        moments.push(*lane_t);
                    }
                }
            }
            self.times.extend_from_slice(lanes);
            done += width;
        }
        moments.finish(&mut self.times)
    }
}

// ---------------------------------------------------------------------------
// Response cache
// ---------------------------------------------------------------------------

/// Cache identity of a PTDR query: structural route hash, quantized
/// departure bin, and sample count. Queries with equal keys receive
/// bit-identical answers (the per-query seed is derived from the key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Hash of the route's edge sequence.
    pub route_hash: u64,
    /// Departure bin, `0..DEPARTURE_BINS` (15-minute resolution).
    pub departure_bin: u32,
    /// Monte-Carlo sample count.
    pub samples: u64,
}

/// Sentinel slot index for the intrusive recency list.
const NIL: usize = usize::MAX;

/// One slab slot of the [`LruCache`]: the entry plus its intrusive
/// doubly-linked recency list neighbours.
#[derive(Debug)]
struct LruSlot {
    key: CacheKey,
    stats: TravelTimeStats,
    inserted: Instant,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map of finished responses:
/// a hash map from key to slot in a slab threaded with an intrusive
/// doubly-linked recency list. Lookups, inserts, *and eviction* are
/// O(1) — the previous stamp-scan eviction was O(capacity) per insert,
/// which dominated the serving tier's warm path whenever the small
/// per-shard edge caches churned. Shared with the sharded serving tier
/// ([`super::serve`]), which keeps one per shard per cache level.
#[derive(Debug)]
pub(crate) struct LruCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, usize>,
    slots: Vec<LruSlot>,
    /// Most-recently-used slot, `NIL` when empty.
    head: usize,
    /// Least-recently-used slot (the eviction victim), `NIL` when empty.
    tail: usize,
}

impl LruCache {
    pub(crate) fn new(capacity: usize) -> LruCache {
        LruCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Detaches `at` from the recency list.
    fn unlink(&mut self, at: usize) {
        let (prev, next) = (self.slots[at].prev, self.slots[at].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Attaches `at` at the most-recently-used end.
    fn link_front(&mut self, at: usize) {
        self.slots[at].prev = NIL;
        self.slots[at].next = self.head;
        match self.head {
            NIL => self.tail = at,
            h => self.slots[h].prev = at,
        }
        self.head = at;
    }

    /// Returns the cached stats and the entry's insertion stamp (the
    /// caller derives the age only when it samples — a clock read on
    /// every hit would tax the warm path).
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<(TravelTimeStats, Instant)> {
        self.tick += 1;
        let at = *self.map.get(key)?;
        if self.head != at {
            self.unlink(at);
            self.link_front(at);
        }
        Some((self.slots[at].stats, self.slots[at].inserted))
    }

    pub(crate) fn insert(&mut self, key: CacheKey, stats: TravelTimeStats) {
        self.tick += 1;
        if let Some(&at) = self.map.get(&key) {
            self.slots[at].stats = stats;
            self.slots[at].inserted = Instant::now();
            if self.head != at {
                self.unlink(at);
                self.link_front(at);
            }
            return;
        }
        let at = if self.slots.len() < self.capacity {
            self.slots.push(LruSlot { key, stats, inserted: Instant::now(), prev: NIL, next: NIL });
            self.slots.len() - 1
        } else {
            // Full: reuse the least-recently-used slot in place.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim] =
                LruSlot { key, stats, inserted: Instant::now(), prev: NIL, next: NIL };
            victim
        };
        self.map.insert(key, at);
        self.link_front(at);
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// The cache identity of a query: structural route hash, quantized
/// departure bin, sample count. Two queries with equal keys receive
/// bit-identical answers — the per-query seed is a pure function of
/// the key (see [`derive_seed`]).
pub fn cache_key(route: &[usize], depart_hour: f64, samples: usize) -> CacheKey {
    let mut hasher = DefaultHasher::new();
    route.hash(&mut hasher);
    let bin = (depart_hour * DEPARTURE_BINS_PER_HOUR as f64).floor();
    let bin = if bin.is_finite() && bin >= 0.0 { bin as usize % DEPARTURE_BINS } else { 0 };
    CacheKey { route_hash: hasher.finish(), departure_bin: bin as u32, samples: samples as u64 }
}

/// Deterministic per-query seed: a function of the cache key and the
/// serving seed only, so any two queries with the same key — and any
/// worker or shard interleaving — produce bit-identical statistics.
pub fn derive_seed(base_seed: u64, key: &CacheKey) -> u64 {
    let mut hasher = DefaultHasher::new();
    base_seed.hash(&mut hasher);
    key.hash(&mut hasher);
    hasher.finish()
}

/// The canonical departure hour of a key's bin (its center) — the hour
/// every query in the bin is actually estimated at.
pub fn bin_center_hour(key: &CacheKey) -> f64 {
    (key.departure_bin as f64 + 0.5) / DEPARTURE_BINS_PER_HOUR as f64
}

// ---------------------------------------------------------------------------
// The serving front-end
// ---------------------------------------------------------------------------

/// One routing request: an edge route (as produced by
/// [`shortest_route`](super::shortest_route)), a departure time, and the
/// Monte-Carlo budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteQuery {
    /// Edge indices from origin to destination.
    pub route: Vec<usize>,
    /// Departure time, hours since midnight. Quantized to
    /// [`DEPARTURE_BINS_PER_HOUR`] bins for caching and seeding, so two
    /// departures inside the same 15-minute bin return the same answer.
    pub depart_hour: f64,
    /// Monte-Carlo samples to draw.
    pub samples: usize,
}

thread_local! {
    /// One engine per serving thread, so table/scratch buffers amortize
    /// across the queries a worker handles.
    static ENGINE: RefCell<PtdrEngine> = RefCell::new(PtdrEngine::new());
}

/// The PTDR serving engine: owns the network and learned speed profiles,
/// fans batches across a worker pool, and caches finished responses.
pub struct PtdrService {
    network: RoadNetwork,
    profiles: SpeedProfiles,
    jobs: usize,
    seed: u64,
    cache: Mutex<LruCache>,
}

impl PtdrService {
    /// A service over `network`/`profiles` with `jobs = 1` (batches
    /// served on the calling thread) and a 4096-entry response cache.
    pub fn new(network: RoadNetwork, profiles: SpeedProfiles) -> PtdrService {
        PtdrService { network, profiles, jobs: 1, seed: 0, cache: Mutex::new(LruCache::new(4096)) }
    }

    /// Sets the worker count batches fan out on (`1` serves them inline).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> PtdrService {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the base seed mixed into every per-query seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> PtdrService {
        self.seed = seed;
        self
    }

    /// Resizes the response cache (existing entries are kept up to the
    /// new capacity as they age out).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> PtdrService {
        self.cache = Mutex::new(LruCache::new(capacity));
        self
    }

    /// The road network served.
    pub fn network(&self) -> &RoadNetwork {
        &self.network
    }

    /// The learned speed profiles served.
    pub fn profiles(&self) -> &SpeedProfiles {
        &self.profiles
    }

    /// Number of cached responses.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// The cache identity of `query` (see [`cache_key`]).
    pub fn key(&self, query: &RouteQuery) -> CacheKey {
        cache_key(&query.route, query.depart_hour, query.samples)
    }

    /// Computes a query on this thread's engine, bypassing the cache.
    fn compute(&self, query: &RouteQuery, key: &CacheKey) -> TravelTimeStats {
        ENGINE.with(|engine| {
            engine.borrow_mut().estimate(
                &self.network,
                &self.profiles,
                &query.route,
                bin_center_hour(key),
                query.samples,
                derive_seed(self.seed, key),
            )
        })
    }

    /// Serves one query through the response cache.
    ///
    /// Latency telemetry: misses always observe
    /// `ptdr.query.latency_us`; hits observe it (plus
    /// `ptdr.cache.hit_age_us`) sampled one-in-sixteen on the cache
    /// tick, so the sub-µs warm path pays a couple of nanoseconds
    /// amortized while the percentile estimates stay representative.
    fn serve_cached(&self, query: &RouteQuery) -> TravelTimeStats {
        let telemetry = everest_telemetry::metrics();
        telemetry.counter_inc("ptdr.queries");
        let start = Instant::now();
        let key = self.key(query);
        let (hit, tick) = {
            let mut cache = self.cache.lock();
            (cache.get(&key), cache.tick)
        };
        if let Some((stats, inserted)) = hit {
            telemetry.counter_inc("ptdr.cache.hit");
            if tick % 16 == 0 {
                telemetry.observe("ptdr.cache.hit_age_us", inserted.elapsed().as_secs_f64() * 1e6);
                telemetry.observe("ptdr.query.latency_us", start.elapsed().as_secs_f64() * 1e6);
            }
            return stats;
        }
        telemetry.counter_inc("ptdr.cache.miss");
        everest_telemetry::flight().marker("ptdr.cache.miss", 1.0);
        let stats = self.compute(query, &key);
        self.cache.lock().insert(key, stats);
        telemetry.observe("ptdr.query.latency_us", start.elapsed().as_secs_f64() * 1e6);
        stats
    }

    /// Answers a single query (always cache-enabled). The warm path — a
    /// repeated key — is a pure lookup: no sampling, no heap allocation.
    pub fn query(&self, query: &RouteQuery) -> TravelTimeStats {
        self.serve_cached(query)
    }

    /// Answers a batch of queries through the response cache, fanned
    /// across [`everest_workflow::pool::parallel_map`] workers. Results
    /// land in input order and are bit-identical for every `jobs`
    /// setting, because per-query seeds derive from the cache key.
    pub fn route_batch(&self, queries: &[RouteQuery]) -> Vec<TravelTimeStats> {
        let mut span = everest_telemetry::span("ptdr.batch", "traffic");
        span.attr("queries", queries.len());
        span.attr("jobs", self.jobs);
        everest_workflow::pool::parallel_map(
            "ptdr.batch.worker",
            self.jobs,
            queries.iter().collect(),
            |_, query| self.serve_cached(query),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::{generate_fcd, shortest_route};
    use super::*;

    fn setup() -> (RoadNetwork, SpeedProfiles) {
        let net = RoadNetwork::grid(1, 8, 1.0);
        let fcd = generate_fcd(&net, 2, 60_000);
        let profiles = SpeedProfiles::learn(&net, &fcd);
        (net, profiles)
    }

    #[test]
    fn engine_matches_reference_statistically() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 63, 8).unwrap();
        let reference = ptdr_travel_time_reference(&net, &profiles, &route, 8.0, 60_000, 7);
        let mut engine: PtdrEngine = PtdrEngine::new();
        let fast = engine.estimate(&net, &profiles, &route, 8.0, 60_000, 7);
        let tol = reference.mean_h * 0.02;
        assert!((fast.mean_h - reference.mean_h).abs() < tol, "{fast:?} vs {reference:?}");
        assert!((fast.p95_h - reference.p95_h).abs() < reference.p95_h * 0.05);
        assert!((fast.std_h - reference.std_h).abs() < reference.std_h * 0.25);
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 63, 17).unwrap();
        let mut a: PtdrEngine = PtdrEngine::new();
        let mut b: PtdrEngine = PtdrEngine::new();
        let x = a.estimate(&net, &profiles, &route, 17.0, 5_000, 42);
        let y = b.estimate(&net, &profiles, &route, 17.0, 5_000, 42);
        assert_eq!(x, y);
        assert_ne!(x, a.estimate(&net, &profiles, &route, 17.0, 5_000, 43));
    }

    #[test]
    fn engine_reuses_tables_across_routes() {
        let (net, profiles) = setup();
        let long = shortest_route(&net, &profiles, 0, 63, 8).unwrap();
        let short = shortest_route(&net, &profiles, 0, 9, 8).unwrap();
        let mut engine: PtdrEngine = PtdrEngine::new();
        let first = engine.estimate(&net, &profiles, &long, 8.0, 2_000, 1);
        let _ = engine.estimate(&net, &profiles, &short, 8.0, 2_000, 1);
        let again = engine.estimate(&net, &profiles, &long, 8.0, 2_000, 1);
        assert_eq!(first, again, "table rebuild must not change results");
    }

    #[test]
    fn lane_widths_cover_partial_blocks() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 27, 8).unwrap();
        // Sample counts around the block width exercise every remainder
        // path (full pairs, odd lane, width < LANES, width == 1).
        for samples in [1usize, 2, 3, 31, 32, 33, 63, 64, 65] {
            let mut engine: PtdrEngine = PtdrEngine::new();
            let stats = engine.estimate(&net, &profiles, &route, 9.0, samples, 5);
            assert!(stats.mean_h > 0.0 && stats.p95_h >= 0.0, "samples={samples}");
        }
        let mut narrow: PtdrEngine<4> = PtdrEngine::new();
        let stats = narrow.estimate(&net, &profiles, &route, 9.0, 100, 5);
        assert!(stats.mean_h > 0.0);
    }

    #[test]
    fn fast_path_takes_97_percent_of_first_words() {
        // A first word lands in layer i with probability 1/128 and passes
        // the fast test with probability x[i+1]/x[i]; layer 0 misses into
        // the tail sampler otherwise.
        let t = zig_tables();
        let fast = (0..128).map(|i| t.x[i + 1] / t.x[i]).sum::<f64>() / 128.0;
        let tail = (1.0 - t.x[1] / t.x[0]) / 128.0;
        assert!((fast - 0.97244).abs() < 1e-5, "fast-path share {fast}");
        assert!((tail - 5.691e-4).abs() < 1e-6, "tail share {tail}");
    }

    #[test]
    fn branch_free_helpers_match_the_plain_forms() {
        for x in [0.0, 0.25, 1.5, ZIG_R + 0.3] {
            for bits in [0u64, 0x80, 0x7F, 0xFF, u64::MAX, u64::MAX ^ 0x80] {
                let sign = if bits & 0x80 != 0 { -1.0f64 } else { 1.0 };
                assert_eq!(signed(x, bits).to_bits(), (sign * x).to_bits(), "x={x} bits={bits:#x}");
            }
        }
        let clocks = [
            -3.5,
            -0.0,
            f64::NAN,
            0.0,
            23.99,
            24.0,
            1e9 + 0.5,
            4_294_967_295.9,
            4_294_967_296.0,
            4.5e9,
            1e20,
            f64::INFINITY,
        ];
        for c in clocks {
            assert_eq!(hour_bin(c), (c as usize) % HOUR_BINS, "clock {c}");
        }
    }

    #[test]
    fn lru_cache_evicts_oldest() {
        let mut lru = LruCache::new(2);
        let stats = TravelTimeStats { mean_h: 1.0, p95_h: 2.0, std_h: 0.1 };
        let key = |n: u64| CacheKey { route_hash: n, departure_bin: 0, samples: 100 };
        lru.insert(key(1), stats);
        lru.insert(key(2), stats);
        assert!(lru.get(&key(1)).is_some()); // refresh 1 — 2 becomes LRU
        lru.insert(key(3), stats);
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&key(2)).is_none(), "key 2 must have been evicted");
        assert!(lru.get(&key(1)).is_some() && lru.get(&key(3)).is_some());
    }

    #[test]
    fn lru_cache_holds_exactly_capacity_entries() {
        let mut lru = LruCache::new(3);
        let stats = TravelTimeStats { mean_h: 1.0, p95_h: 2.0, std_h: 0.1 };
        let key = |n: u64| CacheKey { route_hash: n, departure_bin: 0, samples: 100 };
        for n in 1..=3 {
            lru.insert(key(n), stats);
        }
        assert_eq!(lru.len(), 3, "filling to capacity must not evict");
        assert!(lru.get(&key(1)).is_some() && lru.get(&key(2)).is_some());
        // Re-inserting a resident key at full capacity updates in place.
        let updated = TravelTimeStats { mean_h: 9.0, p95_h: 9.5, std_h: 0.2 };
        lru.insert(key(3), updated);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&key(3)).unwrap().0, updated);
        assert!(lru.get(&key(1)).is_some() && lru.get(&key(2)).is_some());
        // One past capacity evicts exactly one entry.
        lru.insert(key(4), stats);
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn lru_cache_evicts_in_full_recency_order() {
        let mut lru = LruCache::new(3);
        let stats = TravelTimeStats { mean_h: 1.0, p95_h: 2.0, std_h: 0.1 };
        let key = |n: u64| CacheKey { route_hash: n, departure_bin: 0, samples: 100 };
        for n in 1..=3 {
            lru.insert(key(n), stats);
        }
        // Touch order 2, 3, 1 — so evictions must come out 2, 3, 1.
        lru.get(&key(2));
        lru.get(&key(3));
        lru.get(&key(1));
        lru.insert(key(4), stats);
        assert!(lru.get(&key(2)).is_none(), "2 was least recent");
        lru.insert(key(5), stats);
        assert!(lru.get(&key(3)).is_none(), "3 was next");
        // The failed gets above touch nothing, so 1 (refreshed last
        // among the originals, but before 4 and 5 landed) goes next.
        lru.insert(key(6), stats);
        assert!(lru.get(&key(1)).is_none(), "1 evicts after 3");
        assert_eq!(lru.len(), 3);
        for survivor in [4u64, 5, 6] {
            assert!(lru.get(&key(survivor)).is_some(), "key {survivor} must survive");
        }
    }

    #[test]
    fn service_cache_len_respects_capacity_after_eviction() {
        let (net, profiles) = setup();
        let service = PtdrService::new(net, profiles).with_cache_capacity(2);
        let route = vec![0usize, 1, 2];
        let q = |h: f64| RouteQuery { route: route.clone(), depart_hour: h, samples: 64 };
        // Three distinct departure bins = three distinct cache keys.
        let first = service.query(&q(6.0));
        service.query(&q(12.0));
        assert_eq!(service.cache_len(), 2, "two keys fill the cache");
        service.query(&q(18.0));
        assert_eq!(service.cache_len(), 2, "eviction must hold the boundary");
        // Repeats never grow the cache, and the evicted key recomputes
        // to the same bit-identical answer (seed derives from the key).
        assert_eq!(service.query(&q(18.0)), service.query(&q(18.0)));
        assert_eq!(service.cache_len(), 2);
        assert_eq!(service.query(&q(6.0)), first, "recomputed answer must match the original");
    }

    #[test]
    fn cache_key_quantizes_departures_into_bins() {
        let (net, profiles) = setup();
        let service = PtdrService::new(net, profiles);
        let route = vec![0usize, 1, 2];
        let q = |h: f64| RouteQuery { route: route.clone(), depart_hour: h, samples: 100 };
        assert_eq!(service.key(&q(8.0)), service.key(&q(8.24)));
        assert_ne!(service.key(&q(8.0)), service.key(&q(8.30)));
        assert_ne!(
            service.key(&q(8.0)),
            service.key(&RouteQuery { route: vec![0, 1], depart_hour: 8.0, samples: 100 })
        );
        assert_ne!(
            service.key(&q(8.0)),
            service.key(&RouteQuery { route: route.clone(), depart_hour: 8.0, samples: 200 })
        );
        // Hours wrap at midnight; non-finite departures collapse to bin 0.
        assert_eq!(service.key(&q(25.0)).departure_bin, service.key(&q(1.0)).departure_bin);
        assert_eq!(service.key(&q(f64::NAN)).departure_bin, 0);
    }
}
