//! Memoization of synthesis results.
//!
//! Design-space exploration re-runs full HLS synthesis for every hardware
//! point, even though many points differ only in knobs (threads, layout,
//! tile size, attachment) that never reach the [`HlsConfig`]. This module
//! collapses that redundancy: a structural content hash of the kernel
//! ([`func_fingerprint`], name-independent so structurally identical
//! kernels share entries) plus a hashable [`ConfigKey`] derived from the
//! HLS-relevant knobs index a process-wide concurrent memo of
//! [`SynthSummary`] records.
//!
//! Concurrent callers racing on the same key are deduplicated: the first
//! caller synthesizes while the rest block on the entry and then read the
//! finished summary, so one synthesis run serves every variant that maps
//! to the key. Hits and misses are counted on the
//! `dse.hls.cache.hit` / `dse.hls.cache.miss` telemetry counters.

use crate::accel::{summarize, HlsConfig, SynthSummary};
use crate::error::HlsResult;
use crate::memory::Scheme;
use crate::oplib::FuKind;
use everest_ir::print::print_func;
use everest_ir::Func;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A structural content hash of a function: the canonical printed form
/// with the symbol name blanked, so two kernels that differ only in name
/// hash identically. Printing is deterministic (attributes are stored in
/// ordered maps and values are numbered in program order), so the
/// fingerprint is stable across processes.
pub fn func_fingerprint(func: &Func) -> u64 {
    let text = print_func(func, 0);
    let canon = text.replacen(&format!("@{}(", func.name), "@(", 1);
    let mut hasher = DefaultHasher::new();
    canon.hash(&mut hasher);
    hasher.finish()
}

/// The HLS-relevant knobs of an [`HlsConfig`], flattened into a hashable
/// key. Two configs with equal keys synthesize to identical results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigKey {
    /// Functional-unit counts in [`FuKind::ALL`] order.
    budget: Vec<usize>,
    /// Bit pattern of the target clock (exact, not rounded).
    clock_bits: u64,
    pipeline: bool,
    banks: usize,
    scheme: Scheme,
    ports_per_bank: usize,
    pe: usize,
    assoc_reduction: bool,
    /// `(taint_bits, check_on_store)` when DIFT is requested.
    dift: Option<(u32, bool)>,
}

impl ConfigKey {
    /// Derives the key for one configuration.
    pub fn of(config: &HlsConfig) -> ConfigKey {
        ConfigKey {
            budget: FuKind::ALL.iter().map(|kind| config.budget.count(*kind)).collect(),
            clock_bits: config.clock_mhz.to_bits(),
            pipeline: config.pipeline,
            banks: config.banks,
            scheme: config.scheme,
            ports_per_bank: config.ports_per_bank,
            pe: config.pe,
            assoc_reduction: config.assoc_reduction,
            dift: config.dift.as_ref().map(|d| (d.taint_bits, d.check_on_store)),
        }
    }
}

type Key = (u64, ConfigKey);
type Slot = Arc<Mutex<Option<SynthSummary>>>;

/// A concurrent memo of synthesis summaries keyed by
/// `(func_fingerprint, ConfigKey)`.
#[derive(Default)]
pub struct SynthCache {
    map: Mutex<HashMap<Key, Slot>>,
}

impl SynthCache {
    /// An empty cache.
    pub fn new() -> SynthCache {
        SynthCache::default()
    }

    /// Number of completed entries.
    pub fn len(&self) -> usize {
        self.map.lock().values().filter(|slot| slot.lock().is_some()).count()
    }

    /// `true` when no synthesis result is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (used by benchmarks to measure cold runs).
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    /// Returns the memoized summary for `(func, config)`, synthesizing on
    /// the first request. Concurrent requests for the same key block on
    /// the in-flight synthesis instead of duplicating it.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::HlsError`] from synthesis; failures are not
    /// cached, so a later call retries.
    pub fn get_or_synthesize(&self, func: &Func, config: &HlsConfig) -> HlsResult<SynthSummary> {
        let start = std::time::Instant::now();
        let key = (func_fingerprint(func), ConfigKey::of(config));
        let slot: Slot = Arc::clone(self.map.lock().entry(key).or_default());
        let mut entry = slot.lock();
        if let Some(summary) = *entry {
            let telemetry = everest_telemetry::metrics();
            telemetry.counter_inc("dse.hls.cache.hit");
            // Hit latency (key hash + two lock hops) vs the synthesis
            // cost below quantifies what the memo cache is worth.
            telemetry.observe("dse.hls.cache.hit_us", start.elapsed().as_secs_f64() * 1e6);
            return Ok(summary);
        }
        everest_telemetry::metrics().counter_inc("dse.hls.cache.miss");
        everest_telemetry::flight().marker("dse.hls.cache.miss", 1.0);
        let mut span = everest_telemetry::span("hls.synthesize", "hls");
        span.attr("kernel", &func.name);
        let summary = summarize(func, config)?;
        *entry = Some(summary);
        everest_telemetry::metrics()
            .observe("dse.hls.cache.miss_synthesis_us", start.elapsed().as_secs_f64() * 1e6);
        Ok(summary)
    }
}

/// The process-wide synthesis cache shared by every DSE run. Entries are
/// pure functions of kernel structure and configuration, so sharing
/// across compiles (and across structurally identical kernels) is safe.
pub fn global() -> &'static SynthCache {
    static CACHE: OnceLock<SynthCache> = OnceLock::new();
    CACHE.get_or_init(SynthCache::new)
}

/// Synthesizes through the [`global`] cache.
///
/// # Errors
///
/// Propagates [`crate::HlsError`] from synthesis on a cache miss.
pub fn synthesize_cached(func: &Func, config: &HlsConfig) -> HlsResult<SynthSummary> {
    global().get_or_synthesize(func, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(src: &str, name: &str) -> Func {
        everest_dsl::compile_kernels(src).unwrap().func(name).unwrap().clone()
    }

    #[test]
    fn fingerprint_ignores_kernel_name() {
        let a = kernel("kernel a(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }", "a");
        let b =
            kernel("kernel bbb(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }", "bbb");
        assert_eq!(func_fingerprint(&a), func_fingerprint(&b));
    }

    #[test]
    fn fingerprint_separates_different_bodies() {
        let a = kernel("kernel k(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }", "k");
        let b = kernel("kernel k(x: tensor<16xf64>) -> tensor<16xf64> { return sigmoid(x); }", "k");
        let c = kernel("kernel k(x: tensor<32xf64>) -> tensor<32xf64> { return relu(x); }", "k");
        assert_ne!(func_fingerprint(&a), func_fingerprint(&b));
        assert_ne!(func_fingerprint(&a), func_fingerprint(&c));
    }

    #[test]
    fn config_key_ignores_nothing_relevant() {
        let base = HlsConfig::default();
        assert_eq!(ConfigKey::of(&base), ConfigKey::of(&base.clone()));
        for changed in [
            HlsConfig { banks: base.banks + 1, ..base.clone() },
            HlsConfig { pe: base.pe + 1, ..base.clone() },
            HlsConfig { pipeline: !base.pipeline, ..base.clone() },
            HlsConfig { clock_mhz: base.clock_mhz * 2.0, ..base.clone() },
            HlsConfig { assoc_reduction: !base.assoc_reduction, ..base.clone() },
            HlsConfig { dift: Some(crate::dift::DiftConfig::default()), ..base.clone() },
        ] {
            assert_ne!(ConfigKey::of(&base), ConfigKey::of(&changed));
        }
    }

    #[test]
    fn cache_hits_return_identical_summaries() {
        let f = kernel(
            "kernel mm(a: tensor<8x8xf64>, b: tensor<8x8xf64>) -> tensor<8x8xf64> { return a @ b; }",
            "mm",
        );
        let cache = SynthCache::new();
        let config = HlsConfig::default();
        let first = cache.get_or_synthesize(&f, &config).unwrap();
        let second = cache.get_or_synthesize(&f, &config).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
        let direct = crate::accel::synthesize(&f, &config).unwrap().summary();
        assert_eq!(first, direct, "cached summary must match direct synthesis bit-for-bit");
    }

    #[test]
    fn structurally_identical_kernels_share_one_entry() {
        let a = kernel("kernel a(x: tensor<32xf64>) -> tensor<32xf64> { return relu(x); }", "a");
        let b = kernel("kernel b(x: tensor<32xf64>) -> tensor<32xf64> { return relu(x); }", "b");
        let cache = SynthCache::new();
        cache.get_or_synthesize(&a, &HlsConfig::default()).unwrap();
        cache.get_or_synthesize(&b, &HlsConfig::default()).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failures_are_not_cached() {
        let f = kernel("kernel id(a: tensor<4xf64>) -> tensor<4xf64> { return a; }", "id");
        let cache = SynthCache::new();
        let bad = HlsConfig { banks: 0, ..HlsConfig::default() };
        assert!(cache.get_or_synthesize(&f, &bad).is_err());
        assert_eq!(cache.len(), 0);
        assert!(cache.get_or_synthesize(&f, &HlsConfig::default()).is_ok());
    }

    #[test]
    fn hit_and_miss_latencies_are_recorded() {
        let f = kernel("kernel h(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }", "h");
        let cache = SynthCache::new();
        let before = everest_telemetry::metrics().snapshot();
        cache.get_or_synthesize(&f, &HlsConfig::default()).unwrap();
        cache.get_or_synthesize(&f, &HlsConfig::default()).unwrap();
        let after = everest_telemetry::metrics().snapshot();
        // The registry is process-global and other tests run in
        // parallel, so assert growth rather than exact counts.
        let grew = |name: &str| {
            after.histogram(name).map_or(0, |h| h.count)
                > before.histogram(name).map_or(0, |h| h.count)
        };
        assert!(grew("dse.hls.cache.miss_synthesis_us"), "miss path timed");
        assert!(grew("dse.hls.cache.hit_us"), "hit path timed");
    }

    #[test]
    fn clear_forgets_entries() {
        let f = kernel("kernel id(a: tensor<4xf64>) -> tensor<4xf64> { return a; }", "id");
        let cache = SynthCache::new();
        cache.get_or_synthesize(&f, &HlsConfig::default()).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
