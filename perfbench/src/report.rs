//! What one run reports: the `BENCHMARK.json` metrics for the last stdout
//! line, the named metrics and provenance for the human-readable block,
//! and the small statistics helpers every workload shares.

use everest_telemetry::MetricsSnapshot;
use std::fmt::Write;

/// The end-to-end metrics `BENCHMARK.json` lists, with their units, in
/// output order.
/// Every workload reports each one (see `BENCHMARK.json` for what it
/// means there).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("host_ops_per_s", "1/s")];

/// The per-layer metrics `BENCHMARK.json` lists, with their units, in
/// output order. A
/// traced run reports each one; a layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("dsl.compile_us", "us"),
    ("ir.passes_us", "us"),
    ("ir.ops", "count"),
    ("variants.dse_us", "us"),
    ("variants.points_per_s", "1/s"),
    ("variants.pareto_points", "count"),
    ("hls.synth_calls", "count"),
    ("hls.cache_hit_ratio", "share"),
    ("hls.synth_busy_us", "us"),
    ("hls.synth_busy_share", "share"),
    ("hls.synthesize_us.assimilate", "us"),
    ("hls.synthesize_us.ensemble", "us"),
    ("hls.synthesize_us.plume", "us"),
    ("hls.synthesize_us.exceedance", "us"),
    ("hls.synthesize_us.report", "us"),
    ("hls.latency_cycles.assimilate", "cycles"),
    ("hls.latency_cycles.ensemble", "cycles"),
    ("hls.latency_cycles.plume", "cycles"),
    ("hls.latency_cycles.exceedance", "cycles"),
    ("hls.latency_cycles.report", "cycles"),
    ("workflow.fuse_us", "us"),
    ("workflow.bind_us", "us"),
    ("workflow.simulate_us", "us"),
    ("runtime.deploy_us", "us"),
    ("workflow.pool_wait_p99_us", "us"),
    ("workflow.pool_run_p99_us", "us"),
    ("apps.serve_run_us", "us"),
    ("apps.cloud_fills", "count"),
    ("apps.ptdr_estimate_us", "us"),
    ("apps.edge_hit_ratio", "share"),
    ("apps.queue_wait_p99_us", "us"),
    ("runtime.batch_us", "us"),
    ("runtime.fold_us", "us"),
    ("runtime.merge_us", "us"),
    ("telemetry.recorder_share", "share"),
    ("runtime.attempts_per_call", "count"),
    ("runtime.breaker_opens", "count"),
    ("runtime.reschedule_us", "us"),
    ("ledger.dsl.calls", "count"),
    ("ledger.dsl.busy_us", "us"),
    ("ledger.dsl.self_us", "us"),
    ("ledger.ir.calls", "count"),
    ("ledger.ir.busy_us", "us"),
    ("ledger.ir.self_us", "us"),
    ("ledger.variants.calls", "count"),
    ("ledger.variants.busy_us", "us"),
    ("ledger.variants.self_us", "us"),
    ("ledger.hls.calls", "count"),
    ("ledger.hls.busy_us", "us"),
    ("ledger.hls.self_us", "us"),
    ("ledger.workflow.calls", "count"),
    ("ledger.workflow.busy_us", "us"),
    ("ledger.workflow.self_us", "us"),
    ("ledger.runtime.calls", "count"),
    ("ledger.runtime.busy_us", "us"),
    ("ledger.runtime.self_us", "us"),
    ("ledger.apps.calls", "count"),
    ("ledger.apps.busy_us", "us"),
    ("ledger.apps.self_us", "us"),
    ("ledger.unattributed_share", "share"),
    ("ledger.trace_overhead_share", "share"),
];

/// Where a number comes from. Host numbers are wall-clock or memory
/// readings of this machine; simulated numbers come from the repository's
/// models (virtual µs, LUTs, cycles), repeat exactly for a seed and have
/// not been validated against hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Simulated,
    /// An exact count the program keeps (memo misses, breaker opens).
    Count,
    /// A per-layer metric of a layer the workload does not call.
    NotCalled,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Simulated => "simulated",
            Kind::Count => "count",
            Kind::NotCalled => "not called",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
}

/// A growing list of metrics with a terse constructor per kind.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn host(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit, kind: Kind::Host });
    }

    pub fn sim(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit, kind: Kind::Simulated });
    }

    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.0.push(Metric { name: name.into(), value, unit: "count", kind: Kind::Count });
    }

    /// The DSE synthesis memo as the program counts it: synthesis runs
    /// (misses), the hit ratio, and the worker time spent synthesizing.
    pub fn hls_memo(&mut self, snap: &MetricsSnapshot) {
        let (misses, hits) =
            (snap.counter("dse.hls.cache.miss"), snap.counter("dse.hls.cache.hit"));
        self.count("hls.synth_calls", misses as f64);
        self.host("hls.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "share");
        let busy = snap.histogram("dse.hls.cache.miss_synthesis_us").map_or(0.0, |h| h.sum);
        self.host("hls.synth_busy_us", busy, "us");
    }

    /// The shared worker pool's queue wait and task run p99s.
    pub fn pool(&mut self, snap: &MetricsSnapshot) {
        let p99 = |name: &str| snap.histogram(name).map_or(0.0, |h| h.p99());
        self.host("workflow.pool_wait_p99_us", p99("pool.queue_wait_us"), "us");
        self.host("workflow.pool_run_p99_us", p99("pool.task_run_us"), "us");
    }
}

/// Everything one run of one workload produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window (see each workload).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Failed checks, one line each.
    pub errors: Vec<String>,
    /// End-to-end metrics (`--trace 0`).
    pub end_to_end: Metrics,
    /// The workload's own named metrics, for the report block.
    pub named: Metrics,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Metrics,
    /// `key = value` provenance lines.
    pub provenance: Vec<(String, String)>,
    /// Rendered layer ledger (traced runs only).
    pub ledger: Option<String>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn stamp(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_owned(), value.to_string()));
    }

    /// Records how a prediction made when the benchmark was defined
    /// fared on this run. A miss is reported, not failed: it is a finding
    /// about the program, not a wrong output.
    pub fn predict(&mut self, name: &str, value: f64, expected: &str, holds: bool) {
        let verdict = if holds { "holds" } else { "DOES NOT HOLD" };
        self.stamp(
            &format!("prediction.{name}"),
            format!("{value:.4e} (expected {expected}): {verdict}"),
        );
    }

    /// The listed metrics of this run in canonical order, with their
    /// units and kinds. A per-layer metric the workload did not measure
    /// reads 0 (a layer it does not call); a missing end-to-end metric, or
    /// a measured one absent from the canonical list or with another unit,
    /// is a bug in the benchmark.
    fn listed_metrics(&self, trace: bool) -> Result<Vec<Metric>, String> {
        let (canon, measured): (&[(&str, &str)], _) =
            if trace { (&PER_LAYER, &self.per_layer) } else { (&END_TO_END, &self.end_to_end) };
        for m in &measured.0 {
            if !canon.iter().any(|(n, u)| *n == m.name && *u == m.unit) {
                return Err(format!(
                    "metric {} [{}] is not listed in BENCHMARK.json",
                    m.name, m.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is {}", m.name, m.value));
            }
        }
        canon
            .iter()
            .map(|(name, unit)| match measured.0.iter().find(|m| m.name == *name) {
                Some(m) => Ok(m.clone()),
                None if trace => {
                    Ok(Metric { name: (*name).to_owned(), value: 0.0, unit, kind: Kind::NotCalled })
                }
                None => Err(format!("end-to-end metric {name} was not measured")),
            })
            .collect()
    }

    /// Prints the human-readable block, then the JSON result line last.
    pub fn print(&self, trace: bool) -> Result<(), String> {
        let metrics = self.listed_metrics(trace)?;
        println!("== provenance");
        for (k, v) in &self.provenance {
            println!("  {k:<26} {v}");
        }
        let print_block = |title: &str, metrics: &[Metric]| {
            println!("== {title}");
            for m in metrics {
                println!(
                    "  {:<34} {:>18} {:<8} [{}]",
                    m.name,
                    fmt_num(m.value),
                    m.unit,
                    m.kind.label()
                );
            }
        };
        print_block("named metrics", &self.named.0);
        print_block(if trace { "per-layer metrics" } else { "end-to-end metrics" }, &metrics);
        if let Some(ledger) = &self.ledger {
            println!("== layer ledger");
            print!("{ledger}");
        }
        let attempted = self.attempted.max(1);
        println!(
            "== checks: attempted {attempted} failed {} fail_frac {}",
            self.failed,
            self.failed as f64 / attempted as f64
        );
        for e in &self.errors {
            println!("  FAILED: {e}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty() && self.failed == 0,
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }
}

fn fmt_num(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Exact order-statistic quantile (no interpolation), for simulated
/// samples whose values must repeat bit-exactly.
pub fn order_stat(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Peak resident set size of this process so far, MB (VmHWM).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed line '{line}'"))?;
    Ok(kb / 1024.0)
}

/// FNV-1a 64 over a byte stream: the fingerprint of pinned outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

/// One line describing a sample of per-iteration host times: count,
/// median, spread, and the medians of its first and last quarter (a
/// drift between those two shows state building up across iterations).
pub fn timing_line(secs: &[f64]) -> String {
    let q = (secs.len() / 4).max(1);
    format!(
        "n={} median={:.6} min={:.6} max={:.6} first_quarter={:.6} last_quarter={:.6} (s)",
        secs.len(),
        median(secs),
        secs.iter().copied().fold(f64::INFINITY, f64::min),
        secs.iter().copied().fold(0.0, f64::max),
        median(&secs[..q]),
        median(&secs[secs.len() - q..])
    )
}
