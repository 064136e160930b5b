//! The benchmark's own spans: one around each call into a layer's public
//! entry point, kept in memory and folded into a per-layer ledger (calls,
//! busy time, self time) when the run ends. Nothing here reaches inside
//! the crates; work the program does on its own pool threads is
//! attributed from the counters and histograms it already publishes.

use crate::report::Metrics;
use std::fmt::Write;
use std::time::Instant;

/// The layers the ledger reports, named after the crates. Every traced
/// run reports all of them; a layer a workload does not call reads 0.
pub const LAYERS: [&str; 7] = ["dsl", "ir", "variants", "hls", "workflow", "runtime", "apps"];

/// The root layer: the benchmark's own iteration. Its self time is the
/// glue between calls, reported as the `unattributed` residual.
pub const ROOT: &str = "bench";

#[derive(Debug)]
struct Rec {
    layer: &'static str,
    name: &'static str,
    parent: Option<usize>,
    calls: u64,
    start: Instant,
    dur_us: f64,
}

#[derive(Debug, Default)]
pub struct Spans {
    recs: Vec<Rec>,
    stack: Vec<usize>,
    iterations: u64,
}

impl Spans {
    /// Times `f` as one call into `layer`, nested under the open span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        let idx = self.recs.len();
        let parent = self.stack.last().copied();
        let start = Instant::now();
        self.recs.push(Rec { layer, name, parent, calls: 1, start, dur_us: 0.0 });
        self.stack.push(idx);
        let out = f(self);
        self.recs[idx].dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.stack.pop();
        out
    }

    /// Times one benchmark iteration (a root span).
    pub fn iteration<R>(&mut self, f: impl FnOnce(&mut Spans) -> R) -> R {
        assert!(self.stack.is_empty(), "iterations do not nest");
        self.iterations += 1;
        self.span(ROOT, "iteration", f)
    }

    /// Adds a child of the open span whose time comes from the program's
    /// own counters rather than from a benchmark span: `calls` calls
    /// covering `dur_us` of the parent's wall time.
    pub fn attribute(&mut self, layer: &'static str, name: &'static str, calls: u64, dur_us: f64) {
        let parent = self.stack.last().copied();
        self.recs.push(Rec { layer, name, parent, calls, start: Instant::now(), dur_us });
    }

    /// Wall time the open span has run so far, µs.
    pub fn open_us(&self) -> f64 {
        self.stack.last().map_or(0.0, |&i| self.recs[i].start.elapsed().as_secs_f64() * 1e6)
    }

    fn child_us(&self, idx: usize) -> f64 {
        self.recs.iter().filter(|r| r.parent == Some(idx)).map(|r| r.dur_us).sum()
    }

    fn has_ancestor_in(&self, idx: usize, layer: &str) -> bool {
        let mut at = self.recs[idx].parent;
        while let Some(p) = at {
            if self.recs[p].layer == layer {
                return true;
            }
            at = self.recs[p].parent;
        }
        false
    }

    /// `(calls, busy µs, self µs)` of one layer, per iteration.
    fn layer(&self, layer: &str) -> (f64, f64, f64) {
        let (mut calls, mut busy, mut own) = (0u64, 0.0, 0.0);
        for (i, r) in self.recs.iter().enumerate().filter(|(_, r)| r.layer == layer) {
            calls += r.calls;
            if !self.has_ancestor_in(i, layer) {
                busy += r.dur_us;
            }
            own += r.dur_us - self.child_us(i);
        }
        let n = self.iterations.max(1) as f64;
        (calls as f64 / n, busy / n, own / n)
    }

    /// Mean wall time of one iteration, µs.
    pub fn iteration_us(&self) -> f64 {
        self.layer(ROOT).1
    }

    /// Mean wall µs per iteration of the spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        let sum: f64 = self.recs.iter().filter(|r| r.name == name).map(|r| r.dur_us).sum();
        sum / self.iterations.max(1) as f64
    }

    /// Share of the iteration no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let (_, busy, own) = self.layer(ROOT);
        own / busy.max(1e-9)
    }

    /// Appends `ledger.<layer>.{calls,busy_us,self_us}` for every layer,
    /// the unattributed residual, and the tracing overhead (traced minus
    /// untraced iteration time, as a share of the untraced time).
    pub fn publish(&self, untraced_us: f64, out: &mut Metrics) {
        for layer in LAYERS {
            let (calls, busy, own) = self.layer(layer);
            out.host(format!("ledger.{layer}.calls"), calls, "count");
            out.host(format!("ledger.{layer}.busy_us"), busy, "us");
            out.host(format!("ledger.{layer}.self_us"), own, "us");
        }
        out.host("ledger.unattributed_share", self.unattributed_share(), "share");
        out.host(
            "ledger.trace_overhead_share",
            (self.iteration_us() - untraced_us) / untraced_us.max(1e-9),
            "share",
        );
    }

    /// The ledger as a table: one row per layer with calls, busy and self
    /// time per iteration and self time as a share of the iteration.
    pub fn render(&self) -> String {
        let total = self.iteration_us().max(1e-9);
        let mut out = format!(
            "  {:<10} {:>10} {:>16} {:>16} {:>8}   ({} iteration(s), {:.0} us each)\n",
            "layer", "calls", "busy_us", "self_us", "self%", self.iterations, total
        );
        for layer in LAYERS.iter().chain(std::iter::once(&ROOT)) {
            let (calls, busy, own) = self.layer(layer);
            let label = if *layer == ROOT { "unattrib." } else { layer };
            let _ = writeln!(
                out,
                "  {label:<10} {calls:>10.1} {busy:>16.1} {own:>16.1} {:>7.2}%",
                100.0 * own / total
            );
        }
        out
    }
}
