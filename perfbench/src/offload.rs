//! `offload_storm`: back-to-back unpaced 8192-call
//! `OffloadManager::run_batch` batches under the seeded `flaky` fault
//! profile at `JOBS` workers, each followed by `simulate_available`
//! rescheduling off the tripped devices. This is the host bookkeeping
//! path (lane fold, breakers, retries, fallbacks) with the always-on
//! flight recorder; it runs unpaced so it measures the program, not
//! sleeps, and it makes no HLS call.
//!
//! An iteration runs `STORMS` storms, each under its own fault plan and
//! workflow seeded from `--seed` (the first is `--seed` itself), because
//! how much recovery work a call needs depends on the seed's fault draws;
//! one plan alone makes the host rate swing with the seed. Every storm
//! starts a fresh manager and runs the same `BATCHES` batches, so the
//! simulated outputs repeat exactly.

use crate::ledger::Spans;
use crate::report::{self, median, Outcome};
use crate::{measure, set_up, sub_seed, Args, JOBS};
use everest::{FaultPlan, OffloadCall, OffloadManager, OffloadOutcome, System};
use everest_telemetry::{MetricsSnapshot, DEFAULT_RING_CAPACITY};
use everest_workflow::exec::simulate_available;
use everest_workflow::scheduler::Policy;
use everest_workflow::{TaskGraph, Worker};
use std::time::Instant;

const PROFILE: &str = "flaky";
const CALLS: usize = 8_192;
const BATCHES: usize = 4;
const STORMS: usize = 3;
/// Iterations whose memory `peak_rss_mb` covers.
const RSS_ITERATIONS: usize = 10;
/// Alternating recorder-off / recorder-on batches per traced run.
const RECORDER_REPS: usize = 9;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The inputs of one storm.
struct Plan {
    plan: FaultPlan,
    graph: TaskGraph,
    calls: Vec<OffloadCall>,
}

struct Setup {
    system: System,
    plans: Vec<Plan>,
    /// One reschedule worker per fallback-chain rung.
    workers: Vec<Worker>,
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn setup(seed: u64) -> Result<Setup, String> {
    let system = System::everest_reference();
    let mut plans = Vec::with_capacity(STORMS);
    for k in 0..STORMS {
        let seed = sub_seed(seed, k);
        // One call per task of a seeded layered workflow, the shape
        // `everestc offload` drives.
        let graph = TaskGraph::random(seed, 4, CALLS / 4, 400.0);
        let calls = graph
            .tasks()
            .iter()
            .map(|t| OffloadCall {
                kernel: t.name.clone(),
                payload_bytes: t.output_bytes,
                work_us: t.cost_us,
            })
            .collect();
        plans.push(Plan {
            plan: FaultPlan::from_profile(PROFILE, seed).map_err(err)?,
            graph,
            calls,
        });
    }
    let workers = OffloadManager::for_system(&system, plans[0].plan.clone())
        .map_err(err)?
        .chain()
        .iter()
        .map(|t| {
            Worker::new(
                t.device.clone(),
                t.speedup,
                1.0 / (t.link.bandwidth_gbps.max(1e-9) * 1e3),
                t.link.latency_us,
            )
        })
        .collect();
    Ok(Setup { system, plans, workers })
}

/// What one storm produced.
struct Storm {
    outcomes: Vec<OffloadOutcome>,
    manager: OffloadManager,
    tripped: usize,
    makespans_us: Vec<f64>,
}

/// One storm under plan `p`: a fresh manager, `BATCHES` back-to-back
/// batches, each followed by a reschedule off the devices it tripped.
/// `spans` wraps each layer call when given.
fn storm(s: &Setup, p: &Plan, jobs: usize, mut spans: Option<&mut Spans>) -> Result<Storm, String> {
    let mut timed =
        |layer, name, f: &mut dyn FnMut() -> Result<(), String>| match spans.as_deref_mut() {
            Some(sp) => sp.span(layer, name, |_| f()),
            None => f(),
        };
    let mut mgr = None;
    timed("runtime", "manager", &mut || {
        mgr = Some(OffloadManager::for_system(&s.system, p.plan.clone()).map_err(err)?);
        Ok(())
    })?;
    let mut mgr = mgr.expect("manager built");
    let mut outcomes = Vec::with_capacity(BATCHES * CALLS);
    let mut makespans_us = Vec::with_capacity(BATCHES);
    let mut tripped = Vec::new();
    for _ in 0..BATCHES {
        timed("runtime", "run_batch", &mut || {
            outcomes.extend(mgr.run_batch(&p.calls, jobs).map_err(err)?);
            Ok(())
        })?;
        timed("runtime", "tripped_devices", &mut || {
            tripped = mgr.tripped_devices();
            Ok(())
        })?;
        let available: Vec<bool> =
            mgr.chain().iter().map(|t| !tripped.contains(&t.device)).collect();
        timed("workflow", "reschedule", &mut || {
            let run =
                simulate_available(&p.graph, &s.workers, Policy::Heft, &available).map_err(err)?;
            makespans_us.push(run.makespan_us);
            Ok(())
        })?;
    }
    Ok(Storm { outcomes, manager: mgr, tripped: tripped.len(), makespans_us })
}

impl Storm {
    /// Fingerprint of the full retry/fallback trace.
    fn trace_fp(&self) -> u64 {
        report::fnv1a(self.manager.trace().as_bytes())
    }

    /// A cheaper digest of every outcome, for the per-iteration
    /// determinism check.
    fn outcome_fp(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.outcomes.len() * 24);
        for o in &self.outcomes {
            bytes.extend_from_slice(&o.task.to_le_bytes());
            bytes.extend_from_slice(&o.elapsed_us.to_bits().to_le_bytes());
            bytes.extend_from_slice(&[o.attempts as u8, u8::from(o.degraded), o.class as u8]);
        }
        report::fnv1a(&bytes)
    }
}

/// Host seconds of one fresh-manager batch at the given recorder
/// capacity.
fn recorder_batch(s: &Setup, capacity: usize) -> Result<f64, String> {
    everest_telemetry::flight().set_capacity(capacity);
    let p = &s.plans[0];
    let mut mgr = OffloadManager::for_system(&s.system, p.plan.clone()).map_err(err)?;
    let start = Instant::now();
    mgr.run_batch(&p.calls, JOBS).map_err(err)?;
    Ok(start.elapsed().as_secs_f64())
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    out.stamp("cache_mode", "none (fresh manager per storm)");
    out.stamp("fault_profile", PROFILE);
    out.stamp("storms", format!("{STORMS} per iteration, {BATCHES} x {CALLS} calls each"));
    let seeds: Vec<u64> = (0..STORMS).map(|k| sub_seed(args.seed, k)).collect();
    out.stamp("storm_seeds", format!("{seeds:?}"));
    let (setup_s, s) = set_up(SETUP_REPS, || setup(args.seed))?;

    let calls_per_iter = (STORMS * BATCHES * CALLS) as f64;
    let mut spans = Spans::default();
    let mut snapshot: Option<MetricsSnapshot> = None;
    let mut first: Option<(Vec<Storm>, Vec<u64>)> = None;
    let window = measure(args, RSS_ITERATIONS, |traced| {
        let mut secs = 0.0;
        let mut storms = Vec::with_capacity(STORMS);
        for p in &s.plans {
            everest_telemetry::metrics().reset();
            let start = Instant::now();
            storms.push(if traced {
                spans.iteration(|sp| storm(&s, p, JOBS, Some(sp)))?
            } else {
                storm(&s, p, JOBS, None)?
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

        // Output checks, outside the timed storms.
        let completed: usize = storms.iter().map(|st| st.outcomes.len()).sum();
        out.attempted += calls_per_iter as u64;
        out.failed += (calls_per_iter as usize).saturating_sub(completed) as u64;
        let fps: Vec<u64> = storms.iter().map(Storm::outcome_fp).collect();
        match &first {
            None => first = Some((storms, fps)),
            Some((_, first_fps)) => out.check(*first_fps == fps, || {
                "an iteration's outcomes diverged from the first".to_owned()
            }),
        }
        Ok(secs)
    })?;
    out.stamp("iteration_s", report::timing_line(&window.untraced));
    let (storms, _) = first.expect("at least one iteration");

    // The jobs = 1 reference fold must produce the jobs = 2 trace.
    for (k, (p, st)) in s.plans.iter().zip(&storms).enumerate() {
        let (reference_fp, fp) = (storm(&s, p, 1, None)?.trace_fp(), st.trace_fp());
        out.check(reference_fp == fp, || {
            format!("storm {k}: jobs=1 trace {reference_fp:016x} != jobs={JOBS} trace {fp:016x}")
        });
    }

    // Simulated outputs of the first storm (identical in every iteration).
    let first = &storms[0];
    let n = first.outcomes.len().max(1) as f64;
    let mut latencies: Vec<f64> = first.outcomes.iter().map(|o| o.elapsed_us).collect();
    let p99 = report::order_stat(&mut latencies, 0.99);
    let degraded = first.outcomes.iter().filter(|o| o.degraded).count() as f64 / n;
    let attempts = first.outcomes.iter().map(|o| f64::from(o.attempts)).sum::<f64>() / n;
    let calls_per_s = calls_per_iter / median(&window.untraced);
    out.named.host("offload_calls_per_s", calls_per_s, "1/s");
    out.named.sim("offload_p99_us", p99, "us");
    out.named.sim("offload_degraded_frac", degraded, "share");
    out.stamp(
        "storm.result",
        format!(
            "{} devices tripped, reschedule makespans {:?} us (simulated)",
            first.tripped, first.makespans_us
        ),
    );

    if !args.trace {
        let e2e = &mut out.end_to_end;
        e2e.host("setup_s", setup_s, "s");
        e2e.host("peak_rss_mb", window.peak_rss_mb, "MB");
        e2e.host("host_ops_per_s", calls_per_s, "1/s");
        return Ok(());
    }

    // Flight-recorder share of the unpaced batch: the same batch with the
    // recorder off and at its default capacity, alternated.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..RECORDER_REPS {
        off.push(recorder_batch(&s, 0)?);
        on.push(recorder_batch(&s, DEFAULT_RING_CAPACITY)?);
    }
    everest_telemetry::flight().set_capacity(DEFAULT_RING_CAPACITY);
    let (off, on) = (median(&off), median(&on));

    let snap = snapshot.expect("a traced iteration ran");
    let m = &mut out.per_layer;
    let batches = spans.total_us("run_batch");
    m.host("runtime.batch_us", batches / BATCHES as f64, "us");
    let mean = |name: &str| snap.histogram(name).map_or(0.0, |h| h.mean());
    m.host("runtime.fold_us", mean("offload.phase.fold_us"), "us");
    m.host("runtime.merge_us", mean("offload.phase.merge_us"), "us");
    m.host("telemetry.recorder_share", (on - off) / on, "share");
    m.sim("runtime.attempts_per_call", attempts, "count");
    let traced_storms = (window.traced.len() * STORMS).max(1) as f64;
    m.count("runtime.breaker_opens", snap.counter("offload.breaker.open") as f64 / traced_storms);
    m.host("runtime.reschedule_us", spans.total_us("reschedule") / BATCHES as f64, "us");
    m.hls_memo(&snap);
    m.pool(&snap);
    // Each ledger iteration is one storm.
    spans.publish(1e6 * median(&window.untraced) / STORMS as f64, m);
    out.ledger = Some(spans.render());
    let synth_calls = snap.counter("dse.hls.cache.miss") as f64;
    out.predict("hls_synth_calls", synth_calls, "0", synth_calls == 0.0);
    Ok(())
}
