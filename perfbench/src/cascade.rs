//! `cascade_flow`: the paper's Fig. 1 flow on the repository's reference
//! program, `examples/cascade.edsl` + `examples/pipeline.ewf`:
//! `Sdk::compile` (exhaustive DSE, cold synthesis memo) → `fuse_workflow`
//! → `compile_workflow` → `deploy(.., "cloudfpga-rack")` → `exec::simulate`
//! of the bound task graph. About 95% of an iteration is HLS scheduling
//! plus the DSE memo and pool, so scheduler, memo and pool changes show
//! here; it makes no serving or offload call. The input is fixed: the
//! seed does not change it.

use crate::ledger::Spans;
use crate::report::{self, median, Metrics, Outcome};
use crate::{measure, set_up, Args, JOBS};
use everest::{Compiled, CompiledKernel, Sdk};
use everest_telemetry::MetricsSnapshot;
use everest_workflow::exec::simulate;
use everest_workflow::fuse::EdgeClass;
use everest_workflow::scheduler::Policy;
use everest_workflow::{RunReport, Worker};
use std::time::Instant;

const KERNELS: &str = include_str!("../../examples/cascade.edsl");
const WORKFLOW: &str = include_str!("../../examples/pipeline.ewf");
/// The deployment target. `cloud-p9` has 4 role slots (two OpenCAPI cards
/// with two each) for the cascade's 5 kernels, so `Sdk::deploy` there
/// fails; the cloudFPGA rack has 8.
const NODE: &str = "cloudfpga-rack";
const KERNEL_NAMES: [&str; 5] = ["assimilate", "ensemble", "plume", "exceedance", "report"];

/// Design points per kernel in the default (exhaustive) space.
const POINTS: usize = 24;
/// Memo misses and hits of one cold compile at `JOBS = 2`: 20 distinct
/// synthesis keys, each requested twice.
const COLD_MISSES: u64 = 20;
const COLD_HITS: u64 = 20;
/// The E26 known answer for the cascade's fusion plan.
const FUSABLE: usize = 1;
const MUST_SPILL: usize = 6;
const RACY: usize = 0;
/// FNV-1a of every variant's JSON record, pinned when the benchmark was
/// defined: a scheduler or memo change must leave it as it is.
const VARIANT_FINGERPRINT: u64 = 0xaa0a_647f_8d77_fa11;

/// Set-up repetitions; `setup_s` is their median. The cascade's set-up
/// is sub-millisecond, so it is repeated many times.
const SETUP_REPS: usize = 101;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// What one iteration produced, for the output checks and the
/// simulated metrics.
struct FlowResult {
    compiled: Compiled,
    plan: everest_workflow::fuse::FusionPlan,
    diagnostics: usize,
    placements: usize,
    run: RunReport,
    snapshot: MetricsSnapshot,
}

/// The host pool the bound task graph is simulated on.
fn workers() -> Vec<Worker> {
    Worker::uniform_pool(2, 1.0)
}

/// Empties the process-wide synthesis memo and the metrics registry so
/// the next compile is cold and its counters are its own.
fn cold_start() {
    everest_hls::cache::global().clear();
    everest_telemetry::metrics().reset();
}

fn setup() -> Result<Sdk, String> {
    let sdk = Sdk::builder().jobs(JOBS).build();
    everest_dsl::compile_kernels(KERNELS).map_err(err)?;
    everest_dsl::WorkflowSpec::parse(WORKFLOW).map_err(err)?;
    cold_start();
    Ok(sdk)
}

/// One untraced iteration through the SDK façade; returns its wall time.
fn flow(sdk: &Sdk) -> Result<(f64, FlowResult), String> {
    cold_start();
    let start = Instant::now();
    let compiled = sdk.compile(KERNELS).map_err(err)?;
    let (plan, diags) = sdk.fuse_workflow(WORKFLOW, &[KERNELS]).map_err(err)?;
    let (_, graph) = sdk.compile_workflow(WORKFLOW, &compiled).map_err(err)?;
    let deployment = sdk.deploy(&compiled, NODE).map_err(err)?;
    let run = simulate(&graph, &workers(), Policy::Heft).map_err(err)?;
    let secs = start.elapsed().as_secs_f64();
    let snapshot = everest_telemetry::metrics().snapshot();
    let placements = deployment.placements.len();
    Ok((secs, FlowResult { compiled, plan, diagnostics: diags.len(), placements, run, snapshot }))
}

/// One traced iteration: `Sdk::compile`'s steps composed from their
/// public functions so each layer gets its own span.
fn flow_traced(sdk: &Sdk, spans: &mut Spans) -> Result<FlowResult, String> {
    cold_start();
    let (compiled, plan, diags, deployment, run) = spans.iteration(|s| {
        let mut module = s
            .span("dsl", "compile_kernels", |_| everest_dsl::compile_kernels(KERNELS))
            .map_err(err)?;
        s.span("ir", "passes", |_| {
            everest_ir::pass::PassManager::standard().run(&mut module)?;
            module.verify()
        })
        .map_err(err)?;
        let sets = s
            .span("variants", "generate_all", |s| {
                let funcs: Vec<&everest_ir::Func> = module.iter().collect();
                let sets = everest_variants::generate_all(&funcs, &sdk.space, JOBS);
                // Synthesis runs on the DSE pool's workers, out of reach of
                // the benchmark's spans: attribute to it the share of this
                // span's wall time the workers spent synthesizing.
                let snap = everest_telemetry::metrics().snapshot();
                let share = synth_busy_us(&snap) / pool_busy_us(&snap).max(1e-9);
                let calls = snap.counter("dse.hls.cache.miss");
                s.attribute("hls", "synthesize", calls, s.open_us() * share);
                sets
            })
            .map_err(err)?;
        let kernels = module
            .iter()
            .zip(sets)
            .map(|(f, variants)| CompiledKernel { name: f.name.clone(), variants })
            .collect();
        let compiled = Compiled { module, kernels, explore: None };
        let (plan, diags) =
            s.span("workflow", "fuse", |_| sdk.fuse_workflow(WORKFLOW, &[KERNELS])).map_err(err)?;
        let (_, graph) = s
            .span("workflow", "bind", |_| sdk.compile_workflow(WORKFLOW, &compiled))
            .map_err(err)?;
        let deployment =
            s.span("runtime", "deploy", |_| sdk.deploy(&compiled, NODE)).map_err(err)?;
        let run = s
            .span("workflow", "simulate", |_| simulate(&graph, &workers(), Policy::Heft))
            .map_err(err)?;
        Ok::<_, String>((compiled, plan, diags, deployment, run))
    })?;
    Ok(FlowResult {
        compiled,
        plan,
        diagnostics: diags.len(),
        placements: deployment.placements.len(),
        run,
        snapshot: everest_telemetry::metrics().snapshot(),
    })
}

fn synth_busy_us(snap: &MetricsSnapshot) -> f64 {
    snap.histogram("dse.hls.cache.miss_synthesis_us").map_or(0.0, |h| h.sum)
}

fn pool_busy_us(snap: &MetricsSnapshot) -> f64 {
    snap.histogram("pool.task_run_us").map_or(0.0, |h| h.sum)
}

/// FNV-1a over every variant's JSON record, kernel by kernel.
fn variant_fingerprint(compiled: &Compiled) -> u64 {
    let mut text = String::new();
    for kernel in &compiled.kernels {
        for v in &kernel.variants {
            text.push_str(&v.to_json());
            text.push('\n');
        }
    }
    report::fnv1a(text.as_bytes())
}

/// The output checks of one iteration; `true` when every one holds.
fn check(result: &FlowResult, out: &mut Outcome) -> bool {
    let before = out.errors.len();
    let snap = &result.snapshot;
    let (misses, hits) = (snap.counter("dse.hls.cache.miss"), snap.counter("dse.hls.cache.hit"));
    out.check(misses == COLD_MISSES && hits == COLD_HITS, || {
        format!("memo not cold: {misses} misses / {hits} hits, expected {COLD_MISSES}/{COLD_HITS}")
    });
    let plan = &result.plan;
    let counts = [
        plan.count(EdgeClass::Fusable),
        plan.count(EdgeClass::MustSpill),
        plan.count(EdgeClass::Racy),
    ];
    out.check(counts == [FUSABLE, MUST_SPILL, RACY] && result.diagnostics == 0, || {
        format!(
            "fusion plan {counts:?} with {} diagnostics, expected [{FUSABLE}, {MUST_SPILL}, {RACY}] \
             and none",
            result.diagnostics
        )
    });
    let shape: Vec<(&str, usize)> =
        result.compiled.kernels.iter().map(|k| (k.name.as_str(), k.variants.len())).collect();
    let expected: Vec<(&str, usize)> = KERNEL_NAMES.iter().map(|k| (*k, POINTS)).collect();
    out.check(shape == expected, || format!("variant table {shape:?}, expected {expected:?}"));
    let fp = variant_fingerprint(&result.compiled);
    out.check(fp == VARIANT_FINGERPRINT, || {
        format!("variant fingerprint {fp:016x}, pinned {VARIANT_FINGERPRINT:016x}")
    });
    out.check(result.placements == KERNEL_NAMES.len(), || {
        format!("{} placements on {NODE}, expected {}", result.placements, KERNEL_NAMES.len())
    });
    out.errors.len() == before
}

/// Σ fastest-variant latency, Σ LUTs of the variants `Sdk::deploy` places
/// (each kernel's fastest hardware variant) and the bound graph's
/// makespan: the simulated outputs a user of the flow sees.
fn simulated(result: &FlowResult, named: &mut Metrics) {
    let best_us: f64 = result
        .compiled
        .kernels
        .iter()
        .filter_map(|k| k.fastest())
        .map(|v| v.metrics.total_us())
        .sum();
    let luts: u64 = result
        .compiled
        .kernels
        .iter()
        .filter_map(|k| {
            k.variants
                .iter()
                .filter(|v| v.is_hardware())
                .min_by(|a, b| a.metrics.total_us().total_cmp(&b.metrics.total_us()))
        })
        .map(|v| v.metrics.area_luts)
        .sum();
    named.sim("flow_best_us", best_us, "us");
    named.sim("flow_luts", luts as f64, "LUT");
    named.sim("flow_makespan_us", result.run.makespan_us, "us");
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    out.stamp("cache_mode", "cold (memo cleared and metrics reset before every iteration)");
    out.stamp("input", "examples/cascade.edsl + examples/pipeline.ewf (seed-independent)");
    let (setup_s, sdk) = set_up(SETUP_REPS, setup)?;

    let mut last = None;
    let mut last_traced = None;
    let mut spans = Spans::default();
    let window = measure(args, 1, |traced| {
        let (secs, result) = if traced {
            let start = Instant::now();
            let result = flow_traced(&sdk, &mut spans)?;
            (start.elapsed().as_secs_f64(), result)
        } else {
            flow(&sdk)?
        };
        out.attempted += 1;
        if !check(&result, out) {
            out.failed += 1;
        }
        if traced {
            last_traced = Some(result);
        } else {
            last = Some(result);
        }
        Ok(secs)
    })?;
    let flow_s = median(&window.untraced);
    out.stamp("iteration_s", report::timing_line(&window.untraced));
    simulated(&last.expect("an untraced iteration ran"), &mut out.named);
    out.named.host("flow_s", flow_s, "s");
    if !args.trace {
        let e2e = &mut out.end_to_end;
        e2e.host("setup_s", setup_s, "s");
        e2e.host("peak_rss_mb", window.peak_rss_mb, "MB");
        e2e.host("host_ops_per_s", 1.0 / flow_s, "1/s");
        return Ok(());
    }
    let traced = last_traced.expect("a traced iteration ran");
    layer_metrics(&sdk, &spans, &traced, flow_s, out)?;
    out.ledger = Some(spans.render());
    Ok(())
}

fn layer_metrics(
    sdk: &Sdk,
    spans: &Spans,
    traced: &FlowResult,
    untraced_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let snap = &traced.snapshot;
    let m = &mut out.per_layer;
    m.host("dsl.compile_us", spans.total_us("compile_kernels"), "us");
    m.host("ir.passes_us", spans.total_us("passes"), "us");
    let ops: usize = traced.compiled.module.iter().map(|f| f.op_count()).sum();
    m.count("ir.ops", ops as f64);
    let dse_us = spans.total_us("generate_all");
    let points: usize = traced.compiled.kernels.iter().map(|k| k.variants.len()).sum();
    m.host("variants.dse_us", dse_us, "us");
    m.host("variants.points_per_s", points as f64 / (dse_us / 1e6), "1/s");
    let pareto: usize = traced.compiled.kernels.iter().map(|k| k.pareto_front().len()).sum();
    m.count("variants.pareto_points", pareto as f64);
    m.hls_memo(snap);
    let synth_share = synth_busy_us(snap) / pool_busy_us(snap).max(1e-9);
    m.host("hls.synth_busy_share", synth_share, "share");
    m.host("workflow.fuse_us", spans.total_us("fuse"), "us");
    m.host("workflow.bind_us", spans.total_us("bind"), "us");
    m.host("workflow.simulate_us", spans.total_us("simulate"), "us");
    m.host("runtime.deploy_us", spans.total_us("deploy"), "us");
    m.pool(snap);

    // One direct synthesis probe per kernel at the SDK's HLS config,
    // outside the memo.
    for name in KERNEL_NAMES {
        let func = traced.compiled.module.func(name).ok_or_else(|| format!("no kernel {name}"))?;
        let start = Instant::now();
        let acc = everest_hls::synthesize(func, &sdk.hls).map_err(err)?;
        m.host(format!("hls.synthesize_us.{name}"), start.elapsed().as_secs_f64() * 1e6, "us");
        m.sim(format!("hls.latency_cycles.{name}"), acc.latency_cycles as f64, "cycles");
    }
    spans.publish(untraced_s * 1e6, m);
    let dsl_ir =
        (spans.total_us("compile_kernels") + spans.total_us("passes")) / spans.iteration_us();
    let unattributed = spans.unattributed_share();
    out.predict("hls_share_of_worker_busy", synth_share, ">= 0.8", synth_share >= 0.8);
    out.predict("dsl_ir_share_of_flow", dsl_ir, "< 0.01", dsl_ir < 0.01);
    out.predict("unattributed_share", unattributed, "<= 0.05", unattributed <= 0.05);
    Ok(())
}
