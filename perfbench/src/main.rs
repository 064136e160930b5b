//! End-to-end and per-layer benchmark of the EVEREST flow.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cascade_flow|serve_day|offload_storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. With `--trace 0` the run measures the
//! workload untraced and its last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` it measures the same workload with
//! the benchmark's spans around every layer call and carries the per-layer
//! metrics instead. Both print provenance, the workload's named metrics (each
//! labelled `host` or `simulated`) and the output checks before that line.
//!
//! Every layer runs at [`JOBS`] worker threads, the reference box's core
//! count, so no number mixes in parallelism the box does not have.

mod cascade;
mod ledger;
mod offload;
mod report;
mod serve;

use report::Outcome;
use std::process::ExitCode;

/// Worker threads for every pooled layer (DSE, serving shards, lanes).
pub const JOBS: usize = 2;

pub const WORKLOADS: [&str; 3] = ["cascade_flow", "serve_day", "offload_storm"];

/// The `k`-th input seed of a run: `seed` itself for `k = 0`, then
/// further seeds derived from it, for workloads that average over several
/// seeded inputs.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Runs `setup` `reps` times, each on a fresh thread so every repetition
/// starts with per-thread state (hash seeds, allocator arena) as cold as a
/// new process's, and returns the median host seconds of one set-up with
/// the last repetition's product.
pub fn set_up<T: Send>(
    reps: usize,
    setup: impl Fn() -> Result<T, String> + Sync,
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps.max(1) {
        let (s, p) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let start = std::time::Instant::now();
                    let p = setup();
                    (start.elapsed().as_secs_f64(), p)
                })
                .join()
                .map_err(|_| "set-up panicked".to_owned())
        })?;
        secs.push(s);
        product = Some(p?);
    }
    Ok((report::median(&secs), product.expect("at least one repetition")))
}

/// Host seconds of the iterations of one run.
pub struct Window {
    /// Untraced iterations: the end-to-end sample.
    pub untraced: Vec<f64>,
    /// Traced iterations (traced runs only).
    pub traced: Vec<f64>,
    /// Peak RSS after set-up and the first `rss_iterations` iterations.
    pub peak_rss_mb: f64,
}

/// Runs `iteration(traced)` for `args.seconds` and at least
/// `rss_iterations` times; a traced run alternates untraced and traced
/// iterations so both see the same conditions. `iteration` returns the
/// host seconds of the work it timed. Peak RSS is read after a fixed
/// number of iterations so it measures a fixed amount of work however
/// fast the iterations run.
pub fn measure(
    args: &Args,
    rss_iterations: usize,
    mut iteration: impl FnMut(bool) -> Result<f64, String>,
) -> Result<Window, String> {
    let mut w = Window { untraced: Vec::new(), traced: Vec::new(), peak_rss_mb: 0.0 };
    let start = std::time::Instant::now();
    let mut done = 0;
    while done < rss_iterations.max(1)
        || (args.trace && w.traced.is_empty())
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let traced = args.trace && done % 2 == 1;
        let secs = iteration(traced)?;
        if traced {
            w.traced.push(secs);
        } else {
            w.untraced.push(secs);
        }
        done += 1;
        if done == rss_iterations.max(1) {
            w.peak_rss_mb = report::peak_rss_mb()?;
        }
    }
    Ok(w)
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Provenance every report carries, whatever the workload.
fn stamp_common(args: &Args, out: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.stamp("workload", &args.workload);
    out.stamp("seed", args.seed);
    out.stamp("seconds", args.seconds);
    out.stamp("trace", u8::from(args.trace));
    out.stamp("nproc", nproc);
    out.stamp("jobs", JOBS);
    out.stamp("commit", commit().unwrap_or_else(|| "unknown (not a git checkout)".to_owned()));
    out.stamp("pacing", "off");
    out.stamp("flight_capacity", everest_telemetry::flight().capacity());
    out.stamp("build", if cfg!(debug_assertions) { "debug" } else { "release" });
}

/// The checked-out commit, read from `.git` when the run happens inside a
/// git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_owned))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    stamp_common(&args, &mut out);
    let result = match args.workload.as_str() {
        "cascade_flow" => cascade::run(&args, &mut out),
        "serve_day" => serve::run(&args, &mut out),
        _ => offload::run(&args, &mut out),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if let Err(e) = out.print(args.trace) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
