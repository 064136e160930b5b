//! Determinism and caching guarantees of the parallel DSE engine: any
//! worker count must produce bit-identical variant sets, the synthesis
//! cache must actually hit on the default space (and count the same hits
//! and misses at every worker count), and the `--jobs` CLI flag must be
//! wired through `everestc`.

use everest::Sdk;
use std::process::Command;
use std::sync::Mutex;

/// The telemetry counters and the synthesis cache are process-global;
/// tests that compile in-process serialize on this lock so counter deltas
/// are attributable.
static COMPILE_LOCK: Mutex<()> = Mutex::new(());

fn compile_lock() -> std::sync::MutexGuard<'static, ()> {
    COMPILE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const SRC: &str = "
    kernel gemm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> {
        return a @ b;
    }
    kernel gemm2(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> {
        return a @ b;
    }
    kernel smooth(x: tensor<64xf64>) -> tensor<64xf64> {
        return stencil(x, [0.25, 0.5, 0.25]);
    }
";

/// Serializes every variant of every kernel so two compilations can be
/// compared bit-for-bit (ids, transform lists and full metrics included).
fn fingerprint(compiled: &everest::Compiled) -> String {
    let mut out = String::new();
    for kernel in &compiled.kernels {
        out.push_str(&kernel.name);
        out.push('\n');
        for v in &kernel.variants {
            out.push_str(&serde_json::to_string(v).expect("variant serializes"));
            out.push('\n');
        }
    }
    out
}

#[test]
fn any_job_count_is_bit_identical_to_the_sequential_reference() {
    let _guard = compile_lock();
    let reference = fingerprint(&Sdk::builder().jobs(1).build().compile(SRC).unwrap());
    for jobs in [2, 3, 8] {
        let parallel = fingerprint(&Sdk::builder().jobs(jobs).build().compile(SRC).unwrap());
        assert_eq!(reference, parallel, "jobs={jobs} diverged from jobs=1");
    }
}

#[test]
fn memoized_engine_hits_the_synthesis_cache_on_the_default_space() {
    let _guard = compile_lock();
    everest::hls::cache::global().clear();
    let before = everest_telemetry::metrics().snapshot();
    let hits_before = before.counter("dse.hls.cache.hit");
    let misses_before = before.counter("dse.hls.cache.miss");

    Sdk::builder().jobs(4).build().compile(SRC).unwrap();

    let after = everest_telemetry::metrics().snapshot();
    let hits = after.counter("dse.hls.cache.hit") - hits_before;
    let misses = after.counter("dse.hls.cache.miss") - misses_before;
    // Default space: 8 hardware points per kernel collapse to 4 unique
    // HLS configs, and gemm/gemm2 are structurally identical — so well
    // over half of the 24 hardware lookups must be served by the cache.
    assert!(hits > 0, "cache never hit (hits={hits}, misses={misses})");
    assert!(hits > misses, "hit rate should exceed 50% (hits={hits}, misses={misses})");
}

#[test]
fn cache_counters_are_identical_at_every_job_count() {
    // From a cleared memo, every unique (kernel structure, HLS config)
    // key misses exactly once at any worker count: a worker that finds
    // the key in flight waits for it and counts a hit.
    let _guard = compile_lock();
    let mut deltas = Vec::new();
    for jobs in [1, 2, 4] {
        everest::hls::cache::global().clear();
        let before = everest_telemetry::metrics().snapshot();
        Sdk::builder().jobs(jobs).build().compile(SRC).unwrap();
        let after = everest_telemetry::metrics().snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        deltas.push((delta("dse.hls.cache.hit"), delta("dse.hls.cache.miss")));
    }
    let (hits, misses) = deltas[0];
    assert!(hits > 0 && misses > 0, "jobs=1 must go through the memo: {deltas:?}");
    assert!(deltas.iter().all(|d| *d == deltas[0]), "hit/miss deltas vary with jobs: {deltas:?}");
}

#[test]
fn empty_knob_dimension_is_rejected_before_enumeration() {
    let mut sdk = Sdk::builder().build();
    sdk.space.banks.clear();
    let err = sdk.compile(SRC).unwrap_err();
    let everest::SdkError::DesignSpace(msg) = err else {
        panic!("expected a design-space error, got {err}");
    };
    assert!(msg.contains("banks"), "error should name the empty knob: {msg}");
}

fn everestc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_everestc"))
}

fn fixture() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/kernels.edsl")
}

#[test]
fn cli_help_documents_the_jobs_flag() {
    let output = everestc().arg("--help").output().expect("everestc runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("--jobs"), "help must document --jobs:\n{stdout}");
}

#[test]
fn cli_variant_table_is_identical_across_job_counts() {
    let mut outputs = Vec::new();
    for jobs in ["1", "8"] {
        let output = everestc()
            .arg("--jobs")
            .arg(jobs)
            .arg("variants")
            .arg(fixture())
            .output()
            .expect("everestc runs");
        assert!(output.status.success(), "variants --jobs {jobs} failed");
        outputs.push(String::from_utf8_lossy(&output.stdout).into_owned());
    }
    assert_eq!(outputs[0], outputs[1], "--jobs 1 and --jobs 8 printed different tables");
}

#[test]
fn cli_rejects_bad_jobs_values() {
    for bad in [&["--jobs"][..], &["--jobs", "0"][..], &["--jobs", "many"][..]] {
        let output =
            everestc().args(bad).arg("variants").arg(fixture()).output().expect("everestc runs");
        assert_eq!(output.status.code(), Some(2), "{bad:?} should be rejected");
        assert!(String::from_utf8_lossy(&output.stderr).contains("--jobs requires"));
    }
}
