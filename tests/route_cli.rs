//! End-to-end check of `everestc route`: the PTDR serving subcommand
//! must run a cold and a warm pass, report throughput and cache
//! effectiveness, respect `--queries`/`--samples`, and reject bad
//! counts.

use std::process::Command;

fn everestc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_everestc"))
}

#[test]
fn route_serves_cold_and_warm_passes_with_cache_stats() {
    let out = everestc()
        .args(["route", "--queries", "48", "--samples", "200", "--jobs", "4"])
        .output()
        .expect("everestc runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ptdr service:"), "missing header: {stdout}");
    assert!(stdout.contains("48 queries x 200 samples"), "flags ignored: {stdout}");
    assert!(stdout.contains("jobs=4"), "jobs ignored: {stdout}");
    assert!(stdout.contains("cold:"), "missing cold pass: {stdout}");
    assert!(stdout.contains("warm:"), "missing warm pass: {stdout}");
    assert!(stdout.contains("queries/s"), "missing throughput: {stdout}");
    // The warm pass replays the identical stream against a populated
    // cache: every lookup hits.
    let warm = stdout.lines().find(|l| l.starts_with("warm:")).expect("warm line");
    assert!(warm.contains("(100% hit)"), "warm pass must be all hits: {warm}");
    assert!(warm.contains("/0m"), "warm pass must not miss: {warm}");
}

/// The `(hits, misses)` a `cold:`/`warm:` line reports as `cache {h}h/{m}m`.
fn cache_counts(line: &str) -> (u64, u64) {
    let field = line.split("cache ").nth(1).and_then(|rest| rest.split_whitespace().next());
    let (hits, misses) = field.and_then(|f| f.split_once('/')).expect("cache field");
    let parse = |s: &str, unit: char| s.trim_end_matches(unit).parse::<u64>().expect("count");
    (parse(hits, 'h'), parse(misses, 'm'))
}

#[test]
fn route_jobs_one_serves_through_the_cache() {
    // 80 queries cycle 16 routes x 4 departures, so the cold pass
    // repeats at least 16 keys even if two routes coincide.
    let out = everestc()
        .args(["route", "--queries", "80", "--samples", "100", "--jobs", "1"])
        .output()
        .expect("everestc runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = |phase: &str| stdout.lines().find(|l| l.starts_with(phase)).expect("phase line");
    let (hits, misses) = cache_counts(line("cold:"));
    assert_eq!(hits + misses, 80, "every cold lookup counted: {stdout}");
    assert!(hits >= 16, "jobs=1 must answer repeated keys from the cache: {stdout}");
    assert_eq!(cache_counts(line("warm:")), (80, 0), "warm pass must be all hits: {stdout}");
}

#[test]
fn route_rejects_bad_counts() {
    for bad in [&["route", "--queries", "0"][..], &["route", "--samples", "nope"]] {
        let out = everestc().args(bad).output().expect("everestc runs");
        assert!(!out.status.success(), "{bad:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("positive count"), "unexpected error: {stderr}");
    }
    // Stray positional arguments fall through to usage.
    let out = everestc().args(["route", "extra"]).output().expect("everestc runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
