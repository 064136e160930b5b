//! Pins the offload trace byte for byte: four `run_batch(.., 2)` calls
//! over the 8 192 calls of `TaskGraph::random(1, 4, 2048, 400.0)` from a
//! fresh reference-system manager, hashed with FNV-1a 64. The host-side
//! bookkeeping of the fold (span flag, per-rung keys, flight bursts,
//! batched monitor merge) must never change what the trace says.

use everest_platform::System;
use everest_runtime::offload::{FaultPlan, OffloadCall, OffloadManager};
use everest_workflow::TaskGraph;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn trace_hash(profile: &str) -> u64 {
    let graph = TaskGraph::random(1, 4, 2048, 400.0);
    let calls: Vec<OffloadCall> = graph
        .tasks()
        .iter()
        .map(|t| OffloadCall {
            kernel: t.name.clone(),
            payload_bytes: t.output_bytes,
            work_us: t.cost_us,
        })
        .collect();
    assert_eq!(calls.len(), 8_192);
    let plan = FaultPlan::from_profile(profile, 1).unwrap();
    let mut mgr = OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
    for _ in 0..4 {
        mgr.run_batch(&calls, 2).unwrap();
    }
    fnv1a(mgr.trace().as_bytes())
}

#[test]
fn flaky_trace_is_pinned() {
    assert_eq!(trace_hash("flaky"), 0xb4cf_9e0f_b71f_55d2);
}

#[test]
fn lossy_trace_is_pinned() {
    assert_eq!(trace_hash("lossy"), 0x0dd4_4f41_cee8_2e58);
}

#[test]
fn meltdown_trace_is_pinned() {
    assert_eq!(trace_hash("meltdown"), 0x103a_29b0_8d17_9092);
}
