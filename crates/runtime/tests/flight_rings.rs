//! The flight recorder stays bounded under a pool that spawns fresh
//! threads per batch: every `run_batch` at `jobs > 1` folds its lanes on
//! new scoped threads, each of which records into a ring. Exited
//! threads' rings retire into a FIFO of at most `RETIRED_RINGS` and are
//! then reused, so 200 batches must not leave 400 rings behind. Lives in
//! its own test binary because it counts the process-wide rings.

use everest_platform::System;
use everest_runtime::offload::{FaultPlan, OffloadCall, OffloadManager};
use everest_telemetry::RETIRED_RINGS;

#[test]
fn pooled_batches_leave_a_bounded_number_of_rings() {
    let calls: Vec<OffloadCall> = (0..32)
        .map(|i| OffloadCall { kernel: format!("k{i}"), payload_bytes: 4 << 10, work_us: 100.0 })
        .collect();
    let plan = FaultPlan::from_profile("flaky", 3).unwrap();
    let mut mgr = OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
    for _ in 0..200 {
        mgr.run_batch(&calls, 2).unwrap();
    }
    let dump = everest_telemetry::flight().dump("rings");
    // Live threads here: this one and at most the last batches' two pool
    // workers whose exit has not finished yet.
    let bound = RETIRED_RINGS + 8;
    assert!(dump.threads <= bound, "{} rings dumped, bound {bound}", dump.threads);
    let capacity = everest_telemetry::flight().capacity();
    assert!(dump.events.len() <= bound * capacity, "{} events dumped", dump.events.len());
    // The newest batch's fold events survive.
    assert!(dump.events.iter().any(|e| e.name == "offload.call"));
}
