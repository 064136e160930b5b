//! Runtime monitors: the bridge between the hardware monitors of the
//! data-protection layer and the autotuner's [`SystemState`].
//!
//! "Hardware monitors will collect the information to make the selection"
//! (paper IV): this module aggregates per-invocation measurements into the
//! dynamic state the selector consumes.

use crate::autotuner::SystemState;
use everest_security::{AutoProtect, ProtectAction, TimingMonitor};
use everest_telemetry::LogHistogram;

/// Aggregated runtime monitor for one kernel.
#[derive(Debug, Clone)]
pub struct RuntimeMonitor {
    timing: TimingMonitor,
    protect: AutoProtect,
    free_luts: u64,
    congestion: f64,
    hardened_mode: bool,
    isolations: usize,
}

impl RuntimeMonitor {
    /// Creates a monitor with the given initially-free fabric.
    pub fn new(free_luts: u64) -> RuntimeMonitor {
        RuntimeMonitor {
            timing: TimingMonitor::new(0.1, 5.0),
            protect: AutoProtect::new(),
            free_luts,
            congestion: 1.0,
            hardened_mode: false,
            isolations: 0,
        }
    }

    /// Records one invocation: observed latency plus monitor alarms from
    /// the data-protection layer. A batch of one.
    pub fn record(&mut self, latency_us: f64, access_alarm: bool, range_alarm: bool) {
        self.record_batch([(latency_us, access_alarm, range_alarm)]);
    }

    /// Records invocations in order, each as `(latency_us, access_alarm,
    /// range_alarm)`. Observation, alarms and escalation run per record
    /// exactly as in [`RuntimeMonitor::record`]; the `runtime.latency_us`
    /// histogram and the `runtime.*` counters accumulate locally and
    /// merge into the registry once, so a batch takes the registry lock
    /// a handful of times instead of per record.
    pub fn record_batch(&mut self, records: impl IntoIterator<Item = (f64, bool, bool)>) {
        let flight = everest_telemetry::flight();
        let mut latency = LogHistogram::new();
        let [mut timing, mut access, mut range, mut hardened, mut isolations] = [0u64; 5];
        for (latency_us, access_alarm, range_alarm) in records {
            latency.observe(latency_us);
            let timing_alarm = self.timing.observe(latency_us);
            // Each alarm also snapshots the flight recorder, so the events
            // *leading up to* the alarm survive for post-hoc inspection
            // (everest_telemetry::flight().take_alarm_dump()).
            if timing_alarm {
                timing += 1;
                flight.alarm("runtime.alarm.timing", latency_us);
            }
            if access_alarm {
                access += 1;
                flight.alarm("runtime.alarm.access", latency_us);
            }
            if range_alarm {
                range += 1;
                flight.alarm("runtime.alarm.range", latency_us);
            }
            match self.protect.step(timing_alarm, access_alarm, range_alarm) {
                ProtectAction::None | ProtectAction::Audit => {}
                ProtectAction::SwitchHardenedVariant => {
                    hardened += 1;
                    self.hardened_mode = true;
                }
                ProtectAction::Isolate => {
                    isolations += 1;
                    self.hardened_mode = true;
                    self.isolations += 1;
                }
            }
        }
        let telemetry = everest_telemetry::metrics();
        telemetry.merge_histogram("runtime.latency_us", &latency);
        for (name, n) in [
            ("runtime.alarm.timing", timing),
            ("runtime.alarm.access", access),
            ("runtime.alarm.range", range),
            ("runtime.hardened_switches", hardened),
            ("runtime.isolations", isolations),
        ] {
            if n > 0 {
                telemetry.counter_add(name, n);
            }
        }
    }

    /// Updates resource availability (fabric reclaimed or consumed).
    pub fn set_free_luts(&mut self, free: u64) {
        self.free_luts = free;
        everest_telemetry::metrics().gauge_set("runtime.free_luts", free as f64);
    }

    /// Updates the observed link congestion factor (≥ 1).
    pub fn set_congestion(&mut self, factor: f64) {
        self.congestion = factor.max(1.0);
        everest_telemetry::metrics().gauge_set("runtime.congestion", self.congestion);
    }

    /// Clears the hardened-mode latch (after an operator all-clear).
    pub fn reset_protection(&mut self) {
        self.hardened_mode = false;
    }

    /// Number of isolate-level escalations so far.
    pub fn isolations(&self) -> usize {
        self.isolations
    }

    /// The [`SystemState`] snapshot the autotuner consumes.
    pub fn system_state(&self) -> SystemState {
        SystemState {
            free_luts: self.free_luts,
            link_congestion: self.congestion,
            require_hardened: self.hardened_mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_history_keeps_default_state() {
        let mut m = RuntimeMonitor::new(100_000);
        for _ in 0..50 {
            m.record(100.0, false, false);
        }
        let s = m.system_state();
        assert!(!s.require_hardened);
        assert_eq!(s.free_luts, 100_000);
    }

    #[test]
    fn access_alarms_latch_hardened_mode() {
        let mut m = RuntimeMonitor::new(100_000);
        for _ in 0..20 {
            m.record(100.0, false, false);
        }
        m.record(100.0, true, false);
        assert!(m.system_state().require_hardened);
        m.reset_protection();
        assert!(!m.system_state().require_hardened);
    }

    #[test]
    fn combined_alarms_escalate_to_isolation() {
        let mut m = RuntimeMonitor::new(100_000);
        for _ in 0..20 {
            m.record(100.0, false, false);
        }
        m.record(100.0, true, true);
        assert_eq!(m.isolations(), 1);
    }

    #[test]
    fn alarms_capture_a_flight_dump() {
        let mut m = RuntimeMonitor::new(100_000);
        for _ in 0..20 {
            m.record(100.0, false, false);
        }
        m.record(100.0, true, false);
        // Other tests in this binary may fire alarms concurrently (the
        // recorder is process-global), so assert on presence and shape
        // rather than on the exact alarm name.
        let dump = everest_telemetry::flight().take_alarm_dump().expect("alarm captured dump");
        assert!(dump.reason.starts_with("runtime.alarm."));
        assert!(dump.events.iter().any(|e| e.kind == everest_telemetry::EventKind::Alarm));
    }

    #[test]
    fn a_batch_matches_the_same_records_one_by_one() {
        let records: Vec<(f64, bool, bool)> = (0..64)
            .map(|i| (100.0 + f64::from(i % 7) * 900.0, i == 30 || i == 41, i == 41 || i == 50))
            .collect();
        let mut one_by_one = RuntimeMonitor::new(1_000);
        for &(latency, access, range) in &records {
            one_by_one.record(latency, access, range);
        }
        let mut batched = RuntimeMonitor::new(1_000);
        batched.record_batch(records.iter().copied());
        assert_eq!(batched.system_state(), one_by_one.system_state());
        assert_eq!(batched.isolations(), one_by_one.isolations());
        assert!(batched.isolations() > 0, "the records escalate");
    }

    #[test]
    fn congestion_clamped_to_one() {
        let mut m = RuntimeMonitor::new(0);
        m.set_congestion(0.2);
        assert_eq!(m.system_state().link_congestion, 1.0);
        m.set_congestion(3.0);
        assert_eq!(m.system_state().link_congestion, 3.0);
    }

    #[test]
    fn fabric_updates_propagate() {
        let mut m = RuntimeMonitor::new(10);
        m.set_free_luts(999);
        assert_eq!(m.system_state().free_luts, 999);
    }
}
