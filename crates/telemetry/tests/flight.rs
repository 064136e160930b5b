//! Behavioral tests for the global flight recorder. The recorder is a
//! process-wide singleton, so every test serializes on one lock and
//! tags its events with test-unique names.

use everest_telemetry::recorder::{BURST_SLOTS, DEFAULT_RING_CAPACITY};
use everest_telemetry::EventKind;

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_recorder(capacity: usize, f: impl FnOnce(&everest_telemetry::FlightRecorder)) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let flight = everest_telemetry::flight();
    flight.set_capacity(capacity);
    flight.reset();
    f(flight);
    flight.set_capacity(DEFAULT_RING_CAPACITY);
    flight.reset();
}

#[test]
fn events_dump_in_time_order_with_payloads() {
    with_recorder(64, |flight| {
        flight.record(EventKind::SpanBegin, "t1.call", 0.0);
        flight.record(EventKind::Observe, "t1.lat", 42.5);
        flight.marker("t1.done", 3.0);
        let dump = flight.dump("test");
        let mine: Vec<_> = dump.events.iter().filter(|e| e.name.starts_with("t1.")).collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].kind, EventKind::SpanBegin);
        assert_eq!(mine[1].value, 42.5);
        assert_eq!(mine[2].kind, EventKind::Marker);
        assert!(mine.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(dump.reason, "test");
        assert_eq!(dump.dropped, 0);
    });
}

#[test]
fn ring_overwrites_oldest_and_accounts_drops() {
    with_recorder(8, |flight| {
        for i in 0..20 {
            flight.marker("t2.ev", i as f64);
        }
        let dump = flight.dump("test");
        let mine: Vec<_> = dump.events.iter().filter(|e| e.name == "t2.ev").collect();
        assert_eq!(mine.len(), 8, "ring keeps exactly its capacity");
        let values: Vec<f64> = mine.iter().map(|e| e.value).collect();
        assert_eq!(values, (12..20).map(|i| i as f64).collect::<Vec<_>>(), "newest survive");
        assert_eq!(dump.dropped, 12);
    });
}

#[test]
fn zero_capacity_disables_recording() {
    with_recorder(0, |flight| {
        flight.marker("t3.ev", 1.0);
        flight.alarm("t3.alarm", 2.0);
        let dump = flight.dump("test");
        assert!(dump.events.iter().all(|e| !e.name.starts_with("t3.")));
        assert!(flight.take_alarm_dump().is_none());
    });
}

#[test]
fn alarm_captures_a_dump_of_preceding_events() {
    with_recorder(64, |flight| {
        flight.marker("t4.before", 1.0);
        flight.alarm("t4.alarm", 99.0);
        let dump = flight.take_alarm_dump().expect("alarm captured a dump");
        assert_eq!(dump.reason, "t4.alarm");
        assert!(dump.events.iter().any(|e| e.name == "t4.before"));
        let alarm = dump.events.iter().find(|e| e.name == "t4.alarm").unwrap();
        assert_eq!(alarm.kind, EventKind::Alarm);
        assert_eq!(alarm.value, 99.0);
        assert!(flight.take_alarm_dump().is_none(), "take drains");
    });
}

#[test]
fn alarm_storm_retains_the_first_dump() {
    with_recorder(64, |flight| {
        flight.marker("t7.root_cause", 1.0);
        flight.alarm("t7.first", 1.0);
        // Cascade: follow-up alarms record events but must not replace
        // the pending dump (nor pay for re-merging the rings).
        for _ in 0..10 {
            flight.alarm("t7.cascade", 2.0);
        }
        let dump = flight.take_alarm_dump().expect("first alarm captured");
        assert_eq!(dump.reason, "t7.first", "earliest un-taken alarm wins");
        assert!(dump.events.iter().any(|e| e.name == "t7.root_cause"));
        assert!(
            !dump.events.iter().any(|e| e.name == "t7.cascade"),
            "the retained dump predates the cascade"
        );
        // Once drained, the next alarm captures again.
        flight.alarm("t7.later", 3.0);
        assert_eq!(flight.take_alarm_dump().expect("re-armed").reason, "t7.later");
    });
}

#[test]
fn threads_merge_into_one_sorted_dump() {
    with_recorder(64, |flight| {
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..10 {
                        everest_telemetry::flight().marker("t5.ev", (t * 100 + i) as f64);
                    }
                });
            }
        });
        let dump = flight.dump("test");
        let mine: Vec<_> = dump.events.iter().filter(|e| e.name == "t5.ev").collect();
        assert_eq!(mine.len(), 40);
        assert!(mine.windows(2).all(|w| w[0].ts_us <= w[1].ts_us), "time-ordered");
        let tids: std::collections::HashSet<u32> = mine.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "each thread kept its own tid");
    });
}

#[test]
fn dump_serializes_to_json() {
    with_recorder(16, |flight| {
        flight.record(EventKind::CounterAdd, "t6.count", 2.0);
        let json = flight.dump("json-test").to_json();
        assert!(json.contains("\"reason\": \"json-test\""));
        assert!(json.contains("\"kind\": \"counter_add\""));
        assert!(json.contains("\"name\": \"t6.count\""));
    });
}

#[test]
fn burst_keeps_order_and_shares_one_timestamp() {
    with_recorder(64, |flight| {
        {
            let mut burst = flight.burst();
            burst.record(EventKind::SpanBegin, "t8.call", 0.0);
            burst.marker("t8.attempt", 1.0);
            burst.record(EventKind::SpanEnd, "t8.call", 2.0);
        }
        let dump = flight.dump("test");
        let mine: Vec<_> = dump.events.iter().filter(|e| e.name.starts_with("t8.")).collect();
        let kinds: Vec<EventKind> = mine.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::SpanBegin, EventKind::Marker, EventKind::SpanEnd]);
        let values: Vec<f64> = mine.iter().map(|e| e.value).collect();
        assert_eq!(values, [0.0, 1.0, 2.0], "events reach the ring in burst order");
        assert!(mine.iter().all(|e| e.ts_us == mine[0].ts_us), "one shared timestamp");
    });
}

#[test]
fn burst_flushes_early_past_its_array() {
    with_recorder(64, |flight| {
        let count = |flight: &everest_telemetry::FlightRecorder| {
            flight.dump("test").events.iter().filter(|e| e.name == "t9.ev").count()
        };
        let mut burst = flight.burst();
        for i in 0..BURST_SLOTS {
            burst.marker("t9.ev", i as f64);
        }
        assert_eq!(count(flight), 0, "a full array still waits for the drop");
        burst.marker("t9.ev", BURST_SLOTS as f64);
        assert_eq!(count(flight), BURST_SLOTS, "the next event flushes the full array");
        drop(burst);
        let dump = flight.dump("test");
        let values: Vec<f64> =
            dump.events.iter().filter(|e| e.name == "t9.ev").map(|e| e.value).collect();
        assert_eq!(values, (0..=BURST_SLOTS).map(|i| i as f64).collect::<Vec<_>>());
    });
}

#[test]
fn burst_is_a_no_op_at_zero_capacity() {
    with_recorder(0, |flight| {
        {
            let mut burst = flight.burst();
            for i in 0..3 * BURST_SLOTS {
                burst.marker("t10.ev", i as f64);
            }
        }
        assert!(flight.dump("test").events.iter().all(|e| e.name != "t10.ev"));
    });
}
