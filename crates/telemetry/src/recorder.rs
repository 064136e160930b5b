//! The always-on flight recorder: a bounded ring of recent structured
//! events per thread, dumpable on demand or when an alarm fires.
//!
//! Full span tracing is either off or on; the flight recorder fills the
//! gap between them. Every thread that records events owns a private
//! fixed-capacity ring buffer (its mutex is touched by no other thread
//! outside of dumps, so the hot path is an uncontended lock — one CAS —
//! plus a slot write). Old events are overwritten in place, bounding
//! both memory and time: the recorder never allocates per event after
//! its ring is created, and setting the capacity to zero reduces
//! [`FlightRecorder::record`] to a single relaxed atomic load. A hot
//! path that records several events in a row opens a [`FlightBurst`]
//! instead: one clock read and one ring lock for all of them.
//!
//! When a thread exits, its ring joins a FIFO of at most
//! [`RETIRED_RINGS`] retired rings, which stay dumpable; past that
//! bound the oldest is cleared and reused by the next new thread, so
//! pools that spawn threads per batch do not grow the recorder.
//!
//! [`FlightRecorder::dump`] merges every thread's ring into one
//! time-ordered [`FlightDump`] — a post-hoc "what just happened" trace.
//! [`FlightRecorder::alarm`] additionally captures a dump automatically
//! so the events *leading up to* a `RuntimeMonitor` alarm survive even
//! if nobody was watching; [`FlightRecorder::take_alarm_dump`] retrieves
//! the most recent one.

use crate::trace::current_tid;
use parking_lot::Mutex;
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Rings of exited threads that stay dumpable. Past this bound the
/// oldest retired ring is cleared and handed to the next new thread, so
/// pools that spawn fresh threads per batch keep memory and dump size
/// bounded.
pub const RETIRED_RINGS: usize = 16;

/// Events a [`FlightBurst`] queues before flushing early.
pub const BURST_SLOTS: usize = 8;

/// What a [`FlightEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span began (value = nesting depth, when known).
    SpanBegin,
    /// A span ended (value = duration in µs).
    SpanEnd,
    /// A counter was bumped (value = delta).
    CounterAdd,
    /// A gauge was set (value = new value).
    GaugeSet,
    /// A histogram observation (value = observed value).
    Observe,
    /// An alarm fired (value = alarm payload, e.g. latency µs).
    Alarm,
    /// A free-form marker (value is event-specific).
    Marker,
}

impl EventKind {
    /// Stable lowercase name used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::CounterAdd => "counter_add",
            EventKind::GaugeSet => "gauge_set",
            EventKind::Observe => "observe",
            EventKind::Alarm => "alarm",
            EventKind::Marker => "marker",
        }
    }
}

/// One recorded event. `name` is `&'static str` by design: recording
/// must not allocate, and every instrumentation site names its events
/// with literals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Microseconds since the recorder epoch (first event process-wide).
    pub ts_us: u64,
    /// Dense id of the recording thread (shared with span records).
    pub tid: u32,
    /// Event kind.
    pub kind: EventKind,
    /// Event name, e.g. `offload.fault`.
    pub name: &'static str,
    /// Kind-specific payload.
    pub value: f64,
}

struct RingBuf {
    slots: Vec<FlightEvent>,
    capacity: usize,
    /// Next overwrite position once full (the oldest slot). Tracked
    /// directly so the hot path never divides.
    head: usize,
    /// Total events ever pushed; `written - slots.len()` were overwritten.
    written: u64,
}

impl RingBuf {
    fn new(capacity: usize) -> RingBuf {
        RingBuf { slots: Vec::with_capacity(capacity), capacity, head: 0, written: 0 }
    }

    /// Empties the ring and sets its capacity, reusing the allocation.
    fn reset(&mut self, capacity: usize) {
        self.slots.clear();
        self.slots.reserve_exact(capacity);
        self.capacity = capacity;
        self.head = 0;
        self.written = 0;
    }

    fn push(&mut self, event: FlightEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        self.written += 1;
    }

    /// Events oldest-first.
    fn ordered(&self) -> Vec<FlightEvent> {
        if self.slots.len() < self.capacity || self.capacity == 0 {
            return self.slots.clone();
        }
        let mut out = Vec::with_capacity(self.capacity);
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
        out
    }
}

type Ring = Mutex<RingBuf>;

/// Every ring the process has handed out. Lock order: this registry
/// before any ring.
struct Rings {
    /// Dumpable rings: live threads' plus up to [`RETIRED_RINGS`]
    /// exited threads'.
    all: Vec<Arc<Ring>>,
    /// Exited threads' rings, oldest first (a subset of `all`).
    retired: VecDeque<Arc<Ring>>,
    /// Cleared rings evicted from `retired`, waiting for a new thread.
    spare: Vec<Arc<Ring>>,
}

static RINGS: Mutex<Rings> =
    Mutex::new(Rings { all: Vec::new(), retired: VecDeque::new(), spare: Vec::new() });

/// Hands the calling thread a ring: a cleared spare when one waits,
/// otherwise a new one.
fn claim_ring(capacity: usize) -> Arc<Ring> {
    let mut rings = RINGS.lock();
    let ring = match rings.spare.pop() {
        Some(ring) => {
            ring.lock().reset(capacity);
            ring
        }
        None => Arc::new(Mutex::new(RingBuf::new(capacity))),
    };
    rings.all.push(Arc::clone(&ring));
    ring
}

/// A thread's claim on its ring. Dropped when the thread exits, which
/// moves the ring to the retired FIFO.
struct ThreadRing {
    ring: Arc<Ring>,
    tid: u32,
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        let mut rings = RINGS.lock();
        rings.retired.push_back(Arc::clone(&self.ring));
        if rings.retired.len() > RETIRED_RINGS {
            let oldest = rings.retired.pop_front().expect("retired is non-empty");
            rings.all.retain(|ring| !Arc::ptr_eq(ring, &oldest));
            oldest.lock().reset(0);
            if rings.spare.len() < RETIRED_RINGS {
                rings.spare.push(oldest);
            }
        }
    }
}

thread_local! {
    static THREAD_RING: OnceCell<ThreadRing> = const { OnceCell::new() };
}

/// The process-wide flight recorder. Use [`crate::flight`] to reach the
/// global instance; constructing more is possible but they would share
/// the per-thread rings, so don't.
pub struct FlightRecorder {
    capacity: AtomicUsize,
    epoch: OnceLock<Instant>,
    last_alarm: Mutex<Option<FlightDump>>,
}

impl FlightRecorder {
    pub(crate) const fn new() -> FlightRecorder {
        FlightRecorder {
            capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
            epoch: OnceLock::new(),
            last_alarm: Mutex::new(None),
        }
    }

    /// Current per-thread ring capacity; 0 means disabled.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Resizes every ring (existing events are dropped) and sets the
    /// capacity for rings created later. `0` disables recording:
    /// [`record`](FlightRecorder::record) becomes one atomic load.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        for ring in RINGS.lock().all.iter() {
            *ring.lock() = RingBuf::new(capacity);
        }
    }

    #[inline]
    fn now_us(&self) -> u64 {
        let epoch = *self.epoch.get_or_init(Instant::now);
        // u64 arithmetic instead of `as_micros` — the u128 division is
        // measurable on the record fast path.
        let elapsed = epoch.elapsed();
        elapsed.as_secs() * 1_000_000 + u64::from(elapsed.subsec_micros())
    }

    /// Records one event into the calling thread's ring: a burst of one.
    /// Allocation-free after the thread's first event; near-free when
    /// disabled.
    #[inline]
    pub fn record(&self, kind: EventKind, name: &'static str, value: f64) {
        self.burst().record(kind, name, value);
    }

    /// Shorthand for a [`EventKind::Marker`] event.
    #[inline]
    pub fn marker(&self, name: &'static str, value: f64) {
        self.record(EventKind::Marker, name, value);
    }

    /// Opens a [`FlightBurst`]: events recorded through it share one
    /// timestamp, taken now, and reach the calling thread's ring in
    /// order under one lock when the burst drops.
    #[inline]
    pub fn burst(&self) -> FlightBurst {
        let capacity = self.capacity();
        let ts_us = if capacity == 0 { 0 } else { self.now_us() };
        FlightBurst { capacity, ts_us, len: 0, queued: [(EventKind::Marker, "", 0.0); BURST_SLOTS] }
    }

    /// Records an [`EventKind::Alarm`] event and, when no alarm dump is
    /// already pending, captures a dump of everything currently in the
    /// rings, retrievable via
    /// [`take_alarm_dump`](FlightRecorder::take_alarm_dump). Retaining
    /// the *first* un-taken dump (rather than replacing it) keeps the
    /// events closest to the root cause and bounds the cost of an alarm
    /// storm: follow-up alarms record one ring event each instead of
    /// re-merging every ring.
    pub fn alarm(&self, name: &'static str, value: f64) {
        self.record(EventKind::Alarm, name, value);
        if self.capacity() == 0 {
            return;
        }
        let mut pending = self.last_alarm.lock();
        if pending.is_none() {
            *pending = Some(self.dump(name));
        }
    }

    /// The dump captured by the most recent [`alarm`](FlightRecorder::alarm),
    /// if any, leaving `None` behind.
    pub fn take_alarm_dump(&self) -> Option<FlightDump> {
        self.last_alarm.lock().take()
    }

    /// Merges every dumpable ring into one time-ordered dump.
    pub fn dump(&self, reason: &str) -> FlightDump {
        let rings = RINGS.lock();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in rings.all.iter() {
            let buf = ring.lock();
            dropped += buf.written.saturating_sub(buf.slots.len() as u64);
            events.extend(buf.ordered());
        }
        let threads = rings.all.len();
        drop(rings);
        events.sort_by_key(|e| (e.ts_us, e.tid));
        FlightDump { reason: reason.to_owned(), threads, dropped, events }
    }

    /// Clears every ring and any retained alarm dump. Thread
    /// registrations survive so live threads keep recording.
    pub fn reset(&self) {
        for ring in RINGS.lock().all.iter() {
            let mut buf = ring.lock();
            let capacity = buf.capacity;
            buf.reset(capacity);
        }
        *self.last_alarm.lock() = None;
    }
}

/// A batch of flight events sharing one timestamp, from
/// [`FlightRecorder::burst`]. Events queue on the stack and reach the
/// calling thread's ring in order under one lock when the burst drops
/// (or earlier, once its fixed array fills), so a hot path that records
/// several events pays for one clock read and one lock. Inert when the
/// recorder's capacity was 0 at [`FlightRecorder::burst`].
pub struct FlightBurst {
    capacity: usize,
    ts_us: u64,
    len: usize,
    queued: [(EventKind, &'static str, f64); BURST_SLOTS],
}

impl FlightBurst {
    /// Queues one event.
    #[inline]
    pub fn record(&mut self, kind: EventKind, name: &'static str, value: f64) {
        if self.capacity == 0 {
            return;
        }
        if self.len == BURST_SLOTS {
            self.flush();
        }
        self.queued[self.len] = (kind, name, value);
        self.len += 1;
    }

    /// Shorthand for a [`EventKind::Marker`] event.
    #[inline]
    pub fn marker(&mut self, name: &'static str, value: f64) {
        self.record(EventKind::Marker, name, value);
    }

    /// Pushes the queued events into the calling thread's ring,
    /// claiming a ring on the thread's first flush. Events flushed while
    /// the thread is being torn down are dropped.
    fn flush(&mut self) {
        if self.len == 0 {
            return;
        }
        let (capacity, ts_us, queued) = (self.capacity, self.ts_us, &self.queued[..self.len]);
        let _ = THREAD_RING.try_with(|cell| {
            let mine =
                cell.get_or_init(|| ThreadRing { ring: claim_ring(capacity), tid: current_tid() });
            let mut buf = mine.ring.lock();
            for &(kind, name, value) in queued {
                buf.push(FlightEvent { ts_us, tid: mine.tid, kind, name, value });
            }
        });
        self.len = 0;
    }
}

impl Drop for FlightBurst {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A merged, time-ordered copy of every thread's recent events.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Why the dump was taken (alarm name, `"cli"`, ...).
    pub reason: String,
    /// Rings dumped: live threads plus up to [`RETIRED_RINGS`] (16)
    /// exited.
    pub threads: usize,
    /// Events overwritten before the dump (total across threads).
    pub dropped: u64,
    /// Surviving events, ordered by `(ts_us, tid)`.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Serializes the dump as JSON (events as objects with `ts_us`,
    /// `tid`, `kind`, `name`, `value`).
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        fn uint(v: u64) -> Value {
            if v <= i64::MAX as u64 {
                Value::Int(v as i64)
            } else {
                Value::Float(v as f64)
            }
        }
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("ts_us".to_owned(), uint(e.ts_us)),
                    ("tid".to_owned(), Value::Int(e.tid as i64)),
                    ("kind".to_owned(), Value::Str(e.kind.as_str().to_owned())),
                    ("name".to_owned(), Value::Str(e.name.to_owned())),
                    ("value".to_owned(), Value::Float(e.value)),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("reason".to_owned(), Value::Str(self.reason.clone())),
            ("threads".to_owned(), uint(self.threads as u64)),
            ("dropped".to_owned(), uint(self.dropped)),
            ("events".to_owned(), Value::Array(events)),
        ]);
        serde_json::to_string_pretty(&root).expect("value serializes")
    }
}
