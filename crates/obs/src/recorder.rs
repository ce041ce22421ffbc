//! Flight recorder: per-thread bounded ring buffers of timestamped
//! structured events, drained into timeline exports.
//!
//! Each thread that records gets its own ring, registered once in a
//! process-global list; after registration the hot path touches only the
//! thread's own ring, whose mutex is uncontended except at drain time, so
//! a record is one relaxed load (the armed check), one uncontended lock,
//! and one `VecDeque` push. When the ring is full the oldest event is
//! overwritten and counted in [`Lane::dropped`] — recording never blocks
//! and never grows without bound.
//!
//! Events carry the recording thread's name as their *lane*: walk lanes
//! (`memsim-walk-Hash-0`, ...) each get their own timeline lane in the
//! Chrome-trace export. Successive threads with the same name (for
//! example, the walk lanes of successive groups) append to the same lane
//! in registration order.
//!
//! # Determinism
//!
//! With [`crate::set_deterministic`] on, timestamps are per-ring sequence
//! numbers (renumbered per lane at drain) instead of wall micros, and
//! counter *values* are recorded as zero — the same trade the metrics
//! export makes with span wall times — so two identical runs drain to
//! byte-identical exports.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a recorded event marks on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (Chrome-trace `ph:"B"`).
    SpanBegin,
    /// A span closed (Chrome-trace `ph:"E"`).
    SpanEnd,
    /// A point-in-time marker (Chrome-trace `ph:"i"`).
    Instant,
    /// A counter-track sample (Chrome-trace `ph:"C"`).
    Counter,
}

/// One timestamped event in a ring.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvent {
    /// Microseconds since the recording session started (deterministic
    /// mode: a per-lane sequence number).
    pub ts_us: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name (dotted span name, counter track name, ...).
    pub name: String,
    /// Counter value (zero for non-counter events, and zeroed in
    /// deterministic mode).
    pub value: f64,
}

/// All events recorded under one lane (thread name), in record order.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    /// Lane name: the recording thread's name, or `thread<n>` for
    /// unnamed threads (`n` is the ring registration index).
    pub name: String,
    /// Events in timestamp order.
    pub events: Vec<RecordedEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

/// Default per-thread ring capacity, in events.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

struct RingData {
    events: VecDeque<RecordedEvent>,
    dropped: u64,
    next_seq: u64,
}

struct Ring {
    lane: String,
    data: Mutex<RingData>,
}

impl Ring {
    fn push(&self, capacity: usize, kind: EventKind, name: &str, value: f64, epoch: Instant) {
        let deterministic = crate::deterministic();
        let mut data = self.data.lock().unwrap_or_else(|e| e.into_inner());
        let ts_us = if deterministic {
            let s = data.next_seq;
            data.next_seq += 1;
            s
        } else {
            u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
        };
        if data.events.len() >= capacity.max(1) {
            data.events.pop_front();
            data.dropped += 1;
        }
        data.events.push_back(RecordedEvent {
            ts_us,
            kind,
            name: name.to_string(),
            value: if deterministic { 0.0 } else { value },
        });
    }
}

struct Recorder {
    rings: Vec<Arc<Ring>>,
    epoch: Instant,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static SESSION: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

thread_local! {
    static LOCAL: RefCell<Option<LocalRing>> = const { RefCell::new(None) };
}

struct LocalRing {
    session: u64,
    ring: Arc<Ring>,
    epoch: Instant,
}

/// Is the flight recorder armed? One relaxed load — the hot-path guard.
#[inline]
pub fn recording() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm the recorder with fresh, empty rings of `capacity` events per
/// thread (0 means [`DEFAULT_CAPACITY`]). Any previous recording is
/// discarded.
pub fn start(capacity: usize) {
    let mut rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let cap = if capacity == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity
    };
    CAPACITY.store(cap, Ordering::Relaxed);
    SESSION.fetch_add(1, Ordering::Relaxed);
    *rec = Some(Recorder {
        rings: Vec::new(),
        epoch: Instant::now(),
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm the recorder and return everything recorded, grouped into
/// lanes. Rings from same-named threads are appended in registration
/// order; lanes come out name-sorted. In deterministic mode, timestamps
/// are renumbered 0.. per lane so the result is run-stable.
pub fn stop_and_drain() -> Vec<Lane> {
    ARMED.store(false, Ordering::Relaxed);
    let taken = {
        let mut rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
        rec.take()
    };
    match taken {
        Some(r) => collect(&r.rings, usize::MAX),
        None => Vec::new(),
    }
}

/// A non-destructive copy of the most recent `tail` events of every lane
/// (the post-mortem dump used on panic / SIGUSR1). Recording continues.
pub fn snapshot_tail(tail: usize) -> Vec<Lane> {
    let rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    match rec.as_ref() {
        Some(r) => collect(&r.rings, tail),
        None => Vec::new(),
    }
}

fn collect(rings: &[Arc<Ring>], tail: usize) -> Vec<Lane> {
    let deterministic = crate::deterministic();
    let mut lanes: Vec<Lane> = Vec::new();
    for ring in rings {
        let data = ring.data.lock().unwrap_or_else(|e| e.into_inner());
        let skip = data.events.len().saturating_sub(tail);
        let events = data.events.iter().skip(skip).cloned();
        match lanes.iter_mut().find(|l| l.name == ring.lane) {
            Some(lane) => {
                lane.events.extend(events);
                lane.dropped += data.dropped;
            }
            None => lanes.push(Lane {
                name: ring.lane.clone(),
                events: events.collect(),
                dropped: data.dropped,
            }),
        }
    }
    lanes.sort_by(|a, b| a.name.cmp(&b.name));
    for lane in &mut lanes {
        if deterministic {
            for (i, ev) in lane.events.iter_mut().enumerate() {
                ev.ts_us = i as u64;
            }
        } else {
            lane.events.sort_by_key(|e| e.ts_us);
        }
    }
    lanes
}

fn with_ring(f: impl FnOnce(&Ring, usize, Instant)) {
    let session = SESSION.load(Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        let stale = match local.as_ref() {
            Some(lr) => lr.session != session,
            None => true,
        };
        if stale {
            let mut rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
            let Some(r) = rec.as_mut() else {
                return; // disarmed between the guard check and here
            };
            let lane = match std::thread::current().name() {
                Some(n) => n.to_string(),
                None => format!("thread{}", r.rings.len()),
            };
            let ring = Arc::new(Ring {
                lane,
                data: Mutex::new(RingData {
                    events: VecDeque::new(),
                    dropped: 0,
                    next_seq: 0,
                }),
            });
            r.rings.push(Arc::clone(&ring));
            *local = Some(LocalRing {
                session,
                ring,
                epoch: r.epoch,
            });
        }
        if let Some(lr) = local.as_ref() {
            f(&lr.ring, CAPACITY.load(Ordering::Relaxed), lr.epoch);
        }
    });
}

#[inline]
fn record(kind: EventKind, name: &str, value: f64) {
    if !recording() {
        return;
    }
    with_ring(|ring, cap, epoch| ring.push(cap, kind, name, value, epoch));
}

/// Record a span-begin event on the calling thread's lane.
#[inline]
pub fn span_begin(name: &str) {
    record(EventKind::SpanBegin, name, 0.0);
}

/// Record a span-end event on the calling thread's lane.
#[inline]
pub fn span_end(name: &str) {
    record(EventKind::SpanEnd, name, 0.0);
}

/// Record a point-in-time marker on the calling thread's lane.
#[inline]
pub fn instant(name: &str) {
    record(EventKind::Instant, name, 0.0);
}

/// Record a counter-track sample on the calling thread's lane. The value
/// is recorded as zero in deterministic mode (see module docs).
#[inline]
pub fn counter(name: &str, value: f64) {
    record(EventKind::Counter, name, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_recording_is_a_no_op() {
        let _lock = crate::test_lock();
        assert!(!recording());
        instant("ghost");
        counter("ghost", 1.0);
        assert!(stop_and_drain().is_empty());
    }

    #[test]
    fn ring_wraps_at_capacity_and_counts_drops() {
        let _lock = crate::test_lock();
        start(4);
        for i in 0..10 {
            counter("c", i as f64);
        }
        let lanes = stop_and_drain();
        assert_eq!(lanes.len(), 1);
        let lane = &lanes[0];
        assert_eq!(lane.events.len(), 4);
        assert_eq!(lane.dropped, 6);
        // The survivors are the newest four samples.
        let values: Vec<f64> = lane.events.iter().map(|e| e.value).collect();
        assert_eq!(values, [6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn deterministic_mode_sequences_timestamps_and_zeroes_values() {
        let _lock = crate::test_lock();
        crate::set_deterministic(true);
        start(16);
        span_begin("a");
        counter("q", 42.0);
        span_end("a");
        let lanes = stop_and_drain();
        crate::set_deterministic(false);
        assert_eq!(lanes.len(), 1);
        let ts: Vec<u64> = lanes[0].events.iter().map(|e| e.ts_us).collect();
        assert_eq!(ts, [0, 1, 2]);
        assert_eq!(lanes[0].events[1].value, 0.0);
    }

    #[test]
    fn named_threads_become_lanes_and_sequential_same_name_threads_merge() {
        let _lock = crate::test_lock();
        crate::set_deterministic(true);
        start(64);
        for round in 0..2 {
            std::thread::Builder::new()
                .name("rec-worker".into())
                .spawn(move || {
                    instant(&format!("round{round}"));
                })
                .unwrap()
                .join()
                .unwrap();
        }
        instant("from-main");
        let mut lanes = stop_and_drain();
        crate::set_deterministic(false);
        // One lane for the repeated worker name, one for this thread.
        let worker = lanes
            .iter_mut()
            .find(|l| l.name == "rec-worker")
            .expect("worker lane");
        let names: Vec<&str> = worker.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["round0", "round1"]);
        assert_eq!(
            worker.events.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            [0, 1]
        );
    }

    #[test]
    fn snapshot_tail_keeps_recording_and_limits_events() {
        let _lock = crate::test_lock();
        start(64);
        for i in 0..8 {
            counter("c", i as f64);
        }
        let snap = snapshot_tail(3);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].events.len(), 3);
        assert!(recording());
        counter("c", 8.0);
        let lanes = stop_and_drain();
        assert_eq!(lanes[0].events.len(), 9);
    }

    #[test]
    fn restart_discards_the_previous_session() {
        let _lock = crate::test_lock();
        start(8);
        instant("old");
        start(8);
        instant("new");
        let lanes = stop_and_drain();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].events.len(), 1);
        assert_eq!(lanes[0].events[0].name, "new");
    }
}
