//! The always-on flight recorder: a fixed-size ring buffer of compact,
//! timestamped lifecycle events (enqueue, dispatch, retry, preempt,
//! backend state flips, ...) that both servers write on every job,
//! whether or not anyone is watching.
//!
//! The recorder is the first tier of the observability stack (see
//! `docs/OBSERVABILITY.md`): it answers "what happened in the last few
//! thousand decisions" after the fact, from a `dump` request or a
//! panic/watchdog hook, without requiring a trace id up front. Records
//! are deliberately tiny — a sequence number, a microsecond offset from
//! the recorder's epoch, an event kind, an optional job cache key, an
//! optional backend index, and a static outcome label — so recording is
//! one short mutex hold and no allocation.
//!
//! Capacity 0 disables the recorder entirely; `record` then returns
//! before taking the lock. The cost with the recorder on is a fixed
//! number of events per job, which capsule-serve's e2e tests pin.

use std::sync::Mutex;
use std::time::Instant;

use crate::output::Json;

/// What happened. One variant per decision point the servers record;
/// the wire spelling ([`FlightKind::as_str`]) is part of the
/// `capsule-dump/1` schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A job was accepted and queued.
    Enqueue,
    /// A worker picked a job up off the queue.
    Dequeue,
    /// A job reached a terminal outcome (see the record's `outcome`).
    Complete,
    /// A `run` was answered straight from the result cache.
    CacheHit,
    /// A request was refused (queue full, pending cap, bad resume).
    Deny,
    /// The fleet re-dispatched a job after a backend fault.
    Retry,
    /// A job was preempted (checkpointed and parked).
    Preempt,
    /// A job resumed from a checkpoint (includes fleet migration).
    Resume,
    /// The fleet handed a job to a backend.
    Dispatch,
    /// A backend transitioned dead → alive.
    BackendUp,
    /// A backend transitioned alive → dead.
    BackendDown,
}

impl FlightKind {
    /// The `capsule-dump/1` spelling of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Enqueue => "enqueue",
            FlightKind::Dequeue => "dequeue",
            FlightKind::Complete => "complete",
            FlightKind::CacheHit => "cache-hit",
            FlightKind::Deny => "deny",
            FlightKind::Retry => "retry",
            FlightKind::Preempt => "preempt",
            FlightKind::Resume => "resume",
            FlightKind::Dispatch => "dispatch",
            FlightKind::BackendUp => "backend-up",
            FlightKind::BackendDown => "backend-down",
        }
    }
}

/// One recorded event. `key` is the job's canonical cache key (the same
/// 64-bit FNV the `run` response reports as hex), `backend` the fleet's
/// backend index, `outcome` a static label ("" when the kind needs
/// none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number, from 0, never reused. `seq` gaps in a
    /// snapshot are events the ring has already overwritten.
    pub seq: u64,
    /// Microseconds since the recorder's epoch (its creation).
    pub at_us: u64,
    /// What happened.
    pub kind: FlightKind,
    /// The job's cache key, when the event concerns a job.
    pub key: Option<u64>,
    /// The backend index, when the event concerns a backend.
    pub backend: Option<u32>,
    /// Static outcome/detail label ("" for none).
    pub outcome: &'static str,
}

impl FlightEvent {
    /// Renders the event as its `capsule-dump/1` object.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.push("seq", self.seq)
            .push("at_us", self.at_us)
            .push("kind", self.kind.as_str())
            .push("cache_key", self.key.map_or(Json::Null, |k| Json::Str(format!("{k:016x}"))))
            .push("backend", self.backend.map_or(Json::Null, |b| Json::UInt(b as u64)));
        if !self.outcome.is_empty() {
            o.push("outcome", self.outcome);
        }
        o
    }
}

#[derive(Debug)]
struct Ring {
    buf: Vec<FlightEvent>,
    /// Next overwrite position once the buffer is full.
    next: usize,
    /// Total events ever recorded.
    seq: u64,
}

/// A point-in-time copy of the ring, oldest event first.
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// The recorder's capacity.
    pub capacity: usize,
    /// Total events recorded over the recorder's lifetime.
    pub recorded: u64,
    /// Retained events in sequence order.
    pub events: Vec<FlightEvent>,
}

impl FlightSnapshot {
    /// Events that have been overwritten by the ring.
    pub fn overwritten(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// Renders the snapshot as its `capsule-dump/1` object.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.push("capacity", self.capacity as u64)
            .push("recorded", self.recorded)
            .push("overwritten", self.overwritten())
            .push("events", Json::Array(self.events.iter().map(FlightEvent::to_json).collect()));
        o
    }
}

/// The recorder itself: a mutex around a fixed ring. Writers pay one
/// short uncontended lock per event; with capacity 0 they pay a single
/// branch.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    cap: usize,
    inner: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` events (0 disables it).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            cap,
            inner: Mutex::new(Ring { buf: Vec::new(), next: 0, seq: 0 }),
        }
    }

    /// Whether events are being retained at all.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events recorded so far (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        self.lock().seq
    }

    /// Records one event, timestamped "now". A no-op (before the lock)
    /// when the recorder is disabled.
    pub fn record(
        &self,
        kind: FlightKind,
        key: Option<u64>,
        backend: Option<u32>,
        outcome: &'static str,
    ) {
        if self.cap == 0 {
            return;
        }
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let mut ring = self.lock();
        let event = FlightEvent { seq: ring.seq, at_us, kind, key, backend, outcome };
        ring.seq += 1;
        if ring.buf.len() < self.cap {
            ring.buf.push(event);
        } else {
            let at = ring.next;
            ring.buf[at] = event;
            ring.next = (at + 1) % self.cap;
        }
    }

    /// Copies the retained events out, oldest first.
    pub fn snapshot(&self) -> FlightSnapshot {
        if self.cap == 0 {
            return FlightSnapshot { capacity: 0, recorded: 0, events: Vec::new() };
        }
        let ring = self.lock();
        let mut events = Vec::with_capacity(ring.buf.len());
        if ring.buf.len() < self.cap {
            events.extend_from_slice(&ring.buf);
        } else {
            events.extend_from_slice(&ring.buf[ring.next..]);
            events.extend_from_slice(&ring.buf[..ring.next]);
        }
        FlightSnapshot { capacity: self.cap, recorded: ring.seq, events }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_the_newest_events_in_seq_order() {
        let r = FlightRecorder::new(3);
        assert!(r.enabled());
        for i in 0..5u64 {
            let kind = if i % 2 == 0 { FlightKind::Enqueue } else { FlightKind::Dequeue };
            r.record(kind, Some(i), None, "");
        }
        let snap = r.snapshot();
        assert_eq!(snap.capacity, 3);
        assert_eq!(snap.recorded, 5);
        assert_eq!(snap.overwritten(), 2);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let keys: Vec<Option<u64>> = snap.events.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![Some(2), Some(3), Some(4)]);
        // Timestamps are monotone within a snapshot.
        assert!(snap.events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn a_partially_filled_ring_snapshots_without_rotation() {
        let r = FlightRecorder::new(8);
        r.record(FlightKind::Enqueue, Some(7), None, "");
        r.record(FlightKind::Complete, Some(7), None, "completed");
        let snap = r.snapshot();
        assert_eq!(snap.recorded, 2);
        assert_eq!(snap.overwritten(), 0);
        assert_eq!(snap.events[0].kind, FlightKind::Enqueue);
        assert_eq!(snap.events[1].outcome, "completed");
    }

    #[test]
    fn capacity_zero_disables_recording() {
        let r = FlightRecorder::new(0);
        assert!(!r.enabled());
        r.record(FlightKind::Enqueue, None, None, "");
        assert_eq!(r.recorded(), 0);
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(
            snap.to_json().to_string_compact(),
            r#"{"capacity":0,"recorded":0,"overwritten":0,"events":[]}"#
        );
    }

    #[test]
    fn events_render_their_dump_schema() {
        let e = FlightEvent {
            seq: 9,
            at_us: 120,
            kind: FlightKind::Retry,
            key: Some(0xb517_4289_4a5f_f828),
            backend: Some(1),
            outcome: "backend-error",
        };
        assert_eq!(
            e.to_json().to_string_compact(),
            r#"{"seq":9,"at_us":120,"kind":"retry","cache_key":"b51742894a5ff828","backend":1,"outcome":"backend-error"}"#
        );
        // No outcome → the field is omitted; no key/backend → null.
        let bare = FlightEvent {
            seq: 0,
            at_us: 1,
            kind: FlightKind::Enqueue,
            key: None,
            backend: None,
            outcome: "",
        };
        assert_eq!(
            bare.to_json().to_string_compact(),
            r#"{"seq":0,"at_us":1,"kind":"enqueue","cache_key":null,"backend":null}"#
        );
    }

    #[test]
    fn all_kinds_have_distinct_wire_spellings() {
        let kinds = [
            FlightKind::Enqueue,
            FlightKind::Dequeue,
            FlightKind::Complete,
            FlightKind::CacheHit,
            FlightKind::Deny,
            FlightKind::Retry,
            FlightKind::Preempt,
            FlightKind::Resume,
            FlightKind::Dispatch,
            FlightKind::BackendUp,
            FlightKind::BackendDown,
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
