//! Bounded per-query event log: a ring buffer of structured decision
//! events (`agent.predicted`, `storage.partition_pruned`, …).
//!
//! The ring keeps the most recent events; per-name totals are kept
//! separately so "did the agent ever fall back?" stays answerable after
//! eviction. Names and field keys stay the caller's `&'static str`s
//! until a snapshot turns the retained events into [`EventSnapshot`]s.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;
use serde::Serialize;

use crate::trace::TraceContext;

/// Maximum events retained in the ring buffer.
/// Ring capacity: pushing beyond this many retained events evicts the
/// oldest (per-name totals and the sink's dropped-events counter keep
/// the full story).
pub const MAX_EVENTS: usize = 4096;

/// A structured payload value attached to an event field.
///
/// A string built from a static label (`"exact".into()`) borrows it, so
/// building the field allocates nothing whether or not the sink records;
/// only a runtime string (`String`) is owned.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(Cow<'static, str>),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        Self::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        Self::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        Self::Str(Cow::Owned(v))
    }
}

/// One retained event, its names still the caller's literals.
#[derive(Debug)]
struct Event {
    seq: u64,
    query: Option<u64>,
    ctx: TraceContext,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    fn snapshot(&self) -> EventSnapshot {
        EventSnapshot {
            seq: self.seq,
            query: self.query,
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            name: self.name.to_string(),
            fields: self
                .fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct EventState {
    ring: VecDeque<Event>,
    seq: u64,
    evicted: u64,
    totals_by_name: HashMap<&'static str, u64>,
}

/// Event backend owned by a [`crate::Recorder`].
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    state: Mutex<EventState>,
}

impl EventLog {
    /// Appends an event; returns `true` when an older event was evicted
    /// to make room (the sink surfaces that as the
    /// `telemetry.events_dropped` counter).
    pub(crate) fn push(
        &self,
        name: &'static str,
        query: Option<u64>,
        ctx: TraceContext,
        fields: &[(&'static str, FieldValue)],
    ) -> bool {
        let mut state = self.state.lock();
        let seq = state.seq;
        state.seq += 1;
        *state.totals_by_name.entry(name).or_default() += 1;
        // A full ring hands the evicted event's field buffer to the new
        // one.
        let evicted = if state.ring.len() == MAX_EVENTS {
            state.evicted += 1;
            state.ring.pop_front()
        } else {
            None
        };
        let evicting = evicted.is_some();
        let mut buf = evicted.map(|e| e.fields).unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(fields);
        state.ring.push_back(Event {
            seq,
            query,
            ctx,
            name,
            fields: buf,
        });
        evicting
    }

    pub(crate) fn snapshot(&self) -> EventLogSnapshot {
        let state = self.state.lock();
        let mut totals: Vec<(String, u64)> = state
            .totals_by_name
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect();
        totals.sort_by(|a, b| a.0.cmp(&b.0));
        EventLogSnapshot {
            events: state.ring.iter().map(Event::snapshot).collect(),
            evicted: state.evicted,
            totals_by_name: totals,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventSnapshot {
    /// Monotonic sequence number (survives ring eviction).
    pub seq: u64,
    /// Query id active when the event fired, if any.
    pub query: Option<u64>,
    /// Trace of the innermost open span when the event fired (0 = none).
    pub trace_id: u64,
    /// Span the event fired inside (0 = none).
    pub span_id: u64,
    pub name: String,
    pub fields: Vec<(String, FieldValue)>,
}

/// The retained tail of the event stream plus per-name totals.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventLogSnapshot {
    pub events: Vec<EventSnapshot>,
    /// Events dropped from the front of the ring.
    pub evicted: u64,
    /// Lifetime event counts per name, sorted by name.
    pub totals_by_name: Vec<(String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_but_totals_survive() {
        let log = EventLog::default();
        let mut evictions = 0u64;
        for _ in 0..(MAX_EVENTS + 5) {
            if log.push("e", None, TraceContext::NONE, &[]) {
                evictions += 1;
            }
        }
        let snap = log.snapshot();
        assert_eq!(snap.events.len(), MAX_EVENTS);
        assert_eq!(snap.evicted, 5);
        assert_eq!(evictions, 5);
        assert_eq!(snap.totals_by_name[0].1, (MAX_EVENTS + 5) as u64);
        assert_eq!(snap.events[0].seq, 5);
    }

    #[test]
    fn fields_preserve_order_and_types() {
        let log = EventLog::default();
        log.push(
            "agent.predicted",
            Some(3),
            TraceContext::NONE,
            &[
                ("est_error", 0.01.into()),
                ("quantum", 2u64.into()),
                ("reason", "below_threshold".into()),
            ],
        );
        let snap = log.snapshot();
        let e = &snap.events[0];
        assert_eq!(e.query, Some(3));
        assert_eq!(e.fields[0].1, FieldValue::F64(0.01));
        assert_eq!(e.fields[1].1, FieldValue::U64(2));
        assert_eq!(e.fields[2].1, FieldValue::Str("below_threshold".into()));
    }
}
