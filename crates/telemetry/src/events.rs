//! Structured event tracing: a bounded ring of recent events plus a span
//! guard that records durations into a histogram on drop.
//!
//! Events are for low-frequency, post-mortem-worthy moments (an incident
//! fired, a spec generation published) — not per-sample noise. The ring
//! keeps the most recent [`DEFAULT_EVENT_CAPACITY`] entries and drops the
//! oldest beyond that, so a long run cannot grow memory without bound.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::sync::MutexExt;

/// Default number of events retained by the ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the owning registry was created.
    pub at_us: u64,
    /// Short machine-readable kind, e.g. `"incident"` or `"spec_refresh"`.
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// Bounded ring buffer of recent events.
#[derive(Debug)]
pub(crate) struct EventRing {
    inner: Mutex<RingState>,
}

#[derive(Debug)]
struct RingState {
    buf: VecDeque<Event>,
    capacity: usize,
    /// Total events ever pushed, including ones the ring has dropped.
    total: u64,
}

impl EventRing {
    pub(crate) fn new(capacity: usize) -> EventRing {
        EventRing {
            inner: Mutex::new(RingState {
                buf: VecDeque::with_capacity(capacity.min(64)),
                capacity: capacity.max(1),
                total: 0,
            }),
        }
    }

    pub(crate) fn push(&self, event: Event) {
        let mut state = self.inner.locked();
        if state.buf.len() == state.capacity {
            state.buf.pop_front();
        }
        state.buf.push_back(event);
        state.total += 1;
    }

    /// Snapshot of retained events, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<Event> {
        self.inner.locked().buf.iter().cloned().collect()
    }

    /// Total events ever recorded (including evicted ones).
    pub(crate) fn total(&self) -> u64 {
        self.inner.locked().total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &str, n: u64) -> Event {
        Event {
            at_us: n,
            kind: kind.to_string(),
            detail: format!("event {n}"),
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(ev("t", i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].at_us, 2);
        assert_eq!(snap[2].at_us, 4);
        assert_eq!(ring.total(), 5);
    }

    #[test]
    fn empty_ring_snapshots_empty() {
        let ring = EventRing::new(8);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.total(), 0);
    }
}
