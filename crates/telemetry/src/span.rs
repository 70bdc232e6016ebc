//! Per-exchange spans.
//!
//! A [`Span`] is created when the incoming proxy accepts an exchange and
//! follows the request through the engine to the backend and back. Events
//! record a label plus a monotonic offset from the span's start, so the
//! timeline attached to a divergence audit record shows exactly where time
//! went (fan-out, per-instance reads, diff, respond). Labels are
//! `Cow<'static, str>`, so the fixed stage names cost no allocation.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// One timestamped moment inside a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// What happened (e.g. `"replicate"`, `"instance:0:data"`, `"diff"`).
    pub label: Cow<'static, str>,
    /// Monotonic offset from the span's start.
    pub offset: Duration,
}

/// A request-scoped timeline with a process-unique id.
///
/// Spans are cheap (one `Instant` + a mutexed event vec) and shareable: the
/// engine and the proxy session hold an `Arc<Span>` each and push events
/// from whichever reactor worker runs them.
#[derive(Debug)]
pub struct Span {
    id: u64,
    label: Cow<'static, str>,
    start: Instant,
    events: Mutex<Vec<SpanEvent>>,
}

impl Span {
    /// Starts a new span; ids are unique within the process.
    pub fn start(label: impl Into<Cow<'static, str>>) -> Span {
        Span {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            label: label.into(),
            start: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The process-unique span id (doubles as the exchange id in audit
    /// records and `X-RDDR-Exchange` style diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The label given at construction.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records an event at the current monotonic offset.
    pub fn event(&self, label: impl Into<Cow<'static, str>>) {
        let offset = self.start.elapsed();
        self.events.lock().push(SpanEvent {
            label: label.into(),
            offset,
        });
    }

    /// Time since the span started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// A copy of the events recorded so far, in insertion order.
    pub fn timeline(&self) -> Vec<SpanEvent> {
        self.events.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ids_are_unique() {
        let a = Span::start("a");
        let b = Span::start("b");
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn events_keep_order_and_monotonic_offsets() {
        let span = Span::start("exchange");
        span.event("fanout");
        span.event("diff");
        span.event("respond");
        let timeline = span.timeline();
        assert_eq!(
            timeline
                .iter()
                .map(|e| e.label.as_ref())
                .collect::<Vec<_>>(),
            ["fanout", "diff", "respond"]
        );
        assert!(timeline.windows(2).all(|w| w[0].offset <= w[1].offset));
    }

    #[test]
    fn concurrent_events_all_land() {
        let span = Arc::new(Span::start("shared"));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let span = span.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        span.event(format!("t{t}:{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(span.timeline().len(), 400);
    }
}
