//! Span-style trace events and the per-node flight recorder.
//!
//! A [`SpanEvent`] marks one stage of a linking operation's journey
//! through the 2PC cycle — coordinator enlist, DLFM claim, WAL commit,
//! archive, decision — tagged with the transaction and file it
//! belongs to. Each node keeps the most recent events in a fixed
//! [`FlightRecorder`] ring; when a node crashes or a coordinator fails
//! over, the system facade renders every recorder into a postmortem dump,
//! so the trace of the operations in flight at the moment of failure is
//! never lost to the failure itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One stage of one operation's passage through the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Global order ticket, assigned at record time.
    pub seq: u64,
    /// Which component recorded it (`dlfm.srv1`, `engine.host`): a name
    /// each component interns once and shares with every event.
    pub source: Arc<str>,
    /// The 2PC stage: `enlist`, `dml`, `claim`, `commit_update`, `archive`,
    /// `decide`, `settle`, `fence_raise`, `fence_reject`.
    pub stage: &'static str,
    /// Transaction id the event belongs to (0 when not transactional).
    pub txid: u64,
    /// File path or token the operation touches (empty when none).
    pub target: String,
    /// Free-form detail: decision outcome, epoch numbers, byte counts.
    pub detail: String,
}

impl SpanEvent {
    fn render(&self) -> String {
        format!(
            "[{:>6}] {:<12} {:<14} txid={:<6} target={} {}",
            self.seq, self.source, self.stage, self.txid, self.target, self.detail
        )
    }
}

/// A fixed-capacity ring of the most recent [`SpanEvent`]s.
///
/// Recording is wait-free in the common case: a ticket counter hands out
/// slots (`fetch_add`), and each slot is an independent mutex held only
/// for the duration of one `Option` swap — two recorders contend only
/// when they land on the same slot, i.e. when one laps the other.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<SpanEvent>>>,
    next: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Records one event, evicting the oldest if the ring is full. Source
    /// and stage cost no allocation: the source is shared, the stage static.
    pub fn record(
        &self,
        source: &Arc<str>,
        stage: &'static str,
        txid: u64,
        target: &str,
        detail: impl Into<String>,
    ) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        let event = SpanEvent {
            seq,
            source: Arc::clone(source),
            stage,
            txid,
            target: target.to_string(),
            detail: detail.into(),
        };
        *self.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(event);
    }

    /// Every retained event, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Total events ever recorded (recorded, not retained).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Renders the retained events as a dump section: a header naming the
    /// recorder and the trigger, then one line per event, oldest first.
    pub fn render(&self, name: &str, reason: &str) -> String {
        let events = self.events();
        let mut out = format!(
            "=== flight recorder {name} (reason: {reason}, {} retained of {} recorded) ===\n",
            events.len(),
            self.recorded()
        );
        for e in &events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent() {
        let fr = FlightRecorder::new(4);
        let source: Arc<str> = Arc::from("dlfm.srv1");
        for i in 0..10u64 {
            fr.record(&source, "claim", i, "/f", "");
        }
        let events = fr.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events.iter().map(|e| e.txid).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(fr.recorded(), 10);
    }

    #[test]
    fn events_sorted_even_under_concurrency() {
        let fr = std::sync::Arc::new(FlightRecorder::new(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let fr = std::sync::Arc::clone(&fr);
                s.spawn(move || {
                    let source: Arc<str> = Arc::from("engine");
                    for i in 0..100 {
                        fr.record(&source, "dml", t * 1000 + i, "/f", "");
                    }
                });
            }
        });
        let events = fr.events();
        assert_eq!(events.len(), 64);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn render_contains_stage_lines() {
        let fr = FlightRecorder::new(8);
        let source: Arc<str> = Arc::from("dlfm.srv1");
        fr.record(&source, "claim", 42, "/docs/a.bin", "");
        fr.record(&source, "decide", 42, "/docs/a.bin", "outcome=commit epoch=3");
        let dump = fr.render("dlfm.srv1", "crash");
        assert!(dump.contains("reason: crash"));
        assert!(dump.contains("claim"));
        assert!(dump.contains("decide"));
        assert!(dump.contains("outcome=commit epoch=3"));
        // The line format is part of the dump: column widths included.
        assert!(dump.contains(
            "[     1] dlfm.srv1    decide         txid=42     target=/docs/a.bin outcome=commit epoch=3\n"
        ));
    }
}
