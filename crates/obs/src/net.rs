//! Per-connection wire-transport instruments.
//!
//! The socket transport (`crates/net`) moves the agent/upcall protocol
//! across a process-style boundary, and the failure modes that matter
//! there — torn frames, backpressure, a connection dying mid-2PC — are
//! invisible to the in-process counters. One `NetStats` is shared by a
//! reactor and all of its connections; the assembled system adopts it
//! under `net.<node>.*` names.

use crate::metrics::{Counter, Gauge, Histogram};

/// Instruments of one wire endpoint (a server's accept loop or a client
/// connector), aggregated across its connections.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Complete frames decoded off the wire.
    pub frames_in: Counter,
    /// Frames accepted for transmission on a live connection (a frame
    /// sent to an unknown or already-closed connection is dropped and
    /// not counted).
    pub frames_out: Counter,
    /// Raw bytes read / written (partial reads and writes included).
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    /// Byte streams that failed to decode (bad tag, oversized frame,
    /// malformed payload). Each one costs the connection.
    pub decode_errors: Counter,
    /// Sends that found the peer's socket buffer full: the sender queued
    /// the unwritten remainder behind the connection and woke the leader
    /// thread to drain it on the next writability wakeup.
    pub backpressure_stalls: Counter,
    /// Events a server thread served on a *lent* poll set: it read one
    /// event and nothing else was ready, so it kept the set on loan and
    /// polls again itself once its handler returns.
    pub seat_lends: Counter,
    /// Lends the serving thread took back itself — a frame that cost no
    /// thread wake-up.
    pub seat_reclaims: Counter,
    /// Poll sets handed to a follower because more events were ready
    /// than the leader was about to serve (eager: a burst spreads over
    /// threads).
    pub seat_handoffs_ready: Counter,
    /// Lends handed to a follower because the serving thread was about
    /// to park on a condvar (a lock wait, a commit flush, a full lane).
    pub seat_handoffs_park: Counter,
    /// Lends a follower took over after the lend bound (1 ms): the handler
    /// blocked without parking on a condvar. `seat_lends` equals
    /// `seat_reclaims + seat_handoffs_park + seat_handoffs_timeout`, give
    /// or take the one lend in flight.
    pub seat_handoffs_timeout: Counter,
    /// Client calls that gave up waiting for their reply frame
    /// (`DlfmConfig::wire_call_timeout_ms`). The connection stays usable.
    pub call_timeouts: Counter,
    /// Connections accepted (server) or registered (client).
    pub accepts: Counter,
    /// Connections torn down, for any reason.
    pub disconnects: Counter,
    /// Currently open connections.
    pub connections: Gauge,
    /// High-water mark of `connections`.
    pub peak_connections: Gauge,
    /// Request/reply round-trip latency as the *caller* saw it: write,
    /// the server's leader wakeup and service, reply read and decode.
    pub round_trip_ns: Histogram,
}

impl NetStats {
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Records a connection coming up, maintaining the peak gauge.
    pub fn connection_opened(&self) {
        self.accepts.inc();
        self.connections.add(1);
        self.peak_connections.set_max(self.connections.get());
    }

    /// Records a connection going away.
    pub fn connection_closed(&self) {
        self.disconnects.inc();
        self.connections.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_lifecycle_tracks_peak() {
        let s = NetStats::new();
        s.connection_opened();
        s.connection_opened();
        s.connection_closed();
        s.connection_opened();
        assert_eq!(s.connections.get(), 2);
        assert_eq!(s.peak_connections.get(), 2);
        assert_eq!(s.accepts.get(), 3);
        assert_eq!(s.disconnects.get(), 1);
    }
}
