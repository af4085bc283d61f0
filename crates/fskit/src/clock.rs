//! Pluggable time source.
//!
//! File mtimes decide whether DLFM considers a file "modified" at close time
//! (§4.4 of the paper: "DLFM then determines whether the file has been
//! modified using the last modification time"), and token expiry is a time
//! comparison (§4.1). Tests need to control both, so every component takes an
//! `Arc<dyn Clock>` instead of calling the OS clock directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// A source of milliseconds-since-epoch timestamps.
pub trait Clock: Send + Sync {
    /// Current time in milliseconds.
    fn now_ms(&self) -> u64;
}

/// Wall-clock time from the operating system.
#[derive(Debug, Default)]
pub struct WallClock;

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
    }
}

/// A deterministic clock for tests: starts at a fixed point and only moves
/// when explicitly advanced. Every call to [`SimClock::now_ms`] also ticks
/// the clock by one millisecond so consecutive events get distinct
/// timestamps, which is what the mtime-comparison logic needs.
#[derive(Debug)]
pub struct SimClock {
    now: AtomicU64,
    auto_tick: bool,
}

impl SimClock {
    /// A simulated clock starting at `start_ms` that ticks 1ms per reading.
    pub fn new(start_ms: u64) -> Self {
        SimClock { now: AtomicU64::new(start_ms), auto_tick: true }
    }

    /// A simulated clock that only moves via [`SimClock::advance`].
    pub fn frozen(start_ms: u64) -> Self {
        SimClock { now: AtomicU64::new(start_ms), auto_tick: false }
    }

    /// Move the clock forward by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now_ms(&self) -> u64 {
        if self.auto_tick {
            self.now.fetch_add(1, Ordering::SeqCst) + 1
        } else {
            self.now.load(Ordering::SeqCst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_enough() {
        let c = WallClock;
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_ticks_per_reading() {
        let c = SimClock::new(1000);
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b > a, "each reading must produce a distinct timestamp");
    }

    #[test]
    fn frozen_clock_only_moves_on_advance() {
        let c = SimClock::frozen(500);
        assert_eq!(c.now_ms(), 500);
        assert_eq!(c.now_ms(), 500);
        c.advance(100);
        assert_eq!(c.now_ms(), 600);
    }
}
