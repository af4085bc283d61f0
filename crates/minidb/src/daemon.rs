//! One driver for every background loop.
//!
//! A background loop — the archiver, the log shipper, a follower's
//! snapshotter — is a *step*: a function of the current instant that does
//! at most one unit of work and says when to run next ([`Next`]). A
//! [`Daemon`] runs one step on a thread it owns: it sleeps until the
//! step's deadline or a [`Daemon::kick`], keeps the idle flag
//! [`Daemon::wait_idle`] waits on, counts its wake-ups and joins on drop.
//! A step reads time only from its argument, so it runs without a thread
//! too: [`run_to_idle`] steps it on a clock that jumps to each deadline —
//! how a stopping daemon drains, and how a test drives a loop.
//!
//! A kick is never lost: one that lands while the step is running makes
//! the next sleep return at once, so a step may decide "idle" under its own
//! lock and leave the wake-up to whoever queues work after it.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// What a step asks of its driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// More work is due: step again at once.
    Now,
    /// Nothing is due before this instant, unless a kick comes first.
    At(Instant),
    /// Nothing is due until a kick.
    Idle,
}

/// What stopping a [`Daemon`] does with the work its step has not done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnStop {
    /// Finish it: step to idle by [`run_to_idle`] before the join returns.
    /// The step must go idle once every deadline it names has passed.
    Drain,
    /// Leave it: step no more.
    Abandon,
}

/// Steps `step` from `now` until it is idle, jumping the clock to each
/// deadline it names instead of sleeping; returns the clock it ended at.
pub fn run_to_idle(mut now: Instant, mut step: impl FnMut(Instant) -> Next) -> Instant {
    loop {
        match step(now) {
            Next::Now => {}
            Next::At(deadline) => now = now.max(deadline),
            Next::Idle => return now,
        }
    }
}

#[derive(Default)]
struct State {
    /// A kick the step has not yet been run for.
    kicked: bool,
    /// Asleep with nothing due (or stopped).
    idle: bool,
    stopped: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Wakes the thread: a kick or the stop.
    wake: Condvar,
    /// Wakes [`Daemon::wait_idle`] callers.
    went_idle: Condvar,
    wakeups: Arc<dl_obs::Counter>,
}

impl Shared {
    fn kick(&self) {
        let mut state = self.state.lock();
        if !state.stopped {
            state.kicked = true;
            state.idle = false;
            self.wake.notify_one();
        }
    }

    /// Sleeps as `next` asks; returns `false` once stopped.
    fn sleep(&self, next: Next) -> bool {
        let mut state = self.state.lock();
        while !state.kicked && !state.stopped {
            match next {
                Next::Now => break,
                Next::At(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    self.wake.wait_for(&mut state, left);
                }
                Next::Idle => {
                    state.idle = true;
                    self.went_idle.notify_all();
                    self.wake.wait(&mut state);
                }
            }
        }
        if state.stopped {
            return false;
        }
        if next == Next::Idle && state.kicked {
            self.wakeups.inc();
        }
        state.kicked = false;
        state.idle = false;
        true
    }

    fn run(&self, on_stop: OnStop, mut step: impl FnMut(Instant) -> Next) {
        let mut next = Next::Now;
        while self.sleep(next) {
            next = step(Instant::now());
        }
        if on_stop == OnStop::Drain {
            run_to_idle(Instant::now(), step);
        }
        self.state.lock().idle = true;
        self.went_idle.notify_all();
    }
}

/// A thread running one step (module docs). Dropping it stops it.
pub struct Daemon {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Daemon {
    /// Spawns thread `name`, which steps `step` at once and then as each
    /// [`Next`] asks, until the daemon stops.
    pub fn spawn(
        name: &str,
        on_stop: OnStop,
        step: impl FnMut(Instant) -> Next + Send + 'static,
    ) -> std::io::Result<Daemon> {
        let shared = Arc::new(Shared::default());
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || thread_shared.run(on_stop, step))?;
        Ok(Daemon { shared, thread: Mutex::new(Some(thread)) })
    }

    /// New work may be due: wakes the thread from any sleep, or — if the
    /// step is running — makes its next sleep return at once.
    pub fn kick(&self) {
        self.shared.kick();
    }

    /// Blocks until the thread sleeps with nothing due (or has stopped),
    /// or `timeout` elapses; returns whether it went idle. A zero timeout
    /// only looks.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        while !state.idle {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.shared.went_idle.wait_for(&mut state, left);
        }
        true
    }

    /// Times the thread left an idle sleep for a kick.
    pub fn wakeups(&self) -> &Arc<dl_obs::Counter> {
        &self.shared.wakeups
    }

    /// Stops the thread — draining or abandoning the step's work, as
    /// spawned — and joins it. Idempotent.
    pub fn stop(&self) {
        self.shared.state.lock().stopped = true;
        self.shared.wake.notify_one();
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const WAIT: Duration = Duration::from_secs(5);

    /// A step that runs `work` queued units one per step, then idles.
    fn counter_step(work: &Arc<AtomicU64>, done: &Arc<AtomicU64>) -> impl FnMut(Instant) -> Next {
        let (work, done) = (Arc::clone(work), Arc::clone(done));
        move |_| {
            if work.load(Ordering::SeqCst) == 0 {
                return Next::Idle;
            }
            work.fetch_sub(1, Ordering::SeqCst);
            done.fetch_add(1, Ordering::SeqCst);
            Next::Now
        }
    }

    #[test]
    fn a_kick_wakes_an_idle_daemon_and_is_counted() {
        let (work, done) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let daemon = Daemon::spawn("t", OnStop::Abandon, counter_step(&work, &done)).unwrap();
        assert!(daemon.wait_idle(WAIT));
        assert_eq!(daemon.wakeups().get(), 0, "an idle daemon is never woken");
        work.store(3, Ordering::SeqCst);
        daemon.kick();
        assert!(daemon.wait_idle(WAIT));
        assert_eq!(done.load(Ordering::SeqCst), 3);
        assert_eq!(daemon.wakeups().get(), 1);
    }

    #[test]
    fn a_deadline_runs_the_step_without_a_kick() {
        let start = Instant::now();
        let due = start + Duration::from_millis(5);
        let stepped = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&stepped);
        let daemon = Daemon::spawn("t", OnStop::Abandon, move |now| {
            counted.fetch_add(1, Ordering::SeqCst);
            if now < due {
                Next::At(due)
            } else {
                Next::Idle
            }
        })
        .unwrap();
        assert!(daemon.wait_idle(WAIT));
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(stepped.load(Ordering::SeqCst), 2, "one step before the deadline, one at it");
    }

    #[test]
    fn drain_finishes_the_work_and_abandon_leaves_it() {
        for on_stop in [OnStop::Drain, OnStop::Abandon] {
            let far = Instant::now() + Duration::from_secs(3600);
            let left = Arc::new(AtomicU64::new(5));
            let step_left = Arc::clone(&left);
            // Holds its work an hour: only a drain jumps the clock to it.
            let daemon =
                Daemon::spawn("t", on_stop, move |now| match step_left.load(Ordering::SeqCst) {
                    0 => Next::Idle,
                    _ if now < far => Next::At(far),
                    _ => {
                        step_left.fetch_sub(1, Ordering::SeqCst);
                        Next::Now
                    }
                })
                .unwrap();
            let started = Instant::now();
            drop(daemon);
            assert!(started.elapsed() < WAIT, "{on_stop:?}: the stop waited out the deadline");
            let expect = if on_stop == OnStop::Drain { 0 } else { 5 };
            assert_eq!(left.load(Ordering::SeqCst), expect, "{on_stop:?}");
        }
    }

    #[test]
    fn run_to_idle_jumps_to_each_deadline() {
        let start = Instant::now();
        let mut seen = Vec::new();
        let end = run_to_idle(start, |now| {
            seen.push(now);
            match seen.len() {
                1 => Next::At(start + Duration::from_secs(10)),
                2 => Next::Now,
                _ => Next::Idle,
            }
        });
        assert_eq!(
            seen,
            vec![start, start + Duration::from_secs(10), start + Duration::from_secs(10)]
        );
        assert_eq!(end, start + Duration::from_secs(10));
    }
}
