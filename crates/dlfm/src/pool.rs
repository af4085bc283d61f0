//! The head gate behind every lane — the agent executor, the upcall lane
//! and the wire daemon's settlement gate.
//!
//! The paper's prototype ran one upcall daemon and one child agent per
//! database connection (§2.2). Here a lane is a *width*, not a set of
//! threads: a gate bounds how many threads serve the lane at once, and
//! owns no thread of its own. Every request is served on a thread that
//! already has it:
//!
//! * **a caller that has a thread serves itself** —
//!   [`HeadGate::serve_here`] admits the calling thread as a *guest*: it
//!   takes one of the `width` head slots, runs its own task and leaves.
//!   Past the width it waits for a head to leave (the one time it blocks
//!   on another thread). This is the in-process carrier's path.
//! * **a frame is served where it was read, or parked** —
//!   [`HeadGate::serve_or_park`] runs the task on the calling thread (the
//!   wire reactor's thread that read the frame) while a slot is free. A
//!   frame that finds the gate full is *parked* on it, never waited for,
//!   and the head that frees a slot serves the parked frames before it
//!   leaves. So a frame holds no thread while it waits, and the threads
//!   inside a gate never exceed its width, however many frames arrive.
//! * **panics are contained** — a task that panics costs that task, not
//!   the thread serving it: the panic is caught, counted, and the slot is
//!   released. A lane never dies from a poisoned request.
//!
//! The gate is deliberately synchronous (no async runtime in this
//! workspace): the simulated device latencies the benches use (`MemDevice`
//! sync sleeps) park the serving threads exactly the way a real DLFM's
//! daemons park in `fsync`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Runs `f` and hands its outcome to `deliver`: `Ok(result)` normally, or
/// `Err("panicked while serving <label>: <context>")` when `f` panics —
/// delivered *before* the panic is re-thrown, so a waiting client gets
/// the failure in-band while the gate's catch still counts the panic (or
/// a dedicated thread still dies with it).
pub(crate) fn deliver_or_rethrow<R>(
    label: &str,
    f: impl FnOnce() -> R,
    deliver: impl FnOnce(Result<R, String>),
) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => deliver(Ok(result)),
        Err(panic) => {
            // `as_ref` matters: coercing `&Box<dyn Any>` would downcast
            // the box, not the payload.
            let msg = panic_message(panic.as_ref());
            deliver(Err(format!("panicked while serving {label}: {msg}")));
            std::panic::resume_unwind(panic);
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Live gauges and lifetime counters of one gate. All reads are relaxed
/// atomics — cheap enough for benches to sample mid-run.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Heads serving the lane right now.
    heads: AtomicUsize,
    /// High-water mark of `heads`.
    peak_heads: AtomicUsize,
    /// Frames parked right now.
    parked: AtomicUsize,
    /// Most frames ever parked at once.
    peak_parked: AtomicUsize,
    /// Lifetime tasks completed (including panicked ones).
    tasks: AtomicU64,
    /// The part of `tasks` served on the thread that brought them; the
    /// rest was parked and served by the head that freed a slot.
    caller_served: AtomicU64,
    /// Task panics caught and contained.
    panics: AtomicU64,
}

impl PoolStats {
    /// Heads serving the lane right now.
    pub fn workers(&self) -> usize {
        self.heads.load(Ordering::Relaxed)
    }

    /// The most heads that ever served the lane at once.
    pub fn peak_workers(&self) -> usize {
        self.peak_heads.load(Ordering::Relaxed)
    }

    /// Frames parked right now.
    pub fn queue_depth(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }

    /// The most frames ever parked at once.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_parked.load(Ordering::Relaxed)
    }

    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    pub fn caller_served(&self) -> u64 {
        self.caller_served.load(Ordering::Relaxed)
    }

    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Runs one task under the gate's accounting: the task count, and a
    /// panic caught and counted instead of taking the thread down.
    fn run(&self, task: impl FnOnce()) {
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        self.tasks.fetch_add(1, Ordering::Relaxed);
    }
}

/// A task that arrived without a thread to wait on: a wire frame.
type Parked = Box<dyn FnOnce() + Send>;

struct Slots {
    /// Threads inside the gate right now.
    heads: usize,
    /// Frames that found the gate full. Non-empty only while `heads` is
    /// at the width: the head that leaves serves them first.
    parked: VecDeque<Parked>,
    /// Guests blocked in `serve_here` until a head leaves.
    waiting: usize,
}

/// A lane's head bound. Owns no thread: every task runs on a thread that
/// brought it, or on the head that frees a slot for a parked one.
pub struct HeadGate {
    width: usize,
    slots: Mutex<Slots>,
    /// Signalled when a head leaves while guests wait.
    slot_freed: Condvar,
    stats: PoolStats,
}

impl HeadGate {
    /// A gate at most `width` heads wide (at least one).
    pub fn new(width: usize) -> HeadGate {
        HeadGate {
            width: width.max(1),
            slots: Mutex::new(Slots { heads: 0, parked: VecDeque::new(), waiting: 0 }),
            slot_freed: Condvar::new(),
            stats: PoolStats::default(),
        }
    }

    /// Runs `task` on the calling thread, as a guest of the lane — the
    /// path for a caller that would otherwise hand the task off and sleep
    /// until it ran. Past the width the caller waits for a head to leave.
    /// A panic in `task` is caught and counted, and the slot is released
    /// either way.
    pub fn serve_here(&self, task: impl FnOnce()) {
        {
            let mut slots = self.slots.lock();
            while slots.heads >= self.width {
                slots.waiting += 1;
                self.slot_freed.wait(&mut slots);
                slots.waiting -= 1;
            }
            self.enter(&mut slots);
        }
        self.serve_and_leave(task);
    }

    /// Runs `task` on the calling thread if a slot is free; otherwise parks
    /// it and returns at once — the head that frees a slot runs it. The
    /// path for a frame: its reader must not block on the lane.
    pub fn serve_or_park(&self, task: impl FnOnce() + Send + 'static) {
        {
            let mut slots = self.slots.lock();
            if slots.heads >= self.width {
                slots.parked.push_back(Box::new(task));
                let depth = slots.parked.len();
                self.stats.parked.store(depth, Ordering::Relaxed);
                self.stats.peak_parked.fetch_max(depth, Ordering::Relaxed);
                return;
            }
            self.enter(&mut slots);
        }
        self.serve_and_leave(task);
    }

    fn enter(&self, slots: &mut Slots) {
        slots.heads += 1;
        self.stats.heads.store(slots.heads, Ordering::Relaxed);
        self.stats.peak_heads.fetch_max(slots.heads, Ordering::Relaxed);
    }

    /// Serves `task`, then every frame parked meanwhile, then frees the
    /// slot.
    fn serve_and_leave(&self, task: impl FnOnce()) {
        self.stats.run(task);
        self.stats.caller_served.fetch_add(1, Ordering::Relaxed);
        loop {
            let mut slots = self.slots.lock();
            if let Some(next) = slots.parked.pop_front() {
                self.stats.parked.store(slots.parked.len(), Ordering::Relaxed);
                drop(slots);
                self.stats.run(next);
                continue;
            }
            slots.heads -= 1;
            self.stats.heads.store(slots.heads, Ordering::Relaxed);
            if slots.waiting > 0 {
                self.slot_freed.notify_one();
            }
            return;
        }
    }

    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Blocks until no head is inside the gate and nothing is parked (or
    /// `timeout` elapses); returns whether it drained. Test/bench helper.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let slots = self.slots.lock();
                if slots.heads == 0 && slots.parked.is_empty() {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    #[test]
    fn a_guest_holds_a_head_slot_until_it_returns_or_unwinds() {
        let gate = HeadGate::new(1);
        let (entered_tx, entered) = channel();
        let (go, hold) = channel::<()>();
        let (second_tx, second) = channel();
        std::thread::scope(|s| {
            let gate = &gate;
            s.spawn(move || {
                gate.serve_here(|| {
                    entered_tx.send(()).unwrap();
                    hold.recv().unwrap();
                })
            });
            entered.recv().unwrap();
            assert!(!gate.wait_idle(Duration::from_millis(20)), "a guest is mid-service");
            // The gate is one head wide: a second guest waits its turn.
            s.spawn(move || gate.serve_here(|| second_tx.send(()).unwrap()));
            assert!(second.recv_timeout(Duration::from_millis(20)).is_err());
            go.send(()).unwrap();
            second.recv_timeout(Duration::from_secs(5)).expect("admitted once the slot freed");
        });
        assert!(gate.wait_idle(Duration::from_secs(5)));
        gate.serve_here(|| panic!("injected"));
        gate.serve_here(|| {}); // a slot leaked by the unwind would hang this
        let stats = gate.stats();
        assert_eq!((stats.panics(), stats.tasks(), stats.caller_served()), (1, 4, 4));
        assert_eq!((stats.workers(), stats.peak_workers()), (0, 1));
    }

    /// A frame that finds the gate full is parked, its caller returns at
    /// once, and the head that frees the slot serves it — panicking
    /// included — before it leaves.
    #[test]
    fn a_frame_that_finds_the_gate_full_is_served_by_the_head_that_leaves() {
        let gate = Arc::new(HeadGate::new(1));
        let (entered_tx, entered) = channel();
        let (go, hold) = channel::<()>();
        let (ran_tx, ran) = channel();
        let head = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.serve_here(|| {
                    entered_tx.send(()).unwrap();
                    hold.recv().unwrap();
                });
                std::thread::current().id()
            })
        };
        entered.recv().unwrap();
        gate.serve_or_park(|| panic!("injected"));
        let ran_tx2 = ran_tx.clone();
        gate.serve_or_park(move || ran_tx2.send(std::thread::current().id()).unwrap());
        assert_eq!(gate.stats().queue_depth(), 2, "both frames parked, neither waited");
        assert!(ran.try_recv().is_err());
        go.send(()).unwrap();
        let head_id = head.join().unwrap();
        assert_eq!(ran.recv().unwrap(), head_id, "the leaving head served the parked frame");
        let stats = gate.stats();
        assert_eq!((stats.tasks(), stats.caller_served(), stats.panics()), (3, 1, 1));
        assert_eq!((stats.queue_depth(), stats.peak_queue_depth()), (0, 2));
        assert_eq!((stats.workers(), stats.peak_workers()), (0, 1));

        // A free gate serves a frame on the thread that brought it.
        gate.serve_or_park(move || ran_tx.send(std::thread::current().id()).unwrap());
        assert_eq!(ran.recv().unwrap(), std::thread::current().id());
        assert_eq!(gate.stats().caller_served(), 2);
    }
}
