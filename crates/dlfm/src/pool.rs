//! An elastic worker pool — the shared engine behind the upcall pool, the
//! agent executor and the wire daemon's settle pool.
//!
//! The paper's prototype ran one upcall daemon and one child agent per
//! database connection (§2.2). PR 2 widened the upcall side to a *fixed*
//! pool; this module replaces both fixed shapes with one capacity model:
//! a task queue drained by between `min` and `max` worker threads, where
//!
//! * **growth** is driven by queue depth — a submit that finds the backlog
//!   deeper than the number of idle workers spawns a worker (up to `max`),
//!   so bursts recruit capacity at the rate they arrive instead of queueing
//!   behind a fixed head count;
//! * **shrink** is driven by idle time scaled to observed service time — a
//!   worker above `min` that sits idle for the retire window exits, and the
//!   window stretches with the pool's EWMA service time so pools doing
//!   slow, expensive work (repository commits under sync latency) keep
//!   their warm threads longer than pools doing microsecond dispatches;
//! * **panics are contained** — a handler that panics costs that task, not
//!   the worker: the panic is caught, counted, and the worker returns to
//!   the queue. A pool never dies from a poisoned request.
//! * **a caller that has a thread serves itself** — [`ElasticPool::serve_here`]
//!   admits the calling thread as a *guest* of the pool: it takes one of
//!   the `max` head slots, runs its own task under the same accounting and
//!   panic containment as a worker, and leaves. No queue, no wake-up. Only
//!   work that arrives without a thread to borrow (a socket frame) queues.
//!
//! The pool is deliberately synchronous (no async runtime in this
//! workspace): workers are OS threads, and the simulated device latencies
//! the benches use (`MemDevice` sync sleeps) park those threads exactly the
//! way a real DLFM's daemons park in `fsync`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Sizing and naming of one [`ElasticPool`].
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Workers the pool always keeps resident (floor, >= 1 enforced).
    pub min_workers: usize,
    /// Workers the pool may grow to under load (>= min enforced).
    pub max_workers: usize,
    /// Base idle window after which a worker above `min` retires. The
    /// effective window is `max(idle_timeout, 32 x EWMA service time)`,
    /// capped at 1 s, so expensive workloads shed threads more slowly.
    pub idle_timeout: Duration,
    /// Thread-name prefix (`<name>-w<seq>`).
    pub name: String,
}

impl PoolOptions {
    /// An adaptive pool between `min` and `max` workers (`min == max`
    /// pins it).
    pub fn adaptive(name: &str, min: usize, max: usize) -> PoolOptions {
        PoolOptions {
            min_workers: min,
            max_workers: max,
            idle_timeout: Duration::from_millis(100),
            name: name.to_string(),
        }
    }

    /// Overrides the base idle window (tests use short windows to observe
    /// shrink without multi-second sleeps).
    pub fn idle_timeout(mut self, d: Duration) -> PoolOptions {
        self.idle_timeout = d;
        self
    }
}

/// Runs `f` and hands its outcome to `deliver`: `Ok(result)` normally, or
/// `Err("panicked while serving <label>: <context>")` when `f` panics —
/// delivered *before* the panic is re-thrown, so a waiting client gets
/// the failure in-band while the pool's catch still counts the panic (or
/// a dedicated thread still dies with it).
pub fn deliver_or_rethrow<R>(
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
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A relaxed-atomic exponentially-weighted moving average over duration
/// samples, shared by the pool's service-time gauge and the engine's
/// replication-lag estimate (`LagEwma` in `dl-core`). A smoothed gauge,
/// not an invariant: the read-modify-write is deliberately racy — a lost
/// update skews one sample of an average.
#[derive(Debug, Default)]
pub struct AtomicEwma {
    value_ns: AtomicU64,
}

impl AtomicEwma {
    /// An EWMA pre-seeded at `initial` (used before any sample arrives;
    /// the zero-seeded default instead jumps to the first sample).
    pub fn seeded(initial: Duration) -> AtomicEwma {
        AtomicEwma { value_ns: AtomicU64::new(initial.as_nanos().min(u64::MAX as u128) as u64) }
    }

    /// Folds `sample` in with weight `1 / 2^alpha_shift`.
    pub fn record(&self, sample: Duration, alpha_shift: u32) {
        let sample = sample.as_nanos().min(u64::MAX as u128) as u64;
        let old = self.value_ns.load(Ordering::Relaxed);
        let new =
            if old == 0 { sample } else { old - (old >> alpha_shift) + (sample >> alpha_shift) };
        self.value_ns.store(new, Ordering::Relaxed);
    }

    /// The smoothed value.
    pub fn current(&self) -> Duration {
        Duration::from_nanos(self.value_ns.load(Ordering::Relaxed))
    }
}

/// Type-erased live view of a pool's size, for components that aggregate
/// capacity across pools of different task types (the system facade sums
/// these into its `pool.total_workers` gauge and the auto-width read
/// lane). Object-safe on purpose: an `ElasticPool<T>` is generic, a
/// `dyn PoolProbe` is not.
pub trait PoolProbe: Send + Sync {
    /// Worker threads currently alive.
    fn workers(&self) -> usize;
    /// Tasks queued but not yet picked up.
    fn queue_depth(&self) -> usize;
}

impl<T: Send + 'static> PoolProbe for ElasticPool<T> {
    fn workers(&self) -> usize {
        self.stats().workers()
    }

    fn queue_depth(&self) -> usize {
        self.stats().queue_depth()
    }
}

/// Live gauges and lifetime counters of one pool. All reads are relaxed
/// atomics — cheap enough for benches to sample mid-run.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Worker threads currently alive.
    workers: AtomicUsize,
    /// High-water mark of heads on the pool: worker threads alive, or busy
    /// workers plus guests serving at once, whichever was larger.
    peak_workers: AtomicUsize,
    /// Workers currently parked waiting for a task.
    idle_workers: AtomicUsize,
    /// Tasks queued but not yet picked up.
    queue_depth: AtomicUsize,
    /// Deepest backlog ever observed at submit time.
    peak_queue_depth: AtomicUsize,
    /// Lifetime tasks completed (including panicked ones), by workers and
    /// guests alike.
    tasks: AtomicU64,
    /// The part of `tasks` guests served in place (`serve_here`); the rest
    /// was queued.
    caller_served: AtomicU64,
    /// Workers spawned beyond the initial `min` (growth events).
    grows: AtomicU64,
    /// Workers retired by the idle window (shrink events).
    retires: AtomicU64,
    /// Handler panics caught and contained.
    panics: AtomicU64,
    /// EWMA of per-task service time (alpha = 1/8).
    service_ewma: AtomicEwma,
}

impl PoolStats {
    pub fn workers(&self) -> usize {
        self.workers.load(Ordering::Relaxed)
    }

    pub fn peak_workers(&self) -> usize {
        self.peak_workers.load(Ordering::Relaxed)
    }

    pub fn idle_workers(&self) -> usize {
        self.idle_workers.load(Ordering::Relaxed)
    }

    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue_depth.load(Ordering::Relaxed)
    }

    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    pub fn caller_served(&self) -> u64 {
        self.caller_served.load(Ordering::Relaxed)
    }

    pub fn grows(&self) -> u64 {
        self.grows.load(Ordering::Relaxed)
    }

    pub fn retires(&self) -> u64 {
        self.retires.load(Ordering::Relaxed)
    }

    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// EWMA of per-task service time.
    pub fn service_ewma(&self) -> Duration {
        self.service_ewma.current()
    }

    /// Runs one task under the pool's accounting, on whichever thread
    /// serves it: service time, the task count, and a panic caught and
    /// counted instead of taking that thread down.
    fn run(&self, task: impl FnOnce()) {
        let start = Instant::now();
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        self.service_ewma.record(start.elapsed(), 3);
        self.tasks.fetch_add(1, Ordering::Relaxed);
    }

    fn raise_peak(&self, of: &AtomicUsize, peak: &AtomicUsize) {
        let current = of.load(Ordering::Relaxed);
        peak.fetch_max(current, Ordering::Relaxed);
    }
}

struct Queue<T> {
    tasks: VecDeque<T>,
    /// Senders gone: drain and exit.
    closed: bool,
    /// Callers inside `serve_here` right now.
    guests: usize,
    /// Callers parked in `serve_here` until a head leaves the pool.
    waiting_guests: usize,
}

struct Core<T> {
    queue: Mutex<Queue<T>>,
    available: Condvar,
    /// Signalled when a guest leaves or a worker parks while guests wait.
    slot_freed: Condvar,
    opts: PoolOptions,
    stats: PoolStats,
    worker_seq: AtomicUsize,
}

/// The elastic pool. Dropping the pool closes the queue; workers drain
/// what is already queued and exit (matching the old daemons' detached
/// threads — a crashing node simply abandons them).
pub struct ElasticPool<T: Send + 'static> {
    core: Arc<Core<T>>,
    handler: Arc<dyn Fn(T) + Send + Sync>,
}

impl<T: Send + 'static> ElasticPool<T> {
    /// Spawns the pool with `opts.min_workers` resident workers. `handler`
    /// runs once per task on a worker thread; a panic inside it is caught
    /// and counted (see [`PoolStats::panics`]), never fatal to the pool.
    pub fn new(opts: PoolOptions, handler: Arc<dyn Fn(T) + Send + Sync>) -> ElasticPool<T> {
        let mut opts = opts;
        opts.min_workers = opts.min_workers.max(1);
        opts.max_workers = opts.max_workers.max(opts.min_workers);
        let core = Arc::new(Core {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                closed: false,
                guests: 0,
                waiting_guests: 0,
            }),
            available: Condvar::new(),
            slot_freed: Condvar::new(),
            opts,
            stats: PoolStats::default(),
            worker_seq: AtomicUsize::new(0),
        });
        let pool = ElasticPool { core, handler };
        for _ in 0..pool.core.opts.min_workers {
            pool.spawn_worker();
        }
        pool
    }

    /// Enqueues a task, growing the pool when the backlog outruns the idle
    /// workers. Never blocks beyond the queue lock.
    pub fn submit(&self, task: T) {
        let depth = {
            let mut queue = self.core.queue.lock();
            queue.tasks.push_back(task);
            queue.tasks.len()
        };
        let stats = &self.core.stats;
        stats.queue_depth.store(depth, Ordering::Relaxed);
        stats.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
        self.core.available.notify_one();

        // Queue-depth growth rule: backlog deeper than the idle headcount
        // means every parked worker already has a task on the way — recruit.
        if depth > stats.idle_workers.load(Ordering::Relaxed) {
            self.try_grow();
        }
    }

    /// Runs `task` on the calling thread, as a guest of the pool — the
    /// path for a caller that would otherwise queue the task and sleep
    /// until a worker had run it. The guest is admitted while busy workers
    /// plus guests number fewer than `max_workers`, so the bound on heads
    /// inside the handler means the same whoever serves; past it the
    /// caller waits for a head to leave (the one time it blocks on another
    /// thread). A panic in `task` is caught and counted like a worker's,
    /// and the slot is released either way. Queued tasks are not gated on
    /// guests: with both kinds of traffic on one pool, heads can overshoot
    /// `max_workers` by the workers that pick up queued tasks meanwhile.
    pub fn serve_here(&self, task: impl FnOnce()) {
        let core = &*self.core;
        let stats = &core.stats;
        {
            let mut queue = core.queue.lock();
            loop {
                // `idle_workers` only moves under the queue lock; a grow
                // landing between the two loads can only undercount busy.
                let busy = stats.workers().saturating_sub(stats.idle_workers());
                let heads = busy + queue.guests;
                if heads < core.opts.max_workers {
                    stats.peak_workers.fetch_max(heads + 1, Ordering::Relaxed);
                    break;
                }
                queue.waiting_guests += 1;
                core.slot_freed.wait(&mut queue);
                queue.waiting_guests -= 1;
            }
            queue.guests += 1;
        }
        stats.run(task);
        stats.caller_served.fetch_add(1, Ordering::Relaxed);
        let mut queue = core.queue.lock();
        queue.guests -= 1;
        if queue.waiting_guests > 0 {
            core.slot_freed.notify_one();
        }
    }

    /// Spawns one worker if the pool is below `max_workers`.
    fn try_grow(&self) {
        let stats = &self.core.stats;
        let mut current = stats.workers.load(Ordering::Relaxed);
        loop {
            if current >= self.core.opts.max_workers {
                return;
            }
            match stats.workers.compare_exchange(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
        stats.grows.fetch_add(1, Ordering::Relaxed);
        stats.raise_peak(&stats.workers, &stats.peak_workers);
        self.spawn_thread();
    }

    fn spawn_worker(&self) {
        let stats = &self.core.stats;
        stats.workers.fetch_add(1, Ordering::Relaxed);
        stats.raise_peak(&stats.workers, &stats.peak_workers);
        self.spawn_thread();
    }

    /// The caller has already accounted for this worker in `stats.workers`.
    fn spawn_thread(&self) {
        let core = Arc::clone(&self.core);
        let handler = Arc::clone(&self.handler);
        let seq = core.worker_seq.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}-w{seq}", core.opts.name);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || Self::worker_loop(core, handler))
            .expect("spawn pool worker");
    }

    /// Effective retire window: the configured base, stretched for pools
    /// whose tasks are expensive (32 tasks' worth of warm-up is cheap
    /// insurance against thrashing spawn/retire cycles), capped at 1 s.
    fn retire_window(core: &Core<T>) -> Duration {
        let scaled = core.stats.service_ewma().saturating_mul(32);
        core.opts.idle_timeout.max(scaled).min(Duration::from_secs(1))
    }

    fn worker_loop(core: Arc<Core<T>>, handler: Arc<dyn Fn(T) + Send + Sync>) {
        let stats = &core.stats;
        loop {
            let task = {
                let mut queue = core.queue.lock();
                loop {
                    if let Some(task) = queue.tasks.pop_front() {
                        stats.queue_depth.store(queue.tasks.len(), Ordering::Relaxed);
                        break Some(task);
                    }
                    if queue.closed {
                        break None;
                    }
                    stats.idle_workers.fetch_add(1, Ordering::Relaxed);
                    if queue.waiting_guests > 0 {
                        core.slot_freed.notify_one();
                    }
                    let timed_out =
                        core.available.wait_for(&mut queue, Self::retire_window(&core)).timed_out();
                    stats.idle_workers.fetch_sub(1, Ordering::Relaxed);
                    if timed_out && queue.tasks.is_empty() && !queue.closed {
                        // Retire if that leaves the floor intact. The CAS
                        // runs under the queue lock, so two workers cannot
                        // both take the last above-floor slot.
                        let current = stats.workers.load(Ordering::Relaxed);
                        if current > core.opts.min_workers
                            && stats
                                .workers
                                .compare_exchange(
                                    current,
                                    current - 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            stats.retires.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            };
            let Some(task) = task else {
                // Queue closed and drained.
                stats.workers.fetch_sub(1, Ordering::Relaxed);
                return;
            };
            stats.run(|| handler(task));
        }
    }

    pub fn stats(&self) -> &PoolStats {
        &self.core.stats
    }

    /// Blocks until the queue is empty, every worker is parked and no
    /// guest is mid-service (or `timeout` elapses); returns whether it
    /// drained. Test/bench helper.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let drained = {
                let queue = self.core.queue.lock();
                queue.tasks.is_empty() && queue.guests == 0
            };
            let stats = &self.core.stats;
            if drained && stats.idle_workers.load(Ordering::Relaxed) >= stats.workers() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl<T: Send + 'static> Drop for ElasticPool<T> {
    fn drop(&mut self) {
        let mut queue = self.core.queue.lock();
        queue.closed = true;
        self.core.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn counting_pool(opts: PoolOptions) -> (ElasticPool<u64>, Arc<AtomicU64>) {
        let sum = Arc::new(AtomicU64::new(0));
        let sum2 = Arc::clone(&sum);
        let pool = ElasticPool::new(
            opts,
            Arc::new(move |x: u64| {
                sum2.fetch_add(x, Ordering::Relaxed);
            }),
        );
        (pool, sum)
    }

    #[test]
    fn runs_every_task() {
        let (pool, sum) = counting_pool(PoolOptions::adaptive("t", 1, 4));
        for i in 1..=100u64 {
            pool.submit(i);
        }
        assert!(pool.wait_idle(Duration::from_secs(5)));
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        assert_eq!(pool.stats().tasks(), 100);
    }

    #[test]
    fn grows_under_backlog_and_respects_max() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let pool = ElasticPool::new(
            PoolOptions::adaptive("t", 1, 3),
            Arc::new(move |_: u64| {
                let (lock, cv) = &*gate2;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
            }),
        );
        for i in 0..16 {
            pool.submit(i);
        }
        // Backlog forces growth to the cap, never past it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.stats().workers() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.stats().workers(), 3);
        assert_eq!(pool.stats().peak_workers(), 3);
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
        assert!(pool.wait_idle(Duration::from_secs(5)));
        assert_eq!(pool.stats().tasks(), 16);
    }

    #[test]
    fn shrinks_back_to_min_when_idle() {
        let (pool, _) =
            counting_pool(PoolOptions::adaptive("t", 1, 8).idle_timeout(Duration::from_millis(10)));
        for i in 0..64 {
            pool.submit(i);
        }
        assert!(pool.wait_idle(Duration::from_secs(5)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.stats().workers() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.stats().workers(), 1, "idle pool must shed down to min");
        assert!(pool.stats().retires() > 0);
        // And it still works afterwards.
        pool.submit(1);
        assert!(pool.wait_idle(Duration::from_secs(5)));
    }

    #[test]
    fn panicking_task_does_not_kill_the_pool() {
        let done = Arc::new(AtomicU64::new(0));
        let done2 = Arc::clone(&done);
        let pool = ElasticPool::new(
            PoolOptions::adaptive("t", 1, 1),
            Arc::new(move |x: u64| {
                if x == 13 {
                    panic!("injected");
                }
                done2.fetch_add(1, Ordering::Relaxed);
            }),
        );
        pool.submit(13);
        pool.submit(1);
        pool.submit(2);
        assert!(pool.wait_idle(Duration::from_secs(5)));
        assert_eq!(pool.stats().panics(), 1);
        assert_eq!(done.load(Ordering::Relaxed), 2, "tasks after the panic still run");
        assert_eq!(pool.stats().workers(), 1);
    }

    #[test]
    fn a_guest_holds_a_head_slot_until_it_returns_or_unwinds() {
        use std::sync::mpsc::channel;
        let (pool, _) = counting_pool(PoolOptions::adaptive("t", 1, 1));
        let (entered_tx, entered) = channel();
        let (go, gate) = channel::<()>();
        let (second_tx, second) = channel();
        std::thread::scope(|s| {
            let pool = &pool;
            s.spawn(move || {
                pool.serve_here(|| {
                    entered_tx.send(()).unwrap();
                    gate.recv().unwrap();
                })
            });
            entered.recv().unwrap();
            assert!(!pool.wait_idle(Duration::from_millis(20)), "a guest is mid-service");
            // The pool is one head wide: a second guest waits its turn.
            s.spawn(move || pool.serve_here(|| second_tx.send(()).unwrap()));
            assert!(second.recv_timeout(Duration::from_millis(20)).is_err());
            go.send(()).unwrap();
            second.recv_timeout(Duration::from_secs(5)).expect("admitted once the slot freed");
        });
        assert!(pool.wait_idle(Duration::from_secs(5)));
        pool.serve_here(|| panic!("injected"));
        pool.serve_here(|| {}); // a slot leaked by the unwind would hang this
        let stats = pool.stats();
        assert_eq!((stats.panics(), stats.tasks(), stats.caller_served()), (1, 4, 4));
        assert_eq!((stats.workers(), stats.peak_workers(), stats.grows()), (1, 1, 0));
    }
}
