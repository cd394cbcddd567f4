//! Thread executors for experiments.
//!
//! Every experiment cell follows the same shape: spawn `n` workers, hold
//! them at a barrier so measurement starts simultaneously, run either a
//! fixed operation count (paper-era methodology — identical work per
//! scheme) or a fixed duration, and collect per-thread results. These
//! helpers own the spawning/joining boilerplate so the `bench/` binaries
//! contain only workload logic.

use core::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A shared stop signal for fixed-duration runs and interference threads.
#[derive(Debug, Default)]
pub struct StopFlag(AtomicBool);

impl StopFlag {
    /// Creates an un-raised flag.
    pub fn new() -> Self {
        Self(AtomicBool::new(false))
    }

    /// Raises the flag.
    pub fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once raised.
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// A guard that raises the flag when dropped — on the success path and
    /// when its owner unwinds, so a failed assertion in the thread the
    /// others wait on ends a `thread::scope` instead of hanging it.
    pub fn stop_on_drop(&self) -> StopOnDrop<'_> {
        StopOnDrop(self)
    }
}

/// Raises its [`StopFlag`] on drop (see [`StopFlag::stop_on_drop`]).
#[derive(Debug)]
pub struct StopOnDrop<'a>(&'a StopFlag);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Runs `threads` workers, each executing `worker(thread_index)` after a
/// common barrier, and returns `(per-thread results, wall time of the
/// measured section)`.
///
/// `worker` factories run *before* the barrier (setup excluded from
/// timing); the returned closure is the measured body. The wall time is
/// the global span `max(worker end) − min(worker start)`, with the
/// timestamps taken *inside* the workers: a coordinator-side clock would
/// under-measure on oversubscribed machines (the coordinator may not be
/// rescheduled until the workers have already finished), and per-worker
/// elapsed times would under-measure when workers run serially on one
/// core.
pub fn run_fixed_ops<R, F, W>(threads: usize, make_worker: F) -> (Vec<R>, Duration)
where
    R: Send + 'static,
    F: Fn(usize) -> W,
    W: FnOnce() -> R + Send + 'static,
{
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let body = make_worker(t);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let start = Instant::now();
                let r = body();
                (r, start, Instant::now())
            })
        })
        .collect();
    let mut results = Vec::with_capacity(threads);
    let mut first_start: Option<Instant> = None;
    let mut last_end: Option<Instant> = None;
    for h in handles {
        let (r, start, end) = h.join().unwrap();
        results.push(r);
        first_start = Some(first_start.map_or(start, |s: Instant| s.min(start)));
        last_end = Some(last_end.map_or(end, |e: Instant| e.max(end)));
    }
    let wall = match (first_start, last_end) {
        (Some(s), Some(e)) => e.duration_since(s),
        _ => Duration::ZERO,
    };
    (results, wall)
}

/// Runs `threads` workers for `duration`; each worker is a loop body
/// called repeatedly until the stop flag rises, returning its result at
/// the end. Returns per-thread results and the actual wall time.
pub fn run_timed<R, F, W>(threads: usize, duration: Duration, make_worker: F) -> (Vec<R>, Duration)
where
    R: Send + 'static,
    F: Fn(usize, Arc<StopFlag>) -> W,
    W: FnOnce() -> R + Send + 'static,
{
    let stop = Arc::new(StopFlag::new());
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let body = make_worker(t, Arc::clone(&stop));
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                body()
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.stop();
    let results = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = start.elapsed();
    (results, wall)
}

// ---------------------------------------------------------------------------
// Minimal poll-loop async executor
// ---------------------------------------------------------------------------

/// Run-queue state shared between workers and wakers. `'static` so the
/// task-id wakers (which must be `'static` per [`std::task::Wake`]) can
/// hold it while the futures themselves borrow stack data.
struct ExecShared {
    queue: std::sync::Mutex<std::collections::VecDeque<usize>>,
    ready: std::sync::Condvar,
    /// One flag per task: set while the task id sits in the queue, so a
    /// storm of wakes enqueues it at most once (the id is popped and the
    /// flag cleared *before* the poll, the standard re-arm protocol).
    scheduled: Vec<AtomicBool>,
    /// Tasks not yet complete; workers exit when it reaches zero.
    live: core::sync::atomic::AtomicUsize,
}

impl ExecShared {
    fn enqueue(&self, id: usize) {
        if !self.scheduled[id].swap(true, Ordering::AcqRel) {
            self.queue.lock().unwrap().push_back(id);
            self.ready.notify_one();
        }
    }
}

struct TaskWaker {
    shared: Arc<ExecShared>,
    id: usize,
}

impl std::task::Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.shared.enqueue(self.id);
    }
}

type BoxedTask<'a> = core::pin::Pin<Box<dyn core::future::Future<Output = ()> + Send + 'a>>;

/// A minimal poll-loop executor: a `Mutex<VecDeque>` run queue drained by
/// `workers` scoped threads, task-id wakers, no I/O, no timers. Exists so
/// experiments can drive tens of thousands of concurrent *tasks* (not
/// threads) against the memory-management schemes — the E12 server bench
/// and the lease-pool stress tests — without an external runtime.
///
/// Futures may borrow data outliving the executor (lifetime `'env`);
/// [`PollLoop::run`] joins its scoped workers before returning, so no
/// task outlives the borrow.
pub struct PollLoop<'env> {
    tasks: Vec<std::sync::Mutex<Option<BoxedTask<'env>>>>,
}

impl<'env> PollLoop<'env> {
    /// Creates an empty executor.
    pub fn new() -> Self {
        Self { tasks: Vec::new() }
    }

    /// Queues a future; it first runs inside [`PollLoop::run`].
    pub fn spawn(&mut self, fut: impl core::future::Future<Output = ()> + Send + 'env) {
        self.tasks.push(std::sync::Mutex::new(Some(Box::pin(fut))));
    }

    /// Number of spawned tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task has been spawned.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Polls every spawned task to completion on `workers` threads and
    /// returns the wall time of the whole drain. Consumes the executor:
    /// one batch, one run — the experiment shape (spawn M tasks, drain).
    pub fn run(self, workers: usize) -> Duration {
        let n = self.tasks.len();
        if n == 0 {
            return Duration::ZERO;
        }
        let workers = workers.max(1);
        let shared = Arc::new(ExecShared {
            queue: std::sync::Mutex::new((0..n).collect()),
            ready: std::sync::Condvar::new(),
            scheduled: (0..n).map(|_| AtomicBool::new(true)).collect(),
            live: core::sync::atomic::AtomicUsize::new(n),
        });
        let tasks = &self.tasks;
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let shared = Arc::clone(&shared);
                s.spawn(move || loop {
                    let id = {
                        let mut q = shared.queue.lock().unwrap();
                        loop {
                            if let Some(id) = q.pop_front() {
                                break id;
                            }
                            if shared.live.load(Ordering::Acquire) == 0 {
                                return;
                            }
                            // Timed wait: a worker parked between a task's
                            // final completion and the notify below must
                            // still observe live == 0.
                            let (guard, _) = shared
                                .ready
                                .wait_timeout(q, Duration::from_millis(1))
                                .unwrap();
                            q = guard;
                        }
                    };
                    // Re-arm before polling: a wake landing mid-poll must
                    // re-enqueue (the classic lost-wakeup protocol).
                    shared.scheduled[id].store(false, Ordering::Release);
                    let mut slot = tasks[id].lock().unwrap();
                    let Some(fut) = slot.as_mut() else {
                        continue; // spurious re-enqueue of a finished task
                    };
                    let waker = std::task::Waker::from(Arc::new(TaskWaker {
                        shared: Arc::clone(&shared),
                        id,
                    }));
                    let mut cx = std::task::Context::from_waker(&waker);
                    // Catch task panics so a dying task still counts as
                    // drained — otherwise `live` never reaches 0 and the
                    // remaining workers wait forever. The panic is
                    // re-raised here and surfaces from `run` when the
                    // scope joins this worker.
                    let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        fut.as_mut().poll(&mut cx)
                    }));
                    let done = match &polled {
                        Ok(poll) => poll.is_ready(),
                        Err(_) => true,
                    };
                    if done {
                        *slot = None;
                        drop(slot);
                        if shared.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                            shared.ready.notify_all();
                        }
                    }
                    if let Err(payload) = polled {
                        std::panic::resume_unwind(payload);
                    }
                });
            }
        });
        start.elapsed()
    }
}

impl Default for PollLoop<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ops_runs_every_worker_once() {
        let (results, wall) = run_fixed_ops(4, |t| move || t * 2);
        assert_eq!(results, vec![0, 2, 4, 6]);
        assert!(wall > Duration::ZERO);
    }

    #[test]
    fn timed_run_stops_workers() {
        let (results, wall) = run_timed(2, Duration::from_millis(50), |_, stop| {
            move || {
                let mut n = 0u64;
                while !stop.is_stopped() {
                    n += 1;
                }
                n
            }
        });
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|&n| n > 0));
        assert!(wall >= Duration::from_millis(50));
    }

    #[test]
    fn stop_flag_latches() {
        let f = StopFlag::new();
        assert!(!f.is_stopped());
        f.stop();
        assert!(f.is_stopped());
        f.stop();
        assert!(f.is_stopped());
    }

    #[test]
    fn poll_loop_drains_every_task() {
        use core::sync::atomic::AtomicUsize;
        let done = AtomicUsize::new(0);
        let mut exec = PollLoop::new();
        for _ in 0..100 {
            exec.spawn(async {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(exec.len(), 100);
        exec.run(4);
        assert_eq!(done.load(Ordering::Relaxed), 100);
    }

    /// A future that returns `Pending` `n` times, waking itself from a
    /// separate thread each time — exercises the waker path (including
    /// wakes that land while the task is not in the queue).
    struct YieldBounce {
        remaining: usize,
    }

    impl core::future::Future for YieldBounce {
        type Output = ();
        fn poll(
            mut self: core::pin::Pin<&mut Self>,
            cx: &mut std::task::Context<'_>,
        ) -> std::task::Poll<()> {
            if self.remaining == 0 {
                return std::task::Poll::Ready(());
            }
            self.remaining -= 1;
            let waker = cx.waker().clone();
            std::thread::spawn(move || waker.wake());
            std::task::Poll::Pending
        }
    }

    #[test]
    fn poll_loop_handles_cross_thread_wakes() {
        use core::sync::atomic::AtomicUsize;
        let done = AtomicUsize::new(0);
        let mut exec = PollLoop::new();
        for _ in 0..32 {
            exec.spawn(async {
                YieldBounce { remaining: 3 }.await;
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        exec.run(3);
        assert_eq!(done.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn poll_loop_tasks_can_borrow_the_stack() {
        use core::sync::atomic::AtomicU64;
        let sum = AtomicU64::new(0);
        let values: Vec<u64> = (1..=10).collect();
        let mut exec = PollLoop::new();
        for v in &values {
            let sum = &sum;
            exec.spawn(async move {
                sum.fetch_add(*v, Ordering::Relaxed);
            });
        }
        exec.run(2);
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn empty_poll_loop_returns_immediately() {
        let exec = PollLoop::new();
        assert!(exec.is_empty());
        assert_eq!(exec.run(8), Duration::ZERO);
    }

    /// A panicking task must count as drained (or `live` never reaches 0
    /// and the surviving workers wait forever); the panic surfaces from
    /// `run` once everything else has finished.
    #[test]
    fn poll_loop_survives_a_panicking_task() {
        use core::sync::atomic::AtomicU64;
        let done = AtomicU64::new(0);
        let mut exec = PollLoop::new();
        for task in 0..8u64 {
            let done = &done;
            exec.spawn(async move {
                if task == 3 {
                    panic!("task blew up");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.run(2)));
        assert!(result.is_err(), "the task's panic must surface from run");
        assert_eq!(done.load(Ordering::Relaxed), 7, "the other tasks drain");
    }
}
