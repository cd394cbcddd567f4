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
}
