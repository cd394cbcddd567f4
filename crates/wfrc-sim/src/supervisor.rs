//! Dedicated timer thread for the recovery helpers.
//!
//! Recovery in `wfrc_core` is an idempotent helper that anyone may call —
//! `Domain::adopt_orphans`, `LeasePool::recover_orphaned`. Most harnesses
//! (and the E10/E12 experiments) want it on a timer: one background thread
//! calling the helper at a fixed cadence while the workload threads never
//! think about recovery. This module provides that thread, closure-based
//! (`|| { domain.adopt_orphans(); }`) so this crate does not depend on
//! `wfrc-core`, which depends on this crate for its RNG.
//!
//! The thread stops when its [`Supervisor`] is dropped, so a panic that
//! unwinds out of the enclosing `thread::scope` ends the scope instead of
//! leaving it joining a thread that never stops.
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use wfrc_sim::supervisor::Supervisor;
//!
//! let ticks = AtomicU64::new(0);
//! std::thread::scope(|scope| {
//!     let _sup = Supervisor::spawn_scoped(
//!         scope,
//!         core::time::Duration::from_micros(50),
//!         || {
//!             ticks.fetch_add(1, Ordering::Relaxed);
//!         },
//!     );
//!     while ticks.load(Ordering::Relaxed) < 10 {
//!         std::thread::yield_now();
//!     }
//! });
//! assert!(ticks.load(Ordering::Relaxed) >= 10);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Duration;

use crate::exec::StopFlag;

/// Handle to a running supervisor thread: stop it, read its tick count.
/// The thread exits promptly after [`Supervisor::stop`], which dropping
/// the handle also calls; the scope joins it.
#[must_use = "dropping a Supervisor stops its thread"]
pub struct Supervisor {
    stop: Arc<StopFlag>,
    ticks: Arc<AtomicU64>,
}

impl Supervisor {
    /// Spawns a scoped supervisor thread calling `tick` every `period`
    /// (a zero period means back-to-back ticks with only a yield between).
    /// The thread runs until [`Supervisor::stop`] or until the handle drops.
    pub fn spawn_scoped<'scope, 'env, F>(
        scope: &'scope Scope<'scope, 'env>,
        period: Duration,
        tick: F,
    ) -> Supervisor
    where
        F: Fn() + Send + 'scope,
    {
        let stop = Arc::new(StopFlag::new());
        let ticks = Arc::new(AtomicU64::new(0));
        let (stop2, ticks2) = (Arc::clone(&stop), Arc::clone(&ticks));
        scope.spawn(move || run_loop(&stop2, &ticks2, period, tick));
        Supervisor { stop, ticks }
    }

    /// Signals the supervisor thread to exit after its current tick.
    pub fn stop(&self) {
        self.stop.stop();
    }

    /// Ticks performed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run_loop(stop: &StopFlag, ticks: &AtomicU64, period: Duration, tick: impl Fn()) {
    while !stop.is_stopped() {
        tick();
        ticks.fetch_add(1, Ordering::Relaxed);
        if period.is_zero() {
            std::thread::yield_now();
        } else {
            // Sleep in small slices so stop() is honored promptly even at
            // long periods.
            let mut left = period;
            while !stop.is_stopped() && !left.is_zero() {
                let slice = left.min(Duration::from_millis(1));
                std::thread::sleep(slice);
                left = left.saturating_sub(slice);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_supervisor_ticks_and_stops() {
        let count = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let sup = Supervisor::spawn_scoped(scope, Duration::ZERO, || {
                count.fetch_add(1, Ordering::Relaxed);
            });
            while count.load(Ordering::Relaxed) < 100 {
                std::thread::yield_now();
            }
            sup.stop();
        });
        let at_stop = count.load(Ordering::Relaxed);
        assert!(at_stop >= 100);
        // Joined: no more ticks happen.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(count.load(Ordering::Relaxed), at_stop);
    }

    /// A panic after `spawn_scoped` unwinds out of the scope: dropping the
    /// handle stops the thread the scope then joins. The scope runs on a
    /// helper thread and its result is awaited with a timeout, so a
    /// regression fails this test instead of hanging it.
    #[test]
    fn panic_in_scope_stops_the_supervisor() {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                std::thread::scope(|scope| {
                    let sup = Supervisor::spawn_scoped(scope, Duration::from_micros(50), || {});
                    while sup.ticks() == 0 {
                        std::thread::yield_now();
                    }
                    std::panic::resume_unwind(Box::new("assertion fired inside the scope"));
                })
            });
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the scope hung joining its supervisor");
        helper.join().expect("the helper catches the scope's panic");
        assert!(panicked, "the panic must propagate out of the scope");
    }
}
