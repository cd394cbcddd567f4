//! Bounded exponential backoff.
//!
//! Only the *lock-free baselines* (Valois-style reference counting, hazard
//! pointers, epoch reclamation, and the Treiber free-list) use backoff — a
//! retry loop that spins harder under contention benefits from it. The
//! wait-free algorithms of the paper never need it: every loop in `wfrc-core`
//! is bounded by construction, and inserting waits would only hurt their
//! worst case.

use core::hint;

/// Exponential backoff for CAS retry loops, modeled on
/// `crossbeam_utils::Backoff` but with the yield threshold exposed for the
/// single-CPU CI environment (where `spin_loop` alone can never make the
/// conflicting thread run).

#[derive(Debug)]
pub struct Backoff {
    step: u32,
    spin_limit: u32,
    yield_limit: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// Default spin threshold: up to `2^6` spin-loop hints per step.
    pub const SPIN_LIMIT: u32 = 6;
    /// Default yield threshold: beyond this, each step yields to the OS.
    pub const YIELD_LIMIT: u32 = 10;

    /// Creates a fresh backoff state.
    pub fn new() -> Self {
        Self {
            step: 0,
            spin_limit: Self::SPIN_LIMIT,
            yield_limit: Self::YIELD_LIMIT,
        }
    }

    /// Creates a backoff that yields to the OS immediately.
    ///
    /// Appropriate when the number of runnable threads exceeds the number of
    /// cores (the benchmark harness detects this and switches).
    pub fn yielding() -> Self {
        Self {
            step: 0,
            spin_limit: 0,
            yield_limit: Self::YIELD_LIMIT,
        }
    }

    /// Resets to the initial (cheapest) step.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Backs off after a failed CAS: spins exponentially longer each call,
    /// then starts yielding the thread once the spin budget is exhausted.
    pub fn snooze(&mut self) {
        if self.step <= self.spin_limit {
            for _ in 0..1u32 << self.step {
                hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step <= self.yield_limit {
            self.step += 1;
        }
    }

    /// True once the backoff has escalated to yielding; retry loops in the
    /// baselines use this to switch to heavier waiting or report contention.
    pub fn is_completed(&self) -> bool {
        self.step > self.spin_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_yielding() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..=Backoff::SPIN_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
    }

    #[test]
    fn reset_returns_to_spinning() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn yielding_mode_completes_immediately_after_one_snooze() {
        let mut b = Backoff::yielding();
        b.snooze();
        assert!(b.is_completed());
    }

    #[test]
    fn step_saturates() {
        let mut b = Backoff::new();
        for _ in 0..10_000 {
            b.snooze();
        }
        // Must not overflow the shift or the counter.
        b.snooze();
    }
}
