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

/// Decorrelated-jitter backoff schedule: each delay is drawn uniformly from
/// `[base, prev * 3]` and clamped to `cap` (the "decorrelated jitter"
/// variant popularized by the AWS architecture blog). Unlike [`Backoff`],
/// which *performs* the wait, this type only *computes* delays — the caller
/// decides whether a delay is spins, ticks, or nanoseconds — so the sentinel
/// can use it to space suspicion probes in tick units.
///
/// Deterministic: the internal SplitMix64 stream is fixed by `seed`, so two
/// schedules with the same `(base, cap, seed)` produce identical delays —
/// the property the seeded chaos tests rely on for reproducibility.
///
/// ```
/// use wfrc_primitives::DecorrelatedJitter;
///
/// let mut j = DecorrelatedJitter::new(10, 1_000, 42);
/// let first = j.next_delay();
/// assert!((10..=1_000).contains(&first));
/// // Replaying the same seed replays the same schedule.
/// let mut replay = DecorrelatedJitter::new(10, 1_000, 42);
/// assert_eq!(replay.next_delay(), first);
/// ```
#[derive(Debug, Clone)]
pub struct DecorrelatedJitter {
    base: u64,
    cap: u64,
    prev: u64,
    state: u64,
}

impl DecorrelatedJitter {
    /// Creates a schedule with delays in `[base, cap]` (`base` is raised to
    /// at least 1; `cap` to at least `base`).
    pub fn new(base: u64, cap: u64, seed: u64) -> Self {
        let base = base.max(1);
        Self {
            base,
            cap: cap.max(base),
            prev: base,
            state: seed,
        }
    }

    /// SplitMix64 step (same generator as `wfrc-sim::rng`, duplicated here
    /// because this crate sits below it in the dependency order).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws the next delay: `min(cap, uniform(base, prev * 3))`.
    #[must_use = "the delay must be applied by the caller"]
    pub fn next_delay(&mut self) -> u64 {
        let hi = self.prev.saturating_mul(3).clamp(self.base, self.cap);
        let span = hi - self.base + 1;
        let d = self.base + self.next_delay_raw() % span;
        self.prev = d;
        d
    }

    #[inline]
    fn next_delay_raw(&mut self) -> u64 {
        self.next_u64()
    }

    /// Returns to the initial (shortest) delay without disturbing the
    /// random stream.
    pub fn reset(&mut self) {
        self.prev = self.base;
    }

    /// The last delay produced (the `base` before any draw) — callers use
    /// this as a "retry after" hint without advancing the schedule.
    #[must_use]
    pub fn last_delay(&self) -> u64 {
        self.prev
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

    #[test]
    fn jitter_stays_in_bounds_and_replays() {
        let mut a = DecorrelatedJitter::new(5, 200, 0xBEEF);
        let mut b = DecorrelatedJitter::new(5, 200, 0xBEEF);
        for _ in 0..1_000 {
            let d = a.next_delay();
            assert!((5..=200).contains(&d), "delay {d} out of bounds");
            assert_eq!(d, b.next_delay(), "same seed must replay");
        }
    }

    #[test]
    fn jitter_reset_restarts_from_base() {
        let mut j = DecorrelatedJitter::new(7, 10_000, 1);
        for _ in 0..50 {
            let _ = j.next_delay();
        }
        j.reset();
        assert_eq!(j.last_delay(), 7);
        // After a reset the next draw is bounded by base*3 again.
        assert!(j.next_delay() <= 21);
    }

    #[test]
    fn jitter_degenerate_bounds() {
        // cap < base is raised; base 0 is raised to 1.
        let mut j = DecorrelatedJitter::new(0, 0, 9);
        for _ in 0..10 {
            assert_eq!(j.next_delay(), 1);
        }
    }
}
