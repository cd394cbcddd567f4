//! The cheapest monotonic clock the platform offers.
//!
//! A traced `pq` op crosses ~55 layer boundaries, so the clock read is the
//! tracing overhead. On x86-64 the time-stamp counter costs about half of
//! `Instant::now()` (15 ns against 31 ns per read on the seed box); elsewhere
//! the clock falls back to `Instant`, in nanoseconds since first use.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One clock reading, in ticks. Only differences are meaningful.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions; it reads a counter register.
        #[allow(unused_unsafe)]
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static ANCHOR: OnceLock<Instant> = OnceLock::new();
        ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per tick, measured once per process against `Instant` over
/// 20 ms (a relative error near 1e-5, far below run-to-run noise).
pub fn ns_per_tick() -> f64 {
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        let (t0, c0) = (Instant::now(), ticks());
        while t0.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let (ns, dt) = (t0.elapsed().as_nanos() as f64, ticks() - c0);
        ns / dt as f64
    })
}

/// Converts a tick difference to nanoseconds.
pub fn to_ns(ticks: u64) -> f64 {
    ticks as f64 * ns_per_tick()
}
