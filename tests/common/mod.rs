//! Helpers shared by several integration tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use wfrc::core::{Link, ThreadHandle, WfrcDomain};

/// How long [`raise_presence_bit`] may take before it fails the test.
const RAISE_DEADLINE: Duration = Duration::from_secs(30);

/// Raises `reader`'s announcement-presence bit the only way a dereference
/// can: through D1–D10, after its fast attempt missed. An uncontended
/// dereference returns from the fast attempt and never announces, so a
/// second thread (registered for the duration, then dropped) swings `link`
/// between two nodes holding `value` while `reader` dereferences it, until
/// a re-check catches a swing and the fallback raises the bit. Every
/// dereference must read `value`.
///
/// `link` must hold a node whose payload is `value`; afterwards it holds
/// one of the swinger's, with the same payload. The domain needs one free
/// registration slot and two free nodes.
pub fn raise_presence_bit<'d>(
    domain: &'d WfrcDomain<u64>,
    reader: &ThreadHandle<'d, u64>,
    link: &Link<u64>,
    value: u64,
) {
    /// Stops the swinger when dropped, so a failed assertion below still
    /// lets `thread::scope` join it instead of waiting forever.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let swinger = s.spawn(|| {
            let w = domain.register().expect("a free slot for the swinger");
            let a = w.alloc_with(|v| *v = value).expect("a free node");
            let b = w.alloc_with(|v| *v = value).expect("a free node");
            while !stop.load(Ordering::Relaxed) {
                w.store(link, Some(&a));
                w.store(link, Some(&b));
            }
        });
        let stop_swinger = StopOnDrop(&stop);
        let deadline = Instant::now() + RAISE_DEADLINE;
        while !domain.announcement_summary_bit(reader.tid()) && !swinger.is_finished() {
            assert!(
                Instant::now() < deadline,
                "no dereference fell back to D1-D10 within {RAISE_DEADLINE:?}"
            );
            assert_eq!(reader.deref(link).map(|g| *g), Some(value));
        }
        drop(stop_swinger);
        swinger.join().expect("the swinger never panics");
    });
}
