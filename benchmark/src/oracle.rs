//! Output checks. An integrity violation is not a failed op: it fails the
//! whole run, which prints what broke and exits non-zero.

use std::sync::Mutex;

use wfrc_core::LeakReport;

/// Oracle violations seen by any thread; a non-empty log fails the run.
#[derive(Default)]
pub struct Integrity(Mutex<Vec<String>>);

impl Integrity {
    #[cold]
    fn violation(&self, msg: String) {
        let mut log = self.0.lock().expect("integrity log poisoned");
        if log.len() < 8 {
            log.push(msg);
        }
    }

    /// Records `msg()` unless `ok`.
    #[inline]
    pub fn check(&self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.violation(msg());
        }
    }

    pub fn into_result(self) -> Result<(), String> {
        let log = self.0.into_inner().expect("integrity log poisoned");
        if log.is_empty() {
            Ok(())
        } else {
            Err(log.join("; "))
        }
    }
}

fn pattern_word(key: u64, len: usize, j: usize) -> [u8; 8] {
    (key ^ ((len as u64) << 48))
        .wrapping_add(j as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .to_le_bytes()
}

/// Fills `buf` with the value pattern of `(key, buf.len())`.
pub fn fill_pattern(key: u64, buf: &mut [u8]) {
    let len = buf.len();
    for (j, chunk) in buf.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&pattern_word(key, len, j)[..chunk.len()]);
    }
}

/// True if every byte of `bytes` is the pattern of `(key, bytes.len())`.
pub fn check_pattern(key: u64, bytes: &[u8]) -> bool {
    let len = bytes.len();
    bytes
        .chunks(8)
        .enumerate()
        .all(|(j, chunk)| chunk == &pattern_word(key, len, j)[..chunk.len()])
}

/// Conservation: everything that went in came out during the run or in the
/// teardown drain. `what` names the quantity (a count or a wrapping sum).
pub fn check_balance(integrity: &Integrity, what: &str, put_in: u64, taken: u64, drained: u64) {
    integrity.check(put_in == taken.wrapping_add(drained), || {
        format!("{what}: in {put_in} != taken {taken} + drained {drained}")
    });
}

/// The quiescent leak audit: every node and every class block accounted
/// for, no weak count left.
pub fn check_leaks(integrity: &Integrity, report: &LeakReport) {
    integrity.check(report.is_clean() && report.weak_count == 0, || {
        format!("leak check not clean: {report:?}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfrc_core::{DomainConfig, WfrcDomain};

    #[test]
    fn pattern_round_trip_and_flipped_byte() {
        for len in [1, 7, 8, 57, 64, 249, 1024] {
            let mut buf = vec![0u8; len];
            fill_pattern(0x1234, &mut buf);
            assert!(check_pattern(0x1234, &buf), "len {len}");
            assert!(!check_pattern(0x1235, &buf), "other key, len {len}");
            for at in [0, len / 2, len - 1] {
                buf[at] ^= 0x10;
                assert!(!check_pattern(0x1234, &buf), "flip at {at} of {len}");
                buf[at] ^= 0x10;
            }
        }
        // The length is part of the pattern: a truncated value fails.
        let mut buf = vec![0u8; 64];
        fill_pattern(9, &mut buf);
        assert!(!check_pattern(9, &buf[..56]));
    }

    #[test]
    fn skewed_checksum_fails() {
        let ok = Integrity::default();
        check_balance(&ok, "nodes", 10, 4, 6);
        check_balance(&ok, "sum", 3, u64::MAX, 4); // wrapping sums
        assert!(ok.into_result().is_ok());
        let bad = Integrity::default();
        check_balance(&bad, "nodes", 10, 4, 5);
        let err = bad.into_result().unwrap_err();
        assert!(err.contains("nodes"), "{err}");
    }

    #[test]
    fn leaked_node_fails_the_audit() {
        let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 16));
        let h = domain.register().unwrap();
        let leaked = h.alloc_raw().unwrap();
        drop(h);
        let bad = Integrity::default();
        check_leaks(&bad, &domain.leak_check());
        assert!(bad.into_result().unwrap_err().contains("leak check"));
        // Releasing it makes the same audit pass.
        let h = domain.register().unwrap();
        // SAFETY: `leaked` carries the one reference `alloc_raw` handed out.
        unsafe { h.release_raw(leaked) };
        drop(h);
        let ok = Integrity::default();
        check_leaks(&ok, &domain.leak_check());
        assert!(ok.into_result().is_ok());
    }
}
