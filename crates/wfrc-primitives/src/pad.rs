//! Cache-line padding.
//!
//! The announcement matrix, free-list heads, and per-thread counters are all
//! written by different threads at high frequency; packing them into shared
//! cache lines would add false sharing on top of the true sharing the
//! algorithms already pay for. Every per-thread global in this workspace is
//! wrapped in [`CachePadded`].

use core::ops::{Deref, DerefMut};

/// Alignment used for padding.
///
/// 128 bytes rather than 64: modern x86 prefetches cache-line pairs, and
/// Apple/ARM server parts use 128-byte lines; this matches what
/// `crossbeam_utils::CachePadded` does on those targets.
pub const CACHE_LINE: usize = 128;

/// Pads and aligns a value to [`CACHE_LINE`] bytes so that two adjacent
/// `CachePadded<T>` never share a cache line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in padding.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_values_do_not_share_lines() {
        let pair = [CachePadded::new(0u8), CachePadded::new(0u8)];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert!(b - a >= CACHE_LINE);
    }

    #[test]
    fn alignment_is_cache_line() {
        assert_eq!(core::mem::align_of::<CachePadded<u8>>(), CACHE_LINE);
        assert_eq!(core::mem::align_of::<CachePadded<[u64; 40]>>(), CACHE_LINE);
    }

    #[test]
    fn deref_roundtrip() {
        let mut p = CachePadded::new(5u32);
        *p += 1;
        assert_eq!(*p, 6);
        assert_eq!(p.into_inner(), 6);
    }
}
