//! Cache-line padding.
//!
//! Two logically independent atomics that share a 64-byte cache line are
//! not independent to the hardware: every write by one core invalidates
//! the line in every other core's cache, so the unrelated neighbour pays a
//! coherence miss on its next access ("false sharing"). The fix is purely
//! a layout property: force each hot location onto its own line.
//!
//! [`CachePadded`] is the std-only vehicle for that fix, used by the
//! transposition table's counter stripes. The 64-byte figure is
//! the line size of every x86-64 and the dominant aarch64 configuration;
//! on machines with 128-byte lines the padding degrades gracefully to
//! "two locations per line", which is still strictly better than the
//! unpadded layout.

/// Aligns (and therefore pads) `T` to a 64-byte cache line.
///
/// `size_of::<CachePadded<T>>()` is the smallest multiple of 64 holding a
/// `T`, and its address is 64-byte aligned, so two distinct
/// `CachePadded<T>` values never share a line (asserted at compile time
/// below for the sizes this workspace relies on).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Consumes the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> CachePadded<T> {
        CachePadded::new(value)
    }
}

// Compile-time layout guarantees: a padded value owns at least one full
// line, alignment is the line size, and small payloads round up to
// exactly one line.
const _: () = {
    use std::mem::{align_of, size_of};
    use std::sync::atomic::{AtomicU64, AtomicUsize};
    assert!(align_of::<CachePadded<u8>>() == 64);
    assert!(size_of::<CachePadded<u8>>() == 64);
    assert!(size_of::<CachePadded<AtomicUsize>>() == 64);
    assert!(size_of::<CachePadded<AtomicU64>>() == 64);
    assert!(size_of::<CachePadded<[AtomicU64; 8]>>() == 64);
    assert!(size_of::<CachePadded<[u8; 65]>>() == 128);
};

#[cfg(test)]
mod sizes {
    use super::*;
    use std::mem::{align_of, size_of};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn padded_values_occupy_whole_lines() {
        assert_eq!(size_of::<CachePadded<AtomicUsize>>(), 64);
        assert_eq!(align_of::<CachePadded<AtomicUsize>>(), 64);
        // An array of padded values puts each element on its own line.
        let pair: [CachePadded<AtomicUsize>; 2] = [
            CachePadded::new(AtomicUsize::new(0)),
            CachePadded::new(AtomicUsize::new(0)),
        ];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert_eq!(a % 64, 0);
        assert_eq!(b - a, 64);
    }

    #[test]
    fn deref_and_into_inner_round_trip() {
        let mut p = CachePadded::new(41u32);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(CachePadded::new(7u8).into_inner(), 7);
        assert_eq!(CachePadded::from(3i64).into_inner(), 3);
    }
}
