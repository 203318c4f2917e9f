//! Zero-initialised backing storage for the bucket array.
//!
//! On Linux the array is one anonymous private mapping of its own: the
//! kernel hands out zero pages lazily, so construction touches nothing,
//! each page is first written (and so placed) by whichever worker stores
//! into it, and dropping the table returns every page with one `munmap`.
//! Keeping the table out of the malloc heap also keeps it from sharing an
//! arena with the search's short-lived allocations, where a freshly
//! allocated table per game fragments the heap. Elsewhere — and if the
//! mapping fails — the array comes from `alloc_zeroed`.

use std::alloc::Layout;
use std::ptr::NonNull;

/// A fixed-length slice of `T`, zero-filled at construction.
pub(crate) struct ZeroedSlice<T> {
    ptr: NonNull<T>,
    len: usize,
    /// Frees `ptr` given the slice's layout: `munmap` or `dealloc`,
    /// whichever allocated it.
    release: unsafe fn(*mut u8, Layout),
}

// SAFETY: `ptr`/`len` own their elements exactly like a `Box<[T]>` does
// (nothing else points into the allocation), and `release` is a plain
// function pointer.
unsafe impl<T: Send> Send for ZeroedSlice<T> {}
// SAFETY: as for `Send`; shared access only hands out `&[T]`.
unsafe impl<T: Sync> Sync for ZeroedSlice<T> {}

impl<T> ZeroedSlice<T> {
    fn layout(len: usize) -> Layout {
        Layout::array::<T>(len).expect("slice size overflows isize")
    }

    /// [`Self::layout`] for a new slice, which must not be zero-sized and
    /// must hold elements that need no drop (they are never dropped).
    fn new_layout(len: usize) -> Layout {
        assert!(len > 0 && size_of::<T>() > 0, "zero-sized slice");
        assert!(!std::mem::needs_drop::<T>(), "elements are never dropped");
        Self::layout(len)
    }

    /// `len` zeroed elements in their own anonymous mapping on Linux, on
    /// the heap elsewhere or when the mapping fails.
    ///
    /// # Safety
    ///
    /// The all-zero bit pattern must be a valid `T`.
    pub(crate) unsafe fn new(len: usize) -> ZeroedSlice<T> {
        // SAFETY: the caller vouches for all-zero `T`s.
        #[cfg(target_os = "linux")]
        if let Some(s) = unsafe { Self::mapped(len) } {
            return s;
        }
        // SAFETY: as above.
        unsafe { Self::on_heap(len) }
    }

    /// `len` zeroed elements from `alloc_zeroed`.
    ///
    /// # Safety
    ///
    /// The all-zero bit pattern must be a valid `T`.
    unsafe fn on_heap(len: usize) -> ZeroedSlice<T> {
        let layout = Self::new_layout(len);
        // SAFETY: `new_layout` asserted a non-zero size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let ptr =
            NonNull::new(raw.cast()).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        ZeroedSlice {
            ptr,
            len,
            release: std::alloc::dealloc,
        }
    }

    /// `len` zeroed elements in a fresh anonymous mapping, or `None` if
    /// the kernel refuses one.
    ///
    /// # Safety
    ///
    /// The all-zero bit pattern must be a valid `T`.
    #[cfg(target_os = "linux")]
    unsafe fn mapped(len: usize) -> Option<ZeroedSlice<T>> {
        let layout = Self::new_layout(len);
        // Mappings are page-aligned; no element type here needs more.
        assert!(layout.align() <= 4096);
        let ptr = mmap::map_zeroed(layout.size())?;
        Some(ZeroedSlice {
            ptr: ptr.cast(),
            len,
            release: mmap::unmap,
        })
    }
}

impl<T> std::ops::Deref for ZeroedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` holds `len` initialised (zeroed) elements for the
        // slice's whole life.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for ZeroedSlice<T> {
    fn drop(&mut self) {
        // SAFETY: `release` is the deallocator matching the constructor
        // that produced `ptr`, called once with the same layout.
        unsafe { (self.release)(self.ptr.as_ptr().cast(), Self::layout(self.len)) }
    }
}

/// `mmap(2)`/`munmap(2)` through the libc symbols std already links (no
/// new dependency).
#[cfg(target_os = "linux")]
mod mmap {
    use std::alloc::Layout;
    use std::ffi::c_void;
    use std::ptr::NonNull;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = if cfg!(any(target_arch = "mips", target_arch = "mips64")) {
        0x800
    } else {
        0x20
    };
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        // `off_t` is a C `long` in this (non-LFS) signature: `isize`.
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: isize,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `bytes` of fresh zero pages, or `None` on failure.
    pub(super) fn map_zeroed(bytes: usize) -> Option<NonNull<u8>> {
        let prot = PROT_READ | PROT_WRITE;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS;
        // SAFETY: an anonymous mapping at a kernel-chosen address touches
        // no existing memory.
        let p = unsafe { mmap(std::ptr::null_mut(), bytes, prot, flags, -1, 0) };
        if p == MAP_FAILED {
            None
        } else {
            NonNull::new(p.cast())
        }
    }

    /// Returns a [`map_zeroed`] mapping to the kernel. A failure (which
    /// valid arguments cannot cause) leaks the range instead of panicking.
    ///
    /// # Safety
    ///
    /// `ptr` and `layout.size()` must be a live mapping from
    /// [`map_zeroed`], not used again afterwards.
    pub(super) unsafe fn unmap(ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller hands over a live mapping of this size.
        unsafe { munmap(ptr.cast(), layout.size()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[repr(align(64))]
    struct Line([u64; 8]);

    /// The non-Linux path (the table tests cover the mapping).
    #[test]
    fn heap_fallback_is_zeroed_and_aligned() {
        for len in [1usize, 3, 1024] {
            // SAFETY: `Line` is plain integers.
            let s = unsafe { ZeroedSlice::<Line>::on_heap(len) };
            assert_eq!(s.len(), len);
            for line in s.iter() {
                assert_eq!(line as *const Line as usize % 64, 0);
                assert_eq!(line.0, [0; 8]);
            }
        }
    }
}
