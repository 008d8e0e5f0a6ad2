//! A counting global allocator, armed only for traced rounds.
//!
//! Disarmed, an allocation costs one relaxed load on top of the system
//! allocator, so untraced (end-to-end) runs keep the binary's allocator
//! behaviour. Armed, every `alloc`/`realloc` bumps two process-wide
//! counters that spans read on entry and exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: nothing is published through these, so `Relaxed`.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting requests while armed.
pub struct Counting;

fn count(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations on `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Pins glibc malloc's two moving thresholds for the life of the process:
/// never trim the heap top, and `mmap` only requests of 32 MiB and more
/// (the ceiling glibc's own dynamic threshold can reach).
///
/// Left dynamic, the thresholds follow the sizes a process happens to free,
/// and a run lands in one of two regimes: every training step faults its
/// activations in afresh (30 % of CPU time in the kernel, 15 minor faults
/// per item on `sampled_rmat`), or none does. Which one depends on where a
/// seed's buffer sizes fall, not on the code: the same commit read 12.2 k
/// items/s at seed 21 and 17.7 k at seed 27. Pinned, every seed runs in the
/// second regime, and buffers of 32 MiB and more (`node_fullbatch`'s) are
/// still mapped and faulted per allocation.
///
/// Returns whether both settings took; `false` where the C library is not
/// glibc.
pub fn pin_malloc_thresholds() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        // From glibc's <malloc.h>.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` stores a tuning value in malloc's own state
        // under malloc's lock; both parameters exist in every glibc and both
        // values are in the range mallopt(3) accepts.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Starts counting.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting; the totals stay readable.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far while armed.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test that arms the allocator, so concurrent tests cannot
    /// make the disarmed half count.
    #[test]
    fn counts_only_while_armed() {
        arm();
        let (a0, b0) = snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (a1, b1) = snapshot();
        disarm();
        drop(v);
        assert!(a1 > a0, "armed allocation was not counted");
        assert!(b1 - b0 >= 4096, "armed bytes were not counted");

        let before = snapshot();
        let w: Vec<u8> = Vec::with_capacity(4096);
        let after = snapshot();
        drop(w);
        assert_eq!(before, after, "disarmed allocation was counted");
    }
}
