//! Counting global allocator for bench-side memory accounting.
//!
//! Wraps [`std::alloc::System`] and tracks the number of live heap bytes
//! plus the high-water mark, so every JSONL bench row can report
//! `peak_alloc_bytes` — the resident-heap figure the compressed-backend
//! acceptance criterion is judged on. Registered as the global allocator
//! only inside this crate (binaries and benches) behind the default-on
//! `count-alloc` feature; the library crates never pay for it.
//!
//! Counters are plain relaxed atomics: the peak is maintained with a
//! `fetch_max` CAS loop, so concurrent allocations from rayon workers are
//! tallied without locks. The numbers are *requested* bytes (the `Layout`
//! size), not allocator-internal slack, which is exactly what the
//! bytes-per-edge comparisons in `bench_compressed` want.
//!
//! The two shared counters cost real time under parallel allocation
//! pressure — roughly 2× on the allocation-heavy `bench_mr_primitives`
//! cases (`crates/bench/results/mr_primitives_scratch.jsonl`). Memory
//! rows stay honest either way; for timing-focused comparisons run the
//! bench with `--no-default-features` to drop back to the system
//! allocator (rows then report `peak_alloc_bytes: 0`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A [`GlobalAlloc`] that forwards to [`System`] and counts bytes.
pub struct CountingAlloc;

/// Live bytes and their high-water mark. The allocator updates the one
/// process-wide instance, [`COUNTERS`].
struct Counters {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl Counters {
    const fn new() -> Self {
        Counters {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn on_alloc(&self, size: usize) {
        let now = self.current.fetch_add(size, Relaxed) + size;
        self.peak.fetch_max(now, Relaxed);
    }

    #[inline]
    fn on_dealloc(&self, size: usize) {
        self.current.fetch_sub(size, Relaxed);
    }

    fn current(&self) -> usize {
        self.current.load(Relaxed)
    }

    fn peak(&self) -> usize {
        self.peak.load(Relaxed)
    }

    fn reset_peak(&self) {
        self.peak.store(self.current(), Relaxed);
    }
}

static COUNTERS: Counters = Counters::new();

// SAFETY: pure pass-through to `System`; the atomics never affect the
// pointers handed back to callers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            COUNTERS.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            COUNTERS.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        COUNTERS.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            COUNTERS.on_dealloc(layout.size());
            COUNTERS.on_alloc(new_size);
        }
        p
    }
}

/// Live heap bytes right now (0 when the counting allocator is disabled).
pub fn current_bytes() -> usize {
    COUNTERS.current()
}

/// High-water mark of live heap bytes since start / last [`reset_peak`]
/// (0 when the counting allocator is disabled).
pub fn peak_bytes() -> usize {
    COUNTERS.peak()
}

/// Restarts the high-water mark from the current live figure, so each
/// bench phase can report its own peak.
pub fn reset_peak() {
    COUNTERS.reset_peak();
}

/// True when the counting allocator is registered (`count-alloc` feature).
pub fn enabled() -> bool {
    cfg!(feature = "count-alloc")
}

#[cfg(test)]
mod tests {
    // These run on a private `Counters`: the process-wide one also moves
    // with every other test of this binary. `tests/alloc_counters.rs`
    // checks the registered allocator itself, alone in its own binary.
    use super::*;

    #[test]
    fn counts_move_with_allocations() {
        let c = Counters::new();
        c.on_alloc(4096);
        c.reset_peak();
        let before = c.current();
        c.on_alloc(1 << 20);
        assert_eq!(c.current(), before + (1 << 20));
        assert_eq!(c.peak(), before + (1 << 20));
        c.on_dealloc(1 << 20);
        assert_eq!(c.current(), before);
        // Peak survives the drop.
        assert_eq!(c.peak(), before + (1 << 20));
    }

    #[test]
    fn reset_peak_rebases_to_current() {
        let c = Counters::new();
        c.on_alloc(1 << 20);
        c.on_dealloc(1 << 20);
        c.on_alloc(1 << 16);
        assert_eq!(c.peak(), 1 << 20);
        c.reset_peak();
        assert_eq!(c.peak(), c.current());
        assert_eq!(c.peak(), 1 << 16);
        c.on_dealloc(1 << 16);
        assert_eq!(c.peak(), 1 << 16);
    }
}
