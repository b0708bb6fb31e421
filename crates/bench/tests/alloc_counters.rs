//! The counting allocator's live-byte and peak counters.
//!
//! The counters are process-wide, so a concurrent free on another thread
//! (any other test of a shared test binary) can land between an allocation
//! and the check that reads it. This binary therefore holds exactly one
//! test, and the checks run in sequence inside it.

use pardec_bench::alloc::{current_bytes, enabled, peak_bytes, reset_peak};

#[test]
fn counters_track_live_bytes_and_peak() {
    if !enabled() {
        return;
    }
    // A live allocation moves both counters; the peak survives the drop.
    reset_peak();
    let before = current_bytes();
    let v: Vec<u8> = Vec::with_capacity(1 << 20);
    assert!(current_bytes() >= before + (1 << 20));
    assert!(peak_bytes() >= before + (1 << 20));
    drop(v);
    assert!(current_bytes() < before + (1 << 20));
    assert!(peak_bytes() >= before + (1 << 20));

    // `reset_peak` rebases the high-water mark to the live bytes.
    let v: Vec<u8> = Vec::with_capacity(1 << 16);
    reset_peak();
    assert!(peak_bytes() <= current_bytes() + 1024);
    drop(v);
}
