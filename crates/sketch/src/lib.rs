//! # pardec-sketch — probabilistic distinct-count sketches
//!
//! The HADI baseline of the paper (Kang et al., TKDD'11 — the MapReduce
//! version of ANF, Palmer et al., KDD'02) estimates the *neighbourhood
//! function* `N(t) = |{(u, v) : dist(u, v) ≤ t}|` by maintaining one
//! distinct-count sketch per node and OR-merging sketches along edges once
//! per BFS level. This crate provides the two sketch families used by that
//! line of work:
//!
//! * [`FmSketch`] — Flajolet–Martin probabilistic counters with `K`
//!   independent trials, exactly as in ANF/HADI (merge = bitwise OR,
//!   estimate `2^{R̄}/0.77351` from the mean least-zero-bit position);
//! * [`HllSketch`] — HyperLogLog registers (merge = element-wise max), the
//!   sketch behind HyperANF, with linear-counting small-range correction.
//!
//! Both are deterministic given their construction seed and form a **merge
//! semilattice** (commutative, associative, idempotent) — the property the
//! vertex-program propagation relies on; it is enforced by property tests.
//!
//! ```
//! use pardec_sketch::{DistinctCounter, FmSketch};
//!
//! let mut a = FmSketch::new(32, 7);
//! let mut b = FmSketch::new(32, 7);
//! for x in 0..600u64 { a.add(x); }
//! for x in 400..1000u64 { b.add(x); }
//! a.merge(&b);
//! let est = a.estimate();
//! assert!(est > 500.0 && est < 2000.0, "estimate {est}");
//! ```

mod fm;
pub mod hash;
mod hll;

pub use fm::FmSketch;
pub use hll::HllSketch;

/// Common interface over the two sketch families, letting HADI be generic in
/// the sketch it propagates.
pub trait DistinctCounter: Clone + Send + Sync {
    /// Inserts an element (by 64-bit id).
    fn add(&mut self, item: u64);
    /// Merges another sketch of the same family/seed into this one.
    fn merge(&mut self, other: &Self);
    /// Estimated number of distinct inserted elements.
    fn estimate(&self) -> f64;
    /// Returns `true` if `merge(other)` would change this sketch — the
    /// convergence signal of sketch propagation.
    fn would_change(&self, other: &Self) -> bool;
}
