//! Flajolet–Martin probabilistic counters — the sketch of ANF and HADI.

use crate::hash::hash_with;
use crate::DistinctCounter;

/// Magic constant from Flajolet & Martin (1985): `E[2^R] ≈ 0.77351 · n`.
const PHI: f64 = 0.77351;

/// An FM sketch: `trials` independent 64-bit bitmaps. Inserting an element
/// sets, in each trial, the bit whose index is geometrically distributed
/// (`P(bit = i) = 2^{-(i+1)}`); the estimate is `2^{R̄} / 0.77351` where `R̄`
/// averages each bitmap's lowest unset bit.
///
/// Two sketches are mergeable iff they share `trials` and `seed`; merging is
/// a bitwise OR, making the family a semilattice (HADI's convergence
/// argument depends on that).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FmSketch {
    seed: u64,
    bitmaps: Vec<u64>,
}

impl FmSketch {
    /// An empty sketch with `trials` bitmaps under hash seed `seed`.
    ///
    /// 32–64 trials give ~13–10% standard error; HADI's default regime.
    ///
    /// # Panics
    /// Panics if `trials == 0`.
    pub fn new(trials: usize, seed: u64) -> Self {
        assert!(trials > 0, "FM sketch needs at least one trial");
        FmSketch {
            seed,
            bitmaps: vec![0; trials],
        }
    }

    /// Number of independent trials.
    pub fn trials(&self) -> usize {
        self.bitmaps.len()
    }

    /// Construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The lowest unset bit index of trial `k` (the FM `R` statistic).
    fn lowest_zero(&self, k: usize) -> u32 {
        (!self.bitmaps[k]).trailing_zeros()
    }

    fn assert_compatible(&self, other: &Self) {
        assert_eq!(
            (self.seed, self.bitmaps.len()),
            (other.seed, other.bitmaps.len()),
            "merging incompatible FM sketches"
        );
    }
}

impl DistinctCounter for FmSketch {
    fn add(&mut self, item: u64) {
        for (k, bm) in self.bitmaps.iter_mut().enumerate() {
            let h = hash_with(item, self.seed.wrapping_add(k as u64));
            // Geometric bit index = number of trailing zeros, capped at 63.
            let bit = h.trailing_zeros().min(63);
            *bm |= 1u64 << bit;
        }
    }

    fn merge(&mut self, other: &Self) {
        self.assert_compatible(other);
        for (a, b) in self.bitmaps.iter_mut().zip(&other.bitmaps) {
            *a |= b;
        }
    }

    fn estimate(&self) -> f64 {
        let mean_r: f64 = (0..self.trials())
            .map(|k| self.lowest_zero(k) as f64)
            .sum::<f64>()
            / self.trials() as f64;
        2f64.powf(mean_r) / PHI
    }

    fn would_change(&self, other: &Self) -> bool {
        self.assert_compatible(other);
        self.bitmaps
            .iter()
            .zip(&other.bitmaps)
            .any(|(a, b)| a | b != *a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimate_is_small() {
        let s = FmSketch::new(32, 1);
        assert!(s.estimate() < 2.0);
    }

    #[test]
    fn estimate_tracks_cardinality() {
        for &n in &[100u64, 1000, 10000] {
            let mut s = FmSketch::new(64, 9);
            for x in 0..n {
                s.add(x);
            }
            let est = s.estimate();
            let ratio = est / n as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "n = {n}: estimate {est} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut a = FmSketch::new(32, 3);
        let mut b = FmSketch::new(32, 3);
        for x in 0..500u64 {
            a.add(x);
            b.add(x);
            b.add(x); // duplicate inserts
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_is_union() {
        let mut a = FmSketch::new(32, 5);
        let mut b = FmSketch::new(32, 5);
        let mut u = FmSketch::new(32, 5);
        for x in 0..300u64 {
            a.add(x);
            u.add(x);
        }
        for x in 300..700u64 {
            b.add(x);
            u.add(x);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn would_change_detects_new_information() {
        let mut a = FmSketch::new(16, 2);
        let mut b = FmSketch::new(16, 2);
        a.add(1);
        b.add(1);
        assert!(!a.would_change(&b));
        b.add(999);
        // b now has bits a (almost surely) lacks.
        assert!(a.would_change(&b) || a == b);
        a.merge(&b);
        assert!(!a.would_change(&b));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn incompatible_merge_panics() {
        let mut a = FmSketch::new(16, 1);
        let b = FmSketch::new(16, 2);
        a.merge(&b);
    }
}
