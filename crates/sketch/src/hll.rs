//! HyperLogLog registers — the sketch behind HyperANF (Boldi–Rosa–Vigna).

use crate::hash::hash_with;
use crate::DistinctCounter;

/// HyperLogLog sketch with `2^precision` 6-bit-equivalent registers (stored
/// as bytes). Merge is element-wise max; the estimator is the bias-corrected
/// harmonic mean with linear-counting small-range correction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HllSketch {
    precision: u8,
    seed: u64,
    registers: Vec<u8>,
}

impl HllSketch {
    /// A sketch with `2^precision` registers (`4 ≤ precision ≤ 16`);
    /// standard error ≈ `1.04 / √(2^precision)`.
    ///
    /// # Panics
    /// Panics if `precision` is outside `4..=16`.
    pub fn new(precision: u8, seed: u64) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "precision {precision} outside 4..=16"
        );
        HllSketch {
            precision,
            seed,
            registers: vec![0; 1 << precision],
        }
    }

    /// Number of registers `m = 2^precision`.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    fn alpha(m: usize) -> f64 {
        match m {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m as f64),
        }
    }

    fn assert_compatible(&self, other: &Self) {
        assert_eq!(
            (self.precision, self.seed),
            (other.precision, other.seed),
            "merging incompatible HLL sketches"
        );
    }
}

impl DistinctCounter for HllSketch {
    fn add(&mut self, item: u64) {
        let h = hash_with(item, self.seed);
        let p = self.precision as u32;
        let idx = (h >> (64 - p)) as usize;
        // Rank of the first set bit in the remaining 64 - p bits, 1-based.
        let rest = h << p;
        let rho = (rest.leading_zeros().min(63 - p) + 1) as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    fn merge(&mut self, other: &Self) {
        self.assert_compatible(other);
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    fn estimate(&self) -> f64 {
        let m = self.num_registers() as f64;
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = Self::alpha(self.num_registers()) * m * m / sum;
        if raw <= 2.5 * m {
            // Small-range correction: linear counting on empty registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    fn would_change(&self, other: &Self) -> bool {
        self.assert_compatible(other);
        self.registers
            .iter()
            .zip(&other.registers)
            .any(|(a, b)| b > a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimate_zero() {
        let s = HllSketch::new(10, 0);
        assert!(s.estimate().abs() < 1e-9);
    }

    #[test]
    fn estimate_accuracy() {
        // precision 12 -> ~1.6% standard error; allow 5 sigma.
        for &n in &[1000u64, 50_000, 200_000] {
            let mut s = HllSketch::new(12, 4);
            for x in 0..n {
                s.add(x);
            }
            let est = s.estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.09, "n = {n}: estimate {est} (err {err})");
        }
    }

    #[test]
    fn merge_is_union() {
        let mut a = HllSketch::new(10, 6);
        let mut b = HllSketch::new(10, 6);
        let mut u = HllSketch::new(10, 6);
        for x in 0..4000u64 {
            a.add(x);
            u.add(x);
        }
        for x in 2000..8000u64 {
            b.add(x);
            u.add(x);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn idempotent_merge() {
        let mut a = HllSketch::new(8, 1);
        for x in 0..100u64 {
            a.add(x);
        }
        let before = a.clone();
        a.merge(&before.clone());
        assert_eq!(a, before);
        assert!(!a.would_change(&before));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn incompatible_merge_panics() {
        let mut a = HllSketch::new(8, 1);
        let b = HllSketch::new(9, 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn precision_bounds() {
        HllSketch::new(3, 0);
    }

    #[test]
    fn monotone_under_inserts() {
        let mut s = HllSketch::new(10, 2);
        let mut last = 0.0;
        for chunk in 0..10u64 {
            for x in chunk * 1000..(chunk + 1) * 1000 {
                s.add(x);
            }
            let est = s.estimate();
            assert!(est >= last * 0.99, "estimate regressed: {est} < {last}");
            last = est;
        }
    }
}
