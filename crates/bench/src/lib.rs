//! # pardec-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6) on the
//! synthetic dataset substitutes of [`workloads`]:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — dataset characteristics |
//! | `table2` | Table 2 — CLUSTER vs MPX decomposition quality |
//! | `table3` | Table 3 — diameter approximation at two granularities |
//! | `table4` | Table 4 — time/estimate vs BFS and HADI (MR emulation) |
//! | `figure1` | Figure 1 — CLUSTER/BFS time vs appended chain length |
//! | `ablation_radius` | extra — Lemma 1 radius-vs-τ shape |
//! | `mr_accounting` | extra — §5 round/communication ledger (JSONL) |
//! | `bench_serve` | extra — serve-daemon load generator (JSONL) |
//! | `bench_compressed` | extra — gap-coded vs plain CSR backend (JSONL) |
//! | `trace_check` | extra — validates `--trace` JSONL artifacts |
//!
//! Every binary accepts `--scale {ci,default,full}` (or the `PARDEC_SCALE`
//! environment variable); `ci` keeps the full suite within a couple of
//! minutes, `full` reproduces the paper's mesh at 1000×1000.

pub mod alloc;
pub mod report;
pub mod workloads;

use std::time::Instant;

/// Bench binaries link this crate, so registering here gives every bench
/// process heap accounting without touching the library crates. Gated by
/// the default-on `count-alloc` feature (`--no-default-features` restores
/// the plain system allocator).
#[cfg(feature = "count-alloc")]
#[global_allocator]
static GLOBAL_COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Wall-clock timing of a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Parses `--scale` from argv (or `PARDEC_SCALE`), defaulting to `Default`.
pub fn scale_from_args() -> workloads::Scale {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next() {
                return workloads::Scale::parse(&v);
            }
        } else if let Some(v) = a.strip_prefix("--scale=") {
            return workloads::Scale::parse(v);
        }
    }
    if let Ok(v) = std::env::var("PARDEC_SCALE") {
        return workloads::Scale::parse(&v);
    }
    workloads::Scale::Default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
