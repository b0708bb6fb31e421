//! The benchmark's workloads: which graph each one generates from the seed,
//! how the session over it is configured, and how a run's measuring time is
//! split between the solve phase and the serve phase.

use pardec_graph::{generators, io, Backend, CsrGraph};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["road-decompose", "social-diameter", "serve-mix"];

/// What `setup_s` measures on a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `setup_s` is `io::read_edge_list` of the generated file (the load
    /// step of `pardec dist approx`).
    Pipeline,
    /// `setup_s` is session build + snapshot save + checked load + the
    /// server listening (the start of `pardec serve`).
    Serve,
}

/// The generator behind a workload's input.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `generators::road_network(rows, cols, 0.4, seed)`: long diameter,
    /// low doubling dimension.
    Road { rows: usize, cols: usize },
    /// `generators::windowed_preferential_attachment(nodes, attach, 0.025,
    /// seed)`: the CLI's `--family social`, small diameter, heavy tail.
    Social { nodes: usize, attach: usize },
}

/// Input size: the real workloads, or small ones for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One workload's configuration.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub family: Family,
    /// Decomposition granularity τ of both the solve and the served session.
    pub tau: usize,
    /// Adjacency backend of both the solve and the served session.
    pub backend: Backend,
    /// Worker-pool size of the solve phase; `None` is `nproc`. The serve
    /// phase always runs on `nproc` workers.
    pub solve_workers: Option<usize>,
    /// Share of `--seconds` spent repeating the solve; the rest serves.
    pub solve_share: f64,
}

impl Spec {
    /// The workload called `name`, or `None` for an unknown name.
    pub fn named(name: &str, scale: Scale) -> Option<Spec> {
        let tiny = scale == Scale::Tiny;
        let spec = match name {
            "road-decompose" => Spec {
                name: "road-decompose",
                kind: Kind::Pipeline,
                family: if tiny {
                    Family::Road { rows: 40, cols: 40 }
                } else {
                    Family::Road {
                        rows: 500,
                        cols: 500,
                    }
                },
                tau: 1,
                backend: Backend::Plain,
                // At two workers the frontier's level barriers on this long
                // diameter switched solves between a fast and a 1.5x slower
                // regime for seconds at a time, so a run's median moved by
                // up to ±25%; on one worker it held within a run.
                solve_workers: Some(1),
                // A solve takes about 0.15 s, so 40% of the time still
                // gives dozens of repetitions; the rest buys NEAREST waves.
                solve_share: 0.4,
            },
            "social-diameter" => Spec {
                name: "social-diameter",
                kind: Kind::Pipeline,
                family: Family::Social {
                    nodes: if tiny { 3_000 } else { 200_000 },
                    attach: 8,
                },
                tau: 16,
                backend: Backend::Plain,
                solve_workers: None,
                solve_share: 0.55,
            },
            "serve-mix" => Spec {
                name: "serve-mix",
                kind: Kind::Serve,
                family: Family::Social {
                    nodes: if tiny { 2_000 } else { 100_000 },
                    attach: 8,
                },
                tau: 8,
                backend: Backend::Compressed,
                solve_workers: None,
                solve_share: 0.25,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The workload's input graph for `seed`.
    pub fn generate(&self, seed: u64) -> CsrGraph {
        match self.family {
            Family::Road { rows, cols } => generators::road_network(rows, cols, 0.4, seed),
            Family::Social { nodes, attach } => {
                generators::windowed_preferential_attachment(nodes, attach, 0.025, seed)
            }
        }
    }

    /// Generates the input for `seed` and writes it to `path` as a text
    /// edge list, the format `pardec dist approx --graph` reads.
    pub fn write_input(&self, seed: u64, path: &Path) -> std::io::Result<()> {
        let g = self.generate(seed);
        let mut w = BufWriter::new(File::create(path)?);
        io::write_edge_list(&g, &mut w)?;
        w.flush()
    }
}
