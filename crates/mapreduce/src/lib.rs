//! # pardec-mr — an MR(M_G, M_L) model emulation engine
//!
//! The paper analyzes its algorithms on the **MR model** of Pietracaprina,
//! Pucci, Riondato, Silvestri, Upfal (ICS'12, ref. \[24\]): a computation is
//! a sequence of *rounds*; in a round, a multiset of key-value pairs is
//! transformed by applying a reducer function independently to every group
//! of pairs sharing a key. Two parameters constrain the execution:
//! `M_G` — aggregate memory, and `M_L` — the local memory available to each
//! reducer. Algorithm quality is measured in **rounds** and communication
//! volume under those memory constraints.
//!
//! The original system was built on Apache Spark over a 16-host cluster.
//! There is no mature Rust MapReduce runtime, so this crate *emulates* the
//! model in-process (see the README's *MR emulation* section):
//!
//! * [`shuffle`] is the data plane: a **two-pass parallel radix
//!   partitioner** (count → exact offsets → scatter into one flat pre-sized
//!   buffer, layout deterministic by construction) and the
//!   [`shuffle::ShuffleSize`] trait that prices every shuffled record,
//!   heap payloads included.
//! * [`engine::MrEngine`] executes generic key-value rounds over that
//!   shuffle with parallel reducers (rayon), charging every round to a
//!   metrics ledger ([`stats::MrStats`]): pairs and bytes on *both* sides of
//!   the optional map-side combiner ([`engine::MrEngine::round_combined`]),
//!   the largest reducer group (the `M_L` proxy), and optional hard
//!   enforcement of an `M_L` budget.
//! * [`primitives`] implements the model's Fact 1 building blocks — sample
//!   **sort** and (segmented) **prefix sum** — as explicit round sequences
//!   (counting/total rounds ride the combiner).
//! * [`vertex`] layers a Spark/Pregel-style *vertex program* abstraction on
//!   top, with the graph held resident (like cached RDD partitions) and only
//!   *messages* counted as communication; the [`vertex::Combine`] monoid is
//!   applied **map-side**, so a superstep ships one combined message per
//!   `(destination, sender chunk)` instead of one per edge. This matches how
//!   the paper's experiments charge BFS (aggregate Θ(m) volume over Θ(Δ)
//!   rounds) versus HADI (Θ(m) volume *per* round) versus CLUSTER
//!   (aggregate Θ(m) over `R ≪ Δ` rounds).
//! * [`algo`] gives reference vertex-program algorithms (BFS, connected
//!   components) used to validate the layer.
//!
//! ```
//! use pardec_mr::engine::MrEngine;
//! use pardec_mr::config::MrConfig;
//!
//! let mut eng = MrEngine::new(MrConfig::default());
//! // One round of word-count style aggregation.
//! let pairs = vec![("a", 1u64), ("b", 2), ("a", 3)];
//! let out = eng
//!     .round(pairs, |&word, counts| {
//!         vec![(word, counts.iter().sum::<u64>())]
//!     })
//!     .unwrap();
//! let mut out = out;
//! out.sort();
//! assert_eq!(out, vec![("a", 4), ("b", 2)]);
//! assert_eq!(eng.stats().num_rounds(), 1);
//! ```

pub mod algo;
pub mod config;
pub mod engine;
pub mod error;
pub mod matrix;
pub mod primitives;
pub mod shuffle;
pub mod stats;
pub mod vertex;

pub use config::{MrConfig, PARTITIONS_ENV};
pub use engine::MrEngine;
pub use error::MrError;
pub use shuffle::ShuffleSize;
pub use stats::{MrStats, RoundStats};
pub use vertex::{Combine, Min, StepReport, VertexEngine};
