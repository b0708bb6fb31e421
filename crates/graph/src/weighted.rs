//! A compact weighted undirected graph plus Dijkstra / weighted APSP.
//!
//! Weighted graphs appear in one place in the paper (§4): the *weighted
//! quotient graph*, whose edge weights are shortest connecting-path lengths
//! between adjacent clusters. Its diameter `Δ′_C` (computed by
//! [`crate::diameter::bounded_diameter`]) yields the tightened upper bound
//! `Δ″ = 2·R_ALG2 + Δ′_C`, and its APSP matrix is the distance oracle.

use crate::combine::{self, pack};
use crate::{CsrGraph, NodeId};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "unreachable" in weighted distance arrays.
pub const INFINITE_WEIGHT: u64 = u64::MAX;

/// Sorted `(neighbor, weight)` iterator of one node (see
/// [`WeightedGraph::wneighbor_iter`]).
pub type WNeighborIter<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, NodeId>>,
    std::iter::Copied<std::slice::Iter<'a, u64>>,
>;

/// Undirected graph with `u64` edge weights in CSR form. Parallel edges are
/// collapsed to their minimum weight at construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedGraph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<u64>,
}

impl WeightedGraph {
    /// Builds from an edge triple list `(u, v, w)`. Self-loops are dropped;
    /// duplicate edges keep the smallest weight.
    ///
    /// The build runs on the [`crate::combine`] min-combine kernel over one
    /// normalized `(min(u, v), max(u, v))` record per edge occurrence, so
    /// the result is the canonical sorted CSR — a pure function of the edge
    /// *multiset*: any permutation of the input (and any pool size) builds
    /// a byte-identical graph.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, u64)]) -> Self {
        // One u128 record per surviving edge: packed (min, max) key in the
        // high 64 bits, weight in the low 64. Equal keys share their high
        // bits, so the min-fold on the whole word is a min on the weight.
        let half: Vec<u128> = combine::par_emit(
            edges.len(),
            |i| {
                let (u, v, _) = edges[i];
                usize::from(u != v)
            },
            |i, emit| {
                let (u, v, w) = edges[i];
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "edge ({u}, {v}) out of range for n = {n}"
                );
                if u != v {
                    let key = pack(u.min(v), u.max(v));
                    emit.push(((key as u128) << 64) | w as u128);
                }
            },
        );
        let (arcs, _) = combine::combine_symmetrize(
            n,
            half,
            |a| (a >> 64) as u64,
            |rec| {
                let (hi, lo) = combine::unpack((rec >> 64) as u64);
                ((pack(lo, hi) as u128) << 64) | (rec & u128::from(u64::MAX))
            },
            |a, b| a.min(b),
        );
        let (offsets, targets) = combine::csr_parts_from_sorted(n, &arcs, |&a| (a >> 64) as u64);
        let weights: Vec<u64> = arcs.iter().map(|&rec| rec as u64).collect();
        WeightedGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// Builds directly from CSR arrays (sorted, deduplicated, symmetric,
    /// self-loop-free) — the zero-copy exit of the combine kernel's weighted
    /// quotient path. Debug builds re-verify the invariants.
    pub(crate) fn from_csr_parts(
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        weights: Vec<u64>,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        debug_assert_eq!(targets.len(), weights.len());
        let g = WeightedGraph {
            offsets,
            targets,
            weights,
        };
        debug_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sorted neighbour ids of `u`.
    #[inline]
    fn targets_of(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// The graph without its weights: the same offsets and targets as a
    /// [`CsrGraph`]. On a weighted quotient this is the unweighted quotient
    /// of the same clustering.
    pub fn topology(&self) -> CsrGraph {
        CsrGraph::from_parts(self.offsets.clone(), self.targets.clone())
    }

    /// Neighbours of `u` with weights.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.wneighbor_iter(u)
    }

    /// [`Self::neighbors`] with a nameable iterator type — the GAT of the
    /// [`crate::access::WeightedNeighborAccess`] impl.
    #[inline]
    pub fn wneighbor_iter(&self, u: NodeId) -> WNeighborIter<'_> {
        let u = u as usize;
        let range = self.offsets[u]..self.offsets[u + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// Neighbours `v > u` with weights — the upper adjacency tail, visiting
    /// each undirected edge at exactly one endpoint (targets are sorted, so
    /// the tail is a suffix of the adjacency list).
    #[inline]
    pub fn upper_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.neighbors(u).filter(move |&(v, _)| v > u)
    }

    /// Single-source shortest paths (Dijkstra, binary heap).
    pub fn dijkstra(&self, src: NodeId) -> Vec<u64> {
        let n = self.num_nodes();
        let mut dist = vec![INFINITE_WEIGHT; n];
        let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(Reverse((0, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue; // stale entry
            }
            for (v, w) in self.neighbors(u) {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// Weighted eccentricity of `u` (max finite Dijkstra distance).
    pub fn eccentricity(&self, u: NodeId) -> u64 {
        self.dijkstra(u)
            .into_iter()
            .filter(|&d| d != INFINITE_WEIGHT)
            .max()
            .unwrap_or(0)
    }

    /// Weighted diameter via all-sources Dijkstra, parallelized. Returns the
    /// largest finite eccentricity (i.e. per-component diameters are maxed).
    /// The test oracle of [`crate::diameter::bounded_diameter`].
    pub fn apsp_diameter(&self) -> u64 {
        if self.num_nodes() == 0 {
            return 0;
        }
        (0..self.num_nodes() as NodeId)
            .into_par_iter()
            .map(|u| self.eccentricity(u))
            .max()
            .unwrap_or(0)
    }

    /// Full APSP matrix (row per source). Quadratic space — intended for
    /// quotient graphs, which the paper keeps small enough for one machine.
    pub fn apsp_matrix(&self) -> Vec<Vec<u64>> {
        (0..self.num_nodes() as NodeId)
            .into_par_iter()
            .map(|u| self.dijkstra(u))
            .collect()
    }

    /// Nearest node of `set` to `u`, by weighted distance. Returns
    /// `(node, dist)` or `None` if `set` is empty / unreachable.
    pub fn nearest_of(&self, u: NodeId, set: &[NodeId]) -> Option<(NodeId, u64)> {
        let dist = self.dijkstra(u);
        set.iter()
            .copied()
            .filter(|&s| dist[s as usize] != INFINITE_WEIGHT)
            .map(|s| (s, dist[s as usize]))
            .min_by_key(|&(s, d)| (d, s))
    }

    /// Structural invariant check (mirrors [`crate::CsrGraph::check_invariants`]):
    /// targets in range, strictly sorted and self-loop-free, and every arc
    /// mirrored with the same weight.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_nodes();
        for u in 0..n as NodeId {
            let mut prev = None;
            for &v in self.targets_of(u) {
                if v as usize >= n {
                    return Err(format!("target {v} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if prev >= Some(v) {
                    return Err(format!("adjacency of {u} not strictly sorted"));
                }
                prev = Some(v);
            }
        }
        // Every list is sorted now, so each reverse arc is one binary search.
        for u in 0..n as NodeId {
            for (v, w) in self.neighbors(u) {
                let Ok(i) = self.targets_of(v).binary_search(&u) else {
                    return Err(format!("missing reverse arc ({v}, {u})"));
                };
                if self.weights[self.offsets[v as usize] + i] != w {
                    return Err(format!("asymmetric weight on ({u}, {v})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WeightedGraph {
        // 0 -1- 1 -1- 3, and a heavy shortcut 0 -5- 3, plus 0 -1- 2 -1- 3
        WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 3, 1), (0, 3, 5), (0, 2, 1), (2, 3, 1)])
    }

    #[test]
    fn dijkstra_prefers_light_paths() {
        let g = diamond();
        let d = g.dijkstra(0);
        assert_eq!(d, vec![0, 1, 1, 2]);
    }

    #[test]
    fn duplicate_edges_keep_min_weight() {
        let g = WeightedGraph::from_edges(2, &[(0, 1, 9), (1, 0, 2), (0, 1, 4)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.dijkstra(0)[1], 2);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1)]);
        assert_eq!(g.dijkstra(0)[2], INFINITE_WEIGHT);
        assert_eq!(g.eccentricity(0), 1);
    }

    #[test]
    fn apsp_diameter_weighted_path() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 4)]);
        assert_eq!(g.apsp_diameter(), 9);
        let m = g.apsp_matrix();
        assert_eq!(m[0][3], 9);
        assert_eq!(m[3][0], 9);
        assert_eq!(m[1][2], 3);
    }

    #[test]
    fn nearest_of_set() {
        let g = WeightedGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        assert_eq!(g.nearest_of(0, &[3, 4]), Some((3, 3)));
        assert_eq!(g.nearest_of(0, &[]), None);
    }

    #[test]
    fn invariants_hold() {
        assert!(diamond().check_invariants().is_ok());
    }

    #[test]
    fn invariant_checker_catches_broken_csr() {
        let broken = |offsets: Vec<usize>, targets: Vec<NodeId>, weights: Vec<u64>| {
            WeightedGraph {
                offsets,
                targets,
                weights,
            }
            .check_invariants()
            .unwrap_err()
        };
        // 0-1 with weight 2 one way and 3 the other.
        let e = broken(vec![0, 1, 2], vec![1, 0], vec![2, 3]);
        assert!(e.contains("asymmetric weight"), "{e}");
        // 0-1 and 0-2, but 2 lacks its arc back to 0.
        let e = broken(vec![0, 2, 3, 3], vec![1, 2, 0], vec![1, 1, 1]);
        assert!(e.contains("missing reverse arc"), "{e}");
        // Node 0 lists 2 before 1.
        let e = broken(vec![0, 2, 3, 4], vec![2, 1, 0, 0], vec![1, 1, 1, 1]);
        assert!(e.contains("not strictly sorted"), "{e}");
    }

    #[test]
    fn upper_neighbors_cover_each_edge_once() {
        let g = diamond();
        let total: usize = (0..4).map(|u| g.upper_neighbors(u).count()).sum();
        assert_eq!(total, g.num_edges());
        assert!(g.upper_neighbors(0).all(|(v, _)| v > 0));
    }

    #[test]
    fn from_edges_is_order_independent() {
        // Duplicates with different weights in both orientations: every
        // permutation must min-collapse to the same graph.
        let edges = [
            (0u32, 1u32, 9u64),
            (2, 3, 4),
            (1, 0, 2),
            (3, 2, 8),
            (0, 1, 4),
            (1, 2, 7),
        ];
        let fwd = WeightedGraph::from_edges(4, &edges);
        let mut rev = edges;
        rev.reverse();
        assert_eq!(fwd, WeightedGraph::from_edges(4, &rev));
        assert_eq!(fwd.dijkstra(0)[1], 2);
        assert_eq!(fwd.dijkstra(2)[3], 4);
    }
}
