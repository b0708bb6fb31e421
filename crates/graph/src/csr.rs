//! Compressed sparse row storage for unweighted, undirected graphs.

use crate::NodeId;

/// An unweighted, undirected graph in compressed sparse row form.
///
/// Each undirected edge `{u, v}` is stored twice (once in each endpoint's
/// adjacency list); adjacency lists are sorted ascending and free of
/// duplicates and self-loops. The representation is immutable — build graphs
/// through [`crate::builder::GraphBuilder`] or the generator functions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u + 1]` indexes `targets` for node `u`; length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists; length `2m`.
    targets: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent: wrong offset bounds,
    /// non-monotone offsets, out-of-range targets, self-loops, duplicate
    /// neighbours, or unsorted adjacency lists. Intended for internal use by
    /// the builder; external callers should prefer [`crate::GraphBuilder`].
    pub(crate) fn from_parts(offsets: Vec<usize>, targets: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        let g = CsrGraph { offsets, targets };
        debug_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
        g
    }

    /// The empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of directed arcs stored (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sorted slice of neighbours of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// The `v > u` tail of `u`'s sorted adjacency. Each undirected edge
    /// appears in exactly one tail, so scanning all tails visits every edge
    /// once — the backbone of the contraction kernel's half-arc emission.
    #[inline]
    pub fn upper_neighbors(&self, u: NodeId) -> &[NodeId] {
        let nbrs = self.neighbors(u);
        &nbrs[nbrs.partition_point(|&v| v <= u)..]
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Raw offsets array (length `n + 1`). Exposed for zero-copy consumers
    /// such as the binary I/O codec and the MR engine's edge partitioner.
    #[inline]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw concatenated adjacency array (length `2m`).
    #[inline]
    pub fn raw_targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|u| self.offsets[u + 1] - self.offsets[u])
            .max()
            .unwrap_or(0)
    }

    /// Verifies the structural invariants of the representation: offsets
    /// start at 0, never decrease and end at the arc count; every adjacency
    /// list is strictly sorted, in range and loop-free; every arc has its
    /// reverse. Returns a description of the first violation found, if any.
    /// Total on arbitrary arrays, so it is also the gate the snapshot
    /// decoder runs on untrusted CSR arrays. O(n + m).
    pub fn check_invariants(&self) -> Result<(), String> {
        let (offsets, targets) = (&self.offsets, &self.targets);
        if offsets.first() != Some(&0) {
            return Err("offsets must start at 0".into());
        }
        if offsets.last() != Some(&targets.len()) {
            return Err(format!(
                "offsets must end at the arc count {}",
                targets.len()
            ));
        }
        if let Some(u) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offsets not monotone at node {u}"));
        }
        let n = self.num_nodes();
        for u in 0..n as NodeId {
            let mut prev = None;
            for &v in self.neighbors(u) {
                if v as usize >= n {
                    return Err(format!("edge target {v} out of range (n = {n})"));
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
        // Symmetry with one merge cursor per node: scanning sources in
        // ascending order meets the arcs up into `v` in the order of `v`'s
        // own sorted list, so arc `(u, v)`, `u < v`, must find `u` under
        // `v`'s cursor. Every check passing maps each upward arc to a
        // distinct downward reverse; if half the arcs point up, that covers
        // every downward arc too.
        let mut cursor = offsets[..n].to_vec();
        let mut up = 0;
        for u in 0..n as NodeId {
            for &v in self.neighbors(u).iter().rev().take_while(|&&v| v > u) {
                up += 1;
                let c = &mut cursor[v as usize];
                if *c == offsets[v as usize + 1] || targets[*c] != u {
                    return Err(format!("asymmetric adjacency at arc ({u}, {v})"));
                }
                *c += 1;
            }
        }
        if 2 * up != targets.len() {
            let m = targets.len();
            return Err(format!("asymmetric adjacency: {up} of {m} arcs point up"));
        }
        Ok(())
    }

    /// Builds a graph from untrusted CSR arrays, accepting them only if
    /// they pass [`Self::check_invariants`].
    pub(crate) fn try_from_parts(
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
    ) -> Result<Self, String> {
        let g = CsrGraph { offsets, targets };
        g.check_invariants()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::new(3)
            .add_edges([(0, 1), (1, 2), (2, 0)])
            .build()
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(4).is_empty());
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        for u in 0..3 {
            assert_eq!(g.degree(u), 2);
        }
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn max_degree() {
        let g = GraphBuilder::new(4)
            .add_edges([(0, 1), (0, 2), (0, 3)])
            .build();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(CsrGraph::empty(0).max_degree(), 0);
    }

    #[test]
    fn invariant_checker_catches_asymmetry() {
        // An arc with no reverse at all, pointing up or down, one (2 → 0)
        // whose reverse is missing from an otherwise mirrored list, and two
        // upward arcs with swapped reverses (0 → 2 → 1 → 3 → 0), where
        // every node has as many arcs in as out and half the arcs point up.
        for (offsets, targets) in [
            (vec![0, 1, 1], vec![1]),
            (vec![0, 0, 1], vec![0]),
            (vec![0, 1, 3, 5], vec![1, 0, 2, 0, 1]),
            (vec![0, 1, 2, 3, 4], vec![2, 3, 1, 0]),
        ] {
            assert!(CsrGraph { offsets, targets }.check_invariants().is_err());
        }
    }

    #[test]
    fn try_from_parts_rejects_malformed_offsets_without_panicking() {
        for (offsets, targets) in [
            (vec![], vec![]),
            (vec![1, 1], vec![0]),
            (vec![0, 2, 1], vec![1]),
            (vec![0, 5], vec![]),
            (vec![0, 1, 2], vec![7, 0]),
        ] {
            assert!(CsrGraph::try_from_parts(offsets, targets).is_err());
        }
        let g = GraphBuilder::new(4)
            .add_edges([(0, 1), (1, 3), (2, 3)])
            .build();
        let again = CsrGraph::try_from_parts(g.raw_offsets().to_vec(), g.raw_targets().to_vec());
        assert_eq!(again.unwrap(), g);
    }

    #[test]
    fn invariant_checker_catches_self_loop() {
        let g = CsrGraph {
            offsets: vec![0, 1],
            targets: vec![0],
        };
        assert!(g.check_invariants().is_err());
    }
}
