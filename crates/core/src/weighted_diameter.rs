//! Weighted diameter approximation (arXiv:1506.03265, §4 generalized).
//!
//! Pipeline: weighted-CLUSTER the graph, contract each cluster to one node
//! of the **weighted quotient** (edge weight = shortest connecting path
//! between adjacent centers through one cut edge), and report
//!
//! * upper bound `Δ″ = 2·R_w + Δ′_C`, where `R_w` is the maximum weighted
//!   cluster radius and `Δ′_C` the quotient's exact weighted diameter
//!   (eccentricity bounding, [`pardec_graph::diameter::bounded_diameter`]) — any
//!   shortest path detours through at most two cluster centers plus a
//!   center-to-center quotient path;
//! * lower bound from a double-sweep Dijkstra on `G` itself (farthest node
//!   from an arbitrary root, then its eccentricity), which any true
//!   diameter dominates.

use crate::cluster::ClusterParams;
use crate::weighted_cluster::{weighted_cluster_result, WeightedClusterTrace, WeightedClustering};
use pardec_graph::diameter::bounded_diameter;
use pardec_graph::weighted::INFINITE_WEIGHT;
use pardec_graph::{CombineStats, NodeId, WeightedGraph};

/// Output of [`weighted_diameter`].
#[derive(Clone, Debug)]
pub struct WeightedDiameterApprox {
    /// Double-sweep lower bound on the weighted diameter.
    pub lower_bound: u64,
    /// `Δ″ = 2·R_w + Δ′_C` — the weighted-quotient upper bound.
    pub upper_bound: u64,
    /// Max weighted cluster radius `R_w` of the decomposition used.
    pub weighted_radius: u64,
    /// Max hop radius of the decomposition — the parallel-depth proxy.
    pub hop_radius: u32,
    /// Weighted quotient size.
    pub quotient_nodes: usize,
    pub quotient_edges: usize,
    /// Combine-kernel ledger of the weighted quotient build: cut edges fed
    /// in, unique min-weight quotient edges out.
    pub quotient_kernel: CombineStats,
    /// Per-round trace of the decomposition.
    pub trace: WeightedClusterTrace,
    /// The clustering (for reuse: diagnostics, oracles).
    pub clustering: WeightedClustering,
}

impl WeightedDiameterApprox {
    /// The algorithm's diameter estimate (the upper bound, as in the
    /// paper's tables).
    pub fn estimate(&self) -> u64 {
        self.upper_bound
    }
}

/// Runs the weighted diameter approximation on `g`.
///
/// On disconnected graphs both bounds refer to the largest per-component
/// value, mirroring [`WeightedGraph::apsp_diameter`].
pub fn weighted_diameter(g: &WeightedGraph, params: &ClusterParams) -> WeightedDiameterApprox {
    let r = weighted_cluster_result(g, params);
    let (quotient, kernel) = r.clustering.quotient_with_stats(g);
    let radius = r.clustering.max_weighted_radius();
    let upper = 2 * radius + bounded_diameter(&quotient).diameter;
    WeightedDiameterApprox {
        lower_bound: double_sweep_lower_bound(g),
        upper_bound: upper,
        weighted_radius: radius,
        hop_radius: r.clustering.max_hop_radius(),
        quotient_nodes: quotient.num_nodes(),
        quotient_edges: quotient.num_edges(),
        quotient_kernel: kernel,
        trace: r.trace,
        clustering: r.clustering,
    }
}

/// Double-sweep Dijkstra: eccentricity of the farthest node from node 0.
/// A valid lower bound on the (per-component max) weighted diameter.
fn double_sweep_lower_bound(g: &WeightedGraph) -> u64 {
    if g.num_nodes() == 0 {
        return 0;
    }
    let d0 = g.dijkstra(0);
    let far = d0
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != INFINITE_WEIGHT)
        .max_by_key(|&(v, &d)| (d, std::cmp::Reverse(v)))
        .map(|(v, _)| v as NodeId)
        .unwrap_or(0);
    g.eccentricity(far)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_grid(rows: usize, cols: usize) -> WeightedGraph {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let u = (r * cols + c) as NodeId;
                if c + 1 < cols {
                    edges.push((u, u + 1, 2u64));
                }
                if r + 1 < rows {
                    edges.push((u, u + cols as NodeId, 5u64));
                }
            }
        }
        WeightedGraph::from_edges(rows * cols, &edges)
    }

    #[test]
    fn bounds_sandwich_true_diameter() {
        let g = weighted_grid(12, 12);
        let truth = g.apsp_diameter();
        for seed in [1u64, 9] {
            let a = weighted_diameter(&g, &ClusterParams::new(2, seed));
            assert!(a.lower_bound <= truth, "lower {} > {truth}", a.lower_bound);
            assert!(a.upper_bound >= truth, "upper {} < {truth}", a.upper_bound);
            assert_eq!(a.quotient_nodes, a.clustering.num_clusters());
            assert!(a.estimate() >= a.lower_bound);
        }
    }

    #[test]
    fn path_graph_bounds_are_tight_enough() {
        // Weighted path: diameter = sum of weights; double sweep is exact.
        let edges: Vec<_> = (1..30u32).map(|v| (v - 1, v, (v as u64 % 4) + 1)).collect();
        let g = WeightedGraph::from_edges(30, &edges);
        let truth = g.apsp_diameter();
        let a = weighted_diameter(&g, &ClusterParams::new(1, 3));
        assert_eq!(a.lower_bound, truth);
        assert!(a.upper_bound >= truth);
    }

    #[test]
    fn disconnected_components_take_max() {
        let g = WeightedGraph::from_edges(7, &[(0, 1, 10), (1, 2, 10), (4, 5, 3), (5, 6, 3)]);
        let a = weighted_diameter(&g, &ClusterParams::new(1, 2));
        assert!(a.upper_bound >= 20);
        assert!(a.lower_bound <= 20);
    }

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::from_edges(0, &[]);
        let a = weighted_diameter(&g, &ClusterParams::new(1, 0));
        assert_eq!(a.lower_bound, 0);
        assert_eq!(a.upper_bound, 0);
        assert_eq!(a.quotient_nodes, 0);
    }

    #[test]
    fn deterministic_across_deltas() {
        let g = weighted_grid(9, 9);
        let base = weighted_diameter(&g, &ClusterParams::new(2, 4));
        for delta in [1u64, 3, 50] {
            let a = weighted_diameter(&g, &ClusterParams::new(2, 4).with_delta(delta));
            assert_eq!(a.lower_bound, base.lower_bound);
            assert_eq!(a.upper_bound, base.upper_bound);
            assert_eq!(a.clustering, base.clustering);
        }
    }
}
