//! Exact diameter computation — the ground-truth `Δ` column of Tables 1, 3
//! and 4, and every quotient diameter of the §4 pipeline.
//!
//! Four routines:
//! * [`bounded_diameter`] — Takes–Kosters eccentricity bounding over unit
//!   ([`CsrGraph`]) and weighted ([`WeightedGraph`]) graphs: a few dozen
//!   BFS / Dijkstra sweeps on typical quotients, one per node on
//!   vertex-transitive inputs; the routine behind every quotient diameter;
//! * [`apsp_diameter`] — BFS from every node (parallelized), `O(n(n + m))`;
//!   the test oracle for the above;
//! * [`double_sweep`] — classic 2-sweep lower bound, also yields a good iFUB
//!   root (the midpoint of the sweep path);
//! * [`ifub`] — the iFUB algorithm (Crescenzi et al.), exact on connected
//!   graphs, usually terminating after a handful of BFS runs on road-like
//!   and mesh-like topologies; [`exact_diameter`] runs it on large input
//!   graphs.

use crate::frontier::{single_source_bfs, FrontierStrategy};
use crate::traversal::{bfs, bfs_with_parents};
use crate::weighted::INFINITE_WEIGHT;
use crate::{components, CsrGraph, NodeId, WeightedGraph, INFINITE_DIST};
use rayon::prelude::*;
use std::cmp::Reverse;

/// Exact diameter by all-pairs BFS, parallelized over sources.
///
/// For disconnected graphs this returns the largest *finite* eccentricity,
/// i.e. the maximum diameter over connected components.
pub fn apsp_diameter(g: &CsrGraph) -> u32 {
    if g.num_nodes() == 0 {
        return 0;
    }
    (0..g.num_nodes() as NodeId)
        .into_par_iter()
        .map(|u| bfs(g, u).levels)
        .max()
        .unwrap_or(0)
}

/// Result of a double BFS sweep.
#[derive(Clone, Copy, Debug)]
pub struct DoubleSweep {
    /// Lower bound on the diameter: `dist(far_a, far_b)`.
    pub lower_bound: u32,
    /// Endpoint found by the first sweep.
    pub far_a: NodeId,
    /// Endpoint found by the second sweep (realizes `lower_bound` from `far_a`).
    pub far_b: NodeId,
    /// Midpoint of the `far_a → far_b` shortest path — an empirically
    /// excellent root for [`ifub`].
    pub midpoint: NodeId,
}

/// Double-sweep diameter lower bound starting from `start`.
///
/// # Panics
/// Panics on the empty graph.
pub fn double_sweep(g: &CsrGraph, start: NodeId) -> DoubleSweep {
    assert!(g.num_nodes() > 0, "double sweep on empty graph");
    // A whole-graph frontier sweep: the one place in this module where the
    // direction-optimizing engine pays off (the second sweep needs parent
    // pointers and stays on the sequential routine).
    let first = single_source_bfs(g, start, FrontierStrategy::default_from_env());
    let a = first.farthest().unwrap_or(start);
    let (second, parent) = bfs_with_parents(g, a);
    let b = second.farthest().unwrap_or(a);
    // Walk halfway back along the shortest path b -> a.
    let half = second.dist[b as usize] / 2;
    let mut mid = b;
    for _ in 0..half {
        mid = parent[mid as usize];
    }
    DoubleSweep {
        lower_bound: second.dist[b as usize],
        far_a: a,
        far_b: b,
        midpoint: mid,
    }
}

/// Exact diameter of a **connected** graph via iFUB.
///
/// Starting from the double-sweep midpoint `r`, nodes are processed fringe
/// by fringe in order of decreasing BFS level `i`; eccentricities within a
/// fringe are computed in parallel. The loop stops as soon as the running
/// lower bound reaches `2·i`: any remaining pair lies within distance `2·i`
/// of each other through `r`, so the bound is tight.
///
/// Returns the diameter together with the number of full BFS executions
/// spent (a useful cost metric; `n` would mean APSP-equivalent work).
///
/// # Panics
/// Panics if the graph is empty or disconnected.
pub fn ifub(g: &CsrGraph, start: NodeId) -> (u32, usize) {
    assert!(g.num_nodes() > 0, "ifub on empty graph");
    let sweep = double_sweep(g, start);
    let root = sweep.midpoint;
    let root_bfs = single_source_bfs(g, root, FrontierStrategy::default_from_env());
    assert!(
        root_bfs.visited == g.num_nodes(),
        "ifub requires a connected graph"
    );
    let ecc_r = root_bfs.levels;
    let mut fringes: Vec<Vec<NodeId>> = vec![Vec::new(); ecc_r as usize + 1];
    for (v, &d) in root_bfs.dist.iter().enumerate() {
        fringes[d as usize].push(v as NodeId);
    }
    let mut lb = sweep.lower_bound.max(ecc_r);
    let mut bfs_count = 3; // two sweeps + root BFS
    let mut i = ecc_r;
    while i > 0 && lb < 2 * i {
        let fringe_max = fringes[i as usize]
            .par_iter()
            .map(|&v| bfs(g, v).levels)
            .max()
            .unwrap_or(0);
        bfs_count += fringes[i as usize].len();
        lb = lb.max(fringe_max);
        i -= 1;
    }
    (lb, bfs_count)
}

/// Exact diameter of an arbitrary graph: the maximum over connected
/// components (0 for the empty graph). Small components use
/// [`bounded_diameter`]; large ones use iFUB.
pub fn exact_diameter(g: &CsrGraph) -> u32 {
    if g.num_nodes() == 0 {
        return 0;
    }
    if components::is_connected(g) {
        return if g.num_nodes() <= 1024 {
            bounded_diameter(g).diameter as u32
        } else {
            ifub(g, 0).0
        };
    }
    let (count, labels) = components::connected_components(g);
    let mut best = 0;
    for c in 0..count as NodeId {
        let nodes: Vec<NodeId> = (0..g.num_nodes() as NodeId)
            .filter(|&v| labels[v as usize] == c)
            .collect();
        let (sub, _) = crate::contract::induced_subgraph(g, &nodes);
        best = best.max(exact_diameter(&sub));
    }
    best
}

/// A graph [`bounded_diameter`] can sweep: one single-source shortest-path
/// run per call — BFS on unit graphs, Dijkstra on weighted ones.
pub trait SweepGraph: Sync {
    /// Distance type of one sweep.
    type Dist: Copy + PartialEq + Into<u64> + Send + Sync;
    /// The distance of an unreached node.
    const UNREACHED: Self::Dist;
    /// Whether distances are edge-weighted.
    const WEIGHTED: bool;
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Degree of `u`.
    fn degree(&self, u: NodeId) -> usize;
    /// Distances from `src`, and the eccentricity of `src` (its largest
    /// finite distance).
    fn sweep(&self, src: NodeId) -> (Vec<Self::Dist>, u64);
}

impl SweepGraph for CsrGraph {
    type Dist = u32;
    const UNREACHED: u32 = INFINITE_DIST;
    const WEIGHTED: bool = false;

    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    fn degree(&self, u: NodeId) -> usize {
        CsrGraph::degree(self, u)
    }

    fn sweep(&self, src: NodeId) -> (Vec<u32>, u64) {
        let r = bfs(self, src);
        (r.dist, r.levels as u64)
    }
}

impl SweepGraph for WeightedGraph {
    type Dist = u64;
    const UNREACHED: u64 = INFINITE_WEIGHT;
    const WEIGHTED: bool = true;

    fn num_nodes(&self) -> usize {
        WeightedGraph::num_nodes(self)
    }

    fn degree(&self, u: NodeId) -> usize {
        WeightedGraph::degree(self, u)
    }

    fn sweep(&self, src: NodeId) -> (Vec<u64>, u64) {
        let dist = self.dijkstra(src);
        let ecc = dist
            .iter()
            .copied()
            .filter(|&d| d != INFINITE_WEIGHT)
            .max()
            .unwrap_or(0);
        (dist, ecc)
    }
}

/// Result of [`bounded_diameter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundedDiameter {
    /// The exact diameter: the largest finite eccentricity, i.e. the
    /// maximum over connected components (0 for the empty graph).
    pub diameter: u64,
    /// Single-source sweeps spent (`n` would be APSP-equivalent work).
    pub sweeps: usize,
    /// Rounds of parallel sweeps.
    pub rounds: usize,
}

/// Exact diameter by eccentricity bounding (Takes–Kosters
/// *BoundingDiameters*), for unit and weighted graphs alike.
///
/// Every node keeps a lower and an upper bound on its eccentricity. A sweep
/// from `v` tightens every node `w` it reaches by the triangle inequality:
/// `max(d(v, w), ecc(v) − d(v, w)) ≤ ecc(w) ≤ ecc(v) + d(v, w)`. Every
/// lower bound is also a lower bound on the diameter. A *candidate* is a
/// node whose upper bound still exceeds the best lower bound; it is dropped
/// once it no longer does, and the diameter is known when none is left.
///
/// Each round sweeps a batch of sources in parallel, taken in turn from
/// three rankings (ties to the higher degree, then the smaller id): the
/// candidates by highest upper bound (likely peripheral: raises the lower
/// bound), the unswept nodes by lowest lower bound (likely central: lowers
/// many upper bounds at once) and the candidates by lowest lower bound. A
/// batch is as large as the pool; after a round that drops no candidate
/// besides its own sources, the next batch doubles, so vertex-transitive
/// graphs, which need one sweep per node, take few rounds.
///
/// Sweeps only bound nodes of their own component, so on a disconnected
/// graph each component is swept and the result is the largest
/// per-component diameter, as with [`apsp_diameter`]. The sweep count
/// depends on the pool size; the diameter does not.
pub fn bounded_diameter<G: SweepGraph>(g: &G) -> BoundedDiameter {
    let n = g.num_nodes();
    let mut span = pardec_obs::span!("diameter.exact", nodes = n, weighted = G::WEIGHTED);
    let pool = rayon::current_num_threads().max(1);
    let mut batch = pool;
    let mut lower = vec![0u64; n];
    let mut upper = vec![u64::MAX; n];
    let mut swept = vec![false; n];
    // Isolated nodes have eccentricity 0 and can never raise the diameter.
    let mut candidates: Vec<NodeId> = (0..n as NodeId).filter(|&u| g.degree(u) > 0).collect();
    let mut best = 0u64;
    let (mut sweeps, mut rounds) = (0, 0);
    while !candidates.is_empty() {
        let key = |w: NodeId, bound: u64| (bound, Reverse(g.degree(w)), w);
        let by_upper = smallest(
            candidates
                .iter()
                .map(|&w| (key(w, u64::MAX - upper[w as usize]), w))
                .collect(),
            batch,
        );
        let by_lower_all = smallest(
            (0..n as NodeId)
                .filter(|&w| !swept[w as usize] && g.degree(w) > 0)
                .map(|w| (key(w, lower[w as usize]), w))
                .collect(),
            batch,
        );
        let by_lower = smallest(
            candidates
                .iter()
                .map(|&w| (key(w, lower[w as usize]), w))
                .collect(),
            batch,
        );
        let rankings = [&by_upper[..], &by_lower_all, &by_lower];
        let sources = take_in_turn(&rankings, batch, rounds, &mut swept);
        // Up to four chunks of sources per worker, for balance; a chunk
        // folds each distance row into its own bounds as soon as it is
        // swept, so only one row per worker is ever alive.
        let folded: Vec<(Vec<u64>, Vec<u64>)> = sources
            .par_chunks(sources.len().div_ceil(4 * pool))
            .map(|chunk| {
                let (mut lo, mut up) = (vec![0u64; n], vec![u64::MAX; n]);
                for &s in chunk {
                    let (dist, ecc) = g.sweep(s);
                    tighten::<G>(&mut lo, &mut up, &dist, ecc);
                }
                (lo, up)
            })
            .collect();
        for (lo, up) in &folded {
            for (l, &x) in lower.iter_mut().zip(lo) {
                *l = (*l).max(x);
            }
            for (u, &x) in upper.iter_mut().zip(up) {
                *u = (*u).min(x);
            }
        }
        sweeps += sources.len();
        rounds += 1;
        best = best.max(lower.iter().copied().max().unwrap_or(0));
        let before = candidates.len();
        candidates.retain(|&w| upper[w as usize] > best);
        batch = if before - candidates.len() <= sources.len() {
            2 * batch
        } else {
            pool
        };
    }
    span.field("sweeps", sweeps);
    span.field("rounds", rounds);
    BoundedDiameter {
        diameter: best,
        sweeps,
        rounds,
    }
}

/// Tightens `lower` and `upper` by one sweep's distances `dist` from a
/// source of eccentricity `ecc`.
fn tighten<G: SweepGraph>(lower: &mut [u64], upper: &mut [u64], dist: &[G::Dist], ecc: u64) {
    for ((lo, up), &d) in lower.iter_mut().zip(upper.iter_mut()).zip(dist) {
        // Branch-free, so the loop vectorizes; the wrapped values of an
        // unreached node are never selected.
        let reached = d != G::UNREACHED;
        let d: u64 = d.into();
        let (l, u) = (d.max(ecc.wrapping_sub(d)), ecc.wrapping_add(d));
        *lo = (*lo).max(if reached { l } else { 0 });
        *up = (*up).min(if reached { u } else { u64::MAX });
    }
}

/// The nodes of the `count` smallest keys, smallest first.
fn smallest<K: Ord + Copy>(mut keyed: Vec<(K, NodeId)>, count: usize) -> Vec<NodeId> {
    if keyed.len() > count {
        keyed.select_nth_unstable(count);
        keyed.truncate(count);
    }
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, w)| w).collect()
}

/// Up to `batch` unswept nodes, one from each ranking in turn (starting
/// with ranking `start mod rankings.len()`); marks them swept.
fn take_in_turn(
    rankings: &[&[NodeId]],
    batch: usize,
    start: usize,
    swept: &mut [bool],
) -> Vec<NodeId> {
    let mut taken = Vec::with_capacity(batch);
    let mut next = vec![0usize; rankings.len()];
    let mut turn = start;
    while taken.len() < batch {
        // The next unswept node of the first ranking, from `turn` on, that
        // still has one.
        let pick = (0..rankings.len()).find_map(|k| {
            let r = (turn + k) % rankings.len();
            let ranking = rankings[r];
            while let Some(&v) = ranking.get(next[r]) {
                next[r] += 1;
                if !swept[v as usize] {
                    return Some(v);
                }
            }
            None
        });
        let Some(v) = pick else { break };
        swept[v as usize] = true;
        taken.push(v);
        turn += 1;
    }
    taken
}

/// Sampled eccentricity spectrum: eccentricities of `samples` evenly spaced
/// nodes (diagnostics for EXPERIMENTS.md).
pub fn eccentricity_sample(g: &CsrGraph, samples: usize) -> Vec<u32> {
    let n = g.num_nodes();
    if n == 0 || samples == 0 {
        return Vec::new();
    }
    let step = (n / samples.min(n)).max(1);
    (0..n)
        .step_by(step)
        .take(samples)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|u| bfs(g, u as NodeId).levels)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn apsp_on_known_shapes() {
        assert_eq!(apsp_diameter(&generators::path(10)), 9);
        assert_eq!(apsp_diameter(&generators::cycle(10)), 5);
        assert_eq!(apsp_diameter(&generators::star(8)), 2);
        assert_eq!(apsp_diameter(&generators::complete(6)), 1);
        assert_eq!(apsp_diameter(&generators::mesh(7, 9)), 6 + 8);
    }

    #[test]
    fn apsp_empty_and_singleton() {
        assert_eq!(apsp_diameter(&CsrGraph::empty(0)), 0);
        assert_eq!(apsp_diameter(&CsrGraph::empty(1)), 0);
    }

    #[test]
    fn double_sweep_exact_on_paths_and_trees() {
        let g = generators::path(30);
        let s = double_sweep(&g, 13);
        assert_eq!(s.lower_bound, 29);
        // Midpoint of a path is its centre.
        assert!(
            (s.midpoint as i64 - 14).abs() <= 1,
            "midpoint {}",
            s.midpoint
        );
    }

    #[test]
    fn ifub_matches_apsp_on_mesh() {
        let g = generators::mesh(12, 17);
        let (d, bfs_used) = ifub(&g, 0);
        assert_eq!(d, apsp_diameter(&g));
        assert!(bfs_used < g.num_nodes(), "iFUB degenerated to APSP");
    }

    #[test]
    fn ifub_matches_apsp_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnm(300, 500, seed);
            let (lc, _) = crate::components::largest_component(&g);
            let (d, _) = ifub(&lc, 0);
            assert_eq!(d, apsp_diameter(&lc), "seed {seed}");
        }
    }

    #[test]
    fn ifub_on_lollipop() {
        let g = generators::lollipop(300, 4, 120, 7);
        let (d, _) = ifub(&g, 0);
        assert_eq!(d, apsp_diameter(&g));
        assert!(d >= 120);
    }

    #[test]
    fn exact_diameter_disconnected() {
        let g = generators::disjoint_union(&generators::path(7), &generators::cycle(12));
        assert_eq!(exact_diameter(&g), 6);
        let g = generators::disjoint_union(&generators::path(20), &generators::cycle(6));
        assert_eq!(exact_diameter(&g), 19);
    }

    /// `g` with deterministic weights in `1..=9`.
    fn weighted(g: &CsrGraph) -> WeightedGraph {
        let edges: Vec<_> = g
            .edges()
            .map(|(u, v)| (u, v, (u as u64 * 7 + v as u64 * 3) % 9 + 1))
            .collect();
        WeightedGraph::from_edges(g.num_nodes(), &edges)
    }

    /// Bounded ≡ APSP on `g`, unit and weighted, at the ambient pool size.
    fn assert_bounded_exact(name: &str, g: &CsrGraph) -> BoundedDiameter {
        let unit = bounded_diameter(g);
        assert_eq!(unit.diameter, apsp_diameter(g) as u64, "{name} (unit)");
        assert!(unit.sweeps >= unit.rounds, "{name}: {unit:?}");
        let wg = weighted(g);
        assert_eq!(
            bounded_diameter(&wg).diameter,
            wg.apsp_diameter(),
            "{name} (weighted)"
        );
        unit
    }

    #[test]
    fn bounded_empty_and_singleton() {
        for n in [0, 1] {
            let d = assert_bounded_exact("empty", &CsrGraph::empty(n));
            assert_eq!((d.diameter, d.sweeps, d.rounds), (0, 0, 0));
        }
    }

    #[test]
    fn bounded_on_known_shapes() {
        assert_eq!(
            assert_bounded_exact("path", &generators::path(10)).diameter,
            9
        );
        assert_eq!(
            assert_bounded_exact("star", &generators::star(8)).diameter,
            2
        );
        assert_eq!(
            assert_bounded_exact("cycle", &generators::cycle(11)).diameter,
            5
        );
        assert_eq!(
            assert_bounded_exact("complete", &generators::complete(6)).diameter,
            1
        );
        assert_eq!(
            assert_bounded_exact("mesh", &generators::mesh(7, 9)).diameter,
            6 + 8
        );
        let lollipop = generators::lollipop(60, 4, 30, 7);
        assert_bounded_exact("lollipop", &lollipop);
    }

    #[test]
    fn bounded_prunes_on_meshes_and_sweeps_everything_on_cycles() {
        let mesh = assert_bounded_exact("mesh", &generators::mesh(20, 20));
        assert!(mesh.sweeps < 40, "mesh took {mesh:?}");
        // Vertex-transitive: no sweep can certify another node.
        let cycle = assert_bounded_exact("cycle", &generators::cycle(64));
        assert_eq!(cycle.sweeps, 64);
    }

    #[test]
    fn bounded_takes_the_largest_component() {
        let g = generators::disjoint_union(&generators::path(7), &generators::cycle(12));
        assert_eq!(assert_bounded_exact("path+cycle", &g).diameter, 6);
        let g = generators::disjoint_union(&generators::path(20), &CsrGraph::empty(3));
        assert_eq!(assert_bounded_exact("path+isolated", &g).diameter, 19);
        assert_eq!(
            assert_bounded_exact("isolated", &CsrGraph::empty(5)).diameter,
            0
        );
    }

    #[test]
    fn bounded_weighted_prefers_light_detours() {
        // 0 -1- 1 -1- 3 with a heavy shortcut 0 -5- 3: the weighted
        // diameter is 2 along the light path, not the hop diameter 1.
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 3, 1), (0, 3, 5), (2, 3, 4)]);
        assert_eq!(bounded_diameter(&g).diameter, g.apsp_diameter());
        assert_eq!(g.apsp_diameter(), 6);
    }

    #[test]
    fn eccentricity_sample_bounds() {
        let g = generators::mesh(10, 10);
        let eccs = eccentricity_sample(&g, 8);
        assert!(!eccs.is_empty());
        let d = apsp_diameter(&g);
        for e in eccs {
            assert!(e <= d && e >= d / 2); // radius >= diameter/2
        }
    }
}
