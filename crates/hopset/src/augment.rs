//! The augmented graph `G'' = (V, E ∪ F)`.
//!
//! Section 3.3.1 of the paper forms `G''` by adding the hopset edges to the
//! virtual graph; where a hopset edge parallels an original edge, the hopset
//! weight wins. Explorations over `G''` need to know, for every traversed
//! edge, whether it is an original edge or a hopset edge (and in the latter
//! case which one), because Phase 1.5 treats the two differently.

use std::collections::HashMap;

use en_graph::{CsrGraph, Dist, NodeId, WeightedGraph};

use crate::edge::Hopset;

/// One adjacency entry of the augmented graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AugNeighbor {
    /// The neighbouring vertex.
    pub node: NodeId,
    /// The weight under `w''` (hopset weight wins on conflicts).
    pub weight: Dist,
    /// `Some(i)` if this adjacency comes from hopset edge `i`, `None` if it is
    /// an original edge of the base graph.
    pub hopset_index: Option<usize>,
}

/// The graph `G'' = (V, E ∪ F)` with per-edge provenance.
///
/// The adjacency is stored in CSR form — one flat [`AugNeighbor`] array plus
/// per-vertex offsets; [`AugmentedGraph::neighbors`] is a slice view into it,
/// and [`AugmentedGraph::to_csr`] hands the `β`-hop Bellman–Ford
/// explorations of Phases 1 and 3.3.2 a plain [`CsrGraph`] in the same arc
/// order.
#[derive(Debug, Clone)]
pub struct AugmentedGraph {
    n: usize,
    /// `offsets[v]..offsets[v + 1]` indexes `arcs` for vertex `v`.
    offsets: Vec<usize>,
    /// Flat adjacency entries, vertex-major, sorted by neighbour id.
    arcs: Vec<AugNeighbor>,
    num_hopset_edges: usize,
}

impl AugmentedGraph {
    /// Builds `G''` from a base graph and a hopset over the same vertex set.
    ///
    /// Where the hopset contains an edge parallel to a base edge, the hopset
    /// weight replaces the base weight (the paper's conflict rule).
    ///
    /// # Panics
    ///
    /// Panics if a hopset edge references a vertex outside the base graph.
    pub fn new(base: &WeightedGraph, hopset: &Hopset) -> Self {
        let n = base.num_nodes();
        // Undirected adjacency map keyed by (min, max) endpoint pair.
        let mut best: HashMap<(NodeId, NodeId), (Dist, Option<usize>)> = HashMap::new();
        for e in base.edges() {
            best.insert((e.u, e.v), (e.weight, None));
        }
        for (i, he) in hopset.edges().iter().enumerate() {
            assert!(he.u < n && he.v < n, "hopset edge endpoint out of range");
            let key = (he.u.min(he.v), he.u.max(he.v));
            // Conflict rule: the hopset weight wins.
            best.insert(key, (he.weight, Some(i)));
        }
        let mut adj = vec![Vec::new(); n];
        let mut num_hopset_edges = 0;
        for (&(u, v), &(w, idx)) in &best {
            adj[u].push(AugNeighbor {
                node: v,
                weight: w,
                hopset_index: idx,
            });
            adj[v].push(AugNeighbor {
                node: u,
                weight: w,
                hopset_index: idx,
            });
            if idx.is_some() {
                num_hopset_edges += 1;
            }
        }
        // Flatten into CSR, each vertex's entries sorted by neighbour id.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(2 * best.len());
        offsets.push(0);
        for list in &mut adj {
            list.sort_by_key(|nb| nb.node);
            arcs.extend_from_slice(list);
            offsets.push(arcs.len());
        }
        AugmentedGraph {
            n,
            offsets,
            arcs,
            num_hopset_edges,
        }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of undirected edges whose weight/provenance comes from the hopset.
    pub fn num_hopset_edges(&self) -> usize {
        self.num_hopset_edges
    }

    /// The adjacency list of `u` — a slice view into the flat CSR array.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[AugNeighbor] {
        &self.arcs[self.offsets[u]..self.offsets[u + 1]]
    }

    /// A plain [`CsrGraph`] view of `G''` (weights under `w''`, provenance
    /// dropped), in the same per-vertex arc order as
    /// [`AugmentedGraph::neighbors`] — the shape the batched restricted
    /// kernel (`en_graph::restricted`) consumes. Provenance of a recovered
    /// parent arc can be looked up afterwards with
    /// [`AugmentedGraph::provenance`], because `G''` never holds parallel
    /// edges (the conflict rule collapses them).
    pub fn to_csr(&self) -> CsrGraph {
        let targets = self.arcs.iter().map(|nb| nb.node).collect();
        let weights = self.arcs.iter().map(|nb| nb.weight).collect();
        CsrGraph::from_parts(self.offsets.clone(), targets, weights)
    }

    /// The hopset index of the unique `G''` edge `(u, v)` (`None` when the
    /// edge is an original edge of the base graph).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `(u, v)` is not an edge of `G''`.
    pub fn provenance(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let arcs = self.neighbors(u);
        // Arcs are sorted by neighbour id, so a binary search finds the edge.
        let pos = arcs
            .binary_search_by_key(&v, |nb| nb.node)
            .unwrap_or_else(|_| panic!("({u}, {v}) is not an edge of G''"));
        arcs[pos].hopset_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_hopset, HopsetConfig};
    use crate::edge::HopsetEdge;
    use en_graph::bellman_ford::hop_bounded_distances_csr;
    use en_graph::dijkstra::dijkstra;
    use en_graph::generators::{path, GeneratorConfig};
    use en_graph::Path;

    #[test]
    fn augmenting_with_empty_hopset_reproduces_base() {
        let g = path(&GeneratorConfig::new(5, 1));
        let aug = AugmentedGraph::new(&g, &Hopset::empty(2));
        assert_eq!(aug.num_nodes(), 5);
        assert_eq!(aug.num_hopset_edges(), 0);
        let hb = hop_bounded_distances_csr(&aug.to_csr(), 0, 10);
        let sp = dijkstra(&g, 0);
        assert_eq!(hb.dist, sp.dist);
    }

    #[test]
    fn hopset_weight_wins_on_conflict() {
        let g =
            en_graph::WeightedGraph::from_edges(3, [(0, 1, 5), (1, 2, 5), (0, 2, 100)]).unwrap();
        let hopset = Hopset::new(
            vec![HopsetEdge {
                u: 0,
                v: 2,
                weight: 10,
                path: Path::new(vec![0, 1, 2]),
            }],
            2,
            0.0,
        );
        let aug = AugmentedGraph::new(&g, &hopset);
        let direct = aug
            .neighbors(0)
            .iter()
            .find(|nb| nb.node == 2)
            .expect("edge (0,2) exists");
        assert_eq!(direct.weight, 10);
        assert_eq!(direct.hopset_index, Some(0));
        assert_eq!(aug.num_hopset_edges(), 1);
    }

    #[test]
    fn hop_bounded_distances_shrink_with_hopset() {
        let g = path(&GeneratorConfig::new(20, 4).unweighted());
        let hopset = build_hopset(&g, &HopsetConfig::new(0.3, 0.0, 4));
        let aug = AugmentedGraph::new(&g, &hopset);
        let with_hopset = hop_bounded_distances_csr(&aug.to_csr(), 0, 4).dist;
        let plain = en_graph::bellman_ford::hop_bounded_distances(&g, 0, 4);
        // With shortcuts, at least one far vertex becomes reachable in 4 hops
        // at its exact distance.
        let improved = (0..20).any(|v| with_hopset[v] < plain.dist[v]);
        assert!(improved, "hopset should shorten some 4-hop distance");
        // And never makes anything worse or below the true distance.
        let sp = dijkstra(&g, 0);
        for v in 0..20 {
            assert!(with_hopset[v] <= plain.dist[v]);
            assert!(with_hopset[v] >= sp.dist[v]);
        }
    }

    #[test]
    fn parent_provenance_distinguishes_hopset_edges() {
        let g = path(&GeneratorConfig::new(10, 6).unweighted());
        let hopset = build_hopset(&g, &HopsetConfig::new(0.3, 0.0, 6));
        let aug = AugmentedGraph::new(&g, &hopset);
        let hb = hop_bounded_distances_csr(&aug.to_csr(), 0, 2);
        // Any vertex reached through a shortcut must point at its hopset edge.
        for v in 0..10 {
            let Some(p) = hb.parent[v] else { continue };
            if let Some(idx) = aug.provenance(p, v) {
                let edge = &hopset.edges()[idx];
                assert!(
                    (edge.u == p && edge.v == v) || (edge.u == v && edge.v == p),
                    "provenance points at the wrong hopset edge"
                );
            }
        }
    }

    #[test]
    fn csr_view_matches_adjacency_and_provenance() {
        let g =
            en_graph::WeightedGraph::from_edges(3, [(0, 1, 5), (1, 2, 5), (0, 2, 100)]).unwrap();
        let hopset = Hopset::new(
            vec![HopsetEdge {
                u: 0,
                v: 2,
                weight: 10,
                path: Path::new(vec![0, 1, 2]),
            }],
            2,
            0.0,
        );
        let aug = AugmentedGraph::new(&g, &hopset);
        let csr = aug.to_csr();
        assert_eq!(csr.num_nodes(), 3);
        for v in 0..3 {
            let (targets, weights) = csr.arcs(v);
            for (i, nb) in aug.neighbors(v).iter().enumerate() {
                assert_eq!(targets[i], nb.node);
                assert_eq!(weights[i], nb.weight);
                assert_eq!(aug.provenance(v, nb.node), nb.hopset_index);
            }
        }
        assert_eq!(aug.provenance(0, 2), Some(0));
        assert_eq!(aug.provenance(0, 1), None);
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn provenance_rejects_non_edges() {
        let g = path(&GeneratorConfig::new(4, 1));
        let aug = AugmentedGraph::new(&g, &Hopset::empty(4));
        let _ = aug.provenance(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hopset_edge_out_of_range_panics() {
        let g = path(&GeneratorConfig::new(3, 1));
        let hopset = Hopset::new(
            vec![HopsetEdge {
                u: 0,
                v: 9,
                weight: 1,
                path: Path::new(vec![0, 9]),
            }],
            2,
            0.0,
        );
        let _ = AugmentedGraph::new(&g, &hopset);
    }
}
