//! The compact routing scheme (Section 4).
//!
//! Given a [`ClusterFamily`] (exact or approximate), every cluster tree gets a
//! tree-routing scheme (Theorem 7). The routing table of a vertex `v` is the
//! collection of its tree tables for every tree containing it; the label of
//! `v` consists of, for every level `i`, its (approximate) `i`-pivot
//! `ẑ_i(v)`, the (approximate) distance to it, and — when `v` belongs to the
//! tree `C̃(ẑ_i(v))` — `v`'s tree label in that tree.
//!
//! To route from `u` to `v`, Algorithm 1 (`Find-tree`) scans the levels
//! `i = 0, 1, …` until it finds a tree `C̃(ẑ_i(v))` containing **both**
//! endpoints (decidable from `u`'s table plus `v`'s label alone); the packet
//! then carries `(root, tree label of v)` in its header and is forwarded by
//! the tree scheme, consulting only each intermediate vertex's local table.
//!
//! The `4k−5` refinement of \[TZ01\] is implemented as well: every centre
//! `u ∈ A_0 \ A_1` stores the tree labels of all members of its own cluster,
//! so packets *from* `u` to a member of `C̃(u)` are routed directly in `C̃(u)`.
//!
//! The scheme has one representation: the validated v3 snapshot of
//! [`crate::snapshot`]. Assembly writes each cluster's table and label
//! records as soon as that cluster's tree scheme is built, and routing reads
//! the snapshot columns through the one forwarding kernel in
//! [`crate::access`].

use en_graph::dijkstra::dijkstra;
use en_graph::{BuildOptions, BuildStats, Dist, NodeId, Path, WeightedGraph};

use crate::access;
use crate::error::RoutingError;
use crate::family::ClusterFamily;
pub use crate::snapshot::RoutingScheme;
use crate::snapshot::{self, FlatTreeLabel};

/// The outcome of routing one packet.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    /// The tree (centre) the packet was routed through.
    pub tree_root: NodeId,
    /// The level of that tree's centre.
    pub level: usize,
    /// The traversed path (starts at the source, ends at the destination).
    pub path: Path,
    /// Weighted length of the traversed path.
    pub length: Dist,
    /// Exact shortest-path distance between the endpoints.
    pub exact: Dist,
    /// `length / exact` (1.0 when the endpoints coincide).
    pub stretch: f64,
}

impl RoutingScheme {
    /// Assembles the routing scheme from a cluster family, also returning
    /// the per-thread work accounting.
    ///
    /// `tree_seed` seeds the portal sampling of the per-tree schemes. Every
    /// cluster's tree scheme is built zero-copy from its forest slice, its
    /// table and label records are written into the snapshot's columns, and
    /// it is dropped. The cluster builds and the per-vertex sweep each shard
    /// into up to `opts.threads` parts of [`en_graph::run_parts`],
    /// concatenated in span order, so the bytes are identical for every
    /// thread count. The result is validated like any loaded snapshot.
    pub fn assemble(
        family: &ClusterFamily,
        tree_seed: u64,
        opts: &BuildOptions,
    ) -> (Self, BuildStats) {
        let (bytes, stats) = snapshot::encode(family, tree_seed, opts);
        let scheme = RoutingScheme::validated(bytes, opts.threads)
            .expect("assembly writes a valid snapshot");
        (scheme, stats)
    }
}

impl<B: AsRef<[u8]>> RoutingScheme<B> {
    /// The parameter `k`.
    pub fn k(&self) -> usize {
        self.flat().k()
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.flat().n()
    }

    /// The number of cluster trees containing `v` (0 for an id outside the
    /// scheme).
    pub fn trees_containing(&self, v: NodeId) -> usize {
        self.flat().trees_of(v).len()
    }

    /// Maximum table size over all vertices, in words: the sum of a
    /// vertex's tree tables plus, at level-0 centres, the stored member
    /// labels.
    pub fn max_table_words(&self) -> usize {
        self.flat().max_table_words()
    }

    /// Average table size over all vertices, in words.
    pub fn avg_table_words(&self) -> f64 {
        let flat = self.flat();
        if flat.n() == 0 {
            return 0.0;
        }
        flat.total_table_words() as f64 / flat.n() as f64
    }

    /// Maximum label size over all vertices, in words.
    pub fn max_label_words(&self) -> usize {
        self.flat().max_label_words()
    }

    /// Average label size over all vertices, in words.
    pub fn avg_label_words(&self) -> f64 {
        let flat = self.flat();
        if flat.n() == 0 {
            return 0.0;
        }
        flat.total_label_words() as f64 / flat.n() as f64
    }

    /// Algorithm 1 (`Find-tree`) plus the \[TZ01\] `4k−5` refinement:
    /// returns the centre of the tree the packet from `from` to `to` will
    /// use, and the destination's tree label there — using only `from`'s
    /// table and `to`'s label, exactly as a real node would
    /// ([`access::find_tree_via`]).
    ///
    /// # Errors
    ///
    /// Out-of-range vertices and the (low-probability) no-common-tree case.
    pub fn find_tree(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<(NodeId, FlatTreeLabel<'_>), RoutingError> {
        access::find_tree_via(&self.flat(), from, to)
    }

    /// Routes a packet from `from` to `to`, forwarding hop by hop through the
    /// chosen cluster tree ([`access::forward_via`]), and measures the
    /// stretch against the exact shortest-path distance in `g`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is invalid, no common tree exists
    /// (a low-probability sampling failure), or forwarding fails.
    pub fn route(
        &self,
        g: &WeightedGraph,
        from: NodeId,
        to: NodeId,
    ) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path) = access::forward_via(&self.flat(), from, to)?;
        let exact = dijkstra(g, from).dist[to];
        Ok(RouteOutcome::new(g, root, level, path, exact))
    }

    /// Routes between the endpoints using a caller-supplied exact distance
    /// for the stretch denominator (used by the benchmark harness to avoid
    /// re-running Dijkstra per query).
    ///
    /// # Errors
    ///
    /// As [`Self::route`].
    pub fn route_with_exact(
        &self,
        g: &WeightedGraph,
        from: NodeId,
        to: NodeId,
        exact: Dist,
    ) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path) = access::forward_via(&self.flat(), from, to)?;
        Ok(RouteOutcome::new(g, root, level, path, exact))
    }
}

impl RouteOutcome {
    /// Weighs `path` in `g` and fills in the stretch against `exact` (1.0
    /// when the endpoints coincide or no exact distance was given).
    pub fn new(g: &WeightedGraph, root: NodeId, level: usize, path: Path, exact: Dist) -> Self {
        let length = path.length_in(g).unwrap_or(0);
        let stretch = if exact == 0 {
            1.0
        } else {
            length as f64 / exact as f64
        };
        RouteOutcome {
            tree_root: root,
            level,
            path,
            length,
            exact,
            stretch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_cluster_family;
    use crate::hierarchy::Hierarchy;
    use crate::params::SchemeParams;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    fn exact_scheme(n: usize, k: usize, seed: u64) -> (WeightedGraph, RoutingScheme, SchemeParams) {
        let g = erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, 30), 0.1);
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let scheme = RoutingScheme::assemble(&family, seed, &BuildOptions::new(1)).0;
        (g, scheme, params)
    }

    #[test]
    fn every_pair_is_routable_with_bounded_stretch() {
        let (g, scheme, params) = exact_scheme(50, 3, 1);
        let bound = params.stretch_bound();
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let out = scheme
                    .route(&g, u, v)
                    .unwrap_or_else(|e| panic!("{u}->{v}: {e}"));
                assert_eq!(out.path.nodes().first(), Some(&u));
                assert_eq!(out.path.nodes().last(), Some(&v));
                assert!(out.path.is_valid_in(&g));
                assert!(
                    out.stretch <= bound + 1e-9,
                    "stretch {} exceeds bound {} for {u}->{v}",
                    out.stretch,
                    bound
                );
            }
        }
    }

    #[test]
    fn k_equals_one_routes_with_stretch_one() {
        let (g, scheme, _) = exact_scheme(30, 1, 2);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let out = scheme.route(&g, u, v).unwrap();
                assert!(
                    (out.stretch - 1.0).abs() < 1e-9,
                    "k=1 must route on shortest paths, got {}",
                    out.stretch
                );
            }
        }
    }

    #[test]
    fn find_tree_uses_local_information_consistently() {
        let (g, scheme, _) = exact_scheme(40, 2, 3);
        for u in g.nodes().step_by(5) {
            for v in g.nodes().step_by(7) {
                if u == v {
                    continue;
                }
                let (root, label) = scheme.find_tree(u, v).unwrap();
                // The chosen tree really does contain both endpoints.
                let flat = scheme.flat();
                assert!(flat.trees_of(u).binary_search(root as u64).is_ok() || root == u);
                assert!(flat.trees_of(v).binary_search(root as u64).is_ok());
                assert_eq!(label.vertex(), v);
            }
        }
    }

    #[test]
    fn label_sizes_are_o_k_polylog() {
        let (g, scheme, _) = exact_scheme(100, 4, 4);
        let n = g.num_nodes() as f64;
        let bound = 4.0 * 4.0 * n.log2() * n.log2() + 64.0;
        assert!(
            (scheme.max_label_words() as f64) <= bound,
            "label {} exceeds O(k log^2 n) = {}",
            scheme.max_label_words(),
            bound
        );
    }

    #[test]
    fn table_sizes_shrink_as_k_grows() {
        // Larger k means fewer clusters per vertex (Õ(n^{1/k})): compare k=1 vs k=3
        // average tree-table contributions (excluding the level-0 member labels,
        // which are the 4k−5 refinement's extra storage).
        let (_, s1, _) = exact_scheme(80, 1, 5);
        let (_, s3, _) = exact_scheme(80, 3, 5);
        let avg_trees_1: f64 = (0..80).map(|v| s1.trees_containing(v)).sum::<usize>() as f64 / 80.0;
        let avg_trees_3: f64 = (0..80).map(|v| s3.trees_containing(v)).sum::<usize>() as f64 / 80.0;
        assert!(
            avg_trees_3 < avg_trees_1,
            "k=3 should store fewer trees per vertex ({avg_trees_3} vs {avg_trees_1})"
        );
    }

    #[test]
    fn out_of_range_vertices_are_rejected() {
        let (g, scheme, _) = exact_scheme(20, 2, 6);
        assert!(matches!(
            scheme.route(&g, 0, 99),
            Err(RoutingError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            scheme.find_tree(99, 0),
            Err(RoutingError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn route_with_exact_matches_route() {
        let (g, scheme, _) = exact_scheme(30, 2, 7);
        let exact = dijkstra(&g, 3).dist[17];
        let a = scheme.route(&g, 3, 17).unwrap();
        let b = scheme.route_with_exact(&g, 3, 17, exact).unwrap();
        assert_eq!(a.length, b.length);
        assert_eq!(a.path, b.path);
        assert!((a.stretch - b.stretch).abs() < 1e-12);
    }

    #[test]
    fn size_accessors_are_consistent() {
        let (_, scheme, _) = exact_scheme(40, 2, 8);
        assert!(scheme.max_table_words() >= scheme.avg_table_words() as usize);
        assert!(scheme.max_label_words() >= scheme.avg_label_words() as usize);
        assert!(scheme.avg_table_words() > 0.0);
        assert!(scheme.avg_label_words() > 0.0);
        assert_eq!(scheme.k(), 2);
        assert_eq!(scheme.n(), 40);
    }
}
