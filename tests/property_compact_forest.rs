//! Property-based equivalence suite for the arena-backed compact cluster
//! forest: the forest-backed family must be indistinguishable from the old
//! dense one-host-sized-tree-per-centre representation.
//!
//! Three layers of equivalence, across random graphs, `k ∈ {2, 3}`, and both
//! the exact and the approximate (end-to-end distributed) constructions:
//!
//! * **Representation**: every forest cluster materialises
//!   ([`ClusterView::tree`]) to a [`RootedTree`] with identical member sets,
//!   identical parent arcs, and root distances consistent with the recorded
//!   estimates; for the exact family, members and root estimates also match
//!   the retained per-centre restricted-Dijkstra oracle.
//! * **Tree routing**: building the Theorem-7 scheme from the zero-copy
//!   forest slice and from the materialised dense tree yields bit-identical
//!   tables and labels for every member.
//! * **Assembly**: the snapshot `RoutingScheme::assemble` writes matches an
//!   independent reference (`tests/support/reference.rs`) built from the
//!   dense trees: every table and label record, every label entry against
//!   the family's pivots, every own-cluster table and the Table-1 word
//!   stats; and for sampled pairs the `Find-tree` decision equals a
//!   test-side Algorithm 1 and the route equals the chosen dense tree
//!   scheme's own route.

use proptest::prelude::*;

use en_graph::forest::TreeView;
use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::{BuildOptions, WeightedGraph};
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_routing::exact::{exact_cluster_family, grow_exact_cluster_csr, membership_thresholds};
use en_routing::scheme::RoutingScheme;
use en_routing::{ClusterFamily, Hierarchy, SchemeParams};
use en_tree_routing::{TreeRoutingConfig, TreeRoutingScheme};

#[path = "support/reference.rs"]
mod reference;
use reference::Reference;

fn arb_graph() -> impl Strategy<Value = (WeightedGraph, u64)> {
    (16usize..56, 0u64..10_000, 1u64..60).prop_map(|(n, seed, max_w)| {
        (
            erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, max_w), 0.12),
            seed,
        )
    })
}

/// Representation equivalence: each forest slice and its materialised dense
/// tree describe the same rooted tree, and the root estimates are coherent.
fn check_forest_matches_dense(g: &WeightedGraph, family: &ClusterFamily) {
    for view in family.clusters() {
        let tree = view.tree();
        assert_eq!(tree.root(), view.center());
        assert_eq!(tree.len(), view.len());
        assert_eq!(tree.members(), view.members().collect::<Vec<_>>());
        for v in view.members() {
            assert_eq!(
                tree.parent(v),
                view.parent(v),
                "centre {}: parent arc of {v} differs",
                view.center()
            );
        }
        assert!(tree.is_subgraph_of(g), "centre {}", view.center());
        // The local topology of the slice and of the dense tree agree.
        let a = view.topology();
        let b = tree.topology();
        assert_eq!(a.members, b.members);
        assert_eq!(a.parent_idx, b.parent_idx);
        assert_eq!(a.parent_weight, b.parent_weight);
        assert_eq!(a.root_pos, b.root_pos);
    }
}

/// Tree-routing equivalence: the Theorem-7 scheme built from the zero-copy
/// slice equals the one built from the materialised dense tree, table for
/// table and label for label.
fn check_tree_schemes_match(family: &ClusterFamily, tree_seed: u64) {
    for view in family.clusters() {
        let config =
            TreeRoutingConfig::new(tree_seed ^ (view.center() as u64).wrapping_mul(0x9E37_79B9));
        let from_slice = TreeRoutingScheme::build(&view, &config);
        let from_dense = TreeRoutingScheme::build(&view.tree(), &config);
        assert_eq!(from_slice.portals(), from_dense.portals());
        for v in view.members() {
            assert_eq!(
                from_slice.table(v),
                from_dense.table(v),
                "centre {}: table of {v} differs",
                view.center()
            );
            assert_eq!(
                from_slice.label(v),
                from_dense.label(v),
                "centre {}: label of {v} differs",
                view.center()
            );
        }
    }
}

/// Assembly equivalence: the assembled snapshot, its `Find-tree` decisions
/// and its routes match the independent reference.
fn check_assembly_matches_reference(g: &WeightedGraph, family: &ClusterFamily, tree_seed: u64) {
    let scheme = RoutingScheme::assemble(family, tree_seed, &BuildOptions::new(1)).0;
    let reference = Reference::new(family, tree_seed);
    reference.check_snapshot(scheme.bytes());
    let n = g.num_nodes();
    for u in (0..n).step_by(3) {
        for v in (0..n).step_by(5) {
            if u == v {
                continue;
            }
            let found = scheme.find_tree(u, v).ok().map(|(r, l)| (r, l.vertex()));
            let routed = scheme.route(g, u, v).ok();
            assert!(routed.as_ref().is_none_or(|o| o.path.is_valid_in(g)));
            let routed = routed.as_ref().map(|o| (o.tree_root, o.level, &o.path));
            reference.check_pair(u, v, found, routed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// The exact construction: forest ≡ dense representation ≡ per-centre
    /// oracle, and the assembled scheme matches the reference.
    #[test]
    fn exact_family_forest_is_equivalent_to_dense(
        gs in arb_graph(),
        k in 2usize..4,
    ) {
        let (g, seed) = gs;
        let n = g.num_nodes();
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        check_forest_matches_dense(&g, &family);
        // Members and root estimates also match the per-centre oracle (the
        // pre-forest ground truth).
        let csr = en_graph::CsrGraph::from_graph(&g);
        for view in family.clusters() {
            let threshold = membership_thresholds(&family.pivots, view.level());
            let oracle = grow_exact_cluster_csr(&csr, view.center(), view.level(), &threshold);
            prop_assert_eq!(view.members().collect::<Vec<_>>(), oracle.members());
            for (v, &est) in view.members().zip(view.root_dists()) {
                prop_assert_eq!(Some(&est), oracle.root_estimate.get(&v));
            }
        }
        check_tree_schemes_match(&family, seed);
        check_assembly_matches_reference(&g, &family, seed);
    }

    /// The approximate (end-to-end distributed) construction: the family the
    /// pipeline produces is representation-equivalent, and its assembly
    /// matches the reference too.
    #[test]
    fn approx_family_forest_is_equivalent_to_dense(
        gs in arb_graph(),
        k in 2usize..4,
    ) {
        let (g, seed) = gs;
        let built = build_routing_scheme(&g, &ConstructionConfig::new(k, seed)).unwrap();
        check_forest_matches_dense(&g, &built.family);
        check_tree_schemes_match(&built.family, seed);
        check_assembly_matches_reference(&g, &built.family, seed);
    }
}
