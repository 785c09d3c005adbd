//! Empirical verification of the hopset property (Definition 1).
//!
//! Because the reproduction uses a hopset construction different from the
//! (unpublished-as-code) \[EN16a\] one, every benchmark and several tests
//! *check* Definition 1 on the actual instance rather than assuming it:
//! for all pairs `u, v`,
//! `d_G(u, v) ≤ d^{(β)}_{G ∪ F}(u, v) ≤ (1 + ε) d_G(u, v)`.

use en_graph::bellman_ford::hop_bounded_distances_csr;
use en_graph::dijkstra::all_pairs_dijkstra;
use en_graph::{is_finite, NodeId, WeightedGraph};

use crate::augment::AugmentedGraph;
use crate::edge::Hopset;

/// The outcome of verifying Definition 1 on a concrete graph + hopset.
#[derive(Debug, Clone, PartialEq)]
pub struct HopsetReport {
    /// Number of (ordered) reachable pairs checked.
    pub pairs_checked: usize,
    /// Number of pairs where the hop-bounded augmented distance fell *below*
    /// the true distance (must be 0 for a correct hopset: shortcuts never
    /// undercut real distances).
    pub lower_violations: usize,
    /// The maximum over all pairs of `d^{(β)}_{G∪F}(u,v) / d_G(u,v)`.
    pub max_ratio: f64,
    /// A pair attaining `max_ratio`.
    pub worst_pair: Option<(NodeId, NodeId)>,
    /// The hopbound β that was used for the check.
    pub beta: usize,
}

impl HopsetReport {
    /// Whether the report certifies a `(beta, epsilon)`-hopset (for the β the
    /// check was run with).
    pub fn satisfies(&self, beta: usize, epsilon: f64) -> bool {
        self.beta <= beta && self.lower_violations == 0 && self.max_ratio <= 1.0 + epsilon + 1e-9
    }
}

/// Verifies Definition 1 for `hopset` on `g`, using the hopset's own claimed β.
pub fn verify_hopset(g: &WeightedGraph, hopset: &Hopset) -> HopsetReport {
    verify_hopset_with_beta(g, hopset, hopset.beta())
}

/// Verifies Definition 1 for `hopset` on `g` with an explicit hopbound `beta`.
pub fn verify_hopset_with_beta(g: &WeightedGraph, hopset: &Hopset, beta: usize) -> HopsetReport {
    let truth = all_pairs_dijkstra(g);
    let aug = AugmentedGraph::new(g, hopset).to_csr();
    let mut pairs_checked = 0;
    let mut lower_violations = 0;
    let mut max_ratio: f64 = 1.0;
    let mut worst_pair = None;
    for u in g.nodes() {
        let hop_dist = hop_bounded_distances_csr(&aug, u, beta).dist;
        for v in g.nodes() {
            if u == v || !is_finite(truth[u][v]) {
                continue;
            }
            pairs_checked += 1;
            if hop_dist[v] < truth[u][v] {
                lower_violations += 1;
            }
            let ratio = if is_finite(hop_dist[v]) {
                hop_dist[v] as f64 / truth[u][v] as f64
            } else {
                f64::INFINITY
            };
            if ratio > max_ratio {
                max_ratio = ratio;
                worst_pair = Some((u, v));
            }
        }
    }
    HopsetReport {
        pairs_checked,
        lower_violations,
        max_ratio,
        worst_pair,
        beta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_hopset, HopsetConfig};
    use crate::edge::HopsetEdge;
    use en_graph::generators::{
        erdos_renyi_connected, path, random_geometric_connected, GeneratorConfig,
    };
    use en_graph::Path;

    #[test]
    fn built_hopsets_satisfy_definition_1_on_random_graphs() {
        for seed in 0..3u64 {
            let g =
                erdos_renyi_connected(&GeneratorConfig::new(45, seed).with_weights(1, 40), 0.08);
            let cfg = HopsetConfig::new(0.4, 0.1, seed);
            let h = build_hopset(&g, &cfg);
            let report = verify_hopset(&g, &h);
            assert!(
                report.satisfies(h.beta(), 0.0),
                "seed {seed}: ratio {} violations {}",
                report.max_ratio,
                report.lower_violations
            );
        }
    }

    #[test]
    fn built_hopsets_satisfy_definition_1_on_geometric_graphs() {
        let g = random_geometric_connected(&GeneratorConfig::new(40, 8), 0.25);
        let h = build_hopset(&g, &HopsetConfig::new(0.5, 0.1, 8));
        let report = verify_hopset(&g, &h);
        assert!(report.satisfies(h.beta(), 0.0));
        assert!(report.pairs_checked > 0);
    }

    #[test]
    fn empty_hopset_needs_full_hop_budget() {
        // On a path, without hopset edges a hop bound of 2 cannot reach far
        // vertices, so the report must flag a huge ratio.
        let g = path(&GeneratorConfig::new(12, 2).unweighted());
        let report = verify_hopset_with_beta(&g, &Hopset::empty(2), 2);
        assert!(!report.satisfies(2, 0.5));
        assert!(report.max_ratio.is_infinite());
        // With the full budget the empty hopset is fine (β = n is always enough).
        let report = verify_hopset_with_beta(&g, &Hopset::empty(12), 12);
        assert!(report.satisfies(12, 0.0));
    }

    #[test]
    fn undercutting_edge_is_reported_as_lower_violation() {
        let g = en_graph::WeightedGraph::from_edges(3, [(0, 1, 10), (1, 2, 10)]).unwrap();
        // A bogus "hopset" edge claiming distance 1 between 0 and 2 undercuts
        // the true distance 20.
        let bogus = Hopset::new(
            vec![HopsetEdge {
                u: 0,
                v: 2,
                weight: 1,
                path: Path::new(vec![0, 1, 2]),
            }],
            3,
            0.0,
        );
        let report = verify_hopset(&g, &bogus);
        assert!(report.lower_violations > 0);
        assert!(!report.satisfies(3, 0.0));
    }
}
