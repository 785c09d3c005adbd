//! Golden behaviour lock: a fixed table of (generator, n, k, seed) cases and
//! the fingerprints their single-thread builds produce.
//!
//! The bit-identity suites compare two code paths inside one build; this test
//! pins behaviour *across* revisions. A refactor that claims to change
//! nothing must leave every row of [`GOLDEN`] passing unedited. A change that
//! alters routing on purpose updates the table and says why.
//!
//! Each row records three values of a `BuildOptions::new(1)` build:
//! - `snapshot`: `fnv1a_bytes` of the serialized wire snapshot;
//! - `rounds`: the construction ledger's total CONGEST rounds;
//! - `routes`: a word-wise FNV digest of `(tree_root, level, path nodes)`
//!   over a fixed set of 256 source/destination pairs.

use en_graph::generators::{
    barabasi_albert, erdos_renyi_connected, grid, random_geometric_connected, two_tier_isp,
    GeneratorConfig,
};
use en_graph::{BuildOptions, WeightedGraph};
use en_routing::construction::{build_routing_scheme_with, ConstructionConfig};
use en_routing::RoutingScheme;
use en_wire::checksum::{fnv1a_bytes, fnv1a_words};
use en_wire::serialize;

/// Number of routed pairs per case.
const PAIRS: usize = 256;

/// One pinned case: the generator to run and the fingerprints it must give.
struct Golden {
    name: &'static str,
    k: usize,
    seed: u64,
    snapshot: u64,
    rounds: usize,
    routes: u64,
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { name: "erdos_renyi_200", k: 2, seed: 1, snapshot: 0xd1e5b446a1aedcac, rounds: 411656, routes: 0x2b172184ae0605a9 },
    Golden { name: "erdos_renyi_300", k: 3, seed: 2, snapshot: 0x53a920ddecadd1a4, rounds: 3736449, routes: 0x83948c71c26301f1 },
    Golden { name: "random_geometric_250", k: 3, seed: 3, snapshot: 0x7b28e01e57aa0782, rounds: 3296489, routes: 0x659eaeec3c4d3d88 },
    Golden { name: "grid_15x16", k: 2, seed: 4, snapshot: 0x0417065e5adab489, rounds: 481858, routes: 0xcea71d960ac77211 },
    Golden { name: "barabasi_albert_300", k: 4, seed: 5, snapshot: 0x5da71d76e5c89668, rounds: 8095861, routes: 0x123b30dfd9292162 },
    Golden { name: "two_tier_isp_200", k: 4, seed: 6, snapshot: 0x4bf4cd28abb7ffcd, rounds: 5391706, routes: 0x6822522f9262929e },
];

fn graph(name: &str, seed: u64) -> WeightedGraph {
    match name {
        "erdos_renyi_200" => {
            erdos_renyi_connected(&GeneratorConfig::new(200, seed).with_weights(1, 50), 0.04)
        }
        "erdos_renyi_300" => {
            erdos_renyi_connected(&GeneratorConfig::new(300, seed).with_weights(1, 50), 0.03)
        }
        "random_geometric_250" => {
            random_geometric_connected(&GeneratorConfig::new(250, seed).with_weights(1, 30), 0.14)
        }
        "grid_15x16" => grid(&GeneratorConfig::new(240, seed).with_weights(1, 20), 15, 16),
        "barabasi_albert_300" => {
            barabasi_albert(&GeneratorConfig::new(300, seed).with_weights(1, 40), 2)
        }
        "two_tier_isp_200" => two_tier_isp(&GeneratorConfig::new(200, seed), 0.1),
        other => panic!("unknown golden case {other}"),
    }
}

/// The fixed pair set: splitmix64 draws, self-pairs skipped.
fn pairs(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut state = seed ^ 0x601D_F1A6;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % n
    };
    let mut out = Vec::with_capacity(PAIRS);
    while out.len() < PAIRS {
        let (u, v) = (next(), next());
        if u != v {
            out.push((u, v));
        }
    }
    out
}

fn route_digest(g: &WeightedGraph, scheme: &RoutingScheme, seed: u64) -> u64 {
    let mut words = Vec::new();
    for (u, v) in pairs(g.num_nodes(), seed) {
        let out = scheme
            .route_with_exact(g, u, v, 0)
            .unwrap_or_else(|e| panic!("route {u}->{v} failed: {e}"));
        words.push(out.tree_root as u64);
        words.push(out.level as u64);
        words.push(out.path.nodes().len() as u64);
        words.extend(out.path.nodes().iter().map(|&x| x as u64));
    }
    fnv1a_words(&words)
}

/// Builds one case and returns its `(snapshot, rounds, routes)` fingerprints.
fn fingerprints(name: &str, k: usize, seed: u64) -> (u64, usize, u64) {
    let g = graph(name, seed);
    let built =
        build_routing_scheme_with(&g, &ConstructionConfig::new(k, seed), &BuildOptions::new(1))
            .expect("construction succeeds");
    (
        fnv1a_bytes(&serialize(&built.scheme)),
        built.ledger.total_rounds(),
        route_digest(&g, &built.scheme, seed),
    )
}

#[test]
fn golden_fingerprints_are_unchanged() {
    let mut mismatches = Vec::new();
    for case in GOLDEN {
        let (snapshot, rounds, routes) = fingerprints(case.name, case.k, case.seed);
        if (snapshot, rounds, routes) != (case.snapshot, case.rounds, case.routes) {
            mismatches.push(format!(
                "    Golden {{ name: {:?}, k: {}, seed: {}, snapshot: {snapshot:#018x}, rounds: {rounds}, routes: {routes:#018x} }},",
                case.name, case.k, case.seed
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden fingerprints changed; the rows as built now:\n{}",
        mismatches.join("\n")
    );
}
