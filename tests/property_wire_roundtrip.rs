//! Property suite for the `en_wire` serving subsystem: a snapshot
//! round-trip must be observationally *perfect*.
//!
//! Across random graphs, `k ∈ {2, 3}`, and both the exact and the
//! approximate (end-to-end distributed) constructions:
//!
//! * **Outcomes against an independent reference**: the snapshot bytes
//!   match the dense-tree reference of `tests/support/reference.rs` record
//!   for record (including the header's Table-1 word stats), and for every
//!   sampled pair the [`QueryEngine`] over the served copy picks the tree a
//!   test-side Algorithm 1 picks, carries the destination's label, and
//!   routes the path that tree's own scheme routes. Serving a copy is
//!   deterministic (same scheme → same bytes).
//! * **Rejection**: truncated buffers — including cuts at every section
//!   boundary — flipped magic/version words, and a corrupted section offset
//!   are rejected by [`FlatScheme::from_bytes`] rather than risking a panic
//!   at query time.
//! * **Integrity**: the per-section + header checksums detect *any*
//!   single-bit flip anywhere in the buffer — including the v3 member-slot
//!   rank index — so the accepted set is exactly the pristine snapshot
//!   (which routes as the round-trip properties prove).
//! * **Version negotiation**: v2 bytes presented to the v3 reader fail
//!   with a structured `UnsupportedVersion`, not a checksum mismatch.

use proptest::prelude::*;

use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::{BuildOptions, WeightedGraph};
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_routing::exact::exact_cluster_family;
use en_routing::scheme::RoutingScheme;
use en_routing::snapshot::WireError;
use en_routing::{ClusterFamily, Hierarchy, SchemeParams};
use en_wire::{serialize, FlatScheme, MappedSnapshot, QueryEngine};

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

/// Assembles `family`, serves a copy of its snapshot through the engine,
/// and checks bytes, `Find-tree` decisions and routes against the
/// independent reference.
fn check_engine_matches_reference(g: &WeightedGraph, family: &ClusterFamily, tree_seed: u64) {
    let scheme = RoutingScheme::assemble(family, tree_seed, &BuildOptions::new(1)).0;
    let bytes = serialize(&scheme);
    assert_eq!(
        bytes,
        serialize(&scheme),
        "serving copies are deterministic"
    );
    let reference = Reference::new(family, tree_seed);
    reference.check_snapshot(&bytes);
    let flat = FlatScheme::from_bytes(&bytes).expect("snapshot validates");
    let engine = QueryEngine::new(flat, g).expect("graph matches snapshot");
    let n = g.num_nodes();
    for u in (0..n).step_by(3) {
        for v in (0..n).step_by(5) {
            if u == v {
                continue;
            }
            let found = engine.find_tree(u, v).ok().map(|(r, l)| (r, l.vertex()));
            let routed = engine.route(u, v).ok();
            assert!(routed.as_ref().is_none_or(|o| o.path.is_valid_in(g)));
            let routed = routed.as_ref().map(|o| (o.tree_root, o.level, &o.path));
            reference.check_pair(u, v, found, routed);
        }
    }
    // Out-of-range queries fail.
    assert!(engine.route(0, n + 7).is_err());
    assert!(engine.find_tree(n, 0).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Exact families: snapshot round-trip preserves every outcome.
    #[test]
    fn exact_scheme_roundtrips_bit_identically(
        gs in arb_graph(),
        k in 2usize..4,
    ) {
        let (g, seed) = gs;
        let params = SchemeParams::new(k, g.num_nodes(), seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        check_engine_matches_reference(&g, &family, seed);
    }

    /// Families of the approximate (end-to-end distributed) construction
    /// round-trip too.
    #[test]
    fn approx_scheme_roundtrips_bit_identically(
        gs in arb_graph(),
        k in 2usize..4,
    ) {
        let (g, seed) = gs;
        let built = build_routing_scheme(&g, &ConstructionConfig::new(k, seed)).unwrap();
        check_engine_matches_reference(&g, &built.family, seed);
    }

    /// Corruption: every truncation of the buffer — including at every
    /// section boundary — and targeted header edits are rejected with an
    /// error, never a panic.
    #[test]
    fn corrupted_snapshots_are_rejected(gs in arb_graph()) {
        let (g, seed) = gs;
        let params = SchemeParams::new(2, g.num_nodes(), seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let scheme = RoutingScheme::assemble(&family, seed, &BuildOptions::new(1)).0;
        let bytes = serialize(&scheme);

        // Truncations at word and sub-word granularity.
        for cut in [1, 7, 8, 64, bytes.len() / 2, bytes.len() - 8, bytes.len() - 1] {
            let truncated = &bytes[..bytes.len() - cut];
            prop_assert!(
                FlatScheme::from_bytes(truncated).is_err(),
                "truncating {cut} bytes must be rejected"
            );
        }
        prop_assert_eq!(
            FlatScheme::from_bytes(&[]).unwrap_err(),
            WireError::Truncated { expected: 48 * 8, actual: 0 }
        );

        // Exhaustive boundary sweep: cut the buffer exactly at every section
        // start (losing that section and everything after it), one word
        // before, and one byte past each boundary.
        let manifest = FlatScheme::from_bytes(&bytes).expect("pristine validates").manifest();
        for span in &manifest.sections {
            let at = span.start_word * 8;
            for cut in [at, at.saturating_sub(8), at + 1] {
                if cut >= bytes.len() {
                    continue;
                }
                prop_assert!(
                    FlatScheme::from_bytes(&bytes[..cut]).is_err(),
                    "cut at {cut} ({:?} boundary {at}) must be rejected",
                    span.section
                );
            }
        }

        // The v3 member-slot rank index is protected like every other
        // section: bit flips anywhere in its span fail its checksum, and a
        // truncation landing inside it is rejected by the size check.
        let ms = manifest
            .sections
            .iter()
            .find(|s| s.section.name() == "member_slots")
            .expect("v3 snapshots carry the rank index");
        prop_assert!(ms.words > 0, "every scheme has cluster members to index");
        for i in [0, ms.words / 2, ms.words - 1] {
            let mut flipped = bytes.clone();
            flipped[(ms.start_word + i) * 8] ^= 1;
            prop_assert!(
                FlatScheme::from_bytes(&flipped).is_err(),
                "flip in member_slots word {i} must be rejected"
            );
        }
        let cut = (ms.start_word + ms.words / 2) * 8;
        prop_assert!(FlatScheme::from_bytes(&bytes[..cut]).is_err());

        // Flipped magic / unsupported version.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        prop_assert!(matches!(
            FlatScheme::from_bytes(&bad_magic),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        prop_assert!(matches!(
            FlatScheme::from_bytes(&bad_version),
            Err(WireError::UnsupportedVersion { found: 99 })
        ));

        // Version negotiation: a buffer declaring the retired v2 format is
        // refused with the structured version error — the version word is
        // examined before any checksum, so the caller learns "old format",
        // never a misleading checksum mismatch.
        let mut v2_bytes = bytes.clone();
        v2_bytes[8] = 2;
        prop_assert!(matches!(
            FlatScheme::from_bytes(&v2_bytes),
            Err(WireError::UnsupportedVersion { found: 2 })
        ));

        // A corrupted section offset (point the cluster table past the end).
        let mut bad_section = bytes.clone();
        let off = (11 + 1) * 8; // header word 12: second section offset
        bad_section[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        prop_assert!(FlatScheme::from_bytes(&bad_section).is_err());

        // A corrupted label-pool offset inside a label entry column: zero out
        // the label pool section length by shrinking the total… simpler and
        // still structural: declare fewer clusters than the centre index
        // references.
        let mut bad_clusters = bytes.clone();
        bad_clusters[4 * 8..4 * 8 + 8].copy_from_slice(&0u64.to_le_bytes());
        prop_assert!(FlatScheme::from_bytes(&bad_clusters).is_err());
    }

    /// Integrity sweep: flipping any single bit of any header field — and
    /// any sampled bit anywhere in the buffer — is detected at load.
    /// Checksums cover every byte, so the accepted set is exactly the
    /// pristine buffer; whatever validates routes bit-identically because
    /// it *is* the original snapshot.
    #[test]
    fn any_single_bit_flip_is_detected(
        word in 0usize..48,
        bit in 0usize..64,
        permille in 0usize..1000,
        body_bit in 0usize..8,
    ) {
        // One snapshot for the whole sweep (proptest re-enters per case, so
        // keep the build small and deterministic).
        let g = erdos_renyi_connected(
            &GeneratorConfig::new(48, 77).with_weights(1, 20),
            0.12,
        );
        let params = SchemeParams::new(2, g.num_nodes(), 77);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let scheme = RoutingScheme::assemble(&family, 77, &BuildOptions::new(1)).0;
        let bytes = serialize(&scheme);

        // Header flip: one bit of the proptest-chosen header field.
        let mut header_flipped = bytes.clone();
        header_flipped[word * 8 + bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            FlatScheme::from_bytes(&header_flipped).is_err(),
            "header word {word} bit {bit} flip must be rejected"
        );

        // Body flip: one bit at a proptest-sampled byte anywhere at all.
        let at = (bytes.len() - 1) * permille / 999;
        let mut body_flipped = bytes.clone();
        body_flipped[at] ^= 1 << body_bit;
        prop_assert!(
            FlatScheme::from_bytes(&body_flipped).is_err(),
            "byte {at} bit {body_bit} flip must be rejected"
        );

        // And the untouched buffer still validates and routes: the accepted
        // set is the pristine snapshot, whose outcomes the round-trip
        // properties above check against the reference.
        let flat = FlatScheme::from_bytes(&bytes).expect("pristine validates");
        let engine = QueryEngine::new(flat, &g).expect("graph matches");
        let a = engine.route(1, 40).expect("routes");
        prop_assert_eq!(a.path.nodes().last(), Some(&40));
        prop_assert!(a.path.is_valid_in(&g));
    }

    /// A mapped open serves the snapshot byte-identically to the owned
    /// read — the flat reader validates the same buffer and every routing
    /// outcome matches bit for bit — for both the exact and the
    /// approximate construction and `k ∈ {2, 3}`.
    #[test]
    fn mapped_snapshots_round_trip_bit_identically(
        gs in arb_graph(),
        k in 2usize..4,
        use_exact in 0usize..2,
    ) {
        let (g, seed) = gs;
        let use_exact = use_exact == 1;
        let scheme = if use_exact {
            let params = SchemeParams::new(k, g.num_nodes(), seed);
            let hierarchy = Hierarchy::sample(&params);
            RoutingScheme::assemble(&exact_cluster_family(&g, &hierarchy), seed, &BuildOptions::new(1)).0
        } else {
            build_routing_scheme(&g, &ConstructionConfig::new(k, seed))
                .unwrap()
                .scheme
        };
        let bytes = serialize(&scheme);

        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("mmap_roundtrip_{seed}_{k}_{use_exact}.enwire"));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedSnapshot::open(&path).unwrap();
        prop_assert_eq!(mapped.bytes(), &bytes[..]);
        // On this target a shape-valid snapshot takes the mapped fast path.
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        prop_assert!(mapped.is_mapped(), "shape-valid snapshot must map");

        let flat_mapped = FlatScheme::from_bytes(mapped.bytes()).expect("mapped validates");
        let flat_owned = FlatScheme::from_bytes(&bytes).expect("owned validates");
        let em = QueryEngine::new(flat_mapped, &g).expect("sizes match");
        let eo = QueryEngine::new(flat_owned, &g).expect("sizes match");
        let n = g.num_nodes();
        for u in (0..n).step_by(5) {
            for v in (0..n).step_by(9) {
                if u == v {
                    continue;
                }
                let a = eo.route_with_exact(u, v, 0).unwrap();
                let b = em.route_with_exact(u, v, 0).unwrap();
                assert_eq!(a.tree_root, b.tree_root, "{u}->{v}");
                assert_eq!(a.path, b.path, "{u}->{v}");
                assert_eq!(a.length, b.length, "{u}->{v}");
                assert_eq!(a.stretch.to_bits(), b.stretch.to_bits(), "{u}->{v}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
