//! The serving path end to end: build a routing scheme, write its snapshot
//! to a file, load it back **zero-copy**, and route packets off the
//! flat columns — comparing the header's word accounting against the
//! paper's Table-1 `O(n^{1/k} log² n)` table bound along the way.
//!
//! Run with: `cargo run --release -p en_bench --example snapshot_roundtrip`

use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_wire::{generate_pairs, FlatScheme, PairWorkload, QueryEngine};

fn main() {
    let (n, k) = (1000usize, 3usize);
    let g = erdos_renyi_connected(
        &GeneratorConfig::new(n, 42).with_weights(1, 100),
        8.0 / n as f64,
    );
    println!("building the k={k} scheme on n={n}…");
    let built = build_routing_scheme(&g, &ConstructionConfig::new(k, 42)).unwrap();

    // --- Snapshot: one relocatable little-endian buffer ---------------------
    let bytes = en_wire::serialize(&built.scheme);
    let path = std::path::Path::new("target").join("scheme.bin");
    std::fs::write(&path, &bytes).expect("write snapshot");
    println!(
        "snapshot written to {}: {} bytes ({:.1} bytes/vertex)",
        path.display(),
        bytes.len(),
        bytes.len() as f64 / n as f64
    );

    // --- Zero-copy load: validate once, then borrow -------------------------
    let loaded = std::fs::read(&path).expect("read snapshot");
    let t = std::time::Instant::now();
    let flat = FlatScheme::from_bytes(&loaded).expect("snapshot validates");
    println!(
        "loaded + validated in {:.1} µs (no per-label allocations afterwards)",
        t.elapsed().as_secs_f64() * 1e6
    );

    // --- Header stats vs the paper's Table 1 --------------------------------
    // Table 1: routing tables are O(n^{1/k} log² n) words, labels O(k log² n).
    let log2n = (n as f64).log2();
    let table_bound = (n as f64).powf(1.0 / k as f64) * log2n * log2n;
    let label_bound = k as f64 * log2n * log2n;
    println!(
        "\nheader accounting ({} clusters, {} members):",
        flat.num_clusters(),
        flat.total_members()
    );
    println!(
        "  max table  {:>6} words   vs Table-1 O(n^(1/k) log² n) ≈ {:>7.0}",
        flat.max_table_words(),
        table_bound
    );
    println!(
        "  avg table  {:>6.1} words",
        flat.total_table_words() as f64 / n as f64
    );
    println!(
        "  max label  {:>6} words   vs Table-1 O(k log² n)       ≈ {:>7.0}",
        flat.max_label_words(),
        label_bound
    );
    println!(
        "  avg label  {:>6.1} words",
        flat.total_label_words() as f64 / n as f64
    );

    // --- Serve queries directly off the flat columns ------------------------
    let engine = QueryEngine::new(flat, &g).expect("graph matches snapshot");
    println!("\nrouting a few pairs off the snapshot:");
    for (u, v) in [(0, n - 1), (n / 7, n / 2), (n / 3, n - 2)] {
        let out = engine.route(u, v).expect("delivery succeeds");
        assert!(out.path.is_valid_in(&g), "routes follow graph edges");
        println!(
            "  {u:>4} -> {v:>4}: {} hops through tree {} (level {}), stretch {:.3}",
            out.path.hops(),
            out.tree_root,
            out.level,
            out.stretch
        );
    }

    // --- And a sharded batch -------------------------------------------------
    let pairs = generate_pairs(&g, &PairWorkload::ZipfHotspot { exponent: 1.1 }, 5000, 7);
    let t = std::time::Instant::now();
    let batch = engine.route_batch(&pairs, None, 4);
    let secs = t.elapsed().as_secs_f64();
    println!(
        "\nbatch of {} Zipf-hotspot queries on 4 threads: {:.1} ms ({:.0} routes/s), \
         {} delivered, mean {:.1} hops",
        pairs.len(),
        secs * 1e3,
        pairs.len() as f64 / secs,
        batch.stats.delivered,
        batch.stats.total_hops as f64 / batch.stats.delivered.max(1) as f64
    );
}
