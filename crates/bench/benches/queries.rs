//! Serving-path benches for the `en_wire` subsystem.
//!
//! Groups:
//!
//! * `snapshot`: copying a built scheme's snapshot out and the zero-copy
//!   `FlatScheme::from_bytes` load+validate, at n = 1000, k ∈ {2, 3}.
//! * `queries`: batched `route` throughput off the flat columns — the
//!   serving hot path (`find_tree` + hop-by-hop forwarding, no Dijkstra) —
//!   single-threaded and sharded over scoped threads, per workload shape
//!   (uniform / Zipf-hotspot / near-far). The `perf_baseline` harness bin
//!   records the same numbers (plus n = 10000) into `BENCH_queries.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_wire::{generate_pairs, FlatScheme, PairWorkload, QueryEngine};

fn bench_snapshot(c: &mut Criterion) {
    let n = 1000;
    let g = erdos_renyi_connected(
        &GeneratorConfig::new(n, 42).with_weights(1, 100),
        8.0 / n as f64,
    );
    let mut group = c.benchmark_group("snapshot");
    group.sample_size(10);
    for k in [2usize, 3] {
        let built = build_routing_scheme(&g, &ConstructionConfig::new(k, 42)).unwrap();
        group.bench_with_input(
            BenchmarkId::new("serialize", format!("n{n}_k{k}")),
            &built,
            |b, built| b.iter(|| en_wire::serialize(&built.scheme)),
        );
        let bytes = en_wire::serialize(&built.scheme);
        group.bench_with_input(
            BenchmarkId::new("load_zero_copy", format!("n{n}_k{k}")),
            &bytes,
            |b, bytes| b.iter(|| FlatScheme::from_bytes(bytes).expect("valid snapshot")),
        );
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let n = 1000;
    let g = erdos_renyi_connected(
        &GeneratorConfig::new(n, 42).with_weights(1, 100),
        8.0 / n as f64,
    );
    let built = build_routing_scheme(&g, &ConstructionConfig::new(2, 42)).unwrap();
    let bytes = en_wire::serialize(&built.scheme);
    let flat = FlatScheme::from_bytes(&bytes).expect("valid snapshot");
    let engine = QueryEngine::new(flat, &g).expect("graph matches");
    let workloads = [
        PairWorkload::Uniform,
        PairWorkload::ZipfHotspot { exponent: 1.1 },
        PairWorkload::NearFar {
            near_fraction: 0.5,
            walk_hops: 2,
        },
    ];
    let mut group = c.benchmark_group("queries");
    group.sample_size(10);
    for w in &workloads {
        let pairs = generate_pairs(&g, w, 10_000, 7);
        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(
                    format!("route_batch_{}", w.name()),
                    format!("n{n}_k2_t{threads}"),
                ),
                &pairs,
                |b, pairs| b.iter(|| engine.route_batch(pairs, None, threads)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot, bench_queries);
criterion_main!(benches);
