//! The data plane: the correctness gate over a served snapshot and the
//! timed forwarding passes.
//!
//! Every client is a closed loop on one thread: a pass sends its next
//! route only after the previous one returned. A pass walks the next
//! [`CHUNK`] pairs of a pool far larger than any cache, so the er10k-k2
//! snapshot is read from memory rather than from a warm working set.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use en_graph::bfs::bfs_csr;
use en_graph::dijkstra::dijkstra_csr;
use en_graph::{CsrGraph, Dist, NodeId, Path, WeightedGraph};
use en_obs::MetricsRegistry;
use en_routing::RouteOutcome;
use en_wire::QueryEngine;

/// Pairs routed by one timed pass.
pub const CHUNK: usize = 4096;

/// The checker's pair set with exact distances. Computing them is checker
/// work, done once per run before any timing.
///
/// The set is built a source at a time: one Dijkstra gives a source's
/// exact distance to every destination the workload can pair it with. A
/// source keeps at most [`DESTS_PER_SOURCE`] of them, drawn with the
/// checker's seed, so the [`STRETCH_TARGET`] pairs spread over many
/// sources' trees (64 on the uniform workloads) instead of a handful, and
/// the set stays the same from traffic seed to traffic seed.
pub struct StretchSet {
    pub pairs: Vec<(NodeId, NodeId)>,
    pub exact: Vec<Dist>,
    /// Distinct sources the set covers.
    pub sources: usize,
}

/// Pairs the stretch set grows to (at least).
pub const STRETCH_TARGET: usize = 1 << 16;
/// Most destinations one stretch source is paired with.
pub const DESTS_PER_SOURCE: usize = 1 << 10;

impl StretchSet {
    /// Sources are taken in the order `sources` lists them. With `near_hops`, a source is
    /// paired with vertices at most that many hops away (the support of
    /// the near-pair walk); otherwise with any other vertex. `seed` draws
    /// the destinations of a source that has more than [`DESTS_PER_SOURCE`].
    pub fn new(
        g: &WeightedGraph,
        sources: &[(NodeId, NodeId)],
        near_hops: Option<usize>,
        seed: u64,
    ) -> StretchSet {
        let csr = CsrGraph::from_graph(g);
        let mut set = StretchSet {
            pairs: Vec::new(),
            exact: Vec::new(),
            sources: 0,
        };
        let mut used = vec![false; g.num_nodes()];
        let mut rng = seed;
        for &(s, _) in sources {
            if set.pairs.len() >= STRETCH_TARGET {
                break;
            }
            if std::mem::replace(&mut used[s], true) {
                continue;
            }
            let dist = dijkstra_csr(&csr, s).dist;
            let hops = near_hops.map(|_| bfs_csr(&csr, s).hops);
            let mut dests: Vec<NodeId> = (0..g.num_nodes())
                .filter(|&t| t != s)
                .filter(|&t| !matches!((&hops, near_hops), (Some(h), Some(max)) if h[t] > max))
                .collect();
            // A partial Fisher–Yates shuffle draws the kept destinations.
            let keep = dests.len().min(DESTS_PER_SOURCE);
            for i in 0..keep {
                rng = crate::splitmix64(rng);
                let j = i + (rng % (dests.len() - i) as u64) as usize;
                dests.swap(i, j);
            }
            for &t in &dests[..keep] {
                set.pairs.push((s, t));
                set.exact.push(dist[t]);
            }
            set.sources += 1;
        }
        set
    }
}

/// What the correctness gate saw on one snapshot.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub stretch_mean: f64,
    pub stretch_max: f64,
}

fn same_route(a: &RouteOutcome, b: &RouteOutcome) -> bool {
    a.tree_root == b.tree_root
        && a.level == b.level
        && a.length == b.length
        && a.path.nodes() == b.path.nodes()
}

fn path_violation(g: &WeightedGraph, s: NodeId, t: NodeId, path: &Path) -> Option<String> {
    if path.source() != Some(s) || path.target() != Some(t) {
        return Some(format!(
            "route {s}->{t} delivered a path from {:?} to {:?}",
            path.source(),
            path.target()
        ));
    }
    (!path.is_valid_in(g)).then(|| format!("route {s}->{t} walks a non-edge"))
}

/// The correctness gate: `route_batch` and `route_with_exact` agree pair
/// for pair on `pairs`, every delivered path runs from its source to its
/// destination over graph edges, and the stretch over `set` stays within
/// `bound`. Routing errors are counted as failures, not violations.
pub fn verify(
    engine: &QueryEngine<'_>,
    g: &WeightedGraph,
    pairs: &[(NodeId, NodeId)],
    set: &StretchSet,
    bound: f64,
) -> Verdict {
    let mut v = Verdict::default();
    let batch = engine.route_batch(pairs, None, 1);
    for (&(s, t), batched) in pairs.iter().zip(&batch.outcomes) {
        let single = engine.route_with_exact(s, t, 0);
        v.attempted += 2;
        match (batched, &single) {
            (Ok(a), Ok(b)) => {
                if !same_route(a, b) {
                    v.violations.push(format!(
                        "route_batch and route_with_exact differ on {s}->{t}"
                    ));
                }
                v.violations.extend(path_violation(g, s, t, &a.path));
            }
            (Err(_), Err(_)) => v.failed += 2,
            _ => v.violations.push(format!(
                "route_batch and route_with_exact disagree on whether {s}->{t} is delivered"
            )),
        }
    }
    let mut sum = 0.0;
    let mut delivered = 0usize;
    for (&(s, t), &exact) in set.pairs.iter().zip(&set.exact) {
        v.attempted += 1;
        match engine.route_with_exact(s, t, exact) {
            Ok(o) => {
                v.violations.extend(path_violation(g, s, t, &o.path));
                sum += o.stretch;
                delivered += 1;
                v.stretch_max = v.stretch_max.max(o.stretch);
            }
            Err(_) => v.failed += 1,
        }
    }
    v.stretch_mean = sum / delivered.max(1) as f64;
    if v.stretch_max > bound {
        v.violations.push(format!(
            "stretch {} exceeds the paper's bound {bound}",
            v.stretch_max
        ));
    }
    v
}

/// Samples gathered by the timed passes of one run.
#[derive(Debug, Default)]
pub struct Sampler {
    cursor: usize,
    /// routes/s of each `route_batch` pass with no recorder installed.
    pub batch_rates: Vec<f64>,
    /// routes/s of each `route_batch` pass with the registry installed.
    pub traced_batch_rates: Vec<f64>,
    /// Per-call `route_with_exact` latencies, timed from outside.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub find_tree_calls: u64,
    pub route_calls: u64,
    pub route_hops: u64,
    last_batch_done: Option<Instant>,
    /// Longest gap between two consecutive `route_batch` completions.
    pub max_batch_gap: Duration,
}

impl Sampler {
    fn next_chunk<'p>(&mut self, pool: &'p [(NodeId, NodeId)]) -> &'p [(NodeId, NodeId)] {
        let start = self.cursor;
        self.cursor = (self.cursor + CHUNK) % pool.len();
        &pool[start..(start + CHUNK).min(pool.len())]
    }

    /// One `route_batch` call over the next chunk; returns its routes/s.
    fn batch(&mut self, engine: &QueryEngine<'_>, pool: &[(NodeId, NodeId)]) -> f64 {
        let chunk = self.next_chunk(pool);
        let start = Instant::now();
        let out = black_box(engine.route_batch(black_box(chunk), None, 1));
        let done = Instant::now();
        if let Some(last) = self.last_batch_done {
            self.max_batch_gap = self.max_batch_gap.max(done - last);
        }
        self.last_batch_done = Some(done);
        self.attempted += chunk.len() as u64;
        self.failed += out.stats.failed as u64;
        chunk.len() as f64 / (done - start).as_secs_f64()
    }

    /// Untimed warm-up over the next chunk. It restarts the stall clock,
    /// so that the untimed setup before it does not count as a stall.
    pub fn warm_up(&mut self, engine: &QueryEngine<'_>, pool: &[(NodeId, NodeId)]) {
        self.last_batch_done = None;
        self.batch(engine, pool);
    }

    /// A throughput pass with no recorder installed.
    pub fn batch_pass(&mut self, engine: &QueryEngine<'_>, pool: &[(NodeId, NodeId)]) {
        let rate = self.batch(engine, pool);
        self.batch_rates.push(rate);
    }

    /// A throughput pass with `registry` installed, inside a span.
    pub fn traced_batch_pass(
        &mut self,
        engine: &QueryEngine<'_>,
        pool: &[(NodeId, NodeId)],
        registry: &Arc<MetricsRegistry>,
    ) {
        let _guard = en_obs::install(registry.clone());
        let _span = en_obs::span("route_batch");
        let rate = self.batch(engine, pool);
        self.traced_batch_rates.push(rate);
    }

    /// A latency pass: each `route_with_exact` call timed on its own.
    pub fn latency_pass(&mut self, engine: &QueryEngine<'_>, pool: &[(NodeId, NodeId)]) {
        let chunk = self.next_chunk(pool);
        for &(s, t) in chunk {
            let start = Instant::now();
            let out = black_box(engine.route_with_exact(black_box(s), black_box(t), 0));
            let ns = start.elapsed().as_nanos() as u64;
            self.latencies_ns.push(ns);
            self.failed += out.is_err() as u64;
        }
        self.attempted += chunk.len() as u64;
    }

    /// The serving stages, each a pass inside one span with `registry`
    /// installed: `find_tree` alone, then whole `route_with_exact` calls,
    /// each on a chunk of its own so both read the snapshot equally cold.
    pub fn stage_passes(
        &mut self,
        engine: &QueryEngine<'_>,
        pool: &[(NodeId, NodeId)],
        registry: &Arc<MetricsRegistry>,
    ) {
        let _guard = en_obs::install(registry.clone());
        let chunk = self.next_chunk(pool);
        {
            let _span = en_obs::span("find_tree");
            for &(s, t) in chunk {
                let found = black_box(engine.find_tree(black_box(s), black_box(t)));
                self.failed += found.is_err() as u64;
            }
        }
        self.find_tree_calls += chunk.len() as u64;
        self.attempted += chunk.len() as u64;
        // A fresh chunk: routing the pairs just searched would find their
        // Find-tree data warm and read low.
        let chunk = self.next_chunk(pool);
        let mut hops = 0u64;
        {
            let _span = en_obs::span("route_with_exact");
            for &(s, t) in chunk {
                match black_box(engine.route_with_exact(black_box(s), black_box(t), 0)) {
                    Ok(o) => hops += o.path.hops() as u64,
                    Err(_) => self.failed += 1,
                }
            }
        }
        self.route_calls += chunk.len() as u64;
        self.route_hops += hops;
        self.attempted += chunk.len() as u64;
    }
}
