//! The batched, multi-threaded query engine over a flat snapshot.
//!
//! [`QueryEngine`] answers `find_tree` / `route` queries directly off the
//! snapshot columns. There is no forwarding loop in this module: routing
//! calls the kernel in [`en_routing::access`], the same `Find-tree` and hop
//! loop [`RoutingScheme::route`](en_routing::RoutingScheme::route) runs.
//! Every [`FlatScheme`] passed [`FlatScheme::from_bytes`], so no lookup can
//! fail and no query re-checks what validation already proved. Batches
//! shard into parts of [`en_graph::run_parts`] (the engine is `Sync`: a
//! snapshot borrow plus a graph borrow), each with its own pre-sized output
//! buffer; a one-thread batch is one part, run inline.

use en_graph::dijkstra::dijkstra;
use en_graph::{run_parts, Dist, NodeId, Path, WeightedGraph};
use en_routing::access;
use en_routing::error::RoutingError;
use en_routing::scheme::RouteOutcome;
use en_routing::snapshot::{FlatScheme, FlatTreeLabel, WireError};

/// A query engine serving one snapshot over one host graph.
///
/// The graph is needed only to weigh traversed paths (and, for
/// [`Self::route`], to compute the exact-distance denominator the stretch
/// report uses); forwarding itself reads nothing but the snapshot.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<'a> {
    flat: FlatScheme<'a>,
    graph: &'a WeightedGraph,
}

/// Aggregate statistics of one routed batch.
///
/// The stretch fields are meaningful only when the batch was given exact
/// distances; without them every outcome carries the `exact = 0` placeholder
/// (whose stretch reads 1.0 by convention).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Pairs in the batch.
    pub pairs: usize,
    /// Pairs routed successfully.
    pub delivered: usize,
    /// Pairs that failed (should be none outside adversarial inputs).
    pub failed: usize,
    /// Summed hop count of the delivered paths.
    pub total_hops: u64,
    /// Summed weighted length of the delivered paths.
    pub total_length: u64,
    /// Largest stretch over delivered pairs (0.0 when none delivered).
    pub max_stretch: f64,
    /// Mean stretch over delivered pairs (0.0 when none delivered).
    pub mean_stretch: f64,
}

/// The outcome of routing one batch: per-pair results in input order plus
/// the aggregate statistics — identical regardless of how many threads the
/// batch was sharded over.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One result per input pair, in input order.
    pub outcomes: Vec<Result<RouteOutcome, RoutingError>>,
    /// Aggregates over `outcomes`, computed in input order.
    pub stats: BatchStats,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine for `flat` over `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::GraphMismatch`] when the snapshot was built for a
    /// different vertex count.
    pub fn new(flat: FlatScheme<'a>, graph: &'a WeightedGraph) -> Result<Self, WireError> {
        if graph.num_nodes() != flat.n() {
            return Err(WireError::GraphMismatch {
                graph_n: graph.num_nodes(),
                snapshot_n: flat.n(),
            });
        }
        Ok(QueryEngine { flat, graph })
    }

    /// The snapshot this engine serves.
    pub fn flat(&self) -> &FlatScheme<'a> {
        &self.flat
    }

    /// Algorithm 1 (`Find-tree`) plus the `4k−5` refinement, off the flat
    /// columns: the centre of the tree a packet from `from` to `to` will
    /// use, and the destination's (borrowed) tree label there — the shared
    /// kernel [`en_routing::access::find_tree_via`].
    ///
    /// # Errors
    ///
    /// Mirrors [`RoutingScheme::find_tree`](en_routing::scheme::RoutingScheme::find_tree):
    /// out-of-range vertices and the (low-probability) no-common-tree case.
    pub fn find_tree(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<(NodeId, FlatTreeLabel<'a>), RoutingError> {
        access::find_tree_via(&self.flat, from, to)
    }

    /// Forwards hop by hop, returning the tree used, its level, and the path.
    fn forward(&self, from: NodeId, to: NodeId) -> Result<(NodeId, usize, Path), RoutingError> {
        access::forward_via(&self.flat, from, to)
    }

    /// Routes one packet, measuring stretch against the exact distance
    /// (computed with Dijkstra, like
    /// [`RoutingScheme::route`](en_routing::RoutingScheme::route)).
    ///
    /// # Errors
    ///
    /// Mirrors [`RoutingScheme::route`](en_routing::scheme::RoutingScheme::route).
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path) = self.forward(from, to)?;
        let exact = dijkstra(self.graph, from).dist[to];
        Ok(RouteOutcome::new(self.graph, root, level, path, exact))
    }

    /// Routes one packet against a caller-supplied exact distance (the
    /// serving hot path: no Dijkstra anywhere).
    ///
    /// # Errors
    ///
    /// Mirrors
    /// [`RoutingScheme::route_with_exact`](en_routing::scheme::RoutingScheme::route_with_exact).
    pub fn route_with_exact(
        &self,
        from: NodeId,
        to: NodeId,
        exact: Dist,
    ) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path) = self.forward(from, to)?;
        Ok(RouteOutcome::new(self.graph, root, level, path, exact))
    }

    fn route_chunk(
        &self,
        pairs: &[(NodeId, NodeId)],
        exacts: Option<&[Dist]>,
    ) -> Vec<Result<RouteOutcome, RoutingError>> {
        // Per-worker scratch: one pre-sized output vector, filled in order.
        // The observability gate is hoisted out of the loop: with no
        // recorder installed the hot path takes exactly one relaxed load
        // for the whole chunk and never reads the clock.
        let obs = en_obs::active();
        let mut out = Vec::with_capacity(pairs.len());
        for (i, &(from, to)) in pairs.iter().enumerate() {
            let exact = exacts.map_or(0, |e| e[i]);
            if obs {
                let t0 = std::time::Instant::now();
                let res = self.route_with_exact(from, to, exact);
                let dur_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                en_obs::histogram_record("wire.route_latency_ns", dur_ns);
                if let Ok(o) = &res {
                    en_obs::histogram_record("wire.route_hops", o.path.hops() as u64);
                }
                out.push(res);
            } else {
                out.push(self.route_with_exact(from, to, exact));
            }
        }
        out
    }

    /// Routes a batch of pairs, sharded into up to `threads` parts (one
    /// scoped worker each when there is more than one), and returns
    /// per-pair outcomes in input order plus aggregate statistics.
    ///
    /// `exacts`, when given, must align with `pairs` and supplies the
    /// stretch denominators (the batch then never runs Dijkstra); without
    /// it, outcomes carry `exact = 0` placeholders and the stats' stretch
    /// fields are not meaningful.
    ///
    /// Sharding is deterministic and outcomes are reassembled in input
    /// order, so the result — outcomes and aggregate statistics alike — is
    /// identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `exacts` is shorter than `pairs`.
    pub fn route_batch(
        &self,
        pairs: &[(NodeId, NodeId)],
        exacts: Option<&[Dist]>,
        threads: usize,
    ) -> BatchOutcome {
        if let Some(e) = exacts {
            assert!(e.len() >= pairs.len(), "exacts must align with pairs");
        }
        let threads = threads.clamp(1, pairs.len().max(1));
        // `chunks(chunk)` yields at most `threads` shards and never slices
        // past the end, whatever the len/threads remainder.
        let chunk = pairs.len().div_ceil(threads).max(1);
        let parts: Vec<_> = pairs
            .chunks(chunk)
            .enumerate()
            .map(|(t, pair_slice)| {
                let exact_slice = exacts.map(|e| &e[t * chunk..t * chunk + pair_slice.len()]);
                (pair_slice, exact_slice)
            })
            .collect();
        // The first part's outcomes are kept as they are (a single part is
        // never re-collected); later parts are appended in order.
        let mut shards = run_parts(parts, |(p, e)| self.route_chunk(p, e)).into_iter();
        let mut outcomes = shards.next().unwrap_or_default();
        outcomes.reserve(pairs.len() - outcomes.len());
        for shard in shards {
            outcomes.extend(shard);
        }
        let stats = batch_stats(&outcomes);
        publish_batch_obs(&stats);
        BatchOutcome { outcomes, stats }
    }
}

/// Republishes a batch's [`BatchStats`] as observability counters (no-op
/// without an installed recorder). The counters mirror the stats exactly —
/// `tests/integration_obs.rs` reconciles them at several thread counts.
fn publish_batch_obs(stats: &BatchStats) {
    if !en_obs::active() {
        return;
    }
    en_obs::counter_add("wire.batch.pairs", stats.pairs as u64);
    en_obs::counter_add("wire.batch.delivered", stats.delivered as u64);
    en_obs::counter_add("wire.batch.failed", stats.failed as u64);
    en_obs::counter_add("wire.batch.hops_total", stats.total_hops);
    en_obs::counter_add("wire.batch.length_total", stats.total_length);
}

/// Folds per-pair outcomes into [`BatchStats`], in input order (so the
/// floating-point sums are independent of the thread count used).
fn batch_stats(outcomes: &[Result<RouteOutcome, RoutingError>]) -> BatchStats {
    let mut stats = BatchStats {
        pairs: outcomes.len(),
        delivered: 0,
        failed: 0,
        total_hops: 0,
        total_length: 0,
        max_stretch: 0.0,
        mean_stretch: 0.0,
    };
    let mut stretch_sum = 0.0f64;
    for out in outcomes {
        match out {
            Ok(o) => {
                stats.delivered += 1;
                stats.total_hops += o.path.hops() as u64;
                stats.total_length += o.length;
                stretch_sum += o.stretch;
                if o.stretch > stats.max_stretch {
                    stats.max_stretch = o.stretch;
                }
            }
            Err(_) => stats.failed += 1,
        }
    }
    if stats.delivered > 0 {
        stats.mean_stretch = stretch_sum / stats.delivered as f64;
    }
    stats
}
