//! The batched, multi-threaded query engine over a flat snapshot.
//!
//! [`QueryEngine`] answers `find_tree` / `route` queries directly off the
//! snapshot columns. There is no forwarding loop in this module: both the
//! fast and the hardened paths are instantiations of the single
//! storage-generic kernel in [`en_routing::access`] — `FastAccess` reads
//! the plain accessors (and may panic over unvalidated corrupt bytes),
//! `CheckedAccess` reads the `try_*` accessors and bounds every hop, so
//! fast, checked, and in-memory routing share one `Find-tree` and one hop
//! loop and are bit-identical by construction. Batches shard across plain
//! `std::thread::scope` workers (the engine is `Sync`: a snapshot borrow
//! plus a graph borrow), each with its own pre-sized output scratch.
//!
//! # Fault tolerance
//!
//! A production batch must not die with one poisoned query. Every shard
//! worker runs under [`std::panic::catch_unwind`]; a shard that panics
//! (possible only over a snapshot loaded with
//! [`FlatScheme::from_bytes_unvalidated`], or a latent bug) is **retried
//! once, sequentially, one query at a time** through
//! [`QueryEngine::route_checked`] — the hardened path that bounds-checks
//! every untrusted index and catches any residual panic per query. A
//! single corrupt record therefore degrades exactly the queries that touch
//! it into structured [`RoutingError`]s; the rest of the shard, the batch,
//! and the process keep going. [`BatchStats`] reports the damage
//! (`shard_panics` / `retried` / `degraded`) and [`BatchOutcome::shards`]
//! carries per-shard accounting whose totals always reconcile with the
//! batch size.

use std::panic::{catch_unwind, AssertUnwindSafe};

use en_graph::dijkstra::dijkstra;
use en_graph::{Dist, NodeId, Path, WeightedGraph};
use en_routing::access::{self, RouteAccess};
use en_routing::error::RoutingError;
use en_routing::scheme::RouteOutcome;

use crate::error::WireError;
use crate::flat::{FlatCluster, FlatScheme, FlatTreeLabel, FlatTreeTable};

/// The fast instantiation of the forwarding kernel: plain accessors, no
/// per-read checks. Over a fully validated snapshot no method can fail;
/// over bytes loaded with [`FlatScheme::from_bytes_unvalidated`] it may
/// panic (never read out of bounds — the accessors are checked Rust;
/// `unsafe` is denied outside the `mmap` module), which the batch layer
/// contains per shard.
#[derive(Debug, Clone, Copy)]
struct FastAccess<'a> {
    flat: FlatScheme<'a>,
}

impl<'a> RouteAccess for FastAccess<'a> {
    type Label = FlatTreeLabel<'a>;
    type Table = FlatTreeTable<'a>;
    type Tree = FlatCluster<'a>;

    #[inline]
    fn n(&self) -> usize {
        self.flat.n()
    }

    #[inline]
    fn own_label(
        &self,
        center: NodeId,
        member: NodeId,
    ) -> Result<Option<FlatTreeLabel<'a>>, RoutingError> {
        Ok(self.flat.own_label(center, member))
    }

    #[inline]
    fn label_entry_count(&self, to: NodeId) -> Result<usize, RoutingError> {
        Ok(self.flat.label_entry_count(to))
    }

    #[inline]
    fn label_entry(
        &self,
        to: NodeId,
        i: usize,
    ) -> Result<(NodeId, Option<FlatTreeLabel<'a>>), RoutingError> {
        let e = self
            .flat
            .label_entry_at(to, i)
            .expect("kernel indexes within the entry count");
        Ok((e.pivot, e.tree_label))
    }

    #[inline]
    fn in_tree(&self, v: NodeId, root: NodeId) -> Result<bool, RoutingError> {
        Ok(self.flat.trees_of(v).binary_search(root as u64).is_ok())
    }

    #[inline]
    fn tree(&self, root: NodeId) -> Result<Option<(FlatCluster<'a>, usize)>, RoutingError> {
        Ok(self.flat.cluster_of_center(root).map(|c| (c, c.level)))
    }

    #[inline]
    fn table(
        &self,
        tree: &FlatCluster<'a>,
        v: NodeId,
    ) -> Result<Option<FlatTreeTable<'a>>, RoutingError> {
        Ok(tree.table_of(v))
    }
}

/// The hardened instantiation of the forwarding kernel: every lookup goes
/// through the `try_*` accessors (CSR offsets, entry fields, record bounds,
/// the rank index's member-column agreement), and every next hop is bounded
/// by `n`, so corrupt columns surface as structured [`RoutingError`]s
/// instead of panics.
#[derive(Debug, Clone, Copy)]
struct CheckedAccess<'a> {
    flat: FlatScheme<'a>,
}

impl<'a> RouteAccess for CheckedAccess<'a> {
    type Label = FlatTreeLabel<'a>;
    type Table = FlatTreeTable<'a>;
    type Tree = FlatCluster<'a>;

    #[inline]
    fn n(&self) -> usize {
        self.flat.n()
    }

    fn own_label(
        &self,
        center: NodeId,
        member: NodeId,
    ) -> Result<Option<FlatTreeLabel<'a>>, RoutingError> {
        Ok(self.flat.try_own_label(center, member)?)
    }

    fn label_entry_count(&self, to: NodeId) -> Result<usize, RoutingError> {
        Ok(self.flat.try_label_entry_count(to)?)
    }

    fn label_entry(
        &self,
        to: NodeId,
        i: usize,
    ) -> Result<(NodeId, Option<FlatTreeLabel<'a>>), RoutingError> {
        let e = self
            .flat
            .try_label_entry_at(to, i)?
            .ok_or(WireError::Corrupt {
                what: "label entry vanished between count and read",
            })?;
        Ok((e.pivot, e.tree_label))
    }

    fn in_tree(&self, v: NodeId, root: NodeId) -> Result<bool, RoutingError> {
        Ok(self
            .flat
            .try_trees_of(v)?
            .try_binary_search(root as u64)?
            .is_ok())
    }

    fn tree(&self, root: NodeId) -> Result<Option<(FlatCluster<'a>, usize)>, RoutingError> {
        Ok(self.flat.try_cluster_of_center(root)?.map(|c| (c, c.level)))
    }

    fn table(
        &self,
        tree: &FlatCluster<'a>,
        v: NodeId,
    ) -> Result<Option<FlatTreeTable<'a>>, RoutingError> {
        Ok(tree.try_table_of(v)?)
    }

    #[inline]
    fn check_hop(&self, next: NodeId) -> Result<(), RoutingError> {
        if next >= self.flat.n() {
            return Err(RoutingError::TreeRouting(format!(
                "corrupt snapshot: next hop {next} is not a vertex"
            )));
        }
        Ok(())
    }
}

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
    /// Shards whose worker panicked and was retried (0 on healthy
    /// snapshots — a validated snapshot cannot panic a worker).
    pub shard_panics: usize,
    /// Queries re-run sequentially because their shard panicked.
    pub retried: usize,
    /// Queries that still failed after the checked retry and were degraded
    /// into per-query errors instead of killing the batch.
    pub degraded: usize,
}

/// Per-shard accounting of one routed batch, reported through
/// [`BatchOutcome::shards`]: across all shards, `queries` always sums to
/// the batch size, `errors` to [`BatchStats::failed`], and `retries` to
/// [`BatchStats::retried`], whatever the thread count or fault pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Queries assigned to this shard.
    pub queries: usize,
    /// Queries that returned an error (including degraded ones).
    pub errors: usize,
    /// Queries re-run sequentially after the shard's worker panicked.
    pub retries: usize,
    /// Whether the shard's worker panicked on first pass.
    pub panicked: bool,
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
    /// Per-shard accounting, in shard order (one entry per worker chunk;
    /// a single entry when the batch ran on one thread).
    pub shards: Vec<ShardStats>,
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
    /// kernel ([`en_routing::access::find_tree_via`]) over `FastAccess`.
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
        access::find_tree_via(&FastAccess { flat: self.flat }, from, to)
    }

    /// Forwards hop by hop, returning the tree used, its level, and the path.
    fn forward(&self, from: NodeId, to: NodeId) -> Result<(NodeId, usize, Path), RoutingError> {
        access::forward_via(&FastAccess { flat: self.flat }, from, to)
    }

    fn outcome(&self, root: NodeId, level: usize, path: Path, exact: Dist) -> RouteOutcome {
        let length = path.length_in(self.graph).unwrap_or(0);
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

    /// Routes one packet, measuring stretch against the exact distance
    /// (computed with Dijkstra, like the in-memory scheme's `route`).
    ///
    /// # Errors
    ///
    /// Mirrors [`RoutingScheme::route`](en_routing::scheme::RoutingScheme::route).
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path) = self.forward(from, to)?;
        let exact = dijkstra(self.graph, from).dist[to];
        Ok(self.outcome(root, level, path, exact))
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
        Ok(self.outcome(root, level, path, exact))
    }

    /// Routes one packet through the hardened path — the *same* kernel,
    /// instantiated over `CheckedAccess`: checked accessors, per-hop index
    /// validation, and a panic guard. Over a fully validated snapshot this
    /// returns exactly what [`Self::route_with_exact`] returns, just slower;
    /// over corrupt bytes (a snapshot loaded with
    /// [`FlatScheme::from_bytes_unvalidated`]) it degrades the query into a
    /// structured error instead of panicking the caller.
    ///
    /// # Errors
    ///
    /// Everything [`Self::route_with_exact`] reports, plus
    /// [`RoutingError::TreeRouting`] for any corruption encountered
    /// mid-route.
    pub fn route_checked(
        &self,
        from: NodeId,
        to: NodeId,
        exact: Dist,
    ) -> Result<RouteOutcome, RoutingError> {
        // The checked accessors make index corruption an error; the unwind
        // guard additionally contains anything they cannot see (e.g. a
        // corrupt record interior tripping a slice bound in a view).
        match catch_unwind(AssertUnwindSafe(|| {
            access::forward_via(&CheckedAccess { flat: self.flat }, from, to)
        })) {
            Ok(forwarded) => {
                forwarded.map(|(root, level, path)| self.outcome(root, level, path, exact))
            }
            Err(_) => Err(RoutingError::TreeRouting(format!(
                "corrupt snapshot: query {from}->{to} panicked and was degraded"
            ))),
        }
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

    /// Routes one shard: the fast path first, under a panic guard; if the
    /// worker panicked, one sequential retry per query through the checked
    /// path, so only the queries actually touching corruption degrade.
    fn route_shard_isolated(
        &self,
        pairs: &[(NodeId, NodeId)],
        exacts: Option<&[Dist]>,
    ) -> (Vec<Result<RouteOutcome, RoutingError>>, ShardStats) {
        let mut stats = ShardStats {
            queries: pairs.len(),
            ..ShardStats::default()
        };
        let fast = catch_unwind(AssertUnwindSafe(|| self.route_chunk(pairs, exacts)));
        let outcomes = match fast {
            Ok(outcomes) => outcomes,
            Err(_) => {
                // The shard died mid-chunk; re-run it query by query on the
                // hardened path. Retrying is deterministic — the snapshot
                // bytes are immutable — so a query that panicked fast will
                // now produce a structured error instead.
                stats.panicked = true;
                stats.retries = pairs.len();
                pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &(from, to))| {
                        self.route_checked(from, to, exacts.map_or(0, |e| e[i]))
                    })
                    .collect()
            }
        };
        stats.errors = outcomes.iter().filter(|o| o.is_err()).count();
        (outcomes, stats)
    }

    /// Routes a batch of pairs, sharded over `threads` scoped worker
    /// threads, and returns per-pair outcomes in input order plus aggregate
    /// statistics.
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
    /// A worker panic does not kill the batch: the shard is caught,
    /// retried sequentially through [`Self::route_checked`], and any query
    /// still failing is degraded into its per-query error (see the module
    /// docs; `stats.shard_panics` / `retried` / `degraded` and
    /// [`BatchOutcome::shards`] report what happened).
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
        let (outcomes, shards) = if threads == 1 {
            let (outcomes, stats) = self.route_shard_isolated(pairs, exacts);
            (outcomes, vec![stats])
        } else {
            let sharded: Vec<(Vec<Result<RouteOutcome, RoutingError>>, ShardStats)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = pairs
                        .chunks(chunk)
                        .enumerate()
                        .map(|(t, pair_slice)| {
                            let exact_slice =
                                exacts.map(|e| &e[t * chunk..t * chunk + pair_slice.len()]);
                            // The panic guard runs *inside* the worker, so
                            // join() below cannot observe a panic.
                            scope.spawn(move || self.route_shard_isolated(pair_slice, exact_slice))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker guarded by catch_unwind"))
                        .collect()
                });
            let mut outcomes = Vec::with_capacity(pairs.len());
            let mut shards = Vec::with_capacity(sharded.len());
            for (shard_outcomes, shard_stats) in sharded {
                outcomes.extend(shard_outcomes);
                shards.push(shard_stats);
            }
            (outcomes, shards)
        };
        let mut stats = batch_stats(&outcomes);
        for s in &shards {
            stats.shard_panics += s.panicked as usize;
            stats.retried += s.retries;
            if s.panicked {
                stats.degraded += s.errors;
            }
        }
        publish_batch_obs(&stats);
        BatchOutcome {
            outcomes,
            stats,
            shards,
        }
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
    en_obs::counter_add("wire.shard.panics", stats.shard_panics as u64);
    en_obs::counter_add("wire.shard.retried", stats.retried as u64);
    en_obs::counter_add("wire.shard.degraded", stats.degraded as u64);
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
        shard_panics: 0,
        retried: 0,
        degraded: 0,
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
