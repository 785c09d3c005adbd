//! Deterministic parallelism plumbing for the construction pipeline.
//!
//! The batched construction kernels (the Theorem-1 multi-source kernel, the
//! restricted cluster-growing kernel, the forest pushes and the Section-4
//! scheme assembly) all process *independent* work items — a source's output
//! column depends only on the graph and the shared threshold vector, never on
//! which chunk-mates it was batched with. That makes them parallelisable over
//! plain `std::thread::scope` workers **without changing a single output
//! bit**, provided two invariants hold:
//!
//! 1. **Chunk composition is preserved.** Work is split into *contiguous*
//!    spans whose boundaries are multiples of the kernel's chunk width
//!    ([`shard_spans`]), so each worker processes exactly the chunks the
//!    sequential sweep would have — same chunk-mates, same ragged tail.
//! 2. **Merge order is fixed.** Per-worker outputs (distance spans, forest
//!    shards, table spans) are concatenated in span order on the calling
//!    thread, reproducing the sequential append order exactly.
//!
//! There is no RNG in any kernel (tree-routing portal sampling is seeded per
//! centre, independent of processing order), no floating-point reduction
//! across shards, and every tie-break is by vertex id — so the parallel
//! build is bit-identical to the sequential one for every thread count. The
//! default `cargo test` pass enforces this (see
//! `tests/property_parallel_build.rs`); [`BuildStats`] carries the
//! per-thread work accounting that makes the sharding itself observable, so
//! a multi-core host can verify both the determinism *and* the speedup.

use std::ops::Range;

/// Thread-count knob of the parallel construction pipeline.
///
/// `threads` is an upper bound: a phase never spawns more workers than it has
/// aligned spans of work (see [`shard_spans`]), and `threads <= 1` runs the
/// exact sequential code path. The parallel output is bit-identical to the
/// sequential one in all cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Maximum number of worker threads per parallel phase (minimum 1).
    pub threads: usize,
}

impl Default for BuildOptions {
    /// Defaults to the host's available parallelism (1 when unknown).
    fn default() -> Self {
        BuildOptions {
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }
}

impl BuildOptions {
    /// Options capped at `threads` workers.
    pub fn new(threads: usize) -> Self {
        BuildOptions {
            threads: threads.max(1),
        }
    }
}

/// Per-thread work accounting of a parallel build, the observable footprint
/// of the sharding: entry `t` counts the work executed by worker slot `t`.
///
/// Across thread counts the *totals* are invariant — the same sources are
/// swept and the same members are produced however the work is sharded — and
/// the determinism suite asserts exactly that ([`Self::total_sources`] /
/// [`Self::total_members`] of an 8-thread build equal the sequential ones).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Sources (kernel columns, clusters, vertices) processed per worker slot.
    pub per_thread_sources: Vec<usize>,
    /// Output members (reached cells, cluster members, label entries)
    /// produced per worker slot.
    pub per_thread_members: Vec<usize>,
}

impl BuildStats {
    /// Accounting of a phase that ran on a single worker.
    pub fn single(sources: usize, members: usize) -> Self {
        BuildStats {
            per_thread_sources: vec![sources],
            per_thread_members: vec![members],
        }
    }

    /// Appends one worker slot's counts (call in span order).
    pub fn record(&mut self, sources: usize, members: usize) {
        self.per_thread_sources.push(sources);
        self.per_thread_members.push(members);
    }

    /// Number of worker slots that recorded work.
    pub fn threads_used(&self) -> usize {
        self.per_thread_sources.len()
    }

    /// Total sources processed (invariant across thread counts).
    pub fn total_sources(&self) -> usize {
        self.per_thread_sources.iter().sum()
    }

    /// Total members produced (invariant across thread counts).
    pub fn total_members(&self) -> usize {
        self.per_thread_members.iter().sum()
    }

    /// Folds another phase's accounting into this one, slot by slot (slot `t`
    /// accumulates the work of every phase's worker `t`; shorter sides are
    /// zero-padded). Totals add exactly.
    pub fn absorb(&mut self, other: &BuildStats) {
        if self.per_thread_sources.len() < other.per_thread_sources.len() {
            self.per_thread_sources
                .resize(other.per_thread_sources.len(), 0);
        }
        if self.per_thread_members.len() < other.per_thread_members.len() {
            self.per_thread_members
                .resize(other.per_thread_members.len(), 0);
        }
        for (a, &b) in self
            .per_thread_sources
            .iter_mut()
            .zip(&other.per_thread_sources)
        {
            *a += b;
        }
        for (a, &b) in self
            .per_thread_members
            .iter_mut()
            .zip(&other.per_thread_members)
        {
            *a += b;
        }
    }
}

/// Splits `0..len` into at most `workers` contiguous spans whose start
/// offsets are multiples of `align` — the sharding that keeps a chunked
/// kernel's chunk composition identical to the sequential sweep (invariant 1
/// of the module docs).
///
/// Every span except possibly the last has a length that is a multiple of
/// `align`; spans are returned in order and cover `0..len` exactly. With more
/// workers than aligned units the surplus workers simply get no span (the
/// "empty shard" degenerate case), and `len == 0` yields no spans at all.
pub fn shard_spans(len: usize, workers: usize, align: usize) -> Vec<Range<usize>> {
    let align = align.max(1);
    let workers = workers.max(1);
    if len == 0 {
        return Vec::new();
    }
    let units = len.div_ceil(align);
    let workers = workers.min(units);
    let units_per = units.div_ceil(workers);
    let step = units_per * align;
    let mut spans = Vec::with_capacity(workers);
    let mut start = 0;
    while start < len {
        let end = (start + step).min(len);
        spans.push(start..end);
        start = end;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spans_cover_exactly_and_respect_alignment() {
        for (len, workers, align) in [
            (0usize, 4usize, 64usize),
            (1, 8, 64),
            (64, 2, 64),
            (65, 2, 64),
            (1000, 8, 64),
            (1000, 3, 32),
            (129, 16, 64),
            (7, 3, 1),
            (10, 1, 4),
        ] {
            let spans = shard_spans(len, workers, align);
            assert!(spans.len() <= workers.max(1), "{len}/{workers}/{align}");
            let mut cursor = 0;
            for span in &spans {
                assert_eq!(span.start, cursor, "contiguous");
                assert_eq!(span.start % align, 0, "aligned start");
                assert!(!span.is_empty(), "no empty spans emitted");
                cursor = span.end;
            }
            assert_eq!(cursor, len, "full coverage for {len}/{workers}/{align}");
        }
        assert!(shard_spans(0, 4, 64).is_empty());
        // More workers than aligned units: surplus workers get nothing.
        assert_eq!(shard_spans(10, 8, 64), vec![0..10]);
        assert_eq!(shard_spans(128, 64, 64).len(), 2);
    }

    #[test]
    fn shard_spans_preserve_chunk_boundaries() {
        // Walking the spans chunk by chunk visits exactly the sequential
        // chunk sequence — the bit-identity invariant.
        let len = 300;
        let align = 64;
        let sequential: Vec<(usize, usize)> = (0..len)
            .step_by(align)
            .map(|s| (s, (s + align).min(len)))
            .collect();
        for workers in 1..10 {
            let mut chunks = Vec::new();
            for span in shard_spans(len, workers, align) {
                for s in span.clone().step_by(align) {
                    chunks.push((s, (s + align).min(span.end)));
                }
            }
            assert_eq!(chunks, sequential, "{workers} workers");
        }
    }

    #[test]
    fn stats_absorb_adds_slotwise_and_totals() {
        let mut a = BuildStats::single(10, 100);
        a.absorb(&BuildStats {
            per_thread_sources: vec![1, 2, 3],
            per_thread_members: vec![4, 5, 6],
        });
        assert_eq!(a.per_thread_sources, vec![11, 2, 3]);
        assert_eq!(a.per_thread_members, vec![104, 5, 6]);
        assert_eq!(a.total_sources(), 16);
        assert_eq!(a.total_members(), 115);
        assert_eq!(a.threads_used(), 3);
        let mut b = BuildStats::default();
        b.record(7, 8);
        b.record(9, 10);
        assert_eq!(b.total_sources(), 16);
        assert_eq!(b.total_members(), 18);
    }

    #[test]
    fn options_constructors() {
        assert_eq!(BuildOptions::new(1).threads, 1);
        assert_eq!(BuildOptions::new(0).threads, 1);
        assert_eq!(BuildOptions::new(8).threads, 8);
        assert!(BuildOptions::default().threads >= 1);
    }
}
