//! Deterministic parallelism plumbing for the construction pipeline and the
//! serving engine.
//!
//! The batched construction kernels (the Theorem-1 multi-source kernel, the
//! restricted cluster-growing kernel, the forest pushes and the Section-4
//! scheme assembly) all process *independent* work items — a source's output
//! column depends only on the graph and the shared threshold vector, never on
//! which chunk-mates it was batched with. That makes them parallelisable
//! **without changing a single output bit**, provided two invariants hold:
//!
//! 1. **Chunk composition is preserved.** Work is split into *contiguous*
//!    spans whose boundaries are multiples of the kernel's chunk width
//!    ([`shard_spans`]), so each worker processes exactly the chunks the
//!    sequential sweep would have — same chunk-mates, same ragged tail.
//! 2. **Merge order is fixed.** Per-part outputs (distance spans, forest
//!    shards, table spans) come back from [`run_parts`] in part order and
//!    are merged on the calling thread, reproducing the sequential append
//!    order exactly.
//!
//! [`run_parts`] is the one spawn/join site: every parallel phase hands it
//! its parts, and one part — a single-thread build, or a phase too small to
//! split — runs the same code inline on the calling thread. There is no RNG
//! in any kernel (tree-routing portal sampling is seeded per centre,
//! independent of processing order), no floating-point reduction across
//! parts, and every tie-break is by vertex id — so the parallel build is
//! bit-identical to the single-thread one for every thread count. The
//! default `cargo test` pass enforces this (see
//! `tests/property_parallel_build.rs`); [`BuildStats`] carries the per-part
//! work accounting that makes the sharding itself observable, so a
//! multi-core host can verify both the determinism *and* the speedup.

use std::ops::Range;

/// Thread-count knob of the parallel construction pipeline.
///
/// `threads` is an upper bound: a phase never splits into more parts than it
/// has aligned spans of work (see [`shard_spans`]). `threads <= 1` gives one
/// part, which runs the same code inline on the calling thread (see
/// [`run_parts`]). The output is bit-identical for every thread count.
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
/// of the sharding: entry `t` counts the work executed by part `t` of each
/// phase. A phase with no work records no slot.
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
    /// Appends one part's counts (call in part order).
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

/// Runs `work` once per part and returns the results in part order.
///
/// Zero or one part runs inline on the calling thread; more parts run on one
/// scoped worker each. Either way every part runs the same `work`, so a
/// single-thread build and a many-thread build execute the same code. A
/// panicking part is re-raised on the caller with its own payload.
pub fn run_parts<P: Send, T: Send>(parts: Vec<P>, work: impl Fn(P) -> T + Sync) -> Vec<T> {
    if parts.len() <= 1 {
        return parts.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| scope.spawn(move || work(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
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
        let mut a = BuildStats::default();
        a.record(10, 100);
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
    fn run_parts_keeps_part_order() {
        for parts in [0usize, 1, 7] {
            let input: Vec<usize> = (0..parts).collect();
            let out = run_parts(input.clone(), |p| p * 10);
            let expected: Vec<usize> = input.iter().map(|p| p * 10).collect();
            assert_eq!(out, expected, "{parts} parts");
        }
    }

    #[test]
    fn run_parts_runs_a_single_part_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(
            run_parts(vec![()], |()| std::thread::current().id()),
            vec![caller]
        );
        let ids = run_parts(vec![(), ()], |()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller), "two parts use workers");
    }

    #[test]
    #[should_panic(expected = "part 3 failed")]
    fn run_parts_reraises_a_worker_panic_with_its_payload() {
        run_parts((0..5).collect(), |p: usize| {
            if p == 3 {
                panic!("part {p} failed");
            }
            p
        });
    }

    #[test]
    fn empty_phase_records_no_slot() {
        // A phase with no work hands `run_parts` no parts and so records no
        // slot; folded into a build that did any work, it leaves the
        // whole-build accounting unchanged.
        use crate::generators::{path, GeneratorConfig};
        let csr = crate::CsrGraph::from_graph(&path(&GeneratorConfig::new(4, 1)));
        for threads in [1, 4] {
            let (_, stats) = crate::restricted_multi_source_csr(
                &csr,
                &[],
                &[0; 4],
                None,
                &BuildOptions::new(threads),
            );
            assert_eq!(stats, BuildStats::default(), "{threads} threads");
        }
        let mut build = BuildStats::default();
        build.record(3, 9);
        let before = build.clone();
        build.absorb(&BuildStats::default());
        assert_eq!(build, before);
    }

    #[test]
    fn options_constructors() {
        assert_eq!(BuildOptions::new(1).threads, 1);
        assert_eq!(BuildOptions::new(0).threads, 1);
        assert_eq!(BuildOptions::new(8).threads, 8);
        assert!(BuildOptions::default().threads >= 1);
    }
}
