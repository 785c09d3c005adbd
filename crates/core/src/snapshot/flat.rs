//! The zero-copy snapshot reader: validate once, then borrow.
//!
//! [`FlatScheme::from_bytes`] walks the whole buffer a single time — header,
//! section bounds, CSR monotonicity, every table and label record — and
//! rejects anything inconsistent. After that, every accessor is plain
//! arithmetic over the borrowed bytes: the views handed out
//! ([`FlatTreeTable`], [`FlatTreeLabel`], [`FlatLocalLabel`],
//! [`FlatU64s`]) are `Copy` slice-plus-offset handles that never allocate.

use en_graph::{run_parts, NodeId};
use en_tree_routing::{LabelView, LocalLabelView, TableView};

use super::checksum::fnv1a_bytes;
use super::error::WireError;
use super::format::{
    Section, Words, CLUSTER_RECORD_WORDS, HEADER_WORDS, H_HEADER_SUM, H_K, H_MAX_LABEL_WORDS,
    H_MAX_TABLE_WORDS, H_N, H_NUM_CLUSTERS, H_SECTIONS, H_SECTION_SUMS, H_TOTAL_LABEL_WORDS,
    H_TOTAL_MEMBERS, H_TOTAL_TABLE_WORDS, H_TOTAL_WORDS, LABEL_ENTRY_WORDS, MAGIC, NULL,
    NUM_SECTIONS, OWN_ENTRY_WORDS, TABLE_FIXED_WORDS, VERSION,
};

/// A complete routing scheme served directly from a snapshot buffer: the
/// borrowed view behind [`RoutingScheme`](super::RoutingScheme).
///
/// Construction ([`Self::from_bytes`]) validates the buffer once; every
/// subsequent access borrows from it without allocating.
#[derive(Debug, Clone, Copy)]
pub struct FlatScheme<'a> {
    words: Words<'a>,
    n: usize,
    k: usize,
    num_clusters: usize,
    /// Absolute word offset of each section, plus the buffer end.
    secs: [usize; NUM_SECTIONS + 1],
}

/// Snapshots at or above this many bytes of section payload shard their
/// load-time checksum walk across threads; smaller ones stay serial (the
/// spawn overhead would dominate).
pub const PARALLEL_VALIDATE_MIN_BYTES: usize = 1 << 20;

/// Per-thread accounting of one load-time checksum walk
/// ([`FlatScheme::from_bytes_accounted`]).
///
/// The standing constraint of a single-core recording host applies:
/// [`Self::total_words`] always equals the full section span, so the
/// parallel walk is auditable against the serial one even where the
/// speedup itself cannot be observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateStats {
    /// Checksum workers actually used (1 = the serial walk).
    pub threads: usize,
    /// Words checksummed by each worker; sums to the whole section span.
    pub per_thread_words: Vec<usize>,
}

impl ValidateStats {
    /// Total words checksummed across all workers — always the whole
    /// section span, whatever the thread count.
    pub fn total_words(&self) -> usize {
        self.per_thread_words.iter().sum()
    }
}

/// A borrowed run of words viewed as a `u64` column slice.
#[derive(Debug, Clone, Copy)]
pub struct FlatU64s<'a> {
    words: Words<'a>,
    start: usize,
    len: usize,
}

impl FlatU64s<'_> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        self.words.get(self.start + i)
    }

    /// Binary search for `x` over an ascending column.
    pub fn binary_search(&self, x: u64) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(&x) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Iterates the elements.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

/// One cluster of the snapshot: descriptor plus the member/table columns.
#[derive(Debug, Clone, Copy)]
pub struct FlatCluster<'a> {
    scheme: FlatScheme<'a>,
    /// Dense cluster id (position in the clusters section).
    pub id: usize,
    /// The cluster centre (also the root of its tree scheme).
    pub center: NodeId,
    /// The hierarchy level of the centre.
    pub level: usize,
    members_start: usize,
    members_len: usize,
}

impl<'a> FlatCluster<'a> {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members_len
    }

    /// Whether the cluster has no members (never true in a valid snapshot).
    pub fn is_empty(&self) -> bool {
        self.members_len == 0
    }

    /// The ascending member vertex ids.
    pub fn members(&self) -> FlatU64s<'a> {
        FlatU64s {
            words: self.scheme.words,
            start: self.scheme.secs[Section::MemberIds as usize] + self.members_start,
            len: self.members_len,
        }
    }

    /// The member-order rank of `v` in this cluster, resolved through the
    /// v3 [`Section::MemberSlots`] rank index: a scan of `v`'s *own* short
    /// tree list, then one word read — never a search over the (up to
    /// `n`-element) member column.
    pub fn slot_of(&self, v: NodeId) -> Option<usize> {
        let trees = self.scheme.trees_of(v);
        // A vertex's tree row is short (its cluster memberships, not a
        // member column), so a forward scan with an ascending-order early
        // exit beats binary search on the per-hop path.
        let c = self.center as u64;
        let mut i = 0usize;
        loop {
            if i >= trees.len() {
                return None;
            }
            let w = trees.get(i);
            if w >= c {
                if w > c {
                    return None;
                }
                break;
            }
            i += 1;
        }
        // MEMBER_SLOTS is word-aligned with VTREES_VALS, so the tree slice's
        // position inside its column addresses the slot directly.
        let rel = trees.start - self.scheme.secs[Section::VtreesVals as usize];
        let slot = self
            .scheme
            .words
            .get(self.scheme.secs[Section::MemberSlots as usize] + rel + i)
            as usize;
        (slot < self.members_len).then_some(slot)
    }

    /// The routing table stored at member-order rank `slot`: one
    /// offset-column read plus the pool offset — O(1) on any slot source.
    pub fn table_at(&self, slot: usize) -> Option<FlatTreeTable<'a>> {
        if slot >= self.members_len {
            return None;
        }
        let vertex = self.members().get(slot) as NodeId;
        Some(self.table_at_slot(slot, vertex))
    }

    /// [`Self::table_at`] when the caller already knows the vertex stored at
    /// `slot` (skips re-reading the member column).
    fn table_at_slot(&self, slot: usize, vertex: NodeId) -> FlatTreeTable<'a> {
        let rel = self
            .scheme
            .words
            .get(self.scheme.secs[Section::MemberTableOffs as usize] + self.members_start + slot);
        FlatTreeTable {
            words: self.scheme.words,
            off: self.scheme.secs[Section::TablePool as usize] + rel as usize,
            vertex,
        }
    }

    /// The routing table of member `v`, if `v` is in this cluster:
    /// [`Self::slot_of`] through the v3 rank index, then O(1) column
    /// arithmetic.
    pub fn table_of(&self, v: NodeId) -> Option<FlatTreeTable<'a>> {
        let slot = self.slot_of(v)?;
        Some(self.table_at_slot(slot, v))
    }
}

/// A borrowed local TZ label (a DFS time plus `(x, x')` exception pairs).
#[derive(Debug, Clone, Copy)]
pub struct FlatLocalLabel<'a> {
    words: Words<'a>,
    a: u64,
    exc_start: usize,
    exc_count: usize,
}

impl LocalLabelView for FlatLocalLabel<'_> {
    #[inline]
    fn a(&self) -> u64 {
        self.a
    }

    #[inline]
    fn exception_at(&self, x: NodeId) -> Option<NodeId> {
        for i in 0..self.exc_count {
            if self.words.get(self.exc_start + 2 * i) == x as u64 {
                return Some(self.words.get(self.exc_start + 2 * i + 1) as NodeId);
            }
        }
        None
    }
}

/// A borrowed tree-routing table record.
#[derive(Debug, Clone, Copy)]
pub struct FlatTreeTable<'a> {
    words: Words<'a>,
    /// Absolute word offset of the record.
    off: usize,
    vertex: NodeId,
}

impl FlatTreeTable<'_> {
    /// Absolute word offset of the record in the snapshot.
    pub fn offset(&self) -> usize {
        self.off
    }
}

fn opt(w: u64) -> Option<NodeId> {
    (w != NULL).then_some(w as NodeId)
}

impl<'a> TableView for FlatTreeTable<'a> {
    type Local = FlatLocalLabel<'a>;

    #[inline]
    fn vertex(&self) -> NodeId {
        self.vertex
    }

    #[inline]
    fn subtree_root(&self) -> NodeId {
        self.words.get(self.off) as NodeId
    }

    #[inline]
    fn parent(&self) -> Option<NodeId> {
        opt(self.words.get(self.off + 1))
    }

    #[inline]
    fn heavy_child(&self) -> Option<NodeId> {
        opt(self.words.get(self.off + 2))
    }

    #[inline]
    fn a_local(&self) -> u64 {
        self.words.get(self.off + 3)
    }

    #[inline]
    fn local_interval_contains(&self, a: u64) -> bool {
        self.words.get(self.off + 3) <= a && a < self.words.get(self.off + 4)
    }

    #[inline]
    fn global_interval_contains(&self, a_global: u64) -> bool {
        self.words.get(self.off + 5) <= a_global && a_global < self.words.get(self.off + 6)
    }

    #[inline]
    fn global_heavy(&self) -> Option<(NodeId, FlatLocalLabel<'a>)> {
        let child = opt(self.words.get(self.off + 7))?;
        Some((
            child,
            FlatLocalLabel {
                words: self.words,
                a: self.words.get(self.off + 9),
                exc_start: self.off + 11,
                exc_count: self.words.get(self.off + 10) as usize,
            },
        ))
    }
}

/// A borrowed tree-label record — the packet-header view forwarding consumes.
#[derive(Debug, Clone, Copy)]
pub struct FlatTreeLabel<'a> {
    words: Words<'a>,
    /// Absolute word offset of the record.
    off: usize,
}

impl<'a> FlatTreeLabel<'a> {
    /// The labelled vertex.
    pub fn vertex(&self) -> NodeId {
        self.words.get(self.off) as NodeId
    }

    /// Absolute word offset of the record in the snapshot. Every reference
    /// to one label shares one record, so equal offsets mean one record.
    pub fn offset(&self) -> usize {
        self.off
    }

    fn local_exc_count(&self) -> usize {
        self.words.get(self.off + 4) as usize
    }

    /// Word offset of the global-exception count.
    fn gexc_base(&self) -> usize {
        self.off + 5 + 2 * self.local_exc_count()
    }
}

impl<'a> LabelView for FlatTreeLabel<'a> {
    type Local = FlatLocalLabel<'a>;

    #[inline]
    fn subtree_root(&self) -> NodeId {
        self.words.get(self.off + 1) as NodeId
    }

    #[inline]
    fn a_global(&self) -> u64 {
        self.words.get(self.off + 2)
    }

    #[inline]
    fn local(&self) -> FlatLocalLabel<'a> {
        FlatLocalLabel {
            words: self.words,
            a: self.words.get(self.off + 3),
            exc_start: self.off + 5,
            exc_count: self.local_exc_count(),
        }
    }

    fn global_exception_at(&self, w: NodeId) -> Option<(NodeId, FlatLocalLabel<'a>)> {
        let base = self.gexc_base();
        let count = self.words.get(base) as usize;
        let mut at = base + 1;
        for _ in 0..count {
            let parent_subtree = self.words.get(at) as NodeId;
            let exc_count = self.words.get(at + 4) as usize;
            if parent_subtree == w {
                return Some((
                    self.words.get(at + 1) as NodeId,
                    FlatLocalLabel {
                        words: self.words,
                        a: self.words.get(at + 3),
                        exc_start: at + 5,
                        exc_count,
                    },
                ));
            }
            at += 5 + 2 * exc_count;
        }
        None
    }
}

/// One node-label entry decoded from the snapshot.
#[derive(Debug, Clone, Copy)]
pub struct FlatPivotEntry<'a> {
    /// The level `i`.
    pub level: usize,
    /// The (approximate) `i`-pivot.
    pub pivot: NodeId,
    /// The (approximate) distance to the pivot.
    pub dist: u64,
    /// The vertex's tree label in the pivot's tree, when it belongs to it.
    pub tree_label: Option<FlatTreeLabel<'a>>,
}

impl<'a> FlatScheme<'a> {
    /// Validates `bytes` as a snapshot and wraps it for zero-copy access.
    ///
    /// The validation is exhaustive — header magic/version/size, the header
    /// checksum, every per-section checksum, section bounds, CSR
    /// monotonicity, every record reachable from a column — so the
    /// accessors never have to re-check and simply borrow. The checksums
    /// are verified here, once per load: integrity costs one linear pass at
    /// publish/load time and nothing on the per-query hot path.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first inconsistency found;
    /// truncated buffers, foreign magic, flipped bits anywhere in the
    /// header or a section, and corrupted offsets are all rejected rather
    /// than risking a panic at query time.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, WireError> {
        Self::from_bytes_accounted(bytes, 0).map(|(flat, _)| flat)
    }

    /// [`Self::from_bytes`] with the checksum walk's thread count pinned
    /// and its per-thread work accounting returned.
    ///
    /// `threads == 0` picks automatically (serial below
    /// [`PARALLEL_VALIDATE_MIN_BYTES`], the host's parallelism capped at
    /// the section count above it) — exactly what [`Self::from_bytes`]
    /// does. The returned [`ValidateStats`] records the worker count
    /// actually used and the words each worker checksummed; the accounting
    /// always totals the full section span, whatever the thread count, so
    /// a recorded parallel walk is auditable against the serial one.
    ///
    /// # Errors
    ///
    /// Exactly what [`Self::from_bytes`] reports — the first failing
    /// section *in section order* is reported whatever the sharding, so
    /// the error is bit-identical to the serial walk's.
    pub fn from_bytes_accounted(
        bytes: &'a [u8],
        threads: usize,
    ) -> Result<(Self, ValidateStats), WireError> {
        // Timed only when a recorder is installed; the uninstrumented load
        // path never reads the clock.
        let t0 = en_obs::active().then(std::time::Instant::now);
        let flat = Self::parse_header(bytes, true)?;
        let stats = flat.verify_section_checksums(bytes, threads)?;
        let total_members = flat.words.get(H_TOTAL_MEMBERS) as usize;
        flat.validate_clusters(total_members)?;
        flat.validate_csrs()?;
        if let Some(t0) = t0 {
            let dur_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            en_obs::histogram_record("wire.validate_ns", dur_ns);
            en_obs::counter_add("wire.validate.runs", 1);
            en_obs::counter_add("wire.validate.words_total", stats.total_words() as u64);
            en_obs::gauge_set("wire.validate.threads", stats.threads as u64);
        }
        Ok((flat, stats))
    }

    /// Re-opens bytes that already passed [`Self::from_bytes`] with the
    /// O(header) shape pass alone — how a
    /// [`RoutingScheme`](super::RoutingScheme), which holds only validated
    /// bytes, hands out its view without re-walking hundreds of megabytes.
    /// Private to the snapshot module, so every `FlatScheme` a caller holds
    /// was validated in full.
    pub(super) fn reopen_validated(bytes: &'a [u8]) -> Result<Self, WireError> {
        Self::parse_header(bytes, false)
    }

    /// The shared shape pass: cheap O(header) checks that make the section
    /// arithmetic well-defined. `verify_header_sum` additionally pins every
    /// header bit under the trailing header checksum.
    fn parse_header(bytes: &'a [u8], verify_header_sum: bool) -> Result<Self, WireError> {
        if bytes.len() % 8 != 0 {
            return Err(WireError::Misaligned { len: bytes.len() });
        }
        if bytes.len() < HEADER_WORDS * 8 {
            return Err(WireError::Truncated {
                expected: HEADER_WORDS * 8,
                actual: bytes.len(),
            });
        }
        let words = Words::new(bytes);
        if words.get(0) != MAGIC {
            return Err(WireError::BadMagic {
                found: words.get(0),
            });
        }
        if words.get(1) != VERSION {
            return Err(WireError::UnsupportedVersion {
                found: words.get(1),
            });
        }
        if verify_header_sum {
            // Covers every header word but itself — verified before any
            // other header word is trusted.
            let expected = words.get(H_HEADER_SUM);
            let actual = fnv1a_bytes(&bytes[..H_HEADER_SUM * 8]);
            if expected != actual {
                return Err(WireError::ChecksumMismatch {
                    region: "header",
                    expected,
                    actual,
                });
            }
        }
        let total_words = words.get(H_TOTAL_WORDS) as usize;
        if total_words != words.len() {
            return Err(WireError::Truncated {
                expected: total_words * 8,
                actual: bytes.len(),
            });
        }
        let n = words.get(H_N) as usize;
        let k = words.get(H_K) as usize;
        let num_clusters = words.get(H_NUM_CLUSTERS) as usize;
        let total_members = words.get(H_TOTAL_MEMBERS) as usize;
        if k == 0 {
            return Err(WireError::Corrupt { what: "k is zero" });
        }

        // Section table: contiguous, in order, inside the buffer.
        let mut secs = [0usize; NUM_SECTIONS + 1];
        for (i, sec) in secs.iter_mut().take(NUM_SECTIONS).enumerate() {
            *sec = words.get(H_SECTIONS + i) as usize;
        }
        secs[NUM_SECTIONS] = total_words;
        if secs[0] != HEADER_WORDS {
            return Err(WireError::Corrupt {
                what: "first section does not follow the header",
            });
        }
        for i in 0..NUM_SECTIONS {
            if secs[i] > secs[i + 1] || secs[i + 1] > total_words {
                return Err(WireError::Corrupt {
                    what: "section offsets out of order or out of bounds",
                });
            }
        }
        let sec_len = |s: Section| secs[s as usize + 1] - secs[s as usize];

        // Fixed-size sections — the byte-budget manifest check: every
        // fixed column's span must match the header's own n / cluster /
        // member counts before any of it is indexed.
        let fixed: [(Section, usize, &'static str); 7] = [
            (Section::CenterIndex, n, "centre index length"),
            (
                Section::Clusters,
                num_clusters * CLUSTER_RECORD_WORDS,
                "cluster table length",
            ),
            (Section::MemberIds, total_members, "member column length"),
            (
                Section::MemberTableOffs,
                total_members,
                "table-offset column length",
            ),
            (Section::VtreesOff, n + 1, "vertex-trees CSR length"),
            (Section::OwnOff, n + 1, "own-label CSR length"),
            (Section::LabelEntriesOff, n + 1, "label-entry CSR length"),
        ];
        for (s, expect, what) in fixed {
            if sec_len(s) != expect {
                return Err(WireError::Corrupt { what });
            }
        }

        Ok(FlatScheme {
            words,
            n,
            k,
            num_clusters,
            secs,
        })
    }

    /// Verifies each section's stored checksum against its bytes, sharding
    /// the sections into `threads` parts of [`run_parts`] (per-section FNV is
    /// independent, so the walk parallelises without changing a single
    /// compared value). `threads == 0` picks automatically; see
    /// [`Self::from_bytes_accounted`].
    ///
    /// Every section's actual checksum is computed before any is compared,
    /// and comparison runs in section order — the reported error is the
    /// first failing section in section order, identical to the serial
    /// walk's, whatever the sharding.
    fn verify_section_checksums(
        &self,
        bytes: &[u8],
        threads: usize,
    ) -> Result<ValidateStats, WireError> {
        let section_words: Vec<usize> = (0..NUM_SECTIONS)
            .map(|i| self.secs[i + 1] - self.secs[i])
            .collect();
        let total_words: usize = section_words.iter().sum();
        let threads = match threads {
            0 if total_words * 8 < PARALLEL_VALIDATE_MIN_BYTES => 1,
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        }
        .clamp(1, NUM_SECTIONS);

        // Deterministic longest-processing-time assignment: sections sorted
        // by word count (descending, ties by index), each placed on the
        // least-loaded worker — balanced whatever the section size skew (the
        // pools dwarf the CSR columns). One worker simply gets every section.
        let mut order: Vec<usize> = (0..NUM_SECTIONS).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(section_words[i]), i));
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); threads];
        let mut load = vec![0usize; threads];
        for i in order {
            let w = (0..threads)
                .min_by_key(|&t| (load[t], t))
                .expect("threads >= 1");
            load[w] += section_words[i];
            assignment[w].push(i);
        }
        let sums = run_parts(assignment, |sections| {
            sections
                .into_iter()
                .map(|i| {
                    (
                        i,
                        fnv1a_bytes(&bytes[self.secs[i] * 8..self.secs[i + 1] * 8]),
                    )
                })
                .collect::<Vec<_>>()
        });
        let mut actual = [0u64; NUM_SECTIONS];
        for (i, sum) in sums.into_iter().flatten() {
            actual[i] = sum;
        }

        for (i, sec) in Section::ALL.iter().enumerate() {
            let expected = self.words.get(H_SECTION_SUMS + i);
            if expected != actual[i] {
                return Err(WireError::ChecksumMismatch {
                    region: sec.name(),
                    expected,
                    actual: actual[i],
                });
            }
        }
        Ok(ValidateStats {
            threads,
            per_thread_words: load,
        })
    }

    fn validate_clusters(&self, total_members: usize) -> Result<(), WireError> {
        let words = self.words;
        // Centre index entries point at clusters whose centre points back.
        let ci = self.secs[Section::CenterIndex as usize];
        for v in 0..self.n {
            let c = words.get(ci + v);
            if c == NULL {
                continue;
            }
            if c as usize >= self.num_clusters {
                return Err(WireError::Corrupt {
                    what: "centre index points past the cluster table",
                });
            }
            if self.cluster(c as usize).center != v {
                return Err(WireError::Corrupt {
                    what: "centre index disagrees with the cluster table",
                });
            }
        }
        let table_pool_len =
            self.secs[Section::TablePool as usize + 1] - self.secs[Section::TablePool as usize];
        let mut covered = 0usize;
        for id in 0..self.num_clusters {
            let c = self.cluster(id);
            if c.center >= self.n
                || words.get(ci + c.center) != id as u64
                || c.members_start != covered
                || c.members_len == 0
            {
                return Err(WireError::Corrupt {
                    what: "cluster descriptor inconsistent",
                });
            }
            covered += c.members_len;
            if covered > total_members {
                return Err(WireError::Corrupt {
                    what: "cluster members overrun the member column",
                });
            }
            let members = c.members();
            let mut prev: Option<u64> = None;
            let mut has_center = false;
            for i in 0..members.len() {
                let v = members.get(i);
                if v >= self.n as u64 || prev.is_some_and(|p| p >= v) {
                    return Err(WireError::Corrupt {
                        what: "cluster members not ascending vertex ids",
                    });
                }
                has_center |= v as usize == c.center;
                prev = Some(v);
                let rel = words
                    .get(self.secs[Section::MemberTableOffs as usize] + c.members_start + i)
                    as usize;
                validate_table_record(
                    words,
                    self.secs[Section::TablePool as usize],
                    table_pool_len,
                    rel,
                )?;
            }
            if !has_center {
                return Err(WireError::Corrupt {
                    what: "cluster centre is not a member",
                });
            }
        }
        if covered != total_members {
            return Err(WireError::Corrupt {
                what: "member column not fully covered by clusters",
            });
        }
        Ok(())
    }

    fn validate_csrs(&self) -> Result<(), WireError> {
        let words = self.words;
        // The v3 rank index is column-aligned with the tree column: same
        // length, and — checked per incidence below — every slot points back
        // at its vertex in the named cluster's member column. Requiring the
        // tree column to also match the member count makes the incidence map
        // a *bijection* (slots are injective per cluster), so every member
        // entry is reachable through the index and the indexed lookup is
        // provably equivalent to the member binary search it replaced.
        let vv = Section::VtreesVals as usize;
        let ms = Section::MemberSlots as usize;
        if self.secs[ms + 1] - self.secs[ms] != self.secs[vv + 1] - self.secs[vv] {
            return Err(WireError::Corrupt {
                what: "member-slot index length disagrees with the tree column",
            });
        }
        if self.secs[vv + 1] - self.secs[vv] != self.words.get(H_TOTAL_MEMBERS) as usize {
            return Err(WireError::Corrupt {
                what: "tree column length disagrees with the member count",
            });
        }
        let check_csr = |s: Section, unit: usize, vals: Section| -> Result<(), WireError> {
            let base = self.secs[s as usize];
            let vals_len = (self.secs[vals as usize + 1] - self.secs[vals as usize]) / unit;
            let mut prev = 0u64;
            for v in 0..=self.n {
                let o = words.get(base + v);
                if (v == 0 && o != 0) || o < prev || o as usize > vals_len {
                    return Err(WireError::Corrupt {
                        what: "CSR offsets not monotone within bounds",
                    });
                }
                prev = o;
            }
            if prev as usize != vals_len {
                return Err(WireError::Corrupt {
                    what: "CSR does not cover its value column",
                });
            }
            Ok(())
        };
        check_csr(Section::VtreesOff, 1, Section::VtreesVals)?;
        check_csr(Section::OwnOff, OWN_ENTRY_WORDS, Section::OwnEntries)?;
        check_csr(
            Section::LabelEntriesOff,
            LABEL_ENTRY_WORDS,
            Section::LabelEntries,
        )?;

        let label_pool_base = self.secs[Section::LabelPool as usize];
        let label_pool_len = self.secs[Section::LabelPool as usize + 1] - label_pool_base;
        for v in 0..self.n {
            // Tree memberships: ascending centre ids, each with a rank-index
            // slot that resolves back to `v` in that cluster's member column.
            let trees = self.trees_of(v);
            let slots_at = self.secs[ms] + (trees.start - self.secs[vv]);
            for i in 0..trees.len() {
                let c = trees.get(i);
                if c >= self.n as u64 || (i > 0 && trees.get(i - 1) >= c) {
                    return Err(WireError::Corrupt {
                        what: "vertex tree list not ascending centre ids",
                    });
                }
                let Some(cluster) = self.cluster_of_center(c as NodeId) else {
                    return Err(WireError::Corrupt {
                        what: "vertex tree list names a centre without a cluster",
                    });
                };
                let slot = words.get(slots_at + i) as usize;
                if slot >= cluster.len() || cluster.members().get(slot) != v as u64 {
                    return Err(WireError::Corrupt {
                        what: "member-slot index disagrees with the member column",
                    });
                }
            }
            // Own-cluster entries: ascending member ids, valid label records.
            let (start, count) = self.own_range(v);
            let base = self.secs[Section::OwnEntries as usize];
            for e in 0..count {
                let m = words.get(base + (start + e) * OWN_ENTRY_WORDS);
                if m >= self.n as u64
                    || (e > 0 && words.get(base + (start + e - 1) * OWN_ENTRY_WORDS) >= m)
                {
                    return Err(WireError::Corrupt {
                        what: "own-cluster entries not ascending member ids",
                    });
                }
                let off = words.get(base + (start + e) * OWN_ENTRY_WORDS + 1) as usize;
                validate_label_record(words, label_pool_base, label_pool_len, off)?;
            }
            // Node-label entries: levels within range, valid label records.
            let (start, count) = self.label_entry_range(v);
            let base = self.secs[Section::LabelEntries as usize];
            for e in 0..count {
                let at = base + (start + e) * LABEL_ENTRY_WORDS;
                if words.get(at) >= self.k as u64 || words.get(at + 1) >= self.n as u64 {
                    return Err(WireError::Corrupt {
                        what: "label entry level or pivot out of range",
                    });
                }
                let off = words.get(at + 3);
                if off != NULL {
                    validate_label_record(words, label_pool_base, label_pool_len, off as usize)?;
                }
            }
        }
        Ok(())
    }

    // --- Header accessors ----------------------------------------------------

    /// Number of host vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The trade-off parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cluster trees.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Total snapshot size in bytes.
    pub fn snapshot_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Sum of all cluster sizes.
    pub fn total_members(&self) -> usize {
        self.words.get(H_TOTAL_MEMBERS) as usize
    }

    /// Largest routing table in `O(log n)` words (the Table-1 accounting
    /// summed while the records were written).
    pub fn max_table_words(&self) -> usize {
        self.words.get(H_MAX_TABLE_WORDS) as usize
    }

    /// Summed routing-table words over all vertices.
    pub fn total_table_words(&self) -> usize {
        self.words.get(H_TOTAL_TABLE_WORDS) as usize
    }

    /// Largest label in `O(log n)` words.
    pub fn max_label_words(&self) -> usize {
        self.words.get(H_MAX_LABEL_WORDS) as usize
    }

    /// Summed label words over all vertices.
    pub fn total_label_words(&self) -> usize {
        self.words.get(H_TOTAL_LABEL_WORDS) as usize
    }

    // --- Column accessors ----------------------------------------------------

    /// The ascending centres of the cluster trees containing `v` (empty for
    /// a vertex id outside the snapshot).
    pub fn trees_of(&self, v: NodeId) -> FlatU64s<'a> {
        if v >= self.n {
            return FlatU64s {
                words: self.words,
                start: self.secs[Section::VtreesVals as usize],
                len: 0,
            };
        }
        let base = self.secs[Section::VtreesOff as usize];
        let start = self.words.get(base + v) as usize;
        let end = self.words.get(base + v + 1) as usize;
        FlatU64s {
            words: self.words,
            start: self.secs[Section::VtreesVals as usize] + start,
            len: end - start,
        }
    }

    /// `(start entry, entry count)` of `v`'s slice of an offset CSR; empty
    /// for a vertex id outside the snapshot.
    fn csr_range(&self, offsets: Section, v: NodeId) -> (usize, usize) {
        if v >= self.n {
            return (0, 0);
        }
        let base = self.secs[offsets as usize];
        let start = self.words.get(base + v) as usize;
        let end = self.words.get(base + v + 1) as usize;
        (start, end - start)
    }

    fn own_range(&self, v: NodeId) -> (usize, usize) {
        self.csr_range(Section::OwnOff, v)
    }

    /// The `4k−5` refinement lookup: if `center` stores an own-cluster label
    /// for `member`, return it (`None` for out-of-range ids).
    pub fn own_label(&self, center: NodeId, member: NodeId) -> Option<FlatTreeLabel<'a>> {
        let (start, count) = self.own_range(center);
        let base = self.secs[Section::OwnEntries as usize];
        let (mut lo, mut hi) = (0usize, count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let m = self.words.get(base + (start + mid) * OWN_ENTRY_WORDS);
            match m.cmp(&(member as u64)) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let off = self.words.get(base + (start + mid) * OWN_ENTRY_WORDS + 1) as usize;
                    return Some(FlatTreeLabel {
                        words: self.words,
                        off: self.secs[Section::LabelPool as usize] + off,
                    });
                }
            }
        }
        None
    }

    /// Number of own-cluster labels stored at `center` (0 unless `center` is
    /// a level-0 centre).
    pub fn own_label_count(&self, center: NodeId) -> usize {
        self.own_range(center).1
    }

    fn label_entry_range(&self, v: NodeId) -> (usize, usize) {
        self.csr_range(Section::LabelEntriesOff, v)
    }

    fn decode_label_entry(&self, entry: usize) -> FlatPivotEntry<'a> {
        let at = self.secs[Section::LabelEntries as usize] + entry * LABEL_ENTRY_WORDS;
        let off = self.words.get(at + 3);
        FlatPivotEntry {
            level: self.words.get(at) as usize,
            pivot: self.words.get(at + 1) as NodeId,
            dist: self.words.get(at + 2),
            tree_label: (off != NULL).then(|| FlatTreeLabel {
                words: self.words,
                off: self.secs[Section::LabelPool as usize] + off as usize,
            }),
        }
    }

    /// The node-label entries of `v`, in ascending level order (empty for a
    /// vertex id outside the snapshot).
    pub fn label_entries_of(&self, v: NodeId) -> impl Iterator<Item = FlatPivotEntry<'a>> + '_ {
        let (start, count) = self.label_entry_range(v);
        (0..count).map(move |e| self.decode_label_entry(start + e))
    }

    /// The cluster with dense id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= num_clusters()`.
    pub fn cluster(&self, id: usize) -> FlatCluster<'a> {
        assert!(id < self.num_clusters, "cluster id out of range");
        let at = self.secs[Section::Clusters as usize] + id * CLUSTER_RECORD_WORDS;
        FlatCluster {
            scheme: *self,
            id,
            center: self.words.get(at) as NodeId,
            level: self.words.get(at + 1) as usize,
            members_start: self.words.get(at + 2) as usize,
            members_len: self.words.get(at + 3) as usize,
        }
    }

    /// The cluster rooted at `center`, if any.
    pub fn cluster_of_center(&self, center: NodeId) -> Option<FlatCluster<'a>> {
        if center >= self.n {
            return None;
        }
        let id = self
            .words
            .get(self.secs[Section::CenterIndex as usize] + center);
        (id != NULL).then(|| self.cluster(id as usize))
    }

    /// Iterates all clusters in dense id order.
    pub fn clusters(&self) -> impl Iterator<Item = FlatCluster<'a>> + '_ {
        (0..self.num_clusters).map(move |id| self.cluster(id))
    }

    /// The snapshot's byte-budget manifest: each section's span and stored
    /// checksum, straight from the (already shape-checked) header. Fault
    /// tooling uses it to aim truncations and flips at exact boundaries.
    pub fn manifest(&self) -> SnapshotManifest {
        let mut sections = [SectionSpan {
            section: Section::CenterIndex,
            start_word: 0,
            words: 0,
            checksum: 0,
        }; NUM_SECTIONS];
        for (i, sec) in Section::ALL.iter().enumerate() {
            sections[i] = SectionSpan {
                section: *sec,
                start_word: self.secs[i],
                words: self.secs[i + 1] - self.secs[i],
                checksum: self.words.get(H_SECTION_SUMS + i),
            };
        }
        SnapshotManifest {
            total_words: self.words.len(),
            header_checksum: self.words.get(H_HEADER_SUM),
            sections,
        }
    }
}

/// One section's span inside a snapshot, as declared by the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionSpan {
    /// Which section.
    pub section: Section,
    /// Absolute start, in words from the buffer start.
    pub start_word: usize,
    /// Length in words.
    pub words: usize,
    /// The checksum the header stores for this section.
    pub checksum: u64,
}

/// The header's byte-budget manifest: every section span plus the stored
/// checksums (see [`FlatScheme::manifest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// Total buffer size in words.
    pub total_words: usize,
    /// The stored header checksum.
    pub header_checksum: u64,
    /// Per-section spans, in buffer order.
    pub sections: [SectionSpan; NUM_SECTIONS],
}

impl SnapshotManifest {
    /// The word offsets of every section boundary, ascending: the start of
    /// each section plus the end of the buffer — the exact places where a
    /// torn transfer truncates cleanly.
    pub fn boundaries(&self) -> Vec<usize> {
        let mut b: Vec<usize> = self.sections.iter().map(|s| s.start_word).collect();
        b.push(self.total_words);
        b
    }
}

/// Walks one table record, checking that it fits inside the table pool.
fn validate_table_record(
    words: Words<'_>,
    pool_base: usize,
    pool_len: usize,
    rel: usize,
) -> Result<(), WireError> {
    let err = WireError::Corrupt {
        what: "table record overruns the table pool",
    };
    let end = rel.checked_add(TABLE_FIXED_WORDS).ok_or(err)?;
    if end > pool_len {
        return Err(err);
    }
    if words.get(pool_base + rel + 7) != NULL {
        // Global-heavy tail: portal, portal-label DFS time, exception count…
        let count_end = end.checked_add(3).ok_or(err)?;
        if count_end > pool_len {
            return Err(err);
        }
        // …then that many (x, x') pairs.
        let exc = words.get(pool_base + end + 2) as usize;
        if count_end
            .checked_add(exc.checked_mul(2).ok_or(err)?)
            .ok_or(err)?
            > pool_len
        {
            return Err(err);
        }
    }
    Ok(())
}

/// Walks one label record, checking that it fits inside the label pool.
fn validate_label_record(
    words: Words<'_>,
    pool_base: usize,
    pool_len: usize,
    rel: usize,
) -> Result<(), WireError> {
    let err = WireError::Corrupt {
        what: "label record overruns the label pool",
    };
    let check = |at: usize| if at > pool_len { Err(err) } else { Ok(at) };
    let mut at = check(rel.checked_add(5).ok_or(err)?)?;
    let local_exc = words.get(pool_base + rel + 4) as usize;
    at = check(
        at.checked_add(local_exc.checked_mul(2).ok_or(err)?)
            .ok_or(err)?,
    )?;
    check(at + 1)?;
    let gexc = words.get(pool_base + at) as usize;
    at += 1;
    for _ in 0..gexc {
        check(at.checked_add(5).ok_or(err)?)?;
        let exc = words.get(pool_base + at + 4) as usize;
        at = check(
            at.checked_add(5)
                .and_then(|x| x.checked_add(exc.checked_mul(2)?))
                .ok_or(err)?,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Load-time validation drills: each corruption case overwrites words
    //! the header's shape checks cannot see, re-seals the section and header
    //! checksums so the buffer gets past the integrity layer, and asserts
    //! that the structural pass of [`FlatScheme::from_bytes`] rejects it
    //! with the expected [`WireError::Corrupt`] branch. The `try_*` drill
    //! names are those of the per-query checked accessors these pokes were
    //! first aimed at; that checking now happens once, at load.

    use super::*;
    use crate::construction::{build_routing_scheme, ConstructionConfig};
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    fn snapshot() -> Vec<u8> {
        let g = erdos_renyi_connected(&GeneratorConfig::new(64, 9).with_weights(1, 15), 0.12);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(2, 9)).unwrap();
        built.scheme.bytes().to_vec()
    }

    fn word_at(bytes: &[u8], w: usize) -> u64 {
        u64::from_le_bytes(bytes[w * 8..w * 8 + 8].try_into().unwrap())
    }

    fn set_word(bytes: &mut [u8], w: usize, value: u64) {
        bytes[w * 8..w * 8 + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Applies `writes`, then recomputes every section checksum and the
    /// header checksum, so that only the structural checks can reject the
    /// result.
    fn poke_sealed(bytes: &[u8], writes: &[(usize, u64)]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for &(w, value) in writes {
            set_word(&mut out, w, value);
        }
        let m = FlatScheme::from_bytes(bytes).unwrap().manifest();
        for (i, span) in m.sections.iter().enumerate() {
            let sum = fnv1a_bytes(&out[span.start_word * 8..(span.start_word + span.words) * 8]);
            set_word(&mut out, H_SECTION_SUMS + i, sum);
        }
        let sum = fnv1a_bytes(&out[..H_HEADER_SUM * 8]);
        set_word(&mut out, H_HEADER_SUM, sum);
        out
    }

    fn start(m: &SnapshotManifest, s: Section) -> usize {
        m.sections[s as usize].start_word
    }

    /// Word positions of one snapshot that the corruption drills poke.
    struct Targets {
        bytes: Vec<u8>,
        n: usize,
        k: usize,
        num_clusters: usize,
        m: SnapshotManifest,
        /// A vertex whose centre-index slot names a cluster.
        center: usize,
        /// Cluster 0's first two member words and their values.
        members_start: usize,
        mi: usize,
        ab: (u64, u64),
        /// First own-label entry of a centre that stores one.
        own_entry: usize,
        /// First label entry of a vertex that has one.
        label_entry: usize,
        /// A member-slot word whose cluster has another member to name.
        slot_word: usize,
        other_slot: u64,
    }

    fn targets() -> Targets {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        assert_eq!(poke_sealed(&bytes, &[]), bytes, "sealing is faithful");

        let ci = start(&m, Section::CenterIndex);
        let center = (0..flat.n())
            .find(|&v| word_at(&bytes, ci + v) != NULL)
            .expect("some vertex is a centre");
        // Cluster 0's descriptor: [center, level, members_start, members_len].
        let cl = start(&m, Section::Clusters);
        let members_start = word_at(&bytes, cl + 2) as usize;
        assert!(word_at(&bytes, cl + 3) >= 2, "cluster 0 needs two members");
        let mi = start(&m, Section::MemberIds) + members_start;
        let ab = (word_at(&bytes, mi), word_at(&bytes, mi + 1));
        let oo = start(&m, Section::OwnOff);
        let own_v = (0..flat.n())
            .find(|&v| word_at(&bytes, oo + v + 1) > word_at(&bytes, oo + v))
            .expect("some centre stores own-cluster labels (4k-5 refinement)");
        let own_entry =
            start(&m, Section::OwnEntries) + word_at(&bytes, oo + own_v) as usize * OWN_ENTRY_WORDS;
        let lo = start(&m, Section::LabelEntriesOff);
        let label_v = (0..flat.n())
            .find(|&v| word_at(&bytes, lo + v + 1) > word_at(&bytes, lo + v))
            .expect("some vertex has label entries");
        let label_entry = start(&m, Section::LabelEntries)
            + word_at(&bytes, lo + label_v) as usize * LABEL_ENTRY_WORDS;
        // A tree incidence whose cluster has a second member to point at.
        let (v, i, c) = (0..flat.n())
            .flat_map(|v| {
                let trees = flat.trees_of(v);
                (0..trees.len()).map(move |i| (v, i, trees.get(i) as NodeId))
            })
            .find(|&(_, _, c)| flat.cluster_of_center(c).unwrap().len() >= 2)
            .expect("some cluster has at least two members");
        let slot_word = start(&m, Section::MemberSlots)
            + (flat.trees_of(v).start - start(&m, Section::VtreesVals))
            + i;
        let cluster_len = flat.cluster_of_center(c).unwrap().len();
        let other_slot = ((word_at(&bytes, slot_word) as usize + 1) % cluster_len) as u64;
        Targets {
            n: flat.n(),
            k: flat.k(),
            num_clusters: flat.num_clusters(),
            bytes,
            m,
            center,
            members_start,
            mi,
            ab,
            own_entry,
            label_entry,
            slot_word,
            other_slot,
        }
    }

    /// Asserts that `writes` alone fail the section checksum, and that once
    /// re-sealed they are rejected by the structural pass with `what`.
    fn assert_rejected_at_load(
        bytes: &[u8],
        name: &str,
        writes: &[(usize, u64)],
        what: &'static str,
    ) {
        let mut raw = bytes.to_vec();
        for &(w, value) in writes {
            set_word(&mut raw, w, value);
        }
        assert!(
            matches!(
                FlatScheme::from_bytes(&raw),
                Err(WireError::ChecksumMismatch { .. })
            ),
            "{name}: the unsealed poke must fail its checksum"
        );
        assert_eq!(
            FlatScheme::from_bytes(&poke_sealed(bytes, writes)).unwrap_err(),
            WireError::Corrupt { what },
            "{name}"
        );
    }

    #[test]
    fn try_cluster_of_center_reports_poisoned_centre_index() {
        let t = targets();
        let ci = start(&t.m, Section::CenterIndex);
        assert_rejected_at_load(
            &t.bytes,
            "centre index past the table",
            &[(ci + t.center, t.num_clusters as u64 + 7)],
            "centre index points past the cluster table",
        );
    }

    #[test]
    fn try_members_reports_member_span_overrun() {
        let t = targets();
        let cl = start(&t.m, Section::Clusters);
        assert_rejected_at_load(
            &t.bytes,
            "member span overrun",
            &[(cl + 3, 1 << 40)],
            "cluster members overrun the member column",
        );
    }

    #[test]
    fn try_table_of_reports_poisoned_table_offset() {
        let t = targets();
        let offs = start(&t.m, Section::MemberTableOffs) + t.members_start;
        assert_rejected_at_load(
            &t.bytes,
            "table offset",
            &[(offs, u64::MAX)],
            "table record overruns the table pool",
        );
    }

    #[test]
    fn try_trees_of_reports_corrupt_csr_offsets() {
        let t = targets();
        // Breaks vertex 0 (end past the column) and vertex 1 (start > end)
        // at once.
        assert_rejected_at_load(
            &t.bytes,
            "CSR offsets",
            &[(start(&t.m, Section::VtreesOff) + 1, u64::MAX)],
            "CSR offsets not monotone within bounds",
        );
    }

    #[test]
    fn try_own_label_reports_poisoned_label_offset() {
        let t = targets();
        assert_rejected_at_load(
            &t.bytes,
            "own-label offset",
            &[(t.own_entry + 1, u64::MAX)],
            "label record overruns the label pool",
        );
    }

    #[test]
    fn try_label_entries_of_reports_out_of_range_fields() {
        let t = targets();
        let cases = [
            (
                "label-entry level",
                (t.label_entry, t.k as u64 + 100),
                "label entry level or pivot out of range",
            ),
            (
                "label-entry pivot",
                (t.label_entry + 1, t.n as u64 + 100),
                "label entry level or pivot out of range",
            ),
            (
                "label-entry pool offset",
                (t.label_entry + 3, u64::MAX - 1),
                "label record overruns the label pool",
            ),
        ];
        for (name, write, what) in cases {
            assert_rejected_at_load(&t.bytes, name, &[write], what);
        }
    }

    #[test]
    fn try_table_of_reports_poisoned_rank_index() {
        let t = targets();
        // In range, so only the member-column agreement catches it.
        assert_rejected_at_load(
            &t.bytes,
            "rank index names another member",
            &[(t.slot_word, t.other_slot)],
            "member-slot index disagrees with the member column",
        );
        assert_rejected_at_load(
            &t.bytes,
            "rank index past the cluster",
            &[(t.slot_word, u64::MAX)],
            "member-slot index disagrees with the member column",
        );
    }

    #[test]
    fn scrambled_member_column_never_panics_the_checked_paths() {
        let t = targets();
        let (a, b) = t.ab;
        assert_rejected_at_load(
            &t.bytes,
            "scrambled member column",
            &[(t.mi, b), (t.mi + 1, a)],
            "cluster members not ascending vertex ids",
        );
    }

    #[test]
    fn rank_index_agrees_with_the_member_search_oracle() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let mut lookups = 0usize;
        for cluster in flat.clusters() {
            for slot in 0..cluster.len() {
                let v = cluster.members().get(slot) as NodeId;
                assert_eq!(cluster.slot_of(v), Some(slot));
                // The lookup the rank index replaces: a member-column search.
                assert_eq!(cluster.members().binary_search(v as u64), Ok(slot));
                let fast = cluster.table_of(v).expect("member resolves via the index");
                assert_eq!(cluster.table_at(slot).unwrap().off, fast.off);
                assert_eq!(fast.vertex(), v);
                lookups += 1;
            }
            // Non-members miss (a cluster may span all of V, in which case
            // there is no outsider to probe).
            if let Some(outsider) =
                (0..flat.n()).find(|&v| cluster.members().binary_search(v as u64).is_err())
            {
                assert!(cluster.slot_of(outsider).is_none());
                assert!(cluster.table_of(outsider).is_none());
            }
        }
        assert!(lookups > 0, "the drill must exercise real lookups");
    }

    #[test]
    fn manifest_boundaries_cover_the_whole_buffer() {
        let bytes = snapshot();
        let flat = FlatScheme::from_bytes(&bytes).unwrap();
        let m = flat.manifest();
        let b = m.boundaries();
        assert_eq!(b.len(), NUM_SECTIONS + 1);
        assert_eq!(b[0], HEADER_WORDS, "first section starts after the header");
        assert_eq!(*b.last().unwrap(), bytes.len() / 8);
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "boundaries ascend");
        let spanned: usize = m.sections.iter().map(|s| s.words).sum();
        assert_eq!(
            spanned + HEADER_WORDS,
            m.total_words,
            "sections tile the buffer"
        );
    }

    #[test]
    fn parallel_validation_accounts_the_whole_section_span() {
        let bytes = snapshot();
        let section_words = bytes.len() / 8 - HEADER_WORDS;
        for threads in [1usize, 2, 3, 7, NUM_SECTIONS, 64] {
            let (_, stats) = FlatScheme::from_bytes_accounted(&bytes, threads).unwrap();
            assert_eq!(
                stats.threads,
                threads.min(NUM_SECTIONS),
                "worker count is the request capped at the section count"
            );
            assert_eq!(stats.per_thread_words.len(), stats.threads);
            assert_eq!(
                stats.total_words(),
                section_words,
                "at {threads} threads the accounting must total the serial walk"
            );
        }
        // The automatic pick (threads = 0) accounts identically.
        let (_, auto) = FlatScheme::from_bytes_accounted(&bytes, 0).unwrap();
        assert_eq!(auto.total_words(), section_words);
    }

    #[test]
    fn parallel_validation_reports_the_same_error_as_serial() {
        let bytes = snapshot();
        let m = FlatScheme::from_bytes(&bytes).unwrap().manifest();
        // Poison one word in each of two sections; whatever the sharding,
        // the reported mismatch must be the first failing section in
        // section order — bit-identical to the serial walk's error.
        let mut bad = bytes.clone();
        for s in [Section::MemberIds, Section::LabelPool] {
            let w = m.sections[s as usize].start_word;
            bad[w * 8] ^= 0x10;
        }
        let serial = FlatScheme::from_bytes_accounted(&bad, 1).unwrap_err();
        for threads in [2usize, 5, NUM_SECTIONS] {
            let sharded = FlatScheme::from_bytes_accounted(&bad, threads).unwrap_err();
            assert_eq!(serial, sharded, "at {threads} threads");
        }
        assert!(matches!(
            serial,
            WireError::ChecksumMismatch {
                region: "member_ids",
                ..
            }
        ));
    }
}
