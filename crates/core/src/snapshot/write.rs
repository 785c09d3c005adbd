//! Writing the snapshot while the scheme is assembled.
//!
//! [`encode`] builds every cluster's tree-routing scheme, encodes that
//! cluster's table and label records into per-part columns and pools
//! straight away, and drops the tree scheme. A second sweep over the
//! vertices writes the per-vertex columns. Both phases run as parts of
//! [`run_parts`] over contiguous spans and are concatenated in span order,
//! so the bytes are identical for every thread count.

use std::ops::Range;

use en_graph::{run_parts, shard_spans, BuildOptions, BuildStats, NodeId};
use en_tree_routing::{TreeLabel, TreeRoutingConfig, TreeRoutingScheme, TreeTable};

use super::checksum::fnv1a_bytes;
use super::format::{
    CLUSTER_RECORD_WORDS, HEADER_WORDS, H_HEADER_SUM, H_SECTION_SUMS, LABEL_ENTRY_WORDS, MAGIC,
    NULL, NUM_SECTIONS, OWN_ENTRY_WORDS, VERSION,
};
use crate::family::ClusterFamily;

fn opt(v: Option<usize>) -> u64 {
    v.map_or(NULL, |x| x as u64)
}

/// Appends one table record to the table pool. The vertex and tree root are
/// implicit (member column / cluster centre).
fn write_table(pool: &mut Vec<u64>, t: &TreeTable) {
    pool.extend_from_slice(&[
        t.subtree_root as u64,
        opt(t.parent),
        opt(t.heavy_child),
        t.a_local,
        t.b_local,
        t.a_global,
        t.b_global,
        opt(t.global_heavy.as_ref().map(|gh| gh.child_subtree)),
    ]);
    if let Some(gh) = &t.global_heavy {
        pool.extend_from_slice(&[
            gh.portal as u64,
            gh.portal_label.a,
            gh.portal_label.exceptions.len() as u64,
        ]);
        for &(x, c) in &gh.portal_label.exceptions {
            pool.extend_from_slice(&[x as u64, c as u64]);
        }
    }
}

/// Appends one tree-label record to the label pool.
fn write_label(pool: &mut Vec<u64>, l: &TreeLabel) {
    pool.extend_from_slice(&[
        l.vertex as u64,
        l.subtree_root as u64,
        l.a_global,
        l.local.a,
        l.local.exceptions.len() as u64,
    ]);
    for &(x, c) in &l.local.exceptions {
        pool.extend_from_slice(&[x as u64, c as u64]);
    }
    pool.push(l.global_exceptions.len() as u64);
    for e in &l.global_exceptions {
        pool.extend_from_slice(&[
            e.parent_subtree as u64,
            e.child_subtree as u64,
            e.portal as u64,
            e.portal_label.a,
            e.portal_label.exceptions.len() as u64,
        ]);
        for &(x, c) in &e.portal_label.exceptions {
            pool.extend_from_slice(&[x as u64, c as u64]);
        }
    }
}

/// The words of the label record written at `off` by [`write_label`].
fn label_record(pool: &[u64], off: usize) -> &[u64] {
    let mut end = off + 5 + 2 * pool[off + 4] as usize;
    let global = pool[end] as usize;
    end += 1;
    for _ in 0..global {
        end += 5 + 2 * pool[end + 4] as usize;
    }
    &pool[off..end]
}

/// One part of the cluster phase: the member, table-offset and table-pool
/// columns of a span of clusters, plus the label records something refers
/// to (written in member order here, and moved into first-reference order
/// by the vertex sweep).
#[derive(Default)]
struct ClusterPart {
    member_ids: Vec<u64>,
    table_offs: Vec<u64>,
    table_pool: Vec<u64>,
    /// Per member: `TreeTable::words`.
    table_words: Vec<u32>,
    /// Per member: offset of its label record in `label_pool`, or [`NULL`].
    label_offs: Vec<u64>,
    /// Per member: `TreeLabel::words`, 0 when no record was written.
    label_words: Vec<u32>,
    label_pool: Vec<u64>,
}

/// One part of the vertex sweep: the per-vertex tree and label-entry
/// columns of a span of vertices (offsets relative to the part) and the
/// label records those entries refer to, in first-reference order.
#[derive(Default)]
struct VertexPart {
    vtrees_ends: Vec<u64>,
    vtrees_vals: Vec<u64>,
    member_slots: Vec<u64>,
    entry_ends: Vec<u64>,
    label_entries: Vec<u64>,
    label_pool: Vec<u64>,
    table_words: WordStats,
    label_words: WordStats,
    produced: usize,
}

/// `(max, total)` of per-vertex word counts: the header's Table-1
/// accounting.
#[derive(Default, Clone, Copy)]
struct WordStats(usize, usize);

impl WordStats {
    fn add(&mut self, words: usize) {
        self.merge(WordStats(words, words));
    }

    fn merge(&mut self, other: WordStats) {
        self.0 = self.0.max(other.0);
        self.1 += other.1;
    }
}

/// Builds the tree-routing scheme of every cluster of `family` and writes
/// the complete v3 snapshot, returning its bytes and the per-part work
/// accounting.
///
/// `tree_seed` seeds the portal sampling of the per-tree schemes (each
/// tree's seed also mixes in its centre, so processing order is
/// immaterial). Clusters are laid out in ascending-centre order.
pub(crate) fn encode(
    family: &ClusterFamily,
    tree_seed: u64,
    opts: &BuildOptions,
) -> (Vec<u8>, BuildStats) {
    let n = family.n();
    let forest = &family.forest;
    let num_clusters = forest.num_clusters();
    let pivots = &family.pivots;

    // Snapshot cluster `ci` is forest cluster `order[ci]`: ascending centres.
    let mut order: Vec<usize> = (0..num_clusters).collect();
    order.sort_unstable_by_key(|&id| forest.cluster(id).center());
    let mut rank = vec![0usize; num_clusters];
    let mut center_index = vec![NULL; n];
    let mut clusters = Vec::with_capacity(num_clusters * CLUSTER_RECORD_WORDS);
    let mut members_start = Vec::with_capacity(num_clusters + 1);
    members_start.push(0usize);
    for (ci, &id) in order.iter().enumerate() {
        let cluster = forest.cluster(id);
        rank[id] = ci;
        debug_assert_eq!(
            center_index[cluster.center()],
            NULL,
            "one cluster per centre"
        );
        center_index[cluster.center()] = ci as u64;
        let start = *members_start.last().expect("seeded with 0");
        clusters.extend_from_slice(&[
            cluster.center() as u64,
            cluster.level() as u64,
            start as u64,
            cluster.len() as u64,
        ]);
        members_start.push(start + cluster.len());
    }
    let cluster_of = |v: NodeId| -> Option<usize> {
        let ci = center_index[v];
        (ci != NULL).then_some(ci as usize)
    };
    let is_level0 = |ci: usize| clusters[ci * CLUSTER_RECORD_WORDS + 1] == 0;

    // Phase A: per-cluster tree schemes, encoded and dropped one by one.
    let encode_clusters = |span: Range<usize>| -> ClusterPart {
        let mut part = ClusterPart::default();
        for &id in &order[span] {
            let cluster = forest.cluster(id);
            let center = cluster.center();
            let config =
                TreeRoutingConfig::new(tree_seed ^ (center as u64).wrapping_mul(0x9E37_79B9));
            let tree = TreeRoutingScheme::build(&cluster, &config);
            for (slot, v) in cluster.members().enumerate() {
                let table = tree
                    .table_by_index(slot)
                    .expect("tables align with members");
                debug_assert_eq!(table.vertex, v);
                part.member_ids.push(v as u64);
                part.table_offs.push(part.table_pool.len() as u64);
                write_table(&mut part.table_pool, table);
                part.table_words.push(table.words() as u32);
                // A label is referenced by the member's own entry for a
                // level whose pivot is this centre, and by a level-0
                // centre's own-cluster table.
                let referenced =
                    cluster.level() == 0 || pivots[v].iter().flatten().any(|&(z, _)| z == center);
                if referenced {
                    let label = tree
                        .label_by_index(slot)
                        .expect("labels align with members");
                    part.label_offs.push(part.label_pool.len() as u64);
                    write_label(&mut part.label_pool, label);
                    part.label_words.push(label.words() as u32);
                } else {
                    part.label_offs.push(NULL);
                    part.label_words.push(0);
                }
            }
        }
        part
    };
    let total_members = *members_start.last().expect("seeded with 0");
    let mut out = SectionWriter::new();
    out.section([&center_index]);
    out.section([&clusters]);
    let cluster_spans = shard_spans(num_clusters, opts.threads, 1);
    let mut parts = run_parts(cluster_spans.clone(), encode_clusters);
    let mut tree_stats = BuildStats::default();
    let mut table_len = 0u64;
    let mut table_words = Vec::with_capacity(total_members);
    let mut label_words = Vec::with_capacity(total_members);
    let mut label_src = Vec::new();
    let mut label_records = Vec::new();
    for (span, part) in cluster_spans.iter().zip(&mut parts) {
        tree_stats.record(span.len(), part.member_ids.len());
        for off in &mut part.table_offs {
            *off += table_len;
        }
        table_len += part.table_pool.len() as u64;
        table_words.append(&mut part.table_words);
        label_words.append(&mut part.label_words);
        let base = label_records.len() as u64;
        append(&mut label_src, std::mem::take(&mut part.label_offs), base);
        append(&mut label_records, std::mem::take(&mut part.label_pool), 0);
    }
    // Each part's columns go straight into the buffer, freed as they land.
    out.section(parts.iter_mut().map(|p| std::mem::take(&mut p.member_ids)));
    out.section(parts.iter_mut().map(|p| std::mem::take(&mut p.table_offs)));
    out.section(parts.into_iter().map(|p| p.table_pool));

    // Phase B: the per-vertex sweep. A label entry refers to the vertex's
    // own label in the pivot's cluster, so no record is shared between two
    // vertices' entries and each part can intern its records on its own.
    let sweep = |span: Range<usize>| -> VertexPart {
        let mut part = VertexPart::default();
        let mut trees: Vec<(usize, usize)> = Vec::new();
        for v in span {
            trees.clear();
            trees.extend(forest.membership(v).map(|(id, slot)| (rank[id], slot)));
            trees.sort_unstable();
            let mut table = 0usize;
            for &(ci, slot) in &trees {
                part.vtrees_vals.push(clusters[ci * CLUSTER_RECORD_WORDS]);
                part.member_slots.push(slot as u64);
                table += table_words[members_start[ci] + slot] as usize;
            }
            part.vtrees_ends.push(part.vtrees_vals.len() as u64);
            if let Some(ci) = cluster_of(v).filter(|&ci| is_level0(ci)) {
                let own = members_start[ci]..members_start[ci + 1];
                table += own.map(|gm| 1 + label_words[gm] as usize).sum::<usize>();
            }
            let mut label = 1usize;
            let first_entry = part.label_entries.len();
            for (level, pivot) in pivots[v].iter().enumerate() {
                let Some((pivot, dist)) = *pivot else {
                    continue;
                };
                let member = cluster_of(pivot).and_then(|ci| {
                    let at = trees.binary_search_by_key(&ci, |&(c, _)| c).ok()?;
                    Some(members_start[ci] + trees[at].1)
                });
                let off = match member {
                    None => NULL,
                    Some(gm) => {
                        label += label_words[gm] as usize;
                        // Two levels may share a pivot, and so a record.
                        let seen = part.label_entries[first_entry..]
                            .chunks_exact(LABEL_ENTRY_WORDS)
                            .find(|e| e[1] == pivot as u64)
                            .map(|e| e[3]);
                        seen.unwrap_or_else(|| {
                            let off = part.label_pool.len() as u64;
                            let record = label_record(&label_records, label_src[gm] as usize);
                            part.label_pool.extend_from_slice(record);
                            off
                        })
                    }
                };
                label += 3;
                part.label_entries
                    .extend_from_slice(&[level as u64, pivot as u64, dist, off]);
            }
            part.entry_ends
                .push((part.label_entries.len() / LABEL_ENTRY_WORDS) as u64);
            part.table_words.add(table);
            part.label_words.add(label);
            part.produced +=
                trees.len() + (part.label_entries.len() - first_entry) / LABEL_ENTRY_WORDS;
        }
        part
    };
    let mut vtrees_off = vec![0u64];
    let mut vtrees_vals = Vec::new();
    let mut member_slots = Vec::new();
    let mut label_entries_off = vec![0u64];
    let mut label_entries = Vec::new();
    let mut label_pool = Vec::new();
    let mut table_stats = WordStats::default();
    let mut label_stats = WordStats::default();
    let mut sweep_stats = BuildStats::default();
    let vertex_spans = shard_spans(n, opts.threads, 1);
    for (span, part) in vertex_spans
        .iter()
        .zip(run_parts(vertex_spans.clone(), sweep))
    {
        sweep_stats.record(span.len(), part.produced);
        append(&mut vtrees_off, part.vtrees_ends, vtrees_vals.len() as u64);
        append(&mut vtrees_vals, part.vtrees_vals, 0);
        append(&mut member_slots, part.member_slots, 0);
        let entries = (label_entries.len() / LABEL_ENTRY_WORDS) as u64;
        append(&mut label_entries_off, part.entry_ends, entries);
        let pool_base = label_pool.len() as u64;
        let mut part_entries = part.label_entries;
        for e in part_entries.chunks_exact_mut(LABEL_ENTRY_WORDS) {
            if e[3] != NULL {
                e[3] += pool_base;
            }
        }
        append(&mut label_entries, part_entries, 0);
        append(&mut label_pool, part.label_pool, 0);
        table_stats.merge(part.table_words);
        label_stats.merge(part.label_words);
    }
    out.section([vtrees_off]);
    out.section([vtrees_vals]);
    out.section([member_slots]);

    // The [TZ01] 4k−5 refinement: every level-0 centre stores the labels of
    // its own cluster's members. A member whose node label already refers
    // to that record (one of its pivots is the centre) shares its offset.
    let mut own_off = Vec::with_capacity(n + 1);
    let mut own_entries = Vec::new();
    own_off.push(0u64);
    for v in 0..n {
        if let Some(ci) = cluster_of(v).filter(|&ci| is_level0(ci)) {
            for (slot, m) in forest.cluster(order[ci]).members().enumerate() {
                let entries = label_entries_off[m] as usize..label_entries_off[m + 1] as usize;
                let seen = label_entries
                    [entries.start * LABEL_ENTRY_WORDS..entries.end * LABEL_ENTRY_WORDS]
                    .chunks_exact(LABEL_ENTRY_WORDS)
                    .find(|e| e[1] == v as u64)
                    .map(|e| e[3]);
                let off = seen.unwrap_or_else(|| {
                    let src = label_src[members_start[ci] + slot] as usize;
                    let off = label_pool.len() as u64;
                    label_pool.extend_from_slice(label_record(&label_records, src));
                    off
                });
                own_entries.extend_from_slice(&[m as u64, off]);
            }
        }
        own_off.push((own_entries.len() / OWN_ENTRY_WORDS) as u64);
    }
    drop((label_records, label_src, label_words, table_words));
    out.section([own_off]);
    out.section([own_entries]);
    out.section([label_entries_off]);
    out.section([label_entries]);
    out.section([label_pool]);

    let mut stats = BuildStats::default();
    stats.absorb(&tree_stats);
    stats.absorb(&sweep_stats);
    let bytes = out.finish([
        n as u64,
        family.k() as u64,
        num_clusters as u64,
        total_members as u64,
        table_stats.0 as u64,
        table_stats.1 as u64,
        label_stats.0 as u64,
        label_stats.1 as u64,
    ]);
    (bytes, stats)
}

/// Appends a part's column to `dst`, adding `base` to every entry but
/// [`NULL`] (a part's offsets are relative to the part). The first part is
/// moved in rather than copied, so a one-part build never holds a column
/// twice.
fn append(dst: &mut Vec<u64>, src: Vec<u64>, base: u64) {
    if dst.is_empty() && base == 0 {
        *dst = src;
    } else {
        dst.extend(
            src.into_iter()
                .map(|o| if o == NULL { o } else { o + base }),
        );
    }
}

/// The snapshot being written: a zeroed header, then the sections in
/// buffer order, each checksummed as it lands. A section's column is
/// consumed as it is copied, so the buffer and the columns it came from
/// never both hold the whole snapshot.
struct SectionWriter {
    out: Vec<u8>,
    offsets: Vec<u64>,
    sums: Vec<u64>,
}

impl SectionWriter {
    fn new() -> Self {
        SectionWriter {
            out: vec![0; HEADER_WORDS * 8],
            offsets: Vec::with_capacity(NUM_SECTIONS),
            sums: Vec::with_capacity(NUM_SECTIONS),
        }
    }

    /// Appends the next section, given as its consecutive runs of words.
    fn section<W: AsRef<[u64]>>(&mut self, runs: impl IntoIterator<Item = W>) {
        let start = self.out.len();
        for run in runs {
            let run = run.as_ref();
            let at = self.out.len();
            self.out.resize(at + run.len() * 8, 0);
            for (bytes, w) in self.out[at..].chunks_exact_mut(8).zip(run) {
                bytes.copy_from_slice(&w.to_le_bytes());
            }
        }
        self.offsets.push((start / 8) as u64);
        self.sums.push(fnv1a_bytes(&self.out[start..]));
    }

    /// Fills in the header — `[n, k, clusters, members, max table words,
    /// total table words, max label words, total label words]` from
    /// `counts`, the total size, the section table and checksums, and last
    /// the header checksum over every other header word — and returns the
    /// bytes.
    fn finish(mut self, counts: [u64; 8]) -> Vec<u8> {
        assert_eq!(self.offsets.len(), NUM_SECTIONS, "every section written");
        let total_words = (self.out.len() / 8) as u64;
        let mut header = vec![MAGIC, VERSION];
        header.extend_from_slice(&counts[..3]);
        header.push(total_words);
        header.extend_from_slice(&counts[3..]);
        header.extend_from_slice(&self.offsets);
        debug_assert_eq!(header.len(), H_SECTION_SUMS);
        header.extend_from_slice(&self.sums);
        header.resize(H_HEADER_SUM, 0); // reserved
        for (i, w) in header.iter().enumerate() {
            self.out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        let header_sum = fnv1a_bytes(&self.out[..H_HEADER_SUM * 8]);
        self.out[H_HEADER_SUM * 8..HEADER_WORDS * 8].copy_from_slice(&header_sum.to_le_bytes());
        self.out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::exact::exact_cluster_family;
    use crate::hierarchy::Hierarchy;
    use crate::params::SchemeParams;
    use crate::scheme::RoutingScheme;
    use crate::snapshot::format::Section;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    /// Each label record is written once: a centre's own label, referenced
    /// by its level-0 entry and by its own-cluster table, resolves to one
    /// offset, and LABEL_POOL holds exactly one record per distinct
    /// referenced (cluster, member slot), with nothing unreferenced.
    #[test]
    fn every_referenced_label_is_written_once() {
        for (k, seed) in [(2usize, 3u64), (3, 4)] {
            let g =
                erdos_renyi_connected(&GeneratorConfig::new(120, seed).with_weights(1, 40), 0.06);
            let family =
                exact_cluster_family(&g, &Hierarchy::sample(&SchemeParams::new(k, 120, seed)));
            let scheme = RoutingScheme::assemble(&family, seed, &BuildOptions::new(1)).0;
            let flat = scheme.flat();
            let pool_base = flat.manifest().sections[Section::LabelPool as usize].start_word;

            let mut referenced: HashSet<(NodeId, NodeId)> = HashSet::new();
            let mut offsets: HashSet<usize> = HashSet::new();
            let mut shared = 0usize;
            for v in 0..flat.n() {
                for e in flat.label_entries_of(v) {
                    if let Some(label) = e.tree_label {
                        referenced.insert((e.pivot, v));
                        offsets.insert(label.offset() - pool_base);
                        if let Some(own) = flat.own_label(e.pivot, v) {
                            assert_eq!(own.offset(), label.offset(), "{v} in {}", e.pivot);
                            shared += 1;
                        }
                    }
                }
                let Some(own) = flat.cluster_of_center(v).filter(|c| c.level == 0) else {
                    continue;
                };
                let members = own.members();
                for m in members.iter() {
                    let label = flat.own_label(v, m as NodeId).expect("own label stored");
                    referenced.insert((v, m as NodeId));
                    offsets.insert(label.offset() - pool_base);
                }
            }
            assert!(shared > 0, "some centre's own label is referenced twice");
            assert_eq!(
                offsets.len(),
                referenced.len(),
                "one record per reference target"
            );

            // Walking the pool record by record meets exactly the referenced
            // offsets and ends at the pool's end.
            let pool: Vec<u64> = scheme.bytes()[pool_base * 8..flat.manifest().total_words * 8]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let mut starts = HashSet::new();
            let mut at = 0;
            while at < pool.len() {
                starts.insert(at);
                at += label_record(&pool, at).len();
            }
            assert_eq!(at, pool.len());
            assert_eq!(starts, offsets, "the pool holds only referenced records");
        }
    }
}
