//! An independent reference for an assembled scheme, shared by the
//! property suites that check one (include it with `#[path]`).
//!
//! Nothing here goes through the snapshot writer or the forwarding kernel:
//! every cluster's Theorem-7 scheme is rebuilt from the dense
//! [`ClusterView::tree`](en_graph::forest::ClusterView::tree), the records
//! are encoded from the documented v3 layout by hand, and `Find-tree` is a
//! short Algorithm 1 over the family's pivots and clusters.

use std::collections::HashMap;

use en_graph::{NodeId, Path};
use en_routing::snapshot::FlatScheme;
use en_routing::ClusterFamily;
use en_tree_routing::{LocalLabel, TreeLabel, TreeRoutingConfig, TreeRoutingScheme, TreeTable};

const NULL: u64 = u64::MAX;

fn opt(v: Option<NodeId>) -> u64 {
    v.map_or(NULL, |x| x as u64)
}

fn push_local(out: &mut Vec<u64>, l: &LocalLabel) {
    out.extend([l.a, l.exceptions.len() as u64]);
    out.extend(l.exceptions.iter().flat_map(|&(x, c)| [x as u64, c as u64]));
}

/// A table record as the format documents it (vertex and root implicit).
fn table_record(t: &TreeTable) -> Vec<u64> {
    let gh = t.global_heavy.as_ref();
    let mut out = vec![
        t.subtree_root as u64,
        opt(t.parent),
        opt(t.heavy_child),
        t.a_local,
        t.b_local,
        t.a_global,
        t.b_global,
        opt(gh.map(|gh| gh.child_subtree)),
    ];
    if let Some(gh) = gh {
        out.push(gh.portal as u64);
        push_local(&mut out, &gh.portal_label);
    }
    out
}

/// A label record as the format documents it.
fn label_record(l: &TreeLabel) -> Vec<u64> {
    let mut out = vec![l.vertex as u64, l.subtree_root as u64, l.a_global];
    push_local(&mut out, &l.local);
    out.push(l.global_exceptions.len() as u64);
    for e in &l.global_exceptions {
        out.extend([
            e.parent_subtree as u64,
            e.child_subtree as u64,
            e.portal as u64,
        ]);
        push_local(&mut out, &e.portal_label);
    }
    out
}

/// The `len` words of `bytes` starting at word `off`.
fn words_at(bytes: &[u8], off: usize, len: usize) -> Vec<u64> {
    bytes[off * 8..(off + len) * 8]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// The dense-tree schemes of one family, keyed by centre.
pub struct Reference<'a> {
    family: &'a ClusterFamily,
    trees: HashMap<NodeId, (usize, TreeRoutingScheme)>,
}

impl<'a> Reference<'a> {
    /// Builds every cluster's scheme from its dense tree, seeded as
    /// `RoutingScheme::assemble` documents: `tree_seed ^ centre · 0x9E37_79B9`.
    pub fn new(family: &'a ClusterFamily, tree_seed: u64) -> Self {
        let trees = family
            .clusters()
            .map(|view| {
                let config = TreeRoutingConfig::new(
                    tree_seed ^ (view.center() as u64).wrapping_mul(0x9E37_79B9),
                );
                let scheme = TreeRoutingScheme::build(&view.tree(), &config);
                (view.center(), (view.level(), scheme))
            })
            .collect();
        Reference { family, trees }
    }

    fn tree(&self, center: NodeId) -> Option<&TreeRoutingScheme> {
        self.trees.get(&center).map(|(_, t)| t)
    }

    fn contains(&self, center: NodeId, v: NodeId) -> bool {
        self.tree(center).is_some_and(|t| t.table(v).is_some())
    }

    fn own_cluster(&self, center: NodeId) -> Option<&TreeRoutingScheme> {
        self.trees
            .get(&center)
            .filter(|(level, _)| *level == 0)
            .map(|(_, t)| t)
    }

    /// Algorithm 1 with the `4k−5` refinement, over the family itself.
    pub fn find_tree(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
        if self.own_cluster(u).is_some_and(|t| t.table(v).is_some()) {
            return Some(u);
        }
        self.family.pivots[v]
            .iter()
            .flatten()
            .map(|&(pivot, _)| pivot)
            .find(|&p| self.contains(p, v) && self.contains(p, u))
    }

    /// The route a packet from `u` to `v` takes: the tree [`Self::find_tree`]
    /// picks, its level, and that tree scheme's own route.
    pub fn route(&self, u: NodeId, v: NodeId) -> Option<(NodeId, usize, Path)> {
        let root = self.find_tree(u, v)?;
        let (level, tree) = &self.trees[&root];
        Some((
            root,
            *level,
            tree.route(u, v).expect("both ends are in the tree"),
        ))
    }

    /// Checks one pair's `Find-tree` decision — the chosen root and the
    /// vertex of the header label — and its route against the reference.
    pub fn check_pair(
        &self,
        u: NodeId,
        v: NodeId,
        found: Option<(NodeId, NodeId)>,
        routed: Option<(NodeId, usize, &Path)>,
    ) {
        let want = self.route(u, v);
        let want_found = want.as_ref().map(|(root, _, _)| (*root, v));
        assert_eq!(found, want_found, "{u}->{v}: Find-tree differs");
        let want_routed = want
            .as_ref()
            .map(|(root, level, path)| (*root, *level, path));
        assert_eq!(routed, want_routed, "{u}->{v}: route differs");
    }

    /// Checks every column and record of `bytes` against the dense schemes:
    /// clusters and members, each member's table record, each label entry
    /// against `family.pivots` and its label record, the own-cluster
    /// tables, the tree lists, and the header's Table-1 word stats.
    pub fn check_snapshot(&self, bytes: &[u8]) {
        let flat = FlatScheme::from_bytes(bytes).expect("snapshot validates");
        let family = self.family;
        let n = family.n();
        assert_eq!((flat.n(), flat.k()), (n, family.k()));
        assert_eq!(flat.num_clusters(), self.trees.len());
        let mut centers: Vec<NodeId> = self.trees.keys().copied().collect();
        centers.sort_unstable();
        for (id, &center) in centers.iter().enumerate() {
            let (level, tree) = &self.trees[&center];
            let cluster = flat.cluster(id);
            assert_eq!((cluster.center, cluster.level), (center, *level));
            let members: Vec<NodeId> = tree.members().collect();
            let flat_members: Vec<NodeId> = cluster.members().iter().map(|m| m as NodeId).collect();
            assert_eq!(flat_members, members, "centre {center}: members differ");
            for (slot, &v) in members.iter().enumerate() {
                let want = table_record(tree.table(v).unwrap());
                let at = cluster.table_at(slot).unwrap().offset();
                assert_eq!(
                    words_at(bytes, at, want.len()),
                    want,
                    "table of {v} in {center}"
                );
            }
        }
        let mut max_table = 0;
        let mut total_table = 0;
        let mut max_label = 0;
        let mut total_label = 0;
        for v in 0..n {
            let containing: Vec<NodeId> = centers
                .iter()
                .copied()
                .filter(|&c| self.contains(c, v))
                .collect();
            let trees: Vec<NodeId> = flat.trees_of(v).iter().map(|c| c as NodeId).collect();
            assert_eq!(trees, containing, "tree list of {v}");
            let mut table: usize = containing
                .iter()
                .map(|&c| self.tree(c).unwrap().table_words(v))
                .sum();
            // Label entries: one per level with a pivot, in level order.
            let want: Vec<(usize, NodeId, u64)> = family.pivots[v]
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|(z, d)| (i, z, d)))
                .collect();
            let entries: Vec<_> = flat.label_entries_of(v).collect();
            assert_eq!(entries.len(), want.len(), "label entries of {v}");
            let mut label = 1;
            for (e, &(level, pivot, dist)) in entries.iter().zip(&want) {
                assert_eq!(
                    (e.level, e.pivot, e.dist),
                    (level, pivot, dist),
                    "entry of {v}"
                );
                label += 3;
                match self.tree(pivot).and_then(|t| t.label(v)) {
                    None => assert!(e.tree_label.is_none(), "{v} is not in {pivot}'s tree"),
                    Some(l) => {
                        let want = label_record(l);
                        let at = e.tree_label.expect("member label present").offset();
                        assert_eq!(
                            words_at(bytes, at, want.len()),
                            want,
                            "label of {v} in {pivot}"
                        );
                        label += l.words();
                    }
                }
            }
            // The 4k−5 own-cluster table of a level-0 centre.
            match self.own_cluster(v) {
                None => assert_eq!(flat.own_label_count(v), 0, "{v} stores no own labels"),
                Some(tree) => {
                    assert_eq!(flat.own_label_count(v), tree.members().count());
                    for m in tree.members() {
                        let l = tree.label(m).unwrap();
                        let want = label_record(l);
                        let at = flat.own_label(v, m).expect("own label present").offset();
                        assert_eq!(words_at(bytes, at, want.len()), want, "own label of {m}");
                        table += 1 + l.words();
                    }
                }
            }
            max_table = max_table.max(table);
            total_table += table;
            max_label = max_label.max(label);
            total_label += label;
        }
        assert_eq!(
            (flat.max_table_words(), flat.total_table_words()),
            (max_table, total_table)
        );
        assert_eq!(
            (flat.max_label_words(), flat.total_label_words()),
            (max_label, total_label)
        );
    }
}
