//! The forwarding kernel: one `Find-tree` and one hop loop over the
//! validated snapshot.
//!
//! The paper's forwarding decision is a pure function of `from`'s table and
//! `to`'s label. Both live in the snapshot columns of a [`FlatScheme`]: the
//! `4k−5` own-cluster entries and the tree list of `from`, and the
//! level-ordered label entries of `to`. [`find_tree_via`] runs Algorithm 1
//! over them, and [`forward_via`] then steps hop by hop with
//! [`next_hop_view`], reading one table record per hop through the v3 rank
//! index. Tree labels are records of the snapshot's label pool, each written
//! once and shared by offset between a member's own label entry and its
//! level-0 centre's own-cluster table, so the header label a packet carries
//! is a borrowed view, never a copy.
//!
//! [`RoutingScheme`](crate::scheme::RoutingScheme) and `en_wire`'s query
//! engine both route through these two functions.

use en_graph::{NodeId, Path};
use en_tree_routing::{next_hop_view, scheme::TreeRoutingError};

use crate::error::RoutingError;
use crate::snapshot::{FlatScheme, FlatTreeLabel};

fn check_node(n: usize, v: NodeId) -> Result<(), RoutingError> {
    if v < n {
        Ok(())
    } else {
        Err(RoutingError::NodeOutOfRange { node: v, n })
    }
}

/// Algorithm 1 (`Find-tree`) plus the \[TZ01\] `4k−5` refinement: the
/// centre of the tree a packet from `from` to `to` will use, and the
/// destination's tree label there.
///
/// # Errors
///
/// Out-of-range vertices and the (low-probability) no-common-tree case.
pub fn find_tree_via<'a>(
    flat: &FlatScheme<'a>,
    from: NodeId,
    to: NodeId,
) -> Result<(NodeId, FlatTreeLabel<'a>), RoutingError> {
    check_node(flat.n(), from)?;
    check_node(flat.n(), to)?;
    // The 4k−5 refinement: `from` is a level-0 centre storing `to`'s label
    // in its own-cluster table.
    if let Some(label) = flat.own_label(from, to) {
        return Ok((from, label));
    }
    // Level scan: entries are stored in ascending level order.
    let trees = flat.trees_of(from);
    for entry in flat.label_entries_of(to) {
        let Some(tree_label) = entry.tree_label else {
            continue; // `to` itself is not in this pivot's tree.
        };
        if trees.binary_search(entry.pivot as u64).is_ok() {
            return Ok((entry.pivot, tree_label));
        }
    }
    Err(RoutingError::NoCommonTree { from, to })
}

/// THE forwarding loop: [`find_tree_via`], then hop-by-hop
/// [`next_hop_view`] steps through the chosen tree until arrival, bounded
/// by `n + 1` hops. Returns the tree root, its level, and the traversed
/// path.
///
/// # Errors
///
/// Everything [`find_tree_via`] reports, plus a vertex falling out of the
/// tree mid-route and a hop budget overrun (both impossible on a validated
/// snapshot).
pub fn forward_via(
    flat: &FlatScheme<'_>,
    from: NodeId,
    to: NodeId,
) -> Result<(NodeId, usize, Path), RoutingError> {
    let (root, header_label) = find_tree_via(flat, from, to)?;
    let tree = flat
        .cluster_of_center(root)
        .ok_or_else(|| RoutingError::TreeRouting(format!("no cluster for centre {root}")))?;
    // Tree routes are short (≤ 2·depth of a cluster tree); reserve enough
    // that typical routes never reallocate mid-loop.
    let mut path = Path::trivial_with_capacity(from, 16);
    let mut current = from;
    for _ in 0..=flat.n() {
        let table = tree
            .table_of(current)
            .ok_or(TreeRoutingError::NotInTree { vertex: current })?;
        match next_hop_view(table, header_label)? {
            None => return Ok((root, tree.level, path)),
            Some(next) => {
                path.push(next);
                current = next;
            }
        }
    }
    Err(RoutingError::TreeRouting(format!(
        "forwarding from {from} to {to} through tree {root} did not terminate"
    )))
}
