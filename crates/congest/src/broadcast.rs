//! Global broadcast and convergecast over a BFS tree (Lemma 1).
//!
//! Lemma 1 of the paper: if every vertex `v` holds `m_v` messages of `O(1)`
//! words each, `M = Σ_v m_v`, then all vertices can receive all messages
//! within `O(M + D)` rounds. The mechanism is a pipelined convergecast of all
//! messages to the root of a BFS tree followed by a pipelined broadcast down
//! the tree.
//!
//! This module provides both the **executable** version (a real protocol run
//! through the simulator, used to validate the bound) and the **closed-form
//! round charges** used by the higher-level constructions when they invoke
//! Lemma 1 as a black box.

use en_graph::{NodeId, WeightedGraph};

use crate::bfs_tree::build_bfs_tree;
use crate::network::{SimulationConfig, Simulator};
use crate::protocol::{Incoming, NodeContext, Outgoing, Protocol};
use crate::stats::RoundStats;

/// Closed-form round charge for broadcasting `num_messages` `O(1)`-word
/// messages to every vertex over a BFS tree of depth `depth` (Lemma 1):
/// a pipelined downcast delivers one message per tree edge per round, so the
/// last message arrives after `num_messages + depth` rounds.
pub fn broadcast_rounds(num_messages: usize, depth: usize) -> usize {
    if num_messages == 0 {
        0
    } else {
        num_messages + depth
    }
}

/// Closed-form round charge for collecting `num_messages` messages (spread
/// arbitrarily over the vertices) at the root of a BFS tree of depth `depth`:
/// the root's busiest incident tree edge forwards at most `num_messages`
/// messages, one per round, after a `depth`-round pipeline fill.
pub fn convergecast_rounds(num_messages: usize, depth: usize) -> usize {
    if num_messages == 0 {
        0
    } else {
        num_messages + depth
    }
}

/// Combined charge for Lemma 1 (convergecast to the root, then broadcast to
/// everyone): `O(M + D)` with the explicit constant 2.
pub fn lemma1_rounds(num_messages: usize, depth: usize) -> usize {
    convergecast_rounds(num_messages, depth) + broadcast_rounds(num_messages, depth)
}

/// A message routed down the BFS tree: `(sequence number, payload)`.
type TreeMsg = (u64, u64);

/// Protocol that pipelines a list of payload words from the root down a fixed
/// tree to every vertex.
#[derive(Debug, Clone)]
struct DowncastProtocol {
    /// Port towards the parent (None at the root).
    parent_port: Option<usize>,
    /// Ports towards children in the tree.
    child_ports: Vec<usize>,
    /// Messages this node originates (only the root has any).
    to_send: Vec<u64>,
    /// Everything received, in arrival order.
    received: Vec<u64>,
}

impl Protocol for DowncastProtocol {
    type Msg = TreeMsg;

    fn init(&mut self, _ctx: &NodeContext, out: &mut Vec<Outgoing<TreeMsg>>) {
        for (i, &payload) in self.to_send.iter().enumerate() {
            for &cp in &self.child_ports {
                out.push(Outgoing::new(cp, (i as u64, payload)));
            }
        }
    }

    fn on_round(
        &mut self,
        _ctx: &NodeContext,
        _round: usize,
        incoming: &[Incoming<TreeMsg>],
        out: &mut Vec<Outgoing<TreeMsg>>,
    ) {
        for inc in incoming {
            if Some(inc.port) == self.parent_port {
                self.received.push(inc.msg.1);
                for &cp in &self.child_ports {
                    out.push(Outgoing::new(cp, inc.msg));
                }
            }
        }
    }
}

/// The outcome of an executable pipelined broadcast.
#[derive(Debug, Clone)]
pub struct BroadcastResult {
    /// For every vertex, the payload words it received (the root's own
    /// messages are included for uniformity).
    pub received: Vec<Vec<u64>>,
    /// Statistics of the broadcast phase only (excludes BFS-tree construction).
    pub stats: RoundStats,
    /// Depth of the BFS tree used.
    pub tree_depth: usize,
}

/// Broadcasts `messages` (held initially by `root`) to every vertex by real
/// pipelined message passing down a freshly built BFS tree.
///
/// # Panics
///
/// Panics if `root` is out of range or the graph is disconnected.
pub fn pipelined_broadcast(g: &WeightedGraph, root: NodeId, messages: &[u64]) -> BroadcastResult {
    let bfs = build_bfs_tree(g, root);
    assert!(
        bfs.tree.len() == g.num_nodes(),
        "pipelined broadcast requires a connected graph"
    );
    let children = bfs.tree.children();
    let mut sim = Simulator::new(g, SimulationConfig::default(), |v| {
        let parent_port = bfs
            .tree
            .parent(v)
            .map(|(p, _)| g.port_towards(v, p).expect("tree edge must exist in graph"));
        let child_ports = children[v]
            .iter()
            .map(|&c| g.port_towards(v, c).expect("tree edge must exist in graph"))
            .collect();
        DowncastProtocol {
            parent_port,
            child_ports,
            to_send: if v == root { messages.to_vec() } else { vec![] },
            received: if v == root { messages.to_vec() } else { vec![] },
        }
    });
    let stats = sim.run();
    let received = sim
        .into_protocols()
        .into_iter()
        .map(|p| p.received)
        .collect();
    BroadcastResult {
        received,
        stats,
        tree_depth: bfs.depth,
    }
}

/// Protocol that pipelines every vertex's local payload words up a fixed tree
/// to the root (convergecast).
#[derive(Debug, Clone)]
struct ConvergecastProtocol {
    parent_port: Option<usize>,
    to_send: Vec<u64>,
    received: Vec<u64>,
}

impl Protocol for ConvergecastProtocol {
    type Msg = u64;

    fn init(&mut self, _ctx: &NodeContext, out: &mut Vec<Outgoing<u64>>) {
        if let Some(pp) = self.parent_port {
            out.extend(self.to_send.iter().map(|&m| Outgoing::new(pp, m)));
        }
    }

    fn on_round(
        &mut self,
        _ctx: &NodeContext,
        _round: usize,
        incoming: &[Incoming<u64>],
        out: &mut Vec<Outgoing<u64>>,
    ) {
        for inc in incoming {
            self.received.push(inc.msg);
            if let Some(pp) = self.parent_port {
                out.push(Outgoing::new(pp, inc.msg));
            }
        }
    }
}

/// The outcome of an executable pipelined convergecast.
#[derive(Debug, Clone)]
pub struct ConvergecastResult {
    /// All payload words collected at the root (the root's own included).
    pub at_root: Vec<u64>,
    /// Statistics of the convergecast phase only.
    pub stats: RoundStats,
    /// Depth of the BFS tree used.
    pub tree_depth: usize,
}

/// Collects `per_node_messages[v]` from every vertex `v` at `root` by real
/// pipelined message passing up a freshly built BFS tree.
///
/// # Panics
///
/// Panics if `root` is out of range, the graph is disconnected, or
/// `per_node_messages.len() != n`.
pub fn pipelined_convergecast(
    g: &WeightedGraph,
    root: NodeId,
    per_node_messages: &[Vec<u64>],
) -> ConvergecastResult {
    assert_eq!(
        per_node_messages.len(),
        g.num_nodes(),
        "one message list per vertex required"
    );
    let bfs = build_bfs_tree(g, root);
    assert!(
        bfs.tree.len() == g.num_nodes(),
        "pipelined convergecast requires a connected graph"
    );
    let mut sim = Simulator::new(g, SimulationConfig::default(), |v| {
        let parent_port = bfs
            .tree
            .parent(v)
            .map(|(p, _)| g.port_towards(v, p).expect("tree edge must exist in graph"));
        ConvergecastProtocol {
            parent_port,
            to_send: per_node_messages[v].clone(),
            received: if v == root {
                per_node_messages[v].clone()
            } else {
                vec![]
            },
        }
    });
    let stats = sim.run();
    let at_root = sim.into_protocols().swap_remove(root).received;
    ConvergecastResult {
        at_root,
        stats,
        tree_depth: bfs.depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use en_graph::generators::{erdos_renyi_connected, path, star, GeneratorConfig};

    #[test]
    fn closed_form_charges() {
        assert_eq!(broadcast_rounds(0, 10), 0);
        assert_eq!(broadcast_rounds(5, 10), 15);
        assert_eq!(convergecast_rounds(7, 3), 10);
        assert_eq!(lemma1_rounds(5, 10), 30);
    }

    #[test]
    fn broadcast_delivers_everything_to_everyone() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(30, 7), 0.1);
        let msgs: Vec<u64> = (100..120).collect();
        let res = pipelined_broadcast(&g, 4, &msgs);
        for v in g.nodes() {
            let mut got = res.received[v].clone();
            got.sort_unstable();
            assert_eq!(got, msgs, "vertex {v} missing messages");
        }
    }

    #[test]
    fn broadcast_rounds_match_lemma1_bound_on_a_path() {
        let g = path(&GeneratorConfig::new(20, 1));
        let msgs: Vec<u64> = (0..15).collect();
        let res = pipelined_broadcast(&g, 0, &msgs);
        // Pipelining: last of 15 messages reaches depth 19 after ~ 15 + 19 rounds.
        let bound = broadcast_rounds(msgs.len(), res.tree_depth);
        assert!(
            res.stats.rounds <= bound + 2,
            "{} > {}",
            res.stats.rounds,
            bound + 2
        );
        assert!(res.stats.rounds >= res.tree_depth);
    }

    #[test]
    fn convergecast_collects_all_messages_at_root() {
        let g = star(&GeneratorConfig::new(12, 3));
        let per_node: Vec<Vec<u64>> = (0..12)
            .map(|v| vec![v as u64 * 10, v as u64 * 10 + 1])
            .collect();
        let res = pipelined_convergecast(&g, 0, &per_node);
        let mut got = res.at_root.clone();
        got.sort_unstable();
        let mut want: Vec<u64> = per_node.into_iter().flatten().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn convergecast_rounds_bounded_by_lemma1_on_random_graph() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(40, 11), 0.08);
        let per_node: Vec<Vec<u64>> = (0..40).map(|v| vec![v as u64]).collect();
        let total: usize = per_node.iter().map(Vec::len).sum();
        let res = pipelined_convergecast(&g, 0, &per_node);
        assert!(res.stats.rounds <= convergecast_rounds(total, res.tree_depth) + 2);
    }

    #[test]
    fn empty_broadcast_is_free() {
        let g = path(&GeneratorConfig::new(5, 1));
        let res = pipelined_broadcast(&g, 0, &[]);
        assert!(res.received.iter().all(Vec::is_empty));
    }
}
