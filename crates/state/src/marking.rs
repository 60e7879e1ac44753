//! Node and edge markings of process instances.
//!
//! ADEPT2 instances are stored *redundant-free*: an unbiased instance is
//! just a reference to its schema plus instance-specific data — essentially
//! this marking (paper Fig. 2). The marking therefore stores only
//! non-default states: nodes absent from the map are `NotActivated`, edges
//! absent from the map are `NotSignaled`.

use adept_model::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Execution state of a node ("NS" in the paper's compliance conditions).
///
/// The paper's `Disabled` state is called [`NodeState::Skipped`] here: a
/// node on a not-taken XOR branch (dead path) that can no longer execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum NodeState {
    /// Not yet reached (default).
    #[default]
    NotActivated,
    /// All preconditions fulfilled; the work item is offered.
    Activated,
    /// Execution has started.
    Running,
    /// Execution finished.
    Completed,
    /// On a dead path; can no longer execute (paper: `Disabled`).
    Skipped,
}

impl NodeState {
    /// Whether the node has been entered (running, completed or skipped).
    pub fn entered(self) -> bool {
        matches!(
            self,
            NodeState::Running | NodeState::Completed | NodeState::Skipped
        )
    }

    /// Whether the node still lies ahead (may yet be started).
    pub fn pending(self) -> bool {
        matches!(self, NodeState::NotActivated | NodeState::Activated)
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeState::NotActivated => "NotActivated",
            NodeState::Activated => "Activated",
            NodeState::Running => "Running",
            NodeState::Completed => "Completed",
            NodeState::Skipped => "Skipped",
        })
    }
}

/// Signal state of an edge ("ES" in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum EdgeState {
    /// Not yet signaled (default).
    #[default]
    NotSignaled,
    /// The source completed; the edge fires (paper: `TRUE_Signaled`).
    TrueSignaled,
    /// The source was skipped; dead-path elimination (paper: `FALSE_Signaled`).
    FalseSignaled,
}

impl EdgeState {
    /// Whether the edge has been signaled either way.
    pub fn signaled(self) -> bool {
        self != EdgeState::NotSignaled
    }
}

impl fmt::Display for EdgeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeState::NotSignaled => "NotSignaled",
            EdgeState::TrueSignaled => "TrueSignaled",
            EdgeState::FalseSignaled => "FalseSignaled",
        })
    }
}

/// The complete runtime marking of one process instance.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Marking {
    nodes: BTreeMap<NodeId, NodeState>,
    edges: BTreeMap<EdgeId, EdgeState>,
    /// Completed iteration count per `LoopEnd` node for the current loop
    /// entry (cleared when an enclosing loop resets the body).
    loop_counts: BTreeMap<NodeId, u32>,
}

impl Marking {
    /// A fresh marking: every node `NotActivated`, every edge `NotSignaled`.
    pub fn new() -> Self {
        Self::default()
    }

    /// State of a node (default `NotActivated`).
    pub fn node(&self, n: NodeId) -> NodeState {
        self.nodes.get(&n).copied().unwrap_or_default()
    }

    /// State of an edge (default `NotSignaled`).
    pub fn edge(&self, e: EdgeId) -> EdgeState {
        self.edges.get(&e).copied().unwrap_or_default()
    }

    /// Sets a node state (removing default states keeps the map minimal).
    pub fn set_node(&mut self, n: NodeId, s: NodeState) {
        if s == NodeState::NotActivated {
            self.nodes.remove(&n);
        } else {
            self.nodes.insert(n, s);
        }
    }

    /// Sets an edge state (removing default states keeps the map minimal).
    pub fn set_edge(&mut self, e: EdgeId, s: EdgeState) {
        if s == EdgeState::NotSignaled {
            self.edges.remove(&e);
        } else {
            self.edges.insert(e, s);
        }
    }

    /// Completed iterations of the loop closed by `loop_end`.
    pub fn loop_count(&self, loop_end: NodeId) -> u32 {
        self.loop_counts.get(&loop_end).copied().unwrap_or(0)
    }

    /// Increments the loop counter and returns the new value.
    pub fn bump_loop(&mut self, loop_end: NodeId) -> u32 {
        let c = self.loop_counts.entry(loop_end).or_insert(0);
        *c += 1;
        *c
    }

    /// Clears the loop counter (when an enclosing loop resets the body).
    pub fn clear_loop(&mut self, loop_end: NodeId) {
        self.loop_counts.remove(&loop_end);
    }

    /// Sets a loop counter to an absolute value (`0` clears the entry, so
    /// the stored map stays minimal). Used when a marking is re-assembled
    /// from a compact per-slot representation.
    pub fn set_loop_count(&mut self, loop_end: NodeId, count: u32) {
        if count == 0 {
            self.loop_counts.remove(&loop_end);
        } else {
            self.loop_counts.insert(loop_end, count);
        }
    }

    /// All non-zero loop counters, in id order.
    pub fn loop_counters(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.loop_counts.iter().map(|(n, c)| (*n, *c))
    }

    /// All explicitly marked nodes (non-`NotActivated`), in id order.
    pub fn marked_nodes(&self) -> impl Iterator<Item = (NodeId, NodeState)> + '_ {
        self.nodes.iter().map(|(n, s)| (*n, *s))
    }

    /// All explicitly signaled edges, in id order.
    pub fn signaled_edges(&self) -> impl Iterator<Item = (EdgeId, EdgeState)> + '_ {
        self.edges.iter().map(|(e, s)| (*e, *s))
    }

    /// Nodes currently in the given state.
    pub fn nodes_in(&self, s: NodeState) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(move |(_, st)| **st == s)
            .map(|(n, _)| *n)
    }

    /// Removes all markings of the given node (used by state adaptation
    /// when a node is deleted).
    pub fn forget_node(&mut self, n: NodeId) {
        self.nodes.remove(&n);
        self.loop_counts.remove(&n);
    }

    /// Removes the marking of the given edge.
    pub fn forget_edge(&mut self, e: EdgeId) {
        self.edges.remove(&e);
    }

    /// Adopts the loop iteration counters of another marking (used when a
    /// marking is re-derived by reduced-history replay, which flattens
    /// earlier iterations and would otherwise reset `Times(n)` progress).
    pub fn copy_loop_counts_from(&mut self, other: &Marking) {
        self.loop_counts = other.loop_counts.clone();
    }

    /// Every node, edge and loop counter whose value differs between
    /// `self` and `post`, as its absolute value in `post` (defaults
    /// included, so an entry that dropped out of `post` is reported at
    /// its default). One merge pass over each map.
    pub fn diff(&self, post: &Marking) -> MarkingDiff {
        MarkingDiff {
            nodes: diff_map(&self.nodes, &post.nodes),
            edges: diff_map(&self.edges, &post.edges),
            loops: diff_map(&self.loop_counts, &post.loop_counts),
        }
    }

    /// Sets every entry of `diff` to its recorded value — the inverse of
    /// [`Marking::diff`]: `pre.apply(pre.diff(&post))` leaves `pre == post`.
    pub fn apply(&mut self, diff: MarkingDiff) {
        for (n, s) in diff.nodes {
            self.set_node(n, s);
        }
        for (e, s) in diff.edges {
            self.set_edge(e, s);
        }
        for (n, c) in diff.loops {
            self.set_loop_count(n, c);
        }
    }

    /// Compares only node and edge states (ignoring loop counters), which
    /// is the equivalence that matters for compliance/adaptation oracles:
    /// reduced-history replay intentionally flattens earlier iterations.
    pub fn same_states(&self, other: &Marking) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }

    /// Approximate deep size in bytes (for the Fig. 2 storage experiments).
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.nodes.len() * (size_of::<NodeId>() + size_of::<NodeState>() + 32)
            + self.edges.len() * (size_of::<EdgeId>() + size_of::<EdgeState>() + 32)
            + self.loop_counts.len() * (size_of::<NodeId>() + size_of::<u32>() + 32)
    }
}

/// The marking entries one mutation changed, each as its absolute
/// post-value ([`Marking::diff`]); the marking part of a
/// [`crate::StateDelta`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarkingDiff {
    /// Changed node states, in id order.
    pub nodes: Vec<(NodeId, NodeState)>,
    /// Changed edge states, in id order.
    pub edges: Vec<(EdgeId, EdgeState)>,
    /// Changed loop counters, in id order.
    pub loops: Vec<(NodeId, u32)>,
}

/// The entries of `post` that differ from `pre`, plus `pre`'s entries
/// absent from `post` at the default value (the maps never store
/// defaults, so absence *is* the default).
fn diff_map<K: Ord + Copy, V: Copy + PartialEq + Default>(
    pre: &BTreeMap<K, V>,
    post: &BTreeMap<K, V>,
) -> Vec<(K, V)> {
    let mut out = Vec::new();
    let (mut a, mut b) = (pre.iter().peekable(), post.iter().peekable());
    loop {
        match (a.peek(), b.peek()) {
            (None, None) => return out,
            (Some((ka, va)), Some((kb, vb))) if ka == kb => {
                if va != vb {
                    out.push((**kb, **vb));
                }
                a.next();
                b.next();
            }
            (Some((ka, _)), Some((kb, _))) if ka < kb => {
                out.push((**ka, V::default()));
                a.next();
            }
            (Some((ka, _)), None) => {
                out.push((**ka, V::default()));
                a.next();
            }
            (_, Some((kb, vb))) => {
                out.push((**kb, **vb));
                b.next();
            }
        }
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nodes{{")?;
        for (i, (n, s)) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={s}")?;
        }
        write!(f, "}} edges{{")?;
        for (i, (e, s)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}={s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_not_stored() {
        let mut m = Marking::new();
        assert_eq!(m.node(NodeId(5)), NodeState::NotActivated);
        m.set_node(NodeId(5), NodeState::Running);
        assert_eq!(m.node(NodeId(5)), NodeState::Running);
        m.set_node(NodeId(5), NodeState::NotActivated);
        assert_eq!(m.marked_nodes().count(), 0);
        m.set_edge(EdgeId(1), EdgeState::TrueSignaled);
        m.set_edge(EdgeId(1), EdgeState::NotSignaled);
        assert_eq!(m.signaled_edges().count(), 0);
    }

    #[test]
    fn loop_counters() {
        let mut m = Marking::new();
        let le = NodeId(9);
        assert_eq!(m.loop_count(le), 0);
        assert_eq!(m.bump_loop(le), 1);
        assert_eq!(m.bump_loop(le), 2);
        m.clear_loop(le);
        assert_eq!(m.loop_count(le), 0);
    }

    #[test]
    fn same_states_ignores_loop_counts() {
        let mut a = Marking::new();
        let mut b = Marking::new();
        a.set_node(NodeId(1), NodeState::Completed);
        b.set_node(NodeId(1), NodeState::Completed);
        a.bump_loop(NodeId(2));
        assert!(a.same_states(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn diff_reports_absolute_post_values_and_applies_back() {
        let mut pre = Marking::new();
        pre.set_node(NodeId(1), NodeState::Running);
        pre.set_node(NodeId(2), NodeState::Activated);
        pre.set_edge(EdgeId(1), EdgeState::TrueSignaled);
        pre.bump_loop(NodeId(9));
        let mut post = pre.clone();
        post.set_node(NodeId(1), NodeState::Completed);
        post.set_node(NodeId(2), NodeState::NotActivated);
        post.set_node(NodeId(3), NodeState::Activated);
        post.set_edge(EdgeId(2), EdgeState::FalseSignaled);
        post.clear_loop(NodeId(9));
        let diff = pre.diff(&post);
        assert_eq!(
            diff.nodes,
            vec![
                (NodeId(1), NodeState::Completed),
                (NodeId(2), NodeState::NotActivated),
                (NodeId(3), NodeState::Activated),
            ]
        );
        assert_eq!(diff.edges, vec![(EdgeId(2), EdgeState::FalseSignaled)]);
        assert_eq!(diff.loops, vec![(NodeId(9), 0)]);
        let mut replayed = pre.clone();
        replayed.apply(diff);
        assert_eq!(replayed, post);
        assert_eq!(post.diff(&post), MarkingDiff::default());
    }

    #[test]
    fn state_predicates() {
        assert!(NodeState::Running.entered());
        assert!(NodeState::Skipped.entered());
        assert!(!NodeState::Activated.entered());
        assert!(NodeState::Activated.pending());
        assert!(!NodeState::Completed.pending());
        assert!(EdgeState::FalseSignaled.signaled());
        assert!(!EdgeState::NotSignaled.signaled());
    }
}
