//! Per-command state deltas: what one command changed in an instance's
//! runtime state, small enough to journal per command.
//!
//! A command appends to the instance's history and write log and moves a
//! few marking entries; everything else in the state is untouched. A
//! [`StateDelta`] records exactly that: the appended events, the appended
//! writes, and every changed marking entry as its absolute post-value.
//! Its size is that of the command, not of the instance's age.
//!
//! One command is not append-only: failing an activity withdraws its
//! `Started` event, which can sit anywhere in the history
//! ([`ExecutionHistory::last_started`](crate::ExecutionHistory::last_started)).
//! A delta therefore means "keep the first `history_cut` events, then
//! append `events`". Because a cut can shorten the history, its length
//! alone cannot tell whether a delta was already applied, so each delta
//! also carries the prior lengths of history and write log. Applying a
//! delta to a state whose lengths differ is a [`DeltaMismatch`], never a
//! silent divergence.
//!
//! [`StateMark`] is the command path's side of it: the pre-command
//! marking and lengths. The mark is taken before a command group runs,
//! turns into the group's delta afterwards, and can roll the state back
//! should the delta fail to journal. It never copies the history or the
//! write log, which grow with the instance's age.

use crate::datactx::WriteRecord;
use crate::execution::InstanceState;
use crate::history::Event;
use crate::marking::{Marking, MarkingDiff};
use adept_model::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What one command (or command group) changed in an instance's state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDelta {
    /// History length before the command (replay precondition).
    pub history_len: usize,
    /// Events `[0, history_cut)` are kept; the rest are replaced by
    /// `events`. Equal to `history_len` unless the command withdrew an
    /// earlier event.
    pub history_cut: usize,
    /// The events following the cut point.
    pub events: Vec<Event>,
    /// Write-log length before the command (replay precondition). The
    /// write log is append-only, so this is also its cut point.
    pub data_len: usize,
    /// The writes appended after it.
    pub writes: Vec<WriteRecord>,
    /// Every changed node, edge and loop counter, as its post-value.
    pub marking: MarkingDiff,
}

/// A delta's preconditions did not hold on the state it was applied to:
/// the state is not the one the delta was taken against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaMismatch {
    /// `(expected, found)` history length.
    pub history: (usize, usize),
    /// `(expected, found)` write-log length.
    pub data: (usize, usize),
}

impl fmt::Display for DeltaMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delta expects history length {} and write-log length {}, state has {} and {}",
            self.history.0, self.data.0, self.history.1, self.data.1
        )
    }
}

impl std::error::Error for DeltaMismatch {}

impl StateDelta {
    /// The delta from `pre` to `post`, cutting the history at their
    /// longest common prefix. `post`'s write log must extend `pre`'s.
    pub fn since(pre: &InstanceState, post: &InstanceState) -> Self {
        let cut = pre
            .history
            .events
            .iter()
            .zip(&post.history.events)
            .take_while(|(a, b)| a == b)
            .count();
        Self::build(
            &pre.marking,
            pre.history.len(),
            cut,
            pre.data.log().len(),
            post,
        )
    }

    fn build(
        marking: &Marking,
        history_len: usize,
        history_cut: usize,
        data_len: usize,
        post: &InstanceState,
    ) -> Self {
        debug_assert!(post.data.log().len() >= data_len, "write log shrank");
        StateDelta {
            history_len,
            history_cut,
            events: post.history.events[history_cut..].to_vec(),
            data_len,
            writes: post.data.log()[data_len..].to_vec(),
            marking: marking.diff(&post.marking),
        }
    }

    /// Applies the delta to the state it was taken against. Checks the
    /// prior history and write-log lengths first; on a mismatch the state
    /// is left untouched.
    pub fn apply(self, st: &mut InstanceState) -> Result<(), DeltaMismatch> {
        let found = (st.history.len(), st.data.log().len());
        if found != (self.history_len, self.data_len) || self.history_cut > self.history_len {
            return Err(DeltaMismatch {
                history: (self.history_len, found.0),
                data: (self.data_len, found.1),
            });
        }
        st.history.events.truncate(self.history_cut);
        st.history.events.extend(self.events);
        for w in self.writes {
            st.data.push_record(w);
        }
        st.marking.apply(self.marking);
        Ok(())
    }
}

/// The pre-command view a [`StateDelta`] is computed against: the
/// marking plus the history and write-log lengths. Commands only append
/// to the history, except failing an activity, which the caller
/// announces with [`StateMark::before_fail`]. Events below `floor` are
/// therefore untouched; `tail` holds the prior events from `floor` on,
/// kept only once a failure exposes them.
#[derive(Debug, Clone)]
pub struct StateMark {
    marking: Marking,
    history_len: usize,
    data_len: usize,
    floor: usize,
    tail: Vec<Event>,
}

impl StateMark {
    /// Marks `st` before a command group runs on it.
    pub fn of(st: &InstanceState) -> Self {
        StateMark {
            marking: st.marking.clone(),
            history_len: st.history.len(),
            data_len: st.data.log().len(),
            floor: st.history.len(),
            tail: Vec::new(),
        }
    }

    /// Prepares the mark for failing `node` on `st`: that withdraws the
    /// node's last `Started` event, wherever it sits. If it sits below
    /// the floor, the floor drops to it and the prior events between are
    /// kept. Events below the floor are unchanged since the mark, so
    /// `st` still holds them as they were.
    pub fn before_fail(&mut self, st: &InstanceState, node: NodeId) {
        let Some(at) = st.history.last_started(node) else {
            return;
        };
        if at < self.floor {
            let mut tail = st.history.events[at..self.floor].to_vec();
            tail.append(&mut self.tail);
            self.tail = tail;
            self.floor = at;
        }
    }

    /// The delta from the marked state to `post`.
    pub fn delta(&self, post: &InstanceState) -> StateDelta {
        StateDelta::build(
            &self.marking,
            self.history_len,
            self.floor,
            self.data_len,
            post,
        )
    }

    /// Rolls `st` back to the marked state.
    pub fn restore(self, st: &mut InstanceState) {
        st.marking = self.marking;
        st.history.events.truncate(self.floor);
        st.history.events.extend(self.tail);
        st.data.truncate_log(self.data_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DefaultDriver, Execution};
    use adept_model::{SchemaBuilder, ValueType};

    /// Two parallel activities writing data, so a fail can withdraw a
    /// `Started` event that is no longer the last one.
    fn parallel() -> (adept_model::ProcessSchema, NodeId, NodeId) {
        let mut b = SchemaBuilder::new("par");
        let d = b.data("x", ValueType::Int);
        b.and_split();
        b.branch();
        let a = b.activity("a");
        b.write(a, d);
        b.branch();
        let c = b.activity("c");
        b.and_join();
        (b.build().unwrap(), a, c)
    }

    #[test]
    fn fail_of_an_interior_start_replays_and_rolls_back() {
        let (s, a, c) = parallel();
        let ex = Execution::new(&s).unwrap();
        let mut st = ex.init().unwrap();
        ex.start_activity(&mut st, a).unwrap();
        let pre = st.clone();
        let mut mark = StateMark::of(&st);
        ex.start_activity(&mut st, c).unwrap();
        mark.before_fail(&st, a);
        ex.fail_activity(&mut st, a).unwrap();
        let delta = mark.delta(&st);
        assert!(delta.history_cut < delta.history_len, "interior cut");
        let mut replayed = pre.clone();
        delta.clone().apply(&mut replayed).unwrap();
        assert_eq!(replayed, st);
        // This group left the history as long as it found it, so the
        // guard alone could not refuse a second application here — replay
        // relies on the store's shard stamps for that. On a state of any
        // other length it refuses, and changes nothing.
        assert_eq!(delta.history_len, st.history.len());
        let mut fresh = ex.init().unwrap();
        let before = fresh.clone();
        assert!(delta.apply(&mut fresh).is_err());
        assert_eq!(fresh, before, "a refused delta changes nothing");
        mark.restore(&mut st);
        assert_eq!(st, pre);
    }

    #[test]
    fn driven_run_delta_carries_only_the_new_suffix() {
        let (s, _, _) = parallel();
        let ex = Execution::new(&s).unwrap();
        let pre = ex.init().unwrap();
        let mut post = pre.clone();
        ex.run_observed(&mut post, &mut DefaultDriver, Some(1), &mut |_| {})
            .unwrap();
        let delta = StateDelta::since(&pre, &post);
        assert_eq!(delta.history_cut, pre.history.len());
        assert_eq!(delta.events.len(), post.history.len() - pre.history.len());
        let mut replayed = pre.clone();
        delta.apply(&mut replayed).unwrap();
        assert_eq!(replayed, post);
    }

    #[test]
    fn restore_undoes_writes() {
        let (s, a, _) = parallel();
        let ex = Execution::new(&s).unwrap();
        let mut st = ex.init().unwrap();
        ex.start_activity(&mut st, a).unwrap();
        let pre = st.clone();
        let mark = StateMark::of(&st);
        let d = s.data_elements().next().unwrap().id;
        ex.complete_activity(&mut st, a, vec![(d, adept_model::Value::Int(5))])
            .unwrap();
        assert_ne!(st, pre);
        mark.restore(&mut st);
        assert_eq!(st, pre);
    }
}
