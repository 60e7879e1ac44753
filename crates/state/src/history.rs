//! Execution histories and their *reduction* for loop-tolerant compliance.
//!
//! The compliance criterion of the paper is based on a *relaxed notion of
//! trace equivalence* that "works correctly in connection with loop backs"
//! [Rinderle et al. 2004]: instead of the full execution history, only the
//! events of the **last** iteration of each loop are considered when
//! deciding whether an instance could have produced its trace on a changed
//! schema. [`ExecutionHistory::reduced`] implements exactly that projection.

use adept_model::{Blocks, DataId, NodeId, ProcessSchema, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One entry of an execution history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A (user-visible) activity was started.
    Started {
        /// The activity node.
        node: NodeId,
        /// The mandatory input parameters of the activity at start time
        /// (its read signature). Compliance replay compares this against
        /// the changed schema: a changed signature for an already-started
        /// activity means the trace is not reproducible.
        reads: Vec<DataId>,
    },
    /// An activity completed, writing the given data values.
    Completed {
        /// The activity node.
        node: NodeId,
        /// Data written on completion, in write order.
        writes: Vec<(DataId, Value)>,
    },
    /// An XOR split chose a branch (either by guard evaluation or by an
    /// external decision). `branch_target` is the first node of the chosen
    /// branch (the matching join for an empty branch).
    XorChosen {
        /// The deciding split node.
        split: NodeId,
        /// First node of the chosen branch.
        branch_target: NodeId,
    },
    /// A loop end decided whether to iterate again.
    LoopDecided {
        /// The deciding loop end node.
        loop_end: NodeId,
        /// `true` to run the body again, `false` to exit the loop.
        iterate: bool,
    },
    /// The body of a loop was reset for another iteration (marks the
    /// boundary that history reduction cuts at).
    LoopReset {
        /// The loop start whose body was reset.
        loop_start: NodeId,
    },
}

impl Event {
    /// The node this event is attributed to.
    pub fn node(&self) -> NodeId {
        match self {
            Event::Started { node, .. } | Event::Completed { node, .. } => *node,
            Event::XorChosen { split, .. } => *split,
            Event::LoopDecided { loop_end, .. } => *loop_end,
            Event::LoopReset { loop_start } => *loop_start,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Started { node, .. } => write!(f, "start({node})"),
            Event::Completed { node, writes } => {
                write!(f, "complete({node}")?;
                for (d, v) in writes {
                    write!(f, ", {d}:={v}")?;
                }
                f.write_str(")")
            }
            Event::XorChosen {
                split,
                branch_target,
            } => write!(f, "xor({split} -> {branch_target})"),
            Event::LoopDecided { loop_end, iterate } => {
                write!(f, "loop({loop_end}, iterate={iterate})")
            }
            Event::LoopReset { loop_start } => write!(f, "reset({loop_start})"),
        }
    }
}

/// The ordered execution history of one instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionHistory {
    /// Events in execution order.
    pub events: Vec<Event>,
}

impl ExecutionHistory {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of the most recent `Started` event of `node` — the event
    /// failing that activity withdraws.
    pub fn last_started(&self, node: NodeId) -> Option<usize> {
        self.events
            .iter()
            .rposition(|e| matches!(e, Event::Started { node: n, .. } if *n == node))
    }

    /// Activities that have a `Started` event, in first-start order.
    pub fn started_activities(&self) -> Vec<NodeId> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for e in &self.events {
            if let Event::Started { node, .. } = e {
                if seen.insert(*node) {
                    out.push(*node);
                }
            }
        }
        out
    }

    /// The *reduced* execution history: for every loop, only the events of
    /// its last (current) iteration survive. `blocks` must describe the
    /// schema the history was recorded on.
    ///
    /// A [`Event::LoopReset`] for loop start `ls` discards every earlier
    /// event attributed to a node of the loop body (including the loop
    /// start/end themselves and any nested blocks), exactly implementing
    /// the loop-purged trace of the underlying compliance theory.
    pub fn reduced(&self, schema: &ProcessSchema, blocks: &Blocks) -> ExecutionHistory {
        let mut events: Vec<Event> = Vec::with_capacity(self.events.len());
        for e in &self.events {
            if let Event::LoopReset { loop_start } = e {
                if let Some(info) = blocks.by_split.get(loop_start) {
                    let mut body: BTreeSet<NodeId> = info.interior();
                    body.insert(info.split);
                    body.insert(info.join);
                    events.retain(|old| !body.contains(&old.node()));
                    // The reset itself is also an earlier-iteration artefact.
                    continue;
                }
                // Loop no longer known (should not happen on the recording
                // schema); keep the event so nothing is silently lost.
                let _ = schema;
            }
            events.push(e.clone());
        }
        ExecutionHistory { events }
    }

    /// Approximate deep size in bytes (for storage accounting).
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        let mut s = size_of::<Self>() + self.events.capacity() * size_of::<Event>();
        for e in &self.events {
            if let Event::Completed { writes, .. } = e {
                s += writes.capacity() * size_of::<(DataId, Value)>();
                for (_, v) in writes {
                    if let Value::Str(st) = v {
                        s += st.capacity();
                    }
                }
            }
        }
        s
    }
}

impl fmt::Display for ExecutionHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::{LoopCond, SchemaBuilder};

    #[test]
    fn reduction_drops_earlier_iterations() {
        let mut b = SchemaBuilder::new("loop");
        b.loop_start();
        let body = b.activity("body");
        b.loop_end(LoopCond::Times(3));
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let ls = s
            .nodes()
            .find(|n| n.kind == adept_model::NodeKind::LoopStart)
            .unwrap()
            .id;
        let le = s
            .nodes()
            .find(|n| n.kind == adept_model::NodeKind::LoopEnd)
            .unwrap()
            .id;

        let mut h = ExecutionHistory::new();
        // Iteration 1.
        h.record(Event::Started {
            node: body,
            reads: vec![],
        });
        h.record(Event::Completed {
            node: body,
            writes: vec![],
        });
        h.record(Event::LoopDecided {
            loop_end: le,
            iterate: true,
        });
        h.record(Event::LoopReset { loop_start: ls });
        // Iteration 2 (final).
        h.record(Event::Started {
            node: body,
            reads: vec![],
        });
        h.record(Event::Completed {
            node: body,
            writes: vec![],
        });
        h.record(Event::LoopDecided {
            loop_end: le,
            iterate: false,
        });

        let r = h.reduced(&s, &blocks);
        // Only the final iteration remains: start, complete, final decision.
        assert_eq!(r.events.len(), 3);
        assert!(matches!(r.events[0], Event::Started { node, .. } if node == body));
        assert!(
            matches!(r.events[2], Event::LoopDecided { iterate: false, .. }),
            "final decision must survive"
        );
    }

    #[test]
    fn reduction_keeps_events_outside_loop() {
        let mut b = SchemaBuilder::new("loop");
        let before = b.activity("before");
        b.loop_start();
        let body = b.activity("body");
        b.loop_end(LoopCond::Times(2));
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let ls = s
            .nodes()
            .find(|n| n.kind == adept_model::NodeKind::LoopStart)
            .unwrap()
            .id;

        let mut h = ExecutionHistory::new();
        h.record(Event::Started {
            node: before,
            reads: vec![],
        });
        h.record(Event::Completed {
            node: before,
            writes: vec![],
        });
        h.record(Event::Started {
            node: body,
            reads: vec![],
        });
        h.record(Event::LoopReset { loop_start: ls });
        let r = h.reduced(&s, &blocks);
        assert_eq!(
            r.started_activities(),
            vec![before],
            "outside-loop events survive, body iteration was cut"
        );
    }

    #[test]
    fn started_activities_dedups() {
        let mut h = ExecutionHistory::new();
        h.record(Event::Started {
            node: NodeId(1),
            reads: vec![],
        });
        h.record(Event::Started {
            node: NodeId(2),
            reads: vec![],
        });
        h.record(Event::Started {
            node: NodeId(1),
            reads: vec![],
        });
        assert_eq!(h.started_activities(), vec![NodeId(1), NodeId(2)]);
    }
}
