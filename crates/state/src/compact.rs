//! Compact execution over compiled schema arenas.
//!
//! [`CompiledExecution`] is the flat-core twin of [`Execution`]: the same
//! ADEPT2 semantics — activation fixpoint, dead-path elimination, silent
//! auto-completion, XOR guards, loop resets — run over a
//! [`CompiledSchema`] arena and a [`CompactMarking`] (small-int state
//! vectors indexed by arena slot) instead of `BTreeMap` lookups per node
//! and edge.
//!
//! The contract is **observational equivalence**: driven through the same
//! commands, the compiled path produces byte-identical [`InstanceState`]s
//! (marking, history, data) and identical errors to the interpreter. The
//! conversion happens at the boundary — public methods accept and mutate
//! the ordinary [`InstanceState`], converting the marking to compact form
//! once per command (once per *run* for [`CompiledExecution::run`]) and
//! re-assembling a minimal marking on the way out, so snapshots, WAL
//! post-images and audits cannot tell the two paths apart.
//!
//! Biased (ad-hoc-changed) instances materialise overlaid schemas the
//! shared arena does not describe; the engine keeps them on the
//! interpreted path (see `adept-engine`'s crate docs).

use crate::datactx::DataContext;
use crate::error::RuntimeError;
use crate::execution::{Decision, Driver, InstanceState, RunEvent};
use crate::history::{Event, ExecutionHistory};
use crate::marking::{EdgeState, Marking, NodeState};
use adept_model::{
    CompiledSchema, DataId, EdgeKind, LoopCond, ModelError, NodeId, NodeKind, ProcessSchema, Value,
};

/// The marking of one instance as dense per-slot vectors, indexed by
/// arena position. Conversion to and from the sparse [`Marking`] is
/// lossless: defaults are dropped on the way out, so a round trip yields
/// an identical (and identically serialised) marking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactMarking {
    nodes: Vec<NodeState>,
    edges: Vec<EdgeState>,
    loops: Vec<u32>,
}

impl CompactMarking {
    /// A fresh marking for an arena: every node `NotActivated`, every
    /// edge `NotSignaled`, every loop counter zero.
    pub fn fresh(arena: &CompiledSchema) -> Self {
        Self {
            nodes: vec![NodeState::default(); arena.node_count()],
            edges: vec![EdgeState::default(); arena.edge_count()],
            loops: vec![0; arena.node_count()],
        }
    }

    /// Converts a sparse marking. Fails with the offending id when the
    /// marking references a node or edge the arena does not intern — the
    /// signal that this state belongs to a different (e.g. overlaid)
    /// schema and must take the interpreted path.
    pub fn from_marking(arena: &CompiledSchema, m: &Marking) -> Result<Self, RuntimeError> {
        let mut cm = Self::fresh(arena);
        for (n, s) in m.marked_nodes() {
            let slot = arena
                .node_slot(n)
                .ok_or(RuntimeError::Model(ModelError::UnknownNode(n)))?;
            cm.nodes[slot as usize] = s;
        }
        for (e, s) in m.signaled_edges() {
            let slot = arena
                .edge_slot(e)
                .ok_or(RuntimeError::Model(ModelError::UnknownEdge(e)))?;
            cm.edges[slot as usize] = s;
        }
        for (n, c) in m.loop_counters() {
            let slot = arena
                .node_slot(n)
                .ok_or(RuntimeError::Model(ModelError::UnknownNode(n)))?;
            cm.loops[slot as usize] = c;
        }
        Ok(cm)
    }

    /// Re-assembles the minimal sparse marking (defaults omitted), equal —
    /// including serialisation — to what the interpreter would maintain.
    pub fn to_marking(&self, arena: &CompiledSchema) -> Marking {
        let mut m = Marking::new();
        for (slot, &s) in self.nodes.iter().enumerate() {
            if s != NodeState::NotActivated {
                m.set_node(arena.node_id(slot as u32), s);
            }
        }
        for (slot, &s) in self.edges.iter().enumerate() {
            if s != EdgeState::NotSignaled {
                m.set_edge(arena.edge_id(slot as u32), s);
            }
        }
        for (slot, &c) in self.loops.iter().enumerate() {
            if c > 0 {
                m.set_loop_count(arena.node_id(slot as u32), c);
            }
        }
        m
    }

    /// State of a node slot.
    #[inline]
    pub fn node(&self, slot: u32) -> NodeState {
        self.nodes[slot as usize]
    }

    /// Sets a node slot.
    #[inline]
    pub fn set_node(&mut self, slot: u32, s: NodeState) {
        self.nodes[slot as usize] = s;
    }

    /// State of an edge slot.
    #[inline]
    pub fn edge(&self, slot: u32) -> EdgeState {
        self.edges[slot as usize]
    }

    /// Sets an edge slot.
    #[inline]
    pub fn set_edge(&mut self, slot: u32, s: EdgeState) {
        self.edges[slot as usize] = s;
    }

    /// Completed iterations of the loop closed by `slot`.
    #[inline]
    pub fn loop_count(&self, slot: u32) -> u32 {
        self.loops[slot as usize]
    }
}

/// The compiled-path interpreter: [`Execution`]'s semantics over an arena.
///
/// Carries the arena for slot-indexed control flow plus the schema it was
/// compiled from — data writes are validated against the schema's declared
/// element types, and [`Driver`] callbacks receive the schema, exactly as
/// on the interpreted path.
///
/// [`Execution`]: crate::execution::Execution
#[derive(Debug, Clone, Copy)]
pub struct CompiledExecution<'a> {
    /// The schema the arena was compiled from.
    pub schema: &'a ProcessSchema,
    /// The compiled arena.
    pub arena: &'a CompiledSchema,
}

enum Readiness {
    Ready,
    Dead,
    Wait,
}

impl<'a> CompiledExecution<'a> {
    /// Creates a compiled-path interpreter over a schema/arena pair. The
    /// arena must have been compiled from exactly this schema.
    pub fn new(schema: &'a ProcessSchema, arena: &'a CompiledSchema) -> Self {
        Self { schema, arena }
    }

    /// Creates a fresh instance state (see `Execution::init`).
    pub fn init(&self) -> Result<InstanceState, RuntimeError> {
        let mut st = InstanceState::default();
        let mut cm = CompactMarking::fresh(self.arena);
        cm.set_node(self.arena.start, NodeState::Completed);
        self.signal_outgoing(&mut cm, self.arena.start, EdgeState::TrueSignaled);
        let res = self.propagate(&mut cm, &mut st.history, &st.data);
        st.marking = cm.to_marking(self.arena);
        res?;
        Ok(st)
    }

    /// Currently enabled (activated) activities, in id order.
    pub fn enabled(&self, st: &InstanceState) -> Vec<NodeId> {
        st.marking
            .nodes_in(NodeState::Activated)
            .filter(|&n| {
                self.arena
                    .node_slot(n)
                    .is_some_and(|s| self.arena.nodes[s as usize].kind == NodeKind::Activity)
            })
            .collect()
    }

    /// Decisions the runtime is currently waiting for.
    pub fn pending_decisions(&self, st: &InstanceState) -> Vec<Decision> {
        let mut out = Vec::new();
        for n in st.marking.nodes_in(NodeState::Activated) {
            let Some(slot) = self.arena.node_slot(n) else {
                continue;
            };
            let node = &self.arena.nodes[slot as usize];
            match node.kind {
                NodeKind::XorSplit if !node.has_guards => {
                    let targets = node
                        .out_control
                        .iter()
                        .map(|&e| self.arena.node_id(self.arena.edges[e as usize].to))
                        .collect();
                    out.push(Decision::Xor { split: n, targets });
                }
                NodeKind::LoopEnd if node.loop_cond == Some(LoopCond::External) => {
                    out.push(Decision::Loop {
                        loop_end: n,
                        completed: st.marking.loop_count(n),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Whether the instance has reached its end node.
    pub fn is_finished(&self, st: &InstanceState) -> bool {
        st.marking.node(self.arena.node_id(self.arena.end)) == NodeState::Completed
    }

    /// The sorted mandatory read signature of an activity (precomputed).
    pub fn read_signature(&self, n: NodeId) -> Vec<DataId> {
        self.arena
            .node_slot(n)
            .map(|s| self.arena.nodes[s as usize].read_signature.to_vec())
            .unwrap_or_default()
    }

    /// Starts an activated activity (see `Execution::start_activity`).
    pub fn start_activity(&self, st: &mut InstanceState, n: NodeId) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(n)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(n)))?;
        let node = &self.arena.nodes[slot as usize];
        if node.kind != NodeKind::Activity {
            return Err(RuntimeError::NotAnActivity(n));
        }
        if st.marking.node(n) != NodeState::Activated {
            return Err(RuntimeError::NotActivatable(n));
        }
        for &d in node.mandatory_reads.iter() {
            if !st.data.is_written(d) {
                return Err(RuntimeError::MissingInput { node: n, data: d });
            }
        }
        st.marking.set_node(n, NodeState::Running);
        st.history.record(Event::Started {
            node: n,
            reads: node.read_signature.to_vec(),
        });
        Ok(())
    }

    /// Fails a running activity (see `Execution::fail_activity`).
    pub fn fail_activity(&self, st: &mut InstanceState, n: NodeId) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(n)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(n)))?;
        if self.arena.nodes[slot as usize].kind != NodeKind::Activity {
            return Err(RuntimeError::NotAnActivity(n));
        }
        if st.marking.node(n) != NodeState::Running {
            return Err(RuntimeError::NotRunning(n));
        }
        st.marking.set_node(n, NodeState::Activated);
        if let Some(i) = st.history.last_started(n) {
            st.history.events.remove(i);
        }
        Ok(())
    }

    /// Completes a running activity (see `Execution::complete_activity`).
    pub fn complete_activity(
        &self,
        st: &mut InstanceState,
        n: NodeId,
        writes: Vec<(DataId, Value)>,
    ) -> Result<(), RuntimeError> {
        if st.marking.node(n) != NodeState::Running {
            return Err(RuntimeError::NotRunning(n));
        }
        let mut cm = CompactMarking::from_marking(self.arena, &st.marking)?;
        let res = self.complete_on(&mut cm, &mut st.history, &mut st.data, n, writes);
        st.marking = cm.to_marking(self.arena);
        res
    }

    /// Resolves a pending XOR decision (see `Execution::decide_xor`).
    pub fn decide_xor(
        &self,
        st: &mut InstanceState,
        split: NodeId,
        branch_target: NodeId,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(split)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(split)))?;
        let node = &self.arena.nodes[slot as usize];
        if node.kind != NodeKind::XorSplit || st.marking.node(split) != NodeState::Activated {
            return Err(RuntimeError::NoDecisionPending(split));
        }
        let chosen = node
            .out_control
            .iter()
            .copied()
            .find(|&e| self.arena.node_id(self.arena.edges[e as usize].to) == branch_target)
            .ok_or(RuntimeError::BranchNotFound {
                split,
                target: branch_target,
            })?;
        let mut cm = CompactMarking::from_marking(self.arena, &st.marking)?;
        self.fire_xor(&mut cm, &mut st.history, slot, chosen);
        let res = self.propagate(&mut cm, &mut st.history, &st.data);
        st.marking = cm.to_marking(self.arena);
        res
    }

    /// Resolves a pending loop decision (see `Execution::decide_loop`).
    pub fn decide_loop(
        &self,
        st: &mut InstanceState,
        loop_end: NodeId,
        iterate: bool,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(loop_end)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(loop_end)))?;
        if self.arena.nodes[slot as usize].kind != NodeKind::LoopEnd
            || st.marking.node(loop_end) != NodeState::Activated
        {
            return Err(RuntimeError::NoDecisionPending(loop_end));
        }
        let mut cm = CompactMarking::from_marking(self.arena, &st.marking)?;
        let res = self
            .fire_loop_end(&mut cm, &mut st.history, slot, iterate)
            .and_then(|()| self.propagate(&mut cm, &mut st.history, &st.data));
        st.marking = cm.to_marking(self.arena);
        res
    }

    /// Drives the instance forward (see `Execution::run`).
    pub fn run(
        &self,
        st: &mut InstanceState,
        driver: &mut dyn Driver,
        max_activities: Option<usize>,
    ) -> Result<usize, RuntimeError> {
        self.run_observed(st, driver, max_activities, &mut |_| {})
    }

    /// [`CompiledExecution::run`] reporting every driver-performed state
    /// transition (see `Execution::run_observed`). The marking converts to
    /// compact form **once** for the whole run — the payoff case of the
    /// arena representation.
    pub fn run_observed(
        &self,
        st: &mut InstanceState,
        driver: &mut dyn Driver,
        max_activities: Option<usize>,
        observe: &mut dyn FnMut(RunEvent),
    ) -> Result<usize, RuntimeError> {
        let mut cm = CompactMarking::from_marking(self.arena, &st.marking)?;
        let res = self.run_inner(
            &mut cm,
            &mut st.history,
            &mut st.data,
            driver,
            max_activities,
            observe,
        );
        st.marking = cm.to_marking(self.arena);
        res
    }

    // ------------------------------------------------------------------
    // Compact core: every operation below runs on arena slots only.
    // ------------------------------------------------------------------

    fn run_inner(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &mut DataContext,
        driver: &mut dyn Driver,
        max_activities: Option<usize>,
        observe: &mut dyn FnMut(RunEvent),
    ) -> Result<usize, RuntimeError> {
        let a = self.arena;
        let mut completed = 0usize;
        let mut stall_guard = 0usize;
        loop {
            if let Some(max) = max_activities {
                if completed >= max {
                    return Ok(completed);
                }
            }
            if cm.node(a.end) == NodeState::Completed {
                return Ok(completed);
            }
            let decisions = self.pending_on(cm);
            if !decisions.is_empty() {
                for d in decisions {
                    match d {
                        Decision::Xor { split, targets } => {
                            let idx = driver.choose_branch(self.schema, split, &targets);
                            let target = *targets.get(idx).ok_or(RuntimeError::BranchNotFound {
                                split,
                                target: split,
                            })?;
                            self.decide_xor_on(cm, hist, data, split, target)?;
                            observe(RunEvent::XorDecided { split, target });
                        }
                        Decision::Loop {
                            loop_end,
                            completed: iters,
                        } => {
                            let it = driver.decide_loop(self.schema, loop_end, iters);
                            self.decide_loop_on(cm, hist, data, loop_end, it)?;
                            observe(RunEvent::LoopDecided {
                                loop_end,
                                iterate: it,
                            });
                        }
                    }
                }
                continue;
            }
            let enabled = self.enabled_on(cm);
            if enabled.is_empty() {
                let running: Vec<NodeId> = (0..a.nodes.len() as u32)
                    .filter(|&s| cm.node(s) == NodeState::Running)
                    .map(|s| a.node_id(s))
                    .collect();
                if running.is_empty() {
                    return Err(RuntimeError::Stuck);
                }
                for n in running {
                    let writes = self.collect_outputs(n, driver);
                    self.complete_on(cm, hist, data, n, writes)?;
                    observe(RunEvent::Completed(n));
                    completed += 1;
                }
                continue;
            }
            let idx = driver.choose_activity(self.schema, &enabled);
            let n = enabled[idx.min(enabled.len() - 1)];
            self.start_on(cm, hist, data, n)?;
            observe(RunEvent::Started(n));
            let writes = self.collect_outputs(n, driver);
            self.complete_on(cm, hist, data, n, writes)?;
            observe(RunEvent::Completed(n));
            completed += 1;
            stall_guard += 1;
            if stall_guard > 1_000_000 {
                return Err(RuntimeError::StepLimitExceeded);
            }
        }
    }

    fn collect_outputs(&self, n: NodeId, driver: &mut dyn Driver) -> Vec<(DataId, Value)> {
        let Some(slot) = self.arena.node_slot(n) else {
            return Vec::new();
        };
        self.arena.nodes[slot as usize]
            .declared_writes
            .iter()
            .map(|&d| (d, driver.output_value(self.schema, n, d)))
            .collect()
    }

    /// Enabled activities from the compact marking, ascending id order
    /// (slot order *is* id order).
    fn enabled_on(&self, cm: &CompactMarking) -> Vec<NodeId> {
        let a = self.arena;
        (0..a.nodes.len() as u32)
            .filter(|&s| {
                cm.node(s) == NodeState::Activated && a.nodes[s as usize].kind == NodeKind::Activity
            })
            .map(|s| a.node_id(s))
            .collect()
    }

    fn pending_on(&self, cm: &CompactMarking) -> Vec<Decision> {
        let a = self.arena;
        let mut out = Vec::new();
        for slot in 0..a.nodes.len() as u32 {
            if cm.node(slot) != NodeState::Activated {
                continue;
            }
            let node = &a.nodes[slot as usize];
            match node.kind {
                NodeKind::XorSplit if !node.has_guards => {
                    let targets = node
                        .out_control
                        .iter()
                        .map(|&e| a.node_id(a.edges[e as usize].to))
                        .collect();
                    out.push(Decision::Xor {
                        split: a.node_id(slot),
                        targets,
                    });
                }
                NodeKind::LoopEnd if node.loop_cond == Some(LoopCond::External) => {
                    out.push(Decision::Loop {
                        loop_end: a.node_id(slot),
                        completed: cm.loop_count(slot),
                    });
                }
                _ => {}
            }
        }
        out
    }

    fn start_on(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &DataContext,
        n: NodeId,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(n)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(n)))?;
        let node = &self.arena.nodes[slot as usize];
        if node.kind != NodeKind::Activity {
            return Err(RuntimeError::NotAnActivity(n));
        }
        if cm.node(slot) != NodeState::Activated {
            return Err(RuntimeError::NotActivatable(n));
        }
        for &d in node.mandatory_reads.iter() {
            if !data.is_written(d) {
                return Err(RuntimeError::MissingInput { node: n, data: d });
            }
        }
        cm.set_node(slot, NodeState::Running);
        hist.record(Event::Started {
            node: n,
            reads: node.read_signature.to_vec(),
        });
        Ok(())
    }

    fn complete_on(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &mut DataContext,
        n: NodeId,
        writes: Vec<(DataId, Value)>,
    ) -> Result<(), RuntimeError> {
        // The interpreter checks the running state before anything else —
        // an unknown node is simply not running.
        let Some(slot) = self.arena.node_slot(n) else {
            return Err(RuntimeError::NotRunning(n));
        };
        if cm.node(slot) != NodeState::Running {
            return Err(RuntimeError::NotRunning(n));
        }
        let declared = &self.arena.nodes[slot as usize].declared_writes;
        for (d, _) in &writes {
            if !declared.contains(d) {
                return Err(RuntimeError::UndeclaredWrite { node: n, data: *d });
            }
        }
        for d in declared.iter() {
            if !writes.iter().any(|(x, _)| x == d) {
                return Err(RuntimeError::MissingOutput { node: n, data: *d });
            }
        }
        // Validate all before writing any (same all-or-nothing contract as
        // the interpreter; shares DataContext::write's own check).
        for (d, v) in &writes {
            DataContext::validate_write(self.schema, *d, v)?;
        }
        for (d, v) in &writes {
            data.write(self.schema, n, *d, v.clone())?;
        }
        cm.set_node(slot, NodeState::Completed);
        hist.record(Event::Completed { node: n, writes });
        self.signal_outgoing(cm, slot, EdgeState::TrueSignaled);
        self.propagate(cm, hist, data)
    }

    fn decide_xor_on(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &DataContext,
        split: NodeId,
        branch_target: NodeId,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(split)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(split)))?;
        let node = &self.arena.nodes[slot as usize];
        if node.kind != NodeKind::XorSplit || cm.node(slot) != NodeState::Activated {
            return Err(RuntimeError::NoDecisionPending(split));
        }
        let chosen = node
            .out_control
            .iter()
            .copied()
            .find(|&e| self.arena.node_id(self.arena.edges[e as usize].to) == branch_target)
            .ok_or(RuntimeError::BranchNotFound {
                split,
                target: branch_target,
            })?;
        self.fire_xor(cm, hist, slot, chosen);
        self.propagate(cm, hist, data)
    }

    fn decide_loop_on(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &DataContext,
        loop_end: NodeId,
        iterate: bool,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(loop_end)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(loop_end)))?;
        if self.arena.nodes[slot as usize].kind != NodeKind::LoopEnd
            || cm.node(slot) != NodeState::Activated
        {
            return Err(RuntimeError::NoDecisionPending(loop_end));
        }
        self.fire_loop_end(cm, hist, slot, iterate)?;
        self.propagate(cm, hist, data)
    }

    /// Signals all outgoing non-loop edges of a node slot.
    fn signal_outgoing(&self, cm: &mut CompactMarking, slot: u32, state: EdgeState) {
        for &e in self.arena.nodes[slot as usize].out_nonloop.iter() {
            cm.set_edge(e, state);
        }
    }

    /// The activation fixpoint — `Execution::propagate` over slots. Phase
    /// 1 walks slots in ascending order (= ascending node id, the
    /// interpreter's candidate order); phase 2 auto-completes silent
    /// activated nodes, likewise in id order.
    fn propagate(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &DataContext,
    ) -> Result<(), RuntimeError> {
        let a = self.arena;
        let n_slots = a.nodes.len() as u32;
        loop {
            let mut progressed = false;

            // Phase 1: activate / skip nodes.
            for slot in 0..n_slots {
                if cm.node(slot) != NodeState::NotActivated {
                    continue;
                }
                match self.evaluate_incoming(cm, slot) {
                    Readiness::Ready => {
                        cm.set_node(slot, NodeState::Activated);
                        progressed = true;
                    }
                    Readiness::Dead => {
                        cm.set_node(slot, NodeState::Skipped);
                        self.signal_outgoing(cm, slot, EdgeState::FalseSignaled);
                        progressed = true;
                    }
                    Readiness::Wait => {}
                }
            }

            // Phase 2: auto-complete silent activated nodes.
            let silent: Vec<u32> = (0..n_slots)
                .filter(|&s| cm.node(s) == NodeState::Activated && a.nodes[s as usize].silent)
                .collect();
            for slot in silent {
                if cm.node(slot) != NodeState::Activated {
                    continue; // a loop reset in this sweep may have cleared it
                }
                let node = &a.nodes[slot as usize];
                match node.kind {
                    NodeKind::XorSplit => {
                        if node.has_guards {
                            let chosen = self.evaluate_guards(data, slot)?;
                            self.fire_xor(cm, hist, slot, chosen);
                            progressed = true;
                        }
                        // else: external decision pending
                    }
                    NodeKind::LoopEnd => match node.loop_cond.clone() {
                        Some(LoopCond::Times(total)) => {
                            let iterate = cm.loop_count(slot) + 1 < total;
                            self.fire_loop_end(cm, hist, slot, iterate)?;
                            progressed = true;
                        }
                        Some(LoopCond::While(g)) => {
                            let iterate = g.eval(data.value(g.data));
                            self.fire_loop_end(cm, hist, slot, iterate)?;
                            progressed = true;
                        }
                        Some(LoopCond::External) => {} // pending
                        None => return Err(RuntimeError::LoopNotDecidable(a.node_id(slot))),
                    },
                    _ => {
                        cm.set_node(slot, NodeState::Completed);
                        self.signal_outgoing(cm, slot, EdgeState::TrueSignaled);
                        progressed = true;
                    }
                }
            }

            if !progressed {
                return Ok(());
            }
        }
    }

    /// First-match guard evaluation over the outgoing control edges in
    /// adjacency order; the (last) unguarded edge is the else branch.
    fn evaluate_guards(&self, data: &DataContext, slot: u32) -> Result<u32, RuntimeError> {
        let a = self.arena;
        let mut else_edge = None;
        for &e in a.nodes[slot as usize].out_control.iter() {
            match &a.edges[e as usize].guard {
                Some(g) => {
                    if g.eval(data.value(g.data)) {
                        return Ok(e);
                    }
                }
                None => else_edge = Some(e),
            }
        }
        else_edge.ok_or(RuntimeError::NoBranchMatches(a.node_id(slot)))
    }

    fn fire_xor(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        slot: u32,
        chosen: u32,
    ) {
        let a = self.arena;
        let target = a.node_id(a.edges[chosen as usize].to);
        hist.record(Event::XorChosen {
            split: a.node_id(slot),
            branch_target: target,
        });
        cm.set_node(slot, NodeState::Completed);
        for &e in a.nodes[slot as usize].out_nonloop.iter() {
            let kind = a.edges[e as usize].kind;
            // Sync edges signal true regardless: the split itself completed.
            let s = if (e == chosen && kind == EdgeKind::Control) || kind == EdgeKind::Sync {
                EdgeState::TrueSignaled
            } else {
                EdgeState::FalseSignaled
            };
            cm.set_edge(e, s);
        }
    }

    fn fire_loop_end(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        slot: u32,
        iterate: bool,
    ) -> Result<(), RuntimeError> {
        let a = self.arena;
        let loop_end = a.node_id(slot);
        hist.record(Event::LoopDecided { loop_end, iterate });
        cm.loops[slot as usize] += 1;
        if iterate {
            let ls = a.nodes[slot as usize]
                .loop_start
                .ok_or(RuntimeError::LoopNotDecidable(loop_end))?;
            hist.record(Event::LoopReset {
                loop_start: a.node_id(ls),
            });
            self.reset_loop_body(cm, slot);
        } else {
            cm.set_node(slot, NodeState::Completed);
            self.signal_outgoing(cm, slot, EdgeState::TrueSignaled);
        }
        Ok(())
    }

    /// Resets the loop body for the next iteration (precomputed body
    /// tables; see `Execution::reset_loop_body` for the semantics).
    fn reset_loop_body(&self, cm: &mut CompactMarking, loop_end_slot: u32) {
        let node = &self.arena.nodes[loop_end_slot as usize];
        for &ns in node.loop_body_nodes.iter() {
            cm.set_node(ns, NodeState::NotActivated);
            if ns != loop_end_slot {
                cm.loops[ns as usize] = 0; // nested loop counters restart
            }
        }
        for &es in node.loop_body_edges.iter() {
            cm.set_edge(es, EdgeState::NotSignaled);
        }
    }

    fn evaluate_incoming(&self, cm: &CompactMarking, slot: u32) -> Readiness {
        let node = &self.arena.nodes[slot as usize];
        let control_total = node.in_control.len();
        if control_total == 0 {
            // Only the start node has no incoming control edges; it is
            // completed explicitly by `init` and never (re-)activated here.
            return Readiness::Wait;
        }
        let mut control_true = 0usize;
        let mut control_false = 0usize;
        for &e in node.in_control.iter() {
            match cm.edge(e) {
                EdgeState::TrueSignaled => control_true += 1,
                EdgeState::FalseSignaled => control_false += 1,
                EdgeState::NotSignaled => {}
            }
        }
        let dead;
        let ready;
        if node.kind == NodeKind::XorJoin {
            ready = control_true >= 1;
            dead = !ready && control_false == control_total;
        } else {
            dead = control_false > 0;
            ready = !dead && control_true == control_total;
        }
        if dead {
            return Readiness::Dead;
        }
        if !ready {
            return Readiness::Wait;
        }
        for &e in node.in_sync.iter() {
            if !cm.edge(e).signaled() {
                return Readiness::Wait;
            }
        }
        Readiness::Ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{DefaultDriver, Execution};
    use adept_model::{Blocks, CmpOp, Guard, SchemaBuilder, ValueType};

    fn pair(schema: &ProcessSchema) -> (Execution<'_>, CompiledSchema) {
        let ex = Execution::new(schema).expect("block analysis");
        let arena = CompiledSchema::compile(schema, &ex.blocks);
        (ex, arena)
    }

    /// Drives both paths through the same scripted steps and asserts the
    /// full instance states stay equal after every step.
    fn assert_lockstep(schema: &ProcessSchema) {
        let (ex, arena) = pair(schema);
        let cx = CompiledExecution::new(schema, &arena);
        let mut si = ex.init().unwrap();
        let mut sc = cx.init().unwrap();
        assert_eq!(si, sc, "init diverged");
        let mut guard = 0;
        while !ex.is_finished(&si) {
            assert_eq!(ex.pending_decisions(&si), cx.pending_decisions(&sc));
            for d in ex.pending_decisions(&si) {
                match d {
                    Decision::Xor { split, targets } => {
                        ex.decide_xor(&mut si, split, targets[0]).unwrap();
                        cx.decide_xor(&mut sc, split, targets[0]).unwrap();
                    }
                    Decision::Loop { loop_end, .. } => {
                        ex.decide_loop(&mut si, loop_end, false).unwrap();
                        cx.decide_loop(&mut sc, loop_end, false).unwrap();
                    }
                }
            }
            assert_eq!(ex.enabled(&si), cx.enabled(&sc));
            let Some(&n) = ex.enabled(&si).first() else {
                break;
            };
            ex.start_activity(&mut si, n).unwrap();
            cx.start_activity(&mut sc, n).unwrap();
            let writes: Vec<_> = schema
                .writes_of(n)
                .map(|de| de.data)
                .map(|d| (d, Value::Int(7)))
                .collect();
            ex.complete_activity(&mut si, n, writes.clone()).unwrap();
            cx.complete_activity(&mut sc, n, writes).unwrap();
            assert_eq!(si, sc, "state diverged after {n}");
            guard += 1;
            assert!(guard < 100, "runaway test loop");
        }
        assert_eq!(ex.is_finished(&si), cx.is_finished(&sc));
    }

    #[test]
    fn sequence_lockstep() {
        let mut b = SchemaBuilder::new("seq");
        let d = b.data("x", ValueType::Int);
        let a = b.activity("a");
        b.write(a, d);
        let r = b.activity("r");
        b.read(r, d);
        assert_lockstep(&b.build().unwrap());
    }

    #[test]
    fn parallel_and_sync_lockstep() {
        let mut b = SchemaBuilder::new("par");
        b.and_split();
        b.branch();
        let p = b.activity("p");
        b.branch();
        let c = b.activity("c");
        b.and_join();
        b.activity("z");
        b.sync(p, c);
        assert_lockstep(&b.build().unwrap());
    }

    #[test]
    fn guarded_xor_lockstep() {
        let mut b = SchemaBuilder::new("xor");
        let d = b.data("amount", ValueType::Int);
        let w = b.activity("w");
        b.write(w, d);
        b.xor_split();
        b.case_when(Guard::new(d, CmpOp::Ge, Value::Int(100)));
        b.activity("big");
        b.case();
        b.activity("small");
        b.xor_join();
        assert_lockstep(&b.build().unwrap());
    }

    #[test]
    fn counted_loop_runs_identically() {
        let mut b = SchemaBuilder::new("loop");
        b.loop_start();
        b.activity("body");
        b.loop_end(LoopCond::Times(3));
        let s = b.build().unwrap();
        let (ex, arena) = pair(&s);
        let cx = CompiledExecution::new(&s, &arena);
        let mut si = ex.init().unwrap();
        let mut sc = cx.init().unwrap();
        let ni = ex.run(&mut si, &mut DefaultDriver, None).unwrap();
        let nc = cx.run(&mut sc, &mut DefaultDriver, None).unwrap();
        assert_eq!(ni, nc);
        assert_eq!(si, sc);
        assert!(cx.is_finished(&sc));
    }

    #[test]
    fn errors_match_interpreter() {
        let mut b = SchemaBuilder::new("err");
        let d = b.data("x", ValueType::Int);
        let a = b.activity("a");
        let c = b.activity("c");
        let _ = d;
        let s = b.build().unwrap();
        let (ex, arena) = pair(&s);
        let cx = CompiledExecution::new(&s, &arena);
        let mut si = ex.init().unwrap();
        let mut sc = cx.init().unwrap();
        // Not activated yet.
        assert_eq!(
            ex.start_activity(&mut si, c).unwrap_err(),
            cx.start_activity(&mut sc, c).unwrap_err()
        );
        // Complete before start.
        assert_eq!(
            ex.complete_activity(&mut si, a, vec![]).unwrap_err(),
            cx.complete_activity(&mut sc, a, vec![]).unwrap_err()
        );
        ex.start_activity(&mut si, a).unwrap();
        cx.start_activity(&mut sc, a).unwrap();
        // Undeclared write.
        assert_eq!(
            ex.complete_activity(&mut si, a, vec![(d, Value::Int(1))])
                .unwrap_err(),
            cx.complete_activity(&mut sc, a, vec![(d, Value::Int(1))])
                .unwrap_err()
        );
        // Fail drops back and erases the Started record.
        ex.fail_activity(&mut si, a).unwrap();
        cx.fail_activity(&mut sc, a).unwrap();
        assert_eq!(si, sc);
    }

    #[test]
    fn compact_marking_round_trips() {
        let mut b = SchemaBuilder::new("rt");
        b.loop_start();
        b.activity("body");
        b.loop_end(LoopCond::Times(2));
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let arena = CompiledSchema::compile(&s, &blocks);
        let ex = Execution::with_blocks(&s, blocks.clone());
        let mut st = ex.init().unwrap();
        ex.run(&mut st, &mut DefaultDriver, None).unwrap();
        let cm = CompactMarking::from_marking(&arena, &st.marking).unwrap();
        let back = cm.to_marking(&arena);
        assert_eq!(back, st.marking);
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&st.marking).unwrap()
        );
    }

    #[test]
    fn foreign_marking_is_rejected() {
        let mut b = SchemaBuilder::new("f1");
        b.activity("a");
        let s1 = b.build().unwrap();
        let blocks = Blocks::analyze(&s1).unwrap();
        let arena = CompiledSchema::compile(&s1, &blocks);
        let mut m = Marking::new();
        m.set_node(NodeId(999), NodeState::Completed);
        assert!(CompactMarking::from_marking(&arena, &m).is_err());
    }
}
