//! Timing wrappers for the traced run.
//!
//! Each layer is measured from outside, by timing the calls the
//! benchmark's own wrappers make into the layer's public trait:
//!
//! * [`TimedNode`] wraps any `simnet::Node` (switch, `MbNode`,
//!   `ControllerNode`, hosts) and times its handlers.
//! * [`TimedMb`] wraps a `Middlebox` and times packet processing and
//!   state export/import.
//! * [`TimedTransport`] wraps a `Transport` endpoint and times sends,
//!   counting frames, messages and encoded bytes.
//!
//! Every wrapper forwards each call unchanged, so a traced run must
//! produce the same outputs as an untraced one; the workloads assert it.
//! All counters land in one shared [`Tally`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use openmb_mb::{CostModel, Effects, Middlebox, SharedSnapshot};
use openmb_simnet::{Ctx, Frame, Node, SimTime};
use openmb_types::transport::Transport;
use openmb_types::wire::{self, Event, EventFilter, Message};
use openmb_types::{
    ConfigValue, EncryptedChunk, HeaderFieldList, HierarchicalKey, NodeId, OpId, Packet, Result,
    StateChunk, StateStats,
};

/// A statistics counter; it publishes no other data, so `Relaxed`.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Work and busy time per middlebox type.
#[derive(Default)]
pub struct MbTally {
    pub pkts: Counter,
    pub calls: Counter,
    pub ns: Counter,
}

/// The middlebox types the packet-path workload chains, in path order.
pub const MB_KINDS: [&str; 3] = ["firewall", "monitor", "ips"];

/// Counters filled by the wrappers of one traced run.
#[derive(Default)]
pub struct Tally {
    pub switch_frames: Counter,
    pub switch_ns: Counter,
    pub switch_flow_mods: Counter,
    /// Time inside `MbNode` handlers, middlebox logic included.
    pub mbnode_ns: Counter,
    pub mb: [MbTally; 3],
    pub chunks_exported: Counter,
    pub get_ns: Counter,
    pub chunks_imported: Counter,
    pub put_ns: Counter,
    pub ctrl_msgs: Counter,
    pub ctrl_ns: Counter,
    pub ctrl_events_in: Counter,
    pub host_ns: Counter,
    pub frames_sent: Counter,
    pub msgs_sent: Counter,
    pub bytes_sent: Counter,
    pub send_ns: Counter,
    pub polls: Counter,
    pub polls_useful: Counter,
    pub chunk_refs: Counter,
    pub chunk_needs: Counter,
}

impl Tally {
    /// Count the message kinds the store layer is judged by.
    fn count_kinds(&self, msg: &Message) {
        match msg {
            Message::ChunkRef { .. } => self.chunk_refs.add(1),
            Message::ChunkNeed { .. } => self.chunk_needs.add(1),
            Message::Batch { msgs } => msgs.iter().for_each(|m| self.count_kinds(m)),
            _ => {}
        }
    }

    /// Time spent inside all DES node handlers.
    pub fn node_ns(&self) -> u64 {
        self.switch_ns.get() + self.mbnode_ns.get() + self.ctrl_ns.get() + self.host_ns.get()
    }

    /// Time spent inside middlebox logic (packets and state transfer).
    pub fn mb_logic_ns(&self) -> u64 {
        self.mb.iter().map(|m| m.ns.get()).sum::<u64>() + self.get_ns.get() + self.put_ns.get()
    }
}

fn unbatched_len(msg: &Message) -> u64 {
    match msg {
        Message::Batch { msgs } => msgs.len() as u64,
        _ => 1,
    }
}

fn reprocess_events(msg: &Message) -> u64 {
    match msg {
        Message::EventMsg { event: Event::Reprocess { .. } } => 1,
        Message::Batch { msgs } => msgs.iter().map(reprocess_events).sum(),
        _ => 0,
    }
}

/// Which layer a wrapped node belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Switch,
    Mb,
    Controller,
    Host,
}

/// A `simnet::Node` whose handlers are timed. Downcasts reach the
/// wrapped node, so post-run inspection code is the same as untraced.
pub struct TimedNode {
    inner: Box<dyn Node>,
    role: Role,
    tally: Arc<Tally>,
}

impl TimedNode {
    pub fn new(inner: Box<dyn Node>, role: Role, tally: Arc<Tally>) -> Self {
        TimedNode { inner, role, tally }
    }

    fn charge(&self, d: Duration) {
        let c = match self.role {
            Role::Switch => &self.tally.switch_ns,
            Role::Mb => &self.tally.mbnode_ns,
            Role::Controller => &self.tally.ctrl_ns,
            Role::Host => &self.tally.host_ns,
        };
        c.add(ns(d));
    }
}

/// Swap the node at `id` for a [`TimedNode`] around it.
pub fn wrap_node(sim: &mut openmb_simnet::Sim, id: NodeId, role: Role, tally: &Arc<Tally>) {
    let slot = sim.node_mut(id);
    let inner = std::mem::replace(slot, Box::new(Placeholder));
    *slot = Box::new(TimedNode::new(inner, role, Arc::clone(tally)));
}

/// Occupies a node slot for the instant of a swap.
struct Placeholder;

impl Node for Placeholder {
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _frame: Frame) {
        unreachable!("placeholder node never runs")
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl Node for TimedNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.charge(t.elapsed());
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, from: NodeId, frame: Frame) {
        match (self.role, &frame) {
            (Role::Switch, Frame::Data(_)) => self.tally.switch_frames.add(1),
            (Role::Switch, Frame::Sdn(openmb_types::sdn::SdnMessage::FlowMod(_))) => {
                self.tally.switch_flow_mods.add(1)
            }
            (Role::Controller, Frame::Control(m)) => {
                self.tally.ctrl_msgs.add(unbatched_len(m));
                self.tally.ctrl_events_in.add(reprocess_events(m));
                self.tally.count_kinds(m);
            }
            (Role::Mb, Frame::Control(m)) => self.tally.count_kinds(m),
            _ => {}
        }
        let t = Instant::now();
        self.inner.on_frame(ctx, from, frame);
        self.charge(t.elapsed());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        self.charge(t.elapsed());
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_crash(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_restart(ctx);
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// A `Middlebox` whose packet processing and per-flow state export and
/// import are timed. Everything else is forwarded untimed.
pub struct TimedMb<M> {
    pub inner: M,
    kind: usize,
    tally: Arc<Tally>,
}

impl<M: Middlebox> TimedMb<M> {
    /// `kind` indexes [`MB_KINDS`].
    pub fn new(inner: M, kind: usize, tally: Arc<Tally>) -> Self {
        TimedMb { inner, kind, tally }
    }

    fn packets(&self, n: usize, d: Duration) {
        let m = &self.tally.mb[self.kind];
        m.pkts.add(n as u64);
        m.calls.add(1);
        m.ns.add(ns(d));
    }

    fn export(
        &mut self,
        f: impl FnOnce(&mut M) -> Result<Vec<StateChunk>>,
    ) -> Result<Vec<StateChunk>> {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.tally.get_ns.add(ns(t.elapsed()));
        if let Ok(chunks) = &r {
            self.tally.chunks_exported.add(chunks.len() as u64);
        }
        r
    }

    fn import(&mut self, f: impl FnOnce(&mut M) -> Result<()>) -> Result<()> {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.tally.put_ns.add(ns(t.elapsed()));
        self.tally.chunks_imported.add(1);
        r
    }
}

impl<M: Middlebox> Middlebox for TimedMb<M> {
    fn mb_type(&self) -> &'static str {
        self.inner.mb_type()
    }
    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.inner.get_config(key)
    }
    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        self.inner.set_config(key, values)
    }
    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.inner.del_config(key)
    }
    fn get_support_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        self.export(|m| m.get_support_perflow(op, key))
    }
    fn put_support_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        self.import(|m| m.put_support_perflow(chunk))
    }
    fn del_support_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        self.inner.del_support_perflow(key)
    }
    fn get_support_shared(&mut self, op: OpId) -> Result<Option<EncryptedChunk>> {
        self.inner.get_support_shared(op)
    }
    fn put_support_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        self.inner.put_support_shared(chunk)
    }
    fn get_report_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        self.export(|m| m.get_report_perflow(op, key))
    }
    fn put_report_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        self.import(|m| m.put_report_perflow(chunk))
    }
    fn del_report_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        self.inner.del_report_perflow(key)
    }
    fn get_report_shared(&mut self) -> Result<Option<EncryptedChunk>> {
        self.inner.get_report_shared()
    }
    fn put_report_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        self.inner.put_report_shared(chunk)
    }
    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        self.inner.snapshot_shared()
    }
    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        self.inner.restore_shared(snap)
    }
    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        self.inner.stats(key)
    }
    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
        let t = Instant::now();
        self.inner.process_packet(now, pkt, fx);
        self.packets(1, t.elapsed());
    }
    fn process_batch(&mut self, now: SimTime, pkts: &[Packet], fx: &mut Effects) {
        let t = Instant::now();
        self.inner.process_batch(now, pkts, fx);
        self.packets(pkts.len(), t.elapsed());
    }
    fn finalize(&mut self, now: SimTime, fx: &mut Effects) {
        self.inner.finalize(now, fx)
    }
    fn set_introspection(&mut self, filter: Option<EventFilter>) {
        self.inner.set_introspection(filter)
    }
    fn end_sync(&mut self, op: OpId) {
        self.inner.end_sync(op)
    }
    fn costs(&self) -> CostModel {
        self.inner.costs()
    }
    fn perflow_entries(&self) -> usize {
        self.inner.perflow_entries()
    }
}

/// A `Transport` endpoint whose sends are timed and whose frames are
/// counted. `count_polls` marks the controller side, where the pump's
/// non-blocking polls are counted.
pub struct TimedTransport<T> {
    inner: T,
    count_polls: bool,
    tally: Arc<Tally>,
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T, count_polls: bool, tally: Arc<Tally>) -> Self {
        TimedTransport { inner, count_polls, tally }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&self, msg: Message) -> Result<()> {
        let tally = &self.tally;
        tally.frames_sent.add(1);
        tally.msgs_sent.add(unbatched_len(&msg));
        tally.bytes_sent.add(wire::encoded_len(&msg) as u64);
        tally.count_kinds(&msg);
        let t = Instant::now();
        let r = self.inner.send(msg);
        tally.send_ns.add(ns(t.elapsed()));
        r
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        self.inner.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        let r = self.inner.try_recv();
        if self.count_polls {
            self.tally.polls.add(1);
            if let Ok(Some(m)) = &r {
                self.tally.polls_useful.add(1);
                self.tally.ctrl_msgs.add(unbatched_len(m));
                self.tally.ctrl_events_in.add(reprocess_events(m));
            }
        }
        r
    }
}
