//! Online invariant monitor: a live [`ObsSink`] that replays the
//! protocol rules from DESIGN §10/§15 against the span stream as
//! it is recorded, surfacing violations the moment they happen instead
//! of post-hoc in suite-specific asserts.
//!
//! The monitor keeps one small state machine per operation and one per
//! chain, fed exclusively by [`SpanEvent`]s — it never inspects
//! controller internals, so a passing run proves the *emitted* span
//! stream is complete enough to re-derive the invariants. Monitored
//! invariants (the catalog lives in DESIGN.md §16):
//!
//! * **I1 window** — the number of admitted-but-unacked puts never
//!   exceeds the configured transfer window.
//! * **I2 delete-after-terminal** — compensating/quiescence deletes
//!   are only issued after the op reached a terminal state
//!   (`Completed` or `Aborted`).
//! * **I3 rollback-after-source-delete** — a chain's reverse
//!   (compensating) move for hop `h` is only issued after hop `h`'s
//!   forward op is terminal *and* all its deletes are acked.
//!
//! Because sinks run *before* ring insertion (see
//! [`crate::ObsSink`]), verdicts survive flight-recorder wraparound.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

use crate::phase::{ChainPhases, HopPhase, OpPhases};
use crate::recorder::{ObsSink, RecordedEvent};
use crate::span::SpanEvent;

/// What the monitor needs to know about the run's topology. All fields
/// describe *configuration*, not state — the monitor learns state from
/// the stream.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Transfer window for the I1 occupancy bound; 0 = unbounded
    /// (window checking disabled).
    pub transfer_window: u32,
    /// Ids at or above this are chain ids, tracked by the per-chain
    /// machine. Matches
    /// `openmb_core::chain::CHAIN_OP_BASE` by default.
    pub chain_op_base: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { transfer_window: 0, chain_op_base: 1 << 62 }
    }
}

/// One detected invariant violation, typed by the rule it broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// I1: a put was admitted while the ledger already held `window`
    /// unacked puts.
    WindowExceeded { op: u64, in_flight: usize, window: u32, t_ns: u64 },
    /// I2: a delete was issued for an op that is neither completed nor
    /// aborted.
    DeleteBeforeTerminal { op: u64, mb: u32, t_ns: u64 },
    /// I3: a chain issued a compensating reverse move before the
    /// forward op's terminal state + source-delete acks.
    EarlyRollback { chain: u64, hop: u32, forward_op: u64, t_ns: u64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::WindowExceeded { op, in_flight, window, t_ns } => write!(
                f,
                "window-exceeded(op={op}, in_flight={in_flight}, window={window}, t_ns={t_ns})"
            ),
            Violation::DeleteBeforeTerminal { op, mb, t_ns } => {
                write!(f, "delete-before-terminal(op={op}, mb={mb}, t_ns={t_ns})")
            }
            Violation::EarlyRollback { chain, hop, forward_op, t_ns } => write!(
                f,
                "early-rollback(chain={chain}, hop={hop}, forward_op={forward_op}, t_ns={t_ns})"
            ),
        }
    }
}

/// Per-operation track: ledger occupancy, terminal state, delete
/// accounting — everything the invariants and the phase attribution
/// need.
#[derive(Debug, Default, Clone)]
struct OpTrack {
    kind: Option<&'static str>,
    /// Admitted-but-unacked put seqs (mirrors the controller's
    /// unacked-put ledger, rebuilt from PutAdmitted/ChunkAcked).
    outstanding: BTreeSet<u64>,
    issued_at: Option<u64>,
    first_admit_at: Option<u64>,
    completed_at: Option<u64>,
    aborted_at: Option<u64>,
    first_delete_at: Option<u64>,
    last_delete_ack_at: Option<u64>,
    deletes_issued: u64,
    deletes_acked: u64,
}

impl OpTrack {
    fn terminal(&self) -> bool {
        self.completed_at.is_some() || self.aborted_at.is_some()
    }

    fn deletes_settled(&self) -> bool {
        self.deletes_acked >= self.deletes_issued
    }
}

/// Per-chain track: hop issue times and terminal state.
#[derive(Debug, Default, Clone)]
struct ChainTrack {
    issued_at: Option<u64>,
    /// (hop index, issue time) in issue order.
    hops: Vec<(u32, u64)>,
    /// (hop index, forward op id, issue time) of compensating moves.
    undos: Vec<(u32, u64, u64)>,
    completed_at: Option<u64>,
    aborted_at: Option<u64>,
}

#[derive(Default)]
struct MonState {
    ops: BTreeMap<u64, OpTrack>,
    chains: BTreeMap<u64, ChainTrack>,
    violations: Vec<Violation>,
}

/// The online verifier. Attach with [`crate::Recorder::add_sink`], or
/// feed events directly via [`Monitor::ingest`] (what the negative
/// tests do to corrupt a stream).
pub struct Monitor {
    cfg: MonitorConfig,
    state: Mutex<MonState>,
}

impl Monitor {
    pub fn new(cfg: MonitorConfig) -> Self {
        Monitor { cfg, state: Mutex::new(MonState::default()) }
    }

    /// Consume one recorded event. MB-side events (no parent op) carry
    /// no invariant obligations and are ignored.
    pub fn ingest(&self, ev: &RecordedEvent) {
        let Some(op) = ev.op else { return };
        let mut st = self.state.lock().unwrap();
        if op >= self.cfg.chain_op_base {
            self.ingest_chain(&mut st, op, ev);
        } else {
            self.ingest_op(&mut st, op, ev);
        }
    }

    fn ingest_op(&self, st: &mut MonState, op: u64, ev: &RecordedEvent) {
        let t = ev.t_ns;
        let track = st.ops.entry(op).or_default();

        match &ev.event {
            SpanEvent::Issued { kind } if ev.sub.is_none() => {
                track.kind.get_or_insert(kind);
                track.issued_at.get_or_insert(t);
            }
            SpanEvent::PutAdmitted { seq } => {
                track.first_admit_at.get_or_insert(t);
                track.outstanding.insert(*seq);
                // I1: occupancy bound. Checked on admission, the only
                // point it can grow.
                let w = self.cfg.transfer_window;
                if w > 0 && track.outstanding.len() > w as usize {
                    let in_flight = track.outstanding.len();
                    st.violations.push(Violation::WindowExceeded {
                        op,
                        in_flight,
                        window: w,
                        t_ns: t,
                    });
                }
            }
            SpanEvent::ChunkAcked { seq } => {
                track.outstanding.remove(seq);
            }
            SpanEvent::Completed if ev.sub.is_none() => {
                track.completed_at.get_or_insert(t);
            }
            SpanEvent::Aborted { .. } => {
                track.aborted_at.get_or_insert(t);
                // Teardown clears the pipeline.
                track.outstanding.clear();
            }
            SpanEvent::DeleteIssued { mb } => {
                // I2: deletes mutate MB state destructively — the
                // choreography only issues them once the op is
                // terminal (quiescence after Completed, compensation
                // after Aborted).
                if !track.terminal() {
                    st.violations.push(Violation::DeleteBeforeTerminal { op, mb: *mb, t_ns: t });
                }
                track.deletes_issued += 1;
                track.first_delete_at.get_or_insert(t);
            }
            SpanEvent::DeleteAcked => {
                track.deletes_acked += 1;
                track.last_delete_ack_at = Some(t);
            }
            _ => {}
        }
    }

    fn ingest_chain(&self, st: &mut MonState, chain: u64, ev: &RecordedEvent) {
        let t = ev.t_ns;
        match &ev.event {
            SpanEvent::Issued { .. } => {
                st.chains.entry(chain).or_default().issued_at.get_or_insert(t);
            }
            SpanEvent::ChainHop { hop } => {
                let track = st.chains.entry(chain).or_default();
                track.issued_at.get_or_insert(t);
                track.hops.push((*hop, t));
            }
            SpanEvent::ChainUndo { hop, undoes } => {
                // I3: compensation order. The reverse move re-creates
                // state at the source, so it must not race the forward
                // op's source deletes.
                let ok =
                    st.ops.get(undoes).is_some_and(|fwd| fwd.terminal() && fwd.deletes_settled());
                if !ok {
                    st.violations.push(Violation::EarlyRollback {
                        chain,
                        hop: *hop,
                        forward_op: *undoes,
                        t_ns: t,
                    });
                }
                st.chains.entry(chain).or_default().undos.push((*hop, *undoes, t));
            }
            SpanEvent::Completed => {
                st.chains.entry(chain).or_default().completed_at.get_or_insert(t);
            }
            SpanEvent::Aborted { .. } => {
                st.chains.entry(chain).or_default().aborted_at.get_or_insert(t);
            }
            _ => {}
        }
    }

    /// All violations detected so far, in detection order.
    pub fn violations(&self) -> Vec<Violation> {
        self.state.lock().unwrap().violations.clone()
    }

    pub fn violation_count(&self) -> usize {
        self.state.lock().unwrap().violations.len()
    }

    /// Per-op phase attribution derived from the tracked lifecycle
    /// timestamps, sorted by op id. Ops that never got past issuance
    /// report `None` for every phase.
    pub fn op_phases(&self) -> Vec<OpPhases> {
        let st = self.state.lock().unwrap();
        st.ops
            .iter()
            .map(|(&op, tr)| {
                let terminal_at = tr.completed_at.or(tr.aborted_at);
                let sub = |a: Option<u64>, b: Option<u64>| match (a, b) {
                    (Some(a), Some(b)) if b >= a => Some(b - a),
                    _ => None,
                };
                let settle_at = tr.last_delete_ack_at.or(terminal_at);
                OpPhases {
                    op,
                    kind: tr.kind,
                    committed: tr.completed_at.is_some(),
                    aborted: tr.aborted_at.is_some(),
                    admit_ns: sub(tr.issued_at, tr.first_admit_at),
                    transfer_ns: sub(tr.first_admit_at.or(tr.issued_at), terminal_at),
                    quiesce_ns: sub(terminal_at, tr.first_delete_at),
                    delete_ns: sub(tr.first_delete_at, tr.last_delete_ack_at),
                    total_ns: sub(tr.issued_at, settle_at),
                }
            })
            .collect()
    }

    /// Per-chain hop attribution: hop `h`'s forward phase spans from
    /// its issue to the next hop's issue (the chain runs hops
    /// strictly in order), the last hop ending at the chain terminal.
    pub fn chain_phases(&self) -> Vec<ChainPhases> {
        let st = self.state.lock().unwrap();
        st.chains
            .iter()
            .map(|(&chain, tr)| {
                let terminal_at = tr.completed_at.or(tr.aborted_at);
                let mut hops = Vec::new();
                for (i, &(hop, t0)) in tr.hops.iter().enumerate() {
                    let end = tr.hops.get(i + 1).map(|&(_, t)| t).or(terminal_at);
                    hops.push(HopPhase { hop, forward_ns: end.and_then(|e| e.checked_sub(t0)) });
                }
                ChainPhases {
                    chain,
                    committed: tr.completed_at.is_some(),
                    undo_count: tr.undos.len() as u32,
                    hops,
                    total_ns: match (tr.issued_at, terminal_at) {
                        (Some(a), Some(b)) if b >= a => Some(b - a),
                        _ => None,
                    },
                }
            })
            .collect()
    }

    /// Number of chains the monitor has seen without a terminal event.
    pub fn open_chains(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.chains.values().filter(|c| c.completed_at.is_none() && c.aborted_at.is_none()).count()
    }
}

impl ObsSink for Monitor {
    fn on_event(&self, ev: &RecordedEvent) {
        self.ingest(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{NodeTag, Recorder};
    use std::sync::Arc;

    fn ev(t_ns: u64, op: Option<u64>, sub: Option<u64>, event: SpanEvent) -> RecordedEvent {
        RecordedEvent { t_ns, node: NodeTag::NONE, op, sub, event }
    }

    fn cfg(window: u32) -> MonitorConfig {
        MonitorConfig { transfer_window: window, ..MonitorConfig::default() }
    }

    /// A complete well-behaved lifecycle — issue, windowed
    /// puts, acks, completion, quiescence deletes — is violation-free
    /// and yields a full phase breakdown.
    #[test]
    fn clean_lifecycle_has_no_violations() {
        let m = Monitor::new(cfg(2));
        let op = 5u64;
        m.ingest(&ev(10, Some(op), None, SpanEvent::Issued { kind: "moveInternal" }));
        m.ingest(&ev(20, Some(op), Some(6), SpanEvent::PutAdmitted { seq: 0 }));
        m.ingest(&ev(21, Some(op), Some(7), SpanEvent::PutAdmitted { seq: 1 }));
        m.ingest(&ev(30, Some(op), Some(6), SpanEvent::ChunkAcked { seq: 0 }));
        m.ingest(&ev(31, Some(op), Some(7), SpanEvent::PutAdmitted { seq: 2 }));
        m.ingest(&ev(40, Some(op), Some(7), SpanEvent::ChunkAcked { seq: 1 }));
        m.ingest(&ev(41, Some(op), Some(7), SpanEvent::ChunkAcked { seq: 2 }));
        m.ingest(&ev(50, Some(op), None, SpanEvent::Completed));
        m.ingest(&ev(60, Some(op), Some(8), SpanEvent::DeleteIssued { mb: 1 }));
        m.ingest(&ev(70, Some(op), Some(8), SpanEvent::DeleteAcked));
        assert_eq!(m.violations(), vec![], "clean stream must verify");

        let phases = m.op_phases();
        assert_eq!(phases.len(), 1);
        let p = &phases[0];
        assert!(p.committed && !p.aborted);
        assert_eq!(p.admit_ns, Some(10));
        assert_eq!(p.transfer_ns, Some(30));
        assert_eq!(p.quiesce_ns, Some(10));
        assert_eq!(p.delete_ns, Some(10));
        assert_eq!(p.total_ns, Some(60));
        assert_eq!(p.kind, Some("moveInternal"));
    }

    /// I1 negative: admitting a third put into a window of 2 without
    /// an ack in between must flag.
    #[test]
    fn detects_window_exceeded() {
        let m = Monitor::new(cfg(2));
        m.ingest(&ev(1, Some(1), None, SpanEvent::Issued { kind: "moveInternal" }));
        m.ingest(&ev(2, Some(1), Some(2), SpanEvent::PutAdmitted { seq: 0 }));
        m.ingest(&ev(3, Some(1), Some(2), SpanEvent::PutAdmitted { seq: 1 }));
        assert_eq!(m.violation_count(), 0, "at the window bound is legal");
        m.ingest(&ev(4, Some(1), Some(2), SpanEvent::PutAdmitted { seq: 2 }));
        let v = m.violations();
        assert_eq!(v, vec![Violation::WindowExceeded { op: 1, in_flight: 3, window: 2, t_ns: 4 }]);
        assert!(v[0].to_string().contains("window-exceeded(op=1"), "{}", v[0]);
    }

    /// I2 negative: a delete issued while the op is still live (not
    /// completed, not aborted) must flag; the same delete after a
    /// terminal event must not.
    #[test]
    fn detects_delete_before_terminal() {
        let m = Monitor::new(cfg(0));
        m.ingest(&ev(1, Some(1), None, SpanEvent::Issued { kind: "moveInternal" }));
        m.ingest(&ev(2, Some(1), Some(2), SpanEvent::DeleteIssued { mb: 3 }));
        assert_eq!(m.violations(), vec![Violation::DeleteBeforeTerminal { op: 1, mb: 3, t_ns: 2 }]);

        // Aborted ops may compensate freely.
        let m2 = Monitor::new(cfg(0));
        m2.ingest(&ev(1, Some(1), None, SpanEvent::Issued { kind: "moveInternal" }));
        m2.ingest(&ev(2, Some(1), None, SpanEvent::Aborted { error: "deadline".into() }));
        m2.ingest(&ev(3, Some(1), Some(2), SpanEvent::DeleteIssued { mb: 3 }));
        assert_eq!(m2.violations(), vec![]);
    }

    /// I3 negative: a chain undo racing the forward op's source
    /// deletes (issued but unacked) must flag; once the delete acks
    /// land, an undo is legal.
    #[test]
    fn detects_early_rollback() {
        let chain = (1u64 << 62) + 1;
        let m = Monitor::new(cfg(0));
        // Forward hop op 7 completes and issues its source delete...
        m.ingest(&ev(1, Some(7), None, SpanEvent::Issued { kind: "moveInternal" }));
        m.ingest(&ev(2, Some(7), None, SpanEvent::Completed));
        m.ingest(&ev(3, Some(7), Some(8), SpanEvent::DeleteIssued { mb: 0 }));
        // ...but the chain fires the compensating move before the ack.
        m.ingest(&ev(4, Some(chain), None, SpanEvent::ChainUndo { hop: 0, undoes: 7 }));
        assert_eq!(
            m.violations(),
            vec![Violation::EarlyRollback { chain, hop: 0, forward_op: 7, t_ns: 4 }]
        );

        let m2 = Monitor::new(cfg(0));
        m2.ingest(&ev(1, Some(7), None, SpanEvent::Issued { kind: "moveInternal" }));
        m2.ingest(&ev(2, Some(7), None, SpanEvent::Completed));
        m2.ingest(&ev(3, Some(7), Some(8), SpanEvent::DeleteIssued { mb: 0 }));
        m2.ingest(&ev(4, Some(7), Some(8), SpanEvent::DeleteAcked));
        m2.ingest(&ev(5, Some(chain), None, SpanEvent::ChainUndo { hop: 0, undoes: 7 }));
        assert_eq!(m2.violations(), vec![]);
    }

    /// Satellite: ring wraparound must not lose verdicts. The
    /// violating event is long evicted by the time the run ends, but
    /// the monitor saw it live.
    #[test]
    fn violations_survive_ring_wraparound() {
        let rec = Recorder::enabled(4);
        let tag = rec.register("ctrl");
        let m = Arc::new(Monitor::new(cfg(1)));
        rec.add_sink(m.clone());

        // Two admissions with no ack: the second violates window=1.
        rec.record(1, tag, Some(1), Some(2), SpanEvent::PutAdmitted { seq: 0 });
        rec.record(2, tag, Some(1), Some(2), SpanEvent::PutAdmitted { seq: 1 });
        // Flood the ring so both admissions are evicted.
        for i in 0..16u64 {
            rec.record(10 + i, tag, Some(9), Some(3), SpanEvent::ChunkAcked { seq: i });
        }
        let dump = rec.dump();
        assert!(dump.evicted >= 2, "precondition: the violating span was evicted");
        assert!(
            !dump.events.iter().any(|e| matches!(e.event, SpanEvent::PutAdmitted { .. })),
            "precondition: no admission survives in the ring"
        );
        // The verdict survived anyway.
        assert_eq!(
            m.violations(),
            vec![Violation::WindowExceeded { op: 1, in_flight: 2, window: 1, t_ns: 2 }]
        );
    }

    /// Chain phase attribution: hop spans run issue-to-next-issue,
    /// the last ending at the terminal event.
    #[test]
    fn chain_phases_attribute_hops() {
        let chain = (1u64 << 62) + 1;
        let m = Monitor::new(MonitorConfig::default());
        m.ingest(&ev(10, Some(chain), None, SpanEvent::ChainHop { hop: 0 }));
        m.ingest(&ev(40, Some(chain), None, SpanEvent::ChainHop { hop: 1 }));
        m.ingest(&ev(100, Some(chain), None, SpanEvent::Completed));
        let phases = m.chain_phases();
        assert_eq!(phases.len(), 1);
        let c = &phases[0];
        assert!(c.committed);
        assert_eq!(c.undo_count, 0);
        assert_eq!(c.total_ns, Some(90));
        assert_eq!(c.hops.len(), 2);
        assert_eq!(c.hops[0], HopPhase { hop: 0, forward_ns: Some(30) });
        assert_eq!(c.hops[1], HopPhase { hop: 1, forward_ns: Some(60) });
        assert_eq!(m.open_chains(), 0);
    }
}
