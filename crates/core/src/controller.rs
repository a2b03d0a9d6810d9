//! The MB controller (§5), sharded: N independent operation streams
//! behind the single-controller API.
//!
//! [`ControllerCore`] is the facade every embedding talks to. It owns
//! `config.shards` [`ControllerShard`]s — each a complete pure state
//! machine with its own op table, transfer ledgers, ack sets, and
//! pending-delete ledger — plus the [`ShardRouter`] that decides, per
//! operation, which shard runs it:
//!
//! * **Transfers** (`moveInternal`, `cloneSupport`, `mergeInternal`)
//!   hash `(flowspace, MB pair)` to a shard, unless they *conflict*
//!   with a live transfer — share a middlebox and have flowspaces that
//!   can select a common flow (direction-insensitively) — in which
//!   case they are pinned to that transfer's shard, where per-shard
//!   FIFO ordering serializes them. A transfer whose conflict set
//!   spans *several* shards (a bridging op between two disjoint live
//!   transfers) cannot be serialized by any placement: it is reserved
//!   on the earliest conflicting op's shard with no southbound
//!   traffic, and released — its gets finally issued — once every
//!   conflicting op on the other shards has closed. Disjoint
//!   transfers land on different shards and share no state and no
//!   ledgers.
//! * **Southbound messages** demux by op-id residue: shard `s` of `N`
//!   allocates ids `≡ s + 1 (mod N)`, so ownership is `(id - 1) % N` —
//!   O(1) arithmetic, nothing shared. Op-less introspection events
//!   route via the subscription table; anything unattributable is
//!   broadcast (non-owners drop it).
//!
//! With `config.shards == 1` (the default) the facade is byte-for-byte
//! the pre-sharding controller: same op ids, same action order, same
//! timelines — which is what keeps the seeded conformance corpus and
//! every existing embedding valid. The facade itself stays `Clone` so
//! `ControllerNode`'s crash journal snapshots routing state and shard
//! state together.
//!
//! Concurrency note: this type is single-threaded by design (the sim
//! embedding must stay deterministic), and it is the only controller
//! state machine. Both embeddings drive it: the simulator's
//! `ControllerNode` owns one directly, and [`crate::tcp::TcpController`]
//! puts one behind a single lock that its receive threads (one per
//! connected MB, as in the paper's §7 prototype), its tick thread and
//! blocking northbound callers take for one core call at a time.

use openmb_obs::{HealthSnapshot, LedgerHealth, NodeTag, Recorder, ShardHealth, SpanEvent};
use openmb_simnet::SimTime;
use openmb_types::wire::{EventFilter, Message};
use openmb_types::{ConfigValue, Error, HeaderFieldList, HierarchicalKey, MbId, OpId};

use crate::chain::{is_chain_op, ChainPhase, ChainRun, ChainSpec, ChainStatus, CHAIN_OP_BASE};
use crate::router::{Admission, Route, ShardRouter};
pub use crate::shard::{
    Action, Completion, ControllerConfig, ControllerShard, TransferKind, TransferLedgerStats,
};

/// The sharded controller: the facade embeddings drive.
///
/// `Clone` so embeddings can journal a snapshot of the whole machine
/// (shards *and* router) and restore it after a controller crash
/// without replaying the message history.
#[derive(Clone)]
pub struct ControllerCore {
    shards: Vec<ControllerShard>,
    router: ShardRouter,
    /// Live chain transactions ([`ControllerCore::chain_move`]);
    /// terminal chains are removed as their completion is emitted.
    chains: Vec<ChainRun>,
    /// Next chain id offset above [`CHAIN_OP_BASE`].
    next_chain: u64,
    /// Tunables. Mutating this after construction propagates to every
    /// shard on the next call into the core — except `shards`, which is
    /// structural and read once by [`ControllerCore::new`].
    pub config: ControllerConfig,
}

/// Has `(shard, op)` fully closed, chain-aware: chain ids close when
/// the chain transaction leaves the table; shard ops answer via
/// [`ControllerShard::op_closed`]. Every router prune/release sweep
/// must go through this — a shard answers `true` for *unknown* ops, so
/// asking it about a live chain id would free a deferral early.
fn op_or_chain_closed(
    shards: &[ControllerShard],
    chains: &[ChainRun],
    shard: usize,
    op: OpId,
) -> bool {
    if is_chain_op(op) {
        !chains.iter().any(|c| c.id == op)
    } else {
        shards[shard].op_closed(op)
    }
}

impl ControllerCore {
    /// A controller with the given tunables; `config.shards` (clamped
    /// to at least 1) fixes the shard count for the core's lifetime.
    pub fn new(config: ControllerConfig) -> Self {
        let n = config.shards.max(1) as usize;
        let shards = (0..n)
            .map(|s| ControllerShard::with_op_space(config, s as u64 + 1, n as u64))
            .collect();
        ControllerCore {
            shards,
            router: ShardRouter::new(n),
            chains: Vec::new(),
            next_chain: 0,
            config,
        }
    }

    /// Number of shards this core runs.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Immutable view of one shard (metrics, tests).
    pub fn shard(&self, s: usize) -> &ControllerShard {
        &self.shards[s]
    }

    /// The shard that owns operation `op` (by op-id residue).
    pub fn shard_of_op(&self, op: OpId) -> usize {
        self.router.shard_of_op(op)
    }

    /// The shard an incoming southbound message will be delivered to —
    /// embeddings that model per-shard service (the sim's
    /// `ControllerNode` work queues) use this to pick the queue.
    /// Broadcast messages are accounted to shard 0.
    pub fn shard_of_message(&self, from: MbId, msg: &Message) -> usize {
        match self.router.route_message(from, msg) {
            Route::Shard(s) => s,
            Route::Broadcast => 0,
        }
    }

    /// Push the (possibly mutated) facade config down to every shard.
    /// `ControllerConfig` is `Copy`, so this is a handful of word moves
    /// per call — the price of keeping `core.config.field = x` working
    /// exactly as it did pre-sharding.
    fn sync_config(&mut self) {
        for sh in &mut self.shards {
            sh.config = self.config;
        }
    }

    /// Install a flight recorder. "controller" is registered once and
    /// the tag shared across shards, so a sharded run still renders as
    /// one controller column in the op timeline.
    pub fn set_recorder(&mut self, rec: Recorder) {
        let tag = rec.register("controller");
        for sh in &mut self.shards {
            sh.set_recorder(rec.clone(), tag);
        }
    }

    /// The installed flight recorder handle (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        self.shards[0].recorder()
    }

    /// The node tag this core records under.
    pub fn recorder_tag(&self) -> NodeTag {
        self.shards[0].recorder_tag()
    }

    /// Register a middlebox; returns its handle. Every shard learns of
    /// every MB (registration is control-plane metadata, not per-shard
    /// state).
    pub fn register_mb(&mut self) -> MbId {
        let mut id = None;
        for sh in &mut self.shards {
            let got = sh.register_mb();
            debug_assert!(id.is_none_or(|i| i == got));
            id = Some(got);
        }
        id.expect("at least one shard")
    }

    // ------------------------------------------------------------------
    // Northbound operations
    // ------------------------------------------------------------------

    /// `readConfig` — routed by MB hash; simple requests carry no
    /// flowspace and need no conflict entry.
    pub fn read_config(
        &mut self,
        src: MbId,
        key: HierarchicalKey,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.sync_config();
        let s = self.router.route_simple(src);
        self.shards[s].read_config(src, key, now, out)
    }

    /// `writeConfig`.
    pub fn write_config(
        &mut self,
        dst: MbId,
        key: HierarchicalKey,
        values: Vec<ConfigValue>,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.sync_config();
        let s = self.router.route_simple(dst);
        self.shards[s].write_config(dst, key, values, now, out)
    }

    /// `delConfig`.
    pub fn del_config(
        &mut self,
        dst: MbId,
        key: HierarchicalKey,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.sync_config();
        let s = self.router.route_simple(dst);
        self.shards[s].del_config(dst, key, now, out)
    }

    /// `stats`.
    pub fn stats(
        &mut self,
        src: MbId,
        key: HeaderFieldList,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.sync_config();
        let s = self.router.route_simple(src);
        self.shards[s].stats(src, key, now, out)
    }

    /// `enableEvents` — the owning shard is recorded so op-less
    /// introspection events from this MB route to the shard holding the
    /// subscription.
    pub fn enable_events(
        &mut self,
        mb: MbId,
        filter: EventFilter,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.sync_config();
        let s = self.router.route_simple(mb);
        self.router.note_subscription(mb, s);
        self.shards[s].enable_events(mb, filter, now, out)
    }

    /// `moveInternal` — admitted through the conflict detector.
    pub fn move_internal(
        &mut self,
        src: MbId,
        dst: MbId,
        key: HeaderFieldList,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.admit_transfer(TransferKind::Move, key, src, dst, now, out)
    }

    /// `cloneSupport` — transfers *all* support state, so its conflict
    /// flowspace is the wildcard pattern.
    pub fn clone_support(
        &mut self,
        src: MbId,
        dst: MbId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.admit_transfer(TransferKind::Clone, HeaderFieldList::any(), src, dst, now, out)
    }

    /// `mergeInternal` — wildcard flowspace, like clone.
    pub fn merge_internal(
        &mut self,
        src: MbId,
        dst: MbId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.admit_transfer(TransferKind::Merge, HeaderFieldList::any(), src, dst, now, out)
    }

    /// Run `spec` as one chain-wide atomic move (see [`crate::chain`]):
    /// ordered per-hop transfers of the flow group across every MB
    /// pair in the chain, committing with [`Completion::ChainComplete`]
    /// only when ALL hops complete, and compensating completed hops
    /// with reverse moves — restoring the byte-identical pre-move
    /// image — if any hop fails. The returned id lives in the chain
    /// namespace above [`CHAIN_OP_BASE`]; per-hop moves run as ordinary
    /// shard ops under it.
    ///
    /// Admission is whole-chain: every hop registers in the conflict
    /// table (all on one shard) before hop 0 issues, so overlapping
    /// admissions — single transfers or other chains, whatever their
    /// hop order — serialize behind the entire chain rather than
    /// interleaving with it hop by hop.
    pub fn chain_move(&mut self, spec: ChainSpec, now: SimTime, out: &mut Vec<Action>) -> OpId {
        self.sync_config();
        let start = out.len();
        let id = OpId(CHAIN_OP_BASE + self.next_chain);
        self.next_chain += 1;
        if spec.hops.is_empty() {
            out.push(Action::Notify(Completion::Failed {
                op: id,
                error: Error::OpFailed("chain move with no hops".into()),
                dropped_events: 0,
            }));
            return id;
        }
        // Hops must be pairwise MB-disjoint: a chain is one position per
        // middlebox pair. Overlapping pairs would make hop k+1 pick up
        // state hop k just delivered — a pipeline, not a transaction.
        let mut mbs: Vec<MbId> = spec.hops.iter().flat_map(|h| [h.src, h.dst]).collect();
        mbs.sort_unstable();
        mbs.dedup();
        if mbs.len() != spec.hops.len() * 2 {
            out.push(Action::Notify(Completion::Failed {
                op: id,
                error: Error::OpFailed("chain hops must use disjoint middlebox pairs".into()),
                dropped_events: 0,
            }));
            return id;
        }
        let entries = spec.router_entries();
        let (shards, chains) = (&self.shards, &self.chains);
        self.router.prune(|shard, op| op_or_chain_closed(shards, chains, shard, op));
        let (shard, pinned, blockers) = match self.router.admit_chain(&entries) {
            Admission::Run { shard, pinned } => (shard, pinned, Vec::new()),
            Admission::Defer { shard, blockers } => (shard, true, blockers),
        };
        self.router.register_chain(id, &entries, shard);
        let sh = &self.shards[shard];
        sh.recorder().record(
            now.0,
            sh.recorder_tag(),
            Some(id.0),
            None,
            SpanEvent::OpRouted { shard: shard as u32, pinned },
        );
        let deferred = !blockers.is_empty();
        self.chains.push(ChainRun {
            id,
            spec,
            shard,
            // Placeholder phase; replaced below (Deferred) or by
            // issue_hop (Forward).
            phase: ChainPhase::Deferred { blockers },
            chunks_moved: 0,
            hop_ops: Vec::new(),
            aux_ops: Vec::new(),
            error: None,
            dropped_events: 0,
        });
        if !deferred {
            let ci = self.chains.len() - 1;
            self.issue_hop(ci, 0, now, out);
        }
        // Hop 0 may have failed fast (dead endpoint): consume the
        // completion and settle the chain in the same call.
        self.advance_chains(now, out, start, false);
        id
    }

    /// Issue the forward move of hop `hop` for chain `ci`, directly on
    /// the chain's shard. The router is NOT consulted: the chain's own
    /// conflict entries already cover this hop's exact footprint, so
    /// anything that could conflict with the hop is either pinned to
    /// this same shard (FIFO-serialized) or parked as a reservation
    /// that emits no traffic until the chain closes.
    fn issue_hop(&mut self, ci: usize, hop: usize, now: SimTime, out: &mut Vec<Action>) {
        let (shard, pattern, h) =
            (self.chains[ci].shard, self.chains[ci].spec.pattern, self.chains[ci].spec.hops[hop]);
        let op = self.shards[shard].move_internal(h.src, h.dst, pattern, now, out);
        let sh = &self.shards[shard];
        sh.recorder().record(
            now.0,
            sh.recorder_tag(),
            Some(op.0),
            None,
            SpanEvent::OpRouted { shard: shard as u32, pinned: true },
        );
        sh.recorder().record(
            now.0,
            sh.recorder_tag(),
            Some(self.chains[ci].id.0),
            None,
            SpanEvent::ChainHop { hop: hop as u32 },
        );
        let c = &mut self.chains[ci];
        c.phase = ChainPhase::Forward { hop, op };
        c.hop_ops.push(op);
    }

    /// Start undoing completed hop `undo` of chain `ci`: force-quiesce
    /// its forward op (`end_op` issues the source-side deletes NOW
    /// instead of waiting out the quiescence timer) and park the phase
    /// until that op fully closes. Issuing the reverse move before the
    /// forward op's deletes are *acked* would race them: a re-sent
    /// delete landing after the reverse move's puts would destroy the
    /// state the rollback just restored.
    fn begin_undo(&mut self, ci: usize, undo: usize, now: SimTime, out: &mut Vec<Action>) {
        let (shard, fwd) = (self.chains[ci].shard, self.chains[ci].hop_ops[undo]);
        self.shards[shard].end_op(fwd, now, out);
        let retries_left = match self.chains[ci].phase {
            ChainPhase::Rollback { retries_left, .. } => retries_left,
            _ => self.config.chain_rollback_retries,
        };
        self.chains[ci].phase = ChainPhase::Rollback { undo, op: None, retries_left, paced: false };
    }

    /// Issue the compensating reverse move (`dst → src`) of completed
    /// hop `undo` for chain `ci`. Only called once hop `undo`'s forward
    /// op has closed (see [`Self::begin_undo`]).
    fn issue_reverse(&mut self, ci: usize, undo: usize, now: SimTime, out: &mut Vec<Action>) {
        let (shard, pattern, h) =
            (self.chains[ci].shard, self.chains[ci].spec.pattern, self.chains[ci].spec.hops[undo]);
        let retries_left = match self.chains[ci].phase {
            ChainPhase::Rollback { retries_left, .. } => retries_left,
            _ => self.config.chain_rollback_retries,
        };
        let op = self.shards[shard].move_internal(h.dst, h.src, pattern, now, out);
        let fwd = self.chains[ci].hop_ops[undo];
        let sh = &self.shards[shard];
        sh.recorder().record(
            now.0,
            sh.recorder_tag(),
            Some(op.0),
            None,
            SpanEvent::OpRouted { shard: shard as u32, pinned: true },
        );
        sh.recorder().record(
            now.0,
            sh.recorder_tag(),
            Some(self.chains[ci].id.0),
            None,
            SpanEvent::ChainUndo { hop: undo as u32, undoes: fwd.0 },
        );
        self.chains[ci].aux_ops.push((undo, op));
        self.chains[ci].phase =
            ChainPhase::Rollback { undo, op: Some(op), retries_left, paced: false };
    }

    /// Remove a terminal chain and emit its completion. Hop ops (and
    /// reverse ops) that can still emit southbound traffic — pending
    /// quiescence or compensating deletes — are re-registered in the
    /// conflict table under their own ids, so later admissions on the
    /// chain's flowspace keep serializing behind the drain exactly as
    /// they would behind a single transfer's close-out.
    fn settle_chain(
        &mut self,
        ci: usize,
        completion: Completion,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let c = self.chains.remove(ci);
        let hop_iter = c.hop_ops.iter().enumerate().map(|(hop, op)| (hop, *op));
        for (hop, op) in hop_iter.chain(c.aux_ops.iter().copied()) {
            if !self.shards[c.shard].op_closed(op) {
                let h = c.spec.hops[hop];
                self.router.register_transfer(op, c.spec.pattern, h.src, h.dst, c.shard);
            }
        }
        let sh = &self.shards[c.shard];
        match &completion {
            Completion::Failed { error, .. } => {
                let msg = error.to_string();
                sh.recorder().record_with(now.0, sh.recorder_tag(), Some(c.id.0), None, || {
                    SpanEvent::Aborted { error: msg.clone() }
                });
            }
            _ => {
                sh.recorder().record(
                    now.0,
                    sh.recorder_tag(),
                    Some(c.id.0),
                    None,
                    SpanEvent::Completed,
                );
            }
        }
        out.push(Action::Notify(completion));
    }

    /// Advance every live chain against the completions appended to
    /// `out` since `start`, to a fixpoint. Runs at the tail of every
    /// state-advancing entry point. `reissue` (true from the paced
    /// entry points: tick, reachability changes) re-attempts a
    /// rollback's reverse move that failed earlier — failures usually
    /// mean the target endpoint is down, so back-to-back retries
    /// inside one call would only burn the retry budget.
    ///
    /// Consuming completions from `out` is race-free: hop moves never
    /// complete synchronously (a move always awaits MB replies), so a
    /// completion for a chain's expected op can only appear in the
    /// region this very call appended — and once consumed, the phase's
    /// expected op changes, making the scan idempotent.
    fn advance_chains(&mut self, now: SimTime, out: &mut Vec<Action>, start: usize, reissue: bool) {
        if self.chains.is_empty() {
            return;
        }
        if reissue {
            // Un-park paced rollback retries; the fixpoint below
            // re-issues them (and anything else whose wait is over).
            for c in &mut self.chains {
                if let ChainPhase::Rollback { paced: paced @ true, op: None, .. } = &mut c.phase {
                    *paced = false;
                }
            }
        }
        let mut closed_any = false;
        'fixpoint: loop {
            // Deferred chains whose blockers have all closed start hop 0.
            for ci in 0..self.chains.len() {
                let ready = match &self.chains[ci].phase {
                    ChainPhase::Deferred { blockers } => {
                        let (shards, chains) = (&self.shards, &self.chains);
                        blockers.iter().all(|&(s, op)| op_or_chain_closed(shards, chains, s, op))
                    }
                    _ => false,
                };
                if ready {
                    self.issue_hop(ci, 0, now, out);
                    continue 'fixpoint;
                }
            }
            // Rollbacks waiting on their hop's forward op to close
            // issue the reverse move the moment the deletes are acked.
            for ci in 0..self.chains.len() {
                if let ChainPhase::Rollback { undo, op: None, paced: false, .. } =
                    self.chains[ci].phase
                {
                    let (shard, fwd) = (self.chains[ci].shard, self.chains[ci].hop_ops[undo]);
                    if self.shards[shard].op_closed(fwd) {
                        self.issue_reverse(ci, undo, now, out);
                        continue 'fixpoint;
                    }
                }
            }
            // One phase transition per pass: find the first completion
            // in the scan region that concludes some chain's in-flight
            // op, apply it, and rescan (the transition may append new
            // actions — a fail-fast hop, a commit notification).
            for i in start..out.len() {
                let Action::Notify(c) = &out[i] else { continue };
                let (done, failed) = match c {
                    Completion::MoveComplete { op, chunks_moved } => {
                        (Some((*op, *chunks_moved)), None)
                    }
                    Completion::Failed { op, error, dropped_events } => {
                        (None, Some((*op, error.clone(), *dropped_events)))
                    }
                    _ => continue,
                };
                if let Some((op, chunks)) = done {
                    for ci in 0..self.chains.len() {
                        match self.chains[ci].phase {
                            ChainPhase::Forward { hop, op: expect } if expect == op => {
                                self.chains[ci].chunks_moved += chunks;
                                if hop + 1 < self.chains[ci].spec.hops.len() {
                                    self.issue_hop(ci, hop + 1, now, out);
                                } else {
                                    let completion = Completion::ChainComplete {
                                        op: self.chains[ci].id,
                                        hops: self.chains[ci].spec.hops.len(),
                                        chunks_moved: self.chains[ci].chunks_moved,
                                    };
                                    self.settle_chain(ci, completion, now, out);
                                    closed_any = true;
                                }
                                continue 'fixpoint;
                            }
                            ChainPhase::Rollback { undo, op: Some(expect), .. } if expect == op => {
                                if undo == 0 {
                                    let completion = Completion::Failed {
                                        op: self.chains[ci].id,
                                        error: self.chains[ci].error.clone().unwrap_or_else(|| {
                                            Error::OpFailed("chain hop failed".into())
                                        }),
                                        dropped_events: self.chains[ci].dropped_events,
                                    };
                                    self.settle_chain(ci, completion, now, out);
                                    closed_any = true;
                                } else {
                                    self.begin_undo(ci, undo - 1, now, out);
                                }
                                continue 'fixpoint;
                            }
                            _ => {}
                        }
                    }
                }
                if let Some((op, error, dropped)) = failed {
                    for ci in 0..self.chains.len() {
                        match self.chains[ci].phase {
                            ChainPhase::Forward { hop, op: expect } if expect == op => {
                                self.chains[ci].error = Some(error);
                                self.chains[ci].dropped_events += dropped;
                                if hop == 0 {
                                    // Nothing completed: abort clean.
                                    let completion = Completion::Failed {
                                        op: self.chains[ci].id,
                                        error: self.chains[ci].error.clone().expect("just set"),
                                        dropped_events: self.chains[ci].dropped_events,
                                    };
                                    self.settle_chain(ci, completion, now, out);
                                    closed_any = true;
                                } else {
                                    self.chains[ci].phase = ChainPhase::Rollback {
                                        undo: hop - 1,
                                        op: None,
                                        retries_left: self.config.chain_rollback_retries,
                                        paced: false,
                                    };
                                    // Force-quiesce the completed hop;
                                    // its close gates the reverse move.
                                    self.begin_undo(ci, hop - 1, now, out);
                                }
                                continue 'fixpoint;
                            }
                            ChainPhase::Rollback {
                                undo, op: Some(expect), retries_left, ..
                            } if expect == op => {
                                self.chains[ci].dropped_events += dropped;
                                if retries_left == 0 {
                                    let completion = Completion::Failed {
                                        op: self.chains[ci].id,
                                        error: Error::OpFailed("chain rollback incomplete".into()),
                                        dropped_events: self.chains[ci].dropped_events,
                                    };
                                    self.settle_chain(ci, completion, now, out);
                                    closed_any = true;
                                } else {
                                    // Park; a paced entry point
                                    // (tick / reachability) retries.
                                    self.chains[ci].phase = ChainPhase::Rollback {
                                        undo,
                                        op: None,
                                        retries_left: retries_left - 1,
                                        paced: true,
                                    };
                                }
                                continue 'fixpoint;
                            }
                            _ => {}
                        }
                    }
                }
            }
            break;
        }
        if closed_any {
            // A closed chain may have been the last blocker of a
            // deferred transfer (or another chain — handled above).
            self.release_deferred(now, out);
        }
    }

    /// Shared transfer-admission path: prune the conflict table, ask
    /// the router for a verdict, then either run the op on its shard or
    /// — when the conflict set spans several shards — reserve it there
    /// and queue it behind its cross-shard blockers. Either way the
    /// flowspace registers as live, so later admissions serialize
    /// against the op from the moment its id exists.
    fn admit_transfer(
        &mut self,
        kind: TransferKind,
        pattern: HeaderFieldList,
        src: MbId,
        dst: MbId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.sync_config();
        let start = out.len();
        let (shards, chains) = (&self.shards, &self.chains);
        self.router.prune(|shard, op| op_or_chain_closed(shards, chains, shard, op));
        let (s, pinned, blockers) = match self.router.admit(&pattern, src, dst) {
            Admission::Run { shard, pinned } => (shard, pinned, Vec::new()),
            Admission::Defer { shard, blockers } => (shard, true, blockers),
        };
        let op = if blockers.is_empty() {
            match kind {
                TransferKind::Move => self.shards[s].move_internal(src, dst, pattern, now, out),
                TransferKind::Clone => self.shards[s].clone_support(src, dst, now, out),
                TransferKind::Merge => self.shards[s].merge_internal(src, dst, now, out),
            }
        } else {
            self.shards[s].reserve_transfer(kind, src, dst, pattern, now, out)
        };
        let sh = &self.shards[s];
        sh.recorder().record(
            now.0,
            sh.recorder_tag(),
            Some(op.0),
            None,
            SpanEvent::OpRouted { shard: s as u32, pinned },
        );
        self.router.register_transfer(op, pattern, src, dst, s);
        if !blockers.is_empty() && !self.shards[s].op_closed(op) {
            // op_closed here means validation failed fast: the op is
            // already terminal and must never sit in the release queue.
            self.router.push_deferred(op, s, blockers);
        }
        // Admission pruned the conflict table; that may have been the
        // last close an earlier deferral was waiting on.
        self.release_deferred(now, out);
        self.advance_chains(now, out, start, false);
        op
    }

    /// Release reserved transfers whose cross-shard blockers have all
    /// closed. Runs after every state-advancing entry point; one
    /// branch when nothing is deferred (the overwhelmingly common
    /// case), a sweep over the queue otherwise.
    fn release_deferred(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if !self.router.has_deferred() {
            return;
        }
        let (shards, chains) = (&self.shards, &self.chains);
        let ready =
            self.router.drain_releasable(|shard, op| op_or_chain_closed(shards, chains, shard, op));
        for (shard, op) in ready {
            self.shards[shard].release_transfer(op, now, out);
        }
    }

    /// `endOp`. (`now` timestamps the quiescence deletes this issues;
    /// any deferral this unblocks is still released by the next
    /// state-advancing entry point — tick or message.)
    pub fn end_op(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        self.sync_config();
        let s = self.router.shard_of_op(op);
        self.shards[s].end_op(op, now, out);
    }

    // ------------------------------------------------------------------
    // Southbound
    // ------------------------------------------------------------------

    /// Process one message arriving from middlebox `from`, delivering
    /// it to the owning shard (or all shards, for the rare
    /// unattributable message). Batch frames are unpacked here so each
    /// inner message routes independently.
    pub fn handle_mb_message(
        &mut self,
        from: MbId,
        msg: Message,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        self.sync_config();
        if matches!(msg, Message::Batch { .. }) {
            msg.for_each_unbatched(|m| self.handle_mb_message(from, m, now, out));
            return;
        }
        let start = out.len();
        match self.router.route_message(from, &msg) {
            Route::Shard(s) => self.shards[s].handle_mb_message(from, msg, now, out),
            Route::Broadcast => {
                for sh in &mut self.shards {
                    sh.handle_mb_message(from, msg.clone(), now, out);
                }
            }
        }
        // The message may have closed the last blocker of a deferral
        // (final delete ack, terminal op ack).
        self.release_deferred(now, out);
        // ...or completed/failed the in-flight hop of a chain.
        self.advance_chains(now, out, start, false);
    }

    /// An MB became unreachable: every shard may hold ops touching it,
    /// so all of them must park/abort — correctness over hot-path cost
    /// (reachability changes are rare).
    pub fn mark_unreachable(&mut self, mb: MbId, now: SimTime, out: &mut Vec<Action>) {
        self.sync_config();
        let start = out.len();
        for sh in &mut self.shards {
            sh.mark_unreachable(mb, now, out);
        }
        // Aborted blockers count as closed; swept/released here.
        self.release_deferred(now, out);
        // An aborted hop op sends its chain into rollback.
        self.advance_chains(now, out, start, false);
    }

    /// An MB came back: broadcast, mirroring `mark_unreachable`.
    pub fn mark_reachable(&mut self, mb: MbId, now: SimTime, out: &mut Vec<Action>) {
        self.sync_config();
        let start = out.len();
        for sh in &mut self.shards {
            sh.mark_reachable(mb, now, out);
        }
        self.release_deferred(now, out);
        // The endpoint a parked reverse move was waiting for may be
        // back: re-attempt rollbacks now.
        self.advance_chains(now, out, start, true);
    }

    /// Is `mb` currently marked unreachable? (The set is broadcast, so
    /// any shard can answer.)
    pub fn is_unreachable(&self, mb: MbId) -> bool {
        self.shards[0].is_unreachable(mb)
    }

    /// Periodic maintenance, shard by shard in index order — the order
    /// is fixed so a seeded sim run replays byte-identically.
    pub fn tick(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.sync_config();
        let start = out.len();
        for sh in &mut self.shards {
            sh.tick(now, out);
        }
        // Quiescence and deadline aborts close ops: the sweep that
        // eventually releases any deferral, whatever else happens.
        self.release_deferred(now, out);
        // Deadline-aborted hops start rollbacks; parked reverse moves
        // get their paced re-attempt.
        self.advance_chains(now, out, start, true);
    }

    // ------------------------------------------------------------------
    // Introspection / metrics
    // ------------------------------------------------------------------

    /// Operations not yet quiesced plus actively re-delivered deletes,
    /// across all shards — plus live chain transactions, so embeddings
    /// keep the maintenance timer armed while a chain is between hops
    /// or pacing a rollback retry.
    pub fn open_ops(&self) -> usize {
        self.shards.iter().map(|s| s.open_ops()).sum::<usize>() + self.chains.len()
    }

    /// Chain transactions still running (any phase).
    pub fn open_chains(&self) -> usize {
        self.chains.len()
    }

    /// Current phase of chain `id`; `None` once terminal (its
    /// [`Completion::ChainComplete`] / [`Completion::Failed`] has been
    /// emitted) or for ids that are not chains.
    pub fn chain_status(&self, id: OpId) -> Option<ChainStatus> {
        self.chains.iter().find(|c| c.id == id).map(|c| c.status())
    }

    /// Forward hop ops issued so far by live chain `id`, in hop order
    /// (diagnostics, tests). Empty once the chain is terminal.
    pub fn chain_hop_ops(&self, id: OpId) -> Vec<OpId> {
        self.chains.iter().find(|c| c.id == id).map(|c| c.hop_ops.clone()).unwrap_or_default()
    }

    /// Southbound messages brokered, across all shards.
    pub fn messages_handled(&self) -> u64 {
        self.shards.iter().map(|s| s.messages_handled).sum()
    }

    /// Peak reprocess-event buffer depth observed on any one shard.
    pub fn events_buffered_peak(&self) -> usize {
        self.shards.iter().map(|s| s.events_buffered_peak).max().unwrap_or(0)
    }

    /// Events forwarded under an operation (experiments).
    pub fn events_forwarded(&self, op: OpId) -> u64 {
        self.shards[self.router.shard_of_op(op)].events_forwarded(op)
    }

    /// Total chunks transferred under an operation (experiments).
    pub fn chunks_moved(&self, op: OpId) -> usize {
        self.shards[self.router.shard_of_op(op)].chunks_moved(op)
    }

    /// Transfer-ledger snapshot for `op`: per-op fields from the owning
    /// shard; cache counters summed across shards; `in_flight_peak` is
    /// the largest any single shard saw (each shard's ledger is
    /// independently window-bounded, which is the invariant the
    /// conformance suite asserts).
    pub fn transfer_ledger_stats(&self, op: OpId) -> TransferLedgerStats {
        let mut merged = self.shards[self.router.shard_of_op(op)].transfer_ledger_stats(op);
        merged.in_flight_peak = 0;
        merged.cache_hits = 0;
        merged.cache_misses = 0;
        merged.bodies_sent = 0;
        merged.bytes_saved = 0;
        for sh in &self.shards {
            let s = sh.transfer_ledger_stats(op);
            merged.in_flight_peak = merged.in_flight_peak.max(s.in_flight_peak);
            merged.cache_hits += s.cache_hits;
            merged.cache_misses += s.cache_misses;
            merged.bodies_sent += s.bodies_sent;
            merged.bytes_saved += s.bytes_saved;
        }
        merged
    }

    /// One point-in-time health capture: per-shard load, deferred ops,
    /// open chains, and the aggregate transfer ledger. `violations` is
    /// supplied by the caller (the invariant [`openmb_obs::Monitor`]
    /// lives in the embedding, not in the core); queue depth / busy
    /// fields are zero here and filled in by embeddings that model
    /// per-shard service queues (the sim's `ControllerNode`).
    pub fn health_snapshot(&self, t_ns: u64, violations: u64) -> HealthSnapshot {
        let mut ledger = LedgerHealth::default();
        let mut shards = Vec::with_capacity(self.shards.len());
        for (i, sh) in self.shards.iter().enumerate() {
            let a = sh.aggregate_ledger_stats();
            ledger.puts_in_flight += a.puts_in_flight as u64;
            ledger.puts_queued += a.puts_queued as u64;
            ledger.ack_set_size += a.ack_set_size as u64;
            ledger.bodies_in_flight += a.bodies_in_flight as u64;
            ledger.in_flight_peak = ledger.in_flight_peak.max(a.in_flight_peak as u64);
            ledger.cache_hits += a.cache_hits;
            ledger.cache_misses += a.cache_misses;
            ledger.bodies_sent += a.bodies_sent;
            ledger.bytes_saved += a.bytes_saved;
            shards.push(ShardHealth {
                shard: i as u32,
                open_ops: sh.open_ops() as u64,
                deferred_ops: sh.deferred_ops() as u64,
                queue_depth: 0,
                queue_depth_peak: 0,
                busy: false,
            });
        }
        HealthSnapshot { t_ns, shards, open_chains: self.chains.len() as u64, ledger, violations }
    }

    /// Live transfers currently pinned in the router's conflict table
    /// (diagnostics; shrinks lazily on the next admission).
    pub fn active_transfers(&self) -> usize {
        self.router.active_transfers()
    }

    /// Transfers reserved under a cross-shard conflict and still
    /// awaiting release (diagnostics, tests).
    pub fn deferred_transfers(&self) -> usize {
        self.router.deferred_transfers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_simnet::SimTime;
    use openmb_types::IpPrefix;
    use std::net::Ipv4Addr;

    /// Two-sided subnet pattern — flows staying inside `10.b.0.0/16`,
    /// the disjoint-tenant flowspace shape the bench uses.
    fn subnet(b: u8) -> HeaderFieldList {
        let p = IpPrefix::new(Ipv4Addr::new(10, b, 0, 0), 16);
        HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
    }

    fn sharded(n: u32) -> (ControllerCore, MbId, MbId, MbId, MbId) {
        let mut core =
            ControllerCore::new(ControllerConfig { shards: n, ..ControllerConfig::default() });
        let a = core.register_mb();
        let b = core.register_mb();
        let c = core.register_mb();
        let d = core.register_mb();
        (core, a, b, c, d)
    }

    #[test]
    fn single_shard_alloc_matches_legacy_sequence() {
        let (mut core, a, b, _, _) = sharded(1);
        let mut out = Vec::new();
        let op1 = core.move_internal(a, b, subnet(0), SimTime(0), &mut out);
        assert_eq!(core.shard_of_op(op1), 0);
        // Shard 0 of 1 allocates 1, 2, 3, … — op 1 plus its sub-ops,
        // exactly the pre-sharding id stream.
        assert_eq!(op1, OpId(1));
    }

    #[test]
    fn disjoint_moves_get_disjoint_op_residues() {
        let mut core =
            ControllerCore::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..8).map(|_| core.register_mb()).collect();
        let mut out = Vec::new();
        // Four disjoint-subnet moves on four disjoint MB pairs: none
        // conflict, so placement is pure hash and must actually spread
        // over more than one shard (ledger disjointness is what the
        // multi-op bench's speedup rests on).
        let shards: std::collections::HashSet<usize> = (0..4usize)
            .map(|i| {
                let op = core.move_internal(
                    mbs[2 * i],
                    mbs[2 * i + 1],
                    subnet(i as u8),
                    SimTime(0),
                    &mut out,
                );
                assert_eq!((op.0 - 1) % 4, core.shard_of_op(op) as u64);
                core.shard_of_op(op)
            })
            .collect();
        assert!(shards.len() > 1, "disjoint moves must parallelize: {shards:?}");
    }

    #[test]
    fn overlapping_move_is_pinned_to_the_live_ops_shard() {
        let (mut core, a, b, c, _) = sharded(4);
        let mut out = Vec::new();
        let op1 = core.move_internal(a, b, subnet(0), SimTime(0), &mut out);
        // Same flowspace on a pair sharing MB `b`: must serialize on
        // op1's shard regardless of its own hash.
        let op2 = core.move_internal(b, c, subnet(0), SimTime(0), &mut out);
        assert_eq!(core.shard_of_op(op1), core.shard_of_op(op2));
        assert_eq!(core.active_transfers(), 2);
    }

    #[test]
    fn bridging_clone_defers_then_releases_when_its_blocker_closes() {
        let mut core =
            ControllerCore::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..8).map(|_| core.register_mb()).collect();
        // Two disjoint moves whose hash placements differ (such a pair
        // exists: the bench subnets spread over more than one shard).
        let router = ShardRouter::new(4);
        let place = |i: usize| router.hash_shard(&subnet(i as u8), mbs[2 * i], mbs[2 * i + 1]);
        let (i, j) = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && place(a) != place(b))
            .expect("bench subnets spread over more than one shard");
        let mut out = Vec::new();
        let op_a =
            core.move_internal(mbs[2 * i], mbs[2 * i + 1], subnet(i as u8), SimTime(0), &mut out);
        out.clear();
        let op_b =
            core.move_internal(mbs[2 * j], mbs[2 * j + 1], subnet(j as u8), SimTime(0), &mut out);
        assert_ne!(core.shard_of_op(op_a), core.shard_of_op(op_b));
        let subs_b: Vec<OpId> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToMb(_, Message::GetSupportPerflow { op, .. })
                | Action::ToMb(_, Message::GetReportPerflow { op, .. }) => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(subs_b.len(), 2);
        out.clear();
        // A wildcard clone bridging one endpoint of each live move
        // conflicts on two shards at once: it must reserve without any
        // southbound traffic, on the earliest conflicting op's shard.
        let op_c = core.clone_support(mbs[2 * i + 1], mbs[2 * j], SimTime(0), &mut out);
        assert!(
            out.iter().all(|a| !matches!(a, Action::ToMb(..))),
            "a deferred transfer must emit no southbound traffic: {out:?}"
        );
        assert_eq!(core.deferred_transfers(), 1);
        assert_eq!(core.shard_of_op(op_c), core.shard_of_op(op_a));
        out.clear();
        // Close the blocking move (op_b, the one on the other shard):
        // empty get streams complete it...
        let src_b = mbs[2 * j];
        let t1 = SimTime(1_000_000);
        for sub in &subs_b {
            core.handle_mb_message(src_b, Message::GetAck { op: *sub, count: 0 }, t1, &mut out);
        }
        // ...but completed-not-quiesced still owes deletes: not closed.
        assert_eq!(core.deferred_transfers(), 1);
        out.clear();
        // Quiescence (500ms after last activity) emits the source-side
        // deletes; the op stays open until they are acked.
        core.tick(SimTime(601_000_000), &mut out);
        let dels: Vec<OpId> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToMb(_, Message::DelSupportPerflow { op, .. })
                | Action::ToMb(_, Message::DelReportPerflow { op, .. }) => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(dels.len(), 2);
        assert_eq!(core.deferred_transfers(), 1);
        out.clear();
        // Acking both deletes fully closes op_b; the release fires
        // inside the same handle_mb_message call and the clone finally
        // issues its shared get — with op_a still live on its own
        // shard, where FIFO ordering serializes the remaining conflict.
        core.handle_mb_message(
            src_b,
            Message::OpAck { op: dels[0] },
            SimTime(602_000_000),
            &mut out,
        );
        core.handle_mb_message(
            src_b,
            Message::OpAck { op: dels[1] },
            SimTime(603_000_000),
            &mut out,
        );
        assert_eq!(core.deferred_transfers(), 0);
        let gets: Vec<&Action> = out
            .iter()
            .filter(|a| matches!(a, Action::ToMb(_, Message::GetSupportShared { .. })))
            .collect();
        assert_eq!(gets.len(), 1, "released clone must issue its shared get: {out:?}");
    }

    /// The `(sub, src)` pairs of a move's two get requests in `out`.
    fn move_gets(out: &[Action]) -> Vec<(OpId, MbId)> {
        out.iter()
            .filter_map(|a| match a {
                Action::ToMb(mb, Message::GetSupportPerflow { op, .. })
                | Action::ToMb(mb, Message::GetReportPerflow { op, .. }) => Some((*op, *mb)),
                _ => None,
            })
            .collect()
    }

    /// Complete a move whose two gets are in `out[at..]` by answering
    /// both with empty streams; returns the remainder of the actions.
    fn ack_gets(core: &mut ControllerCore, gets: &[(OpId, MbId)], t: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        for (sub, mb) in gets {
            core.handle_mb_message(*mb, Message::GetAck { op: *sub, count: 0 }, t, &mut out);
        }
        out
    }

    #[test]
    fn chain_runs_hops_in_order_and_commits_once() {
        use crate::chain::{ChainHop, ChainSpec, ChainStatus};
        let (mut core, a, b, c, d) = sharded(4);
        let mut out = Vec::new();
        let chain = core.chain_move(
            ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: c, dst: d }],
            ),
            SimTime(0),
            &mut out,
        );
        assert!(chain.0 >= crate::chain::CHAIN_OP_BASE);
        assert_eq!(core.chain_status(chain), Some(ChainStatus::Forward(0)));
        // Only hop 0's gets are on the wire; hop 1 must wait.
        let gets0 = move_gets(&out);
        assert_eq!(gets0.len(), 2);
        assert!(gets0.iter().all(|&(_, mb)| mb == a), "hop 0 streams from {a}: {out:?}");
        // Every hop entry occupies the conflict table under the chain id.
        assert_eq!(core.active_transfers(), 2);
        // Completing hop 0 issues hop 1 in the same southbound call.
        let out1 = ack_gets(&mut core, &gets0, SimTime(1_000_000));
        assert_eq!(core.chain_status(chain), Some(ChainStatus::Forward(1)));
        let gets1 = move_gets(&out1);
        assert_eq!(gets1.len(), 2);
        assert!(gets1.iter().all(|&(_, mb)| mb == c));
        assert!(
            !out1.iter().any(|x| matches!(x, Action::Notify(Completion::ChainComplete { .. }))),
            "chain must not commit before its last hop"
        );
        // Both hop ops run on the chain's one shard.
        let hops = core.chain_hop_ops(chain);
        assert_eq!(hops.len(), 2);
        assert_eq!(core.shard_of_op(hops[0]), core.shard_of_op(hops[1]));
        // Completing hop 1 commits the chain.
        let out2 = ack_gets(&mut core, &gets1, SimTime(2_000_000));
        assert!(
            out2.iter().any(|x| matches!(
                x,
                Action::Notify(Completion::ChainComplete { op, hops: 2, .. }) if *op == chain
            )),
            "commit expected: {out2:?}"
        );
        assert_eq!(core.chain_status(chain), None);
        assert_eq!(core.open_chains(), 0);
    }

    #[test]
    fn chain_hop_failure_compensates_completed_hops_in_reverse() {
        use crate::chain::{ChainHop, ChainSpec, ChainStatus};
        let (mut core, a, b, c, d) = sharded(4);
        let mut out = Vec::new();
        let chain = core.chain_move(
            ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: c, dst: d }],
            ),
            SimTime(0),
            &mut out,
        );
        let gets0 = move_gets(&out);
        let out1 = ack_gets(&mut core, &gets0, SimTime(1_000_000));
        assert_eq!(core.chain_status(chain), Some(ChainStatus::Forward(1)));
        // Hop 1's destination dies: the hop aborts and the chain starts
        // compensating hop 0 — but FIRST it force-quiesces hop 0's
        // forward op (source-side deletes at a), because a delete
        // re-sent after the reverse move's puts would destroy the very
        // state the rollback restores.
        let _ = out1;
        let mut out2 = Vec::new();
        core.mark_unreachable(d, SimTime(2_000_000), &mut out2);
        assert_eq!(core.chain_status(chain), Some(ChainStatus::Rollback(0)));
        assert!(move_gets(&out2).is_empty(), "no reverse move before hop 0 closes: {out2:?}");
        let dels: Vec<(OpId, MbId)> = out2
            .iter()
            .filter_map(|x| match x {
                Action::ToMb(mb, Message::DelSupportPerflow { op, .. })
                | Action::ToMb(mb, Message::DelReportPerflow { op, .. }) => Some((*op, *mb)),
                _ => None,
            })
            .collect();
        assert_eq!(dels.len(), 2, "hop 0 force-quiesce deletes at its source: {out2:?}");
        assert!(dels.iter().all(|&(_, mb)| mb == a));
        // Acking the deletes closes hop 0's forward op; the reverse
        // move (state back from b to a) issues in the same call.
        let mut out3 = Vec::new();
        for (sub, mb) in &dels {
            core.handle_mb_message(*mb, Message::OpAck { op: *sub }, SimTime(2_500_000), &mut out3);
        }
        let rev = move_gets(&out3);
        assert_eq!(rev.len(), 2);
        assert!(rev.iter().all(|&(_, mb)| mb == b), "reverse move streams from {b}: {out3:?}");
        // Completing the reverse move settles the chain as Failed with
        // the hop's original error.
        let out3 = ack_gets(&mut core, &rev, SimTime(3_000_000));
        let failed = out3.iter().find_map(|x| match x {
            Action::Notify(Completion::Failed { op, error, .. }) if *op == chain => Some(error),
            _ => None,
        });
        assert!(
            matches!(failed, Some(Error::MbUnreachable(mb)) if *mb == d),
            "chain Failed with the aborting hop's error expected: {out3:?}"
        );
        assert_eq!(core.chain_status(chain), None);
    }

    #[test]
    fn chain_with_dead_first_hop_aborts_without_compensation() {
        use crate::chain::{ChainHop, ChainSpec};
        let (mut core, a, b, c, d) = sharded(4);
        let mut out = Vec::new();
        core.mark_unreachable(a, SimTime(0), &mut out);
        out.clear();
        let chain = core.chain_move(
            ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: c, dst: d }],
            ),
            SimTime(0),
            &mut out,
        );
        // Hop 0 fails fast; nothing completed, so the chain settles in
        // the same call with no reverse traffic.
        assert!(out.iter().any(|x| matches!(
            x,
            Action::Notify(Completion::Failed { op, .. }) if *op == chain
        )));
        assert_eq!(core.chain_status(chain), None);
        assert!(move_gets(&out).is_empty());
    }

    #[test]
    fn chain_rejects_overlapping_hop_pairs() {
        use crate::chain::{ChainHop, ChainSpec};
        let (mut core, a, b, c, _) = sharded(2);
        let mut out = Vec::new();
        let chain = core.chain_move(
            ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: b, dst: c }],
            ),
            SimTime(0),
            &mut out,
        );
        assert!(out.iter().any(|x| matches!(
            x,
            Action::Notify(Completion::Failed { op, .. }) if *op == chain
        )));
        assert_eq!(core.active_transfers(), 0, "a rejected chain must pin nothing");
    }

    #[test]
    fn transfers_overlapping_a_chain_serialize_behind_the_whole_chain() {
        use crate::chain::{ChainHop, ChainSpec};
        let (mut core, a, b, c, d) = sharded(4);
        let mut out = Vec::new();
        let chain = core.chain_move(
            ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: c, dst: d }],
            ),
            SimTime(0),
            &mut out,
        );
        // A single-pair move overlapping the LAST hop's MB pair pins to
        // the chain's shard even while the chain is still on hop 0.
        let mut out2 = Vec::new();
        let op = core.move_internal(d, a, subnet(0), SimTime(0), &mut out2);
        let hops = core.chain_hop_ops(chain);
        assert_eq!(core.shard_of_op(op), core.shard_of_op(hops[0]));
    }

    #[test]
    fn deferred_transfer_is_released_when_its_blocker_aborts_on_deadline() {
        let mut core =
            ControllerCore::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..8).map(|_| core.register_mb()).collect();
        let router = ShardRouter::new(4);
        let place = |i: usize| router.hash_shard(&subnet(i as u8), mbs[2 * i], mbs[2 * i + 1]);
        let (i, j) = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && place(a) != place(b))
            .expect("bench subnets spread over more than one shard");
        let mut out = Vec::new();
        let op_a =
            core.move_internal(mbs[2 * i], mbs[2 * i + 1], subnet(i as u8), SimTime(0), &mut out);
        let op_b =
            core.move_internal(mbs[2 * j], mbs[2 * j + 1], subnet(j as u8), SimTime(0), &mut out);
        assert_ne!(core.shard_of_op(op_a), core.shard_of_op(op_b));
        out.clear();
        // Bridging clone admitted 5s in: defers behind the cross-shard
        // blocker, with its own deadline running from t=5s.
        let t5 = SimTime(5_000_000_000);
        let op_c = core.clone_support(mbs[2 * i + 1], mbs[2 * j], t5, &mut out);
        assert_eq!(core.deferred_transfers(), 1);
        assert!(core.shard(core.shard_of_op(op_c)).op_deferred(op_c));
        out.clear();
        // At t=11s both moves blow their 10s deadline and abort. The
        // aborted blocker counts as closed, so the SAME tick must
        // release the clone — which, at 6s of age, is still inside its
        // own deadline and finally issues its shared get.
        core.tick(SimTime(11_000_000_000), &mut out);
        let aborted: Vec<OpId> = out
            .iter()
            .filter_map(|a| match a {
                Action::Notify(Completion::Failed { op, .. }) => Some(*op),
                _ => None,
            })
            .collect();
        assert!(aborted.contains(&op_a) && aborted.contains(&op_b), "both moves abort: {out:?}");
        assert!(!aborted.contains(&op_c), "the released clone must not abort: {out:?}");
        assert_eq!(core.deferred_transfers(), 0);
        assert!(
            out.iter().any(
                |a| matches!(a, Action::ToMb(_, Message::GetSupportShared { op }) if *op != op_a)
            ),
            "released clone issues its shared get in the deadline tick: {out:?}"
        );
        assert!(!core.shard(core.shard_of_op(op_c)).op_deferred(op_c));
    }

    #[test]
    fn config_mutations_reach_shards_on_next_call() {
        let (mut core, a, b, _, _) = sharded(2);
        core.config.transfer_window = 7;
        let mut out = Vec::new();
        core.move_internal(a, b, subnet(0), SimTime(0), &mut out);
        for s in 0..core.num_shards() {
            assert_eq!(core.shard(s).config.transfer_window, 7);
        }
    }
}
