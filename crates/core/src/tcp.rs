//! The OpenMB protocol over real TCP.
//!
//! The paper's prototype connects middleboxes to the controller over
//! sockets (§7: "The controller listens for connections from MBs and,
//! for each MB, launches one thread for handling state operations and
//! one thread for handling events"). This module provides the same
//! deployment shape on `std::net` TCP with the binary wire codec:
//!
//! * [`serve_middlebox`] — serves any [`Middlebox`]'s southbound
//!   protocol over a [`Transport`] (one thread per MB, like the paper).
//! * [`TcpController`] — hosts the same [`ControllerCore`] the simulator
//!   drives, behind one lock, pumps all MB transports, and exposes
//!   *blocking* northbound calls ([`TcpController::move_internal`],
//!   ...) that wait for the matching completion.
//!
//! The discrete-event simulator remains the measurement substrate; this
//! embedding exists to demonstrate the protocol and controller logic are
//! genuinely transport-independent (and is exercised by integration
//! tests and the `tcp_protocol` example over loopback).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use openmb_mb::{Middlebox, SharedPutLog};
use openmb_obs::{Recorder, SpanEvent};
use openmb_simnet::SimTime;
use openmb_types::transport::Transport;
use openmb_types::wire::Message;
use openmb_types::{ConfigValue, Error, HeaderFieldList, HierarchicalKey, MbId, OpId, Result};

use crate::controller::{Action, Completion, ControllerConfig, ControllerCore};

/// Serve a middlebox's southbound protocol over `transport` until the
/// peer disconnects or `stop` is raised. `now()` supplies timestamps for
/// packet replay.
pub fn serve_middlebox<M: Middlebox>(
    mb: &mut M,
    transport: &dyn Transport,
    stop: &AtomicBool,
) -> Result<()> {
    let mut log = SharedPutLog::new(0);
    serve_middlebox_logged(mb, &mut log, transport, stop)
}

/// [`serve_middlebox`] with a caller-owned [`SharedPutLog`], so the
/// dedup/rollback bookkeeping survives a disconnect: pass the same log
/// back in when re-serving the MB after a reconnect and a re-sent
/// shared put is re-acked instead of re-merged.
pub fn serve_middlebox_logged<M: Middlebox>(
    mb: &mut M,
    log: &mut SharedPutLog,
    transport: &dyn Transport,
    stop: &AtomicBool,
) -> Result<()> {
    let start = Instant::now();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let msg = match transport.recv_timeout(Duration::from_millis(20)) {
            Ok(Some(m)) => m,
            Ok(None) => continue,
            Err(_) => return Ok(()), // peer closed
        };
        let now = SimTime(start.elapsed().as_nanos() as u64);
        let mut replies = handle_southbound_logged(mb, log, msg, now);
        // A request with several replies (a get streaming chunks, a
        // batched request) answers with one coalesced frame.
        match replies.len() {
            0 => {}
            1 => transport.send(replies.pop().expect("len 1"))?,
            _ => transport.send(Message::Batch { msgs: replies })?,
        }
    }
}

/// [`serve_middlebox_logged`] that also records every request it
/// handles into `rec` as a [`SpanEvent::Handled`] under the node name
/// `name` — the MB half of an end-to-end op timeline. Timestamps are
/// nanoseconds since the recorder's epoch, so when the controller
/// shares the same recorder (loopback tests) both sides' events
/// interleave on one clock.
pub fn serve_middlebox_recorded<M: Middlebox>(
    mb: &mut M,
    log: &mut SharedPutLog,
    transport: &dyn Transport,
    stop: &AtomicBool,
    rec: &Recorder,
    name: &str,
) -> Result<()> {
    let tag = rec.register(name);
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let msg = match transport.recv_timeout(Duration::from_millis(20)) {
            Ok(Some(m)) => m,
            Ok(None) => continue,
            Err(_) => return Ok(()), // peer closed
        };
        let now = SimTime(rec.now_ns());
        let mut replies = handle_southbound_recorded(mb, log, msg, now, rec, tag);
        match replies.len() {
            0 => {}
            1 => transport.send(replies.pop().expect("len 1"))?,
            n => {
                rec.record(
                    now.0,
                    tag,
                    None,
                    replies[0].op_id().map(|o| o.0),
                    SpanEvent::BatchFlushed { count: n as u32 },
                );
                transport.send(Message::Batch { msgs: replies })?;
            }
        }
    }
}

/// Southbound dispatch, re-exported from [`openmb_mb::southbound`]
/// where it now lives (next to the [`Middlebox`] trait it drives).
pub use openmb_mb::southbound::{
    handle_southbound, handle_southbound_logged, handle_southbound_recorded,
};

/// A controller serving the northbound API over per-MB transports.
pub struct TcpController {
    inner: Arc<Inner>,
    pump: Option<std::thread::JoinHandle<()>>,
}

struct Inner {
    /// The controller state machine the simulator drives. The pump
    /// thread and blocking northbound callers hold the lock for one
    /// core call at a time, never across a send.
    core: Mutex<ControllerCore>,
    transports: Mutex<Vec<Arc<dyn Transport + Sync>>>,
    /// Per-MB "connection lost" flags, parallel to `transports`. Set by
    /// the pump loop on a reset/EOF; cleared by
    /// [`TcpController::reattach_mb`] when a fresh transport replaces
    /// the dead one.
    dead: Mutex<Vec<bool>>,
    /// The completion channel of every blocking call still waiting,
    /// keyed by its op. A waiter registers under the core lock, so it
    /// exists before any completion of its op can be executed.
    waiters: Mutex<HashMap<OpId, Sender<Completion>>>,
    stop: AtomicBool,
    start: Instant,
}

impl TcpController {
    /// A controller with the given tunables; call
    /// [`register_mb`](TcpController::register_mb) then
    /// [`start`](TcpController::start).
    pub fn new(config: ControllerConfig) -> Self {
        TcpController {
            inner: Arc::new(Inner {
                core: Mutex::new(ControllerCore::new(config)),
                transports: Mutex::new(Vec::new()),
                dead: Mutex::new(Vec::new()),
                waiters: Mutex::new(HashMap::new()),
                stop: AtomicBool::new(false),
                start: Instant::now(),
            }),
            pump: None,
        }
    }

    /// Register a middlebox reachable over `transport`.
    pub fn register_mb(&self, transport: Arc<dyn Transport + Sync>) -> MbId {
        let id = self.inner.core.lock().register_mb();
        self.inner.transports.lock().push(transport);
        self.inner.dead.lock().push(false);
        id
    }

    /// The MB reconnected: replace its dead transport, clear the
    /// unreachable mark, send any shared-state rollbacks deferred while
    /// it was down, and resume transfers parked on its account (with
    /// `max_transfer_resumes` > 0, a move interrupted mid-transfer picks
    /// up from its last acked chunk instead of starting over).
    pub fn reattach_mb(&self, mb: MbId, transport: Arc<dyn Transport + Sync>) {
        let idx = mb.0 as usize;
        {
            let mut transports = self.inner.transports.lock();
            if idx >= transports.len() {
                return;
            }
            transports[idx] = transport;
        }
        {
            let mut dead = self.inner.dead.lock();
            if idx < dead.len() {
                dead[idx] = false;
            }
        }
        let now = self.inner.now();
        self.inner.record(now, None, SpanEvent::TransportReattached);
        self.inner.run(|core, out| core.mark_reachable(mb, now, out));
    }

    /// Install a flight recorder on the hosted core: op lifecycle
    /// events and transport resets/reattaches record into it under the
    /// node name "controller". Timestamps are nanoseconds since the
    /// controller's start instant, so they sort against the MB side's
    /// recorder when both share one recorder over loopback.
    pub fn set_recorder(&self, rec: Recorder) {
        self.inner.core.lock().set_recorder(rec);
    }

    /// The hosted core's flight recorder handle (disabled by default).
    pub fn recorder(&self) -> Recorder {
        self.inner.core.lock().recorder().clone()
    }

    /// Start the pump thread (poll transports, drive the core).
    pub fn start(&mut self) {
        let inner = Arc::clone(&self.inner);
        self.pump = Some(std::thread::spawn(move || inner.pump_loop()));
    }

    /// Issue one northbound op and block until its completion arrives
    /// or `timeout` passes.
    fn call(
        &self,
        timeout: Duration,
        issue: impl FnOnce(&mut ControllerCore, SimTime, &mut Vec<Action>) -> OpId,
    ) -> Result<Completion> {
        let (tx, rx) = unbounded();
        let now = self.inner.now();
        let mut out = Vec::new();
        let op = {
            let mut core = self.inner.core.lock();
            let op = issue(&mut core, now, &mut out);
            self.inner.waiters.lock().insert(op, tx);
            op
        };
        self.inner.execute(out);
        let got = rx.recv_timeout(timeout);
        self.inner.waiters.lock().remove(&op);
        got.map_err(|_| Error::OpFailed(format!("timeout waiting for {op}")))
    }

    /// Blocking `moveInternal`: returns once every put is ACKed.
    pub fn move_internal(
        &self,
        src: MbId,
        dst: MbId,
        key: HeaderFieldList,
        timeout: Duration,
    ) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.move_internal(src, dst, key, now, out))
    }

    /// Blocking `cloneSupport`.
    pub fn clone_support(&self, src: MbId, dst: MbId, timeout: Duration) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.clone_support(src, dst, now, out))
    }

    /// Blocking `mergeInternal`.
    pub fn merge_internal(&self, src: MbId, dst: MbId, timeout: Duration) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.merge_internal(src, dst, now, out))
    }

    /// Blocking `readConfig`.
    pub fn read_config(&self, src: MbId, key: &str, timeout: Duration) -> Result<Completion> {
        let key = HierarchicalKey::parse(key);
        self.call(timeout, |core, now, out| core.read_config(src, key, now, out))
    }

    /// Blocking `writeConfig`.
    pub fn write_config(
        &self,
        dst: MbId,
        key: &str,
        values: Vec<ConfigValue>,
        timeout: Duration,
    ) -> Result<Completion> {
        let key = HierarchicalKey::parse(key);
        self.call(timeout, |core, now, out| core.write_config(dst, key, values, now, out))
    }

    /// Blocking `stats`.
    pub fn stats(&self, src: MbId, key: HeaderFieldList, timeout: Duration) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.stats(src, key, now, out))
    }

    /// Stop the pump thread.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpController {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_nanos() as u64)
    }

    /// Run one core call under the lock, then perform the actions it
    /// emitted with the lock released.
    fn run(&self, call: impl FnOnce(&mut ControllerCore, &mut Vec<Action>)) {
        let mut out = Vec::new();
        call(&mut self.core.lock(), &mut out);
        self.execute(out);
    }

    /// Record a transport-level event under the core's "controller"
    /// node tag.
    fn record(&self, now: SimTime, sub: Option<u64>, ev: SpanEvent) {
        let core = self.core.lock();
        core.recorder().record(now.0, core.recorder_tag(), None, sub, ev);
    }

    fn execute(&self, actions: Vec<Action>) {
        // Coalesce same-destination southbound messages emitted by one
        // core call into a single Batch frame (first-occurrence
        // destination order, per-destination message order preserved).
        let mut sends: Vec<(MbId, Vec<Message>)> = Vec::new();
        let mut completions = Vec::new();
        for a in actions {
            match a {
                Action::ToMb(mb, msg) => match sends.iter_mut().find(|(m, _)| *m == mb) {
                    Some((_, v)) => v.push(msg),
                    None => sends.push((mb, vec![msg])),
                },
                Action::Notify(c) => completions.push(c),
            }
        }
        for (mb, mut msgs) in sends {
            let msg = if msgs.len() == 1 {
                msgs.pop().expect("len 1")
            } else {
                self.record(
                    self.now(),
                    msgs[0].op_id().map(|o| o.0),
                    SpanEvent::BatchFlushed { count: msgs.len() as u32 },
                );
                Message::Batch { msgs }
            };
            let transports = self.transports.lock();
            if let Some(t) = transports.get(mb.0 as usize) {
                let _ = t.send(msg);
            }
        }
        // A completion nobody waits for (its caller timed out, or an
        // MB event) is dropped.
        for c in completions {
            let waiter = c.op().and_then(|op| self.waiters.lock().remove(&op));
            if let Some(tx) = waiter {
                let _ = tx.send(c);
            }
        }
    }

    fn pump_loop(&self) {
        let mut last_tick = Instant::now();
        // Transports whose peer has reset or closed are marked
        // unreachable once and then skipped until `reattach_mb` swaps in
        // a fresh transport and clears the flag.
        while !self.stop.load(Ordering::Relaxed) {
            let mut idle = true;
            let n = self.transports.lock().len();
            {
                let mut dead = self.dead.lock();
                if dead.len() < n {
                    dead.resize(n, false);
                }
            }
            for i in 0..n {
                if self.dead.lock()[i] {
                    continue;
                }
                let t = {
                    let ts = self.transports.lock();
                    Arc::clone(&ts[i])
                };
                let mb = MbId(i as u32);
                loop {
                    match t.try_recv() {
                        Ok(Some(msg)) => {
                            idle = false;
                            let now = self.now();
                            self.run(|core, out| core.handle_mb_message(mb, msg, now, out));
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Connection reset or EOF: every operation
                            // touching this MB aborts with MbUnreachable
                            // (or parks, given resume budget), exactly as
                            // the sim harness reports link failures.
                            self.dead.lock()[i] = true;
                            let now = self.now();
                            self.record(now, None, SpanEvent::TransportReset);
                            self.run(|core, out| core.mark_unreachable(mb, now, out));
                            break;
                        }
                    }
                }
            }
            if last_tick.elapsed() > Duration::from_millis(25) {
                last_tick = Instant::now();
                let now = self.now();
                self.run(|core, out| core.tick(now, out));
            }
            if idle {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}
