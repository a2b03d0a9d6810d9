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
//! * [`TcpController`] — hosts the one controller state machine,
//!   [`ControllerCore`] (the same core the simulator drives), behind one
//!   lock, with a receive thread per MB plus a tick thread, and exposes
//!   *blocking* northbound calls ([`TcpController::move_internal`], ...)
//!   that wait for completion.
//!
//! The discrete-event simulator remains the measurement substrate; this
//! embedding exists to demonstrate the protocol and controller logic are
//! genuinely transport-independent (and is exercised by integration
//! tests and the `tcp_protocol` example over loopback).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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
    serve_loop(transport, stop, |msg| {
        let now = SimTime(start.elapsed().as_nanos() as u64);
        handle_southbound_logged(mb, log, msg, now)
    })
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
    serve_loop(transport, stop, |msg| {
        let now = SimTime(rec.now_ns());
        let replies = handle_southbound_recorded(mb, log, msg, now, rec, tag);
        if replies.len() > 1 {
            let count = replies.len() as u32;
            let op = replies[0].op_id().map(|o| o.0);
            rec.record(now.0, tag, None, op, SpanEvent::BatchFlushed { count });
        }
        replies
    })
}

/// The loop behind every `serve_middlebox*` variant: answer each request
/// with `handle`'s replies, several of them (a get streaming chunks, a
/// batched request) coalesced into one frame.
fn serve_loop(
    transport: &dyn Transport,
    stop: &AtomicBool,
    mut handle: impl FnMut(Message) -> Vec<Message>,
) -> Result<()> {
    while !stop.load(Ordering::Relaxed) {
        let msg = match transport.recv_timeout(RECV_WAIT) {
            Ok(Some(m)) => m,
            Ok(None) => continue,
            Err(_) => return Ok(()), // peer closed
        };
        let mut replies = handle(msg);
        match replies.len() {
            0 => {}
            1 => transport.send(replies.pop().expect("len 1"))?,
            _ => transport.send(Message::Batch { msgs: replies })?,
        }
    }
    Ok(())
}

/// Southbound dispatch, re-exported from [`openmb_mb::southbound`]
/// where it now lives (next to the [`Middlebox`] trait it drives).
pub use openmb_mb::southbound::{
    handle_southbound, handle_southbound_logged, handle_southbound_recorded,
};

/// Record a transport-level event under the core's "controller" node tag.
fn record(core: &ControllerCore, now: SimTime, sub: Option<u64>, ev: SpanEvent) {
    core.recorder().record(now.0, core.recorder_tag(), None, sub, ev);
}

/// How long a blocked receive waits before it re-checks for shutdown.
const RECV_WAIT: Duration = Duration::from_millis(20);
/// The cadence of the core's timers (quiescence, deadlines, resumes).
const TICK: Duration = Duration::from_millis(25);

type Link = Arc<dyn Transport + Sync>;
type Threads = Option<Vec<JoinHandle<()>>>;

/// A controller serving the northbound API over per-MB transports.
pub struct TcpController {
    inner: Arc<Inner>,
    /// The tick thread and every receive thread, `None` until
    /// [`start`](TcpController::start). Held while a transport is added
    /// or swapped, so each transport gets exactly one receiver.
    threads: Mutex<Threads>,
}

struct Inner {
    /// The controller state machine the simulator drives. Receive
    /// threads, the tick thread and blocking northbound callers hold
    /// the lock for one core call at a time, never across a send.
    core: Mutex<ControllerCore>,
    transports: Mutex<Vec<Link>>,
    /// Held from before the core lock is released until a core call's
    /// frames are sent, so frames leave in the core's order.
    send_order: Mutex<()>,
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
                send_order: Mutex::new(()),
                waiters: Mutex::new(HashMap::new()),
                stop: AtomicBool::new(false),
                start: Instant::now(),
            }),
            threads: Mutex::new(None),
        }
    }

    /// Register a middlebox reachable over `transport`. After
    /// [`start`](TcpController::start) it is served at once.
    pub fn register_mb(&self, transport: Link) -> MbId {
        let mut threads = self.threads.lock();
        let id = self.inner.core.lock().register_mb();
        self.inner.transports.lock().push(Arc::clone(&transport));
        self.inner.receive(&mut threads, id, transport);
        id
    }

    /// The MB reconnected: replace its dead transport, clear the
    /// unreachable mark, send any shared-state rollbacks deferred while
    /// it was down, and resume transfers parked on its account (with
    /// `max_transfer_resumes` > 0, a move interrupted mid-transfer picks
    /// up from its last acked chunk instead of starting over).
    pub fn reattach_mb(&self, mb: MbId, transport: Link) {
        let mut threads = self.threads.lock();
        match self.inner.transports.lock().get_mut(mb.0 as usize) {
            Some(slot) => *slot = Arc::clone(&transport),
            None => return,
        }
        let now = self.inner.now();
        self.inner.run(|core, out| {
            record(core, now, None, SpanEvent::TransportReattached);
            core.mark_reachable(mb, now, out)
        });
        // Spawned only now, so a reset of the fresh transport is
        // reported after the MB was marked reachable, not before.
        self.inner.receive(&mut threads, mb, transport);
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

    /// Start the tick thread and a receive thread for every MB
    /// registered so far.
    pub fn start(&mut self) {
        let mut threads = self.threads.lock();
        if threads.is_none() {
            let inner = Arc::clone(&self.inner);
            *threads = Some(vec![std::thread::spawn(move || inner.tick_loop())]);
            for (i, t) in self.inner.transports.lock().iter().enumerate() {
                self.inner.receive(&mut threads, MbId(i as u32), Arc::clone(t));
            }
        }
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
        let op = self.inner.run(|core, out| {
            let op = issue(core, now, out);
            self.inner.waiters.lock().insert(op, tx);
            op
        });
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

    /// Stop and join every controller thread.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        for h in self.threads.lock().take().into_iter().flatten() {
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
    /// emitted with the lock released. The send lock is taken first, so
    /// frames leave in the core's order even when several threads make
    /// core calls (an abort's delete cannot overtake an earlier put).
    fn run<R>(&self, call: impl FnOnce(&mut ControllerCore, &mut Vec<Action>) -> R) -> R {
        let mut actions = Vec::new();
        let mut core = self.core.lock();
        let r = call(&mut core, &mut actions);
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
        for (_, msgs) in sends.iter().filter(|(_, msgs)| msgs.len() > 1) {
            let (sub, count) = (msgs[0].op_id().map(|o| o.0), msgs.len() as u32);
            record(&core, self.now(), sub, SpanEvent::BatchFlushed { count });
        }
        let _in_order = self.send_order.lock();
        drop(core);
        for (mb, mut msgs) in sends {
            let msg = match msgs.len() {
                1 => msgs.pop().expect("len 1"),
                _ => Message::Batch { msgs },
            };
            let t = self.transports.lock().get(mb.0 as usize).cloned();
            if let Some(t) = t {
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
        r
    }

    /// While the controller runs, give `transport` a receive thread
    /// for `mb`, forgetting the handles of receivers that have exited.
    fn receive(self: &Arc<Self>, threads: &mut Threads, mb: MbId, transport: Link) {
        if let Some(threads) = threads {
            threads.retain(|h| !h.is_finished());
            let inner = Arc::clone(self);
            threads.push(std::thread::spawn(move || inner.receive_loop(mb, &transport)));
        }
    }

    /// Whether `transport` is still the one registered for `mb`.
    fn serves(&self, mb: MbId, transport: &Link) -> bool {
        self.transports.lock().get(mb.0 as usize).is_some_and(|t| Arc::ptr_eq(t, transport))
    }

    /// One MB's receive thread: block until a frame lands and hand it
    /// to the core, so frames from one MB are handled in arrival order.
    /// Runs until shutdown, a reset/EOF, or `reattach_mb` swapping in
    /// another transport.
    fn receive_loop(&self, mb: MbId, transport: &Link) {
        while !self.stop.load(Ordering::Relaxed) && self.serves(mb, transport) {
            let msg = match transport.recv_timeout(RECV_WAIT) {
                Ok(Some(msg)) => msg,
                Ok(None) => continue,
                Err(_) => break,
            };
            let now = self.now();
            self.run(|core, out| core.handle_mb_message(mb, msg, now, out));
        }
        // On a reset or EOF every operation touching this MB aborts with
        // MbUnreachable (or parks, given resume budget), as the sim
        // harness reports link failures. Checked under the core lock, so
        // a reattach that already swapped in a fresh transport stands.
        let now = self.now();
        self.run(|core, out| {
            if !self.stop.load(Ordering::Relaxed) && self.serves(mb, transport) {
                record(core, now, None, SpanEvent::TransportReset);
                core.mark_unreachable(mb, now, out);
            }
        });
    }

    /// Fire the core's timers every `TICK` until shutdown.
    fn tick_loop(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(TICK);
            let now = self.now();
            self.run(|core, out| core.tick(now, out));
        }
    }
}
