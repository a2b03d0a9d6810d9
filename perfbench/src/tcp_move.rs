//! `tcp_move`: real moves over loopback TCP in a closed loop.
//!
//! Two `Monitor` servers each run `serve_middlebox` on a thread behind
//! a `TcpTransport`; a `TcpController` (its `ShardedController` core and
//! pump thread) holds one connection to each. One client thread issues
//! back-to-back blocking `move_internal` calls, each moving a distinct
//! `FLOWS_PER_MOVE`-flow subset. Subsets cycle from mb0 to mb1 and back,
//! so a subset returns to a server only after its earlier copy there
//! was deleted. This is the only workload that runs the wire codec, the
//! transport and the pump; it bypasses simnet, the switch and per-packet
//! middlebox work.

use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::tcp::{serve_middlebox, TcpController};
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::Monitor;
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::transport::{TcpTransport, Transport};
use openmb_types::{FlowKey, HeaderFieldList, IpPrefix, MbId, Packet};

use crate::common::{
    fastest_total, median, metric, peak_rss_mb, percentile, repeat_for, Args, Outcome, SplitMix,
    Splits,
};
use crate::layers;
use crate::tracing::{Tally, TimedMb, TimedTransport};

/// Distinct subsets; each lives in its own /16.
const SUBSETS: usize = 8;
/// Flows per subset, i.e. per move.
const FLOWS_PER_MOVE: usize = 2_500;
/// Middlebox servers, one controller connection each.
const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their fastest-parts total.
const SETUPS: usize = 12;
/// Moves per run, at least: p90 then has at least 10 samples beyond it.
const MIN_MOVES: usize = 100;
const TIMEOUT: Duration = Duration::from_secs(30);

fn subset(k: usize) -> HeaderFieldList {
    HeaderFieldList::from_src_subnet(IpPrefix::new(Ipv4Addr::new(10, 100 + k as u8, 0, 0), 16))
}

/// The generated input: every subset's flows observed by one monitor.
/// Splits `splits` after each subset.
fn preloaded(seed: u64, splits: &mut Splits) -> Monitor {
    let mut rng = SplitMix::new(seed);
    let mut mon = Monitor::new();
    let mut fx = Effects::normal();
    let mut id = 1;
    for k in 0..SUBSETS {
        for i in 0..FLOWS_PER_MOVE {
            let src = Ipv4Addr::new(10, 100 + k as u8, (i >> 8) as u8, i as u8);
            let key = FlowKey::tcp(
                src,
                rng.range(20_000, 60_000) as u16,
                Ipv4Addr::new(54, 230, 1, 10),
                80,
            );
            let len = rng.range(60, 400) as usize;
            mon.process_packet(SimTime(id), &Packet::new(id, key, vec![0u8; len]), &mut fx);
            id += 1;
        }
        splits.split();
    }
    mon
}

/// A running deployment: servers, their threads and the controller.
struct Deployment {
    controller: TcpController,
    mbs: [MbId; CONNECTIONS],
    stop: Arc<AtomicBool>,
    servers: Vec<JoinHandle<Monitor>>,
}

fn serve<M: Middlebox>(mut mb: M, t: &dyn Transport, stop: &AtomicBool) -> M {
    serve_middlebox(&mut mb, t, stop).expect("serve loop ends cleanly");
    mb
}

/// Set up a deployment in `SUBSETS + 2` parts, split in `splits`: the
/// preload of each subset, the servers' start, the controller's connect.
fn deploy(seed: u64, tally: Option<&Arc<Tally>>, splits: &mut Splits) -> Deployment {
    let mut preload = Some(preloaded(seed, splits));
    let stop = Arc::new(AtomicBool::new(false));
    let mut addrs = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..CONNECTIONS {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().expect("local addr"));
        // The first server holds the preloaded flows, the other none.
        let mon = preload.take().unwrap_or_default();
        let stop = Arc::clone(&stop);
        let tally = tally.cloned();
        servers.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("controller connects");
            let t = TcpTransport::new(stream).expect("transport");
            match tally {
                None => serve(mon, &t, &stop),
                Some(tl) => {
                    let t = TimedTransport::new(t, false, Arc::clone(&tl));
                    serve(TimedMb::new(mon, 1, tl), &t, &stop).inner
                }
            }
        }));
    }
    splits.split();
    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        ..ControllerConfig::default()
    });
    let mut mbs = [MbId(0); CONNECTIONS];
    for (i, addr) in addrs.iter().enumerate() {
        let t = TcpTransport::connect(addr).expect("connect loopback");
        mbs[i] = match tally {
            None => controller.register_mb(Arc::new(t)),
            Some(tl) => {
                controller.register_mb(Arc::new(TimedTransport::new(t, true, Arc::clone(tl))))
            }
        };
    }
    controller.start();
    splits.split();
    Deployment { controller, mbs, stop, servers }
}

impl Deployment {
    fn report_chunks(&self, mb: MbId, key: HeaderFieldList) -> Option<usize> {
        match self.controller.stats(mb, key, TIMEOUT) {
            Ok(Completion::Stats { stats, .. }) => Some(stats.perflow_report_chunks),
            _ => None,
        }
    }

    /// Wait (bounded) until the last move's source copy is deleted, so
    /// the servers together hold every flow exactly once.
    fn settle(&self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        let all = HeaderFieldList::any();
        while Instant::now() < deadline {
            let held: Option<usize> = self.mbs.iter().map(|&mb| self.report_chunks(mb, all)).sum();
            if held == Some(SUBSETS * FLOWS_PER_MOVE) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stop the controller and servers, wait for every thread, and
    /// return the servers' middleboxes.
    fn shutdown(mut self) -> Vec<Monitor> {
        self.settle();
        self.controller.shutdown();
        drop(self.controller);
        self.stop.store(true, Ordering::Relaxed);
        self.servers.into_iter().map(|h| h.join().expect("server thread")).collect()
    }
}

/// The outcome of the moves made on one deployment.
#[derive(Default)]
struct Moves {
    walls: Vec<f64>,
    failed: u64,
    /// Ns of MB get, MB put and transport send inside the moves.
    in_moves: [f64; 3],
    /// Process peak resident memory after the first `min` moves, in MiB.
    peak_rss_mb: Option<f64>,
}

fn moves(d: &Deployment, seconds: f64, min: usize, tally: Option<&Arc<Tally>>) -> Moves {
    let mut m = Moves::default();
    let snap = |t: &Tally| [t.get_ns.get(), t.put_ns.get(), t.send_ns.get()];
    repeat_for(seconds, min, |i| {
        let k = i % SUBSETS;
        let (src, dst) = if (i / SUBSETS).is_multiple_of(2) {
            (d.mbs[0], d.mbs[1])
        } else {
            (d.mbs[1], d.mbs[0])
        };
        let key = subset(k);
        // Untimed pre-checks: the subset sits whole at the source and
        // the destination's earlier copy has been deleted.
        let pre = d.report_chunks(src, key) == Some(FLOWS_PER_MOVE)
            && d.report_chunks(dst, key) == Some(0);
        let before = tally.map(|t| snap(t));
        let t0 = Instant::now();
        let r = d.controller.move_internal(src, dst, key, TIMEOUT);
        m.walls.push(t0.elapsed().as_secs_f64());
        if let (Some(t), Some(b)) = (tally, before) {
            for (acc, (now, was)) in m.in_moves.iter_mut().zip(snap(t).into_iter().zip(b)) {
                *acc += (now - was) as f64;
            }
        }
        let moved = matches!(r, Ok(Completion::MoveComplete { chunks_moved, .. }) if chunks_moved == FLOWS_PER_MOVE);
        let post = d.report_chunks(dst, key) == Some(FLOWS_PER_MOVE);
        m.failed += u64::from(!(pre && moved && post));
        if i + 1 == min {
            m.peak_rss_mb = Some(peak_rss_mb());
        }
    });
    m
}

/// Set up and tear down `n` deployments, keeping each one's parts.
fn setups_only(seed: u64, n: usize, setups: &mut Vec<Splits>) {
    for _ in 0..n {
        let mut s = Splits::start();
        let d = deploy(seed, None, &mut s);
        setups.push(s);
        d.shutdown();
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // One set-up serves the moves; the others are timed and torn down,
    // half before the moves and half after, so that a slow spell of the
    // host at one end of the run does not set the time. A traced run
    // sets up twice: untraced, then traced.
    let extra = if args.trace { 0 } else { SETUPS - 1 };
    let mut setups = Vec::new();
    setups_only(args.seed, extra / 2, &mut setups);
    let (untraced_s, traced_s) = if args.trace {
        (args.seconds / 3.0, args.seconds * 2.0 / 3.0)
    } else {
        (args.seconds, 0.0)
    };
    let mut s = Splits::start();
    let d = deploy(args.seed, None, &mut s);
    setups.push(s);
    let plain = moves(&d, untraced_s, if args.trace { 20 } else { MIN_MOVES }, None);
    out.peak_rss_mb = plain.peak_rss_mb;
    let mbs = d.shutdown();
    let total = SUBSETS * FLOWS_PER_MOVE;
    let held = |mbs: &[Monitor]| -> usize {
        mbs.iter().map(|m| m.stats(&HeaderFieldList::any()).perflow_report_chunks).sum()
    };
    let mut held_ok = held(&mbs) == total;
    setups_only(args.seed, extra - extra / 2, &mut setups);

    let tally = Arc::new(Tally::default());
    let traced = args.trace.then(|| {
        let d = deploy(args.seed, Some(&tally), &mut Splits::start());
        let m = moves(&d, traced_s, 40, Some(&tally));
        let mbs = d.shutdown();
        let state: Vec<_> = mbs.iter().map(|m| m.stats(&HeaderFieldList::any())).collect();
        held_ok &= held(&mbs) == total;
        (m, state)
    });

    let all = plain.walls.len() + traced.as_ref().map_or(0, |(m, _)| m.walls.len());
    out.attempted = all as u64;
    out.failed = plain.failed + traced.as_ref().map_or(0, |(m, _)| m.failed);
    out.check("every move returns MoveComplete with the subset's chunk count, confirmed by destination stats", out.failed == 0);
    out.check("no flow lost or duplicated across the servers", held_ok);
    if !args.trace {
        out.check(format!("at least {MIN_MOVES} moves"), plain.walls.len() >= MIN_MOVES);
    }

    let wall_sum: f64 = plain.walls.iter().sum();
    out.setups = setups.len() + usize::from(args.trace);
    out.setup_s = fastest_total(&setups).expect("every deployment splits alike");
    out.ops_per_s = plain.walls.len() as f64 / wall_sum;
    let ms: Vec<f64> = plain.walls.iter().map(|s| s * 1e3).collect();
    out.report.push(metric(
        "flows_moved_per_s",
        (plain.walls.len() * FLOWS_PER_MOVE) as f64 / wall_sum,
        "flow/s",
    ));
    out.report.push(metric("move_wall_ms_p50", percentile(&ms, 0.5), "ms"));
    out.report.push(metric("move_wall_ms_p90", percentile(&ms, 0.9), "ms"));
    out.report.push(metric("move_samples", ms.len() as f64, "count"));

    if let Some((m, state)) = traced {
        let mut st = [(0, 0); 3];
        st[1] = state.iter().fold((0, 0), |(b, c), s| {
            (b + s.perflow_support_bytes + s.perflow_report_bytes, c + s.total_chunks())
        });
        let run = layers::Run {
            units: m.walls.len() as f64,
            wall_ns: m.walls.iter().sum::<f64>() * 1e9,
            events: 0.0,
            in_moves: m.in_moves,
            state: st,
            overhead: median(&m.walls) / median(&plain.walls) - 1.0,
            des: false,
        };
        let (lm, ok) = layers::metrics(&tally, &run, &mut out.table);
        out.layers = lm;
        out.check("layer table reconciles with traced wall time", ok);
    }
    out
}
