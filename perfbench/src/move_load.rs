//! `move_under_load`: a discrete-event run of the paper's §6.2 scale-up.
//!
//! A `Monitor` (mb_a) holds `FLOWS` preloaded flows and steady HTTP
//! traffic runs over them. `ScaleUpApp` copies configuration, reads
//! stats, moves all per-flow state to mb_b mid-stream with event
//! buffering on, then repoints routing. The controller dominates this
//! run; the codec and TCP are never touched.

use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use openmb_apps::migration::RouteSpec;
use openmb_apps::scaling::ScaleUpApp;
use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::controller::Completion;
use openmb_core::nodes::{ControllerNode, Host, MbNode};
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::Monitor;
use openmb_simnet::{Frame, Sim, SimDuration, SimTime};
use openmb_types::{FlowKey, HeaderFieldList, NodeId, Packet, StateStats};

use crate::common::{
    delivery_digest, fastest_total, median, metric, modeled_latency, peak_rss_mb, repeat_for,
    run_split, Args, Metric, Outcome, SplitMix, Splits,
};
use crate::layers;
use crate::tracing::{wrap_node, Role, Tally, TimedMb};

/// Flows preloaded into mb_a, all of which move.
const FLOWS: usize = 10_000;
/// HTTP packets in the stream.
const PKTS: u64 = 20_000;
/// Virtual gap between stream packets.
const GAP: SimDuration = SimDuration::from_micros(400);
/// When the scale-up starts. The stream lasts 8 s of virtual time and
/// the move about 5 s, so it starts and ends while traffic flows.
const TRIGGER: SimDuration = SimDuration::from_secs(1);

fn flow_key(seed: u64, i: usize) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8),
        10_000 + ((seed as usize + i) % 50_000) as u16,
        Ipv4Addr::new(192, 168, 1, 1),
        80,
    )
}

/// The generated input: mb_a's preloaded state and the packet stream.
fn generate(seed: u64) -> (Monitor, Vec<(SimTime, Packet)>) {
    let mut mon = Monitor::new();
    let mut fx = Effects::normal();
    for i in 0..FLOWS {
        let pkt = Packet::new(i as u64 + 1, flow_key(seed, i), vec![0u8; 120]);
        mon.process_packet(SimTime(i as u64), &pkt, &mut fx);
    }
    let mut rng = SplitMix::new(seed);
    let stream = (0..PKTS)
        .map(|j| {
            let key = flow_key(seed, rng.range(0, FLOWS as u64) as usize);
            let mut pkt = Packet::new(FLOWS as u64 + 1 + j, key, vec![0u8; 200]);
            pkt.meta.http_request = true;
            (SimTime(GAP.as_nanos() * j), pkt)
        })
        .collect();
    (mon, stream)
}

/// Virtual instants that split a run into before, inside and after
/// the move. Learned from the first repetition; the run is
/// deterministic, so every later one shares them.
#[derive(Clone, Copy)]
struct Marks {
    move_start: SimTime,
    move_done: SimTime,
}

struct Rep {
    traced: bool,
    /// Set-up in two parts: input generation, then topology build.
    setup: Splits,
    /// The run to idle, in parts of `SPLIT_EVENTS` events that also
    /// break at the marks, if known.
    run: Splits,
    /// Wall time between the move's start and completion marks.
    in_move_s: Option<f64>,
    events: u64,
    delivered: u64,
    digest: u64,
    chunks_moved: Option<usize>,
    stats_before: Option<StateStats>,
    marks: Option<Marks>,
    failed_completions: usize,
    dst_after: StateStats,
    src_after: StateStats,
    modeled: Vec<Metric>,
}

fn stats_of<M: Middlebox + 'static>(sim: &Sim, id: NodeId) -> StateStats {
    sim.node_as::<MbNode<M>>(id).logic.stats(&HeaderFieldList::any())
}

fn build<M: Middlebox + 'static>(a: M, b: M, stream: &[(SimTime, Packet)]) -> Sim {
    use layout::*;
    let subset = HeaderFieldList::any();
    let app = ScaleUpApp::new(
        MB_A_ID,
        MB_B_ID,
        subset,
        TRIGGER,
        RouteSpec { pattern: subset, priority: 10, src: SRC, waypoints: vec![MB_B], dst: DST },
    );
    let mut setup = two_mb_scenario(a, b, Box::new(app), ScenarioParams::default());
    setup.sim.metrics.record_trace = false;
    for (t, pkt) in stream {
        setup.sim.inject_frame(*t, SRC, SWITCH, Frame::Data(pkt.clone()));
    }
    setup.sim
}

fn rep(seed: u64, marks: Option<Marks>, tally: Option<&Arc<Tally>>) -> Rep {
    use layout::*;
    let mut setup = Splits::start();
    let (mon, stream) = generate(seed);
    setup.split();
    let mut sim = match tally {
        None => build(mon, Monitor::new(), &stream),
        Some(t) => {
            let mut sim = build(
                TimedMb::new(mon, 1, Arc::clone(t)),
                TimedMb::new(Monitor::new(), 1, Arc::clone(t)),
                &stream,
            );
            for (id, role) in [
                (CONTROLLER, Role::Controller),
                (SWITCH, Role::Switch),
                (MB_A, Role::Mb),
                (MB_B, Role::Mb),
                (SRC, Role::Host),
                (DST, Role::Host),
            ] {
                wrap_node(&mut sim, id, role, t);
            }
            sim
        }
    };
    setup.split();

    let mut run = Splits::start();
    let mut events = 0;
    let mut in_move_s = None;
    if let Some(m) = marks {
        events += run_split(&mut sim, m.move_start, &mut run);
        let t2 = Instant::now();
        events += run_split(&mut sim, m.move_done, &mut run);
        in_move_s = Some(t2.elapsed().as_secs_f64());
    }
    events += run_split(&mut sim, SimTime(u64::MAX), &mut run);
    assert!(sim.is_idle(), "the run drains its event queue");

    let dst: &Host = sim.node_as(DST);
    let ctl: &ControllerNode = sim.node_as(CONTROLLER);
    let mut stats_before = None;
    let mut stats_at = None;
    let mut chunks_moved = None;
    let mut done_at = None;
    let mut failed_completions = 0;
    for (t, c) in &ctl.completions {
        match c {
            Completion::Stats { stats, .. } => {
                stats_before = Some(*stats);
                stats_at = Some(*t);
            }
            Completion::MoveComplete { chunks_moved: n, .. } => {
                chunks_moved = Some(*n);
                done_at = Some(*t);
            }
            Completion::Failed { .. } => failed_completions += 1,
            _ => {}
        }
    }
    let marks = stats_at.zip(done_at).map(|(s, d)| Marks { move_start: s, move_done: d });
    let (src_after, dst_after) = match tally {
        None => (stats_of::<Monitor>(&sim, MB_A), stats_of::<Monitor>(&sim, MB_B)),
        Some(_) => {
            (stats_of::<TimedMb<Monitor>>(&sim, MB_A), stats_of::<TimedMb<Monitor>>(&sim, MB_B))
        }
    };
    let mut modeled: Vec<Metric> =
        ["mb_a", "mb_b"].into_iter().flat_map(|label| modeled_latency(&sim, label)).collect();
    if let Some(m) = marks {
        let ms = |t: SimTime| t.0 as f64 / 1e6;
        modeled.push(metric("modeled.move_start", ms(m.move_start), "ms"));
        modeled.push(metric("modeled.move_completion", ms(m.move_done), "ms"));
        modeled.push(metric("modeled.move_duration", ms(m.move_done) - ms(m.move_start), "ms"));
    }
    modeled.push(metric("modeled.stream_end", (GAP.as_nanos() * PKTS) as f64 / 1e6, "ms"));
    Rep {
        traced: tally.is_some(),
        setup,
        run,
        in_move_s,
        events,
        delivered: dst.received.len() as u64,
        digest: delivery_digest(dst),
        chunks_moved,
        stats_before,
        marks,
        failed_completions,
        dst_after,
        src_after,
        modeled,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut panicked = 0u64;
    let tally = Arc::new(Tally::default());
    let mut marks = None;
    let mut one = |marks: &mut Option<Marks>, traced: bool, reps: &mut Vec<Rep>| {
        let t = traced.then_some(&tally);
        // The scale-up app panics when a step fails; that counts as a
        // failed repetition, not a crashed benchmark.
        match catch_unwind(AssertUnwindSafe(|| rep(args.seed, *marks, t))) {
            Ok(r) => {
                if let Some(m) = r.marks {
                    marks.get_or_insert(m);
                }
                reps.push(r);
            }
            Err(_) => panicked += 1,
        }
    };
    // The first repetition learns the marks. A traced run then
    // alternates traced and untraced repetitions; the untraced ones are
    // the reference for equal outputs and for the tracing overhead.
    one(&mut marks, false, &mut reps);
    out.peak_rss_mb = Some(peak_rss_mb());
    repeat_for(args.seconds, if args.trace { 4 } else { 2 }, |i| {
        one(&mut marks, args.trace && i % 2 == 0, &mut reps)
    });

    out.attempted = (reps.len() as u64 + panicked) * (PKTS + 1);
    out.failed = panicked * (PKTS + 1);
    let Some(first) = reps.first() else {
        out.check("repetitions complete", false);
        return out;
    };
    for r in &reps {
        out.failed += PKTS - r.delivered.min(PKTS);
        let move_ok = r.chunks_moved == Some(FLOWS) && r.failed_completions == 0;
        out.failed += u64::from(!move_ok);
    }
    // The calibration repetition ran without marks, so it split
    // elsewhere; it counts only towards the outputs.
    let timed = || reps[1..].iter().filter(|r| !r.traced);
    let setup_s = fastest_total(timed().map(|r| &r.setup));
    let run_s = fastest_total(timed().map(|r| &r.run));
    out.check("every repetition splits at the same events", setup_s.zip(run_s).is_some());
    out.setups = reps.len();
    out.setup_s = setup_s.unwrap_or(0.0);
    out.ops_per_s = PKTS as f64 / run_s.unwrap_or(f64::INFINITY);
    out.check("repetitions complete without a failed step", panicked == 0);
    out.check("zero packets lost", reps.iter().all(|r| r.delivered == PKTS));
    out.check("chunks_moved = preloaded flows", reps.iter().all(|r| r.chunks_moved == Some(FLOWS)));
    out.check(
        "destination stats = source stats before the move",
        reps.iter().all(|r| {
            r.stats_before.is_some_and(|b| {
                b.perflow_report_chunks == FLOWS
                    && r.dst_after.perflow_report_chunks == b.perflow_report_chunks
                    && r.dst_after.perflow_report_bytes == b.perflow_report_bytes
            })
        }),
    );
    out.check(
        "source holds no per-flow state after the move",
        reps.iter().all(|r| r.src_after.total_chunks() == 0),
    );
    let done_at = |r: &Rep| r.marks.map(|m| m.move_done);
    out.check(
        "delivery digest, event count and virtual move completion identical across all repetitions",
        reps.iter().all(|r| {
            r.digest == first.digest && r.events == first.events && done_at(r) == done_at(first)
        }),
    );
    out.check(
        "the move runs while traffic flows",
        done_at(first).is_some_and(|t| t.0 < GAP.as_nanos() * PKTS),
    );

    let in_move: Vec<f64> = reps.iter().filter_map(|r| r.in_move_s).collect();
    out.report.push(metric("pkts_per_s", out.ops_per_s, "pkt/s"));
    out.report.push(metric("flows_moved_per_s", FLOWS as f64 / median(&in_move), "flow/s"));
    out.report.push(metric("repetitions", reps.len() as f64, "count"));
    out.modeled = first.modeled.clone();

    if args.trace {
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
        let runs: Vec<f64> = traced.iter().map(|r| r.run.total()).collect();
        let untraced: Vec<f64> = timed().map(|r| r.run.total()).collect();
        let mut state = [(0, 0); 3];
        let last = &reps[reps.len() - 1].dst_after;
        state[1] = (last.perflow_support_bytes + last.perflow_report_bytes, last.total_chunks());
        let run = layers::Run {
            units: traced.len() as f64,
            wall_ns: runs.iter().sum::<f64>() * 1e9,
            events: traced.iter().map(|r| r.events as f64).sum(),
            in_moves: [0.0; 3],
            state,
            overhead: median(&runs) / median(&untraced) - 1.0,
            des: true,
        };
        let (m, ok) = layers::metrics(&tally, &run, &mut out.table);
        out.layers = m;
        out.check("layer table reconciles with traced wall time", ok);
    }
    out
}
