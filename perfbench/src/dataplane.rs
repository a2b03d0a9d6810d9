//! `dataplane`: a discrete-event run of the packet path with no control
//! operations.
//!
//! src host → switch → Firewall → Monitor → Ips → dst host, every
//! `MbNode` at its defaults. Traffic is a `CloudTraceConfig` mix plus a
//! stated share of hostile port-80 flows whose request never completes a
//! line, so the IPS's HTTP line buffer grows with the flow. The workload
//! bypasses the controller, the wire codec and TCP.

use std::net::Ipv4Addr;
use std::sync::Arc;

use openmb_core::nodes::{Host, MbNode};
use openmb_mb::Middlebox;
use openmb_middleboxes::{Firewall, Ips, Monitor};
use openmb_openflow::Switch;
use openmb_simnet::{Frame, Sim, SimDuration, SimTime};
use openmb_traffic::{CloudTraceConfig, Trace, TraceEvent};
use openmb_types::packet::tcp_flags;
use openmb_types::sdn::{FlowRule, SdnAction};
use openmb_types::{FlowKey, HeaderFieldList, NodeId, Packet};

use crate::common::{
    delivery_digest, fastest_total, median, metric, modeled_latency, peak_rss_mb, repeat_for,
    run_split, Args, Metric, Outcome, SplitMix, Splits,
};
use crate::layers;
use crate::tracing::{wrap_node, Role, Tally, TimedMb, MB_KINDS};

/// Cloud-mix flows per repetition. Small enough that a repetition takes
/// about a tenth of a second, so a run's median rate rests on a hundred
/// or more repetitions and a slow spell of the host moves few of them.
const FLOWS: usize = 1_000;
/// Hostile flows (port 80, request line never ends): a 2% share.
const HOSTILE_FLOWS: u32 = (FLOWS / 50) as u32;
/// Client-to-server packets in each hostile flow.
const HOSTILE_PKTS: u64 = 60;
/// Virtual window over which flows start.
const SPAN: SimDuration = SimDuration::from_secs(4);

const SRC: NodeId = NodeId(0);
const SWITCH: NodeId = NodeId(1);
const FW: NodeId = NodeId(2);
const MON: NodeId = NodeId(3);
const IPS: NodeId = NodeId(4);
const DST: NodeId = NodeId(5);
/// The path's middlebox nodes, in `MB_KINDS` order; each `MbNode` is
/// labelled with its kind, so `<kind>.pkt_latency` holds its modeled
/// per-packet latency.
const MB_NODES: [NodeId; 3] = [FW, MON, IPS];

/// The generated input: the cloud mix merged with the hostile flows.
fn generate(seed: u64) -> Trace {
    let cloud = CloudTraceConfig { seed, flows: FLOWS, span: SPAN, ..Default::default() };
    let cloud = cloud.generate();
    let first_id = cloud.events().iter().map(|e| e.packet.id).max().unwrap_or(0) + 1;
    let mut rng = SplitMix::new(seed);
    let mut id = first_id;
    let mut events = Vec::new();
    let server = Ipv4Addr::new(54, 230, 1, 10);
    for f in 0..HOSTILE_FLOWS {
        let client = Ipv4Addr::new(10, 250, (f >> 8) as u8, f as u8);
        let key = FlowKey::tcp(client, rng.range(20_000, 60_000) as u16, server, 80);
        let mut t = SimTime(rng.range(0, SPAN.as_nanos()));
        let mut push = |t: SimTime, pkt: Packet| events.push(TraceEvent { time: t, packet: pkt });
        push(t, Packet::tcp(id, key, tcp_flags::SYN, Vec::new()));
        t = t.after(SimDuration::from_micros(rng.range(500, 2_000)));
        push(t, Packet::tcp(id + 1, key.reversed(), tcp_flags::SYN | tcp_flags::ACK, Vec::new()));
        id += 2;
        for _ in 0..HOSTILE_PKTS {
            t = t.after(SimDuration::from_micros(rng.range(2_000, 16_000)));
            // Lower-case letters only: never a CRLF, never "HTTP/1.1".
            let len = rng.range(64, 200) as usize;
            let payload: Vec<u8> = (0..len).map(|_| b'a' + rng.range(0, 26) as u8).collect();
            let mut pkt = Packet::tcp(id, key, tcp_flags::ACK, payload);
            pkt.meta.http_request = true;
            push(t, pkt);
            id += 1;
        }
    }
    cloud.merge(&Trace::new(events))
}

/// Build the path from the repository's public parts.
fn build<F, M, I>(trace: &Trace, fw: F, mon: M, ips: I) -> Sim
where
    F: Middlebox + 'static,
    M: Middlebox + 'static,
    I: Middlebox + 'static,
{
    let mut sim = Sim::new_counters_only();
    assert_eq!(sim.add_node(Box::new(Host::new("src").with_forward(SWITCH))), SRC);
    let mut switch = Switch::new("s1");
    switch.preinstall(
        FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(FW)).from_port(SRC),
    );
    assert_eq!(sim.add_node(Box::new(switch)), SWITCH);
    assert_eq!(sim.add_node(Box::new(MbNode::new(MB_KINDS[0], fw).with_egress(MON))), FW);
    assert_eq!(sim.add_node(Box::new(MbNode::new(MB_KINDS[1], mon).with_egress(IPS))), MON);
    assert_eq!(sim.add_node(Box::new(MbNode::new(MB_KINDS[2], ips).with_egress(DST))), IPS);
    assert_eq!(sim.add_node(Box::new(Host::new("dst"))), DST);
    let lat = SimDuration::from_micros(50);
    for (a, b) in [(SRC, SWITCH), (SWITCH, FW), (FW, MON), (MON, IPS), (IPS, DST)] {
        sim.add_link(a, b, lat, 1_000_000_000);
    }
    for e in trace.events() {
        sim.inject_frame(e.time, SRC, SRC, Frame::Data(e.packet.clone()));
    }
    sim
}

/// Reads the firewall's deny counter through either wrapper level.
trait Denied {
    fn denied(&self) -> u64;
}
impl Denied for Firewall {
    fn denied(&self) -> u64 {
        self.denied
    }
}
impl<M: Denied> Denied for TimedMb<M> {
    fn denied(&self) -> u64 {
        self.inner.denied()
    }
}

/// What one repetition produced.
struct Rep {
    traced: bool,
    /// Set-up in two parts: input generation, then topology build.
    setup: Splits,
    /// `Sim::run` to idle, in parts of `SPLIT_EVENTS` events.
    run: Splits,
    events: u64,
    injected: u64,
    delivered: u64,
    denied: u64,
    digest: u64,
    /// `(state bytes, per-flow chunks)` per MB, from `Middlebox::stats`.
    state: [(usize, usize); 3],
    modeled: Vec<Metric>,
}

fn state_of<M: Middlebox + 'static>(sim: &Sim, id: NodeId) -> (usize, usize) {
    let s = sim.node_as::<MbNode<M>>(id).logic.stats(&HeaderFieldList::any());
    (s.perflow_support_bytes + s.perflow_report_bytes, s.total_chunks())
}

fn rep(seed: u64, tally: Option<&Arc<Tally>>) -> Rep {
    let mut setup = Splits::start();
    let trace = generate(seed);
    setup.split();
    let mut sim = match tally {
        None => build(&trace, Firewall::new(), Monitor::new(), Ips::new()),
        Some(t) => {
            let mut sim = build(
                &trace,
                TimedMb::new(Firewall::new(), 0, Arc::clone(t)),
                TimedMb::new(Monitor::new(), 1, Arc::clone(t)),
                TimedMb::new(Ips::new(), 2, Arc::clone(t)),
            );
            for (id, role) in [(SRC, Role::Host), (SWITCH, Role::Switch), (DST, Role::Host)] {
                wrap_node(&mut sim, id, role, t);
            }
            for id in MB_NODES {
                wrap_node(&mut sim, id, Role::Mb, t);
            }
            sim
        }
    };
    setup.split();

    let mut run = Splits::start();
    let events = run_split(&mut sim, SimTime(u64::MAX), &mut run);
    assert!(sim.is_idle(), "the run drains its event queue");

    let dst: &Host = sim.node_as(DST);
    let (denied, state) = match tally {
        None => (
            sim.node_as::<MbNode<Firewall>>(FW).logic.denied(),
            [
                state_of::<Firewall>(&sim, FW),
                state_of::<Monitor>(&sim, MON),
                state_of::<Ips>(&sim, IPS),
            ],
        ),
        Some(_) => (
            sim.node_as::<MbNode<TimedMb<Firewall>>>(FW).logic.denied(),
            [
                state_of::<TimedMb<Firewall>>(&sim, FW),
                state_of::<TimedMb<Monitor>>(&sim, MON),
                state_of::<TimedMb<Ips>>(&sim, IPS),
            ],
        ),
    };
    let modeled: Vec<Metric> =
        MB_KINDS.into_iter().flat_map(|label| modeled_latency(&sim, label)).collect();
    Rep {
        traced: tally.is_some(),
        setup,
        run,
        events,
        injected: trace.len() as u64,
        delivered: dst.received.len() as u64,
        denied,
        digest: delivery_digest(dst),
        state,
        modeled,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let tally = Arc::new(Tally::default());
    // A traced run alternates untraced and traced repetitions; the
    // untraced ones are the reference for equal outputs and for the
    // tracing overhead.
    repeat_for(args.seconds, if args.trace { 4 } else { 3 }, |i| {
        let traced = args.trace && i % 2 == 1;
        reps.push(rep(args.seed, traced.then_some(&tally)));
        if i == 0 {
            out.peak_rss_mb = Some(peak_rss_mb());
        }
    });

    let first = &reps[0];
    for r in &reps {
        out.attempted += r.injected;
        // Firewall policy is the only permitted reason to lose a packet.
        out.failed += r.injected.saturating_sub(r.delivered + r.denied);
    }
    let untraced = || reps.iter().filter(|r| !r.traced);
    let setup_s = fastest_total(untraced().map(|r| &r.setup));
    let run_s = fastest_total(untraced().map(|r| &r.run));
    out.check("every repetition splits at the same events", setup_s.zip(run_s).is_some());
    out.setups = reps.len();
    out.setup_s = setup_s.unwrap_or(0.0);
    out.ops_per_s = first.injected as f64 / run_s.unwrap_or(f64::INFINITY);
    out.check(
        "delivered = injected - firewall-denied",
        reps.iter().all(|r| r.delivered + r.denied == r.injected),
    );
    out.check("firewall denied some packets", first.denied > 0);
    out.check(
        "delivery digest and event count identical across all repetitions",
        reps.iter().all(|r| r.digest == first.digest && r.events == first.events),
    );
    out.report.push(metric("pkts_per_s", out.ops_per_s, "pkt/s"));
    out.report.push(metric("trace_pkts", first.injected as f64, "pkt"));
    out.report.push(metric("hostile_flows", f64::from(HOSTILE_FLOWS), "flow"));
    out.report.push(metric("repetitions", reps.len() as f64, "count"));
    out.modeled = first.modeled.clone();

    if args.trace {
        let runs = |traced: bool| -> Vec<f64> {
            reps.iter().filter(|r| r.traced == traced).map(|r| r.run.total()).collect()
        };
        let traced_runs = runs(true);
        let run = layers::Run {
            units: traced_runs.len() as f64,
            wall_ns: traced_runs.iter().sum::<f64>() * 1e9,
            events: reps.iter().filter(|r| r.traced).map(|r| r.events as f64).sum(),
            in_moves: [0.0; 3],
            state: first.state,
            overhead: median(&traced_runs) / median(&runs(false)) - 1.0,
            des: true,
        };
        let (m, ok) = layers::metrics(&tally, &run, &mut out.table);
        out.layers = m;
        out.check("layer table reconciles with traced wall time", ok);
    }
    out
}
