//! Per-layer metrics and the layer table of a traced run.
//!
//! Every workload reports every per-layer metric. A layer the workload
//! bypasses reports 0, which is what was measured there: no work.
//! Counts are per repetition on the DES workloads and per move on
//! `tcp_move`, so they do not depend on how many fit in the run.

use crate::common::{metric, ratio, Metric};
use crate::tracing::{Tally, MB_KINDS};

/// Residual share of wall time below which the table counts as
/// reconciled: a negative residual means the wrappers attributed more
/// time than elapsed, i.e. double counting.
pub const MIN_RESIDUAL_SHARE: f64 = -0.01;

/// Inputs of [`metrics`] that do not come from the [`Tally`].
pub struct Run {
    /// Repetitions (DES) or moves (TCP) the tally covers.
    pub units: f64,
    /// Traced wall time: `Sim::run` (DES) or inside moves (TCP), in ns.
    pub wall_ns: f64,
    /// DES events processed.
    pub events: f64,
    /// Ns of MB get, MB put and transport send inside the moves (TCP).
    pub in_moves: [f64; 3],
    /// `(state bytes, per-flow chunks)` per MB type at the end of a run.
    pub state: [(usize, usize); 3],
    /// Traced over untraced wall time per unit, minus one.
    pub overhead: f64,
    pub des: bool,
}

fn row(table: &mut Vec<String>, name: &str, ns: f64, wall: f64) {
    table.push(format!("  {name:<34} {:>12.3} ms {:>7.1}%", ns / 1e6, 100.0 * ratio(ns, wall)));
}

/// Compute every per-layer metric and append the layer table.
pub fn metrics(t: &Tally, run: &Run, table: &mut Vec<String>) -> (Vec<Metric>, bool) {
    let u = run.units.max(1.0);
    let per = |c: u64| c as f64 / u;
    let mb_pkts: u64 = t.mb.iter().map(|m| m.pkts.get()).sum();
    let mb_calls: u64 = t.mb.iter().map(|m| m.calls.get()).sum();
    let mbnode_self = t.mbnode_ns.get().saturating_sub(t.mb_logic_ns()) as f64;

    let (residual, residual_name) = if run.des {
        (run.wall_ns - t.node_ns() as f64, "simnet dispatch (residual)")
    } else {
        (run.wall_ns - run.in_moves.iter().sum::<f64>(), "core.tcp wait (residual)")
    };
    let wait_ns_per_move = if run.des { 0.0 } else { residual / u };
    let dispatch = if run.des { ratio(residual, run.events) } else { 0.0 };

    let mut m = vec![
        metric("simnet.events", run.events / u, "count"),
        metric("simnet.dispatch_ns_per_event", dispatch, "ns"),
        metric("openflow.switch.frames", per(t.switch_frames.get()), "count"),
        metric(
            "openflow.switch.ns_per_frame",
            ratio(t.switch_ns.get() as f64, t.switch_frames.get() as f64),
            "ns",
        ),
        metric("openflow.switch.flow_mods", per(t.switch_flow_mods.get()), "count"),
        metric(
            "core.mbnode.ns_per_pkt",
            if run.des { ratio(mbnode_self, mb_pkts as f64) } else { 0.0 },
            "ns",
        ),
        metric("core.mbnode.batch_pkts_mean", ratio(mb_pkts as f64, mb_calls as f64), "pkt"),
    ];
    for (k, name) in MB_KINDS.iter().enumerate() {
        let mb = &t.mb[k];
        let (bytes, chunks) = run.state[k];
        m.push(metric(format!("middleboxes.{name}.pkts"), per(mb.pkts.get()), "count"));
        m.push(metric(
            format!("middleboxes.{name}.ns_per_pkt"),
            ratio(mb.ns.get() as f64, mb.pkts.get() as f64),
            "ns",
        ));
        m.push(metric(
            format!("middleboxes.{name}.state_bytes_per_flow"),
            ratio(bytes as f64, chunks as f64),
            "B",
        ));
    }
    let frames = t.frames_sent.get() as f64;
    m.extend([
        metric("mb.chunks_exported", per(t.chunks_exported.get()), "count"),
        metric(
            "mb.get_ns_per_chunk",
            ratio(t.get_ns.get() as f64, t.chunks_exported.get() as f64),
            "ns",
        ),
        metric("mb.chunks_imported", per(t.chunks_imported.get()), "count"),
        metric(
            "mb.put_ns_per_chunk",
            ratio(t.put_ns.get() as f64, t.chunks_imported.get() as f64),
            "ns",
        ),
        metric("core.controller.msgs", per(t.ctrl_msgs.get()), "count"),
        metric(
            "core.controller.ns_per_msg",
            if run.des { ratio(t.ctrl_ns.get() as f64, t.ctrl_msgs.get() as f64) } else { 0.0 },
            "ns",
        ),
        metric("core.controller.events_in", per(t.ctrl_events_in.get()), "count"),
        metric("wire.frames_sent", per(t.frames_sent.get()), "count"),
        metric("wire.msgs_per_frame", ratio(t.msgs_sent.get() as f64, frames), "count"),
        metric("wire.bytes_sent", per(t.bytes_sent.get()), "B"),
        metric("transport.send_ns_per_frame", ratio(t.send_ns.get() as f64, frames), "ns"),
        metric(
            "transport.poll_useful_ratio",
            ratio(t.polls_useful.get() as f64, t.polls.get() as f64),
            "ratio",
        ),
        metric("core.tcp.wait_ns_per_move", wait_ns_per_move, "ns"),
        metric(
            "store.ref_hit_ratio",
            if t.chunk_refs.get() == 0 {
                0.0
            } else {
                1.0 - t.chunk_needs.get() as f64 / t.chunk_refs.get() as f64
            },
            "ratio",
        ),
        metric("trace.overhead_ratio", run.overhead, "ratio"),
    ]);

    // The layer table: self time per layer, per unit of work.
    let wall = run.wall_ns / u;
    let unit = if run.des { "repetition" } else { "move" };
    table.push(format!("layer table (traced run, self time per {unit}):"));
    row(table, residual_name, residual / u, wall);
    let mut attributed = 0.0;
    let mut add = |table: &mut Vec<String>, name: &str, ns: f64| {
        attributed += ns;
        row(table, name, ns, wall);
    };
    if run.des {
        add(table, "openflow switch", t.switch_ns.get() as f64 / u);
        add(table, "core mbnode (self)", mbnode_self / u);
        for (k, name) in MB_KINDS.iter().enumerate() {
            add(table, &format!("middleboxes.{name} packets"), t.mb[k].ns.get() as f64 / u);
        }
        add(table, "mb state get", t.get_ns.get() as f64 / u);
        add(table, "mb state put", t.put_ns.get() as f64 / u);
        add(table, "core controller", t.ctrl_ns.get() as f64 / u);
        add(table, "hosts", t.host_ns.get() as f64 / u);
    } else {
        add(table, "mb state get (source thread)", run.in_moves[0] / u);
        add(table, "mb state put (destination thread)", run.in_moves[1] / u);
        add(table, "transport send (all endpoints)", run.in_moves[2] / u);
    }
    let residual_share = ratio(residual / u, wall);
    let ok = residual_share >= MIN_RESIDUAL_SHARE;
    row(table, "sum of layers + residual", attributed + residual / u, wall);
    table.push(format!(
        "  traced wall {:.3} ms per {unit}; residual {:.1}% of wall (stated bound: >= {:.0}%): {}",
        wall / 1e6,
        100.0 * residual_share,
        100.0 * MIN_RESIDUAL_SHARE,
        if ok { "reconciled" } else { "NOT reconciled" }
    ));
    table.push(format!(
        "  tracing overhead: traced wall / untraced wall - 1 = {:+.1}%",
        100.0 * run.overhead
    ));
    (m, ok)
}
