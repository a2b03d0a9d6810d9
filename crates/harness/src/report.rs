//! Table/series formatting shared by all experiment reports, plus the
//! Fig-7-style renderer that lays a flight-recorder dump out as an
//! operation timeline (one column per node).

use std::fmt::Write as _;

use openmb_simnet::obs::RecorderDump;

/// A printable table with a caption (one per paper table/figure).
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub caption: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (paper-vs-measured).
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(caption: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            caption: caption.into(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.caption)?;
        let mut header = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(header, "{:<w$}  ", c, w = widths[i]);
        }
        writeln!(f, "{}", header.trim_end())?;
        writeln!(f, "{}", "-".repeat(header.trim_end().len()))?;
        for row in &self.rows {
            let mut line = String::new();
            for (i, c) in row.iter().enumerate() {
                let _ = write!(line, "{:<w$}  ", c, w = widths[i]);
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Render one operation's span as a Fig-7-style timeline table: one
/// row per recorded event (time-ordered), a phase column attributing
/// the event to the op's lifecycle phase, one column per node in
/// first-appearance order, the event text in the column of the node
/// that recorded it.
///
/// Selection follows the cross-node correlation convention: events
/// whose `op` matches directly (controller side), plus events carrying
/// no parent but whose `sub` is one of the op's sub-op ids (MB side —
/// only the sub-op id crosses the wire).
pub fn op_timeline(dump: &RecorderDump, op: u64) -> Table {
    use openmb_simnet::obs::SpanEvent;
    let subs: std::collections::BTreeSet<u64> =
        dump.events.iter().filter(|e| e.op == Some(op)).filter_map(|e| e.sub).collect();
    let mut selected: Vec<_> = dump
        .events
        .iter()
        .filter(|e| {
            e.op == Some(op) || (e.op.is_none() && e.sub.is_some_and(|s| subs.contains(&s)))
        })
        .collect();
    // The dump is in *recording* order, which is only time-ordered per
    // recording thread: a recorder shared across nodes (TCP loopback,
    // one serve thread per MB) interleaves out of order. Re-sort by
    // (time, op-level before sub-level, sub id, op id): the id keys
    // deterministically break same-instant ties *across threads* —
    // without them, two sub-ops stamped in the same instant by
    // different MB threads would keep their (racy) recording order and
    // the same run could render differently. The sort is stable, so
    // fully-identical keys keep recording order.
    selected.sort_by_key(|e| (e.t_ns, e.op.is_none(), e.sub.unwrap_or(0), e.op.unwrap_or(0)));

    let mut nodes: Vec<&str> = Vec::new();
    for e in &selected {
        if !nodes.contains(&e.node.as_str()) {
            nodes.push(&e.node);
        }
    }
    let mut columns = vec!["t (ms)", "sub", "phase"];
    columns.extend(nodes.iter().copied());
    let mut t = Table::new(
        format!(
            "Operation {op} timeline ({} event(s) across {} node(s))",
            selected.len(),
            nodes.len()
        ),
        &columns,
    );
    // Phase attribution mirrors the monitor's model: admit (issue →
    // first put admission), transfer (→ terminal), quiesce (→ first
    // delete), then commit/rollback (the delete leg, named by the
    // terminal outcome).
    let mut phase = "admit";
    let mut aborted = false;
    for e in &selected {
        match &e.event {
            SpanEvent::PutAdmitted { .. } if phase == "admit" => phase = "transfer",
            SpanEvent::Completed if e.op == Some(op) && e.sub.is_none() => phase = "quiesce",
            SpanEvent::Aborted { .. } if e.op == Some(op) => {
                phase = "quiesce";
                aborted = true;
            }
            SpanEvent::DeleteIssued { .. } if phase == "quiesce" => {
                phase = if aborted { "rollback" } else { "commit" };
            }
            _ => {}
        }
        let mut row = vec![
            format!("{:.3}", e.t_ns as f64 / 1e6),
            e.sub.map(|s| s.to_string()).unwrap_or_else(|| "—".into()),
            phase.to_owned(),
        ];
        for n in &nodes {
            row.push(if *n == e.node { e.event.to_string() } else { String::new() });
        }
        t.row(row);
    }
    if dump.evicted > 0 {
        t.note(format!(
            "flight recorder evicted {} event(s) (capacity {}); the timeline may be truncated at the front",
            dump.evicted, dump.capacity
        ));
    }
    t
}

/// Format a float with sensible precision.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["a", "long-column"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("long-column"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn op_timeline_lays_out_nodes_as_columns() {
        use openmb_simnet::obs::{SpanEvent, TimelineEvent};
        let ev = |t_ns, node: &str, op, sub, event| TimelineEvent {
            t_ns,
            node: node.to_owned(),
            op,
            sub,
            event,
        };
        let dump = RecorderDump {
            events: vec![
                ev(
                    1_000_000,
                    "controller",
                    Some(7),
                    None,
                    SpanEvent::Issued { kind: "moveInternal" },
                ),
                ev(
                    2_000_000,
                    "controller",
                    Some(7),
                    Some(8),
                    SpanEvent::Issued { kind: "putSupportPerflow" },
                ),
                // MB side: no parent, correlated through sub-op 8.
                ev(
                    3_000_000,
                    "mb:mb_b",
                    None,
                    Some(8),
                    SpanEvent::Handled { msg: "putSupportPerflow" },
                ),
                // Unrelated op, must not appear.
                ev(4_000_000, "controller", Some(9), None, SpanEvent::Completed),
                // Unrelated sub without a parent, must not appear.
                ev(5_000_000, "mb:mb_a", None, Some(99), SpanEvent::Handled { msg: "getStats" }),
                ev(6_000_000, "controller", Some(7), None, SpanEvent::Completed),
            ],
            evicted: 3,
            capacity: 16,
        };
        let t = op_timeline(&dump, 7);
        assert_eq!(t.columns, vec!["t (ms)", "sub", "phase", "controller", "mb:mb_b"]);
        assert_eq!(t.rows.len(), 4, "{t}");
        // The MB-side event lands in the MB column, empty elsewhere.
        assert_eq!(t.rows[2][3], "");
        assert_eq!(t.rows[2][4], "handled(putSupportPerflow)");
        let s = t.to_string();
        assert!(s.contains("issued(moveInternal)"), "{s}");
        assert!(!s.contains("getStats"), "{s}");
        assert!(s.contains("evicted 3 event(s)"), "{s}");
    }

    #[test]
    fn op_timeline_sorts_merged_cross_node_events() {
        use openmb_simnet::obs::{SpanEvent, TimelineEvent};
        let ev = |t_ns, node: &str, op, sub, event| TimelineEvent {
            t_ns,
            node: node.to_owned(),
            op,
            sub,
            event,
        };
        // Recording order interleaves two nodes out of time order (the
        // MB thread stamped earlier events but recorded them later),
        // plus a same-instant pair where the parent-level event must
        // precede the sub-level one, whatever order they recorded in.
        let dump = RecorderDump {
            events: vec![
                ev(5_000_000, "controller", Some(7), Some(9), SpanEvent::ChunkAcked { seq: 2 }),
                ev(1_000_000, "controller", Some(7), None, SpanEvent::Issued { kind: "move" }),
                ev(3_000_000, "mb:b", None, Some(9), SpanEvent::Handled { msg: "put" }),
                ev(3_000_000, "controller", Some(7), None, SpanEvent::ChunkAcked { seq: 1 }),
                ev(2_000_000, "controller", Some(7), Some(9), SpanEvent::Issued { kind: "put" }),
            ],
            evicted: 0,
            capacity: 16,
        };
        let t = op_timeline(&dump, 7);
        let times: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(times, vec!["1.000", "2.000", "3.000", "3.000", "5.000"], "{t}");
        // At t=3ms the op-level controller event sorts before the
        // sub-correlated MB event.
        assert_eq!(t.rows[2][1], "—", "{t}");
        assert_eq!(t.rows[3][1], "9", "{t}");
    }

    #[test]
    fn op_timeline_breaks_same_instant_cross_thread_ties_by_id() {
        use openmb_simnet::obs::{SpanEvent, TimelineEvent};
        let ev = |t_ns, node: &str, op, sub, event| TimelineEvent {
            t_ns,
            node: node.to_owned(),
            op,
            sub,
            event,
        };
        // Two sub-ops of op 8 stamped in the *same instant* by two MBs
        // served from different threads: the recording order of the
        // pair races; the rendered table must not depend on it, so
        // build the same dump in both interleavings.
        let mk = |swapped: bool| {
            let mut pair = vec![
                ev(2_000_000, "mb:a", None, Some(12), SpanEvent::Handled { msg: "put" }),
                ev(2_000_000, "mb:b", None, Some(13), SpanEvent::Handled { msg: "put" }),
            ];
            if swapped {
                pair.reverse();
            }
            let mut events = vec![
                ev(1_000_000, "controller", Some(8), None, SpanEvent::Issued { kind: "move" }),
                ev(1_500_000, "controller", Some(8), Some(12), SpanEvent::Issued { kind: "put" }),
                ev(1_500_000, "controller", Some(8), Some(13), SpanEvent::Issued { kind: "put" }),
            ];
            events.extend(pair);
            RecorderDump { events, evicted: 0, capacity: 16 }
        };
        let a = op_timeline(&mk(false), 8).to_string();
        let b = op_timeline(&mk(true), 8).to_string();
        assert_eq!(a, b, "timeline must be byte-identical whichever thread recorded first");
        // And the tie resolves by sub id, not recording order.
        let t = op_timeline(&mk(true), 8);
        assert_eq!(t.rows[3][1], "12", "{t}");
        assert_eq!(t.rows[4][1], "13", "{t}");
    }

    #[test]
    fn op_timeline_attributes_phases() {
        use openmb_simnet::obs::{SpanEvent, TimelineEvent};
        let ev = |t_ns, op, sub, event| TimelineEvent {
            t_ns,
            node: "controller".to_owned(),
            op,
            sub,
            event,
        };
        let dump = RecorderDump {
            events: vec![
                ev(1_000_000, Some(7), None, SpanEvent::Issued { kind: "move" }),
                ev(2_000_000, Some(7), Some(9), SpanEvent::PutAdmitted { seq: 0 }),
                ev(3_000_000, Some(7), None, SpanEvent::Completed),
                ev(4_000_000, Some(7), None, SpanEvent::DeleteIssued { mb: 1 }),
                ev(5_000_000, Some(7), None, SpanEvent::DeleteAcked),
            ],
            evicted: 0,
            capacity: 16,
        };
        let t = op_timeline(&dump, 7);
        let phases: Vec<&str> = t.rows.iter().map(|r| r[2].as_str()).collect();
        assert_eq!(phases, vec!["admit", "transfer", "quiesce", "commit", "commit"], "{t}");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.5), "1234"); // round-half-to-even
        assert_eq!(f(12.345), "12.35");
        assert_eq!(f(0.0123), "0.0123");
    }
}
