//! Periodic health snapshots: one struct capturing, at an instant,
//! everything an operator would page on — controller load, open
//! chains, the transfer ledger, and the invariant monitor's violation
//! count — renderable as a text dashboard and as JSON.
//!
//! This crate sits below `openmb-core`, so the snapshot is a plain
//! data carrier: the controller embeddings (which know their service
//! queue and ledger internals) populate it, `metrics_export`
//! serializes it.

use std::fmt::Write as _;

/// Controller load at snapshot time. The controller is one core, so a
/// snapshot carries exactly one entry (`shard` 0); the list shape and
/// the always-zero `deferred_ops` keep the exported keys stable for
/// dashboards that read them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardHealth {
    pub shard: u32,
    /// Live (non-quiesced) operations.
    pub open_ops: u64,
    /// Always 0: the controller never defers an admission.
    pub deferred_ops: u64,
    /// Southbound messages queued on the controller's event loop.
    pub queue_depth: u64,
    /// Highest queue depth the event loop has reached.
    pub queue_depth_peak: u64,
    /// Whether the controller's modeled server is mid-service.
    pub busy: bool,
}

/// The aggregate transfer ledger (mirrors the controller's
/// `TransferLedgerStats` — kept as plain integers so `openmb-obs`
/// stays dependency-free).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerHealth {
    pub puts_in_flight: u64,
    pub puts_queued: u64,
    pub ack_set_size: u64,
    pub bodies_in_flight: u64,
    pub in_flight_peak: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub bodies_sent: u64,
    pub bytes_saved: u64,
}

/// One point-in-time health capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Capture time (sim nanoseconds or monotonic ns, embedding's
    /// choice — consistent within one run).
    pub t_ns: u64,
    pub shards: Vec<ShardHealth>,
    /// Chain transactions not yet committed or rolled back.
    pub open_chains: u64,
    pub ledger: LedgerHealth,
    /// Invariant violations the monitor has detected so far.
    pub violations: u64,
}

impl HealthSnapshot {
    /// Render as a fixed-width text dashboard (one block per
    /// snapshot; deterministic, diffable).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== health @ {:.3} ms | open_chains {} | violations {} ==",
            self.t_ns as f64 / 1e6,
            self.open_chains,
            self.violations
        );
        let _ = writeln!(
            out,
            "  ledger: in_flight {} (peak {}) queued {} ack_set {} bodies {} | cache {}h/{}m bodies_sent {} bytes_saved {}",
            self.ledger.puts_in_flight,
            self.ledger.in_flight_peak,
            self.ledger.puts_queued,
            self.ledger.ack_set_size,
            self.ledger.bodies_in_flight,
            self.ledger.cache_hits,
            self.ledger.cache_misses,
            self.ledger.bodies_sent,
            self.ledger.bytes_saved
        );
        for s in &self.shards {
            let _ = writeln!(
                out,
                "  shard{}: open {} deferred {} queue {} (peak {}) {}",
                s.shard,
                s.open_ops,
                s.deferred_ops,
                s.queue_depth,
                s.queue_depth_peak,
                if s.busy { "busy" } else { "idle" }
            );
        }
        out
    }

    /// Serialize as one JSON object (hand-rolled like the registry
    /// exporters; field names are stable API).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"open_chains\":{},\"violations\":{},\"ledger\":{{\"puts_in_flight\":{},\"puts_queued\":{},\"ack_set_size\":{},\"bodies_in_flight\":{},\"in_flight_peak\":{},\"cache_hits\":{},\"cache_misses\":{},\"bodies_sent\":{},\"bytes_saved\":{}}},\"shards\":[",
            self.t_ns,
            self.open_chains,
            self.violations,
            self.ledger.puts_in_flight,
            self.ledger.puts_queued,
            self.ledger.ack_set_size,
            self.ledger.bodies_in_flight,
            self.ledger.in_flight_peak,
            self.ledger.cache_hits,
            self.ledger.cache_misses,
            self.ledger.bodies_sent,
            self.ledger.bytes_saved
        );
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"open_ops\":{},\"deferred_ops\":{},\"queue_depth\":{},\"queue_depth_peak\":{},\"busy\":{}}}",
                s.shard, s.open_ops, s.deferred_ops, s.queue_depth, s.queue_depth_peak, s.busy
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> HealthSnapshot {
        HealthSnapshot {
            t_ns: 1_500_000,
            shards: vec![
                ShardHealth {
                    shard: 0,
                    open_ops: 2,
                    deferred_ops: 1,
                    queue_depth: 3,
                    queue_depth_peak: 9,
                    busy: true,
                },
                ShardHealth { shard: 1, ..ShardHealth::default() },
            ],
            open_chains: 1,
            ledger: LedgerHealth {
                puts_in_flight: 4,
                in_flight_peak: 8,
                cache_hits: 10,
                ..LedgerHealth::default()
            },
            violations: 0,
        }
    }

    #[test]
    fn text_dashboard_lists_every_shard() {
        let t = snap().render_text();
        assert!(t.contains("health @ 1.500 ms"), "{t}");
        assert!(t.contains("open_chains 1"), "{t}");
        assert!(t.contains("shard0: open 2 deferred 1 queue 3 (peak 9) busy"), "{t}");
        assert!(t.contains("shard1: open 0 deferred 0 queue 0 (peak 0) idle"), "{t}");
        assert!(t.contains("in_flight 4 (peak 8)"), "{t}");
    }

    #[test]
    fn json_is_balanced_and_carries_fields() {
        let j = snap().to_json();
        assert!(j.contains("\"t_ns\":1500000"), "{j}");
        assert!(j.contains("\"violations\":0"), "{j}");
        assert!(j.contains("\"cache_hits\":10"), "{j}");
        assert!(j.contains("\"busy\":true"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert_eq!(j.matches('[').count(), j.matches(']').count(), "{j}");
    }
}
