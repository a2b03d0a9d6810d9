//! Per-phase latency attribution: the monitor's lifecycle timestamps
//! rendered as phase durations, exported into [`Registry`] histograms,
//! plus a percentile reader over histogram buckets.
//!
//! Phase model (per op): **admit** (northbound issue → first put
//! enters the window), **transfer** (first admission → terminal
//! event), **quiesce** (terminal → first delete issued), and
//! **delete** (first delete → last delete ack) — the delete phase is
//! the *commit* leg of a completed move and the *rollback* leg of an
//! aborted one, so it is exported under separate histogram keys.
//! Chains additionally attribute per-hop forward durations.

use crate::metrics::{Histogram, Registry};

/// One operation's phase breakdown. A phase is `None` when the op
/// never reached it (e.g. a config read has no delete phase; an op
/// aborted before admission has no transfer phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpPhases {
    pub op: u64,
    /// Northbound kind from the op-level `Issued` event.
    pub kind: Option<&'static str>,
    pub committed: bool,
    pub aborted: bool,
    pub admit_ns: Option<u64>,
    pub transfer_ns: Option<u64>,
    pub quiesce_ns: Option<u64>,
    pub delete_ns: Option<u64>,
    /// Issue → last lifecycle event (terminal or final delete ack).
    pub total_ns: Option<u64>,
}

/// One chain hop's forward-phase duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopPhase {
    pub hop: u32,
    pub forward_ns: Option<u64>,
}

/// One chain's per-hop attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPhases {
    pub chain: u64,
    pub committed: bool,
    /// Compensating reverse moves issued during rollback.
    pub undo_count: u32,
    pub hops: Vec<HopPhase>,
    pub total_ns: Option<u64>,
}

fn observe_ms(reg: &mut Registry, key: &str, ns: Option<u64>) {
    if let Some(ns) = ns {
        reg.observe(key, ns as f64 / 1e6);
    }
}

/// Fold one op's phases into `reg` as millisecond histograms:
/// `phase.<name>_ms` aggregates, `phase.by_kind.<kind>.<name>_ms`
/// per northbound kind. The delete phase splits into
/// `phase.commit_delete_ms` / `phase.rollback_delete_ms` by outcome.
pub fn export_op_phases(reg: &mut Registry, phases: &[OpPhases]) {
    for p in phases {
        let delete_key =
            if p.aborted { "phase.rollback_delete_ms" } else { "phase.commit_delete_ms" };
        observe_ms(reg, "phase.admit_ms", p.admit_ns);
        observe_ms(reg, "phase.transfer_ms", p.transfer_ns);
        observe_ms(reg, "phase.quiesce_ms", p.quiesce_ns);
        observe_ms(reg, delete_key, p.delete_ns);
        observe_ms(reg, "phase.total_ms", p.total_ns);
        if let Some(kind) = p.kind {
            observe_ms(reg, &format!("phase.by_kind.{kind}.admit_ms"), p.admit_ns);
            observe_ms(reg, &format!("phase.by_kind.{kind}.transfer_ms"), p.transfer_ns);
            observe_ms(reg, &format!("phase.by_kind.{kind}.total_ms"), p.total_ns);
        }
    }
}

/// Fold chain hop phases into `reg`: `chain.hop<h>.forward_ms` per hop
/// index plus `chain.total_ms`.
pub fn export_chain_phases(reg: &mut Registry, phases: &[ChainPhases]) {
    for c in phases {
        observe_ms(reg, "chain.total_ms", c.total_ns);
        for h in &c.hops {
            observe_ms(reg, &format!("chain.hop{}.forward_ms", h.hop), h.forward_ns);
        }
    }
}

/// Estimate the `q`-quantile (0.0..=1.0) of a histogram from its
/// cumulative bucket counts: the upper bound of the first bucket whose
/// cumulative count reaches `q * total`. Observations past the last
/// bound report the histogram's true maximum. Returns 0.0 for an empty
/// histogram.
pub fn percentile(h: &Histogram, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    for (bound, cum) in h.cumulative() {
        if cum >= rank {
            return bound;
        }
    }
    h.max().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases(kind: &'static str, aborted: bool, delete_ns: u64) -> OpPhases {
        OpPhases {
            op: 1,
            kind: Some(kind),
            committed: !aborted,
            aborted,
            admit_ns: Some(1_000_000),
            transfer_ns: Some(4_000_000),
            quiesce_ns: Some(500_000),
            delete_ns: Some(delete_ns),
            total_ns: Some(8_000_000),
        }
    }

    #[test]
    fn export_splits_commit_and_rollback_delete() {
        let mut reg = Registry::new();
        export_op_phases(
            &mut reg,
            &[phases("moveInternal", false, 2_000_000), phases("moveInternal", true, 3_000_000)],
        );
        assert_eq!(reg.histogram("phase.commit_delete_ms").unwrap().count(), 1);
        assert_eq!(reg.histogram("phase.rollback_delete_ms").unwrap().count(), 1);
        assert_eq!(reg.histogram("phase.admit_ms").unwrap().count(), 2);
        assert_eq!(reg.histogram("phase.by_kind.moveInternal.total_ms").unwrap().count(), 2);
    }

    #[test]
    fn export_chain_hops() {
        let mut reg = Registry::new();
        export_chain_phases(
            &mut reg,
            &[ChainPhases {
                chain: 1 << 62,
                committed: true,
                undo_count: 0,
                hops: vec![
                    HopPhase { hop: 0, forward_ns: Some(2_000_000) },
                    HopPhase { hop: 1, forward_ns: Some(3_000_000) },
                ],
                total_ns: Some(5_000_000),
            }],
        );
        assert_eq!(reg.histogram("chain.hop0.forward_ms").unwrap().count(), 1);
        assert_eq!(reg.histogram("chain.hop1.forward_ms").unwrap().count(), 1);
        assert_eq!(reg.histogram("chain.total_ms").unwrap().count(), 1);
    }

    #[test]
    fn percentile_reads_cumulative_buckets() {
        let mut reg = Registry::new();
        for v in [0.5, 1.5, 2.5, 3.5] {
            reg.observe_with_bounds("h", v, &[1.0, 2.0, 3.0]);
        }
        let h = reg.histogram("h").unwrap();
        // Ranks: q=0.25 -> rank 1 -> bucket le=1.0; q=0.5 -> rank 2 ->
        // le=2.0; q=1.0 -> rank 4 lands in overflow -> true max.
        assert_eq!(percentile(h, 0.25), 1.0);
        assert_eq!(percentile(h, 0.5), 2.0);
        assert_eq!(percentile(h, 1.0), 3.5);
    }
}
