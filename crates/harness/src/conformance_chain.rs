//! Chain-move conformance (DESIGN.md §15): one chain of 2–4 hops over
//! disjoint MB pairs, driven as a single atomic transaction
//! ([`openmb_core::controller::ControllerCore::chain_move`]) under
//! randomized per-hop fault schedules, with three invariant families:
//!
//! * **all-or-nothing** — a committed chain leaves every hop's
//!   endpoints byte-identical to a fault-free run of the same chain
//!   (faults are unobservable in the committed result); an aborted
//!   chain rolls *every* hop — including hops that had already
//!   completed their forward move — back to the pristine pre-move
//!   images. There is no third state: exactly one terminal completion
//!   (`ChainComplete` xor `Failed`) per chain.
//! * **bookkeeping** — the controller drains (`open_ops == 0`,
//!   `open_chains == 0`) and no transfer ledger — forward hop or
//!   reverse compensation — ever exceeds the configured window.
//! * **replay** — the same seed re-runs to a byte-identical fault log,
//!   timeline, and outcome, so any violation here is reproducible with
//!   `CONFORMANCE_CHAIN_SEED=<n>`.
//!
//! The per-hop fault mixes (drops, delays, duplicates, partitions, MB
//! crash/restart, controller crash/restore) reuse the single-op
//! suite's vocabulary but draw from a distinct RNG stream, and the
//! windows stretch past the concurrent suite's because hops run
//! *serially*: a late hop's faults only bite if they are still live
//! when the chain reaches that hop.

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use openmb_apps::scenarios::{multi_layout, multi_pair_scenario, ScenarioParams};
use openmb_core::app::{Api, ControlApp};
use openmb_core::chain::{ChainHop, ChainSpec};
use openmb_core::controller::Completion;
use openmb_core::nodes::{ControllerNode, MbNode};
use openmb_mb::{Middlebox, SharedSnapshot};
use openmb_middleboxes::{Firewall, Monitor, Nat};
use openmb_simnet::{FaultAction, FaultPlan, FaultRule, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, MbId, OpId, StateStats};

use crate::conformance::{canonical_shared, ms, preload, Rng, CONF_WINDOW, OP_AT_MS, PRELOAD};
use crate::conformance_concurrent::{conc_config, initial_pair, ConcMb, ALL_CONC_MBS};

/// Last instant a non-harsh fault window may extend to. Hops run in
/// series, so this reaches past the concurrent suite's horizon to give
/// later hops a chance of running inside a fault window.
const CHAIN_WINDOW_END_MS: u64 = 1900;

/// A fully-expanded chain fault schedule.
pub struct ChainSchedule {
    pub seed: u64,
    /// Chain length (2–4 hops), hop `i` moving `src_mb(i) → dst_mb(i)`.
    pub hops: usize,
    /// Middlebox type every hop's endpoints run.
    pub mb: ConcMb,
    /// Drop-storm mode across every control link.
    pub harsh: bool,
    pub plan: FaultPlan,
    /// `(mb id, crash at, restart at)` — reported to the controller as
    /// southbound resets, as in the single-op suite.
    pub mb_crashes: Vec<(MbId, SimTime, SimTime)>,
}

/// Expand `seed` into a chain schedule. Same seed, same schedule. The
/// XOR constants differ from both other suites' so the three explore
/// different fault mixes at the same seed.
pub fn generate_chain(seed: u64) -> ChainSchedule {
    use multi_layout::*;
    let mut rng = Rng::new(seed ^ 0x0C4A_11E5);
    let hops = 2 + rng.below(3) as usize;
    let mb = ALL_CONC_MBS[rng.below(ALL_CONC_MBS.len() as u64) as usize];
    let harsh = rng.chance(10);
    let mut plan = FaultPlan::seeded(seed ^ 0x00C4_A11B);
    let mut mb_crashes = Vec::new();

    // All control-link directions, per hop.
    let dirs: Vec<Vec<(openmb_types::NodeId, openmb_types::NodeId)>> = (0..hops as u32)
        .map(|i| {
            vec![
                (CONTROLLER, src_node(i)),
                (src_node(i), CONTROLLER),
                (CONTROLLER, dst_node(i)),
                (dst_node(i), CONTROLLER),
            ]
        })
        .collect();

    if harsh {
        // Storm every link at once: the live hop exhausts its resumes
        // and the rollback has to fight the same storm in reverse.
        for pd in &dirs {
            for &(a, b) in pd {
                let p = 0.75 + rng.f64() * 0.20;
                plan = plan.rule(
                    FaultRule::on_link(a, b, FaultAction::Drop)
                        .with_probability(p)
                        .between(ms(OP_AT_MS), ms(1500)),
                );
            }
        }
    } else {
        // Hard outage: one hop's endpoint stays down past the hop's op
        // deadline, so if the outage catches the hop in flight (or
        // pending) the hop aborts and the chain must compensate every
        // hop that already committed. The restart still arrives before
        // the run ends, letting the abort's delete drain and the
        // rollback finish — the seed must end pristine, not merely
        // failed. (An outage that lands after its hop completed leaves
        // the chain to commit with deletes pending until restart —
        // also worth sweeping.)
        let outage_hop = if rng.chance(30) { Some(rng.below(hops as u64) as usize) } else { None };
        if let Some(i) = outage_hop {
            let i = i as u32;
            let (node, id) =
                if rng.chance(50) { (src_node(i), src_mb(i)) } else { (dst_node(i), dst_mb(i)) };
            let at = OP_AT_MS + 5 + rng.below(600);
            let restart = at + 4500 + rng.below(800);
            plan = plan.crash_restart(node, ms(at), ms(restart));
            mb_crashes.push((id, ms(at), ms(restart)));
        }
        for (i, pd) in dirs.iter().enumerate() {
            // Each hop independently draws its own small fault mix, so
            // one hop can run clean while the next fights drops — the
            // mid-chain-failure shape that forces compensation of the
            // hops already committed.
            for _ in 0..rng.below(3) {
                let (a, b) = pd[rng.below(4) as usize];
                let from = OP_AT_MS + rng.below(CHAIN_WINDOW_END_MS - OP_AT_MS - 50);
                let until = from + 30 + rng.below(600);
                plan = plan.rule(
                    FaultRule::on_link(a, b, FaultAction::Drop)
                        .with_probability(0.05 + rng.f64() * 0.45)
                        .between(ms(from), ms(until)),
                );
            }
            for _ in 0..rng.below(2) {
                let (a, b) = pd[rng.below(4) as usize];
                let by = SimDuration::from_millis(1 + rng.below(30));
                plan = plan.rule(
                    FaultRule::on_link(a, b, FaultAction::Delay(by))
                        .with_probability(rng.f64() * 0.5)
                        .between(ms(OP_AT_MS), ms(CHAIN_WINDOW_END_MS)),
                );
            }
            for _ in 0..rng.below(2) {
                let (a, b) = pd[rng.below(4) as usize];
                plan = plan.rule(
                    FaultRule::on_link(a, b, FaultAction::Duplicate)
                        .with_probability(rng.f64() * 0.6)
                        .between(ms(OP_AT_MS), ms(CHAIN_WINDOW_END_MS)),
                );
            }
            if rng.chance(20) {
                let peer = if rng.chance(50) { src_node(i as u32) } else { dst_node(i as u32) };
                let from = OP_AT_MS + rng.below(800);
                let len = 40 + rng.below(160);
                plan = plan.partition(CONTROLLER, peer, ms(from), ms(from + len));
            }
            // Short crash/restart cycles keep off outage hops: two
            // overlapping crash schedules on one node would race.
            if rng.chance(25) && outage_hop != Some(i) {
                let (node, id) = if rng.chance(50) {
                    (src_node(i as u32), src_mb(i as u32))
                } else {
                    (dst_node(i as u32), dst_mb(i as u32))
                };
                let at = OP_AT_MS + 5 + rng.below(900);
                let restart = at + 20 + rng.below(100);
                plan = plan.crash_restart(node, ms(at), ms(restart));
                mb_crashes.push((id, ms(at), ms(restart)));
            }
        }
        if rng.chance(15) {
            // Controller crash mid-chain: the journal must restore the
            // chain's phase machine (which hop is live, which hops owe
            // compensation), not just the per-op ledgers.
            let at = OP_AT_MS + 5 + rng.below(900);
            let restart = at + 10 + rng.below(70);
            plan = plan.crash_restart(CONTROLLER, ms(at), ms(restart));
        }
    }
    mb_crashes.sort_by_key(|c| c.1);
    ChainSchedule { seed, hops, mb, harsh, plan, mb_crashes }
}

/// One hop's endpoint images after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct HopObserved {
    pub src_entries: usize,
    pub dst_entries: usize,
    pub src_stats: StateStats,
    pub dst_stats: StateStats,
    pub src_shared: SharedSnapshot,
    pub dst_shared: SharedSnapshot,
}

/// Everything a chain run exposes to the invariants (and to the
/// replay-equality comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainObserved {
    /// The chain's terminal `ChainComplete` was emitted.
    pub committed: bool,
    /// The chain's terminal `Failed` was emitted.
    pub failed: bool,
    /// Debug rendering of the failure error (empty when committed).
    pub error: String,
    /// Total chunks the committed chain reported moving.
    pub chunks_moved: usize,
    pub hops: Vec<HopObserved>,
    pub open_ops: usize,
    pub open_chains: usize,
    pub fault_log: String,
    pub timeline: String,
    /// Rendered invariant-monitor violations — the chain suite is
    /// where I3 (rollback only after the forward hop's source-delete
    /// acks) gets exercised under fire; must stay empty.
    pub violations: Vec<String>,
}

/// Issues the one chain move at the scheduled instant and records the
/// chain id for the harness to read back. Idempotent across a
/// controller crash re-running `on_timer`.
struct ChainMoveOnce {
    hops: Vec<ChainHop>,
    at: SimDuration,
    issued: Arc<Mutex<Vec<OpId>>>,
}

impl ControlApp for ChainMoveOnce {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.at, 1);
    }
    fn on_timer(&mut self, api: &mut Api<'_>, _token: u64) {
        let mut ids = self.issued.lock().unwrap();
        if !ids.is_empty() {
            return;
        }
        ids.push(api.chain_move(ChainSpec::new(HeaderFieldList::any(), self.hops.clone())));
    }
}

fn drive_chain<M: Middlebox + 'static>(
    mut mk: impl FnMut() -> M,
    hops: usize,
    sched: Option<&ChainSchedule>,
) -> ChainObserved {
    use multi_layout::*;
    let issued = Arc::new(Mutex::new(Vec::new()));
    let app = ChainMoveOnce {
        hops: (0..hops as u32).map(|i| ChainHop { src: src_mb(i), dst: dst_mb(i) }).collect(),
        at: SimDuration::from_millis(OP_AT_MS),
        issued: Arc::clone(&issued),
    };
    let mut setup = multi_pair_scenario(
        |_| {
            let mut src = mk();
            preload(&mut src, PRELOAD);
            (src, mk())
        },
        hops,
        conc_config(),
        Box::new(app),
        ScenarioParams::default(),
    );
    // The invariant monitor verifies the chain choreography live:
    // per-hop windowing (I1), delete-after-terminal (I2), and the
    // rollback ordering rule (I3) all ride the span stream.
    let monitor = Arc::new(openmb_simnet::obs::Monitor::new(openmb_simnet::obs::MonitorConfig {
        transfer_window: CONF_WINDOW,
        ..Default::default()
    }));
    let rec = openmb_simnet::obs::Recorder::enabled(4096);
    rec.add_sink(monitor.clone());
    setup.sim.set_recorder(rec);
    setup.sim.node_as_mut::<ControllerNode>(CONTROLLER).enable_journal();

    let mut events: Vec<(SimTime, MbId, bool)> = Vec::new();
    if let Some(s) = sched {
        setup.sim.set_fault_plan(s.plan.clone());
        for &(mb, at, restart) in &s.mb_crashes {
            events.push((at, mb, false));
            events.push((restart, mb, true));
        }
        events.sort_by_key(|e| e.0);
    }
    for (t, mb, up) in &events {
        setup.sim.run_until(*t, 50_000_000);
        let ctrl = setup.sim.node_as_mut::<ControllerNode>(CONTROLLER);
        if *up {
            ctrl.report_reachable(*mb);
        } else {
            ctrl.report_unreachable(*mb);
        }
    }
    setup.sim.run(50_000_000);
    if !events.is_empty() {
        // Same idempotent re-report + drain tick the other suites use:
        // a controller crash can eat a reachability report.
        let ctrl = setup.sim.node_as_mut::<ControllerNode>(CONTROLLER);
        for (_, mb, up) in &events {
            if *up {
                ctrl.report_reachable(*mb);
            }
        }
        let t = setup.sim.now().after(SimDuration::from_millis(1));
        setup.sim.inject_timer(t, CONTROLLER, 4242);
        setup.sim.run(50_000_000);
    }
    assert!(setup.sim.is_idle(), "simulation must drain");

    let ids: Vec<OpId> = issued.lock().unwrap().clone();
    assert_eq!(ids.len(), 1, "the chain must have been issued exactly once");
    let chain = ids[0];

    let timeline = setup.sim.recorder().dump().to_string();
    let fault_log = format!("{:?}", setup.sim.fault_log());
    let (committed, failed, error, chunks_moved, open_ops, open_chains) = {
        let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
        let mut committed = false;
        let mut failed = false;
        let mut error = String::new();
        let mut chunks = 0;
        for (_, c) in &ctrl.completions {
            match c {
                Completion::ChainComplete { op, hops: h, chunks_moved } if *op == chain => {
                    assert!(!committed, "chain emitted ChainComplete twice");
                    assert_eq!(*h, hops, "committed chain must report every hop");
                    committed = true;
                    chunks = *chunks_moved;
                }
                Completion::Failed { op, error: e, .. } if *op == chain => {
                    assert!(!failed, "chain emitted Failed twice");
                    failed = true;
                    error = format!("{e:?}");
                }
                _ => {}
            }
        }
        // Windowing holds across forward hops and reverse compensation
        // alike: the peak is core-wide, so one probe covers every op
        // the chain ever issued.
        let stats = ctrl.core.transfer_ledger_stats(chain);
        assert!(
            stats.in_flight_peak <= CONF_WINDOW as usize,
            "chain {chain:?}: transfer window violated: peak {} > {}",
            stats.in_flight_peak,
            CONF_WINDOW
        );
        (committed, failed, error, chunks, ctrl.core.open_ops(), ctrl.core.open_chains())
    };

    let mut hop_obs = Vec::with_capacity(hops);
    for i in 0..hops {
        let (src_entries, src_stats, src_shared) = {
            let n = setup.sim.node_as_mut::<MbNode<M>>(src_node(i as u32));
            (n.logic.perflow_entries(), n.logic.stats(&HeaderFieldList::any()), {
                n.logic.snapshot_shared().unwrap()
            })
        };
        let (dst_entries, dst_stats, dst_shared) = {
            let n = setup.sim.node_as_mut::<MbNode<M>>(dst_node(i as u32));
            (n.logic.perflow_entries(), n.logic.stats(&HeaderFieldList::any()), {
                n.logic.snapshot_shared().unwrap()
            })
        };
        hop_obs.push(HopObserved {
            src_entries,
            dst_entries,
            src_stats,
            dst_stats,
            src_shared: canonical_shared(&mut mk, src_shared),
            dst_shared: canonical_shared(&mut mk, dst_shared),
        });
    }
    ChainObserved {
        committed,
        failed,
        error,
        chunks_moved,
        hops: hop_obs,
        open_ops,
        open_chains,
        fault_log,
        timeline,
        violations: monitor.violations().iter().map(|v| v.to_string()).collect(),
    }
}

fn mk_chain_mb(mb: ConcMb, hops: usize, sched: Option<&ChainSchedule>) -> ChainObserved {
    match mb {
        ConcMb::Monitor => drive_chain(Monitor::new, hops, sched),
        ConcMb::Firewall => drive_chain(Firewall::new, hops, sched),
        ConcMb::Nat => drive_chain(|| Nat::new(Ipv4Addr::new(5, 5, 5, 5)), hops, sched),
    }
}

/// Run the chain schedule (faulted or not).
pub fn run_chain(s: &ChainSchedule, faulted: bool) -> ChainObserved {
    mk_chain_mb(s.mb, s.hops, if faulted { Some(s) } else { None })
}

/// The replay command printed with every violation.
pub fn replay_command(seed: u64) -> String {
    format!(
        "CONFORMANCE_CHAIN_SEED={seed} cargo test -p openmb-harness --lib \
         conformance_chain::tests::replay_env_seed -- --nocapture --include-ignored"
    )
}

/// Outcome summary of one chain seed.
pub struct ChainOutcome {
    pub seed: u64,
    pub hops: usize,
    pub mb: ConcMb,
    pub harsh: bool,
    pub committed: bool,
}

/// Run one chain seed end-to-end and assert every invariant, panicking
/// with the replay command on violation.
pub fn check_chain_seed(seed: u64) -> ChainOutcome {
    let s = generate_chain(seed);
    let o = run_chain(&s, true);
    let ctx = |i: usize| {
        format!(
            "seed {seed} hop {i} (chain of {} over {:?}{}) violated an invariant — replay:\n  {}",
            s.hops,
            s.mb,
            if s.harsh { ", harsh" } else { "" },
            replay_command(seed),
        )
    };

    assert!(
        o.violations.is_empty(),
        "seed {seed}: protocol invariants violated {:?} — {}",
        o.violations,
        replay_command(seed)
    );
    assert_eq!(o.open_chains, 0, "seed {seed}: chain never settled — {}", replay_command(seed));
    assert_eq!(o.open_ops, 0, "seed {seed}: chain bookkeeping leaked — {}", replay_command(seed));
    assert!(
        o.committed != o.failed,
        "seed {seed}: exactly one terminal chain outcome expected \
         (committed={}, failed={}, error={:?}) — {}",
        o.committed,
        o.failed,
        o.error,
        replay_command(seed)
    );

    if o.committed {
        assert!(o.chunks_moved > 0, "seed {seed}: committed chain moved no chunks — {}", {
            replay_command(seed)
        });
        // All-or-nothing, committed side: byte-identical to the same
        // chain run fault-free.
        let r = run_chain(&s, false);
        assert!(
            r.committed && !r.failed && r.open_ops == 0,
            "fault-free reference chain must commit (seed {seed}): error={:?}",
            r.error
        );
        for (i, (h, hr)) in o.hops.iter().zip(&r.hops).enumerate() {
            assert_eq!(h.dst_entries, hr.dst_entries, "{}\ndst entry count", ctx(i));
            assert_eq!(h.dst_stats, hr.dst_stats, "{}\ndst stats", ctx(i));
            assert_eq!(h.dst_shared, hr.dst_shared, "{}\ndst shared state", ctx(i));
            assert_eq!(h.src_entries, hr.src_entries, "{}\nsrc entry count", ctx(i));
            assert_eq!(h.src_stats, hr.src_stats, "{}\nsrc stats", ctx(i));
            assert_eq!(h.src_shared, hr.src_shared, "{}\nsrc shared state", ctx(i));
        }
    } else {
        // All-or-nothing, aborted side: every hop pristine — including
        // hops whose forward move had completed before the failure and
        // were compensated in reverse order.
        let (init_src_entries, init_src_shared, init_dst_shared) = initial_pair(s.mb);
        for (i, h) in o.hops.iter().enumerate() {
            assert_eq!(h.dst_entries, 0, "{}\nrollback left per-flow state at hop dst", ctx(i));
            assert_eq!(
                h.dst_shared,
                init_dst_shared,
                "{}\nrollback left orphaned shared state at hop dst",
                ctx(i)
            );
            assert_eq!(
                h.src_entries,
                init_src_entries,
                "{}\nrollback lost hop source per-flow state",
                ctx(i)
            );
            assert_eq!(
                h.src_shared,
                init_src_shared,
                "{}\nrollback corrupted hop source shared state",
                ctx(i)
            );
        }
    }
    ChainOutcome { seed, hops: s.hops, mb: s.mb, harsh: s.harsh, committed: o.committed }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast tier-1 sweep: every seed runs one faulted chain plus, for
    /// committed outcomes, its fault-free reference.
    #[test]
    fn chain_schedules_fast_range() {
        for seed in 0..16 {
            check_chain_seed(seed);
        }
    }

    /// Deterministic commit: an unfaulted 4-hop chain over every MB
    /// type commits, drains, and leaves each hop's destination holding
    /// the moved flow group with its source empty.
    #[test]
    fn four_hop_chain_commits_every_hop_unfaulted() {
        for mb in ALL_CONC_MBS {
            let o = mk_chain_mb(mb, 4, None);
            assert!(o.committed && !o.failed, "{mb:?}: chain must commit: error={:?}", o.error);
            assert_eq!(o.open_ops, 0, "{mb:?}: bookkeeping leaked");
            assert_eq!(o.open_chains, 0, "{mb:?}: chain never settled");
            assert!(o.chunks_moved > 0, "{mb:?}: chain moved nothing");
            for (i, h) in o.hops.iter().enumerate() {
                assert!(h.dst_entries > 0, "{mb:?} hop {i} moved nothing");
                assert_eq!(h.src_entries, 0, "{mb:?} hop {i} source must be drained");
            }
        }
    }

    /// Same seed, byte-identical fault log, timeline, and outcome — the
    /// replay contract holds for the chain phase machine too. Seed 2
    /// rolls back (hard outage), seed 9 commits, so both terminal
    /// paths replay.
    #[test]
    fn chain_replay_is_byte_identical() {
        for seed in [2, 9] {
            let s = generate_chain(seed);
            let a = run_chain(&s, true);
            let b = run_chain(&s, true);
            assert_eq!(a.fault_log, b.fault_log, "seed {seed} fault log diverged");
            assert_eq!(a, b, "seed {seed} full outcome diverged");
        }
    }

    /// The long randomized sweep (CI nightly / `--include-ignored`).
    #[test]
    #[ignore = "long randomized sweep; run with --include-ignored"]
    fn chain_schedules_long_range() {
        for seed in 16..96 {
            check_chain_seed(seed);
        }
    }

    /// Replay hook: `CONFORMANCE_CHAIN_SEED=<n> cargo test -p
    /// openmb-harness --lib conformance_chain::tests::replay_env_seed
    /// -- --nocapture --include-ignored`.
    #[test]
    #[ignore = "replay hook; set CONFORMANCE_CHAIN_SEED to use"]
    fn replay_env_seed() {
        let Ok(v) = std::env::var("CONFORMANCE_CHAIN_SEED") else {
            eprintln!("CONFORMANCE_CHAIN_SEED not set; nothing to replay");
            return;
        };
        let seed: u64 = v.parse().expect("CONFORMANCE_CHAIN_SEED must be an integer");
        let s = generate_chain(seed);
        eprintln!(
            "replaying seed {seed}: {} hops over {:?}, harsh={}, {} rules, {} crashes",
            s.hops,
            s.mb,
            s.harsh,
            s.plan.rules.len(),
            s.plan.crashes.len(),
        );
        let o = check_chain_seed(seed);
        eprintln!(
            "seed {seed} passed ({} hops, {})",
            o.hops,
            if o.committed { "committed" } else { "rolled back" }
        );
    }
}
