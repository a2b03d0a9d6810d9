//! Concurrent-operation conformance: K ≥ 3 disjoint transfers
//! launched in the same instant against one controller core, under
//! randomized fault schedules, with three invariant families:
//!
//! * **per-op isolation** — a completed op leaves its pair's endpoints
//!   byte-identical to a *solo* run of the same op (alone on the
//!   controller, unfaulted); a failed op's rollback leaves its pair at
//!   the pristine pre-op images. Concurrency must be unobservable in
//!   the per-op result.
//! * **bookkeeping** — the controller drains (`open_ops == 0`) and no
//!   op's transfer ledger ever exceeded its window, however many ops
//!   the schedule interleaved.
//! * **replay** — the same seed re-runs to a byte-identical fault log,
//!   timeline, and outcome.
//!
//! Every run uses the controller's default configuration with the
//! conformance tunables of the single-op suite (transfer window,
//! deadline, resume budget), so concurrent ops are checked on the same
//! core every embedding runs.

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use openmb_apps::scenarios::{multi_layout, multi_pair_scenario, ScenarioParams};
use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::nodes::{ControllerNode, MbNode};
use openmb_mb::{Middlebox, SharedSnapshot};
use openmb_middleboxes::{Firewall, Monitor, Nat};
use openmb_simnet::{FaultAction, FaultPlan, FaultRule, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, MbId, OpId, StateStats};

use crate::conformance::{
    canonical_shared, ms, preload, ConfOp, Rng, ALL_OPS, CONF_WINDOW, OP_AT_MS, PRELOAD,
};

/// Middlebox type all pairs in one run use — a subset of the single-op
/// matrix with distinct state shapes (per-flow only; per-flow + policy
/// config; per-flow + shared pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcMb {
    Monitor,
    Firewall,
    Nat,
}

pub const ALL_CONC_MBS: [ConcMb; 3] = [ConcMb::Monitor, ConcMb::Firewall, ConcMb::Nat];

/// A fully-expanded concurrent fault schedule.
pub struct ConcSchedule {
    pub seed: u64,
    /// Number of disjoint MB pairs (3 or 4), each running one op.
    pub pairs: usize,
    pub mb: ConcMb,
    /// Op kind per pair, all issued at the same instant.
    pub ops: Vec<ConfOp>,
    /// Drop-storm mode across every control link.
    pub harsh: bool,
    pub plan: FaultPlan,
    /// `(mb id, crash at, restart at)` — reported to the controller as
    /// southbound resets, as in the single-op suite.
    pub mb_crashes: Vec<(MbId, SimTime, SimTime)>,
}

/// Expand `seed` into a concurrent schedule. Same seed, same schedule.
pub fn generate_concurrent(seed: u64) -> ConcSchedule {
    use multi_layout::*;
    // A distinct stream from the single-op generator so the two suites
    // explore different schedules at the same seed.
    let mut rng = Rng::new(seed ^ 0xC0C0_2C0C);
    let pairs = 3 + rng.below(2) as usize;
    let mb = ALL_CONC_MBS[rng.below(ALL_CONC_MBS.len() as u64) as usize];
    let ops: Vec<ConfOp> = (0..pairs).map(|_| ALL_OPS[rng.below(3) as usize]).collect();
    let harsh = rng.chance(10);
    let mut plan = FaultPlan::seeded(seed ^ 0x00DD_BA11);
    let mut mb_crashes = Vec::new();

    // All control-link directions, per pair.
    let dirs: Vec<Vec<(openmb_types::NodeId, openmb_types::NodeId)>> = (0..pairs as u32)
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
        // Storm every link at once: several ops exhaust their resumes
        // together and their rollbacks must not cross pairs.
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
        for (i, pd) in dirs.iter().enumerate() {
            // Each pair independently draws its own small fault mix, so
            // one op can run clean while its neighbor fights drops.
            for _ in 0..rng.below(3) {
                let (a, b) = pd[rng.below(4) as usize];
                let from = OP_AT_MS + rng.below(500);
                let until = from + 30 + rng.below(600 - from.min(599));
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
                        .between(ms(OP_AT_MS), ms(700)),
                );
            }
            for _ in 0..rng.below(2) {
                let (a, b) = pd[rng.below(4) as usize];
                plan = plan.rule(
                    FaultRule::on_link(a, b, FaultAction::Duplicate)
                        .with_probability(rng.f64() * 0.6)
                        .between(ms(OP_AT_MS), ms(700)),
                );
            }
            if rng.chance(20) {
                let peer = if rng.chance(50) { src_node(i as u32) } else { dst_node(i as u32) };
                let from = OP_AT_MS + rng.below(400);
                let len = 40 + rng.below(160);
                plan = plan.partition(CONTROLLER, peer, ms(from), ms(from + len));
            }
            if rng.chance(25) {
                let (node, id) = if rng.chance(50) {
                    (src_node(i as u32), src_mb(i as u32))
                } else {
                    (dst_node(i as u32), dst_mb(i as u32))
                };
                let at = OP_AT_MS + 5 + rng.below(500);
                let restart = at + 20 + rng.below(100);
                plan = plan.crash_restart(node, ms(at), ms(restart));
                mb_crashes.push((id, ms(at), ms(restart)));
            }
        }
        if rng.chance(15) {
            // Controller crash with several ops in flight: the journal
            // must restore every op's ledgers, not just one op's.
            let at = OP_AT_MS + 5 + rng.below(500);
            let restart = at + 10 + rng.below(70);
            plan = plan.crash_restart(CONTROLLER, ms(at), ms(restart));
        }
    }
    mb_crashes.sort_by_key(|c| c.1);
    ConcSchedule { seed, pairs, mb, ops, harsh, plan, mb_crashes }
}

/// What one pair's endpoints look like after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PairObserved {
    pub completed: bool,
    pub failed: bool,
    pub src_entries: usize,
    pub dst_entries: usize,
    pub src_stats: StateStats,
    pub dst_stats: StateStats,
    pub src_shared: SharedSnapshot,
    pub dst_shared: SharedSnapshot,
}

/// Everything a concurrent run exposes to the invariants (and to the
/// replay-equality comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct ConcObserved {
    pub pairs: Vec<PairObserved>,
    pub open_ops: usize,
    pub fault_log: String,
    pub timeline: String,
    /// Rendered invariant-monitor violations — the online oracle must
    /// stay empty for every seed.
    pub violations: Vec<String>,
}

/// Issues every scheduled op in one timer callback — the same virtual
/// instant — and records the allocated op ids for the harness to read
/// back. Idempotent across a controller crash re-running `on_timer`.
struct ConcurrentOps {
    ops: Vec<(ConfOp, MbId, MbId)>,
    at: SimDuration,
    issued: Arc<Mutex<Vec<OpId>>>,
}

impl ControlApp for ConcurrentOps {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.at, 1);
    }
    fn on_timer(&mut self, api: &mut Api<'_>, _token: u64) {
        let mut ids = self.issued.lock().unwrap();
        if !ids.is_empty() {
            return;
        }
        for &(op, src, dst) in &self.ops {
            ids.push(match op {
                ConfOp::Move => api.move_internal(src, dst, HeaderFieldList::any()),
                ConfOp::Clone => api.clone_support(src, dst),
                ConfOp::Merge => api.merge_internal(src, dst),
            });
        }
    }
}

pub(crate) fn conc_config() -> ControllerConfig {
    ControllerConfig {
        op_deadline: SimDuration::from_secs(4),
        max_transfer_resumes: 8,
        resume_after: SimDuration::from_millis(150),
        max_retries: 50,
        transfer_window: CONF_WINDOW,
        content_cache: true,
        ..ControllerConfig::default()
    }
}

fn drive_conc<M: Middlebox + 'static>(
    mut mk: impl FnMut() -> M,
    ops: &[ConfOp],
    sched: Option<&ConcSchedule>,
) -> ConcObserved {
    use multi_layout::*;
    let issued = Arc::new(Mutex::new(Vec::new()));
    let app = ConcurrentOps {
        ops: ops
            .iter()
            .enumerate()
            .map(|(i, &op)| (op, src_mb(i as u32), dst_mb(i as u32)))
            .collect(),
        at: SimDuration::from_millis(OP_AT_MS),
        issued: Arc::clone(&issued),
    };
    let mut setup = multi_pair_scenario(
        |_| {
            let mut src = mk();
            preload(&mut src, PRELOAD);
            (src, mk())
        },
        ops.len(),
        conc_config(),
        Box::new(app),
        ScenarioParams::default(),
    );
    // The invariant monitor rides the span stream as an always-on
    // oracle.
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
        // Same idempotent re-report + drain tick the single-op suite
        // uses: a controller crash can eat a reachability report.
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
    assert_eq!(ids.len(), ops.len(), "every scheduled op must have been issued");

    let timeline = setup.sim.recorder().dump().to_string();
    let fault_log = format!("{:?}", setup.sim.fault_log());
    let (open_ops, outcomes) = {
        let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
        let outcomes: Vec<(bool, bool)> = ids
            .iter()
            .map(|&op| {
                let completed = ctrl.completions.iter().any(|(_, c)| {
                    matches!(c,
                        Completion::MoveComplete { op: o, .. }
                        | Completion::CloneComplete { op: o }
                        | Completion::MergeComplete { op: o } if *o == op)
                });
                let failed = ctrl
                    .completions
                    .iter()
                    .any(|(_, c)| matches!(c, Completion::Failed { op: o, .. } if *o == op));
                // Windowing holds per op no matter how many ops the
                // schedule interleaved.
                let stats = ctrl.core.transfer_ledger_stats(op);
                assert!(
                    stats.in_flight_peak <= CONF_WINDOW as usize,
                    "op {op:?}: transfer window violated: peak {} > {}",
                    stats.in_flight_peak,
                    CONF_WINDOW
                );
                (completed, failed)
            })
            .collect();
        (ctrl.core.open_ops(), outcomes)
    };

    let mut pairs = Vec::with_capacity(ops.len());
    for (i, &(completed, failed)) in outcomes.iter().enumerate() {
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
        pairs.push(PairObserved {
            completed,
            failed,
            src_entries,
            dst_entries,
            src_stats,
            dst_stats,
            src_shared: canonical_shared(&mut mk, src_shared),
            dst_shared: canonical_shared(&mut mk, dst_shared),
        });
    }
    ConcObserved {
        pairs,
        open_ops,
        fault_log,
        timeline,
        violations: monitor.violations().iter().map(|v| v.to_string()).collect(),
    }
}

fn mk_conc_mb(mb: ConcMb, ops: &[ConfOp], sched: Option<&ConcSchedule>) -> ConcObserved {
    match mb {
        ConcMb::Monitor => drive_conc(Monitor::new, ops, sched),
        ConcMb::Firewall => drive_conc(Firewall::new, ops, sched),
        ConcMb::Nat => drive_conc(|| Nat::new(Ipv4Addr::new(5, 5, 5, 5)), ops, sched),
    }
}

/// Run the concurrent schedule (faulted or not).
pub fn run_concurrent(s: &ConcSchedule, faulted: bool) -> ConcObserved {
    mk_conc_mb(s.mb, &s.ops, if faulted { Some(s) } else { None })
}

/// The solo reference for one op kind: the same op, same MB type, same
/// preload, alone on an otherwise idle controller, unfaulted.
fn solo_reference(mb: ConcMb, op: ConfOp) -> PairObserved {
    let o = mk_conc_mb(mb, &[op], None);
    assert!(
        o.pairs[0].completed && !o.pairs[0].failed && o.open_ops == 0,
        "solo reference must complete cleanly: {:?}",
        o.pairs[0]
    );
    o.pairs.into_iter().next().unwrap()
}

/// The pristine pre-op images of one pair (source preloaded,
/// destination fresh), for the abort invariants (shared with the
/// chain suite, whose rollback invariant is the same comparison
/// applied to every hop).
pub(crate) fn initial_pair(mb: ConcMb) -> (usize, SharedSnapshot, SharedSnapshot) {
    fn img<M: Middlebox>(mut mk: impl FnMut() -> M) -> (usize, SharedSnapshot, SharedSnapshot) {
        let mut src = mk();
        preload(&mut src, PRELOAD);
        let mut dst = mk();
        let s = src.snapshot_shared().unwrap();
        let d = dst.snapshot_shared().unwrap();
        (src.perflow_entries(), canonical_shared(&mut mk, s), canonical_shared(&mut mk, d))
    }
    match mb {
        ConcMb::Monitor => img(Monitor::new),
        ConcMb::Firewall => img(Firewall::new),
        ConcMb::Nat => img(|| Nat::new(Ipv4Addr::new(5, 5, 5, 5))),
    }
}

/// The replay command printed with every violation.
pub fn replay_command(seed: u64) -> String {
    format!(
        "CONFORMANCE_CONC_SEED={seed} cargo test -p openmb-harness --lib \
         conformance_concurrent::tests::replay_env_seed -- --nocapture --include-ignored"
    )
}

/// Outcome summary of one concurrent seed.
pub struct ConcOutcome {
    pub seed: u64,
    pub pairs: usize,
    pub mb: ConcMb,
    pub harsh: bool,
    pub completed: usize,
    pub failed: usize,
}

/// Run one concurrent seed end-to-end and assert every invariant,
/// panicking with the replay command on violation.
pub fn check_concurrent_seed(seed: u64) -> ConcOutcome {
    let s = generate_concurrent(seed);
    let o = run_concurrent(&s, true);
    let ctx = |i: usize| {
        format!(
            "seed {seed} pair {i} ({:?} over {:?}{}, {} pairs) violated an invariant — replay:\n  {}",
            s.ops[i],
            s.mb,
            if s.harsh { ", harsh" } else { "" },
            s.pairs,
            replay_command(seed),
        )
    };

    assert!(
        o.violations.is_empty(),
        "seed {seed}: protocol invariants violated {:?} — {}",
        o.violations,
        replay_command(seed)
    );
    assert_eq!(
        o.open_ops,
        0,
        "seed {seed}: concurrent bookkeeping leaked — {}",
        replay_command(seed)
    );
    let (init_src_entries, init_src_shared, init_dst_shared) = initial_pair(s.mb);
    let mut completed = 0;
    let mut failed = 0;
    for (i, p) in o.pairs.iter().enumerate() {
        assert!(
            p.completed != p.failed,
            "{}\nexactly one terminal outcome expected (completed={}, failed={})",
            ctx(i),
            p.completed,
            p.failed
        );
        if p.completed {
            completed += 1;
            // Per-op isolation: byte-identical to the op run solo.
            let r = solo_reference(s.mb, s.ops[i]);
            assert_eq!(p.dst_entries, r.dst_entries, "{}\ndst entry count", ctx(i));
            assert_eq!(p.dst_stats, r.dst_stats, "{}\ndst stats", ctx(i));
            assert_eq!(p.dst_shared, r.dst_shared, "{}\ndst shared state", ctx(i));
            assert_eq!(p.src_entries, r.src_entries, "{}\nsrc entry count", ctx(i));
            assert_eq!(p.src_stats, r.src_stats, "{}\nsrc stats", ctx(i));
            assert_eq!(p.src_shared, r.src_shared, "{}\nsrc shared state", ctx(i));
        } else {
            failed += 1;
            // Abort: this pair rolls back clean, neighbors unaffected.
            assert_eq!(p.dst_entries, 0, "{}\naborted op left per-flow state at dst", ctx(i));
            assert_eq!(
                p.dst_shared,
                init_dst_shared,
                "{}\naborted op left orphaned shared state at dst",
                ctx(i)
            );
            assert_eq!(
                p.src_entries,
                init_src_entries,
                "{}\nabort lost source per-flow state",
                ctx(i)
            );
            assert_eq!(
                p.src_shared,
                init_src_shared,
                "{}\nabort corrupted source shared state",
                ctx(i)
            );
        }
    }
    ConcOutcome { seed, pairs: s.pairs, mb: s.mb, harsh: s.harsh, completed, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast tier-1 sweep: every seed runs K faulted ops plus up to
    /// three solo references.
    #[test]
    fn concurrent_schedules_fast_range() {
        for seed in 0..16 {
            check_concurrent_seed(seed);
        }
    }

    /// 4 unfaulted moves over disjoint pairs, issued in one instant,
    /// all complete and the controller drains.
    #[test]
    fn four_disjoint_moves_all_complete() {
        let ops = [ConfOp::Move, ConfOp::Move, ConfOp::Move, ConfOp::Move];
        let o = mk_conc_mb(ConcMb::Monitor, &ops, None);
        assert_eq!(o.open_ops, 0);
        for (i, p) in o.pairs.iter().enumerate() {
            assert!(p.completed && !p.failed, "pair {i} must complete: {p:?}");
            assert!(p.dst_entries > 0, "pair {i} moved nothing");
        }
    }

    /// Bridging op: a wildcard clone whose endpoints touch two
    /// disjoint live moves runs alongside both. All three ops complete,
    /// and the whole schedule replays byte-identically.
    #[test]
    fn bridging_clone_between_two_disjoint_moves() {
        use multi_layout::*;

        struct BridgeApp {
            issued: Arc<Mutex<Vec<OpId>>>,
        }
        impl ControlApp for BridgeApp {
            fn on_start(&mut self, api: &mut Api<'_>) {
                api.set_timer(SimDuration::from_millis(OP_AT_MS), 1);
            }
            fn on_timer(&mut self, api: &mut Api<'_>, _token: u64) {
                let mut ids = self.issued.lock().unwrap();
                if !ids.is_empty() {
                    return;
                }
                ids.push(api.move_internal(src_mb(0), dst_mb(0), HeaderFieldList::any()));
                ids.push(api.move_internal(src_mb(1), dst_mb(1), HeaderFieldList::any()));
                // The bridge: one endpoint inside each live move's pair,
                // wildcard flowspace — conflicts with both.
                ids.push(api.clone_support(dst_mb(0), src_mb(1)));
            }
        }

        fn run() -> (Vec<bool>, usize, String) {
            let issued = Arc::new(Mutex::new(Vec::new()));
            let mut setup = multi_pair_scenario(
                |_| {
                    let mut src = Monitor::new();
                    preload(&mut src, PRELOAD);
                    (src, Monitor::new())
                },
                2,
                conc_config(),
                Box::new(BridgeApp { issued: Arc::clone(&issued) }),
                ScenarioParams::default(),
            );
            let imon =
                Arc::new(openmb_simnet::obs::Monitor::new(openmb_simnet::obs::MonitorConfig {
                    transfer_window: CONF_WINDOW,
                    ..Default::default()
                }));
            let rec = openmb_simnet::obs::Recorder::enabled(4096);
            rec.add_sink(imon.clone());
            setup.sim.set_recorder(rec);
            setup.sim.run(50_000_000);
            assert!(setup.sim.is_idle(), "simulation must drain");
            assert_eq!(imon.violations(), vec![], "bridging schedule violated an invariant");

            let ids: Vec<OpId> = issued.lock().unwrap().clone();
            assert_eq!(ids.len(), 3, "two moves plus the bridging clone");
            let timeline = setup.sim.recorder().dump().to_string();
            let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
            let completed: Vec<bool> = ids
                .iter()
                .map(|&op| {
                    ctrl.completions.iter().any(|(_, c)| {
                        matches!(c,
                            Completion::MoveComplete { op: o, .. }
                            | Completion::CloneComplete { op: o } if *o == op)
                    })
                })
                .collect();
            (completed, ctrl.core.open_ops(), timeline)
        }

        let a = run();
        let (completed, open_ops, _) = &a;
        assert_eq!(*open_ops, 0, "bookkeeping leaked");
        assert!(completed.iter().all(|&c| c), "all three ops must complete: {completed:?}");

        let b = run();
        assert_eq!(a, b, "bridging schedule replay diverged");
    }

    /// Same seed, byte-identical fault log, timeline, and outcome — the
    /// replay contract holds with several ops in flight.
    #[test]
    fn concurrent_replay_is_byte_identical() {
        for seed in [2, 11] {
            let s = generate_concurrent(seed);
            let a = run_concurrent(&s, true);
            let b = run_concurrent(&s, true);
            assert_eq!(a.fault_log, b.fault_log, "seed {seed} fault log diverged");
            assert_eq!(a, b, "seed {seed} full outcome diverged");
        }
    }

    /// The long randomized sweep (CI nightly / `--include-ignored`).
    #[test]
    #[ignore = "long randomized sweep; run with --include-ignored"]
    fn concurrent_schedules_long_range() {
        for seed in 16..96 {
            check_concurrent_seed(seed);
        }
    }

    /// Replay hook: `CONFORMANCE_CONC_SEED=<n> cargo test -p
    /// openmb-harness --lib conformance_concurrent::tests::replay_env_seed
    /// -- --nocapture --include-ignored`.
    #[test]
    #[ignore = "replay hook; set CONFORMANCE_CONC_SEED to use"]
    fn replay_env_seed() {
        let Ok(v) = std::env::var("CONFORMANCE_CONC_SEED") else {
            eprintln!("CONFORMANCE_CONC_SEED not set; nothing to replay");
            return;
        };
        let seed: u64 = v.parse().expect("CONFORMANCE_CONC_SEED must be an integer");
        let s = generate_concurrent(seed);
        eprintln!(
            "replaying seed {seed}: {:?} ops over {:?}, harsh={}, {} rules, {} crashes",
            s.ops,
            s.mb,
            s.harsh,
            s.plan.rules.len(),
            s.plan.crashes.len(),
        );
        let o = check_concurrent_seed(seed);
        eprintln!("seed {seed} passed ({} completed, {} failed)", o.completed, o.failed);
    }
}
