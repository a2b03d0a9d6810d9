//! The OpenMB protocol over real loopback TCP: two monitor middleboxes
//! served by threads, a `TcpController` brokering a move and a shared-
//! state merge between them — the paper's deployment shape (§7) on
//! `std::net`.

use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::tcp::{serve_middlebox, TcpController};
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::Monitor;
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::transport::TcpTransport;
use openmb_types::{FlowKey, HeaderFieldList, Packet};

fn http_pkt(id: u64, src_last: u8) -> Packet {
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, src_last),
        40_000 + u16::from(src_last),
        Ipv4Addr::new(192, 168, 1, 1),
        80,
    );
    Packet::new(id, key, vec![0u8; 64])
}

#[test]
fn move_and_merge_over_loopback_tcp() {
    // Two MB servers, each a listener + serving thread.
    let mut mb_ends = Vec::new();
    let mut handles = Vec::new();
    let stop = Arc::new(AtomicBool::new(false));
    for i in 0..2u8 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::new(stream).unwrap();
            let mut monitor = Monitor::new();
            if i == 0 {
                // Preload the source with observed flows.
                let mut fx = Effects::normal();
                for f in 1..=30u8 {
                    monitor.process_packet(
                        SimTime(u64::from(f)),
                        &http_pkt(u64::from(f), f),
                        &mut fx,
                    );
                }
            }
            serve_middlebox(&mut monitor, &transport, &stop).unwrap();
            monitor
        });
        mb_ends.push(addr);
        handles.push(handle);
    }

    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        buffer_events: true,
        ..ControllerConfig::default()
    });
    let t0 = Arc::new(TcpTransport::connect(mb_ends[0]).unwrap());
    let t1 = Arc::new(TcpTransport::connect(mb_ends[1]).unwrap());
    let src = controller.register_mb(t0);
    let dst = controller.register_mb(t1);
    controller.start();

    // stats: the source reports 30 per-flow reporting chunks.
    let c = controller.stats(src, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    match c {
        Completion::Stats { stats, .. } => assert_eq!(stats.perflow_report_chunks, 30),
        other => panic!("unexpected {other:?}"),
    }

    // readConfig("*") / writeConfig clone.
    let c = controller.read_config(src, "*", Duration::from_secs(5)).unwrap();
    let pairs = match c {
        Completion::Config { pairs, .. } => pairs,
        other => panic!("unexpected {other:?}"),
    };
    assert!(!pairs.is_empty());
    for (k, v) in &pairs {
        controller.write_config(dst, &k.to_string(), v.clone(), Duration::from_secs(5)).unwrap();
    }

    // moveInternal: all 30 chunks should land at the destination.
    let c = controller
        .move_internal(src, dst, HeaderFieldList::any(), Duration::from_secs(10))
        .unwrap();
    match c {
        Completion::MoveComplete { chunks_moved, .. } => assert_eq!(chunks_moved, 30),
        other => panic!("unexpected {other:?}"),
    }

    // mergeInternal: shared counters (30 packets) merge into dst.
    let c = controller.merge_internal(src, dst, Duration::from_secs(10)).unwrap();
    assert!(matches!(c, Completion::MergeComplete { .. }));

    // Allow the quiescence tick to fire the deletes at the source.
    std::thread::sleep(Duration::from_millis(300));
    let c = controller.stats(src, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    match c {
        Completion::Stats { stats, .. } => {
            assert_eq!(stats.perflow_report_chunks, 0, "source deleted after quiescence")
        }
        other => panic!("unexpected {other:?}"),
    }
    let c = controller.stats(dst, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    match c {
        Completion::Stats { stats, .. } => assert_eq!(stats.perflow_report_chunks, 30),
        other => panic!("unexpected {other:?}"),
    }

    controller.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        let monitor = h.join().unwrap();
        // Both ends shut down cleanly; destination holds the state.
        let _ = monitor.mb_type();
    }
}

/// A destination that vanishes mid-move and reconnects resumes from the
/// last acked chunk instead of restarting or aborting, and ends with
/// exactly the state an unfaulted move produces. The MB keeps its
/// [`SharedPutLog`] across the reconnect (the process survived; only the
/// connection died), so re-sent puts are re-acked, not re-applied.
#[test]
fn mid_transfer_disconnect_resumes_from_last_acked_chunk() {
    use openmb_core::tcp::{handle_southbound_logged, serve_middlebox_logged};
    use openmb_mb::SharedPutLog;
    use openmb_types::transport::{channel_pair, Transport};
    use openmb_types::wire::Message;

    const FLOWS: u8 = 30;
    const PUTS_BEFORE_CRASH: usize = 10;

    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        op_deadline: SimDuration::from_secs(30),
        max_transfer_resumes: 4,
        resume_after: SimDuration::from_millis(50),
        buffer_events: true,
        // A window smaller than PUTS_BEFORE_CRASH, so the puts arrive
        // in several coalesced frames and the crash really lands
        // mid-transfer (with everything in flight at once, one Batch
        // frame would carry all 30 puts).
        transfer_window: 5,
        ..ControllerConfig::default()
    });

    // Source: a served monitor preloaded with FLOWS observed flows.
    let stop = Arc::new(AtomicBool::new(false));
    let (src_ctl, src_mb) = channel_pair();
    let src_handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut monitor = Monitor::new();
            let mut fx = Effects::normal();
            for f in 1..=FLOWS {
                monitor.process_packet(SimTime(u64::from(f)), &http_pkt(u64::from(f), f), &mut fx);
            }
            serve_middlebox(&mut monitor, &src_mb, &stop).unwrap();
        })
    };

    let (dst_ctl, dst_mb) = channel_pair();
    let src_id = controller.register_mb(Arc::new(src_ctl));
    let dst_id = controller.register_mb(Arc::new(dst_ctl));
    controller.start();

    let ctrl = &controller;
    let dst = std::thread::scope(|s| {
        let mover = s.spawn(|| {
            ctrl.move_internal(src_id, dst_id, HeaderFieldList::any(), Duration::from_secs(20))
        });

        // Destination, phase 1: apply the first PUTS_BEFORE_CRASH puts by
        // hand, acking each, then drop the transport mid-transfer.
        let mut dst = Monitor::new();
        let mut log = SharedPutLog::new(0);
        let mut puts = 0usize;
        while puts < PUTS_BEFORE_CRASH {
            let msg = match dst_mb.recv_timeout(Duration::from_millis(200)) {
                Ok(Some(m)) => m,
                Ok(None) => continue,
                Err(e) => panic!("controller hung up first: {e}"),
            };
            // Count applied puts by the acks we emit — exact whether a
            // chunk arrived as a plain put, a cache-hit reference, or a
            // streamed body, and through coalesced Batch frames.
            for reply in handle_southbound_logged(&mut dst, &mut log, msg, SimTime(0)) {
                if matches!(reply, Message::PutAck { .. }) {
                    puts += 1;
                }
                dst_mb.send(reply).unwrap();
            }
        }
        drop(dst_mb);

        // Let the receive thread notice the reset and park the move
        // (resume budget is non-zero, so it must not abort).
        std::thread::sleep(Duration::from_millis(200));

        // Reconnect: same MB state and put-log, fresh transport.
        let (ctl2, mb2) = channel_pair();
        ctrl.reattach_mb(dst_id, Arc::new(ctl2));
        let stop2 = Arc::clone(&stop);
        let served = s.spawn(move || {
            serve_middlebox_logged(&mut dst, &mut log, &mb2, &stop2).unwrap();
            dst
        });

        let c = mover.join().unwrap().unwrap();
        match c {
            Completion::MoveComplete { chunks_moved, .. } => {
                assert_eq!(chunks_moved, usize::from(FLOWS), "resumed move must count every chunk")
            }
            other => panic!("move did not survive the disconnect: {other:?}"),
        }

        // The destination holds exactly what an unfaulted move delivers.
        let c = ctrl.stats(dst_id, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
        match c {
            Completion::Stats { stats, .. } => {
                assert_eq!(stats.perflow_report_chunks, usize::from(FLOWS))
            }
            other => panic!("unexpected {other:?}"),
        }

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        served.join().unwrap()
    });
    assert_eq!(dst.perflow_entries(), usize::from(FLOWS), "no chunk lost or duplicated");

    src_handle.join().unwrap();
    controller.shutdown();
}

/// The sub-op ids the controller allocates survive the wire codec.
/// Controller and both MB servers share one flight recorder over real
/// loopback TCP — length-prefixed encode/decode at both endpoints, not
/// the in-memory channel transport — so after a move, every sub-op the
/// controller recorded a `ChunkAcked` for must also appear as a
/// `Handled` event at an MB node under the SAME id.
#[test]
fn span_ids_propagate_across_the_wire() {
    use std::collections::BTreeSet;

    use openmb_core::tcp::serve_middlebox_recorded;
    use openmb_mb::SharedPutLog;
    use openmb_obs::{Recorder, SpanEvent};

    const FLOWS: u8 = 20;

    let rec = Recorder::enabled(512);
    let stop = Arc::new(AtomicBool::new(false));
    let mut mb_ends = Vec::new();
    let mut handles = Vec::new();
    for (i, name) in ["mb:src", "mb:dst"].into_iter().enumerate() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        mb_ends.push(listener.local_addr().unwrap());
        let stop = Arc::clone(&stop);
        let rec = rec.clone();
        handles.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::new(stream).unwrap();
            let mut monitor = Monitor::new();
            if i == 0 {
                let mut fx = Effects::normal();
                for f in 1..=FLOWS {
                    monitor.process_packet(
                        SimTime(u64::from(f)),
                        &http_pkt(u64::from(f), f),
                        &mut fx,
                    );
                }
            }
            let mut log = SharedPutLog::new(0);
            serve_middlebox_recorded(&mut monitor, &mut log, &transport, &stop, &rec, name)
                .unwrap();
        }));
    }

    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        buffer_events: true,
        ..ControllerConfig::default()
    });
    controller.set_recorder(rec.clone());
    let src = controller.register_mb(Arc::new(TcpTransport::connect(mb_ends[0]).unwrap()));
    let dst = controller.register_mb(Arc::new(TcpTransport::connect(mb_ends[1]).unwrap()));
    controller.start();

    let c = controller
        .move_internal(src, dst, HeaderFieldList::any(), Duration::from_secs(10))
        .unwrap();
    let op = match c {
        Completion::MoveComplete { op, chunks_moved, .. } => {
            assert_eq!(chunks_moved, usize::from(FLOWS));
            op
        }
        other => panic!("unexpected {other:?}"),
    };

    controller.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    let dump = rec.dump();

    // Controller half: per-chunk acks recorded under the parent move
    // op, each carrying the put sub-op's id.
    let acked: BTreeSet<u64> = dump
        .events
        .iter()
        .filter(|e| {
            e.node == "controller"
                && e.op == Some(op.0)
                && matches!(e.event, SpanEvent::ChunkAcked { .. })
        })
        .filter_map(|e| e.sub)
        .collect();
    assert_eq!(acked.len(), usize::from(FLOWS), "one acked put sub per chunk:\n{dump}");

    // MB half: `Handled` events keyed by the wire message's id alone —
    // the parent op never crosses the wire; the sub id is the
    // correlation key, so it must carry no parent here.
    let handled: BTreeSet<u64> = dump
        .events
        .iter()
        .filter(|e| e.node.starts_with("mb:") && matches!(e.event, SpanEvent::Handled { .. }))
        .map(|e| {
            assert_eq!(e.op, None, "MB events must not carry a parent op");
            e.sub.expect("every southbound request carries a wire id")
        })
        .collect();
    for node in ["mb:src", "mb:dst"] {
        assert!(
            dump.events
                .iter()
                .any(|e| e.node == node && matches!(e.event, SpanEvent::Handled { .. })),
            "no requests recorded at {node}:\n{dump}"
        );
    }

    // Every sub-op the controller saw acked was decoded to the same id
    // on an MB: the ids round-tripped through encode → TCP → decode.
    assert!(
        acked.is_subset(&handled),
        "sub-ops acked at the controller but never handled under the same id: {:?}\n{dump}",
        acked.difference(&handled).collect::<Vec<_>>()
    );
}

#[test]
fn dropped_connection_aborts_with_mb_unreachable() {
    use openmb_types::transport::channel_pair;
    use openmb_types::Error;

    let mut controller = TcpController::new(ControllerConfig::default());
    let (ctl_end, mb_end) = channel_pair();
    let mb = controller.register_mb(Arc::new(ctl_end));
    controller.start();

    // Sever the connection: the MB vanishes without answering. Its
    // receive thread must feed the reset into mark_unreachable, so the
    // blocked northbound call aborts with a typed error instead of
    // timing out.
    drop(mb_end);

    let c = controller.stats(mb, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    match c {
        Completion::Failed { error: Error::MbUnreachable(id), .. } => assert_eq!(id, mb),
        other => panic!("expected MbUnreachable abort, got {other:?}"),
    }

    // Every subsequent call naming the dead MB fails fast the same way.
    let c =
        controller.move_internal(mb, mb, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    assert!(matches!(c, Completion::Failed { error: Error::MbUnreachable(_), .. }));

    controller.shutdown();
}

/// Two-sided subnet pattern (`src ∈ 10.b.x/len ∧ dst ∈ 10.b.x/len`):
/// flowspaces of this shape for different `b` are disjoint in both
/// directions.
fn within(b: u8, x: u8, len: u8) -> HeaderFieldList {
    let p = openmb_types::IpPrefix::new(Ipv4Addr::new(10, b, x, 0), len);
    HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
}

/// A flow inside `within(b, x, 24)`.
fn subnet_pkt(id: u64, b: u8, x: u8, host: u8) -> Packet {
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, b, x, host),
        40_000 + u16::from(host),
        Ipv4Addr::new(10, b, x, 250),
        80,
    );
    Packet::new(id, key, vec![0u8; 64])
}

/// Two client threads move disjoint `/16` subsets through one TCP
/// controller at the same time, and each call gets its own completion
/// back. A third move overlapping one of them, issued while that op
/// still owes its source deletes, completes too.
#[test]
fn concurrent_moves_over_loopback_tcp() {
    use openmb_types::{MbId, StateStats};

    // Flows per subset, split evenly over its `.0` and `.1` /24s. The
    // second subset is the larger and its caller usually blocks first,
    // so the first subset's completion usually arrives while another
    // caller is waiting; it must still reach its own caller. (The
    // check holds in every interleaving; this one is the likely one.)
    const FLOWS_A: u8 = 20;
    const FLOWS_B: u8 = 200;

    // Two disjoint /16 subsets. MB ids are handed out in registration
    // order: the source is 0, the destination 1.
    let (sa, sb) = (0u8, 1u8);

    let stop = Arc::new(AtomicBool::new(false));
    let mut mb_ends = Vec::new();
    let mut handles = Vec::new();
    for i in 0..2u8 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        mb_ends.push(listener.local_addr().unwrap());
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::new(stream).unwrap();
            let mut monitor = Monitor::new();
            if i == 0 {
                let mut fx = Effects::normal();
                let mut id = 0;
                for (b, flows) in [(sa, FLOWS_A), (sb, FLOWS_B)] {
                    for f in 1..=flows {
                        id += 1;
                        let pkt = subnet_pkt(id, b, f % 2, f);
                        monitor.process_packet(SimTime(id), &pkt, &mut fx);
                    }
                }
            }
            serve_middlebox(&mut monitor, &transport, &stop).unwrap();
        }));
    }

    let mut controller = TcpController::new(ControllerConfig {
        // Long enough that the first move's source deletes are still
        // owed when the overlapping move is admitted, however slowly
        // the test threads are scheduled.
        quiesce_after: SimDuration::from_secs(5),
        ..ControllerConfig::default()
    });
    let src = controller.register_mb(Arc::new(TcpTransport::connect(mb_ends[0]).unwrap()));
    let dst = controller.register_mb(Arc::new(TcpTransport::connect(mb_ends[1]).unwrap()));
    assert_eq!((src, dst), (MbId(0), MbId(1)));
    controller.start();

    let t = Duration::from_secs(10);
    let stats_of = |mb, key| match controller.stats(mb, key, t).unwrap() {
        Completion::Stats { stats, .. } => stats,
        other => panic!("unexpected {other:?}"),
    };
    let before: Vec<StateStats> =
        [sa, sb].iter().map(|&b| stats_of(src, within(b, 0, 16))).collect();
    assert_eq!(before[0].perflow_report_chunks, usize::from(FLOWS_A));
    assert_eq!(before[1].perflow_report_chunks, usize::from(FLOWS_B));

    let moved = |c: Completion| match c {
        Completion::MoveComplete { op, chunks_moved, .. } => (op, chunks_moved),
        other => panic!("move failed: {other:?}"),
    };
    let ctrl = &controller;
    let barrier = std::sync::Barrier::new(2);
    let ((op_a, op_c), op_b) = std::thread::scope(|s| {
        let first = s.spawn(|| {
            barrier.wait();
            // Let the larger move's caller block first.
            std::thread::sleep(Duration::from_millis(3));
            let (op_a, n) = moved(ctrl.move_internal(src, dst, within(sa, 0, 16), t).unwrap());
            assert_eq!(n, usize::from(FLOWS_A));
            // Overlaps the first move's flowspace on the same MB pair
            // while that op still owes its source deletes.
            let (op_c, n) = moved(ctrl.move_internal(src, dst, within(sa, 1, 24), t).unwrap());
            assert_eq!(n, usize::from(FLOWS_A / 2));
            (op_a, op_c)
        });
        let second = s.spawn(|| {
            barrier.wait();
            let (op_b, n) = moved(ctrl.move_internal(src, dst, within(sb, 0, 16), t).unwrap());
            assert_eq!(n, usize::from(FLOWS_B));
            op_b
        });
        (first.join().unwrap(), second.join().unwrap())
    });

    // Three distinct ops, each answered to its own caller.
    assert!(op_a != op_b && op_b != op_c && op_a != op_c, "{op_a:?} {op_b:?} {op_c:?}");

    // The destination holds exactly what the source held before.
    for (b, want) in [sa, sb].into_iter().zip(&before) {
        let got = stats_of(dst, within(b, 0, 16));
        assert_eq!(got.perflow_report_chunks, want.perflow_report_chunks);
        assert_eq!(got.perflow_report_bytes, want.perflow_report_bytes);
    }

    controller.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

/// The embedding records transport resets and reattaches into the
/// core's recorder, under the controller's own node.
#[test]
fn transport_reset_and_reattach_are_recorded_under_controller() {
    use openmb_obs::{Recorder, SpanEvent};
    use openmb_types::transport::channel_pair;
    use openmb_types::Error;

    let rec = Recorder::enabled(256);
    let mut controller = TcpController::new(ControllerConfig::default());
    controller.set_recorder(rec.clone());
    let (ctl_end, mb_end) = channel_pair();
    let mb = controller.register_mb(Arc::new(ctl_end));
    controller.start();

    // The call fails only once the receive thread has seen the reset.
    drop(mb_end);
    let c = controller.stats(mb, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    assert!(matches!(c, Completion::Failed { error: Error::MbUnreachable(_), .. }), "{c:?}");

    // Reconnect with a served monitor: calls succeed again.
    let stop = Arc::new(AtomicBool::new(false));
    let (ctl2, mb2) = channel_pair();
    let served = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_middlebox(&mut Monitor::new(), &mb2, &stop).unwrap())
    };
    controller.reattach_mb(mb, Arc::new(ctl2));
    let c = controller.stats(mb, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    assert!(matches!(c, Completion::Stats { .. }), "{c:?}");

    controller.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    served.join().unwrap();

    let dump = rec.dump();
    let at = |want: fn(&SpanEvent) -> bool| {
        dump.events
            .iter()
            .find(|e| want(&e.event))
            .map(|e| {
                assert_eq!(e.node, "controller", "transport events belong to the controller");
                e.t_ns
            })
            .unwrap_or_else(|| panic!("event missing:\n{dump}"))
    };
    let reset = at(|e| matches!(e, SpanEvent::TransportReset));
    let reattached = at(|e| matches!(e, SpanEvent::TransportReattached));
    assert!(reset <= reattached, "reset recorded after the reattach:\n{dump}");
}

/// A monitor preloaded with `flows` observed flows, served on its own
/// thread over an in-process channel pair; returns the controller's end
/// of the pair and the serving thread.
fn served_monitor(
    flows: u8,
    stop: &Arc<AtomicBool>,
) -> (Arc<dyn openmb_types::transport::Transport + Sync>, std::thread::JoinHandle<()>) {
    let (ctl_end, mb_end) = openmb_types::transport::channel_pair();
    let stop = Arc::clone(stop);
    let handle = std::thread::spawn(move || {
        let mut monitor = Monitor::new();
        let mut fx = Effects::normal();
        for f in 1..=flows {
            monitor.process_packet(SimTime(u64::from(f)), &http_pkt(u64::from(f), f), &mut fx);
        }
        serve_middlebox(&mut monitor, &mb_end, &stop).unwrap();
    });
    (Arc::new(ctl_end), handle)
}

/// A blocking call returns as soon as its reply lands: the controller
/// blocks on each MB's transport instead of polling it with a sleep
/// between empty passes (1 ms a pass made 200 round trips take ~220 ms).
#[test]
fn back_to_back_stats_round_trips_do_not_wait_on_a_poll_sleep() {
    const CALLS: usize = 200;
    let stop = Arc::new(AtomicBool::new(false));
    let (t, served) = served_monitor(4, &stop);
    let mut controller = TcpController::new(ControllerConfig::default());
    let mb = controller.register_mb(t);
    controller.start();

    let stats = |controller: &TcpController| match controller
        .stats(mb, HeaderFieldList::any(), Duration::from_secs(5))
        .unwrap()
    {
        Completion::Stats { stats, .. } => assert_eq!(stats.perflow_report_chunks, 4),
        other => panic!("unexpected {other:?}"),
    };
    // One call first, so the timed ones find every thread running.
    stats(&controller);
    let t0 = std::time::Instant::now();
    for _ in 0..CALLS {
        stats(&controller);
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "{CALLS} stats round trips took {took:?}");

    controller.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    served.join().unwrap();
}

/// An MB registered after `start` gets its own receive thread at once:
/// a move onto it completes.
#[test]
fn mb_registered_after_start_is_served() {
    let stop = Arc::new(AtomicBool::new(false));
    let (src_t, src_served) = served_monitor(12, &stop);
    let (dst_t, dst_served) = served_monitor(0, &stop);
    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        ..ControllerConfig::default()
    });
    let src = controller.register_mb(src_t);
    controller.start();
    let dst = controller.register_mb(dst_t);

    let c = controller
        .move_internal(src, dst, HeaderFieldList::any(), Duration::from_secs(10))
        .unwrap();
    match c {
        Completion::MoveComplete { chunks_moved, .. } => assert_eq!(chunks_moved, 12),
        other => panic!("unexpected {other:?}"),
    }
    let c = controller.stats(dst, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    match c {
        Completion::Stats { stats, .. } => assert_eq!(stats.perflow_report_chunks, 12),
        other => panic!("unexpected {other:?}"),
    }

    controller.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    src_served.join().unwrap();
    dst_served.join().unwrap();
}

/// `shutdown` stops and joins every controller thread even though no
/// peer has hung up: it returns promptly, and the receive threads have
/// let go of their transports (only the test and the controller's
/// registry still hold one).
#[test]
fn shutdown_joins_every_thread_while_peers_are_connected() {
    let stop = Arc::new(AtomicBool::new(false));
    let (a, a_served) = served_monitor(2, &stop);
    let (b, b_served) = served_monitor(2, &stop);
    let mut controller = TcpController::new(ControllerConfig::default());
    let a_id = controller.register_mb(Arc::clone(&a));
    controller.start();
    let b_id = controller.register_mb(Arc::clone(&b));
    for mb in [a_id, b_id] {
        let c = controller.stats(mb, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
        assert!(matches!(c, Completion::Stats { .. }), "{c:?}");
    }
    // Test, registry and receive thread (and, for a moment, a sender).
    assert!(Arc::strong_count(&a) >= 3 && Arc::strong_count(&b) >= 3);

    let t0 = std::time::Instant::now();
    controller.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (2, 2));
    assert!(!a_served.is_finished() && !b_served.is_finished(), "peers still connected");

    drop(controller);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    a_served.join().unwrap();
    b_served.join().unwrap();
}
