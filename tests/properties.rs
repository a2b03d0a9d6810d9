//! Property-based tests on core data structures and invariants,
//! spanning crates.

use bytes::Bytes;
use openmb::types::compress;
use openmb::types::crypto::{self, VendorKey};
use openmb::types::wire::{self, ChunkClass, Event, EventFilter, Message};
use openmb::types::{
    ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList, HierarchicalKey, IpPrefix, MbId,
    OpId, Packet, Proto, StateChunk, StateStats,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_proto() -> impl Strategy<Value = Proto> {
    prop_oneof![Just(Proto::Tcp), Just(Proto::Udp), Just(Proto::Icmp)]
}

fn arb_flow_key() -> impl Strategy<Value = FlowKey> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), arb_proto()).prop_map(
        |(s, d, sp, dp, proto)| FlowKey {
            src_ip: Ipv4Addr::from(s),
            dst_ip: Ipv4Addr::from(d),
            src_port: sp,
            dst_port: dp,
            proto,
        },
    )
}

fn arb_hfl() -> impl Strategy<Value = HeaderFieldList> {
    (
        any::<u32>(),
        0u8..=32,
        any::<u32>(),
        0u8..=32,
        proptest::option::of(any::<u16>()),
        proptest::option::of(any::<u16>()),
        proptest::option::of(arb_proto()),
    )
        .prop_map(|(sa, sl, da, dl, ts, td, p)| HeaderFieldList {
            nw_src: IpPrefix::new(Ipv4Addr::from(sa), sl),
            nw_dst: IpPrefix::new(Ipv4Addr::from(da), dl),
            tp_src: ts,
            tp_dst: td,
            proto: p,
        })
}

/// One valid message for every wire tag: a nested `Batch` carrying
/// several tags, and each content-addressed transfer message.
fn one_message_per_tag() -> Vec<Message> {
    let op = OpId(7);
    let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 4000, Ipv4Addr::new(10, 0, 1, 1), 80);
    let hfl = HeaderFieldList::exact(key);
    let hkey = HierarchicalKey::parse("rules/0/action");
    let vendor = VendorKey::derive("fuzz");
    let sealed = EncryptedChunk::seal(&vendor, 7, b"per-flow state");
    let chunk = StateChunk::new(hfl, sealed.clone());
    let packet = Packet::tcp(3, key, 0x18, vec![1u8, 2, 3, 4]);
    let hash = [0xab; 32];
    let values =
        vec![ConfigValue::Str("allow".into()), ConfigValue::Int(-3), ConfigValue::Bool(true)];
    let filter = EventFilter { codes: Some(vec![1, 2]), key: Some(hfl) };
    let mut msgs = vec![
        Message::GetConfig { op, key: hkey.clone() },
        Message::SetConfig { op, key: hkey.clone(), values: values.clone() },
        Message::DelConfig { op, key: hkey.clone() },
        Message::GetSupportPerflow { op, key: hfl },
        Message::PutSupportPerflow { op, chunk: chunk.clone() },
        Message::DelSupportPerflow { op, key: hfl },
        Message::GetReportPerflow { op, key: hfl },
        Message::PutReportPerflow { op, chunk: chunk.clone() },
        Message::DelReportPerflow { op, key: hfl },
        Message::GetSupportShared { op },
        Message::PutSupportShared { op, chunk: sealed.clone() },
        Message::GetReportShared { op },
        Message::PutReportShared { op, chunk: sealed.clone() },
        Message::GetStats { op, key: hfl },
        Message::EnableEvents { op, filter },
        Message::DisableEvents { op },
        Message::ReprocessPacket { op, key, packet: packet.clone() },
        Message::Chunk { op, chunk: chunk.clone() },
        Message::GetAck { op, count: 2 },
        Message::SharedChunk { op, chunk: sealed.clone() },
        Message::PutAck { op, key: Some(hfl) },
        Message::OpAck { op },
        Message::ConfigValues { op, pairs: vec![(hkey, values)] },
        Message::Stats {
            op,
            stats: StateStats { perflow_report_chunks: 3, ..StateStats::default() },
        },
        Message::EventMsg { event: Event::Reprocess { op, key, packet } },
        Message::EventMsg {
            event: Event::Introspection { code: 9, key, values: vec![("k".into(), "v".into())] },
        },
        Message::ErrorMsg { op, error: Error::MbUnreachable(MbId(2)) },
        Message::EndSync { op },
        Message::DeleteState { op, puts: vec![OpId(8), OpId(9)] },
        Message::DeleteAck { op, restored: 1 },
        Message::ChunkRef { op, class: ChunkClass::Support, key: hfl, hash },
        Message::ChunkNeed { op, hash },
        Message::ChunkBody { op, class: ChunkClass::Report, key: hfl, hash, data: sealed },
    ];
    let batch = Message::Batch { msgs: msgs[msgs.len() - 6..].to_vec() };
    msgs.push(batch);
    msgs
}

/// Run `body` through every decoder entry point a TCP receive thread
/// can reach: `decode`, `decode_bytes`, and `read_frame` behind a true
/// and a forged length prefix. Any of them may fail; none may panic.
fn decode_everywhere(body: &[u8], forged_len: u32) {
    let _ = wire::decode(body);
    let _ = wire::decode_bytes(&Bytes::from(body.to_vec()));
    for len in [body.len() as u32, forged_len] {
        let mut frame = len.to_le_bytes().to_vec();
        frame.extend_from_slice(body);
        let _ = wire::read_frame(&mut frame.as_slice());
    }
}

/// Every prefix of every tag's valid encoding decodes without panic.
#[test]
fn wire_decode_never_panics_on_truncation() {
    let mut tags = std::collections::BTreeSet::new();
    for msg in one_message_per_tag() {
        let enc = wire::encode(&msg);
        assert_eq!(wire::decode(&enc).unwrap(), msg);
        tags.insert(enc[0]);
        for n in 0..enc.len() {
            decode_everywhere(&enc[..n], n as u32 + 1);
        }
    }
    assert_eq!(tags, (1..=34).collect(), "the corpus must cover every wire tag");
}

proptest! {
    /// The wire codec roundtrips every message we can build.
    #[test]
    fn wire_roundtrip_chunks(key in arb_flow_key(), hfl in arb_hfl(), data in proptest::collection::vec(any::<u8>(), 0..512), op in any::<u64>()) {
        let vendor = VendorKey::derive("prop");
        let chunk = StateChunk::new(hfl, EncryptedChunk::seal(&vendor, op, &data));
        for msg in [
            Message::PutSupportPerflow { op: OpId(op), chunk: chunk.clone() },
            Message::Chunk { op: OpId(op), chunk },
            Message::GetSupportPerflow { op: OpId(op), key: hfl },
            Message::ReprocessPacket { op: OpId(op), key, packet: Packet::new(op, key, data.clone()) },
            Message::PutAck { op: OpId(op), key: Some(hfl) },
            Message::EnableEvents { op: OpId(op), filter: EventFilter { codes: Some(vec![1]), key: Some(hfl) } },
        ] {
            let enc = wire::encode(&msg);
            prop_assert_eq!(wire::decode(&enc).unwrap(), msg);
        }
    }

    /// Decoding arbitrary bytes never panics (it may error): uniform
    /// random bytes, and every tag's valid encoding with random bytes
    /// flipped, cut at a random offset, behind a forged length prefix.
    #[test]
    fn wire_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..6),
        cut in any::<usize>(),
        forged_len in 0u32..4096,
    ) {
        decode_everywhere(&bytes, forged_len);
        for msg in one_message_per_tag() {
            let mut enc = wire::encode(&msg);
            for &(at, mask) in &flips {
                let i = at % enc.len();
                enc[i] ^= mask;
            }
            decode_everywhere(&enc, forged_len);
            enc.truncate(cut % (enc.len() + 1));
            decode_everywhere(&enc, forged_len);
        }
    }

    /// Compression roundtrips arbitrary data.
    #[test]
    fn compress_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&c).unwrap(), data);
    }

    /// Decompressing garbage never panics.
    #[test]
    fn decompress_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = compress::decompress(&bytes);
    }

    /// Sealing roundtrips; wrong keys are always rejected.
    #[test]
    fn crypto_roundtrip_and_key_separation(data in proptest::collection::vec(any::<u8>(), 0..512), nonce in any::<u64>()) {
        let k1 = VendorKey::derive("alpha");
        let k2 = VendorKey::derive("beta");
        let ct = crypto::seal(&k1, nonce, &data);
        prop_assert_eq!(crypto::open(&k1, &ct).unwrap(), data);
        prop_assert!(crypto::open(&k2, &ct).is_none());
    }

    /// Granularity is a partial order: coarser-than is transitive through
    /// `covers`, and `matches` respects it.
    #[test]
    fn hfl_covers_implies_matches(a in arb_hfl(), b in arb_hfl(), key in arb_flow_key()) {
        if a.covers(&b) && b.matches(&key) {
            prop_assert!(a.matches(&key), "cover must match everything the covered matches");
        }
    }

    /// exact() matches its own flow and is covered by any().
    #[test]
    fn hfl_exact_laws(key in arb_flow_key()) {
        let e = HeaderFieldList::exact(key);
        prop_assert!(e.matches(&key));
        prop_assert!(HeaderFieldList::any().covers(&e));
    }

    /// Canonicalization is idempotent and direction-insensitive.
    #[test]
    fn flowkey_canonical_laws(key in arb_flow_key()) {
        let c = key.canonical();
        prop_assert_eq!(c.canonical(), c);
        prop_assert_eq!(key.reversed().canonical(), c);
    }

    /// Hierarchical keys parse/print roundtrip (for non-empty segments
    /// without '/' or '*').
    #[test]
    fn hkey_roundtrip(segs in proptest::collection::vec("[a-z0-9_]{1,12}", 1..5)) {
        let s = segs.join("/");
        let k = HierarchicalKey::parse(&s);
        prop_assert_eq!(k.to_string(), s);
    }
}

mod cache_properties {
    use super::*;
    use openmb::middleboxes::re::PacketCache;

    proptest! {
        /// Whatever was appended last (within capacity) reads back
        /// exactly; evicted ranges read as None.
        #[test]
        fn cache_reads_recent_appends(
            appends in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..300), 1..20)
        ) {
            let mut cache = PacketCache::new(1024);
            let mut offsets = Vec::new();
            for a in &appends {
                offsets.push((cache.append(a), a.clone()));
            }
            let total = cache.total();
            for (off, data) in offsets {
                let resident = off + 1024 >= total && data.len() <= 1024;
                match cache.read(off, data.len()) {
                    Some(read) if resident => prop_assert_eq!(read, data),
                    Some(_) => prop_assert!(false, "read succeeded outside window"),
                    None => prop_assert!(!resident, "resident range must read back"),
                }
            }
        }

        /// Serialization roundtrips the cache exactly.
        #[test]
        fn cache_serialize_roundtrip(
            appends in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..200), 0..10)
        ) {
            let mut cache = PacketCache::new(512);
            for a in &appends {
                cache.append(a);
            }
            let rt = PacketCache::deserialize(&cache.serialize()).unwrap();
            prop_assert_eq!(cache, rt);
        }
    }
}

mod config_properties {
    use super::*;
    use openmb::types::{ConfigTree, ConfigValue};

    proptest! {
        /// flatten → apply_flat reproduces the tree exactly.
        #[test]
        fn config_clone_is_exact(
            entries in proptest::collection::vec(
                (proptest::collection::vec("[a-z]{1,6}", 1..3), proptest::collection::vec(any::<i64>(), 0..4)),
                0..12,
            )
        ) {
            let mut src = ConfigTree::new();
            for (segs, vals) in &entries {
                let key = HierarchicalKey::parse(&segs.join("/"));
                // A segment may collide with an interior node from an
                // earlier entry; `set` overwrites, which is fine — we
                // compare against the final tree.
                src.set(&key, vals.iter().map(|v| ConfigValue::Int(*v)).collect());
            }
            let mut dst = ConfigTree::new();
            dst.apply_flat(&src.flatten());
            prop_assert_eq!(src, dst);
        }
    }
}

mod controller_robustness {
    use super::*;
    use openmb::core::controller::{ControllerConfig, ControllerCore};
    use openmb::simnet::SimTime;
    use openmb::types::MbId;

    fn arb_message() -> impl Strategy<Value = Message> {
        let vendor = VendorKey::derive("prop");
        (any::<u64>(), arb_hfl(), arb_flow_key(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_flat_map(move |(op, hfl, fk, data)| {
                let chunk = StateChunk::new(hfl, EncryptedChunk::seal(&vendor, op, &data));
                let shared = EncryptedChunk::seal(&vendor, op, &data);
                prop_oneof![
                    Just(Message::Chunk { op: OpId(op), chunk: chunk.clone() }),
                    Just(Message::GetAck { op: OpId(op), count: (op % 100) as u32 }),
                    Just(Message::SharedChunk { op: OpId(op), chunk: shared }),
                    Just(Message::PutAck { op: OpId(op), key: Some(hfl) }),
                    Just(Message::PutAck { op: OpId(op), key: None }),
                    Just(Message::OpAck { op: OpId(op) }),
                    Just(Message::Stats { op: OpId(op), stats: Default::default() }),
                    Just(Message::ErrorMsg {
                        op: OpId(op),
                        error: openmb::types::Error::OpFailed("x".into()),
                    }),
                    Just(Message::EventMsg {
                        event: openmb::types::wire::Event::Reprocess {
                            op: OpId(op),
                            key: fk,
                            packet: Packet::new(op, fk, data.clone()),
                        },
                    }),
                    Just(Message::EventMsg {
                        event: openmb::types::wire::Event::Introspection {
                            code: (op % 7) as u32,
                            key: fk,
                            values: vec![],
                        },
                    }),
                ]
            })
    }

    proptest! {
        /// The controller must survive any interleaving of (possibly
        /// stale, duplicated, or unsolicited) MB messages: unknown
        /// sub-op ids are dropped, duplicate ACKs don't underflow,
        /// events for finished ops don't panic.
        #[test]
        fn controller_never_panics_on_arbitrary_messages(
            msgs in proptest::collection::vec(arb_message(), 0..60),
            issue_ops in proptest::collection::vec(any::<bool>(), 0..6),
        ) {
            let mut core = ControllerCore::new(ControllerConfig::default());
            let a = core.register_mb();
            let b = core.register_mb();
            let mut out = Vec::new();
            for (i, mv) in issue_ops.iter().enumerate() {
                if *mv {
                    core.move_internal(a, b, HeaderFieldList::any(), SimTime(i as u64), &mut out);
                } else {
                    core.clone_support(a, b, SimTime(i as u64), &mut out);
                }
            }
            for (i, m) in msgs.into_iter().enumerate() {
                core.handle_mb_message(
                    if i % 2 == 0 { a } else { b },
                    m,
                    SimTime(1000 + i as u64),
                    &mut out,
                );
            }
            core.tick(SimTime(1_000_000_000_000), &mut out);
            // Sanity: actions reference registered MBs only.
            for act in &out {
                if let openmb::core::Action::ToMb(mb, _) = act {
                    prop_assert!(mb.0 < 2, "action to unregistered {mb:?}");
                }
            }
        }
    }

    #[test]
    fn unknown_mb_messages_are_ignored() {
        let mut core = ControllerCore::new(ControllerConfig::default());
        let _ = core.register_mb();
        let mut out = Vec::new();
        core.handle_mb_message(MbId(99), Message::OpAck { op: OpId(12345) }, SimTime(0), &mut out);
        assert!(out.is_empty());
    }
}
