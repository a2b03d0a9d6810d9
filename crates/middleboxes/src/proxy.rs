//! A caching HTTP proxy — the Squid [13] stand-in.
//!
//! The proxy exists to exercise the §4.1.2 shared-state *merge* example
//! verbatim: "if two content caches ... are being merged, the MB may
//! require extra meta-data (e.g. hit counts) for each cache entry to
//! determine from which piece of state a particular entry should be
//! retained." Our object cache stores a hit count per entry; merging two
//! caches under a capacity bound keeps the hottest entries from either
//! side.
//!
//! State classes:
//! * **per-flow supporting**: in-flight request parsing state per
//!   connection;
//! * **shared supporting**: the object cache (URL → size, hit count) —
//!   cloned on subset-moves, hit-count-merged on consolidation;
//! * **shared reporting**: request/hit/miss counters, additive merge.

use std::collections::HashMap;

use openmb_mb::{CostModel, Effects, Middlebox, SharedSnapshot, SyncTracker};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::crypto::VendorKey;
use openmb_types::wire::{Reader, Writer};
use openmb_types::{
    ConfigTree, ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList, HierarchicalKey,
    OpId, Packet, Result, StateChunk, StateStats,
};

use crate::HTTP_LINE_CAP;

/// One cached object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheObject {
    pub url: String,
    pub size: u32,
    /// The §4.1.2 merge meta-data.
    pub hits: u64,
}

/// Per-connection request-parsing state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnState {
    /// Bytes of a request line split across packets (at most
    /// [`HTTP_LINE_CAP`]).
    pub partial: Vec<u8>,
    pub requests: u64,
}

impl ConnState {
    fn serialize(&self, key: &FlowKey) -> Vec<u8> {
        let mut w = Writer::new();
        w.ip(key.src_ip);
        w.ip(key.dst_ip);
        w.u16(key.src_port);
        w.u16(key.dst_port);
        w.u8(key.proto.number());
        w.bytes(&self.partial);
        w.u64(self.requests);
        w.into_bytes()
    }

    fn deserialize(buf: &[u8]) -> Result<(FlowKey, Self)> {
        let mut r = Reader::new(buf);
        let src_ip = r.ip()?;
        let dst_ip = r.ip()?;
        let src_port = r.u16()?;
        let dst_port = r.u16()?;
        let proto = openmb_types::Proto::from_number(r.u8()?)
            .ok_or_else(|| Error::MalformedChunk("bad proto in proxy state".into()))?;
        let key = FlowKey { src_ip, dst_ip, src_port, dst_port, proto };
        let partial = r.bytes()?;
        if partial.len() > HTTP_LINE_CAP {
            return Err(Error::MalformedChunk(format!(
                "proxy request line of {} B exceeds the {HTTP_LINE_CAP} B cap",
                partial.len()
            )));
        }
        Ok((key, ConnState { partial, requests: r.u64()? }))
    }
}

/// The caching proxy middlebox.
#[derive(Clone)]
pub struct Proxy {
    config: ConfigTree,
    conns: HashMap<FlowKey, ConnState>,
    cache: HashMap<String, CacheObject>,
    sync: SyncTracker,
    vendor: VendorKey,
    nonce: u64,
    /// Shared reporting counters.
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
}

impl Default for Proxy {
    fn default() -> Self {
        Self::new(256)
    }
}

impl Proxy {
    /// A proxy caching up to `capacity` objects.
    pub fn new(capacity: usize) -> Self {
        let mut config = ConfigTree::new();
        config.set(
            &HierarchicalKey::parse("params/cache_capacity"),
            vec![ConfigValue::Int(capacity as i64)],
        );
        Proxy {
            config,
            conns: HashMap::new(),
            cache: HashMap::new(),
            sync: SyncTracker::new(),
            vendor: VendorKey::derive("squid"),
            nonce: 1,
            requests: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.config
            .get_leaf(&HierarchicalKey::parse("params/cache_capacity"))
            .and_then(|v| v.first().and_then(ConfigValue::as_int))
            .unwrap_or(256)
            .max(1) as usize
    }

    /// Evict the coldest entries until the cache fits its capacity.
    fn enforce_capacity(&mut self) {
        let cap = self.capacity();
        while self.cache.len() > cap {
            let coldest = self
                .cache
                .values()
                .min_by_key(|o| (o.hits, o.url.clone()))
                .map(|o| o.url.clone())
                .expect("cache non-empty");
            self.cache.remove(&coldest);
        }
    }

    fn serialize_cache(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let mut urls: Vec<&String> = self.cache.keys().collect();
        urls.sort();
        w.u32(urls.len() as u32);
        for u in urls {
            let o = &self.cache[u];
            w.str(&o.url);
            w.u32(o.size);
            w.u64(o.hits);
        }
        w.into_bytes()
    }

    fn merge_cache(&mut self, buf: &[u8]) -> Result<()> {
        let mut r = Reader::new(buf);
        let n = r.u32()? as usize;
        if n > 10_000_000 {
            return Err(Error::MalformedChunk("absurd cache size".into()));
        }
        for _ in 0..n {
            let url = r.str()?;
            let size = r.u32()?;
            let hits = r.u64()?;
            // The §4.1.2 rule: on collision, keep the entry with more
            // hits (sum would double-count a shared history; these are
            // independent observations of the same object).
            match self.cache.get_mut(&url) {
                Some(existing) => {
                    if hits > existing.hits {
                        existing.hits = hits;
                        existing.size = size;
                    }
                }
                None => {
                    self.cache.insert(url.clone(), CacheObject { url, size, hits });
                }
            }
        }
        self.enforce_capacity();
        Ok(())
    }

    /// Cached objects sorted by URL (tests/experiments).
    pub fn cache_sorted(&self) -> Vec<CacheObject> {
        let mut v: Vec<CacheObject> = self.cache.values().cloned().collect();
        v.sort_by(|a, b| a.url.cmp(&b.url));
        v
    }

    /// Number of cached objects.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

impl Middlebox for Proxy {
    fn mb_type(&self) -> &'static str {
        "squid"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        if key.is_root() {
            return Ok(self.config.flatten());
        }
        match self.config.get(key) {
            Some(v) => Ok(vec![(key.clone(), v)]),
            None => Err(Error::NoSuchConfigKey(key.to_string())),
        }
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        if key.to_string() == "params/cache_capacity" {
            let v = values.first().and_then(ConfigValue::as_int).unwrap_or(0);
            if v < 1 {
                return Err(Error::InvalidConfigValue {
                    key: key.to_string(),
                    reason: "cache_capacity must be positive".into(),
                });
            }
        }
        self.config.set(key, values);
        self.enforce_capacity();
        Ok(())
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        if self.config.del(key) {
            Ok(())
        } else {
            Err(Error::NoSuchConfigKey(key.to_string()))
        }
    }

    fn get_support_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        let mut matching: Vec<FlowKey> =
            self.conns.keys().filter(|k| key.matches_bidi(k)).copied().collect();
        // Export in key order so map iteration order never leaks into
        // the wire.
        matching.sort_unstable();
        let mut out = Vec::with_capacity(matching.len());
        for fk in matching {
            let c = self.conns[&fk].clone();
            let n = self.nonce;
            self.nonce += 1;
            let sealed = EncryptedChunk::seal(&self.vendor, n, &c.serialize(&fk));
            self.sync.mark_moved(fk, op);
            out.push(StateChunk::new(HeaderFieldList::exact(fk), sealed));
        }
        self.sync.mark_move_pattern(op, *key);
        Ok(out)
    }

    fn put_support_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        let plain = chunk.data.open(&self.vendor)?;
        let (key, c) = ConnState::deserialize(&plain)?;
        let key = key.canonical();
        self.sync.clear_flow(&key);
        self.conns.insert(key, c);
        Ok(())
    }

    fn del_support_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        let victims: Vec<FlowKey> =
            self.conns.keys().filter(|k| key.matches_bidi(k)).copied().collect();
        for k in &victims {
            self.conns.remove(k);
            self.sync.clear_flow(k);
        }
        Ok(victims.len())
    }

    fn get_support_shared(&mut self, op: OpId) -> Result<Option<EncryptedChunk>> {
        let bytes = self.serialize_cache();
        self.sync.mark_shared(op);
        let n = self.nonce;
        self.nonce += 1;
        Ok(Some(EncryptedChunk::seal(&self.vendor, n, &bytes)))
    }

    fn put_support_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let plain = chunk.open(&self.vendor)?;
        self.merge_cache(&plain)
    }

    fn get_report_perflow(&mut self, _op: OpId, _key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Ok(Vec::new())
    }

    fn put_report_perflow(&mut self, _chunk: StateChunk) -> Result<()> {
        Err(Error::UnsupportedStateClass("per-flow reporting".into()))
    }

    fn del_report_perflow(&mut self, _key: &HeaderFieldList) -> Result<usize> {
        Ok(0)
    }

    fn get_report_shared(&mut self) -> Result<Option<EncryptedChunk>> {
        let mut w = Writer::new();
        w.u64(self.requests);
        w.u64(self.hits);
        w.u64(self.misses);
        let bytes = w.into_bytes();
        let n = self.nonce;
        self.nonce += 1;
        Ok(Some(EncryptedChunk::seal(&self.vendor, n, &bytes)))
    }

    fn put_report_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let plain = chunk.open(&self.vendor)?;
        let mut r = Reader::new(&plain);
        self.requests += r.u64()?;
        self.hits += r.u64()?;
        self.misses += r.u64()?;
        Ok(())
    }

    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        let cache = self.serialize_cache();
        let mut w = Writer::new();
        w.u64(self.requests);
        w.u64(self.hits);
        w.u64(self.misses);
        let counters = w.into_bytes();
        let n = self.nonce;
        self.nonce += 2;
        Ok(SharedSnapshot {
            support: Some(EncryptedChunk::seal(&self.vendor, n, &cache)),
            report: Some(EncryptedChunk::seal(&self.vendor, n + 1, &counters)),
        })
    }

    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        self.cache.clear();
        if let Some(chunk) = snap.support {
            let plain = chunk.open(&self.vendor)?;
            // Merging into an empty cache reproduces it exactly.
            self.merge_cache(&plain)?;
        }
        match snap.report {
            Some(chunk) => {
                let plain = chunk.open(&self.vendor)?;
                let mut r = Reader::new(&plain);
                self.requests = r.u64()?;
                self.hits = r.u64()?;
                self.misses = r.u64()?;
            }
            None => {
                self.requests = 0;
                self.hits = 0;
                self.misses = 0;
            }
        }
        Ok(())
    }

    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        let mut s = StateStats::default();
        for (k, c) in &self.conns {
            if key.matches_bidi(k) {
                s.perflow_support_chunks += 1;
                s.perflow_support_bytes += c.serialize(k).len() + 16;
            }
        }
        s.shared_support_bytes = self.serialize_cache().len() + 16;
        s.shared_report_bytes = 24 + 16;
        s
    }

    fn process_packet(&mut self, _now: SimTime, pkt: &Packet, fx: &mut Effects) {
        let key = pkt.key.canonical();
        let is_orig = pkt.key == key;
        let conn = self.conns.entry(key).or_default();
        // Parse complete request lines (CRLF-terminated) out of the
        // per-connection buffer first, then apply cache effects — the
        // split avoids aliasing the connection entry while mutating the
        // shared cache.
        let mut urls = Vec::new();
        if is_orig && !pkt.payload.is_empty() {
            // Bytes already buffered were scanned on earlier packets and
            // hold no CRLF, so only one straddling their end can start
            // before the new bytes: scan those plus a one-byte overlap.
            let mut from = conn.partial.len().saturating_sub(1);
            conn.partial.extend_from_slice(&pkt.payload);
            let mut line_start = 0;
            while let Some(pos) = conn.partial[from..].windows(2).position(|w| w == b"\r\n") {
                let end = from + pos;
                if let Some(url) = parse_get(&conn.partial[line_start..end]) {
                    conn.requests += 1;
                    urls.push(url);
                }
                line_start = end + 2;
                from = line_start;
            }
            conn.partial.drain(..line_start);
            if conn.partial.len() > HTTP_LINE_CAP {
                // An overlong line is dropped, keeping only a trailing
                // `\r` that may be the head of a CRLF split across
                // packets.
                let keep = usize::from(conn.partial.ends_with(b"\r"));
                conn.partial.drain(..conn.partial.len() - keep);
            }
        }
        for url in urls {
            {
                if !fx.is_replay() {
                    self.requests += 1;
                }
                let hit = self.cache.contains_key(&url);
                if hit {
                    self.cache.get_mut(&url).expect("present").hits += 1;
                    if !fx.is_replay() {
                        self.hits += 1;
                    }
                } else {
                    if !fx.is_replay() {
                        self.misses += 1;
                    }
                    self.cache
                        .insert(url.clone(), CacheObject { url: url.clone(), size: 1400, hits: 0 });
                    self.enforce_capacity();
                    fx.log("proxy.log", format!("MISS {url}"));
                }
                // Cache insertion/hit updated shared state.
                self.sync.on_shared_update(pkt, fx);
            }
        }
        self.sync.on_perflow_update(key, pkt, fx);
        fx.forward(pkt.clone());
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel { per_packet: SimDuration::from_micros(60), ..CostModel::default() }
    }

    fn perflow_entries(&self) -> usize {
        self.conns.len()
    }
}

fn parse_get(line: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(line).ok()?;
    let mut toks = text.split_whitespace();
    if toks.next()? != "GET" {
        return None;
    }
    Some(toks.next()?.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn req(id: u64, sp: u16, url: &str) -> Packet {
        let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), sp, Ipv4Addr::new(93, 184, 216, 34), 80);
        Packet::new(id, key, format!("GET {url} HTTP/1.1\r\n").into_bytes())
    }

    #[test]
    fn hit_miss_accounting() {
        let mut p = Proxy::new(16);
        let mut fx = Effects::normal();
        p.process_packet(SimTime(0), &req(1, 1000, "/a"), &mut fx);
        p.process_packet(SimTime(1), &req(2, 1001, "/a"), &mut fx);
        p.process_packet(SimTime(2), &req(3, 1002, "/b"), &mut fx);
        assert_eq!(p.requests, 3);
        assert_eq!(p.hits, 1);
        assert_eq!(p.misses, 2);
        assert_eq!(p.cache_len(), 2);
    }

    #[test]
    fn request_split_across_packets() {
        let mut p = Proxy::new(16);
        let mut fx = Effects::normal();
        let key =
            FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 2000, Ipv4Addr::new(93, 184, 216, 34), 80);
        p.process_packet(SimTime(0), &Packet::new(1, key, b"GET /split".to_vec()), &mut fx);
        assert_eq!(p.requests, 0, "incomplete request not yet counted");
        p.process_packet(SimTime(1), &Packet::new(2, key, b" HTTP/1.1\r\n".to_vec()), &mut fx);
        assert_eq!(p.requests, 1);
        assert!(p.cache_sorted().iter().any(|o| o.url == "/split"));
    }

    fn conn_key(sp: u16) -> FlowKey {
        FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), sp, Ipv4Addr::new(93, 184, 216, 34), 80)
    }

    /// Feed `chunks` as consecutive packets of one flow; returns the
    /// flow's buffered partial line.
    fn feed(p: &mut Proxy, sp: u16, chunks: &[&[u8]]) -> Vec<u8> {
        let key = conn_key(sp);
        let mut fx = Effects::normal();
        for (i, c) in chunks.iter().enumerate() {
            p.process_packet(SimTime(i as u64), &Packet::new(i as u64, key, c.to_vec()), &mut fx);
        }
        p.conns[&key].partial.clone()
    }

    #[test]
    fn unterminated_line_stays_bounded() {
        let mut p = Proxy::new(16);
        let key = conn_key(3000);
        let mut fx = Effects::normal();
        for i in 0..10_000u64 {
            p.process_packet(SimTime(i), &Packet::new(i, key, vec![b'a'; 64]), &mut fx);
            assert!(p.conns[&key].partial.len() <= HTTP_LINE_CAP, "packet {i}");
        }
        assert_eq!(p.requests, 0);
        let bytes = p.stats(&HeaderFieldList::any()).perflow_support_bytes;
        assert!(bytes < HTTP_LINE_CAP + 512, "per-flow state grew to {bytes} B");
    }

    #[test]
    fn request_split_with_its_crlf_is_parsed_once() {
        let mut p = Proxy::new(16);
        let left = feed(&mut p, 3100, &[b"GET /sp", b"lit HTTP/1.1\r", b"\nGET /b HTTP/1.1\r\n"]);
        assert!(left.is_empty(), "{left:?}");
        assert_eq!(p.requests, 2);
        assert_eq!(p.misses, 2);
        let urls: Vec<String> = p.cache_sorted().into_iter().map(|o| o.url).collect();
        assert_eq!(urls, ["/b", "/split"]);
    }

    #[test]
    fn crlf_straddling_the_cap_is_still_found() {
        // Fill to the cap, then split a CRLF across two packets: the
        // overlong line is dropped but its `\r` survives, so the `\n`
        // ends it and the next request starts on a clean line.
        let filler = vec![b'x'; HTTP_LINE_CAP];
        let mut p = Proxy::new(16);
        assert!(feed(&mut p, 3200, &[&filler, b"\r", b"\n"]).is_empty());
        assert!(feed(&mut p, 3200, &[b"GET /next HTTP/1.1\r\n"]).is_empty());
        assert_eq!(p.requests, 1);
        assert!(p.cache_sorted().iter().any(|o| o.url == "/next"));
    }

    #[test]
    fn import_rejects_an_overlong_partial_line() {
        let key = conn_key(3300);
        let ok = ConnState { partial: vec![b'x'; HTTP_LINE_CAP], requests: 0 };
        assert!(ConnState::deserialize(&ok.serialize(&key)).is_ok());
        let long = ConnState { partial: vec![b'x'; HTTP_LINE_CAP + 1], requests: 0 };
        assert!(ConnState::deserialize(&long.serialize(&key)).is_err());
    }

    #[test]
    fn merge_keeps_hotter_entry_on_collision() {
        // The §4.1.2 example: hit counts decide which copy survives.
        let mut a = Proxy::new(16);
        let mut b = Proxy::new(16);
        let mut fx = Effects::normal();
        // /x is hot at a (3 hits), cold at b (1 hit).
        for (i, sp) in [(1u64, 1000u16), (2, 1001), (3, 1002), (4, 1003)] {
            a.process_packet(SimTime(i), &req(i, sp, "/x"), &mut fx);
        }
        b.process_packet(SimTime(0), &req(10, 2000, "/x"), &mut fx);
        b.process_packet(SimTime(1), &req(11, 2001, "/x"), &mut fx);
        b.process_packet(SimTime(2), &req(12, 2002, "/only-b"), &mut fx);
        let chunk = a.get_support_shared(OpId(1)).unwrap().unwrap();
        b.put_support_shared(chunk).unwrap();
        let merged = b.cache_sorted();
        let x = merged.iter().find(|o| o.url == "/x").unwrap();
        assert_eq!(x.hits, 3, "the hotter copy's hit count wins");
        assert!(merged.iter().any(|o| o.url == "/only-b"), "union of keys");
    }

    #[test]
    fn merge_respects_capacity_by_hits() {
        let mut a = Proxy::new(64);
        let mut b = Proxy::new(64);
        let mut fx = Effects::normal();
        // a has 3 hot objects (1 hit each); b has 2 cold objects.
        for (i, url) in ["/h1", "/h2", "/h3"].iter().enumerate() {
            a.process_packet(SimTime(i as u64), &req(i as u64, 1000 + i as u16, url), &mut fx);
            a.process_packet(
                SimTime(10 + i as u64),
                &req(10 + i as u64, 1100 + i as u16, url),
                &mut fx,
            );
        }
        b.process_packet(SimTime(0), &req(50, 2000, "/c1"), &mut fx);
        b.process_packet(SimTime(1), &req(51, 2001, "/c2"), &mut fx);
        // Consolidate into b with capacity 3: the three hot entries win.
        b.set_config(&HierarchicalKey::parse("params/cache_capacity"), vec![ConfigValue::Int(3)])
            .unwrap();
        let chunk = a.get_support_shared(OpId(1)).unwrap().unwrap();
        b.put_support_shared(chunk).unwrap();
        let urls: Vec<String> = b.cache_sorted().iter().map(|o| o.url.clone()).collect();
        assert_eq!(urls, vec!["/h1", "/h2", "/h3"], "hottest entries retained: {urls:?}");
    }

    #[test]
    fn perflow_state_moves() {
        let mut a = Proxy::new(16);
        let mut b = Proxy::new(16);
        let mut fx = Effects::normal();
        let key =
            FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 3000, Ipv4Addr::new(93, 184, 216, 34), 80);
        // Half a request at a.
        a.process_packet(SimTime(0), &Packet::new(1, key, b"GET /moved".to_vec()), &mut fx);
        for c in a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap() {
            b.put_support_perflow(c).unwrap();
        }
        a.del_support_perflow(&HeaderFieldList::any()).unwrap();
        // The second half completes at b: the partial buffer moved.
        b.process_packet(SimTime(1), &Packet::new(2, key, b" HTTP/1.1\r\n".to_vec()), &mut fx);
        assert!(b.cache_sorted().iter().any(|o| o.url == "/moved"));
    }

    #[test]
    fn shared_report_merges_additively() {
        let mut a = Proxy::new(16);
        let mut b = Proxy::new(16);
        let mut fx = Effects::normal();
        a.process_packet(SimTime(0), &req(1, 1000, "/a"), &mut fx);
        b.process_packet(SimTime(0), &req(2, 2000, "/b"), &mut fx);
        let chunk = a.get_report_shared().unwrap().unwrap();
        b.put_report_shared(chunk).unwrap();
        assert_eq!(b.requests, 2);
        assert_eq!(b.misses, 2);
    }
}
