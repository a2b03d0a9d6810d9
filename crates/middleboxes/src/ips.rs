//! A flow-state intrusion detection system — the Bro [24] stand-in.
//!
//! §7: "Bro maintains a `Connection` object, and a tree of associated
//! objects, for each flow." Our [`ConnRecord`] reproduces that shape —
//! a TCP connection state machine, per-direction counters, a nested HTTP
//! analyzer, and a cross-packet signature-matching tail — and its
//! serialization walks the whole tree (the paper added libboost
//! serialization to >100 classes; our record nests several structs and
//! pays the corresponding cost model).
//!
//! State classes:
//! * **per-flow supporting**: the connection records (what `moveInternal`
//!   moves in the live-migration experiments);
//! * **shared supporting**: the scan-detector table (per-source fan-out
//!   counts) — the kind of cross-flow state Split/Merge cannot handle
//!   (§2.1);
//! * **shared reporting**: counters of alerts raised and connections
//!   logged, merged additively.
//!
//! External side effects: `conn.log` lines on connection termination,
//! `http.log` lines per request, and `alert` lines from the signature
//! engine and scan detector — the §8.2 correctness experiments diff
//! exactly these.

use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

use openmb_mb::{CostModel, Effects, Middlebox, SharedSnapshot, SyncTracker};
use openmb_simnet::SimTime;
use openmb_types::crypto::VendorKey;
use openmb_types::packet::tcp_flags;
use openmb_types::wire::{Reader, Writer};
use openmb_types::{
    ConfigTree, ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList, HierarchicalKey,
    OpId, Packet, Proto, Result, StateChunk, StateStats,
};

use crate::HTTP_LINE_CAP;

/// Bro-style connection states used in `conn.log`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Connection attempt seen, no reply (`S0`).
    S0,
    /// Established, not yet terminated (`S1`).
    S1,
    /// Normal establish + finish (`SF`).
    Sf,
    /// Reset (`RST`).
    Rst,
    /// Midstream traffic — we never saw the establishment (`OTH`).
    /// A migrated-in flow without its state lands here, which is how the
    /// §8.1.2 snapshot experiment's "incorrect entries" arise.
    Oth,
}

impl ConnState {
    fn code(self) -> &'static str {
        match self {
            ConnState::S0 => "S0",
            ConnState::S1 => "S1",
            ConnState::Sf => "SF",
            ConnState::Rst => "RST",
            ConnState::Oth => "OTH",
        }
    }

    fn from_code(b: u8) -> Result<Self> {
        Ok(match b {
            0 => ConnState::S0,
            1 => ConnState::S1,
            2 => ConnState::Sf,
            3 => ConnState::Rst,
            4 => ConnState::Oth,
            _ => return Err(Error::MalformedChunk("bad conn state".into())),
        })
    }

    fn to_byte(self) -> u8 {
        match self {
            ConnState::S0 => 0,
            ConnState::S1 => 1,
            ConnState::Sf => 2,
            ConnState::Rst => 3,
            ConnState::Oth => 4,
        }
    }
}

/// Most completed request lines the HTTP analyzer keeps per flow, the
/// latest ones. Every line is logged when it completes, so a keep-alive
/// flow does not grow its state with each request it carries.
const HTTP_REQUESTS_KEPT: usize = 16;

/// The nested HTTP analyzer hanging off a connection (one branch of
/// Bro's per-connection object tree).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HttpAnalyzer {
    /// The latest completed request lines ("GET /index.html"), at most
    /// `HTTP_REQUESTS_KEPT`.
    pub requests: Vec<String>,
    /// Bytes of a request line split across packets (at most
    /// `HTTP_LINE_CAP`).
    pub partial: Vec<u8>,
    /// Response count (any resp-direction payload after a request).
    pub responses: u64,
}

/// One per-flow supporting-state record (Bro's `Connection` + tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnRecord {
    pub key: FlowKey,
    pub start_ns: u64,
    pub last_ns: u64,
    pub state: ConnState,
    /// Bro-style history string (one letter per notable event).
    pub history: String,
    pub orig_pkts: u64,
    pub resp_pkts: u64,
    pub orig_bytes: u64,
    pub resp_bytes: u64,
    /// HTTP analyzer, attached lazily when port-80 payload is seen.
    pub http: Option<HttpAnalyzer>,
    /// Tail of the most recent payload, for cross-packet signatures.
    pub sig_tail: Vec<u8>,
    /// Signatures already fired on this connection (indices), so an
    /// alert fires once per connection per rule.
    pub fired: BTreeSet<u32>,
}

impl ConnRecord {
    fn new(key: FlowKey, now: SimTime, state: ConnState) -> Self {
        ConnRecord {
            key,
            start_ns: now.0,
            last_ns: now.0,
            state,
            history: String::new(),
            orig_pkts: 0,
            resp_pkts: 0,
            orig_bytes: 0,
            resp_bytes: 0,
            http: None,
            sig_tail: Vec::new(),
            fired: BTreeSet::new(),
        }
    }

    /// Serialize the whole record tree (connection core, HTTP analyzer,
    /// signature engine state).
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.ip(self.key.src_ip);
        w.ip(self.key.dst_ip);
        w.u16(self.key.src_port);
        w.u16(self.key.dst_port);
        w.u8(self.key.proto.number());
        w.u64(self.start_ns);
        w.u64(self.last_ns);
        w.u8(self.state.to_byte());
        w.str(&self.history);
        w.u64(self.orig_pkts);
        w.u64(self.resp_pkts);
        w.u64(self.orig_bytes);
        w.u64(self.resp_bytes);
        match &self.http {
            None => w.u8(0),
            Some(h) => {
                w.u8(1);
                w.u32(h.requests.len() as u32);
                for r in &h.requests {
                    w.str(r);
                }
                w.bytes(&h.partial);
                w.u64(h.responses);
            }
        }
        w.bytes(&self.sig_tail);
        w.u32(self.fired.len() as u32);
        for f in &self.fired {
            w.u32(*f);
        }
        w.into_bytes()
    }

    /// Reverse of [`serialize`](ConnRecord::serialize).
    pub fn deserialize(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let src_ip = r.ip()?;
        let dst_ip = r.ip()?;
        let src_port = r.u16()?;
        let dst_port = r.u16()?;
        let proto =
            Proto::from_number(r.u8()?).ok_or_else(|| Error::MalformedChunk("bad proto".into()))?;
        let key = FlowKey { src_ip, dst_ip, src_port, dst_port, proto };
        let start_ns = r.u64()?;
        let last_ns = r.u64()?;
        let state = ConnState::from_code(r.u8()?)?;
        let history = r.str()?;
        let orig_pkts = r.u64()?;
        let resp_pkts = r.u64()?;
        let orig_bytes = r.u64()?;
        let resp_bytes = r.u64()?;
        let http = if r.u8()? == 1 {
            let n = r.u32()? as usize;
            if n > HTTP_REQUESTS_KEPT {
                return Err(Error::MalformedChunk("too many request lines".into()));
            }
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                requests.push(r.str()?);
            }
            let partial = r.bytes()?;
            let responses = r.u64()?;
            Some(HttpAnalyzer { requests, partial, responses })
        } else {
            None
        };
        let sig_tail = r.bytes()?;
        let nf = r.u32()? as usize;
        if nf > 1_000_000 {
            return Err(Error::MalformedChunk("absurd fired count".into()));
        }
        let mut fired = BTreeSet::new();
        for _ in 0..nf {
            fired.insert(r.u32()?);
        }
        Ok(ConnRecord {
            key,
            start_ns,
            last_ns,
            state,
            history,
            orig_pkts,
            resp_pkts,
            orig_bytes,
            resp_bytes,
            http,
            sig_tail,
            fired,
        })
    }
}

/// One source's entry in the shared scan-detector table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScanEntry {
    /// Distinct destination ports probed.
    pub ports: BTreeSet<u16>,
    /// Total connection attempts.
    pub attempts: u64,
    /// Whether the scan alert already fired for this source.
    pub alerted: bool,
}

/// Shared reporting counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IpsStat {
    pub alerts: u64,
    pub conns_logged: u64,
    pub http_requests_logged: u64,
}

/// The IPS middlebox.
#[derive(Clone)]
pub struct Ips {
    config: ConfigTree,
    conns: HashMap<FlowKey, ConnRecord>,
    /// Shared supporting state: per-source scan tracking.
    scan_table: HashMap<Ipv4Addr, ScanEntry>,
    stat: IpsStat,
    sync: SyncTracker,
    vendor: VendorKey,
    nonce: u64,
    /// Signature-scan scratch buffer, reused across packets so the
    /// steady-state path does not allocate a fresh tail+payload buffer
    /// per packet. Not state: never serialized or compared.
    scratch: Vec<u8>,
}

impl Default for Ips {
    fn default() -> Self {
        Self::new()
    }
}

impl Ips {
    /// An IPS with a small default signature set and scan threshold.
    pub fn new() -> Self {
        let mut config = ConfigTree::new();
        config.set(
            &HierarchicalKey::parse("rules/signatures"),
            vec!["evil.exe".into(), "cmd.exe /c".into(), "DROP TABLE".into()],
        );
        config.set(&HierarchicalKey::parse("params/scan_threshold"), vec![ConfigValue::Int(20)]);
        Ips {
            config,
            conns: HashMap::new(),
            scan_table: HashMap::new(),
            stat: IpsStat::default(),
            sync: SyncTracker::new(),
            vendor: VendorKey::derive("bro"),
            nonce: 1,
            scratch: Vec::new(),
        }
    }

    fn signatures(&self) -> Vec<String> {
        self.config
            .get_leaf(&HierarchicalKey::parse("rules/signatures"))
            .map(|vs| vs.iter().filter_map(|v| v.as_str().map(str::to_owned)).collect())
            .unwrap_or_default()
    }

    fn scan_threshold(&self) -> u64 {
        self.config
            .get_leaf(&HierarchicalKey::parse("params/scan_threshold"))
            .and_then(|v| v.first().and_then(ConfigValue::as_int))
            .unwrap_or(20) as u64
    }

    fn seal(&mut self, bytes: &[u8]) -> EncryptedChunk {
        let n = self.nonce;
        self.nonce += 1;
        EncryptedChunk::seal(&self.vendor, n, bytes)
    }

    fn log_conn(rec: &ConnRecord, now: SimTime, stat: &mut IpsStat, fx: &mut Effects) {
        if !fx.is_replay() {
            stat.conns_logged += 1;
        }
        fx.log(
            "conn.log",
            format!(
                "{} {} {} {} {} orig={} resp={}",
                rec.start_ns,
                now.0,
                rec.key,
                rec.state.code(),
                rec.history,
                rec.orig_bytes,
                rec.resp_bytes
            ),
        );
    }

    fn serialize_scan_table(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let mut keys: Vec<&Ipv4Addr> = self.scan_table.keys().collect();
        keys.sort();
        w.u32(keys.len() as u32);
        for ip in keys {
            let e = &self.scan_table[ip];
            w.ip(*ip);
            w.u32(e.ports.len() as u32);
            for p in &e.ports {
                w.u16(*p);
            }
            w.u64(e.attempts);
            w.bool(e.alerted);
        }
        w.into_bytes()
    }

    fn merge_scan_table(&mut self, buf: &[u8]) -> Result<()> {
        let mut r = Reader::new(buf);
        let n = r.u32()? as usize;
        if n > 10_000_000 {
            return Err(Error::MalformedChunk("absurd scan table".into()));
        }
        for _ in 0..n {
            let ip = r.ip()?;
            let np = r.u32()? as usize;
            let mut ports = BTreeSet::new();
            for _ in 0..np {
                ports.insert(r.u16()?);
            }
            let attempts = r.u64()?;
            let alerted = r.bool()?;
            let e = self.scan_table.entry(ip).or_default();
            e.ports.extend(ports);
            e.attempts += attempts;
            e.alerted |= alerted;
        }
        Ok(())
    }

    /// Shared reporting counters (experiments).
    pub fn stat(&self) -> &IpsStat {
        &self.stat
    }

    /// Reprocess events raised so far (experiments).
    pub fn events_raised(&self) -> u64 {
        self.sync.events_raised
    }

    /// Resident connection records, sorted (experiments / tests).
    pub fn conns_sorted(&self) -> Vec<ConnRecord> {
        let mut v: Vec<ConnRecord> = self.conns.values().cloned().collect();
        v.sort_by_key(|r| r.key);
        v
    }

    /// Total serialized bytes of all per-flow state — what a VM snapshot
    /// would carry (§8.1.2's BASE/FULL comparison).
    pub fn resident_state_bytes(&self) -> usize {
        self.conns.values().map(|c| c.serialize().len()).sum()
    }

    /// The per-packet logic with the config-derived inputs (signature
    /// set, scan threshold) passed in, so the batch path parses them
    /// once instead of once per packet.
    fn process_one(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        fx: &mut Effects,
        signatures: &[String],
        threshold: u64,
    ) {
        let key = pkt.key.canonical();
        let is_orig = pkt.key == key;
        let is_syn = pkt.has_flag(tcp_flags::SYN) && !pkt.has_flag(tcp_flags::ACK);

        // ---- shared supporting state: scan detector ----
        if pkt.key.proto == Proto::Tcp && is_syn {
            let entry = self.scan_table.entry(pkt.key.src_ip).or_default();
            entry.ports.insert(pkt.key.dst_port);
            entry.attempts += 1;
            if !entry.alerted && entry.ports.len() as u64 >= threshold {
                entry.alerted = true;
                if !fx.is_replay() {
                    self.stat.alerts += 1;
                }
                fx.log("alert", format!("{} port scan from {}", now.0, pkt.key.src_ip));
            }
            self.sync.on_shared_update(pkt, fx);
        }

        // ---- per-flow supporting state: connection record ----
        let initial_state = if pkt.key.proto != Proto::Tcp {
            ConnState::S1
        } else if is_syn {
            ConnState::S0
        } else {
            // Midstream: we never saw this connection start.
            ConnState::Oth
        };
        let is_new = !self.conns.contains_key(&key);
        let rec = self.conns.entry(key).or_insert_with(|| ConnRecord::new(key, now, initial_state));
        rec.last_ns = now.0;
        if is_orig {
            rec.orig_pkts += 1;
            rec.orig_bytes += pkt.payload.len() as u64;
        } else {
            rec.resp_pkts += 1;
            rec.resp_bytes += pkt.payload.len() as u64;
        }
        if is_new {
            rec.history.push(if is_orig { 'O' } else { 'R' });
        }

        // TCP state machine.
        let mut closed = false;
        if pkt.key.proto == Proto::Tcp {
            if pkt.has_flag(tcp_flags::RST) {
                rec.state = ConnState::Rst;
                rec.history.push('r');
                closed = true;
            } else if pkt.has_flag(tcp_flags::SYN) && pkt.has_flag(tcp_flags::ACK) {
                if rec.state == ConnState::S0 {
                    rec.state = ConnState::S1;
                    rec.history.push('h');
                }
            } else if pkt.has_flag(tcp_flags::FIN) {
                rec.history.push('f');
                if rec.state == ConnState::S1 {
                    if is_orig {
                        rec.state = ConnState::Sf; // simplified: orig FIN closes
                        closed = true;
                    } else {
                        rec.state = ConnState::Sf;
                        closed = true;
                    }
                } else {
                    closed = true;
                }
            }
        }

        // ---- HTTP analyzer (nested object tree) ----
        if pkt.key.dst_port == 80 || pkt.key.src_port == 80 {
            let http = rec.http.get_or_insert_with(HttpAnalyzer::default);
            if is_orig && !pkt.payload.is_empty() {
                // Bytes already buffered were scanned on earlier packets
                // and hold no terminator, so only a terminator that
                // straddles their end can start before the new bytes.
                let old = http.partial.len();
                http.partial.extend_from_slice(&pkt.payload);
                // A request line is complete at the first CRLF or at a
                // recognizable "HTTP/1." suffix within the buffer.
                let find_from = |needle: &[u8]| {
                    let from = old.saturating_sub(needle.len() - 1);
                    find_subsequence(&http.partial[from..], needle).map(|p| from + p)
                };
                if let Some(pos) =
                    find_from(b"\r\n").or_else(|| find_from(b"HTTP/1.1").map(|p| p + 8))
                {
                    let line: Vec<u8> = http.partial.drain(..pos).collect();
                    http.partial.clear();
                    if line.starts_with(b"GET") || line.starts_with(b"POST") {
                        let text = String::from_utf8_lossy(&line).into_owned();
                        if http.requests.len() == HTTP_REQUESTS_KEPT {
                            http.requests.remove(0);
                        }
                        http.requests.push(text.clone());
                        if !fx.is_replay() {
                            self.stat.http_requests_logged += 1;
                        }
                        fx.log("http.log", format!("{} {} {}", now.0, pkt.key, text));
                    }
                } else if http.partial.len() > HTTP_LINE_CAP {
                    // An overlong line is dropped, keeping only a
                    // terminator that may be split across packets.
                    let keep = terminator_head_len(&http.partial);
                    http.partial.drain(..http.partial.len() - keep);
                }
            } else if !is_orig && !pkt.payload.is_empty() {
                http.responses += 1;
            }
        }

        // ---- signature engine (cross-packet) ----
        // The tail+payload window is assembled in a buffer reused across
        // packets (zero steady-state allocations).
        let mut scan_buf = std::mem::take(&mut self.scratch);
        scan_buf.clear();
        scan_buf.extend_from_slice(&rec.sig_tail);
        scan_buf.extend_from_slice(&pkt.payload);
        for (idx, sig) in signatures.iter().enumerate() {
            let idx = idx as u32;
            if !rec.fired.contains(&idx) && find_subsequence(&scan_buf, sig.as_bytes()).is_some() {
                rec.fired.insert(idx);
                if !fx.is_replay() {
                    self.stat.alerts += 1;
                }
                fx.log("alert", format!("{} signature '{}' on {}", now.0, sig, pkt.key));
            }
        }
        let max_sig = signatures.iter().map(String::len).max().unwrap_or(0);
        let keep = max_sig.saturating_sub(1).min(scan_buf.len());
        rec.sig_tail.clear();
        rec.sig_tail.extend_from_slice(&scan_buf[scan_buf.len() - keep..]);
        self.scratch = scan_buf;

        // Log + retire closed connections.
        if closed {
            let rec = self.conns.remove(&key).expect("record exists");
            Self::log_conn(&rec, now, &mut self.stat, fx);
            // A packet that closes a moved connection still updated the
            // moved state (its final counters); raise the event before
            // forgetting the mark.
            self.sync.on_perflow_update(key, pkt, fx);
            self.sync.clear_flow(&key);
        } else {
            self.sync.on_perflow_update(key, pkt, fx);
        }

        fx.forward(pkt.clone());
    }
}

impl Middlebox for Ips {
    fn mb_type(&self) -> &'static str {
        "bro"
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
        if key.is_root() {
            return Err(Error::InvalidConfigValue {
                key: key.to_string(),
                reason: "cannot set the root key".into(),
            });
        }
        if key.segments() == ["params".to_owned(), "scan_threshold".to_owned()]
            && values.first().and_then(ConfigValue::as_int).is_none_or(|v| v <= 0)
        {
            return Err(Error::InvalidConfigValue {
                key: key.to_string(),
                reason: "scan_threshold must be a positive integer".into(),
            });
        }
        self.config.set(key, values);
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
            let rec = self.conns[&fk].clone();
            let sealed = self.seal(&rec.serialize());
            self.sync.mark_moved(fk, op);
            out.push(StateChunk::new(HeaderFieldList::exact(fk), sealed));
        }
        self.sync.mark_move_pattern(op, *key);
        Ok(out)
    }

    fn put_support_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        let plain = chunk.data.open(&self.vendor)?;
        let rec = ConnRecord::deserialize(&plain)?;
        let key = rec.key.canonical();
        self.sync.clear_flow(&key);
        self.conns.insert(key, rec);
        Ok(())
    }

    fn del_support_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        // The paper added a `moved` flag so Bro does not log errors when
        // state for a moved flow is deleted: our del simply removes the
        // records without conn.log output.
        let victims: Vec<FlowKey> =
            self.conns.keys().filter(|k| key.matches_bidi(k)).copied().collect();
        for k in &victims {
            self.conns.remove(k);
            self.sync.clear_flow(k);
        }
        Ok(victims.len())
    }

    fn get_support_shared(&mut self, op: OpId) -> Result<Option<EncryptedChunk>> {
        let bytes = self.serialize_scan_table();
        self.sync.mark_shared(op);
        Ok(Some(self.seal(&bytes)))
    }

    fn put_support_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let plain = chunk.open(&self.vendor)?;
        // Merge logic is MB-side (§4.1.2): union ports, sum attempts.
        self.merge_scan_table(&plain)
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
        w.u64(self.stat.alerts);
        w.u64(self.stat.conns_logged);
        w.u64(self.stat.http_requests_logged);
        let bytes = w.into_bytes();
        Ok(Some(self.seal(&bytes)))
    }

    fn put_report_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let plain = chunk.open(&self.vendor)?;
        let mut r = Reader::new(&plain);
        self.stat.alerts += r.u64()?;
        self.stat.conns_logged += r.u64()?;
        self.stat.http_requests_logged += r.u64()?;
        Ok(())
    }

    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        let support = self.serialize_scan_table();
        let support = self.seal(&support);
        let mut w = Writer::new();
        w.u64(self.stat.alerts);
        w.u64(self.stat.conns_logged);
        w.u64(self.stat.http_requests_logged);
        let report = w.into_bytes();
        Ok(SharedSnapshot { support: Some(support), report: Some(self.seal(&report)) })
    }

    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        self.scan_table.clear();
        if let Some(chunk) = snap.support {
            let plain = chunk.open(&self.vendor)?;
            // Merging into an empty table reproduces it exactly.
            self.merge_scan_table(&plain)?;
        }
        self.stat = IpsStat::default();
        if let Some(chunk) = snap.report {
            let plain = chunk.open(&self.vendor)?;
            let mut r = Reader::new(&plain);
            self.stat = IpsStat {
                alerts: r.u64()?,
                conns_logged: r.u64()?,
                http_requests_logged: r.u64()?,
            };
        }
        Ok(())
    }

    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        let mut s = StateStats::default();
        for (k, rec) in &self.conns {
            if key.matches_bidi(k) {
                s.perflow_support_chunks += 1;
                s.perflow_support_bytes += rec.serialize().len() + 16;
            }
        }
        s.shared_support_bytes = self.serialize_scan_table().len() + 16;
        s.shared_report_bytes = 24 + 16;
        s
    }

    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
        let signatures = self.signatures();
        let threshold = self.scan_threshold();
        self.process_one(now, pkt, fx, &signatures, threshold);
    }

    /// Batch specialization: the signature set (a `Vec<String>` rebuild
    /// on the scalar path) and the scan threshold are parsed from config
    /// once per batch. Log and alert lines accumulate per packet in `fx`
    /// and are flushed by the embedding once per batch.
    fn process_batch(&mut self, now: SimTime, pkts: &[Packet], fx: &mut Effects) {
        let signatures = self.signatures();
        let threshold = self.scan_threshold();
        for pkt in pkts {
            self.process_one(now, pkt, fx, &signatures, threshold);
        }
    }

    fn finalize(&mut self, now: SimTime, fx: &mut Effects) {
        // Flush still-open connections, as Bro does at shutdown. Flows
        // whose state was moved away were deleted by `del` and produce
        // nothing; flows that terminated abruptly (e.g. the other half of
        // a snapshot-migrated deployment) surface here with non-SF
        // states — the §8.1.2 "incorrect entries".
        let mut keys: Vec<FlowKey> = self.conns.keys().copied().collect();
        keys.sort();
        for key in keys {
            let rec = self.conns.remove(&key).expect("record exists");
            Self::log_conn(&rec, now, &mut self.stat, fx);
        }
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel::bro_like()
    }

    fn perflow_entries(&self) -> usize {
        self.conns.len()
    }
}

/// Length of the longest tail of `buf` that later bytes could complete
/// into a line terminator (`\r\n` or `HTTP/1.1`).
fn terminator_head_len(buf: &[u8]) -> usize {
    let http = (1..8).rev().find(|&n| buf.ends_with(&b"HTTP/1.1"[..n])).unwrap_or(0);
    http.max(usize::from(buf.ends_with(b"\r")))
}

/// Find the first occurrence of `needle` in `haystack`.
fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn conn_key(sp: u16) -> FlowKey {
        FlowKey::tcp(ip(10, 0, 0, 1), sp, ip(192, 168, 0, 1), 80)
    }

    /// Drive a full handshake + one HTTP request + FIN through the IPS.
    fn run_http_conn(ips: &mut Ips, sp: u16, t0: u64) -> Vec<openmb_mb::LogEntry> {
        let key = conn_key(sp);
        let mut logs = Vec::new();
        let mut id = u64::from(sp) * 100;
        let mut step = |ips: &mut Ips, pkt: Packet, t: u64| {
            let mut fx = Effects::normal();
            ips.process_packet(SimTime(t), &pkt, &mut fx);
            logs_extend(&mut logs, &mut fx);
        };
        step(ips, Packet::tcp(id, key, tcp_flags::SYN, Bytes::new()), t0);
        id += 1;
        step(
            ips,
            Packet::tcp(id, key.reversed(), tcp_flags::SYN | tcp_flags::ACK, Bytes::new()),
            t0 + 1,
        );
        id += 1;
        step(
            ips,
            Packet::tcp(id, key, tcp_flags::ACK, Bytes::from_static(b"GET /i.html HTTP/1.1\r\n")),
            t0 + 2,
        );
        id += 1;
        step(
            ips,
            Packet::tcp(id, key.reversed(), tcp_flags::ACK, Bytes::from_static(b"200 OK")),
            t0 + 3,
        );
        id += 1;
        step(ips, Packet::tcp(id, key, tcp_flags::FIN | tcp_flags::ACK, Bytes::new()), t0 + 4);
        logs
    }

    fn logs_extend(out: &mut Vec<openmb_mb::LogEntry>, fx: &mut Effects) {
        out.extend(fx.take_logs());
    }

    #[test]
    fn full_connection_logs_sf() {
        let mut ips = Ips::new();
        let logs = run_http_conn(&mut ips, 1000, 0);
        let conn_lines: Vec<&openmb_mb::LogEntry> =
            logs.iter().filter(|l| l.log == "conn.log").collect();
        assert_eq!(conn_lines.len(), 1);
        assert!(conn_lines[0].line.contains(" SF "), "normal close is SF: {}", conn_lines[0].line);
        assert!(logs.iter().any(|l| l.log == "http.log" && l.line.contains("GET /i.html")));
        assert_eq!(ips.perflow_entries(), 0, "closed conns are retired");
    }

    #[test]
    fn midstream_connection_is_oth() {
        let mut ips = Ips::new();
        let key = conn_key(2000);
        let mut fx = Effects::normal();
        ips.process_packet(
            SimTime(0),
            &Packet::tcp(1, key, tcp_flags::ACK, Bytes::from_static(b"data")),
            &mut fx,
        );
        ips.finalize(SimTime(10), &mut fx);
        let logs = fx.take_logs();
        let conn_line = logs.iter().find(|l| l.log == "conn.log").unwrap();
        assert!(conn_line.line.contains(" OTH "), "{}", conn_line.line);
    }

    #[test]
    fn rst_logs_rst_state() {
        let mut ips = Ips::new();
        let key = conn_key(2100);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        ips.process_packet(
            SimTime(1),
            &Packet::tcp(2, key.reversed(), tcp_flags::RST, Bytes::new()),
            &mut fx,
        );
        let logs = fx.take_logs();
        assert!(logs.iter().any(|l| l.log == "conn.log" && l.line.contains(" RST ")));
    }

    #[test]
    fn signature_fires_once_per_connection() {
        let mut ips = Ips::new();
        let key = conn_key(3000);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        for t in 1..4 {
            ips.process_packet(
                SimTime(t),
                &Packet::tcp(t, key, tcp_flags::ACK, Bytes::from_static(b"download evil.exe now")),
                &mut fx,
            );
        }
        let alerts: Vec<_> = fx.take_logs().into_iter().filter(|l| l.log == "alert").collect();
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn signature_matches_across_packet_boundary() {
        let mut ips = Ips::new();
        let key = conn_key(3100);
        let mut fx = Effects::normal();
        ips.process_packet(
            SimTime(0),
            &Packet::tcp(1, key, tcp_flags::ACK, Bytes::from_static(b"xxevil.")),
            &mut fx,
        );
        ips.process_packet(
            SimTime(1),
            &Packet::tcp(2, key, tcp_flags::ACK, Bytes::from_static(b"exeyy")),
            &mut fx,
        );
        let alerts: Vec<_> = fx.take_logs().into_iter().filter(|l| l.log == "alert").collect();
        assert_eq!(alerts.len(), 1, "split signature must still fire");
    }

    #[test]
    fn scan_detector_uses_shared_state() {
        let mut ips = Ips::new();
        ips.set_config(&HierarchicalKey::parse("params/scan_threshold"), vec![ConfigValue::Int(5)])
            .unwrap();
        let mut fx = Effects::normal();
        for port in 1..=5u16 {
            let key = FlowKey::tcp(ip(6, 6, 6, 6), 5555, ip(192, 168, 0, 1), port);
            ips.process_packet(
                SimTime(u64::from(port)),
                &Packet::tcp(u64::from(port), key, tcp_flags::SYN, Bytes::new()),
                &mut fx,
            );
        }
        let alerts: Vec<_> = fx.take_logs().into_iter().filter(|l| l.log == "alert").collect();
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].line.contains("port scan from 6.6.6.6"));
    }

    #[test]
    fn connrecord_serialization_roundtrip() {
        let mut ips = Ips::new();
        let key = conn_key(4000);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        ips.process_packet(
            SimTime(1),
            &Packet::tcp(2, key, tcp_flags::ACK, Bytes::from_static(b"GET /x HTTP/1.1\r\n")),
            &mut fx,
        );
        let rec = ips.conns_sorted().pop().unwrap();
        let rt = ConnRecord::deserialize(&rec.serialize()).unwrap();
        assert_eq!(rec, rt);
    }

    #[test]
    fn move_preserves_connection_state_machine() {
        let mut src = Ips::new();
        let mut dst = Ips::new();
        let key = conn_key(5000);
        let mut fx = Effects::normal();
        // Establish at src.
        src.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        src.process_packet(
            SimTime(1),
            &Packet::tcp(2, key.reversed(), tcp_flags::SYN | tcp_flags::ACK, Bytes::new()),
            &mut fx,
        );
        // Move to dst.
        let chunks = src.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        assert_eq!(chunks.len(), 1);
        for c in chunks {
            dst.put_support_perflow(c).unwrap();
        }
        src.del_support_perflow(&HeaderFieldList::any()).unwrap();
        // Close at dst: must log SF (established state survived the move).
        let mut fx2 = Effects::normal();
        dst.process_packet(
            SimTime(2),
            &Packet::tcp(3, key, tcp_flags::FIN | tcp_flags::ACK, Bytes::new()),
            &mut fx2,
        );
        let logs = fx2.take_logs();
        assert!(
            logs.iter().any(|l| l.log == "conn.log" && l.line.contains(" SF ")),
            "moved connection must close normally: {logs:?}"
        );
        // src, finalized, logs nothing (state was deleted after move).
        let mut fx3 = Effects::normal();
        src.finalize(SimTime(3), &mut fx3);
        assert!(fx3.take_logs().is_empty());
    }

    #[test]
    fn scan_table_clone_and_merge() {
        let mut a = Ips::new();
        let mut b = Ips::new();
        let mut fx = Effects::normal();
        for port in 1..=3u16 {
            let key = FlowKey::tcp(ip(6, 6, 6, 6), 5555, ip(192, 168, 0, 1), port);
            a.process_packet(
                SimTime(0),
                &Packet::tcp(0, key, tcp_flags::SYN, Bytes::new()),
                &mut fx,
            );
        }
        for port in 3..=5u16 {
            let key = FlowKey::tcp(ip(6, 6, 6, 6), 5555, ip(192, 168, 0, 1), port);
            b.process_packet(
                SimTime(0),
                &Packet::tcp(0, key, tcp_flags::SYN, Bytes::new()),
                &mut fx,
            );
        }
        let chunk = a.get_support_shared(OpId(1)).unwrap().unwrap();
        b.put_support_shared(chunk).unwrap();
        // b's merged table: ports {1,2,3} ∪ {3,4,5} = 5 distinct ports.
        assert_eq!(b.scan_table[&ip(6, 6, 6, 6)].ports.len(), 5);
        assert_eq!(b.scan_table[&ip(6, 6, 6, 6)].attempts, 6);
    }

    #[test]
    fn reprocess_event_raised_for_moved_conn() {
        let mut ips = Ips::new();
        let key = conn_key(6000);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        let _ = ips.get_support_perflow(OpId(2), &HeaderFieldList::any()).unwrap();
        let mut fx2 = Effects::normal();
        ips.process_packet(
            SimTime(1),
            &Packet::tcp(2, key, tcp_flags::ACK, Bytes::from_static(b"x")),
            &mut fx2,
        );
        assert_eq!(fx2.take_events().len(), 1);
        assert_eq!(ips.events_raised(), 1);
    }

    #[test]
    fn granularity_any_pattern_ok_udp_flows_too() {
        let mut ips = Ips::new();
        let key = FlowKey::udp(ip(1, 1, 1, 1), 500, ip(2, 2, 2, 2), 53);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::new(1, key, vec![1, 2, 3]), &mut fx);
        assert_eq!(ips.perflow_entries(), 1);
        let chunks = ips.get_support_perflow(OpId(1), &HeaderFieldList::from_dst_port(53)).unwrap();
        assert_eq!(chunks.len(), 1);
    }

    /// Feed `chunks` as consecutive originator payloads of one port-80
    /// flow; returns the `http.log` lines.
    fn feed_http(ips: &mut Ips, sp: u16, chunks: &[&[u8]]) -> Vec<String> {
        let key = conn_key(sp);
        let mut fx = Effects::normal();
        for (i, c) in chunks.iter().enumerate() {
            let pkt = Packet::tcp(i as u64, key, tcp_flags::ACK, Bytes::from(c.to_vec()));
            ips.process_packet(SimTime(i as u64), &pkt, &mut fx);
        }
        fx.take_logs().into_iter().filter(|l| l.log == "http.log").map(|l| l.line).collect()
    }

    #[test]
    fn request_split_over_packets_logs_once() {
        let mut ips = Ips::new();
        let logs =
            feed_http(&mut ips, 7100, &[b"GET /ind", b"ex.html HTTP/1", b".1\r", b"\nHost: a"]);
        assert_eq!(logs.len(), 1, "{logs:?}");
        assert!(logs[0].ends_with(" GET /index.html HTTP/1.1"), "{logs:?}");
        // CRLF split across packets, no HTTP version on the line.
        let logs = feed_http(&mut ips, 7101, &[b"POST /form", b"\r", b"\n"]);
        assert_eq!(logs.len(), 1, "{logs:?}");
        assert!(logs[0].ends_with(" POST /form"), "{logs:?}");
    }

    #[test]
    fn unterminated_http_line_stays_bounded() {
        let mut ips = Ips::new();
        let key = conn_key(7200);
        let payload = Bytes::from(vec![b'a'; 64]);
        let mut fx = Effects::normal();
        let partial_len = |ips: &Ips| {
            let rec = ips.conns_sorted().pop().expect("one connection");
            rec.http.expect("port-80 payload attaches the analyzer").partial.len()
        };
        for i in 0..10_000u64 {
            let pkt = Packet::tcp(i, key, tcp_flags::ACK, payload.clone());
            ips.process_packet(SimTime(i), &pkt, &mut fx);
            if i % 100 == 0 {
                assert!(partial_len(&ips) <= HTTP_LINE_CAP, "packet {i}");
            }
        }
        assert!(partial_len(&ips) <= HTTP_LINE_CAP);
        let bytes = ips.stats(&HeaderFieldList::any()).perflow_support_bytes;
        assert!(bytes < HTTP_LINE_CAP + 512, "per-flow state grew to {bytes} B");
        assert!(fx.take_logs().iter().all(|l| l.log != "http.log"));
    }

    #[test]
    fn keep_alive_requests_stay_bounded() {
        const REQUESTS: u64 = 10_000;
        let mut ips = Ips::new();
        let key = conn_key(7400);
        let mut fx = Effects::normal();
        for i in 0..REQUESTS {
            let line = Bytes::from(format!("GET /r/{i:05} HTTP/1.1\r\n"));
            ips.process_packet(SimTime(i), &Packet::tcp(i, key, tcp_flags::ACK, line), &mut fx);
        }
        let http = ips.conns_sorted().pop().expect("one connection").http.expect("analyzer");
        assert_eq!(http.requests.len(), HTTP_REQUESTS_KEPT);
        assert_eq!(http.requests.last().map(String::as_str), Some("GET /r/09999 HTTP/1.1"));
        // Each kept line costs its 21 bytes plus a length prefix.
        let bytes = ips.stats(&HeaderFieldList::any()).perflow_support_bytes;
        assert!(bytes < HTTP_REQUESTS_KEPT * 32 + 512, "per-flow state grew to {bytes} B");
        let logged = fx.take_logs().iter().filter(|l| l.log == "http.log").count();
        assert_eq!(logged as u64, REQUESTS, "every request is still logged");
    }

    #[test]
    fn terminator_split_at_the_cap_is_still_found() {
        // Fill to just past the cap, ending in a terminator's head: the
        // overlong line is dropped, the split terminator survives and
        // ends it, and the next request logs normally. (Were the head
        // dropped too, its tail would prefix the next request line.)
        let filler = vec![b'x'; HTTP_LINE_CAP];
        for (sp, head, tail) in [(7300, &b"HTTP/1"[..], &b".1"[..]), (7301, b"\r", b"\n")] {
            let mut ips = Ips::new();
            let logs = feed_http(&mut ips, sp, &[&filler, head, tail, b"GET /next HTTP/1.1\r\n"]);
            assert_eq!(logs.len(), 1, "{logs:?}");
            assert!(logs[0].ends_with(" GET /next HTTP/1.1"), "{logs:?}");
        }
    }
}
