//! Shared plumbing: command line, statistics, result printing.

use std::fmt::Write as _;
use std::time::Instant;

use openmb_core::nodes::Host;
use openmb_simnet::{Sim, SimTime};

/// Command-line arguments of one benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = args;
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(val),
                "--seed" => seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
                "--seconds" => {
                    seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(format!("--seconds {val}: must be in (0, 600]"));
                    }
                }
                "--trace" => {
                    trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {val}: must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted (packets and moves).
    pub attempted: u64,
    /// Ops failed: packets lost for a reason other than firewall policy,
    /// moves that errored, timed out or moved the wrong chunk count.
    pub failed: u64,
    /// Output checks by name; the run is correct when all hold.
    pub checks: Vec<(String, bool)>,
    /// Set-ups made in the run.
    pub setups: usize,
    /// The workload's set-up time, in seconds.
    pub setup_s: f64,
    /// Peak resident memory after a fixed amount of work, in MiB: the
    /// first repetition (DES) or the first `MIN_MOVES` moves (TCP).
    /// Later repetitions run on a heap the allocator has fragmented and
    /// moves keep adding destination-side cache entries, so a peak taken
    /// at the end would drift with run length and machine speed.
    pub peak_rss_mb: Option<f64>,
    /// The workload's op rate.
    pub ops_per_s: f64,
    /// The workload's own end-to-end metrics, printed by name.
    pub report: Vec<Metric>,
    /// Outputs of the virtual-time cost model (behaviour checks only).
    pub modeled: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// The traced run's layer table, already formatted.
    pub table: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`p` in 0..=1) of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The delivery digest the DES workloads compare across repetitions,
/// traced ones included: FNV-1a over each packet's arrival time and id
/// at `host`, in arrival order.
pub fn delivery_digest(host: &Host) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (t, p) in &host.received {
        for b in t.0.to_le_bytes().into_iter().chain(p.id.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The modeled per-packet latency of the `MbNode` labelled `label`:
/// p50 and p99 of its `<label>.pkt_latency` samples, in virtual time.
pub fn modeled_latency(sim: &Sim, label: &str) -> [Metric; 2] {
    let lat: Vec<f64> = sim
        .metrics
        .samples(&format!("{label}.pkt_latency"))
        .iter()
        .map(|d| d.as_millis_f64())
        .collect();
    [
        metric(format!("modeled.{label}.pkt_latency_p50"), percentile(&lat, 0.5), "ms"),
        metric(format!("modeled.{label}.pkt_latency_p99"), percentile(&lat, 0.99), "ms"),
    ]
}

/// SplitMix64: the benchmark's own seeded generator for the inputs the
/// repository's generators do not cover.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x005E_ED0F_BE4C_u64)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Format the final one-line JSON result.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

/// Events a DES repetition runs between two splits: about 10 ms of
/// wall time.
pub const SPLIT_EVENTS: u64 = 10_000;

/// Wall times of the consecutive parts of one repetition.
pub struct Splits {
    last: Instant,
    pub times: Vec<f64>,
}

impl Splits {
    pub fn start() -> Splits {
        Splits { last: Instant::now(), times: Vec::new() }
    }
    /// Close the current part and start the next.
    pub fn split(&mut self) {
        let now = Instant::now();
        self.times.push((now - self.last).as_secs_f64());
        self.last = now;
    }
    pub fn total(&self) -> f64 {
        self.times.iter().sum()
    }
}

/// Run `sim` to `until` (or to idle), `SPLIT_EVENTS` events a part.
/// Returns the events processed.
pub fn run_split(sim: &mut Sim, until: SimTime, splits: &mut Splits) -> u64 {
    let mut events = 0;
    loop {
        let n = sim.run_until(until, SPLIT_EVENTS);
        splits.split();
        events += n;
        if n < SPLIT_EVENTS {
            return events;
        }
    }
}

/// Wall time of one repetition at the host's full speed: each part's
/// fastest time across `reps`, summed. Every repetition does the same
/// work in the same parts (a DES run is deterministic and split at fixed
/// event counts; a `tcp_move` set-up preloads the same flows), so the
/// parts' times differ only by what the host did meanwhile. A shared host
/// slows a part, never speeds it up, and its slow spells last seconds:
/// longer than a part, shorter than a run. `None` if the repetitions
/// did not split alike.
pub fn fastest_total<'a>(reps: impl IntoIterator<Item = &'a Splits>) -> Option<f64> {
    let mut best: Option<Vec<f64>> = None;
    for r in reps {
        match &mut best {
            None => best = Some(r.times.clone()),
            Some(b) if b.len() == r.times.len() => {
                for (b, t) in b.iter_mut().zip(&r.times) {
                    *b = b.min(*t);
                }
            }
            Some(_) => return None,
        }
    }
    best.map(|b| b.iter().sum())
}

/// Run `rep` until `seconds` of wall time have passed, at least
/// `min_reps` times.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min_reps || start.elapsed().as_secs_f64() < seconds {
        rep(n);
        n += 1;
    }
    n
}
