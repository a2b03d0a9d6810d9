//! The metrics registry: named counters, gauges, and histograms with
//! Prometheus-text and JSON exporters.
//!
//! This supersedes the ad-hoc name-string counters that used to live
//! in `simnet::metrics` — the simulator's `Metrics` now delegates its
//! counters (and mirrors its duration samples as histograms) into a
//! `Registry`, so every embedding exports through one code path.
//! Iteration order is `BTreeMap` order, which keeps exports
//! deterministic and diffable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default histogram bucket upper bounds (unit-agnostic; the simnet
/// integration observes milliseconds). A final `+Inf` bucket is
/// implicit.
pub const DEFAULT_BOUNDS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// A cumulative-bucket histogram plus exact sum/count/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the finite buckets (sorted ascending).
    bounds: Vec<f64>,
    /// Per-bucket observation counts (same length as `bounds`, plus
    /// the overflow bucket at the end — i.e. `bounds.len() + 1`).
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be sorted");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Cumulative count of observations `<= bound` for each finite
    /// bound, in ascending-bound order.
    pub fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut acc = 0u64;
        self.bounds.iter().zip(&self.counts).map(move |(b, c)| {
            acc += c;
            (*b, acc)
        })
    }
}

/// Counters, gauges, and histograms under string names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Bump a monotonic counter. Allocates the key only on first use.
    pub fn incr(&mut self, name: &str, by: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += by;
        } else {
            self.counters.insert(name.to_owned(), by);
        }
    }

    /// Read a counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to an absolute value.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_owned(), v);
        }
    }

    /// Read a gauge, `None` when never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Observe a value into a histogram with [`DEFAULT_BOUNDS`].
    pub fn observe(&mut self, name: &str, v: f64) {
        self.observe_with_bounds(name, v, DEFAULT_BOUNDS);
    }

    /// Observe into a histogram, creating it with `bounds` on first
    /// use (later observations ignore `bounds`).
    pub fn observe_with_bounds(&mut self, name: &str, v: f64, bounds: &[f64]) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::new(bounds);
            h.observe(v);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Merge another registry's counters into this one (counters add;
    /// gauges and histograms are untouched).
    pub fn absorb_counters(&mut self, other: &Registry) {
        for (k, v) in other.counters() {
            self.incr(k, v);
        }
    }

    /// Serialize as a JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max,buckets:[{le,count},...]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                json_string(k),
                h.count,
                json_f64(h.sum),
                json_f64(h.min().unwrap_or(0.0)),
                json_f64(h.max().unwrap_or(0.0)),
            );
            for (j, (le, c)) in h.cumulative().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"le\":{},\"count\":{}}}", json_f64(le), c);
            }
            if !h.bounds.is_empty() {
                out.push(',');
            }
            let _ = write!(out, "{{\"le\":\"+Inf\",\"count\":{}}}]}}", h.count);
        }
        out.push_str("}}");
        out
    }

    /// Serialize in the Prometheus text exposition format. Metric
    /// names are sanitized to `[a-zA-Z0-9_:]` (e.g. `mbA.packets` →
    /// `mbA_packets`).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = prom_name(k);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, v) in &self.gauges {
            let name = prom_name(k);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", prom_f64(*v));
        }
        for (k, h) in &self.histograms {
            let name = prom_name(k);
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (le, c) in h.cumulative() {
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {c}", prom_f64(le));
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", prom_f64(h.sum));
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// JSON string literal with escaping for quotes/backslashes/control
/// characters (names here are ASCII identifiers in practice).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite f64 as a JSON number (integral values keep a `.0` off).
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite value in export: {v}");
    format!("{v}")
}

fn prom_f64(v: f64) -> String {
    format!("{v}")
}

/// Sanitize a metric name for the Prometheus exposition format.
fn prom_name(s: &str) -> String {
    let mut out: String = s
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = Registry::new();
        r.incr("ops", 2);
        r.incr("ops", 3);
        r.set_gauge("open", 4.0);
        r.set_gauge("open", 1.5);
        assert_eq!(r.counter("ops"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("open"), Some(1.5));
        assert_eq!(r.gauge("absent"), None);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut r = Registry::new();
        for v in [0.5, 1.5, 1.5, 40.0] {
            r.observe_with_bounds("lat", v, &[1.0, 10.0]);
        }
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(40.0));
        let cum: Vec<_> = h.cumulative().collect();
        assert_eq!(cum, vec![(1.0, 1), (10.0, 3)]);
    }

    #[test]
    fn json_export_shape() {
        let mut r = Registry::new();
        r.incr("mbA.packets", 7);
        r.set_gauge("open_ops", 2.0);
        r.observe_with_bounds("lat_ms", 3.0, &[1.0, 10.0]);
        let j = r.to_json();
        assert!(j.contains("\"counters\":{\"mbA.packets\":7}"), "{j}");
        assert!(j.contains("\"gauges\":{\"open_ops\":2}"), "{j}");
        assert!(j.contains("\"histograms\":{\"lat_ms\":{\"count\":1"), "{j}");
        assert!(j.contains("{\"le\":\"+Inf\",\"count\":1}"), "{j}");
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn prometheus_export_shape() {
        let mut r = Registry::new();
        r.incr("mbA.packets", 7);
        r.observe_with_bounds("lat ms", 3.0, &[1.0, 10.0]);
        let p = r.to_prometheus_text();
        assert!(p.contains("# TYPE mbA_packets counter\nmbA_packets 7\n"), "{p}");
        assert!(p.contains("# TYPE lat_ms histogram"), "{p}");
        assert!(p.contains("lat_ms_bucket{le=\"10\"} 1"), "{p}");
        assert!(p.contains("lat_ms_bucket{le=\"+Inf\"} 1"), "{p}");
        assert!(p.contains("lat_ms_count 1"), "{p}");
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn absorb_counters_adds() {
        let mut a = Registry::new();
        a.incr("x", 1);
        let mut b = Registry::new();
        b.incr("x", 2);
        b.incr("y", 5);
        a.absorb_counters(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
    }
}
