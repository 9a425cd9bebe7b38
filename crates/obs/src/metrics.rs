//! A passive metrics registry: named counters, gauges, and log₂-bucket
//! histograms.
//!
//! The registry is a plain data structure, not a global — producers own
//! their counters (e.g. `AnalysisStats` in rid-core) and *snapshot* them
//! into a [`Registry`] when asked. That keeps the analysis hot path free
//! of metric plumbing while giving every consumer (the `--metrics` CLI
//! flag, the `profile` bench bin, CI) one named, stable vocabulary.
//!
//! Naming convention: dot-separated lowercase paths, most significant
//! first — `sat.queries`, `cache.hits`, `degrade.deadline`,
//! `phase.exec.self_ns`.

use std::collections::BTreeMap;

use crate::trace::json_escape;

/// A log₂-bucket histogram of `u64` samples.
///
/// Bucket `i` counts samples `v` with `bit_len(v) == i`, i.e. bucket 0
/// is exactly `0`, bucket 1 is `1`, bucket 2 is `2..=3`, bucket 3 is
/// `4..=7`, and so on — 65 buckets cover the full `u64` range.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    buckets: Vec<u64>,
}

fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lower bound of bucket `i` (inclusive).
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let i = bucket_index(v);
        if self.buckets.len() <= i {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile: the lower bound of the bucket holding the
    /// q-th sample (`q` in `[0, 1]`). Coarse by design — log₂ buckets
    /// trade precision for constant memory.
    ///
    /// Error bound: the true q-th sample lies in `[lo, 2·lo)` for the
    /// returned lower bound `lo`, so the report understates by at most
    /// one power of two (a factor-of-2 relative error, never an
    /// overestimate). `count`, `sum`, `min`, `max`, and therefore
    /// `mean` are exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_lo(i);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn sparse_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lo(i), n))
            .collect()
    }

    /// Rebuild a histogram from a `sparse_buckets()`-shaped snapshot.
    /// The inverse of [`Histogram::sparse_buckets`] up to the per-sample
    /// detail the buckets never held; `count`/`sum`/`min`/`max` are taken
    /// verbatim so means stay exact. This is how producers that carry
    /// histogram snapshots across serialization boundaries (e.g. per-worker
    /// scheduler profiles in rid-core's `AnalysisStats`) re-enter the
    /// registry.
    pub fn from_parts(count: u64, sum: u64, min: u64, max: u64, buckets: &[(u64, u64)]) -> Histogram {
        let mut h = Histogram { count, sum, min, max, buckets: Vec::new() };
        for &(lo, n) in buckets {
            let i = bucket_index(lo);
            if h.buckets.len() <= i {
                h.buckets.resize(i + 1, 0);
            }
            h.buckets[i] += n;
        }
        h
    }

    /// Fold another histogram into this one (bucket-wise sum; min/max/sum
    /// combine exactly).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
    }
}

/// Named counters, gauges, and histograms.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add to (creating if absent) a named counter.
    pub fn count(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Set a named gauge to a point-in-time value.
    pub fn gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Record a sample into a named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_owned()).or_default().record(value);
    }

    /// Fold a whole pre-built histogram into a named histogram (merging
    /// with whatever is already there).
    pub fn insert_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms.entry(name.to_owned()).or_default().merge(h);
    }

    /// Read a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a gauge if set.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Read a histogram if any samples were recorded under the name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Fold another registry into this one: counters add, gauges combine
    /// by max (point-in-time values observed by concurrent processes are
    /// not summable), histograms merge bucket-exactly. The operation is
    /// associative and commutative, so K shard registries reduce to the
    /// same result in any order.
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            self.count(k, v);
        }
        for (k, &v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(v);
            *slot = (*slot).max(v);
        }
        for (k, h) in &other.histograms {
            self.insert_histogram(k, h);
        }
    }

    /// Render the whole registry as a deterministic JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
    /// min,max,mean,p50,p90,p99,p999,buckets:[[lo,n],...]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
                json_escape(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
            ));
            for (j, (lo, n)) in h.sparse_buckets().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", lo, n));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Render a plain-text summary table (for terminals / bench output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(6);
        for (k, v) in &self.counters {
            out.push_str(&format!("{:width$}  {:>12}\n", k, v, width = width));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{:width$}  {:>12}\n", k, v, width = width));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{:width$}  count={} mean={} p50={} p90={} p99={} p999={} max={}\n",
                k,
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max,
                width = width
            ));
        }
        out
    }

    /// Render the registry in the Prometheus text exposition format
    /// (version 0.0.4). Metric names are prefixed with `rid_` and every
    /// character outside `[a-zA-Z0-9_]` becomes `_`. Counters and gauges
    /// emit one sample each; histograms emit a Prometheus *summary* —
    /// `{quantile="0.5"|"0.9"|"0.99"|"0.999"}` samples derived from the
    /// log₂ buckets (see [`Histogram::quantile`] for the error bound)
    /// plus exact `_sum` and `_count` samples.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = prometheus_name(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = prometheus_name(k);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let name = prometheus_name(k);
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, label) in
                [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99"), (0.999, "0.999")]
            {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }
}

/// `rid_`-prefixed Prometheus-legal metric name: anything outside
/// `[a-zA-Z0-9_]` collapses to `_`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("rid_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 3, 4, 7, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        assert_eq!(h.sum, 116);
        // Buckets: 0→1, [1]→2, [2,3]→1, [4,7]→2, [64,127]→1.
        assert_eq!(h.sparse_buckets(), vec![(0, 1), (1, 2), (2, 1), (4, 2), (64, 1)]);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(1.0), 64);
    }

    #[test]
    fn registry_json_is_deterministic() {
        let mut r = Registry::new();
        r.count("sat.queries", 10);
        r.count("sat.queries", 5);
        r.count("cache.hits", 2);
        r.gauge("sched.workers", 4);
        r.observe("phase.exec.self_ns", 1000);
        r.observe("phase.exec.self_ns", 3000);
        let json = r.to_json();
        assert!(json.starts_with("{\"counters\":{\"cache.hits\":2,\"sat.queries\":15}"));
        assert!(json.contains("\"gauges\":{\"sched.workers\":4}"));
        assert!(json.contains("\"phase.exec.self_ns\":{\"count\":2"));
        assert_eq!(r.counter("sat.queries"), 15);
        assert_eq!(r.gauge_value("sched.workers"), Some(4));
        let table = r.render_table();
        assert!(table.contains("sat.queries"));
        assert!(table.contains("count=2"));
    }

    #[test]
    fn from_parts_round_trips_sparse_buckets() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 3, 4, 7, 100] {
            h.record(v);
        }
        let rebuilt =
            Histogram::from_parts(h.count, h.sum, h.min, h.max, &h.sparse_buckets());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [2u64, 9, 0, 31] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 5, 1024] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging into an empty histogram copies; merging empty is a no-op.
        let mut empty = Histogram::default();
        empty.merge(&all);
        assert_eq!(empty, all);
        all.merge(&Histogram::default());
        assert_eq!(empty, all);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.sparse_buckets().is_empty());
    }

    #[test]
    fn json_and_table_carry_tail_quantiles() {
        let mut r = Registry::new();
        for v in 0..1000u64 {
            r.observe("serve.op.analyze.us", v);
        }
        let json = r.to_json();
        assert!(json.contains("\"p99\":"));
        assert!(json.contains("\"p999\":512"), "{json}");
        assert!(r.render_table().contains("p999=512"));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut r = Registry::new();
        r.count("serve.requests", 3);
        r.gauge("serve.queue.depth", -1);
        r.observe("serve.op.patch.us", 100);
        r.observe("serve.op.patch.us", 900);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE rid_serve_requests counter\nrid_serve_requests 3\n"));
        assert!(text.contains("# TYPE rid_serve_queue_depth gauge\nrid_serve_queue_depth -1\n"));
        assert!(text.contains("# TYPE rid_serve_op_patch_us summary\n"));
        assert!(text.contains("rid_serve_op_patch_us{quantile=\"0.5\"} 64\n"));
        assert!(text.contains("rid_serve_op_patch_us{quantile=\"0.999\"} 512\n"));
        assert!(text.contains("rid_serve_op_patch_us_sum 1000\n"));
        assert!(text.contains("rid_serve_op_patch_us_count 2\n"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE rid_")
                    || line
                        .split_once(' ')
                        .is_some_and(|(n, v)| n.starts_with("rid_") && v.parse::<i64>().is_ok()),
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn registry_merge_is_associative_and_commutative() {
        let part = |seed: u64| {
            let mut r = Registry::new();
            r.count("serve.requests", seed + 1);
            r.gauge("serve.queue.depth", seed as i64);
            for i in 0..seed + 3 {
                r.observe("serve.op.analyze.us", seed * 100 + i * 7);
            }
            r
        };
        let (a, b, c) = (part(1), part(2), part(3));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut a_bc = b.clone();
        a_bc.merge(&c);
        let mut left = a.clone();
        left.merge(&a_bc);
        assert_eq!(ab_c.to_json(), left.to_json(), "merge must be associative");

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.to_json(), ba.to_json(), "merge must be commutative");

        // Histogram folding is sum-exact: count/sum equal recording
        // every sample into one registry.
        let h = ab_c.histogram("serve.op.analyze.us").unwrap();
        assert_eq!(h.count, 4 + 5 + 6);
        assert_eq!(ab_c.counter("serve.requests"), 2 + 3 + 4);
    }

    /// Property test over K randomly generated shard registries: any
    /// merge order reduces to the same registry, and every histogram's
    /// count/sum/min/max exactly equal recording all samples into one
    /// registry directly.
    #[test]
    fn merging_k_shard_registries_is_order_free_and_sum_exact() {
        // Deterministic xorshift so failures reproduce.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let names = ["serve.op.patch.us", "serve.op.analyze.us", "serve.queue.depth"];
        for trial in 0..20 {
            let k = 2 + (next() % 7) as usize;
            let mut parts: Vec<Registry> = Vec::new();
            let mut reference = Registry::new();
            for _ in 0..k {
                let mut part = Registry::new();
                for _ in 0..(next() % 40) {
                    let name = names[(next() % names.len() as u64) as usize];
                    let sample = next() % 1_000_000;
                    part.observe(name, sample);
                    reference.observe(name, sample);
                }
                let bump = next() % 100;
                part.count("serve.accepted", bump);
                reference.count("serve.accepted", bump);
                parts.push(part);
            }

            // Forward fold, reverse fold, and a pairwise tree fold must
            // all equal the single-registry reference.
            let fold = |order: &[usize]| {
                let mut acc = Registry::new();
                for &i in order {
                    acc.merge(&parts[i]);
                }
                acc
            };
            let forward: Vec<usize> = (0..k).collect();
            let reverse: Vec<usize> = (0..k).rev().collect();
            let folded = fold(&forward);
            assert_eq!(folded.to_json(), fold(&reverse).to_json(), "trial {trial}");
            assert_eq!(folded.to_json(), reference.to_json(), "trial {trial}");
            for name in names {
                let (merged, reference) = (folded.histogram(name), reference.histogram(name));
                assert_eq!(merged, reference, "trial {trial}: {name} not sum-exact");
            }
        }
    }
}
