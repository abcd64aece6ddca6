//! The unified metrics registry: counters, gauges and log-histogram
//! metrics with label sets, one validated Prometheus text encoder, and a
//! compact wire codec for streaming snapshots across the cluster control
//! plane.
//!
//! The registry replaces the four hand-rolled `metrics_text` renderers
//! that grew independently in `pgrid-transport`, `pgrid-net` and
//! `pgrid-cluster`.  Producers populate a registry from their own state
//! (snapshot style — cheap, no atomics on the hot paths) and call
//! [`MetricsRegistry::encode`]; consumers that aggregate several
//! processes call [`MetricsRegistry::absorb`] with an extra
//! distinguishing label (e.g. `worker="1"`).
//!
//! Metric and label names are validated **at registration** against the
//! Prometheus data-model grammar, so an invalid name is a panic at the
//! call site that introduced it rather than a silently unscrapeable
//! series; help text and label values are escaped at encode time.

use pgrid_core::histogram::LogHistogram;
use pgrid_core::wire::{Le, Order, UNCAPPED};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What kind of metric a family holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing `u64` (name should end in `_total`).
    Counter,
    /// An instantaneous `f64` measurement.
    Gauge,
    /// A `LogHistogram` of `u64` observations.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

/// One metric family: a help string, a kind, and the labelled series.
#[derive(Clone, Debug, PartialEq)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the sorted label pairs; the empty key is the bare series.
    series: BTreeMap<Vec<(String, String)>, Value>,
}

/// A set of metric families, encodable as Prometheus exposition text.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

/// `true` when `name` matches the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` when `name` matches the label-name grammar
/// `[a-zA-Z_][a-zA-Z0-9_]*` and is not a reserved `__` name.
pub fn valid_label_name(name: &str) -> bool {
    if name.starts_with("__") {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes a label value (`\`, `"` and newline, per the exposition spec).
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a help string (`\` and newline, per the exposition spec).
fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut key: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    key.sort();
    key
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Family {
        assert!(
            valid_metric_name(name),
            "invalid Prometheus metric name: {name:?}"
        );
        let entry = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                series: BTreeMap::new(),
            });
        assert!(
            entry.kind == kind,
            "metric {name} registered as {} and again as {}",
            entry.kind.as_str(),
            kind.as_str()
        );
        entry
    }

    fn checked_key(name: &str, labels: &[(&str, &str)]) -> Vec<(String, String)> {
        for (label, _) in labels {
            assert!(
                valid_label_name(label),
                "invalid Prometheus label name {label:?} on metric {name}"
            );
            assert!(
                *label != "le",
                "label \"le\" on metric {name} is reserved for histogram buckets"
            );
        }
        let key = label_key(labels);
        assert!(
            key.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate label name on metric {name}"
        );
        key
    }

    /// Sets a counter series to an absolute value (snapshot style).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let key = Self::checked_key(name, labels);
        self.family(name, help, MetricKind::Counter)
            .series
            .insert(key, Value::Counter(value));
    }

    /// Adds to a counter series (creating it at zero first).
    pub fn add_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], delta: u64) {
        let key = Self::checked_key(name, labels);
        let slot = self
            .family(name, help, MetricKind::Counter)
            .series
            .entry(key)
            .or_insert(Value::Counter(0));
        if let Value::Counter(v) = slot {
            *v += delta;
        }
    }

    /// Sets a gauge series.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let key = Self::checked_key(name, labels);
        self.family(name, help, MetricKind::Gauge)
            .series
            .insert(key, Value::Gauge(value));
    }

    /// Merges a histogram snapshot into a histogram series (bucketwise
    /// addition when the series already exists).
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        histogram: &LogHistogram,
    ) {
        let key = Self::checked_key(name, labels);
        let slot = self
            .family(name, help, MetricKind::Histogram)
            .series
            .entry(key)
            .or_insert_with(|| Value::Histogram(LogHistogram::new()));
        if let Value::Histogram(h) = slot {
            h.merge(histogram);
        }
    }

    /// Number of registered families.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Total number of series across all families.
    pub fn series_count(&self) -> usize {
        self.families.values().map(|f| f.series.len()).sum()
    }

    /// Folds every series of `other` into this registry, optionally
    /// tagging each incoming series with one extra label — the cluster
    /// coordinator absorbs each worker's snapshot under
    /// `worker="<shard>"`, so merged series stay distinguishable and no
    /// cross-process summing semantics are needed.  Series that collide
    /// exactly (same name, same final label set) are summed for counters
    /// and histograms and overwritten for gauges; sums saturate, since a
    /// snapshot may arrive decoded from the wire.
    ///
    /// A family of `other` whose kind differs from the same-named family
    /// here is an `Err`, and then nothing of `other` is merged.
    pub fn absorb(
        &mut self,
        other: &MetricsRegistry,
        extra: Option<(&str, &str)>,
    ) -> Result<(), String> {
        for (name, family) in &other.families {
            let clash = self.families.get(name).filter(|f| f.kind != family.kind);
            if let Some(mine) = clash {
                return Err(format!(
                    "metric {name} is a {} here and a {} in the absorbed snapshot",
                    mine.kind.as_str(),
                    family.kind.as_str()
                ));
            }
        }
        for (name, family) in &other.families {
            let mine = self.family(name, &family.help, family.kind);
            for (labels, value) in &family.series {
                let mut key = labels.clone();
                if let Some((k, v)) = extra {
                    key.push((k.to_string(), v.to_string()));
                    key.sort();
                }
                match (
                    mine.series.entry(key).or_insert_with(|| match value {
                        Value::Counter(_) => Value::Counter(0),
                        Value::Gauge(_) => Value::Gauge(0.0),
                        Value::Histogram(_) => Value::Histogram(LogHistogram::new()),
                    }),
                    value,
                ) {
                    (Value::Counter(mine), Value::Counter(theirs)) => {
                        *mine = mine.saturating_add(*theirs)
                    }
                    (Value::Gauge(mine), Value::Gauge(theirs)) => *mine = *theirs,
                    (Value::Histogram(mine), Value::Histogram(theirs)) => mine.merge(theirs),
                    _ => unreachable!("family kind already checked"),
                }
            }
        }
        Ok(())
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// families in name order, one `# HELP`/`# TYPE` pair per family,
    /// series in label order, histograms as cumulative `_bucket{le=...}`
    /// plus `_sum`/`_count`.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, value) in &family.series {
                match value {
                    Value::Counter(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    Value::Gauge(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    Value::Histogram(h) => {
                        for (upper, cumulative) in h.cumulative_buckets() {
                            let le = upper.to_string();
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(labels, Some(("le", &le)))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            render_labels(labels, Some(("le", "+Inf"))),
                            h.total()
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum());
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            h.total()
                        );
                    }
                }
            }
        }
        out
    }

    /// Serialises the registry for the cluster control plane (workers
    /// stream snapshots to the coordinator at each phase barrier).
    pub fn encode_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        Le::put_count(&mut buf, self.families.len());
        for (name, family) in &self.families {
            Le::put_str(&mut buf, name);
            Le::put_str(&mut buf, &family.help);
            Le::put_u8(
                &mut buf,
                match family.kind {
                    MetricKind::Counter => 0,
                    MetricKind::Gauge => 1,
                    MetricKind::Histogram => 2,
                },
            );
            Le::put_count(&mut buf, family.series.len());
            for (labels, value) in &family.series {
                Le::put_u8(&mut buf, labels.len() as u8);
                for (k, v) in labels {
                    Le::put_str(&mut buf, k);
                    Le::put_str(&mut buf, v);
                }
                match value {
                    Value::Counter(v) => Le::put_u64(&mut buf, *v),
                    Value::Gauge(v) => Le::put_f64(&mut buf, *v),
                    Value::Histogram(h) => Le::put_histogram(&mut buf, h),
                }
            }
        }
        buf
    }

    /// Decodes a registry produced by [`MetricsRegistry::encode_wire`].
    /// Total on arbitrary bytes: every claimed count is checked against
    /// the bytes behind it before anything is reserved for it.
    pub fn decode_wire(buf: &[u8]) -> Result<Self, String> {
        let mut data = buf;
        let registry = Self::decode_from(&mut data).ok_or_else(|| {
            let len = buf.len();
            format!("registry snapshot of {len} bytes is truncated or carries an invalid kind, name or label")
        })?;
        if !data.is_empty() {
            return Err(format!("{} trailing bytes after registry", data.len()));
        }
        Ok(registry)
    }

    fn decode_from(data: &mut &[u8]) -> Option<Self> {
        let mut reg = MetricsRegistry::new();
        // The shortest family: two empty strings, a kind and a series count.
        for _ in 0..Le::count(data, UNCAPPED, 4 + 4 + 1 + 4)? {
            let name = Le::string(data, UNCAPPED)?;
            let help = Le::string(data, UNCAPPED)?;
            let kind = match Le::u8(data)? {
                0 => MetricKind::Counter,
                1 => MetricKind::Gauge,
                2 => MetricKind::Histogram,
                _ => return None,
            };
            if !valid_metric_name(&name) {
                return None;
            }
            let family = reg.families.entry(name).or_insert_with(|| Family {
                help,
                kind,
                series: BTreeMap::new(),
            });
            // A family that appears twice must not change its kind: every
            // value of a family is of the family's kind.
            if family.kind != kind {
                return None;
            }
            // The shortest series: a label count and a counter or gauge.
            for _ in 0..Le::count(data, UNCAPPED, 1 + 8)? {
                let mut labels = Vec::new();
                for _ in 0..Le::u8(data)? {
                    let k = Le::string(data, UNCAPPED)?;
                    if !valid_label_name(&k) {
                        return None;
                    }
                    labels.push((k, Le::string(data, UNCAPPED)?));
                }
                labels.sort();
                let value = match kind {
                    MetricKind::Counter => Value::Counter(Le::u64(data)?),
                    MetricKind::Gauge => Value::Gauge(Le::f64(data)?),
                    MetricKind::Histogram => Value::Histogram(Le::histogram(data)?),
                };
                family.series.insert(labels, value);
            }
        }
        Some(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation_matches_the_grammar() {
        for good in ["a", "pgrid_net_queries_total", "a:b", "_x9"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "9x", "a-b", "a b", "a\"b"] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_label_name("peer"));
        assert!(!valid_label_name("__reserved"));
        assert!(!valid_label_name("le-gacy"));
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn invalid_metric_name_panics_at_registration() {
        MetricsRegistry::new().counter("bad-name", "x", &[], 1);
    }

    #[test]
    #[should_panic(expected = "registered as counter and again as gauge")]
    fn kind_conflicts_panic() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pgrid_x_total", "x", &[], 1);
        reg.gauge("pgrid_x_total", "x", &[], 1.0);
    }

    #[test]
    fn encode_emits_one_header_per_family_and_sorted_series() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pgrid_b_total", "b help", &[("peer", "2")], 7);
        reg.counter("pgrid_b_total", "b help", &[("peer", "1")], 5);
        reg.gauge("pgrid_a", "a help \"quoted\"\nsecond", &[], 1.5);
        let text = reg.encode();
        let a_at = text.find("# HELP pgrid_a").unwrap();
        let b_at = text.find("# HELP pgrid_b_total").unwrap();
        assert!(a_at < b_at, "families must render in name order");
        assert!(text.contains("# HELP pgrid_a a help \"quoted\"\\nsecond"));
        assert!(text.contains("pgrid_a 1.5"));
        let one = text.find("pgrid_b_total{peer=\"1\"} 5").unwrap();
        let two = text.find("pgrid_b_total{peer=\"2\"} 7").unwrap();
        assert!(one < two, "series must render in label order");
        assert_eq!(text.matches("# TYPE pgrid_b_total counter").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("pgrid_g", "g", &[("path", "a\"b\\c\nd")], 2.0);
        assert!(reg.encode().contains("path=\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn histogram_series_render_cumulative_buckets_with_labels() {
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(1);
        h.record(100);
        let mut reg = MetricsRegistry::new();
        reg.histogram("pgrid_latency_ms", "latency", &[("index", "0")], &h);
        let text = reg.encode();
        assert!(text.contains("# TYPE pgrid_latency_ms histogram"));
        assert!(text.contains("pgrid_latency_ms_bucket{index=\"0\",le=\"1\"} 2"));
        assert!(text.contains("pgrid_latency_ms_bucket{index=\"0\",le=\"+Inf\"} 3"));
        assert!(text.contains("pgrid_latency_ms_sum{index=\"0\"} 102"));
        assert!(text.contains("pgrid_latency_ms_count{index=\"0\"} 3"));
    }

    #[test]
    fn absorb_tags_incoming_series_and_merges_histograms() {
        let mut worker = MetricsRegistry::new();
        worker.counter("pgrid_frames_total", "frames", &[], 10);
        let mut h = LogHistogram::new();
        h.record(4);
        worker.histogram("pgrid_latency_ms", "latency", &[], &h);

        let mut merged = MetricsRegistry::new();
        merged.absorb(&worker, Some(("worker", "0"))).unwrap();
        merged.absorb(&worker, Some(("worker", "1"))).unwrap();
        let text = merged.encode();
        assert!(text.contains("pgrid_frames_total{worker=\"0\"} 10"));
        assert!(text.contains("pgrid_frames_total{worker=\"1\"} 10"));
        assert!(text.contains("pgrid_latency_ms_count{worker=\"1\"} 1"));

        // Absorbing without a tag sums counters exactly.
        let mut sum = MetricsRegistry::new();
        sum.absorb(&worker, None).unwrap();
        sum.absorb(&worker, None).unwrap();
        assert!(sum.encode().contains("pgrid_frames_total 20"));
    }

    #[test]
    fn absorbed_counters_saturate() {
        let mut worker = MetricsRegistry::new();
        worker.counter("pgrid_frames_total", "frames", &[], u64::MAX);
        let mut merged = MetricsRegistry::new();
        merged.absorb(&worker, None).unwrap();
        merged.absorb(&worker, None).unwrap();
        assert_eq!(merged, worker);
    }

    #[test]
    fn a_snapshot_that_changes_a_familys_kind_is_refused_whole() {
        // What the coordinator holds before it absorbs any worker.
        let mut merged = MetricsRegistry::new();
        merged.gauge("pgrid_cluster_phase", "phase", &[], 3.0);
        // A snapshot `decode_wire` accepts, with that family as a counter.
        let mut worker = MetricsRegistry::new();
        worker.counter("pgrid_a_total", "a", &[], 1);
        worker.counter("pgrid_cluster_phase", "phase", &[], 9);
        let worker = MetricsRegistry::decode_wire(&worker.encode_wire()).unwrap();
        let before = merged.clone();
        let error = merged.absorb(&worker, Some(("worker", "0"))).unwrap_err();
        assert!(error.contains("pgrid_cluster_phase"), "{error}");
        assert_eq!(merged, before, "nothing of the refused snapshot is merged");
    }

    #[test]
    fn wire_round_trip_preserves_the_registry() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pgrid_c_total", "c", &[("peer", "3"), ("link", "tcp")], 42);
        reg.gauge("pgrid_g", "g", &[], -2.25);
        let mut h = LogHistogram::new();
        for v in [1u64, 9, 200, 4096] {
            h.record(v);
        }
        reg.histogram("pgrid_h_ms", "h", &[("index", "1")], &h);
        let rebuilt = MetricsRegistry::decode_wire(&reg.encode_wire()).unwrap();
        assert_eq!(rebuilt, reg);
        assert_eq!(rebuilt.encode(), reg.encode());
    }

    /// One histogram family, no labels, no buckets: 56 bytes on the wire.
    const EMPTY_HISTOGRAM_SNAPSHOT: &[u8; 56] = b"\x01\0\0\0\x10\0\0\0pgrid_latency_ms\
        \x02\0\0\0ms\x02\x01\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0";

    #[test]
    fn a_claimed_bucket_count_is_refused_not_reserved_for() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("pgrid_latency_ms", "ms", &[], &LogHistogram::new());
        assert_eq!(&reg.encode_wire()[..], EMPTY_HISTOGRAM_SNAPSHOT);
        assert_eq!(
            MetricsRegistry::decode_wire(EMPTY_HISTOGRAM_SNAPSHOT),
            Ok(reg)
        );
        // The bucket count patched to `u32::MAX`: four bytes that used to
        // ask the allocator for 64 GiB and abort the coordinator.
        let mut hostile = *EMPTY_HISTOGRAM_SNAPSHOT;
        hostile[36..40].copy_from_slice(&[0xFF; 4]);
        assert!(MetricsRegistry::decode_wire(&hostile).is_err());
        // ... and so for every other count of the format.
        for count_at in [0, 4, 24, 31] {
            let mut hostile = *EMPTY_HISTOGRAM_SNAPSHOT;
            hostile[count_at..count_at + 4].copy_from_slice(&[0xFF; 4]);
            assert!(
                MetricsRegistry::decode_wire(&hostile).is_err(),
                "{count_at}"
            );
        }
    }

    #[test]
    fn a_decoded_histogram_of_full_buckets_merges_without_overflow() {
        // Two buckets of `u64::MAX` behind an honest bucket count of 2.
        let mut wire = EMPTY_HISTOGRAM_SNAPSHOT[..36].to_vec();
        wire.extend([2, 0, 0, 0]);
        for bucket in [3u8, 9] {
            wire.extend([bucket, 0]);
            wire.extend([0xFF; 8]);
        }
        wire.extend([0xFF; 8]);
        wire.extend([9, 0, 0, 0, 0, 0, 0, 0]);
        let worker = MetricsRegistry::decode_wire(&wire).unwrap();
        let mut merged = MetricsRegistry::new();
        merged.absorb(&worker, None).unwrap();
        merged.absorb(&worker, None).unwrap();
        assert!(merged
            .encode()
            .contains("pgrid_latency_ms_count 18446744073709551615"));
    }

    #[test]
    fn a_family_that_changes_kind_mid_snapshot_is_refused() {
        let mut counter = MetricsRegistry::new();
        counter.counter("pgrid_x_total", "x", &[], 1);
        let mut gauge = MetricsRegistry::new();
        gauge.gauge("pgrid_x_total", "x", &[], 1.0);
        let mut wire = vec![2, 0, 0, 0];
        wire.extend(&counter.encode_wire()[4..]);
        wire.extend(&gauge.encode_wire()[4..]);
        assert!(MetricsRegistry::decode_wire(&wire).is_err());
    }

    #[test]
    fn wire_decode_rejects_truncation_and_trailing_bytes() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pgrid_c_total", "c", &[], 1);
        let wire = reg.encode_wire();
        assert!(MetricsRegistry::decode_wire(&wire[..wire.len() - 1]).is_err());
        let mut extra = wire.clone();
        extra.push(0);
        assert!(MetricsRegistry::decode_wire(&extra).is_err());
    }
}
