//! Exposition-format coverage: a golden-file check of the registry
//! encoder (byte-for-byte, so accidental format drift fails loudly) and
//! a lint pass asserting every emitted line is spec-valid.

use pgrid_core::histogram::LogHistogram;
use pgrid_obs::registry::{valid_label_name, valid_metric_name, MetricsRegistry};
use std::collections::HashSet;

fn golden_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.counter(
        "pgrid_frames_sent_total",
        "Frames handed to the transport for delivery.",
        &[],
        1234,
    );
    reg.counter(
        "pgrid_peer_frames_sent_total",
        "Frames sent to this peer.",
        &[("peer", "3")],
        40,
    );
    reg.counter(
        "pgrid_peer_frames_sent_total",
        "Frames sent to this peer.",
        &[("peer", "11")],
        7,
    );
    reg.gauge(
        "pgrid_balance_deviation",
        "Relative deviation of the storage balance (paper Fig. 6).",
        &[],
        0.636,
    );
    reg.gauge(
        "pgrid_phase",
        "Current phase with an escaped label: quote=\" backslash=\\ done.",
        &[("name", "con\"struct\\t\nion")],
        3.0,
    );
    let mut latency = LogHistogram::new();
    for v in [1u64, 1, 3, 9, 130, 130, 2000] {
        latency.record(v);
    }
    reg.histogram(
        "pgrid_query_latency_ms",
        "Per-query latency in virtual milliseconds.",
        &[("index", "0")],
        &latency,
    );
    reg
}

/// The output the encoder must keep producing; regenerate deliberately
/// (never blindly) with `cargo test -p pgrid-obs --test exposition -- --nocapture`
/// after a reviewed format change.
const GOLDEN: &str = include_str!("golden_metrics.txt");

#[test]
fn encoder_matches_the_golden_file() {
    let encoded = golden_registry().encode();
    if encoded != GOLDEN {
        println!("--- encoder output ---\n{encoded}--- end ---");
    }
    assert_eq!(
        encoded, GOLDEN,
        "registry encoder drifted from tests/golden_metrics.txt"
    );
}

/// Splits a series line into (metric name, label pairs, value), failing
/// the test on any syntax the exposition format does not allow.
fn parse_series_line(line: &str) -> (String, Vec<(String, String)>, String) {
    let (series, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("series line without value: {line:?}"));
    let (name, labels) = match series.split_once('{') {
        None => (series.to_string(), Vec::new()),
        Some((name, rest)) => {
            let inner = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label set: {line:?}"));
            let mut labels = Vec::new();
            let mut remaining = inner;
            while !remaining.is_empty() {
                let (key, rest) = remaining
                    .split_once("=\"")
                    .unwrap_or_else(|| panic!("malformed label in {line:?}"));
                // Find the closing quote, honouring backslash escapes.
                let mut end = None;
                let bytes = rest.as_bytes();
                let mut at = 0;
                while at < bytes.len() {
                    match bytes[at] {
                        b'\\' => at += 2,
                        b'"' => {
                            end = Some(at);
                            break;
                        }
                        _ => at += 1,
                    }
                }
                let end = end.unwrap_or_else(|| panic!("unterminated label value in {line:?}"));
                labels.push((key.to_string(), rest[..end].to_string()));
                remaining = rest[end + 1..].trim_start_matches(',');
            }
            (name.to_string(), labels)
        }
    };
    (name, labels, value.to_string())
}

/// Lints one exposition body: names and labels valid, `# TYPE` declared
/// once before any series of its family, no duplicate series, label
/// values escaped (no raw quote/newline can appear inside a value by
/// construction of the parser above), values numeric.
pub fn lint_exposition(text: &str) {
    let mut typed: HashSet<String> = HashSet::new();
    let mut helped: HashSet<String> = HashSet::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("# TYPE without name");
            let kind = parts.next().expect("# TYPE without kind");
            assert!(valid_metric_name(name), "invalid family name {name:?}");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE {kind:?}"
            );
            assert!(typed.insert(name.to_string()), "duplicate # TYPE {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("# HELP without name");
            assert!(helped.insert(name.to_string()), "duplicate # HELP {name}");
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let (name, labels, value) = parse_series_line(line);
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        let family = typed.iter().any(|t| {
            name == *t
                || (name
                    .strip_prefix(t.as_str())
                    .is_some_and(|suffix| ["_bucket", "_sum", "_count"].contains(&suffix)))
        });
        assert!(family, "series {name} has no preceding # TYPE");
        let mut label_names = HashSet::new();
        for (key, _) in &labels {
            assert!(
                valid_label_name(key) || key == "le",
                "invalid label {key:?}"
            );
            assert!(
                label_names.insert(key.clone()),
                "duplicate label {key:?} on {name}"
            );
        }
        assert!(
            seen_series.insert(line[..line.rfind(' ').unwrap()].to_string()),
            "duplicate series {line:?}"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "non-numeric value {value:?} on {name}"
        );
    }
}

#[test]
fn golden_output_passes_the_lint() {
    lint_exposition(&golden_registry().encode());
}

#[test]
fn merged_multi_worker_output_passes_the_lint() {
    let worker = golden_registry();
    let mut merged = MetricsRegistry::new();
    for shard in 0..3 {
        merged
            .absorb(&worker, Some(("worker", &shard.to_string())))
            .unwrap();
    }
    let text = merged.encode();
    lint_exposition(&text);
    assert!(text.contains("worker=\"2\""));
}

#[test]
fn lint_catches_duplicate_series() {
    let result = std::panic::catch_unwind(|| {
        lint_exposition("# TYPE pgrid_x gauge\npgrid_x 1\npgrid_x 2\n");
    });
    assert!(result.is_err(), "duplicate series must fail the lint");
}

/// The bytes [`MetricsRegistry::encode_wire`] must keep producing for the
/// golden registry: a refactor of the snapshot codec leaves them as they
/// are, and a snapshot a parent build wrote still decodes.
const GOLDEN_WIRE: &[u8] = b"\
      \x05\x00\x00\x00\x17\x00\x00\x00pgrid_balance_deviation9\x00\x00\x00\
      Relative deviation of the storage balance (paper Fig. 6).\x01\x01\
      \x00\x00\x00\x00\'1\x08\xac\x1cZ\xe4?\x17\x00\x00\x00pgrid_frames_se\
      nt_total,\x00\x00\x00Frames handed to the transport for delivery.\
      \x00\x01\x00\x00\x00\x00\xd2\x04\x00\x00\x00\x00\x00\x00\x1c\x00\x00\
      \x00pgrid_peer_frames_sent_total\x19\x00\x00\x00Frames sent to this \
      peer.\x00\x02\x00\x00\x00\x01\x04\x00\x00\x00peer\x02\x00\x00\x0011\
      \x07\x00\x00\x00\x00\x00\x00\x00\x01\x04\x00\x00\x00peer\x01\x00\x00\
      \x003(\x00\x00\x00\x00\x00\x00\x00\x0b\x00\x00\x00pgrid_phase>\x00\
      \x00\x00Current phase with an escaped label: quote=\" backslash=\\ d\
      one.\x01\x01\x00\x00\x00\x01\x04\x00\x00\x00name\x10\x00\x00\x00con\
      \"struct\\t\nion\x00\x00\x00\x00\x00\x00\x08@\x16\x00\x00\x00pgrid_q\
      uery_latency_ms*\x00\x00\x00Per-query latency in virtual millisecond\
      s.\x02\x01\x00\x00\x00\x01\x05\x00\x00\x00index\x01\x00\x00\x000\x05\
      \x00\x00\x00\x01\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x01\x00\
      \x00\x00\x00\x00\x00\x00\t\x00\x01\x00\x00\x00\x00\x00\x00\x00(\x00\
      \x02\x00\x00\x00\x00\x00\x00\x00G\x00\x01\x00\x00\x00\x00\x00\x00\
      \x00\xe2\x08\x00\x00\x00\x00\x00\x00\xd0\x07\x00\x00\x00\x00\x00\x00";

#[test]
fn wire_snapshot_bytes_are_pinned() {
    let registry = golden_registry();
    assert_eq!(
        registry.encode_wire().escape_ascii().to_string(),
        GOLDEN_WIRE.escape_ascii().to_string(),
        "registry snapshot bytes changed"
    );
    assert_eq!(MetricsRegistry::decode_wire(GOLDEN_WIRE), Ok(registry));
}
