//! Query-data-plane storm: sustained lookups plus range queries against a
//! constructed overlay, with the latency histogram and Prometheus counters
//! printed at the end.
//!
//! ```text
//! cargo run -p pgrid --example query_storm
//! cargo run -p pgrid --example query_storm -- smoke   # small & fast, as `cargo test` runs it
//! ```
//!
//! Builds the overlay on the emulated wide-area network, then keeps the
//! data plane busy through two load phases — a range window (trie-walk
//! fan-out over key intervals) followed by the ordinary lookup load — and
//! reports what production monitoring would see: percentiles from the
//! log-scale latency histogram and the text-exposition counters.  In smoke
//! mode the example doubles as an end-to-end check and exits non-zero if
//! the storm degrades the data plane.

use pgrid::prelude::*;

#[cfg_attr(test, allow(dead_code))]
fn main() {
    run(std::env::args().any(|a| a == "smoke" || a == "--smoke"));
}

/// Runs the example; `smoke` picks the small, fast size its test runs.
fn run(smoke: bool) {
    let (n_peers, construct_min, range_min, query_min) = if smoke {
        (32, 18, 21, 25)
    } else {
        (96, 25, 30, 40)
    };
    let config = NetConfig {
        n_peers,
        keys_per_peer: 10,
        n_min: 5,
        latency_min_ms: 20,
        latency_max_ms: 250,
        loss_probability: 0.01,
        seed: 21,
        ..NetConfig::default()
    };

    let scenario = Scenario::builder(config.seed)
        .join_wave(3, 6)
        .replicate(IndexId::PRIMARY, 5)
        .start_construction(IndexId::PRIMARY)
        .run_until(construct_min)
        .snapshot("constructed")
        .range_load(IndexId::PRIMARY, range_min, 0, RANGE_LOAD_WIDTH)
        .query_load(IndexId::PRIMARY, query_min)
        .drain()
        .build();

    println!(
        "query storm: {} peers, construct<{} range<{} lookups<{} (minutes)",
        n_peers, construct_min, range_min, query_min
    );

    let mut overlay = Runtime::new(config);
    let report = pgrid::scenario::run(&mut overlay, &scenario);
    let constructed = report.snapshots[0]
        .index(IndexId::PRIMARY)
        .expect("primary index");
    println!(
        "constructed @ minute {}: mean depth {:.2}, deviation {:.3}",
        report.snapshots[0].at_min, constructed.mean_path_length, constructed.balance_deviation
    );

    let stats = overlay.metrics.stats(IndexId::PRIMARY);
    println!("\nlookup plane:");
    println!(
        "  issued {}, answered {}, succeeded {}, timed out {}, late {}",
        stats.issued, stats.answered, stats.succeeded, stats.timed_out, stats.late_responses
    );
    println!(
        "  latency p50 {:?} p90 {:?} p99 {:?} p999 {:?} ms, mean hops {:.2}",
        stats.latency.quantile(0.50),
        stats.latency.quantile(0.90),
        stats.latency.quantile(0.99),
        stats.latency.quantile(0.999),
        stats.mean_hops_successful()
    );
    println!("\nrange plane:");
    println!(
        "  issued {}, complete {}, latency p50 {:?} p99 {:?} ms",
        stats.ranges_issued,
        stats.ranges_complete,
        stats.range_latency.quantile(0.50),
        stats.range_latency.quantile(0.99)
    );

    // The Prometheus counters a scrape would see (histogram bucket lines
    // summarised — the full exposition repeats one line per bucket).
    let text = overlay.metrics.metrics_text();
    let buckets = text
        .lines()
        .filter(|l| l.starts_with("pgrid_net_query_latency_ms_bucket"))
        .count();
    println!("\nmetrics exposition ({buckets} histogram bucket lines elided):");
    for line in text
        .lines()
        .filter(|l| !l.starts_with("pgrid_net_query_latency_ms_bucket"))
    {
        println!("  {line}");
    }

    if smoke {
        assert!(
            stats.success_rate() > 0.8,
            "storm degraded the lookup plane: success rate {:.2}",
            stats.success_rate()
        );
        assert!(stats.ranges_issued > 0, "range window issued nothing");
        assert_eq!(
            stats.ranges_complete, stats.ranges_issued,
            "{}/{} ranges complete",
            stats.ranges_complete, stats.ranges_issued
        );
        assert!(
            stats.latency.quantile(0.5).is_some(),
            "no latency samples recorded"
        );
        println!("\nsmoke checks passed");
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        super::run(true);
    }
}
