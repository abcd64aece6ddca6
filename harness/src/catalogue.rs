//! The benchmark's names as data: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should move.
//! `BENCHMARK.json` at the repo root lists the same names (a unit test
//! compares them); `--describe` prints this catalogue with the sizes and
//! host facts that file's schema has no room for.

use std::collections::BTreeMap;

/// One workload: its name, the reason it exists, and what one op is.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub op: &'static str,
    /// Closed-loop window: ops outstanding before the client waits.
    pub window: u32,
    /// The layer expected to dominate the timed window.
    pub dominant_layers: &'static [&'static str],
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "construct-uniform",
        why: "index construction from scratch on uniform keys: sim scheduling and core::exchange work, stores stay small",
        op: "one peer brought to quiescence",
        window: 1,
        dominant_layers: &["sim"],
    },
    WorkloadDef {
        name: "construct-skew",
        why: "construction under Normal(0.5,0.05) keys: store merges and large replica stores dominate, so a uniform-only gain or a memory cost shows",
        op: "one peer brought to quiescence",
        window: 1,
        dominant_layers: &["sim"],
    },
    WorkloadDef {
        name: "lookup",
        why: "read path of net::Runtime on loopback: routing decision, message and frame codec, event queue; no exchange, no journal",
        op: "one point lookup",
        window: 512,
        dominant_layers: &["net", "transport"],
    },
    WorkloadDef {
        name: "range",
        why: "same overlay walked by 1% range queries: trie walk, fan-out, origin-side merge; guards point-only routing gains",
        op: "one range query",
        window: 16,
        dominant_layers: &["net", "transport"],
    },
    WorkloadDef {
        name: "journal",
        why: "construction traffic mutating stores while every 2 s slice is journaled the way cluster::worker::persist does: durable does most of the work",
        op: "one journal cut",
        window: 1,
        dominant_layers: &["durable"],
    },
    WorkloadDef {
        name: "wire",
        why: "194-byte frames between two reactor transports over 127.0.0.1 (loopback interface): mux, write queue, epoll; net and core idle",
        op: "one frame",
        window: 256,
        dominant_layers: &["reactor"],
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric.  `bound` is the share of the parent's median by
/// which it may get worse; `None` marks a metric that can legitimately be
/// zero and is therefore printed and traced but not bounded.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEndDef; 8] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: Some(0.25),
        definition: "median wall time of one set-up (population, overlay build to quiescence, registration, log open), repeated within the run",
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: Some(0.25),
        definition: "ops resolved / wall seconds of the timed window (the window is the workload's quiet units, its fastest tenth)",
    },
    EndToEndDef {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: Some(0.25),
        definition: "median over timed units of unit wall time / ops in the unit",
    },
    EndToEndDef {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: Some(0.25),
        definition: "process CPU over the timed window (all threads) / ops",
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: Some(0.20),
        definition: "VmHWM when the run ends",
    },
    EndToEndDef {
        name: "bytes_per_op",
        unit: "B",
        better: "lower",
        bound: Some(0.15),
        definition: "construct: keys moved x size_of::<DataEntry>() / peers; lookup, range: transport bytes sent / ops; journal: bytes appended / cuts; wire: bytes delivered / frames",
    },
    EndToEndDef {
        name: "flushes_per_kop",
        unit: "1/kop",
        better: "lower",
        bound: None,
        definition: "DurableStats::syncs / ops x 1000; 0 where nothing is journaled",
    },
    EndToEndDef {
        name: "failed_ratio",
        unit: "ratio",
        better: "lower",
        bound: None,
        definition: "ops failed / ops attempted; 0 on every workload at the commit that defined the benchmark",
    },
];

/// One per-layer metric and the end-to-end metric it should move.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `<end-to-end metric>/<workload>` pairs this metric should move, or
    /// `invariant` for a number that must not move for a seed.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [LayerDef; 81] = [
    // The two end-to-end metrics that may be zero, and the op count.
    layer(
        "flushes_per_kop",
        "1/kop",
        "lower",
        "end-to-end, unbounded: 0 where nothing is journaled",
    ),
    layer(
        "failed_ratio",
        "ratio",
        "lower",
        "end-to-end, unbounded: 0 at the defining commit",
    ),
    layer(
        "ops_attempted",
        "count",
        "higher",
        "invariant: fixed by workload, seed and --seconds",
    ),
    // sim
    layer("sim.new_s", "s", "lower", "setup_s/construct-*"),
    layer("sim.replicate_s", "s", "lower", "setup_s/construct-*"),
    layer(
        "sim.run_round_busy_s",
        "s",
        "lower",
        "ops_per_s/construct-*",
    ),
    layer("sim.rounds", "count", "lower", "ops_per_s/construct-*"),
    layer("sim.round_p90_us", "us", "lower", "ops_per_s/construct-*"),
    layer(
        "sim.interactions_per_s",
        "1/s",
        "higher",
        "ops_per_s/construct-*",
    ),
    layer(
        "sim.interactions_per_peer",
        "count",
        "lower",
        "ops_per_s/construct-*",
    ),
    layer(
        "sim.fruitless_ratio",
        "ratio",
        "lower",
        "ops_per_s/construct-*",
    ),
    layer(
        "sim.keys_moved_per_interaction",
        "count",
        "lower",
        "bytes_per_op/construct-*",
    ),
    layer(
        "sim.parallel_speedup_2t",
        "ratio",
        "higher",
        "ops_per_s,cpu_us_per_op/construct-uniform",
    ),
    // core
    layer(
        "core.exchange.assess_ns",
        "ns",
        "lower",
        "ops_per_s/construct-*",
    ),
    layer(
        "core.store.merge_batch_ns_per_entry",
        "ns",
        "lower",
        "ops_per_s/construct-skew; no move expected on construct-uniform",
    ),
    layer("core.store.contains_ns", "ns", "lower", "ops_per_s/lookup"),
    layer(
        "core.store.range_ns_per_entry",
        "ns",
        "lower",
        "ops_per_s/range",
    ),
    layer(
        "core.entries_per_peer_mean",
        "count",
        "lower",
        "peak_rss_mib/construct-skew",
    ),
    layer(
        "core.replication_factor_mean",
        "count",
        "lower",
        "peak_rss_mib/construct-skew",
    ),
    layer("core.path_len_mean", "count", "higher", "invariant"),
    layer("core.balance_deviation", "ratio", "lower", "invariant"),
    layer(
        "core.key_availability",
        "ratio",
        "higher",
        "invariant: share of original keys held by a peer whose path covers them",
    ),
    layer(
        "core.nested_path_ratio",
        "ratio",
        "lower",
        "invariant: share of peers whose path is a proper prefix of another peer's",
    ),
    // net
    layer("net.issue_busy_s", "s", "lower", "ops_per_s/lookup,range"),
    layer("net.drain_busy_s", "s", "lower", "ops_per_s/lookup,range"),
    layer("net.self_s", "s", "lower", "ops_per_s/lookup,range"),
    layer("net.construct_busy_s", "s", "lower", "ops_per_s/journal"),
    layer(
        "net.hops_mean",
        "count",
        "lower",
        "op_p50_us,bytes_per_op/lookup,range",
    ),
    layer(
        "net.msgs_per_op",
        "count",
        "lower",
        "op_p50_us,bytes_per_op/lookup,range",
    ),
    layer(
        "net.frames_per_op",
        "count",
        "lower",
        "op_p50_us,bytes_per_op/lookup,range",
    ),
    layer(
        "net.msgs_per_frame",
        "count",
        "higher",
        "op_p50_us,bytes_per_op/lookup,range",
    ),
    layer(
        "net.timed_out",
        "count",
        "lower",
        "failed_ratio/lookup,range",
    ),
    layer(
        "net.not_found",
        "count",
        "lower",
        "failed_ratio/lookup,range",
    ),
    layer("net.range_recall", "ratio", "higher", "failed_ratio/range"),
    layer(
        "net.findable_key_ratio",
        "ratio",
        "higher",
        "invariant: share of stored keys every covering peer holds (the lookup corpus)",
    ),
    layer(
        "net.message.encode_ns",
        "ns",
        "lower",
        "ops_per_s/lookup,journal; nothing on wire",
    ),
    layer(
        "net.message.decode_ns",
        "ns",
        "lower",
        "ops_per_s/lookup,journal; nothing on wire",
    ),
    layer(
        "net.setup_virtual_min",
        "min",
        "lower",
        "setup_s/lookup,range",
    ),
    layer(
        "net.virtual_p50_ms",
        "ms",
        "lower",
        "invariant of the emulated 20-250 ms network",
    ),
    layer(
        "net.virtual_p99_ms",
        "ms",
        "lower",
        "invariant of the emulated 20-250 ms network",
    ),
    // transport
    layer(
        "transport.send_busy_s",
        "s",
        "lower",
        "ops_per_s/lookup,range",
    ),
    layer(
        "transport.poll_busy_s",
        "s",
        "lower",
        "ops_per_s/lookup,range",
    ),
    layer(
        "transport.frames",
        "count",
        "lower",
        "ops_per_s/lookup,range",
    ),
    layer("transport.bytes", "B", "lower", "ops_per_s/lookup,range"),
    layer(
        "transport.frame.encode_ns",
        "ns",
        "lower",
        "ops_per_s/lookup; cpu_us_per_op/wire",
    ),
    layer(
        "transport.frame.decode_ns",
        "ns",
        "lower",
        "ops_per_s/lookup; cpu_us_per_op/wire",
    ),
    // reactor
    layer(
        "reactor.register_ns_per_peer",
        "ns",
        "lower",
        "setup_s/wire",
    ),
    layer("reactor.send_busy_s", "s", "lower", "ops_per_s/wire"),
    layer("reactor.poll_busy_s", "s", "lower", "ops_per_s/wire"),
    layer("reactor.empty_polls", "count", "lower", "ops_per_s/wire"),
    layer(
        "reactor.epoll_wakeups_per_kframe",
        "count",
        "lower",
        "ops_per_s/wire",
    ),
    layer("reactor.partial_writes", "count", "lower", "ops_per_s/wire"),
    layer(
        "reactor.write_queue_peak_bytes",
        "B",
        "lower",
        "ops_per_s/wire",
    ),
    layer(
        "reactor.sys_cpu_share",
        "ratio",
        "lower",
        "cpu_us_per_op/wire",
    ),
    layer("reactor.frame_p99_us", "us", "lower", "op_p50_us/wire"),
    layer("reactor.mux.encode_ns", "ns", "lower", "cpu_us_per_op/wire"),
    layer("reactor.mux.parse_ns", "ns", "lower", "cpu_us_per_op/wire"),
    layer(
        "reactor.large_frame_mib_per_s",
        "MiB/s",
        "higher",
        "guards a small-frame gain that costs bytes/s on wire",
    ),
    // durable
    layer(
        "durable.observe_busy_s",
        "s",
        "lower",
        "ops_per_s,cpu_us_per_op/journal",
    ),
    layer(
        "durable.observe_calls",
        "count",
        "lower",
        "ops_per_s,cpu_us_per_op/journal",
    ),
    layer(
        "durable.observe_dirty_ratio",
        "ratio",
        "lower",
        "ops_per_s,cpu_us_per_op/journal",
    ),
    layer(
        "durable.sync_busy_s",
        "s",
        "lower",
        "flushes_per_kop/journal; ops_per_s only with --data-dir on a real disk",
    ),
    layer("durable.syncs", "count", "lower", "flushes_per_kop/journal"),
    layer(
        "durable.sync_p50_us",
        "us",
        "lower",
        "flushes_per_kop/journal",
    ),
    layer(
        "durable.sync_p99_us",
        "us",
        "lower",
        "flushes_per_kop/journal",
    ),
    layer(
        "durable.compact_busy_s",
        "s",
        "lower",
        "gap between mean and op_p50_us/journal",
    ),
    layer(
        "durable.compactions",
        "count",
        "lower",
        "gap between mean and op_p50_us/journal",
    ),
    layer(
        "durable.compact_stall_max_ms",
        "ms",
        "lower",
        "gap between mean and op_p50_us/journal",
    ),
    layer(
        "durable.write_amp",
        "ratio",
        "lower",
        "bytes_per_op/journal",
    ),
    layer(
        "durable.replay_s",
        "s",
        "lower",
        "reopen cost, beside setup_s/journal",
    ),
    layer(
        "durable.replay_records",
        "count",
        "lower",
        "reopen cost, beside setup_s/journal",
    ),
    // cluster
    layer(
        "cluster.persist_collect_busy_s",
        "s",
        "lower",
        "ops_per_s/journal",
    ),
    // harness, obs, host
    layer(
        "harness.self_s",
        "s",
        "lower",
        "time of the window spent in the harness itself (input generation, checks)",
    ),
    layer(
        "harness.window_s",
        "s",
        "lower",
        "wall seconds of the traced window",
    ),
    layer(
        "harness.explained_ratio",
        "ratio",
        "higher",
        "layer self times + harness self time / window; 1 by construction",
    ),
    layer(
        "harness.dominant_layer_share",
        "ratio",
        "higher",
        "busy share of the layers expected to dominate the workload",
    ),
    layer(
        "obs.trace_overhead_ratio",
        "ratio",
        "higher",
        "traced / untraced ops_per_s of the same run",
    ),
    layer(
        "host.calib_ns_before",
        "ns",
        "lower",
        "host speed before the window",
    ),
    layer(
        "host.calib_ns_after",
        "ns",
        "lower",
        "host speed after the window",
    ),
    layer("host.nproc", "count", "higher", "cores the run saw"),
    layer(
        "host.median_unit_slowdown",
        "ratio",
        "lower",
        "median unit / median quiet unit; about 1.05 on a quiet host, more when the host or a change slows only some units",
    ),
];

/// The per-layer values of one run: every catalogue name, zero until set
/// (a layer the workload leaves idle reads 0).
#[derive(Clone, Debug, PartialEq)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
}

impl Default for LayerMetrics {
    fn default() -> LayerMetrics {
        LayerMetrics {
            values: PER_LAYER.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }
}

impl LayerMetrics {
    /// Sets a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name:?} is not in the catalogue"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The catalogue plus what `BENCHMARK.json` cannot hold, as JSON.
pub fn describe(sizes: &[(&str, String)], journal_fs: &str, nproc: usize, git_sha: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"git_sha\": {},\n", json_str(git_sha)));
    out.push_str(&format!("  \"host_nproc\": {nproc},\n"));
    out.push_str(&format!("  \"journal_fs\": {},\n", json_str(journal_fs)));
    out.push_str("  \"loop\": \"closed, 1 client; the next batch is issued when the previous one has drained\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let size = sizes
            .iter()
            .find(|(name, _)| *name == w.name)
            .map_or("", |(_, s)| s.as_str());
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}, \"op\": {}, \"closed_loop_window\": {}, \"sizes\": {}, \"dominant_layers\": [{}]}}{}\n",
            json_str(w.name),
            json_str(w.why),
            json_str(w.op),
            w.window,
            json_str(size),
            w.dominant_layers
                .iter()
                .map(|l| json_str(l))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"definition\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound.map_or("null".to_string(), |b| format!("{b}")),
            json_str(m.definition),
            if i + 1 == END_TO_END.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"moves\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            json_str(m.moves),
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"name": "..."` value out of the JSON array that
    /// follows `"<key>": [` — enough structure for `BENCHMARK.json`,
    /// whose arrays hold flat objects.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\": [")).expect(key);
        let body = &json[start..];
        let end = body.find("\n  ]").expect("array end");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
        let bounded: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.bound.is_some())
            .map(|m| m.name)
            .collect();
        assert_eq!(names_in(&json, "end_to_end"), bounded);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_in(&json, "per_layer"), per_layer);
        for m in END_TO_END.iter().filter(|m| m.bound.is_some()) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.unwrap()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
            assert!(json.contains(&format!("\"why\": \"{}\"", w.why)));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(
                END_TO_END
                    .iter()
                    .filter(|m| m.bound.is_some())
                    .map(|m| m.name),
            )
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_layer_metric_is_rejected() {
        LayerMetrics::default().set("net.no_such_metric", 1.0);
    }
}
