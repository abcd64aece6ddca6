//! The repo's benchmark harness: six in-process workloads, eight
//! end-to-end metrics each, and — with `--trace` — a per-layer table from
//! harness-side spans and replay probes.
//!
//! ```text
//! cargo run --release --manifest-path harness/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]] \
//!     [--quick] [--data-dir <dir>]
//! cargo run --release --manifest-path harness/Cargo.toml -- --describe
//! ```
//!
//! The last line of a run's standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the bounded end-to-end
//! metrics without `--trace`, the per-layer metrics with it.  A failed
//! correctness check exits non-zero and prints no metrics.

mod catalogue;
mod host;
mod overlay;
mod probes;
mod span;
mod stats;
mod traced;
mod workloads;

use catalogue::{LayerMetrics, END_TO_END, PER_LAYER, WORKLOADS};
use span::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use workloads::{CheckFailed, Context, RunConfig, Window};

/// `--seconds` when the flag is absent: the `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 10;

struct Args {
    workload: String,
    config: RunConfig,
    trace: bool,
    describe: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: harness --workload <{}|all> --seed <u64> [--seconds <1..60>] [--trace [0|1]] \
         [--quick] [--data-dir <dir>] | --describe",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut data_dir = None;
    let mut describe = false;
    let mut pending: Option<String> = None;
    while let Some(arg) = pending.take().or_else(|| args.next()) {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let raw = value("--seed")?;
                seed = Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("bad --seed {raw:?}"))?,
                );
            }
            "--seconds" => {
                let raw = value("--seconds")?;
                let n = raw.parse::<u32>().ok().filter(|n| (1..=60).contains(n));
                seconds = Some(n.ok_or(format!("--seconds must be 1..60, got {raw:?}"))?);
            }
            "--trace" => match args.next() {
                Some(v) if v == "0" => trace = false,
                Some(v) if v == "1" => trace = true,
                // A bare `--trace`: what follows is the next flag.
                other => {
                    trace = true;
                    pending = other;
                }
            },
            "--quick" => quick = true,
            "--data-dir" => data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--describe" => describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = match (workload, describe) {
        (Some(w), _) => w,
        (None, true) => "all".to_string(),
        (None, false) => return Err("--workload is required".to_string()),
    };
    if workload != "all" && catalogue::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        config: RunConfig {
            seed: match (seed, describe) {
                (Some(seed), _) => seed,
                (None, true) => 0,
                (None, false) => return Err("--seed is required".to_string()),
            },
            seconds: seconds.unwrap_or(if quick { 1 } else { DEFAULT_SECONDS }),
            quick,
            data_dir,
        },
        trace,
        describe,
    })
}

/// The eight end-to-end values of a window, in catalogue order.
fn end_to_end_values(window: &Window, peak_rss_mib: f64) -> [f64; 8] {
    [
        window.setup_s(),
        window.ops_per_s(),
        window.unit_us.median(),
        window.cpu_us_per_op(),
        peak_rss_mib,
        window.bytes_per_op,
        window.flushes_per_kop(),
        window.failed_ratio(),
    ]
}

fn print_end_to_end(name: &str, config: &RunConfig, window: &Window, values: &[f64; 8]) {
    println!("== {name}: end-to-end (untraced run) ==");
    if config.quick {
        println!("   --quick sizes: these numbers are NOT comparable with full runs");
    }
    for (def, value) in END_TO_END.iter().zip(values) {
        println!("{:<18} {:>16.4} {}", def.name, value, def.unit);
    }
    println!("{:<18} {:>16} count", "ops_attempted", window.ops_attempted);
    println!("{:<18} {:>16} count", "ops_failed", window.ops_failed);
    println!("{:<18} {:>16} count", "ops_timed", window.ops_timed);
    println!("{:<18} {:>16.4} s", "window_s", window.elapsed_s);
    println!("{:<18} {:>16.4} s", "timed_s", window.wall_s);
    let samples = window.unit_us.len();
    match window.unit_us.tail() {
        Some((p, value)) => println!(
            "{:<18} {:>16.4} us (highest percentile with >=10 of the {samples} samples beyond it)",
            format!("op_p{p}_us"),
            value
        ),
        None => println!("op tail: {samples} samples, too few for a percentile above the median"),
    }
}

fn print_layers(name: &str, spans: &[span::Span], layer: &LayerMetrics, failed: u64) {
    println!("== {name}: per-layer (traced run; rows cover the timed window) ==");
    println!(
        "{:<10} {:>11} {:>11} {:>11} {:>12} {:>8}",
        "layer", "busy_s", "self_s", "waiting_s", "calls", "failed"
    );
    let dominant = catalogue::workload(name).map_or(&[][..], |w| w.dominant_layers);
    for (layer_name, row) in span::layer_table(spans) {
        // Failed ops are charged to the layer the workload exists to
        // measure; the harness itself cannot fail an op.
        let failed = if dominant.first() == Some(&layer_name) {
            failed
        } else {
            0
        };
        println!(
            "{:<10} {:>11.4} {:>11.4} {:>11.4} {:>12} {:>8}",
            layer_name, row.busy_s, row.self_s, row.waiting_s, row.calls, failed
        );
    }
    for def in &PER_LAYER {
        println!(
            "{:<38} {:>18.4} {}",
            def.name,
            layer.get(def.name),
            def.unit
        );
    }
}

/// Fills the per-layer values every workload derives from the spans of
/// its timed window.
fn layer_summary(name: &str, spans: &[span::Span], layer: &mut LayerMetrics) {
    let table = span::layer_table(spans);
    let window_s = span::busy_s(spans, span::WINDOW);
    let explained: f64 = table.values().map(|r| r.self_s + r.waiting_s).sum();
    // Time the window spent in, or waiting for, the layers the workload
    // exists to measure.
    let dominant: f64 = catalogue::workload(name)
        .map_or(&[][..], |w| w.dominant_layers)
        .iter()
        .filter_map(|l| table.get(l))
        .map(|r| r.self_s + r.waiting_s)
        .sum();
    layer.set("harness.window_s", window_s);
    layer.set(
        "harness.self_s",
        table.get("harness").map_or(0.0, |r| r.self_s),
    );
    layer.set("harness.explained_ratio", explained / window_s);
    layer.set("harness.dominant_layer_share", dominant / window_s);
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The contract's result line.
fn result_line(window: &Window, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        window.ops_attempted,
        window.ops_failed,
        metrics.join(", ")
    )
}

/// Runs one workload (untraced, then traced when asked) and prints it.
fn run_workload(name: &str, config: &RunConfig, trace: bool) -> Result<String, CheckFailed> {
    println!(
        "== {name}: seed {}, --seconds {}, nproc {}, git {} ==",
        config.seed,
        config.seconds,
        host::nproc(),
        host::git_sha()
    );
    println!("sizes: {}", workloads::sizes(name, config));

    let mut layer = LayerMetrics::default();
    let untraced = workloads::run(
        name,
        &mut Context {
            config,
            tracer: &Rc::new(Tracer::disabled()),
            layer: &mut layer,
        },
    )?;
    let values = end_to_end_values(&untraced, host::peak_rss_mib());
    print_end_to_end(name, config, &untraced, &values);
    if !trace {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .zip(&values)
            .filter(|(def, _)| def.bound.is_some())
            .map(|(def, value)| metric_json(def.name, *value, def.unit))
            .collect();
        return Ok(result_line(&untraced, &metrics));
    }

    let tracer = Rc::new(Tracer::enabled());
    let mut layer = LayerMetrics::default();
    let traced = workloads::run(
        name,
        &mut Context {
            config,
            tracer: &tracer,
            layer: &mut layer,
        },
    )?;
    let spans = tracer.spans();
    let window_spans = span::in_window(&spans);
    layer_summary(name, &window_spans, &mut layer);
    layer.set("flushes_per_kop", traced.flushes_per_kop());
    layer.set("failed_ratio", traced.failed_ratio());
    layer.set("ops_attempted", traced.ops_attempted as f64);
    layer.set(
        "obs.trace_overhead_ratio",
        traced.ops_per_s() / untraced.ops_per_s(),
    );
    layer.set("host.calib_ns_before", traced.calib_ns_before);
    layer.set("host.calib_ns_after", traced.calib_ns_after);
    layer.set("host.nproc", host::nproc() as f64);
    print_layers(name, &window_spans, &layer, traced.ops_failed);
    let trace_path = host::out_dir().join(format!("trace-{name}.jsonl"));
    match span::write_jsonl(&trace_path, name, &spans) {
        Ok(()) => println!("{} spans written to {}", spans.len(), trace_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }
    let metrics: Vec<String> = PER_LAYER
        .iter()
        .map(|def| metric_json(def.name, layer.get(def.name), def.unit))
        .collect();
    Ok(result_line(&traced, &metrics))
}

fn describe(config: &RunConfig) -> String {
    let sizes: Vec<(&str, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name, workloads::sizes(w.name, config)))
        .collect();
    let journal_dir = config.data_dir.clone().unwrap_or_else(host::out_dir);
    catalogue::describe(
        &sizes,
        &host::fs_type_of(&journal_dir),
        host::nproc(),
        &host::git_sha(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", describe(&args.config));
        return ExitCode::SUCCESS;
    }
    if args.workload == "all" {
        return run_all(std::env::args().skip(1).collect());
    }
    let name = catalogue::workload(&args.workload)
        .expect("validated above")
        .name;
    match run_workload(name, &args.config, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(failed) => {
            eprintln!("{name}: {failed}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: one child process per workload, same flags, so that
/// each reports its own peak RSS and CPU.  Stops at the first failure.
fn run_all(args: Vec<String>) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running harness");
    let at = args
        .iter()
        .position(|a| a == "--workload")
        .expect("--workload all was parsed")
        + 1;
    for workload in &WORKLOADS {
        let mut args = args.clone();
        args[at] = workload.name.to_string();
        // `status` waits for the child to end.
        let status = std::process::Command::new(&exe).args(&args).status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("{}: failed ({status:?})", workload.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse("--workload lookup --seed 42 --seconds 10 --trace 0").unwrap();
        assert_eq!(args.workload, "lookup");
        assert_eq!(args.config.seed, 42);
        assert_eq!(args.config.seconds, 10);
        assert!(!args.trace && !args.config.quick);
        assert!(
            parse("--workload wire --seed 1 --seconds 10 --trace 1")
                .unwrap()
                .trace
        );
    }

    #[test]
    fn a_bare_trace_flag_does_not_swallow_the_next_flag() {
        let args = parse("--workload all --trace --seed 7 --quick").unwrap();
        assert!(args.trace && args.config.quick);
        assert_eq!(args.config.seed, 7);
        assert_eq!(args.config.seconds, 1);
        assert!(parse("--workload all --seed 7 --trace").unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload lookup").is_err());
        assert!(parse("--workload cluster --seed 1").is_err());
        assert!(parse("--workload lookup --seed x").is_err());
        assert!(parse("--workload lookup --seed 1 --seconds 0").is_err());
        assert!(parse("--workload lookup --seed 1 --seconds 61").is_err());
        assert!(parse("--workload lookup --seed 1 --frobnicate").is_err());
        assert!(parse("--describe").unwrap().describe);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let window = Window {
            setups_s: vec![1.0],
            elapsed_s: 1.0,
            wall_s: 1.0,
            cpu_s: 0.0,
            ops_attempted: 10,
            ops_failed: 0,
            ops_timed: 10,
            unit_us: stats::Samples::default(),
            bytes_per_op: 1.0,
            flushes: 0,
            calib_ns_before: 0.0,
            calib_ns_after: 0.0,
        };
        let line = result_line(&window, &[metric_json("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
