//! The six workloads and what they share: the run configuration, seed
//! derivation, and the result of one timed window.

pub mod construct;
pub mod journal;
pub mod queries;
pub mod wire;

use crate::catalogue::LayerMetrics;
use crate::host::process_cpu_ns;
use crate::span::Tracer;
use crate::stats::{median, Samples};
use std::path::PathBuf;

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Every RNG of the harness derives from this; the programs under test
    /// only ever see inputs generated from it.
    pub seed: u64,
    /// Sizes the fixed amount of work: each workload does `seconds` times
    /// the work the reference host finishes in one second, in whole
    /// sessions.  The op count is therefore decided by the workload, the
    /// seed and this number — never by how fast the program runs.
    pub seconds: u32,
    /// Self-test sizes: same code paths and checks on small populations;
    /// the numbers are not comparable with full runs.
    pub quick: bool,
    /// Where the journal workload keeps its log (default: a fresh
    /// directory under the package's `target/harness-out`).
    pub data_dir: Option<PathBuf>,
}

/// A correctness check that failed; the run exits non-zero and prints no
/// metrics.
#[derive(Debug)]
pub struct CheckFailed(pub String);

impl std::fmt::Display for CheckFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "correctness check failed: {}", self.0)
    }
}

/// Fails the run unless `condition` holds.
pub fn check(condition: bool, what: impl FnOnce() -> String) -> Result<(), CheckFailed> {
    if condition {
        Ok(())
    } else {
        Err(CheckFailed(what()))
    }
}

/// The raw measurements of one timed window.
#[derive(Clone, Debug)]
pub struct Window {
    /// Wall time of each set-up repeat, in seconds.
    pub setups_s: Vec<f64>,
    /// Wall seconds from the first op to the last answer.
    pub elapsed_s: f64,
    /// Wall seconds of the timed window: `elapsed_s`, or the quiet units'
    /// share of it (see `ops_timed`).
    pub wall_s: f64,
    /// Process CPU seconds over the timed window, all threads.
    pub cpu_s: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Ops the timed window covers: every workload consists of units of
    /// identical work and takes its quiet units as the window (see
    /// `stats::QUIET_SHARE`).
    pub ops_timed: u64,
    /// Microseconds per op, one sample per timed unit.
    pub unit_us: Samples,
    pub bytes_per_op: f64,
    /// Journal syncs in the window.
    pub flushes: u64,
    pub calib_ns_before: f64,
    pub calib_ns_after: f64,
}

impl Window {
    pub fn setup_s(&self) -> f64 {
        median(&self.setups_s)
    }

    /// Ops resolved per wall second of the timed window.
    pub fn ops_per_s(&self) -> f64 {
        self.ops_timed as f64 * (1.0 - self.failed_ratio()) / self.wall_s
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.ops_timed as f64
    }

    pub fn flushes_per_kop(&self) -> f64 {
        self.flushes as f64 / self.ops_attempted as f64 * 1_000.0
    }

    pub fn failed_ratio(&self) -> f64 {
        self.ops_failed as f64 / self.ops_attempted as f64
    }
}

/// Wall and CPU time of a stationary workload's timed calls, summed per
/// unit of identical work.
#[derive(Default)]
pub struct UnitClock {
    open_wall_ns: u64,
    open_cpu_ns: u64,
    /// Closed units: `(wall ns, cpu ns, ops)`.
    units: Vec<(u64, u64, u64)>,
}

/// The quiet units of a window (see [`stats::QUIET_SHARE`]), added up.
pub struct QuietUnits {
    /// Which of the closed units are quiet, in closing order.
    pub is_quiet: Vec<bool>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ops: u64,
    /// Microseconds per op of each quiet unit.
    pub unit_us: Samples,
    /// Median of all units ÷ median of the quiet ones: how much the host
    /// (or a change that makes only some units slow) held the rest back.
    pub median_unit_slowdown: f64,
}

impl UnitClock {
    /// Runs `f` on the clock of the open unit.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (wall, cpu) = (std::time::Instant::now(), process_cpu_ns());
        let result = f();
        self.open_cpu_ns += process_cpu_ns() - cpu;
        self.open_wall_ns += wall.elapsed().as_nanos() as u64;
        result
    }

    /// Takes `ns` of wall time off the open unit: time the caller measured
    /// inside `time` that is not the program's (a shared disk's fsync).
    pub fn discount_wall(&mut self, ns: u64) {
        self.open_wall_ns = self.open_wall_ns.saturating_sub(ns);
    }

    /// Closes the open unit, which did `ops` ops; a unit without ops is
    /// dropped.
    pub fn close_unit(&mut self, ops: u64) {
        if ops > 0 {
            self.units.push((self.open_wall_ns, self.open_cpu_ns, ops));
        }
        (self.open_wall_ns, self.open_cpu_ns) = (0, 0);
    }

    /// Sums the quiet units; a unit still open is not timed.
    pub fn quiet(&self) -> QuietUnits {
        let per_op_us: Vec<f64> = self
            .units
            .iter()
            .map(|&(wall_ns, _, ops)| wall_ns as f64 / 1e3 / ops as f64)
            .collect();
        let is_quiet = crate::stats::quiet_units(&per_op_us);
        let mut out = QuietUnits {
            wall_s: 0.0,
            cpu_s: 0.0,
            ops: 0,
            unit_us: Samples::with_capacity(self.units.len()),
            median_unit_slowdown: 0.0,
            is_quiet,
        };
        for (unit, &(wall_ns, cpu_ns, ops)) in self.units.iter().enumerate() {
            if out.is_quiet[unit] {
                out.wall_s += wall_ns as f64 / 1e9;
                out.cpu_s += cpu_ns as f64 / 1e9;
                out.ops += ops;
                out.unit_us.push(per_op_us[unit]);
            }
        }
        out.median_unit_slowdown = median(&per_op_us) / out.unit_us.median();
        out
    }
}

/// What every workload receives.
pub struct Context<'a> {
    pub config: &'a RunConfig,
    /// Disabled in the untraced run that yields the end-to-end metrics.
    pub tracer: &'a std::rc::Rc<Tracer>,
    /// Per-layer values; the traced run's copy is the one printed.
    pub layer: &'a mut LayerMetrics,
}

impl Context<'_> {
    /// Replay probes and the extra traced-only measurements run only when
    /// spans are on; the untraced run stays the plain workload.
    pub fn traced(&self) -> bool {
        self.tracer.is_enabled()
    }
}

/// Runs the named workload once (set-up, timed window, checks).
pub fn run(name: &str, ctx: &mut Context<'_>) -> Result<Window, CheckFailed> {
    match name {
        "construct-uniform" => construct::run(ctx, false),
        "construct-skew" => construct::run(ctx, true),
        "lookup" => queries::run(ctx, queries::Kind::Lookup),
        "range" => queries::run(ctx, queries::Kind::Range),
        "journal" => journal::run(ctx),
        "wire" => wire::run(ctx),
        other => panic!("unknown workload {other:?}"),
    }
}

/// One-line size statement of a workload at the given configuration.
pub fn sizes(name: &str, config: &RunConfig) -> String {
    match name {
        "construct-uniform" => construct::Sizes::new(config, false).describe(),
        "construct-skew" => construct::Sizes::new(config, true).describe(),
        "lookup" => queries::Sizes::new(config, queries::Kind::Lookup).describe(),
        "range" => queries::Sizes::new(config, queries::Kind::Range).describe(),
        "journal" => journal::Sizes::new(config).describe(),
        "wire" => wire::Sizes::new(config).describe(),
        other => panic!("unknown workload {other:?}"),
    }
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of one named random stream of a run: every generator in the
/// harness (and every seed handed to a program under test as input) is
/// `derive(--seed, stream)`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream))
}

/// Stream identifiers, one block of 2^32 per purpose.
pub mod stream {
    pub const CONSTRUCTION: u64 = 1 << 32;
    pub const OVERLAY: u64 = 2 << 32;
    pub const QUERY_KEYS: u64 = 3 << 32;
    pub const JOURNAL: u64 = 4 << 32;
    pub const PROBES: u64 = 5 << 32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_seed_and_by_stream() {
        assert_eq!(derive(7, stream::OVERLAY), derive(7, stream::OVERLAY));
        assert_ne!(derive(7, stream::OVERLAY), derive(8, stream::OVERLAY));
        assert_ne!(derive(7, stream::OVERLAY), derive(7, stream::OVERLAY + 1));
        assert_ne!(derive(0, 0), 0);
    }

    /// The count metrics of one untraced `--quick` run.
    fn counts(name: &str, seed: u64) -> (u64, u64, f64, u64) {
        let config = RunConfig {
            seed,
            seconds: 1,
            quick: true,
            data_dir: None,
        };
        let window = run(
            name,
            &mut Context {
                config: &config,
                tracer: &std::rc::Rc::new(Tracer::disabled()),
                layer: &mut LayerMetrics::default(),
            },
        )
        .unwrap_or_else(|failed| panic!("{name}: {failed}"));
        (
            window.ops_attempted,
            window.ops_failed,
            window.bytes_per_op,
            window.flushes,
        )
    }

    #[test]
    fn the_same_seed_repeats_every_count_exactly() {
        for workload in &crate::catalogue::WORKLOADS {
            let first = counts(workload.name, 11);
            assert_eq!(first, counts(workload.name, 11), "{}", workload.name);
            assert!(first.0 > 0 && first.2 > 0.0, "{}", workload.name);
            assert_eq!(first.1, 0, "{}: ops failed", workload.name);
        }
    }

    #[test]
    fn another_seed_gives_another_key_corpus() {
        // bytes_per_op follows the keys: construction moves other entries,
        // lookups travel other routes, the journal appends other deltas.
        for name in ["construct-skew", "lookup", "journal"] {
            let (a, b) = (counts(name, 11), counts(name, 12));
            assert_eq!(a.0, b.0, "{name}: the op count must not depend on the seed");
            assert_ne!(a.2, b.2, "{name}: bytes_per_op equal across seeds");
        }
    }

    #[test]
    fn window_ratios() {
        let window = Window {
            setups_s: vec![3.0, 1.0, 2.0],
            elapsed_s: 2.0,
            wall_s: 2.0,
            cpu_s: 1.5,
            ops_attempted: 1_000,
            ops_failed: 10,
            ops_timed: 1_000,
            unit_us: Samples::default(),
            bytes_per_op: 0.0,
            flushes: 5,
            calib_ns_before: 0.0,
            calib_ns_after: 0.0,
        };
        assert_eq!(window.setup_s(), 2.0);
        assert_eq!(window.ops_per_s(), 495.0);
        assert_eq!(window.cpu_us_per_op(), 1_500.0);
        assert_eq!(window.flushes_per_kop(), 5.0);
        assert_eq!(window.failed_ratio(), 0.01);
    }
}
