//! # pgrid-bench
//!
//! Figure-regeneration harness of the P-Grid reproduction.
//!
//! The `figures` binary regenerates every table and figure of the paper's
//! evaluation section as plain-text series (see `EXPERIMENTS.md`); this
//! library holds its small formatting and statistics helpers.  Performance
//! is measured by the standalone package under `harness/` (see
//! `BENCHMARK.json`), not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Formats a row of floating-point cells with a fixed label column, used by
/// the `figures` binary for its aligned text tables.
pub fn format_row(label: &str, cells: &[f64]) -> String {
    let mut out = format!("{label:<14}");
    for cell in cells {
        out.push_str(&format!(" {cell:>10.3}"));
    }
    out
}

/// Formats a header row matching [`format_row`].
pub fn format_header(label: &str, columns: &[String]) -> String {
    let mut out = format!("{label:<14}");
    for column in columns {
        out.push_str(&format!(" {column:>10}"));
    }
    out
}

/// The sample statistics the Figure-6 sweeps aggregate repetitions with.
pub use pgrid_sim::runner::{mean, std_dev};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_aligned() {
        let header = format_header("p", &["a".to_string(), "b".to_string()]);
        let row = format_row("0.5", &[1.0, 2.0]);
        assert_eq!(header.len(), row.len());
    }

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
