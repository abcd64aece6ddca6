//! Figure 6 and the Section 4.3 complexity table, pinned to the byte.
//!
//! The simulator is deterministic for a seed and for every thread count, so
//! a change to `pgrid-sim`, `pgrid-core` or `pgrid-partition` that is meant
//! to keep every construction must leave this output exactly as recorded in
//! `figure6_quick.txt`.  A protocol change regenerates that file with
//!
//! ```text
//! cargo run --release -p pgrid-bench --bin figures -- --quick \
//!     fig6a fig6b fig6c fig6d fig6e fig6f complexity > crates/bench/tests/figure6_quick.txt
//! ```
//!
//! and says in its commit message which numbers moved.  The sweep takes
//! about 3 s optimised and far longer unoptimised, so it runs only under
//! `cargo test --release`.

use std::process::Command;

const GOLDEN: &str = include_str!("figure6_quick.txt");

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the quick Figure 6 sweep; use --release"
)]
fn quick_figure6_and_complexity_output_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args([
            "--quick",
            "fig6a",
            "fig6b",
            "fig6c",
            "fig6d",
            "fig6e",
            "fig6f",
            "complexity",
        ])
        .output()
        .expect("the figures binary runs");
    assert!(out.status.success(), "figures exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("figures prints UTF-8");
    for (line, (got, want)) in stdout.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the Figure 6 output moved", line + 1);
    }
    assert_eq!(stdout, GOLDEN, "the Figure 6 output changed length");
}
