//! Command-line contract of the `figures` binary: a name it does not know
//! is an error, not a silent no-op.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary runs")
}

#[test]
fn unknown_figure_names_are_rejected_with_a_usage_line() {
    let out = figures(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fig99") && stderr.contains("usage:"),
        "{stderr}"
    );
}

#[test]
fn a_known_figure_prints_its_table_and_exits_zero() {
    let out = figures(&["fig3"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 3"));
}
