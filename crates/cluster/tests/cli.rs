//! The `pgrid-cluster` binary refuses a command line it does not fully
//! understand: usage text on stderr, exit status 2, nothing started.

use std::process::Command;

fn refused(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_pgrid-cluster"))
        .args(args)
        .output()
        .expect("run pgrid-cluster");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: pgrid-cluster local"), "{stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn a_misspelt_flag_prints_usage_and_exits_2() {
    // Ran a two-worker cluster before: `--worker` is not `--workers`.
    refused(&["local", "--worker", "3", "--smoke"]);
    // The reactor is the only socket backend; there is nothing to choose.
    refused(&["worker", "--connect", "127.0.0.1:1", "--transport", "tcp"]);
}

#[test]
fn a_flag_without_its_value_prints_usage_and_exits_2() {
    // Ran with the default population before.
    refused(&["local", "--smoke", "--peers"]);
    // Took `--smoke` as the value (and panicked on it) before.
    refused(&["local", "--peers", "--smoke"]);
}

#[test]
fn an_unparsable_value_prints_usage_and_exits_2() {
    // Panicked (exit 101) before.
    refused(&["local", "--smoke", "--peers", "x"]);
    refused(&["worker", "--connect", "127.0.0.1:1", "--metrics-addr", "x"]);
}

#[test]
fn no_subcommand_or_an_unknown_one_prints_usage_and_exits_2() {
    refused(&[]);
    refused(&["launch"]);
}
