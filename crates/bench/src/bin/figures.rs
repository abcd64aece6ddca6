//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p pgrid-bench --bin figures -- all
//! cargo run --release -p pgrid-bench --bin figures -- fig4 fig5
//! cargo run --release -p pgrid-bench --bin figures -- --quick all
//! ```
//!
//! Each sub-command prints the series of one figure/table as an aligned
//! text table; `EXPERIMENTS.md` records a captured run next to the values
//! the paper reports.  `--quick` reduces repetition counts and network
//! sizes so the whole suite finishes in a couple of minutes.
//!
//! `--assert-reference` re-runs the deployment block at full effort and
//! asserts its key summary numbers against the reference run captured in
//! `EXPERIMENTS.md` (every experiment is seeded, so the values must
//! reproduce exactly); CI runs this so a protocol change that shifts the
//! deployment statistics fails loudly instead of silently invalidating the
//! recorded reference.

use pgrid_bench::{format_header, format_row, mean, std_dev};
use pgrid_net::experiment::Timeline;
use pgrid_net::runtime::NetConfig;
use pgrid_partition::experiment::{run_sweep, SweepConfig};
use pgrid_partition::probabilities::{alpha_of_p, alpha_second_derivative, q_of_p};
use pgrid_scenario::deployment::run_deployment;
use pgrid_sim::config::{ConstructionStrategy, SimConfig};
use pgrid_sim::runner::{population_sweep, replication_sweep, run_repeated, sample_size_sweep};
use pgrid_sim::sequential::construct_sequentially;
use pgrid_workload::distributions::Distribution;
use std::process::ExitCode;

/// Every name the command line accepts besides the two flags.
const FIGURES: &[&str] = &[
    "all",
    "fig3",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig6d",
    "fig6e",
    "fig6f",
    "complexity",
    "fig7",
    "fig8",
    "fig9",
    "table5",
];

struct Effort {
    repetitions: usize,
    partition_repetitions: usize,
    populations: Vec<usize>,
    deployment_peers: usize,
}

impl Effort {
    fn full() -> Effort {
        Effort {
            repetitions: 5,
            partition_repetitions: 100,
            populations: vec![256, 512, 1024],
            deployment_peers: 296,
        }
    }
    fn quick() -> Effort {
        Effort {
            repetitions: 2,
            partition_repetitions: 25,
            populations: vec![64, 128, 256],
            deployment_peers: 96,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let effort = if quick {
        Effort::quick()
    } else {
        Effort::full()
    };
    let assert_reference = args.iter().any(|a| a == "--assert-reference");
    let requested: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick" && *a != "--assert-reference")
        .collect();
    if let Some(unknown) = requested.iter().find(|name| !FIGURES.contains(name)) {
        eprintln!("figures: unknown figure `{unknown}`");
        eprintln!(
            "usage: figures [--quick] [--assert-reference] [{}]...",
            FIGURES.join("|")
        );
        return ExitCode::from(2);
    }
    // Bare `--assert-reference` runs only the reference check; naming
    // figures (or `all`) alongside it runs those too.
    let all = requested.contains(&"all") || (requested.is_empty() && !assert_reference);
    let want = |name: &str| all || requested.contains(&name);

    if want("fig3") {
        fig3();
    }
    if want("fig4") || want("fig5") {
        fig4_fig5(&effort);
    }
    if want("fig6a") || want("fig6e") || want("fig6f") {
        fig6_population(&effort);
    }
    if want("fig6b") {
        fig6b(&effort);
    }
    if want("fig6c") {
        fig6c(&effort);
    }
    if want("fig6d") {
        fig6d(&effort);
    }
    if want("complexity") {
        complexity(&effort);
    }
    let mut deployment_report = None;
    if want("fig7") || want("fig8") || want("fig9") || want("table5") {
        deployment_report = Some(deployment(&effort));
    }
    if assert_reference {
        // The reference in EXPERIMENTS.md was captured at full effort; the
        // deployment is fully seeded, so the comparison is exact (at the
        // printed precision).  Reuse the block that just ran unless it ran
        // at --quick effort.
        let report = match deployment_report {
            Some(report) if !quick => report,
            _ => deployment(&Effort::full()),
        };
        let checks = [
            (
                "load-balance deviation",
                format!("{:.3}", report.balance_deviation),
                REFERENCE_BALANCE_DEVIATION,
            ),
            (
                "mean replication",
                format!("{:.2}", report.mean_replication),
                REFERENCE_MEAN_REPLICATION,
            ),
        ];
        let mut failed = false;
        println!("\nreference check against EXPERIMENTS.md:");
        for (name, got, expected) in &checks {
            let ok = got == expected;
            failed |= !ok;
            println!(
                "  {name:<24} {got} (reference {expected}) {}",
                if ok { "ok" } else { "MISMATCH" }
            );
        }
        assert!(
            !failed,
            "deployment statistics diverged from the EXPERIMENTS.md reference run; \
             if the change is intentional, re-capture EXPERIMENTS.md and update the \
             REFERENCE_* constants in figures.rs"
        );
    }
    ExitCode::SUCCESS
}

/// Key Section 5.2 numbers of the reference `figures -- all` run recorded
/// in `EXPERIMENTS.md` (deployment block, 296 peers, seed 0x5_2), at the
/// precision the summary prints them.
const REFERENCE_BALANCE_DEVIATION: &str = "0.636";
/// See [`REFERENCE_BALANCE_DEVIATION`].
const REFERENCE_MEAN_REPLICATION: &str = "4.48";

/// Figure 3: curvature of the balanced-split probability.
fn fig3() {
    println!("\n=== Figure 3: decision probabilities and their curvature ===");
    println!(
        "{}",
        format_header(
            "p",
            &["alpha(p)".into(), "q(p)".into(), "alpha''(p)".into()]
        )
    );
    for i in 1..=30 {
        let p = i as f64 / 100.0;
        println!(
            "{}",
            format_row(
                &format!("{p:.2}"),
                &[alpha_of_p(p), q_of_p(p), alpha_second_derivative(p)]
            )
        );
    }
    println!("(the curvature explodes approaching the critical ratio 1 - ln 2 ≈ 0.307,");
    println!(" which is where sampling errors hurt the most — cf. Figure 3 of the paper)");
}

/// Figures 4 and 5: deviation from the expected split and interaction counts
/// for the five partitioning models.
fn fig4_fig5(effort: &Effort) {
    println!(
        "\n=== Figures 4 & 5: one bisection, n = 1000 peers, sample size 10, {} repetitions ===",
        effort.partition_repetitions
    );
    let config = SweepConfig {
        repetitions: effort.partition_repetitions,
        ..SweepConfig::default()
    };
    let rows = run_sweep(&config);
    println!("\nFigure 4 — mean(peers on side 0) - n*p:");
    println!(
        "{}",
        format_header(
            "p",
            &[
                "MVA".into(),
                "SAM".into(),
                "AEP".into(),
                "COR".into(),
                "AUT".into()
            ]
        )
    );
    for row in &rows {
        println!(
            "{}",
            format_row(
                &format!("{:.2}", row.p),
                &[
                    row.mva.mean_deviation,
                    row.sam.mean_deviation,
                    row.aep.mean_deviation,
                    row.cor.mean_deviation,
                    row.aut.mean_deviation,
                ]
            )
        );
    }
    println!("\nFigure 5 — mean total number of interactions:");
    println!(
        "{}",
        format_header(
            "p",
            &[
                "MVA".into(),
                "SAM".into(),
                "AEP".into(),
                "COR".into(),
                "AUT".into()
            ]
        )
    );
    for row in &rows {
        println!(
            "{}",
            format_row(
                &format!("{:.2}", row.p),
                &[
                    row.mva.mean_interactions,
                    row.sam.mean_interactions,
                    row.aep.mean_interactions,
                    row.cor.mean_interactions,
                    row.aut.mean_interactions,
                ]
            )
        );
    }
}

/// Figures 6a, 6e, 6f: deviation, interactions per peer and keys moved per
/// peer over the six workloads and three population sizes.
fn fig6_population(effort: &Effort) {
    println!(
        "\n=== Figures 6a / 6e / 6f: populations {:?}, n_min = 5, delta_max = 10*n_min, {} repetitions ===",
        effort.populations, effort.repetitions
    );
    let rows = population_sweep(
        &effort.populations,
        5,
        effort.repetitions,
        ConstructionStrategy::Aep,
        0xF16,
    );
    let labels: Vec<String> = Distribution::paper_suite()
        .iter()
        .map(|d| d.label())
        .collect();
    for (title, value) in [
        ("Figure 6a — load-balance deviation", 0usize),
        ("Figure 6e — interactions per peer", 1),
        ("Figure 6f — data keys moved per peer", 2),
    ] {
        println!("\n{title}:");
        println!("{}", format_header("n", &labels));
        for &n in &effort.populations {
            let cells: Vec<f64> = Distribution::paper_suite()
                .iter()
                .map(|d| {
                    let row = rows
                        .iter()
                        .find(|r| r.n_peers == n && r.distribution == d.label())
                        .expect("row exists");
                    match value {
                        0 => row.deviation,
                        1 => row.interactions_per_peer,
                        _ => row.keys_moved_per_peer,
                    }
                })
                .collect();
            println!("{}", format_row(&n.to_string(), &cells));
        }
    }
}

/// Figure 6b: varying the required replication factor.
fn fig6b(effort: &Effort) {
    println!("\n=== Figure 6b: deviation for n = 256, n_min in {{5, 10, 15, 20, 25}} ===");
    let n_peers = *effort.populations.first().unwrap_or(&256);
    let rows = replication_sweep(n_peers, &[5, 10, 15, 20, 25], effort.repetitions, 0xF6B);
    let labels: Vec<String> = Distribution::paper_suite()
        .iter()
        .map(|d| d.label())
        .collect();
    println!("{}", format_header("n_min", &labels));
    for &n_min in &[5usize, 10, 15, 20, 25] {
        let cells: Vec<f64> = Distribution::paper_suite()
            .iter()
            .map(|d| {
                rows.iter()
                    .find(|r| r.n_min == n_min && r.distribution == d.label())
                    .map(|r| r.deviation)
                    .unwrap_or(f64::NAN)
            })
            .collect();
        println!("{}", format_row(&n_min.to_string(), &cells));
    }
}

/// Figure 6c: varying the storage bound (the sample available to the load
/// estimate).
fn fig6c(effort: &Effort) {
    println!("\n=== Figure 6c: deviation for n = 256, delta_max in {{10, 20, 30}} * n_min ===");
    let n_peers = *effort.populations.first().unwrap_or(&256);
    let rows = sample_size_sweep(n_peers, 5, &[10, 20, 30], effort.repetitions, 0xF6C);
    let labels: Vec<String> = Distribution::paper_suite()
        .iter()
        .map(|d| d.label())
        .collect();
    println!("{}", format_header("delta/n_min", &labels));
    for &m in &[10usize, 20, 30] {
        let cells: Vec<f64> = Distribution::paper_suite()
            .iter()
            .map(|d| {
                rows.iter()
                    .find(|r| r.delta_max == m * 5 && r.distribution == d.label())
                    .map(|r| r.deviation)
                    .unwrap_or(f64::NAN)
            })
            .collect();
        println!("{}", format_row(&m.to_string(), &cells));
    }
}

/// Figure 6d: theoretically derived probabilities versus heuristics.
fn fig6d(effort: &Effort) {
    println!(
        "\n=== Figure 6d: theory vs. heuristic probabilities (deviation, n_min = 5 and 10) ==="
    );
    let n_peers = *effort.populations.first().unwrap_or(&256);
    let labels: Vec<String> = Distribution::paper_suite()
        .iter()
        .map(|d| d.label())
        .collect();
    println!("{}", format_header("variant", &labels));
    for &n_min in &[5usize, 10] {
        for (name, strategy) in [
            ("theory", ConstructionStrategy::Aep),
            ("heuristic", ConstructionStrategy::Heuristic),
        ] {
            let cells: Vec<f64> = Distribution::paper_suite()
                .iter()
                .map(|d| {
                    let config = SimConfig {
                        n_peers,
                        n_min,
                        distribution: *d,
                        strategy,
                        seed: 0xF6D,
                        ..SimConfig::default()
                    };
                    run_repeated(&config, effort.repetitions).deviation
                })
                .collect();
            println!("{}", format_row(&format!("{name}-{n_min}"), &cells));
        }
    }
}

/// Section 4.3: parallel versus sequential construction complexity.
fn complexity(effort: &Effort) {
    println!("\n=== Section 4.3: construction complexity, parallel vs. sequential ===");
    println!(
        "{}",
        format_header(
            "n",
            &[
                "par rounds".into(),
                "par inter/peer".into(),
                "seq latency".into(),
                "seq msg/peer".into(),
            ]
        )
    );
    for &n in &effort.populations {
        let config = SimConfig {
            n_peers: n,
            seed: 0xC0,
            ..SimConfig::default()
        };
        let parallel = run_repeated(&config, effort.repetitions.max(1));
        let sequential = construct_sequentially(&config);
        println!(
            "{}",
            format_row(
                &n.to_string(),
                &[
                    parallel.rounds,
                    parallel.interactions_per_peer,
                    sequential.latency as f64,
                    sequential.messages as f64 / n as f64,
                ]
            )
        );
    }
}

/// Figures 7, 8, 9 and the Section 5.2 summary table from the deployment
/// runtime; returns the report so `--assert-reference` can check it.
fn deployment(effort: &Effort) -> pgrid_net::experiment::DeploymentReport {
    println!(
        "\n=== Figures 7 / 8 / 9 and Section 5.2 summary: deployment with {} peers ===",
        effort.deployment_peers
    );
    let config = NetConfig {
        n_peers: effort.deployment_peers,
        seed: 0x5_2,
        ..NetConfig::default()
    };
    let timeline = Timeline::default();
    let report = run_deployment(&config, &timeline);

    println!("\nFigures 7 & 8 & 9 — per-minute time series:");
    println!(
        "{}",
        format_header(
            "minute",
            &[
                "peers".into(),
                "maint B/s".into(),
                "query B/s".into(),
                "lat mean s".into(),
                "lat std s".into(),
            ]
        )
    );
    for sample in report.timeline.iter().step_by(2) {
        println!(
            "{}",
            format_row(
                &sample.minute.to_string(),
                &[
                    sample.peers_online as f64,
                    sample.maintenance_bps,
                    sample.query_bps,
                    sample.query_latency_mean_s,
                    sample.query_latency_std_s,
                ]
            )
        );
    }

    let query_phase: Vec<f64> = report
        .timeline
        .iter()
        .filter(|s| s.minute > timeline.construct_end_min && s.minute <= timeline.query_end_min)
        .map(|s| s.query_latency_mean_s)
        .filter(|v| *v > 0.0)
        .collect();
    let churn_phase: Vec<f64> = report
        .timeline
        .iter()
        .filter(|s| s.minute > timeline.query_end_min)
        .map(|s| s.query_latency_mean_s)
        .filter(|v| *v > 0.0)
        .collect();

    println!("\nSection 5.2 summary (paper values in parentheses):");
    println!(
        "  load-balance deviation : {:.3}   (paper: 0.39 deployment / 0.38 simulation)",
        report.balance_deviation
    );
    println!(
        "  mean path length       : {:.2}   (paper: slightly below 6 at ~300 peers)",
        report.mean_path_length
    );
    println!(
        "  mean query hops        : {:.2}   (paper: ≈ 3, about half the path length)",
        report.mean_query_hops
    );
    println!(
        "  query success rate     : {:.1}%  (paper: 95–100% even under churn)",
        100.0 * report.query_success_rate
    );
    println!(
        "  mean replication       : {:.2}   (paper: ≈ 5)",
        report.mean_replication
    );
    println!(
        "  query latency          : {:.2}s ± {:.2}s stable phase, {:.2}s ± {:.2}s under churn",
        mean(&query_phase),
        std_dev(&query_phase),
        mean(&churn_phase),
        std_dev(&churn_phase),
    );
    report
}
