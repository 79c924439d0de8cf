//! Command-line harness regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [--full] [--realtime] [--json] [--seed N] [--out DIR]
//!             [all | fig1 | fig4 | table1 | fig5 | fig6 | fig7 | fig8 |
//!              fig9 | fig10 | fig11 | fig12 | table2 | fig13 | fig14 |
//!              fig15 | table3 | fig16 | ablations]...
//! ```
//!
//! `--realtime` switches the Metronome points of fig15/fig16 to the
//! real-thread pipeline (×1000-scaled rates; see `ExpConfig::realtime`).
//!
//! Prints paper-style tables to stdout and writes CSV series under the
//! output directory (default `results/`). With `--json`, every raw
//! `RunReport` behind a table cell is additionally written as
//! machine-readable JSON (`<label>.json`, via the telemetry JSON
//! writer), including the windowed telemetry series when the experiment
//! sampled one.

use metronome_experiments::{run_experiment, ExpConfig, ALL_EXPERIMENTS};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn main() {
    let mut cfg = ExpConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut json = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => cfg.full = true,
            "--realtime" => cfg.realtime = true,
            "--json" => json = true,
            "--seed" => {
                cfg.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--full] [--realtime] [--json] [--seed N] [--out DIR] [all | {}]",
                    ALL_EXPERIMENTS.join(" | ")
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    // fig12 produces table2, fig13 produces fig14 — dedup by module.
    let mut done: BTreeSet<&'static str> = BTreeSet::new();
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    for id in &wanted {
        let Some(out) = run_experiment(id, &cfg) else {
            eprintln!("unknown experiment: {id} (try --help)");
            continue;
        };
        if !done.insert(out.id) {
            continue;
        }
        println!("==============================================================");
        println!(
            "{} [{}]",
            out.title,
            if cfg.full { "full" } else { "quick" }
        );
        println!("==============================================================");
        println!("{}", out.table);
        for (name, content) in &out.csvs {
            let path = out_dir.join(name);
            std::fs::write(&path, content).expect("write csv");
            println!("  -> {}", path.display());
        }
        if json {
            for (label, report) in &out.reports {
                let path = out_dir.join(format!("{label}.json"));
                std::fs::write(&path, report.to_json()).expect("write report json");
                println!("  -> {}", path.display());
            }
        }
        println!();
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
