//! # metronome-experiments — regenerate the paper's evaluation
//!
//! One module per table/figure of Metronome's §V (see DESIGN.md §4 for the
//! experiment index). Each module exposes `run(&ExpConfig) -> ExpOutput`:
//! a paper-style text table plus CSV series for plotting. The
//! [`ablations`] module does the same for DESIGN.md §5's paired
//! design-choice ablations.
//!
//! Two fidelity levels:
//! * **quick** (default) — seconds-long simulations; every shape the paper
//!   reports is already stable at this scale;
//! * **full** (`--full` / [`ExpConfig::full`]) — paper-faithful durations
//!   (60 s line-rate runs, the 60 s ramp, the 3-minute unbalanced test).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod fig01_sleep;
pub mod fig04_vacation_pdf;
pub mod fig05_vbar;
pub mod fig06_tl;
pub mod fig07_m;
pub mod fig08_latency_m;
pub mod fig09_adaptation;
pub mod fig10_three_way;
pub mod fig11_power;
pub mod fig12_ferret;
pub mod fig13_14_multiqueue;
pub mod fig15_rate_sweep;
pub mod fig16_applications;
pub mod tab1_vacation_targets;
pub mod tab3_unbalanced;

use metronome_runtime::RunReport;
use metronome_sim::Nanos;

/// Global experiment options.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Paper-faithful durations instead of quick ones.
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Run the comparative experiments on the realtime backend
    /// (`--realtime`): real threads, wall-clock paced load generation,
    /// functional packet processors, with every system mapped onto its
    /// retrieval discipline — Metronome (Listing 2), static DPDK
    /// (busy-polling `BusyPoll` workers), XDP (doorbell-parked
    /// `InterruptLike` workers). fig10 runs all three systems this way
    /// (plus an idle row); fig15/fig16 run both of theirs. Rates are
    /// scaled down ×1000 (kpps instead of Mpps) — an in-process generator
    /// cannot pace tens of Mpps — so realtime rows validate the pipeline
    /// and relative shapes, not absolute line-rate numbers. Experiments
    /// without a realtime path ignore it.
    pub realtime: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            full: false,
            seed: 0x4E72_0520,
            realtime: false,
        }
    }
}

impl ExpConfig {
    /// Pick a duration depending on fidelity.
    pub fn dur(&self, quick_s: f64, full_s: f64) -> Nanos {
        Nanos::from_secs_f64(if self.full { full_s } else { quick_s })
    }

    /// Duration for realtime runs (wall-clock seconds, so much shorter).
    pub fn realtime_dur(&self) -> Nanos {
        Nanos::from_secs_f64(if self.full { 2.0 } else { 0.25 })
    }
}

/// The rendered result of one experiment.
#[derive(Clone, Debug)]
pub struct ExpOutput {
    /// Short id: "fig10", "table1", ...
    pub id: &'static str,
    /// Human title quoting what the paper shows.
    pub title: String,
    /// Paper-style text table.
    pub table: String,
    /// (filename, content) CSVs for plotting.
    pub csvs: Vec<(String, String)>,
    /// (label, report) pairs for the machine-readable path: the raw
    /// [`RunReport`] behind each cell of the table, serialized to JSON by
    /// the `experiments` binary when `--json` is passed. Modules that only
    /// derive scalar sweeps leave this empty.
    pub reports: Vec<(String, RunReport)>,
}

/// Render an aligned ASCII table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Simple CSV rendering.
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// All experiment ids: the paper's in paper order, then the ablations.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig4",
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table2",
    "fig13",
    "fig14",
    "fig15",
    "table3",
    "fig16",
    "ablations",
];

/// Run one experiment by id (table2 is produced by fig12's module; fig14 by
/// fig13's).
pub fn run_experiment(id: &str, cfg: &ExpConfig) -> Option<ExpOutput> {
    match id {
        "fig1" => Some(fig01_sleep::run(cfg)),
        "fig4" => Some(fig04_vacation_pdf::run(cfg)),
        "table1" => Some(tab1_vacation_targets::run(cfg)),
        "fig5" => Some(fig05_vbar::run(cfg)),
        "fig6" => Some(fig06_tl::run(cfg)),
        "fig7" => Some(fig07_m::run(cfg)),
        "fig8" => Some(fig08_latency_m::run(cfg)),
        "fig9" => Some(fig09_adaptation::run(cfg)),
        "fig10" => Some(fig10_three_way::run(cfg)),
        "fig11" => Some(fig11_power::run(cfg)),
        "fig12" | "table2" => Some(fig12_ferret::run(cfg)),
        "fig13" | "fig14" => Some(fig13_14_multiqueue::run(cfg)),
        "fig15" => Some(fig15_rate_sweep::run(cfg)),
        "table3" => Some(tab3_unbalanced::run(cfg)),
        "fig16" => Some(fig16_applications::run(cfg)),
        "ablations" => Some(ablations::run(cfg)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].ends_with("2"));
    }

    #[test]
    fn csv_renders() {
        let c = render_csv(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "x,y\n1,2\n");
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("fig99", &ExpConfig::default()).is_none());
    }
}
