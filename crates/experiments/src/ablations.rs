//! DESIGN.md §5: paired ablations of the design choices Metronome leans on.
//!
//! Not a figure of the paper. Each ablation runs the same simulated
//! scenario (0.5 s, the scenario's default seed) with and without one
//! design choice. The lines under the table state the direction each pair
//! shows, computed from its rows, and the test below asserts it. The
//! pairs are fixed: [`ExpConfig`]'s fidelity and seed do not apply.

use crate::{render_csv, render_table, ExpConfig, ExpOutput};
use metronome_core::MetronomeConfig;
use metronome_os::config::TimerSlack;
use metronome_os::sleep::SleepService;
use metronome_runtime::{run as run_scenario, RunReport, Scenario, TrafficSpec};
use metronome_sim::Nanos;

const DUR: Nanos = Nanos(500_000_000);

fn at_gbps(gbps: f64, cfg: MetronomeConfig) -> Scenario {
    Scenario::metronome("ablation", cfg, TrafficSpec::CbrGbps(gbps)).with_duration(DUR)
}

fn line_rate(cfg: MetronomeConfig) -> Scenario {
    at_gbps(10.0, cfg)
}

fn fixed_ts() -> MetronomeConfig {
    MetronomeConfig {
        fixed_ts: Some(Nanos::from_micros(10)),
        ..MetronomeConfig::default()
    }
}

/// Line rate with a daemon stealing a 120 µs burst every ~3 ms per core.
fn daemon_interference(m_threads: usize) -> Scenario {
    let mut sc = line_rate(MetronomeConfig {
        m_threads,
        ..MetronomeConfig::default()
    });
    sc.os.daemon.mean_interval = Some(Nanos::from_millis(3));
    sc.os.daemon.duration_mu_ln_ns = (120_000f64).ln();
    sc
}

/// Run the experiment.
pub fn run(_cfg: &ExpConfig) -> ExpOutput {
    // Paper defaults at line rate: the control of the first three pairs.
    let base = run_scenario(&line_rate(MetronomeConfig::default()));
    let nanosleep = |slack| {
        run_scenario(
            &line_rate(MetronomeConfig::default())
                .with_sleep_service(SleepService::Nanosleep(slack)),
        )
    };
    let on_off = TrafficSpec::OnOff {
        burst_pps: 14.88e6,
        on: Nanos::from_millis(10),
        off: Nanos::from_millis(90),
    };
    // (label, ablation, variant, report), in table order.
    let runs: Vec<(&str, &str, &str, RunReport)> = vec![
        (
            "diversity",
            "timeouts",
            "diversity: backups sleep TL",
            base.clone(),
        ),
        (
            "equal_timeouts",
            "timeouts",
            "equal timeouts",
            run_scenario(&line_rate(MetronomeConfig::default()).with_equal_timeouts()),
        ),
        (
            "adaptive_10g",
            "TS rule, 10 Gbps",
            "adaptive (eq. 13)",
            base.clone(),
        ),
        (
            "fixed_10g",
            "TS rule, 10 Gbps",
            "fixed TS = 10 us",
            run_scenario(&line_rate(fixed_ts())),
        ),
        (
            "adaptive_1g",
            "TS rule, 1 Gbps",
            "adaptive (eq. 13)",
            run_scenario(&at_gbps(1.0, MetronomeConfig::default())),
        ),
        (
            "fixed_1g",
            "TS rule, 1 Gbps",
            "fixed TS = 10 us",
            run_scenario(&at_gbps(1.0, fixed_ts())),
        ),
        ("hr_sleep", "sleep service", "hr_sleep", base),
        (
            "nanosleep_1us",
            "sleep service",
            "nanosleep, 1 us slack",
            nanosleep(TimerSlack::MinimalOneMicro),
        ),
        (
            "nanosleep_50us",
            "sleep service",
            "nanosleep, 50 us slack",
            nanosleep(TimerSlack::DefaultFifty),
        ),
        (
            "burst_metronome",
            "10 ms bursts every 100 ms",
            "metronome",
            run_scenario(
                &Scenario::metronome("ablation", MetronomeConfig::default(), on_off.clone())
                    .with_duration(DUR),
            ),
        ),
        (
            "burst_xdp",
            "10 ms bursts every 100 ms",
            "xdp on one core",
            run_scenario(&Scenario::xdp("ablation", 1, on_off).with_duration(DUR)),
        ),
        (
            "daemon_m1",
            "daemon interference",
            "M = 1",
            run_scenario(&daemon_interference(1)),
        ),
        (
            "daemon_m3",
            "daemon interference",
            "M = 3",
            run_scenario(&daemon_interference(3)),
        ),
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(_, ablation, variant, r)| {
            vec![
                ablation.to_string(),
                variant.to_string(),
                format!("{:.1}", r.cpu_total_pct),
                format!("{:.1}", r.busy_try_fraction * 100.0),
                format!("{:.3}", r.loss_permille()),
                format!("{:.1}", r.mean_vacation_us()),
                format!("{:.2}", r.throughput_mpps),
            ]
        })
        .collect();
    let headers = [
        "ablation",
        "variant",
        "cpu_pct",
        "busy_tries_pct",
        "loss_permille",
        "vacation_us",
        "tput_mpps",
    ];
    let reports: Vec<(String, RunReport)> = runs
        .into_iter()
        .map(|(label, _, _, r)| (format!("ablation_{label}"), r))
        .collect();
    let mut table = render_table(&headers, &rows);
    table.push_str(&directions(&reports));
    ExpOutput {
        id: "ablations",
        title: "DESIGN.md §5: design-choice ablations (line rate unless noted)".into(),
        table,
        csvs: vec![("ablations.csv".into(), render_csv(&headers, &rows))],
        reports,
    }
}

/// The report labelled `ablation_{label}`.
fn pick<'a>(reports: &'a [(String, RunReport)], label: &str) -> &'a RunReport {
    let key = format!("ablation_{label}");
    &reports
        .iter()
        .find(|(l, _)| *l == key)
        .unwrap_or_else(|| panic!("no ablation row {key}"))
        .1
}

/// What each pair shows, in words, from its own rows.
fn directions(reports: &[(String, RunReport)]) -> String {
    let r = |label: &str| pick(reports, label);
    let busy = |a: &str, b: &str| {
        let (a, b) = (r(a).busy_try_fraction, r(b).busy_try_fraction);
        format!("busy tries {:.1} -> {:.1} %", a * 100.0, b * 100.0)
    };
    let cpu = |a: &str, b: &str| {
        format!(
            "CPU {:.1} -> {:.1} %",
            r(a).cpu_total_pct,
            r(b).cpu_total_pct
        )
    };
    let vacation = |a: &str, b: &str| {
        let (a, b) = (r(a).mean_vacation_us(), r(b).mean_vacation_us());
        format!("mean vacation {a:.1} -> {b:.1} us")
    };
    let loss = |a: &str, b: &str| {
        let (a, b) = (r(a).loss_permille(), r(b).loss_permille());
        format!("loss {a:.2} -> {b:.2} permille")
    };
    let lines = [
        format!(
            "equal timeouts make every loser re-poll at TS: {}, {}",
            busy("diversity", "equal_timeouts"),
            cpu("diversity", "equal_timeouts")
        ),
        format!(
            "a fixed TS = 10 us costs more CPU at both loads: {} at 10 Gbps, {} at 1 Gbps",
            cpu("adaptive_10g", "fixed_10g"),
            cpu("adaptive_1g", "fixed_1g")
        ),
        format!(
            "1 us of slack lands beside hr_sleep: {}",
            vacation("hr_sleep", "nanosleep_1us")
        ),
        format!(
            "the 50 us default slack wakes anywhere in a 50 us window: {}, {}",
            vacation("hr_sleep", "nanosleep_50us"),
            loss("hr_sleep", "nanosleep_50us")
        ),
        format!(
            "one-core XDP has a static queue/core layout and drops what one core cannot carry: {} (§V-D)",
            loss("burst_metronome", "burst_xdp")
        ),
        format!(
            "two backup threads cover some of the daemon's stalls: {} (§V-E)",
            loss("daemon_m1", "daemon_m3")
        ),
    ];
    lines
        .iter()
        .map(|l| format!("\n-> {l}"))
        .collect::<String>()
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_ablation_points_the_way_its_conclusion_says() {
        let out = run(&ExpConfig::default());
        let r = |label| pick(&out.reports, label);

        // Equal timeouts: more busy tries and more CPU.
        assert!(
            r("equal_timeouts").busy_try_fraction > 2.0 * r("diversity").busy_try_fraction,
            "busy tries {} !> 2 x {}",
            r("equal_timeouts").busy_try_fraction,
            r("diversity").busy_try_fraction
        );
        assert!(r("equal_timeouts").cpu_total_pct > r("diversity").cpu_total_pct);

        // A fixed TS costs CPU at both loads.
        for (adaptive, fixed) in [("adaptive_10g", "fixed_10g"), ("adaptive_1g", "fixed_1g")] {
            assert!(
                r(fixed).cpu_total_pct > r(adaptive).cpu_total_pct,
                "{fixed} cpu {} !> {adaptive} cpu {}",
                r(fixed).cpu_total_pct,
                r(adaptive).cpu_total_pct
            );
        }

        // 50 µs of slack inflates the vacation and the loss; 1 µs of slack
        // lands within a tenth of that inflation of hr_sleep.
        let v = |label| r(label).mean_vacation_us();
        let inflation = v("nanosleep_50us") - v("hr_sleep");
        assert!(inflation > 10.0, "50 us slack inflates V by {inflation} us");
        assert!((v("nanosleep_1us") - v("hr_sleep")).abs() < 0.1 * inflation);
        assert!(r("nanosleep_50us").loss_permille() > 10.0 * r("hr_sleep").loss_permille());

        // One-core XDP drops far more of a line-rate burst.
        assert!(r("burst_xdp").loss_permille() > 10.0 * r("burst_metronome").loss_permille());

        // Backup threads lose less under daemon interference.
        assert!(r("daemon_m3").loss_permille() < r("daemon_m1").loss_permille());
    }
}
