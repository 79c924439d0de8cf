//! `bench` — the repo's end-to-end pipeline benchmark (README.md).
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! bench [--seed N] [--seconds S] [--out FILE]           all workloads, both modes
//! bench --list                                          names, units, bounds
//! ```
//!
//! One run drives the real `metronome_runtime::try_run_realtime_with`
//! through one open-loop workload, prints every metric by name and unit,
//! checks the outputs, and ends with one JSON object on the last line of
//! standard output. Any failed check makes the exit code non-zero.

mod layers;
mod measure;
mod procfs;
mod run;
mod spans;
mod spec;
mod workload;

use metronome_telemetry::Json;
use run::Checks;
use spec::{Metrics, Spec};
use std::process::{Command, ExitCode};

/// Generator lateness p99 beyond which a run is flagged `disturbed`: the
/// host stalled the open-loop generator itself, so latency and loss in
/// that run describe the host, not the system under test.
const DISTURBED_LATE_P99_US: f64 = 1000.0;

/// Run length of `--quick`, seconds.
const QUICK_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        trace_out: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.seconds = Some(QUICK_SECONDS),
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = Some(value()?),
            "--list" => args.list = true,
            other => return Err(format!("unknown argument '{other}' (see README.md)")),
        }
    }
    Ok(args)
}

/// One workload, one mode: prints the host guard, the metric table and
/// the result line. `Ok(false)` when an output check failed.
fn run_one(spec: &Spec, args: &Args, name: &str) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let sc = workload::scenario(name, args.seed, metronome_sim::Nanos::SECOND)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let busy = workload::busy_threads(&sc);

    let mut checks = Checks::default();
    let mut metrics = Metrics::new(if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    });
    let done = if args.trace {
        layers::per_layer(
            name,
            args.seed,
            seconds,
            args.trace_out.as_deref(),
            &mut metrics,
            &mut checks,
        )?
    } else {
        measure::end_to_end(name, args.seed, seconds, &mut metrics, &mut checks)?
    };
    let missing = metrics.missing();
    checks.require(missing.is_empty(), || {
        format!("metrics declared in BENCHMARK.json but not measured: {missing:?}")
    });

    println!(
        "workload {name}  seed {}  seconds {seconds}  trace {}",
        args.seed, args.trace as u8
    );
    println!(
        "host: nproc {nproc}  busy threads {busy} ({} retrieval + {} generator)  oversubscribed: {}",
        busy - sc.gen_shards,
        sc.gen_shards,
        busy > nproc
    );
    println!(
        "generator lateness: p99 {:.1} us  max {:.1} us  disturbed: {}",
        done.gen_late_p99_us,
        done.gen_late_max_us,
        done.gen_late_p99_us > DISTURBED_LATE_P99_US
    );
    for note in &done.notes {
        println!("{note}");
    }
    print!("{}", metrics.table());
    for failure in checks.failures() {
        println!("CHECK FAILED: {failure}");
    }
    let correct = checks.failures().is_empty();
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", done.attempted.max(1))
            .with("failed", done.failed)
            .with("metrics", metrics.to_json())
            .render()
    );
    Ok(correct)
}

/// Every workload in both modes, each in a fresh child process of this
/// binary so CPU time and peak memory are per run; the children's result
/// lines are gathered into one JSON document.
fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let mut all_correct = true;
    let mut results = Vec::new();
    for (name, _) in &spec.workloads {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace]);
            if let (Some(path), "1") = (&args.trace_out, trace) {
                cmd.args(["--trace-out", &format!("{path}.{name}.json")]);
            }
            let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            all_correct &= output.status.success();
            let result = stdout
                .lines()
                .last()
                .and_then(|line| Json::parse(line).ok())
                .unwrap_or(Json::Null);
            results.push(
                Json::obj()
                    .with("workload", name.as_str())
                    .with("trace", trace == "1")
                    .with("result", result),
            );
        }
    }
    if let Some(path) = &args.out {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = Json::obj()
            .with("seed", args.seed)
            .with("seconds", seconds)
            .with("nproc", nproc)
            .with("runs", Json::Arr(results));
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let spec = Spec::load()?;
        if args.list {
            print!("{}", spec.listing());
            return Ok(true);
        }
        match &args.workload {
            Some(name) => run_one(&spec, &args, name),
            None => run_all(&spec, &args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
