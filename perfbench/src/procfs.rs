//! `/proc` readers for what the runner cannot report about itself: CPU
//! time the whole process really burned, per-thread on-CPU time, and peak
//! resident memory. Parsing is split from reading so the parsers are
//! tested on fixture strings.

use std::collections::BTreeMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `utime`/`stime` are counted in `USER_HZ` ticks, which Linux fixes at
/// 100 for every architecture's user-space ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (`utime + stime`) from a `/proc/<pid>/stat` line. The
/// command name may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// On-CPU nanoseconds (the first field) from a `schedstat` line:
/// `run_ns wait_ns timeslices`.
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MiB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds this process has consumed so far.
pub fn process_cpu_seconds() -> Option<f64> {
    parse_stat_cpu_seconds(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&fs::read_to_string("/proc/self/status").ok()?)
}

/// First and last sighting of one thread by the [`ThreadMonitor`].
#[derive(Clone, Debug)]
pub struct ThreadUsage {
    /// The thread's `comm` (kernel-truncated to 15 bytes).
    pub comm: String,
    /// Whether this is the process's main thread (`tid == pid`).
    pub is_main: bool,
    first: (Instant, u64),
    last: (Instant, u64),
}

impl ThreadUsage {
    /// On-CPU time between the first and last sighting, as a percentage
    /// of that span; 0 for a thread seen once.
    pub fn oncpu_pct(&self) -> f64 {
        let span = self.last.0.duration_since(self.first.0).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        (self.last.1 - self.first.1) as f64 / 1e9 / span * 100.0
    }
}

/// Samples `/proc/self/task/*/{comm,schedstat}` on an interval while a
/// run is in flight, keeping each thread's first and last reading.
#[derive(Default)]
pub struct ThreadMonitor {
    threads: BTreeMap<u32, ThreadUsage>,
}

impl ThreadMonitor {
    /// Sample until `stop` is raised (one last sample after that). Meant
    /// to run on a scoped thread of its own: it sleeps between samples,
    /// so it costs microseconds of CPU per second.
    pub fn watch(interval: Duration, stop: &AtomicBool) -> ThreadMonitor {
        let mut monitor = ThreadMonitor::default();
        loop {
            let stopping = stop.load(Ordering::Acquire);
            monitor.sample();
            if stopping {
                return monitor;
            }
            std::thread::sleep(interval);
        }
    }

    fn sample(&mut self) {
        let pid = std::process::id();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return;
        };
        for task in tasks.flatten() {
            let Some(tid) = task
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            // A thread can exit between the listing and the reads.
            let Some(run_ns) = fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .as_deref()
                .and_then(parse_schedstat_run_ns)
            else {
                continue;
            };
            let now = (Instant::now(), run_ns);
            match self.threads.get_mut(&tid) {
                Some(usage) => usage.last = now,
                None => {
                    let comm = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
                    self.threads.insert(
                        tid,
                        ThreadUsage {
                            comm: comm.trim().to_string(),
                            is_main: tid == pid,
                            first: now,
                            last: now,
                        },
                    );
                }
            }
        }
    }

    /// Every thread seen.
    pub fn threads(&self) -> impl Iterator<Item = &ThreadUsage> {
        self.threads.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_seconds_survives_a_hostile_comm() {
        // comm "a) b (c" — spaces and parentheses inside the name.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_seconds("4242 (bench) S 1 2"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn schedstat_takes_the_run_field() {
        assert_eq!(
            parse_schedstat_run_ns("123456789 42 7\n"),
            Some(123_456_789)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_reported_in_mib() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(process_cpu_seconds().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        let stop = AtomicBool::new(true);
        let monitor = ThreadMonitor::watch(Duration::from_millis(1), &stop);
        assert!(monitor.threads().any(|t| !t.comm.is_empty()));
    }
}
