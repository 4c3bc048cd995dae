//! Timers and memory statistics for the benchmark harness.
//!
//! The paper's Tables 2–3 report, per analyzer: total analysis time, its
//! split into dependency-generation (`Dep`) and fixpoint (`Fix`) phases, and
//! peak memory. [`Phase`] provides the stopwatch; [`peak_rss_bytes`] reads the
//! process high-water mark from `/proc/self/status` (Linux), which is the
//! same notion of "peak memory consumption" the paper reports.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A simple stopwatch for one named analysis phase.
#[derive(Debug)]
pub struct Phase {
    name: &'static str,
    start: Instant,
}

impl Phase {
    /// Starts timing a phase.
    pub fn start(name: &'static str) -> Self {
        Phase {
            name,
            start: Instant::now(),
        }
    }

    /// Phase name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stops the phase, returning its duration.
    pub fn stop(self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time so far, without stopping.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Thread-safe accumulating timers, one counter per named stage.
///
/// [`Phase`] times one scoped measurement on one thread; the parallel
/// pipeline instead needs many workers charging time to shared stage
/// buckets ("parse", "pre", "dep", "fix", …). Each bucket is an atomic
/// nanosecond counter, so concurrent [`StageTimers::add`] calls never block
/// each other; the registry mutex is touched only when a stage name is
/// first seen (or at snapshot time). Stage order in snapshots is first-use
/// order, which keeps reports deterministic.
#[derive(Debug, Default)]
pub struct StageTimers {
    stages: Mutex<Vec<(String, Arc<AtomicU64>)>>,
}

impl StageTimers {
    /// Creates an empty set of timers.
    pub fn new() -> Self {
        Self::default()
    }

    fn counter(&self, stage: &str) -> Arc<AtomicU64> {
        let mut stages = self.stages.lock();
        if let Some((_, c)) = stages.iter().find(|(name, _)| name == stage) {
            return c.clone();
        }
        let c = Arc::new(AtomicU64::new(0));
        stages.push((stage.to_string(), c.clone()));
        c
    }

    /// Charges `elapsed` to `stage`.
    pub fn add(&self, stage: &str, elapsed: Duration) {
        self.counter(stage)
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Runs `f`, charging its wall time to `stage`.
    pub fn time<R>(&self, stage: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(stage, start.elapsed());
        out
    }

    /// Total charged to `stage` so far.
    pub fn get(&self, stage: &str) -> Duration {
        let stages = self.stages.lock();
        stages
            .iter()
            .find(|(name, _)| name == stage)
            .map_or(Duration::ZERO, |(_, c)| {
                Duration::from_nanos(c.load(Ordering::Relaxed))
            })
    }

    /// All stages with their accumulated times, in first-use order.
    pub fn snapshot(&self) -> Vec<(String, Duration)> {
        let stages = self.stages.lock();
        stages
            .iter()
            .map(|(name, c)| {
                (
                    name.clone(),
                    Duration::from_nanos(c.load(Ordering::Relaxed)),
                )
            })
            .collect()
    }
}

/// One snapshot of `/proc/self/status` (Linux); `None` elsewhere.
fn proc_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// The `kB`-valued `field` (e.g. `VmHWM`) of a `/proc/self/status`
/// snapshot, in bytes. Fields compared with each other must come from the
/// same snapshot: the process keeps touching pages between two reads.
fn status_bytes(status: &str, field: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident-set size of this process in bytes, if the platform exposes
/// it (`VmHWM` in `/proc/self/status`); `None` elsewhere.
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes(&proc_status()?, "VmHWM")
}

/// Formats a duration as the paper's tables do: whole seconds for large
/// values, millisecond precision below 10 s.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 10.0 {
        format!("{secs:.0}")
    } else {
        format!("{secs:.3}")
    }
}

/// Formats a byte count in binary megabytes, as the paper's tables do.
pub fn fmt_megabytes(bytes: u64) -> String {
    format!("{:.0}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_measures_nonzero_time() {
        let p = Phase::start("test");
        assert_eq!(p.name(), "test");
        std::thread::sleep(Duration::from_millis(2));
        assert!(p.stop() >= Duration::from_millis(1));
    }

    #[test]
    fn stage_timers_accumulate_across_threads() {
        let timers = StageTimers::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        timers.add("work", Duration::from_micros(10));
                    }
                });
            }
        });
        assert_eq!(timers.get("work"), Duration::from_micros(4 * 50 * 10));
        let r = timers.time("timed", || 7);
        assert_eq!(r, 7);
        assert!(timers.get("timed") > Duration::ZERO);
        let names: Vec<String> = timers.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["work".to_string(), "timed".to_string()]);
    }

    #[test]
    fn rss_available_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().is_some_and(|b| b > 0));
            // Within one snapshot the kernel reports VmHWM >= VmRSS.
            let status = proc_status().expect("/proc/self/status is readable");
            let peak = status_bytes(&status, "VmHWM").expect("VmHWM should parse on Linux");
            let cur = status_bytes(&status, "VmRSS").expect("VmRSS should parse on Linux");
            assert!(peak >= cur, "high-water mark below current RSS");
            assert!(cur > 0);
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(90)), "90");
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.500");
    }

    #[test]
    fn megabyte_formatting() {
        assert_eq!(fmt_megabytes(24 * 1024 * 1024), "24");
    }
}
