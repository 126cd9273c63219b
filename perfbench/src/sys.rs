//! What the benchmark reads from the operating system: a process's peak
//! resident set, and the CPU time the machine lost to steal.

use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// process) in MiB, or `None` when `/proc` does not report it.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU time counters of the first `cpu` line of `/proc/stat`:
/// `(steal, total)` in clock ticks.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// The machine's CPU-time counters at one instant, for the share lost
/// to steal over an interval.
pub struct StealProbe {
    start: Option<(u64, u64)>,
}

impl StealProbe {
    /// Reads the counters now.
    pub fn start() -> Self {
        Self { start: cpu_ticks() }
    }

    /// Percentage of all CPU time since [`StealProbe::start`] that the
    /// hypervisor stole, or `None` when `/proc/stat` is unreadable or no
    /// tick elapsed.
    pub fn steal_pct(&self) -> Option<f64> {
        let (s0, t0) = self.start?;
        let (s1, t1) = cpu_ticks()?;
        let total = t1.checked_sub(t0).filter(|&t| t > 0)?;
        Some(100.0 * s1.saturating_sub(s0) as f64 / total as f64)
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times one call of `f`, returning its value and the wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Whether a run that began at `start` should attempt another round:
/// until `budget` has passed and at least `min_rounds` are done.
pub fn more_rounds(start: Instant, budget: Duration, done: usize, min_rounds: usize) -> bool {
    done < min_rounds || start.elapsed() < budget
}

/// Runs `f` with `M3D_JOBS` set to `jobs` (unset for `None`), then
/// restores the variable. The environment is process-wide: call this
/// only while no other thread of the process runs.
pub fn with_jobs<T>(jobs: Option<&str>, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var("M3D_JOBS").ok();
    set_jobs(jobs);
    let out = f();
    set_jobs(saved.as_deref());
    out
}

fn set_jobs(jobs: Option<&str>) {
    match jobs {
        Some(v) => std::env::set_var("M3D_JOBS", v),
        None => std::env::remove_var("M3D_JOBS"),
    }
}
