//! `m3d-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! m3d-perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!               [--repeat N] --serve-bin PATH --work-dir DIR
//! ```
//!
//! Runs one workload (see `README.md`) and prints every metric by name
//! with its unit, the operations attempted and failed, and the share of
//! CPU time the machine lost to steal; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs every workload's traced
//! operation, with spans around each layer call, and reports the
//! per-layer metrics (the selected workload's three times, for the
//! tracing overhead). `--repeat N` runs the workload in N child
//! processes on seeds `seed..seed+N` and prints each end-to-end
//! metric's median, quartiles and spread against its bound in
//! `BENCHMARK.json`. The process exits non-zero when an output check
//! fails.

mod disk;
mod fig2;
mod obs10;
mod serve;
mod stats;
mod stream;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use serde::Value;

use crate::trace::Tracer;

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["fig2_cold", "obs10_serial", "disk_replay", "serve_mix"];

/// The end-to-end metrics every untraced run reports, in order.
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "op_ms", "ops_per_s"];

/// The per-layer metrics every traced run reports, in order.
const PER_LAYER: [&str; 42] = [
    "netlist.synth_ms",
    "pd.floorplan_ms",
    "pd.cluster_ms",
    "pd.place_ms",
    "pd.legalize_ms",
    "pd.opt_ms",
    "pd.cts_ms",
    "pd.power_ms",
    "pd.report_ms",
    "pd.route_ms",
    "pd.sta_ms",
    "pd.place_steps",
    "pd.opt_rounds",
    "pd.seeded_run_ms",
    "engine.fetch_overhead_ms",
    "par_map.calls",
    "thermal.solve_ms",
    "thermal.solve_iters",
    "thermal.power_map_ms",
    "thermal.lumped_ms",
    "thermal.transient_ms",
    "thermal.solve_ms.default_jobs",
    "store.put_ms",
    "store.envelope_mb",
    "store.get_ms",
    "store.get_report_ms",
    "store.neighbours_ms",
    "disk.report_hit_ms",
    "disk.artifact_hit_ms",
    "core.sensitivity_ms",
    "ingest.parse_ms",
    "serve.ping_ms",
    "serve.hit_ms",
    "serve.sensitivity_ms",
    "serve.flow_ms",
    "serve.ingest_ms",
    "serve.executed",
    "serve.cache_hits",
    "serve.coalesced",
    "serve.flow_warm_hits",
    "serve.rss_per_flow_kb",
    "trace.overhead_ms",
];

/// Command-line options every workload receives.
pub struct Opts {
    /// Seeds the workload's inputs.
    pub seed: u64,
    /// How long the timed part of a run lasts, at least.
    pub budget: Duration,
    /// The release `m3d-serve` binary `serve_mix` spawns.
    pub serve_bin: PathBuf,
    /// Scratch directory for envelopes and span dumps.
    pub work_dir: PathBuf,
}

/// One reported metric.
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// What the value summarises, for the human-readable line.
    pub basis: String,
}

/// The outcome of one run: counts, output checks and metrics.
#[derive(Default)]
pub struct Run {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Metrics for the JSON line, in print order.
    pub metrics: Vec<Metric>,
    /// Further human-readable lines (per-kind medians, tails, notes).
    pub notes: Vec<String>,
}

impl Run {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems.push(what());
        }
    }

    /// Records an operation that returned an error.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.notes.len() < 50 {
            self.notes.push(format!("operation failed: {what}"));
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, basis: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            basis: basis.into(),
        });
    }

    /// Adds the median of `samples` as a metric (NaN without samples).
    pub fn median(&mut self, name: &str, samples: &[f64], unit: &'static str, what: &str) {
        let value = if samples.is_empty() {
            f64::NAN
        } else {
            stats::median(samples)
        };
        self.metric(
            name,
            value,
            unit,
            format!("median of {} {what}", samples.len()),
        );
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Orders the metrics as `names` lists them; a missing one is
    /// reported as not measured (NaN), which makes the run incorrect.
    fn complete(&mut self, names: &[&str]) {
        let mut ordered = Vec::with_capacity(names.len());
        for &name in names {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None => ordered.push(Metric {
                    name: name.to_owned(),
                    value: f64::NAN,
                    unit: "",
                    basis: "not measured".to_owned(),
                }),
            }
        }
        self.metrics = ordered;
    }

    /// Whether every check held and every metric is a finite number.
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result object of the final output line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Reports set-up times, given in ms, as the `setup_s` metric (median, in s).
pub fn setup_metric(run: &mut Run, setup_ms: &[f64], what: &str) {
    let s: Vec<f64> = setup_ms.iter().map(|ms| ms / 1e3).collect();
    run.median("setup_s", &s, "s", what);
}

/// Reports a serial workload's operation times as `op_ms` (median) and
/// `ops_per_s` (operations per second of summed operation time).
pub fn report_ops(run: &mut Run, times_ms: &[f64], what: &str) {
    run.median("op_ms", times_ms, "ms", what);
    let busy_s: f64 = times_ms.iter().sum::<f64>() / 1e3;
    let rate = if busy_s > 0.0 {
        times_ms.len() as f64 / busy_s
    } else {
        f64::NAN
    };
    run.metric(
        "ops_per_s",
        rate,
        "1/s",
        format!("{} {what} / their summed time", times_ms.len()),
    );
    let each: Vec<String> = times_ms.iter().map(|t| format!("{t:.0}")).collect();
    run.note(format!("{what}, ms each: {}", each.join(" ")));
}

/// Reports the tracing overhead of `workload`: the median traced
/// operation minus the median untraced one, measured in one process.
pub fn report_overhead(run: &mut Run, workload: &str, untraced: &[f64], traced: &[f64]) {
    if untraced.is_empty() || traced.is_empty() {
        return;
    }
    let (u, t) = (stats::median(untraced), stats::median(traced));
    run.metric(
        "trace.overhead_ms",
        t - u,
        "ms",
        format!(
            "{workload}: traced median {t:.2} ms of {} minus untraced {u:.2} ms of {}",
            traced.len(),
            untraced.len()
        ),
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: m3d-perfbench --workload {{{}|all}} [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat N] --serve-bin PATH --work-dir DIR",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
        repeat: 0,
        serve_bin: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        let num = |v: &str| v.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = num(&value),
            "--seconds" => a.seconds = num(&value).max(1),
            "--trace" => a.trace = num(&value) != 0,
            "--repeat" => a.repeat = usize::try_from(num(&value)).unwrap_or_else(|_| usage()),
            "--serve-bin" => a.serve_bin = value.into(),
            "--work-dir" => a.work_dir = value.into(),
            _ => usage(),
        }
    }
    let known = WORKLOADS.contains(&a.workload.as_str());
    if !(known || a.workload == "all" && a.repeat == 0) {
        usage();
    }
    if a.serve_bin.as_os_str().is_empty() || a.work_dir.as_os_str().is_empty() {
        usage();
    }
    a
}

/// Runs workload `name` once, untraced (end-to-end metrics) or traced
/// (per-layer metrics).
fn run_one(name: &str, opts: &Opts, traced: bool) -> Run {
    let mut run = Run::default();
    if traced {
        let tracer = Tracer::new();
        // The selected workload repeats its traced operation to measure
        // the tracing overhead; every other workload's traced operation
        // runs once, so each traced run reports every layer.
        for w in WORKLOADS {
            let reps = if w == name { 3 } else { 0 };
            match w {
                "fig2_cold" => fig2::traced(opts, &tracer, &mut run, reps),
                "obs10_serial" => obs10::traced(opts, &tracer, &mut run, reps),
                "disk_replay" => disk::traced(opts, &tracer, &mut run, reps),
                _ => serve::traced(opts, &tracer, &mut run, reps),
            }
        }
        let path = opts
            .work_dir
            .join(format!("spans-{name}-{}.json", std::process::id()));
        match std::fs::write(&path, tracer.to_json()) {
            Ok(()) => run.note(format!("spans written to {}", path.display())),
            Err(e) => run.note(format!("could not write spans to {}: {e}", path.display())),
        }
        run.complete(&PER_LAYER);
    } else {
        match name {
            "fig2_cold" => fig2::run(opts, &mut run),
            "obs10_serial" => obs10::run(opts, &mut run),
            "disk_replay" => disk::run(opts, &mut run),
            _ => serve::run(opts, &mut run),
        }
        // The serial workloads do their work in this process.
        if name != "serve_mix" {
            let rss = sys::peak_rss_mib("self").unwrap_or(f64::NAN);
            run.metric("peak_rss_mb", rss, "MiB", "benchmark process VmHWM");
        }
        run.complete(&END_TO_END);
    }
    run
}

fn print_run(name: &str, run: &Run, steal: Option<f64>) {
    println!("# workload {name}");
    for m in &run.metrics {
        println!("{:<34} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.basis);
    }
    for n in &run.notes {
        println!("  {n}");
    }
    for p in &run.problems {
        println!("CHECK FAILED: {p}");
    }
    match steal {
        Some(pct) => println!("cpu steal during run: {pct:.2} % of machine CPU time"),
        None => println!("cpu steal during run: unavailable"),
    }
    println!("attempted {} failed {}", run.attempted, run.failed);
    println!("{}", run.json());
}

/// End-to-end metric bounds from `BENCHMARK.json` in the working
/// directory, by metric name.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str_value(&text) else {
        return Vec::new();
    };
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| match m.get("name")? {
            Value::Str(name) => Some((name.clone(), m.get("bound")?.as_f64()?)),
            _ => None,
        })
        .collect()
}

/// `--repeat N`: runs the workload in N child processes, one seed each,
/// and reports each end-to-end metric's median, quartiles and spread
/// against its bound. Returns whether every child run was correct.
fn repeat(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    let mut shares = Vec::new();
    let mut all_correct = true;
    for i in 0..args.repeat {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .arg("--serve-bin")
            .arg(&args.serve_bin)
            .arg("--work-dir")
            .arg(&args.work_dir)
            .output()
            .expect("spawn a benchmark run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let Ok(doc) = serde_json::from_str_value(last) else {
            println!("seed {seed}: no result line (exit {:?})", out.status.code());
            all_correct = false;
            continue;
        };
        all_correct &= matches!(doc.get("correct"), Some(Value::Bool(true)));
        let attempted = doc.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        let failed = doc.get("failed").and_then(Value::as_u64).unwrap_or(0);
        shares.push(format!("{failed}/{attempted}"));
        let mut line = format!("seed {seed}:");
        for (name, m) in doc.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
            let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            line.push_str(&format!(" {name}={v:.4}"));
            match values.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(v),
                None => values.push((name.clone(), vec![v])),
            }
        }
        println!("{line}");
    }
    println!("failed/attempted per run: {}", shares.join(" "));
    let bounds = bounds();
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>8} {:>7} {:>7}",
        "metric", "q1", "median", "q3", "spread", "bound", "share"
    );
    for (name, vs) in &values {
        if vs.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(vs);
        let spread = stats::spread(vs);
        let bound = bounds.iter().find(|b| &b.0 == name);
        let (b, share) = bound.map_or(("-".to_owned(), "-".to_owned()), |b| {
            (format!("{:.3}", b.1), format!("{:.2}", spread / b.1))
        });
        println!("{name:<14} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {b:>7} {share:>7}");
    }
    all_correct
}

fn main() {
    let args = parse_args();
    if args.repeat > 0 {
        let ok = repeat(&args);
        std::process::exit(i32::from(!ok));
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let opts = Opts {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        serve_bin: args.serve_bin.clone(),
        work_dir: args.work_dir.clone(),
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        let probe = sys::StealProbe::start();
        let run = run_one(name, &opts, args.trace);
        print_run(name, &run, probe.steal_pct());
        ok &= run.correct();
    }
    std::process::exit(i32::from(!ok));
}
