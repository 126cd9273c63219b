//! `disk_replay`: the disk tier of the flow cache. Set-up runs the cold
//! fig2 pair on a cache over a scratch directory, which writes both flow
//! envelopes. Operations then alternate on fresh caches over that
//! directory: (a) the `fig2_physical_design` case, answered by two
//! report hits, and (b) the artifact-level fetch of the fig2 M3D
//! configuration, which replays the flow from the envelope's seed.

use std::path::{Path, PathBuf};

use m3d_core::engine::{ArtifactStore, DiskStore, FetchOpts, FlowCache};
use m3d_pd::{FlowConfig, PowerDensityGrid};

use crate::fig2::{config_2d, config_m3d, run_case};
use crate::sys::{more_rounds, timed};
use crate::trace::Tracer;
use crate::{setup_metric, Opts, Run};

/// Fewest (a)+(b) rounds a run measures, however short its budget.
const MIN_ROUNDS: usize = 3;

/// What set-up leaves for the operations to be checked against.
struct Fixture {
    dir: PathBuf,
    cold_payload: String,
    m3d: FlowConfig,
    density: PowerDensityGrid,
}

/// A fresh scratch directory `name` under the work directory.
fn fresh_dir(opts: &Opts, name: &str) -> PathBuf {
    let dir = opts
        .work_dir
        .join(format!("disk-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Set-up: the cold fig2 pair on a cache over `dir`, writing both
/// envelopes; returns what the operations are checked against.
fn setup(dir: PathBuf) -> Result<Fixture, String> {
    let flows = FlowCache::with_disk_dir(&dir);
    let cold_payload = run_case(&flows, false)?;
    let r2d = flows
        .fetch(&config_2d(), FetchOpts::report())
        .map_err(|e| e.to_string())?
        .report;
    let m3d = config_m3d(&r2d);
    let density = flows
        .fetch(&m3d, FetchOpts::artifacts())
        .map_err(|e| e.to_string())?
        .artifacts
        .expect("artifact-level fetch")
        .1
        .power
        .density_grid
        .clone();
    Ok(Fixture {
        dir,
        cold_payload,
        m3d,
        density,
    })
}

/// Operation (a): the fig2 case on a fresh cache over the directory.
fn report_hit(run: &mut Run, fx: &Fixture) -> Option<f64> {
    run.attempted += 1;
    let flows = FlowCache::with_disk_dir(&fx.dir);
    match timed(|| run_case(&flows, false)) {
        (Ok(payload), ms) => {
            let s = flows.stats();
            run.check(s.disk_hits == 2 && s.misses == 0, || {
                format!("report-hit operation reported {s:?}, expected 2 disk hits, 0 misses")
            });
            run.check(payload == fx.cold_payload, || {
                "report-hit payload differs from the cold payload".to_owned()
            });
            Some(ms)
        }
        (Err(e), _) => {
            run.fail(e);
            None
        }
    }
}

/// Operation (b): the artifact-level fetch of the M3D configuration on
/// a fresh cache over the directory.
fn artifact_hit(run: &mut Run, fx: &Fixture) -> Option<f64> {
    run.attempted += 1;
    let flows = FlowCache::with_disk_dir(&fx.dir);
    match timed(|| flows.fetch(&fx.m3d, FetchOpts::artifacts())) {
        (Ok(fetch), ms) => {
            let grid = &fetch
                .artifacts
                .as_ref()
                .expect("artifact-level fetch")
                .1
                .power
                .density_grid;
            run.check(*grid == fx.density, || {
                "artifact fetch returned another power-density grid than the cold run".to_owned()
            });
            Some(ms)
        }
        (Err(e), _) => {
            run.fail(e);
            None
        }
    }
}

/// Untraced run: three set-ups (the last is kept), then (a)+(b) rounds
/// until the budget is spent.
pub fn run(opts: &Opts, run: &mut Run) {
    let mut setups = Vec::new();
    let mut fixture = None;
    for i in 0..3 {
        let dir = fresh_dir(opts, &format!("setup{i}"));
        let (out, ms) = timed(|| setup(dir.clone()));
        setups.push(ms);
        match out {
            Ok(fx) => {
                if let Some(old) = fixture.replace(fx) {
                    let _ = std::fs::remove_dir_all(&old.dir);
                }
            }
            Err(e) => run.note(format!("set-up failed: {e}")),
        }
    }
    setup_metric(run, &setups, "cold fig2 pairs with envelope writes");
    let Some(fx) = fixture else {
        return run.check(false, || "no set-up succeeded".to_owned());
    };

    let start = std::time::Instant::now();
    let (mut a, mut b, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempted_rounds = 0;
    while more_rounds(start, opts.budget, attempted_rounds, MIN_ROUNDS) {
        attempted_rounds += 1;
        let ra = report_hit(run, &fx);
        let rb = artifact_hit(run, &fx);
        a.extend(ra);
        b.extend(rb);
        if let (Some(x), Some(y)) = (ra, rb) {
            rounds.push(x + y);
        }
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
    crate::report_ops(run, &rounds, "(a)+(b) rounds");
    let med = |xs: &[f64]| crate::stats::median(xs);
    run.note(format!(
        "report_hit_ms = {:.1} ms (median of {})",
        med(&a),
        a.len()
    ));
    run.note(format!(
        "artifact_hit_ms = {:.1} ms (median of {})",
        med(&b),
        b.len()
    ));
}

/// Size of a file in MB (10^6 bytes), NaN when unreadable.
fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(f64::NAN, |m| m.len() as f64 / 1e6)
}

/// Traced run: the store's calls on the M3D envelope one by one, then
/// (a) and (b) with spans, repeated `reps` times beside untraced rounds
/// when this workload is selected.
pub fn traced(opts: &Opts, tracer: &Tracer, run: &mut Run, reps: usize) {
    let dir = fresh_dir(opts, "traced");
    let fx = match tracer.span("disk.setup", None, |_| setup(dir)) {
        Ok(fx) => fx,
        Err(e) => return run.fail(e),
    };
    let key = fx.m3d.stable_key();
    let store = DiskStore::new(&fx.dir);
    run.attempted += 1;
    let envelope = tracer.span("store.get", None, |_| store.get(key));
    let Some(envelope) = envelope else {
        return run.fail("M3D envelope missing after set-up");
    };
    tracer.span("store.get_report", None, |_| store.get_report(key));
    tracer.span("store.neighbours", None, |_| {
        store.neighbours(fx.m3d.placement_key())
    });
    let copy_dir = fresh_dir(opts, "put");
    let _ = std::fs::create_dir_all(&copy_dir);
    let copy = DiskStore::new(copy_dir);
    tracer.span("store.put", None, |_| copy.put(&envelope));
    run.metric(
        "store.envelope_mb",
        file_mb(&copy.envelope_path(key)),
        "MB",
        "M3D envelope on disk",
    );
    let _ = std::fs::remove_dir_all(copy.dir());
    for (metric, span, what) in [
        (
            "store.put_ms",
            "store.put",
            "DiskStore::put of the M3D envelope",
        ),
        (
            "store.get_ms",
            "store.get",
            "DiskStore::get of the M3D envelope",
        ),
        (
            "store.get_report_ms",
            "store.get_report",
            "DiskStore::get_report calls",
        ),
        (
            "store.neighbours_ms",
            "store.neighbours",
            "DiskStore::neighbours calls",
        ),
    ] {
        run.median(metric, &tracer.durations(span), "ms", what);
    }

    let (mut untraced, mut traced_ms) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        if reps > 0 {
            if let (Some(x), Some(y)) = (report_hit(run, &fx), artifact_hit(run, &fx)) {
                untraced.push(x + y);
            }
        }
        let (ok, round) = tracer.span("disk.traced_round", None, |round| {
            let a = tracer.span("disk.report_hit", Some(round), |_| report_hit(run, &fx));
            let b = tracer.span("disk.artifact_hit", Some(round), |_| artifact_hit(run, &fx));
            (a.is_some() && b.is_some(), round)
        });
        if ok {
            traced_ms.push(tracer.duration(round));
        }
    }
    run.median(
        "disk.report_hit_ms",
        &tracer.durations("disk.report_hit"),
        "ms",
        "traced (a)",
    );
    run.median(
        "disk.artifact_hit_ms",
        &tracer.durations("disk.artifact_hit"),
        "ms",
        "traced (b)",
    );
    if reps > 0 {
        crate::report_overhead(run, "disk_replay", &untraced, &traced_ms);
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}
