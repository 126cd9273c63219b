//! `fig2_cold`: the `fig2_physical_design` case at full size on a fresh
//! in-memory flow cache per operation, so every operation computes the
//! 2D baseline and then the 8-CS M3D design on the 2D die.

use std::sync::Arc;

use m3d_bench::registry::{find, Case, CaseCtx, PdFlowParams};
use m3d_core::engine::{FetchOpts, FlowCache};
use m3d_netlist::{accelerator_soc, CsConfig, Netlist, NetlistStats};
use m3d_pd::{
    analyze_power, analyze_timing, estimate_clock_tree, estimate_routing, place_traced,
    post_route_optimize_traced, Clustering, Floorplan, FlowConfig, FlowReport, Rtl2GdsFlow,
};
use m3d_thermal::ThermalCache;
use serde::Value;

use crate::sys::{more_rounds, timed};
use crate::trace::Tracer;
use crate::{setup_metric, Opts, Run};

/// Fewest operations a run measures, however short its budget.
const MIN_OPS: usize = 5;

/// Set-up runs per run, whose median is `setup_s`.
const SETUPS: usize = 3;

/// Fetch/bare-run pairs behind `engine.fetch_overhead_ms`.
const FETCH_PAIRS: usize = 15;

/// The registered Fig. 2 case.
pub fn case() -> &'static dyn Case {
    find("fig2_physical_design").expect("fig2_physical_design is registered")
}

/// The full-size 2D baseline configuration the case runs first.
pub fn config_2d() -> FlowConfig {
    FlowConfig::baseline_2d().with_cs(CsConfig::default())
}

/// The M3D configuration the case derives from the 2D report: one CS
/// plus the freed under-array capacity (at least 8), on the 2D die.
pub fn config_m3d(r2d: &FlowReport) -> FlowConfig {
    FlowConfig::m3d(1 + r2d.extra_cs_capacity.max(7))
        .with_cs(CsConfig::default())
        .with_die(r2d.die)
}

/// One fig2 case run on `flows`, as its payload text.
pub fn run_case(flows: &FlowCache, quick: bool) -> Result<String, String> {
    let thermals = ThermalCache::new();
    case()
        .run(&CaseCtx::new(flows, &thermals), quick, &Value::Null)
        .map(|o| serde_json::to_string(&o.result).expect("payload serialises"))
        .map_err(|e| e.to_string())
}

/// The `designs` entry labelled `label` of a fig2 payload.
fn design<'v>(payload: &'v Value, label: &str) -> Option<&'v Value> {
    payload
        .get("designs")?
        .as_array()?
        .iter()
        .find(|d| matches!(d.get("design"), Some(Value::Str(s)) if s == label))
}

/// Checks a cold fig2 operation: iso-footprint, a CS count of one plus
/// the CSs the M3D floorplan's freed under-array area hosts (the
/// paper's N ≈ 8), two misses and no hits, and a payload identical to
/// the run's first.
fn check_cold(run: &mut Run, flows: &FlowCache, payload: &str, first: &str) {
    let v = serde_json::from_str_value(payload).expect("payload parses");
    let die = |label| design(&v, label).and_then(|d| d.get("die_mm2")?.as_f64());
    run.check(die("2d").is_some() && die("2d") == die("m3d"), || {
        format!(
            "M3D die {:?} mm² differs from 2D die {:?} mm²",
            die("m3d"),
            die("2d")
        )
    });
    let stats = flows.stats();
    run.check(
        stats.misses == 2 && stats.hits == 0 && stats.disk_hits == 0,
        || format!("cold operation reported {stats:?}, expected 2 misses and no hits"),
    );
    // Memory hits on the flows the operation just computed (untimed).
    // The freed under-array capacity is the M3D flow's: the 2D flow
    // reports 0 by construction.
    let m3d = flows
        .fetch(&config_2d(), FetchOpts::report())
        .and_then(|f| flows.fetch(&config_m3d(&f.report), FetchOpts::report()))
        .map(|f| f.report);
    let cs = v.get("m3d_cs_count").and_then(Value::as_u64);
    match m3d {
        Ok(r) => {
            let want = 1 + u64::from(r.extra_cs_capacity);
            run.check(cs == Some(want) && want >= 8, || {
                format!("M3D CS count {cs:?}, expected 1 + extra_cs_capacity = {want} (>= 8)")
            });
        }
        Err(e) => run.check(false, || format!("flow reports not in the cache: {e}")),
    }
    run.check(payload == first, || {
        "payload differs from the run's first".to_owned()
    });
}

/// Untraced run: as set-up, the full-size 2D baseline flow (the first
/// stage of every operation) cold on fresh caches, warming the process
/// before the timed window and long enough (a quarter second or more)
/// to time steadily; then cold fig2 operations until the budget is
/// spent.
pub fn run(opts: &Opts, run: &mut Run) {
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        let flows = FlowCache::new();
        match timed(|| flows.fetch(&config_2d(), FetchOpts::report())) {
            (Ok(_), ms) => setup.push(ms),
            (Err(e), _) => run.note(format!("set-up failed: {e}")),
        }
    }
    setup_metric(run, &setup, "cold full-size 2D flows on fresh caches");

    let start = std::time::Instant::now();
    let mut times = Vec::new();
    let mut first: Option<String> = None;
    while more_rounds(
        start,
        opts.budget,
        times.len() + run.failed as usize,
        MIN_OPS,
    ) {
        run.attempted += 1;
        let flows = FlowCache::new();
        let (out, ms) = timed(|| run_case(&flows, false));
        match out {
            Ok(payload) => {
                times.push(ms);
                let first = first.get_or_insert_with(|| payload.clone());
                check_cold(run, &flows, &payload, first);
            }
            Err(e) => run.fail(e),
        }
    }
    crate::report_ops(run, &times, "cold fig2 operations");
    run.note(format!(
        "fig2_ms = {:.1} ms (median of {})",
        crate::stats::median(&times),
        times.len()
    ));
}

/// The M3D flow replayed stage by stage through the same public
/// functions `Rtl2GdsFlow::run_seeded` calls, one span per stage under
/// a `pd.m3d_replay` span, then one routing and one timing pass.
/// Returns the annealing steps and opt rounds the stages' spans report.
fn replay_m3d(tracer: &Tracer, cfg: &FlowConfig, parent: usize) -> Result<(u64, u64), String> {
    let replayed = tracer.span("pd.m3d_replay", Some(parent), |id| {
        let sp = Some(id);
        let mut netlist = tracer
            .span("netlist.synth", sp, |_| {
                let mut nl = Netlist::new(format!("{}_{}cs", cfg.pdk.name, cfg.soc.cs_count));
                accelerator_soc(&mut nl, &cfg.soc).map(|_| nl)
            })
            .map_err(|e| e.to_string())?;
        let floorplan = tracer
            .span("pd.floorplan", sp, |_| {
                Floorplan::plan(&cfg.pdk, &cfg.soc, &netlist, cfg.die_override)
            })
            .map_err(|e| e.to_string())?;
        let clustering = tracer
            .span("pd.cluster", sp, |_| Clustering::build(&netlist, &cfg.pdk))
            .map_err(|e| e.to_string())?;
        let (mut placement, place_span) = tracer
            .span("pd.place", sp, |_| {
                place_traced(&clustering, &floorplan, &cfg.placer)
            })
            .map_err(|e| e.to_string())?;
        let leg = tracer
            .span("pd.legalize", sp, |_| {
                m3d_pd::legalize(&netlist, &placement, &floorplan, &cfg.pdk)
            })
            .map_err(|e| e.to_string())?;
        placement.cell_pos = leg.cell_pos;
        let (outcome, opt_span) = tracer
            .span("pd.opt", sp, |_| {
                post_route_optimize_traced(
                    &mut netlist,
                    &mut placement,
                    &cfg.pdk,
                    floorplan.target_clock,
                    &cfg.opt,
                )
            })
            .map_err(|e| e.to_string())?;
        tracer
            .span("pd.cts", sp, |_| {
                estimate_clock_tree(&netlist, &placement, &floorplan, &cfg.pdk)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .span("pd.power", sp, |_| {
                analyze_power(
                    &netlist,
                    &outcome.routing,
                    &placement,
                    &floorplan,
                    &cfg.pdk,
                    floorplan.target_clock,
                    cfg.activity,
                )
            })
            .map_err(|e| e.to_string())?;
        tracer
            .span("pd.report", sp, |_| {
                NetlistStats::compute(&netlist, &cfg.pdk)
            })
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((
            netlist,
            placement,
            floorplan.target_clock,
            place_span.counter_value("steps").unwrap_or(0),
            opt_span.counter_value("rounds").unwrap_or(0),
        ))
    })?;
    let (netlist, placement, clock, steps, rounds) = replayed;
    // One standalone routing and timing pass over the final placement:
    // the per-pass cost each opt round repeats, outside the replay span.
    let routing = tracer
        .span("pd.route", Some(parent), |_| {
            estimate_routing(&netlist, &placement, &cfg.pdk, cfg.opt.detour)
        })
        .map_err(|e| e.to_string())?;
    tracer
        .span("pd.sta", Some(parent), |_| {
            analyze_timing(&netlist, &routing, &cfg.pdk, clock)
        })
        .map_err(|e| e.to_string())?;
    Ok((steps, rounds))
}

/// One traced fig2 operation: the 2D flow, then the M3D flow stage by
/// stage. Returns the M3D configuration, the operation's time in ms,
/// and the replay's annealing steps and opt rounds.
fn traced_op(tracer: &Tracer, run: &mut Run) -> Option<(FlowConfig, f64, u64, u64)> {
    run.attempted += 1;
    let out = tracer.span("fig2.traced_op", None, |op| {
        let (r2d, _) = tracer
            .span("pd.flow_2d", Some(op), |_| {
                Rtl2GdsFlow::new(config_2d()).run()
            })
            .map_err(|e| e.to_string())?;
        let cfg = config_m3d(&r2d);
        let (steps, rounds) = replay_m3d(tracer, &cfg, op)?;
        Ok::<_, String>((cfg, op, steps, rounds))
    });
    match out {
        Ok((cfg, op, steps, rounds)) => Some((cfg, tracer.duration(op), steps, rounds)),
        Err(e) => {
            run.fail(e);
            None
        }
    }
}

/// Traced run: the stage replay (repeated `reps` times beside as many
/// untraced operations when this workload is selected, for the tracing
/// overhead), then the engine's own cost and a seeded replay.
pub fn traced(_opts: &Opts, tracer: &Tracer, run: &mut Run, reps: usize) {
    let mut untraced = Vec::new();
    let mut traced_ms = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        if reps > 0 {
            run.attempted += 1;
            match timed(|| run_case(&FlowCache::new(), false)) {
                (Ok(_), ms) => untraced.push(ms),
                (Err(e), _) => run.fail(e),
            }
        }
        if let Some((cfg, ms, steps, rounds)) = traced_op(tracer, run) {
            traced_ms.push(ms);
            last = Some((cfg, steps, rounds));
        }
    }
    for stage in [
        "netlist.synth",
        "pd.floorplan",
        "pd.cluster",
        "pd.place",
        "pd.legalize",
        "pd.opt",
        "pd.cts",
        "pd.power",
        "pd.report",
        "pd.route",
        "pd.sta",
    ] {
        run.median(
            &format!("{stage}_ms"),
            &tracer.durations(stage),
            "ms",
            "traced calls",
        );
    }
    if reps > 0 {
        crate::report_overhead(run, "fig2_cold", &untraced, &traced_ms);
    }
    let Some((cfg, steps, rounds)) = last else {
        return;
    };
    run.metric(
        "pd.place_steps",
        steps as f64,
        "count",
        "annealing steps per M3D flow",
    );
    run.metric(
        "pd.opt_rounds",
        rounds as f64,
        "count",
        "opt rounds per M3D flow",
    );

    // What no stage accounts for: a whole run minus the replay's stage
    // sum.
    run.attempted += 1;
    let whole = tracer.span("pd.run_seeded_cold", None, |_| {
        Rtl2GdsFlow::new(cfg.clone()).run_seeded(None)
    });
    let whole = match whole {
        Ok(w) => w,
        Err(e) => return run.fail(e),
    };
    let last_ms = |name: &str| tracer.durations(name).last().copied().unwrap_or(f64::NAN);
    let whole_ms = last_ms("pd.run_seeded_cold");
    let staged_ms = last_ms("pd.m3d_replay");
    run.note(format!(
        "M3D flow {whole_ms:.1} ms, its stage replay {staged_ms:.1} ms: \
         {:.1} ms that no stage accounts for",
        whole_ms - staged_ms
    ));
    // The engine's own cost around a flow: cold fetches alternated with
    // bare runs of the quick M3D configuration `pd_flow` serves, so the
    // difference of medians is not buried in a full-size flow's noise.
    let quick = PdFlowParams::parse(
        true,
        &serde_json::from_str_value(r#"{"n_cs":2}"#).expect("literal"),
    )
    .expect("valid pd_flow params")
    .flow_config();
    for _ in 0..FETCH_PAIRS {
        run.attempted += 2;
        let fetched = tracer.span("engine.fetch_cold", None, |_| {
            FlowCache::new()
                .fetch(&quick, FetchOpts::report().cold())
                .map(drop)
        });
        let bare = tracer.span("engine.run_seeded_cold", None, |_| {
            Rtl2GdsFlow::new(quick.clone()).run_seeded(None).map(drop)
        });
        for r in [
            fetched.map_err(|e| e.to_string()),
            bare.map_err(|e| e.to_string()),
        ] {
            if let Err(e) = r {
                run.fail(e);
            }
        }
    }
    let med = |name: &str| crate::stats::median(&tracer.durations(name));
    run.metric(
        "engine.fetch_overhead_ms",
        med("engine.fetch_cold") - med("engine.run_seeded_cold"),
        "ms",
        format!("median cold FlowCache::fetch minus median run_seeded(None), {FETCH_PAIRS} quick M3D pairs"),
    );
    run.attempted += 1;
    let seed = Arc::new(whole.1.seed);
    if let Err(e) = tracer.span("pd.seeded_run", None, |_| {
        Rtl2GdsFlow::new(cfg.clone()).run_seeded(Some(&seed))
    }) {
        run.fail(e);
    }
    run.median(
        "pd.seeded_run_ms",
        &tracer.durations("pd.seeded_run"),
        "ms",
        "seeded runs",
    );
}
