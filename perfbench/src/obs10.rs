//! `obs10_serial`: the `obs10_thermal` case on a fresh thermal cache per
//! operation, its M3D flow already in memory from set-up, at
//! `M3D_JOBS=1` (the default worker count slows the solver about
//! fifteenfold; see the README).

use m3d_arch::trace::Phase;
use m3d_bench::registry::{find, CaseCtx};
use m3d_core::cases::BaselineAreas;
use m3d_core::engine::{FetchOpts, FlowCache};
use m3d_core::obs::Recorder;
use m3d_core::thermal::ThermalModel;
use m3d_core::TierThermalModel;
use m3d_netlist::CsConfig;
use m3d_pd::{FlowConfig, PowerDensityGrid};
use m3d_tech::LayerStack;
use m3d_thermal::{
    solve_steady, step_phases, GridConfig, LumpedGridModel, PhaseInterval, PowerMap, SolverConfig,
    ThermalCache, TransientConfig,
};
use serde::Value;

use crate::sys::{more_rounds, timed, with_jobs};
use crate::trace::Tracer;
use crate::{setup_metric, Opts, Run};

/// Fewest operations a run measures, however short its budget.
const MIN_OPS: usize = 8;

/// The case's power sweep (W per tier pair), tier range and budget.
const POWERS_W: [f64; 4] = [2.0, 5.0, 10.0, 20.0];
const MAX_PAIRS: u32 = 8;
const N_LAT: usize = 8;
const BUDGET_K: f64 = 60.0;

/// Eq. 17's resistances, from the paper: heat sink to ambient and the
/// increment per interleaved tier pair, in K/W.
const R_SINK_K_PER_W: f64 = 1.0;
const R_TIER_K_PER_W: f64 = 0.35;

/// Relative disagreement allowed between grid rises and the power
/// ratio: the steady solve is linear in its source, up to the solver's
/// convergence tolerance.
const LINEARITY_TOL: f64 = 1e-4;

/// Eq. 17 in closed form: ΔT(n) = P·Σᵢ₌₁ⁿ (R_sink + i·R_tier).
pub fn eq17_rise_k(power_w: f64, tiers: u32) -> f64 {
    let n = f64::from(tiers);
    power_w * (n * R_SINK_K_PER_W + R_TIER_K_PER_W * n * (n + 1.0) / 2.0)
}

/// The M3D flow configuration `obs10_thermal` takes its power map from.
fn flow_config() -> FlowConfig {
    FlowConfig::m3d(8).with_cs(CsConfig::default())
}

/// Set-up: the cold M3D flow on a fresh cache, which then holds it.
fn setup() -> Result<FlowCache, String> {
    let flows = FlowCache::new();
    flows
        .fetch(&flow_config(), FetchOpts::artifacts())
        .map_err(|e| e.to_string())?;
    Ok(flows)
}

/// One `obs10_thermal` operation on `flows` and a fresh thermal cache.
fn run_case(flows: &FlowCache) -> Result<Value, String> {
    let case = find("obs10_thermal").expect("obs10_thermal is registered");
    let thermals = ThermalCache::new();
    case.run(&CaseCtx::new(flows, &thermals), false, &Value::Null)
        .map(|o| o.result)
        .map_err(|e| e.to_string())
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Checks an obs10 payload against properties the method must have.
fn check(run: &mut Run, payload: &Value) {
    let rises = payload
        .get("rises")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    run.check(rises.len() == POWERS_W.len() * MAX_PAIRS as usize, || {
        format!(
            "{} rise points, expected {}",
            rises.len(),
            POWERS_W.len() * 8
        )
    });
    let grid = |p: f64, n: u32| {
        rises
            .iter()
            .find(|r| num(r, "power_w") == p && num(r, "tiers") == f64::from(n))
            .map_or(f64::NAN, |r| num(r, "rise_grid_k"))
    };
    for r in rises {
        let (p, n) = (num(r, "power_w"), num(r, "tiers") as u32);
        let want = eq17_rise_k(p, n);
        let got = num(r, "rise_eq17_k");
        run.check((got - want).abs() <= 1e-9 * want, || {
            format!("eq. 17 rise at {p} W, {n} pairs: {got} K, closed form {want} K")
        });
    }
    for n in 1..=MAX_PAIRS {
        let base = grid(POWERS_W[0], n);
        for &p in &POWERS_W[1..] {
            let scaled = base * p / POWERS_W[0];
            let got = grid(p, n);
            run.check((got - scaled).abs() <= LINEARITY_TOL * scaled, || {
                format!("grid rise at {p} W, {n} pairs is {got} K; linearity gives {scaled} K")
            });
        }
    }
    for &p in &POWERS_W {
        for n in 2..=MAX_PAIRS {
            run.check(grid(p, n) > grid(p, n - 1), || {
                format!(
                    "grid rise at {p} W does not increase from {} to {n} pairs",
                    n - 1
                )
            });
        }
    }
    let caps = payload.get("caps").and_then(Value::as_array).unwrap_or(&[]);
    for c in caps {
        let p = num(c, "power_w");
        let want = (1..=MAX_PAIRS)
            .filter(|&n| grid(p, n) <= BUDGET_K)
            .max()
            .unwrap_or(0);
        let got = num(c, "cap_grid");
        run.check(got == f64::from(want), || {
            format!("cap_grid at {p} W is {got}, largest tier count within 60 K is {want}")
        });
    }
    let err = num(payload, "lumped_max_rel_err");
    run.check(err < 0.02, || {
        format!("lumped_max_rel_err {err} is not below 0.02")
    });
}

/// Untraced run at `M3D_JOBS=1`: three cold M3D flows as set-up (the
/// last is kept), then `obs10_thermal` operations until the budget is
/// spent.
pub fn run(opts: &Opts, run: &mut Run) {
    with_jobs(Some("1"), || measure(opts, run));
}

fn measure(opts: &Opts, run: &mut Run) {
    let mut setups = Vec::new();
    let mut flows = None;
    for _ in 0..3 {
        flows = None;
        let (out, ms) = timed(setup);
        setups.push(ms);
        match out {
            Ok(f) => flows = Some(f),
            Err(e) => run.note(format!("set-up failed: {e}")),
        }
    }
    setup_metric(run, &setups, "cold M3D flows");
    let Some(flows) = flows else {
        return run.check(false, || "no set-up succeeded".to_owned());
    };

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
        match timed(|| run_case(&flows)) {
            (Ok(payload), ms) => {
                times.push(ms);
                let text = serde_json::to_string(&payload).expect("payload serialises");
                let first = first.get_or_insert_with(|| text.clone());
                run.check(&text == first, || {
                    "payload differs from the run's first".to_owned()
                });
                check(run, &payload);
            }
            (Err(e), _) => run.fail(e),
        }
    }
    crate::report_ops(run, &times, "obs10_thermal operations");
    run.note(format!(
        "obs10_ms = {:.1} ms (median of {})",
        crate::stats::median(&times),
        times.len()
    ));
}

/// The power deposit the case solves: the flow's placed density map,
/// rescaled so the stack dissipates `p` W per pair.
fn power_for(g: &GridConfig, density: &PowerDensityGrid, p: f64, tiers: u32) -> PowerMap {
    let placed = PowerMap::from_density_grid(g, density).expect("density grid resamples");
    let total = placed.total_w();
    placed.scaled(p * f64::from(tiers) / total)
}

/// The obs10 operation replayed through the thermal crate's public
/// functions with a span around each call. Returns the summed SOR
/// iterations, or an error.
fn traced_op(tracer: &Tracer, density: &PowerDensityGrid) -> Result<u64, String> {
    let stack = LayerStack::m3d_130nm();
    let die_mm2 = BaselineAreas::case_study_64mb().total_mm2();
    let solver = SolverConfig::default();
    tracer.span("obs10.traced_op", None, |op| {
        let mut iters = 0u64;
        for &p in &POWERS_W {
            for tiers in 1..=MAX_PAIRS {
                let g = GridConfig::from_stack(&stack, die_mm2, N_LAT, N_LAT, tiers, 1.0, BUDGET_K)
                    .map_err(|e| e.to_string())?;
                let pm = tracer.span("thermal.power_map", Some(op), |_| {
                    power_for(&g, density, p, tiers)
                });
                let sol = tracer
                    .span("thermal.solve", Some(op), |_| {
                        solve_steady(&g, &pm, &solver)
                    })
                    .map_err(|e| e.to_string())?;
                iters += sol.iterations as u64;
            }
        }
        for &p in &POWERS_W {
            let lumped = LumpedGridModel::new(ThermalModel::conventional(p));
            for tiers in 1..=MAX_PAIRS {
                tracer.span("thermal.lumped", Some(op), |_| {
                    lumped.temperature_rise(tiers)
                });
            }
        }
        let g = GridConfig::from_stack(&stack, die_mm2, 4, 4, 2, 1.0, BUDGET_K)
            .map_err(|e| e.to_string())?;
        let base = power_for(&g, density, 5.0, 2);
        let phases: Vec<PhaseInterval> = [
            (Phase::WeightLoad, 2.0e-4),
            (Phase::Stream, 6.0e-4),
            (Phase::FillDrain, 1.0e-4),
            (Phase::Idle, 4.0e-4),
        ]
        .iter()
        .map(|&(phase, duration_s)| PhaseInterval { phase, duration_s })
        .collect();
        tracer
            .span("thermal.transient", Some(op), |_| {
                step_phases(&g, &base, &phases, &TransientConfig::default())
            })
            .map_err(|e| e.to_string())?;
        Ok(iters)
    })
}

/// Traced run: at `M3D_JOBS=1` the thermal replay (repeated `reps`
/// times beside as many untraced operations when this workload is
/// selected) and the `par_map` calls of one case operation; then the
/// same solves at the default worker count for one power level.
pub fn traced(_opts: &Opts, tracer: &Tracer, run: &mut Run, reps: usize) {
    let Some(density) = with_jobs(Some("1"), || traced_one_job(tracer, run, reps)) else {
        return;
    };
    // All four power levels would take about 15 s at two workers.
    let stack = LayerStack::m3d_130nm();
    let die_mm2 = BaselineAreas::case_study_64mb().total_mm2();
    with_jobs(None, || {
        for tiers in 1..=MAX_PAIRS {
            let g = GridConfig::from_stack(&stack, die_mm2, N_LAT, N_LAT, tiers, 1.0, BUDGET_K)
                .expect("grid builds");
            let pm = power_for(&g, &density, POWERS_W[2], tiers);
            run.attempted += 1;
            if let Err(e) = tracer.span("thermal.solve.default_jobs", None, |_| {
                solve_steady(&g, &pm, &SolverConfig::default())
            }) {
                run.fail(e);
            }
        }
    });
    run.median(
        "thermal.solve_ms.default_jobs",
        &tracer.durations("thermal.solve.default_jobs"),
        "ms",
        "solve_steady calls at 10 W, M3D_JOBS unset",
    );
}

/// The part of the traced run at `M3D_JOBS=1`; returns the flow's
/// power-density grid, or `None` when set-up failed.
fn traced_one_job(tracer: &Tracer, run: &mut Run, reps: usize) -> Option<PowerDensityGrid> {
    let flows = match tracer.span("obs10.setup", None, |_| setup()) {
        Ok(f) => f,
        Err(e) => {
            run.fail(e);
            return None;
        }
    };
    let density = flows
        .fetch(&flow_config(), FetchOpts::artifacts())
        .expect("flow held in memory")
        .artifacts
        .expect("artifact-level fetch")
        .1
        .power
        .density_grid
        .clone();

    let mut untraced = Vec::new();
    let mut traced_ms = Vec::new();
    let mut iters = Vec::new();
    let mut calls = Vec::new();
    for _ in 0..reps.max(1) {
        run.attempted += 1;
        let before = Recorder::global().counter("par_map.calls");
        match timed(|| run_case(&flows)) {
            (Ok(payload), ms) => {
                untraced.push(ms);
                check(run, &payload);
            }
            (Err(e), _) => run.fail(e),
        }
        calls.push((Recorder::global().counter("par_map.calls") - before) as f64);
        run.attempted += 1;
        match timed(|| traced_op(tracer, &density)) {
            (Ok(n), ms) => {
                traced_ms.push(ms);
                iters.push(n as f64);
            }
            (Err(e), _) => run.fail(e),
        }
    }
    run.median(
        "thermal.solve_ms",
        &tracer.durations("thermal.solve"),
        "ms",
        "solve_steady calls",
    );
    run.median(
        "thermal.solve_iters",
        &iters,
        "count",
        "replays' summed SOR iterations",
    );
    run.median(
        "thermal.power_map_ms",
        &tracer.durations("thermal.power_map"),
        "ms",
        "from_density_grid + scaled calls",
    );
    run.median(
        "thermal.lumped_ms",
        &tracer.durations("thermal.lumped"),
        "ms",
        "LumpedGridModel::temperature_rise calls",
    );
    run.median(
        "thermal.transient_ms",
        &tracer.durations("thermal.transient"),
        "ms",
        "step_phases calls",
    );
    run.median(
        "par_map.calls",
        &calls,
        "count",
        "obs10_thermal operations' par_map calls",
    );
    if reps > 0 {
        crate::report_overhead(run, "obs10_serial", &untraced, &traced_ms);
    }

    Some(density)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_the_summed_chain() {
        for p in POWERS_W {
            for n in 1..=MAX_PAIRS {
                let summed: f64 = (1..=n)
                    .map(|i| p * (R_SINK_K_PER_W + f64::from(i) * R_TIER_K_PER_W))
                    .sum();
                assert!((eq17_rise_k(p, n) - summed).abs() < 1e-9 * summed);
            }
        }
        // 20 W per pair, 8 pairs: 20·(8·1.0 + 0.35·36) = 412 K.
        assert!((eq17_rise_k(20.0, 8) - 412.0).abs() < 1e-9);
    }
}
