//! `online_engine` — whole-run benchmark of the online decision path
//! (allocation-free prefix stepping + dense priced-slot reuse + sub-slot
//! replay): per-run wall clock, per-decision latency percentiles and the
//! priced-slot pool's counters.
//!
//! Scenarios:
//!
//! * **Algorithm C, time-varying costs** (the reference): electricity
//!   prices make every slot's `g_t` unique, and the idle/switching ratio
//!   pushes the sub-slot refinement to `ñ_t ≈ 8` — exactly where the
//!   per-slot pool collapses `ñ_t` full-grid pricings into one. Gated on
//!   pricing each original slot exactly once and on the sub-slot replay
//!   hitting the pool.
//! * **Algorithm A, tiled diurnal** (d = 2, time-independent): recurring
//!   λ values make later days pure pool hits. Gated on pool hits
//!   outnumbering pricings.
//! * **Algorithm C, d = 3 diurnal** (time-independent): a wider fleet,
//!   ungated.
//!
//! Decisions are pinned against the per-cell solve path by the
//! workspace's `tests/decision_fixture.rs`. Results land in
//! `results/online_engine.json` and, as the trajectory record the CI
//! uploads, `BENCH_online.json`.

use std::fmt::Write as _;
use std::time::Instant;

use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::EngineStats;
use rsz_online::algo_a::{AOptions, AlgorithmA};
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::runner::{run_instrumented, LatencyProfile, OnlineAlgorithm};
use rsz_workloads::patterns;

fn tiled_diurnal(horizon: usize, base: f64, amplitude: f64) -> Vec<f64> {
    // One exact day, tiled: λ values repeat bit-for-bit across days,
    // which is what lets the priced-slot pool answer later days.
    let day = patterns::diurnal(24, base, amplitude, 24, 0.75);
    day.values().iter().copied().cycle().take(horizon).collect()
}

/// The reference Algorithm C workload: time-dependent prices (so the
/// pool partitions by slot and only the sub-slot replay can win) with
/// idle costs sized for `ñ_t ≈ (d/ε)·l/β ≈ 8` at ε = 0.25.
fn c_reference(quick: bool) -> Instance {
    let horizon = if quick { 48 } else { 192 };
    let m = 8;
    let prices: Vec<f64> = (0..horizon)
        .map(|t| 1.0 + 0.8 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin().abs())
        .collect();
    let cap = 2.0 * f64::from(m);
    Instance::builder()
        .server_type(ServerType::with_spec(
            "cpu",
            m,
            6.0,
            1.0,
            CostSpec::scaled(CostModel::linear(1.5, 1.0), prices.clone()),
        ))
        .server_type(ServerType::with_spec(
            "gpu",
            m,
            8.0,
            1.0,
            CostSpec::scaled(CostModel::power(1.2, 0.5, 2.0), prices),
        ))
        .loads(tiled_diurnal(horizon, 0.1 * cap, 0.55 * cap))
        .build()
        .expect("reference instance feasible")
}

fn a_diurnal(quick: bool) -> Instance {
    let horizon = if quick { 96 } else { 360 };
    let m = if quick { 10 } else { 16 };
    let cap = 2.0 * f64::from(m);
    Instance::builder()
        .server_type(ServerType::new("cpu", m, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("gpu", m, 4.0, 1.0, CostModel::power(1.0, 0.5, 2.0)))
        .loads(tiled_diurnal(horizon, 0.1 * cap, 0.6 * cap))
        .build()
        .expect("diurnal instance feasible")
}

fn c_d3_diurnal(quick: bool) -> Instance {
    let horizon = if quick { 48 } else { 120 };
    let m = 6;
    let cap = 3.0 * f64::from(m);
    Instance::builder()
        .server_type(ServerType::new("small", m, 3.0, 1.0, CostModel::linear(0.8, 1.0)))
        .server_type(ServerType::new("mid", m, 4.0, 1.0, CostModel::power(0.8, 0.5, 2.0)))
        .server_type(ServerType::new("big", m, 6.0, 1.0, CostModel::quadratic(1.0, 0.5, 0.3)))
        .loads(tiled_diurnal(horizon, 0.1 * cap, 0.5 * cap))
        .build()
        .expect("d=3 instance feasible")
}

struct Timed {
    profile: LatencyProfile,
    secs: f64,
}

/// Time `build`'s controller over `iterations` whole runs, keeping the
/// best wall clock (fresh controller per iteration — online state must
/// not leak across runs). The controller of the *last* iteration is
/// handed to `inspect` so callers can pull engine counters off the
/// concrete type; the latency profile also comes from that iteration (every
/// iteration is deterministic, only the clock varies).
fn time_runs<A: OnlineAlgorithm>(
    instance: &Instance,
    iterations: usize,
    mut build: impl FnMut() -> A,
    mut inspect: impl FnMut(&A),
) -> Timed {
    let oracle = Dispatcher::new();
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iterations {
        let mut algo = build();
        let start = Instant::now();
        let (_, profile) = run_instrumented(instance, &mut algo, &oracle);
        best = best.min(start.elapsed().as_secs_f64());
        inspect(&algo);
        out = Some(profile);
    }
    let profile = out.expect("at least one iteration");
    Timed { profile, secs: best }
}

struct Row {
    name: &'static str,
    d: usize,
    horizon: usize,
    run_ms: f64,
    p50_us: f64,
    p99_us: f64,
    pricings: u64,
    pool_hits: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let iterations = 3;

    let mut rows: Vec<Row> = Vec::new();

    // --- Algorithm C, time-varying reference ---
    {
        let inst = c_reference(quick);
        let opts = COptions { epsilon: 0.25, ..Default::default() };
        let mut stats = None;
        let timed = time_runs(
            &inst,
            iterations,
            || AlgorithmC::new(&inst, Dispatcher::new(), opts),
            |c| stats = Some(c.engine_stats()),
        );
        let stats = stats.expect("ran at least once");
        assert_eq!(
            stats.pricings,
            inst.horizon() as u64,
            "Algorithm C must price each original slot exactly once"
        );
        assert!(stats.pool_hits > 0, "sub-slot replay must hit the pool");
        rows.push(report("algo_c_time_varying", &inst, &timed, stats));
    }

    // --- Algorithm A, tiled diurnal ---
    {
        let inst = a_diurnal(quick);
        let mut stats = None;
        let timed = time_runs(
            &inst,
            iterations,
            || AlgorithmA::new(&inst, Dispatcher::new(), AOptions::default()),
            |a| stats = Some(a.engine_stats()),
        );
        let stats = stats.expect("ran at least once");
        assert!(
            stats.pool_hits > stats.pricings,
            "tiled days must be answered from the pool: {stats:?}"
        );
        rows.push(report("algo_a_diurnal", &inst, &timed, stats));
    }

    // --- Algorithm C, d = 3 time-independent (ungated) ---
    {
        let inst = c_d3_diurnal(quick);
        let opts = COptions { epsilon: 0.5, ..Default::default() };
        let mut stats = None;
        let timed = time_runs(
            &inst,
            iterations,
            || AlgorithmC::new(&inst, Dispatcher::new(), opts),
            |c| stats = Some(c.engine_stats()),
        );
        rows.push(report("algo_c_d3_diurnal", &inst, &timed, stats.expect("ran at least once")));
    }

    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut runs = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            runs,
            "    {{\n      \"scenario\": \"{}\",\n      \"d\": {},\n      \"horizon\": {},\n      \"run_ms\": {:.3},\n      \"decide_p50_us\": {:.2},\n      \"decide_p99_us\": {:.2},\n      \"pricings\": {},\n      \"pool_hits\": {}\n    }}{}",
            r.name,
            r.d,
            r.horizon,
            r.run_ms,
            r.p50_us,
            r.p99_us,
            r.pricings,
            r.pool_hits,
            if i + 1 < rows.len() { ",\n" } else { "\n" },
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"online_engine\",\n  \"quick\": {quick},\n  \"timestamp\": {timestamp},\n  \"runs\": [\n{runs}  ]\n}}\n",
    );

    // `cargo bench` sets the cwd to crates/bench; resolve the workspace
    // root so the JSON lands in the documented top-level locations.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root")
        .to_path_buf();
    for out_path in
        [root.join("results").join("online_engine.json"), root.join("BENCH_online.json")]
    {
        let write = out_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&out_path, &json));
        if let Err(e) = write {
            eprintln!("warning: could not write {}: {e}", out_path.display());
        } else {
            println!("bench: online_engine/json  ... {}", out_path.display());
        }
    }
}

fn report(name: &'static str, inst: &Instance, timed: &Timed, stats: EngineStats) -> Row {
    let (p50, _, p99, _, _) = timed.profile.summary_us();
    println!(
        "bench: online_engine/{name:<22} {:>9.2} ms  (p50 {p50:.0} µs, p99 {p99:.0} µs, {} pricings / {} hits)",
        timed.secs * 1e3,
        stats.pricings,
        stats.pool_hits,
    );
    Row {
        name,
        d: inst.num_types(),
        horizon: inst.horizon(),
        run_ms: timed.secs * 1e3,
        p50_us: p50,
        p99_us: p99,
        pricings: stats.pricings,
        pool_hits: stats.pool_hits,
    }
}
