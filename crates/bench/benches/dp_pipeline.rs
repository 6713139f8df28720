//! `dp_pipeline` — end-to-end offline-solve benchmark of the
//! slot-batched pricing pipeline (warm-started KKT row sweeps +
//! time-independent slot de-duplication + checkpointed backtracking)
//! against the cached per-cell baseline: the reference recurrence
//! ([`forward_tables`] + [`backtrack`], one dispatch solve per cell)
//! over a [`CachedDispatcher`].
//!
//! Scenarios: the reference tiled-diurnal workload (d = 2,
//! m = (40, 40), T = 2000), a bursty MMPP trace with few exact load
//! repeats, a time-dependent electricity-price workload (no slot
//! sharing anywhere), and a d = 3 fleet. Every scenario gates on cost
//! parity ≤ 1e-9 and schedule equality between the pipeline and the
//! baseline; the ≥ 2× speedup gate applies to the reference workload in
//! full mode only (`--quick` shrinks horizons for the CI smoke, where
//! wall-clock is too noisy to gate).
//!
//! Results land in `results/dp_pipeline.json` and, as the trajectory
//! record the CI uploads, `BENCH_dp.json` at the workspace root.

use std::fmt::Write as _;
use std::time::Instant;

use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::{CachedDispatcher, Dispatcher};
use rsz_offline::dp::{backtrack, forward_tables, solve_with_stats, DpOptions};
use rsz_offline::pipeline::RecoveryStats;
use rsz_workloads::{patterns, stochastic};

struct Scenario {
    name: &'static str,
    instance: Instance,
    /// Only the reference scenario carries the speedup gate.
    gated: bool,
}

fn tiled_diurnal(horizon: usize, base: f64, amplitude: f64) -> Vec<f64> {
    // One exact day, tiled: λ values repeat bit-for-bit across days,
    // which is what lets both the g_t cache and the pricing pool reuse
    // slots.
    let day = patterns::diurnal(24, base, amplitude, 24, 0.75);
    day.values().iter().copied().cycle().take(horizon).collect()
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    let reference_t = if quick { 240 } else { 2000 };
    let (m_ref, base, amp) = if quick { (16, 3.0, 20.0) } else { (40, 6.0, 55.0) };
    let reference = Instance::builder()
        .server_type(ServerType::new("cpu", m_ref, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("gpu", m_ref, 4.0, 1.0, CostModel::power(1.0, 0.5, 2.0)))
        .loads(tiled_diurnal(reference_t, base, amp))
        .build()
        .expect("reference instance feasible");

    let bursty_t = if quick { 96 } else { 600 };
    let bursty_m = if quick { 10 } else { 24 };
    let cap = 2.0 * f64::from(bursty_m);
    let bursty = Instance::builder()
        .server_type(ServerType::new("old", bursty_m, 1.5, 1.0, CostModel::linear(0.8, 1.2)))
        .server_type(ServerType::new("new", bursty_m, 3.0, 1.0, CostModel::power(0.6, 0.4, 2.0)))
        .loads(
            stochastic::mmpp(bursty_t, 0.1 * cap, 0.6 * cap, 0.06, 0.25, 1.0, 7)
                .capped(0.9 * cap)
                .into_values(),
        )
        .build()
        .expect("bursty instance feasible");

    let td_t = if quick { 96 } else { 480 };
    let td_m = if quick { 10 } else { 20 };
    let prices: Vec<f64> = (0..td_t).map(|t| 0.6 + 0.4 * ((t % 24) as f64 / 23.0)).collect();
    let td_cap = 2.0 * f64::from(td_m);
    let time_dependent = Instance::builder()
        .server_type(ServerType::new("flat", td_m, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::with_spec(
            "priced",
            td_m,
            3.0,
            1.0,
            CostSpec::scaled(CostModel::power(0.8, 0.5, 2.0), prices),
        ))
        .loads(tiled_diurnal(td_t, 0.1 * td_cap, 0.55 * td_cap))
        .build()
        .expect("time-dependent instance feasible");

    let d3_t = if quick { 72 } else { 400 };
    let d3_m = if quick { 6 } else { 12 };
    let d3_cap = 3.0 * f64::from(d3_m);
    let three_types = Instance::builder()
        .server_type(ServerType::new("small", d3_m, 1.0, 1.0, CostModel::linear(0.4, 1.0)))
        .server_type(ServerType::new("mid", d3_m, 2.0, 1.0, CostModel::power(0.8, 0.5, 2.0)))
        .server_type(ServerType::new("big", d3_m, 4.0, 1.0, CostModel::quadratic(1.0, 0.5, 0.3)))
        .loads(tiled_diurnal(d3_t, 0.1 * d3_cap, 0.5 * d3_cap))
        .build()
        .expect("d=3 instance feasible");

    vec![
        Scenario { name: "diurnal_reference", instance: reference, gated: true },
        Scenario { name: "bursty_mmpp", instance: bursty, gated: false },
        Scenario { name: "time_dependent_costs", instance: time_dependent, gated: false },
        Scenario { name: "three_types", instance: three_types, gated: false },
    ]
}

struct Timed {
    cost: f64,
    schedule: rsz_core::Schedule,
    secs: f64,
}

fn time_best<F: FnMut() -> (f64, rsz_core::Schedule)>(iterations: usize, mut run: F) -> Timed {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iterations {
        let start = Instant::now();
        let (cost, schedule) = run();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some((cost, schedule));
    }
    let (cost, schedule) = out.expect("at least one iteration");
    Timed { cost, schedule, secs: best }
}

struct Row {
    name: &'static str,
    d: usize,
    horizon: usize,
    baseline_ms: f64,
    pipeline_ms: f64,
    speedup: f64,
    cost_gap_rel: f64,
    schedules_equal: bool,
    stats: RecoveryStats,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let iterations = if quick { 1 } else { 3 };

    let all = scenarios(quick);
    let mut rows: Vec<Row> = Vec::new();
    for sc in &all {
        let inst = &sc.instance;
        // The baseline materializes every table (one forward pass, no
        // checkpoint replay), so the comparison does not credit the
        // pipeline for replay work the per-cell solve never performs.
        let reference_opts = DpOptions { parallel: false, ..DpOptions::default() };
        let pipeline_opts = DpOptions::default();

        // Warm-up (page in code paths), then timed runs.
        let _ = forward_tables(inst, &Dispatcher::new(), reference_opts);

        // Baseline: the per-cell recurrence over a fresh g_t cache per
        // iteration (the cache's win is intra-solve reuse). This is the
        // one non-test place the memo still runs: the recurrence re-asks
        // every repeated (λ, x) cell, and without the memo the baseline
        // is about 9× slower (full mode, 2 vCPUs: diurnal reference 619 →
        // 5611 ms, bursty MMPP 96 → 842 ms), which would loosen the ≥ 2×
        // gate about ninefold.
        let baseline = time_best(iterations, || {
            let cache = CachedDispatcher::new(inst);
            let res = backtrack(inst, &forward_tables(inst, &cache, reference_opts));
            (res.cost, res.schedule)
        });

        // This PR: slot-batched pipeline over the plain dispatcher
        // (warm sweeps + pricing pool; no hash-map in the hot path).
        let mut stats = None;
        let pipeline = time_best(iterations, || {
            let (res, st) = solve_with_stats(inst, &Dispatcher::new(), pipeline_opts);
            stats = Some(st);
            (res.cost, res.schedule)
        });
        let stats = stats.expect("pipeline ran");

        let speedup = baseline.secs / pipeline.secs;
        let cost_gap_rel = (baseline.cost - pipeline.cost).abs() / baseline.cost.abs().max(1.0);
        let schedules_equal = baseline.schedule == pipeline.schedule;
        println!(
            "bench: dp_pipeline/{:<22} {:>9.2} ms -> {:>9.2} ms  ({speedup:>5.2}x, gap {cost_gap_rel:.2e}, pool {}, peak {} tables)",
            sc.name,
            baseline.secs * 1e3,
            pipeline.secs * 1e3,
            stats.pooled_pricing_tables,
            stats.peak_live_tables,
        );
        rows.push(Row {
            name: sc.name,
            d: inst.num_types(),
            horizon: inst.horizon(),
            baseline_ms: baseline.secs * 1e3,
            pipeline_ms: pipeline.secs * 1e3,
            speedup,
            cost_gap_rel,
            schedules_equal,
            stats,
        });

        // Correctness gates (always enforced).
        assert!(
            cost_gap_rel <= 1e-9,
            "{}: pipeline/baseline cost gap {cost_gap_rel:e} above 1e-9",
            sc.name
        );
        assert!(schedules_equal, "{}: pipeline recovered a different schedule", sc.name);
        // Performance gates: reference workload ≥ 2×, and the pure
        // time-dependent scenario must never lose to the cached
        // baseline, replay included — full mode only.
        if sc.gated && !quick {
            assert!(
                speedup >= 2.0,
                "{}: pipeline speedup {speedup:.2}x below the 2x gate",
                sc.name
            );
        }
        if sc.name == "time_dependent_costs" && !quick {
            assert!(
                speedup >= 1.0,
                "{}: pipeline regressed below the cached baseline ({speedup:.2}x)",
                sc.name
            );
        }
    }

    // Kernel-layer isolation on the gated instance: steady-state
    // engine-mode stepping (pool-warm, zero oracle calls per step) under
    // the lanes kernels vs the scalar twins — the transform + fold +
    // argmin work this bench's solves bottom out in, without the pricing
    // dilution. Asserts bit-identity between the modes as it times them.
    let gated_inst = &all.iter().find(|s| s.gated).expect("one gated scenario").instance;
    let (warm, steps) = (24, if quick { 48 } else { 96 });
    let kt = rsz_bench::kernelbench::measure(gated_inst, warm, steps, iterations);
    let kernel_speedup = kt.speedup();
    println!(
        "bench: dp_pipeline/kernels{:>16.2} ms -> {:>9.2} ms  ({kernel_speedup:>5.2}x scalar/simd, {steps} steps)",
        kt.scalar_ms, kt.simd_ms,
    );
    if !quick {
        assert!(
            kernel_speedup >= 2.0,
            "kernel layer speedup {kernel_speedup:.2}x below the 2x gate"
        );
    }

    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut runs = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            runs,
            "    {{\n      \"scenario\": \"{}\",\n      \"d\": {},\n      \"horizon\": {},\n      \"baseline_cached_ms\": {:.3},\n      \"pipeline_ms\": {:.3},\n      \"speedup\": {:.3},\n      \"cost_gap_rel\": {:.3e},\n      \"schedules_equal\": {},\n      \"segment_len\": {},\n      \"checkpoints\": {},\n      \"peak_live_tables\": {},\n      \"pooled_pricing_tables\": {}\n    }}{}",
            r.name,
            r.d,
            r.horizon,
            r.baseline_ms,
            r.pipeline_ms,
            r.speedup,
            r.cost_gap_rel,
            r.schedules_equal,
            r.stats.segment_len,
            r.stats.checkpoints,
            r.stats.peak_live_tables,
            r.stats.pooled_pricing_tables,
            if i + 1 < rows.len() { ",\n" } else { "\n" },
        );
    }
    let reference = rows.iter().find(|r| r.name == "diurnal_reference").expect("reference ran");
    let json = format!(
        "{{\n  \"bench\": \"dp_pipeline\",\n  \"quick\": {quick},\n  \"timestamp\": {timestamp},\n  \"reference_speedup\": {:.3},\n  \"kernel_scalar_ms\": {:.3},\n  \"kernel_simd_ms\": {:.3},\n  \"kernel_speedup\": {:.3},\n  \"runs\": [\n{runs}  ]\n}}\n",
        reference.speedup,
        kt.scalar_ms,
        kt.simd_ms,
        kernel_speedup,
    );

    // `cargo bench` sets the cwd to crates/bench; resolve the workspace
    // root so the JSON lands in the documented top-level locations.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root")
        .to_path_buf();
    for out_path in [root.join("results").join("dp_pipeline.json"), root.join("BENCH_dp.json")] {
        let write = out_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&out_path, &json));
        if let Err(e) = write {
            eprintln!("warning: could not write {}: {e}", out_path.display());
        } else {
            println!("bench: dp_pipeline/json  ... {}", out_path.display());
        }
    }
}
