//! Determinism: identical seeds produce identical instances, schedules
//! and costs — a prerequisite for reproducible experiments.

use heterogeneous_rightsizing::offline::dp::{solve, DpOptions};
use heterogeneous_rightsizing::online::algo_a::{AOptions, AlgorithmA};
use heterogeneous_rightsizing::online::algo_b::AlgorithmB;
use heterogeneous_rightsizing::online::runner::run;
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::workloads::{scenario, stochastic};

#[test]
fn scenarios_reproducible() {
    for seed in [0u64, 1, 42, 0xDEAD] {
        let a = scenario::diurnal_cpu_gpu(4, 2, 2, 8, seed);
        let b = scenario::diurnal_cpu_gpu(4, 2, 2, 8, seed);
        assert_eq!(a.loads(), b.loads());
        let c = scenario::bursty_old_new(3, 3, 16, seed);
        let d = scenario::bursty_old_new(3, 3, 16, seed);
        assert_eq!(c.loads(), d.loads());
    }
}

#[test]
fn different_seeds_differ() {
    let a = stochastic::mmpp(64, 1.0, 9.0, 0.1, 0.3, 1.0, 1);
    let b = stochastic::mmpp(64, 1.0, 9.0, 0.1, 0.3, 1.0, 2);
    assert_ne!(a, b);
}

#[test]
fn offline_solver_is_deterministic() {
    let inst = scenario::bursty_old_new(3, 3, 20, 9);
    let oracle = Dispatcher::new();
    let r1 = solve(&inst, &oracle, DpOptions::default());
    let r2 = solve(&inst, &oracle, DpOptions::default());
    assert_eq!(r1.schedule, r2.schedule);
    assert_eq!(r1.cost, r2.cost);
    // Parallel vs sequential must agree too (tie-breaking happens in
    // argmin/backtrack which are sequential either way).
    let r3 = solve(&inst, &oracle, DpOptions { parallel: false, ..Default::default() });
    assert_eq!(r1.schedule, r3.schedule);
}

#[test]
fn schedules_identical_across_parallelism() {
    // The recovered *schedule* — not just the cost — must be invariant
    // under the fill strategy (sequential vs parallel), bit for bit, on a
    // non-trivial dispatch workload (power costs force the KKT path).
    // Backtracking breaks value ties with a relative epsilon precisely so
    // last-bit wobbles cannot flip this.
    let inst = scenario::diurnal_cpu_gpu(5, 2, 2, 12, 21);
    let plain = Dispatcher::new();
    let reference = solve(&inst, &plain, DpOptions { parallel: false, ..Default::default() });
    for parallel in [false, true] {
        let got = solve(&inst, &plain, DpOptions { parallel, ..Default::default() });
        assert_eq!(reference.schedule, got.schedule, "parallel={parallel}");
        assert_eq!(reference.cost.to_bits(), got.cost.to_bits(), "parallel={parallel}");
    }
}

#[test]
fn scalar_and_simd_kernels_are_bit_identical_across_the_mode_matrix() {
    // The kernel-layer contract: forcing every kernel (and the transform
    // / band-slice layout paths) onto the scalar reference twins must
    // reproduce the lanes solve **bit for bit** — same schedule, same
    // cost bits — across the full mode matrix {parallel} × {refine}.
    // This is what lets the SIMD refactor ship without a tolerance bump
    // anywhere.
    use heterogeneous_rightsizing::offline::kernels::force_scalar;
    use heterogeneous_rightsizing::offline::refine::RefineOptions;
    let inst = scenario::diurnal_cpu_gpu(5, 2, 2, 12, 21);
    let plain = Dispatcher::new();
    for parallel in [false, true] {
        for refine in [false, true] {
            let opts = DpOptions {
                parallel,
                refine: refine.then(RefineOptions::exact),
                ..Default::default()
            };
            let run_mode = |scalar: bool| {
                force_scalar(scalar);
                let res = solve(&inst, &plain, opts);
                force_scalar(false);
                res
            };
            let lanes = run_mode(false);
            let scalar = run_mode(true);
            let tag = format!("parallel={parallel} refine={refine}");
            assert_eq!(lanes.schedule, scalar.schedule, "schedule: {tag}");
            assert_eq!(
                lanes.cost.to_bits(),
                scalar.cost.to_bits(),
                "cost bits: {tag} ({} vs {})",
                lanes.cost,
                scalar.cost
            );
        }
    }
}

#[test]
fn online_algorithms_are_deterministic() {
    let inst = scenario::electricity_market(5, 24, 12, 13);
    let oracle = Dispatcher::new();
    let run1 = {
        let mut a = AlgorithmB::new(&inst, oracle, AOptions::default());
        run(&inst, &mut a, &oracle)
    };
    let run2 = {
        let mut a = AlgorithmB::new(&inst, oracle, AOptions::default());
        run(&inst, &mut a, &oracle)
    };
    assert_eq!(run1.schedule, run2.schedule);

    let ti = scenario::diurnal_cpu_gpu(4, 2, 1, 12, 3);
    let ra = {
        let mut a = AlgorithmA::new(&ti, oracle, AOptions::default());
        run(&ti, &mut a, &oracle)
    };
    let rb = {
        let mut a = AlgorithmA::new(&ti, oracle, AOptions::default());
        run(&ti, &mut a, &oracle)
    };
    assert_eq!(ra.schedule, rb.schedule);
}

#[test]
fn experiment_reports_are_reproducible() {
    use rsz_bench_shim::*;
    let cfg = Config { quick: true, seed: 77 };
    assert_eq!(cfg.seed, 77); // the shim's fig5 is seed-independent by design
    let a = fig5(&cfg);
    let b = fig5(&cfg);
    assert_eq!(a, b);
}

/// Minimal shim re-running one deterministic experiment through the same
/// public APIs the bench crate uses (the bench crate itself is not a
/// dependency of the facade, so mirror its fig5 core here).
mod rsz_bench_shim {
    use heterogeneous_rightsizing::offline::dp::{solve, DpOptions};
    use heterogeneous_rightsizing::offline::rounding::corridor_schedule;
    use heterogeneous_rightsizing::prelude::*;

    pub struct Config {
        pub quick: bool,
        pub seed: u64,
    }

    pub fn fig5(cfg: &Config) -> String {
        let len = if cfg.quick { 12 } else { 17 };
        let loads: Vec<f64> = (0..len)
            .map(|t| {
                let phase = t as f64 / len as f64 * std::f64::consts::TAU;
                (5.0 + 5.0 * phase.sin()).clamp(0.0, 10.0)
            })
            .collect();
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 10, 2.0, 1.0, CostModel::linear(0.4, 1.0)))
            .loads(loads)
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let opt = solve(&inst, &oracle, DpOptions::default());
        let witness = corridor_schedule(&inst, &opt.schedule, 2.0);
        format!("{} | {} | {}", opt.cost, opt.schedule, witness)
    }
}
