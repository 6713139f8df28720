//! Pinned decisions: every solver path must reproduce, bit for bit, the
//! schedules recorded in `tests/fixtures/engine_off_schedules.txt`.
//!
//! The fixture was written by the per-cell solve path (every table cell
//! priced through `GtOracle::slot_eval`, one `dp_step` per slot) before
//! the priced-slot pipeline became the only configuration. It covers
//! the offline optimum, Algorithms A, B and C, LCP and RHC on both
//! grids (`Full`, `Γ(1.5)`) over a time-independent and a
//! time-dependent instance (Algorithm A only runs on the former), so
//! any change to pricing, pooling or tie-breaking that flips a single
//! committed configuration shows up here as a line diff.

use heterogeneous_rightsizing::core::{CostSpec, Schedule};
use heterogeneous_rightsizing::offline::dp::{solve, DpOptions};
use heterogeneous_rightsizing::online::algo_a::{AOptions, AlgorithmA};
use heterogeneous_rightsizing::online::algo_b::AlgorithmB;
use heterogeneous_rightsizing::online::algo_c::{AlgorithmC, COptions};
use heterogeneous_rightsizing::online::runner::run;
use heterogeneous_rightsizing::online::{LazyCapacityProvisioning, RecedingHorizon};
use heterogeneous_rightsizing::prelude::*;

const FIXTURE: &str = include_str!("fixtures/engine_off_schedules.txt");

/// Loads with recurring values, so time-independent pricing pools hit.
const LOADS: [f64; 18] =
    [1.0, 4.5, 9.0, 12.5, 7.0, 2.0, 0.0, 4.5, 9.0, 14.0, 11.0, 3.5, 1.0, 6.0, 12.5, 9.0, 2.0, 0.5];

/// Per-slot electricity price of the time-dependent variants.
fn prices() -> Vec<f64> {
    (0..LOADS.len()).map(|t| 0.6 + 0.15 * ((t * 5 % 7) as f64)).collect()
}

/// Two server types: cheap linear CPUs and power-law GPUs (the KKT
/// dispatch path), large enough that `Γ(1.5)` thins the grid.
fn heterogeneous(time_dependent: bool) -> Instance {
    let models = [
        ("cpu", 9, 3.0, 1.0, CostModel::linear(0.5, 1.0)),
        ("gpu", 4, 7.0, 3.0, CostModel::power(1.2, 0.4, 2.0)),
    ];
    let types = models.into_iter().map(|(name, m, beta, cap, model)| {
        if time_dependent {
            ServerType::with_spec(name, m, beta, cap, CostSpec::scaled(model, prices()))
        } else {
            ServerType::new(name, m, beta, cap, model)
        }
    });
    Instance::builder().server_types(types).loads(LOADS.to_vec()).build().unwrap()
}

/// One power-law server type (LCP is defined for `d = 1` only).
fn homogeneous(time_dependent: bool) -> Instance {
    let model = CostModel::power(0.8, 0.3, 2.0);
    let server = if time_dependent {
        ServerType::with_spec("node", 16, 4.0, 1.0, CostSpec::scaled(model, prices()))
    } else {
        ServerType::new("node", 16, 4.0, 1.0, model)
    };
    Instance::builder().server_type(server).loads(LOADS.to_vec()).build().unwrap()
}

fn render(schedule: &Schedule) -> String {
    let slots: Vec<String> = (0..schedule.len())
        .map(|t| {
            let counts: Vec<String> =
                schedule.config(t).counts().iter().map(u32::to_string).collect();
            counts.join(",")
        })
        .collect();
    slots.join(" ")
}

/// Every pinned case as `(label, schedule)`, in fixture order.
fn cases() -> Vec<(String, Schedule)> {
    let oracle = Dispatcher::new();
    let mut out = Vec::new();
    for (grid_name, grid) in [("full", GridMode::Full), ("gamma1.5", GridMode::Gamma(1.5))] {
        for (shape, td) in [("ti", false), ("td", true)] {
            let label = |algo: &str| format!("{algo} {grid_name} {shape}");
            let inst = heterogeneous(td);
            let dp = DpOptions { grid, parallel: false, ..DpOptions::default() };
            out.push((label("opt"), solve(&inst, &oracle, dp).schedule));

            let aopts = AOptions { grid, ..AOptions::default() };
            if !td {
                let mut a = AlgorithmA::new(&inst, oracle, aopts);
                out.push((label("a"), run(&inst, &mut a, &oracle).schedule));
            }
            let mut b = AlgorithmB::new(&inst, oracle, aopts);
            out.push((label("b"), run(&inst, &mut b, &oracle).schedule));
            for eps in [0.5, 0.2] {
                let copts = COptions { epsilon: eps, base: aopts, ..COptions::default() };
                let mut c = AlgorithmC::new(&inst, oracle, copts);
                out.push((label(&format!("c:{eps}")), run(&inst, &mut c, &oracle).schedule));
            }
            for window in [1, 3] {
                let mut r = RecedingHorizon::new(oracle, window).with_grid(grid);
                out.push((label(&format!("rhc:{window}")), run(&inst, &mut r, &oracle).schedule));
            }

            let homo = homogeneous(td);
            let mut l = LazyCapacityProvisioning::with_options(&homo, oracle, dp);
            out.push((label("lcp"), run(&homo, &mut l, &oracle).schedule));
        }
    }
    out
}

#[test]
fn solver_reproduces_the_pinned_per_cell_schedules() {
    let pinned: Vec<(&str, &str)> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| l.split_once(": ").expect("`label: schedule` line"))
        .collect();
    let got = cases();
    assert_eq!(got.len(), pinned.len(), "case count differs from the fixture");
    for ((label, schedule), (want_label, want)) in got.iter().zip(&pinned) {
        assert_eq!(label, want_label, "fixture order changed");
        assert_eq!(render(schedule), *want, "{label}: schedule differs from the pinned one");
    }
}
