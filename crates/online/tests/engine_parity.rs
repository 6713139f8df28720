//! Solver-path parity: the prefix solver's pooled dense pricing must
//! agree with the per-cell reference recurrence
//! ([`rsz_offline::dp::forward_tables`]) to the documented relative
//! `1e-9` sweep tolerance with identical argmins, Algorithm C must price
//! each original slot exactly once, and RHC's corridor-banded windows
//! must commit exactly the plain window DP's schedule. Schedules of
//! every algorithm are pinned against the per-cell path by
//! `tests/decision_fixture.rs` at the workspace root.

use proptest::prelude::*;
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::{CachedDispatcher, Dispatcher};
use rsz_offline::dp::{forward_tables, DpOptions};
use rsz_offline::{GridMode, PrefixDp};
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::runner::run;
use rsz_online::RecedingHorizon;

#[derive(Clone, Debug)]
struct Spec {
    d: usize,
    counts: Vec<u32>,
    betas: Vec<f64>,
    idles: Vec<f64>,
    load_fracs: Vec<f64>,
    price: Vec<f64>,
}

fn spec_strategy(max_d: usize, max_t: usize) -> impl Strategy<Value = Spec> {
    (1..=max_d).prop_flat_map(move |d| {
        (
            prop::collection::vec(1u32..=3, d..=d),
            prop::collection::vec(0.1..4.0_f64, d..=d),
            prop::collection::vec(0.1..2.0_f64, d..=d),
            prop::collection::vec(0.0..1.0_f64, 2..=max_t),
            prop::collection::vec(0.2..2.5_f64, max_t..=max_t),
        )
            .prop_map(move |(counts, betas, idles, load_fracs, price)| Spec {
                d,
                counts,
                betas,
                idles,
                load_fracs,
                price,
            })
    })
}

fn time_independent(spec: &Spec) -> Instance {
    let types: Vec<ServerType> = (0..spec.d)
        .map(|j| {
            ServerType::new(
                format!("t{j}"),
                spec.counts[j],
                spec.betas[j],
                1.0 + j as f64,
                CostModel::linear(spec.idles[j], 0.5),
            )
        })
        .collect();
    let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
    Instance::builder()
        .server_types(types)
        .loads(spec.load_fracs.iter().map(|f| f * cap).collect::<Vec<_>>())
        .build()
        .expect("feasible by construction")
}

fn time_dependent(spec: &Spec) -> Instance {
    let horizon = spec.load_fracs.len();
    let types: Vec<ServerType> = (0..spec.d)
        .map(|j| {
            ServerType::with_spec(
                format!("t{j}"),
                spec.counts[j],
                spec.betas[j],
                1.0 + j as f64,
                CostSpec::scaled(
                    CostModel::linear(spec.idles[j], 0.5),
                    spec.price[..horizon].to_vec(),
                ),
            )
        })
        .collect();
    let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
    Instance::builder()
        .server_types(types)
        .loads(spec.load_fracs.iter().map(|f| f * cap).collect::<Vec<_>>())
        .build()
        .expect("feasible by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// RHC with corridor-banded windows (`DpOptions::refine`) commits
    /// exactly the plain window DP's schedule, over both grids and both
    /// oracles, on time-independent and time-dependent costs alike.
    #[test]
    fn rhc_schedules_invariant_under_refine(spec in spec_strategy(2, 7), window in 1usize..5) {
        use rsz_offline::refine::RefineOptions;
        for inst in [time_independent(&spec), time_dependent(&spec)] {
            for target in [GridMode::Full, GridMode::Gamma(1.5)] {
                for cached in [false, true] {
                    let plain_opts =
                        DpOptions { grid: target, parallel: false, ..DpOptions::default() };
                    let refined_opts = DpOptions {
                        refine: Some(RefineOptions::exact().with_target(target)),
                        ..plain_opts
                    };
                    let (plain, refined) = if cached {
                        let oracle = CachedDispatcher::new(&inst);
                        let mut a =
                            RecedingHorizon::new(oracle.clone(), window).with_options(plain_opts);
                        let mut b =
                            RecedingHorizon::new(oracle.clone(), window).with_options(refined_opts);
                        (run(&inst, &mut a, &oracle).schedule, run(&inst, &mut b, &oracle).schedule)
                    } else {
                        let oracle = Dispatcher::new();
                        let mut a = RecedingHorizon::new(oracle, window).with_options(plain_opts);
                        let mut b = RecedingHorizon::new(oracle, window).with_options(refined_opts);
                        (run(&inst, &mut a, &oracle).schedule, run(&inst, &mut b, &oracle).schedule)
                    };
                    prop_assert_eq!(
                        &plain, &refined,
                        "w={} target={:?} cached={}: banded windows changed the schedule",
                        window, target, cached
                    );
                }
            }
        }
    }

    /// The rolling prefix tables agree cell-by-cell with the per-cell
    /// reference recurrence within the sweep tolerance, with identical
    /// argmins, on both cost shapes and both grids.
    #[test]
    fn prefix_tables_match_within_tolerance(spec in spec_strategy(2, 7)) {
        for inst in [time_independent(&spec), time_dependent(&spec)] {
            for grid in [GridMode::Full, GridMode::Gamma(1.5)] {
                let oracle = Dispatcher::new();
                let opts = DpOptions { grid, parallel: false, ..DpOptions::default() };
                let reference = forward_tables(&inst, &oracle, opts);
                let mut prefix = PrefixDp::new(&inst, opts);
                for (t, want) in reference.iter().enumerate() {
                    let got = prefix.step(&inst, &oracle, t);
                    let argmin = want.argmin().expect("feasible prefix");
                    prop_assert_eq!(got, want.config_of(argmin), "t={}: prefix argmin diverged", t);
                    prop_assert_eq!(prefix.table().len(), want.len());
                    for (i, (&x, &y)) in want.values().iter().zip(prefix.table().values()).enumerate() {
                        prop_assert!(
                            (x == y) || (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                            "t={} cell {}: {} vs {}", t, i, x, y
                        );
                    }
                }
            }
        }
    }

    /// Algorithm C prices each original slot exactly once, whatever ñ_t
    /// the refinement picks.
    #[test]
    fn algorithm_c_prices_each_slot_once(spec in spec_strategy(2, 7), eps in 0.1..1.0_f64) {
        let inst = time_dependent(&spec);
        let oracle = Dispatcher::new();
        let mut c = AlgorithmC::new(
            &inst,
            oracle,
            COptions { epsilon: eps, ..Default::default() },
        );
        let _ = run(&inst, &mut c, &oracle);
        let subslots: usize = c.subslot_log().iter().sum();
        let stats = c.engine_stats();
        prop_assert_eq!(
            stats.pricings,
            inst.horizon() as u64,
            "pricings must equal original slots (ñ total = {})", subslots
        );
        prop_assert_eq!(stats.pool_hits, (subslots - inst.horizon()) as u64);
    }
}
