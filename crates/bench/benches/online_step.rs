//! Per-decision latency of the online algorithms — what a cluster
//! controller would pay every slot.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::GridMode;
use rsz_online::algo_a::{AOptions, AlgorithmA};
use rsz_online::algo_b::AlgorithmB;
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::runner::OnlineAlgorithm;

fn instance(m: u32, horizon: usize, time_dependent: bool) -> Instance {
    let price: Vec<f64> = (0..horizon)
        .map(|t| 1.0 + 0.5 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
        .collect();
    let cost = if time_dependent {
        CostSpec::scaled(CostModel::linear(0.4, 1.0), price)
    } else {
        CostSpec::Uniform(CostModel::linear(0.4, 1.0))
    };
    let loads: Vec<f64> =
        (0..horizon).map(|t| f64::from(m) * (0.3 + 0.25 * ((t * 7) % 13) as f64 / 13.0)).collect();
    Instance::builder()
        .server_type(ServerType::with_spec("a", m, 2.0, 1.0, cost))
        .loads(loads)
        .build()
        .unwrap()
}

/// A `d = 3` heterogeneous fleet, for the wider-grid latency trend.
fn instance_d3(m: u32, horizon: usize, time_dependent: bool) -> Instance {
    let price: Vec<f64> = (0..horizon)
        .map(|t| 1.0 + 0.5 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
        .collect();
    let spec = |model: CostModel| {
        if time_dependent {
            CostSpec::scaled(model, price.clone())
        } else {
            CostSpec::Uniform(model)
        }
    };
    let cap = 3.0 * f64::from(m);
    let loads: Vec<f64> =
        (0..horizon).map(|t| cap * (0.2 + 0.2 * ((t * 7) % 13) as f64 / 13.0)).collect();
    Instance::builder()
        .server_type(ServerType::with_spec("small", m, 2.0, 1.0, spec(CostModel::linear(0.4, 1.0))))
        .server_type(ServerType::with_spec(
            "mid",
            m,
            3.0,
            1.0,
            spec(CostModel::power(0.8, 0.5, 2.0)),
        ))
        .server_type(ServerType::with_spec("big", m, 5.0, 1.0, spec(CostModel::linear(1.0, 0.6))))
        .loads(loads)
        .build()
        .unwrap()
}

fn drive(algo: &mut dyn OnlineAlgorithm, inst: &Instance) -> u64 {
    let mut acc = 0u64;
    for t in 0..inst.horizon() {
        acc = acc.wrapping_add(u64::from(algo.decide(inst, t).count(0)));
    }
    acc
}

fn bench_online(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_whole_run");
    group.sample_size(10);
    let horizon = 48;
    for &m in &[64u32, 512] {
        let ti = instance(m, horizon, false);
        let td = instance(m, horizon, true);
        let oracle = Dispatcher::new();
        group.bench_with_input(BenchmarkId::new("algo_a_full", m), &m, |b, _| {
            b.iter(|| {
                let mut a = AlgorithmA::new(&ti, oracle, AOptions::default());
                black_box(drive(&mut a, &ti))
            })
        });
        group.bench_with_input(BenchmarkId::new("algo_a_gamma", m), &m, |b, _| {
            b.iter(|| {
                let mut a = AlgorithmA::new(
                    &ti,
                    oracle,
                    AOptions { grid: GridMode::Gamma(1.5), parallel: false, ..AOptions::default() },
                );
                black_box(drive(&mut a, &ti))
            })
        });
        group.bench_with_input(BenchmarkId::new("algo_b", m), &m, |b, _| {
            b.iter(|| {
                let mut a = AlgorithmB::new(&td, oracle, AOptions::default());
                black_box(drive(&mut a, &td))
            })
        });
        // Two refinement widths: ε drives ñ_t, so the per-decision cost
        // trend across ε is the sub-slot replay's headline number.
        for eps in [0.25, 0.5] {
            group.bench_with_input(BenchmarkId::new(format!("algo_c_eps_{eps}"), m), &m, |b, _| {
                b.iter(|| {
                    let mut a = AlgorithmC::new(
                        &td,
                        oracle,
                        COptions { epsilon: eps, ..Default::default() },
                    );
                    black_box(drive(&mut a, &td))
                })
            });
        }
    }
    // d = 3: the grid is |m|³ cells, so per-decision latency is dominated
    // by pricing — the regime the engine's priced-slot pool targets.
    for &m in &[4u32, 8] {
        let ti3 = instance_d3(m, horizon, false);
        let td3 = instance_d3(m, horizon, true);
        let oracle = Dispatcher::new();
        group.bench_with_input(BenchmarkId::new("algo_a_d3", m), &m, |b, _| {
            b.iter(|| {
                let mut a = AlgorithmA::new(&ti3, oracle, AOptions::default());
                black_box(drive(&mut a, &ti3))
            })
        });
        for eps in [0.25, 0.5] {
            group.bench_with_input(
                BenchmarkId::new(format!("algo_c_d3_eps_{eps}"), m),
                &m,
                |b, _| {
                    b.iter(|| {
                        let mut a = AlgorithmC::new(
                            &td3,
                            oracle,
                            COptions { epsilon: eps, ..Default::default() },
                        );
                        black_box(drive(&mut a, &td3))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_online);
criterion_main!(benches);
