//! `solver_timevarying`: no daemon. A three-tier fleet whose every
//! cost is scaled by a per-slot diurnal electricity price, solved
//! offline with `DpOptions::default()` (what `rsz solve --algorithm
//! opt` runs) and online with Algorithm C (ε = 0.5, default options)
//! through `rsz_online::run` on the same instance.
//!
//! Time-dependent costs stop slots from sharing pricing, so dispatch
//! pricing and the DP recurrence do the work here — the mechanism both
//! serve workloads bypass.

use std::time::Instant;

use rsz_core::{CostSpec, Instance, Schedule, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::{solve_graph, DpOptions, GridMode};
use rsz_online::algo_c::COptions;
use rsz_online::{restore_run, save_run, AlgorithmC, OnlineAlgorithm};
use rsz_workloads::{costs, fleet};

use crate::common::{diurnal_loads, median, mix, quantile, Args, Ops, Outcome, Size};
use crate::oracle::{cost_of, plan, rel_diff, CountingOracle, Plan, Timed};

const EPSILON: f64 = 0.5;

struct Params {
    days: usize,
    slots_per_day: usize,
    fleet: (u32, u32, u32),
    /// Prefix the §4.1 graph solver re-solves as an oracle.
    graph_prefix: usize,
    setup_reps: usize,
    restore_reps: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            days: 16,
            slots_per_day: 24,
            fleet: (16, 8, 4),
            graph_prefix: 12,
            setup_reps: 25,
            restore_reps: 11,
        },
        Size::Toy => Params {
            days: 2,
            slots_per_day: 24,
            fleet: (4, 2, 1),
            graph_prefix: 8,
            setup_reps: 3,
            restore_reps: 3,
        },
    }
}

/// The three-tier fleet with every type's cost shape multiplied by the
/// same per-slot electricity price.
fn priced_fleet(p: &Params, horizon: usize) -> Vec<ServerType> {
    let prices = costs::price_profile_diurnal(horizon, 0.5, 2.0, p.slots_per_day);
    let (l, c, g) = p.fleet;
    fleet::three_tier(l, c, g)
        .into_iter()
        .map(|ty| {
            let CostSpec::Uniform(base) = ty.cost else { panic!("preset costs are uniform") };
            let spec = CostSpec::scaled(base, prices.clone());
            ServerType::with_spec(ty.name, ty.count, ty.switching_cost, ty.capacity, spec)
        })
        .collect()
}

fn build(p: &Params, seed: u64) -> Instance {
    let horizon = p.days * p.slots_per_day;
    let types = priced_fleet(p, horizon);
    let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
    // Demand peaks when the price does (phase 0 for both).
    let loads =
        diurnal_loads(seed, horizon, p.slots_per_day, (0.1 * cap, 0.85 * cap), 0.9 * cap, 0.0);
    Instance::builder().server_types(types).loads(loads).build().expect("loads fit the fleet")
}

fn algorithm_c<O: rsz_core::GtOracle + Sync>(instance: &Instance, oracle: O) -> AlgorithmC<O> {
    AlgorithmC::new(instance, oracle, COptions { epsilon: EPSILON, ..COptions::default() })
}

struct Rep {
    plan: Plan,
    online_s: f64,
    decide_us: Vec<f64>,
    schedule: Schedule,
    guarantee: f64,
    online_pricing: Option<(u64, u64, f64)>,
}

fn rep(instance: &Instance, traced: bool) -> Rep {
    let plan = plan(instance, traced);
    if traced {
        let oracle = CountingOracle::new(Dispatcher::new());
        let tally = oracle.tally();
        let mut c = Timed::new(algorithm_c(instance, oracle));
        let clock = Instant::now();
        let run = rsz_online::run(instance, &mut c, &Dispatcher::new());
        let online_s = clock.elapsed().as_secs_f64();
        let guarantee = c.inner.effective_guarantee();
        Rep {
            plan,
            online_s,
            decide_us: c.us,
            schedule: run.schedule,
            guarantee,
            online_pricing: Some(tally.totals()),
        }
    } else {
        let mut c = Timed::new(algorithm_c(instance, Dispatcher::new()));
        let clock = Instant::now();
        let run = rsz_online::run(instance, &mut c, &Dispatcher::new());
        let online_s = clock.elapsed().as_secs_f64();
        let guarantee = c.inner.effective_guarantee();
        Rep {
            plan,
            online_s,
            decide_us: c.us,
            schedule: run.schedule,
            guarantee,
            online_pricing: None,
        }
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let p = params(args.size);
    let horizon = p.days * p.slots_per_day;
    let (l, c, g) = p.fleet;
    out.context("fleet", format!("three-tier:{l},{c},{g} x diurnal price 0.5-2.0"));
    out.context("horizon_slots", horizon);
    out.context("algorithms", format!("opt (DpOptions::default), C(eps={EPSILON})"));

    // --- set-up: trace, price profile and instance generation ---
    let seed = mix(args.seed, 0);
    let mut setup_s = Vec::new();
    let mut instance = None;
    for _ in 0..p.setup_reps {
        let clock = Instant::now();
        let built = build(&p, seed);
        setup_s.push(clock.elapsed().as_secs_f64());
        instance = Some(built);
    }
    let instance = instance.expect("built");
    out.phase(
        "setup",
        Ops { sent: p.setup_reps as u64, ok: p.setup_reps as u64, ..Ops::default() },
    );

    // --- a mid-horizon checkpoint of C, for the recovery figure ---
    let half = horizon / 2;
    let mut c = algorithm_c(&instance, Dispatcher::new());
    let mut committed = Schedule::empty();
    for t in 0..half {
        committed.push(c.decide(&instance, t));
    }
    let bytes = save_run(&c, &instance, &committed);

    // --- plan + online, repeated until the measuring time is used; the
    // restores run between repetitions so their median samples the
    // machine's state across the run ---
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut restore_ms = Vec::new();
    let mut resumed = None;
    loop {
        reps.push(rep(&instance, args.trace));
        for _ in 0..p.restore_reps {
            let clock = Instant::now();
            let mut fresh = algorithm_c(&instance, Dispatcher::new());
            let restored = restore_run(&mut fresh, &instance, &bytes);
            restore_ms.push(clock.elapsed().as_secs_f64() * 1e3);
            resumed = Some((fresh, restored));
        }
        if args.trace || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let n = reps.len() as u64;
    out.phase("solve", Ops { sent: 2 * n, ok: 2 * n, ..Ops::default() });
    out.context("repetitions", reps.len());

    // --- output checks ---
    let first = &reps[0];
    let d = instance.num_types() as f64;
    let opt = first.plan.cost;
    let c_cost = cost_of(&instance, &first.schedule);
    let ratio = c_cost / opt;
    let bound = 2.0 * d + 1.0 + EPSILON;
    out.check(
        "schedules_feasible",
        first.plan.schedule.is_feasible(&instance) && first.schedule.is_feasible(&instance),
        "optimal and C schedules",
    );
    out.check(
        "cost_ratio_within_thm15",
        ratio >= 1.0 - 1e-9 && ratio <= bound,
        format!(
            "C/OPT = {ratio:.6} <= 2d+1+eps = {bound:.3} (realized 2d+1+c = {:.4})",
            first.guarantee
        ),
    );
    let evaluated = cost_of(&instance, &first.plan.schedule);
    out.check(
        "opt_cost_matches_its_schedule",
        rel_diff(evaluated, opt) <= 1e-9,
        format!("solve cost {opt} vs evaluated schedule {evaluated}"),
    );
    let prefix = instance.truncated(p.graph_prefix);
    let dp = rsz_offline::solve(&prefix, &Dispatcher::new(), DpOptions::default()).cost;
    let graph = solve_graph(&prefix, &Dispatcher::new(), GridMode::Full).cost;
    out.check(
        "opt_equals_graph_solver",
        rel_diff(dp, graph) <= 1e-9,
        format!("{}-slot prefix: DP {dp} vs §4.1 graph {graph}", p.graph_prefix),
    );
    let stable = reps.iter().all(|r| r.plan.cost == opt && r.schedule == first.schedule);
    out.check("repetitions_deterministic", stable, format!("{n} repetitions"));

    // --- recovery: the restored C decides on identically ---
    let (mut fresh, restored) = resumed.expect("restored");
    let resumes = restored.as_ref().is_ok_and(|s| s.len() == half);
    let same = (half..horizon).all(|t| &fresh.decide(&instance, t) == first.schedule.config(t));
    out.check(
        "recovery_resumes_identically",
        resumes && same,
        format!("restored at slot {half}, continued to {horizon}"),
    );

    // --- metrics ---
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let block = horizon / 8;
    let growth = |r: &Rep| median(&r.decide_us[horizon - block..]) / median(&r.decide_us[..block]);
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("tick_p50_us", med(&|r| quantile(&r.decide_us, 0.5)), "us");
    out.metric("tick_p99_us", med(&|r| quantile(&r.decide_us, 0.99)), "us");
    out.metric("ticks_per_s", med(&|r| horizon as f64 / r.online_s), "1/s");
    out.metric("tick_growth", med(&growth), "ratio");
    out.metric("recovery_ms", median(&restore_ms), "ms");
    out.metric("plan_s", med(&|r| r.plan.seconds), "s");
    out.metric("online_s", med(&|r| r.online_s), "s");
    out.metric("cost_ratio", ratio, "ratio");
    out.metric("peak_rss_mb", crate::common::peak_rss_mb(None), "MiB");
    out.context("tick_samples", reps.iter().map(|r| r.decide_us.len()).sum::<usize>());

    if args.trace {
        report_pricing(out, &first.plan);
        out.metric("online.decide_us_p50", quantile(&first.decide_us, 0.5), "us");
        out.metric("online.decide_us_p99", quantile(&first.decide_us, 0.99), "us");
        if let Some((opens, evals, busy)) = first.online_pricing {
            out.metric("online.dispatch.slot_opens", opens as f64, "count");
            out.metric("online.dispatch.evals", evals as f64, "count");
            out.metric("online.dispatch.busy_s", busy, "s");
            out.metric("online.self_s", first.online_s - busy, "s");
        }
        let (_, stats) =
            rsz_offline::solve_with_stats(&instance, &Dispatcher::new(), DpOptions::default());
        out.metric("offline.recovery.segment_len", stats.segment_len as f64, "count");
        out.metric("offline.recovery.checkpoints", stats.checkpoints as f64, "count");
        out.metric("offline.recovery.peak_live_tables", stats.peak_live_tables as f64, "count");
        out.metric(
            "offline.recovery.pooled_pricing_tables",
            stats.pooled_pricing_tables as f64,
            "count",
        );
    }
}

/// The offline solve's pricing split (traced runs): slot contexts,
/// evaluations, time inside the oracle, and the DP's own remainder.
pub fn report_pricing(out: &mut Outcome, plan: &Plan) {
    if let Some((opens, evals, busy)) = plan.pricing {
        out.metric("dispatch.slot_opens", opens as f64, "count");
        out.metric("dispatch.evals", evals as f64, "count");
        out.metric("dispatch.busy_s", busy, "s");
        out.metric("offline.plan_self_s", plan.seconds - busy, "s");
    }
}
