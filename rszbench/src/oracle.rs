//! A counting, timing `GtOracle` wrapper (traced runs only) and the
//! reference computations every workload checks its outputs against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rsz_core::{Config, GtOracle, Instance, Schedule, SlotEval};
use rsz_dispatch::Dispatcher;
use rsz_online::OnlineAlgorithm;

/// Pricing counters, shared so they stay readable after the oracle
/// has moved into a controller.
#[derive(Default)]
pub struct Tally {
    opens: AtomicU64,
    evals: AtomicU64,
    busy_ns: AtomicU64,
}

impl Tally {
    /// `(slot contexts opened, evaluations, busy seconds)`.
    pub fn totals(&self) -> (u64, u64, f64) {
        (
            self.opens.load(Ordering::Relaxed),
            self.evals.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
        )
    }
}

/// Forwards every pricing call to the wrapped oracle, counting slot
/// contexts opened, configurations evaluated, and the time spent
/// inside the oracle (summed over threads).
pub struct CountingOracle<O> {
    inner: O,
    tally: Arc<Tally>,
}

impl<O> CountingOracle<O> {
    pub fn new(inner: O) -> Self {
        Self { inner, tally: Arc::default() }
    }

    /// The counters, readable after the oracle has moved.
    pub fn tally(&self) -> Arc<Tally> {
        Arc::clone(&self.tally)
    }

    fn charge(&self, start: Instant) {
        // Relaxed: plain statistics, read after the solve has joined.
        self.tally.evals.fetch_add(1, Ordering::Relaxed);
        self.tally.busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

struct CountingEval<'a, O> {
    inner: Box<dyn SlotEval + 'a>,
    owner: &'a CountingOracle<O>,
}

impl<O> SlotEval for CountingEval<'_, O> {
    fn eval(&mut self, x: &[u32]) -> f64 {
        let start = Instant::now();
        let v = self.inner.eval(x);
        self.owner.charge(start);
        v
    }
}

impl<O: GtOracle> GtOracle for CountingOracle<O> {
    fn g(&self, instance: &Instance, t: usize, x: &[u32]) -> f64 {
        let start = Instant::now();
        let v = self.inner.g(instance, t, x);
        self.charge(start);
        v
    }

    fn g_scaled(
        &self,
        instance: &Instance,
        t: usize,
        x: &[u32],
        lambda: f64,
        cost_scale: f64,
    ) -> f64 {
        let start = Instant::now();
        let v = self.inner.g_scaled(instance, t, x, lambda, cost_scale);
        self.charge(start);
        v
    }

    fn slot_eval<'a>(
        &'a self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> Box<dyn SlotEval + 'a> {
        self.tally.opens.fetch_add(1, Ordering::Relaxed);
        Box::new(CountingEval {
            inner: self.inner.slot_eval(instance, t, lambda, cost_scale),
            owner: self,
        })
    }

    fn slot_sweep<'a>(
        &'a self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> Box<dyn SlotEval + 'a> {
        self.tally.opens.fetch_add(1, Ordering::Relaxed);
        Box::new(CountingEval {
            inner: self.inner.slot_sweep(instance, t, lambda, cost_scale),
            owner: self,
        })
    }

    fn is_memoizing(&self) -> bool {
        self.inner.is_memoizing()
    }
}

/// The offline optimum `rsz solve --algorithm opt` computes, with its
/// wall-clock time; traced runs also return the pricing split.
pub struct Plan {
    pub cost: f64,
    pub schedule: Schedule,
    pub seconds: f64,
    /// `(slot opens, evals, busy seconds)` when traced.
    pub pricing: Option<(u64, u64, f64)>,
}

pub fn plan(instance: &Instance, traced: bool) -> Plan {
    let options = rsz_offline::DpOptions::default();
    if traced {
        let oracle = CountingOracle::new(Dispatcher::new());
        let start = Instant::now();
        let r = rsz_offline::solve(instance, &oracle, options);
        let seconds = start.elapsed().as_secs_f64();
        Plan { cost: r.cost, schedule: r.schedule, seconds, pricing: Some(oracle.tally().totals()) }
    } else {
        let start = Instant::now();
        let r = rsz_offline::solve(instance, &Dispatcher::new(), options);
        let seconds = start.elapsed().as_secs_f64();
        Plan { cost: r.cost, schedule: r.schedule, seconds, pricing: None }
    }
}

/// Total cost of `schedule` on `instance`.
#[must_use]
pub fn cost_of(instance: &Instance, schedule: &Schedule) -> f64 {
    rsz_core::objective::evaluate(instance, schedule, &Dispatcher::new()).total()
}

/// Build an instance over a fleet and loads.
#[must_use]
pub fn instance(types: &[rsz_core::ServerType], loads: &[f64]) -> Instance {
    Instance::builder()
        .server_types(types.iter().cloned())
        .loads(loads.to_vec())
        .build()
        .expect("generated loads fit the fleet")
}

/// Relative difference, symmetric.
#[must_use]
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

/// Times every decision of the wrapped controller.
pub struct Timed<A> {
    pub inner: A,
    /// Decision latencies, µs, in slot order.
    pub us: Vec<f64>,
}

impl<A> Timed<A> {
    pub fn new(inner: A) -> Self {
        Self { inner, us: Vec::new() }
    }
}

impl<A: OnlineAlgorithm> OnlineAlgorithm for Timed<A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        let start = Instant::now();
        let config = self.inner.decide(instance, t);
        self.us.push(start.elapsed().as_secs_f64() * 1e6);
        config
    }
}
