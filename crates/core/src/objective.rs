//! Cost evaluation: gluing schedules to a dispatch solver.
//!
//! The total cost of a schedule (Eq. 2 of the paper) splits into switching
//! cost — computable from the model alone — and operating cost
//! `Σ_t g_t(x_t)`, which requires solving the per-slot dispatch problem
//! (Eq. 1). This crate stays solver-agnostic: anything implementing
//! [`GtOracle`] (in practice `rsz_dispatch::Dispatcher`) can price a
//! schedule.

use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::util::stable_sum;

/// A solver for the per-slot operating cost
/// `g_t(x) = min_z Σ_j x_j f_{t,j}(λ_t z_j / x_j)`.
///
/// Implementations must return `f64::INFINITY` when `x` cannot process
/// `λ_t` (insufficient capacity) and `0.0` when both `x = 0` and
/// `λ_t = 0`.
pub trait GtOracle {
    /// Operating cost of configuration `x` (given as per-type counts) at
    /// slot `t` of `instance`.
    fn g(&self, instance: &Instance, t: usize, x: &[u32]) -> f64;

    /// Operating cost with the job volume overridden (used by prefix
    /// solvers and the sub-slot refinement of Algorithm C, where `λ` and
    /// the cost scale differ from the instance's own slots).
    ///
    /// `cost_scale` multiplies every cost function of the slot.
    fn g_scaled(
        &self,
        instance: &Instance,
        t: usize,
        x: &[u32],
        lambda: f64,
        cost_scale: f64,
    ) -> f64;

    /// Open a per-slot evaluation context for pricing **many**
    /// configurations of the same `(t, λ, cost_scale)` slot — the DP's
    /// inner loop. Implementations can hoist per-slot precomputation
    /// (arm/cost views) out of the per-configuration path and solve into
    /// reusable scratch buffers; each DP worker thread opens its own
    /// context, so [`SlotEval`] needs no synchronization.
    ///
    /// Every [`SlotEval::eval`] must return exactly what
    /// [`GtOracle::g_scaled`] would for the same arguments. The default
    /// simply forwards to it.
    fn slot_eval<'a>(
        &'a self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> Box<dyn SlotEval + 'a> {
        Box::new(ForwardingSlotEval { oracle: self, instance, t, lambda, cost_scale })
    }

    /// `true` if repeated queries for the same `(t, λ, x)` are answered
    /// from a memo (cache hits) rather than re-solved: replaying a slot
    /// against a memoizing oracle costs lookups, while replaying against
    /// a plain solver re-pays the full pricing. Informational — callers
    /// that schedule replays may consult it. The default is `false`
    /// (plain solvers); memoization wrappers override it.
    fn is_memoizing(&self) -> bool {
        false
    }

    /// Like [`GtOracle::slot_eval`], but the caller promises to price the
    /// slot's configurations as a **sweep**: consecutive [`SlotEval::eval`]
    /// calls walk the grid in layout order, each configuration a close
    /// neighbour of the previous one. Implementations may exploit that
    /// locality — e.g. warm-starting an iterative solver from the
    /// previous cell's state — at the cost of a relaxed contract: values
    /// may differ from [`GtOracle::g_scaled`] by up to a relative `1e-9`
    /// (instead of bit-for-bit). The default ignores the promise and
    /// forwards to [`GtOracle::slot_eval`].
    fn slot_sweep<'a>(
        &'a self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> Box<dyn SlotEval + 'a> {
        self.slot_eval(instance, t, lambda, cost_scale)
    }
}

/// A slot-scoped `g` evaluator created by [`GtOracle::slot_eval`]: prices
/// one configuration after another for a fixed `(t, λ, cost_scale)`,
/// possibly reusing internal scratch between calls (hence `&mut self`).
pub trait SlotEval {
    /// Operating cost of configuration `x` under this context's slot,
    /// volume and cost scale — identical to the owning oracle's
    /// [`GtOracle::g_scaled`] on the same inputs.
    fn eval(&mut self, x: &[u32]) -> f64;
}

/// Default [`SlotEval`]: stateless forwarding to [`GtOracle::g_scaled`].
struct ForwardingSlotEval<'a, O: ?Sized> {
    oracle: &'a O,
    instance: &'a Instance,
    t: usize,
    lambda: f64,
    cost_scale: f64,
}

impl<O: GtOracle + ?Sized> SlotEval for ForwardingSlotEval<'_, O> {
    fn eval(&mut self, x: &[u32]) -> f64 {
        self.oracle.g_scaled(self.instance, self.t, x, self.lambda, self.cost_scale)
    }
}

/// The cost of a schedule, split the way the paper's analysis splits it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostBreakdown {
    /// Total operating cost `Σ_t g_t(x_t)`.
    pub operating: f64,
    /// Total switching cost `Σ_t Σ_j β_j (x_{t,j} − x_{t−1,j})^+`.
    pub switching: f64,
}

impl CostBreakdown {
    /// Total cost `C(X)`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.operating + self.switching
    }
}

/// Per-slot cost record for traces and plots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlotCost {
    /// Operating cost `g_t(x_t)` of the slot.
    pub operating: f64,
    /// Switching cost paid entering the slot.
    pub switching: f64,
}

/// Total operating cost of `schedule` on `instance` under `oracle`.
#[must_use]
pub fn operating_cost(instance: &Instance, schedule: &Schedule, oracle: &dyn GtOracle) -> f64 {
    let per_slot: Vec<f64> =
        schedule.iter().map(|(t, x)| oracle.g(instance, t, x.counts())).collect();
    stable_sum(&per_slot)
}

/// Full cost breakdown of `schedule` on `instance` under `oracle`.
#[must_use]
pub fn evaluate(instance: &Instance, schedule: &Schedule, oracle: &dyn GtOracle) -> CostBreakdown {
    CostBreakdown {
        operating: operating_cost(instance, schedule, oracle),
        switching: schedule.switching_cost(instance),
    }
}

/// Per-slot costs of `schedule`, for traces and figures.
#[must_use]
pub fn per_slot_costs(
    instance: &Instance,
    schedule: &Schedule,
    oracle: &dyn GtOracle,
) -> Vec<SlotCost> {
    let d = instance.num_types();
    let mut out = Vec::with_capacity(schedule.len());
    let mut prev = crate::config::Config::zeros(d);
    for (t, x) in schedule.iter() {
        let switching = prev.switching_cost_to(x, instance.types());
        let operating = oracle.g(instance, t, x.counts());
        out.push(SlotCost { operating, switching });
        prev = x.clone();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::cost::CostModel;
    use crate::server::ServerType;
    use crate::util::approx_eq;

    /// A toy oracle for unit tests: charges idle cost per active server and
    /// ignores load entirely (valid for constant costs with enough
    /// capacity).
    struct IdleOnly;
    impl GtOracle for IdleOnly {
        fn g(&self, instance: &Instance, t: usize, x: &[u32]) -> f64 {
            x.iter().enumerate().map(|(j, &c)| f64::from(c) * instance.idle_cost(t, j)).sum()
        }
        fn g_scaled(
            &self,
            instance: &Instance,
            t: usize,
            x: &[u32],
            _lambda: f64,
            cost_scale: f64,
        ) -> f64 {
            cost_scale * self.g(instance, t, x)
        }
    }

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::constant(1.0)))
            .server_type(ServerType::new("b", 2, 5.0, 4.0, CostModel::constant(2.0)))
            .loads(vec![1.0, 6.0])
            .build()
            .unwrap()
    }

    #[test]
    fn breakdown_sums() {
        let inst = instance();
        let x = Schedule::from_counts(vec![vec![1, 0], vec![2, 1]]);
        let bd = evaluate(&inst, &x, &IdleOnly);
        // operating: t0: 1·1 = 1 ; t1: 2·1 + 1·2 = 4 → 5
        assert!(approx_eq(bd.operating, 5.0));
        // switching: +1a (2) then +1a +1b (2+5) → 9
        assert!(approx_eq(bd.switching, 9.0));
        assert!(approx_eq(bd.total(), 14.0));
    }

    #[test]
    fn per_slot_records_match_totals() {
        let inst = instance();
        let x = Schedule::from_counts(vec![vec![1, 0], vec![2, 1]]);
        let slots = per_slot_costs(&inst, &x, &IdleOnly);
        let op: f64 = slots.iter().map(|s| s.operating).sum();
        let sw: f64 = slots.iter().map(|s| s.switching).sum();
        let bd = evaluate(&inst, &x, &IdleOnly);
        assert!(approx_eq(op, bd.operating));
        assert!(approx_eq(sw, bd.switching));
    }

    #[test]
    fn default_slot_eval_forwards_to_g_scaled() {
        let inst = instance();
        let mut view = IdleOnly.slot_eval(&inst, 1, 3.0, 0.5);
        assert!(approx_eq(view.eval(&[2, 1]), IdleOnly.g_scaled(&inst, 1, &[2, 1], 3.0, 0.5)));
        // And through a trait object, exercising the vtable path.
        let dyn_oracle: &dyn GtOracle = &IdleOnly;
        let mut view = dyn_oracle.slot_eval(&inst, 0, 1.0, 1.0);
        assert!(approx_eq(view.eval(&[1, 0]), dyn_oracle.g(&inst, 0, &[1, 0])));
    }

    #[test]
    fn empty_schedule_costs_nothing() {
        let inst = instance();
        let s = Schedule::empty();
        // Not feasible for the instance, but cost functions still work.
        assert!(approx_eq(s.switching_cost(&inst), 0.0));
        assert!(approx_eq(operating_cost(&inst, &s, &IdleOnly), 0.0));
        let _ = Config::zeros(2);
    }
}
