//! Algorithm B — time-dependent operating costs (Section 3.1).
//!
//! Same power-up policy as Algorithm A (track the prefix optimum from
//! below), but the power-down rule must adapt: with time-varying idle
//! costs `l_{t,j} = f_{t,j}(0)` the runtime of a server is no longer
//! known at power-up time. A server powered up at slot `u` runs until the
//! first slot `t` with
//!
//! ```text
//! Σ_{v=u+1}^{t−1} l_{v,j} ≤ β_j < Σ_{v=u+1}^{t} l_{v,j}
//! ```
//!
//! i.e. until its accumulated idle cost (counted from the slot *after*
//! power-up) first exceeds the switching cost — an online-decidable
//! condition (the paper's set `W_t`). Theorem 13: the schedule is
//! `(2d+1+c(I))`-competitive with `c(I) = Σ_j max_t l_{t,j}/β_j`.

use rsz_core::{Config, GtOracle, Instance};
use rsz_offline::{Decoder, Encoder, PrefixDp, SnapshotError};

use crate::algo_a::AOptions;
use crate::checkpoint::{codec, Checkpoint};
use crate::runner::OnlineAlgorithm;

/// A batch of servers of one type powered up at the same (sub-)slot.
#[derive(Clone, Copy, Debug)]
struct Batch {
    /// Accumulated idle cost since the slot after power-up.
    acc: f64,
    /// Number of servers in the batch.
    count: u32,
}

/// The shared engine of Algorithms B and C: prefix tracking plus
/// accumulated-idle-cost power-downs, with every step optionally scaled
/// (Algorithm C feeds each original slot as `ñ_t` sub-slots of scale
/// `1/ñ_t`).
#[derive(Debug)]
pub struct BCore {
    prefix: PrefixDp,
    x: Vec<u32>,
    batches: Vec<Vec<Batch>>,
    /// Scratch copy of the latest prefix target (borrow separation from
    /// the prefix solver's internal buffer).
    target: Vec<u32>,
    steps: usize,
}

impl BCore {
    /// Fresh engine for an instance.
    #[must_use]
    pub fn new(instance: &Instance, options: AOptions) -> Self {
        let d = instance.num_types();
        Self {
            prefix: PrefixDp::new(instance, options.dp_options()),
            x: vec![0; d],
            batches: vec![Vec::new(); d],
            target: Vec::with_capacity(d),
            steps: 0,
        }
    }

    /// Current active counts.
    #[must_use]
    pub fn active(&self) -> &[u32] {
        &self.x
    }

    /// The internal prefix solver — exposed so Algorithm C can read its
    /// dense priced slot (`PrefixDp::last_priced`) and its
    /// pricing counters.
    #[must_use]
    pub fn prefix(&self) -> &PrefixDp {
        &self.prefix
    }

    /// Share the prefix solver's priced-slot pool (see
    /// [`PrefixDp::share_pool`]).
    pub fn share_pool(&mut self, pool: rsz_offline::SharedSlotPool) {
        self.prefix.share_pool(pool);
    }

    /// Process one (sub-)slot: retire batches whose accumulated idle cost
    /// exceeds `β_j`, then raise counts to the prefix optimum. `lambda`
    /// and `scale` parameterize the sub-slot refinement; plain Algorithm B
    /// uses `lambda = λ_t, scale = 1`.
    pub fn step(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + Sync),
        t: usize,
        lambda: f64,
        scale: f64,
    ) -> Config {
        self.retire(instance, t, scale);
        {
            // Split borrows: the returned counts slice keeps `prefix`
            // borrowed while it is copied into the target scratch.
            let Self { prefix, target, .. } = self;
            let xhat = prefix.step_counts_scaled(instance, oracle, t, lambda, scale);
            target.clear();
            target.extend_from_slice(xhat);
        }
        self.raise_to_target();
        self.steps += 1;
        Config::new(self.x.clone())
    }

    /// Process one slot with an externally supplied target `x̂` instead of
    /// the internal prefix optimum. Used by the figure-reproduction
    /// experiments, which replay the paper's hand-set `x̂^t_t` series
    /// through the real power-up/-down machinery.
    pub fn step_with_target(
        &mut self,
        instance: &Instance,
        t: usize,
        xhat: &Config,
        scale: f64,
    ) -> Config {
        self.retire(instance, t, scale);
        self.target.clear();
        self.target.extend_from_slice(xhat.counts());
        self.raise_to_target();
        self.steps += 1;
        Config::new(self.x.clone())
    }

    /// Power-downs: the idle cost of *this* slot is what pushes a batch
    /// over its budget (the sum starts at u+1 and includes t).
    fn retire(&mut self, instance: &Instance, t: usize, scale: f64) {
        let d = self.x.len();
        for j in 0..d {
            let l = scale * instance.idle_cost(t, j);
            let beta = instance.switching_cost(j);
            let x_j = &mut self.x[j];
            self.batches[j].retain_mut(|b| {
                let with_this_slot = b.acc + l;
                if with_this_slot > beta {
                    // W_t condition met: b.acc ≤ β < b.acc + l.
                    debug_assert!(b.acc <= beta + 1e-12);
                    *x_j -= b.count;
                    false
                } else {
                    b.acc = with_this_slot;
                    true
                }
            });
        }
    }

    /// Serialize the resumable core: prefix solver, active counts, the
    /// live batches with their accumulated idle costs (exact `f64` bit
    /// patterns), and the (sub-)slot counter — `O(|grid| + batches)`,
    /// independent of how many slots have been decided.
    pub fn save_state(&self, enc: &mut Encoder) {
        self.prefix.save_state(enc);
        enc.put_usize(self.steps);
        codec::put_u32s(enc, &self.x);
        enc.put_usize(self.batches.len());
        for per_type in &self.batches {
            enc.put_usize(per_type.len());
            for b in per_type {
                enc.put_f64(b.acc);
                enc.put_u32(b.count);
            }
        }
    }

    /// Restore state written by [`BCore::save_state`] into a core built
    /// against the same `instance` with the same options.
    pub fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        self.prefix.restore_state(instance, dec)?;
        let steps = dec.take_usize()?;
        let d = instance.num_types();
        let x = codec::take_u32s(dec, d)?;
        if x.len() != d {
            return Err(SnapshotError::Corrupt("active-count vector has the wrong dimension"));
        }
        if dec.take_usize()? != d {
            return Err(SnapshotError::Corrupt("batch table has the wrong dimension"));
        }
        let mut batches = Vec::with_capacity(d);
        for &active in x.iter().take(d) {
            let n = dec.take_usize()?;
            let mut per_type = Vec::with_capacity(n.min(1024));
            let mut total = 0u64;
            for _ in 0..n {
                let acc = dec.take_f64()?;
                let count = dec.take_u32()?;
                total += u64::from(count);
                per_type.push(Batch { acc, count });
            }
            if total != u64::from(active) {
                return Err(SnapshotError::Corrupt("batch counts do not sum to the active count"));
            }
            batches.push(per_type);
        }
        self.x = x;
        self.batches = batches;
        self.steps = steps;
        Ok(())
    }

    /// Power-ups toward the target configuration in `self.target`.
    fn raise_to_target(&mut self) {
        for j in 0..self.x.len() {
            let want = self.target[j];
            if self.x[j] <= want {
                let up = want - self.x[j];
                if up > 0 {
                    self.batches[j].push(Batch { acc: 0.0, count: up });
                    self.x[j] = want;
                }
            }
        }
    }
}

/// Algorithm B (deterministic, `(2d+1+c(I))`-competitive, Theorem 13).
#[derive(Debug)]
pub struct AlgorithmB<O> {
    oracle: O,
    core: BCore,
}

impl<O: GtOracle + Sync> AlgorithmB<O> {
    /// Set up Algorithm B for an instance (any cost spec is allowed; on
    /// time-independent costs it behaves like a variant of Algorithm A
    /// whose runtimes differ by at most one slot).
    #[must_use]
    pub fn new(instance: &Instance, oracle: O, options: AOptions) -> Self {
        Self { oracle, core: BCore::new(instance, options) }
    }

    /// Access the shared engine (active counts, prefix solver).
    #[must_use]
    pub fn core(&self) -> &BCore {
        &self.core
    }

    /// Pricing counters of the prefix solver's priced-slot pool.
    #[must_use]
    pub fn engine_stats(&self) -> rsz_offline::EngineStats {
        self.core.prefix().engine_stats()
    }

    /// Share the prefix solver's priced-slot pool with other
    /// controllers of the same instance shape.
    pub fn share_pool(&mut self, pool: rsz_offline::SharedSlotPool) {
        self.core.share_pool(pool);
    }
}

impl<O: GtOracle + Sync> OnlineAlgorithm for AlgorithmB<O> {
    fn name(&self) -> String {
        "Algorithm B".into()
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        self.core.step(instance, &self.oracle, t, instance.load(t), 1.0)
    }
}

impl<O: GtOracle + Sync> Checkpoint for AlgorithmB<O> {
    /// `/2`: the state layout without the power-up log. Snapshots of
    /// the old layout carry the bare tag and are refused, not misread.
    fn algo_tag(&self) -> &'static str {
        "algo-b/2"
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.core.save_state(enc);
    }

    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        self.core.restore_state(instance, dec)
    }
}

/// The instance constant `c(I) = Σ_j max_t l_{t,j}/β_j` appearing in
/// Theorem 13. Returns `∞` if some type has `β_j = 0` but a positive
/// idle cost somewhere.
#[must_use]
pub fn c_constant(instance: &Instance) -> f64 {
    (0..instance.num_types())
        .map(|j| {
            let beta = instance.switching_cost(j);
            let max_idle =
                (0..instance.horizon()).map(|t| instance.idle_cost(t, j)).fold(0.0_f64, f64::max);
            if max_idle == 0.0 {
                0.0
            } else if beta == 0.0 {
                f64::INFINITY
            } else {
                max_idle / beta
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, run_with_prefix_revelation};
    use rsz_core::{CostModel, CostSpec, ServerType};
    use rsz_dispatch::Dispatcher;
    use rsz_offline::dp::{solve, DpOptions as OffOptions};

    /// The Figure 3 setting: one type, β = 6, idle costs varying per slot.
    fn figure3_instance() -> Instance {
        let idle = vec![3.0, 1.0, 4.0, 1.0, 2.0, 1.0, 1.0, 2.0, 3.0, 5.0, 1.0, 3.0];
        let spec = CostSpec::scaled(CostModel::constant(1.0), idle);
        Instance::builder()
            .server_type(ServerType::with_spec("a", 3, 6.0, 1.0, spec))
            // loads shaped so the prefix optimum follows Figure 3's x̂ row
            .loads(vec![1.0, 2.0, 1.0, 3.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn schedule_feasible_and_dominates_prefix() {
        let inst = figure3_instance();
        let oracle = Dispatcher::new();
        let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
        let run = run(&inst, &mut b, &oracle);
        run.schedule.check_feasible(&inst).unwrap();
    }

    #[test]
    fn batch_runtime_follows_accumulated_idle_rule() {
        // One spike at t=0, then varying idle costs; β = 6.
        // Idle after power-up: l_1=1, l_2=4, l_3=1 → acc 1,5,6 ≤ 6;
        // l_4=2 → 8 > 6: shut at t=4.
        let idle = vec![3.0, 1.0, 4.0, 1.0, 2.0, 1.0, 1.0];
        let spec = CostSpec::scaled(CostModel::constant(1.0), idle);
        let inst = Instance::builder()
            .server_type(ServerType::with_spec("a", 2, 6.0, 1.0, spec))
            .loads(vec![2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
        let run = run(&inst, &mut b, &oracle);
        let counts: Vec<u32> = run.schedule.configs().iter().map(|c| c.count(0)).collect();
        assert_eq!(counts, vec![2, 2, 2, 2, 0, 0, 0]);
    }

    #[test]
    fn competitive_bound_of_theorem_13_holds() {
        let inst = figure3_instance();
        let oracle = Dispatcher::new();
        let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
        let online = run(&inst, &mut b, &oracle);
        let opt = solve(&inst, &oracle, OffOptions { parallel: false, ..Default::default() });
        let d = inst.num_types() as f64;
        let bound = (2.0 * d + 1.0 + c_constant(&inst)) * opt.cost;
        assert!(online.cost() <= bound + 1e-9, "B cost {} vs bound {bound}", online.cost());
    }

    #[test]
    fn c_constant_matches_hand_computation() {
        let inst = figure3_instance();
        // max idle = 5, β = 6
        assert!((c_constant(&inst) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn is_genuinely_online() {
        let inst = figure3_instance();
        let oracle = Dispatcher::new();
        let mut b1 = AlgorithmB::new(&inst, oracle, AOptions::default());
        let full = run(&inst, &mut b1, &oracle);
        let mut b2 = AlgorithmB::new(&inst, oracle, AOptions::default());
        let revealed = run_with_prefix_revelation(&inst, &mut b2, &oracle);
        assert_eq!(full.schedule, revealed.schedule);
    }

    #[test]
    fn works_on_heterogeneous_time_dependent_costs() {
        let price = vec![1.0, 2.0, 0.5, 1.5, 3.0, 1.0];
        let inst = Instance::builder()
            .server_type(ServerType::with_spec(
                "cpu",
                3,
                4.0,
                1.0,
                CostSpec::scaled(CostModel::linear(0.5, 1.0), price.clone()),
            ))
            .server_type(ServerType::with_spec(
                "gpu",
                2,
                8.0,
                3.0,
                CostSpec::scaled(CostModel::power(1.0, 0.5, 2.0), price),
            ))
            .loads(vec![2.0, 5.0, 1.0, 7.0, 3.0, 0.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
        let online = run(&inst, &mut b, &oracle);
        online.schedule.check_feasible(&inst).unwrap();
        let opt = solve(&inst, &oracle, OffOptions { parallel: false, ..Default::default() });
        let bound = (2.0 * 2.0 + 1.0 + c_constant(&inst)) * opt.cost;
        assert!(online.cost() <= bound + 1e-9);
    }
}
