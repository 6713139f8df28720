//! Lazy Capacity Provisioning for homogeneous data centers (`d = 1`).
//!
//! The discrete LCP of Albers & Quedenfeld (SPAA'18) — the predecessor
//! result this paper generalizes — maintains lower and upper targets from
//! prefix-optimal schedules and moves lazily: it changes the number of
//! active servers only when pushed out of the corridor
//! `[lower_t, upper_t]`.
//!
//! Here the corridor bounds are taken as the smallest and largest final
//! configurations among cost-optimal prefix schedules (ties in the prefix
//! DP value resolved both ways). Included as the homogeneous baseline for
//! the experiments; the heterogeneous algorithms are Sections 2–3.

use rsz_core::{Config, GtOracle, Instance};
use rsz_offline::{Decoder, DpOptions, Encoder, GridMode, PrefixDp, SnapshotError};

use crate::checkpoint::Checkpoint;
use crate::runner::OnlineAlgorithm;

/// Discrete lazy capacity provisioning (homogeneous fleets only).
#[derive(Debug)]
pub struct LazyCapacityProvisioning<O> {
    oracle: O,
    prefix: PrefixDp,
    x: u32,
}

impl<O: GtOracle + Sync> LazyCapacityProvisioning<O> {
    /// Set up LCP for a `d = 1` instance.
    ///
    /// # Panics
    /// Panics if the instance has more than one server type.
    #[must_use]
    pub fn new(instance: &Instance, oracle: O) -> Self {
        Self::with_options(
            instance,
            oracle,
            DpOptions { grid: GridMode::Full, parallel: false, ..DpOptions::default() },
        )
    }

    /// [`LazyCapacityProvisioning::new`] with explicit prefix-solver
    /// options (grid, threads, pool capacity).
    ///
    /// # Panics
    /// Panics if the instance has more than one server type.
    #[must_use]
    pub fn with_options(instance: &Instance, oracle: O, options: DpOptions) -> Self {
        assert_eq!(instance.num_types(), 1, "LCP is defined for homogeneous data centers (d = 1)");
        Self { oracle, prefix: PrefixDp::new(instance, options), x: 0 }
    }

    /// Pricing counters of the prefix solver's priced-slot pool.
    #[must_use]
    pub fn engine_stats(&self) -> rsz_offline::EngineStats {
        self.prefix.engine_stats()
    }

    /// Share the prefix solver's priced-slot pool (see
    /// [`PrefixDp::share_pool`]).
    pub fn share_pool(&mut self, pool: rsz_offline::SharedSlotPool) {
        self.prefix.share_pool(pool);
    }

    /// The corridor `[lower, upper]` of final states of optimal prefix
    /// schedules in the current table.
    fn corridor(&self) -> (u32, u32) {
        let table = self.prefix.table();
        let min = table.min_value();
        let tol = 1e-9 * min.abs().max(1.0);
        let mut lower = u32::MAX;
        let mut upper = 0u32;
        let levels = table.levels(0); // d = 1: flat index == level position
        for (i, &v) in table.values().iter().enumerate() {
            if v.is_finite() && v <= min + tol {
                let level = levels[i];
                lower = lower.min(level);
                upper = upper.max(level);
            }
        }
        (lower, upper)
    }
}

impl<O: GtOracle + Sync> OnlineAlgorithm for LazyCapacityProvisioning<O> {
    fn name(&self) -> String {
        "LCP".into()
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        let _ = self.prefix.step_counts(instance, &self.oracle, t);
        let (lower, upper) = self.corridor();
        // Lazy projection onto the corridor.
        self.x = self.x.clamp(lower, upper.max(lower));
        Config::new(vec![self.x])
    }
}

impl<O: GtOracle + Sync> Checkpoint for LazyCapacityProvisioning<O> {
    fn algo_tag(&self) -> &'static str {
        "lcp"
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.prefix.save_state(enc);
        enc.put_u32(self.x);
    }

    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        self.prefix.restore_state(instance, dec)?;
        let x = dec.take_u32()?;
        if u64::from(x) > u64::from(instance.max_counts()[0]) {
            return Err(SnapshotError::Corrupt("active count exceeds the fleet bound"));
        }
        self.x = x;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;
    use rsz_offline::dp::{solve, DpOptions as OffOptions};

    fn instance(loads: Vec<f64>) -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 5, 3.0, 1.0, CostModel::linear(1.0, 0.5)))
            .loads(loads)
            .build()
            .unwrap()
    }

    #[test]
    fn feasible_and_lazy() {
        let inst = instance(vec![1.0, 4.0, 2.0, 0.0, 0.0, 3.0, 5.0, 1.0]);
        let oracle = Dispatcher::new();
        let mut lcp = LazyCapacityProvisioning::new(&inst, oracle);
        let run = run(&inst, &mut lcp, &oracle);
        run.schedule.check_feasible(&inst).unwrap();
    }

    #[test]
    fn three_competitive_on_test_workloads() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let oracle = Dispatcher::new();
        for _ in 0..10 {
            let loads: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0..5.0)).collect();
            let inst = instance(loads);
            let mut lcp = LazyCapacityProvisioning::new(&inst, oracle);
            let online = run(&inst, &mut lcp, &oracle);
            let opt = solve(&inst, &oracle, OffOptions { parallel: false, ..Default::default() });
            assert!(
                online.cost() <= 3.0 * opt.cost + 1e-9,
                "LCP {} vs 3·OPT {}",
                online.cost(),
                3.0 * opt.cost
            );
        }
    }

    #[test]
    #[should_panic(expected = "homogeneous")]
    fn rejects_heterogeneous_instances() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::constant(1.0)))
            .server_type(ServerType::new("b", 1, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0])
            .build()
            .unwrap();
        let _ = LazyCapacityProvisioning::new(&inst, Dispatcher::new());
    }
}
