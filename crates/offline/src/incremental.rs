//! Incremental prefix-optimal solver — the substrate of the online
//! algorithms.
//!
//! Algorithms A, B and C all need, at every slot `t`, the final
//! configuration `x̂^t_t` of an optimal schedule for the *prefix* instance
//! `I_t` (Section 2: "Calculate X̂^t"). Re-running the offline DP from
//! scratch each slot would cost `O(T² |grid| d)`; instead this module
//! maintains the rolling table `OPT_t(·)` and advances it one slot at a
//! time — one arrival transform plus one pricing pass per arriving slot.
//!
//! The returned `x̂^t_t = argmin_x OPT_t(x)` is the last configuration of
//! *some* optimal prefix schedule (the paper's analysis allows any), with
//! deterministic tie-breaking toward fewer servers.
//!
//! **Stepping is in place:** the solver owns a double-buffered pair of
//! tables plus persistent scratch (the transform's suffix-minima buffer,
//! the per-step target grid — computed once when fleet sizes are
//! slot-invariant — and the argmin counts buffer), so a steady-state
//! [`PrefixDp::step_counts`] touches the allocator only when pricing a
//! slot it has never seen (asserted by a counting-allocator test).
//!
//! **Pricing:** each slot is priced **once** as a dense
//! [`crate::engine::PricedSlot`] and retained in a bounded
//! `(slot partition, λ, grid)` pool: recurring loads on
//! time-independent instances and Algorithm C's `ñ_t` sub-slot replays
//! of one original slot all fold the same priced table in with a
//! vectorized `v += scale·g` pass, no per-cell oracle calls at all.
//! [`crate::dp::dp_step_scaled`] is the per-cell reference it is tested
//! against.
//!
//! **Caching:** the oracle is passed per step, so an owner that holds a
//! `rsz_dispatch::CachedDispatcher` and passes it every step keeps one
//! `g_t` cache alive across all slots; the priced-slot pool composes
//! with (and in steady state short-circuits ahead of) it.

use std::sync::Arc;

use rsz_core::{Config, GtOracle, Instance};

use crate::dp::{betas, DpOptions};
use crate::engine::snapshot::{self, Decoder, Encoder, SnapshotError};
use crate::engine::{
    add_priced, lock_shared, EngineStats, PricedSlotPool, SharedSlotPool, DEFAULT_POOL_CAP,
};
use crate::grid::GridMode;
use crate::table::Table;
use crate::transform::{arrival_transform_inplace, TransformScratch};

/// The pricing pool: owned by this solver, or a handle to
/// a pool shared with other solvers of the same instance shape (see
/// [`SharedSlotPool`]). Decisions never depend on which variant is in
/// use — pricing is pure — so a shared pool only changes hit-rate
/// accounting, never a schedule (property-tested in `tests/serve_chaos.rs`).
#[derive(Clone, Debug)]
enum Pool {
    Owned(PricedSlotPool),
    Shared(SharedSlotPool),
}

/// Retention bound of an owned pool when [`DpOptions::pool_capacity`] is
/// unset. On a time-dependent instance every slot is its own pool
/// partition and slots arrive in order, so only the slot being stepped
/// (Algorithm C's sub-slots included) can ever hit: one entry is enough.
fn default_pool_capacity(instance: &Instance) -> usize {
    if instance.is_time_independent() {
        DEFAULT_POOL_CAP
    } else {
        1
    }
}

/// Rolling prefix-DP state.
#[derive(Clone, Debug)]
pub struct PrefixDp {
    betas: Vec<f64>,
    grid: GridMode,
    /// The live table `OPT_t(·)`.
    table: Table,
    /// Ping-pong partner of `table` for the in-place arrival transform.
    spare: Table,
    /// Per-step target grid; computed once when `slot_invariant`.
    levels: Vec<Vec<u32>>,
    levels_cached: bool,
    slot_invariant: bool,
    /// Scratch of the transform passes (suffix minima + the
    /// row-vectorized pass's suffix-row block).
    scratch: TransformScratch,
    /// Counts of the last argmin cell ([`PrefixDp::step_counts`]).
    counts: Vec<u32>,
    /// Priced-slot pool.
    pool: Pool,
    /// The priced slot folded in by the most recent step.
    last_priced: Option<Arc<Table>>,
    slots_processed: usize,
}

impl PrefixDp {
    /// Fresh state for an instance (no slots processed yet).
    #[must_use]
    pub fn new(instance: &Instance, options: DpOptions) -> Self {
        let d = instance.num_types();
        Self {
            betas: betas(instance),
            grid: options.grid,
            table: Table::origin(d),
            spare: Table::origin(d),
            levels: Vec::new(),
            levels_cached: false,
            slot_invariant: !instance.has_time_varying_counts(),
            scratch: TransformScratch::new(),
            counts: Vec::with_capacity(d),
            pool: Pool::Owned(PricedSlotPool::with_capacity(
                instance,
                options.pool_capacity.unwrap_or_else(|| default_pool_capacity(instance)),
            )),
            last_priced: None,
            slots_processed: 0,
        }
    }

    /// Number of slots folded into the state so far.
    #[must_use]
    pub fn slots_processed(&self) -> usize {
        self.slots_processed
    }

    /// The current table `OPT_t(·)` (after `t` steps).
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Cost `C(X̂^t)` of an optimal prefix schedule.
    #[must_use]
    pub fn prefix_opt_cost(&self) -> f64 {
        if self.slots_processed == 0 {
            0.0
        } else {
            self.table.min_value()
        }
    }

    /// The dense priced slot folded in by the most recent step (`None`
    /// before the first one): the whole grid's **unscaled** `g_t` values
    /// for the step's `(t, λ)`. Algorithm C ranks its sub-slot states by
    /// reading this table instead of re-querying the oracle.
    #[must_use]
    pub fn last_priced(&self) -> Option<&Table> {
        self.last_priced.as_deref()
    }

    /// Pricing counters of the priced-slot pool. With a shared pool
    /// installed, the counters are the pool's — i.e. aggregated across
    /// every sharer.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        match &self.pool {
            Pool::Owned(p) => p.stats(),
            Pool::Shared(p) => lock_shared(p).stats(),
        }
    }

    /// Replace the owned pricing pool with a handle to `pool`, shared
    /// with other solvers of the same instance shape.
    ///
    /// The shared pool must have been built against an instance with
    /// the same fleet shape (same `max_counts`); mismatched slots
    /// simply price without pooling, exactly like the owned path, so
    /// this is a performance contract, not a correctness one.
    pub fn share_pool(&mut self, pool: SharedSlotPool) {
        self.pool = Pool::Shared(pool);
    }

    /// Fold slot `t` of `instance` in and return `x̂^t_t`.
    ///
    /// `t` must equal the number of slots processed so far (slots arrive
    /// in order, exactly once).
    pub fn step(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + Sync),
        t: usize,
    ) -> Config {
        self.step_scaled(instance, oracle, t, instance.load(t), 1.0)
    }

    /// Fold a (sub-)slot priced at `cost_scale · g_t` with volume
    /// `lambda` — Algorithm C feeds each original slot `ñ_t` times with
    /// `cost_scale = 1/ñ_t`.
    pub fn step_scaled(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + Sync),
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> Config {
        let idx = self.advance(instance, oracle, t, lambda, cost_scale);
        self.table.config_of(idx)
    }

    /// [`PrefixDp::step`] returning the argmin counts as a borrowed
    /// slice — the allocation-free entry point the online algorithms'
    /// hot loops use (the slice stays valid until the next step).
    pub fn step_counts(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + Sync),
        t: usize,
    ) -> &[u32] {
        self.step_counts_scaled(instance, oracle, t, instance.load(t), 1.0)
    }

    /// [`PrefixDp::step_scaled`] returning borrowed argmin counts.
    pub fn step_counts_scaled(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + Sync),
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> &[u32] {
        let idx = self.advance(instance, oracle, t, lambda, cost_scale);
        self.fill_counts(idx);
        &self.counts
    }

    /// One DP step in place: refresh the target grid, arrival-transform
    /// the rolling table onto it (double-buffered), add the slot's
    /// priced costs, and return the argmin cell index.
    fn advance(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + Sync),
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> usize {
        self.refresh_levels(instance, t);
        arrival_transform_inplace(
            &mut self.table,
            &mut self.spare,
            &self.levels,
            &self.betas,
            &mut self.scratch,
        );
        let priced = match &mut self.pool {
            Pool::Owned(p) => p.get_or_price(instance, oracle, t, lambda, &self.levels),
            Pool::Shared(p) => {
                lock_shared(p).get_or_price(instance, oracle, t, lambda, &self.levels)
            }
        };
        add_priced(&mut self.table, &priced, cost_scale);
        self.last_priced = Some(priced);
        self.slots_processed += 1;
        self.table.argmin().expect("prefix instance feasible, so OPT_t has a finite cell")
    }

    /// Recompute the per-step target grid into the persistent buffers
    /// (a no-op after the first step when fleet sizes are
    /// slot-invariant).
    fn refresh_levels(&mut self, instance: &Instance, t: usize) {
        if self.levels_cached {
            return;
        }
        let d = instance.num_types();
        self.levels.resize_with(d, Vec::new);
        for (j, buf) in self.levels.iter_mut().enumerate() {
            self.grid.fill_levels(instance.server_count(t, j), buf);
        }
        self.levels_cached = self.slot_invariant;
    }

    /// Decode the counts of flat cell `idx` into the persistent buffer
    /// (the crate-shared mixed-radix decode; allocation-free once warm).
    fn fill_counts(&mut self, idx: usize) {
        crate::grid::decode_counts(self.table.all_levels(), idx, &mut self.counts);
    }

    /// Serialize the resumable state into `enc`: the step counter, the
    /// live table `OPT_t(·)` (exact `f64` bit patterns), and the pool's
    /// retention bound and pricing counters.
    ///
    /// Everything else (`spare`, transform scratch, cached levels, the
    /// last priced slot) is rebuilt lazily on the first post-restore
    /// step, and pool *entries* re-price deterministically; restoring
    /// into a [`PrefixDp`] built with the same options and stepping the
    /// remaining slots is bit-identical to never having stopped
    /// (property-tested).
    pub fn save_state(&self, enc: &mut Encoder) {
        enc.put_usize(self.slots_processed);
        snapshot::encode_table(enc, &self.table);
        // Pool tag 1; tag 0 marked states of the retired per-cell
        // pricing path, which `restore_state` refuses. A shared pool
        // snapshots like an owned one (capacity + the shared counters);
        // the owner re-installs the shared handle after restore if it
        // wants to keep sharing — entries re-price on demand either way.
        enc.put_u8(1);
        let (cap, s) = match &self.pool {
            Pool::Owned(p) => (p.capacity(), p.stats()),
            Pool::Shared(p) => {
                let p = lock_shared(p);
                (p.capacity(), p.stats())
            }
        };
        enc.put_usize(cap);
        enc.put_u64(s.pricings);
        enc.put_u64(s.pool_hits);
        enc.put_u64(s.slice_hits);
    }

    /// Restore state written by [`PrefixDp::save_state`] into this
    /// solver, which must have been built against the same `instance`.
    /// The next [`PrefixDp::step`] must be given
    /// `t == slots_processed()`.
    pub fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        let slots = dec.take_usize()?;
        let table = snapshot::decode_table(dec)?;
        if table.dims() != instance.num_types() {
            return Err(SnapshotError::Corrupt("table dimensions do not match the instance"));
        }
        // The counter counts (sub-)slot steps: sub-slot refinement
        // (Algorithm C) legitimately pushes it past the horizon, so only
        // reject values no refinement could produce.
        if slots > instance.horizon().saturating_mul(1 << 20) {
            return Err(SnapshotError::Corrupt("step counter out of range"));
        }
        match dec.take_u8()? {
            0 => return Err(SnapshotError::Corrupt("snapshot was taken with the engine off")),
            1 => {}
            _ => return Err(SnapshotError::Corrupt("unknown pool tag")),
        }
        let cap = dec.take_usize()?;
        let pricings = dec.take_u64()?;
        let pool_hits = dec.take_u64()?;
        let slice_hits = dec.take_u64()?;
        if cap == 0 || cap > (1 << 32) {
            return Err(SnapshotError::Corrupt("pool capacity out of range"));
        }
        let mut pool = PricedSlotPool::with_capacity(instance, cap);
        pool.restore_counters(pricings, pool_hits, slice_hits);
        self.table = table;
        self.pool = Pool::Owned(pool);
        self.slots_processed = slots;
        // Scratch state is rebuilt on the next step.
        self.levels_cached = false;
        self.last_priced = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{forward_tables, solve};
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("b", 2, 5.0, 2.0, CostModel::constant(1.2)))
            .loads(vec![1.0, 4.0, 2.0, 0.0, 5.0])
            .build()
            .unwrap()
    }

    #[test]
    fn prefix_tables_match_per_cell_reference_within_sweep_tolerance() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let opts = DpOptions { parallel: false, ..DpOptions::default() };
        let reference = forward_tables(&inst, &oracle, opts);
        let mut pre = PrefixDp::new(&inst, opts);
        for (t, want) in reference.iter().enumerate() {
            pre.step(&inst, &oracle, t);
            assert_eq!(pre.table().argmin(), want.argmin(), "t={t}: argmin diverged");
            for (i, (&x, &y)) in pre.table().values().iter().zip(want.values()).enumerate() {
                assert!(
                    (x == y) || (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                    "t={t} cell {i}: {x} vs {y}"
                );
            }
            assert!(pre.last_priced().is_some());
        }
        assert!(pre.engine_stats().pricings > 0);
    }

    #[test]
    fn step_counts_agree_with_step() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let opts = DpOptions { parallel: false, ..DpOptions::default() };
        let mut a = PrefixDp::new(&inst, opts);
        let mut b = PrefixDp::new(&inst, opts);
        for t in 0..inst.horizon() {
            let xa = a.step(&inst, &oracle, t);
            let xb = b.step_counts(&inst, &oracle, t);
            assert_eq!(xa.counts(), xb, "t={t}");
        }
    }

    #[test]
    fn prefix_cost_matches_truncated_offline_solve() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let opts = DpOptions { parallel: false, ..DpOptions::default() };
        let mut pre = PrefixDp::new(&inst, opts);
        for t in 0..inst.horizon() {
            pre.step(&inst, &oracle, t);
            let truncated = inst.truncated(t + 1);
            let direct = solve(&truncated, &oracle, opts);
            assert!(
                (pre.prefix_opt_cost() - direct.cost).abs() < 1e-9,
                "t={t}: incremental {} vs direct {}",
                pre.prefix_opt_cost(),
                direct.cost
            );
        }
    }

    #[test]
    fn argmin_config_is_last_state_of_some_prefix_optimum() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let opts = DpOptions { parallel: false, ..DpOptions::default() };
        let mut pre = PrefixDp::new(&inst, opts);
        for t in 0..inst.horizon() {
            let xhat = pre.step(&inst, &oracle, t);
            // OPT_t(x̂) equals the prefix optimum by definition of argmin.
            let val = pre.table().get(&xhat).unwrap();
            assert!((val - pre.prefix_opt_cost()).abs() < 1e-12);
            // And the prefix optimum schedule ending there is feasible.
            assert!(inst.is_admissible(t, &xhat));
        }
    }

    #[test]
    fn cached_oracle_preserves_prefix_tables_and_reuses_solves() {
        use rsz_dispatch::CachedDispatcher;
        let inst = instance();
        let plain = Dispatcher::new();
        let cached = CachedDispatcher::new(&inst);
        let opts = DpOptions { parallel: false, ..DpOptions::default() };
        let mut a = PrefixDp::new(&inst, opts);
        let mut b = PrefixDp::new(&inst, opts);
        for t in 0..inst.horizon() {
            let xa = a.step(&inst, &plain, t);
            let xb = b.step(&inst, &cached, t);
            assert_eq!(xa, xb, "t={t}");
            for i in 0..a.table().len() {
                assert_eq!(
                    a.table().values()[i].to_bits(),
                    b.table().values()[i].to_bits(),
                    "t={t} cell {i}"
                );
            }
        }
        // One cache held across all prefix steps: the time-independent
        // instance repeats no load value here, but infeasible/feasible
        // cells of later, larger grids still re-query earlier cells; at
        // minimum the stats must show the cache was actually consulted.
        let stats = cached.stats();
        assert!(stats.misses > 0);
        assert_eq!(stats.entries as u64, stats.misses, "every miss stores exactly one entry");
    }

    #[test]
    fn empty_state_has_zero_cost() {
        let inst = instance();
        let pre = PrefixDp::new(&inst, DpOptions::default());
        assert_eq!(pre.prefix_opt_cost(), 0.0);
        assert_eq!(pre.slots_processed(), 0);
    }
}
