//! Memoized `g_t` evaluation — the dispatch cache.
//!
//! [`CachedDispatcher`] wraps a [`Dispatcher`] and memoizes the
//! **unscaled** optimum `g(λ, x)` keyed by `(slot partition, config
//! index, λ bits)`. When the instance is time-independent all slots share
//! one partition; otherwise each slot keys its own partition so
//! time-varying cost profiles can never alias. Scaled queries
//! (`cost_scale ≠ 1`) multiply the cached unscaled optimum, exactly as
//! [`Dispatcher::g_value`] does, so cached and uncached results are
//! **bit-identical**.
//!
//! No runtime path selects it: the slot-batched pipeline and the
//! priced-slot pool price each repeated `(λ, grid)` slot once, ahead of
//! any memo under the oracle. It remains as the oracle under the
//! `dp_pipeline` bench's per-cell baseline (`forward_tables` +
//! `backtrack`), whose recurrence re-asks every repeated cell, and as a
//! solve counter in tests.
//!
//! The cache is sharded behind [`RwLock`]s and shared across clones via
//! [`Arc`]: cloning a `CachedDispatcher` is cheap and both clones hit the
//! same entries. Hit/miss counters make the realized reuse observable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use rsz_core::{GtOracle, Instance, SlotEval};

use crate::{Dispatcher, SlotDispatcher};

/// Number of independent map shards; bounds write contention when the
/// parallel DP fill populates the cache from many threads at once.
const SHARDS: usize = 16;

/// A memoizing [`GtOracle`]: a [`Dispatcher`] plus a shared `g(λ, x)`
/// cache bound to one instance's shape.
///
/// Build it with the instance it will price ([`CachedDispatcher::new`]);
/// using it with a *different* instance is a logic error (debug
/// assertions catch shape mismatches). Instances obtained from
/// [`Instance::truncated`] are compatible with the full instance's cache:
/// truncation preserves every surviving slot's loads and cost views.
#[derive(Clone, Debug)]
pub struct CachedDispatcher {
    inner: Dispatcher,
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    /// `true` iff every cost is time-independent, letting all slots share
    /// partition 0 of the key space.
    slot_shared: bool,
    num_types: usize,
    /// Mixed-radix strides turning a count vector into a unique index
    /// (radix `m_j + 1` per type, from the horizon-max fleet sizes).
    strides: Vec<u128>,
    shards: Vec<RwLock<HashMap<Key, f64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Key {
    /// Slot partition: 0 when time-independent, else the slot index.
    slot: u32,
    /// Flat configuration index under `Shared::strides`.
    config: u128,
    /// Exact bits of the job volume λ.
    lambda: u64,
}

/// Snapshot of the cache's effectiveness counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran a dispatch solve.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when none yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl CachedDispatcher {
    /// A cache around the default [`Dispatcher`] for `instance`.
    #[must_use]
    pub fn new(instance: &Instance) -> Self {
        Self::with_dispatcher(instance, Dispatcher::new())
    }

    /// A cache around an explicitly configured dispatcher.
    ///
    /// # Panics
    /// Panics if the fleet-size radix product overflows `u128` — which
    /// requires grids astronomically beyond anything the DP could ever
    /// enumerate.
    #[must_use]
    pub fn with_dispatcher(instance: &Instance, inner: Dispatcher) -> Self {
        let max_counts = instance.max_counts();
        let d = max_counts.len();
        let mut strides = vec![1u128; d];
        for j in (0..d.saturating_sub(1)).rev() {
            let radix = u128::from(max_counts[j + 1]) + 1;
            strides[j] = strides[j + 1]
                .checked_mul(radix)
                .expect("fleet sizes too large to index into the g_t cache");
        }
        let shared = Shared {
            slot_shared: instance.is_time_independent(),
            num_types: d,
            strides,
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        };
        Self { inner, shared: Arc::new(shared) }
    }

    /// The wrapped dispatcher.
    #[must_use]
    pub fn dispatcher(&self) -> Dispatcher {
        self.inner
    }

    /// `true` if all slots share one cache partition (time-independent
    /// costs).
    #[must_use]
    pub fn slots_shared(&self) -> bool {
        self.shared.slot_shared
    }

    /// Counter snapshot. Shared across clones of this cache.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            entries: self.shared.shards.iter().map(|s| s.read().expect("poisoned").len()).sum(),
        }
    }

    /// Drop all entries and reset the counters.
    pub fn clear(&self) {
        for shard in &self.shared.shards {
            shard.write().expect("poisoned").clear();
        }
        self.shared.hits.store(0, Ordering::Relaxed);
        self.shared.misses.store(0, Ordering::Relaxed);
    }

    /// The unscaled optimum `g(λ, x)` for slot `t`, from cache or by one
    /// dispatch solve.
    fn cached_g(&self, instance: &Instance, t: usize, x: &[u32], lambda: f64) -> f64 {
        let key = self.shared.key(t, x, lambda.to_bits());
        if let Some(v) = self.shared.get(&key) {
            return v;
        }
        // Solve outside any lock; concurrent misses recompute the same
        // value, so last-writer-wins insertion is harmless.
        let v = self.inner.g_value(instance, t, x, lambda, 1.0);
        self.shared.put(key, v);
        v
    }
}

impl Shared {
    /// Slot partition for slot `t`.
    fn slot_key(&self, t: usize) -> u32 {
        if self.slot_shared {
            0
        } else {
            t as u32
        }
    }

    /// Cache key for `(t, x, λ bits)`.
    fn key(&self, t: usize, x: &[u32], lambda_bits: u64) -> Key {
        debug_assert_eq!(
            x.len(),
            self.num_types,
            "CachedDispatcher used with a different instance shape"
        );
        let config = x
            .iter()
            .zip(&self.strides)
            .map(|(&c, &s)| u128::from(c) * s)
            .fold(0u128, u128::wrapping_add);
        Key { slot: self.slot_key(t), config, lambda: lambda_bits }
    }

    /// Look `key` up, counting a hit on success.
    fn get(&self, key: &Key) -> Option<f64> {
        let v = self.shards[shard_of(key)].read().expect("poisoned").get(key).copied();
        if v.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Store a freshly solved value, counting the miss.
    fn put(&self, key: Key, v: f64) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.shards[shard_of(&key)].write().expect("poisoned").insert(key, v);
    }
}

fn shard_of(key: &Key) -> usize {
    let mixed = (key.config as u64)
        ^ (key.config >> 64) as u64
        ^ key.lambda.rotate_left(17)
        ^ u64::from(key.slot).rotate_left(43);
    (mixed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % SHARDS
}

impl GtOracle for CachedDispatcher {
    fn g(&self, instance: &Instance, t: usize, x: &[u32]) -> f64 {
        self.g_scaled(instance, t, x, instance.load(t), 1.0)
    }

    fn g_scaled(
        &self,
        instance: &Instance,
        t: usize,
        x: &[u32],
        lambda: f64,
        cost_scale: f64,
    ) -> f64 {
        if cost_scale == 0.0 {
            // Feasibility-only query: a capacity sum, cheaper than any
            // cache round-trip (mirrors Dispatcher exactly).
            return self.inner.g_value(instance, t, x, lambda, 0.0);
        }
        cost_scale * self.cached_g(instance, t, x, lambda)
    }

    // Replaying a slot against this oracle costs hash lookups, not
    // dispatch solves — checkpointed recovery may replay freely.
    fn is_memoizing(&self) -> bool {
        true
    }

    // `slot_sweep` deliberately keeps its default (= `slot_eval`): the
    // cache's contract is bit-identity with the cold `Dispatcher`, and a
    // warm-started miss would store a value that depends on which sweep
    // first touched it. The cache's own reuse already collapses sweeps
    // over repeated slots to hash lookups.
    fn slot_eval<'a>(
        &'a self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> Box<dyn SlotEval + 'a> {
        if cost_scale == 0.0 {
            // Zero-scaled slots only check feasibility; bypass the cache.
            return Box::new(self.inner.slot_dispatcher(instance, t, lambda, 0.0));
        }
        Box::new(CachedSlotEval {
            shared: &self.shared,
            t,
            lambda_bits: lambda.to_bits(),
            cost_scale,
            // Misses solve unscaled through the buffer-reusing path.
            inner: self.inner.slot_dispatcher(instance, t, lambda, 1.0),
        })
    }
}

/// Per-worker slot evaluator for [`CachedDispatcher`]: shares the global
/// cache but owns its dispatch scratch, so DP threads never contend on
/// anything except the shard locks.
struct CachedSlotEval<'a> {
    shared: &'a Shared,
    t: usize,
    lambda_bits: u64,
    cost_scale: f64,
    inner: SlotDispatcher<'a>,
}

impl SlotEval for CachedSlotEval<'_> {
    fn eval(&mut self, x: &[u32]) -> f64 {
        let key = self.shared.key(self.t, x, self.lambda_bits);
        if let Some(v) = self.shared.get(&key) {
            return self.cost_scale * v;
        }
        let v = self.inner.eval_config(x);
        self.shared.put(key, v);
        self.cost_scale * v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsz_core::{CostModel, CostSpec, ServerType};

    fn ti_instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("lin", 4, 1.0, 1.0, CostModel::linear(1.0, 2.0)))
            .server_type(ServerType::new("pow", 2, 1.0, 4.0, CostModel::power(2.0, 1.0, 2.0)))
            .loads(vec![3.0, 3.0, 7.0, 3.0])
            .build()
            .unwrap()
    }

    fn td_instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::with_spec(
                "priced",
                3,
                2.0,
                2.0,
                CostSpec::scaled(CostModel::power(1.0, 0.5, 2.0), vec![1.0, 2.0, 0.5, 1.0]),
            ))
            .loads(vec![2.0, 4.0, 2.0, 2.0])
            .build()
            .unwrap()
    }

    #[test]
    fn values_match_plain_dispatcher_bitwise() {
        for inst in [ti_instance(), td_instance()] {
            let plain = Dispatcher::new();
            let cached = CachedDispatcher::new(&inst);
            for t in 0..inst.horizon() {
                for total in 0..=2 * inst.num_types() as u32 {
                    let x: Vec<u32> =
                        (0..inst.num_types()).map(|j| total.min(inst.server_count(t, j))).collect();
                    let a = plain.g(&inst, t, &x);
                    let b = cached.g(&inst, t, &x);
                    assert_eq!(a.to_bits(), b.to_bits(), "t={t} x={x:?}");
                    // And again, now from cache.
                    let c = cached.g(&inst, t, &x);
                    assert_eq!(a.to_bits(), c.to_bits(), "cached t={t} x={x:?}");
                }
            }
        }
    }

    #[test]
    fn time_independent_instances_share_slots() {
        let inst = ti_instance();
        let cached = CachedDispatcher::new(&inst);
        assert!(cached.slots_shared());
        // Slots 0, 1 and 3 carry the same load: after slot 0 is priced,
        // slots 1 and 3 must be pure hits.
        let x = [2u32, 1];
        let _ = cached.g(&inst, 0, &x);
        let before = cached.stats();
        let _ = cached.g(&inst, 1, &x);
        let _ = cached.g(&inst, 3, &x);
        let after = cached.stats();
        assert_eq!(after.misses, before.misses, "no new solves expected");
        assert_eq!(after.hits, before.hits + 2);
    }

    #[test]
    fn time_dependent_instances_partition_by_slot() {
        let inst = td_instance();
        let cached = CachedDispatcher::new(&inst);
        assert!(!cached.slots_shared());
        let x = [2u32];
        // Slots 0 and 3 have equal loads AND equal price factors, but the
        // cache must still key them separately (only λ bits are keyed, and
        // per-slot costs could differ arbitrarily in general).
        let a = cached.g(&inst, 0, &x);
        let b = cached.g(&inst, 3, &x);
        assert_eq!(a.to_bits(), b.to_bits(), "identical slots agree in value");
        assert_eq!(cached.stats().misses, 2, "but are solved separately");
        // Different price factor → genuinely different value.
        let c = cached.g(&inst, 2, &x);
        assert_ne!(a.to_bits(), c.to_bits());
    }

    #[test]
    fn scaled_queries_reuse_unscaled_entries() {
        let inst = ti_instance();
        let plain = Dispatcher::new();
        let cached = CachedDispatcher::new(&inst);
        let x = [3u32, 1];
        let full = cached.g_scaled(&inst, 1, &x, 3.0, 1.0);
        let stats = cached.stats();
        // Algorithm C sub-slot: same λ, scaled cost — must be a hit.
        let sub = cached.g_scaled(&inst, 1, &x, 3.0, 0.25);
        assert_eq!(cached.stats().misses, stats.misses);
        assert_eq!(sub.to_bits(), plain.g_scaled(&inst, 1, &x, 3.0, 0.25).to_bits());
        assert_eq!(full.to_bits(), plain.g_scaled(&inst, 1, &x, 3.0, 1.0).to_bits());
        // Zero scale stays a pure feasibility probe.
        assert_eq!(cached.g_scaled(&inst, 1, &x, 3.0, 0.0), 0.0);
        assert!(cached.g_scaled(&inst, 1, &[0, 0], 3.0, 0.0).is_infinite());
    }

    #[test]
    fn clones_share_one_cache() {
        let inst = ti_instance();
        let a = CachedDispatcher::new(&inst);
        let b = a.clone();
        let _ = a.g(&inst, 0, &[1, 0]);
        let _ = b.g(&inst, 1, &[1, 0]); // same λ and costs → hit via clone
        assert_eq!(a.stats().hits, 1);
        assert_eq!(a.stats().misses, 1);
        a.clear();
        assert_eq!(b.stats(), CacheStats { hits: 0, misses: 0, entries: 0 });
    }

    #[test]
    fn slot_eval_matches_oracle_and_counts() {
        let inst = td_instance();
        let plain = Dispatcher::new();
        let cached = CachedDispatcher::new(&inst);
        for t in 0..inst.horizon() {
            let lambda = inst.load(t);
            for scale in [1.0, 0.5, 0.0] {
                let mut view = cached.slot_eval(&inst, t, lambda, scale);
                for x in [[0u32], [1], [2], [3]] {
                    let got = view.eval(&x);
                    let want = plain.g_scaled(&inst, t, &x, lambda, scale);
                    assert_eq!(got.to_bits(), want.to_bits(), "t={t} scale={scale} x={x:?}");
                }
            }
        }
        let stats = cached.stats();
        // 4 slots × 4 configs, scales 1.0 and 0.5 share entries, scale 0
        // bypasses the cache entirely.
        assert_eq!(stats.misses, 16);
        assert_eq!(stats.hits, 16);
        assert_eq!(stats.entries, 16);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn infeasible_configs_are_cached_too() {
        let inst = ti_instance();
        let cached = CachedDispatcher::new(&inst);
        assert!(cached.g(&inst, 2, &[1, 0]).is_infinite());
        assert!(cached.g(&inst, 2, &[1, 0]).is_infinite());
        assert_eq!(cached.stats().hits, 1);
    }
}
