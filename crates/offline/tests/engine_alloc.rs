//! Steady-state allocation accounting of the online decision engine.
//!
//! The whole point of the in-place prefix stepping (double-buffered
//! tables, persistent suffix/levels/counts scratch) plus the dense
//! priced-slot pool is that a cluster controller's per-slot hot path
//! stops touching the allocator once warm. This harness registers a
//! counting `#[global_allocator]` (the test binary is its own process,
//! so the hook is safe) and asserts **zero** allocations across the
//! steady-state portion of a run — the engine analogue of the
//! live-table-counting test. The counter is per thread, so tests running
//! in parallel in the same binary never count each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsz_core::{CostModel, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{forward_tables, DpOptions};
use rsz_offline::PrefixDp;

/// Counts every allocation and reallocation made by the current thread
/// (deallocations are free to happen — the invariant under test is "no
/// new heap memory").
struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread itself is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A time-independent instance whose loads tile an 8-slot "day": after
/// one period every `(λ, grid)` pricing is pool-resident.
fn tiled_instance(horizon: usize) -> Instance {
    let day = [1.0, 3.0, 6.0, 8.0, 7.0, 4.0, 2.0, 0.5];
    let loads: Vec<f64> = (0..horizon).map(|t| day[t % day.len()]).collect();
    Instance::builder()
        .server_type(ServerType::new("cpu", 6, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("gpu", 4, 3.0, 2.0, CostModel::power(1.0, 0.5, 2.0)))
        .loads(loads)
        .build()
        .expect("tiled instance feasible")
}

#[test]
fn steady_state_prefix_step_is_allocation_free() {
    let horizon = 48;
    let inst = tiled_instance(horizon);
    let oracle = Dispatcher::new();
    let opts = DpOptions { parallel: false, threads: Some(1), ..Default::default() };
    let mut pre = PrefixDp::new(&inst, opts);

    // Warm-up: two full periods price every distinct (λ, grid) into the
    // pool and grow every scratch buffer to its high-water mark.
    for t in 0..16 {
        let _ = pre.step_counts(&inst, &oracle, t);
    }

    let before = allocations();
    for t in 16..horizon {
        let counts = pre.step_counts(&inst, &oracle, t);
        assert!(!counts.is_empty());
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "steady-state PrefixDp::step must not touch the allocator ({during} allocations across {} slots)",
        horizon - 16
    );

    // Sanity: the engine really was answering from the pool.
    let stats = pre.engine_stats();
    assert_eq!(stats.pricings, 8, "one pricing per distinct day slot");
    assert_eq!(stats.pool_hits, horizon as u64 - 8);
}

#[test]
fn prefix_step_matches_per_cell_reference_on_the_same_trace() {
    // Companion check on the same trace: the zero-alloc pooled path
    // picks the prefix-optimal configurations of the per-cell reference
    // recurrence.
    let inst = tiled_instance(24);
    let oracle = Dispatcher::new();
    let opts = DpOptions { parallel: false, ..Default::default() };
    let reference = forward_tables(&inst, &oracle, opts);
    let mut pre = PrefixDp::new(&inst, opts);
    for (t, table) in reference.iter().enumerate() {
        let got = pre.step(&inst, &oracle, t);
        let want = table.config_of(table.argmin().expect("feasible prefix"));
        assert_eq!(got, want, "t={t}");
    }
}
