//! A warmed session steps without allocating.
//!
//! Once one block of traffic has sized the session's buffers, stepping a
//! second block of the same shape — closing its batch windows, executing
//! its groups on the chip lanes and absorbing them into the report — makes
//! no heap allocation.  A counting global allocator counts `alloc` and
//! `realloc` calls only on a thread that switched counting on, so the test
//! harness's other threads never count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aim_core::pipeline::{AimConfig, CompiledPlan};
use aim_serve::prelude::*;
use pim_sim::backend::BackendKind;
use workloads::zoo::Model;

struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so it meets `GlobalAlloc`'s contract exactly when `System`
// does; counting touches only `const`-initialised thread-locals without
// destructors, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System`, and the
        // caller upholds `realloc`'s contract for `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

fn plans() -> Vec<CompiledPlan> {
    let config = AimConfig {
        cycles_per_slice: 40,
        ..AimConfig::baseline()
    };
    [13, 17]
        .map(|stride| {
            CompiledPlan::compile(
                &Model::mobilenet_v2(),
                &AimConfig {
                    operator_stride: Some(stride),
                    ..config
                },
            )
        })
        .into()
}

/// One block of two-model traffic from `base`: every class, a request every
/// 500 cycles, so windows close both early (latency-sensitive joins, full
/// batches) and on expiry, and groups queue and jump each other.
fn block(base: u64) -> Vec<TraceRequest> {
    (0..96u64)
        .map(|i| TraceRequest {
            model: (i % 2) as usize,
            arrival_cycles: base + i * 500,
            deadline_cycles: base + i * 500 + 50_000_000,
            slo: SloClass::ALL[(i % 3) as usize],
        })
        .collect()
}

/// Submits `block`, then walks the session's event horizon until it is
/// quiescent, returning the allocations made inside the steps.
fn serve_block(session: &mut ServeSession<'_>, block: &[TraceRequest]) -> u64 {
    for &request in block {
        session.submit(request);
    }
    let mut allocations = 0;
    while let Some(next) = session.next_event_cycles() {
        allocations += allocations_in(|| session.run_until(next));
    }
    allocations
}

#[test]
fn a_warmed_session_steps_without_allocating() {
    let config = ServeConfig::builder()
        .backend(BackendKind::Analytical)
        .parallel(false)
        .build();
    let runtime = ServeRuntime::from_plans(plans(), config);
    let mut session = runtime.session();

    serve_block(&mut session, &block(0));
    let warm = session.poll_completions();
    assert_eq!(warm.len(), 96);

    let base = session.clock() + 1_000_000;
    let allocations = serve_block(&mut session, &block(base));
    let outcomes = session.poll_completions();
    assert_eq!(outcomes.len(), 96, "the second block resolved");
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o.status, CompletionStatus::Served { .. })),
        "every request of the second block was served"
    );
    assert_eq!(
        allocations, 0,
        "stepping a warmed session allocated {allocations} times"
    );
}
