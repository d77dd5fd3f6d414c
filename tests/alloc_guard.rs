//! Allocation guard for the GVN fixed point.
//!
//! A counting global allocator wraps the system one, and the single test
//! in this binary (so no other test thread allocates meanwhile) counts
//! the heap allocations of warm-context `run_in_context` calls over a
//! fixed generated corpus. The per-routine mean must stay under
//! [`MAX_ALLOCS_PER_RUN`]: a hot loop that goes back to cloning
//! instruction kinds, operand lists or linear forms fails here long
//! before it shows up as time.

use pgvn::core::{run_in_context, GvnConfig, GvnContext};
use pgvn::ir::Function;
use pgvn::lang::{compile, print_routine};
use pgvn::oracle::mix64;
use pgvn::ssa::SsaStyle;
use pgvn::workload::{generate_routine, GenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls; frees are free.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Ceiling on the mean heap allocations of one warm `run_in_context`
/// (`GvnConfig::full()`, pruned SSA) over [`corpus`]. Measured on this
/// corpus: 1,717.0 per run before the hot loop stopped cloning (kinds,
/// operand lists, def-use rows, linear forms) and before the per-routine
/// analyses moved into context buffers; 117.1 after. The results
/// themselves (partition, leaders, reachable sets) account for four.
const MAX_ALLOCS_PER_RUN: f64 = 200.0;

/// 300 routines of the default generator config, seeded the way the
/// whole-path benchmark's `batch-typical` corpus is (seed 2002).
fn corpus() -> Vec<Function> {
    (0..300u64)
        .map(|i| {
            let cfg = GenConfig { seed: mix64(2002 ^ mix64(i)), ..GenConfig::default() };
            let src = print_routine(&generate_routine(&format!("r{i}"), &cfg));
            compile(&src, SsaStyle::Pruned).expect("generated routines compile")
        })
        .collect()
}

#[test]
fn warm_gvn_runs_stay_under_the_allocation_ceiling() {
    let funcs = corpus();
    let cfg = GvnConfig::full();
    let mut ctx = GvnContext::new();
    // Warm-up: the context's buffers grow to the corpus's largest routine.
    for f in &funcs {
        run_in_context(&mut ctx, f, &cfg);
    }
    let mut total = 0;
    for f in &funcs {
        let before = ALLOCS.load(Relaxed);
        let results = run_in_context(&mut ctx, f, &cfg);
        total += ALLOCS.load(Relaxed) - before;
        drop(results);
    }
    let per_run = total as f64 / funcs.len() as f64;
    println!("{per_run:.1} allocations per warm GVN run (ceiling {MAX_ALLOCS_PER_RUN})");
    assert!(
        per_run <= MAX_ALLOCS_PER_RUN,
        "{per_run:.1} allocations per warm GVN run exceed the ceiling of {MAX_ALLOCS_PER_RUN}"
    );
}
