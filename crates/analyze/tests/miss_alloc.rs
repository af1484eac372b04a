//! Allocation pin for one certificate-cache miss: `compile_source` on a
//! fixed four-template program (the largest shape the `cold-unique`
//! benchmark workload sends) allocates at most [`BOUND`] times, and on a
//! three-template program at most [`LICENSED_BOUND`] times; both plans
//! run a batch at a time. Every analysis pass allocates its own
//! graphs, sets and bodies, so a pass run twice, or a pass the miss does
//! not need (the fission plan, the recurrence census, the diagnostics)
//! put back on it, shows up here as a few hundred more allocations.
//!
//! A counting global allocator needs a test binary of its own, and the
//! counter is process-wide, so everything is measured from one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wlp_analyze::{compile_source, fission_plan};
use wlp_ir::frontend::{lower, parse_program};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Four template groups — wavefront, gather_scatter, counted_fill,
/// mcsparse_pair — under one induction, as the benchmark generates them.
const PROGRAM: &str = "integer i = 1
integer salt = 7
integer s_2 = 0
while (i < n) {
    B_0[i] = B_0[i - 1] + w_0[i]
    C_0[i] = B_0[i - 1] + 4
    B_1[i] = 3 * w_1[i]
    A_1[idx_1[i]] = A_1[idx_1[i]] + B_1[i]
    s_2 = s_2 + 3
    A_2[i] = w_2[i] + 5
    A_3[i] = A_3[i - 1] + w_3[i]
    B_3[i] = B_3[i - 1] * 2
    C_3[i] = A_3[i - 1] + w_3[i]
    i = i + 1
}";

/// The most allocations one `compile_source(PROGRAM)` may make. It makes
/// 589: the certificate core and the plan. Building the fission plan too
/// (six work blocks, each certified), the recurrence census and the
/// diagnostics makes it 1 342.
const BOUND: u64 = 650;

/// Three template groups — swap, counted_fill, guarded_update — under one
/// induction: a certified DOALL whose plan the batch licence admits.
const LICENSED: &str = "integer i = 1
integer tmp_0 = 0
integer s_1 = 0
while (i < n) {
    tmp_0 = A_0[2 * i]
    A_0[2 * i] = A_0[2 * i - 1]
    A_0[2 * i - 1] = tmp_0
    s_1 = s_1 + 3
    A_1[i] = w_1[i]
    A_2[i] = g(A_2[i])
    exit if (A_2[i] > limit)
    i = i + 1
}";

/// The most allocations one `compile_source(LICENSED)` may make. It makes
/// 404, five of them for the batch licence's tables (per register, per
/// array, its roles, its affine accesses and its list of links, which
/// holds the checked exit), which every lowering builds, `PROGRAM`'s
/// included. The fission plan, the recurrence census and the diagnostics
/// make it 598.
const LICENSED_BOUND: u64 = 428;

/// Allocations of one `compile_source(program)`, whose plan is or is not
/// `licensed` to run a batch at a time. The counter is process-wide and
/// the test harness has a thread of its own: the smallest of a few
/// repetitions is the call's own count.
fn allocations_of_a_miss(program: &str, licensed: bool) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let compiled = compile_source(program);
            let count = ALLOCATIONS.load(Ordering::SeqCst) - before;
            let (_, _, plan) = compiled.expect("the program compiles");
            assert_eq!(plan.batch_refusal().is_none(), licensed, "{program}");
            count
        })
        .min()
        .expect("five repetitions")
}

#[test]
fn a_cache_miss_runs_each_analysis_pass_once() {
    let body = lower(&parse_program(PROGRAM).expect("parses")).expect("lowers");
    let fission = fission_plan(&body);
    assert!(fission.is_fissioned(), "{fission:?}");
    for (program, licensed, bound) in [(PROGRAM, true, BOUND), (LICENSED, true, LICENSED_BOUND)] {
        let count = allocations_of_a_miss(program, licensed);
        eprintln!("compile_source allocated {count} times");
        assert!(
            count <= bound,
            "compile_source allocated {count} times, more than {bound}: \
             did an analysis pass start running twice?\n{program}"
        );
    }
}
