//! Allocation regression: executing a lowered plan allocates a number of
//! times that does not depend on the trip count — per execution (frames,
//! checkpoints, shadows, one scratch per worker, the lanes of a batched
//! run), never per iteration or per batch.
//!
//! A counting global allocator needs a test binary of its own, and the
//! counter is process-wide, so everything is measured from one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wlp_analyze::compile_source;
use wlp_ir::exec::Schedule;
use wlp_ir::interp::Machine;
use wlp_runtime::{CancelFlag, Pool};
use wlp_workloads::sources::{corpus, machine_inputs};

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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn allocation_count_of_one_execution_is_independent_of_n() {
    let pool = Pool::new(2);
    let (mut speculated, mut batched) = (0, 0);
    for (name, src) in corpus() {
        let (_, _, plan) = compile_source(src).expect("corpus compiles");
        // (sequential, speculative) allocation counts at two trip counts
        let counts: Vec<(u64, u64)> = [256usize, 8192]
            .iter()
            .map(|&n| {
                let machine = || {
                    let (arrays, scalars) = machine_inputs(name, n);
                    let mut m = Machine::default();
                    m.arrays.extend(arrays);
                    m.scalars.extend(scalars);
                    m.define_fn("f", |a| a[0].wrapping_mul(3).wrapping_add(1));
                    m.define_fn("g", |a| a[0].wrapping_add(7));
                    m
                };
                // the counter is process-wide and the test harness has a
                // thread of its own: the smallest of a few repetitions is
                // the execution's own count
                let seq = (0..3)
                    .map(|_| {
                        let mut frame = machine().bind(&plan);
                        allocations_during(|| {
                            let out = plan
                                .run_sequential(&mut frame, 2 * n + 4, &CancelFlag::new())
                                .expect(name);
                            assert!(out.iterations + 1 >= n, "{name} ran {out:?}");
                            // every corpus plan runs a batch at a time
                            assert!(out.batches > 0, "{name} ran {out:?}");
                        })
                    })
                    .min()
                    .expect("three repetitions");
                let spec = (0..3)
                    .map(|_| {
                        let mut frame = machine().bind(&plan);
                        allocations_during(|| {
                            let out = plan
                                .run_speculative(&mut frame, &pool, 2 * n + 4, &CancelFlag::new())
                                .expect(name);
                            assert_eq!(
                                out.ran_parallel,
                                matches!(plan.schedule(), Schedule::SpeculativeDoall { .. }),
                                "{name}: corpus inputs commit whenever the plan speculates"
                            );
                        })
                    })
                    .min()
                    .expect("three repetitions");
                (seq, spec)
            })
            .collect();
        assert_eq!(
            counts[0], counts[1],
            "{name}: (sequential, speculative) allocations at n = 256 vs n = 8192"
        );
        if matches!(plan.schedule(), Schedule::SpeculativeDoall { .. }) {
            speculated += 1;
        }
        batched += usize::from(plan.batch_refusal().is_none());
    }
    assert_eq!(speculated, 2, "gather_scatter and guarded_update speculate");
    assert_eq!(batched, 7, "all seven corpus plans batch");
}
