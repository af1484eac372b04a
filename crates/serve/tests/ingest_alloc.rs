//! Allocation regression for the ingest path: parsing a `run` line
//! allocates per field and per array — a `String` for each name, a
//! `Vec<i64>` that doubles as it fills — never per element, and the
//! bytes it asks for are those `Vec<i64>`s, not a `Value` tree (32 bytes
//! an element) built first and converted.
//!
//! A counting global allocator needs a test binary of its own, and the
//! counter is process-wide, so everything is measured from one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wlp_serve::proto::{parse_request, Request};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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

/// How many arrays [`run_line`] carries.
const ARRAYS: u64 = 2;

/// A `run` line with every field set and [`ARRAYS`] arrays of `n`
/// elements each (`parse_request` does not look inside the program text).
fn run_line(n: usize) -> String {
    let array = |f: fn(usize) -> i64| {
        let items: Vec<String> = (0..n).map(|i| f(i).to_string()).collect();
        items.join(",")
    };
    format!(
        r#"{{"v":1,"op":"run","id":"r-1","tenant":"acme","program":"integer i = 0\nwhile (i < n) {{ A[idx[i]] = 2 * A[idx[i]]\n i = i + 1 }}","arrays":{{"A":[{}],"idx":[{}]}},"scalars":{{"n":{n}}},"max_iters":{},"reply":"digest"}}"#,
        array(|i| (i as i64 * 7919) % 100_003 - 50_000),
        array(|i| i as i64),
        2 * n + 4,
    )
}

/// Allocations of one `parse_request(line)` and the bytes they asked for.
/// The counters are process-wide and the test harness has a thread of its
/// own: the smallest of a few repetitions is the parse's own count.
fn allocations_of_parsing(line: &str) -> (u64, u64) {
    (0..5)
        .map(|_| {
            let before = (
                ALLOCATIONS.load(Ordering::SeqCst),
                BYTES.load(Ordering::SeqCst),
            );
            let parsed = parse_request(line);
            let count = ALLOCATIONS.load(Ordering::SeqCst) - before.0;
            let bytes = BYTES.load(Ordering::SeqCst) - before.1;
            assert!(matches!(parsed, Ok(Request::Run(_))), "{parsed:?}");
            (count, bytes)
        })
        .min()
        .expect("five repetitions")
}

#[test]
fn parsing_a_run_line_never_allocates_per_element() {
    let (at_small, _) = allocations_of_parsing(&run_line(256));
    let (at_large, bytes) = allocations_of_parsing(&run_line(16_384));
    // 64 times the elements is six more doublings of each array's `Vec`,
    // and nothing else
    assert!(
        at_large <= at_small + 6 * ARRAYS,
        "{at_small} allocations at n = 256, {at_large} at n = 16384"
    );
    // names, program text, the outer vectors and each array's growth from
    // empty: a few dozen, nowhere near one per element
    assert!(
        at_small <= 40,
        "{at_small} allocations for {ARRAYS} arrays of 256 elements"
    );
    // a doubling `Vec<i64>` asks for 16 bytes an element over its life;
    // a tree of `Value`s on the way there would ask for 64 more
    let per_element = bytes / (ARRAYS * 16_384);
    assert!(
        per_element <= 20,
        "{per_element} bytes allocated per element"
    );
}
