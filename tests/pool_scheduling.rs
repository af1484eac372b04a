//! Cross-crate tests for the resident worker pool and the chunked /
//! guided self-schedulers: thread reuse across regions, fault
//! containment in resident workers, and result equivalence of every
//! chunk policy against the one-at-a-time reference.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;
use wlp::runtime::{
    doall_dynamic, doall_with, CancelFlag, ChunkPolicy, Deadline, DoallOptions, IssueOrder, Pool,
    Step,
};

fn chunked(policy: ChunkPolicy) -> DoallOptions<'static> {
    DoallOptions {
        order: IssueOrder::Dynamic(policy),
        ..DoallOptions::default()
    }
}

/// Runs one pool region and returns each vpn's host thread id.
fn thread_ids(pool: &Pool) -> HashMap<usize, ThreadId> {
    let ids = Mutex::new(HashMap::new());
    let cancel = CancelFlag::new();
    let out = pool.run_with(&cancel, |vpn| {
        ids.lock().unwrap().insert(vpn, std::thread::current().id());
    });
    assert!(out.is_clean());
    ids.into_inner().unwrap()
}

#[test]
fn resident_pool_reuses_the_same_threads_across_regions() {
    // Any worker may claim any lane from the region word, so the thread
    // serving a given vpn may change from region to region; residency
    // means the *set* of serving threads is fixed. std guarantees
    // ThreadId values are never reused while the process lives, so a
    // bounded union across many regions proves the very same threads
    // served them all — no respawns.
    let pool = Pool::new(4);
    assert!(pool.is_resident());
    let mut union: std::collections::HashSet<ThreadId> = std::collections::HashSet::new();
    for _ in 0..10 {
        let ids = thread_ids(&pool);
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[&0], std::thread::current().id(), "vpn 0 is the leader");
        union.extend(ids.into_values());
    }
    assert!(
        union.len() <= 4,
        "ten regions drew on more than p threads: {}",
        union.len()
    );
}

#[test]
fn resident_worker_panic_leaves_the_pool_reusable() {
    let pool = Pool::new(4);
    let mut union: std::collections::HashSet<ThreadId> = thread_ids(&pool).into_values().collect();

    let cancel = CancelFlag::new();
    let out = pool.run_with(&cancel, |vpn| {
        if vpn == 2 {
            panic!("injected resident fault");
        }
    });
    let wp = out.into_first_panic().expect("fault must be contained");
    assert_eq!(wp.vpn, 2);

    // The pool must keep serving regions afterwards — with the panicked
    // worker's lane restaffed or re-parked, but never wedged.
    let n = 500;
    let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let out = doall_dynamic(&pool, n, |i, _| {
        hits[i].fetch_add(1, Ordering::Relaxed);
        Step::Continue
    });
    assert_eq!(out.executed, n as u64);
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

    // The fault restaffed nothing: later regions still draw on the
    // original resident threads only.
    union.extend(thread_ids(&pool).into_values());
    assert!(
        union.len() <= 4,
        "a panic must park the worker, not replace it (got {} threads)",
        union.len()
    );
}

#[test]
fn timed_out_region_leaves_the_resident_pool_reusable() {
    let pool = Pool::new(4);
    let mut union: std::collections::HashSet<ThreadId> = thread_ids(&pool).into_values().collect();

    // A deadline-armed handle on the same resident workers; lane 1 wedges
    // past the deadline without ever polling the cancel flag — the worst
    // case for the deadline (cancellation is cooperative, so the lane can
    // only be reported, not reaped).
    let armed = pool.with_deadline(Deadline::from_millis(4));
    let cancel = CancelFlag::new();
    let out = armed.run_with(&cancel, |vpn| {
        if vpn == 1 {
            std::thread::sleep(Duration::from_millis(40));
        }
    });
    let to = out
        .timeout()
        .expect("the deadline must expire on the wedged lane");
    assert_eq!(to.vpn, 1, "grace re-scan must blame the stalled lane");
    assert!(to.elapsed >= Duration::from_millis(4));
    assert!(cancel.is_cancelled(), "expiry must raise the cancel flag");

    // The pool must keep serving regions on its original resident
    // threads — a deadline expiry parks the workers exactly like a clean
    // region end, it never wedges or restaffs them.
    union.extend(thread_ids(&pool).into_values());
    assert!(
        union.len() <= 4,
        "a timeout must park the workers, not replace them (got {} threads)",
        union.len()
    );
    let n = 500;
    let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let out = doall_dynamic(&pool, n, |i, _| {
        hits[i].fetch_add(1, Ordering::Relaxed);
        Step::Continue
    });
    assert_eq!(out.executed, n as u64);
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

/// Threads of this process, where the platform can say.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn abort_armed_region_creates_no_thread() {
    if thread_count().is_none() {
        println!("skipped: no /proc/self/task on this platform, cannot count threads");
        return;
    }
    for p in [1usize, 2] {
        let pool = Pool::new(p);
        let abort = || std::sync::Arc::new(CancelFlag::new());
        let deadline = Deadline::from_millis(60_000);
        for (arming, armed) in [
            ("abort", pool.with_abort(abort())),
            ("deadline", pool.with_deadline(deadline)),
            (
                "abort and deadline",
                pool.with_abort(abort()).with_deadline(deadline),
            ),
        ] {
            // Other tests of this binary start and stop threads meanwhile,
            // so a region is judged by the readings around and inside it
            // alone: a launch that spawns would show inside on every
            // attempt.
            let quiet = (0..50).any(|_| {
                let before = thread_count();
                let inside = armed.run_map(|_| thread_count());
                let after = thread_count();
                before == after && inside.iter().all(|&c| c == before)
            });
            assert!(
                quiet,
                "p = {p}: a region armed with {arming} changed the thread count"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every chunk policy executes exactly the iterations the
    /// one-at-a-time scheduler executes below the quit bound, and none
    /// above it past the policy's own overshoot window.
    #[test]
    fn chunk_policies_agree_with_one_at_a_time(
        n in 1usize..600,
        quit_at in prop::option::of(0usize..700),
        workers in 1usize..5,
        policy_pick in 0usize..4,
        k in 1usize..48,
    ) {
        let policy = match policy_pick {
            0 => ChunkPolicy::One,
            1 => ChunkPolicy::Fixed(k),
            2 => ChunkPolicy::Guided { min: 1 },
            _ => ChunkPolicy::Guided { min: k },
        };
        let pool = Pool::new(workers);
        let quit = quit_at.filter(|&q| q < n);

        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let out = doall_with(&pool, n, chunked(policy), |_| (), |i, ()| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if Some(i) == quit { Step::Quit } else { Step::Continue }
        });

        prop_assert_eq!(out.quit, quit);
        let end = quit.unwrap_or(n);
        for (i, h) in hits.iter().enumerate().take(end) {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "iteration {} below the exit", i);
        }
        for (i, h) in hits.iter().enumerate() {
            prop_assert!(h.load(Ordering::Relaxed) <= 1, "iteration {} ran twice", i);
        }
        // QUIT contract: overshoot never exceeds the in-flight window of
        // `workers` chunks.
        if quit.is_some() {
            let span = workers * policy.grant(n, workers).max(1);
            prop_assert!(
                out.max_started <= end + span + 1,
                "max_started {} exceeds quit {} + span {}",
                out.max_started, end, span
            );
        }
    }
}
