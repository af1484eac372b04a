//! End-to-end fault-recovery acceptance tests: the paper's Section 5
//! exception rule, exercised through the `wlp-fault` harness.
//!
//! For every parallel construct (DOALL, DOACROSS) and the speculative
//! driver, an injected worker panic must (a) be
//! contained — no process abort, (b) restore the checkpoint, (c) fall back
//! to sequential re-execution producing exactly the sequential final
//! state, and (d) surface in the recorded trace as an exception abort. A
//! corrupted (cyclic) linked list must yield a structured
//! `DispatcherDiverged` within the step budget instead of hanging.
//!
//! Both speculative WHILE engines (§5's single-array DOALL, and the
//! array group the daemon runs plans on) meet every in-body fault kind —
//! panic, stall under a `Deadline`, write hog (under an undo-log budget
//! on the single array; a group carries none) — and must end in the
//! sequential state with the resident pool still serving regions.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wlp::core::general::{general1, general2, general3, general3_recovering, GeneralConfig};
use wlp::core::speculate::{
    speculative_while, speculative_while_group, speculative_while_with, GroupAccess, GroupArray,
    SpecAccess, SpeculativeArray,
};
use wlp::core::{run_with_recovery, ParallelAttempt, VersionedArray};
use wlp::fault::{corrupt_list_cycle, FaultAction, FaultPlan, PANIC_MESSAGE_PREFIX};
use wlp::list::ListArena;
use wlp::obs::{AbortReason, BufferRecorder, Event, NoopRecorder, ProfileReport, Trace};
use wlp::runtime::{doacross, doall_dynamic, Deadline, DoallOptions, Pool, Step};

const N: usize = 256;

fn expected(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| i * 3 + 1).collect()
}

/// Sequential fallback shared by every construct's recovery closure.
fn sequential_fill(arr: &VersionedArray<i64>) -> u64 {
    for i in 0..arr.len() {
        arr.write_direct(i, i as i64 * 3 + 1);
    }
    arr.len() as u64
}

/// The events of the recovery tail, in the order they were recorded, with
/// their measured fields zeroed.
fn recovery_events(trace: &Trace) -> Vec<Event> {
    let tail = trace.samples.iter().filter_map(|s| match s.event {
        Event::TimeoutAbort { vpn, .. } => Some(Event::TimeoutAbort { vpn, elapsed: 0 }),
        Event::UndoRestore { .. } => Some(Event::UndoRestore { elems: 0, cost: 0 }),
        Event::SpecAbort { reason, .. } => Some(Event::SpecAbort {
            reason,
            discarded: 0,
        }),
        _ => None,
    });
    tail.collect()
}

/// Drives one construct through `run_with_recovery` with a fault planned
/// at iteration `k`, then checks the Section 5 contract end to end: fault
/// fired, recovery ran, final state is the sequential one, and the trace
/// shows exactly one exception abort — a restore, then the abort naming
/// its cause.
fn check_recovery(
    name: &str,
    k: usize,
    parallel: impl FnOnce(&FaultPlan, &VersionedArray<i64>, &Pool) -> ParallelAttempt,
) {
    let arr = VersionedArray::new(vec![-7i64; N]);
    let plan = FaultPlan::panic_at(k);
    let pool = Pool::new(4);
    let rec = BufferRecorder::new(4);
    let out = run_with_recovery(
        &arr,
        &rec,
        || parallel(&plan, &arr, &pool),
        || sequential_fill(&arr),
    );
    assert!(plan.fired(), "{name}: fault must fire");
    assert!(out.recovered, "{name}: recovery must run");
    let wp = out.panic.as_ref().expect("panic recorded");
    assert!(
        wp.message.contains(PANIC_MESSAGE_PREFIX),
        "{name}: {}",
        wp.message
    );
    assert_eq!(
        arr.snapshot(),
        expected(N),
        "{name}: final state sequential"
    );
    let trace = rec.finish();
    let report = ProfileReport::from_trace(&trace);
    assert_eq!(report.spec_aborts, 1, "{name}");
    assert_eq!(report.aborts_exception, 1, "{name}");
    assert_eq!(
        recovery_events(&trace),
        [
            Event::UndoRestore { elems: 0, cost: 0 },
            Event::SpecAbort {
                reason: AbortReason::Exception,
                discarded: 0
            },
        ],
        "{name}"
    );
}

/// A deadline expiry takes the same tail as a panic, announced first by
/// the `TimeoutAbort` naming the overdue lane.
#[test]
fn doall_timeout_restores_and_reexecutes() {
    let arr = VersionedArray::new(vec![-7i64; N]);
    let plan = FaultPlan::stall_at(40, Duration::from_millis(50));
    let pool = Pool::new(4).with_deadline(Deadline::from_millis(8));
    let rec = BufferRecorder::new(4);
    let out = run_with_recovery(
        &arr,
        &rec,
        || {
            doall_dynamic(&pool, N, |i, vpn| {
                let _ = plan.inject(i, vpn);
                arr.write(i, i as i64 * 3 + 1, i);
                Step::Continue
            })
            .into()
        },
        || sequential_fill(&arr),
    );
    assert!(plan.fired(), "the stall must have been injected");
    assert!(out.recovered);
    assert_eq!(out.reason, Some(AbortReason::Timeout));
    let overdue = out.timeout.as_ref().expect("timeout verdict kept").vpn as u64;
    assert_eq!(arr.snapshot(), expected(N));
    assert_eq!(
        recovery_events(&rec.finish()),
        [
            Event::TimeoutAbort {
                vpn: overdue,
                elapsed: 0
            },
            Event::UndoRestore { elems: 0, cost: 0 },
            Event::SpecAbort {
                reason: AbortReason::Timeout,
                discarded: 0
            },
        ]
    );
}

#[test]
fn doall_panic_restores_and_reexecutes() {
    check_recovery("doall", 100, |plan, arr, pool| {
        doall_dynamic(pool, N, |i, vpn| {
            let _ = plan.inject(i, vpn);
            arr.write(i, i as i64 * 3 + 1, i);
            Step::Continue
        })
        .into()
    });
}

#[test]
fn doacross_panic_restores_and_reexecutes() {
    check_recovery("doacross", 200, |plan, arr, pool| {
        doacross(pool, N, 2, |i, s| {
            if s == 1 {
                let _ = plan.inject(i, 0);
            } else {
                arr.write(i, i as i64 * 3 + 1, i);
            }
        })
        .into()
    });
}

#[test]
fn cyclic_list_diverges_within_budget_in_every_general_method() {
    let n = 240usize;
    let mut list = ListArena::from_values(0..n as u32);
    corrupt_list_cycle(&mut list, 17).expect("list long enough");
    let pool = Pool::new(4);
    let budget = (n as u64 + 1) * 4; // acceptance bound: f(len) steps total
    let runs: [&dyn Fn() -> wlp::core::general::GeneralOutcome; 3] = [
        &|| general1(&pool, &list, GeneralConfig::default(), |_, _| {}),
        &|| general2(&pool, &list, GeneralConfig::default(), |_, _| {}),
        &|| general3(&pool, &list, GeneralConfig::default(), |_, _| {}),
    ];
    for (m, run) in runs.iter().enumerate() {
        let out = run();
        let d = out
            .diverged
            .unwrap_or_else(|| panic!("method {}: cycle must be detected", m + 1));
        assert!(
            d.steps <= budget,
            "method {}: {} steps exceeds budget {budget}",
            m + 1,
            d.steps
        );
        assert!(out.panic.is_none(), "divergence is not a panic");
    }
}

#[test]
fn speculative_driver_contains_panic_and_falls_back() {
    let n = 128usize;
    let arr = SpeculativeArray::new(vec![1i64; n]);
    let plan = FaultPlan::panic_at(60);
    let rec = BufferRecorder::new(4);
    let out = speculative_while_with(
        &Pool::new(4),
        n,
        &arr,
        DoallOptions::recorded(&rec),
        |_, _| false,
        |i, a| {
            let _ = plan.inject(i, 0);
            let v = a.read(i);
            a.write(i, v * 2);
        },
    );
    assert!(plan.fired());
    assert!(out.exception, "panic must register as an exception");
    assert!(!out.committed_parallel);
    assert!(out.reexecuted_sequentially);
    assert_eq!(arr.snapshot(), vec![2i64; n], "sequential fallback state");
    let report = ProfileReport::from_trace(&rec.finish());
    assert_eq!(report.aborts_exception, 1);
    assert_eq!(report.aborts_dependence, 0);
}

/// Sequential truth of the speculative test loop: `body` writes
/// `i * 7 + 3` below the exit, everything at or above it keeps the
/// initial value.
fn sequential_truth(n: usize, exit: usize) -> Vec<i64> {
    (0..n)
        .map(|i| if i < exit { i as i64 * 7 + 3 } else { 0 })
        .collect()
}

/// A speculative WHILE construct of `wlp-core`.
#[derive(Debug, Clone, Copy)]
enum Construct {
    /// `speculative_while_with`: one DOALL plus the PD test (§5).
    Doall,
    /// `speculative_while_group`, as the daemon runs a plan: a shadowed,
    /// a certified and a read-only array, claimed 32 iterations at a time.
    Group,
}

/// The acceptance scenario, deterministic: a worker wedged by a 50 ms
/// stall inside an 8 ms-deadline speculative loop. The deadline must
/// expire, the loop must recover to the exact sequential state, the trace
/// must carry the `TimeoutAbort`, and the resident pool must keep serving
/// regions afterwards.
#[test]
fn stalled_worker_times_out_recovers_and_leaves_the_pool_reusable() {
    let (n, exit, stall_at) = (192usize, 150usize, 60usize);
    let plan = FaultPlan::stall_at(stall_at, Duration::from_millis(50));
    let pool = Pool::new(4);
    let armed = pool.with_deadline(Deadline::from_millis(8));
    let arr = SpeculativeArray::new(vec![0i64; n]);
    let rec = BufferRecorder::new(4);

    let out = speculative_while_with(
        &armed,
        n,
        &arr,
        DoallOptions::recorded(&rec),
        |i, _| i == exit,
        |i, a| {
            let _ = plan.inject(i, 0);
            a.write(i, i as i64 * 7 + 3);
        },
    );

    assert!(plan.fired(), "the stall must have been injected");
    assert_eq!(out.abort, Some(AbortReason::Timeout));
    assert!(!out.committed_parallel);
    assert!(out.reexecuted_sequentially);
    assert_eq!(arr.snapshot(), sequential_truth(n, exit));

    let trace = rec.finish();
    assert!(
        trace
            .samples
            .iter()
            .any(|s| matches!(s.event, Event::TimeoutAbort { .. })),
        "the trace must carry the deadline's TimeoutAbort"
    );
    let report = ProfileReport::from_trace(&trace);
    report.check_conservation().expect("conservation must hold");
    assert!(report.timeouts >= 1);
    assert_eq!(report.aborts_timeout, 1);

    // The timed-out region must not wedge the resident pool: a fresh
    // speculative region on the *undeadlined* handle commits cleanly.
    let probe = SpeculativeArray::new(vec![0i64; 64]);
    let ok = speculative_while(
        &pool,
        64,
        &probe,
        |i, _| i == 48,
        |i, a| a.write(i, i as i64),
    );
    assert!(ok.committed_parallel && ok.abort.is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every speculative construct meets every fault kind at any site:
    /// whatever fires, the loop ends in the pure-sequential final state,
    /// a contained panic or a write hog never commits, and a follow-up
    /// region on the same pool commits.
    #[test]
    fn speculative_constructs_match_sequential_under_any_fault(
        n in 8usize..96,
        exit_pick in 0usize..97,
        workers in 1usize..5,
        mode_pick in 0usize..4,
        site_pick in 0usize..96,
    ) {
        let exit = exit_pick % (n + 1);
        let site = site_pick % n;
        let truth = sequential_truth(n, exit);
        let pool = Pool::new(workers);
        // Deadline and budget armed except in panic mode: a stall trips
        // the deadline, a hog trips the single array's budget, and a
        // spurious trip on a loaded machine is harmless (the contract
        // under test is that the result stays sequential-equivalent
        // regardless). In panic mode the sequential fallback runs without
        // a catch, so no other failure may send it there before the
        // one-shot plan has fired.
        let guarded = mode_pick != 1;
        let armed = if guarded {
            pool.with_deadline(Deadline::from_millis(2))
        } else {
            pool.clone()
        };
        let budget = guarded.then_some(3 * n as u64);

        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut runs = Vec::new();
        for construct in [Construct::Doall, Construct::Group] {
            // One-shot plan per construct: the parallel attempt eats the
            // fault, the sequential re-execution runs clean.
            let plan = match mode_pick {
                0 => FaultPlan::none(),
                1 => FaultPlan::panic_at(site),
                2 => FaultPlan::stall_at(site, Duration::from_millis(6)),
                _ => FaultPlan::hog_at(site, 512),
            };
            let (states, committed, clean) = match construct {
                Construct::Doall => {
                    let mut arr = SpeculativeArray::new(vec![0i64; n]);
                    if let Some(writes) = budget {
                        arr = arr.with_budget(writes);
                    }
                    let body = |i: usize, a: &mut SpecAccess<'_, i64>| {
                        if let FaultAction::HogWrites(k) = plan.inject(i, 0) {
                            for _ in 0..k {
                                a.write(i, -1);
                            }
                        }
                        a.write(i, i as i64 * 7 + 3);
                    };
                    let opts = DoallOptions::default();
                    let out = speculative_while_with(&armed, n, &arr, opts, |i, _| i >= exit, body);
                    (vec![arr.snapshot()], out.committed_parallel, true)
                }
                Construct::Group => {
                    // array 2 holds each iteration's value, read-only; the
                    // body copies it into the shadowed array 0 and the
                    // certified array 1, and hogs the shadowed one. A group
                    // carries no budget: the hog's writes are its own
                    // iteration's, so the attempt may validate
                    let values: Vec<i64> = (0..n as i64).map(|i| i * 7 + 3).collect();
                    let arrays = [
                        GroupArray::Shadowed(SpeculativeArray::new(vec![0i64; n])),
                        GroupArray::Certified(VersionedArray::new(vec![0i64; n])),
                        GroupArray::ReadOnly(&values),
                    ];
                    let body = |i: usize, _: &mut (), g: &mut GroupAccess<'_, i64>| {
                        if i >= exit {
                            return Ok::<_, ()>(Step::Quit);
                        }
                        if let FaultAction::HogWrites(k) = plan.inject(i, 0) {
                            for _ in 0..k {
                                g.write(0, i, -1).ok_or(())?;
                            }
                        }
                        let v = g.read(2, i).ok_or(())?;
                        g.write(0, i, v).ok_or(())?;
                        g.write(1, i, v).ok_or(())?;
                        Ok(Step::Continue)
                    };
                    let out = speculative_while_group(&armed, n, &arrays, || (), body);
                    let committed = out.as_ref().is_ok_and(|o| o.committed_parallel);
                    let [shadowed, certified, _] = arrays;
                    let states = [shadowed, certified].map(|a| a.into_live().expect("written"));
                    (states.to_vec(), committed, out.is_ok())
                }
            };
            // A panic that fired always aborts, and so does a hog that
            // fired against a budget; whether a fired stall does is left
            // open here.
            let budgeted = matches!(construct, Construct::Doall);
            let must_abort = plan.fired() && (mode_pick == 1 || (mode_pick == 3 && budgeted));
            let follow = SpeculativeArray::new(vec![0i64; 64]);
            let next = speculative_while(&pool, 64, &follow, |i, _| i == 48, |i, a| {
                a.write(i, i as i64)
            });
            runs.push((
                construct,
                states,
                clean,
                must_abort && committed,
                next.committed_parallel && next.abort.is_none(),
            ));
        }
        std::panic::set_hook(hook);

        for (construct, states, clean, committed_a_fault, follow_up_committed) in runs {
            prop_assert!(clean, "{:?}: the sequential loop met an error", construct);
            for data in &states {
                prop_assert_eq!(data, &truth, "{:?} diverged from the sequential truth", construct);
            }
            prop_assert!(!committed_a_fault, "{:?} committed a faulted attempt", construct);
            prop_assert!(follow_up_committed, "{:?} left the pool unable to commit", construct);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery equivalence, DOALL: a panic at arbitrary (k, vpn-mask)
    /// yields exactly the sequential final state.
    #[test]
    fn doall_recovery_equivalence(k in 0usize..N) {
        let arr = VersionedArray::new(vec![-7i64; N]);
        let plan = FaultPlan::panic_at(k);
        let pool = Pool::new(4);
        let out = run_with_recovery(&arr, &NoopRecorder, || {
            doall_dynamic(&pool, N, |i, vpn| {
                let _ = plan.inject(i, vpn);
                arr.write(i, i as i64 * 3 + 1, i);
                Step::Continue
            })
            .into()
        }, || sequential_fill(&arr));
        prop_assert!(out.recovered);
        prop_assert_eq!(arr.snapshot(), expected(N));
    }

    /// Recovery equivalence, DOACROSS (fault in an arbitrary stage).
    #[test]
    fn doacross_recovery_equivalence(k in 0usize..N, stage in 0usize..3) {
        let arr = VersionedArray::new(vec![-7i64; N]);
        let plan = FaultPlan::panic_at(k);
        let pool = Pool::new(4);
        let out = run_with_recovery(&arr, &NoopRecorder, || {
            doacross(&pool, N, 3, |i, s| {
                if s == stage {
                    let _ = plan.inject(i, 0);
                }
                if s == 0 {
                    arr.write(i, i as i64 * 3 + 1, i);
                }
            })
            .into()
        }, || sequential_fill(&arr));
        prop_assert!(out.recovered);
        prop_assert_eq!(arr.snapshot(), expected(N));
    }

    /// Recovery equivalence, General-3 over a linked list: the recovering
    /// wrapper's sequential re-walk produces the sequential final state
    /// whatever iteration the fault hits.
    #[test]
    fn general3_recovery_equivalence(k in 0usize..200, seed in 0u64..64) {
        let n = 200usize;
        let list = ListArena::from_values_shuffled(0..n as u32, seed);
        let plan = FaultPlan::panic_at(k);
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let out = general3_recovering(&Pool::new(4), &list, GeneralConfig::default(), |i, node| {
            let _ = plan.inject(i, 0);
            // idempotent body: each logical position owns one slot
            slots[list[node] as usize].store(i as u64 + 1, Ordering::Relaxed);
            Step::Continue
        });
        prop_assert!(out.recovered);
        prop_assert!(out.diverged.is_none());
        prop_assert_eq!(out.iterations, n);
        // every slot written exactly once with its logical position + 1
        let order = list.logical_order();
        for (pos, id) in order.iter().enumerate() {
            let v = list[*id] as usize;
            prop_assert_eq!(slots[v].load(Ordering::Relaxed), pos as u64 + 1);
        }
    }
}
