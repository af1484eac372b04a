//! DOALL loops with a software `QUIT` protocol.
//!
//! The paper's Induction-2 method relies on the Alliant `QUIT` operation:
//! "Once a QUIT command is issued by an iteration, all iterations with loop
//! counters less than that of the issuing iteration will be initiated and
//! completed, but no iterations with larger loop counters will be begun. If
//! multiple QUIT operations are issued, then the iteration with the smallest
//! loop counter executing a QUIT will control the exit of the loop."
//!
//! [`doall_with`] reproduces those semantics in software for every
//! [`IssueOrder`], and [`doall_dynamic`] is its default spelling: a shared
//! atomic claim counter issues iterations *in order* (the Alliant's
//! ordered-issue property), and a shared atomic minimum records the
//! smallest quitting iteration. Iterations already past the claim check may
//! still complete after a QUIT — that is precisely the *overshoot* the
//! paper's undo machinery (Section 4) deals with, so it is deliberately not
//! prevented.
//!
//! [`IssueOrder::Dynamic`] carries a [`ChunkPolicy`]: one `fetch_add`
//! grants a run of consecutive iterations (fixed-size or guided/shrinking
//! chunks), amortizing the claim overhead the cost model charges per
//! dispatch. [`IssueOrder::Cyclic`] issues iteration `i` on worker
//! `i mod p` (the paper's General-2-style static assignment). Every
//! issued iteration tests the QUIT bound before its body, so termination
//! semantics are the same under every order — only the *span* of
//! concurrently executing iterations (and thus `max_started`, the work an
//! RV terminator leaves to undo) grows, from one-at-a-time dynamic issue
//! over larger chunks to the static order.
//!
//! Fault containment: a panicking body is caught at its worker's boundary,
//! raises the shared [`CancelFlag`] (the fault-path analogue of `QUIT` —
//! peers stop claiming at their next boundary), and is reported through
//! [`DoallOutcome::panic`] so the strategies above can restore their
//! checkpoint and fall back to sequential re-execution.

use crate::chunk::ChunkPolicy;
use crate::pool::{payload_message, CancelFlag, Pool, PoolOutcome, WorkerPanic, WorkerTimeout};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use wlp_obs::{CachePadded, Event, NoopRecorder, Recorder};

/// What the loop body tells the scheduler after an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep issuing iterations.
    Continue,
    /// This iteration met the termination condition: stop issuing iterations
    /// with larger loop counters (the Alliant `QUIT`).
    Quit,
}

/// Result of a DOALL execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoallOutcome {
    /// Smallest iteration that issued a `QUIT`, if any. Under the paper's
    /// conventions this is the *last valid iteration* `LI` when the body
    /// tests the WHILE terminator before doing work.
    pub quit: Option<usize>,
    /// Number of body invocations that ran to completion (includes
    /// overshot iterations; excludes a body that panicked mid-flight).
    pub executed: u64,
    /// One past the highest iteration index that was begun; `max_started -
    /// quit` bounds the work the undo phase must inspect.
    pub max_started: usize,
    /// First body panic contained during the loop, if any. When set, the
    /// executed prefix is not trustworthy: callers holding a checkpoint
    /// should restore it and re-execute sequentially (the paper's
    /// Section 5 exception rule).
    pub panic: Option<WorkerPanic>,
    /// Deadline verdict, if the region overran its [`Deadline`]
    /// (see [`Pool::with_deadline`]). Like a panic, a timeout means the
    /// executed prefix is not trustworthy — the overdue lane was cancelled
    /// mid-iteration — so checkpoint holders should restore and fall back
    /// to sequential re-execution.
    ///
    /// [`Deadline`]: crate::pool::Deadline
    /// [`Pool::with_deadline`]: crate::pool::Pool::with_deadline
    pub timeout: Option<WorkerTimeout>,
}

/// Splits a drained pool outcome into the deadline verdict and the first
/// contained panic. The pool-level [`WorkerTimeout`] cannot know loop
/// counters, so the overdue lane's last *started* iteration — tracked in
/// `cursor` by the drivers below — is patched in here.
pub(crate) fn split_outcome(
    pool_out: PoolOutcome,
    fault: &FaultCell,
    cursor: &[CachePadded<AtomicUsize>],
) -> (Option<WorkerPanic>, Option<WorkerTimeout>) {
    let timeout = pool_out.timeout().cloned().map(|mut t| {
        if let Some(i) = cursor.get(t.vpn).map(|c| c.load(Ordering::Relaxed)) {
            if i != usize::MAX {
                t.iter = Some(i);
            }
        }
        t
    });
    let panic = fault.take().or_else(|| pool_out.into_first_panic());
    (panic, timeout)
}

/// Shared QUIT state: the minimum quitting iteration. Cache-line-padded —
/// every worker polls the bound once per iteration, and without padding
/// the poll would false-share a line with the claim counter every worker
/// *writes* once per grant.
#[derive(Debug)]
struct QuitCell(CachePadded<AtomicUsize>);

impl QuitCell {
    fn new() -> Self {
        QuitCell(CachePadded::new(AtomicUsize::new(usize::MAX)))
    }
    #[inline]
    fn bound(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }
    #[inline]
    fn quit_at(&self, i: usize) {
        self.0.fetch_min(i, Ordering::AcqRel);
    }
    /// The smallest quitting iteration, if any.
    fn get(&self) -> Option<usize> {
        let q = self.bound();
        (q != usize::MAX).then_some(q)
    }
}

/// Shared first-fault slot for constructs that catch per iteration (the
/// pool-level catch only sees panics that escape iteration bodies, which
/// carry no iteration number): the first contained body panic wins; later
/// ones (peers that panic before observing the cancel flag) are dropped.
#[derive(Debug, Default)]
pub struct FaultCell(Mutex<Option<WorkerPanic>>);

impl FaultCell {
    /// An empty slot.
    pub fn new() -> Self {
        FaultCell(Mutex::new(None))
    }

    /// Records the panic `payload` of iteration `iter` on worker `vpn`,
    /// unless an earlier one is already held.
    pub fn record(&self, vpn: usize, iter: usize, payload: &(dyn std::any::Any + Send)) {
        self.record_at(vpn, Some(iter), payload);
    }

    /// Like [`FaultCell::record`], for callers that may not know the loop
    /// counter (a panic caught at the worker boundary whose cursor was
    /// never written).
    pub(crate) fn record_at(
        &self,
        vpn: usize,
        iter: Option<usize>,
        payload: &(dyn std::any::Any + Send),
    ) {
        let mut slot = self.0.lock();
        if slot.is_none() {
            *slot = Some(WorkerPanic {
                vpn,
                iter,
                message: payload_message(payload),
            });
        }
    }

    /// Empties the slot, yielding the first recorded panic.
    pub fn take(&self) -> Option<WorkerPanic> {
        self.0.lock().take()
    }
}

/// How a DOALL hands iterations to its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOrder {
    /// Workers claim runs of iterations from a shared counter, so iteration
    /// *begin* order equals index order (the Alliant ordered-issue
    /// property); the [`ChunkPolicy`] sizes each claim.
    /// [`ChunkPolicy::One`] is the classical self-scheduler.
    Dynamic(ChunkPolicy),
    /// Static cyclic: worker `vpn` executes iterations `vpn, vpn+p, …` —
    /// the issue pattern of the paper's General-2 method. No shared claim
    /// counter; because issue order is not global, the span of started
    /// iterations can exceed the dynamic scheduler's.
    Cyclic,
}

impl Default for IssueOrder {
    fn default() -> Self {
        IssueOrder::Dynamic(ChunkPolicy::One)
    }
}

/// The options of a DOALL-shaped construct ([`doall_with`] and the
/// strategies built on it): how iterations are issued and who observes
/// the run.
///
/// Probes are guarded by `R::ENABLED`, an associated constant, so the
/// default [`NoopRecorder`] monomorphizes to the uninstrumented loop: no
/// clock reads, no branches, no recording.
#[derive(Debug)]
pub struct DoallOptions<'r, R = NoopRecorder> {
    /// Issue order (and, for dynamic issue, the chunk policy).
    pub order: IssueOrder,
    /// Receives each claim, chunk grant (`ChunkClaimed`, for grants of
    /// more than one iteration), body execution, QUIT broadcast and
    /// end-of-loop join.
    pub rec: &'r R,
}

impl Default for DoallOptions<'static> {
    fn default() -> Self {
        DoallOptions::recorded(&NoopRecorder)
    }
}

impl<'r, R> DoallOptions<'r, R> {
    /// Default issue order, observed by `rec`.
    pub fn recorded(rec: &'r R) -> Self {
        DoallOptions {
            order: IssueOrder::default(),
            rec,
        }
    }
}

/// Dynamic self-scheduled DOALL over `0..upper` with ordered issue, one
/// iteration per claim: [`doall_with`] under its default options.
/// `body(i, vpn)` returns [`Step::Quit`] to request loop exit.
pub fn doall_dynamic<F>(pool: &Pool, upper: usize, body: F) -> DoallOutcome
where
    F: Fn(usize, usize) -> Step + Sync,
{
    doall_with(
        pool,
        upper,
        DoallOptions::default(),
        |vpn| vpn,
        |i, vpn| body(i, *vpn),
    )
}

/// The DOALL over `0..upper`: iterations are issued in `opts.order`, every
/// issued iteration re-tests the QUIT bound before its body, and
/// `body(i, &mut state)` returns [`Step::Quit`] to request loop exit. The
/// Alliant contract — every iteration at or below the smallest quitting
/// one runs exactly once, and none above it begins once the quit is
/// visible — holds for every order and chunk policy; what grows with the
/// chunk size (and under the static order) is the *span*, and with it
/// `max_started` and the RV-terminator overshoot to undo.
///
/// `init(vpn)` runs once on each worker before its first iteration, and
/// the state it returns is handed to every body that worker executes
/// (pass `|vpn| vpn` for a body that only wants its processor number).
/// Scratch a body would otherwise allocate per iteration (evaluation
/// stacks, marker tables) is built once per worker per region and lives
/// on the worker's own stack: no lock, no sharing. The state is dropped
/// when the worker leaves the region; a panic in `init` is contained like
/// a body panic.
pub fn doall_with<R, S, I, F>(
    pool: &Pool,
    upper: usize,
    opts: DoallOptions<'_, R>,
    init: I,
    body: F,
) -> DoallOutcome
where
    R: Recorder,
    I: Fn(usize) -> S + Sync,
    F: Fn(usize, &mut S) -> Step + Sync,
{
    let DoallOptions { order, rec } = opts;
    // Every shared word on the claim path gets its own cache line: the
    // claim counter is RMW-hot from all workers, the quit bound is
    // polled per iteration, the executed/max_started accumulators are
    // flushed once per worker, and each lane's cursor is written per
    // iteration but read only when the region times out — none of them
    // may share a line with another, or the fetch_add traffic
    // invalidates the poll lines (measured as the `Td` dispatch term of
    // the cost model).
    let claim = CachePadded::new(AtomicUsize::new(0));
    let quit = QuitCell::new();
    let max_started = CachePadded::new(AtomicUsize::new(0));
    let executed = CachePadded::new(AtomicU64::new(0));
    let cancel = CancelFlag::new();
    let fault = FaultCell::new();
    let p = pool.size();
    let cursor: Vec<CachePadded<AtomicUsize>> = (0..p)
        .map(|_| CachePadded::new(AtomicUsize::new(usize::MAX)))
        .collect();

    let pool_out = pool.run_with(&cancel, |vpn| {
        let mut local_exec = 0u64;
        let mut local_max = 0usize;
        // One catch_unwind per *worker*, not per body call: the unwind
        // guard is hoisted out of the claiming loop so the hot path has
        // no per-iteration landing-pad setup. A panicking body is
        // attributed to the iteration its lane cursor recorded just
        // before the call.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut state = init(vpn);
            // The static order's private cursor: the next iteration this
            // worker issues itself.
            let mut next = vpn;
            'claiming: loop {
                if cancel.is_cancelled() {
                    break;
                }
                let (lo, hi) = match order {
                    IssueOrder::Dynamic(policy) => {
                        // Advisory read of the unclaimed remainder — only
                        // the grant *size* depends on it, so a stale value
                        // is harmless.
                        let seen = claim.load(Ordering::Relaxed).min(upper);
                        let want = policy.grant(upper - seen, p);
                        let lo = claim.fetch_add(want, Ordering::Relaxed);
                        (lo, lo.saturating_add(want).min(upper))
                    }
                    IssueOrder::Cyclic => {
                        let lo = next;
                        next = lo.saturating_add(p);
                        (lo, lo.saturating_add(1).min(upper))
                    }
                };
                if lo >= upper || lo > quit.bound() {
                    break;
                }
                if R::ENABLED && hi - lo > 1 {
                    rec.record(
                        vpn,
                        Event::ChunkClaimed {
                            lo: lo as u64,
                            len: (hi - lo) as u64,
                            cost: 0,
                        },
                    );
                }
                for i in lo..hi {
                    if cancel.is_cancelled() || i > quit.bound() {
                        break 'claiming;
                    }
                    if R::ENABLED {
                        rec.record(
                            vpn,
                            Event::IterClaimed {
                                iter: i as u64,
                                cost: 0,
                            },
                        );
                    }
                    local_max = i + 1;
                    cursor[vpn].store(i, Ordering::Relaxed);
                    let t0 = R::ENABLED.then(Instant::now);
                    let step = body(i, &mut state);
                    local_exec += 1;
                    if R::ENABLED {
                        let cost = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                        rec.record(
                            vpn,
                            Event::IterExecuted {
                                iter: i as u64,
                                cost,
                            },
                        );
                    }
                    if let Step::Quit = step {
                        quit.quit_at(i);
                        if R::ENABLED {
                            rec.record(vpn, Event::Quit { iter: i as u64 });
                        }
                    }
                }
            }
        }));
        if let Err(payload) = caught {
            cancel.cancel();
            let at = cursor[vpn].load(Ordering::Relaxed);
            fault.record_at(vpn, (at != usize::MAX).then_some(at), payload.as_ref());
        }
        if R::ENABLED {
            // each worker leaves the loop through the closing join
            rec.record(vpn, Event::Barrier { cost: 0 });
        }
        executed.fetch_add(local_exec, Ordering::Relaxed);
        max_started.fetch_max(local_max, Ordering::Relaxed);
    });

    let (panic, timeout) = split_outcome(pool_out, &fault, &cursor);
    DoallOutcome {
        quit: quit.get(),
        executed: executed.load(Ordering::Relaxed),
        max_started: max_started.load(Ordering::Relaxed),
        panic,
        timeout,
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by iteration number is the semantics under test
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    const CHUNKED: [IssueOrder; 3] = [
        IssueOrder::Dynamic(ChunkPolicy::One),
        IssueOrder::Dynamic(ChunkPolicy::Fixed(32)),
        IssueOrder::Dynamic(ChunkPolicy::Guided { min: 4 }),
    ];

    /// Every way the one driver enumerates iterations.
    const ORDERS: [IssueOrder; 4] = [CHUNKED[0], CHUNKED[1], CHUNKED[2], IssueOrder::Cyclic];

    fn run(
        pool: &Pool,
        upper: usize,
        order: IssueOrder,
        body: impl Fn(usize, usize) -> Step + Sync,
    ) -> DoallOutcome {
        let opts = DoallOptions {
            order,
            rec: &NoopRecorder,
        };
        doall_with(pool, upper, opts, |vpn| vpn, |i, vpn| body(i, *vpn))
    }

    fn quit_from(at: usize) -> impl Fn(usize, usize) -> Step + Sync {
        move |i, _| {
            if i >= at {
                Step::Quit
            } else {
                Step::Continue
            }
        }
    }

    fn mark_all(order: IssueOrder) {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let out = run(&pool, 100, order, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Step::Continue
        });
        assert_eq!(out.quit, None, "{order:?}");
        assert_eq!(out.executed, 100, "{order:?}");
        assert_eq!(out.max_started, 100, "{order:?}");
        assert_eq!(out.panic, None, "{order:?}");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dynamic_covers_all_iterations_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let out = doall_dynamic(&pool, 100, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Step::Continue
        });
        assert_eq!((out.quit, out.executed, out.max_started), (None, 100, 100));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn cyclic_covers_all_iterations_exactly_once() {
        mark_all(IssueOrder::Cyclic);
    }

    #[test]
    fn chunked_covers_all_iterations_exactly_once() {
        CHUNKED.into_iter().for_each(mark_all);
    }

    #[test]
    fn quit_reports_smallest_quitting_iteration() {
        // iteration 50 is at or below every bound a later quitter can
        // set, so it runs — and wins — under every order
        let pool = Pool::new(4);
        for order in ORDERS {
            let out = run(&pool, 10_000, order, quit_from(50));
            assert_eq!(out.quit, Some(50), "{order:?}");
        }
    }

    #[test]
    fn quit_executes_every_iteration_below_the_quit_point() {
        // The QUIT contract: all iterations < quit must have run.
        let pool = Pool::new(8);
        for order in ORDERS {
            let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
            let out = run(&pool, 1000, order, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if i == 200 {
                    Step::Quit
                } else {
                    Step::Continue
                }
            });
            assert_eq!(out.quit, Some(200), "{order:?}");
            for i in 0..=200 {
                assert_eq!(
                    hits[i].load(Ordering::Relaxed),
                    1,
                    "{order:?}: iteration {i} must run"
                );
            }
            // no iteration runs twice, overshoot is bounded by what was claimed
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
            assert!(out.executed >= 201, "{order:?}");
        }
    }

    #[test]
    fn cyclic_quit_bound_holds() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let out = run(&pool, 1000, IssueOrder::Cyclic, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            quit_from(100)(i, 0)
        });
        // each worker quits at its first i >= 100, and iteration 100 is
        // below every such bound, so it always runs and wins
        assert_eq!(out.quit, Some(100));
        for i in 0..=100 {
            assert_eq!(hits[i].load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn cyclic_assignment_is_mod_p() {
        let pool = Pool::new(3);
        let owner: Vec<AtomicUsize> = (0..30).map(|_| AtomicUsize::new(usize::MAX)).collect();
        run(&pool, 30, IssueOrder::Cyclic, |i, vpn| {
            owner[i].store(vpn, Ordering::Relaxed);
            Step::Continue
        });
        for i in 0..30 {
            assert_eq!(owner[i].load(Ordering::Relaxed), i % 3);
        }
    }

    #[test]
    fn empty_range_runs_nothing() {
        let pool = Pool::new(4);
        for order in ORDERS {
            let out = run(&pool, 0, order, |_, _| Step::Quit);
            assert_eq!(out.executed, 0, "{order:?}");
            assert_eq!(out.quit, None, "{order:?}");
            assert_eq!(out.max_started, 0, "{order:?}");
        }
    }

    #[test]
    fn multiple_quits_pick_minimum() {
        // every iteration in 70.. quits; 70 must win
        let out = doall_dynamic(&Pool::new(8), 10_000, quit_from(70));
        assert_eq!(out.quit, Some(70));
    }

    #[test]
    fn recorded_doall_reports_claims_bodies_and_quit() {
        let pool = Pool::new(4);
        for order in ORDERS {
            let rec = wlp_obs::BufferRecorder::new(4);
            let opts = DoallOptions { order, rec: &rec };
            let out = doall_with(
                &pool,
                1000,
                opts,
                |_| (),
                |i, ()| {
                    if i == 100 {
                        Step::Quit
                    } else {
                        Step::Continue
                    }
                },
            );
            let trace = rec.finish();
            let count = |f: &dyn Fn(&Event) -> bool| {
                trace.samples.iter().filter(|s| f(&s.event)).count() as u64
            };
            assert_eq!(
                count(&|e| matches!(e, Event::IterClaimed { .. })),
                out.executed,
                "{order:?}"
            );
            assert_eq!(
                count(&|e| matches!(e, Event::IterExecuted { .. })),
                out.executed,
                "{order:?}"
            );
            assert_eq!(count(&|e| matches!(e, Event::Quit { iter: 100 })), 1);
            assert_eq!(count(&|e| matches!(e, Event::Barrier { .. })), 4);
            assert!(trace.makespan > 0);
        }
    }

    #[test]
    fn works_on_single_worker_pool() {
        let pool = Pool::new(1);
        for order in ORDERS {
            let out = run(&pool, 100, order, |i, _| {
                if i == 10 {
                    Step::Quit
                } else {
                    Step::Continue
                }
            });
            assert_eq!(out.quit, Some(10), "{order:?}");
            // sequential execution: exactly iterations 0..=10 ran
            assert_eq!(out.executed, 11, "{order:?}");
            assert_eq!(out.max_started, 11, "{order:?}");
        }
    }

    fn assert_panic_contained(order: IssueOrder) {
        let pool = Pool::new(4);
        let out = run(&pool, 1000, order, |i, _| {
            if i == 37 {
                panic!("injected at 37");
            }
            Step::Continue
        });
        let wp = out.panic.expect("panic must be reported");
        assert_eq!(wp.iter, Some(37), "{order:?}");
        assert_eq!(wp.message, "injected at 37");
        // the faulting body is not counted as executed
        assert!(out.executed < 1000, "{order:?}");
    }

    #[test]
    fn dynamic_contains_body_panic() {
        assert_panic_contained(IssueOrder::default());
    }

    #[test]
    fn cyclic_contains_body_panic() {
        assert_panic_contained(IssueOrder::Cyclic);
    }

    #[test]
    fn chunked_contains_body_panic() {
        CHUNKED.into_iter().for_each(assert_panic_contained);
    }

    #[test]
    fn chunked_quit_contract_holds_for_every_policy() {
        let fixed1 = IssueOrder::Dynamic(ChunkPolicy::Fixed(1));
        for order in ORDERS.into_iter().chain([fixed1]) {
            let pool = Pool::new(4);
            let hits: Vec<AtomicU32> = (0..2000).map(|_| AtomicU32::new(0)).collect();
            let out = run(&pool, 2000, order, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                quit_from(300)(i, 0)
            });
            let q = out.quit.expect("loop must quit");
            assert!(q >= 300, "{order:?}: quit below the terminator");
            for i in 0..=q {
                assert_eq!(
                    hits[i].load(Ordering::Relaxed),
                    1,
                    "{order:?}: iteration {i} below the quit must run exactly once"
                );
            }
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
            assert!(out.max_started > q);
        }
    }

    #[test]
    fn chunked_recorded_run_reports_chunk_grants() {
        let pool = Pool::new(4);
        let rec = wlp_obs::BufferRecorder::new(4);
        let opts = DoallOptions {
            order: IssueOrder::Dynamic(ChunkPolicy::Fixed(50)),
            rec: &rec,
        };
        let out = doall_with(&pool, 1000, opts, |_| (), |_, ()| Step::Continue);
        assert_eq!(out.executed, 1000);
        let trace = rec.finish();
        let grants: Vec<(u64, u64)> = trace
            .samples
            .iter()
            .filter_map(|s| match s.event {
                Event::ChunkClaimed { lo, len, .. } => Some((lo, len)),
                _ => None,
            })
            .collect();
        assert_eq!(grants.len(), 20, "1000 iterations in 50-wide grants");
        let mut seen: Vec<(u64, u64)> = grants.clone();
        seen.sort_unstable();
        assert!(
            seen.iter()
                .zip(seen.iter().skip(1))
                .all(|(a, b)| a.0 + a.1 == b.0),
            "grants tile the space: {seen:?}"
        );
        // per-iteration accounting is unchanged by chunking
        let claims = trace
            .samples
            .iter()
            .filter(|s| matches!(s.event, Event::IterClaimed { .. }))
            .count() as u64;
        assert_eq!(claims, out.executed);
    }

    #[test]
    fn one_policy_emits_no_chunk_events() {
        let pool = Pool::new(2);
        let rec = wlp_obs::BufferRecorder::new(2);
        let opts = DoallOptions::recorded(&rec);
        doall_with(&pool, 100, opts, |_| (), |_, ()| Step::Continue);
        let trace = rec.finish();
        assert!(
            !trace
                .samples
                .iter()
                .any(|s| matches!(s.event, Event::ChunkClaimed { .. })),
            "single-iteration grants are plain claims"
        );
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_threaded_through() {
        let pool = Pool::new(3);
        let inits = AtomicU32::new(0);
        let sum = AtomicU64::new(0);
        struct Flush<'a>(u64, &'a AtomicU64);
        impl Drop for Flush<'_> {
            fn drop(&mut self) {
                self.1.fetch_add(self.0, Ordering::Relaxed);
            }
        }
        let out = doall_with(
            &pool,
            500,
            DoallOptions::default(),
            |_| {
                inits.fetch_add(1, Ordering::Relaxed);
                Flush(0, &sum)
            },
            |i, local| {
                local.0 += i as u64;
                Step::Continue
            },
        );
        assert_eq!(out.executed, 500);
        assert_eq!(inits.load(Ordering::Relaxed), 3, "one state per worker");
        assert_eq!(sum.load(Ordering::Relaxed), (0..500).sum::<u64>());
    }

    #[test]
    fn deadline_overrun_surfaces_timeout_with_the_overdue_iteration() {
        use crate::pool::Deadline;
        // A range no machine exhausts inside the deadline: the free
        // workers claim trivial iterations at tens of ns each, and a
        // million of them can be gone before 25 ms are.
        const UPPER: usize = usize::MAX / 2;
        let pool = Pool::new(4).with_deadline(Deadline::from_millis(25));
        for order in ORDERS {
            let out = run(&pool, UPPER, order, |i, _| {
                if i == 5 {
                    // A stall that never polls anything loop-visible: the
                    // expired deadline must cancel issue and blame this iteration.
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                Step::Continue
            });
            let to = out.timeout.expect("timeout verdict must be surfaced");
            assert_eq!(
                to.iter,
                Some(5),
                "{order:?}: overdue lane's counter patched in"
            );
            assert!(to.elapsed >= std::time::Duration::from_millis(25));
            assert_eq!(out.panic, None);
            assert!(
                out.executed < UPPER as u64,
                "{order:?}: cancellation must stop issue well before the range is exhausted"
            );
        }
    }

    #[test]
    fn deadline_kept_leaves_outcome_clean() {
        use crate::pool::Deadline;
        let pool = Pool::new(4).with_deadline(Deadline::from_millis(5_000));
        let out = doall_dynamic(&pool, 1_000, |_, _| Step::Continue);
        assert_eq!(out.timeout, None);
        assert_eq!(out.executed, 1_000);
    }

    #[test]
    fn panic_cancels_in_flight_issue() {
        // After a panic, peers stop claiming at the next boundary: far
        // fewer than `upper` iterations run.
        let pool = Pool::new(4);
        for order in ORDERS {
            let ran = AtomicU64::new(0);
            let out = run(&pool, 1_000_000, order, |i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 10 {
                    panic!("stop the presses");
                }
                Step::Continue
            });
            assert!(out.panic.is_some(), "{order:?}");
            assert!(
                ran.load(Ordering::Relaxed) < 1_000_000,
                "{order:?}: cancellation must stop issue well before the range is exhausted"
            );
        }
    }
}
