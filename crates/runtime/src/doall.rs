//! DOALL loops with a software `QUIT` protocol.
//!
//! The paper's Induction-2 method relies on the Alliant `QUIT` operation:
//! "Once a QUIT command is issued by an iteration, all iterations with loop
//! counters less than that of the issuing iteration will be initiated and
//! completed, but no iterations with larger loop counters will be begun. If
//! multiple QUIT operations are issued, then the iteration with the smallest
//! loop counter executing a QUIT will control the exit of the loop."
//!
//! [`doall_dynamic`] reproduces those semantics in software: a shared atomic
//! claim counter issues iterations *in order* (the Alliant's ordered-issue
//! property), and a shared atomic minimum records the smallest quitting
//! iteration. Iterations already past the claim check may still complete
//! after a QUIT — that is precisely the *overshoot* the paper's undo
//! machinery (Section 4) deals with, so it is deliberately not prevented.
//!
//! [`doall_static_cyclic`] issues iteration `i` on worker `i mod p`
//! (the paper's General-2-style static assignment), and
//! [`doall_static_blocked`] issues contiguous blocks. The paper notes that
//! static assignment can have a much larger *span* of concurrently executing
//! iterations, and therefore more iterations to undo under an RV terminator;
//! the outcome's `max_started` field lets callers observe exactly that.
//!
//! [`doall_dynamic_chunked`] generalizes the dynamic scheduler with a
//! [`ChunkPolicy`]: one `fetch_add` grants a run of consecutive iterations
//! (fixed-size or guided/shrinking chunks), amortizing the claim overhead
//! the cost model charges per dispatch. Every granted iteration still
//! tests the QUIT bound before its body, so termination semantics are
//! unchanged — only the span (and thus `max_started`) can grow with the
//! chunk size, exactly the static-vs-dynamic trade-off above on a
//! continuous dial.
//!
//! Fault containment: a panicking body is caught at its own iteration
//! boundary, raises the shared [`CancelFlag`] (the fault-path analogue of
//! `QUIT` — peers stop claiming at their next boundary), and is reported
//! through [`DoallOutcome::panic`] so the strategies above can restore
//! their checkpoint and fall back to sequential re-execution.

use crate::chunk::ChunkPolicy;
use crate::deque::{Steal, StealDeque};
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
    /// Watchdog verdict, if the region overran its [`Deadline`]
    /// (see [`Pool::with_deadline`]). Like a panic, a timeout means the
    /// executed prefix is not trustworthy — the overdue lane was cancelled
    /// mid-iteration — so checkpoint holders should restore and fall back
    /// to sequential re-execution.
    ///
    /// [`Deadline`]: crate::pool::Deadline
    /// [`Pool::with_deadline`]: crate::pool::Pool::with_deadline
    pub timeout: Option<WorkerTimeout>,
}

impl DoallOutcome {
    fn from_parts(
        quit: usize,
        executed: u64,
        max_started: usize,
        panic: Option<WorkerPanic>,
        timeout: Option<WorkerTimeout>,
    ) -> Self {
        DoallOutcome {
            quit: (quit != usize::MAX).then_some(quit),
            executed,
            max_started,
            panic,
            timeout,
        }
    }
}

/// Splits a drained pool outcome into the watchdog verdict and the first
/// contained panic. The pool-level [`WorkerTimeout`] cannot know loop
/// counters, so the overdue lane's last *started* iteration — tracked in
/// `cursor` by the drivers below — is patched in here.
fn split_outcome(
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
}

/// Shared first-fault slot: the first contained body panic wins; later
/// ones (peers that panic before observing the cancel flag) are dropped.
#[derive(Debug, Default)]
pub(crate) struct FaultCell(Mutex<Option<WorkerPanic>>);

impl FaultCell {
    pub(crate) fn new() -> Self {
        FaultCell(Mutex::new(None))
    }

    pub(crate) fn record(&self, vpn: usize, iter: usize, payload: &(dyn std::any::Any + Send)) {
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

    pub(crate) fn take(&self) -> Option<WorkerPanic> {
        self.0.lock().take()
    }
}

/// Dynamic self-scheduled DOALL over `0..upper` with ordered issue.
///
/// Workers claim iterations from a shared counter, so iteration *begin*
/// order equals iteration index order (the Alliant ordered-issue property).
/// `body(i, vpn)` returns [`Step::Quit`] to request loop exit.
pub fn doall_dynamic<F>(pool: &Pool, upper: usize, body: F) -> DoallOutcome
where
    F: Fn(usize, usize) -> Step + Sync,
{
    doall_dynamic_rec(pool, upper, &NoopRecorder, body)
}

/// [`doall_dynamic`] with observability: each claim, body execution, QUIT
/// broadcast and end-of-loop join is reported to `rec`.
///
/// Probes are guarded by `R::ENABLED`, an associated constant, so calling
/// this with [`NoopRecorder`] — which is exactly what [`doall_dynamic`]
/// does — monomorphizes to the uninstrumented loop: no clock reads, no
/// branches, no recording.
pub fn doall_dynamic_rec<R, F>(pool: &Pool, upper: usize, rec: &R, body: F) -> DoallOutcome
where
    R: Recorder,
    F: Fn(usize, usize) -> Step + Sync,
{
    doall_dynamic_chunked_rec(pool, upper, ChunkPolicy::One, rec, body)
}

/// Dynamic self-scheduled DOALL with a [`ChunkPolicy`]: each `fetch_add`
/// on the shared claim counter grants a run of consecutive iterations
/// instead of one. Chunks are granted in index order; within a chunk,
/// iterations run in order and each one re-tests the QUIT bound before
/// its body, so the Alliant contract — no iteration with a counter larger
/// than the smallest quitting iteration begins once the quit is visible —
/// is preserved for every policy. What changes is the *span*: a worker
/// deep in a large chunk can be executing an iteration far above a
/// sibling's, so `max_started` (and RV-terminator overshoot to undo)
/// grows with the chunk size. [`ChunkPolicy::One`] is byte-for-byte the
/// classical scheduler.
pub fn doall_dynamic_chunked<F>(
    pool: &Pool,
    upper: usize,
    policy: ChunkPolicy,
    body: F,
) -> DoallOutcome
where
    F: Fn(usize, usize) -> Step + Sync,
{
    doall_dynamic_chunked_rec(pool, upper, policy, &NoopRecorder, body)
}

/// [`doall_dynamic_chunked`] with observability: chunk grants of more
/// than one iteration are reported as [`Event::ChunkClaimed`]; each
/// iteration still reports `IterClaimed`/`IterExecuted`/`Quit` as in
/// [`doall_dynamic_rec`], so per-iteration accounting is unchanged.
pub fn doall_dynamic_chunked_rec<R, F>(
    pool: &Pool,
    upper: usize,
    policy: ChunkPolicy,
    rec: &R,
    body: F,
) -> DoallOutcome
where
    R: Recorder,
    F: Fn(usize, usize) -> Step + Sync,
{
    drive_dynamic(pool, upper, policy, rec, |vpn| vpn, |i, vpn| body(i, *vpn))
}

/// [`doall_dynamic_chunked`] with per-worker state: `init(vpn)` runs once
/// on each worker before it claims its first iteration, and the value it
/// returns is handed to every `body(i, &mut state)` that worker executes.
/// Scratch a body would otherwise allocate per iteration (evaluation
/// stacks, marker tables) is built once per worker per region and lives
/// on the worker's own stack: no lock, no sharing. The state is dropped
/// when the worker leaves the region; a panic in `init` is contained like
/// a body panic.
pub fn doall_dynamic_with<S, I, F>(
    pool: &Pool,
    upper: usize,
    policy: ChunkPolicy,
    init: I,
    body: F,
) -> DoallOutcome
where
    I: Fn(usize) -> S + Sync,
    F: Fn(usize, &mut S) -> Step + Sync,
{
    drive_dynamic(pool, upper, policy, &NoopRecorder, init, body)
}

/// The one dynamic self-scheduling driver every `doall_dynamic*` entry
/// point delegates to.
fn drive_dynamic<R, S, I, F>(
    pool: &Pool,
    upper: usize,
    policy: ChunkPolicy,
    rec: &R,
    init: I,
    body: F,
) -> DoallOutcome
where
    R: Recorder,
    I: Fn(usize) -> S + Sync,
    F: Fn(usize, &mut S) -> Step + Sync,
{
    // Every shared word on the claim path gets its own cache line: the
    // claim counter is RMW-hot from all workers, the quit bound is
    // polled per iteration, the executed/max_started accumulators are
    // flushed once per worker, and each lane's cursor is written per
    // iteration but read only by the watchdog — none of them may share a
    // line with another, or the fetch_add traffic invalidates the poll
    // lines (measured as the `Td` dispatch term of the cost model).
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
            'claiming: loop {
                if cancel.is_cancelled() {
                    break;
                }
                // Advisory read of the unclaimed remainder — only the
                // grant *size* depends on it, so a stale value is
                // harmless.
                let seen = claim.load(Ordering::Relaxed).min(upper);
                let want = policy.grant(upper - seen, p);
                let lo = claim.fetch_add(want, Ordering::Relaxed);
                if lo >= upper || lo > quit.bound() {
                    break;
                }
                let hi = (lo + want).min(upper);
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
    DoallOutcome::from_parts(
        quit.bound(),
        executed.load(Ordering::Relaxed),
        max_started.load(Ordering::Relaxed),
        panic,
        timeout,
    )
}

/// Static cyclic DOALL: worker `vpn` executes iterations `vpn, vpn+p, …`.
///
/// This is the issue pattern of the paper's General-2 method. The QUIT bound
/// is still honoured (iterations larger than the smallest quitting iteration
/// are not begun once the quit is visible), but because issue order is not
/// global, the span of started iterations can exceed the dynamic scheduler's.
pub fn doall_static_cyclic<F>(pool: &Pool, upper: usize, body: F) -> DoallOutcome
where
    F: Fn(usize, usize) -> Step + Sync,
{
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
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut i = vpn;
            while i < upper && i <= quit.bound() && !cancel.is_cancelled() {
                local_max = i + 1;
                cursor[vpn].store(i, Ordering::Relaxed);
                let step = body(i, vpn);
                local_exec += 1;
                if let Step::Quit = step {
                    quit.quit_at(i);
                }
                i += p;
            }
        }));
        if let Err(payload) = caught {
            cancel.cancel();
            let at = cursor[vpn].load(Ordering::Relaxed);
            fault.record_at(vpn, (at != usize::MAX).then_some(at), payload.as_ref());
        }
        executed.fetch_add(local_exec, Ordering::Relaxed);
        max_started.fetch_max(local_max, Ordering::Relaxed);
    });

    let (panic, timeout) = split_outcome(pool_out, &fault, &cursor);
    DoallOutcome::from_parts(
        quit.bound(),
        executed.load(Ordering::Relaxed),
        max_started.load(Ordering::Relaxed),
        panic,
        timeout,
    )
}

/// Static blocked DOALL: worker `vpn` executes one contiguous block of
/// `0..upper`, honouring the QUIT bound.
pub fn doall_static_blocked<F>(pool: &Pool, upper: usize, body: F) -> DoallOutcome
where
    F: Fn(usize, usize) -> Step + Sync,
{
    let quit = QuitCell::new();
    let max_started = CachePadded::new(AtomicUsize::new(0));
    let executed = CachePadded::new(AtomicU64::new(0));
    let cancel = CancelFlag::new();
    let fault = FaultCell::new();
    let cursor: Vec<CachePadded<AtomicUsize>> = (0..pool.size())
        .map(|_| CachePadded::new(AtomicUsize::new(usize::MAX)))
        .collect();

    let pool_out = pool.run_with(&cancel, |vpn| {
        let (lo, hi) = pool.block(vpn, upper);
        let mut local_exec = 0u64;
        let mut local_max = 0usize;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for i in lo..hi {
                if i > quit.bound() || cancel.is_cancelled() {
                    break;
                }
                local_max = i + 1;
                cursor[vpn].store(i, Ordering::Relaxed);
                let step = body(i, vpn);
                local_exec += 1;
                if let Step::Quit = step {
                    quit.quit_at(i);
                }
            }
        }));
        if let Err(payload) = caught {
            cancel.cancel();
            let at = cursor[vpn].load(Ordering::Relaxed);
            fault.record_at(vpn, (at != usize::MAX).then_some(at), payload.as_ref());
        }
        executed.fetch_add(local_exec, Ordering::Relaxed);
        max_started.fetch_max(local_max, Ordering::Relaxed);
    });

    let (panic, timeout) = split_outcome(pool_out, &fault, &cursor);
    DoallOutcome::from_parts(
        quit.bound(),
        executed.load(Ordering::Relaxed),
        max_started.load(Ordering::Relaxed),
        panic,
        timeout,
    )
}

/// Work-stealing DOALL: chunks of `chunk` consecutive iterations are
/// pre-distributed into one Chase–Lev [`StealDeque`] per worker; each
/// worker drains its own deque with relaxed owner pops and steals from
/// peers (one CAS per steal) only when dry. There is **no shared claim
/// counter at all** — under claim-dense workloads (tiny bodies at high
/// `p`) this removes the last contended RMW from the issue path.
///
/// Semantics versus [`doall_dynamic_chunked`]:
///
/// * The QUIT bound is honoured identically — every granted iteration
///   re-tests the bound before its body, all iterations ≤ the smallest
///   quitting iteration run exactly once, and none above it begins once
///   the quit is visible.
/// * Issue order is **not** globally ascending (chunks run in
///   owner-LIFO/steal-FIFO order), like the static schedulers and unlike
///   the dynamic ones. Do not drive *privatized* speculation with this
///   scheduler: the privatization overshoot exemption in `wlp-core`
///   leans on the claim counter's ordered issue.
/// * `max_started` can therefore exceed the dynamic scheduler's span —
///   the static-vs-dynamic trade-off of the paper, §4.
pub fn doall_worksteal<F>(pool: &Pool, upper: usize, chunk: usize, body: F) -> DoallOutcome
where
    F: Fn(usize, usize) -> Step + Sync,
{
    let p = pool.size();
    let chunk = chunk.max(1);
    let nchunks = upper.div_ceil(chunk);
    let share = nchunks.div_ceil(p).max(1);
    // Pre-seed: worker v owns the contiguous chunk block
    // [v*share, (v+1)*share). Seeding happens on the caller's thread,
    // which is sound because the pool's region publication edge orders
    // these pushes before any worker's first steal/pop.
    let deques: Vec<StealDeque> = (0..p).map(|_| StealDeque::new(share)).collect();
    for c in 0..nchunks {
        let pushed = deques[c / share].push(c);
        debug_assert!(pushed, "each deque holds at most `share` chunks");
    }

    let quit = QuitCell::new();
    let max_started = CachePadded::new(AtomicUsize::new(0));
    let executed = CachePadded::new(AtomicU64::new(0));
    let cancel = CancelFlag::new();
    let fault = FaultCell::new();
    let cursor: Vec<CachePadded<AtomicUsize>> = (0..p)
        .map(|_| CachePadded::new(AtomicUsize::new(usize::MAX)))
        .collect();

    let pool_out = pool.run_with(&cancel, |vpn| {
        let mut local_exec = 0u64;
        let mut local_max = 0usize;
        let own = &deques[vpn];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            'running: loop {
                if cancel.is_cancelled() {
                    break;
                }
                // Own deque first (relaxed fast path), then one sweep
                // over the peers. A Retry anywhere means contention, not
                // exhaustion — sweep again rather than exiting early.
                let c = match own.pop() {
                    Some(c) => c,
                    None => {
                        let mut found = None;
                        let mut contended = false;
                        for off in 1..p {
                            match deques[(vpn + off) % p].steal() {
                                Steal::Success(c) => {
                                    found = Some(c);
                                    break;
                                }
                                Steal::Retry => contended = true,
                                Steal::Empty => {}
                            }
                        }
                        match found {
                            Some(c) => c,
                            None if contended => {
                                std::hint::spin_loop();
                                continue;
                            }
                            None => break,
                        }
                    }
                };
                let lo = c * chunk;
                let hi = (lo + chunk).min(upper);
                for i in lo..hi {
                    if cancel.is_cancelled() {
                        break 'running;
                    }
                    if i > quit.bound() {
                        // The rest of this chunk is above the bound, but
                        // chunks with smaller indices may still be
                        // queued elsewhere — keep claiming.
                        continue 'running;
                    }
                    local_max = local_max.max(i + 1);
                    cursor[vpn].store(i, Ordering::Relaxed);
                    let step = body(i, vpn);
                    local_exec += 1;
                    if let Step::Quit = step {
                        quit.quit_at(i);
                    }
                }
            }
        }));
        if let Err(payload) = caught {
            cancel.cancel();
            let at = cursor[vpn].load(Ordering::Relaxed);
            fault.record_at(vpn, (at != usize::MAX).then_some(at), payload.as_ref());
        }
        executed.fetch_add(local_exec, Ordering::Relaxed);
        max_started.fetch_max(local_max, Ordering::Relaxed);
    });

    let (panic, timeout) = split_outcome(pool_out, &fault, &cursor);
    DoallOutcome::from_parts(
        quit.bound(),
        executed.load(Ordering::Relaxed),
        max_started.load(Ordering::Relaxed),
        panic,
        timeout,
    )
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by iteration number is the semantics under test
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn mark_all(
        doall: impl Fn(&Pool, usize, &(dyn Fn(usize, usize) -> Step + Sync)) -> DoallOutcome,
    ) {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let out = doall(&pool, 100, &|i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Step::Continue
        });
        assert_eq!(out.quit, None);
        assert_eq!(out.executed, 100);
        assert_eq!(out.max_started, 100);
        assert_eq!(out.panic, None);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dynamic_covers_all_iterations_exactly_once() {
        mark_all(|p, u, b| doall_dynamic(p, u, b));
    }

    #[test]
    fn cyclic_covers_all_iterations_exactly_once() {
        mark_all(|p, u, b| doall_static_cyclic(p, u, b));
    }

    #[test]
    fn blocked_covers_all_iterations_exactly_once() {
        mark_all(|p, u, b| doall_static_blocked(p, u, b));
    }

    #[test]
    fn quit_reports_smallest_quitting_iteration() {
        let pool = Pool::new(4);
        let out = doall_dynamic(&pool, 10_000, |i, _| {
            if i >= 50 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(50));
    }

    #[test]
    fn quit_executes_every_iteration_below_the_quit_point() {
        // The QUIT contract: all iterations < quit must have run.
        let pool = Pool::new(8);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let out = doall_dynamic(&pool, 1000, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i == 200 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(200));
        for i in 0..=200 {
            assert_eq!(hits[i].load(Ordering::Relaxed), 1, "iteration {i} must run");
        }
        // no iteration runs twice, overshoot is bounded by what was claimed
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
        assert!(out.executed >= 201);
    }

    #[test]
    fn cyclic_quit_bound_holds() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let out = doall_static_cyclic(&pool, 1000, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i >= 100 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        // smallest quitting iteration is in 100..104 (each worker quits at
        // its first i >= 100); all iterations below it must have run
        let q = out.quit.unwrap();
        assert!((100..100 + 4).contains(&q));
        for i in 0..=q {
            assert_eq!(hits[i].load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn cyclic_assignment_is_mod_p() {
        let pool = Pool::new(3);
        let owner: Vec<AtomicUsize> = (0..30).map(|_| AtomicUsize::new(usize::MAX)).collect();
        doall_static_cyclic(&pool, 30, |i, vpn| {
            owner[i].store(vpn, Ordering::Relaxed);
            Step::Continue
        });
        for i in 0..30 {
            assert_eq!(owner[i].load(Ordering::Relaxed), i % 3);
        }
    }

    #[test]
    fn blocked_assignment_is_contiguous() {
        let pool = Pool::new(4);
        let owner: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(usize::MAX)).collect();
        doall_static_blocked(&pool, 40, |i, vpn| {
            owner[i].store(vpn, Ordering::Relaxed);
            Step::Continue
        });
        let owners: Vec<usize> = owner.iter().map(|o| o.load(Ordering::Relaxed)).collect();
        assert!(owners.windows(2).all(|w| w[0] <= w[1]), "{owners:?}");
    }

    #[test]
    fn empty_range_runs_nothing() {
        let pool = Pool::new(4);
        let out = doall_dynamic(&pool, 0, |_, _| Step::Quit);
        assert_eq!(out.executed, 0);
        assert_eq!(out.quit, None);
        assert_eq!(out.max_started, 0);
    }

    #[test]
    fn multiple_quits_pick_minimum() {
        let pool = Pool::new(8);
        let out = doall_dynamic(&pool, 10_000, |i, _| {
            // every iteration in 70.. quits; 70 must win
            if i >= 70 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(70));
    }

    #[test]
    fn recorded_doall_reports_claims_bodies_and_quit() {
        let pool = Pool::new(4);
        let rec = wlp_obs::BufferRecorder::new(4);
        let out = doall_dynamic_rec(&pool, 1000, &rec, |i, _| {
            if i == 100 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        let trace = rec.finish();
        let count = |f: &dyn Fn(&Event) -> bool| {
            trace.samples.iter().filter(|s| f(&s.event)).count() as u64
        };
        assert_eq!(
            count(&|e| matches!(e, Event::IterClaimed { .. })),
            out.executed
        );
        assert_eq!(
            count(&|e| matches!(e, Event::IterExecuted { .. })),
            out.executed
        );
        assert_eq!(count(&|e| matches!(e, Event::Quit { iter: 100 })), 1);
        assert_eq!(count(&|e| matches!(e, Event::Barrier { .. })), 4);
        assert!(trace.makespan > 0);
    }

    #[test]
    fn works_on_single_worker_pool() {
        let pool = Pool::new(1);
        let out = doall_dynamic(&pool, 100, |i, _| {
            if i == 10 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(10));
        // sequential execution: exactly iterations 0..=10 ran
        assert_eq!(out.executed, 11);
        assert_eq!(out.max_started, 11);
    }

    fn assert_panic_contained(
        doall: impl Fn(&Pool, usize, &(dyn Fn(usize, usize) -> Step + Sync)) -> DoallOutcome,
    ) {
        let pool = Pool::new(4);
        let out = doall(&pool, 1000, &|i, _| {
            if i == 37 {
                panic!("injected at 37");
            }
            Step::Continue
        });
        let wp = out.panic.expect("panic must be reported");
        assert_eq!(wp.iter, Some(37));
        assert_eq!(wp.message, "injected at 37");
        // the faulting body is not counted as executed
        assert!(out.executed < 1000);
    }

    #[test]
    fn dynamic_contains_body_panic() {
        assert_panic_contained(|p, u, b| doall_dynamic(p, u, b));
    }

    #[test]
    fn cyclic_contains_body_panic() {
        assert_panic_contained(|p, u, b| doall_static_cyclic(p, u, b));
    }

    #[test]
    fn blocked_contains_body_panic() {
        assert_panic_contained(|p, u, b| doall_static_blocked(p, u, b));
    }

    #[test]
    fn chunked_covers_all_iterations_exactly_once() {
        for policy in [
            ChunkPolicy::One,
            ChunkPolicy::Fixed(16),
            ChunkPolicy::Guided { min: 4 },
        ] {
            mark_all(|p, u, b| doall_dynamic_chunked(p, u, policy, b));
        }
    }

    #[test]
    fn chunked_quit_contract_holds_for_every_policy() {
        for policy in [
            ChunkPolicy::Fixed(32),
            ChunkPolicy::Guided { min: 2 },
            ChunkPolicy::Fixed(1),
        ] {
            let pool = Pool::new(4);
            let hits: Vec<AtomicU32> = (0..2000).map(|_| AtomicU32::new(0)).collect();
            let out = doall_dynamic_chunked(&pool, 2000, policy, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if i >= 300 {
                    Step::Quit
                } else {
                    Step::Continue
                }
            });
            let q = out.quit.expect("loop must quit");
            assert!(q >= 300, "{policy:?}: quit below the terminator");
            for i in 0..=q {
                assert_eq!(
                    hits[i].load(Ordering::Relaxed),
                    1,
                    "{policy:?}: iteration {i} below the quit must run exactly once"
                );
            }
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
            assert!(out.max_started > q);
        }
    }

    #[test]
    fn chunked_contains_body_panic() {
        assert_panic_contained(|p, u, b| doall_dynamic_chunked(p, u, ChunkPolicy::Fixed(8), b));
    }

    #[test]
    fn chunked_recorded_run_reports_chunk_grants() {
        let pool = Pool::new(4);
        let rec = wlp_obs::BufferRecorder::new(4);
        let out = doall_dynamic_chunked_rec(&pool, 1000, ChunkPolicy::Fixed(50), &rec, |_, _| {
            Step::Continue
        });
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
        doall_dynamic_chunked_rec(&pool, 100, ChunkPolicy::One, &rec, |_, _| Step::Continue);
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
    fn worksteal_covers_all_iterations_exactly_once() {
        for (p, chunk) in [(1, 4), (4, 1), (4, 7), (8, 16)] {
            let pool = Pool::new(p);
            let hits: Vec<AtomicU32> = (0..500).map(|_| AtomicU32::new(0)).collect();
            let out = doall_worksteal(&pool, 500, chunk, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                Step::Continue
            });
            assert_eq!(out.quit, None, "p={p} chunk={chunk}");
            assert_eq!(out.executed, 500, "p={p} chunk={chunk}");
            assert_eq!(out.max_started, 500, "p={p} chunk={chunk}");
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn worksteal_quit_contract_holds() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..2000).map(|_| AtomicU32::new(0)).collect();
        let out = doall_worksteal(&pool, 2000, 8, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i >= 300 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        let q = out.quit.expect("loop must quit");
        assert!(q >= 300, "quit below the terminator");
        for i in 0..=q {
            assert_eq!(
                hits[i].load(Ordering::Relaxed),
                1,
                "iteration {i} at or below the quit must run exactly once"
            );
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
    }

    #[test]
    fn worksteal_contains_body_panic() {
        assert_panic_contained(|p, u, b| doall_worksteal(p, u, 8, b));
    }

    #[test]
    fn worksteal_empty_range_runs_nothing() {
        let pool = Pool::new(4);
        let out = doall_worksteal(&pool, 0, 16, |_, _| Step::Quit);
        assert_eq!(out.executed, 0);
        assert_eq!(out.quit, None);
        assert_eq!(out.max_started, 0);
    }

    #[test]
    fn deadline_overrun_surfaces_timeout_with_the_overdue_iteration() {
        use crate::pool::Deadline;
        let pool = Pool::new(4).with_deadline(Deadline::from_millis(25));
        let out = doall_dynamic(&pool, 1_000_000, |i, _| {
            if i == 5 {
                // A stall that never polls anything loop-visible: the
                // watchdog must cancel issue and blame this iteration.
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            Step::Continue
        });
        let to = out.timeout.expect("watchdog verdict must be surfaced");
        assert_eq!(to.iter, Some(5), "overdue lane's loop counter patched in");
        assert!(to.elapsed >= std::time::Duration::from_millis(25));
        assert_eq!(out.panic, None);
        assert!(
            out.executed < 1_000_000,
            "cancellation must stop issue well before the range is exhausted"
        );
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
        let ran = AtomicU64::new(0);
        let out = doall_dynamic(&pool, 1_000_000, |i, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 10 {
                panic!("stop the presses");
            }
            Step::Continue
        });
        assert!(out.panic.is_some());
        assert!(
            ran.load(Ordering::Relaxed) < 1_000_000,
            "cancellation must stop issue well before the range is exhausted"
        );
    }
}
