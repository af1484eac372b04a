//! Speculative parallel execution with run-time dependence testing
//! (Section 5).
//!
//! When the access pattern of a shared array cannot be analyzed statically,
//! the WHILE loop is *speculatively* executed as a DOALL; every access is
//! routed through a [`SpeculativeArray`], which checkpoints the data
//! (Section 4), time-stamps writes, and marks the PD-test shadow arrays.
//! After the loop:
//!
//! 1. exceptions (panics) during the parallel run ⇒ restore and re-execute
//!    sequentially — the paper's "treat them like an invalid parallel
//!    execution";
//! 2. the PD analysis (with marks of overshot iterations ignored via their
//!    time-stamps) decides whether cross-iteration dependences occurred:
//!    failure ⇒ restore and re-execute sequentially;
//! 3. success ⇒ undo the writes of overshot iterations and keep the
//!    parallel result.
//!
//! That recipe is one private engine, `speculate`: every entry point
//! below hands it a *store* (what the region runs against — one
//! [`SpeculativeArray`], or a group of arrays each in its own mode) and
//! the [`IssueOrder`] its DOALL claims iterations in.

use crate::recover::ParallelAttempt;
use crate::undo::VersionedArray;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use wlp_obs::{AbortReason, Event, NoopRecorder, Recorder};
use wlp_pd::{IterMarker, PdVerdict, Shadow};
use wlp_runtime::{doall_with, ChunkPolicy, DoallOptions, IssueOrder, Pool, Step};

/// An undo-log budget for one speculative attempt over a single array
/// ([`SpeculativeArray::with_budget`]; a group carries none): a cap on
/// the number of stamped (restorable) writes. Exceeding it aborts the
/// speculation with [`AbortReason::Budget`] — the bounded-resources
/// answer to a runaway writer that would otherwise grow the undo log
/// without limit (the memory-budget concern of Section 8.2).
#[derive(Debug)]
struct SpecBudget {
    limit: u64,
    stamped: AtomicU64,
}

impl SpecBudget {
    fn new(limit: u64) -> Self {
        SpecBudget {
            limit,
            stamped: AtomicU64::new(0),
        }
    }

    #[inline]
    fn exceeded(&self) -> bool {
        self.stamped.load(Ordering::Relaxed) > self.limit
    }
}

/// A shared array under speculation: checkpointed data, write stamps and
/// PD shadow marks, all maintained per access.
#[derive(Debug)]
pub struct SpeculativeArray<T: Copy> {
    versioned: VersionedArray<T>,
    shadow: Shadow,
    budget: Option<SpecBudget>,
}

impl<T: Copy + Send + Sync> SpeculativeArray<T> {
    /// Checkpoints `init` and sets up unmarked shadows.
    pub fn new(init: Vec<T>) -> Self {
        let shadow = Shadow::new(init.len());
        SpeculativeArray {
            versioned: VersionedArray::new(init),
            shadow,
            budget: None,
        }
    }

    /// Caps the stamped (restorable) writes any one speculative attempt
    /// may make on this array. When the cap is exceeded the attempt
    /// aborts with [`AbortReason::Budget`] and falls back to sequential
    /// execution instead of growing speculation state without bound.
    pub fn with_budget(mut self, writes: u64) -> Self {
        self.budget = Some(SpecBudget::new(writes));
        self
    }

    /// Whether the undo-log budget (if any) has been exceeded.
    #[inline]
    pub fn budget_exceeded(&self) -> bool {
        self.budget.as_ref().is_some_and(|b| b.exceeded())
    }

    /// Stamped writes charged against the budget so far (0 without one).
    pub fn stamped_writes(&self) -> u64 {
        self.budget
            .as_ref()
            .map_or(0, |b| b.stamped.load(Ordering::Relaxed))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.versioned.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.versioned.is_empty()
    }

    /// Copies the live values out.
    pub fn snapshot(&self) -> Vec<T> {
        self.versioned.snapshot()
    }

    /// Accepts the current values and clears speculation state (including
    /// the budget's charge counter), readying the array for another loop.
    pub fn commit(&mut self) {
        self.versioned.commit();
        self.shadow.reset();
        if let Some(b) = &self.budget {
            b.stamped.store(0, Ordering::Relaxed);
        }
    }
}

/// What every access handle shares: the iteration it is aimed at, whether
/// it is speculating at all, and the stamped writes not yet charged to its
/// array's undo-log budget — flushed to the shared counter in one RMW when
/// the handle is re-aimed, and when it drops, so the counter is touched at
/// most once per *iteration*, not once per *write*. The budget trip is
/// checked at iteration claim time, so nothing finer than an iteration is
/// ever observed.
#[derive(Debug)]
struct AccessCore<'a> {
    budget: Option<&'a SpecBudget>,
    iter: usize,
    /// `false` during sequential (re-)execution: writes go straight to the
    /// live data, unstamped and unmarked.
    speculating: bool,
    /// Always 0 without a budget.
    pending_charges: u64,
}

impl<'a> AccessCore<'a> {
    fn new(budget: Option<&'a SpecBudget>, speculating: bool) -> Self {
        AccessCore {
            budget,
            iter: 0,
            speculating,
            pending_charges: 0,
        }
    }

    /// Re-aims the handle at iteration `i`, charging the budget what the
    /// previous iteration stamped.
    #[inline]
    fn begin(&mut self, i: usize) {
        self.iter = i;
        self.flush();
    }

    fn flush(&mut self) {
        if let Some(b) = self.budget.filter(|_| self.pending_charges > 0) {
            b.stamped.fetch_add(self.pending_charges, Ordering::Relaxed);
            self.pending_charges = 0;
        }
    }

    /// Marks a speculative write of element `e` for the PD test and counts
    /// it against the budget; an unshadowed array (no marker) pays neither.
    #[inline]
    fn mark_write(&mut self, marker: &mut Option<IterMarker<'_>>, e: usize) {
        if let Some(m) = marker {
            m.mark_write(e);
            self.pending_charges += u64::from(self.budget.is_some());
        }
    }

    /// Writes `v` to element `e` of `data`: marked, charged and stamped
    /// with this iteration while speculating, straight through otherwise.
    #[inline]
    fn write<T: Copy>(
        &mut self,
        data: &VersionedArray<T>,
        marker: &mut Option<IterMarker<'_>>,
        e: usize,
        v: T,
    ) {
        if !self.speculating {
            return data.write_direct(e, v);
        }
        self.mark_write(marker, e);
        data.write(e, v, self.iter);
    }
}

impl Drop for AccessCore<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Reads element `e` of `data`, marking the read when `marker` is there.
#[inline]
fn read_marked<T: Copy>(
    data: &VersionedArray<T>,
    marker: &mut Option<IterMarker<'_>>,
    e: usize,
) -> T {
    if let Some(m) = marker {
        m.mark_read(e);
    }
    data.read(e)
}

/// A worker's view of a [`SpeculativeArray`], re-aimed at each iteration
/// it executes: reads and writes are recorded when speculating, and pass
/// through untouched during sequential re-execution.
#[derive(Debug)]
pub struct SpecAccess<'a, T: Copy> {
    data: &'a VersionedArray<T>,
    marker: Option<IterMarker<'a>>,
    core: AccessCore<'a>,
}

impl<T: Copy + Send + Sync> SpecAccess<'_, T> {
    /// Reads element `e`.
    pub fn read(&mut self, e: usize) -> T {
        read_marked(self.data, &mut self.marker, e)
    }

    /// Writes `v` to element `e`.
    pub fn write(&mut self, e: usize, v: T) {
        self.core.write(self.data, &mut self.marker, e, v);
    }

    /// The iteration this handle is aimed at.
    pub fn iteration(&self) -> usize {
        self.core.iter
    }
}

/// What a speculative execution did.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// PD verdict of the parallel attempt (`None` if an exception aborted
    /// it before analysis).
    pub verdict: Option<PdVerdict>,
    /// The parallel result was kept.
    pub committed_parallel: bool,
    /// The loop was re-executed sequentially (failed test or exception).
    pub reexecuted_sequentially: bool,
    /// A body panicked during the parallel attempt.
    pub exception: bool,
    /// *Why* the parallel attempt was thrown away, when it was:
    /// a cross-iteration dependence, a contained panic, a region
    /// deadline expiry, or an exhausted undo-log budget. `None` when the
    /// parallel result was kept.
    pub abort: Option<AbortReason>,
    /// The last valid iteration (the first satisfying the terminator).
    pub last_valid: Option<usize>,
    /// Bodies executed during the parallel attempt.
    pub executed_parallel: u64,
    /// Elements restored while undoing overshot iterations.
    pub undone: usize,
}

/// What the engine needs from the data a speculative region runs against:
/// the handle iterations reach it through, and what [`settle`] ends the
/// region with. A store is a cheap value over borrowed data, so the
/// handles it gives out outlive it.
trait SpecStore: Sync {
    /// A worker's access handle.
    type Access;
    /// A worker's handle: marking and stamping when `speculating`, plain
    /// pass-through for sequential (re-)execution.
    fn access(&self, speculating: bool) -> Self::Access;
    /// Re-aims `acc` at iteration `i`.
    fn begin(acc: &mut Self::Access, i: usize);
    /// Elements checkpointed for the attempt.
    fn checkpointed(&self) -> usize;
    /// The undo-log budget tripped during the region (never, for a store
    /// without one).
    fn budget_exceeded(&self) -> bool {
        false
    }
    /// The PD test over the marks of iterations up to `attempt.quit`.
    fn analyze<R: Recorder>(&self, pool: &Pool, attempt: &ParallelAttempt, rec: &R) -> PdVerdict;
    /// Invalid attempt: every written element goes back to its checkpoint.
    /// Returns the element volume the restore is charged.
    fn restore_all(&self) -> usize;
    /// Valid attempt: the writes of iterations past `last_valid` are
    /// undone. Returns the elements restored.
    fn keep(self, last_valid: Option<usize>) -> usize;
}

impl<'a, T: Copy + Send + Sync> SpecStore for &'a SpeculativeArray<T> {
    type Access = SpecAccess<'a, T>;
    fn access(&self, speculating: bool) -> SpecAccess<'a, T> {
        SpecAccess {
            data: &self.versioned,
            marker: speculating.then(|| self.shadow.iteration(0)),
            core: AccessCore::new(self.budget.as_ref(), speculating),
        }
    }
    fn begin(acc: &mut SpecAccess<'a, T>, i: usize) {
        if let Some(m) = &mut acc.marker {
            m.restart(i);
        }
        acc.core.begin(i);
    }
    fn checkpointed(&self) -> usize {
        self.len()
    }
    fn budget_exceeded(&self) -> bool {
        SpeculativeArray::budget_exceeded(self)
    }
    fn analyze<R: Recorder>(&self, pool: &Pool, attempt: &ParallelAttempt, rec: &R) -> PdVerdict {
        self.shadow.analyze_rec(pool, attempt.quit, 16, rec)
    }
    fn restore_all(&self) -> usize {
        self.versioned.restore_all();
        self.len()
    }
    fn keep(self, last_valid: Option<usize>) -> usize {
        last_valid.map_or(0, |li| self.versioned.undo_past(li))
    }
}

/// A worker's private count, added to the shared total when the worker
/// leaves the region.
struct Tally<'a> {
    local: u64,
    total: &'a AtomicU64,
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.total.fetch_add(self.local, Ordering::Relaxed);
    }
}

/// The one speculative engine (Section 5): run the loop as a DOALL in
/// `order` against `store` while it marks, then [`settle`]. A worker's
/// handle, scratch and tally are built once per region and live on its
/// own stack.
///
/// `iteration(i, scratch, access)` is the whole loop body, terminator
/// first, as [`speculative_while_group`] documents it. `init(lane)` builds
/// a worker's scratch — `Some(vpn)` on a speculative worker, `None` for
/// the sequential re-execution on the calling thread, which runs the same
/// `iteration` over the store's direct handle.
///
/// `rec` is told the checkpoint volume (`Backup`), the PD analysis, every
/// restore and the final verdict. The launch itself runs unobserved: a
/// caller that wants per-iteration events records them in `iteration` (a
/// terminator hit is a `TermTest`, not an executed body). Returns the
/// outcome and the error the sequential re-execution met, if any.
fn speculate<S, W, E, R>(
    pool: &Pool,
    upper: usize,
    order: IssueOrder,
    store: S,
    rec: &R,
    init: impl Fn(Option<usize>) -> W + Sync,
    iteration: impl Fn(usize, &mut W, &mut S::Access) -> Result<Step, E> + Sync,
) -> (SpecOutcome, Option<GroupFault<E>>)
where
    S: SpecStore,
    R: Recorder,
{
    if R::ENABLED {
        // the checkpoint copy happened when the data was wrapped; its
        // volume is charged as the attempt starts — the backup side of `Tb`
        let elems = store.checkpointed() as u64;
        rec.record(0, Event::Backup { elems, cost: 0 });
    }
    let failed = AtomicBool::new(false);
    let executed = AtomicU64::new(0);
    let worker = |vpn: usize| {
        let bodies = Tally {
            local: 0,
            total: &executed,
        };
        (store.access(true), init(Some(vpn)), bodies)
    };
    let step = |i: usize, (acc, scratch, bodies): &mut (S::Access, W, Tally<'_>)| {
        // re-aiming first charges what the previous iteration stamped
        S::begin(acc, i);
        if store.budget_exceeded() {
            // Stop issuing; `settle` rolls everything back. Not a
            // terminator hit, so `iteration` (and its events) never runs.
            return Step::Quit;
        }
        match iteration(i, scratch, acc) {
            Ok(Step::Continue) => {
                bodies.local += 1;
                Step::Continue
            }
            Ok(Step::Quit) => Step::Quit,
            Err(_) => {
                failed.store(true, Ordering::Release);
                Step::Quit
            }
        }
    };
    let opts = DoallOptions {
        order,
        rec: &NoopRecorder,
    };
    let out = doall_with(pool, upper, opts, worker, step);
    // the runtime-level catch is the backstop: a panic that escapes
    // `iteration` still arrives here, in `out.panic`
    let abort = if failed.into_inner() {
        Some(AbortReason::Exception)
    } else {
        store.budget_exceeded().then_some(AbortReason::Budget)
    };
    let attempt = ParallelAttempt {
        panic: out.panic,
        timeout: out.timeout,
        abort,
        executed: executed.into_inner(),
        quit: out.quit,
    };
    let mut fault = None;
    let outcome = settle(pool, store, attempt, rec, |store| {
        let rerun = run_sequential(upper, store, init(None), &iteration);
        rerun.unwrap_or_else(|met| {
            fault = Some(met);
            None
        })
    });
    (outcome, fault)
}

/// The one sequential (re-)execution: the loop in iteration order on the
/// calling thread, over the store's direct handle. Returns the exit it
/// found, or the error `iteration` reported.
fn run_sequential<S: SpecStore, W, E>(
    upper: usize,
    store: &S,
    mut scratch: W,
    iteration: impl Fn(usize, &mut W, &mut S::Access) -> Result<Step, E>,
) -> Result<Option<usize>, GroupFault<E>> {
    let mut acc = store.access(false);
    for i in 0..upper {
        S::begin(&mut acc, i);
        match iteration(i, &mut scratch, &mut acc) {
            Ok(Step::Continue) => {}
            Ok(Step::Quit) => return Ok(Some(i)),
            Err(error) => return Err(GroupFault { iter: i, error }),
        }
    }
    Ok(None)
}

/// The one tail every speculative driver ends in (Section 5): classify the
/// drained region, and either throw the parallel attempt away — restore,
/// re-execute sequentially through `rerun`, which returns the exit it
/// found — or keep it, minus the overshoot. Only an attempt that
/// [`ParallelAttempt::classify`] finds no fault with is PD-tested.
fn settle<S: SpecStore, R: Recorder>(
    pool: &Pool,
    store: S,
    attempt: ParallelAttempt,
    rec: &R,
    rerun: impl FnOnce(&S) -> Option<usize>,
) -> SpecOutcome {
    let early_abort = attempt.classify(rec);
    let verdict = early_abort
        .is_none()
        .then(|| store.analyze(pool, &attempt, rec));
    let exception = attempt.panic.is_some() || attempt.abort == Some(AbortReason::Exception);
    let (executed, last_valid) = (attempt.executed, attempt.quit);

    let valid = verdict.as_ref().is_some_and(|v| v.doall);
    let (abort, last_valid, undone) = if valid {
        // undo only the overshot iterations
        let u0 = R::ENABLED.then(Instant::now);
        let undone = store.keep(last_valid);
        if R::ENABLED {
            if undone > 0 {
                let cost = u0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                let elems = undone as u64;
                rec.record(0, Event::UndoRestore { elems, cost });
            }
            // every iteration below the exit executed a body, so the kept
            // share is exactly `last_valid` (or everything, with no exit)
            let committed = last_valid.map_or(executed, |li| (li as u64).min(executed));
            let undone = executed - committed;
            rec.record(0, Event::SpecCommit { committed, undone });
        }
        (None, last_valid, undone)
    } else {
        // cross-iteration dependences, or no verdict at all: the parallel
        // result is invalid
        let reason = early_abort.unwrap_or(AbortReason::Dependence);
        attempt.discard(rec, 0, reason, || store.restore_all());
        (Some(reason), rerun(&store), 0)
    };
    SpecOutcome {
        verdict,
        committed_parallel: valid,
        reexecuted_sequentially: !valid,
        exception,
        abort,
        last_valid,
        executed_parallel: executed,
        undone,
    }
}

/// The single-array loop — terminator first, then the body — as one
/// engine iteration. On a speculative worker (`lane` is its vpn) the pair
/// runs with its events under its own `catch_unwind`: an exception stops
/// issue like a QUIT and voids the attempt. On the calling thread's
/// sequential pass (`lane` is `None`) it runs bare: a panic there is a
/// *real* exception and propagates.
fn single_iteration<A, R: Recorder>(
    rec: &R,
    term: &impl Fn(usize, &mut A) -> bool,
    body: &impl Fn(usize, &mut A),
    i: usize,
    lane: Option<usize>,
    acc: &mut A,
) -> Result<Step, ()> {
    let pair = |acc: &mut A| {
        if term(i, acc) {
            Step::Quit
        } else {
            body(i, acc);
            Step::Continue
        }
    };
    let Some(vpn) = lane else {
        return Ok(pair(acc));
    };
    let iter = i as u64;
    if R::ENABLED {
        rec.record(vpn, Event::IterClaimed { iter, cost: 0 });
    }
    let t0 = R::ENABLED.then(Instant::now);
    let Ok(step) = catch_unwind(AssertUnwindSafe(|| pair(acc))) else {
        if R::ENABLED {
            rec.record(vpn, Event::Quit { iter });
        }
        return Err(());
    };
    if R::ENABLED {
        let cost = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        match step {
            Step::Quit => {
                rec.record(vpn, Event::TermTest { iter, cost });
                rec.record(vpn, Event::Quit { iter });
            }
            Step::Continue => rec.record(vpn, Event::IterExecuted { iter, cost }),
        }
    }
    Ok(step)
}

/// Speculatively executes `while !term(i, A) { body(i, A) }` as a DOALL
/// over `0..upper`, testing at run time that the iterations were
/// independent. On test failure or exception, the array is restored and
/// the loop re-executed sequentially — the paper's complete recipe.
///
/// A panic during sequential (re-)execution is a *real* exception and
/// propagates.
///
/// ```
/// use wlp_core::speculate::{speculative_while, SpeculativeArray};
/// use wlp_runtime::Pool;
///
/// // A[idx[i]] *= 2 through a run-time subscript array: unanalyzable
/// // statically, provably independent at run time (idx is a permutation)
/// let idx = [3usize, 1, 4, 0, 2];
/// let arr = SpeculativeArray::new(vec![1i64; 5]);
/// let out = speculative_while(&Pool::new(2), 5, &arr,
///     |_i, _a| false,
///     |i, a| { let v = a.read(idx[i]); a.write(idx[i], v * 2); });
/// assert!(out.committed_parallel);
/// assert_eq!(arr.snapshot(), vec![2; 5]);
/// ```
pub fn speculative_while<T, TF, BF>(
    pool: &Pool,
    upper: usize,
    arr: &SpeculativeArray<T>,
    term: TF,
    body: BF,
) -> SpecOutcome
where
    T: Copy + Send + Sync,
    TF: Fn(usize, &mut SpecAccess<'_, T>) -> bool + Sync,
    BF: Fn(usize, &mut SpecAccess<'_, T>) + Sync,
{
    speculative_while_with(pool, upper, arr, DoallOptions::default(), term, body)
}

/// [`speculative_while`] under explicit [`DoallOptions`].
///
/// `opts.order` is how the underlying DOALL issues iterations: a
/// [`ChunkPolicy`] claims chunks of iterations instead of one at a time,
/// trading shared-counter traffic for a wider in-flight span. Under an RV
/// terminator the extra span means more overshoot to undo on commit — the
/// chunk size is the knob the paper's `T_a` analysis prices.
///
/// `opts.rec` is told the checkpoint volume (`Backup`), each claim,
/// terminator-only evaluation, executed body and QUIT, the PD analysis
/// (`PdAnalyze`, via [`Shadow::analyze_rec`]), every restore
/// (`UndoRestore`) and the final `SpecCommit`/`SpecAbort` verdict.
/// Sequential re-execution after an abort is *not* recorded as busy time:
/// it happens on the calling thread and shows up as idle in the profile,
/// exactly like the paper's serial fallback. With [`NoopRecorder`] —
/// which is what [`speculative_while`] passes — every probe compiles away.
pub fn speculative_while_with<T, TF, BF, R>(
    pool: &Pool,
    upper: usize,
    arr: &SpeculativeArray<T>,
    opts: DoallOptions<'_, R>,
    term: TF,
    body: BF,
) -> SpecOutcome
where
    T: Copy + Send + Sync,
    TF: Fn(usize, &mut SpecAccess<'_, T>) -> bool + Sync,
    BF: Fn(usize, &mut SpecAccess<'_, T>) + Sync,
    R: Recorder,
{
    let DoallOptions { order, rec } = opts;
    let iteration = |i: usize, lane: &mut Option<usize>, acc: &mut SpecAccess<'_, T>| {
        single_iteration(rec, &term, &body, i, *lane, acc)
    };
    speculate(pool, upper, order, arr, rec, |lane| lane, iteration).0
}

/// How one array takes part in a speculative group: exactly the machinery
/// the static analysis left necessary for it, and no more. The PD test "is
/// applied to each shared variable referenced during the loop whose
/// accesses cannot be analyzed at compile-time" (Section 5) — the other
/// arrays of the same loop pay nothing for it.
#[derive(Debug)]
pub enum GroupArray<'a, T: Copy> {
    /// Never written by the loop: the caller's slice is shared as is — no
    /// copy, no checkpoint, no shadow.
    ReadOnly(&'a [T]),
    /// Written, but every access is statically certified independent:
    /// checkpointed so a failed speculation can roll it back, time-stamped
    /// only when built with [`VersionedArray::new`] (a loop that can
    /// overshoot, Section 4), never PD-marked.
    Certified(VersionedArray<T>),
    /// Accesses the analysis could not certify: checkpoint, stamps and the
    /// full PD test.
    Shadowed(SpeculativeArray<T>),
}

impl<T: Copy + Send + Sync> GroupArray<'_, T> {
    /// The checkpointed store of a written array.
    fn versioned(&self) -> Option<&VersionedArray<T>> {
        match self {
            GroupArray::ReadOnly(_) => None,
            GroupArray::Certified(v) => Some(v),
            GroupArray::Shadowed(s) => Some(&s.versioned),
        }
    }

    /// Consumes a written array, keeping its live values (`None` for a
    /// read-only one: its owner never gave the data up).
    pub fn into_live(self) -> Option<Vec<T>> {
        match self {
            GroupArray::ReadOnly(_) => None,
            GroupArray::Certified(v) => Some(v.into_live()),
            GroupArray::Shadowed(s) => Some(s.versioned.into_live()),
        }
    }
}

/// Iterations one claim on the shared counter grants a group worker.
/// Consecutive iterations touch neighbouring elements of every affinely
/// subscripted array (data, stamps and shadow marks alike), so handing
/// them out one at a time makes two workers write the same cache lines in
/// turn; a run of this many keeps a worker on lines of its own, and cuts
/// the claim traffic by the same factor. The price is span: an exit can
/// be overshot by up to this many iterations per worker (undone from the
/// stamps, Section 4).
const GROUP_CHUNK: usize = 32;

/// A worker's view of the arrays of a speculative group, re-aimed at each
/// iteration it executes. Accesses are bounds-checked here (`None` = out
/// of range, nothing recorded), so a body interpreting untrusted
/// subscripts needs no second check.
#[derive(Debug)]
pub struct GroupAccess<'g, T: Copy> {
    arrays: &'g [GroupArray<'g, T>],
    /// One slot per array: `Some` for a shadowed array while speculating.
    markers: Vec<Option<IterMarker<'g>>>,
    core: AccessCore<'g>,
}

impl<T: Copy + Send + Sync> GroupAccess<'_, T> {
    /// Reads element `e` of array `a`.
    #[inline]
    pub fn read(&mut self, a: usize, e: usize) -> Option<T> {
        match &self.arrays[a] {
            GroupArray::ReadOnly(s) => s.get(e).copied(),
            GroupArray::Certified(v) => (e < v.len()).then(|| v.read(e)),
            GroupArray::Shadowed(s) => {
                (e < s.len()).then(|| read_marked(&s.versioned, &mut self.markers[a], e))
            }
        }
    }

    /// Writes `v` to element `e` of array `a`.
    ///
    /// # Panics
    /// Panics if `a` is [`GroupArray::ReadOnly`]: the caller declared that
    /// the loop never writes it.
    #[inline]
    pub fn write(&mut self, a: usize, e: usize, v: T) -> Option<()> {
        let data = self.arrays[a]
            .versioned()
            .expect("write to an array declared read-only");
        if e >= data.len() {
            return None;
        }
        self.core.write(data, &mut self.markers[a], e, v);
        Some(())
    }

    /// The iteration this handle is aimed at.
    pub fn iteration(&self) -> usize {
        self.core.iter
    }
}

/// A body failure that survived sequential re-execution of a speculative
/// group: a genuine error of the loop, at the iteration the sequential
/// loop meets it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupFault<E> {
    /// The failing iteration (every earlier one completed).
    pub iter: usize,
    /// What the body reported.
    pub error: E,
}

/// Speculative execution over a *group* of arrays, each in the mode its
/// [`GroupArray`] variant names: shadowed arrays are PD-tested
/// independently and the parallel result is kept only when all of them
/// validate; certified arrays ride along checkpointed; read-only arrays
/// are shared untouched.
///
/// `iteration(i, scratch, arrays)` is the whole loop body, terminator
/// first: `Ok(Step::Quit)` means the loop exits *before* iteration `i`
/// does any work, `Ok(Step::Continue)` that the body ran. `scratch` is
/// per-worker state built by `init` once per worker per region (and once
/// more for a sequential re-execution), so neither this driver nor the
/// body allocates per iteration. A group carries no undo-log budget: the
/// plans run on it store to each array at most once per iteration
/// (straight-line code) and no attempt runs past `upper`, so their
/// stamped writes are bounded by the plan code itself. A caller that
/// needs a cap runs one array through [`speculative_while_with`] under
/// [`SpeculativeArray::with_budget`].
///
/// An `Err` from a speculative iteration is treated like the paper treats
/// an exception: the attempt is invalid (the iteration may have overshot,
/// or read a doomed value), everything is restored and the loop
/// re-executed sequentially. Only an error the sequential loop meets too
/// is returned, as a [`GroupFault`]; the arrays then hold what the
/// sequential loop had written when it failed.
pub fn speculative_while_group<T, S, E, I, F>(
    pool: &Pool,
    upper: usize,
    arrays: &[GroupArray<'_, T>],
    init: I,
    iteration: F,
) -> Result<SpecOutcome, GroupFault<E>>
where
    T: Copy + Send + Sync,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S, &mut GroupAccess<'_, T>) -> Result<Step, E> + Sync,
{
    let store = GroupStore { arrays };
    let order = IssueOrder::Dynamic(ChunkPolicy::Fixed(GROUP_CHUNK));
    let rec = &NoopRecorder;
    let (outcome, fault) = speculate(pool, upper, order, store, rec, |_| init(), iteration);
    fault.map_or(Ok(outcome), Err)
}

/// A speculative group as the engine sees it.
struct GroupStore<'g, T: Copy> {
    arrays: &'g [GroupArray<'g, T>],
}

impl<T: Copy + Send + Sync> GroupStore<'_, T> {
    fn written(&self) -> impl Iterator<Item = &VersionedArray<T>> {
        self.arrays.iter().filter_map(GroupArray::versioned)
    }
}

impl<'g, T: Copy + Send + Sync> SpecStore for GroupStore<'g, T> {
    type Access = GroupAccess<'g, T>;
    fn access(&self, speculating: bool) -> GroupAccess<'g, T> {
        let markers = self.arrays.iter().map(|a| match a {
            GroupArray::Shadowed(s) if speculating => Some(s.shadow.iteration(0)),
            _ => None,
        });
        GroupAccess {
            arrays: self.arrays,
            markers: markers.collect(),
            core: AccessCore::new(None, speculating),
        }
    }
    fn begin(acc: &mut GroupAccess<'g, T>, i: usize) {
        for m in acc.markers.iter_mut().flatten() {
            m.restart(i);
        }
        acc.core.begin(i);
    }
    fn checkpointed(&self) -> usize {
        self.written().map(VersionedArray::len).sum()
    }
    /// Every shadowed array must pass; the verdicts are merged.
    fn analyze<R: Recorder>(&self, pool: &Pool, attempt: &ParallelAttempt, rec: &R) -> PdVerdict {
        // An unstamped array cannot undo selectively: its loop was declared
        // unable to overshoot, and if the region overshot its exit anyway
        // the attempt is void.
        let overshot = attempt.quit.is_some_and(|li| attempt.executed > li as u64);
        let void = overshot && self.written().any(|v| !v.is_stamped());
        let mut merged = PdVerdict {
            doall: !void,
            privatized_doall: !void,
            conflicts: Vec::new(),
        };
        if void {
            return merged;
        }
        for a in self.arrays {
            if let GroupArray::Shadowed(s) = a {
                let v = s.analyze(pool, attempt, rec);
                merged.doall &= v.doall;
                merged.privatized_doall &= v.privatized_doall;
                merged.conflicts.extend(v.conflicts);
            }
        }
        merged
    }
    fn restore_all(&self) -> usize {
        self.written().map(VersionedArray::restore_all).sum()
    }
    fn keep(self, last_valid: Option<usize>) -> usize {
        last_valid.map_or(0, |li| self.written().map(|v| v.undo_past(li)).sum())
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by iteration number is the semantics under test
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::new(4)
    }

    /// A speculating handle aimed at iteration `i`.
    fn access<T: Copy + Send + Sync>(arr: &SpeculativeArray<T>, i: usize) -> SpecAccess<'_, T> {
        let mut acc = SpecStore::access(&arr, true);
        <&SpeculativeArray<T>>::begin(&mut acc, i);
        acc
    }

    fn chunked(policy: ChunkPolicy) -> DoallOptions<'static> {
        DoallOptions {
            order: IssueOrder::Dynamic(policy),
            ..DoallOptions::default()
        }
    }

    #[test]
    fn independent_loop_commits_parallel() {
        // A[i] = 2·A[i] with an exit — Figure 5(a) with a conditional exit
        let arr = SpeculativeArray::new((0..100i64).collect());
        let out = speculative_while(
            &pool(),
            1000,
            &arr,
            |i, _| i >= 100,
            |i, a| {
                let v = a.read(i);
                a.write(i, 2 * v);
            },
        );
        assert!(out.committed_parallel);
        assert!(!out.reexecuted_sequentially);
        assert_eq!(out.last_valid, Some(100));
        assert_eq!(
            arr.snapshot(),
            (0..100).map(|x| 2 * x).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn flow_dependence_falls_back_to_sequential() {
        // A[i] = A[i] + A[i-1] — Figure 5(c), a true recurrence
        let n = 64usize;
        let arr = SpeculativeArray::new(vec![1i64; n]);
        let out = speculative_while(
            &pool(),
            n,
            &arr,
            |i, _| i >= n - 1,
            |i, a| {
                let prev = a.read(i); // reads own slot …
                let left = a.read(i + 1); // … and the next (cross-iteration)
                a.write(i + 1, prev + left);
            },
        );
        assert!(!out.committed_parallel);
        assert!(out.reexecuted_sequentially);
        assert!(
            !out.verdict.unwrap().doall,
            "PD test must reject the recurrence"
        );
        // sequential semantics: A[i] = 1 + i (prefix sums of ones)
        let snap = arr.snapshot();
        for (i, v) in snap.iter().enumerate().take(n - 1) {
            assert_eq!(*v, 1 + i as i64, "element {i}");
        }
    }

    #[test]
    fn overshot_writes_are_undone() {
        // RV-style exit discovered at iteration 50; overshot iterations
        // write to disjoint cells and must be rolled back
        let arr = SpeculativeArray::new(vec![0i64; 1000]);
        let out = speculative_while(&pool(), 1000, &arr, |i, _| i == 50, |i, a| a.write(i, 1));
        assert!(out.committed_parallel);
        assert_eq!(out.last_valid, Some(50));
        let snap = arr.snapshot();
        for i in 0..50 {
            assert_eq!(snap[i], 1, "valid iteration {i}");
        }
        for i in 51..1000 {
            assert_eq!(snap[i], 0, "overshot iteration {i} must be undone");
        }
    }

    #[test]
    fn exception_triggers_sequential_reexecution() {
        let panic_in_parallel = AtomicBool::new(true);
        let arr = SpeculativeArray::new(vec![0i64; 64]);
        let out = speculative_while(
            &pool(),
            64,
            &arr,
            |_, _| false,
            |i, a| {
                if i == 31 && panic_in_parallel.swap(false, Ordering::SeqCst) {
                    panic!("injected fault");
                }
                a.write(i, i as i64);
            },
        );
        assert!(out.exception);
        assert!(out.reexecuted_sequentially);
        let snap = arr.snapshot();
        for (i, v) in snap.iter().enumerate() {
            assert_eq!(*v, i as i64, "sequential re-execution must be complete");
        }
    }

    /// Snapshot of a written group array's live values.
    fn live(a: &GroupArray<'_, i64>) -> Vec<i64> {
        a.versioned().expect("written array").snapshot()
    }

    type Infallible = std::convert::Infallible;

    #[test]
    fn group_speculation_validates_independent_arrays() {
        // two arrays: a data array and a count array, disjoint per iteration
        let arrays = [
            GroupArray::Shadowed(SpeculativeArray::new(vec![0i64; 100])),
            GroupArray::Shadowed(SpeculativeArray::new(vec![10i64; 100])),
        ];
        let out = speculative_while_group(
            &pool(),
            100,
            &arrays,
            || (),
            |i, _, g| {
                let v = g.read(1, i).unwrap();
                g.write(0, i, v + i as i64).unwrap();
                g.write(1, i, v + 1).unwrap();
                Ok::<_, Infallible>(Step::Continue)
            },
        )
        .unwrap();
        assert!(out.committed_parallel, "{:?}", out.verdict);
        assert_eq!(live(&arrays[0])[7], 17);
        assert_eq!(live(&arrays[1])[7], 11);
    }

    #[test]
    fn group_failure_restores_every_mode_before_rerunning() {
        // array 0 is certified and stamped, array 1 certified and
        // unstamped, array 2 a shared accumulator that fails the PD
        // test, array 3 read-only: after the failed attempt all written
        // arrays must be back at their checkpoint, or the accumulating
        // bodies below would double-count
        let weights: Vec<i64> = (0..50).collect();
        let arrays = [
            GroupArray::Certified(VersionedArray::new(vec![0i64; 50])),
            GroupArray::Certified(VersionedArray::new_unstamped(vec![0i64; 50])),
            GroupArray::Shadowed(SpeculativeArray::new(vec![0i64; 1])),
            GroupArray::ReadOnly(&weights),
        ];
        let out = speculative_while_group(
            &pool(),
            50,
            &arrays,
            || (),
            |i, _, g| {
                let w = g.read(3, i).unwrap();
                let a = g.read(0, i).unwrap();
                g.write(0, i, a + w).unwrap();
                let b = g.read(1, i).unwrap();
                g.write(1, i, b + 1).unwrap();
                let acc = g.read(2, 0).unwrap();
                g.write(2, 0, acc + 1).unwrap();
                Ok::<_, Infallible>(Step::Continue)
            },
        )
        .unwrap();
        assert!(!out.committed_parallel);
        assert!(out.reexecuted_sequentially);
        assert_eq!(out.abort, Some(AbortReason::Dependence));
        // sequential semantics hold for every array
        assert_eq!(live(&arrays[0]), weights);
        assert!(live(&arrays[1]).iter().all(|&v| v == 1));
        assert_eq!(live(&arrays[2])[0], 50);
        assert_eq!(weights, (0..50).collect::<Vec<i64>>());
    }

    #[test]
    fn group_speculation_undoes_overshoot_across_arrays() {
        let arrays = [
            GroupArray::Shadowed(SpeculativeArray::new(vec![0i64; 500])),
            GroupArray::Certified(VersionedArray::new(vec![0i64; 500])),
        ];
        let out = speculative_while_group(
            &pool(),
            500,
            &arrays,
            || (),
            |i, _, g| {
                if i == 60 {
                    return Ok::<_, Infallible>(Step::Quit);
                }
                g.write(0, i, 1).unwrap();
                g.write(1, i, 2).unwrap();
                Ok(Step::Continue)
            },
        )
        .unwrap();
        assert!(out.committed_parallel);
        assert_eq!(out.last_valid, Some(60));
        for arr in &arrays {
            let snap = live(arr);
            assert!(snap[..60].iter().all(|&v| v != 0));
            assert!(snap[60..].iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn group_overshoot_into_an_unstamped_array_voids_the_attempt() {
        // the exit is not a threshold (only one iteration sees it), so
        // iterations past it run their bodies before the QUIT is visible;
        // an unstamped array cannot undo them, so the driver must notice
        // and fall back rather than commit the overshoot
        let arrays = [GroupArray::Certified(VersionedArray::new_unstamped(vec![
            0i64;
            400
        ]))];
        // the exit and the overshooting body sit in different claims, so
        // two workers hold them at once; they meet once, during the
        // parallel attempt — the sequential re-execution passes through
        let (exit, late) = (GROUP_CHUNK + 8, 2 * GROUP_CHUNK);
        let gate = std::sync::Barrier::new(2);
        let (held, ran) = (AtomicBool::new(false), AtomicBool::new(false));
        let out = speculative_while_group(
            &Pool::new(2),
            400,
            &arrays,
            || (),
            |i, _, g| {
                if i == exit {
                    if !held.swap(true, Ordering::AcqRel) {
                        gate.wait(); // hold the QUIT until a later body ran
                    }
                    return Ok::<_, Infallible>(Step::Quit);
                }
                g.write(0, i, 1).unwrap();
                if i == late && !ran.swap(true, Ordering::AcqRel) {
                    gate.wait();
                }
                Ok(Step::Continue)
            },
        )
        .unwrap();
        assert_eq!(out.last_valid, Some(exit));
        let snap = live(&arrays[0]);
        assert!(snap[..exit].iter().all(|&v| v == 1));
        assert!(snap[exit..].iter().all(|&v| v == 0), "overshoot leaked");
        assert!(!out.committed_parallel);
    }

    #[test]
    fn group_errors_surface_only_when_the_sequential_loop_meets_them() {
        // iteration 30 exits; iterations past it fail. Sequentially the
        // failure is never reached, so a speculative overshoot that meets
        // it must not report it.
        let arrays = [GroupArray::Certified(VersionedArray::new(vec![0i64; 100]))];
        let body = |i: usize, _: &mut (), g: &mut GroupAccess<'_, i64>| {
            if i == 30 {
                return Ok(Step::Quit);
            }
            if i > 30 {
                return Err("past the exit");
            }
            g.write(0, i, 1).unwrap();
            Ok(Step::Continue)
        };
        let out = speculative_while_group(&pool(), 100, &arrays, || (), body).unwrap();
        assert_eq!(out.last_valid, Some(30));
        assert_eq!(live(&arrays[0]).iter().sum::<i64>(), 30);

        // a failure below the exit is real: reported with its iteration,
        // the arrays holding what the sequential loop wrote before it
        let arrays = [GroupArray::Certified(VersionedArray::new(vec![0i64; 100]))];
        let fault = speculative_while_group(
            &pool(),
            100,
            &arrays,
            || (),
            |i, _, g| {
                if i == 12 {
                    return Err("bad iteration");
                }
                g.write(0, i, 1).unwrap();
                Ok(Step::Continue)
            },
        )
        .unwrap_err();
        assert_eq!(
            fault,
            GroupFault {
                iter: 12,
                error: "bad iteration"
            }
        );
        assert_eq!(live(&arrays[0]).iter().sum::<i64>(), 12);
    }

    #[test]
    fn recorded_speculation_reports_commit_and_abort() {
        use wlp_obs::{BufferRecorder, ProfileReport};

        // committing run with overshoot past the exit at 50
        let arr = SpeculativeArray::new(vec![0i64; 500]);
        let rec = BufferRecorder::new(4);
        let out = speculative_while_with(
            &pool(),
            500,
            &arr,
            DoallOptions::recorded(&rec),
            |i, _| i == 50,
            |i, a| a.write(i, 1),
        );
        assert!(out.committed_parallel);
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.spec_commits, 1);
        assert_eq!(report.spec_aborts, 0);
        assert_eq!(report.committed, 50);
        assert_eq!(report.backup_elems, 500);
        assert_eq!(report.undo_elems, out.undone as u64);
        assert!(report.pd_analyzed > 0, "analysis volume recorded");
        assert_eq!(report.spec_success_rate(), Some(1.0));
        report.check_conservation().expect("laws hold");

        // dependence failure aborts and discards everything
        let n = 64usize;
        let arr = SpeculativeArray::new(vec![1i64; n + 1]);
        let rec = BufferRecorder::new(4);
        let out = speculative_while_with(
            &pool(),
            n,
            &arr,
            DoallOptions::recorded(&rec),
            |i, _| i >= n,
            |i, a| {
                let left = a.read(i);
                a.write(i + 1, left + 1);
            },
        );
        assert!(out.reexecuted_sequentially);
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.spec_aborts, 1);
        assert_eq!(report.committed, 0);
        assert_eq!(report.undone, report.executed, "abort discards all bodies");
        assert_eq!(report.undo_elems, (n + 1) as u64, "full restore volume");
        report.check_conservation().expect("laws hold");
    }

    #[test]
    fn chunked_speculation_matches_one_at_a_time() {
        let term = |i: usize, _: &mut SpecAccess<'_, i64>| i >= 333;
        let body = |i: usize, a: &mut SpecAccess<'_, i64>| {
            let v = a.read(i);
            a.write(i, v + 100);
        };
        let base = SpeculativeArray::new((0..500i64).collect());
        let b = speculative_while(&pool(), 500, &base, term, body);
        assert!(b.committed_parallel);
        for policy in [ChunkPolicy::Fixed(16), ChunkPolicy::Guided { min: 2 }] {
            let arr = SpeculativeArray::new((0..500i64).collect());
            let out = speculative_while_with(&pool(), 500, &arr, chunked(policy), term, body);
            assert!(out.committed_parallel, "{policy:?}");
            assert_eq!(out.last_valid, Some(333), "{policy:?}");
            assert_eq!(arr.snapshot(), base.snapshot(), "{policy:?}");
        }
    }

    #[test]
    fn chunked_speculation_still_catches_dependences() {
        let n = 64usize;
        let arr = SpeculativeArray::new(vec![1i64; n + 1]);
        let out = speculative_while_with(
            &pool(),
            n,
            &arr,
            chunked(ChunkPolicy::Fixed(8)),
            |_, _| false,
            |i, a| {
                let left = a.read(i);
                a.write(i + 1, left + 1);
            },
        );
        assert!(!out.committed_parallel);
        assert!(out.reexecuted_sequentially);
        let snap = arr.snapshot();
        for i in 0..=n {
            assert_eq!(snap[i], i as i64 + 1);
        }
    }

    #[test]
    fn budget_trip_degrades_to_sequential_with_correct_result() {
        // every iteration writes: a budget of 20 stamped writes trips long
        // before the 500-iteration range is exhausted
        let arr = SpeculativeArray::new(vec![0i64; 500]).with_budget(20);
        let out = speculative_while(
            &pool(),
            500,
            &arr,
            |i, _| i >= 500,
            |i, a| {
                let v = a.read(i);
                a.write(i, v + 1 + i as i64);
            },
        );
        assert_eq!(out.abort, Some(AbortReason::Budget));
        assert!(out.reexecuted_sequentially);
        assert!(!out.committed_parallel);
        let snap = arr.snapshot();
        for (i, v) in snap.iter().enumerate() {
            assert_eq!(*v, 1 + i as i64, "element {i}: sequential semantics");
        }
    }

    #[test]
    fn generous_budget_still_commits_parallel() {
        let arr = SpeculativeArray::new(vec![0i64; 100]).with_budget(1_000);
        let out = speculative_while(&pool(), 100, &arr, |_, _| false, |i, a| a.write(i, 1));
        assert!(out.committed_parallel);
        assert_eq!(out.abort, None);
        assert_eq!(arr.stamped_writes(), 100);
    }

    #[test]
    fn abort_reason_attributes_dependence_and_exception() {
        let n = 32usize;
        let arr = SpeculativeArray::new(vec![1i64; n + 1]);
        let out = speculative_while(
            &pool(),
            n,
            &arr,
            |_, _| false,
            |i, a| {
                let left = a.read(i);
                a.write(i + 1, left + 1);
            },
        );
        assert_eq!(out.abort, Some(AbortReason::Dependence));

        let first = AtomicBool::new(true);
        let arr = SpeculativeArray::new(vec![0i64; 32]);
        let out = speculative_while(
            &pool(),
            32,
            &arr,
            |_, _| false,
            |i, a| {
                if i == 7 && first.swap(false, Ordering::SeqCst) {
                    panic!("boom");
                }
                a.write(i, 1);
            },
        );
        assert_eq!(out.abort, Some(AbortReason::Exception));
    }

    #[test]
    fn deadline_expiry_aborts_with_timeout_and_correct_result() {
        use wlp_obs::{BufferRecorder, ProfileReport};
        use wlp_runtime::Deadline;

        let pool = Pool::new(4).with_deadline(Deadline::from_millis(25));
        let arr = SpeculativeArray::new(vec![0i64; 10_000]);
        let rec = BufferRecorder::new(4);
        let out = speculative_while_with(
            &pool,
            10_000,
            &arr,
            DoallOptions::recorded(&rec),
            |i, _| i >= 10_000,
            |i, a| {
                if i == 3 {
                    // a stalled writer: holds its lane far past the deadline
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                a.write(i, 7);
            },
        );
        assert_eq!(out.abort, Some(AbortReason::Timeout));
        assert!(out.reexecuted_sequentially);
        assert!(arr.snapshot().iter().all(|&v| v == 7), "sequential truth");

        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.timeouts, 1, "TimeoutAbort recorded");
        assert_eq!(report.aborts_timeout, 1, "SpecAbort attributed to timeout");
        report.check_conservation().expect("laws hold");

        // the same (resident) pool stays reusable after the timeout
        let arr2 = SpeculativeArray::new(vec![0i64; 64]);
        let out2 = speculative_while(&pool, 64, &arr2, |_, _| false, |i, a| a.write(i, 1));
        assert!(out2.committed_parallel);
        assert_eq!(out2.abort, None);
    }

    // `atomic_`-prefixed tests are pool-free (scoped std threads only) so
    // the CI Miri job can select them by name filter and check the relaxed
    // stamp/charge protocol under the weak-memory interpreter.

    #[test]
    fn atomic_spec_budget_charges_are_exact_under_contention() {
        let threads: usize = 4;
        let iters_per_thread: usize = if cfg!(miri) { 8 } else { 200 };
        let writes_per_iter: usize = 3;
        let arr =
            SpeculativeArray::new(vec![0u64; threads * iters_per_thread]).with_budget(u64::MAX - 1);
        std::thread::scope(|s| {
            for t in 0..threads {
                let arr = &arr;
                s.spawn(move || {
                    for k in 0..iters_per_thread {
                        let i = t * iters_per_thread + k;
                        let mut acc = access(arr, i);
                        for _ in 0..writes_per_iter {
                            acc.write(i, i as u64);
                        }
                        // drop flushes the buffered charges in one RMW
                    }
                });
            }
        });
        assert_eq!(
            arr.stamped_writes(),
            (threads * iters_per_thread * writes_per_iter) as u64,
            "no charge lost or duplicated by the batched flush"
        );
        assert!(!arr.budget_exceeded());
    }

    #[test]
    fn atomic_spec_array_relaxed_stamps_survive_concurrent_writers() {
        // Several threads write the same element on behalf of different
        // iterations: the kept stamp must be the smallest iteration, and
        // undoing past it must restore the checkpoint — the exact protocol
        // the relaxed fast path in `VersionedArray::write` relies on.
        let threads: usize = if cfg!(miri) { 3 } else { 8 };
        let arr = SpeculativeArray::new(vec![7i64; 4]);
        std::thread::scope(|s| {
            for t in 0..threads {
                let arr = &arr;
                s.spawn(move || {
                    let mut acc = access(arr, t + 1);
                    acc.write(0, (t + 1) as i64);
                });
            }
        });
        let mut acc = access(&arr, 0);
        acc.write(0, 100);
        drop(acc);
        assert_eq!(arr.versioned.stamp(0), Some(0), "earliest writer wins");
        // every writer overshot except iteration 0 → undo keeps its value
        assert_eq!(arr.versioned.undo_past(0), 0);
        assert_eq!(arr.snapshot()[0], 100);
    }

    #[test]
    fn spec_array_commit_enables_reuse() {
        let mut arr = SpeculativeArray::new(vec![0i64; 10]);
        let out1 = speculative_while(&pool(), 10, &arr, |_, _| false, |i, a| a.write(i, 1));
        assert!(out1.committed_parallel);
        arr.commit();
        let out2 = speculative_while(
            &pool(),
            10,
            &arr,
            |_, _| false,
            |i, a| {
                let v = a.read(i);
                a.write(i, v + 1);
            },
        );
        assert!(out2.committed_parallel);
        assert_eq!(arr.snapshot(), vec![2; 10]);
    }
}
