//! General-recurrence methods (Section 3.3): parallelizing loops whose
//! dispatcher is an inherently sequential chain — the linked-list traversal
//! of Figure 1(b).
//!
//! None of these parallelize the dispatcher; they overlap the remainder:
//!
//! * [`general1`] — the `next()` operation in a critical section: the list
//!   is traversed once, cooperatively, at the cost of lock serialization.
//! * [`general2`] — static assignment: every processor privately traverses
//!   the whole list and executes iterations `≡ vpn (mod p)`.
//! * [`general3`] — dynamic self-scheduling without locks: a processor
//!   catches its private cursor up from its previous iteration to the one
//!   it just claimed.
//!
//! Each method comes in two flavours: the plain one for loops whose only
//! exit is dispatcher exhaustion (the RI null-pointer terminator — "no
//! backups or time-stamps", Table 2), and an `_until` flavour whose body
//! returns [`Step`] to model additional (possibly RV) exits with QUIT
//! semantics. Both take a [`GeneralConfig`], which carries the iteration
//! cap and the recorder that observes the run.

use crate::recover::ParallelAttempt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;
use wlp_list::{DispatcherDiverged, GuardedCursor, ListArena, NodeId};
use wlp_obs::{Event, NoopRecorder, Recorder};
use wlp_runtime::{CancelFlag, FaultCell, Pool, Step, WorkerPanic, WorkerTimeout};

/// Options for the General methods.
#[derive(Debug)]
pub struct GeneralConfig<'r, R = NoopRecorder> {
    /// Cap on the number of iterations (the paper's `u`); `None` = run to
    /// the end of the list.
    pub upper: Option<usize>,
    /// Observes the run. Probes are guarded by `R::ENABLED`, so the
    /// default [`NoopRecorder`] compiles every one of them away.
    pub rec: &'r R,
}

impl Default for GeneralConfig<'static> {
    fn default() -> Self {
        GeneralConfig::recorded(&NoopRecorder)
    }
}

impl<'r, R> GeneralConfig<'r, R> {
    /// No iteration cap, observed by `rec`.
    pub fn recorded(rec: &'r R) -> Self {
        GeneralConfig { upper: None, rec }
    }
}

impl<R> Clone for GeneralConfig<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for GeneralConfig<'_, R> {}

/// Result of a General-method execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralOutcome {
    /// Bodies executed.
    pub iterations: usize,
    /// Smallest iteration that requested termination, if any.
    pub quit: Option<usize>,
    /// Total dispatcher increments across all processors (the traversal
    /// cost the three methods trade differently).
    pub hops: u64,
    /// First body panic contained during the run, if any.
    pub panic: Option<WorkerPanic>,
    /// Deadline verdict, if the region overran its deadline (see
    /// [`Pool::with_deadline`]): the run was cancelled, so `iterations`
    /// covers only a prefix of the list.
    pub timeout: Option<WorkerTimeout>,
    /// The dispatcher guard tripped: the list is corrupted (cyclic) and
    /// the traversal was stopped within the step budget instead of
    /// hanging.
    pub diverged: Option<DispatcherDiverged>,
    /// Whether a sequential fallback re-execution produced this result
    /// (only set by [`general3_recovering`]).
    pub recovered: bool,
}

const NO_QUIT: usize = usize::MAX;

/// How a worker comes by its next `(iteration, node)` — the one thing the
/// three General methods differ in.
enum ClaimRule {
    /// General-1: one shared cursor — a node and its iteration number —
    /// advanced inside a critical section.
    Locked(parking_lot::Mutex<(Option<NodeId>, usize)>),
    /// General-2: worker `vpn` takes iterations `vpn, vpn + p, …` and
    /// walks a private cursor to each.
    Cyclic,
    /// General-3: iterations are claimed from a shared counter, and a
    /// private cursor catches up from the worker's previous one.
    Counter(AtomicUsize),
}

/// A claim: the iteration to run, no more work, or a corrupted chain.
type Claim = Result<Option<(usize, NodeId)>, DispatcherDiverged>;

/// What the workers of one General region share besides the claim rule.
struct Region<'a, T, R> {
    list: &'a ListArena<T>,
    upper: usize,
    /// Smallest iteration that requested termination.
    quit: AtomicUsize,
    rec: &'a R,
}

impl<T, R: Recorder> Region<'_, T, R> {
    /// Whether iteration `i` may still begin: below the cap and not past
    /// the smallest exit.
    fn open(&self, i: usize) -> bool {
        i < self.upper && i <= self.quit.load(Ordering::Acquire)
    }

    /// `lock(list); pt = tmp; tmp = next(tmp); unlock(list)`. Tells the
    /// recorder the time blocked on the lock, the hold, and the one hop.
    fn claim_locked(
        &self,
        vpn: usize,
        cursor: &parking_lot::Mutex<(Option<NodeId>, usize)>,
    ) -> Claim {
        let len = self.list.len();
        let t0 = R::ENABLED.then(Instant::now);
        let mut c = cursor.lock();
        let t1 = R::ENABLED.then(Instant::now);
        let claimed = match *c {
            // an acyclic list yields at most `len` live nodes; a live one
            // at index `len` is a revisit — the chain is corrupted
            (Some(_), i) if self.open(i) && i >= len => Err(DispatcherDiverged {
                steps: i as u64,
                budget: len as u64,
                cycle: true,
            }),
            (Some(node), i) if self.open(i) => {
                *c = (self.list.next(node), i + 1);
                Ok(Some((i, node)))
            }
            _ => Ok(None),
        };
        drop(c);
        if R::ENABLED {
            let wait = match (t0, t1) {
                (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
                _ => 0,
            };
            let hold = t1.map_or(0, |t| t.elapsed().as_nanos() as u64);
            self.rec.record(vpn, Event::LockWait { dur: wait });
            self.rec.record(vpn, Event::LockAcquire { hold });
            if let Ok(Some((i, _))) = claimed {
                // the hop happened inside the hold, so it costs 0 extra
                self.rec.record(vpn, Event::NextHop { hops: 1, cost: 0 });
                let iter = i as u64;
                self.rec.record(vpn, Event::IterClaimed { iter, cost: 0 });
            }
        }
        claimed
    }

    /// `do j = 1, i − at: pt = next(pt)` — catches the private cursor up
    /// from iteration `at` to the iteration `i` this worker took. Tells
    /// the recorder the claim and the hops with their measured cost.
    fn claim_private(
        &self,
        vpn: usize,
        i: usize,
        cur: &mut GuardedCursor<'_, T>,
        at: &mut usize,
    ) -> Claim {
        if !self.open(i) {
            return Ok(None);
        }
        if R::ENABLED {
            let iter = i as u64;
            self.rec.record(vpn, Event::IterClaimed { iter, cost: 0 });
        }
        let h0 = R::ENABLED.then(Instant::now);
        let hops = i - *at;
        // a private traversal of an acyclic list takes at most `len` hops,
        // so the guarded cursor's default budget has no false positives
        cur.advance_by(hops)?;
        if R::ENABLED && hops > 0 {
            let cost = h0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let hops = hops as u64;
            self.rec.record(vpn, Event::NextHop { hops, cost });
        }
        *at = i;
        let len = self.list.len();
        match cur.get() {
            // a live node at logical position ≥ len is a revisit: the
            // chain is corrupted even if Brent has not looped yet
            Some(_) if i >= len => Err(DispatcherDiverged {
                steps: cur.hops(),
                budget: len as u64 + 1,
                cycle: true,
            }),
            node => Ok(node.map(|n| (i, n))),
        }
    }
}

/// The one General driver. Quit cell, cancel flag, fault and divergence
/// slots, tallies, the per-body `catch_unwind`, body events and outcome
/// assembly exist here, once; `rule` only answers which `(i, node)` a
/// worker runs next (and reports what that claim cost).
fn general_until<T, B, R>(
    pool: &Pool,
    list: &ListArena<T>,
    cfg: GeneralConfig<'_, R>,
    rule: ClaimRule,
    body: B,
) -> GeneralOutcome
where
    T: Sync,
    B: Fn(usize, NodeId) -> Step + Sync,
    R: Recorder,
{
    let rec = cfg.rec;
    let region = Region {
        list,
        upper: cfg.upper.unwrap_or(usize::MAX),
        quit: AtomicUsize::new(NO_QUIT),
        rec,
    };
    let p = pool.size();
    let iterations = AtomicU64::new(0);
    let hops = AtomicU64::new(0);
    let cancel = CancelFlag::new();
    let fault = FaultCell::new();
    // any one report proves corruption: the first wins
    let diverged = OnceLock::new();

    let pool_out = pool.run_with(&cancel, |vpn| {
        let mut cur = list.guarded_cursor();
        let mut at = 0usize; // the iteration `cur` points at
        let mut own = vpn; // the cyclic rule's next iteration
        let mut ran = 0u64;
        while !cancel.is_cancelled() {
            let claim = match &rule {
                ClaimRule::Locked(cursor) => region.claim_locked(vpn, cursor),
                ClaimRule::Cyclic => {
                    let i = own;
                    own = i.saturating_add(p);
                    region.claim_private(vpn, i, &mut cur, &mut at)
                }
                ClaimRule::Counter(next) => {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    region.claim_private(vpn, i, &mut cur, &mut at)
                }
            };
            let (i, node) = match claim {
                Ok(Some(claimed)) => claimed,
                Ok(None) => break,
                Err(d) => {
                    let _ = diverged.set(d);
                    cancel.cancel();
                    break;
                }
            };
            let b0 = R::ENABLED.then(Instant::now);
            let step = match catch_unwind(AssertUnwindSafe(|| body(i, node))) {
                Ok(step) => step,
                Err(payload) => {
                    fault.record(vpn, i, payload.as_ref());
                    cancel.cancel();
                    break;
                }
            };
            ran += 1;
            if R::ENABLED {
                let iter = i as u64;
                let cost = b0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                rec.record(vpn, Event::IterExecuted { iter, cost });
            }
            if let Step::Quit = step {
                region.quit.fetch_min(i, Ordering::AcqRel);
                if R::ENABLED {
                    rec.record(vpn, Event::Quit { iter: i as u64 });
                }
            }
        }
        iterations.fetch_add(ran, Ordering::Relaxed);
        hops.fetch_add(cur.hops(), Ordering::Relaxed);
        if R::ENABLED {
            rec.record(vpn, Event::Barrier { cost: 0 });
        }
    });

    // the shared cursor hops once per iteration it hands out
    let shared_hops = match rule {
        ClaimRule::Locked(cursor) => cursor.into_inner().1 as u64,
        _ => 0,
    };
    let quit = region.quit.into_inner();
    GeneralOutcome {
        iterations: iterations.into_inner() as usize,
        quit: (quit != NO_QUIT).then_some(quit),
        hops: shared_hops + hops.into_inner(),
        timeout: pool_out.timeout().cloned(),
        panic: fault.take().or_else(|| pool_out.into_first_panic()),
        diverged: diverged.into_inner(),
        recovered: false,
    }
}

/// General-1 with an explicit termination step. See [`general1`].
///
/// `cfg.rec` is told the time blocked on the dispatcher lock, the
/// critical-section hold, the single `next()` hop per claim, each body
/// execution, QUIT broadcast and end-of-loop join.
pub fn general1_until<T, B, R>(
    pool: &Pool,
    list: &ListArena<T>,
    cfg: GeneralConfig<'_, R>,
    body: B,
) -> GeneralOutcome
where
    T: Sync,
    B: Fn(usize, NodeId) -> Step + Sync,
    R: Recorder,
{
    let cursor = parking_lot::Mutex::new((list.head(), 0usize));
    general_until(pool, list, cfg, ClaimRule::Locked(cursor), body)
}

/// General-1: serialize accesses to `next()` with a lock; the remainder
/// runs outside the critical section. Iterations issue in lock order.
pub fn general1<T, B, R>(
    pool: &Pool,
    list: &ListArena<T>,
    cfg: GeneralConfig<'_, R>,
    body: B,
) -> GeneralOutcome
where
    T: Sync,
    B: Fn(usize, NodeId) + Sync,
    R: Recorder,
{
    general1_until(pool, list, cfg, |i, n| {
        body(i, n);
        Step::Continue
    })
}

/// General-2 with an explicit termination step. See [`general2`]. The
/// private traversals are not instrumented, so the configuration cannot
/// carry a recorder.
pub fn general2_until<T, B>(
    pool: &Pool,
    list: &ListArena<T>,
    cfg: GeneralConfig<'_>,
    body: B,
) -> GeneralOutcome
where
    T: Sync,
    B: Fn(usize, NodeId) -> Step + Sync,
{
    general_until(pool, list, cfg, ClaimRule::Cyclic, body)
}

/// General-2: static cyclic assignment — processor `vpn` privately
/// traverses the entire list and executes iterations `vpn, vpn+p, …`. No
/// locks, no shared dispatch; `p × n` total hops.
pub fn general2<T, B>(
    pool: &Pool,
    list: &ListArena<T>,
    cfg: GeneralConfig<'_>,
    body: B,
) -> GeneralOutcome
where
    T: Sync,
    B: Fn(usize, NodeId) + Sync,
{
    general2_until(pool, list, cfg, |i, n| {
        body(i, n);
        Step::Continue
    })
}

/// General-3 with an explicit termination step. See [`general3`].
///
/// `cfg.rec` is told each lock-free claim, private cursor catch-up (the
/// `next()` hops with their measured cost), body execution, QUIT broadcast
/// and end-of-loop join.
pub fn general3_until<T, B, R>(
    pool: &Pool,
    list: &ListArena<T>,
    cfg: GeneralConfig<'_, R>,
    body: B,
) -> GeneralOutcome
where
    T: Sync,
    B: Fn(usize, NodeId) -> Step + Sync,
    R: Recorder,
{
    let next = AtomicUsize::new(0);
    general_until(pool, list, cfg, ClaimRule::Counter(next), body)
}

/// General-3: dynamic self-scheduling without locks — the paper's best
/// general-recurrence method (Table 2's SPICE row: 4.9× vs General-1's
/// 2.9× at p = 8).
pub fn general3<T, B, R>(
    pool: &Pool,
    list: &ListArena<T>,
    cfg: GeneralConfig<'_, R>,
    body: B,
) -> GeneralOutcome
where
    T: Sync,
    B: Fn(usize, NodeId) + Sync,
    R: Recorder,
{
    general3_until(pool, list, cfg, |i, n| {
        body(i, n);
        Step::Continue
    })
}

/// Fault-tolerant General-3 (the Section 5 exception rule applied to the
/// list strategies): runs [`general3_until`]; on a contained worker panic
/// or a deadline expiry, emits [`Event::SpecAbort`] naming the cause
/// (after an [`Event::TimeoutAbort`] for an expiry) and re-executes the
/// surviving loop *sequentially* on the caller's thread over a guarded
/// cursor. List bodies write each node's private output slot, so
/// re-running every iteration is idempotent — the "no backups or
/// time-stamps" rows of Table 2 need no checkpoint to restore.
///
/// A corrupted (cyclic) list is **not** recoverable by re-execution: the
/// divergence is reported as-is and the sequential pass is skipped.
pub fn general3_recovering<T, B, R>(
    pool: &Pool,
    list: &ListArena<T>,
    cfg: GeneralConfig<'_, R>,
    body: B,
) -> GeneralOutcome
where
    T: Sync,
    B: Fn(usize, NodeId) -> Step + Sync,
    R: Recorder,
{
    let rec = cfg.rec;
    let out = general3_until(pool, list, cfg, &body);
    let attempt = ParallelAttempt {
        panic: out.panic.clone(),
        timeout: out.timeout.clone(),
        abort: None,
        executed: out.iterations as u64,
        quit: out.quit,
    };
    let Some(reason) = attempt.classify(rec) else {
        return out;
    };
    if R::ENABLED {
        let discarded = attempt.executed;
        rec.record(attempt.lane(), Event::SpecAbort { reason, discarded });
    }
    // sequential fallback — guarded, so a concurrently observed corruption
    // still surfaces as `diverged` rather than a hang
    let upper = cfg.upper.unwrap_or(usize::MAX);
    let mut cur = list.guarded_cursor();
    let mut iterations = 0usize;
    let mut quit = None;
    let mut diverged = None;
    let mut i = 0usize;
    while let Some(node) = cur.get() {
        if i >= upper {
            break;
        }
        iterations += 1;
        if let Step::Quit = body(i, node) {
            quit = Some(i);
            break;
        }
        if let Err(d) = cur.advance() {
            diverged = Some(d);
            break;
        }
        i += 1;
    }
    GeneralOutcome {
        iterations,
        quit,
        hops: cur.hops(),
        panic: attempt.panic,
        timeout: attempt.timeout,
        diverged,
        recovered: true,
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by iteration number is the semantics under test
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    fn pool() -> Pool {
        Pool::new(4)
    }

    fn run_and_collect<F>(n: usize, f: F) -> (Vec<u32>, GeneralOutcome)
    where
        F: Fn(&Pool, &ListArena<usize>, &(dyn Fn(usize, NodeId) + Sync)) -> GeneralOutcome,
    {
        let list = ListArena::from_values_shuffled(0..n, 17);
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let out = f(&pool(), &list, &|_i, node| {
            hits[list[node]].fetch_add(1, Ordering::Relaxed);
        });
        (
            hits.iter().map(|h| h.load(Ordering::Relaxed)).collect(),
            out,
        )
    }

    #[test]
    fn general1_visits_every_node_once() {
        let (hits, out) =
            run_and_collect(500, |p, l, b| general1(p, l, GeneralConfig::default(), b));
        assert!(hits.iter().all(|&h| h == 1));
        assert_eq!(out.iterations, 500);
        assert_eq!(out.hops, 500, "cooperative traversal: list walked once");
    }

    #[test]
    fn general2_visits_every_node_once() {
        let (hits, out) =
            run_and_collect(500, |p, l, b| general2(p, l, GeneralConfig::default(), b));
        assert!(hits.iter().all(|&h| h == 1));
        assert_eq!(out.iterations, 500);
        // every processor traverses (almost) the whole list privately
        assert!(out.hops >= 500, "hops = {}", out.hops);
    }

    #[test]
    fn general3_visits_every_node_once() {
        let (hits, out) =
            run_and_collect(500, |p, l, b| general3(p, l, GeneralConfig::default(), b));
        assert!(hits.iter().all(|&h| h == 1));
        assert_eq!(out.iterations, 500);
        assert!(
            out.hops >= 500 && out.hops <= 4 * 500,
            "hops = {}",
            out.hops
        );
    }

    #[test]
    fn iteration_indices_follow_logical_order() {
        let list = ListArena::from_values_shuffled(0..100usize, 3);
        let seen: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(usize::MAX)).collect();
        general3(&pool(), &list, GeneralConfig::default(), |i, node| {
            seen[i].store(list[node], Ordering::Relaxed);
        });
        // iteration i must process the i-th node in LOGICAL order, which
        // holds value i (the list was built from 0..100 in order)
        for i in 0..100 {
            assert_eq!(seen[i].load(Ordering::Relaxed), i, "iteration {i}");
        }
    }

    #[test]
    fn upper_bound_caps_iterations() {
        let list = ListArena::from_values(0..100usize);
        let cfg = GeneralConfig {
            upper: Some(30),
            ..GeneralConfig::default()
        };
        for out in [
            general1(&pool(), &list, cfg, |_, _| {}),
            general2(&pool(), &list, cfg, |_, _| {}),
            general3(&pool(), &list, cfg, |_, _| {}),
        ] {
            assert_eq!(out.iterations, 30);
        }
    }

    #[test]
    fn until_variants_quit_early() {
        let list = ListArena::from_values(0..10_000usize);
        for out in [
            general1_until(&pool(), &list, GeneralConfig::default(), |i, _| {
                if i >= 100 {
                    Step::Quit
                } else {
                    Step::Continue
                }
            }),
            general2_until(&pool(), &list, GeneralConfig::default(), |i, _| {
                if i >= 100 {
                    Step::Quit
                } else {
                    Step::Continue
                }
            }),
            general3_until(&pool(), &list, GeneralConfig::default(), |i, _| {
                if i >= 100 {
                    Step::Quit
                } else {
                    Step::Continue
                }
            }),
        ] {
            let q = out.quit.expect("must quit");
            assert!((100..104 + 100).contains(&q), "quit at {q}");
            assert!(out.iterations < 10_000, "quit must curb execution");
        }
    }

    #[test]
    fn empty_list_is_a_no_op() {
        let list: ListArena<usize> = ListArena::new();
        for out in [
            general1(&pool(), &list, GeneralConfig::default(), |_, _| {}),
            general2(&pool(), &list, GeneralConfig::default(), |_, _| {}),
            general3(&pool(), &list, GeneralConfig::default(), |_, _| {}),
        ] {
            assert_eq!(out.iterations, 0);
            assert_eq!(out.quit, None);
        }
    }

    #[test]
    fn recorded_general_runs_report_dispatcher_traffic() {
        use wlp_obs::{BufferRecorder, ProfileReport};
        let list = ListArena::from_values(0..200usize);

        let rec = BufferRecorder::new(4);
        let out = general3_until(&pool(), &list, GeneralConfig::recorded(&rec), |_, _| {
            Step::Continue
        });
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.executed, 200);
        assert_eq!(out.iterations, 200);
        assert!(report.claimed >= 200, "every body was claimed first");
        assert!(
            report.hops >= 199,
            "catch-up hops recorded: {}",
            report.hops
        );
        assert_eq!(report.barriers, 4, "one join event per worker");
        report.check_conservation().expect("laws hold");

        let rec = BufferRecorder::new(4);
        general1_until(&pool(), &list, GeneralConfig::recorded(&rec), |_, _| {
            Step::Continue
        });
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.executed, 200);
        assert_eq!(
            report.hops, 200,
            "cooperative traversal walks the list once"
        );
        report.check_conservation().expect("laws hold");
    }

    #[test]
    fn body_panic_is_contained_in_every_method() {
        let list = ListArena::from_values(0..500usize);
        let faulty = |i: usize, _n: NodeId| -> Step {
            if i == 123 {
                panic!("injected list fault");
            }
            Step::Continue
        };
        for out in [
            general1_until(&pool(), &list, GeneralConfig::default(), faulty),
            general2_until(&pool(), &list, GeneralConfig::default(), faulty),
            general3_until(&pool(), &list, GeneralConfig::default(), faulty),
        ] {
            let wp = out.panic.as_ref().expect("panic must be reported");
            assert_eq!(wp.iter, Some(123));
            assert_eq!(wp.message, "injected list fault");
            assert!(out.iterations < 500, "cancellation curbs execution");
            assert!(out.diverged.is_none());
        }
    }

    #[test]
    fn cyclic_list_diverges_instead_of_hanging() {
        let mut list = ListArena::from_values(0..200usize);
        let tail = list.tail().unwrap();
        let target = list.nth_from(list.head().unwrap(), 50).unwrap();
        list.corrupt_link(tail, target);
        for out in [
            general1(&pool(), &list, GeneralConfig::default(), |_, _| {}),
            general2(&pool(), &list, GeneralConfig::default(), |_, _| {}),
            general3(&pool(), &list, GeneralConfig::default(), |_, _| {}),
        ] {
            let d = out.diverged.expect("corruption must be detected");
            assert!(d.steps <= 4 * 201, "bounded traversal: {} hops", d.steps);
            assert!(out.panic.is_none());
        }
    }

    #[test]
    fn upper_bound_masks_a_cycle_beyond_it() {
        // the guard must not fire when the iteration cap stops the loop
        // before the corrupted region is ever reached
        let mut list = ListArena::from_values(0..200usize);
        let tail = list.tail().unwrap();
        list.corrupt_link(tail, list.head().unwrap());
        let cfg = GeneralConfig {
            upper: Some(100),
            ..GeneralConfig::default()
        };
        for out in [
            general1(&pool(), &list, cfg, |_, _| {}),
            general3(&pool(), &list, cfg, |_, _| {}),
        ] {
            assert_eq!(out.iterations, 100);
            assert!(out.diverged.is_none(), "cap reached first");
        }
    }

    #[test]
    fn general3_recovers_by_sequential_reexecution() {
        use wlp_obs::{BufferRecorder, ProfileReport};
        let n = 300usize;
        let list = ListArena::from_values_shuffled(0..n, 11);
        let slots: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let armed = AtomicBool::new(true);
        let rec = BufferRecorder::new(4);
        let out = general3_recovering(&pool(), &list, GeneralConfig::recorded(&rec), |i, node| {
            if i == 150 && armed.swap(false, Ordering::SeqCst) {
                panic!("transient fault");
            }
            slots[i].store(list[node], Ordering::Relaxed);
            Step::Continue
        });
        assert!(out.recovered);
        assert_eq!(out.panic.as_ref().unwrap().message, "transient fault");
        assert_eq!(out.iterations, n, "fallback covers the whole list");
        for i in 0..n {
            assert_eq!(slots[i].load(Ordering::Relaxed), i, "iteration {i}");
        }
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.spec_aborts, 1, "the recovery shows in the trace");
    }

    #[test]
    fn general3_recovering_passes_clean_runs_through() {
        let list = ListArena::from_values(0..100usize);
        let out = general3_recovering(&pool(), &list, GeneralConfig::default(), |_, _| {
            Step::Continue
        });
        assert!(!out.recovered);
        assert_eq!(out.iterations, 100);
    }

    /// A body that stalls once, at iteration 40, far past the deadline of
    /// [`watched`].
    fn stalling(armed: &AtomicBool) -> impl Fn(usize) + Sync + '_ {
        |i| {
            if i == 40 && armed.swap(false, Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(60));
            }
        }
    }

    fn watched() -> Pool {
        pool().with_deadline(wlp_runtime::Deadline::from_millis(8))
    }

    #[test]
    fn deadline_expiry_is_reported_by_every_method() {
        let list = ListArena::from_values(0..500usize);
        type Method = fn(&Pool, &ListArena<usize>, &(dyn Fn(usize) + Sync)) -> GeneralOutcome;
        let methods: [Method; 3] = [
            |p, l, b| general1(p, l, GeneralConfig::default(), |i, _| b(i)),
            |p, l, b| general2(p, l, GeneralConfig::default(), |i, _| b(i)),
            |p, l, b| general3(p, l, GeneralConfig::default(), |i, _| b(i)),
        ];
        for (m, run) in methods.iter().enumerate() {
            let armed = AtomicBool::new(true);
            let out = run(&watched(), &list, &stalling(&armed));
            let to = out
                .timeout
                .unwrap_or_else(|| panic!("method {}: the expiry must be reported", m + 1));
            assert!(to.elapsed >= std::time::Duration::from_millis(8));
            assert!(out.panic.is_none() && out.diverged.is_none());
            assert!(!out.recovered);
        }
    }

    #[test]
    fn general3_recovers_from_a_deadline_expiry() {
        use wlp_obs::{AbortReason, BufferRecorder};
        let n = 300usize;
        let list = ListArena::from_values_shuffled(0..n, 11);
        let slots: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let armed = AtomicBool::new(true);
        let stall = stalling(&armed);
        let rec = BufferRecorder::new(4);
        let cfg = GeneralConfig::recorded(&rec);
        let out = general3_recovering(&watched(), &list, cfg, |i, node| {
            stall(i);
            slots[i].store(list[node], Ordering::Relaxed);
            Step::Continue
        });
        assert!(out.recovered);
        assert!(out.timeout.is_some() && out.panic.is_none());
        assert_eq!(out.iterations, n, "fallback covers the whole list");
        for i in 0..n {
            assert_eq!(slots[i].load(Ordering::Relaxed), i, "iteration {i}");
        }
        let tail: Vec<Event> = rec
            .finish()
            .samples
            .iter()
            .map(|s| s.event)
            .filter(|e| matches!(e.kind(), "timeout_abort" | "spec_abort"))
            .collect();
        assert!(
            matches!(
                tail[..],
                [
                    Event::TimeoutAbort { .. },
                    Event::SpecAbort {
                        reason: AbortReason::Timeout,
                        ..
                    }
                ]
            ),
            "{tail:?}"
        );
    }

    #[test]
    fn methods_agree_with_sequential_sum() {
        // a reduction computed through each method must equal the
        // sequential traversal's
        let list = ListArena::from_values_shuffled((0..777u64).map(|x| x * x), 23);
        let expect: u64 = list.iter().map(|(_, &v)| v).sum();
        type Body<'a> = &'a (dyn Fn(usize, NodeId) + Sync);
        let sum_with = |f: &dyn Fn(Body<'_>) -> GeneralOutcome| {
            let total = AtomicU64::new(0);
            f(&|_i, node| {
                total.fetch_add(list[node], Ordering::Relaxed);
            });
            total.load(Ordering::Relaxed)
        };
        let cfg = GeneralConfig::default();
        assert_eq!(sum_with(&|b| general1(&pool(), &list, cfg, b)), expect);
        assert_eq!(sum_with(&|b| general2(&pool(), &list, cfg, b)), expect);
        assert_eq!(sum_with(&|b| general3(&pool(), &list, cfg, b)), expect);
    }
}
