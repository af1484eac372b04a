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
//! * [`wu_lewis_distribution`] — the related-work baseline \[29\]: evaluate
//!   the dispatcher sequentially into an array, then DOALL the remainder.
//!
//! Each method comes in two flavours: the plain one for loops whose only
//! exit is dispatcher exhaustion (the RI null-pointer terminator — "no
//! backups or time-stamps", Table 2), and an `_until` flavour whose body
//! returns [`Step`] to model additional (possibly RV) exits with QUIT
//! semantics. Both take a [`GeneralConfig`], which carries the iteration
//! cap and the recorder that observes the run.

use crate::dispatch::Dispatcher;
use crate::recover::FirstFault;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use wlp_list::{DispatcherDiverged, ListArena, NodeId};
use wlp_obs::{AbortReason, Event, NoopRecorder, Recorder};
use wlp_runtime::{doall_dynamic, CancelFlag, Pool, Step, WorkerPanic};

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
    /// The dispatcher guard tripped: the list is corrupted (cyclic) and
    /// the traversal was stopped within the step budget instead of
    /// hanging.
    pub diverged: Option<DispatcherDiverged>,
    /// Whether a sequential fallback re-execution produced this result
    /// (only set by [`general3_recovering`]).
    pub recovered: bool,
}

impl GeneralOutcome {
    fn new(iterations: usize, quit: usize, hops: u64) -> Self {
        GeneralOutcome {
            iterations,
            quit: (quit != NO_QUIT).then_some(quit),
            hops,
            panic: None,
            diverged: None,
            recovered: false,
        }
    }
}

/// Shared first-divergence slot (smallest report wins is irrelevant — any
/// one proves corruption).
#[derive(Debug, Default)]
struct DivergedCell(parking_lot::Mutex<Option<DispatcherDiverged>>);

impl DivergedCell {
    fn new() -> Self {
        Self::default()
    }
    fn record(&self, d: DispatcherDiverged) {
        let mut slot = self.0.lock();
        if slot.is_none() {
            *slot = Some(d);
        }
    }
    fn take(&self) -> Option<DispatcherDiverged> {
        self.0.lock().take()
    }
}

const NO_QUIT: usize = usize::MAX;

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
    let rec = cfg.rec;
    let upper = cfg.upper.unwrap_or(usize::MAX);
    let len = list.len();
    let cursor = parking_lot::Mutex::new((list.head(), 0usize));
    let quit = AtomicUsize::new(NO_QUIT);
    let iterations = AtomicU64::new(0);
    let hops = AtomicU64::new(0);
    let cancel = CancelFlag::new();
    let fault = FirstFault::new();
    let diverged = DivergedCell::new();

    let pool_out = pool.run_with(&cancel, |vpn| {
        loop {
            if cancel.is_cancelled() {
                break;
            }
            // lock(list); pt = tmp; tmp = next(tmp); unlock(list)
            let t0 = R::ENABLED.then(Instant::now);
            let mut c = cursor.lock();
            let t1 = R::ENABLED.then(Instant::now);
            let claimed = match c.0 {
                None => None,
                Some(node) => {
                    let i = c.1;
                    if i >= upper || i > quit.load(Ordering::Acquire) {
                        None
                    } else if i >= len {
                        // an acyclic list yields at most `len` live nodes;
                        // a live one at index `len` is a revisit — the
                        // chain is corrupted, stop every claimer
                        diverged.record(DispatcherDiverged {
                            steps: i as u64,
                            budget: len as u64,
                            cycle: true,
                        });
                        c.0 = None;
                        None
                    } else {
                        c.0 = list.next(node);
                        c.1 = i + 1;
                        hops.fetch_add(1, Ordering::Relaxed);
                        Some((i, node))
                    }
                }
            };
            drop(c);
            if R::ENABLED {
                let wait = match (t0, t1) {
                    (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
                    _ => 0,
                };
                let hold = t1.map_or(0, |t| t.elapsed().as_nanos() as u64);
                rec.record(vpn, Event::LockWait { dur: wait });
                rec.record(vpn, Event::LockAcquire { hold });
                if let Some((i, _)) = claimed {
                    // the hop happened inside the hold, so it costs 0 extra
                    rec.record(vpn, Event::NextHop { hops: 1, cost: 0 });
                    rec.record(
                        vpn,
                        Event::IterClaimed {
                            iter: i as u64,
                            cost: 0,
                        },
                    );
                }
            }
            let Some((i, node)) = claimed else { break };
            let b0 = R::ENABLED.then(Instant::now);
            let step = match catch_unwind(AssertUnwindSafe(|| body(i, node))) {
                Ok(s) => s,
                Err(p) => {
                    fault.record(vpn, i, p.as_ref());
                    cancel.cancel();
                    break;
                }
            };
            iterations.fetch_add(1, Ordering::Relaxed);
            if R::ENABLED {
                let cost = b0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                rec.record(
                    vpn,
                    Event::IterExecuted {
                        iter: i as u64,
                        cost,
                    },
                );
            }
            if let Step::Quit = step {
                quit.fetch_min(i, Ordering::AcqRel);
                if R::ENABLED {
                    rec.record(vpn, Event::Quit { iter: i as u64 });
                }
            }
        }
        if R::ENABLED {
            rec.record(vpn, Event::Barrier { cost: 0 });
        }
    });

    let mut out = GeneralOutcome::new(
        iterations.load(Ordering::Relaxed) as usize,
        quit.load(Ordering::Acquire),
        hops.load(Ordering::Relaxed),
    );
    out.panic = fault.take().or_else(|| pool_out.into_first_panic());
    out.diverged = diverged.take();
    out
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
    let upper = cfg.upper.unwrap_or(usize::MAX);
    let p = pool.size();
    let quit = AtomicUsize::new(NO_QUIT);
    let iterations = AtomicU64::new(0);
    let hops = AtomicU64::new(0);
    let cancel = CancelFlag::new();
    let fault = FirstFault::new();
    let diverged = DivergedCell::new();

    let pool_out = pool.run_with(&cancel, |vpn| {
        // a private traversal of an acyclic list takes at most `len` hops,
        // so the guarded cursor's default budget has no false positives
        let mut cur = list.guarded_cursor();
        // `do j = 1, vpn: pt = next(pt)` — private catch-up to iteration vpn
        if vpn > 0 {
            if let Err(d) = cur.advance_by(vpn) {
                diverged.record(d);
                cancel.cancel();
                return;
            }
        }
        let mut i = vpn;
        while let Some(node) = cur.get() {
            if i >= upper || i > quit.load(Ordering::Acquire) || cancel.is_cancelled() {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| body(i, node))) {
                Ok(step) => {
                    iterations.fetch_add(1, Ordering::Relaxed);
                    if let Step::Quit = step {
                        quit.fetch_min(i, Ordering::AcqRel);
                    }
                }
                Err(pl) => {
                    fault.record(vpn, i, pl.as_ref());
                    cancel.cancel();
                    break;
                }
            }
            // `do j = 1, nproc: pt = next(pt)` — stride to the next assigned
            if let Err(d) = cur.advance_by(p) {
                diverged.record(d);
                cancel.cancel();
                break;
            }
            i += p;
        }
        hops.fetch_add(cur.hops(), Ordering::Relaxed);
    });

    let mut out = GeneralOutcome::new(
        iterations.load(Ordering::Relaxed) as usize,
        quit.load(Ordering::Acquire),
        hops.load(Ordering::Relaxed),
    );
    out.panic = fault.take().or_else(|| pool_out.into_first_panic());
    out.diverged = diverged.take();
    out
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
    let rec = cfg.rec;
    let upper = cfg.upper.unwrap_or(usize::MAX);
    let len = list.len();
    let claim = AtomicUsize::new(0);
    let quit = AtomicUsize::new(NO_QUIT);
    let iterations = AtomicU64::new(0);
    let hops = AtomicU64::new(0);
    let cancel = CancelFlag::new();
    let fault = FirstFault::new();
    let diverged = DivergedCell::new();

    let pool_out = pool.run_with(&cancel, |vpn| {
        let mut cur = list.guarded_cursor();
        let mut prev = 0usize; // the iteration the cursor points at
        loop {
            if cancel.is_cancelled() {
                break;
            }
            let i = claim.fetch_add(1, Ordering::Relaxed);
            if i >= upper || i > quit.load(Ordering::Acquire) {
                break;
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
            // `do j = 1, i − prev: pt = next(pt)` — private catch-up
            let h0 = R::ENABLED.then(Instant::now);
            if let Err(d) = cur.advance_by(i - prev) {
                diverged.record(d);
                cancel.cancel();
                break;
            }
            if R::ENABLED && i > prev {
                let cost = h0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                rec.record(
                    vpn,
                    Event::NextHop {
                        hops: (i - prev) as u64,
                        cost,
                    },
                );
            }
            prev = i;
            let Some(node) = cur.get() else { break };
            if i >= len {
                // a live node at logical position ≥ len is a revisit: the
                // chain is corrupted even if Brent has not looped yet
                diverged.record(DispatcherDiverged {
                    steps: cur.hops(),
                    budget: len as u64 + 1,
                    cycle: true,
                });
                cancel.cancel();
                break;
            }
            let b0 = R::ENABLED.then(Instant::now);
            let step = match catch_unwind(AssertUnwindSafe(|| body(i, node))) {
                Ok(s) => s,
                Err(pl) => {
                    fault.record(vpn, i, pl.as_ref());
                    cancel.cancel();
                    break;
                }
            };
            iterations.fetch_add(1, Ordering::Relaxed);
            if R::ENABLED {
                let cost = b0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                rec.record(
                    vpn,
                    Event::IterExecuted {
                        iter: i as u64,
                        cost,
                    },
                );
            }
            if let Step::Quit = step {
                quit.fetch_min(i, Ordering::AcqRel);
                if R::ENABLED {
                    rec.record(vpn, Event::Quit { iter: i as u64 });
                }
            }
        }
        hops.fetch_add(cur.hops(), Ordering::Relaxed);
        if R::ENABLED {
            rec.record(vpn, Event::Barrier { cost: 0 });
        }
    });

    let mut out = GeneralOutcome::new(
        iterations.load(Ordering::Relaxed) as usize,
        quit.load(Ordering::Acquire),
        hops.load(Ordering::Relaxed),
    );
    out.panic = fault.take().or_else(|| pool_out.into_first_panic());
    out.diverged = diverged.take();
    out
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

/// The Wu & Lewis loop-distribution baseline \[29\]: the dispatcher is
/// evaluated sequentially into an array, then the remainder runs as a
/// DOALL over the stored values. Works for any [`Dispatcher`]; `max`
/// bounds the precomputation (strip length).
pub fn wu_lewis_distribution<D, B>(pool: &Pool, d: &D, max: usize, body: B) -> GeneralOutcome
where
    D: Dispatcher,
    B: Fn(usize, &D::Value) + Sync,
{
    let values = crate::dispatch::evaluate_sequential(d, max);
    let n = values.len();
    let iterations = AtomicU64::new(0);
    let out = doall_dynamic(pool, n, |i, _| {
        body(i, &values[i]);
        iterations.fetch_add(1, Ordering::Relaxed);
        Step::Continue
    });
    GeneralOutcome {
        iterations: iterations.load(Ordering::Relaxed) as usize,
        quit: None,
        hops: n as u64,
        panic: out.panic,
        diverged: None,
        recovered: false,
    }
}

/// Fault-tolerant General-3 (the Section 5 exception rule applied to the
/// list strategies): runs [`general3_until`]; on a contained worker
/// panic, emits [`Event::SpecAbort`] with [`AbortReason::Exception`] and
/// re-executes the surviving loop *sequentially* on the caller's thread
/// over a guarded cursor. List bodies write each node's private output
/// slot, so re-running every iteration is idempotent — the "no backups or
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
    let Some(panic) = out.panic else {
        return out;
    };
    if R::ENABLED {
        rec.record(
            panic.vpn,
            Event::SpecAbort {
                reason: AbortReason::Exception,
                discarded: out.iterations as u64,
            },
        );
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
        panic: Some(panic),
        diverged,
        recovered: true,
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by iteration number is the semantics under test
mod tests {
    use super::*;
    use crate::dispatch::ListDispatcher;
    use std::sync::atomic::AtomicU32;

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
    fn wu_lewis_baseline_matches() {
        let list = ListArena::from_values_shuffled(0..200usize, 5);
        let d = ListDispatcher::new(&list);
        let hits: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        let out = wu_lewis_distribution(&pool(), &d, usize::MAX, |_i, node| {
            hits[list[*node]].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.iterations, 200);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(out.hops, 200);
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
        use std::sync::atomic::AtomicBool;
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
