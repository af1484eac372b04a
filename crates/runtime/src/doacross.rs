//! DOACROSS: pipelined execution of loops with cross-iteration
//! dependences.
//!
//! When the dispatcher cannot be parallelized at all, the paper's fallback
//! (after Wu & Lewis) is to pipeline: iteration `i`'s stage `s` may start
//! only after iteration `i−1` has finished the same stage (and after
//! iteration `i`'s own earlier stages). Section 6 also schedules the
//! *sequential* loops produced by distribution "in a DOACROSS fashion"
//! against each other — the same mechanism with each distributed loop as a
//! stage.
//!
//! [`doacross`] dynamically assigns whole iterations to workers and
//! enforces the wavefront with per-iteration posted-stage counters.
//!
//! Fault containment: a panicking stage body is caught, raises the shared
//! [`CancelFlag`], and is reported through [`DoacrossOutcome::panic`]. The
//! hard part is the wavefront itself — a panicked iteration never posts,
//! so successors waiting on it would deadlock. Waiters therefore use a
//! short timed wait and re-check the cancel flag on every wakeup: the
//! clean path is still woken promptly by `post`'s `notify_all`, and the
//! fault path drains within one timeout tick.

use crate::doall::FaultCell;
use crate::pool::{CancelFlag, Pool, WorkerPanic, WorkerTimeout};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wlp_obs::{Event, NoopRecorder, Recorder};

/// Result of a DOACROSS execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoacrossOutcome {
    /// Iterations whose every stage ran to completion.
    pub executed: u64,
    /// First stage-body panic contained during the pipeline, if any. When
    /// set, iterations past the faulting one may be missing stages;
    /// callers holding a checkpoint should restore it and re-execute
    /// sequentially.
    pub panic: Option<WorkerPanic>,
    /// Deadline verdict, if the region overran its deadline (see
    /// [`Pool::with_deadline`](crate::pool::Pool::with_deadline)); like a
    /// panic, it invalidates the executed prefix.
    pub timeout: Option<WorkerTimeout>,
}

/// Cross-iteration synchronization state for a DOACROSS pipeline.
///
/// All posted-stage counters live behind a single mutex: a
/// `parking_lot::Condvar` may only ever be used with one mutex, so
/// per-iteration locks sharing one condvar would be unsound (and a
/// panicking waiter would deadlock the wavefront). The lock is held only
/// for counter reads/updates, so contention stays brief.
#[derive(Debug)]
struct Wavefront {
    /// `posted[i]` = number of stages iteration `i` has completed.
    posted: Mutex<Vec<usize>>,
    cv: Condvar,
    /// Smallest iteration whose body panicked (`usize::MAX` = none). Set
    /// *before* the cancel flag, so any waiter that observes the flag also
    /// observes the bound. Iterations `< fault_at` keep running to
    /// completion — the fault-path analogue of the QUIT contract —
    /// because they only ever wait on predecessors that are themselves
    /// below the bound.
    fault_at: AtomicUsize,
}

/// How long a wavefront waiter sleeps between cancel-flag re-checks. The
/// clean path never waits this long — `post` signals the condvar — so the
/// tick only bounds fault-drain latency.
const WAVEFRONT_TICK: Duration = Duration::from_millis(2);

impl Wavefront {
    fn new(n: usize) -> Self {
        Wavefront {
            posted: Mutex::new(vec![0; n]),
            cv: Condvar::new(),
            fault_at: AtomicUsize::new(usize::MAX),
        }
    }

    #[inline]
    fn fault_bound(&self) -> usize {
        self.fault_at.load(Ordering::Acquire)
    }

    fn record_fault(&self, i: usize) {
        self.fault_at.fetch_min(i, Ordering::AcqRel);
    }

    /// Blocks until iteration `own − 1` has posted at least `stage + 1`
    /// stages. Returns `false` (give up) if `own` is at or past a fault
    /// bound — its predecessor may never post — or if the run was
    /// cancelled by a non-body fault. Out-of-range indices count as
    /// give-up rather than panicking while holding the lock.
    fn wait_for(&self, own: usize, stage: usize, cancel: &CancelFlag) -> bool {
        debug_assert!(own > 0);
        let mut posted = self.posted.lock();
        loop {
            match posted.get(own - 1) {
                Some(&done) if done > stage => return true,
                Some(_) => {}
                None => return false,
            }
            if own >= self.fault_bound() {
                return false;
            }
            if cancel.is_cancelled() && self.fault_bound() == usize::MAX {
                // cancelled without a body fault (external cancellation or
                // a panic outside the body): no completion guarantee holds
                return false;
            }
            // Timed wait: a panicked predecessor never posts, so a plain
            // wait could sleep forever. Re-check the exit conditions each
            // tick.
            self.cv.wait_for(&mut posted, WAVEFRONT_TICK);
        }
    }

    /// Marks iteration `i`'s `stage` complete. Tolerates (ignores) an
    /// out-of-range index instead of panicking while holding the lock.
    fn post(&self, i: usize, stage: usize) {
        let mut posted = self.posted.lock();
        if let Some(slot) = posted.get_mut(i) {
            debug_assert_eq!(*slot, stage, "stages post in order");
            *slot = stage + 1;
        }
        drop(posted);
        self.cv.notify_all();
    }
}

/// The options of a DOACROSS pipeline: its synchronization grain and who
/// observes the run.
#[derive(Debug)]
pub struct DoacrossOptions<'r, R = NoopRecorder> {
    /// Iterations per wavefront post (clamped to ≥ 1): at grain `g` the
    /// iterations are grouped into chunks of `g` consecutive ones and stage
    /// `s` of chunk `c` waits on stage `s` of chunk `c−1`. A coarser grain
    /// divides the sync posts (and their lock traffic) by `g`, at the price
    /// of `g−1` iterations of lost pipeline overlap at each stage boundary.
    /// The caller picks it; the `fission` exhibit sweeps it.
    pub grain: usize,
    /// Receives each claim, wavefront stall (recorded as a `LockWait`) and
    /// completed unit of work. Indices are chunk numbers when `grain > 1`.
    /// With [`NoopRecorder`] every probe compiles away.
    pub rec: &'r R,
}

impl Default for DoacrossOptions<'static> {
    fn default() -> Self {
        DoacrossOptions {
            grain: 1,
            rec: &NoopRecorder,
        }
    }
}

/// Executes `0..upper` iterations of `stages` pipeline stages each, with
/// the DOACROSS ordering: stage `s` of iteration `i` runs after stage `s`
/// of iteration `i−1` and after stage `s−1` of iteration `i`. Iterations
/// are claimed dynamically; `body(i, s)` performs one stage.
/// [`doacross_with`] under its default options.
///
/// The ordering guarantees make cross-iteration flow dependences safe as
/// long as each dependence source is in a stage `≤` its sink's stage.
///
/// A panicking stage body is contained and reported through the outcome;
/// the wavefront drains instead of deadlocking.
///
/// # Panics
/// Panics if `stages == 0`.
pub fn doacross<F>(pool: &Pool, upper: usize, stages: usize, body: F) -> DoacrossOutcome
where
    F: Fn(usize, usize) + Sync,
{
    doacross_with(pool, upper, stages, DoacrossOptions::default(), body)
}

/// [`doacross`] with a tunable grain and a recorder (see
/// [`DoacrossOptions`]).
///
/// Correctness: chunked synchronization is strictly *stronger* than
/// per-iteration synchronization for forward cross-iteration dependences
/// of any distance ≥ 1, so any dependence safe under [`doacross`] stays
/// safe at every grain. Memory ordering: `body`'s writes are published to
/// the waiting stage through the wavefront's mutex (release on post,
/// acquire on wait) — stage bodies need no fences of their own.
///
/// `executed` is reported in iterations; when `panic`/`timeout` are set
/// the executed prefix is invalid and callers should restore their
/// checkpoint.
///
/// # Panics
/// Panics if `stages == 0`.
pub fn doacross_with<R, F>(
    pool: &Pool,
    upper: usize,
    stages: usize,
    opts: DoacrossOptions<'_, R>,
    body: F,
) -> DoacrossOutcome
where
    R: Recorder,
    F: Fn(usize, usize) + Sync,
{
    let g = opts.grain.max(1);
    if g == 1 {
        return pipeline(pool, upper, stages, opts.rec, body);
    }
    let out = pipeline(pool, upper.div_ceil(g), stages, opts.rec, |c, s| {
        let lo = c * g;
        let hi = (lo + g).min(upper);
        for i in lo..hi {
            body(i, s);
        }
    });
    DoacrossOutcome {
        executed: (out.executed * g as u64).min(upper as u64),
        ..out
    }
}

/// The wavefront pipeline over `0..upper` units of work (iterations, or
/// chunks of them) both entry points run.
fn pipeline<R, F>(pool: &Pool, upper: usize, stages: usize, rec: &R, body: F) -> DoacrossOutcome
where
    R: Recorder,
    F: Fn(usize, usize) + Sync,
{
    assert!(stages > 0, "need at least one stage");
    if upper == 0 {
        return DoacrossOutcome {
            executed: 0,
            panic: None,
            timeout: None,
        };
    }
    let wave = Wavefront::new(upper);
    let claim = AtomicUsize::new(0);
    let executed = AtomicU64::new(0);
    let cancel = CancelFlag::new();
    let fault = FaultCell::new();

    let pool_out = pool.run_with(&cancel, |vpn| {
        let mut local_exec = 0u64;
        loop {
            if cancel.is_cancelled() && wave.fault_bound() == usize::MAX {
                break;
            }
            let i = claim.fetch_add(1, Ordering::Relaxed);
            if i >= upper || i >= wave.fault_bound() {
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
            let t0 = R::ENABLED.then(Instant::now);
            let mut waited = 0u64;
            let mut completed = true;
            for s in 0..stages {
                if i > 0 {
                    let w0 = R::ENABLED.then(Instant::now);
                    let ok = wave.wait_for(i, s, &cancel);
                    if let Some(w) = w0 {
                        waited += w.elapsed().as_nanos() as u64;
                    }
                    if !ok {
                        completed = false;
                        break;
                    }
                }
                match catch_unwind(AssertUnwindSafe(|| body(i, s))) {
                    Ok(()) => wave.post(i, s),
                    Err(p) => {
                        fault.record(vpn, i, p.as_ref());
                        wave.record_fault(i);
                        cancel.cancel();
                        completed = false;
                        break;
                    }
                }
            }
            if !completed {
                break;
            }
            local_exec += 1;
            if R::ENABLED {
                let total = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                if waited > 0 {
                    rec.record(vpn, Event::LockWait { dur: waited });
                }
                rec.record(
                    vpn,
                    Event::IterExecuted {
                        iter: i as u64,
                        cost: total.saturating_sub(waited),
                    },
                );
            }
        }
        if R::ENABLED {
            rec.record(vpn, Event::Barrier { cost: 0 });
        }
        executed.fetch_add(local_exec, Ordering::Relaxed);
    });

    let timeout = pool_out.timeout().cloned();
    DoacrossOutcome {
        executed: executed.load(Ordering::Relaxed),
        panic: fault.take().or_else(|| pool_out.into_first_panic()),
        timeout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn grained_pipeline_computes_the_same_recurrence_at_every_grain() {
        // x[i] = x[i-1] + i at grains 1, 3, 8, 64 (64 > n/chunks edge) —
        // chunked sync is strictly stronger, so every grain must agree
        let n = 300usize;
        let pool = Pool::new(4);
        for grain in [1usize, 3, 8, 64] {
            let xs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let opts = DoacrossOptions {
                grain,
                ..Default::default()
            };
            let out = doacross_with(&pool, n, 1, opts, |i, _| {
                let prev = if i == 0 {
                    0
                } else {
                    xs[i - 1].load(Ordering::Acquire)
                };
                xs[i].store(prev + i as u64, Ordering::Release);
            });
            assert_eq!(out.executed, n as u64, "grain {grain}");
            assert_eq!(out.panic, None, "grain {grain}");
            let mut expect = 0u64;
            for (i, x) in xs.iter().enumerate() {
                expect += i as u64;
                assert_eq!(x.load(Ordering::Relaxed), expect, "grain {grain} iter {i}");
            }
        }
    }

    #[test]
    fn grain_zero_is_clamped_to_one() {
        let pool = Pool::new(2);
        let hits = AtomicU64::new(0);
        let opts = DoacrossOptions {
            grain: 0,
            ..Default::default()
        };
        let out = doacross_with(&pool, 10, 1, opts, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.executed, 10);
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn recorded_pipeline_reports_every_claim_body_and_join() {
        use wlp_obs::{BufferRecorder, ProfileReport};
        let pool = Pool::new(3);
        let rec = BufferRecorder::new(3);
        let opts = DoacrossOptions {
            grain: 4,
            rec: &rec,
        };
        let out = doacross_with(&pool, 100, 2, opts, |_, _| {});
        assert_eq!(out.executed, 100);
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.executed, 25, "recorded per chunk at grain 4");
        assert_eq!(report.claimed, report.executed);
        assert_eq!(report.barriers, 3, "one join event per worker");
        report.check_conservation().expect("laws hold");
    }

    #[test]
    fn recurrence_computes_correctly_through_the_pipeline() {
        // x[i] = x[i-1] + i: a genuine cross-iteration flow dependence,
        // safe under DOACROSS ordering
        let n = 2000usize;
        let xs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let pool = Pool::new(4);
        let out = doacross(&pool, n, 1, |i, _| {
            let prev = if i == 0 {
                0
            } else {
                xs[i - 1].load(Ordering::Acquire)
            };
            xs[i].store(prev + i as u64, Ordering::Release);
        });
        assert_eq!(out.executed, n as u64);
        assert_eq!(out.panic, None);
        let mut expect = 0u64;
        for (i, x) in xs.iter().enumerate() {
            expect += i as u64;
            assert_eq!(x.load(Ordering::Relaxed), expect, "iteration {i}");
        }
    }

    #[test]
    fn two_stage_pipeline_overlaps_but_preserves_order() {
        // stage 0 is a recurrence; stage 1 consumes stage 0 of the same
        // iteration — classic software pipeline
        let n = 500usize;
        let a: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let b: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let pool = Pool::new(4);
        doacross(&pool, n, 2, |i, s| match s {
            0 => {
                let prev = if i == 0 {
                    1
                } else {
                    a[i - 1].load(Ordering::Acquire)
                };
                a[i].store(prev.wrapping_mul(3) % 1_000_003, Ordering::Release);
            }
            _ => {
                b[i].store(a[i].load(Ordering::Acquire) * 2, Ordering::Release);
            }
        });
        let mut x = 1u64;
        for i in 0..n {
            x = x.wrapping_mul(3) % 1_000_003;
            assert_eq!(a[i].load(Ordering::Relaxed), x);
            assert_eq!(b[i].load(Ordering::Relaxed), 2 * x);
        }
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        doacross(&pool, 10, 2, |i, s| order.lock().push((i, s)));
        let order = order.into_inner();
        assert_eq!(order.len(), 20);
        // (i, s) comes after (i, s-1)
        for i in 0..10 {
            let p0 = order.iter().position(|&x| x == (i, 0)).unwrap();
            let p1 = order.iter().position(|&x| x == (i, 1)).unwrap();
            assert!(p0 < p1);
        }
    }

    #[test]
    fn empty_range_is_a_noop() {
        let pool = Pool::new(4);
        let out = doacross(&pool, 0, 3, |_, _| panic!("no iterations"));
        assert_eq!(out.executed, 0);
        assert_eq!(out.panic, None);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        let pool = Pool::new(2);
        doacross(&pool, 5, 0, |_, _| {});
    }

    #[test]
    fn stage_panic_does_not_deadlock_the_wavefront() {
        // Iteration 50 panics in stage 0 and never posts; iterations 51..
        // wait on it. Without cancellation-aware waits this hangs forever.
        let n = 500usize;
        let pool = Pool::new(4);
        let ran = AtomicU64::new(0);
        let out = doacross(&pool, n, 2, |i, s| {
            if i == 50 && s == 0 {
                panic!("injected stage fault");
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
        let wp = out.panic.expect("fault must be reported");
        assert_eq!(wp.iter, Some(50));
        assert_eq!(wp.message, "injected stage fault");
        // the wavefront prefix below the fault is intact
        assert!(out.executed >= 50, "iterations 0..50 all complete");
        assert!(out.executed < n as u64, "issue stops after the fault");
    }

    #[test]
    fn pipeline_prefix_below_a_fault_is_complete() {
        // Everything ordered before the faulting iteration must have run:
        // the DOACROSS analogue of the QUIT contract.
        let n = 200usize;
        let xs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let pool = Pool::new(4);
        let out = doacross(&pool, n, 1, |i, _| {
            if i == 120 {
                panic!("fault at 120");
            }
            let prev = if i == 0 {
                0
            } else {
                xs[i - 1].load(Ordering::Acquire)
            };
            xs[i].store(prev + 1, Ordering::Release);
        });
        assert!(out.panic.is_some());
        for (i, x) in xs.iter().take(120).enumerate() {
            assert_eq!(x.load(Ordering::Relaxed), i as u64 + 1, "iteration {i}");
        }
    }
}
