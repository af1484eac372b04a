//! Induction-dispatcher methods (Section 3.1).
//!
//! When the dispatcher is an induction `d(i) = c·i + b`, every processor
//! evaluates it from the closed form, so the WHILE loop runs as a DOALL
//! with the termination test inlined:
//!
//! * **Induction-1** — no early exit support assumed from the machine: each
//!   processor keeps the lowest iteration *it* executed that met the
//!   termination condition (`L[vpn]`) and skips work for iterations above
//!   it; afterwards `LI = min(L)` is found by a parallel reduction.
//! * **Induction-2** — the optimized variant using the `QUIT` operation:
//!   the quitting iteration stops issue of larger iterations outright.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use wlp_obs::{Event, NoopRecorder, Recorder};
use wlp_runtime::{doall_with, parallel_min, DoallOptions, DoallOutcome, Pool, Step, WorkerPanic};

/// Result of an induction-method execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InductionOutcome {
    /// The first iteration at which the terminator held (the paper's `LI`);
    /// `None` if the loop ran its full range.
    pub last_valid: Option<usize>,
    /// Bodies executed (valid + overshot).
    pub executed: u64,
    /// One past the highest iteration begun.
    pub max_started: usize,
    /// First contained worker panic, if any — the underlying DOALL caught
    /// it at an iteration boundary and cancelled the run; `last_valid` is
    /// then unreliable and the caller must recover (see
    /// [`crate::recover::run_with_recovery`]).
    pub panic: Option<WorkerPanic>,
}

/// Induction-1: full-range DOALL with per-processor termination minima.
///
/// `term(i)` evaluates the termination condition for iteration `i` (for an
/// RV loop it may read state the bodies produce — that is precisely the
/// speculation this method supports); `body(i, vpn)` is the remainder.
/// Iterations above a processor's local minimum are skipped, but
/// processors do not learn each other's minima until the final reduction —
/// the overshoot cost of not having `QUIT`.
///
/// `opts.rec` is told each claim, terminator-only evaluation (`TermTest`),
/// executed body and the closing join. Terminator evaluations fused with a
/// body are folded into the body's `IterExecuted` cost, mirroring the
/// simulator's convention. With the default [`wlp_obs::NoopRecorder`]
/// every probe compiles away.
pub fn induction1<TF, BF, R>(
    pool: &Pool,
    upper: usize,
    opts: DoallOptions<'_, R>,
    term: TF,
    body: BF,
) -> InductionOutcome
where
    TF: Fn(usize) -> bool + Sync,
    BF: Fn(usize, usize) + Sync,
    R: Recorder,
{
    let l: Vec<AtomicUsize> = (0..pool.size())
        .map(|_| AtomicUsize::new(usize::MAX))
        .collect();
    let (out, executed) = induction_doall(pool, upper, opts, false, |i, vpn| {
        // iterations above the local minimum are claimed, but neither
        // tested nor run
        (l[vpn].load(Ordering::Relaxed) > i).then(|| {
            let hit = term(i);
            if hit {
                l[vpn].store(i, Ordering::Relaxed);
            } else {
                body(i, vpn);
            }
            hit
        })
    });
    let minima: Vec<usize> = l.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    let li = parallel_min(pool, &minima).filter(|&m| m != usize::MAX);
    InductionOutcome {
        last_valid: li,
        executed,
        max_started: out.max_started,
        panic: out.panic,
    }
}

/// Induction-2: DOALL with the software `QUIT` — iterations larger than the
/// smallest quitting one are not begun. Issue is ordered (dynamic) by
/// default; [`IssueOrder::Cyclic`](wlp_runtime::IssueOrder::Cyclic) in
/// `opts.order` gives the static assignment the paper contrasts against it
/// (iteration `i` on processor `i mod p`) — same semantics, potentially
/// larger spans of overshot iterations.
///
/// `opts.rec` is told each claim, terminator-only evaluation, executed
/// body, QUIT broadcast and the closing join.
///
/// ```
/// use wlp_core::induction::induction2;
/// use wlp_runtime::{DoallOptions, Pool};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// // while !(i*i > 1000) { work(i) } — an RI threshold terminator
/// let sum = AtomicU64::new(0);
/// let out = induction2(&Pool::new(4), 1_000_000, DoallOptions::default(), |i| i * i > 1000,
///     |i, _vpn| { sum.fetch_add(i as u64, Ordering::Relaxed); });
/// assert_eq!(out.last_valid, Some(32));          // 32² = 1024
/// assert_eq!(sum.load(Ordering::Relaxed), (0..32).sum::<u64>());
/// ```
pub fn induction2<TF, BF, R>(
    pool: &Pool,
    upper: usize,
    opts: DoallOptions<'_, R>,
    term: TF,
    body: BF,
) -> InductionOutcome
where
    TF: Fn(usize) -> bool + Sync,
    BF: Fn(usize, usize) + Sync,
    R: Recorder,
{
    let (out, executed) = induction_doall(pool, upper, opts, true, |i, vpn| {
        let hit = term(i);
        if !hit {
            body(i, vpn);
        }
        Some(hit)
    });
    InductionOutcome {
        last_valid: out.quit,
        executed,
        max_started: out.max_started,
        panic: out.panic,
    }
}

/// The DOALL both induction methods run, with their shared event
/// accounting. `iteration(i, vpn)` returns `None` for an iteration it
/// skipped, else whether the terminator held (the body ran iff it did
/// not); `quit` is the one difference between the methods — whether a
/// terminator hit issues `QUIT`. Returns the DOALL's outcome and the number
/// of bodies executed.
fn induction_doall<R: Recorder>(
    pool: &Pool,
    upper: usize,
    opts: DoallOptions<'_, R>,
    quit: bool,
    iteration: impl Fn(usize, usize) -> Option<bool> + Sync,
) -> (DoallOutcome, u64) {
    let rec = opts.rec;
    let executed = AtomicU64::new(0);
    // this layer records its own per-iteration events (a terminator hit is
    // a `TermTest`, not an executed body), so the DOALL runs unobserved
    let issue = DoallOptions {
        order: opts.order,
        rec: &NoopRecorder,
    };
    let out = doall_with(
        pool,
        upper,
        issue,
        |vpn| vpn,
        |i, &mut vpn| {
            let iter = i as u64;
            if R::ENABLED {
                rec.record(vpn, Event::IterClaimed { iter, cost: 0 });
            }
            let t0 = R::ENABLED.then(Instant::now);
            let Some(hit) = iteration(i, vpn) else {
                return Step::Continue;
            };
            if !hit {
                executed.fetch_add(1, Ordering::Relaxed);
            }
            if R::ENABLED {
                let cost = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                if hit {
                    rec.record(vpn, Event::TermTest { iter, cost });
                } else {
                    rec.record(vpn, Event::IterExecuted { iter, cost });
                }
                if hit && quit {
                    rec.record(vpn, Event::Quit { iter });
                }
            }
            if hit && quit {
                Step::Quit
            } else {
                Step::Continue
            }
        },
    );
    if R::ENABLED {
        for proc in 0..pool.size() {
            rec.record(proc, Event::Barrier { cost: 0 });
        }
    }
    (out, executed.load(Ordering::Relaxed))
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by iteration number is the semantics under test
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn pool() -> Pool {
        Pool::new(4)
    }

    #[test]
    fn induction1_finds_last_valid_iteration() {
        let out = induction1(
            &pool(),
            10_000,
            DoallOptions::default(),
            |i| i >= 137,
            |_, _| {},
        );
        assert_eq!(out.last_valid, Some(137));
    }

    #[test]
    fn induction1_executes_every_valid_iteration() {
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let out = induction1(
            &pool(),
            1000,
            DoallOptions::default(),
            |i| i >= 600,
            |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(out.last_valid, Some(600));
        for i in 0..600 {
            assert_eq!(hits[i].load(Ordering::Relaxed), 1, "iteration {i}");
        }
        // terminator-satisfying iterations never run the body
        for i in 600..1000 {
            assert_eq!(hits[i].load(Ordering::Relaxed), 0, "iteration {i}");
        }
    }

    #[test]
    fn induction1_no_termination_runs_full_range() {
        let out = induction1(&pool(), 500, DoallOptions::default(), |_| false, |_, _| {});
        assert_eq!(out.last_valid, None);
        assert_eq!(out.executed, 500);
    }

    #[test]
    fn induction2_quits_early() {
        let out = induction2(
            &pool(),
            1_000_000,
            DoallOptions::default(),
            |i| i >= 50,
            |_, _| {},
        );
        assert_eq!(out.last_valid, Some(50));
        assert_eq!(out.executed, 50, "exactly the valid bodies ran");
        // QUIT bounds issue tightly compared to the 1M range
        assert!(out.max_started < 50 + 64);
    }

    #[test]
    fn induction2_static_matches_semantics() {
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let cyclic = DoallOptions {
            order: wlp_runtime::IssueOrder::Cyclic,
            ..DoallOptions::default()
        };
        let out = induction2(
            &pool(),
            1000,
            cyclic,
            |i| i >= 300,
            |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        let li = out.last_valid.unwrap();
        assert!((300..304).contains(&li));
        for i in 0..300 {
            assert_eq!(hits[i].load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn induction_body_panic_is_contained_and_reported() {
        let out = induction2(
            &pool(),
            1000,
            DoallOptions::default(),
            |_| false,
            |i, _| {
                if i == 77 {
                    panic!("induction fault");
                }
            },
        );
        let wp = out.panic.expect("panic must surface in the outcome");
        assert_eq!(wp.iter, Some(77));
        assert_eq!(wp.message, "induction fault");
        assert!(out.executed < 1000, "cancellation curbs execution");

        let out = induction1(
            &pool(),
            1000,
            DoallOptions::default(),
            |_| false,
            |i, _| {
                if i == 77 {
                    panic!("induction fault");
                }
            },
        );
        assert!(out.panic.is_some(), "Induction-1 reports faults too");
    }

    #[test]
    fn induction_methods_agree_on_last_valid() {
        for exit in [0usize, 1, 7, 99] {
            let a = induction1(
                &pool(),
                200,
                DoallOptions::default(),
                move |i| i >= exit,
                |_, _| {},
            );
            let b = induction2(
                &pool(),
                200,
                DoallOptions::default(),
                move |i| i >= exit,
                |_, _| {},
            );
            assert_eq!(a.last_valid, Some(exit));
            assert_eq!(b.last_valid, Some(exit));
        }
    }

    #[test]
    fn rv_style_termination_reading_shared_state() {
        // terminator depends on values the bodies compute (RV): here the
        // bodies fill `flag` and the terminator reads it — races are fine
        // because Induction-1 only needs *some* valid minimum, refined by
        // the final reduction
        let flag: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let out = induction1(
            &pool(),
            1000,
            DoallOptions::default(),
            |i| flag[i].load(Ordering::Relaxed) == 1 && i >= 400,
            |i, _| {
                flag[i].store(1, Ordering::Relaxed);
            },
        );
        // the terminator may or may not have fired depending on timing; if
        // it did, it fired at an iteration ≥ 400
        if let Some(li) = out.last_valid {
            assert!(li >= 400);
        }
    }
}
