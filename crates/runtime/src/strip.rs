//! Strip-mined execution (Sections 3, 4 and 8.1 of the paper).
//!
//! Strip-mining bounds both the number of precomputed dispatcher terms and
//! the time-stamp memory: execute iterations `0..s`, synchronize, then
//! `s..2s`, and so on, stopping after the strip in which the termination
//! condition fires. The paper warns that the inter-strip synchronization
//! barriers can significantly reduce the obtainable parallelism — the
//! `strips_run` count lets the cost model and the ablation benchmarks charge
//! for exactly that.

use crate::doall::{doall_with, DoallOptions, DoallOutcome, Step};
use crate::pool::Pool;
use wlp_obs::Recorder;

/// Result of a strip-mined loop execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripOutcome {
    /// Combined outcome over all strips (global iteration indices).
    pub outcome: DoallOutcome,
    /// Number of strips executed (= number of barrier episodes).
    pub strips_run: usize,
}

/// Re-bases the per-strip iteration indices a nested DOALL records onto
/// the global iteration space of the strip-mined loop.
struct ShiftedRecorder<'a, R> {
    rec: &'a R,
    offset: u64,
}

impl<R: Recorder> Recorder for ShiftedRecorder<'_, R> {
    const ENABLED: bool = R::ENABLED;

    fn record(&self, proc: usize, event: wlp_obs::Event) {
        use wlp_obs::Event::*;
        let event = match event {
            IterClaimed { iter, cost } => IterClaimed {
                iter: iter + self.offset,
                cost,
            },
            ChunkClaimed { lo, len, cost } => ChunkClaimed {
                lo: lo + self.offset,
                len,
                cost,
            },
            IterExecuted { iter, cost } => IterExecuted {
                iter: iter + self.offset,
                cost,
            },
            TermTest { iter, cost } => TermTest {
                iter: iter + self.offset,
                cost,
            },
            IterUndone { iter } => IterUndone {
                iter: iter + self.offset,
            },
            Quit { iter } => Quit {
                iter: iter + self.offset,
            },
            other => other,
        };
        self.rec.record(proc, event);
    }
}

/// Executes `0..upper` in strips of `strip` iterations. Each strip is a
/// [`doall_with`] under `opts`; execution stops after the first strip that
/// contains a QUIT. Iterations beyond the quitting one *within the same
/// strip* may still run (intra-strip overshoot), but no later strip starts
/// — this is the memory/overshoot bound the paper derives: at most `s × a`
/// stamped writes, where `a` is writes per iteration. A chunk policy in
/// `opts.order` amortizes the shared-counter traffic inside each strip; the
/// strip boundary is unchanged — a chunk never crosses a strip.
///
/// `opts.rec` sees each strip as a recorded DOALL (claims, chunk grants,
/// bodies, QUITs, the closing barrier of every strip — one barrier event
/// per worker per strip, mirroring the barrier count in `strips_run`).
/// Iteration indices in recorded events are *global* (the strip offset is
/// applied before recording), so traces line up with the simulator's.
///
/// # Panics
/// Panics if `strip == 0`.
pub fn strip_mined<R, F>(
    pool: &Pool,
    upper: usize,
    strip: usize,
    opts: DoallOptions<'_, R>,
    body: F,
) -> StripOutcome
where
    R: Recorder,
    F: Fn(usize, usize) -> Step + Sync,
{
    assert!(strip > 0, "strip size must be positive");
    let mut executed = 0u64;
    let mut max_started = 0usize;
    let mut quit: Option<usize> = None;
    let mut strips_run = 0usize;
    let mut panic = None;
    let mut timeout = None;

    let mut lo = 0usize;
    while lo < upper {
        let hi = (lo + strip).min(upper);
        let shifted = ShiftedRecorder {
            rec: opts.rec,
            offset: lo as u64,
        };
        let strip_opts = DoallOptions {
            order: opts.order,
            rec: &shifted,
        };
        let out = doall_with(
            pool,
            hi - lo,
            strip_opts,
            |vpn| vpn,
            |local, vpn| body(lo + local, *vpn),
        );
        strips_run += 1;
        executed += out.executed;
        max_started = max_started.max(lo + out.max_started);
        if let Some(mut wp) = out.panic {
            // re-base the per-strip iteration index, like ShiftedRecorder
            wp.iter = wp.iter.map(|i| lo + i);
            panic = Some(wp);
        }
        if let Some(mut to) = out.timeout {
            to.iter = to.iter.map(|i| lo + i);
            timeout = Some(to);
        }
        if panic.is_some() || timeout.is_some() {
            // A faulted or overdue strip ends the run — like a panic, the
            // executed prefix is no longer trustworthy.
            break;
        }
        if let Some(q) = out.quit {
            quit = Some(lo + q);
            break;
        }
        lo = hi;
    }

    StripOutcome {
        outcome: DoallOutcome {
            quit,
            executed,
            max_started,
            panic,
            timeout,
        },
        strips_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkPolicy;
    use crate::doall::IssueOrder;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn strips_cover_everything_without_quit() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let out = strip_mined(&pool, 100, 7, DoallOptions::default(), |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Step::Continue
        });
        assert_eq!(out.outcome.executed, 100);
        assert_eq!(out.strips_run, 100usize.div_ceil(7));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(out.outcome.quit, None);
    }

    #[test]
    fn quit_stops_after_its_strip() {
        let pool = Pool::new(4);
        let out = strip_mined(&pool, 1000, 10, DoallOptions::default(), |i, _| {
            if i == 25 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.outcome.quit, Some(25));
        // strips 0..10, 10..20, 20..30 ran; nothing from 30 onward
        assert_eq!(out.strips_run, 3);
        assert!(out.outcome.max_started <= 30);
        // overshoot is bounded by the strip size
        assert!(out.outcome.max_started - 25 <= 10);
    }

    #[test]
    fn strip_larger_than_range_is_one_strip() {
        let pool = Pool::new(2);
        let out = strip_mined(&pool, 5, 100, DoallOptions::default(), |_, _| {
            Step::Continue
        });
        assert_eq!(out.strips_run, 1);
        assert_eq!(out.outcome.executed, 5);
    }

    #[test]
    fn global_indices_are_passed_to_body() {
        let pool = Pool::new(3);
        let seen: Vec<AtomicU32> = (0..30).map(|_| AtomicU32::new(0)).collect();
        strip_mined(&pool, 30, 4, DoallOptions::default(), |i, _| {
            seen[i].store(i as u32 + 1, Ordering::Relaxed);
            Step::Continue
        });
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), i as u32 + 1);
        }
    }

    #[test]
    fn empty_range_runs_zero_strips() {
        let pool = Pool::new(2);
        let out = strip_mined(&pool, 0, 10, DoallOptions::default(), |_, _| Step::Continue);
        assert_eq!(out.strips_run, 0);
        assert_eq!(out.outcome.executed, 0);
    }

    #[test]
    #[should_panic(expected = "strip size must be positive")]
    fn zero_strip_panics() {
        let pool = Pool::new(2);
        let _ = strip_mined(&pool, 10, 0, DoallOptions::default(), |_, _| Step::Continue);
    }

    #[test]
    fn chunked_strips_match_one_at_a_time_and_keep_the_strip_bound() {
        let pool = Pool::new(4);
        for policy in [ChunkPolicy::Fixed(4), ChunkPolicy::Guided { min: 2 }] {
            let hits: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
            let opts = DoallOptions {
                order: IssueOrder::Dynamic(policy),
                ..DoallOptions::default()
            };
            let out = strip_mined(&pool, 200, 25, opts, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if i == 60 {
                    Step::Quit
                } else {
                    Step::Continue
                }
            });
            assert_eq!(out.outcome.quit, Some(60), "{policy:?}");
            assert_eq!(
                out.strips_run, 3,
                "{policy:?}: strips 0..25, 25..50, 50..75"
            );
            assert!(
                out.outcome.max_started <= 75,
                "{policy:?}: a chunk must not cross its strip"
            );
            for (i, h) in hits.iter().enumerate().take(50) {
                assert_eq!(h.load(Ordering::Relaxed), 1, "{policy:?}: iteration {i}");
            }
            for (i, h) in hits.iter().enumerate().skip(75) {
                assert_eq!(h.load(Ordering::Relaxed), 0, "{policy:?}: iteration {i}");
            }
        }
    }

    #[test]
    fn panic_stops_after_its_strip_and_is_rebased() {
        let pool = Pool::new(4);
        let out = strip_mined(&pool, 1000, 10, DoallOptions::default(), |i, _| {
            if i == 25 {
                panic!("strip fault");
            }
            Step::Continue
        });
        let wp = out.outcome.panic.expect("fault must be reported");
        assert_eq!(
            wp.iter,
            Some(25),
            "iteration index is global, not per-strip"
        );
        assert_eq!(wp.message, "strip fault");
        // strips 0..10, 10..20, 20..30 ran; nothing from 30 onward
        assert_eq!(out.strips_run, 3);
        assert!(out.outcome.max_started <= 30);
    }
}
