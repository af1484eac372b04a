//! Strategies for applying the techniques (Section 8).
//!
//! * [`StatsStamping`] — statistics-enhanced stamping (Section 8.1): when a
//!   compiler-supplied estimate `n̂` of the trip count exists, values
//!   written by iterations below `x%·n̂` (where `x%` is the confidence in
//!   the estimate) are very unlikely to need undoing, so their time-stamps
//!   can be skipped.
//! * [`hedged_execute`] — the 1-processor/(p−1)-processor solution
//!   (Section 8.3): one processor runs the loop sequentially while the rest
//!   run it in parallel on separate output copies; whichever finishes first
//!   wins and cancels the other.
//!
//! (Strip-mining and the sliding window — Sections 8.1/8.2 — are the
//! [`wlp_runtime::strip_mined`] and [`wlp_runtime::doall_windowed`]
//! schedulers, which the methods in this crate compose with.)

use std::sync::atomic::{AtomicU8, Ordering};
use wlp_runtime::CancelFlag;

/// The Section 8.1 stamping policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsStamping {
    /// Compiler/profile estimate of the trip count (`n̂`).
    pub estimated_iterations: f64,
    /// Confidence in the estimate, in `[0, 1]` (the paper's `x%`).
    pub confidence: f64,
}

impl StatsStamping {
    /// The first iteration whose writes must be time-stamped:
    /// `n′ = confidence · n̂` (iterations below it are presumed valid).
    pub fn start_stamping_at(&self) -> usize {
        assert!(
            (0.0..=1.0).contains(&self.confidence),
            "confidence must be in [0, 1]"
        );
        (self.confidence * self.estimated_iterations)
            .floor()
            .max(0.0) as usize
    }

    /// Whether iteration `i`'s writes need a time-stamp.
    pub fn should_stamp(&self, i: usize) -> bool {
        i >= self.start_stamping_at()
    }

    /// Expected fraction of stamped writes for a loop of `n` uniform-write
    /// iterations (the memory saving the policy buys).
    pub fn stamped_fraction(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let start = self.start_stamping_at().min(n);
        (n - start) as f64 / n as f64
    }
}

/// Who finished first in a hedged execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgeWinner {
    /// The sequential copy completed first.
    Sequential,
    /// The parallel copy completed first.
    Parallel,
}

/// Runs `seq` and `par` concurrently on separate threads, each against its
/// own output copy; the first to finish cancels the other (which must poll
/// its [`CancelFlag`] to stop early). Returns the winner — the caller
/// keeps that side's output. Both closures always return before this
/// function does, so partial loser state can be discarded safely.
pub fn hedged_execute<SF, PF>(seq: SF, par: PF) -> HedgeWinner
where
    SF: FnOnce(&CancelFlag) + Send,
    PF: FnOnce(&CancelFlag) + Send,
{
    const NONE: u8 = 0;
    const SEQ: u8 = 1;
    const PAR: u8 = 2;
    let winner = AtomicU8::new(NONE);
    let seq_token = CancelFlag::new();
    let par_token = CancelFlag::new();

    std::thread::scope(|s| {
        let w = &winner;
        let st = &seq_token;
        let pt = &par_token;
        s.spawn(move || {
            par(pt);
            if w.compare_exchange(NONE, PAR, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                st.cancel();
            }
        });
        seq(st);
        if winner
            .compare_exchange(NONE, SEQ, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            par_token.cancel();
        }
    });

    match winner.load(Ordering::Acquire) {
        SEQ => HedgeWinner::Sequential,
        PAR => HedgeWinner::Parallel,
        _ => unreachable!("someone must win"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamping_threshold_scales_with_confidence() {
        let s = StatsStamping {
            estimated_iterations: 1000.0,
            confidence: 0.9,
        };
        assert_eq!(s.start_stamping_at(), 900);
        assert!(!s.should_stamp(899));
        assert!(s.should_stamp(900));
        assert!((s.stamped_fraction(1000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_confidence_stamps_everything() {
        let s = StatsStamping {
            estimated_iterations: 1000.0,
            confidence: 0.0,
        };
        assert_eq!(s.start_stamping_at(), 0);
        assert!((s.stamped_fraction(500) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loop_shorter_than_threshold_stamps_nothing() {
        let s = StatsStamping {
            estimated_iterations: 1000.0,
            confidence: 0.9,
        };
        assert_eq!(s.stamped_fraction(800), 0.0);
        assert_eq!(s.stamped_fraction(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn confidence_out_of_range_panics() {
        let s = StatsStamping {
            estimated_iterations: 10.0,
            confidence: 1.5,
        };
        let _ = s.start_stamping_at();
    }

    #[test]
    fn hedge_fast_parallel_wins() {
        let winner = hedged_execute(
            |t| {
                // slow sequential, polls cancellation
                for _ in 0..1000 {
                    if t.is_cancelled() {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            },
            |_| {
                // instant parallel
            },
        );
        assert_eq!(winner, HedgeWinner::Parallel);
    }

    #[test]
    fn hedge_fast_sequential_wins() {
        let winner = hedged_execute(
            |_| {},
            |t| {
                for _ in 0..1000 {
                    if t.is_cancelled() {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            },
        );
        assert_eq!(winner, HedgeWinner::Sequential);
    }

    #[test]
    fn hedge_always_produces_a_winner() {
        for _ in 0..10 {
            let w = hedged_execute(|_| {}, |_| {});
            assert!(matches!(w, HedgeWinner::Sequential | HedgeWinner::Parallel));
        }
    }
}
