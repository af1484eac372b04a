//! Strategies for applying the techniques (Section 8).
//!
//! [`StatsStamping`] — statistics-enhanced stamping (Section 8.1): when a
//! compiler-supplied estimate `n̂` of the trip count exists, values
//! written by iterations below `x%·n̂` (where `x%` is the confidence in
//! the estimate) are very unlikely to need undoing, so their time-stamps
//! can be skipped.
//!
//! The rest of Section 8 — strip-mining, the sliding window and the
//! 1-processor/(p−1)-processor hedge — is modelled by the simulator
//! (`wlp-sim`), whose ablation figures compare them.

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
}
