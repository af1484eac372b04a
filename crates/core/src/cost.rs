//! The cost/performance model (Section 7).
//!
//! With `T_seq = T_rem + T_rec`, the ideal parallel time is
//!
//! * `T_ipar = (T_rem + T_rec)/p` for an induction dispatcher,
//! * `(T_rem + T_rec)/p + log p` for an associative dispatcher, and
//! * `T_rem/p + T_rec` for a general recurrence (dispatcher sequential).
//!
//! The run-time methods reduce the attainable speedup by overheads
//! incurred before (`T_b`, checkpointing), during (`T_d`, time-stamping and
//! shadow marking) and after (`T_a`, undo + PD analysis) the parallel
//! execution. With `a` accesses: `T_b ≈ T_a ≈ O(a/p)` (fully parallel),
//! `T_d = O(a / Sp_id)` (parallelizable only as far as the loop itself).
//! In the worst case (`Sp_id ≈ p`, access-dominated loop) the model yields
//! the paper's bounds `Sp_at = Sp_id/4` without the PD test and `Sp_id/5`
//! with it; a failed PD test costs an extra `≈ T_seq·5/p` on top of the
//! sequential re-execution — a slowdown proportional to `T_seq/p`.

use crate::taxonomy::Parallelism;

/// Inputs to the Section 7 model, in consistent (arbitrary) time units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Time of the loop remainder over the whole iteration space.
    pub t_rem: f64,
    /// Time to evaluate the entire dispatching recurrence.
    pub t_rec: f64,
    /// Processor count.
    pub p: usize,
    /// Dispatcher parallelism class (from the taxonomy).
    pub parallelism: Parallelism,
    /// Number of shared-array accesses in the loop (`a`); drives the
    /// overhead terms. Measured in the same time units (one access ≈ one
    /// unit of overhead work per method applied).
    pub accesses: f64,
    /// Whether the PD test is applied.
    pub uses_pd: bool,
}

/// The parallelize-or-not recommendation.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Parallelize; the expected (attainable) speedup.
    Parallelize {
        /// Predicted `Sp_at`.
        expected_speedup: f64,
    },
    /// Execute sequentially.
    Sequential {
        /// Why parallelization is not worthwhile.
        reason: String,
    },
}

impl CostModel {
    /// `T_seq = T_rem + T_rec`.
    pub fn t_seq(&self) -> f64 {
        self.t_rem + self.t_rec
    }

    /// Ideal parallel time `T_ipar` per the dispatcher class.
    pub fn t_ipar(&self) -> f64 {
        let p = self.p as f64;
        match self.parallelism {
            Parallelism::Full => (self.t_rem + self.t_rec) / p,
            Parallelism::ParallelPrefix => (self.t_rem + self.t_rec) / p + p.log2().max(0.0),
            Parallelism::Sequential => self.t_rem / p + self.t_rec,
        }
    }

    /// Ideal speedup `Sp_id = T_seq / T_ipar`.
    pub fn ideal_speedup(&self) -> f64 {
        self.t_seq() / self.t_ipar()
    }

    /// Overhead before the loop (`T_b`): checkpointing, fully parallel.
    pub fn t_before(&self) -> f64 {
        self.accesses / self.p as f64
    }

    /// Overhead during the loop (`T_d`): time-stamps/shadow marks, only as
    /// parallel as the loop itself.
    pub fn t_during(&self) -> f64 {
        self.accesses / self.ideal_speedup()
    }

    /// Overhead after the loop (`T_a`): undo, plus the PD post-execution
    /// analysis when applicable — both fully parallel.
    pub fn t_after(&self) -> f64 {
        let terms = if self.uses_pd { 2.0 } else { 1.0 };
        terms * self.accesses / self.p as f64
    }

    /// Attainable speedup `Sp_at = T_seq / (T_ipar + T_b + T_d + T_a)`.
    pub fn attainable_speedup(&self) -> f64 {
        self.t_seq() / (self.t_ipar() + self.t_before() + self.t_during() + self.t_after())
    }

    /// The paper's worst-case fraction of the ideal speedup: 1/4 without
    /// the PD test, 1/5 with it.
    pub fn worst_case_fraction(uses_pd: bool) -> f64 {
        if uses_pd {
            0.2
        } else {
            0.25
        }
    }

    /// Extra time (beyond `T_seq`) paid when the PD test fails and the loop
    /// re-runs sequentially: `≈ 5·T_seq/p` in the worst case — a slowdown
    /// proportional to `T_seq/p`.
    pub fn failure_penalty(&self) -> f64 {
        5.0 * self.t_seq() / self.p as f64
    }

    /// The Section 7 decision: parallelize unless there is not enough
    /// parallelism available. The two disqualifying cases the paper names:
    /// a general dispatcher whose evaluation dominates (`T_rem < T_rec`),
    /// and an expected speedup below `min_speedup`.
    pub fn decide(&self, min_speedup: f64) -> Decision {
        if self.parallelism == Parallelism::Sequential && self.t_rem < self.t_rec {
            return Decision::Sequential {
                reason: format!(
                    "loop is essentially the sequential dispatcher (T_rem {} < T_rec {})",
                    self.t_rem, self.t_rec
                ),
            };
        }
        let expected = self.attainable_speedup();
        if expected < min_speedup {
            return Decision::Sequential {
                reason: format!("expected speedup {expected:.2} below threshold {min_speedup:.2}"),
            };
        }
        Decision::Parallelize {
            expected_speedup: expected,
        }
    }
}

/// Predicts the iteration count of a WHILE loop from branch statistics:
/// if the back-edge (continue) probability is `p_continue`, the expected
/// trip count is `1 / (1 − p_continue)` — the paper's suggestion to reuse
/// superscalar branch-speculation data.
pub fn iterations_from_branch_stats(p_continue: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&p_continue),
        "continue probability must be in [0, 1)"
    );
    1.0 / (1.0 - p_continue)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access_dominated(p: usize, uses_pd: bool) -> CostModel {
        // the worst case: every cycle of the loop is a shared access
        CostModel {
            t_rem: 1000.0,
            t_rec: 0.0,
            p,
            parallelism: Parallelism::Full,
            accesses: 1000.0,
            uses_pd,
        }
    }

    #[test]
    fn worst_case_quarter_without_pd() {
        let m = access_dominated(8, false);
        let ratio = m.attainable_speedup() / m.ideal_speedup();
        assert!((ratio - 0.25).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn worst_case_fifth_with_pd() {
        let m = access_dominated(8, true);
        let ratio = m.attainable_speedup() / m.ideal_speedup();
        assert!((ratio - 0.20).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn light_access_loops_lose_little() {
        // bodies dominate: overhead is a sliver
        let m = CostModel {
            t_rem: 100_000.0,
            t_rec: 0.0,
            p: 8,
            parallelism: Parallelism::Full,
            accesses: 100.0,
            uses_pd: false,
        };
        let ratio = m.attainable_speedup() / m.ideal_speedup();
        assert!(ratio > 0.98, "ratio {ratio}");
    }

    #[test]
    fn general_dispatcher_caps_ideal_speedup() {
        let m = CostModel {
            t_rem: 800.0,
            t_rec: 200.0,
            p: 8,
            parallelism: Parallelism::Sequential,
            accesses: 0.0,
            uses_pd: false,
        };
        // Sp_id = 1000 / (800/8 + 200) = 3.33…
        assert!((m.ideal_speedup() - 1000.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn dispatcher_dominated_loop_is_rejected() {
        let m = CostModel {
            t_rem: 100.0,
            t_rec: 900.0,
            p: 8,
            parallelism: Parallelism::Sequential,
            accesses: 0.0,
            uses_pd: false,
        };
        assert!(matches!(m.decide(1.5), Decision::Sequential { .. }));
    }

    #[test]
    fn work_rich_loop_is_accepted() {
        let m = CostModel {
            t_rem: 10_000.0,
            t_rec: 10.0,
            p: 8,
            parallelism: Parallelism::Full,
            accesses: 100.0,
            uses_pd: true,
        };
        match m.decide(1.5) {
            Decision::Parallelize { expected_speedup } => {
                assert!(expected_speedup > 6.0, "got {expected_speedup}")
            }
            d => panic!("expected Parallelize, got {d:?}"),
        }
    }

    #[test]
    fn failure_penalty_shrinks_with_p() {
        let m8 = access_dominated(8, true);
        let m2 = access_dominated(2, true);
        assert!(m8.failure_penalty() < m2.failure_penalty());
        // the slowdown is small relative to Tseq for large p
        assert!(m8.failure_penalty() < m8.t_seq());
    }

    #[test]
    fn prefix_parallelism_pays_log_term() {
        let mk = |par| CostModel {
            t_rem: 1000.0,
            t_rec: 1000.0,
            p: 8,
            parallelism: par,
            accesses: 0.0,
            uses_pd: false,
        };
        assert!(
            mk(Parallelism::ParallelPrefix).ideal_speedup() < mk(Parallelism::Full).ideal_speedup()
        );
    }

    #[test]
    fn branch_stats_trip_count() {
        assert!((iterations_from_branch_stats(0.0) - 1.0).abs() < 1e-12);
        assert!((iterations_from_branch_stats(0.99) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "continue probability")]
    fn branch_stats_rejects_certain_loop() {
        let _ = iterations_from_branch_stats(1.0);
    }
}
