//! Adaptive governance: demote a failing strategy before it wastes the
//! machine, probe re-promotion after it proves itself again.
//!
//! The paper's framework (Section 7) picks a strategy *once*, from
//! estimated probabilities of success. This module closes the loop at run
//! time: a [`Governor`] watches the per-attempt outcomes of one loop —
//! commits, dependence and exception aborts, contained panics, watchdog
//! timeouts, budget trips — over a sliding window, and walks the strategy
//! ladder
//!
//! ```text
//! speculative → windowed (halved window) → distribution → sequential
//! ```
//!
//! downward when the recent failure rate crosses a threshold. Each
//! demotion doubles a success-streak requirement (exponential backoff)
//! that must be met before the governor *probes* the next rung up again;
//! once the requirement would exceed [`GovernorPolicy::max_backoff`],
//! probing stops for good, so the governor always reaches a terminal
//! strategy — it cannot livelock between rungs. Sequential is absorbing
//! under failure: it has nothing left to demote to.
//!
//! The governor is deliberately a pure state machine (no clocks, no
//! threads): the runtime drives it with real outcomes, and a test can
//! drive the *same* type with any outcome sequence, so policy behaviour
//! is explored deterministically (`tests/governor_properties.rs`) before
//! it is trusted on a machine.

use crate::pool::Deadline;
use std::collections::VecDeque;
use wlp_obs::{AbortReason, StrategyChoice};

/// Tuning knobs for one [`Governor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorPolicy {
    /// Sliding-window length: how many recent attempts the failure count
    /// is taken over.
    pub window: usize,
    /// Demote when at least this many of the last [`window`] attempts
    /// failed (abort, panic, timeout, or budget trip).
    ///
    /// [`window`]: GovernorPolicy::window
    pub demote_threshold: usize,
    /// Success streak required before the first re-promotion probe.
    pub initial_backoff: u64,
    /// Once the (doubling) streak requirement exceeds this, the governor
    /// stops probing and the current rung becomes terminal.
    pub max_backoff: u64,
    /// Watchdog deadline applied to each governed parallel region, if any.
    pub deadline: Option<Deadline>,
    /// Undo-log budget (stamped writes) for each speculative attempt, if
    /// any.
    pub budget_writes: Option<u64>,
    /// Sliding-window size used when the ladder reaches
    /// [`StrategyChoice::Windowed`]; the governor runs that rung at half
    /// this value (never below 1), the "halved window" degraded mode.
    pub spec_window: usize,
    /// Starting DOACROSS grain: iterations executed per pipeline sync
    /// cell. Grain 1 synchronizes every iteration (maximum overlap,
    /// maximum sync cost); larger grains amortize the wavefront posts.
    pub initial_grain: usize,
    /// Largest grain the tuner may grow to.
    pub max_grain: usize,
    /// Consecutive committed attempts required per grain doubling.
    pub grain_streak: u64,
}

impl Default for GovernorPolicy {
    fn default() -> Self {
        GovernorPolicy {
            window: 8,
            demote_threshold: 2,
            initial_backoff: 2,
            max_backoff: 16,
            deadline: None,
            budget_writes: None,
            spec_window: 64,
            initial_grain: 1,
            max_grain: 64,
            grain_streak: 4,
        }
    }
}

impl GovernorPolicy {
    /// This policy with a watchdog deadline on every governed region.
    pub fn with_deadline(mut self, d: Deadline) -> Self {
        self.deadline = Some(d);
        self
    }

    /// This policy with an undo-log budget on every speculative attempt.
    pub fn with_budget(mut self, writes: u64) -> Self {
        self.budget_writes = Some(writes);
        self
    }

    /// This policy starting DOACROSS pipelines at `grain` iterations per
    /// sync cell, growing up to `max` on sustained success.
    pub fn with_grain(mut self, grain: usize, max: usize) -> Self {
        self.initial_grain = grain.max(1);
        self.max_grain = max.max(self.initial_grain);
        self
    }
}

/// A strategy change the governor decided on; the caller is responsible
/// for emitting the matching [`wlp_obs::Event::Demote`] /
/// [`wlp_obs::Event::Repromote`] so traces show the ladder walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The rung the loop was on.
    pub from: StrategyChoice,
    /// The rung the next attempt should use.
    pub to: StrategyChoice,
}

impl Transition {
    /// Whether this transition moved *down* the ladder.
    ///
    /// `StrategyChoice` derives `Ord` in ladder order — `Speculative`
    /// (top) is smallest — so moving down means a *larger* variant.
    pub fn is_demotion(&self) -> bool {
        self.to > self.from
    }
}

/// Cumulative failure counts, by cause, since the governor was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureCounts {
    /// Cross-iteration dependences detected after a speculative attempt.
    pub dependence: u64,
    /// Contained panics (the paper's exceptions).
    pub exception: u64,
    /// Watchdog deadline expiries.
    pub timeout: u64,
    /// Undo-log budget trips.
    pub budget: u64,
}

impl FailureCounts {
    /// Total failures across all causes.
    pub fn total(&self) -> u64 {
        self.dependence + self.exception + self.timeout + self.budget
    }
}

/// The per-loop adaptive state machine. See the module docs for the
/// ladder and the termination argument.
#[derive(Debug, Clone)]
pub struct Governor {
    policy: GovernorPolicy,
    current: StrategyChoice,
    /// Recent attempt outcomes, `true` = failure; bounded by
    /// `policy.window`.
    recent: VecDeque<bool>,
    /// Consecutive successes since the last failure.
    streak: u64,
    /// Success streak required before the next re-promotion probe.
    backoff: u64,
    /// While `true`, the governor may still probe upward; cleared forever
    /// once the backoff requirement exceeds `policy.max_backoff`.
    probing: bool,
    /// Current DOACROSS grain (iterations per pipeline sync cell).
    grain: usize,
    /// Committed attempts since the grain last changed.
    grain_run: u64,
    /// Demotions decided so far.
    demotions: u64,
    /// Re-promotion probes decided so far.
    repromotions: u64,
    /// Cumulative failures by cause.
    failures: FailureCounts,
}

impl Governor {
    /// A governor starting at the top rung ([`StrategyChoice::Speculative`]).
    pub fn new(policy: GovernorPolicy) -> Self {
        Governor {
            policy,
            current: StrategyChoice::Speculative,
            recent: VecDeque::with_capacity(policy.window.max(1)),
            streak: 0,
            backoff: policy.initial_backoff.max(1),
            probing: true,
            grain: policy.initial_grain.max(1),
            grain_run: 0,
            demotions: 0,
            repromotions: 0,
            failures: FailureCounts::default(),
        }
    }

    /// The DOACROSS grain the next pipelined attempt should run with:
    /// iterations per wavefront sync cell. Starts at
    /// [`GovernorPolicy::initial_grain`], doubles after every
    /// [`GovernorPolicy::grain_streak`] consecutive commits (amortizing
    /// sync posts once the schedule proves stable) up to
    /// [`GovernorPolicy::max_grain`], and collapses back to the initial
    /// grain on any failure — a coarse grain multiplies the work exposed
    /// to one fault or timeout, so trust must be re-earned.
    pub fn current_grain(&self) -> usize {
        self.grain
    }

    /// The rung the next attempt should run on.
    pub fn current(&self) -> StrategyChoice {
        self.current
    }

    /// The policy this governor enforces.
    pub fn policy(&self) -> &GovernorPolicy {
        &self.policy
    }

    /// The sliding-window size the [`StrategyChoice::Windowed`] rung
    /// should run with: half the configured `spec_window`, never below 1
    /// — the degraded mode the ladder demotes into.
    pub fn degraded_window(&self) -> usize {
        (self.policy.spec_window / 2).max(1)
    }

    /// Whether the governor can still move up the ladder.
    pub fn is_terminal(&self) -> bool {
        !self.probing || self.current == StrategyChoice::Speculative
    }

    /// Demotions decided so far.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Re-promotion probes decided so far.
    pub fn repromotions(&self) -> u64 {
        self.repromotions
    }

    /// Cumulative failures by cause.
    pub fn failures(&self) -> FailureCounts {
        self.failures
    }

    fn push(&mut self, failed: bool) {
        if self.policy.window == 0 {
            return;
        }
        if self.recent.len() == self.policy.window {
            self.recent.pop_front();
        }
        self.recent.push_back(failed);
    }

    fn window_failures(&self) -> usize {
        self.recent.iter().filter(|f| **f).count()
    }

    /// Records a committed attempt. Returns a re-promotion [`Transition`]
    /// when the success streak has earned a probe of the next rung up.
    pub fn record_success(&mut self) -> Option<Transition> {
        self.push(false);
        self.streak += 1;
        self.grain_run += 1;
        if self.grain_run >= self.policy.grain_streak.max(1) && self.grain < self.policy.max_grain {
            self.grain = (self.grain * 2).min(self.policy.max_grain.max(1));
            self.grain_run = 0;
        }
        if !self.probing || self.current == StrategyChoice::Speculative {
            return None;
        }
        if self.streak < self.backoff {
            return None;
        }
        let t = Transition {
            from: self.current,
            to: self.current.promoted(),
        };
        self.current = t.to;
        self.repromotions += 1;
        self.streak = 0;
        // A probe resets the evidence: the new rung is judged on its own
        // attempts, not on the rung that earned the probe.
        self.recent.clear();
        Some(t)
    }

    /// Records a failed attempt (the parallel execution had to be thrown
    /// away). Returns a demotion [`Transition`] when the recent failure
    /// count crosses the policy threshold and a lower rung exists.
    pub fn record_failure(&mut self, reason: AbortReason) -> Option<Transition> {
        match reason {
            AbortReason::Dependence => self.failures.dependence += 1,
            AbortReason::Exception => self.failures.exception += 1,
            AbortReason::Timeout => self.failures.timeout += 1,
            AbortReason::Budget => self.failures.budget += 1,
        }
        self.push(true);
        self.streak = 0;
        self.grain = self.policy.initial_grain.max(1);
        self.grain_run = 0;
        if self.window_failures() < self.policy.demote_threshold.max(1) {
            return None;
        }
        let to = self.current.demoted();
        if to == self.current {
            // Sequential: absorbing under failure.
            return None;
        }
        let t = Transition {
            from: self.current,
            to,
        };
        self.current = to;
        self.demotions += 1;
        self.recent.clear();
        // Exponential backoff before the next upward probe; once the
        // requirement overflows the cap, never probe again — this is what
        // guarantees a terminal strategy.
        self.backoff = self.backoff.saturating_mul(2);
        if self.backoff > self.policy.max_backoff {
            self.probing = false;
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> GovernorPolicy {
        GovernorPolicy {
            window: 4,
            demote_threshold: 2,
            initial_backoff: 2,
            max_backoff: 8,
            ..GovernorPolicy::default()
        }
    }

    #[test]
    fn sustained_failures_walk_the_whole_ladder_down() {
        let mut g = Governor::new(policy());
        let mut rungs = vec![g.current()];
        for _ in 0..64 {
            if let Some(t) = g.record_failure(AbortReason::Dependence) {
                assert!(t.is_demotion());
                rungs.push(t.to);
            }
        }
        assert_eq!(
            rungs,
            vec![
                StrategyChoice::Speculative,
                StrategyChoice::Windowed,
                StrategyChoice::Distribution,
                StrategyChoice::Sequential,
            ]
        );
        assert_eq!(g.current(), StrategyChoice::Sequential);
        assert_eq!(g.demotions(), 3);
        // sequential is absorbing
        assert_eq!(g.record_failure(AbortReason::Exception), None);
        assert_eq!(g.current(), StrategyChoice::Sequential);
    }

    #[test]
    fn isolated_failures_below_threshold_do_not_demote() {
        let mut g = Governor::new(policy());
        for _ in 0..16 {
            assert_eq!(g.record_failure(AbortReason::Dependence), None);
            for _ in 0..4 {
                // successes age the failure out of the window
                g.record_success();
            }
        }
        assert_eq!(g.current(), StrategyChoice::Speculative);
    }

    #[test]
    fn success_streak_earns_a_repromotion_probe() {
        let mut g = Governor::new(policy());
        g.record_failure(AbortReason::Timeout);
        g.record_failure(AbortReason::Timeout);
        assert_eq!(g.current(), StrategyChoice::Windowed);
        // backoff doubled to 4: three successes are not enough
        for _ in 0..3 {
            assert_eq!(g.record_success(), None);
        }
        let t = g.record_success().expect("fourth success earns the probe");
        assert!(!t.is_demotion());
        assert_eq!(t.to, StrategyChoice::Speculative);
        assert_eq!(g.repromotions(), 1);
    }

    #[test]
    fn backoff_cap_makes_the_current_rung_terminal() {
        let mut g = Governor::new(policy());
        // demote 3 times: backoff 2 → 4 → 8 → 16 > max_backoff (8)
        for _ in 0..6 {
            g.record_failure(AbortReason::Budget);
        }
        assert_eq!(g.current(), StrategyChoice::Sequential);
        assert!(g.is_terminal());
        for _ in 0..1_000 {
            assert_eq!(g.record_success(), None, "no probe after the cap");
        }
        assert_eq!(g.current(), StrategyChoice::Sequential);
    }

    #[test]
    fn transitions_are_finite_under_any_outcome_sequence() {
        // Adversarial driver: succeed just long enough to earn each probe,
        // then fail it immediately — the worst case for oscillation.
        let mut g = Governor::new(policy());
        let mut transitions = 0u64;
        for _ in 0..100_000 {
            let t = if g.current() == StrategyChoice::Speculative {
                g.record_failure(AbortReason::Dependence)
            } else {
                g.record_success()
            };
            if t.is_some() {
                transitions += 1;
            }
        }
        assert!(g.is_terminal(), "the ladder must settle");
        assert!(
            transitions < 20,
            "transition count must be bounded, saw {transitions}"
        );
    }

    #[test]
    fn failure_counts_attribute_causes() {
        let mut g = Governor::new(GovernorPolicy {
            demote_threshold: 100,
            ..policy()
        });
        g.record_failure(AbortReason::Dependence);
        g.record_failure(AbortReason::Exception);
        g.record_failure(AbortReason::Timeout);
        g.record_failure(AbortReason::Timeout);
        g.record_failure(AbortReason::Budget);
        let f = g.failures();
        assert_eq!(
            (f.dependence, f.exception, f.timeout, f.budget),
            (1, 1, 2, 1)
        );
        assert_eq!(f.total(), 5);
    }

    #[test]
    fn degraded_window_is_half_the_configured_one_never_zero() {
        let g = Governor::new(GovernorPolicy {
            spec_window: 10,
            ..policy()
        });
        assert_eq!(g.degraded_window(), 5);
        let g = Governor::new(GovernorPolicy {
            spec_window: 1,
            ..policy()
        });
        assert_eq!(g.degraded_window(), 1);
    }

    #[test]
    fn grain_doubles_on_sustained_success_and_caps_at_max() {
        let mut g = Governor::new(GovernorPolicy::default().with_grain(1, 8));
        assert_eq!(g.current_grain(), 1);
        let mut seen = vec![1];
        for _ in 0..40 {
            g.record_success();
            if *seen.last().unwrap() != g.current_grain() {
                seen.push(g.current_grain());
            }
        }
        assert_eq!(seen, vec![1, 2, 4, 8], "doubling ladder up to the cap");
        assert_eq!(g.current_grain(), 8, "stays at max_grain");
    }

    #[test]
    fn any_failure_collapses_the_grain_back_to_initial() {
        let mut g = Governor::new(GovernorPolicy::default().with_grain(2, 64));
        for _ in 0..16 {
            g.record_success();
        }
        assert!(g.current_grain() > 2);
        g.record_failure(AbortReason::Timeout);
        assert_eq!(g.current_grain(), 2, "coarse grain must re-earn trust");
    }

    #[test]
    fn with_grain_clamps_degenerate_requests() {
        let g = Governor::new(GovernorPolicy::default().with_grain(0, 0));
        assert_eq!(g.current_grain(), 1);
    }
}
