//! Scheduling certified fission plans on the runtime.
//!
//! This is the bridge from the static side ([`crate::fission`]) to the
//! threaded substrate: a [`FissionPlan`]'s work blocks become the stages
//! of a DOACROSS pipeline on the resident [`Pool`], with the grain
//! (iterations per wavefront sync cell) supplied by the [`Governor`]'s
//! grain ladder and the attempt outcome fed back into it.
//!
//! The stage order *is* the block order: every cross-block edge the
//! certifier emits points forward (`from_block < to_block`), and the
//! DOACROSS ordering — stage `s` of iteration `i` after stage `s` of
//! iteration `i−1` and stage `s−1` of iteration `i` — satisfies any
//! forward carried dependence of distance ≥ 1, so the plan's computed
//! sync distances are honored for free (they tell the scheduler how much
//! slack a looser schedule *could* exploit, not what it must add).
//!
//! Memory ordering: stage bodies communicate through the wavefront's
//! mutex (release on post, acquire on wait), so plain stores in one
//! stage are visible to the stage that waited on it; bodies need no
//! fences of their own.

use crate::fission::FissionPlan;
use wlp_obs::AbortReason;
use wlp_runtime::doacross::{doacross_with, DoacrossOptions, DoacrossOutcome};
use wlp_runtime::governor::Governor;
use wlp_runtime::Pool;

/// Runs `body(i, block)` for `0..upper` iterations with one DOACROSS
/// stage per certified work block, at the governor's current grain, and
/// records the outcome (success, contained panic → `Exception`, watchdog
/// expiry → `Timeout`) back into the governor so the grain ladder and
/// the strategy ladder both learn from the attempt.
///
/// `body(i, b)` must perform exactly the work of block `b`'s statements
/// at iteration `i`. Plans with no work blocks run as a single stage.
pub fn run_certified_blocks<F>(
    pool: &Pool,
    plan: &FissionPlan,
    upper: usize,
    governor: &mut Governor,
    body: F,
) -> DoacrossOutcome
where
    F: Fn(usize, usize) + Sync,
{
    let stages = plan.stages().max(1);
    let opts = DoacrossOptions {
        grain: governor.current_grain(),
        ..DoacrossOptions::default()
    };
    let out = doacross_with(pool, upper, stages, opts, body);
    if out.panic.is_some() {
        governor.record_failure(AbortReason::Exception);
    } else if out.timeout.is_some() {
        governor.record_failure(AbortReason::Timeout);
    } else {
        governor.record_success();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fission::fission_plan;
    use std::sync::atomic::{AtomicI64, Ordering};
    use wlp_ir::frontend::{lower, parse_program};
    use wlp_runtime::governor::GovernorPolicy;

    const WAVEFRONT: &str = "integer i = 1\nwhile (i < n) {\n    B[i] = B[i - 1] + w[i]\n    C[i] = B[i - 1] + 3\n    i = i + 1\n}";

    #[test]
    fn wavefront_blocks_schedule_doacross_and_match_sequential_semantics() {
        let body = lower(&parse_program(WAVEFRONT).expect("parse")).expect("lower");
        let plan = fission_plan(&body);
        assert_eq!(plan.stages(), 2);

        let n = 400usize;
        let w: Vec<i64> = (0..=n as i64).map(|i| i % 7).collect();
        // stage data: plain values behind the wavefront's release/acquire
        let b: Vec<AtomicI64> = (0..=n).map(|_| AtomicI64::new(0)).collect();
        let c: Vec<AtomicI64> = (0..=n).map(|_| AtomicI64::new(0)).collect();

        let pool = Pool::new(4);
        let mut gov = Governor::new(GovernorPolicy::default().with_grain(1, 16));
        // iterations are 1..n in source terms; shift by 1
        let out = run_certified_blocks(&pool, &plan, n - 1, &mut gov, |it, block| {
            let i = it + 1;
            match block {
                // block 0: B[i] = B[i-1] + w[i] (the recurrence stage)
                0 => {
                    let prev = b[i - 1].load(Ordering::Relaxed);
                    b[i].store(prev + w[i], Ordering::Relaxed);
                }
                // block 1: C[i] = B[i-1] + 3 (the consumer stage)
                _ => {
                    let prev = b[i - 1].load(Ordering::Relaxed);
                    c[i].store(prev + 3, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(out.executed, (n - 1) as u64);
        assert_eq!(out.panic, None);
        assert!(out.timeout.is_none());

        // reference: sequential interleaved execution
        let mut rb = vec![0i64; n + 1];
        let mut rc = vec![0i64; n + 1];
        for i in 1..n {
            rb[i] = rb[i - 1] + w[i];
            rc[i] = rb[i - 1] + 3;
        }
        for i in 1..n {
            assert_eq!(b[i].load(Ordering::Relaxed), rb[i], "B[{i}]");
            assert_eq!(c[i].load(Ordering::Relaxed), rc[i], "C[{i}]");
        }
    }

    #[test]
    fn repeated_clean_runs_walk_the_grain_ladder_up() {
        let body = lower(&parse_program(WAVEFRONT).expect("parse")).expect("lower");
        let plan = fission_plan(&body);
        let pool = Pool::new(2);
        let mut gov = Governor::new(GovernorPolicy::default().with_grain(1, 8));
        let mut grains = Vec::new();
        for _ in 0..12 {
            grains.push(gov.current_grain());
            run_certified_blocks(&pool, &plan, 64, &mut gov, |_, _| {});
        }
        assert_eq!(grains[0], 1);
        assert!(
            *grains.last().unwrap() > 1,
            "sustained success coarsens the grain: {grains:?}"
        );
    }

    #[test]
    fn a_panicking_stage_is_contained_and_collapses_the_grain() {
        let body = lower(&parse_program(WAVEFRONT).expect("parse")).expect("lower");
        let plan = fission_plan(&body);
        let pool = Pool::new(2);
        let mut gov = Governor::new(GovernorPolicy::default().with_grain(1, 8));
        for _ in 0..8 {
            run_certified_blocks(&pool, &plan, 32, &mut gov, |_, _| {});
        }
        assert!(gov.current_grain() > 1);
        let out = run_certified_blocks(&pool, &plan, 32, &mut gov, |i, _| {
            assert!(i != 7, "stage fault");
        });
        assert!(out.panic.is_some());
        assert_eq!(gov.current_grain(), 1, "failure resets the grain ladder");
        assert_eq!(gov.failures().exception, 1);
    }
}
