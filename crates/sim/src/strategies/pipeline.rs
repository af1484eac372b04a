//! DOACROSS pipeline simulation (Section 6 / Wu & Lewis pipelining).
//!
//! For loops whose remainder genuinely carries cross-iteration
//! dependences, the fallback is a pipeline: iteration `i`'s stage `s`
//! starts after iteration `i−1` finishes stage `s` (and after `i`'s own
//! stage `s−1`). With equal stage costs and `p ≥ stages` the asymptotic
//! speedup is the pipeline depth — the structural limit this replay
//! exhibits.

use super::common::{report, Stats};
use crate::engine::{Engine, Report, TimedMin};
use crate::spec::{LoopSpec, Overheads};

/// Replays a `stages`-deep DOACROSS pipeline over `spec` on `p`
/// processors: whole iterations are claimed dynamically, and each stage
/// waits for its wavefront predecessor. Stage costs split `work(i)`
/// evenly (remainder cycles go to the last stage).
///
/// # Panics
/// Panics if `stages == 0`.
pub fn sim_doacross(p: usize, spec: &LoopSpec, oh: &Overheads, stages: usize) -> Report {
    assert!(stages > 0, "need at least one stage");
    let mut eng = Engine::new(p);
    let mut stats = Stats::default();
    let quit = TimedMin::new();
    let n = spec.work_end();

    // completion time of each (iteration, stage)
    let mut done: Vec<Vec<u64>> = Vec::with_capacity(n);
    let mut claim = 0usize;
    let mut runnable = vec![true; p];
    while let Some(proc) = eng.next_proc(&runnable) {
        if claim >= n {
            runnable[proc] = false;
            continue;
        }
        let i = claim;
        claim += 1;
        eng.work(proc, oh.t_dispatch);
        let total = (spec.work)(i) + oh.t_term;
        let share = total / stages as u64;
        let mut finish = Vec::with_capacity(stages);
        #[allow(clippy::needless_range_loop)] // `s` is the stage number, not just an index
        for s in 0..stages {
            if i > 0 {
                eng.wait_until(proc, done[i - 1][s]);
            }
            let cost = if s + 1 == stages {
                total - share * (stages as u64 - 1)
            } else {
                share
            };
            eng.work(proc, cost);
            finish.push(eng.now(proc));
        }
        done.push(finish);
        stats.executed += 1;
    }

    report(&eng, spec, &quit, stats)
}

/// Replays a grained DOACROSS pipeline: `grain` consecutive iterations
/// share one wavefront cell, so one dispatch claim and one sync per
/// stage cover `grain` iterations — the simulator mirror of the
/// runtime's `DoacrossOptions::grain` and of the governor's grain ladder.
///
/// Coarser grain amortizes dispatch/sync overhead but lengthens pipeline
/// fill (the first chunk of a stage waits for a whole predecessor chunk,
/// not one iteration), so the sweet spot depends on the body-cost /
/// sync-cost ratio — exactly the trade-off the `fission` exhibit sweeps.
/// `grain <= 1` is the per-iteration pipeline of [`sim_doacross`].
///
/// # Panics
/// Panics if `stages == 0`.
pub fn sim_doacross_grained(
    p: usize,
    spec: &LoopSpec,
    oh: &Overheads,
    stages: usize,
    grain: usize,
) -> Report {
    assert!(stages > 0, "need at least one stage");
    let g = grain.max(1);
    if g == 1 {
        return sim_doacross(p, spec, oh, stages);
    }
    let mut eng = Engine::new(p);
    let mut stats = Stats::default();
    let quit = TimedMin::new();
    let n = spec.work_end();
    let chunks = n.div_ceil(g);

    // completion time of each (chunk, stage)
    let mut done: Vec<Vec<u64>> = Vec::with_capacity(chunks);
    let mut claim = 0usize;
    let mut runnable = vec![true; p];
    while let Some(proc) = eng.next_proc(&runnable) {
        if claim >= chunks {
            runnable[proc] = false;
            continue;
        }
        let c = claim;
        claim += 1;
        eng.work(proc, oh.t_dispatch);
        let lo = c * g;
        let hi = ((c + 1) * g).min(n);
        let total: u64 = (lo..hi).map(|i| (spec.work)(i) + oh.t_term).sum();
        let share = total / stages as u64;
        let mut finish = Vec::with_capacity(stages);
        #[allow(clippy::needless_range_loop)] // `s` is the stage number, not just an index
        for s in 0..stages {
            if c > 0 {
                eng.wait_until(proc, done[c - 1][s]);
            }
            let cost = if s + 1 == stages {
                total - share * (stages as u64 - 1)
            } else {
                share
            };
            eng.work(proc, cost);
            finish.push(eng.now(proc));
        }
        done.push(finish);
        stats.executed += (hi - lo) as u64;
    }

    report(&eng, spec, &quit, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::sim_sequential;

    #[test]
    fn pipeline_speedup_approaches_stage_count() {
        let spec = LoopSpec::uniform(4000, 80);
        let oh = Overheads::default();
        let seq = sim_sequential(&spec, &oh);
        let mut prev = 0.0;
        for stages in [1usize, 2, 4, 8] {
            let r = sim_doacross(8, &spec, &oh, stages);
            let s = r.speedup(&seq);
            assert!(s > prev, "more stages must help: {s:.2} at {stages}");
            assert!(
                s <= stages as f64 * 1.1,
                "pipeline depth bounds the speedup: {s:.2} for {stages} stages"
            );
            prev = s;
        }
        // deep pipeline gets close to its depth
        let r8 = sim_doacross(8, &spec, &oh, 8);
        assert!(r8.speedup(&seq) > 5.0, "got {:.2}", r8.speedup(&seq));
    }

    #[test]
    fn single_stage_pipeline_is_sequential_speed() {
        let spec = LoopSpec::uniform(500, 50);
        let oh = Overheads::default();
        let seq = sim_sequential(&spec, &oh);
        let r = sim_doacross(8, &spec, &oh, 1);
        let s = r.speedup(&seq);
        assert!(s <= 1.1, "a 1-stage wavefront cannot overlap: {s:.2}");
    }

    #[test]
    fn fewer_processors_than_stages_caps_at_p() {
        let spec = LoopSpec::uniform(2000, 80);
        let oh = Overheads::default();
        let seq = sim_sequential(&spec, &oh);
        let r = sim_doacross(2, &spec, &oh, 8);
        assert!(r.speedup(&seq) <= 2.0 * 1.1);
    }

    #[test]
    fn all_iterations_execute() {
        let spec = LoopSpec::uniform(333, 21);
        let r = sim_doacross(4, &spec, &Overheads::default(), 3);
        assert_eq!(r.executed, 333);
    }

    #[test]
    fn grain_one_is_the_per_iteration_pipeline() {
        let spec = LoopSpec::uniform(500, 40);
        let oh = Overheads::default();
        let a = sim_doacross(4, &spec, &oh, 2);
        let b = sim_doacross_grained(4, &spec, &oh, 2, 1);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn grained_pipeline_executes_everything_including_the_ragged_tail() {
        // 333 is not a multiple of 8: the last chunk is partial
        let spec = LoopSpec::uniform(333, 21);
        let r = sim_doacross_grained(4, &spec, &Overheads::default(), 3, 8);
        assert_eq!(r.executed, 333);
    }

    #[test]
    fn coarser_grain_amortizes_dispatch_on_cheap_bodies() {
        // body cost comparable to dispatch: per-iteration sync drowns in
        // overhead, chunking pays for itself
        let spec = LoopSpec::uniform(4000, 4);
        let oh = Overheads::default();
        let fine = sim_doacross_grained(4, &spec, &oh, 2, 1);
        let coarse = sim_doacross_grained(4, &spec, &oh, 2, 16);
        assert!(
            coarse.makespan < fine.makespan,
            "grain 16 ({}) should beat grain 1 ({}) on cheap bodies",
            coarse.makespan,
            fine.makespan
        );
    }
}
