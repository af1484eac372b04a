//! DOACROSS pipeline simulation (Section 6 / Wu & Lewis pipelining).
//!
//! For loops whose remainder genuinely carries cross-iteration
//! dependences, the fallback is a pipeline: iteration `i`'s stage `s`
//! starts after iteration `i−1` finishes stage `s` (and after `i`'s own
//! stage `s−1`). With equal stage costs and `p ≥ stages` the asymptotic
//! speedup is the pipeline depth — the structural limit this replay
//! exhibits.

use super::driver::{Counter, Grant, Sim};
use crate::spec::ChunkPolicy;
use wlp_obs::Event;

/// The DOACROSS wavefront: sync cells of `grain` consecutive iterations
/// are claimed dynamically with one dispatch per cell, and each stage of a
/// cell waits for the same stage of its predecessor. Stage costs split the
/// cell's `work + t_term` evenly (remainder cycles go to the last stage).
///
/// Events follow the threaded `doacross`: a stage stall is a `LockWait`,
/// and each iteration's body time is one `IterExecuted` stamped when the
/// cell's last stage completes.
///
/// # Panics
/// Panics if `stages == 0`.
pub(crate) fn doacross(sim: &mut Sim, stages: usize, grain: usize) {
    assert!(stages > 0, "need at least one stage");
    let (spec, oh) = (sim.spec, sim.oh);
    let mut counter = Counter::new(0..spec.work_end(), ChunkPolicy::Fixed(grain), oh.t_dispatch);
    // when the previous cell left each stage
    let mut left = vec![0u64; stages];
    sim.drive(|sim, proc| {
        let Some(cell) = counter.claim(sim, proc) else {
            return Grant::Done;
        };
        let body = |i| (spec.work)(i) + oh.t_term;
        let total: u64 = cell.clone().map(body).sum();
        let share = total / stages as u64;
        let last = total - share * (stages as u64 - 1);
        for (s, left) in left.iter_mut().enumerate() {
            sim.eng.stall_until(proc, *left);
            sim.eng
                .work(proc, if s + 1 == stages { last } else { share });
            *left = sim.eng.now(proc);
        }
        for i in cell {
            let (iter, cost) = (i as u64, body(i));
            sim.eng.emit(proc, Event::IterExecuted { iter, cost });
            sim.stats.executed += 1;
        }
        Grant::Again
    });
}

#[cfg(test)]
mod tests {
    use crate::{sim_doacross, sim_sequential, LoopSpec, Overheads};

    #[test]
    fn pipeline_speedup_approaches_stage_count() {
        let spec = LoopSpec::uniform(4000, 80);
        let oh = Overheads::default();
        let seq = sim_sequential(&spec, &oh);
        let mut prev = 0.0;
        for stages in [1usize, 2, 4, 8] {
            let r = sim_doacross(8, &spec, &oh, stages, 1);
            let s = r.speedup(&seq);
            assert!(s > prev, "more stages must help: {s:.2} at {stages}");
            assert!(
                s <= stages as f64 * 1.1,
                "pipeline depth bounds the speedup: {s:.2} for {stages} stages"
            );
            prev = s;
        }
        // deep pipeline gets close to its depth
        let r8 = sim_doacross(8, &spec, &oh, 8, 1);
        assert!(r8.speedup(&seq) > 5.0, "got {:.2}", r8.speedup(&seq));
    }

    #[test]
    fn single_stage_pipeline_is_sequential_speed() {
        let spec = LoopSpec::uniform(500, 50);
        let oh = Overheads::default();
        let seq = sim_sequential(&spec, &oh);
        let r = sim_doacross(8, &spec, &oh, 1, 1);
        let s = r.speedup(&seq);
        assert!(s <= 1.1, "a 1-stage wavefront cannot overlap: {s:.2}");
    }

    #[test]
    fn fewer_processors_than_stages_caps_at_p() {
        let spec = LoopSpec::uniform(2000, 80);
        let oh = Overheads::default();
        let seq = sim_sequential(&spec, &oh);
        let r = sim_doacross(2, &spec, &oh, 8, 1);
        assert!(r.speedup(&seq) <= 2.0 * 1.1);
    }

    #[test]
    fn all_iterations_execute() {
        let spec = LoopSpec::uniform(333, 21);
        let r = sim_doacross(4, &spec, &Overheads::default(), 3, 1);
        assert_eq!(r.executed, 333);
    }

    #[test]
    fn grain_one_is_the_per_iteration_pipeline() {
        // one iteration per sync cell: a 2-stage pipeline of uniform
        // bodies finishes one iteration every half body after the fill
        let spec = LoopSpec::uniform(500, 40);
        let oh = Overheads::default();
        let a = sim_doacross(4, &spec, &oh, 2, 1);
        let half = (40 + oh.t_term).div_ceil(2);
        assert_eq!(a.makespan, oh.t_dispatch + 20 + 500 * half);
        // a degenerate grain of 0 is the same schedule
        let b = sim_doacross(4, &spec, &oh, 2, 0);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn grained_pipeline_executes_everything_including_the_ragged_tail() {
        // 333 is not a multiple of 8: the last chunk is partial
        let spec = LoopSpec::uniform(333, 21);
        let r = sim_doacross(4, &spec, &Overheads::default(), 3, 8);
        assert_eq!(r.executed, 333);
    }

    #[test]
    fn coarser_grain_amortizes_dispatch_on_cheap_bodies() {
        // body cost comparable to dispatch: per-iteration sync drowns in
        // overhead, chunking pays for itself
        let spec = LoopSpec::uniform(4000, 4);
        let oh = Overheads::default();
        let fine = sim_doacross(4, &spec, &oh, 2, 1);
        let coarse = sim_doacross(4, &spec, &oh, 2, 16);
        assert!(
            coarse.makespan < fine.makespan,
            "grain 16 ({}) should beat grain 1 ({}) on cheap bodies",
            coarse.makespan,
            fine.makespan
        );
    }
}
