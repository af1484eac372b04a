//! WHILE-DOANY claim rule and its sequential baseline (Section 9, MCSPARSE's
//! non-deterministic pivot search).

use super::driver::{Counter, Grant, Sim};
use std::collections::HashSet;

/// Parallel WHILE-DOANY: dynamic self-scheduled claims, every claimed
/// iteration executes its body (work-then-test); the first *completing*
/// iteration among `successes` registers the quit. Iterations claimed
/// before the quit becomes visible run to completion and are simply kept or
/// discarded by the application — never undone.
pub(crate) fn doany(sim: &mut Sim, successes: &[usize]) {
    let ok: HashSet<usize> = successes.iter().copied().collect();
    let mut counter = Counter::ordered(sim, 0..sim.spec.upper);
    sim.drive(|sim, proc| {
        // DOANY: any visible success ends the loop — iteration order is
        // irrelevant, so the bound is "a success exists", not "claim > q".
        if sim.quit.visible_min(sim.eng.now(proc)).is_some() {
            return Grant::Done;
        }
        let Some(grant) = counter.claim(sim, proc) else {
            return Grant::Done;
        };
        let i = grant.start;
        sim.execute(proc, i, (sim.spec.work)(i) + sim.oh.t_term);
        if ok.contains(&i) {
            sim.register_quit(proc, i);
        }
        Grant::Again
    });
}

/// Sequential DOANY baseline: iterate in order, work-then-test, stop at the
/// first of `successes`.
pub(crate) fn doany_sequential(sim: &mut Sim, successes: &[usize]) {
    let upper = sim.spec.upper;
    let first = successes.iter().copied().min();
    super::induction::serial(sim, first.map_or(upper, |f| (f + 1).min(upper)));
    if let Some(f) = first.filter(|&f| f < upper) {
        sim.register_quit(0, f);
    }
}

#[cfg(test)]
mod tests {
    use crate::{sim_doany, sim_doany_sequential, LoopSpec, Overheads};

    fn oh() -> Overheads {
        Overheads::default()
    }

    #[test]
    fn sequential_stops_at_first_success() {
        let spec = LoopSpec::uniform(1000, 30);
        let r = sim_doany_sequential(&spec, &oh(), &[700, 250, 400]);
        assert_eq!(r.executed, 251);
        assert_eq!(r.last_valid, Some(250));
    }

    #[test]
    fn no_success_runs_whole_range() {
        let spec = LoopSpec::uniform(100, 10);
        let seq = sim_doany_sequential(&spec, &oh(), &[]);
        assert_eq!(seq.executed, 100);
        let par = sim_doany(4, &spec, &oh(), &[]);
        assert_eq!(par.executed, 100);
    }

    #[test]
    fn parallel_doany_speeds_up_the_search() {
        // success deep into the space: p processors reach it ~p× sooner
        let spec = LoopSpec::uniform(10_000, 50);
        let successes = [4000usize];
        let seq = sim_doany_sequential(&spec, &oh(), &successes);
        let par = sim_doany(8, &spec, &oh(), &successes);
        let s = par.speedup(&seq);
        assert!(s > 5.0, "DOANY search should scale, got {s:.2}");
        // parallel claims pay t_dispatch (2) vs the sequential t_next (3),
        // so the ratio may nose slightly above p
        assert!(s <= 8.0 * 1.05, "speedup {s:.2} implausible for p = 8");
    }

    #[test]
    fn doany_may_pick_a_different_success() {
        // sequential picks 500; parallel may finish any satisfying iterate
        let spec = LoopSpec::uniform(10_000, 50);
        let par = sim_doany(8, &spec, &oh(), &[500, 501, 502]);
        assert!(par.last_valid.is_some());
        assert!([500, 501, 502].contains(&par.last_valid.unwrap()));
    }

    #[test]
    fn doany_never_undoes_anything() {
        let spec = LoopSpec::uniform(1000, 20);
        let par = sim_doany(8, &spec, &oh(), &[100]);
        assert_eq!(par.overshoot, 0, "DOANY needs no undo by construction");
    }

    #[test]
    fn early_success_limits_parallel_benefit() {
        // success at iteration 0: the parallel search cannot beat the cost
        // of executing that single body
        let spec = LoopSpec::uniform(10_000, 50);
        let seq = sim_doany_sequential(&spec, &oh(), &[0]);
        let par = sim_doany(8, &spec, &oh(), &[0]);
        let s = par.speedup(&seq);
        assert!(s <= 1.5, "no parallelism available, yet speedup {s:.2}");
    }
}
