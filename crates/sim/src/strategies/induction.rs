//! Sequential baseline, the static-stride claim rule and the prefix-DOALL
//! scan phases (Sections 3.1, 3.2).

use super::driver::{Grant, Sim};
use wlp_obs::Event;

/// The untransformed loop on processor 0: one dispatcher increment, then
/// test-and-work, per iteration of `0..end`.
pub(crate) fn serial(sim: &mut Sim, end: usize) {
    let (spec, oh) = (sim.spec, sim.oh);
    for i in 0..end {
        sim.next_hops(0, 1, oh.t_next);
        sim.execute(0, i, oh.t_term + (spec.work)(i));
    }
}

/// The paper's `T_seq` (`T_rec + T_rem`): [`serial`] up to the exit, plus
/// the terminating test itself when the loop exits by condition.
pub(crate) fn sequential(sim: &mut Sim) {
    let (spec, oh) = (sim.spec, sim.oh);
    serial(sim, spec.work_end());
    if let Some(e) = spec.exit_at.filter(|&e| e < spec.upper) {
        sim.next_hops(0, 1, oh.t_next);
        sim.term_test(0, e);
    }
}

/// Static assignment: processor `vpn` runs iterations `vpn, vpn+p, …` with
/// no shared counter, so the claim itself is free. With `hop` (General-2)
/// the processor first privately walks the list to each target, and to the
/// null at its end.
pub(crate) fn strided(sim: &mut Sim, hop: bool) {
    let (p, upper) = (sim.eng.p(), sim.spec.upper);
    let mut target: Vec<usize> = (0..p).collect();
    sim.drive(|sim, proc| {
        let i = target[proc];
        if hop {
            // from its previous target (the head, the first time); past the
            // end the `do j = 1, nproc` hop loop bails at null: the hops up
            // to the end of the list plus the null discovery
            let hops = (i.min(upper) - i.saturating_sub(p)) as u64 + u64::from(i >= upper);
            if hops > 0 {
                sim.next_hops(proc, hops, sim.oh.t_next);
            }
        }
        if i >= upper || sim.cut(proc, i) {
            return Grant::Done;
        }
        sim.free_claim(proc, i);
        target[proc] = i + p;
        Grant::Run(i..i + 1)
    });
}

/// The prefix DOALL's first loop: a three-phase blocked scan over the
/// dispatcher terms — local scan, serial tree combine over the `p` partials
/// on processor 0, re-offset. All three are dispatcher evaluation
/// (`NextHop`); the terms are counted where they are first produced.
pub(crate) fn prefix_scan(sim: &mut Sim) {
    let (p, oh) = (sim.eng.p(), sim.oh);
    let terms = sim.dispatcher_terms();
    let block = terms.div_ceil(p);
    let pass = |sim: &mut Sim, count: bool| {
        for proc in 0..p {
            let mine = terms.saturating_sub(proc * block).min(block);
            let hops = if count { mine as u64 } else { 0 };
            let scan = |cost| Event::NextHop { hops, cost };
            sim.eng.charge(proc, block as u64 * oh.t_prefix_op, scan);
        }
        sim.eng.barrier(oh.t_barrier);
    };
    pass(sim, true);
    let levels = (p as u64).next_power_of_two().trailing_zeros() as u64;
    let combine = |cost| Event::NextHop { hops: 0, cost };
    sim.eng.charge(0, levels * oh.t_prefix_op, combine);
    sim.eng.barrier(oh.t_barrier);
    pass(sim, false);
    sim.stats.hops += terms as u64;
}

#[cfg(test)]
mod tests {
    use crate::spec::TerminatorKind::{RemainderInvariant as RI, RemainderVariant as RV};
    use crate::{
        sim_induction_doall, sim_sequential, sim_strip_mined, simulate, ChunkPolicy, Engine,
        ExecConfig, LoopSpec, Overheads, Schedule, Strategy,
    };
    use wlp_obs::Event;

    fn oh() -> Overheads {
        Overheads::default()
    }

    #[test]
    fn sequential_time_is_sum_of_parts() {
        let spec = LoopSpec::uniform(100, 50);
        let r = sim_sequential(&spec, &oh());
        // 100 × (t_next + t_term + 50)
        assert_eq!(r.makespan, 100 * (3 + 1 + 50));
        assert_eq!(r.executed, 100);
        assert_eq!(r.p, 1);
    }

    #[test]
    fn induction_doall_scales_with_processors() {
        let spec = LoopSpec::uniform(800, 200);
        let seq = sim_sequential(&spec, &oh());
        let mut prev = 0.0;
        for p in [1, 2, 4, 8] {
            let r = sim_induction_doall(p, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
            let s = r.speedup(&seq);
            assert!(s > prev, "speedup must increase with p: {s} at p={p}");
            // the DOALL pays t_dispatch (2) where the sequential loop pays
            // t_next (3), so speedup may exceed p by that tiny ratio
            assert!(s <= p as f64 * 1.02, "speedup {s} implausible for p={p}");
            prev = s;
        }
    }

    #[test]
    fn speedup_at_8_is_near_ideal_for_big_bodies() {
        let spec = LoopSpec::uniform(8000, 500);
        let seq = sim_sequential(&spec, &oh());
        let r = sim_induction_doall(8, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        let s = r.speedup(&seq);
        assert!(s > 7.0, "expected near-ideal speedup, got {s}");
    }

    #[test]
    fn claim_cost_override_models_the_lock_free_dispatcher() {
        // A dispatch-bound loop (tiny bodies): cheaper claims must shorten
        // the makespan, and no override must charge exactly t_dispatch.
        let spec = LoopSpec::uniform(2000, 1);
        let base = sim_induction_doall(4, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        let same = sim_induction_doall(
            4,
            &spec,
            &oh(),
            &ExecConfig::bare().with_claim_cost(oh().t_dispatch),
            Schedule::Dynamic,
        );
        assert_eq!(
            base.makespan, same.makespan,
            "an explicit t_dispatch override is the identity"
        );
        let cheap = sim_induction_doall(
            4,
            &spec,
            &oh(),
            &ExecConfig::bare().with_claim_cost(1),
            Schedule::Dynamic,
        );
        assert!(
            cheap.makespan < base.makespan,
            "cheaper claims must shorten a dispatch-bound loop: {} !< {}",
            cheap.makespan,
            base.makespan
        );
        assert_eq!(cheap.executed, base.executed);
    }

    #[test]
    fn ri_exit_stops_with_little_overshoot() {
        let spec = LoopSpec::uniform(100_000, 100).with_exit(500, RI);
        let r = sim_induction_doall(8, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        assert_eq!(r.last_valid, Some(500));
        // RI iterations past the exit only run the test: zero bodies to undo
        assert_eq!(r.overshoot, 0);
        assert_eq!(r.executed, 500);
    }

    #[test]
    fn rv_exit_overshoots_and_counts_it() {
        let spec = LoopSpec::uniform(100_000, 100).with_exit(500, RV);
        let r = sim_induction_doall(
            8,
            &spec,
            &oh(),
            &ExecConfig::with_undo(1000),
            Schedule::Dynamic,
        );
        assert_eq!(r.last_valid, Some(500));
        assert!(
            r.overshoot > 0,
            "RV must overshoot under parallel execution"
        );
        // dynamic issue bounds overshoot to roughly the in-flight window
        assert!(
            r.overshoot < 64,
            "overshoot {} too large for ordered issue",
            r.overshoot
        );
    }

    #[test]
    fn static_cyclic_overshoots_more_than_dynamic_under_rv() {
        let spec = LoopSpec::uniform(10_000, 100).with_exit(100, RV);
        let dyn_r = sim_induction_doall(8, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        let sta_r =
            sim_induction_doall(8, &spec, &oh(), &ExecConfig::bare(), Schedule::StaticCyclic);
        assert!(
            sta_r.overshoot >= dyn_r.overshoot,
            "paper: static spans ≥ dynamic spans (static {} vs dynamic {})",
            sta_r.overshoot,
            dyn_r.overshoot
        );
    }

    #[test]
    fn undo_machinery_costs_show_up() {
        let spec = LoopSpec::uniform(1000, 100).with_exit(900, RV);
        let bare = sim_induction_doall(4, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        let undo = sim_induction_doall(
            4,
            &spec,
            &oh(),
            &ExecConfig::with_undo(5000),
            Schedule::Dynamic,
        );
        assert!(
            undo.makespan > bare.makespan,
            "T_b/T_d/T_a must cost cycles"
        );
    }

    #[test]
    fn prefix_doall_beats_sequential_and_distribution_charges_prefix() {
        let spec = LoopSpec::uniform(4000, 150);
        let seq = sim_sequential(&spec, &oh());
        let cfg = ExecConfig::bare();
        let r = simulate(&mut Engine::new(8), &spec, &oh(), &cfg, Strategy::Prefix);
        let s = r.speedup(&seq);
        assert!(s > 4.0, "prefix DOALL should scale, got {s}");
        assert_eq!(r.hops, 4000, "all dispatcher terms computed");
    }

    #[test]
    fn strip_mining_bounds_overshoot_by_strip() {
        let spec = LoopSpec::uniform(100_000, 100).with_exit(450, RV);
        let r = sim_strip_mined(8, &spec, &oh(), &ExecConfig::bare(), 100);
        assert!(
            r.overshoot <= 100,
            "overshoot {} exceeds strip bound",
            r.overshoot
        );
        // exit at 450 is inside strip [400,500): 5 strips ran, none after
        assert!(r.executed <= 500);
    }

    #[test]
    fn strip_mining_pays_barrier_costs() {
        let spec = LoopSpec::uniform(1000, 50);
        let whole = sim_induction_doall(4, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        let strips = sim_strip_mined(4, &spec, &oh(), &ExecConfig::bare(), 10);
        assert!(
            strips.makespan > whole.makespan,
            "100 barrier episodes must be visible"
        );
    }

    #[test]
    fn single_processor_parallel_version_close_to_sequential() {
        let spec = LoopSpec::uniform(500, 100);
        let seq = sim_sequential(&spec, &oh());
        let par1 = sim_induction_doall(1, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        let ratio = par1.makespan as f64 / seq.makespan as f64;
        assert!((0.9..1.2).contains(&ratio), "p=1 overhead ratio {ratio}");
    }

    #[test]
    fn step_budget_cuts_a_run_short_and_flags_divergence() {
        let spec = LoopSpec::uniform(10_000, 10);
        let cfg = ExecConfig::bare().with_step_budget(50);
        let r = sim_induction_doall(4, &spec, &oh(), &cfg, Schedule::Dynamic);
        assert!(r.diverged, "budget exhaustion must be reported");
        assert!(r.executed < 10_000, "the cap must actually bite");

        let full = sim_induction_doall(4, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        assert!(!full.diverged, "an unbudgeted run never diverges");
        assert_eq!(full.executed, 10_000);

        // a generous budget does not perturb the result
        let roomy = ExecConfig::bare().with_step_budget(1_000_000);
        let same = sim_induction_doall(4, &spec, &oh(), &roomy, Schedule::Dynamic);
        assert!(!same.diverged);
        assert_eq!(same.makespan, full.makespan);
    }

    #[test]
    fn chunking_amortizes_dispatch_without_changing_coverage() {
        let spec = LoopSpec::uniform(2000, 10);
        let one = sim_induction_doall(4, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        for policy in [ChunkPolicy::Fixed(32), ChunkPolicy::Guided { min: 4 }] {
            let cfg = ExecConfig::bare().with_chunk(policy);
            let r = sim_induction_doall(4, &spec, &oh(), &cfg, Schedule::Dynamic);
            assert_eq!(r.executed, one.executed, "{policy:?} must cover the loop");
            assert!(
                r.makespan < one.makespan,
                "{policy:?}: chunking must amortize t_dispatch ({} !< {})",
                r.makespan,
                one.makespan
            );
        }
    }

    #[test]
    fn chunked_trace_reports_grants_and_default_reports_none() {
        let spec = LoopSpec::uniform(400, 20);
        let traced = |cfg: &ExecConfig| {
            let mut eng = Engine::new_observed(4);
            simulate(
                &mut eng,
                &spec,
                &oh(),
                cfg,
                Strategy::Induction(Schedule::Dynamic),
            );
            eng.finish_obs_trace()
        };
        let trace = traced(&ExecConfig::bare().with_chunk(ChunkPolicy::Fixed(50)));
        let grants = trace
            .samples
            .iter()
            .filter(|s| matches!(s.event, Event::ChunkClaimed { .. }))
            .count();
        assert_eq!(grants, 400 / 50, "every 50-wide grant evented");
        let r = wlp_obs::ProfileReport::from_trace(&trace);
        assert_eq!(r.chunk_grants, 8);
        assert_eq!(r.claimed, 400, "per-iteration claims still reported");

        let plain = traced(&ExecConfig::bare());
        assert!(
            plain
                .samples
                .iter()
                .all(|s| !matches!(s.event, Event::ChunkClaimed { .. })),
            "one-at-a-time scheduling emits no chunk events"
        );
    }

    #[test]
    fn chunk_overshoot_is_bounded_by_the_grant_under_rv() {
        // The exit must land mid-stream (past the first round of chunks)
        // for concurrent chunks to be in flight when the QUIT fires.
        let spec = LoopSpec::uniform(100_000, 100).with_exit(5000, RV);
        let cfg = ExecConfig::with_undo(1000).with_chunk(ChunkPolicy::Fixed(64));
        let r = sim_induction_doall(8, &spec, &oh(), &cfg, Schedule::Dynamic);
        assert_eq!(r.last_valid, Some(5000));
        assert!(r.overshoot > 0, "RV must overshoot");
        assert!(
            r.overshoot < 64 * 8 + 64,
            "overshoot {} exceeds the chunk-bounded span",
            r.overshoot
        );
    }

    #[test]
    fn conservation_busy_le_p_times_makespan() {
        let spec = LoopSpec::uniform(777, 91).with_exit(600, RV);
        for p in [1, 3, 8] {
            let r = sim_induction_doall(
                p,
                &spec,
                &oh(),
                &ExecConfig::with_undo(100),
                Schedule::Dynamic,
            );
            let busy: u64 = r.busy.iter().sum();
            assert!(busy <= p as u64 * r.makespan);
            assert!(r.utilization() <= 1.0 + 1e-12);
        }
    }
}
