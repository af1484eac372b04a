//! General-recurrence (linked-list) claim rules — Section 3.3. The
//! dispatcher is an inherently sequential chain (`tmp = next(tmp)`), so none
//! of these parallelize the dispatcher itself; they overlap the remainder
//! work of different iterations. (General-2 is the hopping
//! [`strided`](super::induction::strided) rule.)

use super::driver::{Counter, Grant, Sim};
use crate::engine::Resource;

/// Loop distribution's first loop: the dispatcher runs sequentially on
/// processor 0, one hop and one test per stored term, then a barrier.
pub(crate) fn serial_dispatcher(sim: &mut Sim) {
    let terms = sim.dispatcher_terms() as u64;
    sim.next_hops(0, terms, sim.oh.t_next + sim.oh.t_term);
    sim.eng.barrier(sim.oh.t_barrier);
}

/// General-1: every claim takes the list lock for `t_lock + t_next +
/// t_term` (the hop and its null check), which serializes dispatch and caps
/// the speedup at `(work + hold) / hold`-ish regardless of `p` — the reason
/// the paper calls this scheme unattractive. Lock waits and holds become
/// `LockWait`/`LockAcquire` events.
pub(crate) fn general1(sim: &mut Sim) {
    let hold = sim.oh.t_lock + sim.oh.t_next + sim.oh.t_term;
    let (mut next, mut lock) = (0, Resource::new());
    sim.drive(|sim, proc| {
        if sim.cut(proc, next) {
            return Grant::Done;
        }
        // must take the lock even to discover the end of the list
        lock.acquire(sim.eng, proc, hold);
        if next >= sim.spec.upper {
            sim.register_quit(proc, next.max(1) - 1);
            return Grant::Done;
        }
        let i = next;
        next += 1;
        // the hop itself ran inside the lock hold, so it costs 0 extra here
        sim.next_hops(proc, 1, 0);
        sim.free_claim(proc, i);
        Grant::Run(i..i + 1)
    });
}

/// General-3: on claiming iteration `i` off the shared counter, a processor
/// advances its private cursor `i − prev` hops from its previous iteration.
/// Hops per processor are bounded by the list length (its cursor only moves
/// forward).
pub(crate) fn general3(sim: &mut Sim) {
    let mut counter = Counter::ordered(sim, 0..sim.spec.upper);
    let mut prev = vec![0; sim.eng.p()];
    sim.drive(|sim, proc| {
        let Some(grant) = counter.claim(sim, proc) else {
            return Grant::Done;
        };
        let hops = (grant.start - prev[proc]) as u64;
        if hops > 0 {
            sim.next_hops(proc, hops, sim.oh.t_next);
        }
        prev[proc] = grant.start;
        Grant::Run(grant)
    });
}

#[cfg(test)]
mod tests {
    use crate::{
        sim_general1, sim_general2, sim_general3, sim_sequential, simulate, Engine, ExecConfig,
        LoopSpec, Overheads, Report, Strategy,
    };

    fn sim_distribution(p: usize, spec: &LoopSpec, oh: &Overheads, cfg: &ExecConfig) -> Report {
        simulate(&mut Engine::new(p), spec, oh, cfg, Strategy::Distribution)
    }

    fn oh() -> Overheads {
        Overheads::default()
    }

    /// A SPICE-LOAD-like list loop: moderate bodies, RI (null) terminator.
    fn list_spec() -> LoopSpec {
        LoopSpec::uniform(4000, 60)
    }

    #[test]
    fn general3_beats_general1_like_figure6() {
        let spec = list_spec();
        let seq = sim_sequential(&spec, &oh());
        let g1 = sim_general1(8, &spec, &oh(), &ExecConfig::bare());
        let g3 = sim_general3(8, &spec, &oh(), &ExecConfig::bare());
        let s1 = g1.speedup(&seq);
        let s3 = g3.speedup(&seq);
        assert!(
            s3 > s1,
            "paper Fig. 6: General-3 ({s3:.2}) must outperform General-1 ({s1:.2})"
        );
        assert!(
            s3 > 3.0,
            "General-3 at p=8 should be substantial, got {s3:.2}"
        );
    }

    #[test]
    fn general1_saturates_under_lock_contention() {
        // small bodies make the lock the bottleneck well before p = 4:
        // hold = t_lock + t_next + t_term = 12, so throughput caps at
        // (work + hold) / hold = (30 + 12) / 12 = 3.5 regardless of p
        let spec = LoopSpec::uniform(4000, 30);
        let seq = sim_sequential(&spec, &oh());
        let s4 = sim_general1(4, &spec, &oh(), &ExecConfig::bare()).speedup(&seq);
        let s8 = sim_general1(8, &spec, &oh(), &ExecConfig::bare()).speedup(&seq);
        assert!(
            s8 - s4 < 0.5,
            "General-1 should saturate: p=4 → {s4:.2}, p=8 → {s8:.2}"
        );
        let bound = (30.0 + 12.0) / 12.0;
        assert!(
            s8 <= bound + 0.5,
            "speedup {s8:.2} above lock bound {bound:.2}"
        );
    }

    #[test]
    fn general2_and_general3_traverse_entire_list_per_processor() {
        let spec = LoopSpec::uniform(100, 10);
        let g2 = sim_general2(4, &spec, &oh(), &ExecConfig::bare());
        // every processor hops the whole list: ≈ p × n hops in total
        assert!(
            g2.hops >= 4 * 100 && g2.hops <= 4 * 101 + 4,
            "General-2 hops = {}",
            g2.hops
        );
        let g3 = sim_general3(4, &spec, &oh(), &ExecConfig::bare());
        // General-3 cursors are monotone: at most n hops per processor,
        // and at least n in total (someone reaches the tail)
        assert!(
            g3.hops >= 100 && g3.hops <= 4 * 100,
            "General-3 hops = {}",
            g3.hops
        );
    }

    #[test]
    fn general1_traverses_list_once_cooperatively() {
        let spec = LoopSpec::uniform(100, 10);
        let g1 = sim_general1(4, &spec, &oh(), &ExecConfig::bare());
        assert_eq!(g1.hops, 100, "the list is traversed exactly once");
    }

    #[test]
    fn all_general_methods_execute_every_iteration() {
        let spec = LoopSpec::uniform(257, 13);
        for (name, r) in [
            ("g1", sim_general1(3, &spec, &oh(), &ExecConfig::bare())),
            ("g2", sim_general2(3, &spec, &oh(), &ExecConfig::bare())),
            ("g3", sim_general3(3, &spec, &oh(), &ExecConfig::bare())),
            (
                "dist",
                sim_distribution(3, &spec, &oh(), &ExecConfig::bare()),
            ),
        ] {
            assert_eq!(r.executed, 257, "{name} executed {}", r.executed);
            assert_eq!(r.overshoot, 0, "{name}");
        }
    }

    #[test]
    fn distribution_pays_serial_dispatcher_for_rv() {
        use crate::spec::TerminatorKind::RemainderVariant as RV;
        // exit early, but RV: distribution computes ALL upper terms serially
        let spec = LoopSpec::uniform(10_000, 40).with_exit(1000, RV);
        let seq = sim_sequential(&spec, &oh());
        let dist = sim_distribution(8, &spec, &oh(), &ExecConfig::bare());
        let g3 = sim_general3(8, &spec, &oh(), &ExecConfig::bare());
        assert_eq!(dist.hops, 10_000, "all superfluous terms computed");
        assert!(
            g3.speedup(&seq) > dist.speedup(&seq),
            "paper: distribution inferior under RV (g3 {:.2} vs dist {:.2})",
            g3.speedup(&seq),
            dist.speedup(&seq)
        );
    }

    #[test]
    fn general_methods_never_exceed_p_speedup() {
        let spec = list_spec();
        let seq = sim_sequential(&spec, &oh());
        for p in [1, 2, 4, 8] {
            for r in [
                sim_general1(p, &spec, &oh(), &ExecConfig::bare()),
                sim_general2(p, &spec, &oh(), &ExecConfig::bare()),
                sim_general3(p, &spec, &oh(), &ExecConfig::bare()),
            ] {
                assert!(r.speedup(&seq) <= p as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn general1_records_lock_waits_and_general3_none() {
        let spec = LoopSpec::uniform(257, 13);
        let waited = |strategy| {
            let mut eng = Engine::new_observed(3);
            simulate(&mut eng, &spec, &oh(), &ExecConfig::bare(), strategy);
            let trace = eng.finish_obs_trace();
            trace
                .samples
                .iter()
                .map(|s| s.event.wait_time())
                .sum::<u64>()
        };
        // General-1 serializes on the dispatcher lock: waits must show up
        assert!(waited(Strategy::General1) > 0);
        assert_eq!(waited(Strategy::General3), 0);
    }

    #[test]
    fn rv_exit_makes_static_assignment_undo_more() {
        use crate::spec::TerminatorKind::RemainderVariant as RV;
        let spec = LoopSpec::uniform(4000, 60).with_exit(200, RV);
        let g2 = sim_general2(8, &spec, &oh(), &ExecConfig::with_undo(100));
        let g3 = sim_general3(8, &spec, &oh(), &ExecConfig::with_undo(100));
        assert!(
            g2.overshoot >= g3.overshoot,
            "static spans should cost at least as much undo (g2 {} vs g3 {})",
            g2.overshoot,
            g3.overshoot
        );
    }
}
