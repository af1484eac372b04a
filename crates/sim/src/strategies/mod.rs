//! Schedule replays for every parallelization strategy in the paper.
//!
//! [`simulate`] replays one transformed-loop execution on the engine the
//! caller hands in and returns a [`Report`]; run it on an
//! [`Engine::new_observed`] engine and [`Engine::finish_obs_trace`] yields
//! the run's `wlp-obs` trace, for every strategy alike. Inside, one driver
//! owns the lowest-clock scheduler loop and each [`Strategy`] supplies a
//! claim rule — which iteration(s) a processor runs next and what the claim
//! cost. The `sim_*` functions are one-line callers of [`simulate`] under a
//! fresh `Engine::new(p)`.
//!
//! | strategy | `sim_*` form | paper section | dispatcher |
//! |---|---|---|---|
//! | [`Strategy::Sequential`] | [`sim_sequential`] | baseline | any |
//! | [`Strategy::Induction`] | [`sim_induction_doall`] | 3.1 (Induction-1/2) | induction (closed form) |
//! | [`Strategy::Prefix`] | — | 3.2 | associative recurrence |
//! | [`Strategy::Distribution`] | — | 3.3 / Wu & Lewis \[29\] | general recurrence |
//! | [`Strategy::General1`] | [`sim_general1`] | 3.3 (locks) | general recurrence |
//! | [`Strategy::General2`] | [`sim_general2`] | 3.3 (static) | general recurrence |
//! | [`Strategy::General3`] | [`sim_general3`] | 3.3 (dynamic) | general recurrence |
//! | [`Strategy::StripMined`] | [`sim_strip_mined`] | 4 / 8.1 | any |
//! | [`Strategy::Windowed`] | [`sim_windowed`] | 8.2 | any |
//! | [`Strategy::Doacross`] | [`sim_doacross`] | 6 / Wu & Lewis | any (dependent remainder) |
//! | [`Strategy::Doany`] | [`sim_doany`] | 9 (WHILE-DOANY) | induction |
//! | [`Strategy::DoanySequential`] | [`sim_doany_sequential`] | 9 baseline | induction |

mod doany;
mod driver;
mod general;
mod induction;
mod pipeline;
mod window;

use crate::engine::{Engine, Report};
use crate::spec::{ExecConfig, LoopSpec, Overheads};
use driver::Sim;

/// Iteration-to-processor assignment policy for DOALL simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Shared-counter self-scheduling: ordered issue, as on the Alliant.
    Dynamic,
    /// Iteration `i` on processor `i mod p` (General-2-style static).
    StaticCyclic,
}

/// Which transformed loop [`simulate`] replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy<'a> {
    /// The untransformed sequential WHILE loop on processor 0:
    /// test-then-work, one dispatcher increment per iteration — the paper's
    /// `T_seq` (`T_rec + T_rem`).
    Sequential,
    /// Induction-1/2 (Section 3.1): the dispatcher has a closed form, so
    /// the loop runs as a DOALL with the terminator test inlined; the
    /// smallest quitting iteration is the last valid iteration.
    /// `Schedule::Dynamic` models Induction-2 (ordered issue + QUIT);
    /// `Schedule::StaticCyclic` models a static assignment (larger spans,
    /// more overshoot under RV).
    Induction(Schedule),
    /// Associative dispatcher (Section 3.2): loop distribution, a
    /// three-phase parallel prefix evaluating the dispatcher terms in
    /// `O(n/p + log p)`, then the remainder as a dynamic DOALL over the
    /// precomputed terms. For an RV terminator the first loop computes
    /// dispatcher terms all the way to `upper` — possibly many superfluous
    /// ones — which is exactly what this replay charges.
    Prefix,
    /// Loop distribution (Section 3.3 naive scheme / Wu & Lewis \[29\]):
    /// the dispatcher loop runs sequentially on processor 0, storing its
    /// terms; after a barrier the remainder runs as a dynamic DOALL. With
    /// an RI terminator the dispatcher loop stops at the exit; with an RV
    /// terminator the test lives in the remainder, so *all* `upper` terms
    /// are computed sequentially — the extra serial time the paper holds
    /// against this scheme.
    Distribution,
    /// General-1: `next()` in a critical section; the list is traversed
    /// once, cooperatively, iterations issuing in lock-acquisition order.
    General1,
    /// General-2: processor `vpn` privately traverses the list and
    /// executes iterations `vpn, vpn+p, …`. No locks, no dispatch — but
    /// `p × n` total hops, and the static assignment can leave large spans
    /// executing under an RV terminator.
    General2,
    /// General-3: dynamic self-scheduling without locks; each processor
    /// catches its private cursor up to the iteration it claimed.
    General3,
    /// Strip-mined DOALL (Sections 4/8.1): strips of `strip` iterations,
    /// each a dynamic DOALL, separated by barriers; execution stops after
    /// the strip containing the exit. Overshoot is bounded by the strip
    /// size. `strip` must be positive.
    StripMined {
        /// Iterations per strip.
        strip: usize,
    },
    /// Dynamic DOALL whose in-flight iteration span never exceeds `window`
    /// (Section 8.2). Smaller windows bound time-stamp memory and RV
    /// overshoot at the price of idle time; `window ≥ upper` degenerates to
    /// the plain dynamic DOALL. `window` must be positive.
    Windowed {
        /// Largest in-flight iteration span.
        window: usize,
    },
    /// A `stages`-deep DOACROSS pipeline over the iterations before the
    /// exit (Section 6), `grain` iterations per wavefront sync cell —
    /// `grain ≤ 1` is the per-iteration pipeline. Coarser grain amortizes
    /// dispatch/sync overhead but lengthens pipeline fill (the first cell
    /// of a stage waits for a whole predecessor cell, not one iteration),
    /// so the sweet spot depends on the body-cost / sync-cost ratio —
    /// exactly the trade-off the `fission` exhibit sweeps. `stages` must be
    /// positive. Carries no run-time machinery.
    Doacross {
        /// Pipeline depth.
        stages: usize,
        /// Iterations per sync cell.
        grain: usize,
    },
    /// Parallel WHILE-DOANY (Section 9): a dynamic search for *any* of the
    /// `successes`; overshoot is kept or discarded by the application,
    /// never undone, so it carries no run-time machinery.
    Doany {
        /// The satisfying iteration indices (any order).
        successes: &'a [usize],
    },
    /// The sequential DOANY baseline: iterate in order, work-then-test,
    /// stop at the first of the `successes`.
    DoanySequential {
        /// The satisfying iteration indices (any order).
        successes: &'a [usize],
    },
}

/// Replays `strategy` over `spec` on the caller's engine — the single
/// entry point of the simulator. The sequential, DOACROSS and DOANY forms
/// carry no run-time machinery and read nothing from `cfg` but the
/// dispatch-step budget.
///
/// # Panics
/// Panics on a zero `strip`, `window` or `stages`.
pub fn simulate(
    eng: &mut Engine,
    spec: &LoopSpec,
    oh: &Overheads,
    cfg: &ExecConfig,
    strategy: Strategy,
) -> Report {
    use Strategy::*;
    eng.set_step_budget(cfg.max_engine_steps); // the runaway guard
    let (cfg, quit, stats) = (*cfg, Default::default(), Default::default());
    let sim = &mut Sim {
        eng,
        spec,
        oh,
        cfg,
        quit,
        stats,
    };
    let machinery = !matches!(
        strategy,
        Sequential | Doacross { .. } | Doany { .. } | DoanySequential { .. }
    );
    if machinery {
        sim.prologue();
    }
    match strategy {
        Sequential => induction::sequential(sim),
        Induction(Schedule::Dynamic) => sim.doall(0..spec.upper),
        Induction(Schedule::StaticCyclic) => induction::strided(sim, false),
        Prefix => {
            induction::prefix_scan(sim);
            sim.doall(0..spec.upper);
        }
        Distribution => {
            general::serial_dispatcher(sim);
            sim.doall(0..spec.upper);
        }
        General1 => general::general1(sim),
        General2 => induction::strided(sim, true),
        General3 => general::general3(sim),
        StripMined { strip } => {
            assert!(strip > 0, "strip size must be positive");
            for lo in (0..spec.upper).step_by(strip) {
                sim.doall(lo..(lo + strip).min(spec.upper));
                sim.eng.barrier(oh.t_barrier);
                if sim.quit.final_min().is_some() {
                    break;
                }
            }
        }
        Windowed { window } => window::windowed(sim, window),
        Doacross { stages, grain } => pipeline::doacross(sim, stages, grain),
        Doany { successes } => doany::doany(sim, successes),
        DoanySequential { successes } => doany::doany_sequential(sim, successes),
    }
    if machinery {
        sim.epilogue();
    }
    sim.report()
}

/// [`simulate`] on `p` fresh processors.
fn fresh(p: usize, spec: &LoopSpec, oh: &Overheads, cfg: &ExecConfig, s: Strategy) -> Report {
    simulate(&mut Engine::new(p), spec, oh, cfg, s)
}

/// [`Strategy::Sequential`] on one fresh processor.
pub fn sim_sequential(spec: &LoopSpec, oh: &Overheads) -> Report {
    fresh(1, spec, oh, &ExecConfig::bare(), Strategy::Sequential)
}

/// [`Strategy::Induction`] on `p` fresh processors.
pub fn sim_induction_doall(
    p: usize,
    spec: &LoopSpec,
    oh: &Overheads,
    cfg: &ExecConfig,
    schedule: Schedule,
) -> Report {
    fresh(p, spec, oh, cfg, Strategy::Induction(schedule))
}

/// [`Strategy::General1`] on `p` fresh processors.
pub fn sim_general1(p: usize, spec: &LoopSpec, oh: &Overheads, cfg: &ExecConfig) -> Report {
    fresh(p, spec, oh, cfg, Strategy::General1)
}

/// [`Strategy::General2`] on `p` fresh processors.
pub fn sim_general2(p: usize, spec: &LoopSpec, oh: &Overheads, cfg: &ExecConfig) -> Report {
    fresh(p, spec, oh, cfg, Strategy::General2)
}

/// [`Strategy::General3`] on `p` fresh processors.
pub fn sim_general3(p: usize, spec: &LoopSpec, oh: &Overheads, cfg: &ExecConfig) -> Report {
    fresh(p, spec, oh, cfg, Strategy::General3)
}

/// [`Strategy::StripMined`] on `p` fresh processors.
pub fn sim_strip_mined(
    p: usize,
    spec: &LoopSpec,
    oh: &Overheads,
    cfg: &ExecConfig,
    strip: usize,
) -> Report {
    fresh(p, spec, oh, cfg, Strategy::StripMined { strip })
}

/// [`Strategy::Windowed`] on `p` fresh processors.
pub fn sim_windowed(
    p: usize,
    spec: &LoopSpec,
    oh: &Overheads,
    cfg: &ExecConfig,
    window: usize,
) -> Report {
    fresh(p, spec, oh, cfg, Strategy::Windowed { window })
}

/// [`Strategy::Doacross`] on `p` fresh processors.
pub fn sim_doacross(
    p: usize,
    spec: &LoopSpec,
    oh: &Overheads,
    stages: usize,
    grain: usize,
) -> Report {
    let strategy = Strategy::Doacross { stages, grain };
    fresh(p, spec, oh, &ExecConfig::bare(), strategy)
}

/// [`Strategy::Doany`] on `p` fresh processors.
pub fn sim_doany(p: usize, spec: &LoopSpec, oh: &Overheads, successes: &[usize]) -> Report {
    fresh(
        p,
        spec,
        oh,
        &ExecConfig::bare(),
        Strategy::Doany { successes },
    )
}

/// [`Strategy::DoanySequential`] on one fresh processor.
pub fn sim_doany_sequential(spec: &LoopSpec, oh: &Overheads, successes: &[usize]) -> Report {
    let strategy = Strategy::DoanySequential { successes };
    fresh(1, spec, oh, &ExecConfig::bare(), strategy)
}
