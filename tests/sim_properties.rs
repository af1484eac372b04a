//! Simulator invariants, as properties over random loop specs: physical
//! conservation laws, speedup bounds, determinism, and cross-strategy
//! coverage guarantees.

use proptest::prelude::*;
use wlp::obs::{ProfileReport, Trace};
use wlp::sim::spec::TerminatorKind;
use wlp::sim::Strategy as Sim;
use wlp::sim::{
    sim_general3, sim_induction_doall, sim_sequential, sim_strip_mined, sim_windowed, simulate,
    ChunkPolicy, Engine, ExecConfig, LoopSpec, Overheads, Report, Schedule,
};

#[derive(Debug, Clone)]
struct SpecParams {
    upper: usize,
    work: u64,
    exit: Option<(usize, bool)>, // (iteration, is_rv)
}

fn spec_strategy() -> impl Strategy<Value = SpecParams> {
    (
        1usize..800,
        1u64..200,
        prop::option::of((0usize..1000, any::<bool>())),
    )
        .prop_map(|(upper, work, exit)| SpecParams { upper, work, exit })
}

fn build(p: &SpecParams) -> LoopSpec {
    let mut s = LoopSpec::uniform(p.upper, p.work);
    if let Some((e, rv)) = p.exit {
        let kind = if rv {
            TerminatorKind::RemainderVariant
        } else {
            TerminatorKind::RemainderInvariant
        };
        s = s.with_exit(e, kind);
    }
    s
}

/// Every strategy the simulator replays (DOANY here searches the whole
/// range: no iteration satisfies it).
const STRATEGIES: [(&str, Sim<'static>); 13] = [
    ("sequential", Sim::Sequential),
    ("induction", Sim::Induction(Schedule::Dynamic)),
    ("static", Sim::Induction(Schedule::StaticCyclic)),
    ("general1", Sim::General1),
    ("general2", Sim::General2),
    ("general3", Sim::General3),
    ("distribution", Sim::Distribution),
    ("prefix", Sim::Prefix),
    ("strips", Sim::StripMined { strip: 64 }),
    ("window", Sim::Windowed { window: 32 }),
    (
        "doacross",
        Sim::Doacross {
            stages: 4,
            grain: 1,
        },
    ),
    (
        "doacross-g8",
        Sim::Doacross {
            stages: 4,
            grain: 8,
        },
    ),
    ("doany", Sim::Doany { successes: &[] }),
];

fn observed(
    p: usize,
    spec: &LoopSpec,
    oh: &Overheads,
    cfg: &ExecConfig,
    strategy: Sim,
) -> (Report, Trace) {
    let mut eng = Engine::new_observed(p);
    let r = simulate(&mut eng, spec, oh, cfg, strategy);
    (r, eng.finish_obs_trace())
}

/// Runs every entry of [`STRATEGIES`] on an observed engine.
fn all_strategies(
    p: usize,
    spec: &LoopSpec,
    oh: &Overheads,
    cfg: &ExecConfig,
) -> Vec<(&'static str, Report, Trace)> {
    STRATEGIES
        .iter()
        .map(|&(name, strategy)| {
            let (r, trace) = observed(p, spec, oh, cfg, strategy);
            (name, r, trace)
        })
        .collect()
}

/// The recording contract of one observed run: observation changes nothing,
/// every busy cycle is in exactly one event, and the profile conserves.
fn check_recording(
    name: &str,
    plain: &Report,
    r: &Report,
    trace: &Trace,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(r, plain, "{}: observation changed the report", name);
    let profile = ProfileReport::from_trace(trace);
    let evented: Vec<u64> = profile.procs.iter().map(|pp| pp.busy).collect();
    prop_assert_eq!(&evented, &r.busy, "{}: busy cycles not evented", name);
    prop_assert_eq!(profile.check_conservation(), Ok(()), "{}", name);
    prop_assert_eq!(profile.executed, r.executed, "{}: bodies evented", name);
    prop_assert_eq!(trace.makespan, r.makespan, "{}: one clock", name);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn conservation_and_bounds(params in spec_strategy(), p in 1usize..9) {
        let spec = build(&params);
        let oh = Overheads::default();
        let cfg = ExecConfig::with_undo(64);
        let seq = sim_sequential(&spec, &oh);
        for (name, r, _) in all_strategies(p, &spec, &oh, &cfg) {
            // busy time cannot exceed p × makespan
            let busy: u64 = r.busy.iter().sum();
            prop_assert!(busy <= p as u64 * r.makespan, "{}: conservation", name);
            prop_assert!(r.utilization() <= 1.0 + 1e-12, "{}: utilization", name);
            // speedup bounded by p plus the per-iteration cost asymmetry:
            // the sequential loop pays t_next + t_term + work (≥ 5 cycles),
            // while a static closed-form schedule pays as little as
            // t_term + work + t_stamp (≥ 4) — a ratio of up to 1.25 for
            // unit-work bodies
            let s = r.speedup(&seq);
            prop_assert!(s <= p as f64 * 1.27 + 1e-9, "{}: speedup {} at p={}", name, s, p);
            prop_assert_eq!(r.p, p, "{}", name);
        }
    }

    #[test]
    fn every_valid_iteration_is_executed(params in spec_strategy(), p in 1usize..9) {
        let spec = build(&params);
        let oh = Overheads::default();
        let cfg = ExecConfig::bare();
        let valid = spec.work_end() as u64;
        for (name, r, _) in all_strategies(p, &spec, &oh, &cfg) {
            prop_assert!(r.executed >= valid, "{}: executed {} < valid {}", name, r.executed, valid);
            // RI exits never produce undo work
            if let Some((_, false)) = params.exit {
                prop_assert_eq!(r.overshoot, 0, "{}: RI loops cannot overshoot bodies", name);
            }
        }
    }

    #[test]
    fn every_strategy_records_every_busy_cycle(params in spec_strategy(), p in 1usize..9) {
        let spec = build(&params);
        let oh = Overheads::default();
        let hit = [params.upper / 2];
        for base in [ExecConfig::bare(), ExecConfig::with_undo(64), ExecConfig::with_pd(64)] {
            for chunk in [ChunkPolicy::One, ChunkPolicy::Fixed(7), ChunkPolicy::Guided { min: 2 }] {
                let cfg = base.with_chunk(chunk);
                let found = ("doany-hit", Sim::Doany { successes: &hit });
                for (name, strategy) in STRATEGIES.into_iter().chain([found]) {
                    let plain = simulate(&mut Engine::new(p), &spec, &oh, &cfg, strategy);
                    let (r, trace) = observed(p, &spec, &oh, &cfg, strategy);
                    check_recording(name, &plain, &r, &trace)?;
                }
            }
        }
    }

    #[test]
    fn simulation_is_deterministic(params in spec_strategy(), p in 1usize..9) {
        let oh = Overheads::default();
        let cfg = ExecConfig::with_pd(32);
        let a = sim_general3(p, &build(&params), &oh, &cfg);
        let b = sim_general3(p, &build(&params), &oh, &cfg);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.busy, b.busy);
        prop_assert_eq!(a.executed, b.executed);
        prop_assert_eq!(a.hops, b.hops);
    }

    #[test]
    fn more_machinery_never_runs_faster(params in spec_strategy(), p in 2usize..9) {
        let spec = build(&params);
        let oh = Overheads::default();
        let bare = sim_induction_doall(p, &spec, &oh, &ExecConfig::bare(), Schedule::Dynamic);
        let undo = sim_induction_doall(p, &spec, &oh, &ExecConfig::with_undo(128), Schedule::Dynamic);
        let pd = sim_induction_doall(p, &spec, &oh, &ExecConfig::with_pd(128), Schedule::Dynamic);
        prop_assert!(bare.makespan <= undo.makespan, "undo adds cost");
        prop_assert!(undo.makespan <= pd.makespan, "the PD test adds more");
    }

    #[test]
    fn overshoot_never_exceeds_the_window_or_strip(
        upper in 100usize..2000,
        exit in 0usize..1500,
        w in 1usize..64,
    ) {
        let spec = LoopSpec::uniform(upper, 50)
            .with_exit(exit, TerminatorKind::RemainderVariant);
        let oh = Overheads::default();
        let cfg = ExecConfig::with_undo(32);
        let win = sim_windowed(8, &spec, &oh, &cfg, w);
        prop_assert!(win.overshoot <= w as u64, "window {}: overshoot {}", w, win.overshoot);
        let strips = sim_strip_mined(8, &spec, &oh, &cfg, w);
        prop_assert!(strips.overshoot <= w as u64, "strip {}: overshoot {}", w, strips.overshoot);
    }
}
