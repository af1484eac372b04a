//! The one scheduler loop every strategy replay runs on: [`Sim::drive`] is
//! the only place that asks the engine for the next processor, and what
//! differs between strategies is the claim rule handed to it.

use crate::engine::{Engine, Report, TimedMin};
use crate::spec::{ChunkPolicy, ExecConfig, LoopSpec, Overheads, TerminatorKind};
use std::ops::Range;
use wlp_obs::Event;

/// Running totals accumulated while replaying a schedule.
#[derive(Debug, Default, Clone)]
pub(crate) struct Stats {
    pub executed: u64,
    pub hops: u64,
    pub overshoot: u64,
    pub overshoot_writes: u64,
    pub accesses: u64,
}

/// What a processor's turn at the dispatcher produced.
pub(crate) enum Grant {
    /// Run the standard body of these iterations, in order.
    Run(Range<usize>),
    /// Nothing for the driver to run: the processor idled to a later time,
    /// or the rule ran a body of its own. It stays runnable.
    Again,
    /// This processor is finished with the loop.
    Done,
}

/// A shared claim counter over `[next, hi)`: the self-scheduler most rules
/// draw from. Each claim takes `chunk.grant(..)` iterations at `cost`; a
/// grant of one is an `IterClaimed`, a wider one a `ChunkClaimed`.
pub(crate) struct Counter {
    next: usize,
    hi: usize,
    chunk: ChunkPolicy,
    cost: u64,
}

impl Counter {
    pub fn new(range: Range<usize>, chunk: ChunkPolicy, cost: u64) -> Self {
        Counter {
            next: range.start,
            hi: range.end,
            chunk,
            cost,
        }
    }

    /// Ordered issue, one iteration a claim, at `t_dispatch`.
    pub fn ordered(sim: &Sim, range: Range<usize>) -> Self {
        Counter::new(range, ChunkPolicy::One, sim.oh.t_dispatch)
    }

    /// Where the next claim would start; `None` once the range is used up
    /// or a QUIT visible to `proc` rules that iteration out.
    pub fn peek(&self, sim: &Sim, proc: usize) -> Option<usize> {
        (self.next < self.hi && !sim.cut(proc, self.next)).then_some(self.next)
    }

    /// Takes and charges `proc`'s next grant, if [`Counter::peek`] has one.
    pub fn claim(&mut self, sim: &mut Sim, proc: usize) -> Option<Range<usize>> {
        let lo = self.peek(sim, proc)?;
        let len = self.chunk.grant(self.hi - lo, sim.eng.p());
        self.next = lo + len;
        let grant = lo..self.next;
        let (lo, len) = (lo as u64, len as u64);
        sim.eng.charge(proc, self.cost, |cost| match len {
            1 => Event::IterClaimed { iter: lo, cost },
            _ => Event::ChunkClaimed { lo, len, cost },
        });
        Some(grant)
    }
}

/// One strategy run in progress.
pub(crate) struct Sim<'a> {
    pub eng: &'a mut Engine,
    pub spec: &'a LoopSpec,
    pub oh: &'a Overheads,
    pub cfg: ExecConfig,
    pub quit: TimedMin,
    pub stats: Stats,
}

impl Sim<'_> {
    /// The scheduler loop: the runnable processor with the lowest clock
    /// takes a turn at `claim` — the strategy's dispatcher, which charges
    /// whatever the claim costs (dispatch, lock hold, list hops) and tests
    /// [`Sim::cut`] at the point its schedule would — until every
    /// processor is done or the step budget runs out.
    pub fn drive(&mut self, mut claim: impl FnMut(&mut Self, usize) -> Grant) {
        let mut runnable = vec![true; self.eng.p()];
        while let Some(proc) = self.eng.next_proc(&runnable) {
            match claim(self, proc) {
                Grant::Run(grant) => self.run_bodies(proc, grant),
                Grant::Again => {}
                Grant::Done => runnable[proc] = false,
            }
        }
    }

    /// A dynamic DOALL over `range`, self-scheduled off a [`Counter`] as
    /// the config sets it: its [`ChunkPolicy`], and its claim-cost override
    /// where it models a cheaper (lock-free) claim path than `t_dispatch`.
    pub fn doall(&mut self, range: Range<usize>) {
        let cost = self.cfg.claim_cost.unwrap_or(self.oh.t_dispatch);
        let mut counter = Counter::new(range, self.cfg.chunk, cost);
        self.drive(|sim, proc| counter.claim(sim, proc).map_or(Grant::Done, Grant::Run));
    }

    /// The QUIT-visibility test: has a QUIT that rules out iteration `i`
    /// reached `proc` by its current clock?
    pub fn cut(&self, proc: usize, i: usize) -> bool {
        self.quit
            .visible_min(self.eng.now(proc))
            .is_some_and(|q| i > q)
    }

    /// Records a claim that cost nothing (a static assignment, or an
    /// iteration inside an already-paid grant).
    pub fn free_claim(&mut self, proc: usize, i: usize) {
        let iter = i as u64;
        self.eng.emit(proc, Event::IterClaimed { iter, cost: 0 });
    }

    /// Charges `proc` for `hops` dispatcher advances at `each` cycles and
    /// counts them.
    pub fn next_hops(&mut self, proc: usize, hops: u64, each: u64) {
        self.eng
            .charge(proc, hops * each, |cost| Event::NextHop { hops, cost });
        self.stats.hops += hops;
    }

    /// How many dispatcher terms a distributed first loop precomputes. RI:
    /// the dispatcher loop carries the termination test, so it computes
    /// exactly the needed terms. RV: the test lives in the remainder, so
    /// all `upper` terms are built.
    pub fn dispatcher_terms(&self) -> usize {
        match (self.spec.terminator, self.spec.exit_at) {
            (TerminatorKind::RemainderInvariant, Some(e)) => (e + 1).min(self.spec.upper),
            _ => self.spec.upper,
        }
    }

    /// Issues a grant's iterations back to back. A grant of one runs
    /// unconditionally (its claim already passed the QUIT test); a wider
    /// one re-tests the visible QUIT bound before each body, so the
    /// overshoot a chunk can add is bounded by its own length.
    pub fn run_bodies(&mut self, proc: usize, grant: Range<usize>) {
        if grant.len() == 1 {
            return self.run_body(proc, grant.start);
        }
        for i in grant {
            if self.cut(proc, i) {
                break;
            }
            self.free_claim(proc, i);
            self.run_body(proc, i);
        }
    }

    /// Charges `proc` the body of iteration `i` and counts it as executed.
    pub fn execute(&mut self, proc: usize, i: usize, cost: u64) {
        let iter = i as u64;
        self.eng
            .charge(proc, cost, |cost| Event::IterExecuted { iter, cost });
        self.stats.executed += 1;
    }

    /// Charges `proc` one terminator evaluation that ran no body.
    pub fn term_test(&mut self, proc: usize, i: usize) {
        let iter = i as u64;
        self.eng
            .charge(proc, self.oh.t_term, |cost| Event::TermTest { iter, cost });
    }

    /// Registers a QUIT from iteration `i` at `proc`'s current clock.
    pub fn register_quit(&mut self, proc: usize, i: usize) {
        self.quit.register(self.eng.now(proc), i);
        self.eng.emit(proc, Event::Quit { iter: i as u64 });
    }

    /// Executes the *body* of iteration `i` on `proc` at its current clock,
    /// handling the RI/RV terminator distinction:
    ///
    /// * RI, `i ≥ exit_at`: the iteration evaluates its own exit test and
    ///   stops — one `t_term`, no work, registers a QUIT.
    /// * otherwise: `t_term + work(i) + T_d(i)`, where the during-loop
    ///   overhead `T_d` is the write time-stamps and shadow marks the
    ///   config carries; if `i == exit_at` (RV), the exit is discovered at
    ///   the *end* of the body and a QUIT registered then; if `i > exit_at`
    ///   (RV), the body is overshoot to be undone.
    pub fn run_body(&mut self, proc: usize, i: usize) {
        let (spec, oh) = (self.spec, self.oh);
        let exit = spec.exit_at.filter(|&e| e < spec.upper);
        if spec.terminator == TerminatorKind::RemainderInvariant && exit.is_some_and(|e| i >= e) {
            self.term_test(proc, i);
            return self.register_quit(proc, i);
        }
        let (w, r) = ((spec.writes)(i), (spec.reads)(i));
        let stamps = u64::from(self.cfg.stamp_writes) * w * oh.t_stamp;
        let marks = u64::from(self.cfg.pd_shadow) * (w + r) * oh.t_shadow;
        self.execute(proc, i, oh.t_term + (spec.work)(i) + stamps + marks);
        self.stats.accesses += w + r;
        match exit {
            // RV: the terminator fires from values this body computed.
            Some(e) if i == e => self.register_quit(proc, i),
            Some(e) if i > e => {
                self.stats.overshoot += 1;
                self.stats.overshoot_writes += w;
                self.eng.emit(proc, Event::IterUndone { iter: i as u64 });
            }
            _ => {}
        }
    }

    /// The checkpointing phase before the DOALL (`T_b`), run fully
    /// parallel.
    pub fn prologue(&mut self) {
        let (oh, elems) = (self.oh, self.cfg.backup_elems);
        if elems > 0 {
            let backup = |elems, cost| Event::Backup { elems, cost };
            self.eng.parallel_phase(elems, oh.t_backup, backup);
            self.eng.barrier(oh.t_barrier);
        }
    }

    /// The post-execution phases (`T_a`): the closing barrier, the undo of
    /// overshot writes, and the PD analysis — all fully parallel per the
    /// paper.
    pub fn epilogue(&mut self) {
        let (oh, stats) = (self.oh, &self.stats);
        self.eng.barrier(oh.t_barrier);
        if self.cfg.undo_overshoot && stats.overshoot_writes > 0 {
            let undo = |elems, cost| Event::UndoRestore { elems, cost };
            self.eng
                .parallel_phase(stats.overshoot_writes, oh.t_restore, undo);
        }
        if self.cfg.pd_shadow {
            let analyze = |accesses, cost| Event::PdAnalyze { accesses, cost };
            self.eng
                .parallel_phase(stats.accesses, oh.t_analysis, analyze);
            // The shadow test passed (these simulations model independent
            // iterations), so the speculative run commits: everything up to
            // the exit is kept, the overshoot is undone.
            let commit = Event::SpecCommit {
                committed: stats.executed - stats.overshoot,
                undone: stats.overshoot,
            };
            self.eng.emit(0, commit);
        }
    }

    /// Builds the final report from engine + totals.
    pub fn report(&self) -> Report {
        let exit = self.spec.exit_at.filter(|&e| e < self.spec.upper);
        Report {
            p: self.eng.p(),
            makespan: self.eng.makespan(),
            busy: self.eng.busy().to_vec(),
            executed: self.stats.executed,
            last_valid: self.quit.final_min().or(exit),
            overshoot: self.stats.overshoot,
            hops: self.stats.hops,
            diverged: self.eng.budget_exhausted(),
        }
    }
}
