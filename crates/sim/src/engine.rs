//! The event-ordered simulation engine.
//!
//! Each virtual processor carries a clock (in abstract cycles). Strategy
//! simulations repeatedly pick the *runnable processor with the lowest
//! clock* (ties → lowest id) and let it perform one atomic action: claim an
//! iteration, hop dispatcher links, execute a body, acquire a lock, and so
//! on. Because actions are processed in global time order, shared state
//! observed at a claim (the claim counter, a registered QUIT, a lock's
//! queue) is exactly the state a real machine would expose at that instant,
//! provided each observation is guarded by its registration time — which
//! the [`TimedMin`] helper enforces for QUITs.

use serde::Serialize;
use std::cell::Cell;
use wlp_obs::{Event, Sample, Trace};

/// Per-processor clocks and busy-time accounting.
#[derive(Debug, Clone)]
pub struct Engine {
    clocks: Vec<u64>,
    busy: Vec<u64>,
    events: Option<Vec<Sample>>,
    // Dispatch-event budget: the simulator's analogue of the runtime's
    // runaway-dispatcher guard. Every successful `next_proc` dispatch
    // consumes one step; once the budget is spent, dispatch returns `None`
    // so a mis-specified (e.g. cyclic-list) schedule terminates instead of
    // hanging. A Cell keeps `next_proc` borrowable by `&self` — the engine
    // is single-threaded — while the struct stays `Clone`.
    steps: Cell<u64>,
    step_budget: u64,
}

impl Engine {
    /// Creates an engine with `p` processors, all at time 0.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        Engine {
            clocks: vec![0; p],
            busy: vec![0; p],
            events: None,
            steps: Cell::new(0),
            step_budget: u64::MAX,
        }
    }

    /// Caps the number of dispatch events [`Engine::next_proc`] will grant
    /// (`None` lifts the cap). After the budget is spent `next_proc`
    /// returns `None` and [`Engine::budget_exhausted`] reports `true`, so
    /// strategy loops driven by dispatch terminate rather than spin on a
    /// divergent schedule.
    pub fn set_step_budget(&mut self, budget: Option<u64>) {
        self.step_budget = budget.unwrap_or(u64::MAX);
    }

    /// Dispatch events granted so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Whether dispatch stopped because the step budget ran out (a
    /// divergent schedule), as opposed to running to completion.
    #[inline]
    pub fn budget_exhausted(&self) -> bool {
        self.steps.get() >= self.step_budget
    }

    /// Like [`Engine::new`], but collects [`wlp_obs::Event`] samples —
    /// the same schema the threaded runtime records — retrievable with
    /// [`Engine::finish_obs_trace`]. The one recording mechanism: profiles,
    /// Chrome exports and [`render_gantt`] all read the resulting [`Trace`].
    pub fn new_observed(p: usize) -> Self {
        let mut e = Engine::new(p);
        e.events = Some(Vec::new());
        e
    }

    /// Records `event` on `proc`, stamped with the processor's current
    /// clock. No-op unless the engine was created with
    /// [`Engine::new_observed`].
    #[inline]
    pub fn emit(&mut self, proc: usize, event: Event) {
        if let Some(ev) = &mut self.events {
            ev.push(Sample {
                t: self.clocks[proc],
                proc: proc as u32,
                event,
            });
        }
    }

    /// Charges `cost` busy cycles to `proc` and records the event built
    /// from that cost (stamped at completion). The builder only runs when
    /// the engine is observed.
    #[inline]
    pub fn charge(&mut self, proc: usize, cost: u64, make: impl FnOnce(u64) -> Event) {
        self.work(proc, cost);
        if self.events.is_some() {
            let event = make(cost);
            self.emit(proc, event);
        }
    }

    /// Closes the observed region: drains collected samples into a
    /// [`Trace`] whose makespan is the current largest clock. Returns an
    /// empty trace when the engine is not observed.
    pub fn finish_obs_trace(&mut self) -> Trace {
        let mut samples = self.events.take().unwrap_or_default();
        samples.sort_by_key(|s| s.t);
        Trace {
            p: self.p(),
            makespan: self.makespan(),
            samples,
        }
    }

    /// Number of processors.
    #[inline]
    pub fn p(&self) -> usize {
        self.clocks.len()
    }

    /// Current clock of processor `proc`.
    #[inline]
    pub fn now(&self, proc: usize) -> u64 {
        self.clocks[proc]
    }

    /// Advances `proc` by `cost` busy cycles without recording an event;
    /// observed runs pair it with an [`Engine::emit`] that accounts for the
    /// cycles (or use [`Engine::charge`], which does both).
    #[inline]
    pub fn work(&mut self, proc: usize, cost: u64) {
        self.clocks[proc] += cost;
        self.busy[proc] += cost;
    }

    /// Stalls `proc` (idle) until absolute time `t` (no-op if already
    /// past): blocked on a scheduling resource — a lock, a window slot, a
    /// pipeline predecessor — recorded as an [`Event::LockWait`].
    #[inline]
    pub fn stall_until(&mut self, proc: usize, t: u64) {
        if t > self.clocks[proc] {
            let dur = t - self.clocks[proc];
            self.clocks[proc] = t;
            self.emit(proc, Event::LockWait { dur });
        }
    }

    /// The runnable processor with the lowest clock, ties broken by id.
    /// Each grant consumes one step of the budget set by
    /// [`Engine::set_step_budget`]; an exhausted budget yields `None`.
    pub fn next_proc(&self, runnable: &[bool]) -> Option<usize> {
        if self.steps.get() >= self.step_budget {
            return None;
        }
        let mut best: Option<usize> = None;
        for (i, &r) in runnable.iter().enumerate() {
            if r && best.is_none_or(|b| self.clocks[i] < self.clocks[b]) {
                best = Some(i);
            }
        }
        if best.is_some() {
            self.steps.set(self.steps.get() + 1);
        }
        best
    }

    /// Synchronizes all processors at `max(clock) + cost` (a barrier); the
    /// barrier cost is charged as busy time to every processor. Observed
    /// engines record one [`Event::Barrier`] per processor.
    pub fn barrier(&mut self, cost: u64) {
        let t = self.clocks.iter().copied().max().unwrap_or(0);
        for i in 0..self.p() {
            self.clocks[i] = t + cost;
            self.busy[i] += cost;
        }
        if self.events.is_some() {
            for i in 0..self.p() {
                self.emit(i, Event::Barrier { cost });
            }
        }
    }

    /// Runs `volume` units of perfectly parallel work at `each` cycles a
    /// unit (the checkpoint, undo and PD post-analysis phases, which the
    /// paper treats as fully parallel): joins the clocks at their maximum,
    /// then charges every processor its share, recorded as
    /// `make(volume, share)` with the volume attributed once, on processor 0.
    pub fn parallel_phase(&mut self, volume: u64, each: u64, make: impl Fn(u64, u64) -> Event) {
        let share = (volume * each).div_ceil(self.p() as u64);
        let joined = self.makespan();
        for proc in 0..self.p() {
            self.clocks[proc] = joined;
            let mine = if proc == 0 { volume } else { 0 };
            self.charge(proc, share, |cost| make(mine, cost));
        }
    }

    /// Final makespan: the largest clock.
    pub fn makespan(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Per-processor busy cycles.
    pub fn busy(&self) -> &[u64] {
        &self.busy
    }
}

/// A FIFO-ish lock: acquisitions serialize in the order processors reach
/// the lock (which, under lowest-clock-first dispatch, is request-time
/// order).
#[derive(Debug, Clone, Default)]
pub struct Resource {
    free_at: u64,
}

impl Resource {
    /// Creates an uncontended resource.
    pub fn new() -> Self {
        Resource { free_at: 0 }
    }

    /// `proc` acquires the lock, holds it `hold` cycles, releases. Queueing
    /// delay is idle time; the hold is busy time. Returns the release time.
    /// Observed engines record the queueing delay as [`Event::LockWait`]
    /// and the hold as [`Event::LockAcquire`].
    pub fn acquire(&mut self, eng: &mut Engine, proc: usize, hold: u64) -> u64 {
        eng.stall_until(proc, self.free_at);
        eng.charge(proc, hold, |hold| Event::LockAcquire { hold });
        self.free_at = eng.now(proc);
        self.free_at
    }
}

/// A time-stamped minimum register: models the QUIT bound, whose updates
/// become visible to other processors only from their registration time
/// onward.
#[derive(Debug, Clone, Default)]
pub struct TimedMin {
    events: Vec<(u64, usize)>, // (registration time, value)
}

impl TimedMin {
    /// Creates an empty register.
    pub fn new() -> Self {
        TimedMin { events: Vec::new() }
    }

    /// Registers `value` at time `t`.
    pub fn register(&mut self, t: u64, value: usize) {
        self.events.push((t, value));
    }

    /// The minimum value among registrations visible at time `t`.
    pub fn visible_min(&self, t: u64) -> Option<usize> {
        self.events
            .iter()
            .filter(|&&(rt, _)| rt <= t)
            .map(|&(_, v)| v)
            .min()
    }

    /// The unconditional minimum over all registrations (end-of-loop view).
    pub fn final_min(&self) -> Option<usize> {
        self.events.iter().map(|&(_, v)| v).min()
    }
}

/// Outcome of a simulated loop execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Report {
    /// Processor count the simulation ran with.
    pub p: usize,
    /// Virtual cycles from loop entry to the last processor finishing
    /// (including backup/undo/analysis phases).
    pub makespan: u64,
    /// Busy cycles per processor.
    pub busy: Vec<u64>,
    /// Iterations whose body was executed (including overshot ones).
    pub executed: u64,
    /// Last valid iteration (`None` when the loop ran its full range or
    /// never terminated inside the range).
    pub last_valid: Option<usize>,
    /// Bodies executed beyond the last valid iteration.
    pub overshoot: u64,
    /// Dispatcher increments (`next()` hops) performed across processors.
    pub hops: u64,
    /// Whether the run was cut short by the engine's dispatch-step budget
    /// (a divergent schedule) instead of finishing normally.
    pub diverged: bool,
}

impl Report {
    /// Speedup of this execution relative to `seq`.
    pub fn speedup(&self, seq: &Report) -> f64 {
        seq.makespan as f64 / self.makespan.max(1) as f64
    }

    /// Machine utilization in `[0, 1]`: busy cycles over `p × makespan`.
    pub fn utilization(&self) -> f64 {
        let denom = (self.p as u64).saturating_mul(self.makespan).max(1);
        let busy: u64 = self.busy.iter().sum();
        busy as f64 / denom as f64
    }
}

/// Renders an observed run as an ASCII Gantt chart: one row per
/// processor, `#` for busy buckets, `.` for idle — the lock-serialization
/// staircase of General-1 at a glance. A busy event is stamped at
/// completion with its cost, so `[t - cost, t]` is the span it draws.
pub fn render_gantt(trace: &Trace, width: usize) -> String {
    let makespan = trace.makespan.max(1);
    let width = width.max(10);
    let mut rows = vec![vec![b'.'; width]; trace.p];
    for s in &trace.samples {
        let cost = s.event.busy_cost();
        if cost == 0 {
            continue;
        }
        let lo = (s.t.saturating_sub(cost) * width as u64 / makespan) as usize;
        let hi = ((s.t * width as u64).div_ceil(makespan) as usize).min(width);
        for cell in &mut rows[s.proc as usize][lo..hi.max(lo + 1).min(width)] {
            *cell = b'#';
        }
    }
    let mut out = String::new();
    for (p, row) in rows.into_iter().enumerate() {
        out.push_str(&format!(
            "P{p:<2} |{}|\n",
            String::from_utf8(row).expect("ascii")
        ));
    }
    out.push_str(&format!("     0 {:>width$}\n", makespan, width = width - 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_advances_clock_and_busy() {
        let mut e = Engine::new(2);
        e.work(0, 10);
        e.work(1, 4);
        assert_eq!(e.now(0), 10);
        assert_eq!(e.busy(), &[10, 4]);
        assert_eq!(e.makespan(), 10);
    }

    #[test]
    fn stall_until_is_idle_time() {
        let mut e = Engine::new(1);
        e.stall_until(0, 50);
        assert_eq!(e.now(0), 50);
        assert_eq!(e.busy()[0], 0);
        e.stall_until(0, 10); // no going back
        assert_eq!(e.now(0), 50);
    }

    #[test]
    fn next_proc_prefers_lowest_clock_then_lowest_id() {
        let mut e = Engine::new(3);
        e.work(0, 5);
        e.work(2, 5);
        assert_eq!(e.next_proc(&[true, true, true]), Some(1));
        e.work(1, 5);
        // all tied at 5 → lowest id
        assert_eq!(e.next_proc(&[true, true, true]), Some(0));
        assert_eq!(e.next_proc(&[false, false, true]), Some(2));
        assert_eq!(e.next_proc(&[false, false, false]), None);
    }

    #[test]
    fn barrier_aligns_all_clocks() {
        let mut e = Engine::new(3);
        e.work(1, 7);
        e.barrier(2);
        for i in 0..3 {
            assert_eq!(e.now(i), 9);
        }
    }

    #[test]
    fn resource_serializes_holders() {
        let mut e = Engine::new(3);
        let mut lock = Resource::new();
        // all three arrive at t=0; holds of 5 serialize: 0-5, 5-10, 10-15
        assert_eq!(lock.acquire(&mut e, 0, 5), 5);
        assert_eq!(lock.acquire(&mut e, 1, 5), 10);
        assert_eq!(lock.acquire(&mut e, 2, 5), 15);
        // queueing delay was idle, not busy
        assert_eq!(e.busy(), &[5, 5, 5]);
        assert_eq!(e.makespan(), 15);
    }

    #[test]
    fn timed_min_respects_visibility() {
        let mut q = TimedMin::new();
        q.register(100, 7);
        q.register(50, 9);
        assert_eq!(q.visible_min(49), None);
        assert_eq!(q.visible_min(50), Some(9));
        assert_eq!(q.visible_min(100), Some(7));
        assert_eq!(q.final_min(), Some(7));
    }

    #[test]
    fn parallel_phase_divides_evenly() {
        let mut e = Engine::new(4);
        e.parallel_phase(50, 2, |elems, cost| Event::Backup { elems, cost });
        assert_eq!(e.makespan(), 25);
        assert_eq!(e.busy().iter().sum::<u64>(), 100);
    }

    #[test]
    fn observed_engine_mirrors_busy_in_events() {
        let mut e = Engine::new_observed(2);
        e.charge(0, 10, |c| Event::IterExecuted { iter: 0, cost: c });
        e.charge(1, 4, |c| Event::IterClaimed { iter: 1, cost: c });
        e.barrier(2);
        e.parallel_phase(4, 2, |elems, cost| Event::UndoRestore { elems, cost });
        let trace = e.finish_obs_trace();
        assert_eq!(trace.p, 2);
        assert_eq!(trace.makespan, e.makespan());
        // every busy cycle the engine charged appears in exactly one event
        for proc in 0..2 {
            let evented: u64 = trace
                .samples
                .iter()
                .filter(|s| s.proc as usize == proc)
                .map(|s| s.event.busy_cost())
                .sum();
            assert_eq!(evented, e.busy()[proc], "proc {proc}");
        }
        // unobserved engines emit nothing and finish with an empty trace
        let mut u = Engine::new(2);
        u.emit(0, Event::Quit { iter: 3 });
        assert!(u.finish_obs_trace().samples.is_empty());
    }

    #[test]
    fn observed_resource_records_wait_and_hold() {
        let mut e = Engine::new_observed(2);
        let mut lock = Resource::new();
        lock.acquire(&mut e, 0, 5);
        lock.acquire(&mut e, 1, 5);
        let trace = e.finish_obs_trace();
        let waits: Vec<u64> = trace
            .samples
            .iter()
            .filter_map(|s| match s.event {
                Event::LockWait { dur } => Some(dur),
                _ => None,
            })
            .collect();
        assert_eq!(waits, vec![5], "only the second arrival queues");
        let holds = trace
            .samples
            .iter()
            .filter(|s| matches!(s.event, Event::LockAcquire { hold: 5 }))
            .count();
        assert_eq!(holds, 2);
    }

    #[test]
    fn gantt_rows_reflect_busy_fraction() {
        let mut e = Engine::new_observed(2);
        let body = |c| Event::IterExecuted { iter: 0, cost: c };
        e.charge(0, 100, body); // P0 busy the whole run
        e.charge(1, 10, body); // P1 busy 10%
        e.stall_until(1, 100);
        let g = render_gantt(&e.finish_obs_trace(), 40);
        let rows: Vec<&str> = g.lines().collect();
        let p0_busy = rows[0].matches('#').count();
        let p1_busy = rows[1].matches('#').count();
        assert!(p0_busy >= 38, "P0 nearly all busy: {g}");
        assert!(p1_busy <= 8, "P1 mostly idle: {g}");
    }

    #[test]
    fn utilization_and_speedup() {
        let seq = Report {
            p: 1,
            makespan: 100,
            busy: vec![100],
            executed: 10,
            last_valid: None,
            overshoot: 0,
            hops: 0,
            diverged: false,
        };
        let par = Report {
            p: 4,
            makespan: 25,
            busy: vec![25, 25, 25, 25],
            executed: 10,
            last_valid: None,
            overshoot: 0,
            hops: 0,
            diverged: false,
        };
        assert!((par.speedup(&seq) - 4.0).abs() < 1e-12);
        assert!((par.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn step_budget_halts_a_divergent_dispatch_loop() {
        let mut e = Engine::new(2);
        e.set_step_budget(Some(10));
        // a "schedule" that would never terminate on its own
        let mut grants = 0;
        while let Some(proc) = e.next_proc(&[true, true]) {
            e.work(proc, 1);
            grants += 1;
            assert!(grants <= 10, "budget must stop the loop");
        }
        assert_eq!(grants, 10);
        assert_eq!(e.steps(), 10);
        assert!(e.budget_exhausted());

        // an unbudgeted engine never reports divergence
        let u = Engine::new(1);
        assert!(!u.budget_exhausted());
        assert_eq!(u.next_proc(&[true]), Some(0));
        assert_eq!(u.steps(), 1);

        // a no-runnable-procs dispatch does not consume budget
        let mut f = Engine::new(1);
        f.set_step_budget(Some(5));
        assert_eq!(f.next_proc(&[false]), None);
        assert_eq!(f.steps(), 0);
        assert!(!f.budget_exhausted());
    }
}
