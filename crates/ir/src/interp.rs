//! The interpreter's public face: the [`Machine`] a loop runs against and
//! the two classic entry points.
//!
//! [`run_sequential`] gives the reference semantics of a [`Program`];
//! [`run_parallel`] executes it as a speculative DOALL when the planner
//! allows, falling back to sequential interpretation exactly like the
//! paper's generated code would. Both lower the program to an
//! [`ExecPlan`] and run that — they are
//! compile-then-execute conveniences over the one executor in
//! [`exec`](crate::exec), and are guaranteed to produce identical final
//! machines.

use crate::exec::{ExecPlan, Frame, PlanHints};
use crate::frontend::Program;
use std::collections::HashMap;
use std::sync::Arc;
use wlp_core::taxonomy::DispatcherClass;
use wlp_runtime::{CancelFlag, Pool};

/// A callable the loop may invoke (uninterpreted functions like `f(…)`).
pub type HostFn = Arc<dyn Fn(&[i64]) -> i64 + Send + Sync>;

/// The state a loop runs against: named arrays, named scalars, and host
/// functions.
#[derive(Clone, Default)]
pub struct Machine {
    /// Named integer arrays.
    pub arrays: HashMap<String, Vec<i64>>,
    /// Named scalars (loop-invariant inputs and declared variables).
    pub scalars: HashMap<String, i64>,
    /// Host functions callable from expressions.
    pub funcs: HashMap<String, HostFn>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("arrays", &self.arrays.keys().collect::<Vec<_>>())
            .field("scalars", &self.scalars)
            .field("funcs", &self.funcs.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Machine {
    /// Registers a host function.
    pub fn define_fn(&mut self, name: &str, f: impl Fn(&[i64]) -> i64 + Send + Sync + 'static) {
        self.funcs.insert(name.to_string(), Arc::new(f));
    }
}

/// An interpretation failure (unbound name, out-of-bounds access, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

/// How a loop finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Bodies executed.
    pub iterations: usize,
    /// `Some(i)` if an exit fired at iteration `i` (while-condition failing
    /// or `exit if`); `None` if the `max_iters` bound stopped the run.
    pub exited_at: Option<usize>,
    /// Whether the parallel path was actually taken (and committed).
    pub ran_parallel: bool,
    /// Batches of [`LANES`](crate::exec::LANES) iterations the sequential
    /// path committed (see [`ExecPlan::run_sequential`]).
    pub batches: usize,
}

impl ExecOutcome {
    /// A sequential run's outcome.
    pub(crate) fn sequential(iterations: usize, exited_at: Option<usize>, batches: usize) -> Self {
        ExecOutcome {
            iterations,
            exited_at,
            ran_parallel: false,
            batches,
        }
    }
}

impl Machine {
    /// Moves this machine's state into a [`Frame`] for `plan`: each array
    /// the plan names leaves the machine (no copy), scalars and host
    /// functions are bound by slot. Names the plan does not mention stay
    /// behind untouched. [`absorb`](Self::absorb) is the way back.
    pub fn bind(&mut self, plan: &ExecPlan) -> Frame {
        let mut frame = plan.frame();
        for (a, name) in plan.arrays().iter().enumerate() {
            if let Some(data) = self.arrays.remove(name) {
                frame.bind_array(a, data);
            }
        }
        for (s, name) in plan.scalars().iter().enumerate() {
            if let Some(&v) = self.scalars.get(name) {
                frame.bind_scalar(s, v);
            }
        }
        for (f, name) in plan.funcs().iter().enumerate() {
            if let Some(func) = self.funcs.get(name) {
                frame.bind_fn(f, func.clone());
            }
        }
        frame
    }

    /// Takes back what [`bind`](Self::bind) gave `frame`, as the
    /// execution left it: arrays return by move, every scalar the loop
    /// declared or assigned is (re)defined.
    pub fn absorb(&mut self, plan: &ExecPlan, mut frame: Frame) {
        for (a, name) in plan.arrays().iter().enumerate() {
            if let Some(data) = frame.take_array(a) {
                self.arrays.insert(name.clone(), data);
            }
        }
        for (s, name) in plan.scalars().iter().enumerate() {
            if let Some(v) = frame.scalar(s) {
                self.scalars.insert(name.clone(), v);
            }
        }
    }
}

/// Runs `exec` against `machine` bound into a frame for `plan` — the
/// machine gets its state back on success and on error alike, as the tree
/// walker that used to mutate it in place left it.
fn on_machine(
    plan: &ExecPlan,
    machine: &mut Machine,
    exec: impl FnOnce(&mut Frame) -> Result<ExecOutcome, ExecError>,
) -> Result<ExecOutcome, ExecError> {
    let mut frame = machine.bind(plan);
    let result = exec(&mut frame);
    machine.absorb(plan, frame);
    result
}

/// Interprets the loop sequentially against `machine` (which is updated in
/// place). `max_iters` bounds runaway loops.
///
/// Lowers an [`ExecPlan`] and executes it; a caller running one program
/// many times lowers once and keeps the plan.
pub fn run_sequential(
    p: &Program,
    machine: &mut Machine,
    max_iters: usize,
) -> Result<ExecOutcome, ExecError> {
    // no schedule is consulted on this path, so any dispatcher class does
    let plan = ExecPlan::lower(p, &PlanHints::uncertified(DispatcherClass::General));
    on_machine(&plan, machine, |frame| {
        plan.run_sequential(frame, max_iters, &CancelFlag::new())
    })
}

/// Interprets the loop through the planned parallel strategy without a
/// certificate: a speculative DOALL with every stored-to array under the
/// PD test. Loops the plan cannot parallelize (general dispatchers, extra
/// scalar state) run sequentially — either way, the final machine equals
/// the sequential semantics.
pub fn run_parallel(
    p: &Program,
    machine: &mut Machine,
    pool: &Pool,
    max_iters: usize,
) -> Result<ExecOutcome, ExecError> {
    let dispatcher = crate::frontend::lower(p).map_or(DispatcherClass::General, |ir| {
        crate::plan::plan(&ir).dispatcher
    });
    let plan = ExecPlan::lower(p, &PlanHints::uncertified(dispatcher));
    on_machine(&plan, machine, |frame| {
        plan.run_speculative(frame, pool, max_iters, &CancelFlag::new())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_program;

    fn pool() -> Pool {
        Pool::new(4)
    }

    fn machine_with(arrays: &[(&str, Vec<i64>)]) -> Machine {
        let mut m = Machine::default();
        for (n, v) in arrays {
            m.arrays.insert(n.to_string(), v.clone());
        }
        m
    }

    const DOUBLING: &str = "integer i = 0\n\
                            while (i < 50) {\n\
                                A[i] = 2 * A[i]\n\
                                i = i + 1\n\
                            }";

    #[test]
    fn sequential_interpretation_runs_the_loop() {
        let p = parse_program(DOUBLING).unwrap();
        let mut m = machine_with(&[("A", (0..100).collect())]);
        let out = run_sequential(&p, &mut m, 1000).unwrap();
        assert_eq!(out.iterations, 50);
        assert_eq!(out.exited_at, Some(50));
        assert_eq!(m.arrays["A"][10], 20);
        assert_eq!(m.arrays["A"][60], 60, "untouched past the bound");
        assert_eq!(m.scalars["i"], 50);
    }

    #[test]
    fn parallel_interpretation_matches_sequential() {
        let p = parse_program(DOUBLING).unwrap();
        let mut seq = machine_with(&[("A", (0..100).collect())]);
        run_sequential(&p, &mut seq, 1000).unwrap();
        let mut par = machine_with(&[("A", (0..100).collect())]);
        let out = run_parallel(&p, &mut par, &pool(), 1000).unwrap();
        assert!(
            out.ran_parallel,
            "an independent DO loop must commit in parallel"
        );
        assert_eq!(par.arrays, seq.arrays);
        assert_eq!(par.scalars["i"], seq.scalars["i"]);
    }

    #[test]
    fn indirect_subscripts_speculate_and_match() {
        let src = "integer i = 0\n\
                   while (i < 64) {\n\
                       A[idx[i]] = A[idx[i]] + 100\n\
                       i = i + 1\n\
                   }";
        let p = parse_program(src).unwrap();
        let idx: Vec<i64> = (0..64).map(|i| (i * 29) % 64).collect(); // permutation
        let build = || machine_with(&[("A", (0..64).collect()), ("idx", idx.clone())]);
        let mut seq = build();
        run_sequential(&p, &mut seq, 1000).unwrap();
        let mut par = build();
        let out = run_parallel(&p, &mut par, &pool(), 64).unwrap();
        assert!(
            out.ran_parallel,
            "a permutation subscript passes the PD test"
        );
        assert_eq!(par.arrays["A"], seq.arrays["A"]);
    }

    #[test]
    fn colliding_subscripts_fall_back_and_still_match() {
        let src = "integer i = 0\n\
                   while (i < 32) {\n\
                       A[idx[i]] = A[idx[i]] + 1\n\
                       i = i + 1\n\
                   }";
        let p = parse_program(src).unwrap();
        let idx = vec![0i64; 32]; // every iteration hits A[0]
        let build = || machine_with(&[("A", vec![0; 4]), ("idx", idx.clone())]);
        let mut seq = build();
        run_sequential(&p, &mut seq, 1000).unwrap();
        let mut par = build();
        let out = run_parallel(&p, &mut par, &pool(), 32).unwrap();
        assert!(!out.ran_parallel, "a shared cell must fail the PD test");
        assert_eq!(par.arrays["A"], seq.arrays["A"]);
        assert_eq!(par.arrays["A"][0], 32);
    }

    #[test]
    fn exit_if_is_honoured_in_both_modes() {
        let src = "integer i = 0\n\
                   while (i < 1000) {\n\
                       exit if (stop[i] == 1)\n\
                       A[i] = 7\n\
                       i = i + 1\n\
                   }";
        let p = parse_program(src).unwrap();
        let mut stop = vec![0i64; 1000];
        stop[123] = 1;
        let build = || machine_with(&[("A", vec![0; 1000]), ("stop", stop.clone())]);
        let mut seq = build();
        let so = run_sequential(&p, &mut seq, 2000).unwrap();
        assert_eq!(so.exited_at, Some(123));
        let mut par = build();
        let po = run_parallel(&p, &mut par, &pool(), 2000).unwrap();
        assert_eq!(po.exited_at, Some(123));
        assert_eq!(par.arrays["A"], seq.arrays["A"]);
        assert_eq!(seq.arrays["A"].iter().filter(|&&v| v == 7).count(), 123);
    }

    #[test]
    fn host_functions_are_callable() {
        let src = "integer i = 0\n\
                   while (i < 10) {\n\
                       A[i] = square(i) + 1\n\
                       i = i + 1\n\
                   }";
        let p = parse_program(src).unwrap();
        let mut m = machine_with(&[("A", vec![0; 10])]);
        m.define_fn("square", |args| args[0] * args[0]);
        run_sequential(&p, &mut m, 100).unwrap();
        assert_eq!(m.arrays["A"][3], 10);
    }

    #[test]
    fn pointer_loops_fall_back_to_sequential() {
        // interpret the list as next[] pointers: the planner says General,
        // so the interpreter conservatively runs sequentially
        let src = "integer p = 0\n\
                   while (p != -1) {\n\
                       A[p] = A[p] + 1\n\
                       p = step(p)\n\
                   }";
        let prog = parse_program(src).unwrap();
        let mut m = machine_with(&[("A", vec![0; 8])]);
        m.define_fn("step", |args| if args[0] >= 7 { -1 } else { args[0] + 1 });
        let out = run_parallel(&prog, &mut m, &pool(), 100).unwrap();
        assert!(!out.ran_parallel);
        assert!(m.arrays["A"].iter().all(|&v| v == 1));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let src = "integer i = 0\nwhile (i < 10) { A[i] = 1; i = i + 1 }";
        let p = parse_program(src).unwrap();
        let mut m = machine_with(&[("A", vec![0; 3])]);
        let e = run_sequential(&p, &mut m, 100).unwrap_err();
        assert!(e.msg.contains("out of bounds"), "{e}");
    }

    #[test]
    fn runaway_loops_hit_the_bound() {
        let src = "while (1 == 1) { A[0] = A[0] + 1 }";
        let p = parse_program(src).unwrap();
        let mut m = machine_with(&[("A", vec![0; 1])]);
        let out = run_sequential(&p, &mut m, 50).unwrap();
        assert_eq!(out.exited_at, None);
        assert_eq!(m.arrays["A"][0], 50);
    }
}
