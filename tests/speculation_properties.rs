//! The central correctness theorem of the paper's speculation framework,
//! as a property: **whatever the access pattern, and whether or not the PD
//! test passes, the final state equals the sequential execution's.**

use proptest::prelude::*;
use wlp::core::speculate::{
    speculative_while, speculative_while_group, speculative_while_with, GroupAccess, GroupArray,
    SpecAccess, SpecOutcome, SpeculativeArray,
};
use wlp::runtime::{ChunkPolicy, DoallOptions, IssueOrder, Pool, Step};

/// A tiny interpreted loop body: each iteration performs up to 4 accesses
/// drawn from this alphabet, then possibly triggers the RV exit.
#[derive(Debug, Clone)]
enum Op {
    ReadAdd(usize),   // acc += A[e]
    Write(usize),     // A[e] = acc + iteration
    ReadWrite(usize), // A[e] = A[e] + 1
}

fn op_strategy(m: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..m).prop_map(Op::ReadAdd),
        (0..m).prop_map(Op::Write),
        (0..m).prop_map(Op::ReadWrite),
    ]
}

fn program_strategy(m: usize) -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(op_strategy(m), 0..4), 1..24)
}

/// Sequential reference interpreter.
fn run_reference(m: usize, prog: &[Vec<Op>], exit_at: Option<usize>) -> (Vec<i64>, Option<usize>) {
    let mut a = vec![0i64; m];
    for (i, ops) in prog.iter().enumerate() {
        if exit_at == Some(i) {
            return (a, Some(i));
        }
        let mut acc = 0i64;
        for op in ops {
            match *op {
                Op::ReadAdd(e) => acc += a[e],
                Op::Write(e) => a[e] = acc + i as i64,
                Op::ReadWrite(e) => a[e] += 1,
            }
        }
    }
    (a, None)
}

/// The one array of a program, as each driver's access handle shows it.
trait Cells {
    fn get(&mut self, e: usize) -> i64;
    fn put(&mut self, e: usize, v: i64);
}

impl Cells for SpecAccess<'_, i64> {
    fn get(&mut self, e: usize) -> i64 {
        self.read(e)
    }
    fn put(&mut self, e: usize, v: i64) {
        self.write(e, v)
    }
}

impl Cells for GroupAccess<'_, i64> {
    fn get(&mut self, e: usize) -> i64 {
        self.read(0, e).expect("generated subscripts are in range")
    }
    fn put(&mut self, e: usize, v: i64) {
        self.write(0, e, v)
            .expect("generated subscripts are in range")
    }
}

/// Iteration `i` of `prog` against `a`.
fn run_body(prog: &[Vec<Op>], i: usize, a: &mut impl Cells) {
    let mut acc = 0i64;
    for op in &prog[i] {
        match *op {
            Op::ReadAdd(e) => acc += a.get(e),
            Op::Write(e) => a.put(e, acc + i as i64),
            Op::ReadWrite(e) => {
                let v = a.get(e);
                a.put(e, v + 1);
            }
        }
    }
}

/// A speculative entry point of `wlp-core`, with the option that selects
/// among its behaviours.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Plain,
    With(ChunkPolicy),
    Group,
}

/// Every entry point, under each chunk policy.
const ENTRIES: [Entry; 5] = [
    Entry::Plain,
    Entry::With(ChunkPolicy::One),
    Entry::With(ChunkPolicy::Fixed(32)),
    Entry::With(ChunkPolicy::Guided { min: 1 }),
    Entry::Group,
];

/// What a driver reported: the exit it found and whether every parallel
/// attempt it made was kept.
struct Ran {
    state: Vec<i64>,
    last_valid: Option<usize>,
    committed: bool,
}

/// The same program through speculative entry point `entry`.
fn run_speculative(
    entry: Entry,
    m: usize,
    prog: &[Vec<Op>],
    exit_at: Option<usize>,
    workers: usize,
) -> Ran {
    let pool = Pool::new(workers);
    let n = prog.len();
    let exit = |i: usize| exit_at == Some(i);
    let arr = SpeculativeArray::new(vec![0i64; m]);
    let term = |i: usize, _: &mut SpecAccess<'_, i64>| exit(i);
    let body = |i: usize, a: &mut SpecAccess<'_, i64>| run_body(prog, i, a);
    let out: SpecOutcome = match entry {
        Entry::Plain => speculative_while(&pool, n, &arr, term, body),
        Entry::With(policy) => {
            let opts = DoallOptions {
                order: IssueOrder::Dynamic(policy),
                ..DoallOptions::default()
            };
            speculative_while_with(&pool, n, &arr, opts, term, body)
        }
        Entry::Group => {
            let group = [GroupArray::Shadowed(arr)];
            let out = speculative_while_group(
                &pool,
                n,
                &group,
                || (),
                |i, _: &mut (), a| {
                    if exit(i) {
                        return Ok::<_, ()>(Step::Quit);
                    }
                    run_body(prog, i, a);
                    Ok(Step::Continue)
                },
            )
            .expect("the body reports no error");
            let [array] = group;
            return Ran {
                state: array
                    .into_live()
                    .expect("a written array gives its data back"),
                last_valid: out.last_valid,
                committed: out.committed_parallel,
            };
        }
    };
    Ran {
        state: arr.snapshot(),
        last_valid: out.last_valid,
        committed: out.committed_parallel,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn speculation_always_matches_sequential(
        prog in program_strategy(6),
        workers in 1usize..5,
    ) {
        let (expect, _) = run_reference(6, &prog, None);
        for entry in ENTRIES {
            let got = run_speculative(entry, 6, &prog, None, workers);
            prop_assert_eq!(&got.state, &expect, "{:?}", entry);
            prop_assert_eq!(got.last_valid, None, "{:?}", entry);
        }
    }

    #[test]
    fn speculation_with_exit_matches_sequential(
        prog in program_strategy(6),
        exit_frac in 0.0f64..1.0,
        workers in 1usize..5,
    ) {
        let exit = (exit_frac * prog.len() as f64) as usize;
        let (expect, last_valid) = run_reference(6, &prog, Some(exit));
        for entry in ENTRIES {
            let got = run_speculative(entry, 6, &prog, Some(exit), workers);
            prop_assert_eq!(&got.state, &expect, "{:?}", entry);
            prop_assert_eq!(got.last_valid, last_valid, "{:?}", entry);
        }
    }

    #[test]
    fn disjoint_programs_commit_in_parallel(n in 1usize..40, workers in 2usize..5) {
        // every iteration touches only its own element: must validate
        let prog: Vec<Vec<Op>> = (0..n).map(|i| vec![Op::ReadWrite(i), Op::Write(i)]).collect();
        let (expect, _) = run_reference(n, &prog, None);
        for entry in ENTRIES {
            let got = run_speculative(entry, n, &prog, None, workers);
            prop_assert_eq!(&got.state, &expect, "{:?}", entry);
            prop_assert!(got.committed, "independent loop must pass the PD test: {:?}", entry);
        }
    }

    #[test]
    fn injected_panics_never_corrupt_state(
        prog in program_strategy(6),
        panic_at_frac in 0.0f64..1.0,
        workers in 1usize..5,
    ) {
        // a fault injected into one parallel iteration: the framework must
        // restore and re-execute sequentially, landing on the exact
        // sequential state (the paper's exception rule)
        use std::sync::atomic::{AtomicBool, Ordering};
        if prog.is_empty() {
            return Ok(());
        }
        let panic_at = (panic_at_frac * prog.len() as f64) as usize;
        let (expect, _) = run_reference(6, &prog, None);

        let arr = SpeculativeArray::new(vec![0i64; 6]);
        let pool = Pool::new(workers);
        let armed = AtomicBool::new(true);
        let out = speculative_while(
            &pool,
            prog.len(),
            &arr,
            |_, _| false,
            |i, a| {
                if i == panic_at && armed.swap(false, Ordering::SeqCst) {
                    panic!("injected fault at {i}");
                }
                run_body(&prog, i, a);
            },
        );
        prop_assert!(out.exception);
        prop_assert!(out.reexecuted_sequentially);
        prop_assert_eq!(arr.snapshot(), expect);
    }

    #[test]
    fn shared_cell_programs_fall_back(n in 3usize..30, workers in 2usize..5) {
        // every iteration increments element 0: flow deps everywhere
        let prog: Vec<Vec<Op>> = (0..n).map(|_| vec![Op::ReadWrite(0)]).collect();
        let (expect, _) = run_reference(2, &prog, None);
        let got = run_speculative(Entry::Plain, 2, &prog, None, workers);
        prop_assert_eq!(&got.state, &expect);
        prop_assert_eq!(got.state[0], n as i64);
        prop_assert!(!got.committed, "a shared counter is never a DOALL");
    }
}
