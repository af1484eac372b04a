//! Property: for generated loop programs, every way of executing the
//! lowered [`ExecPlan`] — sequentially, or as a speculative DOALL at
//! p ∈ {1, 2}, under every access-mode assignment the certifier can emit
//! — leaves exactly the machine the reference tree walker leaves: final
//! arrays, final scalars, iteration count, exit position, and (when the
//! program fails) the error message and the partial state at the failure.
//!
//! The generator covers scalar temporaries, reductions, host calls, a
//! comparison used as a value, affine (positive and negative scale) /
//! indirect / nested-indirect / constant subscripts, WHILE conditions and
//! `exit if`s under each of the six comparisons in either operand order
//! or under no comparison at all (threshold and non-threshold, RI and RV),
//! ascending and descending inductions, an induction update that is not
//! the last statement, and the five error cases (unbound scalar, unknown
//! array, unknown function, out of bounds, division by zero) — riding on the
//! right or the left of a term or as a store's subscript, and on one
//! program in ten two different ones in one statement, so the *order* in
//! which a statement's operands are checked is the walker's too.

mod common;

use common::reference_run;
use proptest::prelude::*;
use std::path::Path;
use wlp_analyze::{analyze, plan_hints};
use wlp_ir::exec::{AccessMode, ExecPlan, PlanHints, Schedule};
use wlp_ir::frontend::{lower_with_symbols, parse_program, Program};
use wlp_ir::interp::{ExecError, ExecOutcome, Machine};
use wlp_runtime::Pool;
use wlp_workloads::sources::machine_inputs;

/// The hint sets a plan is lowered under. All are sound for any program:
/// the certifier's own, the same with stamps forced on (what an RV
/// terminator would ask for), and no certificate at all (every stored-to
/// array shadowed).
fn hint_variants(p: &Program) -> Vec<(&'static str, PlanHints)> {
    let (body, symbols) = lower_with_symbols(p).expect("generated programs lower");
    let analysis = analyze(&body);
    let certified = plan_hints(&body, &symbols, &analysis);
    let stamped = PlanHints {
        terminator_rv: true,
        ..certified.clone()
    };
    let uncertified = PlanHints::uncertified(analysis.baseline.dispatcher);
    vec![
        ("certified", certified),
        ("certified+stamps", stamped),
        ("uncertified", uncertified),
    ]
}

/// What an execution leaves behind, in comparable form.
#[derive(Debug, PartialEq)]
struct Final {
    result: Result<(usize, Option<usize>), String>,
    arrays: Vec<(String, Vec<i64>)>,
    scalars: Vec<(String, i64)>,
}

fn final_of(result: Result<ExecOutcome, ExecError>, m: Machine) -> Final {
    let mut arrays: Vec<_> = m.arrays.into_iter().collect();
    arrays.sort();
    let mut scalars: Vec<_> = m.scalars.into_iter().collect();
    scalars.sort();
    Final {
        result: result
            .map(|o| (o.iterations, o.exited_at))
            .map_err(|e| e.msg),
        arrays,
        scalars,
    }
}

/// Asserts that every execution of every plan for `p` from `start`
/// matches the reference walker. Returns whether any speculative
/// execution committed in parallel.
fn assert_all_executions_match(
    src: &str,
    p: &Program,
    start: &Machine,
    max_iters: usize,
    pools: &[Pool],
) -> bool {
    let mut m = start.clone();
    let want = final_of(reference_run(p, &mut m, max_iters), m);
    let mut committed = false;
    for (label, hints) in hint_variants(p) {
        let plan = ExecPlan::lower(p, &hints);
        // the certified undo budget must cover what the plan can stamp,
        // or a valid execution could trip it
        if let Some(budget) = hints.write_budget_per_iter {
            assert!(
                plan.shadowed_stores_per_iter() <= budget
                    || matches!(plan.schedule(), Schedule::Sequential(_)),
                "[{label}] budget {budget}/iter below the plan's shadowed stores\n{src}"
            );
        }

        let mut m = start.clone();
        let mut frame = m.bind(&plan);
        let result = plan.run_sequential(&mut frame, max_iters);
        m.absorb(&plan, frame);
        assert_eq!(
            final_of(result, m),
            want,
            "plan-sequential [{label}] diverged\n{src}"
        );

        for pool in pools {
            let mut m = start.clone();
            let mut frame = m.bind(&plan);
            let result = plan.run_speculative(&mut frame, pool, max_iters);
            committed |= result.as_ref().is_ok_and(|o| o.ran_parallel);
            m.absorb(&plan, frame);
            assert_eq!(
                final_of(result, m),
                want,
                "plan-speculative [{label}, p={}] diverged\n{src}\nmodes {:?} schedule {:?}",
                pool.size(),
                plan.modes(),
                plan.schedule(),
            );
        }
    }
    committed
}

#[derive(Debug, Clone)]
enum Sub {
    Affine(i64, i64), // coeff·i + offset
    Mirror(i64),      // last - coeff·i: a negative scale
    Indirect,         // idx[i]
    Nested,           // idx[idx[i]]
    Const(i64),
}

impl Sub {
    /// The subscript, into arrays whose last index is `last`.
    fn text(&self, last: usize) -> String {
        match self {
            Sub::Affine(c, o) => format!("{c}*i + {o}"),
            Sub::Mirror(c) => format!("{last} - {c}*i"),
            Sub::Indirect => "idx[i]".into(),
            Sub::Nested => "idx[idx[i]]".into(),
            Sub::Const(k) => k.to_string(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    UnboundScalar,
    UnknownArray,
    UnknownFunction,
    OutOfBounds,
    DivisionByZero,
}

impl Fault {
    /// A term that fails — some at once, some only on a later iteration.
    fn text(&self) -> &'static str {
        match self {
            Fault::UnboundScalar => "q",
            Fault::UnknownArray => "Z[i]",
            Fault::UnknownFunction => "nosuch(w[i])",
            Fault::OutOfBounds => "w[i - 3]",
            Fault::DivisionByZero => "w[i] / (i - 4)",
        }
    }
}

/// Where the first line carries its fault.
#[derive(Debug, Clone, Copy)]
enum FaultAt {
    /// `term + fault`
    Right,
    /// `fault + term`: the failing operand is evaluated first
    Left,
    /// `A[fault] = …` when the first line is a store (else as `Left`)
    Subscript,
}

/// The faults of one program: none, one, or two different ones in the
/// same statement (the second always rightmost, so it is met last).
#[derive(Debug, Clone)]
struct Faults {
    first: Option<(Fault, FaultAt)>,
    second: Option<Fault>,
}

#[derive(Debug, Clone)]
enum Line {
    /// `target[sub] = target[sub] + term`
    Store(bool, Sub, usize),
    /// `t = term` — a scalar temporary
    Temp(usize),
    /// `s = s + term` — a reduction
    Reduce(usize),
}

/// The six comparisons, and each one's mirror: `a op b` is `b mirror a`.
const CMPS: [(&str, &str); 6] = [
    ("<", ">"),
    ("<=", ">="),
    (">", "<"),
    (">=", "<="),
    ("==", "=="),
    ("!=", "!="),
];

/// `a CMPS[op] b`, or the same comparison written the other way round.
fn comparison(a: &str, op: usize, b: &str, swapped: bool) -> String {
    let (op, mirror) = CMPS[op];
    if swapped {
        format!("{b} {mirror} {a}")
    } else {
        format!("{a} {op} {b}")
    }
}

#[derive(Debug, Clone)]
enum Exit {
    None,
    /// `exit if (stop[i] == 1)`, or bare `exit if (stop[i])`:
    /// remainder-invariant, not a threshold
    Stop(usize, bool),
    /// `exit if (A[i] > limit)`: remainder-variant when A is stored to
    Limit,
    /// `exit if (w[i] op w[e])` under comparison `op`, either way round:
    /// remainder-invariant
    Cmp(usize, usize, bool),
}

#[derive(Debug, Clone)]
struct ProgParams {
    n: usize,
    descending: bool,
    stride: i64,
    /// The WHILE condition: `i` under comparison `.0` against a bound, in
    /// operand order `.1`
    cond: (usize, bool),
    /// `while (stop2[i] == 0)`, or bare `while (1 - stop2[i])`, instead
    stop_cond: Option<(usize, bool)>,
    lines: Vec<Line>,
    exit: Exit,
    update_first: bool,
    idx_collides: bool,
    faults: Faults,
}

/// Terms a right-hand side draws from (by index).
const TERMS: [&str; 9] = [
    "i",
    "3",
    "w[i]",
    "g(w[i])",
    "max(i, limit) - h(B[i])",
    "-w[i] * 2",
    "A[i] / 2",
    "(w[i] < 3) * 2",
    "t",
];

fn sub_strategy() -> impl Strategy<Value = Sub> {
    let affine = || (1i64..3, 0i64..4).prop_map(|(c, o)| Sub::Affine(c, o));
    prop_oneof![
        affine(),
        affine(),
        affine(),
        Just(Sub::Indirect),
        Just(Sub::Indirect),
        Just(Sub::Nested),
        (1i64..3).prop_map(Sub::Mirror),
        (0i64..6).prop_map(Sub::Const),
    ]
}

fn line_strategy() -> impl Strategy<Value = Line> {
    let store = || {
        (any::<bool>(), sub_strategy(), 0usize..TERMS.len())
            .prop_map(|(a, s, t)| Line::Store(a, s, t))
    };
    // mostly stores: a temporary or a reduction makes the plan sequential
    prop_oneof![
        store(),
        store(),
        store(),
        store(),
        store(),
        store(),
        (0usize..TERMS.len() - 1).prop_map(Line::Temp),
        (0usize..TERMS.len()).prop_map(Line::Reduce),
    ]
}

fn exit_strategy() -> impl Strategy<Value = Exit> {
    prop_oneof![
        Just(Exit::None),
        Just(Exit::None),
        (0usize..60, any::<bool>()).prop_map(|(e, bare)| Exit::Stop(e, bare)),
        Just(Exit::Limit),
        (0usize..CMPS.len(), 0usize..40, any::<bool>())
            .prop_map(|(op, e, swapped)| Exit::Cmp(op, e, swapped)),
    ]
}

fn fault_strategy() -> impl Strategy<Value = Faults> {
    let fault = || {
        prop_oneof![
            Just(Fault::UnboundScalar),
            Just(Fault::UnknownArray),
            Just(Fault::UnknownFunction),
            Just(Fault::OutOfBounds),
            Just(Fault::DivisionByZero),
        ]
    };
    let at = prop_oneof![
        Just(FaultAt::Right),
        Just(FaultAt::Left),
        Just(FaultAt::Subscript),
    ];
    // six programs in ten run clean, three carry one fault, one carries two
    (0u8..10, fault(), at, fault()).prop_map(|(pick, first, at, second)| Faults {
        first: (pick >= 6).then_some((first, at)),
        second: (pick == 9 && second != first).then_some(second),
    })
}

fn prog_strategy() -> impl Strategy<Value = ProgParams> {
    (
        (
            6usize..48,
            any::<bool>(),
            1i64..3,
            0usize..CMPS.len(),
            any::<bool>(),
        ),
        (prop::option::of(4usize..40), any::<bool>()),
        prop::collection::vec(line_strategy(), 1..4),
        exit_strategy(),
        (0u8..8, any::<bool>()),
        fault_strategy(),
    )
        .prop_map(
            |(
                (n, descending, stride, op, swapped),
                (stop_cond, bare),
                lines,
                exit,
                (upd, idx_collides),
                faults,
            )| {
                ProgParams {
                    n,
                    descending,
                    stride,
                    cond: (op, swapped),
                    // a condition not on `i` on one program in three
                    stop_cond: stop_cond.filter(|c| c % 3 == 0).map(|c| (c, bare)),
                    lines,
                    exit,
                    update_first: upd == 0,
                    idx_collides,
                    faults,
                }
            },
        )
}

/// Largest value `i` can take: every array is long enough for it under
/// any generated subscript.
fn i_max(p: &ProgParams) -> usize {
    2 * p.n + 8
}

/// The length of `A` and `B`: long enough for `2·i + 3` at the largest
/// `i`, and for `last - 2·i` to stay non-negative there.
fn array_len(p: &ProgParams) -> usize {
    2 * i_max(p) + 8
}

fn source_of(p: &ProgParams) -> String {
    let last = array_len(p) - 1;
    let uses_t = p.lines.iter().any(|l| {
        matches!(l, Line::Temp(_))
            || matches!(l, Line::Store(_, _, t) | Line::Reduce(t) if TERMS[*t] == "t")
    });
    let mut src = String::new();
    if p.descending {
        src.push_str(&format!("integer i = {}\n", p.n - 1));
    } else {
        src.push_str("integer i = 0\n");
    }
    if uses_t {
        src.push_str("integer t = 1\n");
    }
    if p.lines.iter().any(|l| matches!(l, Line::Reduce(_))) {
        src.push_str("integer s = 0\n");
    }
    let cond = match p.stop_cond {
        Some((_, false)) => "stop2[i] == 0".to_string(),
        Some((_, true)) => "1 - stop2[i]".to_string(),
        None => {
            // a bound that stops `i` at the array ends where the
            // comparison can; `>` and `>=` ascending, `<` and `<=`
            // descending run until `max_iters` or an error does
            let (op, swapped) = p.cond;
            let n = p.n as i64;
            let bound = match (CMPS[op].0, p.descending) {
                ("<", _) | ("!=", false) => n,
                ("<=", _) | ("==", true) => n - 1,
                (">", _) | ("!=", true) => -1,
                _ => 0,
            };
            comparison("i", op, &bound.to_string(), swapped)
        }
    };
    src.push_str(&format!("while ({cond}) {{\n"));
    match p.exit {
        Exit::None => {}
        Exit::Stop(_, false) => src.push_str("    exit if (stop[i] == 1)\n"),
        Exit::Stop(_, true) => src.push_str("    exit if (stop[i])\n"),
        Exit::Limit => src.push_str("    exit if (A[i] > limit)\n"),
        Exit::Cmp(op, e, swapped) => {
            // `w[e]`: the comparison turns at iteration `e`
            let test = comparison("w[i]", op, &(3 * e as i64 - 7).to_string(), swapped);
            src.push_str(&format!("    exit if ({test})\n"));
        }
    }
    let step = if p.descending { -1 } else { p.stride };
    let update = format!("    i = i + {step}\n");
    if p.update_first {
        src.push_str(&update);
    }
    for (k, line) in p.lines.iter().enumerate() {
        // the faults ride on the first line
        let (first, second) = match k {
            0 => (p.faults.first, p.faults.second),
            _ => (None, None),
        };
        let term = |t: usize| {
            let mut term = match first {
                Some((f, FaultAt::Right)) => format!("{} + {}", TERMS[t], f.text()),
                // a store carries it in its subscript, below
                Some((_, FaultAt::Subscript)) if matches!(line, Line::Store(..)) => {
                    TERMS[t].to_string()
                }
                Some((f, _)) => format!("{} + {}", f.text(), TERMS[t]),
                None => TERMS[t].to_string(),
            };
            if let Some(f) = second {
                term = format!("{term} + {}", f.text());
            }
            term
        };
        match line {
            Line::Store(a, sub, t) => {
                let (arr, s) = (if *a { "A" } else { "B" }, sub.text(last));
                let target = match first {
                    Some((f, FaultAt::Subscript)) => f.text().to_string(),
                    _ => s.clone(),
                };
                src.push_str(&format!(
                    "    {arr}[{target}] = {arr}[{s}] + {}\n",
                    term(*t)
                ));
            }
            Line::Temp(t) => src.push_str(&format!("    t = {}\n", term(*t))),
            Line::Reduce(t) => src.push_str(&format!("    s = s + {}\n", term(*t))),
        }
    }
    if !p.update_first {
        src.push_str(&update);
    }
    src.push('}');
    src
}

fn machine_of(p: &ProgParams) -> Machine {
    let top = i_max(p);
    let mut m = Machine::default();
    let len = array_len(p);
    m.arrays.insert("A".into(), (0..len as i64).collect());
    m.arrays
        .insert("B".into(), (0..len as i64).map(|v| 1000 - v).collect());
    let idx: Vec<i64> = (0..=top)
        .map(|i| {
            if p.idx_collides {
                (i as i64 / 2) * 2 // pairs collide
            } else {
                ((i * 17) % (top + 1)) as i64 // a permutation when coprime
            }
        })
        .collect();
    m.arrays.insert("idx".into(), idx);
    m.arrays
        .insert("w".into(), (0..=top as i64).map(|v| v * 3 - 7).collect());
    let mut stop = vec![0i64; top + 1];
    if let Exit::Stop(e, _) = p.exit {
        if e <= top {
            stop[e] = 1;
        }
    }
    m.arrays.insert("stop".into(), stop);
    // the non-threshold condition turns false at one position and true
    // again after it: only max_iters or that position ends the loop
    let mut stop2 = vec![0i64; top + 1];
    if let Some((c, _)) = p.stop_cond {
        stop2[c.min(top)] = 1;
    }
    m.arrays.insert("stop2".into(), stop2);
    m.scalars.insert("limit".into(), 40);
    m.define_fn("g", |a| a[0].wrapping_add(7));
    m.define_fn("h", |a| a[0] >> 1);
    m.define_fn("max", |a| a.iter().copied().max().unwrap_or(0));
    m
}

fn pools() -> [Pool; 2] {
    [Pool::new(1), Pool::new(2)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_plan_execution_equals_the_reference_walker(params in prog_strategy()) {
        let src = source_of(&params);
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        // a bound that sometimes cuts the loop short and never lets `i`
        // leave the arrays
        let max_iters = params.n + 4;
        assert_all_executions_match(&src, &prog, &machine_of(&params), max_iters, &pools());
    }

    #[test]
    fn colliding_indirections_always_fall_back_correctly(
        n in 4usize..40,
        workers in 2usize..5,
    ) {
        // guaranteed write-write+flow collisions through idx
        let src = format!(
            "integer i = 0\nwhile (i < {n}) {{ A[idx[i]] = A[idx[i]] + 1; i = i + 1 }}"
        );
        let prog = parse_program(&src).unwrap();
        let mut m = Machine::default();
        m.arrays.insert("A".into(), vec![0; 8]);
        m.arrays.insert("idx".into(), vec![3; n]);
        let committed =
            assert_all_executions_match(&src, &prog, &m, n + 1, &[Pool::new(workers)]);
        prop_assert!(!committed, "a shared cell must fail the PD test");
    }
}

/// One colliding-subscript program per access mode: `A` is stored to
/// through colliding indirections (shadowed — the PD test fails), `B`
/// accumulates in place through a certified subscript, `w` is only read.
/// A failed speculation that did not restore `B` would count its
/// iterations twice; one that touched `w` would change the addends.
#[test]
fn failed_speculation_restores_certified_and_read_only_arrays_too() {
    let n = 64;
    for (exit, stamped) in [("", false), ("    exit if (stop[i] == 1)\n", true)] {
        let src = format!(
            "integer i = 0\nwhile (i < {n}) {{\n{exit}    B[i] = B[i] + w[i]\n    \
             A[idx[i]] = A[idx[i]] + B[i]\n    i = i + 1\n}}"
        );
        let prog = parse_program(&src).unwrap();
        let mut m = Machine::default();
        m.arrays.insert("A".into(), vec![0; 4]);
        m.arrays.insert("B".into(), (0..n as i64).collect());
        m.arrays.insert("idx".into(), vec![1; n]); // every iteration hits A[1]
        m.arrays
            .insert("w".into(), (0..n as i64).map(|v| v + 5).collect());
        m.arrays.insert("stop".into(), vec![0; n]);

        // the certifier assigns all three modes, stamped or not as planned
        let (_, hints) = hint_variants(&prog).swap_remove(0);
        let plan = ExecPlan::lower(&prog, &hints);
        let mode = |name: &str| plan.modes()[plan.arrays().iter().position(|a| a == name).unwrap()];
        assert_eq!(mode("A"), AccessMode::Shadowed, "{src}");
        assert_eq!(mode("B"), AccessMode::Certified, "{src}");
        assert_eq!(mode("w"), AccessMode::ReadOnly, "{src}");
        assert!(matches!(plan.schedule(), Schedule::SpeculativeDoall { .. }));
        assert_eq!(plan.stamps_certified(), stamped, "{src}");

        let committed = assert_all_executions_match(&src, &prog, &m, n + 1, &pools());
        assert!(!committed, "colliding subscripts must abort: {src}");
    }
}

/// Errors an overshot iteration runs into are not the loop's: only what
/// the sequential loop meets is reported.
#[test]
fn overshoot_into_a_failing_iteration_is_not_an_error() {
    // A is shorter than the trip bound, but the exit fires first
    let src = "integer i = 0\nwhile (i < 400) {\n    exit if (stop[i] == 1)\n    \
               A[i] = A[i] + 1\n    i = i + 1\n}";
    let prog = parse_program(src).unwrap();
    let mut m = Machine::default();
    m.arrays.insert("A".into(), vec![0; 100]);
    let mut stop = vec![0; 400];
    stop[99] = 1;
    m.arrays.insert("stop".into(), stop);
    assert_all_executions_match(src, &prog, &m, 500, &pools());
}

/// A statement with two things wrong reports the one the walker meets
/// first, and a statement that fails leaves its destination as the walker
/// leaves it. Each body runs with `B[j]` in and out of bounds and with
/// `k` unbound and bound: an executor that defers an operand's check to
/// the instruction consuming it, or writes a destination before it has
/// read every operand, diverges on some row.
#[test]
fn the_first_of_two_errors_in_one_statement_is_the_walkers() {
    const BODIES: [&str; 18] = [
        "A[k] = B[j]",
        "A[i] = k + B[j]",
        "A[i] = k + (m + B[j])",
        "A[i] = k / 0",
        "A[i] = (k - k) + B[j]",
        // subscripts whose scalar cancels still read it
        "A[k - k] = B[j]",
        "A[0*k + 1] = 2",
        "A[2*k - k - k] = 2",
        "exit if (k < B[j])",
        // the function is missed before its arguments are looked at
        "A[i] = nope(k, B[j])",
        "A[i] = g(k) + B[j]",
        "A[i] = g(B[j]) + k",
        // a destination that is also an operand
        "t = 3; t = (t + 1) * t",
        "t = 2; t = B[t]",
        "t = 2; t = g(t) + g(g(t))",
        "t = 0 - i; A[i] = -t",
        // coefficients fold in the executor's ring: 2^62 · 4 wraps to 0
        "A[4611686018427387904 * 4 * i + i] = 7",
        "A[i*1 + 0] = A[(i + 1) - 1] + B[i + i - i]",
    ];
    let pools = pools();
    for body in BODIES {
        let src = format!("integer i = 0\nwhile (i < 3) {{ {body}; i = i + 1 }}");
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        for j in [1, 99] {
            for k in [None, Some(1)] {
                let mut m = Machine::default();
                m.arrays.insert("A".into(), vec![0; 8]);
                m.arrays.insert("B".into(), (10..18).collect());
                m.scalars.insert("j".into(), j);
                m.scalars.insert("m".into(), 5);
                m.scalars.extend(k.map(|k| ("k".to_string(), k)));
                m.define_fn("g", |a| a[0].wrapping_add(7));
                let case = format!("{src}\nj = {j}, k = {k:?}");
                assert_all_executions_match(&case, &prog, &m, 5, &pools);
            }
        }
    }
}

/// The corpus under `examples/loops`: each golden names the verdict the
/// certifier reaches, and every execution of the plan lowered under that
/// certificate matches the reference walker on the corpus inputs.
#[test]
fn corpus_plans_match_the_reference_walker_and_the_goldens() {
    let loops = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/loops");
    let mut seen = 0;
    for entry in std::fs::read_dir(&loops).expect("examples/loops exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "wlp") {
            continue;
        }
        let name = path.file_stem().unwrap().to_str().unwrap();
        let src = std::fs::read_to_string(&path).unwrap();
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));

        let (body, _) = lower_with_symbols(&prog).unwrap();
        let verdict = format!("verdict {:?};", analyze(&body).certificate.verdict);
        let golden =
            std::fs::read_to_string(loops.join("expected").join(format!("{name}.txt"))).unwrap();
        assert!(
            golden.contains(&verdict),
            "{name}: golden lacks `{verdict}`"
        );

        for n in [8, 96] {
            let (arrays, scalars) = machine_inputs(name, n);
            let mut m = Machine::default();
            m.arrays.extend(arrays);
            m.scalars.extend(scalars);
            m.define_fn("f", |a| a[0].wrapping_mul(3).wrapping_add(1));
            m.define_fn("g", |a| a[0].wrapping_add(7));
            assert_all_executions_match(&src, &prog, &m, 2 * n + 4, &pools());
        }
        seen += 1;
    }
    assert_eq!(seen, 7, "the corpus has seven loops");
}
