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
//! the last statement, and the six error cases (unbound scalar, unknown
//! array, unknown function, out of bounds through an affine subscript at
//! the start or at a chosen iteration and through a computed subscript,
//! division by zero) — riding on the right or the left
//! of a term or as a store's subscript, on the first line or the last (so
//! after a store), and on one program in ten two different ones in one
//! statement, so the *order* in which a statement's operands are checked
//! is the walker's too.
//!
//! Trip counts reach past four batches of [`LANES`] iterations, and
//! `max_iters` falls anywhere between two batch boundaries. Exits and
//! faults fire at lane 0, a middle lane or lane 63 of one of the first
//! batches, or anywhere else, the short last batch included, so a
//! licensed plan meets every edge of a batch: one that commits, one an
//! exit stops, one a fault stops after its stores (which must be undone),
//! and the tail it runs one iteration at a time.
//!
//! Two more generators aim at what a batch runs besides independent
//! iterations: distance-1 recurrences through an array under every step
//! a scan composes (`+`, `-` with the chain on either side, `*`, unary
//! `-`), two in one body, a load of the stored array after the store,
//! and the bodies the licence must keep refusing; and scatters through a
//! permuted `idx` whose first collision, if any, falls in lane 0, 31 or
//! 63 of a later batch. Every licensed sequential run must commit exactly
//! the batches before the first one in which two iterations reach one
//! element of a checked array, as the reference walker reaches them.

mod common;

use common::reference_walk;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use wlp_analyze::{analyze, plan_hints};
use wlp_core::taxonomy::DispatcherClass;
use wlp_ir::exec::{AccessMode, ExecPlan, PlanHints, Schedule, LANES};
use wlp_ir::frontend::{lower_with_symbols, parse_program, Program};
use wlp_ir::interp::{ExecError, ExecOutcome, Machine};
use wlp_runtime::{CancelFlag, Pool};
use wlp_workloads::sources::machine_inputs;

/// The hint sets a plan is lowered under. Both are sound for any program:
/// the certifier's own, and no certificate at all (every stored-to array
/// shadowed). Whether certified arrays carry stamps is the plan's own
/// call, so certified-with-stamps runs wherever a generated program has an
/// `exit if` or a condition that is not a threshold on the induction.
fn hint_variants(p: &Program) -> Vec<(&'static str, PlanHints)> {
    let (body, symbols) = lower_with_symbols(p).expect("generated programs lower");
    let analysis = analyze(&body);
    let certified = plan_hints(
        &body,
        &symbols,
        &analysis.certificate,
        &analysis.privatization.arrays,
        analysis.baseline.dispatcher,
    );
    let uncertified = PlanHints::uncertified(analysis.baseline.dispatcher);
    vec![("certified", certified), ("uncertified", uncertified)]
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

/// Per iteration the reference walker ran, the elements it reached: array
/// name and subscript.
type Touched = Vec<Vec<(String, i64)>>;

/// Whether two of the iterations batch `b` runs (1 + 64·b to 64 + 64·b)
/// reach one element of a `checked` array.
fn meets(touched: &Touched, checked: &[&str], b: usize) -> bool {
    let mut owner = HashMap::new();
    let batch = touched.iter().enumerate().skip(1 + LANES * b).take(LANES);
    batch.into_iter().any(|(i, elements)| {
        elements
            .iter()
            .filter(|(a, _)| checked.contains(&a.as_str()))
            .any(|e| *owner.entry(e).or_insert(i) != i)
    })
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
    let mut touched = Touched::new();
    let walked = reference_walk(p, &mut m, max_iters, &mut |i, name, idx| {
        if let Some(i) = i {
            touched.resize_with(touched.len().max(i + 1), Vec::new);
            touched[i].push((name.to_string(), idx));
        }
    });
    let want = final_of(walked, m);
    let mut committed = false;
    for (label, hints) in hint_variants(p) {
        let plan = ExecPlan::lower(p, &hints);

        // batch `b` runs iterations 1 + 64·b to 64 + 64·b (iteration 0
        // runs alone) and commits exactly when the sequential loop runs
        // all of them and no two of them reach one element of a checked
        // array; after the first batch in which two do, none runs
        let checked = plan.batch_checked();
        let batches = |o: &ExecOutcome| match plan.batch_refusal() {
            None => {
                let full = o.iterations.max(1).div_ceil(LANES) - 1;
                (0..full)
                    .find(|&b| meets(&touched, &checked, b))
                    .unwrap_or(full)
            }
            Some(_) => 0,
        };
        let mut m = start.clone();
        let mut frame = m.bind(&plan);
        let result = plan.run_sequential(&mut frame, max_iters, &CancelFlag::new());
        if let Ok(o) = &result {
            assert_eq!(
                o.batches,
                batches(o),
                "[{label}] batches committed by {o:?}, licence {:?}\n{src}",
                plan.batch_refusal()
            );
        }
        m.absorb(&plan, frame);
        assert_eq!(
            final_of(result, m),
            want,
            "plan-sequential [{label}] diverged\n{src}"
        );

        for pool in pools {
            let mut m = start.clone();
            let mut frame = m.bind(&plan);
            let result = plan.run_speculative(&mut frame, pool, max_iters, &CancelFlag::new());
            committed |= result.as_ref().is_ok_and(|o| o.ran_parallel);
            if let (Ok(o), Schedule::Sequential(_)) = (&result, plan.schedule()) {
                assert_eq!(o.batches, batches(o), "[{label}] {o:?}\n{src}");
            }
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
    /// `edge[i]`: `edge` ends where `i` is the program's `fault_at`
    Edge,
    /// `w[cut[i]]`: `cut` holds -1 where `i` is the program's `fault_at`
    Gather,
    /// `w[i] / (i - fault_at)`
    DivisionByZero,
}

impl Fault {
    /// A term that fails — some at once, some only on a later iteration
    /// (`i` = `at`).
    fn text(&self, at: usize) -> String {
        match self {
            Fault::UnboundScalar => "q".into(),
            Fault::UnknownArray => "Z[i]".into(),
            Fault::UnknownFunction => "nosuch(w[i])".into(),
            Fault::OutOfBounds => "w[i - 3]".into(),
            Fault::Edge => "edge[i]".into(),
            Fault::Gather => "w[cut[i]]".into(),
            Fault::DivisionByZero => format!("w[i] / (i - {at})"),
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
/// same statement (the second always rightmost, so it is met last), on
/// the first line or the last.
#[derive(Debug, Clone)]
struct Faults {
    first: Option<(Fault, FaultAt)>,
    second: Option<Fault>,
    on_last_line: bool,
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
    /// `exit if (stop[i] == 1)`, or bare `exit if (stop[i])`, at `i` =
    /// `.0`: remainder-invariant, not a threshold
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
    /// `max_iters` is `n` plus this: anywhere between two batch
    /// boundaries
    extra_iters: usize,
    /// The `i` at which `DivisionByZero` and `Gather` fail
    fault_at: usize,
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

/// The most iterations past `n` a run may be allowed.
const EXTRA_ITERS: usize = 2 * LANES;

/// A position for an exit or a fault: lane 0, a middle lane or lane 63
/// of one of the first four batches (batch `b` runs iterations
/// 1 + 64·b to 64 + 64·b), or anywhere a trip count reaches.
fn at_strategy() -> impl Strategy<Value = usize> {
    let lane = prop_oneof![Just(0usize), Just(LANES / 2 - 1), Just(LANES - 1)];
    prop_oneof![
        (0usize..4, lane).prop_map(|(b, lane)| 1 + LANES * b + lane),
        0usize..300,
    ]
}

fn exit_strategy() -> impl Strategy<Value = Exit> {
    prop_oneof![
        Just(Exit::None),
        Just(Exit::None),
        (at_strategy(), any::<bool>()).prop_map(|(e, bare)| Exit::Stop(e, bare)),
        Just(Exit::Limit),
        (0usize..CMPS.len(), at_strategy(), any::<bool>())
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
            Just(Fault::Edge),
            Just(Fault::Gather),
            Just(Fault::DivisionByZero),
            Just(Fault::DivisionByZero),
        ]
    };
    let at = prop_oneof![
        Just(FaultAt::Right),
        Just(FaultAt::Left),
        Just(FaultAt::Subscript),
    ];
    // six programs in ten run clean, three carry one fault, one carries two
    (0u8..10, fault(), at, fault(), any::<bool>()).prop_map(
        |(pick, first, at, second, on_last_line)| Faults {
            first: (pick >= 6).then_some((first, at)),
            second: (pick == 9 && second != first).then_some(second),
            on_last_line,
        },
    )
}

fn prog_strategy() -> impl Strategy<Value = ProgParams> {
    (
        (
            6usize..300,
            any::<bool>(),
            1i64..3,
            0usize..CMPS.len(),
            any::<bool>(),
        ),
        (prop::option::of(at_strategy()), any::<bool>()),
        prop::collection::vec(line_strategy(), 1..4),
        exit_strategy(),
        (0u8..8, any::<bool>()),
        (fault_strategy(), at_strategy(), 0..EXTRA_ITERS),
    )
        .prop_map(
            |(
                (n, descending, stride, op, swapped),
                (stop_cond, bare),
                lines,
                exit,
                (upd, idx_collides),
                (faults, fault_at, extra_iters),
            )| {
                ProgParams {
                    n,
                    extra_iters,
                    fault_at,
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
    2 * (p.n + EXTRA_ITERS) + 8
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
        // the faults ride on the first line or the last
        let on = if p.faults.on_last_line {
            p.lines.len() - 1
        } else {
            0
        };
        let (first, second) = match k == on {
            true => (p.faults.first, p.faults.second),
            false => (None, None),
        };
        let term = |t: usize| {
            let mut term = match first {
                Some((f, FaultAt::Right)) => format!("{} + {}", TERMS[t], f.text(p.fault_at)),
                // a store carries it in its subscript, below
                Some((_, FaultAt::Subscript)) if matches!(line, Line::Store(..)) => {
                    TERMS[t].to_string()
                }
                Some((f, _)) => format!("{} + {}", f.text(p.fault_at), TERMS[t]),
                None => TERMS[t].to_string(),
            };
            if let Some(f) = second {
                term = format!("{term} + {}", f.text(p.fault_at));
            }
            term
        };
        match line {
            Line::Store(a, sub, t) => {
                let (arr, s) = (if *a { "A" } else { "B" }, sub.text(last));
                let target = match first {
                    Some((f, FaultAt::Subscript)) => f.text(p.fault_at),
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
    // an affine subscript that leaves its array where `i` is `fault_at`
    m.arrays.insert("edge".into(), vec![1; p.fault_at]);
    // a computed subscript that leaves `w` where `i` is `fault_at`
    let cut = (0..=top as i64).map(|i| if i == p.fault_at as i64 { -1 } else { i });
    m.arrays.insert("cut".into(), cut.collect());
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

/// [`prog_strategy`]'s programs reshaped into bodies the batch licence
/// admits unless a term reads the temporary before writing it: an
/// ascending unit-stride induction updated last, `A[i]` stored and then
/// `B[i]`, on three programs in four a fault on the second store, after
/// the first, and on one in two no exit but the loop condition.
fn batch_strategy() -> impl Strategy<Value = ProgParams> {
    let fault = prop_oneof![
        Just(None),
        Just(Some(Fault::Edge)),
        Just(Some(Fault::Gather)),
        Just(Some(Fault::DivisionByZero)),
    ];
    (prog_strategy(), fault, any::<bool>()).prop_map(|(mut p, fault, exits)| {
        let terms: Vec<usize> = p
            .lines
            .iter()
            .map(|l| match *l {
                Line::Store(_, _, t) | Line::Temp(t) | Line::Reduce(t) => t,
            })
            .collect();
        let term = |k: usize| terms.get(k).copied().unwrap_or(2);
        p.descending = false;
        p.stride = 1;
        p.update_first = false;
        p.lines = vec![
            Line::Store(true, Sub::Affine(1, 0), term(0)),
            Line::Store(false, Sub::Affine(1, 0), term(1)),
        ];
        p.faults = Faults {
            first: fault.map(|f| (f, FaultAt::Right)),
            second: None,
            on_last_line: true,
        };
        if !exits {
            p.exit = Exit::None;
        }
        p
    })
}

fn pools() -> [Pool; 2] {
    [Pool::new(1), Pool::new(2)]
}

/// How a distance-1 recurrence's load reaches its store.
#[derive(Debug, Clone, Copy)]
enum Rec {
    /// `X[i - 1] + t`
    Add,
    /// `t + X[i - 1]`
    AddLeft,
    /// `X[i - 1] - t`
    Sub,
    /// `t - X[i - 1]`
    SubFrom,
    /// `X[i - 1] * t`
    Mul,
    /// `-X[i - 1] + t`
    Neg,
    /// `3 * X[i - 1] - t`, through a scalar: `r = X[i - 1]` first
    Affine,
}

/// Bodies the licence must keep refusing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Unlicensed {
    /// `r = A[i - 1]; A[i] = r + t; D[i] = r`: the chain is read on the way
    ChainRead,
    /// `A[i + 1] = A[i - 1] + t`
    Distance2,
    /// `A[i] = t; D[i] = A[i + 1]`: a later lane's element, read after
    /// the store
    AheadAfterStore,
    /// `A[i] = A[i - 1] + t; A[i + 3] = 5`: two stores to a recurrent array
    TwoStores,
    /// `A[4] = A[4] + t`: a uniform subscript on a stored array
    Uniform,
    /// `A[i] = A[i - 1] + t; A[idx[i]] = 5`: stepping and computed
    Mixed,
}

/// A generated recurrence body: `A[i] = …` under `rec`, then optionally
/// a second one over `B`, a load of `A[i - 1]` after the store (as in
/// wavefront), or one of the bodies the licence refuses, with exits and
/// faults placed at batch edges.
#[derive(Debug, Clone)]
struct ScanParams {
    n: usize,
    extra_iters: usize,
    rec: Rec,
    second: Option<Rec>,
    after: bool,
    refused: Option<Unlicensed>,
    term: usize,
    exit_at: Option<usize>,
    fault: Option<(Fault, usize)>,
}

/// Off-chain operands a recurrence step draws from.
const SCAN_TERMS: [&str; 5] = ["w[i]", "g(w[i])", "3", "(w[i] / 2)", "((w[i] < 3) * 2)"];

fn rec_strategy() -> impl Strategy<Value = Rec> {
    prop_oneof![
        Just(Rec::Add),
        Just(Rec::AddLeft),
        Just(Rec::Sub),
        Just(Rec::SubFrom),
        Just(Rec::Mul),
        Just(Rec::Neg),
        Just(Rec::Affine),
    ]
}

fn scan_strategy() -> impl Strategy<Value = ScanParams> {
    let refused = prop_oneof![
        Just(Unlicensed::ChainRead),
        Just(Unlicensed::Distance2),
        Just(Unlicensed::AheadAfterStore),
        Just(Unlicensed::TwoStores),
        Just(Unlicensed::Uniform),
        Just(Unlicensed::Mixed),
    ];
    let fault = prop_oneof![Just(Fault::DivisionByZero), Just(Fault::Edge)];
    (
        (6usize..300, 0..EXTRA_ITERS, rec_strategy()),
        (prop::option::of(rec_strategy()), any::<bool>()),
        (0u8..4, refused, 0..SCAN_TERMS.len()),
        (0u8..3, at_strategy(), fault, at_strategy()),
    )
        .prop_map(
            |(
                (n, extra_iters, rec),
                (second, after),
                (pick, refused, term),
                (pick2, exit, fault, at),
            )| {
                ScanParams {
                    n,
                    extra_iters,
                    rec,
                    second,
                    after,
                    // one body in four is one the licence must refuse
                    refused: (pick == 0).then_some(refused),
                    term,
                    exit_at: (pick2 == 1).then_some(exit),
                    fault: (pick2 == 2).then_some((fault, at)),
                }
            },
        )
}

/// `X[i] = …` under `rec`, with `t` off the chain.
fn recurrence(x: &str, rec: Rec, t: &str) -> String {
    let prev = format!("{x}[i - 1]");
    match rec {
        Rec::Add => format!("    {x}[i] = {prev} + {t}\n"),
        Rec::AddLeft => format!("    {x}[i] = {t} + {prev}\n"),
        Rec::Sub => format!("    {x}[i] = {prev} - {t}\n"),
        Rec::SubFrom => format!("    {x}[i] = {t} - {prev}\n"),
        Rec::Mul => format!("    {x}[i] = {prev} * {t}\n"),
        Rec::Neg => format!("    {x}[i] = -{prev} + {t}\n"),
        Rec::Affine => format!("    r = {prev}\n    {x}[i] = 3 * r - {t}\n"),
    }
}

fn scan_source(p: &ScanParams) -> String {
    let t = SCAN_TERMS[p.term];
    let mut src = String::from("integer i = 1\ninteger r = 0\nwhile (i < n) {\n");
    if p.exit_at.is_some() {
        src.push_str("    exit if (stop[i] == 1)\n");
    }
    match p.refused {
        None => {
            src.push_str(&recurrence("A", p.rec, t));
            if let Some(rec) = p.second {
                src.push_str(&recurrence("B", rec, t));
            }
            if p.after {
                src.push_str("    C[i] = A[i - 1] + 3\n");
            }
        }
        Some(Unlicensed::ChainRead) => src.push_str(&format!(
            "    r = A[i - 1]\n    A[i] = r + {t}\n    D[i] = r\n"
        )),
        Some(Unlicensed::Distance2) => src.push_str(&format!("    A[i + 1] = A[i - 1] + {t}\n")),
        Some(Unlicensed::AheadAfterStore) => {
            src.push_str(&format!("    A[i] = {t}\n    D[i] = A[i + 1]\n"))
        }
        Some(Unlicensed::TwoStores) => {
            src.push_str(&format!("    A[i] = A[i - 1] + {t}\n    A[i + 3] = 5\n"))
        }
        Some(Unlicensed::Uniform) => src.push_str(&format!("    A[4] = A[4] + {t}\n")),
        Some(Unlicensed::Mixed) => {
            src.push_str(&format!("    A[i] = A[i - 1] + {t}\n    A[idx[i]] = 5\n"))
        }
    }
    // a fault after the stores, which must then be undone
    if let Some((fault, at)) = p.fault {
        src.push_str(&format!("    D[i] = {}\n", fault.text(at)));
    }
    src.push_str("    i = i + 1\n}");
    src
}

fn scan_machine(p: &ScanParams) -> Machine {
    let len = p.n + EXTRA_ITERS + 8;
    let mut m = Machine::default();
    for (name, seed) in [("A", 5i64), ("B", 11), ("C", 0), ("D", 0)] {
        m.arrays.insert(
            name.into(),
            (0..len as i64).map(|v| (v * seed) % 13 - 6).collect(),
        );
    }
    m.arrays
        .insert("w".into(), (0..len as i64).map(|v| v * 3 - 7).collect());
    m.arrays.insert(
        "idx".into(),
        (0..len as i64).map(|v| (v * 7) % len as i64).collect(),
    );
    let mut stop = vec![0; len];
    if let Some(e) = p.exit_at.filter(|&e| e < len) {
        stop[e] = 1;
    }
    m.arrays.insert("stop".into(), stop);
    m.arrays.insert(
        "edge".into(),
        vec![1; p.fault.map_or(len, |(_, at)| at.min(len))],
    );
    m.scalars.insert("n".into(), p.n as i64);
    m.define_fn("g", |a| a[0].wrapping_add(7));
    m
}

/// A generated scatter: `A[idx[i]] = A[idx[i]] + …` through a permuted
/// `idx`, after an affine store to `B` or not, with the first collision
/// (if any) between lane `lane` of batch `batch` and another lane of it,
/// a second one in a later batch, and exits and faults at batch edges.
#[derive(Debug, Clone)]
struct ScatterParams {
    n: usize,
    extra_iters: usize,
    /// `idx[i]` is `(i·mul + add) mod len`
    mul: usize,
    add: usize,
    collision: Option<(usize, usize)>,
    store_first: bool,
    exit_at: Option<usize>,
    fault: Option<(Fault, usize)>,
}

fn scatter_strategy() -> impl Strategy<Value = ScatterParams> {
    let lane = prop_oneof![Just(0usize), Just(LANES / 2 - 1), Just(LANES - 1)];
    let fault = prop_oneof![
        Just(Fault::DivisionByZero),
        Just(Fault::Gather),
        Just(Fault::Edge)
    ];
    (
        (6usize..300, 0..EXTRA_ITERS, 0usize..4, 0usize..50),
        (prop::option::of((0usize..4, lane)), any::<bool>()),
        (0u8..3, at_strategy(), fault, at_strategy()),
    )
        .prop_map(
            |((n, extra_iters, mul, add), (collision, store_first), (pick, exit, fault, at))| {
                ScatterParams {
                    n,
                    extra_iters,
                    // coprime with any length that is not a multiple of 7, 11, 13 or 17
                    mul: [7, 11, 13, 17][mul],
                    add,
                    collision,
                    store_first,
                    exit_at: (pick == 1).then_some(exit),
                    fault: (pick == 2).then_some((fault, at)),
                }
            },
        )
}

fn scatter_source(p: &ScatterParams) -> String {
    let mut src = String::from("integer i = 0\nwhile (i < n) {\n");
    if p.exit_at.is_some() {
        src.push_str("    exit if (stop[i] == 1)\n");
    }
    if p.store_first {
        src.push_str("    B[i] = 2 * w[i]\n");
    }
    let fault = p
        .fault
        .map_or(String::new(), |(f, at)| format!(" + {}", f.text(at)));
    src.push_str(&format!("    A[idx[i]] = A[idx[i]] + w[i]{fault}\n"));
    src.push_str("    i = i + 1\n}");
    src
}

fn scatter_machine(p: &ScatterParams) -> Machine {
    // prime to every multiplier, and long enough for every iteration
    let mut len = p.n + EXTRA_ITERS + 8;
    while [7, 11, 13, 17].iter().any(|&m| len.is_multiple_of(m)) {
        len += 1;
    }
    let mut idx: Vec<i64> = (0..len)
        .map(|i| ((i * p.mul + p.add) % len) as i64)
        .collect();
    if let Some((batch, lane)) = p.collision {
        // iteration `1 + 64·batch + lane` meets the one a lane before it
        // (lane 0 the one after it), and 100 iterations on, two more meet
        let at = 1 + LANES * batch + lane;
        let other = if lane == 0 { at + 1 } else { at - 1 };
        if at + 101 < len {
            idx[at] = idx[other];
            idx[at + 100] = idx[at + 101];
        }
    }
    let mut m = Machine::default();
    m.arrays
        .insert("A".into(), (0..len as i64).map(|v| v % 11).collect());
    m.arrays.insert("B".into(), vec![0; len]);
    m.arrays
        .insert("w".into(), (0..len as i64).map(|v| v * 3 - 7).collect());
    m.arrays.insert("idx".into(), idx);
    let mut stop = vec![0; len];
    if let Some(e) = p.exit_at.filter(|&e| e < len) {
        stop[e] = 1;
    }
    m.arrays.insert("stop".into(), stop);
    let at = p.fault.map_or(len, |(_, at)| at);
    m.arrays.insert("edge".into(), vec![1; at.min(len)]);
    let cut = (0..len as i64).map(|i| if i == at as i64 { -1 } else { i });
    m.arrays.insert("cut".into(), cut.collect());
    m.scalars.insert("n".into(), p.n as i64);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_plan_execution_equals_the_reference_walker(params in prog_strategy()) {
        let src = source_of(&params);
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        // a bound that sometimes cuts the loop short and never lets `i`
        // leave the arrays
        let max_iters = params.n + params.extra_iters;
        assert_all_executions_match(&src, &prog, &machine_of(&params), max_iters, &pools());
    }

    #[test]
    fn batched_programs_equal_the_reference_walker(params in batch_strategy()) {
        let src = source_of(&params);
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let max_iters = params.n + params.extra_iters;
        assert_all_executions_match(&src, &prog, &machine_of(&params), max_iters, &pools());
    }

    #[test]
    fn scanned_recurrences_equal_the_reference_walker(params in scan_strategy()) {
        let src = scan_source(&params);
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let plan = ExecPlan::lower(&prog, &PlanHints::uncertified(DispatcherClass::MonotonicInduction));
        // what the licence grants, and what it must keep refusing
        match params.refused {
            None => {
                let scans: Vec<&str> = plan.batch_scans().iter().map(|&(a, _)| a).collect();
                let want: &[&str] = if params.second.is_some() { &["A", "B"] } else { &["A"] };
                prop_assert_eq!(scans, want, "{}", src);
            }
            Some(_) => prop_assert!(plan.batch_refusal().is_some(), "{}", src),
        }
        let max_iters = params.n + params.extra_iters;
        assert_all_executions_match(&src, &prog, &scan_machine(&params), max_iters, &pools());
    }

    #[test]
    fn checked_scatters_equal_the_reference_walker(params in scatter_strategy()) {
        let src = scatter_source(&params);
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let plan = ExecPlan::lower(&prog, &PlanHints::uncertified(DispatcherClass::MonotonicInduction));
        prop_assert_eq!(plan.batch_checked(), ["A"], "{}", src);
        let max_iters = params.n + params.extra_iters;
        assert_all_executions_match(&src, &prog, &scatter_machine(&params), max_iters, &pools());
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
