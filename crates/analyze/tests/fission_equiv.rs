//! Property: executing a loop block-by-block along its fission plan is
//! observation-equivalent to interpreting the whole loop sequentially.
//!
//! For generated multi-recurrence bodies (independent array recurrences,
//! cross-array consumers at distances 1–3, same-iteration consumers and
//! pure DOALL statements), the fission plan's work blocks are turned
//! back into per-block source programs — each keeping the full
//! dispatcher and every exit test, i.e. the dispatcher-censored
//! remainder re-driven per block — and run to completion in stage order
//! on one shared machine. The final machine must equal the one the
//! whole-program sequential interpretation produces: distribution
//! (`distribute` → `fuse` → split) loses no writes and reorders none
//! that matter.

#[path = "support/fission_bodies.rs"]
mod fission_bodies;

use fission_bodies::{params_strategy, source_of, Params};
use proptest::prelude::*;
use wlp_analyze::fission_plan;
use wlp_ir::frontend::{lower, parse_program, Program, Stmt};
use wlp_ir::interp::{run_sequential, Machine};

fn machine_of(p: &Params) -> Machine {
    let mut m = Machine::default();
    let len = p.n + 4;
    for j in 0..p.stmts.len() {
        m.arrays
            .insert(format!("X{j}"), (0..len as i64).map(|v| v % 5).collect());
    }
    m.arrays
        .insert("w".into(), (0..len as i64).map(|v| v * 5 % 11).collect());
    m
}

/// The per-block source program: the block's assignment statements plus
/// the full dispatcher (every scalar update) and every exit test, so the
/// block re-drives the censored remainder exactly as a DOACROSS stage
/// owns its slice of the work but shares the loop control.
fn block_program(whole: &Program, block_stmts: &[usize]) -> Program {
    let mut out = whole.clone();
    let keep: Vec<bool> = whole
        .body
        .iter()
        .enumerate()
        .map(|(j, st)| {
            // lowered statement j+1 corresponds to body statement j
            // (lowered statement 0 is the WHILE condition's exit test)
            matches!(st, Stmt::AssignVar(..) | Stmt::ExitIf(..)) || block_stmts.contains(&(j + 1))
        })
        .collect();
    let mut it = keep.iter();
    out.body.retain(|_| *it.next().unwrap());
    let mut it = keep.iter();
    out.stmt_spans.retain(|_| *it.next().unwrap());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_by_block_execution_matches_whole_program(params in params_strategy()) {
        let src = source_of(&params);
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let body = lower(&prog).unwrap_or_else(|e| panic!("{src}\n{e:?}"));
        let plan = fission_plan(&body);

        // completeness: every array assignment lands in exactly one block
        let mut covered: Vec<usize> = plan.blocks.iter().flat_map(|b| b.stmts.clone()).collect();
        covered.sort_unstable();
        let before = covered.len();
        covered.dedup();
        prop_assert_eq!(before, covered.len(), "a statement landed in two blocks\n{}", src);
        for (j, st) in prog.body.iter().enumerate() {
            if matches!(st, Stmt::AssignElem(..)) {
                prop_assert!(
                    covered.contains(&(j + 1)),
                    "assignment {} missing from every work block\n{}",
                    j + 1,
                    src
                );
            }
        }

        let bound = params.n + 10;
        let mut whole = machine_of(&params);
        run_sequential(&prog, &mut whole, bound).unwrap_or_else(|e| panic!("{src}\n{e}"));

        // per-block execution in stage order on one shared machine
        let mut staged = machine_of(&params);
        for b in &plan.blocks {
            let bp = block_program(&prog, &b.stmts);
            run_sequential(&bp, &mut staged, bound).unwrap_or_else(|e| panic!("{src}\n{e}"));
        }

        if staged.arrays != whole.arrays {
            let diff: Vec<String> = whole.arrays.keys().filter(|k| staged.arrays[*k] != whole.arrays[*k]).map(|k| format!("{k}: staged {:?} vs whole {:?}", staged.arrays[k], whole.arrays[k])).collect();
            panic!("arrays diverged\n{src}\nplan: {:?}\n{}", plan, diff.join("\n"));
        }
        prop_assert_eq!(&staged.scalars, &whole.scalars, "scalars diverged\n{}", src);
    }
}

/// The same equivalence, deterministically, on the two corpus loops the
/// fission exhibit is built around.
#[test]
fn corpus_fission_plans_execute_equivalently() {
    for (name, src, arrays) in [
        (
            "wavefront",
            "integer i = 1\nwhile (i < 64) {\n    B[i] = B[i - 1] + w[i]\n    C[i] = B[i - 1] + 3\n    i = i + 1\n}",
            vec!["B", "C", "w"],
        ),
        (
            "mcsparse_pair",
            "integer i = 1\nwhile (i < 64) {\n    A[i] = A[i - 1] + w[i]\n    B[i] = B[i - 1] * 2\n    C[i] = A[i - 1] + w[i]\n    i = i + 1\n}",
            vec!["A", "B", "C", "w"],
        ),
    ] {
        let (staged, whole) = staged_and_whole(src, || {
            let mut m = Machine::default();
            for a in &arrays {
                m.arrays
                    .insert(a.to_string(), (0..70).map(|v| v % 7 + 1).collect());
            }
            m
        });
        assert_eq!(staged.arrays, whole.arrays, "{name}");
        assert_eq!(staged.scalars, whole.scalars, "{name}");
    }
}

/// Runs `src` whole and block by block in stage order, each from the
/// machine `build` makes; the plan must split the loop.
fn staged_and_whole(src: &str, build: impl Fn() -> Machine) -> (Machine, Machine) {
    let prog = parse_program(src).expect(src);
    let plan = fission_plan(&lower(&prog).expect(src));
    assert!(plan.is_fissioned(), "{src}\n{plan:?}");
    let mut whole = build();
    run_sequential(&prog, &mut whole, 100).expect(src);
    let mut staged = build();
    for b in &plan.blocks {
        run_sequential(&block_program(&prog, &b.stmts), &mut staged, 100).expect(src);
    }
    (staged, whole)
}

/// `B[i - 1]` read by the first statement is the value the second wrote
/// one iteration earlier: a carried flow dependence from the second
/// statement back to the first, which with the same-iteration flow on `A`
/// makes a cycle. The dependence graph draws every edge from the lower
/// statement index to the higher one, so it sees a forward `Anti` edge,
/// and privatizing `A` drops the forward flow edge: the plan is two DOALL
/// stages, and stage order runs every `A` assignment before any `B`.
#[test]
#[ignore = "ROADMAP 3(b): the fission graph is direction-blind"]
fn a_backward_carried_flow_keeps_its_statements_in_one_stage() {
    let src = "integer i = 1\nwhile (i < 6) {\n    A[i] = B[i - 1] + 1\n    B[i] = A[i] * 2\n    i = i + 1\n}";
    let (staged, whole) = staged_and_whole(src, || {
        let mut m = Machine::default();
        m.arrays.insert("A".into(), vec![0; 6]);
        m.arrays.insert("B".into(), vec![0; 6]);
        m
    });
    assert_eq!(whole.arrays["A"], [0, 1, 3, 7, 15, 31]);
    // stage order leaves A = [0, 1, 1, 1, 1, 1]
    assert_eq!(staged.arrays, whole.arrays);
}
