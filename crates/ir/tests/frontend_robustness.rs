//! Front-end robustness: arbitrary input never panics, and valid programs
//! round-trip through parse → lower → plan without surprises.

mod common;

use common::reference_run;
use proptest::prelude::*;
use wlp_analyze::{analyze, plan_hints};
use wlp_ir::exec::ExecPlan;
use wlp_ir::frontend::{lower_with_symbols, parse_program, Program};
use wlp_ir::interp::Machine;
use wlp_ir::{parse_loop, plan};
use wlp_runtime::CancelFlag;

/// Literals whose folded coefficient leaves `i64`: `linear_form` must call
/// the expression "not linear" — it used to overflow (a panic in a debug
/// build, a wrapped coefficient handed to the dependence tests in a
/// release one) — and the whole pipeline must still agree with the walker,
/// which computes in the wrapping ring.
#[test]
fn literals_that_overflow_a_linear_fold_go_the_conservative_way() {
    for body in [
        "A[0] = i; i = i + 9223372036854775807 + 9223372036854775807",
        "A[0] = A[0] + 1; i = i + 4611686018427387904 * 4",
        "A[3037000500 * (3037000500 * i)] = 1; i = i + 1",
        "A[i] = 1; i = i - -9223372036854775807 - 2",
    ] {
        let src = format!("integer i = 0\nwhile (i < 4) {{ {body} }}");
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let (ir, symbols) = lower_with_symbols(&prog).expect("lowers");
        let analysis = analyze(&ir);
        let hints = plan_hints(
            &ir,
            &symbols,
            &analysis.certificate,
            &analysis.privatization.arrays,
            analysis.baseline.dispatcher,
        );
        let plan = ExecPlan::lower(&prog, &hints);

        let start = || {
            let mut m = Machine::default();
            m.arrays.insert("A".into(), vec![0; 8]);
            m
        };
        let mut want = start();
        let expected = reference_run(&prog, &mut want, 6);
        let mut got = start();
        let mut frame = got.bind(&plan);
        let result = plan.run_sequential(&mut frame, 6, &CancelFlag::new());
        got.absorb(&plan, frame);
        assert_eq!(result, expected, "{src}");
        assert_eq!(got.arrays, want.arrays, "{src}");
        assert_eq!(got.scalars, want.scalars, "{src}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(src in "\\PC{0,200}") {
        // any outcome is fine; panicking is not
        let _ = parse_loop(&src);
    }

    #[test]
    fn token_soup_never_panics(
        toks in prop::collection::vec(
            prop_oneof![
                Just("while".to_string()),
                Just("integer".to_string()),
                Just("exit".to_string()),
                Just("if".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("[".to_string()),
                Just("]".to_string()),
                Just("=".to_string()),
                Just("+".to_string()),
                Just("<".to_string()),
                Just("i".to_string()),
                Just("A".to_string()),
                Just("7".to_string()),
            ],
            0..40,
        )
    ) {
        let src = toks.join(" ");
        let _ = parse_loop(&src);
    }

    #[test]
    fn well_formed_counting_loops_always_lower(
        bound in 1i64..1000,
        stride in 1i64..5,
        coeff in 1i64..4,
        offset in 0i64..10,
    ) {
        let src = format!(
            "integer i = 0\nwhile (i < {bound}) {{ A[{coeff}*i + {offset}] = i; i = i + {stride} }}"
        );
        let ir = parse_loop(&src).unwrap();
        let p = plan(&ir);
        // an affine store over a known induction is always an induction DOALL
        assert_eq!(p.strategy, wlp_ir::StrategyKind::InductionDoall);
        assert!(!p.needs_pd_test, "affine subscripts are analyzable: {src}");
    }

    #[test]
    fn parse_is_deterministic(seed in any::<u64>()) {
        let src = format!(
            "integer i = {}\nwhile (i < n) {{ A[i] = B[i] + {}; i = i + 1 }}",
            seed % 100,
            seed % 7
        );
        let a: Program = parse_program(&src).unwrap();
        let b: Program = parse_program(&src).unwrap();
        assert_eq!(a, b);
    }
}
