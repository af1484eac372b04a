//! Property tests: the shadow analysis must agree with the brute-force
//! oracle on arbitrary access patterns and arbitrary last-valid cuts.

use proptest::prelude::*;
use wlp_pd::{oracle_verdict, Access, Shadow};
use wlp_runtime::Pool;

fn access_strategy(m: usize) -> impl Strategy<Value = Access> {
    prop_oneof![
        (0..m).prop_map(Access::Read),
        (0..m).prop_map(Access::Write),
    ]
}

fn iterations_strategy(m: usize) -> impl Strategy<Value = Vec<Vec<Access>>> {
    prop::collection::vec(prop::collection::vec(access_strategy(m), 0..6), 0..12)
}

fn shadow_verdict(iterations: &[Vec<Access>], last_valid: Option<usize>, m: usize) -> (bool, bool) {
    let sh = Shadow::new(m);
    for (i, accs) in iterations.iter().enumerate() {
        let mut marker = sh.iteration(i);
        for acc in accs {
            match *acc {
                Access::Read(e) => marker.mark_read(e),
                Access::Write(e) => marker.mark_write(e),
            }
        }
    }
    let v = sh.analyze(&Pool::new(2), last_valid, 64);
    (v.doall, v.privatized_doall)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shadow_matches_oracle_without_overshoot(iters in iterations_strategy(8)) {
        let expected = oracle_verdict(&iters, None);
        let got = shadow_verdict(&iters, None, 8);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn shadow_matches_oracle_for_every_cut(iters in iterations_strategy(6)) {
        for li in 0..iters.len() {
            let expected = oracle_verdict(&iters, Some(li));
            let got = shadow_verdict(&iters, Some(li), 6);
            prop_assert_eq!(got, expected, "cut at last_valid = {}", li);
        }
    }

    #[test]
    fn privatized_is_implied_by_doall(iters in iterations_strategy(8)) {
        let (doall, privatized) = shadow_verdict(&iters, None, 8);
        // valid-as-is loops are trivially valid privatized
        prop_assert!(!doall || privatized);
    }

    #[test]
    fn marking_order_across_iterations_is_irrelevant(
        iters in iterations_strategy(6),
        seed in any::<u64>(),
    ) {
        // Mark iterations in a shuffled order (as a parallel execution
        // would); the verdict must not change.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<usize> = (0..iters.len()).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));

        let sh = Shadow::new(6);
        for &i in &order {
            let mut marker = sh.iteration(i);
            for acc in &iters[i] {
                match *acc {
                    Access::Read(e) => marker.mark_read(e),
                    Access::Write(e) => marker.mark_write(e),
                }
            }
        }
        let v = sh.analyze(&Pool::new(2), None, 64);
        prop_assert_eq!((v.doall, v.privatized_doall), oracle_verdict(&iters, None));
    }
}
