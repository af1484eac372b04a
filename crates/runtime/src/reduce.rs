//! Parallel folds and reductions.
//!
//! Several of the paper's post-execution steps are reductions: Induction-1's
//! `LI = min(L[1:nproc])`, the PD test's "count marked elements / any element
//! marked in both Aw and Ar" analysis, and MA28's time-stamp-ordered minimum
//! over privatized pivots. All are instances of a blocked parallel fold.

use crate::pool::Pool;

/// Folds `0..n` in parallel: each worker folds its contiguous block with
/// `fold`, and the per-worker accumulators are combined left-to-right with
/// `combine`. For a correct result, `fold`/`combine` must form the usual
/// monoid-homomorphism pair (e.g. both associative with `identity`).
pub fn parallel_fold<T, F, G>(pool: &Pool, n: usize, identity: T, fold: F, combine: G) -> T
where
    T: Clone + Send + Sync,
    F: Fn(T, usize) -> T + Sync,
    G: Fn(T, T) -> T,
{
    let parts = pool.run_map(|vpn| {
        let (lo, hi) = pool.block(vpn, n);
        let mut acc = identity.clone();
        for i in lo..hi {
            acc = fold(acc, i);
        }
        acc
    });
    parts.into_iter().fold(identity, combine)
}

/// Parallel minimum of a slice; `None` when empty.
pub fn parallel_min<T: Ord + Copy + Send + Sync>(pool: &Pool, xs: &[T]) -> Option<T> {
    parallel_fold(
        pool,
        xs.len(),
        None,
        |acc: Option<T>, i| {
            Some(match acc {
                Some(m) => m.min(xs[i]),
                None => xs[i],
            })
        },
        |a, b| match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, None) => x,
            (None, y) => y,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_sums_range() {
        let pool = Pool::new(4);
        let s = parallel_fold(&pool, 1000, 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        assert_eq!(s, 999 * 1000 / 2);
    }

    #[test]
    fn fold_empty_range_is_identity() {
        let pool = Pool::new(4);
        let s = parallel_fold(&pool, 0, 7i32, |acc, _| acc + 1, |a, b| a + b - 7);
        assert_eq!(s, 7);
    }

    #[test]
    fn min_finds_global_minimum() {
        let pool = Pool::new(4);
        let xs: Vec<i64> = (0..500).map(|i| (i * 37 % 101) - 50).collect();
        assert_eq!(parallel_min(&pool, &xs), xs.iter().copied().min());
        assert_eq!(parallel_min::<i64>(&pool, &[]), None);
    }
}
