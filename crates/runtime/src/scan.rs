//! Parallel prefix computations (Section 3.2 of the paper).
//!
//! When the dispatcher is an *associative* recurrence, the paper distributes
//! the loop and evaluates the dispatcher terms with a parallel prefix
//! computation in `O(n/p + log p)` time, after which the remainder runs as a
//! DOALL over the precomputed terms.
//!
//! [`parallel_scan_inclusive`] is the classic three-phase blocked scan:
//! local scans, a sequential scan over `p` block sums, and a parallel
//! re-offset pass. Both parallel phases are regions of the caller's pool.

use crate::pool::Pool;
use std::sync::Mutex;

/// In-place inclusive prefix scan of `xs` under the associative `op`.
///
/// After the call, `xs[i] = xs[0] ⊕ xs[1] ⊕ … ⊕ xs[i]` (original values).
/// `op` must be associative; it need not be commutative.
///
/// ```
/// use wlp_runtime::{parallel_scan_inclusive, Pool};
///
/// let mut xs = vec![1, 2, 3, 4, 5];
/// parallel_scan_inclusive(&Pool::new(2), &mut xs, |a, b| a + b);
/// assert_eq!(xs, vec![1, 3, 6, 10, 15]);
/// ```
pub fn parallel_scan_inclusive<T, F>(pool: &Pool, xs: &mut [T], op: F)
where
    T: Clone + Send,
    F: Fn(&T, &T) -> T + Sync,
{
    let n = xs.len();
    let p = pool.size();
    if n == 0 {
        return;
    }
    if p == 1 || n < 2 * p {
        // Sequential fallback: too little work to amortize the extra pass.
        for i in 1..n {
            xs[i] = op(&xs[i - 1], &xs[i]);
        }
        return;
    }

    // Split into p contiguous blocks matching Pool::block: lane `vpn`
    // owns block `vpn` and, after phase 2, that block's left offset.
    let mut lanes: Vec<Mutex<(&mut [T], Option<T>)>> = Vec::with_capacity(p);
    {
        let mut rest = xs;
        for vpn in 0..p {
            let (lo, hi) = pool.block(vpn, n);
            let (head, tail) = rest.split_at_mut(hi - lo);
            lanes.push(Mutex::new((head, None)));
            rest = tail;
        }
    }

    // Phase 1: local inclusive scans, one per lane.
    pool.run(|vpn| {
        let block = &mut *lanes[vpn].lock().expect("no lane panicked").0;
        for i in 1..block.len() {
            block[i] = op(&block[i - 1], &block[i]);
        }
    });

    // Phase 2: sequential exclusive scan over the p block totals.
    let mut acc: Option<T> = None;
    for lane in lanes.iter_mut() {
        let (block, offset) = lane.get_mut().expect("no lane panicked");
        *offset = acc.clone();
        if let Some(last) = block.last() {
            acc = Some(match acc {
                Some(a) => op(&a, last),
                None => last.clone(),
            });
        }
    }

    // Phase 3: apply each block's left offset, one per lane.
    pool.run(|vpn| {
        let (block, offset) = &mut *lanes[vpn].lock().expect("no lane panicked");
        if let Some(off) = offset {
            for x in block.iter_mut() {
                *x = op(off, x);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    fn seq_scan(xs: &[i64]) -> Vec<i64> {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0;
        for &x in xs {
            acc += x;
            out.push(acc);
        }
        out
    }

    #[test]
    fn scan_matches_sequential_sum() {
        let pool = Pool::new(4);
        for n in [0usize, 1, 2, 7, 8, 9, 100, 1001] {
            let orig: Vec<i64> = (0..n as i64).map(|i| i * 3 - 5).collect();
            let mut xs = orig.clone();
            parallel_scan_inclusive(&pool, &mut xs, |a, b| a + b);
            assert_eq!(xs, seq_scan(&orig), "n = {n}");
        }
    }

    #[test]
    fn scan_handles_noncommutative_op() {
        // String concatenation is associative but not commutative: order bugs
        // in the blocked scan would scramble the result.
        let pool = Pool::new(4);
        let mut xs: Vec<String> = (0..40).map(|i| format!("{i},")).collect();
        parallel_scan_inclusive(&pool, &mut xs, |a, b| format!("{a}{b}"));
        let expected: String = (0..40).map(|i| format!("{i},")).collect();
        assert_eq!(xs.last().unwrap(), &expected);
        assert_eq!(xs[0], "0,");
        assert_eq!(xs[1], "0,1,");
    }

    #[test]
    fn scan_runs_on_the_pools_own_threads() {
        // every `op` call is made by the caller (lane 0) or a resident
        // worker of the pool, never by a thread spawned for the scan
        let pool = Pool::new(4);
        // the barrier holds every lane until all four are in, so each runs
        // on a thread of its own and the set names every pool thread
        let gate = Barrier::new(4);
        let lanes = pool.run_map(|_| {
            gate.wait();
            thread::current().id()
        });
        let lanes: HashSet<ThreadId> = lanes.into_iter().collect();
        assert_eq!(lanes.len(), 4);
        let callers = Mutex::new(HashSet::new());
        let mut xs: Vec<i64> = (0..1000).collect();
        parallel_scan_inclusive(&pool, &mut xs, |a, b| {
            callers.lock().unwrap().insert(thread::current().id());
            a + b
        });
        assert_eq!(xs[999], 999 * 1000 / 2);
        let callers = callers.into_inner().unwrap();
        assert!(callers.is_subset(&lanes), "{callers:?} vs lanes {lanes:?}");
    }

    #[test]
    fn scan_single_element() {
        let pool = Pool::new(8);
        let mut xs = vec![42i64];
        parallel_scan_inclusive(&pool, &mut xs, |a, b| a + b);
        assert_eq!(xs, vec![42]);
    }
}
