//! Stress and interleaving properties for the lock-free hot paths: the
//! resident pool's region word (lanes claimed back to back across many
//! regions) and the relaxed claim/stamp marking protocol, whose
//! concurrent executions must stay linearizable — i.e. indistinguishable
//! from some sequential marking order — which we check by comparing the
//! production `Shadow` verdict of a *parallel* marking run against the
//! brute-force sequential PD oracle on the identical access log.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use wlp::pd::{oracle_verdict, Access, Shadow};
use wlp::runtime::{doall_dynamic, Pool, Step};

/// Back-to-back regions on one resident pool of 4: each region is
/// published while the workers are still spinning from the last, so
/// claims of consecutive regions race on the region word. Every lane
/// runs exactly once per region.
#[test]
fn back_to_back_regions_run_every_lane_once() {
    let regions = 10_000usize;
    let pool = Pool::new(4);
    let runs = [(); 4].map(|_| AtomicUsize::new(0));
    for region in 1..=regions {
        pool.run(|vpn| {
            runs[vpn].fetch_add(1, Ordering::Relaxed);
        });
        for (lane, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::Relaxed),
                region,
                "lane {lane} after region {region}"
            );
        }
    }
}

/// Builds per-iteration access logs from flat proptest-generated data.
/// `raw[i]` encodes one access: element index and read/write/covered-read
/// selector.
fn build_log(n_iters: usize, m: usize, raw: &[(usize, u8)]) -> Vec<Vec<Access>> {
    let mut iters: Vec<Vec<Access>> = vec![Vec::new(); n_iters];
    for (k, &(e, kind)) in raw.iter().enumerate() {
        let i = k % n_iters;
        let e = e % m;
        match kind % 3 {
            0 => iters[i].push(Access::Read(e)),
            1 => iters[i].push(Access::Write(e)),
            _ => {
                // write-then-read: a covered read, the privatization shape
                iters[i].push(Access::Write(e));
                iters[i].push(Access::Read(e));
            }
        }
    }
    iters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Linearizability of the relaxed claim/stamp marking: marking a
    /// random access log from 4 concurrent workers (relaxed CAS stamp
    /// insertion, inline write-sets, batched counters) must produce
    /// exactly the verdict the sequential brute-force oracle computes on
    /// the same log — for every overshoot cut.
    #[test]
    fn concurrent_marking_matches_the_sequential_oracle(
        n_iters in 1usize..24,
        m in 1usize..12,
        raw in prop::collection::vec((any::<usize>(), any::<u8>()), 0..120),
        cut in prop::option::of(0usize..24),
    ) {
        let iters = build_log(n_iters, m, &raw);
        let last_valid = cut.filter(|&c| c < n_iters);

        let sh = Shadow::new(m);
        let pool = Pool::new(4);
        let total: usize = iters.iter().map(|v| v.len()).sum();
        let out = doall_dynamic(&pool, n_iters, |i, _| {
            let mut marker = sh.iteration(i);
            for acc in &iters[i] {
                match *acc {
                    Access::Read(e) => marker.mark_read(e),
                    Access::Write(e) => marker.mark_write(e),
                }
            }
            Step::Continue
        });
        prop_assert!(out.panic.is_none() && out.timeout.is_none());

        let v = sh.analyze(&pool, last_valid, usize::MAX);
        let (doall, privatized) = oracle_verdict(&iters, last_valid);
        prop_assert_eq!(
            v.doall, doall,
            "shadow doall diverged from oracle (cut {:?})", last_valid
        );
        prop_assert_eq!(
            v.privatized_doall, privatized,
            "shadow privatized diverged from oracle (cut {:?})", last_valid
        );
        // access totals flushed by marker drops are exact
        prop_assert_eq!(sh.total_accesses(), total as u64);
    }
}

/// The oracle agreement holds under the *maximum-contention* shape too:
/// every iteration hammering the same element, marked from a full-width
/// pool — the densest stamp traffic the CAS loop can see.
#[test]
fn dense_single_element_marking_matches_oracle() {
    let n = 512usize;
    let iters: Vec<Vec<Access>> = (0..n)
        .map(|_| vec![Access::Read(0), Access::Write(0)])
        .collect();
    let sh = Shadow::new(1);
    let pool = Pool::new(4);
    let out = doall_dynamic(&pool, n, |i, _| {
        let mut marker = sh.iteration(i);
        marker.mark_read(0);
        marker.mark_write(0);
        Step::Continue
    });
    assert!(out.panic.is_none() && out.timeout.is_none());
    for cut in [None, Some(0), Some(1), Some(100), Some(511)] {
        let v = sh.analyze(&pool, cut, 4);
        let (doall, privatized) = oracle_verdict(&iters, cut);
        assert_eq!(v.doall, doall, "cut {cut:?}");
        assert_eq!(v.privatized_doall, privatized, "cut {cut:?}");
    }
}
