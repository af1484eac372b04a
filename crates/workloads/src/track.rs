//! TRACK `FPTRAK` loop 300: a DO loop with a conditional error exit and
//! run-time-computed subscripts (Figure 7).
//!
//! Each iteration filters one track-point measurement through a
//! subscript-array indirection (`A[idx[i]]`), and bails out of the loop
//! when an error condition — computed from the iteration's own result —
//! fires. Taxonomy: induction dispatcher, **RV** terminator, statically
//! unanalyzable accesses ⇒ Induction-1/2 with checkpoint, write
//! time-stamps and undo of overshot iterations (the paper measured 5.8×
//! at p = 8 with backups and time-stamps, against a hand-parallelized
//! ideal).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use wlp_core::induction::InductionOutcome;
use wlp_core::speculate::{speculative_while, SpecOutcome, SpeculativeArray};
use wlp_runtime::Pool;
use wlp_sim::spec::TerminatorKind;
use wlp_sim::{ExecConfig, LoopSpec, Overheads};

/// One TRACK-like problem instance.
#[derive(Debug, Clone)]
pub struct TrackInstance {
    /// Run-time-computed subscripts (a permutation in a healthy run).
    pub idx: Vec<usize>,
    /// Measurement inputs, one per iteration.
    pub meas: Vec<f64>,
    /// Error threshold: the loop exits at the first filtered value whose
    /// magnitude exceeds it.
    pub limit: f64,
    /// Initial state of the track-point array.
    pub state: Vec<f64>,
}

/// The per-iteration filter: combines the measurement with the current
/// track-point value (reads `A[idx[i]]`, writes it back).
fn filter(prev: f64, meas: f64) -> f64 {
    let mut v = 0.75 * prev + 0.25 * meas;
    for _ in 0..6 {
        v = v + 0.01 * (meas - v); // smoothing sweeps (body weight)
    }
    v
}

impl TrackInstance {
    /// Builds an instance whose error exit fires at iteration `exit_at`
    /// (or never, if `exit_at >= n`).
    pub fn new(n: usize, exit_at: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        let state: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let limit = 1e6;
        let mut meas: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        if exit_at < n {
            meas[exit_at] = 10.0 * limit; // guarantees |filtered| > limit
        }
        TrackInstance {
            idx,
            meas,
            limit,
            state,
        }
    }

    /// Sequential reference: returns the final state and the exit
    /// iteration (the first whose filtered value breaks the limit).
    pub fn run_sequential(&self) -> (Vec<f64>, Option<usize>) {
        let mut a = self.state.clone();
        for i in 0..self.meas.len() {
            let e = self.idx[i];
            let v = filter(a[e], self.meas[i]);
            if v.abs() > self.limit {
                return (a, Some(i)); // error detected: A[idx[i]] not updated
            }
            a[e] = v;
        }
        (a, None)
    }

    /// Parallel execution: speculative Induction-2 DOALL with the PD test
    /// over the indirectly-subscripted array, checkpoint/time-stamps and
    /// undo of overshot iterations. Returns the final state and the
    /// speculation outcome.
    pub fn run_parallel(&self, pool: &Pool) -> (Vec<f64>, SpecOutcome) {
        let arr = SpeculativeArray::new(self.state.clone());
        let out = speculative_while(
            pool,
            self.meas.len(),
            &arr,
            |i, a| {
                // RV terminator: reads the track point and filters — the
                // condition depends on values the loop computes
                let v = filter(a.read(self.idx[i]), self.meas[i]);
                v.abs() > self.limit
            },
            |i, a| {
                let e = self.idx[i];
                let v = filter(a.read(e), self.meas[i]);
                a.write(e, v);
            },
        );
        (arr.snapshot(), out)
    }

    /// The paper also reports the ideal (hand-parallelized) curve for this
    /// loop: the same DOALL without any checkpoint/stamp/undo machinery,
    /// valid because a human has proven independence. Returns the outcome
    /// only (state handling identical to the speculative path).
    pub fn run_hand_parallel(&self, pool: &Pool) -> InductionOutcome {
        let state: Vec<crossbeam::atomic::AtomicCell<f64>> = self
            .state
            .iter()
            .map(|&v| crossbeam::atomic::AtomicCell::new(v))
            .collect();
        wlp_core::induction::induction2(
            pool,
            self.meas.len(),
            wlp_runtime::DoallOptions::default(),
            |i| filter(state[self.idx[i]].load(), self.meas[i]).abs() > self.limit,
            |i, _| {
                let e = self.idx[i];
                state[e].store(filter(state[e].load(), self.meas[i]));
            },
        )
    }
}

/// Simulator view: uniform filter bodies, RV exit at `exit_at`, one
/// indirect read + one indirect write per iteration, with the full undo
/// machinery (Table 2: "backups and time-stamps").
pub fn sim_spec(n: usize, exit_at: usize) -> (LoopSpec, Overheads, ExecConfig) {
    let spec = LoopSpec::uniform(n, 45)
        .with_exit(exit_at, TerminatorKind::RemainderVariant)
        .with_accesses(|_| 1, |_| 2);
    // TRACK's indirect accesses make the stamping/backup machinery
    // relatively expensive (subscripted-subscript stores): the gap between
    // the Induction-1 curve and the hand-parallel ideal in Figure 7
    let oh = Overheads {
        t_stamp: 12,
        t_backup: 6,
        t_restore: 6,
        ..Overheads::default()
    };
    (spec, oh, ExecConfig::with_undo(n as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close_vec(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn parallel_matches_sequential_with_exit() {
        let inst = TrackInstance::new(2000, 1500, 11);
        let (seq_state, seq_exit) = inst.run_sequential();
        let pool = Pool::new(4);
        let (par_state, out) = inst.run_parallel(&pool);
        assert_eq!(out.last_valid, seq_exit);
        assert_eq!(seq_exit, Some(1500));
        assert!(
            out.committed_parallel,
            "speculation must pass: {:?}",
            out.verdict
        );
        close_vec(&seq_state, &par_state);
    }

    #[test]
    fn parallel_matches_sequential_without_exit() {
        let inst = TrackInstance::new(500, usize::MAX, 3);
        let (seq_state, seq_exit) = inst.run_sequential();
        assert_eq!(seq_exit, None);
        let pool = Pool::new(4);
        let (par_state, out) = inst.run_parallel(&pool);
        assert!(out.committed_parallel);
        assert_eq!(out.last_valid, None);
        close_vec(&seq_state, &par_state);
    }

    #[test]
    fn overshot_iterations_are_undone() {
        let inst = TrackInstance::new(4000, 100, 5);
        let pool = Pool::new(8);
        let (par_state, out) = inst.run_parallel(&pool);
        assert!(out.committed_parallel);
        let (seq_state, _) = inst.run_sequential();
        close_vec(&seq_state, &par_state);
        // iterations past 100 were claimed but their writes rolled back
        assert_eq!(out.last_valid, Some(100));
    }

    #[test]
    fn duplicate_subscripts_force_sequential_fallback() {
        // corrupt the subscript array: iterations 10 and 11 collide, and
        // iteration 11 reads what 10 wrote ⇒ cross-iteration flow dep
        let mut inst = TrackInstance::new(200, usize::MAX, 9);
        inst.idx[11] = inst.idx[10];
        let (seq_state, _) = inst.run_sequential();
        let pool = Pool::new(4);
        let (par_state, out) = inst.run_parallel(&pool);
        assert!(!out.committed_parallel, "PD test must catch the collision");
        assert!(out.reexecuted_sequentially);
        close_vec(&seq_state, &par_state);
    }

    #[test]
    fn hand_parallel_finds_the_same_exit() {
        let inst = TrackInstance::new(1000, 700, 21);
        let pool = Pool::new(4);
        let out = inst.run_hand_parallel(&pool);
        assert_eq!(out.last_valid, Some(700));
    }
}
