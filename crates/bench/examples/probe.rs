//! Calibration probe: prints p = 8 speedups for a grid of MCSPARSE
//! first-success depths and MA28 scan lengths, per input. Used to pick the
//! calibration constants documented in EXPERIMENTS.md.

use wlp_sim::{sim_doany, sim_doany_sequential, sim_induction_doall, sim_sequential, Schedule};
use wlp_sparse::EliminationWork;
use wlp_workloads::{ma28, mcsparse};

fn main() {
    for (name, m) in wlp_bench::inputs() {
        let mut work = EliminationWork::from_csr(&m);
        ma28::pre_eliminate_singletons(&mut work, 0.1);

        // MCSPARSE: depth sweep
        let colmap = mcsparse::column_rows(&work);
        let bound = if name.starts_with("gematt") { 4 } else { 16 };
        let admissible: Vec<usize> = mcsparse::candidates(work.n())
            .enumerate()
            .filter_map(|(k, cand)| {
                mcsparse::evaluate_candidate(&work, &colmap, cand, 0.1)
                    .filter(|p| p.cost <= bound)
                    .map(|_| k)
            })
            .collect();
        let (spec, oh) = mcsparse::sim_spec(&work);
        print!("{name} DOANY depth→s8: ");
        for depth in [5usize, 10, 20, 30, 40, 60, 90, 130, 200, 300] {
            let succ: Vec<usize> = admissible.iter().copied().filter(|&k| k >= depth).collect();
            let seq = sim_doany_sequential(&spec, &oh, &succ);
            let par = sim_doany(8, &spec, &oh, &succ);
            print!("{depth}:{:.2} ", par.speedup(&seq));
        }
        println!();

        // MA28: scan-length sweep for 270 (rows) and 320 (cols)
        let rows = ma28::candidate_rows(&work);
        let row_lens: Vec<u64> = rows.iter().map(|&r| work.row(r).len() as u64).collect();
        print!("{name} 270 L→s8:  ");
        for l in [10usize, 15, 20, 30, 50, 80, 120, 200, 400] {
            let lens = row_lens.clone();
            let (spec, oh, cfg) = ma28::sim_spec(lens, Some(l.min(rows.len()) - 1));
            let seq = sim_sequential(&spec, &oh);
            let par = sim_induction_doall(8, &spec, &oh, &cfg, Schedule::Dynamic);
            print!("{l}:{:.2} ", par.speedup(&seq));
        }
        println!();
        let cols = ma28::candidate_cols(&work);
        let col_lens: Vec<u64> = cols.iter().map(|&j| colmap[j].len() as u64).collect();
        print!("{name} 320 L→s8:  ");
        for l in [10usize, 15, 20, 30, 50, 80, 120, 200, 400] {
            let lens = col_lens.clone();
            let (spec, oh, cfg) = ma28::sim_spec(lens, Some(l.min(cols.len()) - 1));
            let seq = sim_sequential(&spec, &oh);
            let par = sim_induction_doall(8, &spec, &oh, &cfg, Schedule::Dynamic);
            print!("{l}:{:.2} ", par.speedup(&seq));
        }
        println!();
    }
}
