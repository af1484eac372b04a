//! One loop, two clock domains.
//!
//! Runs the same General-3 list traversal twice — once on the threaded
//! runtime (timestamps in nanoseconds, recorded by a `BufferRecorder`)
//! and once on the deterministic simulator (timestamps in virtual
//! cycles) — and demonstrates that both emit the *same* event schema:
//! the kind histograms are printed side by side and the kind sets are
//! asserted identical. Both traces are then aggregated into
//! `ProfileReport`s (conservation-checked) and exported as Chrome
//! trace-event JSON for `chrome://tracing` / Perfetto.
//!
//! ```bash
//! cargo run --release --example trace
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use wlp::core::general::{general3_until, GeneralConfig};
use wlp::list::ListArena;
use wlp::obs::{chrome_trace, BufferRecorder, ProfileReport, Trace};
use wlp::runtime::{Pool, Step};
use wlp::sim::{simulate, Engine, ExecConfig, LoopSpec, Overheads, Strategy};

const N: usize = 2_000;
const P: usize = 4;

fn histogram_count(hist: &[(&str, u64)], kind: &str) -> u64 {
    hist.iter()
        .find(|&&(k, _)| k == kind)
        .map_or(0, |&(_, c)| c)
}

fn main() {
    // The threaded run: a real pool chases a real (shuffled) linked list.
    let list = ListArena::from_values_shuffled(0u64..N as u64, 7);
    let sink: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
    let pool = Pool::new(P);
    let rec = BufferRecorder::new(P);
    general3_until(&pool, &list, GeneralConfig::recorded(&rec), |i, node| {
        sink[i].store(list[node].wrapping_mul(3), Ordering::Relaxed);
        Step::Continue
    });
    let threaded: Trace = rec.finish();

    // The simulated run: the same strategy replayed on an observed engine
    // of the virtual machine — how any simulated strategy is traced.
    let spec = LoopSpec::uniform(N, 40);
    let mut eng = Engine::new_observed(P);
    let (oh, cfg) = (Overheads::default(), ExecConfig::bare());
    simulate(&mut eng, &spec, &oh, &cfg, Strategy::General3);
    let simulated = eng.finish_obs_trace();

    // Side-by-side histograms: one schema, two clock domains.
    let ht = threaded.kind_histogram();
    let hs = simulated.kind_histogram();
    let mut kinds: Vec<&str> = ht.iter().chain(hs.iter()).map(|&(k, _)| k).collect();
    kinds.sort_unstable();
    kinds.dedup();
    println!("event kind        threaded(ns)  simulated(cycles)");
    for k in &kinds {
        println!(
            "{k:<17} {:>12} {:>18}",
            histogram_count(&ht, k),
            histogram_count(&hs, k)
        );
    }

    // The schemas must agree kind-for-kind. (Exact *counts* differ only
    // where they should: thread scheduling varies catch-up hop batching,
    // while the simulator is deterministic.)
    let tk: Vec<&str> = ht.iter().map(|&(k, _)| k).collect();
    let sk: Vec<&str> = hs.iter().map(|&(k, _)| k).collect();
    assert_eq!(
        tk, sk,
        "runtime and simulator must emit the same event kinds"
    );
    assert_eq!(
        histogram_count(&ht, "iter_executed"),
        histogram_count(&hs, "iter_executed"),
        "both domains execute every iteration exactly once"
    );
    println!("\nkind sets identical: {}", tk.join(", "));

    for (label, trace) in [("threaded", &threaded), ("simulated", &simulated)] {
        let r = ProfileReport::from_trace(trace);
        r.check_conservation().expect("conservation laws must hold");
        println!(
            "{label:>9}: p={} makespan={} utilization={:.2} executed={} hops={}",
            r.p,
            r.makespan,
            r.utilization(),
            r.executed,
            r.hops
        );
    }

    for (path, trace) in [
        ("trace_threaded.json", &threaded),
        ("trace_simulated.json", &simulated),
    ] {
        std::fs::write(path, chrome_trace(trace)).expect("write trace file");
        println!("wrote {path} (load in chrome://tracing or Perfetto)");
    }
}
