//! Sliding-window DOALL claim rule (Section 8.2).

use super::driver::{Counter, Grant, Sim};
use wlp_obs::Event;

/// Dynamic self-scheduling whose in-flight iteration span never exceeds
/// `window` (the resource-controlled self-scheduler). A processor whose
/// claim would widen the span beyond the window idles until the
/// low-watermark iteration completes; the stall is a `LockWait`.
///
/// # Panics
/// Panics if `window == 0`.
pub(crate) fn windowed(sim: &mut Sim, window: usize) {
    assert!(window > 0, "window must be positive");
    let resize = Event::WindowResize {
        window: window as u64,
    };
    sim.eng.emit(0, resize);
    let mut counter = Counter::ordered(sim, 0..sim.spec.upper);
    // Completion time of each claimed iteration; actions are processed in
    // non-decreasing time order, so the low watermark only advances.
    let (mut end_time, mut low) = (Vec::<u64>::new(), 0);
    sim.drive(|sim, proc| {
        let Some(next) = counter.peek(sim, proc) else {
            return Grant::Done;
        };
        let t = sim.eng.now(proc);
        while low < next && end_time[low] <= t {
            low += 1;
        }
        if next - low >= window {
            // idle until the watermark iteration completes, then re-check
            sim.eng.stall_until(proc, end_time[low]);
            return Grant::Again;
        }
        let grant = counter.claim(sim, proc).expect("peeked");
        sim.run_bodies(proc, grant);
        end_time.push(sim.eng.now(proc));
        Grant::Again
    });
}

#[cfg(test)]
mod tests {
    use crate::spec::TerminatorKind::RemainderVariant as RV;
    use crate::{
        sim_induction_doall, sim_sequential, sim_windowed, ExecConfig, LoopSpec, Overheads,
        Schedule,
    };

    fn oh() -> Overheads {
        Overheads::default()
    }

    #[test]
    fn huge_window_matches_plain_dynamic_doall() {
        let spec = LoopSpec::uniform(500, 80);
        let plain = sim_induction_doall(4, &spec, &oh(), &ExecConfig::bare(), Schedule::Dynamic);
        let win = sim_windowed(4, &spec, &oh(), &ExecConfig::bare(), 10_000);
        assert_eq!(plain.makespan, win.makespan);
        assert_eq!(plain.executed, win.executed);
    }

    #[test]
    fn window_bounds_rv_overshoot() {
        let spec = LoopSpec::uniform(100_000, 50).with_exit(300, RV);
        for w in [4usize, 16, 64] {
            let r = sim_windowed(8, &spec, &oh(), &ExecConfig::with_undo(100), w);
            assert!(
                r.overshoot <= w as u64,
                "window {w}: overshoot {} exceeds bound",
                r.overshoot
            );
        }
    }

    #[test]
    fn tiny_window_costs_throughput() {
        let spec = LoopSpec::uniform(2000, 50);
        let seq = sim_sequential(&spec, &oh());
        let wide = sim_windowed(8, &spec, &oh(), &ExecConfig::bare(), 1024).speedup(&seq);
        let narrow = sim_windowed(8, &spec, &oh(), &ExecConfig::bare(), 8).speedup(&seq);
        assert!(
            wide >= narrow,
            "narrower windows cannot be faster (wide {wide:.2} vs narrow {narrow:.2})"
        );
    }

    #[test]
    fn window_of_p_still_uses_all_processors() {
        let spec = LoopSpec::uniform(4000, 100);
        let seq = sim_sequential(&spec, &oh());
        let r = sim_windowed(8, &spec, &oh(), &ExecConfig::bare(), 8);
        assert!(r.speedup(&seq) > 4.0, "w = p keeps the machine busy");
    }

    #[test]
    fn window_one_serializes() {
        let spec = LoopSpec::uniform(100, 50);
        let r = sim_windowed(8, &spec, &oh(), &ExecConfig::bare(), 1);
        let seq = sim_sequential(&spec, &oh());
        let s = r.speedup(&seq);
        assert!(s <= 1.2, "window 1 admits no overlap, speedup {s:.2}");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let spec = LoopSpec::uniform(10, 1);
        let _ = sim_windowed(2, &spec, &oh(), &ExecConfig::bare(), 0);
    }
}
