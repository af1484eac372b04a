//! Leak invariant of the RegionScheduler as a property: under a
//! concurrent storm of bounded waits that expire, cancel flags raised
//! before and during the wait, and lanes releasing at random moments,
//! every lane and every credit comes back, nobody stays queued, and the
//! FIFO is not wedged behind an abandoned ticket.
//!
//! This is the same accounting `serve-chaos` checks end-to-end through
//! the service, shrunk to the scheduler layer so failures shrink to a
//! small (threads, ops, seed) triple instead of a chaos-run transcript.

use proptest::prelude::*;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlp::runtime::{CancelFlag, RegionScheduler, SchedulerConfig};

const TOTAL_CREDITS: i64 = 1 << 20;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn lanes_and_credits_survive_timeout_and_release_storms(
        total_workers in 2usize..9,
        lane_width in 1usize..3,
        threads in 3usize..7,
        ops in 8usize..25,
        seed in any::<u64>(),
    ) {
        let sched = RegionScheduler::new(SchedulerConfig { total_workers, lane_width });
        let credits = AtomicI64::new(TOTAL_CREDITS);

        std::thread::scope(|s| {
            for t in 0..threads {
                let sched = &sched;
                let credits = &credits;
                s.spawn(move || {
                    let mut rng = seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                    for _ in 0..ops {
                        let r = splitmix(&mut rng);
                        // mirror the service: credits are reserved before
                        // queueing and must come back whether or not a
                        // lane was ever granted
                        let want = (r % 7 + 1) as i64;
                        credits.fetch_sub(want, Ordering::SeqCst);
                        let flag = Arc::new(CancelFlag::new());
                        let lane = match r % 5 {
                            0 => sched.try_acquire(),
                            1 => sched.acquire_until(Some(&CancelFlag::armed(
                                None,
                                Some(Instant::now() + Duration::from_micros((r >> 8) % 800)),
                            ))),
                            2 => {
                                // abandon before ever being served
                                flag.cancel();
                                sched.acquire_until(Some(&CancelFlag::armed(
                                    Some(&flag),
                                    Some(Instant::now() + Duration::from_millis(50)),
                                )))
                            }
                            3 => {
                                // cancel raised mid-wait by a sibling thread
                                let raiser = std::thread::spawn({
                                    let flag = Arc::clone(&flag);
                                    let pause = (r >> 16) % 2_000;
                                    move || {
                                        std::thread::sleep(Duration::from_micros(pause));
                                        flag.cancel();
                                    }
                                });
                                let got = sched.acquire_until(Some(&CancelFlag::armed(
                                    Some(&flag),
                                    Some(Instant::now() + Duration::from_millis(100)),
                                )));
                                raiser.join().unwrap();
                                got
                            }
                            _ => sched.acquire_until(Some(&CancelFlag::armed(
                                None,
                                Some(Instant::now() + Duration::from_millis(250)),
                            ))),
                        };
                        if let Some(lane) = lane {
                            if r & 1 == 0 {
                                std::thread::yield_now();
                            } else {
                                std::thread::sleep(Duration::from_micros((r >> 24) % 300));
                            }
                            drop(lane);
                        }
                        credits.fetch_add(want, Ordering::SeqCst);
                    }
                });
            }
        });

        prop_assert_eq!(sched.free_lanes(), sched.lanes(), "leaked lane(s)");
        prop_assert_eq!(sched.waiting(), 0, "ghost waiter(s)");
        prop_assert_eq!(
            credits.load(Ordering::SeqCst),
            TOTAL_CREDITS,
            "leaked credit(s)"
        );
        // the FIFO is live, not wedged behind an abandoned ticket: a
        // fresh bounded acquire is served from an idle scheduler
        let probe = sched.acquire_until(Some(&CancelFlag::armed(
            None,
            Some(Instant::now() + Duration::from_secs(2)),
        )));
        prop_assert!(probe.is_some(), "scheduler wedged after the storm");
        drop(probe);
        prop_assert_eq!(sched.free_lanes(), sched.lanes());
    }
}
