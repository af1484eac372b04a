//! A region scheduler: many concurrent loop regions on one shared worker
//! set.
//!
//! [`Pool`] owns its workers one region at a time — the epoch handoff
//! publishes a single job and every resident worker runs it. That is the
//! right shape for one loop, but a *service* executes many independent
//! loop regions concurrently, and handing each its own full-width pool
//! either oversubscribes the machine (p regions × p workers) or
//! serializes everything behind one region lock.
//!
//! [`RegionScheduler`] splits that ownership. It partitions the shared
//! worker budget into fixed-width **lanes** — each lane a resident
//! [`Pool`] of `lane_width` workers, spawned once at startup — and
//! multiplexes regions onto them: a region checks out a lane, runs on it
//! (DOALL, speculation, DOACROSS — anything that takes `&Pool`),
//! and releases it. When every lane is busy, submissions queue on a
//! condvar in arrival order. This is the paper's Section 8
//! "resource-controlled self-scheduling" lifted one level: instead of
//! bounding the iterations in flight *within* a loop, the scheduler
//! bounds the loop regions in flight *across* the machine, with the
//! processor partition as the resource.
//!
//! Space-partitioning (lanes) rather than time-slicing was chosen
//! deliberately: lanes keep every worker resident (no spawn cost per
//! region, the PR-3 win), keep each region's workers cache-local, and
//! make worst-case region latency `queue_depth × region_time` instead of
//! unbounded interleaving jitter. The trade-off — a region cannot use
//! more than `lane_width` workers — is the right one for a multi-tenant
//! service, where throughput and isolation dominate single-region
//! latency.
//!
//! The scheduler exposes the queue pressure ([`RegionScheduler::waiting`])
//! so callers (the `wlp-serve` admission controller) can reject instead
//! of queue when the backlog crosses a bound.

use crate::pool::{CancelFlag, Pool};
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest a waiter with a stop sleeps before it reads the stop
/// again: how late a raised flag is noticed in the lane queue.
const WAIT_SLICE: Duration = Duration::from_millis(5);

/// Sizing for a [`RegionScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Total worker budget across all lanes (the machine share this
    /// scheduler may use).
    pub total_workers: usize,
    /// Workers per lane — the parallelism each region gets. The number of
    /// concurrent regions is `max(1, total_workers / lane_width)`.
    pub lane_width: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            total_workers: 4,
            lane_width: 2,
        }
    }
}

#[derive(Debug)]
struct LaneState {
    /// Indices into `lanes` of the currently free lanes (LIFO: the most
    /// recently released lane has the warmest workers).
    free: Vec<usize>,
    /// FIFO admission: tickets are handed out on arrival and served in
    /// order, so a steady stream of short regions cannot starve an
    /// earlier long submission.
    next_ticket: u64,
    now_serving: u64,
    /// Tickets whose holders gave up (deadline expiry / cancellation)
    /// before being served. A grant that advances `now_serving` onto an
    /// abandoned ticket skips past it, so a departed waiter can never
    /// stall the queue behind a ticket nobody holds.
    abandoned: HashSet<u64>,
}

impl LaneState {
    /// Skips `now_serving` past tickets whose holders abandoned the
    /// queue. Called after every `now_serving` advance.
    fn skip_abandoned(&mut self) {
        while self.abandoned.remove(&self.now_serving) {
            self.now_serving += 1;
        }
    }
}

#[derive(Debug)]
struct Shared {
    lanes: Vec<Pool>,
    state: Mutex<LaneState>,
    available: Condvar,
    waiting: AtomicUsize,
    regions_run: AtomicU64,
}

/// A fixed set of resident worker lanes multiplexing concurrent regions.
/// Cloning shares the same lanes. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct RegionScheduler {
    shared: Arc<Shared>,
}

/// An exclusive checkout of one lane. Derefs to the lane's [`Pool`];
/// dropping it returns the lane to the free list and wakes one waiter.
#[derive(Debug)]
pub struct Lane<'a> {
    sched: &'a RegionScheduler,
    idx: usize,
}

impl Lane<'_> {
    /// The lane's index (stable for the scheduler's lifetime).
    pub fn index(&self) -> usize {
        self.idx
    }
}

impl std::ops::Deref for Lane<'_> {
    type Target = Pool;

    fn deref(&self) -> &Pool {
        &self.sched.shared.lanes[self.idx]
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        let shared = &self.sched.shared;
        let mut st = shared.state.lock();
        st.free.push(self.idx);
        shared.regions_run.fetch_add(1, Ordering::Relaxed);
        // Wake every waiter: only the one whose ticket is up proceeds,
        // but tickets are not ordered by wake order, so a targeted
        // notify_one could wake the wrong waiter and stall the queue.
        shared.available.notify_all();
    }
}

impl RegionScheduler {
    /// Builds the lanes: `max(1, total_workers / lane_width)` resident
    /// pools of `lane_width` workers each. Remainder workers (when
    /// `lane_width` does not divide `total_workers`) widen the last lane.
    ///
    /// # Panics
    /// Panics if either config field is zero.
    pub fn new(cfg: SchedulerConfig) -> Self {
        assert!(cfg.total_workers > 0, "scheduler needs a worker budget");
        assert!(cfg.lane_width > 0, "lanes need at least one worker");
        let n_lanes = (cfg.total_workers / cfg.lane_width).max(1);
        let remainder = cfg.total_workers.saturating_sub(n_lanes * cfg.lane_width);
        let lanes: Vec<Pool> = (0..n_lanes)
            .map(|i| {
                let width = if i == n_lanes - 1 {
                    cfg.lane_width + remainder
                } else {
                    cfg.lane_width
                };
                Pool::new(width.min(cfg.total_workers))
            })
            .collect();
        let free = (0..lanes.len()).rev().collect();
        RegionScheduler {
            shared: Arc::new(Shared {
                lanes,
                state: Mutex::new(LaneState {
                    free,
                    next_ticket: 0,
                    now_serving: 0,
                    abandoned: HashSet::new(),
                }),
                available: Condvar::new(),
                waiting: AtomicUsize::new(0),
                regions_run: AtomicU64::new(0),
            }),
        }
    }

    /// Number of lanes (the concurrent-region capacity).
    pub fn lanes(&self) -> usize {
        self.shared.lanes.len()
    }

    /// Workers in lane `idx`.
    pub fn lane_width(&self, idx: usize) -> usize {
        self.shared.lanes[idx].size()
    }

    /// Submissions currently blocked waiting for a lane — the queue
    /// pressure admission control inspects before accepting more work.
    pub fn waiting(&self) -> usize {
        self.shared.waiting.load(Ordering::Relaxed)
    }

    /// Regions completed (lanes released) since startup.
    pub fn regions_run(&self) -> u64 {
        self.shared.regions_run.load(Ordering::Relaxed)
    }

    /// Lanes currently free (checked in). When no region is in flight
    /// this equals [`RegionScheduler::lanes`] — the no-leaked-lane
    /// invariant the chaos harness asserts after every scenario.
    pub fn free_lanes(&self) -> usize {
        self.shared.state.lock().free.len()
    }

    /// Checks out a free lane without blocking; `None` when every lane is
    /// busy **or** earlier submissions are already queued (a try must not
    /// jump the FIFO).
    pub fn try_acquire(&self) -> Option<Lane<'_>> {
        let shared = &self.shared;
        let mut st = shared.state.lock();
        if st.next_ticket != st.now_serving {
            return None;
        }
        let idx = st.free.pop()?;
        // an immediate grant consumes and serves its ticket in one step
        st.next_ticket += 1;
        st.now_serving += 1;
        st.skip_abandoned();
        if !st.free.is_empty() {
            shared.available.notify_all();
        }
        Some(Lane { sched: self, idx })
    }

    /// Checks out a lane, blocking in FIFO order until one frees up.
    pub fn acquire(&self) -> Lane<'_> {
        self.acquire_until(None)
            .expect("unbounded acquire always succeeds")
    }

    /// Checks out a lane in FIFO order, giving up once `stop` reads
    /// cancelled: its expiry passed, or it or its link was raised (the
    /// request's client vanished). `None` is an unbounded
    /// [`RegionScheduler::acquire`]. A waiter with a `stop` sleeps in
    /// slices of at most 5 ms, cut short at the expiry.
    ///
    /// A waiter that gives up **abandons its ticket**: the FIFO skips
    /// past it, so a departed request can neither hold a queue slot nor
    /// stall the tickets behind it. Returns `None` when it gives up, with
    /// the queue left exactly as if the waiter had never arrived.
    pub fn acquire_until(&self, stop: Option<&CancelFlag>) -> Option<Lane<'_>> {
        let shared = &self.shared;
        let mut st = shared.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        if ticket == st.now_serving {
            if let Some(idx) = st.free.pop() {
                st.now_serving += 1;
                st.skip_abandoned();
                // Taking a lane advances now_serving, which may make the
                // next ticket eligible for a lane that is *already* free.
                // Its holder saw `now_serving != ticket` when it last
                // woke and went back to sleep; without a fresh notify it
                // would only wake on some future lane release, stalling
                // while capacity sits idle.
                if !st.free.is_empty() {
                    shared.available.notify_all();
                }
                return Some(Lane { sched: self, idx });
            }
        }
        shared.waiting.fetch_add(1, Ordering::Relaxed);
        loop {
            if stop.is_some_and(CancelFlag::is_cancelled_now) {
                shared.waiting.fetch_sub(1, Ordering::Relaxed);
                if ticket == st.now_serving {
                    // Head of the queue: advance past our own ticket so
                    // the successor becomes eligible, and re-notify in
                    // case its lane is already free.
                    st.now_serving += 1;
                    st.skip_abandoned();
                    shared.available.notify_all();
                } else {
                    st.abandoned.insert(ticket);
                }
                return None;
            }
            match stop {
                None => shared.available.wait(&mut st),
                Some(stop) => {
                    let slice = stop.expiry().map_or(WAIT_SLICE, |e| {
                        e.saturating_duration_since(Instant::now()).min(WAIT_SLICE)
                    });
                    shared.available.wait_for(&mut st, slice);
                }
            }
            if ticket == st.now_serving {
                if let Some(idx) = st.free.pop() {
                    st.now_serving += 1;
                    st.skip_abandoned();
                    shared.waiting.fetch_sub(1, Ordering::Relaxed);
                    // same hand-off as the fast path: wake the successor
                    // ticket if another lane is still free
                    if !st.free.is_empty() {
                        shared.available.notify_all();
                    }
                    return Some(Lane { sched: self, idx });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn lanes_partition_the_worker_budget() {
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 8,
            lane_width: 2,
        });
        assert_eq!(s.lanes(), 4);
        for i in 0..4 {
            assert_eq!(s.lane_width(i), 2);
        }
    }

    #[test]
    fn remainder_workers_widen_the_last_lane() {
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 7,
            lane_width: 2,
        });
        assert_eq!(s.lanes(), 3);
        assert_eq!(s.lane_width(0), 2);
        assert_eq!(s.lane_width(2), 3);
    }

    #[test]
    fn narrow_budget_still_yields_one_lane() {
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 1,
            lane_width: 4,
        });
        assert_eq!(s.lanes(), 1);
        assert_eq!(s.lane_width(0), 1);
    }

    #[test]
    fn regions_actually_run_on_lane_pools() {
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 4,
            lane_width: 2,
        });
        let hits = AtomicUsize::new(0);
        let lane = s.acquire();
        lane.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(lane.size(), 2);
        drop(lane);
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(s.regions_run(), 1);
    }

    #[test]
    fn concurrent_regions_use_distinct_lanes() {
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 4,
            lane_width: 2,
        });
        let both_in = Barrier::new(2);
        let lanes_seen: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let lane = s.acquire();
                    lanes_seen.lock().insert(lane.index());
                    // hold the lane until both regions are in flight, so
                    // a shared lane would deadlock here instead of
                    // passing silently
                    both_in.wait();
                });
            }
        });
        assert_eq!(lanes_seen.lock().len(), 2, "two lanes checked out at once");
    }

    #[test]
    fn oversubmission_queues_and_everything_completes() {
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 2,
            lane_width: 2,
        });
        assert_eq!(s.lanes(), 1);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    s.acquire().run(|_| {});
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 8);
        assert_eq!(s.regions_run(), 8);
        assert_eq!(s.waiting(), 0, "no waiter leaked");
    }

    #[test]
    fn try_acquire_reports_exhaustion_without_blocking() {
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 2,
            lane_width: 2,
        });
        let lane = s.try_acquire().expect("one lane free");
        assert!(s.try_acquire().is_none(), "no second lane");
        drop(lane);
        assert!(s.try_acquire().is_some(), "released lane is reusable");
    }

    #[test]
    fn fifo_order_is_respected_under_contention() {
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 2,
            lane_width: 2,
        });
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            let holder = s.acquire();
            // two queued submissions in a known arrival order
            scope.spawn(|| {
                s.acquire_tagged(&order, 1, &gate);
            });
            while s.waiting() < 1 {
                std::thread::yield_now();
            }
            scope.spawn(|| {
                s.acquire_tagged(&order, 2, &gate);
            });
            while s.waiting() < 2 {
                std::thread::yield_now();
            }
            drop(holder);
            gate.wait(); // first waiter got the lane
            gate.wait(); // second waiter got the lane
        });
        assert_eq!(*order.lock(), vec![1, 2], "arrival order preserved");
    }

    #[test]
    fn burst_release_wakes_every_eligible_waiter() {
        // Regression: two lanes released back-to-back while tickets T and
        // T+1 wait. If T+1 re-checks first (not its turn yet, re-waits)
        // and T then takes a lane without re-notifying, T+1 used to stay
        // blocked on the condvar with a lane free until some unrelated
        // future release. The acquire path now notifies whenever it
        // leaves a free lane behind, so both waiters must finish without
        // any third region running.
        for _ in 0..200 {
            let s = RegionScheduler::new(SchedulerConfig {
                total_workers: 4,
                lane_width: 2,
            });
            assert_eq!(s.lanes(), 2);
            let a = s.acquire();
            let b = s.acquire();
            let served = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let lane = s.acquire();
                        if served.fetch_add(1, Ordering::SeqCst) == 0 {
                            // first waiter served: model the long-running
                            // region by holding the lane until the other
                            // waiter gets the remaining free one — under
                            // the old code that wakeup never came
                            let t0 = std::time::Instant::now();
                            while served.load(Ordering::SeqCst) < 2 {
                                assert!(
                                    t0.elapsed() < std::time::Duration::from_secs(10),
                                    "waiter stalled on the condvar with a lane free"
                                );
                                std::thread::yield_now();
                            }
                        }
                        drop(lane);
                    });
                }
                while s.waiting() < 2 {
                    std::thread::yield_now();
                }
                // burst: both lanes free before either waiter re-checks
                drop(a);
                drop(b);
            });
            assert_eq!(served.load(Ordering::SeqCst), 2);
        }
    }

    impl RegionScheduler {
        /// Test helper: acquire, record the tag, release after a
        /// rendezvous so the test can observe the grant order.
        fn acquire_tagged(&self, order: &Mutex<Vec<usize>>, tag: usize, gate: &Barrier) {
            let lane = self.acquire();
            order.lock().push(tag);
            drop(lane);
            gate.wait();
        }
    }

    #[test]
    fn acquire_until_expires_instead_of_blocking_forever() {
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 2,
            lane_width: 2,
        });
        let held = s.acquire();
        let expiry = std::time::Instant::now() + std::time::Duration::from_millis(30);
        let t0 = std::time::Instant::now();
        let stop = CancelFlag::armed(None, Some(expiry));
        assert!(s.acquire_until(Some(&stop)).is_none());
        assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
        assert_eq!(s.waiting(), 0, "expired waiter left the queue");
        drop(held);
        assert_eq!(s.free_lanes(), 1);
        // the abandoned ticket must not stall a later submission
        let lane = s.acquire();
        drop(lane);
    }

    #[test]
    fn acquire_until_observes_cancellation() {
        use crate::pool::CancelFlag;
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 2,
            lane_width: 2,
        });
        let held = s.acquire();
        let cancel = CancelFlag::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(s.acquire_until(Some(&cancel)).is_none());
            });
            while s.waiting() < 1 {
                std::thread::yield_now();
            }
            cancel.cancel();
        });
        assert_eq!(s.waiting(), 0);
        drop(held);
        assert!(s.acquire_until(None).is_some());
    }

    #[test]
    fn abandoned_ticket_does_not_stall_successors() {
        // waiter A (head of queue) times out while waiter B queues behind
        // it; when the lane frees, B must be served even though A's ticket
        // was never granted.
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 2,
            lane_width: 2,
        });
        let held = s.acquire();
        let served_b = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let expiry = std::time::Instant::now() + std::time::Duration::from_millis(20);
                let stop = CancelFlag::armed(None, Some(expiry));
                assert!(s.acquire_until(Some(&stop)).is_none());
            });
            while s.waiting() < 1 {
                std::thread::yield_now();
            }
            scope.spawn(|| {
                let lane = s.acquire();
                served_b.fetch_add(1, Ordering::SeqCst);
                drop(lane);
            });
            while s.waiting() < 2 {
                std::thread::yield_now();
            }
            // hold the lane past A's expiry so A abandons from the head
            std::thread::sleep(std::time::Duration::from_millis(40));
            drop(held);
        });
        assert_eq!(served_b.load(Ordering::SeqCst), 1);
        assert_eq!(s.waiting(), 0);
        assert_eq!(s.free_lanes(), s.lanes(), "no lane leaked");
    }

    #[test]
    fn mid_queue_abandonment_is_skipped_at_grant_time() {
        // A queues, B queues behind it with a deadline, B expires while A
        // still waits; serving A must skip B's abandoned ticket so a
        // third submission C is served next.
        let s = RegionScheduler::new(SchedulerConfig {
            total_workers: 2,
            lane_width: 2,
        });
        let held = s.acquire();
        let order: Mutex<Vec<char>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let lane = s.acquire();
                order.lock().push('A');
                drop(lane);
            });
            while s.waiting() < 1 {
                std::thread::yield_now();
            }
            scope.spawn(|| {
                let expiry = std::time::Instant::now() + std::time::Duration::from_millis(15);
                let stop = CancelFlag::armed(None, Some(expiry));
                assert!(s.acquire_until(Some(&stop)).is_none());
            });
            while s.waiting() < 2 {
                std::thread::yield_now();
            }
            // wait until B has expired and left the queue
            while s.waiting() > 1 {
                std::thread::yield_now();
            }
            drop(held);
            scope.spawn(|| {
                let lane = s.acquire();
                order.lock().push('C');
                drop(lane);
            });
        });
        assert_eq!(*order.lock(), vec!['A', 'C']);
        assert_eq!(s.free_lanes(), s.lanes());
    }
}
