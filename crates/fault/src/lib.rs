//! Deterministic fault injection for the WHILE-loop runtime.
//!
//! The paper's Section 5 exception rule — "if an exception occurs while
//! speculating, restore the checkpoint and re-execute sequentially" — is
//! only trustworthy if the recovery paths are exercised. This crate
//! provides the harness: a seedable, one-shot [`FaultPlan`] that workloads
//! thread through their loop bodies to provoke a fault at a chosen
//! iteration on a chosen virtual processor, and a [`corrupt_list_cycle`]
//! helper that mutates a linked-list workload into a cyclic one so the
//! runaway-dispatcher guards fire.
//!
//! Three in-body fault kinds cover the failure modes speculation must
//! survive:
//!
//! * [`FaultKind::Panic`] — a contained exception (the Section 5 rule);
//! * [`FaultKind::Stall`] — the lane wedges for a duration without
//!   polling anything, exercising region deadlines at their worst: a
//!   lane that cannot be stopped, only reported late;
//! * [`FaultKind::HogWrites`] — the body is asked to issue extra junk
//!   writes, exercising undo-log budgets (the *workload* performs the
//!   writes, since only it owns the array).
//!
//! Everything is deterministic given the seed: the same plan injects the
//! same fault at the same place every run, so recovery tests are
//! reproducible.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use wlp_list::{ListArena, NodeId};

/// Prefix of every panic message this crate injects, so tests (and humans
/// reading a trace) can tell an injected fault from a genuine bug.
pub const PANIC_MESSAGE_PREFIX: &str = "wlp-fault: injected panic";

/// Stall duration used by [`FaultPlan::seeded`] plans.
pub const SEEDED_STALL: Duration = Duration::from_millis(40);

/// Junk-write count used by [`FaultPlan::seeded`] plans — sized to blow
/// through any reasonable undo-log budget.
pub const SEEDED_HOG_WRITES: usize = 4096;

/// What a firing [`FaultPlan`] does to the lane it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with [`PANIC_MESSAGE_PREFIX`] in the message — a contained
    /// exception.
    Panic,
    /// Wedge the lane for the whole duration — a region-deadline fault.
    Stall(Duration),
    /// Ask the body to issue this many extra junk writes — a budget
    /// fault.
    HogWrites(usize),
}

/// The named fault modes the exhibits and the CI fault matrix iterate
/// over. `Cycle` is structural (apply [`corrupt_list_cycle`] to the
/// workload's list) rather than an in-body injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// In-body contained panic.
    Panic,
    /// In-body lane stall.
    Stall,
    /// In-body write hogging.
    Hog,
    /// Corrupt the dispatcher list into a cycle.
    Cycle,
}

impl FaultMode {
    /// Parses a mode name as used on exhibit command lines and in CI
    /// matrix entries.
    pub fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "panic" => Some(FaultMode::Panic),
            "stall" => Some(FaultMode::Stall),
            "hog" => Some(FaultMode::Hog),
            "cycle" => Some(FaultMode::Cycle),
            _ => None,
        }
    }

    /// Stable lowercase name (inverse of [`parse`](FaultMode::parse)).
    pub fn name(&self) -> &'static str {
        match self {
            FaultMode::Panic => "panic",
            FaultMode::Stall => "stall",
            FaultMode::Hog => "hog",
            FaultMode::Cycle => "cycle",
        }
    }
}

/// What a firing injection asks the calling body to do, beyond what the
/// injection already did itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a HogWrites action requires the body to issue the junk writes"]
pub enum FaultAction {
    /// Nothing fired (or the stall completed/drained inside the call).
    None,
    /// The body should issue this many extra junk writes against its
    /// speculative array.
    HogWrites(usize),
}

/// A deterministic fault to inject into a parallel loop.
///
/// A plan matches on `(iteration, vpn)`: `panic_iter` selects the
/// iteration (`None` never fires), `panic_vpn` optionally restricts the
/// virtual processor. The plan is **one-shot** — the first matching
/// [`FaultPlan::inject`] call arms it and fires; re-executions (the
/// sequential recovery pass, or a second parallel attempt) run clean.
/// That is exactly the shape recovery needs: fail once, succeed on retry.
#[derive(Debug)]
pub struct FaultPlan {
    panic_iter: Option<usize>,
    panic_vpn: Option<usize>,
    delay_spins: u64,
    kind: FaultKind,
    fired: AtomicBool,
}

impl FaultPlan {
    /// A plan that never fires.
    pub fn none() -> Self {
        FaultPlan {
            panic_iter: None,
            panic_vpn: None,
            delay_spins: 0,
            kind: FaultKind::Panic,
            fired: AtomicBool::new(false),
        }
    }

    /// Panic when iteration `k` runs (on any processor).
    pub fn panic_at(k: usize) -> Self {
        FaultPlan {
            panic_iter: Some(k),
            ..FaultPlan::none()
        }
    }

    /// Stall for `d` when iteration `k` runs (on any processor).
    pub fn stall_at(k: usize, d: Duration) -> Self {
        FaultPlan {
            panic_iter: Some(k),
            kind: FaultKind::Stall(d),
            ..FaultPlan::none()
        }
    }

    /// Ask for `writes` junk writes when iteration `k` runs (on any
    /// processor).
    pub fn hog_at(k: usize, writes: usize) -> Self {
        FaultPlan {
            panic_iter: Some(k),
            kind: FaultKind::HogWrites(writes),
            ..FaultPlan::none()
        }
    }

    /// Restricts the fault to virtual processor `vpn`.
    pub fn on_vpn(mut self, vpn: usize) -> Self {
        self.panic_vpn = Some(vpn);
        self
    }

    /// Spins `spins` times before firing, so the fault lands while
    /// other workers are mid-iteration (widens the window the cancel flag
    /// has to cover).
    pub fn with_delay(mut self, spins: u64) -> Self {
        self.delay_spins = spins;
        self
    }

    /// Derives a panic plan from `seed`: a panic at a pseudo-random
    /// iteration in `0..upper` (on any processor). Deterministic — the
    /// same seed always yields the same fault site. `upper == 0` yields a
    /// plan that never fires.
    pub fn from_seed(seed: u64, upper: usize) -> Self {
        FaultPlan::seeded(FaultMode::Panic, seed, upper)
    }

    /// Derives a plan of the given `mode` from `seed`, at a
    /// pseudo-random iteration in `0..upper`. Stalls last
    /// [`SEEDED_STALL`], hogs issue [`SEEDED_HOG_WRITES`] writes.
    /// [`FaultMode::Cycle`] has no in-body injection and yields a plan
    /// that never fires (apply [`corrupt_list_cycle`] instead).
    pub fn seeded(mode: FaultMode, seed: u64, upper: usize) -> Self {
        if upper == 0 || mode == FaultMode::Cycle {
            return FaultPlan::none();
        }
        let site = (splitmix64(seed) % upper as u64) as usize;
        match mode {
            FaultMode::Panic => FaultPlan::panic_at(site),
            FaultMode::Stall => FaultPlan::stall_at(site, SEEDED_STALL),
            FaultMode::Hog => FaultPlan::hog_at(site, SEEDED_HOG_WRITES),
            FaultMode::Cycle => unreachable!("handled above"),
        }
    }

    /// The fault this plan injects when it fires.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Whether the plan would fire at `(iter, vpn)` — the pure predicate,
    /// with no arming side effect. Useful for tests sizing expectations.
    pub fn matches(&self, iter: usize, vpn: usize) -> bool {
        self.panic_iter == Some(iter) && self.panic_vpn.is_none_or(|v| v == vpn)
    }

    /// Whether the fault has already fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Re-arms a fired plan so the next matching `inject` fires again.
    pub fn rearm(&self) {
        self.fired.store(false, Ordering::Release);
    }

    /// Injection point: call at the top of a loop body. Fires the first
    /// time the plan matches `(iter, vpn)`; a no-op (returning
    /// [`FaultAction::None`]) on every other call. A [`FaultKind::Stall`]
    /// sleeps the full duration.
    pub fn inject(&self, iter: usize, vpn: usize) -> FaultAction {
        if !self.matches(iter, vpn) {
            return FaultAction::None;
        }
        if self.fired.swap(true, Ordering::AcqRel) {
            return FaultAction::None; // one-shot: already fired
        }
        for _ in 0..self.delay_spins {
            std::hint::spin_loop();
        }
        match self.kind {
            FaultKind::Panic => {
                panic!("{PANIC_MESSAGE_PREFIX} at iter {iter} on vpn {vpn}");
            }
            FaultKind::Stall(d) => {
                std::thread::sleep(d);
                FaultAction::None
            }
            FaultKind::HogWrites(n) => FaultAction::HogWrites(n),
        }
    }
}

/// The service-level chaos scenarios the `serve-chaos` harness runs
/// against a live `wlp-serve` [`Service`]. Where [`FaultMode`] names
/// faults *inside one loop region*, these name faults at the service
/// boundary: a worker misbehaving mid-region while other tenants keep
/// submitting, a client vanishing mid-request, a client that reads its
/// responses too slowly to matter, and the process being told to stop
/// under load. Every scenario must end with the same invariant —
/// zero leaked lanes, zero leaked credits, an empty queue — asserted
/// from the service's own `stats` op.
///
/// [`Service`]: ../wlp_serve/struct.Service.html
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// A worker panics mid-region (the service's `chaos_panic` builtin);
    /// the request must answer and later requests must run clean.
    WorkerPanic,
    /// A worker stalls mid-region past the request deadline (the
    /// `chaos_stall` builtin); the request must answer retriable
    /// `timeout` and the lane must come back.
    WorkerStall,
    /// The client abandons its request mid-flight (cancel flag raised);
    /// the region must abort and free its lane and credits.
    ClientDisconnect,
    /// A client consumes responses far slower than it submits; the
    /// service must stay bounded and other tenants unaffected.
    SlowReader,
    /// SIGTERM arrives while a closed loop of clients is running; the
    /// drain must answer every in-flight request and exit clean. Needs a
    /// real `wlp-serve` subprocess: signal delivery cannot be injected
    /// into an in-process [`Service`].
    ///
    /// [`Service`]: ../wlp_serve/struct.Service.html
    SigtermBurst,
}

impl ChaosScenario {
    /// Every scenario, in the order the harness runs them.
    pub const ALL: [ChaosScenario; 5] = [
        ChaosScenario::WorkerPanic,
        ChaosScenario::WorkerStall,
        ChaosScenario::ClientDisconnect,
        ChaosScenario::SlowReader,
        ChaosScenario::SigtermBurst,
    ];

    /// Parses a scenario name as used on harness command lines.
    pub fn parse(s: &str) -> Option<ChaosScenario> {
        match s {
            "worker-panic" => Some(ChaosScenario::WorkerPanic),
            "worker-stall" => Some(ChaosScenario::WorkerStall),
            "client-disconnect" => Some(ChaosScenario::ClientDisconnect),
            "slow-reader" => Some(ChaosScenario::SlowReader),
            "sigterm-burst" => Some(ChaosScenario::SigtermBurst),
            _ => None,
        }
    }

    /// Stable kebab-case name (inverse of [`parse`](ChaosScenario::parse);
    /// the key under which `BENCH_chaos.json` reports the scenario).
    pub fn name(&self) -> &'static str {
        match self {
            ChaosScenario::WorkerPanic => "worker-panic",
            ChaosScenario::WorkerStall => "worker-stall",
            ChaosScenario::ClientDisconnect => "client-disconnect",
            ChaosScenario::SlowReader => "slow-reader",
            ChaosScenario::SigtermBurst => "sigterm-burst",
        }
    }
}

/// The splitmix64 mixer — the standard seed expander, inlined here so the
/// crate needs no RNG dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Corrupts `list` into a cyclic one: the tail's `next` link is pointed at
/// a seed-chosen interior node, the fault the runaway-dispatcher guards
/// must catch. Returns `(from, to)` of the corrupted link, or `None` when
/// the list is too short to form a cycle (fewer than 2 nodes).
pub fn corrupt_list_cycle<T>(list: &mut ListArena<T>, seed: u64) -> Option<(NodeId, NodeId)> {
    if list.len() < 2 {
        return None;
    }
    let tail = list.tail()?;
    let target_pos = (splitmix64(seed) % (list.len() - 1) as u64) as usize;
    let target = list.nth_from(list.head()?, target_pos)?;
    list.corrupt_link(tail, target);
    Some((tail, target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn none_never_fires() {
        let plan = FaultPlan::none();
        for i in 0..100 {
            assert_eq!(plan.inject(i, i % 4), FaultAction::None); // must not panic
        }
        assert!(!plan.fired());
    }

    #[test]
    fn fires_exactly_once_at_the_planned_site() {
        let plan = FaultPlan::panic_at(7).on_vpn(2);
        assert!(plan.matches(7, 2));
        assert!(!plan.matches(7, 1));
        assert!(!plan.matches(6, 2));
        let _ = plan.inject(7, 1); // wrong vpn: no-op
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.inject(7, 2)))
            .expect_err("the planned site must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(msg.contains(PANIC_MESSAGE_PREFIX), "{msg}");
        assert!(plan.fired());
        let _ = plan.inject(7, 2); // one-shot: the re-execution runs clean
        plan.rearm();
        assert!(!plan.fired());
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.inject(7, 2)))
            .expect_err("re-armed plan fires again");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..50u64 {
            let a = FaultPlan::from_seed(seed, 1000);
            let b = FaultPlan::from_seed(seed, 1000);
            assert_eq!(a.panic_iter, b.panic_iter, "seed {seed}");
            let k = a.panic_iter.expect("non-empty range plans a fault");
            assert!(k < 1000);
        }
        // distinct seeds spread over the range rather than colliding
        let sites: std::collections::HashSet<usize> = (0..50u64)
            .map(|s| FaultPlan::from_seed(s, 1000).panic_iter.unwrap())
            .collect();
        assert!(sites.len() > 30, "only {} distinct sites", sites.len());
        assert!(FaultPlan::from_seed(1, 0).panic_iter.is_none());
    }

    #[test]
    fn stall_sleeps_the_full_duration_when_uncancelled() {
        let plan = FaultPlan::stall_at(3, Duration::from_millis(20));
        let t0 = Instant::now();
        assert_eq!(plan.inject(3, 0), FaultAction::None);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(plan.fired());
        // one-shot: the retry does not stall again
        let t1 = Instant::now();
        let _ = plan.inject(3, 0);
        assert!(t1.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn hog_asks_the_body_for_junk_writes_once() {
        let plan = FaultPlan::hog_at(5, 128);
        assert_eq!(plan.inject(4, 0), FaultAction::None);
        assert_eq!(plan.inject(5, 1), FaultAction::HogWrites(128));
        assert_eq!(plan.inject(5, 1), FaultAction::None, "one-shot");
        assert_eq!(plan.kind(), FaultKind::HogWrites(128));
    }

    #[test]
    fn seeded_modes_pick_the_same_site_and_their_kind() {
        let seed = 9u64;
        let site = match FaultPlan::seeded(FaultMode::Panic, seed, 500).kind() {
            FaultKind::Panic => FaultPlan::seeded(FaultMode::Panic, seed, 500)
                .panic_iter
                .unwrap(),
            k => panic!("panic mode must plan a panic, got {k:?}"),
        };
        let stall = FaultPlan::seeded(FaultMode::Stall, seed, 500);
        assert_eq!(stall.panic_iter, Some(site));
        assert_eq!(stall.kind(), FaultKind::Stall(SEEDED_STALL));
        let hog = FaultPlan::seeded(FaultMode::Hog, seed, 500);
        assert_eq!(hog.panic_iter, Some(site));
        assert_eq!(hog.kind(), FaultKind::HogWrites(SEEDED_HOG_WRITES));
        assert!(FaultPlan::seeded(FaultMode::Cycle, seed, 500)
            .panic_iter
            .is_none());
        assert_eq!(FaultMode::parse("stall"), Some(FaultMode::Stall));
        assert_eq!(FaultMode::parse("bogus"), None);
        assert_eq!(FaultMode::Hog.name(), "hog");
    }

    #[test]
    fn chaos_scenarios_round_trip_their_names() {
        for s in ChaosScenario::ALL {
            assert_eq!(ChaosScenario::parse(s.name()), Some(s), "{}", s.name());
        }
        assert_eq!(ChaosScenario::parse("coffee-spill"), None);
    }

    #[test]
    fn corrupting_a_list_makes_it_cyclic() {
        let mut list = ListArena::from_values(0..100u32);
        assert!(list.check_acyclic().is_ok());
        let (from, to) = corrupt_list_cycle(&mut list, 42).expect("long enough");
        assert_eq!(list.next(from), Some(to));
        let d = list.check_acyclic().expect_err("must now be cyclic");
        assert!(d.cycle || d.steps >= d.budget, "{d:?}");
        // deterministic: the same seed corrupts the same link
        let mut again = ListArena::from_values(0..100u32);
        assert_eq!(corrupt_list_cycle(&mut again, 42), Some((from, to)));
        // too short to close a cycle
        let mut tiny = ListArena::from_values(0..1u32);
        assert!(corrupt_list_cycle(&mut tiny, 1).is_none());
    }
}
