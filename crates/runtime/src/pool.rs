//! A fixed-width worker group exposing virtual processor numbers.
//!
//! # Resident workers
//!
//! The paper's constructs assume cheap dispatch on *resident* processors:
//! an Alliant FX/80 does not spawn an OS thread per DOALL. [`Pool::new`]
//! therefore keeps `p − 1` persistent worker threads and hands each
//! parallel region to them **lock-free**: the leader (the caller's
//! thread, which doubles as vpn 0) publishes a type-erased job and then
//! the region in one *region word* — the region number above the next
//! unclaimed lane, starting at lane 1. Workers claim lanes from that
//! word (a CAS each), run the closure for the claimed lane, and
//! decrement an atomic latch the leader spins, then parks, on. No mutex
//! or condvar is taken anywhere on the hot path — parking is an
//! eventcount (`sleepers`/`leader_parked` flags with a Dekker-style
//! `SeqCst` handshake) whose condvar half is reached only after a
//! bounded spin finds nothing to do. The leader never returns before
//! every claimed lane has been retired, which is what makes it sound for
//! the job closure to borrow from the leader's stack.
//!
//! Because any worker may claim any lane rather than owning a fixed one,
//! the mapping from OS thread to vpn may differ from region to region
//! (each lane still runs exactly once per region — lanes are claimed by
//! CAS). Only a region launched while another is in flight on the same
//! pool (a nested or racing `run_with`) runs on freshly spawned scoped
//! threads instead.
//!
//! # Fault containment
//!
//! The paper's speculative scheme (Section 5) requires that an exception
//! raised by a speculatively executed iteration be survivable — the
//! runtime must be able to abandon the parallel attempt, restore the
//! checkpoint and re-execute sequentially. A worker panic must therefore
//! never kill the process *and never kill a resident worker*:
//! [`Pool::run_with`] runs every worker (including vpn 0) under
//! `catch_unwind`, aggregates the panic payloads, and reports them
//! through a [`PoolOutcome`] so callers can distinguish clean, cancelled
//! and panicked executions. A resident worker that catches a body panic
//! parks again and serves the next region — the pool stays reusable, so
//! recovery retry loops (`run_with_recovery`) stop paying thread spawn
//! costs twice per fault. A shared [`CancelFlag`] plays the role of the
//! Alliant `QUIT` broadcast for faults: the first panicking worker raises
//! it, and in-flight peers poll it at iteration boundaries.

use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wlp_obs::CachePadded;

/// Bounded spin before a worker or leader falls back to parking. Small
/// enough not to burn a time slice on oversubscribed machines, large
/// enough that back-to-back regions (the bench hot loop) never touch a
/// condvar.
const SPIN_LIMIT: u32 = 128;

/// Polls of an armed flag per clock read, on each thread. A clock read
/// costs as much as one to three plan iterations; a construct that polls
/// once per iteration pays it once per this many, well under a
/// nanosecond an iteration, and sees an expiry within this many
/// iterations.
const CLOCK_EVERY: u32 = 256;

thread_local! {
    /// Polls of armed flags left on this thread before the next clock
    /// read. Shared by every armed flag the thread polls: it sets a
    /// cadence, not a per-flag count.
    static POLLS_UNTIL_CLOCK: Cell<u32> = const { Cell::new(0) };
}

/// A shared cooperative-cancellation flag — the software `QUIT` word of
/// the Alliant (Section 3.1). Raised by the first panicking worker, by
/// any caller that wants to stop a run early, or by the clock; polled by
/// the scheduling loops of every construct (DOALL, DOACROSS) at
/// iteration boundaries, and by the plan executor's loops.
///
/// A flag may be *armed* once ([`CancelFlag::armed`], or the first region
/// launched with it on a handle built [`Pool::with_abort`] or
/// [`Pool::with_deadline`]):
///
/// * a *link* to an abort switch: [`CancelFlag::is_cancelled`] then reads
///   the switch's word as well as its own, so raising the switch stops
///   the run with nothing in between to carry it over. Links do not
///   chain: only the switch's own word is read.
/// * an *expiry*: the flag raises itself once the expiry has passed. No
///   thread watches the time; the pollers read the clock themselves,
///   every 256th poll of an armed flag on each thread.
///
/// An unarmed flag polls one word and never reads the clock.
#[derive(Debug, Default)]
pub struct CancelFlag {
    raised: AtomicBool,
    arm: OnceLock<Arm>,
}

/// What an armed [`CancelFlag`] follows besides its own word.
#[derive(Debug)]
struct Arm {
    link: Option<Arc<CancelFlag>>,
    expiry: Option<Instant>,
}

impl CancelFlag {
    /// A fresh, un-raised, unarmed flag.
    pub const fn new() -> Self {
        CancelFlag {
            raised: AtomicBool::new(false),
            arm: OnceLock::new(),
        }
    }

    /// A flag that follows the abort switch `link` and raises itself at
    /// `expiry`; with neither it is [`CancelFlag::new`].
    pub fn armed(link: Option<&Arc<CancelFlag>>, expiry: Option<Instant>) -> Self {
        let flag = CancelFlag::new();
        flag.arm(link, expiry);
        flag
    }

    /// Raises the flag. Idempotent.
    #[inline]
    pub fn cancel(&self) {
        self.raised.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised, its link has, or its expiry has
    /// passed. The poll of a loop: an armed flag reads the clock only
    /// every 256th call on a thread, so an expiry is seen within that
    /// many polls. A check made once, not in a loop, wants
    /// [`CancelFlag::is_cancelled_now`].
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.raised.load(Ordering::Acquire) || self.arm.get().is_some_and(|arm| self.poll(arm))
    }

    /// [`CancelFlag::is_cancelled`] with the clock read on every call.
    pub fn is_cancelled_now(&self) -> bool {
        self.raised.load(Ordering::Acquire)
            || self
                .arm
                .get()
                .is_some_and(|arm| arm.linked() || self.expired(arm))
    }

    /// When an armed flag raises itself, if it has an expiry.
    pub(crate) fn expiry(&self) -> Option<Instant> {
        self.arm.get().and_then(|arm| arm.expiry)
    }

    /// Arms the flag, once: a later arm keeps the first expiry and must
    /// name the same abort switch, if it names one.
    fn arm(&self, link: Option<&Arc<CancelFlag>>, expiry: Option<Instant>) {
        if link.is_none() && expiry.is_none() {
            return;
        }
        let arm = self.arm.get_or_init(|| Arm {
            link: link.cloned(),
            expiry,
        });
        if let Some(abort) = link {
            assert!(
                arm.link.as_ref().is_some_and(|l| Arc::ptr_eq(l, abort)),
                "a cancel flag follows one abort switch"
            );
        }
    }

    /// The armed half of a poll: the link's word, then the clock when this
    /// thread's countdown runs out.
    #[inline]
    fn poll(&self, arm: &Arm) -> bool {
        arm.linked()
            || arm.expiry.is_some()
                && POLLS_UNTIL_CLOCK.with(|left| match left.get() {
                    0 => {
                        left.set(CLOCK_EVERY - 1);
                        self.expired(arm)
                    }
                    n => {
                        left.set(n - 1);
                        false
                    }
                })
    }

    /// Reads the clock against the expiry, latching a passed one into the
    /// flag's own word.
    #[cold]
    fn expired(&self, arm: &Arm) -> bool {
        let passed = arm.expiry.is_some_and(|e| Instant::now() >= e);
        if passed {
            self.cancel();
        }
        passed
    }
}

impl Arm {
    /// Whether the abort switch is raised. Relaxed: an abort publishes no
    /// data the run goes on to read, it only has to be seen eventually
    /// (DESIGN.md section 5h).
    #[inline]
    fn linked(&self) -> bool {
        self.link
            .as_ref()
            .is_some_and(|abort| abort.raised.load(Ordering::Relaxed))
    }
}

/// A wall-clock budget for one pool region (see [`Pool::with_deadline`]).
/// Each region's [`CancelFlag`] is armed to expire `d` after launch: its
/// pollers raise it — the software-QUIT analogue — and a region with a
/// lane still running past the expiry ends with [`PoolOutcome::TimedOut`]
/// naming the last lane to finish instead of hanging the caller forever.
///
/// Cancellation is cooperative: a lane that never polls the cancel flag
/// (a truly wedged body) cannot be reaped, only reported. Every
/// scheduling loop in this crate polls at iteration boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Duration);

impl Deadline {
    /// A deadline of `d` per pool region.
    pub const fn new(d: Duration) -> Self {
        Deadline(d)
    }

    /// Convenience: a deadline of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Deadline(Duration::from_millis(ms))
    }

    /// The region budget.
    pub const fn duration(&self) -> Duration {
        self.0
    }
}

/// A region deadline expiry: which lane finished last past the expiry,
/// (optionally) which iteration it was on, and how long the region ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTimeout {
    /// Virtual processor number of the overdue lane (the last lane to
    /// finish, when it finished after the expiry).
    pub vpn: usize,
    /// Iteration the lane was executing, when the containing construct
    /// knows it (`None` for timeouts observed at the pool boundary).
    pub iter: Option<usize>,
    /// How long the region ran, from launch until its last lane finished.
    pub elapsed: Duration,
}

impl std::fmt::Display for WorkerTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.iter {
            Some(i) => write!(
                f,
                "worker {} exceeded the region deadline at iteration {} ({:?} elapsed)",
                self.vpn, i, self.elapsed
            ),
            None => write!(
                f,
                "worker {} exceeded the region deadline ({:?} elapsed)",
                self.vpn, self.elapsed
            ),
        }
    }
}

/// A contained worker panic: which worker, (optionally) which iteration,
/// and the stringified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Virtual processor number of the panicking worker.
    pub vpn: usize,
    /// Iteration the worker was executing, when the containing construct
    /// knows it (`None` for panics caught at the pool boundary).
    pub iter: Option<usize>,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.iter {
            Some(i) => write!(
                f,
                "worker {} panicked at iteration {}: {}",
                self.vpn, i, self.message
            ),
            None => write!(f, "worker {} panicked: {}", self.vpn, self.message),
        }
    }
}

/// Stringifies a `catch_unwind` payload.
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How a [`Pool::run_with`] execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolOutcome {
    /// Every worker returned normally and the cancel flag stayed down.
    Clean,
    /// The cancel flag was raised but no worker panicked (cooperative
    /// early exit).
    Cancelled,
    /// At least one worker panicked; payloads in vpn order.
    Panicked(Vec<WorkerPanic>),
    /// The region's [`Deadline`] expired before every lane finished. The
    /// pollers raised the cancel flag and the region drained; panics
    /// contained on the way out ride along in vpn order.
    TimedOut {
        /// The last lane to finish past the expiry.
        timeout: WorkerTimeout,
        /// Panics contained while the region drained (usually empty).
        panics: Vec<WorkerPanic>,
    },
}

impl PoolOutcome {
    /// Whether the run completed with no panic, no cancellation and no
    /// deadline expiry.
    pub fn is_clean(&self) -> bool {
        matches!(self, PoolOutcome::Clean)
    }

    /// The contained panics (empty unless [`PoolOutcome::Panicked`] or a
    /// [`PoolOutcome::TimedOut`] that also contained panics).
    pub fn panics(&self) -> &[WorkerPanic] {
        match self {
            PoolOutcome::Panicked(ps) => ps,
            PoolOutcome::TimedOut { panics, .. } => panics,
            _ => &[],
        }
    }

    /// The deadline expiry, when the region timed out.
    pub fn timeout(&self) -> Option<&WorkerTimeout> {
        match self {
            PoolOutcome::TimedOut { timeout, .. } => Some(timeout),
            _ => None,
        }
    }

    /// Consumes the outcome, yielding the first contained panic if any.
    pub fn into_first_panic(self) -> Option<WorkerPanic> {
        match self {
            PoolOutcome::Panicked(mut ps) | PoolOutcome::TimedOut { panics: mut ps, .. }
                if !ps.is_empty() =>
            {
                Some(ps.remove(0))
            }
            _ => None,
        }
    }

    /// Re-raises the contained panics as **exactly one** panic on the
    /// caller's thread (payloads aggregated into one message), after every
    /// worker has finished the region — never a double-panic abort. A
    /// no-op for clean or cancelled runs.
    pub fn resume(self) {
        if let PoolOutcome::Panicked(ps) = self {
            let msg = ps
                .iter()
                .map(|w| match w.iter {
                    Some(i) => format!(
                        "worker {} panicked at iteration {}: {}",
                        w.vpn, i, w.message
                    ),
                    None => format!("worker {} panicked: {}", w.vpn, w.message),
                })
                .collect::<Vec<_>>()
                .join("; ");
            panic!("{msg}");
        }
    }
}

/// The job a leader hands to the resident workers for one region.
///
/// Both references are lifetime-erased to `'static` by the leader. This
/// is sound because the leader blocks until every worker has decremented
/// the region latch (`remaining == 0`) before returning, so no worker
/// can observe either reference after the real borrow ends.
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    cancel: &'static CancelFlag,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("Job { .. }")
    }
}

/// Low bits of the region word that hold the next unclaimed lane; the
/// bits above them hold the region number.
const LANE_BITS: u32 = 16;
const LANE_MASK: u64 = (1 << LANE_BITS) - 1;

/// Claims the next unclaimed lane of the region the word publishes:
/// `Ok((region, lane))`, or `Err(region)` once every lane below `p` is
/// claimed. The CAS covers the whole word, so a claimer that read one
/// region's word never takes a lane of a later region: the region number
/// differs, the CAS fails, and the claimer reads the word again.
/// `Acquire` on success: the leader's `Release` publish heads a release
/// sequence that every successful claim continues, so the claim orders
/// the job read after the leader's write.
fn claim(word: &AtomicU64, p: usize) -> Result<(u64, usize), u64> {
    let mut w = word.load(Ordering::Relaxed);
    loop {
        let lane = (w & LANE_MASK) as usize;
        if lane >= p {
            return Err(w >> LANE_BITS);
        }
        match word.compare_exchange_weak(w, w + 1, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => return Ok((w >> LANE_BITS, lane)),
            Err(now) => w = now,
        }
    }
}

/// Lock-free region handoff state.
///
/// Publication protocol (leader side, in this order): write [`job`],
/// store the `remaining` latch, `Release`-store the next region into
/// [`region`] with lane 1 unclaimed, and wake sleepers if the eventcount
/// says any are parked. A worker that claims a lane (see [`claim`])
/// observes the job write through that edge, so the `UnsafeCell` read
/// below is never a data race. Lane 0 is never in the word: it runs on
/// the leader.
///
/// Drain protocol: each retired lane decrements `remaining` (`SeqCst`);
/// the leader spins on the latch, then parks behind the `leader_parked`
/// flag. The latch decrement is a release edge, and the leader's
/// acquiring read of zero is what makes it sound to reclaim the job
/// borrow and take the panics afterwards. A drained region has every
/// lane claimed, so no claim races the next publish.
struct Shared {
    /// The region number above the next unclaimed lane. Stored only by
    /// the single in-flight leader, and workers claim lanes from it; it
    /// starts as region 0 with every lane claimed. Padded: workers spin
    /// on it.
    region: CachePadded<AtomicU64>,
    /// Lanes not yet retired for the current region. Padded: the
    /// leader spins on it while workers decrement it.
    remaining: CachePadded<AtomicUsize>,
    /// The current region's job (present exactly while a region runs).
    /// Written by the leader only; read by workers only between the
    /// lane claim and the latch decrement — see the protocol above.
    job: UnsafeCell<Option<Job>>,
    /// Set once, on pool drop: workers exit their loop.
    shutdown: AtomicBool,
    /// Eventcount: number of workers parked on `work`.
    sleepers: AtomicUsize,
    /// Eventcount: whether the leader is parked on `done`.
    leader_parked: AtomicBool,
    /// Parking slow path for idle workers (never touched while work is
    /// arriving faster than `SPIN_LIMIT` spins).
    park: Mutex<()>,
    work: Condvar,
    /// Parking slow path for a leader whose region outlasts its spin.
    done_mutex: Mutex<()>,
    done: Condvar,
    /// Panics contained by workers during the current region (cold path:
    /// touched only when a body actually panics).
    panics: Mutex<Vec<WorkerPanic>>,
}

// Safety: the only non-Sync field is `job`; the publication/drain
// protocol documented on [`Shared`] orders every worker read of it after
// the leader's write (region word release/acquire) and every leader
// write/clear after all worker reads (latch release/acquire).
unsafe impl Sync for Shared {}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let region = self.region.load(Ordering::Relaxed);
        f.debug_struct("Shared")
            .field("region", &(region >> LANE_BITS))
            .field("next_lane", &(region & LANE_MASK))
            .field("remaining", &self.remaining.load(Ordering::Relaxed))
            .field("sleepers", &self.sleepers.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The persistent half of a resident pool: parked worker threads plus the
/// handoff state. Dropping it shuts the workers down and joins them.
#[derive(Debug)]
struct Resident {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Raised while a region is in flight; a nested or concurrent
    /// `run_with` on the same pool falls back to spawn-per-region instead
    /// of corrupting the region word.
    in_region: AtomicBool,
}

impl Resident {
    fn start(p: usize) -> Self {
        assert!(
            p as u64 <= LANE_MASK,
            "a resident pool's lanes fit the region word"
        );
        let shared = Arc::new(Shared {
            region: CachePadded::new(AtomicU64::new(p as u64)),
            remaining: CachePadded::new(AtomicUsize::new(0)),
            job: UnsafeCell::new(None),
            shutdown: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            leader_parked: AtomicBool::new(false),
            park: Mutex::new(()),
            work: Condvar::new(),
            done_mutex: Mutex::new(()),
            done: Condvar::new(),
            panics: Mutex::new(Vec::new()),
        });
        let handles = (1..p)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wlp-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, p))
                    .expect("spawn resident worker")
            })
            .collect();
        Resident {
            shared,
            handles,
            in_region: AtomicBool::new(false),
        }
    }
}

impl Drop for Resident {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // taking the park mutex orders the store before any sleeper's
            // condition re-check, so no worker can park forever
            let _g = self.shared.park.lock();
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Body of a resident worker thread: claim a lane, run the job for it,
/// retire it; spin briefly once every lane of the region is claimed,
/// then park on the eventcount until the next region. A panicking job is
/// contained here, so the thread survives to serve the next region.
fn worker_loop(shared: &Shared, p: usize) {
    let mut spins = 0u32;
    loop {
        // the region this worker last saw fully claimed
        let served = match claim(&shared.region, p) {
            Err(region) => region,
            Ok((_, lane)) => {
                spins = 0;
                // Safety: see the protocol on [`Shared`] — the claim's
                // acquire edge ordered this read after the leader's
                // write, and the latch below keeps the borrow alive.
                let job = unsafe { (*shared.job.get()).expect("a claimed lane implies a job") };
                let result = catch_unwind(AssertUnwindSafe(|| (job.f)(lane)));
                if let Err(payload) = result {
                    // raise QUIT first so peers drain promptly
                    job.cancel.cancel();
                    shared.panics.lock().push(WorkerPanic {
                        vpn: lane,
                        iter: None,
                        message: payload_message(payload.as_ref()),
                    });
                }
                // Retire the lane. `SeqCst` (not just release) because
                // this store is half of the Dekker handshake with the
                // leader's `leader_parked` flag below.
                if shared.remaining.fetch_sub(1, Ordering::SeqCst) == 1
                    && shared.leader_parked.load(Ordering::SeqCst)
                {
                    let _g = shared.done_mutex.lock();
                    shared.done.notify_one();
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        spins += 1;
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
            continue;
        }
        spins = 0;
        // Park. Missed-wakeup safety is two-fold: the sleeper
        // registration / region re-check below is `SeqCst` against the
        // leader's publish fence + `sleepers` load (Dekker), and the
        // leader notifies while holding `park`, which the condition
        // re-check holds too.
        let mut g = shared.park.lock();
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        while shared.region.load(Ordering::SeqCst) >> LANE_BITS == served
            && !shared.shutdown.load(Ordering::SeqCst)
        {
            shared.work.wait(&mut g);
        }
        shared.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A group of `p` cooperating workers.
///
/// The paper's codes are written in terms of `nproc` (processor count) and
/// `vpn` (virtual processor number of the processor executing an iteration).
/// `Pool::run(f)` executes `f(vpn)` once per worker, on `p` OS threads, and
/// returns when all have finished — the body of every DOALL-style construct
/// in this crate.
///
/// [`Pool::new`] builds a *resident* pool: `p − 1` workers are spawned once
/// and parked between regions, so consecutive `run`/`run_with` calls reuse
/// the same OS threads (cheap dispatch, as on the Alliant). The closure may
/// still borrow from the caller's stack: the leader does not return until
/// every worker has finished the region.
///
/// Cloning a `Pool` shares the same resident workers. A `run_with` that is
/// re-entered (a body launching a nested region on the same pool) or raced
/// from two threads falls back to spawn-per-region for the inner/loser
/// region, so nesting is safe — just not resident-accelerated.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
    resident: Option<Arc<Resident>>,
    deadline: Option<Deadline>,
    /// An external abort switch (a client disconnect, a service drain):
    /// every region's cancel flag is linked to it at launch, so each
    /// construct's cooperative polling reads it directly.
    abort: Option<Arc<CancelFlag>>,
}

impl Pool {
    /// Creates a resident pool of `p` workers (`p − 1` parked threads plus
    /// the caller's thread as vpn 0).
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "a pool needs at least one worker");
        let resident = (p > 1).then(|| Arc::new(Resident::start(p)));
        Pool {
            workers: p,
            resident,
            deadline: None,
            abort: None,
        }
    }

    /// A handle to the same pool (same resident workers) whose regions
    /// each have `d` to run: a region's cancel flag is armed at launch to
    /// expire `d` later, the region's own polling stops it, and a region
    /// with a lane finishing past the expiry ends with
    /// [`PoolOutcome::TimedOut`]. Because every construct in this crate
    /// takes the pool by reference, this threads deadlines through
    /// DOALL/DOACROSS/speculation with no signature changes. No thread is
    /// started to keep the time.
    pub fn with_deadline(&self, d: Deadline) -> Pool {
        Pool {
            deadline: Some(d),
            ..self.clone()
        }
    }

    /// The deadline guarding this handle's regions, if any.
    #[inline]
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// A handle to the same pool whose regions are additionally guarded
    /// by an external abort switch: each region's cancel flag is linked
    /// to `abort` at launch, so once `abort` is raised (a client
    /// disconnect, a service drain) every poll of the region's flag
    /// reads cancelled and the region ends [`PoolOutcome::Cancelled`]
    /// when its lanes drain cooperatively. The launch itself is the
    /// unarmed one — no thread, no timer. Composes with
    /// [`Pool::with_deadline`] — whichever fires first stops the region.
    pub fn with_abort(&self, abort: Arc<CancelFlag>) -> Pool {
        Pool {
            abort: Some(abort),
            ..self.clone()
        }
    }

    /// Number of workers (the paper's `nproc`).
    #[inline]
    pub fn size(&self) -> usize {
        self.workers
    }

    /// Whether regions run on persistent parked workers (`false` only for
    /// `p = 1`, which always runs inline).
    #[inline]
    pub fn is_resident(&self) -> bool {
        self.resident.is_some()
    }

    /// Runs `f(vpn)` on every worker, vpn ∈ `0..p`, containing panics.
    ///
    /// Every worker — including vpn 0, which runs on the caller's thread —
    /// executes under `catch_unwind`, so a panicking iteration body can
    /// never abort the process (concurrent panics on the caller thread and
    /// a spawned thread used to be a double-panic abort) and never kills a
    /// resident worker thread. The first panic raises `cancel`; constructs
    /// poll it at iteration boundaries so peers drain quickly. The outcome
    /// is reported exactly once, after every worker has finished the
    /// region.
    ///
    /// On an armed handle `cancel` is armed first (see [`CancelFlag`]):
    /// linked to the handle's abort switch, expiring at launch plus the
    /// handle's deadline. Whenever `cancel` has an expiry, each lane reads
    /// the clock once as it finishes, and the region timed out iff one of
    /// them finished past the expiry.
    ///
    /// # Panics
    /// On a handle built [`Pool::with_abort`], if `cancel` was already
    /// armed with a different abort switch.
    pub fn run_with<F>(&self, cancel: &CancelFlag, f: F) -> PoolOutcome
    where
        F: Fn(usize) + Sync,
    {
        let deadline = self.deadline.map(|d| (Instant::now(), d.duration()));
        cancel.arm(self.abort.as_ref(), deadline.map(|(start, d)| start + d));
        let Some(expiry) = cancel.expiry() else {
            return Self::outcome(self.dispatch(cancel, &f), None, cancel);
        };
        let start = deadline.map_or_else(Instant::now, |(start, _)| start);
        // The last lane to finish past the expiry; `usize::MAX` while none
        // has. A lane that unwinds still finishes, through the guard.
        let late = AtomicUsize::new(usize::MAX);
        struct LaneExit<'a> {
            vpn: usize,
            expiry: Instant,
            late: &'a AtomicUsize,
        }
        impl Drop for LaneExit<'_> {
            fn drop(&mut self) {
                if Instant::now() >= self.expiry {
                    self.late.store(self.vpn, Ordering::Relaxed);
                }
            }
        }
        let panics = self.dispatch(cancel, &|vpn: usize| {
            let _exit = LaneExit {
                vpn,
                expiry,
                late: &late,
            };
            f(vpn);
        });
        let timeout = match late.into_inner() {
            usize::MAX => None,
            vpn => {
                cancel.cancel();
                Some(WorkerTimeout {
                    vpn,
                    iter: None,
                    elapsed: start.elapsed(),
                })
            }
        };
        Self::outcome(panics, timeout, cancel)
    }

    /// Routes one region to the right execution mode (inline, resident,
    /// or spawn-per-region) and returns the contained panics.
    fn dispatch(&self, cancel: &CancelFlag, f: &(dyn Fn(usize) + Sync)) -> Vec<WorkerPanic> {
        if self.workers == 1 {
            let mut panics = Vec::new();
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(0))) {
                cancel.cancel();
                panics.push(WorkerPanic {
                    vpn: 0,
                    iter: None,
                    message: payload_message(p.as_ref()),
                });
            }
            panics
        } else if let Some(res) = self.resident.as_deref().filter(|r| {
            r.in_region
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        }) {
            let panics = self.run_resident(res, cancel, f);
            res.in_region.store(false, Ordering::Release);
            panics
        } else {
            // spawn-per-region: a nested region, or a racing leader on the
            // same resident pool
            self.run_spawned(cancel, f)
        }
    }

    /// Classifies a drained region: a deadline expiry trumps panics,
    /// panics trump cooperative cancellation. Cancellation is the raised
    /// word or link alone: a region whose lanes all finished before the
    /// expiry stays clean even if the expiry passes before this runs.
    fn outcome(
        panics: Vec<WorkerPanic>,
        timeout: Option<WorkerTimeout>,
        cancel: &CancelFlag,
    ) -> PoolOutcome {
        let raised =
            || cancel.raised.load(Ordering::Acquire) || cancel.arm.get().is_some_and(Arm::linked);
        match timeout {
            Some(timeout) => PoolOutcome::TimedOut { timeout, panics },
            None if !panics.is_empty() => PoolOutcome::Panicked(panics),
            None if raised() => PoolOutcome::Cancelled,
            None => PoolOutcome::Clean,
        }
    }

    /// One region on the resident workers, lock-free on the hot path:
    /// publish the job, then the region in the region word, run vpn 0
    /// inline, then spin (and only then park) until every claimed lane
    /// is retired; returns the contained panics in vpn order.
    fn run_resident(
        &self,
        res: &Resident,
        cancel: &CancelFlag,
        f: &(dyn Fn(usize) + Sync),
    ) -> Vec<WorkerPanic> {
        let shared = &res.shared;
        let p = self.workers;
        // SAFETY: the borrows are only lifetime-erased. Workers use them
        // strictly between their lane claim and their latch decrement,
        // and this function does not return before the latch reaches
        // zero — the wait loop cannot be skipped because vpn 0 runs
        // under catch_unwind and nothing between publish and wait
        // unwinds.
        let job = Job {
            f: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
            },
            cancel: unsafe { std::mem::transmute::<&CancelFlag, &'static CancelFlag>(cancel) },
        };
        debug_assert_eq!(
            shared.remaining.load(Ordering::Relaxed),
            0,
            "previous region fully drained"
        );
        let region = shared.region.load(Ordering::Relaxed);
        debug_assert_eq!(region & LANE_MASK, p as u64, "previous lanes all claimed");
        // Publish. The job and the latch are written before the region
        // word's release store, which every lane claim acquires, so a
        // worker that claims a lane sees a complete region.
        unsafe { *shared.job.get() = Some(job) };
        shared.remaining.store(p - 1, Ordering::Relaxed);
        let next = (region >> LANE_BITS).wrapping_add(1);
        shared
            .region
            .store(next << LANE_BITS | 1, Ordering::Release);
        // Dekker handshake with parking workers: the fence orders the
        // region store before the `sleepers` read, pairing with the
        // sleeper's `SeqCst` registration + region re-check.
        std::sync::atomic::fence(Ordering::SeqCst);
        if shared.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = shared.park.lock();
            shared.work.notify_all();
        }
        let mut panics = Vec::new();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(0))) {
            cancel.cancel();
            panics.push(WorkerPanic {
                vpn: 0,
                iter: None,
                message: payload_message(payload.as_ref()),
            });
        }
        // Drain: spin first (regions are usually shorter than a park
        // round-trip), then park behind `leader_parked`.
        let mut spins = 0u32;
        while shared.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
                continue;
            }
            let mut g = shared.done_mutex.lock();
            shared.leader_parked.store(true, Ordering::SeqCst);
            while shared.remaining.load(Ordering::SeqCst) != 0 {
                shared.done.wait(&mut g);
            }
            shared.leader_parked.store(false, Ordering::Relaxed);
            break;
        }
        // The acquiring reads of zero above ordered every worker's use of
        // the job borrow before this point: safe to retract it.
        unsafe { *shared.job.get() = None };
        {
            let mut contained = shared.panics.lock();
            panics.append(&mut contained);
        }
        panics.sort_by_key(|w| w.vpn);
        panics
    }

    /// One region on freshly spawned scoped threads (the fallback for a
    /// region launched while the resident workers are busy); returns the
    /// contained panics in vpn order.
    fn run_spawned<F>(&self, cancel: &CancelFlag, f: &F) -> Vec<WorkerPanic>
    where
        F: Fn(usize) + Sync + ?Sized,
    {
        let mut panics: Vec<WorkerPanic> = Vec::new();
        std::thread::scope(|s| {
            // vpn 0 runs on the caller's thread; 1..p on spawned threads.
            let handles: Vec<_> = (1..self.workers)
                .map(|vpn| {
                    s.spawn(move || match catch_unwind(AssertUnwindSafe(|| f(vpn))) {
                        Ok(()) => None,
                        Err(p) => {
                            cancel.cancel();
                            Some(WorkerPanic {
                                vpn,
                                iter: None,
                                message: payload_message(p.as_ref()),
                            })
                        }
                    })
                })
                .collect();
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(0))) {
                cancel.cancel();
                panics.push(WorkerPanic {
                    vpn: 0,
                    iter: None,
                    message: payload_message(p.as_ref()),
                });
            }
            for (idx, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(None) => {}
                    Ok(Some(wp)) => panics.push(wp),
                    // The closure cannot unwind past its catch_unwind,
                    // but stay defensive about the join channel itself.
                    Err(p) => panics.push(WorkerPanic {
                        vpn: idx + 1,
                        iter: None,
                        message: payload_message(p.as_ref()),
                    }),
                }
            }
        });
        panics.sort_by_key(|w| w.vpn);
        panics
    }

    /// Runs `f(vpn)` on every worker, vpn ∈ `0..p`, and waits for all.
    ///
    /// With `p == 1` the closure runs inline on the caller's thread, which
    /// makes sequential baselines measurable without thread overhead.
    ///
    /// # Panics
    /// If any worker panics, re-raises exactly one panic (aggregated
    /// payload) on the caller's thread after all workers have joined.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run_with(&CancelFlag::new(), f).resume();
    }

    /// Fault-containing [`Pool::run_map`]: collects each worker's return
    /// value in vpn order, with `None` in the slot of any worker that
    /// panicked (or never ran). The outcome reports the contained panics;
    /// values produced by clean workers are **always preserved** alongside
    /// a [`PoolOutcome::Panicked`] — a sibling's panic never discards
    /// them.
    pub fn run_map_with<F, T>(&self, cancel: &CancelFlag, f: F) -> (Vec<Option<T>>, PoolOutcome)
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        let mut out: Vec<Option<T>> = (0..self.workers).map(|_| None).collect();
        let outcome = {
            let slots: Vec<Mutex<&mut Option<T>>> = out.iter_mut().map(Mutex::new).collect();
            self.run_with(cancel, |vpn| {
                let v = f(vpn);
                **slots[vpn].lock() = Some(v);
            })
        };
        (out, outcome)
    }

    /// Runs `f(vpn)` on every worker and collects each worker's return value
    /// in vpn order (the paper's `L[0:nproc-1]` per-processor arrays).
    ///
    /// # Panics
    /// If any worker panics, re-raises exactly one panic (aggregated
    /// payload) on the caller's thread after all workers have joined.
    pub fn run_map<F, T>(&self, f: F) -> Vec<T>
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        let (out, outcome) = self.run_map_with(&CancelFlag::new(), f);
        outcome.resume();
        out.into_iter()
            .map(|v| v.expect("clean run fills every slot"))
            .collect()
    }

    /// Splits `0..n` into `p` contiguous blocks, returning `(lo, hi)` for
    /// worker `vpn` (empty blocks for trailing workers when `n < p`).
    pub fn block(&self, vpn: usize, n: usize) -> (usize, usize) {
        let p = self.workers;
        let base = n / p;
        let extra = n % p;
        let lo = vpn * base + vpn.min(extra);
        let size = base + usize::from(vpn < extra);
        (lo, lo + size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn run_executes_every_vpn_once() {
        let pool = Pool::new(4);
        let hits = [(); 4].map(|_| AtomicUsize::new(0));
        pool.run(|vpn| {
            hits[vpn].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn run_map_preserves_vpn_order() {
        let pool = Pool::new(5);
        assert_eq!(pool.run_map(|vpn| vpn * 10), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = Pool::new(1);
        assert!(!pool.is_resident(), "p = 1 never needs worker threads");
        let tid = std::thread::current().id();
        pool.run(|_| assert_eq!(std::thread::current().id(), tid));
    }

    #[test]
    fn resident_pool_reuses_worker_threads_across_regions() {
        // Any worker may claim any lane, so which thread serves which vpn
        // may vary region to region — what residency guarantees is that the
        // *set* of OS threads is stable (no spawn per region) and that
        // vpn 0 always runs inline on the leader.
        let pool = Pool::new(4);
        assert!(pool.is_resident());
        let mut union: HashSet<ThreadId> = HashSet::new();
        for _ in 0..10 {
            let ids = pool.run_map(|_| std::thread::current().id());
            assert_eq!(ids[0], std::thread::current().id(), "vpn 0 is the leader");
            union.extend(ids);
        }
        // Spawn-per-region would contribute fresh thread ids every region;
        // a resident pool serves all ten regions from one fixed set.
        assert!(
            union.len() <= 4,
            "at most p distinct threads across regions, got {}",
            union.len()
        );
    }

    #[test]
    fn nested_region_on_the_same_pool_falls_back_and_completes() {
        let pool = Pool::new(3);
        let outer_hits = AtomicUsize::new(0);
        let inner_hits = AtomicUsize::new(0);
        let out = pool.run_with(&CancelFlag::new(), |vpn| {
            outer_hits.fetch_add(1, Ordering::Relaxed);
            if vpn == 0 {
                // re-entrant region: must run via the spawn fallback, not
                // corrupt the in-flight region word
                let inner = pool.run_with(&CancelFlag::new(), |_| {
                    inner_hits.fetch_add(1, Ordering::Relaxed);
                });
                assert!(inner.is_clean());
            }
        });
        assert!(out.is_clean());
        assert_eq!(outer_hits.load(Ordering::Relaxed), 3);
        assert_eq!(inner_hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn blocks_partition_range() {
        for p in 1..=8 {
            let pool = Pool::new(p);
            for n in [0usize, 1, 7, 8, 100] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for vpn in 0..p {
                    let (lo, hi) = pool.block(vpn, n);
                    assert_eq!(lo, prev_hi, "blocks must be contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, n);
                assert_eq!(prev_hi, n);
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let pool = Pool::new(3);
        let sizes: Vec<usize> = (0..3)
            .map(|v| {
                let (lo, hi) = pool.block(v, 10);
                hi - lo
            })
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Pool::new(0);
    }

    #[test]
    fn worker_panic_is_contained_and_reported() {
        let pool = Pool::new(4);
        let cancel = CancelFlag::new();
        let out = pool.run_with(&cancel, |vpn| {
            if vpn == 2 {
                panic!("boom on {vpn}");
            }
        });
        let panics = out.panics();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].vpn, 2);
        assert_eq!(panics[0].message, "boom on 2");
        assert!(cancel.is_cancelled(), "panic raises the cancel flag");
    }

    #[test]
    fn resident_pool_survives_a_worker_panic_and_serves_the_next_region() {
        let pool = Pool::new(4);
        let mut union: HashSet<ThreadId> = pool
            .run_map(|_| std::thread::current().id())
            .into_iter()
            .collect();
        let out = pool.run_with(&CancelFlag::new(), |vpn| {
            if vpn != 0 {
                panic!("fault on {vpn}");
            }
        });
        assert_eq!(out.panics().len(), 3, "every non-leader panic contained");
        // the pool is immediately reusable, on the *same* worker threads:
        // no replacement thread may appear after the faulted region
        union.extend(pool.run_map(|_| std::thread::current().id()));
        assert!(
            union.len() <= 4,
            "panicked workers parked, not died (got {} threads)",
            union.len()
        );
        let clean = pool.run_with(&CancelFlag::new(), |_| {});
        assert_eq!(clean, PoolOutcome::Clean);
    }

    #[test]
    fn caller_thread_panic_does_not_abort_even_with_concurrent_panics() {
        // Regression for the double-panic abort: vpn 0 (caller thread) and
        // a spawned worker panic concurrently; both must be contained.
        let pool = Pool::new(4);
        let cancel = CancelFlag::new();
        let out = pool.run_with(&cancel, |vpn| {
            if vpn == 0 || vpn == 3 {
                panic!("boom {vpn}");
            }
        });
        let vpns: Vec<usize> = out.panics().iter().map(|w| w.vpn).collect();
        assert_eq!(vpns, vec![0, 3], "payloads aggregated in vpn order");
    }

    #[test]
    fn resume_reraises_exactly_one_panic_with_payload() {
        let pool = Pool::new(3);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|vpn| {
                if vpn == 1 {
                    panic!("injected");
                }
            });
        }))
        .unwrap_err();
        let msg = payload_message(err.as_ref());
        assert!(msg.contains("worker 1 panicked"), "{msg}");
        assert!(msg.contains("injected"), "{msg}");
    }

    #[test]
    fn single_worker_panic_is_contained() {
        let pool = Pool::new(1);
        let out = pool.run_with(&CancelFlag::new(), |_| panic!("solo"));
        assert_eq!(out.panics().len(), 1);
        assert_eq!(out.panics()[0].message, "solo");
    }

    #[test]
    fn cancelled_outcome_without_panic() {
        let pool = Pool::new(2);
        let cancel = CancelFlag::new();
        let out = pool.run_with(&cancel, |_| cancel.cancel());
        assert_eq!(out, PoolOutcome::Cancelled);
        assert!(!out.is_clean());
    }

    #[test]
    fn a_deadline_times_out_a_stalling_lane_and_reports_the_vpn() {
        let pool = Pool::new(4);
        let guarded = pool.with_deadline(Deadline::from_millis(20));
        assert!(guarded.is_resident(), "deadline handle shares the workers");
        let cancel = CancelFlag::new();
        let out = guarded.run_with(&cancel, |vpn| {
            if vpn == 2 {
                // cooperative stall: spin until the expired flag raises QUIT
                while !cancel.is_cancelled() {
                    std::hint::spin_loop();
                }
            }
        });
        let to = out.timeout().expect("the deadline must expire").clone();
        assert_eq!(to.vpn, 2, "lowest unfinished lane");
        assert!(to.elapsed >= Duration::from_millis(20));
        assert!(out.panics().is_empty());
        assert!(!out.is_clean());
        assert!(cancel.is_cancelled());

        // the same resident workers keep serving regions afterwards
        let clean = pool.run_with(&CancelFlag::new(), |_| {});
        assert_eq!(clean, PoolOutcome::Clean);
        let watched_clean = guarded.run_with(&CancelFlag::new(), |_| {});
        assert_eq!(watched_clean, PoolOutcome::Clean);
    }

    #[test]
    fn fast_region_under_deadline_stays_clean() {
        let pool = Pool::new(3).with_deadline(Deadline::from_millis(5_000));
        let hits = AtomicUsize::new(0);
        let out = pool.run_with(&CancelFlag::new(), |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out, PoolOutcome::Clean);
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_deadline_timeout_carries_concurrent_panics() {
        let pool = Pool::new(4).with_deadline(Deadline::from_millis(20));
        let cancel = CancelFlag::new();
        let out = pool.run_with(&cancel, |vpn| {
            if vpn == 1 {
                while !cancel.is_cancelled() {
                    std::hint::spin_loop();
                }
                panic!("stalled lane gives up");
            }
        });
        assert!(out.timeout().is_some(), "timeout classification wins");
        assert_eq!(out.panics().len(), 1);
        assert_eq!(out.panics()[0].vpn, 1);
        let wp = out.into_first_panic().expect("panic still retrievable");
        assert_eq!(wp.message, "stalled lane gives up");
    }

    #[test]
    fn single_worker_deadline_cancels_inline_run() {
        let pool = Pool::new(1).with_deadline(Deadline::from_millis(20));
        let cancel = CancelFlag::new();
        let out = pool.run_with(&cancel, |_| {
            while !cancel.is_cancelled() {
                std::hint::spin_loop();
            }
        });
        let to = out.timeout().expect("inline lane is watched too");
        assert_eq!(to.vpn, 0);
    }

    #[test]
    fn abort_switch_cancels_a_running_region() {
        let pool = Pool::new(3);
        let abort = Arc::new(CancelFlag::new());
        let guarded = pool.with_abort(Arc::clone(&abort));
        assert!(guarded.deadline().is_none());
        let cancel = CancelFlag::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                abort.cancel();
            });
            let out = guarded.run_with(&cancel, |_| {
                // cooperative stall until the switch reads through the link
                while !cancel.is_cancelled() {
                    std::hint::spin_loop();
                }
            });
            assert_eq!(out, PoolOutcome::Cancelled);
        });
        // the same resident workers keep serving regions afterwards
        let clean = pool.run_with(&CancelFlag::new(), |_| {});
        assert_eq!(clean, PoolOutcome::Clean);
    }

    #[test]
    fn pre_raised_abort_cancels_promptly() {
        let abort = Arc::new(CancelFlag::new());
        abort.cancel();
        let pool = Pool::new(2).with_abort(Arc::clone(&abort));
        let cancel = CancelFlag::new();
        let out = pool.run_with(&cancel, |_| {
            while !cancel.is_cancelled() {
                std::hint::spin_loop();
            }
        });
        assert_eq!(out, PoolOutcome::Cancelled);
    }

    #[test]
    fn abort_composes_with_deadline_and_clean_runs_stay_clean() {
        let abort = Arc::new(CancelFlag::new());
        let pool = Pool::new(2)
            .with_deadline(Deadline::from_millis(5_000))
            .with_abort(Arc::clone(&abort));
        let out = pool.run_with(&CancelFlag::new(), |_| {});
        assert_eq!(out, PoolOutcome::Clean);
        // deadline still wins when the abort switch stays down
        let fast = Pool::new(2)
            .with_deadline(Deadline::from_millis(20))
            .with_abort(abort);
        let cancel = CancelFlag::new();
        let out = fast.run_with(&cancel, |_| {
            while !cancel.is_cancelled() {
                std::hint::spin_loop();
            }
        });
        assert!(
            out.timeout().is_some(),
            "deadline expiry classified: {out:?}"
        );
    }

    #[test]
    fn run_map_with_leaves_panicked_slot_empty() {
        let pool = Pool::new(3);
        let (slots, out) = pool.run_map_with(&CancelFlag::new(), |vpn| {
            if vpn == 1 {
                panic!("no value");
            }
            vpn * 2
        });
        assert_eq!(slots[0], Some(0));
        assert_eq!(slots[1], None);
        assert_eq!(slots[2], Some(4));
        assert_eq!(out.panics().len(), 1);
    }

    // `atomic_`-prefixed tests are the ones the CI Miri job selects by
    // name: small enough to finish under the interpreter, focused on the
    // lock-free handoff protocol itself.

    #[test]
    fn atomic_resident_handoff_runs_every_lane_across_regions() {
        let regions = if cfg!(miri) { 4 } else { 50 };
        let pool = Pool::new(3);
        for _ in 0..regions {
            let hits = [(); 3].map(|_| AtomicUsize::new(0));
            let out = pool.run_with(&CancelFlag::new(), |vpn| {
                hits[vpn].fetch_add(1, Ordering::Relaxed);
            });
            assert!(out.is_clean());
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1, "each lane exactly once");
            }
        }
    }

    #[test]
    fn atomic_resident_handoff_publishes_leader_writes_to_workers() {
        // The job closure reads a value the leader wrote just before the
        // region: the region word's publication edge must make it visible.
        let pool = Pool::new(2);
        let regions = if cfg!(miri) { 4 } else { 100 };
        let mut seen = [0usize; 2];
        for r in 1..=regions {
            let input = r * 7;
            let slots: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
            pool.run(|vpn| slots[vpn].store(input, Ordering::Relaxed));
            for (s, slot) in seen.iter_mut().zip(&slots) {
                *s = slot.load(Ordering::Relaxed);
                assert_eq!(*s, input, "region input visible on every lane");
            }
        }
    }

    #[test]
    fn atomic_region_word_hands_out_each_lane_once_per_region() {
        // The hand-off alone, pool-free: this thread publishes region
        // after region as a leader does, p - 1 claimers take lanes from
        // the word, and every claim is checked against the region this
        // thread has published. A claimer still holding an older
        // region's word must not take a lane of the current one.
        let p = 4;
        let regions = if cfg!(miri) { 8 } else { 2_000 };
        let word = AtomicU64::new(p as u64);
        let current = AtomicU64::new(0);
        let retired = AtomicUsize::new(0);
        let hits: Vec<AtomicUsize> = (0..(regions + 1) * p)
            .map(|_| AtomicUsize::new(0))
            .collect();
        std::thread::scope(|s| {
            for _ in 1..p {
                s.spawn(|| loop {
                    match claim(&word, p) {
                        Ok((region, lane)) => {
                            assert_ne!(lane, 0, "lane 0 runs on the leader");
                            assert_eq!(
                                region,
                                current.load(Ordering::Relaxed),
                                "a lane of the region the leader published"
                            );
                            hits[region as usize * p + lane].fetch_add(1, Ordering::Relaxed);
                            retired.fetch_add(1, Ordering::Release);
                        }
                        Err(region) if region == regions as u64 => break,
                        Err(_) => std::thread::yield_now(),
                    }
                });
            }
            for region in 1..=regions {
                current.store(region as u64, Ordering::Relaxed);
                word.store((region as u64) << LANE_BITS | 1, Ordering::Release);
                while retired.load(Ordering::Acquire) < region * (p - 1) {
                    std::thread::yield_now();
                }
            }
        });
        for region in 1..=regions {
            for lane in 0..p {
                let runs = hits[region * p + lane].load(Ordering::Relaxed);
                assert_eq!(runs, usize::from(lane != 0), "region {region} lane {lane}");
            }
        }
    }

    #[test]
    fn atomic_linked_abort_is_read_not_copied() {
        let abort = Arc::new(CancelFlag::new());
        let pool = Pool::new(2).with_abort(Arc::clone(&abort));
        let cancel = CancelFlag::new();
        let in_region = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // raise the switch only once a lane is inside the region
                while !in_region.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                abort.cancel();
            });
            let out = pool.run_with(&cancel, |_| {
                in_region.store(true, Ordering::Release);
                while !cancel.is_cancelled() {
                    std::hint::spin_loop();
                }
            });
            assert_eq!(out, PoolOutcome::Cancelled);
        });
        assert!(
            !cancel.raised.load(Ordering::Relaxed),
            "the region's own word stays clear: the switch was read through the link"
        );
        assert!(cancel.is_cancelled());
    }

    #[test]
    #[should_panic(expected = "one abort switch")]
    fn a_flag_cannot_follow_a_second_abort_switch() {
        let pool = Pool::new(1);
        let cancel = CancelFlag::new();
        for _ in 0..2 {
            pool.with_abort(Arc::new(CancelFlag::new()))
                .run_with(&cancel, |_| {});
        }
    }

    #[test]
    fn run_map_with_keeps_clean_results_alongside_panics() {
        // Regression: a sibling's panic must not lose values produced by
        // clean workers, even when the panic raises the cancel flag
        // mid-region.
        let pool = Pool::new(4);
        let cancel = CancelFlag::new();
        let (slots, out) = pool.run_map_with(&cancel, |vpn| {
            if vpn == 2 {
                panic!("sibling fault");
            }
            vpn + 100
        });
        assert!(matches!(out, PoolOutcome::Panicked(_)));
        assert_eq!(out.panics().len(), 1);
        assert_eq!(slots[0], Some(100));
        assert_eq!(slots[1], Some(101));
        assert_eq!(slots[2], None, "the faulting worker has no value");
        assert_eq!(slots[3], Some(103));
        assert!(cancel.is_cancelled());
    }
}
