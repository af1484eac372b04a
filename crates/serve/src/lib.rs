//! `wlp-serve`: a multi-tenant loop-parallelization service.
//!
//! The preceding layers of this repository certify and execute one WHILE
//! loop at a time. This crate turns them into a **resident daemon**: many
//! tenants submit programs over a newline-delimited JSON protocol (see
//! `docs/PROTOCOL.md`), and the service multiplexes their loop regions
//! onto one shared worker budget. Three mechanisms make that safe and
//! fast:
//!
//! * **Certificate cache** ([`cache::CertCache`]) — parse, lowering, the
//!   full `wlp-analyze` pipeline and the slot-resolved
//!   [`ExecPlan`](wlp_ir::exec::ExecPlan) are memoized by source content
//!   hash; a hot program pays zero front-end cost per request, and the
//!   hit/miss counters surface through `wlp-obs` events and the `stats`
//!   op.
//! * **Region scheduler** ([`wlp_runtime::RegionScheduler`]) — resident
//!   worker lanes checked out per region in FIFO order, so concurrent
//!   tenants never cold-start threads and never oversubscribe the host
//!   (the paper's Section 8 resource-controlled self-scheduling, lifted
//!   from iterations-within-a-loop to loops-within-a-service).
//! * **Admission control** (`TenantState`) — each tenant holds a
//!   bounded number of regions in flight, a [`wlp_runtime::Governor`]
//!   whose abort history demotes it down the strategy ladder, and a
//!   speculation write-budget credit pool; requests past any bound are
//!   rejected with a `retry_after_ms` hint instead of queuing unbounded.
//!
//! [`Service::handle_line`] is the whole contract: one request line in,
//! one response line out, callable concurrently from any number of
//! transport threads (the `wlp-serve` binary wires it to stdin or a TCP
//! listener).

pub mod cache;
pub mod circuit;
pub mod persist;
pub mod proto;

use cache::{CacheEntry, CacheOutcome, CertCache, Choice, RunHistory};
use circuit::{Admission, CircuitBreaker, CircuitPolicy};
use parking_lot::Mutex;
use persist::{PersistError, PersistentStore};
use proto::{codes, ProtoError, ReplyMode, Request, RunRequest};
use serde::{json, Value};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlp_analyze::CertVerdict;
use wlp_ir::exec::{Schedule, SeqReason};
use wlp_ir::interp::{HostFn, Machine};
use wlp_obs::{AbortReason, Event, ProfileReport, Sample, StrategyChoice, Trace};
use wlp_runtime::{
    payload_message, Deadline, Governor, GovernorPolicy, Pool, RegionScheduler, SchedulerConfig,
};

pub use cache::{fnv1a64, fnv1a64_i64s};
pub use circuit::CircuitState;
pub use proto::PROTOCOL_VERSION;
pub use wlp_runtime::CancelFlag;

/// Tunables for a [`Service`] instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total resident workers shared by all regions.
    pub workers: usize,
    /// Workers per region lane (`workers / lane_width` concurrent
    /// regions; see [`SchedulerConfig`]).
    pub lane_width: usize,
    /// Distinct programs the certificate cache holds.
    pub cache_capacity: usize,
    /// Regions one tenant may have admitted at once; more are rejected
    /// `tenant_busy`.
    pub max_inflight_per_tenant: usize,
    /// Shared-queue depth past which *all* runs are rejected
    /// `overloaded`.
    pub max_queue_depth: usize,
    /// Iteration bound when a request does not set `max_iters`.
    pub default_max_iters: usize,
    /// The hint attached to retriable rejections.
    pub retry_after_ms: u64,
    /// Speculation write-budget credits per tenant: a speculative run
    /// reserves its certified write budget up front and returns it on
    /// completion; reservation failure is rejected `budget_exhausted`.
    pub tenant_spec_credits: u64,
    /// Governor policy each tenant's ladder starts from.
    pub governor: GovernorPolicy,
    /// Most obs [`Sample`]s the service retains (a ring: oldest are
    /// dropped past the cap, counted in `samples_dropped`). Without a
    /// bound a resident daemon's event buffer grows with request volume;
    /// with one, the ring is resident memory the daemon carries for as
    /// long as it lives (48 bytes a sample, two samples a request), so
    /// the default is sized to a few seconds of recent history, not to
    /// the request rate.
    pub max_samples: usize,
    /// Most distinct tenants the table holds; past the cap an idle
    /// tenant is evicted to admit a new name (tenant strings are
    /// client-chosen, so the table must not grow with attacker input).
    pub max_tenants: usize,
    /// Upper clamp on a request's client-supplied `deadline_ms` — a
    /// client cannot buy more wall-clock than the operator allows.
    pub max_deadline_ms: u64,
    /// How long a graceful drain waits for in-flight requests before
    /// the process gives up and exits anyway.
    pub drain_deadline_ms: u64,
    /// Per-tenant circuit-breaker tuning (consecutive hard failures →
    /// open → half-open probes). `trip_threshold: 0` disables it.
    pub circuit: CircuitPolicy,
    /// Register the one-shot `chaos_stall`/`chaos_panic` host functions
    /// on every served machine — **test harnesses only** (the
    /// `serve-chaos` bench bin injects worker faults through them).
    pub chaos_builtins: bool,
    /// Crash-safe certificate persistence (`--state-dir`): `Some` gives
    /// the cache a snapshot + journal on disk and a warm restart; `None`
    /// (the default) keeps the service fully in-memory.
    pub persist: Option<persist::PersistConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            lane_width: 2,
            cache_capacity: 128,
            max_inflight_per_tenant: 2,
            max_queue_depth: 8,
            default_max_iters: 10_000,
            retry_after_ms: 25,
            tenant_spec_credits: 1 << 20,
            governor: GovernorPolicy::default(),
            max_samples: 16_384,
            max_tenants: 1_024,
            max_deadline_ms: 60_000,
            drain_deadline_ms: 5_000,
            circuit: CircuitPolicy::default(),
            chaos_builtins: false,
            persist: None,
        }
    }
}

/// Per-tenant admission and adaptation state.
struct TenantState {
    /// Regions currently admitted (between admission and completion).
    in_flight: AtomicUsize,
    /// Strategy ladder driven by this tenant's abort history.
    governor: Mutex<Governor>,
    /// Remaining speculation write-budget credits.
    credits: AtomicU64,
    /// Requests accounted to this tenant.
    requests: AtomicU64,
    /// Requests rejected at admission.
    rejected: AtomicU64,
    /// Requests that missed their deadline or lost their client.
    timeouts: AtomicU64,
    /// Consecutive-hard-failure circuit breaker, layered above the
    /// governor: an open circuit rejects at admission, before any lane
    /// or credit is touched.
    breaker: Mutex<CircuitBreaker>,
}

impl TenantState {
    fn new(cfg: &ServeConfig) -> Self {
        TenantState {
            in_flight: AtomicUsize::new(0),
            governor: Mutex::new(Governor::new(cfg.governor)),
            credits: AtomicU64::new(cfg.tenant_spec_credits),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            breaker: Mutex::new(CircuitBreaker::new(cfg.circuit)),
        }
    }

    /// Tries to reserve `amount` credits; false if the pool is too low.
    fn reserve_credits(&self, amount: u64) -> bool {
        let mut cur = self.credits.load(Ordering::Relaxed);
        loop {
            if cur < amount {
                return false;
            }
            match self.credits.compare_exchange_weak(
                cur,
                cur - amount,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    fn return_credits(&self, amount: u64) {
        self.credits.fetch_add(amount, Ordering::AcqRel);
    }
}

/// The resident service: shared scheduler, certificate cache, tenant
/// table, and observability counters. All methods take `&self` — wrap in
/// an [`Arc`] and call [`handle_line`](Self::handle_line) from as many
/// transport threads as you like.
pub struct Service {
    cfg: ServeConfig,
    scheduler: RegionScheduler,
    cache: CertCache,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    samples: Mutex<VecDeque<Sample>>,
    samples_dropped: AtomicU64,
    epoch: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    /// Bytes of every line handed in, and the time spent turning them
    /// into typed requests or rejections (`stats.ingest`; its line count
    /// is `requests`).
    ingest_bytes: AtomicU64,
    ingest_parse_ns: AtomicU64,
    /// Raised by [`Service::begin_drain`]; while up, new `run` requests
    /// are rejected `draining` and ping reports `"draining":true`.
    draining: AtomicBool,
    /// `run` requests currently between admission and response — what a
    /// graceful drain waits on.
    active: AtomicUsize,
    /// Crash-safe certificate store (`Some` iff `cfg.persist` was set).
    persist: Option<Arc<PersistentStore>>,
    /// The fixed host functions, built once; a request's machine starts
    /// from a clone of the table (`Arc`s, not closures).
    builtins: HashMap<String, HostFn>,
    /// Runs served by a statically sequential plan, per [`SeqReason`]
    /// (indexed like [`SeqReason::ALL`]): degradation that is reported,
    /// not silent.
    sequential_plans: [AtomicU64; SeqReason::ALL.len()],
    /// What became of the runs whose plan could speculate
    /// (`stats.speculation`).
    speculation: SpeculationCounts,
}

/// `stats.speculation`: runs of a speculative plan, by what the service
/// decided for them and what came of it.
#[derive(Default)]
struct SpeculationCounts {
    /// Runs that attempted the speculative path (probes included).
    attempted: AtomicU64,
    /// Attempts whose parallel execution committed.
    committed: AtomicU64,
    /// Runs the program's history sent down the sequential path because
    /// speculation is measured slower in their size class.
    declined: AtomicU64,
    /// Runs that measured the path the history does not prefer.
    probes: AtomicU64,
}

/// Why a run took the path it took — the `decision` of a `run` response.
#[derive(Clone, Copy)]
enum Decision {
    /// The plan is sequential by construction.
    Planned(SeqReason),
    /// The tenant's governor has demoted it to the sequential rung.
    RungSequential,
    /// The program's run history decided.
    History(Choice),
}

impl Decision {
    fn name(self) -> &'static str {
        match self {
            Decision::Planned(reason) => reason.name(),
            Decision::RungSequential => "rung_sequential",
            Decision::History(Choice::Speculate) => "speculated",
            Decision::History(Choice::Decline) => "below_break_even",
            Decision::History(Choice::Probe { .. }) => "probe",
        }
    }
}

impl Service {
    /// Builds a service (workers spawn immediately and stay resident).
    ///
    /// Panics if `cfg.persist` names an unusable state dir — daemons that
    /// need the fail-fast one-line error use [`try_new`](Self::try_new).
    pub fn new(cfg: ServeConfig) -> Self {
        Service::try_new(cfg).expect("persistent state dir unusable")
    }

    /// Builds a service, fail-fast-validating `cfg.persist` (missing
    /// parent, non-writable dir, lock held by a live daemon) and warm
    /// restarting the certificate cache from snapshot + journal. With
    /// `persist: None` this cannot fail.
    pub fn try_new(cfg: ServeConfig) -> Result<Self, PersistError> {
        Service::try_new_with_io(cfg, Arc::new(persist::DirectIo))
    }

    /// [`try_new`](Self::try_new) with the persistence I/O seam exposed:
    /// chaos tests pass a [`wlp_fault::FsFaultPlan`] here to inject torn
    /// writes, short writes, bit flips, and fsync errors under the store.
    pub fn try_new_with_io(
        cfg: ServeConfig,
        io: Arc<dyn persist::StateIo>,
    ) -> Result<Self, PersistError> {
        let (persist, recovered) = match cfg.persist.clone() {
            Some(pcfg) => {
                let (store, records) = PersistentStore::open(pcfg, io)?;
                (Some(Arc::new(store)), records)
            }
            None => (None, Vec::new()),
        };
        let scheduler = RegionScheduler::new(SchedulerConfig {
            total_workers: cfg.workers,
            lane_width: cfg.lane_width,
        });
        let cache = CertCache::new(cfg.cache_capacity);
        let mut builtins = Machine::default();
        register_builtins(&mut builtins);
        let builtins = builtins.funcs;
        let svc = Service {
            cfg,
            scheduler,
            cache,
            tenants: Mutex::new(HashMap::new()),
            samples: Mutex::new(VecDeque::new()),
            samples_dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            ingest_bytes: AtomicU64::new(0),
            ingest_parse_ns: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            persist,
            builtins,
            sequential_plans: Default::default(),
            speculation: SpeculationCounts::default(),
        };
        if let Some(store) = svc.persist.clone() {
            // Load every recovered record through the cache's re-analyze
            // + byte-compare gate; refusals are skips, never panics, and
            // never served.
            let mut load_skips = 0u64;
            for rec in &recovered {
                match svc.cache.load_recovered(&rec.source, &rec.cert_line) {
                    Ok(()) => store.note_loaded(),
                    Err(_) => {
                        store.note_skipped();
                        load_skips += 1;
                    }
                }
            }
            let scan_skips = store.skipped_corrupt() - load_skips;
            if scan_skips + load_skips > 0 {
                svc.record(Event::RecoverySkip {
                    records: scan_skips + load_skips,
                });
            }
        }
        Ok(svc)
    }

    /// A service with default tunables.
    pub fn with_defaults() -> Self {
        Service::new(ServeConfig::default())
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Handles one NDJSON request line, returning the response line
    /// (without trailing newline). Never panics on malformed input —
    /// every failure is a well-formed error response.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_with(line, None)
    }

    /// [`handle_line`](Self::handle_line) with a per-connection cancel
    /// flag. The TCP transport raises the flag when the client resets the
    /// connection while the request runs; a `run` observing it stops waiting for a
    /// lane, aborts its region, and answers `timeout` — the lane and
    /// speculation credits go back to their pools instead of finishing
    /// work nobody will read.
    pub fn handle_line_with(&self, line: &str, cancel: Option<&Arc<CancelFlag>>) -> String {
        // `latency_us` and the deadline both count from here: parsing a
        // large line is part of what the request cost.
        let started = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let parsed = proto::parse_request(line);
        let parse_ns = started.elapsed().as_nanos() as u64;
        self.ingest_bytes
            .fetch_add(line.len() as u64, Ordering::Relaxed);
        self.ingest_parse_ns.fetch_add(parse_ns, Ordering::Relaxed);
        let req = match parsed {
            Ok(req) => req,
            Err(err) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return proto::error_line(&err, None);
            }
        };
        match req {
            Request::Ping { id } => json::to_string(&ok_response(
                id.as_deref(),
                "ping",
                vec![
                    ("pong".into(), Value::Bool(true)),
                    ("version".into(), Value::UInt(PROTOCOL_VERSION)),
                    (
                        "uptime_ms".into(),
                        Value::UInt(self.epoch.elapsed().as_millis() as u64),
                    ),
                    ("draining".into(), Value::Bool(self.is_draining())),
                ],
            )),
            Request::Stats { id } => json::to_string(&ok_response(
                id.as_deref(),
                "stats",
                vec![("stats".into(), self.stats_value())],
            )),
            Request::Certify { id, tenant, source } => self.certify(id, &tenant, &source),
            Request::Run(run) => self.run(run, started, parse_ns / 1000, cancel),
            Request::Shutdown { id } => {
                self.begin_drain();
                json::to_string(&ok_response(
                    id.as_deref(),
                    "shutdown",
                    vec![
                        ("draining".into(), Value::Bool(true)),
                        (
                            "in_flight".into(),
                            Value::UInt(self.active.load(Ordering::Acquire) as u64),
                        ),
                    ],
                ))
            }
        }
    }

    /// Flips the service into drain mode: new `run` requests are
    /// rejected retriable `draining`, everything already admitted keeps
    /// running. Idempotent; the first call records a [`Event::Drain`].
    pub fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            self.record(Event::Drain {
                in_flight: self.active.load(Ordering::Acquire) as u64,
            });
        }
    }

    /// Whether [`begin_drain`](Self::begin_drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// `run` requests currently between admission and response — what a
    /// graceful drain waits on.
    pub fn active_runs(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Requests that missed their deadline or lost their client.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Blocks until every admitted `run` has answered or `patience`
    /// elapses; `true` means the drain completed clean. Call after
    /// [`begin_drain`](Self::begin_drain).
    pub fn await_drain(&self, patience: Duration) -> bool {
        let give_up = Instant::now() + patience;
        while self.active.load(Ordering::Acquire) > 0 {
            if Instant::now() >= give_up {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// The `certify` op: cache lookup + certificate, no execution, no
    /// admission control (analysis shares the cache, so a hot program
    /// costs a hash lookup).
    fn certify(&self, id: Option<String>, tenant: &str, source: &str) -> String {
        self.tenant(tenant).requests.fetch_add(1, Ordering::Relaxed);
        let (entry, outcome) = match self.lookup(source) {
            Ok(pair) => pair,
            Err(err) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return proto::error_line(
                    &ProtoError {
                        code: codes::PARSE_ERROR,
                        detail: err,
                        id,
                    },
                    None,
                );
            }
        };
        let cert = &entry.analysis.certificate;
        let fields = vec![
            ("cache".into(), cache_value(outcome)),
            ("program_key".into(), Value::UInt(entry.key)),
            ("verdict".into(), Value::Str(cert.verdict.name().into())),
            ("certificate".into(), serde::Serialize::serialize(cert)),
            ("cert_line".into(), Value::Str(cert.encode_compact())),
            (
                "diagnostics".into(),
                Value::UInt(entry.analysis.diagnostics.len() as u64),
            ),
        ];
        json::to_string(&ok_response(id.as_deref(), "certify", fields))
    }

    /// The `run` op: cache lookup, deadline clamp, admission (drain
    /// state, circuit breaker, in-flight bound, queue depth), lane
    /// checkout bounded by the deadline, execution under the tenant's
    /// governor rung with cancellation threaded into the pool, response
    /// assembly.
    fn run(
        &self,
        mut req: RunRequest,
        started: Instant,
        parse_us: u64,
        cancel: Option<&Arc<CancelFlag>>,
    ) -> String {
        let tenant = self.tenant(&req.tenant);
        tenant.requests.fetch_add(1, Ordering::Relaxed);

        let (entry, outcome) = match self.lookup(&req.source) {
            Ok(pair) => pair,
            Err(err) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return proto::error_line(
                    &ProtoError {
                        code: codes::PARSE_ERROR,
                        detail: err,
                        id: req.id,
                    },
                    None,
                );
            }
        };
        let cert = &entry.analysis.certificate;
        let plan = &entry.plan;
        let max_iters = req.max_iters.unwrap_or(self.cfg.default_max_iters);
        // The deadline is measured from the line's arrival (`started`)
        // and clamped so a client cannot buy more wall-clock than the
        // operator allows.
        let expiry = req
            .deadline_ms
            .map(|ms| started + Duration::from_millis(ms.min(self.cfg.max_deadline_ms.max(1))));

        // ---- admission ----
        if self.is_draining() {
            return self.reject(
                &tenant,
                codes::DRAINING,
                "service is draining; retry against another instance".into(),
                req.id,
                Some(self.cfg.retry_after_ms),
            );
        }
        let admission = tenant.breaker.lock().admit();
        if let Admission::Reject { retry_after_ms } = admission {
            return self.reject(
                &tenant,
                codes::TENANT_CIRCUIT_OPEN,
                format!(
                    "circuit open for `{}` after consecutive hard failures",
                    req.tenant
                ),
                req.id,
                Some(retry_after_ms),
            );
        }
        if let Err(err) = self.admit(&tenant, &req) {
            return proto::error_line(&err, Some(self.cfg.retry_after_ms));
        }
        // From here on the tenant holds an in-flight slot and the drain
        // logic counts this request; `held` releases both, and the
        // credits reserved next, on every exit path — unwinding included.
        let mut held = Admitted::enter(self, &tenant);

        // ---- the one speculation decision ----
        // Whether the loop can run in parallel at all was decided when the
        // plan was lowered; whether it may now, by the tenant's governor
        // rung; whether it pays, by what this program's runs of this size
        // have cost on this machine. The governor only ever sees attempts,
        // so neither planner conservatism nor a history decline is booked
        // against a tenant as a failed speculation.
        let class = RunHistory::class_of(
            req.arrays
                .iter()
                .filter(|(name, _)| plan.arrays().contains(name))
                .map(|(_, data)| data.len())
                .sum(),
        );
        let rung = tenant.governor.lock().current();
        let decision = match (plan.schedule(), entry.history.as_deref()) {
            (Schedule::Sequential(reason), _) => Decision::Planned(reason),
            _ if rung == StrategyChoice::Sequential => Decision::RungSequential,
            (_, Some(history)) => Decision::History(history.decide(class)),
            (_, None) => unreachable!("the cache gives every speculative plan a run history"),
        };
        let attempt_parallel = matches!(decision, Decision::History(choice) if choice.speculates());

        // A run that will speculate reserves its certified write budget
        // from the tenant's credit pool — the backpressure valve for
        // tenants whose speculation keeps the undo machinery hot. A run
        // that executes sequentially, for whatever reason, reserves nothing.
        let cost = if attempt_parallel && cert.verdict == CertVerdict::SpeculateBounded {
            cert.write_budget(max_iters as u64).max(1)
        } else {
            0
        };
        if cost > 0 && !held.reserve_credits(cost) {
            drop(held);
            tenant.rejected.fetch_add(1, Ordering::Relaxed);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.record(Event::RegionReject { retriable: true });
            self.errors.fetch_add(1, Ordering::Relaxed);
            return proto::error_line(
                &ProtoError {
                    code: codes::BUDGET_EXHAUSTED,
                    detail: format!(
                        "needs {cost} speculation write-budget credits; tenant pool is hot"
                    ),
                    id: req.id,
                },
                Some(self.cfg.retry_after_ms),
            );
        }

        // ---- frame assembly ----
        // The request is owned: its arrays move (no copy) into a machine
        // and from there into the plan's frame by slot. Names the program
        // never mentions stay behind in the machine — they are still part
        // of the reported state.
        let mut machine = Machine {
            arrays: std::mem::take(&mut req.arrays).into_iter().collect(),
            scalars: std::mem::take(&mut req.scalars).into_iter().collect(),
            funcs: self.builtins.clone(),
        };
        if self.cfg.chaos_builtins {
            register_chaos_builtins(&mut machine);
        }
        let mut frame = machine.bind(plan);

        // ---- execution on a checked-out lane ----
        let Some(lane) = self.scheduler.acquire_until(expiry, cancel.map(|c| &**c)) else {
            // Gave up in the lane queue: the deadline expired or the
            // client went away before any work started. The ticket was
            // already handed back to the scheduler; credits and slots
            // follow it here.
            drop(held);
            let abandoned = cancel.is_some_and(|c| c.is_cancelled());
            return self.timed_out(&tenant, req.id, started, abandoned, true);
        };
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.record(Event::RegionAdmit {
            lane: lane.index() as u64,
        });
        // Compose the lane's pool with this request's deadline and the
        // connection's cancel flag. Only the deadline costs anything at
        // launch (a watchdog per region); the flag is linked into each
        // region's own cancel flag and read by the lanes' polling, so a
        // request over TCP launches its regions as one over stdin does.
        // Either ends in a cooperative region abort, which the
        // speculative executor drains through its bounded sequential
        // rerun.
        let mut pool: Pool = (*lane).clone();
        if let Some(e) = expiry {
            pool = pool.with_deadline(Deadline::new(e.saturating_duration_since(Instant::now())));
        }
        if let Some(c) = cancel {
            pool = pool.with_abort(c.clone());
        }
        match decision {
            Decision::Planned(reason) => {
                self.sequential_plans[reason.index()].fetch_add(1, Ordering::Relaxed);
            }
            Decision::History(Choice::Decline) => {
                self.speculation.declined.fetch_add(1, Ordering::Relaxed);
            }
            Decision::History(Choice::Probe { .. }) => {
                self.speculation.probes.fetch_add(1, Ordering::Relaxed);
            }
            Decision::RungSequential | Decision::History(Choice::Speculate) => {}
        }
        if attempt_parallel {
            self.speculation.attempted.fetch_add(1, Ordering::Relaxed);
        }
        let executing = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if attempt_parallel {
                plan.run_speculative(&mut frame, &pool, max_iters)
            } else {
                plan.run_sequential(&mut frame, max_iters)
            }
        }));
        let executed_ns = executing.elapsed().as_nanos() as u64;
        drop(lane);
        drop(held);

        let result = match caught {
            Ok(result) => result,
            Err(payload) => {
                // A panic escaped the executor (the pool contains worker
                // panics, so in practice this is the sequential path —
                // e.g. a chaos builtin). Lane, credits, and slots are
                // already back; report the hard failure and let the
                // breaker see it.
                if attempt_parallel {
                    tenant
                        .governor
                        .lock()
                        .record_failure(AbortReason::Exception);
                }
                self.breaker_failure(&tenant);
                self.errors.fetch_add(1, Ordering::Relaxed);
                return proto::error_line(
                    &ProtoError {
                        code: codes::EXEC_ERROR,
                        detail: format!("worker panic: {}", payload_message(&payload)),
                        id: req.id,
                    },
                    None,
                );
            }
        };
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                if attempt_parallel {
                    tenant
                        .governor
                        .lock()
                        .record_failure(AbortReason::Exception);
                }
                self.errors.fetch_add(1, Ordering::Relaxed);
                return proto::error_line(
                    &ProtoError {
                        code: codes::EXEC_ERROR,
                        detail: e.msg,
                        id: req.id,
                    },
                    None,
                );
            }
        };
        // A result produced after the deadline (or after the client hung
        // up) is still a timeout: nobody is waiting for the answer, and
        // the contract says expiry ⇒ retriable error.
        let expired = expiry.is_some_and(|e| Instant::now() >= e);
        let abandoned = cancel.is_some_and(|c| c.is_cancelled());
        if expired || abandoned {
            if attempt_parallel {
                tenant.governor.lock().record_failure(AbortReason::Timeout);
            }
            return self.timed_out(&tenant, req.id, started, abandoned, false);
        }
        // Only a run that finished on its own is a sample of what its path
        // costs: an error, an expiry or an abandoned client cut it short.
        if let (Decision::History(choice), Some(history)) = (decision, entry.history.as_deref()) {
            history.record(class, choice, executed_ns, out.iterations);
        }
        if attempt_parallel {
            let mut gov = tenant.governor.lock();
            if out.ran_parallel {
                self.speculation.committed.fetch_add(1, Ordering::Relaxed);
                gov.record_success();
            } else {
                // the speculation was attempted and thrown away: count
                // it against the tenant's ladder
                gov.record_failure(AbortReason::Dependence);
            }
        }
        if tenant.breaker.lock().record_success() {
            self.record(Event::CircuitTrip { open: false });
        }

        // ---- response ----
        let mut fields = vec![
            ("tenant".into(), Value::Str(req.tenant.clone())),
            ("cache".into(), cache_value(outcome)),
            ("program_key".into(), Value::UInt(entry.key)),
            ("verdict".into(), Value::Str(cert.verdict.name().into())),
            ("rung".into(), Value::Str(rung_name(rung).into())),
            ("iterations".into(), Value::UInt(out.iterations as u64)),
            (
                "exited_at".into(),
                match out.exited_at {
                    Some(i) => Value::UInt(i as u64),
                    None => Value::Null,
                },
            ),
            ("ran_parallel".into(), Value::Bool(out.ran_parallel)),
            ("decision".into(), Value::Str(decision.name().into())),
        ];
        machine.absorb(plan, frame);
        let mut arrays: Vec<(&String, &Vec<i64>)> = machine.arrays.iter().collect();
        arrays.sort_unstable_by_key(|(name, _)| *name);
        let digests = arrays
            .iter()
            .map(|(name, data)| ((*name).clone(), Value::UInt(fnv1a64_i64s(data))))
            .collect();
        fields.push(("digests".into(), Value::Object(digests)));
        if req.reply != ReplyMode::Digest {
            let mut scalars: Vec<(&String, &i64)> = machine.scalars.iter().collect();
            scalars.sort_unstable_by_key(|(name, _)| *name);
            let scalars = scalars
                .into_iter()
                .map(|(name, v)| (name.clone(), Value::Int(*v)))
                .collect();
            fields.push(("scalars".into(), Value::Object(scalars)));
        }
        if req.reply == ReplyMode::Full {
            let arrays = arrays
                .iter()
                .map(|(name, data)| {
                    let items = data.iter().map(|&x| Value::Int(x)).collect();
                    ((*name).clone(), Value::Array(items))
                })
                .collect();
            fields.push(("arrays".into(), Value::Object(arrays)));
        }
        fields.push(("parse_us".into(), Value::UInt(parse_us)));
        fields.push((
            "latency_us".into(),
            Value::UInt(started.elapsed().as_micros() as u64),
        ));
        json::to_string(&ok_response(req.id.as_deref(), "run", fields))
    }

    /// Shared pre-admission rejection path: counters, obs event, error
    /// line.
    fn reject(
        &self,
        tenant: &TenantState,
        code: &'static str,
        detail: String,
        id: Option<String>,
        retry_after_ms: Option<u64>,
    ) -> String {
        tenant.rejected.fetch_add(1, Ordering::Relaxed);
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.record(Event::RegionReject { retriable: true });
        self.errors.fetch_add(1, Ordering::Relaxed);
        proto::error_line(&ProtoError { code, detail, id }, retry_after_ms)
    }

    /// Shared deadline/abandon exit: counters, obs event, breaker
    /// bookkeeping, retriable `timeout` line. `queued` distinguishes
    /// giving up in the lane queue from expiring mid-execution.
    fn timed_out(
        &self,
        tenant: &TenantState,
        id: Option<String>,
        started: Instant,
        abandoned: bool,
        queued: bool,
    ) -> String {
        tenant.timeouts.fetch_add(1, Ordering::Relaxed);
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        self.record(Event::RequestTimeout { queued });
        self.breaker_failure(tenant);
        self.errors.fetch_add(1, Ordering::Relaxed);
        let what = if abandoned {
            "client abandoned the request"
        } else {
            "deadline expired"
        };
        let stage = if queued {
            "waiting for a lane"
        } else {
            "during execution"
        };
        proto::error_line(
            &ProtoError {
                code: codes::TIMEOUT,
                detail: format!("{what} {stage} after {}ms", started.elapsed().as_millis()),
                id,
            },
            Some(self.cfg.retry_after_ms),
        )
    }

    /// Counts a hard failure against the tenant's breaker, recording the
    /// trip event when this one opened the circuit.
    fn breaker_failure(&self, tenant: &TenantState) {
        if tenant.breaker.lock().record_failure() {
            self.record(Event::CircuitTrip { open: true });
        }
    }

    /// Cache lookup + obs accounting; errors are pre-rendered. A miss
    /// minted a fresh certificate, so it is also the journal-append
    /// point: by the time the response leaves, the certificate is on
    /// disk (subject to the fsync batch policy) and survives a crash.
    fn lookup(&self, source: &str) -> Result<(Arc<CacheEntry>, CacheOutcome), String> {
        match self.cache.lookup(source) {
            Ok((entry, outcome)) => {
                self.record(match outcome {
                    CacheOutcome::Hit => Event::CertCacheHit { key: entry.key },
                    CacheOutcome::Miss => Event::CertCacheMiss { key: entry.key },
                });
                if outcome == CacheOutcome::Miss {
                    self.persist_entry(&entry);
                }
                Ok((entry, outcome))
            }
            Err(e) => Err(e.render(source)),
        }
    }

    /// Journals one freshly minted certificate and compacts the journal
    /// when it has outgrown its threshold. Persistence failures are
    /// counted and events recorded; they never fail the request — the
    /// entry is resident either way, it just may not survive a restart.
    fn persist_entry(&self, entry: &CacheEntry) {
        let Some(store) = &self.persist else { return };
        let cert_line = entry.analysis.certificate.encode_compact();
        let out = store.append(&entry.source, &cert_line);
        if out.persisted {
            self.record(Event::JournalAppend { bytes: out.bytes });
        }
        if out.needs_compact {
            // The collection closure runs under the journal lock (see
            // `PersistentStore::compact`), so every record that could be
            // truncated out of the journal is already resident and lands
            // in the snapshot.
            let snapshot = store.compact(|| {
                self.cache
                    .resident_entries()
                    .iter()
                    .map(|e| (e.source.clone(), e.analysis.certificate.encode_compact()))
                    .collect()
            });
            if let Ok(records) = snapshot {
                self.record(Event::SnapshotWrite { records });
            }
        }
    }

    /// Flushes any fsync-batched journal tail (graceful-shutdown path;
    /// no-op without persistence).
    pub fn flush_persist(&self) {
        if let Some(store) = &self.persist {
            store.sync();
        }
    }

    /// The persistent store, when `persist` was configured.
    pub fn persist_store(&self) -> Option<&Arc<PersistentStore>> {
        self.persist.as_ref()
    }

    /// Admission control: per-tenant in-flight bound, then shared queue
    /// depth. On rejection the counters and obs events are recorded.
    fn admit(&self, tenant: &Arc<TenantState>, req: &RunRequest) -> Result<(), ProtoError> {
        let mut cur = tenant.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= self.cfg.max_inflight_per_tenant {
                tenant.rejected.fetch_add(1, Ordering::Relaxed);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.record(Event::RegionReject { retriable: true });
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Err(ProtoError {
                    code: codes::TENANT_BUSY,
                    detail: format!("{cur} regions already in flight for `{}`", req.tenant),
                    id: req.id.clone(),
                });
            }
            match tenant.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if self.scheduler.waiting() >= self.cfg.max_queue_depth {
            tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
            tenant.rejected.fetch_add(1, Ordering::Relaxed);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.record(Event::RegionReject { retriable: true });
            self.errors.fetch_add(1, Ordering::Relaxed);
            return Err(ProtoError {
                code: codes::OVERLOADED,
                detail: format!(
                    "{} regions queued for {} lanes",
                    self.scheduler.waiting(),
                    self.scheduler.lanes()
                ),
                id: req.id.clone(),
            });
        }
        Ok(())
    }

    fn tenant(&self, name: &str) -> Arc<TenantState> {
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants.get(name) {
            return t.clone();
        }
        if tenants.len() >= self.cfg.max_tenants.max(1) {
            // Tenant names are client-chosen, so the table must stay
            // bounded. Evict an arbitrary idle tenant (its counters,
            // credits, and governor rung reset if it ever returns);
            // tenants with regions in flight are never evicted, so at
            // worst the table holds max_tenants idle + every busy one.
            let idle = tenants
                .iter()
                .find(|(_, t)| t.in_flight.load(Ordering::Acquire) == 0)
                .map(|(name, _)| name.clone());
            if let Some(evict) = idle {
                tenants.remove(&evict);
            }
        }
        tenants
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(TenantState::new(&self.cfg)))
            .clone()
    }

    fn record(&self, event: Event) {
        let mut samples = self.samples.lock();
        while samples.len() >= self.cfg.max_samples.max(1) {
            samples.pop_front();
            self.samples_dropped.fetch_add(1, Ordering::Relaxed);
        }
        samples.push_back(Sample {
            t: self.epoch.elapsed().as_nanos() as u64,
            proc: 0,
            event,
        });
    }

    /// Cache hits so far (also in the `stats` op and [`profile`](Self::profile)).
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Hits over total cache lookups.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// A snapshot of the service's event stream as a `wlp-obs`
    /// [`Trace`] (single logical proc; region/cache events only).
    pub fn trace(&self) -> Trace {
        Trace {
            p: 1,
            makespan: self.epoch.elapsed().as_nanos() as u64,
            samples: self.samples.lock().iter().cloned().collect(),
        }
    }

    /// The [`ProfileReport`] over [`trace`](Self::trace): the same
    /// aggregation path every other executor in the repo reports
    /// through, so `cache_hits`/`cache_misses`/`regions_admitted`/
    /// `regions_rejected` land in the standard report.
    pub fn profile(&self) -> ProfileReport {
        ProfileReport::from_trace(&self.trace())
    }

    /// The `stats` payload (also available without a request round-trip).
    pub fn stats_value(&self) -> Value {
        let tenants = self.tenants.lock();
        let mut names: Vec<&String> = tenants.keys().collect();
        names.sort();
        let per_tenant: Vec<(String, Value)> = names
            .iter()
            .map(|name| {
                let t = &tenants[*name];
                let breaker = t.breaker.lock();
                (
                    (*name).clone(),
                    Value::Object(vec![
                        (
                            "requests".into(),
                            Value::UInt(t.requests.load(Ordering::Relaxed)),
                        ),
                        (
                            "rejected".into(),
                            Value::UInt(t.rejected.load(Ordering::Relaxed)),
                        ),
                        (
                            "in_flight".into(),
                            Value::UInt(t.in_flight.load(Ordering::Relaxed) as u64),
                        ),
                        (
                            "credits".into(),
                            Value::UInt(t.credits.load(Ordering::Relaxed)),
                        ),
                        (
                            "rung".into(),
                            Value::Str(rung_name(t.governor.lock().current()).into()),
                        ),
                        (
                            "timeouts".into(),
                            Value::UInt(t.timeouts.load(Ordering::Relaxed)),
                        ),
                        ("circuit".into(), Value::Str(breaker.state().name().into())),
                        ("circuit_trips".into(), Value::UInt(breaker.trips())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            (
                "requests".into(),
                Value::UInt(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "errors".into(),
                Value::UInt(self.errors.load(Ordering::Relaxed)),
            ),
            ("cache_hits".into(), Value::UInt(self.cache.hits())),
            ("cache_misses".into(), Value::UInt(self.cache.misses())),
            (
                "cache_hit_ratio".into(),
                Value::Float(self.cache.hit_ratio()),
            ),
            (
                "plans_compiled".into(),
                Value::UInt(self.cache.plans_compiled()),
            ),
            (
                "sequential_plans".into(),
                Value::Object(
                    SeqReason::ALL
                        .iter()
                        .map(|&reason| {
                            let runs =
                                self.sequential_plans[reason.index()].load(Ordering::Relaxed);
                            (reason.name().to_string(), Value::UInt(runs))
                        })
                        .collect(),
                ),
            ),
            (
                "speculation".into(),
                Value::Object(
                    [
                        ("attempted", &self.speculation.attempted),
                        ("committed", &self.speculation.committed),
                        ("declined", &self.speculation.declined),
                        ("probes", &self.speculation.probes),
                    ]
                    .into_iter()
                    .map(|(name, count)| (name.into(), Value::UInt(count.load(Ordering::Relaxed))))
                    .collect(),
                ),
            ),
            ("cache_len".into(), Value::UInt(self.cache.len() as u64)),
            (
                "cache_capacity".into(),
                Value::UInt(self.cache.capacity() as u64),
            ),
            (
                "regions_admitted".into(),
                Value::UInt(self.admitted.load(Ordering::Relaxed)),
            ),
            (
                "regions_rejected".into(),
                Value::UInt(self.rejected.load(Ordering::Relaxed)),
            ),
            (
                "regions_run".into(),
                Value::UInt(self.scheduler.regions_run()),
            ),
            ("lanes".into(), Value::UInt(self.scheduler.lanes() as u64)),
            (
                "lanes_free".into(),
                Value::UInt(self.scheduler.free_lanes() as u64),
            ),
            (
                "queue_waiting".into(),
                Value::UInt(self.scheduler.waiting() as u64),
            ),
            (
                "timeouts".into(),
                Value::UInt(self.timeouts.load(Ordering::Relaxed)),
            ),
            (
                "active_runs".into(),
                Value::UInt(self.active.load(Ordering::Acquire) as u64),
            ),
            ("draining".into(), Value::Bool(self.is_draining())),
            (
                "samples_dropped".into(),
                Value::UInt(self.samples_dropped.load(Ordering::Relaxed)),
            ),
            (
                "ingest".into(),
                Value::Object(vec![
                    (
                        "lines".into(),
                        Value::UInt(self.requests.load(Ordering::Relaxed)),
                    ),
                    (
                        "bytes".into(),
                        Value::UInt(self.ingest_bytes.load(Ordering::Relaxed)),
                    ),
                    (
                        "parse_us".into(),
                        Value::UInt(self.ingest_parse_ns.load(Ordering::Relaxed) / 1000),
                    ),
                ]),
            ),
            ("persist".into(), {
                let mut fields = vec![("enabled".into(), Value::Bool(self.persist.is_some()))];
                if let Some(store) = &self.persist {
                    fields.extend([
                        ("loaded".into(), Value::UInt(store.loaded())),
                        ("appended".into(), Value::UInt(store.appended())),
                        ("snapshots".into(), Value::UInt(store.snapshots())),
                        (
                            "skipped_corrupt".into(),
                            Value::UInt(store.skipped_corrupt()),
                        ),
                        ("io_errors".into(), Value::UInt(store.io_errors())),
                        ("journal_bytes".into(), Value::UInt(store.journal_bytes())),
                    ]);
                }
                Value::Object(fields)
            }),
            ("tenants".into(), Value::Object(per_tenant)),
        ])
    }
}

/// What an admitted `run` holds between admission and response: the
/// tenant's in-flight slot (taken by `admit`), a place in the service's
/// drain-relevant active set, and whatever speculation credits it
/// reserved. Dropping it returns the credits, then leaves the active
/// set, then frees the slot.
struct Admitted<'a> {
    svc: &'a Service,
    tenant: &'a TenantState,
    credits: u64,
}

impl<'a> Admitted<'a> {
    fn enter(svc: &'a Service, tenant: &'a TenantState) -> Self {
        svc.active.fetch_add(1, Ordering::AcqRel);
        Admitted {
            svc,
            tenant,
            credits: 0,
        }
    }

    /// Reserves `amount` of the tenant's credits for this run; false (and
    /// nothing held) if the pool is too low.
    fn reserve_credits(&mut self, amount: u64) -> bool {
        let reserved = self.tenant.reserve_credits(amount);
        if reserved {
            self.credits += amount;
        }
        reserved
    }
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        if self.credits > 0 {
            self.tenant.return_credits(self.credits);
        }
        self.svc.active.fetch_sub(1, Ordering::AcqRel);
        self.tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn ok_response(id: Option<&str>, op: &str, rest: Vec<(String, Value)>) -> Value {
    let mut fields = vec![
        ("v".to_string(), Value::UInt(PROTOCOL_VERSION)),
        ("ok".to_string(), Value::Bool(true)),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::Str(id.to_string())));
    }
    fields.push(("op".to_string(), Value::Str(op.to_string())));
    fields.extend(rest);
    Value::Object(fields)
}

fn cache_value(outcome: CacheOutcome) -> Value {
    Value::Str(
        match outcome {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
        .into(),
    )
}

fn rung_name(s: StrategyChoice) -> &'static str {
    match s {
        StrategyChoice::Speculative => "speculative",
        StrategyChoice::Windowed => "windowed",
        StrategyChoice::Distribution => "distribution",
        StrategyChoice::Sequential => "sequential",
    }
}

/// Prepares a socket a listener has just accepted; every TCP transport
/// over a [`Service`] takes its connections through here. Connection I/O
/// blocks (some platforms hand the listener's non-blocking mode down to
/// the sockets it accepts), and `TCP_NODELAY` is set: a response is
/// written as one flushed buffer, so there is no run of small writes for
/// Nagle's algorithm to gather — all it did was hold a response back
/// until the client's *next* request acknowledged the previous one, which
/// made a pipelined connection's latency its arrival gap.
pub fn prepare_accepted(stream: &std::net::TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)
}

/// The deterministic host functions every served [`Machine`] provides
/// (WHILE programs may call uninterpreted functions like `g(x)`; a
/// service has no way to ship closures over JSON, so these are fixed and
/// documented in `docs/PROTOCOL.md`). All arithmetic wraps.
pub fn register_builtins(machine: &mut Machine) {
    machine.define_fn("f", |args: &[i64]| {
        args.first()
            .copied()
            .unwrap_or(0)
            .wrapping_mul(3)
            .wrapping_add(1)
    });
    machine.define_fn("g", |args: &[i64]| {
        args.first().copied().unwrap_or(0).wrapping_add(7)
    });
    machine.define_fn("h", |args: &[i64]| args.first().copied().unwrap_or(0) >> 1);
    machine.define_fn("abs", |args: &[i64]| {
        args.first().copied().unwrap_or(0).wrapping_abs()
    });
    machine.define_fn("min", |args: &[i64]| {
        args.iter().copied().min().unwrap_or(0)
    });
    machine.define_fn("max", |args: &[i64]| {
        args.iter().copied().max().unwrap_or(0)
    });
}

/// One-shot fault injectors for the chaos harness, registered only when
/// [`ServeConfig::chaos_builtins`] is on. Each fires exactly once per
/// request even across a speculative attempt plus its sequential
/// re-execution (both share the captured flag), so an aborted region's
/// rerun completes and what the harness measures is the service's
/// recovery, not a fault loop.
pub fn register_chaos_builtins(machine: &mut Machine) {
    let stalled = Arc::new(AtomicBool::new(false));
    machine.define_fn("chaos_stall", move |args: &[i64]| {
        if !stalled.swap(true, Ordering::AcqRel) {
            let ms = args.first().copied().unwrap_or(0).clamp(0, 5_000) as u64;
            std::thread::sleep(Duration::from_millis(ms));
        }
        0
    });
    let panicked = Arc::new(AtomicBool::new(false));
    machine.define_fn("chaos_panic", move |args: &[i64]| {
        if !panicked.swap(true, Ordering::AcqRel) {
            panic!("chaos_panic builtin fired");
        }
        args.first().copied().unwrap_or(0)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOUBLE: &str = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";

    fn run_line(tenant: &str, n: i64, a: &[i64]) -> String {
        let items: Vec<String> = a.iter().map(i64::to_string).collect();
        format!(
            r#"{{"op":"run","tenant":"{tenant}","program":{},"arrays":{{"A":[{}]}},"scalars":{{"n":{n}}},"reply":"full"}}"#,
            json::to_string(DOUBLE),
            items.join(",")
        )
    }

    #[test]
    fn ping_and_stats_round_trip() {
        let svc = Service::with_defaults();
        let pong = svc.handle_line(r#"{"op":"ping","id":"p1"}"#);
        assert!(
            pong.contains("\"ok\":true") && pong.contains("\"pong\":true"),
            "{pong}"
        );
        assert!(pong.contains("\"id\":\"p1\""));
        // a rejected line is ingested too
        svc.handle_line("{\"op\":");
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"cache_hits\":0"), "{stats}");
        let bytes = r#"{"op":"ping","id":"p1"}{"op":{"op":"stats"}"#.len();
        assert!(
            stats.contains(&format!(
                "\"ingest\":{{\"lines\":3,\"bytes\":{bytes},\"parse_us\":"
            )),
            "{stats}"
        );
    }

    #[test]
    fn run_executes_and_second_submission_hits_the_cache() {
        let svc = Service::with_defaults();
        let r1 = svc.handle_line(&run_line("t0", 3, &[1, 2, 3]));
        assert!(r1.contains("\"cache\":\"miss\""), "{r1}");
        assert!(r1.contains("\"arrays\":{\"A\":[2,4,6]}"), "{r1}");
        let r2 = svc.handle_line(&run_line("t0", 3, &[5, 5, 5]));
        assert!(r2.contains("\"cache\":\"hit\""), "{r2}");
        assert!(r2.contains("\"arrays\":{\"A\":[10,10,10]}"), "{r2}");
        assert_eq!((svc.cache_hits(), svc.cache_misses()), (1, 1));
        let report = svc.profile();
        assert_eq!((report.cache_hits, report.cache_misses), (1, 1));
        assert_eq!(report.regions_admitted, 2);
    }

    #[test]
    fn a_cache_hit_lowers_nothing() {
        let svc = Service::with_defaults();
        for a in [[1, 2, 3], [4, 5, 6], [7, 8, 9]] {
            let r = svc.handle_line(&run_line("t0", 3, &a));
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        svc.handle_line(&format!(
            r#"{{"op":"certify","program":{}}}"#,
            json::to_string(DOUBLE)
        ));
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"cache_hits\":3"), "{stats}");
        assert!(stats.contains("\"cache_misses\":1"), "{stats}");
        assert!(stats.contains("\"plans_compiled\":1"), "{stats}");
    }

    #[test]
    fn planner_conservatism_is_reported_and_never_demotes_the_tenant() {
        // certified DOALL, but `s` is extra scalar state: the plan is
        // sequential by construction, which is no fault of the tenant's
        let fill = "integer i = 0\ninteger s = 0\nwhile (i < n) {\n    s = s + 3\n    A[i] = 2 * A[i]\n    i = i + 1\n}";
        let line = format!(
            r#"{{"op":"run","tenant":"innocent","program":{},"arrays":{{"A":[1,2,3]}},"scalars":{{"n":3}}}}"#,
            json::to_string(fill)
        );
        let svc = Service::with_defaults();
        for _ in 0..12 {
            let r = svc.handle_line(&line);
            assert!(r.contains("\"verdict\":\"certified_doall\""), "{r}");
            assert!(r.contains("\"ran_parallel\":false"), "{r}");
            assert!(r.contains("\"rung\":\"speculative\""), "{r}");
            assert!(r.contains("\"scalars\":{\"i\":3,\"n\":3,\"s\":9}"), "{r}");
        }
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"extra_scalar_state\":12"), "{stats}");
        assert!(stats.contains("\"certified_sequential\":0"), "{stats}");
        assert!(stats.contains("\"rung\":\"speculative\""), "{stats}");
        // the same tenant's parallelizable program still runs parallel
        let r = svc.handle_line(&run_line("innocent", 3, &[1, 2, 3]));
        assert!(r.contains("\"ran_parallel\":true"), "{r}");
        assert!(r.contains("\"decision\":\"speculated\""), "{r}");

        // a program whose every speculation would be thrown away (all
        // subscripts collide), measured slower speculating than not: the
        // history declines it, and a declined run is not an attempt
        let line = format!(
            r#"{{"op":"run","tenant":"innocent","program":{},"arrays":{{"A":[0,0,0,0],"idx":[1,1,1,1]}},"scalars":{{"n":4}}}}"#,
            json::to_string(COLLIDING)
        );
        seed_history(&svc, COLLIDING, 8, Some(1_000_000_000), None);
        for k in 0..12 {
            let r = svc.handle_line(&line);
            let want = if k == 0 { "probe" } else { "below_break_even" };
            assert!(r.contains(&format!("\"decision\":\"{want}\"")), "{k}: {r}");
            assert!(r.contains("\"ran_parallel\":false"), "{r}");
            assert!(r.contains("\"rung\":\"speculative\""), "{r}");
            assert!(r.contains("\"scalars\":{\"i\":4,\"n\":4}"), "{r}");
        }
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        assert!(
            stats.contains(
                "\"speculation\":{\"attempted\":1,\"committed\":1,\"declined\":11,\"probes\":1}"
            ),
            "{stats}"
        );
        assert!(stats.contains("\"rung\":\"speculative\""), "{stats}");
    }

    /// `A[idx[i]] = A[idx[i]] + 1`: one uncertain write per iteration,
    /// so a speculative run reserves a credit per iteration of its bound.
    const COLLIDING: &str =
        "integer i = 0\nwhile (i < n) {\n    A[idx[i]] = A[idx[i]] + 1\n    i = i + 1\n}";

    /// Plants samples in the history of `src` at `elements` elements, as
    /// probes of each path would leave them: nanoseconds an iteration.
    fn seed_history(
        svc: &Service,
        src: &str,
        elements: usize,
        speculative: Option<u64>,
        sequential: Option<u64>,
    ) {
        let (entry, _) = svc.cache.lookup(src).expect("parses");
        let history = entry.history.as_deref().expect("a speculative plan");
        let class = RunHistory::class_of(elements);
        for (speculate, ns) in [(true, speculative), (false, sequential)] {
            if let Some(ns) = ns {
                history.record(class, Choice::Probe { speculate }, ns, 1);
            }
        }
    }

    #[test]
    fn a_run_that_will_not_speculate_reserves_no_credits() {
        let svc = Service::new(ServeConfig {
            tenant_spec_credits: 4,
            ..ServeConfig::default()
        });
        // 100 iterations of bound against a pool of 4 credits
        let line = |tenant: &str| {
            format!(
                r#"{{"op":"run","tenant":"{tenant}","program":{},"arrays":{{"A":[0,0],"idx":[0,1]}},"scalars":{{"n":2}},"max_iters":100}}"#,
                json::to_string(COLLIDING)
            )
        };
        // a tenant on the sequential rung
        *svc.tenant("demoted").governor.lock() =
            Governor::starting_at(svc.cfg.governor, StrategyChoice::Sequential);
        for _ in 0..3 {
            let r = svc.handle_line(&line("demoted"));
            assert!(r.contains("\"ok\":true"), "{r}");
            assert!(r.contains("\"decision\":\"rung_sequential\""), "{r}");
            assert!(r.contains("\"scalars\":{\"i\":2,\"n\":2}"), "{r}");
        }
        // a run the program's history declines
        seed_history(&svc, COLLIDING, 4, Some(1_000_000), Some(10));
        let r = svc.handle_line(&line("fresh"));
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"decision\":\"below_break_even\""), "{r}");
        assert_no_leaks(&svc);
    }

    #[test]
    fn malformed_program_is_a_parse_error_with_a_span() {
        let svc = Service::with_defaults();
        let resp = svc.handle_line(r#"{"op":"run","program":"while (","id":"x"}"#);
        assert!(resp.contains("\"code\":\"parse_error\""), "{resp}");
        assert!(resp.contains("\"id\":\"x\""));
        assert!(resp.contains("error at "), "{resp}");
    }

    #[test]
    fn exec_errors_are_reported_not_panicked() {
        let svc = Service::with_defaults();
        // array A is never supplied
        let resp = svc.handle_line(&format!(
            r#"{{"op":"run","program":{},"scalars":{{"n":3}}}}"#,
            json::to_string(DOUBLE)
        ));
        assert!(resp.contains("\"code\":\"exec_error\""), "{resp}");
    }

    #[test]
    fn budget_exhaustion_rejects_with_retry_hint() {
        let svc = Service::new(ServeConfig {
            tenant_spec_credits: 4,
            ..ServeConfig::default()
        });
        // a program's first run speculates, and a 100-iteration bound
        // needs 100 credits against a pool of 4
        let resp = svc.handle_line(&format!(
            r#"{{"op":"run","program":{},"arrays":{{"A":[0,0],"idx":[0,1]}},"scalars":{{"n":2}},"max_iters":100}}"#,
            json::to_string(COLLIDING)
        ));
        assert!(resp.contains("\"code\":\"budget_exhausted\""), "{resp}");
        assert!(resp.contains("\"retry_after_ms\":25"), "{resp}");
        // the slot was released: a cheap certified program still runs
        let ok = svc.handle_line(&run_line("anon", 2, &[1, 1]));
        assert!(ok.contains("\"ok\":true"), "{ok}");
    }

    #[test]
    fn sample_buffer_and_tenant_table_stay_bounded() {
        let svc = Service::new(ServeConfig {
            max_samples: 4,
            max_tenants: 2,
            ..ServeConfig::default()
        });
        for i in 0..16 {
            // 16 distinct client-chosen tenant names, each a real run
            // (every run records admit + cache events)
            let ok = svc.handle_line(&run_line(&format!("t{i}"), 2, &[1, 1]));
            assert!(ok.contains("\"ok\":true"), "{ok}");
        }
        assert!(
            svc.trace().samples.len() <= 4,
            "sample ring overran its cap"
        );
        assert!(
            svc.tenants.lock().len() <= 2,
            "tenant table overran its cap"
        );
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"samples_dropped\":"), "{stats}");
    }

    /// A unique scratch state dir, removed on drop.
    struct TempStateDir(std::path::PathBuf);

    impl TempStateDir {
        fn new(tag: &str) -> TempStateDir {
            let dir = std::env::temp_dir()
                .join(format!("wlp-serve-persist-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempStateDir(dir)
        }
    }

    impl Drop for TempStateDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn persist_config(dir: &std::path::Path) -> ServeConfig {
        ServeConfig {
            persist: Some(persist::PersistConfig::at(dir)),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn persist_stats_report_disabled_without_a_state_dir() {
        let svc = Service::with_defaults();
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"persist\":{\"enabled\":false}"), "{stats}");
    }

    /// One pass of the whole corpus at `n = 64`: every response must be
    /// `ok` with cache outcome `want`; returns each reply's digests.
    fn corpus_pass(svc: &Service, want: &str) -> Vec<String> {
        use wlp_workloads::sources::{corpus, machine_inputs};
        let object = |fields: Vec<String>| format!("{{{}}}", fields.join(","));
        corpus()
            .iter()
            .map(|(name, src)| {
                let (arrays, scalars) = machine_inputs(name, 64);
                let line = format!(
                    r#"{{"op":"run","tenant":"t0","program":{},"arrays":{},"scalars":{},"reply":"digest"}}"#,
                    json::to_string(src),
                    object(arrays.iter().map(|(k, v)| format!("{k:?}:{v:?}")).collect()),
                    object(scalars.iter().map(|(k, v)| format!("{k:?}:{v}")).collect()),
                );
                let r = svc.handle_line(&line);
                assert!(r.contains("\"ok\":true"), "{name}: {r}");
                assert!(r.contains(&format!("\"cache\":\"{want}\"")), "{name}: {r}");
                let digests = json::parse(&r).expect("response is JSON");
                json::to_string(digests.get("digests").expect("digests present"))
            })
            .collect()
    }

    #[test]
    fn warm_restart_recovers_the_cache_and_first_lookup_hits() {
        let programs = wlp_workloads::sources::corpus().len();
        let t = TempStateDir::new("warm");
        let cold_digests = {
            let cold = Service::new(persist_config(&t.0));
            let first = corpus_pass(&cold, "miss");
            assert_eq!(corpus_pass(&cold, "hit"), first);
            let stats = cold.handle_line(r#"{"op":"stats"}"#);
            assert!(stats.contains("\"enabled\":true"), "{stats}");
            assert!(
                stats.contains(&format!("\"appended\":{programs}")),
                "{stats}"
            );
            assert!(stats.contains("\"loaded\":0"), "{stats}");
            first
        }; // drop releases the LOCK, as a graceful shutdown would
        let warm = Service::new(persist_config(&t.0));
        assert_eq!(
            corpus_pass(&warm, "hit"),
            cold_digests,
            "warm restart must serve the first pass from recovered state"
        );
        assert_eq!(warm.cache_misses(), 0);
        let stats = warm.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains(&format!("\"loaded\":{programs}")), "{stats}");
        assert!(stats.contains("\"skipped_corrupt\":0"), "{stats}");
    }

    #[test]
    fn corrupted_journal_costs_a_miss_never_a_panic_or_wrong_answer() {
        let t = TempStateDir::new("corrupt");
        {
            let cold = Service::new(persist_config(&t.0));
            cold.handle_line(&run_line("t0", 3, &[1, 2, 3]));
        }
        // flip a payload bit in the only journal record
        let journal = t.0.join(persist::JOURNAL_FILE);
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes[20] ^= 0x01;
        std::fs::write(&journal, &bytes).unwrap();
        let warm = Service::new(persist_config(&t.0));
        let r = warm.handle_line(&run_line("t0", 3, &[1, 2, 3]));
        assert!(r.contains("\"cache\":\"miss\""), "{r}");
        assert!(r.contains("\"arrays\":{\"A\":[2,4,6]}"), "{r}");
        let stats = warm.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"skipped_corrupt\":1"), "{stats}");
        assert_eq!(warm.profile().recovery_skips, 1);
    }

    #[test]
    fn unusable_state_dir_fails_fast_with_one_line_error() {
        let t = TempStateDir::new("fail-fast");
        let bogus = t.0.join("no-such-parent").join("state");
        let err = Service::try_new(persist_config(&bogus))
            .err()
            .expect("must refuse to boot");
        let line = err.to_string();
        assert!(!line.contains('\n'), "one-line error: {line:?}");
        assert!(line.contains("parent directory"), "{line}");
    }

    #[test]
    fn injected_fsync_errors_never_fail_requests() {
        let t = TempStateDir::new("sync-fault");
        let io = Arc::new(wlp_fault::FsFaultPlan::at(
            wlp_fault::FsFaultKind::SyncError,
            0,
            0,
        ));
        let svc = Service::try_new_with_io(persist_config(&t.0), io).expect("open");
        let r = svc.handle_line(&run_line("t0", 2, &[1, 1]));
        assert!(r.contains("\"ok\":true"), "{r}");
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"io_errors\":1"), "{stats}");
    }

    fn chaos_config() -> ServeConfig {
        ServeConfig {
            chaos_builtins: true,
            circuit: circuit::CircuitPolicy {
                trip_threshold: 2,
                open_ms: 60,
                half_open_probes: 1,
            },
            ..ServeConfig::default()
        }
    }

    /// A stall program: the one-shot `chaos_stall` sleeps `stall` ms on
    /// its first call, so any deadline below that expires mid-execution.
    fn stall_line(tenant: &str, stall: u64, deadline_ms: u64) -> String {
        let src = format!(
            "integer i = 0\nwhile (i < n) {{\n    A[i] = chaos_stall({stall})\n    i = i + 1\n}}"
        );
        format!(
            r#"{{"op":"run","tenant":"{tenant}","program":{},"arrays":{{"A":[0,0]}},"scalars":{{"n":2}},"deadline_ms":{deadline_ms}}}"#,
            json::to_string(&src)
        )
    }

    fn assert_no_leaks(svc: &Service) {
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        let lanes = svc.scheduler.lanes();
        assert!(
            stats.contains(&format!("\"lanes_free\":{lanes}")),
            "leaked a lane: {stats}"
        );
        assert!(stats.contains("\"queue_waiting\":0"), "{stats}");
        assert!(stats.contains("\"active_runs\":0"), "{stats}");
        let parsed = json::parse(&stats).expect("stats is JSON");
        let tenants = parsed.get("stats").and_then(|s| s.get("tenants"));
        for (name, t) in tenants
            .and_then(Value::as_object)
            .expect("stats lists tenants")
        {
            let credits = t.get("credits").and_then(Value::as_u64);
            assert_eq!(
                credits,
                Some(svc.cfg.tenant_spec_credits),
                "`{name}` leaked speculation credits: {stats}"
            );
        }
    }

    #[test]
    fn deadline_expiry_is_a_retriable_timeout_and_leaks_nothing() {
        let svc = Service::new(chaos_config());
        let resp = svc.handle_line(&stall_line("slow", 80, 20));
        assert!(resp.contains("\"code\":\"timeout\""), "{resp}");
        assert!(resp.contains("\"retry_after_ms\":"), "{resp}");
        assert!(resp.contains("deadline expired"), "{resp}");
        assert_eq!(svc.timeouts(), 1);
        assert_no_leaks(&svc);
        // credits and slots are back: the same tenant runs again at once
        let ok = svc.handle_line(&run_line("slow", 2, &[1, 1]));
        assert!(ok.contains("\"ok\":true"), "{ok}");
        let report = svc.profile();
        assert_eq!(report.request_timeouts, 1);
    }

    /// A `run` line whose parse alone takes milliseconds in any build:
    /// one bystander array of 600 000 elements the program never names.
    fn heavy_line(extra: &str) -> String {
        let bulk = vec!["123456"; 600_000].join(",");
        format!(
            r#"{{"op":"run","tenant":"bulk","program":{},"arrays":{{"A":[1,2],"bulk":[{bulk}]}},"scalars":{{"n":2}},"reply":"digest"{extra}}}"#,
            json::to_string(DOUBLE),
        )
    }

    fn field_u64(resp: &str, name: &str) -> u64 {
        let v = json::parse(resp).expect("response is JSON");
        v.get(name)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no `{name}` in {resp}"))
    }

    #[test]
    fn latency_counts_the_parse_and_reports_its_share() {
        let svc = Service::with_defaults();
        let resp = svc.handle_line(&heavy_line(""));
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let (parse_us, latency_us) = (field_u64(&resp, "parse_us"), field_u64(&resp, "latency_us"));
        assert!(parse_us >= 1000, "a 4 MB line parsed in {parse_us} us?");
        assert!(latency_us >= parse_us, "{latency_us} < {parse_us}");
    }

    #[test]
    fn the_deadline_counts_the_parse() {
        // the work is two iterations; only the parse can spend the 1 ms
        let svc = Service::with_defaults();
        let resp = svc.handle_line(&heavy_line(r#","deadline_ms":1"#));
        assert!(resp.contains("\"code\":\"timeout\""), "{resp}");
        assert_no_leaks(&svc);
    }

    #[test]
    fn an_escaped_emoji_id_is_echoed_as_the_scalar_it_names() {
        // what an `ensure_ascii` encoder sends for "😀-1"
        let svc = Service::with_defaults();
        let pong =
            svc.handle_line(r#"{"op":"ping","id":"\ud83d\ude00-1","tenant":"\ud83d\ude00"}"#);
        assert!(pong.contains("\"id\":\"😀-1\""), "{pong}");
        let run = svc.handle_line(&run_line("\\ud83d\\ude00", 2, &[1, 1]));
        assert!(run.contains("\"tenant\":\"😀\""), "{run}");
    }

    #[test]
    fn abandoned_client_gets_timeout_and_lane_returns() {
        let svc = Service::new(chaos_config());
        let cancel = Arc::new(CancelFlag::new());
        cancel.cancel(); // the client is already gone
        let resp = svc.handle_line_with(&run_line("gone", 2, &[1, 1]), Some(&cancel));
        assert!(resp.contains("\"code\":\"timeout\""), "{resp}");
        assert!(resp.contains("client abandoned"), "{resp}");
        assert_no_leaks(&svc);
        // the same exit with credits in hand: an uncertain write per
        // iteration reserves its budget before the lane wait gives up
        let src = "integer i = 0\nwhile (i < n) {\n    A[idx[i]] = A[idx[i]] + 1\n    i = i + 1\n}";
        let line = format!(
            r#"{{"op":"run","tenant":"gone","program":{},"arrays":{{"A":[0,0],"idx":[0,1]}},"scalars":{{"n":2}}}}"#,
            json::to_string(src)
        );
        let resp = svc.handle_line_with(&line, Some(&cancel));
        assert!(resp.contains("client abandoned"), "{resp}");
        assert_no_leaks(&svc);
    }

    #[test]
    fn consecutive_timeouts_trip_the_tenant_circuit_then_it_recovers() {
        let svc = Service::new(chaos_config());
        for _ in 0..2 {
            let resp = svc.handle_line(&stall_line("flappy", 50, 10));
            assert!(resp.contains("\"code\":\"timeout\""), "{resp}");
        }
        // circuit is open: rejected before any lane or credit is touched
        let resp = svc.handle_line(&run_line("flappy", 2, &[1, 1]));
        assert!(resp.contains("\"code\":\"tenant_circuit_open\""), "{resp}");
        assert!(resp.contains("\"retry_after_ms\":"), "{resp}");
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"circuit\":\"open\""), "{stats}");
        assert!(stats.contains("\"circuit_trips\":1"), "{stats}");
        // other tenants are unaffected
        let ok = svc.handle_line(&run_line("steady", 2, &[1, 1]));
        assert!(ok.contains("\"ok\":true"), "{ok}");
        // after the open interval a probe closes the circuit again
        std::thread::sleep(Duration::from_millis(70));
        let ok = svc.handle_line(&run_line("flappy", 2, &[1, 1]));
        assert!(ok.contains("\"ok\":true"), "{ok}");
        let stats = svc.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"circuit\":\"closed\""), "{stats}");
        let report = svc.profile();
        assert_eq!(report.circuit_trips, 1);
        assert_no_leaks(&svc);
    }

    #[test]
    fn chaos_panic_is_contained_and_counts_as_a_hard_failure() {
        let svc = Service::new(chaos_config());
        // x is loop-carried, so the verdict is sequential and the panic
        // fires on the inline path — catch_unwind must contain it.
        let src = "integer i = 0\nwhile (i < n) {\n    x = chaos_panic(x)\n    i = i + 1\n}";
        let resp = svc.handle_line(&format!(
            r#"{{"op":"run","tenant":"boom","program":{},"scalars":{{"n":3,"x":1}}}}"#,
            json::to_string(src)
        ));
        assert!(resp.contains("\"code\":\"exec_error\""), "{resp}");
        assert!(resp.contains("panic"), "{resp}");
        assert_no_leaks(&svc);
        // the service survives and still answers
        let ok = svc.handle_line(&run_line("boom", 2, &[1, 1]));
        assert!(ok.contains("\"ok\":true"), "{ok}");
    }

    #[test]
    fn shutdown_drains_gracefully_and_ping_reports_it() {
        let svc = Service::with_defaults();
        let pong = svc.handle_line(r#"{"op":"ping"}"#);
        assert!(pong.contains("\"draining\":false"), "{pong}");
        assert!(pong.contains("\"uptime_ms\":"), "{pong}");
        assert!(pong.contains("\"version\":1"), "{pong}");
        let resp = svc.handle_line(r#"{"op":"shutdown","id":"bye"}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"draining\":true"), "{resp}");
        // new runs are rejected retriable while draining
        let rej = svc.handle_line(&run_line("late", 2, &[1, 1]));
        assert!(rej.contains("\"code\":\"draining\""), "{rej}");
        assert!(rej.contains("\"retry_after_ms\":"), "{rej}");
        // ping and stats still work so probes can watch the drain
        let pong = svc.handle_line(r#"{"op":"ping"}"#);
        assert!(pong.contains("\"draining\":true"), "{pong}");
        assert!(svc.await_drain(Duration::from_millis(100)), "idle drain");
        let report = svc.profile();
        assert_eq!(report.drains, 1);
    }

    #[test]
    fn deadline_clamp_keeps_the_operator_in_charge() {
        let svc = Service::new(ServeConfig {
            max_deadline_ms: 30,
            chaos_builtins: true,
            ..ServeConfig::default()
        });
        // the client asks for 10 s but the operator caps at 30 ms; the
        // 80 ms stall therefore still times out
        let resp = svc.handle_line(&stall_line("greedy", 80, 10_000));
        assert!(resp.contains("\"code\":\"timeout\""), "{resp}");
        assert_no_leaks(&svc);
    }

    #[test]
    fn certify_returns_the_certificate_without_running() {
        let svc = Service::with_defaults();
        let resp = svc.handle_line(&format!(
            r#"{{"op":"certify","program":{}}}"#,
            json::to_string(DOUBLE)
        ));
        assert!(resp.contains("\"verdict\":\"certified_doall\""), "{resp}");
        assert!(resp.contains("cert-v1;"), "{resp}");
        assert_eq!(svc.cache_misses(), 1);
    }
}
