//! The certificate cache: content-addressed memoization of the front-end
//! and the static analysis.
//!
//! A service replaying the same handful of loops over and over (the
//! expected shape of multi-tenant traffic) should pay for parsing,
//! lowering, privatization and terminator classification **once per
//! distinct program**, not once per request. [`CertCache`] keys entries
//! by the FNV-1a hash of the program source (verifying the stored source
//! byte-for-byte on hit, since FNV-1a is not collision-resistant) — a
//! hit skips the whole `wlp-ir` front end and `wlp-analyze` pipeline and
//! hands back the parsed [`Program`], its [`SafetyCertificate`] and the
//! [`ExecPlan`] lowered under it, behind an `Arc`, so concurrent requests
//! share one copy and execute without lowering anything again. A miss
//! computes only these ([`compile_source`]); a `certify` reply's
//! diagnostics count is worked out on demand.
//!
//! Eviction is LRU over a bounded capacity: the cache is sized for the
//! working set of distinct programs, not the request volume, and a cold
//! program pays exactly one miss before its certificate is resident.
//!
//! Each entry also carries the program's [`RunHistory`]: what its runs
//! have cost on this machine, which is what decides whether the next one
//! speculates (the paper's §7 question, answered from §8's run
//! statistics rather than from a model).

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use wlp_analyze::{compile_source, SafetyCertificate};
use wlp_ir::exec::{ExecPlan, Schedule};
use wlp_ir::frontend::{FrontendError, Program};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string — the content hash the cache keys on.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `FNV_PRIME^k` for `k` in `0..=8`.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// The digest [`crate::Service`] reports for a result array:
/// [`fnv1a64`] of the elements' little-endian bytes, streamed so no byte
/// buffer is ever built.
///
/// FNV-1a is one serial xor-multiply per byte, but xor with a zero byte
/// changes nothing, so the zero bytes above an element's highest live
/// byte are multiplies only, and those fold into the highest live byte's
/// own — `(h ^ b)·P·P^(8−live) = (h ^ b)·P^(9−live)`, exact in wrapping
/// arithmetic: an index, a counter or small datum costs one step per
/// live byte (a zero counts one), a negative or full-width value its
/// eight.
pub fn fnv1a64_i64s(data: &[i64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &x in data {
        let mut rest = x as u64;
        let live = 8 - (rest | 1).leading_zeros() / 8;
        for _ in 1..live {
            h ^= rest & 0xff;
            h = h.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        h = (h ^ rest).wrapping_mul(FNV_PRIME_POWERS[(9 - live) as usize]);
    }
    h
}

/// One resident program: what a request reads that depends only on the
/// source text.
#[derive(Debug)]
pub struct CacheEntry {
    /// FNV-1a hash of the source (the cache key).
    pub key: u64,
    /// The exact source text this entry was built from. FNV-1a is not
    /// collision-resistant (colliding inputs are computable), so a hit
    /// is only served after this matches the request byte-for-byte —
    /// otherwise a crafted program could poison the shared cache and
    /// other tenants would silently run the wrong program.
    pub source: String,
    /// The parsed AST. No `run` reads it (a run executes `plan`); a
    /// `certify` lowers it again to count its diagnostics, and the
    /// repository benchmark's layer trace runs it through the reference
    /// interpreters.
    pub program: Program,
    /// The speculation-safety certificate.
    pub certificate: SafetyCertificate,
    /// What a request executes: `program` lowered once, under
    /// `certificate`.
    pub plan: ExecPlan,
    /// What this program's runs have cost, per request size class: the
    /// one input to whether its next run speculates. Only a plan that can
    /// speculate asks, so only a `SpeculativeDoall` plan carries one; a
    /// plan sequential by construction pays a null pointer. Starts empty
    /// on every insert (a re-admitted program measures itself again).
    pub history: Option<Box<RunHistory>>,
}

/// How often, in decisions of one size class, the path [`RunHistory`]
/// does not prefer runs anyway to measure it again: without it a path
/// measured slower once would never be tried again, and speculation
/// could not win back a class when the machine starts to favour it.
/// A power of two, so the decision count's wrap-around keeps the period.
pub const PROBE_PERIOD: u32 = 32;

/// Request size classes a [`RunHistory`] tells apart: 2¹⁹ elements is
/// more than a 1 MiB request line can spell, so the last class is never
/// shared in practice.
const SIZE_CLASSES: usize = 20;

/// What a [`RunHistory`] tells one run of a speculative plan to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Choice {
    /// Speculate: the class has never been measured speculating, or
    /// speculation is the cheaper path.
    Speculate,
    /// Run sequentially: speculation is measured slower than the
    /// sequential path in this class.
    Decline,
    /// Measure a path: the sequential one when the class has no
    /// sequential sample yet, otherwise, every [`PROBE_PERIOD`]-th
    /// decision, the path the estimates do not prefer.
    Probe {
        /// Whether the probed path is the speculative one.
        speculate: bool,
    },
}

impl Choice {
    /// Whether the run attempts the speculative path.
    pub(crate) fn speculates(self) -> bool {
        match self {
            Choice::Speculate => true,
            Choice::Decline => false,
            Choice::Probe { speculate } => speculate,
        }
    }
}

/// Per-program run statistics: for each request size class, a running
/// estimate of what one iteration costs on the speculative path (a
/// failed attempt's rollback and sequential re-run included — that is
/// what the attempt cost) and on the sequential path, and how many
/// decisions the class has seen. A class is the log₂ of the elements in
/// the request's bound arrays, so one program served at n = 512 and at
/// n = 16384 keeps two sets of numbers: a region launch that dwarfs the
/// small run vanishes in the large one.
///
/// Lock-free: every field is an atomic updated on its own. A sample that
/// races another may be lost, which moves an estimate by one sample's
/// weight; nothing depends on the fields agreeing with each other. Every
/// cached program that can speculate carries one (240 bytes), so the
/// fields are 32 bits.
#[derive(Debug, Default)]
pub struct RunHistory {
    classes: [SizeClass; SIZE_CLASSES],
}

/// One size class of a [`RunHistory`]. Estimates are in 1/16 ns per
/// iteration, saturating at ≈ 268 ms; zero means "never measured".
#[derive(Debug, Default)]
struct SizeClass {
    decisions: AtomicU32,
    speculative: AtomicU32,
    sequential: AtomicU32,
}

impl RunHistory {
    /// The size class of a request whose bound arrays hold `elements`
    /// elements in all.
    pub(crate) fn class_of(elements: usize) -> usize {
        (elements.checked_ilog2().unwrap_or(0) as usize).min(SIZE_CLASSES - 1)
    }

    /// Decides one run in `class` (see [`Choice`]) and counts it toward
    /// the class's probe period — whether or not the run then happens: a
    /// probe that lands on a request refused credits or a lane is skipped.
    pub(crate) fn decide(&self, class: usize) -> Choice {
        let c = &self.classes[class];
        let decision = c.decisions.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        let speculative = c.speculative.load(Ordering::Relaxed);
        let sequential = c.sequential.load(Ordering::Relaxed);
        if speculative == 0 {
            return Choice::Speculate;
        }
        if sequential == 0 {
            return Choice::Probe { speculate: false };
        }
        let speculation_pays = speculative < sequential;
        if decision.is_multiple_of(PROBE_PERIOD) {
            Choice::Probe {
                speculate: !speculation_pays,
            }
        } else if speculation_pays {
            Choice::Speculate
        } else {
            Choice::Decline
        }
    }

    /// Records what a run `choice` decided in `class` cost: `elapsed_ns`
    /// over `iterations`. The path's estimate moves a quarter of the way
    /// to the sample — except on a probe, whose sample replaces it: the
    /// estimate of a path not taken is up to a probe period old, and the
    /// point of measuring it again is to let the machine's current
    /// behaviour decide.
    pub(crate) fn record(&self, class: usize, choice: Choice, elapsed_ns: u64, iterations: usize) {
        let c = &self.classes[class];
        let estimate = if choice.speculates() {
            &c.speculative
        } else {
            &c.sequential
        };
        let sample = (elapsed_ns.saturating_mul(16) / iterations.max(1) as u64)
            .clamp(1, u64::from(u32::MAX)) as u32;
        if matches!(choice, Choice::Probe { .. }) {
            estimate.store(sample, Ordering::Relaxed);
            return;
        }
        let _ = estimate.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
            // never 0 once measured: `old - old / 4` is at least 1
            Some(if old == 0 {
                sample
            } else {
                old - old / 4 + sample / 4
            })
        });
    }
}

/// Whether a lookup was served from the cache or had to run the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Entry was resident: no parse, no analysis.
    Hit,
    /// Entry was built on this call (or rebuilt after eviction).
    Miss,
}

struct LruState {
    map: HashMap<u64, Arc<CacheEntry>>,
    /// Keys ordered least- to most-recently used. Capacity is small
    /// (a working set of programs), so the O(len) touch is irrelevant
    /// next to the analysis it memoizes.
    order: VecDeque<u64>,
}

/// A bounded, thread-safe LRU cache of [`CacheEntry`]s keyed by source
/// content hash.
pub struct CertCache {
    capacity: usize,
    state: Mutex<LruState>,
    hits: AtomicU64,
    misses: AtomicU64,
    plans_compiled: AtomicU64,
}

impl CertCache {
    /// A cache holding at most `capacity` distinct programs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CertCache {
            capacity: capacity.max(1),
            state: Mutex::new(LruState {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            plans_compiled: AtomicU64::new(0),
        }
    }

    /// One miss: parse → lower → certificate → plan ([`compile_source`]).
    fn build(&self, key: u64, source: &str) -> Result<Arc<CacheEntry>, FrontendError> {
        let (program, certificate, plan) = compile_source(source)?;
        self.plans_compiled.fetch_add(1, Ordering::Relaxed);
        let history =
            matches!(plan.schedule(), Schedule::SpeculativeDoall { .. }).then(Box::default);
        Ok(Arc::new(CacheEntry {
            key,
            source: source.to_string(),
            program,
            certificate,
            plan,
            history,
        }))
    }

    /// Looks up `source`, running [`compile_source`] on a miss.
    ///
    /// Front-end failures are returned without being cached: a malformed
    /// program pays its (cheap) parse error on every submission rather
    /// than occupying a slot.
    pub fn lookup(&self, source: &str) -> Result<(Arc<CacheEntry>, CacheOutcome), FrontendError> {
        self.lookup_keyed(fnv1a64(source.as_bytes()), source)
    }

    /// [`lookup`](Self::lookup) with the key precomputed — split out so
    /// tests can force two sources onto one key and exercise the
    /// collision path.
    fn lookup_keyed(
        &self,
        key: u64,
        source: &str,
    ) -> Result<(Arc<CacheEntry>, CacheOutcome), FrontendError> {
        {
            let mut st = self.state.lock();
            if let Some(entry) = st.map.get(&key).cloned() {
                // a 64-bit hash match is not proof of identity: serve
                // the hit only if the resident source is this source
                if entry.source == source {
                    touch(&mut st.order, key);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((entry, CacheOutcome::Hit));
                }
            }
        }
        // Build outside the lock: a slow analysis must not serialize
        // unrelated hits. Two racing misses both build; last insert wins
        // and both results are identical (the pipeline is deterministic).
        let entry = self.build(key, source)?;
        let mut st = self.state.lock();
        match st.map.get(&key) {
            None => {
                if st.map.len() >= self.capacity {
                    if let Some(evict) = st.order.pop_front() {
                        st.map.remove(&evict);
                    }
                }
                st.map.insert(key, entry.clone());
                st.order.push_back(key);
            }
            Some(resident) if resident.source == source => {
                // a racing miss for the same source beat us to the insert
                touch(&mut st.order, key);
            }
            Some(_) => {
                // hash collision with a different resident program: hand
                // back the fresh build uncached rather than evicting the
                // (presumably hot) resident or thrashing the slot
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((entry, CacheOutcome::Miss))
    }

    /// Lookups served without running the pipeline.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran parse + analysis.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Execution plans lowered so far: one per miss, never one for a hit.
    pub fn plans_compiled(&self) -> u64 {
        self.plans_compiled.load(Ordering::Relaxed)
    }

    /// Hits over total lookups (0.0 when empty).
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

fn touch(order: &mut VecDeque<u64>, key: u64) {
    if let Some(pos) = order.iter().position(|&k| k == key) {
        order.remove(pos);
    }
    order.push_back(key);
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP_A: &str = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";
    const LOOP_B: &str = "integer i = 0\nwhile (i < n) {\n    B[i] = B[i] + 1\n    i = i + 1\n}";
    const LOOP_C: &str = "integer i = 1\nwhile (i < n) {\n    C[i] = C[i - 1]\n    i = i + 1\n}";

    #[test]
    fn fnv_is_stable_and_distinguishes() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(LOOP_A.as_bytes()), fnv1a64(LOOP_A.as_bytes()));
    }

    #[test]
    fn streamed_digest_equals_fnv_of_the_byte_buffer() {
        // every count of high zero bytes, both sides of each byte boundary
        let boundaries = (0..=8u32).flat_map(|b| {
            let edge = 1i128 << (8 * b);
            [edge - 1, edge].map(|x| x.min(i128::from(i64::MAX)) as i64)
        });
        // xorshift64: every byte width, signs and zeros mixed
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mixed = (0..4096).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as i64) >> (state % 64)
        });
        for data in [
            vec![],
            vec![0i64],
            vec![0; 100],
            vec![i64::MIN],
            vec![-1],
            vec![(1 << 56) - 1],
            vec![1 << 56],
            vec![-1, i64::MIN, i64::MAX, 42],
            (0..1000).map(|i| i * 7919 - 3).collect::<Vec<i64>>(),
            boundaries.collect(),
            mixed.collect(),
        ] {
            let mut bytes = Vec::with_capacity(data.len() * 8);
            for x in &data {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            assert_eq!(fnv1a64_i64s(&data), fnv1a64(&bytes));
        }
    }

    proptest::proptest! {
        /// Widths mixed element by element: each draw is cut down to any
        /// number of live bytes, keeping its sign or not.
        #[test]
        fn streamed_digest_equals_fnv_of_the_bytes_at_any_mix_of_widths(
            draws in proptest::collection::vec(
                (proptest::arbitrary::any::<i64>(), 0u32..64, proptest::arbitrary::any::<bool>()),
                0..200,
            )
        ) {
            let data: Vec<i64> = draws
                .iter()
                .map(|&(x, shift, signed)| if signed { x >> shift } else { (x as u64 >> shift) as i64 })
                .collect();
            let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
            proptest::prop_assert_eq!(fnv1a64_i64s(&data), fnv1a64(&bytes));
        }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_entry() {
        let cache = CertCache::new(8);
        let (e1, o1) = cache.lookup(LOOP_A).unwrap();
        let (e2, o2) = cache.lookup(LOOP_A).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&e1, &e2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = CertCache::new(2);
        cache.lookup(LOOP_A).unwrap();
        cache.lookup(LOOP_B).unwrap();
        cache.lookup(LOOP_A).unwrap(); // A is now warmer than B
        cache.lookup(LOOP_C).unwrap(); // evicts B
        assert_eq!(cache.len(), 2);
        let (_, a) = cache.lookup(LOOP_A).unwrap();
        let (_, b) = cache.lookup(LOOP_B).unwrap();
        assert_eq!(a, CacheOutcome::Hit);
        assert_eq!(b, CacheOutcome::Miss);
    }

    #[test]
    fn parse_failures_are_not_cached() {
        let cache = CertCache::new(2);
        assert!(cache.lookup("while (").is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn colliding_keys_never_serve_another_programs_entry() {
        // Force LOOP_A and LOOP_B (different programs, thus different
        // DOALL/reduction shapes) onto one cache key — the situation an
        // attacker computing an FNV-1a collision engineers.
        let cache = CertCache::new(8);
        let (a, o) = cache.lookup_keyed(42, LOOP_A).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        // the colliding lookup must NOT get A's entry back
        let (b, o) = cache.lookup_keyed(42, LOOP_B).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.source, LOOP_B);
        assert_eq!(b.certificate, {
            let fresh = CertCache::new(1);
            fresh.lookup(LOOP_B).unwrap().0.certificate.clone()
        });
        // the resident (first-come) entry keeps its slot and still hits
        let (a2, o) = cache.lookup_keyed(42, LOOP_A).unwrap();
        assert_eq!(o, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(cache.len(), 1);
    }

    /// Decides one run and records that it took `ns_per_iter` over 100
    /// iterations — the service's decide → execute → record, clock-free.
    fn run_once(h: &RunHistory, class: usize, ns_per_iter: u64) -> Choice {
        let choice = h.decide(class);
        h.record(class, choice, ns_per_iter * 100, 100);
        choice
    }

    #[test]
    fn history_speculates_first_measures_sequential_once_then_takes_the_cheaper_path() {
        let h = RunHistory::default();
        // a program's first run behaves as it did before any history
        assert_eq!(h.decide(5), Choice::Speculate);
        h.record(5, Choice::Speculate, 300_000, 1000); // 300 ns an iteration
        assert_eq!(h.decide(5), Choice::Probe { speculate: false });
        h.record(5, Choice::Probe { speculate: false }, 100_000, 1000);
        // speculation measured 3× slower: declined from here on
        for _ in 0..5 {
            assert_eq!(run_once(&h, 5, 100), Choice::Decline);
        }
        // until a probe finds speculation cheaper: its sample replaces
        // the stale estimate, and the rule flips on the next run
        while h.decide(5) != (Choice::Probe { speculate: true }) {}
        h.record(5, Choice::Probe { speculate: true }, 50_000, 1000);
        assert_eq!(run_once(&h, 5, 50), Choice::Speculate);
        // and flips back once speculation's running estimate (a quarter
        // of the way per sample) climbs past the sequential one
        let mut runs = 0;
        while run_once(&h, 5, 400) == Choice::Speculate {
            runs += 1;
        }
        assert!(
            (1..PROBE_PERIOD).contains(&runs),
            "{runs} runs to flip back"
        );
    }

    #[test]
    fn history_probes_fire_exactly_on_the_period() {
        let h = RunHistory::default();
        assert_eq!(run_once(&h, 3, 90), Choice::Speculate);
        assert_eq!(run_once(&h, 3, 30), Choice::Probe { speculate: false });
        // decisions are counted from the class's first: every
        // PROBE_PERIOD-th one measures the path not preferred
        for decision in 3..=4 * PROBE_PERIOD + 1 {
            let want = if decision.is_multiple_of(PROBE_PERIOD) {
                Choice::Probe { speculate: true }
            } else {
                Choice::Decline
            };
            let sample = if want.speculates() { 90 } else { 30 };
            assert_eq!(run_once(&h, 3, sample), want, "decision {decision}");
        }
        // with speculation preferred, the probe measures the sequential path
        let h = RunHistory::default();
        run_once(&h, 3, 10);
        run_once(&h, 3, 30);
        for decision in 3..=2 * PROBE_PERIOD {
            let want = if decision.is_multiple_of(PROBE_PERIOD) {
                Choice::Probe { speculate: false }
            } else {
                Choice::Speculate
            };
            let sample = if want.speculates() { 10 } else { 30 };
            assert_eq!(run_once(&h, 3, sample), want, "decision {decision}");
        }
    }

    #[test]
    fn history_size_classes_are_independent() {
        // every cached program that can speculate carries one; the others
        // carry a null pointer
        assert_eq!(std::mem::size_of::<RunHistory>(), 240);
        let cache = CertCache::new(2);
        let (parallel, _) = cache.lookup(LOOP_A).unwrap();
        let (sequential, _) = cache.lookup(LOOP_C).unwrap();
        assert!(parallel.history.is_some());
        assert!(sequential.history.is_none());
        assert_eq!(RunHistory::class_of(0), 0);
        assert_eq!(RunHistory::class_of(1), 0);
        assert_eq!(RunHistory::class_of(512), 9);
        assert_eq!(RunHistory::class_of(4 * 16384 - 1), 15);
        assert_eq!(RunHistory::class_of(4 * 16384), 16);
        assert_eq!(RunHistory::class_of(usize::MAX), SIZE_CLASSES - 1);
        let h = RunHistory::default();
        let (small, large) = (RunHistory::class_of(512), RunHistory::class_of(16384));
        // small requests: speculation loses
        run_once(&h, small, 500);
        run_once(&h, small, 50);
        assert_eq!(h.decide(small), Choice::Decline);
        // the large class has seen none of it: it starts over, and its
        // own numbers (speculation wins) decide it
        assert_eq!(run_once(&h, large, 20), Choice::Speculate);
        assert_eq!(run_once(&h, large, 30), Choice::Probe { speculate: false });
        assert_eq!(h.decide(large), Choice::Speculate);
        assert_eq!(h.decide(small), Choice::Decline);
    }

    #[test]
    fn history_concurrent_updates_never_panic() {
        let h = RunHistory::default();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for k in 0..2000u64 {
                        let class = ((k + t) % 3) as usize;
                        let choice = h.decide(class);
                        // extremes included: no iterations, saturating time
                        let (ns, iters) = match k % 4 {
                            0 => (u64::MAX, 0),
                            1 => (0, usize::MAX),
                            _ => (k * 37 + t, (k % 50) as usize),
                        };
                        h.record(class, choice, ns, iters);
                    }
                });
            }
        });
        for class in 0..3 {
            let c = &h.classes[class];
            assert_eq!(
                c.decisions.load(Ordering::Relaxed),
                8000 / 3 + u32::from(class < 2)
            );
            // a measured path never reads as unmeasured again
            assert!(c.speculative.load(Ordering::Relaxed) > 0);
            assert!(c.sequential.load(Ordering::Relaxed) > 0);
        }
    }

    #[test]
    fn hit_and_miss_certificates_are_identical() {
        let cache = CertCache::new(1);
        let (miss, _) = cache.lookup(LOOP_A).unwrap();
        let (hit, o) = cache.lookup(LOOP_A).unwrap();
        assert_eq!(o, CacheOutcome::Hit);
        assert_eq!(miss.certificate, hit.certificate);
        // and both equal a from-scratch analysis
        cache.lookup(LOOP_B).unwrap(); // evict A
        let (fresh, o) = cache.lookup(LOOP_A).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(fresh.certificate, hit.certificate);
    }
}
