//! Shadow arrays and the PD-test analysis.
//!
//! # Marking scheme
//!
//! For a shared array `A` of `m` elements under test, the shadow keeps two
//! marks per element:
//!
//! * a **write mark** (`Aw` in the paper): iterations that wrote the
//!   element;
//! * an **exposed-read mark** (`Ar`): iterations that read the element
//!   *before writing it within the same iteration*. An exposed read is
//!   simultaneously the "not privatizable in that iteration" information,
//!   so no separate `Ap` array is needed in this formulation.
//!
//! Instead of a boolean, each mark stores the **two smallest distinct
//! iteration numbers** that produced it, packed into one `AtomicU64`. This
//! is the time-stamping Section 5.1 requires for overshooting loops — and
//! keeping *two* stamps instead of the paper's one makes the filtered
//! analysis exact:
//!
//! Let `LI` be the last valid iteration and, per element `e`, let
//! `W(e)`/`ER(e)` be the sets of writing/exposed-reading iterations `≤ LI`.
//! The loop (restricted to valid iterations) is
//!
//! * a **valid DOALL as-is** iff for every `e`: `W(e) = ∅`, or
//!   `|W(e)| = 1 ∧ ER(e) ⊆ W(e)` (the only exposed read, if any, is in the
//!   single writing iteration itself — a loop-independent dependence);
//! * a **valid privatized DOALL** iff for every `e` there is no pair
//!   `r ∈ ER(e)`, `w ∈ W(e)` with `r ≠ w` — i.e. every read of a written
//!   element is covered by a write in its own iteration (the paper's
//!   Privatization Criterion), except that an element touched by a *single*
//!   iteration may freely read-then-write it.
//!
//! With the two smallest distinct stamps `(w₁, w₂)` and `(r₁, r₂)` these
//! predicates are decidable exactly for *any* `LI`:
//! `|W| ≥ 2 ⟺ w₂ ≤ LI`; `W = ∅ ⟺ w₁ > LI`; `ER ⊆ W ⟺ r₁ > LI ∨
//! (r₁ = w₁ ∧ r₂ > LI)` (when `|W| ≤ 1`). No conservatism is introduced by
//! the filtering.
//!
//! One further hazard exists only for **in-place** speculation (Section 4
//! execution, writes applied directly with time-stamps): an *overshot*
//! iteration's write to an element that a *valid* iteration also touched
//! may have been observed by the valid read, or may have clobbered the
//! valid write after its stamp was recorded — and the post-loop undo
//! restores neither effect. The `doall` verdict therefore additionally
//! fails any element with both valid-region activity and an overshot
//! writer. The `privatized_doall` verdict is exempt: privatized execution
//! confines overshot writes to per-processor overlays, and the
//! time-stamped copy-out already filters them.
//!
//! Marking is contention-free in the common path: each worker marks through
//! its own [`IterMarker`], whose covered-write set lives inline on the
//! marker (spilling to a heap set only for iterations that write more than
//! a handful of distinct elements) and whose access totals are buffered
//! locally, flushed with one `fetch_add` per counter when the marker drops.
//! Only the per-element stamp atomics are shared, updated with a `Relaxed`
//! CAS loop — the stamps carry plain data (iteration numbers), not
//! publication of other memory, so no acquire/release edges are needed on
//! the marking path; the region join of the executing [`Pool`] is the one
//! happens-before edge that orders *all* marking before the analysis reads
//! the cells.
//!
//! The post-execution analysis is **fully parallel** (a parallel fold over
//! 64-element bitset words), matching the paper's `O(a/p + log p)` bound.
//! Each word's sweep computes the per-element predicates branchlessly into
//! three masks (output dependence, exposed cross-iteration read, overshoot
//! hazard) and only falls into the conflict-recording slow path for words
//! with at least one bit set — on the common all-clear array the sweep is
//! a straight-line load/compare/or loop per element.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use wlp_runtime::{parallel_fold, Pool};

const UNMARKED: u32 = u32::MAX;

#[inline]
fn pack(min: u32, second: u32) -> u64 {
    ((min as u64) << 32) | second as u64
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Inserts iteration `t` into a packed (min, second-distinct-min) pair.
///
/// All orderings are `Relaxed`: the cell is self-contained data (two
/// iteration numbers updated in one 64-bit RMW), so the CAS needs no
/// acquire/release semantics — it never publishes or consumes other
/// memory. The analysis only reads the cells after the executing pool's
/// region join, which is the happens-before edge making every marker's
/// final stamp visible.
#[inline]
fn insert_stamp(cell: &AtomicU64, t: u32) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let (m, s) = unpack(cur);
        let new = if t < m {
            pack(t, m)
        } else if t == m || t >= s {
            return; // already represented, or not among two smallest
        } else {
            pack(m, t) // m < t < s
        };
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Reads a packed stamp pair as `(min, second)` iteration numbers.
/// `Relaxed` is sound for the same reason as [`insert_stamp`]: the region
/// join already ordered all marking before any analysis read.
#[inline]
fn stamps(cell: &AtomicU64) -> (u32, u32) {
    unpack(cell.load(Ordering::Relaxed))
}

/// The kind of cross-iteration dependence a conflict represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// An element is written in one iteration and exposed-read in another
    /// (flow or anti dependence, depending on direction).
    FlowOrAnti,
    /// An element is written in two or more different iterations (output
    /// dependence). Removable by privatization when no exposed reads exist.
    Output,
}

/// A dependence found by the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// Element index in the tested array.
    pub element: usize,
    /// Dependence class.
    pub kind: ConflictKind,
}

/// Outcome of the PD-test analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdVerdict {
    /// The loop (valid iterations only) was a correct DOALL as executed.
    pub doall: bool,
    /// The loop is a correct DOALL if the tested array is privatized
    /// (with last-value copy-out for live arrays).
    pub privatized_doall: bool,
    /// Conflicting elements (capped by the caller-supplied limit).
    pub conflicts: Vec<Conflict>,
}

impl PdVerdict {
    /// True when the speculative parallel execution must be discarded and
    /// the loop re-executed sequentially, even allowing privatization.
    #[inline]
    pub fn failed(&self) -> bool {
        !self.privatized_doall
    }
}

/// Shadow arrays for one shared array of `m` elements.
#[derive(Debug)]
pub struct Shadow {
    w: Vec<AtomicU64>,
    r: Vec<AtomicU64>,
    total_writes: AtomicU64,
    total_reads: AtomicU64,
}

impl Shadow {
    /// Creates unmarked shadows for an array of `m` elements.
    pub fn new(m: usize) -> Self {
        Shadow {
            w: (0..m)
                .map(|_| AtomicU64::new(pack(UNMARKED, UNMARKED)))
                .collect(),
            r: (0..m)
                .map(|_| AtomicU64::new(pack(UNMARKED, UNMARKED)))
                .collect(),
            total_writes: AtomicU64::new(0),
            total_reads: AtomicU64::new(0),
        }
    }

    /// Number of shadowed elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether the shadow covers zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Total dynamic accesses marked so far (the paper's `a`, used by the
    /// cost model to size `Td` and `Ta`).
    pub fn total_accesses(&self) -> u64 {
        self.total_writes.load(Ordering::Relaxed) + self.total_reads.load(Ordering::Relaxed)
    }

    /// Begins marking for iteration `iter`. The returned marker is meant to
    /// live on the worker executing that iteration; it tracks which
    /// elements the iteration has written so far, to classify reads as
    /// exposed or covered.
    ///
    /// # Panics
    /// Panics if `iter >= u32::MAX − 1` (stamp space).
    pub fn iteration(&self, iter: usize) -> IterMarker<'_> {
        let iter32 = u32::try_from(iter).expect("iteration fits in u32");
        assert!(iter32 < UNMARKED, "iteration stamp space exhausted");
        IterMarker {
            shadow: self,
            iter: iter32,
            written: WriteSet::new(),
            pending_writes: 0,
            pending_reads: 0,
        }
    }

    /// Filtered predicates for the 64-element word starting at `base`,
    /// for `LI = li`. Returns three bitmasks over the word's elements:
    /// `(multi_valid_write, exposed_outside_write, overshoot_hazard)` —
    /// bit `k` describes element `base + k`.
    ///
    /// The predicate evaluation is branch-free: every element costs two
    /// relaxed 64-bit loads and a fixed handful of compares/shifts, so
    /// the sweep over a clean (conflict-free) shadow never mispredicts.
    fn word_state(&self, base: usize, li: u32) -> (u64, u64, u64) {
        let lanes = (self.len() - base).min(64);
        let mut m_multi = 0u64;
        let mut m_exposed = 0u64;
        let mut m_hazard = 0u64;
        for k in 0..lanes {
            let (w1, w2) = stamps(&self.w[base + k]);
            let (r1, r2) = stamps(&self.r[base + k]);
            let has_write = w1 <= li;
            let multi_write = w2 <= li;
            // ∃ r ∈ ER_f, w ∈ W_f with r ≠ w: a write and an exposed read
            // in different iterations (cross-iteration flow/anti
            // dependence, and a violation of the privatization
            // criterion). With a single filtered writer `w1`, the only
            // harmless shape is ER_f = {w1}.
            let exposed_outside_write =
                has_write && r1 <= li && (multi_write || r1 != w1 || r2 <= li);
            // Overshoot hazard (in-place speculation only): an element
            // written by an *overshot* iteration while also touched by a
            // *valid* one. The valid read may have observed the doomed
            // value, or the valid write may have been clobbered after its
            // stamp was recorded — the undo pass restores neither. (With
            // ≥3 writers straddling LI the two-stamp pair cannot see the
            // overshot one, but then `w2 ≤ li` already fails the DOALL
            // via the output dependence, so the verdict stays exact.)
            let overshot_write = (w1 != UNMARKED && w1 > li) || (w2 != UNMARKED && w2 > li);
            let valid_access = has_write || r1 <= li;
            let overshoot_hazard = overshot_write && valid_access;
            m_multi |= (multi_write as u64) << k;
            m_exposed |= (exposed_outside_write as u64) << k;
            m_hazard |= (overshoot_hazard as u64) << k;
        }
        (m_multi, m_exposed, m_hazard)
    }

    /// Runs the post-execution analysis in parallel on `pool`.
    ///
    /// `last_valid` is the last valid iteration (marks stamped later are
    /// ignored); `None` means the loop did not overshoot. At most
    /// `max_conflicts` conflicting elements are reported (the verdict
    /// booleans always reflect *all* elements).
    pub fn analyze(
        &self,
        pool: &Pool,
        last_valid: Option<usize>,
        max_conflicts: usize,
    ) -> PdVerdict {
        self.analyze_rec(pool, last_valid, max_conflicts, &wlp_obs::NoopRecorder)
    }

    /// [`Shadow::analyze`] with observability: the analysis is reported to
    /// `rec` as one `PdAnalyze` event carrying the marked access count and
    /// the measured analysis time (`Ta`). With [`wlp_obs::NoopRecorder`] —
    /// which is what [`Shadow::analyze`] passes — the probe compiles away.
    pub fn analyze_rec<R: wlp_obs::Recorder>(
        &self,
        pool: &Pool,
        last_valid: Option<usize>,
        max_conflicts: usize,
        rec: &R,
    ) -> PdVerdict {
        let t0 = R::ENABLED.then(std::time::Instant::now);
        let verdict = self.analyze_inner(pool, last_valid, max_conflicts);
        if R::ENABLED {
            let cost = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            rec.record(
                0,
                wlp_obs::Event::PdAnalyze {
                    accesses: self.total_accesses(),
                    cost,
                },
            );
        }
        verdict
    }

    fn analyze_inner(
        &self,
        pool: &Pool,
        last_valid: Option<usize>,
        max_conflicts: usize,
    ) -> PdVerdict {
        let li: u32 = match last_valid {
            Some(v) => u32::try_from(v).expect("iteration fits in u32"),
            None => UNMARKED - 1,
        };

        #[derive(Clone)]
        struct Acc {
            doall: bool,
            privatized: bool,
            conflicts: Vec<Conflict>,
        }

        let max_c = max_conflicts;
        // Fold over 64-element words, not elements: the clean-word case
        // (no dependence anywhere in the word) reduces to three mask ORs
        // and one zero test, and conflict enumeration touches only the
        // set bits via trailing_zeros.
        let words = self.len().div_ceil(64);
        let acc = parallel_fold(
            pool,
            words,
            Acc {
                doall: true,
                privatized: true,
                conflicts: Vec::new(),
            },
            |mut acc, wi| {
                let base = wi * 64;
                let (m_multi, m_exposed, m_hazard) = self.word_state(base, li);
                let mut any = m_multi | m_exposed | m_hazard;
                if any == 0 {
                    return acc;
                }
                acc.doall = false;
                acc.privatized &= m_exposed == 0;
                // Per element, report in the fixed order the sequential
                // analysis used: overshoot hazard (unsound to keep the
                // in-place result; privatized execution is unaffected
                // because overshot writes landed in private overlays and
                // are filtered at copy-out), then output dependence, then
                // exposed cross-iteration read.
                while any != 0 && acc.conflicts.len() < max_c {
                    let k = any.trailing_zeros() as usize;
                    any &= any - 1;
                    let bit = 1u64 << k;
                    let e = base + k;
                    if m_hazard & bit != 0 && acc.conflicts.len() < max_c {
                        acc.conflicts.push(Conflict {
                            element: e,
                            kind: ConflictKind::FlowOrAnti,
                        });
                    }
                    if m_multi & bit != 0 && acc.conflicts.len() < max_c {
                        acc.conflicts.push(Conflict {
                            element: e,
                            kind: ConflictKind::Output,
                        });
                    }
                    if m_exposed & bit != 0 && acc.conflicts.len() < max_c {
                        acc.conflicts.push(Conflict {
                            element: e,
                            kind: ConflictKind::FlowOrAnti,
                        });
                    }
                }
                acc
            },
            |mut a, b| {
                a.doall &= b.doall;
                a.privatized &= b.privatized;
                for c in b.conflicts {
                    if a.conflicts.len() >= max_c {
                        break;
                    }
                    a.conflicts.push(c);
                }
                a
            },
        );

        PdVerdict {
            doall: acc.doall,
            privatized_doall: acc.privatized,
            conflicts: acc.conflicts,
        }
    }

    /// Clears all marks for reuse across strips or loop invocations.
    pub fn reset(&mut self) {
        for cell in self.w.iter_mut().chain(self.r.iter_mut()) {
            *cell.get_mut() = pack(UNMARKED, UNMARKED);
        }
        *self.total_writes.get_mut() = 0;
        *self.total_reads.get_mut() = 0;
    }
}

/// How many distinct written elements an [`IterMarker`] tracks inline
/// before spilling to a heap set. Loop bodies in the paper's workloads
/// write one or two shared elements per iteration; eight covers them with
/// no allocation and no hashing.
const INLINE_WRITES: usize = 8;

/// The covered-write set of one iteration: a tiny inline array scanned
/// linearly, spilling to a [`HashSet`] only past [`INLINE_WRITES`]
/// distinct elements. The inline scan beats hashing at these sizes and
/// keeps `Shadow::iteration` allocation-free.
#[derive(Debug)]
enum WriteSet {
    Inline {
        buf: [usize; INLINE_WRITES],
        len: usize,
    },
    Spilled(HashSet<usize>),
}

impl WriteSet {
    #[inline]
    fn new() -> Self {
        WriteSet::Inline {
            buf: [0; INLINE_WRITES],
            len: 0,
        }
    }

    #[inline]
    fn contains(&self, e: usize) -> bool {
        match self {
            WriteSet::Inline { buf, len } => buf[..*len].contains(&e),
            WriteSet::Spilled(set) => set.contains(&e),
        }
    }

    /// Inserts `e`; returns `true` when it was not already present.
    #[inline]
    fn insert(&mut self, e: usize) -> bool {
        match self {
            WriteSet::Inline { buf, len } => {
                if buf[..*len].contains(&e) {
                    return false;
                }
                if *len < INLINE_WRITES {
                    buf[*len] = e;
                    *len += 1;
                } else {
                    let mut set: HashSet<usize> = buf.iter().copied().collect();
                    set.insert(e);
                    *self = WriteSet::Spilled(set);
                }
                true
            }
            WriteSet::Spilled(set) => set.insert(e),
        }
    }
}

/// Marks accesses for one iteration. Create with [`Shadow::iteration`].
///
/// Call order matters within an iteration: a read is *exposed* unless this
/// marker has already seen a write to the same element.
///
/// Access totals are buffered on the marker and flushed to the shared
/// [`Shadow`] counters in one `fetch_add` per counter when the marker
/// drops, so a dense loop body costs two shared RMWs per *iteration*
/// instead of one per *access*. [`Shadow::total_accesses`] is therefore
/// only meaningful once the iteration's marker has been dropped — which
/// the region join guarantees before any post-pass reads it.
#[derive(Debug)]
pub struct IterMarker<'a> {
    shadow: &'a Shadow,
    iter: u32,
    written: WriteSet,
    pending_writes: u64,
    pending_reads: u64,
}

impl IterMarker<'_> {
    /// Records a read of element `e`.
    pub fn mark_read(&mut self, e: usize) {
        self.pending_reads += 1;
        if !self.written.contains(e) {
            insert_stamp(&self.shadow.r[e], self.iter);
        }
    }

    /// Records a write of element `e`.
    pub fn mark_write(&mut self, e: usize) {
        self.pending_writes += 1;
        if self.written.insert(e) {
            insert_stamp(&self.shadow.w[e], self.iter);
        }
    }

    /// The iteration this marker stamps with.
    #[inline]
    pub fn iter(&self) -> usize {
        self.iter as usize
    }

    /// Re-aims the marker at iteration `iter`: the covered-write set
    /// starts empty again (a new iteration has covered nothing yet), the
    /// buffered access totals are kept and still flushed once, on drop. A
    /// worker that executes many iterations keeps one marker and restarts
    /// it, paying the two shared-counter flushes once per region instead
    /// of once per iteration.
    ///
    /// # Panics
    /// Panics if `iter >= u32::MAX − 1` (stamp space), like
    /// [`Shadow::iteration`].
    pub fn restart(&mut self, iter: usize) {
        let iter32 = u32::try_from(iter).expect("iteration fits in u32");
        assert!(iter32 < UNMARKED, "iteration stamp space exhausted");
        self.iter = iter32;
        self.written = WriteSet::new();
    }
}

impl Drop for IterMarker<'_> {
    fn drop(&mut self) {
        if self.pending_writes != 0 {
            self.shadow
                .total_writes
                .fetch_add(self.pending_writes, Ordering::Relaxed);
        }
        if self.pending_reads != 0 {
            self.shadow
                .total_reads
                .fetch_add(self.pending_reads, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::new(4)
    }

    #[test]
    fn disjoint_writes_are_a_doall() {
        let sh = Shadow::new(16);
        for i in 0..16 {
            let mut m = sh.iteration(i);
            m.mark_write(i);
            m.mark_read(i); // covered read
        }
        let v = sh.analyze(&pool(), None, 8);
        assert!(v.doall);
        assert!(v.privatized_doall);
        assert!(v.conflicts.is_empty());
    }

    #[test]
    fn a_restarted_marker_marks_like_a_fresh_one() {
        // one marker carried across iterations must not let iteration 0's
        // write cover iteration 1's read of the same element
        let sh = Shadow::new(4);
        let mut m = sh.iteration(0);
        m.mark_write(2);
        m.restart(1);
        assert_eq!(m.iter(), 1);
        m.mark_read(2);
        drop(m);
        assert_eq!(sh.total_accesses(), 2, "totals flush once, on drop");
        let v = sh.analyze(&pool(), None, 8);
        assert!(!v.doall, "the exposed read must be seen");
        assert_eq!(v.conflicts[0].kind, ConflictKind::FlowOrAnti);
    }

    #[test]
    fn cross_iteration_flow_fails_both() {
        let sh = Shadow::new(4);
        sh.iteration(0).mark_write(2);
        sh.iteration(1).mark_read(2); // exposed read of another iter's write
        let v = sh.analyze(&pool(), None, 8);
        assert!(!v.doall);
        assert!(!v.privatized_doall);
        assert_eq!(
            v.conflicts,
            vec![Conflict {
                element: 2,
                kind: ConflictKind::FlowOrAnti
            }]
        );
    }

    #[test]
    fn output_dependence_is_rescued_by_privatization() {
        let sh = Shadow::new(4);
        // two iterations write element 1, neither exposed-reads it
        {
            let mut m = sh.iteration(0);
            m.mark_write(1);
            m.mark_read(1); // covered
        }
        sh.iteration(5).mark_write(1);
        let v = sh.analyze(&pool(), None, 8);
        assert!(!v.doall);
        assert!(v.privatized_doall);
        assert_eq!(v.conflicts[0].kind, ConflictKind::Output);
    }

    #[test]
    fn read_before_write_same_single_iteration_is_fine() {
        // Only iteration 3 touches element 0: reads it, then writes it.
        // Loop-independent anti dependence — still a valid DOALL.
        let sh = Shadow::new(1);
        let mut m = sh.iteration(3);
        m.mark_read(0);
        m.mark_write(0);
        let v = sh.analyze(&pool(), None, 8);
        assert!(v.doall);
        assert!(v.privatized_doall);
    }

    #[test]
    fn read_before_write_plus_other_reader_fails() {
        let sh = Shadow::new(1);
        {
            let mut m = sh.iteration(3);
            m.mark_read(0);
            m.mark_write(0);
        }
        sh.iteration(7).mark_read(0); // exposed read in another iteration
        let v = sh.analyze(&pool(), None, 8);
        assert!(!v.doall);
        assert!(!v.privatized_doall);
    }

    #[test]
    fn read_only_elements_never_conflict() {
        let sh = Shadow::new(8);
        for i in 0..20 {
            sh.iteration(i).mark_read(i % 8);
        }
        let v = sh.analyze(&pool(), None, 8);
        assert!(v.doall);
    }

    #[test]
    fn overshoot_filtering_ignores_late_marks() {
        let sh = Shadow::new(4);
        sh.iteration(2).mark_write(0);
        sh.iteration(9).mark_read(0); // conflicting, but iteration 9 overshot
        let bad = sh.analyze(&pool(), None, 8);
        assert!(!bad.doall);
        let good = sh.analyze(&pool(), Some(5), 8);
        assert!(good.doall, "marks past LI=5 must be ignored");
    }

    #[test]
    fn overshoot_filtering_is_exact_with_two_stamps() {
        // W = {3, 10}: with LI = 5 only iteration 3 remains a valid writer,
        // but the overshot write by 10 may have clobbered 3's value after
        // its stamp was recorded — unsound to keep in place (doall fails),
        // yet perfectly privatizable (the overlay confines iteration 10).
        let sh = Shadow::new(1);
        sh.iteration(3).mark_write(0);
        sh.iteration(10).mark_write(0);
        assert!(!sh.analyze(&pool(), None, 8).doall);
        let v = sh.analyze(&pool(), Some(5), 8);
        assert!(!v.doall, "overshoot hazard must fail in-place speculation");
        assert!(v.privatized_doall, "privatized execution is immune");
        // W = {3, 4}: LI = 5 keeps both → output dependence.
        let sh2 = Shadow::new(1);
        sh2.iteration(3).mark_write(0);
        sh2.iteration(4).mark_write(0);
        let v = sh2.analyze(&pool(), Some(5), 8);
        assert!(!v.doall);
        assert!(v.privatized_doall);
    }

    #[test]
    fn overshot_write_to_untouched_element_is_harmless() {
        // only overshot iterations write e: the undo restores the
        // checkpoint and nobody valid observed anything
        let sh = Shadow::new(1);
        sh.iteration(9).mark_write(0);
        sh.iteration(11).mark_write(0);
        let v = sh.analyze(&pool(), Some(5), 8);
        assert!(v.doall);
        assert!(v.privatized_doall);
    }

    #[test]
    fn valid_read_with_overshot_writer_is_a_hazard() {
        // iteration 2 (valid) reads e; iteration 9 (overshot) writes it —
        // the read may have observed the doomed value
        let sh = Shadow::new(1);
        sh.iteration(2).mark_read(0);
        sh.iteration(9).mark_write(0);
        let v = sh.analyze(&pool(), Some(5), 8);
        assert!(!v.doall);
        assert!(v.privatized_doall, "the overlay shields the read");
    }

    #[test]
    fn exposed_read_in_writing_iteration_plus_late_read_filters() {
        // ER = {3, 9}, W = {3}. With LI = 5: ER_f = {3} ⊆ W_f → valid.
        let sh = Shadow::new(1);
        {
            let mut m = sh.iteration(3);
            m.mark_read(0);
            m.mark_write(0);
        }
        sh.iteration(9).mark_read(0);
        assert!(!sh.analyze(&pool(), None, 8).doall);
        assert!(sh.analyze(&pool(), Some(5), 8).doall);
    }

    #[test]
    fn covered_reads_do_not_mark_exposed() {
        let sh = Shadow::new(2);
        {
            let mut m = sh.iteration(0);
            m.mark_write(1);
            m.mark_read(1); // covered: must not create an ER mark
        }
        sh.iteration(4).mark_write(1); // second writer
        let v = sh.analyze(&pool(), None, 8);
        assert!(!v.doall); // output dep
        assert!(
            v.privatized_doall,
            "covered read must not block privatization"
        );
    }

    #[test]
    fn covered_reads_stay_covered_past_the_inline_spill() {
        // One iteration writes more distinct elements than the inline
        // write-set holds, then reads every one of them: all reads are
        // covered, so a second writer per element must still leave the
        // loop privatizable.
        let n = INLINE_WRITES * 3;
        let sh = Shadow::new(n);
        {
            let mut m = sh.iteration(0);
            for e in 0..n {
                m.mark_write(e);
            }
            for e in 0..n {
                m.mark_read(e); // covered, before AND after the spill
            }
        }
        for e in 0..n {
            sh.iteration(4).mark_write(e);
        }
        let v = sh.analyze(&pool(), None, n);
        assert!(!v.doall, "double writes are an output dependence");
        assert!(
            v.privatized_doall,
            "spilled write-set must keep classifying reads as covered"
        );
        assert_eq!(sh.total_accesses(), (3 * n) as u64);
    }

    #[test]
    fn conflicts_report_in_element_order_across_words() {
        // Elements straddling several 64-bit sweep words, each with an
        // output dependence: the report must stay in ascending element
        // order exactly like the elementwise analysis produced.
        let picks = [3usize, 63, 64, 65, 130, 200];
        let sh = Shadow::new(256);
        for &e in &picks {
            sh.iteration(0).mark_write(e);
            sh.iteration(1).mark_write(e);
        }
        let v = sh.analyze(&pool(), None, 16);
        let got: Vec<usize> = v.conflicts.iter().map(|c| c.element).collect();
        assert_eq!(got, picks.to_vec());
        assert!(v.conflicts.iter().all(|c| c.kind == ConflictKind::Output));
    }

    #[test]
    fn stamp_insertion_keeps_two_smallest_distinct() {
        let cell = AtomicU64::new(pack(UNMARKED, UNMARKED));
        for t in [7u32, 3, 7, 9, 5, 3, 1] {
            insert_stamp(&cell, t);
        }
        assert_eq!(stamps(&cell), (1, 3));
    }

    #[test]
    fn concurrent_marking_is_consistent() {
        let sh = Shadow::new(64);
        let p = Pool::new(8);
        p.run(|vpn| {
            // each worker is "iterations" vpn, vpn+8, ... writing disjoint cells
            for k in 0..8 {
                let iter = vpn + 8 * k;
                let mut m = sh.iteration(iter);
                m.mark_write(iter);
                m.mark_read(iter);
            }
        });
        let v = sh.analyze(&p, None, 8);
        assert!(v.doall);
        assert_eq!(sh.total_accesses(), 128);
    }

    #[test]
    fn reset_clears_marks() {
        let mut sh = Shadow::new(2);
        sh.iteration(0).mark_write(0);
        sh.iteration(1).mark_read(0);
        assert!(!sh.analyze(&pool(), None, 8).doall);
        sh.reset();
        assert!(sh.analyze(&pool(), None, 8).doall);
        assert_eq!(sh.total_accesses(), 0);
    }

    #[test]
    fn conflict_cap_limits_report_not_verdict() {
        let sh = Shadow::new(32);
        for e in 0..32 {
            sh.iteration(0).mark_write(e);
            sh.iteration(1).mark_write(e);
        }
        let v = sh.analyze(&pool(), None, 4);
        assert!(!v.doall);
        assert_eq!(v.conflicts.len(), 4);
    }
}
