//! The Section 6 fission certifier: SCC condensation → distribution →
//! fusion → per-block certificates → DOACROSS edges.
//!
//! The whole-loop analysis ([`crate::analyze::analyze`]) answers "can this
//! loop run parallel as one piece?". For multi-recurrence bodies the
//! honest answer is often *no* — one provable recurrence forces the whole
//! plan sequential — even though most statements are independent. This
//! pass recovers that parallelism at the plan level:
//!
//! 1. take the dependence graph of the **dispatcher-censored,
//!    privatization-refined remainder** (so privatized scalars and the
//!    dispatcher's own carried edges do not glue unrelated statements
//!    together) from the whole loop's certificate core, which built it
//!    for its carried-edge census, and distribute along its SCCs
//!    ([`wlp_ir::distribute::distribute_with`], which condenses it once);
//! 2. fuse contiguous same-nature loops bottom-up ([`wlp_ir::fuse`]),
//!    then apply the ICC-style splitting criterion: a *parallel* block is
//!    split wherever a loop-carried edge connects two of its statements —
//!    the cut converts an intra-block dependence (which would force the
//!    PD shadow on everything) into a cross-block edge the DOACROSS
//!    schedule synchronizes explicitly;
//! 3. certify every **work block** (a block containing at least one
//!    computation statement) independently, by masking the body down to
//!    the block's statements and running the privatize → refined plan →
//!    carried-edge census → write count steps the whole loop's
//!    certificate is made of (`certify_block` in [`mod@crate::analyze`]);
//!    terminator and dispatcher parallelism are the whole loop's;
//! 4. emit the cross-block loop-carried edges with computed
//!    synchronization distances — for affine subscript pairs with equal
//!    stride the distance is exact `(o₁−o₂)/c`; anything else is
//!    conservatively distance 1 (sync every iteration).
//!
//! The result is the contract the runtime schedules: each block is one
//! DOACROSS stage; a stage executes iteration `i` only after its
//! predecessor stages have passed the sync points the edges dictate.

use crate::analyze::{certify_block, certify_core, CertCore};
use crate::certificate::{CertVerdict, SafetyCertificate};
use std::collections::BTreeSet;
use wlp_ir::dependence::{DepGraph, DepKind};
use wlp_ir::distribute::{distribute_with, fuse, DistributedLoop, FusedBlock, LoopNature};
use wlp_ir::span::Span;
use wlp_ir::{LoopIr, StmtKind, Subscript, WRef};

/// One fused work block with its own safety certificate.
#[derive(Debug, Clone)]
pub struct BlockCertificate {
    /// Block position among the plan's work blocks (DOACROSS stage index).
    pub index: usize,
    /// Original-body statement indices, ascending.
    pub stmts: Vec<usize>,
    /// Nature the distribution assigned (conservative: `Sequential` when
    /// any member has a carried self-dependence, `Unknown`s included).
    pub nature: LoopNature,
    /// The block's certificate: the whole-loop certificate steps run on
    /// the body masked to this block, with the whole loop's terminator
    /// and dispatcher parallelism.
    pub certificate: SafetyCertificate,
    /// Union of the member statements' source spans.
    pub span: Option<Span>,
}

impl BlockCertificate {
    /// `"stmt 2"` / `"stmts 1,2"` — for diagnostics.
    pub fn describe_stmts(&self) -> String {
        let list = self
            .stmts
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",");
        if self.stmts.len() == 1 {
            format!("stmt {list}")
        } else {
            format!("stmts {list}")
        }
    }
}

/// A loop-carried dependence crossing two work blocks: the DOACROSS
/// synchronization the schedule must enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoacrossEdge {
    /// Source work-block index (the earlier stage).
    pub from_block: usize,
    /// Sink work-block index (the later stage).
    pub to_block: usize,
    /// Dependence kind of the tightest edge.
    pub kind: DepKind,
    /// Synchronization distance in iterations (≥ 1): stage `to_block` of
    /// iteration `i` may start once stage `from_block` of iteration
    /// `i − distance` has finished.
    pub distance: u64,
}

/// The plan-level fission result for one loop body.
#[derive(Debug, Clone, Default)]
pub struct FissionPlan {
    /// SCC count of the censored remainder dependence graph (every SCC is
    /// the unit of distribution).
    pub scc_count: usize,
    /// The certified work blocks, in statement (= topological) order.
    /// Exit-test-only and dispatcher-only blocks are not listed: their
    /// values are materialized by the dispatcher machinery, not by a
    /// remainder stage.
    pub blocks: Vec<BlockCertificate>,
    /// Cross-block loop-carried edges, `from_block < to_block`.
    pub edges: Vec<DoacrossEdge>,
}

impl FissionPlan {
    /// Whether distribution actually split the remainder work.
    pub fn is_fissioned(&self) -> bool {
        self.blocks.len() >= 2
    }

    /// Number of DOACROSS stages the runtime schedules (one per work
    /// block).
    pub fn stages(&self) -> usize {
        self.blocks.len()
    }

    /// Work blocks certified something other than sequential.
    pub fn parallel_blocks(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.certificate.verdict != CertVerdict::CertifiedSequential)
            .count()
    }

    /// The tightest cross-block sync distance, when any edge exists.
    pub fn min_sync_distance(&self) -> Option<u64> {
        self.edges.iter().map(|e| e.distance).min()
    }

    /// The `fission: …` summary line, present only when the plan really
    /// splits the remainder (single-block loops print nothing extra).
    pub fn summary(&self) -> Option<String> {
        if !self.is_fissioned() {
            return None;
        }
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                format!(
                    "#{} {} ({})",
                    b.index,
                    b.certificate.verdict.name(),
                    b.describe_stmts()
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let edges = if self.edges.is_empty() {
            "no doacross edges".to_string()
        } else {
            format!(
                "{} doacross edge{} (min distance {})",
                self.edges.len(),
                if self.edges.len() == 1 { "" } else { "s" },
                self.min_sync_distance().unwrap_or(1),
            )
        };
        Some(format!(
            "fission: {} sccs → {} blocks [{}]; {}",
            self.scc_count,
            self.blocks.len(),
            blocks,
            edges
        ))
    }
}

/// `body` with every statement outside `keep` reduced to a no-op (its
/// read/write sets cleared, kind and span retained). Statement indices —
/// and therefore certificates' `uncertain_stmts` — stay body-global.
pub fn masked_body(body: &LoopIr, keep: &[usize]) -> LoopIr {
    let keep: BTreeSet<usize> = keep.iter().copied().collect();
    let mut out = LoopIr::new();
    for (si, s) in body.stmts.iter().enumerate() {
        let mut c = s.clone();
        if !keep.contains(&si) {
            c.writes.clear();
            c.reads.clear();
        }
        out.push(c);
    }
    out
}

/// ICC-style refinement: split a parallel block wherever a loop-carried
/// edge connects two distinct member statements, so the dependence
/// becomes a cross-block DOACROSS edge instead of forcing speculation on
/// the whole block. Sequential blocks keep their carried cycles internal
/// — that is what makes them sequential stages.
fn split_at_carried_sinks(blocks: Vec<FusedBlock>, g: &DepGraph) -> Vec<FusedBlock> {
    let mut out = Vec::new();
    for blk in blocks {
        if blk.nature == LoopNature::Sequential {
            out.push(blk);
            continue;
        }
        let mut cur: Vec<DistributedLoop> = Vec::new();
        for lp in blk.loops {
            let closes_carried_edge = g.edges.iter().any(|e| {
                e.loop_carried
                    && e.from != e.to
                    && lp.stmts.contains(&e.to)
                    && cur.iter().any(|c| c.stmts.contains(&e.from))
            });
            if closes_carried_edge && !cur.is_empty() {
                out.push(FusedBlock {
                    loops: std::mem::take(&mut cur),
                    nature: LoopNature::Parallel,
                });
            }
            cur.push(lp);
        }
        if !cur.is_empty() {
            out.push(FusedBlock {
                loops: cur,
                nature: LoopNature::Parallel,
            });
        }
    }
    out
}

/// The exact dependence distance between two affine accesses of equal
/// stride: source `c·i+o₁` at iteration `i` collides with sink `c·j+o₂`
/// at iteration `j = i + (o₁−o₂)/c`. Returns the distance when it is a
/// positive integer, `None` otherwise (the caller falls back to 1).
fn affine_distance(w: &WRef, r: &WRef) -> Option<u64> {
    let (WRef::Element(a1, s1), WRef::Element(a2, s2)) = (w, r) else {
        return None;
    };
    if a1 != a2 {
        return None;
    }
    let (
        Subscript::Affine {
            coeff: c1,
            offset: o1,
        },
        Subscript::Affine {
            coeff: c2,
            offset: o2,
        },
    ) = (s1, s2)
    else {
        return None;
    };
    if c1 != c2 || *c1 == 0 || (o1 - o2) % c1 != 0 {
        return None;
    }
    let d = (o1 - o2) / c1;
    u64::try_from(d).ok().filter(|&d| d > 0)
}

/// The synchronization distance of the carried dependence between two
/// statements: the minimum exact affine distance over all conflicting
/// cross-iteration reference pairs, defaulting to 1 (sync every
/// iteration) when no pair is exactly analyzable.
fn sync_distance(from: &wlp_ir::Stmt, to: &wlp_ir::Stmt) -> u64 {
    let mut best: Option<u64> = None;
    let pairs = from
        .writes
        .iter()
        .flat_map(|w| to.reads.iter().chain(to.writes.iter()).map(move |r| (w, r)))
        .chain(
            from.reads
                .iter()
                .flat_map(|r| to.writes.iter().map(move |w| (r, w))),
        );
    for (a, b) in pairs {
        if !wlp_ir::refs_conflict_cross_iteration(a, b) {
            continue;
        }
        match affine_distance(a, b) {
            Some(d) => best = Some(best.map_or(d, |b: u64| b.min(d))),
            // a conflicting pair we cannot bound: sync every iteration
            None => return 1,
        }
    }
    best.unwrap_or(1).max(1)
}

/// Runs the fission certifier over one loop body.
pub fn fission_plan(body: &LoopIr) -> FissionPlan {
    fission_of(body, &certify_core(body))
}

/// The fission certifier over the whole loop's certificate core: its
/// remainder view and graph are what distribution splits, and its
/// certificate supplies the whole-loop terminator and parallelism every
/// block certificate carries.
pub(crate) fn fission_of(body: &LoopIr, core: &CertCore) -> FissionPlan {
    let view = &core.refinement.rem_view;
    let g = &core.refinement.rem_graph;
    let loops = distribute_with(view, g);
    // distribution yields one loop per SCC
    let scc_count = loops.len();
    let fused = fuse(loops, 0);
    let split = split_at_carried_sinks(fused, g);

    let mut blocks = Vec::new();
    for blk in &split {
        let stmts = blk.stmts();
        let has_work = stmts
            .iter()
            .any(|&s| matches!(body.stmts[s].kind, StmtKind::Assign));
        if !has_work {
            continue;
        }
        let certificate = certify_block(&masked_body(body, &stmts), &core.certificate);
        let span = stmts
            .iter()
            .filter_map(|&s| body.stmts[s].span)
            .reduce(|a, b| a.to(b));
        blocks.push(BlockCertificate {
            index: blocks.len(),
            stmts,
            nature: blk.nature,
            certificate,
            span,
        });
    }

    let edges = doacross_edges(view, g, &blocks);
    FissionPlan {
        scc_count,
        blocks,
        edges,
    }
}

/// Collects the loop-carried edges crossing two work blocks, one edge
/// per block pair carrying the minimum synchronization distance.
fn doacross_edges(view: &LoopIr, g: &DepGraph, blocks: &[BlockCertificate]) -> Vec<DoacrossEdge> {
    let block_of = |stmt: usize| blocks.iter().position(|b| b.stmts.contains(&stmt));
    let mut out: Vec<DoacrossEdge> = Vec::new();
    for e in &g.edges {
        if !e.loop_carried || e.from == e.to {
            continue;
        }
        let (Some(bf), Some(bt)) = (block_of(e.from), block_of(e.to)) else {
            continue;
        };
        if bf == bt {
            continue;
        }
        let d = sync_distance(&view.stmts[e.from], &view.stmts[e.to]);
        match out
            .iter_mut()
            .find(|x| x.from_block == bf && x.to_block == bt)
        {
            Some(x) if d < x.distance => {
                x.distance = d;
                x.kind = e.kind;
            }
            Some(_) => {}
            None => out.push(DoacrossEdge {
                from_block: bf,
                to_block: bt,
                kind: e.kind,
                distance: d,
            }),
        }
    }
    out.sort_by_key(|e| (e.from_block, e.to_block));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlp_ir::frontend::{lower, parse_program};

    fn body_of(src: &str) -> LoopIr {
        lower(&parse_program(src).expect("parse")).expect("lower")
    }

    const WAVEFRONT: &str = "integer i = 1\nwhile (i < n) {\n    B[i] = B[i - 1] + w[i]\n    C[i] = B[i - 1] + 3\n    i = i + 1\n}";

    #[test]
    fn wavefront_splits_into_recurrence_and_consumer_blocks() {
        let f = fission_plan(&body_of(WAVEFRONT));
        assert!(f.is_fissioned(), "{f:?}");
        assert_eq!(f.blocks.len(), 2, "{f:?}");
        assert_eq!(
            f.blocks[0].certificate.verdict,
            CertVerdict::CertifiedSequential
        );
        assert_eq!(f.blocks[1].certificate.verdict, CertVerdict::CertifiedDoall);
        assert_eq!(f.edges.len(), 1, "{f:?}");
        assert_eq!(f.edges[0].from_block, 0);
        assert_eq!(f.edges[0].to_block, 1);
        assert_eq!(f.edges[0].distance, 1);
    }

    #[test]
    fn carried_edge_between_parallel_statements_is_cut_into_two_doall_blocks() {
        // both statements are parallel singletons (no self-dependence),
        // but A's write feeds D's read one iteration later: whole-loop
        // analysis must speculate, fission certifies two DOALL stages
        // with an explicit sync edge instead
        let src = "integer i = 1\nwhile (i < n) {\n    A[i] = 2 * w[i]\n    D[i] = A[i - 1] + 1\n    i = i + 1\n}";
        let f = fission_plan(&body_of(src));
        assert_eq!(f.blocks.len(), 2, "{f:?}");
        assert!(f
            .blocks
            .iter()
            .all(|b| b.certificate.verdict == CertVerdict::CertifiedDoall));
        assert_eq!(f.edges.len(), 1, "{f:?}");
        assert_eq!(f.edges[0].distance, 1);
    }

    #[test]
    fn larger_affine_offsets_compute_exact_sync_distances() {
        let src = "integer i = 3\nwhile (i < n) {\n    A[i] = 2 * w[i]\n    D[i] = A[i - 3] + 1\n    i = i + 1\n}";
        let f = fission_plan(&body_of(src));
        assert_eq!(f.edges.len(), 1, "{f:?}");
        assert_eq!(f.edges[0].distance, 3);
    }

    #[test]
    fn single_block_loops_are_not_fissioned() {
        let src = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";
        let f = fission_plan(&body_of(src));
        assert_eq!(f.blocks.len(), 1, "{f:?}");
        assert!(!f.is_fissioned());
        assert!(f.summary().is_none());
        assert!(f.edges.is_empty());
    }

    #[test]
    fn pure_sequential_recurrence_stays_one_sequential_block() {
        let src = "integer i = 1\nwhile (i < n) {\n    A[i] = A[i] + A[i - 1]\n    i = i + 1\n}";
        let f = fission_plan(&body_of(src));
        assert_eq!(f.blocks.len(), 1, "{f:?}");
        assert_eq!(
            f.blocks[0].certificate.verdict,
            CertVerdict::CertifiedSequential
        );
    }

    #[test]
    fn block_spans_cover_their_statements_and_summary_mentions_blocks() {
        let f = fission_plan(&body_of(WAVEFRONT));
        for b in &f.blocks {
            assert!(b.span.is_some(), "{b:?}");
        }
        let s = f.summary().expect("fissioned");
        assert!(s.contains("2 blocks"), "{s}");
        assert!(s.contains("doacross edge"), "{s}");
    }

    #[test]
    fn masked_body_keeps_indices_and_clears_foreign_refs() {
        let body = body_of(WAVEFRONT);
        let m = masked_body(&body, &[1]);
        assert_eq!(m.len(), body.len());
        assert!(!m.stmts[1].writes.is_empty());
        assert!(m.stmts[2].writes.is_empty() && m.stmts[2].reads.is_empty());
    }
}
