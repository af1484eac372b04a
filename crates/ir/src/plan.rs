//! Strategy selection: from IR analysis to an execution plan.
//!
//! Ties the pipeline together: distribute the loop, find the dispatching
//! recurrence (the hierarchically top-level one), classify per Table 1,
//! decide whether the remainder needs run-time dependence testing
//! (unanalyzable accesses), and pick the concrete method from `wlp-core`.

use crate::dependence::dep_graph;
use crate::distribute::{distribute_with, fuse, FusedBlock, LoopNature};
use crate::ir::{LoopIr, Stmt, StmtKind, Subscript, UpdateOp, WRef};
use wlp_core::taxonomy::{classify, DispatcherClass, TaxonomyCell, TerminatorClass};

/// The concrete execution method the planner recommends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Induction-1/2 DOALL (Section 3.1).
    InductionDoall,
    /// Parallel prefix + DOALL (Section 3.2).
    PrefixDoall,
    /// General-3 dynamic self-scheduling (Section 3.3; the paper's best
    /// general-recurrence method).
    General3,
    /// Execute sequentially (no exploitable parallelism).
    Sequential,
}

/// The complete plan for one WHILE loop.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Dispatcher classification.
    pub dispatcher: DispatcherClass,
    /// Terminator classification.
    pub terminator: TerminatorClass,
    /// The Table 1 cell.
    pub cell: TaxonomyCell,
    /// Chosen method.
    pub strategy: StrategyKind,
    /// The remainder has unanalyzable accesses: speculate with the PD test.
    pub needs_pd_test: bool,
    /// Overshoot is possible: checkpoint + time-stamps + undo required.
    pub needs_undo: bool,
    /// The loop distributes into several blocks with at least one
    /// sequential among them: the sequential blocks can be scheduled in a
    /// DOACROSS fashion against their successors (Section 6).
    pub doacross_opportunity: bool,
    /// The fused loop structure (for multi-recurrence bodies).
    pub blocks: Vec<FusedBlock>,
}

fn dispatcher_class(op: UpdateOp) -> DispatcherClass {
    match op {
        UpdateOp::AddConst => DispatcherClass::MonotonicInduction,
        UpdateOp::MulAddConst => DispatcherClass::Associative,
        UpdateOp::PointerChase | UpdateOp::Other => DispatcherClass::General,
    }
}

/// `body` with every unanalyzable array reference removed. Dependences
/// provable on the censored body hold no matter what the `Unknown`
/// accesses turn out to touch — removing references can only remove
/// conflicts, never create them.
fn censor_unknown(body: &LoopIr) -> LoopIr {
    let unknown = |r: &WRef| matches!(r, WRef::Element(_, Subscript::Unknown));
    let mut out = LoopIr::new();
    for s in &body.stmts {
        let mut c = s.clone();
        c.writes.retain(|r| !unknown(r));
        c.reads.retain(|r| !unknown(r));
        out.push(c);
    }
    out
}

fn unknown_access(s: &Stmt) -> bool {
    s.writes
        .iter()
        .chain(s.reads.iter())
        .any(|r| matches!(r, WRef::Element(_, Subscript::Unknown)))
}

fn has_unknown_access(body: &LoopIr, stmts: &[usize]) -> bool {
    stmts.iter().any(|&s| unknown_access(&body.stmts[s]))
}

/// Plans the parallelization of `body`.
///
/// The terminator is RV iff some exit test reads a location that a
/// non-dispatcher statement writes (directly or through an unanalyzable
/// array); otherwise RI. The dispatcher is the first recurrence update in
/// dependence order — absent one, the loop is treated as a DO loop
/// (monotonic induction over the implicit counter).
pub fn plan(body: &LoopIr) -> Plan {
    let g = dep_graph(body);
    let loops = distribute_with(body, &g);

    // dispatcher: first distributed loop that is exactly a recurrence
    let dispatcher_op = loops.iter().find_map(|l| l.recurrence);
    let dispatcher = dispatcher_op.map_or(DispatcherClass::MonotonicInduction, dispatcher_class);

    // terminator: RV iff an exit test depends on something written by a
    // non-update statement of the loop
    let body_writes: Vec<&WRef> = body
        .stmts
        .iter()
        .filter(|s| !matches!(s.kind, StmtKind::Update(_)))
        .flat_map(|s| s.writes.iter())
        .collect();
    let rv = body.exit_tests().any(|t| {
        body.stmts[t].reads.iter().any(|r| {
            body_writes.iter().any(|w| match (r, w) {
                (WRef::Scalar(a), WRef::Scalar(b)) => a == b,
                (WRef::Element(a, _), WRef::Element(b, _)) => a == b,
                _ => false,
            })
        })
    });
    let terminator = if rv {
        TerminatorClass::RemainderVariant
    } else {
        TerminatorClass::RemainderInvariant
    };
    let cell = classify(dispatcher, terminator);

    // remainder statements: everything that is not a recurrence update
    let remainder: Vec<usize> = (0..body.len())
        .filter(|&s| !matches!(body.stmts[s].kind, StmtKind::Update(_)))
        .collect();
    let needs_pd_test = has_unknown_access(body, &remainder);

    // a remainder with a loop-carried cycle among analyzable accesses is
    // provably sequential — no point speculating on a known dependence.
    // The cycle is just as provable when the offending statements *also*
    // touch Unknown locations: censor those references and re-test, so a
    // guaranteed-to-abort speculation is never planned. A body with no
    // Unknown reference is its own censored body, already tested.
    let remainder_sequential = loops
        .iter()
        .filter(|l| l.recurrence.is_none())
        .any(|l| l.nature == LoopNature::Sequential && !has_unknown_access(body, &l.stmts))
        || (body.stmts.iter().any(unknown_access) && {
            let censored = censor_unknown(body);
            let cg = dep_graph(&censored);
            distribute_with(&censored, &cg)
                .iter()
                .any(|l| l.recurrence.is_none() && l.nature == LoopNature::Sequential)
        });

    let strategy = if remainder_sequential {
        StrategyKind::Sequential
    } else {
        match dispatcher {
            DispatcherClass::MonotonicInduction | DispatcherClass::Induction => {
                StrategyKind::InductionDoall
            }
            DispatcherClass::Associative => StrategyKind::PrefixDoall,
            DispatcherClass::General => StrategyKind::General3,
        }
    };

    let blocks = fuse(loops, 0);
    let doacross_opportunity =
        blocks.len() > 1 && blocks.iter().any(|b| b.nature == LoopNature::Sequential);

    Plan {
        dispatcher,
        terminator,
        cell,
        strategy,
        needs_pd_test,
        needs_undo: cell.can_overshoot,
        doacross_opportunity,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::examples;

    #[test]
    fn list_traversal_plans_general3_no_undo() {
        let p = plan(&examples::figure1b_list_traversal());
        assert_eq!(p.dispatcher, DispatcherClass::General);
        assert_eq!(p.terminator, TerminatorClass::RemainderInvariant);
        assert_eq!(p.strategy, StrategyKind::General3);
        assert!(
            !p.needs_undo,
            "RI null terminator: no backups (Table 2 SPICE row)"
        );
        assert!(p.needs_pd_test, "the worked array is unanalyzable");
    }

    #[test]
    fn affine_loop_plans_prefix() {
        let p = plan(&examples::figure1e_affine());
        assert_eq!(p.dispatcher, DispatcherClass::Associative);
        assert_eq!(p.strategy, StrategyKind::PrefixDoall);
    }

    #[test]
    fn independent_do_loop_plans_induction() {
        let p = plan(&examples::figure5a_independent());
        assert_eq!(p.dispatcher, DispatcherClass::MonotonicInduction);
        assert_eq!(p.strategy, StrategyKind::InductionDoall);
    }

    #[test]
    fn known_recurrence_plans_sequential() {
        let p = plan(&examples::figure5c_recurrence());
        assert_eq!(
            p.strategy,
            StrategyKind::Sequential,
            "a provable flow recurrence must not be speculated on"
        );
    }

    #[test]
    fn provable_cycle_with_unknown_access_plans_sequential() {
        // B[i+1] = B[i] + A[idx[i]]: the carried flow dependence on B is
        // provable from the affine subscripts alone; the Unknown read of A
        // must not launder it into a speculation that always aborts
        use crate::ir::{ArrayId, Stmt, Subscript, WRef};
        let a = ArrayId(0);
        let b = ArrayId(1);
        let mut l = crate::ir::LoopIr::new();
        l.push(Stmt::assign(
            vec![WRef::Element(
                b,
                Subscript::Affine {
                    coeff: 1,
                    offset: 1,
                },
            )],
            vec![
                WRef::Element(
                    b,
                    Subscript::Affine {
                        coeff: 1,
                        offset: 0,
                    },
                ),
                WRef::Element(a, Subscript::Unknown),
            ],
        ));
        let p = plan(&l);
        assert_eq!(
            p.strategy,
            StrategyKind::Sequential,
            "a provable carried cycle must win over the Unknown access: {p:?}"
        );
    }

    #[test]
    fn track_style_loop_needs_pd_and_undo() {
        let p = plan(&examples::track_style_unknown());
        assert_eq!(p.strategy, StrategyKind::InductionDoall);
        assert!(p.needs_pd_test, "subscripted subscripts need the PD test");
        assert_eq!(p.terminator, TerminatorClass::RemainderVariant);
        assert!(
            p.needs_undo,
            "RV: backups and time-stamps (Table 2 TRACK row)"
        );
    }

    #[test]
    fn multi_block_loops_expose_a_doacross_opportunity() {
        let p = plan(&examples::figure1b_list_traversal());
        assert!(
            p.doacross_opportunity,
            "dispatcher block + work block ⇒ DOACROSS schedulable"
        );
        let q = plan(&examples::figure5a_independent());
        assert!(
            !q.doacross_opportunity,
            "a single parallel block has nothing to pipeline"
        );
    }

    #[test]
    fn plan_blocks_cover_all_statements() {
        let body = examples::figure1b_list_traversal();
        let p = plan(&body);
        let covered: usize = p.blocks.iter().map(|b| b.stmts().len()).sum();
        assert_eq!(covered, body.len());
    }
}
