//! Per-block certificate agreement over the `examples/loops` corpus:
//! every [`BlockCertificate`] and [`DoacrossEdge`] the fission certifier
//! emits must survive the dynamic PD oracle on concrete executions.
//!
//! For each corpus loop the body is concretized under several adversarial
//! `Unknown` resolvers, and each block's claim is checked on the block's
//! own slice of the access log:
//!
//! * a **CertifiedDoall** block's log (dispatcher and block-privatized
//!   locations excluded, as at run time) must pass the DOALL check;
//! * a **CertifiedSequential** block must *fail* it — the carried
//!   dependence the certificate claims has to be real, or the sequential
//!   verdict is too weak;
//! * a **SpeculateBounded** block's dynamic write counts must respect its
//!   certified per-iteration bound, and its certified (unshadowed)
//!   partition must be conflict-free;
//! * every cross-block conflict the log exhibits must span at least the
//!   certified DOACROSS sync distance, and the corpus must actually
//!   materialize some edges (the checks are not allowed to be vacuous).
//!
//! The fission certifier derives each block certificate from only the
//! steps a block certificate carries. The from-scratch path stays the
//! reference: every block certificate must equal the whole-loop pipeline
//! ([`analyze`]) run on the masked body, with the whole loop's
//! terminator and parallelism, over the corpus and generated bodies.

#[path = "support/fission_bodies.rs"]
mod fission_bodies;

use fission_bodies::{params_strategy, source_of};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wlp_analyze::{
    analyze, concretize, fission_plan, masked_body, CertVerdict, ConcreteLog, FissionPlan, Owner,
};
use wlp_ir::frontend::{lower, parse_loop, parse_program};
use wlp_ir::{ArrayId, LoopIr, VarId, WRef};
use wlp_pd::{crosscheck, Access, Claims};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/loops")
}

fn corpus_bodies() -> Vec<(String, LoopIr)> {
    let mut out = Vec::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .filter_map(|entry| {
            let p = entry.expect("read corpus dir").path();
            (p.extension().is_some_and(|x| x == "wlp")).then_some(p)
        })
        .collect();
    paths.sort();
    for p in paths {
        let name = p.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&p).expect("read corpus source");
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let body = lower(&prog).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        out.push((name, body));
    }
    assert!(out.len() >= 5, "corpus shrank to {} loops", out.len());
    out
}

/// Deterministic adversarial resolver: a small address space so
/// `Unknown`-subscript collisions are common (same shape as the
/// whole-loop agreement suite).
fn resolver(seed: u64) -> impl FnMut(usize, usize, ArrayId) -> i64 {
    move |stmt, iter, a| {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for x in [stmt as u64, iter as u64, a.0 as u64 + 1] {
            h = (h ^ x).wrapping_mul(0x100_0000_01b3).rotate_left(17);
        }
        (h % 5) as i64
    }
}

fn update_vars(body: &LoopIr, update_stmts: &BTreeSet<usize>) -> BTreeSet<VarId> {
    update_stmts
        .iter()
        .flat_map(|&s| body.stmts[s].writes.iter())
        .filter_map(|w| match w {
            WRef::Scalar(v) => Some(*v),
            WRef::Element(..) => None,
        })
        .collect()
}

/// Checks every block certificate of one loop on one concrete log.
/// Returns the number of DOACROSS edges that materialized dynamically.
fn check_blocks(
    name: &str,
    body: &LoopIr,
    plan: &FissionPlan,
    log: &ConcreteLog,
) -> Result<usize, String> {
    let updates: BTreeSet<usize> = body.updates().collect();
    let dispatcher: BTreeSet<VarId> = update_vars(body, &updates);

    for b in &plan.blocks {
        // the block runs under its own certificate: re-derive the masked
        // body's privatization, exactly what the block certifier saw
        let a = analyze(&masked_body(body, &b.stmts));
        let private = |o: Owner| match o {
            Owner::Scalar(v) => a.privatization.scalars.contains(&v),
            Owner::Array(ar) => a.privatization.arrays.contains(&ar),
        };
        let members: BTreeSet<usize> = b.stmts.iter().copied().collect();
        let block_log = log.filter(|stmt, _, owner| {
            members.contains(&stmt)
                && !updates.contains(&stmt)
                && !matches!(owner, Owner::Scalar(v) if dispatcher.contains(&v))
                && !private(owner)
        });

        match b.certificate.verdict {
            CertVerdict::CertifiedDoall => {
                crosscheck(
                    &block_log,
                    None,
                    Claims {
                        doall: true,
                        privatized_doall: false,
                    },
                )
                .map_err(|f| format!("{name}: block #{} CertifiedDoall falsified: {f}", b.index))?;
            }
            CertVerdict::CertifiedSequential => {
                if crosscheck(
                    &block_log,
                    None,
                    Claims {
                        doall: true,
                        privatized_doall: false,
                    },
                )
                .is_ok()
                {
                    return Err(format!(
                        "{name}: block #{} is certified sequential, but its log passes \
                         the DOALL check — the claimed carried dependence never ran",
                        b.index
                    ));
                }
            }
            CertVerdict::SpeculateBounded => {
                for (i, iter_log) in log.tagged.iter().enumerate() {
                    let w = iter_log
                        .iter()
                        .filter(|(stmt, acc)| {
                            members.contains(stmt)
                                && !updates.contains(stmt)
                                && matches!(acc, Access::Write(_))
                        })
                        .count() as u64;
                    if w > b.certificate.writes_per_iter {
                        return Err(format!(
                            "{name}: block #{} iteration {i} performed {w} writes > \
                             certified bound {}",
                            b.index, b.certificate.writes_per_iter
                        ));
                    }
                }
                let uncertain: BTreeSet<usize> =
                    b.certificate.uncertain_stmts.iter().copied().collect();
                let certified = log.filter(|stmt, _, owner| {
                    members.contains(&stmt)
                        && !updates.contains(&stmt)
                        && !uncertain.contains(&stmt)
                        && !matches!(owner, Owner::Scalar(v) if dispatcher.contains(&v))
                        && !private(owner)
                });
                crosscheck(
                    &certified,
                    None,
                    Claims {
                        doall: true,
                        privatized_doall: false,
                    },
                )
                .map_err(|f| {
                    format!(
                        "{name}: block #{} certified partition conflicts \
                         (the runtime leaves it unshadowed): {f}",
                        b.index
                    )
                })?;
            }
        }
    }

    // DOACROSS edges: every dynamic cross-block conflict must span at
    // least the certified sync distance. The censored view the edges were
    // derived from excludes dispatcher and whole-loop-privatized
    // locations, so the dynamic check does too.
    let whole = analyze(body);
    let censored = |o: Owner| match o {
        Owner::Scalar(v) => whole.privatization.scalars.contains(&v) || dispatcher.contains(&v),
        Owner::Array(ar) => whole.privatization.arrays.contains(&ar),
    };
    let mut materialized = 0usize;
    for e in &plan.edges {
        let member_of =
            |b: usize| -> BTreeSet<usize> { plan.blocks[b].stmts.iter().copied().collect() };
        let from = member_of(e.from_block);
        let to = member_of(e.to_block);
        // addr → per-endpoint (iteration, is_write) touch lists
        type Touches = (Vec<(usize, bool)>, Vec<(usize, bool)>);
        let mut touches: std::collections::HashMap<usize, Touches> =
            std::collections::HashMap::new();
        for (i, iter_log) in log.tagged.iter().enumerate() {
            for (stmt, acc) in iter_log {
                if updates.contains(stmt) {
                    continue;
                }
                let (addr, is_write) = match *acc {
                    Access::Read(x) => (x, false),
                    Access::Write(x) => (x, true),
                };
                if censored(log.owners[addr]) {
                    continue;
                }
                let slot = touches.entry(addr).or_default();
                if from.contains(stmt) {
                    slot.0.push((i, is_write));
                }
                if to.contains(stmt) {
                    slot.1.push((i, is_write));
                }
            }
        }
        let mut observed: Option<u64> = None;
        for (src, snk) in touches.values() {
            for &(i, wa) in src {
                for &(j, wb) in snk {
                    if j > i && (wa || wb) {
                        let d = (j - i) as u64;
                        observed = Some(observed.map_or(d, |o| o.min(d)));
                    }
                }
            }
        }
        if let Some(d) = observed {
            materialized += 1;
            if d < e.distance {
                return Err(format!(
                    "{name}: blocks #{}→#{} conflicted at dynamic distance {d}, \
                     tighter than the certified sync distance {}",
                    e.from_block, e.to_block, e.distance
                ));
            }
        }
    }
    Ok(materialized)
}

#[test]
fn corpus_block_certificates_agree_with_the_oracle() {
    let mut materialized_edges = 0usize;
    let mut fissioned = 0usize;
    for (name, body) in corpus_bodies() {
        let plan = fission_plan(&body);
        assert!(
            !plan.blocks.is_empty(),
            "{name}: fission produced no work blocks"
        );
        if plan.is_fissioned() {
            fissioned += 1;
        }
        for seed in [1u64, 42, 0xdead_beef] {
            let log = concretize(&body, 8, resolver(seed));
            match check_blocks(&name, &body, &plan, &log) {
                Ok(n) => materialized_edges += n,
                Err(e) => panic!("seed {seed}: {e}\nplan: {plan:?}"),
            }
        }
    }
    // the corpus must keep exercising fission and its sync edges — these
    // checks are not allowed to go vacuous
    assert!(fissioned >= 2, "only {fissioned} corpus loops fissioned");
    assert!(
        materialized_edges >= 2,
        "only {materialized_edges} DOACROSS edge conflicts materialized dynamically"
    );
}

/// Every block certificate of `body` against [`analyze`] of the masked
/// body, and the plan `analyze` carries against [`fission_plan`]'s.
/// Returns the number of blocks checked.
fn check_against_full_pipeline(name: &str, body: &LoopIr) -> Result<usize, String> {
    let whole = analyze(body);
    let plan = fission_plan(body);
    if format!("{plan:?}") != format!("{:?}", whole.fission) {
        return Err(format!(
            "{name}: fission_plan and analyze disagree\n{plan:?}\n{:?}",
            whole.fission
        ));
    }
    for b in &plan.blocks {
        let mut reference = analyze(&masked_body(body, &b.stmts)).certificate;
        reference.terminator = whole.certificate.terminator;
        reference.parallelism = whole.certificate.parallelism;
        if b.certificate != reference {
            return Err(format!(
                "{name}: block #{} ({}) certificate {:?}, the full pipeline on the \
                 masked body gives {reference:?}",
                b.index,
                b.describe_stmts(),
                b.certificate
            ));
        }
    }
    Ok(plan.blocks.len())
}

#[test]
fn corpus_block_certificates_equal_the_full_pipeline_on_the_masked_body() {
    let mut blocks = 0;
    for (name, body) in corpus_bodies() {
        blocks += check_against_full_pipeline(&name, &body).unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(blocks >= 10, "only {blocks} corpus blocks checked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_block_certificates_equal_the_full_pipeline_on_the_masked_body(
        params in params_strategy()
    ) {
        let src = source_of(&params);
        let body = parse_loop(&src).unwrap_or_else(|e| panic!("{src}\n{e:?}"));
        if let Err(e) = check_against_full_pipeline(&src, &body) {
            prop_assert!(false, "{}", e);
        }
    }
}
