//! Lowering: AST → [`LoopIr`].
//!
//! The interesting work is recognition — recurrence updates (induction /
//! associative / pointer chase) and affine subscripts — because that is
//! what decides, downstream, which of the paper's methods applies.

use super::ast::{BinOp, Decl, Expr, Program, Stmt};
use crate::ir::{ArrayId, LoopIr, Stmt as IrStmt, Subscript, UpdateOp, VarId, WRef};
use crate::span::Span;
use std::collections::HashMap;

/// A lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Description.
    pub msg: String,
    /// Source span the failure points at (zero-width when unknown).
    pub span: Span,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

/// The source names behind a lowered loop's ids: `arrays[a.0]` names
/// [`ArrayId`] `a`, `vars[v.0]` names [`VarId`] `v`. Consumers that turn
/// analysis results (which speak ids) back into statements about the
/// parsed program (which speaks names) go through here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Symbols {
    /// Array names, indexed by [`ArrayId`].
    pub arrays: Vec<String>,
    /// Scalar names, indexed by [`VarId`].
    pub vars: Vec<String>,
}

/// A linear form `Σ coeff·var + konst` with integer coefficients, or
/// nothing when the expression is not linear/foldable.
///
/// Exact over ℤ: the dependence tests downstream reason about these
/// coefficients as integers, so a fold that would overflow `i64` is "not
/// linear" (`None`), never a wrapped value — and never a panic on text a
/// tenant can send. (The executor folds subscripts too, in
/// `exec::Lowering::affine`; that one wraps on purpose, because it must
/// reproduce the ring the executor computes in, and is a different
/// function.)
pub(crate) fn linear_form(e: &Expr) -> Option<(HashMap<String, i64>, i64)> {
    /// `k·m`, every coefficient checked.
    fn scaled(mut m: HashMap<String, i64>, k: i64) -> Option<HashMap<String, i64>> {
        for c in m.values_mut() {
            *c = c.checked_mul(k)?;
        }
        Some(m)
    }
    match e {
        Expr::Int(v) => Some((HashMap::new(), *v)),
        Expr::Var(v) => {
            let mut m = HashMap::new();
            m.insert(v.clone(), 1);
            Some((m, 0))
        }
        Expr::Neg(inner) => {
            let (m, k) = linear_form(inner)?;
            Some((scaled(m, -1)?, k.checked_neg()?))
        }
        Expr::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => {
            let (mut ma, ka) = linear_form(a)?;
            let (mb, kb) = linear_form(b)?;
            let add = *op == BinOp::Add;
            for (v, c) in mb {
                let sum = ma.entry(v).or_insert(0);
                *sum = if add {
                    sum.checked_add(c)?
                } else {
                    sum.checked_sub(c)?
                };
            }
            let k = if add {
                ka.checked_add(kb)?
            } else {
                ka.checked_sub(kb)?
            };
            Some((ma, k))
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            let (ma, ka) = linear_form(a)?;
            let (mb, kb) = linear_form(b)?;
            let k = ka.checked_mul(kb);
            match (ma.values().all(|&c| c == 0), mb.values().all(|&c| c == 0)) {
                // constant × linear, linear × constant
                (true, _) => Some((scaled(mb, ka)?, k?)),
                (_, true) => Some((scaled(ma, kb)?, k?)),
                _ => None, // var × var: nonlinear
            }
        }
        _ => None,
    }
}

/// The recurrence shape of `name = rhs`, if `rhs` references `name`.
pub(crate) fn recurrence_shape(name: &str, rhs: &Expr) -> Option<UpdateOp> {
    // p = next(p)
    if let Expr::Call(f, args) = rhs {
        if f == "next" && args.len() == 1 {
            if let Expr::Var(v) = &args[0] {
                if v == name {
                    return Some(UpdateOp::PointerChase);
                }
            }
        }
    }
    // affine in itself?
    if let Some((coeffs, _)) = linear_form(rhs) {
        let self_coeff = coeffs.get(name).copied().unwrap_or(0);
        let others = coeffs.iter().any(|(v, &c)| v != name && c != 0);
        if self_coeff != 0 && !others {
            return Some(if self_coeff == 1 {
                UpdateOp::AddConst
            } else {
                UpdateOp::MulAddConst
            });
        }
    }
    // any other self-reference
    let mut mentions = false;
    rhs.walk(&mut |e| {
        if let Expr::Var(v) = e {
            if v == name {
                mentions = true;
            }
        }
    });
    mentions.then_some(UpdateOp::Other)
}

struct Lowerer {
    vars: HashMap<String, VarId>,
    arrays: HashMap<String, ArrayId>,
    /// Induction variables: name → (stride per iteration, initial value).
    inductions: HashMap<String, (i64, Option<i64>)>,
}

impl Lowerer {
    fn var(&mut self, name: &str) -> VarId {
        let next = VarId(self.vars.len() as u32);
        *self.vars.entry(name.to_string()).or_insert(next)
    }

    fn array(&mut self, name: &str) -> ArrayId {
        let next = ArrayId(self.arrays.len() as u32);
        *self.arrays.entry(name.to_string()).or_insert(next)
    }

    /// Lowers a subscript expression to the IR's subscript lattice.
    fn subscript(&mut self, e: &Expr) -> Subscript {
        let Some((coeffs, konst)) = linear_form(e) else {
            return Subscript::Unknown;
        };
        let mut coeff = 0i64;
        let mut offset = konst;
        for (v, c) in &coeffs {
            if *c == 0 {
                continue;
            }
            match self.inductions.get(v) {
                Some((stride, Some(init))) => {
                    // v = init + stride·iteration (update at end of body);
                    // a fold that leaves i64 is as good as no fold
                    let folded = (
                        c.checked_mul(*stride).and_then(|x| coeff.checked_add(x)),
                        c.checked_mul(*init).and_then(|x| offset.checked_add(x)),
                    );
                    let (Some(c), Some(o)) = folded else {
                        return Subscript::Unknown;
                    };
                    (coeff, offset) = (c, o);
                }
                _ => return Subscript::Unknown, // unknown base or non-induction
            }
        }
        if coeff == 0 {
            Subscript::Const(offset)
        } else {
            Subscript::Affine { coeff, offset }
        }
    }

    /// Collects the memory references an expression reads.
    fn reads_of(&mut self, e: &Expr, out: &mut Vec<WRef>) {
        match e {
            Expr::Int(_) | Expr::Null => {}
            Expr::Var(v) => {
                let r = WRef::Scalar(self.var(v));
                if !out.contains(&r) {
                    out.push(r);
                }
            }
            Expr::Index(arr, sub) => {
                let s = self.subscript(sub);
                let a = self.array(arr);
                let r = WRef::Element(a, s);
                if !out.contains(&r) {
                    out.push(r);
                }
                self.reads_of(sub, out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.reads_of(a, out);
                }
            }
            Expr::Neg(inner) => self.reads_of(inner, out),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                self.reads_of(a, out);
                self.reads_of(b, out);
            }
        }
    }
}

fn const_fold(e: &Expr) -> Option<i64> {
    linear_form(e).and_then(|(coeffs, k)| coeffs.values().all(|&c| c == 0).then_some(k))
}

/// Lowers a parsed program to [`LoopIr`].
pub fn lower(p: &Program) -> Result<LoopIr, LowerError> {
    lower_with_symbols(p).map(|(ir, _)| ir)
}

/// [`lower`], also returning the names the ids it minted stand for.
pub fn lower_with_symbols(p: &Program) -> Result<(LoopIr, Symbols), LowerError> {
    let mut lw = Lowerer {
        vars: HashMap::new(),
        arrays: HashMap::new(),
        inductions: HashMap::new(),
    };

    // initial values from declarations
    let inits: HashMap<&str, Option<i64>> = p
        .decls
        .iter()
        .map(|Decl { name, init, .. }| (name.as_str(), init.as_ref().and_then(const_fold)))
        .collect();

    // first pass: find induction variables (x = x + c) so subscripts of
    // *any* statement can use them
    for st in &p.body {
        if let Stmt::AssignVar(name, rhs) = st {
            if recurrence_shape(name, rhs) == Some(UpdateOp::AddConst) {
                if let Some((coeffs, k)) = linear_form(rhs) {
                    debug_assert_eq!(coeffs.get(name.as_str()), Some(&1));
                    let init = inits.get(name.as_str()).copied().flatten();
                    lw.inductions.insert(name.clone(), (k, init));
                }
            }
        }
    }

    let mut ir = LoopIr::new();

    // the WHILE condition is the loop's first exit test
    let mut cond_reads = Vec::new();
    lw.reads_of(&p.cond, &mut cond_reads);
    ir.push(IrStmt::exit_test(cond_reads).with_span(p.cond_span));

    for (si, st) in p.body.iter().enumerate() {
        let span = p.stmt_span(si);
        match st {
            Stmt::ExitIf(c) => {
                let mut reads = Vec::new();
                lw.reads_of(c, &mut reads);
                ir.push(IrStmt::exit_test(reads).with_span(span));
            }
            Stmt::AssignVar(name, rhs) => {
                let mut reads = Vec::new();
                lw.reads_of(rhs, &mut reads);
                match recurrence_shape(name, rhs) {
                    Some(op) => {
                        let v = lw.var(name);
                        let extra: Vec<WRef> = reads
                            .into_iter()
                            .filter(|r| *r != WRef::Scalar(v))
                            .collect();
                        ir.push(IrStmt::update(v, op, extra).with_span(span));
                    }
                    None => {
                        let v = lw.var(name);
                        ir.push(IrStmt::assign(vec![WRef::Scalar(v)], reads).with_span(span));
                    }
                }
            }
            Stmt::AssignElem(arr, sub, rhs) => {
                let mut reads = Vec::new();
                lw.reads_of(sub, &mut reads);
                lw.reads_of(rhs, &mut reads);
                let s = lw.subscript(sub);
                let a = lw.array(arr);
                ir.push(IrStmt::assign(vec![WRef::Element(a, s)], reads).with_span(span));
            }
        }
    }

    if ir.is_empty() {
        return Err(LowerError {
            msg: "the loop lowers to no statements".into(),
            span: p.cond_span,
        });
    }
    let by_id = |ids: Vec<(String, u32)>| {
        let mut names = vec![String::new(); ids.len()];
        for (name, id) in ids {
            names[id as usize] = name;
        }
        names
    };
    let symbols = Symbols {
        arrays: by_id(lw.arrays.into_iter().map(|(n, a)| (n, a.0)).collect()),
        vars: by_id(lw.vars.into_iter().map(|(n, v)| (n, v.0)).collect()),
    };
    Ok((ir, symbols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_loop;
    use crate::ir::StmtKind;
    use crate::plan::{plan, StrategyKind};
    use wlp_core::taxonomy::{DispatcherClass, TerminatorClass};

    #[test]
    fn figure1b_source_plans_like_the_builder() {
        let ir = parse_loop(
            "pointer tmp = head(list)\n\
             while (tmp != null) {\n\
                 work[tmp] = f(work[tmp])\n\
                 tmp = next(tmp)\n\
             }",
        )
        .unwrap();
        let p = plan(&ir);
        assert_eq!(p.dispatcher, DispatcherClass::General);
        assert_eq!(p.terminator, TerminatorClass::RemainderInvariant);
        assert_eq!(p.strategy, StrategyKind::General3);
        assert!(!p.needs_undo);
    }

    #[test]
    fn figure1e_source_plans_prefix() {
        let ir = parse_loop(
            "integer r = 1\n\
             while (f(r) < 100) {\n\
                 work[r] = work[r] + 1\n\
                 r = 3 * r + 2\n\
             }",
        )
        .unwrap();
        let p = plan(&ir);
        assert_eq!(p.dispatcher, DispatcherClass::Associative);
        assert_eq!(p.strategy, StrategyKind::PrefixDoall);
    }

    #[test]
    fn do_loop_source_gets_affine_subscripts() {
        let ir = parse_loop(
            "integer i = 0\n\
             while (i < n) {\n\
                 A[i] = 2 * A[i]\n\
                 B[2*i + 3] = A[i]\n\
                 i = i + 1\n\
             }",
        )
        .unwrap();
        // A[i] write: affine coeff 1, offset 0; B write: coeff 2, offset 3
        let a_write = &ir.stmts[1].writes[0];
        assert!(matches!(
            a_write,
            WRef::Element(
                _,
                Subscript::Affine {
                    coeff: 1,
                    offset: 0
                }
            )
        ));
        let b_write = &ir.stmts[2].writes[0];
        assert!(matches!(
            b_write,
            WRef::Element(
                _,
                Subscript::Affine {
                    coeff: 2,
                    offset: 3
                }
            )
        ));
        let p = plan(&ir);
        assert_eq!(p.strategy, StrategyKind::InductionDoall);
        assert!(!p.needs_pd_test, "affine accesses are analyzable");
    }

    #[test]
    fn subscripted_subscript_source_needs_pd() {
        let ir = parse_loop(
            "integer i = 0\n\
             while (i < n) {\n\
                 A[idx[i]] = A[idx[i]] + w[i]\n\
                 i = i + 1\n\
             }",
        )
        .unwrap();
        let p = plan(&ir);
        assert!(p.needs_pd_test, "A[idx[i]] is unanalyzable");
        assert_eq!(p.strategy, StrategyKind::InductionDoall);
    }

    #[test]
    fn rv_exit_is_detected_from_source() {
        let ir = parse_loop(
            "integer i = 0\n\
             while (i < n) {\n\
                 A[i] = g(A[i])\n\
                 exit if (A[i] > limit)\n\
                 i = i + 1\n\
             }",
        )
        .unwrap();
        let p = plan(&ir);
        assert_eq!(p.terminator, TerminatorClass::RemainderVariant);
        assert!(p.needs_undo);
    }

    #[test]
    fn provable_recurrence_from_source_stays_sequential() {
        let ir = parse_loop(
            "integer i = 1\n\
             while (i < n) {\n\
                 A[i] = A[i] + A[i - 1]\n\
                 i = i + 1\n\
             }",
        )
        .unwrap();
        assert_eq!(plan(&ir).strategy, StrategyKind::Sequential);
    }

    #[test]
    fn unknown_induction_base_degrades_to_unknown_subscript() {
        // i's initial value is not a compile-time constant
        let ir = parse_loop(
            "integer i = start()\n\
             while (i < n) {\n\
                 A[i] = 0\n\
                 i = i + 1\n\
             }",
        )
        .unwrap();
        let w = &ir.stmts[1].writes[0];
        assert!(matches!(w, WRef::Element(_, Subscript::Unknown)));
    }

    #[test]
    fn constant_subscript_is_recognized() {
        let ir = parse_loop("integer i = 0\nwhile (i < n) { A[7] = i; i = i + 1 }").unwrap();
        let w = &ir.stmts[1].writes[0];
        assert!(matches!(w, WRef::Element(_, Subscript::Const(7))));
    }

    #[test]
    fn general_self_update_is_other() {
        let ir = parse_loop("while (x < n) { x = f(x) }").unwrap();
        assert!(matches!(
            ir.stmts[1].kind,
            StmtKind::Update(UpdateOp::Other)
        ));
    }

    #[test]
    fn symbols_name_the_ids_the_ir_uses() {
        use super::super::parser::parse_program;
        let p = parse_program("integer i = 0\nwhile (i < n) { A[idx[i]] = B[i] + x; i = i + 1 }")
            .unwrap();
        let (ir, syms) = lower_with_symbols(&p).unwrap();
        assert_eq!(ir, lower(&p).unwrap());
        let mut arrays = syms.arrays.clone();
        arrays.sort();
        assert_eq!(arrays, ["A", "B", "idx"]);
        // the store's target id resolves to the name the source wrote
        let WRef::Element(a, _) = ir.stmts[1].writes[0] else {
            panic!()
        };
        assert_eq!(syms.arrays[a.0 as usize], "A");
        let StmtKind::Update(_) = ir.stmts[2].kind else {
            panic!()
        };
        let WRef::Scalar(v) = ir.stmts[2].writes[0] else {
            panic!()
        };
        assert_eq!(syms.vars[v.0 as usize], "i");
    }

    #[test]
    fn spans_survive_lowering() {
        let src = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";
        let ir = parse_loop(src).unwrap();
        // stmt 0 is the WHILE condition, stmt 1 the array assignment
        let cond = ir.stmts[0].span.unwrap();
        assert_eq!(&src[cond.start..cond.end], "i < n");
        let body = ir.stmts[1].span.unwrap();
        assert_eq!(&src[body.start..body.end], "A[i] = 2 * A[i]");
    }

    #[test]
    fn linear_form_handles_nesting() {
        use super::super::parser::parse_program;
        let p = parse_program("while (q < 1) { y = 2 * (i + 3) - i }").unwrap();
        let Stmt::AssignVar(_, rhs) = &p.body[0] else {
            panic!()
        };
        let (coeffs, k) = linear_form(rhs).unwrap();
        assert_eq!(coeffs.get("i"), Some(&1)); // 2i − i
        assert_eq!(k, 6);
    }

    #[test]
    fn nonlinear_forms_are_rejected() {
        use super::super::parser::parse_program;
        let p = parse_program("while (q < 1) { y = i * i }").unwrap();
        let Stmt::AssignVar(_, rhs) = &p.body[0] else {
            panic!()
        };
        assert!(linear_form(rhs).is_none());
    }
}
