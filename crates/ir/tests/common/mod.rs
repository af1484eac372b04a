//! The reference oracle: the tree-walking sequential interpreter the
//! executor replaced, kept verbatim as the semantics every plan execution
//! is compared against. It resolves every name through the [`Machine`]'s
//! hash maps on every access and knows nothing about plans, slots, modes
//! or speculation — which is what makes it worth comparing with.
//!
//! Test-only: included by the integration tests of `wlp-ir`,
//! `wlp-analyze` and `wlp-serve` (`#[path]`), never compiled into a
//! library. [`reference_walk`] is the same walk reporting every element
//! it reaches, which the walk itself never reads.

#![allow(dead_code)] // each including test uses its own subset

use wlp_ir::frontend::lexer::CmpOp;
use wlp_ir::frontend::{BinOp, Decl, Expr, Program, Stmt};
use wlp_ir::interp::{ExecError, ExecOutcome, Machine};

fn err<T>(msg: impl Into<String>) -> Result<T, ExecError> {
    Err(ExecError { msg: msg.into() })
}

/// Told each array element a walk reaches: array name, subscript.
type Log<'a> = &'a mut dyn FnMut(&str, i64);

fn read(m: &Machine, name: &str, idx: i64, log: Log<'_>) -> Result<i64, ExecError> {
    log(name, idx);
    let Some(arr) = m.arrays.get(name) else {
        return err(format!("unknown array `{name}`"));
    };
    match usize::try_from(idx).ok().and_then(|i| arr.get(i)) {
        Some(v) => Ok(*v),
        None => err(format!("`{name}[{idx}]` out of bounds")),
    }
}

fn write(m: &mut Machine, name: &str, idx: i64, v: i64, log: Log<'_>) -> Result<(), ExecError> {
    log(name, idx);
    let Some(arr) = m.arrays.get_mut(name) else {
        return err(format!("unknown array `{name}`"));
    };
    match usize::try_from(idx).ok().and_then(|i| arr.get_mut(i)) {
        Some(slot) => {
            *slot = v;
            Ok(())
        }
        None => err(format!("`{name}[{idx}]` out of bounds")),
    }
}

fn eval(e: &Expr, m: &Machine, log: Log<'_>) -> Result<i64, ExecError> {
    Ok(match e {
        Expr::Int(v) => *v,
        Expr::Null => 0,
        Expr::Var(v) => match m.scalars.get(v) {
            Some(x) => *x,
            None => return err(format!("unbound scalar `{v}`")),
        },
        Expr::Index(arr, sub) => {
            let i = eval(sub, m, log)?;
            read(m, arr, i, log)?
        }
        Expr::Call(f, args) => {
            let Some(func) = m.funcs.get(f) else {
                return err(format!("unknown function `{f}`"));
            };
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, m, log)?);
            }
            func(&vals)
        }
        Expr::Neg(inner) => eval(inner, m, log)?.wrapping_neg(),
        Expr::Bin(op, a, b) => {
            let (x, y) = (eval(a, m, log)?, eval(b, m, log)?);
            match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return err("division by zero");
                    }
                    x.wrapping_div(y)
                }
            }
        }
        Expr::Cmp(op, a, b) => {
            let (x, y) = (eval(a, m, log)?, eval(b, m, log)?);
            i64::from(match op {
                CmpOp::Lt => x < y,
                CmpOp::Gt => x > y,
                CmpOp::Le => x <= y,
                CmpOp::Ge => x >= y,
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
            })
        }
    })
}

/// Interprets `p` sequentially against `m`, in place; on an error `m`
/// holds what had been written when it struck. Exit tests are evaluated
/// at the head of each iteration (canonical test-then-work).
pub fn reference_run(
    p: &Program,
    m: &mut Machine,
    max_iters: usize,
) -> Result<ExecOutcome, ExecError> {
    reference_walk(p, m, max_iters, &mut |_, _, _| {})
}

/// [`reference_run`], telling `touch` each array element it reaches:
/// the iteration (`None` in the declarations), the array, the subscript.
pub fn reference_walk(
    p: &Program,
    m: &mut Machine,
    max_iters: usize,
    touch: &mut dyn FnMut(Option<usize>, &str, i64),
) -> Result<ExecOutcome, ExecError> {
    let log = &mut |name: &str, idx| touch(None, name, idx);
    for Decl { name, init, .. } in &p.decls {
        let v = match init {
            Some(e) => eval(e, m, log)?,
            None => 0,
        };
        m.scalars.insert(name.clone(), v);
    }
    let exited = |i| ExecOutcome {
        iterations: i,
        exited_at: Some(i),
        ran_parallel: false,
        batches: 0,
    };
    for i in 0..max_iters {
        let log = &mut |name: &str, idx| touch(Some(i), name, idx);
        if eval(&p.cond, m, log)? == 0 {
            return Ok(exited(i));
        }
        for st in &p.body {
            if let Stmt::ExitIf(c) = st {
                if eval(c, m, log)? != 0 {
                    return Ok(exited(i));
                }
            }
        }
        for st in &p.body {
            match st {
                Stmt::ExitIf(_) => {}
                Stmt::AssignVar(name, rhs) => {
                    let v = eval(rhs, m, log)?;
                    m.scalars.insert(name.clone(), v);
                }
                Stmt::AssignElem(arr, sub, rhs) => {
                    let i = eval(sub, m, log)?;
                    let v = eval(rhs, m, log)?;
                    write(m, arr, i, v, log)?;
                }
            }
        }
    }
    Ok(ExecOutcome {
        iterations: max_iters,
        exited_at: None,
        ran_parallel: false,
        batches: 0,
    })
}
