//! The batch licence: whether 64 consecutive iterations of a plan's body
//! are independent, decided from the lowered body code and the constants
//! alone.
//!
//! A proof that iterations are independent licenses any order of their
//! instructions, not only an order across cpus, so such a body can run
//! each instruction across 64 iterations before the next. This check
//! reads nothing the analysis produced: a wrong certificate can cost a
//! plan its batches, never its answer.
//!
//! Every register the body writes must be one of two kinds:
//! - *carried*: its only write is `r = r + c` (or `c + r`, or `r - c`)
//!   with `c` a constant, so iteration `k` of a batch starts with
//!   `r + c·k`;
//! - *private*: in body order, every read of it comes after a write, so
//!   no iteration sees another's value.
//!
//! Every access to a stored array must read one carried register `x`
//! under one `scale`; lane `k` then reaches `scale·(x + c·k) + off`. For
//! each store against each access to that array (itself included),
//! `scale·c·d ≢ off₂ − off₁ (mod 2⁶⁴)` must hold for every
//! `0 < |d| < 64`: exact under the executor's wrapping arithmetic, so no
//! two iterations of a batch touch one element when either stores to it.

use super::{Op, Reg};

/// Iterations one batch runs: the lanes of a batch register.
pub const LANES: usize = 64;

/// The most arguments a call may take: a batch gathers one lane's
/// arguments into a buffer this long.
pub(super) const MAX_ARGS: usize = 8;

/// What the body does with one register, as a batch sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Role {
    /// Never written: one value for the whole run.
    Uniform,
    /// Written only by `r = r + c`: lane `k` starts a batch at `r + c·k`.
    Carried(i64),
    /// Written before any read in every iteration.
    Private,
}

/// An access whose subscript reads a carried register `x`: lane `k`
/// reaches `off + step·k` past `scale·x`, with `x` read when the batch
/// starts (`off` already counts the update when the access follows it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Affine {
    pub arr: u32,
    pub x: Reg,
    pub scale: i64,
    pub off: i64,
    pub step: i64,
    pub store: bool,
}

/// A licence to run the body a batch at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Licence {
    /// Per register, what the body does with it.
    pub roles: Vec<Role>,
    /// Every access whose range is checked before a batch starts, so it
    /// cannot leave its array inside one.
    pub affine: Vec<Affine>,
    /// The stores of one iteration when something can stop a batch after
    /// its first store (a division, a computed subscript, a function
    /// check, an exit): a batch keeps the old values of what each of them
    /// overwrites, to undo them. Zero when nothing can.
    pub trail: usize,
}

/// Why a body does not run a batch at a time: the first obstacle the
/// check met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// A register the body reads before it writes it, written by
    /// something other than one `r = r + c`: a value one iteration hands
    /// the next.
    Carried(u32),
    /// A stored array is accessed through a subscript that does not step
    /// with a carried register.
    Unstepped(u32),
    /// A stored array is accessed under two different subscript registers
    /// or scales.
    MixedSubscripts(u32),
    /// Iterations this far apart touch one element of a stored array,
    /// one of them storing.
    Overlap(u32, u32),
    /// A call takes more than eight arguments (`MAX_ARGS`).
    WideCall(u32),
}

/// What the scan knows of one register.
#[derive(Debug, Clone, Copy, Default)]
struct Use {
    /// Read before the body's first write to it.
    early: bool,
    writes: u32,
    /// Its last write was `r = r + c`: `c`, the constant's register, and
    /// the instruction's position.
    update: Option<(i64, Reg, usize)>,
}

/// The registers `op` reads, and the register it writes.
fn operands(op: &Op, mut read: impl FnMut(Reg)) -> Option<Reg> {
    match *op {
        Op::Move { d, a } | Op::Neg { d, a } => {
            read(a);
            Some(d)
        }
        Op::Add { d, a, b }
        | Op::Sub { d, a, b }
        | Op::Mul { d, a, b }
        | Op::Div { d, a, b }
        | Op::Cmp { d, a, b, .. } => {
            read(a);
            read(b);
            Some(d)
        }
        Op::LoadAt { d, x, .. } | Op::Load { d, x, .. } => {
            read(x);
            Some(d)
        }
        Op::StoreAt { x, v, .. } | Op::Store { x, v, .. } => {
            read(x);
            read(v);
            None
        }
        Op::Call { d, first, argc, .. } => {
            (first..first + argc).for_each(read);
            Some(d)
        }
        Op::ExitLt { a, b }
        | Op::ExitLe { a, b }
        | Op::ExitGt { a, b }
        | Op::ExitGe { a, b }
        | Op::ExitEq { a, b }
        | Op::ExitNe { a, b } => {
            read(a);
            read(b);
            None
        }
        Op::Check(r) | Op::ExitIfZero(r) | Op::ExitIfNonZero(r) => {
            read(r);
            None
        }
        Op::CheckFn(_) => None,
    }
}

/// `(arr, x, scale, off, stores)` of an array access.
fn access(op: &Op) -> Option<(u32, Reg, i64, i64, bool)> {
    match *op {
        Op::LoadAt { arr, x, off, .. } => Some((arr, x, 1, off, false)),
        Op::Load {
            arr, x, scale, off, ..
        } => Some((arr, x, scale, off, false)),
        Op::StoreAt { arr, x, off, .. } => Some((arr, x, 1, off, true)),
        Op::Store {
            arr, x, scale, off, ..
        } => Some((arr, x, scale, off, true)),
        _ => None,
    }
}

/// Whether `op` can stop a batch whatever the ranges checked before it:
/// an access that is not affine is decided separately.
fn may_trip(op: &Op) -> bool {
    matches!(
        op,
        Op::Div { .. }
            | Op::CheckFn(_)
            | Op::ExitLt { .. }
            | Op::ExitLe { .. }
            | Op::ExitGt { .. }
            | Op::ExitGe { .. }
            | Op::ExitEq { .. }
            | Op::ExitNe { .. }
            | Op::ExitIfZero(_)
            | Op::ExitIfNonZero(_)
    )
}

/// Checks `body` over a file of `regs` registers whose constants
/// `consts` start at register `consts_at`, touching `arrays` array slots.
pub(super) fn license(
    body: &[Op],
    regs: usize,
    consts_at: usize,
    consts: &[i64],
    arrays: usize,
) -> Result<Licence, Refusal> {
    let constant = |r: Reg| {
        let at = (r as usize).checked_sub(consts_at)?;
        consts.get(at).map(|&c| (c, r))
    };
    let mut uses = vec![Use::default(); regs];
    for (at, op) in body.iter().enumerate() {
        if let Op::Call { func, argc, .. } = *op {
            if argc as usize > MAX_ARGS {
                return Err(Refusal::WideCall(func));
            }
        }
        // every instruction reads all its operands before it writes
        let Some(d) = operands(op, |r| {
            let u = &mut uses[r as usize];
            u.early |= u.writes == 0;
        }) else {
            continue;
        };
        let step = match *op {
            Op::Add { d, a, b } if a == d => constant(b),
            Op::Add { d, a, b } if b == d => constant(a),
            Op::Sub { d, a, b } if a == d => constant(b).map(|(c, r)| (c.wrapping_neg(), r)),
            _ => None,
        };
        let u = &mut uses[d as usize];
        u.writes += 1;
        u.update = step.map(|(c, r)| (c, r, at));
    }

    let mut roles = Vec::with_capacity(regs);
    for (r, u) in uses.iter().enumerate() {
        roles.push(match (u.writes, u.early, u.update) {
            (0, ..) => Role::Uniform,
            (_, false, _) => Role::Private,
            (1, true, Some((c, from, _))) if uses[from as usize].writes == 0 => Role::Carried(c),
            _ => return Err(Refusal::Carried(r as u32)),
        });
    }

    // per array: whether the body stores to it, and the one subscript
    // register and scale its accesses may use if it does
    let mut subs: Vec<(bool, Option<(Reg, i64)>)> = vec![(false, None); arrays];
    for op in body {
        if let Some((arr, ..)) = access(op).filter(|a| a.4) {
            subs[arr as usize].0 = true;
        }
    }
    let first_store = body.iter().position(|op| access(op).is_some_and(|a| a.4));
    let after_store = |at: usize| first_store.is_some_and(|s| at > s);
    let mut trips_after_store = body
        .iter()
        .enumerate()
        .any(|(at, op)| may_trip(op) && after_store(at));
    let mut affine = Vec::with_capacity(body.iter().filter_map(access).count());
    for (at, op) in body.iter().enumerate() {
        let Some((arr, x, scale, off, store)) = access(op) else {
            continue;
        };
        let (stored, sub) = &mut subs[arr as usize];
        let Role::Carried(c) = roles[x as usize] else {
            if *stored {
                return Err(Refusal::Unstepped(arr));
            }
            trips_after_store |= after_store(at);
            continue;
        };
        if *stored && *sub.get_or_insert((x, scale)) != (x, scale) {
            return Err(Refusal::MixedSubscripts(arr));
        }
        let updated = uses[x as usize].update.is_some_and(|(_, _, u)| u < at);
        let step = scale.wrapping_mul(c);
        affine.push(Affine {
            arr,
            x,
            scale,
            off: if updated { off.wrapping_add(step) } else { off },
            step,
            store,
        });
    }

    // lanes d apart reach one element iff step·d ≡ off₂ − off₁
    for s in affine.iter().filter(|s| s.store) {
        for a in affine.iter().filter(|a| a.arr == s.arr) {
            let apart = a.off.wrapping_sub(s.off);
            for d in 1..LANES as i64 {
                let reach = s.step.wrapping_mul(d);
                if reach == apart || reach.wrapping_neg() == apart {
                    return Err(Refusal::Overlap(s.arr, d as u32));
                }
            }
        }
    }

    let stores = affine.iter().filter(|a| a.store).count();
    Ok(Licence {
        roles,
        affine,
        trail: if trips_after_store { stores } else { 0 },
    })
}
