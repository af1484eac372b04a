//! The batch licence: whether 64 consecutive iterations of a plan's body
//! can run each instruction across all of them before the next
//! (*instruction-major* order), decided from the lowered body code and
//! the constants alone. This check reads nothing the analysis produced: a
//! wrong certificate can cost a plan its batches, never its answer.
//!
//! Instruction-major order is the sequential one exactly when, wherever
//! lanes `j < k` reach one element of a stored array and one of the two
//! accesses stores, lane `j`'s instruction does not come later in the
//! body than lane `k`'s: every such pair then meets in the order the
//! sequential loop meets it.
//!
//! Every register the body writes must be one of two kinds:
//! - *carried*: its only write is `r = r + c` (or `c + r`, or `r - c`)
//!   with `c` a constant, so iteration `k` of a batch starts with
//!   `r + c·k`;
//! - *private*: in body order, every read of it comes after a write, so
//!   no iteration sees another's value.
//!
//! Every stored array must be one of two kinds:
//! - *affine*: every access reads one carried register `x` under one
//!   `scale`; lane `k` then reaches `scale·(x + c·k) + off`, so which
//!   lanes meet is decided here, exactly under the executor's wrapping
//!   arithmetic, for every pair of accesses and every distance
//!   `0 < d < 64`. One meeting may break the order: a load of the element
//!   the previous lane's store writes, whose value reaches that store
//!   through `+`, `-`, `*`, negation and moves alone, each with its other
//!   operand off the chain, and which nothing else reads. Lane `k`'s load
//!   is then lane `k - 1`'s stored value, `x ↦ m·x + b` of lane `k - 1`'s
//!   own load: the batch runs it as an affine *scan* (the paper's §3.2
//!   prefix, serially over the lanes), with lane 0 alone reading memory.
//! - *checked*: every access reads a private register, so which lanes
//!   meet is known only when the batch runs: each access first claims its
//!   elements for its lane, and a batch in which two lanes claim one
//!   element stops (the paper's §5 marking, for 64 iterations at a time).

use super::{Op, Reg};
use crate::frontend::lexer::CmpOp;

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

/// The elements an access whose subscript reads a carried register `x`
/// reaches in a batch: lane `k` reaches `off + step·k` past `scale·x`,
/// with `x` read when the batch starts (`off` already counts the update
/// when the access follows it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Span {
    pub arr: u32,
    pub x: Reg,
    pub scale: i64,
    pub off: i64,
    pub step: i64,
}

/// An access whose subscript reads a carried register, as the check
/// sees it: its [`Span`]'s fields, whether it stores, and where it is.
#[derive(Debug, Clone, Copy)]
struct Affine {
    arr: u32,
    x: Reg,
    scale: i64,
    off: i64,
    step: i64,
    store: bool,
    /// Its position in the body.
    at: usize,
}

impl Affine {
    fn span(&self) -> Span {
        let Affine {
            arr,
            x,
            scale,
            off,
            step,
            ..
        } = *self;
        Span {
            arr,
            x,
            scale,
            off,
            step,
        }
    }
}

/// One step of a scan's chain, applied to the value `x` on it, with `o`
/// the instruction's operand off the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Chain {
    /// `x + o` or `o + x`
    Add,
    /// `x - o`
    Sub,
    /// `o - x`
    SubFrom,
    /// `x · o` or `o · x`
    Mul,
    /// `-x`
    Neg,
    /// `x`
    Move,
}

/// An instruction's part in a scan, decoded from it: a batch runs this in
/// the instruction's place. `m` and `b` are lane-file registers holding,
/// per lane, the map `x ↦ m·x + b` from the value the scan's load gave to
/// the value on the chain so far (`m` stays 1, unwritten, in a `sum`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Link {
    /// The load that starts the scan, `d = arr[scale·x + off]`: lane 0
    /// reads memory, and the map starts as the identity.
    Head {
        d: Reg,
        arr: u32,
        x: Reg,
        scale: i64,
        off: i64,
        m: Reg,
        b: Reg,
        sum: bool,
    },
    /// A step of the chain, composed onto the map.
    Step {
        op: Chain,
        other: Reg,
        m: Reg,
        b: Reg,
    },
    /// The store that ends the scan, `arr[scale·x + off] = v`: lane after
    /// lane, the load's value is the previous lane's stored one and the
    /// stored value is the map of it; `head` gets the loaded values too
    /// when it still holds them here. Then the store runs.
    Tail {
        head: Option<Reg>,
        v: Reg,
        arr: u32,
        x: Reg,
        scale: i64,
        off: i64,
        m: Reg,
        b: Reg,
        sum: bool,
    },
    /// An exit decided before the batch started: nothing left to do.
    Bounded(Bound),
}

/// An exit comparing registers that are carried or uniform, ahead of
/// their updates: lane `k` compares `a + ca·k` with `b + cb·k`, so
/// whether it fires inside a batch is known before the batch starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Bound {
    /// The comparison under which the loop is left.
    pub leave: CmpOp,
    pub a: (Reg, i64),
    pub b: (Reg, i64),
}

/// A licence to run the body a batch at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Licence {
    /// Per register, what the body does with it.
    pub roles: Vec<Role>,
    /// The spans of the affine accesses, each once, checked before a
    /// batch starts so that no access leaves its array inside one.
    pub spans: Vec<Span>,
    /// The instructions that are part of a scan or a checked exit, by
    /// position in the body, in body order.
    pub links: Vec<(usize, Link)>,
    /// The stored arrays every access reaches through a private register.
    pub checked: Vec<u32>,
    /// Registers of a batch's lane file: the plan's, then `m` and `b` of
    /// each scan.
    pub lanes: usize,
    /// The stores of one iteration when something can stop a batch after
    /// its first store (a division, a computed subscript, a function
    /// check, an exit): a batch keeps the old values of what each of them
    /// overwrites, to undo them. Zero when nothing can.
    pub trail: usize,
}

impl Licence {
    /// Per scan, its array and whether its chain only adds and subtracts
    /// (a running sum).
    pub fn scans(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.links.iter().filter_map(|&(_, link)| match link {
            Link::Tail { arr, sum, .. } => Some((arr, sum)),
            _ => None,
        })
    }

    /// The exits decided before a batch starts: a batch one of them would
    /// stop does not.
    pub fn bounds(&self) -> impl Iterator<Item = &Bound> {
        self.links.iter().filter_map(|(_, link)| match link {
            Link::Bounded(bound) => Some(bound),
            _ => None,
        })
    }
}

/// Why a body does not run a batch at a time: the first obstacle the
/// check met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// A register the body reads before it writes it, written by
    /// something other than one `r = r + c`: a value one iteration hands
    /// the next.
    Carried(u32),
    /// A stored array is accessed through a subscript that neither steps
    /// with a carried register nor is computed in the iteration.
    Unstepped(u32),
    /// A stored array is accessed under two different subscript registers
    /// or scales, or through both a stepping and a computed subscript.
    MixedSubscripts(u32),
    /// Iterations this far apart touch one element of a stored array, one
    /// of them storing, the later iteration's access first in the body.
    Overlap(u32, u32),
    /// A stored array hands the next iteration an element that does not
    /// reach its one store through `+`, `-`, `*` and negation alone, or
    /// that something else reads on the way.
    Chain(u32),
    /// A call takes more than eight arguments (`MAX_ARGS`).
    WideCall(u32),
}

/// The subscript every access to a stored array shares: `Some((x,
/// scale))` stepping with a carried `x`, `None` computed.
type Subscript = Option<(Reg, i64)>;

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

/// The comparison under which an exit leaves the loop, and its operands.
fn comparison(op: &Op) -> Option<(CmpOp, Reg, Reg)> {
    match *op {
        Op::ExitLt { a, b } => Some((CmpOp::Lt, a, b)),
        Op::ExitLe { a, b } => Some((CmpOp::Le, a, b)),
        Op::ExitGt { a, b } => Some((CmpOp::Gt, a, b)),
        Op::ExitGe { a, b } => Some((CmpOp::Ge, a, b)),
        Op::ExitEq { a, b } => Some((CmpOp::Eq, a, b)),
        Op::ExitNe { a, b } => Some((CmpOp::Ne, a, b)),
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

/// What `op` does to the value on a chain in `cur`, and its operand off
/// the chain, if it is one of the steps a scan composes.
fn step(op: &Op, cur: Reg) -> Option<(Chain, Reg)> {
    let other = |a: Reg, b: Reg| if a == cur { b } else { a };
    Some(match *op {
        Op::Move { .. } => (Chain::Move, cur),
        Op::Neg { .. } => (Chain::Neg, cur),
        Op::Add { a, b, .. } => (Chain::Add, other(a, b)),
        Op::Sub { a, b, .. } if a == cur => (Chain::Sub, b),
        Op::Sub { a, .. } => (Chain::SubFrom, a),
        Op::Mul { a, b, .. } => (Chain::Mul, other(a, b)),
        _ => return None,
    })
}

/// A step of a chain: its position, what it does, its operand off the
/// chain.
type ChainStep = (usize, Chain, Reg);

/// The chain from the load at `head` to the store at `tail`: each step's
/// position, what it does and its operand off the chain, and whether the
/// load's register still holds the loaded value at the store. `None` if
/// the value takes any other way, anything else reads it, or a step other
/// than the last leaves it in a scalar slot (a register below
/// `scalars`), which a batch would not fill.
fn chain(body: &[Op], head: usize, tail: usize, scalars: usize) -> Option<(Vec<ChainStep>, bool)> {
    let first = operands(&body[head], |_| {})?;
    // the registers holding a value on the chain, the newest one `cur`
    // until the store reads it
    let (mut live, mut cur) = (vec![first], Some(first));
    let mut steps = Vec::new();
    for (at, op) in body.iter().enumerate().skip(head + 1) {
        let (mut reads, mut reads_cur) = (0, 0);
        let d = operands(op, |r| {
            if live.contains(&r) {
                reads += 1;
                reads_cur += usize::from(Some(r) == cur);
            }
        });
        if at == tail {
            // the store reads the chain as its value, and only so
            let (Op::StoreAt { v, .. } | Op::Store { v, .. }) = *op else {
                return None;
            };
            if Some(v) != cur || reads != 1 {
                return None;
            }
            cur = None;
            continue;
        }
        match (reads, d) {
            (0, Some(d)) => {
                if Some(d) == cur {
                    return None;
                }
                live.retain(|&r| r != d);
            }
            (0, None) => {}
            (1, Some(d)) if reads_cur == 1 => {
                let (op, other) = step(op, cur?)?;
                steps.push((at, op, other));
                cur = Some(d);
                if !live.contains(&d) {
                    live.push(d);
                }
            }
            _ => return None,
        }
    }
    let last = steps.len().saturating_sub(1);
    if steps[..last]
        .iter()
        .any(|&(at, ..)| operands(&body[at], |_| {}).is_some_and(|d| (d as usize) < scalars))
    {
        return None;
    }
    // whether the load's register was overwritten between the two
    let held = !body[head + 1..tail]
        .iter()
        .any(|op| operands(op, |_| {}) == Some(first));
    Some((steps, held))
}

/// Checks `body` over a file of `regs` registers whose constants
/// `consts` start at register `consts_at` (the scalar slots are the
/// registers below it), touching `arrays` array slots.
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

    // per array: whether the body stores to it, and the one subscript a
    // stored array's accesses share, once one was met
    let mut subs: Vec<(bool, Option<Subscript>)> = vec![(false, None); arrays];
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
    let mut checked = Vec::new();
    for (at, op) in body.iter().enumerate() {
        let Some((arr, x, scale, off, store)) = access(op) else {
            continue;
        };
        let (stored, sub) = &mut subs[arr as usize];
        let kind = match roles[x as usize] {
            Role::Carried(_) => Some((x, scale)),
            Role::Private => None,
            Role::Uniform if *stored => return Err(Refusal::Unstepped(arr)),
            Role::Uniform => None,
        };
        if *stored && *sub.get_or_insert(kind) != kind {
            return Err(Refusal::MixedSubscripts(arr));
        }
        let Role::Carried(c) = roles[x as usize] else {
            // a gather, or an access that claims its elements: either may
            // stop a batch
            trips_after_store |= after_store(at);
            if *stored && !checked.contains(&arr) {
                checked.push(arr);
            }
            continue;
        };
        let updated = uses[x as usize].update.is_some_and(|(_, _, u)| u < at);
        let step = scale.wrapping_mul(c);
        affine.push(Affine {
            arr,
            x,
            scale,
            off: if updated { off.wrapping_add(step) } else { off },
            step,
            store,
            at,
        });
    }

    // a load of the element the previous lane's store writes, ahead of
    // that store, is a scan if its value reaches the store by a chain
    let (mut links, mut scans) = (Vec::new(), 0);
    let link_at = |links: &[(usize, Link)], at: usize| {
        links.iter().find(|&&(p, _)| p == at).map(|&(_, link)| link)
    };
    for s in affine.iter().filter(|s| s.store) {
        let heads = affine.iter().filter(|l| {
            l.arr == s.arr && !l.store && l.at < s.at && l.off.wrapping_add(s.step) == s.off
        });
        for l in heads {
            let stores = affine.iter().filter(|a| a.arr == s.arr && a.store).count();
            let Some((steps, held)) = chain(body, l.at, s.at, consts_at).filter(|_| stores == 1)
            else {
                return Err(Refusal::Chain(s.arr));
            };
            let taken = |at: usize| link_at(&links, at).is_some();
            if taken(l.at) || taken(s.at) || steps.iter().any(|&(at, ..)| taken(at)) {
                return Err(Refusal::Chain(s.arr));
            }
            let (m, b) = ((regs + 2 * scans) as Reg, (regs + 2 * scans + 1) as Reg);
            let sum = steps
                .iter()
                .all(|&(_, op, _)| matches!(op, Chain::Add | Chain::Sub | Chain::Move));
            // the batch reads `x` as the instruction finds it: the
            // offsets are the instructions' own
            let d = operands(&body[l.at], |_| {}).expect("a load writes");
            let (arr, x, scale, off, _) = access(&body[l.at]).expect("an access");
            let head = Link::Head {
                d,
                arr,
                x,
                scale,
                off,
                m,
                b,
                sum,
            };
            links.push((l.at, head));
            for &(at, op, other) in &steps {
                links.push((at, Link::Step { op, other, m, b }));
            }
            let (Op::StoreAt { v, off, .. } | Op::Store { v, off, .. }) = body[s.at] else {
                unreachable!("an affine store is a store");
            };
            let tail = Link::Tail {
                head: (held && d != v).then_some(d),
                v,
                arr: s.arr,
                x: s.x,
                scale: s.scale,
                off,
                m,
                b,
                sum,
            };
            links.push((s.at, tail));
            scans += 1;
        }
    }
    // lanes j and j + d reach one element iff a's off ≡ b's + step·d;
    // the order holds when a's instruction is not later than b's, or
    // when b is the scan load of a's store one lane on
    for a in &affine {
        for b in affine
            .iter()
            .filter(|b| b.arr == a.arr && (a.store || b.store))
        {
            if a.at <= b.at {
                continue;
            }
            let apart = a.off.wrapping_sub(b.off);
            for d in 1..LANES as i64 {
                if a.step.wrapping_mul(d) != apart {
                    continue;
                }
                let scanned = d == 1
                    && match (link_at(&links, b.at), link_at(&links, a.at)) {
                        (Some(Link::Head { m, .. }), Some(Link::Tail { m: tail, .. })) => m == tail,
                        _ => false,
                    };
                if !scanned {
                    return Err(Refusal::Overlap(a.arr, d as u32));
                }
            }
        }
    }

    let lane = |r: Reg| match roles[r as usize] {
        Role::Uniform => Some((r, 0)),
        Role::Carried(c) => Some((r, c)),
        Role::Private => None,
    };
    for (at, op) in body.iter().enumerate() {
        let Some((leave, a, b)) = comparison(op) else {
            continue;
        };
        let ahead = |r: Reg| uses[r as usize].update.is_none_or(|(_, _, u)| u > at);
        let (Some(a), Some(b)) = (lane(a), lane(b)) else {
            continue;
        };
        if ahead(a.0) && ahead(b.0) {
            links.push((at, Link::Bounded(Bound { leave, a, b })));
        }
    }

    let stores = body
        .iter()
        .filter(|op| access(op).is_some_and(|a| a.4))
        .count();
    links.sort_unstable_by_key(|&(at, _)| at);
    let mut spans: Vec<Span> = Vec::new();
    for span in affine.iter().map(Affine::span) {
        if !spans.contains(&span) {
            spans.push(span);
        }
    }
    Ok(Licence {
        roles,
        spans,
        links,
        lanes: regs + 2 * scans,
        checked,
        trail: if trips_after_store { stores } else { 0 },
    })
}
