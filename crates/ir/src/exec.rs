//! The slot-resolved execution plan: a parsed [`Program`] lowered once to
//! a form the executor can run without looking anything up.
//!
//! [`ExecPlan::lower`] resolves every scalar, array and host function to
//! a dense slot, flattens declarations and the loop body to postfix code
//! over those slots, decides once whether the loop can run as a
//! speculative DOALL (and if not, [why](SeqReason)), and fixes a
//! per-array [`AccessMode`]. One executor runs the result either way:
//! [`ExecPlan::run_sequential`] iterates the body code against the
//! frame's arrays directly, [`ExecPlan::run_speculative`] hands the very
//! same body code to [`speculative_while_group`] with each array wrapped
//! in exactly the machinery its mode calls for. Neither allocates per
//! iteration: the evaluation stack and the per-worker scalar frame are
//! built once per worker per region.
//!
//! The certificate lives downstream (`wlp-analyze` depends on this
//! crate), so what it proved arrives as [`PlanHints`]; without one,
//! [`PlanHints::uncertified`] shadows every written array.
//!
//! Two canonicalizations keep the parallel semantics honest, as before:
//! `exit if` conditions are evaluated at the **head** of each iteration
//! (test-then-work, the paper's canonical WHILE form), and only loops
//! whose single scalar update is a known induction run in parallel.

use crate::frontend::lexer::CmpOp;
use crate::frontend::lower::{linear_form, recurrence_shape};
use crate::frontend::{BinOp, Expr, Program, Stmt};
use crate::interp::{ExecError, ExecOutcome, HostFn};
use crate::ir::UpdateOp;
use wlp_core::speculate::{
    speculative_while_group, GroupAccess, GroupArray, GroupFault, SpeculativeArray,
};
use wlp_core::taxonomy::DispatcherClass;
use wlp_core::undo::VersionedArray;
use wlp_runtime::{Pool, Step};

/// How much speculation machinery one array needs (Sections 4 and 5 of
/// the paper, applied per array instead of per loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// The loop never stores to it: shared as is.
    ReadOnly,
    /// Stored to, and every access certified independent: checkpointed
    /// (any speculation can be aborted), time-stamped only when the loop
    /// can overshoot, never PD-marked.
    Certified,
    /// Stored to through accesses nothing certified: full PD test.
    Shadowed,
}

/// Why a plan runs sequentially — decided once, at lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqReason {
    /// The certificate proves a loop-carried dependence.
    CertifiedSequential,
    /// The certificate's verdict relies on privatizing an array whose
    /// accesses are not iteration-disjoint; this executor shares arrays.
    PrivatizedArray,
    /// The dispatcher is not a monotonic induction.
    NonInductionDispatcher,
    /// The body assigns a scalar besides the induction variable
    /// (privatizable temporaries and reductions included).
    ExtraScalarState,
    /// No `x = x + c` update to take iteration numbers from.
    NoInduction,
    /// The induction variable's initial value is not a constant.
    UnknownInductionInit,
    /// A statement follows the induction update, so "the value at
    /// iteration `i`" is not one value per iteration.
    InductionNotLast,
}

impl SeqReason {
    /// Every reason, in the order `stats` reports them.
    pub const ALL: [SeqReason; 7] = [
        SeqReason::CertifiedSequential,
        SeqReason::PrivatizedArray,
        SeqReason::NonInductionDispatcher,
        SeqReason::ExtraScalarState,
        SeqReason::NoInduction,
        SeqReason::UnknownInductionInit,
        SeqReason::InductionNotLast,
    ];

    /// This reason's position in [`ALL`](Self::ALL).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable name (the `stats` key).
    pub fn name(self) -> &'static str {
        match self {
            SeqReason::CertifiedSequential => "certified_sequential",
            SeqReason::PrivatizedArray => "privatized_array",
            SeqReason::NonInductionDispatcher => "non_induction_dispatcher",
            SeqReason::ExtraScalarState => "extra_scalar_state",
            SeqReason::NoInduction => "no_induction",
            SeqReason::UnknownInductionInit => "unknown_induction_init",
            SeqReason::InductionNotLast => "induction_not_last",
        }
    }
}

/// How the executor schedules the loop's iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One iteration after another, and why.
    Sequential(SeqReason),
    /// Speculative DOALL: iteration `i` runs with scalar slot `ivar`
    /// holding `init + stride·i`.
    SpeculativeDoall {
        /// Scalar slot of the induction variable.
        ivar: usize,
        /// Its increment per iteration.
        stride: i64,
        /// Its value at iteration 0.
        init: i64,
    },
}

/// What the static analysis established about a program, in the terms
/// lowering needs. Names, not ids: the plan resolves its own slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanHints {
    /// The planner's dispatcher class.
    pub dispatcher: DispatcherClass,
    /// A reason the analysis itself rules parallel execution out.
    pub sequential: Option<SeqReason>,
    /// Stored-to arrays whose every access is certified independent.
    /// Any other stored-to array is shadowed.
    pub certified: Vec<String>,
    /// The terminator may read what the remainder writes.
    pub terminator_rv: bool,
    /// Certified bound on stamped writes to shadowed arrays per
    /// iteration (`None`: unbounded).
    pub write_budget_per_iter: Option<u64>,
}

impl PlanHints {
    /// No certificate: every stored-to array is shadowed, overshoot is
    /// assumed possible, the undo log is unbounded.
    pub fn uncertified(dispatcher: DispatcherClass) -> Self {
        PlanHints {
            dispatcher,
            sequential: None,
            certified: Vec::new(),
            terminator_rv: true,
            write_budget_per_iter: None,
        }
    }
}

/// One instruction of plan code: postfix over an evaluation stack, every
/// operand a slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Const(i64),
    /// Push scalar slot.
    Scalar(u32),
    /// Pop a subscript, push that element of the array slot.
    Load(u32),
    /// Fail now if the function slot is unbound (before its arguments
    /// are evaluated, which is when the tree walker noticed).
    CheckFn(u32),
    /// Pop `argc` arguments, push the function's result.
    Call {
        func: u32,
        argc: u32,
    },
    Neg,
    Bin(BinOp),
    Cmp(CmpOp),
    /// Pop into scalar slot.
    SetScalar(u32),
    /// Pop value, pop subscript, store into the array slot.
    Store(u32),
    /// Pop; leave the loop if zero (the WHILE condition).
    ExitIfZero,
    /// Pop; leave the loop if non-zero (an `exit if`).
    ExitIfNonZero,
}

/// A program lowered for execution. Built once per distinct source (the
/// serve layer keeps it in its certificate cache); executing it borrows
/// it immutably, so any number of requests share one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPlan {
    scalars: Vec<String>,
    arrays: Vec<String>,
    modes: Vec<AccessMode>,
    funcs: Vec<String>,
    /// Declaration initializers, in source order.
    decls: Vec<Op>,
    /// One iteration: WHILE condition, head-hoisted exits, statements.
    body: Vec<Op>,
    /// Deepest evaluation stack either code needs.
    stack: usize,
    /// Scalar slots some code reads before anything assigned them: bound
    /// at entry, they make every scalar read safe unchecked.
    entry_scalars: Vec<usize>,
    schedule: Schedule,
    /// Certified arrays need write stamps (the loop can overshoot).
    stamps: bool,
    write_budget_per_iter: Option<u64>,
}

/// The state one execution of a plan runs against, slot-indexed. Made by
/// [`ExecPlan::frame`], which sizes it for the plan's slots.
#[derive(Clone)]
pub struct Frame {
    arrays: Vec<Option<Vec<i64>>>,
    scalars: Vec<i64>,
    bound: Vec<bool>,
    funcs: Vec<Option<HostFn>>,
}

impl Frame {
    /// Binds array slot `a` (moves the data in; no copy).
    pub fn bind_array(&mut self, a: usize, data: Vec<i64>) {
        self.arrays[a] = Some(data);
    }

    /// Moves array slot `a` back out.
    pub fn take_array(&mut self, a: usize) -> Option<Vec<i64>> {
        self.arrays[a].take()
    }

    /// Binds scalar slot `s`.
    pub fn bind_scalar(&mut self, s: usize, v: i64) {
        self.scalars[s] = v;
        self.bound[s] = true;
    }

    /// The value of scalar slot `s`, if anything bound or assigned it.
    pub fn scalar(&self, s: usize) -> Option<i64> {
        self.bound[s].then(|| self.scalars[s])
    }

    /// Binds host-function slot `f`.
    pub fn bind_fn(&mut self, f: usize, func: HostFn) {
        self.funcs[f] = Some(func);
    }
}

/// Per-executor mutable state: the scalar frame and the evaluation stack.
/// The sequential loop has one; a speculative region has one per worker.
struct Scratch {
    scalars: Vec<i64>,
    bound: Vec<bool>,
    stack: Vec<i64>,
}

/// The read-only side of an execution.
struct Env<'a> {
    funcs: &'a [Option<HostFn>],
    /// Which array slots the frame bound (decides between "unknown
    /// array" and "out of bounds" on a failed access).
    present: &'a [bool],
    /// Some entry scalar is unbound: check every scalar read.
    check_scalars: bool,
}

/// Where plan code's array accesses go. `None` is a failed access: a
/// negative or too-large subscript, or an unbound array (which every
/// implementation presents as empty).
trait ArrayView {
    fn load(&mut self, a: usize, idx: i64) -> Option<i64>;
    fn store(&mut self, a: usize, idx: i64, v: i64) -> Option<()>;
}

/// The frame's own arrays, unwrapped.
struct Direct<'a>(&'a mut [Option<Vec<i64>>]);

impl ArrayView for Direct<'_> {
    #[inline]
    fn load(&mut self, a: usize, idx: i64) -> Option<i64> {
        let i = usize::try_from(idx).ok()?;
        self.0[a].as_ref()?.get(i).copied()
    }

    #[inline]
    fn store(&mut self, a: usize, idx: i64, v: i64) -> Option<()> {
        let i = usize::try_from(idx).ok()?;
        *self.0[a].as_mut()?.get_mut(i)? = v;
        Some(())
    }
}

impl ArrayView for GroupAccess<'_, i64> {
    #[inline]
    fn load(&mut self, a: usize, idx: i64) -> Option<i64> {
        self.read(a, usize::try_from(idx).ok()?)
    }

    #[inline]
    fn store(&mut self, a: usize, idx: i64, v: i64) -> Option<()> {
        self.write(a, usize::try_from(idx).ok()?, v)
    }
}

fn err(msg: String) -> ExecError {
    ExecError { msg }
}

/// Interns `name`, returning its slot.
fn slot_of(names: &mut Vec<String>, name: &str) -> u32 {
    let at = names.iter().position(|n| n == name).unwrap_or_else(|| {
        names.push(name.to_string());
        names.len() - 1
    });
    u32::try_from(at).expect("slot count fits u32")
}

/// Lowering state: the slot tables, and which scalars the code emitted
/// so far has definitely assigned.
#[derive(Default)]
struct Lowering {
    scalars: Vec<String>,
    arrays: Vec<String>,
    funcs: Vec<String>,
    stored: Vec<bool>,
    assigned: Vec<bool>,
    entry_scalars: Vec<usize>,
}

impl Lowering {
    fn scalar(&mut self, name: &str) -> u32 {
        let s = slot_of(&mut self.scalars, name);
        self.assigned.resize(self.scalars.len(), false);
        s
    }

    fn array(&mut self, name: &str) -> u32 {
        let a = slot_of(&mut self.arrays, name);
        self.stored.resize(self.arrays.len(), false);
        a
    }

    /// Emits `e` in the tree walker's evaluation order.
    fn expr(&mut self, e: &Expr, out: &mut Vec<Op>) {
        match e {
            Expr::Int(v) => out.push(Op::Const(*v)),
            Expr::Null => out.push(Op::Const(0)),
            Expr::Var(v) => {
                let s = self.scalar(v);
                let at = s as usize;
                if !self.assigned[at] && !self.entry_scalars.contains(&at) {
                    self.entry_scalars.push(at);
                }
                out.push(Op::Scalar(s));
            }
            Expr::Index(arr, sub) => {
                self.expr(sub, out);
                out.push(Op::Load(self.array(arr)));
            }
            Expr::Call(f, args) => {
                let func = slot_of(&mut self.funcs, f);
                out.push(Op::CheckFn(func));
                for a in args {
                    self.expr(a, out);
                }
                let argc = u32::try_from(args.len()).expect("argument count fits u32");
                out.push(Op::Call { func, argc });
            }
            Expr::Neg(inner) => {
                self.expr(inner, out);
                out.push(Op::Neg);
            }
            Expr::Bin(op, a, b) => {
                self.expr(a, out);
                self.expr(b, out);
                out.push(Op::Bin(*op));
            }
            Expr::Cmp(op, a, b) => {
                self.expr(a, out);
                self.expr(b, out);
                out.push(Op::Cmp(*op));
            }
        }
    }

    fn assign(&mut self, name: &str, rhs: &Expr, out: &mut Vec<Op>) {
        self.expr(rhs, out);
        let s = self.scalar(name);
        self.assigned[s as usize] = true;
        out.push(Op::SetScalar(s));
    }
}

/// The deepest the evaluation stack gets running `code`.
fn stack_depth(code: &[Op]) -> usize {
    let (mut depth, mut deepest) = (0usize, 0usize);
    for op in code {
        match op {
            Op::Const(_) | Op::Scalar(_) => depth += 1,
            Op::Load(_) | Op::CheckFn(_) | Op::Neg => {}
            Op::Call { argc, .. } => depth = depth + 1 - *argc as usize,
            Op::Bin(_) | Op::Cmp(_) => depth -= 1,
            Op::SetScalar(_) | Op::ExitIfZero | Op::ExitIfNonZero => depth -= 1,
            Op::Store(_) => depth -= 2,
        }
        deepest = deepest.max(depth);
    }
    deepest
}

/// The value of `e` if it is built from literals and arithmetic alone,
/// computed exactly as the executor would.
fn constant(e: &Expr) -> Option<i64> {
    Some(match e {
        Expr::Int(v) => *v,
        Expr::Null => 0,
        Expr::Neg(inner) => constant(inner)?.wrapping_neg(),
        Expr::Bin(op, a, b) => arith(*op, constant(a)?, constant(b)?)?,
        _ => return None,
    })
}

/// Wrapping arithmetic; `None` is division by zero.
#[inline]
fn arith(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
    })
}

#[inline]
fn compare(op: CmpOp, x: i64, y: i64) -> bool {
    match op {
        CmpOp::Lt => x < y,
        CmpOp::Gt => x > y,
        CmpOp::Le => x <= y,
        CmpOp::Ge => x >= y,
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
    }
}

/// Whether `cond` stays false once it turns false as `ivar` advances by
/// `stride`: `ivar` compared, in the direction it moves, against
/// something the loop cannot change. With no other exit such a loop
/// cannot overshoot — iterations past the exit see the condition fail
/// themselves.
fn is_threshold(cond: &Expr, ivar: &str, stride: i64) -> bool {
    fn invariant(e: &Expr, ivar: &str) -> bool {
        let mut ok = true;
        e.walk(&mut |n| match n {
            Expr::Var(v) => ok &= v != ivar,
            Expr::Index(..) | Expr::Call(..) | Expr::Cmp(..) => ok = false,
            _ => {}
        });
        ok
    }
    let Expr::Cmp(op, a, b) = cond else {
        return false;
    };
    let is_ivar = |e: &Expr| matches!(e, Expr::Var(v) if v == ivar);
    // normalize to `ivar op bound`
    let op = if is_ivar(a) && invariant(b, ivar) {
        *op
    } else if is_ivar(b) && invariant(a, ivar) {
        match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Le,
            other => *other,
        }
    } else {
        return false;
    };
    match op {
        CmpOp::Lt | CmpOp::Le => stride > 0,
        CmpOp::Gt | CmpOp::Ge => stride < 0,
        CmpOp::Eq | CmpOp::Ne => false,
    }
}

/// The induction a speculative schedule needs — `(name, stride, init)` —
/// or the first reason the program does not have one.
fn induction(p: &Program, hints: &PlanHints) -> Result<(String, i64, i64), SeqReason> {
    if let Some(reason) = hints.sequential {
        return Err(reason);
    }
    if hints.dispatcher != DispatcherClass::MonotonicInduction {
        return Err(SeqReason::NonInductionDispatcher);
    }
    // every scalar assignment must be the induction update itself
    let mut found: Option<(usize, &str, i64)> = None;
    for (at, st) in p.body.iter().enumerate() {
        if let Stmt::AssignVar(name, rhs) = st {
            if found.is_some() || recurrence_shape(name, rhs) != Some(UpdateOp::AddConst) {
                return Err(SeqReason::ExtraScalarState);
            }
            let (_, stride) = linear_form(rhs).expect("an AddConst update is linear");
            found = Some((at, name, stride));
        }
    }
    let (at, name, stride) = found.ok_or(SeqReason::NoInduction)?;
    // the last declaration of the variable is the one that sticks
    let init = p
        .decls
        .iter()
        .rev()
        .find(|d| d.name == name)
        .and_then(|d| d.init.as_ref())
        .and_then(constant)
        .ok_or(SeqReason::UnknownInductionInit)?;
    if p.body[at + 1..]
        .iter()
        .any(|st| !matches!(st, Stmt::ExitIf(_)))
    {
        return Err(SeqReason::InductionNotLast);
    }
    Ok((name.to_string(), stride, init))
}

impl ExecPlan {
    /// Lowers `p` under what `hints` says the analysis established.
    pub fn lower(p: &Program, hints: &PlanHints) -> ExecPlan {
        let mut lw = Lowering::default();

        let mut decls = Vec::new();
        for d in &p.decls {
            match &d.init {
                Some(init) => lw.assign(&d.name, init, &mut decls),
                None => lw.assign(&d.name, &Expr::Int(0), &mut decls),
            }
        }

        // canonical test-then-work: the condition and every exit test at
        // the iteration head, then the statements in order
        let mut body = Vec::new();
        lw.expr(&p.cond, &mut body);
        body.push(Op::ExitIfZero);
        for st in &p.body {
            if let Stmt::ExitIf(c) = st {
                lw.expr(c, &mut body);
                body.push(Op::ExitIfNonZero);
            }
        }
        for st in &p.body {
            match st {
                Stmt::ExitIf(_) => {}
                Stmt::AssignVar(name, rhs) => lw.assign(name, rhs, &mut body),
                Stmt::AssignElem(arr, sub, rhs) => {
                    lw.expr(sub, &mut body);
                    lw.expr(rhs, &mut body);
                    let a = lw.array(arr);
                    lw.stored[a as usize] = true;
                    body.push(Op::Store(a));
                }
            }
        }

        let has_exits = p.body.iter().any(|st| matches!(st, Stmt::ExitIf(_)));
        let (schedule, stamps) = match induction(p, hints) {
            Ok((name, stride, init)) => {
                let may_overshoot =
                    hints.terminator_rv || has_exits || !is_threshold(&p.cond, &name, stride);
                let ivar = lw.scalar(&name) as usize;
                (
                    Schedule::SpeculativeDoall { ivar, stride, init },
                    may_overshoot,
                )
            }
            Err(reason) => (Schedule::Sequential(reason), true),
        };

        let modes = lw
            .arrays
            .iter()
            .zip(&lw.stored)
            .map(|(name, &stored)| {
                if !stored {
                    AccessMode::ReadOnly
                } else if hints.certified.contains(name) {
                    AccessMode::Certified
                } else {
                    AccessMode::Shadowed
                }
            })
            .collect();

        ExecPlan {
            stack: stack_depth(&decls).max(stack_depth(&body)),
            scalars: lw.scalars,
            arrays: lw.arrays,
            modes,
            funcs: lw.funcs,
            decls,
            body,
            entry_scalars: lw.entry_scalars,
            schedule,
            stamps,
            write_budget_per_iter: hints.write_budget_per_iter,
        }
    }

    /// Array names, by slot.
    pub fn arrays(&self) -> &[String] {
        &self.arrays
    }

    /// Per-array access modes, by slot.
    pub fn modes(&self) -> &[AccessMode] {
        &self.modes
    }

    /// Scalar names, by slot.
    pub fn scalars(&self) -> &[String] {
        &self.scalars
    }

    /// Host-function names, by slot.
    pub fn funcs(&self) -> &[String] {
        &self.funcs
    }

    /// How the loop is scheduled.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Whether certified arrays carry write stamps under speculation.
    pub fn stamps_certified(&self) -> bool {
        self.stamps
    }

    /// Stores to shadowed arrays per iteration: what one iteration can
    /// charge against the undo-log budget.
    pub fn shadowed_stores_per_iter(&self) -> u64 {
        self.body
            .iter()
            .filter(
                |op| matches!(op, Op::Store(a) if self.modes[*a as usize] == AccessMode::Shadowed),
            )
            .count() as u64
    }

    /// An empty frame shaped for this plan: nothing bound.
    pub fn frame(&self) -> Frame {
        Frame {
            arrays: vec![None; self.arrays.len()],
            scalars: vec![0; self.scalars.len()],
            bound: vec![false; self.scalars.len()],
            funcs: vec![None; self.funcs.len()],
        }
    }

    /// Runs `code` to its end or to the first exit that fires.
    #[inline]
    fn run<V: ArrayView>(
        &self,
        code: &[Op],
        env: &Env<'_>,
        s: &mut Scratch,
        view: &mut V,
    ) -> Result<Step, ExecError> {
        #[inline(always)]
        fn pop(stack: &mut Vec<i64>) -> i64 {
            stack.pop().expect("plan code is stack-balanced")
        }
        let stack = &mut s.stack;
        stack.clear();
        for op in code {
            match *op {
                Op::Const(v) => stack.push(v),
                Op::Scalar(slot) => {
                    let slot = slot as usize;
                    if env.check_scalars && !s.bound[slot] {
                        return Err(err(format!("unbound scalar `{}`", self.scalars[slot])));
                    }
                    stack.push(s.scalars[slot]);
                }
                Op::Load(a) => {
                    let idx = pop(stack);
                    match view.load(a as usize, idx) {
                        Some(v) => stack.push(v),
                        None => return Err(self.access_error(env, a as usize, idx)),
                    }
                }
                Op::CheckFn(f) => {
                    if env.funcs[f as usize].is_none() {
                        return Err(err(format!(
                            "unknown function `{}`",
                            self.funcs[f as usize]
                        )));
                    }
                }
                Op::Call { func, argc } => {
                    let f = env.funcs[func as usize]
                        .as_ref()
                        .expect("CheckFn precedes every call");
                    let at = stack.len() - argc as usize;
                    let v = f(&stack[at..]);
                    stack.truncate(at);
                    stack.push(v);
                }
                Op::Neg => {
                    let x = pop(stack);
                    stack.push(x.wrapping_neg());
                }
                Op::Bin(op) => {
                    let y = pop(stack);
                    let x = pop(stack);
                    match arith(op, x, y) {
                        Some(v) => stack.push(v),
                        None => return Err(err("division by zero".into())),
                    }
                }
                Op::Cmp(op) => {
                    let y = pop(stack);
                    let x = pop(stack);
                    stack.push(i64::from(compare(op, x, y)));
                }
                Op::SetScalar(slot) => {
                    let slot = slot as usize;
                    s.scalars[slot] = pop(stack);
                    s.bound[slot] = true;
                }
                Op::Store(a) => {
                    let v = pop(stack);
                    let idx = pop(stack);
                    if view.store(a as usize, idx, v).is_none() {
                        return Err(self.access_error(env, a as usize, idx));
                    }
                }
                Op::ExitIfZero => {
                    if pop(stack) == 0 {
                        return Ok(Step::Quit);
                    }
                }
                Op::ExitIfNonZero => {
                    if pop(stack) != 0 {
                        return Ok(Step::Quit);
                    }
                }
            }
        }
        Ok(Step::Continue)
    }

    #[cold]
    fn access_error(&self, env: &Env<'_>, a: usize, idx: i64) -> ExecError {
        let name = &self.arrays[a];
        if env.present[a] {
            err(format!("`{name}[{idx}]` out of bounds"))
        } else {
            err(format!("unknown array `{name}`"))
        }
    }

    /// Runs the declarations and hands `exec` everything an execution
    /// needs; whatever `exec` does, the frame gets its scalars back.
    fn with_env<R>(
        &self,
        frame: &mut Frame,
        exec: impl FnOnce(&Env<'_>, &mut Scratch, &mut Vec<Option<Vec<i64>>>) -> Result<R, ExecError>,
    ) -> Result<R, ExecError> {
        let present: Vec<bool> = frame.arrays.iter().map(Option::is_some).collect();
        let mut s = Scratch {
            scalars: std::mem::take(&mut frame.scalars),
            bound: std::mem::take(&mut frame.bound),
            stack: Vec::with_capacity(self.stack),
        };
        let env = Env {
            funcs: &frame.funcs,
            present: &present,
            check_scalars: self.entry_scalars.iter().any(|&slot| !s.bound[slot]),
        };
        let result = self
            .run(&self.decls, &env, &mut s, &mut Direct(&mut frame.arrays))
            .and_then(|_| exec(&env, &mut s, &mut frame.arrays));
        frame.scalars = s.scalars;
        frame.bound = s.bound;
        result
    }

    /// Executes the plan one iteration after another. `max_iters` bounds
    /// runaway loops. On an error the frame holds what had been written
    /// when it struck.
    pub fn run_sequential(
        &self,
        frame: &mut Frame,
        max_iters: usize,
    ) -> Result<ExecOutcome, ExecError> {
        self.with_env(frame, |env, s, arrays| {
            let mut view = Direct(arrays);
            for i in 0..max_iters {
                if self.run(&self.body, env, s, &mut view)? == Step::Quit {
                    return Ok(ExecOutcome {
                        iterations: i,
                        exited_at: Some(i),
                        ran_parallel: false,
                    });
                }
            }
            Ok(ExecOutcome {
                iterations: max_iters,
                exited_at: None,
                ran_parallel: false,
            })
        })
    }

    /// Executes the plan under its [`Schedule`]: a statically sequential
    /// plan runs exactly as [`run_sequential`](Self::run_sequential);
    /// otherwise the loop is a speculative DOALL over `pool` with each
    /// array in its [`AccessMode`], falling back to sequential
    /// re-execution when the attempt does not validate. Either way the
    /// frame ends as the sequential loop leaves it, errors included.
    pub fn run_speculative(
        &self,
        frame: &mut Frame,
        pool: &Pool,
        max_iters: usize,
    ) -> Result<ExecOutcome, ExecError> {
        let Schedule::SpeculativeDoall { ivar, stride, init } = self.schedule else {
            return self.run_sequential(frame, max_iters);
        };
        let at = |i: usize| init.wrapping_add(stride.wrapping_mul(i as i64));
        self.with_env(frame, |env, s, arrays| {
            let group: Vec<GroupArray<'_, i64>> = arrays
                .iter_mut()
                .zip(&self.modes)
                .map(|(slot, mode)| match mode {
                    AccessMode::ReadOnly => GroupArray::ReadOnly(slot.as_deref().unwrap_or(&[])),
                    AccessMode::Certified => {
                        let data = slot.take().unwrap_or_default();
                        GroupArray::Certified(if self.stamps {
                            VersionedArray::new(data)
                        } else {
                            VersionedArray::new_unstamped(data)
                        })
                    }
                    AccessMode::Shadowed => {
                        GroupArray::Shadowed(SpeculativeArray::new(slot.take().unwrap_or_default()))
                    }
                })
                .collect();
            let budget = self
                .write_budget_per_iter
                .map(|w| w.saturating_mul(max_iters as u64).max(1));
            let result = speculative_while_group(
                pool,
                max_iters,
                &group,
                budget,
                || Scratch {
                    scalars: s.scalars.clone(),
                    bound: s.bound.clone(),
                    stack: Vec::with_capacity(self.stack),
                },
                |i, worker: &mut Scratch, access| {
                    worker.scalars[ivar] = at(i);
                    self.run(&self.body, env, worker, access)
                },
            );
            // written arrays go back to the slots they came from; an
            // array the frame never bound stays unbound
            let lives: Vec<Option<Vec<i64>>> =
                group.into_iter().map(GroupArray::into_live).collect();
            for ((slot, live), &present) in arrays.iter_mut().zip(lives).zip(env.present) {
                if present && live.is_some() {
                    *slot = live;
                }
            }
            s.bound[ivar] = true;
            match result {
                Ok(out) => {
                    let end = out.last_valid.unwrap_or(max_iters);
                    s.scalars[ivar] = at(end);
                    Ok(ExecOutcome {
                        iterations: end,
                        exited_at: out.last_valid,
                        ran_parallel: out.committed_parallel,
                    })
                }
                Err(GroupFault { iter, error }) => {
                    s.scalars[ivar] = at(iter);
                    Err(error)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_program;

    fn lower(src: &str) -> ExecPlan {
        let p = parse_program(src).unwrap();
        ExecPlan::lower(
            &p,
            &PlanHints::uncertified(DispatcherClass::MonotonicInduction),
        )
    }

    #[test]
    fn reasons_index_their_own_table() {
        for (at, reason) in SeqReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), at, "{reason:?}");
        }
    }

    #[test]
    fn only_a_threshold_on_the_induction_drops_the_stamps() {
        let certified = |src: &str| {
            let p = parse_program(src).unwrap();
            let hints = PlanHints {
                terminator_rv: false,
                ..PlanHints::uncertified(DispatcherClass::MonotonicInduction)
            };
            let plan = ExecPlan::lower(&p, &hints);
            assert!(matches!(plan.schedule(), Schedule::SpeculativeDoall { .. }));
            plan.stamps_certified()
        };
        let body = "{ A[i] = 1; i = i + 1 }";
        assert!(!certified(&format!("integer i = 0\nwhile (i < n) {body}")));
        assert!(!certified(&format!(
            "integer i = 0\nwhile (2 * n >= i) {body}"
        )));
        assert!(!certified(
            "integer i = 9\nwhile (i > 0) { A[i] = 1; i = i - 1 }"
        ));
        // wrong direction, equality, a bound the loop could change, an
        // array read, an extra exit: each can let a later iteration pass
        assert!(certified(&format!("integer i = 0\nwhile (i > n) {body}")));
        assert!(certified(&format!("integer i = 0\nwhile (i != n) {body}")));
        assert!(certified(&format!(
            "integer i = 0\nwhile (i < i + n) {body}"
        )));
        assert!(certified(&format!(
            "integer i = 0\nwhile (i < A[0]) {body}"
        )));
        assert!(certified(
            "integer i = 0\nwhile (i < n) { exit if (s[i] == 1); A[i] = 1; i = i + 1 }"
        ));
    }

    #[test]
    fn scalar_reads_are_checked_only_when_an_entry_scalar_is_unbound() {
        // `n` is read before anything assigns it; `t` never is
        let plan = lower("integer i = 0\nwhile (i < n) { t = i; A[i] = t; i = i + 1 }");
        let slot = |name: &str| plan.scalars().iter().position(|s| s == name).unwrap();
        assert_eq!(plan.entry_scalars, [slot("n")]);

        let mut frame = plan.frame();
        frame.bind_array(0, vec![0; 4]);
        let e = plan.run_sequential(&mut frame, 10).unwrap_err();
        assert_eq!(e.msg, "unbound scalar `n`");
        assert_eq!(frame.scalar(slot("i")), Some(0), "declarations ran");

        frame.bind_scalar(slot("n"), 3);
        let out = plan.run_sequential(&mut frame, 10).unwrap();
        assert_eq!((out.iterations, out.exited_at), (3, Some(3)));
        assert_eq!(frame.take_array(0), Some(vec![0, 1, 2, 0]));
        assert_eq!(frame.scalar(slot("t")), Some(2));
    }

    #[test]
    fn the_stack_is_sized_for_the_deepest_expression() {
        let plan = lower("while (x < 1) { A[0] = max(1, 2, 3 + (4 * (5 - x))) }");
        // the store's subscript, then 1, 2, 3, 4, 5, x — all at once
        assert_eq!(plan.stack, 7);
    }
}
