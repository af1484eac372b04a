//! The slot-resolved execution plan: a parsed [`Program`] lowered once to
//! a form the executor can run without looking anything up.
//!
//! [`ExecPlan::lower`] resolves every scalar, array and host function to
//! a dense slot, flattens declarations and the loop body to three-address
//! code over one register file, decides once whether the loop can run as a
//! speculative DOALL (and if not, [why](SeqReason)), and fixes a
//! per-array [`AccessMode`]. One executor runs the result either way:
//! [`ExecPlan::run_sequential`] iterates the body code against the
//! frame's arrays directly, [`ExecPlan::run_speculative`] hands the very
//! same body code to [`speculative_while_group`] with each array wrapped
//! in exactly the machinery its mode calls for. Neither allocates per
//! iteration: the register file is built once per execution and cloned
//! once per worker per region.
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

/// A register of plan code: an index into the one flat `i64` file every
/// executor owns — the scalar slots first, then the program's constants
/// (preloaded by [`ExecPlan::frame`]), then the temporaries.
type Reg = u32;

/// One instruction of plan code: three-address over the register file,
/// with every operator, comparison and unit stride resolved at lowering so
/// that executing one is one dispatch. Every instruction reads all its
/// operands before it writes, so a destination may be one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `d = a`
    Move { d: Reg, a: Reg },
    /// `d = -a`
    Neg { d: Reg, a: Reg },
    /// `d = a + b` (wrapping, as are the next three)
    Add { d: Reg, a: Reg, b: Reg },
    /// `d = a - b`
    Sub { d: Reg, a: Reg, b: Reg },
    /// `d = a * b`
    Mul { d: Reg, a: Reg, b: Reg },
    /// `d = a / b`; fails on division by zero.
    Div { d: Reg, a: Reg, b: Reg },
    /// `d = (a op b) as 0/1`, for a comparison no exit consumes.
    Cmp { op: CmpOp, d: Reg, a: Reg, b: Reg },
    /// `d = arr[x + off]` (wrapping): a subscript affine in one scalar
    /// with coefficient 1, or any non-affine one, computed into `x` first
    /// and riding as `x + 0`.
    LoadAt { d: Reg, arr: u32, x: Reg, off: i64 },
    /// `d = arr[scale·x + off]` (wrapping): any other subscript affine in
    /// one scalar.
    Load {
        d: Reg,
        arr: u32,
        x: Reg,
        scale: i64,
        off: i64,
    },
    /// `arr[x + off] = v`
    StoreAt { arr: u32, x: Reg, v: Reg, off: i64 },
    /// `arr[scale·x + off] = v`
    Store {
        arr: u32,
        x: Reg,
        v: Reg,
        scale: i64,
        off: i64,
    },
    /// Fail now if the register is an unbound scalar: emitted where the
    /// instruction that consumes a bare scalar read comes after code the
    /// tree walker evaluates later than that read. Does nothing unless
    /// scalar reads are being checked.
    Check(Reg),
    /// Fail now if the function slot is unbound (before its arguments
    /// are evaluated, which is when the tree walker noticed).
    CheckFn(u32),
    /// `d = func(first, first + 1, … first + argc - 1)`
    Call {
        d: Reg,
        func: u32,
        first: Reg,
        argc: u32,
    },
    /// Leave the loop if `a < b`. The six exits are a comparison fused
    /// with the exit it feeds: an `exit if` leaves when its comparison
    /// holds, the WHILE condition when its negation does.
    ExitLt { a: Reg, b: Reg },
    /// Leave the loop if `a <= b`.
    ExitLe { a: Reg, b: Reg },
    /// Leave the loop if `a > b`.
    ExitGt { a: Reg, b: Reg },
    /// Leave the loop if `a >= b`.
    ExitGe { a: Reg, b: Reg },
    /// Leave the loop if `a == b`.
    ExitEq { a: Reg, b: Reg },
    /// Leave the loop if `a != b`.
    ExitNe { a: Reg, b: Reg },
    /// Leave the loop if the register is zero (a WHILE condition that is
    /// not a comparison).
    ExitIfZero(Reg),
    /// Leave the loop if the register is non-zero (such an `exit if`).
    ExitIfNonZero(Reg),
}

impl Op {
    /// Renumbers every register operand.
    fn relocate(&mut self, at: impl Fn(Reg) -> Reg) {
        let regs: [Option<&mut Reg>; 3] = match self {
            Op::Move { d, a } | Op::Neg { d, a } => [Some(d), Some(a), None],
            Op::Add { d, a, b }
            | Op::Sub { d, a, b }
            | Op::Mul { d, a, b }
            | Op::Div { d, a, b }
            | Op::Cmp { d, a, b, .. } => [Some(d), Some(a), Some(b)],
            Op::LoadAt { d, x, .. } | Op::Load { d, x, .. } => [Some(d), Some(x), None],
            Op::StoreAt { x, v, .. } | Op::Store { x, v, .. } => [Some(x), Some(v), None],
            Op::Call { d, first, .. } => [Some(d), Some(first), None],
            Op::ExitLt { a, b }
            | Op::ExitLe { a, b }
            | Op::ExitGt { a, b }
            | Op::ExitGe { a, b }
            | Op::ExitEq { a, b }
            | Op::ExitNe { a, b } => [Some(a), Some(b), None],
            Op::Check(r) | Op::ExitIfZero(r) | Op::ExitIfNonZero(r) => [Some(r), None, None],
            Op::CheckFn(_) => [None, None, None],
        };
        for r in regs.into_iter().flatten() {
            *r = at(*r);
        }
    }

    /// `d = a op b`.
    fn arith(op: BinOp, d: Reg, a: Reg, b: Reg) -> Op {
        match op {
            BinOp::Add => Op::Add { d, a, b },
            BinOp::Sub => Op::Sub { d, a, b },
            BinOp::Mul => Op::Mul { d, a, b },
            BinOp::Div => Op::Div { d, a, b },
        }
    }

    /// Leave the loop if `a op b`.
    fn exit(op: CmpOp, a: Reg, b: Reg) -> Op {
        match op {
            CmpOp::Lt => Op::ExitLt { a, b },
            CmpOp::Le => Op::ExitLe { a, b },
            CmpOp::Gt => Op::ExitGt { a, b },
            CmpOp::Ge => Op::ExitGe { a, b },
            CmpOp::Eq => Op::ExitEq { a, b },
            CmpOp::Ne => Op::ExitNe { a, b },
        }
    }

    /// `d = arr[scale·x + off]`.
    fn load(d: Reg, arr: u32, (x, scale, off): (Reg, i64, i64)) -> Op {
        match scale {
            1 => Op::LoadAt { d, arr, x, off },
            _ => Op::Load {
                d,
                arr,
                x,
                scale,
                off,
            },
        }
    }

    /// `arr[scale·x + off] = v`.
    fn store(arr: u32, (x, scale, off): (Reg, i64, i64), v: Reg) -> Op {
        match scale {
            1 => Op::StoreAt { arr, x, v, off },
            _ => Op::Store {
                arr,
                x,
                v,
                scale,
                off,
            },
        }
    }
}

/// The comparison that holds exactly when `op` does not: the six are
/// closed under negation.
fn negate(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
    }
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
    /// The literals the code reads, in the registers after the scalars.
    consts: Vec<i64>,
    /// Temporaries the deepest expression of either code needs: the
    /// registers after the constants.
    temps: usize,
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
    /// The register file and, per register, whether anything bound or
    /// assigned it (constants and temporaries are born bound).
    scratch: Scratch,
    /// How many of the registers are scalar slots: the first `named`.
    named: usize,
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
        self.scratch.regs[..self.named][s] = v;
        self.scratch.bound[s] = true;
    }

    /// The value of scalar slot `s`, if anything bound or assigned it.
    pub fn scalar(&self, s: usize) -> Option<i64> {
        self.scratch.bound[..self.named][s].then(|| self.scratch.regs[s])
    }

    /// Binds host-function slot `f`.
    pub fn bind_fn(&mut self, f: usize, func: HostFn) {
        self.funcs[f] = Some(func);
    }
}

/// Per-executor mutable state: the register file. The sequential loop
/// runs on the frame's own; a speculative region clones it per worker.
#[derive(Clone)]
struct Scratch {
    regs: Vec<i64>,
    bound: Vec<bool>,
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

/// The frame's own arrays, one slice per slot, resolved once per
/// execution: an unbound array is an empty slice.
struct Direct<'a>(Vec<&'a mut [i64]>);

impl<'a> Direct<'a> {
    fn new(arrays: &'a mut [Option<Vec<i64>>]) -> Self {
        Direct(
            arrays
                .iter_mut()
                .map(|a| a.as_deref_mut().unwrap_or_default())
                .collect(),
        )
    }
}

impl ArrayView for Direct<'_> {
    // A negative subscript cast to `usize` is past any slice's length, so
    // one compare bounds it on both sides.
    #[inline]
    fn load(&mut self, a: usize, idx: i64) -> Option<i64> {
        self.0[a].get(idx as usize).copied()
    }

    #[inline]
    fn store(&mut self, a: usize, idx: i64, v: i64) -> Option<()> {
        *self.0[a].get_mut(idx as usize)? = v;
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

/// While code is being emitted the register file's layout is not known
/// (scalars are interned as they are met), so constants and temporaries
/// are numbered from these bases and [`ExecPlan::lower`] renumbers them
/// behind the scalars once it is.
const CONST_BASE: Reg = 1 << 30;
const TEMP_BASE: Reg = 1 << 31;
/// The destination of an instruction whose caller has yet to name it; see
/// [`Lowering::code`].
const DEST: Reg = Reg::MAX;

/// Names `d` as the destination of the instruction just emitted for
/// [`DEST`].
fn retarget(d: Reg, out: &mut [Op]) {
    let last = out.last_mut().expect("an instruction was just emitted");
    last.relocate(|r| if r == DEST { d } else { r });
}

/// Whether lowering `e` emits no code: its value sits in a register.
fn is_bare(e: &Expr) -> bool {
    matches!(e, Expr::Int(_) | Expr::Null | Expr::Var(_))
}

/// Lowering state: the slot tables, and which scalars the code emitted
/// so far has definitely assigned.
#[derive(Default)]
struct Lowering {
    scalars: Vec<String>,
    arrays: Vec<String>,
    funcs: Vec<String>,
    consts: Vec<i64>,
    stored: Vec<bool>,
    assigned: Vec<bool>,
    entry_scalars: Vec<usize>,
    /// Temporaries holding a value an instruction yet to be emitted
    /// reads, and the most there ever were.
    live: u32,
    temps: u32,
}

impl Lowering {
    fn scalar(&mut self, name: &str) -> Reg {
        let s = slot_of(&mut self.scalars, name);
        self.assigned.resize(self.scalars.len(), false);
        s
    }

    fn array(&mut self, name: &str) -> u32 {
        let a = slot_of(&mut self.arrays, name);
        self.stored.resize(self.arrays.len(), false);
        a
    }

    /// The register of a scalar that is read here.
    fn read(&mut self, name: &str) -> Reg {
        let s = self.scalar(name);
        let at = s as usize;
        if !self.assigned[at] && !self.entry_scalars.contains(&at) {
            self.entry_scalars.push(at);
        }
        s
    }

    /// The register preloaded with `v`.
    fn konst(&mut self, v: i64) -> Reg {
        let at = self.consts.iter().position(|&c| c == v).unwrap_or_else(|| {
            self.consts.push(v);
            self.consts.len() - 1
        });
        CONST_BASE + u32::try_from(at).expect("constant count fits u32")
    }

    /// A fresh temporary, live until a caller resets `live`.
    fn temp(&mut self) -> Reg {
        self.live += 1;
        self.temps = self.temps.max(self.live);
        TEMP_BASE + self.live - 1
    }

    /// Emits what `e` needs computed, in the tree walker's evaluation
    /// order. `Some(r)`: nothing was emitted, the value sits in `r`, a
    /// scalar's or a constant's own register. `None`: the last instruction
    /// emitted computes it into [`DEST`], for the caller to name.
    fn code(&mut self, e: &Expr, out: &mut Vec<Op>) -> Option<Reg> {
        let live = self.live;
        let op = match e {
            Expr::Int(v) => return Some(self.konst(*v)),
            Expr::Null => return Some(self.konst(0)),
            Expr::Var(v) => return Some(self.read(v)),
            Expr::Index(arr, sub) => {
                let sub = self.subscript(sub, out);
                Op::load(DEST, self.array(arr), sub)
            }
            Expr::Call(f, args) => {
                let func = slot_of(&mut self.funcs, f);
                out.push(Op::CheckFn(func));
                // each argument in the next temporary: consecutive
                let first = TEMP_BASE + live;
                for a in args {
                    self.into(a, Self::temp, out);
                }
                let argc = u32::try_from(args.len()).expect("argument count fits u32");
                Op::Call {
                    d: DEST,
                    func,
                    first,
                    argc,
                }
            }
            Expr::Neg(inner) => {
                let a = self.expr(inner, out);
                Op::Neg { d: DEST, a }
            }
            Expr::Bin(op, a, b) => {
                let (a, b) = self.operands(a, b, out);
                Op::arith(*op, DEST, a, b)
            }
            Expr::Cmp(op, a, b) => {
                let (a, b) = self.operands(a, b, out);
                Op::Cmp {
                    op: *op,
                    d: DEST,
                    a,
                    b,
                }
            }
        };
        // the operands' temporaries die with the instruction that reads
        // them, which may therefore write one of them
        self.live = live;
        out.push(op);
        None
    }

    /// Emits `e` and returns the register its value is in: its own if it
    /// has one, a temporary otherwise.
    fn expr(&mut self, e: &Expr, out: &mut Vec<Op>) -> Reg {
        self.code(e, out).unwrap_or_else(|| {
            let d = self.temp();
            retarget(d, out);
            d
        })
    }

    /// Emits `e` with its value ending in the register `d` names, which
    /// is asked for only once `e`'s own names are interned (a statement's
    /// destination gets its slot after its right side's scalars) and only
    /// written by the last instruction (so `e` may read it).
    fn into(&mut self, e: &Expr, d: impl FnOnce(&mut Self) -> Reg, out: &mut Vec<Op>) -> Reg {
        let bare = self.code(e, out);
        let d = d(self);
        match bare {
            Some(a) => out.push(Op::Move { d, a }),
            None => retarget(d, out),
        }
        d
    }

    /// Emits `Check(r)` if `r` is a scalar nothing has definitely
    /// assigned and `then` emits code: that code runs before the
    /// instruction that reads `r`, but the tree walker reads `r` first.
    fn check_before(&mut self, r: Reg, then: &Expr, out: &mut Vec<Op>) {
        if !is_bare(then) && self.assigned.get(r as usize) == Some(&false) {
            out.push(Op::Check(r));
        }
    }

    /// The operands of a two-operand node, the left one first.
    fn operands(&mut self, a: &Expr, b: &Expr, out: &mut Vec<Op>) -> (Reg, Reg) {
        let ra = self.expr(a, out);
        self.check_before(ra, b, out);
        (ra, self.expr(b, out))
    }

    /// A subscript as `(x, scale, off)`, standing for `scale·x + off`.
    fn subscript(&mut self, sub: &Expr, out: &mut Vec<Op>) -> (Reg, i64, i64) {
        match affine(sub) {
            // whatever `scale` came to, the access reads (and checks) `x`
            Some((Some(x), scale, off)) => (self.read(x), scale, off),
            _ => (self.expr(sub, out), 1, 0),
        }
    }

    fn assign(&mut self, name: &str, rhs: &Expr, out: &mut Vec<Op>) {
        let s = self.into(rhs, |lw| lw.scalar(name), out);
        self.assigned[s as usize] = true;
    }

    fn store(&mut self, arr: &str, sub: &Expr, rhs: &Expr, out: &mut Vec<Op>) {
        let sub = self.subscript(sub, out);
        self.check_before(sub.0, rhs, out);
        let v = self.expr(rhs, out);
        let arr = self.array(arr);
        self.stored[arr as usize] = true;
        out.push(Op::store(arr, sub, v));
        // a statement's temporaries die with it
        self.live = 0;
    }

    /// Emits the test that leaves the loop when `cond` is `when`.
    fn exit(&mut self, cond: &Expr, when: bool, out: &mut Vec<Op>) {
        let test = match cond {
            Expr::Cmp(op, a, b) => {
                let (a, b) = self.operands(a, b, out);
                Op::exit(if when { *op } else { negate(*op) }, a, b)
            }
            _ if when => Op::ExitIfNonZero(self.expr(cond, out)),
            _ => Op::ExitIfZero(self.expr(cond, out)),
        };
        out.push(test);
        self.live = 0;
    }
}

/// `scale·x + off` when `e` is built from literals, at most one scalar
/// `x` and `+`, `-`, `*` alone, folded with the executor's own wrapping
/// arithmetic: those are ring operations, so the folded form takes the
/// value the tree takes for every `x`. (Not `frontend::lower::linear_form`,
/// which feeds dependence tests that reason over ℤ and so must refuse a
/// fold that overflows; this one must reproduce the overflow.)
fn affine(e: &Expr) -> Option<(Option<&str>, i64, i64)> {
    Some(match e {
        Expr::Int(v) => (None, 0, *v),
        Expr::Null => (None, 0, 0),
        Expr::Var(x) => (Some(x), 1, 0),
        Expr::Neg(inner) => {
            let (x, scale, off) = affine(inner)?;
            (x, scale.wrapping_neg(), off.wrapping_neg())
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            let ((xa, sa, oa), (xb, sb, ob)) = (affine(a)?, affine(b)?);
            let (x, scale) = match (xa, xb) {
                (None, x) => (x, oa.wrapping_mul(sb)),
                (x, None) => (x, sa.wrapping_mul(ob)),
                _ => return None,
            };
            (x, scale, oa.wrapping_mul(ob))
        }
        Expr::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => {
            let ((xa, sa, oa), (xb, sb, ob)) = (affine(a)?, affine(b)?);
            if xa.is_some() && xb.is_some() && xa != xb {
                return None;
            }
            (xa.or(xb), arith(*op, sa, sb)?, arith(*op, oa, ob)?)
        }
        _ => return None,
    })
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
        lw.exit(&p.cond, false, &mut body);
        for st in &p.body {
            if let Stmt::ExitIf(c) = st {
                lw.exit(c, true, &mut body);
            }
        }
        for st in &p.body {
            match st {
                Stmt::ExitIf(_) => {}
                Stmt::AssignVar(name, rhs) => lw.assign(name, rhs, &mut body),
                Stmt::AssignElem(arr, sub, rhs) => lw.store(arr, sub, rhs, &mut body),
            }
        }

        // every name is interned: constants and temporaries move behind
        // the scalars
        let consts_at = u32::try_from(lw.scalars.len()).expect("slot count fits u32");
        let temps_at = consts_at + u32::try_from(lw.consts.len()).expect("fits with the bases");
        for op in decls.iter_mut().chain(&mut body) {
            op.relocate(|r| match r {
                TEMP_BASE.. => r - TEMP_BASE + temps_at,
                CONST_BASE.. => r - CONST_BASE + consts_at,
                scalar => scalar,
            });
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
            consts: lw.consts,
            temps: lw.temps as usize,
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
            .filter(|op| {
                matches!(op, Op::StoreAt { arr, .. } | Op::Store { arr, .. }
                    if self.modes[*arr as usize] == AccessMode::Shadowed)
            })
            .count() as u64
    }

    /// Instructions one iteration executes when no exit fires: the first
    /// term of what an iteration costs.
    pub fn ops_per_iter(&self) -> usize {
        self.body.len()
    }

    /// An empty frame shaped for this plan: nothing bound.
    pub fn frame(&self) -> Frame {
        let named = self.scalars.len();
        let mut regs = vec![0; named + self.consts.len() + self.temps];
        regs[named..named + self.consts.len()].copy_from_slice(&self.consts);
        let mut bound = vec![true; regs.len()];
        bound[..named].fill(false);
        Frame {
            arrays: vec![None; self.arrays.len()],
            scratch: Scratch { regs, bound },
            named,
            funcs: vec![None; self.funcs.len()],
        }
    }

    /// Runs `code` to its end or to the first exit that fires, checking
    /// scalar reads if this execution has to and, with `TRACK`, marking
    /// every register it writes bound.
    #[inline]
    fn run<V: ArrayView, const TRACK: bool>(
        &self,
        code: &[Op],
        env: &Env<'_>,
        s: &mut Scratch,
        view: &mut V,
    ) -> Result<Step, ExecError> {
        if env.check_scalars {
            self.run_code::<V, true, TRACK>(code, env, s, view)
        } else {
            self.run_code::<V, false, TRACK>(code, env, s, view)
        }
    }

    /// The executor. With `CHECK`, an operand that is a scalar nothing
    /// bound or assigned fails the read, as in the tree walker; without,
    /// the caller has established that there is none. With `TRACK`, every
    /// write marks its register bound; without, the caller has established
    /// that every register the code writes already is, so `bound` stays
    /// exact in every mode: it is what the frame reports.
    fn run_code<V: ArrayView, const CHECK: bool, const TRACK: bool>(
        &self,
        code: &[Op],
        env: &Env<'_>,
        s: &mut Scratch,
        view: &mut V,
    ) -> Result<Step, ExecError> {
        let (regs, bound) = (&mut s.regs[..], &mut s.bound[..]);
        macro_rules! get {
            ($r:expr) => {{
                let r = $r as usize;
                if CHECK && !bound[r] {
                    return Err(self.unbound(r));
                }
                regs[r]
            }};
        }
        macro_rules! set {
            ($d:expr, $v:expr) => {{
                let d = $d as usize;
                regs[d] = $v;
                if TRACK {
                    bound[d] = true;
                }
            }};
        }
        macro_rules! exit_if {
            ($a:expr, $cmp:tt, $b:expr) => {{
                if get!($a) $cmp get!($b) {
                    return Ok(Step::Quit);
                }
            }};
        }
        macro_rules! load {
            ($d:expr, $arr:expr, $idx:expr) => {{
                let (arr, idx) = ($arr as usize, $idx);
                match view.load(arr, idx) {
                    Some(v) => set!($d, v),
                    None => return Err(self.access_error(env, arr, idx)),
                }
            }};
        }
        macro_rules! store {
            ($arr:expr, $idx:expr, $v:expr) => {{
                let (arr, idx) = ($arr as usize, $idx);
                let v = get!($v);
                if view.store(arr, idx, v).is_none() {
                    return Err(self.access_error(env, arr, idx));
                }
            }};
        }
        for op in code {
            match *op {
                Op::Move { d, a } => {
                    let v = get!(a);
                    set!(d, v);
                }
                Op::Neg { d, a } => {
                    let v = get!(a).wrapping_neg();
                    set!(d, v);
                }
                Op::Add { d, a, b } => {
                    let v = get!(a).wrapping_add(get!(b));
                    set!(d, v);
                }
                Op::Sub { d, a, b } => {
                    let v = get!(a).wrapping_sub(get!(b));
                    set!(d, v);
                }
                Op::Mul { d, a, b } => {
                    let v = get!(a).wrapping_mul(get!(b));
                    set!(d, v);
                }
                Op::Div { d, a, b } => {
                    let (x, y) = (get!(a), get!(b));
                    if y == 0 {
                        return Err(err("division by zero".into()));
                    }
                    set!(d, x.wrapping_div(y));
                }
                Op::Cmp { op, d, a, b } => {
                    let (x, y) = (get!(a), get!(b));
                    set!(d, i64::from(compare(op, x, y)));
                }
                Op::LoadAt { d, arr, x, off } => load!(d, arr, get!(x).wrapping_add(off)),
                Op::Load {
                    d,
                    arr,
                    x,
                    scale,
                    off,
                } => load!(d, arr, scale.wrapping_mul(get!(x)).wrapping_add(off)),
                Op::StoreAt { arr, x, v, off } => store!(arr, get!(x).wrapping_add(off), v),
                Op::Store {
                    arr,
                    x,
                    v,
                    scale,
                    off,
                } => store!(arr, scale.wrapping_mul(get!(x)).wrapping_add(off), v),
                Op::Check(r) => {
                    get!(r);
                }
                Op::CheckFn(f) => {
                    if env.funcs[f as usize].is_none() {
                        return Err(err(format!(
                            "unknown function `{}`",
                            self.funcs[f as usize]
                        )));
                    }
                }
                Op::Call {
                    d,
                    func,
                    first,
                    argc,
                } => {
                    let f = env.funcs[func as usize]
                        .as_ref()
                        .expect("CheckFn precedes every call");
                    let first = first as usize;
                    let v = f(&regs[first..first + argc as usize]);
                    set!(d, v);
                }
                Op::ExitLt { a, b } => exit_if!(a, <, b),
                Op::ExitLe { a, b } => exit_if!(a, <=, b),
                Op::ExitGt { a, b } => exit_if!(a, >, b),
                Op::ExitGe { a, b } => exit_if!(a, >=, b),
                Op::ExitEq { a, b } => exit_if!(a, ==, b),
                Op::ExitNe { a, b } => exit_if!(a, !=, b),
                Op::ExitIfZero(r) => {
                    if get!(r) == 0 {
                        return Ok(Step::Quit);
                    }
                }
                Op::ExitIfNonZero(r) => {
                    if get!(r) != 0 {
                        return Ok(Step::Quit);
                    }
                }
            }
        }
        Ok(Step::Continue)
    }

    #[cold]
    fn unbound(&self, r: usize) -> ExecError {
        // only a scalar slot can be: the other registers are born bound
        err(format!("unbound scalar `{}`", self.scalars[r]))
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
    /// needs: the read-only side, the frame's registers, its arrays.
    fn with_env<R>(
        &self,
        frame: &mut Frame,
        exec: impl FnOnce(&Env<'_>, &mut Scratch, &mut [Option<Vec<i64>>]) -> Result<R, ExecError>,
    ) -> Result<R, ExecError> {
        let Frame {
            arrays,
            scratch: s,
            funcs,
            ..
        } = frame;
        let present: Vec<bool> = arrays.iter().map(Option::is_some).collect();
        let env = Env {
            funcs,
            present: &present,
            check_scalars: self.entry_scalars.iter().any(|&slot| !s.bound[slot]),
        };
        self.run::<_, true>(&self.decls, &env, s, &mut Direct::new(arrays))?;
        exec(&env, s, arrays)
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
            let mut view = Direct::new(arrays);
            for i in 0..max_iters {
                // the body is straight-line code after its exits: once one
                // iteration ran whole, every register it writes is bound
                let step = if i == 0 {
                    self.run::<_, true>(&self.body, env, s, &mut view)?
                } else {
                    self.run::<_, false>(&self.body, env, s, &mut view)?
                };
                if step == Step::Quit {
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
                || s.clone(),
                // the body assigns no scalar but `ivar`, which the
                // declarations bound: a worker never changes a flag
                |i, worker: &mut Scratch, access| {
                    worker.regs[ivar] = at(i);
                    self.run::<_, false>(&self.body, env, worker, access)
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
                    s.regs[ivar] = at(end);
                    Ok(ExecOutcome {
                        iterations: end,
                        exited_at: out.last_valid,
                        ran_parallel: out.committed_parallel,
                    })
                }
                Err(GroupFault { iter, error }) => {
                    s.regs[ivar] = at(iter);
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
    fn the_frame_is_sized_for_scalars_constants_and_the_deepest_temporaries() {
        let plan = lower("while (x < 1) { A[0] = max(1, 2, 3 + (4 * (5 - x))) }");
        // x; each literal once, in the order met; max's three arguments
        // side by side, the third computed in place
        assert_eq!(plan.scalars(), ["x"]);
        assert_eq!(plan.consts, [1, 0, 2, 3, 4, 5]);
        assert_eq!(plan.temps, 3);
        let frame = plan.frame();
        assert_eq!(frame.scratch.regs, [0, 1, 0, 2, 3, 4, 5, 0, 0, 0]);
        assert_eq!(frame.scratch.bound[..2], [false, true]);
        // exit test, CheckFn, three arguments (the third in three), call, store
        assert_eq!(plan.ops_per_iter(), 9);
    }

    /// Every instruction variant is emitted by some program: the corpus
    /// and one-liners lowered, each instruction named through a match
    /// with no catch-all arm, so a new variant must be named here and
    /// reached by a program below before this passes.
    #[test]
    fn every_instruction_variant_is_emitted() {
        const VARIANTS: &str = "Move Neg Add Sub Mul Div Cmp LoadAt Load StoreAt Store Check \
            CheckFn Call ExitLt ExitLe ExitGt ExitGe ExitEq ExitNe ExitIfZero ExitIfNonZero";
        const PROGRAMS: [&str; 9] = [
            "while (i < n) { A[i] = -w[i] + (w[i] - 2) * w[i] / 3; i = i + 1 }",
            "while (i >= n) { A[i] = (w[i] < 3) * 2; i = i + 1 }",
            "while (i > n) { A[n - i] = w[2 * i]; i = i + 1 }",
            "while (i <= n) { A[k] = B[j]; i = i + 1 }",
            "while (i != n) { A[i] = g(w[i]); i = i + 1 }",
            "while (i == n) { exit if (w[i] < 0); exit if (0 <= w[i]); i = i + 1 }",
            "while (n - i) { exit if (w[i] > 9); exit if (w[i] >= 9); i = i + 1 }",
            "while (i < n) { exit if (w[i] == 1); exit if (w[i] != 1); i = i + 1 }",
            "while (i < n) { exit if (w[i]); i = i + 1 }",
        ];
        let corpus = std::fs::read_dir(format!(
            "{}/../../examples/loops",
            env!("CARGO_MANIFEST_DIR")
        ))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "wlp"))
        .map(|path| std::fs::read_to_string(path).unwrap());
        let mut emitted = std::collections::BTreeSet::new();
        for src in corpus.chain(PROGRAMS.map(String::from)) {
            let plan = lower(&src);
            for op in plan.decls.iter().chain(&plan.body) {
                emitted.insert(match op {
                    Op::Move { .. } => "Move",
                    Op::Neg { .. } => "Neg",
                    Op::Add { .. } => "Add",
                    Op::Sub { .. } => "Sub",
                    Op::Mul { .. } => "Mul",
                    Op::Div { .. } => "Div",
                    Op::Cmp { .. } => "Cmp",
                    Op::LoadAt { .. } => "LoadAt",
                    Op::Load { .. } => "Load",
                    Op::StoreAt { .. } => "StoreAt",
                    Op::Store { .. } => "Store",
                    Op::Check(_) => "Check",
                    Op::CheckFn(_) => "CheckFn",
                    Op::Call { .. } => "Call",
                    Op::ExitLt { .. } => "ExitLt",
                    Op::ExitLe { .. } => "ExitLe",
                    Op::ExitGt { .. } => "ExitGt",
                    Op::ExitGe { .. } => "ExitGe",
                    Op::ExitEq { .. } => "ExitEq",
                    Op::ExitNe { .. } => "ExitNe",
                    Op::ExitIfZero(_) => "ExitIfZero",
                    Op::ExitIfNonZero(_) => "ExitIfNonZero",
                });
            }
        }
        assert_eq!(emitted, VARIANTS.split_whitespace().collect());
    }

    /// One iteration of each corpus body, in instructions: the first
    /// field of the cost record a break-even rule needs (the postfix code
    /// this replaced took 164 over the seven).
    #[test]
    fn corpus_bodies_lower_to_a_pinned_number_of_instructions() {
        assert!(std::mem::size_of::<Op>() <= 32);
        let ops = |name: &str| {
            let path = format!(
                "{}/../../examples/loops/{name}.wlp",
                env!("CARGO_MANIFEST_DIR")
            );
            lower(&std::fs::read_to_string(path).unwrap()).ops_per_iter()
        };
        let pinned = [
            ("swap", 6),
            ("gather_scatter", 11),
            ("counted_fill", 5),
            ("guarded_update", 8),
            ("partial_sums", 6),
            ("wavefront", 9),
            ("mcsparse_pair", 13),
        ];
        for (name, want) in pinned {
            assert_eq!(ops(name), want, "{name}");
        }
        assert!(pinned.iter().map(|(_, n)| n).sum::<usize>() <= 64);
    }
}
