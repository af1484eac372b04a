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
//! [`PlanHints::uncertified`] shadows every written array. Which arrays it
//! certified independent is all a plan takes on trust: whether certified
//! arrays need write stamps, and how many stamped writes an iteration
//! makes, are read off the program and the plan's own code.
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
use wlp_runtime::{CancelFlag, Pool, Step};

mod licence;

use licence::{Chain, Licence, Link, Role, MAX_ARGS};
pub use licence::{Refusal, LANES};

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
/// `certified` is the one verdict lowering cannot check against the
/// program text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanHints {
    /// The planner's dispatcher class.
    pub dispatcher: DispatcherClass,
    /// A reason the analysis itself rules parallel execution out.
    pub sequential: Option<SeqReason>,
    /// Stored-to arrays whose every access is certified independent.
    /// Any other stored-to array is shadowed.
    pub certified: Vec<String>,
}

impl PlanHints {
    /// No certificate: every stored-to array is shadowed.
    pub fn uncertified(dispatcher: DispatcherClass) -> Self {
        PlanHints {
            dispatcher,
            sequential: None,
            certified: Vec::new(),
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
    /// Whether the body may run [`LANES`] iterations at a time, read off
    /// `body` and `consts` alone.
    batch: Result<Licence, Refusal>,
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

/// Iterations between two reads of a run's stop, in every loop the plan
/// executes. A read is a clock read when the stop has an expiry, so
/// checking once per this many iterations costs nothing measurable; a
/// run stops within this many iterations of its stop tripping.
const STOP_EVERY: usize = 1024;

/// Whether iteration `i` is one that reads `stop`, and it reads tripped.
#[inline]
fn stopped(stop: &CancelFlag, i: usize) -> bool {
    i.is_multiple_of(STOP_EVERY) && stop.is_cancelled_now()
}

/// The error a tripped stop ends a run with. Never a loop exit: that
/// would report a truncated loop as the sequential result.
fn stop_error() -> ExecError {
    err("the run was stopped: its deadline passed or its client left".into())
}

/// Why a batch stopped short. Either way the batch is undone and its
/// iterations run one at a time, which meets the same thing in sequential
/// order.
enum Trip {
    /// Some lane met an error.
    Fault,
    /// Two lanes claimed one element of a checked array: iterations of
    /// this run meet through computed subscripts, so it runs no more
    /// batches.
    Collision,
}

/// How an attempt at a batch ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Batched {
    Committed,
    /// It did not start, or some lane met an exit or an error.
    Undone,
    /// Two of its lanes claimed one element of a checked array.
    Collided,
}

/// A batch's registers, lane `k` of each holding iteration `k` of the
/// batch, over the frame's arrays. Run only for a licensed body with
/// every entry scalar bound and the affine ranges checked
/// ([`ExecPlan::batch_at`]), so nothing is checked per scalar read and an
/// affine access cannot leave its array.
struct Batch<'r, 'a> {
    env: &'r Env<'r>,
    roles: &'r [Role],
    /// The instructions that are part of a scan or a checked exit, by
    /// position, in body order: each runs its link in its place.
    links: &'r [(usize, Link)],
    regs: &'r mut [[i64; LANES]],
    arrays: &'r mut [&'a mut [i64]],
    /// What each store overwrote, when something can trip after a store.
    trail: Option<&'r mut Trail>,
    /// Per checked array, which lane of which batch claimed each element;
    /// empty for every other array.
    marks: &'r mut [Vec<u16>],
    /// This batch's number in `marks`: a mark is `epoch << 6 | lane`.
    epoch: u16,
}

/// What a batch's stores overwrote, in order: array slot, elements, old
/// values. An array is stored either through affine spans or through
/// scattered elements, never both, so each list is undone on its own.
#[derive(Default)]
struct Trail {
    spans: Vec<(usize, (usize, isize), [i64; LANES])>,
    scattered: Vec<(usize, [usize; LANES], [i64; LANES])>,
}

/// What a licensed run keeps for its batches, made when the first one
/// starts.
#[derive(Default)]
struct LaneFile {
    /// Per register, one value per lane.
    regs: Vec<[i64; LANES]>,
    /// [`Batch::marks`], one buffer per checked array.
    marks: Vec<Vec<u16>>,
    /// The last batch's [`Batch::epoch`], 1 to 1023; 0 marks nothing.
    epoch: u16,
    trail: Trail,
}

/// Whether `leave` holds between `a + ca·k` and `b + cb·k` (wrapping) in
/// any lane `k`. Where neither side wraps, their difference is linear in
/// `k`, so any comparison but `==` holds in some lane iff it holds in the
/// first or the last.
fn fires(leave: CmpOp, (a, ca): (i64, i64), (b, cb): (i64, i64)) -> bool {
    let last = |v: i64, c: i64| v.checked_add(c.checked_mul(LANES as i64 - 1)?);
    match (last(a, ca), last(b, cb)) {
        (Some(a_last), Some(b_last)) if leave != CmpOp::Eq => {
            compare(leave, a, b) || compare(leave, a_last, b_last)
        }
        _ => (0..LANES as i64).any(|k| {
            let at = |v: i64, c: i64| v.wrapping_add(c.wrapping_mul(k));
            compare(leave, at(a, ca), at(b, cb))
        }),
    }
}

/// The element lane 0 of an affine access reaches and the distance to
/// the next lane's, if lanes 0 to 63 (`base + step·k`, wrapping) all lie
/// in an array of `len` elements.
fn span(len: usize, base: i64, step: i64) -> Option<(usize, isize)> {
    let last = i128::from(base) + i128::from(step) * (LANES as i128 - 1);
    let inside = |at: i128| (0..len as i128).contains(&at);
    (inside(base.into()) && inside(last)).then_some((base as usize, step as isize))
}

/// The lanes of a checked [`span`] of `a`, in lane order.
fn read_lanes(a: &[i64], (at, step): (usize, isize), out: &mut [i64; LANES]) {
    match step {
        1 => out.copy_from_slice(&a[at..at + LANES]),
        2.. => {
            let step = step as usize;
            let src = &a[at..=at + step * (LANES - 1)];
            for (k, o) in out.iter_mut().enumerate() {
                *o = src[k * step];
            }
        }
        _ => {
            for (k, o) in out.iter_mut().enumerate() {
                *o = a[at.wrapping_add_signed(step * k as isize)];
            }
        }
    }
}

/// Writes `v` to the lanes of a checked [`span`] of `a`, in lane order.
fn write_lanes(a: &mut [i64], (at, step): (usize, isize), v: &[i64; LANES]) {
    match step {
        1 => a[at..at + LANES].copy_from_slice(v),
        2.. => {
            let step = step as usize;
            let dst = &mut a[at..=at + step * (LANES - 1)];
            for (k, v) in v.iter().enumerate() {
                dst[k * step] = *v;
            }
        }
        _ => {
            for (k, v) in v.iter().enumerate() {
                a[at.wrapping_add_signed(step * k as isize)] = *v;
            }
        }
    }
}

impl Batch<'_, '_> {
    /// The checked span lane `k` of `scale·x + off` reaches, for a carried
    /// `x` stepping by `c`.
    fn span(
        &self,
        len: usize,
        x: Reg,
        c: i64,
        scale: i64,
        off: i64,
    ) -> Result<(usize, isize), Trip> {
        let base = scale
            .wrapping_mul(self.regs[x as usize][0])
            .wrapping_add(off);
        span(len, base, scale.wrapping_mul(c)).ok_or(Trip::Fault)
    }

    /// The elements lanes `0..LANES` of `scale·x + off` reach in an
    /// array of `len`, for a private `x`; trips on one out of bounds.
    #[inline(always)]
    fn elements(&self, len: usize, x: Reg, scale: i64, off: i64) -> Result<[usize; LANES], Trip> {
        let x = &self.regs[x as usize];
        let at: [usize; LANES] =
            std::array::from_fn(|k| scale.wrapping_mul(x[k]).wrapping_add(off) as usize);
        match at.iter().fold(false, |out, &e| out | (e >= len)) {
            true => Err(Trip::Fault),
            false => Ok(at),
        }
    }

    /// Claims element `at[k]` of array `arr` for lane `k`, if `arr` is
    /// checked: trips if another lane of this batch claimed one of them.
    #[inline(always)]
    fn claim(&mut self, arr: u32, at: &[usize; LANES]) -> Result<(), Trip> {
        let Some(marks) = self
            .marks
            .get_mut(arr as usize)
            .filter(|marks| !marks.is_empty())
        else {
            return Ok(());
        };
        let mut met = false;
        for (lane, &e) in at.iter().enumerate() {
            let mine = self.epoch << 6 | lane as u16;
            met |= (marks[e] >> 6 == self.epoch) & (marks[e] != mine);
            marks[e] = mine;
        }
        match met {
            true => Err(Trip::Collision),
            false => Ok(()),
        }
    }

    /// The batch's dispatch: runs `code` across all lanes, each
    /// instruction before the next. `Quit` if an exit fired in any lane.
    fn run(&mut self, code: &[Op]) -> Result<Step, Trip> {
        macro_rules! exit_if {
            ($a:expr, $b:expr, $leave:expr) => {{
                if self.exits($a, $b, $leave) {
                    return Ok(Step::Quit);
                }
            }};
        }
        let mut links = self.links.iter().peekable();
        for (at, op) in code.iter().enumerate() {
            if let Some(&(_, link)) = links.next_if(|&&(to, _)| to == at) {
                self.link(link)?;
                continue;
            }
            match *op {
                Op::Move { d, a } => self.unary(d, a, |x| x),
                Op::Neg { d, a } => self.unary(d, a, i64::wrapping_neg),
                Op::Add { d, a, b } => self.binary(d, a, b, i64::wrapping_add),
                Op::Sub { d, a, b } => self.binary(d, a, b, i64::wrapping_sub),
                Op::Mul { d, a, b } => self.binary(d, a, b, i64::wrapping_mul),
                Op::Div { d, a, b } => self.div(d, a, b)?,
                Op::Cmp { op, d, a, b } => {
                    self.binary(d, a, b, |x, y| i64::from(compare(op, x, y)))
                }
                Op::LoadAt { d, arr, x, off } => self.load(d, arr, x, 1, off)?,
                Op::Load {
                    d,
                    arr,
                    x,
                    scale,
                    off,
                } => self.load(d, arr, x, scale, off)?,
                Op::StoreAt { arr, x, v, off } => self.store(arr, x, v, 1, off)?,
                Op::Store {
                    arr,
                    x,
                    v,
                    scale,
                    off,
                } => self.store(arr, x, v, scale, off)?,
                // every entry scalar is bound, so every read is
                Op::Check(_) => {}
                Op::CheckFn(f) => {
                    if self.env.funcs[f as usize].is_none() {
                        return Err(Trip::Fault);
                    }
                }
                Op::Call {
                    d,
                    func,
                    first,
                    argc,
                } => self.call(d, func, first, argc),
                Op::ExitLt { a, b } => exit_if!(a, b, |x, y| x < y),
                Op::ExitLe { a, b } => exit_if!(a, b, |x, y| x <= y),
                Op::ExitGt { a, b } => exit_if!(a, b, |x, y| x > y),
                Op::ExitGe { a, b } => exit_if!(a, b, |x, y| x >= y),
                Op::ExitEq { a, b } => exit_if!(a, b, |x, y| x == y),
                Op::ExitNe { a, b } => exit_if!(a, b, |x, y| x != y),
                Op::ExitIfZero(r) => exit_if!(r, r, |x, _| x == 0),
                Op::ExitIfNonZero(r) => exit_if!(r, r, |x, _| x != 0),
            }
        }
        Ok(Step::Continue)
    }

    /// Runs an instruction's part in a scan, or nothing for an exit
    /// checked before the batch started.
    fn link(&mut self, link: Link) -> Result<(), Trip> {
        match link {
            Link::Head {
                d,
                arr,
                x,
                scale,
                off,
                m,
                b,
                sum,
            } => {
                let Role::Carried(c) = self.roles[x as usize] else {
                    unreachable!("a scan loads through a carried subscript");
                };
                let a = &*self.arrays[arr as usize];
                let (at, _) = self.span(a.len(), x, c, scale, off)?;
                let first = a[at];
                self.regs[d as usize][0] = first;
                // lane 0's map is the constant `first`: `m = 0` then, or
                // a running sum from 0
                self.regs[b as usize] = [0; LANES];
                self.regs[b as usize][0] = first;
                if !sum {
                    self.regs[m as usize] = [1; LANES];
                    self.regs[m as usize][0] = 0;
                }
            }
            Link::Step { op, other, m, b } => match op {
                Chain::Add => self.binary(b, b, other, i64::wrapping_add),
                Chain::Sub => self.binary(b, b, other, i64::wrapping_sub),
                Chain::SubFrom => {
                    self.unary(m, m, i64::wrapping_neg);
                    self.binary(b, other, b, i64::wrapping_sub);
                }
                Chain::Mul => {
                    self.binary(m, m, other, i64::wrapping_mul);
                    self.binary(b, b, other, i64::wrapping_mul);
                }
                Chain::Neg => {
                    self.unary(m, m, i64::wrapping_neg);
                    self.unary(b, b, i64::wrapping_neg);
                }
                Chain::Move => {}
            },
            Link::Tail {
                head,
                v,
                arr,
                x,
                scale,
                off,
                m,
                b,
                sum,
            } => {
                // lane k loads what lane k - 1 stores, so each lane's
                // map applies to the previous lane's stored value
                let (mut last, mut stored) = (0i64, [0; LANES]);
                let b_lanes = &self.regs[b as usize];
                if sum {
                    for (out, &b) in stored.iter_mut().zip(b_lanes) {
                        last = last.wrapping_add(b);
                        *out = last;
                    }
                } else {
                    let m_lanes = &self.regs[m as usize];
                    for ((out, &m), &b) in stored.iter_mut().zip(m_lanes).zip(b_lanes) {
                        last = m.wrapping_mul(last).wrapping_add(b);
                        *out = last;
                    }
                }
                if let Some(head) = head {
                    let loaded = &mut self.regs[head as usize];
                    loaded[1..].copy_from_slice(&stored[..LANES - 1]);
                }
                self.regs[v as usize] = stored;
                self.store(arr, x, v, scale, off)?;
            }
            Link::Bounded(_) => {}
        }
        Ok(())
    }

    /// `d = f(a)`
    #[inline(always)]
    fn unary(&mut self, d: Reg, a: Reg, f: impl Fn(i64) -> i64) {
        self.regs[d as usize] = self.regs[a as usize].map(f);
    }

    /// `d = f(a, b)`
    #[inline(always)]
    fn binary(&mut self, d: Reg, a: Reg, b: Reg, f: impl Fn(i64, i64) -> i64) {
        let (x, y) = (self.regs[a as usize], self.regs[b as usize]);
        self.regs[d as usize] = std::array::from_fn(|k| f(x[k], y[k]));
    }

    /// `d = a / b`; trips on a zero divisor in any lane.
    #[inline(always)]
    fn div(&mut self, d: Reg, a: Reg, b: Reg) -> Result<(), Trip> {
        let (x, y) = (self.regs[a as usize], self.regs[b as usize]);
        if y.contains(&0) {
            return Err(Trip::Fault);
        }
        self.regs[d as usize] = std::array::from_fn(|k| x[k].wrapping_div(y[k]));
        Ok(())
    }

    /// `d = arr[scale·x + off]`: a strided walk over a checked span when
    /// `x` is carried, otherwise a gather that trips on a lane out of
    /// bounds, and on a checked array claims its elements first.
    #[inline(always)]
    fn load(&mut self, d: Reg, arr: u32, x: Reg, scale: i64, off: i64) -> Result<(), Trip> {
        let len = self.arrays[arr as usize].len();
        match self.roles[x as usize] {
            Role::Carried(c) => {
                let at = self.span(len, x, c, scale, off)?;
                read_lanes(self.arrays[arr as usize], at, &mut self.regs[d as usize]);
            }
            _ => {
                let at = self.elements(len, x, scale, off)?;
                self.claim(arr, &at)?;
                let a = &*self.arrays[arr as usize];
                self.regs[d as usize] = std::array::from_fn(|k| a[at[k]]);
            }
        }
        Ok(())
    }

    /// `arr[scale·x + off] = v`, keeping what it overwrites on the trail
    /// if there is one.
    #[inline(always)]
    fn store(&mut self, arr: u32, x: Reg, v: Reg, scale: i64, off: i64) -> Result<(), Trip> {
        let len = self.arrays[arr as usize].len();
        let Role::Carried(c) = self.roles[x as usize] else {
            // a checked array's: claimed, then scattered in lane order
            let at = self.elements(len, x, scale, off)?;
            self.claim(arr, &at)?;
            let a = &mut *self.arrays[arr as usize];
            if let Some(trail) = self.trail.as_deref_mut() {
                let old = std::array::from_fn(|k| a[at[k]]);
                trail.scattered.push((arr as usize, at, old));
            }
            for (&e, &v) in at.iter().zip(&self.regs[v as usize]) {
                a[e] = v;
            }
            return Ok(());
        };
        let at = self.span(len, x, c, scale, off)?;
        let a = &mut *self.arrays[arr as usize];
        if let Some(trail) = self.trail.as_deref_mut() {
            let mut old = [0; LANES];
            read_lanes(a, at, &mut old);
            trail.spans.push((arr as usize, at, old));
        }
        write_lanes(a, at, &self.regs[v as usize]);
        Ok(())
    }

    /// `d = func(first, … first + argc - 1)`, lane by lane.
    #[inline(always)]
    fn call(&mut self, d: Reg, func: u32, first: Reg, argc: u32) {
        let f = self.env.funcs[func as usize]
            .as_ref()
            .expect("CheckFn precedes every call");
        let (first, argc) = (first as usize, argc as usize);
        let mut args = [0; MAX_ARGS];
        // per lane, in lane order: host functions are pure
        let out = std::array::from_fn(|k| {
            for (j, arg) in args[..argc].iter_mut().enumerate() {
                *arg = self.regs[first + j][k];
            }
            f(&args[..argc])
        });
        self.regs[d as usize] = out;
    }

    /// Whether `leave(a, b)` holds in any lane.
    #[inline(always)]
    fn exits(&self, a: Reg, b: Reg, leave: impl Fn(i64, i64) -> bool) -> bool {
        let (x, y) = (&self.regs[a as usize], &self.regs[b as usize]);
        x.iter()
            .zip(y)
            .fold(false, |hit, (&x, &y)| hit | leave(x, y))
    }
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

    /// The value of `r` if it is a constant's register.
    fn value(&self, r: Reg) -> Option<i64> {
        let at = r.checked_sub(CONST_BASE).filter(|_| r < TEMP_BASE)?;
        self.consts.get(at as usize).copied()
    }

    /// A fresh temporary, live until a caller resets `live`.
    fn temp(&mut self) -> Reg {
        self.live += 1;
        self.temps = self.temps.max(self.live);
        TEMP_BASE + self.live - 1
    }

    /// Emits what `e` needs computed, in the tree walker's evaluation
    /// order. `Some(r)`: nothing was emitted, the value sits in `r`, a
    /// scalar's or a constant's own register — an expression of literals
    /// alone is folded into one, as [`constant`] computes it, unless it
    /// divides by zero. `None`: the last instruction emitted computes it
    /// into [`DEST`], for the caller to name.
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
                if let Some(v) = self.value(a) {
                    return Some(self.konst(v.wrapping_neg()));
                }
                Op::Neg { d: DEST, a }
            }
            Expr::Bin(op, a, b) => {
                let (a, b) = self.operands(a, b, out);
                let folded = self
                    .value(a)
                    .zip(self.value(b))
                    .and_then(|(x, y)| arith(*op, x, y));
                if let Some(v) = folded {
                    return Some(self.konst(v));
                }
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

    /// Emits `then` as [`expr`](Self::expr) does, behind a `Check(r)` if
    /// `r` is a scalar nothing has definitely assigned and `then` emits
    /// code: that code runs before the instruction that reads `r`, but
    /// the tree walker reads `r` first.
    fn expr_after(&mut self, r: Reg, then: &Expr, out: &mut Vec<Op>) -> Reg {
        let at = out.len();
        let v = self.expr(then, out);
        if out.len() > at && self.assigned.get(r as usize) == Some(&false) {
            out.insert(at, Op::Check(r));
        }
        v
    }

    /// The operands of a two-operand node, the left one first.
    fn operands(&mut self, a: &Expr, b: &Expr, out: &mut Vec<Op>) -> (Reg, Reg) {
        let ra = self.expr(a, out);
        (ra, self.expr_after(ra, b, out))
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
        let v = self.expr_after(sub.0, rhs, out);
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
/// themselves. Under `induction`'s rule the body assigns no scalar but
/// `ivar`, so the bound is loop-invariant and the condition
/// remainder-invariant by construction: no certificate is needed to
/// say so.
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

        let batch = licence::license(
            &body,
            (temps_at + lw.temps) as usize,
            consts_at as usize,
            &lw.consts,
            lw.arrays.len(),
        );

        let has_exits = p.body.iter().any(|st| matches!(st, Stmt::ExitIf(_)));
        let (schedule, stamps) = match induction(p, hints) {
            Ok((name, stride, init)) => {
                let may_overshoot = has_exits || !is_threshold(&p.cond, &name, stride);
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
            batch,
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

    /// Stores to shadowed arrays per iteration: the stamped, PD-marked
    /// writes one speculative iteration makes at most (the body is
    /// straight-line code).
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

    /// Executes the plan one iteration after another, or, for a body the
    /// batch licence admits with every entry scalar bound, [`LANES`]
    /// iterations at a time with the same effect. `max_iters` bounds
    /// runaway loops; `stop` is read every 1024 iterations, and a tripped
    /// one ends the run with an error. On an error the frame holds what
    /// had been written when it struck.
    pub fn run_sequential(
        &self,
        frame: &mut Frame,
        max_iters: usize,
        stop: &CancelFlag,
    ) -> Result<ExecOutcome, ExecError> {
        self.with_env(frame, |env, s, arrays| {
            let mut view = Direct::new(arrays);
            if stop.is_cancelled_now() {
                return Err(stop_error());
            }
            if max_iters == 0 {
                return Ok(ExecOutcome::sequential(0, None, 0));
            }
            // the body is straight-line code after its exits: once one
            // iteration ran whole, every register it writes is bound
            if self.run::<_, true>(&self.body, env, s, &mut view)? == Step::Quit {
                return Ok(ExecOutcome::sequential(0, Some(0), 0));
            }
            let licence = self.batch.as_ref().ok().filter(|_| !env.check_scalars);
            // whether this run still tries batches: a collision ends that
            let mut batching = licence.is_some();
            let mut lanes = LaneFile::default();
            // iterations run, batches committed, iterations since the stop
            // was last read
            let (mut i, mut batches, mut unread) = (1, 0, 1);
            while i < max_iters {
                if unread >= STOP_EVERY {
                    if stop.is_cancelled_now() {
                        return Err(stop_error());
                    }
                    unread = 0;
                }
                // a licensed body runs a batch while one fits, and one
                // iteration at a time through a batch that did not commit
                let ahead = match licence.filter(|_| batching) {
                    Some(licence) => {
                        let ahead = (max_iters - i).min(LANES);
                        let batched = match ahead {
                            LANES => self.batch_at(licence, env, s, &mut view, &mut lanes),
                            _ => Batched::Undone,
                        };
                        batching = batched != Batched::Collided;
                        if batched == Batched::Committed {
                            batches += 1;
                        } else if let Some(j) = self.run_each(env, s, &mut view, i..i + ahead)? {
                            return Ok(ExecOutcome::sequential(j, Some(j), batches));
                        }
                        ahead
                    }
                    None => {
                        let ahead = (max_iters - i).min(STOP_EVERY - unread);
                        if let Some(j) = self.run_each(env, s, &mut view, i..i + ahead)? {
                            return Ok(ExecOutcome::sequential(j, Some(j), batches));
                        }
                        ahead
                    }
                };
                i += ahead;
                unread += ahead;
            }
            Ok(ExecOutcome::sequential(max_iters, None, batches))
        })
    }

    /// Runs `iterations` one after another, untracked (iteration 0 has
    /// run): the one whose exit fired, if one did. The one place the
    /// sequential path runs the body an iteration at a time, so the
    /// executor is inlined into its loop.
    fn run_each(
        &self,
        env: &Env<'_>,
        s: &mut Scratch,
        view: &mut Direct<'_>,
        iterations: std::ops::Range<usize>,
    ) -> Result<Option<usize>, ExecError> {
        for i in iterations {
            if self.run::<_, false>(&self.body, env, s, view)? == Step::Quit {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// Runs the next [`LANES`] iterations as one batch, each instruction
    /// across all of them. A batch in which an affine access would leave
    /// its array, or a checked exit would fire, does not start; one in
    /// which any lane trips is undone, leaving `s` and the arrays as they
    /// were. The lane file is made when the first batch starts.
    fn batch_at(
        &self,
        licence: &Licence,
        env: &Env<'_>,
        s: &mut Scratch,
        view: &mut Direct<'_>,
        lanes: &mut LaneFile,
    ) -> Batched {
        let lanes_of = |(r, c): (Reg, i64)| (s.regs[r as usize], c);
        let exits = || {
            let mut bounds = licence.bounds();
            bounds.any(|e| fires(e.leave, lanes_of(e.a), lanes_of(e.b)))
        };
        let fits = || {
            licence.spans.iter().all(|a| {
                let base = a
                    .scale
                    .wrapping_mul(s.regs[a.x as usize])
                    .wrapping_add(a.off);
                span(view.0[a.arr as usize].len(), base, a.step).is_some()
            })
        };
        if exits() || !fits() {
            return Batched::Undone;
        }
        if lanes.regs.is_empty() {
            // a register the body never writes holds one value for the run
            lanes.regs = s.regs.iter().map(|&v| [v; LANES]).collect();
            lanes.regs.resize(licence.lanes, [0; LANES]);
            if !licence.checked.is_empty() {
                lanes.marks = vec![Vec::new(); view.0.len()];
                for &arr in &licence.checked {
                    lanes.marks[arr as usize] = vec![0; view.0[arr as usize].len()];
                }
            }
            lanes.trail.spans.reserve(licence.trail);
            lanes.trail.scattered.reserve(licence.trail);
        }
        if !lanes.marks.is_empty() {
            lanes.epoch += 1;
            if lanes.epoch == 1 << 10 {
                lanes.marks.iter_mut().for_each(|m| m.fill(0));
                lanes.epoch = 1;
            }
        }
        for (r, role) in licence.roles.iter().enumerate() {
            if let Role::Carried(c) = *role {
                let v = s.regs[r];
                lanes.regs[r] = std::array::from_fn(|k| v.wrapping_add(c.wrapping_mul(k as i64)));
            }
        }
        lanes.trail.spans.clear();
        lanes.trail.scattered.clear();
        let mut batch = Batch {
            env,
            roles: &licence.roles,
            links: &licence.links,
            regs: &mut lanes.regs,
            arrays: &mut view.0,
            trail: (licence.trail > 0).then_some(&mut lanes.trail),
            marks: &mut lanes.marks,
            epoch: lanes.epoch,
        };
        let batched = match batch.run(&self.body) {
            Ok(Step::Continue) => Batched::Committed,
            Ok(Step::Quit) | Err(Trip::Fault) => Batched::Undone,
            Err(Trip::Collision) => Batched::Collided,
        };
        if batched == Batched::Committed {
            // the last lane's registers are the last iteration's
            for (r, role) in licence.roles.iter().enumerate() {
                if *role != Role::Uniform {
                    s.regs[r] = lanes.regs[r][LANES - 1];
                }
            }
        } else {
            for (arr, at, old) in lanes.trail.spans.drain(..).rev() {
                write_lanes(view.0[arr], at, &old);
            }
            for (arr, at, old) in lanes.trail.scattered.drain(..).rev() {
                for (&e, &v) in at.iter().zip(&old) {
                    view.0[arr][e] = v;
                }
            }
        }
        batched
    }

    /// Whether the body runs [`LANES`] iterations at a time when it runs
    /// sequentially: `None` if its licence was granted, or the first
    /// reason it was refused.
    pub fn batch_refusal(&self) -> Option<Refusal> {
        self.batch.as_ref().err().copied()
    }

    /// [`batch_refusal`](Self::batch_refusal) in words, as `wlp-lint`
    /// prints it under a plan.
    pub fn batch_summary(&self) -> String {
        let name = |r: usize| self.scalars.get(r).map_or("a temporary", String::as_str);
        let licence = match &self.batch {
            Ok(licence) => licence,
            Err(refusal) => {
                let why = match *refusal {
                    Refusal::Carried(r) => format!(
                        "`{}` carries a value from one iteration to the next, not by a constant step",
                        name(r as usize)
                    ),
                    Refusal::Unstepped(a) => format!(
                        "`{}` is accessed through a subscript that neither steps with the loop \
                         nor is computed in the iteration",
                        self.arrays[a as usize]
                    ),
                    Refusal::MixedSubscripts(a) => format!(
                        "`{}` is accessed through subscripts that do not step together",
                        self.arrays[a as usize]
                    ),
                    Refusal::Overlap(a, d) => format!(
                        "iterations {d} apart touch one element of `{}`, the later one first",
                        self.arrays[a as usize]
                    ),
                    Refusal::Chain(a) => format!(
                        "the element `{}` hands the next iteration does not reach its one store \
                         through +, -, * and negation alone",
                        self.arrays[a as usize]
                    ),
                    Refusal::WideCall(f) => format!(
                        "`{}` takes more than {MAX_ARGS} arguments",
                        self.funcs[f as usize]
                    ),
                };
                return format!("batch: refused: {why}");
            }
        };
        let (mut carried, mut private, mut temps) = (Vec::new(), Vec::new(), 0);
        for (r, role) in licence.roles.iter().enumerate() {
            match *role {
                Role::Uniform => {}
                Role::Carried(c) => carried.push(format!("{} += {c}", name(r))),
                Role::Private if r < self.scalars.len() => private.push(name(r).to_string()),
                Role::Private => temps += 1,
            }
        }
        match temps {
            0 => {}
            1 => private.push("1 temporary".into()),
            n => private.push(format!("{n} temporaries")),
        }
        let list = |names: Vec<String>| match names.is_empty() {
            true => "none".to_string(),
            false => names.join(", "),
        };
        let trail = match licence.trail {
            0 => "no undo trail".into(),
            n => format!("undo trail of {n} stores"),
        };
        let mut arrays = String::new();
        if licence.scans().next().is_some() {
            let scans = licence.scans().map(|(a, sum)| {
                let how = if sum { "running sum" } else { "x ↦ m·x + b" };
                format!("{} ({how})", self.arrays[a as usize])
            });
            arrays += &format!("; scanned {}", scans.collect::<Vec<_>>().join(", "));
        }
        if !licence.checked.is_empty() {
            let checked = licence
                .checked
                .iter()
                .map(|&a| self.arrays[a as usize].clone());
            arrays += &format!("; checked {}", checked.collect::<Vec<_>>().join(", "));
        }
        format!(
            "batch: {LANES} iterations at a time; carried {}; private {}{arrays}; {trail}",
            list(carried),
            list(private)
        )
    }

    /// The arrays a licensed body scans within a batch, each with whether
    /// its chain only adds and subtracts (a running sum): empty when it
    /// has none or is refused.
    pub fn batch_scans(&self) -> Vec<(&str, bool)> {
        let Ok(licence) = &self.batch else {
            return Vec::new();
        };
        licence
            .scans()
            .map(|(a, sum)| (self.arrays[a as usize].as_str(), sum))
            .collect()
    }

    /// The arrays a licensed body reaches through computed subscripts
    /// only, each batch claiming their elements: empty when it has none
    /// or is refused.
    pub fn batch_checked(&self) -> Vec<&str> {
        let checked = self.batch.as_ref().map_or(&[][..], |l| &l.checked);
        checked
            .iter()
            .map(|&a| self.arrays[a as usize].as_str())
            .collect()
    }

    /// Executes the plan under its [`Schedule`]: a statically sequential
    /// plan runs exactly as [`run_sequential`](Self::run_sequential);
    /// otherwise the loop is a speculative DOALL over `pool` with each
    /// array in its [`AccessMode`], falling back to sequential
    /// re-execution when the attempt does not validate. Either way the
    /// frame ends as the sequential loop leaves it, errors included.
    ///
    /// `stop` is read every 1024 iterations by whoever runs them: a
    /// speculative worker that finds it tripped voids the attempt like an
    /// error would, and the sequential re-execution then ends the run
    /// with that error at its first iteration.
    pub fn run_speculative(
        &self,
        frame: &mut Frame,
        pool: &Pool,
        max_iters: usize,
        stop: &CancelFlag,
    ) -> Result<ExecOutcome, ExecError> {
        let Schedule::SpeculativeDoall { ivar, stride, init } = self.schedule else {
            return self.run_sequential(frame, max_iters, stop);
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
            let result = speculative_while_group(
                pool,
                max_iters,
                &group,
                || s.clone(),
                // the body assigns no scalar but `ivar`, which the
                // declarations bound: a worker never changes a flag
                |i, worker: &mut Scratch, access| {
                    if stopped(stop, i) {
                        return Err(stop_error());
                    }
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
                        batches: 0,
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
            let hints = PlanHints::uncertified(DispatcherClass::MonotonicInduction);
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
        let e = plan
            .run_sequential(&mut frame, 10, &CancelFlag::new())
            .unwrap_err();
        assert_eq!(e.msg, "unbound scalar `n`");
        assert_eq!(frame.scalar(slot("i")), Some(0), "declarations ran");

        frame.bind_scalar(slot("n"), 3);
        let out = plan
            .run_sequential(&mut frame, 10, &CancelFlag::new())
            .unwrap();
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

    fn corpus(name: &str) -> String {
        let path = format!(
            "{}/../../examples/loops/{name}.wlp",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read_to_string(path).unwrap()
    }

    fn body(b: &str) -> String {
        format!("integer i = 0\nwhile (i < n) {{ {b}; i = i + 1 }}")
    }

    /// The batch licence's verdicts, each granted or refused with the
    /// first reason the check met.
    #[test]
    fn the_batch_licence_reads_the_body_alone() {
        // the refusal, by kind and the name it concerns
        let verdict = |plan: &ExecPlan| {
            plan.batch_refusal().map(|r| match r {
                Refusal::Carried(r) => ("carried", plan.scalars()[r as usize].clone(), 0),
                Refusal::Unstepped(a) => ("unstepped", plan.arrays()[a as usize].clone(), 0),
                Refusal::MixedSubscripts(a) => ("mixed", plan.arrays()[a as usize].clone(), 0),
                Refusal::Overlap(a, d) => ("overlap", plan.arrays()[a as usize].clone(), d),
                Refusal::Chain(a) => ("chain", plan.arrays()[a as usize].clone(), 0),
                Refusal::WideCall(f) => ("wide_call", plan.funcs()[f as usize].clone(), 0),
            })
        };
        let refused = |kind, name: &str, d| Some((kind, name.to_string(), d));
        let table = [
            (body("A[i] = A[i + 64] + 1"), None),
            // lane j reads what lane j + 63 stores, and reads it first
            (body("A[i] = A[i + 63] + 1"), None),
            (body("A[i + 63] = A[i] + 1"), refused("overlap", "A", 63)),
            // 2⁶² · 4 wraps to 0: lane 4 stores what lane 0 loaded, later
            (
                body("A[4611686018427387904 * i] = A[4611686018427387904 * i] + 1"),
                refused("overlap", "A", 4),
            ),
            (body("s = s * 2"), refused("carried", "s", 0)),
            (
                body("exit if (t > 0); t = w[i]"),
                refused("carried", "t", 0),
            ),
            (body("A[i] = A[2 * i]"), refused("mixed", "A", 0)),
            (body("A[i] = 1; A[idx[i]] = 2"), refused("mixed", "A", 0)),
            (body("A[k] = w[i]"), refused("unstepped", "A", 0)),
            (
                body("A[i] = w[i]; B[i] = A[i + 1]"),
                refused("overlap", "A", 1),
            ),
            (body("A[i] = A[i - 2] + 1"), refused("overlap", "A", 2)),
            // a chain read on the way, a second store, a step that is not
            // +, -, * or negation, two loads on one chain
            (
                body("t = A[i - 1]; A[i] = t + 1; B[i] = t"),
                refused("chain", "A", 0),
            ),
            (
                body("A[i] = A[i - 1] + 1; A[i + 100] = 0"),
                refused("chain", "A", 0),
            ),
            (body("A[i] = A[i - 1] / 2"), refused("chain", "A", 0)),
            (body("A[i] = A[i - 1] * A[i - 1]"), refused("chain", "A", 0)),
            (body("A[i] = A[i - 1] + A[i - 1]"), refused("chain", "A", 0)),
            (
                body("A[i] = max(1, 2, 3, 4, 5, 6, 7, 8, 9)"),
                refused("wide_call", "max", 0),
            ),
            // what the batch handles: a private scalar, a step other than
            // the induction's, a descending one, a gather from an array
            // the body never stores, a division after a store, scans of
            // every step, a load of what the store before it wrote, a
            // scatter
            (body("t = w[i]; A[i] = t"), None),
            (body("s = s + 3; A[i] = s"), None),
            (
                body("s = s - 2; A[i] = 1 + s; B[i] = w[idx[i]] / A[i]"),
                None,
            ),
            (body("A[i] = w[i] - A[i - 1] * 3"), None),
            (body("t = A[i - 1]; A[i] = -t"), None),
            (body("A[i] = A[i - 1]; B[i] = A[i - 1] + 1"), None),
            (body("A[idx[i]] = A[idx[i]] + w[i]"), None),
        ];
        for (src, want) in table {
            assert_eq!(verdict(&lower(&src)), want, "{src}");
        }
    }

    /// How each corpus body runs its batches, and a scan's chain by its
    /// steps: a running sum when it only adds and subtracts.
    #[test]
    fn the_corpus_batches_with_scans_and_checks() {
        // name, scans, checked arrays
        type Batches = (
            &'static str,
            &'static [(&'static str, bool)],
            &'static [&'static str],
        );
        let table: [Batches; 7] = [
            ("swap", &[], &[]),
            ("gather_scatter", &[], &["A"]),
            ("counted_fill", &[], &[]),
            ("guarded_update", &[], &[]),
            ("partial_sums", &[("A", true)], &[]),
            ("wavefront", &[("B", true)], &[]),
            ("mcsparse_pair", &[("A", true), ("B", false)], &[]),
        ];
        for (name, scans, checked) in table {
            let plan = lower(&corpus(name));
            assert_eq!(plan.batch_refusal(), None, "{name}");
            assert_eq!(plan.batch_scans(), scans, "{name}");
            assert_eq!(plan.batch_checked(), checked, "{name}");
        }
        for (b, sum) in [
            ("A[i] = A[i - 1] + w[i]", true),
            ("A[i] = w[i] + A[i - 1]", true),
            ("A[i] = A[i - 1] - w[i]", true),
            ("A[i] = w[i] - A[i - 1]", false),
            ("A[i] = A[i - 1] * w[i]", false),
            ("A[i] = -A[i - 1]", false),
        ] {
            assert_eq!(lower(&body(b)).batch_scans(), [("A", sum)], "{b}");
        }
        // a certificate never licenses a batch: gather_scatter under hints
        // that wrongly call `A` independent still claims its elements
        let p = parse_program(&corpus("gather_scatter")).unwrap();
        let wrong = PlanHints {
            certified: vec!["A".into(), "B".into()],
            ..PlanHints::uncertified(DispatcherClass::MonotonicInduction)
        };
        let plan = ExecPlan::lower(&p, &wrong);
        let a = plan.arrays().iter().position(|a| a == "A").unwrap();
        assert_eq!(plan.modes()[a], AccessMode::Certified, "the hint took");
        assert_eq!(plan.batch_checked(), ["A"]);
    }

    /// A literal-only expression lowers to one constant register, so the
    /// two spellings of a step are one plan; a division by zero still
    /// fails when it runs.
    #[test]
    fn literal_expressions_fold_at_lowering() {
        let down = |step: &str| {
            lower(&format!(
                "integer i = 9\nwhile (i >= 0) {{ A[i] = w[i]; i = i + {step} }}"
            ))
        };
        let (plus, minus) = (down("-1"), down("(0 - 1)"));
        assert_eq!(plus.batch_summary(), minus.batch_summary());
        assert_eq!(plus.body, minus.body);
        assert!(
            plus.batch_summary().contains("carried i += -1"),
            "{}",
            plus.batch_summary()
        );
        let sub = lower("integer i = 9\nwhile (i >= 0) { A[i] = w[i]; i = i - 1 }");
        assert_eq!(plus.batch_summary(), sub.batch_summary());
        assert_eq!(plus.ops_per_iter(), sub.ops_per_iter());

        let plan = lower("integer i = 0\nwhile (i < 3) { A[i] = 2 * (3 - 5) + 1 / 0; i = i + 1 }");
        assert!(plan.consts.contains(&-4), "{:?}", plan.consts);
        let mut frame = plan.frame();
        frame.bind_array(0, vec![0; 4]);
        let e = plan.run_sequential(&mut frame, 10, &CancelFlag::new());
        assert_eq!(e.unwrap_err().msg, "division by zero");
    }

    /// A scan gives every lane the value the sequential loop gives it:
    /// each batch's lane 0 reads what the last one stored.
    #[test]
    fn a_scan_carries_each_lane_into_the_next() {
        let plan = lower(
            "integer i = 1\nwhile (i < n) { A[i] = A[i - 1] * 3 - w[i]; B[i] = A[i - 1] + 1; i = i + 1 }",
        );
        assert_eq!(plan.batch_scans(), [("A", false)]);
        let slot = |name: &str| plan.arrays().iter().position(|a| a == name).unwrap();
        let n = 300;
        let mut frame = plan.frame();
        frame.bind_array(slot("A"), vec![1; n]);
        frame.bind_array(slot("B"), vec![0; n]);
        frame.bind_array(slot("w"), (0..n as i64).collect());
        frame.bind_scalar(
            plan.scalars().iter().position(|s| s == "n").unwrap(),
            n as i64,
        );
        let out = plan
            .run_sequential(&mut frame, 1000, &CancelFlag::new())
            .unwrap();
        assert_eq!((out.iterations, out.batches), (n - 1, 4));
        let (mut a, mut b) = (vec![1i64; n], vec![0i64; n]);
        for i in 1..n {
            a[i] = a[i - 1].wrapping_mul(3).wrapping_sub(i as i64);
            b[i] = a[i - 1] + 1;
        }
        assert_eq!(frame.take_array(slot("A")).unwrap(), a);
        assert_eq!(frame.take_array(slot("B")).unwrap(), b);
    }

    /// A checked array's batches commit until two lanes of one claim an
    /// element; that batch is undone and the run does no more.
    #[test]
    fn a_collision_ends_a_runs_batches() {
        let plan = lower(&body("A[idx[i]] = A[idx[i]] + w[i]"));
        assert_eq!(plan.batch_checked(), ["A"]);
        let slot = |name: &str| plan.arrays().iter().position(|a| a == name).unwrap();
        let n = 400;
        let run = |idx: Vec<i64>| {
            let mut frame = plan.frame();
            frame.bind_array(slot("A"), vec![0; n]);
            frame.bind_array(slot("w"), (0..n as i64).collect());
            frame.bind_array(slot("idx"), idx.clone());
            frame.bind_scalar(
                plan.scalars().iter().position(|s| s == "n").unwrap(),
                n as i64,
            );
            let out = plan
                .run_sequential(&mut frame, 1000, &CancelFlag::new())
                .unwrap();
            let mut want = vec![0; n];
            for i in 0..n {
                want[idx[i] as usize] += i as i64;
            }
            assert_eq!(frame.take_array(slot("A")).unwrap(), want);
            out.batches
        };
        let permuted: Vec<i64> = (0..n as i64).map(|i| (i * 7 + 3) % n as i64).collect();
        assert_eq!(run(permuted.clone()), 6);
        // iteration 200 (lane 7 of batch 3) reaches what 193 (lane 0) did;
        // 150 and 210 meet too, in different batches, which commit
        let mut idx = permuted;
        idx[200] = idx[193];
        idx[150] = idx[210];
        assert_eq!(run(idx), 3);
    }

    /// Marks outlive the batches that made them: when the batch number
    /// wraps, every buffer is cleared, or a mark of the run's first batch
    /// would meet the batch that reuses its number.
    #[test]
    fn the_mark_epoch_wraps_without_a_false_collision() {
        let plan = lower(&body("A[idx[i]] = A[idx[i]] + w[i]"));
        let slot = |name: &str| plan.arrays().iter().position(|a| a == name).unwrap();
        let batches = 1030;
        let n = 1 + LANES * batches;
        // batch 0 and the batches from 1023 on reach the upper half, the
        // others the lower; each batch maps its lanes to elements anew
        let idx: Vec<i64> = (0..n as i64)
            .map(|i| {
                let b = (i - 1).max(0) / LANES as i64;
                let half = if b == 0 || b >= 1023 { 64 } else { 0 };
                half + (5 * i + b) % 64
            })
            .collect();
        let mut frame = plan.frame();
        frame.bind_array(slot("A"), vec![0; 128]);
        frame.bind_array(slot("w"), vec![1; n]);
        frame.bind_array(slot("idx"), idx.clone());
        frame.bind_scalar(
            plan.scalars().iter().position(|s| s == "n").unwrap(),
            n as i64,
        );
        let out = plan
            .run_sequential(&mut frame, n, &CancelFlag::new())
            .unwrap();
        assert_eq!(out.batches, batches);
        let mut want = vec![0; 128];
        for &e in &idx {
            want[e as usize] += 1;
        }
        assert_eq!(frame.take_array(slot("A")).unwrap(), want);
    }

    /// Only a division, a computed subscript, a function check or an
    /// exit after the first store makes a batch keep a trail.
    #[test]
    fn a_batch_keeps_a_trail_only_when_something_can_trip_after_a_store() {
        let trail = |b: &str| {
            let plan = lower(&format!(
                "integer i = 0\nwhile (i < n) {{ {b}; i = i + 1 }}"
            ));
            plan.batch.as_ref().expect("licensed").trail > 0
        };
        for name in ["swap", "counted_fill", "guarded_update"] {
            let path = format!(
                "{}/../../examples/loops/{name}.wlp",
                env!("CARGO_MANIFEST_DIR")
            );
            let plan = lower(&std::fs::read_to_string(path).unwrap());
            assert_eq!(plan.batch.as_ref().unwrap().trail, 0, "{name}");
        }
        assert!(!trail("B[i] = w[i] / 3; A[i] = B[i]"));
        assert!(trail("A[i] = 1; B[i] = w[i] / 3"));
        assert!(trail("A[i] = 1; B[i] = w[idx[i]]"));
        assert!(trail("A[i] = 1; B[i] = g(i)"));
        assert!(!trail("A[i] = 1; B[i] = w[i + 5]"));
    }

    /// A licensed run commits a batch for every 64 iterations after the
    /// first that complete, and runs the rest one at a time; a trip undoes
    /// the batch and leaves the sequential error and partial state.
    #[test]
    fn a_batch_that_trips_is_undone_and_rerun_one_iteration_at_a_time() {
        let plan = lower(
            "integer i = 0\nwhile (i < n) { A[i] = A[i] + 1; B[i] = 10 / (k - i); i = i + 1 }",
        );
        assert_eq!(plan.batch.as_ref().unwrap().trail, 2, "both stores");
        let slot = |name: &str| plan.scalars().iter().position(|s| s == name).unwrap();
        let run = |n: i64, k: i64| {
            let mut frame = plan.frame();
            frame.bind_array(0, vec![0; 300]);
            frame.bind_array(1, vec![0; 300]);
            frame.bind_scalar(slot("n"), n);
            frame.bind_scalar(slot("k"), k);
            let out = plan.run_sequential(&mut frame, 1000, &CancelFlag::new());
            (out, frame.take_array(0).unwrap(), frame.scalar(slot("i")))
        };
        // no trip: iterations 1..=256 in four batches, 257..299 one by one
        let (out, a, i) = run(300, -1);
        let out = out.unwrap();
        assert_eq!((out.iterations, out.batches), (300, 4));
        assert!(a.iter().all(|&v| v == 1));
        assert_eq!(i, Some(300));
        // a zero divisor at lane 17 of the third batch: that batch is
        // undone and rerun until iteration 146 fails after its store
        let (out, a, i) = run(300, 146);
        assert_eq!(out.unwrap_err().msg, "division by zero");
        assert_eq!(a[..147], [1; 147]);
        assert!(a[147..].iter().all(|&v| v == 0));
        assert_eq!(i, Some(146));
    }

    /// A batch whose affine access would leave its array does not start:
    /// with no trail, only that check keeps its earlier stores from
    /// running twice.
    #[test]
    fn a_batch_that_would_leave_an_array_runs_one_iteration_at_a_time() {
        let plan =
            lower("integer i = 0\nwhile (i < n) { A[i] = A[i] + 1; B[i] = w[i + 3]; i = i + 1 }");
        assert_eq!(plan.batch.as_ref().unwrap().trail, 0);
        let slot = |names: &[String], name: &str| names.iter().position(|s| s == name).unwrap();
        let array = |name| slot(plan.arrays(), name);
        let mut frame = plan.frame();
        frame.bind_array(array("A"), vec![0; 300]);
        frame.bind_array(array("B"), vec![0; 300]);
        frame.bind_array(array("w"), (0..200).collect());
        frame.bind_scalar(slot(plan.scalars(), "n"), 300);
        let e = plan.run_sequential(&mut frame, 1000, &CancelFlag::new());
        // iterations 1 to 192 ran as three batches; 193 to 256 would
        // read past `w`, so they run one at a time up to the failing one
        assert_eq!(e.unwrap_err().msg, "`w[200]` out of bounds");
        let a = frame.take_array(array("A")).unwrap();
        assert_eq!(a[..198], [1; 198]);
        assert!(a[198..].iter().all(|&v| v == 0));
        let b = frame.take_array(array("B")).unwrap();
        assert_eq!(b[..197], (3..200).collect::<Vec<_>>());
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
