//! Concretization: abstract `LoopIr` bodies → dynamic access logs.
//!
//! To cross-validate a static verdict against the dynamic PD machinery,
//! the loop must actually *run*. This module executes a body abstractly
//! for `n` iterations: affine subscripts evaluate at the iteration number,
//! `Unknown` subscripts are resolved by a caller-supplied function (the
//! adversary — property tests randomize it), and every location (scalar or
//! array element) is mapped to a unique address in one flat space, so the
//! whole loop becomes a per-iteration [`Access`] log the
//! [`wlp_pd::crosscheck()`] harness and the oracle understand.
//!
//! Within a statement, reads precede writes — `tmp = A[2i]` reads `A[2i]`
//! before defining `tmp` — which is what makes def-before-use visible to
//! the privatization criterion.

use std::collections::HashMap;
use wlp_ir::{ArrayId, LoopIr, Subscript, VarId, WRef};
use wlp_pd::Access;

/// Which variable or array an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Owner {
    /// The address is a scalar.
    Scalar(VarId),
    /// The address is an element of this array.
    Array(ArrayId),
}

/// One concrete execution of a loop body.
#[derive(Debug, Clone)]
pub struct ConcreteLog {
    /// `iterations[i]` is iteration `i`'s access sequence, program order.
    pub iterations: Vec<Vec<Access>>,
    /// The same accesses tagged with their statement index.
    pub tagged: Vec<Vec<(usize, Access)>>,
    /// `owners[addr]` says which location the address belongs to.
    pub owners: Vec<Owner>,
}

impl ConcreteLog {
    /// The sub-log containing only accesses for which `keep(stmt, addr,
    /// owner)` holds — the shape every per-claim oracle check needs.
    pub fn filter(&self, keep: impl Fn(usize, usize, Owner) -> bool) -> Vec<Vec<Access>> {
        self.tagged
            .iter()
            .map(|iter_log| {
                iter_log
                    .iter()
                    .filter(|(stmt, acc)| {
                        let addr = match *acc {
                            Access::Read(e) | Access::Write(e) => e,
                        };
                        keep(*stmt, addr, self.owners[addr])
                    })
                    .map(|(_, acc)| *acc)
                    .collect()
            })
            .collect()
    }
}

/// Executes `body` for `iters` iterations.
///
/// `resolve(stmt, iter, array)` supplies the element index for every
/// `Unknown` subscript occurrence (the same statement/iteration/array is
/// resolved once per occurrence, in statement read-then-write order —
/// deterministic resolvers therefore model `A[idx[i]] = f(A[idx[i]])`
/// aliasing exactly).
pub fn concretize(
    body: &LoopIr,
    iters: usize,
    mut resolve: impl FnMut(usize, usize, ArrayId) -> i64,
) -> ConcreteLog {
    let mut addrs: HashMap<(Owner, i64), usize> = HashMap::new();
    let mut owners: Vec<Owner> = Vec::new();
    let mut addr_of = |owner: Owner, index: i64| -> usize {
        *addrs.entry((owner, index)).or_insert_with(|| {
            owners.push(owner);
            owners.len() - 1
        })
    };

    let mut iterations = Vec::with_capacity(iters);
    let mut tagged = Vec::with_capacity(iters);
    for i in 0..iters {
        let mut log: Vec<(usize, Access)> = Vec::new();
        for (si, s) in body.stmts.iter().enumerate() {
            let mut eval = |r: &WRef, resolve: &mut dyn FnMut(usize, usize, ArrayId) -> i64| match r
            {
                WRef::Scalar(v) => addr_of(Owner::Scalar(*v), 0),
                WRef::Element(a, sub) => {
                    let idx = match sub {
                        Subscript::Const(k) => *k,
                        Subscript::Affine { coeff, offset } => coeff * i as i64 + offset,
                        Subscript::Unknown => resolve(si, i, *a),
                    };
                    addr_of(Owner::Array(*a), idx)
                }
            };
            for r in &s.reads {
                let addr = eval(r, &mut resolve);
                log.push((si, Access::Read(addr)));
            }
            for w in &s.writes {
                let addr = eval(w, &mut resolve);
                log.push((si, Access::Write(addr)));
            }
        }
        iterations.push(log.iter().map(|(_, a)| *a).collect());
        tagged.push(log);
    }

    ConcreteLog {
        iterations,
        tagged,
        owners,
    }
}

/// The accesses belonging to one scalar, per iteration — the log a
/// per-scalar privatization claim is checked on.
pub fn scalar_log(log: &ConcreteLog, v: VarId) -> Vec<Vec<Access>> {
    log.filter(|_, _, owner| owner == Owner::Scalar(v))
}

/// The accesses belonging to one array, per iteration.
pub fn array_log(log: &ConcreteLog, a: ArrayId) -> Vec<Vec<Access>> {
    log.filter(|_, _, owner| owner == Owner::Array(a))
}

/// The remainder log a DOALL claim is checked on: accesses by recurrence
/// updates, and all accesses to the scalars those updates own (the
/// dispatcher values, produced up front at run time), are excluded;
/// privatized locations are excluded by the caller via `private`.
pub fn remainder_log(
    body: &LoopIr,
    log: &ConcreteLog,
    private: impl Fn(Owner) -> bool,
) -> Vec<Vec<Access>> {
    let update_stmts: Vec<usize> = body.updates().collect();
    let update_vars: Vec<VarId> = update_stmts
        .iter()
        .flat_map(|&s| body.stmts[s].writes.iter())
        .filter_map(|w| match w {
            WRef::Scalar(v) => Some(*v),
            WRef::Element(..) => None,
        })
        .collect();
    log.filter(|stmt, _, owner| {
        if update_stmts.contains(&stmt) {
            return false;
        }
        if let Owner::Scalar(v) = owner {
            if update_vars.contains(&v) {
                return false;
            }
        }
        !private(owner)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlp_ir::ir::examples;
    use wlp_pd::oracle_verdict;

    #[test]
    fn affine_subscripts_evaluate_at_the_iteration() {
        let log = concretize(&examples::figure5c_recurrence(), 4, |_, _, _| 0);
        // A[i] = A[i] + A[i−1]: the oracle must see the recurrence
        assert_eq!(oracle_verdict(&log.iterations, None), (false, false));
    }

    #[test]
    fn figure5b_swap_privatizes_tmp_dynamically() {
        let body = examples::figure5b_swap();
        let log = concretize(&body, 4, |_, _, _| 0);
        let tmp = scalar_log(&log, wlp_ir::VarId(0));
        // tmp: written then read per iteration — privatizable, not DOALL
        assert_eq!(oracle_verdict(&tmp, None), (false, true));
        // the array accesses alone are a valid DOALL (even/odd disjoint)
        let a = array_log(&log, wlp_ir::ArrayId(0));
        assert_eq!(oracle_verdict(&a, None), (true, true));
    }

    #[test]
    fn unknown_subscripts_use_the_resolver() {
        let body = examples::track_style_unknown();
        // adversarial resolver: every iteration hits element 7
        let log = concretize(&body, 3, |_, _, _| 7);
        let a = array_log(&log, wlp_ir::ArrayId(0));
        assert_eq!(oracle_verdict(&a, None), (false, false));
        // benign resolver: iteration-private elements
        let log = concretize(&body, 3, |_, i, _| i as i64);
        let a = array_log(&log, wlp_ir::ArrayId(0));
        assert!(oracle_verdict(&a, None).0);
    }

    #[test]
    fn remainder_log_drops_the_dispatcher() {
        let body = examples::figure1b_list_traversal();
        let log = concretize(&body, 3, |_, i, _| i as i64);
        let rem = remainder_log(&body, &log, |_| false);
        // without the pointer-chase accesses, disjoint work is a DOALL
        assert_eq!(oracle_verdict(&rem, None), (true, true));
    }

    #[test]
    fn negative_affine_indices_get_distinct_addresses() {
        // A[i−5]: indices −5..−1 must not collide with 0..
        let a = wlp_ir::ArrayId(0);
        let mut l = wlp_ir::LoopIr::new();
        l.push(wlp_ir::Stmt::assign(
            vec![wlp_ir::WRef::Element(
                a,
                Subscript::Affine {
                    coeff: 1,
                    offset: -5,
                },
            )],
            vec![],
        ));
        let log = concretize(&l, 5, |_, _, _| 0);
        let arr = array_log(&log, a);
        assert_eq!(oracle_verdict(&arr, None), (true, true));
    }
}
