//! Runaway-dispatcher guards: bounded traversal and cycle detection.
//!
//! The paper's General methods hand the linked-list dispatcher to every
//! processor; the whole scheme silently assumes the `next()` chain is
//! finite. A corrupted pointer — one node linking back to an earlier one —
//! turns every dispatcher loop into an infinite walk. This module makes
//! such corruption a *detected, structured* failure instead of a hang:
//!
//! * [`GuardedCursor`] walks a list under a step budget (`f(list len)` —
//!   an acyclic traversal can take at most `len` hops, so the budget has
//!   no false positives) while running **Brent's cycle-finding
//!   algorithm**, which positively identifies a cycle in at most
//!   `2·(μ + λ)` hops with O(1) state (one saved "teleporting tortoise"
//!   node and two counters).
//! * [`DispatcherDiverged`] is the structured error both guards yield.
//! * [`ListArena::check_acyclic`](crate::ListArena::check_acyclic)
//!   verifies a whole list up front.

use crate::arena::{ListArena, NodeId};
use std::fmt;

/// A linked-list dispatcher exceeded its traversal budget or was caught in
/// a cycle: the list is corrupted and the loop would never terminate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatcherDiverged {
    /// Hops taken before the guard tripped.
    pub steps: u64,
    /// Step budget that was in force.
    pub budget: u64,
    /// `true` when Brent's algorithm positively identified a cycle;
    /// `false` when the budget was exhausted without revisit evidence
    /// (still impossible for a well-formed list of the stated length).
    pub cycle: bool,
}

impl fmt::Display for DispatcherDiverged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cycle {
            write!(
                f,
                "dispatcher diverged: cycle detected after {} hops (budget {})",
                self.steps, self.budget
            )
        } else {
            write!(
                f,
                "dispatcher diverged: step budget {} exhausted",
                self.budget
            )
        }
    }
}

impl std::error::Error for DispatcherDiverged {}

/// A [`Cursor`](crate::Cursor) with a runaway guard: every advance is charged against a
/// step budget and checked by Brent's algorithm, so traversing a corrupted
/// (cyclic) list returns [`DispatcherDiverged`] instead of spinning.
#[derive(Debug)]
pub struct GuardedCursor<'a, T> {
    arena: &'a ListArena<T>,
    cur: Option<NodeId>,
    hops: u64,
    budget: u64,
    /// Brent's saved node: the hare (`cur`) is compared against it on
    /// every hop; it teleports to the hare whenever `lam` reaches `power`.
    tortoise: Option<NodeId>,
    power: u64,
    lam: u64,
}

impl<'a, T> GuardedCursor<'a, T> {
    /// A guarded cursor at the list head with the default budget
    /// `len + 1` — the tightest bound that admits every acyclic
    /// traversal.
    pub fn new(arena: &'a ListArena<T>) -> Self {
        Self::with_budget(arena, arena.len() as u64 + 1)
    }

    /// A guarded cursor at the list head with an explicit step budget.
    pub fn with_budget(arena: &'a ListArena<T>, budget: u64) -> Self {
        GuardedCursor {
            arena,
            cur: arena.head(),
            hops: 0,
            budget,
            tortoise: arena.head(),
            power: 1,
            lam: 0,
        }
    }

    /// Current node, if any.
    #[inline]
    pub fn get(&self) -> Option<NodeId> {
        self.cur
    }

    /// Value at the current node, if any.
    pub fn value(&self) -> Option<&'a T> {
        self.cur.map(|id| &self.arena[id])
    }

    /// Hops performed so far.
    #[inline]
    pub fn hops(&self) -> u64 {
        self.hops
    }

    /// Advances one hop, charging the budget and running one Brent step.
    pub fn advance(&mut self) -> Result<(), DispatcherDiverged> {
        let Some(id) = self.cur else {
            return Ok(());
        };
        if self.hops >= self.budget {
            return Err(DispatcherDiverged {
                steps: self.hops,
                budget: self.budget,
                cycle: false,
            });
        }
        self.cur = self.arena.next(id);
        self.hops += 1;
        // Brent: compare the hare against the saved tortoise; teleport the
        // tortoise every time the probed cycle length doubles.
        self.lam += 1;
        if self.cur.is_some() && self.cur == self.tortoise {
            return Err(DispatcherDiverged {
                steps: self.hops,
                budget: self.budget,
                cycle: true,
            });
        }
        if self.lam == self.power {
            self.tortoise = self.cur;
            self.power = self.power.saturating_mul(2);
            self.lam = 0;
        }
        Ok(())
    }

    /// Advances `k` hops (stopping early at list end).
    pub fn advance_by(&mut self, k: usize) -> Result<(), DispatcherDiverged> {
        for _ in 0..k {
            if self.cur.is_none() {
                break;
            }
            self.advance()?;
        }
        Ok(())
    }
}

impl<T> ListArena<T> {
    /// Verifies the `next` chain reaches the end within `len` hops,
    /// returning the number of nodes visited. A corrupted (cyclic) list
    /// yields [`DispatcherDiverged`] instead of hanging the caller.
    pub fn check_acyclic(&self) -> Result<usize, DispatcherDiverged> {
        let mut cur = GuardedCursor::new(self);
        let mut visited = 0usize;
        while cur.get().is_some() {
            visited += 1;
            cur.advance()?;
        }
        Ok(visited)
    }

    /// An unguarded [`Cursor`](crate::Cursor) starting at the list head (re-exported here
    /// for symmetry with [`GuardedCursor`]; see [`ListArena::cursor`]).
    pub fn guarded_cursor(&self) -> GuardedCursor<'_, T> {
        GuardedCursor::new(self)
    }

    /// **Fault injection only**: overwrites `from`'s `next` pointer to
    /// point at `to`, deliberately corrupting the list (typically creating
    /// a cycle). `len`, `tail` and logical bookkeeping are left untouched —
    /// exactly the kind of silent memory corruption the dispatcher guards
    /// exist to survive. Used by the `wlp-fault` harness.
    pub fn corrupt_link(&mut self, from: NodeId, to: NodeId) {
        self.set_next(from, Some(to));
    }
}

// Keep the unguarded Cursor and the guarded one API-compatible where it
// costs nothing, so strategies can be written against either.
impl<T> Clone for GuardedCursor<'_, T> {
    fn clone(&self) -> Self {
        GuardedCursor {
            arena: self.arena,
            cur: self.cur,
            hops: self.hops,
            budget: self.budget,
            tortoise: self.tortoise,
            power: self.power,
            lam: self.lam,
        }
    }
}

/// Guarded sequential traversal: applies `f` to every node in logical
/// order, failing with [`DispatcherDiverged`] on a corrupted list. The
/// bounded-traversal twin of iterating [`crate::Cursor`] by hand.
pub fn traverse_guarded<T>(
    arena: &ListArena<T>,
    mut f: impl FnMut(NodeId, &T),
) -> Result<usize, DispatcherDiverged> {
    let mut cur = GuardedCursor::new(arena);
    let mut visited = 0usize;
    while let Some(id) = cur.get() {
        f(id, &arena[id]);
        visited += 1;
        cur.advance()?;
    }
    Ok(visited)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyclic_list(n: usize, back_to: usize) -> ListArena<u32> {
        let mut list = ListArena::from_values(0..n as u32);
        let tail = list.tail().unwrap();
        let target = list.nth_from(list.head().unwrap(), back_to).unwrap();
        list.corrupt_link(tail, target);
        list
    }

    #[test]
    fn acyclic_traversal_is_unaffected() {
        let list = ListArena::from_values(0..100u32);
        assert_eq!(list.check_acyclic(), Ok(100));
        let mut sum = 0u64;
        let visited = traverse_guarded(&list, |_, v| sum += u64::from(*v)).unwrap();
        assert_eq!(visited, 100);
        assert_eq!(sum, (0..100).sum::<u64>());
    }

    #[test]
    fn full_cycle_is_detected_within_budget() {
        let list = cyclic_list(50, 0);
        let err = list.check_acyclic().unwrap_err();
        assert!(err.cycle || err.steps >= err.budget);
        assert!(
            err.steps <= 51,
            "guard must trip within the budget, took {} hops",
            err.steps
        );
    }

    #[test]
    fn rho_shaped_cycle_is_detected() {
        // tail links back into the middle: a ρ-shape (tail μ=25, loop λ=75)
        let list = cyclic_list(100, 25);
        let err = list.check_acyclic().unwrap_err();
        assert!(err.steps <= 101, "took {} hops", err.steps);
    }

    #[test]
    fn self_loop_is_detected() {
        let list = cyclic_list(10, 9); // tail points at itself
        assert!(list.check_acyclic().is_err());
    }

    #[test]
    fn brent_positively_identifies_cycles_given_headroom() {
        // With a generous budget, Brent must report `cycle: true` rather
        // than mere budget exhaustion.
        let list = cyclic_list(64, 16);
        let mut cur = GuardedCursor::with_budget(&list, 10_000);
        let err = loop {
            if let Err(e) = cur.advance() {
                break e;
            }
        };
        assert!(err.cycle, "Brent must find the cycle: {err:?}");
        assert!(err.steps < 10_000, "well before the budget");
    }

    #[test]
    fn empty_list_is_trivially_acyclic() {
        let list: ListArena<u32> = ListArena::new();
        assert_eq!(list.check_acyclic(), Ok(0));
    }

    #[test]
    fn advance_by_propagates_divergence() {
        let list = cyclic_list(20, 5);
        let mut cur = list.guarded_cursor();
        assert!(cur.advance_by(1000).is_err());
    }

    #[test]
    fn error_display_mentions_the_cause() {
        let cyc = DispatcherDiverged {
            steps: 7,
            budget: 100,
            cycle: true,
        };
        assert!(cyc.to_string().contains("cycle"));
        let budget = DispatcherDiverged {
            steps: 100,
            budget: 100,
            cycle: false,
        };
        assert!(budget.to_string().contains("budget"));
    }
}
