//! Hand-rolled Chase–Lev work-stealing deque.
//!
//! The pool's region handoff and the work-stealing DOALL scheduler need a
//! single-producer, multi-consumer queue whose owner-side operations are a
//! couple of relaxed atomic ops — the `Td` dispatcher term of the paper's
//! cost model, which must stay small for self-scheduling to pay off. The
//! vendored dependency set has no such structure (`deny.toml` pins the
//! path-only shims), so this module implements the Chase–Lev deque
//! [Chase & Lev, SPAA '05] with the explicit weak-memory orderings of
//! Lê et al. [PPoPP '13]:
//!
//! * the **owner** pushes and pops at `bottom` — plain relaxed loads and
//!   stores on the fast path, one `SeqCst` fence only in `pop` where it
//!   races stealers for the last element;
//! * **stealers** take from `top` with a `compare_exchange`; a failed CAS
//!   reports [`Steal::Retry`] so the caller can distinguish contention
//!   from exhaustion.
//!
//! The buffer is a fixed power-of-two ring: callers size it to their
//! maximum outstanding work (`p` lane tickets for the pool), so the grow
//! path of the original algorithm
//! — the only part needing memory reclamation — is not required. ABA on
//! index wraparound is impossible because `top`/`bottom` are 64-bit
//! monotone counters that are never reset; slots are reused only after
//! `top` has advanced past them, which every stealer observes through its
//! CAS on `top` itself.

use std::sync::atomic::{fence, AtomicIsize, AtomicUsize, Ordering};
use wlp_obs::CachePadded;

/// Result of a [`StealDeque::steal`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another stealer; worth retrying.
    Retry,
    /// Took this value.
    Success(usize),
}

/// Fixed-capacity Chase–Lev deque of `usize` payloads.
///
/// One thread (the *owner*) calls [`push`](Self::push) and
/// [`pop`](Self::pop); any number of threads call
/// [`steal`](Self::steal). The capacity is rounded up to a power of two
/// at construction and never grows: [`push`](Self::push) returns `false`
/// when the ring is full instead of reallocating, so the caller must
/// bound outstanding items by the capacity it asked for.
pub struct StealDeque {
    /// Next steal index; monotonically increasing, advanced only by CAS.
    top: CachePadded<AtomicIsize>,
    /// Next push index; written only by the owner.
    bottom: CachePadded<AtomicIsize>,
    /// Power-of-two ring. Slots are atomics so the benign
    /// read-then-CAS-fails race in `steal` stays defined behavior.
    buf: Box<[AtomicUsize]>,
    mask: isize,
}

impl StealDeque {
    /// A deque holding at most `capacity` (rounded up to a power of two)
    /// items at once.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "deque capacity must be nonzero");
        let cap = capacity.next_power_of_two();
        StealDeque {
            top: CachePadded::new(AtomicIsize::new(0)),
            bottom: CachePadded::new(AtomicIsize::new(0)),
            buf: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap as isize - 1,
        }
    }

    /// Ring capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Owner-side push. Returns `false` (and leaves the deque unchanged)
    /// if the ring is full.
    ///
    /// Ordering: the slot store is `Relaxed`; the `Release` store of
    /// `bottom` publishes it. A stealer that observes the new `bottom`
    /// via its `Acquire` load therefore also observes the slot value.
    pub fn push(&self, value: usize) -> bool {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= self.buf.len() as isize {
            return false;
        }
        self.buf[(b & self.mask) as usize].store(value, Ordering::Relaxed);
        self.bottom.store(b + 1, Ordering::Release);
        true
    }

    /// Owner-side pop (LIFO end).
    ///
    /// Ordering: the speculative `bottom` decrement must become visible
    /// before `top` is read, or a stealer and the owner could both take
    /// the last element — that is the one `SeqCst` fence on the owner's
    /// path. When exactly one element remains, owner and stealers
    /// arbitrate with a `SeqCst` CAS on `top`.
    pub fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let v = self.buf[(b & self.mask) as usize].load(Ordering::Relaxed);
            if t == b {
                // Last element: win it from any concurrent stealer.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                return won.then_some(v);
            }
            Some(v)
        } else {
            // Already empty: undo the speculative decrement.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Stealer-side take (FIFO end). Safe to call from any thread.
    ///
    /// Ordering: `top` is `Acquire`-loaded, then a `SeqCst` fence orders
    /// that load before the `Acquire` load of `bottom` (pairing with the
    /// fence in [`pop`](Self::pop)); the slot is read *before* the CAS,
    /// which is legal because a slot is only reused after `top` advances
    /// past it — in that case this CAS fails and the stale value is
    /// discarded as [`Steal::Retry`].
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let v = self.buf[(t & self.mask) as usize].load(Ordering::Relaxed);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        Steal::Success(v)
    }

    /// Whether the deque currently looks empty. Advisory: the answer can
    /// be stale by the time the caller acts on it.
    pub fn is_empty(&self) -> bool {
        let t = self.top.load(Ordering::Acquire);
        let b = self.bottom.load(Ordering::Acquire);
        b <= t
    }

    /// Approximate number of items. Advisory, same caveat as
    /// [`is_empty`](Self::is_empty).
    pub fn len(&self) -> usize {
        let t = self.top.load(Ordering::Acquire);
        let b = self.bottom.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }
}

impl std::fmt::Debug for StealDeque {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealDeque")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Test names are prefixed `atomic_` so the CI Miri job can select
    // exactly the lock-free unit tests by name filter.

    #[test]
    fn atomic_deque_owner_push_pop_is_lifo() {
        let d = StealDeque::new(8);
        assert!(d.push(1));
        assert!(d.push(2));
        assert!(d.push(3));
        assert_eq!(d.len(), 3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn atomic_deque_steal_is_fifo_and_rejects_when_empty() {
        let d = StealDeque::new(4);
        assert_eq!(d.steal(), Steal::Empty);
        d.push(10);
        d.push(20);
        assert_eq!(d.steal(), Steal::Success(10));
        assert_eq!(d.steal(), Steal::Success(20));
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn atomic_deque_full_ring_refuses_push_then_accepts_after_drain() {
        let d = StealDeque::new(2);
        assert_eq!(d.capacity(), 2);
        assert!(d.push(1));
        assert!(d.push(2));
        assert!(!d.push(3), "full ring must refuse");
        assert_eq!(d.steal(), Steal::Success(1));
        assert!(d.push(3), "slot freed by steal is reusable");
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
    }

    #[test]
    fn atomic_deque_concurrent_steals_partition_the_items() {
        // Sized down under Miri: the point there is ordering, not volume.
        let per_round: usize = if cfg!(miri) { 16 } else { 512 };
        let rounds: usize = if cfg!(miri) { 2 } else { 20 };
        let stealers: usize = 3;
        let d = StealDeque::new(per_round);
        let taken = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        let mut expect_sum = 0usize;
        std::thread::scope(|s| {
            for _ in 0..stealers {
                let (d, taken, sum) = (&d, &taken, &sum);
                s.spawn(move || loop {
                    match d.steal() {
                        Steal::Success(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if taken.load(Ordering::Acquire) == per_round * rounds {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for r in 0..rounds {
                for i in 0..per_round {
                    let v = r * per_round + i + 1;
                    expect_sum += v;
                    while !d.push(v) {
                        std::hint::spin_loop();
                    }
                }
            }
        });
        assert_eq!(taken.load(Ordering::Relaxed), per_round * rounds);
        assert_eq!(sum.load(Ordering::Relaxed), expect_sum);
    }

    #[test]
    fn atomic_deque_pop_and_steal_never_duplicate_the_last_element() {
        // Repeatedly race one stealer against the owner for a deque
        // holding exactly one element; every element must be taken
        // exactly once overall.
        let rounds: usize = if cfg!(miri) { 32 } else { 4096 };
        let d = StealDeque::new(2);
        let stolen = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let mut popped = 0usize;
        std::thread::scope(|s| {
            let (dr, stolen_r, done_r) = (&d, &stolen, &done);
            s.spawn(move || loop {
                match dr.steal() {
                    Steal::Success(_) => {
                        stolen_r.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        if done_r.load(Ordering::Acquire) == 1 {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            });
            for i in 0..rounds {
                while !d.push(i) {
                    std::hint::spin_loop();
                }
                if d.pop().is_some() {
                    popped += 1;
                }
            }
            done.store(1, Ordering::Release);
        });
        // Drain anything the stealer left behind after `done`.
        while d.pop().is_some() {
            popped += 1;
        }
        assert_eq!(
            popped + stolen.load(Ordering::Relaxed),
            rounds,
            "each element taken exactly once"
        );
    }

    #[test]
    fn atomic_deque_wraparound_reuses_slots_without_aba() {
        // A tiny ring forced through many wrap cycles: indices are
        // monotone so slot reuse can never alias an in-flight steal.
        let d = StealDeque::new(2);
        for cycle in 0..100usize {
            assert!(d.push(cycle * 2));
            assert!(d.push(cycle * 2 + 1));
            assert_eq!(d.steal(), Steal::Success(cycle * 2));
            assert_eq!(d.pop(), Some(cycle * 2 + 1));
        }
        assert!(d.is_empty());
    }
}
