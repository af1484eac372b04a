//! Cache-line padding for concurrently updated counters.
//!
//! The lock-free hot paths of this workspace (claim counters, QUIT
//! bounds, per-lane cursors, the pool's region word) are single words
//! updated by different workers. Left adjacent in memory they share
//! cache lines, and every relaxed `fetch_add` becomes a coherence-miss
//! ping-pong — the measured `Td` dispatcher overhead the paper says must
//! shrink for self-scheduling to pay off. [`CachePadded`] rounds a value
//! up to its own 64-byte line so neighbouring counters stop false
//! sharing.

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 64 bytes (one cache line on x86-64 and
/// most aarch64 parts; on the handful of 128-byte-line machines two
/// padded values still never share a line with a *third* counter, which
/// is the failure mode that matters for the claim/stamp paths here).
///
/// The wrapper is transparent in use: it derefs to the inner value, so
/// `CachePadded<AtomicUsize>` is called exactly like an `AtomicUsize`.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value` to a 64-byte line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consumes the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: Clone> Clone for CachePadded<T> {
    fn clone(&self) -> Self {
        CachePadded::new(self.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn padded_values_occupy_distinct_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicUsize>>(), 64);
        assert!(std::mem::size_of::<CachePadded<AtomicUsize>>() >= 64);
        let v: Vec<CachePadded<AtomicUsize>> = (0..4)
            .map(|_| CachePadded::new(AtomicUsize::new(0)))
            .collect();
        let a = &*v[0] as *const AtomicUsize as usize;
        let b = &*v[1] as *const AtomicUsize as usize;
        assert!(b - a >= 64, "adjacent elements are a full line apart");
    }

    #[test]
    fn deref_and_into_inner_are_transparent() {
        let c = CachePadded::new(AtomicUsize::new(7));
        c.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 8);
        assert_eq!(c.into_inner().into_inner(), 8);
        let from: CachePadded<u32> = 5u32.into();
        assert_eq!(*from, 5);
    }
}
