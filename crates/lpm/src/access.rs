//! Memory-access accounting.
//!
//! The paper's Table 2 expresses worst-case filter-lookup cost in *memory
//! accesses* (then multiplies by a 60 ns access delay), because on the 1998
//! testbed every hash probe and trie-node visit was a likely cache miss.
//! Each LPM lookup counts its node visits / hash-bucket probes in a local
//! and returns the count ([`crate::BsplTable::lookup_counted`],
//! [`crate::PatriciaTable::lookup_counted`]), so the DAG classifier tallies
//! Table 2 without touching shared state. A PATRICIA trie built
//! [`crate::PatriciaTable::with_counter`] also charges each node visit to
//! a shared [`AccessCounter`], so a bench can [`AccessCounter::measure`] a
//! stand-alone trie through the plain [`crate::LpmTable::lookup`]; no
//! router table is built with one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared memory-access counter. Cloning shares the underlying count.
/// Atomic only so a table type that may carry one stays `Send`.
#[derive(Debug, Clone, Default)]
pub struct AccessCounter {
    count: Arc<AtomicU64>,
}

impl AccessCounter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `n` memory accesses.
    #[inline]
    pub fn charge(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }

    /// Run `f` and return `(result, accesses charged during f)`.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let before = self.get();
        let out = f();
        (out, self.get() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_count() {
        let a = AccessCounter::new();
        let b = a.clone();
        a.charge(3);
        b.charge(2);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn measure_delta() {
        let c = AccessCounter::new();
        c.charge(10);
        let (v, delta) = c.measure(|| {
            c.charge(7);
            42
        });
        assert_eq!(v, 42);
        assert_eq!(delta, 7);
        assert_eq!(c.get(), 17);
    }

    #[test]
    fn reset() {
        let c = AccessCounter::new();
        c.charge(5);
        c.reset();
        assert_eq!(c.get(), 0);
    }
}
