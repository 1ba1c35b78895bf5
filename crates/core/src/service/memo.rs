//! Cross-request result memoization, lifted out of the campaign driver.
//!
//! The campaign layer grew the original `MappingMemo` privately: cells
//! that share a (workload, architecture, batch) reuse one mapping run.
//! The service layer needs exactly the same shape one level up — whole
//! request payloads memoized across socket requests on a warm daemon —
//! so the memo now lives here, generic over its key and value, and both
//! layers share one implementation (and one set of counters).
//!
//! The memo is *results-transparent*: a stored value is exactly what a
//! fresh evaluation would produce (every producer in this workspace is
//! deterministic), so memoization changes wall-clock time only, never
//! results. That is the property that lets a daemon answer a repeated
//! request from memory while still being byte-identical to a cold
//! one-shot run.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A concurrent, optionally capacity-bounded result memo.
///
/// Internally a `Mutex<HashMap>` plus an insertion-order queue; the
/// mutex is held only for probes and stores, never while evaluating.
/// Hit/miss/eviction counters are atomics so read-only observers (the
/// daemon's per-response `service` section) never contend with workers.
#[derive(Debug)]
pub struct MappingMemo<K, V> {
    inner: Mutex<MemoInner<K, V>>,
    /// `None` = unbounded (the one-shot default); `Some(cap)` evicts
    /// insertion-order FIFO once `cap` entries are stored.
    cap: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct MemoInner<K, V> {
    map: HashMap<K, V>,
    /// Insertion order, maintained only when a cap is set.
    order: VecDeque<K>,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for MappingMemo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> MappingMemo<K, V> {
    /// An empty, unbounded memo (one-shot runs: the work list already
    /// bounds the entry count).
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(MemoInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            cap: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An empty memo holding at most `cap` entries; once full, each
    /// store evicts the oldest entry (FIFO) and counts the eviction. A
    /// `cap` of 0 disables storing entirely (every probe misses).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            cap: Some(cap),
            ..Self::new()
        }
    }

    /// Returns the memoized value for `key`, or evaluates, stores and
    /// returns it.
    ///
    /// The closure runs *outside* the lock: concurrent callers may
    /// duplicate work on the same key, but every producer is
    /// deterministic so the race is benign (first store wins; the
    /// duplicate value is identical).
    pub fn get_or_eval(&self, key: K, eval: impl FnOnce() -> V) -> V {
        if let Some(hit) = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = eval();
        if self.cap == Some(0) {
            return v;
        }
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !inner.map.contains_key(&key) {
            if let Some(cap) = self.cap {
                // tidy:allow(lock-cycle, reason = "inner.map.len() is HashMap::len on the held guard's contents; gemini-tidy's name-based call resolution confuses it with MappingMemo::len, which does lock. No second acquisition happens here.")
                while inner.map.len() >= cap {
                    let Some(oldest) = inner.order.pop_front() else {
                        break;
                    };
                    inner.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                inner.order.push_back(key.clone());
            }
            inner.map.insert(key, v.clone());
        }
        v
    }

    /// Probes answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that ran the evaluation closure.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped to stay under the capacity cap.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map
            .len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let memo: MappingMemo<u32, String> = MappingMemo::new();
        let a = memo.get_or_eval(1, || "one".to_string());
        let b = memo.get_or_eval(1, || unreachable!("must be memoized"));
        assert_eq!(a, "one");
        assert_eq!(b, "one");
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn capped_memo_evicts_fifo() {
        let memo: MappingMemo<u32, u32> = MappingMemo::with_capacity(2);
        for k in 0..3 {
            let _ = memo.get_or_eval(k, || k * 10);
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 1);
        // Key 0 (oldest) was evicted; 1 and 2 survive.
        let _ = memo.get_or_eval(1, || unreachable!("1 survives"));
        let _ = memo.get_or_eval(2, || unreachable!("2 survives"));
        let _ = memo.get_or_eval(0, || 0);
        assert_eq!(memo.misses(), 4, "0 was re-evaluated");
    }

    #[test]
    fn zero_cap_disables_storing() {
        let memo: MappingMemo<u32, u32> = MappingMemo::with_capacity(0);
        assert_eq!(memo.get_or_eval(7, || 70), 70);
        assert_eq!(memo.get_or_eval(7, || 70), 70);
        assert_eq!((memo.hits(), memo.misses()), (0, 2));
        assert!(memo.is_empty());
    }

    #[test]
    fn concurrent_callers_agree() {
        let memo: MappingMemo<u32, u32> = MappingMemo::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..16 {
                        assert_eq!(memo.get_or_eval(k, || k + 100), k + 100);
                    }
                });
            }
        });
        assert_eq!(memo.len(), 16);
        assert_eq!(memo.hits() + memo.misses(), 64);
    }
}
