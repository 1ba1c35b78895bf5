//! Memoized group evaluation.
//!
//! [`EvalCache`] sits in front of [`Evaluator::evaluate_group`] and
//! returns the stored [`GroupReport`] for any [`GroupMapping`] it has
//! evaluated before. It pays where the same mappings really do come
//! back:
//!
//! * the `gemini serve` daemon replays each mapping request's final
//!   T-Map/G-Map group mappings through one shared cache, so repeated
//!   workloads across requests hit instead of re-simulating;
//! * the joint partition + SPM annealer re-evaluates a moved group's
//!   consumers on every SPM move, and its partition moves return to
//!   earlier stripe states.
//!
//! The staged SA chains do not use it: a chain rarely proposes a state
//! it has seen before (a few percent of proposals), so they evaluate
//! every move incrementally instead ([`crate::GroupEvalState`]).
//!
//! The key is the parsed mapping itself (plus the batch size), compared
//! by full structural equality — a hash collision can cost a probe but
//! never return a wrong report. Because a cached report is exactly the
//! report the evaluator would have produced, memoization changes only
//! wall-clock time, never results: explorations stay bit-identical with
//! the cache on or off, warm or cold, capped or uncapped.
//!
//! One-shot runs default to an uncapped cache ([`EvalCache::new`]): a
//! single joint exploration or CLI request is bounded by its iteration
//! budget, so the cache is too. Long-running processes (the
//! `gemini serve` daemon) must instead construct with
//! [`EvalCache::with_capacity`], which evicts the oldest entry once
//! full and counts evictions so operators can see when the working set
//! exceeds the cap.

use std::collections::hash_map::DefaultHasher;
// tidy:allow(hash-collection, reason = "u64-keyed bucket store, probed and mutated by key only, never iterated; eviction order comes from the explicit `order` VecDeque")
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use gemini_model::Dnn;

use crate::evaluate::{Evaluator, GroupReport};
use crate::mapping::GroupMapping;

/// A memoizing wrapper around [`Evaluator::evaluate_group`].
///
/// Not internally synchronized: the joint annealer owns a private
/// cache, so its lookups are lock-free, and the daemon wraps its shared
/// cache in a mutex. Either way a hit returns exactly the report a
/// fresh evaluation would, so results never depend on the hit pattern.
#[derive(Debug)]
pub struct EvalCache {
    /// Buckets keyed by the mapping's structural hash; each entry keeps
    /// the full `(mapping, batch)` key so collisions resolve by equality,
    /// plus the insertion sequence number that names it in `order`.
    ///
    /// Not a plain `HashMap<(GroupMapping, u32), GroupReport>` on
    /// purpose: `HashMap::get` would need an owned `(GroupMapping, u32)`
    /// probe key, forcing a multi-allocation clone of the mapping on
    /// every lookup of the annealer's hot loop. Pre-hashing by `u64`
    /// probes allocation-free; equality against the stored key
    /// preserves the same collision guarantee the std map gives.
    // tidy:allow(hash-collection, reason = "probed and mutated by key only, never iterated; iteration order cannot reach any output")
    map: HashMap<u64, Vec<(u64, GroupMapping, u32, GroupReport)>>,
    /// Insertion order as `(bucket hash, seq)`, oldest first. Only
    /// maintained when a cap is set; eviction pops the front and removes
    /// the matching seq from its bucket.
    order: VecDeque<(u64, u64)>,
    next_seq: u64,
    entries: usize,
    cap: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Opaque pre-computed cache key returned by an [`EvalCache::lookup`]
/// miss, so the follow-up [`EvalCache::insert`] does not re-hash the
/// mapping (an `O(members × parts)` structural hash on the annealer's
/// hot loop).
#[derive(Debug)]
pub struct MissKey(u64);

/// Structural hash of the cache key, stable within one process (the
/// probe and insert paths must agree; buckets never leave the process).
fn key_hash(gm: &GroupMapping, batch: u32) -> u64 {
    let mut h = DefaultHasher::new();
    gm.hash(&mut h);
    batch.hash(&mut h);
    h.finish()
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCache {
    /// An empty, uncapped cache — the one-shot default, where the
    /// iteration budget already bounds how many entries can exist.
    pub fn new() -> Self {
        Self {
            // tidy:allow(hash-collection, reason = "constructor for the key-probed bucket store waived on its declaration above")
            map: HashMap::new(),
            order: VecDeque::new(),
            next_seq: 0,
            entries: 0,
            cap: None,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// An empty cache holding at most `cap` entries (0 disables
    /// caching). Once full, each insert evicts the oldest entry
    /// (insertion-order FIFO) and bumps [`EvalCache::evictions`].
    ///
    /// FIFO rather than LRU on purpose: eviction order then depends
    /// only on the insertion sequence, never on the hit pattern, so a
    /// capped cache stays results-transparent without bookkeeping on
    /// the (hit-dominated) lookup path.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            cap: Some(cap),
            ..Self::new()
        }
    }

    /// Evaluates `gm` for `batch` total samples, reusing the stored
    /// report when this exact mapping was evaluated before.
    pub fn evaluate(
        &mut self,
        ev: &Evaluator,
        dnn: &Dnn,
        gm: &GroupMapping,
        batch: u32,
    ) -> GroupReport {
        let key = match self.lookup(gm, batch) {
            Ok(r) => return r,
            Err(key) => key,
        };
        let r = ev.evaluate_group(dnn, gm, batch);
        self.insert(key, gm, batch, r.clone());
        r
    }

    /// Probes the cache for `(gm, batch)`, counting a hit or a miss.
    ///
    /// Split out of [`EvalCache::evaluate`] so callers with a cheaper
    /// fallback than a cold simulation (the incremental
    /// [`crate::delta::GroupEvalState`]) can supply the report
    /// themselves. A miss returns the pre-computed [`MissKey`] to hand
    /// to [`EvalCache::insert`], so the mapping is hashed once per
    /// lookup/insert round trip.
    ///
    /// # Errors
    ///
    /// The `Err` variant *is* the miss path, carrying the key token —
    /// not a failure.
    pub fn lookup(&mut self, gm: &GroupMapping, batch: u32) -> Result<GroupReport, MissKey> {
        if self.cap == Some(0) {
            self.misses += 1;
            return Err(MissKey(0));
        }
        let h = key_hash(gm, batch);
        if let Some(bucket) = self.map.get(&h) {
            if let Some((_, _, _, r)) = bucket.iter().find(|(_, k, b, _)| *b == batch && k == gm) {
                self.hits += 1;
                return Ok(r.clone());
            }
        }
        self.misses += 1;
        Err(MissKey(h))
    }

    /// Stores a report under a [`MissKey`] obtained from the
    /// immediately preceding [`EvalCache::lookup`] miss of the *same*
    /// `(gm, batch)` (no-op when caching is disabled). Hit/miss
    /// counters are not touched; a capped cache at capacity evicts its
    /// oldest entry first.
    pub fn insert(&mut self, key: MissKey, gm: &GroupMapping, batch: u32, r: GroupReport) {
        let capped = match self.cap {
            Some(0) => return,
            Some(cap) => {
                while self.entries >= cap {
                    self.evict_oldest();
                }
                true
            }
            None => false,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        if capped {
            self.order.push_back((key.0, seq));
        }
        self.map
            .entry(key.0)
            .or_default()
            .push((seq, gm.clone(), batch, r));
        self.entries += 1;
    }

    /// Removes the oldest stored entry and counts the eviction. Only
    /// reachable on capped caches, where `order` mirrors the map.
    fn evict_oldest(&mut self) {
        let Some((h, seq)) = self.order.pop_front() else {
            return;
        };
        if let Some(bucket) = self.map.get_mut(&h) {
            if let Some(at) = bucket.iter().position(|(s, _, _, _)| *s == seq) {
                bucket.swap_remove(at);
                self.entries -= 1;
                self.evictions += 1;
            }
            if bucket.is_empty() {
                self.map.remove(&h);
            }
        }
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to the evaluator.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped to stay under the capacity cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Drops all entries (stats are kept; dropped entries are not
    /// counted as evictions — clearing is a caller decision, not cap
    /// pressure).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.entries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{DramSel, LayerAssignment, PredSrc};
    use gemini_arch::presets;
    use gemini_model::{split_dim, zoo, LayerId, Range1, Region};

    fn mapping(dnn: &Dnn, n_cores: u16, batch_unit: u32) -> GroupMapping {
        let conv1 = LayerId(1);
        let s = dnn.layer(conv1).ofmap;
        let parts = (0..n_cores)
            .map(|i| {
                (
                    gemini_arch::CoreId(i),
                    Region::new(
                        Range1::full(s.h),
                        Range1::full(s.w),
                        split_dim(s.c, n_cores as u32, i as u32),
                        Range1::full(batch_unit),
                    ),
                )
            })
            .collect();
        GroupMapping {
            members: vec![LayerAssignment {
                layer: conv1,
                parts,
                pred_srcs: vec![PredSrc::Dram(DramSel::Specific(0))],
                wgt_src: Some(DramSel::Specific(0)),
                of_dst: Some(DramSel::Specific(1)),
            }],
            batch_unit,
        }
    }

    #[test]
    fn hit_returns_identical_report() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let gm = mapping(&dnn, 4, 2);
        let mut cache = EvalCache::new();
        let a = cache.evaluate(&ev, &dnn, &gm, 8);
        let b = cache.evaluate(&ev, &dnn, &gm, 8);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(a.delay_s.to_bits(), b.delay_s.to_bits());
        assert_eq!(a.energy.total().to_bits(), b.energy.total().to_bits());
        // And the cached report matches a direct evaluation bit-for-bit.
        let direct = ev.evaluate_group(&dnn, &gm, 8);
        assert_eq!(b.delay_s.to_bits(), direct.delay_s.to_bits());
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let mut cache = EvalCache::new();
        let g2 = mapping(&dnn, 2, 2);
        let g4 = mapping(&dnn, 4, 2);
        let r2 = cache.evaluate(&ev, &dnn, &g2, 8);
        let r4 = cache.evaluate(&ev, &dnn, &g4, 8);
        assert_eq!(cache.misses(), 2);
        assert!(r4.stage_time_s < r2.stage_time_s, "4 cores beat 2");
        // Same mapping, different batch: a distinct key.
        let r4b = cache.evaluate(&ev, &dnn, &g4, 16);
        assert_eq!(cache.misses(), 3);
        assert!(r4b.delay_s > r4.delay_s);
    }

    #[test]
    fn cap_bounds_entries_and_zero_cap_disables() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let mut tiny = EvalCache::with_capacity(1);
        for bu in 1..=3 {
            let _ = tiny.evaluate(&ev, &dnn, &mapping(&dnn, 2, bu), 8);
        }
        assert!(tiny.len() <= 1);
        let mut off = EvalCache::with_capacity(0);
        let gm = mapping(&dnn, 2, 2);
        let _ = off.evaluate(&ev, &dnn, &gm, 8);
        let _ = off.evaluate(&ev, &dnn, &gm, 8);
        assert_eq!(off.hits(), 0);
        assert_eq!(off.misses(), 2);
        assert!(off.is_empty());
        assert_eq!(off.evictions(), 0);
    }

    #[test]
    fn capped_cache_evicts_oldest_first() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let mut cache = EvalCache::with_capacity(2);
        let g1 = mapping(&dnn, 2, 1);
        let g2 = mapping(&dnn, 2, 2);
        let g3 = mapping(&dnn, 2, 4);
        let _ = cache.evaluate(&ev, &dnn, &g1, 8);
        let _ = cache.evaluate(&ev, &dnn, &g2, 8);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        // Third insert evicts g1 (the oldest), not g2.
        let _ = cache.evaluate(&ev, &dnn, &g3, 8);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let _ = cache.evaluate(&ev, &dnn, &g2, 8);
        let _ = cache.evaluate(&ev, &dnn, &g3, 8);
        assert_eq!(cache.hits(), 2, "survivors still hit");
        let misses_before = cache.misses();
        let _ = cache.evaluate(&ev, &dnn, &g1, 8);
        assert_eq!(cache.misses(), misses_before + 1, "evicted entry misses");
        assert_eq!(cache.evictions(), 2, "re-inserting g1 evicts g2");
    }

    #[test]
    fn uncapped_cache_never_evicts() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let mut cache = EvalCache::new();
        for bu in 1..=6u32 {
            let _ = cache.evaluate(&ev, &dnn, &mapping(&dnn, 2, bu), 8);
        }
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.evictions(), 0);
    }
}
