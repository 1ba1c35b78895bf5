//! Memoized group evaluation.
//!
//! [`EvalCache`] sits in front of [`Evaluator::evaluate_group`] and
//! returns the stored [`GroupReport`] for any [`GroupMapping`] it has
//! evaluated before. It pays where the same mappings really do come
//! back: the joint partition + SPM annealer re-evaluates a moved
//! group's consumers on every SPM move, and its partition moves return
//! to earlier stripe states.
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
//! the cache on or off, warm or cold.
//!
//! The cache is uncapped: a joint exploration is bounded by its
//! iteration budget, so its cache is too.

use std::collections::hash_map::DefaultHasher;
// tidy:allow(hash-collection, reason = "u64-keyed bucket store, probed and mutated by key only, never iterated")
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use gemini_model::Dnn;

use crate::evaluate::{Evaluator, GroupReport};
use crate::mapping::GroupMapping;

/// A memoizing wrapper around [`Evaluator::evaluate_group`].
///
/// Not internally synchronized: the joint annealer owns a private
/// cache, so its lookups are lock-free. A hit returns exactly the
/// report a fresh evaluation would, so results never depend on the hit
/// pattern.
#[derive(Debug)]
pub struct EvalCache {
    /// Buckets keyed by the mapping's structural hash; each entry keeps
    /// the full `(mapping, batch)` key so collisions resolve by
    /// equality.
    ///
    /// Not a plain `HashMap<(GroupMapping, u32), GroupReport>` on
    /// purpose: `HashMap::get` would need an owned `(GroupMapping, u32)`
    /// probe key, forcing a multi-allocation clone of the mapping on
    /// every lookup of the annealer's hot loop. Pre-hashing by `u64`
    /// probes allocation-free; equality against the stored key
    /// preserves the same collision guarantee the std map gives.
    // tidy:allow(hash-collection, reason = "probed and mutated by key only, never iterated; iteration order cannot reach any output")
    map: HashMap<u64, Vec<(GroupMapping, u32, GroupReport)>>,
    hits: u64,
    misses: u64,
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
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            // tidy:allow(hash-collection, reason = "constructor for the key-probed bucket store waived on its declaration above")
            map: HashMap::new(),
            hits: 0,
            misses: 0,
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
        let h = key_hash(gm, batch);
        if let Some(bucket) = self.map.get(&h) {
            if let Some((_, _, r)) = bucket.iter().find(|(k, b, _)| *b == batch && k == gm) {
                self.hits += 1;
                return Ok(r.clone());
            }
        }
        self.misses += 1;
        Err(MissKey(h))
    }

    /// Stores a report under a [`MissKey`] obtained from the
    /// immediately preceding [`EvalCache::lookup`] miss of the *same*
    /// `(gm, batch)`. Hit/miss counters are not touched.
    pub fn insert(&mut self, key: MissKey, gm: &GroupMapping, batch: u32, r: GroupReport) {
        self.map
            .entry(key.0)
            .or_default()
            .push((gm.clone(), batch, r));
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to the evaluator.
    pub fn misses(&self) -> u64 {
        self.misses
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
}
