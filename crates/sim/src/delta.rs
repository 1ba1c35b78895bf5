//! Incremental (delta) group evaluation.
//!
//! The SA hot loop perturbs one or two layers of a group per iteration
//! (the paper's OP1..OP5, Sec. V-B1), yet the seed engine re-ran
//! [`Evaluator::evaluate_group`] over *every* member for each novel
//! neighbor. [`GroupEvalState`] keeps the per-member stage records of
//! the last committed mapping ([`crate::evaluate::MemberRecord`]) and,
//! given the operator's **dirty-layer footprint**, re-simulates only
//! the dirty members (plus their in-group consumers, whose peer flows
//! read the producer's parts) before re-folding the group aggregate.
//!
//! Bit-identity is structural, not approximate:
//! [`Evaluator::evaluate_group`] is itself defined as "build all
//! records, fold in member order" — the delta path folds the *same*
//! records through the *same* code, so the only way it can diverge is
//! an under-declared footprint. Debug builds assert exactly that: every
//! delta-path proposal is compared bit-for-bit
//! ([`crate::GroupReport::bit_identical`]) against a cold evaluation.
//!
//! The state deliberately tolerates arbitrary drift from its caller:
//! [`GroupEvalState::diff_dirty`] derives an exact footprint by
//! comparing member assignments against the stored mapping, so callers
//! that cannot track footprints (the joint annealer's oscillating
//! partitions, consumer groups re-read under a changed flow-of-data
//! overlay) stay correct without re-simulating everything.

use gemini_model::Dnn;

use crate::evaluate::{Evaluator, GroupReport, MemberRecord};
use crate::mapping::{GroupMapping, PredSrc};

/// Counters of one [`GroupEvalState`]'s evaluation activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Proposals served by re-simulating only a strict subset of the
    /// member layers (the incremental fast path).
    pub delta_hits: u64,
    /// Proposals that rebuilt every member record (no usable footprint,
    /// a structural change, or a dirty closure covering every member).
    pub full_evals: u64,
    /// Member-layer records re-simulated across all proposals.
    pub member_sims: u64,
    /// Member-layer records reused from the committed state.
    pub member_reuses: u64,
}

impl DeltaStats {
    /// Accumulates another state's counters (e.g. consumer-group states
    /// merged into one chain's statistics).
    pub fn add(&mut self, other: &DeltaStats) {
        self.delta_hits += other.delta_hits;
        self.full_evals += other.full_evals;
        self.member_sims += other.member_sims;
        self.member_reuses += other.member_reuses;
    }
}

/// A not-yet-committed delta evaluation: the folded report plus the
/// records that were re-simulated for it.
///
/// Produced by [`GroupEvalState::propose`]; hand it back to
/// [`GroupEvalState::commit`] if the annealer accepts the move, drop it
/// otherwise (the state is untouched either way).
#[derive(Debug)]
pub struct DeltaProposal {
    gm: GroupMapping,
    depth: u32,
    report: GroupReport,
    records: ProposalRecords,
}

#[derive(Debug)]
enum ProposalRecords {
    /// Every member was re-simulated.
    Full(Vec<MemberRecord>),
    /// Only these `(member index, record)` pairs changed.
    Dirty(Vec<(usize, MemberRecord)>),
}

impl DeltaProposal {
    /// The evaluation result of the proposed mapping.
    pub fn report(&self) -> &GroupReport {
        &self.report
    }
}

/// Incremental evaluator state for one layer group: the committed
/// [`GroupMapping`], its per-member stage records, and the folded
/// report.
///
/// The SA chain loop is `propose` → (Metropolis) → `commit` or drop,
/// so every applied move is simulated exactly once. Callers that keep
/// the state at the last mapping they asked about rather than at the
/// committed one (the joint annealer, whose states follow its rejected
/// trials too) propose and commit in one step with
/// [`GroupEvalState::advance`].
#[derive(Debug)]
pub struct GroupEvalState {
    gm: GroupMapping,
    batch: u32,
    /// The committed mapping's pipeline depth ([`GroupMapping::depth`]),
    /// so that folds need not recompute it.
    depth: u32,
    records: Vec<MemberRecord>,
    report: GroupReport,
    stats: DeltaStats,
}

/// In-group consumer adjacency of a mapping: `out[i]` lists the member
/// indices with a `PredSrc::InGroup { member_idx: i }` edge.
fn in_group_consumers(gm: &GroupMapping) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); gm.members.len()];
    for (j, m) in gm.members.iter().enumerate() {
        for src in &m.pred_srcs {
            if let PredSrc::InGroup { member_idx } = src {
                out[*member_idx].push(j);
            }
        }
    }
    out
}

impl GroupEvalState {
    /// Builds the state for a mapping with a full (cold) evaluation.
    pub fn new(ev: &Evaluator, dnn: &Dnn, gm: GroupMapping, batch: u32) -> Self {
        let records: Vec<MemberRecord> = (0..gm.members.len())
            .map(|mi| ev.member_record(dnn, &gm, mi))
            .collect();
        let depth = gm.depth(dnn);
        let refs: Vec<&MemberRecord> = records.iter().collect();
        let report = ev.fold_group(&gm, batch, depth, &refs);
        drop(refs);
        Self {
            gm,
            batch,
            depth,
            records,
            report,
            stats: DeltaStats::default(),
        }
    }

    /// A copy of this state with fresh (zeroed) counters.
    ///
    /// SA chains fork the initial per-group states built once by the
    /// engine — re-using the already-simulated member records instead
    /// of paying a redundant cold evaluation per chain — while keeping
    /// counter merges double-count-free.
    pub fn fork(&self) -> Self {
        Self {
            gm: self.gm.clone(),
            batch: self.batch,
            depth: self.depth,
            records: self.records.clone(),
            report: self.report.clone(),
            stats: DeltaStats::default(),
        }
    }

    /// The committed mapping.
    pub fn gm(&self) -> &GroupMapping {
        &self.gm
    }

    /// The committed mapping's evaluation.
    pub fn report(&self) -> &GroupReport {
        &self.report
    }

    /// Evaluation counters accumulated by this state.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Derives an exact dirty footprint by diffing `gm` against the
    /// committed mapping: the indices whose [`gemini_model::LayerId`],
    /// parts or flow selectors differ. Returns `None` when the member
    /// count or batch unit changed (no incremental path exists).
    pub fn diff_dirty(&self, gm: &GroupMapping) -> Option<Vec<usize>> {
        if gm.members.len() != self.gm.members.len() || gm.batch_unit != self.gm.batch_unit {
            return None;
        }
        Some(
            gm.members
                .iter()
                .zip(&self.gm.members)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i)
                .collect(),
        )
    }

    /// Evaluates `gm` incrementally: members in `dirty` (plus their
    /// in-group consumers) are re-simulated, every other member reuses
    /// its committed record, and the group aggregate is re-folded.
    ///
    /// `dirty` is the caller's declared footprint *relative to the
    /// committed mapping* — for the SA operators this is the per-op
    /// dirty-layer set; pass `None` to force a full rebuild (no
    /// footprint is known). A footprint is only usable when the member
    /// count and batch unit are unchanged; otherwise the proposal
    /// silently falls back to a full rebuild.
    ///
    /// Debug builds assert the result is bit-identical to a cold
    /// [`Evaluator::evaluate_group`] of `gm`; an under-declared
    /// footprint therefore fails fast instead of silently skewing the
    /// search.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a member outside the expanded dirty set
    /// differs from the committed mapping, or if the delta result
    /// diverges from the cold evaluation.
    pub fn propose(
        &mut self,
        ev: &Evaluator,
        dnn: &Dnn,
        gm: &GroupMapping,
        dirty: Option<&[usize]>,
    ) -> DeltaProposal {
        let n = self.gm.members.len();
        let depth = self.depth_of(dnn, gm);

        // Dirty closure: the declared members plus their in-group
        // consumers (whose peer-flow records read the producer parts).
        // Consumer edges come from the *new* mapping; within a group the
        // operators never change membership, so old and new adjacency
        // agree. `None` means no incremental path exists: no usable
        // footprint, a structural change, or a closure that covers the
        // whole group anyway.
        let closure: Option<Vec<bool>> = match dirty {
            Some(declared)
                if gm.members.len() == n
                    && gm.batch_unit == self.gm.batch_unit
                    && !self.records.is_empty() =>
            {
                let mut is_dirty = vec![false; n];
                let adjacency = in_group_consumers(gm);
                for &i in declared {
                    is_dirty[i] = true;
                    for &j in &adjacency[i] {
                        is_dirty[j] = true;
                    }
                }
                (!is_dirty.iter().all(|&d| d)).then_some(is_dirty)
            }
            _ => None,
        };
        let Some(is_dirty) = closure else {
            let records: Vec<MemberRecord> = (0..gm.members.len())
                .map(|mi| ev.member_record(dnn, gm, mi))
                .collect();
            let refs: Vec<&MemberRecord> = records.iter().collect();
            let report = ev.fold_group(gm, self.batch, depth, &refs);
            drop(refs);
            self.stats.full_evals += 1;
            self.stats.member_sims += records.len() as u64;
            return DeltaProposal {
                gm: gm.clone(),
                depth,
                report,
                records: ProposalRecords::Full(records),
            };
        };

        #[cfg(debug_assertions)]
        for (i, clean) in is_dirty.iter().map(|d| !d).enumerate() {
            if clean {
                assert!(
                    gm.members[i] == self.gm.members[i],
                    "under-declared dirty footprint: member {i} changed but was not declared"
                );
            }
        }

        let fresh: Vec<(usize, MemberRecord)> = (0..n)
            .filter(|&i| is_dirty[i])
            .map(|i| (i, ev.member_record(dnn, gm, i)))
            .collect();
        let view: Vec<&MemberRecord> = {
            let mut view: Vec<&MemberRecord> = self.records.iter().collect();
            for (i, r) in &fresh {
                view[*i] = r;
            }
            view
        };
        let report = ev.fold_group(gm, self.batch, depth, &view);

        self.stats.delta_hits += 1;
        self.stats.member_sims += fresh.len() as u64;
        self.stats.member_reuses += (n - fresh.len()) as u64;

        #[cfg(debug_assertions)]
        {
            let cold = ev.evaluate_group(dnn, gm, self.batch);
            assert!(
                report.bit_identical(&cold),
                "delta evaluation diverged from the cold evaluation \
                 (dirty footprint {:?} of {} members)",
                dirty,
                n
            );
        }

        DeltaProposal {
            gm: gm.clone(),
            depth,
            report,
            records: ProposalRecords::Dirty(fresh),
        }
    }

    /// The pipeline depth of `gm`: the committed one while the member
    /// layers are unchanged (SA moves never change them), else
    /// recomputed (the joint annealer's partition moves do).
    fn depth_of(&self, dnn: &Dnn, gm: &GroupMapping) -> u32 {
        let same_layers = gm.members.len() == self.gm.members.len()
            && gm
                .members
                .iter()
                .zip(&self.gm.members)
                .all(|(a, b)| a.layer == b.layer);
        if same_layers {
            self.depth
        } else {
            gm.depth(dnn)
        }
    }

    /// Installs an accepted proposal as the committed state and returns
    /// its report.
    pub fn commit(&mut self, p: DeltaProposal) -> GroupReport {
        match p.records {
            ProposalRecords::Full(records) => {
                self.records = records;
            }
            ProposalRecords::Dirty(fresh) => {
                for (i, r) in fresh {
                    self.records[i] = r;
                }
            }
        }
        self.gm = p.gm;
        self.depth = p.depth;
        self.report = p.report.clone();
        p.report
    }

    /// Propose-and-commit in one step: moves the state to `gm` whether
    /// or not the caller goes on to accept `gm`. The joint annealer
    /// evaluates every group this way, since its states only need to
    /// stay close to the mappings it asks about, not equal to the
    /// accepted ones.
    pub fn advance(
        &mut self,
        ev: &Evaluator,
        dnn: &Dnn,
        gm: &GroupMapping,
        dirty: Option<&[usize]>,
    ) -> GroupReport {
        let p = self.propose(ev, dnn, gm, dirty);
        self.commit(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{DramSel, LayerAssignment};
    use gemini_arch::{presets, CoreId};
    use gemini_model::{split_dim, zoo, LayerId, Range1, Region};

    /// Two-layer pipelined mapping of the two-conv example with the
    /// second layer split over `consume` cores.
    fn two_layer(dnn: &Dnn, arch: &gemini_arch::ArchConfig, consume: &[CoreId]) -> GroupMapping {
        let conv1 = LayerId(1);
        let conv2 = LayerId(2);
        let s1 = dnn.layer(conv1).ofmap;
        let s2 = dnn.layer(conv2).ofmap;
        let parts2 = consume
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    *c,
                    Region::new(
                        Range1::full(s2.h),
                        Range1::full(s2.w),
                        split_dim(s2.c, consume.len() as u32, i as u32),
                        Range1::full(1),
                    ),
                )
            })
            .collect();
        GroupMapping {
            members: vec![
                LayerAssignment {
                    layer: conv1,
                    parts: vec![(arch.core_at(0, 0), Region::full(s1, 1))],
                    pred_srcs: vec![PredSrc::Dram(DramSel::Specific(0))],
                    wgt_src: Some(DramSel::Specific(0)),
                    of_dst: None,
                },
                LayerAssignment {
                    layer: conv2,
                    parts: parts2,
                    pred_srcs: vec![PredSrc::InGroup { member_idx: 0 }],
                    wgt_src: Some(DramSel::Specific(1)),
                    of_dst: Some(DramSel::Specific(1)),
                },
            ],
            batch_unit: 1,
        }
    }

    #[test]
    fn initial_state_matches_cold_eval() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let gm = two_layer(&dnn, &arch, &[arch.core_at(1, 0)]);
        let st = GroupEvalState::new(&ev, &dnn, gm.clone(), 4);
        let cold = ev.evaluate_group(&dnn, &gm, 4);
        assert!(st.report().bit_identical(&cold));
    }

    #[test]
    fn delta_on_consumer_matches_cold_eval() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let base = two_layer(&dnn, &arch, &[arch.core_at(1, 0)]);
        let mut st = GroupEvalState::new(&ev, &dnn, base, 4);
        // Move the consumer across the chiplet boundary: member 1 dirty.
        let moved = two_layer(&dnn, &arch, &[arch.core_at(4, 1)]);
        let p = st.propose(&ev, &dnn, &moved, Some(&[1]));
        let cold = ev.evaluate_group(&dnn, &moved, 4);
        assert!(p.report().bit_identical(&cold));
        let s = st.stats();
        assert_eq!(s.delta_hits, 1);
        assert_eq!(s.member_sims, 1);
        assert_eq!(s.member_reuses, 1);
        let committed = st.commit(p);
        assert!(committed.bit_identical(&cold));
        assert!(st.report().bit_identical(&cold));
    }

    #[test]
    fn producer_change_invalidates_consumer_flows() {
        // Changing member 0's parts changes member 1's peer flows: the
        // dirty closure must pull the consumer in, and the result must
        // still be bit-identical to cold.
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let base = two_layer(&dnn, &arch, &[arch.core_at(1, 0)]);
        let mut st = GroupEvalState::new(&ev, &dnn, base.clone(), 4);
        let mut moved = base;
        let s1 = dnn.layer(LayerId(1)).ofmap;
        moved.members[0].parts = vec![(arch.core_at(3, 3), Region::full(s1, 1))];
        let p = st.propose(&ev, &dnn, &moved, Some(&[0]));
        let cold = ev.evaluate_group(&dnn, &moved, 4);
        assert!(p.report().bit_identical(&cold));
        // Both members were re-simulated (producer + its consumer); on
        // this two-member group the closure covers the whole group, so
        // it is accounted as a full evaluation, not a delta hit.
        assert_eq!(st.stats().member_sims, 2);
        assert_eq!(st.stats().member_reuses, 0);
        assert_eq!(st.stats().delta_hits, 0);
        assert_eq!(st.stats().full_evals, 1);
    }

    #[test]
    fn diff_dirty_finds_exact_changes() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let base = two_layer(&dnn, &arch, &[arch.core_at(1, 0)]);
        let st = GroupEvalState::new(&ev, &dnn, base.clone(), 4);
        assert_eq!(st.diff_dirty(&base), Some(vec![]));
        let moved = two_layer(&dnn, &arch, &[arch.core_at(2, 2)]);
        assert_eq!(st.diff_dirty(&moved), Some(vec![1]));
        let mut rebatched = base;
        rebatched.batch_unit = 2;
        assert_eq!(st.diff_dirty(&rebatched), None);
    }

    #[test]
    fn none_footprint_forces_full_eval() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let base = two_layer(&dnn, &arch, &[arch.core_at(1, 0)]);
        let mut st = GroupEvalState::new(&ev, &dnn, base.clone(), 4);
        let p = st.propose(&ev, &dnn, &base, None);
        assert!(p.report().bit_identical(st.report()));
        assert_eq!(st.stats().full_evals, 1);
        assert_eq!(st.stats().delta_hits, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "under-declared dirty footprint")]
    fn under_declared_footprint_is_caught() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let base = two_layer(&dnn, &arch, &[arch.core_at(1, 0)]);
        let mut st = GroupEvalState::new(&ev, &dnn, base, 4);
        // Member 1 changed, but the footprint claims nothing did.
        let moved = two_layer(&dnn, &arch, &[arch.core_at(4, 1)]);
        let _ = st.propose(&ev, &dnn, &moved, Some(&[]));
    }
}
