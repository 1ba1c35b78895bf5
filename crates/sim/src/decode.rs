//! Per-position evaluation of decode-step workloads.
//!
//! An LLM decode step's working set grows with sequence position: the
//! KV-cache `Input` layers and the attention matmuls are reshaped at
//! every position, while the QKV projections and the MLP stack are
//! byte-identical. Evaluating a position sweep from scratch would
//! rebuild every [`crate::evaluate::MemberRecord`] per position; this
//! module instead maps the workload **once** (at a reference position),
//! transplants that mapping to each other position's graph, and re-runs
//! `member_record` only for members the reshape actually dirtied — the
//! same clean-record/fold discipline as the SA delta evaluator
//! ([`crate::delta::GroupEvalState`]), applied across sequence
//! positions instead of across SA moves.
//!
//! A member's record depends on its own assignment, its in-group
//! producers' parts, the group's batch unit, and the (immutable) layer
//! shapes, so a record is reusable at another position iff the member's
//! layer and predecessor shapes are unchanged there, its assignment
//! survived the transplant verbatim, and no in-group producer was
//! reassigned. Reuse is therefore exact, never approximate: a sweep
//! returns bit-identical reports to per-position cold evaluations.

use gemini_model::{Dnn, LayerId, Range1, Region};

use crate::evaluate::{DnnReport, Evaluator, MemberRecord};
use crate::mapping::GroupMapping;

/// Reuse telemetry of one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Member records rebuilt (reference position plus dirtied members
    /// of the others).
    pub members_built: usize,
    /// Member records reused from the reference position.
    pub members_reused: usize,
}

/// One evaluated position of a sweep.
#[derive(Debug, Clone)]
pub struct PositionEval {
    /// The sequence position this entry evaluates.
    pub seq_pos: u32,
    /// The evaluator's report for the transplanted mapping.
    pub report: DnnReport,
}

/// Monotone boundary rescale from an extent of `from` to `to`:
/// `0 -> 0`, `from -> to`, interior boundaries in proportion. Adjacent
/// ranges share boundaries, so a rescaled tiling stays gap- and
/// overlap-free (ranges may become empty; empty parts are skipped by
/// the evaluator).
fn rescale(b: u32, from: u32, to: u32) -> u32 {
    debug_assert!(b <= from);
    ((b as u64 * to as u64) / from.max(1) as u64) as u32
}

/// Transplants a reference mapping onto a same-topology graph whose
/// layer shapes differ (another sequence position of the same decode
/// spec): flow selectors, grouping and batch units are copied verbatim;
/// each part's region is rescaled along any output dimension whose
/// extent changed.
///
/// # Panics
///
/// Panics when the graphs do not share a topology (layer count or
/// predecessor lists differ) — the sweep is for position-variant copies
/// of one workload, not for arbitrary graph pairs.
pub fn transplant_mappings(
    ref_dnn: &Dnn,
    target: &Dnn,
    ref_gms: &[GroupMapping],
) -> Vec<GroupMapping> {
    assert_eq!(
        ref_dnn.layers().len(),
        target.layers().len(),
        "transplant requires position-variant copies of one topology"
    );
    for id in ref_dnn.ids() {
        assert_eq!(
            ref_dnn.preds(id),
            target.preds(id),
            "transplant requires identical predecessor lists (layer {id:?})"
        );
    }
    ref_gms
        .iter()
        .map(|gm| {
            let mut out = gm.clone();
            for m in &mut out.members {
                let from = ref_dnn.layer(m.layer).ofmap;
                let to = target.layer(m.layer).ofmap;
                if from == to {
                    continue;
                }
                for (_, region) in &mut m.parts {
                    *region = Region::new(
                        rescale_range(region.h, from.h, to.h),
                        rescale_range(region.w, from.w, to.w),
                        rescale_range(region.k, from.c, to.c),
                        region.b,
                    );
                }
            }
            out
        })
        .collect()
}

/// Rescales one range when its dimension's extent changed.
fn rescale_range(r: Range1, from: u32, to: u32) -> Range1 {
    if from == to {
        r
    } else {
        Range1::new(rescale(r.start, from, to), rescale(r.end, from, to))
    }
}

/// Evaluates a decode workload at every listed position, reusing
/// reference member records wherever the reshape left them untouched.
///
/// `positions` pairs each sequence position with that position's graph
/// (same topology throughout); `ref_idx` names the entry whose graph
/// the mappings in `ref_gms` were computed for. Returns one
/// [`PositionEval`] per entry, in input order, plus reuse telemetry.
///
/// # Panics
///
/// Panics when `ref_idx` is out of range or the graphs disagree on
/// topology.
pub fn sweep_positions(
    ev: &Evaluator,
    positions: &[(u32, &Dnn)],
    ref_idx: usize,
    ref_gms: &[GroupMapping],
    batch: u32,
) -> (Vec<PositionEval>, SweepStats) {
    assert!(ref_idx < positions.len(), "ref_idx out of range");
    let (_, ref_dnn) = positions[ref_idx];
    let mut stats = SweepStats::default();

    // Reference pass: build every record once and keep them for reuse.
    let ref_records: Vec<Vec<MemberRecord>> = ref_gms
        .iter()
        .map(|gm| {
            (0..gm.members.len())
                .map(|mi| {
                    stats.members_built += 1;
                    ev.member_record(ref_dnn, gm, mi)
                })
                .collect()
        })
        .collect();
    // Transplanting keeps each group's member layers and the graph's
    // topology, so one depth per group serves every position.
    let depths: Vec<u32> = ref_gms.iter().map(|gm| gm.depth(ref_dnn)).collect();
    let fold = |gms: &[GroupMapping], records: &[Vec<MemberRecord>]| -> DnnReport {
        let mut delay = 0.0;
        let mut energy = crate::energy::EnergyBreakdown::default();
        let mut reports = Vec::with_capacity(gms.len());
        for ((gm, recs), &depth) in gms.iter().zip(records).zip(&depths) {
            let refs: Vec<&MemberRecord> = recs.iter().collect();
            let r = ev.fold_group(gm, batch, depth, &refs);
            delay += r.delay_s;
            energy.add(&r.energy);
            reports.push(r);
        }
        DnnReport {
            delay_s: delay,
            energy,
            groups: reports,
        }
    };

    let out = positions
        .iter()
        .enumerate()
        .map(|(pi, &(seq_pos, dnn))| {
            if pi == ref_idx {
                return PositionEval {
                    seq_pos,
                    report: fold(ref_gms, &ref_records),
                };
            }
            let gms = transplant_mappings(ref_dnn, dnn, ref_gms);
            let records: Vec<Vec<MemberRecord>> = gms
                .iter()
                .zip(ref_gms)
                .zip(&ref_records)
                .map(|((gm, ref_gm), recs)| {
                    // A member whose assignment moved dirties its
                    // in-group consumers (peer flows read producer
                    // parts), so membership in `moved` feeds the
                    // per-member reuse decision below.
                    let moved: Vec<bool> = gm
                        .members
                        .iter()
                        .zip(&ref_gm.members)
                        .map(|(m, rm)| m != rm)
                        .collect();
                    let in_group = |id: LayerId| gm.members.iter().position(|m| m.layer == id);
                    gm.members
                        .iter()
                        .enumerate()
                        .map(|(mi, m)| {
                            let peers_clean = dnn
                                .preds(m.layer)
                                .iter()
                                .filter_map(|&p| in_group(p))
                                .all(|pmi| !moved[pmi]);
                            if !moved[mi] && peers_clean && ref_dnn.alike(m.layer, dnn, m.layer) {
                                stats.members_reused += 1;
                                recs[mi].clone()
                            } else {
                                stats.members_built += 1;
                                ev.member_record(dnn, gm, mi)
                            }
                        })
                        .collect()
                })
                .collect();
            PositionEval {
                seq_pos,
                report: fold(&gms, &records),
            }
        })
        .collect();
    (out, stats)
}
