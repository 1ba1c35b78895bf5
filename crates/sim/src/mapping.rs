//! Analyzed spatial-mapping schemes.
//!
//! A [`GroupMapping`] is the evaluator-facing form of one layer group's
//! spatial mapping: the output of parsing the paper's layer-centric
//! encoding (Sec. IV-A). Partition, core group and correspondence rule
//! have already been applied, leaving explicit `(core, region)` pairs;
//! the flow-of-data attribute survives as [`DramSel`] selectors.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use gemini_arch::CoreId;
use gemini_model::{Dnn, LayerId, Region};

/// DRAM selection for an explicitly-managed flow, mirroring the paper's
/// `FD` values: `0` = interleave across all DRAMs, `d > 0` = DRAM `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DramSel {
    /// Distribute evenly across all DRAM stacks.
    Interleaved,
    /// Use the given DRAM stack (0-based).
    Specific(u32),
}

impl DramSel {
    /// Parses a non-negative FD value (`0` = interleaved, `d > 0` =
    /// DRAM `d-1`).
    pub fn from_fd(v: i32) -> Option<DramSel> {
        match v {
            0 => Some(DramSel::Interleaved),
            d if d > 0 => Some(DramSel::Specific(d as u32 - 1)),
            _ => None,
        }
    }

    /// The DRAMs a flow of `bytes` uses among `count` stacks, and the
    /// bytes each of them serves: an equal share of every stack when
    /// interleaved, else all of the named one (clamped to the last).
    pub fn targets(self, count: u32, bytes: f64) -> (Range<u32>, f64) {
        match self {
            DramSel::Specific(i) => {
                let i = i.min(count - 1);
                (i..i + 1, bytes)
            }
            DramSel::Interleaved => (0..count, bytes / count as f64),
        }
    }
}

/// Where one predecessor's data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredSrc {
    /// The predecessor is member `member_idx` of the same group; data
    /// flows core-to-core (the FD = -1 case).
    InGroup {
        /// Index into [`GroupMapping::members`].
        member_idx: usize,
    },
    /// The predecessor's output lives in DRAM (previous group's output,
    /// or the DNN input).
    Dram(DramSel),
}

/// One layer's assignment inside a group mapping.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerAssignment {
    /// The layer.
    pub layer: LayerId,
    /// `(core, output region)` pairs; regions partition the layer's
    /// output cube over one batch unit.
    pub parts: Vec<(CoreId, Region)>,
    /// Data source per predecessor (parallel to `dnn.preds(layer)`).
    pub pred_srcs: Vec<PredSrc>,
    /// Weight source (None for weight-less layers).
    pub wgt_src: Option<DramSel>,
    /// Ofmap destination (None when consumed entirely in-group).
    pub of_dst: Option<DramSel>,
}

/// A fully-analyzed spatial mapping of one layer group.
///
/// The mapping is plain data with total equality, so the incremental
/// evaluator ([`crate::delta::GroupEvalState::diff_dirty`]) finds the
/// changed members of a new mapping by comparing assignments.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupMapping {
    /// Member layers in topological order.
    pub members: Vec<LayerAssignment>,
    /// Samples processed per pipeline stage (the graph partitioner's
    /// batch unit).
    pub batch_unit: u32,
}

// `clone_from` reuses the vectors of the target (a derived `Clone`
// would reallocate them), so a caller that copies mappings into the
// same buffers over and over allocates nothing. It destructures its
// source so that a new field cannot be left out of the copy.
impl Clone for LayerAssignment {
    fn clone(&self) -> Self {
        Self {
            layer: self.layer,
            parts: self.parts.clone(),
            pred_srcs: self.pred_srcs.clone(),
            wgt_src: self.wgt_src,
            of_dst: self.of_dst,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            layer,
            parts,
            pred_srcs,
            wgt_src,
            of_dst,
        } = source;
        self.layer = *layer;
        self.parts.clone_from(parts);
        self.pred_srcs.clone_from(pred_srcs);
        self.wgt_src = *wgt_src;
        self.of_dst = *of_dst;
    }
}

impl Clone for GroupMapping {
    fn clone(&self) -> Self {
        Self {
            members: self.members.clone(),
            batch_unit: self.batch_unit,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            members,
            batch_unit,
        } = source;
        self.members.clone_from(members);
        self.batch_unit = *batch_unit;
    }
}

/// Errors found by [`GroupMapping::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A layer's parts do not cover its output cube exactly.
    BadCoverage {
        /// Offending layer.
        layer: LayerId,
        /// Covered elements.
        covered: u64,
        /// Expected elements.
        expected: u64,
    },
    /// An in-group predecessor reference points forward or out of range.
    BadPredRef {
        /// Offending layer.
        layer: LayerId,
    },
    /// Wrong number of predecessor sources.
    PredArity {
        /// Offending layer.
        layer: LayerId,
    },
    /// The mapping's batch unit is zero (no samples per pipeline stage).
    ZeroBatchUnit,
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::BadCoverage {
                layer,
                covered,
                expected,
            } => {
                write!(
                    f,
                    "{layer}: parts cover {covered} of {expected} output elements"
                )
            }
            MappingError::BadPredRef { layer } => {
                write!(
                    f,
                    "{layer}: in-group predecessor reference is not an earlier member"
                )
            }
            MappingError::PredArity { layer } => {
                write!(f, "{layer}: pred_srcs arity does not match the DNN graph")
            }
            MappingError::ZeroBatchUnit => {
                write!(f, "batch_unit must be >= 1 (zero samples per stage)")
            }
        }
    }
}

impl std::error::Error for MappingError {}

impl GroupMapping {
    /// Member layer ids, in order.
    pub fn layer_ids(&self) -> Vec<LayerId> {
        self.members.iter().map(|m| m.layer).collect()
    }

    /// The group's pipeline depth: the longest chain of member layers
    /// ([`Dnn::depth_within`]).
    pub fn depth(&self, dnn: &Dnn) -> u32 {
        dnn.depth_within(&self.layer_ids())
    }

    /// Whether `other` poses this mapping's evaluation again: the same
    /// batch unit and member count and, member by member, the same
    /// parts, `pred_srcs`, `wgt_src` and `of_dst` over
    /// [`Dnn::alike`] layers. Only the layer ids may differ, as between
    /// the repeated blocks of a transformer.
    ///
    /// A member record reads only the member's layer through `dnn`, its
    /// own assignment and its in-group producers' parts, so twin members
    /// get equal records. The fold reads the records, the batch unit and
    /// the depth. A mapping parsed from the encoding marks exactly its
    /// in-group edges `PredSrc::InGroup`, so equal `pred_srcs` give equal
    /// depths there; [`crate::GroupEvalState::twin`] still compares the
    /// depths, which keeps it exact for hand-built mappings too.
    pub fn evaluates_like(&self, dnn: &Dnn, other: &GroupMapping) -> bool {
        self.batch_unit == other.batch_unit
            && self.members.len() == other.members.len()
            && self.members.iter().zip(&other.members).all(|(a, b)| {
                a.parts == b.parts
                    && a.pred_srcs == b.pred_srcs
                    && a.wgt_src == b.wgt_src
                    && a.of_dst == b.of_dst
                    && dnn.alike(a.layer, dnn, b.layer)
            })
    }

    /// Checks structural invariants: the batch unit is at least one
    /// sample, part regions cover each layer's output cube exactly once
    /// (volume check), in-group references point backwards, pred
    /// arities match the graph.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, dnn: &Dnn) -> Result<(), MappingError> {
        if self.batch_unit == 0 {
            return Err(MappingError::ZeroBatchUnit);
        }
        for (i, m) in self.members.iter().enumerate() {
            let shape = dnn.layer(m.layer).ofmap;
            let expected = shape.elems() * self.batch_unit as u64;
            let covered: u64 = m.parts.iter().map(|(_, r)| r.elems()).sum();
            if covered != expected {
                return Err(MappingError::BadCoverage {
                    layer: m.layer,
                    covered,
                    expected,
                });
            }
            if m.pred_srcs.len() != dnn.preds(m.layer).len() {
                return Err(MappingError::PredArity { layer: m.layer });
            }
            for s in &m.pred_srcs {
                if let PredSrc::InGroup { member_idx } = s {
                    if *member_idx >= i {
                        return Err(MappingError::BadPredRef { layer: m.layer });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_model::zoo;
    use gemini_model::{split_dim, Range1};

    /// Maps the two-conv example: conv1 on cores 0..4 (B x K quartered),
    /// conv2 on cores 4..6 (K halved).
    fn example_mapping() -> (Dnn, GroupMapping) {
        let dnn = zoo::two_conv_example();
        let conv1 = LayerId(1);
        let conv2 = LayerId(2);
        let s1 = dnn.layer(conv1).ofmap;
        let s2 = dnn.layer(conv2).ofmap;
        let bu = 2;

        let mut parts1 = Vec::new();
        for b in 0..2 {
            for k in 0..2 {
                parts1.push((
                    CoreId((b * 2 + k) as u16),
                    Region::new(
                        Range1::full(s1.h),
                        Range1::full(s1.w),
                        split_dim(s1.c, 2, k),
                        split_dim(bu, 2, b),
                    ),
                ));
            }
        }
        let parts2: Vec<_> = (0..2)
            .map(|k| {
                (
                    CoreId(4 + k as u16),
                    Region::new(
                        Range1::full(s2.h),
                        Range1::full(s2.w),
                        split_dim(s2.c, 2, k),
                        Range1::full(bu),
                    ),
                )
            })
            .collect();

        let gm = GroupMapping {
            members: vec![
                LayerAssignment {
                    layer: conv1,
                    parts: parts1,
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
            batch_unit: bu,
        };
        (dnn, gm)
    }

    #[test]
    fn example_validates() {
        let (dnn, gm) = example_mapping();
        gm.validate(&dnn).unwrap();
        assert_eq!(gm.layer_ids(), vec![LayerId(1), LayerId(2)]);
    }

    #[test]
    fn coverage_violation_detected() {
        let (dnn, mut gm) = example_mapping();
        gm.members[0].parts.pop();
        assert!(matches!(
            gm.validate(&dnn),
            Err(MappingError::BadCoverage { .. })
        ));
    }

    #[test]
    fn forward_pred_ref_detected() {
        let (dnn, mut gm) = example_mapping();
        gm.members[0].pred_srcs = vec![PredSrc::InGroup { member_idx: 1 }];
        assert!(matches!(
            gm.validate(&dnn),
            Err(MappingError::BadPredRef { .. })
        ));
    }

    #[test]
    fn arity_violation_detected() {
        let (dnn, mut gm) = example_mapping();
        gm.members[1]
            .pred_srcs
            .push(PredSrc::Dram(DramSel::Interleaved));
        assert!(matches!(
            gm.validate(&dnn),
            Err(MappingError::PredArity { .. })
        ));
    }

    #[test]
    fn zero_batch_unit_detected() {
        let (dnn, mut gm) = example_mapping();
        gm.batch_unit = 0;
        assert_eq!(gm.validate(&dnn), Err(MappingError::ZeroBatchUnit));
    }

    #[test]
    fn dram_sel_from_fd() {
        assert_eq!(DramSel::from_fd(0), Some(DramSel::Interleaved));
        assert_eq!(DramSel::from_fd(2), Some(DramSel::Specific(1)));
        assert_eq!(DramSel::from_fd(-1), None);
    }
}
