//! The layer-centric LP spatial-mapping encoding (Sec. IV-A of the
//! paper).
//!
//! An [`Lms`] (LP Spatial Mapping Scheme) describes how one *layer group*
//! is spatially mapped: for every member layer an [`Ms`] with three
//! attributes:
//!
//! * [`Part`] — how the layer's 4-D output cube (H, W, B, K) is split
//!   into `nc` approximately-equal partitioned workloads;
//! * [`CoreGroup`] — the ordered list of cores computing them (the
//!   correspondence rule maps workload `(h, w, b, k)` to numerical id
//!   `h*W*B*K + w*B*K + b*K + k`, which picks the `(id+1)`-th core);
//! * [`FlowOfData`] — DRAM sources/destination for the explicitly
//!   managed flows (`-1` = inferred/absent, `0` = interleaved, `d > 0` =
//!   DRAM `d`).
//!
//! [`Lms::parse`] turns an encoded scheme into the evaluator-facing
//! [`GroupMapping`], exactly following the paper's parsing method
//! (Fig. 3); [`Lms::parse_into`] does the same into a reused mapping.

use serde::{Deserialize, Serialize};

use gemini_arch::{ArchConfig, CoreId};
use gemini_model::{split_dim, Dnn, LayerId, Region};
use gemini_sim::{DramSel, GroupMapping, LayerAssignment, PredSrc};

/// One layer group produced by the graph partitioner: its member layers
/// (topological order) and the batch unit processed per pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupSpec {
    /// Member layers in topological order (computable layers only).
    pub members: Vec<LayerId>,
    /// Samples per pipeline stage.
    pub batch_unit: u32,
}

impl GroupSpec {
    /// Position of a layer within the group, if present.
    pub fn position(&self, id: LayerId) -> Option<usize> {
        self.members.iter().position(|&m| m == id)
    }
}

/// The `Part` attribute: partition counts along (H, W, B, K).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Part {
    /// Splits along ofmap height.
    pub h: u32,
    /// Splits along ofmap width.
    pub w: u32,
    /// Splits along the batch unit.
    pub b: u32,
    /// Splits along ofmap channels (weight kernels).
    pub k: u32,
}

impl Part {
    /// The trivial partition (one workload).
    pub fn unit() -> Self {
        Part {
            h: 1,
            w: 1,
            b: 1,
            k: 1,
        }
    }

    /// Number of partitioned workloads (`== CoreGroup` size).
    pub fn count(&self) -> u32 {
        self.h * self.w * self.b * self.k
    }

    /// Whether the partition respects the dimension bounds of a layer
    /// with the given output shape and batch unit.
    pub fn fits(&self, shape: gemini_model::FmapShape, batch_unit: u32) -> bool {
        self.h >= 1
            && self.w >= 1
            && self.b >= 1
            && self.k >= 1
            && self.h <= shape.h
            && self.w <= shape.w
            && self.k <= shape.c
            && self.b <= batch_unit
    }
}

impl std::fmt::Display for Part {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Part({}, {}, {}, {})", self.h, self.w, self.b, self.k)
    }
}

/// The ordered `CG` attribute: which cores compute the layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoreGroup(pub Vec<CoreId>);

impl CoreGroup {
    /// Number of cores.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether all cores are distinct.
    pub fn all_distinct(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.0.iter().all(|c| seen.insert(*c))
    }

    /// Whether the group contains a core.
    pub fn contains(&self, c: CoreId) -> bool {
        self.0.contains(&c)
    }
}

/// The `FD` attribute: data sources for ifmaps and weights, destination
/// for ofmaps. `-1` = not explicitly managed (inferred or absent), `0` =
/// interleaved across all DRAMs, `d > 0` = DRAM `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowOfData {
    /// Ifmap source (explicit only when the layer consumes the DNN
    /// input).
    pub ifm: i32,
    /// Weight source (explicit whenever the layer has weights).
    pub wgt: i32,
    /// Ofmap destination (explicit when consumed outside the group or
    /// when the layer is a DNN output).
    pub ofm: i32,
}

impl FlowOfData {
    /// All-inferred flows.
    pub fn inferred() -> Self {
        FlowOfData {
            ifm: -1,
            wgt: -1,
            ofm: -1,
        }
    }
}

/// The mapping scheme `MS` of one layer.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Ms {
    /// Partition attribute.
    pub part: Part,
    /// Core-group attribute (ordered).
    pub cg: CoreGroup,
    /// Flow-of-data attribute.
    pub fd: FlowOfData,
}

/// The LP spatial-mapping scheme `LMS` of one layer group: one [`Ms`]
/// per member, parallel to [`GroupSpec::members`].
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Lms {
    /// Per-member mapping schemes.
    pub schemes: Vec<Ms>,
}

// `clone_from` reuses the core-group vectors of the target (a derived
// `Clone` would reallocate them): the SA chain copies its committed
// scheme into the same trial buffer on every iteration. It destructures
// its source so that a new field cannot be left out of the copy.
impl Clone for Ms {
    fn clone(&self) -> Self {
        Self {
            part: self.part,
            cg: self.cg.clone(),
            fd: self.fd,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            part,
            cg: CoreGroup(cores),
            fd,
        } = source;
        self.part = *part;
        self.cg.0.clone_from(cores);
        self.fd = *fd;
    }
}

impl Clone for Lms {
    fn clone(&self) -> Self {
        Self {
            schemes: self.schemes.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self { schemes } = source;
        self.schemes.clone_from(schemes);
    }
}

/// Errors from [`Lms::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodingError {
    /// Scheme count does not match the member count.
    SchemeArity,
    /// `Part.count() != CG.len()`.
    PartCgMismatch(LayerId),
    /// A `Part` dimension exceeds the layer dimension.
    PartTooFine(LayerId),
    /// A core group has duplicate cores or an out-of-range core.
    BadCoreGroup(LayerId),
    /// An FD entry violates the explicit-management rules.
    BadFlow(LayerId, &'static str),
}

impl std::fmt::Display for EncodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodingError::SchemeArity => write!(f, "scheme count != member count"),
            EncodingError::PartCgMismatch(l) => write!(f, "{l}: Part count != CG size"),
            EncodingError::PartTooFine(l) => write!(f, "{l}: Part exceeds layer dimensions"),
            EncodingError::BadCoreGroup(l) => write!(f, "{l}: invalid core group"),
            EncodingError::BadFlow(l, what) => write!(f, "{l}: invalid FD entry for {what}"),
        }
    }
}

impl std::error::Error for EncodingError {}

/// Flow-management requirements of a layer within its group, derived
/// from the paper's rules in Sec. IV-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowNeeds {
    /// The layer consumes the DNN input, so `ifm` must be explicit.
    pub explicit_if: bool,
    /// The layer has weights, so `wgt` must be explicit.
    pub explicit_wgt: bool,
    /// The layer's output leaves the group (or is the DNN output), so
    /// `ofm` must be explicit.
    pub explicit_of: bool,
}

/// Derives which FD entries a layer must manage explicitly.
pub fn flow_needs(dnn: &Dnn, spec: &GroupSpec, id: LayerId) -> FlowNeeds {
    let in_group = |l: LayerId| spec.members.contains(&l);
    let explicit_if = dnn.preds(id).iter().any(|&p| dnn.layer(p).is_input());
    let explicit_wgt = dnn.layer(id).has_weights();
    let succs = dnn.succs(id);
    let explicit_of = succs.is_empty() || succs.iter().any(|&s| !in_group(s));
    FlowNeeds {
        explicit_if,
        explicit_wgt,
        explicit_of,
    }
}

impl Lms {
    /// Validates the scheme against the paper's constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: arity, `Part`/`CG` size
    /// mismatch, over-fine partitions, duplicate/out-of-range cores, or
    /// FD entries that are explicit (non-negative) where the rules say
    /// inferred, and vice versa.
    pub fn validate(
        &self,
        dnn: &Dnn,
        arch: &ArchConfig,
        spec: &GroupSpec,
    ) -> Result<(), EncodingError> {
        if self.schemes.len() != spec.members.len() {
            return Err(EncodingError::SchemeArity);
        }
        let d = arch.dram_count() as i32;
        for (ms, &id) in self.schemes.iter().zip(&spec.members) {
            let shape = dnn.layer(id).ofmap;
            if !ms.part.fits(shape, spec.batch_unit) {
                return Err(EncodingError::PartTooFine(id));
            }
            if ms.part.count() as usize != ms.cg.len() {
                return Err(EncodingError::PartCgMismatch(id));
            }
            if ms.cg.is_empty()
                || !ms.cg.all_distinct()
                || ms.cg.0.iter().any(|c| c.idx() >= arch.n_cores() as usize)
            {
                return Err(EncodingError::BadCoreGroup(id));
            }
            let needs = flow_needs(dnn, spec, id);
            let ok = |v: i32, explicit: bool| {
                if explicit {
                    (0..=d).contains(&v)
                } else {
                    v == -1
                }
            };
            if !ok(ms.fd.ifm, needs.explicit_if) {
                return Err(EncodingError::BadFlow(id, "ifmap"));
            }
            if !ok(ms.fd.wgt, needs.explicit_wgt) {
                return Err(EncodingError::BadFlow(id, "weights"));
            }
            if !ok(ms.fd.ofm, needs.explicit_of) {
                return Err(EncodingError::BadFlow(id, "ofmap"));
            }
        }
        Ok(())
    }

    /// Parses the encoded scheme into the evaluator-facing
    /// [`GroupMapping`], applying the correspondence rule and the flow
    /// inference of Sec. IV-A.
    ///
    /// `producer_of` resolves the DRAM where an out-of-group
    /// predecessor's output was stored (the paper's "fetched from the
    /// DRAM where the previous layer's ofmaps were stored"); it is only
    /// consulted for non-input out-of-group predecessors.
    pub fn parse(
        &self,
        dnn: &Dnn,
        spec: &GroupSpec,
        producer_of: &dyn Fn(LayerId) -> DramSel,
    ) -> GroupMapping {
        let mut gm = GroupMapping {
            members: Vec::with_capacity(spec.members.len()),
            batch_unit: spec.batch_unit,
        };
        self.parse_into(dnn, spec, producer_of, &mut gm);
        gm
    }

    /// [`Lms::parse`] into `out`, reusing its vectors: afterwards `out`
    /// equals what `parse` returns, whatever it held before.
    pub fn parse_into(
        &self,
        dnn: &Dnn,
        spec: &GroupSpec,
        producer_of: &dyn Fn(LayerId) -> DramSel,
        out: &mut GroupMapping,
    ) {
        out.batch_unit = spec.batch_unit;
        out.members
            .truncate(self.schemes.len().min(spec.members.len()));
        for (mi, (ms, &id)) in self.schemes.iter().zip(&spec.members).enumerate() {
            if mi == out.members.len() {
                out.members.push(LayerAssignment {
                    layer: id,
                    parts: Vec::with_capacity(ms.cg.len()),
                    pred_srcs: Vec::new(),
                    wgt_src: None,
                    of_dst: None,
                });
            }
            let m = &mut out.members[mi];
            let shape = dnn.layer(id).ofmap;
            let p = ms.part;
            m.layer = id;
            m.parts.clear();
            // Correspondence rule: nid = h*W*B*K + w*B*K + b*K + k.
            for h in 0..p.h {
                for w in 0..p.w {
                    for b in 0..p.b {
                        for k in 0..p.k {
                            let nid = ((h * p.w + w) * p.b + b) * p.k + k;
                            let core = ms.cg.0[nid as usize];
                            let region = Region::new(
                                split_dim(shape.h, p.h, h),
                                split_dim(shape.w, p.w, w),
                                split_dim(shape.c, p.k, k),
                                split_dim(spec.batch_unit, p.b, b),
                            );
                            m.parts.push((core, region));
                        }
                    }
                }
            }

            m.pred_srcs.clear();
            m.pred_srcs.extend(dnn.preds(id).iter().map(|&pred| {
                if let Some(pos) = spec.position(pred) {
                    PredSrc::InGroup { member_idx: pos }
                } else if dnn.layer(pred).is_input() {
                    PredSrc::Dram(DramSel::from_fd(ms.fd.ifm).unwrap_or(DramSel::Interleaved))
                } else {
                    PredSrc::Dram(producer_of(pred))
                }
            }));

            let needs = flow_needs(dnn, spec, id);
            m.wgt_src = if needs.explicit_wgt {
                DramSel::from_fd(ms.fd.wgt)
            } else {
                None
            };
            m.of_dst = if needs.explicit_of {
                DramSel::from_fd(ms.fd.ofm)
            } else {
                None
            };
        }
    }

    /// Range-unconstrained clone guard: total cores used across all
    /// member CGs (with multiplicity; a core may serve several layers).
    pub fn total_core_slots(&self) -> usize {
        self.schemes.iter().map(|m| m.cg.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;
    use gemini_model::{zoo, Range1};

    /// The Fig.-3 running example: LMS(MS1, MS2) with
    /// MS1 = Part(1,1,2,2), CG(2,1,5,4), FD(1,1,-1) and
    /// MS2 = Part(1,1,2,1), CG(3,6), FD(-1,2,2) on 6 cores / 2 DRAMs.
    fn fig3() -> (Dnn, ArchConfig, GroupSpec, Lms) {
        let dnn = zoo::two_conv_example();
        let arch = ArchConfig::builder()
            .cores(3, 2)
            .cuts(1, 1)
            .dram_count(2)
            .build()
            .unwrap();
        let spec = GroupSpec {
            members: vec![LayerId(1), LayerId(2)],
            batch_unit: 2,
        };
        // Paper CG ids are 1-based core labels; ours are 0-based.
        let lms = Lms {
            schemes: vec![
                Ms {
                    part: Part {
                        h: 1,
                        w: 1,
                        b: 2,
                        k: 2,
                    },
                    cg: CoreGroup(vec![CoreId(1), CoreId(0), CoreId(4), CoreId(3)]),
                    fd: FlowOfData {
                        ifm: 1,
                        wgt: 1,
                        ofm: -1,
                    },
                },
                Ms {
                    part: Part {
                        h: 1,
                        w: 1,
                        b: 2,
                        k: 1,
                    },
                    cg: CoreGroup(vec![CoreId(2), CoreId(5)]),
                    fd: FlowOfData {
                        ifm: -1,
                        wgt: 2,
                        ofm: 2,
                    },
                },
            ],
        };
        (dnn, arch, spec, lms)
    }

    #[test]
    fn fig3_example_validates() {
        let (dnn, arch, spec, lms) = fig3();
        lms.validate(&dnn, &arch, &spec).unwrap();
    }

    #[test]
    fn fig3_correspondence_rule() {
        let (dnn, _arch, spec, lms) = fig3();
        let gm = lms.parse(&dnn, &spec, &|_| DramSel::Interleaved);
        gm.validate(&dnn).unwrap();
        // Layer 1, workload (b=0, k=0) -> nid 0 -> first core of CG = C1.
        let m1 = &gm.members[0];
        assert_eq!(m1.parts[0].0, CoreId(1));
        // Workload (b=0, k=1) -> nid 1 -> C0.
        assert_eq!(m1.parts[1].0, CoreId(0));
        // Workload (b=1, k=0) -> nid 2 -> C4.
        assert_eq!(m1.parts[2].0, CoreId(4));
        // Regions: k halves of 64 channels, b halves of 2 samples.
        assert_eq!(m1.parts[0].1.k, Range1::new(0, 32));
        assert_eq!(m1.parts[1].1.k, Range1::new(32, 64));
        assert_eq!(m1.parts[2].1.b, Range1::new(1, 2));
    }

    #[test]
    fn fig3_flows() {
        let (dnn, _arch, spec, lms) = fig3();
        let gm = lms.parse(&dnn, &spec, &|_| panic!("no out-of-group producers here"));
        let m1 = &gm.members[0];
        // IF1 = 1 -> DRAM 0 (paper DRAMs are 1-based).
        assert_eq!(m1.pred_srcs[0], PredSrc::Dram(DramSel::Specific(0)));
        assert_eq!(m1.wgt_src, Some(DramSel::Specific(0)));
        assert_eq!(m1.of_dst, None, "consumed by layer 2 in-group");
        let m2 = &gm.members[1];
        assert_eq!(m2.pred_srcs[0], PredSrc::InGroup { member_idx: 0 });
        assert_eq!(m2.wgt_src, Some(DramSel::Specific(1)));
        assert_eq!(m2.of_dst, Some(DramSel::Specific(1)));
    }

    #[test]
    fn part_cg_mismatch_rejected() {
        let (dnn, arch, spec, mut lms) = fig3();
        lms.schemes[0].part = Part {
            h: 1,
            w: 1,
            b: 1,
            k: 2,
        };
        assert_eq!(
            lms.validate(&dnn, &arch, &spec),
            Err(EncodingError::PartCgMismatch(LayerId(1)))
        );
    }

    #[test]
    fn too_fine_part_rejected() {
        let (dnn, arch, spec, mut lms) = fig3();
        // batch_unit is 2; b=4 exceeds it.
        lms.schemes[0].part = Part {
            h: 1,
            w: 1,
            b: 4,
            k: 1,
        };
        lms.schemes[0].cg = CoreGroup((0..4).map(CoreId).collect());
        assert_eq!(
            lms.validate(&dnn, &arch, &spec),
            Err(EncodingError::PartTooFine(LayerId(1)))
        );
    }

    #[test]
    fn duplicate_core_rejected() {
        let (dnn, arch, spec, mut lms) = fig3();
        lms.schemes[1].cg = CoreGroup(vec![CoreId(2), CoreId(2)]);
        assert_eq!(
            lms.validate(&dnn, &arch, &spec),
            Err(EncodingError::BadCoreGroup(LayerId(2)))
        );
    }

    #[test]
    fn wrong_flow_explicitness_rejected() {
        let (dnn, arch, spec, mut lms) = fig3();
        // Layer 1's ofmap is consumed in-group: OF must be -1.
        lms.schemes[0].fd.ofm = 1;
        assert_eq!(
            lms.validate(&dnn, &arch, &spec),
            Err(EncodingError::BadFlow(LayerId(1), "ofmap"))
        );
        lms.schemes[0].fd.ofm = -1;
        // Layer 2 has weights: WGT must be explicit.
        lms.schemes[1].fd.wgt = -1;
        assert_eq!(
            lms.validate(&dnn, &arch, &spec),
            Err(EncodingError::BadFlow(LayerId(2), "weights"))
        );
    }

    #[test]
    fn interleaved_fd_parses() {
        let (dnn, _arch, spec, mut lms) = fig3();
        lms.schemes[0].fd.ifm = 0;
        let gm = lms.parse(&dnn, &spec, &|_| DramSel::Interleaved);
        assert_eq!(
            gm.members[0].pred_srcs[0],
            PredSrc::Dram(DramSel::Interleaved)
        );
    }

    #[test]
    fn out_of_group_pred_uses_producer_of() {
        // Split the two convs into two singleton groups: conv2's ifmap
        // source must come from conv1's OF via the resolver.
        let dnn = zoo::two_conv_example();
        let spec2 = GroupSpec {
            members: vec![LayerId(2)],
            batch_unit: 1,
        };
        let lms2 = Lms {
            schemes: vec![Ms {
                part: Part::unit(),
                cg: CoreGroup(vec![CoreId(0)]),
                fd: FlowOfData {
                    ifm: -1,
                    wgt: 0,
                    ofm: 0,
                },
            }],
        };
        let gm = lms2.parse(&dnn, &spec2, &|p| {
            assert_eq!(p, LayerId(1));
            DramSel::Specific(1)
        });
        assert_eq!(
            gm.members[0].pred_srcs[0],
            PredSrc::Dram(DramSel::Specific(1))
        );
    }

    #[test]
    fn parse_covers_output_exactly() {
        let (dnn, _arch, spec, lms) = fig3();
        let gm = lms.parse(&dnn, &spec, &|_| DramSel::Interleaved);
        gm.validate(&dnn).unwrap();
    }

    #[test]
    fn flow_needs_rules() {
        let dnn = zoo::two_conv_example();
        let both = GroupSpec {
            members: vec![LayerId(1), LayerId(2)],
            batch_unit: 1,
        };
        let n1 = flow_needs(&dnn, &both, LayerId(1));
        assert!(n1.explicit_if, "conv1 reads the DNN input");
        assert!(n1.explicit_wgt);
        assert!(!n1.explicit_of, "conv2 consumes it in-group");
        let n2 = flow_needs(&dnn, &both, LayerId(2));
        assert!(!n2.explicit_if);
        assert!(n2.explicit_of, "DNN output");
        let solo = GroupSpec {
            members: vec![LayerId(1)],
            batch_unit: 1,
        };
        assert!(
            flow_needs(&dnn, &solo, LayerId(1)).explicit_of,
            "consumer now out-of-group"
        );
    }

    #[test]
    fn presets_arch_bounds_checked() {
        let (dnn, _, spec, mut lms) = fig3();
        let small = presets::g_arch_72();
        // CoreId(40) does not exist on a 36-core fabric... but our fig3
        // cores are all < 6, so corrupt one.
        lms.schemes[0].cg.0[0] = CoreId(99);
        assert!(lms.validate(&dnn, &small, &spec).is_err());
    }
}
