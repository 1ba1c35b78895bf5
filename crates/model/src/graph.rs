//! DNN directed acyclic graphs.
//!
//! A [`Dnn`] is a topologically-ordered list of [`Layer`]s plus the
//! predecessor/successor structure. Construction goes through
//! [`DnnBuilder`], which validates shape compatibility for every operator
//! so that malformed graphs are rejected at build time rather than deep
//! inside the evaluator.

use serde::{Deserialize, Serialize};

use crate::layer::{Layer, LayerKind};
use crate::region::{FmapShape, Region};

/// Index of a layer inside its [`Dnn`]. Layers are numbered in
/// topological order: every predecessor id is smaller than its consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LayerId(pub u32);

impl LayerId {
    /// The index as `usize`.
    pub fn idx(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A validated DNN computation graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dnn {
    name: String,
    layers: Vec<Layer>,
    preds: Vec<Vec<LayerId>>,
    succs: Vec<Vec<LayerId>>,
    /// Channel offset of each predecessor inside a concat output (zeros
    /// for non-concat layers).
    concat_offsets: Vec<Vec<u32>>,
}

impl Dnn {
    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers (including `Input` pseudo-layers).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.idx()]
    }

    /// All layers in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Ids of all layers in topological order.
    pub fn ids(&self) -> impl Iterator<Item = LayerId> + '_ {
        (0..self.layers.len() as u32).map(LayerId)
    }

    /// Ids of computable layers (everything except `Input` pseudo-layers).
    pub fn compute_ids(&self) -> impl Iterator<Item = LayerId> + '_ {
        self.ids().filter(|id| !self.layer(*id).is_input())
    }

    /// Predecessors of a layer.
    pub fn preds(&self, id: LayerId) -> &[LayerId] {
        &self.preds[id.idx()]
    }

    /// Successors of a layer.
    pub fn succs(&self, id: LayerId) -> &[LayerId] {
        &self.succs[id.idx()]
    }

    /// Layers with no successors (the DNN outputs).
    pub fn outputs(&self) -> Vec<LayerId> {
        self.ids().filter(|id| self.succs(*id).is_empty()).collect()
    }

    /// `Input` pseudo-layers.
    pub fn inputs(&self) -> Vec<LayerId> {
        self.ids().filter(|id| self.layer(*id).is_input()).collect()
    }

    /// Region of predecessor `pred_pos`'s output that region `out` of
    /// layer `id`'s output depends on.
    pub fn input_need(&self, id: LayerId, pred_pos: usize, out: &Region) -> Region {
        let pred_id = self.preds(id)[pred_pos];
        let pred_shape = self.layer(pred_id).ofmap;
        let off = self.concat_offsets[id.idx()]
            .get(pred_pos)
            .copied()
            .unwrap_or(0);
        self.layer(id).input_need(pred_pos, pred_shape, off, out)
    }

    /// Whether layer `a` of this graph and layer `b` of `other` pose the
    /// same work: the same kind (parameters included) and output shape,
    /// the same number of predecessors and, predecessor by predecessor,
    /// the same output shape and concat offset. Names are ignored.
    ///
    /// Everything an evaluation reads about a layer follows from these:
    /// weight bytes and vector ops from the kind and output shape, and
    /// every [`Dnn::input_need`] from the predecessor shapes and offsets.
    pub fn alike(&self, a: LayerId, other: &Dnn, b: LayerId) -> bool {
        let (la, lb) = (self.layer(a), other.layer(b));
        let (pa, pb) = (self.preds(a), other.preds(b));
        la.kind == lb.kind
            && la.ofmap == lb.ofmap
            && pa.len() == pb.len()
            && pa
                .iter()
                .zip(pb)
                .all(|(&x, &y)| self.layer(x).ofmap == other.layer(y).ofmap)
            && self.concat_offsets[a.idx()] == other.concat_offsets[b.idx()]
    }

    /// Fewest elements of one sample of predecessor `pred_pos` that any
    /// split of layer `id`'s output must read (see
    /// [`Layer::min_input_elems`]).
    pub fn min_input_elems(&self, id: LayerId, pred_pos: usize) -> u64 {
        let pred_shape = self.layer(self.preds(id)[pred_pos]).ofmap;
        self.layer(id).min_input_elems(pred_pos, pred_shape)
    }

    /// Total MACs to process `batch` samples.
    pub fn total_macs(&self, batch: u32) -> u64 {
        self.layers.iter().map(|l| l.macs(batch)).sum()
    }

    /// Total weight bytes across all layers.
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes()).sum()
    }

    /// One-line-per-fact workload summary (layer census, arithmetic
    /// totals, structural depth) — what a user inspects before choosing
    /// batch sizes and architecture candidates.
    pub fn summary(&self) -> DnnSummary {
        use crate::layer::LayerKind;
        let mut s = DnnSummary {
            name: self.name.clone(),
            layers: 0,
            convs: 0,
            matmuls: 0,
            vector_layers: 0,
            gmacs_per_sample: self.total_macs(1) as f64 / 1e9,
            weight_mb: self.total_weight_bytes() as f64 / 1e6,
            activation_mb: 0.0,
            depth: 0,
        };
        let mut act_bytes = 0u64;
        for l in &self.layers {
            match &l.kind {
                LayerKind::Input => continue,
                LayerKind::Conv(_) | LayerKind::Fc { .. } => s.convs += 1,
                LayerKind::Matmul { .. } => s.matmuls += 1,
                _ => s.vector_layers += 1,
            }
            s.layers += 1;
            act_bytes += l.ofmap.elems();
        }
        s.activation_mb = act_bytes as f64 / 1e6;
        let members: Vec<LayerId> = self.compute_ids().collect();
        s.depth = self.depth_within(&members);
        s
    }

    /// Length of the longest path (in computable layers) within the
    /// subset `members`, used as the pipeline depth of a layer group.
    pub fn depth_within(&self, members: &[LayerId]) -> u32 {
        let mut depth = vec![0u32; self.layers.len()];
        let inset: std::collections::HashSet<LayerId> = members.iter().copied().collect();
        let mut best = 0;
        for &id in members {
            let mut d = 1;
            for &p in self.preds(id) {
                if inset.contains(&p) {
                    d = d.max(depth[p.idx()] + 1);
                }
            }
            depth[id.idx()] = d;
            best = best.max(d);
        }
        best
    }
}

/// Workload summary produced by [`Dnn::summary`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DnnSummary {
    /// Model name.
    pub name: String,
    /// Computable layers (inputs excluded).
    pub layers: usize,
    /// Convolution / fully-connected layers.
    pub convs: usize,
    /// Matmul layers (incl. activation-operand matmuls).
    pub matmuls: usize,
    /// Vector-unit layers (pool / eltwise / activation / concat).
    pub vector_layers: usize,
    /// Giga-MACs per sample.
    pub gmacs_per_sample: f64,
    /// Trained weights in MB (int8).
    pub weight_mb: f64,
    /// Sum of per-layer output feature maps in MB per sample.
    pub activation_mb: f64,
    /// Longest dependency chain of computable layers.
    pub depth: u32,
}

impl std::fmt::Display for DnnSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} layers ({} conv/fc, {} matmul, {} vector), depth {}, \
             {:.2} GMACs, {:.1} MB weights, {:.1} MB activations",
            self.name,
            self.layers,
            self.convs,
            self.matmuls,
            self.vector_layers,
            self.depth,
            self.gmacs_per_sample,
            self.weight_mb,
            self.activation_mb
        )
    }
}

/// Errors produced while building a [`Dnn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A predecessor id does not refer to an earlier layer.
    BadPred {
        /// Layer being added.
        layer: String,
        /// Offending predecessor id.
        pred: u32,
    },
    /// A layer got the wrong number of predecessors.
    PredCount {
        /// Layer being added.
        layer: String,
        /// Expected count (`None` = at least two).
        expected: Option<usize>,
        /// Actual count.
        got: usize,
    },
    /// Shapes are inconsistent with the operator.
    ShapeMismatch {
        /// Layer being added.
        layer: String,
        /// Description of the inconsistency.
        detail: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::BadPred { layer, pred } => {
                write!(
                    f,
                    "layer `{layer}`: predecessor id {pred} is not an earlier layer"
                )
            }
            GraphError::PredCount {
                layer,
                expected,
                got,
            } => match expected {
                Some(e) => write!(f, "layer `{layer}`: expected {e} predecessors, got {got}"),
                None => write!(f, "layer `{layer}`: expected >= 2 predecessors, got {got}"),
            },
            GraphError::ShapeMismatch { layer, detail } => {
                write!(f, "layer `{layer}`: shape mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental, validating builder for [`Dnn`] graphs.
///
/// # Example
///
/// ```
/// use gemini_model::{ConvParams, DnnBuilder, FmapShape, LayerKind};
///
/// # fn main() -> Result<(), gemini_model::graph::GraphError> {
/// let mut b = DnnBuilder::new("tiny");
/// let input = b.input(FmapShape::new(8, 8, 3));
/// let conv = b.add(
///     "conv1",
///     LayerKind::Conv(ConvParams::dense((3, 3), (1, 1), (1, 1), 3)),
///     FmapShape::new(8, 8, 16),
///     &[input],
/// )?;
/// let dnn = b.build();
/// assert_eq!(dnn.len(), 2);
/// assert_eq!(dnn.preds(conv), &[input]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DnnBuilder {
    name: String,
    layers: Vec<Layer>,
    preds: Vec<Vec<LayerId>>,
    concat_offsets: Vec<Vec<u32>>,
}

impl DnnBuilder {
    /// Starts building a graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
            preds: Vec::new(),
            concat_offsets: Vec::new(),
        }
    }

    /// Adds the DNN input pseudo-layer.
    pub fn input(&mut self, shape: FmapShape) -> LayerId {
        self.push(
            Layer::new(
                format!("input{}", self.layers.len()),
                LayerKind::Input,
                shape,
            ),
            vec![],
            vec![],
        )
    }

    /// Adds a layer, validating predecessor count and shape consistency.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if a predecessor id is out of range, the
    /// predecessor count is wrong for the operator, or shapes do not line
    /// up (conv arithmetic, eltwise shape equality, concat channel sums,
    /// matmul operand dimensions).
    pub fn add(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        ofmap: FmapShape,
        preds: &[LayerId],
    ) -> Result<LayerId, GraphError> {
        let name = name.into();
        let layer = Layer::new(name.clone(), kind, ofmap);
        for p in preds {
            if p.idx() >= self.layers.len() {
                return Err(GraphError::BadPred {
                    layer: name,
                    pred: p.0,
                });
            }
        }
        match layer.expected_preds() {
            Some(n) if n != preds.len() => {
                return Err(GraphError::PredCount {
                    layer: name,
                    expected: Some(n),
                    got: preds.len(),
                })
            }
            None if preds.len() < 2 => {
                return Err(GraphError::PredCount {
                    layer: name,
                    expected: None,
                    got: preds.len(),
                })
            }
            _ => {}
        }
        let offsets = self.validate_shapes(&layer, preds)?;
        Ok(self.push(layer, preds.to_vec(), offsets))
    }

    fn validate_shapes(&self, layer: &Layer, preds: &[LayerId]) -> Result<Vec<u32>, GraphError> {
        let shape_of = |id: LayerId| self.layers[id.idx()].ofmap;
        let err = |detail: String| GraphError::ShapeMismatch {
            layer: layer.name.clone(),
            detail,
        };
        let mut offsets = vec![0u32; preds.len()];
        match &layer.kind {
            LayerKind::Input => {}
            LayerKind::Conv(p) => {
                let i = shape_of(preds[0]);
                if i.c != p.cin {
                    return Err(err(format!("conv cin {} != pred channels {}", p.cin, i.c)));
                }
                if p.groups == 0 || p.cin % p.groups != 0 || layer.ofmap.c % p.groups != 0 {
                    return Err(err(format!(
                        "groups {} must divide cin {} and cout {}",
                        p.groups, p.cin, layer.ofmap.c
                    )));
                }
                let (oh, ow) = p.out_dim(i.h, i.w);
                if (oh, ow) != (layer.ofmap.h, layer.ofmap.w) {
                    return Err(err(format!(
                        "conv arithmetic gives {}x{}, declared {}x{}",
                        oh, ow, layer.ofmap.h, layer.ofmap.w
                    )));
                }
            }
            LayerKind::Pool(p) => {
                let i = shape_of(preds[0]);
                if i.c != layer.ofmap.c {
                    return Err(err("pool must preserve channels".into()));
                }
                let oh = (i.h + 2 * p.pad.0).saturating_sub(p.kernel.0) / p.stride.0 + 1;
                let ow = (i.w + 2 * p.pad.1).saturating_sub(p.kernel.1) / p.stride.1 + 1;
                if (oh, ow) != (layer.ofmap.h, layer.ofmap.w) {
                    return Err(err(format!(
                        "pool arithmetic gives {}x{}, declared {}x{}",
                        oh, ow, layer.ofmap.h, layer.ofmap.w
                    )));
                }
            }
            LayerKind::Fc { cin } => {
                let i = shape_of(preds[0]);
                if i.elems() != *cin as u64 {
                    return Err(err(format!(
                        "fc cin {} != flattened pred size {}",
                        cin,
                        i.elems()
                    )));
                }
            }
            LayerKind::Matmul { k_dim, operand } => {
                let a = shape_of(preds[0]);
                if a.c != *k_dim {
                    return Err(err(format!("matmul k_dim {} != A channels {}", k_dim, a.c)));
                }
                if a.h != layer.ofmap.h {
                    return Err(err(format!(
                        "matmul A rows {} != out rows {}",
                        a.h, layer.ofmap.h
                    )));
                }
                match operand {
                    crate::layer::MatmulOperand::Weight => {}
                    crate::layer::MatmulOperand::ActRowSlice => {
                        let b = shape_of(preds[1]);
                        if b.h != layer.ofmap.c || b.c != *k_dim {
                            return Err(err(format!(
                                "row-slice operand must be {}x{}, got {}x{}",
                                layer.ofmap.c, k_dim, b.h, b.c
                            )));
                        }
                    }
                    crate::layer::MatmulOperand::ActChanSlice => {
                        let b = shape_of(preds[1]);
                        if b.c != layer.ofmap.c || b.h != *k_dim {
                            return Err(err(format!(
                                "chan-slice operand must be {}x{}, got {}x{}",
                                k_dim, layer.ofmap.c, b.h, b.c
                            )));
                        }
                    }
                }
            }
            LayerKind::Eltwise { .. } => {
                for p in preds {
                    if shape_of(*p) != layer.ofmap {
                        return Err(err(format!(
                            "eltwise input {} shape {} != output {}",
                            self.layers[p.idx()].name,
                            shape_of(*p),
                            layer.ofmap
                        )));
                    }
                }
            }
            LayerKind::Activation(_) => {
                if shape_of(preds[0]) != layer.ofmap {
                    return Err(err("activation must preserve shape".into()));
                }
            }
            LayerKind::Concat => {
                let mut off = 0u32;
                for (i, p) in preds.iter().enumerate() {
                    let s = shape_of(*p);
                    if (s.h, s.w) != (layer.ofmap.h, layer.ofmap.w) {
                        return Err(err("concat inputs must share spatial dims".into()));
                    }
                    offsets[i] = off;
                    off += s.c;
                }
                if off != layer.ofmap.c {
                    return Err(err(format!(
                        "concat channel sum {} != output channels {}",
                        off, layer.ofmap.c
                    )));
                }
            }
        }
        Ok(offsets)
    }

    fn push(&mut self, layer: Layer, preds: Vec<LayerId>, offsets: Vec<u32>) -> LayerId {
        let id = LayerId(self.layers.len() as u32);
        self.layers.push(layer);
        self.preds.push(preds);
        self.concat_offsets.push(offsets);
        id
    }

    /// Finalizes the graph, computing successor lists.
    pub fn build(self) -> Dnn {
        let mut succs = vec![Vec::new(); self.layers.len()];
        for (i, ps) in self.preds.iter().enumerate() {
            for p in ps {
                succs[p.idx()].push(LayerId(i as u32));
            }
        }
        Dnn {
            name: self.name,
            layers: self.layers,
            preds: self.preds,
            succs,
            concat_offsets: self.concat_offsets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ActKind, ConvParams, MatmulOperand, PoolKind, PoolParams};

    fn chain() -> Dnn {
        let mut b = DnnBuilder::new("chain");
        let i = b.input(FmapShape::new(8, 8, 3));
        let c1 = b
            .add(
                "c1",
                LayerKind::Conv(ConvParams::dense((3, 3), (1, 1), (1, 1), 3)),
                FmapShape::new(8, 8, 16),
                &[i],
            )
            .unwrap();
        let p = b
            .add(
                "p",
                LayerKind::Pool(PoolParams {
                    kernel: (2, 2),
                    stride: (2, 2),
                    pad: (0, 0),
                    kind: PoolKind::Max,
                }),
                FmapShape::new(4, 4, 16),
                &[c1],
            )
            .unwrap();
        b.add(
            "fc",
            LayerKind::Fc { cin: 256 },
            FmapShape::new(1, 1, 10),
            &[p],
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn topo_structure() {
        let d = chain();
        assert_eq!(d.len(), 4);
        assert_eq!(d.inputs(), vec![LayerId(0)]);
        assert_eq!(d.outputs(), vec![LayerId(3)]);
        assert_eq!(d.succs(LayerId(0)), &[LayerId(1)]);
        assert_eq!(d.preds(LayerId(3)), &[LayerId(2)]);
        assert_eq!(d.compute_ids().count(), 3);
    }

    #[test]
    fn conv_shape_checked() {
        let mut b = DnnBuilder::new("bad");
        let i = b.input(FmapShape::new(8, 8, 3));
        let r = b.add(
            "c",
            LayerKind::Conv(ConvParams::dense((3, 3), (1, 1), (0, 0), 3)),
            FmapShape::new(8, 8, 16), // wrong: no-pad 3x3 gives 6x6
            &[i],
        );
        assert!(matches!(r, Err(GraphError::ShapeMismatch { .. })));
    }

    #[test]
    fn conv_cin_checked() {
        let mut b = DnnBuilder::new("bad");
        let i = b.input(FmapShape::new(8, 8, 3));
        let r = b.add(
            "c",
            LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), 4)),
            FmapShape::new(8, 8, 16),
            &[i],
        );
        assert!(matches!(r, Err(GraphError::ShapeMismatch { .. })));
    }

    #[test]
    fn pred_count_checked() {
        let mut b = DnnBuilder::new("bad");
        let i = b.input(FmapShape::new(8, 8, 4));
        let r = b.add(
            "e",
            LayerKind::Eltwise { n_inputs: 2 },
            FmapShape::new(8, 8, 4),
            &[i],
        );
        assert!(matches!(r, Err(GraphError::PredCount { .. })));
    }

    #[test]
    fn bad_pred_id_checked() {
        let mut b = DnnBuilder::new("bad");
        let _ = b.input(FmapShape::new(8, 8, 4));
        let r = b.add(
            "a",
            LayerKind::Activation(ActKind::Relu),
            FmapShape::new(8, 8, 4),
            &[LayerId(7)],
        );
        assert!(matches!(r, Err(GraphError::BadPred { .. })));
    }

    #[test]
    fn concat_offsets_used_by_input_need() {
        let mut b = DnnBuilder::new("cat");
        let i = b.input(FmapShape::new(8, 8, 4));
        let a = b
            .add(
                "a",
                LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), 4)),
                FmapShape::new(8, 8, 8),
                &[i],
            )
            .unwrap();
        let c = b
            .add(
                "b",
                LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), 4)),
                FmapShape::new(8, 8, 24),
                &[i],
            )
            .unwrap();
        let cat = b
            .add("cat", LayerKind::Concat, FmapShape::new(8, 8, 32), &[a, c])
            .unwrap();
        let d = b.build();
        use crate::region::{Range1, Region};
        let out = Region::new(
            Range1::full(8),
            Range1::full(8),
            Range1::new(8, 32),
            Range1::full(1),
        );
        // Channels [8,32) of the concat come entirely from pred 1.
        assert!(d.input_need(cat, 0, &out).is_empty());
        assert_eq!(d.input_need(cat, 1, &out).k, Range1::new(0, 24));
    }

    #[test]
    fn concat_channel_sum_checked() {
        let mut b = DnnBuilder::new("cat");
        let i = b.input(FmapShape::new(8, 8, 4));
        let a = b
            .add(
                "a",
                LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), 4)),
                FmapShape::new(8, 8, 8),
                &[i],
            )
            .unwrap();
        let r = b.add("cat", LayerKind::Concat, FmapShape::new(8, 8, 32), &[a, a]);
        assert!(matches!(r, Err(GraphError::ShapeMismatch { .. })));
    }

    #[test]
    fn matmul_operand_shapes_checked() {
        let mut b = DnnBuilder::new("mm");
        let i = b.input(FmapShape::new(16, 1, 32));
        let q = b
            .add(
                "q",
                LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), 32)),
                FmapShape::new(16, 1, 32),
                &[i],
            )
            .unwrap();
        let k = b
            .add(
                "k",
                LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), 32)),
                FmapShape::new(16, 1, 32),
                &[i],
            )
            .unwrap();
        // Correct Q.K^T: out (16 x 16), k_dim 32.
        let qkt = b.add(
            "qkt",
            LayerKind::Matmul {
                k_dim: 32,
                operand: MatmulOperand::ActRowSlice,
            },
            FmapShape::new(16, 1, 16),
            &[q, k],
        );
        assert!(qkt.is_ok());
        // Wrong out rows.
        let bad = b.add(
            "bad",
            LayerKind::Matmul {
                k_dim: 32,
                operand: MatmulOperand::ActRowSlice,
            },
            FmapShape::new(8, 1, 16),
            &[q, k],
        );
        assert!(matches!(bad, Err(GraphError::ShapeMismatch { .. })));
    }

    #[test]
    fn depth_within_subsets() {
        let d = chain();
        // Layers 1..=3 form a 3-deep chain.
        assert_eq!(d.depth_within(&[LayerId(1), LayerId(2), LayerId(3)]), 3);
        assert_eq!(d.depth_within(&[LayerId(1)]), 1);
        // Disconnected members have depth 1 each.
        assert_eq!(d.depth_within(&[LayerId(1), LayerId(3)]), 1);
    }

    #[test]
    fn total_macs_positive() {
        let d = chain();
        assert!(d.total_macs(1) > 0);
        assert_eq!(d.total_macs(4), 4 * d.total_macs(1));
        assert!(d.total_weight_bytes() > 0);
    }

    #[test]
    fn summary_census_consistent() {
        let d = chain();
        let s = d.summary();
        assert_eq!(s.layers, d.compute_ids().count());
        assert_eq!(s.layers, s.convs + s.matmuls + s.vector_layers);
        assert!((s.gmacs_per_sample - d.total_macs(1) as f64 / 1e9).abs() < 1e-12);
        assert!(s.depth >= 1);
        let line = s.to_string();
        assert!(line.contains("GMACs") && line.contains(d.name()));
    }
}
