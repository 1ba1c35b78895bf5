//! Layer intermediate representation.
//!
//! Each [`Layer`] knows its output shape and how to answer the three
//! questions the evaluator asks of a workload:
//!
//! 1. how many MACs / vector ops does an output element cost,
//! 2. how many weight bytes does the layer carry, and
//! 3. which *region* of each predecessor's output does a given region of
//!    this layer's output depend on (halo-aware input inference).

use serde::{Deserialize, Serialize};

use crate::region::{FmapShape, Range1, Region};

/// Parameters of a (possibly grouped / depthwise) convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvParams {
    /// Kernel height and width (R, S).
    pub kernel: (u32, u32),
    /// Stride in (h, w).
    pub stride: (u32, u32),
    /// Padding in (h, w).
    pub pad: (u32, u32),
    /// Number of groups (1 = dense, `cin` = depthwise).
    pub groups: u32,
    /// Input channels.
    pub cin: u32,
}

impl ConvParams {
    /// Dense convolution parameters.
    pub fn dense(kernel: (u32, u32), stride: (u32, u32), pad: (u32, u32), cin: u32) -> Self {
        Self {
            kernel,
            stride,
            pad,
            groups: 1,
            cin,
        }
    }

    /// Output spatial size produced from an input spatial size.
    pub fn out_dim(&self, in_h: u32, in_w: u32) -> (u32, u32) {
        let oh = (in_h + 2 * self.pad.0).saturating_sub(self.kernel.0) / self.stride.0 + 1;
        let ow = (in_w + 2 * self.pad.1).saturating_sub(self.kernel.1) / self.stride.1 + 1;
        (oh, ow)
    }
}

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Parameters of a pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolParams {
    /// Pooling window (h, w).
    pub kernel: (u32, u32),
    /// Stride (h, w).
    pub stride: (u32, u32),
    /// Padding (h, w).
    pub pad: (u32, u32),
    /// Max or average.
    pub kind: PoolKind,
}

/// Element-wise / normalization operators executed on the vector unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActKind {
    /// Rectified linear unit (elementwise).
    Relu,
    /// GELU (elementwise, more expensive).
    Gelu,
    /// Softmax over the channel dimension (channel reduction).
    Softmax,
    /// Layer normalization over the channel dimension (channel reduction).
    LayerNorm,
}

impl ActKind {
    /// Whether the operator reduces over the channel dimension, i.e. an
    /// output element needs *all* input channels at its position.
    pub fn reduces_channels(&self) -> bool {
        matches!(self, ActKind::Softmax | ActKind::LayerNorm)
    }
}

/// What the second operand of a [`LayerKind::Matmul`] is.
///
/// Transformers contain matmuls whose second operand is itself an
/// activation (Q·Kᵀ and A·V); these create core-to-core data flows instead
/// of weight fetches, which is exactly the traffic Fig. 9 of the paper
/// visualizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatmulOperand {
    /// Second operand is a trained weight matrix of `k_dim x ofmap.c`.
    Weight,
    /// Second operand comes from predecessor 1; an output-channel slice
    /// `k` of this layer needs *rows* `k` of the predecessor (Q·Kᵀ:
    /// output column j is produced from row j of K).
    ActRowSlice,
    /// Second operand comes from predecessor 1; an output-channel slice
    /// `k` needs *channels* `k` of the predecessor over all rows (A·V:
    /// output column j is produced from column j of V).
    ActChanSlice,
}

/// The operator a layer performs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// The DNN's external input (resides in DRAM; never computed).
    Input,
    /// (Grouped / depthwise) convolution.
    Conv(ConvParams),
    /// Pooling.
    Pool(PoolParams),
    /// Fully-connected layer consuming the entire flattened input.
    Fc {
        /// Flattened input length.
        cin: u32,
    },
    /// General matrix multiply with reduction length `k_dim`.
    Matmul {
        /// Reduction (inner) dimension length.
        k_dim: u32,
        /// Nature of the second operand.
        operand: MatmulOperand,
    },
    /// Element-wise combination (e.g. residual add) of `n_inputs` tensors.
    Eltwise {
        /// Number of combined inputs.
        n_inputs: u32,
    },
    /// Vector-unit operator (activation / normalization).
    Activation(ActKind),
    /// Channel concatenation of the predecessors.
    Concat,
}

/// A single DNN layer: a named operator plus its output shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layer {
    /// Human-readable unique name.
    pub name: String,
    /// Operator.
    pub kind: LayerKind,
    /// Output feature-map shape (per sample).
    pub ofmap: FmapShape,
}

impl Layer {
    /// Creates a layer.
    pub fn new(name: impl Into<String>, kind: LayerKind, ofmap: FmapShape) -> Self {
        Self {
            name: name.into(),
            kind,
            ofmap,
        }
    }

    /// MACs required per output element (the reduction length). Zero for
    /// vector-only layers.
    pub fn macs_per_out(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv(p) => p.kernel.0 as u64 * p.kernel.1 as u64 * (p.cin / p.groups) as u64,
            LayerKind::Fc { cin } => *cin as u64,
            LayerKind::Matmul { k_dim, .. } => *k_dim as u64,
            _ => 0,
        }
    }

    /// Vector-unit operations per output element (post-processing such as
    /// BN+ReLU on conv outputs counts as one op).
    pub fn vector_ops_per_out(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv(_) | LayerKind::Fc { .. } | LayerKind::Matmul { .. } => 1,
            LayerKind::Pool(p) => p.kernel.0 as u64 * p.kernel.1 as u64,
            LayerKind::Eltwise { n_inputs } => *n_inputs as u64,
            LayerKind::Activation(a) => match a {
                ActKind::Relu => 1,
                ActKind::Gelu => 4,
                ActKind::Softmax => 4,
                ActKind::LayerNorm => 6,
            },
            LayerKind::Concat | LayerKind::Input => 0,
        }
    }

    /// Total bytes of trained weights the layer carries (int8).
    pub fn weight_bytes(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv(p) => {
                p.kernel.0 as u64
                    * p.kernel.1 as u64
                    * (p.cin / p.groups) as u64
                    * self.ofmap.c as u64
            }
            LayerKind::Fc { cin } => *cin as u64 * self.ofmap.c as u64,
            LayerKind::Matmul {
                k_dim,
                operand: MatmulOperand::Weight,
            } => *k_dim as u64 * self.ofmap.c as u64,
            _ => 0,
        }
    }

    /// Whether the layer carries weights (determines whether the `WGT`
    /// entry of its flow-of-data attribute must be explicitly managed).
    pub fn has_weights(&self) -> bool {
        self.weight_bytes() > 0
    }

    /// Whether this is the pseudo-layer representing the DNN input.
    pub fn is_input(&self) -> bool {
        matches!(self.kind, LayerKind::Input)
    }

    /// Number of predecessors this layer kind expects (`None` = two or
    /// more, checked by the graph builder).
    pub fn expected_preds(&self) -> Option<usize> {
        match &self.kind {
            LayerKind::Input => Some(0),
            LayerKind::Conv(_)
            | LayerKind::Pool(_)
            | LayerKind::Fc { .. }
            | LayerKind::Activation(_) => Some(1),
            LayerKind::Matmul { operand, .. } => match operand {
                MatmulOperand::Weight => Some(1),
                _ => Some(2),
            },
            LayerKind::Eltwise { n_inputs } => Some(*n_inputs as usize),
            LayerKind::Concat => None,
        }
    }

    /// Total MACs for `batch` samples.
    pub fn macs(&self, batch: u32) -> u64 {
        self.ofmap.elems() * batch as u64 * self.macs_per_out()
    }

    /// Region of predecessor `pred_idx`'s output that a region `out` of
    /// this layer's output depends on.
    ///
    /// `pred_shape` is the predecessor's per-sample output shape and
    /// `concat_offset` the channel offset of that predecessor inside a
    /// [`LayerKind::Concat`] output (zero otherwise). Halos of strided /
    /// windowed operators are included; grouped convolutions map output
    /// channel ranges to their input-channel group slice.
    pub fn input_need(
        &self,
        pred_idx: usize,
        pred_shape: FmapShape,
        concat_offset: u32,
        out: &Region,
    ) -> Region {
        let b = out.b;
        match &self.kind {
            LayerKind::Input => unreachable!("input pseudo-layers have no predecessors"),
            LayerKind::Conv(p) => {
                let h = window_need(out.h, p.kernel.0, p.stride.0, p.pad.0, pred_shape.h);
                let w = window_need(out.w, p.kernel.1, p.stride.1, p.pad.1, pred_shape.w);
                let k = if p.groups == 1 {
                    Range1::full(pred_shape.c)
                } else {
                    group_chan_need(out.k, self.ofmap.c, p.cin, p.groups)
                };
                Region::new(h, w, k, b)
            }
            LayerKind::Pool(p) => {
                let h = window_need(out.h, p.kernel.0, p.stride.0, p.pad.0, pred_shape.h);
                let w = window_need(out.w, p.kernel.1, p.stride.1, p.pad.1, pred_shape.w);
                // Pooling is per-channel: channel need equals the output
                // channel range.
                Region::new(h, w, out.k, b)
            }
            LayerKind::Fc { .. } => {
                // FC flattens the whole input: every output element needs
                // the entire predecessor sample.
                Region::new(
                    Range1::full(pred_shape.h),
                    Range1::full(pred_shape.w),
                    Range1::full(pred_shape.c),
                    b,
                )
            }
            LayerKind::Matmul { operand, .. } => match (pred_idx, operand) {
                // Operand A: rows of the output slice rows of A.
                (0, _) => Region::new(
                    out.h,
                    Range1::full(pred_shape.w),
                    Range1::full(pred_shape.c),
                    b,
                ),
                (1, MatmulOperand::ActRowSlice) => Region::new(
                    out.k,
                    Range1::full(pred_shape.w),
                    Range1::full(pred_shape.c),
                    b,
                ),
                (1, MatmulOperand::ActChanSlice) => Region::new(
                    Range1::full(pred_shape.h),
                    Range1::full(pred_shape.w),
                    out.k,
                    b,
                ),
                _ => unreachable!("matmul has at most two activation operands"),
            },
            LayerKind::Eltwise { .. } => Region::new(out.h, out.w, out.k, b),
            LayerKind::Activation(a) => {
                if a.reduces_channels() {
                    Region::new(out.h, out.w, Range1::full(pred_shape.c), b)
                } else {
                    Region::new(out.h, out.w, out.k, b)
                }
            }
            LayerKind::Concat => {
                // This predecessor occupies output channels
                // [concat_offset, concat_offset + pred.c).
                let own = Range1::new(concat_offset, concat_offset + pred_shape.c);
                let hit = out.k.intersect(&own);
                let k = hit.shift(-(concat_offset as i64));
                Region::new(out.h, out.w, k, b)
            }
        }
    }

    /// Fewest elements of one sample of predecessor `pred_idx` that any
    /// split of this layer's whole output must read: the volume of the
    /// union of [`Layer::input_need`] over single output indices, which
    /// every part's need covers by monotonicity and single-index parts
    /// meet exactly.
    ///
    /// `input_need` is a product of per-dimension interval maps, no two
    /// driven by the same output dimension, so that union is the box of
    /// per-dimension unions. Every map passes the batch range through,
    /// so a batch unit of `bu` samples needs exactly `bu` times this
    /// count. Per need dimension, by kind:
    ///
    /// * identity maps give the output extent: eltwise and activation
    ///   dimensions (bar a channel-reducing activation's channels),
    ///   concat h/w, pool channels and the sliced matmul dimensions;
    /// * full maps give the predecessor extent: FC, dense-conv and
    ///   channel-reducing activation channels, the unsliced matmul
    ///   operand dimensions, and concat channels (the concat output
    ///   holds every channel of each input, whatever its offset);
    /// * a grouped convolution touches every group, so all `cin`
    ///   channels;
    /// * a windowed h/w gives the union of its clamped windows. When
    ///   kernel >= stride consecutive windows touch, so the union is the
    ///   window of the whole range; otherwise the windows are disjoint
    ///   and the union is the sum of their clamped lengths.
    ///
    /// `pred_shape` is the predecessor's per-sample output shape.
    pub fn min_input_elems(&self, pred_idx: usize, pred_shape: FmapShape) -> u64 {
        let (o, p) = (self.ofmap, pred_shape);
        let (h, w, c) = match &self.kind {
            LayerKind::Input => unreachable!("input pseudo-layers have no predecessors"),
            LayerKind::Conv(cp) => (
                window_union(o.h, cp.kernel.0, cp.stride.0, cp.pad.0, p.h),
                window_union(o.w, cp.kernel.1, cp.stride.1, cp.pad.1, p.w),
                if cp.groups == 1 { p.c } else { cp.cin },
            ),
            LayerKind::Pool(pp) => (
                window_union(o.h, pp.kernel.0, pp.stride.0, pp.pad.0, p.h),
                window_union(o.w, pp.kernel.1, pp.stride.1, pp.pad.1, p.w),
                o.c,
            ),
            LayerKind::Fc { .. } => (p.h, p.w, p.c),
            LayerKind::Matmul { operand, .. } => match (pred_idx, operand) {
                (0, _) => (o.h, p.w, p.c),
                (1, MatmulOperand::ActRowSlice) => (o.c, p.w, p.c),
                (1, MatmulOperand::ActChanSlice) => (p.h, p.w, o.c),
                _ => unreachable!("matmul has at most two activation operands"),
            },
            LayerKind::Activation(a) if a.reduces_channels() => (o.h, o.w, p.c),
            LayerKind::Eltwise { .. } | LayerKind::Activation(_) => (o.h, o.w, o.c),
            LayerKind::Concat => (o.h, o.w, p.c),
        };
        h as u64 * w as u64 * c as u64
    }
}

/// Input range needed by an output range of a windowed operator
/// (convolution / pooling), clamped to the input extent.
fn window_need(out: Range1, kernel: u32, stride: u32, pad: u32, in_len: u32) -> Range1 {
    if out.is_empty() {
        return Range1::new(0, 0);
    }
    let start = (out.start as i64) * stride as i64 - pad as i64;
    let end = (out.end as i64 - 1) * stride as i64 - pad as i64 + kernel as i64;
    let s = start.max(0) as u32;
    let e = (end.max(0) as u32).min(in_len);
    Range1::new(s, e)
}

/// Measure of the union of [`window_need`] over every single output
/// index in `[0, n)`; at most `in_len`, since every window is clamped.
fn window_union(n: u32, kernel: u32, stride: u32, pad: u32, in_len: u32) -> u32 {
    if kernel >= stride {
        // Each window starts no later than its predecessor ends, so the
        // union is one interval.
        return window_need(Range1::full(n), kernel, stride, pad, in_len).len();
    }
    // Disjoint windows `[i*stride - pad, i*stride - pad + kernel)`: the
    // clamped union is their measure below `in_len` less that below 0.
    let (n, k, s) = (n as i64, kernel as i64, stride as i64);
    let below = |x: i64| {
        let t = x + pad as i64; // distance past the first window's start
        let whole = if t >= k { ((t - k) / s + 1).min(n) } else { 0 };
        let part = if whole < n {
            (t - whole * s).clamp(0, k)
        } else {
            0
        };
        whole * k + part
    };
    (below(in_len as i64) - below(0)) as u32
}

/// Input-channel range touched by an output-channel range of a grouped
/// convolution.
fn group_chan_need(out_k: Range1, cout: u32, cin: u32, groups: u32) -> Range1 {
    if out_k.is_empty() {
        return Range1::new(0, 0);
    }
    let gout = cout / groups;
    let gin = cin / groups;
    let g0 = out_k.start / gout;
    let g1 = out_k.end.div_ceil(gout);
    Range1::new(g0 * gin, (g1 * gin).min(cin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::split_dim;

    fn conv_layer(kernel: u32, stride: u32, pad: u32, cin: u32, cout: u32, oh: u32) -> Layer {
        Layer::new(
            "c",
            LayerKind::Conv(ConvParams::dense(
                (kernel, kernel),
                (stride, stride),
                (pad, pad),
                cin,
            )),
            FmapShape::new(oh, oh, cout),
        )
    }

    #[test]
    fn conv_macs_and_weights() {
        let l = conv_layer(3, 1, 1, 64, 128, 56);
        assert_eq!(l.macs_per_out(), 3 * 3 * 64);
        assert_eq!(l.weight_bytes(), 3 * 3 * 64 * 128);
        assert!(l.has_weights());
        assert_eq!(l.macs(2), 56 * 56 * 128 * 2 * 9 * 64);
    }

    #[test]
    fn grouped_conv_scales_down() {
        let dense = conv_layer(3, 1, 1, 128, 256, 28);
        let mut grouped = dense.clone();
        if let LayerKind::Conv(ref mut p) = grouped.kind {
            p.groups = 32;
        }
        assert_eq!(grouped.macs_per_out() * 32, dense.macs_per_out());
        assert_eq!(grouped.weight_bytes() * 32, dense.weight_bytes());
    }

    #[test]
    fn conv_halo_includes_neighbours() {
        // 3x3 stride-1 pad-1 conv: output rows [0,4) need input rows
        // [0,5) out of 8 (one halo row below).
        let l = conv_layer(3, 1, 1, 16, 16, 8);
        let out = Region::new(
            Range1::new(0, 4),
            Range1::full(8),
            Range1::full(16),
            Range1::full(1),
        );
        let need = l.input_need(0, FmapShape::new(8, 8, 16), 0, &out);
        assert_eq!(need.h, Range1::new(0, 5));
        assert_eq!(need.w, Range1::full(8));
        assert_eq!(need.k, Range1::full(16));
    }

    #[test]
    fn strided_conv_need() {
        // 3x3 stride-2 pad-1, in 8 -> out 4. Output rows [2,4) need input
        // rows [2*2-1, 3*2-1+3) = [3, 8).
        let l = conv_layer(3, 2, 1, 16, 16, 4);
        let out = Region::new(
            Range1::new(2, 4),
            Range1::full(4),
            Range1::full(16),
            Range1::full(1),
        );
        let need = l.input_need(0, FmapShape::new(8, 8, 16), 0, &out);
        assert_eq!(need.h, Range1::new(3, 8));
    }

    #[test]
    fn depthwise_channel_slices() {
        let l = Layer::new(
            "dw",
            LayerKind::Conv(ConvParams {
                kernel: (3, 3),
                stride: (1, 1),
                pad: (1, 1),
                groups: 64,
                cin: 64,
            }),
            FmapShape::new(14, 14, 64),
        );
        let out = Region::new(
            Range1::full(14),
            Range1::full(14),
            Range1::new(16, 32),
            Range1::full(1),
        );
        let need = l.input_need(0, FmapShape::new(14, 14, 64), 0, &out);
        assert_eq!(need.k, Range1::new(16, 32));
        assert_eq!(l.macs_per_out(), 9);
    }

    #[test]
    fn fc_needs_everything() {
        let l = Layer::new(
            "fc",
            LayerKind::Fc { cin: 2048 },
            FmapShape::new(1, 1, 1000),
        );
        let out = Region::new(
            Range1::full(1),
            Range1::full(1),
            Range1::new(0, 10),
            Range1::full(4),
        );
        let need = l.input_need(0, FmapShape::new(1, 1, 2048), 0, &out);
        assert_eq!(need.k, Range1::full(2048));
        assert_eq!(need.b, Range1::full(4));
        assert_eq!(l.weight_bytes(), 2048 * 1000);
    }

    #[test]
    fn matmul_row_and_chan_slices() {
        // Q.K^T: out (seq=64, c=64), k_dim=512.
        let qkt = Layer::new(
            "qkt",
            LayerKind::Matmul {
                k_dim: 512,
                operand: MatmulOperand::ActRowSlice,
            },
            FmapShape::new(64, 1, 64),
        );
        let out = Region::new(
            Range1::new(0, 16),
            Range1::full(1),
            Range1::new(32, 48),
            Range1::full(1),
        );
        let k_shape = FmapShape::new(64, 1, 512);
        let a_need = qkt.input_need(0, k_shape, 0, &out);
        assert_eq!(a_need.h, Range1::new(0, 16));
        assert_eq!(a_need.k, Range1::full(512));
        let b_need = qkt.input_need(1, k_shape, 0, &out);
        assert_eq!(
            b_need.h,
            Range1::new(32, 48),
            "Q.K^T needs K rows = out cols"
        );

        // A.V: out (seq, dv) ; V is (seq, dv).
        let av = Layer::new(
            "av",
            LayerKind::Matmul {
                k_dim: 64,
                operand: MatmulOperand::ActChanSlice,
            },
            FmapShape::new(64, 1, 512),
        );
        let v_shape = FmapShape::new(64, 1, 512);
        let out = Region::new(
            Range1::new(0, 8),
            Range1::full(1),
            Range1::new(0, 128),
            Range1::full(1),
        );
        let v_need = av.input_need(1, v_shape, 0, &out);
        assert_eq!(v_need.h, Range1::full(64), "A.V needs all V rows");
        assert_eq!(v_need.k, Range1::new(0, 128));
    }

    #[test]
    fn concat_routes_channel_slices() {
        let l = Layer::new("cat", LayerKind::Concat, FmapShape::new(28, 28, 96));
        // Pred 1 occupies channels [64, 96).
        let p1 = FmapShape::new(28, 28, 32);
        let out_low = Region::new(
            Range1::full(28),
            Range1::full(28),
            Range1::new(0, 64),
            Range1::full(1),
        );
        assert!(l.input_need(1, p1, 64, &out_low).is_empty());
        let out_hi = Region::new(
            Range1::full(28),
            Range1::full(28),
            Range1::new(64, 96),
            Range1::full(1),
        );
        let need = l.input_need(1, p1, 64, &out_hi);
        assert_eq!(need.k, Range1::new(0, 32));
    }

    #[test]
    fn softmax_reduces_channels() {
        let l = Layer::new(
            "sm",
            LayerKind::Activation(ActKind::Softmax),
            FmapShape::new(64, 1, 64),
        );
        let out = Region::new(
            Range1::new(0, 8),
            Range1::full(1),
            Range1::new(0, 16),
            Range1::full(1),
        );
        let need = l.input_need(0, FmapShape::new(64, 1, 64), 0, &out);
        assert_eq!(need.k, Range1::full(64));
        assert!(l.vector_ops_per_out() > 1);
        assert_eq!(l.macs_per_out(), 0);
    }

    #[test]
    fn window_need_clamps_to_input() {
        // 7x7 stride-2 pad-3 on 224 input: out rows [110,112) need rows
        // up to min(224, 111*2-3+7)=224.
        let r = window_need(Range1::new(110, 112), 7, 2, 3, 224);
        assert_eq!(r.end, 224);
    }

    #[test]
    fn part_split_plus_need_covers_input() {
        // Union of needs of all H-parts must cover the whole input height.
        let l = conv_layer(3, 1, 1, 8, 8, 56);
        let mut covered = [false; 56];
        for i in 0..4 {
            let hr = split_dim(56, 4, i);
            let out = Region::new(hr, Range1::full(56), Range1::full(8), Range1::full(1));
            let need = l.input_need(0, FmapShape::new(56, 56, 8), 0, &out);
            for h in need.h.start..need.h.end {
                covered[h as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn expected_pred_counts() {
        assert_eq!(conv_layer(3, 1, 1, 8, 8, 8).expected_preds(), Some(1));
        let e = Layer::new(
            "e",
            LayerKind::Eltwise { n_inputs: 2 },
            FmapShape::new(8, 8, 8),
        );
        assert_eq!(e.expected_preds(), Some(2));
        let c = Layer::new("c", LayerKind::Concat, FmapShape::new(8, 8, 8));
        assert_eq!(c.expected_preds(), None);
    }
}
