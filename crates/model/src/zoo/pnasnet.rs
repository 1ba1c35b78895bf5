//! PNASNet builder.
//!
//! PNASNet's searched cells mix separable convolutions of several kernel
//! sizes, pooling and identity branches, pairwise-summed and finally
//! concatenated — the most irregular dependency structure in the paper's
//! workload set. We reproduce the PNASNet-5 cell structure (5 blocks of
//! two combined branches, concatenated) with the mobile-scale filter
//! schedule; exact NAS-found channel multipliers are not public in the
//! paper, so round numbers of the same magnitude are used. The mapper
//! only consumes shapes and edges, so this preserves the workload's
//! mapping-relevant character.

use crate::graph::{Dnn, LayerId};
use crate::layer::PoolKind;
use crate::region::FmapShape;

use super::Net;

/// One PNASNet-5 cell: five blocks, each the element-wise sum of two
/// branches; block outputs are concatenated. `stride` of 2 makes it a
/// reduction cell.
fn cell(n: &mut Net, name: &str, from: LayerId, f: u32, stride: u32) -> LayerId {
    // Branch helpers. Every branch normalizes to `f` channels so blocks
    // can be summed.
    let sep = |n: &mut Net, tag: &str, k: u32| -> LayerId {
        n.sep_conv(&format!("{name}_{tag}_sep{k}"), from, f, k, stride)
    };
    let pooled = |n: &mut Net, tag: &str| -> LayerId {
        let p = n.pool(
            &format!("{name}_{tag}_pool"),
            from,
            PoolKind::Max,
            3,
            stride,
            1,
        );
        n.conv(&format!("{name}_{tag}_adj"), p, f, 1, 1, 0)
    };
    let ident = |n: &mut Net, tag: &str| -> LayerId {
        // Identity branch; a 1x1 adjusts channels/stride when needed.
        n.conv(&format!("{name}_{tag}_id"), from, f, 1, stride, 0)
    };

    let b1l = sep(n, "b1l", 5);
    let b1r = pooled(n, "b1r");
    let b1 = n.eltwise(&format!("{name}_b1"), &[b1l, b1r]);

    let b2l = sep(n, "b2l", 7);
    let b2r = pooled(n, "b2r");
    let b2 = n.eltwise(&format!("{name}_b2"), &[b2l, b2r]);

    let b3l = sep(n, "b3l", 5);
    let b3r = sep(n, "b3r", 3);
    let b3 = n.eltwise(&format!("{name}_b3"), &[b3l, b3r]);

    let b4l = sep(n, "b4l", 3);
    let b4r = ident(n, "b4r");
    let b4 = n.eltwise(&format!("{name}_b4"), &[b4l, b4r]);

    let b5l = sep(n, "b5l", 3);
    let b5r = ident(n, "b5r");
    let b5 = n.eltwise(&format!("{name}_b5"), &[b5l, b5r]);

    n.concat(&format!("{name}_cat"), &[b1, b2, b3, b4, b5])
}

/// PNASNet at 224x224: stem + 3 stages of 3 cells (first of each stage is
/// a stride-2 reduction cell), ~2 GMACs.
///
/// ```
/// let d = gemini_model::zoo::pnasnet();
/// assert_eq!(d.name(), "pnas");
/// // Cells concat five branches: wide fan-in is the point.
/// let max_preds = d.ids().map(|i| d.preds(i).len()).max().unwrap();
/// assert!(max_preds >= 4);
/// ```
pub fn pnasnet() -> Dnn {
    let mut n = Net::new("pnas");
    let x = n.input(FmapShape::new(224, 224, 3));
    let stem = n.conv("stem", x, 32, 3, 2, 1); // 112

    let mut cur = stem;
    let stage_filters = [44u32, 88, 176];
    for (si, &f) in stage_filters.iter().enumerate() {
        for ci in 0..3 {
            let stride = if ci == 0 { 2 } else { 1 };
            cur = cell(&mut n, &format!("s{si}c{ci}"), cur, f, stride);
        }
    }
    let gap = n.global_avgpool("gap", cur);
    n.fc("fc", gap, 1000);
    n.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn pnasnet_structure() {
        let d = pnasnet();
        // 9 cells x 5 blocks of eltwise sums.
        let adds = d
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Eltwise { .. }))
            .count();
        assert_eq!(adds, 45);
        let cats = d
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Concat))
            .count();
        assert_eq!(cats, 9);
    }

    #[test]
    fn pnasnet_spatial_reduction() {
        let d = pnasnet();
        let last_cat = d
            .layers()
            .iter()
            .rev()
            .find(|l| matches!(l.kind, LayerKind::Concat))
            .unwrap();
        // 224 / 2 (stem) / 2 / 2 / 2 = 14.
        assert_eq!(last_cat.ofmap.h, 14);
        assert_eq!(last_cat.ofmap.c, 176 * 5);
    }

    #[test]
    fn pnasnet_has_depthwise() {
        let d = pnasnet();
        let dw = d
            .layers()
            .iter()
            .any(|l| matches!(l.kind, LayerKind::Conv(p) if p.groups > 1 && p.groups == p.cin));
        assert!(dw);
    }
}
