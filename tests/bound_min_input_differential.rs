//! Differential test of the closed-form minimum input footprint.
//!
//! The rung-0 bound charges every DRAM-sourced input
//! `Dnn::min_input_elems * batch unit` bytes. That closed form replaced
//! a sweep that probed `input_need` once per output index along each
//! dimension and merged the per-dimension intervals. The oracle below
//! is that sweep, kept verbatim. Two checks:
//!
//! - the closed form equals the sweep on every compute edge of every
//!   zoo workload, with decode steps at several positions and batch
//!   units 1, 3 and 64;
//! - it equals the sweep on seeded random convolution and pooling
//!   layers, including strides above the kernel and pads at or above
//!   it, where windows leave gaps or fall wholly into padding.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gemini::model::layer::{ConvParams, PoolKind, PoolParams};
use gemini::model::{Dnn, DnnBuilder, FmapShape, LayerKind, BYTES_PER_ELEM};

/// The per-dimension union sweep, verbatim but for its visibility.
mod oracle {
    use gemini::model::{Dnn, LayerId, Range1, Region};

    /// Minimum bytes any part decomposition must read of predecessor
    /// `pred_pos`: a per-dimension union sweep of the `input_need` map.
    ///
    /// `input_need` is a product of per-dimension interval maps, each
    /// depending on exactly one output dimension (injectively across need
    /// dimensions) and monotone in range inclusion. Probing one output
    /// dimension with single indices (others full) therefore yields, for
    /// the need dimension it drives, the exact union of per-index needs —
    /// and for every other need dimension an over-approximation. Taking the
    /// minimum merged measure per need dimension across the four probes
    /// recovers the true per-dimension unions, whose product measures a box
    /// contained in the union of any covering decomposition's needs.
    pub fn union_need_bytes(dnn: &Dnn, layer: LayerId, pred_pos: usize, extents: [u32; 4]) -> u64 {
        let mut best = [u64::MAX; 4];
        for probe in 0..4 {
            let mut per_dim: [Vec<(u32, u32)>; 4] = Default::default();
            for i in 0..extents[probe] {
                let out = probe_region(extents, probe, i);
                let need = dnn.input_need(layer, pred_pos, &out);
                for (d, r) in [need.h, need.w, need.k, need.b].into_iter().enumerate() {
                    if !r.is_empty() {
                        per_dim[d].push((r.start, r.end));
                    }
                }
            }
            for d in 0..4 {
                best[d] = best[d].min(merged_measure(&mut per_dim[d]));
            }
        }
        best.iter().product::<u64>() * gemini_model::BYTES_PER_ELEM
    }

    /// Output region probing dimension `probe` at single index `i`, all
    /// other dimensions full.
    fn probe_region(extents: [u32; 4], probe: usize, i: u32) -> Region {
        let r = |d: usize| {
            if d == probe {
                Range1::new(i, i + 1)
            } else {
                Range1::full(extents[d])
            }
        };
        Region::new(r(0), r(1), r(2), r(3))
    }

    /// Total measure of a union of 1-D intervals.
    pub fn merged_measure(ivs: &mut [(u32, u32)]) -> u64 {
        if ivs.is_empty() {
            return 0;
        }
        ivs.sort_unstable();
        let mut total = 0u64;
        let (mut cs, mut ce) = ivs[0];
        for &(s, e) in ivs[1..].iter() {
            if s > ce {
                total += (ce - cs) as u64;
                cs = s;
                ce = e;
            } else if e > ce {
                ce = e;
            }
        }
        total += (ce - cs) as u64;
        total
    }
}

const BATCH_UNITS: [u32; 3] = [1, 3, 64];

/// Asserts the closed form equals the sweep on every compute edge of
/// `dnn` at every batch unit; returns the number of edges checked.
fn assert_matches_sweep(dnn: &Dnn, context: &str) -> usize {
    let mut edges = 0;
    for id in dnn.compute_ids() {
        let layer = dnn.layer(id);
        let o = layer.ofmap;
        for p in 0..dnn.preds(id).len() {
            let per_sample = dnn.min_input_elems(id, p);
            for bu in BATCH_UNITS {
                let want = oracle::union_need_bytes(dnn, id, p, [o.h, o.w, o.c, bu]);
                assert_eq!(
                    per_sample * bu as u64 * BYTES_PER_ELEM,
                    want,
                    "{context}: layer {} ({:?}) input {p} at batch unit {bu}",
                    layer.name,
                    layer.kind,
                );
            }
            edges += 1;
        }
    }
    edges
}

#[test]
fn oracle_merges_overlaps_and_keeps_gaps() {
    assert_eq!(oracle::merged_measure(&mut []), 0);
    assert_eq!(oracle::merged_measure(&mut [(0, 4), (2, 6)]), 6);
    assert_eq!(oracle::merged_measure(&mut [(4, 6), (0, 2)]), 4);
    assert_eq!(oracle::merged_measure(&mut [(0, 8), (2, 3)]), 8);
}

#[test]
fn closed_form_matches_the_sweep_on_every_zoo_edge() {
    let names = [
        "rn-50",
        "rnx",
        "ires",
        "pnas",
        "tf",
        "tf-large",
        "gn",
        "dn-121",
        "mbv2",
        "vgg",
        "effnet",
        "bert",
        "two-conv",
        "tiny-resnet",
        "gpt2-decode@1",
        "gpt2-decode@512",
        "decode-tiny@1",
        "decode-tiny@64",
        "decode-tiny@2048",
    ];
    let mut edges = 0;
    for name in names {
        let dnn = gemini::model::zoo::by_name(name)
            .expect("zoo workload")
            .graph;
        edges += assert_matches_sweep(&dnn, name);
    }
    assert!(edges > 2000, "only {edges} edges checked");
}

#[test]
fn closed_form_matches_the_sweep_on_random_windowed_layers() {
    let mut rng = StdRng::seed_from_u64(0x00b0_0d5e);
    let (mut gapped, mut all_pad) = (0, 0);
    for case in 0..1500 {
        let kernel = (rng.gen_range(1..=7u32), rng.gen_range(1..=7u32));
        let stride = (rng.gen_range(1..=9u32), rng.gen_range(1..=9u32));
        let pad = (rng.gen_range(0..=9u32), rng.gen_range(0..=9u32));
        let (h, w) = (rng.gen_range(1..=40u32), rng.gen_range(1..=40u32));
        let groups = rng.gen_range(1..=3u32);
        let cin = groups * rng.gen_range(1..=3u32);
        let mut b = DnnBuilder::new(format!("case-{case}"));
        let x = b.input(FmapShape::new(h, w, cin));
        // Pooling shares the convolution's output arithmetic.
        let (oh, ow) = ConvParams::dense(kernel, stride, pad, cin).out_dim(h, w);
        let (kind, cout) = if rng.gen_bool(0.5) {
            let conv = ConvParams {
                kernel,
                stride,
                pad,
                groups,
                cin,
            };
            (LayerKind::Conv(conv), groups * rng.gen_range(1..=3u32))
        } else {
            let pool = PoolParams {
                kernel,
                stride,
                pad,
                kind: PoolKind::Max,
            };
            (LayerKind::Pool(pool), cin)
        };
        let context = format!("case {case}: {kind:?} on {h}x{w}x{cin}, out {oh}x{ow}x{cout}");
        b.add("win", kind, FmapShape::new(oh, ow, cout), &[x])
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_matches_sweep(&b.build(), &context);
        gapped += usize::from(stride.0 > kernel.0 || stride.1 > kernel.1);
        all_pad += usize::from(pad.0 >= kernel.0 || pad.1 >= kernel.1);
    }
    assert!(gapped > 500, "only {gapped} cases with stride > kernel");
    assert!(all_pad > 500, "only {all_pad} cases with pad >= kernel");
}
