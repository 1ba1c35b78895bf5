//! The heuristic stripe-based spatial mapping.
//!
//! This is the "widely adopted heuristic stripe-based strategy" the paper
//! cites from Tangram/ScaleDeep/Atomic-dataflow: each layer receives a
//! number of cores proportional to its FLOPs and is assigned a
//! *consecutive, rectangle-like* run of cores in snake order over the
//! grid, with its feature map striped along H (then W/K/B). All explicit
//! data flows are interleaved across DRAM controllers.
//!
//! It serves two roles (Sec. V-B1): the T-Map baseline, and the initial
//! state of Gemini's simulated annealing.

use gemini_arch::{ArchConfig, CoreId};
use gemini_model::Dnn;

use crate::encoding::{flow_needs, CoreGroup, FlowOfData, GroupSpec, Lms, Ms, Part};
use crate::factor::{largest_factorable, stripe_part_capacity};

/// Snake-order enumeration of all cores: row-major with alternating row
/// direction, so consecutive indices are always grid neighbours.
pub fn snake_order(arch: &ArchConfig) -> Vec<CoreId> {
    let mut out = Vec::with_capacity(arch.n_cores() as usize);
    for y in 0..arch.y_cores() {
        if y % 2 == 0 {
            for x in 0..arch.x_cores() {
                out.push(arch.core_at(x, y));
            }
        } else {
            for x in (0..arch.x_cores()).rev() {
                out.push(arch.core_at(x, y));
            }
        }
    }
    out
}

/// Allocates cores to members proportionally to their MAC counts
/// (largest-remainder rounding, minimum one core each).
///
/// # Panics
///
/// Panics if the group has more members than the accelerator has cores —
/// the graph partitioner guarantees this cannot happen for a batch of at
/// least 1 and options with a non-zero batch unit (see
/// [`crate::partition::partition_graph`]).
pub fn proportional_allocation(dnn: &Dnn, spec: &GroupSpec, n_cores: u32) -> Vec<u32> {
    let n = spec.members.len() as u32;
    assert!(n <= n_cores, "group of {n} layers exceeds {n_cores} cores");
    let weights: Vec<f64> = spec
        .members
        .iter()
        .map(|&id| {
            let l = dnn.layer(id);
            // Vector-only layers still need a core; weight them by their
            // vector work so they are not starved.
            let macs = l.macs(spec.batch_unit) as f64;
            let vec_ops =
                l.ofmap.elems() as f64 * spec.batch_unit as f64 * l.vector_ops_per_out() as f64;
            (macs + vec_ops * 0.05).max(1.0)
        })
        .collect();
    let total: f64 = weights.iter().sum();
    let mut alloc: Vec<u32> = weights
        .iter()
        .map(|w| ((w / total * n_cores as f64).floor() as u32).max(1))
        .collect();
    // Largest-remainder top-up / trim to hit n_cores exactly.
    loop {
        let used: u32 = alloc.iter().sum();
        match used.cmp(&n_cores) {
            std::cmp::Ordering::Equal => break,
            std::cmp::Ordering::Less => {
                // Give the extra core to the most under-served layer.
                let i = (0..alloc.len())
                    .max_by(|&a, &b| {
                        let ra = weights[a] / alloc[a] as f64;
                        let rb = weights[b] / alloc[b] as f64;
                        ra.partial_cmp(&rb).unwrap()
                    })
                    .expect("non-empty group");
                alloc[i] += 1;
            }
            std::cmp::Ordering::Greater => {
                // Take from the most over-served layer with > 1 core.
                let i = (0..alloc.len())
                    .filter(|&i| alloc[i] > 1)
                    .min_by(|&a, &b| {
                        let ra = weights[a] / alloc[a] as f64;
                        let rb = weights[b] / alloc[b] as f64;
                        ra.partial_cmp(&rb).unwrap()
                    })
                    .expect("must be reducible");
                alloc[i] -= 1;
            }
        }
    }
    alloc
}

/// Builds the stripe-heuristic [`Lms`] for one layer group
/// (buffer-capacity-aware, see [`stripe_lms_with`]).
pub fn stripe_lms(dnn: &Dnn, arch: &ArchConfig, spec: &GroupSpec) -> Lms {
    stripe_lms_with(dnn, arch, spec, true)
}

/// Builds a stripe-heuristic [`Lms`], optionally capacity-aware.
///
/// With `capacity_aware = false` this is the *plain* fmap-stripe of the
/// original Tangram figure (pure H/W partitioning; weights duplicated on
/// every core of the layer) — the baseline the paper's Fig. 9 heatmap
/// depicts. With `true` (the default used everywhere else), layers whose
/// weight slice would overflow half the GLB get K-splits first, which is
/// how production stripe mappers behave and makes T-Map a stronger
/// baseline.
pub fn stripe_lms_with(
    dnn: &Dnn,
    arch: &ArchConfig,
    spec: &GroupSpec,
    capacity_aware: bool,
) -> Lms {
    let order = snake_order(arch);
    let alloc = proportional_allocation(dnn, spec, arch.n_cores());
    let mut cursor = 0usize;
    let mut schemes = Vec::with_capacity(spec.members.len());
    for (i, &id) in spec.members.iter().enumerate() {
        let shape = dnn.layer(id).ofmap;
        // Shrink to a factorable core count if needed (leaves the
        // remainder idle, like real stripe mappers do).
        let usable = largest_factorable(alloc[i], shape, spec.batch_unit);
        let part = if capacity_aware {
            stripe_part_capacity(
                usable,
                shape,
                spec.batch_unit,
                dnn.layer(id).weight_bytes(),
                arch.glb_bytes(),
            )
        } else {
            crate::factor::stripe_part(usable, shape, spec.batch_unit)
        }
        .expect("largest_factorable guarantees a valid Part");
        let cg: Vec<CoreId> = order[cursor..cursor + usable as usize].to_vec();
        cursor += alloc[i] as usize;

        let needs = flow_needs(dnn, spec, id);
        let fd = FlowOfData {
            ifm: if needs.explicit_if { 0 } else { -1 },
            wgt: if needs.explicit_wgt { 0 } else { -1 },
            ofm: if needs.explicit_of { 0 } else { -1 },
        };
        schemes.push(Ms {
            part,
            cg: CoreGroup(cg),
            fd,
        });
    }
    Lms { schemes }
}

/// Rung-0 bound-seeded initial scheme: the baseline `Lms` (stripe or
/// hetero-stripe) with every GEMM-shaped member's [`Part`] swapped for
/// the output-channel-major factorization of its core count.
///
/// For GEMM-shaped layers (FC / weight matmul / 1x1 convolution,
/// [`gemini_sim::bound::gemm_shaped`]) that split makes every part need
/// the identical (whole) input — fetched once via the multicast dedup —
/// while weight and output slices are disjoint covers, which is exactly
/// the DRAM-traffic lower bound of [`gemini_sim::bound::group_bound`].
/// Core groups and flow-of-data entries are untouched, so the result
/// validates whenever the baseline does.
pub fn bound_seed_lms(dnn: &Dnn, spec: &GroupSpec, mut base: Lms) -> Lms {
    for (ms, &id) in base.schemes.iter_mut().zip(&spec.members) {
        let l = dnn.layer(id);
        if !gemini_sim::bound::gemm_shaped(l) {
            continue;
        }
        let n = ms.cg.0.len() as u32;
        if let Some(p) = crate::factor::factorizations(n, l.ofmap, spec.batch_unit)
            .into_iter()
            .max_by_key(|p| (p.k, p.b, p.h, p.w))
        {
            ms.part = p;
        }
    }
    base
}

/// Convenience: the default all-interleaved FD for a layer in a group.
pub fn default_fd(dnn: &Dnn, spec: &GroupSpec, id: gemini_model::LayerId) -> FlowOfData {
    let needs = flow_needs(dnn, spec, id);
    FlowOfData {
        ifm: if needs.explicit_if { 0 } else { -1 },
        wgt: if needs.explicit_wgt { 0 } else { -1 },
        ofm: if needs.explicit_of { 0 } else { -1 },
    }
}

/// Returns [`Part::unit`]-style degenerate schemes for tests and
/// fallbacks: every member on one core (round-robin over the grid).
pub fn trivial_lms(dnn: &Dnn, arch: &ArchConfig, spec: &GroupSpec) -> Lms {
    let order = snake_order(arch);
    let schemes = spec
        .members
        .iter()
        .enumerate()
        .map(|(i, &id)| Ms {
            part: Part::unit(),
            cg: CoreGroup(vec![order[i % order.len()]]),
            fd: default_fd(dnn, spec, id),
        })
        .collect();
    Lms { schemes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;
    use gemini_model::{zoo, LayerId};

    #[test]
    fn snake_order_is_adjacent() {
        let arch = presets::g_arch_72();
        let order = snake_order(&arch);
        assert_eq!(order.len(), 36);
        for w in order.windows(2) {
            let a = arch.coord(w[0]);
            let b = arch.coord(w[1]);
            assert_eq!(a.manhattan(&b), 1, "{a} -> {b} not adjacent");
        }
    }

    #[test]
    fn proportional_allocation_sums_to_cores() {
        let dnn = zoo::two_conv_example();
        let spec = GroupSpec {
            members: vec![LayerId(1), LayerId(2)],
            batch_unit: 2,
        };
        let alloc = proportional_allocation(&dnn, &spec, 36);
        assert_eq!(alloc.iter().sum::<u32>(), 36);
        assert!(alloc.iter().all(|&a| a >= 1));
        // conv1 (32->64 ch) has ~2x the MACs of conv2 (64->32 at same
        // spatial size? conv2: 64*32 vs conv1: 32*64 — equal); allow any
        // near-even split.
        let ratio = alloc[0] as f64 / alloc[1] as f64;
        assert!((0.4..2.5).contains(&ratio), "alloc {alloc:?}");
    }

    #[test]
    fn stripe_lms_validates_and_parses() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let spec = GroupSpec {
            members: vec![LayerId(1), LayerId(2)],
            batch_unit: 2,
        };
        let lms = stripe_lms(&dnn, &arch, &spec);
        lms.validate(&dnn, &arch, &spec).unwrap();
        let gm = lms.parse(&dnn, &spec, &|_| gemini_sim::DramSel::Interleaved);
        gm.validate(&dnn).unwrap();
    }

    #[test]
    fn stripe_uses_contiguous_runs() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let spec = GroupSpec {
            members: vec![LayerId(1), LayerId(2)],
            batch_unit: 2,
        };
        let lms = stripe_lms(&dnn, &arch, &spec);
        let order = snake_order(&arch);
        // Layer 1's CG must be a prefix of snake order.
        let cg1 = &lms.schemes[0].cg.0;
        assert_eq!(&order[..cg1.len()], cg1.as_slice());
    }

    #[test]
    fn stripe_on_deep_group_of_resnet() {
        let dnn = zoo::resnet50();
        let arch = presets::g_arch_72();
        // First ~10 computable layers as one group.
        let members: Vec<LayerId> = dnn.compute_ids().take(10).collect();
        let spec = GroupSpec {
            members,
            batch_unit: 1,
        };
        let lms = stripe_lms(&dnn, &arch, &spec);
        lms.validate(&dnn, &arch, &spec).unwrap();
        // All 36 cores allocated (some possibly idle after shrink).
        assert!(lms.total_core_slots() <= 36);
        assert!(lms.total_core_slots() >= 10);
    }

    #[test]
    fn trivial_lms_valid() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let spec = GroupSpec {
            members: vec![LayerId(1), LayerId(2)],
            batch_unit: 1,
        };
        let lms = trivial_lms(&dnn, &arch, &spec);
        lms.validate(&dnn, &arch, &spec).unwrap();
    }
}
