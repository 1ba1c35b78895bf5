//! Reachability and safety of the five SA operators (Sec. V-B1).
//!
//! The paper argues (via its anonymized proof link) that OP1..OP5
//! together let the annealer reach *any* point of the LP-SPM space from
//! any other. These tests check the constructive ingredients of that
//! argument on small instances — each attribute's full range is visited
//! by its operator — plus the safety half: no operator sequence ever
//! leaves the space of valid encodings.

use rand::rngs::StdRng;
use rand::SeedableRng;

use gemini::core::encoding::{CoreGroup, FlowOfData, GroupSpec, Lms, Ms, Part};
use gemini::core::partition::{partition_graph, PartitionOptions};
use gemini::core::sa::apply_op_traced;
use gemini::core::stripe::stripe_lms;
use gemini::prelude::*;
use gemini_arch::CoreId;
use gemini_model::LayerId;

fn small_arch() -> ArchConfig {
    ArchConfig::builder()
        .cores(3, 2)
        .cuts(1, 1)
        .dram_count(2)
        .build()
        .unwrap()
}

/// A two-layer group on the 6-core fabric with 3 + 2 cores.
fn two_layer_state() -> (gemini::model::Dnn, ArchConfig, GroupSpec, Lms) {
    let dnn = gemini::model::zoo::two_conv_example();
    let arch = small_arch();
    let spec = GroupSpec {
        members: vec![LayerId(1), LayerId(2)],
        batch_unit: 2,
    };
    let lms = Lms {
        schemes: vec![
            Ms {
                part: Part {
                    h: 1,
                    w: 1,
                    b: 1,
                    k: 3,
                },
                cg: CoreGroup(vec![CoreId(0), CoreId(1), CoreId(2)]),
                fd: FlowOfData {
                    ifm: 0,
                    wgt: 0,
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
                cg: CoreGroup(vec![CoreId(3), CoreId(4)]),
                fd: FlowOfData {
                    ifm: -1,
                    wgt: 0,
                    ofm: 0,
                },
            },
        ],
    };
    lms.validate(&dnn, &arch, &spec).unwrap();
    (dnn, arch, spec, lms)
}

#[test]
fn op2_visits_every_permutation_of_a_core_group() {
    // OP2 swaps arbitrary pairs, which generate the symmetric group:
    // all 3! = 6 orderings of layer 1's CG must appear.
    let (dnn, arch, spec, mut lms) = two_layer_state();
    let mut rng = StdRng::seed_from_u64(42);
    let mut seen = std::collections::HashSet::new();
    seen.insert(lms.schemes[0].cg.0.clone());
    for _ in 0..400 {
        apply_op_traced(1, &dnn, &arch, &spec, &mut lms, &mut rng);
        seen.insert(lms.schemes[0].cg.0.clone());
    }
    // OP2 may also hit layer 2; count only layer-1 orderings of the
    // original 3-core set.
    let perms: Vec<_> = seen
        .iter()
        .filter(|cg| cg.len() == 3 && cg.iter().all(|c| c.idx() < 3))
        .collect();
    assert_eq!(
        perms.len(),
        6,
        "all 6 orderings must be reachable, got {perms:?}"
    );
}

#[test]
fn op4_visits_every_core_split() {
    // Moving cores one at a time must realize every split (a, 5 - a)
    // of the five cores between the two layers, a in 1..=4 — the
    // paper's own worked example of operator completeness.
    let (dnn, arch, spec, mut lms) = two_layer_state();
    let mut rng = StdRng::seed_from_u64(7);
    let mut sizes = std::collections::HashSet::new();
    sizes.insert(lms.schemes[0].cg.len());
    for _ in 0..600 {
        apply_op_traced(3, &dnn, &arch, &spec, &mut lms, &mut rng);
        sizes.insert(lms.schemes[0].cg.len());
        lms.validate(&dnn, &arch, &spec)
            .expect("OP4 broke the encoding");
    }
    for a in 1..=4usize {
        assert!(
            sizes.contains(&a),
            "split ({a}, {}) never reached: {sizes:?}",
            5 - a
        );
    }
}

#[test]
fn op5_visits_every_dram_choice() {
    // Every explicit FD slot must range over 0..=D (interleaved plus
    // each DRAM).
    let (dnn, arch, spec, mut lms) = two_layer_state();
    let mut rng = StdRng::seed_from_u64(11);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..300 {
        apply_op_traced(4, &dnn, &arch, &spec, &mut lms, &mut rng);
        seen.insert(lms.schemes[0].fd.wgt);
        lms.validate(&dnn, &arch, &spec)
            .expect("OP5 broke the encoding");
    }
    for v in 0..=arch.dram_count() as i32 {
        assert!(seen.contains(&v), "FD value {v} never drawn: {seen:?}");
    }
}

#[test]
fn op1_visits_every_valid_part_for_fixed_cg() {
    // For layer 2 with 2 cores, the valid Parts with count 2 are
    // (2,1,1,1), (1,2,1,1), (1,1,2,1), (1,1,1,2): OP1 must reach all.
    let (dnn, arch, spec, mut lms) = two_layer_state();
    let mut rng = StdRng::seed_from_u64(23);
    let mut seen = std::collections::HashSet::new();
    seen.insert(lms.schemes[1].part);
    for _ in 0..400 {
        apply_op_traced(0, &dnn, &arch, &spec, &mut lms, &mut rng);
        seen.insert(lms.schemes[1].part);
        lms.validate(&dnn, &arch, &spec)
            .expect("OP1 broke the encoding");
    }
    let layer2_parts: Vec<Part> = seen.iter().copied().filter(|p| p.count() == 2).collect();
    assert!(
        layer2_parts.len() >= 4,
        "expected all four axis-splits of 2 cores, got {layer2_parts:?}"
    );
}

#[test]
fn random_operator_sequences_preserve_validity_on_real_models() {
    // The safety half of the reachability argument: arbitrary operator
    // sequences never leave the encoding space, on groups produced by
    // the real partitioner for a real model.
    let dnn = gemini::model::zoo::tiny_resnet();
    let arch = gemini::arch::presets::g_arch_72();
    let partition = partition_graph(&dnn, &arch, 8, &PartitionOptions::default());
    let mut rng = StdRng::seed_from_u64(99);
    for (gi, spec) in partition.groups.iter().enumerate() {
        let mut lms = stripe_lms(&dnn, &arch, spec);
        for step in 0..300 {
            let op = step % 5;
            apply_op_traced(op, &dnn, &arch, spec, &mut lms, &mut rng);
            lms.validate(&dnn, &arch, spec).unwrap_or_else(|e| {
                panic!(
                    "group {gi}: OP{} broke invariants at step {step}: {e}",
                    op + 1
                )
            });
        }
    }
}

#[test]
fn structural_ops_fail_safely_on_degenerate_groups() {
    // Single-layer groups have no partner for OP3/OP4; single-core CGs
    // have nothing to swap for OP2. The operators must refuse without
    // corrupting the scheme.
    let dnn = gemini::model::zoo::two_conv_example();
    let arch = small_arch();
    let spec = GroupSpec {
        members: vec![LayerId(1)],
        batch_unit: 1,
    };
    let lms0 = Lms {
        schemes: vec![Ms {
            part: Part::unit(),
            cg: CoreGroup(vec![CoreId(0)]),
            fd: FlowOfData {
                ifm: 0,
                wgt: 0,
                ofm: 0,
            },
        }],
    };
    lms0.validate(&dnn, &arch, &spec).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    for op in [1usize, 2, 3] {
        let mut lms = lms0.clone();
        let applied = apply_op_traced(op, &dnn, &arch, &spec, &mut lms, &mut rng).is_some();
        assert!(!applied, "OP{} must fail on a degenerate group", op + 1);
        assert_eq!(lms, lms0, "failed op must not mutate the scheme");
    }
}
