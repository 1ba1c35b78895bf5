//! Differential tests of the annealer's shared start evaluations.
//!
//! * `sa::optimize` evaluates its start cold once per structurally
//!   distinct group. A group that `GroupMapping::evaluates_like` one
//!   built before it (the same batch unit, parts and flow selectors over
//!   `Dnn::alike` layers) takes a twin of that group's state
//!   (`GroupEvalState::twin`).
//! * A member that `GroupEvalState::propose` re-simulates keeps the
//!   compute and weight-load halves of its committed record whose inputs
//!   are unchanged.
//!
//! The oracle is the cold `Evaluator::evaluate_group`.

use gemini::arch::{presets, ArchConfig, CoreClass, HeteroSpec};
use gemini::core::encoding::Lms;
use gemini::core::engine::parse_all;
use gemini::core::partition::{partition_graph, PartitionOptions};
use gemini::core::sa::{optimize, SaOptions};
use gemini::core::stripe::stripe_lms;
use gemini::model::{
    zoo, ConvParams, Dnn, DnnBuilder, FmapShape, LayerId, LayerKind, PoolKind, PoolParams, Region,
};
use gemini::sim::{DramSel, Evaluator, GroupEvalState, GroupMapping, LayerAssignment, PredSrc};

#[test]
fn alike_layers_pose_the_same_work_whatever_their_names() {
    let conv = |cin| LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), cin));
    let pool = |k| {
        LayerKind::Pool(PoolParams {
            kernel: (k, k),
            stride: (k, k),
            pad: (0, 0),
            kind: PoolKind::Avg,
        })
    };
    let mut b = DnnBuilder::new("alike");
    let x = b.input(FmapShape::new(8, 8, 16));
    let c32 = b
        .add("c32", conv(16), FmapShape::new(8, 8, 32), &[x])
        .unwrap();
    let c32b = b
        .add("c32b", conv(16), FmapShape::new(8, 8, 32), &[x])
        .unwrap();
    let c64 = b
        .add("c64", conv(16), FmapShape::new(8, 8, 64), &[x])
        .unwrap();
    let cat = FmapShape::new(8, 8, 96);
    let cat_32_64 = b.add("cat1", LayerKind::Concat, cat, &[c32, c64]).unwrap();
    let cat_64_32 = b.add("cat2", LayerKind::Concat, cat, &[c64, c32]).unwrap();
    // Two FCs over 64 elements: one reads a 1x1x64 map, one a 2x2x16.
    let flat = b
        .add("flat", pool(8), FmapShape::new(1, 1, 64), &[c64])
        .unwrap();
    let quad = b
        .add("quad", pool(4), FmapShape::new(2, 2, 16), &[x])
        .unwrap();
    let fc = LayerKind::Fc { cin: 64 };
    let fc_flat = b
        .add("fc1", fc.clone(), FmapShape::new(1, 1, 10), &[flat])
        .unwrap();
    let fc_quad = b.add("fc2", fc, FmapShape::new(1, 1, 10), &[quad]).unwrap();
    let dnn = b.build();

    assert!(dnn.alike(c32, &dnn, c32b), "names are ignored");
    assert!(!dnn.alike(c32, &dnn, c64), "output shapes differ");
    assert!(
        !dnn.alike(cat_32_64, &dnn, cat_64_32),
        "a (32 + 64)-channel concat is not a (64 + 32)-channel one"
    );
    assert!(
        !dnn.alike(fc_flat, &dnn, fc_quad),
        "same kind and output, but the predecessors' shapes differ"
    );

    // Across graphs: a decode step's projection is alike at every
    // position; its attention scores are not.
    let at = |pos| zoo::by_name(&format!("decode-tiny@{pos}")).unwrap().graph;
    let (p64, p65) = (at(64), at(65));
    let alike_ids: Vec<bool> = p64.ids().map(|id| p64.alike(id, &p65, id)).collect();
    assert!(alike_ids.contains(&true) && alike_ids.contains(&false));
}

/// A big/little chiplet assignment on a 6x6 mesh.
fn hetero() -> Evaluator {
    let arch = ArchConfig::builder()
        .cores(6, 6)
        .cuts(2, 1)
        .build()
        .expect("valid arch");
    let spec = HeteroSpec::new(
        vec![
            CoreClass {
                macs: 2048,
                glb_bytes: 2 << 20,
            },
            CoreClass {
                macs: 512,
                glb_bytes: 1 << 20,
            },
        ],
        vec![0, 1],
        &arch,
    )
    .expect("valid hetero spec");
    Evaluator::hetero(&arch, &spec)
}

#[test]
fn twin_start_states_equal_their_cold_evaluations() {
    let evaluators = [
        ("g-arch", Evaluator::new(&presets::g_arch_72())),
        ("t-arch", Evaluator::new(&presets::t_arch())),
        ("hetero", hetero()),
    ];
    for (name, batch) in [
        ("gpt2-decode@128", 1),
        ("bert", 8),
        ("tf", 8),
        ("decode-tiny@64", 2),
    ] {
        let dnn = zoo::by_name(name).expect("zoo workload").graph;
        for (arch_name, ev) in &evaluators {
            let what = format!("{name} on {arch_name} at batch {batch}");
            let arch = ev.arch();
            let partition = partition_graph(&dnn, arch, batch, &PartitionOptions::default());
            let init: Vec<Lms> = partition
                .groups
                .iter()
                .map(|g| stripe_lms(&dnn, arch, g))
                .collect();
            let gms = parse_all(&dnn, &partition, &init);
            let opts = SaOptions {
                iters: 0,
                threads: 1,
                ..Default::default()
            };
            let out = optimize(&dnn, ev, &partition, init, batch, &opts);
            assert_eq!(out.init_reports.len(), gms.len(), "{what}");
            for (g, (report, gm)) in out.init_reports.iter().zip(&gms).enumerate() {
                let cold = ev.evaluate_group(&dnn, gm, batch);
                assert!(
                    report.bit_identical(&cold),
                    "{what}: group {g} differs from its cold evaluation"
                );
            }
            let (distinct, groups) = (out.stats.start_evals, gms.len() as u64);
            assert!((1..=groups).contains(&distinct), "{what}: {distinct}");
            if name == "gpt2-decode@128" {
                assert!(
                    distinct * 4 < groups,
                    "{what}: {distinct} cold builds for {groups} groups"
                );
            }
        }
    }
}

/// two-conv at batch unit 1, with conv1 on one core and conv2 on
/// another. On a 32 KiB GLB conv2's working set overflows with its
/// 18 KiB weight slice and fits without it.
fn two_members(arch: &ArchConfig, dnn: &Dnn) -> GroupMapping {
    let (conv1, conv2) = (LayerId(1), LayerId(2));
    GroupMapping {
        members: vec![
            LayerAssignment {
                layer: conv1,
                parts: vec![(arch.core_at(0, 0), Region::full(dnn.layer(conv1).ofmap, 1))],
                pred_srcs: vec![PredSrc::Dram(DramSel::Specific(0))],
                wgt_src: Some(DramSel::Specific(0)),
                of_dst: None,
            },
            LayerAssignment {
                layer: conv2,
                parts: vec![(arch.core_at(1, 0), Region::full(dnn.layer(conv2).ofmap, 1))],
                pred_srcs: vec![PredSrc::InGroup { member_idx: 0 }],
                wgt_src: Some(DramSel::Specific(0)),
                of_dst: Some(DramSel::Specific(1)),
            },
        ],
        batch_unit: 1,
    }
}

#[test]
fn a_resimulated_member_keeps_only_the_halves_its_change_leaves_alone() {
    let dnn = zoo::two_conv_example();
    let arch = ArchConfig::builder()
        .cores(4, 4)
        .cuts(2, 2)
        .glb_kb(32)
        .build()
        .expect("valid arch");
    let ev = Evaluator::new(&arch);
    let base = two_members(&arch, &dnn);
    let base_report = ev.evaluate_group(&dnn, &base, 4);
    // conv2's new weight source: none (its compute half must be rebuilt
    // without the weight slice), another DRAM and every DRAM (its
    // weight-load half must be rebuilt). An output-selector change keeps
    // both halves.
    let changes = [
        (None, Some(DramSel::Specific(1))),
        (Some(DramSel::Specific(1)), Some(DramSel::Specific(1))),
        (Some(DramSel::Interleaved), Some(DramSel::Specific(1))),
        (Some(DramSel::Specific(0)), Some(DramSel::Specific(0))),
    ];
    for (wgt_src, of_dst) in changes {
        let mut gm = base.clone();
        gm.members[1].wgt_src = wgt_src;
        gm.members[1].of_dst = of_dst;
        let cold = ev.evaluate_group(&dnn, &gm, 4);
        assert!(
            !cold.bit_identical(&base_report),
            "{wgt_src:?}/{of_dst:?} must change the evaluation"
        );
        // The delta path (conv2 alone) and the full path.
        for dirty in [Some(&[1][..]), None] {
            let mut st = GroupEvalState::new(&ev, &dnn, base.clone(), 4);
            assert!(
                st.propose(&ev, &dnn, &gm, dirty).bit_identical(&cold),
                "{wgt_src:?}/{of_dst:?} with footprint {dirty:?} differs from cold"
            );
        }
    }
}

#[test]
fn a_twin_needs_the_same_depth_too() {
    // `b` reads `a` inside the first group; `d` reads `a` from outside
    // the second. Hand-built with the same DRAM source for both, the
    // mappings evaluate alike member by member, but the first pipelines
    // two deep and the second one deep.
    let conv = |cin| LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), cin));
    let mut net = DnnBuilder::new("depths");
    let x = net.input(FmapShape::new(8, 8, 16));
    let shape = FmapShape::new(8, 8, 16);
    let a = net.add("a", conv(16), shape, &[x]).unwrap();
    let b = net.add("b", conv(16), shape, &[a]).unwrap();
    let c = net.add("c", conv(16), shape, &[x]).unwrap();
    let d = net.add("d", conv(16), shape, &[a]).unwrap();
    let dnn = net.build();
    let arch = presets::g_arch_72();
    let ev = Evaluator::new(&arch);
    let group = |first: LayerId, second: LayerId| GroupMapping {
        members: [(first, 0), (second, 1)]
            .into_iter()
            .map(|(layer, x)| LayerAssignment {
                layer,
                parts: vec![(arch.core_at(x, 0), Region::full(shape, 1))],
                pred_srcs: vec![PredSrc::Dram(DramSel::Specific(0))],
                wgt_src: Some(DramSel::Specific(0)),
                of_dst: Some(DramSel::Specific(1)),
            })
            .collect(),
        batch_unit: 1,
    };
    let (chained, apart) = (group(a, b), group(c, d));
    assert!(chained.evaluates_like(&dnn, &apart));
    assert_eq!((chained.depth(&dnn), apart.depth(&dnn)), (2, 1));
    let st = GroupEvalState::new(&ev, &dnn, chained, 4);
    assert!(st.twin(&ev, &dnn, &apart).is_none());
    let same = group(a, b);
    let twin = st
        .twin(&ev, &dnn, &same)
        .expect("a mapping is its own twin");
    assert!(twin
        .report()
        .bit_identical(&ev.evaluate_group(&dnn, &same, 4)));
}
