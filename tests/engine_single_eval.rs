//! Differential test of the mapping engine's single cold evaluation.
//!
//! `MappingEngine::map` evaluates each mapping cold once: the annealer
//! builds the start's group states, its final pass re-simulates only the
//! members SA changed, and the engine sums those group reports instead
//! of evaluating again. The T-Map the `map` verb prints is that start.
//! The oracle here is the cold path, `MappingEngine::evaluate` and
//! `MappingEngine::map_stripe`:
//!
//! * the G-Map's report equals `evaluate` of its own schemes, per group
//!   by `GroupReport::bit_identical` and on the DNN delay and energy by
//!   `to_bits`;
//! * the start's report equals `map_stripe`'s, bit for bit.
//!
//! Cases are drawn by a seeded generator over workloads, architectures
//! (a mesh, a chiplet-per-core mesh, a folded torus and a GLB small
//! enough that spills fire), batches, SA budgets and seeds. A pinned
//! case covers the annealer's other exit, where the recombined per-group
//! winners score worse than the start and the start is returned.

use gemini::arch::{presets, ArchConfig, CoreClass, HeteroSpec};
use gemini::core::engine::{MappedDnn, MappingEngine, MappingOptions};
use gemini::core::sa::SaOptions;
use gemini::model::{zoo, Dnn};
use gemini::sim::{DnnReport, Evaluator};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn workload(name: &str) -> Dnn {
    zoo::by_name(name).expect("zoo workload").graph
}

/// The architectures cases run on; the last one's 16 KiB GLB makes
/// working sets overflow, so its folds add spill traffic.
fn arches() -> Vec<(&'static str, ArchConfig)> {
    let small_glb = ArchConfig::builder()
        .cores(4, 4)
        .cuts(2, 2)
        .glb_kb(16)
        .build()
        .expect("valid arch");
    vec![
        ("g-arch", presets::g_arch_72()),
        ("s-arch", presets::simba_s_arch()),
        ("t-arch", presets::t_arch()),
        ("small-glb", small_glb),
    ]
}

fn opts(iters: u32, seed: u64) -> MappingOptions {
    MappingOptions {
        sa: SaOptions {
            iters,
            seed,
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn assert_same_report(what: &str, got: &DnnReport, cold: &DnnReport) {
    assert_eq!(got.groups.len(), cold.groups.len(), "{what}: group count");
    for (i, (a, b)) in got.groups.iter().zip(&cold.groups).enumerate() {
        assert!(
            a.bit_identical(b),
            "{what}: group {i} differs from the cold evaluation"
        );
    }
    assert_eq!(
        got.delay_s.to_bits(),
        cold.delay_s.to_bits(),
        "{what}: delay"
    );
    let bits = |r: &DnnReport| {
        let e = &r.energy;
        [e.mac, e.vector, e.glb, e.noc, e.d2d, e.dram, e.total()].map(f64::to_bits)
    };
    assert_eq!(bits(got), bits(cold), "{what}: energy");
}

/// Maps once and checks both reports against the cold path; returns the
/// G-Map and the T-Map for case-specific checks.
fn check(
    what: &str,
    engine: &MappingEngine<'_>,
    dnn: &Dnn,
    batch: u32,
    o: &MappingOptions,
) -> (MappedDnn, MappedDnn) {
    let (g, start) = engine.map_with_start(dnn, batch, o);
    let cold = engine.evaluate(dnn, &g.partition, &g.lms, batch);
    assert_same_report(&format!("{what}: G-Map"), &g.report, &cold);
    let t = engine.map_stripe(dnn, batch, o);
    assert_eq!(t.partition, g.partition, "{what}: one partition");
    assert_same_report(&format!("{what}: start vs T-Map"), &start, &t.report);
    (g, t)
}

#[test]
fn gmap_and_start_reports_equal_the_cold_evaluation() {
    let names = ["two-conv", "tiny-resnet", "decode-tiny@64", "gn"];
    let arches = arches();
    let mut rng = 0x5EED_C01D_u64;
    let mut spilled = false;
    let mut moved = false;
    for name in names {
        let dnn = workload(name);
        for (arch_name, arch) in &arches {
            let ev = Evaluator::new(arch);
            let engine = MappingEngine::new(&ev);
            // Every (batch, iters) pair once per workload and arch, each
            // under its own drawn seed; gn skips the largest budget at
            // batch 4 so the file stays fast in debug builds.
            for batch in [1, 4] {
                for iters in [0, 40, 200] {
                    if iters == 200 && name == "gn" && batch == 4 {
                        continue;
                    }
                    let seed = splitmix64(&mut rng);
                    let what =
                        format!("{name} on {arch_name}, batch {batch}, SA {iters}, seed {seed}");
                    let (g, t) = check(&what, &engine, &dnn, batch, &opts(iters, seed));
                    if iters == 0 {
                        assert_eq!(g.lms, t.lms, "{what}: no budget keeps the start");
                    }
                    moved |= g.lms != t.lms;
                    spilled |= *arch_name == "small-glb"
                        && g.report.groups.iter().any(|r| !r.weights_resident);
                }
            }
        }
    }
    assert!(spilled, "the small-GLB arch must make some group spill");
    assert!(moved, "some case must return annealed schemes");
}

#[test]
fn map_returns_the_mapping_map_with_start_returns() {
    let dnn = workload("tiny-resnet");
    let arch = presets::g_arch_72();
    let ev = Evaluator::new(&arch);
    let engine = MappingEngine::new(&ev);
    let o = opts(120, 3);
    let m = engine.map(&dnn, 4, &o);
    let (g, _) = engine.map_with_start(&dnn, 4, &o);
    assert_eq!(m.lms, g.lms);
    assert_same_report("map vs map_with_start", &m.report, &g.report);
    let cold = engine.evaluate(&dnn, &m.partition, &m.lms, 4);
    assert_same_report("map", &m.report, &cold);
}

#[test]
fn hetero_gmap_report_equals_the_cold_evaluation() {
    let dnn = workload("tiny-resnet");
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
    let ev = Evaluator::hetero(&arch, &spec);
    let engine = MappingEngine::new(&ev);
    for (batch, iters, seed) in [(1, 0, 5), (4, 40, 6), (4, 200, 7)] {
        let m = engine.map_hetero(&dnn, batch, &opts(iters, seed), &spec);
        let cold = engine.evaluate(&dnn, &m.partition, &m.lms, batch);
        let what = format!("hetero tiny-resnet, batch {batch}, SA {iters}, seed {seed}");
        assert_same_report(&what, &m.report, &cold);
    }
}

/// The annealer's other exit: a case where the recombined chain winners
/// score worse than the start, so `optimize` returns the start. Each
/// chain scores its moves against the other groups' initial schemes, so
/// a producer's new flow-of-data (OF) choice and a consumer's new scheme
/// are never judged together. With one layer per group and only OP5
/// (the FD operator) enabled, every move is such a choice. A scan over
/// seeds, with a build that reported which exit each run took, found
/// this seed (recombined cost 1.00023× the start's). No run of that scan
/// with all five operators enabled took this exit, so the generated
/// cases above cover only the other one.
#[test]
fn a_recombination_worse_than_the_start_returns_the_start() {
    let dnn = workload("gn");
    let arch = presets::g_arch_72();
    let ev = Evaluator::new(&arch);
    let engine = MappingEngine::new(&ev);
    let mut o = opts(200, 953);
    o.sa.enabled_ops = [false, false, false, false, true];
    o.partition.max_group_layers = 1;
    let (g, t) = check("fallback case", &engine, &dnn, 1, &o);
    let stats = g.sa_stats.expect("G-Map stats");
    assert!(stats.improved > 0, "the chains found improving moves");
    assert_eq!(g.lms, t.lms, "the start is returned");
    assert_eq!(stats.final_cost.to_bits(), stats.init_cost.to_bits());
}
