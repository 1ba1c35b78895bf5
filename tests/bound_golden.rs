//! Golden pins of the rung-0 analytic lower bound for every paper
//! workload, on the structural stripe mapping the DSE's bound pass
//! uses. `DnnBound::cycles` and `DnnBound::dram_bytes` are exact
//! integers (no float-order noise), so any drift in the roofline
//! arithmetic, the closed-form DRAM-traffic footprint, the stripe
//! scheme or the DP partitioner shows up as a hard mismatch here — the
//! same way the zoo's golden MAC counts pin the model graphs.

use gemini::core::engine::parse_all;
use gemini::core::partition::partition_graph;
use gemini::core::stripe::stripe_lms;
use gemini::prelude::*;
use gemini::sim::bound::dnn_bound;

/// The bound of the DSE rung-0 pipeline (`dse::stripe_bound`): DP
/// partition, stripe scheme, parse, closed-form bound — no SA anywhere,
/// so the result is a pure function of (workload, architecture, batch).
fn structural_bound(name: &str, batch: u32) -> gemini::sim::bound::DnnBound {
    let dnn = gemini::model::zoo::by_name(name)
        .expect("zoo workload")
        .graph;
    let arch = gemini::arch::presets::g_arch_72();
    let ev = Evaluator::new(&arch);
    let partition = partition_graph(&dnn, &arch, batch, &Default::default());
    let lms: Vec<_> = partition
        .groups
        .iter()
        .map(|g| stripe_lms(&dnn, &arch, g))
        .collect();
    let gms = parse_all(&dnn, &partition, &lms);
    dnn_bound(&ev, &dnn, &gms, batch)
}

#[test]
fn golden_bounds_for_all_paper_workloads() {
    // (zoo name, roofline stage cycles, minimum total DRAM bytes) on
    // G-Arch at batch 8. Regenerate by running this test with
    // `-- --nocapture` after an intentional model change and copying
    // the printed table.
    let golden: &[(&str, u64, u64)] = &[
        ("rn-50", 132_885, 88_933_376),
        ("rnx", 135_127, 106_887_680),
        ("ires", 229_118, 122_586_360),
        ("pnas", 71_403, 159_475_240),
        ("tf", 68_268, 36_175_872),
    ];
    // Print the whole regeneration table before any assertion fires.
    let bounds: Vec<_> = golden
        .iter()
        .map(|&(name, _, _)| (name, structural_bound(name, 8)))
        .collect();
    for (name, b) in &bounds {
        println!(
            "(\"{name}\", {}, {}),  // delay {:.4e} s  energy {:.4e} J",
            b.cycles, b.dram_bytes, b.delay_s, b.energy_j
        );
    }
    for (&(name, cycles, dram_bytes), (_, b)) in golden.iter().zip(&bounds) {
        assert_eq!(b.cycles, cycles, "{name}: roofline cycles drifted");
        assert_eq!(
            b.dram_bytes, dram_bytes,
            "{name}: minimum DRAM bytes drifted"
        );
        // Sanity on the float side without pinning exact bits: positive,
        // finite, and consistent with the pinned integers.
        assert!(b.delay_s > 0.0 && b.delay_s.is_finite(), "{name} delay");
        assert!(b.energy_j > 0.0 && b.energy_j.is_finite(), "{name} energy");
        assert!(!b.groups.is_empty(), "{name} has no groups");
    }
}
