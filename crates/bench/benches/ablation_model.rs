//! Evaluator-mechanism ablation (the Sec. V-B2 row of
//! `docs/CONCORDANCE.md`).
//!
//! The evaluator stacks several mechanisms on top of the per-link
//! bottleneck time: a congestion surcharge, a GLB working-set spill
//! model, multicast trees, pipeline overheads, and a volume-based (GRS)
//! D2D energy model. Each exists to make some paper trade-off real.
//! This harness quantifies them two ways:
//!
//! 1. **Model effect** — evaluate one fixed stripe mapping under each
//!    ablated evaluator: how much delay/energy does the mechanism
//!    account for?
//! 2. **Guidance effect** — anneal under the ablated evaluator, then
//!    re-evaluate the found mapping under the *full* evaluator: does
//!    removing the mechanism mislead the mapper into worse schemes?
//!
//! Writes `bench_results/ablation_model.csv`.

use gemini_arch::presets;
use gemini_bench::{banner, mapping_opts, results_dir, sa_iters, sig6, write_csv};
use gemini_core::engine::{MappingEngine, MappingOptions};
use gemini_model::zoo;
use gemini_sim::{D2dEnergyModel, EnergyModel, EvalOptions, Evaluator};

struct Variant {
    name: &'static str,
    opts: EvalOptions,
    energy: EnergyModel,
}

fn variants() -> Vec<Variant> {
    let base_opts = EvalOptions::default();
    let base_energy = EnergyModel::default();
    let mut serdes = base_energy;
    serdes.d2d_model = D2dEnergyModel::SerdesPower {
        watts_per_interface: 0.05,
    };
    vec![
        Variant {
            name: "full model",
            opts: base_opts,
            energy: base_energy,
        },
        Variant {
            name: "no congestion",
            opts: EvalOptions {
                congestion_weight: 0.0,
                ..base_opts
            },
            energy: base_energy,
        },
        Variant {
            name: "no GLB spill",
            opts: EvalOptions {
                spill_enabled: false,
                ..base_opts
            },
            energy: base_energy,
        },
        Variant {
            name: "unicast only",
            opts: EvalOptions {
                multicast_enabled: false,
                ..base_opts
            },
            energy: base_energy,
        },
        Variant {
            name: "no overheads",
            opts: EvalOptions {
                stage_overhead_s: 0.0,
                group_overhead_s: 0.0,
                ..base_opts
            },
            energy: base_energy,
        },
        Variant {
            name: "SerDes D2D",
            opts: base_opts,
            energy: serdes,
        },
    ]
}

fn main() {
    banner("Evaluator-mechanism ablation (72-TOPs G-Arch)");
    let arch = presets::g_arch_72();
    let batch = 8;
    let iters = sa_iters(500, 3000);
    let dnns = [
        ("tiny-resnet", zoo::tiny_resnet()),
        ("transformer", zoo::transformer_base()),
    ];
    let mut rows = Vec::new();

    // --- 1. Model effect on a fixed stripe mapping -------------------
    println!(
        "\n{:<14} {:<16} {:>12} {:>12} {:>10}",
        "dnn", "variant", "delay (s)", "energy (J)", "EDP/full"
    );
    for (name, dnn) in &dnns {
        let mut base_edp = 0.0;
        for v in variants() {
            let ev = Evaluator::with_options(&arch, v.energy, v.opts);
            let engine = MappingEngine::new(&ev);
            let m = engine.map_stripe(dnn, batch, &MappingOptions::default());
            let r = &m.report;
            if v.name == "full model" {
                base_edp = r.edp();
            }
            println!(
                "{:<14} {:<16} {:>12.4e} {:>12.4e} {:>9.3}x",
                name,
                v.name,
                r.delay_s,
                r.energy.total(),
                r.edp() / base_edp
            );
            rows.push(format!(
                "model-effect,{},{},{},{},{}",
                name,
                v.name,
                sig6(r.delay_s),
                sig6(r.energy.total()),
                sig6(r.edp() / base_edp)
            ));
        }
        println!();
    }
    println!("reading: removing a mechanism (congestion, overheads) lowers modeled");
    println!("cost by its share; substituting a costlier one (per-destination");
    println!("unicast, always-on SerDes D2D) shows what multicast trees and GRS");
    println!("links save. GLB spill binds only when buffers are small:");

    // Spill matters when per-core slices outgrow the buffers: a small
    // 3x3 fabric with 32 KiB GLBs makes the stripe mapping's working
    // sets overflow (the capacity-aware K-split can shrink weight
    // slices, but activation tiles still exceed the buffer).
    let small = gemini_arch::ArchConfig::builder()
        .cores(3, 3)
        .cuts(1, 1)
        .noc_bw(32.0)
        .dram_bw(64.0)
        .glb_kb(32)
        .build()
        .expect("valid small-GLB arch");
    for (name, dnn) in &dnns {
        let on = Evaluator::new(&small);
        let off = Evaluator::with_options(
            &small,
            EnergyModel::default(),
            EvalOptions {
                spill_enabled: false,
                ..EvalOptions::default()
            },
        );
        let m_on = MappingEngine::new(&on).map_stripe(dnn, batch, &MappingOptions::default());
        let m_off = MappingEngine::new(&off).map_stripe(dnn, batch, &MappingOptions::default());
        let ratio = m_on.report.edp() / m_off.report.edp();
        println!(
            "  {name} @ 9 cores x 32 KiB GLB: spill accounts for {:.1}% of EDP",
            (ratio - 1.0) * 100.0
        );
        rows.push(format!("spill-32k,{},spill share,,,{}", name, sig6(ratio)));
    }

    // --- 2. Guidance effect: anneal ablated, judge under full --------
    banner("Guidance effect: SA under ablated model, judged by the full model");
    println!(
        "\n{:<14} {:<16} {:>14} {:>12}",
        "dnn", "annealed under", "full-model EDP", "vs full-SA"
    );
    for (name, dnn) in &dnns {
        let full_ev = Evaluator::new(&arch);
        let full_engine = MappingEngine::new(&full_ev);
        let mut base = 0.0;
        for v in variants() {
            let ev = Evaluator::with_options(&arch, v.energy, v.opts);
            let engine = MappingEngine::new(&ev);
            let m = engine.map(dnn, batch, &mapping_opts(iters, 5));
            // Judge the found schemes under the full evaluator.
            let judged = full_engine.evaluate(dnn, &m.partition, &m.lms, batch);
            if v.name == "full model" {
                base = judged.edp();
            }
            println!(
                "{:<14} {:<16} {:>14.4e} {:>11.3}x",
                name,
                v.name,
                judged.edp(),
                judged.edp() / base
            );
            rows.push(format!(
                "guidance,{},{},{},,{}",
                name,
                v.name,
                sig6(judged.edp()),
                sig6(judged.edp() / base)
            ));
        }
        println!();
    }
    println!("expected: annealing under a blinded model finds schemes the full model");
    println!("dislikes (ratios > 1) — the mechanisms earn their keep as guidance,");
    println!("not just as accounting.");

    write_csv(
        results_dir().join("ablation_model.csv"),
        "section,dnn,variant,metric1,metric2,rel",
        rows,
    )
    .expect("write csv");
    println!(
        "\nwrote {}",
        results_dir().join("ablation_model.csv").display()
    );
}
