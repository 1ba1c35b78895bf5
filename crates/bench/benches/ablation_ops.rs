//! SA-operator ablation (the Sec. V-B1 row of `docs/CONCORDANCE.md`).
//!
//! The paper designs five operators and argues (via its anonymous proof
//! link) that together they make every point of the encoding space
//! reachable. This harness quantifies each operator's contribution:
//! anneal the Transformer on the 72-TOPs G-Arch with all operators, then
//! with each operator disabled in turn, and compare the achieved
//! `E*D` cost.
//!
//! Writes `bench_results/ablation_ops.csv`.

use gemini_arch::presets;
use gemini_bench::{banner, results_dir, sa_iters, sig6, write_csv};
use gemini_core::engine::{MappingEngine, MappingOptions};
use gemini_core::sa::SaOptions;
use gemini_model::zoo;
use gemini_sim::Evaluator;

fn main() {
    banner("SA operator ablation (Transformer, 72-TOPs G-Arch, batch 16)");
    let arch = presets::g_arch_72();
    let dnn = zoo::transformer_base();
    let batch = 16;
    let iters = sa_iters(1200, 6000);
    let ev = Evaluator::new(&arch);
    let engine = MappingEngine::new(&ev);

    let run = |mask: [bool; 5], seed: u64| {
        let opts = MappingOptions {
            sa: SaOptions {
                iters,
                seed,
                enabled_ops: mask,
                ..Default::default()
            },
            ..Default::default()
        };
        let m = engine.map(&dnn, batch, &opts);
        (m.report.edp(), m.sa_stats.expect("annealed"))
    };

    // Average over a few seeds for stability.
    let seeds = [1u64, 2, 3];
    let label = [
        "none (all ops)",
        "OP1 (Part)",
        "OP2 (swap-in)",
        "OP3 (swap-across)",
        "OP4 (move core)",
        "OP5 (FD)",
    ];
    let mut rows = Vec::new();
    println!(
        "\n{:<18} {:>12} {:>12} {:>10}",
        "disabled", "EDP (J*s)", "vs all-ops", "accepted"
    );
    let mut base_edp = 0.0;
    for cfg in 0..6usize {
        let mut mask = [true; 5];
        if cfg > 0 {
            mask[cfg - 1] = false;
        }
        let mut edps = Vec::new();
        let mut acc = 0u32;
        for &s in &seeds {
            let (edp, stats) = run(mask, s);
            edps.push(edp);
            acc += stats.accepted;
        }
        let mean = gemini_bench::geomean(&edps);
        if cfg == 0 {
            base_edp = mean;
        }
        println!(
            "{:<18} {:>12.4e} {:>11.1}% {:>10}",
            label[cfg],
            mean,
            (mean / base_edp - 1.0) * 100.0,
            acc / seeds.len() as u32
        );
        rows.push(format!(
            "{},{},{}",
            label[cfg],
            sig6(mean),
            sig6(mean / base_edp)
        ));
    }
    println!("\nexpected: disabling operators (especially OP4, which alone changes CG sizes)");
    println!("degrades the achieved cost; the full set explores the space the encoding defines.");

    write_csv(
        results_dir().join("ablation_ops.csv"),
        "disabled,edp_mean,edp_vs_all",
        rows,
    )
    .expect("write csv");
    println!("wrote {}", results_dir().join("ablation_ops.csv").display());
}
