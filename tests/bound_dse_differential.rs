//! Differential tests for the rung-0 bound pre-filter: pruning must be
//! a pure optimization. On the same strided Table-I 72-TOPs sweep,
//! `BoundMode::Off`, `Report` and `Prune` must elect the same winner,
//! `Report` and `Prune` must produce byte-identical reports at any
//! worker count, at least 30% of the candidates must actually be
//! pruned before SA, and the bound-seeded SA chain must stay
//! bit-identical with delta evaluation on and off. The heterogeneous
//! class-assignment sweep carries the same contract.

use gemini::core::dse::{run_dse, DseOptions, DseSpec};
use gemini::core::engine::{MappingEngine, MappingOptions};
use gemini::core::hetero_dse::{run_hetero_dse, HeteroDseSpec};
use gemini::core::sa::SaOptions;
use gemini::prelude::*;

fn sweep_opts(bound: BoundMode, workers: usize) -> DseOptions {
    DseOptions {
        batch: 2,
        stride: 29,
        mapping: MappingOptions {
            sa: SaOptions {
                iters: 24,
                seed: 7,
                threads: 1,
                ..Default::default()
            },
            ..Default::default()
        },
        threads: workers,
        bound,
        ..Default::default()
    }
}

/// The acceptance gate of the rung-0 pre-filter, end to end on the
/// `dse_72tops`-shaped sweep (Table I at 72 TOPs, service-default
/// stride): same winner with pruning off, report-only and pruning on;
/// byte-identical reports between `Report` and `Prune` at 1 and 4
/// workers; >= 30% of candidates pruned before SA.
#[test]
fn pruning_is_invisible_on_the_strided_72tops_sweep() {
    let dnns = vec![gemini::model::zoo::two_conv_example()];
    let spec = DseSpec::table1(72.0);

    let off = run_dse(&dnns, &spec, &sweep_opts(BoundMode::Off, 1));
    let report = run_dse(&dnns, &spec, &sweep_opts(BoundMode::Report, 1));
    let prune1 = run_dse(&dnns, &spec, &sweep_opts(BoundMode::Prune, 1));
    let prune4 = run_dse(&dnns, &spec, &sweep_opts(BoundMode::Prune, 4));

    // Pruning never changes the winner — index, architecture or score.
    for (tag, res) in [
        ("report", &report),
        ("prune1", &prune1),
        ("prune4", &prune4),
    ] {
        assert_eq!(off.best, res.best, "winner moved under {tag}");
        assert_eq!(
            off.records[off.best].arch, res.records[res.best].arch,
            "winning architecture changed under {tag}"
        );
        assert_eq!(
            off.records[off.best].score.to_bits(),
            res.records[res.best].score.to_bits(),
            "winning score changed under {tag}"
        );
    }

    // Report-only and pruning compute the identical plan, so the
    // DseReport (incl. BoundStats) is byte-identical between them and
    // across worker counts.
    assert_eq!(
        report.report, prune1.report,
        "report differs: Report vs Prune"
    );
    assert_eq!(
        prune1.report, prune4.report,
        "report differs: 1 vs 4 workers"
    );

    // Per-record worker-count invariance under pruning.
    assert_eq!(prune1.records.len(), prune4.records.len());
    for (a, b) in prune1.records.iter().zip(&prune4.records) {
        assert_eq!(a.pruned, b.pruned);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.bound, b.bound);
    }

    // Every candidate SA actually evaluated must score identically to
    // the prune-off run; pruned ones carry their (worse) bound score.
    for (a, b) in off.records.iter().zip(&prune1.records) {
        if !b.pruned {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        } else {
            let stats = prune1.report.bound.as_ref().expect("bound stats");
            assert!(
                b.score > stats.threshold,
                "pruned candidate at threshold {} with bound score {}",
                stats.threshold,
                b.score
            );
        }
    }

    // The pre-filter must have real teeth on this sweep.
    let stats = prune1.report.bound.as_ref().expect("bound stats");
    println!(
        "prune rate: {}/{} ({:.1}%), {} seeds, winner gap {:.2}x",
        stats.pruned,
        stats.total,
        stats.prune_pct(),
        stats.seeds,
        stats.winner_gap
    );
    assert_eq!(stats.total, prune1.records.len());
    assert!(
        stats.prune_pct() >= 30.0,
        "expected >= 30% of candidates pruned before SA, got {:.1}% ({}/{})",
        stats.prune_pct(),
        stats.pruned,
        stats.total
    );
    assert!(stats.winner_gap >= 1.0 - 1e-9, "winner below its own bound");

    // Report mode evaluates everything: same achieved scores as Off,
    // plus a gap diagnostic on every record.
    for (a, b) in off.records.iter().zip(&report.records) {
        assert!(!b.pruned);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        let rb = b.bound.as_ref().expect("bound diagnostics");
        let gap = rb.gap.expect("evaluated record has a gap");
        assert!(gap >= 1.0 - 1e-9, "achieved beat the bound: gap {gap}");
    }
}

/// The rung-0 contract on the heterogeneous sweep: a 2-chiplet fabric
/// whose chiplets each pick one of four core classes (16 assignments).
/// Off, Report and Prune elect the same winner at 1 and 4 workers;
/// Report and Prune produce identical reports; records do not depend on
/// the worker count; and the bound prunes at least one assignment.
#[test]
fn hetero_pruning_is_invisible_on_the_class_assignment_sweep() {
    let class = |macs, glb_bytes| CoreClass { macs, glb_bytes };
    let spec = HeteroDseSpec {
        fabric: ArchConfig::builder()
            .cores(4, 4)
            .cuts(1, 2)
            .build()
            .unwrap(),
        classes: vec![
            class(2048, 2 << 20),
            class(512, 1 << 20),
            class(1024, 512 << 10),
            class(4096, 4 << 20),
        ],
    };
    let dnns = vec![gemini::model::zoo::two_conv_example()];
    let run = |bound, workers| run_hetero_dse(&dnns, &spec, &sweep_opts(bound, workers));

    let off = run(BoundMode::Off, 1);
    assert_eq!(off.records.len(), 16);
    for bound in [BoundMode::Off, BoundMode::Report, BoundMode::Prune] {
        let one = run(bound, 1);
        let four = run(bound, 4);
        for (tag, res) in [("1 worker", &one), ("4 workers", &four)] {
            assert_eq!(off.best, res.best, "winner moved under {bound:?}, {tag}");
            assert_eq!(
                off.records[off.best].score.to_bits(),
                res.records[res.best].score.to_bits(),
                "winning score changed under {bound:?}, {tag}"
            );
        }
        assert_eq!(one.report, four.report, "report differs: 1 vs 4 workers");
        assert_eq!(one.records.len(), four.records.len());
        for (a, b) in one.records.iter().zip(&four.records) {
            assert_eq!(a.pruned, b.pruned);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.bound, b.bound);
        }
    }

    let report = run(BoundMode::Report, 1);
    let prune = run(BoundMode::Prune, 1);
    assert_eq!(
        report.report, prune.report,
        "report differs: Report vs Prune"
    );
    let stats = prune.report.bound.as_ref().expect("bound stats");
    assert_eq!(stats.total, 16);
    assert!(stats.pruned >= 1, "no assignment pruned: {stats:?}");
    assert_eq!(
        prune.records.iter().filter(|r| r.pruned).count(),
        stats.pruned
    );
}

/// The bound-seeded SA chain start (`SaOptions::bound_seed`) must not
/// perturb the delta-evaluation bit-identity contract: with the seed
/// swap on, delta and full re-evaluation still land on bit-identical
/// mappings, and the swap itself is deterministic.
#[test]
fn bound_seeded_sa_bit_identical_with_delta_on_and_off() {
    let dnn = gemini::model::zoo::tiny_resnet();
    let arch = gemini::arch::presets::g_arch_72();
    let ev = Evaluator::new(&arch);
    let engine = MappingEngine::new(&ev);
    let run = |bound_seed: bool, delta: bool| {
        engine.map(
            &dnn,
            4,
            &MappingOptions {
                sa: SaOptions {
                    iters: 120,
                    seed: 3,
                    threads: 1,
                    delta,
                    bound_seed,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    };
    for bound_seed in [false, true] {
        let full = run(bound_seed, false);
        let delta = run(bound_seed, true);
        assert_eq!(
            full.report.delay_s.to_bits(),
            delta.report.delay_s.to_bits(),
            "delta diverged (bound_seed={bound_seed})"
        );
        assert_eq!(
            full.report.energy.total().to_bits(),
            delta.report.energy.total().to_bits(),
            "delta energy diverged (bound_seed={bound_seed})"
        );
        let cost = |m: &gemini::core::engine::MappedDnn| {
            m.sa_stats.expect("G-Map has SA stats").final_cost
        };
        assert_eq!(
            cost(&full).to_bits(),
            cost(&delta).to_bits(),
            "delta SA cost diverged (bound_seed={bound_seed})"
        );
        // Re-running the same configuration reproduces itself exactly.
        let again = run(bound_seed, true);
        assert_eq!(
            delta.report.delay_s.to_bits(),
            again.report.delay_s.to_bits()
        );
    }
}
