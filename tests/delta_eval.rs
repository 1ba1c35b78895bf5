//! Property tests of the incremental (delta) evaluator: for random
//! operator sequences on random group mappings, the delta-evaluated
//! report equals a cold `evaluate_group` **bit-exactly at every step**,
//! and whole SA runs, which evaluate every move incrementally, are
//! bit-identical at 1 and 4 chain-worker threads.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use gemini::core::partition::{partition_graph, PartitionOptions};
use gemini::core::sa::{apply_op_traced, optimize, SaOptions};
use gemini::core::stripe::stripe_lms;
use gemini::prelude::*;
use gemini::sim::{DramSel, GroupEvalState};

fn workload(i: usize) -> gemini::model::Dnn {
    match i {
        0 => gemini::model::zoo::two_conv_example(),
        _ => gemini::model::zoo::tiny_resnet(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random operator walks: after every applied OP1..OP5 the
    /// delta-evaluated group report must be bit-identical to a cold
    /// evaluation of the same mapping.
    #[test]
    fn delta_matches_cold_eval_stepwise(
        wl in 0usize..2,
        seed in 0u64..1_000,
        steps in 10usize..40,
        batch in 1u32..6,
    ) {
        let dnn = workload(wl);
        let arch = gemini::arch::presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let partition = partition_graph(&dnn, &arch, batch, &PartitionOptions::default());
        prop_assume!(!partition.groups.is_empty());
        let g = (seed as usize) % partition.groups.len();
        let spec = &partition.groups[g];
        let mut lms = stripe_lms(&dnn, &arch, spec);
        let resolver = |_: gemini_model::LayerId| DramSel::Interleaved;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut state =
            GroupEvalState::new(&ev, &dnn, lms.parse(&dnn, spec, &resolver), batch);
        prop_assert!(state
            .report()
            .bit_identical(&ev.evaluate_group(&dnn, state.gm(), batch)));

        for step in 0..steps {
            let op = step % 5;
            let Some(trace) = apply_op_traced(op, &dnn, &arch, spec, &mut lms, &mut rng)
            else {
                continue;
            };
            let gm = lms.parse(&dnn, spec, &resolver);
            let p = state.propose(&ev, &dnn, &gm, Some(&trace.dirty));
            let cold = ev.evaluate_group(&dnn, &gm, batch);
            prop_assert!(
                p.report().bit_identical(&cold),
                "step {} (OP{}) diverged: dirty {:?}",
                step,
                op + 1,
                trace.dirty
            );
            let committed = state.commit(p);
            prop_assert!(committed.bit_identical(&cold));
        }
        // The walk must actually exercise the incremental path on
        // multi-member groups (single-layer groups degenerate to full
        // evaluations by design).
        if spec.members.len() > 2 {
            prop_assert!(state.stats().member_reuses > 0, "{:?}", state.stats());
        }
    }

    /// Whole SA runs: 1 and 4 chain workers produce bit-identical
    /// outcomes (cost, schemes, move and delta counters) on the same
    /// seed.
    #[test]
    fn sa_runs_bit_identical_across_delta_and_threads(seed in 0u64..100) {
        let dnn = gemini::model::zoo::tiny_resnet();
        let arch = gemini::arch::presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let partition = partition_graph(&dnn, &arch, 4, &PartitionOptions::default());
        let init: Vec<_> = partition
            .groups
            .iter()
            .map(|g| stripe_lms(&dnn, &arch, g))
            .collect();
        let run = |threads: usize| {
            let opts = SaOptions {
                iters: 60,
                seed,
                threads,
                ..Default::default()
            };
            optimize(&dnn, &ev, &partition, init.clone(), 4, &opts)
        };
        let base = run(1);
        let par = run(4);
        prop_assert_eq!(
            base.cost.to_bits(),
            par.cost.to_bits(),
            "4 threads changed the cost"
        );
        prop_assert_eq!(&base.lms, &par.lms);
        prop_assert_eq!(base.stats.accepted, par.stats.accepted);
        // Delta counters themselves are thread-count invariant.
        prop_assert_eq!(base.stats.delta_hits, par.stats.delta_hits);
        prop_assert_eq!(base.stats.member_sims, par.stats.member_sims);
        prop_assert_eq!(base.stats.member_reuses, par.stats.member_reuses);
    }
}
