//! Property tests of the incremental (delta) evaluator: for random
//! operator sequences on random group mappings, the delta-evaluated
//! report equals a cold `evaluate_group` **bit-exactly at every step**
//! — whether proposals are committed, replaced by later ones or never
//! committed, and across member-count changes — and whole SA runs,
//! which evaluate every move incrementally, are bit-identical at 1 and
//! 4 chain-worker threads.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gemini::core::encoding::GroupSpec;
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
            let cold = ev.evaluate_group(&dnn, &gm, batch);
            prop_assert!(
                state
                    .propose(&ev, &dnn, &gm, Some(&trace.dirty))
                    .bit_identical(&cold),
                "step {} (OP{}) diverged: dirty {:?}",
                step,
                op + 1,
                trace.dirty
            );
            let committed = state.commit();
            prop_assert!(committed.bit_identical(&cold));
        }
        // The walk must actually exercise the incremental path on
        // multi-member groups (single-layer groups degenerate to full
        // evaluations by design).
        if spec.members.len() > 2 {
            prop_assert!(state.stats().member_reuses > 0, "{:?}", state.stats());
        }
    }

    /// A state's buffers carry nothing from one proposal to the next:
    /// each step proposes one to three moves from the committed scheme
    /// (the later ones replacing the earlier), some with no footprint
    /// (the full path), then commits the last one or, one step in
    /// three, none. Every proposal and every committed report is
    /// bit-identical to a cold evaluation.
    #[test]
    fn replaced_and_rejected_proposals_match_cold_eval(
        wl in 0usize..2,
        seed in 0u64..1_000,
        steps in 10usize..30,
        batch in 1u32..6,
    ) {
        let dnn = workload(wl);
        let arch = gemini::arch::presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let partition = partition_graph(&dnn, &arch, batch, &PartitionOptions::default());
        prop_assume!(!partition.groups.is_empty());
        let spec = &partition.groups[(seed as usize) % partition.groups.len()];
        let mut cur = stripe_lms(&dnn, &arch, spec);
        let resolver = |_: gemini_model::LayerId| DramSel::Interleaved;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut state =
            GroupEvalState::new(&ev, &dnn, cur.parse(&dnn, spec, &resolver), batch);
        for step in 0..steps {
            let mut last = None;
            for _ in 0..rng.gen_range(1..=3) {
                let mut trial = cur.clone();
                let op = rng.gen_range(0..5usize);
                let Some(trace) = apply_op_traced(op, &dnn, &arch, spec, &mut trial, &mut rng)
                else {
                    continue;
                };
                let gm = trial.parse(&dnn, spec, &resolver);
                let dirty = (rng.gen_range(0..4) != 0).then_some(&trace.dirty[..]);
                let cold = ev.evaluate_group(&dnn, &gm, batch);
                prop_assert!(
                    state.propose(&ev, &dnn, &gm, dirty).bit_identical(&cold),
                    "step {} (OP{}) diverged: footprint {:?}",
                    step,
                    op + 1,
                    dirty
                );
                prop_assert!(state.proposed().bit_identical(&cold));
                last = Some((trial, cold));
            }
            if let Some((trial, cold)) = last {
                if rng.gen_range(0..3) != 0 {
                    prop_assert!(state.commit().bit_identical(&cold));
                    cur = trial;
                }
            }
            let committed = ev.evaluate_group(&dnn, state.gm(), batch);
            prop_assert!(state.report().bit_identical(&committed));
            prop_assert_eq!(state.gm(), &cur.parse(&dnn, spec, &resolver));
        }
    }

    /// The joint annealer's use of a state: `advance` through mappings
    /// whose members change — windows of the layer order with a changed
    /// member count, layers or batch unit, as partition moves regroup
    /// layers — and through operator moves inside a window, with the
    /// footprint `diff_dirty` derives. Every report is bit-identical to
    /// a cold evaluation.
    #[test]
    fn advance_across_member_count_changes_matches_cold_eval(
        wl in 0usize..2,
        seed in 0u64..1_000,
        steps in 8usize..24,
        batch in 1u32..6,
    ) {
        let dnn = workload(wl);
        let arch = gemini::arch::presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let ids: Vec<gemini_model::LayerId> = dnn.compute_ids().collect();
        let resolver = |_: gemini_model::LayerId| DramSel::Interleaved;
        let mut rng = StdRng::seed_from_u64(seed);
        // A window of up to four consecutive layers whose member count
        // differs from `not_len` whenever the network allows it.
        let max_len = ids.len().min(4);
        let window = |rng: &mut StdRng, not_len: usize| {
            let mut len = rng.gen_range(1..=max_len);
            if len == not_len {
                len = len % max_len + 1;
            }
            let start = rng.gen_range(0..=ids.len() - len);
            GroupSpec {
                members: ids[start..start + len].to_vec(),
                batch_unit: rng.gen_range(1..=batch),
            }
        };

        let mut spec = window(&mut rng, 0);
        let mut lms = stripe_lms(&dnn, &arch, &spec);
        let mut state =
            GroupEvalState::new(&ev, &dnn, lms.parse(&dnn, &spec, &resolver), batch);
        for step in 0..steps {
            if step % 3 == 2 {
                spec = window(&mut rng, spec.members.len());
                lms = stripe_lms(&dnn, &arch, &spec);
            } else {
                let op = rng.gen_range(0..5usize);
                let _ = apply_op_traced(op, &dnn, &arch, &spec, &mut lms, &mut rng);
            }
            let gm = lms.parse(&dnn, &spec, &resolver);
            let dirty = state.diff_dirty(&gm);
            let cold = ev.evaluate_group(&dnn, &gm, batch);
            prop_assert!(
                state.advance(&ev, &dnn, &gm, dirty.as_deref()).bit_identical(&cold),
                "{:?} diverged: footprint {:?}",
                spec,
                dirty
            );
            prop_assert!(state.report().bit_identical(&cold));
            prop_assert_eq!(state.gm(), &gm);
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
