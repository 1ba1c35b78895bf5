//! Outcome pins for the joint partition + SPM annealer.
//!
//! `optimize_joint` evaluates every proposal exactly, so how it gets a
//! report (incrementally, cold or from a memo) can move its work
//! counters but never an accept decision, an RNG draw or a result. These
//! pins hold the results of tiny-resnet on G-Arch at batch 8, under the
//! three configurations of the annealer's unit tests, to the bit: the
//! final cost, every group's members and batch unit, the applied
//! partition moves, and the applied SPM operators and accepted moves.
//! Member-simulation counters are deliberately not pinned.

use gemini::arch::presets;
use gemini::core::joint::{optimize_joint, JointOptions};
use gemini::core::partition::{partition_graph, PartitionOptions};
use gemini::core::sa::SaOptions;
use gemini::model::zoo;
use gemini::sim::Evaluator;

/// One pinned run: its options and the outcome recorded for them.
struct Pin {
    seed: u64,
    iters: u32,
    t0: Option<f64>,
    partition_op_prob: Option<f64>,
    /// `PartitionOptions::max_group_layers` of the starting partition
    /// and of the annealer; `None` keeps the default.
    max_group_layers: Option<usize>,
    cost_bits: u64,
    /// `(member layer ids, batch unit)` per group, in order.
    groups: &'static [(&'static [u32], u32)],
    partition_applied: [u32; 4],
    op_applied: [u32; 5],
    accepted: u32,
}

const PINS: &[Pin] = &[
    Pin {
        seed: 5,
        iters: 200,
        t0: None,
        partition_op_prob: None,
        max_group_layers: None,
        cost_bits: 0x3e1711615ac622cb,
        groups: &[(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 2)],
        partition_applied: [0, 0, 0, 0],
        op_applied: [10, 30, 17, 17, 35],
        accepted: 109,
    },
    Pin {
        seed: 11,
        iters: 300,
        t0: None,
        partition_op_prob: Some(0.4),
        max_group_layers: None,
        cost_bits: 0x3e151a505e492326,
        groups: &[(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 1)],
        partition_applied: [0, 0, 0, 1],
        op_applied: [8, 23, 28, 22, 38],
        accepted: 120,
    },
    Pin {
        seed: 2,
        iters: 400,
        t0: Some(0.5),
        partition_op_prob: Some(0.8),
        max_group_layers: None,
        cost_bits: 0x3e17fe9168008567,
        groups: &[(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 1)],
        partition_applied: [0, 0, 0, 4],
        op_applied: [9, 16, 4, 8, 14],
        accepted: 55,
    },
    Pin {
        seed: 3,
        iters: 300,
        t0: None,
        partition_op_prob: Some(0.4),
        max_group_layers: Some(3),
        cost_bits: 0x3e41e6cc5e81b730,
        groups: &[
            (&[1, 2, 3], 1),
            (&[4, 5, 6], 4),
            (&[7], 8),
            (&[8, 9, 10], 8),
        ],
        partition_applied: [3, 4, 4, 10],
        op_applied: [11, 31, 22, 13, 32],
        accepted: 130,
    },
];

#[test]
fn joint_outcomes_are_pinned() {
    let dnn = zoo::tiny_resnet();
    let arch = presets::g_arch_72();
    let ev = Evaluator::new(&arch);
    let mut failures = Vec::new();
    for (i, pin) in PINS.iter().enumerate() {
        let defaults = JointOptions::default();
        let partition = PartitionOptions {
            max_group_layers: pin
                .max_group_layers
                .unwrap_or(defaults.partition.max_group_layers),
            ..defaults.partition.clone()
        };
        let init = partition_graph(&dnn, &arch, 8, &partition);
        let opts = JointOptions {
            sa: SaOptions {
                iters: pin.iters,
                seed: pin.seed,
                t0: pin.t0.unwrap_or(defaults.sa.t0),
                ..Default::default()
            },
            partition_op_prob: pin.partition_op_prob.unwrap_or(defaults.partition_op_prob),
            partition,
        };
        let out = optimize_joint(&dnn, &ev, init, 8, &opts);
        let groups: Vec<(Vec<u32>, u32)> = out
            .partition
            .groups
            .iter()
            .map(|g| (g.members.iter().map(|l| l.0).collect(), g.batch_unit))
            .collect();
        let expected: Vec<(Vec<u32>, u32)> =
            pin.groups.iter().map(|&(m, bu)| (m.to_vec(), bu)).collect();
        let got = (
            out.cost.to_bits(),
            &groups,
            out.partition_applied,
            out.stats.op_applied,
            out.stats.accepted,
        );
        let want = (
            pin.cost_bits,
            &expected,
            pin.partition_applied,
            pin.op_applied,
            pin.accepted,
        );
        if got != want {
            failures.push(format!(
                "pin {i} (seed {}, {} iters): got cost {:#018x}, groups {:?}, \
                 partition_applied {:?}, op_applied {:?}, accepted {}",
                pin.seed, pin.iters, got.0, got.1, got.2, got.3, got.4
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
