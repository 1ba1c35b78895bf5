//! Differential test of the incremental partition DP.
//!
//! `partition_graph` grows each segment's cost inputs one layer at a
//! time and scales integer aggregates by the batch unit. The oracle
//! below is the DP it replaced, kept verbatim: it rebuilds every
//! `(start, end, batch unit)` cost from scratch. Three checks:
//!
//! - both DPs give equal partitions over the paper workloads, the
//!   decode workloads and the small examples, on the presets and on
//!   Table-I candidates at both ends of the chiplet count;
//! - grown aggregates equal aggregates counted from scratch on every
//!   segment the DP visits;
//! - `group_cost`, which feeds from-scratch aggregates to the cost the
//!   DP uses, is bit-identical to the oracle's cost.

use gemini::arch::{presets, ArchConfig};
use gemini::core::dse::DseSpec;
use gemini::core::partition::{
    group_cost, partition_graph, GraphPartition, PartitionOptions, SegmentAggregates, SegmentGrower,
};
use gemini::model::{Dnn, LayerId};

/// The from-scratch DP, verbatim but for its imports.
mod oracle {
    use gemini::arch::ArchConfig;
    use gemini::core::encoding::GroupSpec;
    use gemini::core::partition::{GraphPartition, PartitionOptions};
    use gemini::model::{Dnn, LayerId};

    const E_DRAM: f64 = 80.0;
    const E_NOC_HOP: f64 = 0.6;
    const E_MAC: f64 = 0.25;

    pub fn partition_graph(
        dnn: &Dnn,
        arch: &ArchConfig,
        batch: u32,
        opts: &PartitionOptions,
    ) -> GraphPartition {
        let layers: Vec<LayerId> = dnn.compute_ids().collect();
        let n = layers.len();
        if n == 0 {
            return GraphPartition { groups: vec![] };
        }
        let max_len = opts.max_group_layers.min(arch.n_cores() as usize).max(1);
        let mut units: Vec<u32> = opts
            .batch_units
            .iter()
            .map(|&u| u.min(batch))
            .filter(|&u| u >= 1)
            .collect();
        units.sort_unstable();
        units.dedup();

        // dp[i]: best cost covering layers[0..i]; choice[i] = (j, batch_unit)
        // meaning the last group is layers[j..i].
        let mut dp = vec![f64::INFINITY; n + 1];
        let mut choice = vec![(0usize, 1u32); n + 1];
        dp[0] = 0.0;
        for i in 1..=n {
            for j in i.saturating_sub(max_len)..i {
                if !dp[j].is_finite() {
                    continue;
                }
                let seg = &layers[j..i];
                for &bu in &units {
                    let c = group_cost(dnn, arch, seg, bu, batch);
                    if dp[j] + c < dp[i] {
                        dp[i] = dp[j] + c;
                        choice[i] = (j, bu);
                    }
                }
            }
        }

        // Reconstruct.
        let mut groups = Vec::new();
        let mut i = n;
        while i > 0 {
            let (j, bu) = choice[i];
            groups.push(GroupSpec {
                members: layers[j..i].to_vec(),
                batch_unit: bu,
            });
            i = j;
        }
        groups.reverse();
        GraphPartition { groups }
    }

    pub fn group_cost(dnn: &Dnn, arch: &ArchConfig, seg: &[LayerId], bu: u32, batch: u32) -> f64 {
        let m = arch.n_cores() as f64;
        let in_seg = |l: LayerId| seg.contains(&l);
        let rounds = (batch as f64 / bu as f64).ceil().max(1.0);
        let depth = dnn.depth_within(seg) as f64;

        let mut macs: u64 = 0;
        let mut weight_bytes: u64 = 0;
        let mut ext_io_bytes: f64 = 0.0;
        let mut internal_bytes: f64 = 0.0;
        let mut act_bytes: f64 = 0.0;
        let mut max_layer_macs: u64 = 0;

        for &id in seg {
            let l = dnn.layer(id);
            macs += l.macs(bu);
            max_layer_macs = max_layer_macs.max(l.macs(bu));
            weight_bytes += l.weight_bytes();
            let out_bytes = l.ofmap.bytes() * bu as u64;
            act_bytes += out_bytes as f64;
            // External inputs (DNN input or earlier groups) come from DRAM.
            for &p in dnn.preds(id) {
                let vol = dnn.layer(p).ofmap.bytes() as f64 * bu as f64;
                act_bytes += vol;
                if in_seg(p) {
                    internal_bytes += vol;
                } else {
                    ext_io_bytes += vol;
                }
            }
            // External outputs go to DRAM.
            let succs = dnn.succs(id);
            if succs.is_empty() || succs.iter().any(|&s| !in_seg(s)) {
                ext_io_bytes += out_bytes as f64;
            }
        }

        // Aggregate working set (mirrors the evaluator's per-core model):
        // weights plus one stage's activations must fit the combined GLBs;
        // overflow spills to DRAM every round (write + re-read).
        let glb_total = (arch.n_cores() as u64 * arch.glb_bytes()) as f64;
        let working_set = weight_bytes as f64 + act_bytes;
        let overflow = (working_set - glb_total).max(0.0);
        // Weights load once per group execution, amortized over the rounds.
        let dram_bytes = ext_io_bytes + weight_bytes as f64 / rounds + 2.0 * overflow;
        let freq = arch.freq_ghz() * 1e9;

        // Per-stage times. Compute assumes proportional allocation, so the
        // slowest stage is roughly total/M but never better than the largest
        // layer on its share of cores.
        let peak = m * arch.macs_per_core() as f64 * freq;
        let t_compute = (macs as f64 / peak).max(max_layer_macs as f64 / peak * 1.2);
        let t_dram = dram_bytes / (arch.dram_bw() * 1e9);
        // Internal forwarding rides the NoC; average distance ~ sqrt(M)/2
        // hops spread over ~M horizontal link columns. Cross-chiplet
        // fraction pays the D2D bandwidth ratio.
        let avg_hops = (m.sqrt() / 2.0).max(1.0);
        let noc_cap = arch.noc_bw() * 1e9 * m.sqrt();
        let cross_frac = 1.0 - 1.0 / arch.n_chiplets() as f64;
        let d2d_cap = arch.d2d_bw() * 1e9 * m.sqrt();
        let t_net = internal_bytes * avg_hops / noc_cap + internal_bytes * cross_frac / d2d_cap;
        let stage = t_compute.max(t_dram).max(t_net / depth.max(1.0))
            + gemini::sim::evaluate::STAGE_OVERHEAD_S;
        let delay = stage * (rounds + depth - 1.0) + gemini::sim::evaluate::GROUP_OVERHEAD_S;

        let energy = (dram_bytes * rounds * E_DRAM
            + internal_bytes * rounds * avg_hops * E_NOC_HOP
            + macs as f64 * rounds * E_MAC)
            * 1e-12;

        // Chip-power scale: ~3x the peak MAC power covers buffers, network
        // and DRAM interface activity.
        let p_ref = m * arch.macs_per_core() as f64 * freq * E_MAC * 1e-12 * 3.0;
        energy + delay * p_ref
    }
}

/// The five paper workloads, the two decode workloads at a non-default
/// position, and the small examples, split by size so the two
/// default-option tests take similar time.
const LARGE: &[&str] = &["ires", "pnas", "gpt2-decode@128"];
const SMALL: &[&str] = &[
    "rn-50",
    "rnx",
    "tf",
    "decode-tiny@512",
    "gn",
    "two-conv",
    "tiny-resnet",
];

fn all_workloads() -> impl Iterator<Item = &'static str> {
    LARGE.iter().chain(SMALL).copied()
}

fn workload(name: &str) -> Dnn {
    gemini::model::zoo::by_name(name)
        .unwrap_or_else(|| panic!("{name} is a zoo workload"))
        .graph
}

/// G-Arch, Simba, the Table-I monolithic candidate with the fewest
/// cores (so the core count, not `max_group_layers`, caps the group
/// length) and the Table-I candidate with the most chiplets.
fn archs() -> Vec<(&'static str, ArchConfig)> {
    let grid = DseSpec::table1(72.0).candidates();
    let mono = grid
        .iter()
        .filter(|a| a.is_monolithic())
        .min_by_key(|a| a.n_cores())
        .expect("a monolithic candidate")
        .clone();
    let many = grid
        .iter()
        .max_by_key(|a| a.n_chiplets())
        .expect("a candidate")
        .clone();
    assert!(mono.n_cores() < 24, "{} cores", mono.n_cores());
    assert!(many.n_chiplets() >= 18, "{} chiplets", many.n_chiplets());
    vec![
        ("g-arch", presets::g_arch_72()),
        ("simba", presets::simba_s_arch()),
        ("table1-monolithic", mono),
        ("table1-many-chiplet", many),
    ]
}

/// Partitions `workloads` under both DPs on every architecture and
/// batch; returns how many were compared.
fn assert_partitions_match<'a>(
    workloads: impl Iterator<Item = &'a str>,
    opts: &PartitionOptions,
) -> usize {
    let archs = archs();
    let mut compared = 0;
    for name in workloads {
        let dnn = workload(name);
        for (arch_name, arch) in &archs {
            for batch in [1, 8, 64] {
                let got: GraphPartition = partition_graph(&dnn, arch, batch, opts);
                let want = oracle::partition_graph(&dnn, arch, batch, opts);
                assert_eq!(got, want, "{name} on {arch_name}, batch {batch}, {opts:?}");
                compared += 1;
            }
        }
    }
    compared
}

#[test]
fn default_options_partition_identically_on_large_graphs() {
    let n = assert_partitions_match(LARGE.iter().copied(), &PartitionOptions::default());
    assert_eq!(n, LARGE.len() * 4 * 3);
}

#[test]
fn default_options_partition_identically_on_small_graphs() {
    let n = assert_partitions_match(SMALL.iter().copied(), &PartitionOptions::default());
    assert_eq!(n, SMALL.len() * 4 * 3);
}

#[test]
fn short_groups_and_unsorted_oversized_units_partition_identically() {
    // Units out of order, repeated after clamping, and one above every
    // batch: the DP must clamp, sort and dedup exactly as before.
    let opts = PartitionOptions {
        max_group_layers: 7,
        batch_units: vec![3, 1, 64, 5],
    };
    let n = assert_partitions_match(all_workloads(), &opts);
    assert_eq!(n, (LARGE.len() + SMALL.len()) * 4 * 3);
}

#[test]
fn grown_aggregates_equal_from_scratch_aggregates_on_every_segment() {
    // Every segment either option set visits has at most 24 layers, so
    // growing every start to 24 layers covers them all.
    let max_len = PartitionOptions::default().max_group_layers;
    let mut segments = 0;
    for name in all_workloads() {
        let dnn = workload(name);
        let mut grower = SegmentGrower::new(&dnn);
        let layers: Vec<LayerId> = dnn.compute_ids().collect();
        assert_eq!(grower.layers(), &layers[..]);
        let n = layers.len();
        for j in 0..n {
            grower.restart(j);
            for e in j + 1..=(j + max_len).min(n) {
                let grown = *grower.push();
                let scratch = SegmentAggregates::of(&dnn, &layers[j..e]);
                assert_eq!(grown, scratch, "{name}: segment {j}..{e}");
                segments += 1;
            }
        }
    }
    assert!(segments > 10_000, "only {segments} segments");
}

#[test]
fn group_costs_are_bit_identical_to_the_from_scratch_costs() {
    // The shared cost tail against the oracle's, bit for bit, on every
    // segment of up to 24 layers. The (batch, unit) pairs cover whole
    // and partial last rounds and a unit equal to the batch.
    let pairs = [
        (1, 1),
        (8, 1),
        (8, 3),
        (8, 8),
        (64, 2),
        (64, 5),
        (64, 16),
        (64, 64),
    ];
    let archs = archs();
    let mut compared = 0;
    for name in ["gn", "decode-tiny@512", "tiny-resnet"] {
        let dnn = workload(name);
        let layers: Vec<LayerId> = dnn.compute_ids().collect();
        let n = layers.len();
        for j in 0..n {
            for e in j + 1..=(j + 24).min(n) {
                let seg = &layers[j..e];
                for (arch_name, arch) in &archs {
                    for (batch, bu) in pairs {
                        let got = group_cost(&dnn, arch, seg, bu, batch);
                        let want = oracle::group_cost(&dnn, arch, seg, bu, batch);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} {j}..{e} on {arch_name}, batch {batch}, unit {bu}: {got} vs {want}"
                        );
                        compared += 1;
                    }
                }
            }
        }
    }
    assert!(compared > 50_000, "only {compared} costs");
}
