//! DP-based graph partitioning (the "Graph Partition Engine" of Fig. 4).
//!
//! The paper adopts Tangram's dynamic-programming partitioner: the DNN's
//! topological order is segmented into contiguous *layer groups*, jointly
//! choosing each group's *batch unit* (samples per pipeline stage). The
//! DP minimizes an additive analytic cost per group — an estimate of the
//! group's energy-delay contribution that accounts for DRAM traffic
//! avoided by on-chip forwarding, weight residency in the aggregate GLB,
//! pipeline fill/drain overhead, and the D2D penalty of spreading a
//! pipeline across chiplets. The *spatial* mapping inside each group is
//! then refined by the stripe heuristic and simulated annealing.
//!
//! # Incremental segment costs
//!
//! The DP scores every segment `layers[j..e]` of at most
//! `max_group_layers` layers (and at most the core count) at every batch
//! unit. Instead of walking each segment from scratch, a
//! [`SegmentGrower`] fixes the start `j` and extends the end one layer
//! at a time, keeping [`SegmentAggregates`] at batch unit 1:
//!
//! - MACs, the largest member's MACs and weight bytes are running sums
//!   and maxima;
//! - a new member's predecessor edge is internal when the predecessor
//!   sits at or after `j`, external otherwise;
//! - a member's output counts as external until the end passes its last
//!   successor: `closed_at[e]` lists the layers whose last successor is
//!   `layers[e - 1]`, and growing the end to `e` moves their outputs
//!   from external to internal;
//! - the depth of a new member is one more than the deepest of its
//!   in-segment predecessors, so the segment depth is a running maximum.
//!
//! **Why this is exact.** Every MAC and byte count the cost reads is an
//! integer linear in the batch unit (`Layer::macs(bu)` is `elems * bu *
//! macs_per_out`, and a byte volume is `ofmap.bytes() * bu`), so the sum
//! at unit 1 times `bu` is the integer the from-scratch walk adds up.
//! Converted to `f64` it equals that walk's float sum as long as every
//! partial sum stays below 2^53, where each addition of integers is exact
//! (a debug assertion checks the bound). The float tail that turns the
//! aggregates into a cost is evaluated with the same operations in the
//! same order. [`group_cost`] feeds it aggregates counted from scratch,
//! the reference the grown aggregates are tested against.
//!
//! **Tie order.** The DP pushes from each start `j` in ascending order to
//! every end, trying units in ascending order and taking a candidate only
//! when it is strictly cheaper. Each end therefore sees its candidates in
//! the order a pull DP would (start ascending, then unit ascending), so
//! equal-cost candidates resolve to the same partition.

use serde::{Deserialize, Serialize};

use gemini_arch::ArchConfig;
use gemini_model::{Dnn, LayerId};

use crate::encoding::GroupSpec;

/// Options for the graph partitioner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionOptions {
    /// Maximum layers per group (also bounded by the core count).
    pub max_group_layers: usize,
    /// Candidate batch units; values above the batch are clamped.
    pub batch_units: Vec<u32>,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        Self {
            max_group_layers: 24,
            batch_units: vec![1, 2, 4, 8, 16],
        }
    }
}

/// The partition of a DNN into layer groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphPartition {
    /// Groups in execution order.
    pub groups: Vec<GroupSpec>,
}

impl GraphPartition {
    /// Total number of layer groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group index containing a layer, if any.
    pub fn group_of(&self, id: LayerId) -> Option<usize> {
        self.groups.iter().position(|g| g.members.contains(&id))
    }

    /// Average number of layers processed simultaneously (the metric of
    /// the paper's core-granularity discussion, Sec. VII-A2), weighted
    /// by group MACs.
    pub fn avg_layers_concurrent(&self, dnn: &Dnn) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for g in &self.groups {
            let macs: u64 = g.members.iter().map(|&m| dnn.layer(m).macs(1)).sum();
            weighted += g.members.len() as f64 * macs as f64;
            total += macs as f64;
        }
        if total == 0.0 {
            0.0
        } else {
            weighted / total
        }
    }
}

/// Energy constants mirrored from the evaluator for the DP's analytic
/// estimate (pJ/byte and pJ/MAC); exactness is unnecessary, relative
/// magnitudes drive the segmentation.
const E_DRAM: f64 = 80.0;
const E_NOC_HOP: f64 = 0.6;
const E_MAC: f64 = 0.25;

/// Partitions a DNN into layer groups with batch units, Tangram-style.
///
/// `batch` must be at least 1, and `opts` must hold a non-zero batch
/// unit: with no unit to try, no segment gets a cost and every layer
/// lands in one group, which can exceed the core count.
pub fn partition_graph(
    dnn: &Dnn,
    arch: &ArchConfig,
    batch: u32,
    opts: &PartitionOptions,
) -> GraphPartition {
    debug_assert!(batch >= 1, "partition_graph needs batch >= 1");
    let mut grower = SegmentGrower::new(dnn);
    let n = grower.layers().len();
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
    let units: Vec<(u32, f64)> = units
        .into_iter()
        .map(|bu| (bu, rounds(batch, bu)))
        .collect();
    let cost = SegmentCost::new(arch);

    // dp[i]: best cost covering layers[0..i]; choice[i] = (j, batch_unit)
    // meaning the last group is layers[j..i]. dp[j] is final once every
    // smaller start has pushed, so each start relaxes its ends in turn.
    let mut dp = vec![f64::INFINITY; n + 1];
    let mut choice = vec![(0usize, 1u32); n + 1];
    dp[0] = 0.0;
    for j in 0..n {
        if !dp[j].is_finite() {
            continue;
        }
        grower.restart(j);
        for e in j + 1..=(j + max_len).min(n) {
            let agg = grower.push();
            for &(bu, rounds) in &units {
                let c = cost.at(agg, bu, rounds);
                if dp[j] + c < dp[e] {
                    dp[e] = dp[j] + c;
                    choice[e] = (j, bu);
                }
            }
        }
    }

    // Reconstruct.
    let layers = grower.layers();
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

/// Analytic cost estimate of one candidate group (lower is better):
/// its aggregates counted from scratch, then the cost the DP uses.
pub fn group_cost(dnn: &Dnn, arch: &ArchConfig, seg: &[LayerId], bu: u32, batch: u32) -> f64 {
    SegmentCost::new(arch).at(&SegmentAggregates::of(dnn, seg), bu, rounds(batch, bu))
}

/// Rounds of `bu` samples that cover a batch (at least one).
fn rounds(batch: u32, bu: u32) -> f64 {
    (batch as f64 / bu as f64).ceil().max(1.0)
}

/// Integer aggregates of one segment of the compute order at batch
/// unit 1 — everything the partition cost reads about the segment. All
/// counts but `weight_bytes` and `depth` scale linearly with the batch
/// unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentAggregates {
    /// MACs of all members.
    macs: u64,
    /// MACs of the largest member.
    max_layer_macs: u64,
    /// Weight bytes of all members.
    weight_bytes: u64,
    /// Activation bytes the members touch: each member's output plus
    /// the output of each predecessor edge.
    act_bytes: u64,
    /// Predecessor-edge bytes produced inside the segment.
    internal_bytes: u64,
    /// Bytes through DRAM: predecessor edges from outside the segment,
    /// plus each member output with no successor or one outside.
    ext_io_bytes: u64,
    /// Longest chain of members (the pipeline depth).
    depth: u32,
}

impl SegmentAggregates {
    /// The aggregates of `seg` (any layer subset in topological order),
    /// counted from scratch.
    pub fn of(dnn: &Dnn, seg: &[LayerId]) -> Self {
        let in_seg = |l: LayerId| seg.contains(&l);
        let mut a = Self {
            depth: dnn.depth_within(seg),
            ..Self::default()
        };
        for &id in seg {
            let l = dnn.layer(id);
            a.macs += l.macs(1);
            a.max_layer_macs = a.max_layer_macs.max(l.macs(1));
            a.weight_bytes += l.weight_bytes();
            let out = l.ofmap.bytes();
            a.act_bytes += out;
            for &p in dnn.preds(id) {
                let vol = dnn.layer(p).ofmap.bytes();
                a.act_bytes += vol;
                if in_seg(p) {
                    a.internal_bytes += vol;
                } else {
                    a.ext_io_bytes += vol;
                }
            }
            let succs = dnn.succs(id);
            if succs.is_empty() || succs.iter().any(|&s| !in_seg(s)) {
                a.ext_io_bytes += out;
            }
        }
        a
    }
}

/// Grows segments `layers[start..end]` of a DNN's compute order one end
/// layer at a time, keeping their [`SegmentAggregates`] current.
#[derive(Debug)]
pub struct SegmentGrower<'a> {
    dnn: &'a Dnn,
    layers: Vec<LayerId>,
    /// Position of each layer in `layers`, indexed by `LayerId`
    /// (`usize::MAX` for `Input` pseudo-layers).
    pos: Vec<usize>,
    /// `closed_at[e]`: positions whose last successor is at `e - 1`.
    closed_at: Vec<Vec<usize>>,
    /// In-segment depth of each position in `start..end`.
    depth: Vec<u32>,
    start: usize,
    end: usize,
    agg: SegmentAggregates,
}

impl<'a> SegmentGrower<'a> {
    /// A grower over `dnn`'s compute layers, at the empty segment
    /// `layers[0..0]`.
    pub fn new(dnn: &'a Dnn) -> Self {
        let layers: Vec<LayerId> = dnn.compute_ids().collect();
        let mut pos = vec![usize::MAX; dnn.len()];
        for (i, id) in layers.iter().enumerate() {
            pos[id.idx()] = i;
        }
        let mut closed_at = vec![Vec::new(); layers.len() + 1];
        for (i, &id) in layers.iter().enumerate() {
            if let Some(last) = dnn.succs(id).iter().map(|s| pos[s.idx()]).max() {
                closed_at[last + 1].push(i);
            }
        }
        Self {
            dnn,
            depth: vec![0; layers.len()],
            layers,
            pos,
            closed_at,
            start: 0,
            end: 0,
            agg: SegmentAggregates::default(),
        }
    }

    /// The compute layers in topological order.
    pub fn layers(&self) -> &[LayerId] {
        &self.layers
    }

    /// Restarts at the empty segment `layers[start..start]`.
    pub fn restart(&mut self, start: usize) {
        self.start = start;
        self.end = start;
        self.agg = SegmentAggregates::default();
    }

    /// Appends the next layer and returns the aggregates of the grown
    /// segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment already reaches the last layer.
    pub fn push(&mut self) -> &SegmentAggregates {
        let dnn = self.dnn;
        let k = self.end;
        let id = self.layers[k];
        let l = dnn.layer(id);
        let a = &mut self.agg;
        let macs = l.macs(1);
        a.macs += macs;
        a.max_layer_macs = a.max_layer_macs.max(macs);
        a.weight_bytes += l.weight_bytes();
        let out = l.ofmap.bytes();
        a.act_bytes += out;
        let mut d = 1;
        for &p in dnn.preds(id) {
            let vol = dnn.layer(p).ofmap.bytes();
            a.act_bytes += vol;
            let q = self.pos[p.idx()];
            if (self.start..k).contains(&q) {
                a.internal_bytes += vol;
                d = d.max(self.depth[q] + 1);
            } else {
                a.ext_io_bytes += vol;
            }
        }
        self.depth[k] = d;
        a.depth = a.depth.max(d);
        // Every consumer of the new layer comes later, so its output
        // leaves the segment until the end passes its last successor.
        a.ext_io_bytes += out;
        self.end = k + 1;
        for &m in &self.closed_at[self.end] {
            if m >= self.start {
                a.ext_io_bytes -= dnn.layer(self.layers[m]).ofmap.bytes();
            }
        }
        &self.agg
    }
}

/// The analytic cost of a segment from its aggregates, with the
/// architecture-derived constants computed once per partition.
///
/// The DP needs an *additive* objective: summing per-group `delay *
/// energy` products would systematically favor fragmentation (for any
/// split, `sum(d_i * e_i) <= (sum d)(sum e)`). We therefore minimize the
/// energy-equivalent `E + P_ref * D`, with `P_ref` a chip-power scale
/// derived from the architecture — a standard scalarization whose
/// optimum tracks the E*D Pareto front.
struct SegmentCost {
    glb_total: f64,
    dram_cap: f64,
    peak: f64,
    avg_hops: f64,
    noc_cap: f64,
    cross_frac: f64,
    d2d_cap: f64,
    p_ref: f64,
}

impl SegmentCost {
    fn new(arch: &ArchConfig) -> Self {
        let m = arch.n_cores() as f64;
        let freq = arch.freq_ghz() * 1e9;
        Self {
            glb_total: (arch.n_cores() as u64 * arch.glb_bytes()) as f64,
            dram_cap: arch.dram_bw() * 1e9,
            peak: m * arch.macs_per_core() as f64 * freq,
            avg_hops: (m.sqrt() / 2.0).max(1.0),
            noc_cap: arch.noc_bw() * 1e9 * m.sqrt(),
            cross_frac: 1.0 - 1.0 / arch.n_chiplets() as f64,
            d2d_cap: arch.d2d_bw() * 1e9 * m.sqrt(),
            // Chip-power scale: ~3x the peak MAC power covers buffers,
            // network and DRAM interface activity.
            p_ref: m * arch.macs_per_core() as f64 * freq * E_MAC * 1e-12 * 3.0,
        }
    }

    /// Cost of a segment with aggregates `a` at batch unit `bu`, which
    /// takes `rounds` rounds to cover the batch (lower is better).
    fn at(&self, a: &SegmentAggregates, bu: u32, rounds: f64) -> f64 {
        // Byte sums are exact in f64 below 2^53. Every term is
        // non-negative, so the total bounds each partial sum.
        let scaled = |v: u64| {
            let v = v * bu as u64;
            debug_assert!(v < 1 << 53, "byte sum {v} is not exact in f64");
            v as f64
        };
        let depth = a.depth as f64;
        let macs = a.macs * bu as u64;
        let max_layer_macs = a.max_layer_macs * bu as u64;
        let act_bytes = scaled(a.act_bytes);
        let internal_bytes = scaled(a.internal_bytes);
        let ext_io_bytes = scaled(a.ext_io_bytes);
        let weight_bytes = a.weight_bytes;

        // Aggregate working set (mirrors the evaluator's per-core model):
        // weights plus one stage's activations must fit the combined GLBs;
        // overflow spills to DRAM every round (write + re-read).
        let working_set = weight_bytes as f64 + act_bytes;
        let overflow = (working_set - self.glb_total).max(0.0);
        // Weights load once per group execution, amortized over the rounds.
        let dram_bytes = ext_io_bytes + weight_bytes as f64 / rounds + 2.0 * overflow;

        // Per-stage times. Compute assumes proportional allocation, so the
        // slowest stage is roughly total/M but never better than the largest
        // layer on its share of cores.
        let peak = self.peak;
        let t_compute = (macs as f64 / peak).max(max_layer_macs as f64 / peak * 1.2);
        let t_dram = dram_bytes / self.dram_cap;
        // Internal forwarding rides the NoC; average distance ~ sqrt(M)/2
        // hops spread over ~M horizontal link columns. Cross-chiplet
        // fraction pays the D2D bandwidth ratio.
        let avg_hops = self.avg_hops;
        let t_net = internal_bytes * avg_hops / self.noc_cap
            + internal_bytes * self.cross_frac / self.d2d_cap;
        let stage = t_compute.max(t_dram).max(t_net / depth.max(1.0))
            + gemini_sim::evaluate::STAGE_OVERHEAD_S;
        let delay = stage * (rounds + depth - 1.0) + gemini_sim::evaluate::GROUP_OVERHEAD_S;

        let energy = (dram_bytes * rounds * E_DRAM
            + internal_bytes * rounds * avg_hops * E_NOC_HOP
            + macs as f64 * rounds * E_MAC)
            * 1e-12;

        energy + delay * self.p_ref
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;
    use gemini_model::zoo;

    fn partition(dnn: &Dnn, batch: u32) -> GraphPartition {
        partition_graph(
            dnn,
            &presets::g_arch_72(),
            batch,
            &PartitionOptions::default(),
        )
    }

    #[test]
    fn covers_all_compute_layers_once() {
        let dnn = zoo::resnet50();
        let p = partition(&dnn, 16);
        let mut seen = std::collections::HashSet::new();
        for g in &p.groups {
            assert!(!g.members.is_empty());
            assert!(g.members.len() <= 36);
            for &m in &g.members {
                assert!(!dnn.layer(m).is_input());
                assert!(seen.insert(m), "{m} appears twice");
            }
        }
        assert_eq!(seen.len(), dnn.compute_ids().count());
    }

    #[test]
    fn groups_are_contiguous_topo_segments() {
        let dnn = zoo::transformer_base();
        let p = partition(&dnn, 16);
        let layers: Vec<LayerId> = dnn.compute_ids().collect();
        let mut idx = 0;
        for g in &p.groups {
            for &m in &g.members {
                assert_eq!(m, layers[idx], "groups must tile the topo order");
                idx += 1;
            }
        }
    }

    #[test]
    fn pipelining_wins_over_singletons() {
        // LP mapping exists to keep dependent layers on-chip: the DP
        // should form multi-layer groups for batched ResNet.
        let dnn = zoo::resnet50();
        let p = partition(&dnn, 16);
        let multi = p.groups.iter().filter(|g| g.members.len() > 1).count();
        assert!(
            multi * 2 > p.groups.len(),
            "most groups should pipeline: {multi}/{} are multi-layer",
            p.groups.len()
        );
        assert!(p.avg_layers_concurrent(&dnn) > 1.5);
    }

    #[test]
    fn batch_units_divide_work() {
        let dnn = zoo::resnet50();
        let p = partition(&dnn, 64);
        for g in &p.groups {
            assert!(g.batch_unit >= 1 && g.batch_unit <= 64);
        }
        // At batch 64 at least some groups should use batch units > 1
        // (sub-batching amortizes fill/drain).
        assert!(p.groups.iter().any(|g| g.batch_unit > 1));
    }

    #[test]
    fn batch_one_forces_unit_batch() {
        let dnn = zoo::googlenet();
        let p = partition(&dnn, 1);
        assert!(p.groups.iter().all(|g| g.batch_unit == 1));
    }

    #[test]
    fn group_of_finds_layers() {
        let dnn = zoo::two_conv_example();
        let p = partition(&dnn, 4);
        assert!(p.group_of(LayerId(1)).is_some());
        assert_eq!(
            p.group_of(LayerId(0)),
            None,
            "input pseudo-layer is unmapped"
        );
    }

    #[test]
    fn infinite_costs_never_win() {
        let dnn = zoo::pnasnet();
        let p = partition(&dnn, 8);
        assert!(!p.is_empty());
    }

    #[test]
    fn group_cost_prefers_feasible_residency() {
        // A single huge-weight FC layer: streaming cost should exceed a
        // small conv's cost by orders of magnitude.
        let dnn = zoo::resnet50();
        let arch = presets::g_arch_72();
        let layers: Vec<LayerId> = dnn.compute_ids().collect();
        let c_small = group_cost(&dnn, &arch, &layers[..1], 1, 1);
        assert!(c_small.is_finite());
        assert!(c_small > 0.0);
    }
}
