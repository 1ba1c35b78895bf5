//! Rung 0 of the fidelity ladder: closed-form lower bounds on group
//! latency and energy (GOMA-style, see PAPERS.md).
//!
//! [`group_bound`] derives, from *structural* facts of a
//! [`GroupMapping`] only — member layers, flow selectors
//! (DRAM vs in-group), batch unit — a bound that every mapping of the
//! same group structure must obey:
//!
//! * **Compute roofline.** Total MACs (vector ops, GLB stream bytes)
//!   divided by the aggregate PE (lane, GLB-port) capacity of *all*
//!   cores lower-bounds the slowest core's cycle count, however work is
//!   split.
//! * **Minimum DRAM traffic.** Every output byte with a DRAM
//!   destination is written once; every DRAM-sourced input must cover
//!   the union of the per-part needs, which by monotonicity of
//!   `input_need` holds every single output index's need: at least
//!   [`Dnn::min_input_elems`] per sample of the batch unit, in closed
//!   form (sound even when strides make per-part needs disjoint);
//!   weight slices jointly cover the full tensor.
//! * **Minimum NoC occupancy.** Every DRAM read byte crosses exactly
//!   one DRAM-injection link and every write byte one ejection link, so
//!   the busiest link carries at least `max(R, W)` spread over all DRAM
//!   ports.
//!
//! The bound never reads the part decomposition, so it is valid for the
//! *entire* SA search space of a group (part shapes, core assignments
//! and orderings all vary; the flow structure and batch unit do not).
//! That is what lets the DSE prune a candidate architecture before any
//! annealing: if the bound already loses to an achieved incumbent, no
//! mapping of that candidate can win.
//!
//! [`bound_achieving_mapping`] constructs, for GEMM-shaped layers
//! (FC / weight matmul / 1x1 convolution), the output-channel-split
//! mapping that meets the DRAM-traffic bound exactly: all parts need
//! the identical (whole) input so the multicast dedup fetches it once,
//! and weight/output slices are disjoint covers.

use gemini_arch::CoreId;
use gemini_model::{Dnn, Layer, LayerId, LayerKind, MatmulOperand, Range1, Region};

use crate::energy::D2dEnergyModel;
use crate::evaluate::Evaluator;
use crate::mapping::{DramSel, GroupMapping, LayerAssignment, PredSrc};

/// Relative safety margin applied to the final float bounds.
///
/// Every term is mathematically `<=` the evaluator's value, but the
/// evaluator folds its sums in member/part order while the bound folds
/// in structural order; when a term is *exactly* tight (e.g. the MAC
/// energy of a single-part group) the two float summation orders may
/// disagree in the last ulp. One part in 1e9 dwarfs any such
/// associativity noise without weakening the bound measurably.
const SLACK: f64 = 1.0 - 1e-9;

/// Closed-form lower bound for one layer group (one pipeline stage
/// structure). All quantities are per the *model*, i.e. they bound
/// [`Evaluator::evaluate_group`], not physical hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBound {
    /// Roofline cycles of the slowest core in one stage (MAC, vector
    /// and GLB-stream rooflines over the aggregate core capacity).
    pub cycles: u64,
    /// Lower bound on the stage time in seconds (includes the fixed
    /// per-stage overhead).
    pub stage_s: f64,
    /// Pipeline rounds (`ceil(batch / batch_unit)`), exact.
    pub rounds: u32,
    /// Pipeline depth within the group, exact.
    pub depth: u32,
    /// Lower bound on the one-time weight-load delay in seconds.
    pub weight_load_s: f64,
    /// Lower bound on the total group delay in seconds.
    pub delay_s: f64,
    /// Minimum DRAM bytes read per stage (the closed-form minimum
    /// footprint of every DRAM-sourced input flow).
    pub dram_read_bytes: u64,
    /// Minimum DRAM bytes written per stage (full output regions of
    /// members with a DRAM destination).
    pub dram_write_bytes: u64,
    /// One-time weight bytes loaded from DRAM (exact total of members
    /// with a weight flow).
    pub weight_bytes: u64,
    /// MACs per stage, exact.
    pub macs: u64,
    /// Vector ops per stage, exact.
    pub vector_ops: u64,
    /// Lower bound on total group energy in joules (all rounds plus
    /// weight loading).
    pub energy_j: f64,
}

impl GroupBound {
    /// Energy-delay product of the bound (J*s). A lower bound on the
    /// achieved EDP because both factors are nonnegative lower bounds.
    pub fn edp(&self) -> f64 {
        self.delay_s * self.energy_j
    }

    /// Total DRAM bytes over the whole group execution: steady-state
    /// reads and writes every round plus the one-time weight load.
    pub fn total_dram_bytes(&self) -> u64 {
        (self.dram_read_bytes + self.dram_write_bytes) * self.rounds as u64 + self.weight_bytes
    }
}

/// Closed-form lower bound for a whole DNN mapping (sum of its group
/// bounds, mirroring [`Evaluator::evaluate_dnn`]'s summation).
#[derive(Debug, Clone, PartialEq)]
pub struct DnnBound {
    /// Lower bound on end-to-end delay in seconds.
    pub delay_s: f64,
    /// Lower bound on total energy in joules.
    pub energy_j: f64,
    /// Sum of per-group roofline stage cycles (golden-test pin).
    pub cycles: u64,
    /// Sum of per-group minimum total DRAM bytes (golden-test pin).
    pub dram_bytes: u64,
    /// Per-group bounds in group order.
    pub groups: Vec<GroupBound>,
}

impl DnnBound {
    /// Energy-delay product of the bound (J*s).
    pub fn edp(&self) -> f64 {
        self.delay_s * self.energy_j
    }
}

/// Lower bounds one layer group. Reads only structure (members, flow
/// selectors, batch unit) — never the part decomposition — so the
/// result bounds every mapping in the group's SA search space.
pub fn group_bound(ev: &Evaluator, dnn: &Dnn, gm: &GroupMapping, batch: u32) -> GroupBound {
    let arch = ev.arch();
    let profile = ev.profile();
    let em = ev.energy_model();
    let opts = ev.options();
    let bu = gm.batch_unit.max(1);
    let rounds = batch.div_ceil(bu).max(1);
    let depth = gm.depth(dnn);

    // Aggregate capacities over *all* cores (idle cores only loosen the
    // bound) and the cheapest per-byte GLB energy of any core.
    let mut macs_cap = 0u64;
    let mut lanes_cap = 0u64;
    let mut bpc_cap = 0u64;
    let mut min_glb_pj = f64::INFINITY;
    for c in arch.cores() {
        let m = profile.macs(c) as u64;
        macs_cap += m;
        // Mirrors gemini_intracore::CoreParams::from_arch.
        lanes_cap += (m / 16).max(8);
        bpc_cap += (m / 16).max(32);
        let pj = em.glb_pj_per_byte(profile.glb_bytes(c));
        if pj < min_glb_pj {
            min_glb_pj = pj;
        }
    }

    let mut macs = 0u64;
    let mut vector_ops = 0u64;
    let mut read_bytes = 0u64;
    let mut write_bytes = 0u64;
    let mut in_bytes = 0u64;
    let mut out_elems_total = 0u64;
    let mut weight_bytes = 0u64;
    let mut glb_weight_lb = 0.0f64;
    for m in &gm.members {
        let layer = dnn.layer(m.layer);
        let out_elems = layer.ofmap.elems() * bu as u64;
        macs += out_elems * layer.macs_per_out();
        vector_ops += out_elems * layer.vector_ops_per_out();
        out_elems_total += out_elems;
        for (p, src) in m.pred_srcs.iter().enumerate() {
            let u = dnn.min_input_elems(m.layer, p) * bu as u64 * gemini_model::BYTES_PER_ELEM;
            in_bytes += u;
            if matches!(src, PredSrc::Dram(_)) {
                read_bytes += u;
            }
        }
        if m.of_dst.is_some() {
            write_bytes += out_elems * gemini_model::BYTES_PER_ELEM;
        }
        let wb = layer.weight_bytes();
        if wb > 0 {
            // Per-part weight bytes are rounded to whole bytes, so each
            // of at most n_cores parts may undercount by half a byte.
            glb_weight_lb += (wb as f64 - 0.5 * arch.n_cores() as f64).max(0.0);
        }
        if m.wgt_src.is_some() {
            weight_bytes += wb;
        }
    }

    // Timing rooflines.
    let glb_stream_lb = in_bytes as f64 + out_elems_total as f64 + glb_weight_lb;
    let mut compute_cycles = 0.0f64;
    if macs_cap > 0 {
        compute_cycles = compute_cycles.max(macs as f64 / macs_cap as f64);
    }
    if lanes_cap > 0 {
        compute_cycles = compute_cycles.max(vector_ops as f64 / lanes_cap as f64);
    }
    if bpc_cap > 0 {
        compute_cycles = compute_cycles.max(glb_stream_lb / bpc_cap as f64);
    }
    // The slowest core's cycle count is an integer >= the real-valued
    // roofline, hence >= its ceiling.
    let cycles = compute_cycles.ceil() as u64;
    let freq_hz = arch.freq_ghz() * 1e9;
    let compute_s = cycles as f64 / freq_hz;

    let n_ports: usize = (0..arch.dram_count())
        .map(|d| ev.network().dram_port_coords(d).len())
        .sum();
    let noc_bw = arch.noc_bw() * 1e9;
    let noc_s = if n_ports > 0 && noc_bw > 0.0 {
        read_bytes.max(write_bytes) as f64 / (n_ports as f64 * noc_bw)
    } else {
        0.0
    };
    let dram_bw = arch.dram_bw() * 1e9;
    let dram_s = if dram_bw > 0.0 {
        (read_bytes + write_bytes) as f64 / dram_bw
    } else {
        0.0
    };
    let stage_s = compute_s.max(noc_s).max(dram_s) + opts.stage_overhead_s;
    let weight_load_s = if dram_bw > 0.0 {
        weight_bytes as f64 / dram_bw
    } else {
        0.0
    };
    let stages = (rounds + depth - 1) as f64;
    let delay_s = (stage_s * stages + weight_load_s + opts.group_overhead_s) * SLACK;

    // Energy: MAC and vector are exact; GLB uses the cheapest core's
    // per-byte cost on the minimum stream volume; every DRAM byte also
    // crosses at least one NoC (injection/ejection) hop; D2D is zero
    // under the volume model and power x stage time under SerDes.
    let d2d_j = match em.d2d_model {
        D2dEnergyModel::SerdesPower {
            watts_per_interface,
        } => {
            let n_if = arch.d2d_per_chiplet() as f64 * arch.n_chiplets() as f64;
            n_if * watts_per_interface * stage_s
        }
        _ => 0.0,
    };
    let per_round = macs as f64 * em.mac_pj * 1e-12
        + vector_ops as f64 * em.vector_pj * 1e-12
        + glb_stream_lb * min_glb_pj * 1e-12
        + (read_bytes + write_bytes) as f64
            * (em.noc_pj_per_byte_hop + em.dram_pj_per_byte)
            * 1e-12
        + d2d_j;
    let load_j = weight_bytes as f64 * (em.noc_pj_per_byte_hop + em.dram_pj_per_byte) * 1e-12;
    let energy_j = (per_round * rounds as f64 + load_j) * SLACK;

    GroupBound {
        cycles,
        stage_s,
        rounds,
        depth,
        weight_load_s,
        delay_s,
        dram_read_bytes: read_bytes,
        dram_write_bytes: write_bytes,
        weight_bytes,
        macs,
        vector_ops,
        energy_j,
    }
}

/// Lower bounds a whole DNN mapping: per-group bounds summed exactly as
/// [`Evaluator::evaluate_dnn`] sums its group reports.
pub fn dnn_bound(ev: &Evaluator, dnn: &Dnn, gms: &[GroupMapping], batch: u32) -> DnnBound {
    let groups: Vec<GroupBound> = gms
        .iter()
        .map(|gm| group_bound(ev, dnn, gm, batch))
        .collect();
    let mut delay_s = 0.0;
    let mut energy_j = 0.0;
    let mut cycles = 0u64;
    let mut dram_bytes = 0u64;
    for g in &groups {
        delay_s += g.delay_s;
        energy_j += g.energy_j;
        cycles += g.cycles;
        dram_bytes += g.total_dram_bytes();
    }
    DnnBound {
        delay_s,
        energy_j,
        cycles,
        dram_bytes,
        groups,
    }
}

/// Whether a layer is GEMM-shaped: its `input_need` is the whole
/// predecessor tensor for *any* output-channel slice, so an
/// output-channel split makes all per-part input needs identical.
pub fn gemm_shaped(layer: &Layer) -> bool {
    match &layer.kind {
        LayerKind::Fc { .. } => true,
        LayerKind::Matmul {
            operand: MatmulOperand::Weight,
            ..
        } => true,
        LayerKind::Conv(p) => {
            p.kernel == (1, 1) && p.stride == (1, 1) && p.pad == (0, 0) && p.groups == 1
        }
        _ => false,
    }
}

/// Constructs the bound-achieving mapping of one GEMM-shaped layer over
/// `cores`: output channels are split as evenly as possible, everything
/// else stays whole.
///
/// This meets the DRAM-traffic terms of [`group_bound`] exactly — every
/// part needs the identical (whole) input so the multicast dedup
/// fetches it once, weight slices are a disjoint cover (volume =
/// `weight_bytes()`), and output slices are a disjoint cover. Returns
/// `None` for non-GEMM layers (halo'd windows make the union bound
/// unattainable by channel splits alone) or an empty core list.
pub fn bound_achieving_mapping(
    dnn: &Dnn,
    layer: LayerId,
    cores: &[CoreId],
    batch_unit: u32,
) -> Option<GroupMapping> {
    let l = dnn.layer(layer);
    if !gemm_shaped(l) || cores.is_empty() {
        return None;
    }
    let bu = batch_unit.max(1);
    let n = (cores.len() as u32).min(l.ofmap.c).max(1);
    let mut parts = Vec::with_capacity(n as usize);
    for (i, &c) in cores.iter().take(n as usize).enumerate() {
        let k = gemini_model::split_dim(l.ofmap.c, n, i as u32);
        parts.push((
            c,
            Region::new(
                Range1::full(l.ofmap.h),
                Range1::full(l.ofmap.w),
                k,
                Range1::full(bu),
            ),
        ));
    }
    let n_preds = dnn.preds(layer).len();
    let member = LayerAssignment {
        layer,
        parts,
        pred_srcs: vec![PredSrc::Dram(DramSel::Interleaved); n_preds],
        wgt_src: if l.has_weights() {
            Some(DramSel::Interleaved)
        } else {
            None
        },
        of_dst: Some(DramSel::Interleaved),
    };
    Some(GroupMapping {
        members: vec![member],
        batch_unit: bu,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets::g_arch_72;

    #[test]
    fn bound_achieving_mapping_rejects_windowed_layers() {
        let dnn = gemini_model::zoo::by_name("resnet50")
            .expect("zoo workload")
            .graph;
        let arch = g_arch_72();
        let cores: Vec<_> = arch.cores().collect();
        let mut some = false;
        for id in dnn.compute_ids() {
            if let Some(gm) = bound_achieving_mapping(&dnn, id, &cores, 1) {
                assert!(gemm_shaped(dnn.layer(id)));
                assert!(gm.validate(&dnn).is_ok());
                some = true;
            }
        }
        assert!(some, "expected at least one GEMM-shaped layer");
    }
}
