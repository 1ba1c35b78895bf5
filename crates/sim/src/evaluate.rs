//! The global evaluator: traffic, timing and energy for group mappings.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use gemini_arch::{ArchConfig, CoreId};
use gemini_intracore::IntraCoreExplorer;
use gemini_model::{Dnn, Region};
use gemini_noc::{LinkId, Network, TrafficMap};

use crate::energy::{D2dEnergyModel, EnergyBreakdown, EnergyModel};
use crate::mapping::{DramSel, GroupMapping, PredSrc};
use crate::profile::CoreProfile;
use crate::workload::part_workload;

/// What limits the pipeline stage time of a group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StageBottleneck {
    /// A core's compute/GLB time.
    Compute(CoreId),
    /// A NoC/D2D/DRAM-port link.
    Link(LinkId),
    /// A DRAM controller's aggregate bandwidth.
    Dram(u32),
}

/// Evaluation result for one layer group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupReport {
    /// Steady-state time of one pipeline stage (one batch unit through
    /// one layer), in seconds.
    pub stage_time_s: f64,
    /// Total group delay: `stage x (rounds + depth - 1)` plus one-time
    /// weight loading.
    pub delay_s: f64,
    /// Pipeline rounds (`ceil(batch / batch_unit)`).
    pub rounds: u32,
    /// Pipeline depth (longest dependency chain inside the group).
    pub depth: u32,
    /// One-time weight-load delay included in `delay_s`.
    pub weight_load_s: f64,
    /// Full energy breakdown for the group (all rounds + loading).
    pub energy: EnergyBreakdown,
    /// Steady-state per-link traffic of one stage.
    pub traffic: TrafficMap,
    /// Steady-state bytes served by each DRAM during one stage.
    pub dram_bytes: Vec<f64>,
    /// What limits the stage.
    pub bottleneck: StageBottleneck,
    /// Whether all per-core weight working sets fit in half the GLB
    /// (weights resident; loaded once per group execution).
    pub weights_resident: bool,
}

impl GroupReport {
    /// Whether two reports are bit-identical: every floating-point
    /// field compares equal by bit pattern (`to_bits`), and the
    /// discrete fields compare equal.
    ///
    /// This is the contract the incremental evaluator
    /// ([`crate::delta::GroupEvalState`]) asserts against a cold
    /// [`Evaluator::evaluate_group`]: not "close", *identical* — a
    /// delta evaluation folds the same per-member records through the
    /// same summation order, so any difference at all is a
    /// dirty-tracking bug.
    pub fn bit_identical(&self, other: &GroupReport) -> bool {
        let f = |a: f64, b: f64| a.to_bits() == b.to_bits();
        // Exhaustive destructuring (no `..` rest patterns): adding a
        // field to GroupReport or EnergyBreakdown without extending
        // this comparison is a compile error, not a silent hole in the
        // delta-vs-cold gate.
        let GroupReport {
            stage_time_s,
            delay_s,
            rounds,
            depth,
            weight_load_s,
            energy,
            traffic,
            dram_bytes,
            bottleneck,
            weights_resident,
        } = self;
        let crate::energy::EnergyBreakdown {
            mac,
            vector,
            glb,
            noc,
            d2d,
            dram,
        } = energy;
        f(*stage_time_s, other.stage_time_s)
            && f(*delay_s, other.delay_s)
            && *rounds == other.rounds
            && *depth == other.depth
            && f(*weight_load_s, other.weight_load_s)
            && f(*mac, other.energy.mac)
            && f(*vector, other.energy.vector)
            && f(*glb, other.energy.glb)
            && f(*noc, other.energy.noc)
            && f(*d2d, other.energy.d2d)
            && f(*dram, other.energy.dram)
            && traffic == &other.traffic
            && dram_bytes.len() == other.dram_bytes.len()
            && dram_bytes
                .iter()
                .zip(&other.dram_bytes)
                .all(|(a, b)| f(*a, *b))
            && bottleneck == &other.bottleneck
            && *weights_resident == other.weights_resident
    }
}

/// Evaluation result for a whole DNN (all groups).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DnnReport {
    /// End-to-end delay in seconds.
    pub delay_s: f64,
    /// Total energy breakdown in joules.
    pub energy: EnergyBreakdown,
    /// Per-group reports.
    pub groups: Vec<GroupReport>,
}

impl DnnReport {
    /// Energy-delay product (J*s).
    pub fn edp(&self) -> f64 {
        self.delay_s * self.energy.total()
    }
}

/// Fixed per-pipeline-stage overhead in seconds (control, barrier
/// synchronization and DMA setup between sub-batches). This is what
/// makes the graph partitioner's batch-unit choice a real trade-off:
/// tiny sub-batches pay it every round.
pub const STAGE_OVERHEAD_S: f64 = 1e-6;

/// Fixed per-layer-group overhead in seconds: reconfiguring every core
/// (new instructions, dataflow setup), draining in-flight traffic and
/// re-priming buffers when the accelerator switches groups. Penalizes
/// partitions made of many tiny groups.
pub const GROUP_OVERHEAD_S: f64 = 5e-6;

/// Weight of the average-utilization congestion surcharge added to the
/// network stage time (multiples of the mean per-link transfer time).
pub const CONGESTION_WEIGHT: f64 = 4.0;

/// Tunable evaluator mechanisms.
///
/// Defaults are the model every mapping path uses (the congestion weight
/// can be re-calibrated against the packet simulator, see
/// `docs/ARCHITECTURE.md`, "The NoC fidelity ladder in the DSE"); the
/// `ablation_model` bench toggles each knob to quantify its contribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalOptions {
    /// Congestion surcharge weight (multiples of the mean per-link time
    /// added to the bottleneck-link time). `0.0` disables queueing
    /// effects entirely.
    pub congestion_weight: f64,
    /// Per-pipeline-stage overhead in seconds.
    pub stage_overhead_s: f64,
    /// Per-layer-group switch overhead in seconds.
    pub group_overhead_s: f64,
    /// Whether GLB working-set overflow spills to DRAM every round.
    /// Disabling pretends buffers are infinite (removes the GLB-size and
    /// core-granularity trade-offs).
    pub spill_enabled: bool,
    /// Whether identical flows to multiple destinations share multicast
    /// trees. Disabling sends a separate unicast copy per destination
    /// (the "even with multicast capabilities" comparison of Sec. IV-C).
    pub multicast_enabled: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            congestion_weight: CONGESTION_WEIGHT,
            stage_overhead_s: STAGE_OVERHEAD_S,
            group_overhead_s: GROUP_OVERHEAD_S,
            spill_enabled: true,
            multicast_enabled: true,
        }
    }
}

impl EvalOptions {
    /// Returns a copy with the congestion surcharge weight replaced —
    /// the calibration hook the fidelity ladder uses to feed an
    /// observed analytic-vs-reference discrepancy back into the cheap
    /// model (see [`crate::fidelity::calibrate_congestion_weight`]).
    #[must_use]
    pub fn with_congestion_weight(mut self, weight: f64) -> Self {
        self.congestion_weight = weight;
        self
    }
}

/// One member layer's decomposed contribution to a group evaluation
/// (the per-layer "stage record" of the incremental evaluator).
///
/// [`Evaluator::evaluate_group`] is *defined* as building one record per
/// member and folding them in member order (`Evaluator::fold_group`);
/// the delta evaluator ([`crate::delta::GroupEvalState`]) reuses clean
/// records and re-runs `Evaluator::member_record` only for dirty
/// members, so a delta fold is bit-identical to a cold evaluation by
/// construction.
///
/// A record depends on exactly: the member's own
/// [`crate::mapping::LayerAssignment`] (parts, flow selectors), the
/// `parts` of its in-group producers (peer flows), the group's
/// `batch_unit`, and the immutable DNN/architecture — which is what
/// makes the per-operator dirty footprints in `gemini-core` sufficient
/// invalidation.
#[derive(Debug, Clone)]
pub struct MemberRecord {
    /// `(core index, cycles)` per non-empty part, in part order.
    pub(crate) core_cycles: Vec<(usize, u64)>,
    /// GLB access energy of this member's parts (pJ).
    pub(crate) glb_energy_pj: f64,
    /// MAC count over the member's parts.
    pub(crate) macs: u64,
    /// Vector-op count over the member's parts.
    pub(crate) vector_ops: u64,
    /// `(core index, working-set bytes)` per non-empty part.
    pub(crate) working_set: Vec<(usize, u64)>,
    /// Steady-state traffic of this member's ifmap reads (peer + DRAM)
    /// and ofmap writes, one stage.
    pub(crate) traffic: TrafficMap,
    /// Steady-state bytes served by each DRAM for this member.
    pub(crate) dram_bytes: Vec<f64>,
    /// One-time weight-load traffic of this member.
    pub(crate) load_traffic: TrafficMap,
    /// One-time weight-load bytes per DRAM.
    pub(crate) load_dram: Vec<f64>,
}

/// The performance/energy evaluator for one architecture.
#[derive(Debug)]
pub struct Evaluator {
    arch: ArchConfig,
    net: Network,
    profile: CoreProfile,
    energy: EnergyModel,
    opts: EvalOptions,
}

impl Evaluator {
    /// Creates an evaluator with the default energy model.
    pub fn new(arch: &ArchConfig) -> Self {
        Self::with_energy(arch, EnergyModel::default())
    }

    /// Creates an evaluator with a custom energy model.
    pub fn with_energy(arch: &ArchConfig, energy: EnergyModel) -> Self {
        Self::with_profile(
            arch,
            energy,
            EvalOptions::default(),
            CoreProfile::homogeneous(arch),
        )
    }

    /// Creates an evaluator with custom [`EvalOptions`] (ablations).
    pub fn with_options(arch: &ArchConfig, energy: EnergyModel, opts: EvalOptions) -> Self {
        Self::with_profile(arch, energy, opts, CoreProfile::homogeneous(arch))
    }

    /// Creates an evaluator over a heterogeneous chiplet assignment
    /// (Sec. V-D): cores take their PE-array size and GLB capacity from
    /// their chiplet's [`gemini_arch::CoreClass`].
    pub fn hetero(arch: &ArchConfig, spec: &gemini_arch::HeteroSpec) -> Self {
        Self::with_profile(
            arch,
            EnergyModel::default(),
            EvalOptions::default(),
            CoreProfile::heterogeneous(arch, spec),
        )
    }

    /// Fully-custom construction: energy model, options and core profile.
    pub fn with_profile(
        arch: &ArchConfig,
        energy: EnergyModel,
        opts: EvalOptions,
        profile: CoreProfile,
    ) -> Self {
        let net = Network::new(arch);
        Self {
            arch: arch.clone(),
            net,
            profile,
            energy,
            opts,
        }
    }

    /// Overrides the per-stage pipeline overhead (seconds).
    pub fn set_stage_overhead(&mut self, s: f64) {
        self.opts.stage_overhead_s = s;
    }

    /// Overrides the congestion surcharge weight (calibration feedback
    /// from the fidelity ladder; see
    /// [`crate::fidelity::calibrate_congestion_weight`]).
    pub fn set_congestion_weight(&mut self, weight: f64) {
        self.opts.congestion_weight = weight;
    }

    /// The architecture under evaluation.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The interconnect model.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The per-core resource profile (exposes the intra-core memo
    /// caches).
    pub fn profile(&self) -> &CoreProfile {
        &self.profile
    }

    /// The intra-core explorer of class 0 (the only class on
    /// homogeneous profiles).
    pub fn intracore(&self) -> &IntraCoreExplorer {
        self.profile.class_explorer(0)
    }

    /// The evaluator options in use.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Evaluates a whole DNN mapping: per-group evaluation plus summation
    /// (groups execute sequentially; inter-group data goes through DRAM,
    /// which both the producing and consuming group account for).
    pub fn evaluate_dnn(&self, dnn: &Dnn, groups: &[GroupMapping], batch: u32) -> DnnReport {
        let mut delay = 0.0;
        let mut energy = EnergyBreakdown::default();
        let mut reports = Vec::with_capacity(groups.len());
        for gm in groups {
            let r = self.evaluate_group(dnn, gm, batch);
            delay += r.delay_s;
            energy.add(&r.energy);
            reports.push(r);
        }
        DnnReport {
            delay_s: delay,
            energy,
            groups: reports,
        }
    }

    /// Evaluates one layer group's mapping for a total batch of `batch`
    /// samples processed in units of `gm.batch_unit`.
    ///
    /// A zero `batch_unit` is a structural error that
    /// [`GroupMapping::validate`] reports as
    /// [`crate::mapping::MappingError::ZeroBatchUnit`]; here it is
    /// clamped to one sample per stage rather than dividing by zero, so
    /// un-validated mappings degrade instead of panicking.
    pub fn evaluate_group(&self, dnn: &Dnn, gm: &GroupMapping, batch: u32) -> GroupReport {
        let records: Vec<MemberRecord> = (0..gm.members.len())
            .map(|mi| self.member_record(dnn, gm, mi))
            .collect();
        let refs: Vec<&MemberRecord> = records.iter().collect();
        self.fold_group(dnn, gm, batch, &refs)
    }

    /// Builds the decomposed stage record of member `mi` (see
    /// [`MemberRecord`] for the exact dependency footprint).
    pub(crate) fn member_record(&self, dnn: &Dnn, gm: &GroupMapping, mi: usize) -> MemberRecord {
        let d = self.arch.dram_count() as usize;
        let m = &gm.members[mi];
        let mut rec = MemberRecord {
            core_cycles: Vec::with_capacity(m.parts.len()),
            glb_energy_pj: 0.0,
            macs: 0,
            vector_ops: 0,
            working_set: Vec::with_capacity(m.parts.len()),
            traffic: TrafficMap::new(&self.net),
            dram_bytes: vec![0.0f64; d],
            load_traffic: TrafficMap::new(&self.net),
            load_dram: vec![0.0f64; d],
        };
        let mut scratch = Vec::with_capacity(64);
        let mut tree = Vec::with_capacity(64);

        // --- Per-core compute (intra-core engine) -------------------
        for (core, region) in &m.parts {
            if region.is_empty() {
                continue;
            }
            let wl = part_workload(dnn, m.layer, region);
            let r = self.profile.explorer(*core).explore(&wl);
            rec.core_cycles.push((core.idx(), r.cycles));
            rec.glb_energy_pj +=
                r.glb_bytes as f64 * self.energy.glb_pj_per_byte(self.profile.glb_bytes(*core));
            rec.macs += r.macs;
            rec.vector_ops += r.vector_ops;
            // Outputs are held until the consumer stage reads
            // them; inputs need residency only when the reduction
            // reuses them across output-channel tiles (vector-only
            // layers stream).
            let mut ws = region.bytes();
            if !wl.is_vector_only() {
                ws += wl.in_bytes / 2;
            }
            if m.wgt_src.is_some() {
                ws += wl.weight_bytes;
            }
            rec.working_set.push((core.idx(), ws));
        }

        // --- Steady-state traffic (one stage) ------------------------
        for (pi, src) in m.pred_srcs.iter().enumerate() {
            match src {
                PredSrc::InGroup { member_idx } => {
                    let producer = &gm.members[*member_idx];
                    self.add_peer_flows(dnn, gm, mi, pi, producer, &mut rec.traffic, &mut tree);
                }
                PredSrc::Dram(sel) => {
                    self.add_dram_reads(
                        dnn,
                        m,
                        pi,
                        *sel,
                        &mut rec.traffic,
                        &mut rec.dram_bytes,
                        &mut scratch,
                        &mut tree,
                    );
                }
            }
        }
        // Ofmap writes to DRAM.
        if let Some(sel) = m.of_dst {
            for (core, region) in &m.parts {
                if region.is_empty() {
                    continue;
                }
                self.add_dram_write(
                    *core,
                    region.bytes() as f64,
                    sel,
                    &mut rec.traffic,
                    &mut rec.dram_bytes,
                    &mut scratch,
                );
            }
        }

        // --- One-time weight loading ---------------------------------
        if let Some(sel) = m.wgt_src {
            self.add_weight_flows(
                dnn,
                m,
                sel,
                &mut rec.load_traffic,
                &mut rec.load_dram,
                &mut scratch,
                &mut tree,
            );
        }
        rec
    }

    /// Folds per-member stage records into the group report.
    ///
    /// This is the single canonical aggregation: records are folded in
    /// member order (float summation order is fixed), then the
    /// cross-member couplings — GLB spill from per-core working-set
    /// totals, the stage bottleneck, the congestion surcharge and the
    /// energy roll-up — are applied on the folded aggregates. Cold and
    /// delta evaluations share this code, which is what makes them
    /// bit-identical.
    pub(crate) fn fold_group(
        &self,
        dnn: &Dnn,
        gm: &GroupMapping,
        batch: u32,
        records: &[&MemberRecord],
    ) -> GroupReport {
        debug_assert_eq!(records.len(), gm.members.len(), "one record per member");
        let d = self.arch.dram_count() as usize;
        let rounds = batch.div_ceil(gm.batch_unit.max(1)).max(1);
        let member_ids = gm.layer_ids();
        let depth = dnn.depth_within(&member_ids);

        let n_cores = self.arch.n_cores() as usize;
        let mut core_cycles = vec![0u64; n_cores];
        let mut glb_energy_pj = 0.0f64;
        let mut macs_total = 0u64;
        let mut vector_total = 0u64;
        // Per-core working set: resident weight slices plus the
        // feature-map tiles of one stage (inputs incl. halo + outputs;
        // streamed, so single-buffered). Anything beyond the GLB
        // capacity spills to DRAM every round — this is what makes core
        // granularity and GLB size genuine trade-offs (Sec. VII-A2).
        let mut core_working_set = vec![0u64; n_cores];
        let mut traffic = TrafficMap::new(&self.net);
        let mut dram_bytes = vec![0.0f64; d];
        let mut load_traffic = TrafficMap::new(&self.net);
        let mut load_dram = vec![0.0f64; d];

        for rec in records {
            for &(c, cycles) in &rec.core_cycles {
                core_cycles[c] += cycles;
            }
            glb_energy_pj += rec.glb_energy_pj;
            macs_total += rec.macs;
            vector_total += rec.vector_ops;
            for &(c, ws) in &rec.working_set {
                core_working_set[c] += ws;
            }
            traffic.merge_scaled(&rec.traffic, 1.0);
            for (a, b) in dram_bytes.iter_mut().zip(&rec.dram_bytes) {
                *a += b;
            }
            load_traffic.merge_scaled(&rec.load_traffic, 1.0);
            for (a, b) in load_dram.iter_mut().zip(&rec.load_dram) {
                *a += b;
            }
        }
        let weights_resident = core_working_set
            .iter()
            .enumerate()
            .all(|(i, &ws)| ws <= self.profile.glb_bytes(CoreId(i as u16)));

        // --- Capacity spills ------------------------------------------
        // Weights are loaded once per group execution (one-time map);
        // any working-set overflow beyond the GLB spills to DRAM every
        // round (written back and re-fetched), on top of that.
        let mut scratch = Vec::with_capacity(64);
        let mut tree = Vec::with_capacity(64);
        if self.opts.spill_enabled {
            for (i, &ws) in core_working_set.iter().enumerate() {
                let core = CoreId(i as u16);
                let overflow = ws.saturating_sub(self.profile.glb_bytes(core)) as f64;
                if overflow > 0.0 {
                    self.add_dram_write(
                        core,
                        overflow,
                        DramSel::Interleaved,
                        &mut traffic,
                        &mut dram_bytes,
                        &mut scratch,
                    );
                    self.dram_multicast(
                        &[core],
                        overflow,
                        DramSel::Interleaved,
                        &mut traffic,
                        &mut dram_bytes,
                        &mut scratch,
                        &mut tree,
                    );
                }
            }
        }

        // --- Stage time -----------------------------------------------
        let freq = self.arch.freq_ghz() * 1e9;
        let mut stage = 0.0f64;
        let mut bottleneck = StageBottleneck::Compute(CoreId(0));
        for (i, &c) in core_cycles.iter().enumerate() {
            let t = c as f64 / freq;
            if t > stage {
                stage = t;
                bottleneck = StageBottleneck::Compute(CoreId(i as u16));
            }
        }
        if let Some((link, t)) = traffic.busiest(&self.net) {
            // Beyond the saturated link, average utilization costs
            // queueing delay: mappings that move the same bytes over
            // longer paths are slower even before any link saturates
            // (congestion surcharge; see `docs/ARCHITECTURE.md`, "The
            // NoC fidelity ladder in the DSE").
            let t = t + self.opts.congestion_weight * traffic.mean_link_time(&self.net);
            if t > stage {
                stage = t;
                bottleneck = StageBottleneck::Link(link);
            }
        }
        let per_dram_bw = self.arch.dram_bw() / d as f64 * 1e9;
        for (i, &b) in dram_bytes.iter().enumerate() {
            let t = b / per_dram_bw;
            if t > stage {
                stage = t;
                bottleneck = StageBottleneck::Dram(i as u32);
            }
        }

        // --- Weight-load time (resident case) -------------------------
        let mut weight_load_s = load_traffic.bottleneck_time(&self.net);
        for &b in &load_dram {
            weight_load_s = weight_load_s.max(b / per_dram_bw);
        }

        let stage = stage + self.opts.stage_overhead_s;
        let delay = stage * (rounds as f64 + depth as f64 - 1.0)
            + weight_load_s
            + self.opts.group_overhead_s;

        // --- Energy ----------------------------------------------------
        let pj = 1e-12;
        let mut per_round = EnergyBreakdown {
            mac: macs_total as f64 * self.energy.mac_pj * pj,
            vector: vector_total as f64 * self.energy.vector_pj * pj,
            glb: glb_energy_pj * pj,
            noc: traffic.noc_hop_bytes(&self.net) * self.energy.noc_pj_per_byte_hop * pj,
            d2d: 0.0,
            dram: dram_bytes.iter().sum::<f64>() * self.energy.dram_pj_per_byte * pj,
        };
        let d2d_volume_energy = traffic.d2d_hop_bytes(&self.net) * self.energy.d2d_pj_per_byte * pj;
        per_round.d2d = match self.energy.d2d_model {
            D2dEnergyModel::GrsVolume => d2d_volume_energy,
            // SerDes burns power for the whole stage on every interface.
            D2dEnergyModel::SerdesPower {
                watts_per_interface,
            } => {
                let n_if = self.arch.d2d_per_chiplet() as f64 * self.arch.n_chiplets() as f64;
                n_if * watts_per_interface * stage
            }
        };
        let mut energy = per_round.scaled(rounds as f64);
        // One-time weight loading energy.
        energy.noc += load_traffic.noc_hop_bytes(&self.net) * self.energy.noc_pj_per_byte_hop * pj;
        if matches!(self.energy.d2d_model, D2dEnergyModel::GrsVolume) {
            energy.d2d += load_traffic.d2d_hop_bytes(&self.net) * self.energy.d2d_pj_per_byte * pj;
        }
        energy.dram += load_dram.iter().sum::<f64>() * self.energy.dram_pj_per_byte * pj;

        GroupReport {
            stage_time_s: stage,
            delay_s: delay,
            rounds,
            depth,
            weight_load_s,
            energy,
            traffic,
            dram_bytes,
            bottleneck,
            weights_resident,
        }
    }

    /// Core-to-core flows for one (consumer member, predecessor) pair.
    ///
    /// Consumer parts are grouped by identical need region so broadcast
    /// patterns (e.g. K-partitioned consumers all needing the full
    /// producer output) ride a multicast tree and pay each link once.
    #[allow(clippy::too_many_arguments)] // threads shared scratch buffers through the hot path
    fn add_peer_flows(
        &self,
        dnn: &Dnn,
        gm: &GroupMapping,
        consumer_idx: usize,
        pred_pos: usize,
        producer: &crate::mapping::LayerAssignment,
        traffic: &mut TrafficMap,
        tree: &mut Vec<LinkId>,
    ) {
        let consumer = &gm.members[consumer_idx];
        let mut by_need: BTreeMap<Region, Vec<CoreId>> = BTreeMap::new();
        for (core, region) in &consumer.parts {
            if region.is_empty() {
                continue;
            }
            let need = dnn.input_need(consumer.layer, pred_pos, region);
            if need.is_empty() {
                continue;
            }
            by_need.entry(need).or_default().push(*core);
        }
        for (need, cores) in by_need {
            for (pc, pr) in &producer.parts {
                let vol = need.overlap_bytes(pr) as f64;
                if vol == 0.0 {
                    continue;
                }
                let dests: Vec<CoreId> = cores.iter().copied().filter(|c| c != pc).collect();
                if dests.is_empty() {
                    continue;
                }
                if self.opts.multicast_enabled {
                    self.net.multicast_cores(*pc, &dests, tree);
                    traffic.add_path(tree, vol);
                } else {
                    // Unicast ablation: one full copy per destination.
                    for d in &dests {
                        self.net.route_cores(*pc, *d, tree);
                        traffic.add_path(tree, vol);
                    }
                }
            }
        }
    }

    /// DRAM-to-core reads for one (consumer, pred) with explicit flow
    /// management (DNN input or previous group's output). Identical need
    /// regions share a multicast tree; volume is split across the DRAM's
    /// ports, and across DRAMs when interleaved.
    #[allow(clippy::too_many_arguments)]
    fn add_dram_reads(
        &self,
        dnn: &Dnn,
        m: &crate::mapping::LayerAssignment,
        pred_pos: usize,
        sel: DramSel,
        traffic: &mut TrafficMap,
        dram_bytes: &mut [f64],
        scratch: &mut [LinkId],
        tree: &mut Vec<LinkId>,
    ) {
        let mut by_need: BTreeMap<Region, Vec<CoreId>> = BTreeMap::new();
        for (core, region) in &m.parts {
            if region.is_empty() {
                continue;
            }
            let need = dnn.input_need(m.layer, pred_pos, region);
            if need.is_empty() {
                continue;
            }
            by_need.entry(need).or_default().push(*core);
        }
        for (need, cores) in by_need {
            let vol = need.bytes() as f64;
            self.dram_multicast(&cores, vol, sel, traffic, dram_bytes, scratch, tree);
        }
    }

    /// Weight flows for one member: distinct output-channel slices are
    /// multicast to the cores that need them.
    #[allow(clippy::too_many_arguments)] // threads shared scratch buffers through the hot path
    fn add_weight_flows(
        &self,
        dnn: &Dnn,
        m: &crate::mapping::LayerAssignment,
        sel: DramSel,
        traffic: &mut TrafficMap,
        dram_bytes: &mut [f64],
        scratch: &mut [LinkId],
        tree: &mut Vec<LinkId>,
    ) {
        let layer = dnn.layer(m.layer);
        let wtotal = layer.weight_bytes() as f64;
        if wtotal == 0.0 {
            return;
        }
        let mut by_slice: BTreeMap<(u32, u32), Vec<CoreId>> = BTreeMap::new();
        for (core, region) in &m.parts {
            if region.is_empty() {
                continue;
            }
            by_slice
                .entry((region.k.start, region.k.end))
                .or_default()
                .push(*core);
        }
        for ((k0, k1), cores) in by_slice {
            let vol = wtotal * (k1 - k0) as f64 / layer.ofmap.c as f64;
            self.dram_multicast(&cores, vol, sel, traffic, dram_bytes, scratch, tree);
        }
    }

    /// Multicasts `vol` bytes from DRAM(s) chosen by `sel` to `cores`,
    /// splitting across controllers (interleave) and each controller's
    /// ports.
    #[allow(clippy::too_many_arguments)]
    fn dram_multicast(
        &self,
        cores: &[CoreId],
        vol: f64,
        sel: DramSel,
        traffic: &mut TrafficMap,
        dram_bytes: &mut [f64],
        _scratch: &mut [LinkId],
        tree: &mut Vec<LinkId>,
    ) {
        let d = self.arch.dram_count();
        let drams: Vec<(u32, f64)> = match sel {
            DramSel::Specific(i) => vec![(i.min(d - 1), vol)],
            DramSel::Interleaved => (0..d).map(|i| (i, vol / d as f64)).collect(),
        };
        for (dram, v) in drams {
            dram_bytes[dram as usize] += v;
            let ports = self.net.dram_port_coords(dram).len() as f64;
            if self.opts.multicast_enabled {
                self.net
                    .multicast_from_dram(dram, cores, tree, |port_tree| {
                        traffic.add_path(port_tree, v / ports);
                    });
            } else {
                // Unicast ablation: each destination gets its own copy.
                for c in cores {
                    self.net
                        .multicast_from_dram(dram, std::slice::from_ref(c), tree, |p| {
                            traffic.add_path(p, v / ports);
                        });
                }
            }
        }
    }

    /// Core-to-DRAM write of `vol` bytes, split across the controller's
    /// ports (and controllers when interleaved).
    fn add_dram_write(
        &self,
        core: CoreId,
        vol: f64,
        sel: DramSel,
        traffic: &mut TrafficMap,
        dram_bytes: &mut [f64],
        scratch: &mut Vec<LinkId>,
    ) {
        let d = self.arch.dram_count();
        let drams: Vec<(u32, f64)> = match sel {
            DramSel::Specific(i) => vec![(i.min(d - 1), vol)],
            DramSel::Interleaved => (0..d).map(|i| (i, vol / d as f64)).collect(),
        };
        for (dram, v) in drams {
            dram_bytes[dram as usize] += v;
            let ports = self.net.dram_port_coords(dram).len() as f64;
            self.net
                .for_each_dram_write_path(core, dram, scratch, |path| {
                    traffic.add_path(path, v / ports);
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::LayerAssignment;
    use gemini_arch::presets;
    use gemini_model::zoo;
    use gemini_model::{split_dim, LayerId, Range1};

    /// Single-layer group: conv1 of the two-conv example split across
    /// `n` cores by K, reading input and weights from DRAM 0, writing
    /// output to DRAM 1.
    fn one_layer_mapping(dnn: &Dnn, cores: &[CoreId], batch_unit: u32) -> GroupMapping {
        let conv1 = LayerId(1);
        let s = dnn.layer(conv1).ofmap;
        let n = cores.len() as u32;
        let parts = cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    *c,
                    Region::new(
                        Range1::full(s.h),
                        Range1::full(s.w),
                        split_dim(s.c, n, i as u32),
                        Range1::full(batch_unit),
                    ),
                )
            })
            .collect();
        GroupMapping {
            members: vec![LayerAssignment {
                layer: conv1,
                parts,
                pred_srcs: vec![PredSrc::Dram(DramSel::Specific(0))],
                wgt_src: Some(DramSel::Specific(0)),
                of_dst: Some(DramSel::Specific(1)),
            }],
            batch_unit,
        }
    }

    /// Two-layer pipelined mapping of the two-conv example.
    fn two_layer_mapping(dnn: &Dnn, split: &[CoreId], consume: &[CoreId]) -> GroupMapping {
        let conv1 = LayerId(1);
        let conv2 = LayerId(2);
        let s1 = dnn.layer(conv1).ofmap;
        let s2 = dnn.layer(conv2).ofmap;
        let bu = 1;
        let parts1 = split
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    *c,
                    Region::new(
                        split_dim(s1.h, split.len() as u32, i as u32),
                        Range1::full(s1.w),
                        Range1::full(s1.c),
                        Range1::full(bu),
                    ),
                )
            })
            .collect();
        let parts2 = consume
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    *c,
                    Region::new(
                        split_dim(s2.h, consume.len() as u32, i as u32),
                        Range1::full(s2.w),
                        Range1::full(s2.c),
                        Range1::full(bu),
                    ),
                )
            })
            .collect();
        GroupMapping {
            members: vec![
                LayerAssignment {
                    layer: conv1,
                    parts: parts1,
                    pred_srcs: vec![PredSrc::Dram(DramSel::Specific(0))],
                    wgt_src: Some(DramSel::Specific(0)),
                    of_dst: None,
                },
                LayerAssignment {
                    layer: conv2,
                    parts: parts2,
                    pred_srcs: vec![PredSrc::InGroup { member_idx: 0 }],
                    wgt_src: Some(DramSel::Specific(1)),
                    of_dst: Some(DramSel::Specific(1)),
                },
            ],
            batch_unit: bu,
        }
    }

    #[test]
    fn same_core_pipeline_has_no_peer_traffic() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let c = arch.core_at(0, 0);
        let gm = two_layer_mapping(&dnn, &[c], &[c]);
        let r = ev.evaluate_group(&dnn, &gm, 4);
        // Input/weight/output DRAM traffic exists, but no core-to-core
        // hops beyond the DRAM paths; check the D2D links see nothing
        // (core (0,0) is in chiplet 0 next to DRAM 0... writes to DRAM 1
        // cross the boundary, so only check peer flows via hop count).
        assert!(r.delay_s > 0.0);
        assert!(r.energy.total() > 0.0);
    }

    #[test]
    fn cross_chiplet_split_creates_d2d_traffic() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72(); // cut between columns 2 and 3
        let ev = Evaluator::new(&arch);
        // Producer on the west chiplet, consumer on the east chiplet.
        let gm = two_layer_mapping(&dnn, &[arch.core_at(1, 1)], &[arch.core_at(4, 1)]);
        let r = ev.evaluate_group(&dnn, &gm, 1);
        assert!(
            r.traffic.d2d_hop_bytes(ev.network()) > 0.0,
            "peer flow must cross the D2D boundary"
        );
        assert!(r.energy.d2d > 0.0);
    }

    #[test]
    fn same_chiplet_split_avoids_d2d_peer_traffic() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let gm = two_layer_mapping(&dnn, &[arch.core_at(0, 1)], &[arch.core_at(1, 1)]);
        let r = ev.evaluate_group(&dnn, &gm, 1);
        // Writes to DRAM 1 (east) do cross; compare against the
        // cross-chiplet variant to confirm peer traffic stays on-chip.
        let gm2 = two_layer_mapping(&dnn, &[arch.core_at(1, 1)], &[arch.core_at(4, 1)]);
        let r2 = ev.evaluate_group(&dnn, &gm2, 1);
        assert!(
            r.traffic.d2d_hop_bytes(ev.network()) < r2.traffic.d2d_hop_bytes(ev.network()),
            "keeping the pipeline inside one chiplet must reduce D2D bytes"
        );
    }

    #[test]
    fn fill_drain_overhead_matches_formula() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let gm = two_layer_mapping(&dnn, &[arch.core_at(0, 0)], &[arch.core_at(1, 0)]);
        let batch = 8;
        let r = ev.evaluate_group(&dnn, &gm, batch);
        assert_eq!(r.rounds, 8);
        assert_eq!(r.depth, 2);
        let expected = r.stage_time_s * (8.0 + 2.0 - 1.0) + r.weight_load_s + GROUP_OVERHEAD_S;
        assert!((r.delay_s - expected).abs() < 1e-15);
    }

    #[test]
    fn energy_scales_with_rounds() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let cores: Vec<CoreId> = (0..4).map(|i| arch.core_at(i, 0)).collect();
        let gm = one_layer_mapping(&dnn, &cores, 1);
        let e1 = ev.evaluate_group(&dnn, &gm, 1).energy.total();
        let e8 = ev.evaluate_group(&dnn, &gm, 8).energy.total();
        let ratio = e8 / e1;
        // Weights are resident (loaded once), so scaling is sub-linear
        // (the one-time load is amortized over 8 rounds) but must stay
        // well above half of linear.
        assert!((4.0..=8.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn small_glb_forces_weight_restreaming() {
        let dnn = zoo::two_conv_example();
        let big = gemini_arch::ArchConfig::builder()
            .cores(6, 6)
            .cuts(2, 1)
            .glb_kb(2048)
            .build()
            .unwrap();
        let tiny = gemini_arch::ArchConfig::builder()
            .cores(6, 6)
            .cuts(2, 1)
            .glb_kb(32)
            .build()
            .unwrap();
        // Conv1 weights: 3*3*32*64 = 18 KiB > 16 KiB (half of 32 KiB).
        let ev_big = Evaluator::new(&big);
        let ev_tiny = Evaluator::new(&tiny);
        let gm = one_layer_mapping(&dnn, &[big.core_at(0, 0)], 1);
        let rb = ev_big.evaluate_group(&dnn, &gm, 8);
        let rt = ev_tiny.evaluate_group(&dnn, &gm, 8);
        assert!(rb.weights_resident);
        assert!(!rt.weights_resident);
        let dram_b: f64 = rb.dram_bytes.iter().sum();
        let dram_t: f64 = rt.dram_bytes.iter().sum();
        assert!(
            dram_t > dram_b,
            "non-resident weights must add steady-state DRAM bytes ({dram_t} <= {dram_b})"
        );
    }

    #[test]
    fn interleaving_balances_drams() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let cores: Vec<CoreId> = (0..4).map(|i| arch.core_at(i, 0)).collect();
        let mut gm = one_layer_mapping(&dnn, &cores, 1);
        gm.members[0].pred_srcs = vec![PredSrc::Dram(DramSel::Interleaved)];
        gm.members[0].wgt_src = Some(DramSel::Interleaved);
        gm.members[0].of_dst = Some(DramSel::Interleaved);
        let r = ev.evaluate_group(&dnn, &gm, 1);
        let diff = (r.dram_bytes[0] - r.dram_bytes[1]).abs();
        assert!(
            diff < 1e-6,
            "interleaved flows must balance: {:?}",
            r.dram_bytes
        );
    }

    #[test]
    fn pinned_flows_are_unbalanced() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let cores: Vec<CoreId> = (0..4).map(|i| arch.core_at(i, 0)).collect();
        let gm = one_layer_mapping(&dnn, &cores, 1); // ifmap on DRAM 0, ofmap on DRAM 1
        let r = ev.evaluate_group(&dnn, &gm, 1);
        // Pinned FD values leave the controllers unbalanced (here the
        // ofmap written to DRAM 1 outweighs the ifmap read from DRAM 0).
        let diff = (r.dram_bytes[0] - r.dram_bytes[1]).abs();
        assert!(
            diff > 1.0,
            "pinned flows should be unbalanced: {:?}",
            r.dram_bytes
        );
    }

    #[test]
    fn broadcast_need_uses_multicast() {
        // K-partitioned consumers all need the producer's full output;
        // grouping by identical need region must pay shared links once.
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let conv1 = LayerId(1);
        let conv2 = LayerId(2);
        let s1 = dnn.layer(conv1).ofmap;
        let s2 = dnn.layer(conv2).ofmap;
        // Producer at (0,0); two consumers in a row at (2,0), (3,0) with
        // K halved: both need the full conv1 output (3x3 conv, all C).
        let gm = GroupMapping {
            members: vec![
                LayerAssignment {
                    layer: conv1,
                    parts: vec![(arch.core_at(0, 0), Region::full(s1, 1))],
                    pred_srcs: vec![PredSrc::Dram(DramSel::Specific(0))],
                    wgt_src: Some(DramSel::Specific(0)),
                    of_dst: None,
                },
                LayerAssignment {
                    layer: conv2,
                    parts: vec![
                        (
                            arch.core_at(2, 0),
                            Region::new(
                                Range1::full(s2.h),
                                Range1::full(s2.w),
                                split_dim(s2.c, 2, 0),
                                Range1::full(1),
                            ),
                        ),
                        (
                            arch.core_at(3, 0),
                            Region::new(
                                Range1::full(s2.h),
                                Range1::full(s2.w),
                                split_dim(s2.c, 2, 1),
                                Range1::full(1),
                            ),
                        ),
                    ],
                    pred_srcs: vec![PredSrc::InGroup { member_idx: 0 }],
                    wgt_src: Some(DramSel::Specific(1)),
                    of_dst: Some(DramSel::Specific(1)),
                },
            ],
            batch_unit: 1,
        };
        let r = ev.evaluate_group(&dnn, &gm, 1);
        // The link (0,0)->(1,0) carries the broadcast once: its bytes
        // must equal one copy of conv1's output, not two.
        let mut p = Vec::new();
        ev.network()
            .route_cores(arch.core_at(0, 0), arch.core_at(1, 0), &mut p);
        let bytes = r.traffic.bytes_on(p[0]);
        let one_copy = s1.elems() as f64;
        assert!(
            (bytes - one_copy).abs() < 1.0,
            "expected one multicast copy ({one_copy}), got {bytes}"
        );
    }

    #[test]
    fn evaluate_dnn_sums_groups() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let g1 = two_layer_mapping(&dnn, &[arch.core_at(0, 0)], &[arch.core_at(1, 0)]);
        let r1 = ev.evaluate_group(&dnn, &g1, 2);
        let full = ev.evaluate_dnn(&dnn, std::slice::from_ref(&g1), 2);
        assert!((full.delay_s - r1.delay_s).abs() < 1e-15);
        assert!((full.energy.total() - r1.energy.total()).abs() < 1e-18);
        assert!(full.edp() > 0.0);
    }

    #[test]
    fn serdes_model_charges_idle_power() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let em = EnergyModel {
            d2d_model: D2dEnergyModel::SerdesPower {
                watts_per_interface: 0.05,
            },
            ..Default::default()
        };
        let ev_serdes = Evaluator::with_energy(&arch, em);
        let ev_grs = Evaluator::new(&arch);
        // A mapping with zero D2D traffic still pays SerDes power.
        let gm = two_layer_mapping(&dnn, &[arch.core_at(0, 1)], &[arch.core_at(1, 1)]);
        let rs = ev_serdes.evaluate_group(&dnn, &gm, 1);
        let rg = ev_grs.evaluate_group(&dnn, &gm, 1);
        assert!(
            rs.energy.d2d > 0.0,
            "SerDes D2D burns power regardless of traffic"
        );
        assert!(rs.energy.d2d > rg.energy.d2d);
    }

    #[test]
    fn more_cores_reduce_stage_time() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let one = one_layer_mapping(&dnn, &[arch.core_at(0, 0)], 1);
        let four: Vec<CoreId> = (0..4).map(|i| arch.core_at(i, 0)).collect();
        let four = one_layer_mapping(&dnn, &four, 1);
        let r1 = ev.evaluate_group(&dnn, &one, 1);
        let r4 = ev.evaluate_group(&dnn, &four, 1);
        assert!(
            r4.stage_time_s < r1.stage_time_s,
            "4 cores {} should beat 1 core {}",
            r4.stage_time_s,
            r1.stage_time_s
        );
    }

    fn opts_with(f: impl FnOnce(&mut EvalOptions)) -> EvalOptions {
        let mut o = EvalOptions::default();
        f(&mut o);
        o
    }

    #[test]
    fn default_options_match_legacy_constants() {
        let o = EvalOptions::default();
        assert_eq!(o.congestion_weight, CONGESTION_WEIGHT);
        assert_eq!(o.stage_overhead_s, STAGE_OVERHEAD_S);
        assert_eq!(o.group_overhead_s, GROUP_OVERHEAD_S);
        assert!(o.spill_enabled && o.multicast_enabled);
    }

    #[test]
    fn zero_congestion_weight_never_slower() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let base = Evaluator::new(&arch);
        let nocong = Evaluator::with_options(
            &arch,
            EnergyModel::default(),
            opts_with(|o| o.congestion_weight = 0.0),
        );
        let gm = two_layer_mapping(&dnn, &[arch.core_at(1, 1)], &[arch.core_at(4, 1)]);
        let rb = base.evaluate_group(&dnn, &gm, 4);
        let rn = nocong.evaluate_group(&dnn, &gm, 4);
        assert!(rn.stage_time_s <= rb.stage_time_s);
    }

    #[test]
    fn spill_disabled_removes_overflow_dram_traffic() {
        let dnn = zoo::two_conv_example();
        // 4 KiB GLB: everything overflows.
        let arch = gemini_arch::ArchConfig::builder()
            .cores(6, 6)
            .cuts(2, 1)
            .glb_kb(4)
            .build()
            .unwrap();
        let on = Evaluator::new(&arch);
        let off = Evaluator::with_options(
            &arch,
            EnergyModel::default(),
            opts_with(|o| o.spill_enabled = false),
        );
        let gm = one_layer_mapping(&dnn, &[arch.core_at(0, 0)], 1);
        let r_on = on.evaluate_group(&dnn, &gm, 1);
        let r_off = off.evaluate_group(&dnn, &gm, 1);
        let sum = |r: &GroupReport| r.dram_bytes.iter().sum::<f64>();
        assert!(
            sum(&r_on) > sum(&r_off),
            "spill must add DRAM bytes: {} <= {}",
            sum(&r_on),
            sum(&r_off)
        );
    }

    #[test]
    fn unicast_ablation_pays_per_destination() {
        // The broadcast scenario of `broadcast_need_uses_multicast`:
        // disabling multicast must roughly double the shared-link bytes.
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let multi = Evaluator::new(&arch);
        let uni = Evaluator::with_options(
            &arch,
            EnergyModel::default(),
            opts_with(|o| o.multicast_enabled = false),
        );
        let gm = two_layer_mapping(
            &dnn,
            &[arch.core_at(0, 0)],
            &[arch.core_at(2, 0), arch.core_at(3, 0)],
        );
        let rm = multi.evaluate_group(&dnn, &gm, 1);
        let ru = uni.evaluate_group(&dnn, &gm, 1);
        assert!(
            ru.traffic.total_hop_bytes() > rm.traffic.total_hop_bytes(),
            "unicast {} must exceed multicast {}",
            ru.traffic.total_hop_bytes(),
            rm.traffic.total_hop_bytes()
        );
    }

    fn big_little_spec(arch: &gemini_arch::ArchConfig) -> gemini_arch::HeteroSpec {
        gemini_arch::HeteroSpec::new(
            vec![
                gemini_arch::CoreClass {
                    macs: 4096,
                    glb_bytes: 4 << 20,
                },
                gemini_arch::CoreClass {
                    macs: 256,
                    glb_bytes: 256 << 10,
                },
            ],
            vec![0, 1],
            arch,
        )
        .unwrap()
    }

    #[test]
    fn hetero_big_core_outruns_little_core() {
        let dnn = zoo::two_conv_example();
        let arch = gemini_arch::ArchConfig::builder()
            .cores(6, 6)
            .cuts(2, 1)
            .build()
            .unwrap();
        let ev = Evaluator::hetero(&arch, &big_little_spec(&arch));
        // Same single-core layer on a west (big) vs east (little) core.
        let on_big = one_layer_mapping(&dnn, &[arch.core_at(0, 0)], 1);
        let on_little = one_layer_mapping(&dnn, &[arch.core_at(5, 0)], 1);
        let rb = ev.evaluate_group(&dnn, &on_big, 1);
        let rl = ev.evaluate_group(&dnn, &on_little, 1);
        assert!(
            rb.stage_time_s < rl.stage_time_s,
            "big core {} must beat little core {}",
            rb.stage_time_s,
            rl.stage_time_s
        );
    }

    #[test]
    fn hetero_little_core_spills_first() {
        let dnn = zoo::two_conv_example();
        let arch = gemini_arch::ArchConfig::builder()
            .cores(6, 6)
            .cuts(2, 1)
            .build()
            .unwrap();
        let spec = gemini_arch::HeteroSpec::new(
            vec![
                gemini_arch::CoreClass {
                    macs: 1024,
                    glb_bytes: 2 << 20,
                },
                // 16 KiB GLB: conv1's 18 KiB weights overflow.
                gemini_arch::CoreClass {
                    macs: 1024,
                    glb_bytes: 16 << 10,
                },
            ],
            vec![0, 1],
            &arch,
        )
        .unwrap();
        let ev = Evaluator::hetero(&arch, &spec);
        let on_big = one_layer_mapping(&dnn, &[arch.core_at(0, 0)], 1);
        let on_little = one_layer_mapping(&dnn, &[arch.core_at(5, 0)], 1);
        let rb = ev.evaluate_group(&dnn, &on_big, 8);
        let rl = ev.evaluate_group(&dnn, &on_little, 8);
        assert!(rb.weights_resident, "2 MiB GLB holds the weights");
        assert!(!rl.weights_resident, "16 KiB GLB must spill");
    }

    #[test]
    fn hetero_uniform_spec_matches_homogeneous_evaluator() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let homog = Evaluator::new(&arch);
        let hetero = Evaluator::hetero(&arch, &gemini_arch::HeteroSpec::uniform(&arch));
        let gm = two_layer_mapping(&dnn, &[arch.core_at(0, 0)], &[arch.core_at(1, 0)]);
        let rh = homog.evaluate_group(&dnn, &gm, 4);
        let ru = hetero.evaluate_group(&dnn, &gm, 4);
        assert!((rh.delay_s - ru.delay_s).abs() < 1e-18);
        assert!((rh.energy.total() - ru.energy.total()).abs() < 1e-21);
    }
}
