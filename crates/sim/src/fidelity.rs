//! Packet-level fidelity checking of the analytic network model.
//!
//! The evaluator prices one pipeline stage's network time analytically
//! (busiest link + congestion surcharge); `gemini-noc` provides two
//! progressively more detailed reference simulators (max-min fluid
//! flows, then flit-granular packets with finite queues). This module
//! replays the *actual* flows of a mapped layer group — peer sends and
//! DRAM transfers from the generated instruction streams — through all
//! three models and reports the ladder side by side, so users can audit
//! how faithful the cheap model is for their specific mapping before
//! trusting a DSE built on it.

use serde::{Deserialize, Serialize};

use gemini_model::Dnn;
use gemini_noc::flowsim::{Flow, FlowSimWorkspace};
use gemini_noc::packetsim::{PacketSimConfig, PacketSimWorkspace};
use gemini_noc::TrafficMap;

use crate::evaluate::Evaluator;
use crate::mapping::GroupMapping;
use crate::program::{generate_program, Instr};

/// The three-model comparison for one layer group's steady-state stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Per-link bottleneck bound (what a surcharge-free evaluator would
    /// charge), seconds.
    pub bottleneck_s: f64,
    /// The evaluator's analytic network time: bottleneck plus the
    /// congestion surcharge, seconds.
    pub analytic_s: f64,
    /// Max-min fluid completion, seconds.
    pub fluid_s: f64,
    /// Flit-granular packet completion, seconds.
    pub packet_s: f64,
    /// Mean per-link transfer time of the stage (the surcharge base:
    /// `analytic = bottleneck + weight * mean_link`), seconds.
    pub mean_link_s: f64,
    /// Flows replayed.
    pub n_flows: usize,
    /// Scale factor applied to flow volumes before simulation (1.0 =
    /// unscaled); times above are already divided back by it.
    pub scale: f64,
    /// Whether the packet simulation hit its cycle bound.
    pub truncated: bool,
}

impl FidelityReport {
    /// Packet-model time over the analytic estimate: values near (or
    /// below) 1 mean the surcharge covers the real queueing; large
    /// values flag mappings whose contention the analytic model
    /// underprices.
    pub fn packet_vs_analytic(&self) -> f64 {
        if self.analytic_s > 0.0 {
            self.packet_s / self.analytic_s
        } else {
            1.0
        }
    }
}

/// Extracts one steady-state stage's routed flows from a group mapping:
/// peer sends plus per-round DRAM reads and writes (one-time weight
/// loads excluded, matching the evaluator's stage accounting).
pub fn stage_flows(ev: &Evaluator, dnn: &Dnn, gm: &GroupMapping) -> Vec<Flow> {
    let net = ev.network();
    let d = ev.arch().dram_count();
    let prog = generate_program(dnn, gm);
    let mut flows = Vec::new();
    let mut scratch = Vec::new();

    for (core, stream) in &prog.streams {
        for i in stream {
            match i {
                Instr::Send { to, bytes, .. } => {
                    let mut path = Vec::new();
                    net.route_cores(*core, *to, &mut path);
                    flows.push(Flow {
                        path,
                        bytes: *bytes as f64,
                    });
                }
                Instr::ReadDram { from, bytes, .. } => {
                    let (drams, v) = from.targets(d, *bytes as f64);
                    for dram in drams {
                        let ports = net.dram_port_coords(dram).len() as f64;
                        net.for_each_dram_read_path(dram, *core, &mut scratch, |p| {
                            flows.push(Flow {
                                path: p.to_vec(),
                                bytes: v / ports,
                            });
                        });
                    }
                }
                Instr::WriteDram { to, bytes, .. } => {
                    let (drams, v) = to.targets(d, *bytes as f64);
                    for dram in drams {
                        let ports = net.dram_port_coords(dram).len() as f64;
                        net.for_each_dram_write_path(*core, dram, &mut scratch, |p| {
                            flows.push(Flow {
                                path: p.to_vec(),
                                bytes: v / ports,
                            });
                        });
                    }
                }
                // One-time loads and on-core work are not stage traffic.
                Instr::LoadWeights { .. } | Instr::Recv { .. } | Instr::Compute { .. } => {}
            }
        }
    }
    flows
}

/// Replays one group's stage flows through the analytic, fluid and
/// packet models.
///
/// Volumes above `cap_bytes` total are scaled down proportionally (all
/// three models are volume-linear, so reported times are scaled back
/// up; per-hop latency constants make the packet time slightly
/// conservative at small scales).
pub fn check_group(
    ev: &Evaluator,
    dnn: &Dnn,
    gm: &GroupMapping,
    cfg: &PacketSimConfig,
    cap_bytes: f64,
) -> FidelityReport {
    check_group_with(
        ev,
        dnn,
        gm,
        cfg,
        cap_bytes,
        &mut FlowSimWorkspace::new(),
        &mut PacketSimWorkspace::new(),
    )
}

/// Batch variant of [`check_group`]: reuses caller-held simulator
/// workspaces across groups/candidates (bit-identical results).
pub fn check_group_with(
    ev: &Evaluator,
    dnn: &Dnn,
    gm: &GroupMapping,
    cfg: &PacketSimConfig,
    cap_bytes: f64,
    fluid_ws: &mut FlowSimWorkspace,
    packet_ws: &mut PacketSimWorkspace,
) -> FidelityReport {
    let p = stage_prelude(ev, dnn, gm, cap_bytes);
    let net = ev.network();
    let fluid = fluid_ws.simulate(net, &p.flows);
    let packet = packet_ws.simulate(net, &p.flows, cfg);

    FidelityReport {
        bottleneck_s: p.bottleneck / p.scale,
        analytic_s: p.analytic / p.scale,
        fluid_s: fluid.completion_s / p.scale,
        packet_s: packet.completion_s / p.scale,
        mean_link_s: p.mean_link / p.scale,
        n_flows: p.flows.len(),
        scale: p.scale,
        truncated: packet.truncated,
    }
}

/// The fluid-only rung of the ladder (no flit-granular simulation):
/// cheap enough to run on every re-ranked DSE candidate, not just the
/// final winner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidCheck {
    /// Per-link bottleneck bound, seconds.
    pub bottleneck_s: f64,
    /// The evaluator's analytic network time (bottleneck + congestion
    /// surcharge), seconds.
    pub analytic_s: f64,
    /// Max-min fluid completion, seconds.
    pub fluid_s: f64,
    /// Mean per-link transfer time (the surcharge base), seconds.
    pub mean_link_s: f64,
    /// Flows replayed.
    pub n_flows: usize,
    /// Volume scale applied before simulation (times are scaled back).
    pub scale: f64,
}

impl FluidCheck {
    /// Fluid-model time over the analytic estimate: > 1 flags mappings
    /// whose contention the cheap model underprices.
    pub fn fluid_vs_analytic(&self) -> f64 {
        if self.analytic_s > 0.0 {
            self.fluid_s / self.analytic_s
        } else {
            1.0
        }
    }
}

/// Replays one group's stage flows through the analytic and fluid
/// models only (see [`check_group`] for the full ladder). The caller
/// holds the [`FlowSimWorkspace`] so back-to-back candidate replays
/// reuse its allocations.
pub fn check_group_fluid(
    ev: &Evaluator,
    dnn: &Dnn,
    gm: &GroupMapping,
    cap_bytes: f64,
    ws: &mut FlowSimWorkspace,
) -> FluidCheck {
    let p = stage_prelude(ev, dnn, gm, cap_bytes);
    let fluid = ws.simulate(ev.network(), &p.flows);
    FluidCheck {
        bottleneck_s: p.bottleneck / p.scale,
        analytic_s: p.analytic / p.scale,
        fluid_s: fluid.completion_s / p.scale,
        mean_link_s: p.mean_link / p.scale,
        n_flows: p.flows.len(),
        scale: p.scale,
    }
}

/// The shared prelude of every ladder rung: capped stage flows plus the
/// analytic quantities on them (unscaled — callers divide by `scale`).
/// One implementation so the full ladder and the fluid-only rung can
/// never diverge on the surcharge formula or the cap semantics.
struct StagePrelude {
    flows: Vec<Flow>,
    scale: f64,
    bottleneck: f64,
    mean_link: f64,
    analytic: f64,
}

fn stage_prelude(ev: &Evaluator, dnn: &Dnn, gm: &GroupMapping, cap_bytes: f64) -> StagePrelude {
    let (flows, scale) = capped_stage_flows(ev, dnn, gm, cap_bytes);
    let net = ev.network();
    // One map for both statistics: `analytic_bottleneck` builds the same
    // map from the same adds.
    let mut traffic = TrafficMap::new(net);
    for f in &flows {
        traffic.add_path(&f.path, f.bytes);
    }
    let bottleneck = traffic.bottleneck_time(net);
    let mean_link = traffic.mean_link_time(net);
    let analytic = bottleneck + ev.options().congestion_weight * mean_link;
    StagePrelude {
        flows,
        scale,
        bottleneck,
        mean_link,
        analytic,
    }
}

/// Result of the packet-only rung (see [`check_group_packet`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketCheck {
    /// Flit-granular completion, seconds (scaled back).
    pub packet_s: f64,
    /// Whether the simulation hit its cycle bound — a truncated time
    /// *under-reports* congestion and must not feed calibration.
    pub truncated: bool,
}

/// The packet-only rung: replays one group's stage flows through the
/// flit-granular simulator alone (scaled back like [`check_group`]).
/// For callers that already hold the analytic and fluid rungs — e.g.
/// winner validation after a fluid re-rank — and only need the packet
/// reference on top.
pub fn check_group_packet(
    ev: &Evaluator,
    dnn: &Dnn,
    gm: &GroupMapping,
    cfg: &PacketSimConfig,
    cap_bytes: f64,
    ws: &mut PacketSimWorkspace,
) -> PacketCheck {
    let (flows, scale) = capped_stage_flows(ev, dnn, gm, cap_bytes);
    let r = ws.simulate(ev.network(), &flows, cfg);
    PacketCheck {
        packet_s: r.completion_s / scale,
        truncated: r.truncated,
    }
}

/// Extracts the stage flows and applies the proportional volume cap
/// (all models are volume-linear; see [`check_group`]).
fn capped_stage_flows(
    ev: &Evaluator,
    dnn: &Dnn,
    gm: &GroupMapping,
    cap_bytes: f64,
) -> (Vec<Flow>, f64) {
    let mut flows = stage_flows(ev, dnn, gm);
    let total: f64 = flows.iter().map(|f| f.bytes).sum();
    let scale = if total > cap_bytes && cap_bytes > 0.0 {
        cap_bytes / total
    } else {
        1.0
    };
    if scale < 1.0 {
        for f in &mut flows {
            f.bytes *= scale;
        }
    }
    (flows, scale)
}

/// Solves for the congestion-surcharge weight that would align the
/// analytic stage price with a reference simulation on the observed
/// groups.
///
/// Per group the analytic network time is `bottleneck + w * mean_link`,
/// so the weight matching a reference time `r` is
/// `(r - bottleneck) / mean_link`. Observations are
/// `(bottleneck_s, mean_link_s, reference_s)` tuples; the result is the
/// median over groups with a usable surcharge base, clamped to
/// `0.0..=64.0`, or `None` when no group constrains the weight (e.g.
/// every group is compute-bound with zero traffic). Feed it back via
/// [`crate::EvalOptions::with_congestion_weight`] or
/// [`Evaluator::set_congestion_weight`] to keep the cheap model honest
/// on the workloads actually explored.
pub fn calibrate_congestion_weight(obs: impl IntoIterator<Item = (f64, f64, f64)>) -> Option<f64> {
    let mut weights: Vec<f64> = obs
        .into_iter()
        .filter(|&(b, m, r)| m > 0.0 && m.is_finite() && b.is_finite() && r.is_finite())
        .map(|(b, m, r)| ((r - b) / m).clamp(0.0, 64.0))
        .collect();
    if weights.is_empty() {
        return None;
    }
    weights.sort_by(f64::total_cmp);
    Some(weights[weights.len() / 2])
}

/// Checks every group of a mapped DNN (see [`check_group`]).
pub fn check_dnn(
    ev: &Evaluator,
    dnn: &Dnn,
    gms: &[GroupMapping],
    cfg: &PacketSimConfig,
    cap_bytes: f64,
) -> Vec<FidelityReport> {
    gms.iter()
        .map(|gm| check_group(ev, dnn, gm, cfg, cap_bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;
    use gemini_model::zoo;
    use gemini_model::{split_dim, LayerId, Range1, Region};

    use crate::mapping::{DramSel, LayerAssignment, PredSrc};

    fn pipeline_mapping(arch: &gemini_arch::ArchConfig) -> (Dnn, GroupMapping) {
        let dnn = zoo::two_conv_example();
        let conv1 = LayerId(1);
        let conv2 = LayerId(2);
        let s1 = dnn.layer(conv1).ofmap;
        let s2 = dnn.layer(conv2).ofmap;
        let gm = GroupMapping {
            members: vec![
                LayerAssignment {
                    layer: conv1,
                    parts: (0..2)
                        .map(|k| {
                            (
                                arch.core_at(k, 0),
                                Region::new(
                                    Range1::full(s1.h),
                                    Range1::full(s1.w),
                                    split_dim(s1.c, 2, k),
                                    Range1::full(1),
                                ),
                            )
                        })
                        .collect(),
                    pred_srcs: vec![PredSrc::Dram(DramSel::Specific(0))],
                    wgt_src: Some(DramSel::Specific(0)),
                    of_dst: None,
                },
                LayerAssignment {
                    layer: conv2,
                    parts: vec![(arch.core_at(4, 0), Region::full(s2, 1))],
                    pred_srcs: vec![PredSrc::InGroup { member_idx: 0 }],
                    wgt_src: Some(DramSel::Specific(1)),
                    of_dst: Some(DramSel::Specific(1)),
                },
            ],
            batch_unit: 1,
        };
        (dnn, gm)
    }

    #[test]
    fn ladder_is_ordered() {
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let (dnn, gm) = pipeline_mapping(&arch);
        let r = check_group(&ev, &dnn, &gm, &PacketSimConfig::default(), 256e3);
        assert!(!r.truncated);
        assert!(r.n_flows > 0);
        assert!(r.bottleneck_s > 0.0);
        assert!(r.fluid_s >= r.bottleneck_s * (1.0 - 1e-9));
        assert!(r.packet_s >= r.fluid_s * (1.0 - 1e-6));
        assert!(r.analytic_s >= r.bottleneck_s);
    }

    #[test]
    fn scaling_keeps_reported_times_stable() {
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let (dnn, gm) = pipeline_mapping(&arch);
        let cfg = PacketSimConfig::default();
        let full = check_group(&ev, &dnn, &gm, &cfg, f64::INFINITY);
        let capped = check_group(&ev, &dnn, &gm, &cfg, full_total(&ev, &dnn, &gm) / 2.0);
        assert!(capped.scale < 1.0);
        // Volume-linear models report identical times after rescaling.
        assert!((full.bottleneck_s - capped.bottleneck_s).abs() / full.bottleneck_s < 1e-9);
        assert!((full.fluid_s - capped.fluid_s).abs() / full.fluid_s < 1e-6);
        // The packet model's fixed per-hop latency makes the scaled run
        // only slightly conservative.
        assert!((capped.packet_s / full.packet_s - 1.0).abs() < 0.25);
    }

    fn full_total(ev: &Evaluator, dnn: &Dnn, gm: &GroupMapping) -> f64 {
        stage_flows(ev, dnn, gm).iter().map(|f| f.bytes).sum()
    }

    #[test]
    fn surcharge_tracks_packet_reality() {
        // On this simple pipeline the analytic estimate must land within
        // a small factor of the packet-level reference.
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let (dnn, gm) = pipeline_mapping(&arch);
        let r = check_group(&ev, &dnn, &gm, &PacketSimConfig::default(), 256e3);
        let ratio = r.packet_vs_analytic();
        assert!(
            (0.05..4.0).contains(&ratio),
            "analytic {} vs packet {} (ratio {ratio})",
            r.analytic_s,
            r.packet_s
        );
    }

    #[test]
    fn fluid_check_matches_full_ladder() {
        // The fluid-only rung must agree exactly with the fluid column
        // of the full ladder (same flows, same workspace math).
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let (dnn, gm) = pipeline_mapping(&arch);
        let full = check_group(&ev, &dnn, &gm, &PacketSimConfig::default(), 256e3);
        let mut ws = FlowSimWorkspace::new();
        let fluid = check_group_fluid(&ev, &dnn, &gm, 256e3, &mut ws);
        assert_eq!(fluid.bottleneck_s, full.bottleneck_s);
        assert_eq!(fluid.analytic_s, full.analytic_s);
        assert_eq!(fluid.fluid_s, full.fluid_s);
        assert_eq!(fluid.mean_link_s, full.mean_link_s);
        assert_eq!(fluid.n_flows, full.n_flows);
        // Reused workspace: second run is bit-identical.
        assert_eq!(fluid, check_group_fluid(&ev, &dnn, &gm, 256e3, &mut ws));
    }

    #[test]
    fn calibration_recovers_surcharge_weight() {
        // Reference equal to bottleneck + 4 * mean => weight 4 exactly.
        let w = calibrate_congestion_weight([
            (1.0, 0.5, 3.0),      // (3 - 1) / 0.5 = 4
            (2.0, 0.25, 3.0),     // (3 - 2) / 0.25 = 4
            (0.0, 0.0, 1.0),      // unusable: no surcharge base
            (1.0, f64::NAN, 2.0), // unusable: non-finite
        ]);
        assert_eq!(w, Some(4.0));
        // Nothing usable: no calibration.
        assert_eq!(calibrate_congestion_weight([(1.0, 0.0, 2.0)]), None);
        assert_eq!(calibrate_congestion_weight([]), None);
        // Reference below the bottleneck clamps at zero, never negative.
        assert_eq!(calibrate_congestion_weight([(5.0, 1.0, 3.0)]), Some(0.0));
    }

    #[test]
    fn calibrated_evaluator_reprices_analytic_time() {
        // Feeding the calibrated weight back into the evaluator moves
        // its analytic estimate toward the reference rung.
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let (dnn, gm) = pipeline_mapping(&arch);
        let r = check_group(&ev, &dnn, &gm, &PacketSimConfig::default(), 256e3);
        let w = calibrate_congestion_weight([(r.bottleneck_s, r.mean_link_s, r.packet_s)])
            .expect("loaded group constrains the weight");
        let mut cal = Evaluator::with_options(&arch, crate::EnergyModel::default(), *ev.options());
        cal.set_congestion_weight(w);
        let rc = check_group(&cal, &dnn, &gm, &PacketSimConfig::default(), 256e3);
        let before = (r.packet_s - r.analytic_s).abs();
        let after = (rc.packet_s - rc.analytic_s).abs();
        assert!(
            after <= before + 1e-12,
            "calibration must not widen the gap: {after} > {before}"
        );
        assert!(after / rc.packet_s < 0.05, "single-group fit is near-exact");
    }

    #[test]
    fn check_dnn_covers_all_groups() {
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let (dnn, gm) = pipeline_mapping(&arch);
        let reports = check_dnn(
            &ev,
            &dnn,
            &[gm.clone(), gm],
            &PacketSimConfig::default(),
            64e3,
        );
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0], reports[1]);
    }
}
