//! The NoC fidelity ladder as a first-class DSE stage.
//!
//! The co-exploration loop trusts the analytic network model for
//! millions of SA evaluations — it has to, for speed — but architecture
//! conclusions drawn from it are only as good as its congestion
//! fidelity. This module promotes the reference simulators of
//! `gemini-noc` from an offline audit (`gemini_sim::check_group`, the
//! `fidelity_ladder` example) to a policy the DSE driver consults:
//!
//! 1. **Analytic** (rung 0): the SA inner loop and candidate ranking
//!    use the cheap per-link model, exactly as before.
//! 2. **Re-rank** (rung 1): the top-K candidates that survive the
//!    analytic sweep are re-scored with the max-min fluid flow
//!    simulator. Each group's stage traffic is replayed; whenever the
//!    fluid completion exceeds the group's priced stage *envelope* —
//!    max of compute, analytic network and DRAM time, which already
//!    absorbs congestion on non-network-bound groups — the difference
//!    is added to that group's stage time
//!    ([`crate::engine::MappedDnn::congestion_corrected_delay`]) and
//!    the objective is re-evaluated with the corrected delay. The
//!    fan-out runs on the same scoped worker pool as the candidate
//!    sweep and is bit-identical at any thread count.
//! 3. **Validate** (rung 2): the final winner is additionally replayed
//!    through the flit-granular packet simulator, the per-group
//!    analytic-vs-reference discrepancy is reported, and a calibrated
//!    congestion-surcharge weight is derived
//!    ([`gemini_sim::calibrate_congestion_weight`]) for feeding back
//!    into [`gemini_sim::EvalOptions`] so the cheap model stays honest
//!    on the workloads actually explored.
//!
//! The one DSE driver, `dse::sweep`, honours the policy via
//! [`crate::dse::DseOptions::fidelity`] for both of its `Candidate`
//! impls — homogeneous architectures ([`crate::dse::run_dse_over`]) and
//! heterogeneous class assignments
//! ([`crate::hetero_dse::run_hetero_dse`]) — and attaches the resulting
//! [`DseReport`] to the result. Monolithic candidates
//! (XCut = YCut = 1) have no D2D links; every stage here handles the
//! zero-D2D case.

use serde::{Deserialize, Serialize};

use gemini_model::Dnn;
use gemini_noc::flowsim::FlowSimWorkspace;
use gemini_noc::packetsim::{PacketSimConfig, PacketSimWorkspace};
use gemini_sim::{
    calibrate_congestion_weight, check_group_fluid, check_group_packet, EvalOptions, Evaluator,
    GroupMapping,
};

use crate::dse::Objective;
use crate::engine::MappedDnn;

/// Configuration of the fluid re-rank replays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidConfig {
    /// Volume cap per group replay in bytes: larger stages are scaled
    /// down proportionally before simulation (all models are
    /// volume-linear, so reported times are scaled back up).
    pub cap_bytes: f64,
}

impl Default for FluidConfig {
    fn default() -> Self {
        Self { cap_bytes: 512e3 }
    }
}

/// How much of the NoC fidelity ladder the DSE consults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum FidelityPolicy {
    /// Rung 0: trust the analytic evaluator everywhere (the historic
    /// behavior — congestion-blind beyond the surcharge).
    #[default]
    Analytic,
    /// Rung 1: re-score the top-`k` analytic survivors with the
    /// max-min fluid flow simulator and re-rank them under the
    /// congestion-corrected delay.
    RerankTopK {
        /// How many analytic survivors to re-score.
        k: usize,
        /// Fluid replay configuration.
        fluid: FluidConfig,
    },
    /// Rung 2: rung 1, plus flit-granular packet validation of the
    /// final winner (fills [`GroupDiscrepancy::packet_s`] and derives
    /// [`DseReport::suggested_congestion_weight`] from the packet
    /// reference — the only rung that calibrates).
    ValidateWinner {
        /// How many analytic survivors to re-score.
        k: usize,
        /// Fluid replay configuration.
        fluid: FluidConfig,
        /// Packet-simulator configuration for the winner replay.
        packet: PacketSimConfig,
    },
}

impl FidelityPolicy {
    /// Rung-1 policy with default fluid configuration.
    pub fn rerank(k: usize) -> Self {
        Self::RerankTopK {
            k,
            fluid: FluidConfig::default(),
        }
    }

    /// Rung-2 policy with default fluid and packet configurations.
    pub fn validate(k: usize) -> Self {
        Self::ValidateWinner {
            k,
            fluid: FluidConfig::default(),
            packet: PacketSimConfig::default(),
        }
    }

    /// Re-rank parameters, `None` under [`FidelityPolicy::Analytic`].
    pub fn rerank_params(&self) -> Option<(usize, FluidConfig)> {
        match self {
            Self::Analytic => None,
            Self::RerankTopK { k, fluid } | Self::ValidateWinner { k, fluid, .. } => {
                Some((*k, *fluid))
            }
        }
    }

    /// Packet configuration for winner validation, `None` below rung 2.
    pub fn packet_cfg(&self) -> Option<&PacketSimConfig> {
        match self {
            Self::ValidateWinner { packet, .. } => Some(packet),
            _ => None,
        }
    }
}

/// Rung-0 analytic-bound pre-filter mode of the DSE driver
/// ([`crate::dse::DseOptions::bound`]).
///
/// The bound pass computes, for every candidate, the closed-form lower
/// bound of [`gemini_sim::bound`] on the structural stripe mapping
/// (valid for the candidate's whole SA space), fully evaluates the
/// best-bounded seed candidates to establish an *achieved* incumbent
/// threshold, and flags every remaining candidate whose bound already
/// exceeds that threshold as provably unable to win.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoundMode {
    /// No bound pass (the historic behavior).
    #[default]
    Off,
    /// Run the bound pass and report gap diagnostics and the prune
    /// counter, but still evaluate every candidate. The [`DseReport`]
    /// (including [`BoundStats`]) is byte-identical to
    /// [`BoundMode::Prune`]; only the per-record metrics of flagged
    /// candidates differ (achieved here, bound values there).
    Report,
    /// Additionally skip full SA on flagged candidates. Never changes
    /// the winner or the fidelity top-K: a pruned candidate's bound —
    /// hence its achieved score — strictly exceeds the achieved scores
    /// of at least as many evaluated seeds as the ladder consumes
    /// (the re-rank `k`, or just the winner under `analytic`).
    Prune,
}

impl BoundMode {
    /// Whether the bound pass runs at all.
    pub fn active(&self) -> bool {
        !matches!(self, BoundMode::Off)
    }

    /// Whether flagged candidates actually skip evaluation.
    pub fn prunes(&self) -> bool {
        matches!(self, BoundMode::Prune)
    }
}

/// Statistics of the rung-0 bound pre-filter, attached to the
/// [`DseReport`] whenever [`BoundMode::active`]. Identical between
/// [`BoundMode::Report`] and [`BoundMode::Prune`] by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundStats {
    /// Candidates bounded (the whole sweep).
    pub total: usize,
    /// Best-bounded candidates fully evaluated to establish the
    /// achieved incumbent threshold.
    pub seeds: usize,
    /// Candidates whose bound exceeded the threshold (skipped under
    /// [`BoundMode::Prune`]).
    pub pruned: usize,
    /// The achieved score a bound had to beat: the k-th best achieved
    /// seed score, where k is what the fidelity ladder consumes (the
    /// re-rank depth, or 1 under the plain analytic policy).
    pub threshold: f64,
    /// The winner's achieved/bound score ratio (a convergence
    /// diagnostic: close to 1 means the analytic model is tight).
    pub winner_gap: f64,
}

impl BoundStats {
    /// Percentage of candidates pruned before SA.
    pub fn prune_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.pruned as f64 / self.total as f64
        }
    }
}

/// Parses a `--fidelity` string into a policy and a rung-0 bound mode:
/// a base rung (`analytic` | `rerank` | `validate`, the latter two
/// re-scoring `rerank_k` survivors) with an optional suffix `+bounds`
/// (bound diagnostics, no skipping) or `+prune` (skip provably-losing
/// candidates). Returns `None` on anything else.
pub fn parse_policy(s: &str, rerank_k: usize) -> Option<(FidelityPolicy, BoundMode)> {
    let (base, bound) = match s.split_once('+') {
        Some((b, "bounds")) => (b, BoundMode::Report),
        Some((b, "prune")) => (b, BoundMode::Prune),
        Some(_) => return None,
        None => (s, BoundMode::Off),
    };
    let policy = match base {
        "analytic" => FidelityPolicy::Analytic,
        "rerank" => FidelityPolicy::rerank(rerank_k),
        "validate" => FidelityPolicy::validate(rerank_k),
        _ => return None,
    };
    Some((policy, bound))
}

/// One group's analytic-vs-reference discrepancy on the final winner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupDiscrepancy {
    /// Workload name.
    pub dnn: String,
    /// Group index within that workload's mapping.
    pub group: usize,
    /// Per-link bottleneck bound, seconds.
    pub bottleneck_s: f64,
    /// The evaluator's analytic network time (bottleneck + surcharge),
    /// seconds.
    pub analytic_s: f64,
    /// Mean per-link transfer time (the surcharge base), seconds.
    pub mean_link_s: f64,
    /// Max-min fluid completion, seconds.
    pub fluid_s: f64,
    /// Flit-granular packet completion, seconds (winner validation
    /// only; `None` under [`FidelityPolicy::RerankTopK`]).
    pub packet_s: Option<f64>,
    /// Whether the packet replay hit its cycle bound: a truncated
    /// `packet_s` under-reports congestion and is excluded from the
    /// calibration observations.
    pub packet_truncated: bool,
    /// Flows replayed.
    pub n_flows: usize,
}

impl GroupDiscrepancy {
    /// Fluid time over the analytic estimate (> 1 flags underpriced
    /// contention).
    pub fn fluid_vs_analytic(&self) -> f64 {
        if self.analytic_s > 0.0 {
            self.fluid_s / self.analytic_s
        } else {
            1.0
        }
    }

    /// The most detailed reference time available (packet when the
    /// winner was validated, fluid otherwise).
    pub fn reference_s(&self) -> f64 {
        self.packet_s.unwrap_or(self.fluid_s)
    }

    /// Reference time over the analytic estimate, with the same
    /// zero-traffic convention as [`Self::fluid_vs_analytic`].
    pub fn reference_vs_analytic(&self) -> f64 {
        if self.analytic_s > 0.0 {
            self.reference_s() / self.analytic_s
        } else {
            1.0
        }
    }
}

/// Fluid re-score of one candidate (stored on the record it re-scored).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidRescore {
    /// Congestion-corrected geometric-mean delay over the DNNs (s).
    pub delay: f64,
    /// Objective re-scored with the corrected delay (energy and MC are
    /// unchanged by the network model).
    pub score: f64,
    /// Worst per-group fluid/analytic ratio observed on this candidate.
    pub worst_fluid_vs_analytic: f64,
}

/// One re-ranked candidate's before/after scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RerankEntry {
    /// Index into the result's record list.
    pub index: usize,
    /// Score under the analytic model.
    pub analytic_score: f64,
    /// Score under the congestion-corrected delay.
    pub fluid_score: f64,
}

/// The fidelity outcome of one DSE run: which rungs ran, how the
/// ranking moved, and the winner's per-group analytic-vs-reference
/// discrepancy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseReport {
    /// The policy that produced this report.
    pub policy: FidelityPolicy,
    /// Winner index under the analytic model alone.
    pub analytic_best: usize,
    /// Winner index after the fidelity stages (equals `analytic_best`
    /// under [`FidelityPolicy::Analytic`]).
    pub best: usize,
    /// Re-ranked candidates in analytic order (empty under
    /// [`FidelityPolicy::Analytic`]).
    pub reranked: Vec<RerankEntry>,
    /// Per-group discrepancies of the final winner (fluid always;
    /// packet filled under [`FidelityPolicy::ValidateWinner`]).
    pub winner_groups: Vec<GroupDiscrepancy>,
    /// Congestion-surcharge weight that would align the analytic price
    /// with the *packet* reference on the winner's groups. Only filled
    /// under [`FidelityPolicy::ValidateWinner`] (the fluid rung has no
    /// queueing, so a fluid-referenced fit would spuriously advise
    /// weight ~0), and `None` when no group constrains it (e.g. fully
    /// compute-bound mappings).
    pub suggested_congestion_weight: Option<f64>,
    /// Rung-0 bound pre-filter statistics (`None` when the DSE ran with
    /// [`BoundMode::Off`]). Filled by the DSE driver after the
    /// fidelity stages; identical between [`BoundMode::Report`] and
    /// [`BoundMode::Prune`].
    pub bound: Option<BoundStats>,
}

impl DseReport {
    /// The trivial rung-0 report.
    pub fn analytic(best: usize) -> Self {
        Self {
            policy: FidelityPolicy::Analytic,
            analytic_best: best,
            best,
            reranked: Vec::new(),
            winner_groups: Vec::new(),
            suggested_congestion_weight: None,
            bound: None,
        }
    }

    /// Whether the congestion-aware re-rank overturned the analytic
    /// winner.
    pub fn winner_changed(&self) -> bool {
        self.best != self.analytic_best
    }

    /// Worst per-group fluid/analytic ratio on the winner (1.0 when no
    /// group was replayed).
    pub fn max_fluid_vs_analytic(&self) -> f64 {
        self.winner_groups
            .iter()
            .map(GroupDiscrepancy::fluid_vs_analytic)
            .fold(1.0, f64::max)
    }

    /// Applies the calibration feedback: `base` with the suggested
    /// congestion weight, or `base` unchanged when nothing constrains
    /// it. Build the next exploration's evaluators from the result to
    /// keep the cheap model honest.
    #[must_use]
    pub fn calibrated_eval_options(&self, base: EvalOptions) -> EvalOptions {
        match self.suggested_congestion_weight {
            Some(w) => base.with_congestion_weight(w),
            None => base,
        }
    }
}

/// Replays every group of one mapped DNN through the fluid simulator.
///
/// Returns the congestion-corrected end-to-end delay, the per-group
/// discrepancies and the parsed group mappings (so callers can replay
/// the packet rung without re-parsing). Shared by the DSE re-rank
/// stage and the per-cell fluid policy of the campaign driver
/// ([`crate::campaign::CellFidelity::Fluid`]).
pub(crate) fn fluid_replay_dnn(
    ev: &Evaluator,
    dnn: &Dnn,
    m: &MappedDnn,
    cfg: &FluidConfig,
    ws: &mut FlowSimWorkspace,
) -> (f64, Vec<GroupDiscrepancy>, Vec<GroupMapping>) {
    let overhead = ev.options().stage_overhead_s;
    let gms = m.group_mappings(dnn);
    let mut extra = Vec::with_capacity(gms.len());
    let mut groups = Vec::with_capacity(gms.len());
    for (gi, gm) in gms.iter().enumerate() {
        let c = check_group_fluid(ev, dnn, gm, cfg.cap_bytes, ws);
        // The evaluator's stage time already prices the envelope
        // max(compute, analytic network, DRAM); only the amount by
        // which the fluid completion exceeds that *whole envelope*
        // is unpriced congestion. Comparing against the analytic
        // network price alone would charge compute- or DRAM-bound
        // groups a phantom delay penalty for contention their
        // stage time already absorbs.
        extra.push(c.fluid_s - (m.report.groups[gi].stage_time_s - overhead));
        groups.push(GroupDiscrepancy {
            dnn: dnn.name().to_string(),
            group: gi,
            bottleneck_s: c.bottleneck_s,
            analytic_s: c.analytic_s,
            mean_link_s: c.mean_link_s,
            fluid_s: c.fluid_s,
            packet_s: None,
            packet_truncated: false,
            n_flows: c.n_flows,
        });
    }
    (m.congestion_corrected_delay(&extra), groups, gms)
}

/// Replays every group of `mapped` (one entry per DNN) through the
/// fluid simulator and returns the congestion-corrected geometric-mean
/// delay, the per-group discrepancies (DNN-major group order) and the
/// parsed per-DNN group mappings (so winner validation can replay the
/// packet rung without re-parsing).
pub(crate) fn fluid_rescore_delay(
    ev: &Evaluator,
    dnns: &[Dnn],
    mapped: &[MappedDnn],
    cfg: &FluidConfig,
) -> (f64, Vec<GroupDiscrepancy>, Vec<Vec<GroupMapping>>) {
    let mut ws = FlowSimWorkspace::new();
    let mut log_d = 0.0;
    let mut groups = Vec::new();
    let mut all_gms = Vec::with_capacity(dnns.len());
    for (dnn, m) in dnns.iter().zip(mapped) {
        let (corrected, dnn_groups, gms) = fluid_replay_dnn(ev, dnn, m, cfg, &mut ws);
        log_d += corrected.ln();
        groups.extend(dnn_groups);
        all_gms.push(gms);
    }
    let n = dnns.len().max(1) as f64;
    ((log_d / n).exp(), groups, all_gms)
}

/// Runs the re-rank (and optional winner-validation) stage of the DSE
/// driver, `dse::sweep`, for homogeneous and heterogeneous candidates
/// alike.
///
/// `scores` / `mcs_energies` describe the analytic records (the
/// analytic winner is the lowest score, ties to the lowest index);
/// `remap(i)` rebuilds record `i`'s evaluator and deterministic
/// mappings (the SA engine is bit-identical given the same options, so
/// re-running it reproduces the analytic pass's mappings exactly).
/// Returns the final winner index, the report, and the per-candidate
/// re-scores to attach to the records. The top-K fan-out uses the same
/// scoped worker pool as the candidate sweep; results are in
/// deterministic index order regardless of `workers`.
pub(crate) fn run_fidelity_stage<F>(
    policy: &FidelityPolicy,
    objective: Objective,
    scores: &[f64],
    mcs_energies: &[(f64, f64)],
    workers: usize,
    dnns: &[Dnn],
    remap: F,
) -> (usize, DseReport, Vec<(usize, FluidRescore)>)
where
    F: Fn(usize) -> (Evaluator, Vec<MappedDnn>) + Sync,
{
    let analytic_best = (0..scores.len())
        .min_by(|&a, &b| scores[a].total_cmp(&scores[b]))
        .expect("non-empty");
    let Some((k, fluid_cfg)) = policy.rerank_params() else {
        return (
            analytic_best,
            DseReport::analytic(analytic_best),
            Vec::new(),
        );
    };
    let k = k.clamp(1, scores.len());

    // Top-K analytic survivors, ties broken by index (total order keeps
    // the selection deterministic even on NaN-free equal scores).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    let topk = &order[..k];

    // Fluid re-scoring fans out over the shared scoped worker pool;
    // each candidate's replay is independent, so index-ordered results
    // are bit-identical at any worker count. The evaluator and mapped
    // DNNs are retained (K is small) so winner validation below does
    // not have to re-run the SA engine a third time.
    struct Rescored {
        fluid: FluidRescore,
        groups: Vec<GroupDiscrepancy>,
        ev: Evaluator,
        gms: Vec<Vec<GroupMapping>>,
    }
    let rescored: Vec<Rescored> = crate::pool::parallel_map_indexed(workers.clamp(1, k), k, |j| {
        let idx = topk[j];
        let (ev, mapped) = remap(idx);
        let (delay, groups, gms) = fluid_rescore_delay(&ev, dnns, &mapped, &fluid_cfg);
        let (mc, energy) = mcs_energies[idx];
        let worst = groups
            .iter()
            .map(GroupDiscrepancy::fluid_vs_analytic)
            .fold(1.0, f64::max);
        Rescored {
            fluid: FluidRescore {
                delay,
                score: objective.score(mc, energy, delay),
                worst_fluid_vs_analytic: worst,
            },
            groups,
            ev,
            gms,
        }
    });

    let best_j = (0..k)
        .min_by(|&a, &b| {
            rescored[a]
                .fluid
                .score
                .total_cmp(&rescored[b].fluid.score)
                .then(topk[a].cmp(&topk[b]))
        })
        .expect("k >= 1");
    let best = topk[best_j];
    let mut winner_groups = rescored[best_j].groups.clone();

    // Winner validation (rung 2): replay the winner's groups through
    // the packet simulator — reusing the mappings parsed during the
    // re-rank, the analytic/fluid rungs are already in `winner_groups`
    // — and calibrate against the packet reference. No calibration is
    // suggested below rung 2: the fluid model has no queueing,
    // arbitration or per-hop latency, so a fluid-referenced fit would
    // advise stripping the surcharge (weight ~0) that the packet
    // reference shows is needed.
    let suggested = if let Some(pcfg) = policy.packet_cfg() {
        let winner = &rescored[best_j];
        let mut packet_ws = PacketSimWorkspace::new();
        let mut obs = Vec::new();
        let mut gi_all = 0usize;
        for (dnn, gms) in dnns.iter().zip(&winner.gms) {
            for gm in gms {
                let pc = check_group_packet(
                    &winner.ev,
                    dnn,
                    gm,
                    pcfg,
                    fluid_cfg.cap_bytes,
                    &mut packet_ws,
                );
                let g = &mut winner_groups[gi_all];
                g.packet_s = Some(pc.packet_s);
                g.packet_truncated = pc.truncated;
                // A truncated replay under-reports congestion: it must
                // not drag the calibrated weight down.
                if !pc.truncated {
                    obs.push((g.bottleneck_s, g.mean_link_s, pc.packet_s));
                }
                gi_all += 1;
            }
        }
        calibrate_congestion_weight(obs)
    } else {
        None
    };

    let reranked = topk
        .iter()
        .zip(&rescored)
        .map(|(&index, r)| RerankEntry {
            index,
            analytic_score: scores[index],
            fluid_score: r.fluid.score,
        })
        .collect();
    let report = DseReport {
        policy: policy.clone(),
        analytic_best,
        best,
        reranked,
        winner_groups,
        suggested_congestion_weight: suggested,
        bound: None,
    };
    let rescores = topk
        .iter()
        .zip(rescored)
        .map(|(&index, r)| (index, r.fluid))
        .collect();
    (best, report, rescores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_accessors() {
        assert_eq!(FidelityPolicy::default(), FidelityPolicy::Analytic);
        assert!(FidelityPolicy::Analytic.rerank_params().is_none());
        assert!(FidelityPolicy::Analytic.packet_cfg().is_none());
        let (k, fluid) = FidelityPolicy::rerank(5).rerank_params().unwrap();
        assert_eq!(k, 5);
        assert_eq!(fluid, FluidConfig::default());
        assert!(FidelityPolicy::rerank(5).packet_cfg().is_none());
        let v = FidelityPolicy::validate(3);
        assert_eq!(v.rerank_params().unwrap().0, 3);
        assert_eq!(v.packet_cfg(), Some(&PacketSimConfig::default()));
    }

    #[test]
    fn analytic_report_is_trivial() {
        let r = DseReport::analytic(7);
        assert_eq!(r.best, 7);
        assert!(!r.winner_changed());
        assert_eq!(r.max_fluid_vs_analytic(), 1.0);
        let base = EvalOptions::default();
        assert_eq!(r.calibrated_eval_options(base), base);
    }

    #[test]
    fn discrepancy_ratios_and_reference() {
        let mut g = GroupDiscrepancy {
            dnn: "d".into(),
            group: 0,
            bottleneck_s: 1.0,
            analytic_s: 2.0,
            mean_link_s: 0.25,
            fluid_s: 3.0,
            packet_s: None,
            packet_truncated: false,
            n_flows: 4,
        };
        assert_eq!(g.fluid_vs_analytic(), 1.5);
        assert_eq!(g.reference_s(), 3.0);
        assert_eq!(g.reference_vs_analytic(), 1.5);
        g.packet_s = Some(3.5);
        assert_eq!(g.reference_s(), 3.5);
        assert_eq!(g.reference_vs_analytic(), 1.75);
        g.analytic_s = 0.0;
        assert_eq!(g.fluid_vs_analytic(), 1.0);
        assert_eq!(g.reference_vs_analytic(), 1.0);
    }

    #[test]
    fn compute_bound_groups_pay_no_phantom_penalty() {
        // The correction compares the fluid completion against the
        // whole priced stage envelope, not the analytic network price:
        // groups whose stage time already covers the fluid completion
        // must re-score to exactly the analytic delay.
        let dnn = gemini_model::zoo::two_conv_example();
        let arch = gemini_arch::presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let engine = crate::engine::MappingEngine::new(&ev);
        let m = engine.map_stripe(&dnn, 2, &crate::engine::MappingOptions::default());
        let (delay, groups, gms) = fluid_rescore_delay(
            &ev,
            std::slice::from_ref(&dnn),
            std::slice::from_ref(&m),
            &FluidConfig::default(),
        );
        assert_eq!(groups.len(), m.report.groups.len());
        assert_eq!(gms.len(), 1);
        assert_eq!(gms[0].len(), m.report.groups.len());
        // Monotone in every case.
        assert!(delay >= m.report.delay_s * (1.0 - 1e-12));
        let overhead = ev.options().stage_overhead_s;
        let covered = groups
            .iter()
            .zip(&m.report.groups)
            .all(|(g, gr)| g.fluid_s <= gr.stage_time_s - overhead);
        if covered {
            assert!(
                (delay - m.report.delay_s).abs() <= m.report.delay_s * 1e-12,
                "no phantom penalty when the stage envelope covers the fluid time: \
                 {delay} vs {}",
                m.report.delay_s
            );
        }
    }

    #[test]
    fn calibrated_options_apply_suggestion() {
        let mut r = DseReport::analytic(0);
        r.suggested_congestion_weight = Some(9.0);
        let opts = r.calibrated_eval_options(EvalOptions::default());
        assert_eq!(opts.congestion_weight, 9.0);
    }
}
