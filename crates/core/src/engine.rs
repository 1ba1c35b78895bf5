//! The Mapping Engine (Fig. 4 of the paper): graph partitioning, initial
//! stripe schemes, SA exploration and final evaluation, wrapped into one
//! call.
//!
//! Each mapping is evaluated cold once: the annealer evaluates the
//! start, its final pass re-simulates only what SA changed, and
//! [`MappingEngine::map`] reports the sum of those group reports.
//! [`MappingEngine::evaluate`] is the cold reference they equal.
//!
//! The SA stage runs one annealing chain per layer group, concurrently
//! (see [`crate::sa`]); [`SaOptions::threads`] — env-overridable via
//! `GEMINI_SA_THREADS` — sets the worker count, and results are
//! bit-identical at any setting.

use std::collections::BTreeMap;

use gemini_model::{Dnn, LayerId};
use gemini_sim::{DnnReport, DramSel, Evaluator, GroupMapping};

use crate::encoding::{flow_needs, GroupSpec, Lms};
use crate::partition::{partition_graph, GraphPartition, PartitionOptions};
use crate::sa::{optimize, SaOptions, SaStats};
use crate::stripe::{bound_seed_lms, stripe_lms};

/// Options for a full mapping run.
#[derive(Debug, Clone, Default)]
pub struct MappingOptions {
    /// SA options (iteration budget, seed, operator mask, exponents,
    /// chain-worker threads).
    pub sa: SaOptions,
    /// Graph-partitioner options.
    pub partition: PartitionOptions,
}

/// A fully-mapped DNN: partition, per-group schemes and the evaluation.
#[derive(Debug, Clone)]
pub struct MappedDnn {
    /// The layer groups.
    pub partition: GraphPartition,
    /// Optimized (or heuristic) scheme per group.
    pub lms: Vec<Lms>,
    /// Full evaluation of the mapping.
    pub report: DnnReport,
    /// SA statistics (None for the stripe baseline).
    pub sa_stats: Option<SaStats>,
}

impl MappedDnn {
    /// Parses every group's scheme into evaluator-facing mappings (for
    /// heatmaps and external analysis).
    pub fn group_mappings(&self, dnn: &Dnn) -> Vec<GroupMapping> {
        parse_all(dnn, &self.partition, &self.lms)
    }

    /// Recomputes the end-to-end delay after raising each group's
    /// pipeline-stage time by `extra_stage_s[i]` seconds.
    ///
    /// This is the congestion correction of the DSE fidelity re-rank
    /// ([`crate::fidelity::FidelityPolicy`]): when a reference network
    /// simulation prices a group's stage traffic above the stage
    /// envelope the evaluator already charged (the max of compute,
    /// analytic network and DRAM time), the excess is added to that
    /// group's stage time and the delay formula
    /// `stage * (rounds + depth - 1) + load + overhead` is re-applied.
    /// Negative entries are clamped to zero — a reference model the
    /// stage envelope already covers never speeds the mapping up, so
    /// the correction is monotone.
    ///
    /// # Panics
    ///
    /// Panics if `extra_stage_s` does not have one entry per group.
    pub fn congestion_corrected_delay(&self, extra_stage_s: &[f64]) -> f64 {
        assert_eq!(
            extra_stage_s.len(),
            self.report.groups.len(),
            "one stage correction per layer group"
        );
        self.report
            .groups
            .iter()
            .zip(extra_stage_s)
            .map(|(g, &dx)| g.delay_s + dx.max(0.0) * (g.rounds as f64 + g.depth as f64 - 1.0))
            .sum()
    }
}

/// Parses all groups with cross-group OF resolution.
pub fn parse_all(dnn: &Dnn, partition: &GraphPartition, lms: &[Lms]) -> Vec<GroupMapping> {
    let mut of_map: BTreeMap<LayerId, DramSel> = BTreeMap::new();
    for (spec, l) in partition.groups.iter().zip(lms) {
        for (ms, &id) in l.schemes.iter().zip(&spec.members) {
            if flow_needs(dnn, spec, id).explicit_of {
                if let Some(sel) = DramSel::from_fd(ms.fd.ofm) {
                    of_map.insert(id, sel);
                }
            }
        }
    }
    let resolver = |p: LayerId| of_map.get(&p).copied().unwrap_or(DramSel::Interleaved);
    partition
        .groups
        .iter()
        .zip(lms)
        .map(|(spec, l)| l.parse(dnn, spec, &resolver))
        .collect()
}

/// The mapping engine bound to one evaluator (one architecture).
#[derive(Debug)]
pub struct MappingEngine<'a> {
    ev: &'a Evaluator,
}

impl<'a> MappingEngine<'a> {
    /// Creates an engine for an evaluator.
    pub fn new(ev: &'a Evaluator) -> Self {
        Self { ev }
    }

    /// G-Map: DP graph partition, stripe initialization, SA exploration
    /// (parallel per-group chains with incremental evaluation).
    ///
    /// The report is the annealer's own ([`crate::sa::SaOutcome::reports`]):
    /// each group is evaluated cold once, at the start, and the final
    /// pass re-simulates only the members SA changed. It is bit-identical
    /// to [`MappingEngine::evaluate`] of the returned schemes.
    pub fn map(&self, dnn: &Dnn, batch: u32, opts: &MappingOptions) -> MappedDnn {
        self.map_with_start(dnn, batch, opts).0
    }

    /// [`MappingEngine::map`], plus the report of SA's starting point.
    ///
    /// With `opts.sa.bound_seed` off, the start is the stripe scheme of
    /// every group of the same partition, so its report is bit-identical
    /// to `map_stripe(dnn, batch, opts).report`: callers comparing the
    /// T-Map with the G-Map get both from one partition and one cold
    /// evaluation.
    pub fn map_with_start(
        &self,
        dnn: &Dnn,
        batch: u32,
        opts: &MappingOptions,
    ) -> (MappedDnn, DnnReport) {
        self.anneal(dnn, batch, opts, |g| stripe_lms(dnn, self.ev.arch(), g))
    }

    /// G-Map on a heterogeneous chiplet assignment (Sec. V-D): identical
    /// to [`MappingEngine::map`], but seeds SA with the
    /// throughput-weighted stripe of
    /// [`crate::hetero_map::hetero_stripe_lms`] so layer boundaries
    /// respect per-chiplet core speeds from the first iteration.
    ///
    /// The evaluator should have been built with
    /// [`Evaluator::hetero`] over the same `spec` — otherwise the SA
    /// cost model will not see the heterogeneity this initializer
    /// anticipates.
    pub fn map_hetero(
        &self,
        dnn: &Dnn,
        batch: u32,
        opts: &MappingOptions,
        spec: &gemini_arch::HeteroSpec,
    ) -> MappedDnn {
        self.anneal(dnn, batch, opts, |g| {
            crate::hetero_map::hetero_stripe_lms(dnn, self.ev.arch(), g, spec)
        })
        .0
    }

    /// The G-Map body: partition, one `stripe` scheme per group as the
    /// SA starting point, then annealing. Returns the mapping and the
    /// start's report, both summed from the annealer's group reports.
    fn anneal(
        &self,
        dnn: &Dnn,
        batch: u32,
        opts: &MappingOptions,
        stripe: impl Fn(&GroupSpec) -> Lms,
    ) -> (MappedDnn, DnnReport) {
        let partition = partition_graph(dnn, self.ev.arch(), batch, &opts.partition);
        let init: Vec<Lms> = partition
            .groups
            .iter()
            .map(|g| {
                let base = stripe(g);
                if opts.sa.bound_seed {
                    bound_seed_lms(dnn, g, base)
                } else {
                    base
                }
            })
            .collect();
        let out = optimize(dnn, self.ev, &partition, init, batch, &opts.sa);
        let mapped = MappedDnn {
            partition,
            lms: out.lms,
            report: DnnReport::from_groups(out.reports),
            sa_stats: Some(out.stats),
        };
        (mapped, DnnReport::from_groups(out.init_reports))
    }

    /// T-Map baseline: DP graph partition + the stripe heuristic, no SA
    /// (the Tangram mapping of the paper's comparisons).
    pub fn map_stripe(&self, dnn: &Dnn, batch: u32, opts: &MappingOptions) -> MappedDnn {
        let arch = self.ev.arch();
        let partition = partition_graph(dnn, arch, batch, &opts.partition);
        let lms: Vec<Lms> = partition
            .groups
            .iter()
            .map(|g| stripe_lms(dnn, arch, g))
            .collect();
        let report = self.evaluate(dnn, &partition, &lms, batch);
        MappedDnn {
            partition,
            lms,
            report,
            sa_stats: None,
        }
    }

    /// Evaluates a set of schemes end to end, cold: every group is
    /// parsed under the schemes' OF map and simulated from scratch.
    ///
    /// This is the reference the other paths are held to: it produces
    /// [`MappingEngine::map_stripe`]'s report, and tests (and external
    /// tracers) re-evaluate a G-Map's schemes with it to check the
    /// annealer's incremental report bit for bit.
    pub fn evaluate(
        &self,
        dnn: &Dnn,
        partition: &GraphPartition,
        lms: &[Lms],
        batch: u32,
    ) -> DnnReport {
        let gms = parse_all(dnn, partition, lms);
        self.ev.evaluate_dnn(dnn, &gms, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;
    use gemini_model::zoo;

    fn quick_opts(iters: u32) -> MappingOptions {
        MappingOptions {
            sa: SaOptions {
                iters,
                seed: 1,
                ..Default::default()
            },
            partition: PartitionOptions::default(),
        }
    }

    #[test]
    fn gmap_beats_or_ties_tmap_on_small_net() {
        let dnn = zoo::tiny_resnet();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let engine = MappingEngine::new(&ev);
        let t = engine.map_stripe(&dnn, 8, &quick_opts(0));
        let g = engine.map(&dnn, 8, &quick_opts(300));
        let t_edp = t.report.edp();
        let g_edp = g.report.edp();
        assert!(
            g_edp <= t_edp * 1.0001,
            "G-Map EDP {g_edp} must not lose to T-Map {t_edp}"
        );
        assert!(g.sa_stats.is_some());
        assert!(t.sa_stats.is_none());
    }

    #[test]
    fn mapped_dnn_round_trips_group_mappings() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let engine = MappingEngine::new(&ev);
        let m = engine.map_stripe(&dnn, 4, &quick_opts(0));
        let gms = m.group_mappings(&dnn);
        assert_eq!(gms.len(), m.partition.groups.len());
        for gm in &gms {
            gm.validate(&dnn).unwrap();
        }
    }

    #[test]
    fn congestion_corrected_delay_is_monotone_and_exact() {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let engine = MappingEngine::new(&ev);
        let m = engine.map_stripe(&dnn, 4, &quick_opts(0));
        let mut extra = vec![0.0; m.report.groups.len()];
        // Zero correction reproduces the evaluator's delay exactly.
        assert!((m.congestion_corrected_delay(&extra) - m.report.delay_s).abs() < 1e-18);
        // A positive correction scales by the group's round count.
        extra[0] = 1e-6;
        let g = &m.report.groups[0];
        let expected = m.report.delay_s + 1e-6 * (g.rounds as f64 + g.depth as f64 - 1.0);
        assert!((m.congestion_corrected_delay(&extra) - expected).abs() < 1e-15);
        // Negative corrections never speed the mapping up.
        extra[0] = -1.0;
        assert!((m.congestion_corrected_delay(&extra) - m.report.delay_s).abs() < 1e-18);
    }

    #[test]
    fn report_delay_and_energy_positive() {
        let dnn = zoo::two_conv_example();
        let arch = presets::simba_s_arch();
        let ev = Evaluator::new(&arch);
        let engine = MappingEngine::new(&ev);
        let m = engine.map_stripe(&dnn, 1, &quick_opts(0));
        assert!(m.report.delay_s > 0.0);
        assert!(m.report.energy.total() > 0.0);
    }

    #[test]
    fn hetero_map_beats_naive_stripe_on_big_little() {
        // Big/little fabric: the throughput-weighted init plus SA must
        // beat the heterogeneity-blind plain stripe.
        let dnn = zoo::tiny_resnet();
        let arch = gemini_arch::ArchConfig::builder()
            .cores(6, 6)
            .cuts(2, 1)
            .build()
            .unwrap();
        let spec = gemini_arch::HeteroSpec::new(
            vec![
                gemini_arch::CoreClass {
                    macs: 2048,
                    glb_bytes: 2 << 20,
                },
                gemini_arch::CoreClass {
                    macs: 512,
                    glb_bytes: 1 << 20,
                },
            ],
            vec![0, 1],
            &arch,
        )
        .unwrap();
        let ev = Evaluator::hetero(&arch, &spec);
        let engine = MappingEngine::new(&ev);
        let naive = engine.map_stripe(&dnn, 8, &quick_opts(0));
        let smart = engine.map_hetero(&dnn, 8, &quick_opts(200), &spec);
        assert!(
            smart.report.edp() <= naive.report.edp() * 1.0001,
            "hetero-aware mapping {} must not lose to the naive stripe {}",
            smart.report.edp(),
            naive.report.edp()
        );
    }
}
