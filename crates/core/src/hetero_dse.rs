//! Heterogeneous-architecture design-space exploration (Sec. V-D).
//!
//! The homogeneous DSE of [`crate::dse`] sweeps one (MACs, GLB) point
//! for all cores. This engine makes the *per-chiplet class assignment*
//! an explored dimension: every chiplet of a fixed fabric independently
//! picks its core class from a candidate list, each assignment is
//! mapped with the heterogeneity-aware engine
//! ([`crate::engine::MappingEngine::map_hetero`]) and priced with
//! [`gemini_cost::CostModel::evaluate_hetero`], and the winner minimizes
//! the same `MC^alpha * E^beta * D^gamma` objective.
//!
//! Chiplet position matters (DRAM sits on the west/east edges; the
//! snake-order initializer walks rows), so assignments are *not*
//! deduplicated up to permutation — `(big, little)` and `(little, big)`
//! are distinct candidates.

use gemini_arch::{ArchConfig, CoreClass, HeteroSpec};
use gemini_cost::CostModel;
use gemini_model::Dnn;
use gemini_sim::Evaluator;

use crate::dse::{
    mapped_geomean, stripe_bound, sweep, Candidate, CandidateBound, DseOptions, Objective,
    RecordBound,
};
use crate::engine::{MappedDnn, MappingEngine};
use crate::fidelity::{DseReport, FluidRescore};
use crate::hetero_map::hetero_stripe_lms;

/// The heterogeneous DSE grid: a fixed fabric whose chiplets each pick
/// one of the candidate classes.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroDseSpec {
    /// The fabric: grid, cuts, bandwidths and DRAM are fixed; the
    /// per-core MACs/GLB of this config are ignored.
    pub fabric: ArchConfig,
    /// Candidate core classes.
    pub classes: Vec<CoreClass>,
}

impl HeteroDseSpec {
    /// Enumerates every per-chiplet class assignment (`K^C` candidates
    /// for `K` classes and `C` chiplets).
    ///
    /// # Panics
    ///
    /// Panics if the grid would exceed 4096 candidates — heterogeneous
    /// DSE is meant for the coarse chiplet counts the paper finds
    /// optimal (2-4), not for 36-chiplet Simba-granularity fabrics.
    pub fn candidates(&self) -> Vec<HeteroSpec> {
        let c = self.fabric.n_chiplets() as usize;
        let k = self.classes.len();
        let total = (k as u64).checked_pow(c as u32).unwrap_or(u64::MAX);
        assert!(
            total <= 4096,
            "{k}^{c} = {total} assignments; use fewer classes or coarser chiplets"
        );
        let mut out = Vec::with_capacity(total as usize);
        let mut assign = vec![0u8; c];
        loop {
            out.push(
                HeteroSpec::new(self.classes.clone(), assign.clone(), &self.fabric)
                    .expect("enumerated assignments are valid"),
            );
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == c {
                    return out;
                }
                assign[i] += 1;
                if (assign[i] as usize) < k {
                    break;
                }
                assign[i] = 0;
                i += 1;
            }
        }
    }
}

/// One explored heterogeneous candidate.
#[derive(Debug, Clone)]
pub struct HeteroDseRecord {
    /// The class assignment.
    pub spec: HeteroSpec,
    /// Peak TOPS of the assignment.
    pub tops: f64,
    /// Monetary cost ($).
    pub mc: f64,
    /// Geometric-mean energy over the DNNs (J).
    pub energy: f64,
    /// Geometric-mean delay over the DNNs (s).
    pub delay: f64,
    /// Objective score.
    pub score: f64,
    /// Congestion-aware re-score from the fidelity re-rank stage
    /// (`None` for assignments the policy did not re-score).
    pub fluid: Option<FluidRescore>,
    /// Rung-0 bound diagnostics (`None` when the DSE ran with
    /// [`crate::fidelity::BoundMode::Off`]).
    pub bound: Option<RecordBound>,
    /// Whether this assignment was pruned before SA (see
    /// [`crate::dse::DseRecord::pruned`]): `energy`/`delay`/`score`
    /// hold the bound values.
    pub pruned: bool,
}

/// Result of a heterogeneous DSE.
#[derive(Debug, Clone)]
pub struct HeteroDseResult {
    /// All evaluated assignments.
    pub records: Vec<HeteroDseRecord>,
    /// Index of the best record (after any fidelity re-rank the options
    /// requested).
    pub best: usize,
    /// Fidelity-ladder outcome (see [`crate::fidelity::DseReport`]).
    pub report: DseReport,
}

impl HeteroDseResult {
    /// The winning record.
    pub fn best_record(&self) -> &HeteroDseRecord {
        &self.records[self.best]
    }

    /// Re-ranks under a different objective without re-mapping.
    ///
    /// Scores from the *analytic* metrics only (see
    /// [`crate::dse::DseResult::best_under`] for why fluid re-scores
    /// cannot be compared across the whole record list).
    pub fn best_under(&self, obj: Objective) -> &HeteroDseRecord {
        self.records
            .iter()
            .min_by(|a, b| {
                let sa = obj.score(a.mc, a.energy, a.delay);
                let sb = obj.score(b.mc, b.energy, b.delay);
                sa.total_cmp(&sb)
            })
            .expect("non-empty DSE")
    }
}

/// One class assignment on the spec's fabric: the [`Candidate`] the
/// shared [`crate::dse::sweep`] explores.
struct Assignment<'a> {
    fabric: &'a ArchConfig,
    spec: HeteroSpec,
}

impl Candidate for Assignment<'_> {
    type Record = HeteroDseRecord;

    fn evaluate(&self, dnns: &[Dnn], cost: &CostModel, opts: &DseOptions) -> HeteroDseRecord {
        let (_, mapped) = self.remap(dnns, opts);
        let (energy, delay) = mapped_geomean(&mapped);
        let mc = cost.evaluate_hetero(self.fabric, &self.spec).total();
        HeteroDseRecord {
            spec: self.spec.clone(),
            tops: self.spec.tops(self.fabric),
            mc,
            energy,
            delay,
            score: opts.objective.score(mc, energy, delay),
            fluid: None,
            bound: None,
            pruned: false,
        }
    }

    /// The bound on the heterogeneity-aware stripe mapping (see
    /// [`crate::dse::stripe_bound`]).
    fn bound(&self, dnns: &[Dnn], cost: &CostModel, opts: &DseOptions) -> CandidateBound {
        let mc = cost.evaluate_hetero(self.fabric, &self.spec).total();
        let ev = Evaluator::hetero(self.fabric, &self.spec);
        stripe_bound(&ev, mc, dnns, opts, |dnn, g| {
            hetero_stripe_lms(dnn, self.fabric, g, &self.spec)
        })
    }

    fn pruned_record(&self, cost: &CostModel, cb: &CandidateBound) -> HeteroDseRecord {
        HeteroDseRecord {
            spec: self.spec.clone(),
            tops: self.spec.tops(self.fabric),
            mc: cost.evaluate_hetero(self.fabric, &self.spec).total(),
            energy: cb.energy,
            delay: cb.delay,
            score: cb.score,
            fluid: None,
            bound: None,
            pruned: true,
        }
    }

    fn remap(&self, dnns: &[Dnn], opts: &DseOptions) -> (Evaluator, Vec<MappedDnn>) {
        let ev = Evaluator::hetero(self.fabric, &self.spec);
        let engine = MappingEngine::new(&ev);
        let mapped = dnns
            .iter()
            .map(|d| engine.map_hetero(d, opts.batch, &opts.mapping, &self.spec))
            .collect();
        (ev, mapped)
    }

    fn score(r: &HeteroDseRecord) -> f64 {
        r.score
    }

    fn mc_energy(r: &HeteroDseRecord) -> (f64, f64) {
        (r.mc, r.energy)
    }

    fn annotations(
        r: &mut HeteroDseRecord,
    ) -> (&mut Option<RecordBound>, &mut Option<FluidRescore>) {
        (&mut r.bound, &mut r.fluid)
    }
}

/// Runs the heterogeneous DSE over all class assignments.
///
/// Assignments go through the same driver as the homogeneous
/// [`crate::dse::run_dse_over`]: candidate workers, SA-thread pinning,
/// the rung-0 pre-filter and the fidelity stage behave alike, with the
/// heterogeneity-aware evaluator and mapper. Results are identical at
/// any thread count.
///
/// # Panics
///
/// Panics if the grid is empty (no classes).
pub fn run_hetero_dse(dnns: &[Dnn], spec: &HeteroDseSpec, opts: &DseOptions) -> HeteroDseResult {
    let candidates: Vec<Assignment> = spec
        .candidates()
        .into_iter()
        .map(|a| Assignment {
            fabric: &spec.fabric,
            spec: a,
        })
        .collect();
    assert!(!candidates.is_empty(), "no class assignments to explore");
    let (records, best, report) = sweep(&candidates, dnns, opts);
    HeteroDseResult {
        records,
        best,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MappingOptions;
    use crate::sa::SaOptions;
    use gemini_model::zoo;

    fn two_chiplet_fabric() -> ArchConfig {
        ArchConfig::builder()
            .cores(4, 4)
            .cuts(1, 2)
            .build()
            .unwrap()
    }

    fn big_little_classes() -> Vec<CoreClass> {
        vec![
            CoreClass {
                macs: 2048,
                glb_bytes: 2 << 20,
            },
            CoreClass {
                macs: 512,
                glb_bytes: 1 << 20,
            },
        ]
    }

    #[test]
    fn candidate_enumeration_is_exhaustive() {
        let spec = HeteroDseSpec {
            fabric: two_chiplet_fabric(),
            classes: big_little_classes(),
        };
        let cands = spec.candidates();
        assert_eq!(cands.len(), 4, "2 classes ^ 2 chiplets");
        let mut assigns: Vec<Vec<u8>> = cands
            .iter()
            .map(|c| c.class_of_chiplet().to_vec())
            .collect();
        assigns.sort();
        assert_eq!(
            assigns,
            vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]
        );
    }

    #[test]
    #[should_panic(expected = "assignments")]
    fn oversized_grids_rejected() {
        let fabric = ArchConfig::builder()
            .cores(8, 8)
            .cuts(8, 8)
            .build()
            .unwrap();
        let spec = HeteroDseSpec {
            fabric,
            classes: vec![
                CoreClass {
                    macs: 512,
                    glb_bytes: 1 << 20,
                },
                CoreClass {
                    macs: 1024,
                    glb_bytes: 1 << 20,
                },
            ],
        };
        let _ = spec.candidates();
    }

    #[test]
    fn hetero_rerank_rescored_topk() {
        let spec = HeteroDseSpec {
            fabric: two_chiplet_fabric(),
            classes: big_little_classes(),
        };
        let opts = DseOptions {
            batch: 2,
            mapping: MappingOptions {
                sa: SaOptions {
                    iters: 30,
                    seed: 4,
                    ..Default::default()
                },
                ..Default::default()
            },
            fidelity: crate::fidelity::FidelityPolicy::rerank(2),
            ..Default::default()
        };
        let dnns = vec![zoo::two_conv_example()];
        let res = run_hetero_dse(&dnns, &spec, &opts);
        assert_eq!(res.records.iter().filter(|r| r.fluid.is_some()).count(), 2);
        assert_eq!(res.report.reranked.len(), 2);
        // The winner is one of the re-scored assignments and minimizes
        // the congestion-corrected score.
        let best = res.records[res.best].fluid.as_ref().expect("re-scored");
        for r in res.records.iter().filter_map(|r| r.fluid.as_ref()) {
            assert!(best.score <= r.score * (1.0 + 1e-12));
        }
    }

    #[test]
    fn mini_hetero_dse_finds_a_best() {
        let spec = HeteroDseSpec {
            fabric: two_chiplet_fabric(),
            classes: big_little_classes(),
        };
        let opts = DseOptions {
            batch: 2,
            mapping: MappingOptions {
                sa: SaOptions {
                    iters: 30,
                    seed: 4,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let dnns = vec![zoo::two_conv_example()];
        let res = run_hetero_dse(&dnns, &spec, &opts);
        assert_eq!(res.records.len(), 4);
        let best = res.best_record();
        assert!(best.score > 0.0 && best.mc > 0.0 && best.tops > 0.0);
        // Re-rank under delay only: the all-big assignment must win on
        // raw speed.
        let fastest = res.best_under(Objective::d_only());
        assert!(
            fastest.spec.class_of_chiplet().iter().all(|&c| c == 0),
            "all-big must be the fastest assignment, got {:?}",
            fastest.spec.class_of_chiplet()
        );
        // And the all-little assignment must be the cheapest.
        let cheapest = res
            .records
            .iter()
            .min_by(|a, b| a.mc.partial_cmp(&b.mc).unwrap())
            .unwrap();
        assert!(cheapest.spec.class_of_chiplet().iter().all(|&c| c == 1));
    }
}
