//! Architecture design-space exploration (Sec. V-A and Table I).
//!
//! All architecture-parameter candidates are enumerated exhaustively and
//! each is scored `MC^alpha * E^beta * D^gamma`, with E and D the
//! geometric means over the input DNNs of the energy and delay achieved
//! by the mapping engine on that candidate. Exploration parallelizes
//! over candidates with a scoped-thread worker pool.
//!
//! [`scale_arch`] supports the chiplet-reuse study (Sec. VII-B): it
//! builds a higher-compute accelerator out of more instances of the same
//! computing chiplet.

use serde::{Deserialize, Serialize};

use gemini_arch::{arrange_cores, ArchConfig, Topology, MAX_CORES};
use gemini_cost::CostModel;
use gemini_model::Dnn;
use gemini_sim::bound::dnn_bound;
use gemini_sim::Evaluator;

use crate::encoding::{GroupSpec, Lms};
use crate::engine::{parse_all, MappedDnn, MappingEngine, MappingOptions};
use crate::fidelity::{BoundMode, BoundStats, DseReport, FidelityPolicy, FluidRescore};
use crate::partition::partition_graph;
use crate::stripe::stripe_lms;

/// The objective type lives in [`crate::objective`]; `Objective` is the
/// historical name of [`ObjectiveSpec`], kept so existing imports
/// (`gemini_core::dse::Objective`) keep compiling.
pub use crate::objective::{
    ObjectiveParseError, ObjectiveSpec, ObjectiveSpec as Objective, VALID_FORMS,
};

/// The DSE parameter grid (Table I of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseSpec {
    /// Target computing power in TOPS.
    pub tops: f64,
    /// Candidate XCut/YCut values (must divide the core grid).
    pub cuts: Vec<u32>,
    /// DRAM bandwidth per TOPS (GB/s/TOPS).
    pub dram_bw_per_tops: Vec<f64>,
    /// NoC link bandwidths (GB/s).
    pub noc_bw: Vec<f64>,
    /// D2D bandwidth as a fraction of NoC bandwidth.
    pub d2d_ratio: Vec<f64>,
    /// GLB capacities per core (KiB).
    pub glb_kb: Vec<u64>,
    /// MACs per core.
    pub macs: Vec<u32>,
    /// Operating frequency (GHz).
    pub freq_ghz: f64,
}

impl DseSpec {
    /// Table I for the given computing power: 72 TOPs uses cuts
    /// {1,2,3,6}; 128/512 TOPs use {1,2,4,8}.
    pub fn table1(tops: f64) -> Self {
        let cuts = if (tops - 72.0).abs() < 16.0 {
            vec![1, 2, 3, 6]
        } else {
            vec![1, 2, 4, 8]
        };
        Self {
            tops,
            cuts,
            dram_bw_per_tops: vec![0.5, 1.0, 2.0],
            noc_bw: vec![8.0, 16.0, 32.0, 64.0, 128.0],
            d2d_ratio: vec![0.25, 0.5, 1.0],
            glb_kb: vec![256, 512, 1024, 2048, 4096, 8192],
            macs: vec![512, 1024, 2048, 4096, 8192],
            freq_ghz: 1.0,
        }
    }

    /// Core count and near-square grid for a MAC/core choice.
    ///
    /// The paper keeps total computing power at-or-just-above the target
    /// and arranges cores near-square (36 -> 6x6, 18 -> 6x3, 72 -> 9x8).
    /// We search the first few counts at/above `tops / (2*macs*freq)`
    /// and pick the one admitting the most valid (XCut, YCut) pairs,
    /// breaking ties by squareness and then by count. `None` when even
    /// the smallest count exceeds [`MAX_CORES`].
    pub fn grid_for(&self, macs: u32) -> Option<(u32, u32)> {
        let target = self.tops * 1e12 / (2.0 * macs as f64 * self.freq_ghz * 1e9);
        let lo = target.ceil().max(1.0);
        if lo > MAX_CORES as f64 {
            return None;
        }
        let lo = lo as u32;
        let hi = ((target * 1.08).ceil() as u32 + 2).clamp(lo, MAX_CORES);
        // Candidate sort key: (-cut_pairs, squareness, core_count).
        type GridKey = (i64, i64, i64);
        let mut best: Option<(GridKey, (u32, u32))> = None;
        for n in lo..=hi {
            let (x, y) = arrange_cores(n);
            let pairs = self.cuts.iter().filter(|&&c| x % c == 0).count()
                * self.cuts.iter().filter(|&&c| y % c == 0).count();
            // Sort key: most cut pairs, then most square, then lowest n.
            let key = (-(pairs as i64), squareness_milli(x, y), n as i64);
            if best.map_or(true, |(k, _)| key < k) {
                best = Some((key, (x, y)));
            }
        }
        best.map(|(_, g)| g)
    }

    /// Enumerates every valid architecture candidate of the grid.
    pub fn candidates(&self) -> Vec<ArchConfig> {
        let mut out = Vec::new();
        for &macs in &self.macs {
            let Some((x, y)) = self.grid_for(macs) else {
                continue;
            };
            for &xcut in &self.cuts {
                if x % xcut != 0 {
                    continue;
                }
                for &ycut in &self.cuts {
                    if y % ycut != 0 {
                        continue;
                    }
                    let monolithic = xcut == 1 && ycut == 1;
                    for &dpt in &self.dram_bw_per_tops {
                        for &noc in &self.noc_bw {
                            for (ri, &ratio) in self.d2d_ratio.iter().enumerate() {
                                // Monolithic candidates have no D2D links:
                                // the ratio sweep would only duplicate them.
                                if monolithic && ri > 0 {
                                    continue;
                                }
                                for &glb in &self.glb_kb {
                                    if let Ok(a) = ArchConfig::builder()
                                        .cores(x, y)
                                        .cuts(xcut, ycut)
                                        .noc_bw(noc)
                                        .d2d_bw(noc * ratio)
                                        .dram_bw(dpt * self.tops)
                                        .glb_kb(glb)
                                        .macs_per_core(macs)
                                        .freq_ghz(self.freq_ghz)
                                        .build()
                                    {
                                        out.push(a);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Symmetric squareness of a grid: `max(x, y) / min(x, y) * 1000`,
/// rounded (1000 = perfectly square; larger = skinnier). Symmetric in
/// its arguments, unlike the raw `x / y` aspect ratio a previous
/// tie-break used — under that key a 3x6 grid (aspect 0.5) ranked
/// *above* the 6x6 square the tie-break claims to prefer.
fn squareness_milli(x: u32, y: u32) -> i64 {
    let (hi, lo) = (x.max(y).max(1), x.min(y).max(1));
    (hi as f64 / lo as f64 * 1000.0).round() as i64
}

/// One explored candidate with its metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DseRecord {
    /// The architecture.
    pub arch: ArchConfig,
    /// Monetary cost in dollars.
    pub mc: f64,
    /// MC breakdown (silicon, dram, package).
    pub mc_breakdown: (f64, f64, f64),
    /// Geometric-mean energy over the DNNs (J).
    pub energy: f64,
    /// Geometric-mean delay over the DNNs (s).
    pub delay: f64,
    /// Objective score.
    pub score: f64,
    /// Per-DNN (name, energy, delay).
    pub per_dnn: Vec<(String, f64, f64)>,
    /// Congestion-aware re-score from the fidelity re-rank stage
    /// (`None` for candidates the policy did not re-score).
    pub fluid: Option<FluidRescore>,
    /// SA evaluation counters summed over this candidate's mapping
    /// runs (delta hits, full evals, member-layer sims/reuses; the
    /// cache counters stay 0, since the staged SA keeps no memo cache);
    /// the cost fields are zero — per-DNN costs live in `per_dnn`.
    pub sa_stats: crate::sa::SaStats,
    /// Rung-0 bound diagnostics (`None` when the DSE ran with
    /// [`BoundMode::Off`]).
    pub bound: Option<RecordBound>,
    /// Whether this candidate was pruned before SA: its bound already
    /// lost to the achieved seed threshold, so `energy`/`delay`/`score`
    /// hold the *bound* values (themselves worse than the winner),
    /// `per_dnn` is empty and `sa_stats` is zeroed.
    pub pruned: bool,
}

/// Rung-0 bound diagnostics of one DSE candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordBound {
    /// Lower-bound objective score.
    pub score: f64,
    /// Geometric-mean lower-bound energy over the DNNs (J).
    pub energy: f64,
    /// Geometric-mean lower-bound delay over the DNNs (s).
    pub delay: f64,
    /// Achieved/bound score ratio (>= 1 up to float noise) — the
    /// convergence diagnostic. `None` for pruned candidates (never
    /// evaluated).
    pub gap: Option<f64>,
}

impl DseRecord {
    /// Energy-delay product of the geometric means.
    pub fn edp(&self) -> f64 {
        self.energy * self.delay
    }
}

/// DSE options.
#[derive(Debug, Clone)]
pub struct DseOptions {
    /// Objective exponents.
    pub objective: Objective,
    /// Batch size per DNN (the paper's DSE uses 64).
    pub batch: u32,
    /// Mapping options (SA budget etc.).
    pub mapping: MappingOptions,
    /// Worker threads.
    pub threads: usize,
    /// Keep only every candidate whose index is divisible by this stride
    /// (1 = full grid); lets the quick mode subsample Table I.
    pub stride: usize,
    /// How much of the NoC fidelity ladder the DSE consults: analytic
    /// only, fluid re-rank of the top-K survivors, or re-rank plus
    /// packet validation of the winner (see
    /// [`crate::fidelity::FidelityPolicy`]).
    pub fidelity: FidelityPolicy,
    /// Rung-0 analytic-bound pre-filter: off, report-only, or prune
    /// (see [`BoundMode`]). Pruning never changes the winner or the
    /// fidelity top-K — it only skips SA on candidates whose bound
    /// already loses to an achieved incumbent.
    pub bound: BoundMode,
}

impl Default for DseOptions {
    fn default() -> Self {
        Self {
            objective: Objective::mc_e_d(),
            batch: 64,
            mapping: MappingOptions::default(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            stride: 1,
            fidelity: FidelityPolicy::Analytic,
            bound: BoundMode::Off,
        }
    }
}

/// DSE result: all evaluated records plus the best index.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Evaluated candidates.
    pub records: Vec<DseRecord>,
    /// Index of the best record under the objective (after any fidelity
    /// re-rank the options requested).
    pub best: usize,
    /// Fidelity-ladder outcome: which rungs ran, how the ranking moved,
    /// and the winner's per-group analytic-vs-reference discrepancy.
    pub report: DseReport,
}

impl DseResult {
    /// The best architecture found.
    pub fn best_record(&self) -> &DseRecord {
        &self.records[self.best]
    }

    /// Re-ranks under a different objective without re-running mappings.
    ///
    /// Scores from the *analytic* metrics only: fluid re-scores exist
    /// just for the top-K of the objective the DSE ran, so they cannot
    /// be compared across the whole record list. After a fidelity
    /// re-rank that overturned the analytic winner, `best_under` with
    /// the original objective can therefore disagree with
    /// [`DseResult::best_record`].
    pub fn best_under(&self, obj: Objective) -> &DseRecord {
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

/// Evaluates one candidate architecture on all DNNs.
pub fn evaluate_candidate(
    arch: &ArchConfig,
    dnns: &[Dnn],
    cost: &CostModel,
    opts: &DseOptions,
) -> DseRecord {
    let (_, mapped) = arch.remap(dnns, opts);
    let mut sa_stats = crate::sa::SaStats::default();
    for s in mapped.iter().filter_map(|m| m.sa_stats.as_ref()) {
        sa_stats.add_counters(s);
    }
    let (energy, delay) = mapped_geomean(&mapped);
    let mc_rep = cost.evaluate(arch);
    let mc = mc_rep.total();
    DseRecord {
        arch: arch.clone(),
        mc,
        mc_breakdown: (mc_rep.silicon, mc_rep.dram, mc_rep.package),
        energy,
        delay,
        score: opts.objective.score(mc, energy, delay),
        per_dnn: dnns
            .iter()
            .zip(&mapped)
            .map(|(d, m)| {
                (
                    d.name().to_string(),
                    m.report.energy.total(),
                    m.report.delay_s,
                )
            })
            .collect(),
        fluid: None,
        sa_stats,
        bound: None,
        pruned: false,
    }
}

/// Geometric means of the `(energy, delay)` pairs, one pair per DNN:
/// the E and D a multi-DNN candidate is scored on.
fn geomean(per_dnn: impl ExactSizeIterator<Item = (f64, f64)>) -> (f64, f64) {
    let n = per_dnn.len().max(1) as f64;
    let (log_e, log_d) = per_dnn.fold((0.0, 0.0), |(le, ld), (e, d)| (le + e.ln(), ld + d.ln()));
    ((log_e / n).exp(), (log_d / n).exp())
}

/// Geometric-mean achieved energy and delay of one mapping per DNN.
pub(crate) fn mapped_geomean(mapped: &[MappedDnn]) -> (f64, f64) {
    geomean(
        mapped
            .iter()
            .map(|m| (m.report.energy.total(), m.report.delay_s)),
    )
}

/// Rung-0 bound of one candidate: the closed-form lower bound of
/// [`gemini_sim::bound`] on the structural mapping `stripe` builds per
/// group (flow selectors and batch units are invariant across the SA
/// space, so the result bounds every mapping SA could reach),
/// geometric-meaned over the DNNs and scored with the exact monetary
/// cost `mc`.
pub(crate) fn stripe_bound(
    ev: &Evaluator,
    mc: f64,
    dnns: &[Dnn],
    opts: &DseOptions,
    stripe: impl Fn(&Dnn, &GroupSpec) -> Lms,
) -> CandidateBound {
    let (energy, delay) = geomean(dnns.iter().map(|dnn| {
        let partition = partition_graph(dnn, ev.arch(), opts.batch, &opts.mapping.partition);
        let lms: Vec<Lms> = partition.groups.iter().map(|g| stripe(dnn, g)).collect();
        let b = dnn_bound(ev, dnn, &parse_all(dnn, &partition, &lms), opts.batch);
        (b.energy_j, b.delay_s)
    }));
    CandidateBound {
        score: opts.objective.score(mc, energy, delay),
        energy,
        delay,
    }
}

/// One candidate's rung-0 bound metrics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandidateBound {
    pub(crate) score: f64,
    pub(crate) energy: f64,
    pub(crate) delay: f64,
}

/// The rung-0 pre-filter plan: per-candidate bounds, the seed set that
/// establishes the achieved threshold, and the prune mask. Identical
/// between [`BoundMode::Report`] and [`BoundMode::Prune`] (the mask is
/// computed either way; only `Prune` acts on it).
struct BoundPlan {
    bounds: Vec<CandidateBound>,
    seed: Vec<bool>,
    pruned: Vec<bool>,
    threshold: f64,
}

impl BoundPlan {
    /// Report statistics; `winner_gap` is the winner's achieved/bound
    /// score ratio.
    fn stats(&self, winner_achieved: f64, winner: usize) -> BoundStats {
        let wb = self.bounds[winner].score;
        BoundStats {
            total: self.bounds.len(),
            seeds: self.seed.iter().filter(|&&s| s).count(),
            pruned: self.pruned.iter().filter(|&&p| p).count(),
            threshold: self.threshold,
            winner_gap: if wb > 0.0 { winner_achieved / wb } else { 1.0 },
        }
    }
}

/// How many best-bounded candidates are fully evaluated to establish
/// the achieved prune threshold. Must be at least the fidelity
/// re-rank's `k` so the achieved top-K provably survives pruning; the
/// floor of 8 keeps the threshold honest on `analytic`-only sweeps.
fn seed_count(policy: &FidelityPolicy, n: usize) -> usize {
    let k = policy.rerank_params().map(|(k, _)| k).unwrap_or(0);
    k.max(8).min(n.max(1))
}

/// How many evaluated candidates must provably rank at-or-below the
/// prune threshold for pruning to be invisible: the fidelity re-rank
/// consumes the achieved top-`k`, so `k` of them must survive; the
/// plain analytic policy only needs the winner.
fn survivors_needed(policy: &FidelityPolicy) -> usize {
    policy.rerank_params().map(|(k, _)| k).unwrap_or(0).max(1)
}

/// Chooses the seed set: the best `seed_count` candidates by bound
/// score, ties broken by index. A candidate is later flagged only when
/// its bound *strictly* exceeds the `survivors_needed`-th best
/// achieved seed score, so the true winner — whose achieved score is
/// at most that threshold, hence also its bound — is never flagged,
/// and neither is any candidate of the achieved top-K.
fn bound_seed_mask(bounds: &[CandidateBound], n_seeds: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    order.sort_by(|&a, &b| bounds[a].score.total_cmp(&bounds[b].score).then(a.cmp(&b)));
    let mut seed = vec![false; bounds.len()];
    for &i in order.iter().take(n_seeds) {
        seed[i] = true;
    }
    seed
}

/// One point of a DSE sweep: a homogeneous architecture
/// ([`ArchConfig`]) or a heterogeneous class assignment (the private
/// candidate of [`crate::hetero_dse`]). [`sweep`] runs the rung-0
/// pre-filter, the SA evaluation and the fidelity stage over a slice of
/// either.
pub(crate) trait Candidate: Sync {
    /// The record one candidate contributes to the result.
    type Record: Send;
    /// Maps the candidate on every DNN and scores it.
    fn evaluate(&self, dnns: &[Dnn], cost: &CostModel, opts: &DseOptions) -> Self::Record;
    /// The candidate's rung-0 lower bound (see [`stripe_bound`]).
    fn bound(&self, dnns: &[Dnn], cost: &CostModel, opts: &DseOptions) -> CandidateBound;
    /// The record of a pruned candidate: exact monetary cost, bound
    /// metrics in place of achieved ones, no mapping data and
    /// `pruned: true`. Its score is strictly worse than the achieved
    /// scores of at least `survivors_needed` evaluated seeds, so it can
    /// never be selected as winner or enter the fidelity top-K.
    fn pruned_record(&self, cost: &CostModel, bound: &CandidateBound) -> Self::Record;
    /// The candidate's evaluator and one mapping per DNN. The SA engine
    /// is deterministic, so this reproduces the mappings `evaluate`
    /// scored exactly.
    fn remap(&self, dnns: &[Dnn], opts: &DseOptions) -> (Evaluator, Vec<MappedDnn>);
    /// The record's objective score.
    fn score(r: &Self::Record) -> f64;
    /// The record's monetary cost and energy.
    fn mc_energy(r: &Self::Record) -> (f64, f64);
    /// The record's rung-0 diagnostics and fidelity re-score slots.
    fn annotations(r: &mut Self::Record) -> (&mut Option<RecordBound>, &mut Option<FluidRescore>);
}

impl Candidate for ArchConfig {
    type Record = DseRecord;

    fn evaluate(&self, dnns: &[Dnn], cost: &CostModel, opts: &DseOptions) -> DseRecord {
        evaluate_candidate(self, dnns, cost, opts)
    }

    fn bound(&self, dnns: &[Dnn], cost: &CostModel, opts: &DseOptions) -> CandidateBound {
        let mc = cost.evaluate(self).total();
        stripe_bound(&Evaluator::new(self), mc, dnns, opts, |dnn, g| {
            stripe_lms(dnn, self, g)
        })
    }

    fn pruned_record(&self, cost: &CostModel, cb: &CandidateBound) -> DseRecord {
        let mc_rep = cost.evaluate(self);
        DseRecord {
            arch: self.clone(),
            mc: mc_rep.total(),
            mc_breakdown: (mc_rep.silicon, mc_rep.dram, mc_rep.package),
            energy: cb.energy,
            delay: cb.delay,
            score: cb.score,
            per_dnn: Vec::new(),
            fluid: None,
            sa_stats: crate::sa::SaStats::default(),
            bound: None,
            pruned: true,
        }
    }

    fn remap(&self, dnns: &[Dnn], opts: &DseOptions) -> (Evaluator, Vec<MappedDnn>) {
        let ev = Evaluator::new(self);
        let engine = MappingEngine::new(&ev);
        let mapped = dnns
            .iter()
            .map(|d| engine.map(d, opts.batch, &opts.mapping))
            .collect();
        (ev, mapped)
    }

    fn score(r: &DseRecord) -> f64 {
        r.score
    }

    fn mc_energy(r: &DseRecord) -> (f64, f64) {
        (r.mc, r.energy)
    }

    fn annotations(r: &mut DseRecord) -> (&mut Option<RecordBound>, &mut Option<FluidRescore>) {
        (&mut r.bound, &mut r.fluid)
    }
}

/// Runs the exhaustive DSE over a parameter grid.
///
/// # Panics
///
/// Panics if the grid produces no valid candidates.
pub fn run_dse(dnns: &[Dnn], spec: &DseSpec, opts: &DseOptions) -> DseResult {
    let candidates: Vec<ArchConfig> = spec
        .candidates()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % opts.stride.max(1) == 0)
        .map(|(_, a)| a)
        .collect();
    run_dse_over(&candidates, dnns, opts)
}

/// Runs the DSE over an explicit candidate list (used by the reuse
/// study and the torus comparison).
///
/// Parallelism is two-level: candidates fan out over `opts.threads`
/// workers here, and each mapping run fans its per-group SA chains out
/// over [`crate::sa::SaOptions::threads`]. When the candidate level
/// already uses multiple workers and the SA level is on auto (`0`),
/// the inner level is pinned to one thread so the machine is not
/// oversubscribed by `workers x chains`; results are unaffected (the
/// SA engine is deterministic at any thread count). The fidelity
/// re-rank stage requested by [`DseOptions::fidelity`] fans out over
/// the same worker pool with the same bit-identical guarantee.
///
/// Rung 0 ([`DseOptions::bound`]): before any SA runs, every candidate
/// gets a closed-form lower bound; the best-bounded `seed_count` are
/// evaluated first, their `survivors_needed`-th best achieved score
/// becomes the threshold, and candidates whose *bound* already exceeds
/// it are provably losers.
/// `Prune` skips their SA; `Report` still evaluates everything but
/// carries the identical plan and counters, so the [`DseReport`] is
/// byte-identical between the two modes and the winner is byte-identical
/// to `Off`.
pub fn run_dse_over(candidates: &[ArchConfig], dnns: &[Dnn], opts: &DseOptions) -> DseResult {
    assert!(!candidates.is_empty(), "no valid DSE candidates");
    let (records, best, report) = sweep(candidates, dnns, opts);
    DseResult {
        records,
        best,
        report,
    }
}

/// The one DSE driver, behind [`run_dse_over`] and
/// [`crate::hetero_dse::run_hetero_dse`] (see [`run_dse_over`] for the
/// parallelism and the rung-0 contract): returns the records in
/// candidate order, the winner's index and the fidelity report.
pub(crate) fn sweep<C: Candidate>(
    candidates: &[C],
    dnns: &[Dnn],
    opts: &DseOptions,
) -> (Vec<C::Record>, usize, DseReport) {
    let cost = CostModel::default();
    let n = candidates.len();

    let workers = opts.threads.clamp(1, n);
    let mut opts_inner = opts.clone();
    if opts_inner.mapping.sa.threads == 0 {
        opts_inner.mapping.sa.threads = crate::pool::sa_threads_for(workers);
    }
    // Evaluates the candidates `idx` names into their slots.
    let evaluate = |slots: &mut [Option<C::Record>], idx: Vec<usize>| {
        let recs = crate::pool::parallel_map_indexed(workers, idx.len(), |j| {
            candidates[idx[j]].evaluate(dnns, &cost, &opts_inner)
        });
        for (i, r) in idx.into_iter().zip(recs) {
            slots[i] = Some(r);
        }
    };
    let mut slots: Vec<Option<C::Record>> = (0..n).map(|_| None).collect();

    let plan = opts.bound.active().then(|| {
        // Rung 0, bound pass: closed-form lower bound per candidate.
        let bounds: Vec<CandidateBound> = crate::pool::parallel_map_indexed(workers, n, |i| {
            candidates[i].bound(dnns, &cost, opts)
        });
        // A non-monotone objective inverts bound comparisons, so every
        // candidate becomes a seed and nothing can be flagged.
        let n_seeds = if opts.objective.monotone() {
            seed_count(&opts.fidelity, n)
        } else {
            n
        };
        let seed = bound_seed_mask(&bounds, n_seeds);
        // Phase A: evaluate the best-bounded seeds to establish an
        // *achieved* incumbent threshold.
        evaluate(&mut slots, (0..n).filter(|&i| seed[i]).collect());
        // The threshold is the `survivors_needed`-th best achieved
        // seed score: a flagged candidate's achieved score is then
        // strictly worse than at least that many evaluated candidates,
        // so neither the winner nor any member of the achieved top-K
        // (the re-rank input) can ever be flagged.
        let mut achieved: Vec<f64> = slots.iter().flatten().map(C::score).collect();
        achieved.sort_by(f64::total_cmp);
        let need = survivors_needed(&opts.fidelity).min(achieved.len());
        let threshold = if need == 0 {
            f64::INFINITY
        } else {
            achieved[need - 1]
        };
        // Strict >: a candidate whose bound merely ties the threshold is
        // kept, so the true winner (achieved <= threshold, hence bound
        // <= threshold) can never be flagged.
        let pruned: Vec<bool> = (0..n)
            .map(|i| !seed[i] && bounds[i].score > threshold)
            .collect();
        BoundPlan {
            bounds,
            seed,
            pruned,
            threshold,
        }
    });
    // Phase B: the rest. `Prune` skips the flagged candidates; `Report`
    // evaluates them anyway (same plan, same counters — only the
    // skipped work differs).
    let skipped: Vec<bool> = (0..n)
        .map(|i| opts.bound.prunes() && plan.as_ref().is_some_and(|p| p.pruned[i]))
        .collect();
    let rest: Vec<usize> = (0..n)
        .filter(|&i| slots[i].is_none() && !skipped[i])
        .collect();
    evaluate(&mut slots, rest);

    // Assemble in candidate order; skipped slots get a bound-valued
    // stand-in record, and every record gets its bound diagnostics.
    let mut records: Vec<C::Record> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(b) = plan.as_ref().map(|p| p.bounds[i]) else {
                return s.expect("rung 0 off: every candidate evaluated");
            };
            let mut r = s.unwrap_or_else(|| candidates[i].pruned_record(&cost, &b));
            let gap = if skipped[i] || b.score <= 0.0 {
                None
            } else {
                Some(C::score(&r) / b.score)
            };
            *C::annotations(&mut r).0 = Some(RecordBound {
                score: b.score,
                energy: b.energy,
                delay: b.delay,
                gap,
            });
            r
        })
        .collect();

    // Pruned stand-ins carry bound scores strictly worse than the
    // achieved threshold (itself at least the winner's achieved score),
    // so masking them to infinity cannot move the minimum — it only
    // guarantees the fidelity top-K never touches a record without
    // per-DNN data.
    let scores: Vec<f64> = records
        .iter()
        .zip(&skipped)
        .map(|(r, &s)| if s { f64::INFINITY } else { C::score(r) })
        .collect();

    // Fidelity stages (no-op under `FidelityPolicy::Analytic`): fluid
    // re-rank of the top-K analytic survivors, then optional packet
    // validation of the winner.
    let mcs_energies: Vec<(f64, f64)> = records.iter().map(C::mc_energy).collect();
    let (best, mut report, rescores) = crate::fidelity::run_fidelity_stage(
        &opts.fidelity,
        opts.objective,
        &scores,
        &mcs_energies,
        opts.threads.max(1),
        dnns,
        |i| candidates[i].remap(dnns, &opts_inner),
    );
    for (i, fr) in rescores {
        *C::annotations(&mut records[i]).1 = Some(fr);
    }
    if let Some(plan) = &plan {
        report.bound = Some(plan.stats(C::score(&records[best]), best));
    }
    (records, best, report)
}

/// Builds a larger accelerator out of `factor` times the computing
/// chiplets of `base` (the chiplet-reuse construction of Sec. VII-B).
/// The chiplet itself — cores per chiplet, MACs, GLB, NoC/D2D bandwidth —
/// is unchanged; the chiplet grid is re-arranged near-square and the
/// DRAM bandwidth scales with compute. Returns `None` if the base cannot
/// be tiled by that factor.
pub fn scale_arch(base: &ArchConfig, factor: u32) -> Option<ArchConfig> {
    if factor == 0 {
        return None;
    }
    let (cdx, cdy) = base.chiplet_dims();
    let total_chiplets = base.n_chiplets() * factor;
    let (gx, gy) = arrange_cores(total_chiplets);
    ArchConfig::builder()
        .cores(gx * cdx, gy * cdy)
        .cuts(gx, gy)
        .noc_bw(base.noc_bw())
        .d2d_bw(base.d2d_bw())
        .dram_bw(base.dram_bw() * factor as f64)
        .dram_count(base.dram_count())
        .glb_kb(base.glb_bytes() / 1024)
        .macs_per_core(base.macs_per_core())
        .freq_ghz(base.freq_ghz())
        .topology(if factor == 1 {
            base.topology()
        } else {
            Topology::Mesh
        })
        .build()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::SaOptions;
    use gemini_model::zoo;

    #[test]
    fn objective_presets() {
        let o = Objective::mc_e_d();
        assert_eq!(o.score(2.0, 3.0, 4.0), 24.0);
        assert_eq!(Objective::d_only().score(2.0, 3.0, 4.0), 4.0);
        assert_eq!(Objective::e_d().score(2.0, 3.0, 4.0), 12.0);
    }

    #[test]
    fn table1_grid_matches_paper_examples() {
        // Regression for the doc-comment cases: 36 cores -> 6x6,
        // 18 -> 6x3, 72 -> 9x8.
        let spec = DseSpec::table1(72.0);
        assert_eq!(spec.grid_for(1024), Some((6, 6)));
        assert_eq!(spec.grid_for(2048), Some((6, 3)));
        assert_eq!(spec.grid_for(4096), Some((3, 3)));
        assert_eq!(spec.grid_for(512), Some((9, 8)));
    }

    #[test]
    fn squareness_key_is_symmetric_and_prefers_square() {
        // The old asymmetric x/y aspect key scored 3x6 at 500 — *below*
        // (i.e. better than) the 6x6 square's 1000. The symmetric key
        // must rank the square strictly best and score transposes
        // identically.
        assert_eq!(squareness_milli(3, 6), squareness_milli(6, 3));
        assert_eq!(squareness_milli(3, 6), 2000);
        assert_eq!(squareness_milli(6, 6), 1000);
        assert!(squareness_milli(6, 6) < squareness_milli(3, 6));
        assert!(squareness_milli(6, 6) < squareness_milli(6, 3));
        assert_eq!(squareness_milli(9, 8), squareness_milli(8, 9));
        assert_eq!(squareness_milli(9, 8), 1125);
        // Degenerate zero dimensions are guarded, not divided by.
        assert_eq!(squareness_milli(0, 4), 4000);
    }

    #[test]
    fn grid_tie_break_prefers_square_then_count() {
        // With a single trivial cut every candidate count admits the
        // same number of (XCut, YCut) pairs, so the squareness tie-break
        // decides: the window 35..=40 contains 35 -> 7x5, 36 -> 6x6,
        // 40 -> 8x5, and the 6x6 square must win.
        let spec = DseSpec {
            cuts: vec![1],
            ..DseSpec::table1(71.68)
        };
        assert_eq!(spec.grid_for(1024), Some((6, 6)));
    }

    #[test]
    fn candidates_respect_cut_divisibility() {
        let spec = DseSpec::table1(72.0);
        for a in spec.candidates() {
            assert_eq!(a.x_cores() % a.xcut(), 0);
            assert_eq!(a.y_cores() % a.ycut(), 0);
            let tops = a.tops();
            assert!(
                (50.0..100.0).contains(&tops),
                "{} has {tops} TOPS",
                a.paper_tuple()
            );
        }
    }

    #[test]
    fn candidate_count_is_substantial() {
        let spec = DseSpec::table1(72.0);
        let n = spec.candidates().len();
        // 5 MAC choices x cut combos x 3 DRAM x 5 NoC x 3 D2D x 6 GLB:
        // thousands of points.
        assert!(n > 1000, "only {n} candidates");
    }

    #[test]
    fn mini_dse_finds_a_best() {
        let dnns = vec![zoo::two_conv_example()];
        // A tiny explicit candidate list keeps this test fast.
        let candidates = vec![
            gemini_arch::presets::simba_s_arch(),
            gemini_arch::presets::g_arch_72(),
        ];
        let opts = DseOptions {
            batch: 2,
            mapping: MappingOptions {
                sa: SaOptions {
                    iters: 40,
                    seed: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
            threads: 2,
            ..Default::default()
        };
        let res = run_dse_over(&candidates, &dnns, &opts);
        assert_eq!(res.records.len(), 2);
        assert!(res.best < 2);
        let best = res.best_record();
        assert!(best.score > 0.0);
        assert!(best.mc > 0.0);
        // Re-ranking under D-only must pick the lower-delay record.
        let d_best = res.best_under(Objective::d_only());
        assert!(res.records.iter().all(|r| d_best.delay <= r.delay));
    }

    #[test]
    fn rerank_policy_rescored_records_and_report() {
        let dnns = vec![zoo::two_conv_example()];
        let candidates = vec![
            gemini_arch::presets::simba_s_arch(),
            gemini_arch::presets::g_arch_72(),
        ];
        let opts = DseOptions {
            batch: 2,
            mapping: MappingOptions {
                sa: SaOptions {
                    iters: 40,
                    seed: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
            threads: 2,
            fidelity: FidelityPolicy::rerank(2),
            ..Default::default()
        };
        let res = run_dse_over(&candidates, &dnns, &opts);
        assert_eq!(res.report.reranked.len(), 2);
        assert_eq!(res.records.iter().filter(|r| r.fluid.is_some()).count(), 2);
        assert!(!res.report.winner_groups.is_empty());
        // Rung 1 never runs the packet simulator.
        assert!(res
            .report
            .winner_groups
            .iter()
            .all(|g| g.packet_s.is_none()));
        for r in &res.records {
            let f = r.fluid.as_ref().expect("k = 2 re-scores both");
            // The congestion correction is monotone: fluid-referenced
            // delay and score never beat the analytic ones.
            assert!(f.delay >= r.delay * (1.0 - 1e-12));
            assert!(f.score >= r.score * (1.0 - 1e-12));
            assert!(f.worst_fluid_vs_analytic >= 1.0);
        }
        // The re-ranked winner minimizes the fluid score.
        let best_score = res.records[res.best].fluid.as_ref().unwrap().score;
        for r in &res.records {
            assert!(best_score <= r.fluid.as_ref().unwrap().score * (1.0 + 1e-12));
        }
        // Rung 1 never suggests a calibration: the fluid model has no
        // queueing, so a fluid-referenced fit would spuriously advise
        // stripping the surcharge. Only rung 2 (packet) calibrates.
        assert!(res.report.suggested_congestion_weight.is_none());
    }

    #[test]
    fn scale_arch_tiles_chiplets() {
        let base = gemini_arch::presets::g_arch_72(); // 2 chiplets of 3x6
        let scaled = scale_arch(&base, 4).unwrap(); // 8 chiplets
        assert_eq!(scaled.n_chiplets(), 8);
        assert_eq!(scaled.chiplet_dims(), base.chiplet_dims());
        assert_eq!(scaled.macs_per_core(), base.macs_per_core());
        assert!((scaled.tops() - 4.0 * base.tops()).abs() < 1.0);
        assert!((scaled.dram_bw() - 4.0 * base.dram_bw()).abs() < 1e-9);
    }

    #[test]
    fn scale_arch_identity() {
        let base = gemini_arch::presets::g_arch_72();
        let same = scale_arch(&base, 1).unwrap();
        assert_eq!(same.n_chiplets(), base.n_chiplets());
        assert_eq!(same.n_cores(), base.n_cores());
    }
}
