//! Manifest-driven experiment campaigns with a resumable Pareto archive.
//!
//! The paper's headline results are sweeps — many DNNs × architecture
//! grids × objectives (Sec. VI evaluates five workloads across
//! monolithic and chiplet fabrics) — and this module turns such a sweep
//! into a declarative, reproducible, *resumable* artifact instead of a
//! hand-written example binary:
//!
//! * a [`CampaignSpec`] manifest (TOML or JSON, see
//!   docs/CAMPAIGNS.md) declares workloads, an architecture axis
//!   (Table-I grid and/or explicit points), batch sizes, a per-cell
//!   fidelity policy and the objectives to report;
//! * [`run_campaign`] fans the cross-product of cells out over the
//!   scoped worker pool (`crate::pool`), memoizing per-workload
//!   mapping evaluations across cells (a memo whose hits return
//!   exactly what a fresh evaluation would, so it never changes
//!   results) and applying the NoC fidelity ladder per cell;
//! * every completed cell is appended to an on-disk journal
//!   (`journal.jsonl`, one JSON line per cell) so an interrupted
//!   campaign **resumes** by skipping journaled cells bit-identically;
//! * results land in a multi-objective [`ParetoArchive`]
//!   (latency / energy / EDP / MC / area fronts per workload-set ×
//!   batch group) plus CSV + JSON artifacts under the output
//!   directory.
//!
//! Determinism: the same manifest and seed produce byte-identical
//! artifacts at any `--threads` count, cold or resumed — cells are
//! keyed and ordered by their enumeration index, floats are serialized
//! in shortest-round-trip form, and the SA engine underneath is
//! bit-identical at any thread count (PR 2).
//!
//! # Sharded, multi-writer execution
//!
//! Campaign cells are independent, so a sweep too large for one
//! process partitions into `N` shards: [`shard_of`] assigns every cell
//! to a shard by a stable hash of its index ([`cell_claim_key`],
//! deliberately independent of `N`), [`run_campaign_shard`] evaluates
//! one shard's cells into its own journal
//! (`journal-shard-<k>.jsonl`), and [`merge_shards`] validates the
//! shard journals, unions their records (duplicates are tolerated when
//! bit-identical — first writer wins — and refused when conflicting)
//! and rebuilds the archive and artifacts from the union. The merged
//! artifacts are **byte-identical to a single-shard run** of the same
//! manifest+seed, regardless of shard count, interleaving, or
//! crash/resume history — a dead shard is recovered by resuming it, or
//! by re-running any sibling with [`ShardSpec::steal`], which scans the
//! other journals and claims the cells nobody recorded.

pub mod artifacts;
pub mod journal;
pub mod manifest;
pub mod pareto;
pub mod toml;
pub mod value;

use std::fmt;
use std::path::{Path, PathBuf};

use gemini_cost::CostModel;
use gemini_model::Dnn;
use gemini_noc::flowsim::FlowSimWorkspace;
use gemini_sim::Evaluator;

use crate::engine::{MappingEngine, MappingOptions};
use crate::sa::SaOptions;

pub use manifest::{
    CampaignSpec, CellFidelity, GridSpec, ManifestError, NamedObjective, ParetoAxis, WorkloadMode,
};
pub use pareto::{ParetoArchive, ParetoPoint};

/// A campaign failure.
#[derive(Debug)]
pub enum CampaignError {
    /// Manifest decoding failed.
    Manifest(ManifestError),
    /// Filesystem trouble (journal or artifacts).
    Io(String),
    /// The journal is unusable (wrong fingerprint, foreign cells).
    Journal(String),
    /// A sharded run or merge is misconfigured or incomplete (bad
    /// shard index, conflicting duplicate records, missing coverage).
    Shard(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Manifest(e) => write!(f, "{e}"),
            Self::Io(m) => write!(f, "I/O error: {m}"),
            Self::Journal(m) => write!(f, "journal error: {m}"),
            Self::Shard(m) => write!(f, "shard error: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ManifestError> for CampaignError {
    fn from(e: ManifestError) -> Self {
        Self::Manifest(e)
    }
}

/// Per-workload metrics inside one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DnnCellMetrics {
    /// Workload zoo name.
    pub name: String,
    /// Total energy (J).
    pub energy: f64,
    /// Analytic end-to-end delay (s).
    pub delay: f64,
    /// Congestion-corrected delay from the fluid replay (s); `None`
    /// under [`CellFidelity::Analytic`].
    pub fluid_delay: Option<f64>,
    /// Worst per-group fluid/analytic ratio; `None` under
    /// [`CellFidelity::Analytic`].
    pub worst_fluid: Option<f64>,
    /// Achieved analytic EDP over the rung-0 closed-form lower bound of
    /// the same final mapping (`>= 1` up to float slack) — how far the
    /// converged mapping sits from its provable optimum.
    pub bound_edp_gap: f64,
}

/// One completed campaign cell: a (workload set, architecture, batch)
/// combination with its metrics. This is exactly what one journal line
/// stores.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Cell index in the campaign's deterministic enumeration.
    pub cell: usize,
    /// Workload-set index (into [`CampaignSpec::workload_sets`]).
    pub wset: usize,
    /// Batch index (into [`CampaignSpec::batches`]).
    pub batch_idx: usize,
    /// Architecture index (into [`CampaignSpec::arch_candidates`]).
    pub arch_idx: usize,
    /// Monetary cost (dollars).
    pub mc: f64,
    /// MC silicon share.
    pub mc_silicon: f64,
    /// MC DRAM share.
    pub mc_dram: f64,
    /// MC packaging share.
    pub mc_package: f64,
    /// Total silicon area (mm²).
    pub area_mm2: f64,
    /// Geometric-mean energy over the set's workloads (J).
    pub energy: f64,
    /// Geometric-mean analytic delay (s).
    pub delay: f64,
    /// Geometric-mean congestion-corrected delay (s), when the cell ran
    /// the fluid rung.
    pub fluid_delay: Option<f64>,
    /// Worst per-group fluid/analytic ratio across the set.
    pub worst_fluid: Option<f64>,
    /// Geometric-mean bound-vs-achieved EDP gap over the set (see
    /// [`DnnCellMetrics::bound_edp_gap`]).
    pub bound_edp_gap: f64,
    /// Per-workload metrics, in workload-set member order.
    pub per_dnn: Vec<DnnCellMetrics>,
}

impl CellResult {
    /// The delay used for ranking and the latency axis: the
    /// congestion-corrected delay when the fluid rung ran, the analytic
    /// delay otherwise.
    pub fn eff_delay(&self) -> f64 {
        self.fluid_delay.unwrap_or(self.delay)
    }

    /// Energy-delay product on the effective delay.
    pub fn edp(&self) -> f64 {
        self.energy * self.eff_delay()
    }

    /// The cell's comparable-group index — the (workload set, batch)
    /// combination it belongs to, given the campaign's batch-axis
    /// length. The single definition of the cell → group mapping used
    /// by the driver, the artifact writers and external consumers.
    pub fn group(&self, n_batches: usize) -> usize {
        self.wset * n_batches + self.batch_idx
    }

    /// The cell's coordinate on one archive axis (lower = better).
    pub fn axis_value(&self, axis: ParetoAxis) -> f64 {
        match axis {
            ParetoAxis::Latency => self.eff_delay(),
            ParetoAxis::Energy => self.energy,
            ParetoAxis::Edp => self.edp(),
            ParetoAxis::Cost => self.mc,
            ParetoAxis::Area => self.area_mm2,
            // Traffic axes replay the canonical serving scenario on
            // demand from the effective delay — nothing new is stored
            // per cell, so journals keep their shape.
            ParetoAxis::Tail {
                rate_rps,
                percentile,
            } => {
                crate::traffic::serve_at(rate_rps, self.eff_delay().max(1e-30)).quantile(percentile)
            }
            ParetoAxis::SlaMiss {
                rate_rps,
                budget_ms,
            } => {
                1.0 - crate::traffic::serve_at(rate_rps, self.eff_delay().max(1e-30))
                    .goodput(budget_ms / 1e3)
            }
        }
    }

    /// Scores the cell under an objective (on the effective delay).
    pub fn score(&self, obj: &crate::dse::Objective) -> f64 {
        obj.score(self.mc, self.energy, self.eff_delay())
    }
}

/// Options for [`run_campaign`].
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker threads for the cell fan-out (0 = all cores). Artifacts
    /// are byte-identical at any setting.
    pub threads: usize,
    /// Resume from an existing journal instead of starting cold. The
    /// journal's fingerprint must match the manifest.
    pub resume: bool,
    /// Overrides the manifest's `out_dir` (tests and CI use temp dirs).
    pub out_root: Option<PathBuf>,
}

/// Identity of one shard in an `N`-way sharded campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// The partition width `N` (total number of shards).
    pub count: usize,
    /// After finishing its own partition, scan the sibling shard
    /// journals once and evaluate every cell *no* journal has recorded.
    /// This is how a sibling covers for a shard that died and will not
    /// be resumed; duplicates with a racing sibling are harmless
    /// because the merge keeps the first of two identical records.
    pub steal: bool,
}

/// A stable 64-bit claim key for a campaign cell, used to partition
/// cells across shards. It is a pure function of the cell index — the
/// splitmix64 finalizer, the same mix as [`crate::sa`]'s per-chain
/// seeding — and deliberately *independent of the shard count*, so any
/// two processes agree on every cell's key without coordination.
pub fn cell_claim_key(cell: usize) -> u64 {
    let mut z = (cell as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard that owns `cell` in an `n_shards`-way partition:
/// [`cell_claim_key`] reduced mod `n_shards`. The hash (rather than a
/// contiguous range split) spreads expensive neighbouring cells across
/// shards, and because the key ignores `n_shards`, ownership claims
/// from runs with different widths are still deterministic functions
/// of the cell alone.
pub fn shard_of(cell: usize, n_shards: usize) -> usize {
    assert!(n_shards >= 1, "at least one shard");
    (cell_claim_key(cell) % n_shards as u64) as usize
}

/// One comparable cell group: a (workload set, batch) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct CellGroup {
    /// Workload-set label (`joint` or a zoo name).
    pub wset: String,
    /// Batch size.
    pub batch: u32,
}

/// The best cell of one group under one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct BestEntry {
    /// Group index.
    pub group: usize,
    /// Objective label.
    pub objective: String,
    /// Winning cell index.
    pub cell: usize,
    /// Its score.
    pub score: f64,
}

/// A completed (or resumed-and-completed) campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// The manifest fingerprint the journal is tied to.
    pub fingerprint: String,
    /// The campaign directory (journal + artifacts).
    pub dir: PathBuf,
    /// Every cell, in enumeration order.
    pub cells: Vec<CellResult>,
    /// Cells replayed from the journal instead of evaluated.
    pub skipped: usize,
    /// Cells evaluated this run.
    pub evaluated: usize,
    /// The comparable groups, indexed by group id.
    pub groups: Vec<CellGroup>,
    /// The multi-objective archive (fronts per group).
    pub archive: ParetoArchive,
    /// Scalar-objective winners per group × objective.
    pub best: Vec<BestEntry>,
    /// Artifact paths written (`cells.csv`, `pareto.csv`,
    /// `pareto.json`).
    pub artifacts: Vec<PathBuf>,
}

/// A completed [`run_campaign_shard`] call. A shard run writes its
/// journal only — never artifacts; those come from [`merge_shards`]
/// once every cell is covered.
#[derive(Debug)]
pub struct ShardRunResult {
    /// The manifest fingerprint all shard journals must share.
    pub fingerprint: String,
    /// The campaign directory (shared by all shards).
    pub dir: PathBuf,
    /// This shard's journal (`journal-shard-<index>.jsonl`).
    pub journal: PathBuf,
    /// This shard's `(index, count)` identity.
    pub shard: (usize, usize),
    /// Cells this shard owns under [`shard_of`].
    pub owned: usize,
    /// Cells replayed from this shard's journal instead of evaluated.
    pub skipped: usize,
    /// Cells evaluated this run (owned and stolen).
    pub evaluated: usize,
    /// Unowned cells queued because no sibling journal had recorded
    /// them (only with [`ShardSpec::steal`]).
    pub stolen: usize,
    /// Every cell in this shard's journal after the run, in cell order.
    pub cells: Vec<CellResult>,
}

/// One cell's identity before evaluation.
#[derive(Debug, Clone, Copy)]
struct CellKey {
    wset: usize,
    batch_idx: usize,
    arch_idx: usize,
}

/// Enumerates the campaign's cells in deterministic order:
/// workload-set major, then batch, then architecture.
fn enumerate_cells(n_wsets: usize, n_batches: usize, n_archs: usize) -> Vec<CellKey> {
    let mut cells = Vec::with_capacity(n_wsets * n_batches * n_archs);
    for wset in 0..n_wsets {
        for batch_idx in 0..n_batches {
            for arch_idx in 0..n_archs {
                cells.push(CellKey {
                    wset,
                    batch_idx,
                    arch_idx,
                });
            }
        }
    }
    cells
}

/// Per-workload mapping evaluation, memoized across cells.
///
/// Cells that share a workload, architecture and batch — e.g. a solo
/// set and the joint set under [`WorkloadMode::Both`] — reuse one
/// mapping run. The memo implementation lives in
/// [`crate::service::memo`], where the service layer reuses the same
/// shape one level up (whole request payloads across socket requests).
type MappingMemo = crate::service::memo::MappingMemo<(usize, usize, u32), DnnCellMetrics>;

/// Evaluates one workload on one architecture at one batch size.
fn evaluate_dnn(
    arch: &gemini_arch::ArchConfig,
    dnn: &Dnn,
    batch: u32,
    spec: &CampaignSpec,
    sa_threads: usize,
) -> DnnCellMetrics {
    let ev = Evaluator::new(arch);
    let engine = MappingEngine::new(&ev);
    let opts = MappingOptions {
        sa: SaOptions {
            iters: spec.sa_iters,
            seed: spec.seed,
            threads: sa_threads,
            ..Default::default()
        },
        ..Default::default()
    };
    let mapped = engine.map(dnn, batch, &opts);
    // Rung-0 convergence diagnostic: the closed-form lower bound of the
    // *final* mapping against what the evaluator charged for it.
    let gms = mapped.group_mappings(dnn);
    let bound = gemini_sim::bound::dnn_bound(&ev, dnn, &gms, batch);
    let achieved_edp = mapped.report.energy.total() * mapped.report.delay_s;
    let bound_edp_gap = if bound.edp() > 0.0 {
        achieved_edp / bound.edp()
    } else {
        1.0
    };
    let (fluid_delay, worst_fluid) = match spec.fidelity {
        CellFidelity::Analytic => (None, None),
        CellFidelity::Fluid(cfg) => {
            let mut ws = FlowSimWorkspace::new();
            let (corrected, groups, _) =
                crate::fidelity::fluid_replay_dnn(&ev, dnn, &mapped, &cfg, &mut ws);
            let worst = groups
                .iter()
                .map(crate::fidelity::GroupDiscrepancy::fluid_vs_analytic)
                .fold(1.0, f64::max);
            (Some(corrected), Some(worst))
        }
    };
    DnnCellMetrics {
        name: dnn.name().to_string(),
        energy: mapped.report.energy.total(),
        delay: mapped.report.delay_s,
        fluid_delay,
        worst_fluid,
        bound_edp_gap,
    }
}

/// Evaluates one cell (geometric means over its workload set).
#[allow(clippy::too_many_arguments)] // internal driver plumbing
fn evaluate_cell(
    cell: usize,
    key: CellKey,
    spec: &CampaignSpec,
    sets: &[(String, Vec<usize>)],
    dnns: &[Dnn],
    archs: &[gemini_arch::ArchConfig],
    cost: &CostModel,
    memo: &MappingMemo,
    sa_threads: usize,
) -> CellResult {
    let arch = &archs[key.arch_idx];
    let batch = spec.batches[key.batch_idx];
    let members = &sets[key.wset].1;
    let per_dnn: Vec<DnnCellMetrics> = members
        .iter()
        .map(|&di| {
            memo.get_or_eval((key.arch_idx, di, batch), || {
                evaluate_dnn(arch, &dnns[di], batch, spec, sa_threads)
            })
        })
        .collect();
    let n = per_dnn.len().max(1) as f64;
    let geo = |f: &dyn Fn(&DnnCellMetrics) -> f64| -> f64 {
        (per_dnn.iter().map(|m| f(m).ln()).sum::<f64>() / n).exp()
    };
    let energy = geo(&|m| m.energy);
    let delay = geo(&|m| m.delay);
    let bound_edp_gap = geo(&|m| m.bound_edp_gap);
    let has_fluid = per_dnn.iter().all(|m| m.fluid_delay.is_some());
    let fluid_delay = has_fluid.then(|| geo(&|m| m.fluid_delay.expect("checked")));
    let worst_fluid = has_fluid.then(|| {
        per_dnn
            .iter()
            .map(|m| m.worst_fluid.expect("checked"))
            .fold(1.0, f64::max)
    });
    let mc_rep = cost.evaluate(arch);
    CellResult {
        cell,
        wset: key.wset,
        batch_idx: key.batch_idx,
        arch_idx: key.arch_idx,
        mc: mc_rep.total(),
        mc_silicon: mc_rep.silicon,
        mc_dram: mc_rep.dram,
        mc_package: mc_rep.package,
        area_mm2: mc_rep.silicon_mm2,
        energy,
        delay,
        fluid_delay,
        worst_fluid,
        bound_edp_gap,
        per_dnn,
    }
}

/// The campaign's resolved axes: workload instances, workload sets,
/// architecture candidates and the deterministic cell enumeration.
/// Every entry point — single-process run, shard run, merge — resolves
/// the manifest through this one constructor, so they cannot disagree
/// on the cell space.
struct Axes {
    dnns: Vec<Dnn>,
    sets: Vec<(String, Vec<usize>)>,
    archs: Vec<gemini_arch::ArchConfig>,
    keys: Vec<CellKey>,
}

impl Axes {
    fn new(spec: &CampaignSpec) -> Self {
        let dnns = spec
            .workloads
            .iter()
            .map(|n| {
                gemini_model::zoo::by_name(n)
                    .expect("spec validated workload names")
                    .graph
            })
            .collect();
        let sets = spec.workload_sets();
        let archs = spec.arch_candidates();
        let keys = enumerate_cells(sets.len(), spec.batches.len(), archs.len());
        Self {
            dnns,
            sets,
            archs,
            keys,
        }
    }

    fn n_cells(&self) -> usize {
        self.keys.len()
    }
}

/// Resolves and creates the campaign directory
/// (`<out_root or manifest out_dir>/<campaign name>`).
fn campaign_dir(spec: &CampaignSpec, opts: &CampaignOptions) -> Result<PathBuf, CampaignError> {
    let root = opts
        .out_root
        .clone()
        .unwrap_or_else(|| PathBuf::from(&spec.out_dir));
    let dir = root.join(&spec.name);
    std::fs::create_dir_all(&dir)
        .map_err(|e| CampaignError::Io(format!("cannot create {}: {e}", dir.display())))?;
    Ok(dir)
}

/// Fans `pending` (cell indices) out over the worker pool, journaling
/// each completed cell, and returns the evaluated results. SA chains
/// are pinned to one thread while the cell level is parallel so the
/// machine is not oversubscribed, and a lone worker's SA thread count
/// is resolved here rather than per cell ([`crate::pool::sa_threads_for`]).
fn evaluate_pending(
    spec: &CampaignSpec,
    axes: &Axes,
    pending: &[usize],
    writer: &journal::Appender,
    threads: usize,
) -> Vec<CellResult> {
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    }
    .clamp(1, pending.len().max(1));
    let sa_threads = crate::pool::sa_threads_for(workers);
    let cost = CostModel::default();
    let memo = MappingMemo::new();
    crate::pool::parallel_map_indexed(workers, pending.len(), |j| {
        let idx = pending[j];
        let r = evaluate_cell(
            idx,
            axes.keys[idx],
            spec,
            &axes.sets,
            &axes.dnns,
            &axes.archs,
            &cost,
            &memo,
            sa_threads,
        );
        writer.append(&r);
        r
    })
}

/// Builds groups, archive and per-objective winners from the complete
/// cell list and writes the artifacts. Both producers of final results
/// — [`run_campaign`] and [`merge_shards`] — end here, which is what
/// makes "merged artifacts are byte-identical to a single-shard run" a
/// structural property rather than a hoped-for coincidence.
fn finalize(
    dir: PathBuf,
    spec: &CampaignSpec,
    fingerprint: String,
    axes: &Axes,
    cells: Vec<CellResult>,
    skipped: usize,
    evaluated: usize,
) -> Result<CampaignResult, CampaignError> {
    let n_batches = spec.batches.len();
    let groups: Vec<CellGroup> = axes
        .sets
        .iter()
        .flat_map(|(label, _)| {
            spec.batches.iter().map(|&b| CellGroup {
                wset: label.clone(),
                batch: b,
            })
        })
        .collect();
    let archive =
        ParetoArchive::from_cell_results(spec.pareto_axes.clone(), groups.len(), n_batches, &cells);
    let mut best = Vec::new();
    for g in 0..groups.len() {
        for o in &spec.objectives {
            let winner = cells
                .iter()
                .filter(|c| c.group(n_batches) == g)
                .min_by(|a, b| {
                    a.score(&o.objective)
                        .total_cmp(&b.score(&o.objective))
                        .then(a.cell.cmp(&b.cell))
                });
            if let Some(w) = winner {
                best.push(BestEntry {
                    group: g,
                    objective: o.label.clone(),
                    cell: w.cell,
                    score: w.score(&o.objective),
                });
            }
        }
    }

    let artifacts = artifacts::write_all(
        &dir,
        &artifacts::ArtifactInputs {
            spec,
            fingerprint: &fingerprint,
            cells: &cells,
            groups: &groups,
            archive: &archive,
            best: &best,
            sets: &axes.sets,
            archs: &axes.archs,
        },
    )?;

    Ok(CampaignResult {
        fingerprint,
        dir,
        cells,
        skipped,
        evaluated,
        groups,
        archive,
        best,
        artifacts,
    })
}

/// Runs (or resumes) a campaign and writes its artifacts.
///
/// The journal lands at `<dir>/journal.jsonl` and the artifacts at
/// `<dir>/cells.csv`, `<dir>/pareto.csv` and `<dir>/pareto.json`, with
/// `<dir> = <out_root or manifest out_dir>/<campaign name>`.
///
/// # Determinism
///
/// Same manifest + seed ⇒ byte-identical artifacts at any
/// [`CampaignOptions::threads`] count, whether the run was cold or
/// resumed from a truncated journal. (The journal's own *line order*
/// is completion order and may differ between runs; its *content* per
/// cell is bit-identical, which is what resume consumes.)
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignResult, CampaignError> {
    let dir = campaign_dir(spec, opts)?;
    let axes = Axes::new(spec);
    let fingerprint = spec.fingerprint();

    // Journal: load on resume, then append the cells we evaluate.
    let journal_path = dir.join("journal.jsonl");
    let (mut results, resumed): (Vec<Option<CellResult>>, bool) =
        if opts.resume && journal_path.exists() {
            (
                journal::load(
                    &journal_path,
                    spec,
                    axes.sets.len(),
                    spec.batches.len(),
                    axes.archs.len(),
                )?,
                true,
            )
        } else {
            (vec![None; axes.n_cells()], false)
        };
    let skipped = results.iter().filter(|r| r.is_some()).count();
    let writer = journal::Appender::open(&journal_path, spec, axes.n_cells(), resumed)?;

    let pending: Vec<usize> = (0..axes.n_cells())
        .filter(|&i| results[i].is_none())
        .collect();
    let evaluated = evaluate_pending(spec, &axes, &pending, &writer, opts.threads);
    let n_evaluated = evaluated.len();
    for r in evaluated {
        let slot = &mut results[r.cell];
        debug_assert!(slot.is_none());
        *slot = Some(r);
    }
    let cells: Vec<CellResult> = results
        .into_iter()
        .map(|r| r.expect("every cell evaluated or resumed"))
        .collect();

    finalize(dir, spec, fingerprint, &axes, cells, skipped, n_evaluated)
}

/// Runs (or resumes) one shard of an `N`-way sharded campaign.
///
/// The shard evaluates the cells [`shard_of`] assigns it — plus, with
/// [`ShardSpec::steal`], any cell no sibling journal has recorded —
/// and journals them to `<dir>/journal-shard-<index>.jsonl` under the
/// same header/fingerprint contract as the primary journal. It writes
/// **no artifacts**; run [`merge_shards`] once every cell is covered.
///
/// Shards coordinate through the filesystem only: any subset of the
/// `N` shard processes may run concurrently, sequentially, or crash
/// and resume, in any order, on one shared directory.
pub fn run_campaign_shard(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    shard: ShardSpec,
) -> Result<ShardRunResult, CampaignError> {
    if shard.count == 0 {
        return Err(CampaignError::Shard(
            "shard count must be at least 1".into(),
        ));
    }
    if shard.index >= shard.count {
        return Err(CampaignError::Shard(format!(
            "shard index {} out of range for {} shards",
            shard.index, shard.count
        )));
    }
    let dir = campaign_dir(spec, opts)?;
    let axes = Axes::new(spec);
    let n_cells = axes.n_cells();
    let fingerprint = spec.fingerprint();

    let journal_path = dir.join(journal::shard_file_name(shard.index));
    let (mut results, resumed): (Vec<Option<CellResult>>, bool) =
        if opts.resume && journal_path.exists() {
            (
                journal::load_shard(
                    &journal_path,
                    spec,
                    axes.sets.len(),
                    spec.batches.len(),
                    axes.archs.len(),
                    shard.index,
                    shard.count,
                )?,
                true,
            )
        } else {
            (vec![None; n_cells], false)
        };
    let skipped = results.iter().filter(|r| r.is_some()).count();
    let writer = journal::Appender::open_sharded(
        &journal_path,
        spec,
        n_cells,
        resumed,
        Some((shard.index, shard.count)),
    )?;

    let owned = (0..n_cells)
        .filter(|&i| shard_of(i, shard.count) == shard.index)
        .count();
    let mut pending: Vec<usize> = (0..n_cells)
        .filter(|&i| shard_of(i, shard.count) == shard.index && results[i].is_none())
        .collect();

    // Steal: one scan over the sibling journals (validated against the
    // same fingerprint contract), then queue every cell neither we nor
    // any sibling has recorded. First-writer-wins at merge time makes a
    // race with a resurrected sibling harmless: both journals carry the
    // identical record.
    let mut stolen = 0;
    if shard.steal {
        let mut claimed: Vec<bool> = results.iter().map(Option::is_some).collect();
        for k in 0..shard.count {
            if k == shard.index {
                continue;
            }
            let sibling = dir.join(journal::shard_file_name(k));
            if !sibling.exists() {
                continue;
            }
            let recorded = journal::load_shard(
                &sibling,
                spec,
                axes.sets.len(),
                spec.batches.len(),
                axes.archs.len(),
                k,
                shard.count,
            )?;
            for (i, c) in recorded.iter().enumerate() {
                if c.is_some() {
                    claimed[i] = true;
                }
            }
        }
        for (i, taken) in claimed.iter().enumerate() {
            if !taken && shard_of(i, shard.count) != shard.index {
                pending.push(i);
                stolen += 1;
            }
        }
    }

    let evaluated = evaluate_pending(spec, &axes, &pending, &writer, opts.threads);
    let n_evaluated = evaluated.len();
    for r in evaluated {
        let slot = &mut results[r.cell];
        debug_assert!(slot.is_none());
        *slot = Some(r);
    }

    Ok(ShardRunResult {
        fingerprint,
        dir,
        journal: journal_path,
        shard: (shard.index, shard.count),
        owned,
        skipped,
        evaluated: n_evaluated,
        stolen,
        cells: results.into_iter().flatten().collect(),
    })
}

/// Merges the shard journals in the campaign directory into the final
/// artifacts, exactly as a single-shard run would have written them.
///
/// The merge discovers every `journal-shard-<k>.jsonl`, validates each
/// header against the manifest (fingerprint, cell count, and that the
/// file name matches the shard the header declares), and requires all
/// files to agree on the partition width. Records are unioned in
/// shard-index order; a cell recorded by several shards is fine when
/// the records are identical (**first writer wins** — this is how
/// [`ShardSpec::steal`] overlaps resolve) and refused when they
/// conflict. Missing cells are refused with their owning shard named —
/// resume that shard, or re-run any sibling with `steal`, then merge
/// again. A shard's journal may be entirely absent as long as its
/// cells are covered elsewhere.
///
/// On success the artifacts are byte-identical to [`run_campaign`] on
/// the same manifest, regardless of shard count, interleaving, or
/// crash/resume history ([`CampaignResult::skipped`] counts all cells;
/// `evaluated` is 0 — the merge never evaluates).
pub fn merge_shards(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignResult, CampaignError> {
    let dir = campaign_dir(spec, opts)?;
    let axes = Axes::new(spec);
    let n_cells = axes.n_cells();
    let fingerprint = spec.fingerprint();

    // Discover shard journals by name.
    let mut shard_files: Vec<(usize, PathBuf)> = Vec::new();
    let entries = std::fs::read_dir(&dir)
        .map_err(|e| CampaignError::Io(format!("cannot read {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| CampaignError::Io(e.to_string()))?;
        if let Some(k) = entry
            .file_name()
            .to_str()
            .and_then(journal::parse_shard_file_name)
        {
            shard_files.push((k, entry.path()));
        }
    }
    shard_files.sort_unstable_by_key(|&(k, _)| k);
    if shard_files.is_empty() {
        return Err(CampaignError::Shard(format!(
            "no shard journals (journal-shard-<k>.jsonl) found in {}",
            dir.display()
        )));
    }

    // Pass 1: headers. Every file must declare the shard its name
    // says, and all files must agree on the partition width.
    let mut count: Option<usize> = None;
    for (k, path) in &shard_files {
        let (hi, hn) = journal::read_shard_header(path, spec, n_cells)?;
        if hi != *k {
            return Err(CampaignError::Shard(format!(
                "{} declares shard {hi}, but its file name says shard {k}",
                path.display()
            )));
        }
        match count {
            None => count = Some(hn),
            Some(n) if n != hn => {
                return Err(CampaignError::Shard(format!(
                    "shard journals disagree on the partition width: shard {k} \
                     says {hn} shards, an earlier shard said {n}"
                )))
            }
            Some(_) => {}
        }
    }
    let count = count.expect("at least one shard file");

    // Pass 2: union the records in shard-index order. Identical
    // duplicates keep the first writer; conflicting duplicates mean
    // the journals came from incompatible runs and are refused.
    let mut merged: Vec<Option<(CellResult, usize)>> = (0..n_cells).map(|_| None).collect();
    for (k, path) in &shard_files {
        let recorded = journal::load_shard(
            path,
            spec,
            axes.sets.len(),
            spec.batches.len(),
            axes.archs.len(),
            *k,
            count,
        )?;
        for r in recorded.into_iter().flatten() {
            let cell = r.cell;
            match &merged[cell] {
                None => merged[cell] = Some((r, *k)),
                Some((first, first_shard)) => {
                    if *first != r {
                        return Err(CampaignError::Shard(format!(
                            "shards {first_shard} and {k} recorded conflicting results \
                             for cell {}; the journals come from incompatible runs — \
                             delete one of them and re-run that shard",
                            r.cell
                        )));
                    }
                }
            }
        }
    }

    // Coverage: every cell must be recorded somewhere.
    let missing: Vec<usize> = (0..n_cells).filter(|&i| merged[i].is_none()).collect();
    if let Some(&first) = missing.first() {
        let owner = shard_of(first, count);
        let absent: Vec<usize> = (0..count)
            .filter(|k| !shard_files.iter().any(|&(fk, _)| fk == *k))
            .collect();
        let mut msg = format!(
            "merge covers only {} of {n_cells} cells; first missing: cell {first}, \
             owned by shard {owner} of {count}",
            n_cells - missing.len()
        );
        if !absent.is_empty() {
            msg.push_str(&format!("; no journal found for shard(s) {absent:?}"));
        }
        msg.push_str(
            "; resume the missing shard(s) (--resume) or re-run a sibling \
             with --steal, then merge again",
        );
        return Err(CampaignError::Shard(msg));
    }

    let cells: Vec<CellResult> = merged
        .into_iter()
        .map(|s| s.expect("coverage checked").0)
        .collect();
    finalize(dir, spec, fingerprint, &axes, cells, n_cells, 0)
}

/// Convenience: load a manifest file and run it.
pub fn run_campaign_file(
    manifest: &Path,
    opts: &CampaignOptions,
) -> Result<CampaignResult, CampaignError> {
    let spec = CampaignSpec::load(manifest)?;
    run_campaign(&spec, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(fidelity: &str) -> CampaignSpec {
        let doc = format!(
            r#"
[campaign]
name = "unit"
seed = 2
sa_iters = 30
batches = [2]
fidelity = "{fidelity}"

[workloads]
names = ["two-conv"]

[[arch]]
preset = "s-arch"

[[arch]]
preset = "g-arch"
"#
        );
        CampaignSpec::from_str_format(&doc, false).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gemini-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn cells_enumerate_wset_major() {
        let cells = enumerate_cells(2, 2, 3);
        assert_eq!(cells.len(), 12);
        assert_eq!(
            (cells[0].wset, cells[0].batch_idx, cells[0].arch_idx),
            (0, 0, 0)
        );
        assert_eq!(
            (cells[4].wset, cells[4].batch_idx, cells[4].arch_idx),
            (0, 1, 1)
        );
        assert_eq!(
            (cells[11].wset, cells[11].batch_idx, cells[11].arch_idx),
            (1, 1, 2)
        );
    }

    #[test]
    fn run_produces_cells_archive_and_artifacts() {
        let spec = tiny_spec("analytic");
        let dir = temp_dir("run");
        let res = run_campaign(
            &spec,
            &CampaignOptions {
                threads: 1,
                resume: false,
                out_root: Some(dir.clone()),
            },
        )
        .unwrap();
        assert_eq!(res.cells.len(), 2);
        assert_eq!(res.evaluated, 2);
        assert_eq!(res.skipped, 0);
        assert_eq!(res.groups.len(), 1);
        assert!(!res.archive.is_empty());
        assert_eq!(res.best.len(), 1, "one group x one objective");
        for p in &res.artifacts {
            assert!(p.exists(), "{} missing", p.display());
        }
        assert!(res.dir.join("journal.jsonl").exists());
        for c in &res.cells {
            assert!(c.mc > 0.0 && c.energy > 0.0 && c.delay > 0.0);
            assert!(c.fluid_delay.is_none());
            assert_eq!(c.per_dnn.len(), 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fluid_fidelity_fills_corrected_delay() {
        let spec = tiny_spec("fluid");
        let dir = temp_dir("fluid");
        let res = run_campaign(
            &spec,
            &CampaignOptions {
                threads: 1,
                resume: false,
                out_root: Some(dir.clone()),
            },
        )
        .unwrap();
        for c in &res.cells {
            let fd = c.fluid_delay.expect("fluid rung ran");
            // The congestion correction is monotone.
            assert!(fd >= c.delay * (1.0 - 1e-12));
            assert!(c.worst_fluid.expect("ratio recorded") >= 1.0);
            assert_eq!(c.eff_delay().to_bits(), fd.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_shares_mappings_between_solo_and_joint_sets() {
        // Under mode = "both" the joint set reuses the solo sets'
        // mapping runs; the joint geomean must therefore be exactly the
        // geomean of the solo cells' metrics.
        let doc = r#"
[campaign]
name = "memo"
seed = 2
sa_iters = 30
batches = [2]

[workloads]
names = ["two-conv", "tiny-resnet"]
mode = "both"

[[arch]]
preset = "g-arch"
"#;
        let spec = CampaignSpec::from_str_format(doc, false).unwrap();
        let dir = temp_dir("memo");
        let res = run_campaign(
            &spec,
            &CampaignOptions {
                threads: 2,
                resume: false,
                out_root: Some(dir.clone()),
            },
        )
        .unwrap();
        assert_eq!(res.cells.len(), 3, "two solo + one joint");
        let joint = &res.cells[2];
        assert_eq!(joint.per_dnn.len(), 2);
        let expect_e = (res.cells[0].energy * res.cells[1].energy).sqrt();
        assert!((joint.energy - expect_e).abs() <= expect_e * 1e-12);
        // The joint cell's per-dnn metrics are bit-identical to the
        // solo cells' (the memo returned the same evaluation).
        assert_eq!(joint.per_dnn[0], res.cells[0].per_dnn[0]);
        assert_eq!(joint.per_dnn[1], res.cells[1].per_dnn[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
