//! The SA-based LP-SPM exploration engine (Sec. V-B1 of the paper).
//!
//! Simulated annealing over the space defined by the layer-centric
//! encoding, with the paper's five operators:
//!
//! * **OP1** — re-draw a random layer's `Part` (respecting its
//!   constraints);
//! * **OP2** — swap two cores within one layer's `CG`;
//! * **OP3** — swap two cores across two layers' `CG`s;
//! * **OP4** — move a core from one layer's `CG` to another's, re-drawing
//!   both `Part`s to match the new sizes;
//! * **OP5** — re-draw one non-negative `FD` entry within `0..=D`.
//!
//! # Parallel multi-chain exploration
//!
//! The paper ran its exploration on 80-thread servers. This engine
//! recovers that parallelism structurally: every layer group gets its
//! **own annealing chain**, and chains run concurrently under
//! [`std::thread::scope`]. A chain mutates only its group's scheme and
//! scores candidates against a *frozen snapshot* of every other group's
//! initial scheme and flow-of-data (OF) selections — which is exactly
//! what makes chains independent, so the outcome is **bit-identical at
//! any thread count**. Each chain draws from a private RNG stream
//! derived from [`SaOptions::seed`] and the group index (splitmix64
//! mixing; see [`chain_seed`]), and the total iteration budget is
//! apportioned across chains proportionally to each group's
//! optimization-space size (Sec. IV-B), replacing the sequential
//! engine's per-iteration weighted group pick.
//!
//! A chain still sees cross-group coupling where it matters: when a
//! move changes the group's OF (OP5 on an ofmap entry), the chain
//! re-evaluates the consumer groups of that output — at their frozen
//! schemes — under the new OF overlay, so moves that push traffic onto
//! slow, energy-hungry D2D links are rejected exactly as in the paper
//! ("automatically optimizes D2D communication" without a dedicated
//! objective term). After all chains finish, the per-group best schemes
//! are recombined, the OF map is rebuilt from the winners, and every
//! group is re-evaluated under it for the reported cost — incrementally
//! from its initial state, re-simulating only the members whose final
//! assignment differs from the start; if cross-group OF interactions
//! ever made the recombination worse than the initial scheme, the
//! initial scheme is returned instead (the engine never regresses its
//! starting point). The outcome carries the reports of both, so no
//! caller evaluates either mapping again.
//!
//! Every applied move is evaluated exactly once, incrementally: each
//! chain keeps a [`gemini_sim::GroupEvalState`] for its own group and
//! for each consumer group, re-simulates only the members the move can
//! have changed, and commits the proposal when the move is accepted.
//! Chains keep no memo cache: a chain rarely proposes a state it has
//! seen before (a few percent of proposals on the benchmark workloads),
//! so memoizing costs more than it saves. Evaluation counters surface
//! in [`SaStats`].

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use gemini_arch::ArchConfig;
use gemini_model::{Dnn, LayerId};
use gemini_sim::{DeltaProposal, DramSel, Evaluator, GroupEvalState, GroupReport};

use crate::encoding::{GroupSpec, Lms};
use crate::factor::random_part;
use crate::partition::GraphPartition;
use crate::space::group_weight;

/// Options for the SA engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaOptions {
    /// Total iterations across all layer groups (apportioned over the
    /// per-group chains by optimization-space size).
    pub iters: u32,
    /// Initial relative temperature (fraction of current cost a move may
    /// exceed and still be accepted with probability 1/e).
    pub t0: f64,
    /// Final relative temperature.
    pub t_end: f64,
    /// RNG seed (explorations are deterministic given the seed, at any
    /// thread count).
    pub seed: u64,
    /// Which of OP1..OP5 are enabled (for the ablation study).
    pub enabled_ops: [bool; 5],
    /// Energy exponent of the mapping objective `E^beta * D^gamma`.
    pub beta: f64,
    /// Delay exponent.
    pub gamma: f64,
    /// Worker threads for the per-group chains: `0` uses all available
    /// hardware parallelism, `1` runs chains sequentially. Results are
    /// identical either way; only wall-clock time changes.
    pub threads: usize,
    /// Seed the per-group chain's initial scheme from the rung-0
    /// bound-achieving mapping ([`crate::stripe::bound_seed_lms`]):
    /// GEMM-shaped members start from the output-channel-major split
    /// that meets the analytic DRAM-traffic bound exactly, the rest
    /// keep the stripe heuristic. Off by default. The chain's RNG
    /// stream is untouched, so results stay bit-identical at any
    /// thread count, and SA still never returns worse than its
    /// (re-seeded) initial scheme.
    pub bound_seed: bool,
}

impl Default for SaOptions {
    fn default() -> Self {
        Self {
            iters: 1000,
            t0: 0.2,
            t_end: 1e-3,
            seed: 0xC0FFEE,
            enabled_ops: [true; 5],
            beta: 1.0,
            gamma: 1.0,
            threads: 0,
            bound_seed: false,
        }
    }
}

impl SaOptions {
    /// Default options with overrides from the environment (the paper
    /// ran on 80-thread servers; scaled-down budgets keep the suite
    /// laptop-friendly, see `docs/CONCORDANCE.md`, "Known deviations"):
    ///
    /// * `GEMINI_SA_ITERS` — iteration budget;
    /// * `GEMINI_SA_SEED` — RNG seed;
    /// * `GEMINI_SA_THREADS` — chain worker threads (`0` = all cores).
    ///
    /// Unparsable values are **not** silently ignored: a warning naming
    /// the variable and the kept default goes to stderr.
    pub fn from_env() -> Self {
        let mut o = Self::default();
        env_override("GEMINI_SA_ITERS", &mut o.iters);
        env_override("GEMINI_SA_SEED", &mut o.seed);
        env_override("GEMINI_SA_THREADS", &mut o.threads);
        o
    }

    /// The number of chain workers this configuration resolves to.
    pub fn chain_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Overwrites `slot` with the parsed value of `name` when set; warns on
/// stderr (keeping the current value) when the variable is set but does
/// not parse.
fn env_override<T>(name: &str, slot: &mut T)
where
    T: std::str::FromStr + std::fmt::Display,
{
    // tidy:allow(env-read, reason = "explicit operator override hook, read once at configuration time before any chain starts; the resolved SaParams are recorded in the run configuration, so artifacts stay reproducible from the recorded values")
    if let Ok(v) = std::env::var(name) {
        match v.trim().parse::<T>() {
            Ok(n) => *slot = n,
            Err(_) => eprintln!(
                "warning: ignoring unparsable {name}={v:?} (expected a number; keeping {slot})"
            ),
        }
    }
}

/// Deterministic per-chain RNG seed: splitmix64 finalization over the
/// run seed and the group index, so every chain draws from a distinct,
/// thread-count-independent stream.
pub fn chain_seed(seed: u64, group: u64) -> u64 {
    let mut z = seed ^ group.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Geometric cooling temperature for iteration `iter` of a chain of
/// `span` iterations.
///
/// Degenerate inputs are guarded: non-positive (or NaN) `t0`/`t_end`
/// are floored at a tiny positive temperature and `t_end` is capped at
/// `t0`, so the Metropolis criterion never sees `inf`/`NaN`. The
/// schedule is anchored so the **last** iteration (`iter == span - 1`)
/// runs exactly at `t_end` (the pre-fix schedule stopped one geometric
/// step short).
pub fn temperature(opts: &SaOptions, iter: u32, span: u32) -> f64 {
    const T_MIN: f64 = 1e-12;
    let t0 = opts.t0.max(T_MIN); // max() also swallows NaN
    let t_end = opts.t_end.max(T_MIN).min(t0);
    if span <= 1 {
        return t_end;
    }
    let frac = iter.min(span - 1) as f64 / (span - 1) as f64;
    t0 * (t_end / t0).powf(frac)
}

/// Statistics of one SA run (counters are summed over all chains).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SaStats {
    /// Iterations executed.
    pub iters: u32,
    /// Accepted moves.
    pub accepted: u32,
    /// Moves that strictly improved the cost.
    pub improved: u32,
    /// Operator applications that failed to produce a change.
    pub failed_ops: u32,
    /// Per-operator application counts (successful mutations).
    pub op_applied: [u32; 5],
    /// Cost of the initial (stripe) scheme.
    pub init_cost: f64,
    /// Cost of the returned scheme.
    pub final_cost: f64,
    /// Annealing chains run (one per layer group).
    pub chains: u32,
    /// Always 0: no annealer keeps an evaluation memo cache. Kept so
    /// existing readers of the field still build; it goes with the
    /// benchmark-side cleanup in ROADMAP.md ("Least code, same bytes").
    pub cache_hits: u64,
    /// Always 0, like [`SaStats::cache_hits`], and deleted with it.
    pub cache_misses: u64,
    /// Evaluations served by the incremental evaluator: only the
    /// operator's dirty-layer footprint (plus in-group consumers) was
    /// re-simulated before re-folding the group aggregate.
    pub delta_hits: u64,
    /// Evaluations that rebuilt every member record (single-layer
    /// groups, whole-group footprints, or no usable footprint).
    pub full_evals: u64,
    /// Member-layer simulations actually executed across all
    /// evaluations.
    pub member_sims: u64,
    /// Member-layer simulations skipped by reusing a clean per-layer
    /// stage record.
    pub member_reuses: u64,
}

impl SaStats {
    /// Accumulates the counter fields of `other` (iterations, move and
    /// operator counts, chains, cache and delta counters). The cost
    /// fields `init_cost`/`final_cost` are left untouched — they are
    /// per-run values, not counters.
    pub fn add_counters(&mut self, other: &SaStats) {
        self.iters += other.iters;
        self.accepted += other.accepted;
        self.improved += other.improved;
        self.failed_ops += other.failed_ops;
        for (a, b) in self.op_applied.iter_mut().zip(other.op_applied) {
            *a += b;
        }
        self.chains += other.chains;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.delta_hits += other.delta_hits;
        self.full_evals += other.full_evals;
        self.member_sims += other.member_sims;
        self.member_reuses += other.member_reuses;
    }

    /// Folds a [`gemini_sim::DeltaStats`] into the delta counters.
    pub fn add_delta(&mut self, d: &gemini_sim::DeltaStats) {
        self.delta_hits += d.delta_hits;
        self.full_evals += d.full_evals;
        self.member_sims += d.member_sims;
        self.member_reuses += d.member_reuses;
    }
}

/// Result of an SA exploration over a whole DNN's groups.
#[derive(Debug, Clone)]
pub struct SaOutcome {
    /// Optimized schemes, parallel to the partition's groups.
    pub lms: Vec<Lms>,
    /// Evaluation reports of `lms`, parallel to the groups: each is
    /// bit-identical to a cold [`Evaluator::evaluate_group`] of its
    /// group under the OF map of `lms`, so the engine sums these instead
    /// of evaluating the mapping again.
    pub reports: Vec<GroupReport>,
    /// Evaluation reports of the initial schemes (`init`), parallel to
    /// the groups, on the same terms. With stripe initial schemes this
    /// is the T-Map's evaluation.
    pub init_reports: Vec<GroupReport>,
    /// Final cost `E^beta * D^gamma`.
    pub cost: f64,
    /// Run statistics.
    pub stats: SaStats,
}

/// Dirty-layer footprint of one operator application: the member
/// indices whose parsed [`gemini_sim::LayerAssignment`] can differ from
/// the pre-move scheme. Every one of OP1..OP5 touches at most two
/// members, so the footprint is a fixed two-slot set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dirty {
    idx: [usize; 2],
    len: u8,
}

impl Dirty {
    pub(crate) const EMPTY: Dirty = Dirty {
        idx: [0; 2],
        len: 0,
    };

    pub(crate) fn one(i: usize) -> Self {
        Dirty {
            idx: [i, 0],
            len: 1,
        }
    }

    pub(crate) fn two(i: usize, j: usize) -> Self {
        Dirty {
            idx: [i, j],
            len: 2,
        }
    }

    pub(crate) fn as_slice(&self) -> &[usize] {
        &self.idx[..self.len as usize]
    }
}

/// Outcome of one operator application.
pub(crate) struct OpOutcome {
    applied: bool,
    changed_of: bool,
    /// Member layers whose assignment the operator may have changed.
    dirty: Dirty,
}

const FAILED: OpOutcome = OpOutcome {
    applied: false,
    changed_of: false,
    dirty: Dirty::EMPTY,
};

/// A successful mutation touching the given member layers.
fn applied(dirty: Dirty) -> OpOutcome {
    OpOutcome {
        applied: true,
        changed_of: false,
        dirty,
    }
}

/// Public trace of one operator application (see [`apply_op_traced`]):
/// the dirty-layer footprint for incremental evaluation, plus whether
/// the group's explicit ofmap flow-of-data changed (consumer groups
/// must then be re-checked under the new OF overlay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Member indices (into the group's scheme) whose assignment
    /// changed.
    pub dirty: Vec<usize>,
    /// Whether an explicit ofmap FD entry changed.
    pub changed_of: bool,
}

/// Apportions the iteration budget over the chains proportionally to
/// `weights` (largest-remainder rounding; the result sums to `iters`
/// exactly, deterministically).
fn apportion(iters: u32, weights: &[f64]) -> Vec<u32> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let total: f64 = weights.iter().sum();
    if !total.is_finite() || total <= 0.0 {
        // Degenerate weights: equal split.
        let base = iters / n as u32;
        let mut out = vec![base; n];
        for slot in out.iter_mut().take((iters % n as u32) as usize) {
            *slot += 1;
        }
        return out;
    }
    let mut out = vec![0u32; n];
    let mut rema: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut assigned = 0u32;
    for (i, w) in weights.iter().enumerate() {
        let share = iters as f64 * w / total;
        let floor = share.floor().min(iters as f64) as u32;
        out[i] = floor;
        assigned += floor;
        rema.push((share - floor as f64, i));
    }
    // Hand the remainder to the largest fractional parts; ties break by
    // group index for determinism.
    rema.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut left = iters.saturating_sub(assigned);
    for (_, i) in rema {
        if left == 0 {
            break;
        }
        out[i] += 1;
        left -= 1;
    }
    out
}

/// The per-chain exploration state and result.
struct ChainResult {
    best_lms: Lms,
    stats: SaStats,
}

/// Immutable inputs shared by every chain (one borrow to pass through
/// the thread scope).
struct ChainCtx<'a> {
    dnn: &'a Dnn,
    ev: &'a Evaluator,
    partition: &'a GraphPartition,
    /// Initial scheme per group — the frozen snapshot chains score
    /// against.
    init: &'a [Lms],
    /// Evaluation of `init`, parallel to the groups.
    init_reports: &'a [GroupReport],
    /// Incremental-evaluator states of `init`, parallel to the groups;
    /// chains `fork` the states they touch instead of paying a
    /// redundant cold rebuild per chain.
    init_states: &'a [GroupEvalState],
    /// OF selections of `init`, across all groups.
    of_map: &'a BTreeMap<LayerId, DramSel>,
    /// Consumer groups of each group's outputs (sorted, deduplicated).
    consumers: &'a [Vec<usize>],
    /// Iteration budget per chain.
    budget: &'a [u32],
    /// Enabled operator indices.
    enabled: &'a [usize],
    opts: &'a SaOptions,
}

/// Runs the SA exploration for all groups of a partitioned DNN.
///
/// `init` supplies the initial scheme per group (normally the stripe
/// heuristic). The returned outcome holds the best state visited, and
/// is never worse than `init`; it carries the group reports of both
/// (see [`SaOutcome`]). Chains for different groups run
/// concurrently (see [`SaOptions::threads`]); the outcome is identical
/// at any thread count.
pub fn optimize(
    dnn: &Dnn,
    ev: &Evaluator,
    partition: &GraphPartition,
    init: Vec<Lms>,
    batch: u32,
    opts: &SaOptions,
) -> SaOutcome {
    assert_eq!(init.len(), partition.groups.len(), "one Lms per group");
    let arch = ev.arch();
    let n_groups = partition.groups.len();

    // Frozen snapshot: initial OF selections and per-group evaluations.
    // The evaluations are built as incremental-evaluator states so the
    // chains can fork the member records instead of re-simulating them.
    let of_map = build_of_map(dnn, partition, &init);
    let no_overlay: BTreeMap<LayerId, DramSel> = BTreeMap::new();
    let init_states: Vec<GroupEvalState> = (0..n_groups)
        .map(|g| {
            let gm = parse_group(dnn, &partition.groups[g], &init[g], &of_map, &no_overlay);
            GroupEvalState::new(ev, dnn, gm, batch)
        })
        .collect();
    let init_reports: Vec<GroupReport> = init_states.iter().map(|s| s.report().clone()).collect();
    let e_init: f64 = init_reports.iter().map(|r| r.energy.total()).sum();
    let d_init: f64 = init_reports.iter().map(|r| r.delay_s).sum();
    let init_cost = cost_of(e_init, d_init, opts);

    let mut stats = SaStats {
        init_cost,
        chains: n_groups as u32,
        ..Default::default()
    };

    let enabled: Vec<usize> = (0..5).filter(|&i| opts.enabled_ops[i]).collect();
    if enabled.is_empty() || n_groups == 0 {
        stats.final_cost = init_cost;
        return SaOutcome {
            lms: init,
            reports: init_reports.clone(),
            init_reports,
            cost: init_cost,
            stats,
        };
    }

    // Iteration budget per chain, proportional to space size (Sec. IV-B).
    let weights: Vec<f64> = partition
        .groups
        .iter()
        .map(|g| group_weight(arch.n_cores() as u64, g.members.len() as u64))
        .collect();
    let budget = apportion(opts.iters, &weights);

    // Consumers of each group's outputs (for OF-change invalidation).
    let consumers = consumer_groups(dnn, partition);

    let ctx = ChainCtx {
        dnn,
        ev,
        partition,
        init: &init,
        init_reports: &init_reports,
        init_states: &init_states,
        of_map: &of_map,
        consumers: &consumers,
        budget: &budget,
        enabled: &enabled,
        opts,
    };

    let results: Vec<ChainResult> =
        crate::pool::parallel_map_indexed(opts.chain_threads(), n_groups, |g| run_chain(&ctx, g));

    // Merge statistics and recombine the per-group winners (chain
    // stats carry `chains == 0`, so the count set above is preserved).
    let mut lms_final: Vec<Lms> = Vec::with_capacity(n_groups);
    for r in results {
        stats.add_counters(&r.stats);
        lms_final.push(r.best_lms);
    }

    // Joint evaluation of the recombined schemes under their own OF map,
    // incremental from the start: each group re-simulates only the
    // members whose assignment differs from its initial one. These
    // states' counters stay out of `stats`, which counts chain work.
    let of_final = build_of_map(dnn, partition, &lms_final);
    let reports_final: Vec<GroupReport> = init_states
        .into_iter()
        .zip(partition.groups.iter().zip(&lms_final))
        .map(|(mut st, (spec, l))| {
            let gm = parse_group(dnn, spec, l, &of_final, &no_overlay);
            let dirty = st.diff_dirty(&gm);
            st.propose(ev, dnn, &gm, dirty.as_deref()).report().clone()
        })
        .collect();
    let e_final: f64 = reports_final.iter().map(|r| r.energy.total()).sum();
    let d_final: f64 = reports_final.iter().map(|r| r.delay_s).sum();
    let final_cost = cost_of(e_final, d_final, opts);

    let (lms, reports, cost) = if final_cost <= init_cost {
        (lms_final, reports_final, final_cost)
    } else {
        // Cross-group OF interactions made the recombination worse than
        // the starting point; keep the guarantee and return the start.
        (init, init_reports.clone(), init_cost)
    };
    stats.final_cost = cost;
    SaOutcome {
        lms,
        reports,
        init_reports,
        cost,
        stats,
    }
}

/// Runs one group's annealing chain against the frozen snapshot.
///
/// Every applied move is evaluated once, incrementally: the chain's own
/// group with the operator's declared dirty footprint and, when the
/// move changed the group's OF, each consumer group (at its frozen
/// scheme, under the trial overlay) with the footprint
/// [`GroupEvalState::diff_dirty`] derives. Accepted proposals are
/// committed; rejected ones are dropped.
fn run_chain(ctx: &ChainCtx<'_>, g: usize) -> ChainResult {
    let ChainCtx {
        dnn,
        ev,
        partition,
        init,
        init_reports,
        init_states,
        of_map,
        consumers,
        budget,
        enabled,
        opts,
    } = *ctx;
    let arch = ev.arch();
    let spec = &partition.groups[g];
    let cons = &consumers[g];
    let span = budget[g];
    let mut rng = StdRng::seed_from_u64(chain_seed(opts.seed, g as u64));
    let mut stats = SaStats::default();

    // Energy/delay of the frozen groups this chain never touches.
    let mut e_rest = 0.0f64;
    let mut d_rest = 0.0f64;
    for (i, r) in init_reports.iter().enumerate() {
        if i != g && !cons.contains(&i) {
            e_rest += r.energy.total();
            d_rest += r.delay_s;
        }
    }
    // The chain's view of the global cost: frozen rest + own group +
    // consumers (at their frozen schemes, under the chain's OF overlay).
    let view = |own: &GroupReport, cons_reports: &mut dyn Iterator<Item = &GroupReport>| {
        let mut e = e_rest + own.energy.total();
        let mut d = d_rest + own.delay_s;
        for r in cons_reports {
            e += r.energy.total();
            d += r.delay_s;
        }
        cost_of(e, d, opts)
    };

    let mut cur = init[g].clone();
    // The committed scheme's OF entries; empty means "same as the
    // frozen map" (true for the initial scheme by construction).
    let mut cur_overlay: BTreeMap<LayerId, DramSel> = BTreeMap::new();

    // Incremental-evaluator states, synced to the *committed* schemes:
    // the chain's own group, plus every consumer group at its frozen
    // scheme under the committed overlay. They are forked from the
    // engine-level snapshot, so the initial member records are reused
    // rather than re-simulated.
    let mut own_state = init_states[g].fork();
    let mut cons_states: Vec<GroupEvalState> =
        cons.iter().map(|&c| init_states[c].fork()).collect();

    let mut cost = view(
        own_state.report(),
        &mut cons_states.iter().map(GroupEvalState::report),
    );
    let mut best_lms = cur.clone();
    let mut best_cost = cost;

    for iter in 0..span {
        stats.iters = iter + 1;
        let op = enabled[rng.gen_range(0..enabled.len())];
        let mut trial = cur.clone();
        let outcome = apply_op(op, dnn, arch, spec, &mut trial, &mut rng);
        if !outcome.applied {
            stats.failed_ops += 1;
            continue;
        }
        debug_assert!(
            trial.validate(dnn, arch, spec).is_ok(),
            "operator broke invariants"
        );

        // OF changes redirect where this group's consumers read from.
        let trial_overlay = outcome.changed_of.then(|| {
            let mut o = BTreeMap::new();
            collect_of(dnn, spec, &trial, &mut o);
            o
        });
        let overlay = trial_overlay.as_ref().unwrap_or(&cur_overlay);

        let gm = parse_group(dnn, spec, &trial, of_map, overlay);
        let own_prop = own_state.propose(ev, dnn, &gm, Some(outcome.dirty.as_slice()));
        // A consumer's scheme is frozen, so under the trial overlay only
        // members whose predecessor DRAM selector resolved differently
        // change: the diff against the committed consumer mapping is the
        // exact dirty footprint.
        let cons_props: Option<Vec<DeltaProposal>> = trial_overlay.as_ref().map(|o| {
            cons.iter()
                .zip(cons_states.iter_mut())
                .map(|(&c, st)| {
                    let cgm = parse_group(dnn, &partition.groups[c], &init[c], of_map, o);
                    let cdirty = st.diff_dirty(&cgm);
                    st.propose(ev, dnn, &cgm, cdirty.as_deref())
                })
                .collect()
        });
        let new_cost = match &cons_props {
            Some(ps) => view(own_prop.report(), &mut ps.iter().map(DeltaProposal::report)),
            None => view(
                own_prop.report(),
                &mut cons_states.iter().map(GroupEvalState::report),
            ),
        };

        // Metropolis acceptance on the relative cost change.
        let t = temperature(opts, iter, span);
        let delta = (new_cost - cost) / cost.max(f64::MIN_POSITIVE);
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / t).exp();
        if accept {
            if new_cost < cost {
                stats.improved += 1;
            }
            stats.accepted += 1;
            stats.op_applied[op] += 1;
            cur = trial;
            own_state.commit(own_prop);
            if let (Some(ps), Some(o)) = (cons_props, trial_overlay) {
                for (st, p) in cons_states.iter_mut().zip(ps) {
                    st.commit(p);
                }
                cur_overlay = o;
            }
            cost = new_cost;
            if cost < best_cost {
                best_cost = cost;
                best_lms = cur.clone();
            }
        }
    }

    for st in std::iter::once(&own_state).chain(&cons_states) {
        stats.add_delta(&st.stats());
    }
    ChainResult { best_lms, stats }
}

/// The annealing cost `E^beta * D^gamma` of a total energy and delay.
pub(crate) fn cost_of(e: f64, d: f64, opts: &SaOptions) -> f64 {
    e.powf(opts.beta) * d.powf(opts.gamma)
}

/// Gathers the OF selections of every layer whose output is explicitly
/// managed, across all groups: the one rule for which layers get an
/// explicit OF entry.
pub(crate) fn build_of_map(
    dnn: &Dnn,
    partition: &GraphPartition,
    lms: &[Lms],
) -> BTreeMap<LayerId, DramSel> {
    let mut map = BTreeMap::new();
    for (spec, l) in partition.groups.iter().zip(lms) {
        collect_of(dnn, spec, l, &mut map);
    }
    map
}

fn collect_of(dnn: &Dnn, spec: &GroupSpec, lms: &Lms, map: &mut BTreeMap<LayerId, DramSel>) {
    for (ms, &id) in lms.schemes.iter().zip(&spec.members) {
        if crate::encoding::flow_needs(dnn, spec, id).explicit_of {
            if let Some(sel) = DramSel::from_fd(ms.fd.ofm) {
                map.insert(id, sel);
            }
        }
    }
}

/// Groups that consume outputs of each group, sorted and deduplicated
/// (set-based — linear in edges, not quadratic in consumers).
pub(crate) fn consumer_groups(dnn: &Dnn, partition: &GraphPartition) -> Vec<Vec<usize>> {
    let mut group_of: BTreeMap<LayerId, usize> = BTreeMap::new();
    for (gi, g) in partition.groups.iter().enumerate() {
        for &m in &g.members {
            group_of.insert(m, gi);
        }
    }
    let mut sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); partition.groups.len()];
    for (gi, g) in partition.groups.iter().enumerate() {
        for &m in &g.members {
            for &s in dnn.succs(m) {
                if let Some(&cg) = group_of.get(&s) {
                    if cg != gi {
                        sets[gi].insert(cg);
                    }
                }
            }
        }
    }
    sets.into_iter().map(|s| s.into_iter().collect()).collect()
}

/// Parses one group's scheme, resolving each DRAM-sourced predecessor
/// through `overlay`, then `of_map`, then interleaving.
pub(crate) fn parse_group(
    dnn: &Dnn,
    spec: &GroupSpec,
    lms: &Lms,
    of_map: &BTreeMap<LayerId, DramSel>,
    overlay: &BTreeMap<LayerId, DramSel>,
) -> gemini_sim::GroupMapping {
    let resolver = |p: LayerId| {
        overlay
            .get(&p)
            .or_else(|| of_map.get(&p))
            .copied()
            .unwrap_or(DramSel::Interleaved)
    };
    lms.parse(dnn, spec, &resolver)
}

/// Applies one of the five SPM operators (0-based OP1..OP5) to a
/// group's scheme, for external explorers such as the joint
/// partition+SPM engine. Returns the operator's declared dirty-layer
/// footprint (the member indices whose assignment changed) and whether
/// the explicit ofmap FD changed — the inputs an incremental evaluator
/// ([`gemini_sim::GroupEvalState`]) needs — or `None` when the operator
/// failed to produce a change.
pub fn apply_op_traced(
    op: usize,
    dnn: &Dnn,
    arch: &ArchConfig,
    spec: &GroupSpec,
    lms: &mut Lms,
    rng: &mut StdRng,
) -> Option<OpTrace> {
    let out = apply_op(op, dnn, arch, spec, lms, rng);
    out.applied.then(|| OpTrace {
        dirty: out.dirty.as_slice().to_vec(),
        changed_of: out.changed_of,
    })
}

/// Applies operator `op` (0-based OP1..OP5) to a group's scheme.
pub(crate) fn apply_op(
    op: usize,
    dnn: &Dnn,
    arch: &ArchConfig,
    spec: &GroupSpec,
    lms: &mut Lms,
    rng: &mut StdRng,
) -> OpOutcome {
    match op {
        0 => op1_change_part(dnn, spec, lms, rng),
        1 => op2_swap_within(lms, rng),
        2 => op3_swap_across(lms, rng),
        3 => op4_move_core(dnn, arch, spec, lms, rng),
        4 => op5_change_fd(arch, lms, rng),
        _ => unreachable!("five operators"),
    }
}

/// OP1: re-draw one layer's Part.
fn op1_change_part(dnn: &Dnn, spec: &GroupSpec, lms: &mut Lms, rng: &mut StdRng) -> OpOutcome {
    let li = rng.gen_range(0..lms.schemes.len());
    let id = spec.members[li];
    let shape = dnn.layer(id).ofmap;
    let ms = &mut lms.schemes[li];
    let nc = ms.cg.len() as u32;
    match random_part(nc, shape, spec.batch_unit, Some(ms.part), rng) {
        Some(p) if p != ms.part => {
            ms.part = p;
            applied(Dirty::one(li))
        }
        _ => FAILED,
    }
}

/// OP2: swap two cores within one layer's CG.
fn op2_swap_within(lms: &mut Lms, rng: &mut StdRng) -> OpOutcome {
    let candidates: Vec<usize> = (0..lms.schemes.len())
        .filter(|&i| lms.schemes[i].cg.len() >= 2)
        .collect();
    if candidates.is_empty() {
        return FAILED;
    }
    let li = candidates[rng.gen_range(0..candidates.len())];
    let cg = &mut lms.schemes[li].cg.0;
    let a = rng.gen_range(0..cg.len());
    let mut b = rng.gen_range(0..cg.len() - 1);
    if b >= a {
        b += 1;
    }
    cg.swap(a, b);
    applied(Dirty::one(li))
}

/// OP3: swap a core of one layer with a core of another layer.
fn op3_swap_across(lms: &mut Lms, rng: &mut StdRng) -> OpOutcome {
    if lms.schemes.len() < 2 {
        return FAILED;
    }
    for _ in 0..8 {
        let l1 = rng.gen_range(0..lms.schemes.len());
        let mut l2 = rng.gen_range(0..lms.schemes.len() - 1);
        if l2 >= l1 {
            l2 += 1;
        }
        let p1 = rng.gen_range(0..lms.schemes[l1].cg.len());
        let p2 = rng.gen_range(0..lms.schemes[l2].cg.len());
        let c1 = lms.schemes[l1].cg.0[p1];
        let c2 = lms.schemes[l2].cg.0[p2];
        if c1 == c2 || lms.schemes[l1].cg.contains(c2) || lms.schemes[l2].cg.contains(c1) {
            continue;
        }
        lms.schemes[l1].cg.0[p1] = c2;
        lms.schemes[l2].cg.0[p2] = c1;
        return applied(Dirty::two(l1, l2));
    }
    FAILED
}

/// OP4: move a core from one layer's CG to another's, re-drawing both
/// Parts.
fn op4_move_core(
    dnn: &Dnn,
    _arch: &ArchConfig,
    spec: &GroupSpec,
    lms: &mut Lms,
    rng: &mut StdRng,
) -> OpOutcome {
    if lms.schemes.len() < 2 {
        return FAILED;
    }
    for _ in 0..8 {
        let from = rng.gen_range(0..lms.schemes.len());
        if lms.schemes[from].cg.len() < 2 {
            continue;
        }
        let mut to = rng.gen_range(0..lms.schemes.len() - 1);
        if to >= from {
            to += 1;
        }
        let pos = rng.gen_range(0..lms.schemes[from].cg.len());
        let core = lms.schemes[from].cg.0[pos];
        if lms.schemes[to].cg.contains(core) {
            continue;
        }
        // Check both new sizes admit Parts before mutating.
        let shape_from = dnn.layer(spec.members[from]).ofmap;
        let shape_to = dnn.layer(spec.members[to]).ofmap;
        let n_from = lms.schemes[from].cg.len() as u32 - 1;
        let n_to = lms.schemes[to].cg.len() as u32 + 1;
        let part_from = random_part(n_from, shape_from, spec.batch_unit, None, rng);
        let part_to = random_part(n_to, shape_to, spec.batch_unit, None, rng);
        let (Some(pf), Some(pt)) = (part_from, part_to) else {
            continue;
        };
        lms.schemes[from].cg.0.remove(pos);
        let insert_at = rng.gen_range(0..=lms.schemes[to].cg.len());
        lms.schemes[to].cg.0.insert(insert_at, core);
        lms.schemes[from].part = pf;
        lms.schemes[to].part = pt;
        return applied(Dirty::two(from, to));
    }
    FAILED
}

/// OP5: re-draw one explicit FD entry within `0..=D`.
fn op5_change_fd(arch: &ArchConfig, lms: &mut Lms, rng: &mut StdRng) -> OpOutcome {
    // Collect (layer index, slot) pairs with explicit entries.
    let mut slots = Vec::new();
    for (li, ms) in lms.schemes.iter().enumerate() {
        if ms.fd.ifm >= 0 {
            slots.push((li, 0u8));
        }
        if ms.fd.wgt >= 0 {
            slots.push((li, 1));
        }
        if ms.fd.ofm >= 0 {
            slots.push((li, 2));
        }
    }
    if slots.is_empty() {
        return FAILED;
    }
    let d = arch.dram_count() as i32;
    if d == 0 {
        return FAILED;
    }
    let (li, slot) = slots[rng.gen_range(0..slots.len())];
    let fd = &mut lms.schemes[li].fd;
    let cur = match slot {
        0 => fd.ifm,
        1 => fd.wgt,
        _ => fd.ofm,
    };
    // Values range over 0..=D; exclude the current one.
    let mut v = rng.gen_range(0..d); // d possible "other" values
    if v >= cur {
        v += 1;
    }
    match slot {
        0 => fd.ifm = v,
        1 => fd.wgt = v,
        _ => fd.ofm = v,
    }
    OpOutcome {
        applied: true,
        changed_of: slot == 2,
        dirty: Dirty::one(li),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{CoreGroup, FlowOfData, Ms, Part};
    use crate::partition::{partition_graph, PartitionOptions};
    use crate::stripe::stripe_lms;
    use gemini_arch::presets;
    use gemini_model::zoo;

    fn setup(batch: u32) -> (Dnn, Evaluator, GraphPartition, Vec<Lms>) {
        let dnn = zoo::two_conv_example();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let partition = partition_graph(&dnn, &arch, batch, &PartitionOptions::default());
        let init: Vec<Lms> = partition
            .groups
            .iter()
            .map(|g| stripe_lms(&dnn, &arch, g))
            .collect();
        (dnn, ev, partition, init)
    }

    #[test]
    fn sa_never_returns_worse_than_init() {
        let (dnn, ev, partition, init) = setup(4);
        let opts = SaOptions {
            iters: 120,
            seed: 42,
            ..Default::default()
        };
        let out = optimize(&dnn, &ev, &partition, init, 4, &opts);
        assert!(
            out.cost <= out.stats.init_cost * (1.0 + 1e-9),
            "best-state tracking must not regress: {} vs {}",
            out.cost,
            out.stats.init_cost
        );
        assert_eq!(out.lms.len(), partition.groups.len());
    }

    #[test]
    fn sa_improves_stripe_on_small_example() {
        let (dnn, ev, partition, init) = setup(8);
        let opts = SaOptions {
            iters: 400,
            seed: 7,
            ..Default::default()
        };
        let out = optimize(&dnn, &ev, &partition, init, 8, &opts);
        assert!(
            out.stats.final_cost < out.stats.init_cost,
            "400 iterations should find something better than stripe ({} -> {})",
            out.stats.init_cost,
            out.stats.final_cost
        );
        assert!(out.stats.accepted > 0);
    }

    #[test]
    fn sa_outcome_validates() {
        let (dnn, ev, partition, init) = setup(4);
        let arch = presets::g_arch_72();
        let opts = SaOptions {
            iters: 150,
            seed: 3,
            ..Default::default()
        };
        let out = optimize(&dnn, &ev, &partition, init, 4, &opts);
        for (lms, spec) in out.lms.iter().zip(&partition.groups) {
            lms.validate(&dnn, &arch, spec).unwrap();
        }
    }

    #[test]
    fn sa_deterministic_per_seed() {
        let (dnn, ev, partition, init) = setup(4);
        let opts = SaOptions {
            iters: 100,
            seed: 99,
            ..Default::default()
        };
        let a = optimize(&dnn, &ev, &partition, init.clone(), 4, &opts);
        let b = optimize(&dnn, &ev, &partition, init, 4, &opts);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.lms, b.lms);
    }

    #[test]
    fn parallel_chains_bit_identical_to_sequential() {
        // The acceptance gate of the parallel engine: 2- and 8-thread
        // runs must reproduce the sequential run bit for bit — cost,
        // schemes and every statistic, including evaluation counters.
        // GoogLeNet partitions into several groups here, so the chain
        // fan-out (and the worker pool with fewer threads than chains)
        // is genuinely exercised.
        let dnn = zoo::by_name("gn").expect("googlenet in the zoo").graph;
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let partition = partition_graph(&dnn, &arch, 8, &PartitionOptions::default());
        assert!(
            partition.groups.len() >= 4,
            "need a multi-group workload to exercise parallel chains"
        );
        let init: Vec<Lms> = partition
            .groups
            .iter()
            .map(|g| stripe_lms(&dnn, &arch, g))
            .collect();
        let run = |threads: usize| {
            let opts = SaOptions {
                iters: 300,
                seed: 2024,
                threads,
                ..Default::default()
            };
            optimize(&dnn, &ev, &partition, init.clone(), 8, &opts)
        };
        let seq = run(1);
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(
                seq.cost.to_bits(),
                par.cost.to_bits(),
                "{threads}-thread cost differs"
            );
            assert_eq!(seq.lms, par.lms, "{threads}-thread schemes differ");
            assert_eq!(seq.stats, par.stats, "{threads}-thread stats differ");
        }
    }

    #[test]
    fn every_applied_move_is_evaluated_once() {
        // The chain evaluates each applied move exactly once, through
        // the incremental evaluator, and keeps no memo cache. Two-conv
        // partitions into one group here, so there are no consumer
        // proposals: the evaluation count is the applied-move count.
        let (dnn, ev, partition, init) = setup(4);
        assert_eq!(partition.groups.len(), 1, "one group, no consumers");
        let opts = SaOptions {
            iters: 300,
            seed: 11,
            ..Default::default()
        };
        let out = optimize(&dnn, &ev, &partition, init, 4, &opts);
        let s = out.stats;
        assert_eq!(
            s.delta_hits + s.full_evals,
            (s.iters - s.failed_ops) as u64,
            "{s:?}"
        );
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
    }

    #[test]
    fn googlenet_chains_take_the_incremental_path() {
        // Use GoogLeNet so groups have several members and the delta
        // path genuinely skips work: chains must re-simulate only dirty
        // footprints and reuse the other per-layer records.
        let dnn = zoo::by_name("gn").expect("googlenet in the zoo").graph;
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let partition = partition_graph(&dnn, &arch, 8, &PartitionOptions::default());
        let init: Vec<Lms> = partition
            .groups
            .iter()
            .map(|g| stripe_lms(&dnn, &arch, g))
            .collect();
        let opts = SaOptions {
            iters: 150,
            seed: 21,
            ..Default::default()
        };
        let out = optimize(&dnn, &ev, &partition, init, 8, &opts);
        assert!(out.stats.delta_hits > 0, "{:?}", out.stats);
        assert!(out.stats.member_reuses > 0);
    }

    #[test]
    fn chain_budget_apportionment_is_exact() {
        assert_eq!(apportion(10, &[]), Vec::<u32>::new());
        assert_eq!(apportion(10, &[1.0]), vec![10]);
        let b = apportion(10, &[1.0, 1.0, 1.0]);
        assert_eq!(b.iter().sum::<u32>(), 10);
        assert!(b.iter().all(|&x| (3..=4).contains(&x)), "{b:?}");
        // Heavier groups get more of the budget.
        let b = apportion(100, &[3.0, 1.0]);
        assert_eq!(b, vec![75, 25]);
        // Degenerate weights fall back to an equal split.
        let b = apportion(7, &[0.0, 0.0, 0.0]);
        assert_eq!(b.iter().sum::<u32>(), 7);
        let b = apportion(4, &[f64::INFINITY, 1.0]);
        assert_eq!(b.iter().sum::<u32>(), 4);
    }

    #[test]
    fn chain_seeds_are_distinct_streams() {
        let s: Vec<u64> = (0..64).map(|g| chain_seed(0xC0FFEE, g)).collect();
        let uniq: std::collections::HashSet<u64> = s.iter().copied().collect();
        assert_eq!(uniq.len(), s.len(), "chain seeds must not collide");
        // And a different run seed moves every stream.
        for (g, &v) in s.iter().enumerate() {
            assert_ne!(v, chain_seed(0xBEEF, g as u64));
        }
    }

    #[test]
    fn cooling_schedule_guards_and_anchors() {
        let mut opts = SaOptions {
            t0: 0.2,
            t_end: 1e-3,
            ..Default::default()
        };
        // The last iteration runs exactly at t_end; the first at t0.
        assert_eq!(temperature(&opts, 0, 100), 0.2);
        assert!((temperature(&opts, 99, 100) - 1e-3).abs() < 1e-15);
        // Monotone non-increasing in between.
        let mut prev = f64::INFINITY;
        for i in 0..100 {
            let t = temperature(&opts, i, 100);
            assert!(t.is_finite() && t > 0.0);
            assert!(t <= prev);
            prev = t;
        }
        // Degenerate inputs are guarded: no NaN/inf ever reaches the
        // Metropolis criterion.
        for (t0, t_end) in [(0.0, 1e-3), (0.2, 0.0), (0.0, 0.0), (-1.0, -2.0)] {
            opts.t0 = t0;
            opts.t_end = t_end;
            for i in [0, 1, 50, 99] {
                let t = temperature(&opts, i, 100);
                assert!(t.is_finite() && t > 0.0, "t0={t0} t_end={t_end} -> {t}");
            }
        }
        // t_end above t0 is capped at t0.
        opts.t0 = 0.1;
        opts.t_end = 5.0;
        assert_eq!(temperature(&opts, 99, 100), 0.1);
        // One-iteration chains run at the final temperature.
        opts.t_end = 1e-3;
        assert_eq!(temperature(&opts, 0, 1), 1e-3);
    }

    #[test]
    fn degenerate_temperatures_do_not_poison_search() {
        // Before the guard, t0 = 0 made `(t_end/t0)` infinite and every
        // Metropolis draw NaN; the engine must still run and not regress.
        let (dnn, ev, partition, init) = setup(4);
        let opts = SaOptions {
            iters: 80,
            seed: 9,
            t0: 0.0,
            t_end: 0.0,
            ..Default::default()
        };
        let out = optimize(&dnn, &ev, &partition, init, 4, &opts);
        assert!(out.cost.is_finite());
        assert!(out.cost <= out.stats.init_cost * (1.0 + 1e-9));
    }

    #[test]
    fn consumer_groups_wide_fanout() {
        // Regression for the O(n^2) `contains` dedup: one producer
        // feeding 64 single-layer consumer groups, each through several
        // members, must yield each consumer exactly once, sorted.
        use crate::encoding::GroupSpec;
        use gemini_model::{ConvParams, DnnBuilder, FmapShape, LayerKind};
        let mut b = DnnBuilder::new("fanout");
        let x = b.input(FmapShape::new(8, 8, 16));
        let root = b
            .add(
                "root",
                LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), 16)),
                FmapShape::new(8, 8, 16),
                &[x],
            )
            .unwrap();
        let branches: Vec<LayerId> = (0..64)
            .map(|i| {
                b.add(
                    format!("branch{i}"),
                    LayerKind::Conv(ConvParams::dense((1, 1), (1, 1), (0, 0), 16)),
                    FmapShape::new(8, 8, 8),
                    &[root],
                )
                .unwrap()
            })
            .collect();
        let dnn = b.build();
        let mut groups = vec![GroupSpec {
            members: vec![root],
            batch_unit: 1,
        }];
        groups.extend(branches.iter().map(|&id| GroupSpec {
            members: vec![id],
            batch_unit: 1,
        }));
        let partition = GraphPartition { groups };
        let cons = consumer_groups(&dnn, &partition);
        assert_eq!(cons[0], (1..=64).collect::<Vec<usize>>());
        for c in &cons[1..] {
            assert!(c.is_empty(), "branches have no consumers");
        }
    }

    #[test]
    fn from_env_reads_overrides() {
        // Env mutation is process-global; no other test in this crate
        // reads these variables, and externally-set values (e.g. the CI
        // job exporting GEMINI_SA_THREADS) are restored on exit rather
        // than blown away.
        const VARS: [&str; 3] = ["GEMINI_SA_ITERS", "GEMINI_SA_SEED", "GEMINI_SA_THREADS"];
        let prev: Vec<Option<String>> = VARS.iter().map(|v| std::env::var(v).ok()).collect();
        let restore = || {
            for (var, old) in VARS.iter().zip(&prev) {
                match old {
                    Some(v) => std::env::set_var(var, v),
                    None => std::env::remove_var(var),
                }
            }
        };

        std::env::set_var("GEMINI_SA_ITERS", "123");
        std::env::set_var("GEMINI_SA_SEED", "77");
        std::env::set_var("GEMINI_SA_THREADS", "3");
        let parsed = SaOptions::from_env();

        // Unparsable values keep the defaults (and warn on stderr).
        std::env::set_var("GEMINI_SA_ITERS", "not-a-number");
        std::env::remove_var("GEMINI_SA_SEED");
        std::env::remove_var("GEMINI_SA_THREADS");
        let unparsable = SaOptions::from_env();

        // Restore before asserting so a failure cannot leak state.
        restore();
        assert_eq!(parsed.iters, 123);
        assert_eq!(parsed.seed, 77);
        assert_eq!(parsed.threads, 3);
        assert_eq!(parsed.chain_threads(), 3);
        assert_eq!(unparsable.iters, SaOptions::default().iters);
        assert_eq!(unparsable.seed, SaOptions::default().seed);
    }

    #[test]
    fn disabled_ops_are_never_applied() {
        let (dnn, ev, partition, init) = setup(4);
        let mut opts = SaOptions {
            iters: 200,
            seed: 5,
            ..Default::default()
        };
        opts.enabled_ops = [true, false, false, false, false]; // OP1 only
        let out = optimize(&dnn, &ev, &partition, init, 4, &opts);
        assert_eq!(out.stats.op_applied[1], 0);
        assert_eq!(out.stats.op_applied[2], 0);
        assert_eq!(out.stats.op_applied[3], 0);
        assert_eq!(out.stats.op_applied[4], 0);
    }

    fn fig3_like() -> (Dnn, ArchConfig, GroupSpec, Lms) {
        let dnn = zoo::two_conv_example();
        let arch = ArchConfig::builder()
            .cores(3, 2)
            .cuts(1, 1)
            .build()
            .unwrap();
        let spec = GroupSpec {
            members: vec![LayerId(1), LayerId(2)],
            batch_unit: 2,
        };
        let lms = Lms {
            schemes: vec![
                Ms {
                    part: Part {
                        h: 1,
                        w: 1,
                        b: 2,
                        k: 2,
                    },
                    cg: CoreGroup(vec![
                        gemini_arch::CoreId(1),
                        gemini_arch::CoreId(0),
                        gemini_arch::CoreId(4),
                        gemini_arch::CoreId(3),
                    ]),
                    fd: FlowOfData {
                        ifm: 1,
                        wgt: 1,
                        ofm: -1,
                    },
                },
                Ms {
                    part: Part {
                        h: 1,
                        w: 1,
                        b: 2,
                        k: 1,
                    },
                    cg: CoreGroup(vec![gemini_arch::CoreId(2), gemini_arch::CoreId(5)]),
                    fd: FlowOfData {
                        ifm: -1,
                        wgt: 2,
                        ofm: 2,
                    },
                },
            ],
        };
        (dnn, arch, spec, lms)
    }

    #[test]
    fn ops_preserve_invariants_fuzz() {
        // Apply thousands of random operators; the scheme must stay
        // valid after every application (the reachability argument of
        // the paper's anonymous proof link relies on closure).
        let (dnn, arch, spec, mut lms) = fig3_like();
        let mut rng = StdRng::seed_from_u64(123);
        let mut applied = [0u32; 5];
        for i in 0..4000 {
            let op = i % 5;
            let out = apply_op(op, &dnn, &arch, &spec, &mut lms, &mut rng);
            if out.applied {
                applied[op] += 1;
            }
            lms.validate(&dnn, &arch, &spec)
                .unwrap_or_else(|e| panic!("op {} broke scheme at iter {}: {}", op + 1, i, e));
        }
        // Every operator must fire at least sometimes on this scheme.
        for (op, &n) in applied.iter().enumerate() {
            assert!(n > 0, "OP{} never applied", op + 1);
        }
    }

    #[test]
    fn op4_reaches_all_cg_sizes() {
        // Fig. 3's claim: "the size of CG1 can be modified to any number
        // from 1 to 5 through a series of OP4 operations".
        let (dnn, arch, spec, mut lms) = fig3_like();
        let mut rng = StdRng::seed_from_u64(77);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6000 {
            let _ = apply_op(3, &dnn, &arch, &spec, &mut lms, &mut rng);
            seen.insert(lms.schemes[0].cg.len());
            lms.validate(&dnn, &arch, &spec).unwrap();
        }
        for size in 1..=5usize {
            assert!(
                seen.contains(&size),
                "CG1 never reached size {size}; saw {seen:?}"
            );
        }
    }

    #[test]
    fn op5_changes_only_explicit_entries() {
        let (dnn, arch, spec, mut lms) = fig3_like();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let _ = apply_op(4, &dnn, &arch, &spec, &mut lms, &mut rng);
            // Inferred entries must remain -1.
            assert_eq!(lms.schemes[0].fd.ofm, -1);
            assert_eq!(lms.schemes[1].fd.ifm, -1);
            // Explicit entries must stay in range.
            assert!((0..=2).contains(&lms.schemes[0].fd.ifm));
            assert!((0..=2).contains(&lms.schemes[1].fd.ofm));
        }
        let _ = dnn;
        let _ = arch;
    }
}
