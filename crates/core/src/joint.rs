//! Joint graph-partition + spatial-mapping exploration.
//!
//! The paper's future-work section (Sec. V-D) proposes co-exploring the
//! SPM dimension with the graph-level dimension "such as the composite
//! spatial-temporal dimension defined by SET", instead of fixing the
//! layer groups up front with the DP partitioner. This module implements
//! that extension: a single annealer whose move set contains both the
//! five SPM operators (OP1..OP5) and four partition-level operators:
//!
//! * **JP1** — move a boundary layer between adjacent groups;
//! * **JP2** — split a group at a random internal boundary;
//! * **JP3** — merge two adjacent groups;
//! * **JP4** — re-draw a group's batch unit.
//!
//! Partition moves re-initialize the affected groups with the stripe
//! heuristic (their SPM is then re-refined by subsequent SPM moves), and
//! invalidate exactly the groups whose flow requirements changed. Every
//! group evaluation goes through the group's incremental evaluator
//! ([`gemini_sim::GroupEvalState`]), which re-simulates only the members
//! whose assignment differs from the last mapping it evaluated. The
//! annealer shares the SPM engine's helpers: the OF map, group parsing,
//! consumer groups, the cost and the cooling schedule
//! ([`crate::sa::temperature`], including its degenerate-input guards).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use gemini_model::{Dnn, LayerId};
use gemini_sim::{DeltaStats, Evaluator, GroupEvalState, GroupMapping, GroupReport};

use crate::encoding::{GroupSpec, Lms};
use crate::engine::parse_all;
use crate::partition::{GraphPartition, PartitionOptions};
use crate::sa::{
    apply_op_traced, build_of_map, consumer_groups, cost_of, parse_group, temperature, SaOptions,
    SaStats,
};
use crate::stripe::stripe_lms;

/// Options for the joint exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointOptions {
    /// Base SA options (iterations, temperatures, seed, SPM operator
    /// mask, objective exponents).
    pub sa: SaOptions,
    /// Probability that an iteration applies a partition-level operator
    /// instead of an SPM operator.
    pub partition_op_prob: f64,
    /// Structural limits shared with the DP partitioner.
    pub partition: PartitionOptions,
}

impl Default for JointOptions {
    fn default() -> Self {
        Self {
            sa: SaOptions::default(),
            partition_op_prob: 0.15,
            partition: PartitionOptions::default(),
        }
    }
}

/// Outcome of a joint exploration.
#[derive(Debug, Clone)]
pub struct JointOutcome {
    /// The explored partition.
    pub partition: GraphPartition,
    /// Schemes per group.
    pub lms: Vec<Lms>,
    /// Reports per group.
    pub reports: Vec<GroupReport>,
    /// Final cost `E^beta * D^gamma`.
    pub cost: f64,
    /// Statistics (SPM move stats; partition moves counted in
    /// `partition_applied`).
    pub stats: SaStats,
    /// Applied partition-level moves (JP1..JP4).
    pub partition_applied: [u32; 4],
}

#[derive(Clone)]
struct State {
    partition: GraphPartition,
    lms: Vec<Lms>,
    reports: Vec<GroupReport>,
}

/// Per-group incremental-evaluator states for the joint annealer.
///
/// A state follows the mappings its slot is asked about, not the
/// *accepted* exploration state (rejected trials advance it too), which
/// is safe because [`GroupEvalState::diff_dirty`] derives the exact
/// dirty footprint against whatever mapping the state last saw — a
/// state that differs from the accepted one just re-simulates a few
/// more members. Partition moves that restructure groups leave
/// structurally mismatched states behind; those fall back to a full
/// rebuild on their next use.
struct DeltaPool {
    states: Vec<Option<GroupEvalState>>,
    /// Cold builds of never-seen slots (`GroupEvalState::new` keeps its
    /// own counters at zero, so the pool accounts them here — otherwise
    /// `full_evals`/`member_sims` would undercount one whole-group
    /// simulation per slot and overstate the reuse rate).
    cold: DeltaStats,
}

impl DeltaPool {
    fn new(n: usize) -> Self {
        Self {
            states: (0..n).map(|_| None).collect(),
            cold: DeltaStats::default(),
        }
    }

    /// Evaluates group `g`'s mapping: incrementally from the slot's
    /// state (diff-derived footprint), or by a cold build for a
    /// never-seen slot.
    fn evaluate(
        &mut self,
        ev: &Evaluator,
        dnn: &Dnn,
        g: usize,
        gm: GroupMapping,
        batch: u32,
    ) -> GroupReport {
        if g >= self.states.len() {
            self.states.resize_with(g + 1, || None);
        }
        let slot = &mut self.states[g];
        match slot {
            Some(st) => {
                let dirty = st.diff_dirty(&gm);
                st.advance(ev, dnn, &gm, dirty.as_deref()).clone()
            }
            None => {
                self.cold.full_evals += 1;
                self.cold.member_sims += gm.members.len() as u64;
                let st = GroupEvalState::new(ev, dnn, gm, batch);
                let r = st.report().clone();
                *slot = Some(st);
                r
            }
        }
    }

    fn stats(&self) -> DeltaStats {
        let mut s = self.cold;
        for st in self.states.iter().flatten() {
            s.add(&st.stats());
        }
        s
    }
}

impl State {
    fn cost(&self, opts: &SaOptions) -> f64 {
        let e: f64 = self.reports.iter().map(|r| r.energy.total()).sum();
        let d: f64 = self.reports.iter().map(|r| r.delay_s).sum();
        cost_of(e, d, opts)
    }
}

/// Runs the joint partition + SPM annealer.
///
/// `init` is the starting partition (typically from
/// [`crate::partition::partition_graph`]); its schemes are initialized
/// with the stripe heuristic.
pub fn optimize_joint(
    dnn: &Dnn,
    ev: &Evaluator,
    init: GraphPartition,
    batch: u32,
    opts: &JointOptions,
) -> JointOutcome {
    let arch = ev.arch().clone();
    let mut rng = StdRng::seed_from_u64(opts.sa.seed);

    let lms: Vec<Lms> = init
        .groups
        .iter()
        .map(|g| stripe_lms(dnn, &arch, g))
        .collect();
    let mut pool = DeltaPool::new(init.groups.len());
    let reports = parse_all(dnn, &init, &lms)
        .into_iter()
        .enumerate()
        .map(|(g, gm)| pool.evaluate(ev, dnn, g, gm, batch))
        .collect();
    let mut st = State {
        partition: init,
        lms,
        reports,
    };
    let mut cost = st.cost(&opts.sa);

    let mut stats = SaStats {
        init_cost: cost,
        ..Default::default()
    };
    let mut partition_applied = [0u32; 4];

    let mut best = (st.clone(), cost);

    let max_len = opts
        .partition
        .max_group_layers
        .min(arch.n_cores() as usize)
        .max(1);
    let units: Vec<u32> = opts
        .partition
        .batch_units
        .iter()
        .map(|&u| u.min(batch).max(1))
        .collect();

    let enabled: Vec<usize> = (0..5).filter(|&i| opts.sa.enabled_ops[i]).collect();

    for iter in 0..opts.sa.iters {
        stats.iters = iter + 1;
        let t = temperature(&opts.sa, iter, opts.sa.iters);

        let use_partition_op = rng.gen::<f64>() < opts.partition_op_prob || enabled.is_empty();
        let (trial, op_kind) = if use_partition_op {
            let Some((s, k)) =
                partition_move(dnn, ev, &mut pool, &st, batch, max_len, &units, &mut rng)
            else {
                stats.failed_ops += 1;
                continue;
            };
            (s, PartitionOrSpm::Partition(k))
        } else {
            let Some((s, op)) = spm_move(dnn, ev, &mut pool, &st, batch, &enabled, &mut rng) else {
                stats.failed_ops += 1;
                continue;
            };
            (s, PartitionOrSpm::Spm(op))
        };

        let new_cost = trial.cost(&opts.sa);
        let delta = (new_cost - cost) / cost.max(f64::MIN_POSITIVE);
        if delta <= 0.0 || rng.gen::<f64>() < (-delta / t).exp() {
            if new_cost < cost {
                stats.improved += 1;
            }
            stats.accepted += 1;
            match op_kind {
                PartitionOrSpm::Spm(op) => stats.op_applied[op] += 1,
                PartitionOrSpm::Partition(k) => partition_applied[k] += 1,
            }
            st = trial;
            cost = new_cost;
            if cost < best.1 {
                best = (st.clone(), cost);
            }
        }
    }

    let (best, cost) = best;
    stats.final_cost = cost;
    stats.add_delta(&pool.stats());
    JointOutcome {
        partition: best.partition,
        lms: best.lms,
        reports: best.reports,
        cost,
        stats,
        partition_applied,
    }
}

enum PartitionOrSpm {
    Spm(usize),
    Partition(usize),
}

/// Applies one SPM operator to a random group of a cloned state.
fn spm_move(
    dnn: &Dnn,
    ev: &Evaluator,
    pool: &mut DeltaPool,
    st: &State,
    batch: u32,
    enabled: &[usize],
    rng: &mut StdRng,
) -> Option<(State, usize)> {
    if st.partition.groups.is_empty() {
        return None;
    }
    let g = rng.gen_range(0..st.partition.groups.len());
    let op = enabled[rng.gen_range(0..enabled.len())];
    let spec = &st.partition.groups[g];
    let mut lms = st.lms[g].clone();
    let trace = apply_op_traced(op, dnn, ev.arch(), spec, &mut lms, rng)?;
    let mut trial = st.clone();
    trial.lms[g] = lms;

    // The operator's declared dirty-layer footprint must cover the
    // actual change to the group's parsed mapping — the incremental
    // evaluator's invalidation (a diff against its last-seen mapping)
    // relies on member-level locality, so verify the declaration here
    // where the pre- and post-move schemes are both at hand.
    #[cfg(debug_assertions)]
    {
        let of_map = build_of_map(dnn, &trial.partition, &trial.lms);
        let no_overlay = BTreeMap::new();
        let before = parse_group(dnn, spec, &st.lms[g], &of_map, &no_overlay);
        let after = parse_group(dnn, spec, &trial.lms[g], &of_map, &no_overlay);
        for (i, (a, b)) in before.members.iter().zip(&after.members).enumerate() {
            debug_assert!(
                a == b || trace.dirty.contains(&i),
                "OP{} changed member {i} outside its declared footprint {:?}",
                op + 1,
                trace.dirty
            );
        }
    }
    let _ = &trace;

    // SPM moves may change this group's FD (OP5), which redirects its
    // consumers; conservatively re-evaluate the group and its consumers
    // (a non-OF move leaves the consumers' mappings unchanged, so their
    // incremental evaluators find no dirty member to re-simulate).
    let mut affected = vec![g];
    affected.extend_from_slice(&consumer_groups(dnn, &trial.partition)[g]);
    reevaluate(dnn, ev, pool, &mut trial, batch, &affected);
    Some((trial, op))
}

/// Applies one partition-level operator (JP1..JP4) to a cloned state.
#[allow(clippy::too_many_arguments)] // the evaluation context plus the move limits
fn partition_move(
    dnn: &Dnn,
    ev: &Evaluator,
    pool: &mut DeltaPool,
    st: &State,
    batch: u32,
    max_len: usize,
    units: &[u32],
    rng: &mut StdRng,
) -> Option<(State, usize)> {
    let n = st.partition.groups.len();
    if n == 0 {
        return None;
    }
    let kind = rng.gen_range(0..4usize);
    let mut part = st.partition.clone();
    match kind {
        // JP1: move a boundary layer between adjacent groups.
        0 => {
            if n < 2 {
                return None;
            }
            let g = rng.gen_range(0..n - 1);
            if rng.gen::<bool>() {
                // Last layer of g moves to the front of g+1.
                if part.groups[g].members.len() < 2 || part.groups[g + 1].members.len() >= max_len {
                    return None;
                }
                let l = part.groups[g].members.pop().expect("non-empty");
                part.groups[g + 1].members.insert(0, l);
            } else {
                // First layer of g+1 moves to the back of g.
                if part.groups[g + 1].members.len() < 2 || part.groups[g].members.len() >= max_len {
                    return None;
                }
                let l = part.groups[g + 1].members.remove(0);
                part.groups[g].members.push(l);
            }
        }
        // JP2: split a group.
        1 => {
            let g = rng.gen_range(0..n);
            let len = part.groups[g].members.len();
            if len < 2 {
                return None;
            }
            let cut = rng.gen_range(1..len);
            let tail = part.groups[g].members.split_off(cut);
            let bu = part.groups[g].batch_unit;
            part.groups.insert(
                g + 1,
                GroupSpec {
                    members: tail,
                    batch_unit: bu,
                },
            );
        }
        // JP3: merge two adjacent groups.
        2 => {
            if n < 2 {
                return None;
            }
            let g = rng.gen_range(0..n - 1);
            if part.groups[g].members.len() + part.groups[g + 1].members.len() > max_len {
                return None;
            }
            let tail = part.groups.remove(g + 1);
            part.groups[g].members.extend(tail.members);
        }
        // JP4: re-draw a batch unit.
        _ => {
            let g = rng.gen_range(0..n);
            let cur = part.groups[g].batch_unit;
            let choices: Vec<u32> = units.iter().copied().filter(|&u| u != cur).collect();
            if choices.is_empty() {
                return None;
            }
            part.groups[g].batch_unit = choices[rng.gen_range(0..choices.len())];
        }
    }

    // Re-stripe every group whose membership or flow requirements
    // changed: the changed groups plus any group holding a pred/succ of
    // a changed layer (their OF explicitness may flip). First rebuild
    // the scheme and report vectors to the new group count, mapping old
    // groups to new by membership signature where unchanged.
    let mut lms = Vec::with_capacity(part.groups.len());
    let mut reports = Vec::with_capacity(part.groups.len());
    let mut old_idx: BTreeMap<LayerId, usize> = BTreeMap::new();
    for (i, g) in st.partition.groups.iter().enumerate() {
        old_idx.insert(g.members[0], i);
    }
    for g in &part.groups {
        match old_idx.get(&g.members[0]) {
            Some(&i)
                if st.partition.groups[i].members == g.members
                    && st.partition.groups[i].batch_unit == g.batch_unit =>
            {
                lms.push(st.lms[i].clone());
                reports.push(st.reports[i].clone());
            }
            _ => {
                lms.push(stripe_lms(dnn, ev.arch(), g));
                // Placeholder; re-evaluated below.
                reports.push(st.reports[0].clone());
            }
        }
    }
    let mut trial = State {
        partition: part,
        lms,
        reports,
    };

    // Determine all groups to (re-)evaluate: any group whose scheme we
    // re-striped, plus neighbours touching the changed layers.
    let mut affected: Vec<usize> = Vec::new();
    for (gi, g) in trial.partition.groups.iter().enumerate() {
        let unchanged = old_idx
            .get(&g.members[0])
            .map(|&i| {
                st.partition.groups[i].members == g.members
                    && st.partition.groups[i].batch_unit == g.batch_unit
            })
            .unwrap_or(false);
        if !unchanged {
            affected.push(gi);
        }
    }
    // Re-stripe groups whose flow needs changed because a neighbour's
    // membership changed (their schemes may now have wrong FD
    // explicitness), then evaluate everything affected + consumers.
    let mut to_fix: Vec<usize> = Vec::new();
    for (gi, g) in trial.partition.groups.iter().enumerate() {
        if affected.contains(&gi) {
            continue;
        }
        let lms_g = &trial.lms[gi];
        let ok = lms_g.validate(dnn, ev.arch(), g).is_ok();
        if !ok {
            to_fix.push(gi);
        }
    }
    for gi in to_fix {
        trial.lms[gi] = stripe_lms(dnn, ev.arch(), &trial.partition.groups[gi]);
        affected.push(gi);
    }
    let consumers = consumer_groups(dnn, &trial.partition);
    let mut eval_set = affected.clone();
    for &a in &affected {
        eval_set.extend_from_slice(&consumers[a]);
    }
    eval_set.sort_unstable();
    eval_set.dedup();
    reevaluate(dnn, ev, pool, &mut trial, batch, &eval_set);
    Some((trial, kind))
}

/// Re-evaluates `groups` of `st` under the OF map of its schemes.
fn reevaluate(
    dnn: &Dnn,
    ev: &Evaluator,
    pool: &mut DeltaPool,
    st: &mut State,
    batch: u32,
    groups: &[usize],
) {
    let of_map = build_of_map(dnn, &st.partition, &st.lms);
    let no_overlay = BTreeMap::new();
    for &g in groups {
        let gm = parse_group(
            dnn,
            &st.partition.groups[g],
            &st.lms[g],
            &of_map,
            &no_overlay,
        );
        st.reports[g] = pool.evaluate(ev, dnn, g, gm, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_graph;
    use gemini_arch::presets;
    use gemini_model::zoo;

    fn setup() -> (Dnn, Evaluator, GraphPartition) {
        let dnn = zoo::tiny_resnet();
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let partition = partition_graph(&dnn, &arch, 8, &PartitionOptions::default());
        (dnn, ev, partition)
    }

    #[test]
    fn joint_never_regresses_best() {
        let (dnn, ev, init) = setup();
        let opts = JointOptions {
            sa: SaOptions {
                iters: 200,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = optimize_joint(&dnn, &ev, init, 8, &opts);
        assert!(out.cost <= out.stats.init_cost * (1.0 + 1e-9));
        assert_eq!(out.lms.len(), out.partition.groups.len());
        assert_eq!(out.reports.len(), out.partition.groups.len());
    }

    #[test]
    fn joint_outcome_is_valid() {
        let (dnn, ev, init) = setup();
        let opts = JointOptions {
            sa: SaOptions {
                iters: 300,
                seed: 11,
                ..Default::default()
            },
            partition_op_prob: 0.4,
            ..Default::default()
        };
        let out = optimize_joint(&dnn, &ev, init, 8, &opts);
        // Partition still tiles the computable layers contiguously.
        let layers: Vec<LayerId> = dnn.compute_ids().collect();
        let mut idx = 0;
        for g in &out.partition.groups {
            assert!(!g.members.is_empty());
            for &m in &g.members {
                assert_eq!(m, layers[idx], "partition must stay a contiguous tiling");
                idx += 1;
            }
        }
        assert_eq!(idx, layers.len());
        // All schemes validate against their groups.
        for (lms, spec) in out.lms.iter().zip(&out.partition.groups) {
            lms.validate(&dnn, ev.arch(), spec).unwrap();
        }
    }

    #[test]
    fn partition_moves_fire() {
        let (dnn, ev, init) = setup();
        let opts = JointOptions {
            sa: SaOptions {
                iters: 400,
                seed: 2,
                t0: 0.5,
                ..Default::default()
            },
            partition_op_prob: 0.8,
            ..Default::default()
        };
        let out = optimize_joint(&dnn, &ev, init, 8, &opts);
        let total: u32 = out.partition_applied.iter().sum();
        assert!(
            total > 0,
            "partition-level moves should be applied: {:?}",
            out.partition_applied
        );
    }

    #[test]
    fn joint_matches_or_beats_staged_on_small_net() {
        let (dnn, ev, init) = setup();
        let staged = crate::sa::optimize(
            &dnn,
            &ev,
            &init,
            init.groups
                .iter()
                .map(|g| stripe_lms(&dnn, ev.arch(), g))
                .collect(),
            8,
            &SaOptions {
                iters: 250,
                seed: 7,
                ..Default::default()
            },
        );
        let joint = optimize_joint(
            &dnn,
            &ev,
            init,
            8,
            &JointOptions {
                sa: SaOptions {
                    iters: 250,
                    seed: 7,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        // Joint explores a superset of the space; allow some slack
        // because its budget is split across dimensions and the staged
        // engine anneals every group in a dedicated chain with an
        // anchored cooling schedule (which made it a stronger baseline).
        assert!(
            joint.cost <= staged.cost * 1.25,
            "joint {} should stay competitive with staged {}",
            joint.cost,
            staged.cost
        );
    }
}
