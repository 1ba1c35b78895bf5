//! Flow-level network simulation (max-min fair sharing).
//!
//! The evaluator's analytic stage time treats each link independently
//! (`max(bytes/bw)` plus a congestion surcharge). This module provides
//! the reference point it is checked against: a progressive-filling
//! simulation where concurrent flows share every link max-min fairly
//! and the network drains event by event. `simulate_flows` returns the
//! exact completion time under that model — always at least the
//! analytic bottleneck bound, and equal to it when flows do not
//! contend.
//!
//! The solver is incremental. Between events it keeps its progressive
//! filling, and when flows finish it re-runs only the rounds from the
//! first one that froze a finished flow, instead of refilling every
//! link from scratch. The result is bit-identical to the refill; see
//! [`FlowSimWorkspace`] for the algorithm, why it is exact and what an
//! event costs.
//!
//! # Example
//!
//! ```
//! use gemini_arch::presets;
//! use gemini_noc::{flowsim::{simulate_flows, Flow}, Network};
//!
//! let arch = presets::g_arch_72();
//! let net = Network::new(&arch);
//! let mut path = Vec::new();
//! net.route_cores(arch.core_at(0, 0), arch.core_at(2, 0), &mut path);
//! let flows = vec![Flow { path: path.clone(), bytes: 32e9 }];
//! let r = simulate_flows(&net, &flows);
//! // One flow, 32 GB over on-chip 32 GB/s links: exactly one second.
//! assert!((r.completion_s - 1.0).abs() < 1e-9);
//! ```

use serde::{Deserialize, Serialize};

use crate::network::{LinkId, Network};

/// One flow: a fixed path and a byte count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Links traversed (in order; order does not affect fluid timing).
    pub path: Vec<LinkId>,
    /// Bytes to transfer.
    pub bytes: f64,
}

/// Result of a flow simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSimResult {
    /// Time until the last flow completes (seconds).
    pub completion_s: f64,
    /// Per-flow completion times, parallel to the input.
    pub flow_times_s: Vec<f64>,
    /// Number of rate-reallocation events simulated.
    pub events: usize,
}

/// Reusable state of the incremental max-min solver.
///
/// # Algorithm
///
/// The network drains event by event: at each event (a flow finishing)
/// the active flows get their max-min fair rates by progressive
/// filling, and time advances to the next completion. One filling is a
/// sequence of rounds. Each round picks the live link with the smallest
/// fair share `cap / n` (capacity left over `n` unfrozen flows on it;
/// the lowest link id on a tie), freezes every unfrozen flow on it at
/// that share in ascending flow order, and subtracts the share from
/// every link on each frozen flow's path, clamping at zero.
///
/// The workspace keeps that filling between events instead of
/// repeating it. Per call it gives the links the flows touch compact
/// ids in ascending [`LinkId`] order, computes their capacities once,
/// and indexes flows to links and links to flows in two CSR arrays.
/// Across events it keeps each link's capacity and unfrozen-flow count,
/// each flow's rate and the round that froze it, and per round where
/// that round starts in the list of frozen flows and in an undo log of
/// `(link, capacity before the subtraction)`. When flows finish, let
/// `r*` be the earliest round that froze one of them. The solver
/// restores the logged capacities back to the start of round `r*`,
/// unfreezes the flows frozen from `r*` on, drops the finished flows'
/// counts, and resumes filling at round `r*`. An event where only
/// empty-path flows finished runs no round at all.
///
/// # Why the result is bit-identical to a fresh filling
///
/// A flow is frozen in the first round that picks a link on its path,
/// so no link picked before `r*` carries a finished flow. By induction
/// every round before `r*` sees the same capacities with or without the
/// finished flows, and its picked link carries the same count. Any
/// other link has the same capacity and an equal or smaller count, so
/// an equal or larger share (capacities are finite and non-negative):
/// the first-index minimum, and so the pick, its share and the flows it
/// freezes, do not move. From `r*` on the solver runs the same
/// arithmetic, in the same order, as a filling from scratch. Capacities
/// are restored from the log, never by adding shares back: a clamped
/// subtraction cannot be inverted. If some link's capacity is NaN or
/// infinite (a NaN or overflowing bandwidth) the shares are no longer
/// ordered, and every changed event refills from round 0.
///
/// # Cost
///
/// Setup is linear in the number of network links plus the summed path
/// length. An event costs the rounds from `r*` on, each scanning the
/// links still live and updating the paths of the flows it freezes,
/// plus the undo entries and the unfrozen paths of the rollback; the
/// rounds before `r*` cost nothing. Every buffer lives in the
/// workspace and grows with the network's link count or the summed path
/// length, so a workspace reused across flow sets stops allocating once
/// it has seen the largest.
///
/// The DSE re-rank stage and fluid campaigns replay every group of
/// every candidate back to back, so callers with many consecutive
/// simulations keep one workspace alive and call
/// [`FlowSimWorkspace::simulate`] instead of the allocating
/// [`simulate_flows`] wrapper. Results are bit-identical between the
/// two entry points.
#[derive(Debug, Default)]
pub struct FlowSimWorkspace {
    /// Compact id of each network link a flow touches, `NO_LINK`
    /// elsewhere.
    local: Vec<u32>,
    /// Flow to links (compact ids, path order): flow `f` crosses
    /// `path[path_start[f]..path_start[f + 1]]`.
    path_start: Vec<u32>,
    path: Vec<u32>,
    /// Link to flows (ascending, once per path entry): link `l` carries
    /// `on[on_start[l]..on_start[l + 1]]`.
    on_start: Vec<u32>,
    on: Vec<u32>,
    /// Per link: capacity left (bytes/s) and unfrozen active flows.
    cap: Vec<f64>,
    unfrozen: Vec<u32>,
    /// Links whose count may be nonzero, ascending.
    live: Vec<u32>,
    /// Per flow: frozen (or retired), its rate and the round that froze
    /// it.
    fixed: Vec<bool>,
    rate: Vec<f64>,
    frozen_in: Vec<u32>,
    /// Flows in the order they were frozen.
    frozen: Vec<u32>,
    /// `(link, capacity before a subtraction)`, in subtraction order.
    undo: Vec<(u32, f64)>,
    /// Per round: `frozen.len()` and `undo.len()` when it started.
    rounds: Vec<(u32, u32)>,
    /// Whether every capacity is finite and non-negative, so a rollback
    /// may resume past round 0.
    ordered: bool,
    remaining: Vec<f64>,
    done: Vec<f64>,
    /// Flows with bytes left, ascending.
    active: Vec<u32>,
}

const NO_LINK: u32 = u32::MAX;

impl FlowSimWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates the concurrent transfer of `flows`, max-min fair.
    ///
    /// Returns exact per-flow completion times under fluid sharing.
    /// Flows with empty paths complete at t = 0.
    pub fn simulate(&mut self, net: &Network, flows: &[Flow]) -> FlowSimResult {
        self.load(net, flows);
        let mut t = 0.0f64;
        let mut events = 0usize;
        while !self.active.is_empty() {
            events += 1;
            self.fill();
            // Advance to the next flow completion.
            let mut dt = f64::INFINITY;
            for &f in &self.active {
                let f = f as usize;
                if self.rate[f] > 0.0 {
                    dt = dt.min(self.remaining[f] / self.rate[f]);
                }
            }
            if !dt.is_finite() {
                // All active rates are zero: a saturated/degenerate
                // network; bail out rather than loop forever.
                break;
            }
            t += dt;
            for &f in &self.active {
                let f = f as usize;
                self.remaining[f] -= self.rate[f] * dt;
                if self.remaining[f] <= 1e-6 {
                    self.remaining[f] = 0.0;
                    self.done[f] = t;
                }
            }
            // Safety valve: events are bounded by flow count in exact
            // arithmetic; guard against pathological float cycling.
            if events > flows.len() * 4 + 16 {
                break;
            }
            self.retire();
        }
        FlowSimResult {
            completion_s: t,
            flow_times_s: self.done.clone(),
            events,
        }
    }

    /// Resets the workspace for `flows`: byte counts, the compact link
    /// space with its capacities, both CSR indexes and an empty
    /// filling.
    fn load(&mut self, net: &Network, flows: &[Flow]) {
        self.remaining.clear();
        self.remaining
            .extend(flows.iter().map(|f| f.bytes.max(0.0)));
        self.done.clear();
        self.done.resize(flows.len(), 0.0);
        self.active.clear();
        self.active
            .extend((0..flows.len() as u32).filter(|&f| self.remaining[f as usize] > 0.0));

        // Compact ids for the links the active flows cross, in
        // ascending `LinkId` order so a scan keeps the first-index
        // tie-break.
        self.local.clear();
        self.local.resize(net.n_links(), NO_LINK);
        for &f in &self.active {
            for l in &flows[f as usize].path {
                self.local[l.idx()] = 0;
            }
        }
        self.cap.clear();
        for (i, local) in self.local.iter_mut().enumerate() {
            if *local != NO_LINK {
                *local = self.cap.len() as u32;
                self.cap.push(net.link(LinkId(i as u32)).bw * 1e9);
            }
        }
        let n_links = self.cap.len();
        self.ordered = self.cap.iter().all(|c| c.is_finite() && *c >= 0.0);

        // Flow to links; the per-link entry counts are the initial
        // unfrozen counts.
        self.unfrozen.clear();
        self.unfrozen.resize(n_links, 0);
        self.path.clear();
        self.path_start.clear();
        self.path_start.push(0);
        for (f, flow) in flows.iter().enumerate() {
            if self.remaining[f] > 0.0 {
                for l in &flow.path {
                    let l = self.local[l.idx()];
                    self.path.push(l);
                    self.unfrozen[l as usize] += 1;
                }
            }
            self.path_start.push(self.path.len() as u32);
        }

        // Link to flows: `on_start[l]` starts at the end of link `l`'s
        // range and is decremented once per entry, filled in descending
        // flow order, so each range ends up ascending.
        self.on_start.clear();
        let mut end = 0;
        for &n in &self.unfrozen {
            end += n;
            self.on_start.push(end);
        }
        self.on_start.push(end);
        self.on.clear();
        self.on.resize(end as usize, 0);
        for &f in self.active.iter().rev() {
            let (a, b) = self.path_range(f);
            for &l in self.path[a..b].iter().rev() {
                self.on_start[l as usize] -= 1;
                self.on[self.on_start[l as usize] as usize] = f;
            }
        }

        // Flows with no bytes to send count as retired from the start.
        self.fixed.clear();
        self.fixed.resize(flows.len(), true);
        for &f in &self.active {
            self.fixed[f as usize] = false;
        }
        self.rate.clear();
        self.rate.resize(flows.len(), f64::INFINITY);
        self.frozen_in.clear();
        self.frozen_in.resize(flows.len(), 0);
        self.frozen.clear();
        self.undo.clear();
        self.rounds.clear();
        self.live.clear();
        self.live.extend(0..n_links as u32);
    }

    fn path_range(&self, f: u32) -> (usize, usize) {
        (
            self.path_start[f as usize] as usize,
            self.path_start[f as usize + 1] as usize,
        )
    }

    /// Runs water-filling rounds until no live link is left.
    fn fill(&mut self) {
        let Self {
            path_start,
            path,
            on_start,
            on,
            cap,
            unfrozen,
            live,
            fixed,
            rate,
            frozen_in,
            frozen,
            undo,
            rounds,
            ..
        } = self;
        loop {
            // Most constrained link: min cap / unfrozen flows. A link
            // whose count reached 0 stays out of the scan.
            let mut best: Option<(f64, u32)> = None;
            live.retain(|&l| {
                let n = unfrozen[l as usize];
                if n == 0 {
                    return false;
                }
                let share = cap[l as usize] / n as f64;
                if best.map_or(true, |(s, _)| share < s) {
                    best = Some((share, l));
                }
                true
            });
            let Some((share, l)) = best else { break };
            let round = rounds.len() as u32;
            rounds.push((frozen.len() as u32, undo.len() as u32));
            // Freeze every unfixed flow on that link at the fair share.
            let l = l as usize;
            for &f in &on[on_start[l] as usize..on_start[l + 1] as usize] {
                let fi = f as usize;
                if fixed[fi] {
                    continue;
                }
                fixed[fi] = true;
                rate[fi] = share;
                frozen_in[fi] = round;
                frozen.push(f);
                // Release its capacity claims elsewhere.
                for &k in &path[path_start[fi] as usize..path_start[fi + 1] as usize] {
                    let ki = k as usize;
                    undo.push((k, cap[ki]));
                    cap[ki] -= share;
                    if cap[ki] < 0.0 {
                        cap[ki] = 0.0;
                    }
                    unfrozen[ki] -= 1;
                }
            }
        }
    }

    /// Drops the flows that just finished from the active set and rolls
    /// the filling back to the earliest round that froze one of them.
    fn retire(&mut self) {
        let mut first = u32::MAX;
        let Self {
            active,
            remaining,
            path_start,
            frozen_in,
            ..
        } = self;
        active.retain(|&f| {
            let f = f as usize;
            if remaining[f] > 0.0 {
                return true;
            }
            if path_start[f] < path_start[f + 1] {
                first = first.min(frozen_in[f]);
            }
            false
        });
        if first == u32::MAX {
            return;
        }
        let round = if self.ordered { first as usize } else { 0 };
        let (frozen_at, undo_at) = self.rounds[round];
        for &(l, c) in self.undo[undo_at as usize..].iter().rev() {
            self.cap[l as usize] = c;
        }
        self.undo.truncate(undo_at as usize);
        // Flows frozen from that round on are unfrozen; the finished
        // ones stay retired and give their counts up.
        for &f in &self.frozen[frozen_at as usize..] {
            if self.remaining[f as usize] > 0.0 {
                self.fixed[f as usize] = false;
                let (a, b) = self.path_range(f);
                for &l in &self.path[a..b] {
                    self.unfrozen[l as usize] += 1;
                }
            }
        }
        self.frozen.truncate(frozen_at as usize);
        self.rounds.truncate(round);
        self.live.clear();
        self.live
            .extend((0..self.cap.len() as u32).filter(|&l| self.unfrozen[l as usize] > 0));
    }
}

/// Simulates the concurrent transfer of `flows`, max-min fair.
///
/// One-shot wrapper over [`FlowSimWorkspace::simulate`]; callers that
/// replay many flow sets back to back (e.g. the DSE re-rank stage)
/// should hold a workspace instead to reuse the scratch allocations.
pub fn simulate_flows(net: &Network, flows: &[Flow]) -> FlowSimResult {
    FlowSimWorkspace::new().simulate(net, flows)
}

/// The analytic per-link bound the evaluator uses: bytes on the busiest
/// link divided by its bandwidth (a lower bound on any schedule).
pub fn analytic_bottleneck(net: &Network, flows: &[Flow]) -> f64 {
    let mut traffic = crate::traffic::TrafficMap::new(net);
    for f in flows {
        traffic.add_path(&f.path, f.bytes);
    }
    traffic.bottleneck_time(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;

    fn setup() -> (gemini_arch::ArchConfig, Network) {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        (arch, net)
    }

    fn flow(
        net: &Network,
        arch: &gemini_arch::ArchConfig,
        a: (u32, u32),
        b: (u32, u32),
        bytes: f64,
    ) -> Flow {
        let mut path = Vec::new();
        net.route_cores(arch.core_at(a.0, a.1), arch.core_at(b.0, b.1), &mut path);
        Flow { path, bytes }
    }

    #[test]
    fn single_flow_exact() {
        let (arch, net) = setup();
        let f = flow(&net, &arch, (0, 0), (2, 0), 32e9);
        let r = simulate_flows(&net, std::slice::from_ref(&f));
        assert!((r.completion_s - 1.0).abs() < 1e-9, "{}", r.completion_s);
        assert!((analytic_bottleneck(&net, &[f]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let (arch, net) = setup();
        // Both flows cross link (0,0)->(1,0): each gets half the 32 GB/s.
        let f1 = flow(&net, &arch, (0, 0), (1, 0), 16e9);
        let f2 = flow(&net, &arch, (0, 0), (2, 0), 16e9);
        let r = simulate_flows(&net, &[f1.clone(), f2.clone()]);
        // Fair share 16 GB/s each on the shared link: both finish at 1s.
        assert!((r.completion_s - 1.0).abs() < 1e-6, "{}", r.completion_s);
        // The analytic bound sees 32 GB on the shared link: also 1s.
        assert!((analytic_bottleneck(&net, &[f1, f2]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_flows_run_in_parallel() {
        let (arch, net) = setup();
        let f1 = flow(&net, &arch, (0, 0), (1, 0), 32e9);
        let f2 = flow(&net, &arch, (0, 5), (1, 5), 32e9);
        let r = simulate_flows(&net, &[f1, f2]);
        assert!(
            (r.completion_s - 1.0).abs() < 1e-6,
            "parallel rows must not serialize"
        );
    }

    #[test]
    fn simulation_never_beats_analytic_bound() {
        let (arch, net) = setup();
        // A messy all-to-some pattern.
        let mut flows = Vec::new();
        for x in 0..6u32 {
            for y in 0..3u32 {
                flows.push(flow(
                    &net,
                    &arch,
                    (x, y),
                    (5 - x, 5 - y),
                    1e8 * (x + y + 1) as f64,
                ));
            }
        }
        let r = simulate_flows(&net, &flows);
        let bound = analytic_bottleneck(&net, &flows);
        assert!(
            r.completion_s >= bound * (1.0 - 1e-9),
            "fluid completion {} cannot beat per-link bound {}",
            r.completion_s,
            bound
        );
        // And stays within a small constant of it for this pattern.
        assert!(
            r.completion_s <= bound * 4.0,
            "{} vs {}",
            r.completion_s,
            bound
        );
    }

    #[test]
    fn d2d_flows_are_slower() {
        let (arch, net) = setup();
        // Crossing the chiplet cut (16 GB/s) vs staying inside (32 GB/s).
        let cross = flow(&net, &arch, (2, 0), (3, 0), 16e9);
        let local = flow(&net, &arch, (0, 0), (1, 0), 16e9);
        let rc = simulate_flows(&net, &[cross]);
        let rl = simulate_flows(&net, &[local]);
        assert!((rc.completion_s / rl.completion_s - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_paths_complete_instantly() {
        let (_, net) = setup();
        let r = simulate_flows(
            &net,
            &[Flow {
                path: vec![],
                bytes: 1e12,
            }],
        );
        assert_eq!(r.completion_s, 0.0);
        assert_eq!(r.flow_times_s, vec![0.0]);
    }

    #[test]
    fn zero_byte_flows_are_noops() {
        let (arch, net) = setup();
        let f = flow(&net, &arch, (0, 0), (5, 5), 0.0);
        let r = simulate_flows(&net, &[f]);
        assert_eq!(r.completion_s, 0.0);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // The batch entry point must match the one-shot wrapper exactly,
        // including across back-to-back replays of different flow sets.
        let (arch, net) = setup();
        let sets = vec![
            vec![
                flow(&net, &arch, (0, 0), (1, 0), 16e9),
                flow(&net, &arch, (0, 0), (2, 0), 16e9),
            ],
            vec![flow(&net, &arch, (0, 0), (5, 5), 3e9)],
            Vec::new(),
            vec![
                flow(&net, &arch, (5, 0), (0, 5), 1e9),
                flow(&net, &arch, (2, 2), (3, 3), 2e9),
                flow(&net, &arch, (1, 4), (4, 1), 4e9),
            ],
        ];
        let mut ws = FlowSimWorkspace::new();
        for flows in &sets {
            let one_shot = simulate_flows(&net, flows);
            let reused = ws.simulate(&net, flows);
            assert_eq!(one_shot, reused);
        }
    }

    #[test]
    fn flow_times_are_monotone_in_bytes() {
        let (arch, net) = setup();
        let small = flow(&net, &arch, (0, 0), (3, 3), 1e9);
        let big = flow(&net, &arch, (0, 0), (3, 3), 4e9);
        let r = simulate_flows(&net, &[small, big]);
        assert!(r.flow_times_s[0] <= r.flow_times_s[1]);
        assert_eq!(r.completion_s, r.flow_times_s[1]);
    }
}
