//! Differential test of the incremental max-min fluid solver.
//!
//! [`FlowSimWorkspace::simulate`] keeps its water-filling state between
//! events and re-runs only the rounds a finished flow changed. The
//! oracle below is the solver it replaced, kept verbatim: every event
//! rebuilds the per-link flow lists and re-runs progressive filling
//! from its first round over every network link. The two must agree bit
//! for bit on `completion_s`, `events` and every `flow_times_s` entry.
//!
//! Flow sets are drawn from a seeded generator over the presets and
//! over random small meshes and folded tori, with the edge cases the
//! rollback has to survive: empty paths; zero, negative, NaN and 1e-7
//! byte counts; paths that repeat a link or are not in routing order;
//! equal byte counts and equal bandwidths that force ties; links whose
//! capacity underflows to zero or rounds shares to zero (the arch
//! builder refuses a bandwidth of exactly zero); and NaN and infinite
//! capacities, which the arch builder accepts. One workspace is reused
//! across sets of different sizes and link counts. A failure names its
//! seed, which replays alone on a fresh workspace in
//! `rollback_regression_seeds_match_the_oracle`.

use gemini::arch::{presets, ArchConfig, Topology};
use gemini::noc::flowsim::{Flow, FlowSimResult, FlowSimWorkspace};
use gemini::noc::{LinkId, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The solver before it became incremental, verbatim.
#[derive(Debug, Default)]
struct OracleWorkspace {
    link_cap: Vec<f64>,
    flows_on: Vec<Vec<usize>>,
    remaining_on: Vec<usize>,
    rate: Vec<f64>,
    fixed: Vec<bool>,
    remaining: Vec<f64>,
    done: Vec<f64>,
    active: Vec<usize>,
}

impl OracleWorkspace {
    /// Max-min fair rate allocation for the active flows (progressive
    /// filling / water-filling): repeatedly freeze the most constrained
    /// link's fair share. Rates land in `self.rate`, parallel to
    /// `active`.
    fn maxmin_rates(&mut self, net: &Network, active: &[usize], flows: &[Flow]) {
        let n_links = net.n_links();
        self.link_cap.clear();
        self.link_cap
            .extend((0..n_links).map(|i| net.link(LinkId(i as u32)).bw * 1e9));
        if self.flows_on.len() < n_links {
            self.flows_on.resize_with(n_links, Vec::new);
        }
        // Flows crossing each link (indices into `active`).
        for v in &mut self.flows_on[..n_links] {
            v.clear();
        }
        for (ai, &fi) in active.iter().enumerate() {
            for l in &flows[fi].path {
                self.flows_on[l.idx()].push(ai);
            }
        }
        self.rate.clear();
        self.rate.resize(active.len(), f64::INFINITY);
        self.fixed.clear();
        self.fixed.resize(active.len(), false);
        self.remaining_on.clear();
        self.remaining_on
            .extend(self.flows_on[..n_links].iter().map(|f| f.len()));

        let Self {
            link_cap,
            flows_on,
            remaining_on,
            rate,
            fixed,
            ..
        } = self;
        loop {
            // Most constrained link: min cap / remaining flows.
            let mut best: Option<(f64, usize)> = None;
            for l in 0..n_links {
                if remaining_on[l] == 0 {
                    continue;
                }
                let share = link_cap[l] / remaining_on[l] as f64;
                if best.map_or(true, |(s, _)| share < s) {
                    best = Some((share, l));
                }
            }
            let Some((share, l)) = best else { break };
            // Freeze every unfixed flow on that link at the fair share.
            for &ai in &flows_on[l] {
                if fixed[ai] {
                    continue;
                }
                fixed[ai] = true;
                rate[ai] = share;
                // Release its capacity claims elsewhere.
                for link in &flows[active[ai]].path {
                    link_cap[link.idx()] -= share;
                    if link_cap[link.idx()] < 0.0 {
                        link_cap[link.idx()] = 0.0;
                    }
                    remaining_on[link.idx()] -= 1;
                }
            }
        }
        // Flows touching no links (empty paths, e.g. same-core
        // transfers) complete instantly.
        for (ai, r) in rate.iter_mut().enumerate() {
            if flows[active[ai]].path.is_empty() {
                *r = f64::INFINITY;
            }
        }
    }

    /// Simulates the concurrent transfer of `flows`, max-min fair.
    ///
    /// Returns exact per-flow completion times under fluid sharing.
    /// Flows with empty paths complete at t = 0.
    fn simulate(&mut self, net: &Network, flows: &[Flow]) -> FlowSimResult {
        self.remaining.clear();
        self.remaining
            .extend(flows.iter().map(|f| f.bytes.max(0.0)));
        self.done.clear();
        self.done.resize(flows.len(), 0.0);
        let mut t = 0.0f64;
        let mut events = 0usize;

        loop {
            let mut active = std::mem::take(&mut self.active);
            active.clear();
            active.extend((0..flows.len()).filter(|&i| self.remaining[i] > 0.0));
            if active.is_empty() {
                self.active = active;
                break;
            }
            events += 1;
            self.maxmin_rates(net, &active, flows);
            // Advance to the next flow completion.
            let mut dt = f64::INFINITY;
            for (ai, &fi) in active.iter().enumerate() {
                if self.rate[ai] > 0.0 {
                    dt = dt.min(self.remaining[fi] / self.rate[ai]);
                }
            }
            if !dt.is_finite() {
                // All active rates are zero: a saturated/degenerate
                // network; bail out rather than loop forever.
                self.active = active;
                break;
            }
            t += dt;
            for (ai, &fi) in active.iter().enumerate() {
                self.remaining[fi] -= self.rate[ai] * dt;
                if self.remaining[fi] <= 1e-6 {
                    self.remaining[fi] = 0.0;
                    self.done[fi] = t;
                }
            }
            self.active = active;
            // Safety valve: events are bounded by flow count in exact
            // arithmetic; guard against pathological float cycling.
            if events > flows.len() * 4 + 16 {
                break;
            }
        }
        FlowSimResult {
            completion_s: t,
            flow_times_s: self.done.clone(),
            events,
        }
    }
}

/// A result as bits, so NaN compares equal to itself and -0.0 differs
/// from 0.0.
fn bits(r: &FlowSimResult) -> (u64, usize, Vec<u64>) {
    (
        r.completion_s.to_bits(),
        r.events,
        r.flow_times_s.iter().map(|t| t.to_bits()).collect(),
    )
}

/// Bandwidths (GB/s) the random networks draw from: equal values force
/// ties; 5e-324 and 1e-300 make subnormal or tiny capacities whose
/// flows take longer than any finite `dt`; 1e300 overflows the capacity
/// to infinity; NaN passes the arch builder's positivity check.
const BANDWIDTHS: [f64; 9] = [32.0, 32.0, 16.0, 8.0, 3.0, 5e-324, 1e-300, 1e300, f64::NAN];

/// A random small mesh or folded torus with random link bandwidths.
fn random_arch(rng: &mut StdRng) -> ArchConfig {
    let x = rng.gen_range(1u32..=5);
    let y = rng.gen_range(1u32..=4);
    let divisors = |n: u32| (1..=n).filter(|d| n % d == 0).collect::<Vec<_>>();
    let (dx, dy) = (divisors(x), divisors(y));
    // Mostly sane bandwidths; the degenerate ones in one arch in eight.
    let pick = |rng: &mut StdRng| {
        let k = if rng.gen_bool(0.125) { 9 } else { 5 };
        BANDWIDTHS[rng.gen_range(0..k as usize)]
    };
    let (noc, d2d) = (pick(rng), pick(rng));
    ArchConfig::builder()
        .cores(x, y)
        .cuts(
            dx[rng.gen_range(0..dx.len())],
            dy[rng.gen_range(0..dy.len())],
        )
        .noc_bw(noc)
        .d2d_bw(d2d)
        .dram_count(rng.gen_range(1u32..=3))
        .topology(if rng.gen_bool(0.3) {
            Topology::FoldedTorus
        } else {
            Topology::Mesh
        })
        .build()
        .expect("random arch is valid")
}

/// A random flow set on `net`: routed core-to-core paths, DRAM paths,
/// empty paths and shuffled or repeated link lists, with byte counts
/// that include zero, negative, NaN, 1e-7 and shared values.
fn random_flows(rng: &mut StdRng, arch: &ArchConfig, net: &Network) -> Vec<Flow> {
    let n = match rng.gen_range(0u32..10) {
        0 => rng.gen_range(0usize..3),
        1..=6 => rng.gen_range(1usize..24),
        _ => rng.gen_range(24usize..90),
    };
    let shared = [1e6 * rng.gen_range(1u32..5) as f64, 2.5e5];
    let n_cores = arch.n_cores();
    let mut scratch = Vec::new();
    (0..n)
        .map(|_| {
            let core = |rng: &mut StdRng| {
                let i = rng.gen_range(0..n_cores);
                arch.core_at(i % arch.x_cores(), i / arch.x_cores())
            };
            let mut path = Vec::new();
            match rng.gen_range(0u32..20) {
                0 => {}
                1 | 2 => {
                    // Arbitrary links: unsorted, possibly repeated.
                    for _ in 0..rng.gen_range(1usize..6) {
                        path.push(LinkId(rng.gen_range(0..net.n_links() as u32)));
                    }
                }
                3 | 4 => {
                    let dram = rng.gen_range(0..arch.dram_count());
                    let to = core(rng);
                    let mut paths = Vec::new();
                    net.for_each_dram_read_path(dram, to, &mut scratch, |p| {
                        paths.push(p.to_vec());
                    });
                    if !paths.is_empty() {
                        path = paths.swap_remove(rng.gen_range(0..paths.len()));
                    }
                }
                _ => {
                    let (a, b) = (core(rng), core(rng));
                    net.route_cores(a, b, &mut path);
                    if !path.is_empty() && rng.gen_bool(0.1) {
                        // Out of routing order, or crossing a link twice.
                        if rng.gen_bool(0.5) {
                            path.reverse();
                        } else {
                            path.push(path[rng.gen_range(0..path.len())]);
                        }
                    }
                }
            }
            let bytes = match rng.gen_range(0u32..24) {
                0 => 0.0,
                1 => -5.0,
                2 => f64::NAN,
                3 => 1e-7,
                4..=9 => shared[rng.gen_range(0..2usize)],
                _ => rng.gen_range(1e3..1e7),
            };
            Flow { path, bytes }
        })
        .collect()
}

/// Seeded flow sets in the sweep.
const SETS: u64 = 10_000;

/// Runs set `seed` through the oracle and `ws`, panicking with the seed
/// on the first differing bit.
fn check(seed: u64, nets: &[(ArchConfig, Network)], ws: &mut FlowSimWorkspace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let own;
    let (arch, net) = if rng.gen_bool(0.5) {
        &nets[rng.gen_range(0..nets.len())]
    } else {
        let arch = random_arch(&mut rng);
        let net = Network::new(&arch);
        own = (arch, net);
        &own
    };
    let flows = random_flows(&mut rng, arch, net);
    let want = OracleWorkspace::default().simulate(net, &flows);
    let got = ws.simulate(net, &flows);
    assert_eq!(
        bits(&got),
        bits(&want),
        "seed {seed}: the incremental solver differs from the oracle on {} flows \
         (replay it alone in `rollback_regression_seeds_match_the_oracle`)\n  \
         got  {got:?}\n  want {want:?}",
        flows.len(),
    );
}

fn preset_networks() -> Vec<(ArchConfig, Network)> {
    [
        presets::g_arch_72(),
        presets::simba_s_arch(),
        presets::t_arch(),
    ]
    .into_iter()
    .map(|a| {
        let n = Network::new(&a);
        (a, n)
    })
    .collect()
}

#[test]
fn incremental_solver_matches_the_oracle_bit_for_bit() {
    let nets = preset_networks();
    let mut ws = FlowSimWorkspace::new();
    for seed in 0..SETS {
        check(seed, &nets, &mut ws);
    }
}

/// Seeds that broke deliberately wrong rollbacks, each on a fresh
/// workspace: 2 catches resuming at the round after `r*`, keeping the
/// finished flows' counts and skipping the undo log; 410 catches
/// resuming past round 0 with NaN or infinite capacities.
#[test]
fn rollback_regression_seeds_match_the_oracle() {
    let nets = preset_networks();
    for seed in [2, 410] {
        check(seed, &nets, &mut FlowSimWorkspace::new());
    }
}
