//! Differential test of the closed-form multicast trees of
//! `gemini_noc::Network` against the construction they replaced: walk
//! every destination's X-first route hop by hop and keep each link the
//! first time a `HashSet` sees it.
//!
//! The oracle routes with its own hop-by-hop walk (straight on a mesh;
//! the shorter way round a folded torus, forward on a tie), looking
//! each hop's link up by its end points, so a change to the network's
//! routing rule fails here as well. Every tree must hold exactly the
//! oracle's links, none of them twice, and a tree with one destination
//! must be that destination's route, in order.
//!
//! Inputs are seeded (splitmix64): random sources and destination lists
//! that include the source itself and repeats, on a stride of the
//! 72-TOPs Table-I candidates, the T-Arch torus and builder-made folded
//! tori that are one core wide, one core tall, two cores across (where
//! every leg ties) or cut several times.
//!
//! The per-core DRAM fan-out tables (`Network::dram_write_links` and
//! `Network::dram_read_links`) are checked for every core and DRAM of
//! the same architectures, plus meshes and folded tori whose DRAMs have
//! unequal port counts: each table must be the concatenation, in order,
//! of the paths `for_each_dram_write_path` or `for_each_dram_read_path`
//! visit, and each port's slice of a read table must hold exactly the
//! links of that port's one-destination `multicast_from_dram` tree.

use std::collections::{HashMap, HashSet};

use gemini::arch::{presets, ArchConfig, Coord, CoreId, Topology};
use gemini::core::dse::DseSpec;
use gemini::noc::{LinkId, Network, NodeId, TreeScratch};

/// splitmix64: a tiny seeded generator, so failures replay by seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// The replaced construction, on links looked up by their end points.
struct Oracle<'n> {
    net: &'n Network,
    /// Links by `(from, to)`, in id order. Only a torus two routers
    /// across has two links with the same ends: the mesh link and the
    /// wrap link, which `Network::new` adds after every mesh link.
    by_ends: HashMap<(NodeId, NodeId), Vec<LinkId>>,
}

impl<'n> Oracle<'n> {
    fn new(net: &'n Network) -> Self {
        let mut by_ends: HashMap<(NodeId, NodeId), Vec<LinkId>> = HashMap::new();
        for (i, l) in net.links().iter().enumerate() {
            by_ends
                .entry((l.from, l.to))
                .or_default()
                .push(LinkId(i as u32));
        }
        Self { net, by_ends }
    }

    fn link(&self, from: NodeId, to: NodeId, wrap: bool) -> LinkId {
        let links = &self.by_ends[&(from, to)];
        if wrap {
            *links.last().unwrap()
        } else {
            links[0]
        }
    }

    /// Walks one leg hop by hop from `from` to `to` on a line of `len`
    /// routers, `at` placing a position on the grid.
    fn walk(&self, from: u32, to: u32, len: u32, at: impl Fn(u32) -> Coord, out: &mut Vec<LinkId>) {
        let torus = self.net.arch().topology() == Topology::FoldedTorus;
        let mut c = from;
        while c != to {
            let fwd_dist = (to + len - c) % len;
            let bwd_dist = (c + len - to) % len;
            let go_fwd = if torus { fwd_dist <= bwd_dist } else { c < to };
            let (next, wrap) = if go_fwd {
                if c + 1 == len {
                    (0, true)
                } else {
                    (c + 1, false)
                }
            } else if c == 0 {
                (len - 1, true)
            } else {
                (c - 1, false)
            };
            out.push(self.link(NodeId::Core(at(c)), NodeId::Core(at(next)), wrap));
            c = next;
        }
    }

    /// The X-first route: along the source row, then down the
    /// destination column.
    fn route(&self, a: Coord, b: Coord, out: &mut Vec<LinkId>) {
        let arch = self.net.arch();
        let xy = |x: u32, y: u32| Coord::new(x as u16, y as u16);
        let (ay, bx) = (u32::from(a.y), u32::from(b.x));
        self.walk(u32::from(a.x), bx, arch.x_cores(), |x| xy(x, ay), out);
        self.walk(ay, u32::from(b.y), arch.y_cores(), |y| xy(bx, y), out);
    }

    /// The union of the routes from `from`, deduplicated through a
    /// `HashSet` in first-seen order, after `first` (the DRAM
    /// injection link, if any).
    fn union(&self, first: Option<LinkId>, from: Coord, tos: &[Coord]) -> Vec<LinkId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        if let Some(l) = first {
            seen.insert(l);
            out.push(l);
        }
        let mut path = Vec::new();
        for &t in tos {
            path.clear();
            self.route(from, t, &mut path);
            for &l in &path {
                if seen.insert(l) {
                    out.push(l);
                }
            }
        }
        out
    }
}

fn sorted(links: &[LinkId]) -> Vec<LinkId> {
    let mut v = links.to_vec();
    v.sort();
    v
}

/// Asserts `tree` holds exactly `want`'s links, each once.
fn assert_same_tree(tree: &[LinkId], want: &[LinkId], what: &dyn Fn() -> String) {
    let mut dedup = sorted(tree);
    dedup.dedup();
    assert_eq!(
        dedup.len(),
        tree.len(),
        "a link appears twice in {}",
        what()
    );
    assert_eq!(sorted(tree), sorted(want), "wrong links in {}", what());
}

fn name(arch: &ArchConfig) -> String {
    format!(
        "{:?} {}x{} cut {}x{}",
        arch.topology(),
        arch.x_cores(),
        arch.y_cores(),
        arch.xcut(),
        arch.ycut()
    )
}

/// Runs `cases` random trees on one arch; returns the number checked.
fn check_arch(arch: &ArchConfig, rng: &mut SplitMix, cases: usize) -> usize {
    let net = Network::new(arch);
    let oracle = Oracle::new(&net);
    let n = arch.n_cores();
    let mut tree = TreeScratch::default();
    let mut scratch = Vec::new();
    let mut route = Vec::new();
    let mut checked = 0;
    for case in 0..cases {
        let from = CoreId(rng.below(n) as u16);
        let k = 1 + rng.below(n.min(12)) as usize;
        let mut tos: Vec<CoreId> = (0..k).map(|_| CoreId(rng.below(n) as u16)).collect();
        if rng.below(3) == 0 {
            tos.push(from);
        }
        if rng.below(3) == 0 {
            tos.push(tos[0]);
        }
        let coords: Vec<Coord> = tos.iter().map(|&t| arch.coord(t)).collect();
        let src = arch.coord(from);
        let what = || format!("{} case {case}: {src:?} -> {coords:?}", name(arch));

        for &t in &tos {
            route.clear();
            net.route_cores(from, t, &mut route);
            let mut want = Vec::new();
            oracle.route(src, arch.coord(t), &mut want);
            assert_eq!(
                route,
                want,
                "route {src:?} -> {:?} on {}",
                arch.coord(t),
                name(arch)
            );
        }

        let got = net.multicast_cores(from, &tos, &mut tree).to_vec();
        assert_same_tree(&got, &oracle.union(None, src, &coords), &what);
        route.clear();
        net.route_cores(from, tos[0], &mut route);
        assert_eq!(
            net.multicast_cores(from, &tos[..1], &mut tree),
            &route[..],
            "one-destination tree is not the route: {}",
            what()
        );
        checked += 1;

        for d in 0..arch.dram_count() {
            let ports = net.dram_port_coords(d).to_vec();
            let mut trees = Vec::new();
            net.multicast_from_dram(d, &tos, &mut tree, |t| trees.push(t.to_vec()));
            assert_eq!(trees.len(), ports.len(), "one tree per port of DRAM {d}");
            for (t, &p) in trees.iter().zip(&ports) {
                let inj = oracle.link(NodeId::DramPort { dram: d, at: p }, NodeId::Core(p), false);
                let port_what = || format!("DRAM {d} port {p:?} tree, {}", what());
                assert_same_tree(t, &oracle.union(Some(inj), p, &coords), &port_what);
                checked += 1;
            }
            let mut reads = Vec::new();
            net.for_each_dram_read_path(d, tos[0], &mut scratch, |p| reads.push(p.to_vec()));
            let mut singles = Vec::new();
            net.multicast_from_dram(d, &tos[..1], &mut tree, |t| singles.push(t.to_vec()));
            assert_eq!(
                singles,
                reads,
                "one-destination DRAM {d} trees are not the read paths: {}",
                what()
            );
        }
    }
    checked
}

/// Checks both DRAM fan-out tables of every core and DRAM of one arch;
/// returns the number of (core, DRAM) pairs checked.
fn check_fan_out(arch: &ArchConfig) -> usize {
    let net = Network::new(arch);
    let mut scratch = Vec::new();
    let mut tree = TreeScratch::default();
    let mut checked = 0;
    for c in 0..arch.n_cores() {
        let core = CoreId(c as u16);
        for d in 0..arch.dram_count() {
            let what = || format!("core {:?}, DRAM {d}, {}", arch.coord(core), name(arch));
            let mut writes = Vec::new();
            net.for_each_dram_write_path(core, d, &mut scratch, |p| writes.extend_from_slice(p));
            assert_eq!(
                net.dram_write_links(core, d),
                &writes[..],
                "write table of {}",
                what()
            );
            let mut reads = Vec::new();
            net.for_each_dram_read_path(d, core, &mut scratch, |p| reads.extend_from_slice(p));
            let table = net.dram_read_links(d, core);
            assert_eq!(table, &reads[..], "read table of {}", what());
            let mut rest = table;
            let mut port = 0;
            net.multicast_from_dram(d, &[core], &mut tree, |t| {
                assert!(rest.len() >= t.len(), "read table too short: {}", what());
                let (slice, tail) = rest.split_at(t.len());
                let port_what = || format!("port {port} of the read table, {}", what());
                assert_same_tree(slice, t, &port_what);
                rest = tail;
                port += 1;
            });
            assert!(rest.is_empty(), "read table too long: {}", what());
            checked += 1;
        }
    }
    checked
}

fn torus(x: u32, y: u32, xcut: u32, ycut: u32) -> ArchConfig {
    ArchConfig::builder()
        .cores(x, y)
        .cuts(xcut, ycut)
        .topology(Topology::FoldedTorus)
        .build()
        .unwrap()
}

#[test]
fn closed_form_trees_match_the_route_union_on_table1_meshes() {
    let mut rng = SplitMix(0x5EED_0001);
    let candidates = DseSpec::table1(72.0).candidates();
    let mut checked = 0;
    for arch in candidates.iter().step_by(97) {
        checked += check_arch(arch, &mut rng, 12);
    }
    assert!(checked > 10_000, "only {checked} trees checked");
}

#[test]
fn closed_form_trees_match_the_route_union_on_folded_tori() {
    let mut rng = SplitMix(0x5EED_0002);
    let arches = [
        presets::t_arch(),
        torus(1, 8, 1, 4),
        torus(9, 1, 3, 1),
        torus(1, 1, 1, 1),
        torus(2, 6, 2, 3),
        torus(7, 2, 1, 2),
        torus(12, 10, 4, 5),
        torus(6, 9, 3, 3),
        torus(5, 5, 1, 1),
    ];
    let mut checked = 0;
    for arch in &arches {
        checked += check_arch(arch, &mut rng, 120);
    }
    assert!(checked > 12_000, "only {checked} trees checked");
}

/// Builder-made arches whose DRAMs have unequal port counts: three DRAMs
/// on five rows get 2, 5 and 3 ports, and five DRAMs on four rows get 1,
/// 2, 1, 2 and 2.
fn unequal_port_arches() -> Vec<ArchConfig> {
    let with = |x, y, xcut, topology, drams| {
        ArchConfig::builder()
            .cores(x, y)
            .cuts(xcut, 1)
            .topology(topology)
            .dram_count(drams)
            .build()
            .unwrap()
    };
    vec![
        with(5, 5, 1, Topology::Mesh, 3),
        with(6, 5, 2, Topology::Mesh, 3),
        with(6, 5, 2, Topology::FoldedTorus, 3),
        with(7, 5, 1, Topology::FoldedTorus, 3),
        with(6, 4, 3, Topology::Mesh, 5),
        with(4, 4, 2, Topology::FoldedTorus, 5),
    ]
}

#[test]
fn dram_fan_out_tables_match_the_route_walks() {
    let mut arches: Vec<ArchConfig> = DseSpec::table1(72.0)
        .candidates()
        .into_iter()
        .step_by(97)
        .collect();
    arches.extend([
        presets::t_arch(),
        torus(1, 8, 1, 4),
        torus(9, 1, 3, 1),
        torus(1, 1, 1, 1),
        torus(2, 6, 2, 3),
        torus(7, 2, 1, 2),
        torus(12, 10, 4, 5),
        torus(6, 9, 3, 3),
        torus(5, 5, 1, 1),
    ]);
    let unequal = unequal_port_arches();
    for arch in &unequal {
        let net = Network::new(arch);
        let ports: Vec<usize> = (0..arch.dram_count())
            .map(|d| net.dram_port_coords(d).len())
            .collect();
        assert!(
            ports.iter().any(|&p| p != ports[0]),
            "{}: equal port counts {ports:?}",
            name(arch)
        );
    }
    arches.extend(unequal);
    let checked: usize = arches.iter().map(check_fan_out).sum();
    assert!(checked > 6_000, "only {checked} core-DRAM pairs checked");
}
