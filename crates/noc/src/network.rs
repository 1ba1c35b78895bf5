//! Link enumeration and routing.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use gemini_arch::{ArchConfig, Coord, CoreId, Topology};

/// A node of the interconnect: a core router or a DRAM-controller port
/// inside an IO chiplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeId {
    /// Router of the core at the given coordinate.
    Core(Coord),
    /// Port `slot` of DRAM controller `dram`, adjacent to edge core `at`.
    DramPort {
        /// DRAM stack index.
        dram: u32,
        /// The edge-core coordinate the port attaches to.
        at: Coord,
    },
}

/// Identifier of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The index as `usize`.
    pub fn idx(&self) -> usize {
        self.0 as usize
    }
}

/// Physical nature of a link, which determines its bandwidth and energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// On-chip NoC link.
    Noc,
    /// Die-to-die link (crosses a chiplet boundary).
    D2d,
    /// DRAM controller to edge router (read injection).
    DramInj(u32),
    /// Edge router to DRAM controller (write ejection).
    DramEj(u32),
}

impl LinkKind {
    /// Whether this link is a D2D interface.
    pub fn is_d2d(&self) -> bool {
        matches!(self, LinkKind::D2d)
    }
}

/// A directed link of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Physical kind.
    pub kind: LinkKind,
    /// Bandwidth in GB/s.
    pub bw: f64,
}

/// The interconnect of one architecture: all links plus routing.
#[derive(Debug, Clone)]
pub struct Network {
    arch: ArchConfig,
    links: Vec<Link>,
    /// Folded torus (wrap links, shorter-way routing) rather than mesh.
    torus: bool,
    /// The link leaving each core rightwards, leftwards, downwards and
    /// upwards, indexed by the source core: `h_right[y * x_cores + x]`.
    /// A mesh has `NO_LINK` where it ends; a folded torus puts its wrap
    /// links there instead (`h_right` of a row's last core is the wrap
    /// to column 0, `h_left` of its first core the wrap back, and
    /// likewise `v_down`/`v_up` per column).
    h_right: Vec<u32>,
    h_left: Vec<u32>,
    v_down: Vec<u32>,
    v_up: Vec<u32>,
    /// Injection/ejection link ids per DRAM per port.
    dram_inj: Vec<Vec<u32>>,
    dram_ej: Vec<Vec<u32>>,
    /// DRAM port coordinates, cached from the arch.
    dram_ports: Vec<Vec<Coord>>,
    /// Each core's DRAM fan-out, built on first use: most evaluators
    /// touch few cores, and some only read `dram_port_coords`.
    fan_out: Box<[OnceLock<DramFanOut>]>,
}

const NO_LINK: u32 = u32::MAX;

/// The DRAM fan-out of one core: for every DRAM in DRAM order, the
/// links of the core's write paths to each port, then those of its read
/// paths from each port, each in port order.
#[derive(Debug, Clone)]
struct DramFanOut {
    links: Box<[LinkId]>,
    /// Segment `i` is `links[ends[i]..ends[i + 1]]`: segment `2 d` is
    /// DRAM `d`'s writes and segment `2 d + 1` its reads.
    ends: Box<[u32]>,
}

impl DramFanOut {
    fn segment(&self, i: usize) -> &[LinkId] {
        &self.links[self.ends[i] as usize..self.ends[i + 1] as usize]
    }
}

/// How far the X-first routes of one multicast tree reach along one
/// row or column: the most hops taken forward (increasing coordinate)
/// and backward from where they enter it.
#[derive(Debug, Clone, Copy, Default)]
struct Reach {
    fwd: u32,
    bwd: u32,
}

impl Reach {
    fn extend(&mut self, (fwd, hops): (bool, u32)) {
        let r = if fwd { &mut self.fwd } else { &mut self.bwd };
        *r = (*r).max(hops);
    }
}

/// Caller-owned buffers for building multicast trees: the links of
/// the last tree built and the per-column reach of its Y legs. Keep
/// one per thread and pass it to every build, so that building a tree
/// allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
pub struct TreeScratch {
    links: Vec<LinkId>,
    cols: Vec<Reach>,
}

impl Network {
    /// Builds the interconnect for an architecture.
    pub fn new(arch: &ArchConfig) -> Self {
        let x = arch.x_cores();
        let y = arch.y_cores();
        let n = (x * y) as usize;
        let torus = arch.topology() == Topology::FoldedTorus;
        let mut links = Vec::new();
        let mut h_right = vec![NO_LINK; n];
        let mut h_left = vec![NO_LINK; n];
        let mut v_down = vec![NO_LINK; n];
        let mut v_up = vec![NO_LINK; n];

        let core = |cx: u32, cy: u32| NodeId::Core(Coord::new(cx as u16, cy as u16));
        let push = |links: &mut Vec<Link>, from, to, kind, bw| -> u32 {
            let id = links.len() as u32;
            links.push(Link { from, to, kind, bw });
            id
        };
        let hkind = |cx: u32| {
            if arch.is_d2d_h(cx) {
                LinkKind::D2d
            } else {
                LinkKind::Noc
            }
        };
        let vkind = |cy: u32| {
            if arch.is_d2d_v(cy) {
                LinkKind::D2d
            } else {
                LinkKind::Noc
            }
        };
        let bw_of = |k: LinkKind| match k {
            LinkKind::D2d => arch.d2d_bw(),
            _ => arch.noc_bw(),
        };

        for cy in 0..y {
            for cx in 0..x {
                let i = (cy * x + cx) as usize;
                if cx + 1 < x {
                    let k = hkind(cx);
                    h_right[i] = push(&mut links, core(cx, cy), core(cx + 1, cy), k, bw_of(k));
                    h_left[(cy * x + cx + 1) as usize] =
                        push(&mut links, core(cx + 1, cy), core(cx, cy), k, bw_of(k));
                }
                if cy + 1 < y {
                    let k = vkind(cy);
                    v_down[i] = push(&mut links, core(cx, cy), core(cx, cy + 1), k, bw_of(k));
                    v_up[((cy + 1) * x + cx) as usize] =
                        push(&mut links, core(cx, cy + 1), core(cx, cy), k, bw_of(k));
                }
            }
        }

        if torus && x > 1 {
            for cy in 0..y {
                let k = if arch.xcut() > 1 {
                    LinkKind::D2d
                } else {
                    LinkKind::Noc
                };
                h_right[(cy * x + x - 1) as usize] =
                    push(&mut links, core(x - 1, cy), core(0, cy), k, bw_of(k));
                h_left[(cy * x) as usize] =
                    push(&mut links, core(0, cy), core(x - 1, cy), k, bw_of(k));
            }
        }
        if torus && y > 1 {
            for cx in 0..x {
                let k = if arch.ycut() > 1 {
                    LinkKind::D2d
                } else {
                    LinkKind::Noc
                };
                v_down[((y - 1) * x + cx) as usize] =
                    push(&mut links, core(cx, y - 1), core(cx, 0), k, bw_of(k));
                v_up[cx as usize] = push(&mut links, core(cx, 0), core(cx, y - 1), k, bw_of(k));
            }
        }

        let mut dram_inj = Vec::new();
        let mut dram_ej = Vec::new();
        let mut dram_ports = Vec::new();
        for d in 0..arch.dram_count() {
            let ports = arch.dram_ports(d);
            let mut inj = Vec::new();
            let mut ej = Vec::new();
            for &p in &ports {
                let pn = NodeId::DramPort { dram: d, at: p };
                inj.push(push(
                    &mut links,
                    pn,
                    NodeId::Core(p),
                    LinkKind::DramInj(d),
                    arch.noc_bw(),
                ));
                ej.push(push(
                    &mut links,
                    NodeId::Core(p),
                    pn,
                    LinkKind::DramEj(d),
                    arch.noc_bw(),
                ));
            }
            dram_inj.push(inj);
            dram_ej.push(ej);
            dram_ports.push(ports);
        }

        Self {
            arch: arch.clone(),
            links,
            torus,
            h_right,
            h_left,
            v_down,
            v_up,
            dram_inj,
            dram_ej,
            dram_ports,
            fan_out: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The architecture this network belongs to.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Number of directed links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Link metadata.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Appends the XY (mesh) or dimension-order (torus) route from one
    /// core to another onto `out`. Routing is X-first, matching the
    /// paper's Fig.-9 discussion of XY routing.
    pub fn route_cores(&self, from: CoreId, to: CoreId, out: &mut Vec<LinkId>) {
        let a = self.arch.coord(from);
        let b = self.arch.coord(to);
        self.route_coords(a, b, out);
    }

    fn route_coords(&self, a: Coord, b: Coord, out: &mut Vec<LinkId>) {
        let (ax, ay) = (u32::from(a.x), u32::from(a.y));
        let (bx, by) = (u32::from(b.x), u32::from(b.y));
        self.push_row(ay, ax, self.leg(ax, bx, self.arch.x_cores()), out);
        self.push_col(bx, ay, self.leg(ay, by, self.arch.y_cores()), out);
    }

    /// One leg of a route along a line of `len` routers: its direction
    /// (`true` = increasing coordinate) and hop count. A mesh goes
    /// straight; a folded torus goes the shorter way round and forward
    /// on a tie (`fwd <= bwd`).
    fn leg(&self, from: u32, to: u32, len: u32) -> (bool, u32) {
        if self.torus {
            let fwd = (to + len - from) % len;
            let bwd = (from + len - to) % len;
            if fwd <= bwd {
                (true, fwd)
            } else {
                (false, bwd)
            }
        } else if from <= to {
            (true, to - from)
        } else {
            (false, from - to)
        }
    }

    /// Appends the `hops` links of row `y` leaving column `x` in one
    /// direction, wrapping round a torus.
    fn push_row(&self, y: u32, mut x: u32, (fwd, hops): (bool, u32), out: &mut Vec<LinkId>) {
        let len = self.arch.x_cores();
        for _ in 0..hops {
            let i = (y * len + x) as usize;
            let l = if fwd {
                x = if x + 1 == len { 0 } else { x + 1 };
                self.h_right[i]
            } else {
                x = if x == 0 { len - 1 } else { x - 1 };
                self.h_left[i]
            };
            debug_assert_ne!(l, NO_LINK, "route left the mesh");
            out.push(LinkId(l));
        }
    }

    /// Appends the `hops` links of column `x` leaving row `y` in one
    /// direction, wrapping round a torus.
    fn push_col(&self, x: u32, mut y: u32, (fwd, hops): (bool, u32), out: &mut Vec<LinkId>) {
        let (w, len) = (self.arch.x_cores(), self.arch.y_cores());
        for _ in 0..hops {
            let i = (y * w + x) as usize;
            let l = if fwd {
                y = if y + 1 == len { 0 } else { y + 1 };
                self.v_down[i]
            } else {
                y = if y == 0 { len - 1 } else { y - 1 };
                self.v_up[i]
            };
            debug_assert_ne!(l, NO_LINK, "route left the mesh");
            out.push(LinkId(l));
        }
    }

    /// Appends the union of the X-first routes from `src` to every core
    /// of `tos`, in closed form. The X legs all run along the source
    /// row, so together they cover the longest of them in each
    /// direction. The Y legs to one column all start where that column
    /// meets the source row, so together they cover that column's
    /// longest leg in each direction. Forward and backward legs use
    /// different links, so each link appears once.
    fn push_tree(&self, src: Coord, tos: &[CoreId], tree: &mut TreeScratch) {
        let (sx, sy) = (u32::from(src.x), u32::from(src.y));
        let (w, h) = (self.arch.x_cores(), self.arch.y_cores());
        // A tree has fewer links than the grid has cores, so the first
        // build reserves all the room any later build needs.
        tree.links.reserve((w * h) as usize);
        let mut row = Reach::default();
        tree.cols.clear();
        tree.cols.resize(w as usize, Reach::default());
        for &t in tos {
            let c = self.arch.coord(t);
            row.extend(self.leg(sx, u32::from(c.x), w));
            tree.cols[usize::from(c.x)].extend(self.leg(sy, u32::from(c.y), h));
        }
        self.push_row(sy, sx, (true, row.fwd), &mut tree.links);
        self.push_row(sy, sx, (false, row.bwd), &mut tree.links);
        for (x, col) in (0..w).zip(&tree.cols) {
            self.push_col(x, sy, (true, col.fwd), &mut tree.links);
            self.push_col(x, sy, (false, col.bwd), &mut tree.links);
        }
    }

    /// Coordinates of the ports of DRAM `d`.
    pub fn dram_port_coords(&self, d: u32) -> &[Coord] {
        &self.dram_ports[d as usize]
    }

    /// Visits each port of DRAM `d` with the read path (DRAM -> core)
    /// into `scratch`; the callback receives the per-port path. The
    /// caller divides volume across ports, matching the template's
    /// multi-router DRAM attachment.
    pub fn for_each_dram_read_path(
        &self,
        d: u32,
        to: CoreId,
        scratch: &mut Vec<LinkId>,
        mut f: impl FnMut(&[LinkId]),
    ) {
        let ports = &self.dram_ports[d as usize];
        for (i, &p) in ports.iter().enumerate() {
            scratch.clear();
            scratch.push(LinkId(self.dram_inj[d as usize][i]));
            self.route_coords(p, self.arch.coord(to), scratch);
            f(scratch);
        }
    }

    /// Like [`Self::for_each_dram_read_path`] but for writes
    /// (core -> DRAM).
    pub fn for_each_dram_write_path(
        &self,
        from: CoreId,
        d: u32,
        scratch: &mut Vec<LinkId>,
        mut f: impl FnMut(&[LinkId]),
    ) {
        let ports = &self.dram_ports[d as usize];
        for (i, &p) in ports.iter().enumerate() {
            scratch.clear();
            self.route_coords(self.arch.coord(from), p, scratch);
            scratch.push(LinkId(self.dram_ej[d as usize][i]));
            f(scratch);
        }
    }

    /// The links of every write path from core `from` to DRAM `d`,
    /// concatenated in port order: exactly the paths
    /// [`Self::for_each_dram_write_path`] visits, in its order. Adding a
    /// per-port volume to each link of this slice performs, link by
    /// link, the same additions as adding it to each visited path.
    ///
    /// The core's table (every DRAM's write and read links) is built on
    /// the first call for that core and kept.
    pub fn dram_write_links(&self, from: CoreId, d: u32) -> &[LinkId] {
        self.fan_out(from).segment(2 * d as usize)
    }

    /// The links of every read path from DRAM `d` to core `to`,
    /// concatenated in port order: exactly the paths
    /// [`Self::for_each_dram_read_path`] visits, in its order. A port's
    /// one-destination [`Self::multicast_from_dram`] tree holds the same
    /// links as its read path, each once, so this slice also replays the
    /// one-destination trees of every port. Built like
    /// [`Self::dram_write_links`].
    pub fn dram_read_links(&self, d: u32, to: CoreId) -> &[LinkId] {
        self.fan_out(to).segment(2 * d as usize + 1)
    }

    fn fan_out(&self, core: CoreId) -> &DramFanOut {
        self.fan_out[core.idx()].get_or_init(|| {
            let mut links = Vec::new();
            let mut ends = vec![0u32];
            let mut path = Vec::new();
            for d in 0..self.dram_ports.len() as u32 {
                self.for_each_dram_write_path(core, d, &mut path, |p| links.extend_from_slice(p));
                ends.push(links.len() as u32);
                self.for_each_dram_read_path(d, core, &mut path, |p| links.extend_from_slice(p));
                ends.push(links.len() as u32);
            }
            DramFanOut {
                links: links.into_boxed_slice(),
                ends: ends.into_boxed_slice(),
            }
        })
    }

    /// Multicast tree from one core to many: the union of the unicast
    /// X-first routes, each link once (`from` itself and repeats in
    /// `tos` add nothing). Returns the tree's links, built in `tree`;
    /// their order is unspecified.
    pub fn multicast_cores<'t>(
        &self,
        from: CoreId,
        tos: &[CoreId],
        tree: &'t mut TreeScratch,
    ) -> &'t [LinkId] {
        tree.links.clear();
        self.push_tree(self.arch.coord(from), tos, tree);
        &tree.links
    }

    /// Multicast trees from DRAM `d` to many cores, one per port: the
    /// port's injection link plus the union of the X-first routes from
    /// its edge core, each link once. The callback gets each port's
    /// tree so the caller can divide volume by port count; the order of
    /// the links within a tree is unspecified.
    pub fn multicast_from_dram(
        &self,
        d: u32,
        tos: &[CoreId],
        tree: &mut TreeScratch,
        mut f: impl FnMut(&[LinkId]),
    ) {
        let d = d as usize;
        for (&inj, &p) in self.dram_inj[d].iter().zip(&self.dram_ports[d]) {
            tree.links.clear();
            tree.links.push(LinkId(inj));
            self.push_tree(p, tos, tree);
            f(&tree.links);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;

    fn mesh() -> (ArchConfig, Network) {
        let a = presets::g_arch_72();
        let n = Network::new(&a);
        (a, n)
    }

    #[test]
    fn link_count_mesh() {
        let (a, n) = mesh();
        let x = a.x_cores();
        let y = a.y_cores();
        // Directed mesh links + 2 DRAMs x 6 ports x (inj+ej).
        let mesh_links = 2 * (x - 1) * y + 2 * (y - 1) * x;
        let dram_links = 2 * 2 * 6;
        assert_eq!(n.n_links() as u32, mesh_links + dram_links);
    }

    #[test]
    fn xy_route_shape() {
        let (a, n) = mesh();
        let mut p = Vec::new();
        n.route_cores(a.core_at(1, 1), a.core_at(4, 3), &mut p);
        assert_eq!(p.len(), 3 + 2);
        // X leg first: the first three links are horizontal.
        for l in &p[..3] {
            let link = n.link(*l);
            if let (NodeId::Core(f), NodeId::Core(t)) = (link.from, link.to) {
                assert_eq!(f.y, t.y, "X leg must stay in the row");
            } else {
                panic!("expected core-to-core link");
            }
        }
    }

    #[test]
    fn route_self_is_empty() {
        let (a, n) = mesh();
        let mut p = Vec::new();
        n.route_cores(a.core_at(2, 2), a.core_at(2, 2), &mut p);
        assert!(p.is_empty());
    }

    #[test]
    fn d2d_links_on_cut_boundary() {
        // g_arch_72 has xcut=2 on a 6-wide grid: links between columns 2
        // and 3 are D2D.
        let (a, n) = mesh();
        let mut p = Vec::new();
        n.route_cores(a.core_at(2, 0), a.core_at(3, 0), &mut p);
        assert_eq!(p.len(), 1);
        assert!(n.link(p[0]).kind.is_d2d());
        assert_eq!(n.link(p[0]).bw, a.d2d_bw());
        // Vertical links never cross (ycut=1).
        p.clear();
        n.route_cores(a.core_at(0, 2), a.core_at(0, 3), &mut p);
        assert_eq!(n.link(p[0]).kind, LinkKind::Noc);
    }

    #[test]
    fn torus_wraps_shorter_way() {
        let a = presets::t_arch(); // 12x10 folded torus
        let n = Network::new(&a);
        let mut p = Vec::new();
        // From x=0 to x=11: wrap (1 hop) beats 11 mesh hops.
        n.route_cores(a.core_at(0, 0), a.core_at(11, 0), &mut p);
        assert_eq!(p.len(), 1);
        // From x=0 to x=5: 5 hops, no wrap.
        p.clear();
        n.route_cores(a.core_at(0, 0), a.core_at(5, 0), &mut p);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn monolithic_mesh_has_no_d2d() {
        let a = ArchConfig::builder()
            .cores(4, 4)
            .cuts(1, 1)
            .build()
            .unwrap();
        let n = Network::new(&a);
        assert!(n.links().iter().all(|l| !l.kind.is_d2d()));
    }

    #[test]
    fn dram_read_paths_touch_all_ports() {
        let (a, n) = mesh();
        let mut scratch = Vec::new();
        let mut count = 0;
        n.for_each_dram_read_path(0, a.core_at(3, 3), &mut scratch, |path| {
            count += 1;
            assert!(matches!(n.link(path[0]).kind, LinkKind::DramInj(0)));
        });
        assert_eq!(count, 6, "DRAM 0 has 6 ports on the west edge");
    }

    #[test]
    fn dram_write_paths_end_in_ejection() {
        let (a, n) = mesh();
        let mut scratch = Vec::new();
        n.for_each_dram_write_path(a.core_at(3, 3), 1, &mut scratch, |path| {
            assert!(matches!(
                n.link(*path.last().unwrap()).kind,
                LinkKind::DramEj(1)
            ));
        });
    }

    #[test]
    fn multicast_dedups_shared_prefix() {
        let (a, n) = mesh();
        let mut tree = TreeScratch::default();
        // Two destinations in the same row share the horizontal prefix.
        let links = n.multicast_cores(
            a.core_at(0, 0),
            &[a.core_at(3, 0), a.core_at(3, 1)],
            &mut tree,
        );
        // Unicast would be 3 + 4 = 7 links; the tree shares 3.
        assert_eq!(links.len(), 4);
    }

    #[test]
    fn multicast_excludes_self() {
        let (a, n) = mesh();
        let mut tree = TreeScratch::default();
        assert!(n
            .multicast_cores(a.core_at(2, 2), &[a.core_at(2, 2)], &mut tree)
            .is_empty());
    }
}
