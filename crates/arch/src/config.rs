//! Architecture configuration and validation.
//!
//! [`ArchConfig`] captures exactly the configurable parameters the paper
//! lists in Sec. III: NoC bandwidth, D2D bandwidth, total DRAM bandwidth,
//! core counts in X and Y, chiplet divisions XCut and YCut, MACs per core
//! and GLB size per core — plus the NoC topology (mesh by default, folded
//! torus for the T-Arch experiment of Sec. VI-B2).

use serde::{Deserialize, Serialize};

use crate::geometry::{Coord, CoreId, MAX_CORES};

/// NoC topology of the template.
///
/// The paper defaults to a mesh (point-to-point parallel D2D links) and
/// demonstrates generality on a folded torus (Sec. VI-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Topology {
    /// 2-D mesh with XY routing.
    #[default]
    Mesh,
    /// Folded 2-D torus with dimension-order routing.
    FoldedTorus,
}

/// Errors from [`ArchConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArchError {
    /// XCut / YCut must divide the core counts (invalid candidates are
    /// "deemed invalid" in the paper's DSE).
    CutMismatch {
        /// Which axis failed.
        axis: char,
        /// Cores along the axis.
        cores: u32,
        /// Requested cuts.
        cuts: u32,
    },
    /// A parameter that must be positive was zero or negative.
    NonPositive(&'static str),
    /// The core grid has more cores than a [`CoreId`] can index
    /// ([`MAX_CORES`]).
    TooManyCores {
        /// Cores in the requested grid.
        cores: u64,
    },
}

impl std::fmt::Display for ArchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchError::CutMismatch { axis, cores, cuts } => {
                write!(
                    f,
                    "{axis}Cut {cuts} does not divide {cores} cores on the {axis} axis"
                )
            }
            ArchError::NonPositive(what) => write!(f, "{what} must be positive"),
            ArchError::TooManyCores { cores } => {
                write!(f, "{cores} cores exceed the limit of {MAX_CORES}")
            }
        }
    }
}

impl std::error::Error for ArchError {}

/// A fully-validated architecture candidate.
///
/// Construct through [`ArchConfig::builder`]. The paper abbreviates an
/// architecture as `(ChipletNum, CoreNum, DRAM_BW, NoC_BW, D2D_BW,
/// GBUF/Core, MAC/Core)`; [`ArchConfig::paper_tuple`] prints that form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    x_cores: u32,
    y_cores: u32,
    xcut: u32,
    ycut: u32,
    noc_bw: f64,
    d2d_bw: f64,
    dram_bw: f64,
    dram_count: u32,
    macs_per_core: u32,
    glb_bytes: u64,
    freq_ghz: f64,
    topology: Topology,
}

impl ArchConfig {
    /// Starts a builder with the paper's defaults (1 GHz, mesh, 2 DRAM
    /// stacks).
    pub fn builder() -> ArchConfigBuilder {
        ArchConfigBuilder::default()
    }

    /// Cores along X.
    pub fn x_cores(&self) -> u32 {
        self.x_cores
    }

    /// Cores along Y.
    pub fn y_cores(&self) -> u32 {
        self.y_cores
    }

    /// Chiplet divisions along X.
    pub fn xcut(&self) -> u32 {
        self.xcut
    }

    /// Chiplet divisions along Y.
    pub fn ycut(&self) -> u32 {
        self.ycut
    }

    /// Per-link NoC bandwidth in GB/s.
    pub fn noc_bw(&self) -> f64 {
        self.noc_bw
    }

    /// Per-link D2D bandwidth in GB/s.
    pub fn d2d_bw(&self) -> f64 {
        self.d2d_bw
    }

    /// Total DRAM bandwidth in GB/s.
    pub fn dram_bw(&self) -> f64 {
        self.dram_bw
    }

    /// Number of DRAM stacks / controllers (each owns `dram_bw /
    /// dram_count` of bandwidth).
    pub fn dram_count(&self) -> u32 {
        self.dram_count
    }

    /// MACs in the PE array of one core.
    pub fn macs_per_core(&self) -> u32 {
        self.macs_per_core
    }

    /// Global-buffer capacity per core in bytes.
    pub fn glb_bytes(&self) -> u64 {
        self.glb_bytes
    }

    /// Operating frequency in GHz.
    pub fn freq_ghz(&self) -> f64 {
        self.freq_ghz
    }

    /// NoC topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Total computing cores.
    pub fn n_cores(&self) -> u32 {
        self.x_cores * self.y_cores
    }

    /// Total computing chiplets.
    pub fn n_chiplets(&self) -> u32 {
        self.xcut * self.ycut
    }

    /// Whether the design is a single monolithic die (no D2D links; IO
    /// integrated on-die; cheap fan-out packaging).
    pub fn is_monolithic(&self) -> bool {
        self.n_chiplets() == 1
    }

    /// Cores per chiplet along (x, y).
    pub fn chiplet_dims(&self) -> (u32, u32) {
        (self.x_cores / self.xcut, self.y_cores / self.ycut)
    }

    /// Peak int8 throughput in TOPS (2 ops per MAC).
    pub fn tops(&self) -> f64 {
        self.n_cores() as f64 * self.macs_per_core as f64 * 2.0 * self.freq_ghz / 1e3
    }

    /// Chiplet index (0-based, row-major over the cut grid) containing
    /// the given coordinate.
    pub fn chiplet_of(&self, c: Coord) -> u32 {
        let (cx, cy) = self.chiplet_dims();
        let gx = c.x as u32 / cx;
        let gy = c.y as u32 / cy;
        gy * self.xcut + gx
    }

    /// Whether the horizontal link between `(x, y)` and `(x+1, y)`
    /// crosses a chiplet boundary.
    pub fn is_d2d_h(&self, x: u32) -> bool {
        if self.is_monolithic() {
            return false;
        }
        let (cx, _) = self.chiplet_dims();
        (x + 1) % cx == 0
    }

    /// Whether the vertical link between `(x, y)` and `(x, y+1)`
    /// crosses a chiplet boundary.
    pub fn is_d2d_v(&self, y: u32) -> bool {
        if self.is_monolithic() {
            return false;
        }
        let (_, cy) = self.chiplet_dims();
        (y + 1) % cy == 0
    }

    /// Converts a core id to its coordinate.
    pub fn coord(&self, id: CoreId) -> Coord {
        Coord {
            x: (id.0 as u32 % self.x_cores) as u16,
            y: (id.0 as u32 / self.x_cores) as u16,
        }
    }

    /// Converts a coordinate to a core id.
    pub fn core_at(&self, x: u32, y: u32) -> CoreId {
        debug_assert!(x < self.x_cores && y < self.y_cores);
        CoreId((y * self.x_cores + x) as u16)
    }

    /// All core ids. The `u16` cast is lossless: [`ArchConfigBuilder::build`]
    /// refuses more than [`MAX_CORES`] cores.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.n_cores() as u16).map(CoreId)
    }

    /// D2D interfaces on one computing chiplet. Per the template, each
    /// side carries as many interfaces as it has cores; monolithic
    /// designs have none.
    pub fn d2d_per_chiplet(&self) -> u32 {
        if self.is_monolithic() {
            0
        } else {
            let (cx, cy) = self.chiplet_dims();
            2 * (cx + cy)
        }
    }

    /// Number of IO chiplets (one per DRAM stack; merged on-die for
    /// monolithic designs).
    pub fn n_io_chiplets(&self) -> u32 {
        if self.is_monolithic() {
            0
        } else {
            self.dram_count
        }
    }

    /// Edge cores that DRAM `d` attaches to. DRAM stacks alternate
    /// between the west (even) and east (odd) edges; each side is split
    /// into equal row bands among its stacks, mirroring the template's
    /// "DRAM controller connected to multiple routers" (Sec. III).
    pub fn dram_ports(&self, d: u32) -> Vec<Coord> {
        assert!(d < self.dram_count, "DRAM {d} out of range");
        let west = self.dram_count.div_ceil(2);
        let (side_count, nth, x) = if d % 2 == 0 {
            (west, d / 2, 0)
        } else {
            (self.dram_count / 2, d / 2, self.x_cores - 1)
        };
        let rows = self.y_cores;
        let start = nth * rows / side_count;
        let end = (nth + 1) * rows / side_count;
        (start..end)
            .map(|y| Coord {
                x: x as u16,
                y: y as u16,
            })
            .collect()
    }

    /// The paper's architecture tuple: `(ChipletNum, CoreNum, DRAM_BW,
    /// NoC_BW, D2D_BW, GBUF/Core, MAC/Core)`.
    pub fn paper_tuple(&self) -> String {
        let d2d = if self.is_monolithic() {
            "None".to_string()
        } else {
            format!("{}GB/s", self.d2d_bw)
        };
        format!(
            "({}, {}, {}GB/s, {}GB/s, {}, {}KB, {})",
            self.n_chiplets(),
            self.n_cores(),
            self.dram_bw,
            self.noc_bw,
            d2d,
            self.glb_bytes / 1024,
            self.macs_per_core
        )
    }
}

impl std::fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.paper_tuple())
    }
}

/// Builder for [`ArchConfig`]; all setters are chainable.
#[derive(Debug, Clone)]
pub struct ArchConfigBuilder {
    x_cores: u32,
    y_cores: u32,
    xcut: u32,
    ycut: u32,
    noc_bw: f64,
    d2d_bw: f64,
    dram_bw: f64,
    dram_count: u32,
    macs_per_core: u32,
    glb_bytes: u64,
    freq_ghz: f64,
    topology: Topology,
}

impl Default for ArchConfigBuilder {
    fn default() -> Self {
        Self {
            x_cores: 6,
            y_cores: 6,
            xcut: 1,
            ycut: 1,
            noc_bw: 32.0,
            d2d_bw: 16.0,
            dram_bw: 144.0,
            dram_count: 2,
            macs_per_core: 1024,
            glb_bytes: 2 * 1024 * 1024,
            freq_ghz: 1.0,
            topology: Topology::Mesh,
        }
    }
}

impl ArchConfigBuilder {
    /// Sets the core grid dimensions (X, Y).
    pub fn cores(mut self, x: u32, y: u32) -> Self {
        self.x_cores = x;
        self.y_cores = y;
        self
    }

    /// Sets the chiplet divisions (XCut, YCut).
    pub fn cuts(mut self, xcut: u32, ycut: u32) -> Self {
        self.xcut = xcut;
        self.ycut = ycut;
        self
    }

    /// Sets per-link NoC bandwidth (GB/s).
    pub fn noc_bw(mut self, gbps: f64) -> Self {
        self.noc_bw = gbps;
        self
    }

    /// Sets per-link D2D bandwidth (GB/s).
    pub fn d2d_bw(mut self, gbps: f64) -> Self {
        self.d2d_bw = gbps;
        self
    }

    /// Sets total DRAM bandwidth (GB/s).
    pub fn dram_bw(mut self, gbps: f64) -> Self {
        self.dram_bw = gbps;
        self
    }

    /// Sets the number of DRAM stacks.
    pub fn dram_count(mut self, n: u32) -> Self {
        self.dram_count = n;
        self
    }

    /// Sets MACs per core.
    pub fn macs_per_core(mut self, n: u32) -> Self {
        self.macs_per_core = n;
        self
    }

    /// Sets GLB capacity per core in KiB.
    pub fn glb_kb(mut self, kb: u64) -> Self {
        self.glb_bytes = kb * 1024;
        self
    }

    /// Sets the operating frequency in GHz.
    pub fn freq_ghz(mut self, f: f64) -> Self {
        self.freq_ghz = f;
        self
    }

    /// Sets the NoC topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::CutMismatch`] if XCut/YCut do not divide the
    /// core grid (such DSE candidates are invalid per Table I), or
    /// [`ArchError::NonPositive`] for zero-valued parameters.
    pub fn build(self) -> Result<ArchConfig, ArchError> {
        if self.x_cores == 0 || self.y_cores == 0 {
            return Err(ArchError::NonPositive("core count"));
        }
        let cores = self.x_cores as u64 * self.y_cores as u64;
        if cores > MAX_CORES as u64 {
            return Err(ArchError::TooManyCores { cores });
        }
        if self.xcut == 0 || self.ycut == 0 {
            return Err(ArchError::NonPositive("cut count"));
        }
        if self.macs_per_core == 0 {
            return Err(ArchError::NonPositive("MACs per core"));
        }
        if self.glb_bytes == 0 {
            return Err(ArchError::NonPositive("GLB size"));
        }
        if self.noc_bw <= 0.0 || self.d2d_bw <= 0.0 || self.dram_bw <= 0.0 || self.freq_ghz <= 0.0 {
            return Err(ArchError::NonPositive("bandwidth/frequency"));
        }
        if self.dram_count == 0 {
            return Err(ArchError::NonPositive("DRAM count"));
        }
        if self.x_cores % self.xcut != 0 {
            return Err(ArchError::CutMismatch {
                axis: 'X',
                cores: self.x_cores,
                cuts: self.xcut,
            });
        }
        if self.y_cores % self.ycut != 0 {
            return Err(ArchError::CutMismatch {
                axis: 'Y',
                cores: self.y_cores,
                cuts: self.ycut,
            });
        }
        Ok(ArchConfig {
            x_cores: self.x_cores,
            y_cores: self.y_cores,
            xcut: self.xcut,
            ycut: self.ycut,
            noc_bw: self.noc_bw,
            d2d_bw: self.d2d_bw,
            dram_bw: self.dram_bw,
            dram_count: self.dram_count,
            macs_per_core: self.macs_per_core,
            glb_bytes: self.glb_bytes,
            freq_ghz: self.freq_ghz,
            topology: self.topology,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch_2x2() -> ArchConfig {
        ArchConfig::builder()
            .cores(6, 6)
            .cuts(2, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_cuts() {
        let r = ArchConfig::builder().cores(6, 6).cuts(4, 1).build();
        assert!(matches!(r, Err(ArchError::CutMismatch { axis: 'X', .. })));
        let r = ArchConfig::builder().cores(6, 6).cuts(1, 5).build();
        assert!(matches!(r, Err(ArchError::CutMismatch { axis: 'Y', .. })));
    }

    #[test]
    fn builder_refuses_more_cores_than_core_ids_can_index() {
        let r = ArchConfig::builder().cores(256, 256).cuts(1, 1).build();
        assert_eq!(r, Err(ArchError::TooManyCores { cores: 65_536 }));
        let e = r.unwrap_err().to_string();
        assert!(e.contains("65536 cores exceed the limit of 65535"), "{e}");
        // A product that overflows u32 is still refused, not wrapped.
        let r = ArchConfig::builder().cores(1 << 16, 1 << 16).build();
        assert!(matches!(r, Err(ArchError::TooManyCores { .. })));
        let a = ArchConfig::builder().cores(MAX_CORES, 1).build().unwrap();
        assert_eq!(a.cores().count(), MAX_CORES as usize);
    }

    #[test]
    fn builder_rejects_zero() {
        assert!(ArchConfig::builder().cores(0, 6).build().is_err());
        assert!(ArchConfig::builder().macs_per_core(0).build().is_err());
    }

    #[test]
    fn tops_matches_paper_simba_point() {
        // 36 cores x 1024 MACs x 2 ops @1GHz = 73.7 TOPS ("72 TOPs" in
        // the paper's rounding).
        let a = arch_2x2();
        assert!((a.tops() - 73.728).abs() < 0.01);
    }

    #[test]
    fn chiplet_membership() {
        let a = arch_2x2();
        assert_eq!(a.chiplet_dims(), (3, 3));
        assert_eq!(a.chiplet_of(Coord { x: 0, y: 0 }), 0);
        assert_eq!(a.chiplet_of(Coord { x: 3, y: 0 }), 1);
        assert_eq!(a.chiplet_of(Coord { x: 0, y: 3 }), 2);
        assert_eq!(a.chiplet_of(Coord { x: 5, y: 5 }), 3);
    }

    #[test]
    fn d2d_boundaries() {
        let a = arch_2x2();
        assert!(a.is_d2d_h(2), "link between col 2 and 3 crosses the cut");
        assert!(!a.is_d2d_h(1));
        assert!(a.is_d2d_v(2));
        assert!(!a.is_d2d_v(3));
        let mono = ArchConfig::builder()
            .cores(6, 6)
            .cuts(1, 1)
            .build()
            .unwrap();
        assert!(!mono.is_d2d_h(2));
        assert!(mono.is_monolithic());
        assert_eq!(mono.d2d_per_chiplet(), 0);
    }

    #[test]
    fn coord_roundtrip() {
        let a = arch_2x2();
        for id in a.cores() {
            let c = a.coord(id);
            assert_eq!(a.core_at(c.x as u32, c.y as u32), id);
        }
    }

    #[test]
    fn dram_ports_cover_both_edges() {
        let a = arch_2x2();
        let p0 = a.dram_ports(0);
        let p1 = a.dram_ports(1);
        assert!(p0.iter().all(|c| c.x == 0));
        assert!(p1.iter().all(|c| c.x == 5));
        assert_eq!(p0.len(), 6);
        assert_eq!(p1.len(), 6);
    }

    #[test]
    fn dram_ports_band_split_with_four_stacks() {
        let a = ArchConfig::builder()
            .cores(8, 8)
            .cuts(2, 2)
            .dram_count(4)
            .build()
            .unwrap();
        let p0 = a.dram_ports(0);
        let p2 = a.dram_ports(2);
        assert_eq!(p0.len(), 4);
        assert_eq!(p2.len(), 4);
        assert!(p0.iter().all(|c| c.y < 4));
        assert!(p2.iter().all(|c| c.y >= 4));
    }

    #[test]
    fn paper_tuple_format() {
        let a = crate::presets::g_arch_72();
        assert_eq!(
            a.paper_tuple(),
            "(2, 36, 144GB/s, 32GB/s, 16GB/s, 2048KB, 1024)"
        );
        let mono = ArchConfig::builder()
            .cores(4, 4)
            .cuts(1, 1)
            .build()
            .unwrap();
        assert!(mono.paper_tuple().contains("None"));
    }

    #[test]
    fn d2d_interface_count() {
        let a = arch_2x2();
        // 3x3 chiplet: 2*(3+3) = 12 interfaces.
        assert_eq!(a.d2d_per_chiplet(), 12);
    }
}
