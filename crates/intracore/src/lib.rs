//! Intra-core dataflow exploration (the "Intra-core Exploration Engine"
//! of Fig. 4 in the paper).
//!
//! After the LP-SPM analyzer fixes each layer's `Part` attribute, every
//! core holds a *partitioned workload* — an output tile of the layer plus
//! the reduction it implies. This crate performs the exhaustive tiling +
//! loop-order search the paper describes ("exhaustive search optimization
//! for tiling and loop reorder like many existing works"), for the
//! NVDLA-style core of the template: a PE array of `macs` int8 MACs fed
//! from the core's global buffer (GLB).
//!
//! The search enumerates
//! * the output-channel tile `tk`,
//! * the reduction-channel tile `tc`,
//! * and the loop order ([`Order::WeightStationary`] vs
//!   [`Order::OutputStationary`]),
//!
//! and returns the schedule minimizing compute/GLB-bounded cycles, then
//! GLB traffic (the energy proxy). Results are memoized per workload
//! shape — the same (layer, Part) pair is re-evaluated thousands of times
//! during simulated annealing.
//!
//! # Example
//!
//! ```
//! use gemini_intracore::{CoreParams, IntraCoreExplorer, PartWorkload};
//!
//! let explorer = IntraCoreExplorer::new(CoreParams::from_arch(1024, 2 << 20));
//! // A 28x28x64 output tile of a 3x3x128 conv, one sample.
//! let wl = PartWorkload {
//!     h: 28, w: 28, k: 64, b: 1,
//!     red_c: 128, kernel_elems: 9,
//!     weight_bytes: 9 * 128 * 64,
//!     in_bytes: 30 * 30 * 128,
//!     vector_ops: 28 * 28 * 64,
//! };
//! let r = explorer.explore(&wl);
//! assert!(r.cycles >= wl.total_macs() / 1024, "cannot beat peak");
//! ```

use std::collections::HashMap;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Loop order of the PE-array schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Order {
    /// Weights stay in the array across the spatial sweep; partial sums
    /// spill to the GLB between reduction-channel tiles.
    WeightStationary,
    /// Partial sums stay in the array across the full reduction; weights
    /// are re-streamed per spatial tile.
    OutputStationary,
    /// Input activations stay in the array across the output-channel
    /// sweep; weights are re-streamed per spatial tile and partial sums
    /// spill between reduction-channel tiles. Favourable when ifmaps
    /// dominate (early layers, large halos).
    InputStationary,
}

impl Order {
    /// All loop orders the explorer knows, in default search order.
    pub const ALL: [Order; 3] = [
        Order::WeightStationary,
        Order::OutputStationary,
        Order::InputStationary,
    ];
}

/// Static parameters of one computing core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreParams {
    /// MACs in the PE array.
    pub macs: u32,
    /// GLB capacity in bytes.
    pub glb_bytes: u64,
    /// GLB-to-array bandwidth in bytes per cycle.
    pub glb_bytes_per_cycle: f64,
    /// Vector-unit lanes (ops per cycle).
    pub vector_lanes: u32,
}

impl CoreParams {
    /// Derives core parameters from the architecture knobs the paper
    /// sweeps: GLB bandwidth scales with the array so larger arrays do
    /// not starve (64 B/cycle per 1024 MACs, floor 32).
    pub fn from_arch(macs: u32, glb_bytes: u64) -> Self {
        Self {
            macs,
            glb_bytes,
            glb_bytes_per_cycle: (macs as f64 / 16.0).max(32.0),
            vector_lanes: (macs / 16).max(8),
        }
    }
}

/// A partitioned workload: the output tile one core computes for one
/// layer during one pipeline stage, plus its reduction structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PartWorkload {
    /// Output tile height.
    pub h: u32,
    /// Output tile width.
    pub w: u32,
    /// Output tile channels.
    pub k: u32,
    /// Samples in the tile.
    pub b: u32,
    /// Reduction channels (conv: `cin/groups`; matmul: `k_dim`; vector
    /// layers: 0).
    pub red_c: u32,
    /// Spatial reduction footprint per channel (conv: `R*S`, else 1).
    pub kernel_elems: u32,
    /// Weight bytes this tile needs (its output-channel slice).
    pub weight_bytes: u64,
    /// Ifmap bytes this tile needs (halo included).
    pub in_bytes: u64,
    /// Vector-unit operations in the tile.
    pub vector_ops: u64,
}

impl PartWorkload {
    /// Output elements of the tile.
    pub fn out_elems(&self) -> u64 {
        self.h as u64 * self.w as u64 * self.k as u64 * self.b as u64
    }

    /// Total MAC operations of the tile.
    pub fn total_macs(&self) -> u64 {
        self.out_elems() * self.red_c as u64 * self.kernel_elems as u64
    }

    /// Whether the tile has a MAC-type reduction at all.
    pub fn is_vector_only(&self) -> bool {
        self.red_c == 0
    }
}

/// Result of the intra-core search for one partitioned workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntraCoreResult {
    /// Cycles to process the tile (max of compute, GLB and vector time).
    pub cycles: u64,
    /// GLB <-> PE-array traffic in bytes (ifmap + weight + psum spills).
    pub glb_bytes: u64,
    /// MACs executed.
    pub macs: u64,
    /// Vector ops executed.
    pub vector_ops: u64,
    /// Chosen output-channel tile.
    pub tk: u32,
    /// Chosen reduction-channel tile.
    pub tc: u32,
    /// Chosen loop order.
    pub order: Order,
    /// Whether the tile's full weight slice fits in half the GLB (the
    /// other half double-buffers feature maps); if not, the global
    /// evaluator must re-stream weights from DRAM every pipeline round.
    pub weights_fit_glb: bool,
}

/// Bytes per partial sum held in / spilled from the array (int32).
const PSUM_BYTES: u64 = 4;

/// Memoizing intra-core explorer.
#[derive(Debug)]
pub struct IntraCoreExplorer {
    core: CoreParams,
    orders: Vec<Order>,
    cache: RwLock<HashMap<PartWorkload, IntraCoreResult>>,
}

impl IntraCoreExplorer {
    /// Creates an explorer searching all loop orders.
    pub fn new(core: CoreParams) -> Self {
        Self::with_orders(core, Order::ALL.to_vec())
    }

    /// Creates an explorer restricted to a subset of loop orders (the
    /// dataflow-ablation study; see the `ablation_dataflow` bench).
    ///
    /// # Panics
    ///
    /// Panics if `orders` is empty.
    pub fn with_orders(core: CoreParams, orders: Vec<Order>) -> Self {
        assert!(!orders.is_empty(), "at least one loop order required");
        Self {
            core,
            orders,
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// The core parameters.
    pub fn core(&self) -> &CoreParams {
        &self.core
    }

    /// The loop orders this explorer searches.
    pub fn orders(&self) -> &[Order] {
        &self.orders
    }

    /// Number of memoized schedules.
    pub fn cache_len(&self) -> usize {
        self.cache.read().len()
    }

    /// Explores tiling and loop order for a workload, memoized.
    pub fn explore(&self, wl: &PartWorkload) -> IntraCoreResult {
        if let Some(r) = self.cache.read().get(wl) {
            return *r;
        }
        let r = self.search(wl);
        self.cache.write().insert(*wl, r);
        r
    }

    fn search(&self, wl: &PartWorkload) -> IntraCoreResult {
        let weights_fit_glb = wl.weight_bytes <= self.core.glb_bytes / 2;
        if wl.is_vector_only() {
            // Pool / eltwise / activation / concat tiles: vector unit and
            // GLB streaming only.
            let glb = wl.in_bytes + wl.out_elems();
            let vcycles = wl.vector_ops.div_ceil(self.core.vector_lanes as u64);
            let gcycles = (glb as f64 / self.core.glb_bytes_per_cycle).ceil() as u64;
            return IntraCoreResult {
                cycles: vcycles.max(gcycles),
                glb_bytes: glb,
                macs: 0,
                vector_ops: wl.vector_ops,
                tk: wl.k,
                tc: 0,
                order: Order::OutputStationary,
                weights_fit_glb,
            };
        }

        let mut best: Option<IntraCoreResult> = None;
        for tk in tile_candidates(wl.k) {
            for tc in tile_candidates(wl.red_c) {
                for &order in &self.orders {
                    if let Some(c) = self.evaluate(wl, tk, tc, order) {
                        let better = match &best {
                            None => true,
                            Some(b) => (c.cycles, c.glb_bytes) < (b.cycles, b.glb_bytes),
                        };
                        if better {
                            best = Some(c);
                        }
                    }
                }
            }
        }
        let mut r = best.expect("tile candidates always include (1,1)");
        r.weights_fit_glb = weights_fit_glb;
        r
    }

    /// Evaluates one (tk, tc, order) point; `None` if it violates the
    /// array-parallelism constraint.
    fn evaluate(
        &self,
        wl: &PartWorkload,
        tk: u32,
        tc: u32,
        order: Order,
    ) -> Option<IntraCoreResult> {
        let macs = self.core.macs as u64;
        let spatial = wl.h as u64 * wl.w as u64 * wl.b as u64;
        let k_tiles = (wl.k as u64).div_ceil(tk as u64);
        let c_tiles = (wl.red_c as u64).div_ceil(tc as u64);
        let out_elems = wl.out_elems();
        let kernel = wl.kernel_elems as u64;

        let (compute_cycles, glb_bytes) = match order {
            Order::WeightStationary => {
                if (tk as u64) * (tc as u64) > macs {
                    return None;
                }
                // Weights resident per (tk, tc) tile across the spatial
                // sweep: each weight byte crosses the GLB port once.
                let weight_rd = wl.weight_bytes;
                // Ifmap re-read once per output-channel tile.
                let if_rd = wl.in_bytes * k_tiles;
                // Psums spill between reduction-channel tiles; final
                // result written back once as int8.
                let psum = if c_tiles > 1 {
                    out_elems * PSUM_BYTES * 2 * (c_tiles - 1)
                } else {
                    0
                } + out_elems;
                // One cycle per (spatial point x kernel element) per
                // (tk x tc) tile: tk*tc MACs fire each cycle.
                let cycles = k_tiles * c_tiles * kernel * spatial;
                (cycles, weight_rd + if_rd + psum)
            }
            Order::OutputStationary => {
                if tk as u64 > macs {
                    return None;
                }
                // Array holds tk x t_sp partial sums for the entire
                // reduction of one spatial tile.
                let t_sp = (macs / tk as u64).max(1);
                let sp_tiles = spatial.div_ceil(t_sp);
                let weight_rd = wl.weight_bytes * sp_tiles;
                let if_rd = wl.in_bytes * k_tiles;
                let psum = out_elems; // final write only
                                      // Per spatial tile, the full reduction streams red_c *
                                      // kernel input elements per lane.
                let cycles = sp_tiles * k_tiles * wl.red_c as u64 * kernel;
                (cycles, weight_rd + if_rd + psum)
            }
            Order::InputStationary => {
                // Array holds tc x t_sp input activations across the
                // whole output-channel sweep; tk plays no role (skip
                // non-canonical tk values to avoid duplicate points).
                if tc as u64 > macs || tk != wl.k {
                    return None;
                }
                let t_sp = (macs / tc as u64).max(1);
                let sp_tiles = spatial.div_ceil(t_sp);
                // Inputs cross the GLB port exactly once.
                let if_rd = wl.in_bytes;
                // Weights re-stream for every resident spatial tile.
                let weight_rd = wl.weight_bytes * sp_tiles;
                // Partial sums spill between reduction-channel tiles.
                let psum = if c_tiles > 1 {
                    out_elems * PSUM_BYTES * 2 * (c_tiles - 1)
                } else {
                    0
                } + out_elems;
                // Per (spatial, channel) tile the array sweeps all k
                // output channels over the kernel footprint.
                let cycles = sp_tiles * c_tiles * wl.k as u64 * kernel;
                (cycles, weight_rd + if_rd + psum)
            }
        };

        let glb_cycles = (glb_bytes as f64 / self.core.glb_bytes_per_cycle).ceil() as u64;
        let vcycles = wl.vector_ops.div_ceil(self.core.vector_lanes as u64);
        Some(IntraCoreResult {
            cycles: compute_cycles.max(glb_cycles).max(vcycles),
            glb_bytes,
            macs: wl.total_macs(),
            vector_ops: wl.vector_ops,
            tk,
            tc,
            order,
            weights_fit_glb: false, // filled by caller
        })
    }
}

/// Tile-size candidates for a dimension, ascending: powers of two below
/// `n`, plus `n` itself (1 for a zero `n`). The doubling is checked, so
/// above `2^31` the powers stop there instead of wrapping to 0 and
/// repeating forever.
fn tile_candidates(n: u32) -> impl Iterator<Item = u32> {
    std::iter::successors(Some(1u32), |t| t.checked_mul(2))
        .take_while(move |&t| t < n)
        .chain(std::iter::once(n.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core1k() -> IntraCoreExplorer {
        IntraCoreExplorer::new(CoreParams::from_arch(1024, 2 << 20))
    }

    fn conv_tile() -> PartWorkload {
        PartWorkload {
            h: 28,
            w: 28,
            k: 64,
            b: 1,
            red_c: 128,
            kernel_elems: 9,
            weight_bytes: 9 * 128 * 64,
            in_bytes: 30 * 30 * 128,
            vector_ops: 28 * 28 * 64,
        }
    }

    #[test]
    fn cycles_bounded_by_peak() {
        let e = core1k();
        let wl = conv_tile();
        let r = e.explore(&wl);
        let peak = wl.total_macs() / 1024;
        assert!(r.cycles >= peak, "cycles {} below peak {}", r.cycles, peak);
        // The search should get within 4x of peak for this friendly shape.
        assert!(
            r.cycles <= peak * 4,
            "cycles {} too far from peak {}",
            r.cycles,
            peak
        );
    }

    #[test]
    fn full_tile_reaches_peak_when_divisible() {
        // k=64, red_c=16 -> tk*tc = 1024 exactly fits the array under WS.
        let e = core1k();
        let wl = PartWorkload {
            h: 16,
            w: 16,
            k: 64,
            b: 1,
            red_c: 16,
            kernel_elems: 1,
            weight_bytes: 16 * 64,
            in_bytes: 16 * 16 * 16,
            vector_ops: 0,
        };
        let r = e.explore(&wl);
        let peak = wl.total_macs() / 1024;
        assert_eq!(r.macs, wl.total_macs());
        assert!(r.cycles >= peak);
    }

    #[test]
    fn vector_only_workloads_use_vector_unit() {
        let e = core1k();
        let wl = PartWorkload {
            h: 56,
            w: 56,
            k: 64,
            b: 1,
            red_c: 0,
            kernel_elems: 1,
            weight_bytes: 0,
            in_bytes: 56 * 56 * 64,
            vector_ops: 9 * 56 * 56 * 64, // 3x3 pool
        };
        let r = e.explore(&wl);
        assert_eq!(r.macs, 0);
        assert!(r.cycles > 0);
        assert_eq!(r.vector_ops, wl.vector_ops);
    }

    #[test]
    fn memoization_hits() {
        let e = core1k();
        let wl = conv_tile();
        let a = e.explore(&wl);
        assert_eq!(e.cache_len(), 1);
        let b = e.explore(&wl);
        assert_eq!(e.cache_len(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn bigger_array_is_not_slower() {
        let small = IntraCoreExplorer::new(CoreParams::from_arch(512, 2 << 20));
        let big = IntraCoreExplorer::new(CoreParams::from_arch(4096, 2 << 20));
        let wl = conv_tile();
        assert!(big.explore(&wl).cycles <= small.explore(&wl).cycles);
    }

    #[test]
    fn weight_residency_flag() {
        let e = core1k();
        let mut wl = conv_tile();
        wl.weight_bytes = 4 << 20; // 4 MiB > half of 2 MiB GLB
        assert!(!e.explore(&wl).weights_fit_glb);
        wl.weight_bytes = 64 << 10;
        assert!(e.explore(&wl).weights_fit_glb);
    }

    #[test]
    fn weights_cross_glb_at_least_once() {
        let e = IntraCoreExplorer::new(CoreParams::from_arch(64, 1 << 20));
        let wl = PartWorkload {
            h: 8,
            w: 8,
            k: 256,
            b: 1,
            red_c: 2048,
            kernel_elems: 1,
            weight_bytes: 2048 * 256,
            in_bytes: 8 * 8 * 2048,
            vector_ops: 0,
        };
        let r = e.explore(&wl);
        assert!(r.glb_bytes >= wl.weight_bytes);
    }

    #[test]
    fn tile_candidates_cover_dim() {
        let all = |n| tile_candidates(n).collect::<Vec<u32>>();
        assert_eq!(all(0), vec![1]);
        assert_eq!(all(1), vec![1]);
        assert_eq!(all(8), vec![1, 2, 4, 8]);
        assert_eq!(all(6), vec![1, 2, 4, 6]);
    }

    #[test]
    fn tile_candidates_terminate_above_2_pow_31() {
        let all: Vec<u32> = tile_candidates(u32::MAX).collect();
        assert_eq!(all.len(), 33);
        assert!(all.windows(2).all(|p| p[0] < p[1]), "{all:?}");
        assert_eq!(all[31], 1 << 31);
        assert_eq!(all.last(), Some(&u32::MAX));
        let top: Vec<u32> = tile_candidates(1 << 31).collect();
        assert_eq!(top.len(), 32);
        assert_eq!(top[30], 1 << 30);
        assert_eq!(top.last(), Some(&(1 << 31)));
    }

    #[test]
    fn total_macs_helper_consistent() {
        let wl = conv_tile();
        assert_eq!(wl.total_macs(), wl.out_elems() * 128 * 9);
    }

    #[test]
    fn degenerate_single_element_tile() {
        let e = core1k();
        let wl = PartWorkload {
            h: 1,
            w: 1,
            k: 1,
            b: 1,
            red_c: 1,
            kernel_elems: 1,
            weight_bytes: 1,
            in_bytes: 1,
            vector_ops: 1,
        };
        let r = e.explore(&wl);
        assert!(r.cycles >= 1);
        assert_eq!(r.macs, 1);
    }

    /// The shape where input-stationary provably wins: more output
    /// channels than MACs (so WS cannot reach `k_tiles = 1` without
    /// spilling psums) over a tiny spatial extent (so IS holds all
    /// inputs resident in one array tile).
    fn wide_pointwise_tile() -> PartWorkload {
        PartWorkload {
            h: 4,
            w: 4,
            k: 4096,
            b: 1,
            red_c: 64,
            kernel_elems: 1,
            weight_bytes: 64 * 4096,
            in_bytes: 4 * 4 * 64,
            vector_ops: 0,
        }
    }

    #[test]
    fn input_stationary_exact_accounting_when_everything_fits() {
        // tc = red_c = 64 and spatial (16) <= t_sp (1024/64 = 16): one
        // resident tile, so GLB traffic is exactly inputs + weights +
        // final outputs, and cycles hit the array's peak.
        let e = IntraCoreExplorer::with_orders(
            CoreParams::from_arch(1024, 2 << 20),
            vec![Order::InputStationary],
        );
        let wl = wide_pointwise_tile();
        let r = e.explore(&wl);
        assert_eq!(r.order, Order::InputStationary);
        assert_eq!(
            r.glb_bytes,
            wl.in_bytes + wl.weight_bytes + wl.out_elems(),
            "one-tile IS traffic must be inputs + weights + outputs"
        );
        // This tile is GLB-stream-bound: cycles = max(MAC peak, traffic /
        // port width) = 328704 B / 64 B-per-cycle.
        let peak = wl.total_macs() / 1024;
        let glb_bound = (r.glb_bytes as f64 / 64.0).ceil() as u64;
        assert_eq!(r.cycles, peak.max(glb_bound));
    }

    #[test]
    fn full_search_never_loses_to_restricted_search() {
        let full = core1k();
        for orders in [
            vec![Order::WeightStationary],
            vec![Order::OutputStationary],
            vec![Order::InputStationary],
        ] {
            let restricted =
                IntraCoreExplorer::with_orders(CoreParams::from_arch(1024, 2 << 20), orders);
            for wl in [conv_tile(), wide_pointwise_tile()] {
                let rf = full.explore(&wl);
                let rr = restricted.explore(&wl);
                assert!(
                    (rf.cycles, rf.glb_bytes) <= (rr.cycles, rr.glb_bytes),
                    "full search must dominate: {:?} vs {:?}",
                    (rf.cycles, rf.glb_bytes),
                    (rr.cycles, rr.glb_bytes)
                );
            }
        }
    }

    #[test]
    fn wide_pointwise_shape_prefers_input_stationary() {
        // k = 4096 > 1024 MACs: WS either re-reads inputs (k_tiles >= 4)
        // or spills psums (tc < red_c); IS reads everything once. The
        // full search must therefore pick IS for this shape.
        let p = CoreParams::from_arch(1024, 2 << 20);
        let ws = IntraCoreExplorer::with_orders(p, vec![Order::WeightStationary]);
        let is = IntraCoreExplorer::with_orders(p, vec![Order::InputStationary]);
        let wl = wide_pointwise_tile();
        let r_ws = ws.explore(&wl);
        let r_is = is.explore(&wl);
        assert!(
            r_is.glb_bytes < r_ws.glb_bytes,
            "IS {} must beat WS {} on this shape",
            r_is.glb_bytes,
            r_ws.glb_bytes
        );
        let full = core1k();
        assert_eq!(full.explore(&wl).order, Order::InputStationary);
    }

    #[test]
    fn orders_accessor_reports_search_set() {
        let e = core1k();
        assert_eq!(e.orders(), &Order::ALL);
        let w = IntraCoreExplorer::with_orders(
            CoreParams::from_arch(512, 1 << 20),
            vec![Order::OutputStationary],
        );
        assert_eq!(w.orders(), &[Order::OutputStationary]);
    }

    #[test]
    #[should_panic(expected = "at least one loop order")]
    fn empty_order_set_rejected() {
        let _ = IntraCoreExplorer::with_orders(CoreParams::from_arch(512, 1 << 20), vec![]);
    }

    #[test]
    fn is_cycles_respect_peak() {
        let e = IntraCoreExplorer::with_orders(
            CoreParams::from_arch(1024, 2 << 20),
            vec![Order::InputStationary],
        );
        let wl = wide_pointwise_tile();
        let r = e.explore(&wl);
        assert!(
            r.cycles >= wl.total_macs() / 1024,
            "cannot beat the array's peak"
        );
    }
}
