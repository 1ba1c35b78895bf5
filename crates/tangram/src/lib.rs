//! Tangram-style baseline mapping (the paper's T-Map, Sec. VI-A4).
//!
//! Tangram is the SOTA layer-pipeline baseline the paper compares
//! against: the same DP graph partitioner Gemini adopts, combined with
//! the heuristic stripe-based spatial mapping — each layer gets a
//! FLOPs-proportional, consecutive, rectangle-like group of cores with
//! its feature map striped along H, and all explicit flows interleaved
//! across DRAM controllers. No simulated annealing.
//!
//! The building blocks live in `gemini-core` (Gemini uses the stripe
//! scheme as its SA initial state); this crate packages them as the
//! standalone baseline used throughout the benches, and provides the
//! side-by-side comparison helper the figures are built from.
//!
//! # Example
//!
//! ```
//! use gemini_tangram::TangramMapper;
//! use gemini_sim::Evaluator;
//!
//! let dnn = gemini_model::zoo::tiny_resnet();
//! let arch = gemini_arch::presets::g_arch_72();
//! let ev = Evaluator::new(&arch);
//! let mapped = TangramMapper::new(&ev).map(&dnn, 4);
//! assert!(mapped.report.delay_s > 0.0);
//! ```

use gemini_core::engine::{MappedDnn, MappingEngine, MappingOptions};
use gemini_core::partition::PartitionOptions;
use gemini_core::sa::SaOptions;
use gemini_model::Dnn;
use gemini_sim::{DnnReport, Evaluator};

/// The Tangram baseline mapper (DP partition + stripe SPM, no SA).
#[derive(Debug)]
pub struct TangramMapper<'a> {
    ev: &'a Evaluator,
    partition: PartitionOptions,
}

impl<'a> TangramMapper<'a> {
    /// Creates a mapper for an evaluator.
    pub fn new(ev: &'a Evaluator) -> Self {
        Self {
            ev,
            partition: PartitionOptions::default(),
        }
    }

    /// Overrides the partitioner options.
    pub fn with_partition(mut self, p: PartitionOptions) -> Self {
        self.partition = p;
        self
    }

    /// Maps a DNN with the Tangram heuristic.
    pub fn map(&self, dnn: &Dnn, batch: u32) -> MappedDnn {
        let opts = MappingOptions {
            partition: self.partition.clone(),
            ..Default::default()
        };
        MappingEngine::new(self.ev).map_stripe(dnn, batch, &opts)
    }
}

/// A side-by-side mapping comparison on one architecture.
#[derive(Debug, Clone)]
pub struct MapComparison {
    /// Tangram (stripe) result.
    pub tangram: ComparisonSide,
    /// Gemini (SA) result.
    pub gemini: ComparisonSide,
    /// SA run statistics of the Gemini side (move, memo-cache and
    /// incremental-evaluation counters).
    pub gemini_stats: Option<gemini_core::sa::SaStats>,
}

/// One side of a comparison.
#[derive(Debug, Clone)]
pub struct ComparisonSide {
    /// End-to-end delay (s).
    pub delay_s: f64,
    /// Total energy (J).
    pub energy_j: f64,
    /// Total NoC+D2D byte-hops per stage, summed over groups.
    pub hop_bytes: f64,
    /// D2D byte-hops per stage, summed over groups.
    pub d2d_hop_bytes: f64,
}

impl MapComparison {
    /// Delay improvement of Gemini over Tangram.
    pub fn speedup(&self) -> f64 {
        self.tangram.delay_s / self.gemini.delay_s
    }

    /// Energy-efficiency improvement of Gemini over Tangram.
    pub fn energy_gain(&self) -> f64 {
        self.tangram.energy_j / self.gemini.energy_j
    }

    /// Reduction of total hop count (the Fig.-9 "total hop count
    /// decreases by 34.2%" metric), as a fraction of Tangram's.
    pub fn hop_reduction(&self) -> f64 {
        1.0 - self.gemini.hop_bytes / self.tangram.hop_bytes
    }

    /// Reduction of D2D hop bytes.
    pub fn d2d_reduction(&self) -> f64 {
        1.0 - self.gemini.d2d_hop_bytes / self.tangram.d2d_hop_bytes.max(f64::MIN_POSITIVE)
    }
}

fn side(r: &DnnReport, ev: &Evaluator) -> ComparisonSide {
    let net = ev.network();
    let mut hop = 0.0;
    let mut d2d = 0.0;
    for g in &r.groups {
        hop += g.traffic.total_hop_bytes();
        d2d += g.traffic.d2d_hop_bytes(net);
    }
    ComparisonSide {
        delay_s: r.delay_s,
        energy_j: r.energy.total(),
        hop_bytes: hop,
        d2d_hop_bytes: d2d,
    }
}

/// Runs T-Map and G-Map on the same (architecture, DNN, batch) and
/// reports both.
///
/// Without `sa.bound_seed`, SA starts from the stripe scheme of every
/// group of the same partition, so the start's report is the T-Map's,
/// bit for bit ([`MappingEngine::map_with_start`]): one partition and
/// one cold evaluation serve both sides.
pub fn compare_mappings(ev: &Evaluator, dnn: &Dnn, batch: u32, sa: &SaOptions) -> MapComparison {
    let engine = MappingEngine::new(ev);
    let opts = MappingOptions {
        sa: sa.clone(),
        ..Default::default()
    };
    let (g, start) = engine.map_with_start(dnn, batch, &opts);
    let tangram = if sa.bound_seed {
        side(&engine.map_stripe(dnn, batch, &opts).report, ev)
    } else {
        side(&start, ev)
    };
    MapComparison {
        tangram,
        gemini: side(&g.report, ev),
        gemini_stats: g.sa_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;
    use gemini_model::zoo;

    #[test]
    fn tangram_maps_every_workload() {
        let arch = presets::simba_s_arch();
        let ev = Evaluator::new(&arch);
        let mapper = TangramMapper::new(&ev);
        for dnn in [zoo::tiny_resnet(), zoo::two_conv_example()] {
            let m = mapper.map(&dnn, 4);
            assert!(m.report.delay_s > 0.0, "{}", dnn.name());
            assert!(m.sa_stats.is_none(), "T-Map must not anneal");
            for gm in m.group_mappings(&dnn) {
                gm.validate(&dnn).unwrap();
            }
        }
    }

    #[test]
    fn gemini_beats_tangram_on_chiplet_arch() {
        // The paper's central mapping claim, on the chiplet-heavy
        // S-Arch where D2D avoidance matters most.
        let arch = presets::simba_s_arch();
        let ev = Evaluator::new(&arch);
        let sa = SaOptions {
            iters: 400,
            seed: 11,
            ..Default::default()
        };
        let cmp = compare_mappings(&ev, &zoo::tiny_resnet(), 8, &sa);
        assert!(
            cmp.speedup() >= 1.0,
            "G-Map should not be slower: speedup {}",
            cmp.speedup()
        );
        assert!(cmp.gemini.energy_j <= cmp.tangram.energy_j * 1.001);
    }

    #[test]
    fn comparison_metrics_consistent() {
        let arch = presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let sa = SaOptions {
            iters: 100,
            seed: 2,
            ..Default::default()
        };
        let cmp = compare_mappings(&ev, &zoo::two_conv_example(), 2, &sa);
        assert!(cmp.tangram.hop_bytes > 0.0);
        assert!(cmp.hop_reduction() <= 1.0);
        assert!(cmp.speedup() > 0.0);
    }
}
