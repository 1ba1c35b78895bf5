//! Energy model.
//!
//! Per-operation energies follow the published orderings the paper's
//! conclusions rest on: DRAM >> D2D >> NoC ~ GLB >> MAC. The NoC router
//! energy is constant per flit regardless of traffic pattern, as the
//! paper argues citing Orion. Two D2D models are provided (Sec. V-B2):
//! GRS-style clock-forwarding links whose energy is proportional to
//! traffic (default, matching the Simba baseline), and SerDes-style
//! clock-embedded links that burn power whenever on.

use serde::{Deserialize, Serialize};

/// How D2D link energy is computed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum D2dEnergyModel {
    /// Clock-forwarding (GRS / UCIe): energy = volume x pJ/byte.
    GrsVolume,
    /// Clock-embedded (SerDes): energy = #interfaces x power x latency.
    SerdesPower {
        /// Power of one D2D interface in watts.
        watts_per_interface: f64,
    },
}

/// Per-component energy constants (picojoules).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// One int8 MAC (incl. PE-array register movement).
    pub mac_pj: f64,
    /// One vector-unit op.
    pub vector_pj: f64,
    /// GLB access per byte at the 1 MiB reference capacity.
    pub glb_pj_per_byte_ref: f64,
    /// GLB energy scales with `(capacity / 1 MiB)^exp` (CACTI-like).
    pub glb_cap_exp: f64,
    /// NoC energy per byte per hop (router + wire).
    pub noc_pj_per_byte_hop: f64,
    /// D2D energy per byte (GRS-style volume model).
    pub d2d_pj_per_byte: f64,
    /// DRAM access energy per byte (GDDR6 class).
    pub dram_pj_per_byte: f64,
    /// D2D energy model selection.
    pub d2d_model: D2dEnergyModel,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            mac_pj: 0.25,
            vector_pj: 0.2,
            glb_pj_per_byte_ref: 0.8,
            glb_cap_exp: 0.3,
            noc_pj_per_byte_hop: 0.6,
            d2d_pj_per_byte: 7.0,
            dram_pj_per_byte: 80.0,
            d2d_model: D2dEnergyModel::GrsVolume,
        }
    }
}

impl EnergyModel {
    /// GLB energy per byte for a given capacity.
    pub fn glb_pj_per_byte(&self, glb_bytes: u64) -> f64 {
        let ratio = glb_bytes as f64 / (1024.0 * 1024.0);
        self.glb_pj_per_byte_ref * ratio.powf(self.glb_cap_exp)
    }
}

/// Energy breakdown in joules, matching the stacks of Figs. 5, 7 and 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EnergyBreakdown {
    /// PE-array MAC energy.
    pub mac: f64,
    /// Vector-unit energy.
    pub vector: f64,
    /// GLB access energy.
    pub glb: f64,
    /// On-chip NoC (router + wire) energy.
    pub noc: f64,
    /// D2D link energy.
    pub d2d: f64,
    /// DRAM access energy.
    pub dram: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.mac + self.vector + self.glb + self.noc + self.d2d + self.dram
    }

    /// "Intra-tile" energy in the paper's Fig.-5 grouping: everything
    /// inside a core (MAC + vector + GLB).
    pub fn intra_tile(&self) -> f64 {
        self.mac + self.vector + self.glb
    }

    /// "Network" energy in the paper's Fig.-5 grouping: NoC + D2D.
    pub fn network(&self) -> f64 {
        self.noc + self.d2d
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &EnergyBreakdown) {
        self.mac += other.mac;
        self.vector += other.vector;
        self.glb += other.glb;
        self.noc += other.noc;
        self.d2d += other.d2d;
        self.dram += other.dram;
    }

    /// Element-wise scale.
    pub fn scaled(&self, s: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            mac: self.mac * s,
            vector: self.vector * s,
            glb: self.glb * s,
            noc: self.noc * s,
            d2d: self.d2d * s,
            dram: self.dram * s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ordering_holds() {
        let e = EnergyModel::default();
        assert!(e.dram_pj_per_byte > e.d2d_pj_per_byte);
        assert!(e.d2d_pj_per_byte > e.noc_pj_per_byte_hop);
        assert!(e.noc_pj_per_byte_hop > e.mac_pj);
    }

    #[test]
    fn glb_energy_scales_with_capacity() {
        let e = EnergyModel::default();
        let small = e.glb_pj_per_byte(256 * 1024);
        let ref_ = e.glb_pj_per_byte(1024 * 1024);
        let big = e.glb_pj_per_byte(8 * 1024 * 1024);
        assert!(small < ref_ && ref_ < big);
        assert!((ref_ - 0.8).abs() < 1e-12);
        // 8x capacity at exp 0.3: ~1.87x energy.
        assert!((big / ref_ - 8f64.powf(0.3)).abs() < 1e-9);
    }

    #[test]
    fn breakdown_groupings() {
        let b = EnergyBreakdown {
            mac: 1.0,
            vector: 2.0,
            glb: 3.0,
            noc: 4.0,
            d2d: 5.0,
            dram: 6.0,
        };
        assert_eq!(b.total(), 21.0);
        assert_eq!(b.intra_tile(), 6.0);
        assert_eq!(b.network(), 9.0);
        let mut a = b;
        a.add(&b);
        assert_eq!(a.total(), 42.0);
        assert_eq!(b.scaled(0.5).total(), 10.5);
    }
}
