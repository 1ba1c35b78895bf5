//! Scalable hardware template (Sec. III of the paper).
//!
//! The template is a 2-D mesh of computing cores split into
//! `XCut x YCut` computing chiplets, plus IO chiplets hosting DRAM
//! controllers on the west/east edges. Every NoC hop that crosses a
//! chiplet boundary traverses a D2D (die-to-die) interface with its own
//! bandwidth and energy characteristics.
//!
//! This crate owns the *static* description: configuration and
//! validation ([`ArchConfig`]), geometry (core coordinates, chiplet
//! membership, D2D boundaries, DRAM attach points) and the silicon area
//! model ([`area`]). Traffic and timing live in `gemini-noc` /
//! `gemini-sim`; monetary cost in `gemini-cost`.
//!
//! # Example
//!
//! ```
//! // The paper's explored 72-TOPs architecture: 2 chiplets, 36 cores,
//! // 144 GB/s DRAM, 32 GB/s NoC links, 16 GB/s D2D, 2 MB GLB, 1024 MACs.
//! let arch = gemini_arch::presets::g_arch_72();
//! assert_eq!(arch.n_cores(), 36);
//! assert_eq!(arch.n_chiplets(), 2);
//! assert!((arch.tops() - 73.7).abs() < 1.0);
//! ```

#![deny(missing_docs)]

pub mod area;
pub mod config;
pub mod geometry;
pub mod hetero;
pub mod presets;

pub use area::{AreaBreakdown, AreaModel, Die, DieKind};
pub use config::{ArchConfig, ArchConfigBuilder, ArchError, Topology};
pub use geometry::{arrange_cores, Coord, CoreId, MAX_CORES};
pub use hetero::{CoreClass, HeteroError, HeteroSpec};
