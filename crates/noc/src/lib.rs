//! Interconnect substrate (Sec. III + Sec. V-B2 of the paper).
//!
//! A [`Network`] enumerates every directed link of the template — on-chip
//! NoC links, D2D links where a hop crosses a chiplet boundary, and the
//! injection/ejection links of each DRAM controller — and provides
//! routing (XY on the mesh, dimension-order on the folded torus) plus
//! multicast trees (union of unicast paths, each link counted once, which
//! is how the evaluator honours the template's multicast capability),
//! built in closed form from per-row and per-column spans. Each core's
//! DRAM fan-out — the links of its write paths to every DRAM port and of
//! its read paths from every port — is a table built on the core's first
//! use ([`Network::dram_write_links`], [`Network::dram_read_links`]), so
//! the evaluator replays DRAM routes instead of walking them.
//!
//! A [`TrafficMap`] accumulates bytes per link for one pipeline stage;
//! the evaluator turns it into link times (`bytes / bandwidth`), energy
//! (NoC vs D2D) and the Fig.-9-style heatmaps, reading every statistic
//! it needs from one pass over the links ([`TrafficMap::scan`]).
//!
//! # Example
//!
//! ```
//! use gemini_arch::presets;
//! use gemini_noc::{Network, TrafficMap};
//!
//! let arch = presets::g_arch_72();
//! let net = Network::new(&arch);
//! let mut traffic = TrafficMap::new(&net);
//! let mut path = Vec::new();
//! net.route_cores(arch.core_at(0, 0), arch.core_at(5, 5), &mut path);
//! traffic.add_path(&path, 1024.0);
//! assert_eq!(path.len(), 10); // XY route: 5 hops east + 5 south
//! assert!(traffic.total_hop_bytes() > 0.0);
//! ```

pub mod flowsim;
pub mod heatmap;
pub mod network;
pub mod packetsim;
pub mod traffic;

pub use flowsim::{analytic_bottleneck, simulate_flows, Flow, FlowSimResult, FlowSimWorkspace};
pub use heatmap::{Heatmap, HeatmapEntry};
pub use network::{Link, LinkId, LinkKind, Network, NodeId, TreeScratch};
pub use packetsim::{simulate_packets, PacketSimConfig, PacketSimResult, PacketSimWorkspace};
pub use traffic::{LinkScan, TrafficMap};
