//! # Gemini: mapping and architecture co-exploration for large-scale DNN
//! chiplet accelerators
//!
//! A from-scratch Rust reproduction of the HPCA 2024 paper
//! *"Gemini: Mapping and Architecture Co-exploration for Large-scale DNN
//! Chiplet Accelerators"* (Cai et al.). This facade crate re-exports the
//! whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `gemini-model` | layer IR, DNN DAGs, model zoo |
//! | [`arch`] | `gemini-arch` | chiplet hardware template + area model |
//! | [`noc`] | `gemini-noc` | mesh/torus routing, traffic maps, heatmaps |
//! | [`intracore`] | `gemini-intracore` | NVDLA-style tiling/loop-order search |
//! | [`sim`] | `gemini-sim` | performance & energy evaluator |
//! | [`cost`] | `gemini-cost` | monetary-cost evaluator |
//! | [`tangram`] | `gemini-tangram` | Tangram baseline (T-Map) |
//! | [`core`] | `gemini-core` | LP-SPM encoding, SA engine, DSE, service layer |
//!
//! # Quickstart
//!
//! ```
//! use gemini::prelude::*;
//!
//! // Workload and architecture.
//! let dnn = gemini::model::zoo::tiny_resnet();
//! let arch = gemini::arch::presets::g_arch_72();
//!
//! // Map with Gemini's SA engine and evaluate. Per-group annealing
//! // chains run in parallel (`threads: 0` = all cores; results are
//! // bit-identical at any thread count) with memoized candidate
//! // evaluation. `SaOptions::from_env()` additionally honours the
//! // `GEMINI_SA_ITERS` / `GEMINI_SA_SEED` / `GEMINI_SA_THREADS`
//! // environment variables.
//! let ev = Evaluator::new(&arch);
//! let engine = MappingEngine::new(&ev);
//! let opts = MappingOptions {
//!     sa: SaOptions { iters: 50, threads: 0, ..Default::default() },
//!     ..Default::default()
//! };
//! let mapped = engine.map(&dnn, 4, &opts);
//! println!("delay {:.3} ms, energy {:.3} mJ",
//!     mapped.report.delay_s * 1e3, mapped.report.energy.total() * 1e3);
//!
//! // Monetary cost of the architecture.
//! let mc = CostModel::default().evaluate(&arch);
//! assert!(mc.total() > 0.0);
//! ```

pub use gemini_arch as arch;
pub use gemini_core as core;
pub use gemini_cost as cost;
pub use gemini_intracore as intracore;
pub use gemini_model as model;
pub use gemini_noc as noc;
pub use gemini_sim as sim;
pub use gemini_tangram as tangram;

/// The most common imports in one place.
///
/// Everything needed for the map → evaluate → compare loop:
///
/// ```
/// use gemini::prelude::*;
///
/// // Tangram's T-Map baseline vs. Gemini's SA-refined G-Map on the
/// // same workload, architecture and evaluator (Sec. VI setup).
/// let dnn = gemini::model::zoo::two_conv_example();
/// let arch = gemini::arch::presets::g_arch_72();
/// let ev = Evaluator::new(&arch);
///
/// let t_map: MappedDnn = TangramMapper::new(&ev).map(&dnn, 2);
/// let sa = SaOptions { iters: 40, ..Default::default() };
/// let cmp = compare_mappings(&ev, &dnn, 2, &sa);
///
/// // The annealer starts from the stripe baseline, so it can only
/// // improve on it — and the evaluator agrees with the T-Map run.
/// assert!(cmp.speedup() >= 1.0 - 1e-9);
/// assert!((cmp.tangram.delay_s - t_map.report.delay_s).abs() < 1e-12);
/// ```
pub mod prelude {
    pub use gemini_arch::{ArchConfig, CoreClass, HeteroSpec, Topology};
    pub use gemini_core::campaign::{
        merge_shards, run_campaign, run_campaign_file, run_campaign_shard, shard_of,
        CampaignOptions, CampaignResult, CampaignSpec, ShardRunResult, ShardSpec,
    };
    pub use gemini_core::dse::{run_dse, DseOptions, DseSpec, Objective, RecordBound};
    pub use gemini_core::engine::{MappedDnn, MappingEngine, MappingOptions};
    pub use gemini_core::fidelity::{
        parse_policy, BoundMode, BoundStats, DseReport, FidelityPolicy, FluidConfig,
    };
    pub use gemini_core::objective::{ObjectiveParseError, ObjectiveSpec};
    pub use gemini_core::sa::{SaOptions, SaOutcome, SaStats};
    pub use gemini_core::service::{
        CampaignParams, DseParams, ErrorCode, MapParams, Request, RequestBody, Response,
        ServeOptions, Server, ServiceError, ServiceState,
    };
    pub use gemini_core::traffic::{
        decode_latency_curve, serve_at, ArrivalSpec, BatcherConfig, LatencyCurve, ServedStats,
    };
    pub use gemini_cost::CostModel;
    pub use gemini_model::{Dnn, DnnBuilder, FmapShape, LayerKind};
    pub use gemini_sim::bound::{dnn_bound, group_bound, DnnBound, GroupBound};
    pub use gemini_sim::Evaluator;
    pub use gemini_tangram::{compare_mappings, TangramMapper};
}
