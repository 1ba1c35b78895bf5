//! Gemini's core: the layer-centric LP spatial-mapping encoding, the
//! SA-based mapping engine, and the architecture/mapping co-exploration
//! framework of the HPCA 2024 paper.
//!
//! The crate mirrors the paper's structure:
//!
//! * [`encoding`] — Sec. IV-A: `Part` / `CoreGroup` / `FlowOfData`
//!   attributes, the `LMS` scheme, validation and parsing;
//! * [`space`] — Sec. IV-B: optimization-space size calculation (Gemini
//!   lower bound vs. the Tangram heuristic's upper bound);
//! * [`partition`] — the Tangram-style DP graph partitioner (layer
//!   groups + batch units);
//! * [`stripe`] — the heuristic stripe-based SPM (baseline T-Map and SA
//!   initial state);
//! * [`sa`] — Sec. V-B1: the annealer with operators OP1..OP5;
//! * [`engine`] — the Mapping Engine tying it all together;
//! * [`dse`] — Sec. V-A: exhaustive architecture exploration under
//!   `MC^alpha * E^beta * D^gamma`, plus chiplet-reuse scaling;
//! * [`fidelity`] — the NoC fidelity ladder as a DSE stage: fluid
//!   re-rank of the analytic survivors, packet validation of the
//!   winner, and congestion-surcharge calibration feedback;
//! * [`campaign`] — manifest-driven experiment campaigns: declarative
//!   sweeps over workloads × architectures × batches with a resumable
//!   journal and a multi-objective Pareto archive (docs/CAMPAIGNS.md);
//! * [`service`] — the request-handling engine layer: typed
//!   request/response protocol, a warm request memo, bounded priority
//!   queue and the `gemini serve` daemon transport, shared with the
//!   one-shot CLI verbs (docs/SERVE.md);
//! * [`report`] — CSV output helpers for the experiment harnesses.
//!
//! # Example: map a DNN onto the paper's G-Arch
//!
//! ```
//! use gemini_core::engine::{MappingEngine, MappingOptions};
//! use gemini_core::sa::SaOptions;
//! use gemini_sim::Evaluator;
//!
//! let dnn = gemini_model::zoo::tiny_resnet();
//! let arch = gemini_arch::presets::g_arch_72();
//! let ev = Evaluator::new(&arch);
//! let engine = MappingEngine::new(&ev);
//! let opts = MappingOptions {
//!     sa: SaOptions { iters: 50, ..Default::default() },
//!     ..Default::default()
//! };
//! let mapped = engine.map(&dnn, 4, &opts);
//! assert!(mapped.report.delay_s > 0.0);
//! ```

pub mod campaign;
pub mod dse;
pub mod encoding;
pub mod engine;
pub mod factor;
pub mod fidelity;
pub mod hetero_dse;
pub mod hetero_map;
pub mod joint;
pub mod objective;
pub mod partition;
pub(crate) mod pool;
pub mod report;
pub mod sa;
pub mod service;
pub mod space;
pub mod stripe;
pub mod traffic;

pub use campaign::{
    run_campaign, run_campaign_file, CampaignError, CampaignOptions, CampaignResult, CampaignSpec,
};
pub use dse::{
    run_dse, run_dse_over, scale_arch, DseOptions, DseRecord, DseResult, DseSpec, Objective,
};
pub use encoding::{CoreGroup, EncodingError, FlowOfData, GroupSpec, Lms, Ms, Part};
pub use engine::{parse_all, MappedDnn, MappingEngine, MappingOptions};
pub use fidelity::{
    DseReport, FidelityPolicy, FluidConfig, FluidRescore, GroupDiscrepancy, RerankEntry,
};
pub use hetero_dse::{run_hetero_dse, HeteroDseRecord, HeteroDseResult, HeteroDseSpec};
pub use hetero_map::{hetero_stripe_lms, weighted_allocation};
pub use joint::{optimize_joint, JointOptions, JointOutcome};
pub use objective::{ObjectiveParseError, ObjectiveSpec};
pub use partition::{partition_graph, GraphPartition, PartitionOptions};
pub use sa::{optimize, SaOptions, SaOutcome, SaStats};
pub use service::{
    Request, RequestBody, Response, ServeOptions, Server, ServiceError, ServiceState,
};
pub use space::{gemini_space_log2, tangram_space_log2};
pub use stripe::{stripe_lms, stripe_lms_with, trivial_lms};
