//! Performance and energy evaluator (Sec. V-B2 of the paper).
//!
//! This crate is the "Evaluator" box of the Gemini framework (Fig. 4):
//! given an *analyzed* spatial-mapping scheme — which core computes which
//! output region of which layer, and where each data flow originates and
//! terminates — it derives
//!
//! * per-link NoC and D2D traffic (halo-aware producer/consumer overlap
//!   volumes, weight multicast trees, interleaved or pinned DRAM flows),
//! * DRAM access volumes and per-controller service times,
//! * per-core compute time via the intra-core exploration engine,
//! * the pipeline stage time (slowest core / link / DRAM), fill/drain
//!   overheads, and total delay,
//! * and a full energy breakdown (MAC, vector, GLB, NoC router+wire, D2D,
//!   DRAM) with both D2D energy models the paper describes (GRS-style
//!   volume-proportional by default, SerDes-style power x latency as an
//!   alternative).
//!
//! The types here are deliberately independent of the *encoding* of
//! mappings (`gemini-core`): the mapping engine parses its layer-centric
//! encoding into a [`GroupMapping`] and hands it to the [`Evaluator`].

pub mod bound;
pub mod decode;
pub mod delta;
pub mod energy;
pub mod evaluate;
pub mod fidelity;
pub mod mapping;
pub mod profile;
pub mod program;
pub mod stats;
pub mod workload;

pub use bound::{
    bound_achieving_mapping, dnn_bound, gemm_shaped, group_bound, DnnBound, GroupBound,
};
pub use decode::{sweep_positions, transplant_mappings, PositionEval, SweepStats};
pub use delta::{DeltaStats, GroupEvalState};
pub use energy::{D2dEnergyModel, EnergyBreakdown, EnergyModel};
pub use evaluate::{DnnReport, EvalOptions, Evaluator, GroupReport, StageBottleneck};
pub use fidelity::{
    calibrate_congestion_weight, check_dnn, check_group, check_group_fluid, check_group_packet,
    check_group_with, stage_flows, FidelityReport, FluidCheck, PacketCheck,
};
pub use mapping::{DramSel, GroupMapping, LayerAssignment, PredSrc};
pub use profile::CoreProfile;
pub use program::{
    generate_program, replay_program, validate_program, CoreReplay, GroupProgram, Instr,
};
pub use stats::{utilization, utilization_from, UtilizationReport};
pub use workload::part_workload;
