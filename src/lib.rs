//! # moat — a Multi-Objective Auto-Tuning framework for parallel codes
//!
//! A from-scratch Rust reproduction of *"A Multi-Objective Auto-Tuning
//! Framework for Parallel Codes"* (Jordan et al., SC 2012): a compiler +
//! runtime infrastructure that tunes code regions for several conflicting
//! objectives at once, encodes the resulting Pareto set as a
//! multi-versioned executable, and defers the trade-off decision to the
//! runtime system.
//!
//! The facade exposed here wires the pipeline of the paper's Fig. 3:
//!
//! ```text
//! input region ──(1)──► Analyzer ──(2)──► Multi-objective optimizer (RS-GDE3)
//!                                             │ (3) evaluate configurations
//!                                             ▼     on the target machine
//!                                        Pareto set ──(4,5)──► Multi-versioning
//!                                                              backend (+table)
//!                                                        (6) runtime selection
//! ```
//!
//! * the **analyzer** ([`moat_ir::analyze`]) finds tileable/parallelizable
//!   loop bands and derives transformation skeletons with unbound
//!   parameters,
//! * the **optimizer** ([`moat_core::RsGde3Tuner`]) searches the configuration
//!   space for the Pareto front of *(execution time, resource usage)*,
//! * **evaluation** runs either on the analytic machine model
//!   ([`moat_machine::CostModel`], presets for the paper's Westmere and
//!   Barcelona systems) or natively on this host via
//!   [`moat_kernels::native`],
//! * the **backend** ([`moat_multiversion`]) outlines one specialized code
//!   version per Pareto point and emits the version table of Fig. 6, and
//! * the **runtime** ([`moat_runtime`]) picks a version per invocation
//!   according to a configurable [`moat_runtime::SelectionPolicy`].
//!
//! ## Quickstart
//!
//! ```
//! use moat::{Framework, Kernel, MachineDesc};
//!
//! // Tune matrix multiplication for the paper's Westmere machine (small
//! // size to keep the doctest fast).
//! let mut fw = Framework::new(MachineDesc::westmere());
//! fw.tuner_params.max_generations = 5;
//! let tuned = fw.tune(Kernel::Mm.region(64)).unwrap();
//!
//! // Every Pareto point became one specialized code version.
//! assert_eq!(tuned.table.len(), tuned.result.front.len());
//! println!("{}", tuned.source_c); // readable multi-versioned C (OpenMP)
//! ```

#![warn(missing_docs)]

pub mod features;
pub mod framework;
pub mod program;
pub mod report;
pub mod serve_backend;
pub mod sim;

pub use features::IrFeatures;
pub use framework::{
    parse_backend_spec, run_observed, BackendSpec, Framework, Hooks, Prepared, RunOutcome,
    TunedRegion,
};
pub use program::{ProgramReport, ProgramTuner, RegionOutcome};
pub use serve_backend::TuneBackend;
pub use sim::{
    ir_space, AltSkeletonEvaluator, FixedUnrollEvaluator, MultiObjectiveEvaluator, Objective,
    SimEvaluator, SkeletonChoiceEvaluator,
};

/// The usage text of a binary: what the header comment of its `source`
/// holds between the ```` ```text ```` fences, comment markers stripped.
/// Each binary passes `include_str!` of its own file, so its help neither
/// truncates nor leaks when the header changes.
pub fn usage_text(source: &str) -> String {
    let lines = source
        .lines()
        .skip_while(|l| !l.starts_with("//! ```text"))
        .skip(1)
        .take_while(|l| !l.starts_with("//! ```"))
        .map(|l| {
            let l = l.strip_prefix("//!").unwrap_or(l);
            l.strip_prefix(' ').unwrap_or(l)
        });
    lines.collect::<Vec<_>>().join("\n")
}

// Re-export the sub-crates under stable names.
pub use moat_archive as archive;
pub use moat_cachesim as cachesim;
pub use moat_core as core;
pub use moat_ir as ir;
pub use moat_kernels as kernels;
pub use moat_machine as machine;
pub use moat_multiversion as multiversion;
pub use moat_obs as obs;
pub use moat_runtime as runtime;
pub use moat_serve as serve;

// Convenience re-exports used by examples and benches.
pub use moat_archive::{Archive, ArchiveKey, ArchiveRecord, CheckpointStore, WarmStartSource};
pub use moat_core::{
    BackendId, BackendKind, BackendSet, BatchEval, CheckpointSink, EventLog, EventSink,
    FeatureSource, ParetoFront, Provenance, RsGde3Params, RsGde3Tuner, ScreeningPolicy,
    SessionCheckpoint, SpaceFeatures, StopReason, StrategyKind, Surrogate, SurrogateScreen,
    SurrogateStats, Tuner, TuningEvent, TuningReport, TuningSession, WarmStart, BACKEND_PARAM,
};
pub use moat_ir::Region;
pub use moat_kernels::Kernel;
pub use moat_machine::{CostModel, MachineDesc, MachineFeatures, NoiseModel};
pub use moat_multiversion::VersionTable;
pub use moat_obs::{Obs, TimestampMode};
pub use moat_runtime::{
    DegradingSelector, HealthPolicy, Pool, RuntimeEvent, SelectionContext, SelectionPolicy,
    VersionRegistry,
};
