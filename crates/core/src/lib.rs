//! `moat-core` — the multi-objective auto-tuning core.
//!
//! This crate implements the paper's primary contribution: a generic
//! multi-objective optimizer for compiler configuration spaces, built from
//!
//! * [`space`] — uniform modeling of all tuning options (tile sizes, thread
//!   counts, flags, skeleton selectors) as integer configuration vectors,
//! * [`pareto`] — dominance, Pareto archives, fast non-dominated sorting
//!   and crowding distances,
//! * [`gde3`] — Generalized Differential Evolution 3 (the paper's search
//!   engine, Algorithm 1 with `CR = F = 0.5`, population 30),
//! * [`roughset`] — the Rough-Set-inspired search-space reduction (Fig. 5):
//!   the largest hyper-rectangle bounded by dominated neighbours that
//!   encloses all non-dominated solutions,
//! * [`rsgde3`] — the combined RS-GDE3 driver (Fig. 4): GDE3 generations
//!   inside a gradually updated reduced search space, stopping after three
//!   non-improving iterations,
//! * [`random`] and [`grid`] — the paper's comparison baselines (random
//!   search and brute-force grid search), plus [`nsga2`] as an additional
//!   evolutionary baseline,
//! * [`metrics`] — the evaluation metrics of Table VI: evaluation count
//!   `E`, solution count `|S|` and hypervolume `V(S)`, plus the
//!   multiplicative epsilon [`mult_epsilon`] against a reference front, and
//! * [`evaluate`] — objective-function plumbing: counting, caching and
//!   parallel batch evaluation (paper §III-A, label 3), and
//! * [`backend`] — backend identity and provenance, plus the [`BackendSet`]
//!   product-space evaluator that makes the backend itself a tunable axis.
//!
//! The optimizer is deliberately independent of what the parameters *mean*
//! (paper §III-B: "de facto independent of the actual interpretation of the
//! tuned parameters"); binding to loop transformations happens in the
//! `moat` facade crate.

#![warn(missing_docs)]

pub mod backend;
pub mod checkpoint;
pub mod evaluate;
pub mod gde3;
pub mod grid;
pub mod metrics;
pub mod nsga2;
pub mod pareto;
pub mod random;
pub mod roughset;
pub mod rsgde3;
pub mod space;
pub mod surrogate;
pub mod tuner;
pub mod wsum;

pub use backend::{BackendId, BackendKind, BackendSet, Provenance, BACKEND_PARAM};
pub use checkpoint::{
    rng_from_state, CheckpointError, CheckpointSink, MemorySink, SessionCheckpoint, TunerState,
    CHECKPOINT_FORMAT_VERSION,
};
pub use evaluate::{BatchEval, CachingEvaluator, ConstrainedEvaluator, Evaluator, ObjVec};
pub use gde3::{Gde3, Gde3Params};
pub use grid::GridTuner;
pub use metrics::{
    extend_bounds, hypervolume, hypervolume_2d, hypervolume_2d_presorted, mult_epsilon,
    normalize_front, Hv2dIncremental,
};
pub use nsga2::{Nsga2Params, Nsga2Tuner};
pub use pareto::{
    crowding_distances, dominates, fast_nondominated_sort, ParetoArchive, ParetoFront, Point,
    Ranking,
};
pub use random::RandomTuner;
pub use roughset::reduce_search_space;
pub use rsgde3::{FrontSignature, RsGde3Params, RsGde3Tuner};
pub use space::{Config, Domain, ParamSpace};
pub use surrogate::{
    spearman, BatchError, FeatureSource, ScreenPlan, ScreeningPolicy, SpaceFeatures, Surrogate,
    SurrogateScreen, SurrogateStats,
};
pub use tuner::{
    EventLog, EventSink, Run, SessionHooks, StopReason, StrategyKind, Tuner, TuningEvent,
    TuningReport, TuningSession, WarmStart,
};
pub use wsum::{WeightedSumTuner, WeightedSweepParams};
