//! `moat-runtime` — the parallel runtime system of the framework.
//!
//! Plays the role of the *Insieme Runtime System* in the SC'12 paper: it
//! executes parallel regions on a persistent worker [`pool`], dynamically
//! [`select`]s one of the code versions of a multi-versioned region
//! according to a configurable policy, and [`monitor`]s execution.
//!
//! The pool implements the execution model assumed by the paper's generated
//! code: a collapsed outer loop distributed over a fixed set of worker
//! threads with static chunking (the OpenMP `schedule(static)` analogue).

#![warn(missing_docs)]

pub mod health;
pub mod monitor;
pub mod pool;
pub mod registry;
pub mod select;

pub use health::{DegradingSelector, HealthPolicy, VersionHealth};
pub use monitor::{measure, DemotionReason, RegionStats, RuntimeEvent};
pub use pool::{static_chunk, Pool};
pub use registry::VersionRegistry;
pub use select::{SelectionContext, SelectionPolicy, VersionMeta};
