//! `moat-cachesim` — a trace-driven, multi-level, set-associative cache
//! simulator.
//!
//! This crate is the validation substrate for the analytic cost model in
//! `moat-machine`: it simulates the actual cache behaviour of (tiled) loop
//! nests on small problem instances, so the analytic footprint model can be
//! checked against ground truth (miss counts, traffic) in tests and
//! ablation benchmarks.
//!
//! Structure:
//! * [`cache`] — one set-associative LRU cache level,
//! * [`hierarchy`] — a multi-core hierarchy with private L1/L2 and a
//!   last-level cache shared per chip (matching Table I of the paper),
//! * [`trace`] — streaming address-trace generation from `moat-ir` loop
//!   nests: nests are compiled once ([`CompiledNest`]) and traces are
//!   drawn lazily ([`AccessStream`]), including per-thread streams for
//!   parallel nests.

#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod trace;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{AccessSource, HierarchyConfig, LevelStats, MultiCoreHierarchy};
pub use trace::{simulate_nest, AccessStream, CompiledNest, ThreadStream};
