//! `moat-ir` — a compact affine loop-nest intermediate representation.
//!
//! This crate is the compiler substrate of the `moat` auto-tuning framework,
//! playing the role that INSPIRE (the Insieme Parallel Intermediate
//! Representation) plays in the SC'12 paper *"A Multi-Objective Auto-Tuning
//! Framework for Parallel Codes"*. It provides:
//!
//! * affine index expressions over loop induction variables ([`expr`]),
//! * perfectly nested affine loop nests with array accesses ([`nest`],
//!   [`access`]),
//! * dependence analysis identifying parallelizable loops and fully
//!   permutable (tileable) bands ([`deps`]),
//! * code transformations: tiling, collapsing, parallelization and
//!   unrolling ([`transform`]) — only what the dependence analysis can prove
//!   legal,
//! * *transformation skeletons* — generic transformation sequences with
//!   unbound tuning parameters (tile sizes, thread counts) that are
//!   instantiated into concrete code variants by the optimizer
//!   ([`skeleton`]) — or, for analytic models, into just the variant's
//!   loop [`shape`] —, and
//! * the region analyzer that decomposes input nests into tunable regions
//!   ([`analyzer`]).
//!
//! The representation is deliberately small: the auto-tuner (in `moat-core`)
//! only requires (a) a way to enumerate tunable parameters, (b) legality
//! information for the transformations it explores, and (c) the ability to
//! turn a parameter assignment into an executable/costable code variant.

#![warn(missing_docs)]

pub mod access;
pub mod analyzer;
pub mod deps;
pub mod expr;
pub mod nest;
pub mod parser;
pub mod region;
pub mod shape;
pub mod skeleton;
pub mod transform;

pub use access::{Access, AccessKind, ArrayDecl, ArrayId};
pub use analyzer::{analyze, AnalyzerConfig};
pub use deps::{DepAnalysis, Dependence, Direction};
pub use expr::{AffineExpr, VarId};
pub use nest::{Bound, Loop, LoopNest, ParallelInfo, Stmt};
pub use parser::{parse_region, to_source, ParseError};
pub use region::Region;
pub use shape::{LoopShape, NestShape, VariantShape};
pub use skeleton::{ParamDecl, ParamDomain, ParamValue, Skeleton, Step, Variant};
