//! `moat-serve`: multi-tenant tuning-as-a-service.
//!
//! The daemon accepts tuning jobs over a deliberately small HTTP/1.1 +
//! JSON wire protocol ([`wire`]), where a job names *skeleton × parameter
//! space × machine × strategy × backend roster* ([`spec`]). Identical jobs
//! are deduplicated against in-flight sessions and the archive by the
//! job's content fingerprint; warm-startable repeats replay at `E = 0`.
//! Evaluations from concurrent jobs drain through a shared, fairly
//! scheduled worker pool ([`pool`]) so one tenant cannot starve the rest;
//! results land in an archive sharded by key fingerprint with background
//! merge/compaction ([`shard`]). `SIGTERM` checkpoints every in-flight
//! session through the existing `SessionCheckpoint` machinery and a
//! restart resumes them ([`daemon`]).
//!
//! The crate is deliberately ignorant of kernels, simulators and code
//! generation: the [`backend::JobBackend`] trait is the seam through which
//! the top-level `moat` crate plugs the actual tuning machinery in. That
//! keeps the dependency arrow pointing one way (`moat` → `moat-serve`)
//! and lets the protocol/scheduling layers be tested with synthetic
//! backends.

pub mod admission;
pub mod artifacts;
pub mod backend;
pub mod chaos;
pub mod checkpointer;
pub mod daemon;
pub mod journal;
pub mod metrics;
pub mod pool;
pub mod shard;
pub mod spec;
pub mod wire;

pub use admission::{AdmissionPolicy, ShedReason};
pub use artifacts::ArtifactLog;
pub use backend::{
    open_checkpoint_store, JobBackend, JobContext, JobInfo, JobOutcome, PreparedJob,
    SyntheticBackend,
};
pub use chaos::{ChaosBackend, ChaosConfig, Fate};
pub use checkpointer::{Checkpointer, GaugedStore};
pub use daemon::{serve, JobState, JobStatus, ServeConfig, ServeHandle};
pub use journal::load_job_table;
pub use metrics::ServeMetrics;
pub use pool::{FairPool, PooledEvaluator};
pub use shard::ShardedArchive;
pub use spec::{JobSpec, SubmitResponse};
pub use wire::{Request, Response, WireError, MAX_BODY_BYTES, MAX_HEAD_BYTES};
