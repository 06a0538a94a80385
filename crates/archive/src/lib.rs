//! moat-archive — persistent, content-addressed archive of tuning results.
//!
//! Tuning a region is expensive; its outcome — a Pareto front of
//! configurations — is small and durable. This crate stores those fronts
//! on disk keyed by a stable fingerprint of the *tuning problem*
//! ([`ArchiveKey`]: skeleton structure × parameter-space shape × machine
//! features) so later runs can skip work:
//!
//! * **Warm start, same machine** — an exact key hit replays the archived
//!   front as free cache hits and seeds the optimizer's initial
//!   population ([`Archive::warm_start_for`] → [`WarmStartSource::Exact`]).
//! * **Cross-machine transfer** — with no exact hit, the front tuned on
//!   the feature-nearest machine (cores, cache sizes, latencies) seeds
//!   the population but is re-evaluated locally
//!   ([`WarmStartSource::Transfer`]).
//! * **Merge & inspection** — records for the same key merge with
//!   dominance-aware deduplication, atomically and idempotently; the
//!   `moat-archive` CLI lists, shows, merges, prunes and round-trips the
//!   store as JSON.
//!
//! One record per key lives at `<root>/<key-id>.json` in a canonical,
//! versioned JSON layout ([`FORMAT_VERSION`]): fronts are kept sorted, so
//! serialize → deserialize → serialize is byte-identical and archives can
//! be diffed and deduplicated by content.
//!
//! Every state file the workspace keeps — these records, checkpoints and
//! the serve daemon's logs and snapshots — is written through [`file`]:
//! appended by whole records or replaced atomically. The crate is
//! unix-only (`pread`).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod file;
pub mod key;
pub mod record;
pub mod store;

pub use checkpoint::CheckpointStore;
pub use key::ArchiveKey;
pub use record::{ArchiveRecord, MergeStats, FORMAT_VERSION};
pub use store::{Archive, ArchiveError, WarmStartSource};
