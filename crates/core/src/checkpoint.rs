//! Crash-safe checkpoint records for tuning sessions.
//!
//! A [`SessionCheckpoint`] captures everything a fixed-seed run needs to
//! continue bit-identically after an interruption: the session's spent
//! budget and evaluation cache, and the running tuner's RNG state,
//! population, Pareto archive, trace and loop cursor. Tuners call
//! [`TuningSession::offer`](crate::tuner::TuningSession::offer)
//! at safe boundaries (after initialization and at the end of each
//! iteration); for each boundary the [`CheckpointSink`] says is
//! [`due`](CheckpointSink::due) the session assembles the record and hands
//! it over. The file-backed sink — a self-verifying file
//! replaced by atomic rename — lives in `moat-archive`
//! (`CheckpointStore`), keeping this crate free of I/O.
//!
//! # Format versioning
//!
//! `format_version` follows the archive's policy: readers accept versions
//! `<=` [`CHECKPOINT_FORMAT_VERSION`] and reject newer ones instead of
//! misinterpreting them. Additive changes (new optional fields) do not
//! bump the version; semantic changes do.

use crate::evaluate::ObjVec;
use crate::pareto::Point;
use crate::rsgde3::FrontSignature;
use crate::space::Config;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Current checkpoint format version (see module docs for the policy).
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// Why a checkpoint could not be used to resume a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(String);

impl CheckpointError {
    /// Build an error with the given explanation.
    pub fn new(msg: impl Into<String>) -> Self {
        CheckpointError(msg.into())
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint error: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

/// Strategy-private resume state: the running strategy's
/// [`Run`](crate::tuner::Run) as the session saves it.
///
/// The fields form a superset of what the five strategies need; a strategy
/// leaves the ones it does not use empty. `strategy` guards against
/// resuming a checkpoint under a different tuner.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TunerState {
    /// `Tuner::name()` of the strategy that wrote the state.
    pub strategy: String,
    /// Raw xoshiro256++ RNG state (empty for RNG-free strategies).
    pub rng: Vec<u64>,
    /// Loop cursor: completed generations / weight sweeps / grid chunks.
    pub cursor: u64,
    /// Non-improving-iteration counter (RS-GDE3 convergence state).
    pub stall: u32,
    /// Current population (GDE3/NSGA-II) or accumulated winners (wsum).
    pub population: Vec<Point>,
    /// Pareto archive contents in insertion order; re-inserting them in
    /// order into a fresh archive reconstructs identical front ordering.
    pub archive: Vec<Point>,
    /// All feasible points recorded so far (`TuningReport::all`).
    pub all: Vec<Point>,
    /// Per-iteration front signatures recorded so far.
    pub trace: Vec<FrontSignature>,
    /// Reduced search-space box (RS-GDE3), empty when unused.
    pub bbox: Vec<(i64, i64)>,
    /// Per-objective scale pairs: NSGA-II normalization bounds
    /// `(ideal, nadir)` or wsum probe bounds `(lo, hi)`.
    pub scale: Vec<(f64, f64)>,
}

impl TunerState {
    /// Start a state record for `strategy`.
    pub fn for_strategy(strategy: &str) -> Self {
        TunerState {
            strategy: strategy.to_string(),
            ..TunerState::default()
        }
    }
}

/// A complete, versioned snapshot of a tuning session at a safe boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Checkpoint format version (readers reject newer versions).
    pub format_version: u32,
    /// `Tuner::name()` of the running strategy.
    pub strategy: String,
    /// Dimensionality of the parameter space (resume sanity check).
    pub dims: usize,
    /// Number of objectives (resume sanity check).
    pub num_objectives: usize,
    /// Distinct fresh evaluations spent so far (the paper's `E`).
    pub evaluations: u64,
    /// Cache entries installed by warm-start priming.
    pub primed: u64,
    /// Evaluation budget in force, if any.
    pub budget: Option<u64>,
    /// Iterations started so far.
    pub iteration: u32,
    /// Whether the budget cut a batch short already.
    pub budget_exhausted: bool,
    /// Checkpoint opportunities seen so far (the event cursor: restoring
    /// it keeps the `--checkpoint-every` cadence aligned across resumes).
    pub seq: u64,
    /// Every finished evaluation-cache entry, sorted by configuration.
    pub cache: Vec<(Config, Option<ObjVec>)>,
    /// Strategy-private resume state.
    pub tuner: TunerState,
}

impl SessionCheckpoint {
    /// Validate that this checkpoint can resume under the given space
    /// shape and objective count.
    pub fn validate(&self, dims: usize, num_objectives: usize) -> Result<(), CheckpointError> {
        if self.format_version > CHECKPOINT_FORMAT_VERSION {
            return Err(CheckpointError::new(format!(
                "format_version {} is newer than supported {}",
                self.format_version, CHECKPOINT_FORMAT_VERSION
            )));
        }
        if self.dims != dims {
            return Err(CheckpointError::new(format!(
                "checkpoint was taken over a {}-dimensional space, session has {}",
                self.dims, dims
            )));
        }
        if self.num_objectives != num_objectives {
            return Err(CheckpointError::new(format!(
                "checkpoint has {} objectives, session has {}",
                self.num_objectives, num_objectives
            )));
        }
        Ok(())
    }
}

/// Rebuild a [`StdRng`] from checkpointed raw state (see
/// [`TunerState::rng`]); `None` when the state has the wrong arity.
pub fn rng_from_state(state: &[u64]) -> Option<StdRng> {
    if state.len() != 4 {
        return None;
    }
    let mut s = [0u64; 4];
    s.copy_from_slice(state);
    Some(StdRng::from_state(s))
}

/// Receives assembled checkpoints. Implementations decide persistence and
/// error handling (the core trait is infallible so a failing disk cannot
/// abort a tuning run); the file-backed implementation lives in
/// `moat-archive`.
pub trait CheckpointSink {
    /// Whether the opportunity the session has just reached is worth a
    /// checkpoint. The session asks once per offer, before it assembles
    /// anything; on `false` nothing is assembled and `save` is not called.
    /// A cancelled run's last boundary is saved without asking. The
    /// default wants every offer.
    fn due(&mut self) -> bool {
        true
    }

    /// Persist (or record) one checkpoint.
    fn save(&mut self, checkpoint: &SessionCheckpoint);
}

/// An in-memory sink that keeps every checkpoint — test and tooling
/// support.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// All checkpoints saved, in order.
    pub saved: Vec<SessionCheckpoint>,
}

impl CheckpointSink for MemorySink {
    fn save(&mut self, checkpoint: &SessionCheckpoint) {
        self.saved.push(checkpoint.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionCheckpoint {
        SessionCheckpoint {
            format_version: CHECKPOINT_FORMAT_VERSION,
            strategy: "rs-gde3".into(),
            dims: 2,
            num_objectives: 2,
            evaluations: 42,
            primed: 3,
            budget: Some(400),
            iteration: 7,
            budget_exhausted: false,
            seq: 8,
            cache: vec![(vec![1, 2], Some(vec![0.5, 2.25])), (vec![3, 4], None)],
            tuner: TunerState {
                strategy: "rs-gde3".into(),
                rng: vec![1, 2, 3, 4],
                cursor: 7,
                stall: 1,
                population: vec![Point::new(vec![1, 2], vec![0.5, 2.25])],
                archive: vec![Point::new(vec![1, 2], vec![0.5, 2.25])],
                all: vec![Point::new(vec![1, 2], vec![0.5, 2.25])],
                trace: Vec::new(),
                bbox: vec![(0, 9), (1, 8)],
                scale: vec![(0.1, 0.9)],
            },
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let ckpt = sample();
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: SessionCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(ckpt, back);
        // Byte-stable: re-serializing the parsed value reproduces the JSON.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn validation_rejects_mismatches() {
        let ckpt = sample();
        assert!(ckpt.validate(2, 2).is_ok());
        assert!(ckpt.validate(3, 2).is_err());
        assert!(ckpt.validate(2, 1).is_err());
        let mut newer = sample();
        newer.format_version = CHECKPOINT_FORMAT_VERSION + 1;
        assert!(newer.validate(2, 2).is_err());
    }

    #[test]
    fn memory_sink_keeps_every_checkpoint() {
        let mut sink = MemorySink::default();
        sink.save(&sample());
        sink.save(&sample());
        assert_eq!(sink.saved.len(), 2);
        assert_eq!(sink.saved[0], sample());
    }
}
