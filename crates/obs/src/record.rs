//! The trace record model: what happened, when, and on which lane.
//!
//! Every instrumented layer of the stack reduces its activity to a flat
//! [`Event`] — plain strings and numbers, no cross-crate types — wrapped in
//! a [`Record`] that carries the timing envelope. Records are what the
//! collector stores, what the JSONL trace file contains (one JSON object
//! per line), and what every exporter and `moat-report` consume.
//!
//! Events fall into three determinism classes ([`Class`]):
//!
//! * **Control** events are emitted from the single control thread of a
//!   tuning run (session, archive, runtime selector). Each one advances
//!   the logical clock, so their order *is* the clock.
//! * **Keyed** events may be emitted from a thread other than the run's
//!   control thread (a parked checkpoint write, reported by the writer).
//!   They stamp the current logical clock as an *epoch* without advancing
//!   it and carry a stable sort key, so the drained stream does not depend
//!   on which thread emitted them or when.
//! * **Timing** records (per-worker spans, cachesim phase timers) exist
//!   only in wall-timestamp mode; logical traces drop them entirely.

use serde::{Deserialize, Serialize};

/// Determinism class of an [`Event`] (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Control-plane: advances the logical clock.
    Control,
    /// Worker-emitted but deterministic: epoch + stable sort key.
    Keyed,
    /// Wall-clock profiling only: dropped in logical mode.
    Timing,
}

/// One thing that happened somewhere in the stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    // ── tuning control plane ────────────────────────────────────────────
    /// A tuning run began.
    SessionStart {
        /// What is being tuned (kernel or region name; may be empty).
        subject: String,
        /// Strategy name (`rsgde3`, `gde3`, `random`, …).
        strategy: String,
    },
    /// A strategy iteration (generation, sweep chunk, …) began.
    IterationStart {
        /// 1-based iteration number.
        iteration: u64,
    },
    /// A batch of configurations was evaluated.
    BatchEvaluated {
        /// Configurations the strategy requested.
        requested: u64,
        /// Configurations actually evaluated (rest cut by the budget).
        evaluated: u64,
        /// Total distinct evaluations `E` after this batch.
        evaluations: u64,
        /// Batch wall time in µs (absent in logical mode).
        elapsed_us: Option<u64>,
    },
    /// A surrogate screen decided a batch's fate. Screened-away
    /// configurations were never evaluated and **consumed no evaluation
    /// budget**; only the `forwarded` subset entered the budget admission
    /// of the following [`Event::BatchEvaluated`]. Emitted from the
    /// session control thread (Control class).
    BatchScreened {
        /// Configurations the strategy requested.
        requested: u64,
        /// Configurations forwarded to the real evaluator.
        forwarded: u64,
        /// Forwarded configurations owed to the ε-exploration coin.
        explored: u64,
        /// Configurations withheld (no evaluation, no budget).
        screened: u64,
    },
    /// Per-batch surrogate model error: predicted scores vs the real
    /// measurements that came back. Control class, like every
    /// session-funnel event.
    SurrogateError {
        /// Training samples in the model when the batch was scored.
        samples: u64,
        /// Mean absolute normalized-score error, percent.
        mae_pct: f64,
        /// Spearman rank correlation (`None` when undefined for the
        /// batch — `f64::NAN` would serialize as an unparseable `null`).
        rank_corr: Option<f64>,
    },
    /// The non-dominated front changed (or was re-measured).
    FrontUpdated {
        /// Iteration the update belongs to.
        iteration: u64,
        /// Distinct evaluations `E` at this point.
        evaluations: u64,
        /// Front size `|S|`.
        size: u64,
        /// Hypervolume `V(S)`.
        hypervolume: f64,
    },
    /// The search space was reduced (RS-GDE3 Rough-Set step).
    SpaceReduced {
        /// Dimensions of the new bounding box.
        dims: u64,
    },
    /// A checkpoint was written.
    Checkpointed {
        /// Checkpoint sequence number.
        seq: u64,
    },
    /// The tuning run ended.
    Stopped {
        /// Stop reason, rendered as text.
        reason: String,
        /// Final distinct-evaluation count `E`.
        evaluations: u64,
    },

    // ── checkpoint persistence (keyed) ──────────────────────────────────
    /// A checkpoint save failed and the error was parked: the run keeps
    /// going, but the on-disk resume point is stale until a later save
    /// succeeds. Emitted the moment parking happens so operators (and the
    /// serve daemon's gauge) see the degradation immediately instead of on
    /// the next save attempt.
    CheckpointParked {
        /// Destination checkpoint path (stable sort key).
        path: String,
        /// The parked I/O error, rendered as text.
        error: String,
    },

    // ── archive I/O ─────────────────────────────────────────────────────
    /// An archive record was looked up.
    ArchiveRead {
        /// The archive key id.
        key: String,
        /// Whether a record existed.
        hit: bool,
    },
    /// An archive record was inserted/merged.
    ArchiveWrite {
        /// The archive key id.
        key: String,
        /// Points added by the merge.
        added: u64,
        /// Points dropped as dominated.
        dropped: u64,
    },

    // ── runtime selector ────────────────────────────────────────────────
    /// The runtime selector picked a version for an invocation.
    VersionSelected {
        /// Region name.
        region: String,
        /// Selected version index.
        version: u64,
    },
    /// A version was demoted by the health policy.
    VersionDemoted {
        /// Region name.
        region: String,
        /// Demoted version index.
        version: u64,
        /// Why, rendered as text.
        reason: String,
    },
    /// A demoted version was restored.
    VersionRestored {
        /// Region name.
        region: String,
        /// Restored version index.
        version: u64,
    },
    /// Every version is demoted; the fallback serves.
    FallbackEngaged {
        /// Region name.
        region: String,
    },
    /// The runtime selector picked a version whose measurements carry a
    /// backend provenance tag (emitted alongside [`Event::VersionSelected`]
    /// for mixed-backend tables only).
    BackendSelected {
        /// Region name.
        region: String,
        /// Selected version index.
        version: u64,
        /// Rendered backend id (e.g. `native:ikj-u4`).
        backend: String,
    },

    // ── service layer (serve daemon control plane) ──────────────────────
    /// The serve daemon shed work at admission (queue full, tenant over
    /// quota, open breaker, connection cap, slow client, shutdown).
    ServeShed {
        /// Shed reason label (`queue`, `tenant_inflight`, `breaker`, …).
        reason: String,
        /// Tenant the shed request belonged to (empty when unknown —
        /// e.g. connection-level sheds happen before a spec is parsed).
        tenant: String,
    },
    /// A job fingerprint's circuit breaker changed state.
    ServeBreaker {
        /// The job fingerprint (hex).
        fingerprint: String,
        /// New state (`open`, `half-open`, `closed`).
        state: String,
    },
    /// A job backend panicked; the panic was contained to that job.
    ServePanic {
        /// The job id whose run panicked.
        job: String,
        /// The panic payload, rendered as text.
        error: String,
    },
    /// One stage of a traced request's life through the serve daemon
    /// (admission, queue wait, run, per-batch eval, persist, …). Span ids
    /// are derived deterministically from the trace context
    /// ([`TraceContext::child`](crate::context::TraceContext::child)), so
    /// the tree these records describe is parallelism-invariant; the
    /// timing envelope on the carrying [`Record`] is wall-clock and is
    /// not part of any byte-stability contract.
    JobStage {
        /// Trace id (16-digit hex), shared by the whole tree.
        trace: String,
        /// This span's id (16-digit hex).
        span: String,
        /// Parent span id (16-digit hex; the client's root span for
        /// daemon top-level stages).
        parent: String,
        /// Stage name (`admission`, `dedupe`, `queue`, `run`, `eval`,
        /// `screen`, `checkpoint`, `persist`, `archive`, `replay`).
        stage: String,
        /// The job id the stage belongs to.
        job: String,
        /// Tenant that submitted the traced request.
        tenant: String,
        /// Free-form stage detail (`batch=3 evaluated=16`, …).
        detail: String,
    },

    // ── wall-mode timing spans ──────────────────────────────────────────
    /// A named phase of work (cachesim compile / stream / LLC merge, …).
    Phase {
        /// Phase name, dot-separated (`cachesim.compile`, …).
        name: String,
    },
    /// One `BatchEval` worker's span over its chunk.
    WorkerSpan {
        /// Worker index within the batch.
        worker: u64,
        /// Configurations in the worker's chunk.
        configs: u64,
    },
}

impl Event {
    /// Determinism class (see module docs). The match is exhaustive on
    /// purpose: a new event variant must declare its class here (and is
    /// thereby validated by `validate_jsonl`) or the crate does not
    /// compile — there is no silent default that would let an unknown
    /// class slip through the trace invariants.
    pub fn class(&self) -> Class {
        match self {
            Event::CheckpointParked { .. } => Class::Keyed,
            Event::Phase { .. } | Event::WorkerSpan { .. } => Class::Timing,
            Event::SessionStart { .. }
            | Event::IterationStart { .. }
            | Event::BatchEvaluated { .. }
            | Event::BatchScreened { .. }
            | Event::SurrogateError { .. }
            | Event::FrontUpdated { .. }
            | Event::SpaceReduced { .. }
            | Event::Checkpointed { .. }
            | Event::Stopped { .. }
            | Event::ArchiveRead { .. }
            | Event::ArchiveWrite { .. }
            | Event::VersionSelected { .. }
            | Event::VersionDemoted { .. }
            | Event::VersionRestored { .. }
            | Event::FallbackEngaged { .. }
            | Event::BackendSelected { .. }
            | Event::ServeShed { .. }
            | Event::ServeBreaker { .. }
            | Event::ServePanic { .. }
            | Event::JobStage { .. } => Class::Control,
        }
    }

    /// Stable short name (JSONL `kind` labels, Chrome event names,
    /// Prometheus label values).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SessionStart { .. } => "session_start",
            Event::IterationStart { .. } => "iteration_start",
            Event::BatchEvaluated { .. } => "batch_evaluated",
            Event::BatchScreened { .. } => "batch_screened",
            Event::SurrogateError { .. } => "surrogate_error",
            Event::FrontUpdated { .. } => "front_updated",
            Event::SpaceReduced { .. } => "space_reduced",
            Event::Checkpointed { .. } => "checkpointed",
            Event::Stopped { .. } => "stopped",
            Event::CheckpointParked { .. } => "checkpoint_parked",
            Event::ArchiveRead { .. } => "archive_read",
            Event::ArchiveWrite { .. } => "archive_write",
            Event::VersionSelected { .. } => "version_selected",
            Event::VersionDemoted { .. } => "version_demoted",
            Event::VersionRestored { .. } => "version_restored",
            Event::FallbackEngaged { .. } => "fallback_engaged",
            Event::BackendSelected { .. } => "backend_selected",
            Event::ServeShed { .. } => "serve_shed",
            Event::ServeBreaker { .. } => "serve_breaker",
            Event::ServePanic { .. } => "serve_panic",
            Event::JobStage { .. } => "job_stage",
            Event::Phase { .. } => "phase",
            Event::WorkerSpan { .. } => "worker_span",
        }
    }

    /// Within-epoch sort key for keyed events: a parked checkpoint orders
    /// by its path. Empty for every other event.
    pub fn sort_key(&self) -> &str {
        match self {
            Event::CheckpointParked { path, .. } => path,
            _ => "",
        }
    }
}

/// One collected trace record: an [`Event`] plus its timing envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Logical sequence number. Control events hold unique, strictly
    /// increasing values; keyed/timing events hold the epoch (the latest
    /// control sequence) they occurred under.
    pub seq: u64,
    /// Wall-clock µs since the handle was created (0 in logical mode).
    pub ts_us: u64,
    /// Span duration in µs (0 for instant events).
    pub dur_us: u64,
    /// Thread lane (0 in logical mode; small dense ids in wall mode).
    pub tid: u64,
    /// What happened.
    pub event: Event,
}

impl Record {
    /// Total drain order: `(seq, class, sort_key, ts, tid)`. Control
    /// events have unique `seq`s so their mutual order is the clock;
    /// keyed events interleave deterministically at their epoch; timing
    /// records (wall mode only) come last within an epoch, by timestamp.
    pub fn order_key(&self) -> (u64, Class, &str, u64, u64) {
        (
            self.seq,
            self.event.class(),
            self.event.sort_key(),
            self.ts_us,
            self.tid,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_assigned() {
        assert_eq!(
            Event::IterationStart { iteration: 1 }.class(),
            Class::Control
        );
        assert_eq!(
            Event::CheckpointParked {
                path: "ckpt/1.ckpt".into(),
                error: "disk full".into()
            }
            .class(),
            Class::Keyed
        );
        assert_eq!(
            Event::Phase {
                name: "cachesim.compile".into()
            }
            .class(),
            Class::Timing
        );
    }

    #[test]
    fn record_roundtrips_through_json() {
        let r = Record {
            seq: 7,
            ts_us: 123,
            dur_us: 4,
            tid: 2,
            event: Event::FrontUpdated {
                iteration: 3,
                evaluations: 96,
                size: 5,
                hypervolume: 0.25,
            },
        };
        let s = serde_json::to_string(&r).unwrap();
        let back: Record = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn keyed_events_sort_by_path() {
        let parked = |path: &str| Event::CheckpointParked {
            path: path.into(),
            error: "disk full".into(),
        };
        let (a, b) = (parked("ckpt/a.ckpt"), parked("ckpt/b.ckpt"));
        assert!(a.sort_key() < b.sort_key());
        assert_eq!(Event::IterationStart { iteration: 1 }.sort_key(), "");
    }
}
