//! The daemon proper: accept loop, admission control, bounded worker
//! pool, job table, dedupe, background compaction and graceful shutdown.
//!
//! One [`serve`] call owns a state directory:
//!
//! ```text
//! <state>/jobs.json          job table snapshot (atomic rewrite at start,
//!                            at clean shutdown and when the journal has
//!                            outgrown it)
//! <state>/jobs.journal       one row per job-table change since the
//!                            snapshot (see [`crate::journal`])
//! <state>/artifacts.log     one record per settled run: its obs trace —
//!                            what the job's session emitted on its own
//!                            handle, what `moat-tune --trace` writes for
//!                            the same spec and seed — and, once Done, its
//!                            final ArchiveRecord (see [`crate::artifacts`])
//! <state>/ckpt/<fp>.ckpt     session checkpoints, named by fingerprint,
//!                            of runs long enough to earn one
//!                            (see [`crate::checkpointer`])
//! <state>/archive/           the sharded archive
//! <state>/serve.jsonl        service-level obs events (sheds, breaker
//!                            transitions, contained panics)
//! ```
//!
//! **Dedupe.** `POST /jobs` fingerprints the spec ([`JobSpec::fingerprint`])
//! and consults a fingerprint → primary-job map. A hit registers the new
//! submission as a *subscriber*: it gets its own job id and tenant
//! attribution, but `serves_as` points at the primary and every read
//! (status, result, trace) resolves through it. Failed primaries leave
//! the map so the next identical submission retries fresh.
//!
//! **Admission.** Accepted submissions enter a bounded queue drained by a
//! fixed pool of [`ServeConfig::workers`] session threads; the
//! checkpoints they ask for are written behind them by the one
//! [`Checkpointer`] thread; and the accept thread hands each connection to
//! a parked handler thread, starting one only when none is idle — so
//! nothing spawns per job or per request. The shed ladder runs under the job-table lock, in
//! order: shutdown → per-tenant token bucket → (for new primaries only)
//! circuit breaker → per-tenant max-in-flight → queue depth. Sheds
//! answer `429`/`503` with a `Retry-After` hint, bump
//! `serve_shed_total{reason=...}` and emit a `ServeShed` obs event; a
//! subscriber to an in-flight primary costs nothing and is never shed by
//! breaker/in-flight/queue rules. Connections are capped at accept time,
//! and each request's read is bounded by a per-read socket timeout plus a
//! whole-frame deadline (slowloris defense, `408`).
//!
//! **Failure isolation.** Each job run is wrapped in `catch_unwind`: a
//! panicking backend fails only its own job (counted, obs-logged).
//! Failures strike the spec fingerprint's circuit breaker; after
//! [`AdmissionPolicy::breaker_strikes`] the breaker opens and sheds
//! resubmissions for a seeded, submission-counted cooldown, then
//! half-opens for one trial run.
//!
//! **Shutdown.** One atomic `stop` flag is shared by the accept loop, the
//! compactor, the workers and — as the session cancel flag — every
//! running `TuningSession`. Setting it (SIGTERM in the binary, `POST
//! /shutdown` in tests) wakes the accept thread out of `accept()` with one
//! loopback connection, stops accepting, winds sessions down at the next
//! boundary they reach, whose checkpoint they save whatever the sink
//! thought was due (each worker then waits until it is on disk, so they
//! park losslessly) and [`ServeHandle::join`] reaps everything, the
//! checkpointer and the connection handlers last. Jobs
//! still waiting in the queue stay `Queued` in the persisted table. On
//! the next start, parked and interrupted jobs are re-enqueued with
//! `with_resume(...)` from their fingerprint-named checkpoint, which the
//! core guarantees continues bit-identically to an uninterrupted run.

use crate::admission::{AdmissionPolicy, AdmissionState, BreakerDecision, ShedReason};
use crate::artifacts::ArtifactLog;
use crate::backend::JobBackend;
use crate::checkpointer::Checkpointer;
use crate::journal::Journal;
use crate::metrics::ServeMetrics;
use crate::pool::FairPool;
use crate::shard::ShardedArchive;
use crate::spec::{JobSpec, SubmitResponse};
use crate::wire::{self, Request, Response, WireError};
use moat_archive::file::{self, AppendLog};
use moat_archive::CheckpointStore;
use moat_core::SessionCheckpoint;
use moat_obs::{Obs, TimestampMode, TraceContext};
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration. `new` fills every knob with the defaults the
/// tests and the smoke script use; at those defaults the daemon's
/// observable behaviour (responses, artifacts, counters the tests
/// assert) is byte-identical to the pre-robustness daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServeHandle::addr`]).
    pub listen: String,
    /// The state directory (created if absent).
    pub state_dir: PathBuf,
    /// Global evaluation slots shared by all sessions.
    pub pool_slots: usize,
    /// `BatchEval::parallel` width of each session. Sessions over-request
    /// on purpose: the pool, not the session, is the concurrency budget.
    pub session_width: usize,
    /// Archive shard count (sticky once the state directory exists).
    pub shards: usize,
    /// Checkpoint cadence passed to every session.
    pub checkpoint_every: u32,
    /// Background compaction period.
    pub compact_interval: Duration,
    /// Session worker threads draining the job queue (default 8). This
    /// replaces the old unbounded thread-per-job spawn.
    pub workers: usize,
    /// Bounded job-queue depth (default 256); a submission finding it
    /// full is shed `503 Retry-After`.
    pub queue_depth: usize,
    /// Concurrently handled connections (default 64), hence also the most
    /// handler threads the daemon ever starts; excess connections are
    /// answered `503 Retry-After` straight off the accept loop.
    pub max_connections: usize,
    /// Per-read socket timeout (default 10 s — the old hard-coded value).
    /// An idle peer is cut (408) after this long with no bytes.
    pub read_timeout: Duration,
    /// Socket write timeout (default 10 s — the old hard-coded value).
    pub write_timeout: Duration,
    /// Whole-request read deadline (default 30 s): a client trickling
    /// bytes — slowloris — is cut (408) when the frame takes this long
    /// in total, even if no single read ever times out.
    pub conn_deadline: Duration,
    /// Per-tenant cap on Queued/Running primary jobs (default 0 = off);
    /// over-cap submissions are shed `429`.
    pub tenant_max_inflight: usize,
    /// Per-tenant token-bucket refill, submissions/second (default 0 =
    /// off).
    pub tenant_rate: f64,
    /// Token-bucket burst capacity (default 8).
    pub tenant_burst: f64,
    /// Failed runs before a fingerprint's circuit breaker opens (default
    /// 3; 0 disables the breaker).
    pub breaker_strikes: u32,
    /// Breaker cooldown in *shed submissions* before a half-open trial
    /// (default 8; seeded jitter and per-trip escalation on top).
    pub breaker_cooldown: u64,
    /// Seed for breaker cooldown jitter (and anything else the
    /// robustness layer needs to randomize deterministically).
    pub robustness_seed: u64,
    /// `Retry-After` seconds advertised on shed responses (default 1).
    pub retry_after_secs: u64,
}

impl ServeConfig {
    /// Defaults rooted at `state_dir`.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            state_dir: state_dir.into(),
            pool_slots: 4,
            session_width: 2,
            shards: 4,
            checkpoint_every: 1,
            compact_interval: Duration::from_millis(250),
            workers: 8,
            queue_depth: 256,
            max_connections: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            conn_deadline: Duration::from_secs(30),
            tenant_max_inflight: 0,
            tenant_rate: 0.0,
            tenant_burst: 8.0,
            breaker_strikes: 3,
            breaker_cooldown: 8,
            robustness_seed: 0x5EED,
            retry_after_secs: 1,
        }
    }

    /// The admission-policy slice of this config.
    pub fn admission_policy(&self) -> AdmissionPolicy {
        AdmissionPolicy {
            queue_depth: self.queue_depth.max(1),
            tenant_max_inflight: self.tenant_max_inflight,
            tenant_rate: self.tenant_rate,
            tenant_burst: self.tenant_burst,
            breaker_strikes: self.breaker_strikes,
            breaker_cooldown: self.breaker_cooldown,
            seed: self.robustness_seed,
        }
    }
}

/// Job lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Accepted, session not yet running.
    Queued,
    /// Session in flight.
    Running,
    /// Cancelled by shutdown with a checkpoint on disk; resumes on the
    /// next daemon start.
    Parked,
    /// Finished; result and trace are on disk.
    Done,
    /// The backend refused, errored or panicked; the fingerprint is
    /// released (and struck on its circuit breaker).
    Failed,
}

/// One row of the job table — persisted verbatim in `jobs.json` and the
/// journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobState {
    /// Daemon-assigned id (`j0001`, …).
    pub id: String,
    /// Submitting tenant (attribution and quota identity; never affects
    /// scheduling identity).
    pub tenant: String,
    /// The spec as submitted.
    pub spec: JobSpec,
    /// `spec.fingerprint_hex()` — the dedupe/checkpoint key.
    pub fingerprint: String,
    /// Lifecycle state. For subscribers this stays `Queued`; reads
    /// resolve through `serves_as`.
    pub status: JobStatus,
    /// When this submission was deduped: the id of the primary job whose
    /// session (and result, and trace) serves it.
    pub serves_as: Option<String>,
    /// The backend-resolved `ArchiveKey` id.
    pub key: Option<String>,
    /// Evaluations spent (final, or at parking).
    pub evaluations: u64,
    /// Strategy iterations executed.
    pub iterations: u32,
    /// Stop reason name once finished/parked.
    pub stop: Option<String>,
    /// Backend error for `Failed` jobs.
    pub error: Option<String>,
    /// True when this incarnation resumed from a checkpoint.
    pub resumed: bool,
    /// True when the job was served from the archive at `E = 0`.
    pub replayed: bool,
    /// Warm-start provenance (`exact` or `transfer(machine, distance)`).
    pub warm: Option<String>,
}

struct Jobs {
    states: BTreeMap<String, JobState>,
    /// fingerprint → primary job id (non-failed jobs only).
    dedupe: HashMap<u64, String>,
    next: u64,
    /// Quotas and breakers, serialized with the table they guard.
    admission: AdmissionState,
    /// The table's write side on disk, in table order under the same lock.
    journal: Journal,
}

/// A service log: one `moat_obs::Record` per line, its `seq` numbering
/// the lines from 1 across restarts. Two of them: `<state>/serve.jsonl`
/// (sheds, breaker transitions and contained panics; created at start)
/// and `<state>/spans.jsonl` (one `JobStage` record per completed span of
/// a traced job; created by the first traced request, so an untraced
/// daemon's state directory has none).
struct ServiceLog {
    log: AppendLog,
    seq: u64,
}

impl ServiceLog {
    /// Recover the log at `path`: `seq` continues from its complete lines,
    /// and a torn last line is cut by the first append.
    fn recover(path: PathBuf) -> std::io::Result<ServiceLog> {
        let mut seq = 0;
        let log = AppendLog::recover(path, |reader, _, _| {
            let Some(line) = AppendLog::line(reader)? else {
                return Ok(None);
            };
            seq += 1;
            Ok(Some(line.len() as u64))
        })?;
        Ok(ServiceLog { log, seq })
    }

    /// Append `event` as the next record; `dur_us` rides its envelope.
    fn append(&mut self, event: moat_obs::Event, dur_us: u64) -> std::io::Result<()> {
        let record = moat_obs::Record {
            seq: self.seq + 1,
            ts_us: 0,
            dur_us,
            tid: 0,
            event,
        };
        let line = moat_obs::export::to_jsonl(&[record]);
        self.log.append(line.as_bytes(), false)?;
        self.seq += 1;
        Ok(())
    }

    /// Every acknowledged byte (none when the file was never made).
    fn bytes(&self) -> Vec<u8> {
        self.log.read_at(0, self.log.len()).unwrap_or_default()
    }
}

/// Per-job in-memory tracing state: the client's root span (for traced
/// jobs) and the enqueue instant (kept for every queued job so the
/// queue-wait histogram observes untraced traffic too). Never persisted
/// — `jobs.json` keeps its untraced format, and a restarted daemon
/// starts fresh wall timelines.
#[derive(Default)]
struct JobTrace {
    ctx: Option<TraceContext>,
    enqueued: Option<Instant>,
}

type QueueItem = (String, Option<SessionCheckpoint>);

/// Where the accept thread leaves connections for the handler threads.
#[derive(Default)]
struct Handoff {
    /// Accepted, not yet picked up.
    waiting: VecDeque<TcpStream>,
    /// Handlers parked on [`Daemon::conn_cv`], and started ones that have
    /// not yet taken this lock: either takes the next connection.
    idle: usize,
    /// Every handler started so far; they live until shutdown.
    handlers: Vec<JoinHandle<()>>,
}

struct Daemon {
    config: ServeConfig,
    policy: AdmissionPolicy,
    backend: Arc<dyn JobBackend>,
    pool: Arc<FairPool>,
    metrics: Arc<ServeMetrics>,
    checkpointer: Arc<Checkpointer>,
    archive: ShardedArchive,
    artifacts: ArtifactLog,
    stop: Arc<AtomicBool>,
    jobs: Mutex<Jobs>,
    queue: Mutex<VecDeque<QueueItem>>,
    queue_cv: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
    conns_active: AtomicUsize,
    conns: Mutex<Handoff>,
    conn_cv: Condvar,
    obs: Mutex<ServiceLog>,
    spans: Mutex<ServiceLog>,
    traces: Mutex<HashMap<String, JobTrace>>,
    /// Where one throwaway connection reaches the listener: the bound
    /// address, on loopback when bound to an unspecified IP.
    wake: SocketAddr,
}

impl Daemon {
    /// Append what job `id`'s run leaves behind to the artifact log.
    /// Callers do this before the row that says so is journaled.
    fn leave(&self, id: &str, obs: &Obs, result: &str) {
        let trace = moat_obs::export::to_jsonl(&obs.drain());
        let written = self
            .artifacts
            .append(id, trace.as_bytes(), result.as_bytes());
        self.count_persist(written);
    }

    /// Append one service-level event to `serve.jsonl`.
    fn obs_event(&self, event: moat_obs::Event) {
        let _ = self.obs.lock().append(event, 0);
    }

    /// Append one completed span of a traced job to `spans.jsonl`. `ctx`
    /// is the span's own context — its id and parent are already derived
    /// — and `dur_us` its wall duration. The record's `seq` is the span
    /// log's own; `dur_us` rides the envelope (wall time is explicitly
    /// outside the byte-stability contract for `JobStage`, a
    /// Control-class event).
    fn span_event(
        &self,
        ctx: &TraceContext,
        stage: &str,
        job: &str,
        tenant: &str,
        detail: String,
        dur_us: u64,
    ) {
        let event = moat_obs::Event::JobStage {
            trace: ctx.trace_hex(),
            span: ctx.span_hex(),
            parent: ctx.parent_hex(),
            stage: stage.to_string(),
            job: job.to_string(),
            tenant: tenant.to_string(),
            detail,
        };
        let _ = self.spans.lock().append(event, dur_us);
    }

    /// Journal row `id`, the one row a table change touched. Callers hold
    /// the jobs lock and call this before releasing it, so the row is on
    /// disk before the change is visible.
    fn journal_row(&self, jobs: &mut Jobs, id: &str) {
        if let Some(row) = jobs.states.get(id) {
            let written = jobs.journal.append(row);
            self.count_persist(written);
        }
    }

    /// Rewrite the `jobs.json` snapshot from the whole table and retire
    /// the journal. Callers hold the jobs lock.
    fn persist(&self, jobs: &mut Jobs) {
        let written = jobs.journal.snapshot(jobs.states.values());
        self.count_persist(written);
    }

    /// A failed table or artifact write is counted
    /// (`serve_persist_errors_total`) — the in-memory table stays
    /// authoritative, but a crash before the next successful snapshot
    /// would lose the unwritten rows.
    fn count_persist(&self, written: std::io::Result<()>) {
        if written.is_err() {
            self.metrics.persist_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A job's externally visible state: subscribers inherit the
    /// lifecycle fields of their primary.
    fn resolved(&self, jobs: &Jobs, id: &str) -> Option<JobState> {
        let own = jobs.states.get(id)?.clone();
        let Some(primary_id) = &own.serves_as else {
            return Some(own);
        };
        let Some(primary) = jobs.states.get(primary_id) else {
            return Some(own);
        };
        let mut view = own;
        view.status = primary.status;
        view.evaluations = primary.evaluations;
        view.iterations = primary.iterations;
        view.stop = primary.stop.clone();
        view.error = primary.error.clone();
        view.resumed = primary.resumed;
        view.replayed = primary.replayed;
        view.warm = primary.warm.clone();
        Some(view)
    }

    /// The id whose artifacts (result, trace) serve `id`.
    fn artifact_id(&self, jobs: &Jobs, id: &str) -> Option<String> {
        let state = jobs.states.get(id)?;
        Some(state.serves_as.clone().unwrap_or_else(|| state.id.clone()))
    }

    /// A primary job reached a settled state: release its tenant's
    /// in-flight slot. Callers hold the jobs lock.
    fn settle_inflight(&self, jobs: &mut Jobs, id: &str) {
        if let Some(tenant) = jobs.states.get(id).map(|s| s.tenant.clone()) {
            jobs.admission.inflight_remove(&tenant);
        }
    }

    /// A run succeeded: reclose the fingerprint's breaker if it was
    /// tripped. Callers hold the jobs lock.
    fn breaker_success(&self, jobs: &mut Jobs, fp: u64, fingerprint: &str) {
        if jobs.admission.breaker_success(fp) {
            self.metrics
                .breakers_tripped
                .store(jobs.admission.breakers_tripped(), Ordering::Relaxed);
            self.obs_event(moat_obs::Event::ServeBreaker {
                fingerprint: fingerprint.to_string(),
                state: "closed".into(),
            });
        }
    }

    /// Failure isolation: a panicking backend (or a panic propagated out
    /// of its BatchEval workers) fails only job `id`.
    fn contained<T>(
        &self,
        id: &str,
        call: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        std::panic::catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            self.metrics.backend_panics.fetch_add(1, Ordering::Relaxed);
            self.obs_event(moat_obs::Event::ServePanic {
                job: id.to_string(),
                error: msg.clone(),
            });
            Err(format!("backend panicked: {msg}"))
        })
    }

    fn run_job(self: &Arc<Self>, id: &str, resume: Option<SessionCheckpoint>) {
        let (spec, fingerprint) = {
            let mut jobs = self.jobs.lock();
            let Some(state) = jobs.states.get_mut(id) else {
                return;
            };
            state.status = JobStatus::Running;
            let out = (state.spec.clone(), state.fingerprint.clone());
            self.journal_row(&mut jobs, id);
            out
        };
        let fp = spec.fingerprint();
        let resumed = resume.is_some();
        let tenant = spec.tenant.clone();

        // Consume this job's tracing state: the client root span (if the
        // submission carried `x-moat-trace`) and the enqueue instant.
        let jt = self.traces.lock().remove(id).unwrap_or_default();
        let trace_hex = jt.ctx.map(|c| c.trace_hex());
        if let Some(enqueued) = jt.enqueued {
            let wait_us = enqueued.elapsed().as_micros() as u64;
            self.metrics
                .phase_queue
                .observe(wait_us, trace_hex.as_deref());
            if let Some(root) = &jt.ctx {
                self.span_event(
                    &root.child("queue", 0),
                    "queue",
                    id,
                    &tenant,
                    String::new(),
                    wait_us,
                );
            }
        }
        let run_ctx = jt.ctx.map(|root| root.child("run", 0));
        let run_started = Instant::now();

        // Resolve the spec once; what it resolves to serves the decisions
        // below and then runs.
        let prepared = self.contained(id, || self.backend.prepare(&spec));
        let info = prepared.as_ref().ok().map(|job| job.info());

        // Warm-start / replay decision, made against the archive at run
        // time so a restart re-derives it from current contents. An exact
        // hit never reaches the backend: the archived front IS the result,
        // served at E = 0. A near-machine hit seeds a normal run.
        let mut warm = None;
        let mut warm_desc = None;
        if let (true, false, Some(info)) = (spec.warm_start, resumed, info) {
            match self.archive.warm_start_for(&info.key, &info.machine) {
                Ok(Some((_, moat_archive::WarmStartSource::Exact))) => {
                    if let Ok(Some(record)) = self.archive.get(&info.key) {
                        self.complete_replay(id, &spec, &fingerprint, &record, jt.ctx.as_ref());
                        return;
                    }
                }
                Ok(Some((ws, moat_archive::WarmStartSource::Transfer { machine, distance }))) => {
                    warm_desc = Some(format!("transfer({machine}, {distance:.3})"));
                    warm = Some(ws);
                }
                _ => {}
            }
        }

        // The job's own logical-mode handle: what its session emits on it
        // is the job's trace, whatever else the process is running.
        let obs = Obs::new(TimestampMode::Logical);
        let ctx = crate::backend::JobContext {
            cancel: Arc::clone(&self.stop),
            pool: Arc::clone(&self.pool),
            job_fp: fp,
            slots: self.config.session_width,
            checkpoints: Some(Arc::clone(&self.checkpointer)),
            checkpoint_every: self.config.checkpoint_every,
            resume,
            warm,
            metrics: Some(Arc::clone(&self.metrics)),
            trace: run_ctx,
            obs: obs.clone(),
        };
        let run = prepared.and_then(|job| self.contained(id, || job.run(ctx)));
        let eval_us = run_started.elapsed().as_micros() as u64;
        self.metrics
            .phase_eval
            .observe(eval_us, trace_hex.as_deref());

        // The session has returned: a parking run's last checkpoint goes
        // to disk before the row says Parked; any other outcome retires
        // the checkpoint, whichever incarnation wrote it. A failed write
        // is a service event, not part of the job's trace, and names its
        // file relative to the state directory.
        let persist_started = Instant::now();
        let parks = run.as_ref().is_ok_and(|outcome| outcome.cancelled);
        let (handoffs_us, parked) = self.checkpointer.settle(fp, parks);
        if let Some(error) = parked {
            let state = format!("{}/", self.config.state_dir.display());
            self.obs_event(moat_obs::Event::CheckpointParked {
                path: format!("ckpt/{fp:016x}.ckpt"),
                error: error.replace(&state, ""),
            });
        }

        match run {
            Ok(outcome) => {
                // Synthesize the evaluation-phase children of the run
                // span from the session's own event stream: batch wall
                // times come from `BatchEvaluated.elapsed` (measured
                // because `JobContext::trace` turned batch timing on).
                // Child indices count per stage, so the derived span ids
                // are invariant under worker count and pickup order.
                if let Some(rc) = &run_ctx {
                    let (mut ev, mut ck) = (0u64, 0u64);
                    for event in &outcome.events {
                        match event {
                            moat_core::TuningEvent::BatchEvaluated {
                                requested,
                                evaluated,
                                elapsed,
                                ..
                            } => {
                                let dur = elapsed.map(|d| d.as_micros() as u64).unwrap_or(0);
                                self.span_event(
                                    &rc.child("eval", ev),
                                    "eval",
                                    id,
                                    &tenant,
                                    format!("requested={requested} evaluated={evaluated}"),
                                    dur,
                                );
                                ev += 1;
                            }
                            moat_core::TuningEvent::Checkpointed { seq } => {
                                self.span_event(
                                    &rc.child("checkpoint", ck),
                                    "checkpoint",
                                    id,
                                    &tenant,
                                    format!("seq={seq}"),
                                    handoffs_us.get(ck as usize).copied().unwrap_or(0),
                                );
                                ck += 1;
                            }
                            _ => {}
                        }
                    }
                }
                if outcome.cancelled {
                    self.leave(id, &obs, "");
                    if let Some(rc) = &run_ctx {
                        self.span_event(
                            rc,
                            "run",
                            id,
                            &tenant,
                            format!("parked evaluations={}", outcome.evaluations),
                            eval_us,
                        );
                    }
                    let mut jobs = self.jobs.lock();
                    if let Some(state) = jobs.states.get_mut(id) {
                        state.status = JobStatus::Parked;
                        state.evaluations = outcome.evaluations;
                        state.iterations = outcome.iterations;
                        state.stop = Some(outcome.stop.name().to_string());
                        state.resumed = resumed;
                        self.settle_inflight(&mut jobs, id);
                        self.journal_row(&mut jobs, id);
                    }
                    return;
                }
                let archive_started = Instant::now();
                if let Err(e) = self.archive.deposit(&outcome.record, &fingerprint) {
                    self.leave(id, &obs, "");
                    self.fail(id, fp, format!("archive deposit failed: {e}"));
                    return;
                }
                if let Some(rc) = &run_ctx {
                    self.span_event(
                        &rc.child("archive", 0),
                        "archive",
                        id,
                        &tenant,
                        String::new(),
                        archive_started.elapsed().as_micros() as u64,
                    );
                }
                let pretty =
                    serde_json::to_string_pretty(&outcome.record).expect("record serializes");
                self.leave(id, &obs, &pretty);
                let mut jobs = self.jobs.lock();
                if let Some(state) = jobs.states.get_mut(id) {
                    state.status = JobStatus::Done;
                    state.evaluations = outcome.evaluations;
                    state.iterations = outcome.iterations;
                    state.stop = Some(outcome.stop.name().to_string());
                    state.resumed = resumed;
                    state.warm = warm_desc;
                    self.settle_inflight(&mut jobs, id);
                    self.breaker_success(&mut jobs, fp, &fingerprint);
                    self.journal_row(&mut jobs, id);
                }
                drop(jobs);
                let persist_us = persist_started.elapsed().as_micros() as u64;
                self.metrics
                    .phase_persist
                    .observe(persist_us, trace_hex.as_deref());
                if let Some(rc) = &run_ctx {
                    self.span_event(
                        &rc.child("persist", 0),
                        "persist",
                        id,
                        &tenant,
                        String::new(),
                        persist_us,
                    );
                    self.span_event(
                        rc,
                        "run",
                        id,
                        &tenant,
                        format!(
                            "stop={} evaluations={}",
                            outcome.stop.name(),
                            outcome.evaluations
                        ),
                        eval_us,
                    );
                }
                self.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                if let Some(rc) = &run_ctx {
                    self.span_event(rc, "run", id, &tenant, format!("failed: {e}"), eval_us);
                }
                self.fail(id, fp, e);
            }
        }
    }

    /// Serve an exact archive hit at `E = 0`: the archived front is the
    /// result; no session runs and no budget is spent.
    fn complete_replay(
        &self,
        id: &str,
        spec: &JobSpec,
        fingerprint: &str,
        record: &moat_archive::ArchiveRecord,
        tctx: Option<&TraceContext>,
    ) {
        let replay_started = Instant::now();
        // No session ran: the trace is just the envelope one would emit.
        let obs = Obs::new(TimestampMode::Logical);
        obs.emit(|| moat_obs::Event::SessionStart {
            subject: spec.kernel.clone(),
            strategy: spec.strategy.clone(),
        });
        obs.emit(|| moat_obs::Event::Stopped {
            reason: moat_core::StopReason::Completed.name().to_string(),
            evaluations: 0,
        });
        let pretty = serde_json::to_string_pretty(record).expect("record serializes");
        self.leave(id, &obs, &pretty);
        self.checkpointer.settle(spec.fingerprint(), false);
        let mut jobs = self.jobs.lock();
        if let Some(state) = jobs.states.get_mut(id) {
            state.status = JobStatus::Done;
            state.evaluations = 0;
            state.iterations = 0;
            state.stop = Some(moat_core::StopReason::Completed.name().to_string());
            state.replayed = true;
            state.warm = Some("exact".into());
            self.settle_inflight(&mut jobs, id);
            self.breaker_success(&mut jobs, spec.fingerprint(), fingerprint);
            self.journal_row(&mut jobs, id);
        }
        if let Some(root) = tctx {
            self.span_event(
                &root.child("replay", 0),
                "replay",
                id,
                &spec.tenant,
                "archive hit served at E=0".into(),
                replay_started.elapsed().as_micros() as u64,
            );
        }
        self.metrics.jobs_replayed.fetch_add(1, Ordering::Relaxed);
        self.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }

    fn fail(&self, id: &str, fp: u64, error: String) {
        let mut jobs = self.jobs.lock();
        let fingerprint = jobs
            .states
            .get(id)
            .map(|s| s.fingerprint.clone())
            .unwrap_or_default();
        if let Some(state) = jobs.states.get_mut(id) {
            state.status = JobStatus::Failed;
            state.error = Some(error);
        }
        if jobs.dedupe.get(&fp).map(String::as_str) == Some(id) {
            jobs.dedupe.remove(&fp);
        }
        self.settle_inflight(&mut jobs, id);
        if jobs.admission.breaker_failure(&self.policy, fp) {
            self.metrics.breaker_trips.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .breakers_tripped
                .store(jobs.admission.breakers_tripped(), Ordering::Relaxed);
            self.obs_event(moat_obs::Event::ServeBreaker {
                fingerprint,
                state: "open".into(),
            });
        }
        self.journal_row(&mut jobs, id);
        self.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Build (count, obs-log) one shed response.
    fn shed(&self, reason: ShedReason, tenant: &str, detail: &str) -> Response {
        self.metrics.shed(reason);
        self.obs_event(moat_obs::Event::ServeShed {
            reason: reason.label().into(),
            tenant: tenant.to_string(),
        });
        Response::error(reason.status(), detail)
            .with_retry_after(self.config.retry_after_secs.max(1))
    }

    fn submit(self: &Arc<Self>, req: &Request) -> Response {
        // Tracing is opt-in per request: an `x-moat-trace` header carries
        // the client's root span and turns on span recording for this
        // job. Requests without it leave no tracing artifacts at all.
        let submit_started = Instant::now();
        let client_ctx = req.header("x-moat-trace").and_then(TraceContext::parse);
        if self.stop.load(Ordering::Relaxed) {
            return self.shed(ShedReason::Shutdown, "", "shutting down");
        }
        let parsed = std::str::from_utf8(&req.body)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<JobSpec>(s).map_err(|e| e.to_string()));
        let spec = match parsed {
            Ok(s) => s,
            Err(e) => return Response::error(400, &format!("bad job spec: {e}")),
        };
        if let Err(e) = spec.validate() {
            return Response::error(400, &e);
        }
        let key = match self.backend.prepare(&spec) {
            Ok(job) => job.info().key,
            Err(e) => return Response::error(400, &e),
        };
        let fp = spec.fingerprint();
        let fingerprint = spec.fingerprint_hex();

        let (id, primary) = {
            let mut jobs = self.jobs.lock();
            // The shed ladder. Token buckets meter every submission from
            // a tenant; breaker/in-flight/queue rules only guard *new
            // primary* jobs — a subscriber to an in-flight primary costs
            // nothing.
            if !jobs
                .admission
                .rate_take(&self.policy, &spec.tenant, Instant::now())
            {
                drop(jobs);
                return self.shed(
                    ShedReason::TenantRate,
                    &spec.tenant,
                    &format!("tenant {} over submission rate", spec.tenant),
                );
            }
            let primary = jobs.dedupe.get(&fp).cloned();
            if primary.is_none() {
                match jobs.admission.breaker_admit(&self.policy, fp) {
                    BreakerDecision::Shed => {
                        drop(jobs);
                        return self.shed(
                            ShedReason::Breaker,
                            &spec.tenant,
                            &format!("circuit open for fingerprint {fingerprint}"),
                        );
                    }
                    BreakerDecision::AdmitTrial => {
                        self.metrics
                            .breakers_tripped
                            .store(jobs.admission.breakers_tripped(), Ordering::Relaxed);
                        self.obs_event(moat_obs::Event::ServeBreaker {
                            fingerprint: fingerprint.clone(),
                            state: "half-open".into(),
                        });
                    }
                    BreakerDecision::Admit => {}
                }
                if jobs.admission.over_inflight(&self.policy, &spec.tenant) {
                    drop(jobs);
                    return self.shed(
                        ShedReason::TenantInflight,
                        &spec.tenant,
                        &format!("tenant {} at max in-flight jobs", spec.tenant),
                    );
                }
                if self.queue.lock().len() >= self.policy.queue_depth {
                    drop(jobs);
                    return self.shed(ShedReason::Queue, &spec.tenant, "job queue full");
                }
            }
            self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            let id = format!("j{:04}", jobs.next);
            jobs.next += 1;
            let state = JobState {
                id: id.clone(),
                tenant: spec.tenant.clone(),
                spec: spec.clone(),
                fingerprint: fingerprint.clone(),
                status: JobStatus::Queued,
                serves_as: primary.clone(),
                key: Some(key.id()),
                evaluations: 0,
                iterations: 0,
                stop: None,
                error: None,
                resumed: false,
                replayed: false,
                warm: None,
            };
            jobs.states.insert(id.clone(), state);
            if primary.is_none() {
                jobs.dedupe.insert(fp, id.clone());
                jobs.admission.inflight_add(&spec.tenant);
            } else {
                self.metrics.jobs_deduped.fetch_add(1, Ordering::Relaxed);
            }
            self.journal_row(&mut jobs, &id);
            (id, primary)
        };

        // Span bookkeeping for accepted submissions. The admission span
        // covers parse/validate/shed-ladder time; a deduped submission
        // additionally records its attach to the primary. Only primary
        // jobs park a root context for the worker to pick up — a
        // subscriber has no run of its own to trace.
        if let Some(root) = &client_ctx {
            self.span_event(
                &root.child("admission", 0),
                "admission",
                &id,
                &spec.tenant,
                format!("fingerprint={fingerprint}"),
                submit_started.elapsed().as_micros() as u64,
            );
            match &primary {
                Some(primary_id) => self.span_event(
                    &root.child("dedupe", 0),
                    "dedupe",
                    &id,
                    &spec.tenant,
                    format!("primary={primary_id}"),
                    0,
                ),
                None => {
                    self.traces.lock().entry(id.clone()).or_default().ctx = Some(*root);
                }
            }
        }
        let trace_hex = client_ctx.map(|c| c.trace_hex());
        self.metrics.phase_submit.observe(
            submit_started.elapsed().as_micros() as u64,
            trace_hex.as_deref(),
        );

        let serves_as = match primary {
            Some(primary) => primary,
            None => {
                self.enqueue(id.clone(), None);
                id.clone()
            }
        };
        let resp = SubmitResponse {
            deduped: serves_as != id,
            job: id,
            fingerprint,
            serves_as,
        };
        Response::json(
            202,
            serde_json::to_string(&resp)
                .expect("serializes")
                .into_bytes(),
        )
    }

    /// Push a job onto the bounded queue and wake a worker.
    fn enqueue(&self, id: String, resume: Option<SessionCheckpoint>) {
        // Stamp the enqueue instant for every job (not just traced ones)
        // so the queue-wait histogram covers all traffic.
        self.traces.lock().entry(id.clone()).or_default().enqueued = Some(Instant::now());
        let mut queue = self.queue.lock();
        queue.push_back((id, resume));
        self.metrics
            .queue_depth
            .store(queue.len() as u64, Ordering::Relaxed);
        drop(queue);
        self.queue_cv.notify_one();
    }

    /// Set the stop flag, wake every worker blocked on the queue and every
    /// parked connection handler, and get the accept thread out of
    /// `accept()` with one throwaway connection (refused, harmlessly, once
    /// the listener is gone).
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        // A handler checks `stop` and parks under this lock: taking it
        // means each one has either seen the flag or hears the notify.
        drop(self.conns.lock());
        self.conn_cv.notify_all();
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_millis(250));
    }

    /// The `/healthz` body: liveness plus saturation snapshot.
    fn health_body(&self) -> Vec<u8> {
        let queue_depth = self.metrics.queue_depth.load(Ordering::Relaxed);
        format!(
            "{{\"status\":\"ok\",\"queue_depth\":{},\"queue_cap\":{},\"workers\":{},\
             \"pool_in_use\":{},\"pool_slots\":{},\"connections_active\":{},\
             \"connection_cap\":{},\"breakers_tripped\":{},\"shed_total\":{}}}",
            queue_depth,
            self.policy.queue_depth,
            self.config.workers.max(1),
            self.pool.in_use(),
            self.pool.slots(),
            self.conns_active.load(Ordering::Relaxed),
            self.config.max_connections.max(1),
            self.metrics.breakers_tripped.load(Ordering::Relaxed),
            self.metrics.sheds_total(),
        )
        .into_bytes()
    }

    fn route(self: &Arc<Self>, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/jobs") => self.submit(req),
            ("GET", "/jobs") => {
                let jobs = self.jobs.lock();
                let ids: Vec<String> = jobs.states.keys().cloned().collect();
                let rows: Vec<JobState> = ids
                    .iter()
                    .filter_map(|id| self.resolved(&jobs, id))
                    .collect();
                Response::json(
                    200,
                    serde_json::to_string(&rows)
                        .expect("job list serializes")
                        .into_bytes(),
                )
            }
            ("GET", "/archive") => match self.archive.export_json() {
                Ok(json) => Response::json(200, json.into_bytes()),
                Err(e) => Response::error(500, &e.to_string()),
            },
            ("GET", "/metrics") => {
                let mut records = Vec::new();
                // Primaries only: a subscriber has no trace of its own.
                let ids: Vec<String> = {
                    let jobs = self.jobs.lock();
                    let rows = jobs.states.values();
                    rows.filter(|s| s.serves_as.is_none())
                        .map(|s| s.id.clone())
                        .collect()
                };
                for id in ids {
                    let trace = self.artifacts.trace(&id).unwrap_or_default();
                    if let Ok(mut rs) =
                        moat_obs::export::parse_jsonl(&String::from_utf8_lossy(&trace))
                    {
                        records.append(&mut rs);
                    }
                }
                Response::text(200, self.metrics.render(&records).into_bytes())
            }
            ("GET", "/debug/spans") => {
                // The full span log, acknowledged records only, so clients
                // can assert their trace ids round-tripped. Empty when no
                // traced request ever arrived.
                let body = self.spans.lock().bytes();
                Response {
                    status: 200,
                    content_type: "application/x-ndjson".into(),
                    headers: Vec::new(),
                    body,
                }
            }
            ("GET", "/healthz") => Response::json(200, self.health_body()),
            ("GET", "/readyz") => {
                let stopping = self.stop.load(Ordering::Relaxed);
                let queue_full = self.metrics.queue_depth.load(Ordering::Relaxed)
                    >= self.policy.queue_depth as u64;
                if stopping || queue_full {
                    let why = if stopping {
                        "shutting-down"
                    } else {
                        "queue-full"
                    };
                    Response::json(
                        503,
                        format!("{{\"ready\":false,\"reason\":\"{why}\"}}").into_bytes(),
                    )
                    .with_retry_after(self.config.retry_after_secs.max(1))
                } else {
                    Response::json(200, br#"{"ready":true}"#.to_vec())
                }
            }
            ("POST", "/shutdown") => {
                self.request_stop();
                Response::json(200, br#"{"status":"shutting-down"}"#.to_vec())
            }
            ("GET", path) if path.starts_with("/jobs/") => {
                let rest = &path["/jobs/".len()..];
                if let Some(id) = rest.strip_suffix("/trace") {
                    let artifact = {
                        let jobs = self.jobs.lock();
                        self.artifact_id(&jobs, id)
                    };
                    let Some(artifact) = artifact else {
                        return Response::error(404, "no such job");
                    };
                    match self.artifacts.trace(&artifact) {
                        Some(bytes) => Response {
                            status: 200,
                            content_type: "application/x-ndjson".into(),
                            headers: Vec::new(),
                            body: bytes,
                        },
                        None => Response::error(404, "no trace yet"),
                    }
                } else if let Some(id) = rest.strip_suffix("/result") {
                    let artifact = {
                        let jobs = self.jobs.lock();
                        self.artifact_id(&jobs, id)
                    };
                    let Some(artifact) = artifact else {
                        return Response::error(404, "no such job");
                    };
                    match self.artifacts.result(&artifact) {
                        Some(bytes) => Response::json(200, bytes),
                        None => Response::error(404, "no result yet"),
                    }
                } else {
                    let jobs = self.jobs.lock();
                    match self.resolved(&jobs, rest) {
                        Some(state) => Response::json(
                            200,
                            serde_json::to_string(&state)
                                .expect("job serializes")
                                .into_bytes(),
                        ),
                        None => Response::error(404, "no such job"),
                    }
                }
            }
            ("POST" | "PUT" | "DELETE", "/metrics" | "/healthz" | "/readyz" | "/archive") => {
                Response::error(405, "read-only endpoint")
            }
            (_, "/jobs") => Response::error(405, "use GET or POST"),
            _ => Response::error(404, "no such route"),
        }
    }

    fn handle_conn(self: &Arc<Self>, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        self.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + self.config.conn_deadline;
        let resp =
            match wire::read_request_deadline(&mut stream, self.config.read_timeout, deadline) {
                Ok(req) => self.route(&req),
                Err(WireError::Malformed(m)) => Response::error(400, &m),
                Err(WireError::TooLarge(m)) if m.contains("body") => Response::error(413, &m),
                Err(WireError::TooLarge(m)) => Response::error(431, &m),
                Err(WireError::TimedOut(m)) => self.shed(ShedReason::SlowClient, "", &m),
                Err(WireError::Io(_)) => return,
            };
        if resp.status >= 400 {
            self.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
        }
        let _ = wire::write_response(&mut stream, &resp);
    }

    /// Give an accepted connection to a handler thread: an idle one if one
    /// is to spare, a new one otherwise — up to the connection cap, beyond
    /// which the next handler to finish picks it up. Once `stop` is set the
    /// handlers are leaving (they check it under this lock), so the
    /// connection is closed instead: nobody would take it from the queue.
    ///
    /// A handler is started only when the waiting connections outnumber
    /// the idle handlers, and a connection counts as open until its handler
    /// is back under this lock; so the handlers never outnumber the most
    /// connections ever open at once (`connections_peak`).
    fn hand_off(self: &Arc<Self>, stream: TcpStream) {
        let mut conns = self.conns.lock();
        if self.stop.load(Ordering::SeqCst) {
            drop(conns);
            self.conn_closed();
            return;
        }
        conns.waiting.push_back(stream);
        let cap = self.config.max_connections.max(1);
        if conns.waiting.len() > conns.idle && conns.handlers.len() < cap {
            let d = Arc::clone(self);
            let handler = std::thread::Builder::new()
                .name(format!("serve-conn-{}", conns.handlers.len()))
                .spawn(move || d.handler_loop())
                .expect("spawn connection handler");
            conns.handlers.push(handler);
            conns.idle += 1;
            self.metrics.conn_handlers.fetch_add(1, Ordering::Relaxed);
        }
        drop(conns);
        self.conn_cv.notify_one();
    }

    /// One connection handler: serve what the accept thread hands over,
    /// park in between, leave at stop. It starts counted as idle (see
    /// [`Daemon::hand_off`]), and a connection it served is closed only
    /// once it is back under the lock: a client that is back sooner finds
    /// its connection counted beside the old one.
    fn handler_loop(self: &Arc<Self>) {
        let mut conns = self.conns.lock();
        conns.idle -= 1;
        loop {
            if let Some(stream) = conns.waiting.pop_front() {
                drop(conns);
                self.handle_conn(stream);
                conns = self.conns.lock();
                self.conn_closed();
                continue;
            }
            if self.stop.load(Ordering::SeqCst) {
                self.metrics.conn_handlers.fetch_sub(1, Ordering::Relaxed);
                return;
            }
            conns.idle += 1;
            self.conn_cv.wait(&mut conns);
            conns.idle -= 1;
        }
    }

    /// An admitted connection is gone: one fewer against the cap.
    fn conn_closed(&self) {
        self.conns_active.fetch_sub(1, Ordering::Relaxed);
        self.metrics.connections_active.store(
            self.conns_active.load(Ordering::Relaxed) as u64,
            Ordering::Relaxed,
        );
    }

    /// One worker thread: drain the queue until stop.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let item = {
                let mut queue = self.queue.lock();
                loop {
                    if self.stop.load(Ordering::Relaxed) {
                        break None;
                    }
                    if let Some(item) = queue.pop_front() {
                        self.metrics
                            .queue_depth
                            .store(queue.len() as u64, Ordering::Relaxed);
                        break Some(item);
                    }
                    // Timed wait: robust against a notify racing the
                    // stop-flag store.
                    self.queue_cv
                        .wait_for(&mut queue, Duration::from_millis(50));
                }
            };
            match item {
                Some((id, resume)) => self.run_job(&id, resume),
                None => return,
            }
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop it — call
/// [`stop`](ServeHandle::stop) (or `POST /shutdown`, or send the binary a
/// SIGTERM) and then [`join`](ServeHandle::join).
pub struct ServeHandle {
    daemon: Arc<Daemon>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown flag — hand it to a signal handler.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.daemon.stop)
    }

    /// Request graceful shutdown (idempotent; returns once the accept
    /// thread has been woken, without waiting for the drain).
    pub fn stop(&self) {
        self.daemon.request_stop();
    }

    /// The daemon's metrics registry.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.daemon.metrics)
    }

    /// Block until shutdown is requested, then tear down: join the accept
    /// loop and the worker pool (running sessions park via their
    /// checkpoints; queued jobs stay Queued in the table and re-enqueue
    /// on the next start), run one final compaction, persist, and return.
    pub fn join(mut self) -> std::io::Result<()> {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept loop only exits with `stop` set, but make it
        // explicit for the error path.
        self.daemon.request_stop();
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.daemon.workers.lock());
        for h in workers {
            let _ = h.join();
        }
        // Every session has settled its slot by now.
        self.daemon.checkpointer.shutdown();
        // Parked handlers left when `stop` was set. One still serving only
        // touches metrics and the job table: it gets a short grace window
        // and is otherwise left behind rather than letting a slow client
        // block shutdown.
        let grace = Instant::now() + Duration::from_millis(500);
        let handlers = std::mem::take(&mut self.daemon.conns.lock().handlers);
        for handler in handlers {
            while !handler.is_finished() && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(1));
            }
            if handler.is_finished() {
                let _ = handler.join();
            }
        }
        if let Some(h) = self.compactor.take() {
            let _ = h.join();
        }
        match self.daemon.archive.compact() {
            Ok(n) => {
                self.daemon
                    .metrics
                    .compactions
                    .fetch_add(1, Ordering::Relaxed);
                self.daemon
                    .metrics
                    .compacted_records
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) => eprintln!("moat-serve: final compaction failed: {e}"),
        }
        let mut jobs = self.daemon.jobs.lock();
        self.daemon.persist(&mut jobs);
        Ok(())
    }
}

/// Start the daemon: recover state from `config.state_dir`, re-enqueue
/// interrupted jobs with their checkpoints, bind the listener, start the
/// worker pool and return.
pub fn serve(config: ServeConfig, backend: Arc<dyn JobBackend>) -> std::io::Result<ServeHandle> {
    // The layout before the artifact log kept a file per job here; it is
    // not imported, and serving it would answer 404 for every old result.
    for old in ["results", "traces"] {
        let dir = config.state_dir.join(old);
        if dir.exists() {
            return Err(std::io::Error::other(format!(
                "{}: a state directory of an older moat-serve layout (a file per job); \
                 this version keeps results and traces in artifacts.log and does not import them",
                dir.display()
            )));
        }
    }
    std::fs::create_dir_all(config.state_dir.join("ckpt"))?;
    // A temp no rename claimed is a write that never happened.
    for dir in ["", "archive", "ckpt"] {
        file::sweep(&config.state_dir.join(dir));
    }
    let artifacts = ArtifactLog::open(&config.state_dir)?;
    let archive = ShardedArchive::open(config.state_dir.join("archive"), config.shards)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let pool = FairPool::new(config.pool_slots);
    let metrics = Arc::new(ServeMetrics::default());
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let (rows, journal) = Journal::recover(&config.state_dir)?;
    let mut obs = ServiceLog::recover(config.state_dir.join("serve.jsonl"))?;
    obs.log.cut()?;
    let spans = ServiceLog::recover(config.state_dir.join("spans.jsonl"))?;

    let policy = config.admission_policy();
    let daemon = Arc::new(Daemon {
        policy,
        backend,
        pool,
        // Started once nothing below can fail: `join()` is what stops it.
        checkpointer: Checkpointer::start(config.state_dir.join("ckpt"), Arc::clone(&metrics)),
        metrics,
        archive,
        artifacts,
        stop: Arc::new(AtomicBool::new(false)),
        jobs: Mutex::new(Jobs {
            states: BTreeMap::new(),
            dedupe: HashMap::new(),
            next: 1,
            admission: AdmissionState::default(),
            journal,
        }),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        workers: Mutex::new(Vec::new()),
        conns_active: AtomicUsize::new(0),
        conns: Mutex::default(),
        conn_cv: Condvar::new(),
        obs: Mutex::new(obs),
        spans: Mutex::new(spans),
        traces: Mutex::new(HashMap::new()),
        wake,
        config,
    });

    // Re-enqueue everything interrupted, then compact what was recovered
    // into a fresh snapshot.
    let mut respawn: Vec<QueueItem> = Vec::new();
    {
        let mut jobs = daemon.jobs.lock();
        for row in rows {
            let numeric: u64 = row.id.trim_start_matches('j').parse().unwrap_or(0);
            jobs.next = jobs.next.max(numeric + 1);
            if row.serves_as.is_none() && row.status != JobStatus::Failed {
                jobs.dedupe.insert(row.spec.fingerprint(), row.id.clone());
            }
            let interrupted = row.serves_as.is_none()
                && matches!(
                    row.status,
                    JobStatus::Queued | JobStatus::Running | JobStatus::Parked
                );
            if interrupted {
                let path = daemon.checkpointer.path(row.spec.fingerprint());
                let resume = CheckpointStore::load(path).ok();
                if resume.is_some() {
                    daemon.metrics.jobs_resumed.fetch_add(1, Ordering::Relaxed);
                }
                jobs.admission.inflight_add(&row.tenant);
                respawn.push((row.id.clone(), resume));
            }
            jobs.states.insert(row.id.clone(), row);
        }
        daemon.persist(&mut jobs);
    }
    for (id, resume) in respawn {
        if resume.is_some() {
            if let Some(state) = daemon.jobs.lock().states.get_mut(&id) {
                state.resumed = true;
            }
        }
        daemon.enqueue(id, resume);
    }

    // The bounded worker pool replaces the old thread-per-job spawn.
    let workers: Vec<JoinHandle<()>> = (0..daemon.config.workers.max(1))
        .map(|w| {
            let d = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || d.worker_loop())
                .expect("spawn worker")
        })
        .collect();
    *daemon.workers.lock() = workers;

    let accept = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || loop {
            // Parked in accept() until a client or `request_stop`'s
            // wake-up connects; either way re-check `stop` first, so a
            // connection that arrives once it is set is closed, not served.
            let accepted = listener.accept();
            if d.stop.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    // Connection cap: refuse excess connections right
                    // here so slow clients can't pile up on the handlers.
                    if d.conns_active.load(Ordering::Relaxed) >= d.config.max_connections.max(1) {
                        d.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                        d.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
                        let resp = d.shed(ShedReason::Connections, "", "connection limit reached");
                        let mut stream = stream;
                        let _ = stream.set_write_timeout(Some(d.config.write_timeout));
                        let _ = wire::write_response(&mut stream, &resp);
                        continue;
                    }
                    let open = d.conns_active.fetch_add(1, Ordering::Relaxed) as u64 + 1;
                    d.metrics.connections_active.store(open, Ordering::Relaxed);
                    d.metrics
                        .connections_peak
                        .fetch_max(open, Ordering::Relaxed);
                    d.hand_off(stream);
                }
                // A failing accept (fd exhaustion, …) must not spin.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        })
    };
    let compactor = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || {
            let tick = Duration::from_millis(10);
            let mut slept = Duration::ZERO;
            loop {
                if d.stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(tick);
                slept += tick;
                if slept < d.config.compact_interval {
                    continue;
                }
                slept = Duration::ZERO;
                match d.archive.compact() {
                    Ok(n) => {
                        d.metrics.compactions.fetch_add(1, Ordering::Relaxed);
                        d.metrics
                            .compacted_records
                            .fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Err(e) => eprintln!("moat-serve: compaction failed: {e}"),
                }
                let mut jobs = d.jobs.lock();
                if jobs.journal.outgrown() {
                    d.persist(&mut jobs);
                }
            }
        })
    };

    Ok(ServeHandle {
        daemon,
        addr,
        accept: Some(accept),
        compactor: Some(compactor),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    /// The accept thread can read `stop` just before it is set and hand its
    /// connection over after every handler has left.
    #[test]
    fn a_connection_handed_over_after_stop_is_closed_not_queued() {
        let state = std::env::temp_dir().join(format!("moat-serve-handoff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state);
        let handle = serve(
            ServeConfig::new(state),
            Arc::new(crate::SyntheticBackend::default()),
        )
        .unwrap();
        handle.stop();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let d = &handle.daemon;
        d.conns_active.fetch_add(1, Ordering::Relaxed);
        d.hand_off(accepted);
        assert_eq!(d.conns_active.load(Ordering::Relaxed), 0);
        {
            let conns = d.conns.lock();
            assert!(conns.waiting.is_empty() && conns.handlers.is_empty());
        }
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0, "closed, not held");
        handle.join().unwrap();
    }

    fn shed(n: u64) -> moat_obs::Event {
        moat_obs::Event::ServeShed {
            reason: "rate_limit".into(),
            tenant: format!("t{n}"),
        }
    }

    /// A service log cut at every byte of its last record — a crash
    /// mid-append — recovers the records before it, numbers the next one
    /// after them and starts it on its own line: the file parses and its
    /// seqs run 1..n.
    #[test]
    fn every_cut_of_a_service_logs_last_record_recovers_and_continues() {
        let dir = std::env::temp_dir().join(format!("moat-service-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.jsonl");
        let mut log = ServiceLog::recover(path.clone()).unwrap();
        assert!(
            log.bytes().is_empty() && !path.exists(),
            "made by the first append"
        );
        for n in 1..=3 {
            log.append(shed(n), 0).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        assert_eq!(log.bytes(), full);
        let last = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        for cut in last..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut log = ServiceLog::recover(path.clone()).unwrap();
            let kept = if cut == full.len() { 3 } else { 2 };
            assert_eq!(log.seq, kept, "cut at byte {cut}");
            assert_eq!(log.bytes(), full[..if kept == 3 { cut } else { last }]);
            log.append(shed(9), 0).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let records = moat_obs::export::parse_jsonl(&text)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}\n{text}"));
            let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
            assert_eq!(
                seqs,
                (1..=kept + 1).collect::<Vec<_>>(),
                "cut at byte {cut}"
            );
            assert_eq!(records.last().unwrap().event, shed(9));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
