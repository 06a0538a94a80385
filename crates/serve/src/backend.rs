//! The seam between the daemon and the actual tuning machinery.
//!
//! `moat-serve` schedules, dedupes and persists; it does not know how to
//! resolve a kernel name into a skeleton, run a cache simulation or emit
//! C. A [`JobBackend`] supplies exactly that: [`prepare`] resolves a
//! [`JobSpec`] into a [`PreparedJob`] — the content-addressed identity of
//! the problem plus whatever the backend needs to tune it — and its
//! [`run`] executes one tuning session under the daemon-provided
//! [`JobContext`] (cancel flag, shared pool, checkpointer, warm-start
//! hints). The context turns itself into session wiring
//! ([`JobContext::session_hooks`], [`JobContext::pooled`]), so every
//! backend is cancelled, checkpointed, resumed and metered the same way.
//! The top-level `moat` crate implements the trait over its framework;
//! the [`SyntheticBackend`] here drives the protocol, scheduling and
//! determinism tests without any of that machinery.
//!
//! [`prepare`]: JobBackend::prepare
//! [`run`]: PreparedJob::run

use crate::checkpointer::{Checkpointer, GaugedStore};
use crate::pool::{FairPool, PooledEvaluator};
use crate::spec::JobSpec;
use moat_archive::{ArchiveKey, ArchiveRecord, FORMAT_VERSION};
use moat_core::{
    BatchEval, Config, Evaluator, EventLog, RandomTuner, SessionCheckpoint, SessionHooks,
    StopReason, TuningEvent, TuningReport, TuningSession, WarmStart,
};
use moat_machine::{MachineDesc, MachineFeatures};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// The problem identity a backend resolves a spec into, before running.
#[derive(Debug, Clone)]
pub struct JobInfo {
    /// Content address of the tuning problem — the dedupe/warm-start key.
    pub key: ArchiveKey,
    /// The target machine's features (drives nearest-machine transfer).
    pub machine: MachineFeatures,
}

/// Everything the daemon injects into one job run.
#[derive(Debug, Clone)]
pub struct JobContext {
    /// Cooperative shutdown flag: when set, the session saves the next
    /// boundary it reaches, stops there and the outcome reports
    /// `cancelled`.
    pub cancel: Arc<AtomicBool>,
    /// The shared evaluation pool; every evaluation must hold one slot
    /// (wrap the evaluator in [`PooledEvaluator`]).
    pub pool: Arc<FairPool>,
    /// The job fingerprint — the pool's fairness identity and the name of
    /// the job's checkpoint file.
    pub job_fp: u64,
    /// `BatchEval::parallel` width for the session.
    pub slots: usize,
    /// The daemon's checkpointer, for crash/shutdown resilience (`None`
    /// disables checkpointing).
    pub checkpoints: Option<Arc<Checkpointer>>,
    /// Checkpoint cadence (every N-th opportunity).
    pub checkpoint_every: u32,
    /// Resume state from a previous incarnation of this job.
    pub resume: Option<SessionCheckpoint>,
    /// Archive-derived warm start (hints and/or seeds). Exact archive
    /// hits never reach the backend — the daemon replays them from the
    /// archive at `E = 0` — so this carries transfer seeds in practice.
    pub warm: Option<WarmStart>,
    /// Daemon metrics to count pool evaluations into.
    pub metrics: Option<Arc<crate::metrics::ServeMetrics>>,
    /// The request's trace context, when the submission carried an
    /// `x-moat-trace` header. Backends use it to opt the session into
    /// per-batch wall timing (so eval spans get real durations); untraced
    /// jobs (`None`) never read the clock and stay byte-identical.
    pub trace: Option<moat_obs::TraceContext>,
    /// The job's own observability handle. Backends hand it to the
    /// session (and the evaluator layers and stores under it); whatever
    /// the run emits on it *is* the job's trace (`GET /jobs/<id>/trace`,
    /// kept in `artifacts.log`) — the same records
    /// `moat-tune --trace` writes for the same spec and seed.
    pub obs: moat_obs::Obs,
}

impl JobContext {
    /// `inner` behind the shared pool: every evaluation holds one slot on
    /// behalf of this job and is counted into the daemon's metrics.
    pub fn pooled<'e>(&self, inner: &'e dyn Evaluator) -> PooledEvaluator<'e> {
        let pooled = PooledEvaluator::new(inner, Arc::clone(&self.pool), self.job_fp);
        match &self.metrics {
            Some(m) => pooled.with_metrics(Arc::clone(m)),
            None => pooled,
        }
    }

    /// The session's batch evaluator, `slots` wide.
    pub fn batch(&self) -> BatchEval {
        if self.slots > 1 {
            BatchEval::parallel(self.slots)
        } else {
            BatchEval::sequential()
        }
    }

    /// The daemon's session wiring: the stop flag cuts the run at the next
    /// checkpointed boundary, a traced job times its batches, events go to `log`
    /// (the daemon derives spans from them), the session checkpoints
    /// through `store` (from [`open_checkpoint_store`]) and starts from
    /// the archive-derived warm start or the previous incarnation's
    /// checkpoint.
    pub fn session_hooks<'a>(
        &self,
        store: &'a mut Option<GaugedStore>,
        log: &'a mut EventLog,
    ) -> SessionHooks<'a> {
        SessionHooks {
            cancel: Some(Arc::clone(&self.cancel)),
            batch_timing: self.trace.is_some(),
            time_budget: None,
            events: Some(log),
            checkpoint: store
                .as_mut()
                .map(|s| (s as _, self.checkpoint_every.max(1))),
            warm: self.warm.clone(),
            resume: self.resume.clone(),
        }
    }
}

/// What one finished (or parked) job run produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The mergeable archive record of this run's front.
    pub record: ArchiveRecord,
    /// Distinct evaluations spent.
    pub evaluations: u64,
    /// Strategy iterations executed.
    pub iterations: u32,
    /// Why the session stopped.
    pub stop: StopReason,
    /// True when the run was cut by the cancel flag — the job parks and
    /// resumes from its last checkpoint instead of completing.
    pub cancelled: bool,
    /// The session's event stream: the daemon derives a traced job's
    /// `eval` and `checkpoint` spans from it.
    pub events: Vec<TuningEvent>,
}

impl JobOutcome {
    /// The outcome of a session that produced `report` and `events` and
    /// whose front is archived as `record`.
    pub fn new(
        record: ArchiveRecord,
        report: &TuningReport,
        cancelled: bool,
        events: Vec<TuningEvent>,
    ) -> JobOutcome {
        JobOutcome {
            record,
            evaluations: report.evaluations,
            iterations: report.iterations,
            stop: report.stop,
            cancelled,
            events,
        }
    }
}

/// A pluggable tuning executor.
pub trait JobBackend: Send + Sync + 'static {
    /// Resolve a spec into a runnable job, or explain why it cannot be
    /// served (unknown kernel/machine/strategy, bad roster, …). The daemon
    /// calls this on the request path to validate and address a
    /// submission, and once more per job run, keeping the result for the
    /// whole run.
    fn prepare(&self, spec: &JobSpec) -> Result<Box<dyn PreparedJob>, String>;
}

/// A resolved job: what [`JobBackend::prepare`] makes of a [`JobSpec`].
pub trait PreparedJob: Send {
    /// The problem's identity.
    fn info(&self) -> &JobInfo;

    /// Execute one tuning session under `ctx`.
    fn run(self: Box<Self>, ctx: JobContext) -> Result<JobOutcome, String>;
}

/// Open the job's slot with the daemon's checkpointer and return the
/// sink its session checkpoints through (see [`Checkpointer::open`]).
pub fn open_checkpoint_store(ctx: &JobContext) -> Option<GaugedStore> {
    ctx.checkpoints.as_ref()?.open(ctx.job_fp)
}

/// FNV-1a over a string, for synthetic fingerprints.
fn fnv(s: &str) -> u64 {
    moat_obs::fnv1a(moat_obs::FNV_OFFSET, s.as_bytes())
}

/// A self-contained backend over a deterministic synthetic 2-objective
/// problem — the protocol/scheduling/determinism test double. The
/// problem's landscape depends on the kernel name, so distinct specs
/// produce distinct fronts; the strategy is always random search (seeded
/// by the spec), which exercises budgets, batching, checkpointing and
/// cancellation exactly like the real thing at a fraction of the cost.
#[derive(Debug, Clone, Default)]
pub struct SyntheticBackend {
    /// Artificial per-evaluation delay in microseconds — gives the load
    /// generator something to measure and the fairness tests contention.
    pub eval_delay_us: u64,
}

impl SyntheticBackend {
    /// Default evaluation budget when the spec does not set one.
    pub const DEFAULT_BUDGET: u64 = 96;

    fn space(&self) -> moat_core::ParamSpace {
        moat_core::ParamSpace::new(
            vec!["x".into(), "y".into()],
            vec![
                moat_core::Domain::Range { lo: 0, hi: 200 },
                moat_core::Domain::Range { lo: 0, hi: 200 },
            ],
        )
    }

    fn machine(&self, spec: &JobSpec) -> MachineFeatures {
        let mut features = MachineDesc::westmere().features();
        features.name = spec.machine.clone();
        features
    }
}

/// A synthetic job: the spec, its identity and the evaluation delay.
struct SyntheticJob {
    spec: JobSpec,
    info: JobInfo,
    space: moat_core::ParamSpace,
    eval_delay_us: u64,
}

impl JobBackend for SyntheticBackend {
    fn prepare(&self, spec: &JobSpec) -> Result<Box<dyn PreparedJob>, String> {
        if spec.kernel.starts_with("bad") {
            return Err(format!("unknown kernel {:?}", spec.kernel));
        }
        let space = self.space();
        let machine = self.machine(spec);
        Ok(Box::new(SyntheticJob {
            spec: spec.clone(),
            info: JobInfo {
                key: ArchiveKey::new(fnv(&spec.kernel), space.signature(), machine.fingerprint()),
                machine,
            },
            space,
            eval_delay_us: self.eval_delay_us,
        }))
    }
}

impl PreparedJob for SyntheticJob {
    fn info(&self) -> &JobInfo {
        &self.info
    }

    fn run(self: Box<Self>, ctx: JobContext) -> Result<JobOutcome, String> {
        let SyntheticJob {
            spec,
            info,
            space,
            eval_delay_us: delay,
        } = *self;
        let bias = (fnv(&spec.kernel) % 97) as f64;
        let ev = (2usize, move |cfg: &Config| {
            if delay > 0 {
                std::thread::sleep(std::time::Duration::from_micros(delay));
            }
            let (x, y) = (cfg[0] as f64, cfg[1] as f64);
            Some(vec![(x - bias).powi(2) + y, (y - bias).powi(2) + x])
        });
        let pooled = ctx.pooled(&ev);
        let mut store = open_checkpoint_store(&ctx);
        let mut log = EventLog::new();

        let (report, cancelled) = {
            let mut session = TuningSession::new(space.clone(), &pooled)
                .with_label(&spec.kernel)
                .with_batch(ctx.batch())
                .with_budget(spec.budget.unwrap_or(SyntheticBackend::DEFAULT_BUDGET))
                .with_obs(ctx.obs.clone())
                .with_hooks(ctx.session_hooks(&mut store, &mut log))
                .map_err(|e| e.to_string())?;
            let report = session.run(&RandomTuner::new(spec.seed));
            (report, session.cancelled())
        };

        let mut record = ArchiveRecord {
            format_version: FORMAT_VERSION,
            key: info.key,
            region: spec.kernel.clone(),
            skeleton: spec.kernel,
            machine: info.machine,
            param_names: space.names,
            objective_names: vec!["f0".into(), "f1".into()],
            evaluations: report.evaluations,
            runs: 1,
            front: report.front.points().to_vec(),
        };
        record.canonicalize();
        Ok(JobOutcome::new(record, &report, cancelled, log.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kernel: &str) -> JobSpec {
        JobSpec {
            tenant: "t".into(),
            kernel: kernel.into(),
            size: None,
            machine: "westmere".into(),
            strategy: "random".into(),
            backends: vec![],
            budget: Some(40),
            seed: 3,
            warm_start: false,
        }
    }

    fn run(kernel: &str, ctx: JobContext) -> Result<JobOutcome, String> {
        SyntheticBackend::default().prepare(&spec(kernel))?.run(ctx)
    }

    fn ctx(pool: Arc<FairPool>) -> JobContext {
        JobContext {
            cancel: Arc::new(AtomicBool::new(false)),
            pool,
            job_fp: 1,
            slots: 2,
            checkpoints: None,
            checkpoint_every: 1,
            resume: None,
            warm: None,
            metrics: None,
            trace: None,
            obs: moat_obs::Obs::default(),
        }
    }

    #[test]
    fn synthetic_runs_are_deterministic_and_kernel_sensitive() {
        let pool = FairPool::new(4);
        let a = run("mm", ctx(Arc::clone(&pool))).unwrap();
        let b = run("mm", ctx(Arc::clone(&pool))).unwrap();
        assert_eq!(a.record, b.record, "fixed seed ⇒ identical record");
        assert_eq!(a.evaluations, 40);
        assert!(!a.cancelled);
        let c = run("dsyrk", ctx(pool)).unwrap();
        assert_ne!(a.record.key, c.record.key, "kernel changes the key");
    }

    #[test]
    fn uncreatable_checkpoint_store_degrades_instead_of_failing() {
        let pool = FairPool::new(2);
        let dir =
            std::env::temp_dir().join(format!("moat-serve-backend-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A *file* where the store needs a directory: create() must fail.
        std::fs::write(dir.join("blocker"), b"not a dir").unwrap();
        let metrics = Arc::new(crate::metrics::ServeMetrics::default());
        let checkpointer = Checkpointer::start(dir.join("blocker"), Arc::clone(&metrics));
        let mut c = ctx(pool);
        c.checkpoints = Some(Arc::clone(&checkpointer));
        let out = run("mm", c).expect("job survives");
        checkpointer.shutdown();
        assert!(!out.cancelled);
        assert_eq!(out.evaluations, 40, "full run, just uncheckpointed");
        assert_eq!(
            metrics
                .persist_errors
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            metrics
                .parked_checkpoints
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_parks_with_resume_state() {
        let pool = FairPool::new(2);
        let dir =
            std::env::temp_dir().join(format!("moat-serve-backend-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpointer = Checkpointer::start(&dir, Arc::default());
        let mut c = ctx(Arc::clone(&pool));
        c.cancel.store(true, std::sync::atomic::Ordering::Relaxed);
        c.checkpoints = Some(Arc::clone(&checkpointer));
        let out = run("mm", c).unwrap();
        assert_eq!(
            checkpointer.settle(1, true),
            (vec![], None),
            "nothing to flush"
        );
        checkpointer.shutdown();
        assert!(out.cancelled);
        assert_eq!(out.stop, StopReason::Cancelled);
        assert_eq!(out.evaluations, 0, "pre-set flag cuts before any batch");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
