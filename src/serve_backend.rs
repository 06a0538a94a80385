//! The real tuning backend behind `moat-serve`.
//!
//! [`TuneBackend`] implements [`moat_serve::JobBackend`] by filling in a
//! [`Framework`] from the [`JobSpec`] and running its prepare and run
//! stages. The daemon owns the session wiring (cancel flag, shared
//! evaluation pool, checkpoint store, warm-start seeds), which reaches the
//! run stage as [`Hooks`] built by the [`JobContext`]. A service job runs
//! unscreened.
//! The emit stage is *not* part of a service job — the archive record is
//! the deliverable; clients regenerate code locally from the front.

use crate::framework::{Framework, Hooks, Prepared};
use moat_core::EventLog;
use moat_machine::{MachineDesc, NoiseModel};
use moat_serve::{JobBackend, JobContext, JobInfo, JobOutcome, JobSpec, PreparedJob};

/// Default evaluation budget when a job spec does not set one. Service
/// jobs must terminate even when the strategy would keep iterating, so
/// unlike `moat-tune` the daemon never runs unbounded.
pub const DEFAULT_BUDGET: u64 = 256;

/// [`JobBackend`] over the full simulation-backed tuning pipeline.
#[derive(Debug, Clone)]
pub struct TuneBackend {
    /// Measurement-noise emulation, as in
    /// [`Framework::noise`](crate::framework::Framework::noise). The noise
    /// model is deterministic per configuration, so restart/resume runs
    /// stay byte-identical to uninterrupted ones.
    pub noise: Option<NoiseModel>,
}

impl Default for TuneBackend {
    fn default() -> Self {
        TuneBackend {
            noise: Some(NoiseModel::default()),
        }
    }
}

/// A spec resolved into run options and an analyzed problem.
struct TuneJob {
    fw: Framework,
    prepared: Prepared,
    info: JobInfo,
}

impl JobBackend for TuneBackend {
    fn prepare(&self, spec: &JobSpec) -> Result<Box<dyn PreparedJob>, String> {
        let mut fw = Framework::new(MachineDesc::named(&spec.machine)?);
        fw.noise = self.noise;
        fw.strategy = spec.strategy.parse()?;
        fw.tuner_params.seed = spec.seed;
        fw.budget = Some(spec.budget.unwrap_or(DEFAULT_BUDGET));
        fw.backends = spec.backends.clone();
        let size = spec
            .size
            .map(|n| i64::try_from(n).map_err(|_| format!("size {n} out of range")))
            .transpose()?;
        let prepared = fw.prepare_kernel(spec.kernel.parse()?, size)?;
        let info = JobInfo {
            key: prepared.key,
            machine: fw.machine.features(),
        };
        Ok(Box::new(TuneJob { fw, prepared, info }))
    }
}

impl PreparedJob for TuneJob {
    fn info(&self) -> &JobInfo {
        &self.info
    }

    fn run(self: Box<Self>, ctx: JobContext) -> Result<JobOutcome, String> {
        let TuneJob {
            mut fw, prepared, ..
        } = *self;
        fw.batch = ctx.batch();
        // A failed store *creation* degrades to an uncheckpointed run
        // (counted in `serve_persist_errors_total`) rather than failing
        // the job — same policy as the serve crate's backends.
        let mut store = moat_serve::open_checkpoint_store(&ctx);
        let mut log = EventLog::new();
        let hooks = Hooks {
            session: ctx.session_hooks(&mut store, &mut log),
            wrap: Some(&|roster, session| session(&ctx.pooled(roster))),
        };
        let out = fw.run(&prepared, hooks, &ctx.obs)?;
        let record = fw.record(&prepared, &out.report);
        Ok(JobOutcome::new(
            record,
            &out.report,
            out.cancelled,
            log.events,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_serve::FairPool;
    use moat_serve::JobContext;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn spec(kernel: &str, strategy: &str) -> JobSpec {
        JobSpec {
            tenant: "t".into(),
            kernel: kernel.into(),
            size: Some(64),
            machine: "westmere".into(),
            strategy: strategy.into(),
            backends: vec![],
            budget: Some(48),
            seed: 7,
            warm_start: false,
        }
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
    fn prepare_resolves_and_rejects() {
        let backend = TuneBackend::default();
        let job = backend.prepare(&spec("mm", "random")).unwrap();
        let info = job.info();
        assert_eq!(info.machine.name, "Westmere");
        assert!(backend.prepare(&spec("nope", "random")).is_err());
        assert!(backend.prepare(&spec("mm", "nope")).is_err());
        let mut bad = spec("mm", "random");
        bad.machine = "cray-1".into();
        assert!(backend.prepare(&bad).is_err());
        let mut alt = spec("mm", "random");
        alt.backends = vec!["model".into(), "alt99".into()];
        assert!(backend.prepare(&alt).is_err(), "alt index out of range");
        let mut twice = spec("mm", "random");
        twice.backends = vec!["model".into(), "model".into()];
        let err = backend.prepare(&twice).err().expect("refused up front");
        assert_eq!(err, "duplicate backend 'model'");
        let mut tiny = spec("mm", "random");
        tiny.size = Some(3);
        let err = backend.prepare(&tiny).err().expect("refused up front");
        assert!(err.contains("too small"), "{err}");
    }

    #[test]
    fn runs_are_deterministic_and_archive_ready() {
        let backend = TuneBackend::default();
        let pool = FairPool::new(4);
        let run = |spec: &JobSpec, ctx| backend.prepare(spec).unwrap().run(ctx).unwrap();
        let a = run(&spec("mm", "random"), ctx(Arc::clone(&pool)));
        let b = run(&spec("mm", "random"), ctx(Arc::clone(&pool)));
        assert_eq!(a.record, b.record, "fixed seed ⇒ identical record");
        assert_eq!(a.evaluations, 48);
        assert!(!a.record.front.is_empty());
        assert_eq!(
            a.record.key,
            backend.prepare(&spec("mm", "random")).unwrap().info().key
        );
        // The archive key addresses skeleton × space × machine: a kernel
        // with a different loop structure (jacobi-2d: 2-deep band vs mm's
        // 3-deep) resolves to a different key.
        let c = run(&spec("jacobi-2d", "random"), ctx(pool));
        assert_ne!(a.record.key, c.record.key, "loop structure changes the key");
    }

    #[test]
    fn multi_backend_roster_tags_provenance() {
        let backend = TuneBackend::default();
        let pool = FairPool::new(4);
        let mut s = spec("mm", "random");
        s.backends = vec!["model".into(), "unroll4".into()];
        let out = backend.prepare(&s).unwrap().run(ctx(pool)).unwrap();
        assert!(!out.record.front.is_empty());
        assert!(
            out.record.front.iter().all(|p| p.provenance.is_some()),
            "every rostered point carries provenance"
        );
    }
}
