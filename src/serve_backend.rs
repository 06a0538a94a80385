//! The real tuning backend behind `moat-serve`.
//!
//! [`TuneBackend`] implements [`moat_serve::JobBackend`] over the same
//! machinery as [`Framework::tune`](crate::framework::Framework::tune):
//! analyzer-derived skeletons, the analytic cost model, the multi-backend
//! roster, and the archive record format. It differs from `Framework` in
//! one deliberate way: the daemon owns the session wiring (cancel flag,
//! shared evaluation pool, checkpoint store, warm-start seeds), so the
//! backend threads every [`JobContext`] hook through the
//! [`TuningSession`] instead of running fire-and-forget. Code generation
//! (the version table and C emission) is *not* part of a service job —
//! the archive record is the deliverable; clients regenerate code locally
//! from the front.

use crate::features::IrFeatures;
use crate::framework::{parse_backend_spec, BackendSpec};
use crate::sim::{
    ir_space, AltSkeletonEvaluator, FixedUnrollEvaluator, SimEvaluator, OBJECTIVE_NAMES,
};
use moat_archive::{ArchiveKey, ArchiveRecord};
use moat_core::{
    BackendId, BackendKind, BackendSet, BatchEval, Evaluator, EventLog, FeatureSource, GridTuner,
    Nsga2Params, Nsga2Tuner, RandomTuner, RsGde3Params, RsGde3Tuner, ScreeningPolicy, StrategyKind,
    Surrogate, SurrogateScreen, Tuner, TuningSession, WeightedSumTuner, WeightedSweepParams,
};
use moat_ir::{analyze, AnalyzerConfig, Region, Skeleton};
use moat_kernels::Kernel;
use moat_machine::{CostModel, MachineDesc, NoiseModel};
use moat_serve::PooledEvaluator;
use moat_serve::{JobBackend, JobContext, JobInfo, JobOutcome, JobSpec};

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
    /// Grid points per `Range` dimension for the `grid` strategy.
    pub grid_steps: usize,
}

impl Default for TuneBackend {
    fn default() -> Self {
        TuneBackend {
            noise: Some(NoiseModel::default()),
            grid_steps: 10,
        }
    }
}

/// Everything `prepare` resolves once and `run` reuses.
struct Resolved {
    region: Region,
    machine: MachineDesc,
    strategy: StrategyKind,
    specs: Vec<BackendSpec>,
}

/// Parse a kernel name (the `moat-tune` vocabulary).
fn parse_kernel(name: &str) -> Result<Kernel, String> {
    match name {
        "mm" => Ok(Kernel::Mm),
        "dsyrk" => Ok(Kernel::Dsyrk),
        "jacobi-2d" | "jacobi2d" => Ok(Kernel::Jacobi2d),
        "3d-stencil" | "stencil3d" => Ok(Kernel::Stencil3d),
        "n-body" | "nbody" => Ok(Kernel::Nbody),
        other => Err(format!(
            "unknown kernel '{other}' (known: mm, dsyrk, jacobi-2d, 3d-stencil, n-body)"
        )),
    }
}

/// Parse a machine name (the `moat-tune` vocabulary).
fn parse_machine(name: &str) -> Result<MachineDesc, String> {
    match name {
        "westmere" => Ok(MachineDesc::westmere()),
        "barcelona" => Ok(MachineDesc::barcelona()),
        other => Err(format!(
            "unknown machine '{other}' (known: westmere, barcelona)"
        )),
    }
}

impl TuneBackend {
    fn resolve(&self, spec: &JobSpec) -> Result<Resolved, String> {
        let kernel = parse_kernel(&spec.kernel)?;
        let machine = parse_machine(&spec.machine)?;
        let strategy = StrategyKind::parse(&spec.strategy).ok_or_else(|| {
            let known = StrategyKind::all()
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(", ");
            format!("unknown strategy '{}' (known: {known})", spec.strategy)
        })?;
        let specs = spec
            .backends
            .iter()
            .map(|s| parse_backend_spec(s))
            .collect::<Result<Vec<_>, _>>()?;
        let wants_alternatives = specs
            .iter()
            .any(|s| matches!(s, BackendSpec::AltSkeleton(_)));

        let size = match spec.size {
            Some(n) => i64::try_from(n).map_err(|_| format!("size {n} out of range"))?,
            None => kernel.info().paper_size,
        };
        if size < 4 {
            return Err(format!("size {size} too small (minimum 4)"));
        }
        let raw = kernel.region(size);
        let mut acfg = AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect());
        acfg.alternatives = acfg.alternatives || wants_alternatives;
        let region = analyze(raw, &acfg)?;
        for s in &specs {
            if let BackendSpec::AltSkeleton(k) = s {
                if *k >= region.skeletons.len() {
                    return Err(format!(
                        "backend 'alt{k}': region {} has only {} skeleton(s)",
                        region.name,
                        region.skeletons.len()
                    ));
                }
            }
        }
        Ok(Resolved {
            region,
            machine,
            strategy,
            specs,
        })
    }

    fn make_tuner(&self, strategy: StrategyKind, seed: u64) -> Box<dyn Tuner> {
        let params = RsGde3Params {
            seed,
            ..RsGde3Params::default()
        };
        match strategy {
            StrategyKind::Grid => Box::new(GridTuner::new(self.grid_steps)),
            StrategyKind::Random => Box::new(RandomTuner::new(seed)),
            StrategyKind::Gde3 => Box::new(RsGde3Tuner::new(RsGde3Params {
                use_roughset: false,
                ..params
            })),
            StrategyKind::Nsga2 => Box::new(Nsga2Tuner::new(Nsga2Params {
                seed,
                ..Default::default()
            })),
            StrategyKind::RsGde3 => Box::new(RsGde3Tuner::new(params)),
            StrategyKind::WeightedSum => Box::new(WeightedSumTuner::new(WeightedSweepParams {
                seed,
                ..Default::default()
            })),
        }
    }
}

impl JobBackend for TuneBackend {
    fn prepare(&self, spec: &JobSpec) -> Result<JobInfo, String> {
        let r = self.resolve(spec)?;
        let skeleton: &Skeleton = &r.region.skeletons[0];
        let space = ir_space(skeleton);
        Ok(JobInfo {
            key: ArchiveKey::of(skeleton, &space, &r.machine),
            machine: r.machine.features(),
            param_names: space.names.clone(),
            objective_names: OBJECTIVE_NAMES.iter().map(|s| s.to_string()).collect(),
        })
    }

    fn run(&self, spec: &JobSpec, ctx: JobContext) -> Result<JobOutcome, String> {
        let r = self.resolve(spec)?;
        let skeleton = &r.region.skeletons[0];
        let model = match self.noise {
            Some(n) => CostModel::with_noise(r.machine.clone(), n),
            None => CostModel::new(r.machine.clone()),
        };
        let base_eval = SimEvaluator {
            region: &r.region,
            skeleton,
            model: &model,
        };
        let space = ir_space(skeleton);
        let key = ArchiveKey::of(skeleton, &space, &r.machine);

        // Multi-backend roster, exactly as in `Framework::tune_inner`: the
        // optimizer sees the product space `config × backend` and the
        // archived front carries per-point provenance.
        let unrolls: Vec<FixedUnrollEvaluator> = r
            .specs
            .iter()
            .filter_map(|s| match s {
                BackendSpec::Unroll(n) => {
                    Some(FixedUnrollEvaluator::new(&r.region, skeleton, &model, *n))
                }
                _ => None,
            })
            .collect();
        let alts: Vec<AltSkeletonEvaluator> = r
            .specs
            .iter()
            .filter_map(|s| match s {
                BackendSpec::AltSkeleton(k) => {
                    Some(AltSkeletonEvaluator::new(&r.region, &model, *k))
                }
                _ => None,
            })
            .collect();
        let backend_set = if r.specs.is_empty() {
            None
        } else {
            let mut set = BackendSet::new();
            let (mut next_unroll, mut next_alt) = (0, 0);
            for (name, bspec) in spec.backends.iter().zip(&r.specs) {
                let prov = moat_core::Provenance::new(
                    BackendId::new(BackendKind::Analytic, name.clone()),
                    key.machine,
                );
                match bspec {
                    BackendSpec::Model => set.register(prov, &base_eval),
                    BackendSpec::Unroll(_) => {
                        set.register(prov, &unrolls[next_unroll]);
                        next_unroll += 1;
                    }
                    BackendSpec::AltSkeleton(_) => {
                        set.register(prov, &alts[next_alt]);
                        next_alt += 1;
                    }
                }
            }
            Some(set)
        };
        let tuning_space = match &backend_set {
            Some(set) => set.space(&space),
            None => space.clone(),
        };
        let evaluator: &dyn Evaluator = match &backend_set {
            Some(set) => set,
            None => &base_eval,
        };

        // Daemon wiring: every evaluation pays one shared-pool slot, the
        // session checkpoints through the gauge-instrumented store, and
        // the daemon's stop flag cuts the run at the next batch boundary.
        let pooled = {
            let p = PooledEvaluator::new(evaluator, std::sync::Arc::clone(&ctx.pool), ctx.job_fp);
            match &ctx.metrics {
                Some(m) => p.with_metrics(std::sync::Arc::clone(m)),
                None => p,
            }
        };
        // A failed store *creation* degrades to an uncheckpointed run
        // (counted in `serve_persist_errors_total`) rather than failing
        // the job — same policy as the serve crate's backends.
        let mut store = moat_serve::open_checkpoint_store(&ctx);
        let mut log = EventLog::new();
        let batch = if ctx.slots > 1 {
            BatchEval::parallel(ctx.slots)
        } else {
            BatchEval::sequential()
        };
        let budget = spec.budget.unwrap_or(DEFAULT_BUDGET);

        let (mut result, cancelled) = {
            let mut session = TuningSession::new(tuning_space.clone(), &pooled)
                .with_label(r.region.name.clone())
                .with_batch(batch)
                .with_budget(budget)
                .with_cancel(std::sync::Arc::clone(&ctx.cancel))
                .with_batch_timing(ctx.trace.is_some())
                .with_obs(ctx.obs.clone())
                .with_sink(&mut log);
            if let Some(warm) = ctx.warm.clone() {
                session = session.with_warm_start(warm);
            }
            if let Some(resume) = ctx.resume.clone() {
                session = session.with_resume(resume).map_err(|e| e.to_string())?;
            }
            if let Some(store) = store.as_mut() {
                session = session.with_checkpointing(store, ctx.checkpoint_every.max(1));
            }
            // Daemon-level surrogate screening: engineered IR/machine
            // features, primed with the admission-time archive pull
            // (multi-backend records carry product-space provenance, so
            // priming is restricted to the classic single-backend path).
            if let Some(s) = &ctx.surrogate {
                let policy = ScreeningPolicy {
                    screen_ratio: s.screen_ratio,
                    seed: spec.seed,
                    ..Default::default()
                };
                let features = IrFeatures::new(skeleton, &tuning_space, &r.machine.features());
                let model = Surrogate::new(features.dims(), base_eval.num_objectives());
                let mut screen = SurrogateScreen::new(Box::new(features), model, policy);
                if r.specs.is_empty() {
                    for (cfg, objs) in &s.primer {
                        screen.prime(cfg, objs);
                    }
                }
                session = session.with_surrogate(screen);
            }
            let report = session.run(self.make_tuner(r.strategy, spec.seed).as_ref());
            let cancelled = session.cancelled();
            (report, cancelled)
        };
        if let Some(set) = &backend_set {
            result.front = set.annotate_front(&result.front);
        }

        let record = ArchiveRecord::from_report(
            r.region.name.clone(),
            skeleton,
            &space,
            &r.machine,
            OBJECTIVE_NAMES.iter().map(|s| s.to_string()).collect(),
            &result,
        );
        Ok(JobOutcome {
            record,
            evaluations: result.evaluations,
            iterations: result.iterations,
            stop: result.stop,
            cancelled,
            events: log.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_serve::FairPool;
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
            checkpoint_path: None,
            checkpoint_every: 1,
            resume: None,
            warm: None,
            metrics: None,
            surrogate: None,
            trace: None,
            obs: moat_obs::Obs::default(),
        }
    }

    #[test]
    fn prepare_resolves_and_rejects() {
        let backend = TuneBackend::default();
        let info = backend.prepare(&spec("mm", "random")).unwrap();
        assert_eq!(info.machine.name, "Westmere");
        assert_eq!(info.objective_names, vec!["time_s", "cpu_seconds"]);
        assert!(!info.param_names.is_empty());
        assert!(backend.prepare(&spec("nope", "random")).is_err());
        assert!(backend.prepare(&spec("mm", "nope")).is_err());
        let mut bad = spec("mm", "random");
        bad.machine = "cray-1".into();
        assert!(backend.prepare(&bad).is_err());
        let mut alt = spec("mm", "random");
        alt.backends = vec!["model".into(), "alt99".into()];
        assert!(backend.prepare(&alt).is_err(), "alt index out of range");
    }

    #[test]
    fn runs_are_deterministic_and_archive_ready() {
        let backend = TuneBackend::default();
        let pool = FairPool::new(4);
        let a = backend
            .run(&spec("mm", "random"), ctx(Arc::clone(&pool)))
            .unwrap();
        let b = backend
            .run(&spec("mm", "random"), ctx(Arc::clone(&pool)))
            .unwrap();
        assert_eq!(a.record, b.record, "fixed seed ⇒ identical record");
        assert_eq!(a.evaluations, 48);
        assert!(!a.record.front.is_empty());
        assert_eq!(
            a.record.key,
            backend.prepare(&spec("mm", "random")).unwrap().key
        );
        // The archive key addresses skeleton × space × machine: a kernel
        // with a different loop structure (jacobi-2d: 2-deep band vs mm's
        // 3-deep) resolves to a different key.
        let c = backend
            .run(&spec("jacobi-2d", "random"), ctx(pool))
            .unwrap();
        assert_ne!(a.record.key, c.record.key, "loop structure changes the key");
    }

    #[test]
    fn multi_backend_roster_tags_provenance() {
        let backend = TuneBackend::default();
        let pool = FairPool::new(4);
        let mut s = spec("mm", "random");
        s.backends = vec!["model".into(), "unroll4".into()];
        let out = backend.run(&s, ctx(pool)).unwrap();
        assert!(!out.record.front.is_empty());
        assert!(
            out.record.front.iter().all(|p| p.provenance.is_some()),
            "every rostered point carries provenance"
        );
    }
}
