//! The end-to-end auto-tuning pipeline (paper Fig. 3, labels 1–5), in the
//! three stages every host composes: [`Framework::prepare`] (analysis and
//! whatever else depends on the problem alone), [`Framework::run`] (the
//! evaluator stack, the session, the archive) and [`Framework::table`] /
//! [`Framework::emit`] (the backend artifacts). [`Framework::tune`] chains
//! them; `moat-tune` and `moat-serve`'s `TuneBackend` call the same stages
//! and differ in the [`Hooks`] they hand to the middle one.

use crate::features::IrFeatures;
use crate::sim::{
    ir_space, AltSkeletonEvaluator, FixedUnrollEvaluator, MultiObjectiveEvaluator, Objective,
};
use moat_archive::{Archive, ArchiveKey, ArchiveRecord, WarmStartSource};
use moat_core::{
    BackendId, BackendKind, BackendSet, BatchEval, Evaluator, FeatureSource, ParamSpace,
    ParetoFront, Provenance, RsGde3Params, ScreeningPolicy, SessionHooks, StrategyKind, Surrogate,
    SurrogateScreen, SurrogateStats, TuningReport, TuningSession,
};
use moat_ir::{analyze, AnalyzerConfig, Region, Skeleton, Step, Variant};
use moat_kernels::Kernel;
use moat_machine::{CostModel, MachineDesc, NoiseModel};
use moat_multiversion::{emit_multiversioned_c, VersionTable};
use moat_obs::{Obs, TimestampMode};
use std::path::{Path, PathBuf};

/// Run `body` under an observability handle and write what it recorded:
/// the JSONL trace to `trace`, the Prometheus-style snapshot to
/// `metrics`. The handle is live only when at least one file is asked
/// for, so a plain run keeps the pre-instrumentation code path (and
/// byte-identical output) exactly. The one place trace and metrics files
/// are written — [`Framework::tune`] and `moat-tune` both go through it.
pub fn run_observed<T>(
    trace: Option<&Path>,
    metrics: Option<&Path>,
    mode: TimestampMode,
    body: impl FnOnce(&Obs) -> T,
) -> Result<T, String> {
    let obs = if trace.is_some() || metrics.is_some() {
        Obs::new(mode)
    } else {
        Obs::default()
    };
    let out = body(&obs);
    let records = obs.drain();
    if let Some(path) = trace {
        std::fs::write(path, moat_obs::export::to_jsonl(&records))
            .map_err(|e| format!("writing trace {}: {e}", path.display()))?;
    }
    if let Some(path) = metrics {
        std::fs::write(path, moat_obs::metrics::render(&records))
            .map_err(|e| format!("writing metrics {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// A fully tuned region: the optimizer's result plus the backend artifacts.
#[derive(Debug, Clone)]
pub struct TunedRegion {
    /// The analyzed region (with skeletons attached).
    pub region: Region,
    /// Index of the tuned skeleton within `region.skeletons`.
    pub skeleton_index: usize,
    /// Optimizer output: Pareto front, evaluation count, stop reason,
    /// progress trace.
    pub result: TuningReport,
    /// The version table (Fig. 6).
    pub table: VersionTable,
    /// Instantiated variants, index-aligned with `table.versions`.
    pub variants: Vec<Variant>,
    /// Generated multi-versioned C (OpenMP) source.
    pub source_c: String,
    /// Where the optimizer's warm start came from, when a tuning archive
    /// was consulted (`None`: cold start or no archive configured).
    pub warm_start: Option<WarmStartSource>,
}

/// One parsed entry of a backend roster — the analytic variants that
/// [`Framework::backends`] and `moat-tune --backends` can register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// `"model"`: the plain analytic cost model on the base skeleton.
    Model,
    /// `"unroll<N>"`: the model with an innermost unroll of `N` baked in.
    Unroll(i64),
    /// `"alt<K>"`: the model over alternative transformation skeleton `K`
    /// (derived by the analyzer with `alternatives: true`); a structurally
    /// different code shape whose cost surface crosses the base
    /// skeleton's, so rosters like `model,alt1` yield honestly mixed
    /// fronts.
    AltSkeleton(usize),
}

/// Parse one backend spec (`model`, `unroll<N>`, or `alt<K>`). The single
/// grammar behind [`Framework::backends`] and `moat-tune --backends`.
pub fn parse_backend_spec(spec: &str) -> Result<BackendSpec, String> {
    if spec == "model" {
        return Ok(BackendSpec::Model);
    }
    if let Some(n) = spec.strip_prefix("unroll") {
        let factor: i64 = n
            .parse()
            .map_err(|_| format!("bad backend spec '{spec}': unroll<N> needs an integer"))?;
        if factor < 1 {
            return Err(format!(
                "bad backend spec '{spec}': unroll factor must be >= 1"
            ));
        }
        return Ok(BackendSpec::Unroll(factor));
    }
    if let Some(k) = spec.strip_prefix("alt") {
        let index: usize = k
            .parse()
            .map_err(|_| format!("bad backend spec '{spec}': alt<K> needs a skeleton index"))?;
        if index < 1 {
            return Err(format!(
                "bad backend spec '{spec}': alt<K> starts at 1 (0 is the base skeleton)"
            ));
        }
        return Ok(BackendSpec::AltSkeleton(index));
    }
    Err(format!(
        "unknown backend spec '{spec}' (expected model, unroll<N>, or alt<K>)"
    ))
}

/// Parse and validate a whole roster: every entry well-formed, no name
/// twice (two backends with one identity would make provenance
/// meaningless).
fn parse_roster(names: &[String]) -> Result<Vec<BackendSpec>, String> {
    for (i, name) in names.iter().enumerate() {
        if names[..i].contains(name) {
            return Err(format!("duplicate backend '{name}'"));
        }
    }
    names.iter().map(|s| parse_backend_spec(s)).collect()
}

/// The auto-tuning framework bound to one target machine: the one set of
/// run options `moat-tune`'s flags, a `moat-serve` job spec and library
/// callers all fill in.
#[derive(Debug, Clone)]
pub struct Framework {
    /// Target machine description.
    pub machine: MachineDesc,
    /// Measurement-noise emulation (defaults to the paper's
    /// median-of-3 protocol; set to `None` for exact model output).
    pub noise: Option<NoiseModel>,
    /// The objectives tuned, in table order (defaults to the paper's
    /// time and resource usage; energy is the further candidate of
    /// §III-B.1).
    pub objectives: Vec<Objective>,
    /// Search strategy (defaults to the paper's RS-GDE3).
    pub strategy: StrategyKind,
    /// RS-GDE3 parameters (the seed is shared with the other stochastic
    /// strategies).
    pub tuner_params: RsGde3Params,
    /// Optional hard cap on distinct evaluations, enforced by the
    /// [`TuningSession`] regardless of strategy.
    pub budget: Option<u64>,
    /// Parallelism for configuration evaluation (paper: configurations are
    /// generated, compiled and evaluated in parallel).
    pub batch: BatchEval,
    /// Optional code-size budget: cap the number of generated versions,
    /// keeping the per-objective champions plus the max-hypervolume subset.
    pub max_versions: Option<usize>,
    /// Add a tunable innermost-unroll factor to the skeleton (the backend
    /// then emits structurally unrolled versions — the transformation the
    /// paper cites as impossible to express with runtime parameters).
    pub tune_unroll: bool,
    /// Backend roster for multi-backend tuning: analytic variant specs
    /// (`"model"` = the plain cost model, `"unroll<N>"` = the model with a
    /// hard-wired innermost unroll of N). With two or more entries the
    /// optimizer explores the product space `config × backend` and the
    /// resulting front/table/archive record carry per-point
    /// [`Provenance`]. Empty (the default) keeps the classic
    /// single-backend path — byte-identical output, no provenance.
    pub backends: Vec<String>,
    /// Directory of a persistent tuning archive. When set, every tuning
    /// run is recorded there, and (with [`warm_start`](Self::warm_start))
    /// later runs of the same problem are seeded from it.
    pub archive: Option<PathBuf>,
    /// Seed the optimizer from the archive: an exact (skeleton, space,
    /// machine) hit replays archived points as free cache hits; otherwise
    /// the front tuned on the feature-nearest machine seeds the initial
    /// population and is re-evaluated here. No-op without
    /// [`archive`](Self::archive).
    pub warm_start: bool,
    /// Enable surrogate-assisted screening: an online regression model
    /// (trained from every real evaluation, and primed from the archive
    /// when one is configured) scores each optimizer batch and only the
    /// most promising fraction is actually evaluated. Screened-out
    /// configurations consume *no* evaluation budget. With the surrogate
    /// disabled the tuning output is byte-identical to a build without the
    /// screening machinery. The forwarded fraction is
    /// `ScreeningPolicy::default().screen_ratio`.
    pub surrogate: bool,
    /// Write a JSONL observability trace of the run here. A live
    /// observability handle is the *only* thing that changes any code
    /// path: with `trace` and [`metrics`](Self::metrics) unset, tuning
    /// output is byte-identical to an uninstrumented build.
    pub trace: Option<PathBuf>,
    /// Write a Prometheus-style text metrics snapshot of the run here.
    pub metrics: Option<PathBuf>,
    /// Timestamp mode for [`trace`](Self::trace)/[`metrics`](Self::metrics):
    /// deterministic logical clock (default) or wall-clock profiling.
    pub timestamps: TimestampMode,
}

/// What [`Framework::prepare`] resolves once per problem, before any
/// evaluation; the run and emit stages only read it.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The analyzed region (skeletons attached; under
    /// [`Framework::tune_unroll`], the unroll parameter appended).
    pub region: Region,
    /// The cost model configurations are evaluated on.
    pub model: CostModel,
    /// Search space of the tuned skeleton.
    pub space: ParamSpace,
    /// Content address of the problem: skeleton × space × machine.
    pub key: ArchiveKey,
    /// The parsed roster, index-aligned with [`Framework::backends`].
    roster: Vec<BackendSpec>,
}

impl Prepared {
    /// The tuned skeleton — the analyzer's primary one.
    pub fn skeleton(&self) -> &Skeleton {
        &self.region.skeletons[0]
    }
}

/// The rest of the run stage, waiting for the evaluator its session is to
/// use.
pub type Session<'s> = Box<dyn FnOnce(&dyn Evaluator) + 's>;

/// An evaluator layer a host puts between the roster and the session's
/// cache: called with the roster evaluator and the [`Session`], it runs the
/// session once, over whatever it built on the roster evaluator.
pub type Wrap<'h> = &'h dyn Fn(&dyn Evaluator, Session<'_>);

/// What a host wires into [`Framework::run`]. The default — nothing — is
/// the library's own fire-and-forget run.
#[derive(Default)]
pub struct Hooks<'h> {
    /// Session wiring. A `warm` start given here is used as is and the
    /// archive is not consulted for one.
    pub session: SessionHooks<'h>,
    /// The daemon's pooled evaluator.
    pub wrap: Option<Wrap<'h>>,
}

/// What [`Framework::run`] hands back.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The optimizer's report. Under a roster the front is projected back
    /// onto the logical space, every point tagged with its backend.
    pub report: TuningReport,
    /// Whether the host's cancel flag cut the run short.
    pub cancelled: bool,
    /// The archive warm start that seeded the run, with the number of
    /// points it carried (hints of an exact hit, seeds of a transfer).
    /// `None`: cold start, or a warm start the host supplied.
    pub warm_start: Option<(WarmStartSource, usize)>,
    /// Under surrogate screening: how many pairs primed the model before
    /// the run, and the screen's counters after it.
    pub surrogate: Option<(usize, SurrogateStats)>,
}

impl Framework {
    /// Framework with paper-default settings for `machine`.
    pub fn new(machine: MachineDesc) -> Self {
        Framework {
            machine,
            noise: Some(NoiseModel::default()),
            objectives: vec![Objective::Time, Objective::Resources],
            strategy: StrategyKind::RsGde3,
            tuner_params: RsGde3Params::default(),
            budget: None,
            batch: BatchEval::default(),
            max_versions: None,
            tune_unroll: false,
            backends: Vec::new(),
            archive: None,
            warm_start: false,
            surrogate: false,
            trace: None,
            metrics: None,
            timestamps: TimestampMode::default(),
        }
    }

    /// Objective names, in table order.
    pub fn objective_names(&self) -> Vec<String> {
        self.objectives
            .iter()
            .map(|o| o.name().to_string())
            .collect()
    }

    /// Run the full pipeline on `region`: analyze (1), optimize (2–4),
    /// generate the multi-versioned backend artifacts (5).
    pub fn tune(&self, region: Region) -> Result<TunedRegion, String> {
        let p = self.prepare(region)?;
        let out = run_observed(
            self.trace.as_deref(),
            self.metrics.as_deref(),
            self.timestamps,
            |obs| self.run(&p, Hooks::default(), obs),
        )??;
        let table = self.table(&p, &out.report.front);
        let (variants, source_c) = self.emit(&p, &table)?;
        Ok(TunedRegion {
            region: p.region,
            skeleton_index: 0,
            result: out.report,
            table,
            variants,
            source_c,
            warm_start: out.warm_start.map(|(source, _)| source),
        })
    }

    /// [`prepare`](Self::prepare) for a paper kernel at problem size
    /// `size` (default: the paper's), refusing sizes the kernel cannot be
    /// built at.
    pub fn prepare_kernel(&self, kernel: Kernel, size: Option<i64>) -> Result<Prepared, String> {
        let size = size.unwrap_or(kernel.info().paper_size);
        if size < Kernel::MIN_SIZE {
            return Err(format!(
                "size {size} too small (minimum {})",
                Kernel::MIN_SIZE
            ));
        }
        self.prepare(kernel.region(size))
    }

    /// Stage 1 — everything that depends on the problem alone: validate
    /// the options, run the analyzer (1) unless `region` already carries
    /// skeletons, and fix the cost model, search space and archive key.
    pub fn prepare(&self, region: Region) -> Result<Prepared, String> {
        let roster = parse_roster(&self.backends)?;
        if !roster.is_empty() && self.warm_start {
            return Err("warm-start is not supported with a multi-backend roster".into());
        }
        if !roster.is_empty() && self.objectives != [Objective::Time, Objective::Resources] {
            return Err("a backend roster tunes the two paper objectives only".into());
        }

        // `alt<K>` backends need the analyzer's alternative skeletons.
        let mut region = if region.skeletons.is_empty() {
            let threads = (1..=self.machine.total_cores() as i64).collect();
            let mut acfg = AnalyzerConfig::for_threads(threads);
            acfg.alternatives |= roster
                .iter()
                .any(|s| matches!(s, BackendSpec::AltSkeleton(_)));
            analyze(region, &acfg)?
        } else {
            region
        };
        for s in &roster {
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
        if self.tune_unroll {
            for sk in &mut region.skeletons {
                let factor_param = sk.params.len();
                sk.params.push(moat_ir::ParamDecl::new(
                    "unroll",
                    moat_ir::ParamDomain::Choice(vec![1, 2, 4, 8, 16]),
                ));
                sk.steps.push(Step::Unroll { factor_param });
            }
        }
        let model = match self.noise {
            Some(n) => CostModel::with_noise(self.machine.clone(), n),
            None => CostModel::new(self.machine.clone()),
        };
        let space = ir_space(&region.skeletons[0]);
        let key = ArchiveKey::of(&region.skeletons[0], &space, &self.machine);
        Ok(Prepared {
            region,
            model,
            space,
            key,
            roster,
        })
    }

    /// Stage 2 — multi-objective optimization on the machine model
    /// (2–4): build the evaluator stack (under a roster the optimizer sees
    /// the product space `config × backend`), consult the archive for a
    /// warm start, prime the surrogate, drive a [`TuningSession`] with the
    /// configured strategy, and record the outcome in the archive.
    pub fn run(&self, p: &Prepared, mut hooks: Hooks<'_>, obs: &Obs) -> Result<RunOutcome, String> {
        let skeleton = p.skeleton();
        let base = || MultiObjectiveEvaluator {
            region: &p.region,
            skeleton,
            model: &p.model,
            objectives: self.objectives.clone(),
        };
        let plain = base();
        let variants: Vec<Box<dyn Evaluator + '_>> = p
            .roster
            .iter()
            .map(|spec| -> Box<dyn Evaluator + '_> {
                match *spec {
                    BackendSpec::Model => Box::new(base()),
                    BackendSpec::Unroll(n) => {
                        Box::new(FixedUnrollEvaluator::new(&p.region, skeleton, &p.model, n))
                    }
                    BackendSpec::AltSkeleton(k) => {
                        Box::new(AltSkeletonEvaluator::new(&p.region, &p.model, k))
                    }
                }
            })
            .collect();
        let roster = (!variants.is_empty()).then(|| {
            let mut set = BackendSet::new();
            for (name, variant) in self.backends.iter().zip(&variants) {
                let id = BackendId::new(BackendKind::Analytic, name.clone());
                set.register(Provenance::new(id, p.key.machine), variant.as_ref());
            }
            set
        });
        let (tuning_space, evaluator): (ParamSpace, &dyn Evaluator) = match &roster {
            Some(set) => (set.space(&p.space), set),
            None => (p.space.clone(), &plain),
        };

        // Exact archive hits replay for free, near-machine fronts seed
        // the population.
        let archive = match &self.archive {
            Some(root) => Some(
                Archive::open(root)
                    .map_err(|e| e.to_string())?
                    .with_obs(obs.clone()),
            ),
            None => None,
        };
        let features = self.machine.features();
        let mut warm_start = None;
        if let (true, None, Some(archive)) = (self.warm_start, &hooks.session.warm, &archive) {
            if let Some((warm, source)) = archive
                .warm_start_for(&p.key, &features)
                .map_err(|e| e.to_string())?
            {
                let points = match source {
                    WarmStartSource::Exact => warm.hints.len(),
                    WarmStartSource::Transfer { .. } => warm.seeds.len(),
                };
                warm_start = Some((source, points));
                hooks.session.warm = Some(warm);
            }
        }

        // Surrogate screening on engineered IR/machine features, primed
        // with every archived front of this problem, nearest machine
        // first. Roster records store product-space provenance, not plain
        // configurations, so only the single-backend path is primed.
        let mut primed = 0;
        let screen = if self.surrogate {
            let policy = ScreeningPolicy {
                seed: self.tuner_params.seed,
                ..ScreeningPolicy::default()
            };
            let source = IrFeatures::new(skeleton, &tuning_space, &features);
            let model = Surrogate::new(source.dims(), self.objectives.len());
            let mut screen = SurrogateScreen::new(Box::new(source), model, policy);
            if let (None, Some(archive)) = (&roster, &archive) {
                let family = archive
                    .records_for_machine_family(&p.key, &features)
                    .map_err(|e| e.to_string())?;
                for point in family.iter().flat_map(|(record, _)| &record.front) {
                    primed += usize::from(screen.prime(&point.config, &point.objectives));
                }
            }
            Some(screen)
        } else {
            None
        };

        // The session, over whatever the host wraps the roster in. The
        // screen goes on last: it replays what warm start and resume put
        // into the evaluation cache.
        let tuner = self.strategy.tuner(self.tuner_params);
        let drive = |evaluator: &dyn Evaluator| {
            let mut session = TuningSession::new(tuning_space.clone(), evaluator)
                .with_batch(self.batch)
                .with_label(p.region.name.clone())
                .with_obs(obs.clone());
            if let Some(budget) = self.budget {
                session = session.with_budget(budget);
            }
            session = session
                .with_hooks(hooks.session)
                .map_err(|e| e.to_string())?;
            if let Some(screen) = screen {
                session = session.with_surrogate(screen);
            }
            let report = session.run(tuner.as_ref());
            let stats = session.surrogate_stats().cloned();
            Ok::<_, String>((report, session.cancelled(), stats))
        };
        let mut driven = None;
        match hooks.wrap {
            Some(wrap) => wrap(evaluator, Box::new(|e| driven = Some(drive(e)))),
            None => driven = Some(drive(evaluator)),
        }
        let (mut report, cancelled, stats) =
            driven.ok_or("the evaluator wrapper never ran the session")??;

        // Front membership and order are objective-driven, so projecting
        // the product-space front back keeps both.
        if let Some(set) = &roster {
            report.front = set.annotate_front(&report.front);
        }
        if let Some(archive) = &archive {
            archive
                .insert(&self.record(p, &report))
                .map_err(|e| e.to_string())?;
        }
        Ok(RunOutcome {
            report,
            cancelled,
            warm_start,
            surrogate: stats.map(|s| (primed, s)),
        })
    }

    /// The mergeable archive record of a run's report. Roster fronts carry
    /// provenance; the archive refuses to merge them into records of a
    /// different roster unless asked explicitly.
    pub fn record(&self, p: &Prepared, report: &TuningReport) -> ArchiveRecord {
        ArchiveRecord::from_report(
            p.region.name.clone(),
            p.skeleton(),
            &p.space,
            &self.machine,
            self.objective_names(),
            report,
        )
    }

    /// Stage 3 — the version table (Fig. 6) of a tuned front, capped at
    /// [`max_versions`](Self::max_versions).
    pub fn table(&self, p: &Prepared, front: &ParetoFront) -> VersionTable {
        let threads_param = p.skeleton().steps.iter().find_map(|s| match s {
            Step::Parallelize { threads_param } => Some(*threads_param),
            _ => None,
        });
        let mut table = VersionTable::from_front(
            p.region.name.clone(),
            p.skeleton(),
            front,
            self.objective_names(),
            threads_param,
        );
        if let Some(k) = self.max_versions {
            table.prune_to(k);
        }
        table
    }

    /// Stage 3 — one specialized variant per table entry and the
    /// multi-versioned C around them (5). Each version is instantiated
    /// with the skeleton its backend actually used, so the emitted code
    /// matches the recorded provenance: alt-tagged versions get the
    /// alternative skeleton (values projected), unroll-tagged versions the
    /// baked-in factor.
    pub fn emit(
        &self,
        p: &Prepared,
        table: &VersionTable,
    ) -> Result<(Vec<Variant>, String), String> {
        let variants: Vec<Variant> = table
            .versions
            .iter()
            .map(|v| {
                let spec = v
                    .provenance
                    .as_ref()
                    .and_then(|p| parse_backend_spec(&p.backend.variant).ok());
                let mut variant = match spec {
                    Some(BackendSpec::AltSkeleton(k)) => {
                        let sk = &p.region.skeletons[k];
                        let n = sk.params.len().min(v.values.len());
                        sk.instantiate(&p.region.nest, &sk.nearest_values(&v.values[..n]))
                    }
                    _ => p.skeleton().instantiate(&p.region.nest, &v.values),
                }
                .map_err(|e| e.to_string())?;
                if let Some(BackendSpec::Unroll(factor)) = spec {
                    variant.unroll = factor.max(1) as u32;
                }
                Ok(variant)
            })
            .collect::<Result<_, String>>()?;
        let source_c = emit_multiversioned_c(&p.region, table, &variants);
        Ok((variants, source_c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_kernels::Kernel;

    fn quick_framework() -> Framework {
        let mut fw = Framework::new(MachineDesc::westmere());
        fw.tuner_params.max_generations = 8;
        fw.batch = BatchEval::sequential();
        fw
    }

    #[test]
    fn end_to_end_mm() {
        let fw = quick_framework();
        let tuned = fw.tune(Kernel::Mm.region(128)).unwrap();
        assert!(!tuned.result.front.is_empty());
        assert_eq!(tuned.table.len(), tuned.result.front.len());
        assert_eq!(tuned.variants.len(), tuned.table.len());
        assert!(tuned.source_c.contains("_invoke("));
        assert!(tuned.result.evaluations > 0);
        // Versions are specialized: thread counts recorded in the table
        // match the instantiated variants.
        for (entry, variant) in tuned.table.versions.iter().zip(&tuned.variants) {
            assert_eq!(entry.threads, variant.threads);
        }
    }

    #[test]
    fn pareto_front_spans_thread_counts() {
        // The central multi-versioning claim: the front should contain
        // versions with different thread counts (the time/resource
        // trade-off), not a single configuration.
        let fw = quick_framework();
        let tuned = fw.tune(Kernel::Mm.region(256)).unwrap();
        let mut threads: Vec<usize> = tuned.table.versions.iter().map(|v| v.threads).collect();
        threads.sort_unstable();
        threads.dedup();
        assert!(
            threads.len() >= 2,
            "expected multiple thread counts on the front, got {threads:?}"
        );
    }

    #[test]
    fn unroll_tuning_produces_unrolled_versions() {
        let mut fw = quick_framework();
        fw.tune_unroll = true;
        fw.noise = None;
        let tuned = fw.tune(Kernel::Mm.region(192)).unwrap();
        assert_eq!(
            tuned.table.param_names.last().map(|s| s.as_str()),
            Some("unroll")
        );
        // The model rewards unrolling (ILP term): the fastest version
        // should use a factor > 1, and its generated code is structurally
        // unrolled (duplicated statement bodies).
        let fastest = &tuned.table.versions[0];
        let unroll = *fastest.values.last().unwrap();
        assert!(unroll > 1, "fastest version should unroll, got {unroll}");
        assert!(
            tuned.source_c.matches("C[i][j] = C[i][j]").count() > tuned.table.len(),
            "unrolled versions must duplicate the statement"
        );
    }

    #[test]
    fn version_budget_caps_code_size() {
        let mut fw = quick_framework();
        fw.max_versions = Some(4);
        let tuned = fw.tune(Kernel::Mm.region(192)).unwrap();
        assert!(tuned.table.len() <= 4);
        assert_eq!(tuned.variants.len(), tuned.table.len());
        // Champions retained: the table's fastest version equals the
        // front's fastest point.
        let front_best = tuned
            .result
            .front
            .points()
            .iter()
            .map(|p| p.objectives[0])
            .fold(f64::INFINITY, f64::min);
        assert_eq!(tuned.table.versions[0].objectives[0], front_best);
        // Generated C shrinks accordingly.
        assert_eq!(
            tuned.source_c.matches("static void ").count(),
            tuned.table.len()
        );
    }

    #[test]
    fn budget_enforced_for_every_strategy() {
        for strategy in StrategyKind::all() {
            let mut fw = quick_framework();
            fw.strategy = strategy;
            fw.budget = Some(60);
            let tuned = fw.tune(Kernel::Mm.region(64)).unwrap();
            assert!(
                tuned.result.evaluations <= 60,
                "{strategy} overran the budget: E={}",
                tuned.result.evaluations
            );
            assert!(
                !tuned.result.front.is_empty(),
                "{strategy} returned no front"
            );
        }
    }

    #[test]
    fn strategy_selection_changes_search() {
        let mut rs = quick_framework();
        rs.strategy = StrategyKind::RsGde3;
        let mut rnd = quick_framework();
        rnd.strategy = StrategyKind::Random;
        rnd.budget = Some(100);
        let a = rs.tune(Kernel::Mm.region(128)).unwrap();
        let b = rnd.tune(Kernel::Mm.region(128)).unwrap();
        assert_ne!(a.result.front.points(), b.result.front.points());
    }

    #[test]
    fn deterministic_pipeline() {
        let fw = quick_framework();
        let a = fw.tune(Kernel::Jacobi2d.region(128)).unwrap();
        let b = fw.tune(Kernel::Jacobi2d.region(128)).unwrap();
        assert_eq!(a.table, b.table);
        assert_eq!(a.source_c, b.source_c);
    }

    #[test]
    fn multi_backend_roster_yields_mixed_provenance() {
        let mut fw = quick_framework();
        fw.noise = None;
        fw.backends = vec!["model".into(), "unroll4".into()];
        let tuned = fw.tune(Kernel::Mm.region(192)).unwrap();
        assert!(!tuned.table.is_empty());
        // Every version carries provenance, configs are base-space (no
        // trailing backend coordinate), and the unrolled backend — faster
        // under the model's ILP term — must appear on the front.
        let names = tuned.table.backend_names();
        assert!(
            names.contains(&"analytic:unroll4".to_string()),
            "unrolled backend missing from the front: {names:?}"
        );
        for v in &tuned.table.versions {
            assert_eq!(v.values.len(), tuned.table.param_names.len());
            let p = v.provenance.as_ref().expect("every version tagged");
            assert!(["model", "unroll4"].contains(&p.backend.variant.as_str()));
            assert_ne!(p.machine_fingerprint, 0, "machine fingerprint recorded");
        }
        // Variants instantiate from the logical configs.
        assert_eq!(tuned.variants.len(), tuned.table.len());
    }

    #[test]
    fn alt_skeleton_roster_mixes_provenance_honestly() {
        // `model` and `alt1` are structurally different code shapes whose
        // cost surfaces cross (loop overhead vs inner-level blocking), so
        // the tuned front should retain points from both backends.
        let mut fw = quick_framework();
        fw.noise = None;
        fw.tuner_params.max_generations = 12;
        fw.backends = vec!["model".into(), "alt1".into()];
        let tuned = fw.tune(Kernel::Mm.region(192)).unwrap();
        let names = tuned.table.backend_names();
        assert_eq!(
            names,
            vec!["analytic:alt1".to_string(), "analytic:model".to_string()],
            "expected an honestly mixed front, got {names:?}"
        );
        // Alt-tagged versions were instantiated with the alternative
        // skeleton: a shallower nest than the base skeleton's.
        let base_depth = tuned.variants[0].nest.depth();
        let _ = base_depth;
        for (v, variant) in tuned.table.versions.iter().zip(&tuned.variants) {
            let p = v.provenance.as_ref().expect("tagged");
            if p.backend.variant == "alt1" {
                assert!(
                    variant.nest.depth() < 6,
                    "alt1 version should use the shallower skeleton"
                );
            }
        }
    }

    #[test]
    fn single_backend_output_is_unchanged_by_the_roster_machinery() {
        let mut plain = quick_framework();
        plain.noise = None;
        let mut empty_roster = quick_framework();
        empty_roster.noise = None;
        empty_roster.backends = Vec::new();
        let a = plain.tune(Kernel::Mm.region(128)).unwrap();
        let b = empty_roster.tune(Kernel::Mm.region(128)).unwrap();
        assert_eq!(a.table, b.table);
        assert_eq!(a.source_c, b.source_c);
        assert!(a.table.versions.iter().all(|v| v.provenance.is_none()));
        assert!(a.table.backend_names().is_empty());
    }

    #[test]
    fn bad_backend_spec_is_rejected() {
        let mut fw = quick_framework();
        fw.backends = vec!["model".into(), "llvm".into()];
        let err = fw.tune(Kernel::Mm.region(64)).unwrap_err();
        assert!(err.contains("unknown backend spec"), "{err}");

        let mut fw = quick_framework();
        fw.backends = vec!["unroll0".into()];
        let err = fw.tune(Kernel::Mm.region(64)).unwrap_err();
        assert!(err.contains("unroll factor"), "{err}");
    }

    #[test]
    fn archive_warm_start_replays_exact_hits() {
        let dir =
            std::env::temp_dir().join(format!("moat-framework-warmstart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut fw = quick_framework();
        fw.noise = None;
        fw.archive = Some(dir.clone());
        fw.warm_start = true;

        // Cold run: nothing archived yet, pays full price.
        let cold = fw.tune(Kernel::Mm.region(96)).unwrap();
        assert_eq!(cold.warm_start, None);
        assert!(cold.result.evaluations > 0);

        // Warm run of the identical problem: exact key hit, the archived
        // front replays as free cache hits and seeds the population.
        let warm = fw.tune(Kernel::Mm.region(96)).unwrap();
        assert_eq!(warm.warm_start, Some(WarmStartSource::Exact));
        assert!(
            warm.result.evaluations < cold.result.evaluations,
            "warm start must save fresh evaluations: {} vs {}",
            warm.result.evaluations,
            cold.result.evaluations
        );
        // The archived knowledge is not lost: the warm front is at least
        // as good wherever the cold front had a point.
        assert!(!warm.result.front.is_empty());

        // A machine with the same topology (same tunable space) but a
        // different cache hierarchy gets a transfer, not an exact hit.
        let mut other = fw.clone();
        other.machine = MachineDesc::symmetric("Other", 4, 10, 64, 512, 16, 2.0);
        let transferred = other.tune(Kernel::Mm.region(96)).unwrap();
        match transferred.warm_start {
            Some(WarmStartSource::Transfer {
                ref machine,
                distance,
            }) => {
                assert_eq!(machine, "Westmere");
                assert!(distance > 0.0);
            }
            ref other => panic!("expected transfer warm start, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn surrogate_screening_saves_evaluations() {
        let mut plain = quick_framework();
        plain.noise = None;
        plain.tuner_params.max_generations = 12;
        let mut screened = plain.clone();
        screened.surrogate = true;
        let a = plain.tune(Kernel::Mm.region(128)).unwrap();
        let b = screened.tune(Kernel::Mm.region(128)).unwrap();
        assert!(!b.result.front.is_empty());
        assert!(
            b.result.evaluations < a.result.evaluations,
            "screening must save evaluations: {} vs {}",
            b.result.evaluations,
            a.result.evaluations
        );
    }

    #[test]
    fn surrogate_primes_from_the_archive() {
        let dir =
            std::env::temp_dir().join(format!("moat-framework-surrogate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fw = quick_framework();
        fw.noise = None;
        fw.archive = Some(dir.clone());
        // Cold archived run, then a surrogate run primed from it: the
        // model starts ready, so screening bites from the first batch.
        let cold = fw.tune(Kernel::Mm.region(96)).unwrap();
        fw.surrogate = true;
        let primed = fw.tune(Kernel::Mm.region(96)).unwrap();
        assert!(!primed.result.front.is_empty());
        assert!(
            primed.result.evaluations < cold.result.evaluations,
            "primed surrogate must evaluate less: {} vs {}",
            primed.result.evaluations,
            cold.result.evaluations
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_kernels_tune() {
        let fw = quick_framework();
        for k in Kernel::all() {
            let tuned = fw.tune(k.region(64)).unwrap();
            assert!(!tuned.table.is_empty(), "{:?} produced an empty table", k);
        }
    }
}
