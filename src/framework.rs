//! The end-to-end auto-tuning pipeline (paper Fig. 3, labels 1–5).

use crate::features::IrFeatures;
use crate::sim::{
    ir_space, AltSkeletonEvaluator, FixedUnrollEvaluator, SimEvaluator, OBJECTIVE_NAMES,
};
use moat_archive::{Archive, ArchiveKey, ArchiveRecord, WarmStartSource};
use moat_core::{
    BackendId, BackendKind, BackendSet, BatchEval, Evaluator, FeatureSource, GridTuner,
    Nsga2Params, Nsga2Tuner, Provenance, RandomTuner, RsGde3Params, RsGde3Tuner, ScreeningPolicy,
    StrategyKind, Surrogate, SurrogateScreen, Tuner, TuningReport, TuningSession, WeightedSumTuner,
    WeightedSweepParams,
};
use moat_ir::{analyze, AnalyzerConfig, Region, Step, Variant};
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

/// The auto-tuning framework bound to one target machine.
#[derive(Debug, Clone)]
pub struct Framework {
    /// Target machine description.
    pub machine: MachineDesc,
    /// Measurement-noise emulation (defaults to the paper's
    /// median-of-3 protocol; set to `None` for exact model output).
    pub noise: Option<NoiseModel>,
    /// Search strategy (defaults to the paper's RS-GDE3).
    pub strategy: StrategyKind,
    /// RS-GDE3 parameters (the seed is shared with the other stochastic
    /// strategies).
    pub tuner_params: RsGde3Params,
    /// Grid points per `Range` dimension for [`StrategyKind::Grid`].
    pub grid_steps: usize,
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
    /// screening machinery.
    pub surrogate: bool,
    /// Fraction of each batch forwarded to real evaluation when
    /// [`surrogate`](Self::surrogate) is on (1.0 = screen nothing).
    pub screen_ratio: f64,
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

impl Framework {
    /// Framework with paper-default settings for `machine`.
    pub fn new(machine: MachineDesc) -> Self {
        Framework {
            machine,
            noise: Some(NoiseModel::default()),
            strategy: StrategyKind::RsGde3,
            tuner_params: RsGde3Params::default(),
            grid_steps: 10,
            budget: None,
            batch: BatchEval::default(),
            max_versions: None,
            tune_unroll: false,
            backends: Vec::new(),
            archive: None,
            warm_start: false,
            surrogate: false,
            screen_ratio: ScreeningPolicy::default().screen_ratio,
            trace: None,
            metrics: None,
            timestamps: TimestampMode::default(),
        }
    }

    /// Build the configured strategy's [`Tuner`].
    pub fn make_tuner(&self) -> Box<dyn Tuner> {
        let seed = self.tuner_params.seed;
        match self.strategy {
            StrategyKind::Grid => Box::new(GridTuner::new(self.grid_steps)),
            StrategyKind::Random => Box::new(RandomTuner::new(seed)),
            StrategyKind::Gde3 => Box::new(RsGde3Tuner::new(RsGde3Params {
                use_roughset: false,
                ..self.tuner_params
            })),
            StrategyKind::Nsga2 => Box::new(Nsga2Tuner::new(Nsga2Params {
                seed,
                ..Default::default()
            })),
            StrategyKind::RsGde3 => Box::new(RsGde3Tuner::new(self.tuner_params)),
            StrategyKind::WeightedSum => Box::new(WeightedSumTuner::new(WeightedSweepParams {
                seed,
                ..Default::default()
            })),
        }
    }

    /// Analyzer configuration matching the machine: any thread count up to
    /// the machine size (paper §V-B.3) and the `N/2` tile-size bound.
    pub fn analyzer_config(&self) -> AnalyzerConfig {
        AnalyzerConfig::for_threads((1..=self.machine.total_cores() as i64).collect())
    }

    /// The cost model used for evaluation.
    pub fn cost_model(&self) -> CostModel {
        match self.noise {
            Some(n) => CostModel::with_noise(self.machine.clone(), n),
            None => CostModel::new(self.machine.clone()),
        }
    }

    /// Run the full pipeline on `region`: analyze (1), optimize (2–4),
    /// generate the multi-versioned backend artifacts (5).
    pub fn tune(&self, region: Region) -> Result<TunedRegion, String> {
        run_observed(
            self.trace.as_deref(),
            self.metrics.as_deref(),
            self.timestamps,
            |obs| self.tune_inner(region, obs),
        )?
    }

    fn tune_inner(&self, region: Region, obs: &Obs) -> Result<TunedRegion, String> {
        // Parse the backend roster up front: `alt<K>` specs require the
        // analyzer to derive alternative skeletons.
        let specs = self
            .backends
            .iter()
            .map(|s| parse_backend_spec(s))
            .collect::<Result<Vec<_>, _>>()?;
        let wants_alternatives = specs
            .iter()
            .any(|s| matches!(s, BackendSpec::AltSkeleton(_)));

        // (1) Analyzer: derive skeletons if not already present.
        let mut region = if region.skeletons.is_empty() {
            let mut acfg = self.analyzer_config();
            acfg.alternatives = acfg.alternatives || wants_alternatives;
            analyze(region, &acfg)?
        } else {
            region
        };
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
        let skeleton_index = 0;
        let skeleton = &region.skeletons[skeleton_index];

        // (2–4) Multi-objective optimization on the machine model, driven
        // through a TuningSession (strategy-agnostic budget enforcement and
        // evaluation accounting).
        let model = self.cost_model();
        let base_eval = SimEvaluator {
            region: &region,
            skeleton,
            model: &model,
        };
        let space = ir_space(skeleton);
        let key = ArchiveKey::of(skeleton, &space, &self.machine);

        // Multi-backend roster: the optimizer sees the product space
        // `config × backend`; the classic empty-roster path is untouched.
        if self.warm_start && !self.backends.is_empty() {
            return Err("warm-start is not supported with a multi-backend roster".into());
        }
        let unrolls: Vec<FixedUnrollEvaluator> = specs
            .iter()
            .filter_map(|s| match s {
                BackendSpec::Unroll(n) => {
                    Some(FixedUnrollEvaluator::new(&region, skeleton, &model, *n))
                }
                _ => None,
            })
            .collect();
        let alts: Vec<AltSkeletonEvaluator> = specs
            .iter()
            .filter_map(|s| match s {
                BackendSpec::AltSkeleton(k) => Some(AltSkeletonEvaluator::new(&region, &model, *k)),
                _ => None,
            })
            .collect();
        let backend_set = if self.backends.is_empty() {
            None
        } else {
            let mut set = BackendSet::new();
            let (mut next_unroll, mut next_alt) = (0, 0);
            for (name, spec) in self.backends.iter().zip(&specs) {
                let prov = Provenance::new(
                    BackendId::new(BackendKind::Analytic, name.clone()),
                    key.machine,
                );
                match spec {
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
        let mut session = TuningSession::new(tuning_space.clone(), evaluator)
            .with_batch(self.batch)
            .with_label(region.name.clone())
            .with_obs(obs.clone());
        if let Some(budget) = self.budget {
            session = session.with_budget(budget);
        }

        // Consult the tuning archive: exact hits replay for free,
        // near-machine fronts seed the population.
        let archive = match &self.archive {
            Some(root) => Some(
                Archive::open(root)
                    .map_err(|e| e.to_string())?
                    .with_obs(obs.clone()),
            ),
            None => None,
        };
        let mut warm_source = None;
        if self.warm_start {
            if let Some(archive) = &archive {
                let features = self.machine.features();
                if let Some((warm, source)) = archive
                    .warm_start_for(&key, &features)
                    .map_err(|e| e.to_string())?
                {
                    session = session.with_warm_start(warm);
                    warm_source = Some(source);
                }
            }
        }

        // Surrogate screening: engineered IR/machine features, the model
        // primed from every archived front for this problem (nearest
        // machine first), installed last so it also replays any points the
        // warm start put into the evaluator cache.
        if self.surrogate {
            if !(0.0..=1.0).contains(&self.screen_ratio) {
                return Err(format!(
                    "screen ratio must be in [0, 1], got {}",
                    self.screen_ratio
                ));
            }
            let policy = ScreeningPolicy {
                screen_ratio: self.screen_ratio,
                seed: self.tuner_params.seed,
                ..ScreeningPolicy::default()
            };
            let features = IrFeatures::new(skeleton, &tuning_space, &self.machine.features());
            let model = Surrogate::new(features.dims(), base_eval.num_objectives());
            let mut screen = SurrogateScreen::new(Box::new(features), model, policy);
            // Prime from the archive: every recorded front for this
            // problem is free training data (multi-backend records store
            // product-space provenance, not plain configs — skip those by
            // restricting priming to the classic single-backend path).
            if self.backends.is_empty() {
                if let Some(archive) = &archive {
                    let family = archive
                        .records_for_machine_family(&key, &self.machine.features())
                        .map_err(|e| e.to_string())?;
                    for (record, _distance) in &family {
                        for point in &record.front {
                            screen.prime(&point.config, &point.objectives);
                        }
                    }
                }
            }
            session = session.with_surrogate(screen);
        }

        let mut result = session.run(self.make_tuner().as_ref());

        // Multi-backend runs: project the product-space front back onto the
        // logical space, tagging every point with its backend's provenance.
        // Front membership/order are objective-driven and thus preserved.
        if let Some(set) = &backend_set {
            result.front = set.annotate_front(&result.front);
        }
        let result = result;

        // Record the (merged) outcome for future runs. Multi-backend fronts
        // carry provenance; the archive refuses to merge them into records
        // with a different backend roster unless asked explicitly.
        if let Some(archive) = &archive {
            let record = ArchiveRecord::from_report(
                region.name.clone(),
                skeleton,
                &space,
                &self.machine,
                OBJECTIVE_NAMES.iter().map(|s| s.to_string()).collect(),
                &result,
            );
            archive.insert(&record).map_err(|e| e.to_string())?;
        }

        // (5) Backend: one specialized version per Pareto point + table.
        let threads_param = skeleton.steps.iter().find_map(|s| match s {
            Step::Parallelize { threads_param } => Some(*threads_param),
            _ => None,
        });
        let mut table = VersionTable::from_front(
            region.name.clone(),
            skeleton,
            &result.front,
            OBJECTIVE_NAMES.iter().map(|s| s.to_string()).collect(),
            threads_param,
        );
        if let Some(k) = self.max_versions {
            table.prune_to(k);
        }
        // Instantiate each version with the skeleton its backend actually
        // used, so the emitted code matches the recorded provenance: alt-
        // tagged versions get the alternative skeleton (values projected),
        // unroll-tagged versions the baked-in factor.
        let variants: Vec<Variant> = table
            .versions
            .iter()
            .map(|v| {
                let spec = v
                    .provenance
                    .as_ref()
                    .and_then(|p| parse_backend_spec(&p.backend.variant).ok());
                match spec {
                    Some(BackendSpec::AltSkeleton(k)) => {
                        let sk = &region.skeletons[k];
                        let n = sk.params.len().min(v.values.len());
                        let values = sk.nearest_values(&v.values[..n]);
                        sk.instantiate(&region.nest, &values)
                            .map_err(|e| e.to_string())
                    }
                    Some(BackendSpec::Unroll(f)) => skeleton
                        .instantiate(&region.nest, &v.values)
                        .map(|mut variant| {
                            variant.unroll = f.max(1) as u32;
                            variant
                        })
                        .map_err(|e| e.to_string()),
                    _ => skeleton
                        .instantiate(&region.nest, &v.values)
                        .map_err(|e| e.to_string()),
                }
            })
            .collect::<Result<_, _>>()?;
        let source_c = emit_multiversioned_c(&region, &table, &variants);

        Ok(TunedRegion {
            region,
            skeleton_index,
            result,
            table,
            variants,
            source_c,
            warm_start: warm_source,
        })
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
        screened.screen_ratio = 0.5;
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
    fn surrogate_at_full_ratio_is_identical_to_plain() {
        // screen_ratio = 1.0 forwards every configuration: the screened
        // pipeline must reproduce the unscreened run exactly.
        let mut plain = quick_framework();
        plain.noise = None;
        let mut full = plain.clone();
        full.surrogate = true;
        full.screen_ratio = 1.0;
        let a = plain.tune(Kernel::Jacobi2d.region(128)).unwrap();
        let b = full.tune(Kernel::Jacobi2d.region(128)).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(a.table, b.table);
        assert_eq!(a.source_c, b.source_c);
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
        fw.screen_ratio = 0.4;
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
    fn bad_screen_ratio_is_rejected() {
        let mut fw = quick_framework();
        fw.surrogate = true;
        fw.screen_ratio = 1.5;
        let err = fw.tune(Kernel::Mm.region(64)).unwrap_err();
        assert!(err.contains("screen ratio"), "{err}");
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
