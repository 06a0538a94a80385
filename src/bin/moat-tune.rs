//! `moat-tune` — command-line front end of the auto-tuning framework.
//!
//! ```text
//! moat-tune [OPTIONS]
//!
//!   --kernel <mm|dsyrk|jacobi-2d|3d-stencil|n-body>   kernel to tune (default mm)
//!   --file <FILE.moat>                                tune a region parsed from a file
//!                                                     (overrides --kernel/--size)
//!   --machine <westmere|barcelona>                    target machine (default westmere)
//!   --size <N>                                        problem size (default: paper size)
//!   --strategy <rs-gde3|gde3|random|nsga2|wsum|grid>  search strategy (default rs-gde3)
//!   --budget <E>                                      hard cap on distinct evaluations
//!   --archive <DIR>                                   record the result in a tuning archive
//!   --warm-start                                      seed the optimizer from the archive
//!   --surrogate                                       screen batches with an online surrogate
//!                                                     model (primed from --archive when set)
//!   --screen-ratio <F>                                fraction of each batch actually evaluated
//!                                                     under --surrogate (default 0.5)
//!   --seed <S>                                        optimizer seed (default 42)
//!   --generations <G>                                 max GDE3 generations (default 200)
//!   --energy                                          add the energy objective (3 objectives)
//!   --backends <LIST>                                 analytic backend roster, comma-separated
//!                                                     (model|unroll<N>|alt<K>): tune config × backend
//!   --emit-c <FILE>                                   write multi-versioned C
//!   --emit-param-c <FILE>                             write parameterized C (tiling only)
//!   --emit-json <FILE>                                write the version table as JSON
//!   --quiet                                           only print the summary line
//!   --time-budget <SECS>                              wall-clock budget (fractional seconds ok)
//!   --checkpoint <FILE>                               periodically write a crash-safe checkpoint
//!   --checkpoint-every <N>                            checkpoint every Nth opportunity (default 1)
//!   --resume <FILE>                                   resume a checkpointed run (adopts the
//!                                                     stored strategy and budget)
//!   --fault-policy <K=V,..>                           retries=N,timeout-ms=N,backoff-ms=N,
//!                                                     repeats=N,noise=F,penalty=F,jitter-seed=N
//!   --inject-faults <K=V,..>                          seed=N,persistent=F,transient=F,hang=F,
//!                                                     hang-ms=N,noise=F (chaos testing)
//!   --crash-after <N>                                 abort after the Nth checkpoint (testing)
//!   --trace <FILE>                                    write a JSONL observability trace
//!   --metrics <FILE>                                  write a Prometheus-style metrics snapshot
//!   --timestamps <logical|wall>                       trace timestamp mode (default logical:
//!                                                     deterministic; wall: profiling spans)
//! ```

use moat::core::evaluate::Evaluator;
use moat::core::fault::FallibleEvaluator;
use moat::core::metrics::objective_bounds;
use moat::core::{
    hypervolume, normalize_front, BatchEval, CheckpointSink, FaultInjector, FaultPolicy,
    FaultSchedule, FaultTolerantEvaluator, GridTuner, Nsga2Params, Nsga2Tuner, RandomTuner,
    RsGde3Params, RsGde3Tuner, SessionCheckpoint, StrategyKind, Tuner, TuningSession,
    WeightedSumTuner, WeightedSweepParams,
};
use moat::ir::{analyze, AnalyzerConfig, Step};
use moat::multiversion::{emit_multiversioned_c, emit_parameterized_c, VersionTable};
use moat::{
    ir_space, Archive, ArchiveKey, ArchiveRecord, CheckpointStore, Kernel, MachineDesc,
    MultiObjectiveEvaluator, Objective, Obs, WarmStartSource,
};
use moat_machine::{CostModel, NoiseModel};
use std::path::Path;
use std::process::exit;
use std::time::Duration;

#[derive(Debug)]
struct Opts {
    kernel: Kernel,
    file: Option<String>,
    machine: MachineDesc,
    size: Option<i64>,
    strategy: StrategyKind,
    budget: Option<u64>,
    archive: Option<String>,
    warm_start: bool,
    surrogate: bool,
    screen_ratio: f64,
    seed: u64,
    generations: u32,
    energy: bool,
    backends: Vec<String>,
    emit_c: Option<String>,
    emit_param_c: Option<String>,
    emit_json: Option<String>,
    quiet: bool,
    time_budget: Option<f64>,
    checkpoint: Option<String>,
    checkpoint_every: u32,
    resume: Option<String>,
    fault_policy: Option<FaultPolicy>,
    inject: Option<FaultSchedule>,
    crash_after: Option<u64>,
    trace: Option<String>,
    metrics: Option<String>,
    timestamps: moat::TimestampMode,
}

/// Parse a `key=value,key=value` spec, reporting unknown keys through
/// `apply`'s return value.
fn parse_spec(flag: &str, spec: &str, mut apply: impl FnMut(&str, &str) -> bool) {
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let Some((k, v)) = part.split_once('=') else {
            eprintln!("{flag}: expected key=value, got '{part}'");
            exit(2)
        };
        if !apply(k, v) {
            eprintln!("{flag}: unknown key '{k}'");
            exit(2)
        }
    }
}

fn parse_fault_policy(spec: &str) -> FaultPolicy {
    let mut p = FaultPolicy::default();
    let bad = |k: &str, v: &str| -> ! {
        eprintln!("--fault-policy: bad value for {k}: '{v}'");
        exit(2)
    };
    parse_spec("--fault-policy", spec, |k, v| {
        match k {
            "retries" => p.max_retries = v.parse().unwrap_or_else(|_| bad(k, v)),
            "timeout-ms" => {
                p.timeout = Some(Duration::from_millis(
                    v.parse().unwrap_or_else(|_| bad(k, v)),
                ))
            }
            "backoff-ms" => {
                p.backoff = Duration::from_millis(v.parse().unwrap_or_else(|_| bad(k, v)))
            }
            "jitter-seed" => p.jitter_seed = v.parse().unwrap_or_else(|_| bad(k, v)),
            "repeats" => p.repeats = v.parse().unwrap_or_else(|_| bad(k, v)),
            "noise" => p.noise_threshold = v.parse().unwrap_or_else(|_| bad(k, v)),
            "penalty" => p.penalty = v.parse().unwrap_or_else(|_| bad(k, v)),
            _ => return false,
        }
        true
    });
    p
}

fn parse_fault_schedule(spec: &str) -> FaultSchedule {
    let mut s = FaultSchedule::default();
    let bad = |k: &str, v: &str| -> ! {
        eprintln!("--inject-faults: bad value for {k}: '{v}'");
        exit(2)
    };
    parse_spec("--inject-faults", spec, |k, v| {
        match k {
            "seed" => s.seed = v.parse().unwrap_or_else(|_| bad(k, v)),
            "persistent" => s.persistent_rate = v.parse().unwrap_or_else(|_| bad(k, v)),
            "transient" => s.transient_rate = v.parse().unwrap_or_else(|_| bad(k, v)),
            "max-transient" => s.max_transient_failures = v.parse().unwrap_or_else(|_| bad(k, v)),
            "hang" => s.hang_rate = v.parse().unwrap_or_else(|_| bad(k, v)),
            "hang-ms" => s.hang = Duration::from_millis(v.parse().unwrap_or_else(|_| bad(k, v))),
            "noise" => s.noise = v.parse().unwrap_or_else(|_| bad(k, v)),
            _ => return false,
        }
        true
    });
    s
}

/// Checkpoint sink that forwards to the durable store and optionally
/// aborts the process after the Nth save — the crash half of the
/// kill-and-resume test in `scripts/chaos.sh`.
struct CrashingSink {
    store: CheckpointStore,
    crash_after: Option<u64>,
    saved: u64,
}

impl CheckpointSink for CrashingSink {
    fn save(&mut self, checkpoint: &SessionCheckpoint) {
        self.store.save(checkpoint);
        self.saved += 1;
        if self.crash_after.is_some_and(|n| self.saved >= n) {
            eprintln!("crash-after: aborting after checkpoint {}", self.saved);
            std::process::abort();
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "{}",
        include_str!("moat-tune.rs")
            .lines()
            .skip(3)
            .take(38)
            .map(|l| {
                let l = l.strip_prefix("//!").unwrap_or(l);
                l.strip_prefix(' ').unwrap_or(l)
            })
            .collect::<Vec<_>>()
            .join("\n")
    );
    exit(2)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        kernel: Kernel::Mm,
        file: None,
        machine: MachineDesc::westmere(),
        size: None,
        strategy: StrategyKind::RsGde3,
        budget: None,
        archive: None,
        warm_start: false,
        surrogate: false,
        screen_ratio: moat::ScreeningPolicy::default().screen_ratio,
        seed: 42,
        generations: 200,
        energy: false,
        backends: Vec::new(),
        emit_c: None,
        emit_param_c: None,
        emit_json: None,
        quiet: false,
        time_budget: None,
        checkpoint: None,
        checkpoint_every: 1,
        resume: None,
        fault_policy: None,
        inject: None,
        crash_after: None,
        trace: None,
        metrics: None,
        timestamps: moat::TimestampMode::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2)
            })
        };
        match arg.as_str() {
            "--kernel" => {
                let v = value("--kernel");
                opts.kernel = match v.as_str() {
                    "mm" => Kernel::Mm,
                    "dsyrk" => Kernel::Dsyrk,
                    "jacobi-2d" | "jacobi2d" => Kernel::Jacobi2d,
                    "3d-stencil" | "stencil3d" => Kernel::Stencil3d,
                    "n-body" | "nbody" => Kernel::Nbody,
                    other => {
                        eprintln!("unknown kernel: {other}");
                        exit(2)
                    }
                };
            }
            "--machine" => {
                let v = value("--machine");
                opts.machine = match v.as_str() {
                    "westmere" => MachineDesc::westmere(),
                    "barcelona" => MachineDesc::barcelona(),
                    other => {
                        eprintln!("unknown machine: {other} (westmere|barcelona)");
                        exit(2)
                    }
                };
            }
            "--file" => opts.file = Some(value("--file")),
            "--size" => opts.size = Some(value("--size").parse().unwrap_or_else(|_| usage())),
            "--strategy" => {
                let v = value("--strategy");
                opts.strategy = StrategyKind::parse(&v).unwrap_or_else(|| {
                    // Keep the list truthful as strategies come and go.
                    let known = StrategyKind::all()
                        .iter()
                        .map(|s| s.name())
                        .collect::<Vec<_>>()
                        .join("|");
                    eprintln!("unknown strategy: {v} (known strategies: {known})");
                    exit(2)
                });
            }
            "--budget" => opts.budget = Some(value("--budget").parse().unwrap_or_else(|_| usage())),
            "--archive" => opts.archive = Some(value("--archive")),
            "--warm-start" => opts.warm_start = true,
            "--surrogate" => opts.surrogate = true,
            "--screen-ratio" => {
                opts.screen_ratio = value("--screen-ratio").parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&opts.screen_ratio) {
                    eprintln!("--screen-ratio must be in [0, 1]");
                    exit(2)
                }
            }
            "--seed" => opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--generations" => {
                opts.generations = value("--generations").parse().unwrap_or_else(|_| usage())
            }
            "--energy" => opts.energy = true,
            "--backends" => {
                opts.backends = value("--backends")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--emit-c" => opts.emit_c = Some(value("--emit-c")),
            "--emit-param-c" => opts.emit_param_c = Some(value("--emit-param-c")),
            "--emit-json" => opts.emit_json = Some(value("--emit-json")),
            "--quiet" => opts.quiet = true,
            "--time-budget" => {
                opts.time_budget = Some(value("--time-budget").parse().unwrap_or_else(|_| usage()))
            }
            "--checkpoint" => opts.checkpoint = Some(value("--checkpoint")),
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--resume" => opts.resume = Some(value("--resume")),
            "--fault-policy" => {
                opts.fault_policy = Some(parse_fault_policy(&value("--fault-policy")))
            }
            "--inject-faults" => {
                opts.inject = Some(parse_fault_schedule(&value("--inject-faults")))
            }
            "--crash-after" => {
                opts.crash_after = Some(value("--crash-after").parse().unwrap_or_else(|_| usage()))
            }
            "--trace" => opts.trace = Some(value("--trace")),
            "--metrics" => opts.metrics = Some(value("--metrics")),
            "--timestamps" => {
                let v = value("--timestamps");
                opts.timestamps = moat::TimestampMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown timestamp mode: {v} (logical|wall)");
                    exit(2)
                });
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage()
            }
        }
    }
    opts
}

fn main() {
    let mut opts = parse_args();
    if opts.resume.is_some() && opts.warm_start {
        eprintln!("--resume cannot be combined with --warm-start");
        exit(2);
    }
    if opts.resume.is_some() && opts.surrogate {
        eprintln!("--resume cannot be combined with --surrogate (the resumed run was unscreened)");
        exit(2);
    }
    if !opts.backends.is_empty() && opts.energy {
        eprintln!("--backends cannot be combined with --energy (variant backends are 2-objective)");
        exit(2);
    }
    if !opts.backends.is_empty() && opts.warm_start {
        eprintln!("--backends cannot be combined with --warm-start");
        exit(2);
    }
    // A checkpoint pins the strategy (and remaining budget) of the run it
    // came from; adopt it before the tuner is built.
    let resume_path = opts.resume.clone();
    let resume_ckpt: Option<SessionCheckpoint> = resume_path.as_deref().map(|path| {
        let ckpt = CheckpointStore::load(path).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(1)
        });
        opts.strategy = StrategyKind::parse(&ckpt.strategy).unwrap_or_else(|| {
            eprintln!("{path}: checkpoint strategy '{}' is unknown", ckpt.strategy);
            exit(1)
        });
        ckpt
    });
    // The run records on a live handle only when a trace or metrics file
    // was requested; both files are written once it returns.
    let (trace, metrics) = (opts.trace.as_deref(), opts.metrics.as_deref());
    let written = moat::run_observed(
        trace.map(Path::new),
        metrics.map(Path::new),
        opts.timestamps,
        |obs| tune(&opts, resume_ckpt, obs),
    );
    if let Err(e) = written {
        eprintln!("{e}");
        exit(1)
    }
    for path in [trace, metrics].into_iter().flatten() {
        println!("wrote {path}");
    }
}

/// The tuning run proper: analysis, search, archive, code emission and
/// the summary on stdout, recording on `obs`.
fn tune(opts: &Opts, resume_ckpt: Option<SessionCheckpoint>, obs: &Obs) {
    let size = opts.size.unwrap_or(opts.kernel.info().paper_size);

    // Parse the backend roster before analysis: alt<K> specs need the
    // analyzer to derive alternative skeletons.
    let backend_specs: Vec<moat::BackendSpec> = opts
        .backends
        .iter()
        .map(|s| {
            moat::parse_backend_spec(s).unwrap_or_else(|e| {
                eprintln!("--backends: {e}");
                exit(2)
            })
        })
        .collect();
    let mut acfg = AnalyzerConfig::for_threads((1..=opts.machine.total_cores() as i64).collect());
    acfg.alternatives = backend_specs
        .iter()
        .any(|s| matches!(s, moat::BackendSpec::AltSkeleton(_)));
    let raw_region = match &opts.file {
        Some(path) => {
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1)
            });
            moat::ir::parse_region(&src).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                exit(1)
            })
        }
        None => opts.kernel.region(size),
    };
    let region = match analyze(raw_region, &acfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analysis failed: {e}");
            exit(1)
        }
    };
    let model = CostModel::with_noise(opts.machine.clone(), NoiseModel::default());
    let objectives = if opts.energy {
        vec![Objective::Time, Objective::Resources, Objective::Energy]
    } else {
        vec![Objective::Time, Objective::Resources]
    };
    let ev = MultiObjectiveEvaluator {
        region: &region,
        skeleton: &region.skeletons[0],
        model: &model,
        objectives: objectives.clone(),
    };

    let params = RsGde3Params {
        seed: opts.seed,
        max_generations: opts.generations,
        ..Default::default()
    };
    let tuner: Box<dyn Tuner> = match opts.strategy {
        StrategyKind::Grid => Box::new(GridTuner::new(10)),
        StrategyKind::Random => Box::new(RandomTuner::new(opts.seed)),
        StrategyKind::Gde3 => Box::new(RsGde3Tuner::new(RsGde3Params {
            use_roughset: false,
            ..params
        })),
        StrategyKind::Nsga2 => Box::new(Nsga2Tuner::new(Nsga2Params {
            seed: opts.seed,
            ..Default::default()
        })),
        StrategyKind::RsGde3 => Box::new(RsGde3Tuner::new(params)),
        StrategyKind::WeightedSum => Box::new(WeightedSumTuner::new(WeightedSweepParams {
            seed: opts.seed,
            ..Default::default()
        })),
    };
    let space = ir_space(&region.skeletons[0]);

    // Multi-backend roster: the optimizer explores config × backend; the
    // provenance of every front point records which backend measured it.
    for s in &backend_specs {
        if let moat::BackendSpec::AltSkeleton(k) = s {
            if *k >= region.skeletons.len() {
                eprintln!(
                    "--backends: alt{k}: region {} has only {} skeleton(s)",
                    region.name,
                    region.skeletons.len()
                );
                exit(2)
            }
        }
    }
    let unrolls: Vec<moat::FixedUnrollEvaluator> = backend_specs
        .iter()
        .filter_map(|s| match s {
            moat::BackendSpec::Unroll(n) => Some(moat::FixedUnrollEvaluator::new(
                &region,
                &region.skeletons[0],
                &model,
                *n,
            )),
            _ => None,
        })
        .collect();
    let alts: Vec<moat::AltSkeletonEvaluator> = backend_specs
        .iter()
        .filter_map(|s| match s {
            moat::BackendSpec::AltSkeleton(k) => {
                Some(moat::AltSkeletonEvaluator::new(&region, &model, *k))
            }
            _ => None,
        })
        .collect();
    let backend_set = (!opts.backends.is_empty()).then(|| {
        let fingerprint = ArchiveKey::of(&region.skeletons[0], &space, &opts.machine).machine;
        let mut set = moat::BackendSet::new();
        let (mut next_unroll, mut next_alt) = (0, 0);
        for (name, spec) in opts.backends.iter().zip(&backend_specs) {
            let prov = moat::Provenance::new(
                moat::BackendId::new(moat::BackendKind::Analytic, name.clone()),
                fingerprint,
            );
            match spec {
                moat::BackendSpec::Model => set.register(prov, &ev),
                moat::BackendSpec::Unroll(_) => {
                    set.register(prov, &unrolls[next_unroll]);
                    next_unroll += 1;
                }
                moat::BackendSpec::AltSkeleton(_) => {
                    set.register(prov, &alts[next_alt]);
                    next_alt += 1;
                }
            }
        }
        set
    });
    let tuning_space = match backend_set.as_ref() {
        Some(set) => set.space(&space),
        None => space.clone(),
    };

    // Optional fault pipeline: the chaos injector sits under the
    // retry/outlier-rejection layer; the session's cache sits on top, so
    // each distinct configuration runs the pipeline exactly once.
    let injector = opts.inject.clone().map(|schedule| {
        let inner: &dyn Evaluator = match backend_set.as_ref() {
            Some(set) => set,
            None => &ev,
        };
        FaultInjector::new(inner, schedule)
    });
    let fault_tolerant = (opts.fault_policy.is_some() || injector.is_some()).then(|| {
        let inner: &dyn FallibleEvaluator = match (injector.as_ref(), backend_set.as_ref()) {
            (Some(i), _) => i,
            (None, Some(set)) => set,
            (None, None) => &ev,
        };
        FaultTolerantEvaluator::new(inner, opts.fault_policy.clone().unwrap_or_default())
            .with_obs(obs.clone())
    });
    let evaluator: &dyn Evaluator = match (fault_tolerant.as_ref(), backend_set.as_ref()) {
        (Some(ft), _) => ft,
        (None, Some(set)) => set,
        (None, None) => &ev,
    };
    let mut session = TuningSession::new(tuning_space.clone(), evaluator)
        .with_batch(BatchEval::default())
        .with_label(region.name.clone())
        .with_obs(obs.clone());
    if let Some(budget) = opts.budget {
        session = session.with_budget(budget);
    }
    if let Some(secs) = opts.time_budget {
        session = session.with_time_budget(Duration::from_secs_f64(secs));
    }

    // Tuning archive: seed from past runs, record this one.
    let archive = opts.archive.as_ref().map(|root| {
        Archive::open(root)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1)
            })
            .with_obs(obs.clone())
    });
    if opts.warm_start && archive.is_none() {
        eprintln!("--warm-start requires --archive <DIR>");
        exit(2);
    }
    let key = ArchiveKey::of(&region.skeletons[0], &space, &opts.machine);
    let mut warm_note = String::new();
    if opts.warm_start {
        let archive = archive.as_ref().expect("checked above");
        match archive.warm_start_for(&key, &opts.machine.features()) {
            Ok(Some((warm, source))) => {
                warm_note = match source {
                    WarmStartSource::Exact => {
                        format!(" warm-start=exact({} hints)", warm.hints.len())
                    }
                    WarmStartSource::Transfer { machine, distance } => format!(
                        " warm-start=transfer({machine}, d={distance:.2}, {} seeds)",
                        warm.seeds.len()
                    ),
                };
                session = session.with_warm_start(warm);
            }
            Ok(None) => warm_note = " warm-start=cold".into(),
            Err(e) => {
                eprintln!("{e}");
                exit(1)
            }
        }
    }

    let mut sink = opts.checkpoint.as_ref().map(|path| CrashingSink {
        store: CheckpointStore::create(path)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1)
            })
            .with_obs(obs.clone()),
        crash_after: opts.crash_after,
        saved: 0,
    });
    if let Some(sink) = sink.as_mut() {
        session = session.with_checkpointing(sink, opts.checkpoint_every);
    }
    if let Some(ckpt) = resume_ckpt {
        session = session.with_resume(ckpt).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(1)
        });
    }

    // Surrogate screening: installed last so it also absorbs anything the
    // warm start put into the evaluator cache. The model is primed from
    // every archived front of this problem, nearest machine first.
    let mut surrogate_note = String::new();
    if opts.surrogate {
        let policy = moat::ScreeningPolicy {
            screen_ratio: opts.screen_ratio,
            seed: opts.seed,
            ..Default::default()
        };
        let features = moat::IrFeatures::new(
            &region.skeletons[0],
            &tuning_space,
            &opts.machine.features(),
        );
        let model = moat::Surrogate::new(moat::FeatureSource::dims(&features), objectives.len());
        let mut screen = moat::SurrogateScreen::new(Box::new(features), model, policy);
        let mut primed = 0usize;
        if opts.backends.is_empty() {
            if let Some(archive) = &archive {
                let family = archive
                    .records_for_machine_family(&key, &opts.machine.features())
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        exit(1)
                    });
                for (record, _distance) in &family {
                    for p in &record.front {
                        if screen.prime(&p.config, &p.objectives) {
                            primed += 1;
                        }
                    }
                }
            }
        }
        surrogate_note = format!(
            " surrogate=on(ratio={}, primed={primed})",
            opts.screen_ratio
        );
        session = session.with_surrogate(screen);
    }

    let mut result = session.run(tuner.as_ref());
    let surrogate_stats = session.surrogate_stats().cloned();
    // Multi-backend runs: strip the backend coordinate, tag provenance.
    if let Some(set) = backend_set.as_ref() {
        result.front = set.annotate_front(&result.front);
    }
    let result = result;

    if let Some(sink) = sink.as_ref() {
        if let Some(e) = sink.store.last_error() {
            eprintln!("warning: {e}");
        }
    }

    if let Some(archive) = &archive {
        let record = ArchiveRecord::from_report(
            region.name.clone(),
            &region.skeletons[0],
            &space,
            &opts.machine,
            objectives.iter().map(|o| o.name().to_string()).collect(),
            &result,
        );
        if let Err(e) = archive.insert(&record) {
            eprintln!("{e}");
            exit(1)
        }
    }

    let threads_param = region.skeletons[0].steps.iter().find_map(|s| match s {
        Step::Parallelize { threads_param } => Some(*threads_param),
        _ => None,
    });
    let table = VersionTable::from_front(
        region.name.clone(),
        &region.skeletons[0],
        &result.front,
        objectives.iter().map(|o| o.name().to_string()).collect(),
        threads_param,
    );

    // A zero budget yields an empty front; objective_bounds rejects that.
    let hv = if result.front.points().is_empty() {
        0.0
    } else {
        let (ideal, nadir) = objective_bounds(result.front.points());
        hypervolume(&normalize_front(result.front.points(), &ideal, &nadir))
    };
    println!(
        "tuned {} on {} via {}: E={} |S|={} iterations={} stop={} self-hv={:.3}{}",
        region.name,
        opts.machine.name,
        opts.strategy,
        result.evaluations,
        table.len(),
        result.iterations,
        result.stop.name(),
        hv,
        warm_note
    );
    if !surrogate_note.is_empty() {
        if let Some(stats) = surrogate_stats.as_ref() {
            println!(
                "surrogate stats:{} requested={} forwarded={} screened={} explored={} mae={:.1}% rank-corr={}",
                surrogate_note,
                stats.requested,
                stats.forwarded,
                stats.screened,
                stats.explored,
                stats.mae_pct(),
                format_args!("{:.3}", stats.mean_rank_corr()),
            );
        }
    }
    if let Some(ft) = fault_tolerant.as_ref() {
        let s = ft.stats();
        println!(
            "fault stats: attempts={} retries={} timeouts={} failures={} extra={} quarantined={}",
            s.attempts, s.retries, s.timeouts, s.failures, s.extra_measurements, s.quarantined
        );
    }
    let _ = size;
    if !opts.quiet {
        let names = objectives
            .iter()
            .map(|o| o.name())
            .collect::<Vec<_>>()
            .join("  ");
        println!("\n{:<48}  {}", "configuration", names);
        for v in &table.versions {
            let objs = v
                .objectives
                .iter()
                .map(|o| format!("{o:<10.4}"))
                .collect::<Vec<_>>()
                .join("  ");
            // Pre-provenance output is untouched: the backend column only
            // appears on provenance-tagged (multi-backend) versions.
            let label = match &v.provenance {
                Some(p) => format!("{} [{}]", v.label, p.backend),
                None => v.label.clone(),
            };
            println!("{label:<48}  {objs}");
        }
        if backend_set.is_some() {
            println!();
            print!("{}", moat::report::LossMatrix::from_table(&table).render());
        }
    }

    if let Some(path) = &opts.emit_json {
        std::fs::write(path, table.to_json()).expect("write JSON");
        println!("wrote {path}");
    }
    if let Some(path) = &opts.emit_c {
        // Instantiate each version with the skeleton its backend used, so
        // the emitted code matches the recorded provenance.
        let variants: Vec<_> = table
            .versions
            .iter()
            .map(|v| {
                let spec = v
                    .provenance
                    .as_ref()
                    .and_then(|p| moat::parse_backend_spec(&p.backend.variant).ok());
                match spec {
                    Some(moat::BackendSpec::AltSkeleton(k)) => {
                        let sk = &region.skeletons[k];
                        let n = sk.params.len().min(v.values.len());
                        sk.instantiate(&region.nest, &sk.nearest_values(&v.values[..n]))
                            .unwrap()
                    }
                    Some(moat::BackendSpec::Unroll(f)) => {
                        let mut variant = region.skeletons[0]
                            .instantiate(&region.nest, &v.values)
                            .unwrap();
                        variant.unroll = f.max(1) as u32;
                        variant
                    }
                    _ => region.skeletons[0]
                        .instantiate(&region.nest, &v.values)
                        .unwrap(),
                }
            })
            .collect();
        std::fs::write(path, emit_multiversioned_c(&region, &table, &variants)).expect("write C");
        println!("wrote {path}");
    }
    if let Some(path) = &opts.emit_param_c {
        match emit_parameterized_c(&region, &region.skeletons[0], &table) {
            Ok(code) => {
                std::fs::write(path, code).expect("write parameterized C");
                println!("wrote {path}");
            }
            Err(e) => eprintln!("parameterized emission unavailable: {e}"),
        }
    }
}
