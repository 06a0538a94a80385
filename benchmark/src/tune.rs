//! `tune-cold` and `tune-persist`: sequential `moat-tune` runs, timed from
//! spawn to exit. The traced run repeats every problem in-process, stage by
//! stage, with a span around each public call, and requires the staged
//! version table to equal the one the CLI emitted.

use crate::common::{
    children_peak_rss_mb, cpu_seconds, derive, dominated_pair, finish_traced, ms, ns_per_call,
    ns_per_item, repeat_setup, set_deterministic, set_end_to_end, stretches, Ctx, Ledger,
    RunResult, ScratchDir, TimedEval, Who,
};
use crate::trace::{Trace, Tracer};
use moat::core::metrics::objective_bounds;
use moat::core::{
    fast_nondominated_sort, hypervolume_2d, normalize_front, reduce_search_space, BatchEval,
    CheckpointSink, Config, Evaluator, EventSink, Hv2dIncremental, ParamSpace, ParetoArchive,
    Point, RsGde3Params, RsGde3Tuner, SessionCheckpoint, TuningEvent, TuningReport, TuningSession,
};
use moat::ir::{analyze, parse_region, to_source, AnalyzerConfig, Region, Step};
use moat::machine::{nest_footprints, CostModel, NoiseModel};
use moat::multiversion::emit_multiversioned_c;
use moat::{
    ir_space, Archive, ArchiveKey, ArchiveRecord, CheckpointStore, FeatureSource, IrFeatures,
    Kernel, MachineDesc, MultiObjectiveEvaluator, Objective, ScreeningPolicy, Surrogate,
    SurrogateScreen, VersionTable,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Rounds whose `E` and self-hypervolume feed the two deterministic
/// metrics. Every run completes at least this many, whatever `--seconds`
/// says, so the same seed always averages the same problems.
const DET_ROUNDS: u64 = 2;
/// One problem in this many is run twice and must repeat byte for byte.
const RERUN_EVERY: u64 = 50;
/// Checkpoint cadence of the cold phase of `tune-persist`. Every iteration
/// (`1`) made two thirds of the phase two `fsync`s per iteration, and the
/// disk's latency — which drifts by ±20 % from run to run here — spread the
/// workload's p95 by 29 % over ten seeds; every fourth keeps the WAL, the
/// serialisation and the rename in play at a third of the waiting.
const CHECKPOINT_EVERY: u32 = 4;
/// The op number of the untimed warm-up problems of a set-up.
const WARM_UP: u64 = u64::MAX;

/// A (kernel, machine) pair: the unit a round cycles through.
pub struct Class {
    kernel: Kernel,
    machine: MachineDesc,
    machine_arg: &'static str,
    /// The analyzed paper-size region's search space, to check that every
    /// emitted version lies inside it.
    space: ParamSpace,
}

/// The two paper machines, as `moat-tune --machine` and a job spec name them.
pub const MACHINES: [&str; 2] = ["westmere", "barcelona"];

pub fn machine(name: &str) -> Option<MachineDesc> {
    match name {
        "westmere" => Some(MachineDesc::westmere()),
        "barcelona" => Some(MachineDesc::barcelona()),
        _ => None,
    }
}

pub fn analyzer_config(machine: &MachineDesc) -> AnalyzerConfig {
    AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect())
}

/// The ten classes, kernel-major: 5 kernels × 2 machines at paper sizes.
pub fn classes() -> Result<Vec<Class>, String> {
    let mut out = Vec::new();
    for kernel in Kernel::all() {
        for machine_arg in MACHINES {
            let machine = machine(machine_arg).expect("both names are known");
            let region = analyze(kernel.paper_region(), &analyzer_config(&machine))?;
            out.push(Class {
                kernel,
                space: ir_space(&region.skeletons[0]),
                machine,
                machine_arg,
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The CLI side
// ---------------------------------------------------------------------------

struct CliRun {
    wall_ms: f64,
    stdout: String,
    success: bool,
}

fn run_cli(bin: &Path, args: &[String]) -> Result<CliRun, String> {
    let start = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    Ok(CliRun {
        wall_ms: ms(start.elapsed()),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        success: out.status.success(),
    })
}

/// What the summary line (and the surrogate line under it) report.
#[derive(Debug, Default, Clone, PartialEq)]
struct Summary {
    evaluations: u64,
    versions: usize,
    hv: f64,
    warm: String,
    screened: u64,
}

fn parse_summary(stdout: &str) -> Option<Summary> {
    let first = stdout.lines().next()?;
    if !first.starts_with("tuned ") {
        return None;
    }
    let mut s = Summary::default();
    let (mut saw_e, mut saw_s, mut saw_hv) = (false, false, false);
    for tok in stdout.split_whitespace() {
        if let Some(v) = tok.strip_prefix("E=") {
            s.evaluations = v.parse().ok()?;
            saw_e = true;
        } else if let Some(v) = tok.strip_prefix("|S|=") {
            s.versions = v.parse().ok()?;
            saw_s = true;
        } else if let Some(v) = tok.strip_prefix("self-hv=") {
            s.hv = v.parse().ok()?;
            saw_hv = true;
        } else if let Some(v) = tok.strip_prefix("warm-start=") {
            s.warm = v.to_string();
        } else if let Some(v) = tok.strip_prefix("screened=") {
            s.screened = v.parse().ok()?;
        }
    }
    (saw_e && saw_s && saw_hv).then_some(s)
}

/// The emitted table loads, has |S| mutually non-dominated entries, and
/// every entry lies inside the class's search space.
fn check_table(path: &Path, space: &ParamSpace, versions: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let table = VersionTable::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if table.len() != versions {
        return Err(format!(
            "table has {} entries, summary says |S|={versions}",
            table.len()
        ));
    }
    if let Some(v) = table.versions.iter().find(|v| !space.contains(&v.values)) {
        return Err(format!("version '{}' lies outside the space", v.label));
    }
    let objectives: Vec<&[f64]> = table
        .versions
        .iter()
        .map(|v| v.objectives.as_slice())
        .collect();
    if let Some((a, b)) = dominated_pair(&objectives) {
        return Err(format!(
            "versions '{}' and '{}' are not mutually non-dominated",
            table.versions[a].label, table.versions[b].label
        ));
    }
    Ok(text)
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

fn base_args(class: &Class, seed: u64) -> Vec<String> {
    vec![
        s("--quiet"),
        s("--kernel"),
        s(class.kernel.info().name),
        s("--machine"),
        s(class.machine_arg),
        s("--seed"),
        s(seed),
    ]
}

fn emit_args(dir: &Path, stem: &str) -> Vec<String> {
    vec![
        s("--emit-json"),
        s(dir.join(format!("{stem}.json")).display()),
        s("--emit-c"),
        s(dir.join(format!("{stem}.c")).display()),
    ]
}

/// One checked `moat-tune` run: its wall, summary and emitted table.
struct Checked {
    wall_ms: f64,
    summary: Summary,
    table_json: String,
    /// Everything that must repeat byte for byte: the stdout lines that do
    /// not name a path, the table and the C source.
    fingerprint: String,
}

fn checked_run(
    bin: &Path,
    class: &Class,
    seed: u64,
    extra: &[String],
    dir: &Path,
    stem: &str,
) -> Result<Checked, String> {
    let mut args = base_args(class, seed);
    args.extend_from_slice(extra);
    args.extend(emit_args(dir, stem));
    let run = run_cli(bin, &args)?;
    if !run.success {
        return Err(format!("moat-tune {} exited non-zero", args.join(" ")));
    }
    let summary = parse_summary(&run.stdout).ok_or_else(|| {
        format!(
            "summary line does not parse: {:?}",
            run.stdout.lines().next()
        )
    })?;
    let table_json = check_table(
        &dir.join(format!("{stem}.json")),
        &class.space,
        summary.versions,
    )?;
    let c_path = dir.join(format!("{stem}.c"));
    let c_src =
        std::fs::read_to_string(&c_path).map_err(|e| format!("{}: {e}", c_path.display()))?;
    if c_src.is_empty() {
        return Err(format!("{} is empty", c_path.display()));
    }
    let stable: Vec<&str> = run
        .stdout
        .lines()
        .filter(|l| !l.starts_with("wrote "))
        .collect();
    Ok(Checked {
        wall_ms: run.wall_ms,
        summary,
        fingerprint: format!("{}\n{table_json}\n{c_src}", stable.join("\n")),
        table_json,
    })
}

// ---------------------------------------------------------------------------
// The staged in-process pipeline (traced runs)
// ---------------------------------------------------------------------------

/// How a staged run uses `<out>/archive` and `<out>/ck.json`: not at all,
/// or as one of the three phases of `tune-persist`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No archive.
    Plain,
    /// `--archive --checkpoint --checkpoint-every <CHECKPOINT_EVERY>`
    Cold,
    /// `--archive --warm-start`
    Warm,
    /// `--archive --warm-start --surrogate`
    WarmSurrogate,
}

/// Collects the session's batch walls and request counts.
struct BatchSink {
    origin: Instant,
    /// `(start_ns, end_ns)` of each evaluated batch.
    batches: Vec<(u64, u64)>,
    requested: u64,
}

impl EventSink for BatchSink {
    fn event(&mut self, event: &TuningEvent) {
        if let TuningEvent::BatchEvaluated {
            requested, elapsed, ..
        } = event
        {
            self.requested += *requested as u64;
            if let Some(d) = elapsed {
                let end = self.origin.elapsed().as_nanos() as u64;
                self.batches
                    .push((end.saturating_sub(d.as_nanos() as u64), end));
            }
        }
    }
}

/// `CheckpointStore` behind the sink trait, timing each durable write.
struct TimedStore {
    store: CheckpointStore,
    origin: Instant,
    writes: Vec<(u64, u64)>,
    error: Option<String>,
}

impl CheckpointSink for TimedStore {
    fn save(&mut self, checkpoint: &SessionCheckpoint) {
        let start = self.origin.elapsed().as_nanos() as u64;
        if let Err(e) = self.store.write(checkpoint) {
            self.error = Some(e.to_string());
        }
        self.writes
            .push((start, self.origin.elapsed().as_nanos() as u64));
    }
}

struct Staged {
    wall_ms: f64,
    table_json: String,
    region: Region,
    report: TuningReport,
}

/// The `moat-tune` pipeline, one public call per span. With a disabled
/// tracer it runs the same stages with no timing wrapper, no event sink and
/// no batch clock — the untraced side of the overhead pair.
fn staged(
    class: &Class,
    seed: u64,
    phase: Phase,
    out: &Path,
    tr: &mut Tracer,
    op: u64,
    ledger: &mut Ledger,
) -> Result<Staged, String> {
    let traced = tr.enabled();
    let origin = tr.origin();
    let start = Instant::now();
    let root = tr.begin("tune.staged", op);

    let region = tr.span("ir.analyze", op, || {
        analyze(
            class.kernel.paper_region(),
            &analyzer_config(&class.machine),
        )
    })?;
    let skeleton = &region.skeletons[0];
    let open = tr.begin("ir.space", op);
    let space = ir_space(skeleton);
    let model = CostModel::with_noise(class.machine.clone(), NoiseModel::default());
    let objectives = vec![Objective::Time, Objective::Resources];
    let objective_names: Vec<String> = objectives.iter().map(|o| o.name().to_string()).collect();
    let ev = MultiObjectiveEvaluator {
        region: &region,
        skeleton,
        model: &model,
        objectives: objectives.clone(),
    };
    let tuner = RsGde3Tuner::new(RsGde3Params {
        seed,
        max_generations: 200,
        ..Default::default()
    });
    let key = ArchiveKey::of(skeleton, &space, &class.machine);
    tr.end(open);

    let archive = match phase {
        Phase::Plain => None,
        _ => Some(
            tr.span("archive.open", op, || Archive::open(out.join("archive")))
                .map_err(|e| e.to_string())?,
        ),
    };
    let warm = match (phase, &archive) {
        (Phase::Warm | Phase::WarmSurrogate, Some(archive)) => {
            let open = tr.begin("archive.warm_start_for", op);
            let warm = archive
                .warm_start_for(&key, &class.machine.features())
                .map_err(|e| e.to_string())?;
            tr.end(open);
            warm.map(|(w, _)| w)
        }
        _ => None,
    };
    let mut store = match phase {
        Phase::Cold => Some(TimedStore {
            store: CheckpointStore::create(out.join("ck.json")).map_err(|e| e.to_string())?,
            origin,
            writes: Vec::new(),
            error: None,
        }),
        _ => None,
    };

    let timed = TimedEval::new(&ev);
    let mut sink = BatchSink {
        origin,
        batches: Vec::new(),
        requested: 0,
    };
    let session_open = tr.begin("core.session_run", op);
    let session_start = Instant::now();
    let (report, surrogate_stats) = {
        let evaluator: &dyn Evaluator = if traced { &timed } else { &ev };
        let mut session = TuningSession::new(space.clone(), evaluator)
            .with_batch(BatchEval::default())
            .with_label(region.name.clone());
        if traced {
            session = session.with_batch_timing(true).with_sink(&mut sink);
        }
        if let Some(warm) = warm {
            session = session.with_warm_start(warm);
        }
        if let Some(store) = store.as_mut() {
            session = session.with_checkpointing(store, CHECKPOINT_EVERY);
        }
        if let (Phase::WarmSurrogate, Some(archive)) = (phase, &archive) {
            let policy = ScreeningPolicy {
                seed,
                ..Default::default()
            };
            let features = IrFeatures::new(skeleton, &space, &class.machine.features());
            let surrogate = Surrogate::new(FeatureSource::dims(&features), objectives.len());
            let mut screen = SurrogateScreen::new(Box::new(features), surrogate, policy);
            let family = archive
                .records_for_machine_family(&key, &class.machine.features())
                .map_err(|e| e.to_string())?;
            for (record, _) in &family {
                for p in &record.front {
                    screen.prime(&p.config, &p.objectives);
                }
            }
            session = session.with_surrogate(screen);
        }
        let report = session.run(&tuner);
        (report, session.surrogate_stats().cloned())
    };
    let session_ns = session_start.elapsed().as_nanos() as u64;
    for &(b, e) in &sink.batches {
        tr.record("core.batch_eval", op, b, e);
    }
    if let Some(store) = &store {
        if let Some(e) = &store.error {
            return Err(format!("checkpoint write failed: {e}"));
        }
        for &(b, e) in &store.writes {
            tr.record("archive.checkpoint_write", op, b, e);
        }
    }
    tr.end(session_open);

    if let Some(archive) = &archive {
        let record = ArchiveRecord::from_report(
            region.name.clone(),
            skeleton,
            &space,
            &class.machine,
            objective_names.clone(),
            &report,
        );
        tr.span("archive.insert", op, || archive.insert(&record))
            .map_err(|e| e.to_string())?;
    }

    let threads_param = skeleton.steps.iter().find_map(|s| match s {
        Step::Parallelize { threads_param } => Some(*threads_param),
        _ => None,
    });
    let table = tr.span("multiversion.table_from_front", op, || {
        VersionTable::from_front(
            region.name.clone(),
            skeleton,
            &report.front,
            objective_names,
            threads_param,
        )
    });
    let variants = tr.span("ir.instantiate", op, || {
        table
            .versions
            .iter()
            .map(|v| skeleton.instantiate(&region.nest, &v.values))
            .collect::<Result<Vec<_>, _>>()
    });
    let variants = variants.map_err(|e| format!("front point does not instantiate: {e:?}"))?;
    let c_src = tr.span("multiversion.emit_c", op, || {
        emit_multiversioned_c(&region, &table, &variants)
    });
    let table_json = tr.span("multiversion.table_json", op, || table.to_json());
    let open = tr.begin("io.write_outputs", op);
    std::fs::write(out.join("staged.json"), &table_json).map_err(|e| e.to_string())?;
    std::fs::write(out.join("staged.c"), &c_src).map_err(|e| e.to_string())?;
    tr.end(open);
    tr.end(root);
    let wall_ns = start.elapsed().as_nanos() as u64;

    if traced {
        let (calls, eval_ns) = timed.totals();
        let batch_ns: u64 = sink.batches.iter().map(|(b, e)| e - b).sum();
        ledger.push("sim.evaluate_calls", calls as f64);
        if calls > 0 {
            ledger.push("sim.evaluate_ns", eval_ns as f64 / calls as f64);
        }
        ledger.push("core.session_run_ms", session_ns as f64 / 1e6);
        ledger.push(
            "core.search_self_ms",
            session_ns.saturating_sub(batch_ns) as f64 / 1e6,
        );
        if sink.requested > 0 {
            ledger.push(
                "core.cache_hit_share",
                1.0 - calls as f64 / sink.requested as f64,
            );
        }
        ledger.push("multiversion.emitted_c_bytes", c_src.len() as f64);
        if let Some(store) = &store {
            ledger.push("archive.checkpoints_per_run", store.writes.len() as f64);
            if let Ok(meta) = std::fs::metadata(store.store.path()) {
                ledger.push("archive.bytes_per_checkpoint", meta.len() as f64);
            }
        }
        if let Some(stats) = surrogate_stats {
            if stats.requested > 0 {
                ledger.push(
                    "core.surrogate_screened_share",
                    stats.screened as f64 / stats.requested as f64,
                );
            }
        }
    }
    Ok(Staged {
        wall_ms: wall_ns as f64 / 1e6,
        table_json,
        region,
        report,
    })
}

/// ns/op of the search's inner pieces, replayed over the points a staged
/// run logged. Outside the attributed wall: these multiply with the call
/// counts above to say where the session's self time goes.
fn replay_probes(ctx: &Ctx, class: &Class, run: &Staged, surrogate: bool, ledger: &mut Ledger) {
    let region = &run.region;
    let skeleton = &region.skeletons[0];
    let space = ir_space(skeleton);
    let model = CostModel::with_noise(class.machine.clone(), NoiseModel::default());
    // The first 256 evaluated points stand for the run.
    let all: Vec<Point> = run.report.all.iter().take(256).cloned().collect();
    if all.len() < 32 {
        return;
    }

    let start = Instant::now();
    let variants: Vec<_> = all
        .iter()
        .filter_map(|p| skeleton.instantiate(&region.nest, &p.config).ok())
        .collect();
    ledger.push(
        "ir.instantiate_ns",
        start.elapsed().as_nanos() as f64 / all.len() as f64,
    );
    ledger.push(
        "machine.cost_ns",
        ns_per_item(&variants, |v| model.cost(&region.arrays, v)),
    );
    ledger.push(
        "machine.footprint_ns",
        ns_per_item(&variants, |v| nest_footprints(&region.arrays, &v.nest, 64)),
    );
    let source = to_source(region);
    ledger.push(
        "ir.parse_region_us",
        ns_per_call(8, || parse_region(&source)) / 1e3,
    );

    let start = Instant::now();
    let mut archive = ParetoArchive::new();
    for p in &run.report.all {
        std::hint::black_box(archive.insert(p.clone()));
    }
    ledger.push(
        "core.pareto_insert_ns",
        start.elapsed().as_nanos() as f64 / run.report.all.len() as f64,
    );
    let front = run.report.front.points();
    let (ideal, nadir) = objective_bounds(front);
    let normalized = normalize_front(front, &ideal, &nadir);
    ledger.push(
        "core.hv2d_ns",
        ns_per_call(64, || hypervolume_2d(&normalized)),
    );
    let all_norm = normalize_front(&all, &ideal, &nadir);
    let mut hv = Hv2dIncremental::unit();
    ledger.push(
        "core.hv_incremental_ns",
        ns_per_item(&all_norm, |p| hv.insert(p[0], p[1])),
    );
    // Parent + trial population of the default GDE3 (2 × 30).
    let population = &all[..60.min(all.len())];
    ledger.push(
        "core.nds_us",
        ns_per_call(16, || fast_nondominated_sort(population)) / 1e3,
    );
    ledger.push(
        "core.roughset_us",
        ns_per_call(16, || reduce_search_space(&space, population)) / 1e3,
    );
    let ev = MultiObjectiveEvaluator {
        region,
        skeleton,
        model: &model,
        objectives: vec![Objective::Time, Objective::Resources],
    };
    let batch: Vec<Config> = all.iter().take(30).map(|p| p.config.clone()).collect();
    ledger.push(
        "core.batch_eval_w1_us",
        ns_per_call(4, || BatchEval::sequential().run(&ev, &batch)) / 1e3,
    );
    ledger.push(
        "core.batch_eval_wn_us",
        ns_per_call(4, || BatchEval::parallel(ctx.nproc).run(&ev, &batch)) / 1e3,
    );

    if surrogate {
        let features = IrFeatures::new(skeleton, &space, &class.machine.features());
        let mut model = Surrogate::new(FeatureSource::dims(&features), 2);
        let samples: Vec<(Vec<f64>, &[f64])> = all
            .iter()
            .map(|p| (features.features(&p.config), p.objectives.as_slice()))
            .collect();
        ledger.push(
            "core.surrogate_observe_ns",
            ns_per_item(&samples, |(feats, objs)| model.observe(feats, objs)),
        );
        ledger.push(
            "core.surrogate_predict_ns",
            ns_per_item(&samples, |(feats, _)| model.predict(feats)),
        );
    }
}

// ---------------------------------------------------------------------------
// The two workloads
// ---------------------------------------------------------------------------

/// State a set-up leaves behind.
struct State {
    dir: ScratchDir,
    classes: Vec<Class>,
}

/// One problem of a round, as the driver hands it to a workload.
struct Problem<'a> {
    class: &'a Class,
    /// The tuner seed, derived from the workload seed, round and class.
    seed: u64,
    /// Running number of the problem, or `WARM_UP`.
    op: u64,
    /// Whether the problem's `E` and hypervolume feed the seed-only means.
    deterministic: bool,
}

/// Per-run accumulators shared by both workloads.
#[derive(Default)]
struct Acc {
    op_ms: Vec<f64>,
    /// `(E, self-hv)` of the CLI runs of the first `DET_ROUNDS` rounds.
    det: Vec<(u64, f64)>,
    ledger: Ledger,
    trace: Trace,
    result: RunResult,
}

fn spawn_probe(bin: &Path) -> Result<f64, String> {
    run_cli(bin, &[s("--help")]).map(|r| r.wall_ms)
}

/// Common driver: set up three times (scratch directory, the ten analyzed
/// classes, and one untimed warm-up round), then run rounds of ten problems
/// until the time is up.
fn drive(
    ctx: &Ctx,
    tag: &str,
    mut problem: impl FnMut(&State, Problem, &mut Acc) -> Result<(), String>,
) -> Result<RunResult, String> {
    let bin = ctx.bin("moat-tune");
    let mut acc = Acc::default();
    acc.result.correct = true;
    let (state, setup) = repeat_setup(
        ctx,
        || {
            let state = State {
                dir: ScratchDir::create(ctx, tag)?,
                classes: classes()?,
            };
            spawn_probe(&bin)?;
            let mut warm = Acc::default();
            for (c, class) in state.classes.iter().enumerate() {
                let seed = derive(ctx.seed, WARM_UP, c as u64);
                let warm_up = Problem {
                    class,
                    seed,
                    op: WARM_UP,
                    deterministic: false,
                };
                problem(&state, warm_up, &mut warm)?;
            }
            Ok(state)
        },
        drop,
    )?;

    let cpu_start = cpu_seconds(Who::Children);
    let deadline = ctx.deadline(Instant::now());
    let det_rounds = ctx.min_rounds(DET_ROUNDS);
    let mut round = 0u64;
    while round < det_rounds || Instant::now() < deadline {
        for (c, class) in state.classes.iter().enumerate() {
            let op = round * state.classes.len() as u64 + c as u64;
            let seed = derive(ctx.seed, round, c as u64);
            let before = acc.op_ms.len();
            let next = Problem {
                class,
                seed,
                op,
                deterministic: round < det_rounds,
            };
            let outcome = problem(&state, next, &mut acc);
            // A problem is one op, or three for `tune-persist`; a failed
            // problem counts as one failed op beside those that finished.
            acc.result.attempted += (acc.op_ms.len() - before).max(1) as u64;
            if let Err(why) = outcome {
                acc.result.failed += 1;
                acc.result.note(format!(
                    "{tag} op {op} ({} on {}, seed {seed}): {why}",
                    class.kernel.info().name,
                    class.machine_arg
                ));
            }
        }
        round += 1;
    }

    let cpu_s = cpu_seconds(Who::Children) - cpu_start;
    let mut result = acc.result;
    result.correct &= result.failed == 0;
    if ctx.traced {
        let spawn: Vec<f64> = (0..20).filter_map(|_| spawn_probe(&bin).ok()).collect();
        acc.ledger.push_all("cli.spawn_ms", &spawn);
        finish_traced(ctx, tag, &acc.ledger, &acc.trace, &mut result)?;
    } else {
        // One stretch per round (a failed op can shorten one).
        let per_op: Vec<(f64, f64)> = acc.op_ms.iter().map(|ms| (1.0, ms / 1e3)).collect();
        let per_round = acc.op_ms.len().div_ceil(round as usize);
        set_end_to_end(
            &mut result.values,
            setup,
            &stretches(&per_op, per_round),
            cpu_s,
            &acc.op_ms,
            children_peak_rss_mb(),
        );
    }
    set_deterministic(&mut result.values, &acc.det);
    Ok(result)
}

/// Run the staged pipeline twice — spans on, spans off, order alternating
/// by op — and record the pair: attribution from the traced side, tracing
/// overhead from the ratio.
fn staged_pair(
    class: &Class,
    seed: u64,
    op: u64,
    phase: Phase,
    dirs: [&Path; 2],
    acc: &mut Acc,
) -> Result<Staged, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(true, origin);
    let mut off = Tracer::new(false, origin);
    let mut scratch = Ledger::default();
    let traced_first = op.is_multiple_of(2);
    let mut plain_ms = 0.0;
    if !traced_first {
        plain_ms = staged(class, seed, phase, dirs[1], &mut off, op, &mut scratch)?.wall_ms;
    }
    let run = staged(
        class,
        seed,
        phase,
        dirs[0],
        &mut tracer,
        op,
        &mut acc.ledger,
    )?;
    if traced_first {
        plain_ms = staged(class, seed, phase, dirs[1], &mut off, op, &mut scratch)?.wall_ms;
    }
    acc.ledger.push(
        "bench.trace_overhead_pct",
        100.0 * (run.wall_ms / plain_ms - 1.0),
    );
    let spans = tracer.spans();
    let root_ns = spans[0].dur_ns();
    let staged_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| s.dur_ns())
        .sum();
    acc.ledger.push(
        "tune.attributed_share",
        staged_ns as f64 / root_ns.max(1) as f64,
    );
    for (span, metric) in [
        ("ir.analyze", "ir.analyze_us"),
        (
            "multiversion.table_from_front",
            "multiversion.table_from_front_us",
        ),
        ("multiversion.emit_c", "multiversion.emit_c_us"),
        ("multiversion.table_json", "multiversion.table_json_us"),
        ("archive.insert", "archive.insert_us"),
        ("archive.warm_start_for", "archive.warm_start_for_us"),
        ("archive.checkpoint_write", "archive.checkpoint_write_us"),
    ] {
        for sp in spans.iter().filter(|sp| sp.name == span) {
            acc.ledger.push(metric, sp.dur_ns() as f64 / 1e3);
        }
    }
    acc.trace.absorb(tracer);
    Ok(run)
}

pub fn run_cold(ctx: &Ctx) -> Result<RunResult, String> {
    let bin = ctx.bin("moat-tune");
    drive(ctx, "tune-cold", |state, problem, acc| {
        let Problem {
            class,
            seed,
            op,
            deterministic: det,
        } = problem;
        let dir = state.dir.path();
        let cli = checked_run(&bin, class, seed, &[], dir, "cli")?;
        acc.op_ms.push(cli.wall_ms);
        if det {
            acc.det.push((cli.summary.evaluations, cli.summary.hv));
        }
        if op % RERUN_EVERY == 0 {
            let again = checked_run(&bin, class, seed, &[], dir, "cli")?;
            if again.fingerprint != cli.fingerprint {
                return Err(s("a second run of the same problem differs"));
            }
        }
        if ctx.traced && op != WARM_UP {
            let run = staged_pair(class, seed, op, Phase::Plain, [dir, dir], acc)?;
            if run.table_json != cli.table_json {
                return Err(s("staged pipeline and CLI emit different tables"));
            }
            acc.ledger.push("cli.other_ms", cli.wall_ms - run.wall_ms);
            replay_probes(ctx, class, &run, false, &mut acc.ledger);
        }
        Ok(())
    })
}

/// The three CLI phases of one `tune-persist` problem in `dir`.
fn persist_phases(
    bin: &Path,
    class: &Class,
    sibling: &Class,
    seed: u64,
    dir: &Path,
) -> Result<[Checked; 3], String> {
    let archive = s(dir.join("archive").display());
    let cold = checked_run(
        bin,
        class,
        seed,
        &[
            s("--archive"),
            archive.clone(),
            s("--checkpoint"),
            s(dir.join("ck.json").display()),
            s("--checkpoint-every"),
            s(CHECKPOINT_EVERY),
        ],
        dir,
        "cold",
    )?;
    let warm = checked_run(
        bin,
        class,
        seed,
        &[s("--archive"), archive.clone(), s("--warm-start")],
        dir,
        "warm",
    )?;
    if !warm.summary.warm.starts_with("exact") {
        return Err(format!(
            "phase 2 reports warm-start={:?}, expected exact",
            warm.summary.warm
        ));
    }
    let sib = checked_run(
        bin,
        sibling,
        seed,
        &[s("--archive"), archive, s("--warm-start"), s("--surrogate")],
        dir,
        "sibling",
    )?;
    if sib.summary.screened == 0 {
        return Err(s("phase 3 screened no configuration"));
    }
    Ok([cold, warm, sib])
}

/// Every archive record round-trips byte-identically and the final
/// checkpoint loads.
fn check_persisted(dir: &Path) -> Result<Vec<ArchiveRecord>, String> {
    let archive = Archive::open(dir.join("archive")).map_err(|e| e.to_string())?;
    let keys = archive.keys().map_err(|e| e.to_string())?;
    if keys.len() != 2 {
        return Err(format!("archive holds {} records, expected 2", keys.len()));
    }
    let mut records = Vec::new();
    for key in keys {
        let path = archive.path_for(&key);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = ArchiveRecord::from_json(&text).map_err(|e| e.to_string())?;
        if record.to_json() != text.trim_end() {
            return Err(format!(
                "{} does not round-trip byte-identically",
                path.display()
            ));
        }
        records.push(record);
    }
    CheckpointStore::load(dir.join("ck.json")).map_err(|e| format!("final checkpoint: {e}"))?;
    Ok(records)
}

pub fn run_persist(ctx: &Ctx) -> Result<RunResult, String> {
    let bin = ctx.bin("moat-tune");
    let mut next_dir = 0u64;
    drive(ctx, "tune-persist", |state, problem, acc| {
        let Problem {
            class,
            seed,
            op,
            deterministic: det,
        } = problem;
        // The sibling is the same kernel on the other machine.
        let sibling = state
            .classes
            .iter()
            .find(|c| c.kernel == class.kernel && c.machine_arg != class.machine_arg)
            .expect("every kernel has both machines");
        let mut fresh = |tag: &str| -> Result<PathBuf, String> {
            next_dir += 1;
            let dir = state.dir.path().join(format!("{tag}{next_dir}"));
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            Ok(dir)
        };
        let dir = fresh("p")?;
        let phases = persist_phases(&bin, class, sibling, seed, &dir)?;
        acc.op_ms.extend(phases.iter().map(|p| p.wall_ms));
        if det {
            acc.det
                .extend(phases.iter().map(|p| (p.summary.evaluations, p.summary.hv)));
        }
        let records = check_persisted(&dir)?;
        if op % RERUN_EVERY == 0 {
            let again = fresh("r")?;
            let repeat = persist_phases(&bin, class, sibling, seed, &again)?;
            if phases
                .iter()
                .zip(&repeat)
                .any(|(a, b)| a.fingerprint != b.fingerprint)
            {
                return Err(s("a second run of the same problem differs"));
            }
            let _ = std::fs::remove_dir_all(again);
        }
        if ctx.traced && op != WARM_UP {
            for (name, p) in [
                "tune.persist_cold_ms",
                "tune.persist_warm_ms",
                "tune.persist_sibling_ms",
            ]
            .iter()
            .zip(&phases)
            {
                acc.ledger.push(name, p.wall_ms);
            }
            let (on, off) = (fresh("s")?, fresh("u")?);
            let plans = [
                (class, Phase::Cold),
                (class, Phase::Warm),
                (sibling, Phase::WarmSurrogate),
            ];
            let mut staged_ms = 0.0;
            for (i, (&(cls, phase), cli)) in plans.iter().zip(&phases).enumerate() {
                let run = staged_pair(cls, seed, op, phase, [&on, &off], acc)?;
                if run.table_json != cli.table_json {
                    return Err(format!(
                        "phase {}: staged pipeline and CLI emit different tables",
                        i + 1
                    ));
                }
                staged_ms += run.wall_ms;
                if phase != Phase::Warm {
                    replay_probes(
                        ctx,
                        cls,
                        &run,
                        phase == Phase::WarmSurrogate,
                        &mut acc.ledger,
                    );
                }
            }
            acc.ledger.push(
                "cli.other_ms",
                (phases.iter().map(|p| p.wall_ms).sum::<f64>() - staged_ms) / 3.0,
            );
            archive_probes(&on, &records, &mut acc.ledger)?;
            let _ = std::fs::remove_dir_all(on);
            let _ = std::fs::remove_dir_all(off);
        }
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    })
}

/// Archive calls the staged run does not make on its own, timed against
/// the problem's own two records.
fn archive_probes(
    dir: &Path,
    records: &[ArchiveRecord],
    ledger: &mut Ledger,
) -> Result<(), String> {
    let archive = Archive::open(dir.join("archive")).map_err(|e| e.to_string())?;
    for record in records {
        let json = record.to_json();
        ledger.push(
            "archive.get_us",
            ns_per_call(4, || archive.get(&record.key)) / 1e3,
        );
        ledger.push(
            "archive.record_to_json_us",
            ns_per_call(4, || record.to_json()) / 1e3,
        );
        ledger.push(
            "archive.record_from_json_us",
            ns_per_call(4, || ArchiveRecord::from_json(&json)) / 1e3,
        );
    }
    let ck = dir.join("ck.json");
    ledger.push(
        "archive.checkpoint_load_us",
        ns_per_call(4, || CheckpointStore::load(&ck)) / 1e3,
    );
    Ok(())
}
