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
//!                                                     and evaluate its better-ranked half
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
//!   --crash-after <N>                                 abort after the Nth checkpoint (testing)
//!   --trace <FILE>                                    write a JSONL observability trace
//!   --metrics <FILE>                                  write a Prometheus-style metrics snapshot
//!   --timestamps <logical|wall>                       trace timestamp mode (default logical:
//!                                                     deterministic; wall: profiling spans)
//!   --help                                            print this text
//! ```

use moat::core::metrics::objective_bounds;
use moat::core::{hypervolume, normalize_front, CheckpointSink, SessionCheckpoint, SessionHooks};
use moat::multiversion::emit_parameterized_c;
use moat::{
    CheckpointStore, Framework, Hooks, Kernel, MachineDesc, Objective, Obs, Prepared,
    ScreeningPolicy, StrategyKind, WarmStartSource,
};
use std::process::exit;
use std::time::Duration;

/// The run options ([`Framework`], filled straight from the flags) and
/// what only this host has: where the region comes from, what to write,
/// and the checkpoint/crash wiring around the session.
#[derive(Debug)]
struct Opts {
    fw: Framework,
    kernel: Kernel,
    file: Option<String>,
    size: Option<i64>,
    emit_c: Option<String>,
    emit_param_c: Option<String>,
    emit_json: Option<String>,
    quiet: bool,
    time_budget: Option<f64>,
    checkpoint: Option<String>,
    checkpoint_every: u32,
    resume: Option<String>,
    crash_after: Option<u64>,
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
    eprintln!("{}", moat::usage_text(include_str!("moat-tune.rs")));
    exit(2)
}

/// `Ok`'s value, or print the error and exit with `code`: 2 for input the
/// user got wrong, 1 for what went wrong underneath a valid run.
fn or_die<T, E: std::fmt::Display>(result: Result<T, E>, code: i32) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(code)
    })
}

/// A flag's numeric value, or the usage text.
fn number<T: std::str::FromStr>(v: String) -> T {
    v.parse().unwrap_or_else(|_| usage())
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        fw: Framework::new(MachineDesc::westmere()),
        kernel: Kernel::Mm,
        file: None,
        size: None,
        emit_c: None,
        emit_param_c: None,
        emit_json: None,
        quiet: false,
        time_budget: None,
        checkpoint: None,
        checkpoint_every: 1,
        resume: None,
        crash_after: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2)
            })
        };
        let fw = &mut opts.fw;
        match arg.as_str() {
            "--kernel" => opts.kernel = or_die(value("--kernel").parse::<Kernel>(), 2),
            "--machine" => fw.machine = or_die(MachineDesc::named(&value("--machine")), 2),
            "--file" => opts.file = Some(value("--file")),
            "--size" => opts.size = Some(number(value("--size"))),
            "--strategy" => fw.strategy = or_die(value("--strategy").parse::<StrategyKind>(), 2),
            "--budget" => fw.budget = Some(number(value("--budget"))),
            "--archive" => fw.archive = Some(value("--archive").into()),
            "--warm-start" => fw.warm_start = true,
            "--surrogate" => fw.surrogate = true,
            "--seed" => fw.tuner_params.seed = number(value("--seed")),
            "--generations" => fw.tuner_params.max_generations = number(value("--generations")),
            "--energy" => fw.objectives.push(Objective::Energy),
            "--backends" => {
                fw.backends = value("--backends")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--emit-c" => opts.emit_c = Some(value("--emit-c")),
            "--emit-param-c" => opts.emit_param_c = Some(value("--emit-param-c")),
            "--emit-json" => opts.emit_json = Some(value("--emit-json")),
            "--quiet" => opts.quiet = true,
            "--time-budget" => opts.time_budget = Some(number(value("--time-budget"))),
            "--checkpoint" => opts.checkpoint = Some(value("--checkpoint")),
            "--checkpoint-every" => opts.checkpoint_every = number(value("--checkpoint-every")),
            "--resume" => opts.resume = Some(value("--resume")),
            "--crash-after" => opts.crash_after = Some(number(value("--crash-after"))),
            "--trace" => fw.trace = Some(value("--trace").into()),
            "--metrics" => fw.metrics = Some(value("--metrics").into()),
            "--timestamps" => {
                let v = value("--timestamps");
                fw.timestamps = moat::TimestampMode::parse(&v).unwrap_or_else(|| {
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
    let clash = if opts.resume.is_some() && opts.fw.warm_start {
        Err("--resume cannot be combined with --warm-start")
    } else if opts.resume.is_some() && opts.fw.surrogate {
        Err("--resume cannot be combined with --surrogate (the resumed run was unscreened)")
    } else if opts.fw.warm_start && opts.fw.archive.is_none() {
        Err("--warm-start requires --archive <DIR>")
    } else {
        Ok(())
    };
    or_die(clash, 2);
    // A checkpoint pins the strategy (and remaining budget) of the run it
    // came from; adopt it before the tuner is built.
    let resume: Option<SessionCheckpoint> = opts.resume.as_deref().map(|path| {
        let ckpt = or_die(CheckpointStore::load(path), 1);
        let strategy = ckpt.strategy.parse::<StrategyKind>();
        opts.fw.strategy = or_die(strategy.map_err(|e| format!("{path}: checkpoint {e}")), 1);
        ckpt
    });
    let prepared = match &opts.file {
        Some(path) => {
            let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
            let region =
                moat::ir::parse_region(&or_die(src, 1)).map_err(|e| format!("{path}: {e}"));
            opts.fw.prepare(or_die(region, 1))
        }
        None => opts.fw.prepare_kernel(opts.kernel, opts.size),
    };
    let prepared = or_die(prepared, 2);
    // The run records on a live handle only when a trace or metrics file
    // was requested; both files are written once it returns.
    let fw = &opts.fw;
    let written = moat::run_observed(
        fw.trace.as_deref(),
        fw.metrics.as_deref(),
        fw.timestamps,
        |obs| tune(&opts, &prepared, resume, obs),
    );
    or_die(written, 1);
    for path in [&fw.trace, &fw.metrics].into_iter().flatten() {
        println!("wrote {}", path.display());
    }
}

/// The run and emit stages under this host's wiring, and the summary on
/// stdout.
fn tune(opts: &Opts, p: &Prepared, resume: Option<SessionCheckpoint>, obs: &Obs) {
    let fw = &opts.fw;
    let mut sink = opts.checkpoint.as_ref().map(|path| CrashingSink {
        store: or_die(CheckpointStore::create(path), 1).with_obs(obs.clone()),
        crash_after: opts.crash_after,
        saved: 0,
    });

    let hooks = Hooks {
        session: SessionHooks {
            time_budget: opts.time_budget.map(Duration::from_secs_f64),
            checkpoint: sink.as_mut().map(|s| (s as _, opts.checkpoint_every)),
            resume,
            ..Default::default()
        },
        wrap: None,
    };
    let out = or_die(fw.run(p, hooks, obs), 1);
    let result = &out.report;
    if let Some(e) = sink.as_ref().and_then(|s| s.store.last_error()) {
        eprintln!("warning: {e}");
    }
    let table = fw.table(p, &result.front);

    let warm_note = match &out.warm_start {
        Some((WarmStartSource::Exact, hints)) => format!(" warm-start=exact({hints} hints)"),
        Some((WarmStartSource::Transfer { machine, distance }, seeds)) => {
            format!(" warm-start=transfer({machine}, d={distance:.2}, {seeds} seeds)")
        }
        None if fw.warm_start => " warm-start=cold".into(),
        None => String::new(),
    };
    // A zero budget yields an empty front; objective_bounds rejects that.
    let hv = if result.front.points().is_empty() {
        0.0
    } else {
        let (ideal, nadir) = objective_bounds(result.front.points());
        hypervolume(&normalize_front(result.front.points(), &ideal, &nadir))
    };
    println!(
        "tuned {} on {} via {}: E={} |S|={} iterations={} stop={} self-hv={:.3}{}",
        p.region.name,
        fw.machine.name,
        fw.strategy,
        result.evaluations,
        table.len(),
        result.iterations,
        result.stop.name(),
        hv,
        warm_note
    );
    if let Some((primed, stats)) = &out.surrogate {
        println!(
            "surrogate stats: surrogate=on(ratio={}, primed={primed}) requested={} forwarded={} screened={} explored={} mae={:.1}% rank-corr={:.3}",
            ScreeningPolicy::default().screen_ratio,
            stats.requested,
            stats.forwarded,
            stats.screened,
            stats.explored,
            stats.mae_pct(),
            stats.mean_rank_corr(),
        );
    }
    if !opts.quiet {
        println!(
            "\n{:<48}  {}",
            "configuration",
            fw.objective_names().join("  ")
        );
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
        if !fw.backends.is_empty() {
            println!();
            print!("{}", moat::report::LossMatrix::from_table(&table).render());
        }
    }

    if let Some(path) = &opts.emit_json {
        std::fs::write(path, table.to_json()).expect("write JSON");
        println!("wrote {path}");
    }
    if let Some(path) = &opts.emit_c {
        let (_variants, source_c) = or_die(fw.emit(p, &table), 1);
        std::fs::write(path, source_c).expect("write C");
        println!("wrote {path}");
    }
    if let Some(path) = &opts.emit_param_c {
        match emit_parameterized_c(&p.region, p.skeleton(), &table) {
            Ok(code) => {
                std::fs::write(path, code).expect("write parameterized C");
                println!("wrote {path}");
            }
            Err(e) => eprintln!("parameterized emission unavailable: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    /// Every flag `parse_args` matches is documented, and every documented
    /// flag is matched: a flag whose arm is added without a usage line, a
    /// usage line its deleted arm left behind, or a usage block the fences
    /// no longer bracket, fails here.
    #[test]
    fn every_flag_arm_appears_in_the_usage_text() {
        let source = include_str!("moat-tune.rs");
        let usage = moat::usage_text(source);
        assert!(usage.starts_with("moat-tune [OPTIONS]"), "{usage}");
        let start = source.find("fn parse_args()").expect("parse_args exists");
        let end = start + source[start..].find("\nfn main()").expect("main follows");
        let mut arms = BTreeSet::new();
        for line in source[start..end].lines().filter(|l| l.contains("=>")) {
            let Some(flag) = line.trim().strip_prefix("\"--") else {
                continue;
            };
            let flag = format!("--{}", flag.split('"').next().unwrap());
            assert!(
                usage.contains(&format!("  {flag} ")),
                "{flag} missing from usage"
            );
            arms.insert(flag);
        }
        assert!(arms.len() >= 26, "only {} flag arms found", arms.len());
        for line in usage.lines().map(str::trim_start) {
            let Some(flag) = line.split(' ').next().filter(|f| f.starts_with("--")) else {
                continue;
            };
            assert!(arms.contains(flag), "{flag} documented but not parsed");
        }
    }
}
