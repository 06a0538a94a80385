//! `moat-benchmark` — the one benchmark of the moat workspace.
//!
//! ```text
//! moat-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last stdout line
//! moat-benchmark [--seed N] [--workload W] [--smoke]             every workload, untraced then traced
//! moat-benchmark compare A.json B.json                           apply the bounds to two result files
//! ```
//!
//! Started by `benchmark/run.sh`, which builds `moat-tune`, `moat-serve`
//! and this binary first. See `benchmark/README.md`.

mod cachesim;
mod common;
mod host;
mod manifest;
mod report;
mod runtime;
mod serve;
mod trace;
mod tune;

use common::{Ctx, RunResult};
use manifest::Manifest;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn dispatch(name: &str, ctx: &Ctx) -> Result<RunResult, String> {
    match name {
        "tune-cold" => tune::run_cold(ctx),
        "tune-persist" => tune::run_persist(ctx),
        "serve-cold" => serve::run(ctx, serve::Mix::Cold),
        "serve-dedupe" => serve::run(ctx, serve::Mix::Dedupe),
        "cachesim-validate" => cachesim::run(ctx),
        "runtime-invoke" => runtime::run(ctx),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// One run. An `Err` is a harness failure (missing binary, daemon that
/// never came up): no result is printed and the exit code is non-zero. A
/// run whose timings are compared (untraced, not a smoke run) and that the
/// hypervisor stole from is measured again while the budget of `host` lasts.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<RunResult, String> {
    let mut budget = host::RetryBudget::new(ctx);
    loop {
        let (ticks, start) = (host::CpuTicks::now(), Instant::now());
        let result = dispatch(name, ctx)?;
        let stolen = ticks.and_then(|t| t.steal_share_since()).unwrap_or(0.0);
        let compared = !ctx.traced && !ctx.smoke && result.correct;
        let again = compared && budget.repeat(stolen, start.elapsed().as_secs_f64());
        eprintln!(
            "[{name}] the host withheld {:.1} % of the CPU time asked for{}",
            100.0 * stolen,
            if again { ": measuring again" } else { "" }
        );
        if !again {
            return Ok(result);
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                out.seconds = Some(value()?.parse().map_err(|_| "--seconds needs a number")?)
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // run.sh exports both; the fallbacks serve a binary started by hand.
    let bench_dir = std::env::var_os("MOAT_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let bin_dir = match std::env::var_os("MOAT_BENCH_BIN_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .ok_or("cannot locate the built binaries")?,
    };
    let manifest = Manifest::load(&bench_dir.join("..").join("BENCHMARK.json"))?;
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("usage: compare A.json B.json".into());
        };
        return report::compare(&manifest, a.as_ref(), b.as_ref());
    }
    let args = parse_args(&argv)?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(manifest.run_seconds),
        traced: false,
        smoke: args.smoke,
        bin_dir,
        out_dir: bench_dir.join("out"),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    for bin in ["moat-tune", "moat-serve"] {
        if !ctx.bin(bin).is_file() {
            return Err(format!(
                "{} is missing: start through benchmark/run.sh",
                ctx.bin(bin).display()
            ));
        }
    }
    match args.trace {
        Some(traced) => {
            let name = args.workload.ok_or("--trace needs --workload")?;
            ctx.traced = traced;
            let result = run_workload(&name, &ctx)?;
            report::print_contract_line(&manifest, &name, traced, &result)
        }
        None => report::run_all(&manifest, ctx, args.workload.as_deref()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("moat-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
