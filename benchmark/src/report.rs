//! Printing: the one result line the driver reads, the all-workloads
//! table with its result file, and `compare`.

use crate::common::{Ctx, RunResult, Sample};
use crate::manifest::{lookup, number, Manifest, MetricDef};
use serde::Value;
use std::path::Path;
use std::process::Command;

/// The metrics whose value depends only on the seed: `compare` requires
/// them to repeat exactly.
const DETERMINISTIC: [&str; 2] = ["evals_per_run_mean", "front_hv_mean"];

fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Every metric of `defs` with the run's value, 0 for a layer the workload
/// left idle. A value under a name the manifest does not list, or a
/// non-finite one, is a bug in the harness and fails the run.
fn collect<'a>(
    manifest: &Manifest,
    defs: &'a [MetricDef],
    result: &RunResult,
) -> Result<Vec<(&'a MetricDef, Sample)>, String> {
    for (name, sample) in &result.values.0 {
        if !manifest.knows(name) {
            return Err(format!("metric '{name}' is not listed in BENCHMARK.json"));
        }
        if !sample.value.is_finite() {
            return Err(format!("metric '{name}' is not finite"));
        }
    }
    Ok(defs
        .iter()
        .map(|def| {
            let sample = result.values.0.get(&def.name).copied();
            (def, sample.unwrap_or(Sample { value: 0.0, n: 0 }))
        })
        .collect())
}

fn print_notes(workload: &str, result: &RunResult) {
    for note in &result.notes {
        eprintln!("[{workload}] check failed: {note}");
    }
}

/// The driver's contract: one JSON object as the last line of stdout, with
/// every end-to-end metric of an untraced run or every per-layer metric of
/// a traced one.
pub fn print_contract_line(
    manifest: &Manifest,
    workload: &str,
    traced: bool,
    result: &RunResult,
) -> Result<bool, String> {
    print_notes(workload, result);
    let defs = if traced {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let metrics = collect(manifest, defs, result)?;
    if !traced {
        if let Some((def, _)) = metrics.iter().find(|(_, s)| s.n == 0) {
            return Err(format!(
                "{workload} did not report end-to-end metric '{}'",
                def.name
            ));
        }
    }
    let metrics: Vec<(String, Value)> = metrics
        .into_iter()
        .map(|(def, s)| {
            (
                def.name.clone(),
                map(vec![
                    ("value", Value::Float(s.value)),
                    ("unit", str_value(&def.unit)),
                ]),
            )
        })
        .collect();
    let line = map(vec![
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::UInt(result.attempted)),
        ("failed", Value::UInt(result.failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    // A result was printed; whether it is correct is in the line itself.
    Ok(true)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Whether `path` lives on a tmpfs, from `/proc/mounts` (longest mount
/// point that prefixes the path wins).
fn on_tmpfs(path: &Path) -> bool {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.nth(1)?, f.next()?))
        })
        .filter(|(point, _)| path.starts_with(point))
        .max_by_key(|(point, _)| point.len())
        .is_some_and(|(_, fs)| fs == "tmpfs")
}

fn metrics_value(rows: &[(&MetricDef, Sample)]) -> Value {
    Value::Map(
        rows.iter()
            .map(|(def, s)| {
                let row = map(vec![
                    ("value", Value::Float(s.value)),
                    ("unit", str_value(&def.unit)),
                    ("n", Value::UInt(s.n)),
                ]);
                (def.name.clone(), row)
            })
            .collect(),
    )
}

fn print_rows(workload: &str, kind: &str, rows: &[(&MetricDef, Sample)]) {
    for (def, s) in rows.iter().filter(|(_, s)| s.n > 0) {
        println!(
            "{workload:<18} {kind:<10} {:<38} {:>16.6} {:<8} n={}",
            def.name, s.value, def.unit, s.n
        );
    }
}

/// Every workload (or the one named), untraced for the end-to-end metrics
/// and then traced for the per-layer ledger; prints each metric by name
/// with unit and sample count and writes `out/results-<seed>.json`.
pub fn run_all(manifest: &Manifest, mut ctx: Ctx, only: Option<&str>) -> Result<bool, String> {
    if ctx.smoke {
        // A twentieth of the work, same shapes and checks.
        ctx.seconds /= 20.0;
        println!(
            "# smoke run: {} s per workload, numbers are not comparable",
            ctx.seconds
        );
    }
    let mut ok = true;
    let mut workloads = Vec::new();
    for name in manifest
        .workloads
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.as_str()))
    {
        ctx.traced = false;
        let plain = crate::run_workload(name, &ctx)?;
        print_notes(name, &plain);
        let end_to_end = collect(manifest, &manifest.end_to_end, &plain)?;
        print_rows(name, "end-to-end", &end_to_end);
        let failed_share = plain.failed as f64 / plain.attempted.max(1) as f64;
        println!(
            "{name:<18} {:<10} {:<38} {failed_share:>16.6} {:<8} n={}",
            "end-to-end", "failed_ops_share", "share", plain.attempted
        );

        ctx.traced = true;
        let traced = crate::run_workload(name, &ctx)?;
        print_notes(name, &traced);
        let per_layer = collect(manifest, &manifest.per_layer, &traced)?;
        print_rows(name, "per-layer", &per_layer);
        for (layer, share) in &traced.top_layers {
            println!(
                "{name:<18} {:<10} {layer:<38} {share:>16.6} {:<8}",
                "top-layer", "share"
            );
        }
        ok &= plain.correct && traced.correct;
        workloads.push((
            name.clone(),
            map(vec![
                ("correct", Value::Bool(plain.correct && traced.correct)),
                ("attempted", Value::UInt(plain.attempted)),
                ("failed", Value::UInt(plain.failed)),
                ("end_to_end", metrics_value(&end_to_end)),
                ("per_layer", metrics_value(&per_layer)),
                (
                    "top_layers",
                    Value::Seq(
                        traced
                            .top_layers
                            .iter()
                            .map(|(layer, share)| {
                                map(vec![
                                    ("layer", str_value(layer)),
                                    ("share", Value::Float(*share)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if workloads.is_empty() {
        return Err(format!("no workload named {only:?} in BENCHMARK.json"));
    }
    let results = map(vec![
        ("seed", Value::UInt(ctx.seed)),
        ("seconds", Value::Float(ctx.seconds)),
        ("comparable", Value::Bool(!ctx.smoke)),
        (
            "git_commit",
            str_value(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", str_value(&command_line("rustc", &["--version"]))),
        ("nproc", Value::UInt(ctx.nproc as u64)),
        ("state_on_tmpfs", Value::Bool(on_tmpfs(&ctx.out_dir))),
        ("workloads", Value::Map(workloads)),
    ]);
    let path = ctx.out_dir.join(format!("results-{}.json", ctx.seed));
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    println!(
        "# {}",
        if ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn number_at(file: &Value, path: &[&str]) -> Option<f64> {
    lookup(file, path).and_then(number)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Apply each end-to-end metric's bound to two result files (A is the
/// baseline), one row per (workload, metric). Deterministic metrics must be
/// exactly equal, and no workload may fail more ops than in A.
pub fn compare(manifest: &Manifest, a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let same_seed = number_at(&a, &["seed"]) == number_at(&b, &["seed"]);
    if !same_seed {
        println!("# different seeds: the deterministic metrics are not compared");
    }
    let mut ok = true;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for workload in &manifest.workloads {
        let value = |file: &Value, kind: &str, metric: &str| {
            number_at(file, &["workloads", workload, kind, metric, "value"])
        };
        for def in &manifest.end_to_end {
            let (Some(va), Some(vb)) = (
                value(&a, "end_to_end", &def.name),
                value(&b, "end_to_end", &def.name),
            ) else {
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            // Positive = worse, as a share of the baseline.
            let worse = if def.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let breach = worse > bound;
            ok &= !breach;
            println!(
                "{workload:<18} {:<22} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}%  {}",
                def.name,
                100.0 * (vb - va) / va,
                100.0 * bound,
                if breach { "BREACH" } else { "ok" }
            );
        }
        for name in DETERMINISTIC {
            let (Some(va), Some(vb)) = (value(&a, "per_layer", name), value(&b, "per_layer", name))
            else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue; // the workload has no tuning runs
            }
            let breach = same_seed && va != vb;
            ok &= !breach;
            println!(
                "{workload:<18} {name:<22} {va:>14.6} {vb:>14.6} {:>9} {:>7}  {}",
                "",
                "exact",
                if breach { "INEXACT" } else { "ok" }
            );
        }
        let failed =
            |file: &Value| number_at(file, &["workloads", workload, "failed"]).unwrap_or(0.0);
        if failed(&b) > failed(&a) {
            ok = false;
            println!(
                "{workload:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  BREACH",
                "failed",
                failed(&a),
                failed(&b),
                "",
                "none"
            );
        }
    }
    println!(
        "# {}",
        if ok {
            "within every bound"
        } else {
            "REGRESSION"
        }
    );
    Ok(ok)
}
