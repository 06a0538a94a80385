//! `runtime-invoke`: the per-invocation cost of runtime version selection,
//! in-process. Two `NativeRegion`s (mm at n = 128, jacobi-2d at n = 512)
//! built from really tuned version tables run real kernel bodies on a
//! worker pool; one op is a rotation of eight invocations, four policies on
//! each region. Real bodies on purpose: an empty body times the scheduler's
//! thread placement, not the runtime.

use crate::common::{
    cpu_seconds, derive, finish_traced, median, ms, ns_per_call, repeat_setup, reset_peak_rss,
    self_peak_rss_mb, set_end_to_end, stretches, Ctx, Ledger, RunResult, Who,
};
use crate::host::{at_nominal_speed, SpeedProbe, PROBE_NOMINAL_MS};
use crate::trace::{Trace, Tracer};
use moat::kernels::data::{max_abs_diff, seeded_vec};
use moat::kernels::native::{jacobi2d_naive, jacobi2d_tiled, mm_naive, mm_tiled};
use moat::multiversion::{NativeRegion, VersionImpl};
use moat::runtime::measure;
use moat::{
    DegradingSelector, Framework, HealthPolicy, Kernel, MachineDesc, Pool, SelectionContext,
    SelectionPolicy, VersionRegistry, VersionTable,
};
use std::time::Instant;

const MM_N: usize = 128;
const JACOBI_N: usize = 512;
/// Outputs must match the naive kernel to this absolute tolerance.
const TOLERANCE: f64 = 1e-9;

/// Input, output and reference output of one kernel.
struct Data {
    a: Vec<f64>,
    b: Vec<f64>,
    out: Vec<f64>,
    reference: Vec<f64>,
}

/// The four ways a rotation picks a version.
enum Pick {
    /// The paper's user-weight policy, equal weights.
    Weighted,
    /// Fastest version fitting the given number of available threads.
    Fit(usize),
    /// The fault-aware selector over the weighted policy.
    Degrading,
}

const ROTATION: [Pick; 4] = [Pick::Weighted, Pick::Fit(1), Pick::Fit(2), Pick::Degrading];

struct Tuned<'a> {
    name: &'static str,
    region: NativeRegion<'a, Data>,
    degrading: DegradingSelector,
    data: Data,
}

fn weighted() -> SelectionPolicy {
    SelectionPolicy::WeightedSum {
        weights: vec![0.5, 0.5],
    }
}

/// Tune `kernel` at size `n` on the Westmere model, as `moat-tune` would.
/// The tuner seed is pinned: the tile sizes of the selected versions decide
/// how long a kernel body runs, so a table per workload seed would measure
/// the luck of the draw (±10 % between seeds), not the runtime. The
/// workload seed generates the input data and the order of the rotation.
fn tuned_table(kernel: Kernel, n: usize) -> Result<VersionTable, String> {
    let mut fw = Framework::new(MachineDesc::westmere());
    fw.tuner_params.seed = 42;
    Ok(fw.tune(kernel.region(n as i64))?.table)
}

fn mm_impls<'a>(pool: &'a Pool, table: &VersionTable) -> Vec<VersionImpl<'a, Data>> {
    table
        .versions
        .iter()
        .map(|v| {
            // Tiles clamped to n/2, the bound the analyzer gives the space.
            let tile = |i: usize| (v.values[i].max(1) as usize).min(MM_N / 2);
            let (tiles, threads) = ((tile(0), tile(1), tile(2)), v.threads);
            Box::new(move |d: &mut Data| {
                // mm accumulates into C, so every invocation starts from 0.
                d.out.fill(0.0);
                mm_tiled(pool, MM_N, &d.a, &d.b, &mut d.out, tiles, threads)
            }) as VersionImpl<'a, Data>
        })
        .collect()
}

fn jacobi_impls<'a>(pool: &'a Pool, table: &VersionTable) -> Vec<VersionImpl<'a, Data>> {
    table
        .versions
        .iter()
        .map(|v| {
            let tile = |i: usize| (v.values[i].max(1) as usize).min(JACOBI_N / 2);
            let (tiles, threads) = ((tile(0), tile(1)), v.threads);
            Box::new(move |d: &mut Data| {
                jacobi2d_tiled(pool, JACOBI_N, &d.a, &mut d.out, tiles, threads)
            }) as VersionImpl<'a, Data>
        })
        .collect()
}

/// Build one kernel's region and check every version against the naive
/// kernel before anything is timed.
fn build<'a>(
    name: &'static str,
    table: &VersionTable,
    impls: Vec<VersionImpl<'a, Data>>,
    mut data: Data,
) -> Result<Tuned<'a>, String> {
    let region = NativeRegion::new(table, impls);
    for (i, version) in region.impls.iter().enumerate() {
        data.out.fill(0.0);
        version(&mut data);
        let diff = max_abs_diff(&data.out, &data.reference);
        if diff > TOLERANCE {
            return Err(format!(
                "{name} version {i} ({}) is off the naive kernel by {diff:e}",
                region.meta[i].label
            ));
        }
    }
    let mut registry = VersionRegistry::new(weighted());
    registry.register(name, table.runtime_meta());
    // The tables predict times on the paper's 40-core machine, not on this
    // box, so latency demotion is switched off; the selector still pays
    // its bookkeeping on every invocation.
    let health = HealthPolicy {
        latency_ratio_limit: f64::INFINITY,
        ..HealthPolicy::default()
    };
    let degrading = registry
        .degrading(name, health)
        .ok_or("region not registered")?;
    Ok(Tuned {
        name,
        region,
        degrading,
        data,
    })
}

/// One invocation. A plain policy, untraced, goes through
/// `NativeRegion::invoke`; traced — and always for the degrading selector,
/// which `invoke` does not take — the same public calls are made by hand,
/// each in a span. Returns the wall in ms, or why the output is wrong.
fn invoke(k: &mut Tuned, pick: &Pick, op: u64, tr: &mut Tracer) -> Result<f64, String> {
    let ctx = SelectionContext {
        available_threads: match pick {
            Pick::Fit(n) => Some(*n),
            _ => None,
        },
    };
    let policy = match pick {
        Pick::Fit(_) => SelectionPolicy::FitThreads,
        _ => weighted(),
    };
    let start = Instant::now();
    let root = tr.begin("runtime.invoke", op);
    let degrading = matches!(pick, Pick::Degrading);
    let picked = if !degrading && !tr.enabled() {
        k.region.invoke(&policy, &ctx, &mut k.data)
    } else {
        let idx = tr.span("runtime.select", op, || match pick {
            Pick::Degrading => k.degrading.select(&ctx),
            _ => policy.select(&k.region.meta, &ctx),
        });
        idx.inspect(|&idx| {
            let ((), elapsed) = tr.span("runtime.kernel", op, || {
                measure(|| (k.region.impls[idx])(&mut k.data))
            });
            tr.span("runtime.record", op, || {
                if degrading {
                    k.degrading.record_success(idx, elapsed);
                }
                k.region.stats.record(idx, elapsed);
            });
        })
    };
    tr.end(root);
    let wall = ms(start.elapsed());
    let idx = picked.ok_or("the policy selected no version")?;
    let diff = max_abs_diff(&k.data.out, &k.data.reference);
    if diff > TOLERANCE {
        return Err(format!(
            "{} version {idx} is off the naive kernel by {diff:e}",
            k.name
        ));
    }
    Ok(wall)
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    reset_peak_rss();
    let pool = Pool::new(ctx.nproc);
    let tables = [
        tuned_table(Kernel::Mm, MM_N)?,
        tuned_table(Kernel::Jacobi2d, JACOBI_N)?,
    ];
    // The rotation starts at a seed-chosen policy.
    let rotation: Vec<&Pick> = (0..ROTATION.len())
        .map(|i| &ROTATION[(i + ctx.seed as usize) % ROTATION.len()])
        .collect();
    let origin = Instant::now();
    // Set-up: inputs, naive reference outputs, the two regions with every
    // version checked, registry and degrading selectors, one warm rotation.
    let (mut kernels, setup) = repeat_setup(
        ctx,
        || {
            let data_seed = |i: u64| derive(ctx.seed, 0xDA7A, i);
            let (a, b) = (
                seeded_vec(MM_N * MM_N, data_seed(1)),
                seeded_vec(MM_N * MM_N, data_seed(2)),
            );
            let mut reference = vec![0.0; MM_N * MM_N];
            mm_naive(MM_N, &a, &b, &mut reference);
            let mm = Data {
                a,
                b,
                out: vec![0.0; MM_N * MM_N],
                reference,
            };
            let a = seeded_vec(JACOBI_N * JACOBI_N, data_seed(3));
            let mut reference = vec![0.0; JACOBI_N * JACOBI_N];
            jacobi2d_naive(JACOBI_N, &a, &mut reference);
            let jacobi = Data {
                a,
                b: Vec::new(),
                out: vec![0.0; JACOBI_N * JACOBI_N],
                reference,
            };
            let mut kernels = [
                build("mm", &tables[0], mm_impls(&pool, &tables[0]), mm)?,
                build(
                    "jacobi-2d",
                    &tables[1],
                    jacobi_impls(&pool, &tables[1]),
                    jacobi,
                )?,
            ];
            let mut off = Tracer::new(false, origin);
            for k in &mut kernels {
                for pick in &rotation {
                    invoke(k, pick, 0, &mut off)?;
                }
            }
            Ok(kernels)
        },
        drop,
    )?;

    let mut result = RunResult {
        correct: true,
        ..Default::default()
    };
    let mut tracer = Tracer::new(false, origin);
    let (mut op_ms, mut on_ms, mut off_ms) = (Vec::new(), Vec::new(), Vec::new());
    // The host's speed after every op of an untraced run (see `host`); the
    // CPU time is taken around the ops so that it leaves the probe out.
    let mut probe = SpeedProbe::new();
    let mut probe_ms = Vec::new();
    let mut cpu_s = 0.0;
    let deadline = ctx.deadline(Instant::now());
    let mut round = 0u64;
    while round < ctx.min_rounds(2) || Instant::now() < deadline {
        let traced = ctx.traced && round % 2 == 1;
        tracer.set_enabled(traced);
        result.attempted += 1;
        let mut wall = 0.0;
        let mut failure = None;
        let cpu_start = cpu_seconds(Who::Myself);
        for k in &mut kernels {
            for pick in &rotation {
                match invoke(k, pick, round, &mut tracer) {
                    Ok(ms) => wall += ms,
                    Err(why) => failure = Some(why),
                }
            }
        }
        cpu_s += cpu_seconds(Who::Myself) - cpu_start;
        match failure {
            None => {
                op_ms.push(wall);
                if !ctx.traced {
                    probe_ms.push(probe.sample());
                } else if traced {
                    on_ms.push(wall)
                } else {
                    off_ms.push(wall)
                }
            }
            Some(why) => {
                result.failed += 1;
                result.note(format!("runtime-invoke round {round}: {why}"));
            }
        }
        round += 1;
    }
    result.correct &= result.failed == 0;

    if ctx.traced {
        let mut ledger = Ledger::default();
        if !on_ms.is_empty() && !off_ms.is_empty() {
            ledger.push(
                "bench.trace_overhead_pct",
                100.0 * (median(&on_ms) / median(&off_ms) - 1.0),
            );
        }
        // ns per selection on the mm table, each policy on its own.
        let mm = &kernels[0];
        let none = SelectionContext::default();
        let one = SelectionContext {
            available_threads: Some(1),
        };
        let policy = weighted();
        ledger.push(
            "runtime.select_weighted_ns",
            ns_per_call(5000, || policy.select(&mm.region.meta, &none)),
        );
        ledger.push(
            "runtime.select_fit_ns",
            ns_per_call(5000, || {
                SelectionPolicy::FitThreads.select(&mm.region.meta, &one)
            }),
        );
        ledger.push(
            "runtime.select_degrading_ns",
            ns_per_call(5000, || mm.degrading.select(&none)),
        );
        let mut registry = VersionRegistry::new(weighted());
        registry.register("mm", mm.region.meta.clone());
        ledger.push(
            "runtime.registry_lookup_ns",
            ns_per_call(5000, || registry.select("mm", &none).map(|(i, _)| i)),
        );
        // An empty body on a team of two: what the pool charges to fan a
        // kernel out and join it.
        let dispatch: Vec<f64> = (0..500)
            .map(|_| ns_per_call(1, || pool.parallel_for(2, 2, &|_| {})) / 1e3)
            .collect();
        ledger.push_all("runtime.dispatch_us", &dispatch);
        let mut trace = Trace::default();
        trace.absorb(tracer);
        ledger.push_all(
            "runtime.kernel_self_us",
            &trace.durations("runtime.kernel", 1e-3),
        );
        finish_traced(ctx, "runtime-invoke", &ledger, &trace, &mut result)?;
    } else {
        // Every time at nominal host speed, the CPU time by the same factor
        // as the wall-clock time; stretches of sixteen rotations.
        let measured_ms: f64 = op_ms.iter().sum();
        let op_ms = at_nominal_speed(&op_ms, &probe_ms);
        eprintln!(
            "[runtime-invoke] the speed probe took {:.4} ms (median; nominal {PROBE_NOMINAL_MS})",
            median(&probe_ms)
        );
        let cpu_s = cpu_s * op_ms.iter().sum::<f64>() / measured_ms.max(1e-9);
        let per_op: Vec<(f64, f64)> = op_ms.iter().map(|ms| (1.0, ms / 1e3)).collect();
        set_end_to_end(
            &mut result.values,
            setup,
            &stretches(&per_op, 16),
            cpu_s,
            &op_ms,
            self_peak_rss_mb(),
        );
    }
    Ok(result)
}
