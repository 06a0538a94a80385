//! Evaluation-throughput baseline: how fast is the tuning hot loop?
//!
//! Three measurements, emitted as JSON (`BENCH_eval.json` via
//! `scripts/bench.sh`) so the numbers are tracked across PRs:
//!
//! 1. **Cache simulation**: simulated accesses/second of `simulate_nest`
//!    on a parallel tiled mm nest over a Westmere-like hierarchy. (Its
//!    exactness is `tests/streaming_equivalence.rs`'s job.)
//! 2. **Analytic evaluation**: objective evaluations/second of the
//!    `SimEvaluator` cost-model path (the optimizer's actual inner loop).
//! 3. **End-to-end tuning**: wall-clock of a full RS-GDE3 run on
//!    mm/Westmere with default parameters.
//!
//! `--smoke` shrinks every instance to a few milliseconds for CI; the JSON
//! then reports `"smoke": true` and must not be committed as a baseline.

use moat::core::{BatchEval, Evaluator, RsGde3Params, RsGde3Tuner, TuningSession};
use moat::{Kernel, MachineDesc};
use moat_bench::Setup;
use moat_cachesim::{simulate_nest, CacheConfig, HierarchyConfig, MultiCoreHierarchy};
use moat_ir::transform;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct CachesimReport {
    n: i64,
    tile: i64,
    threads: usize,
    accesses: u64,
    streaming_s: f64,
    streaming_accesses_per_s: f64,
}

#[derive(Serialize)]
struct AnalyticReport {
    evals: usize,
    wall_s: f64,
    evals_per_s: f64,
}

#[derive(Serialize)]
struct BackendEvalReport {
    backend: &'static str,
    evals: usize,
    wall_s: f64,
    evals_per_s: f64,
}

#[derive(Serialize)]
struct TuningWallReport {
    strategy: &'static str,
    wall_s: f64,
    evaluations: u64,
    front_size: usize,
}

#[derive(Serialize)]
struct TracingOverheadReport {
    /// Wall-clock of the tuning run on a disabled obs handle (the
    /// instrumentation reduces to one relaxed atomic load per site).
    baseline_s: f64,
    /// Wall-clock of the identical run on a logical-mode handle.
    traced_s: f64,
    /// `(traced - baseline) / baseline`, percent. Target: < 2.
    overhead_pct: f64,
    /// Trace records the run produced.
    records: usize,
}

#[derive(Serialize)]
struct SurrogateOverheadReport {
    /// Wall-clock of the tuning run with no screen installed.
    baseline_s: f64,
    /// Wall-clock of the identical run with a `screen_ratio = 1.0` screen:
    /// batch feature extraction and online model training run on every
    /// batch, but every candidate is forwarded, so the run's outcome is
    /// byte-identical and the delta is pure screening overhead.
    screened_s: f64,
    /// `(screened - baseline) / baseline`, percent. Target: < 2.
    overhead_pct: f64,
}

#[derive(Serialize)]
struct BenchReport {
    smoke: bool,
    kernel: &'static str,
    machine: &'static str,
    cachesim: CachesimReport,
    analytic_eval: AnalyticReport,
    backend_eval: Vec<BackendEvalReport>,
    tuning: TuningWallReport,
    tracing: TracingOverheadReport,
    surrogate: SurrogateOverheadReport,
}

/// Westmere-like hierarchy (Table I): 32 KiB L1 + 256 KiB L2 private,
/// 12 MiB shared L3 (12288 sets — exercises the non-power-of-two set
/// indexing), stream prefetcher of depth 2.
fn hierarchy(cores: usize) -> MultiCoreHierarchy {
    MultiCoreHierarchy::new(HierarchyConfig {
        private_levels: vec![
            CacheConfig::new(32 * 1024, 8, 64),
            CacheConfig::new(256 * 1024, 8, 64),
        ],
        shared_level: CacheConfig::new(12 * 1024 * 1024, 16, 64),
        cores_per_chip: cores,
        cores,
        prefetch_depth: 2,
    })
}

/// Throughput of one roster backend's evaluator on a shared probe config
/// (the per-backend cost of the `config × backend` product space).
fn backend_throughput<E: Evaluator>(
    backend: &'static str,
    ev: &E,
    cfg: &[i64],
    evals: usize,
) -> BackendEvalReport {
    let cfg = cfg.to_vec();
    assert!(ev.evaluate(&cfg).is_some(), "probe config must be feasible");
    let t = Instant::now();
    for _ in 0..evals {
        black_box(ev.evaluate(black_box(&cfg)));
    }
    let wall_s = t.elapsed().as_secs_f64();
    BackendEvalReport {
        backend,
        evals,
        wall_s,
        evals_per_s: evals as f64 / wall_s,
    }
}

/// Minimum wall-clock over `reps` runs of `f` (first run included: the
/// minimum discards warm-up noise by construction).
fn best_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut out = 0;
    for _ in 0..reps {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, out)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (n, tile, reps, evals, tuning_generations) = if smoke {
        (24i64, 8u64, 1usize, 200usize, 3u32)
    } else {
        (96, 24, 3, 2000, u32::MAX)
    };
    let threads = 4usize;

    // --- 1. cache simulation ---
    let region = Kernel::Mm.region(n);
    let tiled = transform::tile(&region.nest, 3, &[tile, tile, tile]).expect("tileable");
    let par = transform::collapse_and_parallelize(&tiled, 2, threads).expect("parallelizable");

    let mut h_stream = hierarchy(threads);
    let (streaming_s, streaming_accesses) = best_of(reps, || {
        h_stream.flush();
        simulate_nest(&region.arrays, &par, &mut h_stream)
    });
    let refs: u64 = par.body.iter().map(|s| s.accesses.len() as u64).sum();
    assert_eq!(
        streaming_accesses,
        (n * n * n) as u64 * refs,
        "access count diverged from the nest's"
    );

    // --- 2. analytic objective evaluation (the tuner's inner loop) ---
    let setup = Setup::new(Kernel::Mm, MachineDesc::westmere(), None);
    let ev = setup.evaluator();
    let cfg = vec![96, 128, 8, 10];
    assert!(ev.evaluate(&cfg).is_some(), "probe config must be feasible");
    let eval_t = Instant::now();
    for _ in 0..evals {
        black_box(ev.evaluate(black_box(&cfg)));
    }
    let eval_s = eval_t.elapsed().as_secs_f64();

    // --- 2b. per-backend evaluation throughput (the multi-backend axis) ---
    // One region analyzed with alternative skeletons so the `alt1` backend
    // exists; each roster backend's evaluator is timed on the same probe
    // config it would see inside a BackendSet product space.
    let mut alt_cfg =
        moat_ir::AnalyzerConfig::for_threads((1..=setup.machine.total_cores() as i64).collect());
    alt_cfg.alternatives = true;
    // Paper-size region (matching `setup.region`), NOT the smoke-shrunk
    // cachesim instance: the probe config must lie in the tile domains.
    let alt_region = moat_ir::analyze(Kernel::Mm.region(Kernel::Mm.info().paper_size), &alt_cfg)
        .expect("tileable");
    let unroll_ev =
        moat::FixedUnrollEvaluator::new(&alt_region, &alt_region.skeletons[0], &setup.model, 4);
    let alt_ev = moat::AltSkeletonEvaluator::new(&alt_region, &setup.model, 1);
    let backend_eval = vec![
        backend_throughput("model", &ev, &cfg, evals),
        backend_throughput("unroll4", &unroll_ev, &cfg, evals),
        backend_throughput("alt1", &alt_ev, &cfg, evals),
    ];

    // --- 3. end-to-end tuning wall-clock (RS-GDE3, mm/Westmere) ---
    let params = RsGde3Params {
        max_generations: tuning_generations.min(RsGde3Params::default().max_generations),
        ..RsGde3Params::default()
    };
    let tune_t = Instant::now();
    let mut session = TuningSession::new(setup.space.clone(), &ev).with_batch(BatchEval::default());
    let report = session.run(&RsGde3Tuner::new(params));
    let tuning_s = tune_t.elapsed().as_secs_f64();

    // --- 4. tracing overhead: the identical run on a live obs handle ---
    // On the default (disabled) handle every emit site is a single
    // branch; on a logical-mode handle the run must produce the same
    // result and stay within a few percent. Interleaved reps with a
    // paired-median estimate, or single-run jitter swamps the signal.
    // Paired medians: machine noise (scheduler, frequency drift) hits both
    // legs of a rep alike, so the median per-rep delta isolates the actual
    // instrumentation cost where a best-of-N floor comparison would report
    // whichever leg got the luckier quiet window.
    let median = |xs: &[f64]| {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let paired_delta_med = |first: &[f64], second: &[f64]| {
        let deltas: Vec<f64> = second.iter().zip(first).map(|(s, b)| s - b).collect();
        median(&deltas)
    };

    let tr_reps = if smoke { 3 } else { 25 };
    let run_tuning = |obs: moat::Obs| {
        let mut session = TuningSession::new(setup.space.clone(), &ev)
            .with_batch(BatchEval::default())
            .with_obs(obs);
        session.run(&RsGde3Tuner::new(params))
    };
    let mut tr_baselines = Vec::with_capacity(tr_reps);
    let mut tr_traceds = Vec::with_capacity(tr_reps);
    let mut records = 0;
    let mut traced_report = None;
    for rep in 0..tr_reps {
        // Swap leg order every rep so neither leg systematically runs
        // into the cache/branch state the other left behind.
        let legs: [bool; 2] = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in legs {
            if traced {
                let obs = moat::Obs::new(moat::TimestampMode::Logical);
                let t = Instant::now();
                traced_report = Some(run_tuning(obs.clone()));
                tr_traceds.push(t.elapsed().as_secs_f64());
                records = obs.drain().len();
            } else {
                let t = Instant::now();
                black_box(run_tuning(moat::Obs::default()));
                tr_baselines.push(t.elapsed().as_secs_f64());
            }
        }
    }
    let tr_baseline_med = median(&tr_baselines);
    let tr_delta_med = paired_delta_med(&tr_baselines, &tr_traceds);
    let traced_report = traced_report.expect("tr_reps > 0");
    assert_eq!(
        traced_report.evaluations, report.evaluations,
        "tracing changed the evaluation count"
    );
    assert_eq!(
        traced_report.front.points(),
        report.front.points(),
        "tracing changed the tuning outcome"
    );

    // --- 5. surrogate overhead: the identical run behind a full-open
    // screen (`screen_ratio = 1.0`). Feature extraction and online model
    // updates happen on every batch, but nothing is screened, so the
    // outcome must be byte-identical and the wall-clock delta is the cost
    // of the screening machinery itself.
    let run_screened = || {
        let features =
            moat::IrFeatures::new(setup.skeleton(), &setup.space, &setup.machine.features());
        let model = moat::core::Surrogate::new(moat::core::FeatureSource::dims(&features), 2);
        let policy = moat::core::ScreeningPolicy {
            screen_ratio: 1.0,
            ..Default::default()
        };
        let screen = moat::core::SurrogateScreen::new(Box::new(features), model, policy);
        let mut session = TuningSession::new(setup.space.clone(), &ev)
            .with_batch(BatchEval::default())
            .with_surrogate(screen);
        session.run(&RsGde3Tuner::new(params))
    };
    // Interleave the two legs and take best-of on each: alternating
    // absorbs slow drift (thermal, scheduler) that back-to-back loops
    // would attribute entirely to one leg.
    let sur_reps = if smoke { 3 } else { 75 };
    let mut sur_baselines = Vec::with_capacity(sur_reps);
    let mut sur_screeneds = Vec::with_capacity(sur_reps);
    let mut screened_report = None;
    for rep in 0..sur_reps {
        // Swap leg order every rep so neither leg systematically runs
        // into the cache/branch state the other left behind.
        let legs: [bool; 2] = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for screened in legs {
            let t = Instant::now();
            if screened {
                screened_report = Some(run_screened());
                sur_screeneds.push(t.elapsed().as_secs_f64());
            } else {
                black_box(run_tuning(moat::Obs::default()));
                sur_baselines.push(t.elapsed().as_secs_f64());
            }
        }
    }
    let sur_baseline_med = median(&sur_baselines);
    let sur_delta_med = paired_delta_med(&sur_baselines, &sur_screeneds);
    let screened_report = screened_report.expect("sur_reps > 0");
    assert_eq!(
        screened_report, report,
        "a full-open screen changed the tuning outcome"
    );

    let out = BenchReport {
        smoke,
        kernel: "mm",
        machine: "Westmere",
        cachesim: CachesimReport {
            n,
            tile: tile as i64,
            threads,
            accesses: streaming_accesses,
            streaming_s,
            streaming_accesses_per_s: streaming_accesses as f64 / streaming_s,
        },
        analytic_eval: AnalyticReport {
            evals,
            wall_s: eval_s,
            evals_per_s: evals as f64 / eval_s,
        },
        backend_eval,
        tuning: TuningWallReport {
            strategy: "rs-gde3",
            wall_s: tuning_s,
            evaluations: report.evaluations,
            front_size: report.front.len(),
        },
        tracing: TracingOverheadReport {
            baseline_s: tr_baseline_med,
            traced_s: tr_baseline_med + tr_delta_med,
            overhead_pct: tr_delta_med / tr_baseline_med * 100.0,
            records,
        },
        surrogate: SurrogateOverheadReport {
            baseline_s: sur_baseline_med,
            screened_s: sur_baseline_med + sur_delta_med,
            overhead_pct: sur_delta_med / sur_baseline_med * 100.0,
        },
    };
    let pretty = serde_json::to_string_pretty(&out).expect("serialize");
    if let Some(path) = json_path {
        std::fs::write(&path, format!("{pretty}\n")).expect("write JSON");
        eprintln!("wrote {path}");
    }
    println!("{pretty}");
}
