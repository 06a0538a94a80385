//! `cachesim-validate`: the trace-driven cache simulator against the
//! analytic cost model, in-process. Five kernels at sizes the simulator can
//! walk, seeded tilings, 1 and 4 threads, one fixed hierarchy. The unit of
//! work is a million simulated accesses.

use crate::common::{
    cpu_seconds, derive, finish_traced, median, ms, repeat_setup, reset_peak_rss, self_peak_rss_mb,
    set_end_to_end, stretches, Ctx, Ledger, RunResult, Who,
};
use crate::trace::{Trace, Tracer};
use moat::cachesim::{
    simulate_nest, AccessSource, CacheConfig, CompiledNest, HierarchyConfig, MultiCoreHierarchy,
};
use moat::core::{spearman, ParamSpace};
use moat::ir::{analyze, AnalyzerConfig, Region, Step};
use moat::machine::{CacheLevelDesc, CacheScope, CostModel, EnergyDesc, MachineDesc};
use moat::{ir_space, Kernel};
use std::time::Instant;

const SHAPES: [(Kernel, i64); 5] = [
    (Kernel::Mm, 96),
    (Kernel::Dsyrk, 96),
    (Kernel::Jacobi2d, 512),
    (Kernel::Stencil3d, 64),
    (Kernel::Nbody, 1024),
];
const THREADS: [i64; 2] = [1, 4];
/// Tilings per kernel a run finishes whatever `--seconds` says, smoke runs
/// too: below a handful of points per kernel a rank correlation is noise.
const MIN_TILINGS: u64 = 6;
/// Index of the tiling the untimed warm-up walks: one no measured round reaches.
const WARM_UP_TILING: u64 = 1 << 40;

/// Caches small enough that the shapes above reach every level.
const L1: (u64, u32) = (4 * 1024, 4);
const L2: (u64, u32) = (32 * 1024, 8);
const L3: (u64, u32) = (256 * 1024, 16);
const LINE: u64 = 64;
const CORES: usize = 4;
const LEVELS: usize = 3;

fn hierarchy() -> MultiCoreHierarchy {
    MultiCoreHierarchy::new(HierarchyConfig {
        private_levels: vec![
            CacheConfig::new(L1.0, L1.1, LINE),
            CacheConfig::new(L2.0, L2.1, LINE),
        ],
        shared_level: CacheConfig::new(L3.0, L3.1, LINE),
        cores_per_chip: CORES,
        cores: CORES,
        prefetch_depth: 0,
    })
}

/// The machine the cost model sees: the same three levels, one chip.
fn machine() -> MachineDesc {
    let level = |(size, assoc): (u64, u32), latency_cycles, scope| CacheLevelDesc {
        size,
        line: LINE,
        assoc,
        latency_cycles,
        scope,
    };
    MachineDesc {
        name: "Bench4".into(),
        sockets: 1,
        cores_per_socket: CORES,
        levels: vec![
            level(L1, 4.0, CacheScope::Private),
            level(L2, 12.0, CacheScope::Private),
            level(L3, 40.0, CacheScope::Chip),
        ],
        mem_latency_cycles: 200.0,
        chip_bandwidth_bytes_per_cycle: 8.0,
        freq_ghz: 2.0,
        flops_per_cycle: 1.0,
        stall_exposure: vec![1.0, 0.6, 0.5, 0.4],
        stream_exposure: vec![0.2, 0.3, 0.3],
        level_bandwidth_bytes_per_cycle: vec![16.0, 8.0, 4.0],
        fork_join_overhead_cycles: 1000.0,
        per_thread_overhead_cycles: 100.0,
        contention_coeff: 0.5,
        contention_exponent: 1.5,
        thread_counts: vec![1, 2, 4],
        energy: EnergyDesc {
            core_active_watts: 5.0,
            core_idle_watts: 1.0,
            uncore_watts: 10.0,
            dram_nj_per_byte: 0.5,
        },
    }
}

struct Shape {
    name: &'static str,
    region: Region,
    /// Accesses one walk of the nest makes: iterations × references.
    accesses: u64,
    threads_param: usize,
    space: ParamSpace,
    /// `(lines the model fetches into a level, misses the simulator counts
    /// there)`, one list per (thread count, level).
    pairs: Vec<Vec<(f64, f64)>>,
}

fn shapes() -> Result<Vec<Shape>, String> {
    SHAPES
        .iter()
        .map(|&(kernel, n)| {
            let region = analyze(
                kernel.region(n),
                &AnalyzerConfig::for_threads(vec![1, 2, 4]),
            )?;
            let refs: u64 = region
                .nest
                .body
                .iter()
                .map(|s| s.accesses.len() as u64)
                .sum();
            let iterations = region
                .nest
                .const_iterations()
                .ok_or("nest has symbolic bounds")?;
            let threads_param = region.skeletons[0]
                .steps
                .iter()
                .find_map(|s| match s {
                    Step::Parallelize { threads_param } => Some(*threads_param),
                    _ => None,
                })
                .ok_or("skeleton has no thread parameter")?;
            Ok(Shape {
                name: kernel.info().name,
                accesses: iterations * refs,
                space: ir_space(&region.skeletons[0]),
                region,
                threads_param,
                pairs: vec![Vec::new(); THREADS.len() * LEVELS],
            })
        })
        .collect()
}

/// Tile-size combinations per kernel. Tiling `t` uses design `t % 16`, so a
/// run that gets through sixteen tilings has seen every design, and two
/// runs see the same mix however far each gets beyond that.
const DESIGNS: u64 = 16;

/// Tiling `t` of a shape. Each tile parameter takes one of four sizes
/// spaced geometrically over its range — the first two parameters run
/// through all sixteen pairs, a third follows as their Latin square — and
/// the seed moves every size by up to 8 %.
fn tiling(shape: &Shape, seed: u64, kernel: u64, t: u64, threads: i64) -> Vec<i64> {
    let design = t % DESIGNS;
    let steps = [design % 4, design / 4, (design % 4 + design / 4) % 4];
    let mut tile_dim = 0;
    shape
        .space
        .domains
        .iter()
        .enumerate()
        .map(|(d, domain)| {
            if d == shape.threads_param {
                return threads;
            }
            let (lo, hi) = domain.extremes();
            // No tile below a cache line of doubles.
            let lo = lo.max(8) as f64;
            let step = steps[tile_dim % steps.len()] as f64;
            tile_dim += 1;
            let jitter = 0.92
                + 0.16 * derive(seed, kernel * 1000 + t, d as u64) as f64 / (1u64 << 31) as f64;
            let size = lo * (hi as f64 / lo).powf(step / 3.0) * jitter;
            domain.nearest(size.round() as i64)
        })
        .collect()
}

/// What one cell measured.
struct Cell {
    wall_ms: f64,
    accesses: u64,
}

/// Simulate one (shape, tiling, threads) cell and evaluate the model on the
/// same variant. A traced cell also times the compile and the bare stream.
fn cell(
    shape: &mut Shape,
    model: &CostModel,
    values: &[i64],
    thread_slot: usize,
    op: u64,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<Cell, String> {
    let region = &shape.region;
    let variant = region.skeletons[0]
        .instantiate(&region.nest, values)
        .map_err(|e| format!("tiling {values:?} does not instantiate: {e:?}"))?;
    let root = tr.begin("cachesim.cell", op);
    let start = Instant::now();
    let mut h = hierarchy();
    let open = tr.begin("cachesim.simulate_nest", op);
    let sim_start = Instant::now();
    let accesses = simulate_nest(&region.arrays, &variant.nest, &mut h);
    let sim_s = sim_start.elapsed().as_secs_f64();
    tr.end(open);
    let breakdown = tr.span("machine.cost", op, || model.cost(&region.arrays, &variant));
    let wall_ms = ms(start.elapsed());
    tr.end(root);

    // The simulator's two inner stages on their own, outside the op: the
    // nest compile, and the access streams drained with no cache behind.
    let mut drained = accesses;
    if tr.enabled() {
        ledger.push(
            "cachesim.hierarchy_accesses_per_s",
            accesses as f64 / sim_s.max(1e-9),
        );
        let t = Instant::now();
        let compiled = CompiledNest::new(&region.arrays, &variant.nest);
        ledger.push("cachesim.compile_us", t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        drained = 0;
        let mut buf = Vec::new();
        for mut stream in compiled.thread_streams() {
            loop {
                let reps = stream.next_run(&mut buf, LINE.trailing_zeros());
                if reps == 0 {
                    break;
                }
                drained += reps * buf.len() as u64;
            }
        }
        ledger.push(
            "cachesim.stream_only_accesses_per_s",
            drained as f64 / t.elapsed().as_secs_f64().max(1e-9),
        );
    }

    if drained != accesses {
        return Err(format!(
            "bare stream yields {drained} accesses, the simulator saw {accesses}"
        ));
    }
    if accesses != shape.accesses {
        return Err(format!(
            "{accesses} accesses simulated, the nest makes {}",
            shape.accesses
        ));
    }
    // Conservation: every access enters L1, every miss enters the next
    // level, and what misses the shared level is a memory access.
    let mut entering = accesses;
    for lvl in 0..h.levels() {
        let stats = h.level_stats(lvl);
        if stats.accesses != entering || stats.misses > stats.accesses {
            return Err(format!(
                "level {lvl}: {} accesses and {} misses do not conserve {entering}",
                stats.accesses, stats.misses
            ));
        }
        entering = stats.misses;
    }
    if h.memory_accesses() != entering {
        return Err(format!(
            "{} memory accesses, the shared level missed {entering}",
            h.memory_accesses()
        ));
    }
    if breakdown.level_miss_lines.len() != LEVELS {
        return Err(format!(
            "the model reports {} levels, expected {LEVELS}",
            breakdown.level_miss_lines.len()
        ));
    }
    for (lvl, &lines) in breakdown.level_miss_lines.iter().enumerate() {
        shape.pairs[thread_slot * LEVELS + lvl].push((lines, h.level_stats(lvl).misses as f64));
    }
    Ok(Cell { wall_ms, accesses })
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    reset_peak_rss();
    let model = CostModel::new(machine());
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);
    let mut scratch = Ledger::default();
    // Set-up: analyze the five shapes and walk one untimed tiling of each.
    let (mut shapes, setup) = repeat_setup(
        ctx,
        || {
            let mut shapes = shapes()?;
            for (k, shape) in shapes.iter_mut().enumerate() {
                let values = tiling(shape, ctx.seed, k as u64, WARM_UP_TILING, 1);
                cell(shape, &model, &values, 0, 0, &mut off, &mut scratch)?;
                shape.pairs.iter_mut().for_each(Vec::clear);
            }
            Ok(shapes)
        },
        drop,
    )?;

    let mut result = RunResult {
        correct: true,
        ..Default::default()
    };
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(false, origin);
    // ms per million accesses of each cell, and the same split by whether
    // the cell was recorded.
    let (mut op_ms, mut rate_on, mut rate_off) = (Vec::new(), Vec::new(), Vec::new());
    // (million accesses, seconds) of each cell.
    let mut per_cell: Vec<(f64, f64)> = Vec::new();
    let cpu_start = cpu_seconds(Who::Myself);
    // Cells and CPU seconds at the end of the last complete pass over the
    // sixteen designs: what the end-to-end numbers are computed from, so
    // that every run measures the same mix of designs however many tilings
    // of the next pass it reaches.
    let mut full_cycles: Option<(usize, f64)> = None;
    let deadline = ctx.deadline(Instant::now());
    let mut t = 0u64;
    while t < MIN_TILINGS || Instant::now() < deadline {
        for (k, shape) in shapes.iter_mut().enumerate() {
            // Recording alternates per (tiling, kernel), so both sides see
            // every kernel and both thread counts.
            let traced = ctx.traced && (t * SHAPES.len() as u64 + k as u64) % 2 == 1;
            tracer.set_enabled(traced);
            for (slot, &threads) in THREADS.iter().enumerate() {
                let op = (t * SHAPES.len() as u64 + k as u64) * 2 + slot as u64;
                let values = tiling(shape, ctx.seed, k as u64, t, threads);
                result.attempted += 1;
                match cell(shape, &model, &values, slot, op, &mut tracer, &mut ledger) {
                    Ok(c) => {
                        let rate = c.wall_ms / (c.accesses as f64 / 1e6);
                        op_ms.push(rate);
                        if traced {
                            rate_on.push(rate)
                        } else {
                            rate_off.push(rate)
                        }
                        per_cell.push((c.accesses as f64 / 1e6, c.wall_ms / 1e3));
                    }
                    Err(why) => {
                        result.failed += 1;
                        result.note(format!(
                            "cachesim-validate {} tiling {t} threads {threads}: {why}",
                            shape.name
                        ));
                    }
                }
            }
        }
        t += 1;
        if t.is_multiple_of(DESIGNS) {
            full_cycles = Some((op_ms.len(), cpu_seconds(Who::Myself) - cpu_start));
        }
    }

    // Model-vs-simulator rank agreement: per kernel the mean Spearman
    // correlation over thread counts and cache levels; a level every tiling
    // misses alike (the shared cache, when the arrays fit) has no ranking
    // and is left out. On seeded random tilings a single kernel can come
    // out negative, so the check is on the mean over the five kernels.
    let corr: Vec<f64> = shapes
        .iter()
        .map(|shape| {
            let rho: Vec<f64> = shape.pairs.iter().filter_map(|p| spearman(p)).collect();
            rho.iter().sum::<f64>() / rho.len().max(1) as f64
        })
        .collect();
    let rank_corr = corr.iter().sum::<f64>() / corr.len() as f64;
    if rank_corr <= 0.0 {
        result.fail(format!("cachesim-validate: model and simulator do not rank tilings alike (rho per kernel {corr:.3?})"));
    }
    result.correct &= result.failed == 0;

    if ctx.traced {
        ledger.push("cachesim.model_sim_rank_corr", rank_corr);
        if !rate_on.is_empty() && !rate_off.is_empty() {
            ledger.push(
                "bench.trace_overhead_pct",
                100.0 * (median(&rate_on) / median(&rate_off) - 1.0),
            );
        }
        let mut trace = Trace::default();
        trace.absorb(tracer);
        ledger.push_all("machine.cost_ns", &trace.durations("machine.cost", 1.0));
        finish_traced(ctx, "cachesim-validate", &ledger, &trace, &mut result)?;
    } else {
        // A run too short for one pass (a smoke run) reports what it has.
        let (cells, cpu_s) =
            full_cycles.unwrap_or((op_ms.len(), cpu_seconds(Who::Myself) - cpu_start));
        set_end_to_end(
            &mut result.values,
            setup,
            // One stretch per tiling: all kernels at both thread counts.
            &stretches(&per_cell[..cells], SHAPES.len() * THREADS.len()),
            cpu_s,
            &op_ms[..cells],
            self_peak_rss_mb(),
        );
    }
    Ok(result)
}
