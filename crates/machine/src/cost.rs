//! The analytic execution-time model.
//!
//! Time for one execution of a (transformed) loop nest on a
//! [`MachineDesc`] is modeled as
//!
//! ```text
//! time = max(per-thread cycles, bandwidth-bound cycles) + fork/join overhead
//! per-thread cycles = (compute + loop overhead + cache stalls) / threads
//!                      × load-imbalance factor
//! ```
//!
//! Cache stalls are derived from the footprint analysis of [`crate::footprint`]:
//! for every cache level, the model finds the outermost loop depth `g` whose
//! complete working set fits the level's *effective* capacity (chip-shared
//! levels divided by the number of co-located threads), and charges one
//! fetch of the depth-`g` footprint per combined iteration of the loops
//! outside `g` — except that arrays invariant under the loop immediately
//! enclosing `g` are retained (LRU keeps data whose per-iteration working
//! set fits). This reproduces the classic blocked-kernel traffic formulas
//! and makes the optimal tile sizes depend on the per-thread share of the
//! shared cache, which is the central phenomenon of the paper (§II).

use crate::desc::MachineDesc;
use crate::footprint::BodyFootprints;
use crate::noise::NoiseModel;
use moat_ir::{ArrayDecl, LoopNest, NestShape, ParamValue, Stmt, Variant, VariantShape};
use std::hash::{Hash, Hasher};

/// Cycles charged per iteration of every non-innermost loop (increment,
/// compare, branch, inner-loop setup). Penalizes degenerate tiny tiles.
const LOOP_OVERHEAD_CYCLES: f64 = 2.0;

/// Detailed cost estimate of one nest execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// Total wall time in seconds (noise-free).
    pub time_s: f64,
    /// Pure compute component (seconds, single-thread total).
    pub compute_s: f64,
    /// Loop-management overhead (seconds, single-thread total).
    pub loop_overhead_s: f64,
    /// Exposed cache/memory stalls (seconds, single-thread total).
    pub stall_s: f64,
    /// Fork/join overhead (seconds).
    pub fork_join_s: f64,
    /// Load-imbalance factor (≥ 1) from the ceil-division of the collapsed
    /// parallel iteration space.
    pub imbalance: f64,
    /// True if the per-chip memory bandwidth bound dominates.
    pub bandwidth_bound: bool,
    /// Fetched lines per cache level (traffic into L1, L2, …).
    pub level_miss_lines: Vec<f64>,
    /// Bytes fetched from main memory.
    pub mem_bytes: f64,
    /// Threads used.
    pub threads: usize,
    /// Energy consumed in joules (first-order power model: active/idle
    /// cores + per-chip uncore + DRAM traffic).
    pub energy_j: f64,
}

/// A simulated measurement: the two objectives of the paper's instantiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Wall time in seconds (first objective, minimized).
    pub time_s: f64,
    /// Resource usage = `threads × time` in CPU-seconds (second objective,
    /// minimized; "relative resources" of Table III up to normalization).
    pub resources: f64,
    /// Energy in joules (optional third objective; the paper names energy
    /// consumption as a further objective in §III-B.1).
    pub energy_j: f64,
}

/// The analytic cost model for one target machine.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// The modeled machine.
    pub machine: MachineDesc,
    /// Optional measurement noise (median-of-k emulation).
    pub noise: Option<NoiseModel>,
}

impl CostModel {
    /// Noise-free model.
    pub fn new(machine: MachineDesc) -> Self {
        CostModel {
            machine,
            noise: None,
        }
    }

    /// Model with measurement-noise emulation.
    pub fn with_noise(machine: MachineDesc, noise: NoiseModel) -> Self {
        CostModel {
            machine,
            noise: Some(noise),
        }
    }

    /// Cost of an instantiated skeleton variant.
    pub fn cost(&self, arrays: &[ArrayDecl], variant: &Variant) -> CostBreakdown {
        self.cost_nest(arrays, &variant.nest, variant.threads, variant.unroll)
    }

    /// Cost of an arbitrary nest with an explicit thread count (used for
    /// the untiled `-O3` baseline, where `nest.parallel` may be `None` and
    /// `threads` must then be 1).
    pub fn cost_nest(
        &self,
        arrays: &[ArrayDecl],
        nest: &LoopNest,
        threads: usize,
        unroll: u32,
    ) -> CostBreakdown {
        let mut level_miss_lines = Vec::with_capacity(self.machine.levels.len());
        let terms = NestShape::with_nest(nest, |shape| {
            self.cost_terms(arrays, &nest.body, &shape, threads, unroll, |lines| {
                level_miss_lines.push(lines)
            })
        });
        CostBreakdown {
            level_miss_lines,
            ..terms
        }
    }

    /// The model itself: the cost of executing `body` inside loops of the
    /// given shape. Allocates nothing: the fetched lines of every cache
    /// level go to `level_lines`, innermost level first, and the returned
    /// breakdown's `level_miss_lines` is left empty.
    fn cost_terms(
        &self,
        arrays: &[ArrayDecl],
        body: &[Stmt],
        shape: &NestShape<'_>,
        threads: usize,
        unroll: u32,
        mut level_lines: impl FnMut(f64),
    ) -> CostBreakdown {
        let m = &self.machine;
        let depth = shape.depth();
        assert!(depth >= 1, "cannot cost an empty nest");
        let threads = if shape.parallel.is_some() {
            threads.clamp(1, m.total_cores())
        } else {
            1
        };

        let line = m.levels[0].line;
        let trips = || shape.loops.iter().map(|l| l.avg_trip.max(1.0));
        let iters: f64 = trips().product();

        // --- compute & loop management -------------------------------------
        let flops = body.iter().map(|s| s.flops).sum::<u64>() as f64 * iters;
        let ilp = 1.0 + 0.05 * f64::from(unroll.clamp(1, 16)).log2();
        let compute_cycles = flops / (m.flops_per_cycle * ilp);
        let mut overhead_cycles = 0.0;
        let mut partial = 1.0;
        for t in trips().take(depth.saturating_sub(1)) {
            partial *= t;
            overhead_cycles += partial * LOOP_OVERHEAD_CYCLES;
        }

        // --- cache traffic per level ----------------------------------------
        // Streams that advance contiguously with the innermost loop are
        // prefetchable: they pay (mostly) bandwidth, not latency.
        let (stall_cycles, max_transfer_cycles, mem_lines) =
            BodyFootprints::with(arrays, body, shape, line, |fps| {
                let mut stall_cycles = 0.0;
                let mut max_transfer_cycles = 0.0f64;
                let mut mem_lines = None;
                for lvl in 0..m.levels.len() {
                    let cap = m.effective_capacity(lvl, threads) as f64;
                    // Outermost depth whose working set fits; the innermost
                    // loop is always kept free so per-stream spatial
                    // locality is modeled.
                    let g = (0..depth)
                        .find(|&d| fps.total_bytes(d) <= cap)
                        .unwrap_or(depth - 1);
                    let retention_ok = fps.total_bytes(g) <= cap;
                    let mut lines_lvl = 0.0;
                    for (a, fetched) in fps.lines_at(g) {
                        let mut reload = 1.0;
                        for (d, t) in trips().enumerate().take(g) {
                            let retained = retention_ok && d + 1 == g && !fps.expands_at(a, d);
                            if !retained {
                                reload *= t;
                            }
                        }
                        let lines = reload * fetched;
                        stall_cycles += lines * m.line_latency_cycles(lvl, fps.contiguous(a));
                        lines_lvl += lines;
                    }
                    // Per-core transfer throughput at this level: overlaps
                    // with compute, so it bounds rather than adds.
                    max_transfer_cycles =
                        max_transfer_cycles.max(lines_lvl * m.line_transfer_cycles(lvl));
                    level_lines(lines_lvl);
                    mem_lines = Some(lines_lvl);
                }
                (
                    stall_cycles,
                    max_transfer_cycles,
                    mem_lines.expect("machine without cache levels"),
                )
            });
        let mem_bytes = mem_lines * line as f64;

        // --- parallel distribution ------------------------------------------
        let imbalance = match shape.parallel {
            Some(p) if threads > 1 => {
                let par_iters: f64 = trips().take(p.collapsed).product();
                let chunks = (par_iters / threads as f64).ceil();
                ((chunks * threads as f64) / par_iters).max(1.0)
            }
            _ => 1.0,
        };

        let work_cycles = compute_cycles + overhead_cycles + stall_cycles;
        let contention = m.contention_factor(threads);
        let per_thread_cycles = (work_cycles / threads as f64)
            .max(max_transfer_cycles / threads as f64)
            * imbalance
            * contention;

        // Per-chip bandwidth bound: the busiest chip moves its threads'
        // share of the memory traffic through its memory controller.
        let max_chip_threads = m.max_threads_per_chip(threads) as f64;
        let chip_bytes = mem_bytes * max_chip_threads / threads as f64;
        let bw_cycles = chip_bytes / m.chip_bandwidth_bytes_per_cycle;
        let bandwidth_bound = bw_cycles > per_thread_cycles || max_transfer_cycles > work_cycles;

        let fork_join_cycles = if threads > 1 {
            m.fork_join_overhead_cycles + threads as f64 * m.per_thread_overhead_cycles
        } else {
            0.0
        };

        let total_cycles = per_thread_cycles.max(bw_cycles) + fork_join_cycles;
        let spc = m.seconds_per_cycle();
        let time_s = total_cycles * spc;

        // Energy: active threads + idle cores on powered chips + uncore of
        // the chips in use, integrated over the region's wall time, plus
        // DRAM access energy.
        let chips = m.chips_used(threads).max(1);
        let powered_cores = chips * m.cores_per_socket;
        let idle_cores = powered_cores.saturating_sub(threads);
        let power_w = threads as f64 * m.energy.core_active_watts
            + idle_cores as f64 * m.energy.core_idle_watts
            + chips as f64 * m.energy.uncore_watts;
        let energy_j = power_w * time_s + mem_bytes * m.energy.dram_nj_per_byte * 1e-9;

        CostBreakdown {
            time_s,
            compute_s: compute_cycles * spc,
            loop_overhead_s: overhead_cycles * spc,
            stall_s: stall_cycles * spc,
            fork_join_s: fork_join_cycles * spc,
            imbalance,
            bandwidth_bound,
            level_miss_lines: Vec::new(),
            mem_bytes,
            threads,
            energy_j,
        }
    }

    /// Simulated measurement of a variant: analytic time perturbed by the
    /// configured noise (median of the configured number of runs), plus the
    /// resource-usage objective.
    pub fn measure(&self, arrays: &[ArrayDecl], variant: &Variant) -> Measurement {
        NestShape::with_nest(&variant.nest, |nest| {
            let shape = VariantShape {
                nest,
                threads: variant.threads,
                unroll: variant.unroll,
            };
            self.measure_shape(arrays, &variant.nest.body, &shape, &variant.values)
        })
    }

    /// [`measure`](Self::measure) without the variant: `shape` is what
    /// [`Skeleton::with_shape`](moat_ir::Skeleton::with_shape) derived from
    /// `values`, `body` the body of the untransformed nest. Allocates
    /// nothing.
    pub fn measure_shape(
        &self,
        arrays: &[ArrayDecl],
        body: &[Stmt],
        shape: &VariantShape<'_>,
        values: &[ParamValue],
    ) -> Measurement {
        let base = self.cost_terms(
            arrays,
            body,
            &shape.nest,
            shape.threads,
            shape.unroll,
            |_| {},
        );
        let (time, energy) = match &self.noise {
            Some(n) => {
                let key = config_key(&self.machine, values, shape.threads, shape.unroll);
                // Energy is measured by a separate instrument: independent
                // noise draw.
                (
                    n.median_time(key, base.time_s),
                    n.median_time(key ^ 0xE4E6, base.energy_j),
                )
            }
            None => (base.time_s, base.energy_j),
        };
        Measurement {
            time_s: time,
            resources: time * base.threads as f64,
            energy_j: energy,
        }
    }
}

/// Hash key of (machine, configuration) for noise derivation. Every
/// fixed-seed output depends on these bytes: the value is pinned by
/// `noise_key_is_pinned` below.
fn config_key(machine: &MachineDesc, values: &[ParamValue], threads: usize, unroll: u32) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    machine.name.hash(&mut h);
    values.hash(&mut h);
    threads.hash(&mut h);
    unroll.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::MachineDesc;
    use moat_ir::{
        analyze, Access, AffineExpr, AnalyzerConfig, ArrayDecl, ArrayId, Loop, LoopNest, Region,
        Stmt, VarId,
    };

    fn mm_region(n: i64) -> Region {
        let (i, j, k) = (VarId(0), VarId(1), VarId(2));
        let (c, a, b) = (ArrayId(0), ArrayId(1), ArrayId(2));
        Region::new(
            "mm",
            vec![
                ArrayDecl::new(c, "C", vec![n as u64, n as u64], 8),
                ArrayDecl::new(a, "A", vec![n as u64, n as u64], 8),
                ArrayDecl::new(b, "B", vec![n as u64, n as u64], 8),
            ],
            LoopNest::new(
                vec![
                    Loop::plain(i, "i", 0, n),
                    Loop::plain(j, "j", 0, n),
                    Loop::plain(k, "k", 0, n),
                ],
                vec![Stmt::new(
                    vec![
                        Access::read(c, vec![i.into(), j.into()]),
                        Access::write(c, vec![i.into(), j.into()]),
                        Access::read(a, vec![i.into(), k.into()]),
                        Access::read(b, vec![k.into(), j.into()]),
                    ],
                    2,
                )],
            ),
        )
    }

    fn variant(n: i64, tiles: [i64; 3], threads: i64, m: &MachineDesc) -> moat_ir::Variant {
        let cfg = AnalyzerConfig::for_threads(m.thread_counts.iter().map(|&t| t as i64).collect());
        let r = analyze(mm_region(n), &cfg).unwrap();
        r.skeletons[0]
            .instantiate(&r.nest, &[tiles[0], tiles[1], tiles[2], threads])
            .unwrap()
    }

    #[test]
    fn tiling_beats_untiled_baseline() {
        let m = MachineDesc::westmere();
        let model = CostModel::new(m.clone());
        let r = mm_region(1400);
        let untiled = model.cost_nest(&r.arrays, &r.nest, 1, 1);
        let tiled = model.cost(&r.arrays, &variant(1400, [96, 128, 8], 1, &m));
        assert!(
            tiled.time_s * 2.0 < untiled.time_s,
            "tiling must be at least 2x faster: tiled={} untiled={}",
            tiled.time_s,
            untiled.time_s
        );
    }

    #[test]
    fn serial_mm_time_plausible() {
        // 2*1400^3 flops at ~2.4 GFLOP/s → a handful of seconds.
        let m = MachineDesc::westmere();
        let model = CostModel::new(m.clone());
        let r = mm_region(1400);
        let t = model
            .cost(&r.arrays, &variant(1400, [96, 128, 8], 1, &m))
            .time_s;
        assert!(
            (1.0..20.0).contains(&t),
            "serial tiled mm time {t} s implausible"
        );
    }

    #[test]
    fn parallel_scaling_sublinear_but_substantial() {
        let m = MachineDesc::westmere();
        let model = CostModel::new(m.clone());
        let r = mm_region(1400);
        let t1 = model
            .cost(&r.arrays, &variant(1400, [64, 64, 8], 1, &m))
            .time_s;
        let t10 = model
            .cost(&r.arrays, &variant(1400, [64, 64, 8], 10, &m))
            .time_s;
        let t40 = model
            .cost(&r.arrays, &variant(1400, [64, 64, 8], 40, &m))
            .time_s;
        let s10 = t1 / t10;
        let s40 = t1 / t40;
        assert!(
            s10 > 5.0 && s10 <= 10.0,
            "10-thread speedup {s10} out of range"
        );
        assert!(s40 > s10, "40 threads must beat 10");
        assert!(s40 < 40.0, "speedup must be sublinear");
    }

    #[test]
    fn efficiency_decreases_with_threads() {
        let m = MachineDesc::westmere();
        let model = CostModel::new(m.clone());
        let r = mm_region(1400);
        let times: Vec<f64> = m
            .thread_counts
            .clone()
            .into_iter()
            .map(|t| {
                model
                    .cost(&r.arrays, &variant(1400, [64, 64, 8], t as i64, &m))
                    .time_s
            })
            .collect();
        let effs: Vec<f64> = m
            .thread_counts
            .iter()
            .zip(&times)
            .map(|(&t, &ts)| times[0] / (ts * t as f64))
            .collect();
        for w in effs.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "efficiency must not increase: {effs:?}"
            );
        }
        assert!(effs[0] > 0.99);
        assert!(
            *effs.last().unwrap() < 0.9,
            "full-machine efficiency should be clearly below 1: {effs:?}"
        );
    }

    #[test]
    fn optimal_tiles_shrink_with_shared_cache_pressure() {
        // The Fig. 2 phenomenon: a tile configuration sized for the full L3
        // must lose its advantage (or invert) when 10 threads share the L3.
        let m = MachineDesc::westmere();
        let model = CostModel::new(m.clone());
        let r = mm_region(1400);
        let big = [448, 448, 8]; // ~ fits 30 MB L3 for one thread
        let small = [96, 96, 8]; // sized for a 3 MB per-thread share
        let t_big_1 = model.cost(&r.arrays, &variant(1400, big, 1, &m)).time_s;
        let t_small_1 = model.cost(&r.arrays, &variant(1400, small, 1, &m)).time_s;
        let t_big_10 = model.cost(&r.arrays, &variant(1400, big, 10, &m)).time_s;
        let t_small_10 = model.cost(&r.arrays, &variant(1400, small, 10, &m)).time_s;
        let rel_1 = t_big_1 / t_small_1;
        let rel_10 = t_big_10 / t_small_10;
        assert!(
            rel_10 > rel_1 * 1.02,
            "large tiles must degrade relative to small ones under sharing: \
             1t ratio {rel_1:.3}, 10t ratio {rel_10:.3}"
        );
    }

    #[test]
    fn imbalance_penalizes_huge_tiles() {
        let m = MachineDesc::westmere();
        let model = CostModel::new(m.clone());
        let r = mm_region(1400);
        // 700-wide tiles → 2×2 = 4 parallel iterations on 40 threads.
        let huge = model.cost(&r.arrays, &variant(1400, [700, 700, 8], 40, &m));
        assert!(
            huge.imbalance >= 10.0 - 1e-9,
            "4 chunks on 40 threads: {}",
            huge.imbalance
        );
        let fine = model.cost(&r.arrays, &variant(1400, [64, 64, 8], 40, &m));
        assert!(fine.imbalance < 1.2);
    }

    #[test]
    fn tiny_tiles_pay_loop_overhead() {
        let m = MachineDesc::westmere();
        let model = CostModel::new(m.clone());
        let r = mm_region(1400);
        let tiny = model.cost(&r.arrays, &variant(1400, [4, 4, 1], 1, &m));
        let sane = model.cost(&r.arrays, &variant(1400, [96, 128, 8], 1, &m));
        assert!(
            tiny.time_s > sane.time_s * 1.3,
            "1-wide k tiles must be clearly slower"
        );
        assert!(tiny.loop_overhead_s > sane.loop_overhead_s * 4.0);
    }

    #[test]
    fn miss_lines_monotone_across_levels() {
        let m = MachineDesc::westmere();
        let model = CostModel::new(m.clone());
        let r = mm_region(1400);
        let c = model.cost(&r.arrays, &variant(1400, [96, 128, 8], 10, &m));
        for w in c.level_miss_lines.windows(2) {
            assert!(
                w[1] <= w[0] * 1.0001,
                "deeper levels cannot miss more: {:?}",
                c.level_miss_lines
            );
        }
    }

    #[test]
    fn sequential_nest_forces_one_thread() {
        let m = MachineDesc::westmere();
        let model = CostModel::new(m);
        let r = mm_region(128);
        let c = model.cost_nest(&r.arrays, &r.nest, 16, 1);
        assert_eq!(c.threads, 1);
        assert_eq!(c.fork_join_s, 0.0);
    }

    #[test]
    fn measurement_noise_is_bounded_and_deterministic() {
        let m = MachineDesc::westmere();
        let model = CostModel::with_noise(m.clone(), NoiseModel::default());
        let r = mm_region(512);
        let v = variant(512, [64, 64, 8], 10, &m);
        let a = model.measure(&r.arrays, &v);
        let b = model.measure(&r.arrays, &v);
        assert_eq!(a, b, "measurements must be deterministic");
        let clean = CostModel::new(m).cost(&r.arrays, &v).time_s;
        assert!((a.time_s / clean - 1.0).abs() <= 0.015 + 1e-9);
        assert!((a.resources - a.time_s * 10.0).abs() < 1e-12);
    }

    /// `DefaultHasher` is not specified to be stable across toolchains, yet
    /// every fixed-seed output (table6/fig9/ablation, serve resume, the
    /// benchmark's `front_hv_mean`) is a function of these bytes. A
    /// toolchain that moves them must fail here, loudly, not there.
    #[test]
    fn noise_key_is_pinned() {
        let m = MachineDesc::westmere();
        assert_eq!(m.name, "Westmere");
        let key = config_key(&m, &[16, 16, 8, 10], 10, 1);
        assert_eq!(
            key, 4_189_078_934_551_301_229,
            "std's DefaultHasher changed"
        );
        let median = NoiseModel::default().median_time(key, 1.0);
        assert_eq!(
            median.to_bits(),
            4_607_205_931_452_754_453,
            "noise draw moved: {median}"
        );
    }

    #[test]
    fn barcelona_prefers_smaller_tiles_than_westmere() {
        // 2 MB vs 30 MB L3: the tile size minimizing time at 1 thread must
        // be smaller on Barcelona.
        let candidates: Vec<[i64; 3]> = vec![
            [32, 32, 8],
            [64, 64, 8],
            [96, 96, 8],
            [160, 160, 8],
            [256, 256, 8],
            [448, 448, 8],
        ];
        let best = |m: &MachineDesc| -> usize {
            let model = CostModel::new(m.clone());
            let r = mm_region(1400);
            candidates
                .iter()
                .enumerate()
                .min_by(|(_, x), (_, y)| {
                    let tx = model.cost(&r.arrays, &variant(1400, **x, 1, m)).time_s;
                    let ty = model.cost(&r.arrays, &variant(1400, **y, 1, m)).time_s;
                    tx.partial_cmp(&ty).unwrap()
                })
                .map(|(i, _)| i)
                .unwrap()
        };
        let bw = best(&MachineDesc::westmere());
        let bb = best(&MachineDesc::barcelona());
        assert!(
            bb <= bw,
            "Barcelona optimum index {bb} must not exceed Westmere's {bw}"
        );
        assert!(
            bb < candidates.len() - 1,
            "Barcelona must not pick the largest tile"
        );
    }

    #[test]
    fn nbody_like_fits_westmere_not_barcelona() {
        // 1-d force kernel over ~1.5 MB of particle data: per-thread L3
        // share on Westmere (3 MB at 10 threads/chip) holds it; Barcelona's
        // (512 KB at 4 threads/chip) does not.
        let (i, j) = (VarId(0), VarId(1));
        let n: i64 = 65_536; // 65536 particles × 24 B = 1.5 MB
        let p = ArrayId(0);
        let f = ArrayId(1);
        let region = Region::new(
            "nbody",
            vec![
                ArrayDecl::new(p, "pos", vec![n as u64], 24),
                ArrayDecl::new(f, "force", vec![n as u64], 24),
            ],
            LoopNest::new(
                vec![Loop::plain(i, "i", 0, n), Loop::plain(j, "j", 0, n)],
                vec![Stmt::new(
                    vec![
                        Access::read(f, vec![i.into()]),
                        Access::write(f, vec![i.into()]),
                        Access::read(p, vec![AffineExpr::var(i)]),
                        Access::read(p, vec![AffineExpr::var(j)]),
                    ],
                    20,
                )],
            ),
        );
        // Tile-size sensitivity (good vs. serial-tuned huge tiles) at the
        // full per-chip thread count: negligible on Westmere (data fits the
        // per-thread L3 share), significant on Barcelona (it does not).
        // `bad` is chosen per machine to exceed the per-thread L3 share
        // while keeping enough parallel chunks that load imbalance does not
        // pollute the capacity comparison.
        let sensitivity = |m: &MachineDesc, threads: i64, bad_tile: i64| -> f64 {
            let model = CostModel::new(m.clone());
            let cfg = AnalyzerConfig::for_threads(vec![threads]);
            let r = analyze(region.clone(), &cfg).unwrap();
            let good = r.skeletons[0]
                .instantiate(&r.nest, &[1024, 1024, threads])
                .unwrap();
            let bad = r.skeletons[0]
                .instantiate(&r.nest, &[bad_tile, bad_tile, threads])
                .unwrap();
            model.cost(&r.arrays, &bad).time_s / model.cost(&r.arrays, &good).time_s
        };
        // Westmere, 10 threads/chip: 1.5 MB particle data < 3 MB share —
        // even 8K-wide tiles change little.
        let sens_w = sensitivity(&MachineDesc::westmere(), 10, 8192);
        // Barcelona, 4 threads/chip: 512 KB share — 32K-wide tiles thrash.
        let sens_b = sensitivity(&MachineDesc::barcelona(), 4, n / 2);
        assert!(
            sens_w < 1.4,
            "Westmere n-body must be nearly tile-insensitive (fits cache): {sens_w:.3}"
        );
        assert!(
            sens_b > 1.3 && sens_b > sens_w * 1.5,
            "Barcelona n-body must be much more tile-sensitive: \
             W {sens_w:.3} vs B {sens_b:.3}"
        );
    }
}
