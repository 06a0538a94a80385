//! Shared experiment plumbing: setups, grid axes, per-thread-count sweeps,
//! loss matrices, the exact reference front, and optimizer comparisons. The
//! bench targets are thin wrappers around these functions, and the
//! integration tests reuse them to assert the paper's qualitative claims.

use moat::core::grid::cartesian_axes;
use moat::core::{
    hypervolume, mult_epsilon, normalize_front, BatchEval, Config, GridTuner, ParamSpace,
    ParetoFront, Point, RandomTuner, RsGde3Params, RsGde3Tuner, TuningReport, TuningSession,
};
use moat::ir::{analyze, AnalyzerConfig, Region, Skeleton};
use moat::machine::{CostModel, MachineDesc, NoiseModel};
use moat::{ir_space, Kernel, SimEvaluator};
use moat_core::metrics::objective_bounds;
use moat_core::Evaluator;

/// A prepared experiment: kernel region analyzed for one machine, with the
/// noisy cost model the paper's measurement protocol corresponds to.
#[derive(Clone)]
pub struct Setup {
    /// The kernel.
    pub kernel: Kernel,
    /// The target machine.
    pub machine: MachineDesc,
    /// Analyzed region (skeleton attached).
    pub region: Region,
    /// Optimizer search space derived from the skeleton.
    pub space: ParamSpace,
    /// Cost model with the paper's median-of-3 noise protocol.
    pub model: CostModel,
}

impl Setup {
    /// Prepare `kernel` on `machine` (problem size defaults to the
    /// paper-scale size).
    pub fn new(kernel: Kernel, machine: MachineDesc, n: Option<i64>) -> Setup {
        let n = n.unwrap_or(kernel.info().paper_size);
        // The optimizer's space allows *every* thread count up to the
        // machine size (paper §V-B.3: "the upper boundary for the number of
        // threads was set according to the target machine"); only the
        // brute-force grids are restricted to the paper's thread counts.
        let cfg = AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect());
        let region = analyze(kernel.region(n), &cfg).expect("kernel must be tileable");
        let space = ir_space(&region.skeletons[0]);
        let model = CostModel::with_noise(machine.clone(), NoiseModel::default());
        Setup {
            kernel,
            machine,
            region,
            space,
            model,
        }
    }

    /// The same experiment on the noise-free model, which every front is
    /// measured on.
    pub fn exact(&self) -> Setup {
        let mut exact = self.clone();
        exact.model = CostModel::new(self.machine.clone());
        exact
    }

    /// The tuned skeleton.
    pub fn skeleton(&self) -> &Skeleton {
        &self.region.skeletons[0]
    }

    /// Objective function on the machine model.
    pub fn evaluator(&self) -> SimEvaluator<'_> {
        SimEvaluator {
            region: &self.region,
            skeleton: self.skeleton(),
            model: &self.model,
        }
    }

    /// Index of the thread-count dimension (always last).
    pub fn threads_dim(&self) -> usize {
        self.space.dims() - 1
    }

    /// Number of tile-size dimensions.
    pub fn tile_dims(&self) -> usize {
        self.space.dims() - 1
    }

    /// The machine's thread counts as `i64`.
    pub fn thread_counts(&self) -> Vec<i64> {
        self.machine
            .thread_counts
            .iter()
            .map(|&t| t as i64)
            .collect()
    }

    /// Evaluate one configuration (noisy median-of-3, like the paper).
    pub fn eval(&self, cfg: &Config) -> Point {
        let objs = self
            .evaluator()
            .evaluate(cfg)
            .unwrap_or_else(|| panic!("infeasible configuration {cfg:?}"));
        Point::new(cfg.clone(), objs)
    }

    /// Time of the untiled nest at one thread — the `GCC -O3` baseline row
    /// of Table II.
    pub fn untiled_baseline_time(&self) -> f64 {
        self.model
            .cost_nest(&self.region.arrays, &self.region.nest, 1, 1)
            .time_s
    }
}

/// Grid resolution per kernel reproducing the paper's brute-force
/// evaluation counts (Table VI lists e.g. E = 71290 for mm on Westmere =
/// ~14k tile triples x 5 thread counts; 23805 for jacobi-2d; 10580 for the
/// 3d-stencil; 26136 for n-body).
pub fn paper_grid_points(kernel: Kernel) -> usize {
    match kernel {
        Kernel::Mm | Kernel::Dsyrk => 24, // 24^3 tile grid
        Kernel::Jacobi2d => 69,           // 69^2 tile grid
        Kernel::Stencil3d => 14,          // ~14^3 tile grid
        Kernel::Nbody => 72,              // 72^2 tile grid
    }
}

/// A parallel evaluation batch sized to this host.
pub fn batch() -> BatchEval {
    BatchEval::default()
}

/// Geometrically spaced integer axis from `lo` to `hi` with ~`points`
/// distinct values (always includes both endpoints). Mirrors the paper's
/// "regular grid" over tile sizes while resolving the small-size region
/// where tiling is most sensitive.
pub fn geometric_axis(lo: i64, hi: i64, points: usize) -> Vec<i64> {
    assert!(lo >= 1 && hi >= lo);
    let points = points.max(2);
    let ratio = (hi as f64 / lo as f64).powf(1.0 / (points - 1) as f64);
    let mut axis: Vec<i64> = (0..points)
        .map(|k| ((lo as f64) * ratio.powi(k as i32)).round() as i64)
        .collect();
    axis.push(hi);
    axis.sort_unstable();
    axis.dedup();
    axis
}

/// Grid axes over all tile dimensions (`points` values each) plus the full
/// thread-count choice — the paper's brute-force space.
pub fn grid_axes(setup: &Setup, points: usize) -> Vec<Vec<i64>> {
    let mut axes: Vec<Vec<i64>> = setup
        .space
        .domains
        .iter()
        .take(setup.tile_dims())
        .map(|d| {
            let (lo, hi) = d.extremes();
            geometric_axis(lo.max(1), hi, points)
        })
        .collect();
    axes.push(setup.thread_counts());
    axes
}

/// Same grid but with the thread count pinned.
pub fn grid_axes_fixed_threads(setup: &Setup, points: usize, threads: i64) -> Vec<Vec<i64>> {
    let mut axes = grid_axes(setup, points);
    let t = axes.len() - 1;
    axes[t] = vec![threads];
    axes
}

/// Brute-force sweep over explicit axes, driven through a [`TuningSession`].
pub fn sweep(setup: &Setup, axes: &[Vec<i64>]) -> TuningReport {
    let ev = setup.evaluator();
    let mut session = TuningSession::new(setup.space.clone(), &ev).with_batch(batch());
    session.run(&GridTuner::from_points(cartesian_axes(axes)))
}

/// The point with minimal first objective (time).
pub fn best_time(points: &[Point]) -> &Point {
    points
        .iter()
        .min_by(|a, b| a.objectives[0].partial_cmp(&b.objectives[0]).expect("NaN"))
        .expect("empty sweep")
}

/// The fastest grid tiles at `threads` threads, and the evaluations spent.
fn best_tiles(setup: &Setup, points: usize, threads: i64) -> (Point, u64) {
    let result = sweep(setup, &grid_axes_fixed_threads(setup, points, threads));
    (best_time(&result.all).clone(), result.evaluations)
}

/// The exact front of a cell on the noise-free model, sorted by thread
/// count. Resources are `threads × time`, so the front holds at most one
/// point per thread count: the fastest tiles at that count. For every count
/// in `1..=cores`, the grid optimum of [`best_tiles`] descends over the
/// integer tile domains until no ±1 move on a tile lowers time; the front
/// is the non-dominated set of those optima.
pub fn oracle(setup: &Setup, points: usize) -> Vec<Point> {
    let exact = setup.exact();
    let optima = (1..=exact.machine.total_cores() as i64).map(|t| {
        let mut best = best_tiles(&exact, points, t).0;
        while let Some(next) = (0..exact.tile_dims())
            .flat_map(|d| [(d, -1), (d, 1)])
            .map(|(d, step)| {
                let mut cfg = best.config.clone();
                cfg[d] += step;
                cfg
            })
            .filter(|cfg| exact.space.contains(cfg))
            .map(|cfg| exact.eval(&cfg))
            .filter(|p| p.objectives[0] < best.objectives[0])
            .min_by(|a, b| a.objectives[0].total_cmp(&b.objectives[0]))
        {
            best = next;
        }
        best
    });
    let mut front = ParetoFront::from_points(optima).points().to_vec();
    front.sort_by_key(|p| p.config[exact.threads_dim()]);
    front
}

// ---------------------------------------------------------------------------
// Per-thread-count study (Tables II, V; Figs. 1, 2 share its sweeps)
// ---------------------------------------------------------------------------

/// Results of tuning tiles separately for every thread count.
pub struct PerThreadStudy {
    /// The evaluated thread counts.
    pub thread_counts: Vec<i64>,
    /// Best configuration (and its objectives) per thread count.
    pub best: Vec<Point>,
    /// `loss[r][c]`: relative time increase when running the tiles that are
    /// optimal for `thread_counts[r]` with `thread_counts[c]` threads,
    /// versus the tiles tuned for `thread_counts[c]` (diagonal = 0) — the
    /// "Perf. Loss over Best" matrix of Table II.
    pub loss: Vec<Vec<f64>>,
    /// Total model evaluations spent.
    pub evaluations: u64,
}

impl PerThreadStudy {
    /// Row averages excluding the diagonal (Table II "Avg." column).
    pub fn row_avgs(&self) -> Vec<f64> {
        self.loss
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let others: Vec<f64> = row
                    .iter()
                    .enumerate()
                    .filter(|(c, _)| *c != r)
                    .map(|(_, &x)| x)
                    .collect();
                others.iter().sum::<f64>() / others.len() as f64
            })
            .collect()
    }

    /// Mean of all off-diagonal losses (Table V "avg" column).
    pub fn overall_avg(&self) -> f64 {
        let a = self.row_avgs();
        a.iter().sum::<f64>() / a.len() as f64
    }

    /// Maximum loss when using the serial optimum at any other thread count
    /// (Table V "1tmax" column).
    pub fn serial_max(&self) -> f64 {
        self.loss[0].iter().copied().fold(0.0, f64::max)
    }
}

/// Brute-force tiles per thread count and build the cross-loss matrix.
pub fn per_thread_study(setup: &Setup, points: usize) -> PerThreadStudy {
    let thread_counts = setup.thread_counts();
    let tdim = setup.threads_dim();
    let mut best = Vec::with_capacity(thread_counts.len());
    let mut evaluations = 0;
    for &t in &thread_counts {
        let (point, spent) = best_tiles(setup, points, t);
        evaluations += spent;
        best.push(point);
    }
    // Cross matrix: tiles of row r at thread count of column c.
    let loss: Vec<Vec<f64>> = (0..thread_counts.len())
        .map(|r| {
            (0..thread_counts.len())
                .map(|c| {
                    if r == c {
                        return 0.0;
                    }
                    let mut cfg = best[r].config.clone();
                    cfg[tdim] = thread_counts[c];
                    let t_cross = setup.eval(&cfg).objectives[0];
                    (t_cross / best[c].objectives[0] - 1.0).max(0.0)
                })
                .collect()
        })
        .collect();
    PerThreadStudy {
        thread_counts,
        best,
        loss,
        evaluations,
    }
}

// ---------------------------------------------------------------------------
// Speedup / efficiency trade-off (Table III, Fig. 1)
// ---------------------------------------------------------------------------

/// One row of Table III.
#[derive(Debug, Clone, Copy)]
pub struct ThreadTradeoff {
    /// Thread count.
    pub threads: i64,
    /// Best time at this thread count (s).
    pub time_s: f64,
    /// Speedup `t_s / t_p(x)` over the best (tiled) serial version.
    pub speedup: f64,
    /// Efficiency `speedup / threads`.
    pub efficiency: f64,
    /// Relative time `t_p(x) / t_s`.
    pub rel_time: f64,
    /// Relative resources `threads · t_p(x) / t_s`.
    pub rel_resources: f64,
}

/// Derive the Table III rows from a per-thread study.
pub fn thread_tradeoffs(study: &PerThreadStudy) -> Vec<ThreadTradeoff> {
    let t_s = study.best[0].objectives[0];
    study
        .thread_counts
        .iter()
        .zip(&study.best)
        .map(|(&threads, p)| {
            let t_p = p.objectives[0];
            let speedup = t_s / t_p;
            ThreadTradeoff {
                threads,
                time_s: t_p,
                speedup,
                efficiency: speedup / threads as f64,
                rel_time: t_p / t_s,
                rel_resources: threads as f64 * t_p / t_s,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Optimizer comparison (Fig. 9, Table VI)
// ---------------------------------------------------------------------------

/// `front` re-evaluated by `exact`, the noise-free evaluator every front is
/// measured with.
pub fn rescore(exact: &impl Evaluator, front: &[Point]) -> Vec<Point> {
    let objectives = |p: &Point| exact.evaluate(&p.config).expect("infeasible front point");
    front
        .iter()
        .map(|p| Point::new(p.config.clone(), objectives(p)))
        .collect()
}

/// Aggregated metrics of one search method (means over repeated runs for
/// the stochastic ones, as in the paper). Every front is rescored on the
/// noise-free model before V(S) and ε× are taken; E and |S| are as the
/// runs found them.
#[derive(Debug, Clone)]
pub struct MethodStats {
    /// Mean evaluations `E`.
    pub e: f64,
    /// Mean front size `|S|`.
    pub s: f64,
    /// Mean hypervolume `V(S)`, normalized to the exact front's bounds.
    pub v: f64,
    /// Each run's (mean, max) multiplicative epsilon to the exact front;
    /// index = seed.
    pub eps: Vec<(f64, f64)>,
}

impl MethodStats {
    /// Measure `reports` against the exact front `oracle`, rescoring each
    /// front with the noise-free evaluator `exact`.
    pub fn of(reports: &[TuningReport], exact: &impl Evaluator, oracle: &[Point]) -> MethodStats {
        let (ideal, nadir) = objective_bounds(oracle);
        let fronts: Vec<Vec<Point>> = reports
            .iter()
            .map(|r| rescore(exact, r.front.points()))
            .collect();
        let n = reports.len() as f64;
        let hv: f64 = fronts.iter().map(|f| hv_under(f, &ideal, &nadir)).sum();
        MethodStats {
            e: reports.iter().map(|r| r.evaluations as f64).sum::<f64>() / n,
            s: reports.iter().map(|r| r.front.len() as f64).sum::<f64>() / n,
            v: hv / n,
            eps: fronts.iter().map(|f| mult_epsilon(f, oracle)).collect(),
        }
    }

    /// Median over the runs of each run's mean ε×.
    pub fn eps_median(&self) -> f64 {
        median(self.eps.iter().map(|e| e.0))
    }
}

/// Full three-way comparison on one kernel/machine pair.
pub struct Comparison {
    /// Brute-force sweep (front + all points retained).
    pub brute: TuningReport,
    /// Brute-force metrics.
    pub brute_stats: MethodStats,
    /// Random-search metrics (mean of the runs).
    pub random_stats: MethodStats,
    /// RS-GDE3 metrics (mean of the runs).
    pub rsgde3_stats: MethodStats,
    /// Every random-search run, as it ran; index = seed.
    pub random_runs: Vec<TuningReport>,
    /// Every RS-GDE3 run, as it ran; index = seed.
    pub rsgde3_runs: Vec<TuningReport>,
    /// The exact front ([`oracle`]): the reference of every ε× and the
    /// bounds of every V(S).
    pub oracle: Vec<Point>,
}

/// One stochastic run, singled out by its ε×.
#[derive(Debug, Clone, Copy)]
pub struct SeedRun {
    /// The run's seed.
    pub seed: u64,
    /// Evaluations `E`.
    pub e: u64,
    /// Front size `|S|`.
    pub s: usize,
    /// (mean, max) multiplicative epsilon to the exact front.
    pub eps: (f64, f64),
}

impl Comparison {
    /// The RS-GDE3 run farthest from the exact front by mean ε× (the
    /// lowest seed on ties).
    pub fn worst_rsgde3_run(&self) -> SeedRun {
        let eps = &self.rsgde3_stats.eps;
        let seed = (0..eps.len()).fold(0, |w, i| if eps[i].0 > eps[w].0 { i } else { w });
        SeedRun {
            seed: seed as u64,
            e: self.rsgde3_runs[seed].evaluations,
            s: self.rsgde3_runs[seed].front.len(),
            eps: eps[seed],
        }
    }
}

/// Median of `xs` (the mean of the middle two for an even count).
fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = xs.into_iter().collect();
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Run RS-GDE3 once with the given seed.
pub fn run_rsgde3(setup: &Setup, seed: u64) -> TuningReport {
    let params = RsGde3Params {
        seed,
        ..Default::default()
    };
    let ev = setup.evaluator();
    let mut session = TuningSession::new(setup.space.clone(), &ev).with_batch(batch());
    session.run(&RsGde3Tuner::new(params))
}

/// Hypervolume of a front under fixed normalization bounds.
pub fn hv_under(points: &[Point], ideal: &[f64], nadir: &[f64]) -> f64 {
    hypervolume(&normalize_front(points, ideal, nadir))
}

/// Compare brute force, random search and RS-GDE3 (paper §V-B.3):
/// stochastic methods run `runs` times with seeds `0..runs`; random search
/// gets RS-GDE3's mean evaluation budget, as in the paper. Every method is
/// measured against the cell's [`oracle`] at the same grid resolution.
pub fn compare_methods(setup: &Setup, grid_points: usize, runs: u64) -> Comparison {
    let brute = sweep(setup, &grid_axes(setup, grid_points));
    let oracle = oracle(setup, grid_points);
    let noise_free = setup.exact();
    let exact = noise_free.evaluator();

    let rs_results: Vec<TuningReport> = (0..runs).map(|seed| run_rsgde3(setup, seed)).collect();
    let rsgde3_stats = MethodStats::of(&rs_results, &exact, &oracle);
    let budget = rsgde3_stats.e.round() as u64;
    let rnd_results: Vec<TuningReport> = (0..runs)
        .map(|seed| {
            let ev = setup.evaluator();
            let mut session = TuningSession::new(setup.space.clone(), &ev)
                .with_batch(batch())
                .with_budget(budget);
            session.run(&RandomTuner::new(seed))
        })
        .collect();

    Comparison {
        brute_stats: MethodStats::of(std::slice::from_ref(&brute), &exact, &oracle),
        random_stats: MethodStats::of(&rnd_results, &exact, &oracle),
        rsgde3_stats,
        random_runs: rnd_results,
        rsgde3_runs: rs_results,
        oracle,
        brute,
    }
}

// ---------------------------------------------------------------------------
// Fig. 2 heat maps
// ---------------------------------------------------------------------------

/// Relative execution times over an (ti, tj) grid for fixed `tk` and
/// `threads`; values are normalized so the grid minimum is 1.0.
pub fn heatmap_data(
    setup: &Setup,
    tk: i64,
    threads: i64,
    points: usize,
) -> (Vec<i64>, Vec<i64>, Vec<Vec<f64>>) {
    assert!(setup.tile_dims() == 3, "heat map requires a 3-d tile space");
    let (lo_i, hi_i) = setup.space.domains[0].extremes();
    let (lo_j, hi_j) = setup.space.domains[1].extremes();
    let axis_i = geometric_axis(lo_i.max(1), hi_i, points);
    let axis_j = geometric_axis(lo_j.max(1), hi_j, points);
    let configs: Vec<Config> = axis_i
        .iter()
        .flat_map(|&ti| axis_j.iter().map(move |&tj| vec![ti, tj, tk, threads]))
        .collect();
    let ev = setup.evaluator();
    let objs = batch().run(&ev, &configs);
    let times: Vec<f64> = objs
        .iter()
        .map(|o| o.as_ref().expect("infeasible heat map config")[0])
        .collect();
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let grid: Vec<Vec<f64>> = axis_i
        .iter()
        .enumerate()
        .map(|(r, _)| {
            axis_j
                .iter()
                .enumerate()
                .map(|(c, _)| times[r * axis_j.len() + c] / min)
                .collect()
        })
        .collect();
    (axis_i, axis_j, grid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore]
    fn diag_nbody() {
        let s = Setup::new(Kernel::Nbody, MachineDesc::barcelona(), None);
        let study = per_thread_study(&s, 24);
        for (t, b) in study.thread_counts.iter().zip(&study.best) {
            println!("t={t}: best cfg={:?} time={:.4}", b.config, b.objectives[0]);
        }
        // landscape along tj at ti=1024 for t=1 and t=4
        for t in [1i64, 4] {
            for tj in [512i64, 2048, 8192, 16384, 24576, 32768] {
                let p = s.eval(&vec![1024, tj, t]);
                println!("  t={t} tj={tj}: time={:.4}", p.objectives[0]);
            }
        }
    }

    #[test]
    #[ignore]
    fn diag_front() {
        let s = Setup::new(Kernel::Mm, MachineDesc::westmere(), None);
        for seed in 0..3 {
            let r = run_rsgde3(&s, seed);
            println!(
                "seed {seed}: E={} gens={} |S|={}",
                r.evaluations,
                r.iterations,
                r.front.len()
            );
            for p in r.front.sorted_by(0) {
                println!(
                    "   t={:.4} r={:.4} cfg={:?}",
                    p.objectives[0], p.objectives[1], p.config
                );
            }
        }
    }

    #[test]
    #[ignore]
    fn diag_population_dynamics() {
        use moat::core::{Gde3, Gde3Params};
        use rand::SeedableRng;
        let s = Setup::new(Kernel::Mm, MachineDesc::westmere(), None);
        let ev = s.evaluator();
        let gde3 = Gde3::new(s.space.clone(), Gde3Params::default());
        let b = batch();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let bbox = s.space.full_box();
        let mut pop = gde3.init_population(&ev, &b, &bbox, &mut rng);
        for gen in 0..25 {
            let mut threads: Vec<i64> = pop.iter().map(|p| p.config[3]).collect();
            threads.sort();
            let front = moat::core::ParetoFront::from_points(pop.clone());
            println!(
                "gen {gen}: |pop|={} |nd|={} threads={threads:?}",
                pop.len(),
                front.len()
            );
            gde3.generation(&mut pop, &ev, &b, &bbox, &mut rng);
        }
    }

    fn small_setup() -> Setup {
        Setup::new(Kernel::Mm, MachineDesc::westmere(), Some(128))
    }

    #[test]
    fn geometric_axis_properties() {
        let a = geometric_axis(1, 700, 24);
        assert_eq!(*a.first().unwrap(), 1);
        assert_eq!(*a.last().unwrap(), 700);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.len() >= 20 && a.len() <= 25);
    }

    #[test]
    fn grid_axes_shape() {
        let s = small_setup();
        let axes = grid_axes(&s, 8);
        assert_eq!(axes.len(), 4);
        assert_eq!(axes[3], vec![1, 5, 10, 20, 40]);
        let fixed = grid_axes_fixed_threads(&s, 8, 10);
        assert_eq!(fixed[3], vec![10]);
    }

    #[test]
    fn per_thread_study_invariants() {
        let s = small_setup();
        let study = per_thread_study(&s, 6);
        assert_eq!(study.best.len(), 5);
        // Diagonal is zero; all entries non-negative.
        for (r, row) in study.loss.iter().enumerate() {
            assert_eq!(row[r], 0.0);
            assert!(row.iter().all(|&x| x >= 0.0));
        }
        // More threads → faster best time (monotone for mm at this size).
        let times: Vec<f64> = study.best.iter().map(|p| p.objectives[0]).collect();
        assert!(times[0] > *times.last().unwrap());
        assert!(study.evaluations > 0);
    }

    #[test]
    fn tradeoffs_consistent() {
        let s = small_setup();
        let study = per_thread_study(&s, 6);
        let rows = thread_tradeoffs(&study);
        assert_eq!(rows[0].speedup, 1.0);
        assert_eq!(rows[0].efficiency, 1.0);
        for r in &rows {
            assert!((r.rel_resources - r.threads as f64 * r.rel_time).abs() < 1e-12);
            assert!(r.efficiency <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn comparison_shapes_hold() {
        let s = small_setup();
        let cmp = compare_methods(&s, 10, 3);
        // RS-GDE3 uses a small fraction of brute-force evaluations (the
        // real experiments use a 24-point grid where the ratio is ~100x).
        assert!(cmp.rsgde3_stats.e * 3.0 < cmp.brute_stats.e);
        // Random gets the same budget as RS-GDE3.
        assert!((cmp.random_stats.e - cmp.rsgde3_stats.e).abs() / cmp.rsgde3_stats.e < 0.05);
        // RS-GDE3 beats random on hypervolume.
        assert!(cmp.rsgde3_stats.v > cmp.random_stats.v);
        assert!(cmp.brute_stats.v > 0.0);
        // Fig. 9's and Table VI's claims: over the seeds, RS-GDE3 is closer
        // to the exact front than random search and than the brute-force
        // grid, which at the oracle's resolution cannot beat the exact front.
        let (rs, rnd) = (cmp.rsgde3_stats.eps_median(), cmp.random_stats.eps_median());
        let brute = cmp.brute_stats.eps[0].0;
        assert!(rs < rnd, "median ε×: rs-gde3 {rs} vs random {rnd}");
        assert!(
            rs <= brute,
            "median ε×: rs-gde3 {rs} vs brute force {brute}"
        );
        assert!(brute >= 1.0, "brute force beats the exact front: {brute}");
        // One report per run and method; the worst seed is one of the
        // runs, as it ran.
        assert_eq!(cmp.rsgde3_runs.len(), 3);
        assert_eq!(cmp.random_runs.len(), 3);
        let worst = cmp.worst_rsgde3_run();
        let w = worst.seed as usize;
        assert!(w < 3);
        assert_eq!(worst.e, cmp.rsgde3_runs[w].evaluations);
        assert_eq!(worst.s, cmp.rsgde3_runs[w].front.len());
        assert_eq!(worst.eps, cmp.rsgde3_stats.eps[w]);
        assert!(worst.eps.0 >= rs && worst.eps.1 >= worst.eps.0);
    }

    #[test]
    fn heatmap_normalized() {
        let s = small_setup();
        let (ai, aj, grid) = heatmap_data(&s, 8, 10, 5);
        assert_eq!(grid.len(), ai.len());
        assert_eq!(grid[0].len(), aj.len());
        let min = grid.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        assert!((min - 1.0).abs() < 1e-12);
    }
}
