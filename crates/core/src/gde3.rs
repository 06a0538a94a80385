//! GDE3 — Generalized Differential Evolution 3 (Kukkonen & Lampinen).
//!
//! The paper's search engine (§III-B.3): a differential-evolution variant
//! for multi-objective problems. Per generation, every population member
//! `a` produces one trial vector `r` from three other distinct members
//! `b, c, d` (Algorithm 1 of the paper, DE/rand/1/bin with `CR = F = 0.5`):
//!
//! ```text
//! r(i) = b(i) + F · (c(i) − d(i))   with probability CR (and at one forced index)
//! r(i) = a(i)                        otherwise
//! ```
//!
//! the trial is projected onto the current (rough-set-reduced) search-space
//! boundary (`B.getClosestTo(r)`), then:
//! * if `r` dominates `a`, it replaces `a`;
//! * if `a` dominates `r`, the trial is discarded;
//! * otherwise both are kept (population growth), and the population is
//!   pruned back to its nominal size by non-dominated sorting + crowding
//!   distance.

use crate::evaluate::ObjVec;
use crate::evaluate::{BatchEval, Evaluator};
use crate::pareto::{crowding_distances, dominates, Point, Ranking};
use crate::space::{Config, ParamSpace};
use rand::Rng;

/// GDE3 knobs. Defaults follow the paper: `CR = F = 0.5`, population 30.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gde3Params {
    /// Population size.
    pub pop_size: usize,
    /// Crossover probability `CR`.
    pub cr: f64,
    /// Differential weight `F`.
    pub f: f64,
}

impl Default for Gde3Params {
    fn default() -> Self {
        Gde3Params {
            pop_size: 30,
            cr: 0.5,
            f: 0.5,
        }
    }
}

/// The GDE3 algorithm bound to a configuration space.
#[derive(Debug, Clone)]
pub struct Gde3 {
    /// Parameters.
    pub params: Gde3Params,
    /// The configuration space (projection target).
    pub space: ParamSpace,
}

impl Gde3 {
    /// Create an instance.
    pub fn new(space: ParamSpace, params: Gde3Params) -> Self {
        Gde3 { params, space }
    }

    /// Generate one trial configuration for population member `idx`
    /// (Algorithm 1), projected into `bbox` and the space.
    pub fn trial(
        &self,
        population: &[Point],
        idx: usize,
        bbox: &[(i64, i64)],
        rng: &mut impl Rng,
    ) -> Config {
        let n = population.len();
        assert!(n >= 4, "GDE3 requires at least 4 population members");
        // Pick b, c, d distinct from a and from each other.
        let mut picks = [0usize; 3];
        let mut chosen = 0;
        while chosen < 3 {
            let cand = rng.random_range(0..n);
            if cand != idx && !picks[..chosen].contains(&cand) {
                picks[chosen] = cand;
                chosen += 1;
            }
        }
        let a = &population[idx].config;
        let b = &population[picks[0]].config;
        let c = &population[picks[1]].config;
        let d = &population[picks[2]].config;

        let dims = a.len();
        let force = rng.random_range(0..dims); // Algorithm 1, line 3
        let mut r: Config = (0..dims)
            .map(|i| {
                if rng.random::<f64>() < self.params.cr || i == force {
                    b[i] + (self.params.f * (c[i] - d[i]) as f64).round() as i64
                } else {
                    a[i]
                }
            })
            .collect();
        // B.getClosestTo(r): clamp into the reduced boundary, then project
        // onto the admissible domain values.
        for (i, x) in r.iter_mut().enumerate() {
            *x = (*x).clamp(bbox[i].0, bbox[i].1);
        }
        self.space.nearest(&r)
    }

    /// Initialize a population of evaluated points, sampling uniformly
    /// within `bbox`. Configurations whose evaluation fails are resampled
    /// (up to a bounded number of attempts).
    pub fn init_population(
        &self,
        evaluator: &dyn Evaluator,
        batch: &BatchEval,
        bbox: &[(i64, i64)],
        rng: &mut impl Rng,
    ) -> Vec<Point> {
        let population =
            self.init_population_with(&mut |cfgs| batch.run(evaluator, cfgs), bbox, rng);
        assert!(
            population.len() >= 4,
            "could not build a feasible initial population"
        );
        population
    }

    /// [`init_population`](Self::init_population) against an arbitrary
    /// batch-evaluation callback (e.g. a budget-enforcing
    /// [`TuningSession`](crate::tuner::TuningSession)). May return fewer
    /// than four members if the callback keeps rejecting samples; callers
    /// decide whether that is fatal.
    pub fn init_population_with(
        &self,
        eval: &mut dyn FnMut(&[Config]) -> Vec<Option<ObjVec>>,
        bbox: &[(i64, i64)],
        rng: &mut impl Rng,
    ) -> Vec<Point> {
        let mut population = Vec::with_capacity(self.params.pop_size);
        self.fill_population_with(&mut population, eval, bbox, rng);
        population
    }

    /// Top `population` up to the nominal size with uniform samples from
    /// `bbox` (the warm-start path: already-evaluated seed points occupy
    /// the leading slots, random sampling fills the remainder).
    pub fn fill_population_with(
        &self,
        population: &mut Vec<Point>,
        eval: &mut dyn FnMut(&[Config]) -> Vec<Option<ObjVec>>,
        bbox: &[(i64, i64)],
        rng: &mut impl Rng,
    ) {
        population.truncate(self.params.pop_size);
        let mut attempts = 0;
        while population.len() < self.params.pop_size && attempts < 20 {
            let want = self.params.pop_size - population.len();
            let configs: Vec<Config> = (0..want)
                .map(|_| self.space.sample_within(bbox, rng))
                .collect();
            let objs = eval(&configs);
            for (cfg, obj) in configs.into_iter().zip(objs) {
                if let Some(o) = obj {
                    population.push(Point::new(cfg, o));
                }
            }
            attempts += 1;
        }
    }

    /// Propose one trial configuration per population member (the
    /// variation phase of one generation). Exposed separately so several
    /// regions' generations can be evaluated jointly (paper §III-A: one
    /// program execution measures all simultaneously tuned regions).
    pub fn propose(
        &self,
        population: &[Point],
        bbox: &[(i64, i64)],
        rng: &mut impl Rng,
    ) -> Vec<Config> {
        (0..population.len())
            .map(|i| self.trial(population, i, bbox, rng))
            .collect()
    }

    /// Apply GDE3 selection for evaluated trials (index-aligned with the
    /// population; `None` objectives mean the trial was infeasible and is
    /// discarded). Prunes back to the nominal population size. A kept
    /// trial moves into the population; nothing is cloned.
    pub fn select(
        &self,
        population: &mut Vec<Point>,
        trials: Vec<Config>,
        objs: Vec<Option<ObjVec>>,
    ) {
        let n = population.len();
        assert_eq!(trials.len(), n);
        assert_eq!(objs.len(), n);
        // Trials that neither dominate nor are dominated by their parent
        // grow the population past `n`; indices below `n` stay the parents.
        for (i, (trial, obj)) in trials.into_iter().zip(objs).enumerate() {
            let Some(obj) = obj else { continue };
            let parent = &population[i].objectives;
            if dominates(&obj, parent) || obj == *parent {
                population[i] = Point::new(trial, obj);
            } else if !dominates(parent, &obj) {
                population.push(Point::new(trial, obj));
            }
        }
        if population.len() > self.params.pop_size {
            *population = prune(std::mem::take(population), self.params.pop_size);
        }
    }

    /// Run one GDE3 generation in place. Returns the number of trial
    /// configurations submitted for evaluation.
    pub fn generation(
        &self,
        population: &mut Vec<Point>,
        evaluator: &dyn Evaluator,
        batch: &BatchEval,
        bbox: &[(i64, i64)],
        rng: &mut impl Rng,
    ) -> usize {
        self.generation_with(
            population,
            &mut |cfgs| batch.run(evaluator, cfgs),
            bbox,
            rng,
        )
    }

    /// [`generation`](Self::generation) against an arbitrary
    /// batch-evaluation callback.
    pub fn generation_with(
        &self,
        population: &mut Vec<Point>,
        eval: &mut dyn FnMut(&[Config]) -> Vec<Option<ObjVec>>,
        bbox: &[(i64, i64)],
        rng: &mut impl Rng,
    ) -> usize {
        let trials = self.propose(population, bbox, rng);
        let objs = eval(&trials);
        let n = trials.len();
        self.select(population, trials, objs);
        n
    }
}

/// Reduce `points` to `target` members by non-dominated sorting, breaking
/// ties in the overflowing front by crowding distance (larger is kept).
pub fn prune(points: Vec<Point>, target: usize) -> Vec<Point> {
    if points.len() <= target {
        return points;
    }
    let ranking = Ranking::of(&points);
    let mut keep: Vec<usize> = Vec::with_capacity(target);
    for front in ranking.fronts() {
        if keep.len() + front.len() <= target {
            keep.extend_from_slice(front);
        } else {
            let dist = crowding_distances(&points, front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| {
                dist[b]
                    .partial_cmp(&dist[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &w in order.iter().take(target - keep.len()) {
                keep.push(front[w]);
            }
            break;
        }
    }
    let mut taken: Vec<Option<Point>> = points.into_iter().map(Some).collect();
    keep.into_iter()
        .map(|i| taken[i].take().expect("index kept twice"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Domain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Bi-objective test problem on integers: minimize (x², (x-50)²) plus a
    /// second dimension y that adds (y²) to both — optimum front along
    /// x ∈ [0, 50], y = 0.
    fn problem() -> (
        ParamSpace,
        (usize, impl Fn(&Config) -> Option<ObjVecAlias> + Sync),
    ) {
        let space = ParamSpace::new(
            vec!["x".into(), "y".into()],
            vec![
                Domain::Range { lo: -100, hi: 100 },
                Domain::Range { lo: -100, hi: 100 },
            ],
        );
        let ev = (2usize, |cfg: &Config| {
            let x = cfg[0] as f64;
            let y = cfg[1] as f64;
            Some(vec![x * x + y * y, (x - 50.0) * (x - 50.0) + y * y])
        });
        (space, ev)
    }

    type ObjVecAlias = Vec<f64>;

    #[test]
    fn trial_stays_in_space_and_box() {
        let (space, ev) = problem();
        let gde3 = Gde3::new(space.clone(), Gde3Params::default());
        let mut rng = StdRng::seed_from_u64(1);
        let batch = BatchEval::sequential();
        let bbox = vec![(-10, 10), (0, 5)];
        let pop = gde3.init_population(&ev, &batch, &bbox, &mut rng);
        for i in 0..pop.len() {
            let t = gde3.trial(&pop, i, &bbox, &mut rng);
            assert!(space.contains(&t));
            assert!(
                (-10..=10).contains(&t[0]) && (0..=5).contains(&t[1]),
                "{t:?}"
            );
        }
    }

    #[test]
    fn population_converges_towards_front() {
        let (space, ev) = problem();
        let gde3 = Gde3::new(space.clone(), Gde3Params::default());
        let mut rng = StdRng::seed_from_u64(7);
        let batch = BatchEval::sequential();
        let bbox = space.full_box();
        let mut pop = gde3.init_population(&ev, &batch, &bbox, &mut rng);
        for _ in 0..40 {
            gde3.generation(&mut pop, &ev, &batch, &bbox, &mut rng);
        }
        // After 40 generations most members should be near the true front
        // (y ≈ 0, x ∈ [0, 50]).
        let near: usize = pop
            .iter()
            .filter(|p| p.config[1].abs() <= 2 && (-2..=52).contains(&p.config[0]))
            .count();
        assert!(
            near * 10 >= pop.len() * 8,
            "only {near}/{} members near the optimum",
            pop.len()
        );
        assert!(pop.len() <= 30);
    }

    #[test]
    fn generation_never_worsens_members() {
        // Selection only ever replaces a member with a dominating (or
        // incomparable, via growth) point, so no member's objective vector
        // may become dominated by its previous self.
        let (space, ev) = problem();
        let gde3 = Gde3::new(space, Gde3Params::default());
        let mut rng = StdRng::seed_from_u64(3);
        let batch = BatchEval::sequential();
        let bbox = gde3.space.full_box();
        let mut pop = gde3.init_population(&ev, &batch, &bbox, &mut rng);
        let before = pop.clone();
        gde3.generation(&mut pop, &ev, &batch, &bbox, &mut rng);
        for (old, new) in before.iter().zip(pop.iter().take(before.len())) {
            // Pruning may reorder; we only check the no-regression property
            // for members that kept their slot identity by config equality.
            if old.config == new.config {
                assert_eq!(old.objectives, new.objectives);
            }
        }
    }

    #[test]
    fn prune_keeps_first_front_complete_when_possible() {
        let pts = vec![
            Point::new(vec![0], vec![1.0, 9.0]),
            Point::new(vec![1], vec![9.0, 1.0]),
            Point::new(vec![2], vec![5.0, 5.0]),
            Point::new(vec![3], vec![6.0, 6.0]), // dominated
            Point::new(vec![4], vec![2.0, 8.0]),
        ];
        let kept = prune(pts, 4);
        assert_eq!(kept.len(), 4);
        assert!(
            !kept.iter().any(|p| p.config == vec![3]),
            "the dominated point must be pruned first"
        );
    }

    #[test]
    fn prune_uses_crowding_in_overflow_front() {
        // 5 mutually non-dominated points, keep 3: boundary points must
        // survive (infinite crowding distance).
        let pts = vec![
            Point::new(vec![0], vec![0.0, 10.0]),
            Point::new(vec![1], vec![2.5, 7.5]),
            Point::new(vec![2], vec![5.0, 5.0]),
            Point::new(vec![3], vec![5.1, 4.9]), // crowded near [2]
            Point::new(vec![4], vec![10.0, 0.0]),
        ];
        let kept = prune(pts, 3);
        let ids: Vec<i64> = kept.iter().map(|p| p.config[0]).collect();
        assert!(
            ids.contains(&0) && ids.contains(&4),
            "extremes must survive: {ids:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn trial_requires_four_members() {
        let (space, _) = problem();
        let gde3 = Gde3::new(space, Gde3Params::default());
        let mut rng = StdRng::seed_from_u64(1);
        let pop = vec![
            Point::new(vec![0, 0], vec![0.0, 0.0]),
            Point::new(vec![1, 1], vec![1.0, 1.0]),
        ];
        gde3.trial(&pop, 0, &[(0, 1), (0, 1)], &mut rng);
    }
}
