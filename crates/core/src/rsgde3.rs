//! RS-GDE3 — the paper's optimization algorithm (Fig. 4).
//!
//! Iteratively: run a GDE3 generation inside the current (reduced) search
//! space; update the reduced search space from the resulting population via
//! the Rough-Set mechanism; terminate once the solution quality
//! (hypervolume of the archive of all evaluated configurations) has not
//! improved for a configurable number of consecutive iterations (the paper
//! uses three).

use crate::gde3::{Gde3, Gde3Params};
use crate::metrics::{hypervolume, hypervolume_2d_presorted};
use crate::pareto::{ParetoArchive, Point, Ranking};
use crate::roughset::{enclose_points, reduce_ranked};
use crate::space::{Config, ParamSpace};
use crate::tuner::{StopReason, Tuner, TuningReport, TuningSession};
use serde::{Deserialize, Serialize};

/// RS-GDE3 knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RsGde3Params {
    /// Inner GDE3 parameters (`CR = F = 0.5`, population 30 by default).
    pub gde3: Gde3Params,
    /// Stop after this many consecutive non-improving iterations (paper: 3).
    pub patience: u32,
    /// Hard cap on iterations (safety net; the paper's runs terminate by
    /// patience long before this).
    pub max_generations: u32,
    /// RNG seed (stochastic algorithm; the paper averages 5 runs).
    pub seed: u64,
    /// Enable the Rough-Set search-space reduction (disable for the
    /// ablation study: plain GDE3 in the full space).
    pub use_roughset: bool,
}

impl Default for RsGde3Params {
    fn default() -> Self {
        RsGde3Params {
            gde3: Gde3Params::default(),
            patience: 3,
            max_generations: 200,
            seed: 42,
            use_roughset: true,
        }
    }
}

impl RsGde3Params {
    /// RS-GDE3's step after one GDE3 generation (Fig. 4): archive the
    /// population; under [`use_roughset`](Self::use_roughset), reduce the
    /// search space from the population (Fig. 5), widened to keep every
    /// archived non-dominated solution inside it (mitigating the
    /// reduction's acknowledged risk of cutting off Pareto-optimal
    /// regions); and count the iteration as stalled unless the
    /// population's front signature improved over `last`. Returns that
    /// signature and the reduced box.
    pub fn step(
        &self,
        space: &ParamSpace,
        population: &[Point],
        archive: &mut ParetoArchive,
        last: &FrontSignature,
        stall: &mut u32,
    ) -> (FrontSignature, Option<Vec<(i64, i64)>>) {
        for p in population {
            archive.insert_cloned(p);
        }
        // One ranking serves the reduction and the signature.
        let ranking = Ranking::of(population);
        let bbox = self.use_roughset.then(|| {
            enclose_points(
                &reduce_ranked(space, population, &ranking),
                archive.points(),
            )
        });
        let sig = FrontSignature::signed(population, &ranking, None);
        if sig.improved_over(last) {
            *stall = 0;
        } else {
            *stall += 1;
        }
        (sig, bbox)
    }
}

/// The paper's algorithm as a [`Tuner`]: GDE3 generations inside a
/// gradually Rough-Set-reduced search space with a patience-based stopping
/// criterion. With [`RsGde3Params::use_roughset`] disabled this is plain
/// GDE3 in the full space (the ablation variant).
///
/// The report's trace holds one [`FrontSignature`] of the population's
/// non-dominated subset per iteration, plus one leading entry for the
/// initial population.
#[derive(Debug, Clone)]
pub struct RsGde3Tuner {
    /// Parameters.
    pub params: RsGde3Params,
}

impl RsGde3Tuner {
    /// Tuner with the given parameters.
    pub fn new(params: RsGde3Params) -> Self {
        RsGde3Tuner { params }
    }
}

impl Tuner for RsGde3Tuner {
    fn name(&self) -> &'static str {
        if self.params.use_roughset {
            "rs-gde3"
        } else {
            "gde3"
        }
    }

    fn tune(&self, session: &mut TuningSession<'_>) -> TuningReport {
        let gde3 = Gde3::new(session.space().clone(), self.params.gde3);
        let (mut run, resumed) = session.start(Some(self.params.seed));
        if run.bbox.is_empty() {
            run.bbox = session.space().full_box();
        }
        let mut last: FrontSignature;
        if resumed {
            // Initialization and seeding already happened in the
            // checkpointed run.
            last = run
                .trace
                .last()
                .cloned()
                .unwrap_or_else(|| FrontSignature::of(&run.population));
        } else {
            // Warm start: archived seed configurations occupy the leading
            // population slots (hinted ones are served from the primed cache,
            // transferred ones are re-evaluated and pay budget), then random
            // sampling fills the remainder.
            run.population = crate::tuner::evaluate_seeds(session, self.params.gde3.pop_size);
            run.all.extend(run.population.iter().cloned());
            let rng = run.rng.as_mut().expect("seeded");
            let mut eval = |cfgs: &[Config]| {
                let objs = session.evaluate(cfgs);
                crate::tuner::record_feasible(&mut run.all, cfgs, &objs);
                objs
            };
            gde3.fill_population_with(&mut run.population, &mut eval, &run.bbox, rng);
            for p in &run.population {
                run.archive.insert_cloned(p);
            }
            if run.population.len() < 4 {
                // Not enough feasible members for DE variation — out of budget
                // or a (near-)infeasible space.
                let stop = if session.budget_exhausted() {
                    StopReason::BudgetExhausted
                } else {
                    StopReason::SpaceExhausted
                };
                return session.finish(run, stop);
            }
            last = FrontSignature::of(&run.population);
            session.front_updated(&last);
            run.trace.push(last.clone());
            session.offer(self.name(), &run);
        }
        let mut stop = StopReason::MaxIterations;

        while run.stall < self.params.patience && session.iteration() < self.params.max_generations
        {
            session.begin_iteration();
            let rng = run.rng.as_mut().expect("seeded");
            let mut eval = |cfgs: &[Config]| {
                let objs = session.evaluate(cfgs);
                crate::tuner::record_feasible(&mut run.all, cfgs, &objs);
                objs
            };
            gde3.generation_with(&mut run.population, &mut eval, &run.bbox, rng);
            let (sig, bbox) = self.params.step(
                session.space(),
                &run.population,
                &mut run.archive,
                &last,
                &mut run.stall,
            );
            if let Some(bbox) = bbox {
                session.space_reduced(&bbox);
                run.bbox = bbox;
            }
            session.front_updated(&sig);
            run.trace.push(sig.clone());
            last = sig;
            if session.budget_exhausted() {
                stop = StopReason::BudgetExhausted;
                break;
            }
            // Safe boundary: the next iteration depends only on the state
            // captured here, so a resumed run continues bit-identically.
            session.offer(self.name(), &run);
        }
        if stop != StopReason::BudgetExhausted && run.stall >= self.params.patience {
            stop = StopReason::Converged;
        }
        session.finish(run, stop)
    }
}

/// How far a front's self-normalized hypervolume (absolutely) or any
/// coordinate of its ideal point (relatively) must move to count as an
/// improvement.
const HV_TOLERANCE: f64 = 1e-3;

/// Summary of the population's non-dominated subset used by the stopping
/// criterion: "solutions are no longer improving" means the front's size,
/// its per-objective ideal point and its self-normalized hypervolume have
/// all stagnated. (Hypervolume alone is blind to degenerate single-point
/// fronts during the early exploration phase.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontSignature {
    /// Number of non-dominated points.
    pub size: usize,
    /// Per-objective minima of the front.
    pub ideal: Vec<f64>,
    /// Hypervolume normalized by the front's own bounds.
    pub hv: f64,
}

impl FrontSignature {
    /// Compute the signature of a population's non-dominated subset.
    pub fn of(population: &[Point]) -> Self {
        Self::signed(population, &Ranking::of(population), None)
    }

    /// Signature of `points`' non-dominated subset with the hypervolume
    /// measured under externally fixed normalization bounds (e.g. the
    /// bounds of *all* evaluated points), instead of the front's own.
    pub fn under_bounds(points: &[Point], ideal: &[f64], nadir: &[f64]) -> Self {
        Self::signed(points, &Ranking::of(points), Some((ideal, nadir)))
    }

    /// The signature of `points`' first front, read in place: equal
    /// objective vectors count once, as in an archive, and the
    /// hypervolume — under `bounds`, else the front's own — sees the
    /// normalized points in the order [`hypervolume`] sorts them into (two
    /// objectives) or in index order (the order a `ParetoFront` built by
    /// insertion holds), so every bit equals that of the archived front.
    fn signed(points: &[Point], ranking: &Ranking, bounds: Option<(&[f64], &[f64])>) -> Self {
        let nd = ranking.first();
        let Some(&head) = nd.first() else {
            return FrontSignature {
                size: 0,
                ideal: Vec::new(),
                hv: 0.0,
            };
        };
        let objectives = |k: usize| points[nd[k]].objectives.as_slice();
        // The first of equal objective vectors stands for them all.
        let distinct: Vec<usize> = (0..nd.len())
            .filter(|&k| (0..k).all(|e| objectives(e) != objectives(k)))
            .map(|k| nd[k])
            .collect();
        let m = points[head].objectives.len();
        let mut ideal = vec![f64::INFINITY; m];
        let mut nadir = vec![f64::NEG_INFINITY; m];
        for &i in &distinct {
            for (k, &x) in points[i].objectives.iter().enumerate() {
                ideal[k] = ideal[k].min(x);
                nadir[k] = nadir[k].max(x);
            }
        }
        let (lo, hi) = bounds.unwrap_or((&ideal, &nadir));
        // `normalize_front`'s map, point by point.
        let scale = |k: usize, x: f64| {
            let span = hi[k] - lo[k];
            if span > 0.0 {
                ((x - lo[k]) / span).clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        let hv = if m == 2 {
            let mut pts: Vec<(f64, f64)> = distinct
                .iter()
                .map(|&i| {
                    let o = &points[i].objectives;
                    (scale(0, o[0]), scale(1, o[1]))
                })
                .collect();
            pts.sort_by(|a, b| a.partial_cmp(b).expect("NaN objective"));
            hypervolume_2d_presorted(&pts)
        } else {
            let normalized: Vec<Vec<f64>> = distinct
                .iter()
                .map(|&i| {
                    let o = points[i].objectives.iter().enumerate();
                    o.map(|(k, &x)| scale(k, x)).collect()
                })
                .collect();
            hypervolume(&normalized)
        };
        FrontSignature {
            size: distinct.len(),
            ideal,
            hv,
        }
    }

    /// True if this signature shows improvement over `prev`. During the
    /// exploration phase (front still degenerate — fewer points than
    /// objectives-space dimensions can meaningfully span) any size change
    /// counts; afterwards the front must move: its self-normalized
    /// hypervolume or its ideal point must change by more than
    /// [`HV_TOLERANCE`].
    pub fn improved_over(&self, prev: &FrontSignature) -> bool {
        let exploring = self.size < 4 || prev.size < 4;
        if exploring && self.size != prev.size {
            return true;
        }
        if (self.hv - prev.hv).abs() > HV_TOLERANCE {
            return true;
        }
        self.ideal
            .iter()
            .zip(&prev.ideal)
            .any(|(now, before)| *now < *before * (1.0 - HV_TOLERANCE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{BatchEval, Evaluator, ObjVec};
    use crate::space::{Domain, ParamSpace};

    /// Discrete two-parameter problem with a known Pareto front:
    /// f = (x + y, (x - 80)² + (y - 80)²) over [0, 100]².
    fn problem() -> (
        ParamSpace,
        (usize, impl Fn(&Config) -> Option<ObjVec> + Sync),
    ) {
        let space = ParamSpace::new(
            vec!["x".into(), "y".into()],
            vec![
                Domain::Range { lo: 0, hi: 100 },
                Domain::Range { lo: 0, hi: 100 },
            ],
        );
        let ev = (2usize, |cfg: &Config| {
            let (x, y) = (cfg[0] as f64, cfg[1] as f64);
            Some(vec![x + y, (x - 80.0).powi(2) + (y - 80.0).powi(2)])
        });
        (space, ev)
    }

    fn run(
        space: &ParamSpace,
        ev: &dyn Evaluator,
        batch: BatchEval,
        params: RsGde3Params,
    ) -> TuningReport {
        let mut session = TuningSession::new(space.clone(), ev).with_batch(batch);
        session.run(&RsGde3Tuner::new(params))
    }

    #[test]
    fn converges_and_terminates() {
        let (space, ev) = problem();
        let result = run(
            &space,
            &ev,
            BatchEval::sequential(),
            RsGde3Params::default(),
        );
        assert!(
            result.iterations >= 3,
            "must run at least patience iterations"
        );
        assert!(result.iterations < 200, "must terminate by patience");
        assert_eq!(result.stop, StopReason::Converged);
        assert!(!result.front.is_empty());
        // Evaluations bounded by pop_size × (iterations + init retries).
        assert!(result.evaluations <= 30 * (result.iterations as u64 + 20));
        // The front must contain a point near each extreme: small x+y and
        // small distance-to-(80,80).
        let best_sum = result
            .front
            .points()
            .iter()
            .map(|p| p.objectives[0])
            .fold(f64::INFINITY, f64::min);
        let best_dist = result
            .front
            .points()
            .iter()
            .map(|p| p.objectives[1])
            .fold(f64::INFINITY, f64::min);
        assert!(best_sum <= 20.0, "extreme 1 missed: {best_sum}");
        assert!(best_dist <= 100.0, "extreme 2 missed: {best_dist}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (space, ev) = problem();
        let a = run(
            &space,
            &ev,
            BatchEval::sequential(),
            RsGde3Params::default(),
        );
        let b = run(
            &space,
            &ev,
            BatchEval::sequential(),
            RsGde3Params::default(),
        );
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.front.points(), b.front.points());
    }

    #[test]
    fn different_seeds_explore_differently() {
        let (space, ev) = problem();
        let p1 = RsGde3Params {
            seed: 1,
            ..Default::default()
        };
        let p2 = RsGde3Params {
            seed: 2,
            ..Default::default()
        };
        let a = run(&space, &ev, BatchEval::sequential(), p1);
        let b = run(&space, &ev, BatchEval::sequential(), p2);
        // Not a hard guarantee, but with different seeds identical
        // evaluation counts *and* identical fronts would indicate a seeding
        // bug.
        assert!(
            a.evaluations != b.evaluations || a.front.points() != b.front.points(),
            "seeds appear to be ignored"
        );
    }

    #[test]
    fn trace_hv_monotone_nondecreasing() {
        // The archive only grows, but normalization bounds move; allow tiny
        // dips from renormalization while requiring overall improvement.
        let (space, ev) = problem();
        let r = run(
            &space,
            &ev,
            BatchEval::sequential(),
            RsGde3Params::default(),
        );
        // One signature per iteration plus the initial population's.
        assert_eq!(r.trace.len() as u32, r.iterations + 1);
        assert!(
            r.trace.last().unwrap().hv >= r.trace.first().unwrap().hv,
            "hypervolume should improve over the run"
        );
    }

    #[test]
    fn parallel_batch_gives_valid_result() {
        let (space, ev) = problem();
        let r = run(&space, &ev, BatchEval::parallel(4), RsGde3Params::default());
        assert!(!r.front.is_empty());
        // Same seed, same algorithm: parallel evaluation must not change
        // the search trajectory (results are order-preserving).
        let rseq = run(
            &space,
            &ev,
            BatchEval::sequential(),
            RsGde3Params::default(),
        );
        assert_eq!(r.front.points(), rseq.front.points());
    }
}
