//! Weighted-sum scalarization baseline.
//!
//! The conventional way to handle multiple objectives with a
//! single-objective tuner (as in the related work the paper contrasts
//! with, e.g. Fursin et al., which "yields a single configuration instead
//! of a full Pareto set"): fix a weight vector `w`, minimize
//! `Σ w_c · f_c`, and repeat for several weight vectors to sketch a front.
//! Its textbook weakness — points in non-convex front regions are
//! unreachable for *any* weights, and evaluations are not shared between
//! the sweeps — makes it a meaningful baseline for the ablation study.

use crate::pareto::{ParetoArchive, Point};
use crate::rsgde3::FrontSignature;
use crate::space::Config;
use crate::tuner::{StopReason, Tuner, TuningReport, TuningSession};
use rand::Rng;

/// Knobs for the weighted-sum sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedSweepParams {
    /// Number of weight vectors, evenly spread over the simplex edge
    /// `(w, 1-w)` for two objectives (interior spread for more).
    pub num_weights: usize,
    /// Population of each single-objective DE run.
    pub pop_size: usize,
    /// Generations per weight vector.
    pub generations: u32,
    /// Differential weight / crossover probability (DE/rand/1/bin).
    pub f: f64,
    /// Crossover probability.
    pub cr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WeightedSweepParams {
    fn default() -> Self {
        WeightedSweepParams {
            num_weights: 10,
            pop_size: 20,
            generations: 15,
            f: 0.5,
            cr: 0.5,
            seed: 42,
        }
    }
}

/// Weighted-sum scalarization as a [`Tuner`]: one single-objective DE
/// minimization per weight vector; the final front is the non-dominated
/// set of the per-weight winners.
///
/// Each weight vector is one session iteration; the report's trace holds
/// one [`FrontSignature`] of the accumulated winner set per completed
/// weight.
#[derive(Debug, Clone)]
pub struct WeightedSumTuner {
    /// Parameters.
    pub params: WeightedSweepParams,
}

impl WeightedSumTuner {
    /// Tuner with the given parameters.
    pub fn new(params: WeightedSweepParams) -> Self {
        WeightedSumTuner { params }
    }
}

impl Tuner for WeightedSumTuner {
    fn name(&self) -> &'static str {
        "wsum"
    }

    fn tune(&self, session: &mut TuningSession<'_>) -> TuningReport {
        let params = self.params;
        let m = session.num_objectives();
        let space = session.space().clone();
        // The winners of the completed weight sweeps are the run's
        // population; the probe's normalization bounds travel in `scale`.
        let (mut run, resumed) = session.start(Some(params.seed));
        if !resumed {
            // Normalization bounds from an initial random sample (a
            // scalarizing tuner needs *some* scale; this mirrors common
            // practice).
            let rng = run.rng.as_mut().expect("seeded");
            let probe: Vec<Config> = (0..30).map(|_| space.sample(rng)).collect();
            let probe_results = session.evaluate(&probe);
            crate::tuner::record_feasible(&mut run.all, &probe, &probe_results);
            let probe_objs: Vec<Vec<f64>> = probe_results.into_iter().flatten().collect();
            if probe_objs.is_empty() {
                // No feasible probe — out of budget or an infeasible space.
                let stop = if session.budget_exhausted() {
                    StopReason::BudgetExhausted
                } else {
                    StopReason::SpaceExhausted
                };
                return session.finish(run, stop);
            }
            run.scale = vec![(f64::INFINITY, f64::NEG_INFINITY); m];
            for o in &probe_objs {
                for (c, (lo, hi)) in run.scale.iter_mut().enumerate() {
                    *lo = lo.min(o[c]);
                    *hi = hi.max(o[c]);
                }
            }
            session.offer(self.name(), &run);
        }
        let (lo, hi): (Vec<f64>, Vec<f64>) = run.scale.iter().copied().unzip();
        let scalar = |objs: &[f64], w: &[f64]| -> f64 {
            objs.iter()
                .enumerate()
                .map(|(c, &x)| {
                    let span = hi[c] - lo[c];
                    w[c] * if span > 0.0 { (x - lo[c]) / span } else { 0.0 }
                })
                .sum()
        };

        let mut stop = StopReason::Completed;
        while run.cursor < params.num_weights as u64 {
            let wi = run.cursor as usize;
            session.begin_iteration();
            let rng = run.rng.as_mut().expect("seeded");
            // Evenly spread weights; for m > 2 the remaining mass is split
            // uniformly over the other objectives.
            let t = if params.num_weights > 1 {
                wi as f64 / (params.num_weights - 1) as f64
            } else {
                0.5
            };
            let mut w = vec![(1.0 - t) / (m as f64 - 1.0); m];
            w[0] = t;

            // Single-objective DE/rand/1/bin.
            let init: Vec<Config> = (0..params.pop_size).map(|_| space.sample(rng)).collect();
            let objs = session.evaluate(&init);
            crate::tuner::record_feasible(&mut run.all, &init, &objs);
            let mut pop: Vec<(Config, Vec<f64>, f64)> = init
                .into_iter()
                .zip(objs)
                .filter_map(|(c, o)| o.map(|o| (c.clone(), o.clone(), scalar(&o, &w))))
                .collect();
            if pop.len() < 4 {
                if session.budget_exhausted() {
                    stop = StopReason::BudgetExhausted;
                    break;
                }
                run.cursor += 1;
                continue;
            }
            for _ in 0..params.generations {
                let n = pop.len();
                let trials: Vec<Config> = (0..n)
                    .map(|i| {
                        let mut picks = [0usize; 3];
                        let mut got = 0;
                        while got < 3 {
                            let cand = rng.random_range(0..n);
                            if cand != i && !picks[..got].contains(&cand) {
                                picks[got] = cand;
                                got += 1;
                            }
                        }
                        let dims = pop[i].0.len();
                        let force = rng.random_range(0..dims);
                        let cfg: Config = (0..dims)
                            .map(|d| {
                                if rng.random::<f64>() < params.cr || d == force {
                                    pop[picks[0]].0[d]
                                        + (params.f
                                            * (pop[picks[1]].0[d] - pop[picks[2]].0[d]) as f64)
                                            .round()
                                            as i64
                                } else {
                                    pop[i].0[d]
                                }
                            })
                            .collect();
                        space.nearest(&cfg)
                    })
                    .collect();
                let objs = session.evaluate(&trials);
                crate::tuner::record_feasible(&mut run.all, &trials, &objs);
                for i in 0..n {
                    if let Some(o) = &objs[i] {
                        let s = scalar(o, &w);
                        if s < pop[i].2 {
                            pop[i] = (trials[i].clone(), o.clone(), s);
                        }
                    }
                }
                if session.budget_exhausted() {
                    break;
                }
            }
            if let Some(best) = pop
                .into_iter()
                .min_by(|a, b| a.2.partial_cmp(&b.2).expect("NaN fitness"))
            {
                run.population.push(Point::new(best.0, best.1));
            }
            let sig = FrontSignature::of(&run.population);
            session.front_updated(&sig);
            run.trace.push(sig);
            if session.budget_exhausted() {
                stop = StopReason::BudgetExhausted;
                break;
            }
            // Safe boundary: weight `wi` is complete and the next sweep
            // depends only on the state captured here.
            run.cursor += 1;
            session.offer(self.name(), &run);
        }
        run.archive = ParetoArchive::from_points(std::mem::take(&mut run.population));
        session.finish(run, stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{BatchEval, Evaluator, ObjVec};
    use crate::space::{Domain, ParamSpace};

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

    fn sweep(space: &ParamSpace, ev: &dyn Evaluator, params: WeightedSweepParams) -> TuningReport {
        let mut session = TuningSession::new(space.clone(), ev).with_batch(BatchEval::sequential());
        session.run(&WeightedSumTuner::new(params))
    }

    #[test]
    fn finds_both_extremes() {
        let (space, ev) = problem();
        let r = sweep(&space, &ev, Default::default());
        assert!(!r.front.is_empty());
        let best0 = r
            .front
            .points()
            .iter()
            .map(|p| p.objectives[0])
            .fold(f64::INFINITY, f64::min);
        let best1 = r
            .front
            .points()
            .iter()
            .map(|p| p.objectives[1])
            .fold(f64::INFINITY, f64::min);
        assert!(
            best0 <= 20.0,
            "w=(1,0) sweep must find the cheap extreme: {best0}"
        );
        assert!(
            best1 <= 200.0,
            "w=(0,1) sweep must find the other extreme: {best1}"
        );
        assert!(r.evaluations > 0);
    }

    #[test]
    fn front_is_at_most_num_weights() {
        let (space, ev) = problem();
        let params = WeightedSweepParams {
            num_weights: 6,
            ..Default::default()
        };
        let r = sweep(&space, &ev, params);
        assert!(
            r.front.len() <= 6,
            "one winner per weight at most: {}",
            r.front.len()
        );
    }

    #[test]
    fn deterministic() {
        let (space, ev) = problem();
        let a = sweep(&space, &ev, Default::default());
        let b = sweep(&space, &ev, Default::default());
        assert_eq!(a.front.points(), b.front.points());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn one_trace_signature_per_completed_weight() {
        let (space, ev) = problem();
        let params = WeightedSweepParams {
            num_weights: 4,
            ..Default::default()
        };
        let r = sweep(&space, &ev, params);
        assert_eq!(r.trace.len(), 4);
        assert_eq!(r.iterations, 4);
    }
}
