//! NSGA-II — an additional evolutionary baseline (extension beyond the
//! paper's comparison set; used by the ablation benchmarks to position
//! RS-GDE3 against the most common multi-objective GA).
//!
//! Standard generational scheme (Deb et al. 2002) adapted to integer
//! configuration vectors: binary tournament on (rank, crowding), uniform
//! crossover, random-reset mutation, and environmental selection via
//! non-dominated sorting + crowding (shared with GDE3's pruning).

use crate::gde3::prune;
use crate::metrics::extend_bounds;
use crate::pareto::{crowding_distances, fast_nondominated_sort, Point};
use crate::rsgde3::FrontSignature;
use crate::space::Config;
use crate::tuner::{StopReason, Tuner, TuningReport, TuningSession};
use rand::rngs::StdRng;
use rand::Rng;

/// NSGA-II knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Params {
    /// Population size.
    pub pop_size: usize,
    /// Per-individual crossover probability.
    pub crossover_prob: f64,
    /// Per-gene mutation probability (defaults to `1/dims` when `None`
    /// semantics are needed; here a fixed value).
    pub mutation_prob: f64,
    /// Generations to run.
    pub generations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Nsga2Params {
    fn default() -> Self {
        Nsga2Params {
            pop_size: 30,
            crossover_prob: 0.9,
            mutation_prob: 0.2,
            generations: 25,
            seed: 42,
        }
    }
}

/// NSGA-II as a [`Tuner`].
///
/// The report's trace holds one [`FrontSignature`] of the archive per
/// generation, with hypervolumes normalized over *all* points evaluated so
/// far (the legacy `hv_history` scale).
#[derive(Debug, Clone)]
pub struct Nsga2Tuner {
    /// Parameters.
    pub params: Nsga2Params,
}

impl Nsga2Tuner {
    /// Tuner with the given parameters.
    pub fn new(params: Nsga2Params) -> Self {
        Nsga2Tuner { params }
    }
}

impl Tuner for Nsga2Tuner {
    fn name(&self) -> &'static str {
        "nsga2"
    }

    fn tune(&self, session: &mut TuningSession<'_>) -> TuningReport {
        let params = self.params;
        let space = session.space().clone();
        let (mut run, resumed) = session.start(Some(params.seed));
        // Running ideal/nadir over every evaluated point — same values as
        // `objective_bounds(&run.all)` without the per-generation rescan.
        // Checkpoints carry them in `scale`.
        let mut bounds: Option<(Vec<f64>, Vec<f64>)> = None;
        if resumed {
            // Continue from the first generation the checkpointed run had
            // not completed.
            if !run.scale.is_empty() {
                bounds = Some(run.scale.iter().copied().unzip());
            }
        } else {
            // Initial population: warm-start seeds first (hinted seeds are
            // free cache hits, transferred seeds pay budget), then random
            // sampling fills the remainder.
            run.population = crate::tuner::evaluate_seeds(session, params.pop_size);
            let rng = run.rng.as_mut().expect("seeded");
            let mut attempts = 0;
            while run.population.len() < params.pop_size
                && attempts < 20
                && !session.budget_exhausted()
            {
                let configs: Vec<Config> = (0..params.pop_size - run.population.len())
                    .map(|_| space.sample(rng))
                    .collect();
                for (cfg, obj) in configs.iter().zip(session.evaluate(&configs)) {
                    if let Some(o) = obj {
                        run.population.push(Point::new(cfg.clone(), o));
                    }
                }
                attempts += 1;
            }
            for p in &run.population {
                run.archive.insert_cloned(p);
                extend_bounds(&mut bounds, p);
                run.all.push(p.clone());
            }

            if run.population.len() < 2 {
                // Tournament selection needs at least two members — out of
                // budget or a (near-)infeasible space.
                let stop = if session.budget_exhausted() {
                    StopReason::BudgetExhausted
                } else {
                    StopReason::SpaceExhausted
                };
                return session.finish(run, stop);
            }
            set_scale(&mut run.scale, &bounds);
            session.offer(self.name(), &run);
        }

        let mut stop = StopReason::Completed;
        while run.cursor < u64::from(params.generations) {
            session.begin_iteration();
            let population = &run.population;
            let rng = run.rng.as_mut().expect("seeded");
            // Ranks + crowding for tournament selection.
            let fronts = fast_nondominated_sort(population);
            let mut rank = vec![0usize; population.len()];
            let mut crowd = vec![0.0f64; population.len()];
            for (fi, front) in fronts.iter().enumerate() {
                let d = crowding_distances(population, front);
                for (w, &i) in front.iter().enumerate() {
                    rank[i] = fi;
                    crowd[i] = d[w];
                }
            }
            let tournament = |rng: &mut StdRng| -> usize {
                let a = rng.random_range(0..population.len());
                let b = rng.random_range(0..population.len());
                if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
                    a
                } else {
                    b
                }
            };

            // Variation.
            let mut offspring: Vec<Config> = Vec::with_capacity(params.pop_size);
            while offspring.len() < params.pop_size {
                let p1 = &population[tournament(rng)].config;
                let p2 = &population[tournament(rng)].config;
                let mut child: Config = if rng.random::<f64>() < params.crossover_prob {
                    p1.iter()
                        .zip(p2)
                        .map(|(&x, &y)| if rng.random::<bool>() { x } else { y })
                        .collect()
                } else {
                    p1.clone()
                };
                for (k, gene) in child.iter_mut().enumerate() {
                    if rng.random::<f64>() < params.mutation_prob {
                        *gene = space.domains[k].sample(rng);
                    }
                }
                offspring.push(space.nearest(&child));
            }

            // Evaluate offspring, combine, select.
            let objs = session.evaluate(&offspring);
            for (cfg, obj) in offspring.into_iter().zip(objs) {
                if let Some(o) = obj {
                    let p = Point::new(cfg, o);
                    run.archive.insert_cloned(&p);
                    extend_bounds(&mut bounds, &p);
                    run.all.push(p.clone());
                    run.population.push(p);
                }
            }
            run.population = prune(std::mem::take(&mut run.population), params.pop_size);

            let (ideal, nadir) = bounds.as_ref().expect("bounds over evaluated points");
            let sig = FrontSignature::under_bounds(run.archive.points(), ideal, nadir);
            session.front_updated(&sig);
            run.trace.push(sig);

            if session.budget_exhausted() {
                stop = StopReason::BudgetExhausted;
                break;
            }
            // Safe boundary: the generation is complete.
            run.cursor += 1;
            set_scale(&mut run.scale, &bounds);
            session.offer(self.name(), &run);
        }
        session.finish(run, stop)
    }
}

/// Write the running bounds into a checkpoint's `(ideal, nadir)` scale
/// pairs, reusing the vector's storage.
fn set_scale(scale: &mut Vec<(f64, f64)>, bounds: &Option<(Vec<f64>, Vec<f64>)>) {
    scale.clear();
    if let Some((ideal, nadir)) = bounds {
        scale.extend(ideal.iter().copied().zip(nadir.iter().copied()));
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

    fn search(space: &ParamSpace, ev: &dyn Evaluator, params: Nsga2Params) -> TuningReport {
        let mut session = TuningSession::new(space.clone(), ev).with_batch(BatchEval::sequential());
        session.run(&Nsga2Tuner::new(params))
    }

    #[test]
    fn finds_reasonable_front() {
        let (space, ev) = problem();
        let r = search(&space, &ev, Nsga2Params::default());
        assert!(!r.front.is_empty());
        assert!(r.evaluations > 0);
        let best_sum = r
            .front
            .points()
            .iter()
            .map(|p| p.objectives[0])
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_sum <= 30.0,
            "NSGA-II missed the cheap extreme: {best_sum}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (space, ev) = problem();
        let a = search(&space, &ev, Nsga2Params::default());
        let b = search(&space, &ev, Nsga2Params::default());
        assert_eq!(a.front.points(), b.front.points());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn hv_improves_over_generations() {
        let (space, ev) = problem();
        let r = search(&space, &ev, Nsga2Params::default());
        assert_eq!(r.trace.len(), Nsga2Params::default().generations as usize);
        assert!(r.trace.last().unwrap().hv >= r.trace.first().unwrap().hv);
    }
}
