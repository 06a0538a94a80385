//! Random search — the paper's weak baseline (§V-B.3).
//!
//! Generates uniformly random configurations, evaluates them, and returns
//! the non-dominated subset. The paper grants it the same evaluation budget
//! as RS-GDE3; it is "very far off the quality achieved by the other
//! techniques" (Fig. 9) — a comparison the harness reproduces.

use crate::metrics::objective_bounds;
use crate::pareto::Point;
use crate::rsgde3::FrontSignature;
use crate::space::Config;
use crate::tuner::{StopReason, Tuner, TuningReport, TuningSession};

/// Uniform random sampling as a [`Tuner`].
///
/// The sample count is the session budget, or
/// [`DEFAULT_SAMPLES`](Self::DEFAULT_SAMPLES) when the session has none.
/// The report's trace holds one final [`FrontSignature`] whose hypervolume
/// is normalized over *all* sampled points.
#[derive(Debug, Clone)]
pub struct RandomTuner {
    /// RNG seed.
    pub seed: u64,
}

impl RandomTuner {
    /// Samples drawn when the session has no budget.
    pub const DEFAULT_SAMPLES: u64 = 1000;

    /// Tuner bounded only by the session budget.
    pub fn new(seed: u64) -> Self {
        RandomTuner { seed }
    }
}

impl Tuner for RandomTuner {
    fn name(&self) -> &'static str {
        "random"
    }

    fn tune(&self, session: &mut TuningSession<'_>) -> TuningReport {
        let budget = session.budget().unwrap_or(Self::DEFAULT_SAMPLES);
        let (mut run, _) = session.start(Some(self.seed));
        let mut stop = StopReason::Completed;

        const CHUNK: usize = 64;
        while session.evaluations() < budget {
            session.begin_iteration();
            let want = ((budget - session.evaluations()) as usize).min(CHUNK);
            let rng = run.rng.as_mut().expect("seeded");
            let configs: Vec<Config> = (0..want).map(|_| session.space().sample(rng)).collect();
            let objs = session.evaluate(&configs);
            for (cfg, obj) in configs.into_iter().zip(objs) {
                if let Some(o) = obj {
                    let p = Point::new(cfg, o);
                    run.all.push(p.clone());
                    run.archive.insert(p);
                }
            }
            if session.budget_exhausted() {
                stop = StopReason::BudgetExhausted;
                break;
            }
            // Duplicate samples are served from the cache and do not
            // increase the count; in a pathological tiny space this could
            // loop forever, so bail out once the space is exhausted.
            if session.evaluations() >= session.space().size() {
                stop = StopReason::SpaceExhausted;
                break;
            }
            // Safe boundary: the next chunk depends only on the RNG and
            // archive captured here.
            session.offer(self.name(), &run);
        }
        if stop == StopReason::Completed
            && session.budget().is_some_and(|b| session.evaluations() >= b)
        {
            stop = StopReason::BudgetExhausted;
        }

        let sig = if run.all.is_empty() {
            FrontSignature {
                size: 0,
                ideal: Vec::new(),
                hv: 0.0,
            }
        } else {
            let (ideal, nadir) = objective_bounds(&run.all);
            FrontSignature::under_bounds(run.archive.points(), &ideal, &nadir)
        };
        session.front_updated(&sig);
        run.trace.push(sig);
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
            vec!["x".into()],
            vec![Domain::Range {
                lo: -1000,
                hi: 1000,
            }],
        );
        let ev = (2usize, |cfg: &Config| {
            let x = cfg[0] as f64;
            Some(vec![x * x, (x - 100.0) * (x - 100.0)])
        });
        (space, ev)
    }

    fn search(space: &ParamSpace, ev: &dyn Evaluator, budget: u64, seed: u64) -> TuningReport {
        let mut session = TuningSession::new(space.clone(), ev)
            .with_batch(BatchEval::sequential())
            .with_budget(budget);
        session.run(&RandomTuner::new(seed))
    }

    #[test]
    fn respects_budget() {
        let (space, ev) = problem();
        let r = search(&space, &ev, 100, 1);
        assert_eq!(r.evaluations, 100);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let (space, ev) = problem();
        let a = search(&space, &ev, 50, 9);
        let b = search(&space, &ev, 50, 9);
        assert_eq!(a.front.points(), b.front.points());
    }

    #[test]
    fn exhausts_tiny_space_without_hanging() {
        let space = ParamSpace::new(vec!["x".into()], vec![Domain::Range { lo: 0, hi: 4 }]);
        let ev = (1usize, |cfg: &Config| Some(vec![cfg[0] as f64]));
        let r = search(&space, &ev, 1000, 2);
        assert!(r.evaluations <= 5);
        assert_eq!(r.front.len(), 1);
        assert_eq!(r.front.points()[0].config, vec![0]);
    }

    #[test]
    fn front_improves_with_budget_on_average() {
        let (space, ev) = problem();
        let small = search(&space, &ev, 10, 3);
        let large = search(&space, &ev, 500, 3);
        // More samples → at least as good best-x².
        let best = |r: &TuningReport| {
            r.front
                .points()
                .iter()
                .map(|p| p.objectives[0])
                .fold(f64::INFINITY, f64::min)
        };
        assert!(best(&large) <= best(&small));
    }
}
