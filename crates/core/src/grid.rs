//! Brute-force grid search — the paper's strong baseline.
//!
//! "Exhaustively sampling the search space on a regular grid" (§V-B.1):
//! every grid point is evaluated; the result keeps both the Pareto set and
//! *all* evaluated points (the per-thread-count sweeps of Table II and the
//! scatter plots of Fig. 8 need the full data).

use crate::pareto::Point;
use crate::rsgde3::FrontSignature;
use crate::space::Config;
use crate::tuner::{StopReason, Tuner, TuningReport, TuningSession};

/// Brute-force sweep as a [`Tuner`]: either a regular grid over the
/// session's space ([`new`](Self::new)) or an explicit configuration list
/// ([`from_points`](Self::from_points)). Each 512-configuration chunk is
/// one session iteration; under a session budget the sweep stops early
/// with [`StopReason::BudgetExhausted`].
#[derive(Debug, Clone)]
pub struct GridTuner {
    /// Grid points per `Range` dimension (ignored with explicit points).
    pub steps: usize,
    /// Explicit configurations to sweep, overriding the regular grid.
    pub points: Option<Vec<Config>>,
}

impl GridTuner {
    /// Regular grid with `steps` points per `Range` dimension (choice
    /// dimensions are enumerated fully).
    pub fn new(steps: usize) -> Self {
        GridTuner {
            steps,
            points: None,
        }
    }

    /// Sweep an explicit list of configurations (e.g. custom per-dimension
    /// axes from [`cartesian_axes`]).
    pub fn from_points(points: Vec<Config>) -> Self {
        GridTuner {
            steps: 0,
            points: Some(points),
        }
    }
}

impl Tuner for GridTuner {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn tune(&self, session: &mut TuningSession<'_>) -> TuningReport {
        let configs = match &self.points {
            Some(points) => points.clone(),
            None => session.space().regular_grid(self.steps),
        };
        // Resume: the grid itself is recomputed deterministically above;
        // only the chunk cursor and accumulated results are restored.
        let (mut run, _) = session.start(None);
        let mut stop = StopReason::Completed;
        const CHUNK: usize = 512;
        for chunk in configs.chunks(CHUNK).skip(run.cursor as usize) {
            session.begin_iteration();
            let objs = session.evaluate(chunk);
            for (cfg, obj) in chunk.iter().zip(objs) {
                if let Some(o) = obj {
                    let p = Point::new(cfg.clone(), o);
                    run.archive.insert_cloned(&p);
                    run.all.push(p);
                }
            }
            if session.budget_exhausted() {
                stop = StopReason::BudgetExhausted;
                break;
            }
            // Safe boundary: the chunk is complete.
            run.cursor += 1;
            session.offer(self.name(), &run);
        }
        let sig = FrontSignature::of(run.archive.points());
        session.front_updated(&sig);
        run.trace.push(sig);
        session.finish(run, stop)
    }
}

/// Cartesian product of explicit per-dimension axes.
pub fn cartesian_axes(axes: &[Vec<i64>]) -> Vec<Config> {
    let mut out: Vec<Config> = vec![Vec::new()];
    for axis in axes {
        let mut next = Vec::with_capacity(out.len() * axis.len());
        for prefix in &out {
            for &v in axis {
                let mut c = prefix.clone();
                c.push(v);
                next.push(c);
            }
        }
        out = next;
    }
    out
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
            vec!["x".into(), "t".into()],
            vec![
                Domain::Range { lo: 0, hi: 100 },
                Domain::Choice(vec![1, 2, 4]),
            ],
        );
        let ev = (2usize, |cfg: &Config| {
            let x = cfg[0] as f64;
            let t = cfg[1] as f64;
            Some(vec![(x - 30.0).abs() / t, t])
        });
        (space, ev)
    }

    fn sweep(space: &ParamSpace, ev: &dyn Evaluator, steps: usize) -> TuningReport {
        let mut session = TuningSession::new(space.clone(), ev).with_batch(BatchEval::sequential());
        session.run(&GridTuner::new(steps))
    }

    #[test]
    fn sweeps_whole_grid() {
        let (space, ev) = problem();
        let r = sweep(&space, &ev, 11);
        assert_eq!(r.evaluations, 11 * 3);
        assert_eq!(r.all.len(), 33);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn front_contains_known_optimum() {
        let (space, ev) = problem();
        let r = sweep(&space, &ev, 101);
        // (x=30, t=1) achieves (0, 1): dominates everything with t=1.
        assert!(r
            .front
            .points()
            .iter()
            .any(|p| p.config == vec![30, 1] && p.objectives[0] == 0.0));
    }

    #[test]
    fn explicit_axes() {
        let axes = vec![vec![1, 2], vec![10, 20, 30]];
        let pts = cartesian_axes(&axes);
        assert_eq!(pts.len(), 6);
        assert!(pts.contains(&vec![2, 10]));
        let ev = (1usize, |cfg: &Config| Some(vec![(cfg[0] * cfg[1]) as f64]));
        // The explicit-points sweep never consults the space.
        let space = ParamSpace::new(vec!["_".into()], vec![Domain::Range { lo: 0, hi: 0 }]);
        let mut session = TuningSession::new(space, &ev).with_batch(BatchEval::parallel(2));
        let r = session.run(&GridTuner::from_points(pts));
        assert_eq!(r.evaluations, 6);
        assert_eq!(r.front.len(), 1);
        assert_eq!(r.front.points()[0].config, vec![1, 10]);
    }

    #[test]
    fn infeasible_points_skipped() {
        let space = ParamSpace::new(vec!["x".into()], vec![Domain::Range { lo: 0, hi: 9 }]);
        let ev = (1usize, |cfg: &Config| {
            if cfg[0] % 2 == 0 {
                None
            } else {
                Some(vec![cfg[0] as f64])
            }
        });
        let r = sweep(&space, &ev, 10);
        assert_eq!(r.evaluations, 10);
        assert_eq!(r.all.len(), 5);
        assert_eq!(r.front.points()[0].config, vec![1]);
    }
}
