//! Binding between the generic optimizer and the simulated machines: the
//! objective function that instantiates a skeleton configuration and
//! "executes" it on the analytic cost model.
//!
//! Every evaluator here costs a configuration from the *shape* of its
//! variant ([`Skeleton::with_shape`]) over the region's own body: no loop
//! nest is built per configuration and the returned objective vector is
//! the only allocation.

use moat_core::{Config, Domain, Evaluator, ObjVec, ParamSpace};
use moat_ir::shape::with_scratch;
use moat_ir::{ParamDecl, ParamDomain, ParamValue, Region, Skeleton, Step};
use moat_machine::{CostModel, Measurement};

/// Parameter values an evaluator derives from a configuration (projected,
/// or with a hard-wired value appended) that are held on the stack.
const INLINE_VALUES: usize = 16;

/// "Execute" `skeleton` of `region` under `values` on `model`; `None` where
/// the skeleton does not instantiate.
fn measure(
    region: &Region,
    skeleton: &Skeleton,
    model: &CostModel,
    values: &[ParamValue],
) -> Option<Measurement> {
    skeleton.with_shape(&region.nest, values, |shape| {
        model.measure_shape(&region.arrays, &region.nest.body, shape, values)
    })
}

/// `measure` for a skeleton that is fed another skeleton's configurations:
/// `raw` is projected onto the skeleton's own domains first.
fn measure_nearest(
    region: &Region,
    skeleton: &Skeleton,
    model: &CostModel,
    raw: &[ParamValue],
) -> Option<Measurement> {
    let n = raw.len().min(skeleton.params.len());
    with_scratch::<_, INLINE_VALUES, _>(n, 0, |values| {
        for ((slot, p), &v) in values.iter_mut().zip(&skeleton.params).zip(raw) {
            *slot = p.domain.nearest(v);
        }
        measure(region, skeleton, model, values)
    })
}

/// A tunable objective (all minimized). The paper instantiates the
/// framework with (time, resource usage) and names energy consumption as a
/// further candidate (§III-B.1); the optimizer is objective-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Wall-clock execution time in seconds.
    Time,
    /// Resource usage: `threads × time` (CPU-seconds).
    Resources,
    /// Energy in joules (first-order machine power model).
    Energy,
}

impl Objective {
    /// Name used in version tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Time => "time_s",
            Objective::Resources => "cpu_seconds",
            Objective::Energy => "energy_j",
        }
    }

    /// Extract the objective value from a measurement.
    pub fn of(self, m: &moat_machine::Measurement) -> f64 {
        match self {
            Objective::Time => m.time_s,
            Objective::Resources => m.resources,
            Objective::Energy => m.energy_j,
        }
    }
}

/// Convert a skeleton's parameter declarations into an optimizer search
/// space.
pub fn ir_space(skeleton: &Skeleton) -> ParamSpace {
    let names = skeleton.params.iter().map(|p| p.name.clone()).collect();
    let domains = skeleton
        .params
        .iter()
        .map(|p| match &p.domain {
            ParamDomain::IntRange { lo, hi } => Domain::Range { lo: *lo, hi: *hi },
            ParamDomain::Choice(v) => Domain::Choice(v.clone()),
        })
        .collect();
    ParamSpace::new(names, domains)
}

/// Objective function over skeleton configurations, evaluated on the
/// analytic machine model (paper architecture label 3: "evaluated
/// (executed) on the target system").
///
/// Objectives: `[wall time (s), resource usage (thread·s)]`, both
/// minimized. Configurations that fail to instantiate evaluate to `None`.
pub struct SimEvaluator<'a> {
    /// The region being tuned.
    pub region: &'a Region,
    /// The skeleton whose parameters are being assigned.
    pub skeleton: &'a Skeleton,
    /// The target-machine model (optionally with measurement noise).
    pub model: &'a CostModel,
}

impl Evaluator for SimEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        2
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        let m = measure(self.region, self.skeleton, self.model, cfg)?;
        Some(vec![m.time_s, m.resources])
    }
}

/// An analytic backend *variant*: the same skeleton evaluated with a fixed
/// innermost-unroll factor baked in. It shares the base skeleton's search
/// space exactly — the factor is appended internally, never exposed as a
/// tunable — which makes it registrable in a
/// [`BackendSet`](moat_core::BackendSet) alongside the plain
/// [`SimEvaluator`]: same logical configuration, distinct code shape,
/// distinct objective surface. Under the cost model the ILP term makes
/// unrolling a uniform win, so this variant *dominates* the plain model —
/// useful for loss-matrix demonstrations ("what does restricting to the
/// un-unrolled backend cost?"); for honestly *mixed* fronts pair backends
/// whose surfaces cross, e.g. [`AltSkeletonEvaluator`].
pub struct FixedUnrollEvaluator<'a> {
    region: &'a Region,
    /// Owned clone of the base skeleton with the unroll step appended.
    skeleton: Skeleton,
    model: &'a CostModel,
    factor: i64,
}

impl<'a> FixedUnrollEvaluator<'a> {
    /// Wrap `skeleton` (of `region`) with a hard-wired unroll `factor`.
    pub fn new(region: &'a Region, skeleton: &Skeleton, model: &'a CostModel, factor: i64) -> Self {
        assert!(factor >= 1, "unroll factor must be >= 1");
        let mut sk = skeleton.clone();
        let factor_param = sk.params.len();
        sk.params
            .push(ParamDecl::new("unroll", ParamDomain::Choice(vec![factor])));
        sk.steps.push(Step::Unroll { factor_param });
        FixedUnrollEvaluator {
            region,
            skeleton: sk,
            model,
            factor,
        }
    }

    /// The hard-wired unroll factor.
    pub fn factor(&self) -> i64 {
        self.factor
    }
}

impl Evaluator for FixedUnrollEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        2
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        let m = with_scratch::<_, INLINE_VALUES, _>(cfg.len() + 1, self.factor, |values| {
            values[..cfg.len()].copy_from_slice(cfg);
            measure(self.region, &self.skeleton, self.model, values)
        })?;
        Some(vec![m.time_s, m.resources])
    }
}

/// An analytic backend over an *alternative* transformation skeleton
/// (`region.skeletons[index]`, derived by the analyzer with
/// `alternatives: true`): a structurally different code shape — e.g.
/// tiling one band level less, leaving the innermost loop untiled — with
/// its own parameter list. To share the base skeleton's search space (a
/// [`BackendSet`](moat_core::BackendSet) requirement) it projects each
/// base configuration onto the alternative's domains exactly like
/// [`SkeletonChoiceEvaluator::decode`]: surplus trailing dimensions are
/// ignored, the used slots snap to the nearest admissible value. The two
/// surfaces genuinely cross — the shallower nest pays less loop overhead
/// but loses inner-level cache blocking — so fronts tuned over
/// `{model, alt1}` can honestly mix provenance.
pub struct AltSkeletonEvaluator<'a> {
    region: &'a Region,
    model: &'a CostModel,
    index: usize,
}

impl<'a> AltSkeletonEvaluator<'a> {
    /// Backend over `region.skeletons[index]`, fed base-skeleton configs.
    pub fn new(region: &'a Region, model: &'a CostModel, index: usize) -> Self {
        assert!(
            index < region.skeletons.len(),
            "region {} has {} skeleton(s), no alternative #{index}",
            region.name,
            region.skeletons.len()
        );
        AltSkeletonEvaluator {
            region,
            model,
            index,
        }
    }

    /// The alternative-skeleton index within `region.skeletons`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Project a base-skeleton configuration onto this skeleton's domains.
    pub fn project(&self, cfg: &Config) -> Vec<i64> {
        let sk = &self.region.skeletons[self.index];
        let n = sk.params.len().min(cfg.len());
        sk.nearest_values(&cfg[..n])
    }
}

impl Evaluator for AltSkeletonEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        2
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        let sk = &self.region.skeletons[self.index];
        let n = sk.params.len().min(cfg.len());
        let m = measure_nearest(self.region, sk, self.model, &cfg[..n])?;
        Some(vec![m.time_s, m.resources])
    }
}

/// Objective function with a *configurable* objective set (e.g. the
/// tri-objective instantiation time/resources/energy). The RS-GDE3 core
/// and the hypervolume metric handle any number of objectives.
pub struct MultiObjectiveEvaluator<'a> {
    /// The region being tuned.
    pub region: &'a Region,
    /// The skeleton whose parameters are being assigned.
    pub skeleton: &'a Skeleton,
    /// The target-machine model.
    pub model: &'a CostModel,
    /// Objectives, in table order.
    pub objectives: Vec<Objective>,
}

impl Evaluator for MultiObjectiveEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        self.objectives.len()
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        let m = measure(self.region, self.skeleton, self.model, cfg)?;
        Some(self.objectives.iter().map(|o| o.of(&m)).collect())
    }
}

/// Objective function over a region with *several* alternative skeletons:
/// the first configuration dimension selects the skeleton, the remaining
/// dimensions hold the parameters of the widest skeleton (narrower
/// skeletons ignore the surplus and project the used slots onto their own
/// domains). This realizes the paper's uniform modeling of "all tuning
/// options, including the skeleton to be selected" (§III-B.1).
pub struct SkeletonChoiceEvaluator<'a> {
    /// The region (≥ 1 skeletons).
    pub region: &'a Region,
    /// The target-machine model.
    pub model: &'a CostModel,
}

impl SkeletonChoiceEvaluator<'_> {
    /// The combined search space: `[skeleton index] ++ padded parameters`.
    pub fn space(&self) -> ParamSpace {
        let skeletons = &self.region.skeletons;
        assert!(!skeletons.is_empty());
        let max_arity = skeletons.iter().map(|s| s.params.len()).max().unwrap();
        let mut names = vec!["skeleton".to_string()];
        let mut domains = vec![Domain::Range {
            lo: 0,
            hi: skeletons.len() as i64 - 1,
        }];
        for slot in 0..max_arity {
            names.push(format!("p{slot}"));
            // Widest admissible range across skeletons that use this slot.
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            for sk in skeletons {
                if let Some(p) = sk.params.get(slot) {
                    let (l, h) = p.domain.extremes();
                    lo = lo.min(l);
                    hi = hi.max(h);
                }
            }
            domains.push(Domain::Range { lo, hi });
        }
        ParamSpace::new(names, domains)
    }

    /// Decode one combined configuration into (skeleton index, projected
    /// per-skeleton values).
    pub fn decode(&self, cfg: &Config) -> (usize, Vec<i64>) {
        let idx = self.skeleton_index(cfg);
        let sk = &self.region.skeletons[idx];
        (idx, sk.nearest_values(&cfg[1..1 + sk.params.len()]))
    }

    /// The skeleton the first dimension of `cfg` selects.
    fn skeleton_index(&self, cfg: &Config) -> usize {
        (cfg[0].max(0) as usize).min(self.region.skeletons.len() - 1)
    }
}

impl Evaluator for SkeletonChoiceEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        2
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        let idx = self.skeleton_index(cfg);
        let sk = &self.region.skeletons[idx];
        let m = measure_nearest(self.region, sk, self.model, &cfg[1..1 + sk.params.len()])?;
        Some(vec![m.time_s, m.resources])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_ir::{analyze, AnalyzerConfig};
    use moat_kernels::Kernel;
    use moat_machine::MachineDesc;

    #[test]
    fn space_conversion() {
        let cfg = AnalyzerConfig::for_threads(vec![1, 5, 10]);
        let region = analyze(Kernel::Mm.region(100), &cfg).unwrap();
        let space = ir_space(&region.skeletons[0]);
        assert_eq!(space.dims(), 4);
        assert_eq!(space.names[3], "threads");
        assert_eq!(space.domains[0], Domain::Range { lo: 1, hi: 50 });
        assert_eq!(space.domains[3], Domain::Choice(vec![1, 5, 10]));
    }

    #[test]
    fn evaluator_produces_two_objectives() {
        let cfg = AnalyzerConfig::for_threads(vec![1, 5, 10]);
        let region = analyze(Kernel::Mm.region(128), &cfg).unwrap();
        let model = CostModel::new(MachineDesc::westmere());
        let ev = SimEvaluator {
            region: &region,
            skeleton: &region.skeletons[0],
            model: &model,
        };
        let objs = ev.evaluate(&vec![16, 16, 8, 10]).unwrap();
        assert_eq!(objs.len(), 2);
        assert!(objs[0] > 0.0);
        // resources = threads × time.
        assert!((objs[1] - 10.0 * objs[0]).abs() < 1e-12);
    }

    #[test]
    fn fixed_unroll_backend_shares_space_but_not_surface() {
        let cfg = AnalyzerConfig::for_threads(vec![1, 5, 10]);
        let region = analyze(Kernel::Mm.region(192), &cfg).unwrap();
        let model = CostModel::new(MachineDesc::westmere());
        let base = SimEvaluator {
            region: &region,
            skeleton: &region.skeletons[0],
            model: &model,
        };
        let unrolled = FixedUnrollEvaluator::new(&region, &region.skeletons[0], &model, 4);
        // Same logical configuration evaluates on both backends...
        let cfg_v = vec![32, 32, 8, 10];
        let plain = base.evaluate(&cfg_v).unwrap();
        let fast = unrolled.evaluate(&cfg_v).unwrap();
        // ...but the surfaces differ: the ILP term rewards unrolling.
        assert!(
            fast[0] < plain[0],
            "unrolled backend should be faster: {} vs {}",
            fast[0],
            plain[0]
        );
    }

    #[test]
    fn alt_skeleton_backend_projects_base_configs() {
        let cfg = AnalyzerConfig {
            alternatives: true,
            ..AnalyzerConfig::for_threads(vec![1, 2, 4])
        };
        let region = analyze(Kernel::Mm.region(128), &cfg).unwrap();
        assert_eq!(region.skeletons.len(), 2);
        let model = CostModel::new(MachineDesc::westmere());
        let alt = AltSkeletonEvaluator::new(&region, &model, 1);
        // A base-skeleton (4-dim) config evaluates on the 3-param
        // alternative: surplus slot dropped, used slots snapped.
        let base_cfg = vec![16, 16, 3, 4];
        let projected = alt.project(&base_cfg);
        assert_eq!(projected.len(), 3);
        assert!(alt.evaluate(&base_cfg).is_some());
        // The surfaces differ: same logical config, different code shape.
        let base = SimEvaluator {
            region: &region,
            skeleton: &region.skeletons[0],
            model: &model,
        };
        let a = base.evaluate(&base_cfg).unwrap();
        let b = alt.evaluate(&base_cfg).unwrap();
        assert_ne!(a[0], b[0], "alternative skeleton must have its own cost");
    }

    #[test]
    fn energy_objective_creates_new_tradeoffs() {
        // Energy is not proportional to resources: idle cores on a powered
        // chip and uncore power create a distinct objective. A mid-size
        // team can be more energy-efficient than both extremes.
        let cfg = AnalyzerConfig::for_threads(vec![1, 5, 10, 20, 40]);
        let region = analyze(Kernel::Mm.region(512), &cfg).unwrap();
        let model = CostModel::new(MachineDesc::westmere());
        let ev = MultiObjectiveEvaluator {
            region: &region,
            skeleton: &region.skeletons[0],
            model: &model,
            objectives: vec![Objective::Time, Objective::Resources, Objective::Energy],
        };
        assert_eq!(ev.num_objectives(), 3);
        let serial = ev.evaluate(&vec![64, 64, 8, 1]).unwrap();
        let full_chip = ev.evaluate(&vec![64, 64, 8, 10]).unwrap();
        // Energy per run: with 1 thread the other 9 cores of the chip idle
        // and the uncore still burns power over a 10x longer runtime — the
        // full chip must be more energy-efficient here.
        assert!(
            full_chip[2] < serial[2],
            "full-chip run must use less energy than serial: {} vs {}",
            full_chip[2],
            serial[2]
        );
        // While using more CPU-seconds (the resources objective) — i.e.
        // energy and resources genuinely conflict.
        assert!(full_chip[1] > serial[1]);
    }

    #[test]
    fn skeleton_choice_space_and_decode() {
        let cfg = AnalyzerConfig {
            alternatives: true,
            ..AnalyzerConfig::for_threads(vec![1, 2, 4])
        };
        let region = analyze(Kernel::Mm.region(128), &cfg).unwrap();
        assert_eq!(region.skeletons.len(), 2);
        let model = CostModel::new(MachineDesc::westmere());
        let ev = SkeletonChoiceEvaluator {
            region: &region,
            model: &model,
        };
        let space = ev.space();
        // skeleton dim + 4 padded parameter slots.
        assert_eq!(space.dims(), 5);
        assert_eq!(space.domains[0], Domain::Range { lo: 0, hi: 1 });

        // Decoding skeleton 1 (3 params) ignores the 4th slot and projects
        // onto its own domains (threads slot is position 2 there).
        let (idx, values) = ev.decode(&vec![1, 16, 16, 3, 999]);
        assert_eq!(idx, 1);
        assert_eq!(values.len(), 3);
        assert_eq!(
            values[2], 2,
            "3 projected to nearest admissible thread count (tie resolves down)"
        );

        // Both skeletons evaluate.
        assert!(ev.evaluate(&vec![0, 16, 16, 8, 4]).is_some());
        assert!(ev.evaluate(&vec![1, 16, 16, 4, 64]).is_some());
    }

    #[test]
    fn skeleton_choice_tuning_explores_both() {
        use moat_core::{BatchEval, RsGde3Params, RsGde3Tuner, TuningSession};
        let cfg = AnalyzerConfig {
            alternatives: true,
            ..AnalyzerConfig::for_threads((1..=40).collect())
        };
        let region = analyze(Kernel::Mm.region(128), &cfg).unwrap();
        let model = CostModel::new(MachineDesc::westmere());
        let ev = SkeletonChoiceEvaluator {
            region: &region,
            model: &model,
        };
        let params = RsGde3Params {
            max_generations: 10,
            ..Default::default()
        };
        let mut session = TuningSession::new(ev.space(), &ev).with_batch(BatchEval::sequential());
        let result = session.run(&RsGde3Tuner::new(params));
        assert!(!result.front.is_empty());
        // Every front configuration decodes to an instantiable variant.
        for p in result.front.points() {
            let (idx, values) = ev.decode(&p.config);
            region.skeletons[idx]
                .instantiate(&region.nest, &values)
                .unwrap();
        }
    }

    #[test]
    fn invalid_config_is_none() {
        let cfg = AnalyzerConfig::for_threads(vec![1, 5]);
        let region = analyze(Kernel::Mm.region(128), &cfg).unwrap();
        let model = CostModel::new(MachineDesc::westmere());
        let ev = SimEvaluator {
            region: &region,
            skeleton: &region.skeletons[0],
            model: &model,
        };
        assert!(
            ev.evaluate(&vec![16, 16, 8, 7]).is_none(),
            "7 threads not in domain"
        );
        assert!(ev.evaluate(&vec![16, 16]).is_none(), "arity mismatch");
    }
}
