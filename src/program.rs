//! Simultaneous tuning of several regions of one program.
//!
//! Paper §III-A (label 3): *"During the evaluation, a single execution of
//! the resulting program is sufficient to obtain measurements for all
//! simultaneously tuned regions."* Each region keeps its own independent
//! multi-objective problem (own GDE3 population, rough-set boundary,
//! stopping state — after each generation it takes the same RS-GDE3 step
//! as a single-region run, [`RsGde3Params::step`]), but evaluation is
//! amortized: in every iteration, the candidate configurations of all
//! still-active regions are combined into joint *program executions*, so
//! tuning a whole program costs roughly as many executions as tuning its
//! slowest region — not the sum.

use crate::framework::{Framework, Prepared};
use crate::sim::SimEvaluator;
use moat_core::{
    Config, Evaluator, FrontSignature, Gde3, Point, RsGde3Params, Run, StopReason, TuningReport,
};
use moat_ir::Region;
use moat_machine::{MachineDesc, NoiseModel};
use moat_multiversion::VersionTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of tuning one program (several regions) together.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Per-region results, in input order.
    pub regions: Vec<RegionOutcome>,
    /// Number of joint program executions performed. Compare with the sum
    /// of per-region evaluations to see the amortization.
    pub program_executions: u64,
}

/// Outcome of one region within a program tuning run.
#[derive(Debug, Clone)]
pub struct RegionOutcome {
    /// The analyzed region.
    pub region: Region,
    /// Its tuning report: front = non-dominated archive, `all` and
    /// `evaluations` = the configurations this region measured (each
    /// piggybacked on a program execution, repeats included), `iterations`
    /// = its generations, `trace` = the population's front signature
    /// after initialization and after each generation.
    pub result: TuningReport,
    /// Version table for the backend.
    pub table: VersionTable,
}

/// Per-region search state: RS-GDE3's run state (the shared RNG lives in
/// the tuner; `cursor` counts generations) plus whether it still searches.
struct RegionState {
    prepared: Prepared,
    gde3: Gde3,
    run: Run,
    active: bool,
}

/// Tuner for multiple regions of one program on one machine.
pub struct ProgramTuner {
    /// Target machine.
    pub machine: MachineDesc,
    /// Optimizer parameters (shared by all regions).
    pub params: RsGde3Params,
    /// Measurement noise.
    pub noise: Option<NoiseModel>,
}

impl RegionState {
    fn evaluator(&self) -> SimEvaluator<'_> {
        SimEvaluator {
            region: &self.prepared.region,
            skeleton: self.prepared.skeleton(),
            model: &self.prepared.model,
        }
    }
}

impl ProgramTuner {
    /// Paper-default tuner.
    pub fn new(machine: MachineDesc) -> Self {
        ProgramTuner {
            machine,
            params: RsGde3Params::default(),
            noise: Some(NoiseModel::default()),
        }
    }

    /// Tune all `regions` simultaneously.
    pub fn tune(&self, regions: Vec<Region>) -> Result<ProgramReport, String> {
        // Each region is prepared like a single-region run: analyzed unless
        // it carries skeletons, with its own cost model and search space.
        let fw = Framework {
            noise: self.noise,
            ..Framework::new(self.machine.clone())
        };
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut program_executions = 0u64;

        // The initial populations are evaluated jointly: execution i
        // measures config i of every region.
        let mut states: Vec<RegionState> = Vec::new();
        for region in regions {
            let prepared = fw.prepare(region)?;
            let gde3 = Gde3::new(prepared.space.clone(), self.params.gde3);
            let bbox = prepared.space.full_box();
            states.push(RegionState {
                prepared,
                gde3,
                run: Run {
                    bbox,
                    ..Run::default()
                },
                active: true,
            });
        }

        // Joint initialization.
        let pop_size = self.params.gde3.pop_size;
        let init_configs: Vec<Vec<Config>> = states
            .iter_mut()
            .map(|s| {
                (0..pop_size)
                    .map(|_| s.gde3.space.sample_within(&s.run.bbox, &mut rng))
                    .collect()
            })
            .collect();
        program_executions += init_configs.iter().map(Vec::len).max().unwrap_or(0) as u64;
        for (s, configs) in states.iter_mut().zip(init_configs) {
            for cfg_vec in configs {
                if let Some(objs) = s.evaluator().evaluate(&cfg_vec) {
                    let p = Point::new(cfg_vec, objs);
                    s.run.archive.insert_cloned(&p);
                    s.run.all.push(p.clone());
                    s.run.population.push(p);
                }
            }
            assert!(
                s.run.population.len() >= 4,
                "region {} infeasible",
                s.prepared.region.name
            );
            s.run.trace.push(FrontSignature::of(&s.run.population));
        }

        // Joint generations: one program execution evaluates one trial of
        // every still-active region.
        for _ in 0..self.params.max_generations {
            if states.iter().all(|s| !s.active) {
                break;
            }
            // Propose per region.
            let proposals: Vec<Option<Vec<Config>>> = states
                .iter_mut()
                .map(|s| {
                    s.active
                        .then(|| s.gde3.propose(&s.run.population, &s.run.bbox, &mut rng))
                })
                .collect();
            // One batch of program executions covers the longest proposal
            // list (inactive regions simply run their tuned version).
            let batch_len = proposals
                .iter()
                .filter_map(|p| p.as_ref().map(|v| v.len()))
                .max()
                .unwrap_or(0);
            program_executions += batch_len as u64;

            for (s, proposal) in states.iter_mut().zip(proposals) {
                let Some(trials) = proposal else { continue };
                let ev = s.evaluator();
                let objs: Vec<Option<Vec<f64>>> = trials.iter().map(|t| ev.evaluate(t)).collect();
                let run = &mut s.run;
                for (t, o) in trials.iter().zip(&objs) {
                    if let Some(o) = o {
                        run.all.push(Point::new(t.clone(), o.clone()));
                    }
                }
                s.gde3.select(&mut run.population, trials, objs);
                run.cursor += 1;
                let last = run.trace.last().expect("initial signature");
                let (sig, bbox) = self.params.step(
                    &s.gde3.space,
                    &run.population,
                    &mut run.archive,
                    last,
                    &mut run.stall,
                );
                if let Some(bbox) = bbox {
                    run.bbox = bbox;
                }
                run.trace.push(sig);
                s.active = run.stall < self.params.patience;
            }
        }

        let outcomes = states
            .into_iter()
            .map(|s| {
                let front = s.run.archive.to_front();
                let table = fw.table(&s.prepared, &front);
                let stop = if s.active {
                    StopReason::MaxIterations
                } else {
                    StopReason::Converged
                };
                RegionOutcome {
                    region: s.prepared.region,
                    result: TuningReport {
                        front,
                        evaluations: s.run.all.len() as u64,
                        all: s.run.all,
                        iterations: s.run.cursor as u32,
                        stop,
                        trace: s.run.trace,
                    },
                    table,
                }
            })
            .collect();

        Ok(ProgramReport {
            regions: outcomes,
            program_executions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_kernels::Kernel;

    fn tuner() -> ProgramTuner {
        let mut t = ProgramTuner::new(MachineDesc::westmere());
        t.params.max_generations = 15;
        t
    }

    #[test]
    fn tunes_multiple_regions_with_amortized_executions() {
        let t = tuner();
        let result = t
            .tune(vec![
                Kernel::Mm.region(128),
                Kernel::Jacobi2d.region(128),
                Kernel::Nbody.region(2048),
            ])
            .unwrap();
        assert_eq!(result.regions.len(), 3);
        for r in &result.regions {
            assert!(!r.result.front.is_empty(), "{}: empty front", r.region.name);
            assert_eq!(r.table.len(), r.result.front.len());
        }
        // Amortization: program executions ≈ max per-region evaluations,
        // far below their sum.
        let total: u64 = result.regions.iter().map(|r| r.result.evaluations).sum();
        let max: u64 = result
            .regions
            .iter()
            .map(|r| r.result.evaluations)
            .max()
            .unwrap();
        assert!(
            result.program_executions < total,
            "joint tuning must amortize executions: {} vs sum {}",
            result.program_executions,
            total
        );
        assert!(
            result.program_executions <= max + 2 * 30,
            "executions {} should track the slowest region ({max})",
            result.program_executions
        );
    }

    #[test]
    fn regions_stop_independently() {
        let t = tuner();
        let result = t
            .tune(vec![Kernel::Mm.region(96), Kernel::Stencil3d.region(32)])
            .unwrap();
        // Generations may differ between regions (independent stopping).
        let gens: Vec<u32> = result.regions.iter().map(|r| r.result.iterations).collect();
        assert!(gens.iter().all(|&g| g >= 3));
        // Both tables usable.
        for r in &result.regions {
            assert!(r.table.runtime_meta().len() == r.table.len());
        }
    }

    #[test]
    fn single_region_program_matches_framework_shape() {
        let t = tuner();
        let result = t.tune(vec![Kernel::Dsyrk.region(96)]).unwrap();
        assert_eq!(result.regions.len(), 1);
        let r = &result.regions[0];
        assert!(r.result.evaluations <= result.program_executions * 2);
        assert!(!r.table.is_empty());
    }

    #[test]
    fn empty_program_executes_nothing() {
        let result = tuner().tune(Vec::new()).unwrap();
        assert!(result.regions.is_empty());
        assert_eq!(result.program_executions, 0);
    }
}
