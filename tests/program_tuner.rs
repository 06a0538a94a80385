//! Whole-program tuning (paper §III-A, label 3): three regions tuned
//! together on one machine, each region's measurements piggybacked on
//! joint program executions.

use moat::{Kernel, MachineDesc, ProgramReport, ProgramTuner};
use moat_core::dominates;

fn tune_three(seed: u64) -> ProgramReport {
    let mut tuner = ProgramTuner::new(MachineDesc::westmere());
    tuner.params.seed = seed;
    tuner.params.max_generations = 8;
    tuner
        .tune(vec![
            Kernel::Mm.region(64),
            Kernel::Jacobi2d.region(64),
            Kernel::Dsyrk.region(64),
        ])
        .expect("three paper kernels tune")
}

#[test]
fn three_regions_share_their_executions() {
    let report = tune_three(5);
    assert_eq!(report.regions.len(), 3);

    // An execution measures at most one configuration of every region,
    // and the regions together measure more than any execution count
    // that did not share.
    let evaluations: Vec<u64> = report
        .regions
        .iter()
        .map(|r| r.result.evaluations)
        .collect();
    let max = *evaluations.iter().max().unwrap();
    let sum: u64 = evaluations.iter().sum();
    assert!(
        sum > report.program_executions && report.program_executions >= max,
        "evaluations {evaluations:?}, executions {}",
        report.program_executions
    );

    for r in &report.regions {
        let name = &r.region.name;
        let front = r.result.front.points();
        assert!(!front.is_empty(), "{name}: empty front");
        for a in front {
            assert!(
                front
                    .iter()
                    .all(|b| !dominates(&b.objectives, &a.objectives)),
                "{name}: front point {:?} is dominated",
                a.config
            );
            assert!(
                r.result.all.contains(a),
                "{name}: front point {:?} was never measured",
                a.config
            );
        }
        assert_eq!(r.table.len(), front.len(), "{name}: one version per point");
    }
}

#[test]
fn the_same_seed_gives_the_same_report() {
    let (a, b) = (tune_three(9), tune_three(9));
    assert_eq!(a.program_executions, b.program_executions);
    for (x, y) in a.regions.iter().zip(&b.regions) {
        assert_eq!(x.region.name, y.region.name);
        assert_eq!(x.result, y.result, "{}", x.region.name);
        assert_eq!(x.table, y.table, "{}", x.region.name);
    }
    assert_eq!(a.regions.len(), b.regions.len());
}
