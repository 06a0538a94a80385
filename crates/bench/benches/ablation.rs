//! Ablation studies of the design choices called out in DESIGN.md:
//!
//! * Rough-Set search-space reduction on/off (RS-GDE3 vs plain GDE3),
//! * population size (the paper picked 30 after experiments),
//! * stopping patience (the paper stops after 3 non-improving iterations),
//! * RS-GDE3 vs NSGA-II as an alternative evolutionary engine.
//!
//! Every variant is measured against the exact front of mm on Westmere:
//! `med eps-x` is the median over the runs of each run's mean
//! multiplicative epsilon to it (fronts rescored noise-free), `worst eps-x`
//! the largest.

use moat::core::{
    Gde3Params, Nsga2Params, Nsga2Tuner, RsGde3Params, RsGde3Tuner, Tuner, TuningReport,
    TuningSession, WeightedSumTuner, WeightedSweepParams,
};
use moat::machine::CostModel;
use moat::{ir_space, Kernel, MachineDesc, SimEvaluator};
use moat_bench::fmt;
use moat_bench::{batch, best_time, oracle, paper_grid_points, rescore, MethodStats, Setup};
use moat_ir::{ParamDecl, ParamDomain, Step};

const RUNS: u64 = 5;

fn headers(first: &str) -> [&str; 5] {
    [first, "E", "|S|", "med eps-x", "worst eps-x"]
}

fn row(variant: impl ToString, stats: &MethodStats) -> Vec<String> {
    let worst = stats
        .eps
        .iter()
        .map(|e| e.0)
        .fold(f64::NEG_INFINITY, f64::max);
    vec![
        variant.to_string(),
        fmt::f(stats.e, 0),
        fmt::f(stats.s, 1),
        fmt::f(stats.eps_median(), 4),
        fmt::f(worst, 4),
    ]
}

fn main() {
    let setup = Setup::new(Kernel::Mm, MachineDesc::westmere(), None);
    let reference = oracle(&setup, paper_grid_points(Kernel::Mm));
    let exact = setup.exact();
    let exact_ev = exact.evaluator();
    let best_time_without = best_time(&reference).objectives[0];
    println!(
        "reference: exact front |S|={} best time {:.4}s (mm, Westmere)",
        reference.len(),
        best_time_without
    );

    // `RUNS` seeded runs of one tuner, measured against the exact front.
    let runs = |tuner: &dyn Fn(u64) -> Box<dyn Tuner>| -> MethodStats {
        let reports: Vec<TuningReport> = (0..RUNS)
            .map(|seed| {
                let ev = setup.evaluator();
                let mut session = TuningSession::new(setup.space.clone(), &ev).with_batch(batch());
                session.run(tuner(seed).as_ref())
            })
            .collect();
        MethodStats::of(&reports, &exact_ev, &reference)
    };
    let rsgde3 = |params: RsGde3Params| {
        runs(&|seed| Box::new(RsGde3Tuner::new(RsGde3Params { seed, ..params })))
    };

    // --- Rough set on/off -------------------------------------------------
    println!(
        "{}",
        fmt::banner("Ablation: Rough-Set search-space reduction")
    );
    let with_rs = rsgde3(RsGde3Params::default());
    let without_rs = rsgde3(RsGde3Params {
        use_roughset: false,
        ..Default::default()
    });
    println!(
        "{}",
        fmt::table(
            &headers("variant"),
            &[
                row("RS-GDE3 (reduction on)", &with_rs),
                row("GDE3 (reduction off)", &without_rs),
            ]
        )
    );

    // --- Population size ---------------------------------------------------
    println!(
        "{}",
        fmt::banner("Ablation: GDE3 population size (paper: 30)")
    );
    let rows: Vec<Vec<String>> = [10usize, 20, 30, 50]
        .into_iter()
        .map(|pop| {
            let stats = rsgde3(RsGde3Params {
                gde3: Gde3Params {
                    pop_size: pop,
                    ..Default::default()
                },
                ..Default::default()
            });
            row(pop, &stats)
        })
        .collect();
    println!("{}", fmt::table(&headers("pop"), &rows));

    // --- Stopping patience --------------------------------------------------
    println!("{}", fmt::banner("Ablation: stopping patience (paper: 3)"));
    let rows: Vec<Vec<String>> = [1u32, 2, 3, 5, 8]
        .into_iter()
        .map(|patience| {
            let stats = rsgde3(RsGde3Params {
                patience,
                ..Default::default()
            });
            row(patience, &stats)
        })
        .collect();
    println!("{}", fmt::table(&headers("patience"), &rows));

    // --- Unroll factor as an additional tuning dimension ------------------
    // The skeleton machinery models unrolling uniformly with the other
    // options (paper §III-B.1); this study measures its marginal value on
    // mm (the cost model credits unrolling with a modest ILP gain). The
    // exact front has no unroll dimension, so eps-x below 1 is the gain.
    println!("{}", fmt::banner("Extension: tunable innermost unrolling"));
    {
        let mut region = setup.region.clone();
        let mut sk = region.skeletons[0].clone();
        sk.params.push(ParamDecl::new(
            "unroll",
            ParamDomain::Choice(vec![1, 2, 4, 8, 16]),
        ));
        let fp = sk.params.len() - 1;
        sk.steps.push(Step::Unroll { factor_param: fp });
        region.skeletons = vec![sk];
        let ev = SimEvaluator {
            region: &region,
            skeleton: &region.skeletons[0],
            model: &setup.model,
        };
        let space = ir_space(&region.skeletons[0]);
        let mut session = TuningSession::new(space, &ev).with_batch(batch());
        let r = session.run(&RsGde3Tuner::new(RsGde3Params::default()));
        let noise_free = CostModel::new(setup.machine.clone());
        let exact_ev = SimEvaluator {
            model: &noise_free,
            ..ev
        };
        let stats = MethodStats::of(std::slice::from_ref(&r), &exact_ev, &reference);
        let best_time_with = best_time(&rescore(&exact_ev, r.front.points())).objectives[0];
        let unrolls: Vec<i64> = r
            .front
            .points()
            .iter()
            .map(|p| *p.config.last().unwrap())
            .collect();
        println!(
            "with unroll dim: E={} |S|={} eps-x={:.4} (max {:.4}); best time {:.4}s \
             (vs {:.4}s without); unroll factors on the front: {:?}",
            r.evaluations,
            r.front.len(),
            stats.eps[0].0,
            stats.eps[0].1,
            best_time_with,
            best_time_without,
            unrolls
        );
    }

    // --- NSGA-II + weighted-sum comparison ---------------------------------
    println!(
        "{}",
        fmt::banner("Extension: RS-GDE3 vs NSGA-II vs weighted-sum sweep")
    );
    let nsga = runs(&|seed| {
        Box::new(Nsga2Tuner::new(Nsga2Params {
            seed,
            generations: 25,
            ..Default::default()
        }))
    });
    // Weighted-sum scalarization sweep (single-objective tuner repeated
    // over 10 weight vectors, the related-work approach).
    let ws = runs(&|seed| {
        Box::new(WeightedSumTuner::new(WeightedSweepParams {
            seed,
            ..Default::default()
        }))
    });
    println!(
        "{}",
        fmt::table(
            &headers("method"),
            &[
                row("RS-GDE3", &with_rs),
                row("NSGA-II", &nsga),
                row("weighted sum x10", &ws),
            ]
        )
    );
    // A true multi-objective search yields (far) more trade-off points per
    // evaluation than the scalarizing sweep.
    assert!(
        with_rs.s > ws.s,
        "RS-GDE3 must find more Pareto points than the weighted-sum sweep"
    );
    println!(
        "check: RS-GDE3 |S| {} > weighted-sum |S| {} — OK",
        with_rs.s, ws.s
    );
}
