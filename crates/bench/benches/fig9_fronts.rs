//! Fig. 9 — Pareto fronts computed by brute force, random search and
//! RS-GDE3 on both architectures (mm kernel), beside the exact front they
//! are measured against. Random search receives the same evaluation budget
//! as RS-GDE3, as in the paper. The fronts drawn are seed 0's; ε× is stated
//! over all five seeds.

use moat::core::Point;
use moat::{Kernel, MachineDesc};
use moat_bench::fmt;
use moat_bench::{compare_methods, paper_grid_points, MethodStats, Setup};

fn print_front(name: &str, points: &[Point]) {
    let mut pts: Vec<&Point> = points.iter().collect();
    pts.sort_by(|a, b| a.objectives[0].partial_cmp(&b.objectives[0]).unwrap());
    println!("front[{name}] ({} points):", pts.len());
    for p in pts {
        println!(
            "csv: {name},{:.5},{:.5},\"{:?}\"",
            p.objectives[0], p.objectives[1], p.config
        );
    }
}

fn row(method: &str, stats: &MethodStats) -> Vec<String> {
    vec![
        method.into(),
        fmt::f(stats.e, 0),
        fmt::f(stats.s, 1),
        fmt::f(stats.v, 3),
        fmt::f(stats.eps_median(), 4),
    ]
}

fn main() {
    for machine in MachineDesc::paper_machines() {
        println!(
            "{}",
            fmt::banner(&format!(
                "Fig. 9: Pareto fronts by method (mm, {})",
                machine.name
            ))
        );
        let setup = Setup::new(Kernel::Mm, machine.clone(), None);
        let cmp = compare_methods(&setup, paper_grid_points(Kernel::Mm), 5);

        // The figure draws seed 0 of each stochastic method.
        print_front("exact", &cmp.oracle);
        print_front("brute-force", cmp.brute.front.points());
        print_front("random", cmp.random_runs[0].front.points());
        print_front("rs-gde3", cmp.rsgde3_runs[0].front.points());

        // V(S) is normalised by the exact front's bounds; ε× is the median
        // over the seeds of each run's mean multiplicative epsilon to the
        // exact front, every front rescored noise-free.
        let rows = vec![
            row("brute force", &cmp.brute_stats),
            row("random", &cmp.random_stats),
            row("RS-GDE3", &cmp.rsgde3_stats),
        ];
        println!(
            "\n{}",
            fmt::table(&["method", "E", "|S|", "V(S)", "med eps-x"], &rows)
        );
        // The worst run stays in view: an early-stopped seed shows here,
        // not in the median.
        let worst = cmp.worst_rsgde3_run();
        println!(
            "worst rs-gde3 seed: {} (E={} |S|={} eps-x={:.4} max {:.4})",
            worst.seed, worst.e, worst.s, worst.eps.0, worst.eps.1
        );

        // Paper claims: RS-GDE3 reaches brute-force quality at a tiny
        // fraction of the evaluations; random with the same budget is
        // behind. Over the seeds, RS-GDE3 is closer to the exact front than
        // both.
        let (rs, rnd) = (cmp.rsgde3_stats.eps_median(), cmp.random_stats.eps_median());
        let brute = cmp.brute_stats.eps_median();
        assert!(
            cmp.rsgde3_stats.e < 0.1 * cmp.brute_stats.e,
            "RS-GDE3 must use <10% of brute-force evaluations"
        );
        assert!(
            cmp.rsgde3_stats.v > cmp.random_stats.v + 0.01,
            "RS-GDE3 must clearly beat random search"
        );
        assert!(
            cmp.rsgde3_stats.v > 0.8 * cmp.brute_stats.v,
            "RS-GDE3 must be competitive with brute force: {} vs {}",
            cmp.rsgde3_stats.v,
            cmp.brute_stats.v
        );
        assert!(
            rs < rnd,
            "median RS-GDE3 eps-x {rs:.4} not below random's {rnd:.4}"
        );
        assert!(
            rs <= brute,
            "median RS-GDE3 eps-x {rs:.4} above brute force's {brute:.4}"
        );
        println!(
            "check: E ratio {:.2}%, V: rs={:.3} brute={:.3} random={:.3}, \
             eps-x: rs={rs:.4} brute={brute:.4} random={rnd:.4} — OK",
            100.0 * cmp.rsgde3_stats.e / cmp.brute_stats.e,
            cmp.rsgde3_stats.v,
            cmp.brute_stats.v,
            cmp.random_stats.v,
        );
    }
}
