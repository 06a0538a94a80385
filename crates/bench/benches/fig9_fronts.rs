//! Fig. 9 — Pareto fronts computed by brute force, random search and
//! RS-GDE3 on both architectures (mm kernel). Random search receives the
//! same evaluation budget as RS-GDE3, as in the paper. The fronts drawn are
//! seed 0's; every indicator is stated over all five seeds.

use moat::core::{additive_epsilon, igd, Point};
use moat::{Kernel, MachineDesc};
use moat_bench::fmt;
use moat_bench::{compare_methods, hv_under, paper_grid_points, Setup};

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
        print_front("brute-force", cmp.brute.front.points());
        print_front("random", &cmp.random_fronts[0]);
        print_front("rs-gde3", &cmp.rsgde3_fronts[0]);

        // Additional set-quality indicators (extensions beyond the paper's
        // metrics), both measured against the brute-force front: medians
        // over the seeds.
        let reference = cmp.brute.front.points();
        let (rs_igd, rnd_igd) = (
            cmp.median_igd(&cmp.rsgde3_fronts),
            cmp.median_igd(&cmp.random_fronts),
        );
        let rows = vec![
            vec![
                "brute force".into(),
                fmt::f(cmp.brute_stats.e, 0),
                fmt::f(cmp.brute_stats.s, 1),
                fmt::f(cmp.brute_stats.v, 3),
                fmt::f(igd(reference, reference), 4),
                fmt::f(additive_epsilon(reference, reference), 4),
            ],
            vec![
                "random".into(),
                fmt::f(cmp.random_stats.e, 0),
                fmt::f(cmp.random_stats.s, 1),
                fmt::f(cmp.random_stats.v, 3),
                fmt::f(rnd_igd, 4),
                fmt::f(cmp.median_epsilon(&cmp.random_fronts), 4),
            ],
            vec![
                "RS-GDE3".into(),
                fmt::f(cmp.rsgde3_stats.e, 0),
                fmt::f(cmp.rsgde3_stats.s, 1),
                fmt::f(cmp.rsgde3_stats.v, 3),
                fmt::f(rs_igd, 4),
                fmt::f(cmp.median_epsilon(&cmp.rsgde3_fronts), 4),
            ],
        ];
        println!(
            "\n{}",
            fmt::table(
                &["method", "E", "|S|", "V(S)", "med IGD", "med eps+"],
                &rows
            )
        );
        // Over the seeds, RS-GDE3's fronts are at least as close to the
        // reference as random's by IGD. The worst run stays in view: an
        // early-stopped seed shows here, not in the median.
        let worst = cmp.worst_rsgde3_run();
        println!(
            "worst rs-gde3 seed: {} (E={} |S|={} IGD={:.4})",
            worst.seed, worst.e, worst.s, worst.igd
        );
        assert!(
            rs_igd <= rnd_igd,
            "median RS-GDE3 IGD {rs_igd:.4} above random's {rnd_igd:.4}"
        );

        // Paper claims: RS-GDE3 ≈/≥ brute force quality at a tiny fraction
        // of the evaluations; random with the same budget is far behind.
        let hv_rs_first = hv_under(&cmp.rsgde3_fronts[0], &cmp.ideal, &cmp.nadir);
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
        println!(
            "check: E ratio {:.2}%, V: rs={:.3} brute={:.3} random={:.3} (first-seed rs hv {:.3}) — OK",
            100.0 * cmp.rsgde3_stats.e / cmp.brute_stats.e,
            cmp.rsgde3_stats.v,
            cmp.brute_stats.v,
            cmp.random_stats.v,
            hv_rs_first
        );
    }
}
