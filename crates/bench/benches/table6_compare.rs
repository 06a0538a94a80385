//! Table VI — comparison of the search strategies on all kernels and both
//! architectures: evaluations `E`, Pareto-set size `|S|` and hypervolume
//! `V(S)` for brute force, random search (same budget as RS-GDE3) and
//! RS-GDE3. Stochastic methods report the mean of 5 runs, as in the paper.
//! Every front is rescored noise-free and measured against the cell's exact
//! front: `V(S)` is normalised by its bounds, and `eps-x` is the median over
//! the runs of each run's mean multiplicative epsilon to it.

use moat::{Kernel, MachineDesc};
use moat_bench::fmt;
use moat_bench::{compare_methods, paper_grid_points, Setup};

fn main() {
    for machine in MachineDesc::paper_machines() {
        println!(
            "{}",
            fmt::banner(&format!(
                "Table VI: search strategy comparison ({})",
                machine.name
            ))
        );
        let mut rows = Vec::new();
        let mut cell_lines = Vec::new();
        for kernel in Kernel::all() {
            let name = kernel.info().name;
            let setup = Setup::new(kernel, machine.clone(), None);
            let cmp = compare_methods(&setup, paper_grid_points(kernel), 5);
            let mut row = vec![name.to_string()];
            for (stats, s_digits) in [
                (&cmp.brute_stats, 0),
                (&cmp.random_stats, 1),
                (&cmp.rsgde3_stats, 1),
            ] {
                row.extend([
                    fmt::f(stats.e, 0),
                    fmt::f(stats.s, s_digits),
                    fmt::f(stats.v, 2),
                    fmt::f(stats.eps_median(), 3),
                ]);
            }
            rows.push(row);
            let (b, w) = (cmp.brute_stats.eps[0], cmp.worst_rsgde3_run());
            cell_lines.push(format!(
                "{name}: brute-force front eps-x {:.4} (max {:.4}); worst rs-gde3 seed {} \
                 (E={} |S|={} eps-x={:.4} max {:.4})",
                b.0, b.1, w.seed, w.e, w.s, w.eps.0, w.eps.1
            ));

            // Paper's conclusions (§V-C), checked per kernel:
            // (2) RS-GDE3 needs 90–99+% fewer evaluations than brute force;
            assert!(
                cmp.rsgde3_stats.e <= 0.10 * cmp.brute_stats.e,
                "{name}: E reduction must be >= 90% ({} vs {})",
                cmp.rsgde3_stats.e,
                cmp.brute_stats.e
            );
            // (3) hypervolumes comparable to brute force's and above random
            // search's;
            assert!(
                cmp.rsgde3_stats.v >= 0.75 * cmp.brute_stats.v,
                "{name}: V(S) must be comparable to brute force ({} vs {})",
                cmp.rsgde3_stats.v,
                cmp.brute_stats.v
            );
            assert!(
                cmp.rsgde3_stats.v > cmp.random_stats.v,
                "{name}: RS-GDE3 must outperform random search"
            );
            // and, over the seeds, fronts at least as close to the exact
            // front as brute force's and closer than random search's.
            let (rs, rnd) = (cmp.rsgde3_stats.eps_median(), cmp.random_stats.eps_median());
            let brute = cmp.brute_stats.eps_median();
            assert!(
                rs <= brute,
                "{name}: median RS-GDE3 eps-x {rs:.4} above brute force's {brute:.4}"
            );
            assert!(
                rs < rnd,
                "{name}: median RS-GDE3 eps-x {rs:.4} not below random's {rnd:.4}"
            );
        }
        println!(
            "{}",
            fmt::table(
                &[
                    "benchmark",
                    "BF E",
                    "BF |S|",
                    "BF V",
                    "BF eps-x",
                    "RND E",
                    "RND |S|",
                    "RND V",
                    "RND eps-x",
                    "RS-GDE3 E",
                    "RS-GDE3 |S|",
                    "RS-GDE3 V",
                    "RS-GDE3 eps-x",
                ],
                &rows
            )
        );
        for line in cell_lines {
            println!("{line}");
        }
        println!(
            "check: E reduction >=90%, V(S) comparable to brute force, > random; median eps-x at most brute force's, below random's — OK"
        );
    }
}
