//! `moat-bench` — experiment harnesses regenerating every table and figure
//! of the paper's evaluation (§V), plus criterion micro-benchmarks and
//! ablation studies.
//!
//! Each table/figure has a dedicated `harness = false` bench target (run
//! `cargo bench -p moat-bench --bench <name>`):
//!
//! | target           | paper artifact |
//! |------------------|----------------|
//! | `fig1_tradeoff`  | Fig. 1 — efficiency/speedup trade-off (mm) |
//! | `fig2_heatmap`   | Fig. 2 — tile-size heatmaps per thread count |
//! | `table2_tiles`   | Table II — optimal tiles + cross-thread losses |
//! | `table3_pareto`  | Table III — speedup/efficiency of Pareto points |
//! | `fig8_scatter`   | Fig. 8 — time vs. resources of all configurations |
//! | `fig9_fronts`    | Fig. 9 — Pareto fronts of the three optimizers |
//! | `table5_kernels` | Table V — per-kernel cross-thread losses |
//! | `table6_compare` | Table VI — E, |S|, V(S) and ε× for all methods |
//! | `ablation`       | design-choice studies (rough set, population, …) |
//! | `warmstart`      | extension: archive warm-start vs cold-start study |
//! | `tri_objective`  | extension: time/resources/energy tuning (3-d HV) |
//! | `validation`     | analytic model vs trace-driven cache simulator |
//! | `micro`          | criterion micro-benchmarks of framework parts |
//!
//! `scripts/repro.sh` runs every target but `micro` and records each one's
//! exit status and stdout in the committed `REPRO.json`.

#![warn(missing_docs)]

pub mod exp;
pub mod fmt;

pub use exp::*;
