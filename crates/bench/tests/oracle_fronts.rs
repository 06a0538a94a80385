//! The exact front of every paper cell (five kernels × two machines),
//! computed by `moat_bench::oracle` at the paper's grid resolution, held to
//! `tests/fixtures/oracle_fronts.txt` byte for byte.
//!
//! One line per front point: kernel, machine, thread count, tiles, then
//! time and resources as f64 bits and as decimals. The oracle sweeps the
//! paper grid at every thread count, so the comparison runs only in an
//! optimised build (`cargo test --release -p moat-bench --test
//! oracle_fronts`, ≈ 6 s on two cores); the root crate's
//! `tests/oracle_fronts.rs` checks the fixture's points cheaply in every
//! build. A change that moves the fronts on purpose rewrites the fixture
//! with the ignored `regenerate_the_fixture`.

use moat::{Kernel, MachineDesc};
use moat_bench::{oracle, paper_grid_points, Setup};
use std::fmt::Write;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/oracle_fronts.txt"
);

fn render() -> String {
    let mut out = String::new();
    for kernel in Kernel::all() {
        for machine in MachineDesc::paper_machines() {
            let name = machine.name.clone();
            let setup = Setup::new(kernel, machine, None);
            let threads = setup.threads_dim();
            for p in oracle(&setup, paper_grid_points(kernel)) {
                let tiles: Vec<String> = p.config[..threads].iter().map(i64::to_string).collect();
                let [time, resources] = [p.objectives[0], p.objectives[1]];
                writeln!(
                    out,
                    "{} {name} t={} tiles={} time={:016x} {time:.9} resources={:016x} {resources:.9}",
                    kernel.info().name,
                    p.config[threads],
                    tiles.join(","),
                    time.to_bits(),
                    resources.to_bits(),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-size oracles: run with --release")]
fn oracle_fronts_match_the_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).unwrap();
    let got = render();
    for (line, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, e, "oracle front differs at fixture line {}", line + 1);
    }
    assert_eq!(got.lines().count(), expected.lines().count());
}

/// Rewrites the fixture from the code as it is: `cargo test --release -p
/// moat-bench --test oracle_fronts -- --ignored regenerate`.
#[test]
#[ignore = "rewrites tests/fixtures/oracle_fronts.txt"]
fn regenerate_the_fixture() {
    std::fs::write(FIXTURE, render()).unwrap();
}
