//! Bit-exact search trajectories: `rs-gde3` and `gde3` at default
//! parameters, sequential batches, on the five kernels × two machines at
//! paper size and three seeds. Seeds 0 and 8 on mm/Westmere and 42 on
//! mm/Barcelona are runs that stop early.
//!
//! Each run is recorded as `E`, iterations and stop reason, every front
//! signature (size, ideal and hypervolume as bits), the final front as
//! configuration plus objective bits, and an FNV-1a digest of every
//! evaluated point in evaluation order. `tests/fixtures/trajectories.txt`
//! holds the expected text; a change that moves a trajectory on purpose
//! rewrites it (the ignored `regenerate_the_fixture`) and shows the old and
//! new lines side by side.

use moat::core::{BatchEval, Point, RsGde3Params, RsGde3Tuner, Tuner, TuningSession};
use moat::ir::analyze;
use moat::machine::{CostModel, NoiseModel};
use moat::{ir_space, Kernel, MachineDesc, MultiObjectiveEvaluator, Objective};
use moat_ir::AnalyzerConfig;
use std::fmt::Write;

const SEEDS: [u64; 3] = [0, 8, 42];

fn bits(xs: &[f64]) -> String {
    let hex: Vec<String> = xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
    hex.join(",")
}

fn config(p: &Point) -> String {
    let vals: Vec<String> = p.config.iter().map(i64::to_string).collect();
    vals.join(",")
}

/// FNV-1a over every evaluated point's configuration and objective bits.
fn digest(all: &[Point]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in all {
        p.config.iter().for_each(|&v| eat(v as u64));
        p.objectives.iter().for_each(|x| eat(x.to_bits()));
    }
    h
}

fn render() -> String {
    let mut out = String::new();
    for kernel in Kernel::all() {
        for machine in [MachineDesc::westmere(), MachineDesc::barcelona()] {
            let cfg = AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect());
            let region = analyze(kernel.paper_region(), &cfg).unwrap();
            let skeleton = &region.skeletons[0];
            let space = ir_space(skeleton);
            let model = CostModel::with_noise(machine.clone(), NoiseModel::default());
            let ev = MultiObjectiveEvaluator {
                region: &region,
                skeleton,
                model: &model,
                objectives: vec![Objective::Time, Objective::Resources],
            };
            for use_roughset in [true, false] {
                for seed in SEEDS {
                    let tuner = RsGde3Tuner::new(RsGde3Params {
                        seed,
                        use_roughset,
                        ..Default::default()
                    });
                    let mut session =
                        TuningSession::new(space.clone(), &ev).with_batch(BatchEval::sequential());
                    let r = session.run(&tuner);
                    writeln!(
                        out,
                        "run {} {} {} seed={seed} E={} iterations={} stop={:?} all={:016x}",
                        tuner.name(),
                        kernel.info().name,
                        machine.name,
                        r.evaluations,
                        r.iterations,
                        r.stop,
                        digest(&r.all),
                    )
                    .unwrap();
                    for sig in &r.trace {
                        writeln!(
                            out,
                            "sig {} {} {:016x}",
                            sig.size,
                            bits(&sig.ideal),
                            sig.hv.to_bits()
                        )
                        .unwrap();
                    }
                    for p in r.front.points() {
                        writeln!(out, "front {} {}", config(p), bits(&p.objectives)).unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn search_trajectories_are_bit_identical_to_the_fixture() {
    let expected = include_str!("fixtures/trajectories.txt");
    let got = render();
    if got != expected {
        let first = got
            .lines()
            .zip(expected.lines())
            .position(|(g, e)| g != e)
            .unwrap_or_else(|| got.lines().count().min(expected.lines().count()));
        fn context(s: &str, first: usize) -> Vec<&str> {
            s.lines().skip(first.saturating_sub(2)).take(5).collect()
        }
        panic!(
            "trajectory differs from line {}:\nexpected {:#?}\ngot      {:#?}",
            first + 1,
            context(expected, first),
            context(&got, first)
        );
    }
}

/// Rewrites the fixture from the code as it is, for a change that moves
/// trajectories on purpose: `cargo test --test trajectories -- --ignored`.
#[test]
#[ignore = "rewrites tests/fixtures/trajectories.txt"]
fn regenerate_the_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/trajectories.txt"
    );
    std::fs::write(path, render()).unwrap();
}
