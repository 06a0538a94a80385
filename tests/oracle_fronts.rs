//! The committed exact fronts (`tests/fixtures/oracle_fronts.txt`, written
//! by `moat_bench::oracle`; see `crates/bench/tests/oracle_fronts.rs`) are
//! what they claim to be, checked without recomputing them: every point
//! re-evaluates on the noise-free model to its recorded objectives bit for
//! bit, each cell's points are mutually non-dominated with at most one per
//! thread count, and no ±1 move of one tile from any point lowers its time.

use moat::core::{dominates, Evaluator};
use moat::ir::analyze;
use moat::machine::CostModel;
use moat::{ir_space, Kernel, MachineDesc, SimEvaluator};
use moat_ir::AnalyzerConfig;

/// One fixture line: the configuration (tiles, then threads) and the
/// recorded objective bits.
fn parse(line: &str) -> (Vec<i64>, [u64; 2]) {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let field = |i: usize, key: &str| fields[i].strip_prefix(key).expect(line);
    let mut config: Vec<i64> = field(3, "tiles=")
        .split(',')
        .map(|v| v.parse().unwrap())
        .collect();
    config.push(field(2, "t=").parse().unwrap());
    let bits = |i: usize, key: &str| u64::from_str_radix(field(i, key), 16).unwrap();
    (config, [bits(4, "time="), bits(6, "resources=")])
}

#[test]
fn fixture_fronts_are_exact() {
    let fixture = include_str!("fixtures/oracle_fronts.txt");
    let mut checked = 0;
    for kernel in Kernel::all() {
        for machine in MachineDesc::paper_machines() {
            let prefix = format!("{} {} ", kernel.info().name, machine.name);
            let cfg = AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect());
            let region = analyze(kernel.paper_region(), &cfg).unwrap();
            let space = ir_space(&region.skeletons[0]);
            let model = CostModel::new(machine);
            let ev = SimEvaluator {
                region: &region,
                skeleton: &region.skeletons[0],
                model: &model,
            };
            let front: Vec<(Vec<i64>, Vec<f64>)> = fixture
                .lines()
                .filter(|l| l.starts_with(&prefix))
                .map(|line| {
                    let (config, bits) = parse(line);
                    let objectives = ev.evaluate(&config).expect(line);
                    let got = [objectives[0].to_bits(), objectives[1].to_bits()];
                    assert_eq!(got, bits, "{line}");
                    (config, objectives)
                })
                .collect();
            assert!(!front.is_empty(), "no front for {prefix}");
            checked += front.len();

            let threads = space.dims() - 1;
            for (i, (config, objectives)) in front.iter().enumerate() {
                for (other, other_objectives) in &front[i + 1..] {
                    assert_ne!(config[threads], other[threads], "{prefix}two points");
                    assert!(
                        !dominates(objectives, other_objectives),
                        "{prefix}{config:?}"
                    );
                    assert!(
                        !dominates(other_objectives, objectives),
                        "{prefix}{other:?}"
                    );
                }
                for d in 0..threads {
                    for step in [-1, 1] {
                        let mut moved = config.clone();
                        moved[d] += step;
                        if space.contains(&moved) {
                            let time = ev.evaluate(&moved).unwrap()[0];
                            assert!(time >= objectives[0], "{prefix}{moved:?} beats {config:?}");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        checked,
        fixture.lines().count(),
        "lines outside the ten cells"
    );
}
