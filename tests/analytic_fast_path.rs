//! Differential test of the analytic evaluation fast path.
//!
//! The evaluators of `moat::sim` cost a configuration from the *shape* of
//! its variant (`Skeleton::with_shape`), never building the loop nest. The
//! reference is the materialising path they replaced — `Skeleton::
//! instantiate` followed by `CostModel::measure` on the built variant — and
//! the two must agree to the bit on every objective, and on which
//! configurations evaluate at all.

use moat::core::{Config, Evaluator};
use moat::ir::{
    analyze, parse_region, AnalyzerConfig, ParamDecl, ParamDomain, Region, Skeleton, Step,
};
use moat::machine::{CostModel, Measurement, NoiseModel};
use moat::{
    AltSkeletonEvaluator, FixedUnrollEvaluator, Kernel, MachineDesc, MultiObjectiveEvaluator,
    Objective, SimEvaluator, SkeletonChoiceEvaluator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded configurations per (region, machine, skeleton, evaluator).
const CONFIGS: usize = 2_000;

const THREE: [Objective; 3] = [Objective::Time, Objective::Resources, Objective::Energy];

fn machines() -> [MachineDesc; 2] {
    [MachineDesc::westmere(), MachineDesc::barcelona()]
}

fn analyzed(region: Region, machine: &MachineDesc) -> Region {
    let cfg = AnalyzerConfig {
        alternatives: true,
        ..AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect())
    };
    analyze(region, &cfg).unwrap()
}

fn models(machine: &MachineDesc) -> [CostModel; 2] {
    [
        CostModel::new(machine.clone()),
        CostModel::with_noise(machine.clone(), NoiseModel::default()),
    ]
}

/// One admissible value of `domain`.
fn sample(domain: &ParamDomain, rng: &mut StdRng) -> i64 {
    match domain {
        ParamDomain::IntRange { lo, hi } => rng.random_range(*lo..=*hi),
        ParamDomain::Choice(vals) => vals[rng.random_range(0..vals.len())],
    }
}

/// A configuration over `params`: mostly in-domain, with every fourth one
/// pushed out of domain in one slot and every tenth of the wrong arity.
fn config(params: &[ParamDecl], i: usize, rng: &mut StdRng) -> Config {
    let mut cfg: Config = params.iter().map(|p| sample(&p.domain, rng)).collect();
    if i % 4 == 1 {
        let slot = rng.random_range(0..cfg.len());
        let (lo, hi) = params[slot].domain.extremes();
        cfg[slot] = match rng.random_range(0..3u32) {
            0 => lo - 1 - rng.random_range(0..5i64),
            1 => hi + 1 + rng.random_range(0..5000i64),
            _ => 0,
        };
    }
    if i % 10 == 7 {
        if rng.random_bool(0.5) {
            cfg.pop();
        } else {
            cfg.push(rng.random_range(1..=8i64));
        }
    }
    cfg
}

/// The materialising reference: build the variant, then cost it.
fn reference(
    region: &Region,
    skeleton: &Skeleton,
    model: &CostModel,
    values: &[i64],
) -> Option<Measurement> {
    let variant = skeleton.instantiate(&region.nest, values).ok()?;
    Some(model.measure(&region.arrays, &variant))
}

fn bits(objectives: Option<Vec<f64>>) -> Option<Vec<u64>> {
    objectives.map(|o| o.into_iter().map(f64::to_bits).collect())
}

/// `ev` agrees with `expect` on `CONFIGS` configurations drawn by `draw`;
/// returns how many evaluated and how many did not.
fn agree(
    what: &str,
    ev: &dyn Evaluator,
    seed: u64,
    mut draw: impl FnMut(usize, &mut StdRng) -> Config,
    expect: impl Fn(&Config) -> Option<Vec<f64>>,
) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut some, mut none) = (0, 0);
    for i in 0..CONFIGS {
        let cfg = draw(i, &mut rng);
        let got = bits(ev.evaluate(&cfg));
        let want = bits(expect(&cfg));
        assert_eq!(got, want, "{what}: configuration {cfg:?}");
        match got {
            Some(_) => some += 1,
            None => none += 1,
        }
    }
    (some, none)
}

fn time_resources(m: Measurement) -> Vec<f64> {
    vec![m.time_s, m.resources]
}

/// Every evaluator of `moat::sim` over every skeleton of `region`, with and
/// without measurement noise.
fn check_region(region: &Region, machine: &MachineDesc, seed: u64) {
    let base = &region.skeletons[0];
    for (mi, model) in models(machine).iter().enumerate() {
        let seed = seed * 2 + mi as u64;
        for (si, skeleton) in region.skeletons.iter().enumerate() {
            let what = |ev: &str| {
                format!(
                    "{ev} on {} / {} / {} (noise: {})",
                    region.name,
                    machine.name,
                    skeleton.name,
                    model.noise.is_some()
                )
            };

            let sim = SimEvaluator {
                region,
                skeleton,
                model,
            };
            let (some, none) = agree(
                &what("SimEvaluator"),
                &sim,
                seed,
                |i, rng| config(&skeleton.params, i, rng),
                |cfg| reference(region, skeleton, model, cfg).map(time_resources),
            );
            // The draw exercises both outcomes.
            assert!(some > CONFIGS / 2 && none > CONFIGS / 10, "{some}/{none}");

            let multi = MultiObjectiveEvaluator {
                region,
                skeleton,
                model,
                objectives: THREE.to_vec(),
            };
            agree(
                &what("MultiObjectiveEvaluator"),
                &multi,
                seed + 100,
                |i, rng| config(&skeleton.params, i, rng),
                |cfg| {
                    reference(region, skeleton, model, cfg)
                        .map(|m| THREE.iter().map(|o| o.of(&m)).collect())
                },
            );

            let unrolled = FixedUnrollEvaluator::new(region, skeleton, model, 4);
            let mut with_unroll = skeleton.clone();
            with_unroll
                .params
                .push(ParamDecl::new("unroll", ParamDomain::Choice(vec![4])));
            with_unroll.steps.push(Step::Unroll {
                factor_param: skeleton.params.len(),
            });
            agree(
                &what("FixedUnrollEvaluator"),
                &unrolled,
                seed + 200,
                |i, rng| config(&skeleton.params, i, rng),
                |cfg| {
                    let mut values = cfg.clone();
                    values.push(4);
                    reference(region, &with_unroll, model, &values).map(time_resources)
                },
            );

            // Fed the base skeleton's configurations, whatever its own arity.
            let alt = AltSkeletonEvaluator::new(region, model, si);
            agree(
                &what("AltSkeletonEvaluator"),
                &alt,
                seed + 300,
                |i, rng| config(&base.params, i, rng),
                |cfg| {
                    let n = skeleton.params.len().min(cfg.len());
                    let values = skeleton.nearest_values(&cfg[..n]);
                    reference(region, skeleton, model, &values).map(time_resources)
                },
            );
        }

        let choice = SkeletonChoiceEvaluator { region, model };
        let space = choice.space();
        let slots: Vec<ParamDecl> = space
            .names
            .iter()
            .zip(&space.domains)
            .map(|(name, d)| {
                let (lo, hi) = match d {
                    moat::core::Domain::Range { lo, hi } => (*lo, *hi),
                    moat::core::Domain::Choice(v) => (v[0], v[v.len() - 1]),
                };
                ParamDecl::new(name.clone(), ParamDomain::IntRange { lo, hi })
            })
            .collect();
        agree(
            &format!("SkeletonChoiceEvaluator on {}", region.name),
            &choice,
            seed + 400,
            // Too short a configuration is a caller error (it panics on
            // both paths); longer and out-of-domain ones are projected.
            |i, rng| {
                let mut cfg = config(&slots, i, rng);
                while cfg.len() < slots.len() {
                    cfg.push(1);
                }
                cfg
            },
            |cfg| {
                let (idx, values) = choice.decode(cfg);
                reference(region, &region.skeletons[idx], model, &values).map(time_resources)
            },
        );
    }
}

#[test]
fn shape_path_equals_materialising_path_on_the_paper_kernels() {
    for (k, kernel) in Kernel::all().into_iter().enumerate() {
        for (m, machine) in machines().iter().enumerate() {
            let region = analyzed(kernel.paper_region(), machine);
            assert!(!region.skeletons.is_empty());
            check_region(&region, machine, (k * 2 + m) as u64 + 1);
        }
    }
}

#[test]
fn shape_path_equals_materialising_path_on_the_example_regions() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/regions");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "moat"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "example regions went missing");
    for (i, path) in paths.iter().enumerate() {
        let source = std::fs::read_to_string(path).unwrap();
        let parsed = parse_region(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for machine in &machines() {
            let region = analyzed(parsed.clone(), machine);
            check_region(&region, machine, 1000 + i as u64);
        }
    }
}

/// Steps the analyzer never emits — a second tiling, a collapse of
/// non-rectangular loops — walk to the same verdict and the
/// same objectives as the transformations that build the nest.
#[test]
fn hand_written_skeletons_agree_too() {
    let machine = MachineDesc::westmere();
    let region = analyzed(Kernel::Mm.region(96), &machine);
    let tile = |hi| ParamDomain::IntRange { lo: 1, hi };
    let threads = ParamDecl::new("threads", ParamDomain::Choice(vec![1, 2, 4, 8]));
    let skeletons = [
        // Tiling twice, a band wider than the nest, a collapse reaching a
        // point loop.
        Skeleton::new(
            "tile-twice",
            vec![ParamDecl::new("t0", tile(48))],
            vec![
                Step::Tile {
                    band: 1,
                    size_params: vec![0],
                },
                Step::Tile {
                    band: 1,
                    size_params: vec![0],
                },
            ],
        ),
        Skeleton::new(
            "band-too-wide",
            vec![ParamDecl::new("t0", tile(48))],
            vec![Step::Tile {
                band: 4,
                size_params: vec![0, 0, 0, 0],
            }],
        ),
        Skeleton::new(
            "collapse-into-points",
            vec![ParamDecl::new("t0", tile(48)), threads.clone()],
            vec![
                Step::Tile {
                    band: 1,
                    size_params: vec![0],
                },
                Step::Collapse { count: 2 },
                Step::Parallelize { threads_param: 1 },
            ],
        ),
        // No structural step at all.
        Skeleton::new(
            "unroll-only",
            vec![ParamDecl::new("u", ParamDomain::Choice(vec![1, 2, 4, 8]))],
            vec![Step::Unroll { factor_param: 0 }],
        ),
    ];
    let expect_some = [false, false, false, true];
    for model in &models(&machine) {
        for (skeleton, expect_some) in skeletons.iter().zip(expect_some) {
            let ev = MultiObjectiveEvaluator {
                region: &region,
                skeleton,
                model,
                objectives: THREE.to_vec(),
            };
            let (some, _) = agree(
                &skeleton.name,
                &ev,
                7,
                |_, rng| {
                    skeleton
                        .params
                        .iter()
                        .map(|p| sample(&p.domain, rng))
                        .collect()
                },
                |cfg| {
                    reference(&region, skeleton, model, cfg)
                        .map(|m| THREE.iter().map(|o| o.of(&m)).collect())
                },
            );
            assert_eq!(some > 0, expect_some, "{}", skeleton.name);
        }
    }
}
