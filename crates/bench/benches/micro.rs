//! Criterion micro-benchmarks of the framework's building blocks:
//! objective evaluation throughput (the auto-tuner's inner loop), GDE3
//! generation cost, hypervolume computation, trace-driven cache simulation
//! and worker-pool overhead, plus a real (native) tiled kernel.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use moat::core::{hypervolume, hypervolume_2d, BatchEval, Evaluator, Gde3, Gde3Params, Point};
use moat::kernels::native::{mm_naive, mm_tiled};
use moat::kernels::{data, Kernel};
use moat::machine::{CostModel, MachineDesc};
use moat::{ir_space, Pool, SimEvaluator};
use moat_cachesim::{simulate_nest, CacheConfig, HierarchyConfig, MultiCoreHierarchy};
use moat_ir::{analyze, AnalyzerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_objective_eval(c: &mut Criterion) {
    let machine = MachineDesc::westmere();
    let cfg = AnalyzerConfig::for_threads(vec![1, 5, 10, 20, 40]);
    let region = analyze(Kernel::Mm.region(1400), &cfg).unwrap();
    let model = CostModel::new(machine);
    let ev = SimEvaluator {
        region: &region,
        skeleton: &region.skeletons[0],
        model: &model,
    };
    c.bench_function("objective_eval_mm", |b| {
        b.iter(|| ev.evaluate(black_box(&vec![96, 128, 8, 10])))
    });
}

fn bench_gde3_generation(c: &mut Criterion) {
    let machine = MachineDesc::westmere();
    let acfg = AnalyzerConfig::for_threads(vec![1, 5, 10, 20, 40]);
    let region = analyze(Kernel::Mm.region(1400), &acfg).unwrap();
    let model = CostModel::new(machine);
    let ev = SimEvaluator {
        region: &region,
        skeleton: &region.skeletons[0],
        model: &model,
    };
    let space = ir_space(&region.skeletons[0]);
    let gde3 = Gde3::new(space.clone(), Gde3Params::default());
    let batch = BatchEval::sequential();
    let bbox = space.full_box();
    let mut rng = StdRng::seed_from_u64(1);
    let pop = gde3.init_population(&ev, &batch, &bbox, &mut rng);
    c.bench_function("gde3_generation_pop30", |b| {
        b.iter_batched(
            || (pop.clone(), StdRng::seed_from_u64(2)),
            |(mut p, mut r)| gde3.generation(&mut p, &ev, &batch, &bbox, &mut r),
            BatchSize::SmallInput,
        )
    });
}

fn bench_hypervolume(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let front2: Vec<Vec<f64>> = (0..64)
        .map(|_| {
            let x: f64 = rng.random();
            vec![x, 1.0 - x]
        })
        .collect();
    c.bench_function("hypervolume_2d_64pts", |b| {
        b.iter(|| hypervolume_2d(black_box(&front2)))
    });
    let front3: Vec<Vec<f64>> = (0..32)
        .map(|_| (0..3).map(|_| rng.random::<f64>()).collect())
        .collect();
    c.bench_function("hypervolume_3d_32pts", |b| {
        b.iter(|| hypervolume(black_box(&front3)))
    });
}

fn bench_nondominated_sort(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let pts: Vec<Point> = (0..200)
        .map(|i| Point::new(vec![i], vec![rng.random(), rng.random()]))
        .collect();
    c.bench_function("fast_nondominated_sort_200", |b| {
        b.iter(|| moat::core::fast_nondominated_sort(black_box(&pts)))
    });
}

fn bench_cachesim(c: &mut Criterion) {
    let region = Kernel::Mm.region(24);
    c.bench_function("cachesim_mm24_trace", |b| {
        b.iter(|| {
            let mut h = MultiCoreHierarchy::new(HierarchyConfig {
                private_levels: vec![CacheConfig::new(32 * 1024, 8, 64)],
                shared_level: CacheConfig::new(256 * 1024, 8, 64),
                cores_per_chip: 4,
                cores: 4,
                prefetch_depth: 0,
            });
            simulate_nest(&region.arrays, &region.nest, &mut h)
        })
    });
}

fn bench_pool(c: &mut Criterion) {
    let pool = Pool::new(4);
    c.bench_function("pool_parallel_for_4t_overhead", |b| {
        b.iter(|| {
            pool.parallel_for(4, 4, &|range| {
                black_box(range.start);
            })
        })
    });
}

fn bench_parser(c: &mut Criterion) {
    let src = std::fs::read_to_string("../../examples/regions/mm.moat").unwrap_or_else(|_| {
        // Bench may run from the workspace root.
        std::fs::read_to_string("examples/regions/mm.moat").expect("mm.moat not found")
    });
    c.bench_function("parse_region_mm", |b| {
        b.iter(|| moat::ir::parse_region(black_box(&src)).unwrap())
    });
}

fn bench_native_mm(c: &mut Criterion) {
    let n = 192;
    let a = data::seeded_vec(n * n, 1);
    let bm = data::seeded_vec(n * n, 2);
    let pool = Pool::new(4);
    c.bench_function("native_mm192_naive", |b| {
        b.iter_batched(
            || vec![0.0; n * n],
            |mut cm| mm_naive(n, &a, &bm, &mut cm),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("native_mm192_tiled_4t", |b| {
        b.iter_batched(
            || vec![0.0; n * n],
            |mut cm| mm_tiled(&pool, n, &a, &bm, &mut cm, (48, 48, 16), 4),
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_objective_eval,
    bench_gde3_generation,
    bench_hypervolume,
    bench_nondominated_sort,
    bench_cachesim,
    bench_pool,
    bench_parser,
    bench_native_mm
);
criterion_main!(benches);
