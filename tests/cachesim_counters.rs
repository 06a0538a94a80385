//! The cache simulator's counters, pinned to a committed fixture.
//!
//! `tests/streaming_equivalence.rs` holds `simulate_nest` to a one access
//! at a time oracle, but both drive the same demand path, so a change to
//! that path could move both sides alike. This test holds the counters to
//! `tests/fixtures/cachesim_counters.txt` instead: five kernels on the
//! benchmark's geometry and on a small two-chip one, one stream and
//! several, with and without the stream prefetcher, over a dividing, a
//! ragged and a mixed tiling. Each line records the accesses issued, every
//! level's accesses and misses, memory accesses, memory write-backs and
//! prefetches. A change that moves a counter on purpose rewrites the
//! fixture with `cargo test --test cachesim_counters -- --ignored` and
//! shows the old and new lines.

use moat::cachesim::{simulate_nest, CacheConfig, HierarchyConfig, MultiCoreHierarchy};
use moat::ir::transform;
use moat::Kernel;
use std::fmt::Write;

/// The geometry `benchmark/` simulates on: 4 KB / 32 KB private, 256 KB
/// shared, four cores on one chip.
fn bench(prefetch_depth: usize) -> HierarchyConfig {
    HierarchyConfig {
        private_levels: vec![
            CacheConfig::new(4 * 1024, 4, 64),
            CacheConfig::new(32 * 1024, 8, 64),
        ],
        shared_level: CacheConfig::new(256 * 1024, 16, 64),
        cores_per_chip: 4,
        cores: 4,
        prefetch_depth,
    }
}

/// Tiny private levels and a split shared level: evictions, write-back
/// cascades and cross-chip replay.
fn small(prefetch_depth: usize) -> HierarchyConfig {
    HierarchyConfig {
        private_levels: vec![CacheConfig::new(512, 2, 64), CacheConfig::new(2048, 4, 64)],
        shared_level: CacheConfig::new(8192, 4, 64),
        cores_per_chip: 2,
        cores: 3,
        prefetch_depth,
    }
}

/// Tile sizes on the ladder the benchmark's designs draw from: each loop
/// takes one of four sizes spaced geometrically from 8 to `n`, the first
/// two loops by the design's digits and the third by their sum.
fn design(n: i64, design: u64, depth: usize) -> Vec<u64> {
    let steps = [design % 4, design / 4, (design % 4 + design / 4) % 4];
    (0..depth)
        .map(|d| {
            let size = 8.0 * (n as f64 / 8.0).powf(steps[d % 3] as f64 / 3.0);
            (size.round() as u64).clamp(1, n as u64)
        })
        .collect()
}

fn render() -> String {
    let mut out = String::new();
    type Geometry = (&'static str, fn(usize) -> HierarchyConfig, [usize; 2]);
    let geometries: [Geometry; 2] = [("bench", bench, [1, 4]), ("small", small, [1, 3])];
    for (geometry, config, threads) in geometries {
        for kernel in Kernel::all() {
            // Sizes that overflow the private levels (the two stencils the
            // benchmark's shared level too); a dividing and a ragged tile.
            let (n, dividing, ragged) = match (geometry, kernel) {
                ("bench", Kernel::Jacobi2d) => (192, 24, 22),
                ("bench", Kernel::Stencil3d) => (32, 8, 12),
                ("bench", Kernel::Nbody) => (256, 32, 24),
                ("bench", _) => (40, 8, 12),
                (_, Kernel::Stencil3d) => (12, 4, 5),
                _ => (16, 4, 5),
            };
            let region = kernel.region(n);
            let depth = region.nest.loops.len();
            let tilings = [
                ("dividing", vec![dividing; depth]),
                ("ragged", vec![ragged; depth]),
                ("design6", design(n, 6, depth)),
            ];
            for (name, sizes) in tilings {
                let tiled = transform::tile(&region.nest, depth, &sizes).expect("tileable");
                for t in threads {
                    let nest =
                        transform::collapse_and_parallelize(&tiled, 1, t).expect("parallelizable");
                    for prefetch_depth in [0, 2] {
                        let mut h = MultiCoreHierarchy::new(config(prefetch_depth));
                        let issued = simulate_nest(&region.arrays, &nest, &mut h);
                        write!(
                            out,
                            "{geometry} {} n={n} {name}{sizes:?} threads={t} \
                             prefetch={prefetch_depth} issued={issued}",
                            kernel.info().name
                        )
                        .unwrap();
                        for lvl in 0..h.levels() {
                            let s = h.level_stats(lvl);
                            write!(out, " L{}={}/{}", lvl + 1, s.accesses, s.misses).unwrap();
                        }
                        writeln!(
                            out,
                            " mem={} wb={} pf={}",
                            h.memory_accesses(),
                            h.memory_writebacks(),
                            h.prefetches()
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn simulator_counters_equal_the_fixture() {
    let expected = include_str!("fixtures/cachesim_counters.txt");
    let got = render();
    for (i, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, e, "line {}", i + 1);
    }
    assert_eq!(got.lines().count(), expected.lines().count(), "line count");
}

/// Rewrites the fixture from the code as it is, for a change that moves
/// counters on purpose: `cargo test --test cachesim_counters -- --ignored`.
#[test]
#[ignore = "rewrites tests/fixtures/cachesim_counters.txt"]
fn regenerate_the_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/cachesim_counters.txt"
    );
    std::fs::write(path, render()).unwrap();
}
