//! Exactness of the streaming parallel cache-simulation path.
//!
//! `simulate_nest` (lazy per-thread streams drawn in run-length blocks,
//! steady-state crediting, parallel private levels, deterministic
//! shared-level replay) must produce *bit-identical* counters to the
//! oracle below — the legacy interleave it replaced: every access drawn
//! through `Iterator::next` and issued one at a time, round-robin over the
//! threads — on every paper kernel, across a sample of tilings (including
//! non-dividing tile sizes, which exercise `min` bounds), parallelized and
//! sequential, with and without the stream prefetcher. The run-length
//! contract those shortcuts rest on is tested on its own, access by
//! access.

use moat::cachesim::{
    simulate_nest, AccessSource, CacheConfig, CompiledNest, HierarchyConfig, MultiCoreHierarchy,
};
use moat::ir::{transform, ArrayDecl, LoopNest};
use moat::runtime::static_chunk;
use moat::Kernel;
use proptest::prelude::*;

/// The reference simulation: each thread's accesses materialized through
/// `Iterator::next`, then issued one per live thread per round (thread `t`
/// from core `t`) through the hierarchy's demand path. Returns the number
/// of accesses issued.
fn oracle(arrays: &[ArrayDecl], nest: &LoopNest, hierarchy: &mut MultiCoreHierarchy) -> u64 {
    let compiled = CompiledNest::new(arrays, nest);
    let traces: Vec<Vec<(u64, bool)>> = compiled
        .thread_streams()
        .into_iter()
        .map(Iterator::collect)
        .collect();
    let rounds = traces.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (t, trace) in traces.iter().enumerate() {
            match trace.get(round) {
                Some(&(addr, true)) => hierarchy.write(t, addr),
                Some(&(addr, false)) => hierarchy.access(t, addr),
                None => continue,
            };
        }
    }
    traces.iter().map(|t| t.len() as u64).sum()
}

/// A deliberately small two-chip hierarchy: tiny private levels force
/// misses, evictions and write-back cascades; the split shared level
/// exercises the per-chip replay routing.
fn small(prefetch_depth: usize) -> MultiCoreHierarchy {
    MultiCoreHierarchy::new(HierarchyConfig {
        private_levels: vec![CacheConfig::new(512, 2, 64), CacheConfig::new(2048, 4, 64)],
        shared_level: CacheConfig::new(8192, 4, 64),
        cores_per_chip: 2,
        cores: 3,
        prefetch_depth,
    })
}

/// The geometry `benchmark/` simulates on: 4 KB / 32 KB private, 256 KB
/// shared, four cores on one chip.
fn bench(prefetch_depth: usize) -> MultiCoreHierarchy {
    MultiCoreHierarchy::new(HierarchyConfig {
        private_levels: vec![
            CacheConfig::new(4 * 1024, 4, 64),
            CacheConfig::new(32 * 1024, 8, 64),
        ],
        shared_level: CacheConfig::new(256 * 1024, 16, 64),
        cores_per_chip: 4,
        cores: 4,
        prefetch_depth,
    })
}

fn assert_equivalent(
    kernel: Kernel,
    variant: &str,
    nest: &LoopNest,
    n: i64,
    hierarchy: fn(usize) -> MultiCoreHierarchy,
) {
    let region = kernel.region(n);
    for prefetch_depth in [0, 2] {
        let mut reference = hierarchy(prefetch_depth);
        let issued_reference = oracle(&region.arrays, nest, &mut reference);
        let mut streaming = hierarchy(prefetch_depth);
        let issued_streaming = simulate_nest(&region.arrays, nest, &mut streaming);
        let ctx = format!(
            "{} [{variant}] prefetch={prefetch_depth}",
            kernel.info().name
        );
        assert!(issued_reference > 0, "{ctx}: empty trace");
        assert_eq!(issued_streaming, issued_reference, "{ctx}: access count");
        for lvl in 0..reference.levels() {
            assert_eq!(
                streaming.level_stats(lvl),
                reference.level_stats(lvl),
                "{ctx}: level {lvl} stats"
            );
        }
        assert_eq!(
            streaming.memory_accesses(),
            reference.memory_accesses(),
            "{ctx}: memory accesses"
        );
        assert_eq!(
            streaming.memory_writebacks(),
            reference.memory_writebacks(),
            "{ctx}: memory write-backs"
        );
        assert_eq!(
            streaming.prefetches(),
            reference.prefetches(),
            "{ctx}: prefetches"
        );
    }
}

/// Every kernel × a tiling sample: untiled, dividing tiles, non-dividing
/// tiles (ragged `min`-bound edge tiles), and a collapsed parallel form.
#[test]
fn streaming_matches_legacy_on_all_kernels() {
    for kernel in Kernel::all() {
        let n = match kernel {
            Kernel::Stencil3d => 12,
            _ => 16,
        };
        let region = kernel.region(n);
        let nest = &region.nest;
        let depth = nest.loops.len();

        assert_equivalent(kernel, "untiled", nest, n, small);

        // Tile the full band with a dividing and a non-dividing size.
        for tile in [4u64, 5u64] {
            let sizes = vec![tile; depth];
            let Ok(tiled) = transform::tile(nest, depth, &sizes) else {
                continue;
            };
            assert_equivalent(kernel, &format!("tiled{tile}"), &tiled, n, small);

            // Parallelize over the collapsed tile loops (3 threads on a
            // 2-cores-per-chip hierarchy: uneven chunks + cross-chip).
            for collapse in [1, 2] {
                if let Ok(par) = transform::collapse_and_parallelize(&tiled, collapse, 3) {
                    assert_equivalent(
                        kernel,
                        &format!("tiled{tile}/collapse{collapse}x3"),
                        &par,
                        n,
                        small,
                    );
                }
            }
        }
    }
}

/// The benchmark's geometry at 1 and 4 threads, at sizes that overflow its
/// private levels (the two stencils its shared level too): the single
/// stream drives the shared level directly, four streams go through the
/// in-place merge, and dsyrk, jacobi-2d and 3d-stencil draw point-level
/// runs (mm and n-body pass-level ones).
#[test]
fn streaming_matches_legacy_on_the_benchmark_geometry() {
    for kernel in Kernel::all() {
        let (n, tile) = match kernel {
            Kernel::Jacobi2d => (192, 24u64),
            Kernel::Stencil3d => (32, 12),
            Kernel::Nbody => (256, 24),
            Kernel::Mm | Kernel::Dsyrk => (40, 12),
        };
        let region = kernel.region(n);
        let depth = region.nest.loops.len();
        let tiled = transform::tile(&region.nest, depth, &vec![tile; depth]).expect("tileable");
        for threads in [1, 4] {
            let par =
                transform::collapse_and_parallelize(&tiled, 1, threads).expect("parallelizable");
            let streams = CompiledNest::new(&region.arrays, &par)
                .thread_streams()
                .len();
            assert_eq!(streams, threads, "{}: stream count", kernel.info().name);
            assert_equivalent(kernel, &format!("tiled{tile}x{threads}"), &par, n, bench);
        }
    }
}

/// `thread_streams` splits the collapsed prefixes with a private copy of
/// `moat_runtime::static_chunk`; this holds the copy to the original. One
/// loop of `total` single-reference iterations over `team` threads: thread
/// `t` must draw exactly its chunk's length.
#[test]
fn thread_streams_chunk_like_the_runtime() {
    use moat::ir::{Access, ArrayId, Loop, Stmt, VarId};
    let i = VarId(0);
    let arrays = [ArrayDecl::new(ArrayId(0), "A", vec![64], 8)];
    for total in 0..=64u64 {
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 0, total as i64)],
            vec![Stmt::new(vec![Access::read(ArrayId(0), vec![i.into()])], 1)],
        );
        for team in 1..=8usize {
            let par = transform::collapse_and_parallelize(&nest, 1, team).expect("parallelizable");
            let compiled = CompiledNest::new(&arrays, &par);
            let drawn: Vec<u64> = compiled
                .thread_streams()
                .into_iter()
                .map(|s| s.count() as u64)
                .collect();
            let chunks: Vec<u64> = (0..team)
                .map(|tid| static_chunk(total, team, tid).count() as u64)
                .collect();
            assert_eq!(drawn, chunks, "total {total} over {team} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The `next_run` contract, for both block shapes (which one a stream
    /// takes follows from the kernel and the line size): every repetition
    /// of every run touches, access by access, the line `buf` names with
    /// the flag `buf` carries — checked against a twin stream walked with
    /// `Iterator::next` — and the runs add up to the whole nest.
    #[test]
    fn runs_repeat_the_lines_of_their_block(
        kernel in 0usize..5,
        tiles in prop::collection::vec(2u64..12, 3),
        line_shift in 5u32..8,
        threads in 1usize..4,
    ) {
        let kernel = Kernel::all()[kernel];
        let n = if kernel == Kernel::Stencil3d { 10 } else { 18 };
        let region = kernel.region(n);
        let depth = region.nest.loops.len();
        let tiled = transform::tile(&region.nest, depth, &tiles[..depth]).expect("tileable");
        let nest = transform::collapse_and_parallelize(&tiled, 1, threads).expect("parallelizable");
        let compiled = CompiledNest::new(&region.arrays, &nest);
        let refs: u64 = nest.body.iter().map(|s| s.accesses.len() as u64).sum();
        let mut drawn = 0u64;
        let mut buf = Vec::new();
        for (mut runs, mut twin) in compiled.thread_streams().into_iter().zip(compiled.thread_streams()) {
            loop {
                let reps = runs.next_run(&mut buf, line_shift);
                if reps == 0 {
                    break;
                }
                for rep in 0..reps {
                    for (a, &(addr, is_write)) in buf.iter().enumerate() {
                        let next = twin.next();
                        prop_assert_eq!(
                            next.map(|(x, w)| (x >> line_shift, w)),
                            Some((addr >> line_shift, is_write)),
                            "repetition {} of {}, access {}", rep, reps, a
                        );
                    }
                }
                drawn += reps * buf.len() as u64;
            }
            prop_assert_eq!(twin.next(), None, "the runs stop short of the stream");
        }
        // Tiling only reorders the iterations of the kernel's own nest.
        let iterations = region.nest.const_iterations().expect("constant bounds");
        prop_assert_eq!(drawn, iterations * refs);
    }
}
