//! Property-based tests of the native kernels: tiled implementations match
//! their naive references for arbitrary sizes, tile shapes and team sizes.

use moat_kernels::data::{max_abs_diff, max_abs_diff3, seeded_particles, seeded_vec};
use moat_kernels::native::*;
use moat_runtime::Pool;
use proptest::prelude::*;

const TOL: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mm_any_tiling(
        n in 0usize..=28,
        ti in 1usize..=32,
        tj in 1usize..=32,
        tk in 1usize..=32,
        threads in 1usize..=4,
        seed in 0u64..100,
    ) {
        let a = seeded_vec(n * n, seed);
        let b = seeded_vec(n * n, seed + 1);
        let mut c_ref = seeded_vec(n * n, seed + 2);
        let mut c = c_ref.clone();
        mm_naive(n, &a, &b, &mut c_ref);
        let pool = Pool::new(4);
        mm_tiled(&pool, n, &a, &b, &mut c, (ti, tj, tk), threads);
        prop_assert!(max_abs_diff(&c_ref, &c) < TOL);
    }

    #[test]
    fn dsyrk_any_tiling(
        n in 0usize..=24,
        ti in 1usize..=32,
        tj in 1usize..=32,
        tk in 1usize..=32,
        threads in 1usize..=4,
        seed in 0u64..100,
    ) {
        let a = seeded_vec(n * n, seed);
        let mut b_ref = seeded_vec(n * n, seed + 1);
        let mut b = b_ref.clone();
        dsyrk_naive(n, &a, &mut b_ref);
        let pool = Pool::new(4);
        dsyrk_tiled(&pool, n, &a, &mut b, (ti, tj, tk), threads);
        prop_assert!(max_abs_diff(&b_ref, &b) < TOL);
    }

    #[test]
    fn jacobi_any_tiling(
        n in 0usize..=40,
        ti in 1usize..=48,
        tj in 1usize..=48,
        threads in 1usize..=4,
        seed in 0u64..100,
    ) {
        let a = seeded_vec(n * n, seed);
        let mut b_ref = vec![0.0; n * n];
        let mut b = vec![0.0; n * n];
        jacobi2d_naive(n, &a, &mut b_ref);
        let pool = Pool::new(4);
        jacobi2d_tiled(&pool, n, &a, &mut b, (ti, tj), threads);
        prop_assert!(max_abs_diff(&b_ref, &b) < TOL);
    }

    #[test]
    fn stencil_any_tiling(
        n in 0usize..=12,
        ti in 1usize..=16,
        tj in 1usize..=16,
        tk in 1usize..=16,
        threads in 1usize..=4,
        seed in 0u64..100,
    ) {
        let a = seeded_vec(n * n * n, seed);
        let mut b_ref = vec![0.0; n * n * n];
        let mut b = vec![0.0; n * n * n];
        stencil3d_naive(n, &a, &mut b_ref);
        let pool = Pool::new(4);
        stencil3d_tiled(&pool, n, &a, &mut b, (ti, tj, tk), threads);
        prop_assert!(max_abs_diff(&b_ref, &b) < TOL);
    }

    #[test]
    fn nbody_any_tiling(
        n in 0usize..=60,
        ti in 1usize..=64,
        tj in 1usize..=64,
        threads in 1usize..=4,
        seed in 0u64..100,
    ) {
        let pos = seeded_particles(n, seed);
        let mut f_ref = vec![[0.0; 3]; n];
        let mut f = vec![[0.0; 3]; n];
        nbody_naive(&pos, &mut f_ref);
        let pool = Pool::new(4);
        nbody_tiled(&pool, &pos, &mut f, (ti, tj), threads);
        // Accumulation order differs per tiling: allow FP tolerance.
        prop_assert!(max_abs_diff3(&f_ref, &f) < 1e-5);
    }

    /// The wide ranges above draw few of the sizes where a tile clamp or an
    /// interior width degenerates; here every kernel gets each of them.
    #[test]
    fn every_kernel_at_tiny_sizes(
        n in 0usize..=3,
        ti in 1usize..=4,
        tj in 1usize..=4,
        tk in 1usize..=4,
        threads in 1usize..=4,
        seed in 0u64..100,
    ) {
        let pool = Pool::new(4);
        let a = seeded_vec(n * n * n, seed);
        let (a2, b2) = (&a[..n * n], seeded_vec(n * n, seed + 1));
        let mut want = seeded_vec(n * n * n, seed + 2);
        let mut got = want.clone();
        mm_naive(n, a2, &b2, &mut want[..n * n]);
        mm_tiled(&pool, n, a2, &b2, &mut got[..n * n], (ti, tj, tk), threads);
        prop_assert!(max_abs_diff(&want, &got) < TOL);
        dsyrk_naive(n, a2, &mut want[..n * n]);
        dsyrk_tiled(&pool, n, a2, &mut got[..n * n], (ti, tj, tk), threads);
        prop_assert!(max_abs_diff(&want, &got) < TOL);
        jacobi2d_naive(n, a2, &mut want[..n * n]);
        jacobi2d_tiled(&pool, n, a2, &mut got[..n * n], (ti, tj), threads);
        prop_assert!(max_abs_diff(&want, &got) < TOL);
        stencil3d_naive(n, &a, &mut want);
        stencil3d_tiled(&pool, n, &a, &mut got, (ti, tj, tk), threads);
        prop_assert!(max_abs_diff(&want, &got) < TOL);
        let pos = seeded_particles(n, seed);
        let mut f_want = vec![[0.0; 3]; n];
        let mut f_got = f_want.clone();
        nbody_naive(&pos, &mut f_want);
        nbody_tiled(&pool, &pos, &mut f_got, (ti, tj), threads);
        prop_assert!(max_abs_diff3(&f_want, &f_got) < 1e-5);
    }
}
