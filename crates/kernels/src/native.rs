//! Native (really executing) tiled implementations of the five kernels.
//!
//! These are the code shapes the paper's backend generates: the tile band
//! is tiled with runtime tile sizes, the outer (parallel) tile loops are
//! collapsed into a flat chunk space and distributed over the worker pool
//! with static chunking. Output regions are disjoint per parallel chunk, so
//! the implementations are data-race free by construction; each tiled
//! kernel is verified against its naive reference in the tests.

// The `let p = p;` rebindings inside the worker closures are not redundant:
// with edition-2021 disjoint capture the closure would otherwise capture the
// raw-pointer *field* (not Sync) instead of the SendPtr wrapper.
#![allow(clippy::redundant_locals)]

use moat_runtime::Pool;

/// Shared mutable pointer for disjoint parallel writes.
///
/// Safety: all users must write disjoint index sets (guaranteed here by the
/// tiling of the output array).
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

#[derive(Clone, Copy)]
struct SendPtr3(*mut [f64; 3]);
unsafe impl Send for SendPtr3 {}
unsafe impl Sync for SendPtr3 {}

#[inline]
fn tiles_of(n: usize, t: usize) -> usize {
    n.div_ceil(t.clamp(1, n))
}

// ---------------------------------------------------------------------------
// mm: C += A × B (IJK)
// ---------------------------------------------------------------------------

/// Naive reference matrix multiplication `C += A × B` (row-major `n × n`).
pub fn mm_naive(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    for i in 0..n {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Tiled, collapsed and parallelized matrix multiplication: the (i, j) tile
/// loops are collapsed and distributed; the k tile loop and the point loops
/// run per chunk. Tile sizes are clamped to `[1, n]`.
///
/// Within a k tile, each row of the C tile is computed 8 adjacent columns
/// per pass over the tile's k range, then 4, then 1: one independent
/// accumulator per column, so the columns vectorise instead of forming one
/// chain of dependent adds. Every element still sums `a[i,k] * b[k,j]` for
/// k ascending from 0.0 and then adds it to C, so the result is
/// bit-identical for any tiling and team size to computing one element at
/// a time with the same `tk`.
pub fn mm_tiled(
    pool: &Pool,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    tiles: (usize, usize, usize),
    threads: usize,
) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    assert_eq!(c.len(), n * n);
    if n == 0 {
        return;
    }
    let (ti, tj, tk) = (
        tiles.0.clamp(1, n),
        tiles.1.clamp(1, n),
        tiles.2.clamp(1, n),
    );
    let (nti, ntj) = (tiles_of(n, ti), tiles_of(n, tj));
    let cp = SendPtr(c.as_mut_ptr());
    pool.parallel_for(threads, (nti * ntj) as u64, &|range| {
        let cp = cp;
        for flat in range {
            let it = (flat as usize / ntj) * ti;
            let jt = (flat as usize % ntj) * tj;
            let i_end = (it + ti).min(n);
            let j_end = (jt + tj).min(n);
            let mut kt = 0;
            while kt < n {
                let k_end = (kt + tk).min(n);
                let b_rows = &b[kt * n..k_end * n];
                for i in it..i_end {
                    let a_row = &a[i * n + kt..i * n + k_end];
                    // SAFETY: row i, columns jt..j_end lie inside `c` (i < n,
                    // j_end <= n), and (i, j) tiles are disjoint across chunks,
                    // so no other live reference covers them.
                    let c_row =
                        unsafe { std::slice::from_raw_parts_mut(cp.0.add(i * n + jt), j_end - jt) };
                    let mut j = 0;
                    while j + 8 <= c_row.len() {
                        mm_columns::<8>(a_row, b_rows, n, jt + j, &mut c_row[j..]);
                        j += 8;
                    }
                    if j + 4 <= c_row.len() {
                        mm_columns::<4>(a_row, b_rows, n, jt + j, &mut c_row[j..]);
                        j += 4;
                    }
                    while j < c_row.len() {
                        mm_columns::<1>(a_row, b_rows, n, jt + j, &mut c_row[j..]);
                        j += 1;
                    }
                }
                kt += tk;
            }
        }
    });
}

/// `c[..W] += a_row · b_rows[.., j..j + W]`: W columns of one C row over one
/// k tile (`b_rows` holds that tile's rows of B), each summed in k order
/// from 0.0 in its own accumulator.
#[inline(always)]
fn mm_columns<const W: usize>(a_row: &[f64], b_rows: &[f64], n: usize, j: usize, c: &mut [f64]) {
    let mut acc = [0.0; W];
    for (&aik, b_row) in a_row.iter().zip(b_rows.chunks_exact(n)) {
        for (acc, &b) in acc.iter_mut().zip(&b_row[j..j + W]) {
            *acc += aik * b;
        }
    }
    for (c, acc) in c[..W].iter_mut().zip(acc) {
        *c += acc;
    }
}

// ---------------------------------------------------------------------------
// dsyrk: B += A × Aᵀ
// ---------------------------------------------------------------------------

/// Naive reference `B += A × Aᵀ` (full matrix form, as tuned in the paper).
pub fn dsyrk_naive(n: usize, a: &[f64], b: &mut [f64]) {
    for i in 0..n {
        for j in 0..n {
            let mut acc = b[i * n + j];
            for k in 0..n {
                acc += a[i * n + k] * a[j * n + k];
            }
            b[i * n + j] = acc;
        }
    }
}

/// Tiled parallel `B += A × Aᵀ`.
pub fn dsyrk_tiled(
    pool: &Pool,
    n: usize,
    a: &[f64],
    b: &mut [f64],
    tiles: (usize, usize, usize),
    threads: usize,
) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    if n == 0 {
        return;
    }
    let (ti, tj, tk) = (
        tiles.0.clamp(1, n),
        tiles.1.clamp(1, n),
        tiles.2.clamp(1, n),
    );
    let (nti, ntj) = (tiles_of(n, ti), tiles_of(n, tj));
    let bp = SendPtr(b.as_mut_ptr());
    pool.parallel_for(threads, (nti * ntj) as u64, &|range| {
        let bp = bp;
        for flat in range {
            let it = (flat as usize / ntj) * ti;
            let jt = (flat as usize % ntj) * tj;
            let i_end = (it + ti).min(n);
            let j_end = (jt + tj).min(n);
            let mut kt = 0;
            while kt < n {
                let k_end = (kt + tk).min(n);
                for i in it..i_end {
                    for j in jt..j_end {
                        let mut acc = 0.0;
                        for k in kt..k_end {
                            acc += a[i * n + k] * a[j * n + k];
                        }
                        // SAFETY: disjoint (i, j) tiles.
                        unsafe { *bp.0.add(i * n + j) += acc };
                    }
                }
                kt += tk;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// jacobi-2d: one 5-point sweep B = relax(A)
// ---------------------------------------------------------------------------

/// Naive reference 5-point Jacobi sweep over the interior of an `n × n`
/// grid.
pub fn jacobi2d_naive(n: usize, a: &[f64], b: &mut [f64]) {
    for i in 1..n.saturating_sub(1) {
        for j in 1..n - 1 {
            b[i * n + j] = 0.2
                * (a[i * n + j]
                    + a[(i - 1) * n + j]
                    + a[(i + 1) * n + j]
                    + a[i * n + j - 1]
                    + a[i * n + j + 1]);
        }
    }
}

/// Tiled parallel Jacobi sweep.
///
/// Each tile row is one pass over the row slices above, at and below it, the
/// middle one taken three columns at a time, written through one output row
/// slice, with no per-point index arithmetic. The five-term sum is the naive
/// kernel's expression in the naive kernel's order, so the result is
/// bit-identical to [`jacobi2d_naive`] for any tiling and team size.
pub fn jacobi2d_tiled(
    pool: &Pool,
    n: usize,
    a: &[f64],
    b: &mut [f64],
    tiles: (usize, usize),
    threads: usize,
) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    if n < 3 {
        return;
    }
    let interior = n - 2;
    let (ti, tj) = (tiles.0.clamp(1, interior), tiles.1.clamp(1, interior));
    let (nti, ntj) = (tiles_of(interior, ti), tiles_of(interior, tj));
    let bp = SendPtr(b.as_mut_ptr());
    pool.parallel_for(threads, (nti * ntj) as u64, &|range| {
        let bp = bp;
        for flat in range {
            let it = 1 + (flat as usize / ntj) * ti;
            let jt = 1 + (flat as usize % ntj) * tj;
            let i_end = (it + ti).min(n - 1);
            let j_end = (jt + tj).min(n - 1);
            let w = j_end - jt;
            for i in it..i_end {
                let up = &a[(i - 1) * n + jt..][..w];
                let mid = &a[i * n + jt - 1..][..w + 2];
                let down = &a[(i + 1) * n + jt..][..w];
                // SAFETY: row i, columns jt..j_end lie inside `b` (i < n - 1,
                // j_end <= n - 1), and interior tiles are disjoint across
                // chunks, so no other live reference covers them.
                let out = unsafe { std::slice::from_raw_parts_mut(bp.0.add(i * n + jt), w) };
                for (((v, m), u), d) in out.iter_mut().zip(mid.windows(3)).zip(up).zip(down) {
                    *v = 0.2 * (m[1] + u + d + m[0] + m[2]);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// 3d-stencil: one generic 3×3×3 sweep
// ---------------------------------------------------------------------------

/// Naive reference 3×3×3 stencil sweep (uniform weights) over the interior
/// of an `n³` grid.
pub fn stencil3d_naive(n: usize, a: &[f64], b: &mut [f64]) {
    let w = 1.0 / 27.0;
    for i in 1..n.saturating_sub(1) {
        for j in 1..n - 1 {
            for k in 1..n - 1 {
                let mut acc = 0.0;
                for di in 0..3 {
                    for dj in 0..3 {
                        for dk in 0..3 {
                            acc += a[(i + di - 1) * n * n + (j + dj - 1) * n + (k + dk - 1)];
                        }
                    }
                }
                b[i * n * n + j * n + k] = acc * w;
            }
        }
    }
}

/// Tiled parallel 3×3×3 stencil sweep: (i, j) tile loops collapsed and
/// distributed, k tiled per chunk.
pub fn stencil3d_tiled(
    pool: &Pool,
    n: usize,
    a: &[f64],
    b: &mut [f64],
    tiles: (usize, usize, usize),
    threads: usize,
) {
    assert_eq!(a.len(), n * n * n);
    assert_eq!(b.len(), n * n * n);
    if n < 3 {
        return;
    }
    let interior = n - 2;
    let (ti, tj, tk) = (
        tiles.0.clamp(1, interior),
        tiles.1.clamp(1, interior),
        tiles.2.clamp(1, interior),
    );
    let (nti, ntj) = (tiles_of(interior, ti), tiles_of(interior, tj));
    let w = 1.0 / 27.0;
    let bp = SendPtr(b.as_mut_ptr());
    pool.parallel_for(threads, (nti * ntj) as u64, &|range| {
        let bp = bp;
        for flat in range {
            let it = 1 + (flat as usize / ntj) * ti;
            let jt = 1 + (flat as usize % ntj) * tj;
            let i_end = (it + ti).min(n - 1);
            let j_end = (jt + tj).min(n - 1);
            let mut kt = 1;
            while kt < n - 1 {
                let k_end = (kt + tk).min(n - 1);
                for i in it..i_end {
                    for j in jt..j_end {
                        for k in kt..k_end {
                            let mut acc = 0.0;
                            for di in 0..3 {
                                for dj in 0..3 {
                                    for dk in 0..3 {
                                        acc += a[(i + di - 1) * n * n
                                            + (j + dj - 1) * n
                                            + (k + dk - 1)];
                                    }
                                }
                            }
                            // SAFETY: disjoint interior tiles.
                            unsafe { *bp.0.add(i * n * n + j * n + k) = acc * w };
                        }
                    }
                }
                kt += tk;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// n-body: naive all-pairs force computation
// ---------------------------------------------------------------------------

const SOFTENING: f64 = 1e-9;

#[inline]
fn pair_force(pi: &[f64; 3], pj: &[f64; 3]) -> [f64; 3] {
    let dx = pj[0] - pi[0];
    let dy = pj[1] - pi[1];
    let dz = pj[2] - pi[2];
    let r2 = dx * dx + dy * dy + dz * dz + SOFTENING;
    let inv = 1.0 / (r2 * r2.sqrt());
    [dx * inv, dy * inv, dz * inv]
}

/// Naive reference all-pairs force accumulation.
pub fn nbody_naive(pos: &[[f64; 3]], force: &mut [[f64; 3]]) {
    assert_eq!(pos.len(), force.len());
    for i in 0..pos.len() {
        let mut acc = force[i];
        for j in 0..pos.len() {
            let f = pair_force(&pos[i], &pos[j]);
            acc[0] += f[0];
            acc[1] += f[1];
            acc[2] += f[2];
        }
        force[i] = acc;
    }
}

/// Tiled parallel n-body: only the i tile loop is parallel (the j loop
/// carries the force reduction), exactly as the analyzer derives.
pub fn nbody_tiled(
    pool: &Pool,
    pos: &[[f64; 3]],
    force: &mut [[f64; 3]],
    tiles: (usize, usize),
    threads: usize,
) {
    assert_eq!(pos.len(), force.len());
    let n = pos.len();
    if n == 0 {
        return;
    }
    let (ti, tj) = (tiles.0.clamp(1, n), tiles.1.clamp(1, n));
    let nti = tiles_of(n, ti);
    let fp = SendPtr3(force.as_mut_ptr());
    pool.parallel_for(threads, nti as u64, &|range| {
        let fp = fp;
        for it_idx in range {
            let it = it_idx as usize * ti;
            let i_end = (it + ti).min(n);
            let mut jt = 0;
            while jt < n {
                let j_end = (jt + tj).min(n);
                for i in it..i_end {
                    // SAFETY: i ranges are disjoint across chunks.
                    let acc = unsafe { &mut *fp.0.add(i) };
                    for j in jt..j_end {
                        let f = pair_force(&pos[i], &pos[j]);
                        acc[0] += f[0];
                        acc[1] += f[1];
                        acc[2] += f[2];
                    }
                }
                jt += tj;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{max_abs_diff, max_abs_diff3, seeded_particles, seeded_vec};

    const TOL: f64 = 1e-9;

    fn pool() -> Pool {
        Pool::new(4)
    }

    #[test]
    fn mm_tiled_matches_naive() {
        let n = 33; // prime-ish: exercises partial tiles
        let a = seeded_vec(n * n, 1);
        let b = seeded_vec(n * n, 2);
        let mut c_ref = seeded_vec(n * n, 3);
        let c = c_ref.clone();
        mm_naive(n, &a, &b, &mut c_ref);
        let p = pool();
        for tiles in [(8, 8, 8), (5, 7, 3), (33, 33, 33), (1, 1, 1), (64, 2, 9)] {
            let mut c_t = c.clone();
            mm_tiled(&p, n, &a, &b, &mut c_t, tiles, 4);
            assert!(
                max_abs_diff(&c_ref, &c_t) < TOL,
                "mm mismatch for tiles {tiles:?}"
            );
        }
        // Keep `c` unchanged check (we only cloned).
        let _ = c;
    }

    #[test]
    fn mm_thread_counts_agree() {
        let n = 24;
        let a = seeded_vec(n * n, 4);
        let b = seeded_vec(n * n, 5);
        let p = pool();
        let mut c1 = vec![0.0; n * n];
        mm_tiled(&p, n, &a, &b, &mut c1, (8, 8, 8), 1);
        for t in [2, 3, 4] {
            let mut ct = vec![0.0; n * n];
            mm_tiled(&p, n, &a, &b, &mut ct, (8, 8, 8), t);
            assert!(max_abs_diff(&c1, &ct) < TOL, "mm mismatch at {t} threads");
        }
    }

    #[test]
    fn dsyrk_tiled_matches_naive() {
        let n = 29;
        let a = seeded_vec(n * n, 6);
        let mut b_ref = seeded_vec(n * n, 7);
        let b0 = b_ref.clone();
        dsyrk_naive(n, &a, &mut b_ref);
        let p = pool();
        for tiles in [(8, 4, 16), (29, 29, 29), (3, 3, 3)] {
            let mut b_t = b0.clone();
            dsyrk_tiled(&p, n, &a, &mut b_t, tiles, 3);
            assert!(
                max_abs_diff(&b_ref, &b_t) < TOL,
                "dsyrk mismatch for {tiles:?}"
            );
        }
    }

    #[test]
    fn dsyrk_result_symmetric_when_b_symmetric() {
        let n = 16;
        let a = seeded_vec(n * n, 8);
        let mut b = vec![0.0; n * n];
        let p = pool();
        dsyrk_tiled(&p, n, &a, &mut b, (4, 4, 4), 2);
        for i in 0..n {
            for j in 0..n {
                assert!((b[i * n + j] - b[j * n + i]).abs() < TOL);
            }
        }
    }

    #[test]
    fn jacobi2d_tiled_matches_naive() {
        let n = 37;
        let a = seeded_vec(n * n, 9);
        let mut b_ref = vec![0.0; n * n];
        jacobi2d_naive(n, &a, &mut b_ref);
        let p = pool();
        for tiles in [(4, 4), (35, 35), (1, 13), (6, 50)] {
            let mut b_t = vec![0.0; n * n];
            jacobi2d_tiled(&p, n, &a, &mut b_t, tiles, 4);
            assert!(
                max_abs_diff(&b_ref, &b_t) < TOL,
                "jacobi mismatch for {tiles:?}"
            );
        }
    }

    #[test]
    fn jacobi2d_preserves_boundary() {
        let n = 16;
        let a = seeded_vec(n * n, 10);
        let mut b = vec![-1.0; n * n];
        let p = pool();
        jacobi2d_tiled(&p, n, &a, &mut b, (4, 4), 2);
        // Boundary rows/cols untouched.
        for j in 0..n {
            assert_eq!(b[j], -1.0);
            assert_eq!(b[(n - 1) * n + j], -1.0);
            assert_eq!(b[j * n], -1.0);
            assert_eq!(b[j * n + n - 1], -1.0);
        }
    }

    #[test]
    fn stencil3d_tiled_matches_naive() {
        let n = 14;
        let a = seeded_vec(n * n * n, 11);
        let mut b_ref = vec![0.0; n * n * n];
        stencil3d_naive(n, &a, &mut b_ref);
        let p = pool();
        for tiles in [(4, 4, 4), (12, 3, 5), (1, 1, 1)] {
            let mut b_t = vec![0.0; n * n * n];
            stencil3d_tiled(&p, n, &a, &mut b_t, tiles, 4);
            assert!(
                max_abs_diff(&b_ref, &b_t) < TOL,
                "stencil mismatch for {tiles:?}"
            );
        }
    }

    #[test]
    fn nbody_tiled_matches_naive() {
        let n = 101;
        let pos = seeded_particles(n, 12);
        let mut f_ref = vec![[0.0; 3]; n];
        nbody_naive(&pos, &mut f_ref);
        let p = pool();
        for tiles in [(16, 16), (101, 101), (7, 33)] {
            let mut f_t = vec![[0.0; 3]; n];
            nbody_tiled(&p, &pos, &mut f_t, tiles, 4);
            assert!(
                max_abs_diff3(&f_ref, &f_t) < 1e-6,
                "nbody mismatch for {tiles:?}"
            );
        }
    }

    #[test]
    fn nbody_force_antisymmetry() {
        // With two particles the pair forces must be opposite.
        let pos = vec![[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]];
        let mut f = vec![[0.0; 3]; 2];
        nbody_naive(&pos, &mut f);
        assert!((f[0][0] + f[1][0]).abs() < TOL);
        assert!(f[0][0] > 0.0, "particle 0 is pulled towards particle 1");
    }
}
