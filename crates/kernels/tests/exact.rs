//! Bit-exactness of the column-blocked native bodies: `mm_tiled` against
//! a one-element-at-a-time loop over the same k tiles, `jacobi2d_tiled`
//! against `jacobi2d_naive`, compared by `f64::to_bits` over ragged tilings
//! and team sizes. Run it in a release build too (`scripts/check.sh` does):
//! the vectorised code exists only there.

use moat_kernels::data::seeded_vec;
use moat_kernels::native::{jacobi2d_naive, jacobi2d_tiled, mm_tiled};
use moat_runtime::Pool;

const SIZES: [usize; 6] = [1, 7, 8, 9, 33, 128];

/// Column tiles around every block-width boundary (8, 4, 1), plus one wider
/// than any size above.
const TILE_J: [usize; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 22, 64, 129];

/// `mm_tiled` one element at a time: per k tile, each C element sums its
/// products from 0.0 in k order and is then added to C. Tile sizes other
/// than `tk` and the team do not change what an element sums.
fn mm_per_element(n: usize, a: &[f64], b: &[f64], c: &mut [f64], tk: usize) {
    let tk = tk.clamp(1, n);
    let mut kt = 0;
    while kt < n {
        let k_end = (kt + tk).min(n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in kt..k_end {
                    acc += a[i * n + k] * b[k * n + j];
                }
                c[i * n + j] += acc;
            }
        }
        kt += tk;
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn mm_tiled_is_bit_identical_to_the_per_element_loop() {
    let pool = Pool::new(3);
    for n in SIZES {
        let a = seeded_vec(n * n, 1);
        let b = seeded_vec(n * n, 2);
        let c0 = seeded_vec(n * n, 3);
        // Ragged (ti, tk): small primes, both wider than n, unit. At n = 128
        // a debug build takes ~0.1 s a case, so only the first two there.
        let pairs = [(3, 5), (n + 1, n + 3), (1, 1), (7, 13)];
        for &(ti, tk) in &pairs[..if n > 64 { 2 } else { 4 }] {
            let mut want = c0.clone();
            mm_per_element(n, &a, &b, &mut want, tk);
            let want = bits(&want);
            for tj in TILE_J {
                for team in 1..=3 {
                    let mut c = c0.clone();
                    mm_tiled(&pool, n, &a, &b, &mut c, (ti, tj, tk), team);
                    assert!(
                        bits(&c) == want,
                        "mm n={n} tiles=({ti}, {tj}, {tk}) team={team}"
                    );
                }
            }
        }
    }
}

#[test]
fn jacobi2d_tiled_is_bit_identical_to_naive() {
    let pool = Pool::new(3);
    for n in SIZES {
        let a = seeded_vec(n * n, 4);
        let b0 = seeded_vec(n * n, 5);
        let mut want = b0.clone();
        jacobi2d_naive(n, &a, &mut want);
        let want = bits(&want);
        for ti in [1, 5, n + 1] {
            for tj in TILE_J {
                for team in 1..=3 {
                    let mut b = b0.clone();
                    jacobi2d_tiled(&pool, n, &a, &mut b, (ti, tj), team);
                    assert!(
                        bits(&b) == want,
                        "jacobi-2d n={n} tiles=({ti}, {tj}) team={team}"
                    );
                }
            }
        }
    }
}
