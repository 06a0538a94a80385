//! Dependence analysis for affine loop nests.
//!
//! Implements the legality analysis the paper's *Analyzer* component relies
//! on: for each pair of accesses to the same array (at least one of which is
//! a write), compute a distance/direction vector. From the set of
//! dependences we derive
//!
//! * which loops are **parallelizable** (no dependence carried at that
//!   level), and
//! * which bands of loops are **fully permutable** and therefore legally
//!   **tileable** (all dependence components within the band non-negative).
//!
//! The test is exact for *uniform* dependences (equal coefficient vectors,
//! constant distance) — which covers all kernels of the paper — and falls
//! back to a GCD-based independence proof plus conservative `*` directions
//! otherwise.

use crate::expr::{gcd, VarId};
use crate::nest::LoopNest;
use serde::{Deserialize, Serialize};

/// Direction of a dependence at one loop level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Distance zero (`=`).
    Eq,
    /// Positive distance (`<`): source iteration precedes target.
    Lt,
    /// Negative distance (`>`).
    Gt,
    /// Unknown (`*`).
    Star,
}

/// A loop-carried data dependence between two accesses of the body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dependence {
    /// `(statement index, access index)` of the source access.
    pub src: (usize, usize),
    /// `(statement index, access index)` of the target access.
    pub dst: (usize, usize),
    /// Normalized (lexicographically non-negative) direction vector.
    pub directions: Vec<Direction>,
}

impl Dependence {
    /// The loop level (0-based) carrying this dependence: the first level
    /// whose direction is not `=`. `None` for loop-independent dependences.
    pub fn carried_level(&self) -> Option<usize> {
        self.directions.iter().position(|d| *d != Direction::Eq)
    }
}

/// Result of analyzing a nest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DepAnalysis {
    /// All loop-carried dependences (normalized).
    pub deps: Vec<Dependence>,
    /// Depth of the analyzed nest.
    pub depth: usize,
}

impl DepAnalysis {
    /// Analyze all access pairs of `nest`.
    pub fn analyze(nest: &LoopNest) -> Self {
        let vars: Vec<VarId> = nest.loops.iter().map(|l| l.var).collect();
        let mut deps = Vec::new();
        let accesses: Vec<((usize, usize), &crate::access::Access)> = nest
            .body
            .iter()
            .enumerate()
            .flat_map(|(si, s)| {
                s.accesses
                    .iter()
                    .enumerate()
                    .map(move |(ai, a)| ((si, ai), a))
            })
            .collect();
        for (x, (id_a, a)) in accesses.iter().enumerate() {
            for (id_b, b) in accesses.iter().skip(x) {
                if a.array != b.array || (!a.is_write() && !b.is_write()) {
                    continue;
                }
                for dep in test_pair(&vars, *id_a, a, *id_b, b) {
                    deps.push(dep);
                }
            }
        }
        DepAnalysis {
            deps,
            depth: nest.depth(),
        }
    }

    /// True if the loop at `level` may be run in parallel: no dependence is
    /// carried at that level.
    pub fn parallelizable(&self, level: usize) -> bool {
        self.deps.iter().all(|d| d.carried_level() != Some(level))
    }

    /// True if the loops in `band` (half-open range of levels) form a fully
    /// permutable band, i.e. rectangular tiling of these loops is legal:
    /// every dependence not carried by a loop outside (before) the band has
    /// only `=`/`<` components inside the band.
    pub fn tileable(&self, band: std::ops::Range<usize>) -> bool {
        self.deps.iter().all(|d| {
            match d.carried_level() {
                // Loop-independent dependences do not restrict permutation.
                None => true,
                Some(l) if l < band.start => true,
                _ => band
                    .clone()
                    .all(|lvl| matches!(d.directions[lvl], Direction::Eq | Direction::Lt)),
            }
        })
    }

    /// The maximal tileable band starting at the outermost loop, expressed
    /// as its (exclusive) end level. For all paper kernels this is the full
    /// depth.
    pub fn outer_tileable_band(&self) -> usize {
        let mut end = 0;
        while end < self.depth && self.tileable(0..end + 1) {
            end += 1;
        }
        end
    }
}

/// Test one pair of accesses; returns the normalized dependences between
/// them (one per direction-vector family, none when independent).
fn test_pair(
    vars: &[VarId],
    id_a: (usize, usize),
    a: &crate::access::Access,
    id_b: (usize, usize),
    b: &crate::access::Access,
) -> Vec<Dependence> {
    debug_assert_eq!(a.array, b.array);
    if a.indices.len() != b.indices.len() {
        return Vec::new();
    }

    // Per-variable distance, `Some(d)` once a dimension pins it.
    let mut delta: Vec<Option<i64>> = vec![None; vars.len()];
    let mut uniform = true;
    for (ea, eb) in a.indices.iter().zip(&b.indices) {
        // Uniform case: identical coefficients per variable.
        let same_coeffs = vars.iter().all(|&v| ea.coeff(v) == eb.coeff(v))
            && ea.num_vars() <= vars.len()
            && eb.num_vars() <= vars.len();
        if same_coeffs {
            // sum coeff_v * delta_v = c_a - c_b must hold.
            let diff = ea.constant_part() - eb.constant_part();
            let active: Vec<usize> = vars
                .iter()
                .enumerate()
                .filter(|(_, &v)| ea.coeff(v) != 0)
                .map(|(i, _)| i)
                .collect();
            match active.len() {
                0 => {
                    if diff != 0 {
                        // e.g. A[3] vs A[4]: provably independent.
                        return Vec::new();
                    }
                }
                1 => {
                    let vi = active[0];
                    let c = ea.coeff(vars[vi]);
                    if diff % c != 0 {
                        return Vec::new();
                    }
                    let d = diff / c;
                    match delta[vi] {
                        None => delta[vi] = Some(d),
                        Some(prev) if prev != d => return Vec::new(),
                        _ => {}
                    }
                }
                _ => {
                    // Coupled subscript: GCD solvability test, then give up
                    // on exact distances for the involved variables.
                    let g = active
                        .iter()
                        .fold(0i64, |g, &vi| gcd(g, ea.coeff(vars[vi])));
                    if g != 0 && diff % g != 0 {
                        return Vec::new();
                    }
                    uniform = false;
                }
            }
        } else {
            // Non-uniform: GCD test over the combined coefficient set
            // (variables of both iterations are independent unknowns).
            let mut g = 0i64;
            for &v in vars {
                g = gcd(g, ea.coeff(v));
                g = gcd(g, eb.coeff(v));
            }
            let diff = eb.constant_part() - ea.constant_part();
            if g != 0 && diff % g != 0 {
                return Vec::new();
            }
            uniform = false;
        }
    }

    if !uniform {
        // Conservative: no level's distance is pinned.
        delta.fill(None);
    }

    // Build the raw direction vector; normalize it into lexicographically
    // positive families.
    let raw: Vec<Direction> = delta
        .iter()
        .map(|d| match d {
            Some(0) => Direction::Eq,
            Some(x) if *x > 0 => Direction::Lt,
            Some(_) => Direction::Gt,
            None => Direction::Star,
        })
        .collect();

    normalize(&raw)
        .into_iter()
        .map(|directions| Dependence {
            src: id_a,
            dst: id_b,
            directions,
        })
        .collect()
}

/// The same dependence seen from the other end: `<` and `>` swap.
fn flip(dirs: &[Direction]) -> Vec<Direction> {
    dirs.iter()
        .map(|d| match d {
            Direction::Lt => Direction::Gt,
            Direction::Gt => Direction::Lt,
            x => *x,
        })
        .collect()
}

/// Normalize a raw direction vector into the set of lexicographically
/// positive families it represents. Returns an empty set for the all-`=`
/// vector (no loop-carried dependence).
fn normalize(dirs: &[Direction]) -> Vec<Vec<Direction>> {
    let Some(l) = dirs.iter().position(|d| *d != Direction::Eq) else {
        return Vec::new();
    };
    let leading = |d: Direction| {
        let mut v = dirs.to_vec();
        v[l] = d;
        v
    };
    match dirs[l] {
        Direction::Lt => vec![dirs.to_vec()],
        // A leading `>` flips source and target: same family mirrored.
        Direction::Gt => vec![flip(dirs)],
        // `*` stands for `<`, `=` and `>`: the `<` family, the `=` case
        // normalized further, and the mirrored `>` family (dropped when it
        // is the `<` family again).
        Direction::Star => {
            let mut out = vec![leading(Direction::Lt)];
            out.extend(normalize(&leading(Direction::Eq)));
            let mirrored = flip(&leading(Direction::Gt));
            if mirrored != out[0] {
                out.push(mirrored);
            }
            out
        }
        Direction::Eq => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, ArrayId};
    use crate::expr::AffineExpr;
    use crate::nest::{Loop, LoopNest, Stmt};

    fn var(i: u32) -> VarId {
        VarId(i)
    }

    /// C[i][j] += A[i][k] * B[k][j]  (IJK matrix multiplication)
    fn mm_nest() -> LoopNest {
        let (i, j, k) = (var(0), var(1), var(2));
        let (c, a, b) = (ArrayId(0), ArrayId(1), ArrayId(2));
        LoopNest::new(
            vec![
                Loop::plain(i, "i", 0, 8),
                Loop::plain(j, "j", 0, 8),
                Loop::plain(k, "k", 0, 8),
            ],
            vec![Stmt::new(
                vec![
                    Access::read(c, vec![i.into(), j.into()]),
                    Access::write(c, vec![i.into(), j.into()]),
                    Access::read(a, vec![i.into(), k.into()]),
                    Access::read(b, vec![k.into(), j.into()]),
                ],
                2,
            )],
        )
    }

    #[test]
    fn mm_parallel_and_tileable() {
        let an = DepAnalysis::analyze(&mm_nest());
        // Dependences on C only: (=,=,<).
        assert!(!an.deps.is_empty());
        assert!(an.parallelizable(0), "i loop must be parallel");
        assert!(an.parallelizable(1), "j loop must be parallel");
        assert!(!an.parallelizable(2), "k loop carries the reduction");
        assert!(an.tileable(0..3), "full 3-d band must be tileable");
        assert_eq!(an.outer_tileable_band(), 3);
    }

    #[test]
    fn out_of_place_stencil_has_no_deps() {
        // B[i][j] = A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]
        let (i, j) = (var(0), var(1));
        let (a, b) = (ArrayId(0), ArrayId(1));
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 1, 7), Loop::plain(j, "j", 1, 7)],
            vec![Stmt::new(
                vec![
                    Access::write(b, vec![i.into(), j.into()]),
                    Access::read(a, vec![AffineExpr::var(i).offset(-1), j.into()]),
                    Access::read(a, vec![AffineExpr::var(i).offset(1), j.into()]),
                    Access::read(a, vec![i.into(), AffineExpr::var(j).offset(-1)]),
                    Access::read(a, vec![i.into(), AffineExpr::var(j).offset(1)]),
                ],
                4,
            )],
        );
        let an = DepAnalysis::analyze(&nest);
        assert!(an.deps.is_empty());
        assert!(an.parallelizable(0) && an.parallelizable(1));
        assert_eq!(an.outer_tileable_band(), 2);
    }

    #[test]
    fn in_place_seidel_carries_dependence() {
        // A[i] = A[i-1] + A[i]: distance (1) → loop not parallel.
        let i = var(0);
        let a = ArrayId(0);
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 1, 8)],
            vec![Stmt::new(
                vec![
                    Access::write(a, vec![i.into()]),
                    Access::read(a, vec![AffineExpr::var(i).offset(-1)]),
                ],
                1,
            )],
        );
        let an = DepAnalysis::analyze(&nest);
        assert!(!an.parallelizable(0));
        // Distance +1 → still tileable (all components non-negative).
        assert!(an.tileable(0..1));
    }

    #[test]
    fn negative_distance_prevents_tiling_inside_band() {
        // for i, j: A[i][j] = A[i+1][j-1]: normalized distance (1, -1).
        let (i, j) = (var(0), var(1));
        let a = ArrayId(0);
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 0, 8), Loop::plain(j, "j", 1, 8)],
            vec![Stmt::new(
                vec![
                    Access::write(a, vec![i.into(), j.into()]),
                    Access::read(
                        a,
                        vec![AffineExpr::var(i).offset(1), AffineExpr::var(j).offset(-1)],
                    ),
                ],
                1,
            )],
        );
        let an = DepAnalysis::analyze(&nest);
        assert!(!an.parallelizable(0));
        assert!(
            !an.tileable(0..2),
            "(<, >) dependence must forbid 2-d tiling"
        );
        assert_eq!(an.outer_tileable_band(), 1);
    }

    #[test]
    fn distinct_constants_are_independent() {
        // A[3] written vs A[4] read: provably independent.
        let a = ArrayId(0);
        let w = Access::write(a, vec![AffineExpr::constant(3)]);
        let r = Access::read(a, vec![AffineExpr::constant(4)]);
        let deps = test_pair(&[var(0)], (0, 0), &w, (0, 1), &r);
        assert!(deps.is_empty());
    }

    #[test]
    fn repeated_scalar_write_carries_dependence() {
        // A[0] written in every iteration: output dependence carried by the
        // loop (the subscript does not constrain i), so not parallelizable.
        let i = var(0);
        let a = ArrayId(0);
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 0, 8)],
            vec![Stmt::new(
                vec![Access::write(a, vec![AffineExpr::constant(0)])],
                1,
            )],
        );
        let an = DepAnalysis::analyze(&nest);
        assert!(!an.deps.is_empty());
        assert!(!an.parallelizable(0));
    }

    #[test]
    fn gcd_test_proves_independence() {
        // A[2i] vs A[2i+1]: even vs odd elements never alias.
        let i = var(0);
        let a = ArrayId(0);
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 0, 8)],
            vec![Stmt::new(
                vec![
                    Access::write(a, vec![AffineExpr::term(i, 2)]),
                    Access::read(a, vec![AffineExpr::term(i, 2).offset(1)]),
                ],
                1,
            )],
        );
        let an = DepAnalysis::analyze(&nest);
        assert!(an.deps.is_empty(), "GCD test must prove independence");
    }

    #[test]
    fn read_read_pairs_ignored() {
        let i = var(0);
        let a = ArrayId(0);
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 0, 8)],
            vec![Stmt::new(
                vec![
                    Access::read(a, vec![i.into()]),
                    Access::read(a, vec![AffineExpr::var(i).offset(1)]),
                ],
                1,
            )],
        );
        assert!(DepAnalysis::analyze(&nest).deps.is_empty());
    }

    #[test]
    fn nbody_force_accumulation() {
        // F[i] += g(P[i], P[j]): i parallel, j carries.
        let (i, j) = (var(0), var(1));
        let (fa, p) = (ArrayId(0), ArrayId(1));
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 0, 8), Loop::plain(j, "j", 0, 8)],
            vec![Stmt::new(
                vec![
                    Access::read(fa, vec![i.into()]),
                    Access::write(fa, vec![i.into()]),
                    Access::read(p, vec![i.into()]),
                    Access::read(p, vec![j.into()]),
                ],
                20,
            )],
        );
        let an = DepAnalysis::analyze(&nest);
        assert!(an.parallelizable(0));
        assert!(!an.parallelizable(1));
        assert!(an.tileable(0..2));
    }

    #[test]
    fn normalize_flips_gt() {
        let fams = normalize(&[Direction::Eq, Direction::Gt, Direction::Lt]);
        assert_eq!(
            fams,
            vec![vec![Direction::Eq, Direction::Lt, Direction::Gt]]
        );
    }

    #[test]
    fn normalize_splits_star() {
        let fams = normalize(&[Direction::Star, Direction::Lt]);
        assert_eq!(fams.len(), 3);
        assert_eq!(fams[0], vec![Direction::Lt, Direction::Lt]);
        assert_eq!(fams[1], vec![Direction::Eq, Direction::Lt]);
        assert_eq!(fams[2], vec![Direction::Lt, Direction::Gt]);
    }

    #[test]
    fn normalize_all_eq_is_empty() {
        assert!(normalize(&[Direction::Eq, Direction::Eq]).is_empty());
    }
}
