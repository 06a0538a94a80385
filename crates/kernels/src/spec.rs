//! IR descriptors of the five paper kernels.
//!
//! Each constructor returns a [`Region`] holding the kernel's loop nest and
//! array declarations. Running [`moat_ir::analyze`] on it derives the
//! tiling/collapsing/parallelization skeleton the optimizer tunes.

use moat_ir::{Access, AffineExpr, ArrayDecl, ArrayId, Loop, LoopNest, Region, Stmt, VarId};

/// The benchmark kernels of the paper's evaluation (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Matrix multiplication `C += A × B`, IJK loop order (Fig. 7).
    Mm,
    /// BLAS-3 symmetric rank-k update `B = A·Aᵀ + B`.
    Dsyrk,
    /// 5-point 2-d Jacobi sweep (out of place).
    Jacobi2d,
    /// Generic 3×3×3 3-d stencil sweep (out of place).
    Stencil3d,
    /// Naive all-pairs n-body force computation.
    Nbody,
}

/// Static kernel metadata (Table IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInfo {
    /// Kernel name as used in the paper's tables.
    pub name: &'static str,
    /// Computational complexity.
    pub computation: &'static str,
    /// Memory complexity.
    pub memory: &'static str,
    /// Problem size used in this reproduction's paper-scale experiments.
    pub paper_size: i64,
}

impl Kernel {
    /// The smallest problem size [`region`](Kernel::region) accepts.
    pub const MIN_SIZE: i64 = 4;

    /// All five kernels in the paper's table order.
    pub fn all() -> [Kernel; 5] {
        [
            Kernel::Mm,
            Kernel::Dsyrk,
            Kernel::Jacobi2d,
            Kernel::Stencil3d,
            Kernel::Nbody,
        ]
    }

    /// Static metadata.
    pub fn info(self) -> KernelInfo {
        match self {
            Kernel::Mm => KernelInfo {
                name: "mm",
                computation: "O(N^3)",
                memory: "O(N^2)",
                paper_size: 1400,
            },
            Kernel::Dsyrk => KernelInfo {
                name: "dsyrk",
                computation: "O(N^3)",
                memory: "O(N^2)",
                paper_size: 1400,
            },
            Kernel::Jacobi2d => KernelInfo {
                name: "jacobi-2d",
                computation: "O(N^2)",
                memory: "O(N^2)",
                paper_size: 4096,
            },
            Kernel::Stencil3d => KernelInfo {
                name: "3d-stencil",
                computation: "O(N^3)",
                memory: "O(N^3)",
                paper_size: 256,
            },
            Kernel::Nbody => KernelInfo {
                name: "n-body",
                computation: "O(N^2)",
                memory: "O(N)",
                // 106496 particles × 24 B ≈ 2.6 MB of positions: fits the
                // Westmere per-thread L3 share (3 MB even with 10 threads
                // per chip) but exceeds Barcelona's entire 2 MB L3 — the
                // paper's observed asymmetry ("fits entirely in the cache
                // on Westmere", "extremely significant on Barcelona ...
                // due to its limited 2 MB L3 cache").
                paper_size: 106_496,
            },
        }
    }

    /// Build the kernel's IR region for problem size `n`.
    pub fn region(self, n: i64) -> Region {
        assert!(n >= Kernel::MIN_SIZE, "problem size too small");
        match self {
            Kernel::Mm => mm(n),
            Kernel::Dsyrk => dsyrk(n),
            Kernel::Jacobi2d => jacobi2d(n),
            Kernel::Stencil3d => stencil3d(n),
            Kernel::Nbody => nbody(n),
        }
    }

    /// Region at the paper-scale problem size.
    pub fn paper_region(self) -> Region {
        self.region(self.info().paper_size)
    }
}

impl std::str::FromStr for Kernel {
    type Err = String;

    /// Parse a kernel by its Table IV name or its hyphen-free alias — the
    /// vocabulary of `moat-tune --kernel` and of a `moat-serve` job spec.
    fn from_str(name: &str) -> Result<Kernel, String> {
        match name {
            "mm" => Ok(Kernel::Mm),
            "dsyrk" => Ok(Kernel::Dsyrk),
            "jacobi-2d" | "jacobi2d" => Ok(Kernel::Jacobi2d),
            "3d-stencil" | "stencil3d" => Ok(Kernel::Stencil3d),
            "n-body" | "nbody" => Ok(Kernel::Nbody),
            other => {
                let known: Vec<_> = Kernel::all().iter().map(|k| k.info().name).collect();
                Err(format!(
                    "unknown kernel '{other}' (known: {})",
                    known.join(", ")
                ))
            }
        }
    }
}

/// `C[i][j] += A[i][k] * B[k][j]` — the paper's Fig. 7 kernel.
fn mm(n: i64) -> Region {
    let (i, j, k) = (VarId(0), VarId(1), VarId(2));
    let (c, a, b) = (ArrayId(0), ArrayId(1), ArrayId(2));
    let nu = n as u64;
    Region::new(
        "mm",
        vec![
            ArrayDecl::new(c, "C", vec![nu, nu], 8),
            ArrayDecl::new(a, "A", vec![nu, nu], 8),
            ArrayDecl::new(b, "B", vec![nu, nu], 8),
        ],
        LoopNest::new(
            vec![
                Loop::plain(i, "i", 0, n),
                Loop::plain(j, "j", 0, n),
                Loop::plain(k, "k", 0, n),
            ],
            vec![Stmt::new(
                vec![
                    Access::read(c, vec![i.into(), j.into()]),
                    Access::write(c, vec![i.into(), j.into()]),
                    Access::read(a, vec![i.into(), k.into()]),
                    Access::read(b, vec![k.into(), j.into()]),
                ],
                2,
            )
            .with_expr("C[i][j] = C[i][j] + A[i][k] * B[k][j];")],
        ),
    )
}

/// `B[i][j] += A[i][k] * A[j][k]` — the on-the-fly transposition makes both
/// A streams row-aligned (the paper's contrast to mm).
fn dsyrk(n: i64) -> Region {
    let (i, j, k) = (VarId(0), VarId(1), VarId(2));
    let (b, a) = (ArrayId(0), ArrayId(1));
    let nu = n as u64;
    Region::new(
        "dsyrk",
        vec![
            ArrayDecl::new(b, "B", vec![nu, nu], 8),
            ArrayDecl::new(a, "A", vec![nu, nu], 8),
        ],
        LoopNest::new(
            vec![
                Loop::plain(i, "i", 0, n),
                Loop::plain(j, "j", 0, n),
                Loop::plain(k, "k", 0, n),
            ],
            vec![Stmt::new(
                vec![
                    Access::read(b, vec![i.into(), j.into()]),
                    Access::write(b, vec![i.into(), j.into()]),
                    Access::read(a, vec![i.into(), k.into()]),
                    Access::read(a, vec![j.into(), k.into()]),
                ],
                2,
            )
            .with_expr("B[i][j] = B[i][j] + A[i][k] * A[j][k];")],
        ),
    )
}

/// One out-of-place 5-point Jacobi sweep `B = relax(A)` over an `n × n`
/// grid (interior points).
fn jacobi2d(n: i64) -> Region {
    let (i, j) = (VarId(0), VarId(1));
    let (bo, ai) = (ArrayId(0), ArrayId(1));
    let nu = n as u64;
    Region::new(
        "jacobi-2d",
        vec![
            ArrayDecl::new(bo, "B", vec![nu, nu], 8),
            ArrayDecl::new(ai, "A", vec![nu, nu], 8),
        ],
        LoopNest::new(
            vec![Loop::plain(i, "i", 1, n - 1), Loop::plain(j, "j", 1, n - 1)],
            vec![Stmt::new(
                vec![
                    Access::write(bo, vec![i.into(), j.into()]),
                    Access::read(ai, vec![i.into(), j.into()]),
                    Access::read(ai, vec![AffineExpr::var(i).offset(-1), j.into()]),
                    Access::read(ai, vec![AffineExpr::var(i).offset(1), j.into()]),
                    Access::read(ai, vec![i.into(), AffineExpr::var(j).offset(-1)]),
                    Access::read(ai, vec![i.into(), AffineExpr::var(j).offset(1)]),
                ],
                5,
            )
            .with_expr(
                "B[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] \
                 + A[i][j-1] + A[i][j+1]);",
            )],
        ),
    )
}

/// One out-of-place generic 3×3×3 stencil sweep over an `n³` grid.
fn stencil3d(n: i64) -> Region {
    let (i, j, k) = (VarId(0), VarId(1), VarId(2));
    let (bo, ai) = (ArrayId(0), ArrayId(1));
    let nu = n as u64;
    let mut accesses = vec![Access::write(bo, vec![i.into(), j.into(), k.into()])];
    for di in -1..=1i64 {
        for dj in -1..=1i64 {
            for dk in -1..=1i64 {
                accesses.push(Access::read(
                    ai,
                    vec![
                        AffineExpr::var(i).offset(di),
                        AffineExpr::var(j).offset(dj),
                        AffineExpr::var(k).offset(dk),
                    ],
                ));
            }
        }
    }
    Region::new(
        "3d-stencil",
        vec![
            ArrayDecl::new(bo, "B", vec![nu, nu, nu], 8),
            ArrayDecl::new(ai, "A", vec![nu, nu, nu], 8),
        ],
        LoopNest::new(
            vec![
                Loop::plain(i, "i", 1, n - 1),
                Loop::plain(j, "j", 1, n - 1),
                Loop::plain(k, "k", 1, n - 1),
            ],
            vec![Stmt::new(accesses, 28)
                .with_expr("B[i][j][k] = stencil27(A, i, j, k); /* 3x3x3 sum */")],
        ),
    )
}

/// Naive all-pairs n-body force accumulation: `F[i] += f(P[i], P[j])`.
/// Particle records are 24 B (three `f64` coordinates).
fn nbody(n: i64) -> Region {
    let (i, j) = (VarId(0), VarId(1));
    let (f, p) = (ArrayId(0), ArrayId(1));
    let nu = n as u64;
    Region::new(
        "n-body",
        vec![
            ArrayDecl::new(f, "force", vec![nu], 24),
            ArrayDecl::new(p, "pos", vec![nu], 24),
        ],
        LoopNest::new(
            vec![Loop::plain(i, "i", 0, n), Loop::plain(j, "j", 0, n)],
            vec![Stmt::new(
                vec![
                    Access::read(f, vec![i.into()]),
                    Access::write(f, vec![i.into()]),
                    Access::read(p, vec![i.into()]),
                    Access::read(p, vec![j.into()]),
                ],
                20,
            )
            .with_expr("force[i] = force[i] + pair_force(pos[i], pos[j]);")],
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_ir::{analyze, AnalyzerConfig, DepAnalysis, Step};

    #[test]
    fn all_regions_valid() {
        for k in Kernel::all() {
            let r = k.region(32);
            r.validate().unwrap_or_else(|e| panic!("{}: {e}", r.name));
        }
    }

    #[test]
    fn info_matches_table4() {
        assert_eq!(Kernel::Mm.info().computation, "O(N^3)");
        assert_eq!(Kernel::Mm.info().memory, "O(N^2)");
        assert_eq!(Kernel::Nbody.info().computation, "O(N^2)");
        assert_eq!(Kernel::Nbody.info().memory, "O(N)");
        assert_eq!(Kernel::Stencil3d.info().memory, "O(N^3)");
    }

    #[test]
    fn tileable_bands() {
        let expect = [
            (Kernel::Mm, 3),
            (Kernel::Dsyrk, 3),
            (Kernel::Jacobi2d, 2),
            (Kernel::Stencil3d, 3),
            (Kernel::Nbody, 2),
        ];
        for (k, band) in expect {
            let r = k.region(64);
            let an = DepAnalysis::analyze(&r.nest);
            assert_eq!(an.outer_tileable_band(), band, "{}", r.name);
        }
    }

    #[test]
    fn analyzer_derives_skeletons_for_all() {
        let cfg = AnalyzerConfig::for_threads(vec![1, 2, 4, 8]);
        for k in Kernel::all() {
            let r = analyze(k.region(64), &cfg).unwrap();
            assert_eq!(r.skeletons.len(), 1, "{}", r.name);
            let sk = &r.skeletons[0];
            assert!(sk
                .steps
                .iter()
                .any(|s| matches!(s, Step::Parallelize { .. })));
        }
    }

    #[test]
    fn nbody_collapses_only_parallel_prefix() {
        // The j loop carries the force reduction → only the i tile loop may
        // be collapsed/parallelized.
        let cfg = AnalyzerConfig::for_threads(vec![1, 2, 4]);
        let r = analyze(Kernel::Nbody.region(64), &cfg).unwrap();
        let collapse = r.skeletons[0]
            .steps
            .iter()
            .find_map(|s| match s {
                Step::Collapse { count } => Some(*count),
                _ => None,
            })
            .unwrap();
        assert_eq!(collapse, 1);
    }

    #[test]
    fn mm_and_dsyrk_collapse_two() {
        let cfg = AnalyzerConfig::for_threads(vec![1, 2]);
        for k in [
            Kernel::Mm,
            Kernel::Dsyrk,
            Kernel::Stencil3d,
            Kernel::Jacobi2d,
        ] {
            let r = analyze(k.region(64), &cfg).unwrap();
            let collapse = r.skeletons[0]
                .steps
                .iter()
                .find_map(|s| match s {
                    Step::Collapse { count } => Some(*count),
                    _ => None,
                })
                .unwrap();
            assert_eq!(collapse, 2, "{}", r.name);
        }
    }

    #[test]
    fn paper_sizes_instantiate() {
        for k in Kernel::all() {
            let r = k.paper_region();
            assert!(r.data_bytes() > 0);
        }
    }
}
