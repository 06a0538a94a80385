//! Loop transformations: tiling, collapsing + parallelization.
//!
//! All transformations are *mechanical* here — legality is established
//! separately via [`crate::deps::DepAnalysis`] by the analyzer/skeleton
//! layer, mirroring the paper's split between the Analyzer (which proves
//! tileability once) and the optimizer (which instantiates thousands of
//! parameter combinations).

use crate::expr::AffineExpr;
use crate::nest::{Bound, Loop, LoopKind, LoopNest, ParallelInfo};
use crate::VarId;

/// Error type for illegal/malformed transformation requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformError(pub String);

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transform error: {}", self.0)
    }
}

impl std::error::Error for TransformError {}

fn err<T>(msg: impl Into<String>) -> Result<T, TransformError> {
    Err(TransformError(msg.into()))
}

/// What tiling one band loop with a requested size comes to: the one place
/// the pre-conditions and the clamp live, shared by [`tile`] (which builds
/// the loops) and the shape walk of [`crate::shape`] (which only needs the
/// numbers).
pub(crate) struct TileGeometry {
    /// Constant lower bound of the band loop.
    pub lo: i64,
    /// Constant upper bound of the band loop.
    pub hi: i64,
    /// Trip count of the band loop.
    pub trip: u64,
    /// Tile size after clamping to `[1, trip]`.
    pub ts: u64,
    /// Number of tiles (the tile loop's trip count).
    pub num_tiles: u64,
}

impl TileGeometry {
    /// Average trip count of the tile loop.
    pub fn tile_trip(&self) -> f64 {
        self.num_tiles as f64
    }

    /// Average trip count of the point loop (partial tiles averaged in).
    pub fn point_trip(&self) -> f64 {
        self.trip as f64 / self.num_tiles as f64
    }
}

/// Why a loop cannot be a band loop of [`tile`].
pub(crate) enum Untileable {
    /// The loop is a tile or point loop already.
    AlreadyTiled,
    /// The loop's step is not 1.
    Step(i64),
    /// A bound is not a constant.
    NonConstantBounds,
}

/// Geometry of tiling a loop of the given kind, step and constant bounds
/// with the requested tile size.
pub(crate) fn tile_geometry(
    kind: LoopKind,
    step: i64,
    const_bounds: Option<(i64, i64)>,
    size: u64,
) -> Result<TileGeometry, Untileable> {
    if kind != LoopKind::Plain {
        return Err(Untileable::AlreadyTiled);
    }
    if step != 1 {
        return Err(Untileable::Step(step));
    }
    let (lo, hi) = const_bounds.ok_or(Untileable::NonConstantBounds)?;
    let trip = (hi - lo).max(0) as u64;
    let ts = size.clamp(1, trip.max(1));
    Ok(TileGeometry {
        lo,
        hi,
        trip,
        ts,
        num_tiles: trip.div_ceil(ts).max(1),
    })
}

/// Tile the outermost `band` loops of `nest` with the given tile sizes.
///
/// Each band loop `for v in lo..hi` (constant bounds, step 1) is split into
/// a tile loop `for vt in lo..hi step ts` and a point loop
/// `for v in vt..min(hi, vt+ts)`. The resulting loop order is all tile
/// loops (band order) followed by all point loops followed by any remaining
/// loops — i.e. the band is tiled rectangularly.
///
/// Tile sizes are clamped to `[1, trip]`. Accesses need no rewriting since
/// the point loops keep the original induction variables.
pub fn tile(nest: &LoopNest, band: usize, sizes: &[u64]) -> Result<LoopNest, TransformError> {
    if band == 0 || band > nest.loops.len() {
        return err(format!("invalid band size {band}"));
    }
    if sizes.len() != band {
        return err(format!("expected {band} tile sizes, got {}", sizes.len()));
    }
    let max_var = nest.loops.iter().map(|l| l.var.0).max().unwrap_or(0);

    let mut tile_loops = Vec::with_capacity(band);
    let mut point_loops = Vec::with_capacity(band);
    for (idx, l) in nest.loops[..band].iter().enumerate() {
        let geo = tile_geometry(l.kind, l.step, l.const_bounds(), sizes[idx]).map_err(|why| {
            TransformError(match why {
                Untileable::AlreadyTiled => format!("loop {} already tiled", l.name),
                Untileable::Step(step) => {
                    format!("cannot tile loop {} with step {step}", l.name)
                }
                Untileable::NonConstantBounds => {
                    format!("cannot tile loop {} with non-constant bounds", l.name)
                }
            })
        })?;
        let tvar = VarId(max_var + 1 + idx as u32);

        tile_loops.push(Loop {
            var: tvar,
            name: format!("{}t", l.name),
            lower: Bound::constant(geo.lo),
            upper: Bound::constant(geo.hi),
            step: geo.ts as i64,
            avg_trip: geo.tile_trip(),
            kind: LoopKind::Tile { point: l.var },
        });
        point_loops.push(Loop {
            var: l.var,
            name: l.name.clone(),
            lower: Bound::Affine(AffineExpr::var(tvar)),
            upper: Bound::Min(
                AffineExpr::constant(geo.hi),
                AffineExpr::var(tvar).offset(geo.ts as i64),
            ),
            step: 1,
            avg_trip: geo.point_trip(),
            kind: LoopKind::Point { tile_size: geo.ts },
        });
    }

    let mut loops = tile_loops;
    loops.extend(point_loops);
    loops.extend(nest.loops[band..].iter().cloned());
    let out = LoopNest {
        loops,
        body: nest.body.clone(),
        parallel: nest.parallel,
    };
    out.validate().map_err(TransformError)?;
    Ok(out)
}

/// Collapse the outermost `collapsed` loops into a single parallel iteration
/// space executed by `threads` workers (static chunking).
///
/// Requires the collapsed loops to have constant bounds (a rectangular outer
/// space), which holds for tile loops produced by [`tile`].
pub fn collapse_and_parallelize(
    nest: &LoopNest,
    collapsed: usize,
    threads: usize,
) -> Result<LoopNest, TransformError> {
    if collapsed == 0 || collapsed > nest.loops.len() {
        return err(format!("invalid collapse depth {collapsed}"));
    }
    if threads == 0 {
        return err("thread count must be positive");
    }
    for l in &nest.loops[..collapsed] {
        if l.lower.as_constant().is_none() || l.upper.as_constant().is_none() {
            return err(format!(
                "collapsed loop {} must have constant bounds (rectangular space)",
                l.name
            ));
        }
    }
    let mut out = nest.clone();
    out.parallel = Some(ParallelInfo { collapsed, threads });
    out.validate().map_err(TransformError)?;
    Ok(out)
}

/// Number of parallel iterations produced by the collapsed outer loops.
pub fn parallel_iterations(nest: &LoopNest) -> Option<u64> {
    let p = nest.parallel?;
    nest.loops[..p.collapsed]
        .iter()
        .map(|l| l.const_trip())
        .product::<Option<u64>>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, ArrayId};
    use crate::nest::Stmt;

    fn mm(n: i64) -> LoopNest {
        let (i, j, k) = (VarId(0), VarId(1), VarId(2));
        let (c, a, b) = (ArrayId(0), ArrayId(1), ArrayId(2));
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
            )],
        )
    }

    #[test]
    fn tile_preserves_iteration_space() {
        let nest = mm(10);
        // Tile sizes that do not divide N exercise the partial-tile min().
        let tiled = tile(&nest, 3, &[4, 3, 7]).unwrap();
        assert_eq!(tiled.depth(), 6);
        let mut n_orig = 0u64;
        nest.walk(&mut |_| n_orig += 1);
        let mut n_tiled = 0u64;
        tiled.walk(&mut |_| n_tiled += 1);
        assert_eq!(n_orig, n_tiled);
    }

    #[test]
    fn tile_visits_same_points() {
        use std::collections::HashSet;
        let nest = mm(6);
        let tiled = tile(&nest, 3, &[4, 2, 5]).unwrap();
        let collect = |n: &LoopNest, vars: [VarId; 3]| {
            let mut pts = HashSet::new();
            n.walk(&mut |vals| {
                let env = n.env(vals);
                pts.insert((env(vars[0]), env(vars[1]), env(vars[2])));
            });
            pts
        };
        let vars = [VarId(0), VarId(1), VarId(2)];
        assert_eq!(collect(&nest, vars), collect(&tiled, vars));
    }

    #[test]
    fn tile_avg_trips_consistent() {
        let nest = mm(10);
        let tiled = tile(&nest, 3, &[4, 4, 4]).unwrap();
        // approx iterations must match the exact space (partial tiles
        // averaged): ceil(10/4)=3 tiles of avg 10/3.
        let approx = tiled.approx_iterations();
        assert!((approx - 1000.0).abs() < 1e-6, "approx = {approx}");
    }

    #[test]
    fn tile_clamps_sizes() {
        let nest = mm(8);
        let tiled = tile(&nest, 3, &[0, 100, 8]).unwrap();
        // ts=0 clamped to 1; ts=100 clamped to 8.
        assert_eq!(tiled.loops[0].step, 1);
        assert_eq!(tiled.loops[1].step, 8);
        assert_eq!(tiled.loops[2].step, 8);
    }

    #[test]
    fn tile_rejects_double_tiling() {
        let nest = mm(8);
        let tiled = tile(&nest, 3, &[4, 4, 4]).unwrap();
        assert!(tile(&tiled, 3, &[2, 2, 2]).is_err());
    }

    #[test]
    fn tile_rejects_wrong_arity() {
        let nest = mm(8);
        assert!(tile(&nest, 3, &[4, 4]).is_err());
        assert!(tile(&nest, 0, &[]).is_err());
        assert!(tile(&nest, 4, &[1, 1, 1, 1]).is_err());
    }

    #[test]
    fn collapse_parallelize() {
        let nest = mm(16);
        let tiled = tile(&nest, 3, &[8, 8, 4]).unwrap();
        let par = collapse_and_parallelize(&tiled, 2, 10).unwrap();
        let p = par.parallel.unwrap();
        assert_eq!(p.collapsed, 2);
        assert_eq!(p.threads, 10);
        // 2 tile loops of 2 tiles each → 4 parallel iterations.
        assert_eq!(parallel_iterations(&par), Some(4));
    }

    #[test]
    fn collapse_rejects_non_rectangular() {
        let (i, j) = (VarId(0), VarId(1));
        let mut nest = mm(8);
        nest.loops.truncate(2);
        nest.body = vec![Stmt::new(
            vec![Access::write(ArrayId(0), vec![i.into(), j.into()])],
            1,
        )];
        nest.loops[1].upper = Bound::Affine(AffineExpr::var(i));
        assert!(collapse_and_parallelize(&nest, 2, 4).is_err());
        // Collapsing only the rectangular outer loop is fine.
        assert!(collapse_and_parallelize(&nest, 1, 4).is_ok());
    }

    #[test]
    fn collapse_rejects_zero_threads() {
        let nest = mm(8);
        assert!(collapse_and_parallelize(&nest, 1, 0).is_err());
    }
}
