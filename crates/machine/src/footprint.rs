//! Per-loop-depth working-set (footprint) analysis of affine loop nests.
//!
//! For every loop depth `d` of a nest we compute, per array, the extent of
//! the data touched by one complete execution of the sub-nest formed by
//! loops `d..depth` (loops outside `d` held fixed). The cost model uses
//! these footprints to decide at which loop level each cache level provides
//! reuse, which is the mechanism behind tile-size selection.
//!
//! Extents are computed by interval analysis of the affine subscripts:
//! a *free* induction variable contributes its span (the tile size for a
//! point loop whose tile loop is fixed, the full extent otherwise), a
//! *fixed* variable contributes a single point. Unions over multiple
//! accesses to the same array (e.g. stencil neighbourhoods) are taken per
//! dimension; accesses whose subscript has the same variable terms differ
//! only in their constant, so they are folded into one constant range
//! first (a 27-point stencil's reads of one array are one range per
//! dimension).

use moat_ir::nest::LoopKind;
use moat_ir::shape::with_scratch;
use moat_ir::{
    Access, AffineExpr, ArrayDecl, ArrayId, LoopNest, LoopShape, NestShape, Stmt, VarId,
};

/// Footprint of one array at one depth.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayFootprint {
    /// The array.
    pub array: ArrayId,
    /// Extent (element count) per dimension of the touched bounding box.
    pub extents: Vec<u64>,
    /// Distinct cache lines touched (row-major; last dimension contiguous).
    pub lines: f64,
    /// Line-granular bytes (`lines * line_size`) — used for capacity
    /// comparisons.
    pub bytes: f64,
}

/// Footprints of all arrays of a nest at one depth, plus the total.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthFootprint {
    /// Loop depth: loops `depth..` are free, loops `..depth` are fixed.
    pub depth: usize,
    /// Per accessed array (in first-touch order).
    pub per_array: Vec<ArrayFootprint>,
    /// Sum of line-granular bytes across arrays.
    pub total_bytes: f64,
}

impl DepthFootprint {
    /// Footprint entry of `array`, if it is accessed at all.
    pub fn array(&self, array: ArrayId) -> Option<&ArrayFootprint> {
        self.per_array.iter().find(|a| a.array == array)
    }
}

/// Array × depth cells a [`BodyFootprints`] table holds on the stack.
const INLINE_CELLS: usize = 8 * 17;
/// Loops and arrays whose per-item scratch is held on the stack.
const INLINE_ITEMS: usize = 16;
/// Accesses of a body whose per-access scratch is held on the stack.
const INLINE_ACCESSES: usize = 64;

/// `reach[d]` = span − 1 of the induction variable of loop `l`, the span
/// being its number of distinct values when the loops at depth `>= d` are
/// free: 1 once the loop itself is fixed (`d` beyond it); else, for a point
/// loop, the original extent while its tile loop is free too and the tile
/// size after; else the trip count.
fn fill_reach(loops: &[LoopShape], l: usize, reach: &mut [i64]) {
    let lp = &loops[l];
    let (narrow, wide, widens_until) = match lp.kind {
        LoopKind::Point { tile_size } => {
            let tile_loop = loops
                .iter()
                .position(|t| matches!(t.kind, LoopKind::Tile { point } if point == lp.var))
                .expect("point loop without tile loop");
            (tile_size, full_extent(&loops[tile_loop]), tile_loop)
        }
        // Tile variables do not appear in subscripts; their span is
        // irrelevant (they are folded into the point span).
        LoopKind::Tile { .. } => (1, 1, 0),
        LoopKind::Plain => {
            let span = lp.avg_trip.ceil() as u64;
            (span, span, 0)
        }
    };
    for (d, reach) in reach.iter_mut().enumerate() {
        let span = if l < d {
            1
        } else if widens_until >= d {
            wide
        } else {
            narrow
        };
        *reach = span.max(1) as i64 - 1;
    }
}

/// Extent (in values) of a loop, from its constant bounds.
fn full_extent(lp: &LoopShape) -> u64 {
    match lp.const_bounds {
        Some((lo, hi)) => (hi - lo).max(0) as u64,
        // Non-constant tile loops cannot occur (tiling requires constant
        // bounds); fall back to the average trip count.
        None => lp.avg_trip.ceil() as u64,
    }
}

fn accesses(body: &[Stmt]) -> impl Iterator<Item = &Access> + Clone {
    body.iter().flat_map(|s| &s.accesses)
}

/// The accessed arrays of `body` in first-touch order, handed to `f`.
fn with_touched<R>(body: &[Stmt], f: impl FnOnce(&[ArrayId]) -> R) -> R {
    with_scratch::<_, INLINE_ACCESSES, _>(accesses(body).count(), ArrayId(0), |ids| {
        let mut n = 0;
        for acc in accesses(body) {
            if !ids[..n].contains(&acc.array) {
                ids[n] = acc.array;
                n += 1;
            }
        }
        f(&ids[..n])
    })
}

/// Lines and line-granular bytes of one array's footprint.
#[derive(Debug, Clone, Copy, Default)]
struct Extent {
    lines: f64,
    bytes: f64,
}

/// Subscript range of one array dimension at one depth: the union over the
/// array's accesses, and the access being added to it.
#[derive(Debug, Clone, Copy)]
struct DimRange {
    lo: i64,
    hi: i64,
    access_lo: i64,
    access_hi: i64,
}

/// The nest-wide inputs of the per-array footprint computation.
struct Footprinter<'a> {
    arrays: &'a [ArrayDecl],
    body: &'a [Stmt],
    loops: &'a [LoopShape],
    /// Depths `0..=depth` of the nest.
    rows: usize,
    /// `reach[l * rows + d]`: span − 1 of the variable of loop `l` when
    /// the loops at depth `>= d` are free.
    reach: &'a [i64],
    line_size: u64,
}

impl Footprinter<'_> {
    /// Set one up for `shape` over `body` and hand it to `f`.
    fn with<R>(
        arrays: &[ArrayDecl],
        body: &[Stmt],
        shape: &NestShape<'_>,
        line_size: u64,
        f: impl FnOnce(&Footprinter<'_>) -> R,
    ) -> R {
        let rows = shape.depth() + 1;
        with_scratch::<_, { INLINE_ITEMS * (INLINE_ITEMS + 1) }, _>(
            shape.depth() * rows,
            0i64,
            |reach| {
                for (l, reach) in reach.chunks_mut(rows).enumerate() {
                    fill_reach(shape.loops, l, reach);
                }
                f(&Footprinter {
                    arrays,
                    body,
                    loops: shape.loops,
                    rows,
                    reach,
                    line_size,
                })
            },
        )
    }

    /// Footprint of array `id` at every depth `d`, into `out[d]`
    /// (`out.len()` = nest depth + 1). Interval analysis of the affine
    /// subscripts: a variable contributes `coeff × [0, span − 1]`, the
    /// ranges of all accesses to the array are united per dimension, and
    /// the extent of the union is clamped to the array's. Every extent is
    /// also reported to `extent(d, e)`, outermost dimension first.
    fn array(&self, id: ArrayId, out: &mut [Extent], mut extent: impl FnMut(usize, u64)) {
        let decl = self
            .arrays
            .iter()
            .find(|a| a.id == id)
            .expect("access to undeclared array");
        let last = decl
            .dims
            .len()
            .checked_sub(1)
            .expect("array without dimensions");
        // `lines` holds the product of the outer extents until the last
        // dimension turns it into a line count.
        out.fill(Extent {
            lines: 1.0,
            bytes: 0.0,
        });
        let empty = DimRange {
            lo: i64::MAX,
            hi: i64::MIN,
            access_lo: 0,
            access_hi: 0,
        };
        let of_array = || accesses(self.body).filter(|a| a.array == id);
        // Per dimension, the subscripts with the same variable terms and
        // the range of their constants.
        let unfolded: Fold<'_> = (None, 0, 0);
        with_scratch::<_, INLINE_ACCESSES, _>(of_array().count(), unfolded, |folds| {
            with_scratch::<_, { INLINE_ITEMS + 1 }, _>(out.len(), empty, |ranges| {
                for (dim, &size) in decl.dims.iter().enumerate() {
                    let folds = fold(of_array().map(|acc| &acc.indices[dim]), folds);
                    ranges.fill(empty);
                    for &(e, lo, hi) in folds.iter() {
                        let e = e.expect("folded subscript");
                        for r in ranges.iter_mut() {
                            r.access_lo = lo;
                            r.access_hi = hi;
                        }
                        for (v, c) in e.terms() {
                            // A variable of no loop is a single point.
                            let Some(l) = self.loops.iter().position(|lp| lp.var == v) else {
                                continue;
                            };
                            let reach = &self.reach[l * self.rows..][..self.rows];
                            for (r, reach) in ranges.iter_mut().zip(reach) {
                                if c >= 0 {
                                    r.access_hi += c * reach;
                                } else {
                                    r.access_lo += c * reach;
                                }
                            }
                        }
                        for r in ranges.iter_mut() {
                            r.lo = r.lo.min(r.access_lo);
                            r.hi = r.hi.max(r.access_hi);
                        }
                    }
                    for (d, (r, cell)) in ranges.iter().zip(out.iter_mut()).enumerate() {
                        let e = ((r.hi - r.lo + 1).max(1) as u64).min(size.max(1));
                        extent(d, e);
                        if dim < last {
                            cell.lines *= e as f64;
                        } else {
                            let inner_bytes = e * decl.elem_size;
                            cell.lines *=
                                (inner_bytes as f64 / self.line_size as f64).ceil().max(1.0);
                            cell.bytes = cell.lines * self.line_size as f64;
                        }
                    }
                }
            })
        });
    }
}

/// Subscripts with one set of variable terms (the first of them stands
/// for all) and the least and greatest of their constants.
type Fold<'e> = (Option<&'e AffineExpr>, i64, i64);

/// Fold `subscripts` by their variable terms into the front of `out`
/// (as long as `subscripts`), in first-seen order. Over one set of terms
/// every subscript's range at any depth is its constant plus the same
/// spans, so the union of their ranges is `[least, greatest]` plus those
/// spans — exactly, in integers.
fn fold<'e, 'o>(
    subscripts: impl Iterator<Item = &'e AffineExpr>,
    out: &'o mut [Fold<'e>],
) -> &'o [Fold<'e>] {
    let mut n = 0;
    for e in subscripts {
        let c = e.constant_part();
        let same = |f: &&mut Fold<'e>| f.0.is_some_and(|f| f.terms().eq(e.terms()));
        match out[..n].iter_mut().find(same) {
            Some((_, lo, hi)) => {
                *lo = (*lo).min(c);
                *hi = (*hi).max(c);
            }
            None => {
                out[n] = (Some(e), c, c);
                n += 1;
            }
        }
    }
    &out[..n]
}

/// True if a footprint of `outer_bytes` at one depth strictly shrinks to
/// `inner_bytes` one loop further in.
fn shrinks(outer_bytes: f64, inner_bytes: f64) -> bool {
    outer_bytes > inner_bytes * 1.000001
}

/// Compute the footprint of every accessed array at every depth `0..=depth`.
///
/// `line_size` is the cache-line size in bytes used for line counts and
/// line-granular byte totals (uniform across levels on both paper
/// machines).
pub fn nest_footprints(
    arrays: &[ArrayDecl],
    nest: &LoopNest,
    line_size: u64,
) -> Vec<DepthFootprint> {
    let mut fps: Vec<DepthFootprint> = (0..=nest.depth())
        .map(|depth| DepthFootprint {
            depth,
            per_array: Vec::new(),
            total_bytes: 0.0,
        })
        .collect();
    NestShape::with_nest(nest, |shape| {
        Footprinter::with(arrays, &nest.body, &shape, line_size, |fp| {
            let mut cells = vec![Extent::default(); fps.len()];
            with_touched(&nest.body, |touched| {
                for &array in touched {
                    let mut extents = vec![Vec::new(); fps.len()];
                    fp.array(array, &mut cells, |d, e| extents[d].push(e));
                    for ((fp, cell), extents) in fps.iter_mut().zip(&cells).zip(extents) {
                        fp.per_array.push(ArrayFootprint {
                            array,
                            extents,
                            lines: cell.lines,
                            bytes: cell.bytes,
                        });
                    }
                }
            })
        })
    });
    for fp in &mut fps {
        fp.total_bytes = fp.per_array.iter().map(|a| a.bytes).sum();
    }
    fps
}

/// True if `array`'s footprint strictly shrinks from depth `d` to `d + 1`,
/// i.e. the loop at depth `d` *expands* the array's touched set (the array
/// is not invariant under that loop).
pub fn expands_at(fps: &[DepthFootprint], array: ArrayId, d: usize) -> bool {
    match (fps[d].array(array), fps[d + 1].array(array)) {
        (Some(a), Some(b)) => shrinks(a.bytes, b.bytes),
        _ => false,
    }
}

/// What the cost model reads of a nest's footprints — per depth and array
/// the lines and bytes, per array whether it streams contiguously — without
/// the extents and without the heap: the table lives in fixed-size scratch
/// (nests beyond 16 loops, 16 arrays or 136 cells spill to the heap).
pub(crate) struct BodyFootprints<'s> {
    /// Depths per array (nest depth + 1).
    rows: usize,
    /// `arrays × rows`, one array (first-touch order) after the other.
    cells: &'s [Extent],
    /// Per array.
    contiguous: &'s [bool],
}

impl BodyFootprints<'_> {
    /// Compute the table for `shape` over `body` and hand it to `f`.
    pub fn with<R>(
        arrays: &[ArrayDecl],
        body: &[Stmt],
        shape: &NestShape<'_>,
        line_size: u64,
        f: impl FnOnce(&BodyFootprints<'_>) -> R,
    ) -> R {
        let rows = shape.depth() + 1;
        with_touched(body, |touched| {
            let n = touched.len();
            with_scratch::<_, INLINE_CELLS, _>(n * rows, Extent::default(), |cells| {
                Footprinter::with(arrays, body, shape, line_size, |fp| {
                    for (cells, &array) in cells.chunks_mut(rows).zip(touched) {
                        fp.array(array, cells, |_, _| {});
                    }
                });
                with_scratch::<_, INLINE_ITEMS, _>(n, false, |contiguous| {
                    if let Some(inner) = shape.loops.last() {
                        streams_contiguously(body, touched, inner.var, contiguous);
                    }
                    f(&BodyFootprints {
                        rows,
                        cells,
                        contiguous,
                    })
                })
            })
        })
    }

    /// The cells of depth `d`, one per accessed array in first-touch order.
    fn at(&self, d: usize) -> impl Iterator<Item = &Extent> {
        self.cells.iter().skip(d).step_by(self.rows)
    }

    /// Sum of line-granular bytes across arrays at depth `d`.
    pub fn total_bytes(&self, d: usize) -> f64 {
        self.at(d).map(|c| c.bytes).sum()
    }

    /// Distinct lines of each accessed array (first-touch order) at depth
    /// `d`, with its index for [`expands_at`](Self::expands_at) and
    /// [`contiguous`](Self::contiguous).
    pub fn lines_at(&self, d: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.at(d).map(|c| c.lines).enumerate()
    }

    /// Whether array `a`'s footprint strictly shrinks from depth `d` to
    /// `d + 1` (see [`expands_at`]).
    pub fn expands_at(&self, a: usize, d: usize) -> bool {
        let of_array = &self.cells[a * self.rows..];
        shrinks(of_array[d].bytes, of_array[d + 1].bytes)
    }

    /// Whether array `a` advances stride-1 (or not at all) with the
    /// innermost loop.
    pub fn contiguous(&self, a: usize) -> bool {
        self.contiguous[a]
    }
}

/// Per-array contiguity, into `flags` (one per array of `touched`): `true`
/// if every access to the array advances stride-1 (or not at all) with the
/// innermost loop — i.e. the innermost induction variable occurs only in
/// the last subscript, with coefficient of magnitude ≤ 1. Such streams are
/// tracked by hardware prefetchers. One pass over the accesses.
fn streams_contiguously(body: &[Stmt], touched: &[ArrayId], inner: VarId, flags: &mut [bool]) {
    flags.fill(true);
    for acc in accesses(body) {
        let a = touched
            .iter()
            .position(|&t| t == acc.array)
            .expect("every accessed array is touched");
        let rank = acc.indices.len();
        flags[a] &= acc.indices.iter().enumerate().all(|(dim, e)| {
            let c = e.coeff(inner);
            if dim + 1 == rank {
                c.abs() <= 1
            } else {
                c == 0
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_ir::{transform, Access, AffineExpr, ArrayId, Loop, LoopNest, NestShape, Stmt};

    fn mm(n: i64) -> (Vec<ArrayDecl>, LoopNest) {
        let (i, j, k) = (VarId(0), VarId(1), VarId(2));
        let arrays = vec![
            ArrayDecl::new(ArrayId(0), "C", vec![n as u64, n as u64], 8),
            ArrayDecl::new(ArrayId(1), "A", vec![n as u64, n as u64], 8),
            ArrayDecl::new(ArrayId(2), "B", vec![n as u64, n as u64], 8),
        ];
        let nest = LoopNest::new(
            vec![
                Loop::plain(i, "i", 0, n),
                Loop::plain(j, "j", 0, n),
                Loop::plain(k, "k", 0, n),
            ],
            vec![Stmt::new(
                vec![
                    Access::read(ArrayId(0), vec![i.into(), j.into()]),
                    Access::write(ArrayId(0), vec![i.into(), j.into()]),
                    Access::read(ArrayId(1), vec![i.into(), k.into()]),
                    Access::read(ArrayId(2), vec![k.into(), j.into()]),
                ],
                2,
            )],
        );
        (arrays, nest)
    }

    #[test]
    fn untiled_mm_footprints() {
        let (arrays, nest) = mm(64);
        let fps = nest_footprints(&arrays, &nest, 64);
        assert_eq!(fps.len(), 4);
        // Depth 0: everything = 3 full matrices.
        assert_eq!(fps[0].array(ArrayId(2)).unwrap().extents, vec![64, 64]);
        assert!((fps[0].total_bytes - 3.0 * 64.0 * 64.0 * 8.0).abs() < 1.0);
        // Depth 1 (i fixed): A row, C row, B full.
        let d1 = &fps[1];
        assert_eq!(d1.array(ArrayId(1)).unwrap().extents, vec![1, 64]);
        assert_eq!(d1.array(ArrayId(2)).unwrap().extents, vec![64, 64]);
        // Depth 2 (i, j fixed): B column has 64 rows × 1 element → 64 lines.
        let d2 = &fps[2];
        assert_eq!(d2.array(ArrayId(2)).unwrap().extents, vec![64, 1]);
        assert_eq!(d2.array(ArrayId(2)).unwrap().lines, 64.0);
        // A row at depth 2: 64 contiguous f64 = 512 bytes = 8 lines.
        assert_eq!(d2.array(ArrayId(1)).unwrap().lines, 8.0);
        // Depth 3: single elements → 1 line each.
        assert_eq!(fps[3].array(ArrayId(0)).unwrap().lines, 1.0);
    }

    #[test]
    fn tiled_mm_tile_footprints() {
        let (arrays, nest) = mm(64);
        let tiled = transform::tile(&nest, 3, &[16, 8, 4]).unwrap();
        let fps = nest_footprints(&arrays, &tiled, 64);
        // Depth 3 = one tile: A 16×4, B 4×8, C 16×8.
        let d3 = &fps[3];
        assert_eq!(d3.array(ArrayId(1)).unwrap().extents, vec![16, 4]);
        assert_eq!(d3.array(ArrayId(2)).unwrap().extents, vec![4, 8]);
        assert_eq!(d3.array(ArrayId(0)).unwrap().extents, vec![16, 8]);
        // Depth 0 with free tile loops recovers the full matrices.
        assert_eq!(fps[0].array(ArrayId(1)).unwrap().extents, vec![64, 64]);
        // Depth 2 (it, jt fixed; kt free): A = ti × N.
        assert_eq!(fps[2].array(ArrayId(1)).unwrap().extents, vec![16, 64]);
    }

    #[test]
    fn expansion_flags_mm() {
        let (arrays, nest) = mm(64);
        let tiled = transform::tile(&nest, 3, &[16, 8, 4]).unwrap();
        let fps = nest_footprints(&arrays, &tiled, 64);
        let (c, a, b) = (ArrayId(0), ArrayId(1), ArrayId(2));
        // Loop 0 = it: expands A and C, not B.
        assert!(expands_at(&fps, a, 0));
        assert!(expands_at(&fps, c, 0));
        assert!(!expands_at(&fps, b, 0));
        // Loop 1 = jt: expands B and C, not A.
        assert!(!expands_at(&fps, a, 1));
        assert!(expands_at(&fps, b, 1));
        assert!(expands_at(&fps, c, 1));
        // Loop 2 = kt: expands A and B, not C.
        assert!(expands_at(&fps, a, 2));
        assert!(expands_at(&fps, b, 2));
        assert!(!expands_at(&fps, c, 2));
    }

    #[test]
    fn stencil_union_includes_halo() {
        // B[i][j] = f(A[i-1][j], A[i+1][j], A[i][j-1], A[i][j+1])
        let (i, j) = (VarId(0), VarId(1));
        let n = 32u64;
        let arrays = vec![
            ArrayDecl::new(ArrayId(0), "A", vec![n, n], 8),
            ArrayDecl::new(ArrayId(1), "B", vec![n, n], 8),
        ];
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 1, 31), Loop::plain(j, "j", 1, 31)],
            vec![Stmt::new(
                vec![
                    Access::write(ArrayId(1), vec![i.into(), j.into()]),
                    Access::read(ArrayId(0), vec![AffineExpr::var(i).offset(-1), j.into()]),
                    Access::read(ArrayId(0), vec![AffineExpr::var(i).offset(1), j.into()]),
                    Access::read(ArrayId(0), vec![i.into(), AffineExpr::var(j).offset(-1)]),
                    Access::read(ArrayId(0), vec![i.into(), AffineExpr::var(j).offset(1)]),
                ],
                4,
            )],
        );
        let fps = nest_footprints(&arrays, &nest, 64);
        // Depth 1 (i fixed): A rows i-1..i+1 (3 rows) × full width.
        let a1 = fps[1].array(ArrayId(0)).unwrap();
        assert_eq!(a1.extents, vec![3, 32]);
        // Depth 2: A is a 3×3 cross bounding box.
        let a2 = fps[2].array(ArrayId(0)).unwrap();
        assert_eq!(a2.extents, vec![3, 3]);
    }

    #[test]
    fn extents_clamped_to_array_dims() {
        let (arrays, nest) = mm(64);
        let fps = nest_footprints(&arrays, &nest, 64);
        for fp in &fps {
            for a in &fp.per_array {
                let decl = arrays.iter().find(|d| d.id == a.array).unwrap();
                for (e, d) in a.extents.iter().zip(&decl.dims) {
                    assert!(e <= d);
                }
            }
        }
    }

    #[test]
    fn footprints_monotone_in_depth() {
        let (arrays, nest) = mm(50);
        let tiled = transform::tile(&nest, 3, &[7, 13, 3]).unwrap();
        let fps = nest_footprints(&arrays, &tiled, 64);
        for w in fps.windows(2) {
            assert!(
                w[0].total_bytes >= w[1].total_bytes - 1e-9,
                "footprints must shrink with depth: {} -> {}",
                w[0].total_bytes,
                w[1].total_bytes
            );
        }
    }

    /// Per-access interval analysis, as `Footprinter::array` ran it before
    /// accesses were folded by their variable terms.
    fn per_access(fp: &Footprinter<'_>, id: ArrayId, out: &mut [Extent]) -> Vec<Vec<u64>> {
        let decl = fp.arrays.iter().find(|a| a.id == id).unwrap();
        let last = decl.dims.len() - 1;
        let mut extents = vec![Vec::new(); out.len()];
        out.fill(Extent {
            lines: 1.0,
            bytes: 0.0,
        });
        for (dim, &size) in decl.dims.iter().enumerate() {
            let mut ranges = vec![(i64::MAX, i64::MIN); out.len()];
            for acc in accesses(fp.body).filter(|a| a.array == id) {
                let e = &acc.indices[dim];
                for (d, r) in ranges.iter_mut().enumerate() {
                    let (mut lo, mut hi) = (e.constant_part(), e.constant_part());
                    for (v, c) in e.terms() {
                        let Some(l) = fp.loops.iter().position(|lp| lp.var == v) else {
                            continue;
                        };
                        let reach = fp.reach[l * fp.rows + d];
                        if c >= 0 {
                            hi += c * reach;
                        } else {
                            lo += c * reach;
                        }
                    }
                    *r = (r.0.min(lo), r.1.max(hi));
                }
            }
            for (d, (r, cell)) in ranges.iter().zip(out.iter_mut()).enumerate() {
                let e = ((r.1 - r.0 + 1).max(1) as u64).min(size.max(1));
                extents[d].push(e);
                if dim < last {
                    cell.lines *= e as f64;
                } else {
                    let inner_bytes = e * decl.elem_size;
                    cell.lines *= (inner_bytes as f64 / fp.line_size as f64).ceil().max(1.0);
                    cell.bytes = cell.lines * fp.line_size as f64;
                }
            }
        }
        extents
    }

    /// First-touch order as a quadratic scan, as before.
    fn touched(body: &[Stmt]) -> Vec<ArrayId> {
        accesses(body)
            .enumerate()
            .filter(|(i, a)| !accesses(body).take(*i).any(|b| b.array == a.array))
            .map(|(_, a)| a.array)
            .collect()
    }

    /// Contiguity of one array, access by access, as before.
    fn contiguous_alone(body: &[Stmt], array: ArrayId, inner: VarId) -> bool {
        accesses(body).filter(|a| a.array == array).all(|acc| {
            let rank = acc.indices.len();
            acc.indices.iter().enumerate().all(|(dim, e)| {
                let c = e.coeff(inner);
                if dim + 1 == rank {
                    c.abs() <= 1
                } else {
                    c == 0
                }
            })
        })
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn within(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as u64) as i64
        }
    }

    /// A random affine body: stencil offsets, negative coefficients,
    /// constant-only and two-variable subscripts, arrays accessed many
    /// times, and variables of no loop.
    fn random_nest(rng: &mut Rng) -> (Vec<ArrayDecl>, LoopNest) {
        let depth = rng.within(1, 3) as usize;
        let vars: Vec<VarId> = (0..depth as u32).map(VarId).collect();
        let loops = vars
            .iter()
            .map(|&v| Loop::plain(v, format!("i{}", v.0), rng.within(0, 2), rng.within(4, 40)))
            .collect();
        let arrays: Vec<ArrayDecl> = (0..rng.within(1, 4) as u32)
            .map(|a| {
                let dims = (0..rng.within(1, 3))
                    .map(|_| rng.within(8, 64) as u64)
                    .collect();
                ArrayDecl::new(ArrayId(a), format!("a{a}"), dims, 8)
            })
            .collect();
        let subscript = |rng: &mut Rng| {
            let mut e = AffineExpr::constant(rng.within(-3, 3));
            for _ in 0..rng.within(0, 2) {
                // Variable 7 belongs to no loop.
                let v = if rng.below(8) == 0 {
                    VarId(7)
                } else {
                    vars[rng.below(depth as u64) as usize]
                };
                let c = [-2, -1, 1, 1, 1, 2][rng.below(6) as usize];
                e = e.add(&AffineExpr::term(v, c));
            }
            e
        };
        let stmts = (0..rng.within(1, 2))
            .map(|_| {
                let accs = (0..rng.within(1, 14))
                    .map(|_| {
                        let decl = &arrays[rng.below(arrays.len() as u64) as usize];
                        let idx = decl.dims.iter().map(|_| subscript(rng)).collect();
                        Access::read(decl.id, idx)
                    })
                    .collect();
                Stmt::new(accs, 1)
            })
            .collect();
        let nest = LoopNest::new(loops, stmts);
        if rng.below(2) == 0 {
            let band = rng.within(1, depth as i64) as usize;
            let sizes: Vec<u64> = (0..band).map(|_| rng.within(1, 9) as u64).collect();
            if let Ok(tiled) = transform::tile(&nest, band, &sizes) {
                return (arrays, tiled);
            }
        }
        (arrays, nest)
    }

    #[test]
    fn folded_footprints_equal_per_access_interval_analysis() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..400 {
            let (arrays, nest) = random_nest(&mut rng);
            let fps = nest_footprints(&arrays, &nest, 64);
            let order = touched(&nest.body);
            let rows = nest.depth() + 1;
            NestShape::with_nest(&nest, |shape| {
                let mut want = vec![Extent::default(); order.len() * rows];
                Footprinter::with(&arrays, &nest.body, &shape, 64, |fp| {
                    for (a, &id) in order.iter().enumerate() {
                        let cells = &mut want[a * rows..][..rows];
                        let extents = per_access(fp, id, cells);
                        for (d, (cell, extents)) in cells.iter().zip(extents).enumerate() {
                            let got = &fps[d].per_array[a];
                            assert_eq!(got.array, id);
                            assert_eq!(got.extents, extents, "{nest:?}");
                            assert_eq!(got.lines.to_bits(), cell.lines.to_bits());
                            assert_eq!(got.bytes.to_bits(), cell.bytes.to_bits());
                        }
                    }
                });
                let inner = shape.loops.last().map(|l| l.var);
                BodyFootprints::with(&arrays, &nest.body, &shape, 64, |body| {
                    for d in 0..rows {
                        let lines: Vec<(usize, f64)> = body.lines_at(d).collect();
                        assert_eq!(lines.len(), order.len());
                        for (a, lines) in lines {
                            assert_eq!(lines.to_bits(), want[a * rows + d].lines.to_bits());
                        }
                        let total: f64 = (0..order.len()).map(|a| want[a * rows + d].bytes).sum();
                        assert_eq!(body.total_bytes(d).to_bits(), total.to_bits());
                    }
                    for (a, &id) in order.iter().enumerate() {
                        let alone = inner.is_some_and(|v| contiguous_alone(&nest.body, id, v));
                        assert_eq!(body.contiguous(a), alone, "{nest:?}");
                    }
                });
            });
        }
    }

    use moat_ir::VarId;
}
