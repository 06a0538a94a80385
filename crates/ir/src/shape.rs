//! Loop-nest *shapes*: what a transformation sequence changes about a nest.
//!
//! Tiling and collapse leave the body of a nest untouched. Per loop they
//! only decide the induction variable, the structural role
//! ([`LoopKind`]), the average trip count and whether the bounds are
//! constants; for the nest they decide its parallelization. An analytic
//! cost model reads nothing else of the loops, so a configuration can be
//! costed from the *shape* of its variant — a few words per loop, on the
//! stack — over the borrowed body of the untransformed nest, without
//! building the variant's [`LoopNest`] (loop names, bound expressions, a
//! clone of the body).
//!
//! [`Skeleton::with_shape`](crate::Skeleton::with_shape) walks a skeleton's
//! steps over a nest with the pre-conditions and the tile geometry of
//! [`crate::transform`] and hands the resulting shape to a closure;
//! [`NestShape::with_nest`] does the same for a nest that is already
//! materialised. [`Skeleton::instantiate`](crate::Skeleton::instantiate)
//! remains the materialiser for consumers that need real loops (code
//! generation, cache simulation) and the reference the shape walk is
//! tested against.

use crate::expr::VarId;
use crate::nest::{Loop, LoopKind, LoopNest, ParallelInfo};
use crate::transform::tile_geometry;

/// Loops a shape holds on the stack; a deeper nest spills to the heap.
const INLINE_LOOPS: usize = 16;

/// One loop of a shape: the part of a [`Loop`] that transformations decide
/// and analytic models read.
#[derive(Debug, Clone, Copy)]
pub struct LoopShape {
    /// Induction variable.
    pub var: VarId,
    /// Structural role (plain / tile / point).
    pub kind: LoopKind,
    /// Average trip count per entry (partial tiles averaged in).
    pub avg_trip: f64,
    /// `(lower, upper)` when both bounds are constants.
    pub const_bounds: Option<(i64, i64)>,
    /// Step of the loop.
    pub step: i64,
}

impl LoopShape {
    const EMPTY: LoopShape = LoopShape {
        var: VarId(0),
        kind: LoopKind::Plain,
        avg_trip: 0.0,
        const_bounds: None,
        step: 1,
    };

    fn of(l: &Loop) -> Self {
        LoopShape {
            var: l.var,
            kind: l.kind,
            avg_trip: l.avg_trip,
            const_bounds: l.const_bounds(),
            step: l.step,
        }
    }
}

/// Run `f` over a scratch slice of `len` copies of `fill`: on the stack when
/// `len <= N`, on the heap beyond. The analytic evaluation path keeps its
/// per-configuration working storage in these.
pub fn with_scratch<T: Copy, const N: usize, R>(
    len: usize,
    fill: T,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    let mut inline = [fill; N];
    match inline.get_mut(..len) {
        Some(buf) => f(buf),
        None => f(&mut vec![fill; len]),
    }
}

/// Scratch for the loops of a shape of depth `len`.
pub(crate) fn with_loops<R>(len: usize, f: impl FnOnce(&mut [LoopShape]) -> R) -> R {
    with_scratch::<_, INLINE_LOOPS, _>(len, LoopShape::EMPTY, f)
}

/// The shape of a (transformed) nest: its loops, outermost first, and its
/// parallelization. The body is that of the nest the shape was taken from.
#[derive(Debug, Clone, Copy)]
pub struct NestShape<'a> {
    /// Loops, outermost first.
    pub loops: &'a [LoopShape],
    /// Parallelization of the outermost loops, if any.
    pub parallel: Option<ParallelInfo>,
}

impl NestShape<'_> {
    /// Nesting depth.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Hand the shape of a materialised nest to `f`.
    pub fn with_nest<R>(nest: &LoopNest, f: impl FnOnce(NestShape<'_>) -> R) -> R {
        with_loops(nest.depth(), |buf| f(ShapeWalk::new(nest, buf).finish()))
    }
}

/// The shape of an instantiated skeleton: what a
/// [`Variant`](crate::Variant) carries, minus the materialised loops.
#[derive(Debug, Clone, Copy)]
pub struct VariantShape<'a> {
    /// Shape of the transformed nest.
    pub nest: NestShape<'a>,
    /// Worker threads executing the variant (1 if not parallelized).
    pub threads: usize,
    /// Innermost unroll factor (1 = no unrolling).
    pub unroll: u32,
}

/// A shape under transformation: the counterparts of
/// [`crate::transform`]'s `tile` and `collapse_and_parallelize`, applied
/// in place to a buffer the caller sized for the deepest nest the walk can
/// reach. Each returns `None` exactly where its counterpart returns an
/// error on a valid nest.
pub(crate) struct ShapeWalk<'b> {
    buf: &'b mut [LoopShape],
    len: usize,
    parallel: Option<ParallelInfo>,
}

impl<'b> ShapeWalk<'b> {
    /// Start from the shape of `nest`; `buf` holds the deepest nest the
    /// walk will reach.
    pub fn new(nest: &LoopNest, buf: &'b mut [LoopShape]) -> Self {
        for (i, l) in nest.loops.iter().enumerate() {
            buf[i] = LoopShape::of(l);
        }
        ShapeWalk {
            buf,
            len: nest.depth(),
            parallel: nest.parallel,
        }
    }

    /// Tile the outermost `band` loops: tile loops, then point loops, then
    /// the rest, as [`crate::transform::tile`] orders them.
    pub fn tile(&mut self, band: usize, sizes: impl ExactSizeIterator<Item = u64>) -> Option<()> {
        if band == 0 || band > self.len || sizes.len() != band {
            return None;
        }
        let max_var = self.buf[..self.len].iter().map(|l| l.var.0).max()?;
        self.buf.copy_within(band..self.len, 2 * band);
        for (idx, size) in sizes.enumerate() {
            let l = self.buf[idx];
            let geo = tile_geometry(l.kind, l.step, l.const_bounds, size).ok()?;
            let tvar = VarId(max_var + 1 + idx as u32);
            self.buf[idx] = LoopShape {
                var: tvar,
                kind: LoopKind::Tile { point: l.var },
                avg_trip: geo.tile_trip(),
                const_bounds: Some((geo.lo, geo.hi)),
                step: geo.ts as i64,
            };
            self.buf[band + idx] = LoopShape {
                var: l.var,
                kind: LoopKind::Point { tile_size: geo.ts },
                avg_trip: geo.point_trip(),
                const_bounds: None,
                step: 1,
            };
        }
        self.len += band;
        Some(())
    }

    /// Collapse the outermost `collapsed` loops (constant bounds required)
    /// into one parallel iteration space for `threads` workers.
    pub fn collapse_and_parallelize(&mut self, collapsed: usize, threads: usize) -> Option<()> {
        if collapsed == 0 || collapsed > self.len || threads == 0 {
            return None;
        }
        if self.buf[..collapsed]
            .iter()
            .any(|l| l.const_bounds.is_none())
        {
            return None;
        }
        self.parallel = Some(ParallelInfo { collapsed, threads });
        Some(())
    }

    /// The shape reached.
    pub fn finish(self) -> NestShape<'b> {
        let loops: &'b [LoopShape] = self.buf;
        NestShape {
            loops: &loops[..self.len],
            parallel: self.parallel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, ArrayId};
    use crate::nest::Stmt;
    use crate::skeleton::{ParamDecl, ParamDomain, Skeleton, Step};

    fn mm(n: i64) -> LoopNest {
        let (i, j, k) = (VarId(0), VarId(1), VarId(2));
        LoopNest::new(
            vec![
                Loop::plain(i, "i", 0, n),
                Loop::plain(j, "j", 0, n),
                Loop::plain(k, "k", 0, n),
            ],
            vec![Stmt::new(
                vec![
                    Access::write(ArrayId(0), vec![i.into(), j.into()]),
                    Access::read(ArrayId(1), vec![i.into(), k.into()]),
                    Access::read(ArrayId(2), vec![k.into(), j.into()]),
                ],
                2,
            )],
        )
    }

    /// What a model can read of a loop.
    fn visible(l: &LoopShape) -> (VarId, LoopKind, u64, Option<(i64, i64)>, i64) {
        (l.var, l.kind, l.avg_trip.to_bits(), l.const_bounds, l.step)
    }

    #[test]
    fn walked_shape_is_the_shape_of_the_instantiated_nest() {
        let tile = |name: &str| ParamDecl::new(name, ParamDomain::IntRange { lo: 1, hi: 25 });
        let sk = Skeleton::new(
            "tile3-collapse2-parallel",
            vec![
                tile("ti"),
                tile("tj"),
                tile("tk"),
                ParamDecl::new("threads", ParamDomain::Choice(vec![1, 2, 4])),
            ],
            vec![
                Step::Tile {
                    band: 3,
                    size_params: vec![0, 1, 2],
                },
                Step::Collapse { count: 2 },
                Step::Parallelize { threads_param: 3 },
            ],
        );
        let nest = mm(50);
        // 7 and 13 do not divide 50: partial tiles are averaged in.
        let values = [7, 25, 13, 4];
        let variant = sk.instantiate(&nest, &values).unwrap();
        let built = NestShape::with_nest(&variant.nest, |s| {
            (s.loops.iter().map(visible).collect::<Vec<_>>(), s.parallel)
        });
        let walked = sk
            .with_shape(&nest, &values, |s| {
                assert_eq!((s.threads, s.unroll), (variant.threads, variant.unroll));
                (
                    s.nest.loops.iter().map(visible).collect::<Vec<_>>(),
                    s.nest.parallel,
                )
            })
            .unwrap();
        assert_eq!(walked, built);
        assert_eq!(walked.0.len(), 6);

        assert!(sk.with_shape(&nest, &[7, 26, 13, 4], |_| ()).is_none());
        assert!(sk.with_shape(&nest, &[7, 25, 13], |_| ()).is_none());
    }

    #[test]
    fn deep_nests_spill_to_the_heap() {
        // 9 loops tiled to 18: beyond the inline buffer.
        let loops: Vec<Loop> = (0..9)
            .map(|d| Loop::plain(VarId(d), format!("l{d}"), 0, 4))
            .collect();
        let nest = LoopNest::new(loops, vec![Stmt::new(vec![], 1)]);
        let sk = Skeleton::new(
            "tile9",
            vec![ParamDecl::new("t", ParamDomain::IntRange { lo: 1, hi: 4 })],
            vec![Step::Tile {
                band: 9,
                size_params: vec![0; 9],
            }],
        );
        let variant = sk.instantiate(&nest, &[2]).unwrap();
        let walked = sk
            .with_shape(&nest, &[2], |s| {
                s.nest.loops.iter().map(visible).collect::<Vec<_>>()
            })
            .unwrap();
        let built = NestShape::with_nest(&variant.nest, |s| {
            s.loops.iter().map(visible).collect::<Vec<_>>()
        });
        assert_eq!(walked.len(), 18);
        assert_eq!(walked, built);
    }
}
