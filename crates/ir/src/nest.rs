//! Perfectly nested affine loop nests.
//!
//! A [`LoopNest`] is an ordered list of [`Loop`]s (outermost first) around a
//! body of [`Stmt`]s. Loop bounds are affine in the induction variables of
//! *outer* loops, which is sufficient to represent the result of
//! strip-mining/tiling (where a point loop's bounds reference its tile
//! loop's variable, clamped with `min` for partial tiles).

use crate::access::Access;
use crate::expr::{AffineExpr, VarId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A loop bound: either a plain affine expression or the minimum of two
/// (needed for the upper bound of partial tiles).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    /// A single affine expression.
    Affine(AffineExpr),
    /// `min(a, b)` of two affine expressions.
    Min(AffineExpr, AffineExpr),
}

impl Bound {
    /// Constant bound.
    pub fn constant(c: i64) -> Self {
        Bound::Affine(AffineExpr::constant(c))
    }

    /// Evaluate in the given environment.
    pub fn eval(&self, env: &dyn Fn(VarId) -> i64) -> i64 {
        match self {
            Bound::Affine(e) => e.eval(env),
            Bound::Min(a, b) => a.eval(env).min(b.eval(env)),
        }
    }

    /// The variables referenced by the bound (a variable occurring in both
    /// arms of a `min` is yielded twice).
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        let (a, b) = match self {
            Bound::Affine(e) => (e, None),
            Bound::Min(a, b) => (a, Some(b)),
        };
        a.terms()
            .chain(b.into_iter().flat_map(|b| b.terms()))
            .map(|(v, _)| v)
    }

    /// If the bound is a constant, return it.
    pub fn as_constant(&self) -> Option<i64> {
        match self {
            Bound::Affine(e) if e.is_constant() => Some(e.constant_part()),
            _ => None,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Affine(e) => write!(f, "{e}"),
            Bound::Min(a, b) => write!(f, "min({a}, {b})"),
        }
    }
}

/// Structural role of a loop after transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopKind {
    /// An untransformed loop.
    Plain,
    /// A tile (inter-tile) loop stepping over tile origins; `point` names the
    /// corresponding intra-tile loop variable.
    Tile {
        /// Variable of the matching point loop.
        point: VarId,
    },
    /// An intra-tile (point) loop; `tile_size` is the tile extent.
    Point {
        /// Extent of the tile this loop traverses.
        tile_size: u64,
    },
}

/// One loop of a nest: `for var in (lower..upper).step_by(step)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Loop {
    /// Induction variable (unique within a nest).
    pub var: VarId,
    /// Human-readable name for code generation (e.g. `"i"`, `"it"`).
    pub name: String,
    /// Inclusive lower bound.
    pub lower: Bound,
    /// Exclusive upper bound.
    pub upper: Bound,
    /// Step (> 0).
    pub step: i64,
    /// Average trip count per entry, maintained by the transformations
    /// (accounts for partial tiles); used by analytic cost models.
    pub avg_trip: f64,
    /// Structural role (plain / tile / point).
    pub kind: LoopKind,
}

impl Loop {
    /// A plain loop `for var in lower..upper` (step 1) with constant bounds.
    pub fn plain(var: VarId, name: impl Into<String>, lower: i64, upper: i64) -> Self {
        Loop {
            var,
            name: name.into(),
            lower: Bound::constant(lower),
            upper: Bound::constant(upper),
            step: 1,
            avg_trip: ((upper - lower).max(0)) as f64,
            kind: LoopKind::Plain,
        }
    }

    /// `(lower, upper)` if both bounds are constant.
    pub fn const_bounds(&self) -> Option<(i64, i64)> {
        Some((self.lower.as_constant()?, self.upper.as_constant()?))
    }

    /// Exact trip count if both bounds are constant.
    pub fn const_trip(&self) -> Option<u64> {
        let (lo, hi) = self.const_bounds()?;
        let n = (hi - lo).max(0) as u64;
        Some(n.div_ceil(self.step as u64))
    }
}

/// Parallelization metadata attached to a nest: the outermost `collapsed`
/// loops form a single parallel iteration space distributed over `threads`
/// workers with static chunking (the model used by the paper's collapsed
/// OpenMP loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelInfo {
    /// Number of outermost loops collapsed into the parallel loop (≥ 1).
    pub collapsed: usize,
    /// Number of worker threads.
    pub threads: usize,
}

/// A statement in the loop body: a set of affine accesses plus an abstract
/// amount of computation (floating point operations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    /// Array accesses performed by one execution of the statement.
    pub accesses: Vec<Access>,
    /// Floating point operations per execution.
    pub flops: u64,
    /// Optional C-syntax source text of the statement (using the loop and
    /// array names), consumed by the multi-versioning code generator.
    pub expr: Option<String>,
}

impl Stmt {
    /// Create a statement.
    pub fn new(accesses: Vec<Access>, flops: u64) -> Self {
        Stmt {
            accesses,
            flops,
            expr: None,
        }
    }

    /// Attach C source text for code generation.
    pub fn with_expr(mut self, expr: impl Into<String>) -> Self {
        self.expr = Some(expr.into());
        self
    }
}

/// A perfectly nested affine loop nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopNest {
    /// Loops, outermost first.
    pub loops: Vec<Loop>,
    /// Body statements, executed per innermost iteration.
    pub body: Vec<Stmt>,
    /// Parallelization of the outermost loops, if any.
    pub parallel: Option<ParallelInfo>,
}

impl LoopNest {
    /// Create a sequential nest.
    pub fn new(loops: Vec<Loop>, body: Vec<Stmt>) -> Self {
        LoopNest {
            loops,
            body,
            parallel: None,
        }
    }

    /// Nesting depth.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Position of the loop with induction variable `v`.
    pub fn loop_index(&self, v: VarId) -> Option<usize> {
        self.loops.iter().position(|l| l.var == v)
    }

    /// Product of the average trip counts of all loops — the (approximate)
    /// total number of innermost iterations.
    pub fn approx_iterations(&self) -> f64 {
        self.loops.iter().map(|l| l.avg_trip).product()
    }

    /// Exact total iteration count if all bounds are constant (pre-tiling).
    pub fn const_iterations(&self) -> Option<u64> {
        self.loops.iter().map(|l| l.const_trip()).product()
    }

    /// Structural validation: unique induction variables, bounds referencing
    /// only variables of enclosing loops, positive steps, sane parallel info.
    pub fn validate(&self) -> Result<(), String> {
        // Allocation-free when the nest is valid: the analytic evaluators
        // re-check the base nest once per configuration.
        let declares = |loops: &[Loop], v: VarId| loops.iter().any(|o| o.var == v);
        for (d, l) in self.loops.iter().enumerate() {
            if declares(&self.loops[..d], l.var) {
                return Err(format!(
                    "duplicate induction variable {} at depth {d}",
                    l.var
                ));
            }
            if l.step <= 0 {
                return Err(format!("non-positive step {} at depth {d}", l.step));
            }
            for v in l.lower.vars().chain(l.upper.vars()) {
                if !declares(&self.loops[..d], v) {
                    return Err(format!(
                        "bound of loop {} references {} which is not an outer variable",
                        l.name, v
                    ));
                }
            }
        }
        for (si, s) in self.body.iter().enumerate() {
            for a in &s.accesses {
                for e in &a.indices {
                    for (v, _) in e.terms() {
                        if !declares(&self.loops, v) {
                            return Err(format!(
                                "statement {si} accesses {} via unknown variable {v}",
                                a.array
                            ));
                        }
                    }
                }
            }
        }
        if let Some(p) = self.parallel {
            if p.collapsed == 0 || p.collapsed > self.loops.len() {
                return Err(format!("invalid collapse depth {}", p.collapsed));
            }
            if p.threads == 0 {
                return Err("zero threads".into());
            }
        }
        Ok(())
    }

    /// Enumerate the full iteration space, invoking `f` with the environment
    /// (values of all induction variables, in loop order) for every innermost
    /// iteration. Exponential in depth — intended for small problem
    /// instances (semantic tests, trace generation).
    pub fn walk(&self, f: &mut dyn FnMut(&[i64])) {
        let mut vals = vec![0i64; self.loops.len()];
        self.walk_rec(0, &mut vals, f);
    }

    fn walk_rec(&self, depth: usize, vals: &mut Vec<i64>, f: &mut dyn FnMut(&[i64])) {
        if depth == self.loops.len() {
            f(vals);
            return;
        }
        let env = |v: VarId| {
            let idx = self.loops[..depth]
                .iter()
                .position(|l| l.var == v)
                .expect("bound references inner/unknown variable");
            vals[idx]
        };
        let l = &self.loops[depth];
        let lo = l.lower.eval(&env);
        let hi = l.upper.eval(&env);
        let mut x = lo;
        while x < hi {
            vals[depth] = x;
            self.walk_rec(depth + 1, vals, f);
            x += l.step;
        }
        vals[depth] = 0;
    }

    /// Value environment accessor for a given assignment of loop variables.
    pub fn env<'a>(&'a self, vals: &'a [i64]) -> impl Fn(VarId) -> i64 + 'a {
        move |v: VarId| {
            let idx = self.loop_index(v).expect("unknown variable in env lookup");
            vals[idx]
        }
    }
}

impl fmt::Display for LoopNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = self.parallel {
            writeln!(
                f,
                "parallel(threads={}, collapse={})",
                p.threads, p.collapsed
            )?;
        }
        for (d, l) in self.loops.iter().enumerate() {
            for _ in 0..d {
                write!(f, "  ")?;
            }
            writeln!(
                f,
                "for {} = {} .. {} step {}  // {}",
                l.name,
                l.lower,
                l.upper,
                l.step,
                match l.kind {
                    LoopKind::Plain => "plain".to_string(),
                    LoopKind::Tile { point } => format!("tile({point})"),
                    LoopKind::Point { tile_size } => format!("point(ts={tile_size})"),
                }
            )?;
        }
        for s in &self.body {
            for _ in 0..self.loops.len() {
                write!(f, "  ")?;
            }
            let accs: Vec<String> = s.accesses.iter().map(|a| a.to_string()).collect();
            writeln!(f, "{} ({} flops)", accs.join(", "), s.flops)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, ArrayId};

    fn two_level() -> LoopNest {
        let i = VarId(0);
        let j = VarId(1);
        LoopNest::new(
            vec![Loop::plain(i, "i", 0, 4), Loop::plain(j, "j", 0, 3)],
            vec![Stmt::new(
                vec![Access::write(
                    ArrayId(0),
                    vec![AffineExpr::var(i), AffineExpr::var(j)],
                )],
                2,
            )],
        )
    }

    #[test]
    fn const_iterations() {
        assert_eq!(two_level().const_iterations(), Some(12));
        assert_eq!(two_level().approx_iterations(), 12.0);
    }

    #[test]
    fn walk_visits_all() {
        let nest = two_level();
        let mut count = 0;
        let mut last = vec![];
        nest.walk(&mut |vals| {
            count += 1;
            last = vals.to_vec();
        });
        assert_eq!(count, 12);
        assert_eq!(last, vec![3, 2]);
    }

    #[test]
    fn walk_respects_dependent_bounds() {
        // Triangular: for i in 0..4 { for j in 0..i }  => 0+1+2+3 = 6 iters
        let i = VarId(0);
        let j = VarId(1);
        let mut nest = two_level();
        nest.loops[1] = Loop {
            var: j,
            name: "j".into(),
            lower: Bound::constant(0),
            upper: Bound::Affine(AffineExpr::var(i)),
            step: 1,
            avg_trip: 1.5,
            kind: LoopKind::Plain,
        };
        let mut count = 0;
        nest.walk(&mut |_| count += 1);
        assert_eq!(count, 6);
    }

    #[test]
    fn walk_min_bound() {
        // for i in 0..10 step 4 { for j in i..min(10, i+4) } => 10 iterations
        let it = VarId(0);
        let j = VarId(1);
        let nest = LoopNest::new(
            vec![
                Loop {
                    var: it,
                    name: "it".into(),
                    lower: Bound::constant(0),
                    upper: Bound::constant(10),
                    step: 4,
                    avg_trip: 3.0,
                    kind: LoopKind::Tile { point: j },
                },
                Loop {
                    var: j,
                    name: "j".into(),
                    lower: Bound::Affine(AffineExpr::var(it)),
                    upper: Bound::Min(AffineExpr::constant(10), AffineExpr::var(it).offset(4)),
                    step: 1,
                    avg_trip: 10.0 / 3.0,
                    kind: LoopKind::Point { tile_size: 4 },
                },
            ],
            vec![Stmt::new(vec![], 1)],
        );
        nest.validate().unwrap();
        let mut count = 0;
        nest.walk(&mut |_| count += 1);
        assert_eq!(count, 10);
    }

    #[test]
    fn validate_catches_duplicate_vars() {
        let mut nest = two_level();
        nest.loops[1].var = VarId(0);
        assert!(nest.validate().is_err());
    }

    #[test]
    fn validate_catches_inner_bound_reference() {
        let mut nest = two_level();
        // Outer loop bound referencing the inner variable is illegal.
        nest.loops[0].upper = Bound::Affine(AffineExpr::var(VarId(1)));
        assert!(nest.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_parallel() {
        let mut nest = two_level();
        nest.parallel = Some(ParallelInfo {
            collapsed: 3,
            threads: 4,
        });
        assert!(nest.validate().is_err());
        nest.parallel = Some(ParallelInfo {
            collapsed: 1,
            threads: 0,
        });
        assert!(nest.validate().is_err());
        nest.parallel = Some(ParallelInfo {
            collapsed: 2,
            threads: 4,
        });
        assert!(nest.validate().is_ok());
    }

    #[test]
    fn trip_counts() {
        let l = Loop::plain(VarId(0), "i", 2, 10);
        assert_eq!(l.const_trip(), Some(8));
        let mut l2 = l.clone();
        l2.step = 3;
        assert_eq!(l2.const_trip(), Some(3)); // 2,5,8
    }
}
