//! Address-trace generation from `moat-ir` loop nests.
//!
//! Arrays are laid out sequentially in a flat address space, each base
//! aligned to a page boundary. A nest is first *compiled*: array names are
//! resolved once, and every access's subscripts are folded together with
//! the row-major layout into a single affine byte-address function of the
//! loop variables. Traces are then produced lazily by [`AccessStream`], an
//! iterator over `(byte address, is_write)` events in execution order — no
//! materialized per-run trace allocations.
//!
//! For parallel nests, the collapsed outer iteration space is split over
//! the threads with the same static chunking the runtime uses, and the
//! per-thread access streams are interleaved round-robin (one access per
//! live thread per round) to approximate concurrent execution.

use crate::hierarchy::{AccessSource, MultiCoreHierarchy};
use moat_ir::{AffineExpr, ArrayDecl, Bound, LoopNest};

/// Alignment of each array base address.
const PAGE: u64 = 4096;

/// Compute the base byte address of each array (page aligned, in
/// declaration order).
pub fn array_bases(arrays: &[ArrayDecl]) -> Vec<u64> {
    let mut bases = Vec::with_capacity(arrays.len());
    let mut next = PAGE; // keep address 0 unused
    for a in arrays {
        bases.push(next);
        next += a.byte_size().div_ceil(PAGE) * PAGE + PAGE;
    }
    bases
}

/// An affine function of the nest's induction variables with variables
/// resolved to loop depths: `c + Σ coeff · vals[depth]`.
#[derive(Debug, Clone)]
struct CompiledAffine {
    c: i64,
    /// `(loop depth, coefficient)`, non-zero coefficients only.
    terms: Vec<(usize, i64)>,
}

impl CompiledAffine {
    fn compile(e: &AffineExpr, nest: &LoopNest) -> Self {
        CompiledAffine {
            c: e.constant_part(),
            terms: e
                .terms()
                .map(|(v, k)| {
                    let d = nest
                        .loop_index(v)
                        .expect("bound references unknown variable");
                    (d, k)
                })
                .collect(),
        }
    }

    #[inline]
    fn eval(&self, vals: &[i64]) -> i64 {
        self.c + self.terms.iter().map(|&(d, k)| k * vals[d]).sum::<i64>()
    }

    fn references(&self, depth: usize) -> bool {
        self.terms.iter().any(|&(d, _)| d == depth)
    }
}

/// A loop bound in depth-resolved form.
#[derive(Debug, Clone)]
enum CompiledBound {
    One(CompiledAffine),
    Min(CompiledAffine, CompiledAffine),
}

impl CompiledBound {
    fn compile(b: &Bound, nest: &LoopNest) -> Self {
        match b {
            Bound::Affine(e) => CompiledBound::One(CompiledAffine::compile(e, nest)),
            Bound::Min(a, b) => CompiledBound::Min(
                CompiledAffine::compile(a, nest),
                CompiledAffine::compile(b, nest),
            ),
        }
    }

    #[inline]
    fn eval(&self, vals: &[i64]) -> i64 {
        match self {
            CompiledBound::One(e) => e.eval(vals),
            CompiledBound::Min(a, b) => a.eval(vals).min(b.eval(vals)),
        }
    }

    fn as_constant(&self) -> Option<i64> {
        match self {
            CompiledBound::One(e) if e.terms.is_empty() => Some(e.c),
            _ => None,
        }
    }

    fn references(&self, depth: usize) -> bool {
        match self {
            CompiledBound::One(e) => e.references(depth),
            CompiledBound::Min(a, b) => a.references(depth) || b.references(depth),
        }
    }
}

/// One body access compiled down to a byte-address affine function:
/// `base + elem_size · linearize(subscripts)` folded into a single
/// `c + Σ coeff · vals[depth]` over the loop variables.
#[derive(Debug, Clone)]
struct CompiledAccess {
    addr: CompiledAffine,
    is_write: bool,
    /// Stride of the innermost loop — what a point-level run of
    /// [`AccessStream::next_run`] repeats along.
    innermost: Stride,
    /// Stride of the second-deepest loop — what a pass-level run repeats
    /// along.
    second: Stride,
}

/// The byte-address delta of one step of a loop, for one access.
#[derive(Debug, Clone, Copy)]
struct Stride {
    delta: i64,
    /// `log2 |delta|` when that is a power of two (element size × a small
    /// coefficient, the usual case): the headroom division becomes a shift.
    shift: Option<u32>,
}

impl Stride {
    fn new(delta: i64) -> Self {
        let abs = delta.unsigned_abs();
        Stride {
            delta,
            shift: abs.is_power_of_two().then(|| abs.trailing_zeros()),
        }
    }

    /// How many further steps keep an access now at `addr` inside its
    /// cache line (`mask` = line size − 1).
    #[inline]
    fn headroom(self, addr: u64, mask: u64) -> u64 {
        if self.delta == 0 {
            return u64::MAX;
        }
        let room = if self.delta > 0 {
            (addr | mask) - addr
        } else {
            addr & mask
        };
        match self.shift {
            Some(s) => room >> s,
            None => room / self.delta.unsigned_abs(),
        }
    }
}

/// A loop nest compiled for streaming trace generation: array ids resolved
/// to layout bases once, subscripts folded into per-access byte-address
/// affine functions, bounds in depth-indexed form. Compile once per
/// evaluation, then draw any number of [`AccessStream`]s from it.
#[derive(Debug, Clone)]
pub struct CompiledNest {
    /// Per-loop step, outermost first.
    steps: Vec<i64>,
    /// Per-loop `(lower, upper)` bounds.
    bounds: Vec<(CompiledBound, CompiledBound)>,
    /// Body accesses in statement order.
    accesses: Vec<CompiledAccess>,
    /// Largest second-deepest `|delta|` over the accesses: a pass-level
    /// block can repeat only on lines longer than this.
    max_second_delta: u64,
    /// Whether the innermost loop's bounds reference the second-deepest
    /// variable (which rules out pass-level runs: the pass shape would
    /// change between repetitions).
    deepest_bounds_ref_second: bool,
    /// `(collapsed, threads)` of a parallel nest.
    parallel: Option<(usize, usize)>,
}

impl CompiledNest {
    /// Compile `nest` over `arrays`. Array resolution, rank checking, and
    /// subscript-to-address folding all happen here, once, instead of per
    /// emitted access.
    pub fn new(arrays: &[ArrayDecl], nest: &LoopNest) -> Self {
        let bases = array_bases(arrays);
        let n = nest.loops.len();
        let mut accesses: Vec<CompiledAccess> = Vec::new();
        for s in &nest.body {
            for acc in &s.accesses {
                let a = arrays
                    .iter()
                    .position(|d| d.id == acc.array)
                    .expect("access to undeclared array");
                let decl = &arrays[a];
                assert_eq!(
                    acc.indices.len(),
                    decl.dims.len(),
                    "index rank mismatch for {}",
                    decl.name
                );
                // Fold `linearize` (row-major: stride of dim d is the
                // product of the extents of dims d+1..) into the affine
                // subscripts: the result is one affine function per access.
                let mut c = 0i64;
                let mut coeffs = vec![0i64; n];
                let mut stride = 1i64;
                for (d, idx) in acc.indices.iter().enumerate().rev() {
                    c += stride * idx.constant_part();
                    for (v, k) in idx.terms() {
                        let depth = nest
                            .loop_index(v)
                            .expect("subscript references unknown variable");
                        coeffs[depth] += stride * k;
                    }
                    stride *= decl.dims[d] as i64;
                }
                let elem = decl.elem_size as i64;
                let stride_at = |depth: Option<usize>| {
                    Stride::new(depth.map_or(0, |d| elem * coeffs[d] * nest.loops[d].step))
                };
                accesses.push(CompiledAccess {
                    innermost: stride_at(n.checked_sub(1)),
                    second: stride_at(n.checked_sub(2)),
                    addr: CompiledAffine {
                        c: bases[a] as i64 + elem * c,
                        terms: coeffs
                            .iter()
                            .enumerate()
                            .filter(|&(_, &k)| k != 0)
                            .map(|(d, &k)| (d, elem * k))
                            .collect(),
                    },
                    is_write: acc.is_write(),
                });
            }
        }
        let bounds: Vec<(CompiledBound, CompiledBound)> = nest
            .loops
            .iter()
            .map(|l| {
                (
                    CompiledBound::compile(&l.lower, nest),
                    CompiledBound::compile(&l.upper, nest),
                )
            })
            .collect();
        let deepest_bounds_ref_second = n >= 2
            && bounds
                .last()
                .map(|(lo, hi)| lo.references(n - 2) || hi.references(n - 2))
                .unwrap_or(false);
        CompiledNest {
            steps: nest.loops.iter().map(|l| l.step).collect(),
            max_second_delta: accesses
                .iter()
                .map(|a| a.second.delta.unsigned_abs())
                .max()
                .unwrap_or(0),
            deepest_bounds_ref_second,
            bounds,
            accesses,
            parallel: nest.parallel.map(|p| (p.collapsed, p.threads)),
        }
    }

    /// Lazy access stream of the full sequential walk.
    pub fn stream(&self) -> AccessStream<'_> {
        self.stream_prefix(Vec::new())
    }

    /// Lazy access stream with the outermost `prefix.len()` induction
    /// variables pinned to the given values (one parallel chunk item).
    pub fn stream_prefix(&self, prefix: Vec<i64>) -> AccessStream<'_> {
        let mut stream = AccessStream::unseated(self);
        stream.seat(&prefix);
        stream
    }

    /// Per-thread lazy access streams (a single stream for a sequential
    /// nest), using the runtime's static chunking of the collapsed outer
    /// iteration space.
    pub fn thread_streams(&self) -> Vec<ThreadStream<'_>> {
        let Some((collapsed, threads)) = self.parallel else {
            return vec![ThreadStream {
                prefixes: vec![Vec::new()].into_iter(),
                cur: AccessStream::unseated(self),
            }];
        };
        let mut prefixes = self.collapsed_prefixes(collapsed);
        let total = prefixes.len() as u64;
        // Static chunks are contiguous and cover the range, so peeling
        // them off back-to-front moves each chunk without copying.
        let mut chunks = Vec::with_capacity(threads);
        for tid in (0..threads).rev() {
            let (start, _) = moat_runtime_static_chunk(total, threads, tid);
            chunks.push(prefixes.split_off(start as usize));
        }
        chunks
            .into_iter()
            .rev()
            .map(|chunk| ThreadStream {
                prefixes: chunk.into_iter(),
                cur: AccessStream::unseated(self),
            })
            .collect()
    }

    /// Enumerate the collapsed outer iteration prefixes (constant bounds
    /// are guaranteed by the collapse transform).
    fn collapsed_prefixes(&self, collapsed: usize) -> Vec<Vec<i64>> {
        let mut prefixes: Vec<Vec<i64>> = vec![vec![]];
        for d in 0..collapsed {
            let lo = self.bounds[d]
                .0
                .as_constant()
                .expect("collapsed loop bound");
            let hi = self.bounds[d]
                .1
                .as_constant()
                .expect("collapsed loop bound");
            let mut next = Vec::new();
            for p in &prefixes {
                let mut x = lo;
                while x < hi {
                    let mut q = p.clone();
                    q.push(x);
                    next.push(q);
                    x += self.steps[d];
                }
            }
            prefixes = next;
        }
        prefixes
    }
}

/// Lazy iterator over a nest's `(byte address, is_write)` events in exact
/// execution order — the streaming replacement for a materialized trace.
/// Holds one odometer of induction-variable values and re-evaluates bounds
/// exactly where the recursive walk would (entering a loop), including
/// backtracking over zero-trip loops.
#[derive(Debug)]
pub struct AccessStream<'a> {
    nest: &'a CompiledNest,
    /// Current induction-variable values, outermost first.
    vals: Vec<i64>,
    /// Cached (exclusive) upper bound per depth — constant while the
    /// enclosing loops don't move, as bounds only reference outer vars.
    hi: Vec<i64>,
    /// Cached lower bound per depth (`vals[d] == lo[d]` iff loop `d` is at
    /// the start of a pass — `vals[d]` only grows within one).
    lo: Vec<i64>,
    /// Byte address of each access at `vals`: advanced by the innermost
    /// stride while only that loop moves, re-evaluated when an outer one
    /// does.
    addrs: Vec<i64>,
    /// Depths `< prefix_len` are pinned and never stepped.
    prefix_len: usize,
    /// Next access of the current iteration point to emit.
    acc_idx: usize,
    done: bool,
}

impl<'a> AccessStream<'a> {
    /// An exhausted stream of `nest`, to be [`seat`](Self::seat)ed.
    fn unseated(nest: &'a CompiledNest) -> Self {
        let n = nest.steps.len();
        AccessStream {
            nest,
            vals: vec![0i64; n],
            hi: vec![0i64; n],
            lo: vec![0i64; n],
            addrs: vec![0i64; nest.accesses.len()],
            prefix_len: 0,
            acc_idx: 0,
            done: true,
        }
    }

    /// Restart the stream at the first iteration point under `prefix`,
    /// reusing its buffers.
    fn seat(&mut self, prefix: &[i64]) {
        self.vals[..prefix.len()].copy_from_slice(prefix);
        self.prefix_len = prefix.len();
        self.acc_idx = 0;
        self.done = !self.descend(self.prefix_len);
    }

    /// Position `vals[d..]` at the first iteration point with `vals[..d]`
    /// fixed, backtracking over zero-trip loops, and evaluate `addrs`
    /// there. Returns `false` when the iteration space (below the pinned
    /// prefix) is exhausted.
    fn descend(&mut self, mut d: usize) -> bool {
        let n = self.nest.steps.len();
        while d < n {
            let lo = self.nest.bounds[d].0.eval(&self.vals);
            let hi = self.nest.bounds[d].1.eval(&self.vals);
            self.vals[d] = lo;
            self.hi[d] = hi;
            self.lo[d] = lo;
            if lo < hi {
                d += 1;
            } else {
                // Zero-trip loop: step the nearest enclosing loop with
                // headroom and re-descend from below it.
                match self.bump(d) {
                    Some(nd) => d = nd,
                    None => return false,
                }
            }
        }
        for (addr, a) in self.addrs.iter_mut().zip(&self.nest.accesses) {
            *addr = a.addr.eval(&self.vals);
            debug_assert!(*addr >= 0, "negative byte address");
        }
        true
    }

    /// Step the deepest loop above `d` (exclusive) that still has
    /// headroom; returns the depth to re-descend from, or `None` once the
    /// pinned prefix is reached.
    fn bump(&mut self, mut d: usize) -> Option<usize> {
        while d > self.prefix_len {
            d -= 1;
            self.vals[d] += self.nest.steps[d];
            if self.vals[d] < self.hi[d] {
                return Some(d + 1);
            }
        }
        None
    }

    /// Advance to the next full iteration point.
    fn next_point(&mut self) -> bool {
        let n = self.nest.steps.len();
        match self.bump(n) {
            Some(d) if d == n => {
                self.advance_innermost(1);
                true
            }
            Some(d) => self.descend(d),
            None => false,
        }
    }

    /// Account in `addrs` for `steps` steps of the innermost loop.
    #[inline]
    fn advance_innermost(&mut self, steps: i64) {
        for (addr, a) in self.addrs.iter_mut().zip(&self.nest.accesses) {
            *addr += steps * a.innermost.delta;
        }
    }

    /// Largest block (in accesses) the pass-level run path materializes;
    /// beyond it, runs degrade to single iteration points.
    const PASS_CAP: u64 = 4096;

    /// Fill `buf` with the next block of accesses and return how many
    /// consecutive repetitions of its cache-line pattern (at `line_shift`
    /// granularity) follow, including the one in `buf`. The stream is
    /// advanced past the whole run. Returns 0 when exhausted.
    ///
    /// Two block shapes, chosen per call:
    ///
    /// * **Pass-level** — the block is one full pass of the innermost
    ///   loop, repeated across the second-deepest loop. Each access's
    ///   per-step address delta of that loop is known from its affine
    ///   form, so the pattern repeats while every materialized access
    ///   stays inside its current line. Taken only when it can repeat at
    ///   all — every such delta is shorter than a line; one access that a
    ///   step moves by a whole row (`A[j][k]` under `j`) pins every pass to
    ///   a single repetition. Also requires the innermost bounds to be
    ///   independent of the second-deepest variable (constant pass shape),
    ///   the pass to start at its lower bound, and the block to fit
    ///   [`PASS_CAP`](Self::PASS_CAP).
    /// * **Point-level** otherwise — the block is one iteration point,
    ///   repeated across the innermost loop under the same in-line
    ///   condition.
    ///
    /// Must not be interleaved with `Iterator::next` mid-point.
    pub fn next_run(&mut self, buf: &mut Vec<(u64, bool)>, line_shift: u32) -> u64 {
        buf.clear();
        if self.done {
            return 0;
        }
        debug_assert_eq!(self.acc_idx, 0, "next_run interleaved with next()");
        let nest = self.nest;
        let n = nest.steps.len();
        if nest.accesses.is_empty() {
            // No accesses at all: the stream is empty regardless of the
            // iteration count.
            self.done = true;
            return 0;
        }
        let mask = (1u64 << line_shift) - 1;
        let mut headroom = u64::MAX;

        // Pass-level run: block = one innermost pass, repeated over the
        // second-deepest loop.
        if n >= 2
            && self.prefix_len <= n - 2
            && !nest.deepest_bounds_ref_second
            && nest.max_second_delta <= mask
        {
            let d = n - 1;
            let d2 = n - 2;
            let step = nest.steps[d];
            let pass_iters = (self.hi[d] - self.vals[d] + step - 1) / step;
            if self.vals[d] == self.lo[d]
                && pass_iters as u64 * nest.accesses.len() as u64 <= Self::PASS_CAP
            {
                for i in 0..pass_iters {
                    for (&at, a) in self.addrs.iter().zip(&nest.accesses) {
                        let addr = (at + i * a.innermost.delta) as u64;
                        buf.push((addr, a.is_write));
                        headroom = headroom.min(a.second.headroom(addr, mask));
                    }
                }
                let remaining = ((self.hi[d2] - self.vals[d2] - 1) / nest.steps[d2]) as u64;
                let extra = headroom.min(remaining);
                // Leave the odometer on the last point of the last
                // repetition; `next_point` re-evaluates `addrs` from there.
                self.vals[d] += (pass_iters - 1) * step;
                self.vals[d2] += extra as i64 * nest.steps[d2];
                self.done = !self.next_point();
                return 1 + extra;
            }
        }

        // Point-level run: block = the current iteration point, repeated
        // over the innermost loop.
        for (&addr, a) in self.addrs.iter().zip(&nest.accesses) {
            buf.push((addr as u64, a.is_write));
            headroom = headroom.min(a.innermost.headroom(addr as u64, mask));
        }
        // Iterations the innermost loop itself still has (beyond this one);
        // when the deepest loop is pinned (fully collapsed nest) or absent,
        // runs degrade to single iterations.
        let d = n.wrapping_sub(1);
        let remaining = if n == 0 || self.prefix_len == n {
            0
        } else {
            ((self.hi[d] - self.vals[d] - 1) / nest.steps[d]) as u64
        };
        let extra = headroom.min(remaining);
        if extra < remaining {
            // The run ends inside the innermost loop: step straight onto
            // the point after it.
            self.vals[d] += (extra as i64 + 1) * nest.steps[d];
            self.advance_innermost(extra as i64 + 1);
        } else {
            // The run ends the pass; `next_point` re-evaluates `addrs`.
            if extra > 0 {
                self.vals[d] += extra as i64 * nest.steps[d];
            }
            self.done = !self.next_point();
        }
        1 + extra
    }
}

impl Iterator for AccessStream<'_> {
    type Item = (u64, bool);

    fn next(&mut self) -> Option<(u64, bool)> {
        if self.done {
            return None;
        }
        loop {
            if let Some(a) = self.nest.accesses.get(self.acc_idx) {
                let addr = self.addrs[self.acc_idx];
                self.acc_idx += 1;
                return Some((addr as u64, a.is_write));
            }
            self.acc_idx = 0;
            if !self.next_point() {
                self.done = true;
                return None;
            }
        }
    }
}

/// One thread's lazy access stream: the concatenation of the
/// [`AccessStream`]s of its statically-chunked collapsed-prefix range, one
/// stream re-seated on each prefix in turn.
#[derive(Debug)]
pub struct ThreadStream<'a> {
    prefixes: std::vec::IntoIter<Vec<i64>>,
    cur: AccessStream<'a>,
}

impl Iterator for ThreadStream<'_> {
    type Item = (u64, bool);

    fn next(&mut self) -> Option<(u64, bool)> {
        loop {
            if let Some(x) = self.cur.next() {
                return Some(x);
            }
            self.cur.seat(&self.prefixes.next()?);
        }
    }
}

impl AccessSource for AccessStream<'_> {
    fn next_run(&mut self, buf: &mut Vec<(u64, bool)>, line_shift: u32) -> u64 {
        AccessStream::next_run(self, buf, line_shift)
    }
}

impl AccessSource for ThreadStream<'_> {
    fn next_run(&mut self, buf: &mut Vec<(u64, bool)>, line_shift: u32) -> u64 {
        loop {
            let reps = self.cur.next_run(buf, line_shift);
            if reps > 0 {
                return reps;
            }
            let Some(prefix) = self.prefixes.next() else {
                return 0;
            };
            self.cur.seat(&prefix);
        }
    }
}

/// Static chunk `[start, end)` of `0..total` for thread `tid` of `team` —
/// kept identical to `moat_runtime::static_chunk` (duplicated to avoid a
/// dependency cycle; `tests/streaming_equivalence.rs` at the workspace root
/// holds the two together).
fn moat_runtime_static_chunk(total: u64, team: usize, tid: usize) -> (u64, u64) {
    let team = team.max(1) as u64;
    let tid = tid as u64;
    let base = total / team;
    let rem = total % team;
    let start = tid * base + tid.min(rem);
    let len = base + u64::from(tid < rem);
    (start, (start + len).min(total))
}

/// Simulate `nest` on `hierarchy`: per-thread access streams are generated
/// lazily and simulated with private levels in parallel and a
/// deterministic round-robin interleave at the shared level (thread `t`
/// issuing from core `t`). Returns the number of accesses simulated.
pub fn simulate_nest(
    arrays: &[ArrayDecl],
    nest: &LoopNest,
    hierarchy: &mut MultiCoreHierarchy,
) -> u64 {
    // Phase timers are timing-class observability records: they exist only
    // under a wall-mode handle on the hierarchy (span_start returns None
    // otherwise), so the hot loop stays untouched for untraced and
    // logical-mode runs.
    let span = hierarchy.obs.span_start();
    let compiled = CompiledNest::new(arrays, nest);
    hierarchy.obs.emit_span(span, || moat_obs::Event::Phase {
        name: "cachesim.compile".into(),
    });
    hierarchy.simulate_streams(compiled.thread_streams())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::hierarchy::HierarchyConfig;
    use moat_ir::{transform, Access, AffineExpr, ArrayId, Loop, LoopNest, Stmt, VarId};

    fn arrays(n: u64) -> Vec<ArrayDecl> {
        vec![
            ArrayDecl::new(ArrayId(0), "C", vec![n, n], 8),
            ArrayDecl::new(ArrayId(1), "A", vec![n, n], 8),
            ArrayDecl::new(ArrayId(2), "B", vec![n, n], 8),
        ]
    }

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
                    Access::read(ArrayId(0), vec![i.into(), j.into()]),
                    Access::write(ArrayId(0), vec![i.into(), j.into()]),
                    Access::read(ArrayId(1), vec![i.into(), k.into()]),
                    Access::read(ArrayId(2), vec![k.into(), j.into()]),
                ],
                2,
            )],
        )
    }

    fn trace(arrays: &[ArrayDecl], nest: &LoopNest) -> Vec<(u64, bool)> {
        CompiledNest::new(arrays, nest).stream().collect()
    }

    #[test]
    fn bases_are_disjoint_and_aligned() {
        let arrs = arrays(100);
        let bases = array_bases(&arrs);
        for (b, a) in bases.iter().zip(&arrs) {
            assert_eq!(b % PAGE, 0);
            let _ = a;
        }
        for w in bases.windows(2) {
            assert!(w[1] >= w[0] + arrs[0].byte_size());
        }
    }

    #[test]
    fn trace_length_matches_iteration_count() {
        let nest = mm(6);
        let t = trace(&arrays(6), &nest);
        // 4 accesses per iteration, 6^3 iterations.
        assert_eq!(t.len(), 4 * 216);
    }

    #[test]
    fn streaming_matches_recursive_walk() {
        // The odometer-based stream must replay the exact event sequence of
        // the recursive `walk`, including tiled nests with `min` bounds.
        for nest in [mm(6), transform::tile(&mm(6), 3, &[4, 2, 3]).unwrap()] {
            let arrs = arrays(6);
            let compiled = CompiledNest::new(&arrs, &nest);
            let streamed: Vec<(u64, bool)> = compiled.stream().collect();
            let mut walked = Vec::new();
            let bases = array_bases(&arrs);
            nest.walk(&mut |vals| {
                let env = nest.env(vals);
                for s in &nest.body {
                    for acc in &s.accesses {
                        let a = arrs.iter().position(|d| d.id == acc.array).unwrap();
                        let idx = acc.eval_indices(&env);
                        let off = arrs[a].linearize(&idx) * arrs[a].elem_size as i64;
                        walked.push((bases[a] + off as u64, acc.is_write()));
                    }
                }
            });
            assert_eq!(streamed, walked);
        }
    }

    #[test]
    fn tiled_trace_is_permutation_of_original() {
        use std::collections::HashMap;
        let nest = mm(6);
        let arrs = arrays(6);
        let tiled = transform::tile(&nest, 3, &[4, 2, 3]).unwrap();
        let mut h1: HashMap<(u64, bool), u64> = HashMap::new();
        for a in trace(&arrs, &nest) {
            *h1.entry(a).or_default() += 1;
        }
        let mut h2: HashMap<(u64, bool), u64> = HashMap::new();
        for a in trace(&arrs, &tiled) {
            *h2.entry(a).or_default() += 1;
        }
        assert_eq!(h1, h2, "tiling must only reorder accesses");
    }

    #[test]
    fn parallel_streams_partition_work() {
        let nest = mm(8);
        let arrs = arrays(8);
        let tiled = transform::tile(&nest, 3, &[4, 4, 4]).unwrap();
        let par = transform::collapse_and_parallelize(&tiled, 2, 3).unwrap();
        let compiled = CompiledNest::new(&arrs, &par);
        let lens: Vec<usize> = compiled
            .thread_streams()
            .into_iter()
            .map(Iterator::count)
            .collect();
        // 4 parallel iterations over 3 threads: chunks of 2/1/1 tiles.
        assert_eq!(lens, [2 * 4 * 128, 4 * 128, 4 * 128]);
    }

    #[test]
    fn sequential_nest_yields_single_stream() {
        let compiled = CompiledNest::new(&arrays(4), &mm(4));
        assert_eq!(compiled.thread_streams().len(), 1);
    }

    #[test]
    fn simulate_counts_all_accesses() {
        let nest = mm(6);
        let arrs = arrays(6);
        let mut h = MultiCoreHierarchy::new(HierarchyConfig {
            private_levels: vec![CacheConfig::new(1024, 2, 64)],
            shared_level: CacheConfig::new(8192, 4, 64),
            cores_per_chip: 2,
            cores: 4,
            prefetch_depth: 0,
        });
        let issued = simulate_nest(&arrs, &nest, &mut h);
        assert_eq!(issued, 4 * 216);
        assert_eq!(h.level_stats(0).accesses, issued);
    }

    #[test]
    fn tiling_reduces_shared_misses_when_working_set_fits() {
        // Untiled mm with N=32 (each matrix 8 KiB): B is streamed
        // column-wise and N*8 = 256 B per column... compare misses of the
        // untiled nest vs a cache-fitting tiling in a small shared cache.
        let n = 48;
        let arrs = arrays(n as u64);
        let nest = mm(n);
        let cfg = HierarchyConfig {
            private_levels: vec![CacheConfig::new(2048, 4, 64)],
            shared_level: CacheConfig::new(16384, 8, 64),
            cores_per_chip: 1,
            cores: 1,
            prefetch_depth: 0,
        };
        let mut h_plain = MultiCoreHierarchy::new(cfg.clone());
        simulate_nest(&arrs, &nest, &mut h_plain);
        let tiled = transform::tile(&nest, 3, &[8, 8, 8]).unwrap();
        let mut h_tiled = MultiCoreHierarchy::new(cfg);
        simulate_nest(&arrs, &tiled, &mut h_tiled);
        let plain_mem = h_plain.memory_accesses();
        let tiled_mem = h_tiled.memory_accesses();
        assert!(
            tiled_mem < plain_mem,
            "tiling must reduce memory traffic: tiled={tiled_mem} plain={plain_mem}"
        );
    }

    #[test]
    fn writes_generate_memory_writebacks() {
        // mm writes C: once C lines are evicted (or at steady state, once
        // they leave the hierarchy), write-backs appear in the memory
        // traffic.
        let n = 48;
        let arrs = arrays(n as u64);
        let nest = mm(n as i64);
        let mut h = MultiCoreHierarchy::new(HierarchyConfig {
            private_levels: vec![CacheConfig::new(2048, 4, 64)],
            shared_level: CacheConfig::new(16384, 8, 64),
            cores_per_chip: 1,
            cores: 1,
            prefetch_depth: 0,
        });
        simulate_nest(&arrs, &nest, &mut h);
        assert!(
            h.memory_writebacks() > 0,
            "C is written and must be written back"
        );
        assert!(
            h.memory_traffic_bytes() > h.memory_accesses() * 64,
            "traffic must include write-backs"
        );
        // Write-backs cannot exceed the lines ever written (C: n*n/8 lines
        // plus conflict slack).
        assert!(h.memory_writebacks() <= h.memory_accesses());
    }

    #[test]
    fn nbody_like_kernel_fits_entirely() {
        // A 1-d double loop over a small array: after the first i-iteration
        // everything is cached.
        let (i, j) = (VarId(0), VarId(1));
        let arrs = vec![ArrayDecl::new(ArrayId(0), "P", vec![64], 8)];
        let nest = LoopNest::new(
            vec![Loop::plain(i, "i", 0, 64), Loop::plain(j, "j", 0, 64)],
            vec![Stmt::new(
                vec![
                    Access::read(ArrayId(0), vec![AffineExpr::var(i)]),
                    Access::read(ArrayId(0), vec![AffineExpr::var(j)]),
                ],
                10,
            )],
        );
        let mut h = MultiCoreHierarchy::new(HierarchyConfig {
            private_levels: vec![CacheConfig::new(1024, 2, 64)],
            shared_level: CacheConfig::new(8192, 8, 64),
            cores_per_chip: 1,
            cores: 1,
            prefetch_depth: 0,
        });
        simulate_nest(&arrs, &nest, &mut h);
        // 64 doubles = 8 lines: only 8 compulsory memory accesses.
        assert_eq!(h.memory_accesses(), 8);
    }
}
