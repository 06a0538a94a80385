//! Pareto dominance, archives, non-dominated sorting and crowding.
//!
//! All objectives are minimized. A configuration dominates another if it is
//! no worse in every objective and strictly better in at least one (the
//! standard definition used by the paper's formalization in §III-B.1).

use crate::backend::Provenance;
use crate::space::Config;
use serde::{DeError, Deserialize, Serialize, Value};

/// An evaluated point: configuration plus objective vector, optionally
/// tagged with the [`Provenance`] of the backend that measured it.
///
/// Provenance never participates in dominance — two points with identical
/// objectives are duplicates regardless of backend — and `None` serializes
/// to the exact pre-provenance JSON (the field is omitted entirely), so
/// single-backend runs stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// The configuration.
    pub config: Config,
    /// Its objective values (all minimized).
    pub objectives: Vec<f64>,
    /// Backend/machine the measurement came from, when known.
    pub provenance: Option<Provenance>,
}

// Hand-written (rather than derived) so a `None` provenance is omitted
// from the map instead of serialized as `null` — pre-provenance JSON
// outputs must stay byte-identical.
impl Serialize for Point {
    fn to_value(&self) -> Value {
        let mut m = vec![
            ("config".to_string(), self.config.to_value()),
            ("objectives".to_string(), self.objectives.to_value()),
        ];
        if let Some(p) = &self.provenance {
            m.push(("provenance".to_string(), p.to_value()));
        }
        Value::Map(m)
    }
}

impl Deserialize for Point {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::custom("Point: expected map"))?;
        Ok(Point {
            config: serde::from_field(m, "config")?,
            objectives: serde::from_field(m, "objectives")?,
            provenance: serde::from_field(m, "provenance")?,
        })
    }
}

impl Point {
    /// Create a point with no provenance.
    pub fn new(config: Config, objectives: Vec<f64>) -> Self {
        Point {
            config,
            objectives,
            provenance: None,
        }
    }

    /// Create a point tagged with the backend that measured it.
    pub fn with_provenance(config: Config, objectives: Vec<f64>, provenance: Provenance) -> Self {
        Point {
            config,
            objectives,
            provenance: Some(provenance),
        }
    }
}

/// True if `a` dominates `b`: `a ≤ b` component-wise with at least one
/// strict improvement.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective arity mismatch");
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// A Pareto archive: maintains the non-dominated subset of all inserted
/// points.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParetoFront {
    points: Vec<Point>,
}

impl ParetoFront {
    /// Empty front.
    pub fn new() -> Self {
        ParetoFront { points: Vec::new() }
    }

    /// Build a front from arbitrary points (dominated ones are dropped).
    pub fn from_points(points: impl IntoIterator<Item = Point>) -> Self {
        let mut f = ParetoFront::new();
        for p in points {
            f.insert(p);
        }
        f
    }

    /// Insert a point; returns `true` if it was accepted (non-dominated).
    /// Dominated incumbents are removed; duplicate objective vectors are
    /// kept only once.
    pub fn insert(&mut self, p: Point) -> bool {
        let accepted = self.make_room(&p.objectives);
        if accepted {
            self.points.push(p);
        }
        accepted
    }

    /// [`insert`](Self::insert) a clone of `p`, made only if it is
    /// accepted.
    pub fn insert_cloned(&mut self, p: &Point) -> bool {
        let accepted = self.make_room(&p.objectives);
        if accepted {
            self.points.push(p.clone());
        }
        accepted
    }

    /// Whether a candidate with these objectives is accepted; if it is,
    /// the incumbents it dominates are dropped.
    fn make_room(&mut self, objectives: &[f64]) -> bool {
        for q in &self.points {
            if dominates(&q.objectives, objectives) || q.objectives == objectives {
                return false;
            }
        }
        self.points
            .retain(|q| !dominates(objectives, &q.objectives));
        true
    }

    /// The non-dominated points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// `|S|` — number of solutions.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the front is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points sorted by the given objective.
    pub fn sorted_by(&self, objective: usize) -> Vec<&Point> {
        let mut v: Vec<&Point> = self.points.iter().collect();
        v.sort_by(|a, b| {
            a.objectives[objective]
                .partial_cmp(&b.objectives[objective])
                .expect("NaN objective")
        });
        v
    }

    /// Merge another front into this one.
    pub fn merge(&mut self, other: &ParetoFront) {
        for p in &other.points {
            self.insert(p.clone());
        }
    }
}

/// An incrementally maintained Pareto archive with a two-objective fast
/// path.
///
/// [`ParetoFront::insert`] scans every incumbent and then rebuilds the
/// survivor list — O(n) per insert even when the point is rejected
/// outright. For the two-objective case (the paper's `(time, energy)`
/// setting) a non-dominated set is a *staircase*: sorted ascending by the
/// first objective it is strictly descending in the second. That makes
/// dominance checking a binary search: only the predecessor and an
/// equal-`f0` incumbent can dominate a candidate, and the incumbents a
/// candidate dominates form one contiguous run after its insertion slot.
/// Insert is O(log n + removed), rejections are O(log n).
///
/// The accepted/rejected decisions are identical to [`ParetoFront::insert`]
/// for every insertion sequence, and [`ParetoArchive::to_front`]
/// reconstructs the exact insertion-ordered [`ParetoFront`] layout, so the
/// archive can replace a front in tuner loops without changing any output.
/// Arities other than two fall back to a plain [`ParetoFront`] internally.
#[derive(Debug, Clone, Default)]
pub struct ParetoArchive {
    /// Two-objective fast path: non-dominated points sorted ascending by
    /// `objectives[0]` (strictly descending in `objectives[1]`).
    points: Vec<Point>,
    /// Insertion sequence number of each entry of `points` (parallel
    /// vector) — lets [`Self::to_front`] reproduce insertion order.
    seqs: Vec<u64>,
    next_seq: u64,
    /// Fallback archive for arities other than two.
    general: ParetoFront,
    /// Objective arity, fixed by the first insert.
    m: Option<usize>,
}

impl ParetoArchive {
    /// Empty archive.
    pub fn new() -> Self {
        ParetoArchive::default()
    }

    /// Build an archive from arbitrary points (dominated ones are
    /// dropped).
    pub fn from_points(points: impl IntoIterator<Item = Point>) -> Self {
        let mut a = ParetoArchive::new();
        for p in points {
            a.insert(p);
        }
        a
    }

    /// Insert a point; returns `true` if it was accepted (non-dominated).
    /// Dominated incumbents are removed; duplicate objective vectors are
    /// kept only once. Decision-identical to [`ParetoFront::insert`].
    pub fn insert(&mut self, p: Point) -> bool {
        if !self.staircase(&p.objectives) {
            return self.general.insert(p);
        }
        match self.slot(&p.objectives) {
            Some(slot) => self.place(slot, p),
            None => false,
        }
    }

    /// [`insert`](Self::insert) a clone of `p`, made only if it is
    /// accepted: a tuner re-offering a population whose members are mostly
    /// archived already pays a dominance check for each, not a clone.
    pub fn insert_cloned(&mut self, p: &Point) -> bool {
        if !self.staircase(&p.objectives) {
            return self.general.insert_cloned(p);
        }
        match self.slot(&p.objectives) {
            Some(slot) => self.place(slot, p.clone()),
            None => false,
        }
    }

    /// Whether a candidate goes to the two-objective staircase rather than
    /// the fallback front; the first insert fixes the arity.
    fn staircase(&mut self, objectives: &[f64]) -> bool {
        let m = *self.m.get_or_insert(objectives.len());
        assert_eq!(objectives.len(), m, "objective arity mismatch");
        m == 2
    }

    /// Where a two-objective candidate goes — the insertion index and the
    /// end of the run of incumbents it dominates — or `None` if an
    /// incumbent dominates or duplicates it.
    fn slot(&self, objectives: &[f64]) -> Option<(usize, usize)> {
        let (x, y) = (objectives[0], objectives[1]);
        let idx = self.points.partition_point(|q| q.objectives[0] < x);
        // Only the predecessor (strictly better f0, so it dominates iff
        // its f1 is no worse) and an equal-f0 incumbent can dominate or
        // duplicate the candidate; everything earlier has an even larger
        // f1, everything later a larger f0.
        if idx > 0 && self.points[idx - 1].objectives[1] <= y {
            return None;
        }
        if let Some(q) = self.points.get(idx) {
            if q.objectives[0] == x && q.objectives[1] <= y {
                return None;
            }
        }
        // Incumbents dominated by the candidate: the contiguous run at the
        // insertion slot whose f1 is no better than the candidate's.
        let mut end = idx;
        while end < self.points.len() && self.points[end].objectives[1] >= y {
            end += 1;
        }
        Some((idx, end))
    }

    fn place(&mut self, (idx, end): (usize, usize), p: Point) -> bool {
        self.points.drain(idx..end);
        self.seqs.drain(idx..end);
        self.points.insert(idx, p);
        self.seqs.insert(idx, self.next_seq);
        self.next_seq += 1;
        true
    }

    /// The non-dominated points. Two-objective archives yield them sorted
    /// by the first objective; other arities in insertion order. Use
    /// [`Self::to_front`] when insertion order matters.
    pub fn points(&self) -> &[Point] {
        if self.m == Some(2) {
            &self.points
        } else {
            self.general.points()
        }
    }

    /// `|S|` — number of solutions.
    pub fn len(&self) -> usize {
        self.points().len()
    }

    /// True if the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.points().is_empty()
    }

    /// The archive as a [`ParetoFront`] with the exact point order a front
    /// fed the same insertion sequence would hold (survivors in insertion
    /// order).
    pub fn to_front(&self) -> ParetoFront {
        if self.m == Some(2) {
            let mut order: Vec<usize> = (0..self.points.len()).collect();
            order.sort_by_key(|&i| self.seqs[i]);
            ParetoFront {
                points: order.into_iter().map(|i| self.points[i].clone()).collect(),
            }
        } else {
            self.general.clone()
        }
    }
}

/// The non-dominated fronts of a set of points, flat: every index, front
/// by front.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    /// Indices, `F0` first, then `F1`, ….
    order: Vec<usize>,
    /// Where each front ends in `order`.
    ends: Vec<usize>,
}

impl Ranking {
    /// Rank `points` (all objectives minimized): `F0` is the non-dominated
    /// subset, `F1` the non-dominated subset of the rest, and so on.
    ///
    /// A dominance bitset (row `i` holds the points `i` dominates) and a
    /// count of dominators per point come from one pass over all pairs.
    /// `F0` is the points nobody dominates, ascending; each next front
    /// collects, walking the current front in order and each row in
    /// ascending bit order, the points whose last dominator this is. That
    /// is exactly the order of Deb et al.'s fast non-dominated sort, whose
    /// per-point dominated lists are ascending too — one algorithm for any
    /// number of points and objectives, in five allocations.
    pub fn of(points: &[Point]) -> Ranking {
        let n = points.len();
        let m = points.first().map_or(0, |p| p.objectives.len());
        // Two and three objectives as arrays, so the comparison of a pair
        // unrolls; any other number through slices.
        let (beats, mut dominators) = match m {
            2 => dominance_rows(&arrays::<2>(points)),
            3 => dominance_rows(&arrays::<3>(points)),
            _ => dominance_rows(
                &points
                    .iter()
                    .map(|p| {
                        assert_eq!(p.objectives.len(), m, "objective arity mismatch");
                        p.objectives.as_slice()
                    })
                    .collect::<Vec<_>>(),
            ),
        };
        let words = n.div_ceil(64);
        let mut order = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| dominators[i] == 0));
        let mut ends = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let end = order.len();
            ends.push(end);
            for k in start..end {
                let i = order[k];
                for (w, &word) in beats[i * words..][..words].iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let j = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        dominators[j] -= 1;
                        if dominators[j] == 0 {
                            order.push(j);
                        }
                    }
                }
            }
            start = end;
        }
        Ranking { order, ends }
    }

    /// The fronts, `F0` first.
    pub fn fronts(&self) -> impl Iterator<Item = &[usize]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.order[a..b])
    }

    /// `F0`, the non-dominated indices in ascending order (empty for no
    /// points).
    pub fn first(&self) -> &[usize] {
        &self.order[..self.ends.first().copied().unwrap_or(0)]
    }

    /// Every index outside `F0`.
    pub fn dominated(&self) -> &[usize] {
        &self.order[self.first().len()..]
    }
}

/// `points`' objective vectors as arrays of `M`.
fn arrays<const M: usize>(points: &[Point]) -> Vec<[f64; M]> {
    let array = |p: &Point| p.objectives.as_slice().try_into();
    points
        .iter()
        .map(|p| array(p).expect("objective arity mismatch"))
        .collect()
}

/// For objective vectors `v`: row `i` of a bitset holding the `j` that
/// `v[i]` dominates (64 per word), and how many vectors dominate each.
/// Every pair is compared from both ends — twice the comparisons of the
/// triangle, but each result lands in a register instead of in a word
/// another iteration is about to update — and without a branch per
/// objective or per outcome.
fn dominance_rows<V: AsRef<[f64]>>(v: &[V]) -> (Vec<u64>, Vec<u32>) {
    let words = v.len().div_ceil(64);
    let mut beats = vec![0u64; v.len() * words];
    let mut dominators = vec![0u32; v.len()];
    for (i, a) in v.iter().enumerate() {
        let a = a.as_ref();
        let mut count = 0;
        for (w, block) in v.chunks(64).enumerate() {
            let mut word = 0;
            for (j, b) in block.iter().enumerate() {
                let (mut a_better, mut b_better) = (false, false);
                for (x, y) in a.iter().zip(b.as_ref()) {
                    a_better |= x < y;
                    b_better |= y < x;
                }
                word |= u64::from(a_better & !b_better) << j;
                count += u32::from(b_better & !a_better);
            }
            beats[i * words + w] = word;
        }
        dominators[i] = count;
    }
    (beats, dominators)
}

/// Non-dominated sorting: partition `points` into fronts `F0, F1, …` where
/// `F0` is non-dominated, `F1` is non-dominated after removing `F0`, etc.
/// Returns indices into `points`, in the order of Deb et al.'s fast
/// non-dominated sort (see [`Ranking::of`]).
pub fn fast_nondominated_sort(points: &[Point]) -> Vec<Vec<usize>> {
    Ranking::of(points)
        .fronts()
        .map(<[usize]>::to_vec)
        .collect()
}

/// Crowding distance of each point within one front (Deb et al.): boundary
/// points get `f64::INFINITY`, interior points the normalized perimeter of
/// the cuboid spanned by their neighbours.
pub fn crowding_distances(points: &[Point], front: &[usize]) -> Vec<f64> {
    let mut dist = vec![0.0f64; front.len()];
    if front.len() <= 2 {
        return vec![f64::INFINITY; front.len()];
    }
    let m = points[front[0]].objectives.len();
    for obj in 0..m {
        let mut order: Vec<usize> = (0..front.len()).collect();
        order.sort_by(|&a, &b| {
            points[front[a]].objectives[obj]
                .partial_cmp(&points[front[b]].objectives[obj])
                .expect("NaN objective")
        });
        let lo = points[front[order[0]]].objectives[obj];
        let hi = points[front[*order.last().unwrap()]].objectives[obj];
        dist[order[0]] = f64::INFINITY;
        dist[*order.last().unwrap()] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for w in 1..order.len() - 1 {
            let prev = points[front[order[w - 1]]].objectives[obj];
            let next = points[front[order[w + 1]]].objectives[obj];
            dist[order[w]] += (next - prev) / span;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(objs: &[f64]) -> Point {
        Point::new(vec![0], objs.to_vec())
    }

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[2.0, 1.0]), "incomparable");
        assert!(
            !dominates(&[1.0, 1.0], &[1.0, 1.0]),
            "equal does not dominate"
        );
    }

    #[test]
    fn front_keeps_nondominated_only() {
        let mut f = ParetoFront::new();
        assert!(f.insert(p(&[5.0, 5.0])));
        assert!(f.insert(p(&[3.0, 7.0])));
        assert!(f.insert(p(&[7.0, 3.0])));
        assert_eq!(f.len(), 3);
        // Dominated insert rejected.
        assert!(!f.insert(p(&[6.0, 6.0])));
        assert_eq!(f.len(), 3);
        // Dominating insert evicts.
        assert!(f.insert(p(&[1.0, 1.0])));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn front_rejects_duplicates() {
        let mut f = ParetoFront::new();
        assert!(f.insert(p(&[1.0, 2.0])));
        assert!(!f.insert(p(&[1.0, 2.0])));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn front_pairwise_nondominated_invariant() {
        let mut f = ParetoFront::new();
        let pts = [
            [4.0, 4.0],
            [2.0, 6.0],
            [6.0, 2.0],
            [1.0, 9.0],
            [3.0, 5.0],
            [5.0, 5.0],
            [2.5, 5.5],
        ];
        for q in pts {
            f.insert(p(&q));
        }
        for a in f.points() {
            for b in f.points() {
                assert!(!dominates(&a.objectives, &b.objectives));
            }
        }
    }

    #[test]
    fn sort_produces_layered_fronts() {
        let pts = vec![
            p(&[1.0, 4.0]), // F0
            p(&[4.0, 1.0]), // F0
            p(&[2.0, 5.0]), // F1 (dominated by [1,4])
            p(&[5.0, 2.0]), // F1
            p(&[6.0, 6.0]), // F2
        ];
        let fronts = fast_nondominated_sort(&pts);
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![0, 1]);
        let mut f1 = fronts[1].clone();
        f1.sort();
        assert_eq!(f1, vec![2, 3]);
        assert_eq!(fronts[2], vec![4]);
    }

    #[test]
    fn sort_handles_empty_and_single() {
        assert!(fast_nondominated_sort(&[]).is_empty());
        let fronts = fast_nondominated_sort(&[p(&[1.0, 1.0])]);
        assert_eq!(fronts, vec![vec![0]]);
    }

    #[test]
    fn crowding_boundary_infinite_interior_finite() {
        let pts = vec![
            p(&[1.0, 5.0]),
            p(&[2.0, 4.0]),
            p(&[3.0, 3.0]),
            p(&[5.0, 1.0]),
        ];
        let front: Vec<usize> = (0..4).collect();
        let d = crowding_distances(&pts, &front);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!(d[2].is_finite());
        // The middle point with wider gaps is less crowded.
        assert!(d[2] > d[1]);
    }

    #[test]
    fn crowding_small_fronts_infinite() {
        let pts = vec![p(&[1.0, 2.0]), p(&[2.0, 1.0])];
        let d = crowding_distances(&pts, &[0, 1]);
        assert!(d.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn archive_matches_front_decisions() {
        let pts = [
            [4.0, 4.0],
            [2.0, 6.0],
            [6.0, 2.0],
            [1.0, 9.0],
            [3.0, 5.0],
            [5.0, 5.0],
            [2.5, 5.5],
            [4.0, 4.0], // duplicate
            [0.5, 0.5], // dominates everything
        ];
        let mut front = ParetoFront::new();
        let mut archive = ParetoArchive::new();
        for q in pts {
            assert_eq!(front.insert(p(&q)), archive.insert(p(&q)), "at {q:?}");
            assert_eq!(archive.to_front().points(), front.points());
            assert_eq!(archive.len(), front.len());
        }
    }

    #[test]
    fn archive_points_sorted_by_first_objective() {
        let archive = ParetoArchive::from_points(
            [[4.0, 4.0], [2.0, 6.0], [6.0, 2.0], [3.0, 5.0]]
                .iter()
                .map(|q| p(q)),
        );
        let xs: Vec<f64> = archive.points().iter().map(|q| q.objectives[0]).collect();
        assert_eq!(xs, vec![2.0, 3.0, 4.0, 6.0]);
        let ys: Vec<f64> = archive.points().iter().map(|q| q.objectives[1]).collect();
        assert_eq!(ys, vec![6.0, 5.0, 4.0, 2.0], "staircase must descend");
    }

    #[test]
    fn archive_falls_back_for_other_arities() {
        let mut archive = ParetoArchive::new();
        assert!(archive.insert(p(&[1.0, 2.0, 3.0])));
        assert!(!archive.insert(p(&[2.0, 3.0, 4.0])));
        assert!(archive.insert(p(&[0.5, 2.5, 3.0])));
        assert_eq!(archive.len(), 2);
        assert_eq!(archive.to_front().len(), 2);
    }

    #[test]
    fn merge_fronts() {
        let mut a = ParetoFront::from_points(vec![p(&[1.0, 5.0]), p(&[5.0, 1.0])]);
        let b = ParetoFront::from_points(vec![p(&[0.5, 6.0]), p(&[2.0, 2.0])]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
    }
}
