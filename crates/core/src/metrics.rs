//! Quality metrics for solution sets (paper §V-B.3).
//!
//! * `E` — evaluation count (tracked by
//!   [`crate::evaluate::CachingEvaluator`]),
//! * `|S|` — [`crate::pareto::ParetoFront::len`],
//! * `V(S)` — the normalized **hypervolume** in `[0, 1]`: the fraction of
//!   the normalized objective box dominated by the front; 1 would mean the
//!   (unattainable) ideal point. Exact sweep in 2-D, recursive slicing for
//!   `m > 2`.
//! * the **multiplicative epsilon** [`mult_epsilon`], the unitless distance
//!   of a front from a reference front.

use crate::pareto::Point;

/// Normalize objective vectors into `[0, 1]^m` given the ideal (component
/// minima) and nadir (component maxima) points. Values are clamped; a
/// degenerate dimension (ideal == nadir) maps to 0.
pub fn normalize_front(points: &[Point], ideal: &[f64], nadir: &[f64]) -> Vec<Vec<f64>> {
    points
        .iter()
        .map(|p| {
            p.objectives
                .iter()
                .enumerate()
                .map(|(k, &x)| {
                    let span = nadir[k] - ideal[k];
                    if span > 0.0 {
                        ((x - ideal[k]) / span).clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

/// Component-wise minima and maxima over a set of points.
pub fn objective_bounds(points: &[Point]) -> (Vec<f64>, Vec<f64>) {
    assert!(!points.is_empty());
    let m = points[0].objectives.len();
    let mut ideal = vec![f64::INFINITY; m];
    let mut nadir = vec![f64::NEG_INFINITY; m];
    for p in points {
        for k in 0..m {
            ideal[k] = ideal[k].min(p.objectives[k]);
            nadir[k] = nadir[k].max(p.objectives[k]);
        }
    }
    (ideal, nadir)
}

/// Extend running component-wise bounds with one more point — the
/// incremental form of [`objective_bounds`] for loops that accumulate
/// evaluated points one at a time (identical min/max semantics, without
/// rescanning the full history every iteration).
pub fn extend_bounds(bounds: &mut Option<(Vec<f64>, Vec<f64>)>, p: &Point) {
    match bounds {
        None => *bounds = Some((p.objectives.clone(), p.objectives.clone())),
        Some((ideal, nadir)) => {
            debug_assert_eq!(ideal.len(), p.objectives.len(), "objective arity mismatch");
            for (k, &x) in p.objectives.iter().enumerate() {
                ideal[k] = ideal[k].min(x);
                nadir[k] = nadir[k].max(x);
            }
        }
    }
}

/// Exact 2-d hypervolume of normalized (minimization) points w.r.t. the
/// reference point `(1, 1)`: the area dominated by the front inside the
/// unit square.
pub fn hypervolume_2d(normalized: &[Vec<f64>]) -> f64 {
    if normalized.is_empty() {
        return 0.0;
    }
    let mut pts: Vec<(f64, f64)> = normalized
        .iter()
        .map(|p| {
            assert_eq!(p.len(), 2, "hypervolume_2d requires two objectives");
            (p[0].clamp(0.0, 1.0), p[1].clamp(0.0, 1.0))
        })
        .collect();
    pts.sort_by(|a, b| a.partial_cmp(b).expect("NaN objective"));
    hypervolume_2d_presorted(&pts)
}

/// The [`hypervolume_2d`] sweep over points already clamped to `[0, 1]²`
/// and sorted ascending by the full `(f0, f1)` tuple. Callers that keep
/// their front sorted (e.g. [`crate::pareto::ParetoArchive`]) can skip the
/// clamp-and-sort pass; the summation order — and therefore the exact
/// floating-point result — is identical to [`hypervolume_2d`].
pub fn hypervolume_2d_presorted(pts: &[(f64, f64)]) -> f64 {
    let mut hv = 0.0;
    let mut prev_y = 1.0;
    for &(x, y) in pts {
        if y < prev_y {
            hv += (1.0 - x) * (prev_y - y);
            prev_y = y;
        }
    }
    hv
}

/// An incrementally maintained two-objective hypervolume under a fixed
/// reference point (minimization; coordinates are clamped to the box
/// `[0, reference]`, matching [`hypervolume_2d`]'s treatment of the unit
/// box).
///
/// The dominated region of a 2-D staircase decomposes into one rectangle
/// per front point between its own `f1` and its predecessor's, so an
/// insertion only perturbs the rectangles of its immediate neighbours and
/// of the points it dominates: the area delta is computed locally in
/// O(log n + removed) instead of re-sweeping the whole front. Floating-
/// point accumulation order differs from a fresh sweep, so the running
/// value can drift from [`hypervolume_2d`] by rounding error — use it for
/// cheap monotone progress tracking, not for bit-stable reporting.
#[derive(Debug, Clone)]
pub struct Hv2dIncremental {
    /// Staircase sorted ascending by `f0` (strictly descending `f1`),
    /// clamped to the reference box.
    pts: Vec<(f64, f64)>,
    reference: (f64, f64),
    hv: f64,
}

impl Hv2dIncremental {
    /// Empty front with the given reference point.
    pub fn new(reference: (f64, f64)) -> Self {
        Hv2dIncremental {
            pts: Vec::new(),
            reference,
            hv: 0.0,
        }
    }

    /// Unit-box reference `(1, 1)`, the convention of [`hypervolume_2d`].
    pub fn unit() -> Self {
        Hv2dIncremental::new((1.0, 1.0))
    }

    /// The current hypervolume.
    pub fn hv(&self) -> f64 {
        self.hv
    }

    /// Number of points on the maintained front.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// True if no point has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Insert a point and return the hypervolume gained (0 if the point is
    /// dominated by, or duplicates, the current front).
    pub fn insert(&mut self, x: f64, y: f64) -> f64 {
        let (rx, ry) = self.reference;
        let (x, y) = (x.clamp(0.0, rx), y.clamp(0.0, ry));
        let idx = self.pts.partition_point(|&(px, _)| px < x);
        // Dominated or duplicate: the predecessor (or equal-f0 incumbent)
        // already covers this point's rectangle.
        if idx > 0 && self.pts[idx - 1].1 <= y {
            return 0.0;
        }
        if let Some(&(px, py)) = self.pts.get(idx) {
            if px == x && py <= y {
                return 0.0;
            }
        }
        let mut end = idx;
        while end < self.pts.len() && self.pts[end].1 >= y {
            end += 1;
        }
        // Local area delta: rectangles are (rx - f0_i) × (f1_{i-1} - f1_i)
        // with the reference's f1 above the first point. Removing
        // `pts[idx..end]` and splicing in (x, y) only changes the removed
        // rectangles plus the first survivor's (its predecessor changed).
        let pred_y = if idx > 0 { self.pts[idx - 1].1 } else { ry };
        let mut removed = 0.0;
        let mut upper = pred_y;
        for &(px, py) in &self.pts[idx..end] {
            removed += (rx - px) * (upper - py);
            upper = py;
        }
        let succ = self.pts.get(end).copied();
        if let Some((sx, sy)) = succ {
            removed += (rx - sx) * (upper - sy);
        }
        let mut added = (rx - x) * (pred_y - y);
        if let Some((sx, sy)) = succ {
            added += (rx - sx) * (y - sy);
        }
        self.pts.drain(idx..end);
        self.pts.insert(idx, (x, y));
        let delta = added - removed;
        self.hv += delta;
        delta
    }
}

/// Hypervolume of normalized minimization points w.r.t. the all-ones
/// reference point, for any number of objectives (recursive slicing on the
/// last objective; exact).
pub fn hypervolume(normalized: &[Vec<f64>]) -> f64 {
    if normalized.is_empty() {
        return 0.0;
    }
    let m = normalized[0].len();
    assert!(m >= 1);
    if m == 2 {
        return hypervolume_2d(normalized);
    }
    let clamped: Vec<Vec<f64>> = normalized
        .iter()
        .map(|p| p.iter().map(|&x| x.clamp(0.0, 1.0)).collect())
        .collect();
    hv_rec(&clamped)
}

fn hv_rec(pts: &[Vec<f64>]) -> f64 {
    let m = pts[0].len();
    if m == 1 {
        let min = pts.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        return (1.0 - min).max(0.0);
    }
    if m == 2 {
        return hypervolume_2d(pts);
    }
    // Slice along the last objective.
    let mut order: Vec<usize> = (0..pts.len()).collect();
    order.sort_by(|&a, &b| pts[a][m - 1].partial_cmp(&pts[b][m - 1]).expect("NaN"));
    let mut hv = 0.0;
    let mut active: Vec<Vec<f64>> = Vec::new();
    for (w, &i) in order.iter().enumerate() {
        active.push(pts[i][..m - 1].to_vec());
        let z = pts[i][m - 1];
        let z_next = if w + 1 < order.len() {
            pts[order[w + 1]][m - 1]
        } else {
            1.0
        };
        let thickness = z_next - z;
        if thickness > 0.0 {
            hv += thickness * hv_rec(&active);
        }
    }
    hv
}

/// Multiplicative epsilon indicator (Zitzler et al., IEEE TEC 2003) of a
/// front against a reference front, both minimizing positive objectives:
/// for each reference point `r`, the smallest factor by which some front
/// point comes within `r` on every objective, `min_p max_k p_k / r_k`.
/// Returns the mean and the max over the reference points. 1 means the
/// front reaches every reference point, below 1 it dominates them; being a
/// ratio, it does not depend on the objectives' units.
pub fn mult_epsilon(front: &[Point], reference: &[Point]) -> (f64, f64) {
    assert!(!front.is_empty() && !reference.is_empty());
    let eps: Vec<f64> = reference
        .iter()
        .map(|r| {
            front
                .iter()
                .map(|p| {
                    let ratios = p.objectives.iter().zip(&r.objectives).map(|(a, b)| a / b);
                    ratios.fold(f64::NEG_INFINITY, f64::max)
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let max = eps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (eps.iter().sum::<f64>() / eps.len() as f64, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(objs: &[f64]) -> Point {
        Point::new(vec![], objs.to_vec())
    }

    #[test]
    fn normalize_and_bounds() {
        let pts = vec![p(&[10.0, 100.0]), p(&[20.0, 50.0])];
        let (ideal, nadir) = objective_bounds(&pts);
        assert_eq!(ideal, vec![10.0, 50.0]);
        assert_eq!(nadir, vec![20.0, 100.0]);
        let norm = normalize_front(&pts, &ideal, &nadir);
        assert_eq!(norm[0], vec![0.0, 1.0]);
        assert_eq!(norm[1], vec![1.0, 0.0]);
    }

    #[test]
    fn hv2d_single_point() {
        // Point (0.25, 0.25) dominates a 0.75 × 0.75 box.
        assert!((hypervolume_2d(&[vec![0.25, 0.25]]) - 0.5625).abs() < 1e-12);
    }

    #[test]
    fn hv2d_ideal_and_nadir() {
        assert_eq!(hypervolume_2d(&[vec![0.0, 0.0]]), 1.0);
        assert_eq!(hypervolume_2d(&[vec![1.0, 1.0]]), 0.0);
        assert_eq!(hypervolume_2d(&[]), 0.0);
    }

    #[test]
    fn hv2d_two_points_union() {
        // (0.2, 0.6) and (0.6, 0.2): union = 0.8*0.4 + 0.4*(0.8-0.4)
        let hv = hypervolume_2d(&[vec![0.2, 0.6], vec![0.6, 0.2]]);
        assert!((hv - (0.8 * 0.4 + 0.4 * 0.4)).abs() < 1e-12);
    }

    #[test]
    fn hv2d_dominated_point_adds_nothing() {
        let a = hypervolume_2d(&[vec![0.2, 0.2]]);
        let b = hypervolume_2d(&[vec![0.2, 0.2], vec![0.5, 0.5]]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn hv2d_monotone_under_additions() {
        let base = hypervolume_2d(&[vec![0.3, 0.6], vec![0.6, 0.3]]);
        let more = hypervolume_2d(&[vec![0.3, 0.6], vec![0.6, 0.3], vec![0.1, 0.9]]);
        assert!(more >= base);
    }

    #[test]
    fn hv3d_matches_manual() {
        // Single point (0.5, 0.5, 0.5) → volume 0.125.
        assert!((hypervolume(&[vec![0.5; 3]]) - 0.125).abs() < 1e-12);
        // Two comparable points: dominated one adds nothing.
        let hv = hypervolume(&[vec![0.5; 3], vec![0.75; 3]]);
        assert!((hv - 0.125).abs() < 1e-12);
    }

    #[test]
    fn hv3d_union_of_two() {
        // (0,0.5,0.5) and (0.5,0,0.5) both with z-extent 0.5:
        // slice area = union of two rectangles = 0.5*1... compute:
        // area2d of {(0,0.5),(0.5,0)} = 1*0.5 + 0.5*0.5 = 0.75; × 0.5 depth.
        let hv = hypervolume(&[vec![0.0, 0.5, 0.5], vec![0.5, 0.0, 0.5]]);
        assert!((hv - 0.375).abs() < 1e-12, "{hv}");
    }

    #[test]
    fn hv_reduces_to_2d() {
        let pts = vec![vec![0.2, 0.6], vec![0.6, 0.2]];
        assert!((hypervolume(&pts) - hypervolume_2d(&pts)).abs() < 1e-12);
    }

    #[test]
    fn incremental_hv_tracks_full_sweep() {
        let pts = [
            [0.4, 0.4],
            [0.2, 0.6],
            [0.6, 0.2],
            [0.5, 0.5], // dominated: no change
            [0.4, 0.4], // duplicate: no change
            [0.1, 0.1], // dominates all three
        ];
        let mut inc = Hv2dIncremental::unit();
        let mut seen: Vec<Vec<f64>> = Vec::new();
        for q in pts {
            let before = inc.hv();
            let delta = inc.insert(q[0], q[1]);
            assert!((inc.hv() - (before + delta)).abs() < 1e-15);
            seen.push(q.to_vec());
            let full = hypervolume_2d(&seen);
            assert!(
                (inc.hv() - full).abs() < 1e-12,
                "incremental {} vs sweep {full}",
                inc.hv()
            );
        }
        assert_eq!(inc.len(), 1);
    }

    #[test]
    fn incremental_hv_clamps_to_reference() {
        let mut inc = Hv2dIncremental::new((2.0, 2.0));
        assert!((inc.insert(1.0, 1.0) - 1.0).abs() < 1e-15);
        // Outside the box: clamped onto the boundary, adds nothing.
        assert_eq!(inc.insert(3.0, 0.5), (2.0 - 2.0) * 1.5);
        assert!((inc.hv() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn presorted_sweep_matches_hypervolume_2d() {
        let raw = vec![vec![0.3, 0.6], vec![0.6, 0.3], vec![0.1, 0.9]];
        let mut pts: Vec<(f64, f64)> = raw.iter().map(|p| (p[0], p[1])).collect();
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(hypervolume_2d_presorted(&pts), hypervolume_2d(&raw));
    }

    #[test]
    fn mult_epsilon_is_one_on_the_reference() {
        let f = vec![p(&[1.0, 4.0]), p(&[2.0, 2.0]), p(&[4.0, 1.0])];
        assert_eq!(mult_epsilon(&f, &f), (1.0, 1.0));
    }

    #[test]
    fn mult_epsilon_two_points_by_hand() {
        let reference = vec![p(&[1.0, 4.0]), p(&[4.0, 1.0])];
        let front = vec![p(&[1.5, 4.0]), p(&[4.0, 1.25])];
        // (1, 4): 1.5 from the first point (4 from the second).
        // (4, 1): 1.25 from the second point (4 from the first).
        let (mean, max) = mult_epsilon(&front, &reference);
        assert!((mean - 1.375).abs() < 1e-12, "{mean}");
        assert_eq!(max, 1.5);
    }

    #[test]
    fn mult_epsilon_below_one_when_the_front_dominates() {
        let reference = vec![p(&[2.0, 4.0]), p(&[4.0, 2.0])];
        let front = vec![p(&[1.0, 3.0]), p(&[3.0, 1.0])];
        // Each reference point is 0.75 of the way from a front point.
        assert_eq!(mult_epsilon(&front, &reference), (0.75, 0.75));
    }

    #[test]
    fn mult_epsilon_ignores_the_unit_of_an_objective() {
        let reference = vec![p(&[0.2, 3.0]), p(&[0.5, 1.0]), p(&[1.1, 0.7])];
        let front = vec![p(&[0.25, 2.9]), p(&[0.7, 0.9])];
        // Seconds to milliseconds on the first objective.
        let ms = |ps: &[Point]| -> Vec<Point> {
            ps.iter()
                .map(|q| p(&[q.objectives[0] * 1000.0, q.objectives[1]]))
                .collect()
        };
        let (mean, max) = mult_epsilon(&front, &reference);
        let (mean_ms, max_ms) = mult_epsilon(&ms(&front), &ms(&reference));
        assert!((mean - mean_ms).abs() < 1e-12 && (max - max_ms).abs() < 1e-12);
    }
}
