//! The generation-step rewrites against the references they replaced,
//! kept here: the bitset ranking against Deb et al.'s pairwise fast
//! non-dominated sort (same fronts, same order inside each front), pruning
//! on it against pruning on the reference, and the in-place front
//! signatures against the ones built from a `ParetoArchive` — on objective
//! vectors drawn from a few integers, so ties and duplicates are common,
//! for two and three objectives and for populations past one bitset word.

use moat_core::gde3::prune;
use moat_core::metrics::objective_bounds;
use moat_core::pareto::{crowding_distances, dominates, fast_nondominated_sort, Point, Ranking};
use moat_core::{hypervolume, normalize_front, FrontSignature, ParetoArchive};
use proptest::prelude::*;

/// Deb et al.'s fast non-dominated sort, as the optimizer ran it before.
fn deb_sort(points: &[Point]) -> Vec<Vec<usize>> {
    let n = points.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dom_count = vec![0usize; n];
    for i in 0..n {
        for j in i + 1..n {
            if dominates(&points[i].objectives, &points[j].objectives) {
                dominated_by[i].push(j);
                dom_count[j] += 1;
            } else if dominates(&points[j].objectives, &points[i].objectives) {
                dominated_by[j].push(i);
                dom_count[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dom_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                dom_count[j] -= 1;
                if dom_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// `gde3::prune` on [`deb_sort`].
fn deb_prune(points: Vec<Point>, target: usize) -> Vec<Point> {
    if points.len() <= target {
        return points;
    }
    let mut keep: Vec<usize> = Vec::with_capacity(target);
    for front in deb_sort(&points) {
        if keep.len() + front.len() <= target {
            keep.extend(front);
        } else {
            let dist = crowding_distances(&points, &front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| {
                dist[b]
                    .partial_cmp(&dist[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &w in order.iter().take(target - keep.len()) {
                keep.push(front[w]);
            }
            break;
        }
    }
    keep.into_iter().map(|i| points[i].clone()).collect()
}

/// `FrontSignature::of` as it was: through a `ParetoArchive` of clones.
fn archive_signature(population: &[Point]) -> FrontSignature {
    let front = ParetoArchive::from_points(population.iter().cloned());
    if front.is_empty() {
        return FrontSignature {
            size: 0,
            ideal: Vec::new(),
            hv: 0.0,
        };
    }
    let (ideal, nadir) = objective_bounds(front.points());
    let hv = hypervolume(&normalize_front(front.points(), &ideal, &nadir));
    FrontSignature {
        size: front.len(),
        ideal,
        hv,
    }
}

/// `FrontSignature::under_bounds` as it was, likewise.
fn archive_signature_under(points: &[Point], ideal: &[f64], nadir: &[f64]) -> FrontSignature {
    let front = ParetoArchive::from_points(points.iter().cloned());
    if front.is_empty() {
        return FrontSignature {
            size: 0,
            ideal: Vec::new(),
            hv: 0.0,
        };
    }
    let (own_ideal, _) = objective_bounds(front.points());
    let hv = hypervolume(&normalize_front(front.points(), ideal, nadir));
    FrontSignature {
        size: front.len(),
        ideal: own_ideal,
        hv,
    }
}

fn bits(sig: &FrontSignature) -> (usize, Vec<u64>, u64) {
    let ideal = sig.ideal.iter().map(|x| x.to_bits()).collect();
    (sig.size, ideal, sig.hv.to_bits())
}

/// Points with `m` objectives drawn from `0..levels` (scaled, so the
/// normalization divides by something other than a power of two).
fn tied(m: usize, levels: i64, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    let objs = prop::collection::vec(0i64..levels, m);
    prop::collection::vec((objs, prop::collection::vec(0i64..9, 2)), n).prop_map(|v| {
        v.into_iter()
            .map(|(o, c)| Point::new(c, o.into_iter().map(|x| x as f64 * 0.37).collect()))
            .collect()
    })
}

fn continuous(m: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    let objs = prop::collection::vec(0.0f64..10.0, m);
    prop::collection::vec((objs, prop::collection::vec(0i64..9, 2)), n)
        .prop_map(|v| v.into_iter().map(|(o, c)| Point::new(c, o)).collect())
}

fn check_ranking(pts: &[Point]) -> Result<(), TestCaseError> {
    let deb = deb_sort(pts);
    prop_assert_eq!(fast_nondominated_sort(pts), deb.clone());
    let ranking = Ranking::of(pts);
    let fronts: Vec<Vec<usize>> = ranking.fronts().map(<[usize]>::to_vec).collect();
    prop_assert_eq!(&fronts, &deb);
    prop_assert_eq!(ranking.first(), deb.first().map_or(&[][..], |f| &f[..]));
    let rest: Vec<usize> = deb.iter().skip(1).flatten().copied().collect();
    prop_assert_eq!(ranking.dominated(), &rest[..]);
    Ok(())
}

fn check_prune(pts: &[Point], target: usize) -> Result<(), TestCaseError> {
    let got = prune(pts.to_vec(), target);
    let want = deb_prune(pts.to_vec(), target);
    prop_assert_eq!(got, want);
    Ok(())
}

fn check_signature(pts: &[Point]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        bits(&FrontSignature::of(pts)),
        bits(&archive_signature(pts))
    );
    // Under the bounds of the points and of a box wider than them.
    if let Some((ideal, nadir)) = (!pts.is_empty()).then(|| objective_bounds(pts)) {
        let wider: Vec<f64> = nadir.iter().map(|x| x * 1.5 + 1.0).collect();
        for nadir in [nadir, wider] {
            prop_assert_eq!(
                bits(&FrontSignature::under_bounds(pts, &ideal, &nadir)),
                bits(&archive_signature_under(pts, &ideal, &nadir))
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn ranking_is_debs_order_with_ties_two_objectives(pts in tied(2, 5, 0..80)) {
        check_ranking(&pts)?;
    }

    #[test]
    fn ranking_is_debs_order_with_ties_three_objectives(pts in tied(3, 4, 0..80)) {
        check_ranking(&pts)?;
    }

    #[test]
    fn ranking_is_debs_order_past_one_word(pts in tied(2, 12, 60..150)) {
        check_ranking(&pts)?;
    }

    #[test]
    fn ranking_is_debs_order_continuous(pts in continuous(2, 0..70), pts3 in continuous(3, 0..70)) {
        check_ranking(&pts)?;
        check_ranking(&pts3)?;
    }

    #[test]
    fn pruning_on_the_ranking_keeps_the_same_points_in_order(
        pts in tied(2, 6, 4..70),
        pts3 in tied(3, 4, 4..70),
        target in 2usize..40,
    ) {
        check_prune(&pts, target)?;
        check_prune(&pts3, target)?;
    }

    #[test]
    fn signature_in_place_equals_the_archive_one(
        pts in tied(2, 6, 0..40),
        pts3 in tied(3, 4, 0..40),
        cont in continuous(2, 0..40),
        cont3 in continuous(3, 0..40),
    ) {
        check_signature(&pts)?;
        check_signature(&pts3)?;
        check_signature(&cont)?;
        check_signature(&cont3)?;
    }

    /// `insert_cloned` decides as `insert` does, point for point.
    #[test]
    fn insert_cloned_decides_as_insert(pts in tied(2, 6, 0..40), pts3 in tied(3, 4, 0..40)) {
        for pts in [pts, pts3] {
            let (mut by_value, mut by_ref) = (ParetoArchive::new(), ParetoArchive::new());
            for p in &pts {
                prop_assert_eq!(by_value.insert(p.clone()), by_ref.insert_cloned(p));
            }
            prop_assert_eq!(by_value.to_front(), by_ref.to_front());
        }
    }
}
