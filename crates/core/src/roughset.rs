//! Rough-Set-based search-space reduction (paper §III-B.4, Fig. 5).
//!
//! Given the most recent population (containing non-dominated and dominated
//! solutions), the reduced search space is the largest hyper-rectangle that
//! encloses all non-dominated solutions and is limited, per dimension, by
//! the coordinates of the dominated solutions surrounding them. Dimensions
//! with no dominated solution beyond the non-dominated span fall back to
//! the full domain bounds — the lower/upper approximation flavour of Rough
//! Set theory: what is certainly interesting (inside), what is certainly
//! uninteresting (beyond a dominated witness), and the boundary in between.

use crate::pareto::{Point, Ranking};
use crate::space::ParamSpace;

/// Compute the reduced per-dimension bounding box from `population`.
///
/// Returns the full-space box when the population contains no dominated
/// point (nothing to learn from) or no non-dominated point (degenerate).
pub fn reduce_search_space(space: &ParamSpace, population: &[Point]) -> Vec<(i64, i64)> {
    reduce_ranked(space, population, &Ranking::of(population))
}

/// [`reduce_search_space`] of a population already ranked.
pub(crate) fn reduce_ranked(
    space: &ParamSpace,
    population: &[Point],
    ranking: &Ranking,
) -> Vec<(i64, i64)> {
    let full = space.full_box();
    let (nd, dominated) = (ranking.first(), ranking.dominated());
    if nd.is_empty() || dominated.is_empty() {
        return full;
    }
    // Rough-Set guard: a non-dominated set smaller than the dimensionality
    // carries insufficient knowledge to approximate the interesting region
    // — reducing around it (e.g. a momentary single champion) would
    // collapse the search space irrecoverably.
    if nd.len() <= space.dims() {
        return full;
    }

    (0..space.dims())
        .map(|k| {
            let coord = |&i: &usize| population[i].config[k];
            let nd_min = nd.iter().map(coord).min().expect("empty ND set");
            let nd_max = nd.iter().map(coord).max().expect("empty ND set");
            // The closest dominated coordinates enclosing the ND span act as
            // the certain-outside witnesses (kept inclusive: the boundary
            // itself may still be sampled).
            let lower = dominated
                .iter()
                .map(coord)
                .filter(|&x| x < nd_min)
                .max()
                .unwrap_or(full[k].0);
            let upper = dominated
                .iter()
                .map(coord)
                .filter(|&x| x > nd_max)
                .min()
                .unwrap_or(full[k].1);
            (lower, upper)
        })
        .collect()
}

/// Expand `bbox` so it encloses every configuration of `points` (used to
/// keep the reduced search space around all *known* non-dominated
/// solutions, the mitigation for the reduction's acknowledged drawback of
/// potentially cutting off parts of the optimal Pareto set).
pub fn enclose_points(bbox: &[(i64, i64)], points: &[crate::pareto::Point]) -> Vec<(i64, i64)> {
    let mut out = bbox.to_vec();
    for p in points {
        for (k, slot) in out.iter_mut().enumerate() {
            slot.0 = slot.0.min(p.config[k]);
            slot.1 = slot.1.max(p.config[k]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Domain;

    fn space2() -> ParamSpace {
        ParamSpace::new(
            vec!["p1".into(), "p2".into()],
            vec![
                Domain::Range { lo: 0, hi: 100 },
                Domain::Range { lo: 0, hi: 100 },
            ],
        )
    }

    fn pt(cfg: [i64; 2], objs: [f64; 2]) -> Point {
        Point::new(cfg.to_vec(), objs.to_vec())
    }

    #[test]
    fn box_encloses_nondominated_bounded_by_dominated() {
        // ND points at p1 ∈ {40, 50, 60}; dominated at p1 ∈ {20, 90}.
        let pop = vec![
            pt([40, 50], [1.0, 9.0]), // ND
            pt([50, 50], [5.0, 5.0]), // ND
            pt([60, 50], [9.0, 1.0]), // ND
            pt([20, 50], [10.0, 10.0]),
            pt([90, 50], [12.0, 12.0]),
        ];
        let bbox = reduce_search_space(&space2(), &pop);
        assert_eq!(bbox[0], (20, 90));
        // Dimension 1: all points share 50; no dominated coordinate beyond
        // the ND span → full domain.
        assert_eq!(bbox[1], (0, 100));
    }

    #[test]
    fn degenerate_nd_set_keeps_full_box() {
        // A single non-dominated champion must not collapse the space
        // (insufficient knowledge guard).
        let pop = vec![
            pt([50, 50], [1.0, 1.0]),
            pt([45, 50], [4.0, 4.0]),
            pt([55, 50], [3.0, 3.0]),
        ];
        assert_eq!(
            reduce_search_space(&space2(), &pop),
            vec![(0, 100), (0, 100)]
        );
    }

    #[test]
    fn all_nondominated_returns_full_box() {
        let pop = vec![pt([10, 10], [1.0, 2.0]), pt([20, 20], [2.0, 1.0])];
        assert_eq!(
            reduce_search_space(&space2(), &pop),
            vec![(0, 100), (0, 100)]
        );
    }

    #[test]
    fn empty_population_returns_full_box() {
        assert_eq!(
            reduce_search_space(&space2(), &[]),
            vec![(0, 100), (0, 100)]
        );
    }

    #[test]
    fn multiple_dominated_pick_closest_witnesses() {
        let pop = vec![
            pt([48, 50], [1.0, 3.0]), // ND
            pt([50, 50], [2.0, 2.0]), // ND
            pt([52, 50], [3.0, 1.0]), // ND
            pt([10, 50], [5.0, 5.0]), // far below
            pt([45, 50], [4.0, 4.0]), // close below → lower witness
            pt([55, 50], [3.5, 3.5]), // close above → upper witness
            pt([95, 50], [6.0, 6.0]), // far above
        ];
        let bbox = reduce_search_space(&space2(), &pop);
        assert_eq!(bbox[0], (45, 55));
    }

    #[test]
    fn box_always_contains_nd_points() {
        // Property: every non-dominated config lies inside the reduced box.
        let pop = vec![
            pt([3, 97], [1.0, 9.0]),
            pt([97, 3], [9.0, 1.0]),
            pt([50, 50], [5.0, 5.0]),
            pt([60, 60], [6.0, 6.0]),
            pt([10, 90], [2.0, 8.0]),
        ];
        let bbox = reduce_search_space(&space2(), &pop);
        for &i in Ranking::of(&pop).first() {
            for (k, b) in bbox.iter().enumerate() {
                let x = pop[i].config[k];
                assert!(x >= b.0 && x <= b.1, "ND point escapes the box");
            }
        }
    }
}
