//! Property-based tests of the runtime: static chunking laws, pool
//! correctness under arbitrary team sizes, and selection-policy soundness.

use moat_runtime::{static_chunk, Pool, SelectionContext, SelectionPolicy, VersionMeta};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

proptest! {
    /// Static chunks partition `0..total` contiguously with balanced sizes.
    #[test]
    fn chunks_partition(total in 0u64..100_000, team in 1usize..64) {
        let mut next = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for tid in 0..team {
            let r = static_chunk(total, team, tid);
            prop_assert_eq!(r.start, next);
            next = r.end;
            let len = r.end - r.start;
            min = min.min(len);
            max = max.max(len);
        }
        prop_assert_eq!(next, total);
        prop_assert!(max - min <= 1, "imbalance beyond 1 iteration");
    }

    /// The pool computes the same reduction as sequential code for any
    /// team size and input length.
    #[test]
    fn pool_reduction_matches_sequential(
        data in prop::collection::vec(0u64..1000, 0..2000),
        team in 1usize..6,
    ) {
        let pool = Pool::new(4);
        let expected: u64 = data.iter().sum();
        let sum = AtomicU64::new(0);
        pool.parallel_for(team, data.len() as u64, &|range| {
            let local: u64 = data[range.start as usize..range.end as usize].iter().sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        prop_assert_eq!(sum.load(Ordering::Relaxed), expected);
    }

    /// Every policy returns an index within the table for any non-empty
    /// metadata set, and the returned version satisfies the policy's
    /// constraint where one exists.
    #[test]
    fn policies_sound(
        objs in prop::collection::vec((0.1f64..100.0, 0.1f64..100.0), 1..12),
        cap in 1usize..64,
        limit in 0.1f64..120.0,
    ) {
        let table: Vec<VersionMeta> = objs
            .iter()
            .enumerate()
            .map(|(i, &(t, r))| VersionMeta {
                objectives: vec![t, r],
                threads: i + 1,
                label: format!("v{i}"),
                backend: None,
            })
            .collect();
        let ctx = SelectionContext { available_threads: Some(cap) };
        for policy in [
            SelectionPolicy::FastestTime,
            SelectionPolicy::LowestResources,
            SelectionPolicy::WeightedSum { weights: vec![0.4, 0.6] },
            SelectionPolicy::Budget { objective: 1, limit },
            SelectionPolicy::FitThreads,
        ] {
            let idx = policy.select(&table, &ctx);
            prop_assert!(idx.is_some());
            let idx = idx.unwrap();
            prop_assert!(idx < table.len());
            match &policy {
                SelectionPolicy::FastestTime => {
                    let best = table
                        .iter()
                        .map(|v| v.objectives[0])
                        .fold(f64::INFINITY, f64::min);
                    prop_assert_eq!(table[idx].objectives[0], best);
                }
                // If any version fits the budget, the pick must fit it.
                SelectionPolicy::Budget { limit, .. }
                    if table.iter().any(|v| v.objectives[1] <= *limit) =>
                {
                    prop_assert!(table[idx].objectives[1] <= *limit);
                }
                SelectionPolicy::FitThreads if table.iter().any(|v| v.threads <= cap) => {
                    prop_assert!(table[idx].threads <= cap);
                }
                _ => {}
            }
        }
    }
}
