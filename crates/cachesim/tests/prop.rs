//! Property-based tests of the cache simulator: LRU laws and hierarchy
//! invariants under random traces.

use moat_cachesim::{AccessSource, Cache, CacheConfig, HierarchyConfig, MultiCoreHierarchy};
use proptest::prelude::*;

/// The textbook LRU set store the flat one must be indistinguishable from:
/// per set a list of `(line, dirty)`, most recently used first.
struct ListCache {
    sets: Vec<Vec<(u64, bool)>>,
    assoc: usize,
    writebacks: u64,
}

impl ListCache {
    /// `(hit, dirty victim's byte address)` of bringing `addr`'s line to the
    /// front of its set, installing it if absent.
    fn touch(&mut self, addr: u64, dirty: bool) -> (bool, Option<u64>) {
        let line = addr / 64;
        let sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % sets) as usize];
        if let Some(p) = set.iter().position(|&(l, _)| l == line) {
            let (_, was_dirty) = set.remove(p);
            set.insert(0, (line, was_dirty || dirty));
            return (true, None);
        }
        let victim = (set.len() == self.assoc).then(|| set.pop()).flatten();
        set.insert(0, (line, dirty));
        let victim = victim.filter(|&(_, d)| d).map(|(l, _)| l * 64);
        self.writebacks += u64::from(victim.is_some());
        (false, victim)
    }
}

/// A fixed trace drawn in blocks of `block` accesses, each a run of one
/// repetition: what `simulate_streams` coalesces, with nothing to credit.
struct Blocks {
    trace: std::vec::IntoIter<(u64, bool)>,
    block: usize,
}

impl Iterator for Blocks {
    type Item = (u64, bool);

    fn next(&mut self) -> Option<(u64, bool)> {
        self.trace.next()
    }
}

impl AccessSource for Blocks {
    fn next_run(&mut self, buf: &mut Vec<(u64, bool)>, _line_shift: u32) -> u64 {
        buf.clear();
        buf.extend(self.trace.by_ref().take(self.block));
        u64::from(!buf.is_empty())
    }
}

/// Two cores on one chip over levels of four, eight and thirty-two lines:
/// every demand miss evicts, and dirty lines cascade to memory.
fn tiny_hierarchy(prefetch_depth: usize) -> MultiCoreHierarchy {
    MultiCoreHierarchy::new(HierarchyConfig {
        private_levels: vec![CacheConfig::new(256, 2, 64), CacheConfig::new(512, 2, 64)],
        shared_level: CacheConfig::new(2048, 4, 64),
        cores_per_chip: 2,
        cores: 2,
        prefetch_depth,
    })
}

fn trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..16384, 1..400)
}

proptest! {
    /// The flat set store answers every operation — demand touches of one
    /// or several accesses to a line, write-backs from above, prefetch
    /// fills, probes — exactly as a list per set does, on power-of-two and
    /// odd set counts.
    #[test]
    fn flat_sets_match_list_sets(
        ops in prop::collection::vec((0u8..4, 0u64..8192, 0u8..8, 1u64..4), 1..600),
        sets in 1u64..6,
        assoc in 1u32..5,
    ) {
        let mut flat = Cache::new(CacheConfig::new(sets * assoc as u64 * 64, assoc, 64));
        let mut list = ListCache {
            sets: vec![Vec::new(); sets as usize],
            assoc: assoc as usize,
            writebacks: 0,
        };
        let (mut accesses, mut misses) = (0, 0);
        for &(kind, addr, writes, n) in &ops {
            let resident = list.sets[(addr / 64 % sets) as usize]
                .iter()
                .any(|&(l, _)| l == addr / 64);
            prop_assert_eq!(flat.contains(addr), resident);
            match kind {
                // `n` accesses to the line, the `k`-th writing when bit `k`
                // of `writes` is set: one touch against `n` list touches.
                0 | 1 => {
                    let first = list.touch(addr, writes & 1 == 1);
                    for k in 1..n {
                        prop_assert_eq!(list.touch(addr, writes >> k & 1 == 1), (true, None));
                    }
                    accesses += n;
                    misses += u64::from(!first.0);
                    let any_write = u64::from(writes) & ((1 << n) - 1) != 0;
                    prop_assert_eq!(flat.touch(addr, n, any_write), first);
                }
                2 => prop_assert_eq!(flat.receive_writeback(addr), list.touch(addr, true).1),
                // A prefetch of a resident line changes nothing, LRU order
                // included.
                _ if resident => prop_assert_eq!(flat.receive_prefetch(addr), None),
                _ => prop_assert_eq!(flat.receive_prefetch(addr), list.touch(addr, false).1),
            }
        }
        prop_assert_eq!(flat.writebacks(), list.writebacks);
        prop_assert_eq!((flat.accesses(), flat.misses()), (accesses, misses));
    }

    /// Coalescing is exact: random traces with writes and runs of
    /// same-line accesses, drawn as one-repetition blocks through
    /// `simulate_streams`, count exactly as the same accesses issued one at
    /// a time, round-robin over the streams, with and without the
    /// prefetcher.
    #[test]
    fn coalesced_blocks_match_single_accesses(
        runs in prop::collection::vec(
            prop::collection::vec((0u64..40, 0u64..8, 1usize..5, 0u8..2), 1..120),
            1..3,
        ),
        block in 1usize..10,
        prefetch in 0usize..2,
    ) {
        let prefetch_depth = 2 * prefetch;
        // Per stream, each `(line, element, count, write)` is `count`
        // consecutive accesses to one line, the last of them a write when
        // `write`.
        let traces: Vec<Vec<(u64, bool)>> = runs
            .iter()
            .map(|stream| {
                stream
                    .iter()
                    .flat_map(|&(line, elem, count, write)| {
                        (0..count).map(move |k| {
                            (line * 64 + (elem + k as u64) % 8 * 8, write == 1 && k + 1 == count)
                        })
                    })
                    .collect()
            })
            .collect();
        let mut single = tiny_hierarchy(prefetch_depth);
        for round in 0..traces.iter().map(Vec::len).max().unwrap_or(0) {
            for (core, trace) in traces.iter().enumerate() {
                match trace.get(round) {
                    Some(&(addr, true)) => single.write(core, addr),
                    Some(&(addr, false)) => single.access(core, addr),
                    None => continue,
                };
            }
        }
        let mut blocks = tiny_hierarchy(prefetch_depth);
        let streams = traces
            .iter()
            .map(|t| Blocks { trace: t.clone().into_iter(), block })
            .collect();
        let issued = blocks.simulate_streams(streams);
        prop_assert_eq!(issued, traces.iter().map(|t| t.len() as u64).sum::<u64>());
        for lvl in 0..single.levels() {
            prop_assert_eq!(blocks.level_stats(lvl), single.level_stats(lvl), "level {}", lvl);
        }
        prop_assert_eq!(blocks.memory_accesses(), single.memory_accesses());
        prop_assert_eq!(blocks.memory_writebacks(), single.memory_writebacks());
        prop_assert_eq!(blocks.prefetches(), single.prefetches());
    }

    /// Misses never exceed accesses; replaying a trace whose working set
    /// fits produces only compulsory misses.
    #[test]
    fn miss_bounds(t in trace()) {
        let mut c = Cache::new(CacheConfig::new(4096, 4, 64));
        for &a in &t {
            c.access(a);
        }
        prop_assert!(c.misses() <= c.accesses());
        prop_assert_eq!(c.accesses(), t.len() as u64);
    }

    /// If the distinct lines of a trace fit the cache, a second pass over
    /// the same trace hits every access (LRU retains a fitting working
    /// set regardless of order) — checked with a fully associative
    /// configuration to avoid conflict artifacts.
    #[test]
    fn fitting_working_set_second_pass_hits(t in prop::collection::vec(0u64..(16 * 64), 1..200)) {
        // 16-line fully associative cache; addresses span exactly 16 lines.
        let mut c = Cache::new(CacheConfig::new(16 * 64, 16, 64));
        for &a in &t {
            c.access(a);
        }
        let cold_misses = c.misses();
        let mut distinct: Vec<u64> = t.iter().map(|a| a / 64).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(cold_misses, distinct.len() as u64, "first pass: compulsory only");
        c.reset_stats();
        for &a in &t {
            prop_assert!(c.access(a), "second pass must hit");
        }
    }

    /// Doubling the capacity never increases the miss count (LRU inclusion
    /// property for fully associative caches).
    #[test]
    fn bigger_cache_never_worse(t in trace()) {
        let mut small = Cache::new(CacheConfig::new(8 * 64, 8, 64));
        let mut big = Cache::new(CacheConfig::new(16 * 64, 16, 64));
        for &a in &t {
            small.access(a);
            big.access(a);
        }
        prop_assert!(big.misses() <= small.misses());
    }

    /// Determinism: the same trace produces identical statistics.
    #[test]
    fn deterministic(t in trace()) {
        let run = |t: &[u64]| {
            let mut h = MultiCoreHierarchy::new(HierarchyConfig {
                private_levels: vec![CacheConfig::new(1024, 2, 64)],
                shared_level: CacheConfig::new(8192, 8, 64),
                cores_per_chip: 2,
                cores: 4,
            prefetch_depth: 0,
            });
            for (i, &a) in t.iter().enumerate() {
                h.access(i % 4, a);
            }
            (h.memory_accesses(), h.level_stats(0).misses, h.level_stats(1).misses)
        };
        prop_assert_eq!(run(&t), run(&t));
    }

    /// Hierarchy conservation: accesses reaching the shared level equal
    /// the private-level misses; memory accesses equal shared misses.
    #[test]
    fn hierarchy_flow_conservation(t in trace()) {
        let mut h = MultiCoreHierarchy::new(HierarchyConfig {
            private_levels: vec![CacheConfig::new(512, 2, 64), CacheConfig::new(2048, 4, 64)],
            shared_level: CacheConfig::new(16384, 8, 64),
            cores_per_chip: 4,
            cores: 4,
            prefetch_depth: 0,
        });
        for (i, &a) in t.iter().enumerate() {
            h.access(i % 4, a);
        }
        let l1 = h.level_stats(0);
        let l2 = h.level_stats(1);
        let l3 = h.level_stats(2);
        prop_assert_eq!(l1.accesses, t.len() as u64);
        prop_assert_eq!(l2.accesses, l1.misses);
        prop_assert_eq!(l3.accesses, l2.misses);
        prop_assert_eq!(h.memory_accesses(), l3.misses);
        prop_assert_eq!(h.memory_traffic_bytes(), l3.misses * 64);
    }
}
