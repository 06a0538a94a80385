//! A multi-core cache hierarchy: private L1/L2 per core, shared last-level
//! cache per chip (the topology of both machines in Table I of the paper).

use crate::cache::{Cache, CacheConfig};

/// Configuration of a multi-core hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Per-core private levels, innermost first (e.g. `[L1, L2]`); at
    /// least one.
    pub private_levels: Vec<CacheConfig>,
    /// Chip-shared last level (e.g. L3).
    pub shared_level: CacheConfig,
    /// Cores per chip (threads `0..cores_per_chip` share the first L3, …).
    pub cores_per_chip: usize,
    /// Number of simulated cores.
    pub cores: usize,
    /// Per-core sequential stream prefetcher: on an ascending
    /// line-sequential access, the next this many lines not already in the
    /// innermost level are filled into every private level beyond it and
    /// into the shared level (0 = disabled). Models the hardware
    /// prefetchers behind the cost model's `stream_exposure` parameter.
    pub prefetch_depth: usize,
}

/// Per-level aggregate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LevelStats {
    /// Total accesses reaching this level.
    pub accesses: u64,
    /// Total misses at this level.
    pub misses: u64,
}

impl LevelStats {
    /// Miss ratio (0 for an idle level).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A stream of `(byte address, is_write)` events that can be drawn in
/// *runs*: blocks of accesses (one innermost-loop iteration) repeated a
/// known number of times with an identical cache-line pattern. Byte
/// addresses stay below 2^62: the simulator packs the kind of a
/// shared-level operation into the two bits above them.
///
/// The contract of [`next_run`](Self::next_run): the `reps` repetitions
/// (including the one materialized in `buf`) touch the same lines — at
/// `line_shift` granularity — with the same read/write flags in the same
/// order. Since every architectural effect of the simulator (set/tag
/// lookup, LRU order, dirty bits, prefetch detection) is line-granular,
/// simulating each repetition with `buf`'s addresses is exact, and a
/// repetition that hits everywhere without triggering prefetches leaves
/// the cache state at a fixed point, so the rest of the run collapses into
/// a hit-count credit.
pub trait AccessSource: Iterator<Item = (u64, bool)> {
    /// Fill `buf` with the next block of accesses and return how many
    /// consecutive repetitions of its line pattern follow (including the
    /// one in `buf`); 0 when the stream is exhausted.
    fn next_run(&mut self, buf: &mut Vec<(u64, bool)>, line_shift: u32) -> u64;
}

/// An operation reaching the shared level, recorded during the parallel
/// private-level phase of [`MultiCoreHierarchy::simulate_streams`] and
/// replayed in deterministic round-robin order: the byte address shifted
/// left by two, the kind in the low bits.
#[derive(Debug, Clone, Copy)]
struct SharedOp(u64);

impl SharedOp {
    /// Demand read that missed every private level.
    const READ: u64 = 0;
    /// Demand write (write-allocate: marks the shared line dirty).
    const WRITE: u64 = 1;
    /// Stream-prefetch fill.
    const PREFETCH: u64 = 2;
    /// Dirty line written back from the outermost private level.
    const WRITEBACK: u64 = 3;

    fn new(addr: u64, kind: u64) -> Self {
        assert!(addr < 1 << 62, "byte address {addr:#x} too large to log");
        SharedOp(addr << 2 | kind)
    }
}

/// Where a core's shared-level traffic goes: straight to the chip's shared
/// cache (demand accesses, and a stream simulated alone) or into a per-core
/// log of `(stream position, op)` for deterministic replay (streams
/// simulated in parallel).
enum SharedSink<'a> {
    Direct {
        shared: &'a mut Cache,
        memory_accesses: &'a mut u64,
    },
    Record(&'a mut Vec<(u64, SharedOp)>),
}

impl SharedSink<'_> {
    /// Apply `op`, caused by the access at stream position `position`, to
    /// the shared level, or log it; returns whether a demand access hit
    /// there, when known immediately.
    fn send(&mut self, position: u64, op: SharedOp) -> Option<bool> {
        match self {
            SharedSink::Direct {
                shared,
                memory_accesses,
            } => apply_shared(shared, memory_accesses, op),
            SharedSink::Record(ops) => {
                ops.push((position, op));
                None
            }
        }
    }
}

/// One operation on a chip's shared cache; `Some(hit)` for a demand access.
/// Dirty evictions from the shared level are counted as memory write-backs
/// by the cache itself.
fn apply_shared(shared: &mut Cache, memory_accesses: &mut u64, op: SharedOp) -> Option<bool> {
    let addr = op.0 >> 2;
    match op.0 & 3 {
        SharedOp::PREFETCH => {
            let _ = shared.receive_prefetch(addr);
            None
        }
        SharedOp::WRITEBACK => {
            let _ = shared.receive_writeback(addr);
            None
        }
        kind => {
            let (hit, _evicted) = shared.touch(addr, 1, kind == SharedOp::WRITE);
            *memory_accesses += u64::from(!hit);
            Some(hit)
        }
    }
}

/// `n` consecutive accesses of a block to one line, simulated as one: the
/// first access's address and flag, whether any of them writes, and the
/// first one's offset in the block.
#[derive(Debug, Clone, Copy)]
struct Touch {
    addr: u64,
    is_write: bool,
    any_write: bool,
    n: u64,
    offset: u64,
}

/// The private (per-core) half of the hierarchy: the core's cache levels
/// plus its stream-prefetcher state. Cores are fully independent of each
/// other below the shared level, which is what lets
/// [`MultiCoreHierarchy::simulate_streams`] run them in parallel.
#[derive(Debug)]
struct PrivateCore {
    /// Private levels, innermost first.
    levels: Vec<Cache>,
    prefetch_depth: usize,
    /// Last accessed line (stream detection).
    last_line: Option<u64>,
    prefetches: u64,
}

impl PrivateCore {
    /// The demand path of `t`, the touch at stream position `position`:
    /// prefetch detection (when `PREFETCH`, i.e. `prefetch_depth > 0`), the
    /// innermost-level lookup, and on a miss [`miss`](Self::miss). Returns
    /// the hit level (`None` = shared outcome unknown or memory).
    #[inline(always)]
    fn demand<const PREFETCH: bool>(
        &mut self,
        t: &Touch,
        position: u64,
        sink: &mut SharedSink<'_>,
    ) -> Option<usize> {
        if PREFETCH {
            self.detect_stream(t.addr, position, sink);
        }
        match self.levels[0].touch(t.addr, t.n, t.any_write) {
            (true, _) => Some(0),
            (false, victim) => self.miss(0, t.addr, t.is_write, victim, position, sink),
        }
    }

    /// Stream prefetcher: on an ascending line-sequential access, fill the
    /// next `prefetch_depth` lines into the private levels beyond the
    /// innermost one and into the shared level (see
    /// [`prefetch`](Self::prefetch); no demand accounting).
    #[inline]
    fn detect_stream(&mut self, addr: u64, position: u64, sink: &mut SharedSink<'_>) {
        let line_shift = self.levels[0].config().line_size.trailing_zeros();
        let line = addr >> line_shift;
        let streaming = self.last_line == Some(line.wrapping_sub(1));
        self.last_line = Some(line);
        if streaming {
            for d in 1..=self.prefetch_depth as u64 {
                self.prefetch((line + d) << line_shift, position, sink);
            }
        }
    }

    /// Install `addr`'s line into the core's mid/outer levels and the
    /// shared level without touching the demand-access statistics —
    /// hardware stream prefetchers fill L2 and beyond, so a prefetched line
    /// turns a memory-latency demand miss into a cheap L2 hit. Nothing
    /// happens when the line is already in the innermost level.
    fn prefetch(&mut self, addr: u64, position: u64, sink: &mut SharedSink<'_>) {
        if self.levels[0].contains(addr) {
            return;
        }
        self.prefetches += 1;
        for cache in self.levels.iter_mut().skip(1) {
            let _ = cache.receive_prefetch(addr);
        }
        sink.send(position, SharedOp::new(addr, SharedOp::PREFETCH));
    }

    /// The rest of a demand access that missed private level `lvl`, whose
    /// install there evicted `victim`: the next level's lookup (the shared
    /// level past the last private one), then the victim's write-back.
    /// Dirty evictions thus propagate toward memory after the access
    /// resolves, deepest first (inclusive-style write-back forwarding).
    #[inline(never)]
    fn miss(
        &mut self,
        lvl: usize,
        addr: u64,
        is_write: bool,
        victim: Option<u64>,
        position: u64,
        sink: &mut SharedSink<'_>,
    ) -> Option<usize> {
        let next = lvl + 1;
        let hit_level = match self.levels.get_mut(next) {
            Some(cache) => match cache.touch(addr, 1, is_write) {
                (true, _) => Some(next),
                (false, evicted) => self.miss(next, addr, is_write, evicted, position, sink),
            },
            None => {
                let kind = if is_write {
                    SharedOp::WRITE
                } else {
                    SharedOp::READ
                };
                (sink.send(position, SharedOp::new(addr, kind)) == Some(true)).then_some(next)
            }
        };
        if let Some(line_addr) = victim {
            self.write_back(next, line_addr, position, sink);
        }
        hit_level
    }

    /// A dirty line evicted into level `lvl` (the shared level past the
    /// last private one); a cascade may evict further dirty lines.
    fn write_back(
        &mut self,
        mut lvl: usize,
        mut line_addr: u64,
        position: u64,
        sink: &mut SharedSink<'_>,
    ) {
        while let Some(cache) = self.levels.get_mut(lvl) {
            match cache.receive_writeback(line_addr) {
                Some(evicted) => (lvl, line_addr) = (lvl + 1, evicted),
                None => return,
            }
        }
        sink.send(position, SharedOp::new(line_addr, SharedOp::WRITEBACK));
    }
}

/// A simulated multi-core hierarchy. Accesses are issued per core id; a
/// miss in a private level falls through to the next level and ultimately
/// to the chip's shared cache. Misses in the shared cache count as memory
/// accesses.
#[derive(Debug)]
pub struct MultiCoreHierarchy {
    cfg: HierarchyConfig,
    /// Private levels + prefetcher state per core.
    private: Vec<PrivateCore>,
    /// One shared cache per chip.
    shared: Vec<Cache>,
    memory_accesses: u64,
    /// Where the phase timers report (`simulate_nest` reads it too).
    pub(crate) obs: moat_obs::Obs,
}

impl MultiCoreHierarchy {
    /// Build the hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(cfg.cores >= 1 && cfg.cores_per_chip >= 1);
        assert!(!cfg.private_levels.is_empty(), "no private cache level");
        let chips = cfg.cores.div_ceil(cfg.cores_per_chip);
        let private = (0..cfg.cores)
            .map(|_| PrivateCore {
                levels: cfg.private_levels.iter().map(|&c| Cache::new(c)).collect(),
                prefetch_depth: cfg.prefetch_depth,
                last_line: None,
                prefetches: 0,
            })
            .collect();
        let shared = (0..chips).map(|_| Cache::new(cfg.shared_level)).collect();
        MultiCoreHierarchy {
            cfg,
            private,
            shared,
            memory_accesses: 0,
            obs: moat_obs::Obs::default(),
        }
    }

    /// Report the simulation's phase timers (compile, stream, LLC merge)
    /// on `obs`. They are timing-class records: only a wall-mode handle
    /// keeps them, so the hot loop stays untouched otherwise.
    pub fn with_obs(mut self, obs: moat_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Issue a read from `core` to byte address `addr`. Returns the level
    /// index that hit (0 = L1, …, `private_levels.len()` = shared level) or
    /// `None` for a memory access.
    pub fn access(&mut self, core: usize, addr: u64) -> Option<usize> {
        self.issue(core, addr, false)
    }

    /// Issue a write (write-allocate, write-back) from `core`.
    pub fn write(&mut self, core: usize, addr: u64) -> Option<usize> {
        self.issue(core, addr, true)
    }

    fn issue(&mut self, core: usize, addr: u64, is_write: bool) -> Option<usize> {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let chip = core / self.cfg.cores_per_chip;
        let mut sink = SharedSink::Direct {
            shared: &mut self.shared[chip],
            memory_accesses: &mut self.memory_accesses,
        };
        let t = Touch {
            addr,
            is_write,
            any_write: is_write,
            n: 1,
            offset: 0,
        };
        let core = &mut self.private[core];
        if core.prefetch_depth > 0 {
            core.demand::<true>(&t, 0, &mut sink)
        } else {
            core.demand::<false>(&t, 0, &mut sink)
        }
    }

    /// Simulate one access stream per thread (thread `t` on core `t`),
    /// reproducing exactly the deterministic round-robin interleave of
    /// issuing one access per live thread in turn.
    ///
    /// Private levels are fully independent between cores, so each core's
    /// stream is simulated on its own worker thread, with consecutive
    /// same-L1-line accesses coalesced into one cache touch. Only the
    /// operations that reach the shared level (demand misses, prefetch
    /// fills, write-backs) are recorded — tagged with their position in
    /// the stream — and replayed afterwards in
    /// `(position, thread)` order, which is precisely the order the
    /// round-robin interleave issues them in. A single stream has nothing
    /// to interleave with and drives the shared level directly. Returns
    /// the number of accesses simulated.
    pub fn simulate_streams<S>(&mut self, streams: Vec<S>) -> u64
    where
        S: AccessSource + Send,
    {
        assert!(
            streams.len() <= self.cfg.cores,
            "{} streams exceed {} cores",
            streams.len(),
            self.cfg.cores
        );
        // Per stream: accesses issued and the shared-level log.
        let mut results: Vec<(u64, Vec<(u64, SharedOp)>)> = Vec::new();
        // Wall-mode-only phase timers: the private-level streaming phase
        // and the shared-level (LLC) merge replay are the two halves of
        // the evaluation hot path worth attributing separately.
        let stream_span = self.obs.span_start();
        match <[S; 1]>::try_from(streams) {
            Ok([stream]) => {
                let mut sink = SharedSink::Direct {
                    shared: &mut self.shared[0],
                    memory_accesses: &mut self.memory_accesses,
                };
                let issued = run_core(&mut self.private[0], stream, &mut sink);
                results.push((issued, Vec::new()));
            }
            Err(streams) => {
                results.resize_with(streams.len(), Default::default);
                std::thread::scope(|s| {
                    for ((core, stream), (issued, ops)) in
                        self.private.iter_mut().zip(streams).zip(results.iter_mut())
                    {
                        s.spawn(move || {
                            *issued = run_core(core, stream, &mut SharedSink::Record(ops));
                        });
                    }
                });
            }
        }

        self.obs.emit_span(stream_span, || moat_obs::Event::Phase {
            name: "cachesim.stream".into(),
        });
        let merge_span = self.obs.span_start();

        // Deterministic shared-level replay: a k-way merge over the
        // per-core logs by (stream position, core id). Each log is already
        // in position order, so the several events of one access keep
        // their order.
        let mut heads: Vec<_> = results
            .iter()
            .map(|(_, ops)| ops.iter().peekable())
            .collect();
        loop {
            let next = heads
                .iter_mut()
                .enumerate()
                .filter_map(|(tid, ops)| Some((ops.peek()?.0, tid)))
                .min();
            let Some((_, tid)) = next else {
                break;
            };
            let &(_, op) = heads[tid].next().expect("peeked above");
            let chip = tid / self.cfg.cores_per_chip;
            apply_shared(&mut self.shared[chip], &mut self.memory_accesses, op);
        }
        self.obs.emit_span(merge_span, || moat_obs::Event::Phase {
            name: "cachesim.llc_merge".into(),
        });
        results.iter().map(|(issued, _)| issued).sum()
    }

    /// Prefetched lines so far.
    pub fn prefetches(&self) -> u64 {
        self.private.iter().map(|c| c.prefetches).sum()
    }

    /// Dirty lines written back from the shared level to memory.
    pub fn memory_writebacks(&self) -> u64 {
        self.shared.iter().map(|c| c.writebacks()).sum()
    }

    /// Number of cache levels (private + shared).
    pub fn levels(&self) -> usize {
        self.cfg.private_levels.len() + 1
    }

    /// Aggregate statistics of level `lvl` across all cores/chips.
    pub fn level_stats(&self, lvl: usize) -> LevelStats {
        let mut stats = LevelStats::default();
        if lvl < self.cfg.private_levels.len() {
            for core in &self.private {
                stats.accesses += core.levels[lvl].accesses();
                stats.misses += core.levels[lvl].misses();
            }
        } else {
            assert_eq!(
                lvl,
                self.cfg.private_levels.len(),
                "level {lvl} out of range"
            );
            for c in &self.shared {
                stats.accesses += c.accesses();
                stats.misses += c.misses();
            }
        }
        stats
    }

    /// Total accesses that reached main memory.
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Bytes transferred to and from memory (fills + write-backs, × line
    /// size of the shared level).
    pub fn memory_traffic_bytes(&self) -> u64 {
        (self.memory_accesses + self.memory_writebacks()) * self.cfg.shared_level.line_size
    }

    /// Flush all caches and counters.
    pub fn flush(&mut self) {
        for core in &mut self.private {
            for c in &mut core.levels {
                c.flush();
            }
        }
        for c in &mut self.shared {
            c.flush();
        }
        self.memory_accesses = 0;
    }
}

/// Coalesce `block` into `touches`: each run of consecutive same-line
/// accesses becomes one [`Touch`]. Its repeats are guaranteed MRU hits in
/// the innermost level (they reach neither the outer levels nor the shared
/// level), don't change the prefetcher's streaming decision (`line ==
/// last_line` is never line-sequential), and their only architectural
/// effect is the hit count and possibly dirtying the line. Splitting a
/// longer same-line run at a block boundary is equally exact: the second
/// touch is a hit on the already-MRU line and triggers nothing.
fn coalesce(block: &[(u64, bool)], line_shift: u32, touches: &mut Vec<Touch>) {
    touches.clear();
    for (i, &(addr, is_write)) in block.iter().enumerate() {
        match touches.last_mut() {
            Some(t) if t.addr >> line_shift == addr >> line_shift => {
                t.any_write |= is_write;
                t.n += 1;
            }
            _ => touches.push(Touch {
                addr,
                is_write,
                any_write: is_write,
                n: 1,
                offset: i as u64,
            }),
        }
    }
}

/// Simulate one core's stream against its private levels, sending
/// shared-level traffic to `sink` tagged with the stream position of the
/// access that caused it. Returns the number of accesses issued.
fn run_core<S: AccessSource>(core: &mut PrivateCore, stream: S, sink: &mut SharedSink<'_>) -> u64 {
    if core.prefetch_depth > 0 {
        walk_runs::<true, S>(core, stream, sink)
    } else {
        walk_runs::<false, S>(core, stream, sink)
    }
}

/// [`run_core`] with the prefetcher on or off at compile time.
///
/// The stream is consumed in [`AccessSource`] runs: `reps` repetitions of
/// an identical line pattern, whose block is coalesced once per run.
/// Repetitions are simulated one block at a time until a block is *quiet*
/// — every access hits the innermost level and no prefetch is installed,
/// hence nothing reaches the shared level either (demand traffic and
/// write-backs start from an innermost-level miss). A quiet block leaves
/// the private state at a fixed point: re-applying the same all-hit touch
/// sequence reproduces the same LRU arrangement, dirty bits are already
/// accumulated, and contained prefetch probes stay contained (hits never
/// change cache contents). The remaining repetitions are therefore
/// credited as bulk innermost-level hits — unless the pattern wraps
/// line-sequentially (last line + 1 == first line), where each repetition
/// boundary would re-trigger the stream prefetcher.
fn walk_runs<const PREFETCH: bool, S: AccessSource>(
    core: &mut PrivateCore,
    mut stream: S,
    sink: &mut SharedSink<'_>,
) -> u64 {
    let line_shift = core.levels[0].config().line_size.trailing_zeros();
    let mut issued: u64 = 0;
    let mut buf: Vec<(u64, bool)> = Vec::new();
    let mut touches: Vec<Touch> = Vec::new();
    loop {
        let reps = stream.next_run(&mut buf, line_shift);
        if reps == 0 {
            break;
        }
        if buf.is_empty() {
            continue;
        }
        coalesce(&buf, line_shift, &mut touches);
        let first_line = buf[0].0 >> line_shift;
        let last_line = buf[buf.len() - 1].0 >> line_shift;
        let wraps_sequential = PREFETCH && first_line == last_line.wrapping_add(1);
        let mut rep = 0u64;
        while rep < reps {
            let misses_before = core.levels[0].misses();
            let prefetches_before = core.prefetches;
            for t in &touches {
                core.demand::<PREFETCH>(t, issued + t.offset, sink);
            }
            issued += buf.len() as u64;
            rep += 1;
            let quiet =
                core.levels[0].misses() == misses_before && core.prefetches == prefetches_before;
            if quiet && !wraps_sequential && rep < reps {
                let credited = (reps - rep) * buf.len() as u64;
                core.levels[0].credit_steady_hits(credited);
                issued += credited;
                break;
            }
        }
    }
    issued
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MultiCoreHierarchy {
        MultiCoreHierarchy::new(HierarchyConfig {
            private_levels: vec![CacheConfig::new(256, 2, 64), CacheConfig::new(1024, 4, 64)],
            shared_level: CacheConfig::new(4096, 4, 64),
            cores_per_chip: 2,
            cores: 4,
            prefetch_depth: 0,
        })
    }

    #[test]
    fn miss_falls_through_levels() {
        let mut h = small();
        assert_eq!(h.access(0, 0), None); // cold: memory
        assert_eq!(h.access(0, 0), Some(0)); // L1 hit
        assert_eq!(h.memory_accesses(), 1);
        assert_eq!(h.memory_traffic_bytes(), 64);
    }

    #[test]
    fn shared_cache_serves_chip_neighbour() {
        let mut h = small();
        // Core 0 loads a line; core 1 (same chip) must find it in L3.
        h.access(0, 4096);
        assert_eq!(
            h.access(1, 4096),
            Some(2),
            "same-chip core hits shared level"
        );
        // Core 2 is on the other chip: full miss.
        assert_eq!(h.access(2, 4096), None);
        assert_eq!(h.memory_accesses(), 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = small();
        // L1: 256 B = 4 lines, 2 sets × 2 ways. Touch 5 lines mapping so
        // the first is evicted from L1 but retained in L2 (16 lines).
        for line in 0..5u64 {
            h.access(0, line * 64);
        }
        // Line 0 was evicted from L1 set 0 (lines 0,2,4 map there) but is
        // still in L2.
        let lvl = h.access(0, 0);
        assert_eq!(lvl, Some(1), "expected L2 hit, got {lvl:?}");
    }

    #[test]
    fn level_stats_aggregate() {
        let mut h = small();
        for core in 0..4 {
            for line in 0..8u64 {
                h.access(core, line * 64);
            }
        }
        let l1 = h.level_stats(0);
        assert_eq!(l1.accesses, 32);
        let shared = h.level_stats(2);
        assert!(shared.accesses > 0);
        assert!(l1.miss_ratio() > 0.0);
    }

    #[test]
    fn flush_clears_everything() {
        let mut h = small();
        h.access(0, 0);
        h.flush();
        assert_eq!(h.memory_accesses(), 0);
        assert_eq!(h.level_stats(0).accesses, 0);
        assert_eq!(h.access(0, 0), None);
    }

    #[test]
    fn prefetcher_hides_sequential_stream() {
        let mk = |depth: usize| {
            MultiCoreHierarchy::new(HierarchyConfig {
                private_levels: vec![CacheConfig::new(256, 2, 64), CacheConfig::new(1024, 4, 64)],
                shared_level: CacheConfig::new(4096, 4, 64),
                cores_per_chip: 2,
                cores: 4,
                prefetch_depth: depth,
            })
        };
        // Sequential stream over 64 lines, element-granular (8 B steps).
        let run = |h: &mut MultiCoreHierarchy| {
            for e in 0..(64 * 8) {
                h.access(0, e * 8);
            }
            h.memory_accesses()
        };
        let mut plain = mk(0);
        let mut pf = mk(2);
        let mem_plain = run(&mut plain);
        let mem_pf = run(&mut pf);
        assert_eq!(
            mem_plain, 64,
            "every line is a cold memory miss without prefetch"
        );
        assert!(
            mem_pf <= 4,
            "prefetcher must hide almost all demand memory misses: {mem_pf}"
        );
        assert!(pf.prefetches() > 0);
        assert_eq!(plain.prefetches(), 0);
    }

    #[test]
    fn prefetcher_useless_for_strided_stream() {
        let mk = |depth: usize| {
            MultiCoreHierarchy::new(HierarchyConfig {
                private_levels: vec![CacheConfig::new(256, 2, 64)],
                shared_level: CacheConfig::new(4096, 4, 64),
                cores_per_chip: 2,
                cores: 2,
                prefetch_depth: depth,
            })
        };
        // Column-style stride of 16 lines: never line-sequential.
        let mut h = mk(2);
        for e in 0..64u64 {
            h.access(0, e * 16 * 64);
        }
        assert_eq!(h.prefetches(), 0, "no stream detected on strided access");
        assert_eq!(h.level_stats(0).misses, 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let mut h = small();
        h.access(99, 0);
    }
}
