//! Machine descriptions: topology, cache hierarchy, timing parameters.
//!
//! The two presets [`MachineDesc::westmere`] and [`MachineDesc::barcelona`]
//! reproduce Table I of the paper; arbitrary machines can be described with
//! [`MachineDesc`] directly.

use serde::{Deserialize, Serialize};

/// Sharing scope of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheScope {
    /// Private to each core.
    Private,
    /// Shared among the cores of one chip (socket).
    Chip,
}

/// One cache level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheLevelDesc {
    /// Capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity (informational; the analytic model is fully
    /// associative, the trace simulator uses it).
    pub assoc: u32,
    /// Penalty in core cycles for a miss at the *previous* level that hits
    /// here (i.e. this level's load-to-use latency).
    pub latency_cycles: f64,
    /// Private or chip-shared.
    pub scope: CacheScope,
}

/// A shared-memory parallel machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineDesc {
    /// Display name (e.g. `"Westmere"`).
    pub name: String,
    /// Number of chips (sockets).
    pub sockets: usize,
    /// Physical cores per chip.
    pub cores_per_socket: usize,
    /// Cache hierarchy, innermost (L1d) first.
    pub levels: Vec<CacheLevelDesc>,
    /// Main-memory load latency in core cycles.
    pub mem_latency_cycles: f64,
    /// Sustained memory bandwidth per chip, bytes per core cycle.
    pub chip_bandwidth_bytes_per_cycle: f64,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Sustained floating-point operations per cycle per core for scalar
    /// compiled loop code (not the SIMD peak).
    pub flops_per_cycle: f64,
    /// Fraction of a miss's latency that is *not* hidden by out-of-order
    /// execution and hardware prefetching, per level (same order as
    /// `levels`, plus one entry for memory). In `[0, 1]`.
    pub stall_exposure: Vec<f64>,
    /// Extra latency-hiding for *contiguous* streams, per miss level (same
    /// order as `levels`): hardware prefetchers track sequential line
    /// accesses, so a stride-1 stream exposes only this fraction of the
    /// (already exposure-scaled) miss latency. Near-cache prefetch is
    /// near-perfect on both machines; memory-side prefetch is strong on
    /// Westmere and weak on Barcelona (2007-era prefetchers).
    pub stream_exposure: Vec<f64>,
    /// Per-core transfer bandwidth from each level's backing store (same
    /// order as `levels`: L2→L1, L3→L2, memory→L3), bytes per cycle. Every
    /// miss costs at least `line / bandwidth` cycles even when prefetching
    /// hides the latency — streams are bandwidth-bound, not free.
    pub level_bandwidth_bytes_per_cycle: Vec<f64>,
    /// Fixed cycles to set up a parallel region.
    pub fork_join_overhead_cycles: f64,
    /// Additional fork/join cycles per participating thread.
    pub per_thread_overhead_cycles: f64,
    /// Shared-resource contention: running `T` of the machine's `C` cores
    /// multiplies per-thread time by
    /// `1 + contention_coeff * ((T-1)/(C-1))^contention_exponent`,
    /// an aggregate of uncore, coherence/snoop and memory-controller
    /// queueing effects (calibrated against the paper's Table III
    /// efficiency curves).
    pub contention_coeff: f64,
    /// Exponent of the contention law (superlinear: contention grows
    /// faster once several chips are involved).
    pub contention_exponent: f64,
    /// Thread counts the paper evaluates on this machine.
    pub thread_counts: Vec<usize>,
    /// Power/energy parameters (for the optional energy objective).
    pub energy: EnergyDesc,
}

/// First-order power model of a shared-memory machine: active cores draw
/// `core_active_watts` each, idle cores `core_idle_watts`, every powered
/// chip adds `uncore_watts` (L3, memory controller, interconnect), and each
/// byte moved from DRAM costs `dram_nj_per_byte` nanojoules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyDesc {
    /// Watts per active core.
    pub core_active_watts: f64,
    /// Watts per idle (but powered) core.
    pub core_idle_watts: f64,
    /// Watts per chip for the uncore (shared cache, memory controller).
    pub uncore_watts: f64,
    /// DRAM access energy in nanojoules per byte.
    pub dram_nj_per_byte: f64,
}

impl MachineDesc {
    /// Total physical cores.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Threads placed on each chip when running `threads` total, under the
    /// paper's placement policy: fill a chip completely before involving the
    /// next one. Yields one count per chip.
    fn chip_loads(&self, threads: usize) -> impl Iterator<Item = usize> + '_ {
        let threads = threads.min(self.total_cores());
        (0..self.sockets).map(move |chip| {
            threads
                .saturating_sub(chip * self.cores_per_socket)
                .min(self.cores_per_socket)
        })
    }

    /// [`chip_loads`](Self::chip_loads) as a vector of per-chip counts
    /// (length = sockets).
    pub fn placement(&self, threads: usize) -> Vec<usize> {
        self.chip_loads(threads).collect()
    }

    /// Number of chips hosting at least one thread.
    pub fn chips_used(&self, threads: usize) -> usize {
        self.chip_loads(threads).filter(|&c| c > 0).count()
    }

    /// Largest number of threads sharing one chip for a team of `threads`.
    pub fn max_threads_per_chip(&self, threads: usize) -> usize {
        self.chip_loads(threads).max().unwrap_or(1).max(1)
    }

    /// Effective capacity of cache level `lvl` available to one thread of a
    /// team of `threads`: private levels retain their full size, chip-shared
    /// levels are divided among the threads co-located on the most loaded
    /// chip (the capacity-sharing premise of paper §II).
    pub fn effective_capacity(&self, lvl: usize, threads: usize) -> u64 {
        let l = &self.levels[lvl];
        match l.scope {
            CacheScope::Private => l.size,
            CacheScope::Chip => l.size / self.max_threads_per_chip(threads) as u64,
        }
    }

    /// Miss penalty (exposed stall cycles) for a miss at level `lvl`
    /// (0-based): latency of the next level (or memory for the last level)
    /// scaled by the corresponding stall-exposure factor.
    pub fn miss_penalty_cycles(&self, lvl: usize) -> f64 {
        let raw = if lvl + 1 < self.levels.len() {
            self.levels[lvl + 1].latency_cycles
        } else {
            self.mem_latency_cycles
        };
        let exposure = self
            .stall_exposure
            .get(lvl + 1)
            .copied()
            .unwrap_or_else(|| *self.stall_exposure.last().expect("stall_exposure empty"));
        raw * exposure
    }

    /// Seconds per core cycle.
    pub fn seconds_per_cycle(&self) -> f64 {
        1e-9 / self.freq_ghz
    }

    /// Exposed miss-latency cycles per line fetched into level `lvl`, for a
    /// stream of the given contiguity (prefetchable streams expose only
    /// `stream_exposure` of the latency).
    pub fn line_latency_cycles(&self, lvl: usize, contiguous: bool) -> f64 {
        let stream = if contiguous {
            self.stream_exposure
                .get(lvl)
                .copied()
                .unwrap_or_else(|| *self.stream_exposure.last().expect("stream_exposure empty"))
        } else {
            1.0
        };
        self.miss_penalty_cycles(lvl) * stream
    }

    /// Transfer cycles per line fetched into level `lvl` (per-core
    /// bandwidth): a throughput bound that overlaps with computation.
    pub fn line_transfer_cycles(&self, lvl: usize) -> f64 {
        let bw = self
            .level_bandwidth_bytes_per_cycle
            .get(lvl)
            .copied()
            .unwrap_or(f64::INFINITY);
        self.levels[lvl].line as f64 / bw
    }

    /// Multiplicative shared-resource contention factor for a team of
    /// `threads` (1.0 for a single thread).
    pub fn contention_factor(&self, threads: usize) -> f64 {
        let c = self.total_cores();
        if threads <= 1 || c <= 1 {
            return 1.0;
        }
        let x = (threads.min(c) - 1) as f64 / (c - 1) as f64;
        1.0 + self.contention_coeff * x.powf(self.contention_exponent)
    }

    /// The Intel Westmere-EX system of Table I: 4 sockets × 10 cores
    /// (Xeon E7-4870), 32K/32K L1, 256K L2, 30M shared L3.
    pub fn westmere() -> Self {
        MachineDesc {
            name: "Westmere".into(),
            sockets: 4,
            cores_per_socket: 10,
            levels: vec![
                CacheLevelDesc {
                    size: 32 * 1024,
                    line: 64,
                    assoc: 8,
                    latency_cycles: 4.0,
                    scope: CacheScope::Private,
                },
                CacheLevelDesc {
                    size: 256 * 1024,
                    line: 64,
                    assoc: 8,
                    latency_cycles: 10.0,
                    scope: CacheScope::Private,
                },
                CacheLevelDesc {
                    size: 30 * 1024 * 1024,
                    line: 64,
                    assoc: 24,
                    latency_cycles: 45.0,
                    scope: CacheScope::Chip,
                },
            ],
            mem_latency_cycles: 220.0,
            chip_bandwidth_bytes_per_cycle: 10.0,
            freq_ghz: 2.4,
            flops_per_cycle: 1.0,
            // L1 hits are free; deeper misses are increasingly well
            // prefetched for the streaming access patterns of the kernels.
            stall_exposure: vec![1.0, 0.55, 0.45, 0.35],
            stream_exposure: vec![0.15, 0.2, 0.25],
            level_bandwidth_bytes_per_cycle: vec![32.0, 16.0, 5.0],
            fork_join_overhead_cycles: 12_000.0,
            per_thread_overhead_cycles: 600.0,
            contention_coeff: 0.55,
            contention_exponent: 1.5,
            thread_counts: vec![1, 5, 10, 20, 40],
            // Xeon E7-4870: 130 W TDP per 10-core chip.
            energy: EnergyDesc {
                core_active_watts: 9.0,
                core_idle_watts: 2.0,
                uncore_watts: 30.0,
                dram_nj_per_byte: 0.6,
            },
        }
    }

    /// The AMD Barcelona system of Table I: 8 sockets × 4 cores
    /// (Opteron 8356), 64K/64K L1, 512K L2, 2M shared L3.
    pub fn barcelona() -> Self {
        MachineDesc {
            name: "Barcelona".into(),
            sockets: 8,
            cores_per_socket: 4,
            levels: vec![
                CacheLevelDesc {
                    size: 64 * 1024,
                    line: 64,
                    assoc: 2,
                    latency_cycles: 3.0,
                    scope: CacheScope::Private,
                },
                CacheLevelDesc {
                    size: 512 * 1024,
                    line: 64,
                    assoc: 16,
                    latency_cycles: 12.0,
                    scope: CacheScope::Private,
                },
                CacheLevelDesc {
                    size: 2 * 1024 * 1024,
                    line: 64,
                    assoc: 32,
                    latency_cycles: 40.0,
                    scope: CacheScope::Chip,
                },
            ],
            mem_latency_cycles: 250.0,
            chip_bandwidth_bytes_per_cycle: 5.5,
            freq_ghz: 2.3,
            flops_per_cycle: 0.9,
            stall_exposure: vec![1.0, 0.6, 0.5, 0.4],
            stream_exposure: vec![0.15, 0.25, 0.6],
            level_bandwidth_bytes_per_cycle: vec![16.0, 8.0, 2.5],
            fork_join_overhead_cycles: 15_000.0,
            per_thread_overhead_cycles: 800.0,
            contention_coeff: 1.3,
            contention_exponent: 1.5,
            thread_counts: vec![1, 2, 4, 8, 16, 32],
            // Opteron 8356: 95 W TDP per 4-core chip.
            energy: EnergyDesc {
                core_active_watts: 16.0,
                core_idle_watts: 4.0,
                uncore_watts: 25.0,
                dram_nj_per_byte: 0.8,
            },
        }
    }

    /// Both paper machines.
    pub fn paper_machines() -> Vec<MachineDesc> {
        vec![MachineDesc::westmere(), MachineDesc::barcelona()]
    }

    /// The paper machine called `name` in lower case (`westmere`,
    /// `barcelona`) — the vocabulary of `moat-tune --machine` and of a
    /// `moat-serve` job spec.
    pub fn named(name: &str) -> Result<MachineDesc, String> {
        let mut machines = MachineDesc::paper_machines();
        let lower = |m: &MachineDesc| m.name.to_ascii_lowercase();
        match machines.iter().position(|m| lower(m) == name) {
            Some(i) => Ok(machines.swap_remove(i)),
            None => {
                let known: Vec<_> = machines.iter().map(lower).collect();
                Err(format!(
                    "unknown machine '{name}' (known: {})",
                    known.join(", ")
                ))
            }
        }
    }

    /// Convenience constructor for a symmetric machine with a conventional
    /// three-level hierarchy (private L1/L2, chip-shared L3) and default
    /// timing/power parameters scaled from the Westmere preset. Intended
    /// for what-if studies on custom targets.
    pub fn symmetric(
        name: impl Into<String>,
        sockets: usize,
        cores_per_socket: usize,
        l1_kib: u64,
        l2_kib: u64,
        l3_mib: u64,
        freq_ghz: f64,
    ) -> Self {
        let mut m = MachineDesc::westmere();
        m.name = name.into();
        m.sockets = sockets;
        m.cores_per_socket = cores_per_socket;
        m.levels[0].size = l1_kib * 1024;
        m.levels[1].size = l2_kib * 1024;
        m.levels[2].size = l3_mib * 1024 * 1024;
        m.freq_ghz = freq_ghz;
        // Evaluate powers of two up to the core count, plus the full
        // machine.
        let total = sockets * cores_per_socket;
        let mut counts = vec![1usize];
        while counts.last().unwrap() * 2 <= total {
            counts.push(counts.last().unwrap() * 2);
        }
        if *counts.last().unwrap() != total {
            counts.push(total);
        }
        m.thread_counts = counts;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let w = MachineDesc::westmere();
        assert_eq!(w.total_cores(), 40);
        assert_eq!(w.levels[0].size, 32 * 1024);
        assert_eq!(w.levels[2].size, 30 * 1024 * 1024);
        let b = MachineDesc::barcelona();
        assert_eq!(b.total_cores(), 32);
        assert_eq!(b.levels[2].size, 2 * 1024 * 1024);
        assert_eq!(b.thread_counts, vec![1, 2, 4, 8, 16, 32]);
    }

    #[test]
    fn placement_fills_chips_first() {
        let w = MachineDesc::westmere();
        assert_eq!(w.placement(1), vec![1, 0, 0, 0]);
        assert_eq!(w.placement(10), vec![10, 0, 0, 0]);
        assert_eq!(w.placement(15), vec![10, 5, 0, 0]);
        assert_eq!(w.placement(40), vec![10, 10, 10, 10]);
        // Oversubscription clamps to physical cores.
        assert_eq!(w.placement(100), vec![10, 10, 10, 10]);
        assert_eq!(w.chips_used(15), 2);
        assert_eq!(w.max_threads_per_chip(15), 10);
    }

    #[test]
    fn shared_cache_capacity_shrinks_with_threads() {
        let w = MachineDesc::westmere();
        let l3 = 2;
        assert_eq!(w.effective_capacity(l3, 1), 30 * 1024 * 1024);
        assert_eq!(w.effective_capacity(l3, 5), 6 * 1024 * 1024);
        assert_eq!(w.effective_capacity(l3, 10), 3 * 1024 * 1024);
        // Beyond one chip the per-thread share stays at the full-chip value.
        assert_eq!(w.effective_capacity(l3, 20), 3 * 1024 * 1024);
        // Private levels keep their size.
        assert_eq!(w.effective_capacity(0, 40), 32 * 1024);
    }

    #[test]
    fn miss_penalties_increase_with_depth() {
        let w = MachineDesc::westmere();
        let p: Vec<f64> = (0..3).map(|l| w.miss_penalty_cycles(l)).collect();
        assert!(p[0] < p[1] && p[1] < p[2], "penalties must increase: {p:?}");
    }

    #[test]
    fn symmetric_builder() {
        let m = MachineDesc::symmetric("Custom", 2, 12, 48, 1024, 24, 3.0);
        assert_eq!(m.total_cores(), 24);
        assert_eq!(m.levels[0].size, 48 * 1024);
        assert_eq!(m.levels[2].size, 24 * 1024 * 1024);
        assert_eq!(m.thread_counts, vec![1, 2, 4, 8, 16, 24]);
        assert_eq!(m.freq_ghz, 3.0);
        // Inherits sane defaults.
        assert!(m.contention_coeff > 0.0);
        assert!(m.energy.core_active_watts > 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let w = MachineDesc::westmere();
        let json = serde_json::to_string(&w).unwrap();
        let back: MachineDesc = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }
}
