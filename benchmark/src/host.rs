//! The host under the benchmark. The VM this was written on shares its two
//! CPUs with other guests: for 20 to 70 s at a time the hypervisor withholds
//! 10–30 % of the CPU time the guest asks for (`steal` in `/proc/stat`), and
//! the shared disk slows down with it. Over 38 consecutive runs of
//! `serve-cold` the runs inside such a storm completed 21–34 jobs/s against
//! 40–57 outside, and the storms took a quarter of the nine minutes. No
//! statistic of a 10 s run removes a storm that covers it, so a run that
//! was stolen from is measured again, within a budget.
//!
//! Probing before the run does not work: an idle guest is never stolen
//! from, and a short burst after a sleep gets the CPUs at once (0.4 s
//! probes read 0 % ahead of runs that lost 25 %). Only the run's own load
//! shows what the run got.
//!
//! Second, the cores change speed with nothing stolen; `SpeedProbe` below
//! measures that beside the ops of `runtime-invoke`.

use crate::common::Ctx;
use std::path::PathBuf;

/// A run that lost more than this share of the CPU time it asked for is
/// repeated. Quiet runs read 0–2 %; up to 5 % a run is not measurably
/// slower; storms read 10–37 %.
const QUIET_STEAL_SHARE: f64 = 0.06;
/// One run is repeated at most this often; it then reports what it got.
/// (Of 40 runs of `serve-cold` 8 were repeated, none more than 3 times.)
const MAX_RETRIES: u32 = 3;
/// All runs in one checkout together spend at most this long on attempts
/// they discard, kept in `out/steal-retry-s`: the driver's 136 runs have
/// 3420 s in all and need about 1900 s when nothing is repeated.
const CHECKOUT_RETRY_BUDGET_S: f64 = 500.0;

/// CPU ticks since boot, from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    /// What the guest asked for: user, nice, system, irq, softirq, steal.
    asked: f64,
    /// What the hypervisor withheld of that.
    stolen: f64,
}

impl CpuTicks {
    /// `None` where the kernel does not say.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<f64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map_while(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal
        let &[user, nice, system, _, _, irq, softirq, stolen, ..] = fields.as_slice() else {
            return None;
        };
        Some(CpuTicks {
            asked: user + nice + system + irq + softirq + stolen,
            stolen,
        })
    }

    /// The share of the CPU time asked for since `self` that was withheld.
    pub fn steal_share_since(&self) -> Option<f64> {
        let now = CpuTicks::now()?;
        let asked = now.asked - self.asked;
        (asked > 0.0).then(|| (now.stolen - self.stolen) / asked)
    }
}

/// How much repeating this run and this checkout can still afford.
#[derive(Debug)]
pub struct RetryBudget {
    ledger: PathBuf,
    retries: u32,
}

impl RetryBudget {
    pub fn new(ctx: &Ctx) -> RetryBudget {
        RetryBudget {
            ledger: ctx.out_dir.join("steal-retry-s"),
            retries: 0,
        }
    }

    /// Whether an attempt that took `cost_s` and lost `steal_share` of its
    /// CPU time is discarded and repeated; if so its cost is booked.
    pub fn repeat(&mut self, steal_share: f64, cost_s: f64) -> bool {
        if steal_share <= QUIET_STEAL_SHARE || self.retries >= MAX_RETRIES {
            return false;
        }
        let spent: f64 = std::fs::read_to_string(&self.ledger)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0.0);
        if spent + cost_s > CHECKOUT_RETRY_BUDGET_S {
            return false;
        }
        // A ledger that cannot be written would let every run repeat.
        let booked = self
            .ledger
            .parent()
            .is_some_and(|dir| std::fs::create_dir_all(dir).is_ok())
            && std::fs::write(&self.ledger, format!("{:.1}\n", spent + cost_s)).is_ok();
        self.retries += u32::from(booked);
        booked
    }
}

/// The speed of the host while a workload runs. Apart from stealing, this
/// VM's cores change speed by themselves: within one 10 s run the same eight
/// kernel invocations of `runtime-invoke` take 6.5 ms for a few tenths of a
/// second, then 10 ms, then 8.3 ms, with no steal reported (neighbours on
/// the sibling hyperthreads, most likely), and the share of each regime
/// differs from run to run: the plain median spread 10–27 % over sets of ten
/// runs. The probe is a fixed piece of arithmetic of the benchmark's own —
/// no code of the program under test — run on two threads at once, as the
/// kernels are, after every op. Its time tracks the regime (0.15 to 0.28 ms
/// where the ops read 6.1 to 10.1 ms), so an op's time divided by the
/// probe's time nearby is a property of the program, and spread 2–7 %.
pub struct SpeedProbe([ProbeData; 2]);

/// What one probe takes on the VM this was written on (median over 28
/// runs): a time at nominal speed reads like a wall-clock time there.
pub const PROBE_NOMINAL_MS: f64 = 0.23;
const PROBE_N: usize = 64;
/// Consecutive ops that share one estimate of the host's speed, the median
/// of their probes: one probe alone can be preempted.
const PROBE_WINDOW: usize = 16;

struct ProbeData {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl ProbeData {
    fn new() -> ProbeData {
        let fill = |m: usize| (0..PROBE_N * PROBE_N).map(move |i| (i % m) as f64 * 0.25);
        ProbeData {
            a: fill(17).collect(),
            b: fill(13).collect(),
            c: vec![0.0; PROBE_N * PROBE_N],
        }
    }

    /// A 64 × 64 matrix product by dot products (scalar: the sum is a chain),
    /// 96 KB of data; returns the ms it took.
    fn run(&mut self) -> f64 {
        let n = PROBE_N;
        let start = std::time::Instant::now();
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    sum += self.a[i * n + k] * self.b[k * n + j];
                }
                self.c[i * n + j] = sum;
            }
        }
        std::hint::black_box(&self.c);
        crate::common::ms(start.elapsed())
    }
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        SpeedProbe([ProbeData::new(), ProbeData::new()])
    }

    /// Run the probe on this thread and on a second one at once; the ms the
    /// slower of the two took, as a two-thread kernel waits for its slower
    /// half.
    pub fn sample(&mut self) -> f64 {
        let [mine, theirs] = &mut self.0;
        std::thread::scope(|scope| {
            let other = scope.spawn(|| theirs.run());
            let me = mine.run();
            me.max(other.join().expect("the probe cannot panic"))
        })
    }
}

/// `op_ms` at nominal host speed: the ops in time order, `probe_ms[i]`
/// sampled right after op `i`.
pub fn at_nominal_speed(op_ms: &[f64], probe_ms: &[f64]) -> Vec<f64> {
    op_ms
        .chunks(PROBE_WINDOW)
        .zip(probe_ms.chunks(PROBE_WINDOW))
        .flat_map(|(ops, probes)| {
            let factor = PROBE_NOMINAL_MS / crate::common::median(probes).max(1e-6);
            ops.iter().map(move |ms| ms * factor)
        })
        .collect()
}
