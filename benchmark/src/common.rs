//! Pieces every workload shares: the seeded generator, percentiles, the
//! per-run result, scratch directories that remove themselves, and the
//! repeated set-up timer.

use moat::core::{dominates, Config, Evaluator, ObjVec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// splitmix64 finalizer — the only source of randomness in the benchmark,
/// so the same `--seed` always generates the same inputs.
pub fn splitmix(h: u64) -> u64 {
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value derived from the workload seed and two coordinates (round,
/// class, …). Tuner seeds stay below 2^31 so they print the same everywhere.
pub fn derive(seed: u64, a: u64, b: u64) -> u64 {
    splitmix(splitmix(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407)) ^ b) >> 33
}

/// Linear-interpolated percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f` over `iters` calls and return ns per call. The result of every
/// call goes through `black_box` so the work cannot be optimised away.
pub fn ns_per_call<T>(iters: u64, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// `ns_per_call` with `f` applied to each item once, in order.
pub fn ns_per_item<I, T>(items: &[I], mut f: impl FnMut(&I) -> T) -> f64 {
    let mut next = items.iter();
    ns_per_call(items.len() as u64, || {
        f(next.next().expect("one call per item"))
    })
}

/// Times every call that reaches the real evaluator.
pub struct TimedEval<'a> {
    inner: &'a dyn Evaluator,
    ns: AtomicU64,
    calls: AtomicU64,
}

impl<'a> TimedEval<'a> {
    pub fn new(inner: &'a dyn Evaluator) -> TimedEval<'a> {
        TimedEval {
            inner,
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// `(calls, total ns)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

impl Evaluator for TimedEval<'_> {
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        let start = Instant::now();
        let out = self.inner.evaluate(cfg);
        // Relaxed: two statistics read only after the session has joined
        // its evaluation threads.
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// The indices of two objective vectors of which one dominates the other,
/// if the set is not mutually non-dominated.
pub fn dominated_pair(objectives: &[&[f64]]) -> Option<(usize, usize)> {
    objectives.iter().enumerate().find_map(|(i, a)| {
        let j = objectives[i + 1..]
            .iter()
            .position(|b| dominates(a, b) || dominates(b, a))?;
        Some((i, i + 1 + j))
    })
}

/// One reported number with the count of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub n: u64,
}

/// Metric name → value. Names are checked against `BENCHMARK.json` when the
/// run is printed, so a typo fails loudly instead of reporting 0.
#[derive(Debug, Default, Clone)]
pub struct Values(pub BTreeMap<String, Sample>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64, n: u64) {
        self.0.insert(name.to_string(), Sample { value, n });
    }

    /// Median of `samples` (nothing is recorded for an empty set: the layer
    /// was idle and reads 0).
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if !samples.is_empty() {
            self.set(name, median(samples), samples.len() as u64);
        }
    }
}

/// Samples per metric name, collected over the ops of a traced run and
/// reported as medians.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<String, Vec<f64>>);

impl Ledger {
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    pub fn push_all(&mut self, name: &str, values: &[f64]) {
        self.0.entry(name.to_string()).or_default().extend(values);
    }

    pub fn flush_into(&self, values: &mut Values) {
        for (name, samples) in &self.0 {
            values.set_median(name, samples);
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Run-wide checks (counters, exit codes) on top of the per-op ones.
    pub correct: bool,
    pub values: Values,
    /// Why an op or a run-wide check failed; printed to stderr.
    pub notes: Vec<String>,
    /// Traced runs: the three span names with the largest share of the
    /// blocking time, with that share.
    pub top_layers: Vec<(String, f64)>,
}

impl RunResult {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.note(why);
    }

    pub fn note(&mut self, why: impl Into<String>) {
        if self.notes.len() < 20 {
            self.notes.push(why.into());
        }
    }
}

/// The arguments of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `--smoke`: a twentieth of the time, and half of every minimum count.
    pub smoke: bool,
    /// Where `moat-tune` and `moat-serve` were built.
    pub bin_dir: PathBuf,
    /// `benchmark/out`: state directories, traces and result files.
    pub out_dir: PathBuf,
    pub nproc: usize,
}

impl Ctx {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// The least number of rounds a run completes whatever `--seconds` says.
    pub fn min_rounds(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 2).max(1)
        } else {
            full
        }
    }

    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// A directory under `benchmark/out/state` that is removed when dropped —
/// on success, on a failed check and on a panic alike.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(ctx: &Ctx, tag: &str) -> Result<ScratchDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = ctx
            .out_dir
            .join("state")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A run sets up at least `SETUP_MIN` times and goes on, up to `SETUP_MAX`
/// times, until the set-ups have used `SETUP_BUDGET_S`: the median is
/// `setup_s`. A set-up of 70 ms is repeated fifteen times, one of 700 ms
/// four times; either way the median is taken over seconds, not tenths of
/// a second, of this host's changing speed.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 2.5;

/// Set up several times, timing each; every state but the last is handed
/// to `discard` (untimed). Returns the last state, `setup_s` and the number
/// of set-ups. A traced run does not report `setup_s` and sets up once, and
/// so does a smoke run, whose numbers are not comparable anyway.
pub fn repeat_setup<S>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Result<S, String>,
    mut discard: impl FnMut(S),
) -> Result<(S, Setup), String> {
    let once = ctx.traced || ctx.smoke;
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    loop {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
        let n = times.len();
        let spent = n >= SETUP_MIN && times.iter().sum::<f64>() > SETUP_BUDGET_S;
        if once || spent || n >= SETUP_MAX {
            break;
        }
    }
    let setup = Setup {
        seconds: median(&times),
        reps: times.len() as u64,
    };
    Ok((last.expect("at least one set-up"), setup))
}

/// `setup_s` and how many set-ups it is the median of.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub seconds: f64,
    pub reps: u64,
}

/// Sum consecutive `(units, seconds)` pairs into stretches of `len` pairs.
pub fn stretches(per_op: &[(f64, f64)], len: usize) -> Vec<(f64, f64)> {
    per_op
        .chunks(len.max(1))
        .map(|c| c.iter().fold((0.0, 0.0), |a, x| (a.0 + x.0, a.1 + x.1)))
        .collect()
}

/// The 95th percentile of a typical tenth of the run: the median over ten
/// consecutive tenths of each tenth's own p95. The host's interference
/// comes in bursts; a burst lifts the tail of the tenths it hits and leaves
/// this number where the program put it. Below 100 samples a tenth is too
/// short for a p95 and the run's overall p95 stands in.
fn typical_p95(op_ms: &[f64]) -> f64 {
    if op_ms.len() < 100 {
        return percentile(&sorted(op_ms.to_vec()), 0.95);
    }
    let tenths: Vec<f64> = op_ms
        .chunks(op_ms.len().div_ceil(10))
        .map(|tenth| percentile(&sorted(tenth.to_vec()), 0.95))
        .collect();
    median(&tenths)
}

/// Record the end-to-end metrics. `op_ms` is in time order. `stretches` are consecutive parts of the
/// measured time as `(units done, seconds taken)`, a unit being an op or a
/// million simulated accesses; `ops_per_s` is the median of their rates, so
/// a burst of interference from the host slows a few stretches and not the
/// result. `cpu_s` is the CPU time the program under test spent on all of
/// them.
pub fn set_end_to_end(
    values: &mut Values,
    setup: Setup,
    stretches: &[(f64, f64)],
    cpu_s: f64,
    op_ms: &[f64],
    peak_rss_mb: f64,
) {
    let units: f64 = stretches.iter().map(|s| s.0).sum();
    let rates: Vec<f64> = stretches.iter().map(|s| s.0 / s.1.max(1e-9)).collect();
    let n = op_ms.len() as u64;
    let lat = sorted(op_ms.to_vec());
    values.set("setup_s", setup.seconds, setup.reps);
    values.set("ops_per_s", median(&rates), rates.len() as u64);
    values.set("cpu_ms_per_op", 1e3 * cpu_s / units.max(1e-9), n);
    values.set("op_ms_p50", percentile(&lat, 0.50), n);
    values.set("op_ms_p95", typical_p95(op_ms), n);
    values.set("peak_rss_mb", peak_rss_mb, 1);
}

/// Record the two seed-only metrics from the `(E, self-hypervolume)` of the
/// tuning results that every run of the workload completes.
pub fn set_deterministic(values: &mut Values, det: &[(u64, f64)]) {
    let n = det.len() as u64;
    if n > 0 {
        values.set(
            "evals_per_run_mean",
            det.iter().map(|d| d.0 as f64).sum::<f64>() / n as f64,
            n,
        );
        values.set(
            "front_hv_mean",
            det.iter().map(|d| d.1).sum::<f64>() / n as f64,
            n,
        );
    }
}

/// End of a traced run: medians into the result, the top layers, and the
/// spans to `out/trace-<workload>.jsonl`.
pub fn finish_traced(
    ctx: &Ctx,
    workload: &str,
    ledger: &Ledger,
    trace: &crate::trace::Trace,
    result: &mut RunResult,
) -> Result<(), String> {
    ledger.flush_into(&mut result.values);
    result.top_layers = trace.top_layers();
    let path = ctx.out_dir.join(format!("trace-{workload}.jsonl"));
    trace
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A `Vm*` line of `/proc/<pid>/status` in MB (`VmHWM` is the peak RSS).
pub fn proc_status_mb(pid: u32, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset this process's peak-RSS mark, so an in-process workload that runs
/// after others reports its own peak (best effort: an old kernel ignores
/// the write and the mark stays).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn self_peak_rss_mb() -> f64 {
    proc_status_mb(std::process::id(), "VmHWM:").unwrap_or(0.0)
}

/// `struct rusage` on 64-bit Linux: two timevals (user and system CPU
/// time), `ru_maxrss` in KB, then 13 more longs.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

/// Whose resources `rusage` reads: this process with all its threads, or
/// every child it has waited for.
#[derive(Debug, Clone, Copy)]
pub enum Who {
    Myself = 0,
    Children = -1,
}

fn rusage(who: Who) -> Rusage {
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the size the
    // kernel expects (18 longs on 64-bit Linux), and getrusage only writes
    // into it. On failure it is left zeroed.
    unsafe { getrusage(who as i32, &mut usage) };
    usage
}

/// User + system CPU seconds consumed so far.
pub fn cpu_seconds(who: Who) -> f64 {
    let u = rusage(who);
    (u.utime[0] + u.stime[0]) as f64 + (u.utime[1] + u.stime[1]) as f64 / 1e6
}

/// Peak RSS in MB over every child this process has waited for.
pub fn children_peak_rss_mb() -> f64 {
    rusage(Who::Children).maxrss as f64 / 1024.0
}

/// Clock ticks per second, the unit of `/proc/stat` and `/proc/<pid>/stat`.
pub fn ticks_per_second() -> Option<f64> {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and returns an integer; it touches
    // no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    (ticks > 0).then_some(ticks as f64)
}

/// User + system CPU seconds of another live process, all threads, from
/// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks).
pub fn proc_cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / ticks_per_second()?)
}
