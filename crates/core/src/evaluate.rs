//! Objective-function plumbing: the evaluator trait, evaluation counting,
//! caching and parallel batch evaluation.
//!
//! The paper's optimizer "iteratively selects sets of configurations … to
//! be evaluated (executed) on the target system", exploiting that
//! "configurations can be evaluated simultaneously" (§III-B.3). Algorithms
//! in this crate therefore always request evaluations in *batches* through
//! [`BatchEval`], which fans the batch out over threads.

use crate::space::Config;
use moat_obs::{Event, Obs};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// An objective vector (all components minimized).
pub type ObjVec = Vec<f64>;

/// An objective function over configurations.
///
/// `evaluate` returns `None` for invalid/infeasible configurations (the
/// framework maps these to "discard"). Implementations must be `Sync` so
/// batches can be evaluated in parallel.
pub trait Evaluator: Sync {
    /// Number of objectives.
    fn num_objectives(&self) -> usize;
    /// Evaluate one configuration.
    fn evaluate(&self, cfg: &Config) -> Option<ObjVec>;
}

impl<F> Evaluator for (usize, F)
where
    F: Fn(&Config) -> Option<ObjVec> + Sync,
{
    fn num_objectives(&self) -> usize {
        self.0
    }
    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        (self.1)(cfg)
    }
}

/// One configuration's result, set once by the thread that claimed it.
type Cell = Arc<OnceLock<Option<ObjVec>>>;

/// Wrapper adding evaluation counting and memoization.
///
/// The evaluation count `E` (only *distinct* configurations reach the inner
/// evaluator; repeats are served from the cache, matching how an iterative
/// compiler would reuse measurements) is the cost metric of Table VI.
///
/// Distinct configurations are counted *exactly* once even under concurrent
/// evaluation. A request takes the cache lock once and looks its
/// configuration up once: a finished entry is a hit; a missing one is
/// claimed — an empty cell inserted and the counter bumped under that
/// lock — and evaluated outside it; an empty one is in flight, and the
/// request waits on the cell itself. The claimant publishes into the cell
/// without locking or looking anything up again.
pub struct CachingEvaluator<'a> {
    inner: &'a dyn Evaluator,
    cache: Mutex<HashMap<Config, Cell, BuildHasherDefault<ConfigHasher>>>,
    evaluations: AtomicU64,
    primed: AtomicU64,
}

/// The cache's hash: a multiply-rotate over the configuration's words
/// (FxHash's), where the standard SipHash spends more on a four-value
/// configuration than the lookup it serves. Nothing iterates the map in
/// hash order.
#[derive(Default)]
struct ConfigHasher(u64);

impl ConfigHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for ConfigHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        for &byte in words.remainder() {
            self.add(u64::from(byte));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl<'a> CachingEvaluator<'a> {
    /// Wrap an evaluator.
    pub fn new(inner: &'a dyn Evaluator) -> Self {
        CachingEvaluator {
            inner,
            cache: Mutex::new(HashMap::default()),
            evaluations: AtomicU64::new(0),
            primed: AtomicU64::new(0),
        }
    }

    /// Number of (distinct) configurations evaluated so far — the paper's
    /// `E` metric. Primed entries (see [`prime`](Self::prime)) do not
    /// count: `E` is the number of *fresh* objective-function runs.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Number of cache entries installed via [`prime`](Self::prime).
    pub fn primed(&self) -> u64 {
        self.primed.load(Ordering::Relaxed)
    }

    /// Whether `cfg` has already been evaluated (or is being evaluated right
    /// now). Lets callers predict whether a request would consume budget.
    pub fn is_cached(&self, cfg: &Config) -> bool {
        self.cache.lock().contains_key(cfg)
    }

    /// Install a known result without running the objective function —
    /// the warm-start path: archived `(config, objectives)` pairs are
    /// primed so re-requesting them is a cache hit that neither bumps `E`
    /// nor consumes budget. A configuration already cached (or in flight)
    /// is left untouched. Returns whether the entry was installed.
    pub fn prime(&self, cfg: Config, result: Option<ObjVec>) -> bool {
        let mut cache = self.cache.lock();
        if cache.contains_key(&cfg) {
            return false;
        }
        cache.insert(cfg, Arc::new(OnceLock::from(result)));
        self.primed.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Snapshot every finished cache entry, sorted by configuration —
    /// checkpoint support. Call only at a batch boundary: in-flight
    /// entries are not representable and are skipped.
    pub fn snapshot(&self) -> Vec<(Config, Option<ObjVec>)> {
        let cache = self.cache.lock();
        let mut out: Vec<(Config, Option<ObjVec>)> = cache
            .iter()
            .filter_map(|(cfg, cell)| Some((cfg.clone(), cell.get()?.clone())))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Restore a cache snapshot plus counters — the resume path. Entries
    /// land as finished results, and the counters are overwritten
    /// wholesale, so `E` accounting and budget admission continue exactly
    /// where the checkpointed run left off.
    pub fn restore(&self, entries: &[(Config, Option<ObjVec>)], evaluations: u64, primed: u64) {
        let mut cache = self.cache.lock();
        for (cfg, r) in entries {
            cache.insert(cfg.clone(), Arc::new(OnceLock::from(r.clone())));
        }
        self.evaluations.store(evaluations, Ordering::Relaxed);
        self.primed.store(primed, Ordering::Relaxed);
    }
}

impl Evaluator for CachingEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        let claimed: Cell = {
            let mut cache = self.cache.lock();
            match cache.get(cfg) {
                Some(cell) => match cell.get() {
                    Some(hit) => return hit.clone(),
                    // Someone else owns this evaluation: wait for its
                    // result without holding the cache lock.
                    None => {
                        let cell = Arc::clone(cell);
                        drop(cache);
                        return cell.wait().clone();
                    }
                },
                None => {
                    // The claim: the counter is bumped under the lock that
                    // inserts the entry, so each distinct config is counted
                    // exactly once.
                    let cell = Cell::default();
                    cache.insert(cfg.clone(), Arc::clone(&cell));
                    self.evaluations.fetch_add(1, Ordering::Relaxed);
                    cell
                }
            }
        };
        let result = self.inner.evaluate(cfg);
        claimed
            .set(result.clone())
            .expect("only the claimant publishes");
        result
    }
}

/// A feasibility predicate over configurations (`true` = feasible).
type Constraint<'a> = Box<dyn Fn(&Config) -> bool + Sync + 'a>;

/// An evaluator wrapper enforcing *parameter constraints* (paper §III-A:
/// regions are passed to the optimizer "together with their associated
/// transformation skeletons and some (optional) parameter constraints").
/// Configurations violating any constraint evaluate to `None` without
/// touching the inner objective function — the optimizer discards them.
pub struct ConstrainedEvaluator<'a> {
    inner: &'a dyn Evaluator,
    constraints: Vec<Constraint<'a>>,
    rejections: AtomicU64,
}

impl<'a> ConstrainedEvaluator<'a> {
    /// Wrap `inner` with no constraints (add them with
    /// [`with`](Self::with)).
    pub fn new(inner: &'a dyn Evaluator) -> Self {
        ConstrainedEvaluator {
            inner,
            constraints: Vec::new(),
            rejections: AtomicU64::new(0),
        }
    }

    /// Add a constraint predicate (`true` = feasible).
    pub fn with(mut self, constraint: impl Fn(&Config) -> bool + Sync + 'a) -> Self {
        self.constraints.push(Box::new(constraint));
        self
    }

    /// Configurations rejected by constraints so far.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }
}

impl Evaluator for ConstrainedEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        if self.constraints.iter().any(|c| !c(cfg)) {
            self.rejections.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.inner.evaluate(cfg)
    }
}

/// What starting and joining one helper thread costs, rounded up (70–180 µs
/// measured): how long [`BatchEval::run`]'s caller works a batch alone
/// before it starts any, and how long a batch must keep a session's caller
/// busy for the next one to start them at once.
const THREAD_START: Duration = Duration::from_micros(200);

/// Batch evaluation helper.
#[derive(Debug, Clone, Copy)]
pub struct BatchEval {
    /// Number of evaluation threads (1 = sequential). Mirrors the paper's
    /// parallel generation/compilation/evaluation of configurations.
    pub parallelism: usize,
}

impl Default for BatchEval {
    /// One thread per available hardware thread (the paper evaluates
    /// configurations simultaneously on the target system).
    fn default() -> Self {
        // Asked once per process: on Linux the answer is read from cgroup
        // files, and `moat-serve` builds default run options per request.
        static HOST_THREADS: OnceLock<usize> = OnceLock::new();
        BatchEval::parallel(*HOST_THREADS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }))
    }
}

impl BatchEval {
    /// Sequential evaluation.
    pub fn sequential() -> Self {
        BatchEval { parallelism: 1 }
    }

    /// Evaluate with up to `n` parallel threads.
    pub fn parallel(n: usize) -> Self {
        BatchEval {
            parallelism: n.max(1),
        }
    }

    /// Evaluate all configurations, preserving order.
    ///
    /// The calling thread is worker 0 and claims configurations one at a
    /// time from a shared cursor, storing each result in the slot of its
    /// index. It starts its scoped helpers (up to `parallelism − 1`, never
    /// more than the indices left for them) only once it has itself spent
    /// `THREAD_START` (200 µs) on the batch — renting until the rent has
    /// cost what buying would have — and then only if what nobody has
    /// claimed yet, at the caller's rate so far, would take another thread
    /// start. A batch cheaper than a thread start, or one whose cheap tail
    /// is, is therefore finished by the caller alone and starts no
    /// thread. An evaluation cannot be interrupted, so an expensive
    /// evaluator runs alone for 200 µs or one evaluation, whichever is
    /// longer: `n ≤ parallelism` slow configurations take two evaluations'
    /// time here, not one. A [`TuningSession`](crate::tuner::TuningSession)
    /// pays that on its first slow batch only — it remembers that a batch
    /// was dear and starts the next one's helpers before its first claim.
    pub fn run(&self, ev: &dyn Evaluator, configs: &[Config]) -> Vec<Option<ObjVec>> {
        self.run_traced(&Obs::default(), ev, configs, &mut false)
    }

    /// [`run`](Self::run) on behalf of a traced session: each worker's
    /// share is recorded on `obs` as a `worker_span` — a timing-class
    /// record, so it only exists in wall-timestamp mode and never
    /// perturbs deterministic traces.
    ///
    /// `dear` is the session's memory between batches. Coming in, it says
    /// the last batch kept some worker claiming for `THREAD_START` or more,
    /// and the helpers are started at once rather than after a first
    /// evaluation alone; going out, it says the same of this batch (time in
    /// claims only — starting and joining threads is left out, or a cheap
    /// batch after a dear one would look dear for ever). A batch with no
    /// helper to start reads no clock and leaves it as it was.
    pub(crate) fn run_traced(
        &self,
        obs: &Obs,
        ev: &dyn Evaluator,
        configs: &[Config],
        dear: &mut bool,
    ) -> Vec<Option<ObjVec>> {
        let helpers = self.parallelism.min(configs.len()).saturating_sub(1);
        let slots: Vec<OnceLock<Option<ObjVec>>> =
            configs.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        // Claim and evaluate the next index; false once none is left.
        // Relaxed: the cursor only hands out indices; results are
        // published by the scope's join.
        let claim = || {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some((cfg, slot)) = configs.get(i).zip(slots.get(i)) else {
                return false;
            };
            slot.set(ev.evaluate(cfg))
                .expect("each index is claimed once");
            true
        };
        let drain = || {
            let mut claimed = 0u64;
            while claim() {
                claimed += 1;
            }
            claimed
        };

        // The longest any one worker has spent claiming, in µs.
        let longest = AtomicU64::new(0);
        let timed_drain = || {
            let started = Instant::now();
            let claimed = drain();
            longest.fetch_max(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            claimed
        };

        let span = obs.span_start();
        let mut claimed = 0u64;
        let mut team = if *dear { helpers } else { 0 };
        if helpers > 0 && team == 0 {
            let started = Instant::now();
            let mut alone = Duration::ZERO;
            while alone < THREAD_START && claim() {
                claimed += 1;
                alone = started.elapsed();
            }
            // What nobody has claimed yet is worth helpers only if, at the
            // rate the caller has claimed so far, it would outlast one
            // thread start: a tail of a few cheap configurations is
            // finished sooner alone than a helper is started and joined.
            let unclaimed = configs.len().saturating_sub(cursor.load(Ordering::Relaxed));
            if alone >= THREAD_START
                && alone.as_nanos() * unclaimed as u128
                    >= THREAD_START.as_nanos() * u128::from(claimed)
            {
                // Less the index the caller takes next.
                team = helpers.min(unclaimed.saturating_sub(1));
            }
            longest.store(alone.as_micros() as u64, Ordering::Relaxed);
        }
        if team == 0 {
            claimed += drain();
        } else {
            std::thread::scope(|scope| {
                for worker in 1..=team as u64 {
                    let timed_drain = &timed_drain;
                    scope.spawn(move || {
                        let span = obs.span_start();
                        let configs = timed_drain();
                        obs.emit_span(span, || Event::WorkerSpan { worker, configs });
                    });
                }
                claimed += timed_drain();
            });
        }
        if helpers > 0 {
            *dear = longest.into_inner() >= THREAD_START.as_micros() as u64;
        }
        obs.emit_span(span, || Event::WorkerSpan {
            worker: 0,
            configs: claimed,
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every index was claimed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere() -> (usize, impl Fn(&Config) -> Option<ObjVec> + Sync) {
        (2, |cfg: &Config| {
            let x = cfg[0] as f64;
            Some(vec![x * x, (x - 4.0) * (x - 4.0)])
        })
    }

    #[test]
    fn closure_evaluator_works() {
        let ev = sphere();
        assert_eq!(ev.num_objectives(), 2);
        assert_eq!(ev.evaluate(&vec![2]), Some(vec![4.0, 4.0]));
    }

    #[test]
    fn caching_counts_distinct_only() {
        let ev = sphere();
        let cached = CachingEvaluator::new(&ev);
        cached.evaluate(&vec![1]);
        cached.evaluate(&vec![1]);
        cached.evaluate(&vec![2]);
        assert_eq!(cached.evaluations(), 2);
    }

    #[test]
    fn caching_preserves_none() {
        let ev = (1usize, |cfg: &Config| {
            if cfg[0] < 0 {
                None
            } else {
                Some(vec![cfg[0] as f64])
            }
        });
        let cached = CachingEvaluator::new(&ev);
        assert_eq!(cached.evaluate(&vec![-1]), None);
        assert_eq!(cached.evaluate(&vec![-1]), None);
        assert_eq!(cached.evaluations(), 1);
    }

    #[test]
    fn constraints_reject_without_inner_evaluation() {
        let calls = AtomicU64::new(0);
        let ev = (1usize, |cfg: &Config| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some(vec![cfg[0] as f64])
        });
        let constrained = ConstrainedEvaluator::new(&ev)
            .with(|cfg| cfg[0] % 2 == 0)
            .with(|cfg| cfg[0] <= 10);
        assert_eq!(constrained.evaluate(&vec![4]), Some(vec![4.0]));
        assert_eq!(constrained.evaluate(&vec![5]), None, "odd rejected");
        assert_eq!(constrained.evaluate(&vec![12]), None, "too large rejected");
        assert_eq!(constrained.rejections(), 2);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "inner called only when feasible"
        );
        assert_eq!(constrained.num_objectives(), 1);
    }

    #[test]
    fn batch_preserves_order() {
        let ev = sphere();
        let configs: Vec<Config> = (0..50).map(|i| vec![i]).collect();
        let seq = BatchEval::sequential().run(&ev, &configs);
        let par = BatchEval::parallel(8).run(&ev, &configs);
        assert_eq!(seq, par);
        assert_eq!(seq[3], Some(vec![9.0, 1.0]));
    }

    #[test]
    fn batch_parallel_with_caching() {
        let ev = sphere();
        let cached = CachingEvaluator::new(&ev);
        let configs: Vec<Config> = (0..32).map(|i| vec![i % 8]).collect();
        let out = BatchEval::parallel(8).run(&cached, &configs);
        assert_eq!(out.len(), 32);
        // Each distinct key is claimed under the cache lock before its
        // evaluation runs, so concurrent requests for the same key never
        // double-count: exactly 8 distinct configurations.
        assert_eq!(cached.evaluations(), 8);
    }

    #[test]
    fn concurrent_same_key_counts_once() {
        // Hammer a single key from many threads through the caching layer
        // directly: the in-flight slot must serialize them onto one inner
        // evaluation.
        let calls = AtomicU64::new(0);
        let ev = (1usize, |cfg: &Config| {
            calls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(5));
            Some(vec![cfg[0] as f64])
        });
        let cached = CachingEvaluator::new(&ev);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    assert_eq!(cached.evaluate(&vec![7]), Some(vec![7.0]));
                });
            }
        });
        assert_eq!(cached.evaluations(), 1);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(cached.is_cached(&vec![7]));
        assert!(!cached.is_cached(&vec![8]));
    }

    #[test]
    fn priming_serves_hits_without_counting() {
        let calls = AtomicU64::new(0);
        let ev = (2usize, |cfg: &Config| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some(vec![cfg[0] as f64, -(cfg[0] as f64)])
        });
        let cached = CachingEvaluator::new(&ev);
        assert!(cached.prime(vec![3], Some(vec![100.0, -100.0])));
        assert!(cached.is_cached(&vec![3]));
        // Served from the primed entry: archived objectives, no inner call.
        assert_eq!(cached.evaluate(&vec![3]), Some(vec![100.0, -100.0]));
        assert_eq!(cached.evaluations(), 0);
        assert_eq!(cached.primed(), 1);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // Fresh configurations still evaluate and count.
        assert_eq!(cached.evaluate(&vec![4]), Some(vec![4.0, -4.0]));
        assert_eq!(cached.evaluations(), 1);
        // Priming never overwrites an existing entry.
        assert!(!cached.prime(vec![4], Some(vec![0.0, 0.0])));
        assert!(!cached.prime(vec![3], Some(vec![0.0, 0.0])));
        assert_eq!(cached.evaluate(&vec![4]), Some(vec![4.0, -4.0]));
        assert_eq!(cached.primed(), 1);
    }

    #[test]
    fn default_batch_uses_available_parallelism() {
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(BatchEval::default().parallelism, expected);
    }

    /// Eight 20 ms configurations on eight workers: two evaluations' time
    /// when nothing is known of the batch, one when the last was dear.
    #[test]
    fn a_dear_batch_starts_the_next_ones_helpers_at_once() {
        let eval = Duration::from_millis(20);
        let ev = (1usize, |cfg: &Config| {
            std::thread::sleep(eval);
            Some(vec![cfg[0] as f64])
        });
        let configs: Vec<Config> = (0..8).map(|i| vec![i]).collect();
        let timed = |dear: &mut bool| {
            let started = Instant::now();
            let out = BatchEval::parallel(8).run_traced(&Obs::default(), &ev, &configs, dear);
            assert_eq!(out[7], Some(vec![7.0]));
            started.elapsed()
        };
        let mut dear = false;
        let alone_first = timed(&mut dear);
        assert!(dear);
        assert!(alone_first >= 2 * eval, "{alone_first:?}");
        let at_once: Vec<Duration> = (0..3).map(|_| timed(&mut dear)).collect();
        assert!(dear);
        let best = at_once.iter().min().unwrap();
        assert!(*best < eval * 8 / 5, "{at_once:?}");
    }

    /// Starting and joining the helpers is not counted as the batch's
    /// cost, so a cheap batch after a dear one is the last to start any. A
    /// caller preempted mid-batch may rightly find it dear: a few attempts.
    #[test]
    fn a_cheap_batch_after_a_dear_one_is_not_dear() {
        let ev = sphere();
        let configs: Vec<Config> = (0..50).map(|i| vec![i]).collect();
        let seq = BatchEval::sequential().run(&ev, &configs);
        let forgot = (0..20).any(|_| {
            let mut dear = true;
            let out = BatchEval::parallel(8).run_traced(&Obs::default(), &ev, &configs, &mut dear);
            assert_eq!(out, seq);
            !dear
        });
        assert!(forgot);
        // Dear is dear whichever worker met the one slow configuration.
        let one_slow = (1usize, |cfg: &Config| {
            if cfg[0] == 5 {
                std::thread::sleep(Duration::from_millis(2));
            }
            Some(vec![cfg[0] as f64])
        });
        for _ in 0..5 {
            let mut dear = true;
            BatchEval::parallel(8).run_traced(&Obs::default(), &one_slow, &configs, &mut dear);
            assert!(dear);
        }
        // With no helper to start, no clock is read and nothing is learnt.
        for mut dear in [false, true] {
            let was = dear;
            BatchEval::sequential().run_traced(&Obs::default(), &ev, &configs, &mut dear);
            BatchEval::parallel(8).run_traced(&Obs::default(), &ev, &configs[..1], &mut dear);
            assert_eq!(dear, was);
        }
    }

    #[test]
    fn batch_empty() {
        let ev = sphere();
        assert!(BatchEval::parallel(4).run(&ev, &[]).is_empty());
    }
}
