//! Fault-tolerant evaluation: fallible evaluators, retry/backoff policies,
//! repeat-and-median outlier rejection, quarantine, and a deterministic
//! fault injector for chaos testing.
//!
//! Real measurement backends fail: candidate builds crash, runs hang until
//! a watchdog kills them, and shared machines inject timing noise. The
//! paper's framework assumes every measurement succeeds; this module makes
//! the session's evaluator path tolerate the realistic failure modes while
//! keeping every fixed-seed run bit-reproducible:
//!
//! * [`FallibleEvaluator`] is the fallible counterpart of
//!   [`Evaluator`](crate::evaluate::Evaluator): it returns
//!   `Result<Option<ObjVec>, EvalError>`. Every infallible evaluator is
//!   trivially fallible via a blanket impl.
//! * [`FaultTolerantEvaluator`] wraps a fallible evaluator with a
//!   [`FaultPolicy`]: a cooperative per-attempt timeout, bounded retries
//!   with exponential backoff plus deterministic seeded jitter, and
//!   repeat-and-median outlier rejection when repeated measurements
//!   disagree beyond a noise threshold. Candidates that still fail are
//!   *quarantined*: they evaluate to a large penalty objective vector so
//!   population-based tuners (GDE3 / RS-GDE3 / NSGA-II) degrade gracefully
//!   instead of panicking, and [`TuningSession::run`](crate::tuner::TuningSession::run)
//!   strips them from the final front.
//! * [`FaultInjector`] wraps any *real* evaluator with a seeded
//!   [`FaultSchedule`] of failures, hangs and noise bursts — a deterministic
//!   chaos monkey for tests and the `--inject-faults` CLI flag.

use crate::evaluate::{Evaluator, ObjVec};
use crate::space::Config;
use moat_obs::{Event, Obs};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Penalty objective value assigned to quarantined configurations.
///
/// Large enough to be dominated by any genuine measurement, small enough to
/// stay finite through JSON serialization (non-finite floats do not
/// round-trip).
pub const QUARANTINE_PENALTY: f64 = 1e30;

/// Why a single evaluation attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The measurement crashed or reported an error.
    Failed(String),
    /// The measurement exceeded the per-attempt timeout and was abandoned.
    Timeout {
        /// The enforced limit.
        limit: Duration,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Failed(msg) => write!(f, "evaluation failed: {msg}"),
            EvalError::Timeout { limit } => {
                write!(f, "evaluation timed out after {:?}", limit)
            }
        }
    }
}

/// An evaluator whose measurements can fail.
///
/// `timeout` is a *cooperative* per-attempt deadline: the evaluator is
/// responsible for abandoning work and returning [`EvalError::Timeout`]
/// once the limit passes, exactly like a subprocess measurement harness
/// whose watchdog kills the child. Passing the deadline down (instead of
/// racing threads here) keeps hung evaluations from pinning worker threads.
pub trait FallibleEvaluator: Sync {
    /// Number of objectives produced per configuration.
    fn num_objectives(&self) -> usize;

    /// Attempt one measurement of `cfg`. `Ok(None)` means the
    /// configuration is infeasible (a *valid* answer, never retried);
    /// `Err` means the attempt itself failed and may be retried.
    fn try_evaluate(
        &self,
        cfg: &Config,
        timeout: Option<Duration>,
    ) -> Result<Option<ObjVec>, EvalError>;
}

/// Every infallible evaluator is a fallible evaluator that never errors.
impl<E: Evaluator> FallibleEvaluator for E {
    fn num_objectives(&self) -> usize {
        Evaluator::num_objectives(self)
    }

    fn try_evaluate(
        &self,
        cfg: &Config,
        _timeout: Option<Duration>,
    ) -> Result<Option<ObjVec>, EvalError> {
        Ok(self.evaluate(cfg))
    }
}

/// Knobs governing how [`FaultTolerantEvaluator`] handles failures and
/// noise. All randomness (retry jitter) is derived deterministically from
/// `jitter_seed` and the configuration, so a fixed-seed run is
/// bit-reproducible even through its failure handling.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPolicy {
    /// Cooperative per-attempt deadline handed to the evaluator; `None`
    /// disables timeout enforcement.
    pub timeout: Option<Duration>,
    /// Retries after the first failed attempt (so `max_retries = 2` allows
    /// three attempts total).
    pub max_retries: u32,
    /// Base backoff slept before retry `n` (scaled by `2^(n-1)`, plus
    /// deterministic jitter in `[0, backoff)`). Zero disables sleeping.
    pub backoff: Duration,
    /// Seed for the deterministic retry jitter.
    pub jitter_seed: u64,
    /// Measurements taken per configuration for outlier rejection. With
    /// `repeats <= 1` every configuration is measured once. With
    /// `repeats >= 2` a second measurement is always taken; if the two
    /// agree within `noise_threshold` the first is kept, otherwise up to
    /// `repeats` measurements are taken and their component-wise median
    /// wins.
    pub repeats: u32,
    /// Maximum relative component-wise spread between the first two
    /// measurements before the repeat-and-median path engages.
    pub noise_threshold: f64,
    /// Objective value assigned (in every component) to quarantined
    /// configurations.
    pub penalty: f64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            timeout: None,
            max_retries: 2,
            backoff: Duration::ZERO,
            jitter_seed: 0x5EED,
            repeats: 1,
            noise_threshold: 0.05,
            penalty: QUARANTINE_PENALTY,
        }
    }
}

/// Counters describing the fault handling performed during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total measurement attempts (including retries and repeats).
    pub attempts: u64,
    /// Attempts that were retries of a failed attempt.
    pub retries: u64,
    /// Attempts abandoned on timeout.
    pub timeouts: u64,
    /// Attempts that failed outright.
    pub failures: u64,
    /// Extra measurements taken by the repeat-and-median path.
    pub extra_measurements: u64,
    /// Configurations quarantined after exhausting all retries.
    pub quarantined: u64,
}

/// FNV-1a over a seed, a configuration and a salt — the deterministic hash
/// behind retry jitter and fault-schedule draws.
fn fnv_mix(seed: u64, cfg: &Config, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(seed);
    for &v in cfg {
        eat(v as u64);
    }
    eat(salt);
    h
}

/// Map a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    // splitmix-style finalizer so consecutive salts decorrelate.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Largest relative component-wise disagreement between two measurements.
fn relative_spread(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-12))
        .fold(0.0, f64::max)
}

/// Component-wise lower median of a set of measurements. The lower median
/// is always one of the actually observed values, keeping the result
/// deterministic and physically meaningful.
fn component_median(samples: &[ObjVec]) -> ObjVec {
    let m = samples[0].len();
    (0..m)
        .map(|c| {
            let mut col: Vec<f64> = samples.iter().map(|s| s[c]).collect();
            col.sort_by(f64::total_cmp);
            col[(col.len() - 1) / 2]
        })
        .collect()
}

/// Wraps a [`FallibleEvaluator`] and applies a [`FaultPolicy`], presenting
/// the infallible [`Evaluator`] interface the rest of the stack expects.
///
/// Per configuration: each measurement attempt gets the policy timeout and
/// up to `max_retries` retries (with exponential backoff and deterministic
/// jitter); with `repeats >= 2`, noisy measurements are re-measured and the
/// component-wise median wins. A configuration whose attempts are all
/// exhausted is quarantined: it evaluates to `vec![penalty; m]`, which any
/// genuine point dominates, and [`Evaluator::is_quarantined`] reports it so
/// the session can strip it from the final front.
pub struct FaultTolerantEvaluator<'a> {
    inner: &'a dyn FallibleEvaluator,
    policy: FaultPolicy,
    attempts: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    failures: AtomicU64,
    extra: AtomicU64,
    quarantined: Mutex<HashSet<Config>>,
    obs: Obs,
}

impl<'a> FaultTolerantEvaluator<'a> {
    /// Wrap `inner` under `policy`.
    pub fn new(inner: &'a dyn FallibleEvaluator, policy: FaultPolicy) -> Self {
        FaultTolerantEvaluator {
            inner,
            policy,
            attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            extra: AtomicU64::new(0),
            quarantined: Mutex::new(HashSet::new()),
            obs: Obs::default(),
        }
    }

    /// Report retries and quarantines on `obs` (the handle of the run
    /// this evaluator serves). Untraced by default.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The policy in force.
    pub fn policy(&self) -> &FaultPolicy {
        &self.policy
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            extra_measurements: self.extra.load(Ordering::Relaxed),
            quarantined: self.quarantined.lock().len() as u64,
        }
    }

    /// Quarantined configurations, sorted for deterministic output.
    pub fn quarantined_configs(&self) -> Vec<Config> {
        let mut v: Vec<Config> = self.quarantined.lock().iter().cloned().collect();
        v.sort();
        v
    }

    /// Deterministic backoff before retry `retry` (1-based) of `cfg`:
    /// `backoff * 2^(retry-1)` plus jitter in `[0, backoff)`.
    fn backoff_delay(&self, cfg: &Config, retry: u32) -> Duration {
        if self.policy.backoff.is_zero() {
            return Duration::ZERO;
        }
        let base = self.policy.backoff * 2u32.saturating_pow(retry.saturating_sub(1));
        let jitter =
            self.policy
                .backoff
                .mul_f64(unit(fnv_mix(self.policy.jitter_seed, cfg, retry as u64)));
        base + jitter
    }

    /// One logical measurement: an attempt plus up to `max_retries` retries.
    fn attempt_with_retry(&self, cfg: &Config) -> Result<Option<ObjVec>, EvalError> {
        let mut last = None;
        for retry in 0..=self.policy.max_retries {
            if retry > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                // Keyed observability event: workers race, but the caching
                // evaluator runs each distinct config through this pipeline
                // exactly once, so the *set* of retries is deterministic —
                // the config string is the stable sort key that fixes their
                // order at drain.
                self.obs.emit(|| Event::EvalRetry {
                    config: format!("{cfg:?}"),
                    attempt: u64::from(retry),
                });
                let delay = self.backoff_delay(cfg, retry);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            self.attempts.fetch_add(1, Ordering::Relaxed);
            match self.inner.try_evaluate(cfg, self.policy.timeout) {
                Ok(r) => return Ok(r),
                Err(e) => {
                    match e {
                        EvalError::Timeout { .. } => self.timeouts.fetch_add(1, Ordering::Relaxed),
                        EvalError::Failed(_) => self.failures.fetch_add(1, Ordering::Relaxed),
                    };
                    last = Some(e);
                }
            }
        }
        Err(last.expect("at least one attempt was made"))
    }

    /// Full measurement pipeline: retry, then repeat-and-median outlier
    /// rejection when the policy asks for repeats.
    ///
    /// Feasibility is assumed deterministic: if a repeat reports the
    /// configuration infeasible after a feasible first measurement, the
    /// first measurement is kept.
    fn measure(&self, cfg: &Config) -> Result<Option<ObjVec>, EvalError> {
        let first = match self.attempt_with_retry(cfg)? {
            Some(o) => o,
            None => return Ok(None),
        };
        if self.policy.repeats <= 1 {
            return Ok(Some(first));
        }
        self.extra.fetch_add(1, Ordering::Relaxed);
        let second = match self.attempt_with_retry(cfg)? {
            Some(o) => o,
            None => return Ok(Some(first)),
        };
        if relative_spread(&first, &second) <= self.policy.noise_threshold {
            // Quiet measurement: keep the first sample so the fault layer
            // is a no-op for deterministic evaluators.
            return Ok(Some(first));
        }
        let mut samples = vec![first, second];
        while samples.len() < self.policy.repeats as usize {
            self.extra.fetch_add(1, Ordering::Relaxed);
            match self.attempt_with_retry(cfg)? {
                Some(o) => samples.push(o),
                None => break,
            }
        }
        Ok(Some(component_median(&samples)))
    }
}

impl Evaluator for FaultTolerantEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&self, cfg: &Config) -> Option<ObjVec> {
        match self.measure(cfg) {
            Ok(r) => r,
            Err(_) => {
                self.quarantined.lock().insert(cfg.clone());
                self.obs.emit(|| Event::EvalQuarantined {
                    config: format!("{cfg:?}"),
                });
                Some(vec![self.policy.penalty; self.inner.num_objectives()])
            }
        }
    }

    fn is_quarantined(&self, cfg: &Config) -> bool {
        self.quarantined.lock().contains(cfg)
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(self.stats())
    }
}

/// Seeded distribution of injected faults for [`FaultInjector`].
///
/// Each configuration's fate is a deterministic function of `seed` and the
/// configuration vector: the unit interval is carved into a persistent-
/// failure region, a transient-failure region (fails the first few
/// attempts, then succeeds) and a hang region (sleeps and times out on the
/// first attempt); everything else measures normally, optionally with
/// multiplicative noise per attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Seed for all fate and noise draws.
    pub seed: u64,
    /// Fraction of configurations that fail every attempt.
    pub persistent_rate: f64,
    /// Fraction of configurations that fail transiently.
    pub transient_rate: f64,
    /// Upper bound on how many leading attempts a transient failure eats.
    pub max_transient_failures: u32,
    /// Fraction of configurations that hang on their first attempt.
    pub hang_rate: f64,
    /// Simulated hang duration (bounded by the policy timeout when one is
    /// enforced).
    pub hang: Duration,
    /// Relative amplitude of multiplicative measurement noise (0 disables).
    pub noise: f64,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule {
            seed: 0,
            persistent_rate: 0.0,
            transient_rate: 0.0,
            max_transient_failures: 2,
            hang_rate: 0.0,
            hang: Duration::from_millis(5),
            noise: 0.0,
        }
    }
}

/// Deterministic chaos-testing evaluator: wraps a real [`Evaluator`] and
/// injects failures, hangs and noise according to a [`FaultSchedule`].
///
/// Designed to sit under a [`FaultTolerantEvaluator`]; the session's
/// caching layer guarantees each distinct configuration runs the pipeline
/// once, so the per-config attempt counter (and hence every injected
/// fault) is reproducible for a given seed regardless of batch parallelism.
pub struct FaultInjector<'a> {
    inner: &'a dyn Evaluator,
    schedule: FaultSchedule,
    attempts: Mutex<HashMap<Config, u64>>,
}

impl<'a> FaultInjector<'a> {
    /// Wrap `inner` under `schedule`.
    pub fn new(inner: &'a dyn Evaluator, schedule: FaultSchedule) -> Self {
        FaultInjector {
            inner,
            schedule,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// The schedule in force.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

impl FallibleEvaluator for FaultInjector<'_> {
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn try_evaluate(
        &self,
        cfg: &Config,
        timeout: Option<Duration>,
    ) -> Result<Option<ObjVec>, EvalError> {
        let attempt = {
            let mut map = self.attempts.lock();
            let n = map.entry(cfg.clone()).or_insert(0);
            *n += 1;
            *n
        };
        let h = fnv_mix(self.schedule.seed, cfg, 0);
        let u = unit(h);
        let mut edge = self.schedule.persistent_rate;
        if u < edge {
            return Err(EvalError::Failed("injected persistent failure".into()));
        }
        let in_transient = u < edge + self.schedule.transient_rate;
        edge += self.schedule.transient_rate;
        if in_transient {
            let lasts = 1 + (h >> 32) % self.schedule.max_transient_failures.max(1) as u64;
            if attempt <= lasts {
                return Err(EvalError::Failed(format!(
                    "injected transient failure (attempt {attempt})"
                )));
            }
        } else if u < edge + self.schedule.hang_rate && attempt == 1 {
            match timeout {
                Some(limit) => {
                    // Simulate the watchdog waiting out the deadline.
                    std::thread::sleep(limit.min(self.schedule.hang));
                    return Err(EvalError::Timeout { limit });
                }
                None => {
                    // No deadline enforced: the hang resolves eventually.
                    std::thread::sleep(self.schedule.hang);
                }
            }
        }
        let mut out = self.inner.evaluate(cfg);
        if self.schedule.noise > 0.0 {
            if let Some(objs) = out.as_mut() {
                for (c, v) in objs.iter_mut().enumerate() {
                    let draw = unit(fnv_mix(self.schedule.seed, cfg, 1 + attempt * 8 + c as u64));
                    let factor = 1.0 + self.schedule.noise * (2.0 * draw - 1.0);
                    *v *= factor.max(1e-6);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic two-objective evaluator over 2-d configs.
    fn base() -> (usize, fn(&Config) -> Option<ObjVec>) {
        (2usize, |cfg: &Config| {
            Some(vec![cfg[0] as f64 + 1.0, cfg[1] as f64 + 1.0])
        })
    }

    #[test]
    fn infallible_evaluators_never_error() {
        let ev = base();
        let r = FallibleEvaluator::try_evaluate(&ev, &vec![3, 4], None).unwrap();
        assert_eq!(r, Some(vec![4.0, 5.0]));
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let ev = base();
        let injector = FaultInjector::new(
            &ev,
            FaultSchedule {
                seed: 9,
                transient_rate: 1.0, // every config fails transiently
                max_transient_failures: 2,
                ..FaultSchedule::default()
            },
        );
        let ft = FaultTolerantEvaluator::new(
            &injector,
            FaultPolicy {
                max_retries: 3,
                ..FaultPolicy::default()
            },
        );
        let out = ft.evaluate(&vec![1, 2]);
        assert_eq!(out, Some(vec![2.0, 3.0]));
        let stats = ft.stats();
        assert_eq!(stats.quarantined, 0);
        assert!(stats.retries >= 1, "transient failure must cost a retry");
        assert!(!ft.is_quarantined(&vec![1, 2]));
    }

    #[test]
    fn persistent_failures_quarantine_with_penalty() {
        let ev = base();
        let injector = FaultInjector::new(
            &ev,
            FaultSchedule {
                seed: 1,
                persistent_rate: 1.0,
                ..FaultSchedule::default()
            },
        );
        let ft = FaultTolerantEvaluator::new(&injector, FaultPolicy::default());
        let out = ft.evaluate(&vec![5, 5]).unwrap();
        assert_eq!(out, vec![QUARANTINE_PENALTY, QUARANTINE_PENALTY]);
        assert!(ft.is_quarantined(&vec![5, 5]));
        assert_eq!(ft.stats().quarantined, 1);
        assert_eq!(
            ft.stats().failures as u32,
            1 + FaultPolicy::default().max_retries
        );
    }

    #[test]
    fn hangs_hit_the_timeout_then_recover_on_retry() {
        let ev = base();
        let injector = FaultInjector::new(
            &ev,
            FaultSchedule {
                seed: 4,
                hang_rate: 1.0,
                hang: Duration::from_millis(50),
                ..FaultSchedule::default()
            },
        );
        let ft = FaultTolerantEvaluator::new(
            &injector,
            FaultPolicy {
                timeout: Some(Duration::from_millis(2)),
                ..FaultPolicy::default()
            },
        );
        let out = ft.evaluate(&vec![7, 7]);
        assert_eq!(out, Some(vec![8.0, 8.0]), "retry after timeout succeeds");
        assert_eq!(ft.stats().timeouts, 1);
        assert_eq!(ft.stats().quarantined, 0);
    }

    #[test]
    fn repeat_and_median_tames_noise() {
        let ev = base();
        let injector = FaultInjector::new(
            &ev,
            FaultSchedule {
                seed: 11,
                noise: 0.5,
                ..FaultSchedule::default()
            },
        );
        let ft = FaultTolerantEvaluator::new(
            &injector,
            FaultPolicy {
                repeats: 5,
                noise_threshold: 0.01,
                ..FaultPolicy::default()
            },
        );
        let cfg = vec![9, 9];
        let out = ft.evaluate(&cfg).unwrap();
        // The median of 5 noisy samples of 10.0 with ±50% noise stays
        // well inside the noise envelope.
        assert!(
            out[0] > 5.0 && out[0] < 15.0,
            "median {out:?} out of envelope"
        );
        assert!(ft.stats().extra_measurements >= 1);
        // Deterministic: a fresh identical pipeline reproduces the result.
        let injector2 = FaultInjector::new(
            &ev,
            FaultSchedule {
                seed: 11,
                noise: 0.5,
                ..FaultSchedule::default()
            },
        );
        let ft2 = FaultTolerantEvaluator::new(
            &injector2,
            FaultPolicy {
                repeats: 5,
                noise_threshold: 0.01,
                ..FaultPolicy::default()
            },
        );
        assert_eq!(out, ft2.evaluate(&cfg).unwrap());
    }

    #[test]
    fn quiet_measurements_keep_the_first_sample() {
        let ev = base();
        let ft = FaultTolerantEvaluator::new(
            &ev,
            FaultPolicy {
                repeats: 3,
                ..FaultPolicy::default()
            },
        );
        // Deterministic evaluator: two samples agree, the first is kept
        // and no further repeats are taken.
        assert_eq!(ft.evaluate(&vec![2, 2]), Some(vec![3.0, 3.0]));
        assert_eq!(ft.stats().extra_measurements, 1);
    }

    #[test]
    fn median_is_component_wise_lower_median() {
        let samples = vec![
            vec![3.0, 10.0],
            vec![1.0, 30.0],
            vec![2.0, 20.0],
            vec![9.0, 0.0],
        ];
        assert_eq!(component_median(&samples), vec![2.0, 10.0]);
    }

    #[test]
    fn backoff_grows_exponentially_with_deterministic_jitter() {
        let ev = base();
        let ft = FaultTolerantEvaluator::new(
            &ev,
            FaultPolicy {
                backoff: Duration::from_millis(8),
                ..FaultPolicy::default()
            },
        );
        let cfg = vec![1, 1];
        let d1 = ft.backoff_delay(&cfg, 1);
        let d2 = ft.backoff_delay(&cfg, 2);
        let d3 = ft.backoff_delay(&cfg, 3);
        assert!(d1 >= Duration::from_millis(8) && d1 < Duration::from_millis(16));
        assert!(d2 >= Duration::from_millis(16) && d2 < Duration::from_millis(24));
        assert!(d3 >= Duration::from_millis(32) && d3 < Duration::from_millis(40));
        assert_eq!(
            d1,
            ft.backoff_delay(&cfg, 1),
            "jitter must be deterministic"
        );
    }
}
