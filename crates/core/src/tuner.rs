//! The unified tuning driver: every search strategy implements [`Tuner`]
//! and runs inside a [`TuningSession`].
//!
//! The session owns everything the paper's optimizer component shares
//! across strategies (§III-B): the configuration space, the counting/
//! caching evaluation layer (the `E` metric of Table VI), the parallel
//! batch evaluator, an optional hard evaluation *budget*, and an event
//! sink for progress tracing. Strategies only decide *which*
//! configurations to propose next; evaluation accounting, budget
//! enforcement and progress reporting are the session's job, so no
//! strategy can overrun its budget or diverge in how `E` is counted.
//!
//! ```
//! use moat_core::space::{Domain, ParamSpace};
//! use moat_core::tuner::{TuningSession, Tuner};
//! use moat_core::random::RandomTuner;
//! use moat_core::Config;
//!
//! let space = ParamSpace::new(
//!     vec!["x".into()],
//!     vec![Domain::Range { lo: 0, hi: 1000 }],
//! );
//! let ev = (2usize, |cfg: &Config| {
//!     let x = cfg[0] as f64;
//!     Some(vec![x * x, (x - 100.0) * (x - 100.0)])
//! });
//! let mut session = TuningSession::new(space, &ev).with_budget(50);
//! let report = session.run(&RandomTuner::new(7));
//! assert!(report.evaluations <= 50);
//! assert!(!report.front.is_empty());
//! ```

use crate::checkpoint::{
    rng_from_state, CheckpointError, CheckpointSink, SessionCheckpoint, TunerState,
    CHECKPOINT_FORMAT_VERSION,
};
use crate::evaluate::{BatchEval, CachingEvaluator, Evaluator, ObjVec};
use crate::grid::GridTuner;
use crate::nsga2::{Nsga2Params, Nsga2Tuner};
use crate::pareto::{ParetoArchive, ParetoFront, Point};
use crate::random::RandomTuner;
use crate::rsgde3::{FrontSignature, RsGde3Params, RsGde3Tuner};
use crate::space::{Config, ParamSpace};
use crate::surrogate::{SurrogateScreen, SurrogateStats};
use crate::wsum::{WeightedSumTuner, WeightedSweepParams};
use moat_obs::Obs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a tuning run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The strategy's own convergence criterion fired (e.g. RS-GDE3's
    /// patience on the front signature).
    Converged,
    /// The session's evaluation budget was reached.
    BudgetExhausted,
    /// The strategy's iteration cap was reached.
    MaxIterations,
    /// Every configuration in the space has been evaluated.
    SpaceExhausted,
    /// The strategy ran its fixed schedule to completion (grid sweeps,
    /// fixed-generation evolutionary runs, weighted sweeps).
    Completed,
    /// The session's wall-clock budget ran out (see
    /// [`TuningSession::with_time_budget`]).
    TimeBudgetExhausted,
    /// The run was cancelled cooperatively (see
    /// [`TuningSession::with_cancel`]): a shutdown flag flipped while the
    /// strategy was running, so it wound down at a batch boundary — with
    /// checkpointing on, the one whose checkpoint it saved last, which is
    /// the resume point.
    Cancelled,
}

impl StopReason {
    /// Short lowercase label (for logs and tables).
    pub fn name(&self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::BudgetExhausted => "budget-exhausted",
            StopReason::MaxIterations => "max-iterations",
            StopReason::SpaceExhausted => "space-exhausted",
            StopReason::Completed => "completed",
            StopReason::TimeBudgetExhausted => "time-budget-exhausted",
            StopReason::Cancelled => "cancelled",
        }
    }
}

/// Progress events emitted by the session (and, for strategy-specific
/// milestones, by the tuners themselves) during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum TuningEvent {
    /// A new strategy iteration (generation, sweep chunk, …) begins.
    IterationStart {
        /// 1-based iteration number.
        iteration: u32,
    },
    /// A batch of configurations was evaluated.
    BatchEvaluated {
        /// Number of configurations the strategy requested.
        requested: usize,
        /// Number actually evaluated (the rest were cut by the budget).
        evaluated: usize,
        /// Total distinct evaluations `E` after this batch.
        evaluations: u64,
        /// Wall time spent evaluating the batch. Measured only under a
        /// wall-mode observability handle
        /// ([`TuningSession::with_obs`]) or when the session opted in via
        /// [`TuningSession::with_batch_timing`]; `None` otherwise, so
        /// untraced and logical-mode runs never read the clock here.
        elapsed: Option<Duration>,
    },
    /// A surrogate screen decided a batch's fate (only emitted when
    /// screening is enabled via [`TuningSession::with_surrogate`]).
    /// Screened-away configurations are never evaluated and **consume no
    /// evaluation budget** — only forwarded configurations enter the
    /// budget admission of the following [`BatchEvaluated`](Self::BatchEvaluated).
    BatchScreened {
        /// Number of configurations the strategy requested.
        requested: usize,
        /// Number forwarded to the real evaluator.
        forwarded: usize,
        /// Forwarded configurations owed to the ε-exploration coin.
        explored: usize,
        /// Number withheld (never evaluated, no budget consumed).
        screened: usize,
    },
    /// Per-batch surrogate model error, measured by comparing the screen's
    /// predicted scores against the real measurements that came back
    /// (only emitted for screened batches with scored results).
    SurrogateError {
        /// Training samples in the model when the batch was scored.
        samples: usize,
        /// Mean absolute error of the normalized score, percent.
        mae_pct: f64,
        /// Spearman rank correlation between predicted and measured
        /// scores (`None` when undefined for the batch).
        rank_corr: Option<f64>,
    },
    /// The non-dominated front changed (or was re-measured).
    FrontUpdated {
        /// Signature (size, ideal point, hypervolume) of the new front.
        signature: FrontSignature,
    },
    /// The search space was reduced (RS-GDE3's Rough-Set step, Fig. 5).
    SpaceReduced {
        /// The new per-dimension bounding box.
        bbox: Vec<(i64, i64)>,
    },
    /// A checkpoint was offered to the sink, which saved it if it was due
    /// (only emitted when checkpointing is enabled via
    /// [`TuningSession::with_checkpointing`]).
    Checkpointed {
        /// The checkpoint's event cursor (checkpoint opportunities seen).
        seq: u64,
    },
    /// The run ended.
    Stopped {
        /// Why.
        reason: StopReason,
        /// Final distinct-evaluation count `E`.
        evaluations: u64,
    },
}

/// Receiver for [`TuningEvent`]s.
pub trait EventSink {
    /// Handle one event.
    fn event(&mut self, event: &TuningEvent);
}

impl<F: FnMut(&TuningEvent)> EventSink for F {
    fn event(&mut self, event: &TuningEvent) {
        self(event)
    }
}

/// An [`EventSink`] that records every event (for tests and diagnostics).
#[derive(Debug, Default)]
pub struct EventLog {
    /// The recorded events, in emission order.
    pub events: Vec<TuningEvent>,
}

impl EventLog {
    /// Empty log.
    pub fn new() -> Self {
        EventLog::default()
    }
}

impl EventSink for EventLog {
    fn event(&mut self, event: &TuningEvent) {
        self.events.push(event.clone());
    }
}

/// Unified result of a tuning run, for all strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningReport {
    /// Non-dominated subset of all evaluated configurations.
    pub front: ParetoFront,
    /// Every feasible evaluated point, in evaluation order (repeat
    /// requests served from the cache appear once per request).
    pub all: Vec<Point>,
    /// `E` — number of distinct configurations evaluated.
    pub evaluations: u64,
    /// Strategy iterations executed (generations, sweep chunks, …).
    pub iterations: u32,
    /// Why the run ended.
    pub stop: StopReason,
    /// Per-iteration front signatures (the progress trace; strategy
    /// dependent — see each tuner's documentation for what one entry
    /// covers).
    pub trace: Vec<FrontSignature>,
}

/// The live state of one strategy run: what a checkpoint saves, a resume
/// restores and the report is made of. [`TuningSession::start`] hands it
/// out, [`TuningSession::offer`] checkpoints it and
/// [`TuningSession::finish`] turns it into the [`TuningReport`]. A
/// strategy leaves the fields it has no use for empty; their meaning is
/// that of the [`TunerState`] field of the same name.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// The strategy's RNG (`None` for RNG-free strategies).
    pub rng: Option<StdRng>,
    /// Current population (GDE3/NSGA-II) or accumulated winners (wsum).
    pub population: Vec<Point>,
    /// Non-dominated subset of what the strategy kept; the report's front.
    pub archive: ParetoArchive,
    /// Every feasible point recorded so far ([`TuningReport::all`]).
    pub all: Vec<Point>,
    /// Per-iteration front signatures ([`TuningReport::trace`]).
    pub trace: Vec<FrontSignature>,
    /// Loop cursor: completed generations / weight sweeps / grid chunks.
    pub cursor: u64,
    /// Non-improving-iteration counter (RS-GDE3 convergence state).
    pub stall: u32,
    /// Reduced search-space box (RS-GDE3).
    pub bbox: Vec<(i64, i64)>,
    /// Per-objective scale pairs (NSGA-II bounds, wsum probe bounds).
    pub scale: Vec<(f64, f64)>,
}

/// Seed material for warm-starting a [`TuningSession`] from previously
/// archived tuning results.
///
/// Two kinds of reuse, with different budget semantics:
///
/// * **`hints`** — `(config, objectives)` pairs whose objective values are
///   *valid on this machine* (an exact archive match). They are primed into
///   the evaluation cache, so re-requesting them is a cache hit: it does
///   not run the objective function, does not bump `E`, and does not
///   consume budget.
/// * **`seeds`** — configurations worth trying first (e.g. a front
///   transferred from the *nearest* machine, whose objective values do not
///   carry over). Strategies inject them into their initial populations;
///   evaluating a seed that is not also hinted is a fresh evaluation and
///   counts against the budget like any other.
///
/// The split is what makes warm-start budget accounting honest: reused
/// measurements are free, transferred guesses are paid for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmStart {
    /// Configurations to inject into initial populations, best first.
    pub seeds: Vec<Config>,
    /// Known-valid `(config, objectives)` pairs to prime into the cache.
    pub hints: Vec<(Config, ObjVec)>,
}

impl WarmStart {
    /// Warm start from a front measured on *this* machine: every point
    /// seeds the population and primes the cache.
    pub fn exact(points: &[Point]) -> Self {
        WarmStart {
            seeds: points.iter().map(|p| p.config.clone()).collect(),
            hints: points
                .iter()
                .map(|p| (p.config.clone(), p.objectives.clone()))
                .collect(),
        }
    }

    /// Warm start from a front measured on a *different* machine: the
    /// configurations seed the population but their objective values are
    /// not trusted, so nothing is primed — seeds are re-evaluated here.
    pub fn transfer(points: &[Point]) -> Self {
        WarmStart {
            seeds: points.iter().map(|p| p.config.clone()).collect(),
            hints: Vec::new(),
        }
    }

    /// True when there is nothing to seed or prime.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty() && self.hints.is_empty()
    }
}

/// A search strategy that can run inside a [`TuningSession`].
pub trait Tuner {
    /// Short lowercase strategy name (for logs and tables).
    fn name(&self) -> &'static str;

    /// Run the strategy to completion inside `session`. Implementations
    /// must request all evaluations through [`TuningSession::evaluate`]
    /// (so budgets and the `E` metric are enforced uniformly) and should
    /// stop once [`TuningSession::budget_exhausted`] turns true. They keep
    /// their state in the [`Run`] from [`TuningSession::start`], offer it
    /// at safe boundaries ([`TuningSession::offer`]) and end with
    /// [`TuningSession::finish`].
    fn tune(&self, session: &mut TuningSession<'_>) -> TuningReport;
}

/// What the *host* of a session wires into it, as opposed to the run's own
/// options (space, batch, budget, label): the CLI's checkpoint file and
/// time budget, the daemon's stop flag, event log and archive-derived warm
/// start. [`TuningSession::with_hooks`] is the one place that applies them,
/// in the one order that is valid.
#[derive(Default)]
pub struct SessionHooks<'a> {
    /// Cooperative cancellation flag ([`TuningSession::with_cancel`]).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Measure per-batch wall time ([`TuningSession::with_batch_timing`]).
    pub batch_timing: bool,
    /// Wall-clock budget ([`TuningSession::with_time_budget`]).
    pub time_budget: Option<Duration>,
    /// Progress event sink ([`TuningSession::with_sink`]).
    pub events: Option<&'a mut dyn EventSink>,
    /// Checkpoint sink and cadence ([`TuningSession::with_checkpointing`]).
    pub checkpoint: Option<(&'a mut dyn CheckpointSink, u32)>,
    /// Warm start ([`TuningSession::with_warm_start`]).
    pub warm: Option<WarmStart>,
    /// Checkpoint to resume from ([`TuningSession::with_resume`]).
    pub resume: Option<SessionCheckpoint>,
}

/// One tuning run's shared state: space, caching/counting evaluator,
/// parallel batch, budget, and event sink.
pub struct TuningSession<'a> {
    space: ParamSpace,
    evaluator: CachingEvaluator<'a>,
    num_objectives: usize,
    batch: BatchEval,
    budget: Option<u64>,
    time_budget: Option<Duration>,
    started: Option<Instant>,
    time_exhausted: bool,
    /// Whether the last batch kept this thread evaluating for a thread
    /// start's worth of time; such a session's next batch starts its
    /// helpers before its first claim (see [`BatchEval::run`]).
    batch_dear: bool,
    cancel: Option<Arc<AtomicBool>>,
    /// What `cancel` read at the last checkpoint offer (`None` before the
    /// first): from then on the flag is honoured at boundaries only.
    cancel_latch: Option<bool>,
    cancelled: bool,
    sink: Option<&'a mut dyn EventSink>,
    ckpt_sink: Option<&'a mut dyn CheckpointSink>,
    ckpt_every: u32,
    ckpt_seq: u64,
    resume: Option<TunerState>,
    seeds: Vec<Config>,
    iteration: u32,
    budget_exhausted: bool,
    label: String,
    surrogate: Option<SurrogateScreen>,
    batch_timing: bool,
    obs: Obs,
}

impl<'a> TuningSession<'a> {
    /// New session over `space` evaluating with `evaluator`, using a
    /// host-sized parallel batch, no budget, and no event sink.
    pub fn new(space: ParamSpace, evaluator: &'a dyn Evaluator) -> Self {
        TuningSession {
            space,
            num_objectives: evaluator.num_objectives(),
            evaluator: CachingEvaluator::new(evaluator),
            batch: BatchEval::default(),
            budget: None,
            time_budget: None,
            started: None,
            time_exhausted: false,
            batch_dear: false,
            cancel: None,
            cancel_latch: None,
            cancelled: false,
            sink: None,
            ckpt_sink: None,
            ckpt_every: 1,
            ckpt_seq: 0,
            resume: None,
            seeds: Vec::new(),
            iteration: 0,
            budget_exhausted: false,
            label: String::new(),
            surrogate: None,
            batch_timing: false,
            obs: Obs::default(),
        }
    }

    /// Trace the run on `obs`: the session bridges every
    /// [`TuningEvent`] onto it and hands it to its batch workers. The
    /// default is a disabled handle, on which the session stays on the
    /// exact instruction path it had before tracing existed. Evaluator
    /// layers and stores that should report into the same trace take
    /// their own clone of the handle.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Label the session's subject (kernel or region name) for the
    /// observability stream's `session_start` record. Purely descriptive;
    /// defaults to empty.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Set the batch evaluator (e.g. [`BatchEval::sequential`] for
    /// deterministic single-threaded runs — results are identical either
    /// way, only wall-clock time differs).
    pub fn with_batch(mut self, batch: BatchEval) -> Self {
        self.batch = batch;
        self
    }

    /// Cap the number of distinct evaluations at `budget`. The session
    /// truncates over-budget batches, so no strategy can overrun.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Cap the run's wall-clock time. The clock starts when
    /// [`run`](Self::run) (or the first [`evaluate`](Self::evaluate))
    /// is called; once it expires, further batches are refused wholesale
    /// — the cut lands on a batch boundary, so the report for a given
    /// cutoff iteration is as deterministic as the budget-limited one,
    /// and the run stops with [`StopReason::TimeBudgetExhausted`].
    pub fn with_time_budget(mut self, limit: Duration) -> Self {
        self.time_budget = Some(limit);
        self
    }

    /// Attach a cooperative cancellation flag. Once `flag` turns true the
    /// session refuses further batches wholesale — the cut lands on a
    /// batch boundary, exactly like the wall-clock budget — so the
    /// strategy winds down and the run stops with
    /// [`StopReason::Cancelled`]. With checkpointing enabled the flag is
    /// read where a checkpoint is offered (see
    /// [`offer`](Self::offer)): a set flag forces that
    /// checkpoint to be saved whatever the sink thinks is due and refuses
    /// the next batch, so the run stops *at* a saved boundary and resuming
    /// it reproduces the uninterrupted run byte-identically, the same
    /// guarantee crash recovery has. Before the first offer, and without a
    /// sink, each batch start reads the flag itself. This is how
    /// `moat-serve` parks in-flight sessions on SIGTERM.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Attach an event sink receiving progress events.
    pub fn with_sink(mut self, sink: &'a mut dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Measure per-batch wall time even without a wall-mode obs handle,
    /// so [`TuningEvent::BatchEvaluated`] carries `elapsed` for the
    /// attached sink. Off by default: untimed runs never read the clock.
    /// `moat-serve` enables this for jobs carrying a trace context, where
    /// per-batch eval spans need real durations; the job's logical trace
    /// still drops them, so it stays byte-stable.
    pub fn with_batch_timing(mut self, on: bool) -> Self {
        self.batch_timing = on;
        self
    }

    /// Enable crash-safe checkpointing: every `every`-th checkpoint
    /// opportunity (tuners offer one after initialization and at the end
    /// of each iteration) is offered to `sink`, and those it says are
    /// [`due`](CheckpointSink::due) are assembled into a
    /// [`SessionCheckpoint`] and saved.
    pub fn with_checkpointing(mut self, sink: &'a mut dyn CheckpointSink, every: u32) -> Self {
        self.ckpt_sink = Some(sink);
        self.ckpt_every = every.max(1);
        self
    }

    /// Resume from a checkpoint: restores the evaluation cache, spent
    /// budget, iteration counter and checkpoint cursor, and holds the
    /// strategy-private state for the tuner to pick up via
    /// [`start`](Self::start). The checkpoint's budget is
    /// authoritative (it overrides any [`with_budget`](Self::with_budget)),
    /// so a resumed fixed-seed run reproduces the uninterrupted run
    /// byte-identically. Combining resume with
    /// [`with_warm_start`](Self::with_warm_start) is unsupported: the
    /// checkpoint already contains the primed cache.
    pub fn with_resume(mut self, ckpt: SessionCheckpoint) -> Result<Self, CheckpointError> {
        ckpt.validate(self.space.dims(), self.num_objectives)?;
        if ckpt.tuner.strategy != ckpt.strategy {
            return Err(CheckpointError::new(format!(
                "inconsistent checkpoint: session strategy '{}' vs tuner state '{}'",
                ckpt.strategy, ckpt.tuner.strategy
            )));
        }
        self.evaluator
            .restore(&ckpt.cache, ckpt.evaluations, ckpt.primed);
        self.budget = ckpt.budget;
        self.iteration = ckpt.iteration;
        self.budget_exhausted = ckpt.budget_exhausted;
        self.ckpt_seq = ckpt.seq;
        self.resume = Some(ckpt.tuner);
        Ok(self)
    }

    /// Warm-start the session: prime the evaluation cache with the
    /// `hints` (exact-match reuse, free of budget) and record the `seeds`
    /// for strategies to inject into their initial populations (see
    /// [`WarmStart`] for the budget semantics of each).
    ///
    /// Seeds are projected onto the space (`nearest`) and deduplicated,
    /// preserving order; hints are primed only for configurations the
    /// space actually contains (a stale hint for a reshaped space would
    /// otherwise leak foreign objective values into the run).
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        for (cfg, obj) in warm.hints {
            if self.space.contains(&cfg) && obj.len() == self.num_objectives {
                self.evaluator.prime(cfg, Some(obj));
            }
        }
        let mut seen: HashSet<Config> = HashSet::new();
        for cfg in warm.seeds {
            if cfg.len() != self.space.dims() {
                continue;
            }
            let cfg = self.space.nearest(&cfg);
            if seen.insert(cfg.clone()) {
                self.seeds.push(cfg);
            }
        }
        self
    }

    /// Apply everything the host wired up. Call after
    /// [`with_budget`](Self::with_budget) (a resumed checkpoint's budget
    /// overrides it) and before [`with_surrogate`](Self::with_surrogate)
    /// (which replays what warm start and resume put into the cache).
    pub fn with_hooks<'h: 'a>(mut self, hooks: SessionHooks<'h>) -> Result<Self, CheckpointError> {
        self.cancel = hooks.cancel;
        self.batch_timing = hooks.batch_timing;
        self.time_budget = hooks.time_budget;
        if let Some(sink) = hooks.events {
            self = self.with_sink(sink);
        }
        if let Some(warm) = hooks.warm {
            self = self.with_warm_start(warm);
        }
        if let Some((sink, every)) = hooks.checkpoint {
            self = self.with_checkpointing(sink, every);
        }
        match hooks.resume {
            Some(ckpt) => self.with_resume(ckpt),
            None => Ok(self),
        }
    }

    /// Enable surrogate screening: every batch a strategy requests is
    /// scored by `screen`'s online model, and only the policy's top
    /// fraction (plus seeded-deterministic exploration picks) is forwarded
    /// to the real evaluator. Screened-away configurations return `None`
    /// and **consume no evaluation budget**; every real measurement is fed
    /// back into the model in batch order.
    ///
    /// Call this *last* in the builder chain: it replays the evaluation
    /// cache (resume snapshots, warm-start hints) into the model, so
    /// anything primed earlier becomes training data. The model is
    /// order-independent by construction, which makes this replay exact —
    /// a resumed screened run sees the same model state the uninterrupted
    /// run had.
    ///
    /// Without this call the session stays on its exact pre-surrogate code
    /// path: disabled screening is byte-identical to no screening.
    pub fn with_surrogate(mut self, mut screen: SurrogateScreen) -> Self {
        for (cfg, result) in self.evaluator.snapshot() {
            if let Some(objs) = result {
                screen.prime(&cfg, &objs);
            }
        }
        self.surrogate = Some(screen);
        self
    }

    /// Running statistics of the surrogate screen (`None` when screening
    /// is disabled).
    pub fn surrogate_stats(&self) -> Option<&SurrogateStats> {
        self.surrogate.as_ref().map(|s| s.stats())
    }

    /// The surrogate screen, if enabled.
    pub fn surrogate(&self) -> Option<&SurrogateScreen> {
        self.surrogate.as_ref()
    }

    /// Warm-start seed configurations, projected onto the space and
    /// deduplicated (empty without [`with_warm_start`](Self::with_warm_start)).
    /// Strategies evaluate these before (or instead of part of) their
    /// random initial sampling.
    pub fn seed_configs(&self) -> &[Config] {
        &self.seeds
    }

    /// Number of cache entries primed by the warm start (hints accepted).
    pub fn primed(&self) -> u64 {
        self.evaluator.primed()
    }

    /// The configuration space being searched.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// Number of objectives of the wrapped evaluator.
    pub fn num_objectives(&self) -> usize {
        self.num_objectives
    }

    /// Distinct evaluations so far (the paper's `E`).
    pub fn evaluations(&self) -> u64 {
        self.evaluator.evaluations()
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Evaluations left before the budget is hit (`None` = unlimited).
    pub fn remaining_budget(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.evaluations()))
    }

    /// True once a batch had to be truncated (or fully refused) because
    /// the budget ran out. Strategies should wind down when this fires.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// Iterations started so far.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// The wall-clock budget, if any.
    pub fn time_budget(&self) -> Option<Duration> {
        self.time_budget
    }

    /// True once the wall-clock budget refused a batch.
    pub fn time_exhausted(&self) -> bool {
        self.time_exhausted
    }

    /// True once the cancellation flag refused a batch (see
    /// [`with_cancel`](Self::with_cancel)).
    pub fn cancelled(&self) -> bool {
        self.cancelled
    }

    /// Begin a strategy's run: the state a resumed checkpoint holds (see
    /// [`with_resume`](Self::with_resume)), or a fresh [`Run`] whose RNG
    /// is seeded from `seed` (`None`: the strategy draws no random
    /// numbers). The flag says which; a resumed strategy skips its
    /// initialization phase.
    pub fn start(&mut self, seed: Option<u64>) -> (Run, bool) {
        let Some(state) = self.resume.take() else {
            let rng = seed.map(StdRng::seed_from_u64);
            let run = Run {
                rng,
                ..Run::default()
            };
            return (run, false);
        };
        let run = Run {
            rng: seed
                .map(|s| rng_from_state(&state.rng).unwrap_or_else(|| StdRng::seed_from_u64(s))),
            population: state.population,
            archive: ParetoArchive::from_points(state.archive),
            all: state.all,
            trace: state.trace,
            cursor: state.cursor,
            stall: state.stall,
            bbox: state.bbox,
            scale: state.scale,
        };
        (run, true)
    }

    /// End a strategy's run: the report of `run`'s archive, points and
    /// trace at the session's counters.
    pub fn finish(&self, run: Run, stop: StopReason) -> TuningReport {
        TuningReport {
            front: run.archive.to_front(),
            all: run.all,
            evaluations: self.evaluations(),
            iterations: self.iteration,
            stop,
            trace: run.trace,
        }
    }

    /// Offer `run`, written by strategy `name`, as a checkpoint. A no-op
    /// without a sink. Otherwise the opportunity is counted, and every
    /// `every`-th one (see [`with_checkpointing`](Self::with_checkpointing))
    /// emits [`TuningEvent::Checkpointed`] — whether or not the sink wants
    /// it, so the event stream does not depend on the sink's timing. Only
    /// if the sink says the offer is [`due`](CheckpointSink::due) is the
    /// full [`SessionCheckpoint`] — session counters plus a sorted
    /// evaluation-cache snapshot plus `run`'s [`TunerState`] — assembled
    /// and saved.
    ///
    /// This is also where a cancel flag is honoured once checkpointing is
    /// on: it is read here, once per opportunity, and a set flag forces
    /// the save (off cadence and undue included) and refuses every later
    /// batch, so a cancelled run's last saved checkpoint is the boundary
    /// it stopped at. Must be called at a batch boundary (no evaluation
    /// in flight).
    pub fn offer(&mut self, name: &str, run: &Run) {
        let Some(sink) = self.ckpt_sink.as_mut() else {
            return;
        };
        self.ckpt_seq += 1;
        let cancelling = self
            .cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed));
        self.cancel_latch = Some(cancelling);
        if !cancelling && !self.ckpt_seq.is_multiple_of(self.ckpt_every as u64) {
            return;
        }
        if cancelling || sink.due() {
            sink.save(&SessionCheckpoint {
                format_version: CHECKPOINT_FORMAT_VERSION,
                strategy: name.to_string(),
                dims: self.space.dims(),
                num_objectives: self.num_objectives,
                evaluations: self.evaluator.evaluations(),
                primed: self.evaluator.primed(),
                budget: self.budget,
                iteration: self.iteration,
                budget_exhausted: self.budget_exhausted,
                seq: self.ckpt_seq,
                cache: self.evaluator.snapshot(),
                tuner: TunerState {
                    strategy: name.to_string(),
                    rng: run
                        .rng
                        .as_ref()
                        .map_or_else(Vec::new, |r| r.state().to_vec()),
                    cursor: run.cursor,
                    stall: run.stall,
                    population: run.population.clone(),
                    archive: run.archive.to_front().points().to_vec(),
                    all: run.all.clone(),
                    trace: run.trace.clone(),
                    bbox: run.bbox.clone(),
                    scale: run.scale.clone(),
                },
            });
        }
        let seq = self.ckpt_seq;
        self.emit(TuningEvent::Checkpointed { seq });
    }

    /// Emit an event to the sink (no-op without one) and bridge it into
    /// the observability stream (no-op on a disabled handle).
    pub fn emit(&mut self, event: TuningEvent) {
        self.bridge(&event);
        if let Some(sink) = self.sink.as_mut() {
            sink.event(&event);
        }
    }

    /// Translate a [`TuningEvent`] into its flat [`moat_obs::Event`]
    /// counterpart. The session is the single funnel for tuning events,
    /// so this one mapping covers every strategy. Front updates are
    /// enriched with the current iteration and distinct-evaluation count
    /// `E`, which is what lets `moat-report` reconstruct the exact
    /// convergence trace [`TuningReport::trace`] records.
    fn bridge(&self, event: &TuningEvent) {
        use moat_obs::Event;
        self.obs.emit(|| match event {
            TuningEvent::IterationStart { iteration } => Event::IterationStart {
                iteration: u64::from(*iteration),
            },
            TuningEvent::BatchEvaluated {
                requested,
                evaluated,
                evaluations,
                elapsed,
            } => Event::BatchEvaluated {
                requested: *requested as u64,
                evaluated: *evaluated as u64,
                evaluations: *evaluations,
                // Wall durations would make logical-mode traces differ
                // run-to-run, so they only reach the trace in wall mode.
                elapsed_us: elapsed
                    .filter(|_| self.obs.wall_enabled())
                    .map(|d| d.as_micros() as u64),
            },
            TuningEvent::BatchScreened {
                requested,
                forwarded,
                explored,
                screened,
            } => Event::BatchScreened {
                requested: *requested as u64,
                forwarded: *forwarded as u64,
                explored: *explored as u64,
                screened: *screened as u64,
            },
            TuningEvent::SurrogateError {
                samples,
                mae_pct,
                rank_corr,
            } => Event::SurrogateError {
                samples: *samples as u64,
                mae_pct: *mae_pct,
                rank_corr: *rank_corr,
            },
            TuningEvent::FrontUpdated { signature } => Event::FrontUpdated {
                iteration: u64::from(self.iteration),
                evaluations: self.evaluator.evaluations(),
                size: signature.size as u64,
                hypervolume: signature.hv,
            },
            TuningEvent::SpaceReduced { bbox } => Event::SpaceReduced {
                dims: bbox.len() as u64,
            },
            TuningEvent::Checkpointed { seq } => Event::Checkpointed { seq: *seq },
            TuningEvent::Stopped {
                reason,
                evaluations,
            } => Event::Stopped {
                reason: reason.name().to_string(),
                evaluations: *evaluations,
            },
        });
    }

    /// Start the next strategy iteration: bumps the counter and emits
    /// [`TuningEvent::IterationStart`]. Returns the new 1-based number.
    pub fn begin_iteration(&mut self) -> u32 {
        self.iteration += 1;
        let iteration = self.iteration;
        self.emit(TuningEvent::IterationStart { iteration });
        iteration
    }

    /// Announce a new front signature ([`TuningEvent::FrontUpdated`]).
    pub fn front_updated(&mut self, signature: &FrontSignature) {
        self.emit(TuningEvent::FrontUpdated {
            signature: signature.clone(),
        });
    }

    /// Announce a search-space reduction ([`TuningEvent::SpaceReduced`]).
    pub fn space_reduced(&mut self, bbox: &[(i64, i64)]) {
        self.emit(TuningEvent::SpaceReduced {
            bbox: bbox.to_vec(),
        });
    }

    /// Evaluate a batch of configurations, preserving order.
    ///
    /// Budget enforcement: configurations are admitted in order; each one
    /// that is neither cached nor a duplicate of an earlier admitted
    /// config consumes one unit of remaining budget. Once the budget is
    /// exhausted the rest of the batch returns `None` (and
    /// [`budget_exhausted`](Self::budget_exhausted) turns true). The cut
    /// is computed *before* evaluation from the cache state, so it does
    /// not depend on batch parallelism — runs are deterministic for a
    /// fixed seed regardless of thread count.
    pub fn evaluate(&mut self, configs: &[Config]) -> Vec<Option<ObjVec>> {
        // Cooperative cancellation: like the wall-clock budget, whole
        // batches are refused, so the cut never lands inside a batch. Once
        // a checkpoint has been offered the answer is the one latched
        // there, so the boundary the run stops at is one it saved.
        let cancelling = self.cancel_latch.unwrap_or_else(|| {
            self.cancel
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
        });
        if cancelling {
            self.cancelled = true;
            self.budget_exhausted = true;
            self.emit(TuningEvent::BatchEvaluated {
                requested: configs.len(),
                evaluated: 0,
                evaluations: self.evaluator.evaluations(),
                elapsed: None,
            });
            return vec![None; configs.len()];
        }
        // Wall-clock budget: once the deadline passes, whole batches are
        // refused — the cut lands on a batch boundary, never inside one.
        let started = *self.started.get_or_insert_with(Instant::now);
        if self
            .time_budget
            .is_some_and(|limit| started.elapsed() >= limit)
        {
            self.time_exhausted = true;
            self.budget_exhausted = true;
            self.emit(TuningEvent::BatchEvaluated {
                requested: configs.len(),
                evaluated: 0,
                evaluations: self.evaluator.evaluations(),
                elapsed: None,
            });
            return vec![None; configs.len()];
        }
        // Surrogate screening forks off here — the `None` branch below is
        // the untouched pre-surrogate code path, which is what makes
        // "surrogate disabled ⇒ byte-identical output" structural rather
        // than promised.
        if self.surrogate.is_some() {
            return self.evaluate_screened(configs);
        }
        let admitted = self.admit(configs, |_| true);
        // Batch wall time is observability payload only: the clock is
        // read solely when someone will see the duration, so untraced
        // runs stay on the exact instruction path they had before
        // tracing existed.
        let t0 = self.batch_clock();
        let mut results = self.batch.run_traced(
            &self.obs,
            &self.evaluator,
            &configs[..admitted],
            &mut self.batch_dear,
        );
        let elapsed = t0.map(|t| t.elapsed());
        results.resize(configs.len(), None);
        self.emit(TuningEvent::BatchEvaluated {
            requested: configs.len(),
            evaluated: admitted,
            evaluations: self.evaluator.evaluations(),
            elapsed,
        });
        results
    }

    /// Budget admission: walk `configs` in order; each one `keep(i)` that
    /// is neither cached nor a duplicate of an earlier admitted config
    /// consumes one unit of remaining budget. Returns how many leading
    /// configs are admitted — all of them, or up to the first that finds
    /// the budget spent, in which case
    /// [`budget_exhausted`](Self::budget_exhausted) turns true. Computed
    /// from the cache state before anything is evaluated.
    fn admit(&mut self, configs: &[Config], keep: impl Fn(usize) -> bool) -> usize {
        let Some(budget) = self.budget else {
            return configs.len();
        };
        let mut remaining = budget.saturating_sub(self.evaluations());
        let mut fresh: HashSet<&Config> = HashSet::new();
        for (i, cfg) in configs.iter().enumerate() {
            if keep(i) && !self.evaluator.is_cached(cfg) && !fresh.contains(cfg) {
                if remaining == 0 {
                    self.budget_exhausted = true;
                    return i;
                }
                remaining -= 1;
                fresh.insert(cfg);
            }
        }
        configs.len()
    }

    /// Start of a batch's wall time, when anyone will see it (see
    /// [`TuningEvent::BatchEvaluated`]).
    fn batch_clock(&self) -> Option<Instant> {
        (self.batch_timing || self.obs.wall_enabled()).then(Instant::now)
    }

    /// The screened variant of [`evaluate`](Self::evaluate): the surrogate
    /// plans the batch on this (control) thread before anything is
    /// dispatched, screened-out slots return `None` without consuming
    /// budget, forwarded configurations go through the same in-order
    /// budget admission as the unscreened path, and every real result is
    /// fed back into the model in batch order. All decisions are functions
    /// of `(model state, policy seed, batch)` — never of thread count or
    /// completion order — so screened runs are deterministic for a fixed
    /// seed across `BatchEval` parallelism.
    fn evaluate_screened(&mut self, configs: &[Config]) -> Vec<Option<ObjVec>> {
        let mut screen = self.surrogate.take().expect("screening enabled");
        let plan = screen.plan(configs, |cfg| self.evaluator.is_cached(cfg));
        // The unscreened path's budget admission, except that screened-out
        // slots are skipped: a config the surrogate withheld never counts
        // against the hard budget.
        let admitted = self.admit(configs, |i| plan.keep[i]);
        let forwarded: Vec<usize> = (0..admitted).filter(|&i| plan.keep[i]).collect();
        self.emit(TuningEvent::BatchScreened {
            requested: configs.len(),
            forwarded: plan.keep.iter().filter(|k| **k).count(),
            explored: plan.explored,
            screened: plan.keep.iter().filter(|k| !**k).count(),
        });
        let t0 = self.batch_clock();
        // A fully-open plan (ratio 1.0, untrained model, …) forwards the
        // batch as-is — no per-config clone on the overhead-critical path.
        let dear = &mut self.batch_dear;
        let results = if forwarded.len() == configs.len() {
            self.batch
                .run_traced(&self.obs, &self.evaluator, configs, dear)
        } else {
            let gathered: Vec<Config> = forwarded.iter().map(|&i| configs[i].clone()).collect();
            let evaluated = self
                .batch
                .run_traced(&self.obs, &self.evaluator, &gathered, dear);
            let mut scattered: Vec<Option<ObjVec>> = vec![None; configs.len()];
            for (&slot, r) in forwarded.iter().zip(evaluated) {
                scattered[slot] = r;
            }
            scattered
        };
        let elapsed = t0.map(|t| t.elapsed());
        let samples = screen.model().len();
        let err = screen.absorb(&plan, &results);
        self.surrogate = Some(screen);
        self.emit(TuningEvent::BatchEvaluated {
            requested: configs.len(),
            evaluated: forwarded.len(),
            evaluations: self.evaluator.evaluations(),
            elapsed,
        });
        if let Some(err) = err {
            self.emit(TuningEvent::SurrogateError {
                samples,
                mae_pct: err.mae_pct,
                rank_corr: err.rank_corr,
            });
        }
        results
    }

    /// Run `tuner` to completion and emit the final
    /// [`TuningEvent::Stopped`] event.
    ///
    /// A stop caused by the wall-clock budget (rather than the evaluation
    /// budget) is relabeled [`StopReason::TimeBudgetExhausted`].
    pub fn run(&mut self, tuner: &dyn Tuner) -> TuningReport {
        if let Some(state) = self.resume.as_ref() {
            assert_eq!(
                state.strategy,
                tuner.name(),
                "checkpoint was written by strategy '{}' but '{}' is running",
                state.strategy,
                tuner.name()
            );
        }
        self.started.get_or_insert_with(Instant::now);
        self.obs.emit(|| moat_obs::Event::SessionStart {
            subject: self.label.clone(),
            strategy: tuner.name().to_string(),
        });
        let mut report = tuner.tune(self);
        if self.cancelled && report.stop == StopReason::BudgetExhausted {
            report.stop = StopReason::Cancelled;
        } else if self.time_exhausted
            && report.stop == StopReason::BudgetExhausted
            && self.budget.is_none_or(|b| self.evaluations() < b)
        {
            report.stop = StopReason::TimeBudgetExhausted;
        }
        self.emit(TuningEvent::Stopped {
            reason: report.stop,
            evaluations: report.evaluations,
        });
        report
    }
}

/// Append the feasible `(config, objectives)` pairs of one evaluated batch
/// to a tuner's evaluation log.
pub(crate) fn record_feasible(all: &mut Vec<Point>, configs: &[Config], objs: &[Option<ObjVec>]) {
    for (cfg, obj) in configs.iter().zip(objs) {
        if let Some(o) = obj {
            all.push(Point::new(cfg.clone(), o.clone()));
        }
    }
}

/// Evaluate up to `cap` of the session's warm-start seeds (in seed order)
/// and return the feasible ones as points. Hinted seeds are cache hits
/// (free); transferred seeds are fresh evaluations and consume budget like
/// any other configuration. Population-based tuners call this before their
/// random initial sampling.
pub(crate) fn evaluate_seeds(session: &mut TuningSession<'_>, cap: usize) -> Vec<Point> {
    let configs: Vec<Config> = session.seed_configs().iter().take(cap).cloned().collect();
    if configs.is_empty() {
        return Vec::new();
    }
    let objs = session.evaluate(&configs);
    let mut points = Vec::new();
    record_feasible(&mut points, &configs, &objs);
    points
}

/// Grid points per `Range` dimension of [`StrategyKind::Grid`].
const GRID_STEPS: usize = 10;

/// The built-in search strategies, for CLI/facade strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Brute-force regular-grid sweep (paper §V-B.1).
    Grid,
    /// Uniform random sampling (paper §V-B.3).
    Random,
    /// Plain GDE3 without search-space reduction (ablation).
    Gde3,
    /// NSGA-II (additional evolutionary baseline).
    Nsga2,
    /// RS-GDE3 — the paper's algorithm (Fig. 4).
    RsGde3,
    /// Weighted-sum scalarization sweep (single-objective baseline).
    WeightedSum,
}

impl StrategyKind {
    /// All strategies, in presentation order.
    pub fn all() -> [StrategyKind; 6] {
        [
            StrategyKind::Grid,
            StrategyKind::Random,
            StrategyKind::Gde3,
            StrategyKind::Nsga2,
            StrategyKind::RsGde3,
            StrategyKind::WeightedSum,
        ]
    }

    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Grid => "grid",
            StrategyKind::Random => "random",
            StrategyKind::Gde3 => "gde3",
            StrategyKind::Nsga2 => "nsga2",
            StrategyKind::RsGde3 => "rs-gde3",
            StrategyKind::WeightedSum => "wsum",
        }
    }

    /// Parse a strategy name (accepts common aliases).
    pub fn parse(s: &str) -> Option<StrategyKind> {
        match s.to_ascii_lowercase().as_str() {
            "grid" | "brute" | "brute-force" => Some(StrategyKind::Grid),
            "random" | "rnd" => Some(StrategyKind::Random),
            "gde3" => Some(StrategyKind::Gde3),
            "nsga2" | "nsga-ii" | "nsga-2" => Some(StrategyKind::Nsga2),
            "rs-gde3" | "rsgde3" => Some(StrategyKind::RsGde3),
            "wsum" | "weighted-sum" | "weighted" => Some(StrategyKind::WeightedSum),
            _ => None,
        }
    }

    /// Build this strategy's [`Tuner`]. `params` are RS-GDE3's own (plain
    /// GDE3 runs them without the rough-set step; the other stochastic
    /// strategies take only their seed); the grid has ten points per
    /// `Range` dimension.
    pub fn tuner(self, params: RsGde3Params) -> Box<dyn Tuner> {
        let seed = params.seed;
        match self {
            StrategyKind::Grid => Box::new(GridTuner::new(GRID_STEPS)),
            StrategyKind::Random => Box::new(RandomTuner::new(seed)),
            StrategyKind::Gde3 => Box::new(RsGde3Tuner::new(RsGde3Params {
                use_roughset: false,
                ..params
            })),
            StrategyKind::Nsga2 => Box::new(Nsga2Tuner::new(Nsga2Params {
                seed,
                ..Default::default()
            })),
            StrategyKind::RsGde3 => Box::new(RsGde3Tuner::new(params)),
            StrategyKind::WeightedSum => Box::new(WeightedSumTuner::new(WeightedSweepParams {
                seed,
                ..Default::default()
            })),
        }
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    /// [`parse`](StrategyKind::parse), with the known names in the error.
    fn from_str(s: &str) -> Result<StrategyKind, String> {
        StrategyKind::parse(s).ok_or_else(|| {
            let known: Vec<_> = StrategyKind::all().iter().map(|k| k.name()).collect();
            format!("unknown strategy '{s}' (known: {})", known.join(", "))
        })
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> (
        ParamSpace,
        (usize, impl Fn(&Config) -> Option<ObjVec> + Sync),
    ) {
        let space = ParamSpace::new(
            vec!["x".into()],
            vec![crate::space::Domain::Range { lo: 0, hi: 1000 }],
        );
        let ev = (2usize, |cfg: &Config| {
            let x = cfg[0] as f64;
            Some(vec![x * x, (x - 100.0) * (x - 100.0)])
        });
        (space, ev)
    }

    #[test]
    fn budget_truncates_batches_deterministically() {
        let (space, ev) = problem();
        let mut session = TuningSession::new(space, &ev)
            .with_batch(BatchEval::sequential())
            .with_budget(3);
        let configs: Vec<Config> = (0..6).map(|i| vec![i]).collect();
        let out = session.evaluate(&configs);
        assert!(out[..3].iter().all(|o| o.is_some()));
        assert!(out[3..].iter().all(|o| o.is_none()));
        assert_eq!(session.evaluations(), 3);
        assert!(session.budget_exhausted());
        assert_eq!(session.remaining_budget(), Some(0));
    }

    #[test]
    fn cached_and_duplicate_configs_do_not_consume_budget() {
        let (space, ev) = problem();
        let mut session = TuningSession::new(space, &ev)
            .with_batch(BatchEval::sequential())
            .with_budget(2);
        assert!(session.evaluate(&[vec![1]])[0].is_some());
        // One budget unit left: the cached [1], an in-batch duplicate of
        // [2], and the fresh [2] all fit; only [3] is cut.
        let out = session.evaluate(&[vec![1], vec![2], vec![2], vec![3]]);
        assert!(out[0].is_some() && out[1].is_some() && out[2].is_some());
        assert!(out[3].is_none());
        assert_eq!(session.evaluations(), 2);
    }

    #[test]
    fn events_are_emitted_in_order() {
        let (space, ev) = problem();
        let mut log = EventLog::new();
        {
            let mut session = TuningSession::new(space, &ev)
                .with_batch(BatchEval::sequential())
                .with_sink(&mut log);
            session.begin_iteration();
            session.evaluate(&[vec![5]]);
            session.emit(TuningEvent::Stopped {
                reason: StopReason::Completed,
                evaluations: session.evaluations(),
            });
        }
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events[0], TuningEvent::IterationStart { iteration: 1 });
        assert!(matches!(
            log.events[1],
            TuningEvent::BatchEvaluated {
                requested: 1,
                evaluated: 1,
                evaluations: 1,
                elapsed: None
            }
        ));
        assert!(matches!(
            log.events[2],
            TuningEvent::Stopped {
                reason: StopReason::Completed,
                ..
            }
        ));
    }

    #[test]
    fn warm_start_hints_are_free_and_seeds_are_projected() {
        let (space, ev) = problem();
        let warm = WarmStart {
            seeds: vec![vec![5000], vec![10], vec![10], vec![7, 7]],
            hints: vec![(vec![10], vec![1.0, 2.0]), (vec![-3], vec![0.0, 0.0])],
        };
        let mut session = TuningSession::new(space, &ev)
            .with_batch(BatchEval::sequential())
            .with_budget(2)
            .with_warm_start(warm);
        // Seeds: 5000 projected to 1000, duplicate 10 dropped, wrong-arity
        // [7, 7] dropped.
        assert_eq!(session.seed_configs(), &[vec![1000], vec![10]]);
        // Out-of-space hint [-3] rejected; in-space hint primed.
        assert_eq!(session.primed(), 1);
        // The hinted config is a cache hit serving the archived objectives:
        // no fresh evaluation, no budget consumed.
        let out = session.evaluate(&[vec![10]]);
        assert_eq!(out[0], Some(vec![1.0, 2.0]));
        assert_eq!(session.evaluations(), 0);
        assert_eq!(session.remaining_budget(), Some(2));
        assert!(!session.budget_exhausted());
        // A non-hinted seed is a fresh evaluation and is paid for.
        let out = session.evaluate(&[vec![1000]]);
        assert!(out[0].is_some());
        assert_eq!(session.evaluations(), 1);
        assert_eq!(session.remaining_budget(), Some(1));
    }

    #[test]
    fn warm_start_hint_arity_mismatch_rejected() {
        let (space, ev) = problem();
        let warm = WarmStart {
            seeds: vec![],
            hints: vec![(vec![10], vec![1.0])], // 1 objective vs 2 expected
        };
        let session = TuningSession::new(space, &ev).with_warm_start(warm);
        assert_eq!(session.primed(), 0);
    }

    #[test]
    fn warm_start_constructors() {
        let pts = vec![
            Point::new(vec![1], vec![1.0, 2.0]),
            Point::new(vec![2], vec![2.0, 1.0]),
        ];
        let exact = WarmStart::exact(&pts);
        assert_eq!(exact.seeds.len(), 2);
        assert_eq!(exact.hints.len(), 2);
        let transfer = WarmStart::transfer(&pts);
        assert_eq!(transfer.seeds.len(), 2);
        assert!(transfer.hints.is_empty());
        assert!(WarmStart::default().is_empty());
        assert!(!exact.is_empty());
    }

    #[test]
    fn cancel_preset_stops_before_any_evaluation() {
        let (space, ev) = problem();
        let flag = Arc::new(AtomicBool::new(true));
        let mut session = TuningSession::new(space, &ev)
            .with_batch(BatchEval::sequential())
            .with_budget(100)
            .with_cancel(Arc::clone(&flag));
        let report = session.run(&crate::random::RandomTuner::new(7));
        assert_eq!(report.stop, StopReason::Cancelled);
        assert_eq!(report.evaluations, 0);
        assert!(session.cancelled());
    }

    #[test]
    fn cancel_mid_run_then_resume_matches_uninterrupted() {
        use crate::checkpoint::MemorySink;
        use std::sync::atomic::AtomicUsize;

        let space = ParamSpace::new(
            vec!["x".into()],
            vec![crate::space::Domain::Range { lo: 0, hi: 1000 }],
        );
        let tuner = crate::random::RandomTuner::new(11);
        let budget = 150u64;

        // Reference: uninterrupted run.
        let ev = (2usize, |cfg: &Config| {
            let x = cfg[0] as f64;
            Some(vec![x * x, (x - 100.0) * (x - 100.0)])
        });
        let mut reference = TuningSession::new(space.clone(), &ev)
            .with_batch(BatchEval::sequential())
            .with_budget(budget);
        let expected = reference.run(&tuner);
        assert_eq!(expected.stop, StopReason::BudgetExhausted);

        // Cancelled run: the flag flips from inside the evaluator after 70
        // fresh evaluations, so the session winds down at the next batch
        // boundary with a checkpoint already on disk (well, in memory).
        let flag = Arc::new(AtomicBool::new(false));
        let trip = Arc::clone(&flag);
        let count = AtomicUsize::new(0);
        let cancelling_ev = (2usize, move |cfg: &Config| {
            if count.fetch_add(1, Ordering::Relaxed) + 1 >= 70 {
                trip.store(true, Ordering::Relaxed);
            }
            let x = cfg[0] as f64;
            Some(vec![x * x, (x - 100.0) * (x - 100.0)])
        });
        let mut sink = MemorySink::default();
        let report = {
            let mut session = TuningSession::new(space.clone(), &cancelling_ev)
                .with_batch(BatchEval::sequential())
                .with_budget(budget)
                .with_cancel(Arc::clone(&flag))
                .with_checkpointing(&mut sink, 1);
            session.run(&tuner)
        };
        assert_eq!(report.stop, StopReason::Cancelled);
        assert!(report.evaluations >= 70 && report.evaluations < budget);

        // Resume from the last checkpoint with no cancel flag: the tail
        // replays and the final report is identical to the uninterrupted
        // run.
        let ckpt = sink.saved.last().expect("checkpoint written").clone();
        let mut resumed = TuningSession::new(space, &ev)
            .with_batch(BatchEval::sequential())
            .with_resume(ckpt)
            .expect("valid checkpoint");
        let actual = resumed.run(&tuner);
        assert_eq!(actual.stop, expected.stop);
        assert_eq!(actual.evaluations, expected.evaluations);
        assert_eq!(actual.front.points(), expected.front.points());
        assert_eq!(actual.all, expected.all);
        assert_eq!(actual.trace, expected.trace);
    }

    #[test]
    fn strategy_kind_roundtrip() {
        for kind in StrategyKind::all() {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind));
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(StrategyKind::parse("NSGA-II"), Some(StrategyKind::Nsga2));
        assert_eq!(StrategyKind::parse("brute-force"), Some(StrategyKind::Grid));
        assert_eq!(StrategyKind::parse("nope"), None);
    }
}
