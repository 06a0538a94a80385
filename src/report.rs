//! Trace analysis behind the `moat-report` CLI.
//!
//! Consumes the JSONL traces written by `moat-tune --trace` (or by
//! [`Framework`](crate::Framework) with `trace` set) and reduces them to
//! the views a tuning engineer actually reads:
//!
//! * a **convergence table** per session — the exact `(iteration, E, |S|,
//!   V(S))` sequence the optimizer went through, reconstructed from
//!   `front_updated` records (it matches `TuningReport::trace` point for
//!   point),
//! * a **phase-time breakdown** summed over wall-mode spans
//!   (`cachesim.compile`, `cachesim.stream`, batch worker spans, …),
//! * **parked checkpoint writes** (saves that failed and left the
//!   on-disk resume point stale),
//! * a **version-selection histogram** per runtime region, and
//! * **archive traffic** (read hits/misses, merge adds/drops).
//!
//! Everything here is a pure function of the record list, so the rendered
//! report is as deterministic as the trace itself.

use moat_multiversion::VersionTable;
use moat_obs::{Event, Record};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One `(iteration, E, |S|, V(S))` point of a session's convergence.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceRow {
    /// Iteration the front update belongs to (0 = initial population).
    pub iteration: u64,
    /// Distinct evaluations `E` at this point.
    pub evaluations: u64,
    /// Front size `|S|`.
    pub size: u64,
    /// Hypervolume `V(S)`.
    pub hypervolume: f64,
}

/// One iteration's screening activity: real evaluations spent vs
/// configurations the surrogate screened away. Screened configurations are
/// never evaluated and consume no evaluation budget — `spent` counts only
/// the distinct-`E` increase of forwarded batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenRow {
    /// Iteration the activity belongs to (0 = initial population).
    pub iteration: u64,
    /// Distinct evaluations `E` spent during the iteration.
    pub spent: u64,
    /// Configurations screened away (no evaluation, no budget).
    pub screened: u64,
    /// Forwarded configurations owed to the ε-exploration coin.
    pub explored: u64,
}

/// One `surrogate_error` record: how well the model's predictions matched
/// the real measurements of one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateErrorRow {
    /// Training samples in the model when the batch was scored.
    pub samples: u64,
    /// Mean absolute normalized-score error, percent.
    pub mae_pct: f64,
    /// Spearman rank correlation (NaN when undefined for the batch).
    pub rank_corr: f64,
}

/// One tuning session reconstructed from the trace (a trace may hold
/// several, e.g. a program-level run tuning multiple regions).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionSummary {
    /// What was tuned (kernel/region name; may be empty).
    pub subject: String,
    /// Strategy name.
    pub strategy: String,
    /// The convergence sequence, in trace order.
    pub rows: Vec<ConvergenceRow>,
    /// Per-iteration E-spent vs E-screened (empty without a surrogate).
    pub screening: Vec<ScreenRow>,
    /// Per-batch surrogate model error (empty without a surrogate).
    pub surrogate_errors: Vec<SurrogateErrorRow>,
    /// Batches evaluated.
    pub batches: u64,
    /// Space-reduction (RS-GDE3 Rough-Set) steps.
    pub reductions: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Stop reason and final `E`, if the session ended in this trace.
    pub stop: Option<(String, u64)>,
}

/// Aggregated wall-mode span time for one phase name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans.
    pub calls: u64,
    /// Total duration in µs.
    pub total_us: u64,
}

/// Archive traffic seen in the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveReport {
    /// Reads that found a record.
    pub hits: u64,
    /// Reads that found nothing.
    pub misses: u64,
    /// Merge inserts across all writes.
    pub added: u64,
    /// Dominated points dropped across all writes.
    pub dropped: u64,
}

/// Runtime selector activity for one region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionReport {
    /// Selection count per version index.
    pub selections: BTreeMap<u64, u64>,
    /// Selection count per rendered backend id (mixed-backend tables only;
    /// empty when every version came from the same backend).
    pub backend_selections: BTreeMap<String, u64>,
    /// Health-policy demotions.
    pub demotions: u64,
    /// Health-policy restores.
    pub restores: u64,
    /// Times the fallback path engaged.
    pub fallbacks: u64,
}

/// Service-layer (serve daemon) control-plane activity: admission sheds,
/// circuit-breaker transitions, contained backend panics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Shed count by reason label.
    pub sheds: BTreeMap<String, u64>,
    /// Breaker transition count by state name (`open`, `half-open`,
    /// `closed`).
    pub breaker_transitions: BTreeMap<String, u64>,
    /// Backend panics contained by the daemon's per-job `catch_unwind`.
    pub panics: u64,
}

impl ServiceReport {
    /// True when the trace carried any service-level events.
    pub fn any(&self) -> bool {
        !self.sheds.is_empty() || !self.breaker_transitions.is_empty() || self.panics > 0
    }
}

/// The full analysis of one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Analysis {
    /// Records analysed.
    pub records: usize,
    /// Sessions, in trace order.
    pub sessions: Vec<SessionSummary>,
    /// Wall-mode phase totals by name (batch workers under
    /// `batch.worker`). Empty for logical traces.
    pub phases: BTreeMap<String, PhaseStat>,
    /// `checkpoint_parked` records (checkpoint saves that failed and left
    /// the on-disk resume point stale).
    pub parked_checkpoints: u64,
    /// Archive traffic.
    pub archive: ArchiveReport,
    /// Runtime selector activity by region.
    pub regions: BTreeMap<String, RegionReport>,
    /// Service-layer control-plane activity (serve daemon traces only).
    pub service: ServiceReport,
}

impl Analysis {
    /// Reduce a record list to the report model.
    pub fn from_records(records: &[Record]) -> Self {
        let mut a = Analysis {
            records: records.len(),
            ..Analysis::default()
        };
        // Per-session running state for the screening table: the current
        // iteration and the last seen total-E (the delta is an iteration's
        // E-spent).
        let mut iteration = 0u64;
        let mut last_e = 0u64;
        for r in records {
            match &r.event {
                Event::SessionStart { subject, strategy } => {
                    iteration = 0;
                    last_e = 0;
                    a.sessions.push(SessionSummary {
                        subject: subject.clone(),
                        strategy: strategy.clone(),
                        ..SessionSummary::default()
                    });
                }
                Event::IterationStart { iteration: i } => iteration = *i,
                Event::BatchEvaluated { evaluations, .. } => {
                    let spent = evaluations.saturating_sub(last_e);
                    last_e = *evaluations;
                    let s = a.session();
                    s.batches += 1;
                    // Attribute the batch's E to the current iteration's
                    // screening row — but only for screened sessions (the
                    // row exists iff a batch_screened preceded it).
                    if let Some(row) = s.screening.last_mut() {
                        if row.iteration == iteration {
                            row.spent += spent;
                        }
                    }
                }
                Event::BatchScreened {
                    screened, explored, ..
                } => {
                    let s = a.session();
                    match s.screening.last_mut() {
                        Some(row) if row.iteration == iteration => {
                            row.screened += screened;
                            row.explored += explored;
                        }
                        _ => s.screening.push(ScreenRow {
                            iteration,
                            spent: 0,
                            screened: *screened,
                            explored: *explored,
                        }),
                    }
                }
                Event::SurrogateError {
                    samples,
                    mae_pct,
                    rank_corr,
                } => a.session().surrogate_errors.push(SurrogateErrorRow {
                    samples: *samples,
                    mae_pct: *mae_pct,
                    rank_corr: rank_corr.unwrap_or(f64::NAN),
                }),
                Event::FrontUpdated {
                    iteration,
                    evaluations,
                    size,
                    hypervolume,
                } => a.session().rows.push(ConvergenceRow {
                    iteration: *iteration,
                    evaluations: *evaluations,
                    size: *size,
                    hypervolume: *hypervolume,
                }),
                Event::SpaceReduced { .. } => a.session().reductions += 1,
                Event::Checkpointed { .. } => a.session().checkpoints += 1,
                Event::Stopped {
                    reason,
                    evaluations,
                } => a.session().stop = Some((reason.clone(), *evaluations)),
                Event::CheckpointParked { .. } => a.parked_checkpoints += 1,
                Event::ArchiveRead { hit, .. } => {
                    if *hit {
                        a.archive.hits += 1
                    } else {
                        a.archive.misses += 1
                    }
                }
                Event::ArchiveWrite { added, dropped, .. } => {
                    a.archive.added += added;
                    a.archive.dropped += dropped;
                }
                Event::VersionSelected { region, version } => {
                    *a.region(region).selections.entry(*version).or_insert(0) += 1
                }
                Event::BackendSelected {
                    region, backend, ..
                } => {
                    *a.region(region)
                        .backend_selections
                        .entry(backend.clone())
                        .or_insert(0) += 1
                }
                Event::VersionDemoted { region, .. } => a.region(region).demotions += 1,
                Event::VersionRestored { region, .. } => a.region(region).restores += 1,
                Event::FallbackEngaged { region } => a.region(region).fallbacks += 1,
                Event::ServeShed { reason, .. } => {
                    *a.service.sheds.entry(reason.clone()).or_insert(0) += 1
                }
                Event::ServeBreaker { state, .. } => {
                    *a.service
                        .breaker_transitions
                        .entry(state.clone())
                        .or_insert(0) += 1
                }
                Event::ServePanic { .. } => a.service.panics += 1,
                // Causal job spans are analysed by [`SpanForest`], not the
                // flat report — a mixed record list just skips them here.
                Event::JobStage { .. } => {}
                Event::Phase { name } => a.phase(name, r.dur_us),
                Event::WorkerSpan { .. } => a.phase("batch.worker", r.dur_us),
            }
        }
        a
    }

    /// The session currently being filled (records before any
    /// `session_start` — e.g. archive warm-start reads happen framework-
    /// side — fall into an implicit anonymous session).
    fn session(&mut self) -> &mut SessionSummary {
        if self.sessions.is_empty() {
            self.sessions.push(SessionSummary::default());
        }
        self.sessions.last_mut().expect("just ensured non-empty")
    }

    fn region(&mut self, name: &str) -> &mut RegionReport {
        self.regions.entry(name.to_string()).or_default()
    }

    fn phase(&mut self, name: &str, dur_us: u64) {
        let s = self.phases.entry(name.to_string()).or_default();
        s.calls += 1;
        s.total_us += dur_us;
    }

    /// Render the human-readable report. Sections with nothing to say are
    /// omitted, so a plain logical tuning trace reads as just its
    /// convergence tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} records", self.records);
        for s in &self.sessions {
            let _ = writeln!(out);
            let name = if s.subject.is_empty() {
                "(unnamed)"
            } else {
                &s.subject
            };
            let _ = writeln!(out, "session: {name} via {}", s.strategy);
            let _ = writeln!(
                out,
                "  {:>9}  {:>8}  {:>5}  {:>12}",
                "iteration", "E", "|S|", "V(S)"
            );
            for row in &s.rows {
                let _ = writeln!(
                    out,
                    "  {:>9}  {:>8}  {:>5}  {:>12.6}",
                    row.iteration, row.evaluations, row.size, row.hypervolume
                );
            }
            if !s.screening.is_empty() {
                let _ = writeln!(
                    out,
                    "  screening (screened configs consume no evaluation budget):"
                );
                let _ = writeln!(
                    out,
                    "  {:>9}  {:>8}  {:>10}  {:>8}",
                    "iteration", "E-spent", "E-screened", "explored"
                );
                for row in &s.screening {
                    let _ = writeln!(
                        out,
                        "  {:>9}  {:>8}  {:>10}  {:>8}",
                        row.iteration, row.spent, row.screened, row.explored
                    );
                }
                let spent: u64 = s.screening.iter().map(|r| r.spent).sum();
                let screened: u64 = s.screening.iter().map(|r| r.screened).sum();
                let _ = writeln!(
                    out,
                    "  total: E-spent={spent} E-screened={screened} \
                     (screened configs were never evaluated and did not \
                     count against the budget)"
                );
            }
            if !s.surrogate_errors.is_empty() {
                let _ = writeln!(out, "  surrogate accuracy:");
                let _ = writeln!(
                    out,
                    "  {:>5}  {:>8}  {:>8}  {:>9}",
                    "batch", "samples", "mae%", "rank-corr"
                );
                for (i, e) in s.surrogate_errors.iter().enumerate() {
                    let rc = if e.rank_corr.is_nan() {
                        "      n/a".to_string()
                    } else {
                        format!("{:>9.3}", e.rank_corr)
                    };
                    let _ = writeln!(
                        out,
                        "  {:>5}  {:>8}  {:>8.2}  {rc}",
                        i + 1,
                        e.samples,
                        e.mae_pct
                    );
                }
                let mean_rc: Vec<f64> = s
                    .surrogate_errors
                    .iter()
                    .map(|e| e.rank_corr)
                    .filter(|rc| !rc.is_nan())
                    .collect();
                if !mean_rc.is_empty() {
                    let _ = writeln!(
                        out,
                        "  mean rank correlation: {:.3}",
                        mean_rc.iter().sum::<f64>() / mean_rc.len() as f64
                    );
                }
            }
            let _ = writeln!(
                out,
                "  batches={} reductions={} checkpoints={}",
                s.batches, s.reductions, s.checkpoints
            );
            if let Some((reason, evals)) = &s.stop {
                let _ = writeln!(out, "  stopped: {reason} after E={evals}");
            }
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nphase times:");
            for (name, st) in &self.phases {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>6} calls  {:>12} us",
                    name, st.calls, st.total_us
                );
            }
        }
        if self.parked_checkpoints > 0 {
            let _ = writeln!(
                out,
                "\ncheckpoints:\n  parked writes={}",
                self.parked_checkpoints
            );
        }
        let ar = &self.archive;
        if ar.hits + ar.misses + ar.added + ar.dropped > 0 {
            let _ = writeln!(out, "\narchive:");
            let _ = writeln!(
                out,
                "  reads: {} hit / {} miss; merges: +{} / -{} dominated",
                ar.hits, ar.misses, ar.added, ar.dropped
            );
        }
        if !self.regions.is_empty() {
            let _ = writeln!(out, "\nversion selections:");
            for (region, rep) in &self.regions {
                let total: u64 = rep.selections.values().sum();
                let _ = writeln!(out, "  region {region}: {total} invocations");
                for (version, count) in &rep.selections {
                    let bar_len = if total == 0 {
                        0
                    } else {
                        (count * 40).div_ceil(total) as usize
                    };
                    let _ = writeln!(out, "    v{version:<3} {count:>8}  {}", "#".repeat(bar_len));
                }
                for (backend, count) in &rep.backend_selections {
                    let _ = writeln!(out, "    backend {backend:<20} {count:>8}");
                }
                if rep.demotions + rep.restores + rep.fallbacks > 0 {
                    let _ = writeln!(
                        out,
                        "    health: demotions={} restores={} fallbacks={}",
                        rep.demotions, rep.restores, rep.fallbacks
                    );
                }
            }
        }
        if self.service.any() {
            let _ = writeln!(out, "\nservice:");
            if !self.service.sheds.is_empty() {
                let total: u64 = self.service.sheds.values().sum();
                let _ = writeln!(out, "  sheds: {total} total");
                for (reason, count) in &self.service.sheds {
                    let _ = writeln!(out, "    {reason:<16} {count:>8}");
                }
            }
            if !self.service.breaker_transitions.is_empty() {
                let transitions: Vec<String> = self
                    .service
                    .breaker_transitions
                    .iter()
                    .map(|(state, count)| format!("{state}={count}"))
                    .collect();
                let _ = writeln!(out, "  breaker transitions: {}", transitions.join(" "));
            }
            if self.service.panics > 0 {
                let _ = writeln!(out, "  contained backend panics: {}", self.service.panics);
            }
        }
        out
    }
}

/// One causal span of a traced serve job, lifted out of a `job_stage`
/// record. Span ids are deterministic (derived from the trace context),
/// durations are wall-clock.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpan {
    /// Trace id (16-digit hex) shared by the whole request tree.
    pub trace: String,
    /// This span's id.
    pub span: String,
    /// Parent span id (the client's root span for top-level stages).
    pub parent: String,
    /// Stage name (`admission`, `queue`, `run`, `eval`, `persist`, …).
    pub stage: String,
    /// Job the span belongs to.
    pub job: String,
    /// Submitting tenant.
    pub tenant: String,
    /// Free-form stage detail.
    pub detail: String,
    /// Wall duration in µs (0 for instantaneous marks).
    pub dur_us: u64,
    /// Emission order within the span log.
    seq: u64,
}

/// The causal span trees of traced serve jobs, reconstructed from a
/// `spans.jsonl` record list. Each traced job renders as an indented
/// span tree rooted at the client's span, followed by a critical-path
/// breakdown (submit vs queue vs eval vs persist).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanForest {
    /// Every job span, in emission order.
    pub spans: Vec<JobSpan>,
}

fn fmt_ms(us: u64) -> String {
    format!("{:.3} ms", us as f64 / 1000.0)
}

impl SpanForest {
    /// Collect the `job_stage` records of a trace (other kinds are
    /// ignored, so mixed logs can be fed in unfiltered).
    pub fn from_records(records: &[Record]) -> SpanForest {
        let spans = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::JobStage {
                    trace,
                    span,
                    parent,
                    stage,
                    job,
                    tenant,
                    detail,
                } => Some(JobSpan {
                    trace: trace.clone(),
                    span: span.clone(),
                    parent: parent.clone(),
                    stage: stage.clone(),
                    job: job.clone(),
                    tenant: tenant.clone(),
                    detail: detail.clone(),
                    dur_us: r.dur_us,
                    seq: r.seq,
                }),
                _ => None,
            })
            .collect();
        SpanForest { spans }
    }

    /// Restrict to one job: `query` matches a job id (`j0001`) or a trace
    /// id (16-digit hex).
    pub fn filtered(&self, query: &str) -> SpanForest {
        SpanForest {
            spans: self
                .spans
                .iter()
                .filter(|s| s.job == query || s.trace == query)
                .cloned()
                .collect(),
        }
    }

    /// Distinct job ids, in first-emission order.
    pub fn jobs(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.job) {
                out.push(s.job.clone());
            }
        }
        out
    }

    /// Render one job's span tree plus its critical-path breakdown.
    pub fn render_job(&self, job: &str) -> String {
        let spans: Vec<&JobSpan> = self.spans.iter().filter(|s| s.job == job).collect();
        let mut out = String::new();
        let Some(first) = spans.first() else {
            let _ = writeln!(out, "job {job}: no spans recorded");
            return out;
        };
        let _ = writeln!(
            out,
            "job {job} (tenant {}, trace {})",
            first.tenant, first.trace
        );
        // Top-level stages parent on the client's root span, which has no
        // record of its own — render it as the synthetic tree root.
        let ids: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.span.as_str()).collect();
        let roots: Vec<&JobSpan> = spans
            .iter()
            .filter(|s| !ids.contains(s.parent.as_str()))
            .copied()
            .collect();
        if let Some(root) = roots.first() {
            let _ = writeln!(out, "  client {}", root.parent);
        }
        fn walk(out: &mut String, spans: &[&JobSpan], parent: &JobSpan, depth: usize) {
            let mut children: Vec<&&JobSpan> =
                spans.iter().filter(|s| s.parent == parent.span).collect();
            children.sort_by_key(|s| s.seq);
            for child in children {
                let pad = "  ".repeat(depth);
                let detail = if child.detail.is_empty() {
                    String::new()
                } else {
                    format!("  {}", child.detail)
                };
                let _ = writeln!(
                    out,
                    "{pad}{:<10} {:>12}  span {}{}",
                    child.stage,
                    fmt_ms(child.dur_us),
                    child.span,
                    detail
                );
                walk(out, spans, child, depth + 1);
            }
        }
        let mut ordered_roots = roots.clone();
        ordered_roots.sort_by_key(|s| s.seq);
        for root in &ordered_roots {
            let pad = "    ";
            let detail = if root.detail.is_empty() {
                String::new()
            } else {
                format!("  {}", root.detail)
            };
            let _ = writeln!(
                out,
                "{pad}{:<10} {:>12}  span {}{}",
                root.stage,
                fmt_ms(root.dur_us),
                root.span,
                detail
            );
            walk(&mut out, &spans, root, 3);
        }
        // Critical path: the top-level stages are sequential per job, so
        // the end-to-end wall time decomposes exactly into submit
        // (admission), queue wait, evaluation (the run's eval children),
        // persistence (persist/archive/checkpoint children) and whatever
        // run time remains (strategy logic, screening, contention).
        let total: u64 = ordered_roots.iter().map(|s| s.dur_us).sum();
        let stage_sum = |stages: &[&str]| -> u64 {
            spans
                .iter()
                .filter(|s| stages.contains(&s.stage.as_str()))
                .map(|s| s.dur_us)
                .sum()
        };
        let submit = stage_sum(&["admission", "dedupe"]);
        let queue = stage_sum(&["queue"]);
        let eval = stage_sum(&["eval"]);
        let persist = stage_sum(&["persist", "archive", "checkpoint"]);
        let replay = stage_sum(&["replay"]);
        let accounted = submit + queue + eval + persist + replay;
        let other = total.saturating_sub(accounted);
        let pct = |us: u64| {
            if total == 0 {
                0.0
            } else {
                us as f64 / total as f64 * 100.0
            }
        };
        let mut parts = vec![
            format!("submit {} ({:.1}%)", fmt_ms(submit), pct(submit)),
            format!("queue {} ({:.1}%)", fmt_ms(queue), pct(queue)),
            format!("eval {} ({:.1}%)", fmt_ms(eval), pct(eval)),
            format!("persist {} ({:.1}%)", fmt_ms(persist), pct(persist)),
        ];
        if replay > 0 {
            parts.push(format!("replay {} ({:.1}%)", fmt_ms(replay), pct(replay)));
        }
        parts.push(format!("other {} ({:.1}%)", fmt_ms(other), pct(other)));
        let _ = writeln!(
            out,
            "  critical path: total {} = {}",
            fmt_ms(total),
            parts.join(" + ")
        );
        out
    }

    /// Render every job's tree, in first-emission order.
    pub fn render(&self) -> String {
        let jobs = self.jobs();
        if jobs.is_empty() {
            return "no job spans in trace\n".to_string();
        }
        let mut out = String::new();
        for (i, job) in jobs.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&self.render_job(job));
        }
        out
    }
}

/// Nearest-rank percentile of a sorted µs sample, in milliseconds.
fn percentile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64 / 1000.0
}

/// One tenant's SLO accounting in an [`SloReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantSlo {
    /// Traced jobs observed.
    pub jobs: u64,
    /// End-to-end (queue + run/replay) p50, ms.
    pub p50_ms: f64,
    /// End-to-end p99, ms.
    pub p99_ms: f64,
    /// Jobs whose end-to-end latency exceeded the SLO.
    pub over_slo: u64,
}

/// Phase-latency percentiles and per-tenant SLO burn, computed from the
/// span log of traced jobs. The burn rate compares the fraction of jobs
/// over the p99 target against the 1% budget a p99 objective implies: a
/// burn of 1.0 spends the error budget exactly, above 1.0 violates it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloReport {
    /// The p99 target, ms.
    pub slo_ms: f64,
    /// Phase → (p50 ms, p99 ms, samples).
    pub phases: BTreeMap<String, (f64, f64, u64)>,
    /// Tenant → SLO accounting.
    pub tenants: BTreeMap<String, TenantSlo>,
}

impl SloReport {
    /// Aggregate a span list against a p99 target.
    pub fn from_spans(forest: &SpanForest, slo_ms: f64) -> SloReport {
        let mut report = SloReport {
            slo_ms,
            ..SloReport::default()
        };
        let mut by_phase: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        // Per (job) end-to-end: queue wait + run (or replay) time.
        let mut e2e: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for s in &forest.spans {
            match s.stage.as_str() {
                "queue" | "eval" | "persist" | "run" => {
                    by_phase.entry(s.stage.as_str()).or_default().push(s.dur_us);
                }
                _ => {}
            }
            if matches!(s.stage.as_str(), "queue" | "run" | "replay") {
                *e2e.entry((s.tenant.as_str(), s.job.as_str())).or_insert(0) += s.dur_us;
            }
        }
        for (phase, mut durs) in by_phase {
            durs.sort_unstable();
            report.phases.insert(
                phase.to_string(),
                (
                    percentile_ms(&durs, 0.50),
                    percentile_ms(&durs, 0.99),
                    durs.len() as u64,
                ),
            );
        }
        let mut by_tenant: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for ((tenant, _job), us) in &e2e {
            by_tenant.entry(tenant).or_default().push(*us);
        }
        for (tenant, mut durs) in by_tenant {
            durs.sort_unstable();
            let over = durs
                .iter()
                .filter(|&&us| us as f64 / 1000.0 > slo_ms)
                .count() as u64;
            report.tenants.insert(
                tenant.to_string(),
                TenantSlo {
                    jobs: durs.len() as u64,
                    p50_ms: percentile_ms(&durs, 0.50),
                    p99_ms: percentile_ms(&durs, 0.99),
                    over_slo: over,
                },
            );
        }
        report
    }

    /// Render the SLO section.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SLO (end-to-end p99 target {:.1} ms, error budget 1%):",
            self.slo_ms
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>12} {:>12} {:>8}",
            "phase", "p50", "p99", "samples"
        );
        for (phase, (p50, p99, n)) in &self.phases {
            let _ = writeln!(
                out,
                "  {:<10} {:>9.3} ms {:>9.3} ms {:>8}",
                phase, p50, p99, n
            );
        }
        for (tenant, t) in &self.tenants {
            let frac_over = if t.jobs == 0 {
                0.0
            } else {
                t.over_slo as f64 / t.jobs as f64
            };
            let burn = frac_over / 0.01;
            let _ = writeln!(
                out,
                "  tenant {tenant}: {} jobs  e2e p50 {:.3} ms  p99 {:.3} ms  \
                 over-SLO {} (burn {burn:.1}x)",
                t.jobs, t.p50_ms, t.p99_ms, t.over_slo
            );
        }
        out
    }
}

/// One backend's row of a [`LossMatrix`]: its per-objective champions and
/// how far they fall short of the combined (all-backend) front.
#[derive(Debug, Clone, PartialEq)]
pub struct LossRow {
    /// Rendered backend id (`"(untagged)"` for provenance-less versions).
    pub backend: String,
    /// Versions the backend contributed to the table.
    pub versions: usize,
    /// Best value this backend achieves per objective.
    pub best: Vec<f64>,
    /// Percent loss of `best` against the combined best per objective
    /// (0 = this backend holds the champion).
    pub loss_pct: Vec<f64>,
}

/// Cross-backend loss matrix over one mixed-provenance [`VersionTable`] —
/// the paper's Table 6 asks "how much do you lose running code tuned for
/// machine X on machine Y"; this asks the analogous question across
/// *backends*: how much of each objective is lost by restricting the
/// version table to a single backend's entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LossMatrix {
    /// Region the table belongs to.
    pub region: String,
    /// Objective names, in table order.
    pub objective_names: Vec<String>,
    /// One row per backend, sorted by rendered id.
    pub rows: Vec<LossRow>,
}

impl LossMatrix {
    /// Compute the matrix from a version table. Versions without
    /// provenance are grouped under `"(untagged)"`, so pre-provenance
    /// tables produce a single all-zero-loss row.
    pub fn from_table(table: &VersionTable) -> Self {
        let m = table.objective_names.len();
        let mut groups: BTreeMap<String, Vec<&Vec<f64>>> = BTreeMap::new();
        for v in &table.versions {
            let name = v
                .provenance
                .as_ref()
                .map(|p| p.backend.to_string())
                .unwrap_or_else(|| "(untagged)".to_string());
            groups.entry(name).or_default().push(&v.objectives);
        }
        let best_of = |objs: &[&Vec<f64>]| -> Vec<f64> {
            (0..m)
                .map(|c| objs.iter().map(|o| o[c]).fold(f64::INFINITY, f64::min))
                .collect()
        };
        let combined = best_of(
            &table
                .versions
                .iter()
                .map(|v| &v.objectives)
                .collect::<Vec<_>>(),
        );
        let rows = groups
            .into_iter()
            .map(|(backend, objs)| {
                let best = best_of(&objs);
                let loss_pct = (0..m)
                    .map(|c| {
                        if combined[c] != 0.0 {
                            (best[c] - combined[c]) / combined[c] * 100.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                LossRow {
                    backend,
                    versions: objs.len(),
                    best,
                    loss_pct,
                }
            })
            .collect();
        LossMatrix {
            region: table.region.clone(),
            objective_names: table.objective_names.clone(),
            rows,
        }
    }

    /// Render the matrix as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total: usize = self.rows.iter().map(|r| r.versions).sum();
        let _ = writeln!(
            out,
            "cross-backend loss matrix: region {} ({} backends, {} versions)",
            self.region,
            self.rows.len(),
            total
        );
        let mut header = format!("{:<24} {:>4}", "backend", "n");
        for name in &self.objective_names {
            header.push_str(&format!("  {:>14} {:>8}", format!("best {name}"), "loss"));
        }
        let _ = writeln!(out, "{header}");
        for row in &self.rows {
            let mut line = format!("{:<24} {:>4}", row.backend, row.versions);
            for c in 0..self.objective_names.len() {
                line.push_str(&format!(
                    "  {:>14.6} {:>7.1}%",
                    row.best[c], row.loss_pct[c]
                ));
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, event: Event) -> Record {
        Record {
            seq,
            ts_us: 0,
            dur_us: 0,
            tid: 0,
            event,
        }
    }

    #[test]
    fn convergence_rows_follow_front_updates() {
        let records = vec![
            rec(
                1,
                Event::SessionStart {
                    subject: "mm".into(),
                    strategy: "rs-gde3".into(),
                },
            ),
            rec(
                2,
                Event::FrontUpdated {
                    iteration: 0,
                    evaluations: 30,
                    size: 2,
                    hypervolume: 0.0,
                },
            ),
            rec(
                3,
                Event::FrontUpdated {
                    iteration: 1,
                    evaluations: 60,
                    size: 3,
                    hypervolume: 0.25,
                },
            ),
            rec(
                4,
                Event::Stopped {
                    reason: "budget".into(),
                    evaluations: 60,
                },
            ),
        ];
        let a = Analysis::from_records(&records);
        assert_eq!(a.sessions.len(), 1);
        let s = &a.sessions[0];
        assert_eq!(s.subject, "mm");
        assert_eq!(
            s.rows,
            vec![
                ConvergenceRow {
                    iteration: 0,
                    evaluations: 30,
                    size: 2,
                    hypervolume: 0.0
                },
                ConvergenceRow {
                    iteration: 1,
                    evaluations: 60,
                    size: 3,
                    hypervolume: 0.25
                },
            ]
        );
        assert_eq!(s.stop, Some(("budget".into(), 60)));
        let text = a.render();
        assert!(text.contains("session: mm via rs-gde3"), "{text}");
        assert!(text.contains("stopped: budget after E=60"), "{text}");
    }

    #[test]
    fn histogram_and_phase_sections_appear_when_populated() {
        let mut records = vec![
            rec(
                1,
                Event::VersionSelected {
                    region: "mm".into(),
                    version: 0,
                },
            ),
            rec(
                2,
                Event::VersionSelected {
                    region: "mm".into(),
                    version: 0,
                },
            ),
            rec(
                3,
                Event::VersionSelected {
                    region: "mm".into(),
                    version: 2,
                },
            ),
        ];
        records.push(Record {
            seq: 3,
            ts_us: 5,
            dur_us: 120,
            tid: 1,
            event: Event::Phase {
                name: "cachesim.compile".into(),
            },
        });
        let a = Analysis::from_records(&records);
        assert_eq!(a.regions["mm"].selections[&0], 2);
        assert_eq!(a.regions["mm"].selections[&2], 1);
        assert_eq!(
            a.phases["cachesim.compile"],
            PhaseStat {
                calls: 1,
                total_us: 120
            }
        );
        let text = a.render();
        assert!(text.contains("region mm: 3 invocations"), "{text}");
        assert!(text.contains("cachesim.compile"), "{text}");
    }

    #[test]
    fn backend_selections_are_counted_and_rendered() {
        let records = vec![
            rec(
                1,
                Event::VersionSelected {
                    region: "mm".into(),
                    version: 0,
                },
            ),
            rec(
                2,
                Event::BackendSelected {
                    region: "mm".into(),
                    version: 0,
                    backend: "analytic:unroll4".into(),
                },
            ),
        ];
        let a = Analysis::from_records(&records);
        assert_eq!(a.regions["mm"].backend_selections["analytic:unroll4"], 1);
        let text = a.render();
        assert!(text.contains("backend analytic:unroll4"), "{text}");
    }

    #[test]
    fn loss_matrix_finds_per_backend_champions() {
        use moat_core::pareto::Point;
        use moat_core::{ParetoFront, Provenance};
        use moat_ir::{ParamDecl, ParamDomain, Skeleton};

        let sk = Skeleton::new(
            "s",
            vec![ParamDecl::new("threads", ParamDomain::Choice(vec![1, 2]))],
            vec![],
        );
        let front = ParetoFront::from_points(vec![
            Point::with_provenance(vec![1], vec![2.0, 1.0], Provenance::analytic("model")),
            Point::with_provenance(vec![2], vec![1.0, 4.0], Provenance::analytic("unroll4")),
        ]);
        let table = VersionTable::from_front(
            "mm",
            &sk,
            &front,
            vec!["time_s".into(), "cpu_seconds".into()],
            Some(0),
        );
        let matrix = LossMatrix::from_table(&table);
        assert_eq!(matrix.rows.len(), 2);
        let model = &matrix.rows[0];
        assert_eq!(model.backend, "analytic:model");
        // model's best time is 2.0 vs combined 1.0 → 100% loss; its
        // resource champion is the combined champion → 0% loss.
        assert_eq!(model.loss_pct, vec![100.0, 0.0]);
        let unrolled = &matrix.rows[1];
        assert_eq!(unrolled.loss_pct, vec![0.0, 300.0]);
        let text = matrix.render();
        assert!(
            text.contains("region mm (2 backends, 2 versions)"),
            "{text}"
        );
        assert!(text.contains("analytic:unroll4"), "{text}");
    }

    #[test]
    fn loss_matrix_untagged_table_is_single_zero_row() {
        use moat_core::pareto::Point;
        use moat_core::ParetoFront;
        use moat_ir::{ParamDecl, ParamDomain, Skeleton};

        let sk = Skeleton::new(
            "s",
            vec![ParamDecl::new("threads", ParamDomain::Choice(vec![1]))],
            vec![],
        );
        let front = ParetoFront::from_points(vec![
            Point::new(vec![1], vec![2.0, 1.0]),
            Point::new(vec![1], vec![1.0, 4.0]),
        ]);
        let table =
            VersionTable::from_front("mm", &sk, &front, vec!["t".into(), "r".into()], Some(0));
        let matrix = LossMatrix::from_table(&table);
        assert_eq!(matrix.rows.len(), 1);
        assert_eq!(matrix.rows[0].backend, "(untagged)");
        assert_eq!(matrix.rows[0].loss_pct, vec![0.0, 0.0]);
    }

    #[test]
    fn screening_rows_track_spent_vs_screened_per_iteration() {
        let records = vec![
            rec(
                1,
                Event::SessionStart {
                    subject: "mm".into(),
                    strategy: "rs-gde3".into(),
                },
            ),
            rec(2, Event::IterationStart { iteration: 1 }),
            rec(
                3,
                Event::BatchScreened {
                    requested: 30,
                    forwarded: 18,
                    explored: 3,
                    screened: 12,
                },
            ),
            rec(
                4,
                Event::BatchEvaluated {
                    requested: 30,
                    evaluated: 18,
                    evaluations: 18,
                    elapsed_us: None,
                },
            ),
            rec(
                5,
                Event::SurrogateError {
                    samples: 40,
                    mae_pct: 7.5,
                    rank_corr: Some(0.8),
                },
            ),
            rec(6, Event::IterationStart { iteration: 2 }),
            rec(
                7,
                Event::BatchScreened {
                    requested: 30,
                    forwarded: 15,
                    explored: 0,
                    screened: 15,
                },
            ),
            rec(
                8,
                Event::BatchEvaluated {
                    requested: 30,
                    evaluated: 15,
                    evaluations: 33,
                    elapsed_us: None,
                },
            ),
        ];
        let a = Analysis::from_records(&records);
        let s = &a.sessions[0];
        assert_eq!(
            s.screening,
            vec![
                ScreenRow {
                    iteration: 1,
                    spent: 18,
                    screened: 12,
                    explored: 3
                },
                ScreenRow {
                    iteration: 2,
                    spent: 15,
                    screened: 15,
                    explored: 0
                },
            ]
        );
        assert_eq!(s.surrogate_errors.len(), 1);
        assert_eq!(s.surrogate_errors[0].samples, 40);
        let text = a.render();
        assert!(
            text.contains("screened configs consume no evaluation budget"),
            "{text}"
        );
        assert!(text.contains("E-spent=33 E-screened=27"), "{text}");
        assert!(text.contains("surrogate accuracy"), "{text}");
        assert!(text.contains("mean rank correlation: 0.800"), "{text}");
    }

    #[test]
    fn unscreened_sessions_have_no_screening_rows() {
        let records = vec![
            rec(
                1,
                Event::SessionStart {
                    subject: "mm".into(),
                    strategy: "random".into(),
                },
            ),
            rec(
                2,
                Event::BatchEvaluated {
                    requested: 8,
                    evaluated: 8,
                    evaluations: 8,
                    elapsed_us: None,
                },
            ),
        ];
        let a = Analysis::from_records(&records);
        assert!(a.sessions[0].screening.is_empty());
        assert!(!a.render().contains("screening"));
    }

    #[test]
    fn events_before_session_start_join_an_anonymous_session() {
        let records = vec![
            rec(
                1,
                Event::BatchEvaluated {
                    requested: 4,
                    evaluated: 4,
                    evaluations: 4,
                    elapsed_us: None,
                },
            ),
            rec(
                2,
                Event::SessionStart {
                    subject: "mm".into(),
                    strategy: "grid".into(),
                },
            ),
        ];
        let a = Analysis::from_records(&records);
        assert_eq!(a.sessions.len(), 2);
        assert_eq!(a.sessions[0].batches, 1);
        assert_eq!(a.sessions[1].subject, "mm");
    }

    fn stage(seq: u64, dur_us: u64, stage: &str, span: &str, parent: &str, job: &str) -> Record {
        Record {
            seq,
            ts_us: 0,
            dur_us,
            tid: 0,
            event: Event::JobStage {
                trace: "00000000000000aa".into(),
                span: span.into(),
                parent: parent.into(),
                stage: stage.into(),
                job: job.into(),
                tenant: "acme".into(),
                detail: String::new(),
            },
        }
    }

    /// One traced job: admission + queue + run{eval, persist} — the tree
    /// renders under the synthetic client root and the critical path
    /// decomposes the top-level total.
    #[test]
    fn span_forest_renders_tree_and_critical_path() {
        let records = vec![
            stage(1, 100, "admission", "s1", "root", "j0001"),
            stage(2, 400, "queue", "s2", "root", "j0001"),
            stage(3, 700, "eval", "s4", "s3", "j0001"),
            stage(4, 200, "persist", "s5", "s3", "j0001"),
            stage(5, 1000, "run", "s3", "root", "j0001"),
        ];
        let forest = SpanForest::from_records(&records);
        assert_eq!(forest.jobs(), vec!["j0001"]);
        assert_eq!(forest.filtered("00000000000000aa").spans.len(), 5);
        assert_eq!(forest.filtered("j0001").spans.len(), 5);
        assert!(forest.filtered("nope").spans.is_empty());

        let text = forest.render_job("j0001");
        assert!(text.contains("job j0001 (tenant acme, trace 00000000000000aa)"));
        assert!(text.contains("client root"), "{text}");
        // eval/persist are children of run; the tree nests them deeper.
        let run_line = text.lines().find(|l| l.contains("run ")).unwrap();
        let eval_line = text.lines().find(|l| l.contains("eval ")).unwrap();
        assert!(
            eval_line.find("eval") > run_line.find("run"),
            "children indent past their parent: {text}"
        );
        // Total = admission + queue + run (top-level only).
        assert!(text.contains("critical path: total 1.500 ms"), "{text}");
        assert!(text.contains("queue 0.400 ms (26.7%)"), "{text}");
        // other = run - (eval + persist) = 100 µs.
        assert!(text.contains("other 0.100 ms"), "{text}");
    }

    /// Mixed-event input only picks up job stages,
    /// and an empty forest renders a clear message.
    #[test]
    fn span_forest_ignores_non_stage_events() {
        let records = vec![
            rec(
                1,
                Event::ServeShed {
                    reason: "queue_full".into(),
                    tenant: "acme".into(),
                },
            ),
            stage(2, 10, "admission", "s1", "root", "j0002"),
        ];
        assert_eq!(SpanForest::from_records(&records).spans.len(), 1);
        assert_eq!(SpanForest::default().render(), "no job spans in trace\n");
    }

    /// Percentiles are nearest-rank over per-phase samples; the burn rate
    /// is the over-SLO fraction against the 1% budget.
    #[test]
    fn slo_report_percentiles_and_burn() {
        let mut records = Vec::new();
        // 10 jobs: queue 1 ms each, run i ms (1..=10).
        for i in 1..=10u64 {
            let job = format!("j{i:04}");
            records.push(stage(2 * i, 1_000, "queue", &format!("q{i}"), "root", &job));
            records.push(stage(
                2 * i + 1,
                i * 1_000,
                "run",
                &format!("r{i}"),
                "root",
                &job,
            ));
        }
        let forest = SpanForest::from_records(&records);
        // SLO 8 ms: e2e = 1 + i ms, so i ∈ {8, 9, 10} are over → 3/10.
        let slo = SloReport::from_spans(&forest, 8.0);
        let (p50, p99, n) = slo.phases["run"];
        assert_eq!(n, 10);
        assert_eq!(p50, 5.0);
        assert_eq!(p99, 10.0);
        let acme = &slo.tenants["acme"];
        assert_eq!(acme.jobs, 10);
        assert_eq!(acme.over_slo, 3);
        assert_eq!(acme.p99_ms, 11.0);
        let text = slo.render();
        assert!(text.contains("p99 target 8.0 ms"), "{text}");
        // burn = (3/10) / 0.01 = 30×.
        assert!(text.contains("over-SLO 3 (burn 30.0x)"), "{text}");
    }
}
