//! Daemon-level counters and the `/metrics` snapshot.
//!
//! Two layers compose the scrape text:
//!
//! * **serve-native counters** (`serve_*` families) — live atomics bumped
//!   by the daemon itself: submissions, dedupe hits, warm replays,
//!   completions, pool evaluations, compaction sweeps, checkpoints
//!   written, superseded, declined and parked;
//! * **the PR 5 tuning metrics** (`moat_*` families) — rendered by
//!   [`moat_obs::metrics::render`] over the records every finished job's
//!   session emitted, so the same families a single `moat-tune` run
//!   exports stay scrapeable in service mode.
//!
//! The phase-latency and checkpoint-write histograms keep live atomics
//! (they are observed on the request path and the checkpointer thread)
//! but search buckets and render through the one
//! [`moat_obs::metrics::Histogram`].

use crate::admission::ShedReason;
use moat_obs::metrics::Histogram;
use moat_obs::Record;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed bucket upper bounds (µs) for the per-phase latency histograms.
/// Rendered in seconds; chosen once so scrapes are comparable across
/// runs: 1ms … 60s.
const PHASE_BUCKETS_US: [u64; 8] = [
    1_000, 5_000, 25_000, 100_000, 500_000, 2_500_000, 10_000_000, 60_000_000,
];

/// One latency histogram plus its most recent exemplar: the
/// trace id (and observed value) of the last *traced* request that went
/// through the phase, attached to the `+Inf` bucket OpenMetrics-style so
/// a dashboard can jump from a latency spike to a concrete trace.
#[derive(Default)]
pub struct PhaseLatency {
    buckets: [AtomicU64; PHASE_BUCKETS_US.len()],
    count: AtomicU64,
    sum_us: AtomicU64,
    exemplar: Mutex<Option<(String, u64)>>,
}

impl std::fmt::Debug for PhaseLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseLatency")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum_us", &self.sum_us.load(Ordering::Relaxed))
            .finish()
    }
}

impl PhaseLatency {
    /// Record one observation. `trace` is the 16-hex trace id when the
    /// request was traced; untraced traffic still lands in the histogram
    /// (the families cover *all* jobs) but never touches the exemplar.
    pub fn observe(&self, us: u64, trace: Option<&str>) {
        // Over-bound observations count only in +Inf (the running count).
        if let Some(slot) = Histogram::slot(&PHASE_BUCKETS_US, us) {
            self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        if let Some(t) = trace {
            *self.exemplar.lock() = Some((t.to_string(), us));
        }
    }

    fn render(&self, name: &str, labels: &str, out: &mut String) {
        let snapshot = Histogram::from_parts(
            &PHASE_BUCKETS_US,
            self.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            self.count.load(Ordering::Relaxed),
            self.sum_us.load(Ordering::Relaxed),
        );
        let exemplar = self.exemplar.lock();
        let exemplar = exemplar.as_ref().map(|(t, us)| (t.as_str(), *us));
        snapshot.render(name, labels, exemplar, out);
    }
}

/// Live daemon counters. All relaxed atomics: scrapes are snapshots, not
/// barriers.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Jobs accepted by `POST /jobs` (including deduped ones).
    pub jobs_submitted: AtomicU64,
    /// Submissions coalesced onto an existing job.
    pub jobs_deduped: AtomicU64,
    /// Jobs served from the archive as a zero-evaluation warm replay.
    pub jobs_replayed: AtomicU64,
    /// Jobs finished successfully (including replays).
    pub jobs_completed: AtomicU64,
    /// Jobs that errored.
    pub jobs_failed: AtomicU64,
    /// Sessions resumed from a checkpoint after a restart.
    pub jobs_resumed: AtomicU64,
    /// Evaluations admitted through the shared pool.
    pub pool_evaluations: AtomicU64,
    /// Background compaction sweeps.
    pub compactions: AtomicU64,
    /// Incoming records folded into shards by compaction.
    pub compacted_records: AtomicU64,
    /// Checkpoint saves that failed and were parked (the serve-side gauge
    /// for `checkpoint_parked` events).
    pub parked_checkpoints: AtomicU64,
    /// HTTP exchanges served.
    pub http_requests: AtomicU64,
    /// HTTP exchanges answered with a 4xx/5xx.
    pub http_errors: AtomicU64,
    /// Sheds by reason (indexed by [`ShedReason`] discriminant order:
    /// queue, connections, tenant_inflight, tenant_rate, breaker,
    /// slow_client, shutdown).
    pub sheds: [AtomicU64; 7],
    /// Jobs waiting in the bounded queue (gauge).
    pub queue_depth: AtomicU64,
    /// Circuit breakers currently open or half-open (gauge).
    pub breakers_tripped: AtomicU64,
    /// Times any breaker opened or re-opened.
    pub breaker_trips: AtomicU64,
    /// Backend panics contained by the job-level `catch_unwind`.
    pub backend_panics: AtomicU64,
    /// Failed job-table journal/snapshot writes (the table stays correct
    /// in memory; a restart would lose the unwritten rows).
    pub persist_errors: AtomicU64,
    /// Connections currently being handled (gauge).
    pub connections_active: AtomicU64,
    /// The most connections ever open at once (gauge): the daemon never
    /// starts more handler threads than this.
    pub connections_peak: AtomicU64,
    /// `POST /jobs` handling latency (parse, validate, admission).
    pub phase_submit: PhaseLatency,
    /// Enqueue-to-worker-pickup wait.
    pub phase_queue: PhaseLatency,
    /// Backend run time (the evaluation phase of a job).
    pub phase_eval: PhaseLatency,
    /// Result/trace/archive/state persistence after a run, the wait for
    /// its checkpoint slot to settle included.
    pub phase_persist: PhaseLatency,
    /// Checkpoints the checkpointer made durable.
    pub checkpoints_written: AtomicU64,
    /// Checkpoints handed off but never written: replaced by a newer one
    /// of the same run, or dropped because the run finished first.
    pub checkpoints_superseded: AtomicU64,
    /// Checkpoint offers the job's sink declined: never assembled, never
    /// handed off.
    pub checkpoints_declined: AtomicU64,
    /// Connection handler threads alive, parked or serving (gauge).
    pub conn_handlers: AtomicU64,
    /// Hand-off to durable, per written checkpoint: how far the file on
    /// disk lags the session it can restart.
    pub checkpoint_write: PhaseLatency,
}

/// Render order of the shed-reason label set — must cover every
/// [`ShedReason`].
const SHED_REASONS: [ShedReason; 7] = [
    ShedReason::Queue,
    ShedReason::Connections,
    ShedReason::TenantInflight,
    ShedReason::TenantRate,
    ShedReason::Breaker,
    ShedReason::SlowClient,
    ShedReason::Shutdown,
];

impl ServeMetrics {
    /// The counter slot for a shed reason.
    fn shed_slot(reason: ShedReason) -> usize {
        SHED_REASONS
            .iter()
            .position(|r| *r == reason)
            .expect("reason in table")
    }

    /// Count one shed decision.
    pub fn shed(&self, reason: ShedReason) {
        self.sheds[Self::shed_slot(reason)].fetch_add(1, Ordering::Relaxed);
    }

    /// One reason's shed count.
    pub fn sheds_for(&self, reason: ShedReason) -> u64 {
        self.sheds[Self::shed_slot(reason)].load(Ordering::Relaxed)
    }

    /// Total sheds across all reasons.
    pub fn sheds_total(&self) -> u64 {
        self.sheds.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Render the full `/metrics` text: serve-native families first, then
    /// the `moat_*` families derived from `job_records`.
    pub fn render(&self, job_records: &[Record]) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter(
            "serve_jobs_submitted_total",
            "Jobs accepted by POST /jobs.",
            self.jobs_submitted.load(Ordering::Relaxed),
        );
        counter(
            "serve_jobs_deduped_total",
            "Submissions coalesced onto an existing job.",
            self.jobs_deduped.load(Ordering::Relaxed),
        );
        counter(
            "serve_jobs_replayed_total",
            "Jobs served from the archive at E=0.",
            self.jobs_replayed.load(Ordering::Relaxed),
        );
        counter(
            "serve_jobs_completed_total",
            "Jobs finished successfully.",
            self.jobs_completed.load(Ordering::Relaxed),
        );
        counter(
            "serve_jobs_failed_total",
            "Jobs that errored.",
            self.jobs_failed.load(Ordering::Relaxed),
        );
        counter(
            "serve_jobs_resumed_total",
            "Sessions resumed from checkpoints after restart.",
            self.jobs_resumed.load(Ordering::Relaxed),
        );
        counter(
            "serve_pool_evaluations_total",
            "Evaluations admitted through the shared pool.",
            self.pool_evaluations.load(Ordering::Relaxed),
        );
        counter(
            "serve_compactions_total",
            "Background shard compaction sweeps.",
            self.compactions.load(Ordering::Relaxed),
        );
        counter(
            "serve_compacted_records_total",
            "Incoming records folded into shards.",
            self.compacted_records.load(Ordering::Relaxed),
        );
        counter(
            "serve_http_requests_total",
            "HTTP exchanges served.",
            self.http_requests.load(Ordering::Relaxed),
        );
        counter(
            "serve_http_errors_total",
            "HTTP exchanges answered 4xx/5xx.",
            self.http_errors.load(Ordering::Relaxed),
        );
        counter(
            "serve_breaker_trips_total",
            "Circuit-breaker open/re-open transitions.",
            self.breaker_trips.load(Ordering::Relaxed),
        );
        counter(
            "serve_backend_panics_total",
            "Backend panics contained to their job.",
            self.backend_panics.load(Ordering::Relaxed),
        );
        counter(
            "serve_persist_errors_total",
            "Failed job-table journal/snapshot writes.",
            self.persist_errors.load(Ordering::Relaxed),
        );
        counter(
            "serve_checkpoints_written_total",
            "Session checkpoints made durable.",
            self.checkpoints_written.load(Ordering::Relaxed),
        );
        counter(
            "serve_checkpoints_superseded_total",
            "Session checkpoints replaced or dropped before being written.",
            self.checkpoints_superseded.load(Ordering::Relaxed),
        );
        counter(
            "serve_checkpoints_declined_total",
            "Checkpoint offers a job's sink declined before anything was assembled.",
            self.checkpoints_declined.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP serve_shed_total Requests shed at admission, by reason.\n\
             # TYPE serve_shed_total counter\n",
        );
        for (i, reason) in SHED_REASONS.iter().enumerate() {
            out.push_str(&format!(
                "serve_shed_total{{reason=\"{}\"}} {}\n",
                reason.label(),
                self.sheds[i].load(Ordering::Relaxed)
            ));
        }
        let mut gauge = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge(
            "serve_queue_depth",
            "Jobs waiting in the bounded queue.",
            self.queue_depth.load(Ordering::Relaxed),
        );
        gauge(
            "serve_breaker_state",
            "Circuit breakers currently open or half-open.",
            self.breakers_tripped.load(Ordering::Relaxed),
        );
        gauge(
            "serve_connections_active",
            "Connections currently being handled.",
            self.connections_active.load(Ordering::Relaxed),
        );
        gauge(
            "serve_connections_peak",
            "The most connections ever open at once.",
            self.connections_peak.load(Ordering::Relaxed),
        );
        gauge(
            "serve_conn_handlers",
            "Connection handler threads alive, parked or serving.",
            self.conn_handlers.load(Ordering::Relaxed),
        );
        gauge(
            "serve_parked_checkpoints",
            "Checkpoint saves that failed and were parked.",
            self.parked_checkpoints.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP serve_phase_seconds Request latency per service phase \
             (exemplar: last traced request).\n\
             # TYPE serve_phase_seconds histogram\n",
        );
        for (phase, latency) in [
            ("submit", &self.phase_submit),
            ("queue", &self.phase_queue),
            ("eval", &self.phase_eval),
            ("persist", &self.phase_persist),
        ] {
            latency.render(
                "serve_phase_seconds",
                &format!("phase=\"{phase}\""),
                &mut out,
            );
        }
        out.push_str(
            "# HELP serve_checkpoint_write_seconds Hand-off to durable, per written \
             session checkpoint.\n\
             # TYPE serve_checkpoint_write_seconds histogram\n",
        );
        self.checkpoint_write
            .render("serve_checkpoint_write_seconds", "", &mut out);
        out.push_str(&moat_obs::metrics::render(job_records));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_contains_both_layers() {
        let m = ServeMetrics::default();
        m.jobs_submitted.store(5, Ordering::Relaxed);
        m.jobs_deduped.store(2, Ordering::Relaxed);
        let text = m.render(&[]);
        assert!(text.contains("serve_jobs_submitted_total 5\n"), "{text}");
        assert!(text.contains("serve_jobs_deduped_total 2\n"));
        assert!(text.contains("serve_parked_checkpoints 0\n"));
        assert!(
            text.contains("moat_evaluations_total 0\n"),
            "obs layer present"
        );
    }

    #[test]
    fn shed_counters_render_labeled_families() {
        let m = ServeMetrics::default();
        m.shed(ShedReason::Queue);
        m.shed(ShedReason::Queue);
        m.shed(ShedReason::TenantInflight);
        m.queue_depth.store(3, Ordering::Relaxed);
        m.breakers_tripped.store(1, Ordering::Relaxed);
        let text = m.render(&[]);
        assert!(
            text.contains("serve_shed_total{reason=\"queue\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("serve_shed_total{reason=\"tenant_inflight\"} 1\n"));
        assert!(text.contains("serve_shed_total{reason=\"breaker\"} 0\n"));
        assert!(text.contains("serve_queue_depth 3\n"));
        assert!(text.contains("serve_breaker_state 1\n"));
        assert!(text.contains("serve_persist_errors_total 0\n"));
        assert!(text.contains("serve_checkpoints_written_total 0\n"));
        assert!(text.contains("serve_checkpoints_superseded_total 0\n"));
        assert!(text.contains("serve_checkpoints_declined_total 0\n"));
        assert!(text.contains("serve_conn_handlers 0\n"));
        assert_eq!(m.sheds_total(), 3);
        assert_eq!(m.sheds_for(ShedReason::Queue), 2);
    }

    #[test]
    fn phase_histograms_render_seconds_with_exemplars() {
        let m = ServeMetrics::default();
        m.phase_submit.observe(800, None); // 0.8ms → le="0.001"
        m.phase_submit.observe(30_000, Some("00000000000000ab")); // 30ms
        m.phase_eval.observe(70_000_000, None); // 70s → only +Inf
        let text = m.render(&[]);
        assert!(
            text.contains("serve_phase_seconds_bucket{phase=\"submit\",le=\"0.001\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("serve_phase_seconds_bucket{phase=\"submit\",le=\"0.1\"} 2\n"));
        assert!(text.contains(
            "serve_phase_seconds_bucket{phase=\"submit\",le=\"+Inf\"} 2 \
             # {trace_id=\"00000000000000ab\"} 0.03\n"
        ));
        assert!(text.contains("serve_phase_seconds_sum{phase=\"submit\"} 0.0308\n"));
        assert!(text.contains("serve_phase_seconds_count{phase=\"submit\"} 2\n"));
        // Over-bound observations land only in +Inf, untraced: no exemplar.
        assert!(text.contains("serve_phase_seconds_bucket{phase=\"eval\",le=\"60\"} 0\n"));
        assert!(text.contains("serve_phase_seconds_bucket{phase=\"eval\",le=\"+Inf\"} 1\n"));
        // Untouched phases render zeroed series (fixed label set).
        assert!(text.contains("serve_phase_seconds_count{phase=\"queue\"} 0\n"));
        // The checkpoint lag is the same histogram under its own name.
        m.checkpoint_write.observe(700, None);
        let text = m.render(&[]);
        assert!(text.contains("serve_checkpoint_write_seconds_bucket{le=\"0.001\"} 1\n"));
        assert!(text.contains("serve_checkpoint_write_seconds_count 1\n"));
    }

    /// Unit-suffix audit over every family both layers expose (`# TYPE`
    /// lines of the full render): counters must end `_total`, histograms
    /// must carry a unit suffix (`_seconds`/`_bytes`), and gauges must
    /// not pretend to be counters. New families that drift fail here.
    #[test]
    fn metric_names_carry_unit_suffixes() {
        let m = ServeMetrics::default();
        let text = m.render(&[]);
        let mut families = 0;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("# TYPE ") else {
                continue;
            };
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            families += 1;
            match kind {
                "counter" => assert!(
                    name.ends_with("_total"),
                    "counter {name} must end in _total"
                ),
                "histogram" => assert!(
                    name.ends_with("_seconds") || name.ends_with("_bytes"),
                    "histogram {name} must carry a unit suffix"
                ),
                "gauge" => assert!(
                    !name.ends_with("_total"),
                    "gauge {name} must not masquerade as a counter"
                ),
                other => panic!("unknown metric kind {other} for {name}"),
            }
        }
        assert!(families > 20, "audit saw only {families} families");
    }
}
