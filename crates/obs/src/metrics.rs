//! Prometheus-style text metrics snapshot derived from a record stream.
//!
//! Metrics are *computed at export time* from the drained records rather
//! than maintained as live counters: the record stream is already the
//! single source of truth, and deriving the snapshot from it makes the
//! output a pure function of the trace — byte-stable for a fixed seed in
//! logical mode (family and label ordering is sorted, histogram bucket
//! boundaries are fixed).

use crate::record::{Event, Record};
use std::collections::BTreeMap;

/// Fixed histogram bucket upper bounds (µs) for all duration histograms.
/// Chosen once, never derived from the data, so snapshots are comparable
/// across runs and byte-stable.
pub const DURATION_BUCKETS_US: [u64; 8] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    60_000_000,
    600_000_000,
];

fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x}")
    }
}

/// A fixed-bucket duration histogram: per-bucket (non-cumulative) counts
/// over caller-chosen µs upper bounds, rendered as a Prometheus histogram
/// in base-unit seconds. The one observe/render implementation behind
/// every duration family the stack exports — live ones (atomics that
/// snapshot into this type at scrape time) included.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    total: u64,
    sum_us: u64,
}

impl Histogram {
    /// An empty histogram over `bounds` (ascending µs upper bounds).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        Histogram::from_parts(bounds, vec![0; bounds.len()], 0, 0)
    }

    /// A histogram from counts kept elsewhere: `counts[i]` observations
    /// fell in bucket `i` (see [`slot`](Self::slot)), out of `total`
    /// summing to `sum_us`.
    pub fn from_parts(bounds: &'static [u64], counts: Vec<u64>, total: u64, sum_us: u64) -> Self {
        assert_eq!(bounds.len(), counts.len(), "one count per bucket bound");
        Histogram {
            bounds,
            counts,
            total,
            sum_us,
        }
    }

    /// The bucket `us` falls in: the first whose upper bound admits it.
    /// `None` when it exceeds every bound and counts only under `+Inf`.
    pub fn slot(bounds: &[u64], us: u64) -> Option<usize> {
        bounds.iter().position(|&b| us <= b)
    }

    /// Record one observation.
    pub fn observe(&mut self, us: u64) {
        if let Some(i) = Histogram::slot(self.bounds, us) {
            self.counts[i] += 1;
        }
        self.total += 1;
        self.sum_us += us;
    }

    /// Append the `_bucket`/`_sum`/`_count` series of family `name`.
    /// `labels` (`key="value",…` or empty) rides on every series; an
    /// `exemplar` (trace id, observed µs) is attached to the `+Inf`
    /// bucket OpenMetrics-style. The internal µs arithmetic stays
    /// integral (byte-stable); only the text is scaled to seconds.
    pub fn render(
        &self,
        name: &str,
        labels: &str,
        exemplar: Option<(&str, u64)>,
        out: &mut String,
    ) {
        let (lead, braced) = if labels.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{labels},"), format!("{{{labels}}}"))
        };
        let mut cum = 0;
        for (&bound, n) in self.bounds.iter().zip(&self.counts) {
            cum += n;
            out.push_str(&format!(
                "{name}_bucket{{{lead}le=\"{}\"}} {cum}\n",
                fmt_f64(bound as f64 / 1e6)
            ));
        }
        let exemplar = exemplar
            .map(|(trace, us)| format!(" # {{trace_id=\"{trace}\"}} {}", fmt_f64(us as f64 / 1e6)))
            .unwrap_or_default();
        out.push_str(&format!(
            "{name}_bucket{{{lead}le=\"+Inf\"}} {}{exemplar}\n",
            self.total
        ));
        out.push_str(&format!(
            "{name}_sum{braced} {}\n",
            fmt_f64(self.sum_us as f64 / 1e6)
        ));
        out.push_str(&format!("{name}_count{braced} {}\n", self.total));
    }
}

/// Render the metrics snapshot for a drained record stream.
pub fn render(records: &[Record]) -> String {
    let mut kind_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut phase_us: BTreeMap<String, (u64, u64)> = BTreeMap::new(); // (calls, µs)
    let mut version_counts: BTreeMap<(String, u64), u64> = BTreeMap::new();
    let mut batch_hist = Histogram::new(&DURATION_BUCKETS_US);
    let mut evaluations = 0u64;
    let mut front_size = 0u64;
    let mut hypervolume = 0.0f64;
    let mut iterations = 0u64;

    for r in records {
        *kind_counts.entry(r.event.kind()).or_default() += 1;
        match &r.event {
            Event::IterationStart { iteration } => iterations = iterations.max(*iteration),
            Event::BatchEvaluated {
                evaluations: e,
                elapsed_us,
                ..
            } => {
                evaluations = evaluations.max(*e);
                if let Some(us) = elapsed_us {
                    batch_hist.observe(*us);
                }
            }
            Event::FrontUpdated {
                evaluations: e,
                size,
                hypervolume: hv,
                ..
            } => {
                evaluations = evaluations.max(*e);
                front_size = *size;
                hypervolume = *hv;
            }
            Event::Stopped { evaluations: e, .. } => evaluations = evaluations.max(*e),
            Event::VersionSelected { region, version } => {
                *version_counts
                    .entry((region.clone(), *version))
                    .or_default() += 1;
            }
            Event::Phase { name } => {
                let slot = phase_us.entry(name.clone()).or_default();
                slot.0 += 1;
                slot.1 += r.dur_us;
            }
            _ => {}
        }
    }

    let mut out = String::new();

    out.push_str("# HELP moat_records_total Trace records by event kind.\n");
    out.push_str("# TYPE moat_records_total counter\n");
    for (kind, n) in &kind_counts {
        out.push_str(&format!("moat_records_total{{kind=\"{kind}\"}} {n}\n"));
    }

    out.push_str("# HELP moat_evaluations_total Distinct configurations evaluated (E).\n");
    out.push_str("# TYPE moat_evaluations_total counter\n");
    out.push_str(&format!("moat_evaluations_total {evaluations}\n"));

    out.push_str("# HELP moat_iterations_total Strategy iterations executed.\n");
    out.push_str("# TYPE moat_iterations_total counter\n");
    out.push_str(&format!("moat_iterations_total {iterations}\n"));

    out.push_str("# HELP moat_front_size Final Pareto front size (|S|).\n");
    out.push_str("# TYPE moat_front_size gauge\n");
    out.push_str(&format!("moat_front_size {front_size}\n"));

    out.push_str("# HELP moat_hypervolume Final front hypervolume (V(S)).\n");
    out.push_str("# TYPE moat_hypervolume gauge\n");
    out.push_str(&format!("moat_hypervolume {}\n", fmt_f64(hypervolume)));

    out.push_str("# HELP moat_version_selected_total Runtime version picks per region.\n");
    out.push_str("# TYPE moat_version_selected_total counter\n");
    for ((region, version), n) in &version_counts {
        out.push_str(&format!(
            "moat_version_selected_total{{region=\"{region}\",version=\"{version}\"}} {n}\n"
        ));
    }

    out.push_str("# HELP moat_phase_seconds_total Wall seconds per instrumented phase.\n");
    out.push_str("# TYPE moat_phase_seconds_total counter\n");
    for (name, (calls, us)) in &phase_us {
        out.push_str(&format!(
            "moat_phase_seconds_total{{phase=\"{name}\"}} {}\n",
            fmt_f64(*us as f64 / 1e6)
        ));
        out.push_str(&format!(
            "moat_phase_calls_total{{phase=\"{name}\"}} {calls}\n"
        ));
    }

    out.push_str("# HELP moat_batch_elapsed_seconds Batch evaluation wall time.\n");
    out.push_str("# TYPE moat_batch_elapsed_seconds histogram\n");
    batch_hist.render("moat_batch_elapsed_seconds", "", None, &mut out);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<Record> {
        vec![
            Record {
                seq: 1,
                ts_us: 0,
                dur_us: 0,
                tid: 0,
                event: Event::IterationStart { iteration: 1 },
            },
            Record {
                seq: 2,
                ts_us: 0,
                dur_us: 0,
                tid: 0,
                event: Event::BatchEvaluated {
                    requested: 24,
                    evaluated: 24,
                    evaluations: 24,
                    elapsed_us: Some(1500),
                },
            },
            Record {
                seq: 3,
                ts_us: 0,
                dur_us: 0,
                tid: 0,
                event: Event::FrontUpdated {
                    iteration: 1,
                    evaluations: 24,
                    size: 4,
                    hypervolume: 0.75,
                },
            },
            Record {
                seq: 3,
                ts_us: 0,
                dur_us: 0,
                tid: 0,
                event: Event::VersionSelected {
                    region: "mm".into(),
                    version: 2,
                },
            },
            Record {
                seq: 3,
                ts_us: 5,
                dur_us: 120,
                tid: 1,
                event: Event::Phase {
                    name: "cachesim.compile".into(),
                },
            },
        ]
    }

    #[test]
    fn snapshot_reflects_stream() {
        let text = render(&records());
        assert!(text.contains("moat_evaluations_total 24\n"), "{text}");
        assert!(text.contains("moat_front_size 4\n"));
        assert!(text.contains("moat_hypervolume 0.75\n"));
        assert!(
            text.contains("moat_version_selected_total{region=\"mm\",version=\"2\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("moat_phase_seconds_total{phase=\"cachesim.compile\"} 0.00012\n"));
        assert!(text.contains("moat_batch_elapsed_seconds_bucket{le=\"0.01\"} 1\n"));
        assert!(text.contains("moat_batch_elapsed_seconds_bucket{le=\"0.0001\"} 0\n"));
        assert!(text.contains("moat_batch_elapsed_seconds_sum 0.0015\n"));
        // The unit-suffix audit: every family name carries its unit.
        assert!(!text.contains("_us_total"), "µs counters are gone: {text}");
    }

    #[test]
    fn snapshot_is_deterministic() {
        let recs = records();
        assert_eq!(render(&recs), render(&recs));
        assert!(render(&[]).contains("moat_evaluations_total 0\n"));
    }
}
