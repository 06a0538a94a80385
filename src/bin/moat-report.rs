//! `moat-report` — analyse a `moat-tune --trace` JSONL file.
//!
//! ```text
//! moat-report <TRACE.jsonl> [OPTIONS]
//! moat-report --from-serve <STATE_DIR>
//!
//!   --validate             check the trace invariants (monotone control
//!                          clock, epochs behind it) and report the count
//!   --emit <chrome>        convert instead of reporting (Chrome
//!                          trace_event JSON, loadable in Perfetto)
//!   --emit loss-matrix     treat the input as a version-table JSON
//!                          (moat-tune --emit-json) and print the
//!                          cross-backend loss matrix instead
//!   --from-serve <DIR>     report on a moat-serve state directory:
//!                          service totals, then a per-tenant breakdown
//!                          of jobs and their session analyses
//!   --from-trace <Q>       with --from-serve: print the causal span tree
//!                          and critical-path breakdown of the traced job
//!                          (or 16-digit trace id) Q from spans.jsonl;
//!                          pass "all" for every traced job
//!   --slo-p99-ms <MS>      with --from-serve: append an SLO section
//!                          (p50/p99 per traced phase, per-tenant burn
//!                          rate against a 1% error budget)
//!   --out <FILE>           write --emit output to FILE (default: stdout)
//! ```
//!
//! With no options, prints the convergence table (iteration, E, |S|,
//! V(S) per session), phase-time breakdown, parked checkpoint writes,
//! archive traffic, and version-selection histogram.

use moat::multiversion::VersionTable;
use moat::obs::export::{parse_jsonl, to_chrome, validate_jsonl};
use moat::report::{Analysis, LossMatrix, SloReport, SpanForest};
use moat::serve::{load_job_table, ArtifactLog, JobState, JobStatus};
use std::collections::BTreeMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!("{}", moat::usage_text(include_str!("moat-report.rs")));
    exit(2)
}

/// Load the span log of a `moat-serve` state dir as a [`SpanForest`].
fn load_spans(dir: &str) -> Result<SpanForest, String> {
    let path = std::path::Path::new(dir).join("spans.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} (no traced jobs yet? submit with x-moat-trace / moat-loadgen --trace)",
            path.display()
        )
    })?;
    let records = parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(SpanForest::from_records(&records))
}

/// Render the causal span tree(s) for `--from-trace`.
fn report_trace(dir: &str, query: &str) -> Result<String, String> {
    let forest = load_spans(dir)?;
    let selected = if query == "all" {
        forest
    } else {
        forest.filtered(query)
    };
    if selected.spans.is_empty() {
        return Err(format!("no spans match {query:?} in {dir}/spans.jsonl"));
    }
    Ok(selected.render())
}

/// Render the per-tenant service report for a `moat-serve` state dir.
fn report_serve(dir: &str, slo_p99_ms: Option<f64>) -> Result<String, String> {
    let root = std::path::Path::new(dir);
    let jobs = load_job_table(root).map_err(|e| format!("{dir}: {e}"))?;
    let artifacts = ArtifactLog::read_only(root).map_err(|e| format!("{dir}: {e}"))?;
    let by_id: BTreeMap<&str, &JobState> = jobs.iter().map(|j| (j.id.as_str(), j)).collect();
    // A subscriber's lifecycle lives on its primary; resolve for display.
    let resolved = |j: &JobState| -> JobState {
        match j.serves_as.as_deref().and_then(|p| by_id.get(p)) {
            Some(p) if p.id != j.id => {
                let mut r = (*p).clone();
                r.id = j.id.clone();
                r.tenant = j.tenant.clone();
                r.serves_as = j.serves_as.clone();
                r
            }
            _ => j.clone(),
        }
    };

    let mut out = String::new();
    let count = |status: JobStatus| jobs.iter().filter(|j| resolved(j).status == status).count();
    let deduped = jobs
        .iter()
        .filter(|j| j.serves_as.as_deref().is_some_and(|p| p != j.id))
        .count();
    let replayed = jobs.iter().filter(|j| resolved(j).replayed).count();
    out.push_str("Service summary\n");
    out.push_str(&format!(
        "  jobs {}  done {}  running {}  queued {}  parked {}  failed {}\n",
        jobs.len(),
        count(JobStatus::Done),
        count(JobStatus::Running),
        count(JobStatus::Queued),
        count(JobStatus::Parked),
        count(JobStatus::Failed),
    ));
    out.push_str(&format!(
        "  deduped {deduped}  replayed {replayed}  evaluations {}\n",
        jobs.iter()
            .filter(|j| j.serves_as.is_none())
            .map(|j| j.evaluations)
            .sum::<u64>(),
    ));

    // Service-level control-plane events (sheds, breaker transitions,
    // contained panics, parked checkpoint writes) live in serve.jsonl,
    // outside any job's trace.
    if let Ok(trace) = std::fs::read_to_string(root.join("serve.jsonl")) {
        if let Ok(records) = parse_jsonl(&trace) {
            let analysis = Analysis::from_records(&records);
            let (service, parked) = (analysis.service, analysis.parked_checkpoints);
            if service.any() || parked > 0 {
                out.push_str("\nAdmission & isolation\n");
                let total: u64 = service.sheds.values().sum();
                if total > 0 {
                    out.push_str(&format!("  sheds {total}:"));
                    for (reason, n) in &service.sheds {
                        out.push_str(&format!("  {reason}={n}"));
                    }
                    out.push('\n');
                }
                if !service.breaker_transitions.is_empty() {
                    out.push_str("  breaker transitions:");
                    for (state, n) in &service.breaker_transitions {
                        out.push_str(&format!("  {state}={n}"));
                    }
                    out.push('\n');
                }
                if service.panics > 0 {
                    out.push_str(&format!("  contained backend panics {}\n", service.panics));
                }
                if parked > 0 {
                    out.push_str(&format!("  parked checkpoint writes {parked}\n"));
                }
            }
        }
    }

    let mut tenants: BTreeMap<&str, Vec<&JobState>> = BTreeMap::new();
    for j in &jobs {
        tenants.entry(j.tenant.as_str()).or_default().push(j);
    }
    for (tenant, rows) in tenants {
        out.push_str(&format!("\nTenant {tenant}\n"));
        let mut records = Vec::new();
        for j in rows {
            let r = resolved(j);
            let mut line = format!(
                "  {}  {:<10} {:<8} {:>8}  E={:<6} {}",
                r.id,
                r.spec.kernel,
                r.spec.strategy,
                format!("{:?}", r.status).to_lowercase(),
                r.evaluations,
                r.stop.as_deref().unwrap_or("-"),
            );
            if let Some(p) = j.serves_as.as_deref().filter(|p| *p != j.id) {
                line.push_str(&format!("  (deduped -> {p})"));
            }
            if let Some(w) = &r.warm {
                line.push_str(&format!("  warm={w}"));
            }
            out.push_str(line.trim_end());
            out.push('\n');
            // The trace lives under the primary's id.
            let artifact = j.serves_as.as_deref().unwrap_or(&j.id);
            let trace = artifacts.trace(artifact).unwrap_or_default();
            if let Ok(mut recs) = parse_jsonl(&String::from_utf8_lossy(&trace)) {
                records.append(&mut recs);
            }
        }
        if !records.is_empty() {
            for line in Analysis::from_records(&records).render().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
    }

    // The SLO section aggregates the span log of traced jobs; asking for
    // it on a state dir with no traced traffic is an error, not silence.
    if let Some(slo_ms) = slo_p99_ms {
        let forest = load_spans(dir)?;
        out.push('\n');
        out.push_str(&SloReport::from_spans(&forest, slo_ms).render());
    }
    Ok(out)
}

fn main() {
    let mut trace: Option<String> = None;
    let mut validate = false;
    let mut emit: Option<String> = None;
    let mut out: Option<String> = None;
    let mut from_serve: Option<String> = None;
    let mut from_trace: Option<String> = None;
    let mut slo_p99_ms: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2)
            })
        };
        match arg.as_str() {
            "--validate" => validate = true,
            "--emit" => emit = Some(value("--emit")),
            "--out" => out = Some(value("--out")),
            "--from-serve" => from_serve = Some(value("--from-serve")),
            "--from-trace" => from_trace = Some(value("--from-trace")),
            "--slo-p99-ms" => {
                let v = value("--slo-p99-ms");
                slo_p99_ms = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--slo-p99-ms: not a number: {v}");
                    exit(2)
                }));
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option: {other}");
                usage()
            }
            other => {
                if trace.replace(other.to_string()).is_some() {
                    eprintln!("expected exactly one trace file");
                    usage()
                }
            }
        }
    }
    if let Some(dir) = from_serve {
        let rendered = match &from_trace {
            Some(query) => report_trace(&dir, query),
            None => report_serve(&dir, slo_p99_ms),
        };
        match rendered {
            Ok(doc) => print!("{doc}"),
            Err(e) => {
                eprintln!("{e}");
                exit(1)
            }
        }
        return;
    }
    if from_trace.is_some() || slo_p99_ms.is_some() {
        eprintln!("--from-trace/--slo-p99-ms need --from-serve <DIR>");
        usage()
    }

    let Some(path) = trace else {
        eprintln!("missing trace file");
        usage()
    };

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });

    // Loss matrix consumes a version table, not a trace — handle it
    // before the JSONL parse.
    if emit.as_deref() == Some("loss-matrix") {
        let table = VersionTable::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{path}: not a version table: {e}");
            exit(1)
        });
        let doc = LossMatrix::from_table(&table).render();
        match &out {
            Some(dest) => {
                std::fs::write(dest, doc).unwrap_or_else(|e| {
                    eprintln!("cannot write {dest}: {e}");
                    exit(1)
                });
                println!("wrote {dest}");
            }
            None => print!("{doc}"),
        }
        return;
    }

    if validate {
        match validate_jsonl(&text) {
            Ok(n) => println!("{path}: valid, {n} records"),
            Err(e) => {
                eprintln!("{path}: invalid trace: {e}");
                exit(1)
            }
        }
    }

    let records = parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1)
    });

    match emit.as_deref() {
        Some("chrome") => {
            let doc = to_chrome(&records);
            match &out {
                Some(dest) => {
                    std::fs::write(dest, doc).unwrap_or_else(|e| {
                        eprintln!("cannot write {dest}: {e}");
                        exit(1)
                    });
                    println!("wrote {dest}");
                }
                None => println!("{doc}"),
            }
        }
        Some(other) => {
            eprintln!("unknown --emit format: {other} (chrome|loss-matrix)");
            exit(2)
        }
        None => {
            if !validate {
                print!("{}", Analysis::from_records(&records).render());
            }
        }
    }
}
