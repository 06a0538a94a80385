//! `serve-cold` and `serve-dedupe`: a `moat-serve` subprocess at default
//! configuration, driven over HTTP by closed-loop clients — each submits a
//! job, polls it every millisecond and fetches the result before sending
//! the next one, as a caller waiting for its tuned table would.

use crate::common::{
    derive, dominated_pair, finish_traced, median, ms, ns_per_call, percentile, proc_cpu_seconds,
    proc_status_mb, repeat_setup, set_deterministic, set_end_to_end, sorted, splitmix, Ctx, Ledger,
    RunResult, ScratchDir, TimedEval,
};
use crate::trace::{Trace, Tracer};
use crate::tune::{analyzer_config, machine, MACHINES};
use moat::core::{BatchEval, Config, Evaluator, ObjVec, RsGde3Params, RsGde3Tuner, TuningSession};
use moat::ir::analyze;
use moat::machine::{CostModel, NoiseModel};
use moat::report::SpanForest;
use moat::serve::admission::AdmissionState;
use moat::serve::wire::{
    encode_request, encode_response, parse_request, read_response, write_request, Request, Response,
};
use moat::serve::{
    AdmissionPolicy, FairPool, JobSpec, JobState, JobStatus, PooledEvaluator, ShardedArchive,
    SubmitResponse,
};
use moat::{ir_space, ArchiveRecord, Kernel, SimEvaluator};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which traffic a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every spec is new: each job is really tuned (budget 256).
    Cold,
    /// 40 distinct specs round-robin (budget 128); after the first 200
    /// submissions every fifth is a `warm_start` spec with a fresh seed,
    /// which the daemon replays from its archive at E = 0.
    Dedupe,
}

impl Mix {
    fn tag(self) -> &'static str {
        match self {
            Mix::Cold => "serve-cold",
            Mix::Dedupe => "serve-dedupe",
        }
    }

    /// Untimed submissions after each daemon start: 5 % of what a run
    /// sends in its window.
    fn warm_up(self) -> u64 {
        match self {
            Mix::Cold => 30,
            Mix::Dedupe => 100,
        }
    }

    /// The measured submission at which the daemon's peak RSS is read. The
    /// daemon's memory grows with the jobs it has served, so its peak at
    /// the end of a timed window follows the throughput (r = 0.93 over
    /// twenty runs of `serve-cold`) and a faster daemon would read as a
    /// fatter one. Half of what a run sends in its window: every run gets
    /// there.
    fn rss_mark(self) -> u64 {
        match self {
            Mix::Cold => 200,
            Mix::Dedupe => 500,
        }
    }
}

/// Results of the specs with an index below this feed the deterministic
/// `E` and hypervolume means.
const DET_JOBS: u64 = 40;

// ---------------------------------------------------------------------------
// HTTP and the daemon process
// ---------------------------------------------------------------------------

fn http(addr: &str, req: &Request) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let timeout = Some(Duration::from_secs(30));
    stream
        .set_read_timeout(timeout)
        .and_then(|()| stream.set_write_timeout(timeout))
        .map_err(|e| e.to_string())?;
    write_request(&mut stream, req).map_err(|e| format!("send {}: {e}", req.path))?;
    read_response(&mut stream).map_err(|e| format!("recv {}: {e}", req.path))
}

fn get(addr: &str, path: &str) -> Result<Response, String> {
    http(addr, &Request::new("GET", path))
}

/// A running `moat-serve`. Dropping it kills the process, so no daemon
/// outlives a failed check or a panic.
struct Daemon {
    child: Child,
    addr: String,
    dir: ScratchDir,
}

impl Daemon {
    fn start(ctx: &Ctx, tag: &str) -> Result<Daemon, String> {
        let dir = ScratchDir::create(ctx, tag)?;
        let port_file = dir.path().join("port");
        let child = Command::new(ctx.bin("moat-serve"))
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--state")
            .arg(dir.path().join("state"))
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("moat-serve: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            dir,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.trim().is_empty() {
                    daemon.addr = addr.trim().to_string();
                    if get(&daemon.addr, "/readyz").is_ok_and(|r| r.status == 200) {
                        return Ok(daemon);
                    }
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("moat-serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("moat-serve did not become ready within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `POST /shutdown`, then wait for the exit code.
    fn shutdown(mut self) -> Result<i32, String> {
        http(&self.addr, &Request::new("POST", "/shutdown"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status.code().unwrap_or(-1)),
                Ok(None) if Instant::now() > deadline => {
                    return Err("moat-serve did not exit within 30 s of /shutdown".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// The spec of submission `i` and whether it is a `warm_start` one.
fn spec_of(mix: Mix, seed: u64, i: u64) -> (JobSpec, bool) {
    // Tuner seeds: a seed-derived base keeps different `--seed`s apart, the
    // low digits keep the specs of one run apart.
    let base = (1 + derive(seed, 0x5E12, 0) % 1_000_000) * 1_000_000;
    let spec = |kernel: u64, machine: u64, budget: u64, tuner_seed: u64, warm: bool| JobSpec {
        tenant: "bench".into(),
        kernel: Kernel::all()[(kernel % 5) as usize].info().name.into(),
        size: None,
        machine: MACHINES[(machine % 2) as usize].into(),
        strategy: "rs-gde3".into(),
        backends: Vec::new(),
        budget: Some(budget),
        seed: tuner_seed,
        warm_start: warm,
    };
    match mix {
        Mix::Cold => (spec(i, i / 5, 256, base + i, false), false),
        Mix::Dedupe if i >= 200 && i.is_multiple_of(5) => {
            (spec(i / 5, i / 25, 128, base + 1000 + i, true), true)
        }
        Mix::Dedupe => {
            let j = i % 40;
            (spec(j, j / 5, 128, base + j / 10, false), false)
        }
    }
}

/// One submission as the client saw it.
struct Job {
    index: u64,
    warm: bool,
    traced: bool,
    fingerprint: String,
    submit_ms: f64,
    total_ms: f64,
    /// When the result had been read, in seconds since the run's origin.
    done_s: f64,
    polls: u32,
    /// The result body, or why the job failed.
    outcome: Result<Vec<u8>, String>,
}

fn trace_header(i: u64) -> String {
    let trace = splitmix(0xC11E_0000 ^ i);
    format!("{trace:016x}-{:016x}", splitmix(trace ^ 1))
}

/// Submit spec `i`, poll until the job is terminal, fetch the result.
fn one_job(addr: &str, mix: Mix, seed: u64, i: u64, traced: bool, tr: &mut Tracer) -> Job {
    let (spec, warm) = spec_of(mix, seed, i);
    let mut job = Job {
        index: i,
        warm,
        traced,
        fingerprint: spec.fingerprint_hex(),
        submit_ms: 0.0,
        total_ms: 0.0,
        done_s: 0.0,
        polls: 0,
        outcome: Err(String::new()),
    };
    let body = serde_json::to_string(&spec).expect("JobSpec serializes");
    let mut req = Request::json("POST", "/jobs", body.into_bytes());
    if traced {
        req.headers.push(("x-moat-trace".into(), trace_header(i)));
    }
    tr.set_enabled(traced);
    let root = tr.begin("serve.job", i);
    let start = Instant::now();
    job.outcome = (|| {
        let resp = tr.span("serve.submit", i, || http(addr, &req))?;
        job.submit_ms = ms(start.elapsed());
        if resp.status != 202 {
            return Err(format!("submit answered {}", resp.status));
        }
        let accepted: SubmitResponse = serde_json::from_str(&String::from_utf8_lossy(&resp.body))
            .map_err(|e| format!("submit body: {e}"))?;
        let status_path = format!("/jobs/{}", accepted.job);
        let give_up = start + Duration::from_secs(60);
        loop {
            job.polls += 1;
            let resp = tr.span("serve.poll", i, || get(addr, &status_path))?;
            let state: JobState = serde_json::from_str(&String::from_utf8_lossy(&resp.body))
                .map_err(|e| format!("job state: {e}"))?;
            match state.status {
                JobStatus::Done => break,
                JobStatus::Failed => return Err(format!("job failed: {:?}", state.error)),
                _ if Instant::now() > give_up => return Err("job not done within 60 s".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let resp = tr.span("serve.result", i, || {
            get(addr, &format!("{status_path}/result"))
        })?;
        if resp.status != 200 {
            return Err(format!("result answered {}", resp.status));
        }
        Ok(resp.body)
    })();
    job.total_ms = ms(start.elapsed());
    job.done_s = tr.origin().elapsed().as_secs_f64();
    tr.end(root);
    job
}

/// Run the closed-loop clients until `more(jobs sent so far)` says stop.
/// In a traced run every second submission carries the trace header.
fn drive_clients(
    ctx: &Ctx,
    mix: Mix,
    addr: &str,
    next: &AtomicU64,
    origin: Instant,
    more: &(dyn Fn(u64) -> bool + Sync),
) -> (Vec<Job>, Trace) {
    let clients = ctx.nproc.clamp(1, 2);
    let mut jobs = Vec::new();
    let mut trace = Trace::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut tracer = Tracer::new(false, origin);
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter hands out indices, nothing else
                        // is published through it.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if !more(i) {
                            next.fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                        let traced = ctx.traced && i % 2 == 1;
                        mine.push(one_job(addr, mix, ctx.seed, i, traced, &mut tracer));
                    }
                    (mine, tracer)
                })
            })
            .collect();
        for h in handles {
            let (mine, tracer) = h.join().expect("client thread panicked");
            jobs.extend(mine);
            trace.absorb(tracer);
        }
    });
    jobs.sort_by_key(|j| j.index);
    (jobs, trace)
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// A result parses as an archive record with a non-empty, mutually
/// non-dominated front.
fn check_result(body: &[u8]) -> Result<ArchiveRecord, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let record = ArchiveRecord::from_json(text).map_err(|e| e.to_string())?;
    if record.front.is_empty() {
        return Err("result front is empty".into());
    }
    let objectives: Vec<&[f64]> = record
        .front
        .iter()
        .map(|p| p.objectives.as_slice())
        .collect();
    if dominated_pair(&objectives).is_some() {
        return Err("result front is not mutually non-dominated".into());
    }
    Ok(record)
}

fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.split([' ', '{']).next() == Some(name))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

/// Compare the daemon's counters with what the generator sent.
fn check_counters(metrics: &str, jobs: &[&Job], result: &mut RunResult) {
    let cold: Vec<&&Job> = jobs.iter().filter(|j| !j.warm).collect();
    let distinct: HashSet<&str> = cold.iter().map(|j| j.fingerprint.as_str()).collect();
    let expect = [
        ("serve_jobs_submitted_total", jobs.len() as u64),
        (
            "serve_jobs_deduped_total",
            (cold.len() - distinct.len()) as u64,
        ),
        (
            "serve_jobs_replayed_total",
            jobs.iter().filter(|j| j.warm).count() as u64,
        ),
        ("serve_jobs_failed_total", 0),
        ("serve_shed_total", 0),
    ];
    for (name, want) in expect {
        let got = counter(metrics, name);
        if got != want {
            result.fail(format!(
                "/metrics: {name} = {got}, the generator expects {want}"
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Per-layer numbers (traced runs)
// ---------------------------------------------------------------------------

/// The daemon's own span log, split per traced job into the critical-path
/// phases `moat-report` prints: submit, queue, eval, persist, other. Read
/// from `<state>/spans.jsonl`, the file `GET /debug/spans` serves: a 10 s
/// run logs more than the 1 MiB body the wire reader accepts.
fn phases_from_span_log(state: &std::path::Path, ledger: &mut Ledger) -> Result<(), String> {
    let path = state.join("spans.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records =
        moat::obs::export::parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let forest = SpanForest::from_records(&records);
    let mut by_job: BTreeMap<&str, Vec<&moat::report::JobSpan>> = BTreeMap::new();
    for span in &forest.spans {
        by_job.entry(span.job.as_str()).or_default().push(span);
    }
    let (mut other_us, mut total_us) = (0u64, 0u64);
    for spans in by_job.values() {
        let ids: HashSet<&str> = spans.iter().map(|s| s.span.as_str()).collect();
        let total: u64 = spans
            .iter()
            .filter(|s| !ids.contains(s.parent.as_str()))
            .map(|s| s.dur_us)
            .sum();
        let sum = |stages: &[&str]| -> u64 {
            spans
                .iter()
                .filter(|s| stages.contains(&s.stage.as_str()))
                .map(|s| s.dur_us)
                .sum()
        };
        let submit = sum(&["admission", "dedupe"]);
        let queue = sum(&["queue"]);
        let eval = sum(&["eval"]);
        let persist = sum(&["persist", "archive", "checkpoint"]);
        let other = total.saturating_sub(submit + queue + eval + persist + sum(&["replay"]));
        for (name, us) in [
            ("serve.phase_submit_ms", submit),
            ("serve.phase_queue_ms", queue),
            ("serve.phase_eval_ms", eval),
            ("serve.phase_persist_ms", persist),
            ("serve.phase_other_ms", other),
        ] {
            ledger.push(name, us as f64 / 1e3);
        }
        other_us += other;
        total_us += total;
    }
    if total_us > 0 {
        ledger.push("serve.phase_other_share", other_us as f64 / total_us as f64);
    }
    Ok(())
}

/// ns/op of the daemon's building blocks, called directly: wire parse and
/// encode, the spec fingerprint, the admission ladder, the fair pool.
fn protocol_probes(mix: Mix, seed: u64, ledger: &mut Ledger) {
    let (spec, _) = spec_of(mix, seed, 0);
    let body = serde_json::to_string(&spec).expect("JobSpec serializes");
    let wire = encode_request(&Request::json("POST", "/jobs", body.into_bytes()));
    ledger.push(
        "serve.wire_parse_request_ns",
        ns_per_call(2000, || parse_request(&wire)),
    );
    let accepted = Response::json(
        202,
        br#"{"job":"j0001","fingerprint":"dccb1cd5fd38dad3","deduped":false,"serves_as":"j0001"}"#
            .to_vec(),
    );
    ledger.push(
        "serve.wire_encode_response_ns",
        ns_per_call(2000, || encode_response(&accepted)),
    );
    ledger.push(
        "serve.spec_fingerprint_ns",
        ns_per_call(2000, || spec.fingerprint()),
    );

    // The ladder a submission walks under the jobs lock: rate token,
    // breaker, tenant quota, then the in-flight bookkeeping of an admit.
    let policy = AdmissionPolicy::default();
    let mut state = AdmissionState::default();
    let fp = spec.fingerprint();
    ledger.push(
        "serve.admission_ladder_ns",
        ns_per_call(2000, || {
            let now = Instant::now();
            let ok = state.rate_take(&policy, &spec.tenant, now);
            let decision = state.breaker_admit(&policy, fp);
            let over = state.over_inflight(&policy, &spec.tenant);
            state.inflight_add(&spec.tenant);
            state.inflight_remove(&spec.tenant);
            (ok, decision, over)
        }),
    );

    let pool = FairPool::new(4);
    ledger.push(
        "serve.fairpool_acquire_ns",
        ns_per_call(2000, || drop(pool.acquire(1))),
    );
    let free = (2usize, |cfg: &Config| -> Option<ObjVec> {
        Some(vec![cfg[0] as f64, 1.0])
    });
    let pooled = PooledEvaluator::new(&free, std::sync::Arc::clone(&pool), 1);
    let cfg: Config = vec![3, 4];
    let direct = ns_per_call(2000, || free.evaluate(&cfg));
    let through = ns_per_call(2000, || pooled.evaluate(&cfg));
    ledger.push("serve.pooled_eval_overhead_ns", through - direct);
}

/// The same spec through a plain `TuningSession`, no daemon around it: what
/// a job would cost if the service added nothing.
fn inprocess_probe(ctx: &Ctx, spec: &JobSpec, ledger: &mut Ledger) -> Result<(), String> {
    let kernel = Kernel::all()
        .into_iter()
        .find(|k| k.info().name == spec.kernel)
        .ok_or("unknown kernel")?;
    let machine = machine(&spec.machine).ok_or("unknown machine")?;
    let start = Instant::now();
    let region = analyze(kernel.paper_region(), &analyzer_config(&machine))?;
    let model = CostModel::with_noise(machine, NoiseModel::default());
    let skeleton = &region.skeletons[0];
    let ev = SimEvaluator {
        region: &region,
        skeleton,
        model: &model,
    };
    let timed = TimedEval::new(&ev);
    let session_start = Instant::now();
    // Width 2 is the daemon's default per-session batch width.
    let mut session = TuningSession::new(ir_space(skeleton), &timed)
        .with_batch(BatchEval::parallel(ctx.nproc.min(2)))
        .with_budget(spec.budget.unwrap_or(256));
    let report = session.run(&RsGde3Tuner::new(RsGde3Params {
        seed: spec.seed,
        ..Default::default()
    }));
    std::hint::black_box(report);
    ledger.push("core.session_run_ms", ms(session_start.elapsed()));
    ledger.push("serve.job_inprocess_ms", ms(start.elapsed()));
    let (calls, eval_ns) = timed.totals();
    ledger.push("sim.evaluate_calls", calls as f64);
    if calls > 0 {
        ledger.push("sim.evaluate_ns", eval_ns as f64 / calls as f64);
    }
    Ok(())
}

/// Deposit, compact and read the run's own records through a scratch
/// `ShardedArchive` with the daemon's default shard count.
fn shard_probes(ctx: &Ctx, records: &[ArchiveRecord], ledger: &mut Ledger) -> Result<(), String> {
    let dir = ScratchDir::create(ctx, "shard-probe")?;
    let shards = ShardedArchive::open(dir.path().join("archive"), 4).map_err(|e| e.to_string())?;
    for (i, record) in records.iter().enumerate() {
        let start = Instant::now();
        shards
            .deposit(record, &format!("{i:04}"))
            .map_err(|e| e.to_string())?;
        ledger.push(
            "serve.shard_deposit_us",
            start.elapsed().as_nanos() as f64 / 1e3,
        );
    }
    let start = Instant::now();
    let folded = shards.compact().map_err(|e| e.to_string())?;
    ledger.push(
        "serve.shard_compact_us",
        start.elapsed().as_nanos() as f64 / 1e3 / folded.max(1) as f64,
    );
    for record in records {
        ledger.push(
            "serve.shard_get_us",
            ns_per_call(2, || shards.get(&record.key)) / 1e3,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

pub fn run(ctx: &Ctx, mix: Mix) -> Result<RunResult, String> {
    let origin = Instant::now();
    let no_trace = Ctx {
        traced: false,
        ..ctx.clone()
    };
    // Set-up: fresh state directory, daemon start until /readyz answers,
    // and the warm-up submissions. Every daemon but the last is shut down
    // again (untimed).
    let ((daemon, next, warm_jobs), setup) = repeat_setup(
        ctx,
        || {
            let daemon = Daemon::start(ctx, mix.tag())?;
            let next = AtomicU64::new(0);
            let (jobs, _) = drive_clients(&no_trace, mix, &daemon.addr, &next, origin, &|i| {
                i < mix.warm_up()
            });
            Ok((daemon, next, jobs))
        },
        |(daemon, _, _)| {
            let _ = daemon.shutdown();
        },
    )?;
    let mut result = RunResult {
        correct: true,
        ..Default::default()
    };
    let mut ledger = Ledger::default();

    let roundtrip: Vec<f64> = if ctx.traced {
        (0..50)
            .filter_map(|_| {
                let t = Instant::now();
                get(&daemon.addr, "/healthz").ok().map(|_| ms(t.elapsed()))
            })
            .collect()
    } else {
        Vec::new()
    };

    let daemon_cpu = || proc_cpu_seconds(daemon.child.id()).unwrap_or(0.0);
    let cpu_start = daemon_cpu();
    let start = Instant::now();
    let deadline = ctx.deadline(start);
    let daemon_pid = daemon.child.id();
    let peak_rss = || proc_status_mb(daemon_pid, "VmHWM:").unwrap_or(0.0);
    // The bits of the peak RSS at the mark; 0 until a client gets there.
    let rss_at_mark = AtomicU64::new(0);
    let (jobs, trace) = drive_clients(ctx, mix, &daemon.addr, &next, origin, &|i| {
        if i == mix.warm_up() + mix.rss_mark() {
            // Relaxed: read after the client threads have been joined.
            rss_at_mark.store(peak_rss().to_bits(), Ordering::Relaxed);
        }
        Instant::now() < deadline
    });
    let window_s = start.elapsed().as_secs_f64();
    let cpu_s = daemon_cpu() - cpu_start;

    // Run-wide checks against the live daemon, then a clean shutdown.
    let all_jobs: Vec<&Job> = warm_jobs.iter().chain(&jobs).collect();
    let metrics = get(&daemon.addr, "/metrics")?;
    let metrics = String::from_utf8_lossy(&metrics.body).into_owned();
    check_counters(&metrics, &all_jobs, &mut result);
    if ctx.traced {
        phases_from_span_log(&daemon.dir.path().join("state"), &mut ledger)?;
        let submitted = counter(&metrics, "serve_jobs_submitted_total").max(1) as f64;
        ledger.push(
            "serve.dedupe_hit_share",
            counter(&metrics, "serve_jobs_deduped_total") as f64 / submitted,
        );
        ledger.push(
            "serve.replayed_share",
            counter(&metrics, "serve_jobs_replayed_total") as f64 / submitted,
        );
        let table = daemon.dir.path().join("state").join("jobs.json");
        ledger.push(
            "serve.jobs_json_bytes_final",
            std::fs::metadata(table).map_or(0.0, |m| m.len() as f64),
        );
    }
    // A run that never reached the mark (a smoke run) reports what it has.
    let peak_rss_mb = match f64::from_bits(rss_at_mark.load(Ordering::Relaxed)) {
        at_mark if at_mark > 0.0 => at_mark,
        _ => peak_rss(),
    };
    match daemon.shutdown() {
        Ok(0) => {}
        Ok(code) => result.fail(format!(
            "moat-serve exited with code {code} after /shutdown"
        )),
        Err(why) => result.fail(why),
    }

    // Per-job checks, on the bodies the clients kept.
    let mut bodies: HashMap<&str, &[u8]> = HashMap::new();
    let mut det: Vec<(u64, f64)> = Vec::new();
    let mut probe_records: Vec<ArchiveRecord> = Vec::new();
    for job in &all_jobs {
        let measured = job.index >= mix.warm_up();
        result.attempted += u64::from(measured);
        let checked = job
            .outcome
            .as_ref()
            .map_err(String::clone)
            .and_then(|body| {
                let record = check_result(body)?;
                match bodies.insert(&job.fingerprint, body) {
                    Some(first) if first != body.as_slice() => {
                        Err("equal fingerprints returned different bodies".to_string())
                    }
                    _ => Ok(record),
                }
            });
        match checked {
            Ok(record) => {
                if job.index < DET_JOBS {
                    det.push((record.evaluations, record.self_hypervolume()));
                }
                if measured && probe_records.len() < 16 && !job.warm {
                    probe_records.push(record);
                }
            }
            // A warm-up failure still invalidates the run, but is not one
            // of the attempted ops.
            Err(why) if measured => {
                result.failed += 1;
                result.note(format!("{} job {}: {why}", mix.tag(), job.index));
            }
            Err(why) => result.fail(format!("{} warm-up job {}: {why}", mix.tag(), job.index)),
        }
    }
    result.correct &= result.failed == 0;

    let op_ms: Vec<f64> = jobs.iter().map(|j| j.total_ms).collect();
    if ctx.traced {
        let side = |traced: bool| -> Vec<f64> {
            jobs.iter()
                .filter(|j| j.traced == traced)
                .map(|j| j.total_ms)
                .collect()
        };
        let (on, off) = (side(true), side(false));
        if !on.is_empty() && !off.is_empty() {
            ledger.push(
                "bench.trace_overhead_pct",
                100.0 * (median(&on) / median(&off) - 1.0),
            );
        }
        ledger.push_all("serve.http_roundtrip_ms", &roundtrip);
        ledger.push_all(
            "serve.polls_per_job",
            &jobs.iter().map(|j| j.polls as f64).collect::<Vec<_>>(),
        );
        let submit: Vec<f64> = jobs.iter().map(|j| j.submit_ms).collect();
        ledger.push_all("serve.submit_ms_p50", &submit);
        protocol_probes(mix, ctx.seed, &mut ledger);
        for i in 0..8 {
            inprocess_probe(
                ctx,
                &spec_of(mix, ctx.seed, mix.warm_up() + i).0,
                &mut ledger,
            )?;
        }
        shard_probes(ctx, &probe_records, &mut ledger)?;
        finish_traced(ctx, mix.tag(), &ledger, &trace, &mut result)?;
        let submit = sorted(submit);
        result.values.set(
            "serve.submit_ms_p95",
            percentile(&submit, 0.95),
            submit.len() as u64,
        );
    } else {
        // Twenty equal slices of the window, each with the jobs it completed.
        let slice_s = window_s / 20.0;
        let window_start = start.duration_since(origin).as_secs_f64();
        let mut slices = vec![(0.0, slice_s); 20];
        for job in &jobs {
            let slice = ((job.done_s - window_start) / slice_s) as usize;
            slices[slice.min(19)].0 += 1.0;
        }
        set_end_to_end(
            &mut result.values,
            setup,
            &slices,
            cpu_s,
            &op_ms,
            peak_rss_mb,
        );
    }
    set_deterministic(&mut result.values, &det);
    Ok(result)
}
