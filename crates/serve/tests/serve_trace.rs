//! Causal-tracing contract tests, per ISSUE 10:
//!
//! * **parallelism invariance** — the logical span tree of a traced job
//!   (trace/span/parent ids, stages, details) is identical whether the
//!   daemon runs 1, 2 or 8 workers; only wall durations may differ;
//! * **zero-cost off** — untraced runs write no span log and produce
//!   byte-identical archives and session traces across paired runs, and
//!   tracing a run does not perturb its archive bytes;
//! * **one record** — a contained backend panic is recorded in
//!   `serve.jsonl` and its traced job's spans in `spans.jsonl`, with no
//!   second copy beside them.

use moat_serve::chaos::{ChaosBackend, ChaosConfig};
use moat_serve::daemon::{serve, JobState, JobStatus, ServeConfig, ServeHandle};
use moat_serve::spec::SubmitResponse;
use moat_serve::wire::{self, Request, Response};
use moat_serve::SyntheticBackend;
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("moat-serve-trace-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn send(addr: SocketAddr, req: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    wire::write_request(&mut stream, req).expect("send request");
    wire::read_response(&mut stream).expect("read response")
}

/// Submit with an optional client trace context (`x-moat-trace`).
fn submit(addr: SocketAddr, spec_json: &str, trace: Option<u64>) -> SubmitResponse {
    let mut req = Request::json("POST", "/jobs", spec_json.as_bytes().to_vec());
    if let Some(t) = trace {
        let span = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        req.headers
            .push(("x-moat-trace".into(), format!("{t:016x}-{span:016x}")));
    }
    let resp = send(addr, &req);
    assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
    serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

fn wait_done(addr: SocketAddr, id: &str) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = send(addr, &Request::new("GET", &format!("/jobs/{id}")));
        assert_eq!(resp.status, 200);
        let state: JobState =
            serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        if matches!(state.status, JobStatus::Done | JobStatus::Failed) {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {state:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn shutdown(addr: SocketAddr, handle: ServeHandle) {
    let resp = send(addr, &Request::new("POST", "/shutdown"));
    assert_eq!(resp.status, 200);
    handle.join().expect("clean shutdown");
}

fn spec(kernel: &str, seed: u64, tenant: &str, budget: u64) -> String {
    format!(
        r#"{{"tenant": "{tenant}", "kernel": "{kernel}", "machine": "westmere",
            "strategy": "random", "seed": {seed}, "budget": {budget},
            "warm_start": false}}"#
    )
}

/// The logical (wall-time-free) span tree of a state dir's span log:
/// per trace id, the set of (stage, span, parent, job, tenant, detail).
type LogicalTree = BTreeMap<String, BTreeSet<(String, String, String, String, String, String)>>;

fn logical_tree(state_dir: &Path) -> LogicalTree {
    let text = std::fs::read_to_string(state_dir.join("spans.jsonl")).expect("span log exists");
    let records = moat_obs::export::parse_jsonl(&text).expect("span log parses");
    let mut tree = LogicalTree::new();
    for r in &records {
        if let moat_obs::Event::JobStage {
            trace,
            span,
            parent,
            stage,
            job,
            tenant,
            detail,
        } = &r.event
        {
            tree.entry(trace.clone()).or_default().insert((
                stage.clone(),
                span.clone(),
                parent.clone(),
                job.clone(),
                tenant.clone(),
                detail.clone(),
            ));
        }
    }
    tree
}

/// Run a fixed traced workload under `workers` workers and return the
/// logical span tree it produced.
fn traced_run(workers: usize) -> LogicalTree {
    let state_dir = temp_dir(&format!("invariance-w{workers}"));
    let mut config = ServeConfig::new(&state_dir);
    config.workers = workers;
    config.pool_slots = 2;
    config.session_width = 2;
    let handle = serve(config, Arc::new(SyntheticBackend { eval_delay_us: 50 })).unwrap();
    let addr = handle.addr();
    let mut ids = Vec::new();
    for (i, kernel) in ["mm", "dsyrk", "jacobi2d"].iter().enumerate() {
        for seed in 1..=2u64 {
            let trace = 0xACE0 + (i as u64) * 10 + seed;
            ids.push(submit(addr, &spec(kernel, seed, "inv", 48), Some(trace)).job);
        }
    }
    for id in &ids {
        assert_eq!(wait_done(addr, id).status, JobStatus::Done);
    }
    shutdown(addr, handle);
    let tree = logical_tree(&state_dir);
    // A checkpoint span is what the hand-off cost the session, not a
    // literal zero.
    let text = std::fs::read_to_string(state_dir.join("spans.jsonl")).unwrap();
    let handoff_us: u64 = moat_obs::export::parse_jsonl(&text)
        .unwrap()
        .iter()
        .filter(|r| matches!(&r.event, moat_obs::Event::JobStage { stage, .. } if stage == "checkpoint"))
        .map(|r| r.dur_us)
        .sum();
    assert!(handoff_us > 0, "six hand-offs took no time at all");
    let _ = std::fs::remove_dir_all(&state_dir);
    tree
}

/// The tentpole determinism contract: worker parallelism must not change
/// the logical span tree — same trace ids, same deterministic span ids,
/// same stages, parents and details. Only durations (not compared here)
/// may differ.
#[test]
fn span_trees_are_parallelism_invariant() {
    let reference = traced_run(1);
    assert_eq!(reference.len(), 6, "one trace per submission");
    for (trace, spans) in &reference {
        let stages: BTreeSet<&str> = spans.iter().map(|s| s.0.as_str()).collect();
        for required in ["admission", "queue", "run", "eval", "checkpoint", "persist"] {
            assert!(stages.contains(required), "trace {trace} lacks {required}");
        }
    }
    for workers in [2usize, 8] {
        assert_eq!(
            traced_run(workers),
            reference,
            "{workers}-worker span tree differs from the serial one"
        );
    }
}

/// Run a fixed workload (optionally traced) and return
/// (archive bytes, per-job session trace bytes, state dir had spans.jsonl).
fn workload_artifacts(tag: &str, traced: bool) -> (Vec<u8>, Vec<Vec<u8>>, bool) {
    let state_dir = temp_dir(tag);
    let handle = serve(
        ServeConfig::new(&state_dir),
        Arc::new(SyntheticBackend { eval_delay_us: 50 }),
    )
    .unwrap();
    let addr = handle.addr();
    let mut ids = Vec::new();
    for (i, kernel) in ["mm", "dsyrk"].iter().enumerate() {
        let trace = traced.then_some(0xBEEF + i as u64);
        ids.push(submit(addr, &spec(kernel, 3, "pair", 48), trace).job);
    }
    let mut traces = Vec::new();
    for id in &ids {
        assert_eq!(wait_done(addr, id).status, JobStatus::Done);
        let resp = send(addr, &Request::new("GET", &format!("/jobs/{id}/trace")));
        assert_eq!(resp.status, 200);
        traces.push(resp.body);
    }
    let archive = send(addr, &Request::new("GET", "/archive"));
    assert_eq!(archive.status, 200);
    shutdown(addr, handle);
    let has_spans = state_dir.join("spans.jsonl").exists();
    let _ = std::fs::remove_dir_all(&state_dir);
    (archive.body, traces, has_spans)
}

/// Tracing off is genuinely zero-cost: paired untraced runs are
/// byte-identical and leave no span log behind; and turning tracing ON
/// must not perturb the archive bytes (results are results).
#[test]
fn untraced_runs_are_byte_identical_and_span_free() {
    let (archive_a, traces_a, spans_a) = workload_artifacts("plain-a", false);
    let (archive_b, traces_b, spans_b) = workload_artifacts("plain-b", false);
    assert!(
        !spans_a && !spans_b,
        "untraced runs must not write spans.jsonl"
    );
    assert_eq!(archive_a, archive_b, "paired untraced archives differ");
    assert_eq!(traces_a, traces_b, "paired untraced session traces differ");

    let (archive_t, _, spans_t) = workload_artifacts("traced", true);
    assert!(spans_t, "traced run must write spans.jsonl");
    assert_eq!(
        archive_a, archive_t,
        "tracing a run must not change its archive bytes"
    );
}

/// The service logs are the one record of what the daemon did: a
/// contained backend panic leaves its ServePanic in `serve.jsonl` and the
/// traced job's spans in `spans.jsonl`, and nothing else — no incident
/// directory, no ring endpoint.
#[test]
fn a_panic_is_recorded_once_in_the_service_logs() {
    // Injected panics are expected noise; silence just those.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("chaos:") {
            default(info);
        }
    }));

    let always_panic = ChaosConfig {
        seed: 1,
        panic_per_mille: 1000,
        error_per_mille: 0,
        slow_per_mille: 0,
        ckpt_deny_per_mille: 0,
    };
    let state_dir = temp_dir("panic");
    let handle = serve(
        ServeConfig::new(&state_dir),
        Arc::new(ChaosBackend::new(
            Arc::new(SyntheticBackend::default()),
            always_panic,
        )),
    )
    .unwrap();
    let addr = handle.addr();
    let sub = submit(addr, &spec("mm", 1, "boom", 16), Some(0xDEAD));
    let state = wait_done(addr, &sub.job);
    assert_eq!(state.status, JobStatus::Failed);
    assert_eq!(
        send(addr, &Request::new("GET", "/debug/flight")).status,
        404,
        "no ring endpoint"
    );
    shutdown(addr, handle);

    let read = |name: &str| {
        let text = std::fs::read_to_string(state_dir.join(name)).unwrap();
        moat_obs::export::parse_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    assert!(
        read("serve.jsonl").iter().any(
            |r| matches!(&r.event, moat_obs::Event::ServePanic { job, .. } if *job == sub.job)
        ),
        "serve.jsonl must hold the triggering ServePanic"
    );
    assert!(
        read("spans.jsonl").iter().any(
            |r| matches!(&r.event, moat_obs::Event::JobStage { stage, .. } if stage == "admission")
        ),
        "spans.jsonl must hold the job's admission span"
    );
    assert!(
        !state_dir.join("flight").exists(),
        "no incident directory beside the logs"
    );
    let _ = std::fs::remove_dir_all(&state_dir);
}
