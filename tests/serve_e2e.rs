//! End-to-end service tests over the *real* tuning backend: the daemon
//! protocol drives `TuneBackend` (analyzer → cost model → session →
//! archive record) instead of the synthetic test double.

use moat::serve::wire::{read_response, write_request, Request, Response};
use moat::serve::{serve, ServeConfig, SubmitResponse};
use moat::TuneBackend;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "moat-serve-real-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn send(addr: SocketAddr, req: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, req).expect("send");
    read_response(&mut stream).expect("recv")
}

fn submit(addr: SocketAddr, body: &str) -> SubmitResponse {
    let resp = send(
        addr,
        &Request::json("POST", "/jobs", body.as_bytes().to_vec()),
    );
    assert_eq!(
        resp.status,
        202,
        "submit: {}",
        String::from_utf8_lossy(&resp.body)
    );
    serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).expect("submit response")
}

fn job_field(addr: SocketAddr, id: &str, field: &str) -> String {
    let resp = send(addr, &Request::new("GET", &format!("/jobs/{id}")));
    assert_eq!(resp.status, 200);
    let body = String::from_utf8_lossy(&resp.body).to_string();
    // Cheap field scrape, enough for flat values in the JobState JSON.
    let pat = format!("\"{field}\":");
    let rest = &body[body
        .find(&pat)
        .unwrap_or_else(|| panic!("{field} in {body}"))
        + pat.len()..];
    rest.trim_start()
        .trim_start_matches('"')
        .split(['"', ',', '}'])
        .next()
        .unwrap()
        .to_string()
}

fn wait_done(addr: SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match job_field(addr, id, "status").as_str() {
            "Done" => return,
            "Failed" => panic!("job {id} failed: {}", job_field(addr, id, "error")),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn result_bytes(addr: SocketAddr, id: &str) -> Vec<u8> {
    let resp = send(addr, &Request::new("GET", &format!("/jobs/{id}/result")));
    assert_eq!(resp.status, 200);
    resp.body
}

fn shutdown(addr: SocketAddr, handle: moat::serve::ServeHandle) {
    let resp = send(addr, &Request::new("POST", "/shutdown"));
    assert_eq!(resp.status, 200);
    handle.join().expect("clean shutdown");
}

fn spec(tenant: &str, seed: u64, warm: bool, budget: u64) -> String {
    format!(
        "{{\"tenant\":\"{tenant}\",\"kernel\":\"mm\",\"size\":64,\
         \"machine\":\"westmere\",\"strategy\":\"random\",\"budget\":{budget},\
         \"seed\":{seed},\"warm_start\":{warm}}}"
    )
}

/// Dedupe and archive-replay against the real tuner: an identical spec
/// subscribes to the in-flight session; a warm-startable variant of an
/// archived problem is served at `E = 0`.
#[test]
fn real_backend_dedupe_and_exact_replay() {
    let state = temp_dir("replay");
    let handle = serve(ServeConfig::new(&state), Arc::new(TuneBackend::default())).unwrap();
    let addr = handle.addr();

    let a = submit(addr, &spec("alice", 3, false, 64));
    assert!(!a.deduped);
    let b = submit(addr, &spec("bob", 3, false, 64));
    assert!(b.deduped, "identical spec coalesces");
    assert_eq!(b.serves_as, a.job);
    wait_done(addr, &a.job);
    wait_done(addr, &b.job);
    assert_eq!(
        result_bytes(addr, &a.job),
        result_bytes(addr, &b.job),
        "subscriber reads the primary's artifact"
    );
    let evals: u64 = job_field(addr, &a.job, "evaluations").parse().unwrap();
    assert_eq!(evals, 64, "budget honoured by the real session");

    // Same problem, different seed, warm_start: the archive has an exact
    // (skeleton × space × machine) hit, so the daemon replays at E = 0.
    let c = submit(addr, &spec("carol", 9, true, 64));
    assert!(!c.deduped, "different seed is a different job");
    wait_done(addr, &c.job);
    assert_eq!(job_field(addr, &c.job, "replayed"), "true");
    assert_eq!(job_field(addr, &c.job, "warm"), "exact");
    let replay_evals: u64 = job_field(addr, &c.job, "evaluations").parse().unwrap();
    assert_eq!(replay_evals, 0, "replay spends no budget");
    assert_eq!(
        result_bytes(addr, &a.job),
        result_bytes(addr, &c.job),
        "replay serves the archived record"
    );

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

/// Shutdown parks the real session at its last checkpoint; a restart on
/// the same state dir resumes it and the final record is byte-identical
/// to an uninterrupted run.
#[test]
fn real_backend_restart_resumes_byte_identically() {
    let budget = 4096;

    // Reference: uninterrupted run.
    let ref_state = temp_dir("ref");
    let reference = {
        let handle = serve(
            ServeConfig::new(&ref_state),
            Arc::new(TuneBackend::default()),
        )
        .unwrap();
        let addr = handle.addr();
        let r = submit(addr, &spec("ref", 11, false, budget));
        wait_done(addr, &r.job);
        let bytes = result_bytes(addr, &r.job);
        shutdown(addr, handle);
        bytes
    };

    // Interrupted run: stop as soon as the first checkpoint lands.
    let state = temp_dir("resume");
    let fingerprint;
    {
        let handle = serve(ServeConfig::new(&state), Arc::new(TuneBackend::default())).unwrap();
        let addr = handle.addr();
        let r = submit(addr, &spec("ref", 11, false, budget));
        fingerprint = r.fingerprint.clone();
        let ckpt = state.join("ckpt").join(format!("{fingerprint}.ckpt"));
        let deadline = Instant::now() + Duration::from_secs(60);
        while !ckpt.exists() {
            assert!(Instant::now() < deadline, "no checkpoint appeared");
            std::thread::sleep(Duration::from_millis(1));
        }
        shutdown(addr, handle);
    }

    // Restart resumes the parked session and completes it.
    let handle = serve(ServeConfig::new(&state), Arc::new(TuneBackend::default())).unwrap();
    let addr = handle.addr();
    wait_done(addr, "j0001");
    let interrupted = result_bytes(addr, "j0001");
    let status = job_field(addr, "j0001", "resumed");
    let resumed_metric = handle
        .metrics()
        .jobs_resumed
        .load(std::sync::atomic::Ordering::Relaxed);
    shutdown(addr, handle);

    // The daemon may have been stopped before the session even parked a
    // checkpoint-worthy amount of progress; either way the resumed result
    // must match the uninterrupted one bit for bit.
    assert_eq!(status, "true", "restart resumed from the checkpoint");
    assert_eq!(resumed_metric, 1);
    assert_eq!(interrupted, reference, "resume is byte-identical");

    let _ = std::fs::remove_dir_all(&ref_state);
    let _ = std::fs::remove_dir_all(&state);
}

/// A served job's trace is what its own session emitted — the assertion
/// `tests/observability.rs` makes for the CLI, made for the daemon: the
/// `front_updated` rows are the optimizer's `TuningReport::trace`, and
/// the file does not depend on how wide the evaluation pool is. The job
/// carries `x-moat-trace`, which turns per-batch wall timing on for the
/// span log: none of it may reach the (logical) trace.
#[test]
fn job_trace_is_the_sessions_own_at_any_pool_width() {
    use moat::core::{RsGde3Params, RsGde3Tuner, TuningSession};
    use moat::report::Analysis;

    let (seed, budget) = (5, 192);
    let body = format!(
        "{{\"tenant\":\"t\",\"kernel\":\"mm\",\"size\":64,\"machine\":\"westmere\",\
         \"strategy\":\"rs-gde3\",\"budget\":{budget},\"seed\":{seed}}}"
    );

    // The same spec and seed through a bare session, no daemon around it.
    let machine = moat::MachineDesc::westmere();
    let acfg = moat::ir::AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect());
    let region = moat::ir::analyze(moat::Kernel::Mm.region(64), &acfg).unwrap();
    let model = moat::CostModel::with_noise(machine, moat::NoiseModel::default());
    let ev = moat::SimEvaluator {
        region: &region,
        skeleton: &region.skeletons[0],
        model: &model,
    };
    let report = TuningSession::new(moat::ir_space(&region.skeletons[0]), &ev)
        .with_budget(budget)
        .run(&RsGde3Tuner::new(RsGde3Params {
            seed,
            ..Default::default()
        }));

    let mut traces = Vec::new();
    for slots in [1usize, 2, 8] {
        let state = temp_dir(&format!("trace-w{slots}"));
        let mut config = ServeConfig::new(&state);
        config.pool_slots = slots;
        config.session_width = slots;
        let handle = serve(config, Arc::new(TuneBackend::default())).unwrap();
        let addr = handle.addr();
        let mut req = Request::json("POST", "/jobs", body.as_bytes().to_vec());
        req.headers.push((
            "x-moat-trace".into(),
            "00000000000000aa-00000000000000ab".into(),
        ));
        let resp = send(addr, &req);
        assert_eq!(resp.status, 202);
        wait_done(addr, "j0001");
        shutdown(addr, handle);
        assert!(state.join("spans.jsonl").exists(), "the job was traced");
        traces.push(std::fs::read_to_string(state.join("traces/j0001.jsonl")).unwrap());
        let _ = std::fs::remove_dir_all(&state);
    }
    assert_eq!(traces[0], traces[1], "trace differs between 1 and 2 slots");
    assert_eq!(traces[0], traces[2], "trace differs between 1 and 8 slots");

    let records = moat::obs::export::parse_jsonl(&traces[0]).expect("trace parses");
    let analysis = Analysis::from_records(&records);
    let session = &analysis.sessions[0];
    assert_eq!(session.strategy, "rs-gde3");
    assert_eq!(session.rows.len(), report.trace.len());
    for (row, sig) in session.rows.iter().zip(&report.trace) {
        assert_eq!(row.size, sig.size as u64, "front size differs");
        assert_eq!(row.hypervolume, sig.hv, "hypervolume differs");
    }
    assert_eq!(
        session.rows.last().map(|r| r.evaluations),
        Some(report.evaluations),
        "the last row's E is the evaluator's, not a batch counter's"
    );
    let (reason, evals) = session.stop.as_ref().expect("session stopped");
    assert_eq!(
        (reason.as_str(), *evals),
        (report.stop.name(), report.evaluations)
    );
}
