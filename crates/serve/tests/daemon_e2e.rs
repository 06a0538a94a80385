//! End-to-end daemon tests over real sockets with the synthetic backend:
//! dedupe, archive replay at E = 0, malformed/oversized rejection,
//! 1-vs-8-clients archive determinism, shutdown → restart resume
//! byte-identity, what the checkpointer leaves in `ckpt/`, which
//! checkpoints a job pays for, and how many threads serve its connections.

use moat_serve::daemon::{serve, JobState, JobStatus, ServeConfig, ServeHandle};
use moat_serve::spec::{JobSpec, SubmitResponse};
use moat_serve::wire::{self, Request, Response};
use moat_serve::{JobBackend, JobContext, JobInfo, JobOutcome, PreparedJob, SyntheticBackend};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("moat-serve-e2e-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn send(addr: SocketAddr, req: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    wire::write_request(&mut stream, req).expect("send request");
    wire::read_response(&mut stream).expect("read response")
}

fn submit(addr: SocketAddr, spec_json: &str) -> SubmitResponse {
    let resp = send(
        addr,
        &Request::json("POST", "/jobs", spec_json.as_bytes().to_vec()),
    );
    assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
    serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

fn get_job(addr: SocketAddr, id: &str) -> JobState {
    let resp = send(addr, &Request::new("GET", &format!("/jobs/{id}")));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

/// Poll until the job settles (Done or Failed) and return its final state.
fn wait_done(addr: SocketAddr, id: &str) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let state = get_job(addr, id);
        if matches!(state.status, JobStatus::Done | JobStatus::Failed) {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {state:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Poll until every job in the table resolves to Done.
fn wait_all_done(addr: SocketAddr, expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = send(addr, &Request::new("GET", "/jobs"));
        assert_eq!(resp.status, 200);
        let rows: Vec<JobState> =
            serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        if rows.len() == expected && rows.iter().all(|r| r.status == JobStatus::Done) {
            return;
        }
        assert!(Instant::now() < deadline, "jobs stuck: {rows:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn shutdown(addr: SocketAddr, handle: ServeHandle) {
    let resp = send(addr, &Request::new("POST", "/shutdown"));
    assert_eq!(resp.status, 200);
    handle.join().expect("clean shutdown");
}

fn spec(kernel: &str, seed: u64, tenant: &str, warm: bool, budget: u64) -> String {
    format!(
        r#"{{"tenant": "{tenant}", "kernel": "{kernel}", "machine": "westmere",
            "strategy": "random", "seed": {seed}, "budget": {budget},
            "warm_start": {warm}}}"#
    )
}

#[test]
fn dedupe_replay_and_routes() {
    let handle = serve(
        ServeConfig::new(temp_dir("routes")),
        Arc::new(SyntheticBackend::default()),
    )
    .expect("daemon starts");
    let addr = handle.addr();

    // Health and error routes.
    assert_eq!(send(addr, &Request::new("GET", "/healthz")).status, 200);
    assert_eq!(send(addr, &Request::new("GET", "/nope")).status, 404);
    assert_eq!(send(addr, &Request::new("PUT", "/jobs")).status, 405);
    assert_eq!(
        send(addr, &Request::json("POST", "/jobs", b"{]".to_vec())).status,
        400,
        "syntactically broken spec"
    );
    assert_eq!(
        send(
            addr,
            &Request::json(
                "POST",
                "/jobs",
                spec("badkern", 1, "a", false, 8).into_bytes()
            ),
        )
        .status,
        400,
        "backend rejects unknown kernels at submit time"
    );

    // First submission runs; an identical one (other tenant) dedupes.
    let first = submit(addr, &spec("mm", 5, "alice", true, 48));
    assert!(!first.deduped);
    assert_eq!(first.serves_as, first.job);
    let second = submit(addr, &spec("mm", 5, "bob", true, 48));
    assert!(second.deduped, "identical spec must coalesce");
    assert_eq!(second.serves_as, first.job);
    assert_eq!(second.fingerprint, first.fingerprint);

    let done = wait_done(addr, &first.job);
    assert_eq!(done.status, JobStatus::Done);
    assert!(done.evaluations > 0);

    // The subscriber resolves to the primary's lifecycle and artifacts.
    let sub = wait_done(addr, &second.job);
    assert_eq!(sub.status, JobStatus::Done);
    assert_eq!(sub.tenant, "bob", "attribution stays with the subscriber");
    let result_primary = send(
        addr,
        &Request::new("GET", &format!("/jobs/{}/result", first.job)),
    );
    let result_sub = send(
        addr,
        &Request::new("GET", &format!("/jobs/{}/result", second.job)),
    );
    assert_eq!(result_primary.status, 200);
    assert_eq!(result_primary.body, result_sub.body, "same artifact bytes");

    // Same problem, different seed (= different fingerprint), warm start:
    // exact archive hit replays at E = 0.
    let third = submit(addr, &spec("mm", 6, "carol", true, 48));
    assert!(!third.deduped, "different seed is a different job");
    let replayed = wait_done(addr, &third.job);
    assert_eq!(replayed.status, JobStatus::Done);
    assert!(replayed.replayed, "exact hit must replay: {replayed:?}");
    assert_eq!(replayed.evaluations, 0, "replay spends no budget");
    assert_eq!(replayed.warm.as_deref(), Some("exact"));

    // The trace endpoint serves parseable JSONL with an envelope.
    let trace = send(
        addr,
        &Request::new("GET", &format!("/jobs/{}/trace", first.job)),
    );
    assert_eq!(trace.status, 200);
    let records = moat_obs::export::parse_jsonl(std::str::from_utf8(&trace.body).unwrap()).unwrap();
    assert!(matches!(
        records.first().map(|r| &r.event),
        Some(moat_obs::Event::SessionStart { .. })
    ));
    assert!(records
        .iter()
        .any(|r| matches!(&r.event, moat_obs::Event::Stopped { .. })));

    // /metrics: serve-native families with the expected counts, plus the
    // obs-derived moat_* families.
    let metrics = send(addr, &Request::new("GET", "/metrics"));
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("serve_jobs_submitted_total 3"), "{text}");
    assert!(text.contains("serve_jobs_deduped_total 1"), "{text}");
    assert!(text.contains("serve_jobs_replayed_total 1"), "{text}");
    // Two sessions actually ran to completion (primary + replay); the
    // deduped submission subscribed instead of running.
    assert!(text.contains("serve_jobs_completed_total 2"), "{text}");
    assert!(text.contains("moat_evaluations_total"), "{text}");
    // Every checkpoint the one session offered was either written behind
    // it or superseded, and each write has its lag in the histogram.
    let count = |family: &str| -> usize {
        let line = text.lines().find(|l| l.starts_with(family)).unwrap();
        line[family.len()..].trim().parse().unwrap()
    };
    let offered = records
        .iter()
        .filter(|r| matches!(r.event, moat_obs::Event::Checkpointed { .. }))
        .count();
    let written = count("serve_checkpoints_written_total");
    assert!(written >= 1 && offered >= 1, "{text}");
    assert_eq!(
        written + count("serve_checkpoints_superseded_total"),
        offered
    );
    assert_eq!(count("serve_checkpoint_write_seconds_count"), written);

    shutdown(addr, handle);
}

#[test]
fn malformed_and_oversized_frames_rejected() {
    let handle = serve(
        ServeConfig::new(temp_dir("reject")),
        Arc::new(SyntheticBackend::default()),
    )
    .expect("daemon starts");
    let addr = handle.addr();

    // Garbage request line.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
    assert_eq!(wire::read_response(&mut s).unwrap().status, 400);

    // Head over the 16 KiB limit → 431.
    let mut s = TcpStream::connect(addr).unwrap();
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nx-filler: {}\r\n\r\n",
        "a".repeat(wire::MAX_HEAD_BYTES)
    );
    s.write_all(huge_header.as_bytes()).unwrap();
    assert_eq!(wire::read_response(&mut s).unwrap().status, 431);

    // Declared body over the 1 MiB limit → 413 (rejected from the head
    // alone, before any body bytes are sent).
    let mut s = TcpStream::connect(addr).unwrap();
    let oversized = format!(
        "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        wire::MAX_BODY_BYTES + 1
    );
    s.write_all(oversized.as_bytes()).unwrap();
    assert_eq!(wire::read_response(&mut s).unwrap().status, 413);

    // The daemon survives all of the above.
    assert_eq!(send(addr, &Request::new("GET", "/healthz")).status, 200);
    let metrics = send(addr, &Request::new("GET", "/metrics"));
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("serve_http_errors_total 3"), "{text}");

    shutdown(addr, handle);
}

/// The determinism contract: one client submitting N distinct jobs
/// serially and eight clients racing the same jobs (with duplicates)
/// produce byte-identical archives.
#[test]
fn one_vs_eight_clients_identical_archive() {
    let specs: Vec<String> = ["mm", "dsyrk", "jacobi2"]
        .iter()
        .flat_map(|k| (1..=2).map(move |seed| spec(k, seed, "solo", false, 48)))
        .collect();

    // Reference: one client, serial submission.
    let handle = serve(
        ServeConfig::new(temp_dir("serial")),
        Arc::new(SyntheticBackend::default()),
    )
    .unwrap();
    let addr = handle.addr();
    for s in &specs {
        submit(addr, s);
    }
    wait_all_done(addr, specs.len());
    let reference = send(addr, &Request::new("GET", "/archive"));
    assert_eq!(reference.status, 200);
    shutdown(addr, handle);

    // Contended: eight clients, each submitting the whole set.
    let handle = serve(
        ServeConfig::new(temp_dir("contended")),
        Arc::new(SyntheticBackend { eval_delay_us: 50 }),
    )
    .unwrap();
    let addr = handle.addr();
    let deduped: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                let specs = &specs;
                scope.spawn(move || {
                    let mut hits = 0;
                    for s in specs {
                        // Distinct tenants must not defeat dedupe.
                        let s = s.replace("solo", &format!("client-{client}"));
                        if submit(addr, &s).deduped {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(
        deduped,
        8 * specs.len() - specs.len(),
        "every duplicate submission must coalesce"
    );
    wait_all_done(addr, 8 * specs.len());
    let contended = send(addr, &Request::new("GET", "/archive"));
    assert_eq!(contended.status, 200);
    assert_eq!(
        String::from_utf8(reference.body).unwrap(),
        String::from_utf8(contended.body).unwrap(),
        "archives must be byte-identical regardless of client count"
    );
    shutdown(addr, handle);
}

/// SIGTERM-equivalent shutdown parks the in-flight session via its
/// checkpoint; a restarted daemon resumes it and finishes with a result
/// byte-identical to an uninterrupted run.
#[test]
fn shutdown_parks_and_restart_resumes_byte_identically() {
    let slow = || {
        Arc::new(SyntheticBackend {
            eval_delay_us: 1000,
        })
    };
    let job = spec("mm", 9, "ops", false, 1024);

    // Uninterrupted reference run.
    let handle = serve(ServeConfig::new(temp_dir("reference")), slow()).unwrap();
    let addr = handle.addr();
    let submitted = submit(addr, &job);
    wait_done(addr, &submitted.job);
    let reference = send(
        addr,
        &Request::new("GET", &format!("/jobs/{}/result", submitted.job)),
    );
    assert_eq!(reference.status, 200);
    shutdown(addr, handle);

    // Interrupted run: shut down as soon as the first checkpoint lands.
    let state_dir = temp_dir("interrupted");
    let handle = serve(ServeConfig::new(&state_dir), slow()).unwrap();
    let addr = handle.addr();
    let submitted = submit(addr, &job);
    let ckpt = state_dir
        .join("ckpt")
        .join(format!("{}.ckpt", submitted.fingerprint));
    let deadline = Instant::now() + Duration::from_secs(20);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        state_dir.join("jobs.journal").exists(),
        "a live daemon journals row changes"
    );
    shutdown(addr, handle);
    assert!(
        !state_dir.join("jobs.journal").exists(),
        "clean shutdown compacts the journal into jobs.json"
    );
    let parked = std::fs::read_to_string(state_dir.join("jobs.json")).unwrap();
    let rows: Vec<JobState> = serde_json::from_str(&parked).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].status, JobStatus::Parked, "mid-run job parks");
    assert!(ckpt.exists(), "parked job keeps its checkpoint");

    // Restart: the parked job resumes automatically and completes.
    let handle = serve(ServeConfig::new(&state_dir), slow()).unwrap();
    let addr = handle.addr();
    let resumed = wait_done(addr, &rows[0].id);
    assert_eq!(resumed.status, JobStatus::Done);
    assert!(resumed.resumed, "must resume from the checkpoint");
    assert_eq!(
        handle.metrics().jobs_resumed.load(Ordering::Relaxed),
        1,
        "resume is counted"
    );
    let result = send(
        addr,
        &Request::new("GET", &format!("/jobs/{}/result", rows[0].id)),
    );
    assert_eq!(result.status, 200);
    assert_eq!(
        String::from_utf8(reference.body).unwrap(),
        String::from_utf8(result.body).unwrap(),
        "resumed result must be byte-identical to the uninterrupted run"
    );
    assert!(!ckpt.exists(), "completion retires the checkpoint");
    shutdown(addr, handle);
}

/// The acceptor parks in `accept()`: every way of asking an idle daemon
/// to stop must get it out within a second, also when it is bound to an
/// unspecified address that cannot itself be connected to everywhere.
#[test]
fn idle_daemon_stops_within_a_second() {
    for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
        for via_http in [false, true] {
            let mut config = ServeConfig::new(temp_dir("stop"));
            config.listen = listen.into();
            let handle = serve(config, Arc::new(SyntheticBackend::default())).unwrap();
            let addr = SocketAddr::from(([127, 0, 0, 1], handle.addr().port()));
            assert_eq!(send(addr, &Request::new("GET", "/healthz")).status, 200);
            // Idle from here on: nothing but the stop request itself can
            // get the acceptor out of accept().
            let asked = Instant::now();
            if via_http {
                assert_eq!(send(addr, &Request::new("POST", "/shutdown")).status, 200);
            } else {
                handle.stop();
            }
            handle.join().expect("clean shutdown");
            assert!(
                asked.elapsed() < Duration::from_secs(1),
                "{listen} via_http={via_http}: shutdown took {:?}",
                asked.elapsed()
            );
        }
    }
}

/// A connection that arrives after `stop` is set but before the wake-up
/// is closed, not served — and serves as the wake-up.
#[test]
fn connection_after_stop_is_closed_not_served() {
    let handle = serve(
        ServeConfig::new(temp_dir("late")),
        Arc::new(SyntheticBackend::default()),
    )
    .unwrap();
    let addr = handle.addr();
    let metrics = handle.metrics();
    // The flag alone, as a signal handler would set it: no wake-up yet.
    handle.stop_flag().store(true, Ordering::SeqCst);
    let mut late = TcpStream::connect(addr).expect("listener still bound");
    let _ = wire::write_request(&mut late, &Request::new("GET", "/healthz"));
    assert!(
        wire::read_response(&mut late).is_err(),
        "a late connection gets no response"
    );
    let asked = Instant::now();
    handle.join().expect("clean shutdown");
    assert!(asked.elapsed() < Duration::from_secs(1));
    assert_eq!(metrics.http_requests.load(Ordering::Relaxed), 0);
}

/// A synthetic backend whose `late-*` kernels run their whole session —
/// checkpoints and all — and only then error out or panic. Every
/// evaluation takes `delay_us`, which the test can raise between jobs.
struct FailsLate {
    delay_us: Arc<AtomicU64>,
}

struct LateJob {
    inner: Box<dyn PreparedJob>,
    kernel: String,
}

impl JobBackend for FailsLate {
    fn prepare(&self, spec: &JobSpec) -> Result<Box<dyn PreparedJob>, String> {
        Ok(Box::new(LateJob {
            inner: SyntheticBackend {
                eval_delay_us: self.delay_us.load(Ordering::Relaxed),
            }
            .prepare(spec)?,
            kernel: spec.kernel.clone(),
        }))
    }
}

impl PreparedJob for LateJob {
    fn info(&self) -> &JobInfo {
        self.inner.info()
    }

    fn run(self: Box<Self>, ctx: JobContext) -> Result<JobOutcome, String> {
        let outcome = self.inner.run(ctx)?;
        if self.kernel.starts_with("late-error") {
            return Err("late: the session ran, the job fails".into());
        }
        if self.kernel.starts_with("late-panic") {
            panic!("late: the session ran, the job panics");
        }
        Ok(outcome)
    }
}

/// However a job ends — Done, Failed by error, Failed by panic, served
/// from the archive — its checkpoint and any temp file are gone by the
/// time the row says so, a stale file of an earlier incarnation included,
/// and nothing is written after the removal: `ckpt/` is empty after every
/// job and still empty once the checkpointer has been joined. A run has to
/// earn its writes (16× what the last one cost, in work), so the jobs take
/// 50 ms, and after a round that earned none — one slow write raises the
/// bar for everybody — twice as long, up to 64 times, until a round does;
/// and their budget of two chunks and one evaluation puts the offer that
/// crosses the bar one evaluation before the session returns, with its
/// write still waiting or under way. A write that took seconds (a loaded
/// box) puts the bar beyond the longest of these jobs, so then the daemon
/// is restarted on the same state dir: a fresh one checkpoints a run's
/// first offer regardless. Rounds run until 300 checkpoints have been
/// written, at most 600 of them.
#[test]
fn ckpt_dir_is_empty_after_done_failed_and_replay() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let late = |m: &&str| m.starts_with("late:");
        if !info.payload().downcast_ref::<&str>().is_some_and(late) {
            default_hook(info);
        }
    }));
    let state_dir = temp_dir("retire");
    let ckpt = state_dir.join("ckpt");
    const DELAY_US: u64 = 750;
    let delay_us = Arc::new(AtomicU64::new(DELAY_US));
    let backend = Arc::new(FailsLate {
        delay_us: Arc::clone(&delay_us),
    });
    let start = || serve(ServeConfig::new(&state_dir), backend.clone()).unwrap();
    let written = |h: &ServeHandle| h.metrics().checkpoints_written.load(Ordering::Relaxed);
    let files = || -> Vec<_> { std::fs::read_dir(&ckpt).unwrap().flatten().collect() };
    let mut handle = start();
    // Checkpoints the daemon's earlier incarnations wrote.
    let mut earlier = 0;
    for round in 0..600 {
        let addr = handle.addr();
        if earlier + written(&handle) >= 300 {
            break;
        }
        let before = written(&handle);
        for (kernel, warm, ends) in [
            (format!("k{round}"), false, JobStatus::Done),
            (format!("late-error{round}"), false, JobStatus::Failed),
            (format!("late-panic{round}"), false, JobStatus::Failed),
            (format!("k{round}"), true, JobStatus::Done),
        ] {
            let body = spec(&kernel, 1 + warm as u64, "t", warm, 129);
            let parsed: JobSpec = serde_json::from_str(&body).unwrap();
            let stale = ckpt.join(format!("{}.ckpt", parsed.fingerprint_hex()));
            std::fs::write(&stale, "left by an earlier incarnation").unwrap();
            std::fs::write(stale.with_extension("ckpt.tmp"), "torn").unwrap();
            let job = submit(addr, &body);
            let state = wait_done(addr, &job.job);
            assert_eq!(state.status, ends, "{kernel}: {state:?}");
            assert_eq!(state.replayed, warm);
            assert!(files().is_empty(), "{kernel} round {round}: {:?}", files());
        }
        // Lengthen the job, not the rule.
        let delay = delay_us.load(Ordering::Relaxed);
        if written(&handle) > before {
            delay_us.store(DELAY_US, Ordering::Relaxed);
        } else if delay < 64 * DELAY_US {
            delay_us.store(2 * delay, Ordering::Relaxed);
        } else {
            earlier += written(&handle);
            shutdown(addr, handle);
            assert!(files().is_empty(), "after a restart: {:?}", files());
            handle = start();
            delay_us.store(DELAY_US, Ordering::Relaxed);
        }
    }
    let total = earlier + written(&handle);
    assert!(total >= 300, "{total} checkpoints written");
    shutdown(handle.addr(), handle);
    assert!(files().is_empty(), "after the join: {:?}", files());
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Eight sessions cut by one shutdown: every worker waits until its own
/// session's last checkpoint is on disk before its row says Parked, and a
/// restart finishes all eight with the uninterrupted results.
#[test]
fn eight_jobs_parking_at_once_all_flush() {
    let kernels: Vec<String> = (0..8).map(|k| format!("park{k}")).collect();
    let body = |kernel: &String| spec(kernel, 4, "t", false, 1536);

    let reference_dir = temp_dir("park-ref");
    let handle = serve(
        ServeConfig::new(&reference_dir),
        Arc::new(SyntheticBackend::default()),
    )
    .unwrap();
    let addr = handle.addr();
    let ids: Vec<String> = kernels.iter().map(|k| submit(addr, &body(k)).job).collect();
    wait_all_done(addr, 8);
    let result = |addr, id: &String| {
        let resp = send(addr, &Request::new("GET", &format!("/jobs/{id}/result")));
        assert_eq!(resp.status, 200);
        resp.body
    };
    let reference: Vec<Vec<u8>> = ids.iter().map(|id| result(addr, id)).collect();
    shutdown(addr, handle);

    let state_dir = temp_dir("park");
    let slow = Arc::new(SyntheticBackend { eval_delay_us: 300 });
    let handle = serve(ServeConfig::new(&state_dir), slow).unwrap();
    let addr = handle.addr();
    let jobs: Vec<SubmitResponse> = kernels.iter().map(|k| submit(addr, &body(k))).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while std::fs::read_dir(state_dir.join("ckpt")).unwrap().count() < 8 {
        assert!(
            Instant::now() < deadline,
            "eight sessions never checkpointed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    shutdown(addr, handle);

    let table = std::fs::read_to_string(state_dir.join("jobs.json")).unwrap();
    let rows: Vec<JobState> = serde_json::from_str(&table).unwrap();
    assert_eq!(rows.len(), 8);
    for (row, job) in rows.iter().zip(&jobs) {
        assert_eq!(row.status, JobStatus::Parked, "{row:?}");
        let path = state_dir
            .join("ckpt")
            .join(format!("{}.ckpt", job.fingerprint));
        let on_disk = moat_archive::CheckpointStore::load(&path).expect("flushed");
        assert_eq!(on_disk.evaluations, row.evaluations, "{}", row.id);
        let log = moat_serve::ArtifactLog::read_only(&state_dir).unwrap();
        let trace = String::from_utf8(log.trace(&row.id).expect("a parked run's trace")).unwrap();
        let last = format!("{{\"Checkpointed\":{{\"seq\":{}}}}}", on_disk.seq);
        let offered: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("Checkpointed"))
            .collect();
        assert!(offered.last().unwrap().contains(&last), "{offered:?}");
    }

    let handle = serve(
        ServeConfig::new(&state_dir),
        Arc::new(SyntheticBackend::default()),
    )
    .unwrap();
    let addr = handle.addr();
    wait_all_done(addr, 8);
    for (id, expected) in ids.iter().zip(&reference) {
        assert!(get_job(addr, id).resumed);
        assert_eq!(&result(addr, id), expected, "{id}");
    }
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&reference_dir);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// One counter or gauge of a `/metrics` scrape.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let text = send(addr, &Request::new("GET", "/metrics")).body;
    let text = String::from_utf8_lossy(&text).into_owned();
    let line = text.lines().find_map(|l| l.strip_prefix(name));
    let value = line.unwrap_or_else(|| panic!("{name} not in /metrics"));
    value.trim().parse().unwrap()
}

/// A job of a few hundred microseconds is offered a checkpoint at every
/// boundary. In a fresh daemon nobody knows what a write costs, so the
/// first job's first offer is wanted and finds out; the others are
/// declined before anything is assembled — counted, so that written +
/// superseded + declined is every offer made — and show in a traced job's
/// span log as the 0 µs `checkpoint` spans of exactly those offers. The
/// next job of the same length has not worked 16 writes' worth at any of
/// its boundaries and pays for no checkpoint at all.
#[test]
fn a_short_job_pays_for_one_checkpoint() {
    let state_dir = temp_dir("short");
    let handle = serve(
        ServeConfig::new(&state_dir),
        Arc::new(SyntheticBackend::default()),
    )
    .unwrap();
    let addr = handle.addr();
    let mut req = Request::json("POST", "/jobs", spec("mm", 3, "t", false, 256).into_bytes());
    req.headers.push((
        "x-moat-trace".into(),
        "00000000000000aa-00000000000000ab".into(),
    ));
    assert_eq!(send(addr, &req).status, 202);
    assert_eq!(wait_done(addr, "j0001").status, JobStatus::Done);

    let offers = metric(addr, "moat_records_total{kind=\"checkpointed\"}");
    assert_eq!(offers, 4, "budget 256 in chunks of 64");
    let written = metric(addr, "serve_checkpoints_written_total");
    let superseded = metric(addr, "serve_checkpoints_superseded_total");
    let declined = metric(addr, "serve_checkpoints_declined_total");
    assert_eq!((written, superseded, declined), (1, 0, 3));
    assert_eq!(written + superseded + declined, offers);

    let spans = std::fs::read_to_string(state_dir.join("spans.jsonl")).unwrap();
    let spans = moat_obs::export::parse_jsonl(&spans).unwrap();
    let checkpoint_spans: Vec<(String, u64)> = spans
        .iter()
        .filter_map(|r| match &r.event {
            moat_obs::Event::JobStage { stage, detail, .. } if stage == "checkpoint" => {
                Some((detail.clone(), r.dur_us))
            }
            _ => None,
        })
        .collect();
    let details: Vec<&str> = checkpoint_spans.iter().map(|s| s.0.as_str()).collect();
    assert_eq!(details, ["seq=1", "seq=2", "seq=3", "seq=4"]);
    let declined_spans: Vec<u64> = checkpoint_spans[1..].iter().map(|s| s.1).collect();
    assert_eq!(declined_spans, [0, 0, 0], "{checkpoint_spans:?}");

    let second = submit(addr, &spec("mm", 4, "t", false, 256));
    assert_eq!(wait_done(addr, &second.job).status, JobStatus::Done);
    let offers = metric(addr, "moat_records_total{kind=\"checkpointed\"}");
    let written = metric(addr, "serve_checkpoints_written_total");
    let superseded = metric(addr, "serve_checkpoints_superseded_total");
    let declined = metric(addr, "serve_checkpoints_declined_total");
    assert_eq!((offers, written, superseded, declined), (8, 1, 0, 7));
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_dir);
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            // A temp file may be renamed away between the listing and the copy.
            let _ = std::fs::copy(entry.path(), target);
        }
    }
}

/// One run of the long job at `delay_us` per evaluation: its id and result,
/// and up to three copies of the state directory taken from under the running
/// daemon, each with the `seq` of the checkpoint it caught — provided the
/// job lived long enough to have two checkpoints written and seen.
type Cut = (u64, PathBuf);

fn long_job_cuts(body: &str, delay_us: u64) -> Option<(String, Vec<u8>, Vec<Cut>)> {
    let state_dir = temp_dir("long");
    let backend = Arc::new(SyntheticBackend {
        eval_delay_us: delay_us,
    });
    let handle = serve(ServeConfig::new(&state_dir), backend).unwrap();
    let addr = handle.addr();
    let job = submit(addr, body);
    let file = Path::new("ckpt").join(format!("{}.ckpt", job.fingerprint));
    let mut cuts: Vec<Cut> = Vec::new();
    while get_job(addr, &job.job).status != JobStatus::Done {
        let newest = cuts.last().map_or(0, |cut| cut.0);
        let on_disk = moat_archive::CheckpointStore::load(state_dir.join(&file)).ok();
        if cuts.len() < 3 && on_disk.is_some_and(|ckpt| ckpt.seq > newest) {
            let cut = temp_dir("long-cut");
            copy_dir(&state_dir, &cut);
            // The copy may have caught a later write than the one seen.
            if let Ok(copied) = moat_archive::CheckpointStore::load(cut.join(&file)) {
                cuts.push((copied.seq, cut));
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let quiet = job_result(addr, &job.job);
    let offers = metric(addr, "moat_records_total{kind=\"checkpointed\"}");
    let written = metric(addr, "serve_checkpoints_written_total");
    let superseded = metric(addr, "serve_checkpoints_superseded_total");
    let declined = metric(addr, "serve_checkpoints_declined_total");
    assert!(written >= 1, "a run's first offer is always wanted");
    assert_eq!(written + superseded + declined, offers);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_dir);
    if written >= 2 && cuts.len() >= 2 {
        return Some((job.job, quiet, cuts));
    }
    for (_, cut) in cuts {
        let _ = std::fs::remove_dir_all(&cut);
    }
    None
}

fn job_result(addr: SocketAddr, id: &str) -> Vec<u8> {
    let resp = send(addr, &Request::new("GET", &format!("/jobs/{id}/result")));
    assert_eq!(resp.status, 200);
    resp.body
}

/// A job that runs long enough earns further checkpoints as it goes, and
/// whichever of them is on disk when the daemon is killed — here: when its
/// state directory is copied from under it — restarts to the quiet run's
/// result. How long is long enough is the daemon's to say (16× what a
/// write costs on this disk), so the job is lengthened until it is: 0.3 s
/// of evaluations does on a disk that syncs in a few milliseconds.
#[test]
fn a_long_job_earns_further_checkpoints_and_restarts_from_each() {
    let body = spec("mm", 5, "t", false, 2048);
    let (delay_us, (id, quiet, cuts)) = [300, 1500, 7500]
        .into_iter()
        .find_map(|delay_us| Some((delay_us, long_job_cuts(&body, delay_us)?)))
        .expect("a job of 2048 evaluations at 7.5 ms each earned no second checkpoint");

    let seqs: Vec<u64> = cuts.iter().map(|cut| cut.0).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    for (seq, cut) in cuts {
        let backend = Arc::new(SyntheticBackend {
            eval_delay_us: delay_us,
        });
        let handle = serve(ServeConfig::new(&cut), backend).unwrap();
        let addr = handle.addr();
        let state = wait_done(addr, &id);
        assert!(state.resumed, "restart from seq {seq}: {state:?}");
        assert_eq!(job_result(addr, &id), quiet, "restart from seq {seq}");
        shutdown(addr, handle);
        let _ = std::fs::remove_dir_all(&cut);
    }
}

/// Handlers start on demand: never more of them than the most connections
/// the daemon ever had open at once, however the threads are scheduled
/// (requests that follow one another share one, or two when a client is
/// back before its last connection's handler has taken the hand-off lock
/// again); connections held open side by side get one each up to the cap,
/// beyond which the next is shed; and none is left once the daemon has
/// been joined.
#[test]
fn handlers_start_on_demand_and_none_outlives_the_join() {
    let handle = serve(
        ServeConfig::new(temp_dir("handlers")),
        Arc::new(SyntheticBackend::default()),
    )
    .unwrap();
    let addr = handle.addr();
    let metrics = handle.metrics();
    let handlers = || metrics.conn_handlers.load(Ordering::Relaxed);
    let peak = || metrics.connections_peak.load(Ordering::Relaxed);
    for _ in 0..200 {
        assert_eq!(send(addr, &Request::new("GET", "/healthz")).status, 200);
        // The peak is raised before a handler starts: read it second.
        let (h, p) = (handlers(), peak());
        assert!(
            (1..=p).contains(&h),
            "{h} handlers, at most {p} connections open"
        );
    }
    assert_eq!(metric(addr, "serve_conn_handlers"), handlers());
    assert_eq!(metric(addr, "serve_connections_peak"), peak());

    // Every earlier connection closed: the cap below is all the clients'.
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.connections_active.load(Ordering::Relaxed) > 0 {
        assert!(
            Instant::now() < deadline,
            "an earlier connection never closed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // 64 clients that connect and say nothing yet: each holds a handler.
    let mut held: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.connections_active.load(Ordering::Relaxed) < 64 {
        assert!(Instant::now() < deadline, "64 connections never accepted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let over = send(addr, &Request::new("GET", "/healthz"));
    assert_eq!(over.status, 503, "the 65th connection is shed");
    assert!(over.header("retry-after").is_some());
    for stream in &mut held {
        wire::write_request(stream, &Request::new("GET", "/healthz")).unwrap();
    }
    for stream in &mut held {
        assert_eq!(wire::read_response(stream).expect("served").status, 200);
    }
    drop(held);
    assert_eq!(handlers(), 64);
    assert_eq!(peak(), 64);

    let asked = Instant::now();
    handle.stop();
    handle.join().expect("clean shutdown");
    assert!(asked.elapsed() < Duration::from_secs(1));
    assert_eq!(handlers(), 0);
}

/// Every file under `dir`, relative to it.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        if entry.path().is_dir() {
            files.extend(files_under(&entry.path()));
        } else {
            files.push(entry.path());
        }
    }
    files.sort();
    files
}

/// A finished job creates no file. Twenty jobs over ten keys (one of them
/// submitted twice: the subscriber reads its primary's bytes), a restart
/// that still serves every one of their results and traces byte for byte,
/// a hundred and eighty more on the same keys: the state directory holds
/// the same files after 200 jobs as after 20 — the table, the two logs of
/// what jobs left, one record and one deposit log per key and shard.
#[test]
fn two_hundred_jobs_leave_the_files_twenty_did() {
    let state_dir = temp_dir("files");
    let body = |n: u64| {
        let machine = ["westmere", "barcelona"][n as usize % 2];
        let kernel = ["mm", "dsyrk", "jacobi2d", "stencil3d", "nbody"][n as usize / 2 % 5];
        spec(kernel, n, "t", false, 256).replace("westmere", machine)
    };
    let artifacts = |addr, id: &str| {
        let get = |what: &str| send(addr, &Request::new("GET", &format!("/jobs/{id}/{what}")));
        let (result, trace) = (get("result"), get("trace"));
        assert_eq!((result.status, trace.status), (200, 200), "{id}");
        (result.body, trace.body)
    };

    let handle = serve(
        ServeConfig::new(&state_dir),
        Arc::new(SyntheticBackend::default()),
    )
    .unwrap();
    let addr = handle.addr();
    let mut served = Vec::new();
    for n in 0..20 {
        let job = submit(addr, &body(n));
        assert_eq!(wait_done(addr, &job.job).status, JobStatus::Done);
        served.push((job.job.clone(), artifacts(addr, &job.job)));
    }
    let subscriber = submit(addr, &body(7).replace("\"t\"", "\"other\""));
    assert_eq!(subscriber.serves_as, served[7].0);
    assert_eq!(artifacts(addr, &subscriber.job), served[7].1);
    shutdown(addr, handle);
    let after_twenty = files_under(&state_dir);
    let named = |name: &str| after_twenty.iter().filter(|f| f.ends_with(name)).count();
    assert_eq!(named("artifacts.log"), 1);
    assert!(after_twenty.len() <= 20, "{after_twenty:?}");

    let handle = serve(
        ServeConfig::new(&state_dir),
        Arc::new(SyntheticBackend::default()),
    )
    .unwrap();
    let addr = handle.addr();
    for (id, bytes) in &served {
        assert_eq!(&artifacts(addr, id), bytes, "{id} after the restart");
    }
    for n in 20..200 {
        let job = submit(addr, &body(n));
        assert_eq!(wait_done(addr, &job.job).status, JobStatus::Done);
    }
    shutdown(addr, handle);
    assert_eq!(files_under(&state_dir), after_twenty);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A state directory of the layout before the artifact log — a file per
/// job under `results/` and `traces/`, a file per deposit under
/// `shard-NN/incoming/` — is refused with an error that names what was
/// found, not served with 404s or with its deposits dropped.
#[test]
fn a_state_directory_of_the_old_layout_is_refused() {
    let start = |state_dir: &Path| {
        serve(
            ServeConfig::new(state_dir),
            Arc::new(SyntheticBackend::default()),
        )
    };
    for old in ["results", "traces", "archive/shard-02/incoming"] {
        let state_dir = temp_dir("old-layout");
        let handle = start(&state_dir).unwrap();
        shutdown(handle.addr(), handle);
        std::fs::create_dir_all(state_dir.join(old)).unwrap();
        std::fs::write(state_dir.join(old).join("j0001.json"), "{}").unwrap();
        let err = start(&state_dir).err().expect("must not serve");
        let found = state_dir.join(old);
        assert!(err.to_string().contains(found.to_str().unwrap()), "{err}");
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}

/// A crash between a replace's temp write and its rename leaves the temp
/// behind; the next start removes every such temp — beside `jobs.json`,
/// `shards.json`, a shard record and a checkpoint — and leaves every real
/// file as it was.
#[test]
fn start_sweeps_stale_temps_and_keeps_every_real_file() {
    let state = temp_dir("sweep");
    let handle = serve(
        ServeConfig::new(&state),
        Arc::new(SyntheticBackend::default()),
    )
    .expect("daemon starts");
    let sub = submit(handle.addr(), &spec("mm", 1, "sweep", false, 32));
    wait_done(handle.addr(), &sub.job);
    shutdown(handle.addr(), handle);
    // A checkpoint no row resumes from stays where it is.
    let ckpt = state.join("ckpt").join(format!("{:016x}.ckpt", 7));
    std::fs::write(&ckpt, b"{\"seq\":1}\n{}\n").unwrap();
    let contents = |files: Vec<PathBuf>| -> Vec<(Vec<u8>, PathBuf)> {
        let read = |p: PathBuf| (std::fs::read(&p).unwrap(), p);
        files.into_iter().map(read).collect()
    };
    let real = contents(files_under(&state));
    let in_shard = |p: &Path| {
        let dir = p.parent().and_then(Path::file_name).unwrap_or_default();
        dir.to_string_lossy().starts_with("shard-")
    };
    let record = files_under(&state)
        .into_iter()
        .find(|p| in_shard(p) && p.extension().is_some_and(|e| e == "json"))
        .expect("a shard record");
    let temps = [
        state.join("jobs.json.tmp"),
        state.join("archive").join("shards.json.tmp"),
        state.join("archive").join(".shards.json.tmp"),
        record.with_extension("json.tmp"),
        ckpt.with_extension("ckpt.tmp"),
    ];
    for temp in &temps {
        std::fs::write(temp, b"{ torn").unwrap();
    }

    let handle = serve(
        ServeConfig::new(&state),
        Arc::new(SyntheticBackend::default()),
    )
    .expect("daemon restarts");
    for temp in &temps {
        assert!(!temp.exists(), "{} swept at start", temp.display());
    }
    shutdown(handle.addr(), handle);
    assert_eq!(
        contents(files_under(&state)),
        real,
        "every real file intact"
    );
    let _ = std::fs::remove_dir_all(&state);
}
