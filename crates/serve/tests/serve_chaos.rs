//! Service-layer chaos tests: the daemon under seeded backend faults
//! (panics, errors, checkpoint-dir sabotage) and client-side connection
//! abuse (garbage frames, mid-body disconnects, byte-trickle slowloris),
//! across restarts.
//!
//! The invariants, per ISSUE 9:
//! * **no stuck jobs** — every accepted job reaches a terminal state;
//! * **no lost jobs** — a restart mid-run loses no accepted job;
//! * **reproducibility** — surviving jobs' results are byte-identical to
//!   a quiet (fault-free) run of the same specs;
//! * **isolation** — a hostile tenant is shed while a fair tenant's jobs
//!   all complete, and a panicking fingerprint trips its own circuit
//!   breaker without touching other jobs.

use moat_serve::chaos::{ChaosBackend, ChaosConfig, Fate};
use moat_serve::daemon::{serve, JobState, JobStatus, ServeConfig, ServeHandle};
use moat_serve::spec::{JobSpec, SubmitResponse};
use moat_serve::wire::{self, Request, Response};
use moat_serve::SyntheticBackend;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The chaos schedules the suite runs under. Each seed produces a
/// different deterministic fault assignment over the same spec set; all
/// three are chosen so the 15-spec mix draws panics, errors, checkpoint
/// sabotage AND a healthy population of survivors.
const SEEDS: [u64; 3] = [11, 13, 17];

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("moat-serve-chaos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Injected backend panics are expected noise here; keep the default
/// hook's backtraces for everything else.
fn silence_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
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
    });
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

fn wait_done(addr: SocketAddr, id: &str) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let state = get_job(addr, id);
        if matches!(state.status, JobStatus::Done | JobStatus::Failed) {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {state:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Poll until every job in the table is terminal; the no-stuck-jobs
/// invariant with a hard deadline.
fn wait_all_terminal(addr: SocketAddr, expected: usize) -> Vec<JobState> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = send(addr, &Request::new("GET", "/jobs"));
        assert_eq!(resp.status, 200);
        let rows: Vec<JobState> =
            serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        if rows.len() == expected
            && rows
                .iter()
                .all(|r| matches!(r.status, JobStatus::Done | JobStatus::Failed))
        {
            return rows;
        }
        assert!(
            Instant::now() < deadline,
            "jobs stuck under chaos: {:?}",
            rows.iter()
                .map(|r| (r.id.clone(), r.status))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(15));
    }
}

fn shutdown(addr: SocketAddr, handle: ServeHandle) {
    let resp = send(addr, &Request::new("POST", "/shutdown"));
    assert_eq!(resp.status, 200);
    handle.join().expect("clean shutdown");
}

fn metrics_text(addr: SocketAddr) -> String {
    let resp = send(addr, &Request::new("GET", "/metrics"));
    assert_eq!(resp.status, 200);
    String::from_utf8_lossy(&resp.body).to_string()
}

/// Scrape one metric line (exact name, or `name{label}` line) as u64.
fn metric(text: &str, prefix: &str) -> u64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(prefix)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

fn spec(kernel: &str, seed: u64, tenant: &str, budget: u64) -> String {
    format!(
        r#"{{"tenant": "{tenant}", "kernel": "{kernel}", "machine": "westmere",
            "strategy": "random", "seed": {seed}, "budget": {budget},
            "warm_start": false}}"#
    )
}

/// The fixed spec mix the reproducibility test runs under every seed.
fn chaos_specs() -> Vec<String> {
    let mut specs = Vec::new();
    for kernel in ["mm", "dsyrk", "jacobi2d"] {
        for seed in 1..=5u64 {
            specs.push(spec(kernel, seed, "chaos", 48));
        }
    }
    specs
}

fn fingerprint_of(spec_json: &str) -> u64 {
    let spec: JobSpec = serde_json::from_str(spec_json).expect("valid spec");
    spec.fingerprint()
}

/// Client-side connection abuse thrown at a live daemon: none of these
/// are well-formed exchanges, and none may wedge it.
fn connection_chaos(addr: SocketAddr) {
    // Garbage frame.
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(b"\x16\x03\x01\x02\x00garbage\r\n\r\n");
        let _ = wire::read_response(&mut s);
    }
    // Mid-body disconnect: declare 400 bytes, send 10, hang up.
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(b"POST /jobs HTTP/1.1\r\ncontent-length: 400\r\n\r\n{\"tenant\":");
    }
    // Byte-trickle slowloris, abandoned mid-head.
    if let Ok(mut s) = TcpStream::connect(addr) {
        for b in b"GET /jobs HTT" {
            if s.write_all(&[*b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Quiet reference run: the same specs against a fault-free daemon, with
/// each Done job's result bytes collected by spec index.
fn quiet_results(specs: &[String]) -> Vec<Vec<u8>> {
    let handle = serve(
        ServeConfig::new(temp_dir("quiet")),
        Arc::new(SyntheticBackend::default()),
    )
    .expect("daemon starts");
    let addr = handle.addr();
    let ids: Vec<String> = specs.iter().map(|s| submit(addr, s).job).collect();
    let mut results = Vec::new();
    for id in &ids {
        let state = wait_done(addr, id);
        assert_eq!(state.status, JobStatus::Done, "quiet run must not fail");
        let resp = send(addr, &Request::new("GET", &format!("/jobs/{id}/result")));
        assert_eq!(resp.status, 200);
        results.push(resp.body);
    }
    shutdown(addr, handle);
    results
}

/// The tentpole scenario, per seed: chaos run with connection abuse, a
/// restart mid-flight, then — against the fate schedule — no lost jobs,
/// no stuck jobs, and byte-identical results for every surviving job.
#[test]
fn chaos_runs_terminate_recover_and_reproduce() {
    silence_chaos_panics();
    let specs = chaos_specs();
    let quiet = quiet_results(&specs);

    for seed in SEEDS {
        let chaos_cfg = ChaosConfig::new(seed);
        let state_dir = temp_dir(&format!("storm-{seed}"));
        let mut config = ServeConfig::new(&state_dir);
        // Cut abusive connections fast so the run does not wait on them.
        config.conn_deadline = Duration::from_millis(500);
        config.read_timeout = Duration::from_millis(200);

        let backend = || {
            Arc::new(ChaosBackend::new(
                Arc::new(SyntheticBackend { eval_delay_us: 500 }),
                ChaosConfig::new(seed),
            ))
        };
        let handle = serve(config.clone(), backend()).expect("daemon starts");
        let addr = handle.addr();

        let ids: Vec<String> = specs.iter().map(|s| submit(addr, s).job).collect();
        connection_chaos(addr);

        // Pull the plug mid-flight: sessions park, queued jobs stay
        // queued, nothing may be lost.
        std::thread::sleep(Duration::from_millis(30));
        handle.stop();
        handle.join().expect("clean shutdown under chaos");

        let handle = serve(config, backend()).expect("daemon restarts");
        let addr = handle.addr();
        let rows = wait_all_terminal(addr, specs.len());
        assert_eq!(rows.len(), specs.len(), "accepted jobs lost in restart");

        let by_id: BTreeMap<&str, &JobState> = rows.iter().map(|r| (r.id.as_str(), r)).collect();
        for (i, spec_json) in specs.iter().enumerate() {
            let fp = fingerprint_of(spec_json);
            let state = by_id[ids[i].as_str()];
            match chaos_cfg.fate(fp) {
                Fate::Clean | Fate::Slow | Fate::CheckpointDeny => {
                    assert_eq!(
                        state.status,
                        JobStatus::Done,
                        "seed {seed}: surviving job {} ({:?}) did not finish: {state:?}",
                        ids[i],
                        chaos_cfg.fate(fp)
                    );
                    let resp = send(
                        addr,
                        &Request::new("GET", &format!("/jobs/{}/result", ids[i])),
                    );
                    assert_eq!(resp.status, 200);
                    assert_eq!(
                        resp.body, quiet[i],
                        "seed {seed}: job {} result differs from the quiet run",
                        ids[i]
                    );
                }
                Fate::Panic => {
                    assert_eq!(state.status, JobStatus::Failed, "seed {seed}: {state:?}");
                    let err = state.error.as_deref().unwrap_or("");
                    assert!(
                        err.contains("backend panicked: chaos: injected backend panic"),
                        "seed {seed}: {err}"
                    );
                }
                Fate::Error => {
                    assert_eq!(state.status, JobStatus::Failed, "seed {seed}: {state:?}");
                    let err = state.error.as_deref().unwrap_or("");
                    assert!(err.contains("chaos: injected backend error"), "{err}");
                }
            }
        }

        // Sanity on the schedule itself: this seed's mix must actually
        // exercise both failure arms (the seeds are chosen for coverage).
        let fates: Vec<Fate> = specs
            .iter()
            .map(|s| chaos_cfg.fate(fingerprint_of(s)))
            .collect();
        assert!(fates.contains(&Fate::Panic), "seed {seed}: no panics drawn");
        assert!(
            fates.iter().any(|f| matches!(f, Fate::Clean | Fate::Slow)),
            "seed {seed}: no survivors drawn"
        );

        // Every contained panic left a ServePanic event in the service
        // obs log, which — unlike the in-memory counter — survives the
        // restart. Each panicking fingerprint fails exactly once.
        let panics = fates.iter().filter(|f| **f == Fate::Panic).count();
        let obs = std::fs::read_to_string(state_dir.join("serve.jsonl")).unwrap_or_default();
        let logged = obs.lines().filter(|l| l.contains("ServePanic")).count();
        assert!(
            logged >= panics,
            "seed {seed}: {panics} panics drawn, {logged} logged"
        );

        assert_eq!(send(addr, &Request::new("GET", "/healthz")).status, 200);
        shutdown(addr, handle);
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}

/// A job's trace is what its session emitted, however the daemon around
/// it timed its checkpoint writes: two same-seed chaos sessions serve
/// byte-identical traces for every job, checkpoint-denied ones included.
#[test]
fn same_seed_chaos_sessions_serve_identical_traces() {
    silence_chaos_panics();
    let specs = chaos_specs();
    let session = |run: u32| {
        let state_dir = temp_dir(&format!("traces-{run}"));
        let backend = ChaosBackend::new(
            Arc::new(SyntheticBackend { eval_delay_us: 500 }),
            ChaosConfig::new(SEEDS[0]),
        );
        let handle = serve(ServeConfig::new(&state_dir), Arc::new(backend)).expect("starts");
        let addr = handle.addr();
        let ids: Vec<String> = specs.iter().map(|s| submit(addr, s).job).collect();
        wait_all_terminal(addr, specs.len());
        let traces: Vec<(String, Response)> = ids
            .into_iter()
            .map(|id| {
                let trace = send(addr, &Request::new("GET", &format!("/jobs/{id}/trace")));
                (id, trace)
            })
            .collect();
        shutdown(addr, handle);
        let _ = std::fs::remove_dir_all(&state_dir);
        traces
    };
    let first = session(0);
    let second = session(1);
    let denied = specs
        .iter()
        .filter(|s| ChaosConfig::new(SEEDS[0]).fate(fingerprint_of(s)) == Fate::CheckpointDeny)
        .count();
    assert!(denied > 0, "the seed draws checkpoint sabotage");
    for ((id, a), (_, b)) in first.iter().zip(&second) {
        assert_eq!(a.status, b.status, "{id}");
        assert_eq!(
            String::from_utf8_lossy(&a.body),
            String::from_utf8_lossy(&b.body),
            "{id}: same seed, different trace"
        );
    }
}

/// Per-tenant quotas: a hostile tenant hammering distinct specs is shed
/// with 429 + Retry-After, while a fair tenant's jobs all complete and
/// are never shed.
#[test]
fn hostile_tenant_is_shed_fair_tenant_unaffected() {
    silence_chaos_panics();
    let mut config = ServeConfig::new(temp_dir("tenants"));
    config.tenant_max_inflight = 2;
    let handle =
        serve(config, Arc::new(SyntheticBackend { eval_delay_us: 800 })).expect("daemon starts");
    let addr = handle.addr();

    // Hostile: 12 distinct specs fired back-to-back. At most 2 may be in
    // flight; the surplus must shed with 429 and a Retry-After hint.
    let mut accepted = 0u32;
    let mut shed = 0u32;
    for seed in 1..=12u64 {
        let resp = send(
            addr,
            &Request::json(
                "POST",
                "/jobs",
                spec("mm", seed, "hostile", 64).into_bytes(),
            ),
        );
        match resp.status {
            202 => accepted += 1,
            429 => {
                shed += 1;
                assert_eq!(
                    resp.header("retry-after"),
                    Some("1"),
                    "shed responses advertise Retry-After"
                );
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!((1..=2).contains(&accepted), "cap is 2, got {accepted}");
    assert!(shed >= 10, "surplus must shed, got {shed}");

    // Fair tenant, staying under the cap: never shed, all Done.
    for seed in 1..=3u64 {
        let sub = submit(addr, &spec("dsyrk", seed, "fair", 32));
        let state = wait_done(addr, &sub.job);
        assert_eq!(state.status, JobStatus::Done, "fair tenant job failed");
    }

    let text = metrics_text(addr);
    assert_eq!(
        metric(&text, "serve_shed_total{reason=\"tenant_inflight\"}"),
        shed as u64,
        "every shed is attributed to the hostile tenant's quota"
    );
    // The service obs log pins every shed on the hostile tenant.
    let resp = send(addr, &Request::new("GET", "/jobs"));
    assert_eq!(resp.status, 200);
    shutdown(addr, handle);
}

/// The per-fingerprint circuit breaker: strikes open it, an open breaker
/// sheds resubmissions for a deterministic cooldown, then a half-open
/// trial re-opens it on failure.
#[test]
fn breaker_opens_sheds_and_half_opens() {
    silence_chaos_panics();
    let mut config = ServeConfig::new(temp_dir("breaker"));
    config.breaker_strikes = 2;
    config.breaker_cooldown = 2;
    config.robustness_seed = 99;
    let always_fail = ChaosConfig {
        seed: 1,
        panic_per_mille: 0,
        error_per_mille: 1000,
        slow_per_mille: 0,
        ckpt_deny_per_mille: 0,
    };
    let handle = serve(
        config,
        Arc::new(ChaosBackend::new(
            Arc::new(SyntheticBackend::default()),
            always_fail,
        )),
    )
    .expect("daemon starts");
    let addr = handle.addr();
    let body = spec("mm", 7, "striker", 16);

    // Two strikes: each submission is admitted, runs, and fails.
    for strike in 1..=2 {
        let sub = submit(addr, &body);
        let state = wait_done(addr, &sub.job);
        assert_eq!(state.status, JobStatus::Failed, "strike {strike}");
    }
    let text = metrics_text(addr);
    assert_eq!(metric(&text, "serve_breaker_trips_total"), 1, "{text}");
    assert_eq!(metric(&text, "serve_breaker_state"), 1, "breaker open");

    // Open: resubmissions shed 503 for the seeded cooldown, then one
    // half-open trial is admitted; it fails, so the breaker re-opens.
    let mut sheds = 0u32;
    let mut trial = None;
    for _ in 0..16 {
        let resp = send(
            addr,
            &Request::json("POST", "/jobs", body.clone().into_bytes()),
        );
        match resp.status {
            503 => {
                sheds += 1;
                assert!(resp.header("retry-after").is_some());
            }
            202 => {
                let sub: SubmitResponse =
                    serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
                trial = Some(sub.job);
                break;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    let trial = trial.expect("breaker must half-open within a bounded cooldown");
    assert!(sheds >= 2, "cooldown sheds at least its base, got {sheds}");
    let state = wait_done(addr, &trial);
    assert_eq!(state.status, JobStatus::Failed, "trial fails under chaos");

    let text = metrics_text(addr);
    assert!(
        metric(&text, "serve_breaker_trips_total") >= 2,
        "failed trial re-trips: {text}"
    );
    assert!(metric(&text, "serve_shed_total{reason=\"breaker\"}") >= sheds as u64);
    shutdown(addr, handle);
}

/// Slowloris defense and the connection cap: a trickling client is cut
/// with 408 at the deadline; with one connection slot, a held connection
/// sheds the next client 503 until it is released.
#[test]
fn slowloris_cut_and_connection_cap_sheds() {
    silence_chaos_panics();
    let mut config = ServeConfig::new(temp_dir("slowloris"));
    config.read_timeout = Duration::from_millis(100);
    config.conn_deadline = Duration::from_millis(300);
    config.max_connections = 1;
    let handle = serve(config, Arc::new(SyntheticBackend::default())).expect("daemon starts");
    let addr = handle.addr();

    // Trickle one byte per 50 ms: the whole-frame deadline must cut the
    // connection with 408 even though no single read ever times out.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let t0 = Instant::now();
    let mut answered = None;
    for b in b"GET /jobs HTTP/1.1\r\n\r\n" {
        if s.write_all(&[*b]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        if t0.elapsed() > Duration::from_millis(400) {
            break;
        }
    }
    if let Ok(resp) = wire::read_response(&mut s) {
        answered = Some(resp.status);
    }
    assert_eq!(answered, Some(408), "trickling client is cut with 408");
    drop(s);

    // Connection cap: hold one connection open (it counts as active until
    // its deadline), and the next client must be shed with 503.
    let held = TcpStream::connect(addr).expect("connect hold");
    std::thread::sleep(Duration::from_millis(30));
    let mut second = TcpStream::connect(addr).expect("connect second");
    wire::write_request(&mut second, &Request::new("GET", "/healthz")).unwrap();
    let resp = wire::read_response(&mut second).expect("shed response");
    assert_eq!(resp.status, 503, "over-cap connection is shed");
    assert!(resp.header("retry-after").is_some());
    drop(held);
    drop(second);

    // After the held slot frees (idle cut at the read timeout), normal
    // service resumes.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut s = TcpStream::connect(addr).expect("connect");
        wire::write_request(&mut s, &Request::new("GET", "/healthz")).unwrap();
        if let Ok(resp) = wire::read_response(&mut s) {
            if resp.status == 200 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "service never recovered");
        std::thread::sleep(Duration::from_millis(50));
    }

    // At a cap of one, a request right behind another can still find the
    // slot taken (it is released after the response is written): retry a
    // shed the way a client honouring Retry-After would.
    let retrying = |req: &Request| loop {
        let resp = send(addr, req);
        if resp.status != 503 {
            return resp;
        }
        assert!(Instant::now() < deadline, "service never recovered");
        std::thread::sleep(Duration::from_millis(10));
    };
    let text = retrying(&Request::new("GET", "/metrics"));
    assert_eq!(text.status, 200);
    let text = String::from_utf8_lossy(&text.body).to_string();
    assert!(metric(&text, "serve_shed_total{reason=\"slow_client\"}") >= 1);
    assert!(metric(&text, "serve_shed_total{reason=\"connections\"}") >= 1);
    assert_eq!(retrying(&Request::new("POST", "/shutdown")).status, 200);
    handle.join().expect("clean shutdown");
}

/// Disk faults: a directory planted where the job-table journal is
/// opened, where the snapshot's tmp file is written and where the
/// checkpoint is renamed to makes every row append, every snapshot and
/// every checkpoint save fail — all are counted, none kills the job, and
/// its result is the quiet run's.
#[test]
fn disk_faults_are_counted_not_fatal() {
    silence_chaos_panics();
    let state_dir = temp_dir("disk");
    std::fs::create_dir_all(state_dir.join("ckpt")).unwrap();
    // Sabotage the hot path: opening a directory for append fails.
    std::fs::create_dir_all(state_dir.join("jobs.journal")).unwrap();
    // Sabotage the start/shutdown snapshot: fs::write into a directory fails.
    std::fs::create_dir_all(state_dir.join("jobs.json.tmp")).unwrap();
    // Sabotage the checkpoint of the one spec this test submits: the
    // store opens, and no save can rename its temp file over a directory.
    let body = spec("jacobi2d", 3, "disk", 32);
    let jspec: JobSpec = serde_json::from_str(&body).unwrap();
    std::fs::create_dir_all(
        state_dir
            .join("ckpt")
            .join(format!("{}.ckpt", jspec.fingerprint_hex())),
    )
    .unwrap();

    let handle = serve(
        ServeConfig::new(&state_dir),
        Arc::new(SyntheticBackend::default()),
    )
    .expect("daemon starts despite planted faults");
    let addr = handle.addr();
    let sub = submit(addr, &body);
    let state = wait_done(addr, &sub.job);
    assert_eq!(
        state.status,
        JobStatus::Done,
        "job completes despite persist and checkpoint failures: {state:?}"
    );

    let text = metrics_text(addr);
    // The start-up snapshot, then the job's Queued/Running/Done rows.
    assert!(
        metric(&text, "serve_persist_errors_total") >= 4,
        "failed journal and snapshot writes are counted, not dropped: {text}"
    );
    assert!(
        metric(&text, "serve_parked_checkpoints") >= 1,
        "failed checkpoint saves park and are gauged: {text}"
    );
    assert_eq!(metric(&text, "serve_checkpoints_written_total"), 0);
    let trace = send(
        addr,
        &Request::new("GET", &format!("/jobs/{}/trace", sub.job)),
    );
    assert!(
        !String::from_utf8_lossy(&trace.body).contains("CheckpointParked"),
        "the job's trace is its session's alone"
    );
    let service = std::fs::read_to_string(state_dir.join("serve.jsonl")).unwrap();
    let parked: Vec<&str> = service
        .lines()
        .filter(|l| l.contains("\"CheckpointParked\""))
        .collect();
    let path = format!("\"ckpt/{}.ckpt\"", jspec.fingerprint_hex());
    assert!(
        parked.len() == 1 && parked[0].contains(&path),
        "one parked-save event, naming the file under the state dir: {service}"
    );
    let result = send(
        addr,
        &Request::new("GET", &format!("/jobs/{}/result", sub.job)),
    );
    assert_eq!(result.status, 200);
    assert_eq!(send(addr, &Request::new("GET", "/healthz")).status, 200);
    handle.stop();
    handle.join().expect("shutdown survives persist failures");
    let _ = std::fs::remove_dir_all(&state_dir);

    let quiet_dir = temp_dir("disk-quiet");
    let quiet = serve(
        ServeConfig::new(&quiet_dir),
        Arc::new(SyntheticBackend::default()),
    )
    .unwrap();
    let quiet_job = submit(quiet.addr(), &body);
    wait_done(quiet.addr(), &quiet_job.job);
    let path = format!("/jobs/{}/result", quiet_job.job);
    let quiet_result = send(quiet.addr(), &Request::new("GET", &path));
    assert_eq!(result.body, quiet_result.body, "faults change no byte");
    quiet.stop();
    quiet.join().unwrap();
    let _ = std::fs::remove_dir_all(&quiet_dir);
}

/// `/readyz` flips to 503 once shutdown is requested, while `/healthz`
/// keeps answering with the saturation snapshot.
#[test]
fn readyz_reflects_shutdown() {
    silence_chaos_panics();
    let handle = serve(
        ServeConfig::new(temp_dir("ready")),
        Arc::new(SyntheticBackend::default()),
    )
    .expect("daemon starts");
    let addr = handle.addr();
    let resp = send(addr, &Request::new("GET", "/readyz"));
    assert_eq!(resp.status, 200);
    assert!(String::from_utf8_lossy(&resp.body).contains("\"ready\":true"));
    let health = send(addr, &Request::new("GET", "/healthz"));
    assert_eq!(health.status, 200);
    let body = String::from_utf8_lossy(&health.body).to_string();
    for key in [
        "queue_depth",
        "pool_in_use",
        "connections_active",
        "shed_total",
    ] {
        assert!(body.contains(key), "healthz missing {key}: {body}");
    }
    assert_eq!(send(addr, &Request::new("PUT", "/readyz")).status, 405);

    handle.stop();
    // The accept loop may take a beat to see the flag, but once it does,
    // readiness must report shutting-down.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let Ok(mut s) = TcpStream::connect(addr) else {
            break; // listener already gone — equally not ready
        };
        if wire::write_request(&mut s, &Request::new("GET", "/readyz")).is_err() {
            break;
        }
        match wire::read_response(&mut s) {
            Ok(resp) if resp.status == 503 => break,
            Ok(_) | Err(_) => {}
        }
        assert!(Instant::now() < deadline, "readyz never flipped");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.join().expect("clean shutdown");
}

/// A crash that tears `serve.jsonl`'s last record must not poison the
/// log: the restarted daemon cuts the torn bytes, so its next shed starts
/// its own line and the log still parses (`moat-report --from-serve`
/// drops its admission section when it does not).
#[test]
fn a_torn_service_log_record_is_cut_before_the_next_shed() {
    let state_dir = temp_dir("torn-log");
    let start = || {
        let mut config = ServeConfig::new(&state_dir);
        config.tenant_rate = 0.001;
        config.tenant_burst = 1.0;
        serve(config, Arc::new(SyntheticBackend::default())).expect("daemon starts")
    };
    // The bucket holds one submission; the next `n` are shed.
    let shed = |addr: SocketAddr, seed: u64, n: u64| {
        let sub = submit(addr, &spec("mm", seed, "torn", 32));
        wait_done(addr, &sub.job);
        for k in 1..=n {
            let body = spec("mm", seed + k, "torn", 32).into_bytes();
            let resp = send(addr, &Request::json("POST", "/jobs", body));
            assert_eq!(resp.status, 429, "{}", String::from_utf8_lossy(&resp.body));
        }
    };
    let handle = start();
    shed(handle.addr(), 1, 2);
    shutdown(handle.addr(), handle);

    // The second shed's record is the one a crash tore.
    let path = state_dir.join("serve.jsonl");
    let full = std::fs::read(&path).unwrap();
    let second = full.iter().position(|&b| b == b'\n').unwrap() + 1;
    assert!(full.len() > second + 5, "two records logged");
    std::fs::write(&path, &full[..second + 5]).unwrap();

    let handle = start();
    shed(handle.addr(), 10, 1);
    shutdown(handle.addr(), handle);

    let text = std::fs::read_to_string(&path).unwrap();
    let records = moat_obs::export::parse_jsonl(&text)
        .unwrap_or_else(|e| panic!("serve.jsonl no longer parses: {e}\n{text}"));
    let sheds: Vec<(u64, &str)> = records
        .iter()
        .filter_map(|r| match &r.event {
            moat_obs::Event::ServeShed { tenant, .. } => Some((r.seq, tenant.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(sheds, [(1, "torn"), (2, "torn")], "{text}");
    let _ = std::fs::remove_dir_all(&state_dir);
}
