//! End-to-end service tests over the *real* tuning backend: the daemon
//! protocol drives `TuneBackend` (analyzer → cost model → session →
//! archive record) instead of the synthetic test double.

use moat::serve::wire::{read_response, write_request, Request, Response};
use moat::serve::{
    serve, ArtifactLog, FairPool, JobBackend, JobContext, JobInfo, JobOutcome, JobSpec, JobState,
    JobStatus, PreparedJob, ServeConfig, SubmitResponse, SyntheticBackend,
};
use moat::TuneBackend;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
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

/// A backend whose sessions evaluate one configuration at a time through
/// the test's own one-slot pool: the test holds the slot and lets a
/// session through evaluation by evaluation.
struct Stepped {
    inner: Arc<dyn JobBackend>,
    gate: Arc<FairPool>,
}

struct SteppedJob {
    inner: Box<dyn PreparedJob>,
    gate: Arc<FairPool>,
}

impl JobBackend for Stepped {
    fn prepare(&self, spec: &JobSpec) -> Result<Box<dyn PreparedJob>, String> {
        Ok(Box::new(SteppedJob {
            inner: self.inner.prepare(spec)?,
            gate: Arc::clone(&self.gate),
        }))
    }
}

impl PreparedJob for SteppedJob {
    fn info(&self) -> &JobInfo {
        self.inner.info()
    }

    fn run(self: Box<Self>, mut ctx: JobContext) -> Result<JobOutcome, String> {
        ctx.pool = self.gate;
        ctx.slots = 1;
        self.inner.run(ctx)
    }
}

/// Job `id`'s trace as the artifact log of `state` holds it — read beside
/// the daemon, when one is running.
fn stored_trace(state: &Path, id: &str) -> String {
    let log = ArtifactLog::read_only(state).unwrap();
    String::from_utf8(log.trace(id).expect("the job left a trace")).unwrap()
}

/// The `seq` of every checkpoint the job's last incarnation offered,
/// from its own trace.
fn checkpoints_offered(state: &Path) -> Vec<u64> {
    let text = stored_trace(state, "j0001");
    let records = moat::obs::export::parse_jsonl(&text).unwrap();
    let seq = |r: &moat::obs::Record| match r.event {
        moat::obs::Event::Checkpointed { seq } => Some(seq),
        _ => None,
    };
    records.iter().filter_map(seq).collect()
}

/// The one row of a stopped daemon's job table.
fn sole_row(state: &Path) -> JobState {
    let rows = std::fs::read_to_string(state.join("jobs.json")).unwrap();
    let mut rows: Vec<JobState> = serde_json::from_str(&rows).unwrap();
    assert_eq!(rows.len(), 1);
    rows.remove(0)
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// The resume guarantee under write-behind checkpoints, cut by cut. One
/// job is carried through a chain of daemons, each stopped while the
/// session sits inside the first batch it started — past that batch's
/// cancellation check, queued for its first evaluation at a gate the test
/// holds — so every incarnation advances the job by one safe boundary and
/// parks. Each time, the file on disk must be the checkpoint of exactly
/// that boundary (`seq` of the last `Checkpointed` event, `evaluations`
/// of the row), and a copy of the state directory, its row put back to
/// `Running` as a `kill -9` after that write would have left it, must run
/// to the uninterrupted result byte for byte — as must the chain itself,
/// and a copy whose checkpoint never reached the disk at all.
fn resumes_from_every_cut(backend: fn() -> Arc<dyn JobBackend>, body: &str) -> Vec<u64> {
    let reference_state = temp_dir("cut-ref");
    let handle = serve(ServeConfig::new(&reference_state), backend()).unwrap();
    let addr = handle.addr();
    let fingerprint = submit(addr, body).fingerprint;
    wait_done(addr, "j0001");
    let reference = result_bytes(addr, "j0001");
    shutdown(addr, handle);
    let offered = checkpoints_offered(&reference_state);
    let left = std::fs::read_dir(reference_state.join("ckpt"))
        .unwrap()
        .count();
    assert_eq!(left, 0, "completion retires the checkpoint");
    let _ = std::fs::remove_dir_all(&reference_state);

    let killed_here = |parked: &Path, with_checkpoint: bool| {
        let state = temp_dir("cut-kill");
        copy_dir(parked, &state);
        let mut row = sole_row(&state);
        row.status = JobStatus::Running;
        std::fs::write(
            state.join("jobs.json"),
            serde_json::to_string(&vec![row]).unwrap(),
        )
        .unwrap();
        if !with_checkpoint {
            std::fs::remove_file(state.join("ckpt").join(format!("{fingerprint}.ckpt"))).unwrap();
        }
        let handle = serve(ServeConfig::new(&state), backend()).unwrap();
        let addr = handle.addr();
        wait_done(addr, "j0001");
        assert_eq!(
            job_field(addr, "j0001", "resumed"),
            with_checkpoint.to_string()
        );
        assert_eq!(result_bytes(addr, "j0001"), reference, "resume is exact");
        shutdown(addr, handle);
        assert_eq!(std::fs::read_dir(state.join("ckpt")).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&state);
    };

    let state = temp_dir("cut-chain");
    let gate = FairPool::new(1);
    let mut parked_at = Vec::new();
    loop {
        let hold = gate.acquire(u64::MAX);
        let stepped = Arc::new(Stepped {
            inner: backend(),
            gate: Arc::clone(&gate),
        });
        let handle = serve(ServeConfig::new(&state), stepped).unwrap();
        if parked_at.is_empty() {
            submit(handle.addr(), body);
        }
        while gate.waiting() == 0 && job_field(handle.addr(), "j0001", "status") != "Done" {
            std::thread::yield_now();
        }
        handle.stop();
        drop(hold);
        handle.join().unwrap();

        let row = sole_row(&state);
        if row.status == JobStatus::Done {
            let log = ArtifactLog::read_only(&state).unwrap();
            let result = log.result("j0001").expect("a Done job's result");
            assert_eq!(result, reference, "a chain of resumes is exact");
            break;
        }
        assert_eq!(row.status, JobStatus::Parked);
        let file = state.join("ckpt").join(format!("{fingerprint}.ckpt"));
        let on_disk = moat::CheckpointStore::load(&file).expect("parked with a checkpoint");
        assert_eq!(
            Some(&on_disk.seq),
            checkpoints_offered(&state).last(),
            "the last checkpoint offered is the one on disk"
        );
        assert_eq!(on_disk.evaluations, row.evaluations);
        if parked_at.is_empty() {
            killed_here(&state, false);
        }
        killed_here(&state, true);
        parked_at.push(on_disk.seq);
    }
    assert!(parked_at.windows(2).all(|w| w[0] < w[1]), "{parked_at:?}");
    assert!(parked_at.iter().all(|seq| offered.contains(seq)));
    let _ = std::fs::remove_dir_all(&state);
    parked_at
}

#[test]
fn synthetic_job_resumes_from_every_cut() {
    let body = "{\"tenant\":\"cut\",\"kernel\":\"mm\",\"machine\":\"westmere\",\
                \"strategy\":\"random\",\"budget\":400,\"seed\":5}";
    let parked_at = resumes_from_every_cut(|| Arc::new(SyntheticBackend::default()), body);
    assert_eq!(parked_at, [1, 2, 3, 4, 5, 6], "every boundary but the last");
}

#[test]
fn rs_gde3_job_resumes_from_every_cut() {
    let body = "{\"tenant\":\"cut\",\"kernel\":\"mm\",\"size\":64,\"machine\":\"westmere\",\
                \"strategy\":\"rs-gde3\",\"budget\":256,\"seed\":3}";
    let parked_at = resumes_from_every_cut(|| Arc::new(TuneBackend::default()), body);
    assert_eq!(parked_at, [1, 2, 3, 4, 5, 6, 7, 8]);
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
        traces.push(stored_trace(&state, "j0001"));
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

/// `moat-tune` with `args`, run in `dir`; its exit code and stderr.
fn moat_tune(dir: &std::path::Path, args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_moat-tune"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("moat-tune runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// One pipeline, three hosts: the library facade, the `moat-tune` binary
/// and a job served by the daemon are the same prepare/run stages under
/// different hooks, so for the same options they must produce the same
/// front — compared as archive-record bytes and version-table JSON — and
/// the binary's `--trace` must be the served job's trace file.
#[test]
fn three_hosts_one_front() {
    use moat::{Archive, Framework, Kernel, MachineDesc, StrategyKind};

    let (seed, budget, size) = (7u64, 96u64, 64);
    let mut cases: Vec<(StrategyKind, &str)> =
        StrategyKind::all().into_iter().map(|s| (s, "")).collect();
    cases.push((StrategyKind::RsGde3, "model,alt1"));
    cases.push((StrategyKind::Random, "model,unroll4"));

    let state = temp_dir("hosts");
    let handle = serve(ServeConfig::new(&state), Arc::new(TuneBackend::default())).unwrap();
    let addr = handle.addr();
    for (strategy, roster) in cases {
        let case = format!("{strategy} [{roster}]");
        let backends: Vec<String> = roster
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();

        // Host 1: `Framework::tune`.
        let mut fw = Framework::new(MachineDesc::westmere());
        fw.strategy = strategy;
        fw.tuner_params.seed = seed;
        fw.budget = Some(budget);
        fw.backends = backends.clone();
        let prepared = fw.prepare_kernel(Kernel::Mm, Some(size)).unwrap();
        let tuned = fw.tune(prepared.region.clone()).unwrap();
        let record = fw.record(&prepared, &tuned.result);
        let record_json = serde_json::to_string_pretty(&record).unwrap();
        assert!(!record.front.is_empty(), "{case}: empty front");

        // Host 2: the `moat-tune` binary.
        let dir = temp_dir("hosts-cli");
        std::fs::create_dir_all(&dir).unwrap();
        let (size_arg, seed_arg, budget_arg) =
            (size.to_string(), seed.to_string(), budget.to_string());
        let mut args = vec![
            "--kernel",
            "mm",
            "--size",
            &size_arg,
            "--strategy",
            strategy.name(),
            "--seed",
            &seed_arg,
            "--budget",
            &budget_arg,
            "--quiet",
            "--emit-json",
            "table.json",
            "--trace",
            "trace.jsonl",
            "--archive",
            "archive",
            "--checkpoint",
            "ck.json",
        ];
        if !roster.is_empty() {
            args.extend(["--backends", roster]);
        }
        let (code, stderr) = moat_tune(&dir, &args);
        assert_eq!(code, Some(0), "{case}: {stderr}");
        assert_eq!(
            std::fs::read_to_string(dir.join("table.json")).unwrap(),
            tuned.table.to_json(),
            "{case}: binary and facade tables differ"
        );
        let archived = Archive::open(dir.join("archive"))
            .unwrap()
            .get(&prepared.key)
            .unwrap()
            .expect("the binary archived its run");
        assert_eq!(
            serde_json::to_string_pretty(&archived).unwrap(),
            record_json,
            "{case}: binary and facade records differ"
        );

        // Host 3: `TuneBackend` under the daemon.
        let job = submit(
            addr,
            &serde_json::to_string(&moat::serve::JobSpec {
                tenant: "t".into(),
                kernel: "mm".into(),
                size: Some(size as usize),
                machine: "westmere".into(),
                strategy: strategy.name().into(),
                backends,
                budget: Some(budget),
                seed,
                warm_start: false,
            })
            .unwrap(),
        )
        .job;
        wait_done(addr, &job);
        assert_eq!(
            String::from_utf8(result_bytes(addr, &job)).unwrap(),
            record_json,
            "{case}: served and facade records differ"
        );
        // The binary banked its run (the daemon deposits into its own
        // sharded archive, off the job's handle): those records trail the
        // session's and are the only difference.
        let cli_trace: String = std::fs::read_to_string(dir.join("trace.jsonl"))
            .unwrap()
            .lines()
            .take_while(|l| !l.contains("\"ArchiveRead\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            stored_trace(&state, &job),
            cli_trace,
            "{case}: served job's trace and the binary's --trace differ"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

/// Input every host used to take as far as `BackendSet::register`'s
/// assertion (a roster naming one backend twice) or `Kernel::region`'s (a
/// problem size under 4) is refused by the shared prepare stage: an `Err`
/// from the facade, exit code 2 from the binary, 400 from the daemon.
#[test]
fn bad_roster_and_size_are_refused_by_every_host() {
    let mut fw = moat::Framework::new(moat::MachineDesc::westmere());
    fw.backends = vec!["unroll4".into(), "unroll4".into()];
    let err = fw.tune(moat::Kernel::Mm.region(64)).unwrap_err();
    assert_eq!(err, "duplicate backend 'unroll4'");
    let err = fw.prepare_kernel(moat::Kernel::Mm, Some(3)).unwrap_err();
    assert!(err.contains("too small"), "{err}");

    let cwd = std::env::temp_dir();
    let (code, stderr) = moat_tune(&cwd, &["--backends", "model,model"]);
    assert_eq!(
        (code, stderr.trim()),
        (Some(2), "duplicate backend 'model'")
    );
    for size in ["2", "3"] {
        let (code, stderr) = moat_tune(&cwd, &["--size", size]);
        assert_eq!(code, Some(2), "--size {size}: {stderr}");
        assert!(stderr.contains("too small"), "--size {size}: {stderr}");
    }

    let state = temp_dir("refused");
    let handle = serve(ServeConfig::new(&state), Arc::new(TuneBackend::default())).unwrap();
    let addr = handle.addr();
    for (field, message) in [
        (
            "\"backends\":[\"model\",\"model\"]",
            "duplicate backend 'model'",
        ),
        ("\"size\":3", "too small"),
    ] {
        let body = format!(
            "{{\"tenant\":\"t\",\"kernel\":\"mm\",\"machine\":\"westmere\",\
             \"strategy\":\"random\",\"seed\":1,{field}}}"
        );
        let resp = send(addr, &Request::json("POST", "/jobs", body.into_bytes()));
        let text = String::from_utf8_lossy(&resp.body).to_string();
        assert_eq!(resp.status, 400, "{field}: {text}");
        assert!(text.contains(message), "{field}: {text}");
    }
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}
