//! `moat-loadgen` — load generator and minimal HTTP client for `moat-serve`.
//!
//! ```text
//! moat-loadgen [OPTIONS]
//!
//!   --addr <HOST:PORT>     daemon to drive (default: spawn a private one)
//!   --clients <N>          concurrent submitting clients (default 8)
//!   --jobs <N>             submissions per client (default 8)
//!   --distinct <N>         distinct job specs in the mix (default 6)
//!   --delay-us <N>         per-evaluation delay of the spawned synthetic
//!                          daemon (default 200; ignored with --addr)
//!   --retries <N>          bounded retries per request on refused
//!                          connections and 429/503 sheds, with
//!                          exponential backoff + seeded jitter, honoring
//!                          Retry-After (default 4; 0 disables)
//!   --retry-seed <N>       seed for the backoff jitter (default 17)
//!   --trace                attach a client trace context (x-moat-trace)
//!                          to every submission, print per-request submit
//!                          latency keyed by trace id, and assert on exit
//!                          that every accepted job's trace id round-
//!                          tripped into the daemon's span log
//!   --smoke                tiny run (2 clients × 2 jobs, 2 distinct)
//!   --overload             degradation-curve mode: spawn a deliberately
//!                          under-provisioned daemon and drive it at 1×,
//!                          2× and 4× its measured capacity, recording
//!                          goodput and shed counts per level
//!   --out <FILE>           write the benchmark JSON here
//!                          (default BENCH_serve.json)
//!   --get <PATH>           one-shot GET against --addr: print the body,
//!                          exit 0 on 2xx (curl stand-in for scripts)
//!   --post <PATH> [BODY]   one-shot POST, same contract
//! ```
//!
//! The benchmark mixes `--distinct` unique specs across `--clients ×
//! --jobs` submissions, so the surplus exercises the daemon's dedupe
//! path. It reports submit latency (p50/p99), end-to-end throughput, the
//! dedupe hit rate, and how many submissions needed retries or were shed.
//!
//! `--overload` instead submits unique specs (no dedupe relief) at fixed
//! offered rates against a small worker pool and queue, with retries off
//! so sheds are observed rather than absorbed. The healthy signature is a
//! flat goodput curve: past saturation the daemon sheds the excess with
//! fast 503s while completing admitted jobs at its capacity. A full
//! benchmark run (private daemon, no `--smoke`) finishes by running the
//! same scenario and embedding the curve in its JSON under `"overload"`,
//! so the committed baseline tracks degradation alongside throughput.

use moat::serve::wire::{read_response, write_request, Request, Response};
use moat::serve::SubmitResponse;
use std::io::Write as _;
use std::net::TcpStream;
use std::process::exit;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!("{}", moat::usage_text(include_str!("moat-loadgen.rs")));
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("moat-loadgen: {msg}");
    exit(1)
}

/// One request/response exchange (the daemon closes after each).
fn http(addr: &str, req: &Request) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(30))))
        .map_err(|e| e.to_string())?;
    write_request(&mut stream, req).map_err(|e| format!("send: {e}"))?;
    read_response(&mut stream).map_err(|e| format!("recv: {e}"))
}

/// splitmix64 — the jitter source (seeded, no process entropy).
fn splitmix(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9E3779B97F4A7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D049BB133111EB);
    h ^ (h >> 31)
}

/// Client-side retry policy: how often and how long to back off.
#[derive(Clone, Copy)]
struct RetryPolicy {
    /// Retries after the first attempt (0 = single shot).
    max_retries: u32,
    /// First backoff; doubles per retry.
    base: Duration,
    /// Jitter seed.
    seed: u64,
}

/// What one (possibly retried) exchange observed.
struct Exchange {
    resp: Response,
    /// Retries consumed (connection refused or 429/503).
    retries: u64,
    /// Shed responses (429/503) seen along the way, including a final one.
    sheds: u64,
}

/// `http` with bounded retry: refused connections and 429/503 shed
/// responses back off exponentially with seeded jitter — honoring the
/// server's `Retry-After` when it asks for longer — and retry up to
/// `policy.max_retries` times. Anything else (including 4xx rejections)
/// returns immediately.
fn http_retry(
    addr: &str,
    req: &Request,
    policy: RetryPolicy,
    nonce: u64,
) -> Result<Exchange, String> {
    let mut retries = 0u64;
    let mut sheds = 0u64;
    loop {
        let attempt = http(addr, req);
        let shed = match &attempt {
            Ok(resp) => resp.status == 429 || resp.status == 503,
            Err(e) => e.contains("connect "),
        };
        if shed {
            if attempt.is_ok() {
                sheds += 1;
            }
            if retries < policy.max_retries as u64 {
                retries += 1;
                let backoff = policy.base * (1u32 << (retries.min(6) as u32 - 1));
                let jitter = Duration::from_millis(splitmix(policy.seed ^ nonce ^ retries) % 16);
                let retry_after = attempt
                    .as_ref()
                    .ok()
                    .and_then(|r| r.header("retry-after"))
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(Duration::from_secs)
                    .unwrap_or(Duration::ZERO);
                std::thread::sleep((backoff + jitter).max(retry_after));
                continue;
            }
        }
        return attempt.map(|resp| Exchange {
            resp,
            retries,
            sheds,
        });
    }
}

/// Scrape one unlabeled counter value off the `/metrics` text.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Sum a labeled counter family (`name{...} v`) off the `/metrics` text.
fn metric_sum(text: &str, name: &str) -> u64 {
    text.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            let rest = if let Some(after) = rest.strip_prefix('{') {
                after.split_once('}')?.1
            } else {
                rest
            };
            rest.trim().parse::<u64>().ok()
        })
        .sum()
}

/// The deterministic spec mix: `distinct` unique jobs, cycled.
fn spec_body(i: usize, distinct: usize, tenant: &str) -> String {
    const KERNELS: [&str; 3] = ["mm", "dsyrk", "jacobi2d"];
    let d = i % distinct.max(1);
    format!(
        "{{\"tenant\":\"{tenant}\",\"kernel\":\"{}\",\"machine\":\"westmere\",\
         \"strategy\":\"random\",\"seed\":{},\"budget\":64}}",
        KERNELS[d % KERNELS.len()],
        d / KERNELS.len() + 1
    )
}

#[derive(serde::Serialize)]
struct LatencyMs {
    p50: f64,
    p99: f64,
    max: f64,
}

#[derive(serde::Serialize)]
struct OverloadLevel {
    offered_x: f64,
    offered_per_sec: f64,
    submitted: u64,
    accepted: u64,
    shed: u64,
    completed: u64,
    goodput_per_sec: f64,
    submit_p99_ms: f64,
}

#[derive(serde::Serialize)]
struct OverloadReport {
    levels: Vec<OverloadLevel>,
    peak_goodput_per_sec: f64,
    goodput_at_4x_vs_peak: f64,
    /// Goodput at 4× offered load stayed within 20% of the peak.
    goodput_held: bool,
    /// Submit p99 at 4× stayed under 500 ms (sheds answer fast).
    p99_bounded: bool,
}

#[derive(serde::Serialize)]
struct TracingReport {
    /// How the overheads were measured.
    method: String,
    rounds: u64,
    jobs_per_round: u64,
    /// Median wall seconds of the untraced batches.
    baseline_s: f64,
    /// Median wall seconds of the traced batches (same daemon).
    traced_s: f64,
    /// Per-job tracing cost, percent ((traced - baseline) / baseline).
    overhead_pct: f64,
    /// Median wall seconds of traced batches with the flight recorder on.
    flight_on_s: f64,
    /// Same with `--flight-off` (paired daemon).
    flight_off_s: f64,
    /// Marginal flight-recorder cost on the event path, percent.
    flight_overhead_pct: f64,
    /// Span-log lines the traced batches produced.
    spans_recorded: u64,
}

#[derive(serde::Serialize)]
struct Bench {
    benchmark: String,
    backend: String,
    clients: usize,
    jobs_per_client: usize,
    distinct_specs: usize,
    submissions: u64,
    deduped: u64,
    dedupe_hit_rate: f64,
    jobs_completed: u64,
    retries: u64,
    shed_responses: u64,
    wall_s: f64,
    jobs_per_sec: f64,
    submits_per_sec: f64,
    submit_latency_ms: LatencyMs,
    overload: Option<OverloadReport>,
    tracing: Option<TracingReport>,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(((sorted.len() - 1) as f64) * q).round() as usize]
}

/// Spawn a private synthetic daemon; returns (addr, child, state dir).
fn spawn_daemon(
    delay_us: u64,
    extra_args: &[&str],
    tag: &str,
) -> (String, std::process::Child, std::path::PathBuf) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(format!("current_exe: {e}")));
    let serve_bin = exe
        .parent()
        .map(|d| d.join("moat-serve"))
        .filter(|p| p.exists())
        .unwrap_or_else(|| fail("moat-serve binary not found next to moat-loadgen"));
    let state = std::env::temp_dir().join(format!("moat-loadgen-{}{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).unwrap_or_else(|e| fail(format!("state dir: {e}")));
    let port_file = state.join("port");
    let mut args = vec![
        "--listen".to_string(),
        "127.0.0.1:0".to_string(),
        "--state".to_string(),
        state.to_string_lossy().to_string(),
        "--synthetic".to_string(),
        delay_us.to_string(),
        "--port-file".to_string(),
        port_file.to_string_lossy().to_string(),
    ];
    args.extend(extra_args.iter().map(|s| s.to_string()));
    let child = std::process::Command::new(serve_bin)
        .args(&args)
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap_or_else(|e| fail(format!("spawning moat-serve: {e}")));
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            break addr.trim().to_string();
        }
        if Instant::now() > deadline {
            fail("spawned daemon never wrote its port file");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    (addr, child, state)
}

/// Scrape `/metrics` once.
fn scrape(addr: &str) -> String {
    let resp = http(addr, &Request::new("GET", "/metrics")).unwrap_or_else(|e| fail(e));
    String::from_utf8_lossy(&resp.body).to_string()
}

/// Drive one overload level: `n` unique submissions paced at `rate`/s
/// with retries off, then drain and read back what happened.
fn overload_level(addr: &str, level_x: f64, rate: f64, n: u64, spec_salt: u64) -> OverloadLevel {
    let before = scrape(addr);
    let done_before =
        metric(&before, "serve_jobs_completed_total") + metric(&before, "serve_jobs_failed_total");
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut accepted = 0u64;
    let mut shed = 0u64;
    let mut lats: Vec<f64> = Vec::with_capacity(n as usize);
    let start = Instant::now();
    for i in 0..n {
        // Unique spec per submission: no dedupe relief under overload.
        let body = format!(
            "{{\"tenant\":\"overload\",\"kernel\":\"mm\",\"machine\":\"westmere\",\
             \"strategy\":\"random\",\"seed\":{},\"budget\":32}}",
            spec_salt + i + 1
        );
        let t0 = Instant::now();
        let resp = http(addr, &Request::json("POST", "/jobs", body.into_bytes()))
            .unwrap_or_else(|e| fail(format!("overload submit: {e}")));
        lats.push(t0.elapsed().as_secs_f64() * 1e3);
        match resp.status {
            202 => accepted += 1,
            429 | 503 => shed += 1,
            other => fail(format!(
                "overload submit: unexpected {other} {}",
                String::from_utf8_lossy(&resp.body)
            )),
        }
        let next = start + interval * (i as u32 + 1);
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    // Drain: every accepted job reaches a terminal state.
    let deadline = Instant::now() + Duration::from_secs(120);
    let completed = loop {
        let text = scrape(addr);
        let done = metric(&text, "serve_jobs_completed_total")
            + metric(&text, "serve_jobs_failed_total")
            - done_before;
        if done >= accepted {
            break done;
        }
        if Instant::now() > deadline {
            fail(format!("overload drain timed out: {done}/{accepted}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let wall = start.elapsed().as_secs_f64();
    lats.sort_by(|a, b| a.total_cmp(b));
    OverloadLevel {
        offered_x: level_x,
        offered_per_sec: rate,
        submitted: n,
        accepted,
        shed,
        completed,
        goodput_per_sec: completed as f64 / wall,
        submit_p99_ms: percentile(&lats, 0.99),
    }
}

/// The degradation curve: an under-provisioned daemon (2 workers, queue
/// of 8, 2 pool slots, 2 ms evaluations ⇒ capacity ≈ 30 jobs/s) offered
/// 1×, 2× and 4× its capacity for a fixed job count per level. Returns
/// the report plus the server-side shed count.
fn overload_curve() -> (OverloadReport, u64) {
    let (addr, mut child, state) = spawn_daemon(
        2000,
        &[
            "--workers",
            "2",
            "--queue-depth",
            "8",
            "--slots",
            "2",
            "--session-width",
            "1",
            "--retry-after-s",
            "1",
        ],
        "",
    );
    // Synthetic job cost: budget 32 × 2 ms with 2 workers over 2 slots
    // ⇒ ≈ 31 jobs/s theoretical; offer just under it at 1×.
    let capacity = 24.0;
    let mut levels = Vec::new();
    for (i, x) in [1.0f64, 2.0, 4.0].iter().enumerate() {
        let rate = capacity * x;
        let n = (rate * 3.0).round() as u64;
        eprintln!("moat-loadgen: overload level {x}x ({rate:.0}/s, {n} submissions)");
        levels.push(overload_level(&addr, *x, rate, n, (i as u64) << 32));
    }
    let text = scrape(&addr);
    let server_sheds = metric_sum(&text, "serve_shed_total");
    let _ = http(&addr, &Request::new("POST", "/shutdown"));
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(state);

    let peak = levels
        .iter()
        .map(|l| l.goodput_per_sec)
        .fold(0.0f64, f64::max);
    let at4 = levels.last().map(|l| l.goodput_per_sec).unwrap_or(0.0);
    let ratio = if peak > 0.0 { at4 / peak } else { 0.0 };
    let p99_4x = levels.last().map(|l| l.submit_p99_ms).unwrap_or(0.0);
    let report = OverloadReport {
        peak_goodput_per_sec: peak,
        goodput_at_4x_vs_peak: ratio,
        goodput_held: ratio >= 0.8,
        p99_bounded: p99_4x < 500.0,
        levels,
    };
    (report, server_sheds)
}

/// A deterministic client trace context for submission `nonce`:
/// `(trace_hex, header_value)`.
fn client_trace(nonce: u64) -> (String, String) {
    let trace = splitmix(0xC11E_0000 ^ nonce);
    let span = splitmix(trace ^ 1);
    (format!("{trace:016x}"), format!("{trace:016x}-{span:016x}"))
}

/// Drive `n` unique jobs to completion against `addr` (optionally traced)
/// and return the wall seconds from first submit to last completion.
fn timed_batch(addr: &str, n: u64, salt: u64, traced: bool) -> f64 {
    let before = scrape(addr);
    let done_before =
        metric(&before, "serve_jobs_completed_total") + metric(&before, "serve_jobs_failed_total");
    let start = Instant::now();
    for i in 0..n {
        let body = format!(
            "{{\"tenant\":\"overhead\",\"kernel\":\"mm\",\"machine\":\"westmere\",\
             \"strategy\":\"random\",\"seed\":{},\"budget\":96}}",
            salt + i + 1
        );
        let mut req = Request::json("POST", "/jobs", body.into_bytes());
        if traced {
            let (_, header) = client_trace(salt ^ i);
            req.headers.push(("x-moat-trace".into(), header));
        }
        let resp = http(addr, &req).unwrap_or_else(|e| fail(format!("overhead submit: {e}")));
        if resp.status != 202 {
            fail(format!("overhead submit: unexpected {}", resp.status));
        }
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let text = scrape(addr);
        let done = metric(&text, "serve_jobs_completed_total")
            + metric(&text, "serve_jobs_failed_total")
            - done_before;
        if done >= n {
            break;
        }
        if Instant::now() > deadline {
            fail(format!("overhead drain timed out: {done}/{n}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    start.elapsed().as_secs_f64()
}

/// Best-of-N estimator for a deterministic per-batch cost: scheduling
/// and drain-detection noise is strictly additive, so the minimum round
/// converges on the true wall where a median still carries the noise.
fn fastest(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Measure tracing and flight-recorder overhead.
///
/// Tracing cost is measured A/B against a *single* daemon by alternating
/// untraced and traced batches of unique specs, so host noise hits both
/// arms equally; the best-of-rounds walls are compared (see
/// [`fastest`]). The flight recorder's marginal cost rides the event
/// path even for untraced traffic, so it cannot be A/B'd within one
/// process: two *concurrent* daemons — default vs `--flight-off` — take
/// turns running the same traced batch shape, again so noise hits both
/// arms. Both A/Bs swap which arm goes first every round (a fixed order
/// would hand one arm any systematic first-mover bias), and every daemon
/// absorbs one untimed warmup batch before measurement.
fn tracing_overhead() -> TracingReport {
    const ROUNDS: u64 = 15;
    const JOBS: u64 = 24;
    const DELAY_US: u64 = 500;

    let (addr, mut child, state) = spawn_daemon(DELAY_US, &[], "");
    timed_batch(&addr, JOBS, 0, false);
    let mut baseline = Vec::new();
    let mut traced = Vec::new();
    for r in 0..ROUNDS {
        let mut arms = [(false, (2 * r + 1) << 24), (true, (2 * r + 2) << 24)];
        if r % 2 == 1 {
            arms.reverse();
        }
        for (is_traced, salt) in arms {
            let wall = timed_batch(&addr, JOBS, salt, is_traced);
            if is_traced {
                traced.push(wall);
            } else {
                baseline.push(wall);
            }
        }
    }
    let spans_recorded = http(&addr, &Request::new("GET", "/debug/spans"))
        .map(|r| String::from_utf8_lossy(&r.body).lines().count() as u64)
        .unwrap_or(0);
    let _ = http(&addr, &Request::new("POST", "/shutdown"));
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(state);

    let (addr_on, mut child_on, state_on) = spawn_daemon(DELAY_US, &[], "-flight-on");
    let (addr_off, mut child_off, state_off) =
        spawn_daemon(DELAY_US, &["--flight-off"], "-flight-off");
    timed_batch(&addr_on, JOBS, 98 << 24, true);
    timed_batch(&addr_off, JOBS, 99 << 24, true);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        let mut arms = [(true, (100 + r) << 24), (false, (150 + r) << 24)];
        if r % 2 == 1 {
            arms.reverse();
        }
        for (is_on, salt) in arms {
            let (addr, walls) = if is_on {
                (&addr_on, &mut on)
            } else {
                (&addr_off, &mut off)
            };
            walls.push(timed_batch(addr, JOBS, salt, true));
        }
    }
    let flight = [fastest(on), fastest(off)];
    for (addr, child, state) in [
        (addr_on, &mut child_on, state_on),
        (addr_off, &mut child_off, state_off),
    ] {
        let _ = http(&addr, &Request::new("POST", "/shutdown"));
        let _ = child.wait();
        let _ = std::fs::remove_dir_all(state);
    }

    let baseline_s = fastest(baseline);
    let traced_s = fastest(traced);
    TracingReport {
        method: "best-of-rounds A/B, order swapped per round: one daemon (tracing), \
                 interleaved paired daemons (flight); warmup batch per daemon"
            .into(),
        rounds: ROUNDS,
        jobs_per_round: JOBS,
        baseline_s,
        traced_s,
        overhead_pct: (traced_s - baseline_s) / baseline_s * 100.0,
        flight_on_s: flight[0],
        flight_off_s: flight[1],
        flight_overhead_pct: (flight[0] - flight[1]) / flight[1] * 100.0,
        spans_recorded,
    }
}

/// `--overload` mode: the degradation curve as a standalone bench doc.
fn run_overload(out: &str) {
    let (report, server_sheds) = overload_curve();
    let p99_4x = report.levels.last().map(|l| l.submit_p99_ms).unwrap_or(0.0);
    let total_shed: u64 = report.levels.iter().map(|l| l.shed).sum();
    let total_submitted: u64 = report.levels.iter().map(|l| l.submitted).sum();
    let total_completed: u64 = report.levels.iter().map(|l| l.completed).sum();
    let bench = Bench {
        benchmark: "moat-serve overload".into(),
        backend: "synthetic(2000us) workers=2 queue=8 slots=2".into(),
        clients: 1,
        jobs_per_client: total_submitted as usize,
        distinct_specs: total_submitted as usize,
        submissions: total_submitted,
        deduped: 0,
        dedupe_hit_rate: 0.0,
        jobs_completed: total_completed,
        retries: 0,
        shed_responses: total_shed.max(server_sheds),
        wall_s: 0.0,
        jobs_per_sec: 0.0,
        submits_per_sec: 0.0,
        submit_latency_ms: LatencyMs {
            p50: 0.0,
            p99: p99_4x,
            max: 0.0,
        },
        overload: Some(report),
        tracing: None,
    };
    let json = serde_json::to_string_pretty(&bench)
        .unwrap_or_else(|e| fail(format!("encoding benchmark: {e}")));
    std::fs::write(out, format!("{json}\n"))
        .unwrap_or_else(|e| fail(format!("writing {out}: {e}")));
    println!("{json}");
    eprintln!("moat-loadgen: wrote {out}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut clients = 8usize;
    let mut jobs = 8usize;
    let mut distinct = 6usize;
    let mut delay_us = 200u64;
    let mut max_retries = 4u32;
    let mut retry_seed = 17u64;
    let mut smoke = false;
    let mut overload = false;
    let mut trace_mode = false;
    let mut out = "BENCH_serve.json".to_string();
    let mut oneshot: Option<(String, String, Option<String>)> = None;

    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i + 1)
            .cloned()
            .unwrap_or_else(|| fail(format!("{flag} needs a value")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                addr = Some(value(&argv, i, "--addr"));
                i += 1;
            }
            "--clients" => {
                clients = value(&argv, i, "--clients")
                    .parse()
                    .unwrap_or_else(|_| fail("--clients needs an integer"));
                i += 1;
            }
            "--jobs" => {
                jobs = value(&argv, i, "--jobs")
                    .parse()
                    .unwrap_or_else(|_| fail("--jobs needs an integer"));
                i += 1;
            }
            "--distinct" => {
                distinct = value(&argv, i, "--distinct")
                    .parse()
                    .unwrap_or_else(|_| fail("--distinct needs an integer"));
                i += 1;
            }
            "--delay-us" => {
                delay_us = value(&argv, i, "--delay-us")
                    .parse()
                    .unwrap_or_else(|_| fail("--delay-us needs an integer"));
                i += 1;
            }
            "--retries" => {
                max_retries = value(&argv, i, "--retries")
                    .parse()
                    .unwrap_or_else(|_| fail("--retries needs an integer"));
                i += 1;
            }
            "--retry-seed" => {
                retry_seed = value(&argv, i, "--retry-seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--retry-seed needs an integer"));
                i += 1;
            }
            "--smoke" => {
                smoke = true;
                clients = 2;
                jobs = 2;
                distinct = 2;
                delay_us = 100;
            }
            "--overload" => overload = true,
            "--trace" => trace_mode = true,
            "--out" => {
                out = value(&argv, i, "--out");
                i += 1;
            }
            "--get" => {
                oneshot = Some(("GET".into(), value(&argv, i, "--get"), None));
                i += 1;
            }
            "--post" => {
                let path = value(&argv, i, "--post");
                i += 1;
                let body = argv.get(i + 1).filter(|a| !a.starts_with("--")).cloned();
                if body.is_some() {
                    i += 1;
                }
                oneshot = Some(("POST".into(), path, body));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
        i += 1;
    }

    // One-shot client mode: the curl stand-in for shell scripts.
    if let Some((method, path, body)) = oneshot {
        let addr = addr.unwrap_or_else(|| fail("--get/--post need --addr"));
        let req = match body {
            Some(b) => Request::json(&method, &path, b.into_bytes()),
            None => Request::new(&method, &path),
        };
        let resp = http(&addr, &req).unwrap_or_else(|e| fail(e));
        std::io::stdout().write_all(&resp.body).ok();
        if !resp.body.ends_with(b"\n") {
            println!();
        }
        exit(if (200..300).contains(&resp.status) {
            0
        } else {
            1
        });
    }

    if overload {
        if addr.is_some() {
            fail("--overload spawns its own constrained daemon; drop --addr");
        }
        run_overload(&out);
        return;
    }

    // Benchmark mode.
    let (addr, daemon, state) = match addr {
        Some(a) => (a, None, None),
        None => {
            let (a, child, state) = spawn_daemon(delay_us, &[], "");
            (a, Some(child), Some(state))
        }
    };
    let backend_desc = match &daemon {
        Some(_) => format!("synthetic({delay_us}us)"),
        None => "external".to_string(),
    };
    let policy = RetryPolicy {
        max_retries,
        base: Duration::from_millis(50),
        seed: retry_seed,
    };

    let start = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let mut deduped = 0u64;
    let mut retries = 0u64;
    let mut shed_responses = 0u64;
    let mut trace_ids: Vec<String> = Vec::new();
    let total = (clients * jobs) as u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                s.spawn(move || {
                    let tenant = format!("client-{c}");
                    let mut lats = Vec::with_capacity(jobs);
                    let mut hits = 0u64;
                    let mut rts = 0u64;
                    let mut shd = 0u64;
                    let mut traces = Vec::new();
                    for j in 0..jobs {
                        let body = spec_body(c * jobs + j, distinct, &tenant);
                        let t0 = Instant::now();
                        let nonce = (c * jobs + j) as u64;
                        let mut req = Request::json("POST", "/jobs", body.into_bytes());
                        let trace_hex = if trace_mode {
                            let (hex, header) = client_trace(nonce);
                            req.headers.push(("x-moat-trace".into(), header));
                            Some(hex)
                        } else {
                            None
                        };
                        let ex = http_retry(&addr, &req, policy, nonce).unwrap_or_else(|e| fail(e));
                        let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
                        lats.push(lat_ms);
                        rts += ex.retries;
                        shd += ex.sheds;
                        if ex.resp.status != 202 {
                            fail(format!(
                                "submit rejected: {} {}",
                                ex.resp.status,
                                String::from_utf8_lossy(&ex.resp.body)
                            ));
                        }
                        let parsed: SubmitResponse = std::str::from_utf8(&ex.resp.body)
                            .ok()
                            .and_then(|s| serde_json::from_str(s).ok())
                            .unwrap_or_else(|| fail("unparseable submit response"));
                        if parsed.deduped {
                            hits += 1;
                        }
                        if let Some(hex) = trace_hex {
                            eprintln!(
                                "moat-loadgen: trace {hex} job {} submit {lat_ms:.3} ms{}",
                                parsed.job,
                                if parsed.deduped { " (deduped)" } else { "" }
                            );
                            traces.push(hex);
                        }
                    }
                    (lats, hits, rts, shd, traces)
                })
            })
            .collect();
        for h in handles {
            let (lats, hits, rts, shd, traces) =
                h.join().unwrap_or_else(|_| fail("client panicked"));
            latencies.extend(lats);
            deduped += hits;
            retries += rts;
            shed_responses += shd;
            trace_ids.extend(traces);
        }
    });

    // Wait until every distinct job has finished, then read the counters.
    let expect_done = total - deduped;
    let deadline = Instant::now() + Duration::from_secs(120);
    let final_metrics = loop {
        let resp = http(&addr, &Request::new("GET", "/metrics")).unwrap_or_else(|e| fail(e));
        let text = String::from_utf8_lossy(&resp.body).to_string();
        let done =
            metric(&text, "serve_jobs_completed_total") + metric(&text, "serve_jobs_failed_total");
        if done >= expect_done {
            break text;
        }
        if Instant::now() > deadline {
            fail(format!("timed out: {done}/{expect_done} jobs finished"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let wall_s = start.elapsed().as_secs_f64();
    let completed = metric(&final_metrics, "serve_jobs_completed_total");

    // `--trace` exit assertion: every accepted submission's trace id must
    // have round-tripped into the daemon's span log. The span log (not
    // the flight ring, which evicts) is the durable record; admission
    // spans are written synchronously at submit, so after the drain the
    // log is necessarily complete.
    if trace_mode {
        let resp = http(&addr, &Request::new("GET", "/debug/spans")).unwrap_or_else(|e| fail(e));
        let spans = String::from_utf8_lossy(&resp.body).to_string();
        let missing: Vec<&String> = trace_ids
            .iter()
            .filter(|t| !spans.contains(&format!("\"trace\":\"{t}\"")))
            .collect();
        if !missing.is_empty() {
            fail(format!(
                "trace round-trip FAILED: {}/{} trace ids absent from the daemon span log \
                 (first missing: {})",
                missing.len(),
                trace_ids.len(),
                missing[0]
            ));
        }
        eprintln!(
            "moat-loadgen: trace round-trip OK — all {} trace ids present in the daemon span log",
            trace_ids.len()
        );
    }

    let spawned = daemon.is_some();
    if let Some(mut child) = daemon {
        let _ = http(&addr, &Request::new("POST", "/shutdown"));
        let _ = child.wait();
        if let Some(state) = state {
            let _ = std::fs::remove_dir_all(state);
        }
    }

    // A full run against a private daemon also records the degradation
    // curve; smoke runs and external daemons skip it (the curve needs
    // its own deliberately under-provisioned instance).
    let overload_report = if spawned && !smoke {
        eprintln!("moat-loadgen: running the overload degradation curve");
        Some(overload_curve().0)
    } else {
        None
    };

    // Likewise the tracing/flight overhead measurement: only meaningful
    // with private daemons it can pair and restart.
    let tracing_report = if spawned && !smoke {
        eprintln!("moat-loadgen: measuring tracing + flight-recorder overhead");
        Some(tracing_overhead())
    } else {
        None
    };

    latencies.sort_by(|a, b| a.total_cmp(b));
    let bench = Bench {
        benchmark: "moat-serve loadgen".into(),
        backend: backend_desc,
        clients,
        jobs_per_client: jobs,
        distinct_specs: distinct,
        submissions: total,
        deduped,
        dedupe_hit_rate: deduped as f64 / total.max(1) as f64,
        jobs_completed: completed,
        retries,
        shed_responses,
        wall_s,
        jobs_per_sec: completed as f64 / wall_s,
        submits_per_sec: total as f64 / wall_s,
        submit_latency_ms: LatencyMs {
            p50: percentile(&latencies, 0.50),
            p99: percentile(&latencies, 0.99),
            max: percentile(&latencies, 1.0),
        },
        overload: overload_report,
        tracing: tracing_report,
    };
    let json = serde_json::to_string_pretty(&bench)
        .unwrap_or_else(|e| fail(format!("encoding benchmark: {e}")));
    std::fs::write(&out, format!("{json}\n"))
        .unwrap_or_else(|e| fail(format!("writing {out}: {e}")));
    println!("{json}");
    eprintln!("moat-loadgen: wrote {out}");
}
