//! `moat-loadgen` — multi-client load and minimal HTTP client for a running
//! `moat-serve`.
//!
//! ```text
//! moat-loadgen --addr <HOST:PORT> [OPTIONS]
//!
//!   --addr <HOST:PORT>     the daemon to drive (required)
//!   --clients <N>          concurrent submitting clients (default 8)
//!   --jobs <N>             submissions per client (default 8)
//!   --distinct <N>         distinct job specs in the mix (default 6)
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
//!   --get <PATH>           one-shot GET: print the body, exit 0 on 2xx
//!                          (curl stand-in for scripts)
//!   --post <PATH> [BODY]   one-shot POST, same contract
//!   --help                 print this text
//! ```
//!
//! Load mode mixes `--distinct` unique specs across `--clients × --jobs`
//! submissions, so the surplus exercises the daemon's dedupe path. It waits
//! until every distinct job has finished, then prints one summary line:
//! submissions, dedupe hits, completed jobs, retries, sheds, wall time and
//! submit latency p50/p99.

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

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(((sorted.len() - 1) as f64) * q).round() as usize]
}

/// A deterministic client trace context for submission `nonce`:
/// `(trace_hex, header_value)`.
fn client_trace(nonce: u64) -> (String, String) {
    let trace = splitmix(0xC11E_0000 ^ nonce);
    let span = splitmix(trace ^ 1);
    (format!("{trace:016x}"), format!("{trace:016x}-{span:016x}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut clients = 8usize;
    let mut jobs = 8usize;
    let mut distinct = 6usize;
    let mut max_retries = 4u32;
    let mut retry_seed = 17u64;
    let mut trace_mode = false;
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
            "--trace" => trace_mode = true,
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

    let Some(addr) = addr else {
        eprintln!("moat-loadgen: --addr is required");
        usage()
    };

    // One-shot client mode: the curl stand-in for shell scripts.
    if let Some((method, path, body)) = oneshot {
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

    // Load mode.
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
    // have round-tripped into the daemon's span log, the durable record
    // of every span; admission spans are written synchronously at
    // submit, so after the drain the log is necessarily complete.
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

    latencies.sort_by(|a, b| a.total_cmp(b));
    println!(
        "moat-loadgen: {total} submissions ({deduped} deduped), {completed} jobs completed, \
         {retries} retries, {shed_responses} sheds in {wall_s:.3} s; \
         submit p50 {:.3} ms, p99 {:.3} ms",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99)
    );
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    /// Every flag matched is documented, and every documented flag is
    /// matched.
    #[test]
    fn every_flag_arm_appears_in_the_usage_text() {
        let source = include_str!("moat-loadgen.rs");
        let usage = moat::usage_text(source);
        assert!(usage.starts_with("moat-loadgen --addr"), "{usage}");
        let end = source.find("#[cfg(test)]").expect("tests follow main");
        let mut arms = BTreeSet::new();
        for line in source[..end].lines().filter(|l| l.contains("=>")) {
            let Some(flag) = line.trim().strip_prefix("\"--") else {
                continue;
            };
            let flag = format!("--{}", flag.split('"').next().unwrap());
            assert!(
                usage.contains(&format!("  {flag} ")),
                "{flag} missing from usage"
            );
            arms.insert(flag);
        }
        assert_eq!(arms.len(), 10, "flag arms found: {arms:?}");
        for line in usage.lines().map(str::trim_start) {
            let Some(flag) = line.split(' ').next().filter(|f| f.starts_with("--")) else {
                continue;
            };
            assert!(arms.contains(flag), "{flag} documented but not parsed");
        }
    }
}
