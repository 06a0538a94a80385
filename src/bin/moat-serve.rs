//! `moat-serve` — the multi-tenant tuning-as-a-service daemon.
//!
//! ```text
//! moat-serve [OPTIONS]
//!
//!   --listen <ADDR>           bind address (default 127.0.0.1:7774;
//!                             port 0 picks a free port)
//!   --state <DIR>             state directory: job table, artifact log
//!                             (results and traces), checkpoints, sharded
//!                             archive (default ./moat-serve-state)
//!   --slots <N>               shared evaluation-pool slots (default 4)
//!   --session-width <N>       per-session parallel batch width (default 2)
//!   --shards <N>              archive shard count (default 4)
//!   --checkpoint-every <N>    checkpoint cadence in save opportunities
//!                             (default 1)
//!   --workers <N>             session worker threads draining the job
//!                             queue (default 8)
//!   --queue-depth <N>         bounded job-queue depth; submissions beyond
//!                             it are shed 503 (default 256)
//!   --max-connections <N>     concurrent connection cap; excess clients
//!                             get 503 + Retry-After (default 64)
//!   --read-timeout-ms <MS>    per-read socket timeout (default 10000)
//!   --write-timeout-ms <MS>   socket write timeout (default 10000)
//!   --conn-deadline-ms <MS>   whole-request read deadline — slowloris
//!                             cutoff, answered 408 (default 30000)
//!   --tenant-max-inflight <N> per-tenant cap on in-flight primary jobs;
//!                             0 disables (default 0)
//!   --tenant-rate <F>         per-tenant submissions/second token-bucket
//!                             refill; 0 disables (default 0)
//!   --tenant-burst <F>        token-bucket burst capacity (default 8)
//!   --breaker-strikes <N>     failed runs before a fingerprint's circuit
//!                             breaker opens; 0 disables (default 3)
//!   --breaker-cooldown <N>    breaker cooldown in shed submissions before
//!                             a half-open trial (default 8)
//!   --robustness-seed <N>     seed for breaker-cooldown jitter (default
//!                             0x5EED)
//!   --retry-after-s <N>       Retry-After seconds on shed responses
//!                             (default 1)
//!   --chaos <SEED>            wrap the backend in the seeded chaos fault
//!                             injector (testing only)
//!   --port-file <FILE>        write "<ip>:<port>" here once bound (for
//!                             scripts that pass port 0)
//!   --synthetic [DELAY_US]    serve the synthetic test backend instead of
//!                             the real tuner (protocol benchmarking)
//!   --help                    print this text
//! ```
//!
//! The daemon answers `POST /jobs`, `GET /jobs[/<id>[/result|/trace]]`,
//! `GET /archive`, `GET /metrics`, `GET /healthz`, `GET /readyz` and
//! `POST /shutdown`. `SIGTERM`/`SIGINT` (and `POST /shutdown`) checkpoint
//! every in-flight session and exit; restarting on the same `--state`
//! directory resumes them.

use moat::serve::{serve, ChaosBackend, ChaosConfig, ServeConfig, SyntheticBackend};
use moat::TuneBackend;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("{}", moat::usage_text(include_str!("moat-serve.rs")));
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("moat-serve: {msg}");
    exit(1)
}

/// Process-wide signal latch: the handler may only touch async-signal-safe
/// state, so it sets this flag and the main loop does the real shutdown.
static SIGNALED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let mut config = ServeConfig::new("moat-serve-state");
    config.listen = "127.0.0.1:7774".into();
    let mut port_file: Option<String> = None;
    let mut synthetic: Option<u64> = None;
    let mut chaos: Option<u64> = None;

    let mut args = std::env::args().skip(1).peekable();
    let value = |args: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>, flag: &str| {
        args.next()
            .unwrap_or_else(|| fail(format!("{flag} needs a value")))
    };
    let int = |args: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>, flag: &str| {
        value(args, flag)
            .parse::<u64>()
            .unwrap_or_else(|_| fail(format!("{flag} needs an integer")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => config.listen = value(&mut args, "--listen"),
            "--state" => config.state_dir = value(&mut args, "--state").into(),
            "--slots" => config.pool_slots = int(&mut args, "--slots") as usize,
            "--session-width" => config.session_width = int(&mut args, "--session-width") as usize,
            "--shards" => config.shards = int(&mut args, "--shards") as usize,
            "--checkpoint-every" => {
                config.checkpoint_every = int(&mut args, "--checkpoint-every") as u32
            }
            "--workers" => config.workers = int(&mut args, "--workers") as usize,
            "--queue-depth" => config.queue_depth = int(&mut args, "--queue-depth") as usize,
            "--max-connections" => {
                config.max_connections = int(&mut args, "--max-connections") as usize
            }
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(int(&mut args, "--read-timeout-ms"))
            }
            "--write-timeout-ms" => {
                config.write_timeout = Duration::from_millis(int(&mut args, "--write-timeout-ms"))
            }
            "--conn-deadline-ms" => {
                config.conn_deadline = Duration::from_millis(int(&mut args, "--conn-deadline-ms"))
            }
            "--tenant-max-inflight" => {
                config.tenant_max_inflight = int(&mut args, "--tenant-max-inflight") as usize
            }
            "--tenant-rate" => {
                config.tenant_rate = value(&mut args, "--tenant-rate")
                    .parse()
                    .unwrap_or_else(|_| fail("--tenant-rate needs a number"))
            }
            "--tenant-burst" => {
                config.tenant_burst = value(&mut args, "--tenant-burst")
                    .parse()
                    .unwrap_or_else(|_| fail("--tenant-burst needs a number"))
            }
            "--breaker-strikes" => {
                config.breaker_strikes = int(&mut args, "--breaker-strikes") as u32
            }
            "--breaker-cooldown" => config.breaker_cooldown = int(&mut args, "--breaker-cooldown"),
            "--robustness-seed" => config.robustness_seed = int(&mut args, "--robustness-seed"),
            "--retry-after-s" => config.retry_after_secs = int(&mut args, "--retry-after-s"),
            "--chaos" => chaos = Some(int(&mut args, "--chaos")),
            "--port-file" => port_file = Some(value(&mut args, "--port-file")),
            "--synthetic" => {
                // Optional positional delay: `--synthetic 200`.
                let delay = match args.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let v = args.next().unwrap();
                        v.parse()
                            .unwrap_or_else(|_| fail("--synthetic delay must be an integer (µs)"))
                    }
                    _ => 0,
                };
                synthetic = Some(delay);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }

    install_signal_handlers();

    let mut backend: Arc<dyn moat::serve::JobBackend> = match synthetic {
        Some(eval_delay_us) => Arc::new(SyntheticBackend { eval_delay_us }),
        None => Arc::new(TuneBackend::default()),
    };
    if let Some(seed) = chaos {
        eprintln!("moat-serve: CHAOS MODE, seed {seed} (faults will be injected)");
        backend = Arc::new(ChaosBackend::new(backend, ChaosConfig::new(seed)));
    }
    let handle = serve(config, backend).unwrap_or_else(|e| fail(format!("startup: {e}")));
    let addr = handle.addr();
    eprintln!("moat-serve: listening on {addr}");
    if let Some(path) = &port_file {
        moat::archive::file::replace(path.as_ref(), addr.to_string().as_bytes(), false)
            .unwrap_or_else(|e| fail(format!("writing port file {path}: {e}")));
    }

    // Park until a signal or POST /shutdown flips the shared stop flag,
    // then drain: join checkpoints every live session and persists state.
    let stop = handle.stop_flag();
    while !SIGNALED.load(Ordering::SeqCst) && !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("moat-serve: shutting down (checkpointing in-flight sessions)");
    handle.stop();
    if let Err(e) = handle.join() {
        fail(format!("shutdown: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    /// Every flag `main` matches is documented, and every documented flag
    /// is matched: a stale usage line fails here as surely as a missing
    /// one.
    #[test]
    fn every_flag_arm_appears_in_the_usage_text() {
        let source = include_str!("moat-serve.rs");
        let usage = moat::usage_text(source);
        assert!(usage.starts_with("moat-serve [OPTIONS]"), "{usage}");
        let start = source.find("\nfn main()").expect("main exists");
        let end = source.find("#[cfg(test)]").expect("tests follow main");
        let mut arms = BTreeSet::new();
        for line in source[start..end].lines().filter(|l| l.contains("=>")) {
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
        assert_eq!(arms.len(), 23, "flag arms found: {arms:?}");
        for line in usage.lines().map(str::trim_start) {
            let Some(flag) = line.split(' ').next().filter(|f| f.starts_with("--")) else {
                continue;
            };
            assert!(arms.contains(flag), "{flag} documented but not parsed");
        }
    }
}
