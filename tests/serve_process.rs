//! Process-level service tests: the `moat-serve` binary itself, killed
//! and signalled the way an init system (or the OOM killer) would.
#![cfg(unix)]

use moat::serve::wire::{read_response, write_request, Request, Response};
use moat::serve::{JobState, JobStatus, SubmitResponse};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moat-serve-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `moat-serve --synthetic`; dropping it kills the process.
struct Served {
    child: Child,
    addr: SocketAddr,
}

impl Served {
    fn start(dir: &Path, listen: &str, delay_us: u64) -> Served {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_moat-serve"))
            .args(["--listen", listen, "--synthetic", &delay_us.to_string()])
            .arg("--state")
            .arg(dir.join("state"))
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn moat-serve");
        let mut served = Served {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let bound: SocketAddr = text.trim().parse().expect("port file holds an address");
                served.addr.set_port(bound.port());
                return served;
            }
            assert!(Instant::now() < deadline, "moat-serve never bound");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Wait for the process to exit on its own.
    fn wait_exit(&mut self, within: Duration) -> ExitStatus {
        let deadline = Instant::now() + within;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "moat-serve still running after {within:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn send(addr: SocketAddr, req: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, req).expect("send");
    read_response(&mut stream).expect("recv")
}

fn list_jobs(addr: SocketAddr) -> Vec<JobState> {
    let resp = send(addr, &Request::new("GET", "/jobs"));
    assert_eq!(resp.status, 200);
    serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).expect("job list")
}

/// `kill -9` the moment the K-th 202 is read: every acknowledged job is
/// in the journal, so the restarted daemon lists all K, finishes every
/// primary, and equal fingerprints still read byte-identical results.
#[test]
fn sigkill_after_the_last_202_loses_no_acknowledged_job() {
    const K: usize = 12;
    let dir = temp_dir("kill9");
    let mut served = Served::start(&dir, "127.0.0.1:0", 500);
    let mut ids = Vec::new();
    for i in 0..K {
        // Four distinct specs, each submitted by three tenants.
        let body = format!(
            r#"{{"tenant": "t{}", "kernel": "mm", "machine": "westmere",
                "strategy": "random", "seed": {}, "budget": 96}}"#,
            i / 4,
            i % 4
        );
        let resp = send(
            served.addr,
            &Request::json("POST", "/jobs", body.into_bytes()),
        );
        assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
        let accepted: SubmitResponse =
            serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        ids.push(accepted.job);
    }
    served.child.kill().expect("SIGKILL");
    served.child.wait().expect("reaped");
    assert!(
        dir.join("state").join("jobs.journal").exists(),
        "a killed daemon leaves its journal behind"
    );
    drop(served);

    let served = Served::start(&dir, "127.0.0.1:0", 500);
    let deadline = Instant::now() + Duration::from_secs(60);
    let rows = loop {
        let rows = list_jobs(served.addr);
        let listed: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(listed, ids, "every acknowledged id survives the kill");
        if rows.iter().all(|r| r.status == JobStatus::Done) {
            break rows;
        }
        assert!(
            Instant::now() < deadline,
            "jobs stuck after restart: {rows:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(rows.iter().filter(|r| r.serves_as.is_none()).count(), 4);

    let mut by_fingerprint: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
    for row in &rows {
        let resp = send(
            served.addr,
            &Request::new("GET", &format!("/jobs/{}/result", row.id)),
        );
        assert_eq!(resp.status, 200, "result of {}", row.id);
        let first = by_fingerprint
            .entry(&row.fingerprint)
            .or_insert_with(|| resp.body.clone());
        assert_eq!(
            *first, resp.body,
            "results of fingerprint {}",
            row.fingerprint
        );
    }
    assert_eq!(by_fingerprint.len(), 4);
    drop(served);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptor parks in `accept()`: SIGTERM and `POST /shutdown` must
/// still get an idle daemon bound to `0.0.0.0` to exit 0 within a second,
/// leaving a snapshot and no journal.
#[test]
fn idle_binary_exits_within_a_second_of_sigterm_or_shutdown() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    for via_http in [false, true] {
        let dir = temp_dir(if via_http { "shutdown" } else { "sigterm" });
        let mut served = Served::start(&dir, "0.0.0.0:0", 0);
        assert_eq!(
            send(served.addr, &Request::new("GET", "/readyz")).status,
            200
        );
        let asked = Instant::now();
        if via_http {
            assert_eq!(
                send(served.addr, &Request::new("POST", "/shutdown")).status,
                200
            );
        } else {
            // SAFETY: kill(2) takes two integers and touches no memory of
            // ours; the pid is our own live, not yet reaped, child.
            assert_eq!(unsafe { kill(served.child.id() as i32, SIGTERM) }, 0);
        }
        let status = served.wait_exit(Duration::from_secs(1));
        assert_eq!(status.code(), Some(0), "via_http={via_http}: {status:?}");
        assert!(asked.elapsed() < Duration::from_secs(1));
        assert!(dir.join("state").join("jobs.json").exists());
        assert!(!dir.join("state").join("jobs.journal").exists());
        drop(served);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
