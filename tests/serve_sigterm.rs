//! Regression test for graceful shutdown of the real `dsmt serve` binary:
//! `SIGTERM` must drain, print the stop summary, release the `serve`
//! claim, and exit 0.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// How long the test may run before it counts as hung.
const WATCHDOG: Duration = Duration::from_secs(60);

#[test]
fn sigterm_stops_the_daemon_gracefully_and_releases_the_claim() {
    let dir = std::env::temp_dir().join(format!("dsmt-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = dir.join("store");

    let child = Command::new(env!("CARGO_BIN_EXE_dsmt"))
        .args([
            "serve",
            "--store",
            store.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dsmt serve");

    // Drive the daemon on its own thread under a watchdog: a hang fails the
    // test (and kills the daemon) instead of stalling the suite.
    let pid = child.id() as i32;
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        drive(child, &store);
        let _ = done.send(());
    });
    if finished.recv_timeout(WATCHDOG) == Err(RecvTimeoutError::Timeout) {
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // this process; `pid` is the daemon this test spawned.
        unsafe { kill(pid, 9) };
        panic!("test still running after {WATCHDOG:?}; the daemon or a socket is hung");
    }
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn drive(mut child: Child, store: &Path) {
    // The daemon prints the bound address before accepting; read it.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").expect("readable banner");
    let addr = banner
        .strip_prefix("dsmt-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    // It answers requests, and it holds the store's serve claim.
    let client = dsmt_serve::HttpClient::new(&addr).with_timeout(Duration::from_secs(5));
    let health = client.get("/healthz").expect("healthz over the wire");
    assert_eq!(health.status, 200);
    assert!(store.join("locks").join("serve.lock").exists());

    // SIGTERM → clean exit with the stop summary on stdout.
    // SAFETY: as above, kill(2) only signals the daemon this test spawned.
    let sent = unsafe { kill(child.id() as i32, 15) };
    assert_eq!(sent, 0, "deliver SIGTERM");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM for 30s");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "daemon exited {status:?}");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        rest.iter().any(|l| l.starts_with("dsmt-serve stopped:")),
        "missing stop summary in {rest:?}"
    );

    // The claim is released: the lockfile is gone and a second daemon can
    // take the directory immediately.
    assert!(!store.join("locks").join("serve.lock").exists());
    assert!(client.get("/healthz").is_err(), "socket should be closed");
}
