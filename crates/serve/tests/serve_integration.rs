//! End-to-end tests over real sockets: a daemon on a loopback port, the
//! bundled client, in-process workers speaking the store-backed shard
//! protocol against the daemon's directory.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use dsmt_core::SimConfig;
use dsmt_serve::http::read_response;
use dsmt_serve::{json_body, HttpClient, Limits, Server, ServerConfig, SweepService};
use dsmt_shard::{DsrFile, ShardManifest, Transport};
use dsmt_sweep::{Axis, SweepEngine, SweepGrid, WorkloadSpec};
use serde::Value;

fn grid(name: &str, budget: u64) -> SweepGrid {
    SweepGrid::new(name, SimConfig::paper_multithreaded(1))
        .with_workload(WorkloadSpec::spec_mix(1_000))
        .with_axis(Axis::l2_latencies(&[1, 16]))
        .with_budget(budget)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsmt-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a daemon on an ephemeral port over a fresh store. Returns the
/// address, the shutdown handle, the server thread, and the store dir.
fn start_daemon(
    tag: &str,
    config: ServerConfig,
) -> (
    String,
    dsmt_serve::ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<dsmt_serve::ServeSummary>>,
    PathBuf,
) {
    let dir = temp_dir(tag);
    let service = SweepService::open(
        &dir,
        Box::new(|name| match name {
            "it-tiny" => Some(grid("it-tiny", 2_000)),
            _ => None,
        }),
    )
    .expect("open service");
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..config
        },
        service,
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread, dir)
}

fn quick_limits() -> Limits {
    Limits {
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        max_header_bytes: 2 * 1024,
        max_body_bytes: 64 * 1024,
    }
}

#[test]
fn submit_work_fetch_over_http_is_byte_identical_to_monolithic() {
    let (addr, handle, thread, dir) = start_daemon("e2e", ServerConfig::default());
    let client = HttpClient::new(&addr);

    // Health before anything else.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);

    // Submit a builtin grid split in two shards.
    let resp = client
        .post_json("/grids", r#"{"builtin":"it-tiny","shards":2}"#)
        .expect("submit");
    assert_eq!(resp.status, 201);
    let submitted = json_body(&resp).expect("submit body");
    let hash = submitted
        .field("grid_hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(submitted.field("cells").unwrap().as_u64().unwrap(), 2);

    // Status: everything missing; the record endpoint says incomplete.
    let status = json_body(&client.get(&format!("/grids/{hash}/status")).unwrap()).unwrap();
    assert_eq!(status.field("missing").unwrap().as_u64().unwrap(), 2);
    let premature = client.get(&format!("/grids/{hash}/record")).unwrap();
    assert_eq!(premature.status, 409);
    assert!(json_body(&premature)
        .unwrap_err()
        .contains("grid_incomplete"));

    // A worker picks the plan up from the daemon's directory — exactly
    // what `dsmt shard run <plan> --missing --store <dir>` does.
    let manifest =
        ShardManifest::load(dir.join("plans").join(format!("{hash}.plan.json"))).unwrap();
    // Cache on the daemon's store so per-cell records land beside the
    // shard outputs (that is what /cells/{key} serves).
    let engine = SweepEngine::new(1).with_cache_dir(&dir);
    let mut transport = Transport::store(&dir).expect("worker transport");
    dsmt_shard::recover(&manifest, &mut transport, &engine, &Default::default()).unwrap();

    // Status over HTTP now reports complete...
    let status = json_body(&client.get(&format!("/grids/{hash}/status")).unwrap()).unwrap();
    assert_eq!(status.field("complete").unwrap(), &Value::Bool(true));

    // ...and the fetched record is byte-identical to a monolithic run.
    let fetched = client.get(&format!("/grids/{hash}/record")).unwrap();
    assert_eq!(fetched.status, 200);
    let etag = fetched.header("etag").expect("etag header").to_string();
    let monolithic = {
        let report = engine.run(&manifest.grid);
        DsrFile::from_report(&manifest.grid, &report, 0, 1).encode()
    };
    assert_eq!(fetched.body, monolithic);

    // Conditional refetch with the ETag: 304, empty body, same tag.
    let not_modified = client
        .get_with(
            &format!("/grids/{hash}/record"),
            &[("If-None-Match", &etag)],
        )
        .unwrap();
    assert_eq!(not_modified.status, 304);
    assert!(not_modified.body.is_empty());
    assert_eq!(not_modified.header("etag"), Some(etag.as_str()));

    // Individual cells are readable by cache key.
    let cell_key = format!("{:016x}", manifest.grid.cells()[0].scenario.cache_key());
    let cell = client.get(&format!("/cells/{cell_key}")).unwrap();
    assert_eq!(cell.status, 200);
    assert!(json_body(&cell).is_ok());

    // Metrics surface the http counters.
    let metrics = client.get("/metricsz").unwrap();
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("http.requests"), "{text}");
    assert!(text.contains("serve.queue_depth"), "{text}");

    handle.shutdown();
    let summary = thread.join().unwrap().expect("server run");
    assert!(!summary.forced_abort);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_submitting_overlapping_grids_dedup_in_the_store() {
    let (addr, handle, thread, dir) = start_daemon("concurrent", ServerConfig::default());

    // Two distinct grids sharing the L2=16 cell (overlap), plus repeat
    // submissions of each from several clients at once.
    let grid_a = grid("overlap-a", 2_000); // axes [1, 16]
    let grid_b = SweepGrid::new("overlap-b", SimConfig::paper_multithreaded(1))
        .with_workload(WorkloadSpec::spec_mix(1_000))
        .with_axis(Axis::l2_latencies(&[16, 64]))
        .with_budget(2_000);

    let submit = |g: &SweepGrid| {
        let body = format!(
            "{{\"grid\":{},\"shards\":2,\"strategy\":\"strided\"}}",
            serde::to_string(g)
        );
        move |addr: String| {
            let client = HttpClient::new(addr);
            let resp = client.post_json("/grids", body.clone()).expect("submit");
            assert_eq!(resp.status, 201);
            json_body(&resp)
                .expect("body")
                .field("grid_hash")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        }
    };
    let submit_a = submit(&grid_a);
    let submit_b = submit(&grid_b);
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            let a = submit_a.clone();
            let b = submit_b.clone();
            std::thread::spawn(move || if i % 2 == 0 { a(addr) } else { b(addr) })
        })
        .collect();
    let hashes: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let mut unique = hashes.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(
        unique.len(),
        2,
        "8 submissions dedup to 2 plans: {hashes:?}"
    );

    // One worker pass per plan; the scenario cache shares the directory,
    // so the overlapping cell simulates once and is reused (the engine
    // with cache on the same store dedups by cache key).
    let engine = SweepEngine::new(1).with_cache_dir(&dir);
    for hash in &unique {
        let manifest =
            ShardManifest::load(dir.join("plans").join(format!("{hash}.plan.json"))).unwrap();
        let mut transport = Transport::store(&dir).expect("transport");
        dsmt_shard::recover(&manifest, &mut transport, &engine, &Default::default()).unwrap();
    }

    // Every client's fetch is byte-identical to its monolithic run.
    let reference = SweepEngine::new(1).without_cache();
    for hash in &unique {
        let manifest =
            ShardManifest::load(dir.join("plans").join(format!("{hash}.plan.json"))).unwrap();
        let expected = {
            let report = reference.run(&manifest.grid);
            DsrFile::from_report(&manifest.grid, &report, 0, 1).encode()
        };
        let fetchers: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let hash = hash.clone();
                std::thread::spawn(move || {
                    let client = HttpClient::new(addr);
                    let resp = client.get(&format!("/grids/{hash}/record")).unwrap();
                    assert_eq!(resp.status, 200);
                    resp.body
                })
            })
            .collect();
        for fetcher in fetchers {
            assert_eq!(fetcher.join().unwrap(), expected, "grid {hash}");
        }
    }

    handle.shutdown();
    let summary = thread.join().unwrap().expect("server run");
    assert!(!summary.forced_abort);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_oversized_and_slow_requests_get_structured_errors() {
    let (addr, handle, thread, dir) = start_daemon(
        "abuse",
        ServerConfig {
            limits: quick_limits(),
            drain_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    );

    let raw = |bytes: &[u8]| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        std::io::Write::write_all(&mut stream, bytes).expect("send");
        read_response(&mut stream).expect("structured response")
    };

    // Garbage request line → 400 with a stable code.
    let resp = raw(b"ponies and rainbows\r\n\r\n");
    assert_eq!(resp.status, 400);
    assert!(json_body(&resp).unwrap_err().starts_with("bad_request"));

    // Unknown route and wrong method.
    let client = HttpClient::new(&addr);
    let resp = client.get("/no/such/route").unwrap();
    assert_eq!(resp.status, 404);
    assert!(json_body(&resp).unwrap_err().starts_with("not_found"));
    let resp = client.post_json("/healthz", "{}").unwrap();
    assert_eq!(resp.status, 405);
    assert!(json_body(&resp)
        .unwrap_err()
        .starts_with("method_not_allowed"));

    // Oversized header block → 431.
    let mut big = b"GET / HTTP/1.1\r\n".to_vec();
    big.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "x".repeat(4096)).as_bytes());
    let resp = raw(&big);
    assert_eq!(resp.status, 431);

    // Oversized declared body → 413 without reading the body.
    let resp = raw(b"POST /grids HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n");
    assert_eq!(resp.status, 413);
    assert!(json_body(&resp)
        .unwrap_err()
        .starts_with("payload_too_large"));

    // Chunked transfer → 501.
    let resp = raw(b"POST /grids HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
    assert_eq!(resp.status, 501);

    // A slow-loris half request: the server answers 408 within the read
    // timeout instead of hanging.
    let started = std::time::Instant::now();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    std::io::Write::write_all(&mut stream, b"GET /healthz HTT").expect("half request");
    let resp = read_response(&mut stream).expect("timeout response");
    assert_eq!(resp.status, 408);
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "timed out in {:?}",
        started.elapsed()
    );

    // Bad JSON body on a real route.
    let resp = client.post_json("/grids", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    assert!(json_body(&resp).unwrap_err().starts_with("invalid_json"));

    handle.shutdown();
    let summary = thread.join().unwrap().expect("server run");
    assert!(!summary.forced_abort);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_in_flight_requests_and_releases_the_serve_claim() {
    let (addr, handle, thread, dir) = start_daemon(
        "drain",
        ServerConfig {
            workers: 2,
            drain_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    );

    // The daemon owns the store from bind on: a second daemon on the same
    // directory is refused before it ever listens.
    let second = SweepService::open(&dir, Box::new(|_| None)).expect("open service");
    let refused = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
        second,
    );
    assert!(refused.is_err(), "second daemon must be refused");
    assert!(refused.unwrap_err().to_string().contains("another daemon"));

    // Clients hammer the daemon while shutdown lands: every request that
    // got a response got a *complete* one, and the served count matches.
    let stop_clients = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let stop_clients = std::sync::Arc::clone(&stop_clients);
            std::thread::spawn(move || {
                let client = HttpClient::new(addr).with_timeout(Duration::from_secs(5));
                let mut completed = 0u64;
                while !stop_clients.load(std::sync::atomic::Ordering::SeqCst) {
                    match client.get("/healthz") {
                        Ok(resp) => {
                            assert_eq!(resp.status, 200);
                            assert!(json_body(&resp).is_ok(), "complete body");
                            completed += 1;
                        }
                        // Connection refused/reset after shutdown is fine;
                        // a torn response would have failed json_body above.
                        Err(_) => break,
                    }
                }
                completed
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    handle.shutdown();
    let summary = thread.join().unwrap().expect("server run");
    stop_clients.store(true, std::sync::atomic::Ordering::SeqCst);
    let completed: u64 = clients.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(!summary.forced_abort, "drain should finish inside timeout");
    assert!(completed > 0, "clients made progress before shutdown");
    assert!(
        summary.requests >= completed,
        "every completed client response was counted: {} < {completed}",
        summary.requests
    );

    // The serve claim is gone: a new daemon can bind the store now.
    assert!(!dir.join("locks").join("serve.lock").exists());
    let third = SweepService::open(&dir, Box::new(|_| None)).expect("reopen service");
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
        third,
    )
    .expect("bind third");
    let h = server.handle();
    let t = std::thread::spawn(move || server.run());
    h.shutdown();
    assert!(t.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
