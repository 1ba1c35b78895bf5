//! End-to-end tests of `gemini serve`: a real daemon process on a real
//! socket, driven with line-delimited JSON.
//!
//! The central claim is the determinism contract of the service layer:
//! the daemon's `payload` is a pure function of the request, so a
//! one-shot CLI run and the same request over the socket are
//! byte-identical — only the volatile `service` section (cache
//! counters, queue depth) may differ. The backpressure and shutdown
//! tests pin the daemon's overload and drain behavior.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gemini::core::campaign::value::{parse_json, Value};

/// The SA environment knobs, scrubbed from every spawned process so an
/// ambient `GEMINI_SA_*` (e.g. from a CI job) cannot skew the
/// comparison.
const SA_ENV: [&str; 3] = ["GEMINI_SA_ITERS", "GEMINI_SA_SEED", "GEMINI_SA_THREADS"];

fn gemini_cmd(args: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_gemini"));
    for v in SA_ENV {
        c.env_remove(v);
    }
    c.args(args);
    c
}

/// A `gemini serve` child on an ephemeral port, killed on drop if a
/// test fails before shutting it down.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Self {
        let mut child = gemini_cmd(&["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gemini serve");
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
            .to_string();
        Self { child, addr }
    }

    /// Sends `lines` on one fresh connection and returns one parsed
    /// response per request (completion order).
    fn request(&self, lines: &[&str]) -> Vec<Value> {
        let mut conn = TcpStream::connect(&self.addr).expect("connect to daemon");
        for l in lines {
            conn.write_all(l.as_bytes()).unwrap();
            conn.write_all(b"\n").unwrap();
        }
        conn.flush().unwrap();
        let reader = BufReader::new(conn);
        let mut out = Vec::new();
        for line in reader.lines().take(lines.len()) {
            out.push(parse_json(&line.expect("response line")).expect("response parses"));
        }
        assert_eq!(out.len(), lines.len(), "daemon answered every request");
        out
    }

    /// Requests a graceful shutdown and waits for the process to drain
    /// and exit successfully.
    fn shutdown(mut self) {
        let rs = self.request(&[r#"{"id":"bye","verb":"shutdown"}"#]);
        assert_eq!(
            rs[0]
                .get("payload")
                .unwrap()
                .get("draining")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon drained cleanly: {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn by_id<'a>(rs: &'a [Value], id: &str) -> &'a Value {
    rs.iter()
        .find(|v| v.get("id").and_then(|i| i.as_str()) == Some(id))
        .unwrap_or_else(|| panic!("no response with id {id}"))
}

fn payload_report(v: &Value) -> &str {
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
    v.get("payload")
        .and_then(|p| p.get("report"))
        .and_then(Value::as_str)
        .expect("payload carries a report")
}

fn cache_hits(v: &Value) -> f64 {
    v.get("service")
        .unwrap()
        .get("cache_hits")
        .unwrap()
        .as_num()
        .unwrap()
}

/// The acceptance contract: the same map and dse requests, one-shot via
/// the CLI and over the socket of a live daemon, produce byte-identical
/// reports.
#[test]
fn cli_and_socket_runs_are_byte_identical() {
    let cli_map = gemini_cmd(&[
        "map",
        "two-conv",
        "--batch",
        "2",
        "--iters",
        "30",
        "--threads",
        "1",
    ])
    .output()
    .expect("run CLI map");
    assert!(cli_map.status.success());
    let cli_map = String::from_utf8(cli_map.stdout).unwrap();
    // Everything after the host-dependent "mapping ... threads" header
    // is the deterministic report.
    let (header, cli_map_report) = cli_map.split_once('\n').expect("header then report");
    assert!(header.starts_with("mapping "), "{header}");

    let cli_dse = gemini_cmd(&[
        "dse",
        "--stride",
        "2000",
        "--iters",
        "12",
        "--batch",
        "2",
        "--fidelity",
        "validate",
        "--rerank-k",
        "2",
        "--threads",
        "1",
    ])
    .output()
    .expect("run CLI dse");
    assert!(cli_dse.status.success());
    let cli_dse_report = String::from_utf8(cli_dse.stdout).unwrap();

    let daemon = Daemon::spawn(&[]);
    let rs = daemon.request(&[
        r#"{"id":"m","verb":"map","model":"two-conv","batch":2,"iters":30,"threads":1}"#,
        r#"{"id":"d","verb":"dse","stride":2000,"iters":12,"batch":2,"fidelity":"validate","rerank_k":2,"sa_threads":1}"#,
    ]);
    assert_eq!(
        payload_report(by_id(&rs, "m")),
        cli_map_report.trim_end_matches('\n'),
        "map over the socket differs from the CLI"
    );
    assert_eq!(
        payload_report(by_id(&rs, "d")),
        cli_dse_report.trim_end_matches('\n'),
        "dse over the socket differs from the CLI"
    );
    daemon.shutdown();
}

/// A warm daemon answers a repeated request from its caches: the second
/// identical request reports a strictly higher cumulative hit count and
/// a bit-identical payload.
#[test]
fn warm_daemon_reports_strictly_more_cache_hits() {
    let daemon = Daemon::spawn(&[]);
    let req = r#"{"id":"w","verb":"map","model":"two-conv","batch":2,"iters":25,"threads":1}"#;
    let first = daemon.request(&[req]);
    let second = daemon.request(&[req]);
    assert!(
        cache_hits(&second[0]) > cache_hits(&first[0]),
        "second identical request must raise cache_hits: {} -> {}",
        cache_hits(&first[0]),
        cache_hits(&second[0])
    );
    assert_eq!(
        first[0].get("payload").unwrap().to_json(),
        second[0].get("payload").unwrap().to_json(),
        "warm payload must be bit-identical to the cold one"
    );
    daemon.shutdown();
}

/// With one worker and a one-slot queue, a third concurrent request is
/// refused immediately with `busy` — explicit backpressure, not
/// buffering.
#[test]
fn tiny_queue_answers_busy_under_load() {
    let daemon = Daemon::spawn(&["--workers", "1", "--queue", "1"]);
    let mut conn = TcpStream::connect(&daemon.addr).unwrap();
    // A slow request to occupy the single worker...
    conn.write_all(
        b"{\"id\":\"slow\",\"verb\":\"map\",\"model\":\"two-conv\",\"batch\":4,\"iters\":4000,\"threads\":1}\n",
    )
    .unwrap();
    conn.flush().unwrap();
    // ...give the worker a moment to dequeue it, then fill the queue's
    // single slot and push one more.
    std::thread::sleep(std::time::Duration::from_millis(300));
    conn.write_all(
        b"{\"id\":\"q\",\"verb\":\"map\",\"model\":\"two-conv\",\"batch\":2,\"iters\":10,\"threads\":1}\n\
          {\"id\":\"refused\",\"verb\":\"map\",\"model\":\"two-conv\",\"batch\":2,\"iters\":10,\"threads\":1}\n",
    )
    .unwrap();
    conn.flush().unwrap();
    let reader = BufReader::new(conn);
    let rs: Vec<Value> = reader
        .lines()
        .take(3)
        .map(|l| parse_json(&l.unwrap()).unwrap())
        .collect();
    assert_eq!(rs.len(), 3);
    let refused = by_id(&rs, "refused");
    assert_eq!(refused.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        refused.get("error").unwrap().get("code").unwrap().as_str(),
        Some("busy"),
        "{refused:?}"
    );
    assert_eq!(by_id(&rs, "slow").get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(by_id(&rs, "q").get("ok").unwrap().as_bool(), Some(true));
    // The busy refusal must arrive without waiting for the slow request
    // (it is written by the reader thread): it is not last in line.
    let order: Vec<&str> = rs
        .iter()
        .map(|v| v.get("id").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(
        order[0], "refused",
        "backpressure answers immediately: {order:?}"
    );
    daemon.shutdown();
}

/// Graceful shutdown finishes in-flight work: a request already queued
/// when `shutdown` arrives is still answered `ok` before the daemon
/// exits.
#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let mut conn = TcpStream::connect(&daemon.addr).unwrap();
    conn.write_all(
        b"{\"id\":\"inflight\",\"verb\":\"map\",\"model\":\"two-conv\",\"batch\":4,\"iters\":3000,\"threads\":1}\n",
    )
    .unwrap();
    conn.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));

    // Shutdown arrives on a second connection while the map is running.
    let mut bye = TcpStream::connect(&daemon.addr).unwrap();
    bye.write_all(b"{\"id\":\"bye\",\"verb\":\"shutdown\"}\n")
        .unwrap();
    bye.flush().unwrap();
    let mut bye_line = String::new();
    BufReader::new(bye).read_line(&mut bye_line).unwrap();
    let bye_resp = parse_json(bye_line.trim_end()).unwrap();
    assert_eq!(
        bye_resp
            .get("payload")
            .unwrap()
            .get("draining")
            .unwrap()
            .as_bool(),
        Some(true)
    );

    // The in-flight map still completes.
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).unwrap();
    let resp = parse_json(line.trim_end()).unwrap();
    assert_eq!(resp.get("id").unwrap().as_str(), Some("inflight"));
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");

    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "drained exit is clean: {status:?}");
}

/// The accept loop takes each connection as soon as it arrives. The
/// fastest of 3 batches of 20 sequential connect → `ping` → close round
/// trips must finish in 150 ms; a loop that slept 10 ms whenever no
/// connection was waiting would need at least 190 ms per batch.
#[test]
fn sequential_connections_are_accepted_without_waiting() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let fastest = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..20 {
                let rs = daemon.request(&[r#"{"id":"p","verb":"ping"}"#]);
                let pong = rs[0].get("payload").and_then(|p| p.get("pong"));
                assert_eq!(pong.and_then(Value::as_bool), Some(true), "{rs:?}");
            }
            start.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < Duration::from_millis(150),
        "the fastest batch of 20 round trips took {fastest:?}"
    );
    daemon.shutdown();
}

/// The `gemini request` verb is a full pipelined client: stdin lines
/// in, response lines out, non-zero exit when the daemon refuses the
/// connection.
#[test]
fn request_verb_pipes_stdin_to_the_daemon() {
    let daemon = Daemon::spawn(&[]);
    let mut child = gemini_cmd(&["request", "--addr", &daemon.addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gemini request");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"id\":\"p\",\"verb\":\"ping\"}\n{\"id\":\"s\",\"verb\":\"stats\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rs: Vec<Value> = stdout
        .lines()
        .map(|l| parse_json(l).expect("client echoes valid JSON"))
        .collect();
    assert_eq!(rs.len(), 2);
    assert_eq!(
        by_id(&rs, "p")
            .get("payload")
            .unwrap()
            .get("pong")
            .unwrap()
            .as_bool(),
        Some(true)
    );
    assert!(by_id(&rs, "s")
        .get("payload")
        .unwrap()
        .get("request_memo")
        .is_some());
    daemon.shutdown();

    // Against a dead daemon the client fails cleanly.
    let out = gemini_cmd(&["request", "--addr", "127.0.0.1:1"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
}
