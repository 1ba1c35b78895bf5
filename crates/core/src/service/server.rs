//! The daemon transport: a TCP accept loop feeding the bounded request
//! queue, a scoped worker pool draining it, and graceful shutdown.
//!
//! Wire framing is line-delimited JSON (see [`super::proto`]): one
//! request per line in, one response per line out. Responses on a
//! pipelined connection arrive in *completion* order — the `id` field
//! is the correlation handle, not the line position.
//!
//! The threading shape is deliberately simple and entirely
//! `std`-based:
//!
//! * the caller's thread runs the accept loop: a non-blocking listener
//!   that accepts a connection as soon as it arrives (on Linux it waits
//!   in `poll(2)`, elsewhere it sleeps between tries) and wakes at least
//!   every 10 ms to observe shutdown;
//! * one reader thread per connection decodes lines and either answers
//!   inline (`ping`/`stats`/`shutdown` — never queued, so a saturated
//!   daemon still answers probes) or pushes a job onto the shared
//!   [`RequestQueue`];
//! * `workers` threads pop the queue, evaluate through the shared
//!   [`ServiceState`] and write the response under the connection's
//!   write lock. A request whose handler panics is answered `internal`
//!   and counted (`panics` in the `service` section); the worker goes
//!   on to the next job.
//!
//! Overload is explicit: a full queue refuses the request *immediately*
//! with a `busy` error response instead of buffering it, and a request
//! that out-waits its `deadline_ms` in the queue is answered `expired`
//! without being evaluated. Shutdown (a `shutdown` request or SIGTERM)
//! closes admission, drains everything already queued, then joins all
//! threads — in-flight work is finished, never dropped.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::proto::{ErrorCode, Request, RequestBody, Response, MAX_LINE_BYTES};
use super::queue::{PushError, RequestQueue};
use super::{ServiceError, ServiceState};
use crate::campaign::value::Value;

/// Set by the SIGTERM handler; observed by the accept loop.
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `on_term` is an `extern "C"` handler that only stores to
    // an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// How long the accept loop waits for a connection before it looks at
/// the shutdown flags again.
const ACCEPT_WAIT: Duration = Duration::from_millis(10);

/// Waits until `listener` has a connection to accept, or `ACCEPT_WAIT`
/// has passed.
#[cfg(target_os = "linux")]
fn wait_for_connection(listener: &TcpListener) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut pfd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `pfd` is one valid `struct pollfd` that outlives the call,
    // and `nfds` is 1. An error or an interrupted wait just sends the
    // caller round its loop again.
    unsafe {
        poll(&mut pfd, 1, ACCEPT_WAIT.as_millis() as i32);
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_for_connection(_listener: &TcpListener) {
    std::thread::sleep(ACCEPT_WAIT);
}

/// The worker threads a daemon asked for `requested` starts on a host
/// running `host` threads at once: `requested` clamped to `host`, and
/// `host` for `0` ("all cores"), like the request thread counts
/// (`proto::get_threads`). Payloads do not depend on the worker count.
fn worker_count(requested: usize, host: usize) -> usize {
    if requested == 0 {
        host
    } else {
        requested.min(host)
    }
}

/// How the daemon is sized.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Evaluation worker threads (0 = one per core), at most one per
    /// core.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it answer `busy`.
    pub queue_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_cap: 64,
        }
    }
}

/// What a finished (drained) daemon reports.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Requests handled (ok or error), including inline verbs.
    pub served: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
}

/// One queued unit of work: the decoded request plus where to write the
/// answer and when it was admitted (for the deadline check).
struct Job {
    req: Request,
    enqueued: Instant,
    writer: Arc<Mutex<TcpStream>>,
}

/// What the reader and worker threads share.
struct Shared<'a> {
    state: &'a ServiceState,
    queue: RequestQueue<Job>,
    /// Requests whose handler panicked (each answered `internal`).
    panics: AtomicU64,
}

impl Shared<'_> {
    /// The volatile per-response `service` section: the state counters
    /// plus the instantaneous queue depth and the panic count.
    fn service_section(&self) -> Value {
        let mut v = self.state.counters();
        if let Value::Table(t) = &mut v {
            t.insert("queue_depth".to_string(), Value::from(self.queue.len()));
            let panics = self.panics.load(Ordering::Relaxed) as f64;
            t.insert("panics".to_string(), Value::Num(panics));
        }
        v
    }
}

/// A bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    opts: ServeOptions,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) without
    /// accepting yet, so the caller can print the resolved address
    /// before [`Server::run`] blocks.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, opts: ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self { listener, opts })
    }

    /// The bound address (with the ephemeral port resolved).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request or SIGTERM, then drains the
    /// queue and joins every thread. Blocks the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates unexpected accept-loop I/O failures (per-connection
    /// errors only drop that connection).
    pub fn run(&self, state: &ServiceState) -> std::io::Result<ServeSummary> {
        install_sigterm_handler();
        let shutdown = AtomicBool::new(false);
        let shared = Shared {
            state,
            queue: RequestQueue::new(self.opts.queue_cap),
            panics: AtomicU64::new(0),
        };
        let workers = worker_count(self.opts.workers, crate::pool::host_threads());
        let connections = AtomicU64::new(0);

        let mut accept_err = None;
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| worker_loop(&shared));
            }
            loop {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if TERM.load(Ordering::SeqCst) {
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        connections.fetch_add(1, Ordering::Relaxed);
                        // The accepted socket must block (with a short
                        // read timeout) so the reader can poll the
                        // shutdown flag without spinning.
                        let ready = stream.set_nonblocking(false).is_ok()
                            && stream
                                .set_read_timeout(Some(Duration::from_millis(50)))
                                .is_ok();
                        let Ok(write_half) = stream.try_clone() else {
                            continue;
                        };
                        if !ready {
                            continue;
                        }
                        let writer = Arc::new(Mutex::new(write_half));
                        let shared = &shared;
                        let shutdown = &shutdown;
                        s.spawn(move || {
                            reader_loop(stream, writer, shared, shutdown);
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        wait_for_connection(&self.listener);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        accept_err = Some(e);
                        shutdown.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            }
            // Stop admission; workers drain what is queued and exit,
            // readers notice the flag on their next timeout tick.
            shared.queue.close();
        });
        match accept_err {
            Some(e) => Err(e),
            None => Ok(ServeSummary {
                served: state.served(),
                connections: connections.load(Ordering::Relaxed),
            }),
        }
    }
}

/// Writes one response line under the connection's write lock. Write
/// failures mean the client is gone; the work is simply discarded.
fn write_line(writer: &Mutex<TcpStream>, resp: &Response, service: Value) {
    let mut line = resp.to_json_line(Some(service));
    line.push('\n');
    if let Ok(mut w) = writer.lock() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

/// Pops jobs until the queue is closed and drained.
fn worker_loop(shared: &Shared<'_>) {
    while let Some(job) = shared.queue.pop() {
        let resp = answer(&job.req, job.enqueued, &shared.panics, |body| {
            shared.state.handle(body)
        });
        write_line(&job.writer, &resp, shared.service_section());
    }
}

/// Answers one dequeued request: `expired` when it waited in the queue
/// past its deadline, else `handle`'s result. A handler that panics is
/// answered `internal` and counted in `panics`, so the worker survives
/// it.
fn answer(
    req: &Request,
    enqueued: Instant,
    panics: &AtomicU64,
    handle: impl FnOnce(&RequestBody) -> Result<Value, ServiceError>,
) -> Response {
    let verb = req.body.verb();
    let overdue = req
        .deadline_ms
        .map(|dl| enqueued.elapsed() > Duration::from_millis(dl));
    if overdue == Some(true) {
        return Response::err(
            req.id.clone(),
            verb,
            ErrorCode::Expired,
            format!(
                "spent {}ms queued, past deadline_ms {}",
                enqueued.elapsed().as_millis(),
                req.deadline_ms.unwrap_or(0)
            ),
        );
    }
    match catch_unwind(AssertUnwindSafe(|| handle(&req.body))) {
        Ok(Ok(payload)) => Response::ok(req.id.clone(), verb, payload),
        Ok(Err(e)) => Response::err(req.id.clone(), verb, e.code, e.detail),
        Err(_) => {
            panics.fetch_add(1, Ordering::Relaxed);
            Response::err(
                req.id.clone(),
                verb,
                ErrorCode::Internal,
                "request panicked",
            )
        }
    }
}

/// Reads one connection: splits lines, enforces [`MAX_LINE_BYTES`],
/// answers control verbs inline and queues the rest. Returns when the
/// peer hangs up, a line oversizes, or the daemon drains.
fn reader_loop(
    mut stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    shared: &Shared<'_>,
    shutdown: &AtomicBool,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                // `read` never returns more than the buffer holds, but
                // the request path stays free of panicking indexing.
                let Some(part) = chunk.get(..n) else { return };
                buf.extend_from_slice(part);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let raw: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&raw);
                    let line = line.trim_end_matches(['\n', '\r']);
                    if line.len() > MAX_LINE_BYTES {
                        refuse_oversized(&writer, shared, line.len());
                        return;
                    }
                    if line.trim().is_empty() {
                        continue;
                    }
                    if !handle_line(line, &writer, shared, shutdown) {
                        return;
                    }
                }
                if buf.len() > MAX_LINE_BYTES {
                    // A partial line already past the cap can never
                    // become a valid request; refuse without waiting
                    // for its newline.
                    refuse_oversized(&writer, shared, buf.len());
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn refuse_oversized(writer: &Mutex<TcpStream>, shared: &Shared<'_>, got: usize) {
    let resp = Response::err(
        "",
        "",
        ErrorCode::Oversized,
        format!("request line of {got} bytes exceeds the {MAX_LINE_BYTES}-byte limit"),
    );
    write_line(writer, &resp, shared.service_section());
}

/// Dispatches one decoded line. Returns `false` when the connection
/// should close (the daemon is draining after this request).
fn handle_line(
    line: &str,
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Shared<'_>,
    shutdown: &AtomicBool,
) -> bool {
    let req = match Request::from_json(line) {
        Ok(r) => r,
        Err(e) => {
            write_line(
                writer,
                &Response::from_proto_err(&e),
                shared.service_section(),
            );
            return true;
        }
    };
    let verb = req.body.verb();
    match &req.body {
        // Control verbs bypass the queue: a saturated daemon must still
        // answer probes, and `shutdown` must get through to drain it.
        RequestBody::Ping | RequestBody::Stats | RequestBody::Shutdown => {
            let is_shutdown = matches!(req.body, RequestBody::Shutdown);
            let resp = match shared.state.handle(&req.body) {
                Ok(payload) => Response::ok(req.id.clone(), verb, payload),
                Err(e) => Response::err(req.id.clone(), verb, e.code, e.detail),
            };
            write_line(writer, &resp, shared.service_section());
            if is_shutdown {
                shutdown.store(true, Ordering::SeqCst);
                return false;
            }
            true
        }
        RequestBody::Map(_) | RequestBody::Dse(_) | RequestBody::Campaign(_) => {
            let priority = req.priority;
            let id = req.id.clone();
            let job = Job {
                req,
                enqueued: Instant::now(),
                writer: Arc::clone(writer),
            };
            match shared.queue.push(priority, job) {
                Ok(_) => {}
                Err(PushError::Busy) => {
                    let resp = Response::err(
                        id,
                        verb,
                        ErrorCode::Busy,
                        format!("queue full ({} pending); retry later", shared.queue.len()),
                    );
                    write_line(writer, &resp, shared.service_section());
                }
                Err(PushError::Closed) => {
                    let resp = Response::err(
                        id,
                        verb,
                        ErrorCode::ShuttingDown,
                        "daemon is draining; no new work admitted",
                    );
                    write_line(writer, &resp, shared.service_section());
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::value::parse_json;
    use crate::service::SERVE_MEMO_CAP;
    use std::io::{BufRead, BufReader};

    fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<Value> {
        let mut conn = TcpStream::connect(addr).expect("connect");
        for l in lines {
            conn.write_all(l.as_bytes()).unwrap();
            conn.write_all(b"\n").unwrap();
        }
        conn.flush().unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        let mut out = Vec::new();
        for line in reader.lines().take(lines.len()) {
            out.push(parse_json(&line.unwrap()).expect("response parses"));
        }
        out
    }

    #[test]
    fn worker_count_is_clamped_to_the_host() {
        // Pure arithmetic: no thread is started for any request.
        assert_eq!(worker_count(usize::MAX, 2), 2);
        assert_eq!(worker_count(usize::MAX, 1), 1);
        assert_eq!(worker_count(0, 6), 6, "0 means all cores");
        assert_eq!(worker_count(1, 6), 1);
        assert_eq!(worker_count(4, 6), 4);
        assert_eq!(worker_count(7, 6), 6);
    }

    #[test]
    fn daemon_serves_queues_and_drains() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeOptions {
                workers: 2,
                queue_cap: 8,
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let state = ServiceState::serving(SERVE_MEMO_CAP);
        std::thread::scope(|s| {
            let daemon = s.spawn(|| server.run(&state).unwrap());

            let rs = send_lines(
                addr,
                &[
                    r#"{"id":"p","verb":"ping"}"#,
                    r#"{"id":"m","verb":"map","model":"two-conv","batch":2,"iters":25,"threads":1}"#,
                ],
            );
            // Pipelined responses arrive in completion order; match by id.
            let by_id = |id: &str| {
                rs.iter()
                    .find(|v| v.get("id").and_then(|i| i.as_str()) == Some(id))
                    .unwrap_or_else(|| panic!("response '{id}' present"))
                    .clone()
            };
            assert_eq!(by_id("p").get("ok").unwrap().as_bool(), Some(true));
            let m = by_id("m");
            assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
            assert!(m
                .get("payload")
                .unwrap()
                .get("report")
                .unwrap()
                .as_str()
                .unwrap()
                .starts_with("T-Map :"));
            assert!(m.get("service").unwrap().get("queue_depth").is_some());
            assert_eq!(
                m.get("service").unwrap().get("panics").unwrap().as_num(),
                Some(0.0)
            );

            // A malformed line answers ok:false without killing the
            // connection or the daemon.
            let rs = send_lines(addr, &["{broken", r#"{"id":"p2","verb":"ping"}"#]);
            assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(false));
            assert_eq!(
                rs[0].get("error").unwrap().get("code").unwrap().as_str(),
                Some("bad_request")
            );
            assert_eq!(rs[1].get("ok").unwrap().as_bool(), Some(true));

            // Second identical map: strictly more cache hits.
            let hits = |v: &Value| {
                v.get("service")
                    .unwrap()
                    .get("cache_hits")
                    .unwrap()
                    .as_num()
                    .unwrap()
            };
            let before = hits(&m);
            let rs = send_lines(
                addr,
                &[
                    r#"{"id":"m2","verb":"map","model":"two-conv","batch":2,"iters":25,"threads":1}"#,
                ],
            );
            assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(true));
            assert!(hits(&rs[0]) > before, "warm daemon must report more hits");
            assert_eq!(
                rs[0].get("payload").unwrap().to_json(),
                m.get("payload").unwrap().to_json(),
                "memoized payload is bit-identical"
            );

            let rs = send_lines(addr, &[r#"{"id":"bye","verb":"shutdown"}"#]);
            assert_eq!(
                rs[0]
                    .get("payload")
                    .unwrap()
                    .get("draining")
                    .unwrap()
                    .as_bool(),
                Some(true)
            );
            let summary = daemon.join().unwrap();
            assert!(summary.served >= 5);
            assert!(summary.connections >= 4);
        });
    }

    #[test]
    fn a_panicking_request_answers_internal_and_the_next_is_served() {
        let panics = AtomicU64::new(0);
        let req = |id: &str| Request {
            id: id.to_string(),
            priority: 0,
            deadline_ms: None,
            body: RequestBody::Ping,
        };
        let boom = answer(&req("boom"), Instant::now(), &panics, |_| {
            panic!("poisoned request")
        });
        assert_eq!(boom.id, "boom");
        assert!(
            matches!(&boom.outcome, Err((ErrorCode::Internal, d)) if d == "request panicked"),
            "{:?}",
            boom.outcome
        );
        assert_eq!(panics.load(Ordering::Relaxed), 1);
        let next = answer(&req("next"), Instant::now(), &panics, |_| {
            Ok(Value::Bool(true))
        });
        assert!(matches!(next.outcome, Ok(Value::Bool(true))));
        assert_eq!(panics.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn oversized_line_is_refused_cleanly() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeOptions {
                workers: 1,
                queue_cap: 2,
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let state = ServiceState::serving(SERVE_MEMO_CAP);
        std::thread::scope(|s| {
            let daemon = s.spawn(|| server.run(&state).unwrap());

            let big = format!(
                r#"{{"id":"big","verb":"ping","pad":"{}"}}"#,
                "x".repeat(MAX_LINE_BYTES)
            );
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(big.as_bytes()).unwrap();
            conn.write_all(b"\n").unwrap();
            conn.flush().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v = parse_json(line.trim_end()).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
            assert_eq!(
                v.get("error").unwrap().get("code").unwrap().as_str(),
                Some("oversized")
            );
            // The connection is dropped after an oversized refusal.
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0);

            let _ = send_lines(addr, &[r#"{"verb":"shutdown"}"#]);
            daemon.join().unwrap();
        });
    }
}
