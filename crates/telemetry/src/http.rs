//! Minimal std-only HTTP/1.1 server for live observability and admin
//! endpoints.
//!
//! No dependency beyond `std::net`: an accept-loop thread hands each
//! connection to a handler thread of its own, which parses the request
//! head, reads a bounded body and answers from registered [`Route`]
//! handlers, each a closure over snapshot reads (`Registry::snapshot`,
//! `FlightRecorder::to_json`, …) or — for the serve-mode admin surface —
//! over a command queue drained at epoch boundaries. Good enough for
//! `curl`, a Prometheus scraper, or a browser pointed at a running
//! engine — and nothing more: at most [`SLOTS`] connections at a time,
//! short timeouts, `Connection: close`.
//!
//! Hardening (all enforced before a handler runs):
//!
//! * request head (request line + headers) capped at
//!   [`MAX_HEAD_BYTES`] — anything longer is `431`;
//! * bodies capped at [`MAX_BODY_BYTES`] — `413` beyond that;
//! * the whole request must arrive within [`REQUEST_DEADLINE`] of the
//!   connection being accepted, however slowly its bytes drip — `408`
//!   after that, so no client can hold a handler slot for longer;
//! * a connection accepted while all [`SLOTS`] handler slots are busy
//!   is answered `503` at once, so idle sockets hold slots, never the
//!   listener;
//! * a connection closed before its head ends or its body reaches
//!   `Content-Length` is `400`: a handler never sees half a request;
//! * malformed request lines are `400`;
//! * any method but `GET` — anything that can change state — is `403`
//!   unless the peer is a loopback address ([`admitted`]);
//! * a known path hit with an unsupported method is `405` with an
//!   `Allow:` header listing what the route accepts.
//!
//! Shutdown is cooperative: [`HttpServer::shutdown`] raises a flag and
//! pokes the listener with a loopback connection so `accept` returns.

use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Maximum bytes of request line + headers accepted before `431`.
pub(crate) const MAX_HEAD_BYTES: usize = 8192;

/// Maximum request-body bytes accepted before `413`.
pub(crate) const MAX_BODY_BYTES: usize = 65536;

/// Time a client has to deliver its whole request (head and body).
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Connections served at once, each on its own handler thread.
const SLOTS: usize = 4;

/// What a route handler returns.
pub struct HttpResponse {
    /// HTTP status code (200, 404, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// 200 with the given content type.
    pub fn ok(content_type: &'static str, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type,
            body: body.into(),
        }
    }

    /// Arbitrary status with a plain-text body.
    pub fn text(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Error",
        }
    }
}

/// A parsed request as handed to a route handler: method, exact path
/// (query string stripped), and the body (empty for GET).
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, `PUT`, …), upper-case as sent.
    pub method: String,
    /// Path with any `?query` suffix removed.
    pub path: String,
    /// Request body, bounded by [`MAX_BODY_BYTES`].
    pub body: String,
}

/// A registered endpoint: exact path, the methods it accepts, and its
/// handler, called on the server thread for every matching request.
pub struct Route {
    path: String,
    methods: &'static [&'static str],
    handler: Box<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>,
}

impl Route {
    /// A GET-only route whose handler ignores the request.
    pub fn get(
        path: impl Into<String>,
        handler: impl Fn() -> HttpResponse + Send + Sync + 'static,
    ) -> Route {
        Route {
            path: path.into(),
            methods: &["GET"],
            handler: Box::new(move |_| handler()),
        }
    }

    /// A route accepting exactly `methods` (e.g. `&["POST"]` or
    /// `&["GET", "PUT"]`), with the parsed request passed through.
    pub fn on(
        path: impl Into<String>,
        methods: &'static [&'static str],
        handler: impl Fn(&HttpRequest) -> HttpResponse + Send + Sync + 'static,
    ) -> Route {
        Route {
            path: path.into(),
            methods,
            handler: Box::new(handler),
        }
    }
}

struct ServerShared {
    stop: AtomicBool,
}

/// A running listener; dropping it (or calling [`HttpServer::shutdown`])
/// stops the accept loop.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    handle: Option<thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, port 0 for ephemeral) and
    /// serve `routes` from a background thread named `sw-http`.
    pub fn serve(addr: impl ToSocketAddrs, routes: Vec<Route>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
        });
        let thread_shared = shared.clone();
        let handle = thread::Builder::new()
            .name("sw-http".into())
            .spawn(move || accept_loop(listener, routes, thread_shared))
            .expect("spawn sw-http");
        Ok(HttpServer {
            addr: local,
            shared,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, and join the server thread once the connections
    /// in flight are answered.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shared.stop.store(true, Ordering::Release);
            // Unblock accept() with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accept connections and hand each to a handler thread of its own
/// while fewer than [`SLOTS`] are running. A handler ends within
/// [`REQUEST_DEADLINE`] plus one bounded write, so stopping joins the
/// ones in flight without waiting on a client.
fn accept_loop(listener: TcpListener, routes: Vec<Route>, shared: Arc<ServerShared>) {
    let routes: Arc<[Route]> = routes.into();
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::with_capacity(SLOTS);
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        handlers.retain(|h| !h.is_finished());
        if handlers.len() >= SLOTS {
            let full = HttpResponse::text(503, "every handler slot is busy; retry\n");
            let _ = write_response(stream, &full);
            continue;
        }
        let routes = Arc::clone(&routes);
        let spawned = thread::Builder::new()
            .name("sw-http-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &routes);
            });
        // A failed spawn drops the connection unanswered.
        if let Ok(handler) = spawned {
            handlers.push(handler);
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Why a request came up short of what it announced.
enum Short {
    /// The peer closed (or the connection failed) mid-request.
    Closed,
    /// [`REQUEST_DEADLINE`] passed first.
    TimedOut,
}

impl Short {
    fn response(self) -> HttpResponse {
        match self {
            Short::Closed => HttpResponse::text(400, "connection closed mid-request\n"),
            Short::TimedOut => HttpResponse::text(
                408,
                format!(
                    "request not received within {} s\n",
                    REQUEST_DEADLINE.as_secs()
                ),
            ),
        }
    }
}

/// Read into `buf` until `done(buf)` or the deadline, whichever comes
/// first. Every read waits at most for what is left of the deadline, so
/// a client dripping a byte at a time cannot extend it.
fn read_until(
    stream: &mut TcpStream,
    deadline: Instant,
    buf: &mut Vec<u8>,
    mut done: impl FnMut(&[u8]) -> bool,
) -> Result<(), Short> {
    let mut chunk = [0u8; 512];
    while !done(buf) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return Err(Short::TimedOut);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(Short::Closed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(Short::TimedOut)
            }
            Err(_) => return Err(Short::Closed),
        }
    }
    Ok(())
}

/// Read until the end of the request head. Returns the raw bytes read
/// so far (head + any body prefix) and the head length, or the response
/// that refuses the request: `431` when the head exceeds
/// [`MAX_HEAD_BYTES`], `400`/`408` when it never ends.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> Result<(Vec<u8>, usize), HttpResponse> {
    let mut buf = Vec::with_capacity(512);
    let (mut scanned, mut end) = (0, None);
    let ended = |b: &[u8]| {
        end = find_head_end(b, &mut scanned);
        end.is_some() || b.len() > MAX_HEAD_BYTES
    };
    read_until(stream, deadline, &mut buf, ended).map_err(Short::response)?;
    // The cap applies to the head itself, terminator or not.
    match end {
        Some(pos) if pos <= MAX_HEAD_BYTES => Ok((buf, pos)),
        _ => Err(HttpResponse::text(431, "request head exceeds 8 KiB\n")),
    }
}

/// Byte offset just past the `\r\n\r\n` head terminator, if `buf`
/// holds one. `buf` only grows between calls, and each scan resumes 3
/// bytes before where the last one ended (`scanned`; a terminator may
/// straddle two reads), so reading a head scans it once.
fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    *scanned = buf.len();
    let at = buf[from..].windows(4).position(|w| w == b"\r\n\r\n");
    at.map(|p| from + p + 4)
}

/// `Content-Length` parsed out of the head, 0 when absent.
fn content_length(head: &str) -> usize {
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0)
}

fn handle_connection(mut stream: TcpStream, routes: &[Route]) -> std::io::Result<()> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let response = match read_head(&mut stream, deadline) {
        Err(refusal) => refusal,
        Ok((buf, head_len)) => respond(&mut stream, deadline, buf, head_len, routes),
    };
    write_response(stream, &response)
}

fn write_response(mut stream: TcpStream, response: &HttpResponse) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.status_text(),
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()?;
    // End the response with a FIN before the drop: the socket may still
    // hold request bytes nobody read (a refused request), and closing
    // such a socket outright can answer with a reset in its place.
    stream.shutdown(Shutdown::Write)
}

/// Whether a `method` request from `peer` may reach the routes: a read
/// (`GET`) from anywhere, anything else — every admin mutation — from a
/// loopback address only (an IPv4-mapped one included).
fn admitted(peer: IpAddr, method: &str) -> bool {
    method == "GET" || peer.to_canonical().is_loopback()
}

fn respond(
    stream: &mut TcpStream,
    deadline: Instant,
    buf: Vec<u8>,
    head_len: usize,
    routes: &[Route],
) -> HttpResponse {
    let head = String::from_utf8_lossy(&buf[..head_len]).into_owned();
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (Some(method), Some(raw_path)) = (parts.next(), parts.next()) else {
        return HttpResponse::text(400, "malformed request line\n");
    };
    if method.is_empty() || !raw_path.starts_with('/') {
        return HttpResponse::text(400, "malformed request line\n");
    }
    if !stream
        .peer_addr()
        .is_ok_and(|peer| admitted(peer.ip(), method))
    {
        return HttpResponse::text(403, format!("{method} is served to loopback peers only\n"));
    }
    let path = raw_path.split('?').next().unwrap_or("/").to_string();

    let want = content_length(&head);
    if want > MAX_BODY_BYTES {
        return HttpResponse::text(413, "request body exceeds 64 KiB\n");
    }
    // The head read may already hold a body prefix; pull the rest.
    let mut body = buf[head_len..].to_vec();
    if let Err(short) = read_until(stream, deadline, &mut body, |b| b.len() >= want) {
        return short.response();
    }
    body.truncate(want);

    let Some(route) = routes.iter().find(|r| r.path == path) else {
        let known: Vec<&str> = routes.iter().map(|r| r.path.as_str()).collect();
        return HttpResponse::text(
            404,
            format!("no such route {path}; try: {}\n", known.join(" ")),
        );
    };
    if !route.methods.contains(&method) {
        let mut resp = HttpResponse::text(
            405,
            format!("{path} supports: {}\n", route.methods.join(", ")),
        );
        // The Allow header is folded into the body text above; a
        // dedicated header would need response-header plumbing that
        // nothing consumes yet.
        resp.content_type = "text/plain; charset=utf-8";
        return resp;
    }
    let request = HttpRequest {
        method: method.to_string(),
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    };
    (route.handler)(&request)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two reads, split anywhere — inside the terminator too: the second
    /// scan resumes where the first ended and still finds it.
    #[test]
    fn the_head_end_is_found_at_every_split_across_two_reads() {
        let req = b"POST /admin/steer HTTP/1.1\r\nHost: x\r\n\r\n{\"add\": 1}";
        let want = req.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        for split in 0..=req.len() {
            let mut scanned = 0;
            let first = find_head_end(&req[..split], &mut scanned);
            let second = || find_head_end(req, &mut scanned);
            assert_eq!(first.or_else(second), want, "split at {split}");
        }
    }

    #[test]
    fn only_loopback_peers_may_mutate() {
        let ip = |s: &str| s.parse::<IpAddr>().unwrap();
        for peer in ["127.0.0.1", "127.3.2.1", "::1", "::ffff:127.0.0.1"] {
            assert!(admitted(ip(peer), "POST"), "{peer}");
        }
        for peer in ["10.0.0.7", "192.0.2.1", "2001:db8::1", "::ffff:10.0.0.7"] {
            assert!(admitted(ip(peer), "GET"), "{peer} may read");
            for method in ["POST", "PUT", "DELETE", "get"] {
                assert!(!admitted(ip(peer), method), "{peer} {method}");
            }
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        raw(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn raw(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        response(stream)
    }

    /// Read the connection to its end: status and body.
    fn response(mut stream: TcpStream) -> (u16, String) {
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let status: u16 = out
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = out
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn demo_routes() -> Vec<Route> {
        vec![
            Route::get("/metrics", || {
                HttpResponse::ok("text/plain; version=0.0.4", "up 1\n")
            }),
            Route::get("/stats.json", || {
                HttpResponse::ok("application/json", "{\"ok\":true}")
            }),
            Route::on("/echo", &["POST"], |req| {
                HttpResponse::ok("text/plain", format!("{} {}", req.method, req.body))
            }),
        ]
    }

    #[test]
    fn serves_routes_and_404s() {
        let server = HttpServer::serve("127.0.0.1:0", demo_routes()).unwrap();
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert_eq!(body, "up 1\n");

        let (status, body) = get(addr, "/stats.json?pretty=1");
        assert_eq!(status, 200, "query strings are stripped");
        assert!(body.contains("\"ok\""));

        let (status, body) = get(addr, "/nope");
        assert_eq!(status, 404);
        assert!(body.contains("/metrics"), "404 lists known routes");

        server.shutdown();
    }

    #[test]
    fn rejects_unsupported_methods_per_route() {
        let server = HttpServer::serve("127.0.0.1:0", demo_routes()).unwrap();
        let addr = server.local_addr();

        let (status, body) = raw(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 405);
        assert!(body.contains("GET"), "405 names the allowed methods");

        let (status, _) = raw(addr, "GET /echo HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 405, "POST-only route rejects GET");

        server.shutdown();
    }

    #[test]
    fn post_body_reaches_the_handler() {
        let server = HttpServer::serve("127.0.0.1:0", demo_routes()).unwrap();
        let addr = server.local_addr();
        let payload = "digest=42";
        let (status, body) = raw(
            addr,
            &format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{payload}",
                payload.len()
            ),
        );
        assert_eq!(status, 200);
        assert_eq!(body, format!("POST {payload}"));
        server.shutdown();
    }

    #[test]
    fn oversized_head_is_431() {
        let server = HttpServer::serve("127.0.0.1:0", demo_routes()).unwrap();
        let addr = server.local_addr();
        let huge = "x".repeat(MAX_HEAD_BYTES + 100);
        let (status, _) = raw(
            addr,
            &format!("GET /metrics HTTP/1.1\r\nHost: x\r\nX-Pad: {huge}\r\n\r\n"),
        );
        assert_eq!(status, 431);
        server.shutdown();
    }

    #[test]
    fn oversized_body_is_413() {
        let server = HttpServer::serve("127.0.0.1:0", demo_routes()).unwrap();
        let addr = server.local_addr();
        let (status, _) = raw(
            addr,
            &format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            ),
        );
        assert_eq!(status, 413);
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_is_400() {
        let server = HttpServer::serve("127.0.0.1:0", demo_routes()).unwrap();
        let addr = server.local_addr();
        let (status, _) = raw(addr, "GARBAGE\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _) = raw(addr, "GET not-a-path HTTP/1.1\r\n\r\n");
        assert_eq!(status, 400, "path must start with /");
        server.shutdown();
    }
    /// A client must not be able to keep a handler slot, whether by
    /// dripping bytes (each drip used to re-arm a per-read timeout) or
    /// by announcing more than it sends.
    #[test]
    fn slow_and_short_requests_are_refused_by_name() {
        let server = HttpServer::serve("127.0.0.1:0", demo_routes()).unwrap();
        let addr = server.local_addr();
        let status_of = |stream: TcpStream| response(stream).0;

        // A head that never ends, one byte every 100 ms.
        let t0 = Instant::now();
        let stream = TcpStream::connect(addr).unwrap();
        let mut drip = stream.try_clone().unwrap();
        let dripper = thread::spawn(move || {
            let _ = drip.write_all(b"POST /echo HTTP/1.1\r\nX-Pad: ");
            while drip.write_all(b"x").is_ok() && t0.elapsed() < 3 * REQUEST_DEADLINE {
                thread::sleep(Duration::from_millis(100));
            }
        });
        assert_eq!(status_of(stream), 408);
        assert!(t0.elapsed() < 2 * REQUEST_DEADLINE, "{:?}", t0.elapsed());
        dripper.join().unwrap();

        // A body that stops short of its Content-Length: the handler
        // must not see the half that arrived, even if it parses.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 20\r\n\r\nhalf")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(status_of(stream), 400);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 20\r\n\r\nhalf")
            .unwrap();
        assert_eq!(status_of(stream), 408, "open but silent: timed out");

        // The listener survived all three.
        assert_eq!(get(addr, "/metrics").0, 200);
        server.shutdown();
    }

    /// Whether the server has sent `stream` anything (or closed it)
    /// yet, asked without waiting.
    fn answered(stream: &TcpStream) -> bool {
        stream.set_nonblocking(true).unwrap();
        let read = (&*stream).read(&mut [0u8; 1]);
        stream.set_nonblocking(false).unwrap();
        !matches!(read, Err(e) if e.kind() == ErrorKind::WouldBlock)
    }

    /// An idle connection holds one handler slot, not the listener: a
    /// request that arrives after it is answered while the idle one is
    /// still waiting out its deadline.
    #[test]
    fn an_idle_connection_does_not_hold_the_other_routes() {
        let server = HttpServer::serve("127.0.0.1:0", demo_routes()).unwrap();
        let addr = server.local_addr();
        let idle = TcpStream::connect(addr).unwrap();
        assert_eq!(get(addr, "/metrics").0, 200);
        assert!(!answered(&idle), "the idle connection was answered first");
        server.shutdown();
    }

    /// With every slot held by an idle connection, the next one is
    /// refused with `503` at once rather than queued behind them.
    #[test]
    fn with_every_slot_held_idle_a_request_is_refused_with_503() {
        let server = HttpServer::serve("127.0.0.1:0", demo_routes()).unwrap();
        let addr = server.local_addr();
        let idle: Vec<TcpStream> = (0..SLOTS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 503, "{body}");
        assert!(
            idle.iter().all(|s| !answered(s)),
            "an idle connection was answered first"
        );
        server.shutdown();
    }
}
