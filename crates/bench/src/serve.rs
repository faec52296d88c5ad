//! Live observability + admin endpoints over a running [`Engine`].
//!
//! `repro engine --listen 127.0.0.1:9184` binds the std-only HTTP
//! listener from [`smartwatch_telemetry::http`] and serves three
//! read-only routes for the lifetime of the run (plus
//! `--serve-hold-ms` afterwards):
//!
//! * `GET /metrics` — the shared registry in Prometheus text exposition
//!   format ([`Snapshot::to_prometheus`](smartwatch_telemetry::Snapshot::to_prometheus)).
//! * `GET /stats.json` — [`Engine::stats_json`]: live
//!   EngineReport-shaped conservation counters, per-shard/per-queue
//!   breakdowns, stage latency snapshots, memory/pool gauges, service
//!   state, and the controller decision audit.
//! * `GET /flight.json` — the engine's flight recorder
//!   ([`FlightRecorder::to_json`](smartwatch_telemetry::FlightRecorder::to_json)).
//!
//! `repro serve` / `repro soak` additionally mount the **admin
//! surface** ([`admin_routes`]): POST endpoints that steer the engine
//! live. Every admin edit rides the engine's lock-free publication
//! machinery — steering/mode/shed commands queue into the bounded
//! [`AdminCmd`] mailbox and are applied by the controller thread at the
//! next epoch boundary; drain raises the graceful-quiesce flag the
//! ingest units re-read at checkpoints. A segment's pace is fixed when
//! it opens. The packet hot loop never takes a lock on behalf of an operator.
//!
//! | route | body | effect |
//! |---|---|---|
//! | `POST /admin/steer` | `{"table":"blacklist","op":"add","digest":N}` | queue a steering-table edit |
//! | `POST /admin/mode`  | `{"shard":N,"mode":"lite"\|"general"\|"auto"}` | pin / release one shard's mode |
//! | `POST /admin/shed`  | `{"force":true\|false\|null}` | pin / release load shedding |
//! | `POST /admin/drain` | — | gracefully drain the current segment |
//!
//! Queued commands and the drain answer `202 Accepted` (applied at the
//! next epoch or checkpoint); a full mailbox answers `409`; malformed
//! bodies answer `400`/`422`.

use smartwatch_runtime::{AdminCmd, Engine};
use smartwatch_snic::Mode;
use smartwatch_telemetry::http::{HttpRequest, HttpResponse, HttpServer, Route};
use std::sync::Arc;

/// Prometheus text exposition content type.
pub(crate) const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The standard read-only observability route set over one engine.
pub(crate) fn routes(engine: &Arc<Engine>) -> Vec<Route> {
    let metrics = Arc::clone(engine);
    let stats = Arc::clone(engine);
    let flight = Arc::clone(engine);
    vec![
        Route::get("/metrics", move || {
            HttpResponse::ok(
                PROMETHEUS_CONTENT_TYPE,
                metrics.registry().snapshot().to_prometheus(),
            )
        }),
        Route::get("/stats.json", move || {
            HttpResponse::ok("application/json", stats.stats_json())
        }),
        Route::get("/flight.json", move || {
            HttpResponse::ok("application/json", flight.flight().to_json())
        }),
    ]
}

/// The admin control surface over one engine (see the module docs for
/// the endpoint table). Mounted *in addition to* [`routes`] by the
/// service-mode drivers; the plain `--listen` observability plane stays
/// read-only.
pub(crate) fn admin_routes(engine: &Arc<Engine>) -> Vec<Route> {
    let steer = Arc::clone(engine);
    let mode = Arc::clone(engine);
    let shed = Arc::clone(engine);
    let drain = Arc::clone(engine);
    vec![
        Route::on("/admin/steer", &["POST"], move |req| {
            admin_steer(&steer, req)
        }),
        Route::on("/admin/mode", &["POST"], move |req| admin_mode(&mode, req)),
        Route::on("/admin/shed", &["POST"], move |req| admin_shed(&shed, req)),
        Route::on("/admin/drain", &["POST"], move |_req| {
            drain.request_drain();
            HttpResponse::text(202, "draining\n")
        }),
    ]
}

/// Parse the request body as a JSON object, or answer 400.
fn body_json(req: &HttpRequest) -> Result<serde_json::Value, HttpResponse> {
    serde_json::from_str(&req.body)
        .map_err(|_| HttpResponse::text(400, "body must be a JSON object\n"))
}

/// Queue an [`AdminCmd`], mapping mailbox back-pressure to 409.
fn queue(engine: &Engine, cmd: AdminCmd) -> HttpResponse {
    if engine.admin(cmd) {
        HttpResponse::text(202, "queued; applies at the next epoch boundary\n")
    } else {
        HttpResponse::text(409, "admin mailbox full; retry after the next epoch\n")
    }
}

fn admin_steer(engine: &Engine, req: &HttpRequest) -> HttpResponse {
    let doc = match body_json(req) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let digest = match doc.get("digest").and_then(|v| v.as_u64()) {
        Some(d) => d,
        None => return HttpResponse::text(422, "digest must be an unsigned integer\n"),
    };
    let table = doc.get("table").and_then(|v| v.as_str()).unwrap_or("");
    let op = doc.get("op").and_then(|v| v.as_str()).unwrap_or("add");
    let cmd = match (table, op) {
        ("blacklist", "add") => AdminCmd::BlacklistAdd(digest),
        ("blacklist", "remove") => AdminCmd::BlacklistRemove(digest),
        ("whitelist", "add") => AdminCmd::WhitelistAdd(digest),
        ("whitelist", "remove") => AdminCmd::WhitelistRemove(digest),
        _ => {
            return HttpResponse::text(
                422,
                "table must be blacklist|whitelist, op must be add|remove\n",
            )
        }
    };
    queue(engine, cmd)
}

fn admin_mode(engine: &Engine, req: &HttpRequest) -> HttpResponse {
    let doc = match body_json(req) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let shard = match doc.get("shard").and_then(|v| v.as_u64()) {
        Some(s) if (s as usize) < engine.config().shards => s as usize,
        _ => return HttpResponse::text(422, "shard must index a configured shard\n"),
    };
    let mode = match doc.get("mode").and_then(|v| v.as_str()) {
        Some("general") => Some(Mode::General),
        Some("lite") => Some(Mode::Lite),
        Some("auto") => None,
        _ => return HttpResponse::text(422, "mode must be general|lite|auto\n"),
    };
    queue(engine, AdminCmd::ForceMode { shard, mode })
}

fn admin_shed(engine: &Engine, req: &HttpRequest) -> HttpResponse {
    let doc = match body_json(req) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    match shed_pin(&doc) {
        Some(on) => queue(engine, AdminCmd::ForceShed(on)),
        None => HttpResponse::text(422, "force must be true, false or null\n"),
    }
}

/// The shed pin a `POST /admin/shed` body asks for: `{"force":true}`
/// pins it on; `false` and `null` both release it.
fn shed_pin(doc: &serde_json::Value) -> Option<bool> {
    let force = doc.get("force")?;
    if force.is_null() {
        Some(false)
    } else {
        force.as_bool()
    }
}

/// Bind `addr` and serve the read-only [`routes`] over `engine` until
/// the returned server is shut down (or dropped). Port 0 picks an
/// ephemeral port; the bound address is announced on stderr so scripts
/// can scrape it.
pub fn serve(addr: &str, engine: &Arc<Engine>) -> std::io::Result<HttpServer> {
    let server = HttpServer::serve(addr, routes(engine))?;
    eprintln!(
        "repro: serving /metrics /stats.json /flight.json on http://{}",
        server.local_addr()
    );
    Ok(server)
}

/// Bind `addr` and serve [`routes`] *plus* [`admin_routes`] — the
/// service-mode control socket.
pub(crate) fn serve_admin(addr: &str, engine: &Arc<Engine>) -> std::io::Result<HttpServer> {
    let mut all = routes(engine);
    all.extend(admin_routes(engine));
    let server = HttpServer::serve(addr, all)?;
    eprintln!(
        "repro: service admin socket on http://{} \
         (GET /metrics /stats.json /flight.json; POST /admin/*)",
        server.local_addr()
    );
    Ok(server)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use smartwatch_runtime::EngineConfig;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn request(addr: std::net::SocketAddr, raw: &(impl AsRef<[u8]> + ?Sized)) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_ref()).unwrap();
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

    pub(crate) fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    pub(crate) fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
        request(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn all_three_routes_answer_before_and_after_a_run() {
        let engine = Arc::new(Engine::new(EngineConfig::new(1)));
        let server = serve("127.0.0.1:0", &engine).unwrap();
        let addr = server.local_addr();

        // Before any run: endpoints answer with empty-but-valid bodies.
        let (status, body) = get(addr, "/stats.json");
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(v.get("offered").and_then(|x| x.as_u64()), Some(0));

        let (status, body) = get(addr, "/flight.json");
        assert_eq!(status, 200);
        let _: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");

        let (status, _) = get(addr, "/metrics");
        assert_eq!(status, 200);

        server.shutdown();
    }

    /// Admin commands waiting in the mailbox, as `/stats.json` reports
    /// them (`service.admin_queued`).
    fn admin_queued(addr: std::net::SocketAddr) -> u64 {
        let (status, body) = get(addr, "/stats.json");
        assert_eq!(status, 200);
        let doc: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
        let service = doc.get("service").expect("a service section");
        service
            .get("admin_queued")
            .and_then(|v| v.as_u64())
            .expect("admin_queued")
    }

    #[test]
    fn admin_routes_queue_commands_and_validate_bodies() {
        let engine = Arc::new(Engine::new(EngineConfig::new(2)));
        let server = serve_admin("127.0.0.1:0", &engine).unwrap();
        let addr = server.local_addr();

        // Valid steering edits queue into the admin mailbox.
        let (status, _) = post(
            addr,
            "/admin/steer",
            r#"{"table":"blacklist","op":"add","digest":42}"#,
        );
        assert_eq!(status, 202);
        let (status, _) = post(
            addr,
            "/admin/steer",
            r#"{"table":"whitelist","op":"remove","digest":7}"#,
        );
        assert_eq!(status, 202);
        let (status, _) = post(addr, "/admin/mode", r#"{"shard":1,"mode":"lite"}"#);
        assert_eq!(status, 202);
        let (status, _) = post(addr, "/admin/shed", r#"{"force":true}"#);
        assert_eq!(status, 202);
        // `null` is the release, as `false` is.
        let (status, _) = post(addr, "/admin/shed", r#"{"force":null}"#);
        assert_eq!(status, 202);
        assert_eq!(admin_queued(addr), 5);
        let pin = |body: &str| shed_pin(&serde_json::from_str(body).expect("JSON"));
        assert_eq!(pin(r#"{"force":null}"#), Some(false));
        assert_eq!(pin(r#"{"force":false}"#), Some(false));
        assert_eq!(pin(r#"{"force":true}"#), Some(true));
        assert_eq!(pin(r#"{"force":1}"#), None);
        assert_eq!(pin("{}"), None);

        // Drain raises the graceful-quiesce flag.
        let (status, _) = post(addr, "/admin/drain", "");
        assert_eq!(status, 202);
        assert!(engine.drain_requested());
        engine.clear_drain();

        // Validation: bad table, out-of-range shard, malformed JSON,
        // wrong method on an admin route.
        let (status, _) = post(addr, "/admin/steer", r#"{"table":"greylist","digest":1}"#);
        assert_eq!(status, 422);
        let (status, _) = post(addr, "/admin/mode", r#"{"shard":9,"mode":"lite"}"#);
        assert_eq!(status, 422);
        let (status, _) = post(addr, "/admin/shed", "not json");
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/admin/drain");
        assert_eq!(status, 405);

        // Nothing leaked into the queue from the rejected requests.
        assert_eq!(admin_queued(addr), 5);

        // A full mailbox answers 409 and queues nothing.
        while engine.admin(AdminCmd::WhitelistAdd(1_000)) {}
        let brim = admin_queued(addr);
        let (status, _) = post(addr, "/admin/shed", r#"{"force":false}"#);
        assert_eq!(status, 409);
        assert_eq!(admin_queued(addr), brim);
        server.shutdown();
    }
    /// Nothing a client can send to the admin socket may panic it, hang
    /// its one thread, or move the engine: each hostile shape ends in a
    /// named 4xx on every route, nothing is queued, and the pins the
    /// operator set before still decide the next segment.
    #[test]
    fn hostile_clients_get_a_named_4xx_and_change_nothing() {
        use smartwatch_runtime::{ControlConfig, Pace};
        use smartwatch_trace::background::Preset;

        let control = ControlConfig {
            epoch_ms: 2,
            eta_lite_mpps: 1_000.0,
            eta_general_mpps: 100.0,
            ..ControlConfig::default()
        };
        let engine = Arc::new(Engine::new(EngineConfig::new(2).with_control(control)));
        let server = serve_admin("127.0.0.1:0", &engine).unwrap();
        let addr = server.local_addr();
        let packets = crate::workloads::caida_64b(Preset::Caida2018, 1, 0xC7).into_packets();
        let packets: Vec<_> = packets.iter().cycle().take(20_000).copied().collect();
        let pinned = |label: &str| {
            let report = engine.run(&packets, Pace::RateMpps(0.3));
            let ctrl = report.control.as_ref().expect("controller ran");
            let last = ctrl.decisions.last().expect("an epoch ran");
            assert!(last.shed && ctrl.shed_active, "{label}: shed pin");
            assert_eq!(last.modes[0], Mode::Lite, "{label}: mode pin");
            (report.shed(), report.offered)
        };

        assert_eq!(post(addr, "/admin/shed", r#"{"force":true}"#).0, 202);
        let lite = r#"{"shard":0,"mode":"lite"}"#;
        assert_eq!(post(addr, "/admin/mode", lite).0, 202);
        pinned("before");
        assert_eq!(engine.admin_applied(), 2);

        let raw = |bytes: &[u8]| request(addr, bytes).0;
        let with_body = |path: &str, body: &[u8], extra: &[u8]| -> u16 {
            let head = format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            raw(&[head.as_bytes(), body, extra].concat())
        };
        let deep = "[".repeat(10_000);
        for path in ["/admin/steer", "/admin/mode", "/admin/shed"] {
            // Slow-loris: the head promises a body that never completes.
            let slow = format!("POST {path} HTTP/1.1\r\nContent-Length: 64\r\n\r\n{{\"force\":");
            assert_eq!(raw(slow.as_bytes()), 408, "{path}: slow-loris");
            // A refused request with garbage pipelined behind it: the
            // first is answered, the rest is never read as a request.
            let garbage = b"\x00\xffPOST /admin/drain HTTP/1.1\r\n\r\n";
            assert_eq!(with_body(path, b"{}", garbage), 422, "{path}: pipelined");
            // Garbage where the method should be.
            let first = format!("\x01\x02 {path} HTTP/1.1\r\n\r\n");
            assert_eq!(raw(first.as_bytes()), 405, "{path}: garbage first");
            let non_utf8 = b"{\"force\":\xff\xfe,\"digest\":\xc3\x28}";
            assert_eq!(with_body(path, non_utf8, b""), 400, "{path}: non-UTF-8");
            assert_eq!(with_body(path, deep.as_bytes(), b""), 400, "{path}: deep");
        }
        // The bodiless command: only a whole request may drain.
        assert_eq!(raw(b"POST /admin/drain HTTP/1.1\r\nHost: x\r\n"), 408);
        assert!(!engine.drain_requested());
        assert_eq!(admin_queued(addr), 0, "nothing leaked into the mailbox");

        // The resident controller's next decisions: both pins hold, from
        // the segment's first packet.
        let (shed, offered) = pinned("after");
        assert_eq!(shed, offered);
        assert_eq!(engine.admin_applied(), 2);
        assert_eq!(get(addr, "/stats.json").0, 200, "the listener still serves");
        server.shutdown();
    }
}
