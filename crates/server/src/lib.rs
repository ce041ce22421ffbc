//! memsim-server: simulation-as-a-service over the experiment engine.
//!
//! A zero-dependency HTTP/1.1 + JSON daemon on `std::net::TcpListener`.
//! Clients submit jobs (a named artifact, or a trace replay over a design
//! grid) and poll for deterministic results; the daemon rides entirely on
//! existing machinery — [`memsim_core::build_artifact`] as the engine,
//! the PR 4 sweep journal as the durable job store, the shared
//! [`memsim_core::SimCache`] to coalesce overlapping grid points across
//! concurrent jobs, and `memsim-obs` for live metrics.
//!
//! # API
//!
//! | route | effect |
//! |---|---|
//! | `POST /jobs` | submit a job spec → `202 {"id":...}`, or `503` + `Retry-After` when the queue is full |
//! | `GET /jobs/<id>` | status: state, per-point progress, spec |
//! | `GET /jobs/<id>/result` | the deterministic result document (`409` until done) |
//! | `GET /jobs/<id>/events` | live NDJSON stream: state transitions, progress samples, heartbeats |
//! | `DELETE /jobs/<id>` | cooperative cancel; in-flight points drain into the journal |
//! | `GET /metrics` | `memsim-obs/1` JSON, or Prometheus text when `Accept: text/plain` |
//! | `GET /healthz` | liveness: uptime, queue depth, jobs by state, version |
//!
//! See DESIGN.md §15 for the job lifecycle, cache keys, and backpressure
//! behavior, and the `server_http` / `server_jobs` integration suites for
//! the hostile-input and durability contracts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobs;

use http::{read_request, Method, Request, Response};
use jobs::{CancelOutcome, JobState, Recovered, Registry, SubmitError};
use memsim_obs::json;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How the daemon is set up; every knob the `serve` command exposes.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral, kernel-assigned).
    pub port: u16,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue depth; submits beyond it answer 503.
    pub queue_depth: usize,
    /// Durable state root (`jobs/`, `traces/`, `server.port`).
    pub state_dir: PathBuf,
    /// Per-connection socket read timeout (slow-loris guard).
    pub read_timeout: Duration,
}

impl ServerConfig {
    /// Defaults: ephemeral port, 2 workers, queue of 16, 5 s read timeout.
    pub fn new(state_dir: PathBuf) -> ServerConfig {
        ServerConfig {
            port: 0,
            workers: 2,
            queue_depth: 16,
            state_dir,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A running daemon: accept thread + worker pool. Dropping the handle
/// does *not* stop it; call [`Server::shutdown`].
pub struct Server {
    registry: Arc<Registry>,
    addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    recovered: Recovered,
}

impl Server {
    /// Bind, recover durable jobs, and start serving. The bound address
    /// is also written to `<state>/server.port` so scripts can find an
    /// ephemeral port.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let (registry, recovered) = Registry::open(&config.state_dir, config.queue_depth)?;
        let listener = TcpListener::bind(("127.0.0.1", config.port))
            .map_err(|e| format!("binding port {}: {e}", config.port))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        std::fs::write(
            config.state_dir.join("server.port"),
            addr.port().to_string(),
        )
        .map_err(|e| format!("writing port file: {e}"))?;

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let reg = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("memsim-worker-{i}"))
                    .spawn(move || reg.work())
                    .map_err(|e| format!("spawning worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let accept = {
            let reg = Arc::clone(&registry);
            let timeout = config.read_timeout;
            std::thread::Builder::new()
                .name("memsim-accept".into())
                .spawn(move || accept_loop(listener, reg, timeout))
                .map_err(|e| format!("spawning acceptor: {e}"))?
        };

        Ok(Server {
            registry,
            addr,
            accept: Some(accept),
            workers,
            recovered,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Ids of jobs recovered from the journal-backed store at startup.
    pub fn resumed(&self) -> &[String] {
        &self.recovered.resumed
    }

    /// Ids of persisted jobs not recovered at startup because their spec
    /// no longer parses, with the parse error.
    pub fn skipped(&self) -> &[(String, String)] {
        &self.recovered.skipped
    }

    /// The shared registry (tests submit through it directly).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Graceful stop: refuse new work, interrupt running jobs so they
    /// drain their in-flight points into their journals, join every
    /// thread. Incomplete jobs come back as `queued` on the next start.
    pub fn shutdown(mut self) {
        self.registry.stop();
        // Wake the acceptor with one last connection; it checks the flag
        // between accepts.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, reg: Arc<Registry>, timeout: Duration) {
    for stream in listener.incoming() {
        if reg.stopping() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let reg = Arc::clone(&reg);
        // Thread-per-connection: connections are one-shot (Connection:
        // close) and the handler is cheap — simulation happens on the
        // worker pool, never on a connection thread.
        let _ = std::thread::Builder::new()
            .name("memsim-conn".into())
            .spawn(move || handle_connection(stream, &reg, timeout));
    }
}

fn handle_connection(stream: TcpStream, reg: &Arc<Registry>, timeout: Duration) {
    let _ = stream.set_read_timeout(Some(timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let response = match read_request(&mut reader) {
        Ok(req) => {
            // The one route that cannot flow through `route()`: the live
            // event stream has no known content length and writes
            // incrementally until the job goes terminal.
            if let Some(id) = events_stream_target(&req) {
                if memsim_obs::enabled() {
                    memsim_obs::global().counter("server.http.requests").inc();
                    memsim_obs::global()
                        .counter("server.http.events_streams")
                        .inc();
                }
                stream_job_events(stream, reg, &id);
                return;
            }
            route(reg, &req)
        }
        Err(e) => match e.response() {
            Some(r) => r,
            None => return, // peer closed without sending anything
        },
    };
    if memsim_obs::enabled() {
        memsim_obs::global().counter("server.http.requests").inc();
        memsim_obs::global()
            .counter(&format!("server.http.status.{}", response.status))
            .inc();
    }
    let mut out = stream;
    let _ = response.write_to(&mut out);
}

/// Match `GET /jobs/<id>/events`, the NDJSON streaming route handled at
/// the connection layer instead of [`route`].
fn events_stream_target(req: &Request) -> Option<String> {
    if req.method != Method::Get {
        return None;
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["jobs", id, "events"] => Some(id.to_string()),
        _ => None,
    }
}

/// How often the event stream polls job state for new lines.
const EVENTS_POLL: Duration = Duration::from_millis(200);
/// Idle keep-alive cadence: a heartbeat line proves the stream is live.
const EVENTS_HEARTBEAT: Duration = Duration::from_secs(3);

fn write_ndjson_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Serve `GET /jobs/<id>/events`: replay the bounded backlog of state
/// transitions as NDJSON, then follow the job live — progress samples
/// when journaled points advance, heartbeats while idle — until it
/// reaches a terminal state (or the daemon stops), then close.
fn stream_job_events(mut stream: TcpStream, reg: &Arc<Registry>, id: &str) {
    let job = match reg.get(id) {
        Some(j) => j,
        None => {
            let _ = Response::error(404, "no such job").write_to(&mut stream);
            return;
        }
    };
    // Raw header block: the body length is unknown up front, so the
    // usual content-length framing cannot apply; Connection: close
    // delimits the stream instead.
    {
        use std::io::Write;
        if stream
            .write_all(
                b"HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\nconnection: close\r\n\r\n",
            )
            .is_err()
        {
            return;
        }
    }
    let mut next_seq = 0u64;
    let mut reported_drop = false;
    let mut last_points: Option<u64> = None;
    let mut last_write = std::time::Instant::now();
    loop {
        let mut wrote = false;
        let (events, dropped) = job.events_since(next_seq);
        if dropped > 0 && !reported_drop {
            // The bounded backlog already discarded old transitions;
            // tell the client its replay is incomplete.
            reported_drop = true;
            let mut o = json::Obj::new();
            o.str("event", "truncated").u64("dropped", dropped);
            if write_ndjson_line(&mut stream, &o.finish()).is_err() {
                return;
            }
            wrote = true;
        }
        for e in &events {
            next_seq = e.seq + 1;
            let mut o = json::Obj::new();
            o.u64("seq", e.seq)
                .str("event", "state")
                .str("state", e.state)
                .u64("points_done", e.points_done);
            if write_ndjson_line(&mut stream, &o.finish()).is_err() {
                return;
            }
            last_points = Some(e.points_done);
            wrote = true;
        }
        if job.state().terminal() {
            // One final drain: the terminal transition may have been
            // logged after the read above.
            for e in job.events_since(next_seq).0 {
                let mut o = json::Obj::new();
                o.u64("seq", e.seq)
                    .str("event", "state")
                    .str("state", e.state)
                    .u64("points_done", e.points_done);
                if write_ndjson_line(&mut stream, &o.finish()).is_err() {
                    return;
                }
            }
            return;
        }
        let points = job.points_done() as u64;
        if last_points.is_some_and(|p| p != points) {
            let mut o = json::Obj::new();
            o.str("event", "progress")
                .str("state", job.state().name())
                .u64("points_done", points);
            if write_ndjson_line(&mut stream, &o.finish()).is_err() {
                return;
            }
            wrote = true;
        }
        if last_points.is_none() || wrote {
            last_points = Some(points);
        }
        if wrote {
            last_write = std::time::Instant::now();
        } else if last_write.elapsed() >= EVENTS_HEARTBEAT {
            if write_ndjson_line(&mut stream, "{\"event\":\"heartbeat\"}").is_err() {
                return;
            }
            last_write = std::time::Instant::now();
        }
        if reg.stopping() {
            return;
        }
        std::thread::sleep(EVENTS_POLL);
    }
}

/// Dispatch one parsed request. Pure routing — every effect lives in the
/// registry — so the full surface is testable without sockets.
pub fn route(reg: &Arc<Registry>, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => {
            let mut o = json::Obj::new();
            o.str("status", "ok")
                .str("version", env!("CARGO_PKG_VERSION"))
                .u64("uptime_secs", reg.uptime_secs())
                .u64("queue", reg.queue_len() as u64)
                .bool("stopping", reg.stopping());
            let mut jobs = json::Obj::new();
            for (name, n) in reg.jobs_by_state() {
                jobs.u64(name, n);
            }
            o.raw("jobs", &jobs.finish());
            Response::json(200, o.finish())
        }
        (Method::Get, ["metrics"]) => {
            // Content negotiation: a Prometheus scraper asks for
            // text/plain (or OpenMetrics); everything else keeps the
            // `memsim-obs/1` JSON existing tooling parses.
            let accept = req.header("accept").unwrap_or("");
            if accept.contains("text/plain") || accept.contains("openmetrics") {
                Response {
                    status: 200,
                    content_type: memsim_obs::PROMETHEUS_CONTENT_TYPE,
                    body: memsim_obs::prometheus_text(memsim_obs::global()).into_bytes(),
                    retry_after: None,
                }
            } else {
                let manifest = [("component", "memsim-server".to_string())];
                Response::json(200, memsim_obs::export_global(&manifest))
            }
        }
        (Method::Post, ["jobs"]) => match jobs::parse_spec_bytes(&req.body) {
            Err(msg) => Response::error(400, &msg),
            Ok(spec) => match reg.submit(spec) {
                Ok(job) => {
                    let mut o = json::Obj::new();
                    o.str("id", &job.id).str("state", job.state().name());
                    Response::json(202, o.finish())
                }
                Err(SubmitError::Full) => {
                    let mut r = Response::error(503, "job queue full");
                    // hint from the backlog: queue depth × observed mean
                    // drain time, floored at 1 s and capped at 60 s
                    r.retry_after = Some(reg.retry_after_secs() as u32);
                    r
                }
                Err(SubmitError::Bad(msg)) => Response::error(400, &msg),
            },
        },
        (Method::Get, ["jobs", id]) => match reg.get(id) {
            Some(job) => Response::json(200, job.status_json()),
            None => Response::error(404, "no such job"),
        },
        (Method::Get, ["jobs", id, "result"]) => match reg.get(id) {
            None => Response::error(404, "no such job"),
            Some(job) => match job.state() {
                JobState::Done => match std::fs::read(job.result_path()) {
                    Ok(bytes) => Response {
                        status: 200,
                        content_type: "application/json",
                        body: bytes,
                        retry_after: None,
                    },
                    Err(e) => Response::error(500, &format!("result unreadable: {e}")),
                },
                state => Response::error(409, &format!("job is {}", state.name())),
            },
        },
        (Method::Delete, ["jobs", id]) => match reg.get(id) {
            None => Response::error(404, "no such job"),
            Some(job) => {
                let outcome = reg.cancel(&job);
                let mut o = json::Obj::new();
                o.str("id", &job.id);
                match outcome {
                    CancelOutcome::Cancelled => o.str("state", "cancelled"),
                    CancelOutcome::Cancelling => o.str("state", "cancelling"),
                    CancelOutcome::AlreadyTerminal(s) => o.str("state", s.name()),
                };
                Response::json(200, o.finish())
            }
        },
        (Method::Get, _) => Response::error(404, "no such route"),
        // Known tree, wrong verb: answer 405 so clients learn the surface.
        (_, ["jobs", ..]) | (_, ["healthz"]) | (_, ["metrics"]) => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "no such route"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use http::HttpError;

    fn test_registry(tag: &str) -> (Arc<Registry>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("memsim-route-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (reg, _) = Registry::open(&dir, 2).unwrap();
        (reg, dir)
    }

    fn req(method: Method, path: &str, body: &[u8]) -> Request {
        Request {
            method,
            path: path.to_string(),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    #[test]
    fn routes_health_metrics_and_404s() {
        let (reg, dir) = test_registry("health");
        assert_eq!(route(&reg, &req(Method::Get, "/healthz", b"")).status, 200);
        let m = route(&reg, &req(Method::Get, "/metrics", b""));
        assert_eq!(m.status, 200);
        assert!(String::from_utf8(m.body).unwrap().contains("memsim-obs/1"));
        assert_eq!(route(&reg, &req(Method::Get, "/nope", b"")).status, 404);
        assert_eq!(
            route(&reg, &req(Method::Delete, "/healthz", b"")).status,
            405
        );
        assert_eq!(route(&reg, &req(Method::Post, "/metrics", b"")).status, 405);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_poll_cancel_flow() {
        let (reg, dir) = test_registry("flow");
        let r = route(
            &reg,
            &req(
                Method::Post,
                "/jobs",
                br#"{"artifact":"table4","workloads":"hash"}"#,
            ),
        );
        assert_eq!(r.status, 202);
        let body = String::from_utf8(r.body).unwrap();
        let v = memsim_core::jsontext::parse_json(&body).unwrap();
        let id = v.as_obj().unwrap()["id"].as_str().unwrap().to_string();

        let s = route(&reg, &req(Method::Get, &format!("/jobs/{id}"), b""));
        assert_eq!(s.status, 200);
        assert!(String::from_utf8(s.body).unwrap().contains("\"queued\""));

        // Result before completion: 409.
        let res = route(&reg, &req(Method::Get, &format!("/jobs/{id}/result"), b""));
        assert_eq!(res.status, 409);

        let c = route(&reg, &req(Method::Delete, &format!("/jobs/{id}"), b""));
        assert_eq!(c.status, 200);
        assert!(String::from_utf8(c.body).unwrap().contains("cancelled"));

        assert_eq!(
            route(&reg, &req(Method::Get, "/jobs/jX-absent", b"")).status,
            404
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_rejects_bad_specs_and_full_queue() {
        let (reg, dir) = test_registry("reject");
        assert_eq!(
            route(&reg, &req(Method::Post, "/jobs", b"not json")).status,
            400
        );
        assert_eq!(
            route(
                &reg,
                &req(Method::Post, "/jobs", br#"{"artifact":"bogus"}"#)
            )
            .status,
            400
        );
        let body = br#"{"artifact":"table4","workloads":"hash"}"#;
        assert_eq!(route(&reg, &req(Method::Post, "/jobs", body)).status, 202);
        assert_eq!(route(&reg, &req(Method::Post, "/jobs", body)).status, 202);
        let full = route(&reg, &req(Method::Post, "/jobs", body));
        assert_eq!(full.status, 503);
        // no job has drained yet, so the hint assumes 1 s per queued job:
        // two queued jobs → retry after 2 s (never the old hardcoded 1)
        assert_eq!(full.retry_after, Some(reg.retry_after_secs() as u32));
        assert_eq!(full.retry_after, Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_error_responses_cover_the_table() {
        assert_eq!(HttpError::Timeout.response().unwrap().status, 408);
        assert_eq!(HttpError::PayloadTooLarge.response().unwrap().status, 413);
        assert_eq!(HttpError::UriTooLong.response().unwrap().status, 414);
        assert_eq!(HttpError::HeadersTooLarge.response().unwrap().status, 431);
        assert_eq!(HttpError::MethodNotAllowed.response().unwrap().status, 405);
        assert!(HttpError::Closed.response().is_none());
    }
}
