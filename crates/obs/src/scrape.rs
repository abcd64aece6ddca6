//! The live scrape endpoint: a tiny hand-rolled HTTP/1.1 responder (no
//! external dependencies, `std::net` only) serving the latest published
//! metrics at `/metrics` and reassembled traces at `/trace?id=N`.
//!
//! The server thread never touches live runtime state: producers render
//! their [`crate::registry::MetricsRegistry`] whenever convenient (each
//! phase barrier, each timeline minute) and publish the text into the
//! shared [`ScrapeState`]; the responder just copies the latest snapshot
//! out.  That keeps the scrape path trivially lock-ordered and the
//! runtime hot paths free of synchronisation.

use crate::trace::{assemble, order_chain, TraceEvent};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What the responder serves: the latest rendered metrics snapshot and
/// the trace events published so far.
#[derive(Debug, Default)]
pub struct ScrapeState {
    metrics: Mutex<String>,
    traces: Mutex<BTreeMap<u64, Vec<TraceEvent>>>,
}

impl ScrapeState {
    /// An empty state.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Replaces the published `/metrics` body.
    pub fn publish_metrics(&self, text: String) {
        *self.metrics.lock().unwrap() = text;
    }

    /// The currently published metrics text.
    pub fn metrics(&self) -> String {
        self.metrics.lock().unwrap().clone()
    }

    /// Adds trace events to the published set (grouped by trace ID).
    pub fn publish_trace_events(&self, events: &[TraceEvent]) {
        let mut traces = self.traces.lock().unwrap();
        for (id, mut chain) in assemble(events) {
            traces.entry(id).or_default().append(&mut chain);
        }
    }

    /// The reassembled chain of one trace as JSONL (`None` if unknown).
    pub fn trace_jsonl(&self, id: u64) -> Option<String> {
        let traces = self.traces.lock().unwrap();
        let chain = traces.get(&id)?;
        let mut ordered = chain.clone();
        order_chain(&mut ordered);
        Some(
            ordered
                .iter()
                .map(|e| e.to_json() + "\n")
                .collect::<String>(),
        )
    }

    /// All published trace IDs.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.traces.lock().unwrap().keys().copied().collect()
    }
}

/// A running scrape responder; shuts down on [`ScrapeServer::shutdown`]
/// or drop.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ScrapeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScrapeServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ScrapeServer {
    /// Binds `addr` (port 0 picks a free port) and starts the responder
    /// thread serving `state`.
    pub fn serve(addr: SocketAddr, state: Arc<ScrapeState>) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("pgrid-scrape".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let _ = respond(stream, &state);
                    }
                }
            })?;
        Ok(ScrapeServer {
            addr: bound,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the responder thread and waits for it.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop with one throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Reads one request head (capped) and writes the matching response.
fn respond(mut stream: TcpStream, state: &ScrapeState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 4096 {
            break;
        }
    }
    stream.write_all(&response(&head, state))?;
    stream.flush()
}

/// The whole HTTP response — status line, headers and body — to a request
/// `head` of arbitrary bytes.  A `GET` of `/metrics`, `/trace[?id=N]` or
/// `/healthz` is answered from `state`; anything else is a 404.  Never
/// panics, and `Content-Length` is always the body's length in bytes.
pub fn response(head: &[u8], state: &ScrapeState) -> Vec<u8> {
    let request = String::from_utf8_lossy(head);
    let target = request
        .lines()
        .next()
        .and_then(|line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("GET"), Some(path)) => Some(path),
                _ => None,
            }
        })
        .unwrap_or_default();

    let (status, content_type, body) = route(target, state);
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body.as_bytes());
    response
}

fn route(target: &str, state: &ScrapeState) -> (&'static str, &'static str, String) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            state.metrics(),
        ),
        "/trace" => {
            let id = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("id="))
                .and_then(|v| v.parse::<u64>().ok());
            match id {
                Some(id) => match state.trace_jsonl(id) {
                    Some(jsonl) => ("200 OK", "application/json", jsonl),
                    None => (
                        "404 Not Found",
                        "text/plain; charset=utf-8",
                        format!("unknown trace id {id}\n"),
                    ),
                },
                None => {
                    let ids = state
                        .trace_ids()
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(", ");
                    (
                        "200 OK",
                        "application/json",
                        format!("{{\"trace_ids\": [{ids}]}}\n"),
                    )
                }
            }
        }
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    }
}

/// Issues one blocking `GET path` against `addr` and returns the body —
/// the client half the cluster e2e test and the coordinator's worker
/// probes use (not a general HTTP client).
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: pgrid\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        Some((head, _)) => Err(std::io::Error::other(format!(
            "scrape failed: {}",
            head.lines().next().unwrap_or("")
        ))),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "malformed HTTP response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_trace_and_404() {
        let state = ScrapeState::new();
        state.publish_metrics("pgrid_up 1\n".to_string());
        state.publish_trace_events(&[TraceEvent {
            trace_id: 7,
            kind: "query_issued",
            peer: 1,
            virtual_ms: 10,
            wall_micros: 20,
            detail: "key=5".to_string(),
        }]);
        let server = ScrapeServer::serve("127.0.0.1:0".parse().unwrap(), Arc::clone(&state))
            .expect("bind scrape server");
        let addr = server.addr();

        let metrics = http_get(addr, "/metrics").unwrap();
        assert_eq!(metrics, "pgrid_up 1\n");

        let trace = http_get(addr, "/trace?id=7").unwrap();
        assert!(trace.contains("\"kind\": \"query_issued\""));

        let ids = http_get(addr, "/trace").unwrap();
        assert!(ids.contains("[7]"));

        assert!(http_get(addr, "/trace?id=99").is_err());
        assert!(http_get(addr, "/nope").is_err());
        assert_eq!(http_get(addr, "/healthz").unwrap(), "ok\n");

        server.shutdown();
    }

    #[test]
    fn publishing_updates_the_served_snapshot() {
        let state = ScrapeState::new();
        let server =
            ScrapeServer::serve("127.0.0.1:0".parse().unwrap(), Arc::clone(&state)).unwrap();
        state.publish_metrics("a 1\n".to_string());
        assert_eq!(http_get(server.addr(), "/metrics").unwrap(), "a 1\n");
        state.publish_metrics("a 2\n".to_string());
        assert_eq!(http_get(server.addr(), "/metrics").unwrap(), "a 2\n");
        server.shutdown();
    }
}
