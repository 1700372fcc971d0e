//! A tiny blocking HTTP/1.1 client for tests, the CLI, and the
//! loadtest harness.
//!
//! Two shapes:
//!
//! * the free functions ([`request`], [`get`], [`post_json`]) open one
//!   connection per request, mirroring the server's default
//!   `Connection: close` policy — right for one-shot probes;
//! * [`Connection`] holds a keep-alive stream open across requests
//!   (batch appends, the router front's upstream pool). It counts its
//!   TCP connects ([`Connection::connects`]) so tests can assert reuse,
//!   transparently reconnects when a reused stream turns out to be
//!   stale (the server idle-closes at its request timeout), and offers
//!   [`Connection::post_json_retry`] — bounded retry honoring the
//!   server's `503` + `Retry-After` backpressure.
//!
//! Not a general client — just enough to exercise the endpoints
//! without external tooling.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded response: status code and body bytes.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers (lower-cased names).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Send one request and read the full response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> std::io::Result<ClientResponse> {
    let mut stream = dial(addr, Duration::from_secs(30))?;
    // A server shedding load may answer (e.g. 503) and close before it
    // reads the request; don't let that write failure mask the response.
    let sent = stream.write_all(&encode(method, path, body.unwrap_or(&[]), &[]));
    let mut raw = Vec::new();
    let received = stream.read_to_end(&mut raw);
    if raw.is_empty() {
        // Nothing came back: surface whichever side failed first.
        sent?;
        received?;
    }
    parse_response(raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response"))
}

/// Open a stream to `addr` with the client's timeouts and `TCP_NODELAY`.
/// Every request leaves in one write ([`encode`]), so Nagle's algorithm
/// has nothing to coalesce; left on, it would hold a request's tail
/// until the server's delayed ACK (≈ 40 ms on Linux).
fn dial(addr: SocketAddr, read_timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One request as the bytes of one write: head, `headers` (name, value),
/// then `body`.
fn encode(method: &str, path: &str, body: &[u8], headers: &[(&str, &str)]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: exq\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend_from_slice(body);
    out
}

/// `GET` helper.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", path, None)
}

/// `POST` helper with a JSON body.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<ClientResponse> {
    request(addr, "POST", path, Some(body.as_bytes()))
}

/// A persistent keep-alive connection to one server.
///
/// Requests carry `Connection: keep-alive`, so the server leaves the
/// stream open and the next request skips the TCP handshake (and, on
/// the server side, the accept queue). Responses are framed by
/// `content-length`; a response announcing `connection: close` drops
/// the stream so the next request reconnects.
///
/// Staleness: a server closes idle keep-alive connections at its
/// request timeout, which can race a request being written. When a
/// request on a *reused* stream fails with **zero response bytes**
/// received, the server cannot have started answering it — so the
/// client reconnects and resends once, transparently. Failures on a
/// fresh connection, or after response bytes arrived, propagate.
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    connects: u64,
    read_timeout: Duration,
}

impl Connection {
    /// A connection handle to `addr`; nothing is dialed until the first
    /// request.
    pub fn new(addr: SocketAddr) -> Connection {
        Connection {
            addr,
            stream: None,
            connects: 0,
            read_timeout: Duration::from_secs(30),
        }
    }

    /// Override the per-response read timeout (default 30s).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Connection {
        self.read_timeout = timeout;
        self
    }

    /// How many TCP connections this handle has opened — 1 for any
    /// number of requests against a healthy keep-alive server.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Send one request over the held stream (dialing or re-dialing as
    /// needed) and read the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<ClientResponse> {
        self.request_with(method, path, body, &[])
    }

    /// [`Connection::request`] with extra request headers (name, value).
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        let mut all = Vec::with_capacity(headers.len() + 1);
        all.push(("connection", "keep-alive"));
        all.extend_from_slice(headers);
        let request = encode(method, path, body.unwrap_or(&[]), &all);
        let reused = self.stream.is_some();
        match self.try_once(&request) {
            Ok(response) => Ok(response),
            Err((error, received)) => {
                self.stream = None;
                if reused && received == 0 {
                    // Stale keep-alive stream: reconnect and resend.
                    self.try_once(&request).map_err(|(e, _)| e)
                } else {
                    Err(error)
                }
            }
        }
    }

    /// `GET` over the held stream.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST` a JSON body over the held stream.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    /// `POST` with bounded retry on `503`: sleeps for the server's
    /// `Retry-After` (seconds, capped at 5s; exponential backoff from
    /// 50ms when absent) and resends, up to `max_retries` retries. The
    /// final response is returned either way — callers inspect
    /// `status` to tell recovery from exhaustion. Non-503 responses
    /// and transport errors end the loop immediately.
    pub fn post_json_retry(
        &mut self,
        path: &str,
        body: &str,
        max_retries: u32,
    ) -> std::io::Result<ClientResponse> {
        let mut backoff = Duration::from_millis(50);
        let mut attempt = 0u32;
        loop {
            let response = self.post_json(path, body)?;
            if response.status != 503 || attempt >= max_retries {
                return Ok(response);
            }
            let wait = response
                .header("retry-after")
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_secs)
                .unwrap_or(backoff)
                .min(Duration::from_secs(5));
            std::thread::sleep(wait);
            backoff = (backoff * 2).min(Duration::from_secs(1));
            attempt += 1;
        }
    }

    /// One send/receive over the current stream (dialing if absent).
    /// Errors carry how many response bytes had arrived, so the caller
    /// can tell a stale idle-closed stream (zero) from a mid-response
    /// failure.
    fn try_once(&mut self, request: &[u8]) -> Result<ClientResponse, (std::io::Error, usize)> {
        if self.stream.is_none() {
            let stream = dial(self.addr, self.read_timeout).map_err(|e| (e, 0))?;
            self.connects += 1;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("stream just ensured");
        // As in `request`: a shedding server may answer and close before
        // reading everything we wrote, so don't let the write error mask
        // a response that did arrive.
        let sent = stream.write_all(request);
        let mut raw = Vec::new();
        let received = read_framed(stream, &mut raw);
        if let Err(error) = received {
            return Err((error, raw.len()));
        }
        if raw.is_empty() {
            if let Err(error) = sent {
                return Err((error, 0));
            }
            return Err((
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed"),
                0,
            ));
        }
        sent.map_err(|e| (e, raw.len()))?;
        let received = raw.len();
        let response = parse_response(raw).ok_or_else(|| {
            (
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response"),
                received,
            )
        })?;
        let keep = response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
        if !keep {
            self.stream = None;
        }
        Ok(response)
    }
}

/// Read one `content-length`-framed response into `raw`. Responses
/// without a `content-length` header are read to EOF (close-mode
/// framing). Once the head is in, `raw` grows once to the announced
/// length (up to [`PRESIZE_MAX`]), not in 4 KiB steps.
fn read_framed(stream: &mut TcpStream, raw: &mut Vec<u8>) -> std::io::Result<()> {
    let mut chunk = [0u8; 4096];
    let mut framed = None;
    loop {
        if framed.is_none() {
            if let Some(head_end) = head_end(raw) {
                framed = content_length(&raw[..head_end]).map(|len| {
                    let total = head_end.saturating_add(len);
                    // The length comes off the wire: presize up to a bound
                    // and let a larger body grow as it arrives.
                    raw.reserve_exact(total.min(PRESIZE_MAX).saturating_sub(raw.len()));
                    total
                });
            }
        }
        if let Some(total) = framed.filter(|&total| raw.len() >= total) {
            raw.truncate(total);
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
}

/// The most [`read_framed`] reserves ahead of the bytes it has read.
const PRESIZE_MAX: usize = 16 << 20;

/// The length of the head, blank line included, once it has arrived.
fn head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

fn content_length(head: &[u8]) -> Option<usize> {
    let head = std::str::from_utf8(head).ok()?;
    head.split("\r\n").find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })
}

/// Split `raw` into status, headers and body. The body is `raw` itself
/// with the head drained off the front.
fn parse_response(mut raw: Vec<u8>) -> Option<ClientResponse> {
    let head_end = head_end(&raw)?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    raw.drain(..head_end);
    Some(ClientResponse {
        status,
        headers,
        body: raw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_request, Limits, Response};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    /// What a [`stub`] saw: connections accepted, requests answered, and
    /// per request the time from its first byte arriving to its last.
    struct Stub {
        addr: SocketAddr,
        conns: Arc<AtomicUsize>,
        served: Arc<AtomicUsize>,
        arrivals: Arc<Mutex<Vec<Duration>>>,
    }

    /// A minimal keep-alive-capable stub server. Accepts connections
    /// sequentially, answers each request with `handler(request_index)`,
    /// and closes after a `503` (mirroring the real server's
    /// load-shedding path). With `lie_and_close`, it *claims*
    /// `keep-alive` but closes the stream after every response —
    /// simulating the server idle-closing a connection between
    /// requests, the race [`Connection`] must absorb.
    #[expect(clippy::disallowed_methods, reason = "times the Nagle test")]
    fn stub(lie_and_close: bool, handler: impl Fn(usize) -> Response + Send + 'static) -> Stub {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stub = Stub {
            addr: listener.local_addr().unwrap(),
            conns: Arc::new(AtomicUsize::new(0)),
            served: Arc::new(AtomicUsize::new(0)),
            arrivals: Arc::new(Mutex::new(Vec::new())),
        };
        let conns = Arc::clone(&stub.conns);
        let served = Arc::clone(&stub.served);
        let arrivals = Arc::clone(&stub.arrivals);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                conns.fetch_add(1, Ordering::SeqCst);
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                loop {
                    let mut first_byte = None;
                    let request = loop {
                        match parse_request(&buf, &Limits::default()) {
                            Ok(Some((request, consumed))) => {
                                buf.drain(..consumed);
                                let whole =
                                    first_byte.map_or(Duration::ZERO, |t: Instant| t.elapsed());
                                arrivals.lock().unwrap().push(whole);
                                break Some(request);
                            }
                            Ok(None) => {}
                            Err(_) => break None,
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => break None,
                            Ok(n) => {
                                first_byte.get_or_insert_with(Instant::now);
                                buf.extend_from_slice(&chunk[..n]);
                            }
                        }
                    };
                    let Some(request) = request else { break };
                    let asked = request
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
                    let response = handler(served.fetch_add(1, Ordering::SeqCst));
                    let keep = asked && response.status != 503 && !lie_and_close;
                    let claim = asked && response.status != 503;
                    if stream.write_all(&response.to_bytes_with(claim)).is_err() {
                        break;
                    }
                    if !keep {
                        break;
                    }
                }
            }
        });
        stub
    }

    #[test]
    fn requests_arrive_whole_without_a_nagle_stall() {
        // Head and body in two writes on a Nagle socket make the server
        // wait for the body until its delayed ACK fires (≥ 40 ms) on every
        // request after a connection's first.
        let stub = stub(false, |_| Response::json(200, "{}\n"));
        let body = format!("{{\"question\": \"{}\"}}", "x".repeat(200));
        let mut conn = Connection::new(stub.addr);
        for _ in 0..10 {
            assert_eq!(conn.post_json("/v1/explain", &body).unwrap().status, 200);
        }
        drop(conn); // the stub serves one connection at a time
        for _ in 0..3 {
            assert_eq!(
                post_json(stub.addr, "/v1/explain", &body).unwrap().status,
                200
            );
        }
        let arrivals = stub.arrivals.lock().unwrap().clone();
        assert_eq!(arrivals.len(), 13);
        for (i, whole) in arrivals.iter().enumerate() {
            assert!(
                *whole < Duration::from_millis(20),
                "request {i} took {whole:?} from first to last byte: {arrivals:?}"
            );
        }
    }

    #[test]
    fn keep_alive_reuses_one_connection_across_requests() {
        let stub = stub(false, |_| Response::json(200, "{\"ok\": true}\n"));
        let mut conn = Connection::new(stub.addr);
        for _ in 0..3 {
            let response = conn.post_json("/v1/explain", "{}").unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.text(), "{\"ok\": true}\n");
        }
        assert_eq!(conn.connects(), 1, "client must reuse its stream");
        assert_eq!(
            stub.conns.load(Ordering::SeqCst),
            1,
            "server saw one connection"
        );
        assert_eq!(stub.served.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retry_honors_retry_after_and_recovers() {
        let stub = stub(false, |i| {
            if i == 0 {
                Response::error(503, "busy").with_header("retry-after", "0")
            } else {
                Response::json(200, "{\"epoch\": 1}\n")
            }
        });
        let mut conn = Connection::new(stub.addr);
        let response = conn
            .post_json_retry("/v1/datasets/d/rows", "{}", 3)
            .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(
            stub.served.load(Ordering::SeqCst),
            2,
            "one 503, one success"
        );
    }

    #[test]
    fn retry_is_bounded_and_surfaces_the_final_503() {
        let stub = stub(false, |_| {
            Response::error(503, "busy").with_header("retry-after", "0")
        });
        let mut conn = Connection::new(stub.addr);
        let response = conn
            .post_json_retry("/v1/datasets/d/rows", "{}", 2)
            .unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(
            stub.served.load(Ordering::SeqCst),
            3,
            "initial attempt plus exactly max_retries retries"
        );
    }

    #[test]
    fn stale_keep_alive_stream_is_transparently_redialed() {
        let stub = stub(true, |_| Response::json(200, "{}"));
        let mut conn = Connection::new(stub.addr);
        assert_eq!(conn.get("/healthz").unwrap().status, 200);
        // The stub closed the stream after responding; the next request
        // hits EOF with zero response bytes and must resend on a fresh
        // connection rather than erroring.
        assert_eq!(conn.get("/healthz").unwrap().status, 200);
        assert_eq!(conn.connects(), 2);
        assert_eq!(stub.conns.load(Ordering::SeqCst), 2);
        assert_eq!(stub.served.load(Ordering::SeqCst), 2);
    }
}
