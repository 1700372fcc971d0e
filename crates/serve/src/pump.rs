//! Shared accept-queue + worker-pool plumbing.
//!
//! Both tiers of the serving stack — the dataset server ([`crate::server`])
//! and the router front (`exq-router`) — move connections the same way:
//! one nonblocking accept thread pushes sockets into a bounded queue,
//! `threads` workers pop and serve them to completion, and a full queue
//! answers an immediate rejection (load shedding) instead of letting
//! latency grow unbounded. This module is that machinery, factored out
//! so the two tiers cannot drift apart; what *serving a connection*
//! means is the caller's closure.

use crate::http::{self, Limits, Request, Response};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Pool sizing and identification.
pub struct PumpOptions {
    /// Worker threads popping the connection queue.
    pub threads: usize,
    /// Queue depth beyond which new connections are rejected.
    pub queue_depth: usize,
    /// Thread-name prefix (`"{prefix}-worker-{i}"`, `"{prefix}-accept"`).
    pub name: &'static str,
}

struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
    shutdown: Arc<AtomicBool>,
    depth: usize,
}

/// A running pump. Trip the shutdown flag, then [`Pump::join`]: the
/// accept thread exits, workers drain the queue and finish in-flight
/// connections.
pub struct Pump {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Pump {
    /// Wake any parked workers and join every thread. The caller must
    /// have stored `true` into the shutdown flag first.
    pub fn join(self) {
        self.shared.cv.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Start the accept thread and worker pool over `listener` (which must
/// already be nonblocking). `on_reject` answers connections shed at a
/// full queue; `serve` owns everything else.
pub fn start(
    listener: TcpListener,
    options: &PumpOptions,
    shutdown: Arc<AtomicBool>,
    on_reject: impl Fn(TcpStream) + Send + Sync + 'static,
    serve: impl Fn(TcpStream) + Send + Sync + 'static,
) -> std::io::Result<Pump> {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        shutdown,
        depth: options.queue_depth,
    });
    let serve = Arc::new(serve);
    let mut threads = Vec::with_capacity(options.threads.max(1) + 1);
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("{}-accept", options.name))
                .spawn(move || accept_loop(&listener, &shared, &on_reject))?,
        );
    }
    for i in 0..options.threads.max(1) {
        let shared = Arc::clone(&shared);
        let serve = Arc::clone(&serve);
        threads.push(
            std::thread::Builder::new()
                .name(format!("{}-worker-{i}", options.name))
                .spawn(move || worker_loop(&shared, &*serve))?,
        );
    }
    Ok(Pump { shared, threads })
}

fn accept_loop(listener: &TcpListener, shared: &Shared, on_reject: &impl Fn(TcpStream)) {
    // Adaptive poll: the listener is nonblocking (so shutdown can
    // interrupt the loop), which makes the nap below a floor on request
    // latency. Poll hot for ~50ms after the last connection so a busy
    // server answers in microseconds, then back off to 5ms when idle.
    let mut idle_polls = 0u32;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                idle_polls = 0;
                // Responses leave in one write each, so Nagle's algorithm
                // could only delay them (behind the peer's delayed ACK).
                let _ = stream.set_nodelay(true);
                let mut queue = shared.queue.lock().expect("conn queue poisoned");
                if queue.len() >= shared.depth {
                    drop(queue);
                    on_reject(stream);
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    shared.cv.notify_one();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                idle_polls = idle_polls.saturating_add(1);
                std::thread::sleep(if idle_polls < 256 {
                    Duration::from_micros(200)
                } else {
                    Duration::from_millis(5)
                });
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(shared: &Shared, serve: &impl Fn(TcpStream)) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("conn queue poisoned");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .expect("conn queue poisoned");
                queue = guard;
            }
        };
        match stream {
            Some(stream) => serve(stream),
            None => return,
        }
    }
}

/// Answer a shed connection with `response` and close it gently: write,
/// half-close, then drain whatever request bytes are in flight so the
/// close is a FIN rather than an RST that races the response off the
/// wire.
pub fn reject(mut stream: TcpStream, response: &Response) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let _ = stream.write_all(&response.to_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 512];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// The standard load-shedding response both tiers send at a full queue:
/// `503` with a 1-second `Retry-After`, which [`crate::client`]'s retry
/// helper and the CLI's append path honor.
pub fn busy_response() -> Response {
    Response::error(503, "server busy; retry shortly").with_header("retry-after", "1")
}

/// Serve requests off one accepted connection until it closes: set the
/// shared timeout discipline (100ms reads so shutdown polls, 5s
/// writes), loop `serve_one` with a pipelining carry buffer until it
/// asks to stop, then shut the socket down both ways. Both serving
/// tiers run their per-request logic inside this one loop so their
/// connection lifecycle cannot drift.
pub fn serve_connection(
    mut stream: TcpStream,
    mut serve_one: impl FnMut(&mut TcpStream, &mut Vec<u8>) -> bool,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut carry = Vec::with_capacity(1024);
    while serve_one(&mut stream, &mut carry) {}
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Accumulate bytes in `carry` until one full request parses, then
/// drain exactly the parsed bytes (anything after them is the start of
/// the next pipelined request and stays for the next call). `Ok(None)`
/// means no request will arrive: the peer closed, the connection sat
/// idle past the deadline, or shutdown began — all with zero buffered
/// bytes, so closing silently is correct. A *partial* request at the
/// deadline is a protocol error (408). Shared by both serving tiers so
/// their connection semantics cannot drift.
pub fn read_request(
    stream: &mut TcpStream,
    limits: &Limits,
    deadline: Instant,
    carry: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> Result<Option<Request>, Response> {
    let mut chunk = [0u8; 4096];
    loop {
        match http::parse_request(carry, limits) {
            Ok(Some((request, consumed))) => {
                carry.drain(..consumed);
                return Ok(Some(request));
            }
            Ok(None) => {}
            Err(e) => return Err(Response::error(e.status(), &e.to_string())),
        }
        if carry.is_empty() && shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        #[expect(clippy::disallowed_methods, reason = "a read deadline, not a result")]
        if Instant::now() >= deadline {
            return if carry.is_empty() {
                Ok(None) // idle connection, not a slow request
            } else {
                Err(Response::error(408, "timed out reading request"))
            };
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if carry.is_empty() {
                    Ok(None)
                } else {
                    Err(Response::error(400, "connection closed mid-request"))
                };
            }
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return Err(Response::error(400, "read error")),
        }
    }
}
