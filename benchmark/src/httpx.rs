//! The HTTP side of the benchmark: the closed-loop clients, the three
//! ways of holding a connection, and the check of every response against
//! reference digests.

use crate::harness::{ms_since, Class, Done, Tally};
use crate::spans::Recorder;
use exq_serve::client::{self, ClientResponse, Connection};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients per HTTP workload: each waits for its reply
/// before sending the next request. 2 = cores of the reference box.
pub const CLIENTS: usize = 2;

/// One request of a cycle's schedule.
#[derive(Debug, Clone)]
pub struct Req {
    pub path: String,
    pub body: String,
    /// Row of the reference table this request's answer is checked in.
    pub slot: usize,
    /// For appends: position in the cycle's global append order. Appends
    /// are acknowledged in this order, so a dataset's epoch names its
    /// contents and every answer can be checked whatever the interleaving
    /// of the two clients.
    pub append_order: Option<usize>,
}

/// Reference digests: `(slot, epoch) -> digest of the scrubbed body`.
pub type Table = BTreeMap<(usize, u64), u64>;

/// How a client holds its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `serve::client::Connection`: keep-alive, what the CLI batch client
    /// and the front's upstream pool use.
    KeepAlive,
    /// `serve::client::post_json`: a new connection per request, what a
    /// one-shot CLI call or curl does.
    Fresh,
    /// The benchmark's own keep-alive client: head and body in one write,
    /// `TCP_NODELAY` set. Separates delay the client causes from delay the
    /// server causes.
    OneWrite,
}

/// A client's connection, dialled when first needed and again whenever
/// the next request goes to another address.
struct Conn {
    via: Via,
    held: Option<(SocketAddr, Held)>,
}

enum Held {
    KeepAlive(Connection),
    OneWrite(OneWrite),
}

impl Conn {
    fn post(
        &mut self,
        addr: SocketAddr,
        path: &str,
        body: &str,
    ) -> std::io::Result<ClientResponse> {
        if self.via == Via::Fresh {
            return client::post_json(addr, path, body);
        }
        if self.held.as_ref().is_none_or(|(at, _)| *at != addr) {
            let held = match self.via {
                Via::OneWrite => Held::OneWrite(OneWrite { addr, stream: None }),
                _ => Held::KeepAlive(Connection::new(addr)),
            };
            self.held = Some((addr, held));
        }
        match &mut self.held.as_mut().expect("just dialled").1 {
            Held::KeepAlive(c) => c.post_json(path, body),
            Held::OneWrite(c) => c.post(path, body),
        }
    }
}

struct OneWrite {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl OneWrite {
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        let stream = match &mut self.stream {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                self.stream.insert(stream)
            }
        };
        let request = format!(
            "POST {path} HTTP/1.1\r\nhost: exq\r\nconnection: keep-alive\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        let (head_end, length) = loop {
            if let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&raw[..at]).map_err(|_| bad("head is not UTF-8"))?;
                let length = head
                    .split("\r\n")
                    .filter_map(|l| l.split_once(':'))
                    .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .ok_or_else(|| bad("no content-length"))?;
                break (at + 4, length);
            }
            match stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed mid-head")),
                n => raw.extend_from_slice(&chunk[..n]),
            }
        };
        while raw.len() < head_end + length {
            match stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed mid-body")),
                n => raw.extend_from_slice(&chunk[..n]),
            }
        }
        let head = String::from_utf8_lossy(&raw[..head_end - 4]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        Ok(ClientResponse {
            status,
            headers,
            body: raw[head_end..head_end + length].to_vec(),
        })
    }
}

/// A field of the `X-Exq-Cost` header (`rows=..;cache=hit;epoch=3`).
fn cost_field<'a>(response: &'a ClientResponse, key: &str) -> Option<&'a str> {
    response
        .header("x-exq-cost")?
        .split(';')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Digest of an explain response and the epoch it was answered at, if it
/// is a 200 carrying a cost header.
pub fn explain_digest(response: &ClientResponse) -> Option<(u64, u64)> {
    if response.status != 200 {
        return None;
    }
    let epoch = cost_field(response, "epoch")?.parse().ok()?;
    Some((crate::digest::of_scrubbed_body(&response.body), epoch))
}

/// Class and digest of one response. Hit or miss is read from the
/// server's own `X-Exq-Cost`, never guessed; an explain answer must equal
/// the reference digest for its slot at the epoch it was answered at
/// (side measurements pass no table and check status and class only).
fn check(
    req: &Req,
    response: std::io::Result<ClientResponse>,
    ms: f64,
    table: Option<&Table>,
) -> Done {
    let failed = |class| Done {
        class,
        ms,
        digest: None,
        fell_back: false,
    };
    let Ok(response) = response else {
        return failed(Class::Explain);
    };
    if let Some(order) = req.append_order {
        let acknowledged = response.status == 200
            && response.header("x-exq-epoch") == Some((order + 1).to_string().as_str());
        return Done {
            class: Class::Append,
            ms,
            digest: acknowledged.then(|| crate::digest::of_bytes(&response.body)),
            fell_back: false,
        };
    }
    let class = match cost_field(&response, "cache") {
        Some("hit") => Class::Hit,
        _ => Class::Explain,
    };
    let digest = explain_digest(&response)
        .filter(|(digest, epoch)| table.is_none_or(|t| t.get(&(req.slot, *epoch)) == Some(digest)))
        .map(|(digest, _)| digest);
    Done {
        class,
        ms,
        digest,
        fell_back: false,
    }
}

/// Whose turn it is among a cycle's appends.
struct Turn {
    next: Mutex<usize>,
    moved: Condvar,
}

/// One cycle: every client replays its list over its own connection,
/// each request to the address `addr_of` gives it, all starting together,
/// each stopping when `budget_s` of wall time is spent. Returns the tally
/// (timed over the cycle's wall time) and each client's spans.
pub fn cycle(
    addr_of: impl Fn(&Req) -> SocketAddr + Sync,
    lists: &[Vec<Req>],
    via: Via,
    budget_s: f64,
    table: Option<&Table>,
    trace: Option<Instant>,
) -> (Tally, Vec<Recorder>) {
    let start_line = Barrier::new(lists.len() + 1);
    let turn = Turn {
        next: Mutex::new(0),
        moved: Condvar::new(),
    };
    let mut tally = Tally::default();
    let mut recorders = Vec::new();
    let started = std::thread::scope(|scope| {
        let clients: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let (start_line, turn, addr_of) = (&start_line, &turn, &addr_of);
                scope.spawn(move || {
                    let mut rec = Recorder::new(
                        trace.unwrap_or_else(Instant::now),
                        trace.is_some(),
                        c as u32,
                    );
                    let mut mine = Tally::default();
                    let mut conn = Conn { via, held: None };
                    start_line.wait();
                    let started = Instant::now();
                    let spent = || started.elapsed().as_secs_f64();
                    'requests: for req in list {
                        if let Some(order) = req.append_order {
                            let mut next = turn.next.lock().expect("turn lock");
                            while *next != order {
                                if spent() >= budget_s {
                                    break 'requests;
                                }
                                (next, _) = turn
                                    .moved
                                    .wait_timeout(next, Duration::from_millis(5))
                                    .expect("turn lock");
                            }
                        }
                        if spent() >= budget_s {
                            break;
                        }
                        let op_id = rec.next_op();
                        let sent = Instant::now();
                        let span = rec.enter("request", op_id);
                        let response = conn.post(addr_of(req), &req.path, &req.body);
                        rec.exit(span);
                        let done = check(req, response, ms_since(sent), table);
                        if req.append_order.is_some() {
                            *turn.next.lock().expect("turn lock") += 1;
                            turn.moved.notify_all();
                        }
                        let mut expected = done.digest;
                        mine.book(done, &mut expected);
                    }
                    (mine, rec, spent())
                })
            })
            .collect();
        start_line.wait();
        let started = Instant::now();
        for client in clients {
            let (mine, rec, _) = client.join().expect("client thread");
            tally.absorb(&mine);
            recorders.push(rec);
        }
        started
    });
    tally.timed_s = started.elapsed().as_secs_f64();
    tally.cycles = 1;
    (tally, recorders)
}

/// An explain request body.
pub fn explain_body(dataset: &str, question: &str, attrs: &[&str], top: usize) -> String {
    let attrs: Vec<String> = attrs.iter().map(|a| format!("\"{a}\"")).collect();
    format!(
        "{{\"dataset\": \"{dataset}\", \"question\": \"{}\", \"attrs\": [{}], \"top\": {top}}}",
        exq_obs::escape_json(question),
        attrs.join(", ")
    )
}

/// An append batch as the `POST /v1/datasets/{name}/rows` body.
pub fn append_body(batch: &exq_relstore::AppendBatch) -> String {
    use exq_relstore::Value;
    let relations: Vec<String> = batch
        .iter()
        .map(|(rel, rows)| {
            let rows: Vec<String> = rows
                .iter()
                .map(|row| {
                    let cells: Vec<String> = row
                        .iter()
                        .map(|v| match v {
                            Value::Str(s) => format!("\"{}\"", exq_obs::escape_json(s)),
                            other => other.to_string(),
                        })
                        .collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            format!("\"{}\": [{}]", exq_obs::escape_json(rel), rows.join(","))
        })
        .collect();
    format!("{{\"rows\": {{{}}}}}", relations.join(", "))
}
