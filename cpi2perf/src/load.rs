//! Open-loop load: a seeded arrival schedule over a few keep-alive
//! connections, with every request timed from its *intended* send time
//! so a stall is charged to every request it delays.
//!
//! The generator uses two threads: a sender that writes each request at
//! its due time (pipelining behind any unanswered ones) and a receiver
//! that polls the connections and frames responses in order.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cpi2::stats::rng::SimRng;
use cpi2_serve::http::{scan_response, ScannedResponse};
use cpi2_serve::poll::{PollSet, IN};

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `GET /healthz`.
    Healthz,
    /// `GET /machines/{id}`.
    Machines,
    /// `GET /metrics`.
    Metrics,
    /// `GET /incidents`.
    Incidents,
    /// `GET /incidents/{id}/trace`.
    Trace,
    /// `POST /query`.
    Query,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 6] = [
        Class::Healthz,
        Class::Machines,
        Class::Metrics,
        Class::Incidents,
        Class::Trace,
        Class::Query,
    ];

    /// The class's metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Class::Healthz => "healthz",
            Class::Machines => "machines",
            Class::Metrics => "metrics",
            Class::Incidents => "incidents",
            Class::Trace => "trace",
            Class::Query => "query",
        }
    }

    /// The class a request path belongs to.
    pub fn of_path(path: &str) -> Class {
        if path.starts_with("/machines/") {
            Class::Machines
        } else if path == "/metrics" {
            Class::Metrics
        } else if path == "/incidents" {
            Class::Incidents
        } else if path.starts_with("/incidents/") {
            Class::Trace
        } else if path == "/query" {
            Class::Query
        } else {
            Class::Healthz
        }
    }
}

/// The mix of every 32 requests.
pub const MIX: [(Class, usize); 6] = [
    (Class::Healthz, 16),
    (Class::Machines, 6),
    (Class::Metrics, 4),
    (Class::Incidents, 2),
    (Class::Trace, 1),
    (Class::Query, 3),
];

/// The forensics queries `POST /query` draws from.
pub const QUERIES: [&str; 4] = [
    "SELECT COUNT(*) FROM incidents",
    "SELECT victim_job, COUNT(*) FROM incidents GROUP BY victim_job",
    "SELECT id, tasks, utilization FROM machines WHERE utilization > 0.5",
    "SELECT jobname, cpi FROM samples WHERE jobname LIKE 'web%'",
];

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Intended send time, ns after the schedule's start.
    pub at_ns: u64,
    /// Request class.
    pub class: Class,
    /// Connection index.
    pub conn: usize,
    /// The request bytes.
    pub bytes: Vec<u8>,
}

/// What a schedule needs to know about the served fleet.
#[derive(Debug, Clone)]
pub struct Targets {
    /// Machine count (ids are `0..machines`).
    pub machines: u32,
    /// Trace ids present in `/incidents` (at least one).
    pub traces: Vec<String>,
}

/// A seeded Poisson arrival schedule at `rate` requests/s for
/// `seconds`, classes drawn as seeded shuffles of [`MIX`], requests
/// spread round-robin over `conns` connections.
pub fn schedule(seed: u64, rate: f64, seconds: f64, conns: usize, t: &Targets) -> Vec<Req> {
    let mut rng = SimRng::new(seed ^ 0x10AD_5EED);
    let horizon_ns = (seconds * 1e9) as u64;
    let mean_gap_ns = 1e9 / rate.max(1e-9);
    let mut block: Vec<Class> = Vec::with_capacity(32);
    let mut out = Vec::new();
    let mut at = 0.0f64;
    loop {
        at += -mean_gap_ns * (1.0 - rng.f64()).ln();
        if at as u64 >= horizon_ns {
            break;
        }
        if block.is_empty() {
            for (class, n) in MIX {
                block.resize(block.len() + n, class);
            }
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let class = block.pop().expect("refilled above");
        let bytes = match class {
            Class::Healthz => get("/healthz"),
            Class::Machines => get(&format!(
                "/machines/{}",
                rng.below(t.machines.max(1) as u64)
            )),
            Class::Metrics => get("/metrics"),
            Class::Incidents => get("/incidents"),
            Class::Trace => {
                let i = rng.below(t.traces.len().max(1) as u64) as usize;
                let id = t.traces.get(i).map(String::as_str).unwrap_or("0");
                get(&format!("/incidents/{id}/trace"))
            }
            Class::Query => {
                let sql = QUERIES[rng.below(QUERIES.len() as u64) as usize];
                format!(
                    "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{sql}",
                    sql.len()
                )
                .into_bytes()
            }
        };
        out.push(Req {
            at_ns: at as u64,
            class,
            conn: out.len() % conns.max(1),
            bytes,
        });
    }
    out
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// What happened to each request of a schedule.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Per request: ns from intended send to the response's last byte
    /// (`None` if unanswered).
    pub latency_ns: Vec<Option<u64>>,
    /// Per unanswered request: how long it had waited when the generator
    /// gave up, ns (a lower bound on its latency; 0 when answered).
    pub unanswered_ns: Vec<u64>,
    /// Per request: response status (0 if unanswered).
    pub status: Vec<u16>,
    /// Per request: how late the sender wrote it, ns.
    pub lag_ns: Vec<u64>,
    /// Connection failures: refused connects, resets, short writes.
    pub io_errors: u64,
    /// Responses that did not frame as HTTP/1.1.
    pub malformed: u64,
    /// Requests still unanswered when the last one was due.
    pub backlog_at_end: usize,
}

impl Outcome {
    /// Requests with no response.
    pub fn unanswered(&self) -> usize {
        self.latency_ns.iter().filter(|l| l.is_none()).count()
    }

    /// Responses with a 5xx status.
    pub fn status_5xx(&self) -> usize {
        self.status.iter().filter(|&&s| s >= 500).count()
    }

    /// Responses with status 503 (refusal).
    pub fn refused_503(&self) -> usize {
        self.status.iter().filter(|&&s| s == 503).count()
    }

    /// Failed requests: 5xx, unanswered, and I/O errors.
    pub fn failed(&self) -> u64 {
        (self.status_5xx() + self.unanswered()) as u64 + self.io_errors + self.malformed
    }

    /// Sorted latencies (ms) of the requests of `class` (`None` = every
    /// class). An unanswered request counts with the time it had waited
    /// when the generator gave up, and a 5xx with the largest latency
    /// seen, so both land in the tail.
    pub fn latencies_ms(&self, reqs: &[Req], class: Option<Class>) -> Vec<f64> {
        let worst = self
            .latency_ns
            .iter()
            .zip(&self.unanswered_ns)
            .map(|(l, &u)| l.unwrap_or(u))
            .max()
            .unwrap_or(0);
        let mut v: Vec<f64> = reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| !matches!(class, Some(c) if c != r.class))
            .map(|(i, _)| {
                let ns = match self.latency_ns[i] {
                    Some(ns) if self.status[i] < 500 => ns,
                    Some(_) => worst,
                    None => self.unanswered_ns[i],
                };
                ns as f64 / 1e6
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Per-connection in-flight FIFO of request indices.
type Fifo = Arc<Mutex<VecDeque<usize>>>;

/// Opens `n` keep-alive connections to `addr`, each served by a
/// different server shard where the server has that many: a connection
/// that shares a shard with an earlier one is replaced (up to `attempts`
/// times). Which shard accepts a connection is otherwise left to chance,
/// and two connections queued on one shard thread halve the capacity a
/// run sees.
pub fn connect_spread(addr: SocketAddr, n: usize, attempts: usize) -> io::Result<Vec<TcpStream>> {
    let mut conns: Vec<TcpStream> = Vec::with_capacity(n);
    while conns.len() < n {
        let mut tries = 0;
        let fresh = loop {
            let mut fresh = TcpStream::connect(addr)?;
            fresh.set_nodelay(true)?;
            tries += 1;
            let mut shared = false;
            for old in conns.iter_mut() {
                shared |= same_shard(old, &mut fresh)?;
            }
            if !shared || tries >= attempts {
                break fresh;
            }
        };
        conns.push(fresh);
    }
    Ok(conns)
}

/// A request that keeps a shard busy for milliseconds.
const SLOW: &[u8] = b"POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: 30\r\n\r\nSELECT COUNT(*) FROM incidents";
/// A request that costs the shard microseconds.
const FAST: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";

/// Whether `old` and `fresh` are served by one shard: a slow request
/// on the older connection and a fast one on the fresh connection are
/// sent together; on one shard the slow response is complete by the
/// time the fast one arrives, on two shards it is not.
fn same_shard(old: &mut TcpStream, fresh: &mut TcpStream) -> io::Result<bool> {
    old.write_all(SLOW)?;
    fresh.write_all(FAST)?;
    read_response(fresh)?;
    let mut polls = PollSet::new();
    polls.push(old.as_raw_fd(), IN);
    let slow_done = polls.wait(0)? > 0 && polls.readable(0);
    read_response(old)?;
    Ok(slow_done)
}

/// Reads one whole response from a blocking socket.
fn read_response(sock: &mut TcpStream) -> io::Result<()> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match scan_response(&buf) {
            ScannedResponse::Complete { consumed, .. } if consumed == buf.len() => return Ok(()),
            ScannedResponse::Partial => {}
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected response",
                ))
            }
        }
        let k = sock.read(&mut chunk)?;
        if k == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..k]);
    }
}

/// Sends `reqs` open-loop over `streams` (request `conn` indexes them)
/// and waits up to `drain` after the last due time for outstanding
/// responses. Streams left with unanswered requests must not be reused.
pub fn run(streams: &[TcpStream], reqs: &[Req], drain: Duration) -> Outcome {
    let n = reqs.len();
    let mut out = Outcome {
        latency_ns: vec![None; n],
        unanswered_ns: vec![0; n],
        status: vec![0; n],
        lag_ns: vec![0; n],
        ..Outcome::default()
    };
    let mut writers: Vec<&TcpStream> = streams.iter().collect();
    let fifos: Vec<Fifo> = (0..streams.len()).map(|_| Fifo::default()).collect();
    let done_ns: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let status: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    // Give both threads a moment to start before the first request is due.
    let t0 = Instant::now() + Duration::from_millis(5);

    let receiver = {
        let readers: Vec<TcpStream> = streams
            .iter()
            .map(|s| s.try_clone().expect("clone socket"))
            .collect();
        let fifos = fifos.clone();
        let done_ns = Arc::clone(&done_ns);
        let status = Arc::clone(&status);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || receive(readers, fifos, t0, &done_ns, &status, &stop))
    };

    for (i, r) in reqs.iter().enumerate() {
        let due = t0 + Duration::from_nanos(r.at_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.lag_ns[i] = Instant::now().saturating_duration_since(due).as_nanos() as u64;
        fifos[r.conn].lock().expect("fifo lock").push_back(i);
        if writers[r.conn].write_all(&r.bytes).is_err() {
            out.io_errors += 1;
        }
    }
    let last_due = t0 + Duration::from_nanos(reqs.last().map_or(0, |r| r.at_ns));
    out.backlog_at_end = fifos
        .iter()
        .map(|f| f.lock().expect("fifo lock").len())
        .sum();
    let deadline = last_due + drain;
    while Instant::now() < deadline && fifos.iter().any(|f| !f.lock().expect("fifo").is_empty()) {
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::SeqCst);
    let (malformed, read_errors) = receiver.join().expect("receiver thread");
    out.malformed = malformed;
    out.io_errors += read_errors;
    let gave_up_ns = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
    for i in 0..n {
        let d = done_ns[i].load(Ordering::SeqCst);
        if d > 0 {
            out.latency_ns[i] = Some(d.saturating_sub(reqs[i].at_ns));
            out.status[i] = status[i].load(Ordering::SeqCst) as u16;
        } else {
            out.unanswered_ns[i] = gave_up_ns.saturating_sub(reqs[i].at_ns);
        }
    }
    out
}

/// The receiver thread: frames responses per connection in order and
/// stamps their completion (ns after `t0`). Returns (malformed, errors).
fn receive(
    mut socks: Vec<TcpStream>,
    fifos: Vec<Fifo>,
    t0: Instant,
    done_ns: &[AtomicU64],
    status: &[AtomicU64],
    stop: &AtomicBool,
) -> (u64, u64) {
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); socks.len()];
    let mut open = vec![true; socks.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    let (mut malformed, mut errors) = (0, 0);
    let mut polls = PollSet::new();
    while !stop.load(Ordering::SeqCst) {
        polls.clear();
        for s in &socks {
            polls.push(s.as_raw_fd(), IN);
        }
        if polls.wait(2).unwrap_or(0) == 0 {
            continue;
        }
        for c in 0..socks.len() {
            if !open[c] || !polls.readable(c) {
                continue;
            }
            match socks[c].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    open[c] = false;
                    errors += 1;
                    continue;
                }
                Ok(k) => bufs[c].extend_from_slice(&chunk[..k]),
            }
            let now_ns = t0.elapsed().as_nanos().max(1) as u64;
            loop {
                match scan_response(&bufs[c]) {
                    ScannedResponse::Partial => break,
                    ScannedResponse::Malformed => {
                        malformed += 1;
                        bufs[c].clear();
                        break;
                    }
                    ScannedResponse::Complete {
                        status: code,
                        consumed,
                    } => {
                        bufs[c].drain(..consumed);
                        let Some(i) = fifos[c].lock().expect("fifo lock").pop_front() else {
                            malformed += 1;
                            continue;
                        };
                        status[i].store(code as u64, Ordering::SeqCst);
                        done_ns[i].store(now_ns, Ordering::SeqCst);
                    }
                }
            }
        }
        if !open.iter().any(|&o| o) {
            break;
        }
    }
    (malformed, errors)
}

/// The value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Whether one ladder rung passed: p99 within the limit and no backlog
/// beyond what that latency allows (Little's law, plus one request per
/// connection).
pub fn rung_passes(
    outcome: &Outcome,
    reqs: &[Req],
    rate: f64,
    limit_ms: f64,
    conns: usize,
) -> bool {
    let lat = outcome.latencies_ms(reqs, None);
    let allowed_backlog = (rate * limit_ms / 1e3).ceil() as usize + conns;
    !lat.is_empty() && quantile(&lat, 0.99) <= limit_ms && outcome.backlog_at_end <= allowed_backlog
}

/// Walks an ascending ladder, running `step(rate)` per attempt, and
/// stops at the first rung that fails twice in a row (one host stall
/// must not end the climb; a saturated rung fails both times). Returns
/// the highest passing rate (0 if none passed) and the number of rungs
/// tried.
pub fn climb(ladder: &[f64], mut step: impl FnMut(f64) -> bool) -> (f64, usize) {
    let mut best = 0.0;
    for (i, &rate) in ladder.iter().enumerate() {
        if !step(rate) && !step(rate) {
            return (best, i + 1);
        }
        best = rate;
    }
    (best, ladder.len())
}
