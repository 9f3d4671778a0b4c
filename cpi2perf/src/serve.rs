//! The served phase: the harness ticks at a fixed rate behind the HTTP
//! control plane while the open-loop generator drives it at the plan's
//! fixed rates, then climbs the capacity ladder.
//!
//! The server is started through `cpi2_serve::server::start` with the
//! benchmark's own handler. Traced, that handler times
//! `Router::handle` and every chunk pull of a streamed body.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpi2_serve::http::{Body, ChunkIter};
use cpi2_serve::server::{self, Handler, ServerConfig, ServerHandle};
use cpi2_serve::{Router, ServeHarness};

use crate::load::{self, Class, Outcome, Req, Targets};
use crate::scenario::{Accuracy, ServePlan, System};

/// Handler time per request class: (requests, ns), chunk pulls included.
#[derive(Debug, Default)]
pub struct HandlerTimes {
    per_class: [(AtomicU64, AtomicU64); 6],
}

impl HandlerTimes {
    fn slot(&self, class: Class) -> &(AtomicU64, AtomicU64) {
        &self.per_class[Class::ALL.iter().position(|&c| c == class).unwrap_or(0)]
    }

    /// Mean handler µs per request of `class` (0 when none ran).
    pub fn mean_us(&self, class: Class) -> f64 {
        let (n, ns) = self.slot(class);
        let n = n.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            ns.load(Ordering::Relaxed) as f64 / n as f64 / 1e3
        }
    }
}

/// A streamed body whose chunk pulls are charged to its class.
struct TimedChunks {
    inner: ChunkIter,
    times: Arc<HandlerTimes>,
    class: Class,
}

impl Iterator for TimedChunks {
    type Item = Vec<u8>;
    fn next(&mut self) -> Option<Vec<u8>> {
        let t = Instant::now();
        let chunk = self.inner.next();
        let ns = t.elapsed().as_nanos() as u64;
        self.times
            .slot(self.class)
            .1
            .fetch_add(ns, Ordering::Relaxed);
        chunk
    }
}

/// Starts the control plane over `sh` with `nproc` shards, keep-alive
/// connections that are never retired, and (when `times` is given) the
/// timing handler.
pub fn start_server(
    sh: &ServeHarness,
    shards: usize,
    times: Option<Arc<HandlerTimes>>,
) -> io::Result<ServerHandle> {
    let router = Router::new(sh.state());
    let handler: Handler = match times {
        None => Arc::new(move |req| router.handle(req)),
        Some(times) => Arc::new(move |req| {
            let class = Class::of_path(&req.path);
            let t = Instant::now();
            let mut resp = router.handle(req);
            let ns = t.elapsed().as_nanos() as u64;
            let slot = times.slot(class);
            slot.0.fetch_add(1, Ordering::Relaxed);
            slot.1.fetch_add(ns, Ordering::Relaxed);
            if let Body::Chunks(inner) = resp.body {
                resp.body = Body::Chunks(Box::new(TimedChunks {
                    inner,
                    times: Arc::clone(&times),
                    class,
                }));
            }
            resp
        }),
    };
    let cfg = ServerConfig {
        shards,
        max_requests_per_conn: u32::MAX,
        ..ServerConfig::default()
    };
    server::start("127.0.0.1:0", cfg, sh.inner().telemetry(), handler)
}

/// One fixed-rate load phase with the writer ticking alongside.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The schedule sent.
    pub reqs: Vec<Req>,
    /// What happened to it.
    pub outcome: Outcome,
}

impl Phase {
    /// Latency quantile (ms) over `class` (`None` = all).
    pub fn latency_ms(&self, q: f64, class: Option<Class>) -> f64 {
        load::quantile(&self.outcome.latencies_ms(&self.reqs, class), q)
    }

    /// Mean latency (ms) of the requests of `class`.
    pub fn mean_latency_ms(&self, class: Class) -> f64 {
        let v = self.outcome.latencies_ms(&self.reqs, Some(class));
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
}

/// Runs `reqs` over `streams` on a generator thread while this thread
/// ticks `sh` `ticks` times at `tick_hz` (a late tick runs at once; none
/// is skipped, so the tick count is fixed), appending each tick's wall
/// ms to `tick_ms`.
pub fn run_phase(
    sh: &mut ServeHarness,
    streams: Vec<TcpStream>,
    reqs: Vec<Req>,
    ticks: u64,
    tick_hz: f64,
    drain: Duration,
    tick_ms: &mut Vec<f64>,
) -> Phase {
    let generator = std::thread::spawn(move || {
        let outcome = load::run(&streams, &reqs, drain);
        Phase { reqs, outcome }
    });
    let t0 = Instant::now();
    for i in 0..ticks {
        let due = t0 + Duration::from_secs_f64(i as f64 / tick_hz);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t = Instant::now();
        sh.tick();
        tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    generator.join().expect("generator thread")
}

/// Everything the served phase measured.
#[derive(Debug, Clone)]
pub struct Served {
    /// The phase at the low fixed rate.
    pub lo: Phase,
    /// The phase at the high fixed rate.
    pub hi: Phase,
    /// Ladder rungs run (the last one failed unless the ladder ran out).
    pub rungs: Vec<Phase>,
    /// Highest passing ladder rate, requests/s.
    pub capacity_rps: f64,
    /// Wall ms of each `ServeHarness::tick` during the fixed-rate phases.
    pub tick_ms: Vec<f64>,
    /// Publish (count, µs) during the fixed-rate phases.
    pub publish: (u64, u64),
    /// Identification accuracy after the fixed-rate phases.
    pub accuracy: Accuracy,
    /// Outcome digest after the fixed-rate phases.
    pub digest: u64,
    /// Peak resident set, MiB, at the end of the fixed-rate phases (the
    /// ladder's deliberate overload queues timing-dependent backlogs).
    pub peak_rss_mb: f64,
    /// `cpi_serve_handler_panics_total` after the server stopped.
    pub handler_panics: Option<u64>,
}

/// The whole served phase over `sh`: low rate, high rate, then the
/// ladder. `times` switches on the timing handler.
pub fn serve(
    sh: &mut ServeHarness,
    plan: &ServePlan,
    threshold: f64,
    seed: u64,
    seconds: f64,
    conns: usize,
    times: Option<Arc<HandlerTimes>>,
) -> io::Result<Served> {
    let server = start_server(sh, conns, times)?;
    let served = drive(sh, server.addr(), plan, threshold, seed, seconds, conns);
    server.shutdown();
    let mut served = served?;
    served.handler_panics = sh
        .inner()
        .telemetry()
        .prometheus_text()
        .and_then(|text| counter_value(&text, "cpi_serve_handler_panics_total"));
    Ok(served)
}

/// The three load stages against a running server.
fn drive(
    sh: &mut ServeHarness,
    addr: SocketAddr,
    plan: &ServePlan,
    threshold: f64,
    seed: u64,
    seconds: f64,
    conns: usize,
) -> io::Result<Served> {
    let snap = sh.state().live.snapshot();
    let targets = Targets {
        machines: snap.machines.len() as u32,
        traces: snap
            .traces
            .iter()
            .rev()
            .take(16)
            .map(|t| t.trace.clone())
            .collect(),
    };
    drop(snap);
    let (lo_s, hi_s, step_s) = plan.durations(seconds);
    let mut tick_ms = Vec::new();
    let publish_before = sh.publish_stats();
    let ticks = |s: f64| plan.ticks(s);
    let mut conn = Conns::new(addr, conns)?;

    let lo_reqs = load::schedule(seed, plan.lo_rps, lo_s, conns, &targets);
    let fixed = Duration::from_secs(2);
    let lo = run_phase(
        sh,
        conn.take()?,
        lo_reqs,
        ticks(lo_s),
        plan.tick_hz,
        fixed,
        &mut tick_ms,
    );
    conn.after(&lo)?;
    let hi_reqs = load::schedule(seed ^ 1, plan.hi_rps, hi_s, conns, &targets);
    let hi = run_phase(
        sh,
        conn.take()?,
        hi_reqs,
        ticks(hi_s),
        plan.tick_hz,
        fixed,
        &mut tick_ms,
    );
    conn.after(&hi)?;
    let publish_after = sh.publish_stats();
    let accuracy = Accuracy::score(sh.inner() as &dyn System, threshold);
    let digest = sh.inner().digest();
    let peak_rss_mb = crate::env::peak_rss_mb();

    let mut rungs = Vec::new();
    let mut ladder_tick_ms = Vec::new();
    let mut conn_error = None;
    let (capacity_rps, _) = load::climb(&plan.ladder, |rate| {
        let streams = match conn.take() {
            Ok(s) => s,
            Err(e) => {
                conn_error = Some(e);
                return false;
            }
        };
        let reqs = load::schedule(seed ^ rate.to_bits(), rate, step_s, conns, &targets);
        let phase = run_phase(
            sh,
            streams,
            reqs,
            ticks(step_s),
            plan.tick_hz,
            Duration::from_millis(500),
            &mut ladder_tick_ms,
        );
        let ok = load::rung_passes(&phase.outcome, &phase.reqs, rate, plan.p99_limit_ms, conns);
        if let Err(e) = conn.after(&phase) {
            conn_error = Some(e);
        }
        rungs.push(phase);
        ok
    });
    if let Some(e) = conn_error {
        return Err(e);
    }
    Ok(Served {
        lo,
        hi,
        rungs,
        capacity_rps,
        tick_ms,
        publish: (
            publish_after.0 - publish_before.0,
            publish_after.1 - publish_before.1,
        ),
        accuracy,
        digest,
        peak_rss_mb,
        handler_panics: None,
    })
}

/// The generator's connections, kept across phases and replaced when
/// a phase leaves responses outstanding on them.
struct Conns {
    addr: SocketAddr,
    n: usize,
    streams: Vec<TcpStream>,
}

impl Conns {
    fn new(addr: SocketAddr, n: usize) -> io::Result<Conns> {
        Ok(Conns {
            addr,
            n,
            streams: load::connect_spread(addr, n, 32)?,
        })
    }

    /// Handles to the current connections for one phase.
    fn take(&self) -> io::Result<Vec<TcpStream>> {
        self.streams.iter().map(TcpStream::try_clone).collect()
    }

    /// Reconnects when `phase` left its connections unusable.
    fn after(&mut self, phase: &Phase) -> io::Result<()> {
        if phase.outcome.unanswered() > 0
            || phase.outcome.io_errors > 0
            || phase.outcome.malformed > 0
        {
            self.streams = load::connect_spread(self.addr, self.n, 32)?;
        }
        Ok(())
    }
}

/// The value of an unlabelled counter in Prometheus text.
pub fn counter_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .filter_map(|l| l.strip_prefix(name))
        .find_map(|rest| rest.strip_prefix(' '))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
}
