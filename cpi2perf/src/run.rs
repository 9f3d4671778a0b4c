//! One benchmark run of one workload: repetitions of set-up plus the
//! bare measured window (median set-up and each tick's fastest time
//! reported), the served phase, the output checks, and — traced — the
//! layer-stepped driver's ledger.

use std::sync::Arc;
use std::time::Instant;

use cpi2::harness::Cpi2Harness;
use cpi2_serve::ServeHarness;

use crate::driver::Driver;
use crate::load::{self, Class};
use crate::scenario::{build_cluster, set_up, Accuracy, System, Workload};
use crate::serve::{self, HandlerTimes, Served};

/// Generator lag (p99, ms) above which a served phase is invalid: the
/// offered load was not the scheduled one.
pub const GEN_LAG_LIMIT_MS: f64 = 50.0;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Output checks: (what, passed).
    pub checks: Vec<(String, bool)>,
    /// Requests attempted in the fixed-rate phases.
    pub requests: u64,
    /// Of those, failed (5xx, refused, I/O error, unanswered).
    pub failed_requests: u64,
}

impl RunResult {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Operations attempted: requests plus checks.
    pub fn attempted(&self) -> u64 {
        self.requests + self.checks.len() as u64
    }

    /// Operations failed: failed requests plus failed checks.
    pub fn failed(&self) -> u64 {
        self.failed_requests + self.checks.iter().filter(|(_, ok)| !ok).count() as u64
    }
}

/// Runs one workload; `trace` selects the per-layer run.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, conns: usize) -> RunResult {
    if trace {
        traced(w, seed, seconds, conns)
    } else {
        untraced(w, seed, seconds, conns)
    }
}

/// Builds and sets up the workload's harness.
fn harness(w: Workload, seed: u64) -> Cpi2Harness {
    let mut h = Cpi2Harness::new(build_cluster(w, seed), w.config());
    set_up(w, &mut h);
    h
}

/// Steps `system` `ticks` times; returns per-tick wall ms.
fn window<S: System>(ticks: u64, system: &mut S) -> Vec<f64> {
    (0..ticks).map(|_| timed_step(system)).collect()
}

fn timed_step<S: System>(system: &mut S) -> f64 {
    let t = Instant::now();
    system.step();
    t.elapsed().as_secs_f64() * 1e3
}

fn machine_ticks_per_s(machines: u32, tick_ms: &[f64]) -> f64 {
    machines as f64 * tick_ms.len() as f64 / (tick_ms.iter().sum::<f64>() / 1e3)
}

fn untraced(w: Workload, seed: u64, seconds: f64, conns: usize) -> RunResult {
    let plan = w.plan();
    let threshold = w.config().correlation_threshold;
    let mut out = RunResult::default();
    // Every repetition does the same work tick for tick, so each tick
    // keeps its fastest time over the repetitions: host slowdowns, which
    // only ever lengthen a tick, drop out of the window's cost. On a
    // shared host one core is often slowed while another is not, so the
    // repetitions take the run's cores in turn.
    let cpus = crate::env::allowed_cpus();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut best_ms: Vec<f64> = Vec::new();
    let mut measured_s = 0.0;
    let mut h = None;
    let mut window_start = 0;
    while setups.len() < plan.min_reps || measured_s < seconds {
        drop(h.take());
        if let Some(&cpu) = cpus.get(setups.len() % cpus.len().max(1)) {
            pin(&[cpu]);
        }
        let t = Instant::now();
        let mut fresh = harness(w, seed);
        setups.push(t.elapsed().as_secs_f64());
        window_start = fresh.cluster.now().as_us();
        let ticks_ms = window(plan.window_ticks, &mut fresh);
        measured_s += ticks_ms.iter().sum::<f64>() / 1e3;
        if best_ms.is_empty() {
            best_ms = ticks_ms;
        } else {
            best_ms
                .iter_mut()
                .zip(&ticks_ms)
                .for_each(|(best, &ms)| *best = best.min(ms));
        }
        digests.push(fresh.digest());
        h = Some(fresh);
    }
    pin(&cpus);
    let h = h.expect("at least one repetition");
    out.check(
        format!("every repetition has the same outcome digest ({digests:016x?})"),
        digests.iter().all(|&d| d == digests[0]),
    );
    if w == Workload::FleetDay {
        let in_window = Accuracy::score_since(&h, threshold, window_start);
        let machine_days = plan.machines as f64 * plan.window_ticks as f64 / 86_400.0;
        let rate = in_window.identifications as f64 / machine_days;
        out.check(
            format!("fleet_day identifications per machine-day {rate:.3} within 0.01..5"),
            (0.01..=5.0).contains(&rate),
        );
    }
    if w == Workload::FleetDense {
        let caps = h.caps_applied();
        out.check(
            format!("fleet_dense applied caps ({caps}) and identified antagonists"),
            caps > 0 && Accuracy::score_since(&h, threshold, window_start).correct > 0,
        );
    }
    let (accuracy, peak_rss_mb) = match &plan.serve {
        None => (Accuracy::score(&h, threshold), crate::env::peak_rss_mb()),
        Some(sp) => {
            let mut sh = ServeHarness::new(h);
            match serve::serve(&mut sh, sp, threshold, seed, seconds, conns, None) {
                Ok(served) => {
                    served_checks(&mut out, &served);
                    out.requests = (served.lo.reqs.len() + served.hi.reqs.len()) as u64;
                    out.failed_requests = served.lo.outcome.failed() + served.hi.outcome.failed();
                    (served.accuracy, served.peak_rss_mb)
                }
                Err(e) => {
                    out.check(format!("control plane serves the load ({e})"), false);
                    return out;
                }
            }
        }
    };
    out.put("setup_s", "s", median(&setups));
    out.put(
        "machine_ticks_per_s",
        "1/s",
        machine_ticks_per_s(plan.machines, &best_ms),
    );
    best_ms.sort_by(f64::total_cmp);
    out.put("tick_ms_p99", "ms", load::quantile(&best_ms, 0.99));
    out.put("peak_rss_mb", "MiB", peak_rss_mb);
    out.put("ident_precision", "ratio", accuracy.precision());
    out.put("ident_recall", "ratio", accuracy.recall());
    let ok = 1.0 - out.failed() as f64 / out.attempted().max(1) as f64;
    out.put("ok_ratio", "ratio", ok);
    out
}

fn pin(cpus: &[usize]) {
    crate::env::pin_to(cpus).unwrap_or_else(|e| panic!("pin to CPUs {cpus:?}: {e}"));
}

/// The control-plane output checks.
fn served_checks(out: &mut RunResult, s: &Served) {
    let all = || s.rungs.iter().chain([&s.lo, &s.hi]);
    let five_xx: usize = all().map(|p| p.outcome.status_5xx()).sum();
    let malformed: u64 = all().map(|p| p.outcome.malformed).sum();
    out.check(format!("zero 5xx responses (saw {five_xx})"), five_xx == 0);
    out.check(
        format!("every response parses ({malformed} did not)"),
        malformed == 0,
    );
    out.check(
        format!(
            "cpi_serve_handler_panics_total 0 (saw {:?})",
            s.handler_panics
        ),
        s.handler_panics == Some(0),
    );
    let lag = gen_lag_p99_ms(s);
    out.check(
        format!("generator lag p99 {lag:.3} ms under {GEN_LAG_LIMIT_MS} ms"),
        lag <= GEN_LAG_LIMIT_MS,
    );
}

fn gen_lag_p99_ms(s: &Served) -> f64 {
    let mut lag: Vec<f64> = [&s.lo, &s.hi]
        .iter()
        .flat_map(|p| p.outcome.lag_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    lag.sort_by(f64::total_cmp);
    load::quantile(&lag, 0.99)
}

fn traced(w: Workload, seed: u64, seconds: f64, conns: usize) -> RunResult {
    let plan = w.plan();
    let threshold = w.config().correlation_threshold;
    let mut out = RunResult::default();

    // Reference: the plain harness, an untraced window, then (serve_mixed)
    // the served phase with the timing handler.
    let mut h = harness(w, seed);
    let untraced_rate = machine_ticks_per_s(plan.machines, &window(plan.window_ticks, &mut h));
    let times = Arc::new(HandlerTimes::default());
    let (served, digest) = match &plan.serve {
        None => (None, h.digest()),
        Some(sp) => {
            let mut sh = ServeHarness::new(h);
            let served = serve::serve(
                &mut sh,
                sp,
                threshold,
                seed,
                seconds,
                conns,
                Some(Arc::clone(&times)),
            );
            match served {
                Ok(s) => {
                    let digest = s.digest;
                    (Some(s), digest)
                }
                Err(e) => {
                    out.check(format!("control plane serves the load ({e})"), false);
                    return out;
                }
            }
        }
    };

    // The layer-stepped driver over the same seed and ticks.
    let mut d = Driver::new(build_cluster(w, seed), w.config());
    set_up(w, &mut d);
    d.tracing = true;
    let t = Instant::now();
    for _ in 0..plan.window_ticks {
        d.step();
    }
    let traced_rate = plan.machines as f64 * plan.window_ticks as f64 / t.elapsed().as_secs_f64();
    let served_ticks = plan
        .serve
        .as_ref()
        .map_or(0, |sp| sp.fixed_rate_ticks(seconds));
    for _ in 0..served_ticks {
        d.step();
    }
    let digest_ok = d.digest() == digest;
    out.check(
        format!(
            "driver digest {:016x} equals harness digest {digest:016x}",
            d.digest()
        ),
        digest_ok,
    );
    if let Some(s) = &served {
        served_checks(&mut out, s);
        out.requests = (s.lo.reqs.len() + s.hi.reqs.len()) as u64;
        out.failed_requests = s.lo.outcome.failed() + s.hi.outcome.failed();
    }

    // A ledger whose digest differs describes some other run: report
    // no number from it.
    if digest_ok {
        put_ledger(&mut out, &d, untraced_rate, traced_rate);
    }
    put_served(&mut out, served.as_ref(), &times);
    out
}

/// The layer-stepped driver's spans and counts.
fn put_ledger(out: &mut RunResult, d: &Driver, untraced_rate: f64, traced_rate: f64) {
    let l = &d.ledger;
    let per_tick = |ns: u64| ns as f64 / 1e3 / l.ticks.max(1) as f64;
    out.put("sim.step_us", "us", per_tick(l.sim_step.ns));
    out.put("sim.cap_us", "us", per_tick(l.sim_cap.ns));
    out.put("sim.caps_applied", "count", l.caps_applied as f64);
    out.put("sim.caps_attempted", "count", l.caps_attempted as f64);
    out.put("perf.poll_us", "us", per_tick(l.perf_poll.ns));
    out.put("perf.readings", "count", l.perf_readings as f64);
    out.put("core.sync_us", "us", per_tick(l.core_sync.ns));
    out.put("core.specs_installed", "count", l.specs_installed as f64);
    out.put("core.ingest_us", "us", per_tick(l.core_ingest.ns));
    out.put("core.samples", "count", l.core_samples as f64);
    out.put("core.incidents", "count", l.core_incidents as f64);
    out.put("core.commands", "count", l.core_commands as f64);
    out.put("pipeline.ship_us", "us", per_tick(l.ship.ns));
    out.put("pipeline.batches", "count", l.batches as f64);
    out.put("pipeline.retries", "count", l.retries as f64);
    out.put("pipeline.dropped", "count", l.dropped as f64);
    out.put("pipeline.drain_us", "us", per_tick(l.drain.ns));
    out.put(
        "pipeline.samples_ingested",
        "count",
        l.samples_ingested as f64,
    );
    out.put("pipeline.refresh_us", "us", per_tick(l.refresh.ns));
    out.put("pipeline.refreshes", "count", l.refreshes as f64);
    out.put(
        "pipeline.specs_published",
        "count",
        l.specs_published as f64,
    );
    let shard_rolls = l.refreshes * d.spec_shards() as u64;
    out.put(
        "pipeline.shards_clean_ratio",
        "ratio",
        l.shards_skipped as f64 / shard_rolls.max(1) as f64,
    );
    out.put("harness.tick_us", "us", per_tick(l.tick.ns));
    out.put(
        "harness.glue_us",
        "us",
        per_tick(l.tick.ns.saturating_sub(l.layers_ns())),
    );
    out.put("trace.machine_ticks_per_s", "1/s", traced_rate);
    out.put("trace.overhead_ratio", "ratio", untraced_rate / traced_rate);
}

/// The control plane's numbers; zero on the workloads that do not serve.
fn put_served(out: &mut RunResult, served: Option<&Served>, times: &HandlerTimes) {
    let v = |f: &dyn Fn(&Served) -> f64| served.map_or(0.0, f);
    out.put(
        "serve.req_p50_ms",
        "ms",
        v(&|s| s.hi.latency_ms(0.50, None)),
    );
    out.put(
        "serve.req_p99_ms",
        "ms",
        v(&|s| s.hi.latency_ms(0.99, None)),
    );
    out.put(
        "serve.req_p99_ms_lo",
        "ms",
        v(&|s| s.lo.latency_ms(0.99, None)),
    );
    out.put(
        "serve.healthz_p99_ms",
        "ms",
        v(&|s| s.hi.latency_ms(0.99, Some(Class::Healthz))),
    );
    out.put("serve.capacity_rps", "1/s", v(&|s| s.capacity_rps));
    out.put(
        "serve.tick_ms_p99",
        "ms",
        v(&|s| {
            let mut t = s.tick_ms.clone();
            t.sort_by(f64::total_cmp);
            load::quantile(&t, 0.99)
        }),
    );
    out.put(
        "serve.tick_us",
        "us",
        v(&|s| s.tick_ms.iter().sum::<f64>() * 1e3 / s.tick_ms.len().max(1) as f64),
    );
    out.put(
        "serve.publish_us",
        "us",
        v(&|s| s.publish.1 as f64 / s.publish.0.max(1) as f64),
    );
    for class in Class::ALL {
        out.put(
            format!("serve.handler_us.{}", class.name()),
            "us",
            v(&|_| times.mean_us(class)),
        );
    }
    for class in Class::ALL {
        // Generator latency minus handler time: event-loop queueing,
        // parsing and writing.
        out.put(
            format!("serve.wait_write_us.{}", class.name()),
            "us",
            v(&|s| s.hi.mean_latency_ms(class) * 1e3 - times.mean_us(class)),
        );
    }
    out.put("serve.parse_us", "us", v(&|s| parse_us(&s.hi.reqs)));
    let sum = |f: &dyn Fn(&load::Outcome) -> u64| {
        v(&|s| [&s.lo, &s.hi].iter().map(|p| f(&p.outcome)).sum::<u64>() as f64)
    };
    out.put(
        "serve.requests",
        "count",
        sum(&|o| o.latency_ns.len() as u64),
    );
    out.put("serve.status_5xx", "count", sum(&|o| o.status_5xx() as u64));
    out.put(
        "serve.refused_503",
        "count",
        sum(&|o| o.refused_503() as u64),
    );
    out.put("serve.io_errors", "count", sum(&|o| o.io_errors));
    out.put("bench.gen_lag_ms_p99", "ms", v(&gen_lag_p99_ms));
}

/// Mean µs of `http::parse_request` over the workload's request bytes.
fn parse_us(reqs: &[load::Req]) -> f64 {
    use cpi2_serve::http::{parse_request, ParseLimits};
    let limits = ParseLimits {
        max_header_bytes: 8 * 1024,
        max_body_bytes: 64 * 1024,
    };
    let t = Instant::now();
    let mut parsed = 0usize;
    for r in reqs {
        if let cpi2_serve::http::Parsed::Complete(_, n) = parse_request(&r.bytes, limits) {
            parsed += n;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(parsed);
    ns / 1e3 / reqs.len().max(1) as f64
}

/// Median of a non-empty slice (mean of the middle two when even).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
