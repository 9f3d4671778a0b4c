//! Tests of the benchmark's own machinery: the open-loop schedule, the
//! intended-send-time latency accounting, the capacity ladder, the
//! layer-stepped driver, and the report statistics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, ResourceProfile};
use cpi2::telemetry::Telemetry;
use cpi2::workloads::{self, LsService, TraceJob};
use cpi2_serve::server::{self, Handler, Request, Response, ServerConfig};

use cpi2perf::driver::Driver;
use cpi2perf::load::{self, Class, Targets, MIX};
use cpi2perf::report::{self, quartiles, Report, ResultLine, Value};
use cpi2perf::scenario::{incident_line, System};

fn targets() -> Targets {
    Targets {
        machines: 16,
        traces: vec!["00000000000000aa".into(), "00000000000000bb".into()],
    }
}

#[test]
fn schedule_is_deterministic_per_seed() {
    let a = load::schedule(7, 500.0, 2.0, 2, &targets());
    let b = load::schedule(7, 500.0, 2.0, 2, &targets());
    let c = load::schedule(8, 500.0, 2.0, 2, &targets());
    assert_eq!(a, b);
    assert_ne!(a, c);
    // Poisson arrivals at the asked rate, in time order, round-robin.
    assert!((800..1200).contains(&a.len()), "{} requests", a.len());
    assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    assert!(a.iter().enumerate().all(|(i, r)| r.conn == i % 2));
    // Every full block of 32 holds exactly the mix.
    for block in a.chunks_exact(32) {
        for (class, n) in MIX {
            assert_eq!(block.iter().filter(|r| r.class == class).count(), n);
        }
    }
}

#[test]
fn latency_counts_from_the_intended_send_time() {
    // The first request stalls its connection for 60 ms; requests due
    // during the stall must be charged the wait, not just their own
    // service time.
    let stalled = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stalled);
    let handler: Handler = Arc::new(move |_req: &Request| {
        if !flag.swap(true, Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(60));
        }
        Response::text(200, "ok\n")
    });
    let cfg = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    let srv = server::start("127.0.0.1:0", cfg, &Telemetry::disabled(), handler).expect("bind");
    let reqs: Vec<load::Req> = (0..40u64)
        .map(|i| load::Req {
            at_ns: i * 5_000_000,
            class: Class::Healthz,
            conn: 0,
            bytes: b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
        })
        .collect();
    let conns = load::connect_spread(srv.addr(), 1, 1).expect("connect");
    let out = load::run(&conns, &reqs, Duration::from_secs(2));
    srv.shutdown();
    assert_eq!(out.failed(), 0, "{out:?}");
    let ms = |i: usize| out.latency_ns[i].expect("answered") as f64 / 1e6;
    assert!(ms(0) >= 55.0, "stalled request took {} ms", ms(0));
    // Due 5 ms after the stalled one: it waited ~55 ms behind it.
    assert!(ms(1) >= 45.0, "follower charged only {} ms", ms(1));
    assert!(ms(5) >= 25.0, "follower charged only {} ms", ms(5));
    // Long after the stall, service is fast again.
    assert!(ms(39) < 20.0, "late request took {} ms", ms(39));
    // Latencies fall along the stall's shadow.
    assert!(ms(1) > ms(5) && ms(5) > ms(10));
}

#[test]
fn connections_are_spread_over_the_shards() {
    // /query holds its shard 100 ms. Two connections on one shard answer
    // two queries sent together in ~200 ms; on two shards in ~100 ms.
    let handler: Handler = Arc::new(|req: &Request| {
        if req.path == "/query" {
            std::thread::sleep(Duration::from_millis(100));
        }
        Response::text(200, "ok\n")
    });
    let cfg = ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    };
    let srv = server::start("127.0.0.1:0", cfg, &Telemetry::disabled(), handler).expect("bind");
    for _ in 0..3 {
        let conns = load::connect_spread(srv.addr(), 2, 64).expect("connect");
        let reqs: Vec<load::Req> = (0..2)
            .map(|conn| load::Req {
                at_ns: 0,
                class: Class::Query,
                conn,
                bytes: b"POST /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
            })
            .collect();
        let out = load::run(&conns, &reqs, Duration::from_secs(2));
        let slowest = out
            .latency_ns
            .iter()
            .map(|l| l.expect("answered"))
            .max()
            .unwrap();
        assert!(slowest < 180_000_000, "queries serialized: {slowest} ns");
    }
    srv.shutdown();
}

#[test]
fn ladder_stops_at_the_first_rung_that_fails_twice() {
    let ladder = [100.0, 200.0, 300.0, 400.0, 500.0];
    let mut tried = Vec::new();
    let (cap, rungs) = load::climb(&ladder, |r| {
        tried.push(r);
        !(350.0..=450.0).contains(&r)
    });
    assert_eq!(cap, 300.0);
    assert_eq!(rungs, 4);
    assert_eq!(tried, vec![100.0, 200.0, 300.0, 400.0, 400.0]);
    // One failed attempt is retried and does not end the climb.
    let mut first = true;
    let flaky = load::climb(&ladder, |r| {
        let stalled = r == 200.0 && first;
        first &= r != 200.0;
        !stalled
    });
    assert_eq!(flaky, (500.0, 5));
    // A ladder that never fails reports its top rung; one that fails
    // at once reports zero.
    assert_eq!(load::climb(&ladder, |_| true), (500.0, 5));
    assert_eq!(load::climb(&ladder, |_| false), (0.0, 1));
}

#[test]
fn rung_fails_on_latency_or_backlog() {
    let reqs = load::schedule(3, 100.0, 1.0, 1, &targets());
    let n = reqs.len();
    let fast = load::Outcome {
        latency_ns: vec![Some(1_000_000); n],
        unanswered_ns: vec![0; n],
        status: vec![200; n],
        lag_ns: vec![0; n],
        ..load::Outcome::default()
    };
    assert!(load::rung_passes(&fast, &reqs, 100.0, 10.0, 1));
    let slow = load::Outcome {
        latency_ns: vec![Some(20_000_000); n],
        ..fast.clone()
    };
    assert!(!load::rung_passes(&slow, &reqs, 100.0, 10.0, 1));
    let backlogged = load::Outcome {
        backlog_at_end: 50,
        ..fast.clone()
    };
    assert!(!load::rung_passes(&backlogged, &reqs, 100.0, 10.0, 1));
    // An unanswered request lands in the tail with its wait.
    let mut lost = fast;
    lost.latency_ns[0] = None;
    lost.unanswered_ns[0] = 900_000_000;
    let lat = lost.latencies_ms(&reqs, None);
    assert_eq!(*lat.last().unwrap(), 900.0);
    assert_eq!(lost.failed(), 1);
}

/// Six machines of cache-sensitive victims with thrashers arriving
/// after the specs are learned.
fn tiny_cluster(seed: u64) -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        seed,
        parallelism: 1,
        telemetry: Telemetry::enabled(),
        ..ClusterConfig::default()
    });
    c.add_machines(&Platform::westmere(), 6);
    c.submit_job(
        JobSpec::latency_sensitive("victim", 6, 1.2),
        true,
        Box::new(move |i| {
            Box::new(LsService::new(
                ResourceProfile::cache_heavy(),
                1.2,
                12,
                seed ^ i as u64,
            ))
        }),
    )
    .expect("placement");
    let trace: Vec<TraceJob> = (0..3)
        .map(|i| TraceJob {
            at_s: 20 * 60 + i * 300,
            name: "cache-thrasher".into(),
            class: "batch".into(),
            tasks: 1,
            cpu: 1.0,
            seed: seed + i as u64,
            duration_s: Some(1_200),
        })
        .collect();
    workloads::schedule_trace(&mut c, &trace);
    c
}

fn run_tiny<S: System>(s: &mut S) {
    for _ in 0..15 * 60 {
        s.step();
    }
    s.force_spec_refresh();
    for _ in 0..40 * 60 {
        s.step();
    }
}

#[test]
fn layer_stepped_driver_matches_the_harness() {
    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    let mut h = Cpi2Harness::new(tiny_cluster(11), config.clone());
    let mut d = Driver::new(tiny_cluster(11), config);
    d.tracing = true;
    run_tiny(&mut h);
    run_tiny(&mut d);
    assert!(
        !h.incidents().is_empty(),
        "the tiny fleet produced no incidents"
    );
    assert!(h.caps_applied() > 0, "the tiny fleet applied no caps");
    assert_eq!(System::digest(&d), System::digest(&h));
    // The bench-side incident rendering is the harness's own format.
    let lines: Vec<String> = System::incidents(&h).iter().map(incident_line).collect();
    assert_eq!(lines, h.incident_lines());
    // Every tick was recorded, and the named spans fit in the tick wall.
    let l = &d.ledger;
    assert_eq!(l.ticks, 55 * 60);
    assert!(l.layers_ns() <= l.tick.ns);
    assert_eq!(l.caps_applied, h.caps_applied());
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[1.0]), None);
}

fn report_with(kernel: &str, tick_ms: &[f64]) -> Report {
    let runs = tick_ms
        .iter()
        .map(|&v| ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: [(
                "tick_ms_p99".to_string(),
                Value {
                    value: v,
                    unit: "ms".into(),
                },
            )]
            .into_iter()
            .collect(),
        })
        .collect();
    Report {
        fingerprint: [("kernel".to_string(), kernel.to_string())]
            .into_iter()
            .collect(),
        runs: [("fleet_day".to_string(), runs)].into_iter().collect(),
    }
}

#[test]
fn compare_reports_fingerprint_mismatch_instead_of_a_verdict() {
    let a = report_with("6.1", &[1.0, 1.1, 0.9]);
    let b = report_with("6.2", &[1.0, 1.1, 0.9]);
    let (text, ok) = report::compare(&a, &b);
    assert!(!ok);
    assert!(text.contains("fingerprint mismatch"), "{text}");
    assert!(text.contains("kernel: 6.1 vs 6.2"), "{text}");
    assert!(!text.contains("WORSE"), "{text}");
}

#[test]
fn compare_flags_a_regression_beyond_the_bound() {
    let a = report_with("6.1", &[1.0, 1.01, 0.99]);
    let same = report_with("6.1", &[1.0, 1.02, 0.98]);
    let slow = report_with("6.1", &[2.0, 2.02, 1.98]);
    assert!(report::compare(&a, &same).1);
    let (text, ok) = report::compare(&a, &slow);
    assert!(!ok);
    assert!(text.contains("WORSE"), "{text}");
}

#[test]
fn benchmark_json_lists_the_end_to_end_rules() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for r in report::END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            r.name,
            r.unit,
            if r.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            r.bound
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
