//! Performance gate: pinned-seed throughput and spec-refresh latency.
//!
//! Measures the two numbers the perf work optimizes, at fixed seeds so
//! runs are comparable:
//!
//! 1. **Simulator throughput** — machine-ticks/sec advancing a seeded
//!    mostly-healthy fleet on the serial path (best of `--repeat` runs;
//!    the serial path is what a 1-CPU CI box can measure honestly).
//! 2. **Spec-refresh latency** — wall micros for an `Aggregator` refresh
//!    with every shard dirty (fresh sample load) and for the incremental
//!    refresh immediately after, when every shard is clean and served
//!    from its cached roll.
//! 3. **Sampled-mode throughput** — machine-ticks/sec through the
//!    statistical fleet mode's cell simulations (stratifier + two-phase
//!    allocator + per-cell sim, DESIGN.md §12). Gated only when the
//!    baseline file records `sampled_ticks_per_sec`.
//!
//! Results are written to `--out` (default `BENCH_5.json`). With
//! `--baseline <file>` the run compares its throughput against the
//! committed baseline and exits non-zero only when it regresses by more
//! than `--max-regress` (default 0.30) — a generous threshold: CI boxes
//! are noisy, and the gate exists to catch order-of-magnitude mistakes,
//! not percent-level drift.
//!
//! Run: `cargo run -p cpi2-bench --release --bin perf_gate -- \
//!           [--machines N] [--seconds S] [--seed SEED] [--repeat R] \
//!           [--out FILE] [--baseline FILE] [--max-regress F]`

use cpi2::core::Cpi2Config;
use cpi2::pipeline::{Aggregator, SpecStore};
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, SimDuration};
use cpi2::telemetry::Telemetry;
use cpi2::workloads;
use cpi2_bench::args::Args;
use cpi2_bench::gate::{Baseline, Floor};
use cpi2_bench::sampling::{run_sampled, simulate_cell, FleetModel, SamplingConfig};
use cpi2_core::{CpiSample, TaskClass, TaskHandle};
use std::time::Instant;

/// The same mostly-healthy fleet regime `fleet_rate` measures: sparse
/// serving load plus a swarm of small tenants, all seeded.
fn build_fleet(machines: u32, seed: u64) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        overcommit: 2.0,
        parallelism: 1,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), machines);
    for (name, frac_tasks, cpu) in [
        ("websearch-leaf", 0.25f64, 2.0),
        ("bigtable-tablet", 0.20, 1.2),
        ("storage-server", 0.15, 1.0),
        ("image-frontend", 0.15, 1.0),
    ] {
        let tasks = ((machines as f64 * frac_tasks) as u32).max(6);
        cluster
            .submit_job(
                JobSpec::latency_sensitive(name, tasks, cpu),
                true,
                workloads::factory(name, 0xFEE ^ tasks as u64),
            )
            .expect("placement");
    }
    cluster
        .submit_job(
            JobSpec::latency_sensitive("tenant", machines * 2, 0.2),
            true,
            Box::new(|i| {
                let mut p = cpi2::sim::ResourceProfile::compute_bound();
                p.cache_mb = 0.5;
                Box::new(cpi2::workloads::LsService::new(p, 0.2, 6, 0x7E ^ i as u64))
            }),
        )
        .expect("placement");
    cluster
}

/// Best-of-`repeat` serial machine-ticks/sec over `seconds` sim-seconds.
fn measure_throughput(machines: u32, seconds: i64, seed: u64, repeat: u32) -> f64 {
    let tick_s = ClusterConfig::default().tick.as_secs_f64();
    let machine_ticks = machines as f64 * (seconds as f64 / tick_s);
    let mut best = 0.0f64;
    for _ in 0..repeat.max(1) {
        let mut cluster = build_fleet(machines, seed);
        let start = Instant::now();
        cluster.run_for(SimDuration::from_secs(seconds));
        let rate = machine_ticks / start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(rate);
    }
    best
}

/// Deterministic synthetic sample load: `jobs` keys × `tasks` tasks ×
/// `per_task` samples each, timestamps spread over the first day.
fn sample_load(jobs: u32, tasks: u64, per_task: i64) -> Vec<CpiSample> {
    let mut out = Vec::new();
    for j in 0..jobs {
        let platform = if j % 2 == 0 {
            "westmere"
        } else {
            "sandybridge"
        };
        for t in 0..tasks {
            for i in 0..per_task {
                out.push(CpiSample {
                    task: TaskHandle(u64::from(j) * 1000 + t),
                    jobname: format!("job-{j}"),
                    platforminfo: platform.into(),
                    timestamp: i * 60_000_000 + (t as i64) * 7_000,
                    cpu_usage: 1.0,
                    cpi: 1.0 + f64::from(j % 7) * 0.1 + (t as f64) * 0.01,
                    l3_mpki: 1.0,
                    class: TaskClass::latency_sensitive(),
                });
            }
        }
    }
    out
}

/// (dirty_us, clean_us, specs, skipped_on_clean): refresh latency with
/// every shard dirty, then with every shard clean (cache-served).
fn measure_refresh(repeat: u32) -> (u64, u64, usize, u64) {
    let config = Cpi2Config {
        min_samples_per_task: 10,
        ..Cpi2Config::default()
    };
    let samples = sample_load(256, 16, 12);
    let day_us = 24 * 3_600 * 1_000_000i64;
    let mut dirty_best = u64::MAX;
    let mut clean_best = u64::MAX;
    let mut specs = 0usize;
    let mut skipped = 0u64;
    for _ in 0..repeat.max(1) {
        let store = SpecStore::new();
        let mut agg = Aggregator::new(config.clone(), 0);
        agg.set_telemetry(&Telemetry::disabled());
        agg.ingest(&samples);

        let start = Instant::now();
        let published = agg.refresh_at(&store, day_us);
        dirty_best = dirty_best.min(start.elapsed().as_micros() as u64);
        specs = published.len();

        // No ingest since: every shard is clean and served from cache.
        let before = agg.shards_skipped();
        let start = Instant::now();
        let republished = agg.refresh_at(&store, 2 * day_us);
        clean_best = clean_best.min(start.elapsed().as_micros() as u64);
        skipped = agg.shards_skipped() - before;
        assert_eq!(
            published.len(),
            republished.len(),
            "incremental refresh changed the published spec count"
        );
    }
    (dirty_best, clean_best, specs, skipped)
}

/// Statistical-fleet-mode throughput: raw machine-ticks/sec simulating
/// the cells of a two-phase stratified sample (best of `repeat`). A
/// small fleet with short windows — the gate watches the sampled hot
/// path (stratifier, allocator, per-cell sim), not the statistics.
fn measure_sampled(repeat: u32) -> f64 {
    let model = FleetModel {
        machines: 10_000,
        seed: 0x5AFE,
        warmup: SimDuration::from_mins(5),
        measure: SimDuration::from_mins(10),
    };
    let cfg = SamplingConfig::with_budget(24);
    let mut best = 0.0f64;
    for _ in 0..repeat.max(1) {
        let start = Instant::now();
        let result = run_sampled(&model, &cfg, &mut |idx| simulate_cell(&model, idx));
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        let ticks = u64::from(result.estimator.cells_sampled()) * model.ticks_per_cell();
        best = best.max(ticks as f64 / wall);
    }
    best
}

fn main() {
    let args = Args::new();
    let machines: u32 = args.parsed("--machines", 400);
    let seconds: i64 = args.parsed("--seconds", 120);
    let seed: u64 = args.parsed("--seed", 0xF1EE7);
    let repeat: u32 = args.parsed("--repeat", 3);
    let out_path = args.value("--out").unwrap_or("BENCH_5.json").to_string();
    let baseline = args.value("--baseline").map(str::to_string);
    let max_regress: f64 = args.parsed("--max-regress", 0.30);

    println!("perf_gate: {machines} machines x {seconds} sim-s, seed {seed:#x}, best of {repeat}");
    let ticks_per_sec = measure_throughput(machines, seconds, seed, repeat);
    println!("  machine-ticks/sec (serial): {ticks_per_sec:.0}");

    let (dirty_us, clean_us, specs, skipped) = measure_refresh(repeat);
    println!("  spec refresh: dirty {dirty_us} us, clean {clean_us} us ({specs} specs, {skipped} shards cache-served)");

    let sampled_ticks_per_sec = measure_sampled(repeat);
    println!("  sampled-mode machine-ticks/sec (cell sims): {sampled_ticks_per_sec:.0}");

    let json = format!(
        "{{\n  \"bench\": \"perf_gate\",\n  \"machines\": {machines},\n  \"seconds\": {seconds},\n  \"seed\": {seed},\n  \"repeat\": {repeat},\n  \"machine_ticks_per_sec\": {ticks_per_sec:.0},\n  \"sampled_ticks_per_sec\": {sampled_ticks_per_sec:.0},\n  \"spec_refresh_dirty_us\": {dirty_us},\n  \"spec_refresh_clean_us\": {clean_us},\n  \"specs_published\": {specs},\n  \"shards_cache_served\": {skipped}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write results");
    println!("  wrote {out_path}");

    if let Some(base_path) = baseline {
        let baseline = Baseline::read(&base_path, max_regress);
        let Floor { base, floor } = baseline.required_floor("machine_ticks_per_sec");
        println!(
            "  baseline {base:.0} ticks/sec, floor {floor:.0} (max regress {:.0}%)",
            max_regress * 100.0
        );
        if ticks_per_sec < floor {
            eprintln!(
                "perf_gate FAIL: {ticks_per_sec:.0} ticks/sec is below the \
                 {floor:.0} floor ({base:.0} - {:.0}%)",
                max_regress * 100.0
            );
            std::process::exit(1);
        }
        // The sampled-mode gate only arms once the baseline records the
        // key — older committed baselines stay valid untouched.
        if let Some(Floor {
            base: base_sampled,
            floor: sampled_floor,
        }) = baseline.floor("sampled_ticks_per_sec")
        {
            println!("  sampled baseline {base_sampled:.0} ticks/sec, floor {sampled_floor:.0}");
            if sampled_ticks_per_sec < sampled_floor {
                eprintln!(
                    "perf_gate FAIL: sampled mode {sampled_ticks_per_sec:.0} ticks/sec is \
                     below the {sampled_floor:.0} floor"
                );
                std::process::exit(1);
            }
        }
        println!(
            "perf_gate OK (within {:.0}% of baseline)",
            max_regress * 100.0
        );
    } else {
        println!("perf_gate OK (no baseline given; gate not applied)");
    }
}
