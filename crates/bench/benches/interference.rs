//! Interference-model cost at 1/8/32 co-running tasks.
//!
//! `compute_cols` sits inside `Machine::tick`, the innermost loop of the
//! fleet simulator, so its per-call cost bounds simulator throughput. The
//! allocating array-of-structs `compute` is benchmarked beside it to show
//! what the columnar, buffer-reusing kernel saves.

use cpi2_sim::interference::{self, InterferenceParams, ProfileColumns, TaskLoad};
use cpi2_sim::{Platform, ResourceProfile};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn mixed_loads(n: usize) -> Vec<TaskLoad> {
    (0..n)
        .map(|i| {
            let profile = match i % 3 {
                0 => ResourceProfile::compute_bound(),
                1 => ResourceProfile::cache_heavy(),
                _ => ResourceProfile::streaming(),
            };
            TaskLoad {
                activity: 0.25 + (i % 5) as f64,
                profile,
            }
        })
        .collect()
}

/// Times `compute_cols` over `loads` split into columns, with output
/// buffers reused across iterations as the machine tick reuses them.
fn bench_cols(c: &mut Criterion, name: String, loads: &[TaskLoad]) {
    let platform = Platform::westmere();
    let params = InterferenceParams::default();
    let activity: Vec<f64> = loads.iter().map(|l| l.activity).collect();
    let mut cols = ProfileColumns::default();
    for l in loads {
        cols.push(&l.profile);
    }
    c.bench_function(name, |b| {
        let (mut cpi, mut mpki) = (Vec::new(), Vec::new());
        b.iter(|| {
            black_box(interference::compute_cols(
                &platform, &activity, &cols, &params, &mut cpi, &mut mpki,
            ))
        })
    });
}

fn bench_interference(c: &mut Criterion) {
    let platform = Platform::westmere();
    let params = InterferenceParams::default();

    for n in [1usize, 8, 32] {
        let loads = mixed_loads(n);

        c.bench_function(format!("interference/compute ({n} tasks)"), |b| {
            b.iter(|| black_box(interference::compute(&platform, &loads, &params)))
        });

        bench_cols(c, format!("interference/compute_cols ({n} tasks)"), &loads);
    }

    // The zero-activity fast path: what an all-idle machine pays per tick.
    let idle: Vec<TaskLoad> = mixed_loads(8)
        .into_iter()
        .map(|mut l| {
            l.activity = 0.0;
            l
        })
        .collect();
    bench_cols(c, "interference/compute_cols (8 idle tasks)".into(), &idle);
}

criterion_group!(benches, bench_interference);
criterion_main!(benches);
