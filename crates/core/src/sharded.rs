//! Sharded spec building for parallel sample ingest.
//!
//! The aggregation service of Fig. 6 receives the cluster-wide sample
//! stream; one [`SpecBuilder`] behind a single lock becomes the choke
//! point once many collector threads feed it. [`ShardedSpecBuilder`]
//! partitions the builder by a stable hash of the (job, platform) key, so
//! concurrent ingest threads contend only when they carry samples for the
//! same shard. Because every key lives wholly inside one shard, merging
//! the per-shard spec sets reproduces exactly what one unsharded builder
//! would emit for the same sample stream (property-tested in the
//! workspace test suite).

use crate::config::Cpi2Config;
use crate::sample::{CpiSample, JobKey};
use crate::spec::CpiSpec;
use crate::specbuilder::SpecBuilder;
use cpi2_telemetry::sync::MutexExt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Default shard count for the aggregation service.
pub const DEFAULT_SPEC_SHARDS: usize = 8;

/// FNV-1a over the key fields; stable across processes and platforms so
/// shard routing (and therefore any routing-dependent telemetry) is
/// reproducible run to run.
fn shard_of(job: &str, platform: &str, shards: usize) -> usize {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in job
        .bytes()
        .chain(std::iter::once(0xff))
        .chain(platform.bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % shards as u64) as usize
}

/// One partition of a [`ShardedSpecBuilder`].
#[derive(Debug)]
struct Shard {
    builder: Mutex<SpecBuilder>,
    /// Set (under the builder lock) whenever the shard ingests a sample;
    /// cleared by [`ShardedSpecBuilder::roll_period`] when the shard is
    /// rebuilt. A clean shard's roll is skipped: rolling an empty current
    /// period never touches [`SpecBuilder`] history, so its output is
    /// exactly the cached previous output.
    dirty: AtomicBool,
    /// The shard's spec set as of its last roll.
    rolled: Mutex<Vec<CpiSpec>>,
}

/// A [`SpecBuilder`] partitioned into independently locked shards keyed
/// by (job, platform), with dirty-shard tracking so idle shards are not
/// rebuilt at refresh time.
///
/// Shared-reference methods take per-shard locks, so the builder can be
/// ingested into from many threads at once. [`roll_period`] and
/// [`specs`](ShardedSpecBuilder::specs) merge the shard outputs back into
/// the same sorted spec set a single [`SpecBuilder`] would produce.
///
/// [`roll_period`]: ShardedSpecBuilder::roll_period
///
/// # Examples
///
/// ```
/// use cpi2_core::{Cpi2Config, CpiSample, ShardedSpecBuilder, TaskClass, TaskHandle};
///
/// let mut config = Cpi2Config::default();
/// config.min_samples_per_task = 10;
/// let builder = ShardedSpecBuilder::new(config, 4);
/// for task in 0..5u64 {
///     for minute in 0..20 {
///         builder.add_sample(&CpiSample {
///             task: TaskHandle(task),
///             jobname: "websearch".into(),
///             platforminfo: "westmere".into(),
///             timestamp: minute * 60_000_000,
///             cpu_usage: 1.0,
///             cpi: 1.8,
///             l3_mpki: 0.0,
///             class: TaskClass::latency_sensitive(),
///         });
///     }
/// }
/// let specs = builder.roll_period();
/// assert_eq!(specs.len(), 1);
/// assert!((specs[0].cpi_mean - 1.8).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct ShardedSpecBuilder {
    shards: Vec<Shard>,
    /// Wall-clock µs each shard spends producing its spec set in
    /// [`roll_period`](Self::roll_period) / [`specs`](Self::specs);
    /// disabled by default.
    shard_build_us: cpi2_telemetry::Histo,
    /// Shards whose rebuild was skipped because nothing was ingested since
    /// their last roll (also exported as `cpi_spec_shards_skipped_total`).
    skipped: AtomicU64,
    skipped_counter: cpi2_telemetry::Counter,
}

impl ShardedSpecBuilder {
    /// Creates a builder with `shards` independently locked partitions
    /// (clamped to at least one).
    pub fn new(config: Cpi2Config, shards: usize) -> Self {
        let n = shards.max(1);
        ShardedSpecBuilder {
            shards: (0..n)
                .map(|_| Shard {
                    builder: Mutex::new(SpecBuilder::new(config.clone())),
                    // A fresh shard rolls to an empty spec set, which is
                    // exactly the initial cache — so it starts clean.
                    dirty: AtomicBool::new(false),
                    rolled: Mutex::new(Vec::new()),
                })
                .collect(),
            shard_build_us: cpi2_telemetry::Histo::default(),
            skipped: AtomicU64::new(0),
            skipped_counter: cpi2_telemetry::Counter::default(),
        }
    }

    /// Attaches telemetry: records per-shard spec-build duration under
    /// `cpi_spec_build_shard_duration_us` and skipped shard rebuilds under
    /// `cpi_spec_shards_skipped_total`.
    pub fn set_telemetry(&mut self, telemetry: &cpi2_telemetry::Telemetry) {
        self.shard_build_us = telemetry.histogram("cpi_spec_build_shard_duration_us", &[]);
        self.skipped_counter = telemetry.counter("cpi_spec_shards_skipped_total", &[]);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard rebuilds skipped so far because the shard ingested nothing
    /// since its last roll.
    pub fn shards_skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Routes one sample to its shard and adds it to the current period.
    pub fn add_sample(&self, sample: &CpiSample) {
        let idx = shard_of(&sample.jobname, &sample.platforminfo, self.shards.len());
        // idx is h % shards.len(); `get` makes in-bounds locally evident.
        let Some(shard) = self.shards.get(idx) else {
            return;
        };
        let mut b = shard.builder.locked();
        b.add_sample(sample);
        // Under the lock, so a concurrent roll either sees the flag or
        // has not yet consumed the sample.
        shard.dirty.store(true, Ordering::Release);
    }

    /// Adds a batch, taking each shard's lock at most once.
    ///
    /// Samples are pre-bucketed by shard, which preserves the relative
    /// order of samples sharing a key — so the resulting state matches
    /// feeding the batch to [`add_sample`](Self::add_sample) one by one.
    pub fn ingest_batch(&self, samples: &[CpiSample]) {
        let n = self.shards.len();
        let mut buckets: Vec<Vec<&CpiSample>> = vec![Vec::new(); n];
        for s in samples {
            // shard_of returns h % n, so the bucket always exists.
            if let Some(bucket) = buckets.get_mut(shard_of(&s.jobname, &s.platforminfo, n)) {
                bucket.push(s);
            }
        }
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            let mut b = shard.builder.locked();
            for s in bucket {
                b.add_sample(s);
            }
            shard.dirty.store(true, Ordering::Release);
        }
    }

    /// Number of samples accumulated in the current period for a key.
    pub fn period_samples(&self, key: &JobKey) -> u64 {
        let idx = shard_of(&key.job, &key.platform, self.shards.len());
        // idx is h % shards.len(); an out-of-range shard means no samples.
        self.shards
            .get(idx)
            .map_or(0, |s| s.builder.locked().period_samples(key))
    }

    /// Folds the current period into history on every *dirty* shard and
    /// returns the merged, refreshed spec set (sorted by job then
    /// platform, like [`SpecBuilder::roll_period`]).
    ///
    /// Shards that ingested nothing since their last roll are not rebuilt;
    /// their cached previous output is reused. This is exact, not an
    /// approximation: [`SpecBuilder::roll_period`] folds only the keys in
    /// the current period, so rolling an empty period leaves history (and
    /// therefore the spec set) untouched.
    pub fn roll_period(&self) -> Vec<CpiSpec> {
        let mut out: Vec<CpiSpec> = Vec::new();
        for shard in &self.shards {
            let timer = self.shard_build_us.timer();
            if shard.dirty.swap(false, Ordering::AcqRel) {
                let rolled = shard.builder.locked().roll_period();
                out.extend(rolled.iter().cloned());
                *shard.rolled.locked() = rolled;
            } else {
                self.skipped.fetch_add(1, Ordering::Relaxed);
                self.skipped_counter.inc();
                out.extend(shard.rolled.locked().iter().cloned());
            }
            timer.stop();
        }
        Self::sort_specs(&mut out);
        out
    }

    /// Current merged spec set from history (only eligible keys).
    pub fn specs(&self) -> Vec<CpiSpec> {
        let mut out: Vec<CpiSpec> = Vec::new();
        for shard in &self.shards {
            let timer = self.shard_build_us.timer();
            out.extend(shard.builder.locked().specs());
            timer.stop();
        }
        Self::sort_specs(&mut out);
        out
    }

    /// Keys are disjoint across shards, so a plain re-sort reproduces
    /// the unsharded builder's ordering exactly.
    fn sort_specs(out: &mut [CpiSpec]) {
        out.sort_by(|a, b| {
            (a.jobname.as_str(), a.platforminfo.as_str())
                .cmp(&(b.jobname.as_str(), b.platforminfo.as_str()))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{TaskClass, TaskHandle};

    fn sample(job: &str, platform: &str, task: u64, cpi: f64) -> CpiSample {
        CpiSample {
            task: TaskHandle(task),
            jobname: job.into(),
            platforminfo: platform.into(),
            timestamp: 0,
            cpu_usage: 1.0,
            cpi,
            l3_mpki: 1.0,
            class: TaskClass::batch(),
        }
    }

    fn config() -> Cpi2Config {
        Cpi2Config {
            min_samples_per_task: 10,
            ..Cpi2Config::default()
        }
    }

    #[test]
    fn matches_unsharded_builder() {
        let sharded = ShardedSpecBuilder::new(config(), 4);
        let mut plain = SpecBuilder::new(config());
        let jobs = ["websearch", "maps", "batchjob", "video"];
        for (j, job) in jobs.iter().enumerate() {
            for t in 0..6u64 {
                for i in 0..15 {
                    let s = sample(
                        job,
                        "westmere",
                        t,
                        1.0 + j as f64 * 0.25 + 0.01 * (i % 3) as f64,
                    );
                    sharded.add_sample(&s);
                    plain.add_sample(&s);
                }
            }
        }
        assert_eq!(sharded.roll_period(), plain.roll_period());
        assert_eq!(sharded.specs(), plain.specs());
    }

    #[test]
    fn batch_ingest_matches_single_sample_path() {
        let a = ShardedSpecBuilder::new(config(), 3);
        let b = ShardedSpecBuilder::new(config(), 3);
        let batch: Vec<CpiSample> = (0..6u64)
            .flat_map(|t| (0..12).map(move |i| sample("j", "p", t, 1.5 + 0.01 * (i % 5) as f64)))
            .collect();
        a.ingest_batch(&batch);
        for s in &batch {
            b.add_sample(s);
        }
        assert_eq!(a.roll_period(), b.roll_period());
    }

    #[test]
    fn routing_is_stable() {
        let n = 7;
        let first = shard_of("job-a", "westmere", n);
        for _ in 0..100 {
            assert_eq!(shard_of("job-a", "westmere", n), first);
        }
        // The separator byte keeps ("ab", "c") and ("a", "bc") apart.
        assert_ne!(
            shard_of("ab", "c", usize::MAX),
            shard_of("a", "bc", usize::MAX)
        );
    }

    #[test]
    fn concurrent_ingest() {
        use std::sync::Arc;
        let b = Arc::new(ShardedSpecBuilder::new(config(), 4));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        b.add_sample(&sample("shared", "p", t, 1.0 + 0.001 * (i % 10) as f64));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.period_samples(&JobKey::new("shared", "p")), 400);
    }

    #[test]
    fn clean_shards_skip_rebuild_with_identical_output() {
        let sharded = ShardedSpecBuilder::new(config(), 4);
        let mut plain = SpecBuilder::new(config());
        for job in ["websearch", "maps", "batchjob", "video"] {
            for t in 0..6u64 {
                for i in 0..15 {
                    let s = sample(job, "westmere", t, 1.2 + 0.01 * (i % 3) as f64);
                    sharded.add_sample(&s);
                    plain.add_sample(&s);
                }
            }
        }
        assert_eq!(sharded.roll_period(), plain.roll_period());
        // A refresh with no new samples skips every shard yet still
        // reproduces the unsharded builder exactly.
        let before = sharded.shards_skipped();
        assert_eq!(sharded.roll_period(), plain.roll_period());
        assert_eq!(sharded.shards_skipped() - before, 4);
    }

    #[test]
    fn ingest_redirties_only_touched_shards() {
        let sharded = ShardedSpecBuilder::new(config(), 4);
        let mut plain = SpecBuilder::new(config());
        for job in ["websearch", "maps", "batchjob", "video"] {
            for t in 0..6u64 {
                for i in 0..15 {
                    let s = sample(job, "westmere", t, 1.2 + 0.01 * (i % 3) as f64);
                    sharded.add_sample(&s);
                    plain.add_sample(&s);
                }
            }
        }
        sharded.roll_period();
        plain.roll_period();
        // New samples for one key dirty exactly one shard; the other
        // three are served from cache, and the merged output still
        // matches the unsharded builder (whose untouched keys keep their
        // previous-period eligibility).
        for t in 0..6u64 {
            for i in 0..15 {
                let s = sample("websearch", "westmere", t, 1.5 + 0.01 * (i % 3) as f64);
                sharded.add_sample(&s);
                plain.add_sample(&s);
            }
        }
        let before = sharded.shards_skipped();
        assert_eq!(sharded.roll_period(), plain.roll_period());
        assert_eq!(sharded.shards_skipped() - before, 3);
        // Batch ingest dirties shards the same way.
        let batch: Vec<CpiSample> = (0..6u64)
            .flat_map(|t| {
                (0..15).map(move |i| sample("maps", "westmere", t, 1.1 + 0.01 * (i % 3) as f64))
            })
            .collect();
        sharded.ingest_batch(&batch);
        for s in &batch {
            plain.add_sample(s);
        }
        let before = sharded.shards_skipped();
        assert_eq!(sharded.roll_period(), plain.roll_period());
        assert_eq!(sharded.shards_skipped() - before, 3);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let b = ShardedSpecBuilder::new(config(), 0);
        assert_eq!(b.num_shards(), 1);
        b.add_sample(&sample("j", "p", 0, 1.0));
        assert_eq!(b.period_samples(&JobKey::new("j", "p")), 1);
    }
}
