//! The layer-stepped driver: the CPI² stack assembled from its public
//! parts and stepped in the same order as `Cpi2Harness::step`, with a
//! span around every call into a layer.
//!
//! It reproduces the harness for the configuration every workload runs
//! (no fault plan, protection on, no placement feedback, no chronic-victim
//! migration). A ledger is trusted only when its outcome digest
//! equals the plain harness's for the same seed and tick count.

use std::collections::HashMap;
use std::time::Instant;

use cpi2::core::{
    Agent, AgentCommand, Cpi2Config, CpiSample, TraceId, TraceLog, TraceSpan, TraceStage,
};
use cpi2::harness::{class_for, handle_for, task_for, MachineIncident};
use cpi2::perf::{ClusterSampler, CounterReading};
use cpi2::pipeline::{Aggregator, Collector, CollectorHandle, RetryQueue, SpecStore};
use cpi2::sim::{Cluster, MachineId, SimTime, TaskId};
use cpi2::telemetry::Telemetry;

use crate::scenario::{outcome_digest, System};

/// Wall time of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Wall nanoseconds inside the span.
    pub ns: u64,
}

impl Span {
    fn add(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos() as u64;
    }
}

/// Per-layer spans and counts accumulated while the ledger is on.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Ticks recorded.
    pub ticks: u64,
    /// Whole traced tick wall.
    pub tick: Span,
    /// `Cluster::step`.
    pub sim_step: Span,
    /// `Cluster::apply_hard_cap`.
    pub sim_cap: Span,
    /// Caps the cluster accepted.
    pub caps_applied: u64,
    /// Cap commands executed.
    pub caps_attempted: u64,
    /// `ClusterSampler::poll` plus conversion to samples.
    pub perf_poll: Span,
    /// Counter readings returned by the sampler.
    pub perf_readings: u64,
    /// `SpecStore::changed_since_with_age` + `Agent::install_spec_at`.
    pub core_sync: Span,
    /// Specs installed into agents.
    pub specs_installed: u64,
    /// `Agent::ingest`, `take_incidents`, `take_trace_spans`.
    pub core_ingest: Span,
    /// Samples handed to agents.
    pub core_samples: u64,
    /// Incidents taken from agents.
    pub core_incidents: u64,
    /// Cap commands returned by agents.
    pub core_commands: u64,
    /// `RetryQueue::send_or_queue` and `flush`.
    pub ship: Span,
    /// Sample batches shipped.
    pub batches: u64,
    /// Batches parked for retry.
    pub retries: u64,
    /// `Collector::drain_into`.
    pub drain: Span,
    /// Samples the aggregator ingested.
    pub samples_ingested: u64,
    /// `Aggregator::maybe_refresh`.
    pub refresh: Span,
    /// Refreshes that published.
    pub refreshes: u64,
    /// Specs published by those refreshes.
    pub specs_published: u64,
    /// Builder shards skipped (clean) during those refreshes.
    pub shards_skipped: u64,
    /// Collector drops plus abandoned batches during the ledger.
    pub dropped: u64,
}

impl Ledger {
    /// Σ of the named layer spans (everything but the tick itself).
    pub fn layers_ns(&self) -> u64 {
        [
            self.sim_step,
            self.sim_cap,
            self.perf_poll,
            self.core_sync,
            self.core_ingest,
            self.ship,
            self.drain,
            self.refresh,
        ]
        .iter()
        .map(|s| s.ns)
        .sum()
    }
}

/// The CPI² stack, stepped layer by layer.
pub struct Driver {
    cluster: Cluster,
    config: Cpi2Config,
    telemetry: Telemetry,
    sampler: ClusterSampler,
    agents: HashMap<MachineId, Agent>,
    agent_versions: HashMap<MachineId, u64>,
    aggregator: Aggregator,
    spec_store: SpecStore,
    collector: Collector,
    collector_handle: CollectorHandle,
    retry_queue: RetryQueue,
    incidents: Vec<MachineIncident>,
    trace_log: TraceLog,
    caps_applied: u64,
    /// Spans are recorded only while this is set.
    pub tracing: bool,
    /// The spans and counts recorded so far.
    pub ledger: Ledger,
}

/// Starts a span when tracing (no clock read otherwise).
fn start(on: bool) -> Option<Instant> {
    on.then(Instant::now)
}

fn stop(t: Option<Instant>, span: &mut Span) {
    if let Some(t) = t {
        span.add(t);
    }
}

impl Driver {
    /// Assembles the stack over `cluster` exactly as `Cpi2Harness::new`
    /// does.
    pub fn new(cluster: Cluster, config: Cpi2Config) -> Driver {
        let start_us = cluster.now().as_us();
        let telemetry = cluster.telemetry().clone();
        let collector =
            Collector::with_telemetry((cluster.machines().len() * 4).max(1024), &telemetry);
        let collector_handle = collector.handle();
        let mut aggregator = Aggregator::new(config.clone(), start_us);
        aggregator.set_telemetry(&telemetry);
        aggregator.set_dedup_horizon(Some(3_600_000_000));
        let mut spec_store = SpecStore::new();
        spec_store.set_telemetry(&telemetry);
        let mut retry_queue = RetryQueue::default();
        retry_queue.set_telemetry(&telemetry);
        Driver {
            sampler: ClusterSampler::with_telemetry(&telemetry),
            cluster,
            config,
            telemetry,
            agents: HashMap::new(),
            agent_versions: HashMap::new(),
            aggregator,
            spec_store,
            collector,
            collector_handle,
            retry_queue,
            incidents: Vec::new(),
            trace_log: TraceLog::default(),
            caps_applied: 0,
            tracing: false,
            ledger: Ledger::default(),
        }
    }

    /// One tick, in `Cpi2Harness::step` order.
    pub fn tick(&mut self) {
        let on = self.tracing;
        let tick_t = start(on);
        let dropped_before = self.collector.dropped() + self.retry_queue.abandoned_batches();
        let led = &mut self.ledger;

        let t = start(on);
        self.cluster.step();
        stop(t, &mut led.sim_step);
        let now = self.cluster.now();

        let mut pending_caps: Vec<(TaskId, f64, SimTime, TraceId)> = Vec::new();
        for i in 0..self.cluster.machines().len() {
            let machine = &self.cluster.machines()[i];
            let t = start(on);
            let readings = self.sampler.poll(machine, now);
            let batch: Vec<CpiSample> = readings
                .iter()
                .filter_map(|r| {
                    let task = machine.task(r.task)?;
                    Some(to_sample(r, class_for(task.class)))
                })
                .collect();
            stop(t, &mut led.perf_poll);
            if readings.is_empty() {
                continue;
            }
            led.perf_readings += readings.len() as u64;
            let machine_id = machine.id;

            let agent = self.agents.entry(machine_id).or_insert_with(|| {
                let mut a = Agent::new(self.config.clone());
                a.set_telemetry(&self.telemetry);
                a
            });
            let since = self.agent_versions.entry(machine_id).or_insert(0);
            let t = start(on);
            let store_version = self.spec_store.version();
            if *since < store_version {
                for (spec, published_at) in self.spec_store.changed_since_with_age(*since) {
                    agent.install_spec_at(spec, published_at);
                    led.specs_installed += 1;
                }
                *since = store_version;
            }
            stop(t, &mut led.core_sync);

            let t = start(on);
            let commands = agent.ingest(&batch);
            let incidents = agent.take_incidents();
            let spans = agent.take_trace_spans();
            stop(t, &mut led.core_ingest);
            led.core_samples += batch.len() as u64;
            led.core_incidents += incidents.len() as u64;
            led.core_commands += commands.len() as u64;
            self.incidents
                .extend(incidents.into_iter().map(|incident| MachineIncident {
                    machine: machine_id,
                    incident,
                }));
            for span in spans {
                self.trace_log.record(span);
            }
            for cmd in commands {
                let AgentCommand::ApplyHardCap {
                    target,
                    cpu_rate,
                    until,
                    trace,
                    ..
                } = cmd;
                pending_caps.push((task_for(target), cpu_rate, SimTime(until), trace));
            }

            let t = start(on);
            let delivered =
                self.retry_queue
                    .send_or_queue(&self.collector_handle, batch, now.as_us());
            stop(t, &mut led.ship);
            led.batches += 1;
            led.retries += u64::from(!delivered);
        }

        let t = start(on);
        self.retry_queue.flush(&self.collector_handle, now.as_us());
        stop(t, &mut led.ship);

        let t = start(on);
        led.samples_ingested += self.collector.drain_into(&mut self.aggregator) as u64;
        stop(t, &mut led.drain);

        for (task, rate, until, trace) in pending_caps {
            let t = start(on);
            let ok = self.cluster.apply_hard_cap(task, rate, until);
            stop(t, &mut led.sim_cap);
            led.caps_attempted += 1;
            if ok {
                self.caps_applied += 1;
                led.caps_applied += 1;
                let span = TraceSpan {
                    trace,
                    stage: TraceStage::Amelioration,
                    start_us: now.as_us(),
                    end_us: until.as_us(),
                    detail: format!(
                        "hard_cap task={}/{} rate={rate} until={}",
                        task.job.0,
                        task.index,
                        until.as_us()
                    ),
                };
                self.telemetry.event("trace", || span.event_line());
                self.trace_log.record(span);
            }
        }

        let skipped_before = self.aggregator.shards_skipped();
        let t = start(on);
        let refreshed = self.aggregator.maybe_refresh(now.as_us(), &self.spec_store);
        stop(t, &mut led.refresh);
        if let Some(specs) = refreshed {
            led.refreshes += 1;
            led.specs_published += specs.len() as u64;
            led.shards_skipped += self.aggregator.shards_skipped() - skipped_before;
        }

        if on {
            led.dropped +=
                self.collector.dropped() + self.retry_queue.abandoned_batches() - dropped_before;
            led.ticks += 1;
        }
        stop(tick_t, &mut led.tick);
    }

    /// Builder shards per refresh (for the clean-shard ratio).
    pub fn spec_shards(&self) -> usize {
        self.aggregator.builder().num_shards()
    }
}

impl System for Driver {
    fn step(&mut self) {
        self.tick();
    }
    fn force_spec_refresh(&mut self) {
        self.aggregator
            .refresh_at(&self.spec_store, self.cluster.now().as_us());
    }
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }
    fn incidents(&self) -> &[MachineIncident] {
        &self.incidents
    }
    fn traces(&self) -> usize {
        self.trace_log.len()
    }
    fn digest(&self) -> u64 {
        outcome_digest(
            &self.incidents,
            self.caps_applied,
            self.spec_store.version(),
            self.collector.dropped(),
        )
    }
}

/// The harness's reading → sample conversion.
fn to_sample(r: &CounterReading, class: cpi2::core::TaskClass) -> CpiSample {
    CpiSample {
        task: handle_for(r.task),
        jobname: r.job_name.clone(),
        platforminfo: r.platform.clone(),
        timestamp: r.timestamp.as_us(),
        cpu_usage: r.cpu_usage,
        cpi: r.cpi.unwrap_or(0.0),
        l3_mpki: r.l3_mpki,
        class,
    }
}
