//! The three workloads: how each fleet is built from a seed, how it is
//! set up (spec learning and warm-up), and the ground truth its
//! identifications are scored against.
//!
//! Every workload runs set-up, then a bare measured window of
//! `window_ticks` harness ticks. `serve_mixed` then adds a served phase
//! in which the same harness ticks at a fixed rate behind the HTTP
//! control plane while an open-loop generator drives it. The fixed
//! numbers of each workload live in [`Plan`].

use cpi2::core::{Cpi2Config, IdentifierKind};
use cpi2::harness::{task_for, Cpi2Harness, MachineIncident};
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, ModelFactory, Platform, ResourceProfile};
use cpi2::stats::rng::SimRng;
use cpi2::telemetry::Telemetry;
use cpi2::workloads::{self, LsService, TraceJob};
use std::collections::BTreeSet;

/// Job names of the antagonists a workload injects; an identification
/// is correct when its top suspect belongs to one of them.
pub const ANTAGONISTS: [&str; 2] = ["cache-thrasher", "membw-hog"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §7 deployment regime: a sparse fleet, one day of spec
    /// learning, then most of a day with transient thrashers.
    FleetDay,
    /// Dense machines at the paper's tenancy with hourly spec refresh,
    /// PANDA identification and a stream of antagonists.
    FleetDense,
    /// A large typical-mix fleet behind the control plane under load.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order the combined run uses.
    pub const ALL: [Workload; 3] = [
        Workload::FleetDay,
        Workload::FleetDense,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDay => "fleet_day",
            Workload::FleetDense => "fleet_dense",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed numbers.
    pub fn plan(self) -> Plan {
        match self {
            Workload::FleetDay => Plan {
                machines: 32,
                window_ticks: 22 * 3_600,
                min_reps: 3,
                serve: None,
            },
            Workload::FleetDense => Plan {
                machines: 32,
                window_ticks: 3 * 3_600,
                min_reps: 10,
                serve: None,
            },
            Workload::ServeMixed => Plan {
                machines: 2_000,
                window_ticks: 4_800,
                min_reps: 3,
                serve: Some(ServePlan {
                    tick_hz: 75.0,
                    lo_rps: 150.0,
                    hi_rps: 300.0,
                    lo_share: 0.2,
                    hi_share: 0.3,
                    ladder: ladder(700.0, 10),
                    step_share: 0.075,
                    p99_limit_ms: 250.0,
                }),
            },
        }
    }

    /// The CPI² configuration the workload's harness runs.
    pub fn config(self) -> Cpi2Config {
        match self {
            Workload::FleetDay | Workload::ServeMixed => Cpi2Config {
                min_samples_per_task: 5,
                ..Cpi2Config::default()
            },
            Workload::FleetDense => Cpi2Config {
                min_samples_per_task: 5,
                auto_throttle: true,
                spec_refresh_hours: 1,
                identifier: IdentifierKind::Panda,
                ..Cpi2Config::default()
            },
        }
    }
}

/// `n` ladder rungs from `from`, each 12 % above the last (rounded to
/// 10 requests/s).
pub fn ladder(from: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (from * 1.12f64.powi(i as i32) / 10.0).round() * 10.0)
        .collect()
}

/// Fixed numbers of one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Fleet size.
    pub machines: u32,
    /// Bare harness ticks measured after each set-up.
    pub window_ticks: u64,
    /// Fewest repetitions (set-up plus window) in an untraced run; more
    /// follow until the windows have used the run's seconds. A cheap
    /// repetition gets more of them, so that its run, too, spans enough
    /// wall time to see the host at full speed.
    pub min_reps: usize,
    /// The served phase, on the workload that serves.
    pub serve: Option<ServePlan>,
}

/// Fixed rates of the served phase.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Writer tick rate while serving, ticks per wall second.
    pub tick_hz: f64,
    /// The low fixed arrival rate, requests/s.
    pub lo_rps: f64,
    /// The high fixed arrival rate, requests/s.
    pub hi_rps: f64,
    /// Share of the run's seconds spent at `lo_rps`.
    pub lo_share: f64,
    /// Share of the run's seconds spent at `hi_rps`.
    pub hi_share: f64,
    /// The capacity ladder, ascending, requests/s.
    pub ladder: Vec<f64>,
    /// Share of the run's seconds per ladder rung.
    pub step_share: f64,
    /// The p99 latency limit of a ladder rung, ms.
    pub p99_limit_ms: f64,
}

impl ServePlan {
    /// Wall seconds of the low phase, the high phase and one ladder rung
    /// in a run of `seconds`.
    pub fn durations(&self, seconds: f64) -> (f64, f64, f64) {
        (
            self.lo_share * seconds,
            self.hi_share * seconds,
            self.step_share * seconds,
        )
    }

    /// Writer ticks in a phase of `secs` wall seconds.
    pub fn ticks(&self, secs: f64) -> u64 {
        (secs * self.tick_hz).round() as u64
    }

    /// Writer ticks of the two fixed-rate phases of a run of `seconds`
    /// (what the traced driver replays).
    pub fn fixed_rate_ticks(&self, seconds: f64) -> u64 {
        let (lo, hi, _) = self.durations(seconds);
        self.ticks(lo) + self.ticks(hi)
    }
}

/// Builds the workload's cluster (telemetry on, serial sim path) with
/// every job and the seeded antagonist schedule submitted.
pub fn build_cluster(w: Workload, seed: u64) -> Cluster {
    let plan = w.plan();
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        overcommit: 2.0,
        parallelism: 1,
        telemetry: Telemetry::enabled(),
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), plan.machines);
    let mut rng = SimRng::new(seed ^ 0x000A_7A60_4157);
    match w {
        Workload::FleetDay => {
            let m = plan.machines;
            // Sparse serving load, one serving task per machine on
            // average, plus about two small tenants per machine. Every
            // machine the scheduler may pick for an antagonist then hosts
            // a task a thrasher can hurt, so recall does not hinge on
            // whether a seed's emptiest machine holds only tenants.
            for (name, frac, cpu) in [
                ("websearch-leaf", 0.35f64, 2.0),
                ("bigtable-tablet", 0.35, 1.2),
                ("storage-server", 0.30, 1.0),
            ] {
                let tasks = ((m as f64 * frac) as u32).max(6);
                submit(
                    &mut cluster,
                    JobSpec::latency_sensitive(name, tasks, cpu),
                    workloads::factory(name, seed ^ 0xFEE ^ tasks as u64),
                );
            }
            submit_tenants(&mut cluster, m * 2, 0.2, 0.5, 6, seed);
            // 16 transient thrashers over hours 25–44 of the run, each
            // gone before the window ends.
            let trace: Vec<TraceJob> = (0..16usize)
                .map(|_| {
                    antagonist(
                        &mut rng,
                        ANTAGONISTS[0],
                        25 * 3_600,
                        19 * 3_600,
                        1_800,
                        3_600,
                    )
                })
                .collect();
            workloads::schedule_trace(&mut cluster, &trace);
        }
        Workload::FleetDense => {
            // A cache-sensitive victim service and a swarm of tiny
            // tenants: 31 tasks per machine.
            submit_victims(&mut cluster, plan.machines, seed);
            submit_tenants(&mut cluster, plan.machines * 30, 0.02, 0.05, 1, seed);
            // An antagonist about every simulated minute through the
            // first hour after specs exist; the last leaves more than an
            // hour before the window ends, so every one can be caught.
            let trace: Vec<TraceJob> = (0..60usize)
                .map(|i| {
                    let mut job = antagonist(&mut rng, ANTAGONISTS[i % 2], 0, 0, 600, 1_800);
                    job.at_s = 2 * 3_600 + i as i64 * 60 + rng.range_u64(0, 75) as i64;
                    job
                })
                .collect();
            workloads::schedule_trace(&mut cluster, &trace);
        }
        Workload::ServeMixed => {
            submit_victims(&mut cluster, plan.machines, seed);
            // Antagonists land in the quarter hour after the forced
            // refresh, and all have time to be caught before scoring.
            let trace: Vec<TraceJob> = (0..48usize)
                .map(|i| antagonist(&mut rng, ANTAGONISTS[i % 2], 16 * 60, 14 * 60, 1_200, 2_400))
                .collect();
            workloads::schedule_trace(&mut cluster, &trace);
        }
    }
    cluster
}

fn submit(cluster: &mut Cluster, spec: JobSpec, factory: ModelFactory) {
    cluster
        .submit_job(spec, true, factory)
        .expect("workload fleet has room for its jobs");
}

/// `tasks` small serving tenants of `cpu` cores and `cache_mb` footprint.
fn submit_tenants(
    cluster: &mut Cluster,
    tasks: u32,
    cpu: f64,
    cache_mb: f64,
    threads: u32,
    seed: u64,
) {
    submit(
        cluster,
        JobSpec::latency_sensitive("tenant", tasks, cpu),
        Box::new(move |i| {
            let mut p = ResourceProfile::compute_bound();
            p.cache_mb = cache_mb;
            Box::new(LsService::new(p, cpu, threads, seed ^ 0x7E ^ i as u64))
        }),
    );
}

/// A cache-sensitive serving job with one task per machine.
fn submit_victims(cluster: &mut Cluster, tasks: u32, seed: u64) {
    submit(
        cluster,
        JobSpec::latency_sensitive("victim", tasks, 1.2),
        Box::new(move |i| {
            Box::new(LsService::new(
                ResourceProfile::cache_heavy(),
                1.2,
                12,
                seed ^ 0x51C ^ (i as u64) << 8,
            ))
        }),
    );
}

/// One single-task antagonist `name` arriving in `[from_s, from_s +
/// span_s]` and living `[min_life_s, max_life_s]` seconds.
fn antagonist(
    rng: &mut SimRng,
    name: &str,
    from_s: u64,
    span_s: u64,
    min_life_s: u64,
    max_life_s: u64,
) -> TraceJob {
    TraceJob {
        at_s: (from_s + rng.range_u64(0, span_s.max(1))) as i64,
        name: name.into(),
        class: "batch".into(),
        tasks: 1,
        cpu: 1.0,
        seed: rng.next_u64(),
        duration_s: Some(rng.range_u64(min_life_s, max_life_s) as i64),
    }
}

/// What set-up and the measured phases need from a running system; the
/// plain harness and the layer-stepped driver both provide it.
pub trait System {
    /// One harness tick.
    fn step(&mut self);
    /// Forces a spec refresh and distribution.
    fn force_spec_refresh(&mut self);
    /// The cluster under management.
    fn cluster(&self) -> &Cluster;
    /// Every incident so far.
    fn incidents(&self) -> &[MachineIncident];
    /// Incident traces recorded so far.
    fn traces(&self) -> usize;
    /// Outcome digest: incident lines, caps, spec-store version and
    /// collector drops.
    fn digest(&self) -> u64;
}

impl System for Cpi2Harness {
    fn step(&mut self) {
        Cpi2Harness::step(self);
    }
    fn force_spec_refresh(&mut self) {
        Cpi2Harness::force_spec_refresh(self);
    }
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }
    fn incidents(&self) -> &[MachineIncident] {
        Cpi2Harness::incidents(self)
    }
    fn traces(&self) -> usize {
        self.trace_log().len()
    }
    fn digest(&self) -> u64 {
        outcome_digest(
            Cpi2Harness::incidents(self),
            self.caps_applied(),
            self.spec_store.version(),
            self.collector_dropped(),
        )
    }
}

/// Runs a workload's set-up on a freshly built system: spec learning,
/// a forced refresh, and (serve_mixed) warm-up until incidents and
/// traces exist. Deterministic for a given seed.
pub fn set_up<S: System>(w: Workload, system: &mut S) {
    let run = |s: &mut S, ticks: u64| (0..ticks).for_each(|_| s.step());
    match w {
        Workload::FleetDay => {
            // One clean day: the spec σ must absorb the diurnal swing.
            run(system, 24 * 3_600);
            system.force_spec_refresh();
        }
        Workload::FleetDense => {
            // Two hourly refreshes' worth of samples.
            run(system, 2 * 3_600);
            system.force_spec_refresh();
        }
        Workload::ServeMixed => {
            // Learn for a quarter hour, then run until the antagonists
            // have been at work long enough for /incidents and the
            // trace log to fill.
            run(system, 15 * 60);
            system.force_spec_refresh();
            run(system, 30 * 60);
        }
    }
}

/// Renders one incident as the harness's golden-trace line (the format
/// of `Cpi2Harness::incident_lines`).
pub fn incident_line(mi: &MachineIncident) -> String {
    use cpi2::core::IncidentAction;
    let inc = &mi.incident;
    let suspect = inc
        .top_suspect()
        .map(|s| format!("{}@{:.3}", s.jobname, s.correlation))
        .unwrap_or_else(|| "-".to_string());
    let (action, target) = match &inc.action {
        IncidentAction::HardCap {
            target,
            target_job,
            cpu_rate,
            ..
        } => (
            "hard_cap",
            format!("{}:{}@{}", target.0, target_job, cpu_rate),
        ),
        IncidentAction::None { reason } => ("none", reason.clone()),
    };
    format!(
        "t={} machine={} victim={}/{} cpi={:.4} suspect={} action={} target={}",
        inc.at, mi.machine.0, inc.victim.0, inc.victim_job, inc.victim_cpi, suspect, action, target
    )
}

/// FNV-1a over the incident lines, caps applied, spec-store version and
/// collector drop count.
pub fn outcome_digest(
    incidents: &[MachineIncident],
    caps_applied: u64,
    spec_version: u64,
    collector_dropped: u64,
) -> u64 {
    let mut h = Fnv::default();
    for mi in incidents {
        h.write(incident_line(mi).as_bytes());
        h.write(b"\n");
    }
    for n in [caps_applied, spec_version, collector_dropped] {
        h.write(&n.to_le_bytes());
    }
    h.0
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Identification accuracy against the injected antagonists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Identifications (confident, throttle-eligible top suspect).
    pub identifications: usize,
    /// Identifications whose top suspect is an injected antagonist.
    pub correct: usize,
    /// Injected antagonist tasks.
    pub injected: usize,
    /// Injected tasks named by at least one identification.
    pub found: usize,
}

impl Accuracy {
    /// Scores a run's incidents against the cluster's injected jobs.
    pub fn score(system: &dyn System, correlation_threshold: f64) -> Accuracy {
        Accuracy::score_since(system, correlation_threshold, i64::MIN)
    }

    /// Like [`score`](Self::score), counting only incidents reported at
    /// or after `since_us`.
    pub fn score_since(system: &dyn System, correlation_threshold: f64, since_us: i64) -> Accuracy {
        let cluster = system.cluster();
        let injected_jobs: BTreeSet<u32> = cluster
            .jobs()
            .filter(|(_, spec)| ANTAGONISTS.contains(&spec.name.as_str()))
            .map(|(id, _)| id.0)
            .collect();
        let injected: usize = cluster
            .jobs()
            .filter(|(id, _)| injected_jobs.contains(&id.0))
            .map(|(_, spec)| spec.task_count as usize)
            .sum();
        let mut identifications = 0;
        let mut correct = 0;
        let mut found = BTreeSet::new();
        for mi in system
            .incidents()
            .iter()
            .filter(|mi| mi.incident.at >= since_us)
        {
            let Some(s) = mi.incident.top_suspect() else {
                continue;
            };
            if !s.class.throttle_eligible() || s.correlation < correlation_threshold {
                continue;
            }
            identifications += 1;
            let task = task_for(s.task);
            if injected_jobs.contains(&task.job.0) {
                correct += 1;
                found.insert((task.job.0, task.index));
            }
        }
        Accuracy {
            identifications,
            correct,
            injected,
            found: found.len(),
        }
    }

    /// Correct identifications ÷ identifications (1 when there are none).
    pub fn precision(&self) -> f64 {
        if self.identifications == 0 {
            1.0
        } else {
            self.correct as f64 / self.identifications as f64
        }
    }

    /// Injected tasks found ÷ injected tasks.
    pub fn recall(&self) -> f64 {
        self.found as f64 / self.injected.max(1) as f64
    }
}
