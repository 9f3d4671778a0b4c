//! Shared state between the ticking harness and the request handlers.
//!
//! The contract mirrors the spec store's snapshot-swap pattern: the
//! harness thread publishes immutable state after every tick and swaps
//! it in under a short mutex; request handlers clone `Arc`s out and
//! read without ever blocking the tick loop or observing a torn view.
//! Operator actions flow the other way through the [`ActionQueue`] and
//! are applied only at the next tick boundary, so a resident server
//! perturbs neither tick ordering nor determinism.
//!
//! At fleet scale the per-tick publish is a [`DeltaSnapshot`] — only
//! the machines whose fingerprint changed, appended incidents/samples,
//! spec bumps, and grown traces — layered over a periodic full
//! [`LiveSnapshot`] base, so the tick thread pays for churn, not fleet
//! size. Handlers reconstruct the merged view lazily ([`LiveState::snapshot`]);
//! the merge runs at most once per publish (cached) and happens on a
//! request thread, never the tick thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cpi2::core::{CpiSample, CpiSpec};
use cpi2::telemetry::sync::MutexExt;
use cpi2::telemetry::Telemetry;
use serde::Serialize;
use std::sync::Mutex;

/// One resident task, as seen on a machine page.
#[derive(Debug, Clone, Serialize)]
pub struct TaskView {
    /// Owning job id.
    pub job: u32,
    /// Task index within the job.
    pub index: u32,
    /// Job name (the `jobname` of CPI records).
    pub job_name: String,
    /// Scheduling class (`LatencySensitive` / `Batch` / `BestEffort`).
    pub class: String,
    /// Runnable threads as of the last tick.
    pub threads: u32,
}

/// One machine's live summary.
#[derive(Debug, Clone, Serialize)]
pub struct MachineView {
    /// Machine id.
    pub id: u32,
    /// Resident task count.
    pub tasks: usize,
    /// Total runnable threads.
    pub threads: u64,
    /// CPU utilization, 0..1+.
    pub utilization: f64,
    /// Hard-cap throttle events since boot.
    pub throttle_events: u64,
    /// The resident tasks.
    pub task_list: Vec<TaskView>,
}

/// One ranked suspect of an incident.
#[derive(Debug, Clone, Serialize)]
pub struct SuspectView {
    /// Suspect job name.
    pub jobname: String,
    /// Identifier score (correlation / PANDA credit).
    pub correlation: f64,
}

/// One incident, flattened for serving and querying.
#[derive(Debug, Clone, Serialize)]
pub struct IncidentView {
    /// End-to-end trace id, 16 hex digits.
    pub trace: String,
    /// Detection time, sim µs.
    pub at_us: i64,
    /// Reporting machine.
    pub machine: u32,
    /// Victim job name.
    pub victim_job: String,
    /// Victim task handle.
    pub victim_task: u64,
    /// Victim CPI at detection.
    pub victim_cpi: f64,
    /// The 2σ outlier threshold in force.
    pub cthreshold: f64,
    /// `"hard_cap"` or `"none"`.
    pub action: String,
    /// Capped job (empty for `none`).
    pub target_job: String,
    /// Cap rate in CPU-sec/sec (0 for `none`).
    pub cpu_rate: f64,
    /// Why nothing was done (empty for `hard_cap`).
    pub reason: String,
    /// Ranked suspects, top first.
    pub suspects: Vec<SuspectView>,
}

/// One span of an incident trace.
#[derive(Debug, Clone, Serialize)]
pub struct SpanView {
    /// Lifecycle stage name (`sample_window` … `recovery`).
    pub stage: String,
    /// Span start, sim µs.
    pub start_us: i64,
    /// Span end, sim µs.
    pub end_us: i64,
    /// Human-readable stage detail.
    pub detail: String,
}

/// One complete incident trace: the span chain in causal order.
#[derive(Debug, Clone, Serialize)]
pub struct TraceView {
    /// Trace id, 16 hex digits.
    pub trace: String,
    /// Spans in causal order.
    pub spans: Vec<SpanView>,
}

/// Incidents retained per merged snapshot (oldest dropped beyond it).
pub const INCIDENT_TAIL: usize = 256;
/// CPI samples retained per merged snapshot.
pub const SAMPLE_TAIL: usize = 512;

/// Immutable per-tick snapshot of everything the server reads.
#[derive(Debug, Clone, Default)]
pub struct LiveSnapshot {
    /// Sim time of the snapshot, µs.
    pub now_us: i64,
    /// Tick length, µs.
    pub tick_us: i64,
    /// Ticks the harness has executed.
    pub ticks: u64,
    /// Spec store version.
    pub spec_version: u64,
    /// Whether cluster-wide CPI protection is on.
    pub protection_enabled: bool,
    /// Hard caps applied so far.
    pub caps_applied: u64,
    /// Sample batches lost to collector back-pressure.
    pub collector_dropped: u64,
    /// Per-machine summaries, machine-id order.
    pub machines: Vec<MachineView>,
    /// Recent incidents, oldest first (bounded tail).
    pub incidents: Vec<IncidentView>,
    /// Every published CPI spec.
    pub specs: Vec<CpiSpec>,
    /// Recent CPI samples (bounded tail).
    pub samples: Vec<CpiSample>,
    /// Retained incident traces, oldest first.
    pub traces: Vec<TraceView>,
}

/// One tick's diff over the current full base: replaced machine views,
/// appended incidents/samples, changed specs, and grown traces, plus
/// the always-cheap scalar header. Built by the harness when only part
/// of the fleet changed; empty collections mean "scalars only".
#[derive(Debug, Clone, Default)]
pub struct DeltaSnapshot {
    /// Sim time of the delta, µs.
    pub now_us: i64,
    /// Tick length, µs.
    pub tick_us: i64,
    /// Ticks the harness has executed.
    pub ticks: u64,
    /// Spec store version.
    pub spec_version: u64,
    /// Whether cluster-wide CPI protection is on.
    pub protection_enabled: bool,
    /// Hard caps applied so far.
    pub caps_applied: u64,
    /// Sample batches lost to collector back-pressure.
    pub collector_dropped: u64,
    /// Machines whose fingerprint changed (full replacement views).
    pub machines: Vec<MachineView>,
    /// Incidents appended since the previous publish.
    pub new_incidents: Vec<IncidentView>,
    /// Samples appended since the previous publish.
    pub new_samples: Vec<CpiSample>,
    /// Specs republished since the previous publish (replace by job).
    pub changed_specs: Vec<CpiSpec>,
    /// Traces added or extended since the previous publish (replace by
    /// trace id).
    pub changed_traces: Vec<TraceView>,
}

/// Replays `deltas` (oldest first) over `base` into one merged view.
fn merge(base: &LiveSnapshot, deltas: &[Arc<DeltaSnapshot>]) -> LiveSnapshot {
    let mut out = base.clone();
    for d in deltas {
        out.now_us = d.now_us;
        out.tick_us = d.tick_us;
        out.ticks = d.ticks;
        out.spec_version = d.spec_version;
        out.protection_enabled = d.protection_enabled;
        out.caps_applied = d.caps_applied;
        out.collector_dropped = d.collector_dropped;
        for m in &d.machines {
            // `machines` is id-ordered in every snapshot; replacement
            // keeps it so (and `/machines/{id}` lookups keep working).
            match out.machines.binary_search_by_key(&m.id, |x| x.id) {
                Ok(i) => {
                    if let Some(slot) = out.machines.get_mut(i) {
                        *slot = m.clone();
                    }
                }
                Err(i) => out.machines.insert(i, m.clone()),
            }
        }
        out.incidents.extend(d.new_incidents.iter().cloned());
        out.samples.extend(d.new_samples.iter().cloned());
        for spec in &d.changed_specs {
            match out.specs.iter_mut().find(|s| s.jobname == spec.jobname) {
                Some(slot) => *slot = spec.clone(),
                None => out.specs.push(spec.clone()),
            }
        }
        for trace in &d.changed_traces {
            match out.traces.iter_mut().find(|t| t.trace == trace.trace) {
                Some(slot) => *slot = trace.clone(),
                None => out.traces.push(trace.clone()),
            }
        }
    }
    if out.incidents.len() > INCIDENT_TAIL {
        let excess = out.incidents.len() - INCIDENT_TAIL;
        out.incidents.drain(..excess);
    }
    if out.samples.len() > SAMPLE_TAIL {
        let excess = out.samples.len() - SAMPLE_TAIL;
        out.samples.drain(..excess);
    }
    out
}

#[derive(Debug, Default)]
struct LiveCell {
    base: Arc<LiveSnapshot>,
    deltas: Vec<Arc<DeltaSnapshot>>,
    /// Cached merge of `base` + `deltas`; invalidated by any publish.
    merged: Option<Arc<LiveSnapshot>>,
    /// Bumped by every publish, so a merge computed outside the lock is
    /// installed only if nothing was published meanwhile.
    generation: u64,
}

/// Snapshot-swap cell: the tick thread publishes a full base or a
/// per-tick delta; readers get the merged view. Merging happens lazily
/// on the first reader after a publish (cached afterwards), outside the
/// lock, so neither the tick thread nor other readers wait on it.
#[derive(Debug, Default)]
pub struct LiveState {
    cell: Mutex<LiveCell>,
}

impl LiveState {
    /// Atomically replaces the current base snapshot, discarding any
    /// layered deltas (a *full* publish).
    pub fn publish(&self, snap: LiveSnapshot) {
        let mut c = self.cell.locked();
        c.base = Arc::new(snap);
        c.deltas.clear();
        c.merged = None;
        c.generation += 1;
    }

    /// Layers one per-tick delta over the current base.
    pub fn publish_delta(&self, delta: DeltaSnapshot) {
        let mut c = self.cell.locked();
        c.deltas.push(Arc::new(delta));
        c.merged = None;
        c.generation += 1;
    }

    /// The current merged snapshot (clone-cheap once merged; the merge
    /// itself runs at most once per publish).
    pub fn snapshot(&self) -> Arc<LiveSnapshot> {
        let (base, deltas, generation) = {
            let c = self.cell.locked();
            if let Some(m) = &c.merged {
                return Arc::clone(m);
            }
            if c.deltas.is_empty() {
                return Arc::clone(&c.base);
            }
            (Arc::clone(&c.base), c.deltas.clone(), c.generation)
        };
        let merged = Arc::new(merge(&base, &deltas));
        let mut c = self.cell.locked();
        if c.generation == generation {
            c.merged = Some(Arc::clone(&merged));
        }
        merged
    }

    /// Deltas currently layered over the base (tests and diagnostics).
    pub fn delta_depth(&self) -> usize {
        self.cell.locked().deltas.len()
    }
}

/// An operator action accepted over HTTP, pending deterministic
/// application at the next tick boundary (§5's operator interface).
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorAction {
    /// Manually hard-cap a task.
    Cap {
        /// Target job id.
        job: u32,
        /// Target task index.
        index: u32,
        /// Cap rate, CPU-sec/sec.
        rate: f64,
        /// Cap lifetime, µs of sim time.
        duration_us: i64,
    },
    /// Lift a task's hard cap.
    Uncap {
        /// Target job id.
        job: u32,
        /// Target task index.
        index: u32,
    },
    /// Kill a persistent offender and restart it elsewhere ("our version
    /// of task migration", §5).
    KillRestart {
        /// Target job id.
        job: u32,
        /// Target task index.
        index: u32,
    },
    /// Turn cluster-wide CPI protection on or off.
    SetProtection(
        /// Desired protection state.
        bool,
    ),
}

/// FIFO queue of operator actions awaiting the next tick.
#[derive(Debug, Default)]
pub struct ActionQueue {
    q: Mutex<VecDeque<OperatorAction>>,
    accepted: AtomicU64,
}

impl ActionQueue {
    /// Enqueues an action; returns its 1-based acceptance sequence number.
    pub fn push(&self, action: OperatorAction) -> u64 {
        self.q.locked().push_back(action);
        self.accepted.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Takes every queued action, FIFO order.
    pub fn drain(&self) -> Vec<OperatorAction> {
        self.q.locked().drain(..).collect()
    }

    /// Actions accepted since boot.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Actions currently awaiting a tick.
    pub fn pending(&self) -> usize {
        self.q.locked().len()
    }
}

/// Everything the router and the harness share.
#[derive(Debug)]
pub struct SharedState {
    /// The per-tick snapshot cell.
    pub live: LiveState,
    /// Operator actions awaiting the next tick.
    pub actions: ActionQueue,
    /// The system's telemetry registry (serves `/metrics`).
    pub telemetry: Telemetry,
}

impl SharedState {
    /// Creates shared state around the system's telemetry handle.
    pub fn new(telemetry: Telemetry) -> Arc<SharedState> {
        Arc::new(SharedState {
            live: LiveState::default(),
            actions: ActionQueue::default(),
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_swap_is_torn_free() {
        let state = LiveState::default();
        assert_eq!(state.snapshot().ticks, 0);
        let held = state.snapshot();
        state.publish(LiveSnapshot {
            ticks: 7,
            now_us: 42,
            ..LiveSnapshot::default()
        });
        // The old snapshot a reader holds is unchanged; new readers see
        // the new one.
        assert_eq!(held.ticks, 0);
        assert_eq!(state.snapshot().ticks, 7);
        assert_eq!(state.snapshot().now_us, 42);
    }

    fn machine(id: u32, utilization: f64) -> MachineView {
        MachineView {
            id,
            tasks: 1,
            threads: 2,
            utilization,
            throttle_events: 0,
            task_list: Vec::new(),
        }
    }

    #[test]
    fn deltas_merge_lazily_and_cache() {
        let state = LiveState::default();
        state.publish(LiveSnapshot {
            ticks: 1,
            machines: vec![machine(0, 0.1), machine(2, 0.2)],
            ..LiveSnapshot::default()
        });
        state.publish_delta(DeltaSnapshot {
            ticks: 2,
            now_us: 99,
            machines: vec![machine(2, 0.9), machine(1, 0.5)],
            ..DeltaSnapshot::default()
        });
        assert_eq!(state.delta_depth(), 1);
        let merged = state.snapshot();
        assert_eq!(merged.ticks, 2);
        assert_eq!(merged.now_us, 99);
        // Replacement by id keeps id order; unknown ids insert in place.
        let ids: Vec<u32> = merged.machines.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!((merged.machines[2].utilization - 0.9).abs() < 1e-12);
        // A second read returns the cached merge (same Arc).
        assert!(Arc::ptr_eq(&merged, &state.snapshot()));
        // A full publish discards the layered deltas.
        state.publish(LiveSnapshot::default());
        assert_eq!(state.delta_depth(), 0);
        assert_eq!(state.snapshot().machines.len(), 0);
    }

    #[test]
    fn merged_tails_stay_bounded() {
        fn incident(n: usize) -> IncidentView {
            IncidentView {
                trace: format!("{n:016x}"),
                at_us: n as i64,
                machine: 0,
                victim_job: "v".into(),
                victim_task: 0,
                victim_cpi: 1.0,
                cthreshold: 2.0,
                action: "none".into(),
                target_job: String::new(),
                cpu_rate: 0.0,
                reason: "test".into(),
                suspects: Vec::new(),
            }
        }
        let state = LiveState::default();
        state.publish(LiveSnapshot {
            incidents: (0..INCIDENT_TAIL).map(incident).collect(),
            ..LiveSnapshot::default()
        });
        state.publish_delta(DeltaSnapshot {
            new_incidents: vec![incident(INCIDENT_TAIL), incident(INCIDENT_TAIL + 1)],
            ..DeltaSnapshot::default()
        });
        let merged = state.snapshot();
        assert_eq!(merged.incidents.len(), INCIDENT_TAIL);
        // Oldest dropped, newest retained.
        assert_eq!(merged.incidents[0].at_us, 2);
        assert_eq!(
            merged.incidents.last().unwrap().at_us,
            (INCIDENT_TAIL + 1) as i64
        );
    }

    #[test]
    fn delta_traces_replace_by_id() {
        let state = LiveState::default();
        state.publish(LiveSnapshot {
            traces: vec![TraceView {
                trace: "00000000000000aa".into(),
                spans: Vec::new(),
            }],
            ..LiveSnapshot::default()
        });
        state.publish_delta(DeltaSnapshot {
            changed_traces: vec![
                TraceView {
                    trace: "00000000000000aa".into(),
                    spans: vec![SpanView {
                        stage: "recovery".into(),
                        start_us: 1,
                        end_us: 2,
                        detail: String::new(),
                    }],
                },
                TraceView {
                    trace: "00000000000000bb".into(),
                    spans: Vec::new(),
                },
            ],
            ..DeltaSnapshot::default()
        });
        let merged = state.snapshot();
        assert_eq!(merged.traces.len(), 2);
        assert_eq!(merged.traces[0].spans.len(), 1, "extended in place");
    }

    #[test]
    fn action_queue_is_fifo() {
        let q = ActionQueue::default();
        assert_eq!(q.push(OperatorAction::SetProtection(false)), 1);
        assert_eq!(q.push(OperatorAction::Uncap { job: 1, index: 2 }), 2);
        assert_eq!(q.pending(), 2);
        let drained = q.drain();
        assert_eq!(drained[0], OperatorAction::SetProtection(false));
        assert_eq!(drained[1], OperatorAction::Uncap { job: 1, index: 2 });
        assert_eq!(q.pending(), 0);
        assert_eq!(q.accepted(), 2);
    }
}
