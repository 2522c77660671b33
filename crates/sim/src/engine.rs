//! The discrete-event simulation engine.
//!
//! [`simulate`] executes a [`TaskSet`] under one synchronization protocol:
//! per-processor preemptive fixed-priority scheduling, zero-cost
//! inter-processor signals (the paper's model), deterministic event
//! ordering, and full metrics/trace collection.
//!
//! The engine keeps the event loop, the protocol and processor handlers,
//! and every action that releases, cancels or delivers a job: crash,
//! recovery and the partition heal among them, since they cancel or
//! re-signal jobs. Each [`Processor`] holds its scheduler state and its
//! liveness (down, stalled, slowed) and reads one [`LocalClock`] (the
//! ideal one unless a clock model says otherwise). The fault domain
//! ([`crate::faults`]) is always present, built from the empty schedule
//! when [`SimConfig::faults`] is `None`. The state the other handlers
//! touch too is one owned `Wire` field (see `crate::wire`): the wire
//! layers (transport, failure detector, clock sync) and the gray fault
//! edges take it by `&mut`, and the run loop calls each of their handlers
//! directly. A run without a layer never builds its state. Each
//! protocol's release state lives in its controller (`crate::controller`).
//!
//! Deadlines that get replaced sit in keyed queue slots, laid out once at
//! setup: one milestone per processor (slot `p`), then the fault domain's
//! next edge, then the detector's suspicion deadlines (one per ordered
//! processor pair), then RG's guard deadlines (one per subtask). Each
//! component keeps its own base.
//!
//! # Examples
//!
//! Reproduce the paper's Figure 3 observation — `T₃` misses its deadline
//! under DS but not under RG:
//!
//! ```
//! use rtsync_core::examples::example2;
//! use rtsync_core::protocol::Protocol;
//! use rtsync_core::task::TaskId;
//! use rtsync_sim::engine::{simulate, SimConfig};
//!
//! let system = example2();
//! let ds = simulate(&system, &SimConfig::new(Protocol::DirectSync))?;
//! let rg = simulate(&system, &SimConfig::new(Protocol::ReleaseGuard))?;
//! assert!(ds.metrics.task(TaskId::new(2)).deadline_misses() > 0);
//! assert_eq!(rg.metrics.task(TaskId::new(2)).deadline_misses(), 0);
//! # Ok::<(), rtsync_sim::engine::SimulateError>(())
//! ```

use std::error::Error;
use std::fmt;

use rtsync_core::analysis::sa_pm::analyze_pm;
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::error::AnalyzeError;
use rtsync_core::phase::PmPhases;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::{ProcessorId, SubtaskId, TaskSet};
use rtsync_core::time::{Dur, Time};

use crate::controller::{CompletionDirective, Controller, FlatIndex, ReleaseTimer};
use crate::detect::{Degradation, DegradationEvent, DetectState, DetectStats};
use crate::event::{EventKind, EventQueue, PeerSet};
use crate::faults::{
    self, BacklogItem, BacklogKind, FaultConfig, FaultState, FaultStats, GrayFamily, OverloadPolicy,
};
use crate::job::JobId;
use crate::metrics::Metrics;
use crate::nonideal::{
    ChannelModel, ChannelState, ChannelStats, ClockModel, LocalClock, NonidealConfig,
};
use crate::observe::{EngineSample, NoopObserver, Note, Observer};
use crate::perf::{EngineProfile, NoopProfiler, PerfScope, Profiler, WallProfiler};
use crate::priority_profile::PriorityProfile;
use crate::processor::{Milestone, Processor, Resched};
use crate::source::SourceModel;
use crate::sync::{SyncConfig, SyncState, SyncStats};
use crate::trace::Trace;
use crate::transport::{TransportConfig, TransportState, TransportStats};
use crate::wire::{Effect, Layers, Wire};

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Which synchronization protocol to run.
    pub protocol: Protocol,
    /// How first-subtask releases are generated.
    pub source: SourceModel,
    /// Stop once every task has completed this many end-to-end instances.
    pub instances_per_task: u64,
    /// Hard time cap. `None` derives one generous enough for the instance
    /// target (`max_i (phase_i + (period_i + max_extra)·(target + 5))`).
    pub horizon: Option<Time>,
    /// Record the full schedule trace (releases, completions, segments).
    pub record_trace: bool,
    /// Backstop on processed events.
    pub max_events: u64,
    /// Analysis knobs for the protocols that need offline bounds (PM, MPM).
    pub analysis: AnalysisConfig,
    /// Apply the RG protocol's rule 2 (idle points reset guards). `true`
    /// is the paper's protocol; `false` is the rule-1-only ablation that
    /// quantifies how much of RG's average-EER advantage rule 2 provides.
    pub rg_apply_rule2: bool,
    /// Exclude each task's first `warmup_instances` end-to-end completions
    /// from the EER statistics (they still count toward the stop target),
    /// removing the start-of-trace transient from average-EER estimates.
    pub warmup_instances: u64,
    /// Nonideal operating conditions: per-processor clock error and the
    /// signal channel model. The default is the paper's ideal conditions:
    /// every clock reads true time and signals arrive instantly, so the
    /// outcome is bit-identical to a run that never models either.
    pub nonideal: NonidealConfig,
    /// Processor crash/recovery, partition and gray faults. `None` — the
    /// default — runs the empty schedule, which fires nothing.
    pub faults: Option<FaultConfig>,
    /// Endpoint-driven reliable signaling: sequence-numbered frames, acks,
    /// retransmission timers, and (optionally) heartbeat failure detection
    /// with graceful degradation. `None` — the default — builds no
    /// transport state, and the outcome is bit-identical to a run without
    /// the layer.
    pub transport: Option<TransportConfig>,
    /// The clock-synchronization layer: periodic NTP-style offset
    /// estimation over the signal channel with Marzullo intersection and
    /// a correction policy (see [`crate::sync`]). `None` — the default —
    /// runs no sync traffic and never corrects a clock, and the outcome is
    /// bit-identical to a run without the layer.
    pub sync: Option<SyncConfig>,
}

impl SimConfig {
    /// Defaults: periodic sources, 50 instances per task, trace off.
    pub fn new(protocol: Protocol) -> SimConfig {
        SimConfig {
            protocol,
            source: SourceModel::Periodic,
            instances_per_task: 50,
            horizon: None,
            record_trace: false,
            max_events: 100_000_000,
            analysis: AnalysisConfig::default(),
            rg_apply_rule2: true,
            warmup_instances: 0,
            nonideal: NonidealConfig::default(),
            faults: None,
            transport: None,
            sync: None,
        }
    }

    /// Enables the endpoint reliable transport (and, through its detector,
    /// heartbeat failure detection and graceful degradation).
    pub fn with_transport(mut self, transport: TransportConfig) -> SimConfig {
        self.transport = Some(transport);
        self
    }

    /// Enables the clock-synchronization layer.
    pub fn with_sync(mut self, sync: SyncConfig) -> SimConfig {
        self.sync = Some(sync);
        self
    }

    /// Sets the nonideal-conditions model (clock error, signal channel).
    pub fn with_nonideal(mut self, nonideal: NonidealConfig) -> SimConfig {
        self.nonideal = nonideal;
        self
    }

    /// Enables the processor crash/recovery fault domain.
    pub fn with_faults(mut self, faults: FaultConfig) -> SimConfig {
        self.faults = Some(faults);
        self
    }

    /// Sets only the clock model of the nonideal conditions.
    pub fn with_clocks(mut self, clocks: ClockModel) -> SimConfig {
        self.nonideal.clocks = clocks;
        self
    }

    /// Sets only the signal channel of the nonideal conditions.
    pub fn with_channel(mut self, channel: crate::nonideal::ChannelModel) -> SimConfig {
        self.nonideal.channel = Some(channel);
        self
    }

    /// Excludes each task's first `n` completions from the EER statistics.
    pub fn with_warmup(mut self, n: u64) -> SimConfig {
        self.warmup_instances = n;
        self
    }

    /// Disables the RG protocol's rule 2 (the ablation knob).
    pub fn without_rg_rule2(mut self) -> SimConfig {
        self.rg_apply_rule2 = false;
        self
    }

    /// Sets the per-task instance target.
    pub fn with_instances(mut self, n: u64) -> SimConfig {
        self.instances_per_task = n;
        self
    }

    /// Enables full trace recording.
    pub fn with_trace(mut self) -> SimConfig {
        self.record_trace = true;
        self
    }

    /// Sets the source model.
    pub fn with_source(mut self, source: SourceModel) -> SimConfig {
        self.source = source;
        self
    }

    /// Sets an explicit horizon.
    pub fn with_horizon(mut self, horizon: Time) -> SimConfig {
        self.horizon = Some(horizon);
        self
    }
}

/// Why a release broke the model's rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// A subtask instance was released before the corresponding instance of
    /// its predecessor completed (PM under sporadic sources; §3.1's caveat).
    PrecedenceViolated,
    /// An MPM timer fired before its job completed — the response-time
    /// bound was violated (an overrun in the paper's terminology).
    MpmOverrun,
    /// The channel dropped a signal's first transmission (fault injection);
    /// the retransmission delivered it late.
    SignalLost,
    /// A signal reached its receiver while that processor was crashed.
    /// Distinct from [`ViolationKind::SignalLost`]: the wire worked, the
    /// node did not — the signal goes to the recovery backlog instead of
    /// being retransmitted.
    SignalReceiverDown,
}

/// One recorded protocol violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Violation {
    /// What rule broke.
    pub kind: ViolationKind,
    /// The job involved (the released successor for precedence violations,
    /// the overrunning job for MPM overruns).
    pub job: JobId,
    /// When.
    pub time: Time,
}

/// Everything a simulation run produced.
#[derive(Debug)]
pub struct SimOutcome {
    /// Per-task EER statistics.
    pub metrics: Metrics,
    /// The schedule trace, if [`SimConfig::record_trace`] was set.
    pub trace: Option<Trace>,
    /// Protocol violations observed (empty for DS/RG and for PM/MPM under
    /// periodic sources).
    pub violations: Vec<Violation>,
    /// Events processed.
    pub events: u64,
    /// Simulation clock at the end of the run.
    pub end_time: Time,
    /// `true` if every task reached the instance target (as opposed to
    /// stopping at the horizon or the event cap).
    pub reached_target: bool,
    /// Ticks each processor spent executing (observed busy time).
    pub busy_ticks: Vec<Dur>,
    /// Signal-channel counters (all zero when no channel was configured).
    pub channel_stats: ChannelStats,
    /// Fault-domain counters (all zero when no faults were configured).
    pub fault_stats: FaultStats,
    /// Endpoint-transport counters (all zero when no transport was
    /// configured).
    pub transport_stats: TransportStats,
    /// Failure-detector counters (all zero when no detector was
    /// configured).
    pub detect_stats: DetectStats,
    /// Structured degradation events (detector transitions, forced
    /// releases, abandoned signals, watchdog trips), in firing order.
    pub degradations: Vec<DegradationEvent>,
    /// Clock-synchronization counters (all zero when no sync layer was
    /// configured).
    pub sync_stats: SyncStats,
}

impl SimOutcome {
    /// Observed utilization of one processor: busy time over the run's
    /// span, `None` before any time has elapsed.
    pub fn observed_utilization(&self, proc: ProcessorId) -> Option<f64> {
        let span = self.end_time.since_origin();
        span.is_positive()
            .then(|| self.busy_ticks[proc.index()].as_f64() / span.as_f64())
    }
}

/// Errors from [`simulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimulateError {
    /// The PM/MPM protocols need SA/PM response-time bounds, and the
    /// analysis failed (e.g. an overloaded processor).
    Analysis(AnalyzeError),
    /// The run's horizon plus the largest single step it can schedule
    /// does not fit in `i64` ticks, so event times would wrap.
    TimeOverflow {
        /// The run's horizon, after every padding.
        horizon: Time,
        /// The largest single step (see `cause`).
        step: Dur,
        /// What dominates the step, e.g. `"task period"`.
        cause: &'static str,
    },
    /// The failure detector names a heartbeat's recipients in a
    /// [`PeerSet`], which holds at most [`PeerSet::CAPACITY`] processors.
    DetectorTooWide {
        /// The system's processor count.
        procs: usize,
    },
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulateError::Analysis(e) => {
                write!(f, "offline analysis required by the protocol failed: {e}")
            }
            SimulateError::TimeOverflow {
                horizon,
                step,
                cause,
            } => write!(
                f,
                "time overflow: the run's horizon ({} ticks, from the task phases and \
                 periods, the instance target and every delay padding) plus its largest \
                 single step ({} ticks, set by the {cause}) does not fit in 64-bit ticks",
                horizon.ticks(),
                step.ticks()
            ),
            SimulateError::DetectorTooWide { procs } => write!(
                f,
                "the failure detector supports at most {} processors; the system has {procs}",
                PeerSet::CAPACITY
            ),
        }
    }
}

impl Error for SimulateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimulateError::Analysis(e) => Some(e),
            SimulateError::TimeOverflow { .. } | SimulateError::DetectorTooWide { .. } => None,
        }
    }
}

impl From<AnalyzeError> for SimulateError {
    fn from(e: AnalyzeError) -> SimulateError {
        SimulateError::Analysis(e)
    }
}

/// Runs one simulation.
///
/// # Errors
///
/// [`SimulateError::Analysis`] if the protocol needs SA/PM bounds and the
/// analysis fails; [`SimulateError::TimeOverflow`] if the run's times do
/// not fit in `i64` ticks; [`SimulateError::DetectorTooWide`] if a failure
/// detector watches more than [`PeerSet::CAPACITY`] processors.
pub fn simulate(set: &TaskSet, cfg: &SimConfig) -> Result<SimOutcome, SimulateError> {
    // `NoopObserver` is zero-sized and every hook is an empty `#[inline]`
    // default, so this monomorphization is the exact unobserved engine.
    let mut obs = NoopObserver;
    let mut prof = NoopProfiler;
    Engine::new(set, cfg, &mut obs, &mut prof)?.run()
}

/// Runs one simulation with an [`Observer`] attached to the engine's
/// instrumentation hooks (see [`crate::observe`]). The schedule is
/// identical to [`simulate`]'s — observers only watch.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_observed(
    set: &TaskSet,
    cfg: &SimConfig,
    obs: &mut impl Observer,
) -> Result<SimOutcome, SimulateError> {
    let mut prof = NoopProfiler;
    Engine::new(set, cfg, obs, &mut prof)?.run()
}

/// Runs one simulation with the wall-clock self-profiler attached (see
/// [`crate::perf`]). The schedule is identical to [`simulate`]'s — the
/// profiler only reads the host clock between engine phases. Returns the
/// outcome together with the exclusive-time [`EngineProfile`].
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_profiled(
    set: &TaskSet,
    cfg: &SimConfig,
) -> Result<(SimOutcome, EngineProfile), SimulateError> {
    let mut obs = NoopObserver;
    let mut prof = WallProfiler::new();
    let outcome = Engine::new(set, cfg, &mut obs, &mut prof)?.run()?;
    let profile = prof.finish(outcome.events);
    Ok((outcome, profile))
}

struct Engine<'a, O: Observer, P: Profiler> {
    /// The state the wire layers and the gray edges touch too.
    w: Wire<'a, O>,
    controller: Controller,
    metrics: Metrics,
    violations: Vec<Violation>,
    /// Completed instance counts per flat subtask index.
    completed: Vec<u64>,
    /// Release times of in-flight instances per flat subtask index (FIFO —
    /// instances complete in release order), for response-time stats.
    inflight: Vec<std::collections::VecDeque<Time>>,
    /// Effective-priority profile per flat subtask index (Highest Locker).
    profiles: Vec<PriorityProfile>,
    /// The transport, failure detector and clock sync, each optional.
    layers: Layers,
    events: u64,
    /// Scratch buffers reused across dispatches so the steady-state event
    /// loop allocates nothing (DESIGN.md §11). Each is `mem::take`n for
    /// the duration of one handler and restored (cleared) afterwards; the
    /// handlers they serve never re-enter themselves, so a buffer is
    /// never taken twice.
    kill_scratch: Vec<JobId>,
    rule2_scratch: Vec<JobId>,
    deliver_scratch: Vec<u64>,
    recover_scratch: Vec<(BacklogItem, bool)>,
    /// Wall-clock scope accounting (see [`crate::perf`]); `NoopProfiler`
    /// for unprofiled runs, compiled away by monomorphization.
    prof: &'a mut P,
}

impl<'a, O: Observer, P: Profiler> Engine<'a, O, P> {
    fn new(
        set: &'a TaskSet,
        cfg: &'a SimConfig,
        obs: &'a mut O,
        prof: &'a mut P,
    ) -> Result<Engine<'a, O, P>, SimulateError> {
        let flat = FlatIndex::new(set);
        let procs = set.num_processors();
        let clocks = cfg.nonideal.clocks.resolve(procs);
        // The transport and the sync layer both ride the wire: with either
        // attached but no channel configured, a zero-latency loss-free
        // wire is synthesized so their frames still flow as events (and
        // sync traffic advances the same fault/latency draws as real
        // signals — genuine interference).
        let needs_wire = cfg.transport.is_some() || cfg.sync.is_some();
        let channel = match (cfg.nonideal.channel, needs_wire) {
            (Some(model), _) => Some(ChannelState::new(model, flat.len())),
            (None, true) => Some(ChannelState::new(
                ChannelModel::constant(Dur::ZERO),
                flat.len(),
            )),
            (None, false) => None,
        };
        // The keyed slot layout (see the module docs), decided once.
        let rg = cfg.protocol == Protocol::ReleaseGuard;
        let detector = cfg.transport.as_ref().and_then(|t| t.detector.as_ref());
        if detector.is_some() && procs > PeerSet::CAPACITY {
            return Err(SimulateError::DetectorTooWide { procs });
        }
        let (edge_slot, suspicion_base) = (procs, procs + 1);
        let guard_base = suspicion_base + if detector.is_some() { procs * procs } else { 0 };
        let slots = guard_base + if rg { flat.len() } else { 0 };
        // PM and MPM need SA/PM bounds before the first event; the
        // profiler charges that analysis to its own scope.
        let pm_bounds = if matches!(
            cfg.protocol,
            Protocol::PhaseModification | Protocol::ModifiedPhaseModification
        ) {
            prof.switch(PerfScope::Analysis);
            let bounds = analyze_pm(set, &cfg.analysis);
            prof.switch(PerfScope::Setup);
            Some(bounds?)
        } else {
            None
        };
        let longest_bound = pm_bounds.as_ref().map_or(Dur::ZERO, |b| {
            b.task_bounds().into_iter().max().unwrap_or(Dur::ZERO)
        });
        let controller = match (cfg.protocol, pm_bounds) {
            (Protocol::DirectSync, _) => Controller::ds(),
            // Guards measure one task period on the host processor's
            // clock; drift rescales that period in true time (offsets
            // cancel — guards are pure durations).
            (Protocol::ReleaseGuard, _) => {
                Controller::rg_with_guard_periods(set, cfg.rg_apply_rule2, guard_base, |p, d| {
                    clocks[p.index()].true_dur(d)
                })
            }
            (Protocol::PhaseModification, Some(bounds)) => {
                Controller::pm(PmPhases::compute(set, &bounds), flat.len())
            }
            (Protocol::ModifiedPhaseModification, Some(bounds)) => Controller::mpm(bounds, procs),
            _ => unreachable!("PM and MPM ran the analysis above"),
        };
        let horizon = cfg.horizon.unwrap_or_else(|| default_horizon(set, cfg));
        // Resolve the fault schedule against the fail-free horizon, then
        // extend the horizon by what the schedule costs the run.
        let empty = FaultConfig::explicit(Vec::new());
        let faults_cfg = cfg.faults.as_ref().unwrap_or(&empty);
        let faults = FaultState::new(faults_cfg, procs, set.num_subtasks(), horizon, edge_slot);
        let horizon = faults.pad_horizon(horizon, set);
        let (step, cause) = max_step(set, cfg, &clocks, &faults, longest_bound);
        if horizon.ticks().checked_add(step.ticks()).is_none() {
            return Err(SimulateError::TimeOverflow {
                horizon,
                step,
                cause,
            });
        }
        let layers = Layers {
            transport: cfg
                .transport
                .as_ref()
                .map(|t| TransportState::new(t.clone(), flat.len())),
            detect: detector
                .map(|dc| DetectState::new(dc.clone(), procs, set.num_tasks(), suspicion_base)),
            sync: cfg
                .sync
                .clone()
                .map(|sc| SyncState::new(sc, &clocks, cfg.transport.as_ref())),
        };
        Ok(Engine {
            w: Wire {
                now: Time::ZERO,
                horizon,
                cfg,
                set,
                released: vec![0; set.num_subtasks()],
                flat,
                queue: EventQueue::with_slots(slots),
                procs: (0..procs)
                    .map(|i| Processor::new(ProcessorId::new(i)))
                    .collect(),
                faults,
                channel,
                clocks,
                log: Vec::new(),
                busy_ticks: vec![Dur::ZERO; procs],
                trace: cfg.record_trace.then(|| Trace::new(procs)),
                dirty: vec![false; procs],
                obs,
            },
            controller,
            metrics: Metrics::with_chains(
                &set.tasks()
                    .iter()
                    .map(|t| t.chain_len())
                    .collect::<Vec<_>>(),
            ),
            violations: Vec::new(),
            completed: vec![0; set.num_subtasks()],
            inflight: vec![std::collections::VecDeque::new(); set.num_subtasks()],
            profiles: set
                .subtasks()
                .map(|sub| PriorityProfile::for_subtask(set, sub))
                .collect(),
            layers,
            events: 0,
            kill_scratch: Vec::new(),
            rule2_scratch: Vec::new(),
            deliver_scratch: Vec::new(),
            recover_scratch: Vec::new(),
            prof,
        })
    }

    fn run(mut self) -> Result<SimOutcome, SimulateError> {
        let (set, cfg) = (self.w.set, self.w.cfg);
        self.w.obs.on_run_start(set, cfg.protocol);
        // Seed the queue: source releases for every task, clock-driven
        // releases for PM's later subtasks.
        for task in set.tasks() {
            let t0 = cfg
                .source
                .release_time(task.id(), task.period(), task.phase(), 0, None);
            self.w.queue.push(
                t0,
                EventKind::SourceRelease {
                    task: task.id(),
                    instance: 0,
                },
            );
        }
        if cfg.protocol == Protocol::PhaseModification {
            for task in set.tasks() {
                for sub in task.subtasks().iter().skip(1) {
                    // PM timers fire when the *local* clock reads the
                    // modified phase — this is the one place absolute clock
                    // error enters the protocols. A clock running ahead can
                    // place the firing before the origin; clamp to zero
                    // (the release is maximally early either way).
                    let phase = self.controller.pm_phase(sub.id());
                    let at = self.pm_firing(sub.processor().index(), phase);
                    self.w.queue.push(
                        at,
                        EventKind::TimedRelease {
                            subtask: sub.id(),
                            instance: 0,
                        },
                    );
                }
            }
        }

        // The fault domain keeps only its next schedule edge queued.
        self.w.faults.arm_next_edge(&mut self.w.queue);
        // Seed the failure detector's heartbeat chains and suspicion
        // deadlines, then the sync layer's round chains.
        if let Some(detect) = &self.layers.detect {
            detect.start(&mut self.w);
        }
        if let Some(sync) = &self.layers.sync {
            sync.start(&mut self.w);
        }

        let mut reached_target = false;
        // Everything up to here was Setup. From here to loop exit every
        // moment is attributed to a scope: Queue while popping/checking,
        // Observer around hooks, the event's own family during dispatch,
        // Flush for the end-of-instant reschedule. `switch` on
        // NoopProfiler is an empty inline default, so the unprofiled loop
        // is unchanged.
        self.prof.switch(PerfScope::Queue);
        while let Some(event) = self.w.queue.pop() {
            if event.time > self.w.horizon || self.events >= cfg.max_events {
                break;
            }
            debug_assert!(event.time >= self.w.now, "event queue went backwards");
            self.w.now = event.time;
            self.events += 1;
            if event.kind.is_fault_edge() {
                self.w.faults.arm_next_edge(&mut self.w.queue);
            }
            self.prof.switch(PerfScope::Observer);
            self.w.note(Note::Event(event.kind));
            self.prof.switch(PerfScope::of(&event.kind));
            match event.kind {
                EventKind::Crash { proc } => self.on_crash(proc),
                EventKind::Recover { proc } => self.on_recover(proc),
                EventKind::PartitionHeal { .. } => self.on_partition_heal(),
                // Gray edges touch no protocol state.
                kind @ (EventKind::PartitionStart { .. }
                | EventKind::SlowStart { .. }
                | EventKind::SlowEnd { .. }
                | EventKind::StallStart { .. }
                | EventKind::StallEnd { .. }
                | EventKind::LinkDegradeStart { .. }
                | EventKind::LinkDegradeEnd { .. }) => faults::on_gray_edge(&mut self.w, kind),
                EventKind::Completion { proc } => self.on_completion(proc),
                EventKind::MpmTimer { job } => self.on_mpm_timer(job),
                EventKind::SignalSend { job } => self.on_signal_send(job),
                EventKind::SignalDeliver { job } => self.on_signal_deliver(job),
                EventKind::GuardExpiry { subtask } => self.on_guard_expiry(subtask),
                EventKind::SourceRelease { task, instance } => {
                    self.on_source_release(task, instance)
                }
                EventKind::TimedRelease { subtask, instance } => {
                    self.on_timed_release(subtask, instance)
                }
                // Each wire-layer event goes straight to its handler.
                EventKind::TransportDeliver { job, seq } => {
                    self.on_layer(|l, w| l.transport.as_mut()?.on_frame(w, job, seq))
                }
                EventKind::AckDeliver { seq } => self.on_layer(|l, w| {
                    l.transport.as_mut()?.on_ack(w, seq);
                    None
                }),
                EventKind::RetransmitTimer { seq } => {
                    self.on_layer(|l, w| l.transport.as_mut()?.on_retransmit_timer(w, seq))
                }
                EventKind::HeartbeatSend { proc } => self.on_layer(|l, w| {
                    l.detect.as_mut()?.on_heartbeat_send(w, proc);
                    None
                }),
                EventKind::HeartbeatDeliver { from, to } => self.on_layer(|l, w| {
                    l.detect.as_mut()?.on_heartbeat_deliver(w, from, to);
                    None
                }),
                EventKind::SuspectTimer { observer, subject } => self.on_layer(|l, w| {
                    let transport = l.transport.as_ref();
                    l.detect
                        .as_mut()?
                        .on_suspect_timer(w, transport, observer, subject);
                    None
                }),
                EventKind::DegradedRelease { subtask, instance } => {
                    let deferred = self.controller.has_deferred(subtask, instance);
                    self.on_layer(|l, w| l.detect.as_mut()?.march(w, subtask, instance, deferred))
                }
                EventKind::SyncRound { proc } => self.on_layer(|l, w| {
                    l.sync.as_mut()?.on_round(w, proc);
                    None
                }),
                EventKind::SyncRequest { from, to, t1 } => self.on_layer(|l, w| {
                    l.sync.as_mut()?.on_request(w, from, to, t1);
                    None
                }),
                EventKind::SyncResponse {
                    from,
                    to,
                    t1,
                    t2,
                    disp,
                } => self.on_layer(|l, w| {
                    l.sync.as_mut()?.on_response(w, from, to, t1, t2, disp);
                    None
                }),
                EventKind::SyncRetry {
                    from,
                    to,
                    t1,
                    respond,
                    attempt,
                } => self.on_layer(|l, w| {
                    l.sync.as_mut()?.on_retry(w, from, to, t1, respond, attempt);
                    None
                }),
            }
            // Dispatch decisions are made once per *instant*, after every
            // same-instant event has been absorbed: simultaneous releases
            // are arbitrated purely by priority, never by event order (a
            // non-preemptive job must not start ahead of a higher-priority
            // job released at the same instant).
            if self.w.queue.peek_time() != Some(self.w.now) {
                self.prof.switch(PerfScope::Flush);
                self.flush_dispatch();
                // End-of-instant telemetry sample. `wants_samples` is a
                // monomorphized constant: with NoopObserver the whole
                // block — including assembling the sample — folds away,
                // keeping the unobserved hot path untouched.
                if self.w.obs.wants_samples() {
                    self.prof.switch(PerfScope::Observer);
                    self.emit_sample();
                }
            }
            self.prof.switch(PerfScope::Queue);
            // Under faults an instance can resolve by being lost instead of
            // completing; both count toward the stop target (identical to
            // `min_completed` when the fault domain is off: nothing is ever
            // lost then).
            if self.metrics.min_resolved() >= cfg.instances_per_task {
                reached_target = true;
                break;
            }
        }

        self.w.note(Note::RunEnd {
            events: self.events,
        });
        Ok(SimOutcome {
            metrics: self.metrics,
            trace: self.w.trace,
            violations: self.violations,
            events: self.events,
            end_time: self.w.now,
            reached_target,
            busy_ticks: self.w.busy_ticks,
            channel_stats: self.w.channel.map(|ch| ch.stats).unwrap_or_default(),
            fault_stats: self.w.faults.stats,
            transport_stats: self.layers.transport.map(|t| t.stats).unwrap_or_default(),
            detect_stats: self.layers.detect.map(|d| d.stats).unwrap_or_default(),
            degradations: self.w.log,
            sync_stats: self.layers.sync.map(|s| s.stats).unwrap_or_default(),
        })
    }

    fn on_completion(&mut self, proc: ProcessorId) {
        self.w.advance_proc(proc);
        let job = match self.w.procs[proc.index()].take_milestone() {
            Milestone::Boundary(_) => {
                // A critical-section boundary: the effective priority
                // changed; re-arbitrate at the end of this instant.
                self.w.mark_dirty(proc);
                return;
            }
            Milestone::Completed(job) => job,
        };
        let fi = self.w.flat.of(job.subtask());
        // Crash-cancelled instances never complete: normalize the in-order
        // counter over the gaps they left.
        while self.completed[fi] < job.instance()
            && self.w.faults.is_cancelled(fi, self.completed[fi])
        {
            self.completed[fi] += 1;
        }
        debug_assert_eq!(
            self.completed[fi],
            job.instance(),
            "same-subtask instances must complete in order"
        );
        self.completed[fi] += 1;
        if let Some(released) = self.inflight[fi].pop_front() {
            self.metrics
                .record_subtask_response(job.subtask(), self.w.now - released);
        }
        if let Some(tr) = &mut self.w.trace {
            tr.push_completion(job, self.w.now);
        }
        self.w.note(Note::Completion {
            job,
            proc: proc.index(),
        });
        let task = self.w.set.task(job.task());
        match task.successor_of(job.subtask()) {
            None => {
                // End-to-end completion.
                let verdict = self.metrics.record_task_completion(
                    job.task(),
                    job.instance(),
                    self.w.now,
                    task.deadline(),
                    job.instance() >= self.w.cfg.warmup_instances,
                );
                if let Some(missed) = verdict {
                    self.note_watchdog(job.task().index(), missed);
                }
                if let Some(released) = self
                    .metrics
                    .task(job.task())
                    .first_release_time(job.instance())
                {
                    self.w.note(Note::TaskCompletion {
                        task: job.task(),
                        instance: job.instance(),
                        eer: self.w.now - released,
                        measured: verdict.is_some(),
                    });
                }
            }
            Some(succ) => {
                // Under MPM (and PM) the completion itself carries no
                // signal — MPM's release request travels with the
                // MpmTimer firing instead, PM releases by clock alone.
                if self.w.cfg.protocol != Protocol::ModifiedPhaseModification {
                    let succ_job = JobId::new(succ, job.instance());
                    self.signal_successor(proc, succ_job);
                }
            }
        }
        // Rule-2 idle points: the completing processor may have drained.
        // Per the paper's definition, instances released *at* this very
        // instant (e.g. a chain hop cascaded from another processor's
        // same-instant completion) do not prevent the idle point.
        if self.w.procs[proc.index()].is_idle_point(self.w.now) {
            self.on_idle_point(proc);
        }
        self.w.mark_dirty(proc);
    }

    /// `now` is an idle point of `proc`: RG's rule 2 releases every
    /// deferred head the guards hosted there free.
    fn on_idle_point(&mut self, proc: ProcessorId) {
        self.w.note(Note::IdlePoint { proc: proc.index() });
        let mut freed = std::mem::take(&mut self.rule2_scratch);
        self.controller.on_idle_point(proc, self.w.now, &mut freed);
        for &job in &freed {
            self.w.note(Note::Rule2Release { job });
            self.release(job);
        }
        freed.clear();
        self.rule2_scratch = freed;
    }

    fn on_mpm_timer(&mut self, job: JobId) {
        // Fault gate: the timer lives on the predecessor's node. A timer
        // that was pending when its node crashed was drained (and its
        // successor instance cancelled) at the crash — this firing is
        // stale.
        let timer_proc = self.w.set.subtask(job.subtask()).processor();
        if !self.controller.fire_mpm_timer(timer_proc, job) {
            return;
        }
        // The timer says job's response bound elapsed: signal the successor.
        let fi = self.w.flat.of(job.subtask());
        let overrun = self.completed[fi] <= job.instance();
        self.w.note(Note::MpmTimerFired { job, overrun });
        if overrun {
            // Overrun: the bound was violated (can happen under sporadic
            // sources or modeling error); record and release anyway, as a
            // real MPM scheduler driven purely by the timer would.
            self.push_violation(ViolationKind::MpmOverrun, job);
        }
        let succ = self
            .w
            .set
            .task(job.task())
            .successor_of(job.subtask())
            .expect("MPM timers are only scheduled for subtasks with successors");
        // The timer runs on the predecessor's processor; the release
        // request is a cross-processor signal like any other.
        self.signal_successor(timer_proc, JobId::new(succ, job.instance()));
    }

    /// Routes a successor-release signal originating on `from`: through
    /// the channel when one is configured and the hop crosses processors,
    /// directly (the paper's instantaneous signal) otherwise.
    fn signal_successor(&mut self, from: ProcessorId, succ_job: JobId) {
        let to = self.w.set.subtask(succ_job.subtask()).processor();
        // PM releases by clock alone — it sends no signals, so there is
        // nothing to price on the channel.
        if to == from || self.w.cfg.protocol == Protocol::PhaseModification {
            self.apply_signal(succ_job);
            return;
        }
        self.w.note(Note::SyncInterrupt {
            from: from.index(),
            to: to.index(),
            job: succ_job,
        });
        if self.layers.transport.is_some() {
            // Endpoint mode: the signal becomes a numbered, acked frame.
            self.on_layer(|l, w| {
                l.transport.as_mut()?.send(w, from.index(), succ_job, None);
                None
            });
        } else if self.w.channel.is_some() {
            self.w
                .queue
                .push(self.w.now, EventKind::SignalSend { job: succ_job });
        } else {
            self.apply_signal(succ_job);
        }
    }

    /// A successor-release signal has arrived at its processor (directly
    /// or via the channel): hand it to the protocol.
    fn apply_signal(&mut self, succ_job: JobId) {
        let succ_proc = self.w.host(succ_job);
        // Partition gate: a cross-cut signal is parked until the heal.
        // This sits *after* the channel's in-order cursor (the frame did
        // traverse the wire) so later instances don't stall forever behind
        // a severed one — mirroring the receiver-down path below.
        if let Some(pred) = succ_job.predecessor().filter(|_| self.w.faults.partitioned) {
            if self
                .w
                .faults
                .park_severed(self.w.host(pred), succ_proc, succ_job)
            {
                return;
            }
        }
        // Degradation gate: a late real signal for an instance the
        // controller already force-released carries nothing new — its
        // payload is suppressed (and logged) instead of double-releasing.
        if self.w.faults.is_forced(succ_job) {
            if let Some(detect) = &mut self.layers.detect {
                detect.stats.stale_signals_suppressed += 1;
            }
            self.w.degrade(Degradation::StaleSignal { job: succ_job });
            return;
        }
        // Fault gate: a signal reaching a crashed receiver is backlogged
        // and resolved at recovery under the overload policy. The wire
        // worked — this is receiver-down, not signal-lost.
        if self.w.procs[succ_proc].is_down() {
            self.push_violation(ViolationKind::SignalReceiverDown, succ_job);
            self.w.faults.stats.receiver_down_signals += 1;
            self.w.faults.backlog[succ_proc].push(BacklogItem {
                job: succ_job,
                arrival: self.w.now,
                kind: BacklogKind::Signal,
            });
            return;
        }
        // Rule 2 applies at *every* idle instant (§3.2), not only at
        // completion instants: a signal deferred onto an already-idle
        // processor is released right away (the idle point resets the
        // guard). With rule 2 disabled (the ablation) nothing is freed and
        // the guard's deadline stands.
        if self.offer_release(succ_job) && self.w.procs[succ_proc].is_idle_point(self.w.now) {
            self.on_idle_point(ProcessorId::new(succ_proc));
        }
    }

    /// Offers `job`'s release to the protocol as its predecessor's
    /// completion signal; `true` when RG's guard deferred it. MPM's signal
    /// carries the release itself — its controller deliberately ignores
    /// predecessor completions. A degraded release enters here too, so
    /// rule-1 spacing holds without the lost signal.
    fn offer_release(&mut self, job: JobId) -> bool {
        if self.w.cfg.protocol == Protocol::ModifiedPhaseModification {
            self.release(job);
            return false;
        }
        match self.controller.on_predecessor_complete(job, self.w.now) {
            CompletionDirective::ReleaseSuccessor => self.release(job),
            CompletionDirective::ScheduleExpiry { due } => {
                self.defer(job, due);
                return true;
            }
            CompletionDirective::Nothing => {}
        }
        false
    }

    /// RG deferred `job` behind its guard, due at `due`: (re)arm the
    /// guard's deadline.
    fn defer(&mut self, job: JobId, due: Time) {
        self.w.note(Note::GuardBlock { job, due });
        self.set_guard_deadline(job.subtask(), Some(due.max(self.w.now)));
    }

    /// Arms (or moves) `subtask`'s guard deadline to `due`, or clears it
    /// when nothing is deferred: the one expiry a guard ever has due (RG
    /// only).
    fn set_guard_deadline(&mut self, subtask: SubtaskId, due: Option<Time>) {
        let slot = self.controller.guard_slot(subtask);
        match due {
            Some(at) => self
                .w
                .queue
                .arm(slot, at, EventKind::GuardExpiry { subtask }),
            None => self.w.queue.disarm(slot),
        }
    }

    /// A signal leaves its sender: draw the channel's latency and faults
    /// and schedule the deliveries.
    fn on_signal_send(&mut self, job: JobId) {
        // Channel-routed signals always cross processors: bias the hop by
        // the link's directional extra delay when asymmetry is modeled.
        let pred = job.predecessor().expect("a signal releases a successor");
        let (src, dst) = (self.w.host(pred), self.w.host(job));
        let plan = self.w.channel().send();
        self.w.note(Note::SignalSend { job });
        let delivery = EventKind::SignalDeliver { job };
        let landed = self.w.land(&plan, src, dst, GrayFamily::Signal, delivery);
        assert!(landed, "signals are never gray-dropped");
        if plan.dropped {
            self.push_violation(ViolationKind::SignalLost, job);
        }
    }

    /// A signal reaches its receiver: apply it — and any earlier-buffered
    /// successors it unblocks — in instance order.
    fn on_signal_deliver(&mut self, job: JobId) {
        let fi = self.w.flat.of(job.subtask());
        let mut applicable = std::mem::take(&mut self.deliver_scratch);
        if let Some(channel) = &mut self.w.channel {
            channel.deliver(fi, job.instance(), &mut applicable);
        }
        for &instance in &applicable {
            let delivered = JobId::new(job.subtask(), instance);
            self.w.note(Note::SignalDeliver { job: delivered });
            self.apply_signal(delivered);
        }
        applicable.clear();
        self.deliver_scratch = applicable;
    }

    /// Runs one wire-layer handler on the layers and the wire they ride
    /// (see `crate::wire`), then applies the protocol effect it hands
    /// back.
    fn on_layer(&mut self, handler: impl FnOnce(&mut Layers, &mut Wire<'a, O>) -> Option<Effect>) {
        match handler(&mut self.layers, &mut self.w) {
            None => {}
            Some(Effect::Deliver(job)) => self.on_signal_deliver(job),
            Some(Effect::Abandon { job, attempts }) => {
                // The abandoned frame carried the instance's only release
                // request: resolve the doomed chain so bounded-budget runs
                // still terminate.
                self.push_violation(ViolationKind::SignalLost, job);
                self.w
                    .degrade(Degradation::SignalAbandoned { job, attempts });
                let fi = self.w.flat.of(job.subtask());
                if self.w.released[fi] <= job.instance() && !self.w.faults.is_forced(job) {
                    self.cancel_instance(job, false);
                }
            }
            Some(Effect::March { release, next }) => {
                if let Some(job) = release {
                    self.offer_release(job);
                }
                self.w.push_by_horizon(next.0, next.1);
            }
        }
    }

    /// The true instant `p`'s clock reads `local`: when a PM timer set for
    /// that reading fires. Clamped to the origin (a clock running ahead
    /// can place it earlier).
    fn pm_firing(&self, p: usize, local: Time) -> Time {
        self.w.clocks[p].true_of_local(local).max(Time::ZERO)
    }

    /// Deadline watchdog: feeds one measured end-to-end verdict of `task`
    /// to the detector and logs a trip.
    fn note_watchdog(&mut self, task: usize, missed: bool) {
        let trip = self
            .layers
            .detect
            .as_mut()
            .and_then(|dt| dt.note_verdict(task, missed));
        if let Some(streak) = trip {
            self.w.degrade(Degradation::WatchdogTrip { task, streak });
        }
    }

    fn on_guard_expiry(&mut self, subtask: SubtaskId) {
        let job = self.controller.on_guard_expiry(subtask, self.w.now);
        self.w.note(Note::GuardExpiryRelease { job });
        self.release(job);
    }

    fn on_source_release(&mut self, task: rtsync_core::task::TaskId, instance: u64) {
        let t = self.w.set.task(task);
        let first = JobId::new(SubtaskId::new(task, 0), instance);
        self.metrics
            .record_first_release(task, instance, self.w.now);
        // Fault gate: a source arrival during the first processor's outage
        // queues in the recovery backlog (the environment keeps producing
        // work whether the node is up or not).
        let first_proc = self.w.host(first);
        if self.w.procs[first_proc].is_down() {
            self.w.faults.backlog[first_proc].push(BacklogItem {
                job: first,
                arrival: self.w.now,
                kind: BacklogKind::Source,
            });
        } else {
            self.release(first);
        }
        // Schedule the next arrival.
        let instance = instance + 1;
        let source = &self.w.cfg.source;
        let next = source.release_time(task, t.period(), t.phase(), instance, Some(self.w.now));
        self.w
            .push_by_horizon(next, EventKind::SourceRelease { task, instance });
    }

    fn on_timed_release(&mut self, subtask: SubtaskId, instance: u64) {
        // Fault gates. A firing on a down processor is simply gone with
        // the node (recovery re-derives the schedule from the local
        // clock and cancels what fell in the outage); a firing whose
        // instance is not the subtask's next is a stale duplicate left
        // behind by that re-derivation. Neither schedules a next firing —
        // the live chain does.
        let proc = self.w.set.subtask(subtask).processor().index();
        let next = self.controller.pm_next(self.w.flat.of(subtask));
        if self.w.procs[proc].is_down() || *next != instance {
            return;
        }
        *next = instance + 1;
        // PM's clock-driven release of a later subtask.
        self.release(JobId::new(subtask, instance));
        // The timer tracks the *local* schedule φ + m·p exactly (no
        // accumulated rounding): convert the next local firing back to
        // true time on the host's clock. This is where sync corrections
        // reach PM — each firing re-reads the clock, so a correction
        // applied at any round moves every later firing.
        let period = self.w.set.task(subtask.task()).period();
        let local_next =
            self.controller.pm_phase(subtask) + period.saturating_mul(instance as i64 + 1);
        let next = self.w.clocks[proc]
            .true_of_local(local_next)
            .max(self.w.now);
        let instance = instance + 1;
        self.w
            .push_by_horizon(next, EventKind::TimedRelease { subtask, instance });
    }

    /// Fail-stop crash of `proc`: kill every in-flight job with its
    /// milestone, drop the node's pending timers, and cancel
    /// everything those deaths make unreachable downstream.
    fn on_crash(&mut self, proc: ProcessorId) {
        let p = proc.index();
        // Account the partial slice executed up to the crash instant: the
        // work happened (and is then lost), the processor was busy.
        self.w.advance_proc(proc);
        let mut killed = std::mem::take(&mut self.kill_scratch);
        // The processor goes down; a crash also ends an open stall (the
        // stall window's end then finds nothing to resume).
        self.w.procs[p].crash_into(&mut killed);
        self.w.drop_stale_milestone(proc);
        self.w.faults.stats.crashes += 1;
        self.w.faults.stats.killed_jobs += killed.len() as u64;
        self.w.note(Note::Crash {
            proc: p,
            killed: killed.len(),
        });
        for &job in &killed {
            self.cancel_instance(job, true);
        }
        killed.clear();
        self.kill_scratch = killed;
        // RG's guard-deferred signals (delivered but never released) and
        // MPM's armed-but-unfired timers die with the node; each carried
        // its instance's only release request.
        for job in self.controller.on_crash(proc, self.w.set) {
            if self.w.cfg.protocol == Protocol::ReleaseGuard {
                self.set_guard_deadline(job.subtask(), None);
            }
            self.cancel_instance(job, false);
        }
        self.w.mark_dirty(proc);
    }

    /// `proc` rejoins: reconcile protocol state from what a restarted node
    /// can know (see [`crate::faults`]), then resolve the outage backlog
    /// under the overload policy.
    fn on_recover(&mut self, proc: ProcessorId) {
        let p = proc.index();
        self.w.procs[p].recover();
        self.w.faults.stats.recoveries += 1;
        let backlog = std::mem::take(&mut self.w.faults.backlog[p]);
        // RG: re-initialize guards to the recovery instant (rule 2's
        // idle-point reasoning — a restarted node holds no incomplete
        // releases).
        self.controller.on_recovery(proc, self.w.now);
        // PM: re-derive the clock-driven release schedule from the first
        // instance at or after now; instances inside the outage are lost
        // by that derivation.
        if self.w.cfg.protocol == Protocol::PhaseModification {
            self.rederive_timed_releases(proc);
        }
        // Decide the whole backlog first so observers hear the recovery
        // (with its released/dropped counts) before any backlog release
        // lands — a release must never look like down-processor activity.
        let mut decisions = std::mem::take(&mut self.recover_scratch);
        decisions.extend(backlog.into_iter().map(|item| {
            let keep = self.keep_backlog_item(&item);
            (item, keep)
        }));
        let released = decisions.iter().filter(|(_, keep)| *keep).count() as u64;
        let dropped = decisions.len() as u64 - released;
        self.w.faults.stats.backlog_released += released;
        self.w.faults.stats.backlog_dropped += dropped;
        self.w.note(Note::Recovery {
            proc: p,
            released,
            dropped,
        });
        for &(item, keep) in &decisions {
            if keep {
                match item.kind {
                    BacklogKind::Source => self.release(item.job),
                    BacklogKind::Signal => self.apply_signal(item.job),
                }
            } else {
                self.cancel_instance(item.job, false);
            }
        }
        decisions.clear();
        self.recover_scratch = decisions;
        // A restarted node's detector resumes with its pre-crash beliefs:
        // peers it still holds dead resume degraded releases right away
        // (the old chains died while the node was down).
        self.on_layer(|l, w| {
            l.detect.as_ref()?.resume(w, l.transport.as_ref(), p);
            None
        });
        self.w.mark_dirty(proc);
    }

    /// The partition heals: connectivity is whole again and every signal
    /// parked at the cut is replayed through the normal protocol path.
    /// Replays bypass the channel (the frames never entered the wire — the
    /// cut severed them before the send), so channel conservation holds.
    fn on_partition_heal(&mut self) {
        let parked = self.w.faults.heal_partition();
        self.w.note(Note::PartitionHeal);
        for job in parked {
            self.apply_signal(job);
        }
    }

    /// Does the overload policy keep this backlog item at recovery?
    fn keep_backlog_item(&self, item: &BacklogItem) -> bool {
        let task = self.w.set.task(item.job.task());
        match self.w.faults.policy {
            OverloadPolicy::ReleaseAll => true,
            OverloadPolicy::DropStale => {
                // Keep only if the end-to-end deadline has not passed yet:
                // anything past it is a guaranteed miss.
                let released = self
                    .metrics
                    .task(item.job.task())
                    .first_release_time(item.job.instance())
                    .unwrap_or(item.arrival);
                self.w.now < released + task.deadline()
            }
            OverloadPolicy::SkipToCurrentPeriod => {
                // Keep only items whose period window is still open.
                self.w.now < item.arrival + task.period()
            }
        }
    }

    /// Cancels one subtask instance (it will never release/complete) and
    /// propagates downstream exactly as far as the protocol's release rule
    /// stops propagating releases. `was_released` pops the in-flight
    /// bookkeeping of a killed running/ready job.
    fn cancel_instance(&mut self, job: JobId, was_released: bool) {
        let fi = self.w.flat.of(job.subtask());
        if !self.w.faults.cancel(fi, job.instance()) {
            return; // already cancelled via another path
        }
        if was_released {
            self.inflight[fi].pop_front();
        }
        // The signal that would release this instance may never be sent
        // now; unblock the channel's in-order cursor so later instances of
        // the same subtask are not stalled forever behind the gap, and
        // apply anything buffered behind it.
        if let Some(channel) = &mut self.w.channel {
            // A local buffer, not a scratch field: cancellation recurses
            // down the chain, so a shared buffer could be taken twice.
            // Cancellations only happen on the (rare) fault paths.
            let mut freed = Vec::new();
            channel.note_cancelled(fi, job.instance(), &mut freed);
            for instance in freed {
                let delivered = JobId::new(job.subtask(), instance);
                self.w.note(Note::SignalDeliver { job: delivered });
                self.apply_signal(delivered);
            }
        }
        // Downstream propagation: DS and RG release successors only from
        // completions, and this instance will never complete. MPM's release
        // request is the timer, armed at release — a never-released job
        // never arms it (a killed released job's pending timer is drained
        // separately at the crash). PM releases successors from the clock
        // alone: the chain continues and the precedence violations are
        // recorded honestly at those releases.
        let propagate = match self.w.cfg.protocol {
            Protocol::DirectSync | Protocol::ReleaseGuard => true,
            Protocol::ModifiedPhaseModification => !was_released,
            Protocol::PhaseModification => false,
        };
        match self.w.set.task(job.task()).successor_of(job.subtask()) {
            Some(succ) if propagate => {
                self.cancel_instance(JobId::new(succ, job.instance()), false)
            }
            Some(_) => {}
            None => {
                // The chain tail will never complete: the end-to-end
                // instance is lost. This resolves it for the stop criterion
                // and feeds the miss-or-loss metric.
                self.metrics.record_instance_lost(job.task());
            }
        }
    }

    /// PM recovery: per subtask hosted on `proc`, cancel the timed releases
    /// whose local firing times fell inside the outage and schedule the
    /// first one at or after now. The schedule is a pure function of the
    /// local clock (`φ + m·p`), which is exactly what a restarted node can
    /// recompute.
    fn rederive_timed_releases(&mut self, proc: ProcessorId) {
        let mut to_cancel = Vec::new();
        let mut to_schedule = Vec::new();
        for task in self.w.set.tasks() {
            let period = task.period();
            let hosted = task.subtasks().iter().skip(1);
            for sub in hosted.filter(|sub| sub.processor() == proc) {
                let fi = self.w.flat.of(sub.id());
                let phase = self.controller.pm_phase(sub.id());
                let mut m = *self.controller.pm_next(fi);
                loop {
                    let local = phase + period.saturating_mul(m as i64);
                    let at = self.pm_firing(proc.index(), local);
                    if at >= self.w.now {
                        to_schedule.push((at, sub.id(), m));
                        break;
                    }
                    to_cancel.push(JobId::new(sub.id(), m));
                    m += 1;
                }
                *self.controller.pm_next(fi) = m;
            }
        }
        for job in to_cancel {
            self.cancel_instance(job, false);
        }
        // A pre-crash firing for the same instance may still be in the
        // queue; the next-instance match makes whichever copy pops
        // second a no-op.
        for (at, subtask, instance) in to_schedule {
            self.w
                .push_by_horizon(at, EventKind::TimedRelease { subtask, instance });
        }
    }

    /// Releases `job` on its host processor at the current instant.
    fn release(&mut self, job: JobId) {
        let sub = self.w.set.subtask(job.subtask());
        let fi = self.w.flat.of(job.subtask());
        // Crash-cancelled instances never release: normalize the in-order
        // counter over the gaps they left.
        debug_assert!(
            !self.w.procs[sub.processor().index()].is_down(),
            "release on a down node"
        );
        while self.w.released[fi] < job.instance()
            && self.w.faults.is_cancelled(fi, self.w.released[fi])
        {
            self.w.released[fi] += 1;
        }
        debug_assert_eq!(
            self.w.released[fi],
            job.instance(),
            "same-subtask instances must release in order"
        );
        self.w.released[fi] += 1;
        self.inflight[fi].push_back(self.w.now);
        // Precedence check: the same instance of the predecessor must have
        // completed. Structurally guaranteed for DS/RG/MPM-in-bounds;
        // recorded as a violation when PM (or an overrunning MPM) breaks
        // it — including a predecessor instance that a crash killed (it
        // will never complete).
        if let Some(pred) = job.predecessor() {
            let pred_fi = self.w.flat.of(pred.subtask());
            let pred_cancelled = self.w.faults.is_cancelled(pred_fi, pred.instance());
            // A forced (degraded) release knowingly precedes its
            // predecessor's completion; it is a logged degradation event,
            // not a protocol violation.
            let forced = self.w.faults.is_forced(job);
            if (self.completed[pred_fi] <= pred.instance() || pred_cancelled) && !forced {
                self.push_violation(ViolationKind::PrecedenceViolated, job);
            }
        }
        if let Some(tr) = &mut self.w.trace {
            tr.push_release(job, self.w.now);
        }
        self.w.note(Note::Release {
            job,
            proc: sub.processor().index(),
        });
        // RG's rule 1 updates the released subtask's own guard (guards
        // exist for every non-first subtask) as a side effect of
        // `Controller::on_release` below.
        if self.w.cfg.protocol == Protocol::ReleaseGuard && !job.subtask().is_first() {
            self.w.note(Note::Rule1Update {
                subtask: job.subtask(),
            });
        }
        // Protocol hooks (RG rule 1, MPM timers). MPM timers measure a
        // duration on the host processor's clock: rescale it under drift
        // (RG guard durations were pre-scaled at construction instead,
        // because the guard compares its own internal due times).
        let proc = sub.processor();
        match self.controller.on_release(self.w.set, job, self.w.now) {
            Some(ReleaseTimer::Mpm(response)) => {
                let fire_at = self.w.now + self.w.clocks[proc.index()].true_dur(response);
                self.w.note(Note::MpmTimerArmed { job, fire_at });
                self.w.queue.push(fire_at, EventKind::MpmTimer { job });
            }
            Some(ReleaseTimer::Guard(due)) => self.set_guard_deadline(job.subtask(), due),
            None => {}
        }
        self.w.advance_proc(proc);
        self.w.procs[proc.index()].release(
            job,
            self.profiles[fi].clone(),
            sub.execution(),
            sub.is_preemptible(),
        );
        self.w.mark_dirty(proc);
    }

    /// Records a `kind` violation by `job` at the current instant.
    fn push_violation(&mut self, kind: ViolationKind, job: JobId) {
        let violation = Violation {
            kind,
            job,
            time: self.w.now,
        };
        self.w.note(Note::Violation(violation));
        self.violations.push(violation);
    }

    /// End-of-instant dispatch: reschedules every processor touched during
    /// the current instant and arms each one's fresh milestone in its
    /// slot (slot `p` is processor `p`'s).
    fn flush_dispatch(&mut self) {
        for p in 0..self.w.dirty.len() {
            if !std::mem::take(&mut self.w.dirty[p]) {
                continue;
            }
            let proc = ProcessorId::new(p);
            // Completed jobs already vacated the processor during the
            // instant, so a still-running `before` that differs from
            // `after` was displaced mid-execution: a preemption.
            let before = self.w.procs[p].running_job();
            match self.w.procs[p].reschedule(self.w.now) {
                Resched::NewMilestone { at } => {
                    self.w.queue.arm(p, at, EventKind::Completion { proc });
                }
                Resched::Idle => self.w.queue.disarm(p),
                Resched::Unchanged => {}
            }
            let after = self.w.procs[p].running_job();
            if let Some(to) = after {
                if before != Some(to) {
                    self.w.note(Note::ContextSwitch {
                        proc: p,
                        from: before,
                        to,
                    });
                    if let Some(preempted) = before {
                        self.w.note(Note::Preemption {
                            proc: p,
                            preempted,
                            by: to,
                        });
                    }
                }
            }
        }
    }

    /// Assembles the end-of-instant [`EngineSample`] and hands it to the
    /// observer. Reached only through the `wants_samples` gate in the main
    /// loop; everything read here is a plain gauge, so sampling cannot
    /// perturb the schedule.
    fn emit_sample(&mut self) {
        let (peers_alive, peers_degraded, peers_suspect, peers_dead) = self
            .layers
            .detect
            .as_ref()
            .map_or((0, 0, 0, 0), |d| d.census());
        let sample = EngineSample {
            procs: &self.w.procs,
            queue_len: self.w.queue.len(),
            transport_in_flight: self
                .layers
                .transport
                .as_ref()
                .map_or(0, |t| t.in_flight_count()),
            peers_alive,
            peers_degraded,
            peers_suspect,
            peers_dead,
        };
        self.w.obs.on_sample(self.w.now, &sample);
    }
}

/// The largest single step the run can schedule past the current instant,
/// over-estimated, and what sets it: every local duration (a period with
/// its sporadic slack, an execution, an SA/PM end-to-end bound, a
/// heartbeat or sync period) stretched by the slowest clock and the
/// deepest slowdown, plus every delay a frame or timer can stack on it.
fn max_step(
    set: &TaskSet,
    cfg: &SimConfig,
    clocks: &[LocalClock],
    faults: &FaultState,
    pm_bound: Dur,
) -> (Dur, &'static str) {
    let detector = cfg.transport.as_ref().and_then(|t| t.detector.as_ref());
    let sporadic = match cfg.source {
        SourceModel::Periodic => Dur::ZERO,
        SourceModel::Sporadic { max_extra, .. } => max_extra,
    };
    let period = set.tasks().iter().map(|t| t.period()).max();
    let execution = set.subtasks().map(|s| s.execution()).max();
    // A clock slow by `d` ppm stretches a local duration by 10⁶ / (10⁶ + d).
    let slowest = i128::from(clocks.iter().map(|c| c.drift_ppm).min().unwrap_or(0));
    let stretch = |d: Option<Dur>| {
        let ticks = i128::from(d.unwrap_or(Dur::ZERO).ticks()) * 1_000_000;
        let ticks = ticks / (1_000_000 + slowest).max(1);
        faults.slowed(Dur::from_ticks(ticks.min(i128::from(i64::MAX)) as i64))
    };
    let offset = clocks.iter().map(|c| c.offset.ticks().saturating_abs());
    let thresholds = detector.map(|d| d.suspect_after.saturating_add(d.dead_after));
    let terms = [
        (
            stretch(period.map(|p| p.saturating_add(sporadic))),
            "task period",
        ),
        (stretch(execution), "subtask execution time"),
        (stretch(Some(pm_bound)), "SA/PM end-to-end bound"),
        (stretch(detector.map(|d| d.period)), "heartbeat period"),
        (stretch(cfg.sync.as_ref().map(|s| s.period)), "sync period"),
        (Dur::from_ticks(offset.max().unwrap_or(0)), "clock offset"),
        (
            cfg.nonideal
                .channel
                .map(|c| c.max_delay_bound())
                .unwrap_or(Dur::ZERO),
            "channel latency",
        ),
        (
            cfg.nonideal
                .asymmetry
                .as_ref()
                .map(|a| a.max_extra())
                .unwrap_or(Dur::ZERO),
            "link asymmetry",
        ),
        (faults.longest_link_delay(), "gray link delay"),
        (
            cfg.transport
                .as_ref()
                .map(|t| t.max_timeout)
                .unwrap_or(Dur::ZERO),
            "transport timeout",
        ),
        (thresholds.unwrap_or(Dur::ZERO), "detector thresholds"),
    ];
    let step = terms.iter().fold(Dur::ZERO, |acc, (d, _)| {
        acc.saturating_add((*d).max(Dur::ZERO))
    });
    let (_, cause) = terms.iter().max_by_key(|(d, _)| *d).expect("terms");
    (step, cause)
}

/// A horizon generous enough for every task to release
/// `instances_per_task + 5` instances even with sporadic slack.
fn default_horizon(set: &TaskSet, cfg: &SimConfig) -> Time {
    let extra = match cfg.source {
        SourceModel::Periodic => Dur::ZERO,
        SourceModel::Sporadic { max_extra, .. } => max_extra,
    };
    // A target past `i64` saturates the horizon, which the caller's
    // overflow check then reports as `SimulateError::TimeOverflow`.
    let n = i64::try_from(cfg.instances_per_task)
        .unwrap_or(i64::MAX)
        .saturating_add(5);
    let base = set
        .tasks()
        .iter()
        .map(|t| {
            t.phase()
                .saturating_add((t.period() + extra).saturating_mul(n))
        })
        .max()
        .unwrap_or(Time::ZERO);
    // Nonideal conditions can retard releases (slow clocks) and deliveries
    // (channel latency); pad so the instance target stays reachable.
    let base = base.saturating_add(cfg.nonideal.horizon_slack(base.since_origin()));
    // Reliable transport can stretch a single signal by its full retry
    // schedule; pad so retransmitted releases still land in-horizon.
    let base = match &cfg.transport {
        Some(t) => base.saturating_add(t.horizon_slack()),
        None => base,
    };
    let Some(f) = &cfg.faults else {
        return base;
    };
    let max_period = set.tasks().iter().map(|t| t.period()).max();
    let detector = cfg.transport.as_ref().and_then(|t| t.detector.as_ref());
    let lag = max_period
        .unwrap_or(Dur::ZERO)
        .saturating_add(detector.map_or(Dur::ZERO, |d| d.dead_after));
    let sum = |spans: &mut dyn Iterator<Item = Dur>| {
        spans.fold(Dur::ZERO, |a, b| a.saturating_add(b.saturating_add(lag)))
    };
    // Detector-led recovery is slower than the oracle replay of the
    // legacy fault path: after each outage the suspicion thresholds must
    // elapse before degraded releases resume progress, and forced chains
    // march one period at a time. Pad by one worst-case period plus the
    // outage and detection lag per crash window. The horizon is only a
    // cap — runs still stop the moment every task resolves its instance
    // target — so over-padding costs nothing on healthy runs.
    let base = match &cfg.transport {
        Some(_) => {
            let windows = f.resolve(set.num_processors(), base);
            base.saturating_add(sum(&mut windows.iter().flatten().map(|w| w.restart_delay)))
        }
        None => base,
    };
    // A partition stalls every cross-cut chain for its whole open window:
    // severed signals park until the heal and transport frames burn their
    // backoff schedule against the cut. Pad by each window's span plus one
    // worst-case period (and the detector's death lag, whose degraded
    // machinery may engage mid-cut and unwind only after the heal).
    let cuts = f.resolve_partitions(set.num_processors(), base);
    base.saturating_add(sum(&mut cuts.iter().map(|w| w.heals_at() - w.at)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsync_core::examples::{example1, example2};
    use rtsync_core::task::TaskId;

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    /// One outage of P1 over `[at, at + delay)`.
    fn p1_outage(at: i64, delay: i64) -> crate::faults::FaultConfig {
        let window = crate::faults::CrashWindow {
            at: t(at),
            restart_delay: Dur::from_ticks(delay),
        };
        crate::faults::FaultConfig::explicit(vec![Vec::new(), vec![window]])
    }

    fn run(protocol: Protocol, instances: u64) -> SimOutcome {
        simulate(
            &example2(),
            &SimConfig::new(protocol)
                .with_instances(instances)
                .with_trace(),
        )
        .unwrap()
    }

    #[test]
    fn instance_targets_past_i64_overflow_instead_of_wrapping() {
        for instances in [1 << 62, 1 << 63, u64::MAX] {
            let cfg = SimConfig::new(Protocol::ReleaseGuard).with_instances(instances);
            let err = simulate(&example2(), &cfg).unwrap_err();
            assert!(
                matches!(err, SimulateError::TimeOverflow { .. }),
                "{instances}: {err}"
            );
        }
    }

    #[test]
    fn ds_reproduces_figure3_releases_and_miss() {
        let out = run(Protocol::DirectSync, 6);
        let tr = out.trace.as_ref().unwrap();
        // "instances of T2,2 are released at times 4, 8, 16, 20, 28, …"
        let t22 = SubtaskId::new(TaskId::new(1), 1);
        let releases = tr.releases_of(t22);
        assert!(releases.len() >= 5, "{releases:?}");
        assert_eq!(&releases[..5], &[t(4), t(8), t(16), t(20), t(28)]);
        // T3 (our T2) misses its first deadline: released 4, due 10,
        // completes at 12 (response 8).
        let t3 = SubtaskId::new(TaskId::new(2), 0);
        let completions = tr.completions_of(t3);
        assert_eq!(completions[0], t(12));
        assert!(out.metrics.task(TaskId::new(2)).deadline_misses() >= 1);
        assert_eq!(
            out.metrics.task(TaskId::new(2)).max_eer(),
            Some(Dur::from_ticks(8))
        );
        assert!(out.violations.is_empty());
        assert!(out.reached_target);
    }

    #[test]
    fn pm_reproduces_figure5() {
        let out = run(Protocol::PhaseModification, 6);
        let tr = out.trace.as_ref().unwrap();
        // T2,2 strictly periodic from phase 4.
        let t22 = SubtaskId::new(TaskId::new(1), 1);
        assert_eq!(&tr.releases_of(t22)[..4], &[t(4), t(10), t(16), t(22)]);
        // First T3 instance completes by 9 and never misses.
        let t3 = SubtaskId::new(TaskId::new(2), 0);
        assert_eq!(tr.completions_of(t3)[0], t(9));
        assert_eq!(out.metrics.task(TaskId::new(2)).deadline_misses(), 0);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn rg_reproduces_figure7() {
        let out = run(Protocol::ReleaseGuard, 6);
        let tr = out.trace.as_ref().unwrap();
        let t22 = SubtaskId::new(TaskId::new(1), 1);
        let releases = tr.releases_of(t22);
        // First release at 4; second deferred from 8, freed by the idle
        // point at 9 (T3 completes at 9).
        assert_eq!(&releases[..2], &[t(4), t(9)]);
        let t3 = SubtaskId::new(TaskId::new(2), 0);
        assert_eq!(tr.completions_of(t3)[0], t(9));
        assert_eq!(out.metrics.task(TaskId::new(2)).deadline_misses(), 0);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn mpm_equals_pm_under_ideal_conditions() {
        // §3.1: "under the ideal conditions … the PM protocol and the MPM
        // protocol produce identical schedules."
        let pm = run(Protocol::PhaseModification, 10);
        let mpm = run(Protocol::ModifiedPhaseModification, 10);
        // Same-instant events interleave differently (timer vs clock), so
        // compare the *schedule* — time-ordered segments per processor —
        // rather than recording order.
        for p in 0..2 {
            let proc = ProcessorId::new(p);
            assert_eq!(
                pm.trace.as_ref().unwrap().segments_on(proc),
                mpm.trace.as_ref().unwrap().segments_on(proc),
                "{proc}"
            );
        }
        assert!(mpm.violations.is_empty());
    }

    #[test]
    fn chain_pipeline_on_example1() {
        let out = simulate(
            &example1(),
            &SimConfig::new(Protocol::DirectSync)
                .with_instances(4)
                .with_trace(),
        )
        .unwrap();
        // Sole task, no interference: EER = 2 + 3 + 2 = 7 every instance.
        let s = out.metrics.task(TaskId::new(0));
        assert_eq!(s.completed(), 4);
        assert_eq!(s.avg_eer(), Some(7.0));
        assert_eq!(s.max_output_jitter(), Dur::ZERO);
        assert!(out.reached_target);
    }

    #[test]
    fn horizon_stops_unschedulable_systems() {
        // Under DS, T2 keeps missing; cap the horizon and make sure the
        // run terminates without reaching an absurd target.
        let out = simulate(
            &example2(),
            &SimConfig::new(Protocol::DirectSync)
                .with_instances(1_000_000)
                .with_horizon(t(600)),
        )
        .unwrap();
        assert!(!out.reached_target);
        assert!(out.end_time <= t(600));
    }

    #[test]
    fn observed_utilization_matches_the_workload() {
        // Example 2's processors are 5/6 ≈ 83.3% utilized; over many
        // periods the observed busy fraction converges there.
        let out = simulate(
            &example2(),
            &SimConfig::new(Protocol::ReleaseGuard).with_instances(200),
        )
        .unwrap();
        for p in 0..2 {
            let u = out.observed_utilization(ProcessorId::new(p)).unwrap();
            assert!((u - 5.0 / 6.0).abs() < 0.02, "P{p}: {u}");
        }
        assert_eq!(out.busy_ticks.len(), 2);
    }

    #[test]
    fn per_subtask_responses_respect_sa_pm_bounds() {
        use rtsync_core::analysis::sa_pm::analyze_pm;
        use rtsync_core::analysis::AnalysisConfig;
        let set = example2();
        let bounds = analyze_pm(&set, &AnalysisConfig::default()).unwrap();
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::ReleaseGuard).with_instances(30),
        )
        .unwrap();
        for task in set.tasks() {
            for sub in task.subtasks() {
                let s = out.metrics.subtask(sub.id());
                assert!(s.completed() >= 30, "{}", sub.id());
                let max = s.max_response().unwrap();
                assert!(
                    max <= bounds.response(sub.id()),
                    "{}: observed {max} > bound {}",
                    sub.id(),
                    bounds.response(sub.id())
                );
                assert!(s.avg_response().unwrap() >= sub.execution().as_f64());
            }
        }
        // T2,1 (our T1.0) attains its bound 4 under interference from T1.
        assert_eq!(
            out.metrics
                .subtask(SubtaskId::new(TaskId::new(1), 0))
                .max_response(),
            Some(Dur::from_ticks(4))
        );
    }

    #[test]
    fn warmup_excludes_transient_from_statistics() {
        // Warm-up changes only the accounting window, not the schedule.
        let with = simulate(
            &example2(),
            &SimConfig::new(Protocol::DirectSync)
                .with_instances(12)
                .with_warmup(4),
        )
        .unwrap();
        let without = simulate(
            &example2(),
            &SimConfig::new(Protocol::DirectSync).with_instances(12),
        )
        .unwrap();
        let w = with.metrics.task(TaskId::new(2));
        let wo = without.metrics.task(TaskId::new(2));
        assert_eq!(w.completed(), wo.completed());
        assert_eq!(w.measured() + 4, wo.measured());
        assert!(w.max_eer() <= wo.max_eer());
    }

    #[test]
    fn highest_locker_ceiling_blocks_and_analysis_covers_it() {
        use rtsync_core::analysis::sa_pm::analyze_pm;
        use rtsync_core::analysis::AnalysisConfig;
        use rtsync_core::task::{Priority, TaskSet};
        let d = Dur::from_ticks;
        // Low-priority T1 (p=20, c=6) holds R0 on executed [1, 5); the
        // high-priority T0 (p=20, c=2, phase 2, also uses R0 briefly) is
        // released while T1 is inside the section and must wait for its
        // end despite outranking T1.
        let set = TaskSet::builder(1)
            .task(d(20))
            .phase(t(2))
            .subtask(0, d(2), Priority::new(0))
            .critical_section(0, d(0), d(1))
            .finish_task()
            .task(d(20))
            .subtask(0, d(6), Priority::new(1))
            .critical_section(0, d(1), d(4))
            .finish_task()
            .build()
            .unwrap();
        let mut checker = crate::check::InvariantObserver::default();
        let out = simulate_observed(
            &set,
            &SimConfig::new(Protocol::DirectSync)
                .with_instances(3)
                .with_trace(),
            &mut checker,
        )
        .unwrap();
        let tr = out.trace.as_ref().unwrap();
        // T1 runs 0-2 (base, then raised at executed 1); T0 arrives at 2
        // but T1 is at ceiling until executed 5 (wall time 5); T0 runs 5-7;
        // T1 finishes 7-8.
        let t0 = SubtaskId::new(TaskId::new(0), 0);
        let t1 = SubtaskId::new(TaskId::new(1), 0);
        assert_eq!(tr.completions_of(t0)[0], t(7));
        assert_eq!(tr.completions_of(t1)[0], t(8));
        // Observed response of T0: 7 - 2 = 5 = blocking 4 + its own 2 - 1…
        // and the blocking-aware SA/PM bound covers it: B = 4, C = 2 → 6.
        let bounds = analyze_pm(&set, &AnalysisConfig::default()).unwrap();
        assert_eq!(bounds.response(t0), d(6));
        assert_eq!(out.metrics.task(TaskId::new(0)).max_eer(), Some(d(5)));
        // The ceiling-aware schedule checker accepts the schedule.
        assert!(checker.is_clean(), "{:?}", checker.violations());
    }

    #[test]
    fn ceiling_lower_than_arrival_does_not_block() {
        use rtsync_core::task::{Priority, TaskSet};
        let d = Dur::from_ticks;
        // R0's ceiling is priority 1 (only mid and low use it); a
        // priority-0 arrival preempts even inside the section.
        let set = TaskSet::builder(1)
            .task(d(30))
            .phase(t(2))
            .subtask(0, d(2), Priority::new(0)) // no resources
            .finish_task()
            .task(d(30))
            .subtask(0, d(3), Priority::new(1))
            .critical_section(0, d(0), d(1))
            .finish_task()
            .task(d(30))
            .subtask(0, d(6), Priority::new(2))
            .critical_section(0, d(1), d(4))
            .finish_task()
            .build()
            .unwrap();
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::DirectSync)
                .with_instances(2)
                .with_trace(),
        )
        .unwrap();
        let tr = out.trace.as_ref().unwrap();
        // Low T2 starts at 0 (T1 base 1 vs T2... wait: T1 released at 0
        // too and outranks T2, runs 0-3; T2 runs 3-4 then enters its
        // section at executed 1 (wall 4); T0 arrives at 2 — during T1!
        // T1 is not in any ceiling ≥ 0, so T0 preempts at 2, runs 2-4.
        let t0 = SubtaskId::new(TaskId::new(0), 0);
        assert_eq!(tr.completions_of(t0)[0], t(4));
    }

    #[test]
    fn nonpreemptive_subtask_blocks_higher_priority() {
        use rtsync_core::analysis::sa_pm::analyze_pm;
        use rtsync_core::analysis::AnalysisConfig;
        use rtsync_core::task::{Priority, TaskSet};
        let d = Dur::from_ticks;
        // High-priority T0 (p=10, c=2) released at phase 1; low-priority
        // non-preemptive T1 (p=10, c=5) grabs the processor at 0 and runs
        // to 5 despite T0's arrival at 1.
        let set = TaskSet::builder(1)
            .task(d(10))
            .phase(t(1))
            .subtask(0, d(2), Priority::new(0))
            .finish_task()
            .task(d(10))
            .nonpreemptive_subtask(0, d(5), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        let mut checker = crate::check::InvariantObserver::default();
        let out = simulate_observed(
            &set,
            &SimConfig::new(Protocol::DirectSync)
                .with_instances(3)
                .with_trace(),
            &mut checker,
        )
        .unwrap();
        let tr = out.trace.as_ref().unwrap();
        // T1 runs [0, 5) uninterrupted; T0's first instance completes at 7.
        let t1_segs = tr.segments_on(ProcessorId::new(0));
        assert_eq!(
            t1_segs[0].job,
            JobId::new(SubtaskId::new(TaskId::new(1), 0), 0)
        );
        assert_eq!((t1_segs[0].start, t1_segs[0].end), (t(0), t(5)));
        let t0 = SubtaskId::new(TaskId::new(0), 0);
        assert_eq!(tr.completions_of(t0)[0], t(7));
        // The schedule checker accepts this as legitimate blocking.
        assert!(checker.is_clean(), "{:?}", checker.violations());
        // The blocking-aware analysis covers the observed worst case:
        // B = 4, so R(T0) = 4 + 2 = 6 ≥ observed 7 − 1(phase-relative)…
        // observed response = 7 − 1 = 6 exactly.
        let bounds = analyze_pm(&set, &AnalysisConfig::default()).unwrap();
        assert_eq!(bounds.response(t0), d(6));
        assert_eq!(out.metrics.task(TaskId::new(0)).max_eer(), Some(d(6)));
    }

    #[test]
    fn preemptive_version_of_the_same_system_preempts() {
        use rtsync_core::task::{Priority, TaskSet};
        let d = Dur::from_ticks;
        let set = TaskSet::builder(1)
            .task(d(10))
            .phase(t(1))
            .subtask(0, d(2), Priority::new(0))
            .finish_task()
            .task(d(10))
            .subtask(0, d(5), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::DirectSync)
                .with_instances(3)
                .with_trace(),
        )
        .unwrap();
        let t0 = SubtaskId::new(TaskId::new(0), 0);
        // T0 preempts at 1 and completes at 3.
        assert_eq!(out.trace.as_ref().unwrap().completions_of(t0)[0], t(3));
    }

    #[test]
    fn rg_rule2_fires_when_a_signal_lands_on_an_idle_processor() {
        use rtsync_core::task::{Priority, TaskSet};
        let d = Dur::from_ticks;
        // P0: T1 (p=20, c=5, prio 0) delays T0.0 (p=10, c=2, prio 1) in the
        // first period only. T0.1 (c=1) is alone on P1.
        //   Signals to P1 arrive at 7 (delayed) and 12 (undelayed): 5 ticks
        //   apart, inside the period-10 guard window — but P1 has been idle
        //   since 8, so rule 2 must release the second instance at 12, not
        //   at the guard time 17.
        let set = TaskSet::builder(2)
            .task(d(10))
            .subtask(0, d(2), Priority::new(1))
            .subtask(1, d(1), Priority::new(0))
            .finish_task()
            .task(d(20))
            .subtask(0, d(5), Priority::new(0))
            .finish_task()
            .build()
            .unwrap();
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::ReleaseGuard)
                .with_instances(4)
                .with_trace(),
        )
        .unwrap();
        let tr = out.trace.as_ref().unwrap();
        let t01 = SubtaskId::new(TaskId::new(0), 1);
        let releases = tr.releases_of(t01);
        assert_eq!(releases[0], t(7));
        assert_eq!(releases[1], t(12), "idle point at the signal instant");
    }

    #[test]
    fn rg_without_rule2_defers_to_the_guard() {
        // The Figure-7 scenario with rule 2 disabled: the deferred second
        // instance of T2,2 waits until its guard at 10 instead of being
        // freed by the idle point at 9.
        let out = simulate(
            &example2(),
            &SimConfig::new(Protocol::ReleaseGuard)
                .with_instances(4)
                .with_trace()
                .without_rg_rule2(),
        )
        .unwrap();
        let tr = out.trace.as_ref().unwrap();
        let t22 = SubtaskId::new(TaskId::new(1), 1);
        assert_eq!(&tr.releases_of(t22)[..2], &[t(4), t(10)]);
        // Rule 1 alone still bounds the worst case: no deadline misses.
        assert_eq!(out.metrics.task(TaskId::new(2)).deadline_misses(), 0);
        // And the average EER of T2 (the chain) is strictly worse than
        // with rule 2.
        let with_rule2 = simulate(
            &example2(),
            &SimConfig::new(Protocol::ReleaseGuard).with_instances(4),
        )
        .unwrap();
        assert!(
            out.metrics.task(TaskId::new(1)).avg_eer().unwrap()
                > with_rule2.metrics.task(TaskId::new(1)).avg_eer().unwrap()
        );
    }

    #[test]
    fn same_instant_cross_processor_release_does_not_delay_a_finished_job() {
        // Regression for a bound-soundness bug found by the property tests:
        // T1 (lowest priority on P0) finishes its last tick at 12, the very
        // instant T0's chain hops back onto P0 (T0.1 completes on P1 at 12
        // and releases T0.2). T1's completion must be recognized at 12 —
        // its worst EER is the SA/PM bound 8, not 10.
        use rtsync_core::analysis::sa_pm::analyze_pm;
        use rtsync_core::analysis::AnalysisConfig;
        use rtsync_core::task::{Priority, TaskSet};
        let d = Dur::from_ticks;
        let set = TaskSet::builder(2)
            .task(d(8))
            .subtask(0, d(2), Priority::new(0))
            .subtask(1, d(2), Priority::new(0))
            .subtask(0, d(2), Priority::new(1))
            .finish_task()
            .task(d(16))
            .phase(t(4))
            .subtask(0, d(3), Priority::new(3))
            .finish_task()
            .task(d(8))
            .subtask(0, d(1), Priority::new(2))
            .finish_task()
            .build()
            .unwrap();
        let bounds = analyze_pm(&set, &AnalysisConfig::default()).unwrap();
        for protocol in Protocol::ALL {
            let out = simulate(&set, &SimConfig::new(protocol).with_instances(8)).unwrap();
            for task in set.tasks() {
                let max = out.metrics.task(task.id()).max_eer().unwrap();
                assert!(
                    max <= bounds.task_bound(task.id()),
                    "{protocol:?}: task {} observed {max} > bound {}",
                    task.id(),
                    bounds.task_bound(task.id())
                );
            }
        }
    }

    #[test]
    fn max_events_backstop_terminates_runs() {
        let mut cfg = SimConfig::new(Protocol::DirectSync).with_instances(1_000_000);
        cfg.max_events = 25;
        let out = simulate(&example2(), &cfg).unwrap();
        assert!(out.events <= 25);
        assert!(!out.reached_target);
    }

    #[test]
    fn a_detector_wider_than_a_peer_set_is_an_error() {
        use rtsync_core::task::Priority;
        let spread = |procs: usize| {
            let mut builder = TaskSet::builder(procs);
            for proc in 0..procs {
                builder = builder
                    .task(Dur::from_ticks(100))
                    .subtask(proc, Dur::from_ticks(1), Priority::new(0))
                    .finish_task();
            }
            builder.build().unwrap()
        };
        let detector = TransportConfig::new(Dur::from_ticks(4))
            .with_detector(crate::detect::DetectorConfig::new(Dur::from_ticks(10)));
        let cfg = SimConfig::new(Protocol::DirectSync)
            .with_instances(2)
            .with_transport(detector);
        let widest = simulate(&spread(PeerSet::CAPACITY), &cfg).unwrap();
        assert!(widest.reached_target);
        assert!(widest.detect_stats.heartbeats_delivered > 0);
        let err = simulate(&spread(PeerSet::CAPACITY + 1), &cfg).unwrap_err();
        assert_eq!(err, SimulateError::DetectorTooWide { procs: 65 });
        assert!(err.to_string().contains("at most 64 processors"), "{err}");
        // Without a detector the width does not matter.
        let plain = SimConfig::new(Protocol::DirectSync).with_instances(2);
        assert!(simulate(&spread(PeerSet::CAPACITY + 1), &plain).is_ok());
    }

    #[test]
    fn determinism_same_config_same_outcome() {
        let a = run(Protocol::ReleaseGuard, 8);
        let b = run(Protocol::ReleaseGuard, 8);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_no_faults() {
        use crate::faults::FaultConfig;
        // The fault domain enabled with zero scheduled crashes must take
        // the exact legacy schedule: same trace, same events, same end.
        for protocol in Protocol::ALL {
            let base = simulate(
                &example2(),
                &SimConfig::new(protocol).with_instances(12).with_trace(),
            )
            .unwrap();
            let faulted = simulate(
                &example2(),
                &SimConfig::new(protocol)
                    .with_instances(12)
                    .with_trace()
                    .with_faults(FaultConfig::explicit(Vec::new())),
            )
            .unwrap();
            assert_eq!(base.trace, faulted.trace, "{protocol:?}");
            assert_eq!(base.events, faulted.events, "{protocol:?}");
            assert_eq!(base.end_time, faulted.end_time, "{protocol:?}");
            assert_eq!(faulted.fault_stats, crate::faults::FaultStats::default());
        }
    }

    #[test]
    fn crash_kills_inflight_work_and_accounts_losses() {
        // Crash P1 (hosting T2,2 and T3) at t=5 for 10 ticks under DS: the
        // running job dies, its chain instance is lost, and the run still
        // resolves every instance.
        let out = simulate(
            &example2(),
            &SimConfig::new(Protocol::DirectSync)
                .with_instances(20)
                .with_faults(p1_outage(5, 10)),
        )
        .unwrap();
        assert_eq!(out.fault_stats.crashes, 1);
        assert_eq!(out.fault_stats.recoveries, 1);
        assert!(out.fault_stats.killed_jobs >= 1, "{:?}", out.fault_stats);
        assert!(out.fault_stats.cancelled_instances >= 1);
        assert!(out.metrics.total_lost() >= 1);
        assert!(out.reached_target, "lost instances must resolve the run");
        // Completions resume after recovery: every task still completes
        // instances beyond the outage.
        for task in out.metrics.tasks() {
            assert!(task.completed() + task.lost() >= 20);
        }
    }

    #[test]
    fn signals_into_a_crashed_node_are_backlogged_and_replayed() {
        use crate::nonideal::ChannelModel;
        // T2's chain hops P0 → P1. With P1 down over [5, 15), completions
        // of T2,1 keep signalling a dead receiver: each is recorded as a
        // receiver-down violation (distinct from a channel drop) and
        // queued; ReleaseAll replays the backlog at recovery. Over a
        // lossless channel the wire worked and only the node did not, so
        // the channel drops nothing.
        let direct = SimConfig::new(Protocol::DirectSync)
            .with_instances(20)
            .with_faults(p1_outage(5, 10));
        let wired = direct
            .clone()
            .with_channel(ChannelModel::constant(Dur::from_ticks(1)));
        for cfg in [direct, wired] {
            let out = simulate(&example2(), &cfg).unwrap();
            assert!(out.fault_stats.receiver_down_signals >= 1);
            assert!(out.fault_stats.backlog_released >= 1);
            assert!(out
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::SignalReceiverDown));
            assert_eq!(out.channel_stats.dropped, 0, "lossless channel");
            assert!(out.reached_target);
        }
    }

    #[test]
    fn every_protocol_survives_random_crashes_under_every_policy() {
        use crate::faults::{FaultConfig, OverloadPolicy};
        for protocol in Protocol::ALL {
            for policy in OverloadPolicy::ALL {
                let out = simulate(
                    &example2(),
                    &SimConfig::new(protocol).with_instances(30).with_faults(
                        FaultConfig::random(Dur::from_ticks(40), Dur::from_ticks(7), 11)
                            .with_policy(policy),
                    ),
                )
                .unwrap();
                assert!(
                    out.fault_stats.crashes > 0,
                    "{protocol:?}/{policy:?}: schedule produced no crash"
                );
                assert!(
                    out.reached_target,
                    "{protocol:?}/{policy:?}: run did not resolve"
                );
                // Shedding policies may drop; ReleaseAll never does.
                if policy == OverloadPolicy::ReleaseAll {
                    assert_eq!(out.fault_stats.backlog_dropped, 0, "{protocol:?}");
                }
            }
        }
    }

    #[test]
    fn rg_recovery_reinitializes_the_guard_from_now() {
        // Figure-7 scenario with P1 crashing at 5 (T3 mid-execution) and
        // recovering at 8. The restarted node holds nothing incomplete, so
        // the first post-recovery release of T2,2 must not be deferred by
        // a stale pre-crash guard.
        let out = simulate(
            &example2(),
            &SimConfig::new(Protocol::ReleaseGuard)
                .with_instances(12)
                .with_trace()
                .with_faults(p1_outage(5, 3)),
        )
        .unwrap();
        let tr = out.trace.as_ref().unwrap();
        let t22 = SubtaskId::new(TaskId::new(1), 1);
        let releases = tr.releases_of(t22);
        // First release at 4 died in the crash; the replayed/next release
        // lands at or after recovery (8), not at a guard-deferred 4+6=10.
        assert!(releases.iter().any(|&r| r >= t(8)), "{releases:?}");
        assert!(out.reached_target);
        // RG under crashes stays honest: no precedence violations (dead
        // chains are cancelled, not released early).
        assert!(
            !out.violations
                .iter()
                .any(|v| v.kind == ViolationKind::PrecedenceViolated),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn pm_rederives_clock_releases_after_recovery() {
        // PM's T2,2 fires at local 4 + 6m on P1. An outage over [9, 21)
        // swallows the firings at 10 and 16; recovery re-derives the
        // schedule from 22 and those two instances are lost, not stalled.
        let out = simulate(
            &example2(),
            &SimConfig::new(Protocol::PhaseModification)
                .with_instances(20)
                .with_trace()
                .with_faults(p1_outage(9, 12)),
        )
        .unwrap();
        let tr = out.trace.as_ref().unwrap();
        let t22 = SubtaskId::new(TaskId::new(1), 1);
        let releases = tr.releases_of(t22);
        assert!(releases.contains(&t(4)), "{releases:?}");
        assert!(
            !releases.contains(&t(10)) && !releases.contains(&t(16)),
            "in-outage firings must not release: {releases:?}"
        );
        assert!(releases.contains(&t(22)), "re-derived firing: {releases:?}");
        assert!(out.metrics.total_lost() >= 1);
        assert!(out.reached_target);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use crate::faults::FaultConfig;
        let cfg = SimConfig::new(Protocol::ModifiedPhaseModification)
            .with_instances(25)
            .with_trace()
            .with_faults(FaultConfig::random(
                Dur::from_ticks(30),
                Dur::from_ticks(5),
                99,
            ));
        let a = simulate(&example2(), &cfg).unwrap();
        let b = simulate(&example2(), &cfg).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fault_stats, b.fault_stats);
    }
}
