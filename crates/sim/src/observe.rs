//! Pluggable run-time observability for the simulation engine.
//!
//! The engine is generic over an [`Observer`]. Everything a run reports
//! is one [`Note`]: event dispatch, releases, completions, executed
//! slices, context switches and preemptions, idle-point detection,
//! Release-Guard decisions (guard blocks, rule-1 updates, rule-2
//! releases), MPM timer arms/fires, cross-processor synchronization
//! signals, transport, detector, clock-sync and fault transitions.
//! Each note reaches [`Observer::on`] with the instant it happened at;
//! the few hooks beside it lend borrowed state (the task set, a
//! partition's island map, an end-of-instant [`EngineSample`]).
//!
//! Every hook has an empty `#[inline]` default, and the no-observer path
//! ([`crate::engine::simulate`]) is statically monomorphized over
//! [`NoopObserver`] — a zero-sized type whose calls compile away — so an
//! unobserved run is bit-for-bit and speed-identical to an engine without
//! this module.
//!
//! Two observers ship with the crate:
//!
//! - [`ProtocolCounters`] tallies what each protocol actually did
//!   (guard blocks and delay, sync interrupts, preemptions, …).
//! - [`EventLogObserver`] records a structured event log exportable as
//!   JSONL ([`EventLogObserver::to_jsonl`]) or Chrome trace-event JSON
//!   ([`EventLogObserver::to_chrome_trace`]) loadable in Perfetto /
//!   `chrome://tracing`, with one track per processor and flow arrows
//!   for cross-processor signals.
//!
//! # Examples
//!
//! ```
//! use rtsync_core::examples::example2;
//! use rtsync_core::protocol::Protocol;
//! use rtsync_core::time::Time;
//! use rtsync_sim::{simulate_observed, ProtocolCounters, SimConfig};
//!
//! let set = example2();
//! let cfg = SimConfig::new(Protocol::ReleaseGuard).with_horizon(Time::from_ticks(24));
//! let mut counters = ProtocolCounters::default();
//! let outcome = simulate_observed(&set, &cfg, &mut counters)?;
//! println!("{}", counters.render(&outcome));
//! # Ok::<(), rtsync_sim::SimulateError>(())
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use rtsync_core::protocol::Protocol;
use rtsync_core::task::{SubtaskId, TaskId, TaskSet};
use rtsync_core::time::{Dur, Time};

use crate::detect::Degradation;
use crate::engine::{SimOutcome, Violation, ViolationKind};
use crate::event::EventKind;
use crate::job::JobId;
use crate::processor::Processor;

/// End-of-instant engine state handed to [`Observer::on_sample`]: the
/// gauges a windowed telemetry recorder cannot reconstruct from discrete
/// hook events alone. Assembled only when [`Observer::wants_samples`]
/// returns `true`, so the unobserved engine never pays for it.
#[derive(Debug)]
pub struct EngineSample<'a> {
    /// The processors, for per-processor ready-queue backlog
    /// ([`Processor::backlog`]) and idle state.
    pub procs: &'a [Processor],
    /// Events pending in the event queue. An entry held in a keyed slot
    /// counts once: a processor's next milestone, the fault domain's next
    /// schedule edge (the rest of the schedule is not queued yet), a
    /// detector pair's suspicion deadline.
    pub queue_len: usize,
    /// Unacked frames across all transport sender windows (0 when the
    /// endpoint transport is off).
    pub transport_in_flight: usize,
    /// Detector census: ordered observer × subject pairs currently
    /// believed Alive (0 when no detector runs).
    pub peers_alive: u32,
    /// Pairs currently believed Degraded (φ-accrual mode only; the
    /// fixed-cliff detector has no such state and always reports 0).
    pub peers_degraded: u32,
    /// Pairs currently believed Suspect.
    pub peers_suspect: u32,
    /// Pairs currently believed Dead.
    pub peers_dead: u32,
}

/// One thing the engine reports: a release-control decision, a
/// scheduling step, a wire or clock-sync exchange, a fault transition.
/// This enum is the whole vocabulary of a run; every observer, and the
/// JSONL and Perfetto exporters, read the same variants. Each variant
/// carries only plain values, and arrives through [`Observer::on`] with
/// the instant it happened at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Note {
    /// An event was popped from the queue and is about to be dispatched.
    Event(EventKind),
    /// A job was released (became eligible to execute).
    Release {
        /// The released job.
        job: JobId,
        /// Its processor.
        proc: usize,
    },
    /// A job finished executing.
    Completion {
        /// The finished job.
        job: JobId,
        /// Its processor.
        proc: usize,
    },
    /// An instance completed end to end. Not sent for orphan
    /// completions, whose first release was never recorded.
    TaskCompletion {
        /// The task.
        task: TaskId,
        /// The instance (0-based).
        instance: u64,
        /// EER time: last-subtask completion minus first-subtask release.
        eer: Dur,
        /// `false` for warm-up instances, which are excluded from the EER
        /// statistics.
        measured: bool,
    },
    /// A job occupied a processor over `[start, end)`. Slices are
    /// maximal: consecutive ticks of the same job arrive merged.
    Slice {
        /// The processor.
        proc: usize,
        /// The job that ran.
        job: JobId,
        /// Slice start.
        start: Time,
        /// Slice end (exclusive).
        end: Time,
    },
    /// A processor switched jobs. Sent for every dispatch, including
    /// after a preemption.
    ContextSwitch {
        /// The processor.
        proc: usize,
        /// The job it ran before, `None` if it was idle.
        from: Option<JobId>,
        /// The job it runs now.
        to: JobId,
    },
    /// A job was displaced mid-execution by a higher-priority one.
    Preemption {
        /// The processor.
        proc: usize,
        /// The displaced job.
        preempted: JobId,
        /// The job that displaced it.
        by: JobId,
    },
    /// A processor reached an idle point (no job running, no ready job
    /// with a release time at or before now): the trigger for Release
    /// Guard's rule 2.
    IdlePoint {
        /// The processor.
        proc: usize,
    },
    /// Release Guard deferred a release (rule 1 spacing).
    GuardBlock {
        /// The waiting job.
        job: JobId,
        /// The guard it waits for.
        due: Time,
    },
    /// Release Guard's rule 1 updated a guard at a release.
    Rule1Update {
        /// The guarded subtask.
        subtask: SubtaskId,
    },
    /// Release Guard's rule 2 released a guard-blocked job early at an
    /// idle point.
    Rule2Release {
        /// The released job.
        job: JobId,
    },
    /// A guard expired and its job was released (rule 1's deferred
    /// release firing on time).
    GuardExpiryRelease {
        /// The released job.
        job: JobId,
    },
    /// MPM armed a completion timer.
    MpmTimerArmed {
        /// The job the timer watches.
        job: JobId,
        /// When it fires.
        fire_at: Time,
    },
    /// An MPM completion timer fired.
    MpmTimerFired {
        /// The job the timer watched.
        job: JobId,
        /// The job had not completed by then (the MPM overrun violation).
        overrun: bool,
    },
    /// A completion signalled a successor on another processor: a
    /// synchronization interrupt in the §3.3 sense (DS, MPM and RG only;
    /// PM is signalless).
    SyncInterrupt {
        /// The signalling processor.
        from: usize,
        /// The successor's processor.
        to: usize,
        /// The signalled successor.
        job: JobId,
    },
    /// A synchronization signal entered the (nonideal) channel.
    SignalSend {
        /// The job the signal releases.
        job: JobId,
    },
    /// A synchronization signal left the (nonideal) channel and was
    /// applied.
    SignalDeliver {
        /// The job the signal releases.
        job: JobId,
    },
    /// The reliable transport (re)transmitted a signal frame.
    TransportSend {
        /// The job the signal releases.
        job: JobId,
        /// The frame's sequence number.
        seq: u64,
        /// `true` for every copy after the first.
        retransmit: bool,
    },
    /// An acknowledgement reached the sender.
    TransportAck {
        /// The acked frame.
        seq: u64,
        /// First-transmission-to-ack round trip; `None` for a duplicate.
        rtt: Option<Dur>,
        /// A duplicate ack.
        dup: bool,
    },
    /// A heartbeat reached a failure detector.
    Heartbeat {
        /// The sending processor.
        from: usize,
        /// The detecting processor.
        to: usize,
    },
    /// The current network partition healed; severed signals are replayed
    /// through the per-protocol recovery reconciliation. (The partition's
    /// start lends its island map, so it has its own hook,
    /// [`Observer::on_partition_start`].)
    PartitionHeal,
    /// A clock-synchronization round settled the previous round's samples
    /// and sent a fresh batch of timestamped requests. Rounds on crashed
    /// processors are skipped and not reported.
    SyncRound {
        /// The processor.
        proc: usize,
    },
    /// Marzullo intersection produced an offset estimate.
    SyncEstimate {
        /// The processor.
        proc: usize,
        /// The offset (signed, encoded as a [`Dur`]).
        estimate: Dur,
        /// Its half-width: the achieved offset bound of the round.
        uncertainty: Dur,
    },
    /// A processor corrected its clock. Sent only for nonzero
    /// corrections.
    SyncCorrection {
        /// The processor.
        proc: usize,
        /// The step (signed; clamped by the slew policy when one is
        /// configured).
        step: Dur,
    },
    /// Oracle check of one settled sync round: the Marzullo
    /// `estimate ± uncertainty` interval against the true offset. The
    /// bracket is honest iff `|estimate - true_offset| <= uncertainty`.
    SyncBracket {
        /// The processor.
        proc: usize,
        /// The estimated offset (signed).
        estimate: Dur,
        /// The estimate's half-width.
        uncertainty: Dur,
        /// The processor's true offset (signed).
        true_offset: Dur,
    },
    /// A timeserver persona corrupted the sync response it just sent
    /// (adversarial mode only; the reference self-exchange is exempt).
    SyncCorrupted {
        /// The lying responder.
        responder: usize,
    },
    /// A failure-detector transition or graceful-degradation action.
    Degradation(Degradation),
    /// A processor crashed (fail-stop).
    Crash {
        /// The processor.
        proc: usize,
        /// In-flight jobs (running or ready) that died with it.
        killed: usize,
    },
    /// A processor recovered; its outage backlog was resolved under the
    /// overload policy.
    Recovery {
        /// The processor.
        proc: usize,
        /// Backlogged releases made.
        released: u64,
        /// Backlogged releases dropped.
        dropped: u64,
    },
    /// A processor changed execution rate.
    Slowdown {
        /// The processor.
        proc: usize,
        /// `> 1` opens a slowdown window (every tick of service takes
        /// `factor` wall ticks); `1` restores full speed.
        factor: u32,
    },
    /// A processor entered or left a GC-pause-style stall: a full stop
    /// that, unlike a crash, keeps in-flight jobs, guards and timers.
    Stall {
        /// The processor.
        proc: usize,
        /// `true` on entry, `false` on exit.
        stalled: bool,
    },
    /// A directed link entered or left a degradation window (inflated
    /// latency, jitter and drop rate on a live wire).
    LinkDegrade {
        /// The sending end.
        from: usize,
        /// The receiving end.
        to: usize,
        /// `true` on entry, `false` on exit.
        on: bool,
    },
    /// A violation was recorded.
    Violation(Violation),
    /// The run ended.
    RunEnd {
        /// Events dispatched.
        events: u64,
    },
}

/// Engine instrumentation. Every [`Note`] arrives through [`Observer::on`];
/// the other hooks carry borrowed state a `Copy` note cannot. Every
/// method has an empty `#[inline]` default, and the engine is
/// monomorphized over the concrete observer type: with [`NoopObserver`]
/// every call site compiles to nothing.
#[allow(unused_variables)]
pub trait Observer {
    /// A run is starting on `set` under `protocol`. Called once, before
    /// any event fires; size per-task/per-processor state here.
    #[inline]
    fn on_run_start(&mut self, set: &TaskSet, protocol: Protocol) {}

    /// The engine reports `note` at `now`.
    #[inline]
    fn on(&mut self, now: Time, note: Note) {}

    /// A network partition opened: `island` marks, per processor, which
    /// side of the cut it landed on (the two truth values are the two
    /// islands). Cross-island traffic is severed until
    /// [`Note::PartitionHeal`].
    #[inline]
    fn on_partition_start(&mut self, now: Time, island: &[bool]) {}

    /// Whether the engine should assemble end-of-instant
    /// [`EngineSample`]s for [`Observer::on_sample`]. The default `false`
    /// keeps the unobserved hot path from even gathering the sample:
    /// monomorphization folds the constant away, so the telemetry-off
    /// engine stays bit-for-bit (and instruction-for-instruction)
    /// identical.
    #[inline]
    fn wants_samples(&self) -> bool {
        false
    }

    /// End-of-instant state snapshot: queue depths, per-processor ready
    /// backlogs, transport window, detector census. Emitted after the
    /// dispatch flush of each distinct instant, and only when
    /// [`Observer::wants_samples`] returns `true`. The sample is
    /// read-only: observers can record it but never perturb the schedule.
    #[inline]
    fn on_sample(&mut self, now: Time, sample: &EngineSample<'_>) {}
}

/// The zero-sized do-nothing observer behind [`crate::engine::simulate`].
/// Monomorphization erases every hook call, keeping the unobserved engine
/// identical to one without observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Fans every hook out to two observers, letting a single run feed e.g.
/// a [`ProtocolCounters`] and an [`EventLogObserver`] at once:
///
/// ```
/// use rtsync_core::examples::example2;
/// use rtsync_core::protocol::Protocol;
/// use rtsync_sim::{simulate_observed, EventLogObserver, ProtocolCounters, SimConfig, Tee};
///
/// let mut counters = ProtocolCounters::default();
/// let mut log = EventLogObserver::default();
/// simulate_observed(
///     &example2(),
///     &SimConfig::new(Protocol::DirectSync).with_instances(10),
///     &mut Tee(&mut counters, &mut log),
/// )?;
/// assert!(counters.total_context_switches() > 0 && !log.is_empty());
/// # Ok::<(), rtsync_sim::SimulateError>(())
/// ```
#[derive(Debug)]
pub struct Tee<'a, A, B>(pub &'a mut A, pub &'a mut B);

impl<A: Observer, B: Observer> Observer for Tee<'_, A, B> {
    #[inline]
    fn on_run_start(&mut self, set: &TaskSet, protocol: Protocol) {
        self.0.on_run_start(set, protocol);
        self.1.on_run_start(set, protocol);
    }

    #[inline]
    fn on(&mut self, now: Time, note: Note) {
        self.0.on(now, note);
        self.1.on(now, note);
    }

    #[inline]
    fn on_partition_start(&mut self, now: Time, island: &[bool]) {
        self.0.on_partition_start(now, island);
        self.1.on_partition_start(now, island);
    }

    /// A tee wants samples as soon as either side does; a side that did
    /// not ask still receives them (its `on_sample` default is empty, so
    /// that costs nothing).
    #[inline]
    fn wants_samples(&self) -> bool {
        self.0.wants_samples() || self.1.wants_samples()
    }

    #[inline]
    fn on_sample(&mut self, now: Time, sample: &EngineSample<'_>) {
        self.0.on_sample(now, sample);
        self.1.on_sample(now, sample);
    }
}

/// Per-task tallies collected by [`ProtocolCounters`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskCounters {
    /// Subtask releases (jobs made eligible).
    pub releases: u64,
    /// Subtask completions.
    pub completions: u64,
    /// Releases deferred by a Release Guard (rule-1 spacing).
    pub guard_blocks: u64,
    /// Total time guard-blocked jobs waited before release.
    pub guard_delay_total: Dur,
    /// Longest single guard delay.
    pub guard_delay_max: Dur,
    /// Rule-1 guard updates (guard set at a release).
    pub rule1_updates: u64,
    /// Rule-2 early releases (guard reset at an idle point).
    pub rule2_releases: u64,
    /// On-time guard-expiry releases.
    pub guard_expiry_releases: u64,
    /// MPM completion timers armed.
    pub mpm_timer_arms: u64,
    /// MPM completion timers fired.
    pub mpm_timer_fires: u64,
    /// MPM timers that fired before their job completed.
    pub mpm_overruns: u64,
    /// Cross-processor synchronization interrupts targeting this task.
    pub sync_interrupts: u64,
}

/// Per-processor tallies collected by [`ProtocolCounters`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcCounters {
    /// Jobs displaced mid-execution by a higher-priority job.
    pub preemptions: u64,
    /// Dispatches (the processor switched to a different job).
    pub context_switches: u64,
    /// Idle points detected (the rule-2 trigger).
    pub idle_points: u64,
}

/// An [`Observer`] that tallies what a protocol actually did during a
/// run: per-task release-control decisions and per-processor scheduling
/// churn, plus signal-channel pressure.
///
/// It keeps only what no layer of the run already counts. Events,
/// violations, degradations and the transport, detector, sync and fault
/// counters live in the [`SimOutcome`], which [`ProtocolCounters::render`]
/// reads them from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtocolCounters {
    protocol: Option<Protocol>,
    tasks: Vec<TaskCounters>,
    procs: Vec<ProcCounters>,
    /// Protocol signals handed to the nonideal channel. Unlike
    /// [`crate::nonideal::ChannelStats::sent`], this leaves out the sync
    /// frames that share the channel.
    pub signal_sends: u64,
    /// Signals delivered out of the nonideal channel.
    pub signal_delivers: u64,
    /// Sync request/response frames delivered out of the channel.
    /// [`crate::SyncStats::frames`] counts the frames sent instead.
    pub sync_frames: u64,
    signal_depth: u64,
    signal_depth_hwm: u64,
    /// Guard-blocked jobs and when they blocked. Ordered, so `{:?}` of
    /// two identical runs prints the same text.
    blocked_at: BTreeMap<JobId, Time>,
    /// Each subtask's processor, `[task][chain index]`: a crash cancels
    /// the guard-blocked jobs of the subtasks it hosts.
    hosts: Vec<Vec<usize>>,
}

impl ProtocolCounters {
    /// The protocol of the observed run (`None` before a run starts).
    pub fn protocol(&self) -> Option<Protocol> {
        self.protocol
    }

    /// Counters of one task.
    pub fn task(&self, id: TaskId) -> &TaskCounters {
        &self.tasks[id.index()]
    }

    /// All per-task counters, indexed by task.
    pub fn tasks(&self) -> &[TaskCounters] {
        &self.tasks
    }

    /// All per-processor counters, indexed by processor.
    pub fn procs(&self) -> &[ProcCounters] {
        &self.procs
    }

    /// High-water mark of in-flight signals in the nonideal channel.
    pub fn signal_depth_high_water(&self) -> u64 {
        self.signal_depth_hwm
    }

    /// Guard blocks summed over tasks.
    pub fn total_guard_blocks(&self) -> u64 {
        self.tasks.iter().map(|t| t.guard_blocks).sum()
    }

    /// Guard delay summed over tasks.
    pub fn total_guard_delay(&self) -> Dur {
        self.tasks
            .iter()
            .fold(Dur::ZERO, |acc, t| acc + t.guard_delay_total)
    }

    /// Synchronization interrupts summed over tasks.
    pub fn total_sync_interrupts(&self) -> u64 {
        self.tasks.iter().map(|t| t.sync_interrupts).sum()
    }

    /// Preemptions summed over processors.
    pub fn total_preemptions(&self) -> u64 {
        self.procs.iter().map(|p| p.preemptions).sum()
    }

    /// Context switches summed over processors.
    pub fn total_context_switches(&self) -> u64 {
        self.procs.iter().map(|p| p.context_switches).sum()
    }

    /// Fraction of delivered wire traffic that was sync frames:
    /// `sync / (signals + transport frames + heartbeats + sync)`, with the
    /// transport frames (retransmissions included) and heartbeats taken
    /// from the observed run's `outcome`. `None` when nothing crossed the
    /// wire.
    pub fn sync_traffic_share(&self, outcome: &SimOutcome) -> Option<f64> {
        let total = self.signal_sends
            + transport_frames(outcome)
            + outcome.detect_stats.heartbeats_delivered
            + self.sync_frames;
        (total > 0).then(|| self.sync_frames as f64 / total as f64)
    }

    /// Renders the counters of the run that produced `outcome` as a
    /// plain-text table.
    pub fn render(&self, outcome: &SimOutcome) -> String {
        let tag = self.protocol.map_or("?", Protocol::tag);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "protocol {tag}: {} events, {} signals sent / {} delivered (depth hwm {}), {} violations",
            outcome.events, self.signal_sends, self.signal_delivers, self.signal_depth_hwm,
            outcome.violations.len(),
        );
        let transport = &outcome.transport_stats;
        let heartbeats = outcome.detect_stats.heartbeats_delivered;
        if transport_frames(outcome) + heartbeats + outcome.degradations.len() as u64 > 0 {
            let _ = writeln!(
                out,
                "transport: {} frames ({} retx), {} acks ({} dup), {} heartbeats, \
                 {} degradation events",
                transport_frames(outcome),
                transport.retransmissions,
                transport_acks(outcome),
                transport.dup_acks,
                heartbeats,
                outcome.degradations.len(),
            );
        }
        let sync = &outcome.sync_stats;
        if sync.rounds > 0 {
            let share = self.sync_traffic_share(outcome).unwrap_or(0.0) * 100.0;
            let tick = |q: Option<Dur>| q.map_or(0, |d| d.ticks());
            let _ = writeln!(
                out,
                "sync: {} rounds, {} estimates (bound {} ticks), {} frames ({share:.1}% of \
                 wire), corrections n={} p50={} max={}",
                sync.rounds,
                sync.estimates,
                sync.max_uncertainty.ticks(),
                self.sync_frames,
                sync.corrections.len(),
                tick(sync.corrections.quantile(0.5)),
                tick(sync.corrections.quantile(1.0)),
            );
        }
        let _ = writeln!(
            out,
            "{:<6}{:>6}{:>6}{:>8}{:>9}{:>7}{:>6}{:>6}{:>8}{:>9}{:>6}",
            "task",
            "rel",
            "done",
            "g.blk",
            "g.delay",
            "g.max",
            "r1",
            "r2",
            "mpm.arm",
            "mpm.fire",
            "sync"
        );
        for (i, t) in self.tasks.iter().enumerate() {
            let _ = writeln!(
                out,
                "T{:<5}{:>6}{:>6}{:>8}{:>9}{:>7}{:>6}{:>6}{:>8}{:>9}{:>6}",
                i,
                t.releases,
                t.completions,
                t.guard_blocks,
                t.guard_delay_total.ticks(),
                t.guard_delay_max.ticks(),
                t.rule1_updates,
                t.rule2_releases,
                t.mpm_timer_arms,
                t.mpm_timer_fires,
                t.sync_interrupts,
            );
        }
        let _ = writeln!(
            out,
            "{:<6}{:>9}{:>7}{:>6}",
            "proc", "preempt", "ctxsw", "idle"
        );
        for (p, c) in self.procs.iter().enumerate() {
            let _ = writeln!(
                out,
                "P{:<5}{:>9}{:>7}{:>6}",
                p, c.preemptions, c.context_switches, c.idle_points
            );
        }
        out
    }

    fn guard_released(&mut self, now: Time, job: JobId) -> &mut TaskCounters {
        if let Some(t0) = self.blocked_at.remove(&job) {
            let delay = now - t0;
            let t = &mut self.tasks[job.task().index()];
            t.guard_delay_total += delay;
            t.guard_delay_max = t.guard_delay_max.max(delay);
        }
        &mut self.tasks[job.task().index()]
    }
}

/// Transport frame transmissions of a run, retransmissions included.
fn transport_frames(outcome: &SimOutcome) -> u64 {
    outcome.transport_stats.sent + outcome.transport_stats.retransmissions
}

/// Transport acks that reached a sender, duplicates included.
fn transport_acks(outcome: &SimOutcome) -> u64 {
    outcome.transport_stats.acks + outcome.transport_stats.dup_acks
}

impl Observer for ProtocolCounters {
    fn on_run_start(&mut self, set: &TaskSet, protocol: Protocol) {
        self.protocol = Some(protocol);
        self.tasks = vec![TaskCounters::default(); set.num_tasks()];
        self.procs = vec![ProcCounters::default(); set.num_processors()];
        self.hosts = set
            .tasks()
            .iter()
            .map(|t| t.subtasks().iter().map(|s| s.processor().index()).collect())
            .collect();
    }

    fn on(&mut self, now: Time, note: Note) {
        let task = |job: JobId| job.task().index();
        match note {
            Note::Event(EventKind::SyncRequest { .. } | EventKind::SyncResponse { .. }) => {
                self.sync_frames += 1;
            }
            Note::Release { job, .. } => self.tasks[task(job)].releases += 1,
            Note::Completion { job, .. } => self.tasks[task(job)].completions += 1,
            Note::ContextSwitch { proc, .. } => self.procs[proc].context_switches += 1,
            Note::Preemption { proc, .. } => self.procs[proc].preemptions += 1,
            Note::IdlePoint { proc } => self.procs[proc].idle_points += 1,
            Note::GuardBlock { job, .. } => {
                self.tasks[task(job)].guard_blocks += 1;
                self.blocked_at.insert(job, now);
            }
            Note::Rule1Update { subtask } => {
                self.tasks[subtask.task().index()].rule1_updates += 1;
            }
            Note::Rule2Release { job } => self.guard_released(now, job).rule2_releases += 1,
            Note::GuardExpiryRelease { job } => {
                self.guard_released(now, job).guard_expiry_releases += 1;
            }
            Note::MpmTimerArmed { job, .. } => self.tasks[task(job)].mpm_timer_arms += 1,
            Note::MpmTimerFired { job, overrun } => {
                let t = &mut self.tasks[task(job)];
                t.mpm_timer_fires += 1;
                t.mpm_overruns += u64::from(overrun);
            }
            Note::SyncInterrupt { job, .. } => self.tasks[task(job)].sync_interrupts += 1,
            Note::SignalSend { .. } => {
                self.signal_sends += 1;
                self.signal_depth += 1;
                self.signal_depth_hwm = self.signal_depth_hwm.max(self.signal_depth);
            }
            Note::SignalDeliver { .. } => {
                self.signal_delivers += 1;
                self.signal_depth = self.signal_depth.saturating_sub(1);
            }
            Note::Crash { proc, .. } => {
                // Every deferred release on the node dies with it, and no
                // release note will follow for those jobs.
                let hosts = &self.hosts;
                self.blocked_at
                    .retain(|job, _| hosts[task(*job)][job.subtask().index()] != proc);
            }
            // Jobs still deferred when the run stops are never released;
            // their guard delay is unknown and stays uncounted.
            Note::RunEnd { .. } => self.blocked_at.clear(),
            _ => {}
        }
    }
}

/// An [`Observer`] that records a structured event log and exports it as
/// JSONL or Chrome trace-event JSON (Perfetto / `chrome://tracing`).
#[derive(Clone, Debug, Default)]
pub struct EventLogObserver {
    protocol: Option<Protocol>,
    num_procs: usize,
    num_tasks: usize,
    proc_of: HashMap<SubtaskId, usize>,
    records: Vec<(Time, Note)>,
}

impl EventLogObserver {
    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no record was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the log as JSON Lines: one JSON object per line, each
    /// with a `"type"` discriminator. The first line is always the
    /// `run_start` header. This schema is pinned by a golden test.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let tag = self.protocol.map_or("?", Protocol::tag);
        let _ = writeln!(
            out,
            "{{\"type\":\"run_start\",\"protocol\":\"{tag}\",\"processors\":{},\"tasks\":{}}}",
            self.num_procs, self.num_tasks
        );
        for &(now, note) in &self.records {
            let _ = writeln!(out, "{}", jsonl_line(now.ticks(), note));
        }
        out
    }

    /// Serializes the log in the Chrome trace-event JSON format, loadable
    /// in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    ///
    /// One track (`tid`) per processor; executed slices are `ph:"X"`
    /// complete events (ticks as microseconds), releases and completions
    /// are `ph:"i"` instants, and cross-processor synchronization signals
    /// are `s`/`f` flow pairs from the completing processor's track to
    /// the receiving one — drawn by both viewers as arrows.
    pub fn to_chrome_trace(&self) -> String {
        self.to_chrome_trace_with(&[])
    }

    /// [`EventLogObserver::to_chrome_trace`] with extra pre-serialized
    /// trace events spliced into the `traceEvents` array — the hook the
    /// telemetry layer uses to lay its counter tracks
    /// ([`crate::telemetry::TelemetryReport::chrome_counter_events`])
    /// above the flow arrows of the same run.
    pub fn to_chrome_trace_with(&self, extra: &[String]) -> String {
        let tag = self.protocol.map_or("?", Protocol::tag);
        let mut ev: Vec<String> = Vec::new();
        ev.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\
             \"args\":{{\"name\":\"rtsync {tag}\"}}}}"
        ));
        for p in 0..self.num_procs {
            ev.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\"ts\":0,\
                 \"args\":{{\"name\":\"P{p}\"}}}}"
            ));
        }

        // Pair each sync interrupt's flow-finish with the matching channel
        // delivery when one exists (nonideal runs); under an ideal channel
        // the signal is applied at the same instant it is raised.
        let mut deliveries: HashMap<JobId, std::collections::VecDeque<i64>> = HashMap::new();
        for &(now, note) in &self.records {
            if let Note::SignalDeliver { job } = note {
                deliveries.entry(job).or_default().push_back(now.ticks());
            }
        }

        let mut flow_id = 0u64;
        for &(now, note) in &self.records {
            let t = now.ticks();
            match note {
                Note::Slice {
                    proc,
                    job,
                    start,
                    end,
                } => ev.push(format!(
                    "{{\"name\":\"{job}\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":0,\"tid\":{proc}}}",
                    start.ticks(),
                    (end - start).ticks()
                )),
                Note::Release { proc, job } => ev.push(format!(
                    "{{\"name\":\"release {job}\",\"cat\":\"release\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{t},\"pid\":0,\"tid\":{proc}}}"
                )),
                Note::Completion { proc, job } => ev.push(format!(
                    "{{\"name\":\"done {job}\",\"cat\":\"completion\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{t},\"pid\":0,\"tid\":{proc}}}"
                )),
                Note::GuardBlock { job, due } => {
                    let proc = self.proc_of.get(&job.subtask()).copied().unwrap_or(0);
                    ev.push(format!(
                        "{{\"name\":\"guard {job} until {}\",\"cat\":\"guard\",\"ph\":\"i\",\
                         \"s\":\"t\",\"ts\":{t},\"pid\":0,\"tid\":{proc}}}",
                        due.ticks()
                    ));
                }
                Note::Crash { proc, killed } => ev.push(format!(
                    "{{\"name\":\"CRASH ({killed} killed)\",\"cat\":\"fault\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{t},\"pid\":0,\"tid\":{proc}}}"
                )),
                Note::Recovery {
                    proc,
                    released,
                    dropped,
                } => ev.push(format!(
                    "{{\"name\":\"RECOVER (+{released}/-{dropped})\",\"cat\":\"fault\",\
                     \"ph\":\"i\",\"s\":\"t\",\"ts\":{t},\"pid\":0,\"tid\":{proc}}}"
                )),
                Note::SyncInterrupt { from, to, job } => {
                    flow_id += 1;
                    ev.push(format!(
                        "{{\"name\":\"signal {job}\",\"cat\":\"signal\",\"ph\":\"s\",\
                         \"id\":{flow_id},\"ts\":{t},\"pid\":0,\"tid\":{from}}}"
                    ));
                    let (ft, ftid) = match deliveries.get_mut(&job).and_then(|q| q.pop_front()) {
                        Some(dt) => (dt, self.proc_of.get(&job.subtask()).copied().unwrap_or(to)),
                        None => (t, to),
                    };
                    ev.push(format!(
                        "{{\"name\":\"signal {job}\",\"cat\":\"signal\",\"ph\":\"f\",\
                         \"bp\":\"e\",\"id\":{flow_id},\"ts\":{ft},\"pid\":0,\"tid\":{ftid}}}"
                    ));
                }
                _ => {}
            }
        }
        ev.extend(extra.iter().cloned());
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            ev.join(",\n")
        )
    }
}

fn violation_tag(kind: &ViolationKind) -> &'static str {
    match kind {
        ViolationKind::PrecedenceViolated => "precedence",
        ViolationKind::MpmOverrun => "mpm_overrun",
        ViolationKind::SignalLost => "signal_lost",
        ViolationKind::SignalReceiverDown => "signal_receiver_down",
    }
}

fn degradation_json(t: i64, kind: &Degradation) -> String {
    match kind {
        Degradation::PeerDegraded {
            observer,
            subject,
            gray_truth,
        } => format!(
            "{{\"type\":\"degradation\",\"t\":{t},\"kind\":\"peer_degraded\",\
             \"observer\":{observer},\"subject\":{subject},\"gray_truth\":{gray_truth}}}"
        ),
        Degradation::PeerSuspect {
            observer,
            subject,
            false_positive,
        } => format!(
            "{{\"type\":\"degradation\",\"t\":{t},\"kind\":\"peer_suspect\",\
             \"observer\":{observer},\"subject\":{subject},\"false_positive\":{false_positive}}}"
        ),
        Degradation::PeerDead {
            observer,
            subject,
            false_positive,
        } => format!(
            "{{\"type\":\"degradation\",\"t\":{t},\"kind\":\"peer_dead\",\
             \"observer\":{observer},\"subject\":{subject},\"false_positive\":{false_positive}}}"
        ),
        Degradation::PeerRevived { observer, subject } => format!(
            "{{\"type\":\"degradation\",\"t\":{t},\"kind\":\"peer_revived\",\
             \"observer\":{observer},\"subject\":{subject}}}"
        ),
        Degradation::ForcedRelease { job, dead_peer } => format!(
            "{{\"type\":\"degradation\",\"t\":{t},\"kind\":\"forced_release\",\
             \"job\":\"{job}\",\"dead_peer\":{dead_peer}}}"
        ),
        Degradation::StaleSignal { job } => format!(
            "{{\"type\":\"degradation\",\"t\":{t},\"kind\":\"stale_signal\",\"job\":\"{job}\"}}"
        ),
        Degradation::SignalAbandoned { job, attempts } => format!(
            "{{\"type\":\"degradation\",\"t\":{t},\"kind\":\"signal_abandoned\",\
             \"job\":\"{job}\",\"attempts\":{attempts}}}"
        ),
        Degradation::WatchdogTrip { task, streak } => format!(
            "{{\"type\":\"degradation\",\"t\":{t},\"kind\":\"watchdog_trip\",\
             \"task\":{task},\"streak\":{streak}}}"
        ),
    }
}

/// The notes the event log keeps. Heartbeats are deliberately left out:
/// at one per processor pair per period they would dwarf every other
/// record class. The other omitted notes have no record type.
fn logged(note: &Note) -> bool {
    !matches!(
        note,
        Note::Event(_)
            | Note::TaskCompletion { .. }
            | Note::Rule1Update { .. }
            | Note::Heartbeat { .. }
            | Note::PartitionHeal
            | Note::SyncRound { .. }
            | Note::SyncEstimate { .. }
            | Note::SyncCorrection { .. }
            | Note::SyncBracket { .. }
            | Note::SyncCorrupted { .. }
            | Note::Slowdown { .. }
            | Note::Stall { .. }
            | Note::LinkDegrade { .. }
    )
}

fn jsonl_line(t: i64, note: Note) -> String {
    let (ty, fields) = match note {
        // Slices span an interval, so they carry no instant.
        Note::Slice {
            proc,
            job,
            start,
            end,
        } => {
            let (start, end) = (start.ticks(), end.ticks());
            return format!(
                "{{\"type\":\"slice\",\"proc\":{proc},\"job\":\"{job}\",\"start\":{start},\
                 \"end\":{end}}}"
            );
        }
        Note::Degradation(kind) => return degradation_json(t, &kind),
        Note::Release { proc, job } => ("release", format!("\"proc\":{proc},\"job\":\"{job}\"")),
        Note::Completion { proc, job } => {
            ("completion", format!("\"proc\":{proc},\"job\":\"{job}\""))
        }
        Note::ContextSwitch { proc, from, to } => {
            let from = from.map_or("null".to_string(), |j| format!("\"{j}\""));
            let fields = format!("\"proc\":{proc},\"from\":{from},\"to\":\"{to}\"");
            ("context_switch", fields)
        }
        Note::Preemption {
            proc,
            preempted,
            by,
        } => (
            "preemption",
            format!("\"proc\":{proc},\"preempted\":\"{preempted}\",\"by\":\"{by}\""),
        ),
        Note::IdlePoint { proc } => ("idle_point", format!("\"proc\":{proc}")),
        Note::GuardBlock { job, due } => (
            "guard_block",
            format!("\"job\":\"{job}\",\"due\":{}", due.ticks()),
        ),
        Note::Rule2Release { job } => (
            "guard_release",
            format!("\"job\":\"{job}\",\"rule\":\"idle-point\""),
        ),
        Note::GuardExpiryRelease { job } => (
            "guard_release",
            format!("\"job\":\"{job}\",\"rule\":\"expiry\""),
        ),
        Note::MpmTimerArmed { job, fire_at } => (
            "mpm_timer_armed",
            format!("\"job\":\"{job}\",\"fire_at\":{}", fire_at.ticks()),
        ),
        Note::MpmTimerFired { job, overrun } => (
            "mpm_timer_fired",
            format!("\"job\":\"{job}\",\"overrun\":{overrun}"),
        ),
        Note::SyncInterrupt { from, to, job } => (
            "sync_interrupt",
            format!("\"from\":{from},\"to\":{to},\"job\":\"{job}\""),
        ),
        Note::SignalSend { job } => ("signal_send", format!("\"job\":\"{job}\"")),
        Note::SignalDeliver { job } => ("signal_deliver", format!("\"job\":\"{job}\"")),
        Note::TransportSend {
            job,
            seq,
            retransmit,
        } => (
            "transport_send",
            format!("\"job\":\"{job}\",\"seq\":{seq},\"retransmit\":{retransmit}"),
        ),
        Note::TransportAck { seq, dup, .. } => {
            ("transport_ack", format!("\"seq\":{seq},\"dup\":{dup}"))
        }
        // The engine records every violation at the instant it happens.
        Note::Violation(v) => (
            "violation",
            format!(
                "\"kind\":\"{}\",\"job\":\"{}\"",
                violation_tag(&v.kind),
                v.job
            ),
        ),
        Note::Crash { proc, killed } => ("crash", format!("\"proc\":{proc},\"killed\":{killed}")),
        Note::Recovery {
            proc,
            released,
            dropped,
        } => (
            "recovery",
            format!("\"proc\":{proc},\"released\":{released},\"dropped\":{dropped}"),
        ),
        Note::RunEnd { events } => ("run_end", format!("\"events\":{events}")),
        _ => unreachable!("the event log keeps no {note:?}"),
    };
    format!("{{\"type\":\"{ty}\",\"t\":{t},{fields}}}")
}

impl Observer for EventLogObserver {
    fn on_run_start(&mut self, set: &TaskSet, protocol: Protocol) {
        self.protocol = Some(protocol);
        self.num_procs = set.num_processors();
        self.num_tasks = set.num_tasks();
        self.proc_of = set
            .subtasks()
            .map(|s| (s.id(), s.processor().index()))
            .collect();
        self.records.clear();
    }

    fn on(&mut self, now: Time, note: Note) {
        if logged(&note) {
            self.records.push((now, note));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopObserver>(), 0);
    }

    #[test]
    fn counters_track_guard_delay() {
        let mut c = ProtocolCounters::default();
        let set = rtsync_core::examples::example2();
        c.on_run_start(&set, Protocol::ReleaseGuard);
        let job = JobId::new(SubtaskId::new(TaskId::new(1), 1), 0);
        let due = Time::from_ticks(7);
        c.on(Time::from_ticks(4), Note::GuardBlock { job, due });
        c.on(due, Note::GuardExpiryRelease { job });
        let t = c.task(TaskId::new(1));
        assert_eq!(t.guard_blocks, 1);
        assert_eq!(t.guard_delay_total, Dur::from_ticks(3));
        assert_eq!(t.guard_delay_max, Dur::from_ticks(3));
        assert_eq!(t.guard_expiry_releases, 1);
        assert_eq!(c.total_guard_delay(), Dur::from_ticks(3));
    }

    #[test]
    fn counters_track_signal_depth_high_water() {
        let mut c = ProtocolCounters::default();
        let set = rtsync_core::examples::example2();
        c.on_run_start(&set, Protocol::DirectSync);
        let job = JobId::new(SubtaskId::new(TaskId::new(1), 1), 0);
        c.on(Time::from_ticks(1), Note::SignalSend { job });
        c.on(Time::from_ticks(2), Note::SignalSend { job });
        c.on(Time::from_ticks(3), Note::SignalDeliver { job });
        c.on(Time::from_ticks(4), Note::SignalSend { job });
        assert_eq!(c.signal_sends, 3);
        assert_eq!(c.signal_delivers, 1);
        assert_eq!(c.signal_depth_high_water(), 2);
    }

    #[test]
    fn event_log_jsonl_lines_are_objects() {
        let mut o = EventLogObserver::default();
        let set = rtsync_core::examples::example2();
        o.on_run_start(&set, Protocol::DirectSync);
        let job = JobId::new(SubtaskId::new(TaskId::new(0), 0), 0);
        let (start, end) = (Time::from_ticks(0), Time::from_ticks(2));
        o.on(start, Note::Release { job, proc: 0 });
        o.on(
            end,
            Note::Slice {
                proc: 0,
                job,
                start,
                end,
            },
        );
        o.on(end, Note::Completion { job, proc: 0 });
        o.on(Time::from_ticks(24), Note::RunEnd { events: 10 });
        let jsonl = o.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\""), "{line}");
        }
        assert!(lines[0].contains("\"protocol\":\"DS\""));
        assert!(lines[4].contains("\"type\":\"run_end\""));
    }
}
