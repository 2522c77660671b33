//! Pluggable run-time observability for the simulation engine.
//!
//! The engine is generic over an [`Observer`] whose hooks fire at every
//! interesting point of a run: event dispatch, releases, completions,
//! executed slices, context switches and preemptions, idle-point
//! detection, Release-Guard decisions (guard blocks, rule-1 updates,
//! rule-2 releases), MPM timer arms/fires, and cross-processor
//! synchronization signals.
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

use std::collections::HashMap;
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
    /// Events pending in the event queue.
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

/// Engine instrumentation hooks. Every method has an empty default, so an
/// implementation overrides only what it cares about. The engine is
/// monomorphized over the concrete observer type: with [`NoopObserver`]
/// every call site compiles to nothing.
#[allow(unused_variables)]
pub trait Observer {
    /// A run is starting on `set` under `protocol`. Called once, before
    /// any event fires; size per-task/per-processor state here.
    #[inline]
    fn on_run_start(&mut self, set: &TaskSet, protocol: Protocol) {}

    /// An event was popped from the queue and is about to be dispatched.
    #[inline]
    fn on_event(&mut self, now: Time, kind: &EventKind) {}

    /// `job` was released (became eligible to execute) on processor
    /// `proc`.
    #[inline]
    fn on_release(&mut self, now: Time, job: JobId, proc: usize) {}

    /// `job` finished executing on processor `proc`.
    #[inline]
    fn on_completion(&mut self, now: Time, job: JobId, proc: usize) {}

    /// Instance `instance` of `task` completed end to end with EER time
    /// `eer` (last-subtask completion minus first-subtask release).
    /// `measured` is `false` for warm-up instances, which are excluded
    /// from the EER statistics. Not called for orphan completions, whose
    /// first release was never recorded.
    #[inline]
    fn on_task_completion(
        &mut self,
        now: Time,
        task: TaskId,
        instance: u64,
        eer: Dur,
        measured: bool,
    ) {
    }

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

    /// `job` occupied processor `proc` over `[start, end)`. Slices are
    /// maximal: consecutive ticks of the same job arrive merged.
    #[inline]
    fn on_slice(&mut self, proc: usize, job: JobId, start: Time, end: Time) {}

    /// Processor `proc` switched to `to` (from `from`, `None` if it was
    /// idle). Fires for every dispatch, including after a preemption.
    #[inline]
    fn on_context_switch(&mut self, now: Time, proc: usize, from: Option<JobId>, to: JobId) {}

    /// `preempted` was displaced mid-execution by the higher-priority
    /// `by` on processor `proc`.
    #[inline]
    fn on_preemption(&mut self, now: Time, proc: usize, preempted: JobId, by: JobId) {}

    /// Processor `proc` reached an idle point (no job running, no ready
    /// job with a release time at or before `now`) — the trigger for
    /// Release Guard's rule 2.
    #[inline]
    fn on_idle_point(&mut self, now: Time, proc: usize) {}

    /// Release Guard deferred the release of `job`: its guard is set to
    /// `due` and the job waits (rule 1 spacing).
    #[inline]
    fn on_guard_block(&mut self, now: Time, job: JobId, due: Time) {}

    /// Release Guard's rule 1 updated the guard of `subtask` at a
    /// release.
    #[inline]
    fn on_rule1_update(&mut self, now: Time, subtask: SubtaskId) {}

    /// Release Guard's rule 2 released the guard-blocked `job` early at
    /// an idle point.
    #[inline]
    fn on_rule2_release(&mut self, now: Time, job: JobId) {}

    /// The guard of `job` expired and the job was released (rule 1's
    /// deferred release firing on time).
    #[inline]
    fn on_guard_expiry_release(&mut self, now: Time, job: JobId) {}

    /// MPM armed the completion timer of `job`, to fire at `fire_at`.
    #[inline]
    fn on_mpm_timer_armed(&mut self, now: Time, job: JobId, fire_at: Time) {}

    /// MPM's timer for `job` fired; `overrun` is `true` if the job had
    /// not completed by then (the MPM overrun violation).
    #[inline]
    fn on_mpm_timer_fired(&mut self, now: Time, job: JobId, overrun: bool) {}

    /// A completion on processor `from` signalled the successor `job` on
    /// a different processor `to` — a synchronization interrupt in the
    /// §3.3 sense (DS, MPM and RG only; PM is signalless).
    #[inline]
    fn on_sync_interrupt(&mut self, now: Time, from: usize, to: usize, job: JobId) {}

    /// A synchronization signal for `job` entered the (nonideal) channel.
    #[inline]
    fn on_signal_send(&mut self, now: Time, job: JobId) {}

    /// A synchronization signal for `job` left the (nonideal) channel and
    /// was applied.
    #[inline]
    fn on_signal_deliver(&mut self, now: Time, job: JobId) {}

    /// The reliable transport (re)transmitted the frame carrying the
    /// signal for `job` with sequence number `seq`; `retransmit` is `true`
    /// for every copy after the first.
    #[inline]
    fn on_transport_send(&mut self, now: Time, job: JobId, seq: u64, retransmit: bool) {}

    /// An acknowledgement for frame `seq` reached the sender. `rtt` is the
    /// first-transmission-to-ack round trip for a fresh ack; a duplicate
    /// ack (`dup: true`) carries no round trip.
    #[inline]
    fn on_transport_ack(&mut self, now: Time, seq: u64, rtt: Option<Dur>, dup: bool) {}

    /// A heartbeat from processor `from` reached the failure detector on
    /// processor `to`.
    #[inline]
    fn on_heartbeat(&mut self, now: Time, from: usize, to: usize) {}

    /// A network partition opened: `island` marks, per processor, which
    /// side of the cut it landed on (the two truth values are the two
    /// islands). Cross-island traffic is severed until the heal.
    #[inline]
    fn on_partition_start(&mut self, now: Time, island: &[bool]) {}

    /// The current network partition healed; severed signals are replayed
    /// through the per-protocol recovery reconciliation.
    #[inline]
    fn on_partition_heal(&mut self, now: Time) {}

    /// A clock-synchronization round ran on processor `proc`: it settled
    /// the previous round's samples and sent a fresh batch of timestamped
    /// requests. Rounds on crashed processors are skipped and not
    /// reported.
    #[inline]
    fn on_sync_round(&mut self, now: Time, proc: usize) {}

    /// Marzullo intersection on processor `proc` produced an offset
    /// `estimate` (signed, encoded as a [`Dur`]) with half-width
    /// `uncertainty` — the achieved offset bound of that round.
    #[inline]
    fn on_sync_estimate(&mut self, now: Time, proc: usize, estimate: Dur, uncertainty: Dur) {}

    /// Processor `proc` corrected its clock by `step` (signed; clamped by
    /// the slew policy when one is configured). Fires only for nonzero
    /// corrections.
    #[inline]
    fn on_sync_correction(&mut self, now: Time, proc: usize, step: Dur) {}

    /// Oracle check of one settled sync round on processor `proc`: the
    /// Marzullo `estimate ± uncertainty` interval against the processor's
    /// `true_offset` (both signed, encoded as [`Dur`]). The bracket is
    /// honest iff `|estimate - true_offset| <= uncertainty`.
    #[inline]
    fn on_sync_bracket(
        &mut self,
        now: Time,
        proc: usize,
        estimate: Dur,
        uncertainty: Dur,
        true_offset: Dur,
    ) {
    }

    /// A timeserver persona on `responder` corrupted the sync response it
    /// just sent (adversarial mode only; the reference self-exchange is
    /// exempt).
    #[inline]
    fn on_sync_corrupted(&mut self, now: Time, responder: usize) {}

    /// A failure-detector transition or graceful-degradation action (see
    /// [`Degradation`]).
    #[inline]
    fn on_degradation(&mut self, now: Time, kind: &Degradation) {}

    /// Processor `proc` crashed (fail-stop); `killed` are the in-flight
    /// jobs (running or ready) that died with it, in job-id order.
    #[inline]
    fn on_crash(&mut self, now: Time, proc: usize, killed: &[JobId]) {}

    /// Processor `proc` recovered; its outage backlog was resolved into
    /// `released` releases and `dropped` drops under the overload policy.
    #[inline]
    fn on_recovery(&mut self, now: Time, proc: usize, released: u64, dropped: u64) {}

    /// Processor `proc` changed execution rate: `factor > 1` opens a
    /// slowdown window (every tick of service takes `factor` wall ticks),
    /// `factor == 1` restores full speed.
    #[inline]
    fn on_slowdown(&mut self, now: Time, proc: usize, factor: u32) {}

    /// Processor `proc` entered (`stalled: true`) or left a GC-pause-style
    /// stall: a full stop that, unlike a crash, keeps in-flight jobs and
    /// generation-stamped state.
    #[inline]
    fn on_stall(&mut self, now: Time, proc: usize, stalled: bool) {}

    /// The directed link `from → to` entered (`on: true`) or left a
    /// degradation window (inflated latency, jitter and drop rate on a
    /// live wire).
    #[inline]
    fn on_link_degrade(&mut self, now: Time, from: usize, to: usize, on: bool) {}

    /// A violation was recorded.
    #[inline]
    fn on_violation(&mut self, violation: &Violation) {}

    /// The run ended at `now` after dispatching `events` events.
    #[inline]
    fn on_run_end(&mut self, now: Time, events: u64) {}
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

macro_rules! tee_hooks {
    ($($hook:ident($($arg:ident: $ty:ty),*);)*) => {
        impl<A: Observer, B: Observer> Observer for Tee<'_, A, B> {
            /// A tee wants samples as soon as either side does; a side
            /// that did not ask still receives them (its `on_sample`
            /// default is empty, so that costs nothing).
            #[inline]
            fn wants_samples(&self) -> bool {
                self.0.wants_samples() || self.1.wants_samples()
            }

            $(
                #[inline]
                fn $hook(&mut self, $($arg: $ty),*) {
                    self.0.$hook($($arg),*);
                    self.1.$hook($($arg),*);
                }
            )*
        }
    };
}

tee_hooks! {
    on_run_start(set: &TaskSet, protocol: Protocol);
    on_event(now: Time, kind: &EventKind);
    on_release(now: Time, job: JobId, proc: usize);
    on_completion(now: Time, job: JobId, proc: usize);
    on_task_completion(now: Time, task: TaskId, instance: u64, eer: Dur, measured: bool);
    on_sample(now: Time, sample: &EngineSample<'_>);
    on_slice(proc: usize, job: JobId, start: Time, end: Time);
    on_context_switch(now: Time, proc: usize, from: Option<JobId>, to: JobId);
    on_preemption(now: Time, proc: usize, preempted: JobId, by: JobId);
    on_idle_point(now: Time, proc: usize);
    on_guard_block(now: Time, job: JobId, due: Time);
    on_rule1_update(now: Time, subtask: SubtaskId);
    on_rule2_release(now: Time, job: JobId);
    on_guard_expiry_release(now: Time, job: JobId);
    on_mpm_timer_armed(now: Time, job: JobId, fire_at: Time);
    on_mpm_timer_fired(now: Time, job: JobId, overrun: bool);
    on_sync_interrupt(now: Time, from: usize, to: usize, job: JobId);
    on_signal_send(now: Time, job: JobId);
    on_signal_deliver(now: Time, job: JobId);
    on_transport_send(now: Time, job: JobId, seq: u64, retransmit: bool);
    on_transport_ack(now: Time, seq: u64, rtt: Option<Dur>, dup: bool);
    on_heartbeat(now: Time, from: usize, to: usize);
    on_partition_start(now: Time, island: &[bool]);
    on_partition_heal(now: Time);
    on_sync_round(now: Time, proc: usize);
    on_sync_estimate(now: Time, proc: usize, estimate: Dur, uncertainty: Dur);
    on_sync_correction(now: Time, proc: usize, step: Dur);
    on_sync_bracket(now: Time, proc: usize, estimate: Dur, uncertainty: Dur, true_offset: Dur);
    on_sync_corrupted(now: Time, responder: usize);
    on_degradation(now: Time, kind: &Degradation);
    on_crash(now: Time, proc: usize, killed: &[JobId]);
    on_recovery(now: Time, proc: usize, released: u64, dropped: u64);
    on_slowdown(now: Time, proc: usize, factor: u32);
    on_stall(now: Time, proc: usize, stalled: bool);
    on_link_degrade(now: Time, from: usize, to: usize, on: bool);
    on_violation(violation: &Violation);
    on_run_end(now: Time, events: u64);
}

/// Per-task tallies collected by [`ProtocolCounters`].
#[derive(Clone, Debug, PartialEq, Eq)]
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

impl Default for TaskCounters {
    fn default() -> TaskCounters {
        TaskCounters {
            releases: 0,
            completions: 0,
            guard_blocks: 0,
            guard_delay_total: Dur::ZERO,
            guard_delay_max: Dur::ZERO,
            rule1_updates: 0,
            rule2_releases: 0,
            guard_expiry_releases: 0,
            mpm_timer_arms: 0,
            mpm_timer_fires: 0,
            mpm_overruns: 0,
            sync_interrupts: 0,
        }
    }
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
    blocked_at: HashMap<JobId, Time>,
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
    }

    fn on_event(&mut self, _now: Time, kind: &EventKind) {
        if matches!(
            kind,
            EventKind::SyncRequest { .. } | EventKind::SyncResponse { .. }
        ) {
            self.sync_frames += 1;
        }
    }

    fn on_release(&mut self, _now: Time, job: JobId, _proc: usize) {
        self.tasks[job.task().index()].releases += 1;
    }

    fn on_completion(&mut self, _now: Time, job: JobId, _proc: usize) {
        self.tasks[job.task().index()].completions += 1;
    }

    fn on_context_switch(&mut self, _now: Time, proc: usize, _from: Option<JobId>, _to: JobId) {
        self.procs[proc].context_switches += 1;
    }

    fn on_preemption(&mut self, _now: Time, proc: usize, _preempted: JobId, _by: JobId) {
        self.procs[proc].preemptions += 1;
    }

    fn on_idle_point(&mut self, _now: Time, proc: usize) {
        self.procs[proc].idle_points += 1;
    }

    fn on_guard_block(&mut self, now: Time, job: JobId, _due: Time) {
        self.tasks[job.task().index()].guard_blocks += 1;
        self.blocked_at.insert(job, now);
    }

    fn on_rule1_update(&mut self, _now: Time, subtask: SubtaskId) {
        self.tasks[subtask.task().index()].rule1_updates += 1;
    }

    fn on_rule2_release(&mut self, now: Time, job: JobId) {
        self.guard_released(now, job).rule2_releases += 1;
    }

    fn on_guard_expiry_release(&mut self, now: Time, job: JobId) {
        self.guard_released(now, job).guard_expiry_releases += 1;
    }

    fn on_mpm_timer_armed(&mut self, _now: Time, job: JobId, _fire_at: Time) {
        self.tasks[job.task().index()].mpm_timer_arms += 1;
    }

    fn on_mpm_timer_fired(&mut self, _now: Time, job: JobId, overrun: bool) {
        let t = &mut self.tasks[job.task().index()];
        t.mpm_timer_fires += 1;
        if overrun {
            t.mpm_overruns += 1;
        }
    }

    fn on_sync_interrupt(&mut self, _now: Time, _from: usize, _to: usize, job: JobId) {
        self.tasks[job.task().index()].sync_interrupts += 1;
    }

    fn on_signal_send(&mut self, _now: Time, _job: JobId) {
        self.signal_sends += 1;
        self.signal_depth += 1;
        self.signal_depth_hwm = self.signal_depth_hwm.max(self.signal_depth);
    }

    fn on_signal_deliver(&mut self, _now: Time, _job: JobId) {
        self.signal_delivers += 1;
        self.signal_depth = self.signal_depth.saturating_sub(1);
    }
}

#[derive(Clone, Debug)]
enum LogRecord {
    Release {
        t: i64,
        proc: usize,
        job: JobId,
    },
    Completion {
        t: i64,
        proc: usize,
        job: JobId,
    },
    Slice {
        proc: usize,
        job: JobId,
        start: i64,
        end: i64,
    },
    ContextSwitch {
        t: i64,
        proc: usize,
        from: Option<JobId>,
        to: JobId,
    },
    Preemption {
        t: i64,
        proc: usize,
        preempted: JobId,
        by: JobId,
    },
    IdlePoint {
        t: i64,
        proc: usize,
    },
    GuardBlock {
        t: i64,
        job: JobId,
        due: i64,
    },
    GuardRelease {
        t: i64,
        job: JobId,
        rule: &'static str,
    },
    MpmTimerArmed {
        t: i64,
        job: JobId,
        fire_at: i64,
    },
    MpmTimerFired {
        t: i64,
        job: JobId,
        overrun: bool,
    },
    SyncInterrupt {
        t: i64,
        from: usize,
        to: usize,
        job: JobId,
    },
    SignalSend {
        t: i64,
        job: JobId,
    },
    SignalDeliver {
        t: i64,
        job: JobId,
    },
    TransportSend {
        t: i64,
        job: JobId,
        seq: u64,
        retransmit: bool,
    },
    TransportAck {
        t: i64,
        seq: u64,
        dup: bool,
    },
    Degradation {
        t: i64,
        kind: Degradation,
    },
    Violation {
        t: i64,
        kind: &'static str,
        job: JobId,
    },
    Crash {
        t: i64,
        proc: usize,
        killed: usize,
    },
    Recovery {
        t: i64,
        proc: usize,
        released: u64,
        dropped: u64,
    },
    RunEnd {
        t: i64,
        events: u64,
    },
}

/// An [`Observer`] that records a structured event log and exports it as
/// JSONL or Chrome trace-event JSON (Perfetto / `chrome://tracing`).
#[derive(Clone, Debug, Default)]
pub struct EventLogObserver {
    protocol: Option<Protocol>,
    num_procs: usize,
    num_tasks: usize,
    proc_of: HashMap<SubtaskId, usize>,
    records: Vec<LogRecord>,
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
        for r in &self.records {
            let _ = writeln!(out, "{}", jsonl_line(r));
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
        for r in &self.records {
            if let LogRecord::SignalDeliver { t, job } = r {
                deliveries.entry(*job).or_default().push_back(*t);
            }
        }

        let mut flow_id = 0u64;
        for r in &self.records {
            match r {
                LogRecord::Slice {
                    proc,
                    job,
                    start,
                    end,
                } => ev.push(format!(
                    "{{\"name\":\"{job}\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":{start},\
                     \"dur\":{},\"pid\":0,\"tid\":{proc}}}",
                    end - start
                )),
                LogRecord::Release { t, proc, job } => ev.push(format!(
                    "{{\"name\":\"release {job}\",\"cat\":\"release\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{t},\"pid\":0,\"tid\":{proc}}}"
                )),
                LogRecord::Completion { t, proc, job } => ev.push(format!(
                    "{{\"name\":\"done {job}\",\"cat\":\"completion\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{t},\"pid\":0,\"tid\":{proc}}}"
                )),
                LogRecord::GuardBlock { t, job, due } => {
                    let proc = self.proc_of.get(&job.subtask()).copied().unwrap_or(0);
                    ev.push(format!(
                        "{{\"name\":\"guard {job} until {due}\",\"cat\":\"guard\",\"ph\":\"i\",\
                         \"s\":\"t\",\"ts\":{t},\"pid\":0,\"tid\":{proc}}}"
                    ));
                }
                LogRecord::Crash { t, proc, killed } => ev.push(format!(
                    "{{\"name\":\"CRASH ({killed} killed)\",\"cat\":\"fault\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{t},\"pid\":0,\"tid\":{proc}}}"
                )),
                LogRecord::Recovery {
                    t,
                    proc,
                    released,
                    dropped,
                } => ev.push(format!(
                    "{{\"name\":\"RECOVER (+{released}/-{dropped})\",\"cat\":\"fault\",\
                     \"ph\":\"i\",\"s\":\"t\",\"ts\":{t},\"pid\":0,\"tid\":{proc}}}"
                )),
                LogRecord::SyncInterrupt { t, from, to, job } => {
                    flow_id += 1;
                    ev.push(format!(
                        "{{\"name\":\"signal {job}\",\"cat\":\"signal\",\"ph\":\"s\",\
                         \"id\":{flow_id},\"ts\":{t},\"pid\":0,\"tid\":{from}}}"
                    ));
                    let (ft, ftid) = match deliveries.get_mut(job).and_then(|q| q.pop_front()) {
                        Some(dt) => (dt, self.proc_of.get(&job.subtask()).copied().unwrap_or(*to)),
                        None => (*t, *to),
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

fn jsonl_line(r: &LogRecord) -> String {
    match r {
        LogRecord::Release { t, proc, job } => {
            format!("{{\"type\":\"release\",\"t\":{t},\"proc\":{proc},\"job\":\"{job}\"}}")
        }
        LogRecord::Completion { t, proc, job } => {
            format!("{{\"type\":\"completion\",\"t\":{t},\"proc\":{proc},\"job\":\"{job}\"}}")
        }
        LogRecord::Slice {
            proc,
            job,
            start,
            end,
        } => format!(
            "{{\"type\":\"slice\",\"proc\":{proc},\"job\":\"{job}\",\"start\":{start},\
             \"end\":{end}}}"
        ),
        LogRecord::ContextSwitch { t, proc, from, to } => {
            let from = match from {
                Some(j) => format!("\"{j}\""),
                None => "null".to_string(),
            };
            format!(
                "{{\"type\":\"context_switch\",\"t\":{t},\"proc\":{proc},\"from\":{from},\
                 \"to\":\"{to}\"}}"
            )
        }
        LogRecord::Preemption {
            t,
            proc,
            preempted,
            by,
        } => format!(
            "{{\"type\":\"preemption\",\"t\":{t},\"proc\":{proc},\"preempted\":\"{preempted}\",\
             \"by\":\"{by}\"}}"
        ),
        LogRecord::IdlePoint { t, proc } => {
            format!("{{\"type\":\"idle_point\",\"t\":{t},\"proc\":{proc}}}")
        }
        LogRecord::GuardBlock { t, job, due } => {
            format!("{{\"type\":\"guard_block\",\"t\":{t},\"job\":\"{job}\",\"due\":{due}}}")
        }
        LogRecord::GuardRelease { t, job, rule } => {
            format!(
                "{{\"type\":\"guard_release\",\"t\":{t},\"job\":\"{job}\",\"rule\":\"{rule}\"}}"
            )
        }
        LogRecord::MpmTimerArmed { t, job, fire_at } => format!(
            "{{\"type\":\"mpm_timer_armed\",\"t\":{t},\"job\":\"{job}\",\"fire_at\":{fire_at}}}"
        ),
        LogRecord::MpmTimerFired { t, job, overrun } => format!(
            "{{\"type\":\"mpm_timer_fired\",\"t\":{t},\"job\":\"{job}\",\"overrun\":{overrun}}}"
        ),
        LogRecord::SyncInterrupt { t, from, to, job } => format!(
            "{{\"type\":\"sync_interrupt\",\"t\":{t},\"from\":{from},\"to\":{to},\
             \"job\":\"{job}\"}}"
        ),
        LogRecord::SignalSend { t, job } => {
            format!("{{\"type\":\"signal_send\",\"t\":{t},\"job\":\"{job}\"}}")
        }
        LogRecord::SignalDeliver { t, job } => {
            format!("{{\"type\":\"signal_deliver\",\"t\":{t},\"job\":\"{job}\"}}")
        }
        LogRecord::TransportSend {
            t,
            job,
            seq,
            retransmit,
        } => format!(
            "{{\"type\":\"transport_send\",\"t\":{t},\"job\":\"{job}\",\"seq\":{seq},\
             \"retransmit\":{retransmit}}}"
        ),
        LogRecord::TransportAck { t, seq, dup } => {
            format!("{{\"type\":\"transport_ack\",\"t\":{t},\"seq\":{seq},\"dup\":{dup}}}")
        }
        LogRecord::Degradation { t, kind } => degradation_json(*t, kind),
        LogRecord::Violation { t, kind, job } => {
            format!("{{\"type\":\"violation\",\"t\":{t},\"kind\":\"{kind}\",\"job\":\"{job}\"}}")
        }
        LogRecord::Crash { t, proc, killed } => {
            format!("{{\"type\":\"crash\",\"t\":{t},\"proc\":{proc},\"killed\":{killed}}}")
        }
        LogRecord::Recovery {
            t,
            proc,
            released,
            dropped,
        } => format!(
            "{{\"type\":\"recovery\",\"t\":{t},\"proc\":{proc},\"released\":{released},\
             \"dropped\":{dropped}}}"
        ),
        LogRecord::RunEnd { t, events } => {
            format!("{{\"type\":\"run_end\",\"t\":{t},\"events\":{events}}}")
        }
    }
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

    fn on_release(&mut self, now: Time, job: JobId, proc: usize) {
        self.records.push(LogRecord::Release {
            t: now.ticks(),
            proc,
            job,
        });
    }

    fn on_completion(&mut self, now: Time, job: JobId, proc: usize) {
        self.records.push(LogRecord::Completion {
            t: now.ticks(),
            proc,
            job,
        });
    }

    fn on_slice(&mut self, proc: usize, job: JobId, start: Time, end: Time) {
        self.records.push(LogRecord::Slice {
            proc,
            job,
            start: start.ticks(),
            end: end.ticks(),
        });
    }

    fn on_context_switch(&mut self, now: Time, proc: usize, from: Option<JobId>, to: JobId) {
        self.records.push(LogRecord::ContextSwitch {
            t: now.ticks(),
            proc,
            from,
            to,
        });
    }

    fn on_preemption(&mut self, now: Time, proc: usize, preempted: JobId, by: JobId) {
        self.records.push(LogRecord::Preemption {
            t: now.ticks(),
            proc,
            preempted,
            by,
        });
    }

    fn on_idle_point(&mut self, now: Time, proc: usize) {
        self.records.push(LogRecord::IdlePoint {
            t: now.ticks(),
            proc,
        });
    }

    fn on_guard_block(&mut self, now: Time, job: JobId, due: Time) {
        self.records.push(LogRecord::GuardBlock {
            t: now.ticks(),
            job,
            due: due.ticks(),
        });
    }

    fn on_rule2_release(&mut self, now: Time, job: JobId) {
        self.records.push(LogRecord::GuardRelease {
            t: now.ticks(),
            job,
            rule: "idle-point",
        });
    }

    fn on_guard_expiry_release(&mut self, now: Time, job: JobId) {
        self.records.push(LogRecord::GuardRelease {
            t: now.ticks(),
            job,
            rule: "expiry",
        });
    }

    fn on_mpm_timer_armed(&mut self, now: Time, job: JobId, fire_at: Time) {
        self.records.push(LogRecord::MpmTimerArmed {
            t: now.ticks(),
            job,
            fire_at: fire_at.ticks(),
        });
    }

    fn on_mpm_timer_fired(&mut self, now: Time, job: JobId, overrun: bool) {
        self.records.push(LogRecord::MpmTimerFired {
            t: now.ticks(),
            job,
            overrun,
        });
    }

    fn on_sync_interrupt(&mut self, now: Time, from: usize, to: usize, job: JobId) {
        self.records.push(LogRecord::SyncInterrupt {
            t: now.ticks(),
            from,
            to,
            job,
        });
    }

    fn on_signal_send(&mut self, now: Time, job: JobId) {
        self.records.push(LogRecord::SignalSend {
            t: now.ticks(),
            job,
        });
    }

    fn on_signal_deliver(&mut self, now: Time, job: JobId) {
        self.records.push(LogRecord::SignalDeliver {
            t: now.ticks(),
            job,
        });
    }

    fn on_transport_send(&mut self, now: Time, job: JobId, seq: u64, retransmit: bool) {
        self.records.push(LogRecord::TransportSend {
            t: now.ticks(),
            job,
            seq,
            retransmit,
        });
    }

    fn on_transport_ack(&mut self, now: Time, seq: u64, _rtt: Option<Dur>, dup: bool) {
        self.records.push(LogRecord::TransportAck {
            t: now.ticks(),
            seq,
            dup,
        });
    }

    // Heartbeats are deliberately not logged: at one per processor pair
    // per period they would dwarf every other record class.

    fn on_degradation(&mut self, now: Time, kind: &Degradation) {
        self.records.push(LogRecord::Degradation {
            t: now.ticks(),
            kind: *kind,
        });
    }

    fn on_crash(&mut self, now: Time, proc: usize, killed: &[JobId]) {
        self.records.push(LogRecord::Crash {
            t: now.ticks(),
            proc,
            killed: killed.len(),
        });
    }

    fn on_recovery(&mut self, now: Time, proc: usize, released: u64, dropped: u64) {
        self.records.push(LogRecord::Recovery {
            t: now.ticks(),
            proc,
            released,
            dropped,
        });
    }

    fn on_violation(&mut self, violation: &Violation) {
        self.records.push(LogRecord::Violation {
            t: violation.time.ticks(),
            kind: violation_tag(&violation.kind),
            job: violation.job,
        });
    }

    fn on_run_end(&mut self, now: Time, events: u64) {
        self.records.push(LogRecord::RunEnd {
            t: now.ticks(),
            events,
        });
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
        c.on_guard_block(Time::from_ticks(4), job, Time::from_ticks(7));
        c.on_guard_expiry_release(Time::from_ticks(7), job);
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
        c.on_signal_send(Time::from_ticks(1), job);
        c.on_signal_send(Time::from_ticks(2), job);
        c.on_signal_deliver(Time::from_ticks(3), job);
        c.on_signal_send(Time::from_ticks(4), job);
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
        o.on_release(Time::from_ticks(0), job, 0);
        o.on_slice(0, job, Time::from_ticks(0), Time::from_ticks(2));
        o.on_completion(Time::from_ticks(2), job, 0);
        o.on_run_end(Time::from_ticks(24), 10);
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
