//! The schedule checker: [`InvariantObserver`] judges a run online, note
//! by note, as the engine produces it.
//!
//! Sun & Liu's SA/PM and SA/DS bounds hold only for a legal schedule, so
//! the observer checks that every run is one, under any composition of
//! faults, from the [`Note`]s alone. The schedule arms keep state
//! proportional to the processors and the jobs live on them:
//!
//! * **Schedule legality** — no two slices overlap on a processor; a job
//!   runs only inside its release–completion window; a completed job ran
//!   exactly its execution time (waived for a job that ran while its
//!   processor was slowed, whose wall time is not its work); a completion
//!   lands where the job's last slice ended, or at the thaw of a stall
//!   that opened there; no job runs while a higher-priority job on its
//!   processor waits, unless it is a non-preemptive job that started
//!   before the waiter arrived, or can hold a Highest Locker ceiling at
//!   least the waiter's priority.
//! * **Precedence** — DS and RG never release a subtask instance before
//!   its predecessor instance completes. PM and MPM may, but only where
//!   the engine reports a [`ViolationKind::PrecedenceViolated`] for it.
//! * **Faults** — nothing is released, completed or executed on a
//!   crashed processor; a crash kills exactly the jobs live on it; RG
//!   guard spacing holds unless an idle point or a recovery waives it;
//!   the live backlog stays within a bound that grows with each outage;
//!   no release or heartbeat crosses an open partition cut; every
//!   settled sync bracket holds the true offset; and, at run end
//!   ([`InvariantObserver::check_outcome`]), signals are conserved.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rtsync_core::protocol::Protocol;
use rtsync_core::task::{Priority, TaskSet};
use rtsync_core::time::{Dur, Time};

use crate::controller::FlatIndex;
use crate::detect::Degradation;
use crate::engine::{SimOutcome, ViolationKind};
use crate::job::JobId;
use crate::observe::{Note, Observer};

/// The invariants [`InvariantObserver`] checks on every run. Perfbench
/// digests each kind's discriminant, so new kinds go at the end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantKind {
    /// A DS/RG release happened before its predecessor instance
    /// completed, or a PM/MPM one did without the engine reporting it.
    /// (PM/MPM releases without a completed predecessor are *expected*
    /// under faults and recorded as honest engine violations.)
    PrecedenceOrder,
    /// A Release-Guard release violated rule-1 separation without a
    /// waiving idle point or recovery in between.
    GuardSpacing,
    /// A release, completion, or executed slice was observed on a crashed
    /// processor.
    DownProcessorActivity,
    /// Channel conservation broke: the observer saw a different number of
    /// applied deliveries than the channel counted, or more signals were
    /// applied than ever entered the wire.
    SignalConservation,
    /// A processor's released-but-incomplete backlog exceeded the bound
    /// implied by its outages (work is accumulating without limit).
    UnboundedBacklog,
    /// A signal or heartbeat was applied across an active partition cut:
    /// the release (or heartbeat) implies information crossed a severed
    /// link while the cut was up.
    CrossPartitionDelivery,
    /// A settled sync estimate's uncertainty interval failed to bracket
    /// the oracle's true clock offset. Checked only while enabled (the
    /// adversary campaign disables it for liar-majority cells, where
    /// Marzullo's tolerance is exceeded by construction).
    UncertaintyDishonest,
    /// Two slices overlapped on one processor.
    Overlap,
    /// A job executed outside its release–completion window.
    OutsideWindow,
    /// A completed job executed more or less than its subtask's execution
    /// time.
    WrongBudget,
    /// A completion instant did not match where the job's execution ended.
    DishonestCompletion,
    /// A job ran while a higher-priority job on its processor waited.
    PriorityInversion,
    /// A crash killed a different number of jobs than its processor held.
    KillCount,
}

impl InvariantKind {
    /// Short machine-readable tag (used in verdicts and repro bundles).
    pub fn tag(&self) -> &'static str {
        match self {
            InvariantKind::PrecedenceOrder => "precedence_order",
            InvariantKind::GuardSpacing => "guard_spacing",
            InvariantKind::DownProcessorActivity => "down_processor_activity",
            InvariantKind::SignalConservation => "signal_conservation",
            InvariantKind::UnboundedBacklog => "unbounded_backlog",
            InvariantKind::CrossPartitionDelivery => "cross_partition_delivery",
            InvariantKind::UncertaintyDishonest => "uncertainty_dishonest",
            InvariantKind::Overlap => "overlap",
            InvariantKind::OutsideWindow => "outside_window",
            InvariantKind::WrongBudget => "wrong_budget",
            InvariantKind::DishonestCompletion => "dishonest_completion",
            InvariantKind::PriorityInversion => "priority_inversion",
            InvariantKind::KillCount => "kill_count",
        }
    }
}

/// One invariant break observed by an [`InvariantObserver`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// When.
    pub time: Time,
    /// The job involved, when one is attributable.
    pub job: Option<JobId>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={}] {}: ", self.time.ticks(), self.kind.tag())?;
        if let Some(job) = self.job {
            write!(f, "{job}: ")?;
        }
        f.write_str(&self.detail)
    }
}

/// What the observer knows of one subtask, indexed by flat subtask.
#[derive(Clone, Copy, Debug)]
struct SubInfo {
    proc: usize,
    period: Dur,
    execution: Dur,
    priority: Priority,
    /// The highest resource ceiling the subtask can hold, if it locks any.
    ceiling: Option<Priority>,
    preemptible: bool,
    pred: Option<usize>,
}

/// A released job that has neither completed nor died in a crash.
#[derive(Clone, Copy, Debug)]
struct LiveJob {
    job: JobId,
    fi: usize,
    released: Time,
    /// Where its first slice started: a non-preemptive job's blocking is
    /// measured from here, because a stall splits its slices.
    first_start: Option<Time>,
    last_end: Option<Time>,
    executed: Dur,
    /// It ran while its processor was slowed. The slowdown remainder
    /// carries across slices, so its wall time is not its work.
    slowed: bool,
}

/// What the observer knows of one processor.
#[derive(Clone, Debug, Default)]
struct ProcView {
    live: Vec<LiveJob>,
    subtasks: i64,
    backlog_limit: i64,
    /// End of the latest slice executed here.
    busy_until: Time,
    down: bool,
    down_since: Option<Time>,
    last_idle: Option<Time>,
    last_recovery: Option<Time>,
    slowed: bool,
    /// When the open stall began; a stall that opens as the previous one
    /// thaws continues it.
    stalled_since: Option<Time>,
    /// The latest closed stall, `(opened, thawed)`.
    last_stall: Option<(Time, Time)>,
    /// Its side of the open partition cut.
    side: bool,
}

/// An [`Observer`] that checks schedule legality and the protocol
/// invariants online, crash-aware.
///
/// Attach one per run (it sizes itself in
/// [`Observer::on_run_start`]), then call
/// [`InvariantObserver::check_outcome`] with the finished
/// [`SimOutcome`] to run the end-of-run conservation checks.
/// [`InvariantObserver::violations`] holds everything found.
#[derive(Debug, Default)]
pub struct InvariantObserver {
    protocol: Option<Protocol>,
    flat: Option<FlatIndex>,
    subs: Vec<SubInfo>,
    procs: Vec<ProcView>,
    // Dynamic, indexed by flat subtask.
    completed: Vec<BTreeSet<u64>>,
    last_release: Vec<Option<Time>>,
    min_period: Dur,
    delivers_seen: u64,
    /// The job of the engine's last [`ViolationKind::PrecedenceViolated`]
    /// note, which comes just before that job's release.
    reported: Option<JobId>,
    /// Jobs released from local information by the degradation controller
    /// (detector declared the predecessor's processor dead). Such releases
    /// deliberately precede the predecessor's completion, so the
    /// precedence-order invariant is waived for them.
    forced: BTreeSet<JobId>,
    /// When the active cut went up (`None` while whole).
    partitioned_since: Option<Time>,
    /// Completion instants per flat subtask, recorded from the first cut
    /// on (a completion never recorded happened before any partition and
    /// cannot witness a cross-cut leak).
    completed_when: Vec<BTreeMap<u64, Time>>,
    track_completion_times: bool,
    /// Whether [`InvariantKind::UncertaintyDishonest`] is disarmed
    /// (inverted so the derived `Default` arms the check). The adversary
    /// campaign disarms it for liar-majority cells, where the
    /// intersection's tolerance is exceeded by design.
    uncertainty_disarmed: bool,
    /// Fractional slack (ppm of the guard period) allowed on RG spacing.
    /// The observer measures spacing in *true* time while RG times its
    /// guards on the processor's corrected local clock, so a drifting
    /// oscillator plus sync step corrections legitimately compress the
    /// true-time gap by up to the clock-error rate. Zero (the default)
    /// keeps the exact ideal-clock check.
    spacing_slack_ppm: i64,
    violations: Vec<InvariantViolation>,
}

impl InvariantObserver {
    /// The breaks found so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Arms or disarms the sync uncertainty-honesty invariant (armed by
    /// default). Disarm it for runs where a liar majority is *expected*
    /// to defeat the intersection.
    pub fn with_uncertainty_check(mut self, on: bool) -> InvariantObserver {
        self.uncertainty_disarmed = !on;
        self
    }

    /// Allows RG guard-spacing to fall short of the period by up to
    /// `ppm` parts-per-million of the period — the tolerance for runs
    /// on drifting, sync-corrected clocks, whose guard timers measure
    /// local time while the observer measures true time. Pass roughly
    /// twice the oscillator drift bound (rate error both ways plus the
    /// honest step corrections it forces).
    pub fn with_spacing_slack_ppm(mut self, ppm: i64) -> InvariantObserver {
        assert!(ppm >= 0, "spacing slack must be non-negative");
        self.spacing_slack_ppm = ppm;
        self
    }

    /// `true` when no invariant broke.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// End-of-run conservation checks against the outcome's channel
    /// statistics. Call once per run, after the simulation returns.
    pub fn check_outcome(&mut self, outcome: &SimOutcome) {
        let ch = &outcome.channel_stats;
        if self.delivers_seen != ch.applied {
            self.violations.push(InvariantViolation {
                kind: InvariantKind::SignalConservation,
                time: outcome.end_time,
                job: None,
                detail: format!(
                    "observer saw {} applied deliveries, channel counted {}",
                    self.delivers_seen, ch.applied
                ),
            });
        }
        if ch.applied > ch.sent + ch.duplicates_injected {
            self.violations.push(InvariantViolation {
                kind: InvariantKind::SignalConservation,
                time: outcome.end_time,
                job: None,
                detail: format!(
                    "{} deliveries applied but only {} signals ever entered the wire",
                    ch.applied,
                    ch.sent + ch.duplicates_injected
                ),
            });
        }
        let tr = &outcome.transport_stats;
        if tr.delivered > tr.sent {
            self.violations.push(InvariantViolation {
                kind: InvariantKind::SignalConservation,
                time: outcome.end_time,
                job: None,
                detail: format!(
                    "{} transport frames delivered fresh but only {} were ever sent",
                    tr.delivered, tr.sent
                ),
            });
        }
    }

    fn fail(&mut self, kind: InvariantKind, time: Time, job: Option<JobId>, detail: String) {
        self.violations.push(InvariantViolation {
            kind,
            time,
            job,
            detail,
        });
    }

    fn flat_of(&self, job: JobId) -> usize {
        self.flat
            .as_ref()
            .expect("on_run_start ran")
            .of(job.subtask())
    }

    /// An idle point or a recovery of `proc` strictly after `prev` and at
    /// or before `now` waives RG rule-1 spacing: both re-initialize the
    /// guard by the protocol's own rules.
    fn spacing_waived(&self, proc: usize, prev: Time, now: Time) -> bool {
        let within = |t: Option<Time>| t.is_some_and(|t| t > prev && t <= now);
        let p = &self.procs[proc];
        within(p.last_idle) || within(p.last_recovery)
    }

    /// The release checks: down-processor activity, precedence order, RG
    /// guard spacing, cross-partition leaks and backlog growth.
    fn check_release(&mut self, now: Time, job: JobId, proc: usize) {
        if self.procs[proc].down {
            self.fail(
                InvariantKind::DownProcessorActivity,
                now,
                Some(job),
                format!("release on crashed processor P{proc}"),
            );
        }
        let fi = self.flat_of(job);
        let sub = self.subs[fi];
        let protocol = self.protocol.expect("on_run_start ran");
        let reported = self.reported.take() == Some(job);
        if let Some(pfi) = sub.pred {
            let early =
                !self.completed[pfi].contains(&job.instance()) && !self.forced.contains(&job);
            // PM and MPM may release early, but only as a reported violation.
            let strict = matches!(protocol, Protocol::DirectSync | Protocol::ReleaseGuard);
            if early && (strict || !reported) {
                self.fail(
                    InvariantKind::PrecedenceOrder,
                    now,
                    Some(job),
                    "released before its predecessor instance completed".to_string(),
                );
            }
        }
        if protocol == Protocol::ReleaseGuard && sub.pred.is_some() {
            if let Some(prev) = self.last_release[fi] {
                let gap = now - prev;
                let period = sub.period;
                let slack = Dur::from_ticks(period.ticks() * self.spacing_slack_ppm / 1_000_000);
                if gap + slack < period && !self.spacing_waived(proc, prev, now) {
                    self.fail(
                        InvariantKind::GuardSpacing,
                        now,
                        Some(job),
                        format!(
                            "released {} ticks after the previous release (guard period {}, \
                             clock slack {}), with no idle point or recovery in between",
                            gap.ticks(),
                            period.ticks(),
                            slack.ticks()
                        ),
                    );
                }
            }
        }
        // Cross-partition leak: a release driven by predecessor
        // information that could only have crossed an active cut. DS/RG
        // releases follow completions, so the predecessor must have
        // completed during the cut for the release to witness a leak
        // (earlier completions signalled legitimately before the split).
        // MPM releases fire the instant the timer signal is applied, so
        // any cross-cut release while partitioned is a leak. PM is
        // signalless and exempt.
        if let (Some(t0), Some(pfi)) = (self.partitioned_since, sub.pred) {
            let pred_proc = self.subs[pfi].proc;
            if pred_proc != proc
                && self.procs[pred_proc].side != self.procs[proc].side
                && !self.forced.contains(&job)
            {
                let leaked = match protocol {
                    Protocol::PhaseModification => false,
                    Protocol::ModifiedPhaseModification => true,
                    Protocol::DirectSync | Protocol::ReleaseGuard => self.completed_when[pfi]
                        .get(&job.instance())
                        .is_some_and(|&done| done >= t0),
                };
                if leaked {
                    self.fail(
                        InvariantKind::CrossPartitionDelivery,
                        now,
                        Some(job),
                        format!(
                            "released on P{proc} from predecessor information on P{pred_proc}, \
                             across the cut up since t={}",
                            t0.ticks()
                        ),
                    );
                }
            }
        }
        self.last_release[fi] = Some(now);
        let p = &mut self.procs[proc];
        p.live.push(LiveJob {
            job,
            fi,
            released: now,
            first_start: None,
            last_end: None,
            executed: Dur::ZERO,
            slowed: false,
        });
        let (live, limit) = (p.live.len() as i64, p.backlog_limit);
        if live > limit {
            // Report each processor's runaway once, not per release.
            p.backlog_limit = i64::MAX;
            self.fail(
                InvariantKind::UnboundedBacklog,
                now,
                Some(job),
                format!("{live} released-but-incomplete jobs on P{proc} exceed the bound {limit}"),
            );
        }
    }

    /// The slice checks: down-processor activity, overlap, the job's
    /// window and priority compliance.
    fn check_slice(&mut self, proc: usize, job: JobId, start: Time, end: Time) {
        let span = |start: Time, end: Time| format!("[{}, {})", start.ticks(), end.ticks());
        if self.procs[proc].down {
            self.fail(
                InvariantKind::DownProcessorActivity,
                start,
                Some(job),
                format!(
                    "executed slice {} on crashed processor P{proc}",
                    span(start, end)
                ),
            );
        }
        let p = &mut self.procs[proc];
        let busy_until = p.busy_until;
        p.busy_until = busy_until.max(end);
        let slowed = p.slowed;
        let at = p.live.iter().position(|l| l.job == job);
        if let Some(i) = at {
            let l = &mut p.live[i];
            l.executed += end - start;
            l.first_start.get_or_insert(start);
            l.last_end = Some(end);
            l.slowed |= slowed;
        }
        if start < busy_until {
            self.fail(
                InvariantKind::Overlap,
                start,
                Some(job),
                format!(
                    "slice {} on P{proc} overlaps a slice that ran until {}",
                    span(start, end),
                    busy_until.ticks()
                ),
            );
        }
        let Some(i) = at.filter(|&i| self.procs[proc].live[i].released <= start) else {
            self.fail(
                InvariantKind::OutsideWindow,
                start,
                Some(job),
                format!(
                    "executed {} on P{proc} outside its release-completion window",
                    span(start, end)
                ),
            );
            return;
        };
        // Priority compliance: no released, unfinished, higher-priority
        // job may wait through any part of the slice. The engine notes a
        // release before the slice it cuts short, so a waiter released
        // at the slice's end did not wait.
        let me = self.procs[proc].live[i];
        let sub = self.subs[me.fi];
        for w in 0..self.procs[proc].live.len() {
            let waiter = self.procs[proc].live[w];
            let prio = self.subs[waiter.fi].priority;
            if w == i || !prio.is_higher_than(sub.priority) || waiter.released >= end {
                continue;
            }
            // A non-preemptive job keeps the processor it held when the
            // waiter arrived; a job inside a critical section runs at the
            // resource ceiling (Highest Locker). Without executed-offset
            // bookkeeping the ceiling waiver covers any slice in which
            // the subtask *could* hold one high enough: it may miss an
            // inversion in a section-bearing system, but never reports a
            // false one.
            let holds_on = !sub.preemptible && me.first_start.is_some_and(|s| s <= waiter.released);
            let ceiling = sub.ceiling.is_some_and(|c| c.is_at_least(prio));
            if !holds_on && !ceiling {
                self.fail(
                    InvariantKind::PriorityInversion,
                    start.max(waiter.released),
                    Some(job),
                    format!(
                        "ran {} on P{proc} while higher-priority {} waited",
                        span(start, end),
                        waiter.job
                    ),
                );
            }
        }
    }

    /// The completion checks: down-processor activity, the execution
    /// budget and completion honesty.
    fn check_completion(&mut self, now: Time, job: JobId, proc: usize) {
        if self.procs[proc].down {
            self.fail(
                InvariantKind::DownProcessorActivity,
                now,
                Some(job),
                format!("completion on crashed processor P{proc}"),
            );
        }
        let fi = self.flat_of(job);
        self.completed[fi].insert(job.instance());
        if self.track_completion_times {
            self.completed_when[fi].insert(job.instance(), now);
        }
        let p = &mut self.procs[proc];
        let Some(i) = p.live.iter().position(|l| l.job == job) else {
            self.fail(
                InvariantKind::DishonestCompletion,
                now,
                Some(job),
                format!("completed on P{proc} without a live release"),
            );
            return;
        };
        let done = p.live.swap_remove(i);
        let stall = p.last_stall;
        let budget = self.subs[fi].execution;
        if !done.slowed && done.executed != budget {
            self.fail(
                InvariantKind::WrongBudget,
                now,
                Some(job),
                format!("executed {} ticks, budget {budget}", done.executed),
            );
        }
        // A job whose work ran out as a stall opened completes at the
        // thaw: stall edges pop before completions at the same instant.
        if let Some(end) = done
            .last_end
            .filter(|&e| e != now && stall != Some((e, now)))
        {
            self.fail(
                InvariantKind::DishonestCompletion,
                now,
                Some(job),
                format!(
                    "completed at {} but last ran until {}",
                    now.ticks(),
                    end.ticks()
                ),
            );
        }
    }
}

impl Observer for InvariantObserver {
    fn on_run_start(&mut self, set: &TaskSet, protocol: Protocol) {
        let flat = FlatIndex::new(set);
        self.protocol = Some(protocol);
        self.procs = vec![ProcView::default(); set.num_processors()];
        self.subs.clear();
        let mut min_period: Option<Dur> = None;
        for task in set.tasks() {
            min_period = Some(min_period.map_or(task.period(), |m| m.min(task.period())));
            for (i, sub) in task.subtasks().iter().enumerate() {
                let fi = self.subs.len();
                let ceilings = sub.critical_sections().iter();
                self.subs.push(SubInfo {
                    proc: sub.processor().index(),
                    period: task.period(),
                    execution: sub.execution(),
                    priority: sub.priority(),
                    ceiling: ceilings
                        .filter_map(|cs| set.resource_ceiling(cs.resource))
                        .min(),
                    preemptible: sub.is_preemptible(),
                    pred: (i > 0).then(|| fi - 1),
                });
                self.procs[sub.processor().index()].subtasks += 1;
            }
        }
        self.min_period = min_period.unwrap_or(Dur::from_ticks(1));
        // Steady-state bound: a schedulable chain keeps only a handful of
        // instances of each subtask in flight; outages add an allowance
        // at each recovery, proportional to the downtime.
        for p in &mut self.procs {
            p.backlog_limit = 8 * p.subtasks + 8;
        }
        let n = flat.len();
        self.completed = vec![BTreeSet::new(); n];
        self.last_release = vec![None; n];
        self.delivers_seen = 0;
        self.reported = None;
        self.forced.clear();
        self.partitioned_since = None;
        self.completed_when = vec![BTreeMap::new(); n];
        self.track_completion_times = false;
        self.violations.clear();
        self.flat = Some(flat);
    }

    fn on_partition_start(&mut self, now: Time, island: &[bool]) {
        for (p, &side) in self.procs.iter_mut().zip(island) {
            p.side = side;
        }
        self.partitioned_since = Some(now);
        // Completion instants only matter once a cut exists; start
        // recording at the first cut so partition-free runs pay nothing.
        self.track_completion_times = true;
    }

    #[inline]
    fn on(&mut self, now: Time, note: Note) {
        match note {
            Note::PartitionHeal => self.partitioned_since = None,
            Note::Heartbeat { from, to }
                if self.partitioned_since.is_some()
                    && from < self.procs.len()
                    && to < self.procs.len()
                    && self.procs[from].side != self.procs[to].side =>
            {
                self.fail(
                    InvariantKind::CrossPartitionDelivery,
                    now,
                    None,
                    format!("heartbeat P{from} -> P{to} applied across an active cut"),
                );
            }
            Note::SyncBracket {
                proc,
                estimate,
                uncertainty,
                true_offset,
            } => {
                let err = Dur::from_ticks((estimate.ticks() - true_offset.ticks()).abs());
                if !self.uncertainty_disarmed && err > uncertainty {
                    self.fail(
                        InvariantKind::UncertaintyDishonest,
                        now,
                        None,
                        format!(
                            "P{proc} settled estimate {} +/- {} ticks but the true offset was {} \
                             ({} ticks outside the bracket)",
                            estimate.ticks(),
                            uncertainty.ticks(),
                            true_offset.ticks(),
                            (err - uncertainty).ticks()
                        ),
                    );
                }
            }
            Note::Degradation(Degradation::ForcedRelease { job, .. }) => {
                self.forced.insert(job);
            }
            Note::Violation(v) if v.kind == ViolationKind::PrecedenceViolated => {
                self.reported = Some(v.job);
            }
            Note::Release { job, proc } => self.check_release(now, job, proc),
            Note::Slice {
                proc,
                job,
                start,
                end,
            } => self.check_slice(proc, job, start, end),
            Note::Completion { job, proc } => self.check_completion(now, job, proc),
            Note::IdlePoint { proc } => self.procs[proc].last_idle = Some(now),
            Note::SignalDeliver { .. } => self.delivers_seen += 1,
            Note::Slowdown { proc, factor } => self.procs[proc].slowed = factor > 1,
            Note::Stall { proc, stalled } => {
                let p = &mut self.procs[proc];
                if stalled {
                    p.stalled_since = match p.last_stall {
                        Some((opened, thawed)) if thawed == now => Some(opened),
                        _ => Some(now),
                    };
                } else if let Some(opened) = p.stalled_since.take() {
                    p.last_stall = Some((opened, now));
                }
            }
            Note::Crash { proc, killed } => {
                let p = &mut self.procs[proc];
                let live = p.live.len();
                p.live.clear();
                p.down = true;
                p.down_since = Some(now);
                // A crash ends an open stall; no thaw note follows.
                p.stalled_since = None;
                if killed != live {
                    self.fail(
                        InvariantKind::KillCount,
                        now,
                        None,
                        format!("crash of P{proc} killed {killed} jobs but {live} were live"),
                    );
                }
            }
            Note::Recovery { proc, .. } => {
                let min_period = self.min_period.ticks().max(1);
                let p = &mut self.procs[proc];
                p.down = false;
                p.last_recovery = Some(now);
                if let Some(since) = p.down_since.take() {
                    // Allow the post-outage burst: roughly one instance per
                    // subtask per elapsed period, plus slack for boundary
                    // effects.
                    let periods = (now - since).ticks() / min_period + 2;
                    p.backlog_limit = p.backlog_limit.saturating_add(periods * p.subtasks);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_observed, SimConfig, Violation};
    use crate::faults::{CrashWindow, FaultConfig, PartitionSchedule, PartitionWindow};
    use rtsync_core::examples::{example1, example2};
    use rtsync_core::task::{SubtaskId, TaskId};

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    fn job(task: usize, sub: usize, m: u64) -> JobId {
        JobId::new(SubtaskId::new(TaskId::new(task), sub), m)
    }

    fn release(job: JobId, proc: usize) -> Note {
        Note::Release { job, proc }
    }

    fn completion(job: JobId, proc: usize) -> Note {
        Note::Completion { job, proc }
    }

    fn slice(proc: usize, job: JobId, start: i64, end: i64) -> Note {
        Note::Slice {
            proc,
            job,
            start: t(start),
            end: t(end),
        }
    }

    fn crash(proc: usize, killed: usize) -> Note {
        Note::Crash { proc, killed }
    }

    fn recovery(proc: usize) -> Note {
        Note::Recovery {
            proc,
            released: 0,
            dropped: 0,
        }
    }

    fn stall(proc: usize, stalled: bool) -> Note {
        Note::Stall { proc, stalled }
    }

    /// A settled sync round on P0: `estimate ± uncertainty` against the
    /// true offset.
    fn bracket(estimate: i64, uncertainty: i64, true_offset: i64) -> Note {
        Note::SyncBracket {
            proc: 0,
            estimate: d(estimate),
            uncertainty: d(uncertainty),
            true_offset: d(true_offset),
        }
    }

    fn observer(set: &TaskSet, protocol: Protocol) -> InvariantObserver {
        let mut obs = InvariantObserver::default();
        obs.on_run_start(set, protocol);
        obs
    }

    /// `job` runs `[start, end)` on `proc` and completes there.
    fn finish(obs: &mut InvariantObserver, proc: usize, job: JobId, start: i64, end: i64) {
        obs.on(t(end), slice(proc, job, start, end));
        obs.on(t(end), completion(job, proc));
    }

    fn kinds(obs: &InvariantObserver) -> Vec<InvariantKind> {
        obs.violations().iter().map(|v| v.kind).collect()
    }

    /// Two tasks on one processor: high-priority T0 (c = 2, phase 1) and
    /// low-priority T1 (c = 5), non-preemptive or not.
    fn blocking_pair(nonpreemptive: bool) -> TaskSet {
        let builder = TaskSet::builder(1)
            .task(d(10))
            .phase(t(1))
            .subtask(0, d(2), Priority::new(0))
            .finish_task()
            .task(d(10));
        let builder = if nonpreemptive {
            builder.nonpreemptive_subtask(0, d(5), Priority::new(1))
        } else {
            builder.subtask(0, d(5), Priority::new(1))
        };
        builder.finish_task().build().unwrap()
    }

    #[test]
    fn engine_schedules_check_clean() {
        for protocol in Protocol::ALL {
            for set in [example1(), example2()] {
                let mut obs = InvariantObserver::default();
                let cfg = SimConfig::new(protocol).with_instances(10);
                let out = simulate_observed(&set, &cfg, &mut obs).unwrap();
                obs.check_outcome(&out);
                assert!(obs.is_clean(), "{protocol:?}: {:?}", obs.violations());
                assert!(out.violations.is_empty(), "{protocol:?}");
            }
        }
    }

    #[test]
    fn faulted_engine_schedules_are_legal_and_quiet_during_outages() {
        let windows = vec![
            Vec::new(),
            vec![CrashWindow {
                at: t(5),
                restart_delay: d(10),
            }],
        ];
        let set = example2();
        for protocol in Protocol::ALL {
            let mut obs = InvariantObserver::default();
            let cfg = SimConfig::new(protocol)
                .with_instances(15)
                .with_faults(FaultConfig::explicit(windows.clone()));
            let out = simulate_observed(&set, &cfg, &mut obs).unwrap();
            assert_eq!(out.fault_stats.crashes, 1, "{protocol:?}");
            obs.check_outcome(&out);
            assert!(obs.is_clean(), "{protocol:?}: {:?}", obs.violations());
        }
    }

    #[test]
    fn partitioned_engine_schedules_show_no_cross_cut_release() {
        let set = example2();
        let windows = vec![PartitionWindow {
            at: t(8),
            heal_delay: d(30),
            island: vec![0],
        }];
        for protocol in [
            Protocol::DirectSync,
            Protocol::ReleaseGuard,
            Protocol::ModifiedPhaseModification,
        ] {
            let mut obs = InvariantObserver::default();
            let cfg = SimConfig::new(protocol).with_instances(15).with_faults(
                FaultConfig::explicit(vec![Vec::new(), Vec::new()])
                    .with_partitions(PartitionSchedule::Explicit(windows.clone())),
            );
            let out = simulate_observed(&set, &cfg, &mut obs).unwrap();
            obs.check_outcome(&out);
            assert!(obs.is_clean(), "{protocol:?}: {:?}", obs.violations());
        }
    }

    #[test]
    fn overlap_is_flagged() {
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(0), release(job(0, 0, 0), 0));
        obs.on(t(0), release(job(1, 0, 0), 0));
        obs.on(t(2), slice(0, job(0, 0, 0), 0, 2));
        obs.on(t(3), slice(0, job(1, 0, 0), 1, 3));
        assert!(
            kinds(&obs).contains(&InvariantKind::Overlap),
            "{kinds:?}",
            kinds = kinds(&obs)
        );
    }

    #[test]
    fn wrong_budget_and_dishonest_completion_are_flagged() {
        // T0.0 has budget 2 but runs 1 tick, and "completes" at 5.
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(0), release(job(0, 0, 0), 0));
        obs.on(t(1), slice(0, job(0, 0, 0), 0, 1));
        obs.on(t(5), completion(job(0, 0, 0), 0));
        let found = kinds(&obs);
        assert!(found.contains(&InvariantKind::WrongBudget), "{found:?}");
        assert!(
            found.contains(&InvariantKind::DishonestCompletion),
            "{found:?}"
        );
        // A completion with no live release is dishonest too.
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(5), completion(job(0, 0, 0), 0));
        assert_eq!(kinds(&obs), vec![InvariantKind::DishonestCompletion]);
    }

    #[test]
    fn execution_outside_the_window_is_flagged() {
        // Before the release...
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(3), release(job(0, 0, 0), 0));
        obs.on(t(3), slice(0, job(0, 0, 0), 0, 2));
        assert_eq!(kinds(&obs), vec![InvariantKind::OutsideWindow]);
        // ...and after the completion.
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(0), release(job(0, 0, 0), 0));
        finish(&mut obs, 0, job(0, 0, 0), 0, 2);
        obs.on(t(3), slice(0, job(0, 0, 0), 2, 3));
        assert_eq!(kinds(&obs), vec![InvariantKind::OutsideWindow]);
    }

    #[test]
    fn priority_inversion_is_flagged() {
        // T1.0 (low) runs 0-2 while T0.0 (high) waits.
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(0), release(job(0, 0, 0), 0));
        obs.on(t(0), release(job(1, 0, 0), 0));
        finish(&mut obs, 0, job(1, 0, 0), 0, 2);
        assert_eq!(kinds(&obs), vec![InvariantKind::PriorityInversion]);
    }

    #[test]
    fn waiter_released_at_the_slice_end_did_not_wait() {
        // The engine notes T0.0's release at 1 before the slice of T1.0
        // it cuts short.
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(0), release(job(1, 0, 0), 0));
        obs.on(t(1), release(job(0, 0, 0), 0));
        obs.on(t(1), slice(0, job(1, 0, 0), 0, 1));
        finish(&mut obs, 0, job(0, 0, 0), 1, 3);
        finish(&mut obs, 0, job(1, 0, 0), 3, 4);
        assert!(obs.is_clean(), "{:?}", obs.violations());
    }

    #[test]
    fn nonpreemptive_blocking_is_measured_from_the_first_slice() {
        // T1 starts at 0; a stall over [2, 4) splits its run, and T0
        // arrives at 3, inside the stall. Non-preemptive, T1 keeps the
        // processor after the thaw; preemptible, it should have yielded.
        for nonpreemptive in [true, false] {
            let mut obs = observer(&blocking_pair(nonpreemptive), Protocol::DirectSync);
            obs.on(t(0), release(job(1, 0, 0), 0));
            obs.on(t(2), slice(0, job(1, 0, 0), 0, 2));
            obs.on(t(2), stall(0, true));
            obs.on(t(3), release(job(0, 0, 0), 0));
            obs.on(t(4), stall(0, false));
            finish(&mut obs, 0, job(1, 0, 0), 4, 7);
            finish(&mut obs, 0, job(0, 0, 0), 7, 9);
            if nonpreemptive {
                assert!(obs.is_clean(), "{:?}", obs.violations());
            } else {
                assert_eq!(kinds(&obs), vec![InvariantKind::PriorityInversion]);
            }
        }
    }

    #[test]
    fn ceiling_waives_only_waiters_at_or_below_it() {
        // R0's ceiling is priority 1: T2 inside R0 blocks T1, not T0.
        let set = TaskSet::builder(1)
            .task(d(30))
            .subtask(0, d(2), Priority::new(0))
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
        let mut obs = observer(&set, Protocol::DirectSync);
        obs.on(t(0), release(job(2, 0, 0), 0));
        obs.on(t(1), release(job(1, 0, 0), 0));
        obs.on(t(1), slice(0, job(2, 0, 0), 0, 1));
        obs.on(t(3), slice(0, job(2, 0, 0), 1, 3));
        assert!(
            obs.is_clean(),
            "T1 waits on the ceiling: {:?}",
            obs.violations()
        );
        obs.on(t(3), release(job(0, 0, 0), 0));
        obs.on(t(4), slice(0, job(2, 0, 0), 3, 4));
        assert_eq!(kinds(&obs), vec![InvariantKind::PriorityInversion]);
        assert_eq!(obs.violations()[0].job, Some(job(2, 0, 0)));
    }

    #[test]
    fn completion_held_by_a_stall_lands_at_the_thaw() {
        // T0.0's work runs out at 2 as a stall opens; it completes at the
        // thaw, also across a second stall that opens as the first thaws.
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(0), release(job(0, 0, 0), 0));
        obs.on(t(2), slice(0, job(0, 0, 0), 0, 2));
        obs.on(t(2), stall(0, true));
        obs.on(t(4), stall(0, false));
        obs.on(t(4), stall(0, true));
        obs.on(t(6), stall(0, false));
        obs.on(t(6), completion(job(0, 0, 0), 0));
        assert!(obs.is_clean(), "{:?}", obs.violations());
        // A stall that opened after the work ran out holds nothing.
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(0), release(job(0, 0, 0), 0));
        obs.on(t(2), slice(0, job(0, 0, 0), 0, 2));
        obs.on(t(3), stall(0, true));
        obs.on(t(5), stall(0, false));
        obs.on(t(5), completion(job(0, 0, 0), 0));
        assert_eq!(kinds(&obs), vec![InvariantKind::DishonestCompletion]);
    }

    #[test]
    fn slowed_jobs_are_spared_the_budget_check() {
        // At a third of full speed T0.0's 2 ticks of work take 6 wall
        // ticks; back at full speed a 1-tick run is short.
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(0), Note::Slowdown { proc: 0, factor: 3 });
        obs.on(t(0), release(job(0, 0, 0), 0));
        finish(&mut obs, 0, job(0, 0, 0), 0, 6);
        assert!(obs.is_clean(), "{:?}", obs.violations());
        obs.on(t(6), Note::Slowdown { proc: 0, factor: 1 });
        obs.on(t(8), release(job(0, 0, 1), 0));
        finish(&mut obs, 0, job(0, 0, 1), 8, 9);
        assert_eq!(kinds(&obs), vec![InvariantKind::WrongBudget]);
    }

    #[test]
    fn crash_kills_exactly_the_live_jobs() {
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(0), release(job(0, 0, 0), 0));
        obs.on(t(1), crash(0, 1));
        obs.on(t(5), recovery(0));
        assert!(
            obs.procs[0].live.is_empty(),
            "killed jobs leave the backlog"
        );
        assert!(obs.is_clean());
        obs.on(t(8), release(job(0, 0, 2), 0));
        obs.on(t(9), crash(0, 0));
        assert_eq!(kinds(&obs), vec![InvariantKind::KillCount]);
    }

    #[test]
    fn unreported_pm_precedence_breaks_are_flagged() {
        // T1.1 released at 1 although T1.0 has not completed.
        let set = example2();
        let early = job(1, 1, 0);
        let reported = Note::Violation(Violation {
            kind: ViolationKind::PrecedenceViolated,
            job: early,
            time: t(1),
        });
        for protocol in Protocol::ALL {
            for report in [false, true] {
                let mut obs = observer(&set, protocol);
                obs.on(t(0), release(job(1, 0, 0), 0));
                if report {
                    obs.on(t(1), reported);
                }
                obs.on(t(1), release(early, 1));
                let strict = matches!(protocol, Protocol::DirectSync | Protocol::ReleaseGuard);
                let flagged = kinds(&obs) == vec![InvariantKind::PrecedenceOrder];
                assert_eq!(
                    flagged,
                    strict || !report,
                    "{protocol:?}, reported {report}"
                );
            }
        }
    }

    #[test]
    fn cross_partition_release_is_flagged_only_for_cut_pairs() {
        let set = example2();
        // Find a cross-processor successor.
        let (sub, pred, proc, pred_proc) = set
            .tasks()
            .iter()
            .flat_map(|task| task.subtasks().windows(2))
            .find_map(|pair| {
                let (a, b) = (&pair[0], &pair[1]);
                (a.processor() != b.processor())
                    .then(|| (b.id(), a.id(), b.processor().index(), a.processor().index()))
            })
            .expect("example2 has a cross-processor hop");
        let run = set.subtask(pred).execution().ticks();

        let mut obs = observer(&set, Protocol::DirectSync);
        let mut island = vec![false; set.num_processors()];
        island[pred_proc] = true;
        obs.on_partition_start(t(10), &island);
        // Predecessor completes during the cut, successor releases: leak.
        obs.on(t(11), release(JobId::new(pred, 0), pred_proc));
        finish(&mut obs, pred_proc, JobId::new(pred, 0), 11, 11 + run);
        obs.on(t(12 + run), release(JobId::new(sub, 0), proc));
        assert!(
            obs.violations()
                .iter()
                .any(|v| v.kind == InvariantKind::CrossPartitionDelivery),
            "cross-cut DS release must be flagged: {:?}",
            obs.violations()
        );

        // Same sequence after the heal: clean.
        let mut obs = observer(&set, Protocol::DirectSync);
        obs.on_partition_start(t(10), &island);
        obs.on(t(12), Note::PartitionHeal);
        obs.on(t(13), release(JobId::new(pred, 1), pred_proc));
        finish(&mut obs, pred_proc, JobId::new(pred, 1), 13, 13 + run);
        obs.on(t(14 + run), release(JobId::new(sub, 1), proc));
        assert!(obs.is_clean(), "{:?}", obs.violations());
    }

    #[test]
    fn cross_partition_heartbeat_is_flagged() {
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on_partition_start(t(5), &[true, false]);
        obs.on(t(6), Note::Heartbeat { from: 0, to: 1 });
        assert!(obs
            .violations()
            .iter()
            .any(|v| v.kind == InvariantKind::CrossPartitionDelivery));
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on_partition_start(t(5), &[true, true]);
        obs.on(t(6), Note::Heartbeat { from: 0, to: 1 });
        assert!(obs.is_clean(), "same side: no break");
    }

    #[test]
    fn dishonest_uncertainty_is_flagged_unless_disarmed() {
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(5), bracket(100, 10, 50));
        assert!(obs
            .violations()
            .iter()
            .any(|v| v.kind == InvariantKind::UncertaintyDishonest));

        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(5), bracket(100, 60, 50));
        assert!(obs.is_clean(), "true offset inside the bracket");

        let mut obs = InvariantObserver::default().with_uncertainty_check(false);
        obs.on_run_start(&example2(), Protocol::DirectSync);
        obs.on(t(5), bracket(100, 10, 50));
        assert!(obs.is_clean(), "disarmed: no break");
    }

    #[test]
    fn activity_on_a_down_processor_is_flagged() {
        let mut obs = observer(&example2(), Protocol::DirectSync);
        obs.on(t(10), crash(0, 0));
        obs.on(t(12), release(job(0, 0, 0), 0));
        assert_eq!(kinds(&obs), vec![InvariantKind::DownProcessorActivity]);
        obs.on(t(13), slice(0, job(0, 0, 0), 12, 13));
        assert_eq!(
            kinds(&obs),
            vec![InvariantKind::DownProcessorActivity; 2],
            "a slice while down too"
        );
        obs.on(t(20), recovery(0));
        let before = obs.violations().len();
        obs.on(t(22), release(job(0, 0, 1), 0));
        assert_eq!(obs.violations().len(), before, "up again: no new break");
    }

    #[test]
    fn guard_spacing_waived_by_recovery_but_not_otherwise() {
        // T2 of example2 has period 6 and a second subtask; instance gaps
        // below 6 need a waiver.
        let set = example2();
        let sub = set
            .tasks()
            .iter()
            .find(|task| task.chain_len() > 1)
            .map(|task| task.subtasks()[1].id())
            .expect("example2 has a chain");
        let proc = set.subtask(sub).processor().index();
        let run = set.subtask(sub).execution().ticks();
        let pred = sub.predecessor().expect("non-first subtask");
        let pred_proc = set.subtask(pred).processor().index();
        let pred_run = set.subtask(pred).execution().ticks();

        // Complete both predecessor instances up front so only the
        // spacing rule is in play.
        let feed_preds = |obs: &mut InvariantObserver| {
            for m in 0..2 {
                let at = m as i64 * pred_run;
                obs.on(t(at), release(JobId::new(pred, m), pred_proc));
                finish(obs, pred_proc, JobId::new(pred, m), at, at + pred_run);
            }
        };
        let start = 2 * pred_run;

        let mut obs = observer(&set, Protocol::ReleaseGuard);
        feed_preds(&mut obs);
        obs.on(t(start), release(JobId::new(sub, 0), proc));
        finish(&mut obs, proc, JobId::new(sub, 0), start, start + run);
        obs.on(t(start + run + 1), release(JobId::new(sub, 1), proc));
        assert!(
            obs.violations()
                .iter()
                .any(|v| v.kind == InvariantKind::GuardSpacing),
            "{}-tick spacing with no waiver must be flagged",
            run + 1
        );

        let mut obs = observer(&set, Protocol::ReleaseGuard);
        feed_preds(&mut obs);
        obs.on(t(start), release(JobId::new(sub, 0), proc));
        finish(&mut obs, proc, JobId::new(sub, 0), start, start + run);
        obs.on(t(start + run), crash(proc, 0));
        obs.on(t(start + run + 1), recovery(proc));
        obs.on(t(start + run + 1), release(JobId::new(sub, 1), proc));
        assert!(
            obs.is_clean(),
            "recovery re-initializes the guard: {:?}",
            obs.violations()
        );
    }

    #[test]
    fn tags_are_distinct_and_violations_display() {
        use InvariantKind::*;
        let all = [
            PrecedenceOrder,
            GuardSpacing,
            DownProcessorActivity,
            SignalConservation,
            UnboundedBacklog,
            CrossPartitionDelivery,
            UncertaintyDishonest,
            Overlap,
            OutsideWindow,
            WrongBudget,
            DishonestCompletion,
            PriorityInversion,
            KillCount,
        ];
        // Discriminants are digested by perfbench: new kinds append.
        for (i, kind) in all.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
        let tags: BTreeSet<&str> = all.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), all.len());
        let v = InvariantViolation {
            kind: Overlap,
            time: t(3),
            job: Some(job(0, 0, 0)),
            detail: "two at once".to_string(),
        };
        assert!(v.to_string().starts_with("[t=3] overlap: "), "{v}");
    }
}
