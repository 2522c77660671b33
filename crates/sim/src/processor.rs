//! One processor's preemptive fixed-priority scheduler state.
//!
//! The engine drives each [`Processor`] with three operations:
//!
//! * [`Processor::advance`] — account the wall-clock progress of the
//!   running job up to "now" (returns the executed slice for the trace);
//! * [`Processor::release`] — enqueue a newly released job;
//! * [`Processor::reschedule`] — (re)pick the job to run and learn whether
//!   a new *milestone* event must be scheduled.
//!
//! A milestone is the next instant the running job needs attention: its
//! **completion**, or a **priority boundary** — the start or end of a
//! critical section, where its Highest-Locker effective priority changes
//! (see [`crate::priority_profile`]). A processor has at most one live
//! milestone. The engine keeps it in the processor's keyed slot of the
//! event queue ([`crate::event::EventQueue::arm`]): a
//! [`Resched::NewMilestone`] replaces the pending one, and whatever
//! invalidates a milestone without arming a new one — a crash, a stall
//! edge, a rate change — leaves [`Processor::has_milestone`] false, which
//! tells the engine to disarm the slot. A milestone event that fires is
//! therefore always the current one.
//!
//! Dispatch rules:
//!
//! * comparisons use **effective** priorities: a never-started job queues
//!   at its base priority (it holds no locks); started jobs carry the
//!   profile priority at their executed amount;
//! * equal effective priorities run FIFO in release order;
//! * a running job with zero remaining work is never preempted (it has
//!   finished at this very instant);
//! * a running **non-preemptive** job is never preempted.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rtsync_core::task::{Priority, ProcessorId};
use rtsync_core::time::{Dur, Time};

use crate::job::JobId;
use crate::priority_profile::PriorityProfile;

/// A contiguous slice of execution, for the trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecutedSlice {
    /// The job that ran.
    pub job: JobId,
    /// Slice start.
    pub start: Time,
    /// Slice end (exclusive).
    pub end: Time,
}

#[derive(Clone, Debug)]
struct QueuedJob {
    effective: Priority,
    fifo: u64,
    job: JobId,
    executed: Dur,
    total: Dur,
    profile: PriorityProfile,
    preemptible: bool,
    started: bool,
    released_at: Time,
}

impl QueuedJob {
    fn remaining(&self) -> Dur {
        self.total - self.executed
    }
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &QueuedJob) -> bool {
        self.fifo == other.fifo
    }
}

impl Eq for QueuedJob {}

impl Ord for QueuedJob {
    fn cmp(&self, other: &QueuedJob) -> Ordering {
        // Max-heap: invert so the numerically lowest (= highest) effective
        // priority wins, FIFO within a level.
        other
            .effective
            .cmp(&self.effective)
            .then_with(|| other.fifo.cmp(&self.fifo))
    }
}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &QueuedJob) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// What [`Processor::reschedule`] decided.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resched {
    /// The running job keeps running and its outstanding milestone event is
    /// still valid.
    Unchanged,
    /// A job (re)started or crossed a boundary: schedule a milestone event
    /// at `at`, replacing any pending one.
    NewMilestone {
        /// Milestone instant (completion or next priority boundary).
        at: Time,
    },
    /// Nothing to run.
    Idle,
}

/// What a fired milestone meant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Milestone {
    /// The job finished; it has been removed from the processor.
    Completed(JobId),
    /// The job reached a critical-section boundary: its effective priority
    /// changed and it stays on the processor. Reschedule to arbitrate and
    /// arm the next milestone.
    Boundary(JobId),
}

/// Scheduler state of one processor.
#[derive(Debug)]
pub struct Processor {
    id: ProcessorId,
    ready: BinaryHeap<QueuedJob>,
    running: Option<QueuedJob>,
    last_advance: Time,
    /// A milestone event is pending for the running job: set by every
    /// [`Resched::NewMilestone`], cleared when it fires or is invalidated.
    milestone_armed: bool,
    /// The running job needs a fresh milestone event (set on dispatch and
    /// on boundary crossings).
    needs_milestone: bool,
    next_fifo: u64,
    /// Ready jobs released exactly at `last_advance`. Kept incrementally so
    /// [`Processor::is_idle_point`] is O(1) instead of scanning `ready`:
    /// every queued job has `released_at <= last_advance`, so "released at
    /// or after `now`" can only ever match jobs released at the current
    /// instant.
    fresh_ready: usize,
    /// Gray-failure execution-rate divisor: one work tick is retired per
    /// `rate` wall ticks. `1` (the default) is the exact legacy 1:1 path.
    rate: u32,
    /// Wall ticks accumulated toward the next work tick while `rate > 1`
    /// (always `0` at nominal rate, so the legacy arithmetic is
    /// untouched).
    rate_rem: i64,
    /// Gray-failure stall: the scheduler is frozen — no execution, no
    /// dispatch, no milestones — but, unlike a crash, every queued and
    /// running job survives with its partial execution intact.
    stalled: bool,
    /// Fail-stop outage: set by [`Processor::crash_into`], cleared by
    /// [`Processor::recover`].
    down: bool,
}

impl Processor {
    /// Creates an idle processor.
    pub fn new(id: ProcessorId) -> Processor {
        Processor {
            id,
            ready: BinaryHeap::new(),
            running: None,
            last_advance: Time::ZERO,
            milestone_armed: false,
            needs_milestone: false,
            next_fifo: 0,
            fresh_ready: 0,
            rate: 1,
            rate_rem: 0,
            stalled: false,
            down: false,
        }
    }

    /// This processor's id.
    pub fn id(&self) -> ProcessorId {
        self.id
    }

    /// `true` if nothing is running or ready.
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.ready.is_empty()
    }

    /// `true` if `now` is an *idle point* in the paper's sense (§3.2):
    /// every instance released **strictly before** `now` has completed —
    /// instances released at the instant itself do not count.
    ///
    /// The `released_at >= now` boundary is deliberate, and release guards
    /// (RG rule 2) depend on it: Sun & Liu define an idle point as an
    /// instant where all *previously released* work has finished, so an
    /// instance whose release coincides with the instant must not
    /// retroactively disqualify it — otherwise a guard queued behind that
    /// very release could never be freed at its natural boundary. Since
    /// jobs are stamped `released_at = last_advance` on release and time
    /// is monotone, a queued job can only satisfy `released_at >= now`
    /// when it was released at the current instant, which is exactly what
    /// the `fresh_ready` counter tracks — making this O(1).
    pub fn is_idle_point(&self, now: Time) -> bool {
        debug_assert!(
            now >= self.last_advance,
            "idle-point query in the past on {}",
            self.id
        );
        let idle = self.running.is_none()
            && if now == self.last_advance {
                self.ready.len() == self.fresh_ready
            } else {
                self.ready.is_empty()
            };
        debug_assert_eq!(
            idle,
            self.running.is_none() && self.ready.iter().all(|j| j.released_at >= now),
            "fresh_ready counter out of sync on {}",
            self.id
        );
        idle
    }

    /// The currently running job, if any.
    pub fn running_job(&self) -> Option<JobId> {
        self.running.as_ref().map(|r| r.job)
    }

    /// Number of released-but-incomplete jobs (running + ready).
    pub fn backlog(&self) -> usize {
        self.ready.len() + usize::from(self.running.is_some())
    }

    /// Accounts execution up to `now`. Returns the slice the running job
    /// executed since the last advance, if any.
    ///
    /// # Panics
    ///
    /// Panics if time runs backwards or the running job is driven past its
    /// remaining execution (both indicate an engine bug).
    pub fn advance(&mut self, now: Time) -> Option<ExecutedSlice> {
        assert!(
            now >= self.last_advance,
            "time ran backwards on {}",
            self.id
        );
        let start = self.last_advance;
        self.last_advance = now;
        if now > start {
            // Jobs released at the previous instant are no longer "fresh".
            self.fresh_ready = 0;
        }
        let elapsed = now - start;
        if elapsed.is_zero() || self.stalled {
            // A stalled processor burns wall time without retiring work:
            // the running job (if any) keeps its partial execution frozen.
            return None;
        }
        match self.running.as_mut() {
            Some(r) => {
                // At nominal rate every wall tick is a work tick; under a
                // slowdown only every `rate`-th wall tick retires work, with
                // `rate_rem` carrying the sub-tick remainder across slices.
                let work = if self.rate == 1 {
                    elapsed
                } else {
                    let wall = self.rate_rem + elapsed.ticks();
                    let rate = i64::from(self.rate);
                    self.rate_rem = wall % rate;
                    Dur::from_ticks(wall / rate)
                };
                assert!(
                    work <= r.remaining(),
                    "job {} overran: work {work} > remaining {}",
                    r.job,
                    r.remaining()
                );
                r.executed += work;
                Some(ExecutedSlice {
                    job: r.job,
                    start,
                    end: now,
                })
            }
            None => None,
        }
    }

    /// Enqueues a released job: `execution` ticks of work under the given
    /// effective-priority profile. A job with `preemptible: false` runs to
    /// completion once it starts.
    pub fn release(
        &mut self,
        job: JobId,
        profile: PriorityProfile,
        execution: Dur,
        preemptible: bool,
    ) {
        let fifo = self.next_fifo;
        self.next_fifo += 1;
        self.fresh_ready += 1; // stamped `released_at = last_advance` below
        self.ready.push(QueuedJob {
            effective: profile.base(), // no locks held before first dispatch
            fifo,
            job,
            executed: Dur::ZERO,
            total: execution,
            profile,
            preemptible,
            started: false,
            released_at: self.last_advance,
        });
    }

    /// `true` while a milestone event is pending for the running job.
    /// After a crash, stall edge or rate change it is `false` until the
    /// next [`Resched::NewMilestone`]: the engine must then drop the
    /// pending event.
    pub fn has_milestone(&self) -> bool {
        self.milestone_armed
    }

    /// Consumes the pending milestone event: whether the job completed or
    /// crossed a priority boundary.
    ///
    /// # Panics
    ///
    /// Panics if there is no running job, or the job is at neither its
    /// completion nor a boundary (engine bug: [`Processor::advance`] must
    /// be called to `now` first). In debug builds, also if no milestone
    /// is pending (the engine fired a superseded one).
    pub fn take_milestone(&mut self) -> Milestone {
        debug_assert!(
            self.milestone_armed,
            "superseded milestone fired on {}",
            self.id
        );
        self.milestone_armed = false;
        let r = self
            .running
            .as_mut()
            .expect("milestone with no running job");
        if r.remaining().is_zero() {
            let job = r.job;
            self.running = None;
            return Milestone::Completed(job);
        }
        // A boundary: the effective priority changes right here.
        debug_assert_eq!(
            r.profile.next_change_after(r.executed - Dur::from_ticks(1)),
            Some(r.executed),
            "milestone fired away from completion or boundary on {}",
            r.job
        );
        r.effective = r.profile.at(r.executed);
        self.needs_milestone = true;
        Milestone::Boundary(r.job)
    }

    /// Fail-stop crash: drops the running job and the whole ready queue
    /// (their partial execution is lost) and invalidates any outstanding
    /// milestone event. Fills `killed` (cleared first) with the killed
    /// jobs sorted by [`JobId`] so the caller's bookkeeping is
    /// deterministic regardless of heap layout. Writing into a
    /// caller-owned buffer keeps the engine's crash path allocation-free.
    /// The processor is down until [`Processor::recover`]; after the
    /// restart delay the engine releases work onto it again.
    pub fn crash_into(&mut self, killed: &mut Vec<JobId>) {
        debug_assert!(!self.down, "crash of an already-down {}", self.id);
        self.down = true;
        self.milestone_armed = false;
        self.needs_milestone = false;
        killed.clear();
        killed.extend(self.ready.drain().map(|q| q.job));
        if let Some(run) = self.running.take() {
            killed.push(run.job);
        }
        self.fresh_ready = 0;
        // A crash clears a stall (the frozen jobs are gone anyway) and the
        // mid-tick slowdown remainder; the rate itself is a property of the
        // node's current gray window and survives the restart.
        self.stalled = false;
        self.rate_rem = 0;
        killed.sort_unstable();
    }

    /// Ends the outage a crash began.
    pub fn recover(&mut self) {
        debug_assert!(self.down, "recovery of {}, which is up", self.id);
        self.down = false;
    }

    /// `true` between a crash and its recovery.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The current execution-rate divisor (1 = nominal speed).
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// `true` while the processor is gray-stalled.
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Changes the execution-rate divisor (`1` restores nominal speed).
    /// Call only after [`Processor::advance`]-ing to the present: the old
    /// rate must have been accounted through "now" first. Any outstanding
    /// milestone is invalidated; reschedule to arm a fresh one.
    pub fn set_rate(&mut self, rate: u32) {
        assert!(rate >= 1, "rate divisor must be at least 1 on {}", self.id);
        if rate == self.rate {
            return;
        }
        self.rate = rate;
        // Restart the remainder at the new rate's tick edge.
        self.rate_rem = 0;
        self.milestone_armed = false;
        self.needs_milestone = self.running.is_some();
    }

    /// Freezes (`true`) or thaws (`false`) the scheduler. Unlike a crash
    /// every job survives with its partial execution intact — including the
    /// slowdown remainder, so a stall inside a slow window resumes exactly
    /// where it left off. Call only after advancing to the present.
    pub fn set_stalled(&mut self, on: bool) {
        if on == self.stalled {
            return;
        }
        self.stalled = on;
        self.milestone_armed = false;
        self.needs_milestone = self.running.is_some();
    }

    /// Picks the job to run at `now` (see the module docs for the rules).
    pub fn reschedule(&mut self, now: Time) -> Resched {
        if self.stalled {
            // Frozen: no dispatch, no milestones. `needs_milestone` is
            // preserved so thawing re-arms the running job's milestone.
            return if self.running.is_some() {
                Resched::Unchanged
            } else {
                Resched::Idle
            };
        }
        let preempt = match (&self.running, self.ready.peek()) {
            (Some(run), Some(top)) => {
                run.preemptible
                    && run.remaining().is_positive()
                    && top.effective.is_higher_than(run.effective)
            }
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if preempt {
            if let Some(run) = self.running.take() {
                // The preempted job keeps its FIFO stamp and its *current*
                // effective priority (locks stay held across preemption).
                if run.released_at == self.last_advance {
                    self.fresh_ready += 1;
                }
                self.ready.push(run);
            }
            let mut top = self.ready.pop().expect("peeked job vanished");
            if top.released_at == self.last_advance {
                self.fresh_ready -= 1;
            }
            // Dispatch acquires any lock whose section starts right here.
            top.started = true;
            top.effective = top.profile.at(top.executed);
            self.running = Some(top);
            self.needs_milestone = true;
        }
        if self.needs_milestone {
            if let Some(run) = &self.running {
                self.needs_milestone = false;
                self.milestone_armed = true;
                let to_boundary = run
                    .profile
                    .next_change_after(run.executed)
                    .map(|b| b - run.executed);
                let step = match to_boundary {
                    Some(b) => b.min(run.remaining()),
                    None => run.remaining(),
                };
                // `step` is work ticks; under a slowdown the milestone lands
                // where the divided clock retires that much work.
                let wall = if self.rate == 1 {
                    step
                } else {
                    Dur::from_ticks(step.ticks() * i64::from(self.rate) - self.rate_rem)
                };
                return Resched::NewMilestone { at: now + wall };
            }
        }
        if self.running.is_some() {
            Resched::Unchanged
        } else {
            Resched::Idle
        }
    }
}

#[cfg(test)]
impl PriorityProfile {
    /// Test helper: a profile from explicit `(offset, priority)` change
    /// points after the base.
    pub(crate) fn for_subtask_test(
        base: Priority,
        changes: Vec<(Dur, Priority)>,
    ) -> PriorityProfile {
        let mut p = PriorityProfile::flat(base);
        for (off, prio) in changes {
            p.push_change(off, prio);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn proc() -> Processor {
        Processor::new(ProcessorId::new(0))
    }

    fn flat(level: u32) -> PriorityProfile {
        PriorityProfile::flat(Priority::new(level))
    }

    /// Release with a flat profile (the no-resources common case).
    fn rel(p: &mut Processor, j: JobId, level: u32, exec: i64) {
        p.release(j, flat(level), d(exec), true);
    }

    #[test]
    fn runs_a_single_job_to_completion() {
        let mut p = proc();
        assert!(p.is_idle());
        rel(&mut p, job(0, 0, 0), 0, 3);
        let r = p.reschedule(t(0));
        assert_eq!(r, Resched::NewMilestone { at: t(3) });
        assert!(p.has_milestone());
        let slice = p.advance(t(3)).unwrap();
        assert_eq!(slice.job, job(0, 0, 0));
        assert_eq!((slice.start, slice.end), (t(0), t(3)));
        assert_eq!(p.take_milestone(), Milestone::Completed(job(0, 0, 0)));
        assert!(!p.has_milestone());
        assert!(p.is_idle());
        assert_eq!(p.reschedule(t(3)), Resched::Idle);
    }

    #[test]
    fn preemption_replaces_the_old_milestone() {
        let mut p = proc();
        rel(&mut p, job(1, 0, 0), 1, 5);
        assert_eq!(p.reschedule(t(0)), Resched::NewMilestone { at: t(5) });
        // A higher-priority job arrives at 2: a new milestone replaces the
        // old one (same instant, different job).
        p.advance(t(2));
        rel(&mut p, job(0, 0, 0), 0, 3);
        assert_eq!(p.reschedule(t(2)), Resched::NewMilestone { at: t(5) });
        p.advance(t(5));
        assert_eq!(p.take_milestone(), Milestone::Completed(job(0, 0, 0)));
        // The preempted job resumes with 3 ticks left.
        match p.reschedule(t(5)) {
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(8)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_preemption_by_equal_or_lower_priority() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 1, 4);
        p.reschedule(t(0));
        p.advance(t(1));
        rel(&mut p, job(1, 0, 0), 2, 1);
        assert_eq!(p.reschedule(t(1)), Resched::Unchanged);
        assert_eq!(p.running_job(), Some(job(0, 0, 0)));
    }

    #[test]
    fn fifo_among_equal_priority_instances() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 2);
        rel(&mut p, job(0, 0, 1), 0, 2);
        assert_eq!(p.reschedule(t(0)), Resched::NewMilestone { at: t(2) });
        assert_eq!(p.running_job(), Some(job(0, 0, 0)));
        p.advance(t(2));
        assert_eq!(p.take_milestone(), Milestone::Completed(job(0, 0, 0)));
        match p.reschedule(t(2)) {
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(4)),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.running_job(), Some(job(0, 0, 1)));
    }

    #[test]
    fn finished_job_is_not_preempted_at_its_completion_instant() {
        let mut p = proc();
        rel(&mut p, job(1, 0, 0), 1, 3);
        assert_eq!(p.reschedule(t(0)), Resched::NewMilestone { at: t(3) });
        p.advance(t(3)); // remaining hits zero
        rel(&mut p, job(0, 0, 0), 0, 2);
        assert_eq!(p.reschedule(t(3)), Resched::Unchanged);
        assert!(p.has_milestone(), "the pending completion stays live");
        assert_eq!(p.take_milestone(), Milestone::Completed(job(1, 0, 0)));
        match p.reschedule(t(3)) {
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(5)),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.running_job(), Some(job(0, 0, 0)));
    }

    #[test]
    fn nonpreemptive_running_job_blocks_higher_priority() {
        let mut p = proc();
        p.release(job(1, 0, 0), flat(1), d(4), false);
        p.reschedule(t(0));
        p.advance(t(1));
        rel(&mut p, job(0, 0, 0), 0, 1);
        assert_eq!(p.reschedule(t(1)), Resched::Unchanged);
        assert_eq!(p.running_job(), Some(job(1, 0, 0)));
    }

    #[test]
    fn boundary_raises_and_lowers_effective_priority() {
        // Low job (base 2) with a ceiling-0 section on [1, 3) of 4 ticks.
        let mut p = proc();
        let profile = PriorityProfile::for_subtask_test(
            Priority::new(2),
            vec![(d(1), Priority::new(0)), (d(3), Priority::new(2))],
        );
        p.release(job(1, 0, 0), profile, d(4), true);
        assert_eq!(
            p.reschedule(t(0)),
            Resched::NewMilestone { at: t(1) },
            "first milestone at the section start"
        );
        p.advance(t(1));
        assert_eq!(p.take_milestone(), Milestone::Boundary(job(1, 0, 0)));
        // Inside the section: a mid-priority arrival (1) cannot preempt
        // the ceiling (0).
        rel(&mut p, job(0, 0, 0), 1, 2);
        assert_eq!(
            p.reschedule(t(1)),
            Resched::NewMilestone { at: t(3) },
            "next milestone at the section end"
        );
        assert_eq!(p.running_job(), Some(job(1, 0, 0)));
        p.advance(t(3));
        assert_eq!(p.take_milestone(), Milestone::Boundary(job(1, 0, 0)));
        // Section over: the waiting mid-priority job preempts now.
        match p.reschedule(t(3)) {
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(5)),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.running_job(), Some(job(0, 0, 0)));
        // …and the low job still holds its last tick for later.
        p.advance(t(5));
        assert!(matches!(p.take_milestone(), Milestone::Completed(_)));
        match p.reschedule(t(5)) {
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(6)),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.running_job(), Some(job(1, 0, 0)));
    }

    #[test]
    fn fresh_job_queues_at_base_not_ceiling() {
        // A job whose section starts at offset 0 must still queue at base:
        // a mid-priority job released at the same instant wins dispatch.
        let mut p = proc();
        let locker =
            PriorityProfile::for_subtask_test(Priority::new(2), vec![(d(0), Priority::new(0))]);
        p.release(job(1, 0, 0), locker, d(3), true);
        rel(&mut p, job(0, 0, 0), 1, 2);
        p.reschedule(t(0));
        assert_eq!(p.running_job(), Some(job(0, 0, 0)));
    }

    #[test]
    fn preempted_lock_holder_keeps_its_ceiling_in_the_queue() {
        // The lock holder runs inside its section at ceiling 1; a priority-0
        // job preempts; while queued, the holder outranks a fresh
        // priority-2 arrival *and* a fresh priority-1½-style job cannot
        // exist — verify it resumes before a later base-2 job.
        let mut p = proc();
        let holder =
            PriorityProfile::for_subtask_test(Priority::new(3), vec![(d(0), Priority::new(1))]);
        p.release(job(2, 0, 0), holder, d(2), true);
        p.reschedule(t(0)); // holder starts, acquires (effective 1)
        p.advance(t(1));
        rel(&mut p, job(0, 0, 0), 0, 1); // preempts the ceiling
        p.reschedule(t(1));
        assert_eq!(p.running_job(), Some(job(0, 0, 0)));
        rel(&mut p, job(1, 0, 0), 2, 1); // fresh base-2 job
        p.advance(t(2));
        let _ = p.take_milestone();
        p.reschedule(t(2));
        // The holder (effective 1 while holding) resumes ahead of base-2.
        assert_eq!(p.running_job(), Some(job(2, 0, 0)));
    }

    #[test]
    fn advance_splits_execution_into_slices() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 4);
        p.reschedule(t(0));
        let s1 = p.advance(t(1)).unwrap();
        let s2 = p.advance(t(4)).unwrap();
        assert_eq!((s1.start, s1.end), (t(0), t(1)));
        assert_eq!((s2.start, s2.end), (t(1), t(4)));
        assert_eq!(p.advance(t(4)), None, "zero elapsed yields no slice");
    }

    #[test]
    #[should_panic(expected = "time ran backwards")]
    fn advance_backwards_panics() {
        let mut p = proc();
        p.advance(t(5));
        p.advance(t(3));
    }

    #[test]
    #[should_panic(expected = "overran")]
    fn advancing_past_remaining_panics() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 2);
        p.reschedule(t(0));
        p.advance(t(5));
    }

    #[test]
    fn crash_kills_running_and_ready_and_stales_milestones() {
        let mut p = proc();
        rel(&mut p, job(1, 0, 0), 1, 5);
        rel(&mut p, job(0, 0, 0), 0, 3);
        rel(&mut p, job(0, 0, 1), 0, 3);
        assert_eq!(p.reschedule(t(0)), Resched::NewMilestone { at: t(3) });
        p.advance(t(2));
        let mut killed = Vec::new();
        p.crash_into(&mut killed);
        assert_eq!(
            killed,
            vec![job(0, 0, 0), job(0, 0, 1), job(1, 0, 0)],
            "sorted by JobId, running included"
        );
        assert!(p.is_idle());
        assert!(!p.has_milestone(), "the crash invalidates the milestone");
        assert_eq!(p.reschedule(t(2)), Resched::Idle);
        // The node keeps scheduling normally after a restart.
        rel(&mut p, job(2, 0, 0), 0, 2);
        p.advance(t(7));
        match p.reschedule(t(7)) {
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(9)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_point_release_at_the_instant_does_not_retroactively_count() {
        // RG rule 2 boundary: an instance released exactly at an idle
        // instant must not disqualify that instant as an idle point —
        // only instances released *strictly before* `now` count.
        let mut p = proc();
        p.advance(t(5));
        assert!(p.is_idle_point(t(5)), "empty processor is trivially idle");
        rel(&mut p, job(0, 0, 0), 0, 3); // released exactly at t=5
        assert!(
            p.is_idle_point(t(5)),
            "a release at the instant itself is not yet 'previous work'"
        );
        p.reschedule(t(5));
        assert!(
            !p.is_idle_point(t(5)),
            "once dispatched the instance is running, so no idle point"
        );
    }

    #[test]
    fn idle_point_denied_while_an_earlier_release_is_pending() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 3); // released at t=0
        assert!(
            !p.is_idle_point(t(2)),
            "an undispatched job released earlier blocks the idle point"
        );
        p.advance(t(2));
        assert!(
            !p.is_idle_point(t(2)),
            "advancing past the release does not launder it into freshness"
        );
        p.reschedule(t(2));
        p.advance(t(5));
        let _ = p.take_milestone();
        assert!(p.is_idle_point(t(5)), "idle again once the job completed");
    }

    #[test]
    fn idle_point_freshness_expires_when_time_moves_on() {
        let mut p = proc();
        p.advance(t(3));
        rel(&mut p, job(0, 0, 0), 0, 2); // fresh at t=3 …
        assert!(p.is_idle_point(t(3)));
        p.advance(t(4)); // … stale at t=4
        assert!(!p.is_idle_point(t(4)));
    }

    #[test]
    fn slowdown_stretches_service_time_by_the_rate_divisor() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 3);
        p.set_rate(4);
        assert_eq!(
            p.reschedule(t(0)),
            Resched::NewMilestone { at: t(12) },
            "3 work ticks at rate 4 = 12 wall ticks"
        );
        // Partial advances accumulate the remainder correctly.
        let s = p.advance(t(5)).unwrap();
        assert_eq!((s.start, s.end), (t(0), t(5)), "slice spans wall time");
        p.advance(t(12));
        assert_eq!(p.take_milestone(), Milestone::Completed(job(0, 0, 0)));
    }

    #[test]
    fn rate_change_midstream_rearms_from_retired_work() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 4);
        assert_eq!(p.reschedule(t(0)), Resched::NewMilestone { at: t(4) });
        p.advance(t(2)); // 2 work ticks retired at nominal rate
        p.set_rate(1);
        assert!(p.has_milestone(), "an unchanged rate keeps the milestone");
        p.set_rate(3);
        assert!(!p.has_milestone(), "old milestone invalidated");
        match p.reschedule(t(2)) {
            // 2 work ticks left at rate 3 = 6 wall ticks.
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(8)),
            other => panic!("{other:?}"),
        }
        p.advance(t(8));
        assert!(matches!(p.take_milestone(), Milestone::Completed(_)));
    }

    #[test]
    fn restoring_nominal_rate_recovers_legacy_arithmetic() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 4);
        p.set_rate(2);
        p.reschedule(t(0));
        p.advance(t(4)); // 2 work ticks retired
        p.set_rate(1);
        match p.reschedule(t(4)) {
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(6)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stall_freezes_execution_without_losing_jobs() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 5);
        assert_eq!(p.reschedule(t(0)), Resched::NewMilestone { at: t(5) });
        p.advance(t(2)); // 2 ticks retired
        p.set_stalled(true);
        assert!(p.is_stalled());
        assert!(!p.has_milestone(), "milestone invalidated");
        assert_eq!(p.advance(t(10)), None, "no slice while stalled");
        assert_eq!(p.reschedule(t(10)), Resched::Unchanged);
        assert!(!p.has_milestone(), "a frozen job arms nothing");
        assert_eq!(p.running_job(), Some(job(0, 0, 0)), "job survives");
        p.set_stalled(false);
        match p.reschedule(t(10)) {
            // 3 ticks remain: the stall cost wall time but no work.
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(13)),
            other => panic!("{other:?}"),
        }
        p.advance(t(13));
        assert!(matches!(p.take_milestone(), Milestone::Completed(_)));
    }

    #[test]
    fn stalled_processor_queues_releases_without_dispatching() {
        let mut p = proc();
        p.set_stalled(true);
        rel(&mut p, job(0, 0, 0), 0, 2);
        assert_eq!(p.reschedule(t(0)), Resched::Idle, "no dispatch frozen");
        assert_eq!(p.running_job(), None);
        assert_eq!(p.backlog(), 1);
        p.set_stalled(false);
        match p.reschedule(t(0)) {
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crash_clears_stall_but_keeps_rate() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 3);
        p.set_rate(2);
        p.set_stalled(true);
        p.reschedule(t(0));
        let mut killed = Vec::new();
        p.crash_into(&mut killed);
        assert_eq!(killed, vec![job(0, 0, 0)]);
        assert!(!p.is_stalled(), "crash thaws the scheduler");
        assert_eq!(p.rate(), 2, "slow window outlives the crash");
        rel(&mut p, job(1, 0, 0), 0, 3);
        p.advance(t(4));
        match p.reschedule(t(4)) {
            Resched::NewMilestone { at, .. } => assert_eq!(at, t(10)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn backlog_counts_running_and_ready() {
        let mut p = proc();
        rel(&mut p, job(0, 0, 0), 0, 2);
        rel(&mut p, job(1, 0, 0), 1, 2);
        assert_eq!(p.backlog(), 2);
        p.reschedule(t(0));
        assert_eq!(p.backlog(), 2);
        p.advance(t(2));
        let _ = p.take_milestone();
        assert_eq!(p.backlog(), 1);
    }
}
