//! Per-protocol release controllers.
//!
//! A [`Controller`] is the protocol-specific brain the engine consults at
//! each scheduling event, and the one home of each protocol's release
//! state:
//!
//! * **DS** releases a successor the instant its predecessor completes.
//! * **PM** releases by clock alone (`TimedRelease` events the engine
//!   schedules from [`PmPhases`]); it keeps, per subtask, the instance
//!   its next firing is for.
//! * **MPM** schedules a timer `R_{i,j}` after every release; the timer —
//!   not the completion — triggers the successor. It keeps each
//!   processor's armed timers, which die with the node.
//! * **RG** runs one [`ReleaseGuard`] per non-first subtask, deferring
//!   early signals and freeing them at guard expiry or processor idle
//!   points. The engine keeps each guard's next expiry in one keyed queue
//!   slot, re-armed or cleared from what the controller returns.

use rtsync_core::analysis::sa_pm::PmBounds;
use rtsync_core::phase::PmPhases;
use rtsync_core::release_guard::{GuardDecision, ReleaseGuard};
use rtsync_core::task::{ProcessorId, SubtaskId, TaskSet};
use rtsync_core::time::{Dur, Time};

use crate::job::JobId;

/// Dense numbering of every subtask in a task set.
#[derive(Clone, Debug)]
pub struct FlatIndex {
    offsets: Vec<usize>,
    total: usize,
}

impl FlatIndex {
    /// Builds the numbering for `set`.
    pub fn new(set: &TaskSet) -> FlatIndex {
        let mut offsets = Vec::with_capacity(set.num_tasks());
        let mut total = 0;
        for task in set.tasks() {
            offsets.push(total);
            total += task.chain_len();
        }
        FlatIndex { offsets, total }
    }

    /// The dense index of a subtask.
    pub fn of(&self, id: SubtaskId) -> usize {
        self.offsets[id.task().index()] + id.index()
    }

    /// Total number of subtasks.
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` if the set has no subtasks (impossible for validated sets).
    #[allow(dead_code)] // companion to `len`, exercised by tests
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// What to do about the successor of a just-completed job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CompletionDirective {
    /// Release the successor instance now.
    ReleaseSuccessor,
    /// The successor was deferred; (re)arm its guard's deadline at `due`.
    ScheduleExpiry { due: Time },
    /// Nothing to do (clock- or timer-driven protocols).
    Nothing,
}

/// The timer a release arms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ReleaseTimer {
    /// MPM: the successor's release request fires this long after the
    /// release, measured on the host processor's clock.
    Mpm(Dur),
    /// RG: the guard's next expiry after rule 1; `None` when nothing is
    /// deferred, so its deadline is cleared.
    Guard(Option<Time>),
}

#[derive(Debug)]
pub(crate) struct GuardSlot {
    guard: ReleaseGuard,
    proc: ProcessorId,
    subtask: SubtaskId,
}

/// Protocol-specific release logic (see module docs).
#[derive(Debug)]
pub(crate) enum Controller {
    Ds,
    Pm {
        phases: PmPhases,
        /// Per flat subtask index, the instance its next timed release
        /// fires for. Recovery re-derives it; a firing for any other
        /// instance is a stale duplicate.
        next: Vec<u64>,
    },
    Mpm {
        bounds: PmBounds,
        /// Armed-but-unfired timers per processor: a timer lives on its
        /// predecessor's node and dies with it.
        armed: Vec<Vec<JobId>>,
    },
    Rg {
        guards: Vec<GuardSlot>,
        flat: FlatIndex,
        slot_of: Vec<Option<usize>>,
        /// The event-queue slot of flat subtask 0's guard deadline; flat
        /// subtask `fi` keys slot `slot_base + fi`.
        slot_base: usize,
        /// Apply rule 2 (idle points reset guards). Disabling it is the
        /// DESIGN.md ablation quantifying how much of RG's short average
        /// EER time comes from rule 2.
        apply_rule2: bool,
    },
}

impl Controller {
    pub(crate) fn ds() -> Controller {
        Controller::Ds
    }

    /// PM over `phases`, for a set of `subtasks` subtasks.
    pub(crate) fn pm(phases: PmPhases, subtasks: usize) -> Controller {
        Controller::Pm {
            phases,
            next: vec![0; subtasks],
        }
    }

    /// MPM over `bounds`, for a set on `procs` processors.
    pub(crate) fn mpm(bounds: PmBounds, procs: usize) -> Controller {
        Controller::Mpm {
            bounds,
            armed: vec![Vec::new(); procs],
        }
    }

    /// RG with per-subtask guard periods derived from the nominal task
    /// period — the engine passes the host clock's drift scaling, so a
    /// guard armed for one *local* period elapses correctly in true time.
    /// Guards measure durations only, so clock offsets never appear. The
    /// guard deadlines key queue slots from `slot_base` on.
    pub(crate) fn rg_with_guard_periods(
        set: &TaskSet,
        apply_rule2: bool,
        slot_base: usize,
        period_of: impl Fn(ProcessorId, Dur) -> Dur,
    ) -> Controller {
        let flat = FlatIndex::new(set);
        let mut guards = Vec::new();
        let mut slot_of = vec![None; flat.len()];
        for task in set.tasks() {
            for sub in task.subtasks().iter().skip(1) {
                slot_of[flat.of(sub.id())] = Some(guards.len());
                guards.push(GuardSlot {
                    guard: ReleaseGuard::new(period_of(sub.processor(), task.period())),
                    proc: sub.processor(),
                    subtask: sub.id(),
                });
            }
        }
        Controller::Rg {
            guards,
            flat,
            slot_of,
            slot_base,
            apply_rule2,
        }
    }

    /// RG: the queue slot of `subtask`'s guard deadline.
    pub(crate) fn guard_slot(&self, subtask: SubtaskId) -> usize {
        match self {
            Controller::Rg {
                flat, slot_base, ..
            } => slot_base + flat.of(subtask),
            _ => unreachable!("only RG guards keep deadlines"),
        }
    }

    /// The predecessor of `successor` just completed at `now`.
    ///
    /// Degraded releases enter through here too: when the failure
    /// detector declares a predecessor's host dead, the engine offers the
    /// forced release as if the (lost) completion signal had arrived, so
    /// RG's rule-1 spacing still governs releases made from local
    /// information alone.
    pub(crate) fn on_predecessor_complete(
        &mut self,
        successor: JobId,
        now: Time,
    ) -> CompletionDirective {
        match self {
            Controller::Ds => CompletionDirective::ReleaseSuccessor,
            Controller::Pm { .. } | Controller::Mpm { .. } => CompletionDirective::Nothing,
            Controller::Rg {
                guards,
                flat,
                slot_of,
                ..
            } => {
                let slot = &mut guards[slot_of[flat.of(successor.subtask())]
                    .expect("non-first subtasks have guards")];
                match slot.guard.offer(now, successor.instance()) {
                    GuardDecision::ReleaseNow => CompletionDirective::ReleaseSuccessor,
                    GuardDecision::DeferUntil(_) | GuardDecision::Queued => {
                        CompletionDirective::ScheduleExpiry {
                            due: slot.guard.guard(),
                        }
                    }
                }
            }
        }
    }

    /// `job` was just released at `now`. Returns the timer the release
    /// arms: an MPM timer (recorded as armed on the host), or the RG
    /// guard's refreshed expiry. Every protocol arm produces zero or one
    /// timer, so an `Option` keeps the engine's release path
    /// allocation-free.
    pub(crate) fn on_release(
        &mut self,
        set: &TaskSet,
        job: JobId,
        now: Time,
    ) -> Option<ReleaseTimer> {
        match self {
            Controller::Ds | Controller::Pm { .. } => None,
            Controller::Mpm { bounds, armed } => {
                // Timer drives the successor; none needed for chain tails.
                set.task(job.task()).successor_of(job.subtask())?;
                armed[set.subtask(job.subtask()).processor().index()].push(job);
                Some(ReleaseTimer::Mpm(bounds.response(job.subtask())))
            }
            Controller::Rg {
                guards,
                flat,
                slot_of,
                ..
            } => {
                let slot_idx = slot_of[flat.of(job.subtask())]?; // first subtasks are unguarded
                let guard = &mut guards[slot_idx].guard;
                guard.on_release(now); // rule 1
                Some(ReleaseTimer::Guard(guard.next_expiry()))
            }
        }
    }

    /// `now` is an idle point of `proc` (rule 2). Appends deferred jobs
    /// that become releasable right now to `freed`, in deterministic
    /// subtask order. The caller owns (and clears) the buffer so the
    /// engine's idle-point path stays allocation-free in steady state.
    pub(crate) fn on_idle_point(&mut self, proc: ProcessorId, now: Time, freed: &mut Vec<JobId>) {
        if let Controller::Rg {
            guards,
            apply_rule2: true,
            ..
        } = self
        {
            for slot in guards.iter_mut().filter(|s| s.proc == proc) {
                if let Some(instance) = slot.guard.on_idle_point(now) {
                    freed.push(JobId::new(slot.subtask, instance));
                }
            }
        }
    }

    /// Fail-stop crash of `proc`: returns the instances whose only
    /// release request died with the node, in deterministic order, so the
    /// engine can account each as cancelled. Under RG those are the
    /// signals its guards deferred (guard values are left for
    /// [`Controller::on_recovery`] to re-derive); under MPM the successors
    /// of its armed timers.
    pub(crate) fn on_crash(&mut self, proc: ProcessorId, set: &TaskSet) -> Vec<JobId> {
        match self {
            Controller::Rg { guards, .. } => guards
                .iter_mut()
                .filter(|s| s.proc == proc)
                .flat_map(|s| {
                    let subtask = s.subtask;
                    s.guard.on_crash().map(move |m| JobId::new(subtask, m))
                })
                .collect(),
            Controller::Mpm { armed, .. } => std::mem::take(&mut armed[proc.index()])
                .into_iter()
                .map(|timer| {
                    let succ = set
                        .task(timer.task())
                        .successor_of(timer.subtask())
                        .expect("MPM timers are only armed for subtasks with successors");
                    JobId::new(succ, timer.instance())
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// `proc` rejoined at `now` (RG only): re-initialize each hosted guard
    /// from `now` — the recovery instant is an idle point (the node holds
    /// no released-incomplete instances), so rule 2 justifies `g ← now`.
    pub(crate) fn on_recovery(&mut self, proc: ProcessorId, now: Time) {
        if let Controller::Rg { guards, .. } = self {
            for slot in guards.iter_mut().filter(|s| s.proc == proc) {
                slot.guard.reinitialize(now);
            }
        }
    }

    /// `true` when `subtask`'s guard (RG only) already queues a deferred
    /// release for `instance`. The degraded-release path checks this
    /// before forcing: when the real signal beat the death verdict and
    /// sits deferred behind rule 1, forcing the same instance would
    /// double-queue it and the duplicate would pop out of order later.
    pub(crate) fn has_deferred(&self, subtask: SubtaskId, instance: u64) -> bool {
        match self {
            Controller::Rg {
                guards,
                flat,
                slot_of,
                ..
            } => slot_of[flat.of(subtask)].is_some_and(|i| guards[i].guard.is_deferred(instance)),
            _ => false,
        }
    }

    /// `subtask`'s guard deadline fired at `now`: returns the deferred
    /// head it releases. The engine keeps the deadline armed exactly
    /// while the guard defers an instance, at the guard's expiry, so a
    /// firing always finds its head due.
    pub(crate) fn on_guard_expiry(&mut self, subtask: SubtaskId, now: Time) -> JobId {
        let Controller::Rg {
            guards,
            flat,
            slot_of,
            ..
        } = self
        else {
            unreachable!("guard deadlines are armed only under RG")
        };
        let slot = &mut guards[slot_of[flat.of(subtask)].expect("guarded subtask")];
        let instance = slot
            .guard
            .take_due(now)
            .expect("an armed guard deadline is due");
        JobId::new(subtask, instance)
    }

    /// MPM: the timer of `job` on `proc` fired. `false` means it died in
    /// a crash of `proc` and the firing is stale.
    pub(crate) fn fire_mpm_timer(&mut self, proc: ProcessorId, job: JobId) -> bool {
        let Controller::Mpm { armed, .. } = self else {
            unreachable!("MPM timers are armed only under MPM")
        };
        let armed = &mut armed[proc.index()];
        match armed.iter().position(|j| *j == job) {
            Some(i) => {
                armed.remove(i);
                true
            }
            None => false,
        }
    }

    /// PM: the modified phase `f_{i,j}` of `subtask`, its timer's first
    /// local reading.
    pub(crate) fn pm_phase(&self, subtask: SubtaskId) -> Time {
        match self {
            Controller::Pm { phases, .. } => phases.phase(subtask),
            _ => unreachable!("timed releases occur only under PM"),
        }
    }

    /// PM: the instance flat subtask `fi`'s next timed release fires for.
    pub(crate) fn pm_next(&mut self, fi: usize) -> &mut u64 {
        match self {
            Controller::Pm { next, .. } => &mut next[fi],
            _ => unreachable!("timed releases occur only under PM"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsync_core::examples::example2;
    use rtsync_core::task::TaskId;
    use rtsync_core::time::Dur;

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    fn sid(task: usize, j: usize) -> SubtaskId {
        SubtaskId::new(TaskId::new(task), j)
    }

    /// Out-param wrapper so assertions read naturally.
    fn idle_point(c: &mut Controller, proc: usize, now: Time) -> Vec<JobId> {
        let mut freed = Vec::new();
        c.on_idle_point(ProcessorId::new(proc), now, &mut freed);
        freed
    }

    #[test]
    fn flat_index_is_dense_and_ordered() {
        let set = example2();
        let f = FlatIndex::new(&set);
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
        assert_eq!(f.of(sid(0, 0)), 0);
        assert_eq!(f.of(sid(1, 0)), 1);
        assert_eq!(f.of(sid(1, 1)), 2);
        assert_eq!(f.of(sid(2, 0)), 3);
    }

    #[test]
    fn ds_always_releases() {
        let mut c = Controller::ds();
        let succ = JobId::new(sid(1, 1), 0);
        assert_eq!(
            c.on_predecessor_complete(succ, t(4)),
            CompletionDirective::ReleaseSuccessor
        );
        assert!(c.on_release(&example2(), succ, t(4)).is_none());
        assert!(idle_point(&mut c, 1, t(9)).is_empty());
    }

    #[test]
    fn pm_controller_is_inert_and_tracks_next_firings() {
        use rtsync_core::analysis::{sa_pm::analyze_pm, AnalysisConfig};
        let set = example2();
        let bounds = analyze_pm(&set, &AnalysisConfig::default()).unwrap();
        let phases = PmPhases::compute(&set, &bounds);
        let mut c = Controller::pm(phases.clone(), set.num_subtasks());
        let succ = JobId::new(sid(1, 1), 0);
        assert_eq!(
            c.on_predecessor_complete(succ, t(4)),
            CompletionDirective::Nothing
        );
        assert!(c.on_release(&set, succ, t(4)).is_none());
        assert_eq!(c.pm_phase(sid(1, 1)), phases.phase(sid(1, 1)));
        assert_eq!(*c.pm_next(2), 0);
        *c.pm_next(2) = 3;
        assert_eq!(*c.pm_next(2), 3);
    }

    #[test]
    fn mpm_schedules_timer_only_for_non_tail_subtasks() {
        use rtsync_core::analysis::{sa_pm::analyze_pm, AnalysisConfig};
        let set = example2();
        let bounds = analyze_pm(&set, &AnalysisConfig::default()).unwrap();
        let mut c = Controller::mpm(bounds, set.num_processors());
        // T1.0 has a successor: timer R_{1,0} = 4 after its release.
        let head = JobId::new(sid(1, 0), 0);
        assert_eq!(
            c.on_release(&set, head, t(0)),
            Some(ReleaseTimer::Mpm(Dur::from_ticks(4)))
        );
        // Chain tails schedule nothing.
        let tail = JobId::new(sid(1, 1), 0);
        assert!(c.on_release(&set, tail, t(4)).is_none());
        assert_eq!(
            c.on_predecessor_complete(tail, t(2)),
            CompletionDirective::Nothing
        );
        // The armed timer fires once.
        let p0 = set.subtask(head.subtask()).processor();
        assert!(c.fire_mpm_timer(p0, head));
        assert!(!c.fire_mpm_timer(p0, head));
    }

    #[test]
    fn mpm_crash_kills_armed_timers_and_their_successors() {
        use rtsync_core::analysis::{sa_pm::analyze_pm, AnalysisConfig};
        let set = example2();
        let bounds = analyze_pm(&set, &AnalysisConfig::default()).unwrap();
        let mut c = Controller::mpm(bounds, set.num_processors());
        let head = JobId::new(sid(1, 0), 0);
        let p0 = set.subtask(head.subtask()).processor();
        let _ = c.on_release(&set, head, t(0));
        let other = ProcessorId::new(1 - p0.index());
        assert!(c.on_crash(other, &set).is_empty());
        assert_eq!(c.on_crash(p0, &set), vec![JobId::new(sid(1, 1), 0)]);
        assert!(!c.fire_mpm_timer(p0, head), "the timer died with P{p0}");
    }

    #[test]
    fn rg_defers_and_frees_at_idle_point() {
        // Figure 7 flow on T1.1 (the paper's T2,2; period 6 on P1).
        let set = example2();
        let mut c = Controller::rg_with_guard_periods(&set, true, 0, |_, p| p);
        let j0 = JobId::new(sid(1, 1), 0);
        // First signal at 4: release immediately.
        assert_eq!(
            c.on_predecessor_complete(j0, t(4)),
            CompletionDirective::ReleaseSuccessor
        );
        // Rule 1, nothing deferred: no deadline.
        assert_eq!(
            c.on_release(&set, j0, t(4)),
            Some(ReleaseTimer::Guard(None))
        );
        // Second signal at 8: deferred until 10.
        let j1 = JobId::new(sid(1, 1), 1);
        assert_eq!(
            c.on_predecessor_complete(j1, t(8)),
            CompletionDirective::ScheduleExpiry { due: t(10) }
        );
        assert!(c.has_deferred(sid(1, 1), 1));
        // Idle point at 9 on P1 frees it, and its release clears the
        // deadline armed for 10.
        assert_eq!(idle_point(&mut c, 1, t(9)), vec![j1]);
        assert_eq!(
            c.on_release(&set, j1, t(9)),
            Some(ReleaseTimer::Guard(None))
        );
        assert!(!c.has_deferred(sid(1, 1), 1));
    }

    #[test]
    fn rg_guard_expiry_releases_head() {
        let set = example2();
        let mut c = Controller::rg_with_guard_periods(&set, true, 0, |_, p| p);
        let j0 = JobId::new(sid(1, 1), 0);
        assert_eq!(
            c.on_predecessor_complete(j0, t(0)),
            CompletionDirective::ReleaseSuccessor
        );
        let _ = c.on_release(&set, j0, t(0)); // guard = 6
        let j1 = JobId::new(sid(1, 1), 1);
        assert_eq!(
            c.on_predecessor_complete(j1, t(3)),
            CompletionDirective::ScheduleExpiry { due: t(6) }
        );
        assert_eq!(c.on_guard_expiry(sid(1, 1), t(6)), j1);
        // Release re-arms rule 1.
        let _ = c.on_release(&set, j1, t(6));
    }

    #[test]
    fn rg_clumped_signals_release_one_per_window() {
        let set = example2();
        let mut c = Controller::rg_with_guard_periods(&set, true, 0, |_, p| p);
        let sub = sid(1, 1);
        let j = |m| JobId::new(sub, m);
        assert_eq!(
            c.on_predecessor_complete(j(0), t(0)),
            CompletionDirective::ReleaseSuccessor
        );
        let _ = c.on_release(&set, j(0), t(0)); // guard 6

        // Three clumped signals, all due at the head's expiry.
        for m in 1..=3 {
            assert_eq!(
                c.on_predecessor_complete(j(m), t(m as i64)),
                CompletionDirective::ScheduleExpiry { due: t(6) }
            );
        }
        // One per window, in offer order.
        assert_eq!(c.on_guard_expiry(sub, t(6)), j(1));
        assert_eq!(
            c.on_release(&set, j(1), t(6)),
            Some(ReleaseTimer::Guard(Some(t(12))))
        );
        assert_eq!(c.on_guard_expiry(sub, t(12)), j(2));
        assert_eq!(
            c.on_release(&set, j(2), t(12)),
            Some(ReleaseTimer::Guard(Some(t(18))))
        );
        assert_eq!(c.on_guard_expiry(sub, t(18)), j(3));
        assert_eq!(
            c.on_release(&set, j(3), t(18)),
            Some(ReleaseTimer::Guard(None))
        );
    }

    #[test]
    fn rg_idle_point_only_touches_its_processor() {
        let set = example2();
        let mut c = Controller::rg_with_guard_periods(&set, true, 0, |_, p| p);
        let j1 = JobId::new(sid(1, 1), 0);
        let _ = c.on_predecessor_complete(j1, t(0));
        let _ = c.on_release(&set, j1, t(0)); // guard 6 on P1
        let j2 = JobId::new(sid(1, 1), 1);
        let _ = c.on_predecessor_complete(j2, t(1)); // deferred

        // Idle point on P0 must not free a P1 deferral.
        assert!(idle_point(&mut c, 0, t(2)).is_empty());
        assert_eq!(idle_point(&mut c, 1, t(2)), vec![j2]);
    }

    #[test]
    fn rg_crash_drops_deferrals_and_recovery_reopens_the_guard() {
        let set = example2();
        let mut c = Controller::rg_with_guard_periods(&set, true, 0, |_, p| p);
        let sub = sid(1, 1); // hosted on P1
        let j = |m| JobId::new(sub, m);
        let _ = c.on_predecessor_complete(j(0), t(0));
        let _ = c.on_release(&set, j(0), t(0)); // guard 6
        assert_eq!(
            c.on_predecessor_complete(j(1), t(2)),
            CompletionDirective::ScheduleExpiry { due: t(6) }
        );
        // Crash on the other processor touches nothing.
        assert!(c.on_crash(ProcessorId::new(0), &set).is_empty());
        // Crash on P1 drops the deferred instance.
        assert_eq!(c.on_crash(ProcessorId::new(1), &set), vec![j(1)]);
        assert!(!c.has_deferred(sub, 1));
        // Recovery at 8: guard re-initialized to now, so the next signal
        // releases immediately even though rule 1 had armed g = 6 → the
        // pre-crash guard value is gone.
        c.on_recovery(ProcessorId::new(1), t(8));
        assert_eq!(
            c.on_predecessor_complete(j(2), t(8)),
            CompletionDirective::ReleaseSuccessor
        );
    }

    #[test]
    fn rg_guard_period_matches_task_period() {
        // Guards inherit the parent task's period, exercised indirectly:
        // release at 0 defers the next signal until exactly period 6.
        let set = example2();
        let mut c = Controller::rg_with_guard_periods(&set, true, 0, |_, p| p);
        let j0 = JobId::new(sid(1, 1), 0);
        let _ = c.on_predecessor_complete(j0, t(0));
        let _ = c.on_release(&set, j0, t(0));
        assert_eq!(
            c.on_predecessor_complete(JobId::new(sid(1, 1), 1), t(5)),
            CompletionDirective::ScheduleExpiry { due: t(6) }
        );
    }
}
