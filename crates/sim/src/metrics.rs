//! Per-task end-to-end response-time statistics collected during a
//! simulation: average/extreme EER times, output jitter, deadline misses.
//!
//! The *EER time* of instance `m` of a task is the completion time of its
//! last subtask's instance `m` minus the release time of its first
//! subtask's instance `m`. The *output jitter* is the difference between
//! the EER times of two consecutive instances (§2 of the paper).

use rtsync_core::task::{SubtaskId, TaskId};
use rtsync_core::time::{Dur, Time};

use crate::histogram::EerHistogram;

/// Accumulated statistics for one task.
#[derive(Clone, Default, Debug)]
pub struct TaskStats {
    released: u64,
    completed: u64,
    measured: u64,
    eer_sum: i128,
    eer_max: Option<Dur>,
    eer_min: Option<Dur>,
    max_output_jitter: Dur,
    deadline_misses: u64,
    orphan_completions: u64,
    lost: u64,
    last_eer: Option<Dur>,
    histogram: EerHistogram,
    /// First-subtask release times, indexed by instance.
    first_release: Vec<Time>,
}

impl TaskStats {
    /// Instances of the first subtask released so far.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// End-to-end completed instances.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Mean EER time over *measured* completions (those past the warm-up
    /// window), `None` before the first one.
    pub fn avg_eer(&self) -> Option<f64> {
        (self.measured > 0).then(|| self.eer_sum as f64 / self.measured as f64)
    }

    /// Completions contributing to the EER statistics (excludes warm-up).
    pub fn measured(&self) -> u64 {
        self.measured
    }

    /// Largest observed EER time.
    pub fn max_eer(&self) -> Option<Dur> {
        self.eer_max
    }

    /// Smallest observed EER time.
    pub fn min_eer(&self) -> Option<Dur> {
        self.eer_min
    }

    /// Largest observed difference between consecutive EER times.
    pub fn max_output_jitter(&self) -> Dur {
        self.max_output_jitter
    }

    /// End-to-end deadline misses among completed instances.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Completions of instances whose first subtask was never released —
    /// only possible when a protocol violated precedence (PM under
    /// sporadic sources). Excluded from the EER statistics.
    pub fn orphan_completions(&self) -> u64 {
        self.orphan_completions
    }

    /// End-to-end instances that can never complete: a processor crash
    /// killed (or an overload policy dropped) some subtask instance on the
    /// critical path. Lost instances are excluded from the EER mean — an
    /// instance with no completion has no response time — but are first-
    /// class in availability accounting: see
    /// [`TaskStats::miss_or_loss_ratio`]. Always zero in fault-free runs.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// `(deadline misses + lost instances) / (measured + lost)`: the
    /// fraction of accounted instances that failed to produce a timely
    /// result. Equals the plain miss ratio when nothing was lost; `None`
    /// when nothing was accounted at all.
    pub fn miss_or_loss_ratio(&self) -> Option<f64> {
        let denom = self.measured + self.lost;
        (denom > 0).then(|| (self.deadline_misses + self.lost) as f64 / denom as f64)
    }

    /// The recorded release time of instance `instance` of the first
    /// subtask, if it was released.
    pub fn first_release_time(&self, instance: u64) -> Option<Time> {
        self.first_release.get(instance as usize).copied()
    }

    /// An upper bound (within 6.25%) on the `q`-quantile of measured EER
    /// times, `q ∈ (0, 1]` — e.g. `eer_quantile(0.99)` for the p99.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn eer_quantile(&self, q: f64) -> Option<Dur> {
        self.histogram.quantile(q)
    }
}

/// Per-subtask response statistics (release of the subtask's own instance
/// to its completion — the paper's `R_{i,j}` observed empirically).
#[derive(Clone, Copy, Default, Debug)]
pub struct SubtaskStats {
    completed: u64,
    response_sum: i128,
    response_max: Option<Dur>,
}

impl SubtaskStats {
    /// Completed instances of this subtask.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Mean observed response time, `None` before the first completion.
    pub fn avg_response(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.response_sum as f64 / self.completed as f64)
    }

    /// Largest observed response time.
    pub fn max_response(&self) -> Option<Dur> {
        self.response_max
    }
}

/// Statistics for every task in a simulated system.
#[derive(Clone, Debug)]
pub struct Metrics {
    tasks: Vec<TaskStats>,
    /// Flat per-subtask rows, `[task][chain index]`.
    subtasks: Vec<Vec<SubtaskStats>>,
    /// The smallest resolved count (completed + lost) over all tasks,
    /// kept up to date as counts grow: the engine reads it after every
    /// event.
    min_resolved: u64,
    /// How many tasks sit at `min_resolved`.
    at_min: usize,
}

impl Metrics {
    /// Creates empty metrics with one row per task and the given chain
    /// lengths.
    pub fn with_chains(chain_lens: &[usize]) -> Metrics {
        Metrics {
            tasks: vec![TaskStats::default(); chain_lens.len()],
            subtasks: chain_lens
                .iter()
                .map(|&n| vec![SubtaskStats::default(); n])
                .collect(),
            min_resolved: 0,
            at_min: chain_lens.len(),
        }
    }

    /// Creates empty metrics for `num_tasks` single-subtask tasks (tests;
    /// the engine uses [`Metrics::with_chains`]).
    pub fn new(num_tasks: usize) -> Metrics {
        Metrics::with_chains(&vec![1; num_tasks])
    }

    /// One subtask's observed response statistics.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn subtask(&self, id: SubtaskId) -> &SubtaskStats {
        &self.subtasks[id.task().index()][id.index()]
    }

    /// Records one subtask instance's response time (its own release to
    /// its own completion).
    pub fn record_subtask_response(&mut self, id: SubtaskId, response: Dur) {
        let s = &mut self.subtasks[id.task().index()][id.index()];
        s.completed += 1;
        s.response_sum += response.ticks() as i128;
        s.response_max = Some(s.response_max.map_or(response, |m| m.max(response)));
    }

    /// One task's statistics.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &TaskStats {
        &self.tasks[id.index()]
    }

    /// All per-task statistics, indexed by [`TaskId::index`].
    pub fn tasks(&self) -> &[TaskStats] {
        &self.tasks
    }

    /// The smallest completed-instance count over all tasks (used by the
    /// engine's stop criterion).
    pub fn min_completed(&self) -> u64 {
        self.tasks.iter().map(|t| t.completed).min().unwrap_or(0)
    }

    /// The smallest *resolved* instance count over all tasks, where an
    /// instance is resolved once it either completed end-to-end or was
    /// declared lost to a crash/overload drop. This is the stop criterion
    /// under faults: a killed instance never completes, and waiting for it
    /// would spin the engine to the horizon. Identical to
    /// [`Metrics::min_completed`] when nothing was lost.
    pub fn min_resolved(&self) -> u64 {
        debug_assert_eq!(
            self.min_resolved,
            self.tasks
                .iter()
                .map(|t| t.completed + t.lost)
                .min()
                .unwrap_or(0),
            "running minimum out of sync"
        );
        self.min_resolved
    }

    /// Moves the running minimum after `task` resolved one more
    /// instance. Counts only grow, so the minimum rises only when the
    /// last task at it moves up, and then by exactly one level.
    fn resolved_one(&mut self, task: usize) {
        let resolved = self.tasks[task].completed + self.tasks[task].lost;
        if resolved - 1 != self.min_resolved {
            return;
        }
        self.at_min -= 1;
        if self.at_min == 0 {
            self.min_resolved += 1;
            self.at_min = self
                .tasks
                .iter()
                .filter(|t| t.completed + t.lost == self.min_resolved)
                .count();
        }
    }

    /// Total deadline misses across tasks.
    pub fn total_deadline_misses(&self) -> u64 {
        self.tasks.iter().map(|t| t.deadline_misses).sum()
    }

    /// Total lost instances across tasks (see [`TaskStats::lost`]).
    pub fn total_lost(&self) -> u64 {
        self.tasks.iter().map(|t| t.lost).sum()
    }

    /// Declares instance `instance` of `task` lost: some subtask instance
    /// on its critical path was killed by a crash or dropped by an
    /// overload policy, so the end-to-end completion will never happen.
    pub fn record_instance_lost(&mut self, task: TaskId) {
        self.tasks[task.index()].lost += 1;
        self.resolved_one(task.index());
    }

    /// Records the release of instance `instance` of a task's **first**
    /// subtask.
    ///
    /// # Panics
    ///
    /// Panics if instances are recorded out of order (engine bug).
    pub fn record_first_release(&mut self, task: TaskId, instance: u64, time: Time) {
        let stats = &mut self.tasks[task.index()];
        assert_eq!(
            stats.first_release.len() as u64,
            instance,
            "first-subtask releases of {task} out of order"
        );
        stats.first_release.push(time);
        stats.released += 1;
    }

    /// Records the end-to-end completion of instance `instance` of a task
    /// (its **last** subtask completed at `time`); `deadline` is the task's
    /// relative deadline for miss accounting.
    ///
    /// A completion whose first-subtask release was never recorded (only
    /// possible after a precedence violation) is counted as an *orphan*
    /// and excluded from the EER statistics. With `record_stats: false`
    /// (warm-up instances) the completion counts toward `completed` but
    /// not toward the EER/jitter/miss statistics.
    ///
    /// Returns `Some(missed)` for a measured completion — whether this
    /// instance missed its end-to-end deadline — and `None` for orphan or
    /// warm-up completions that carry no miss verdict. The engine's
    /// deadline watchdog feeds on this return value.
    pub fn record_task_completion(
        &mut self,
        task: TaskId,
        instance: u64,
        time: Time,
        deadline: Dur,
        record_stats: bool,
    ) -> Option<bool> {
        let stats = &mut self.tasks[task.index()];
        let Some(&released) = stats.first_release.get(instance as usize) else {
            stats.orphan_completions += 1;
            return None;
        };
        let eer = time - released;
        stats.completed += 1;
        self.resolved_one(task.index());
        let stats = &mut self.tasks[task.index()];
        if !record_stats {
            return None;
        }
        stats.measured += 1;
        stats.eer_sum += eer.ticks() as i128;
        stats.histogram.record(eer);
        stats.eer_max = Some(stats.eer_max.map_or(eer, |m| m.max(eer)));
        stats.eer_min = Some(stats.eer_min.map_or(eer, |m| m.min(eer)));
        if let Some(prev) = stats.last_eer {
            let jitter = if eer >= prev { eer - prev } else { prev - eer };
            stats.max_output_jitter = stats.max_output_jitter.max(jitter);
        }
        stats.last_eer = Some(eer);
        let missed = eer > deadline;
        if missed {
            stats.deadline_misses += 1;
        }
        Some(missed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn eer_accounting() {
        let mut m = Metrics::new(2);
        let task = TaskId::new(0);
        m.record_first_release(task, 0, t(0));
        m.record_first_release(task, 1, t(10));
        m.record_task_completion(task, 0, t(7), d(8), true);
        m.record_task_completion(task, 1, t(13), d(8), true);
        let s = m.task(task);
        assert_eq!(s.released(), 2);
        assert_eq!(s.completed(), 2);
        assert_eq!(s.avg_eer(), Some(5.0)); // (7 + 3) / 2
        assert_eq!(s.max_eer(), Some(d(7)));
        assert_eq!(s.min_eer(), Some(d(3)));
        assert_eq!(s.max_output_jitter(), d(4));
        assert_eq!(s.deadline_misses(), 0);
    }

    #[test]
    fn deadline_misses_counted_strictly() {
        let mut m = Metrics::new(1);
        let task = TaskId::new(0);
        m.record_first_release(task, 0, t(0));
        m.record_first_release(task, 1, t(10));
        let hit = m.record_task_completion(task, 0, t(8), d(8), true); // exactly met
        let miss = m.record_task_completion(task, 1, t(19), d(8), true); // missed
        assert_eq!(hit, Some(false));
        assert_eq!(miss, Some(true));
        assert_eq!(m.task(task).deadline_misses(), 1);
        assert_eq!(m.total_deadline_misses(), 1);
    }

    #[test]
    fn subtask_response_accounting() {
        let mut m = Metrics::with_chains(&[2]);
        let id = SubtaskId::new(TaskId::new(0), 1);
        m.record_subtask_response(id, d(4));
        m.record_subtask_response(id, d(6));
        let s = m.subtask(id);
        assert_eq!(s.completed(), 2);
        assert_eq!(s.avg_response(), Some(5.0));
        assert_eq!(s.max_response(), Some(d(6)));
        let other = m.subtask(SubtaskId::new(TaskId::new(0), 0));
        assert_eq!(other.completed(), 0);
        assert_eq!(other.avg_response(), None);
        assert_eq!(other.max_response(), None);
    }

    #[test]
    fn quantiles_from_measured_completions() {
        let mut m = Metrics::new(1);
        let task = TaskId::new(0);
        for i in 0..10u64 {
            m.record_first_release(task, i, t(i as i64 * 100));
            // EER times 1..=10.
            m.record_task_completion(task, i, t(i as i64 * 100 + i as i64 + 1), d(50), true);
        }
        let s = m.task(task);
        assert_eq!(s.eer_quantile(1.0), Some(d(10)));
        assert_eq!(s.eer_quantile(0.1), Some(d(1)));
        let median = s.eer_quantile(0.5).unwrap();
        assert!(median >= d(5) && median <= d(6), "{median}");
        let empty = Metrics::new(1);
        assert_eq!(empty.task(task).eer_quantile(0.5), None);
    }

    #[test]
    fn warmup_completions_count_but_do_not_measure() {
        let mut m = Metrics::new(1);
        let task = TaskId::new(0);
        m.record_first_release(task, 0, t(0));
        m.record_first_release(task, 1, t(10));
        let warmup = m.record_task_completion(task, 0, t(9), d(5), false); // warm-up, missed
        assert_eq!(warmup, None, "warm-up completions carry no miss verdict");
        m.record_task_completion(task, 1, t(13), d(5), true);
        let s = m.task(task);
        assert_eq!(s.completed(), 2);
        assert_eq!(s.measured(), 1);
        assert_eq!(s.avg_eer(), Some(3.0));
        assert_eq!(s.max_eer(), Some(d(3)));
        // The warm-up miss is not counted.
        assert_eq!(s.deadline_misses(), 0);
    }

    #[test]
    fn min_completed_over_tasks() {
        let mut m = Metrics::new(2);
        m.record_first_release(TaskId::new(0), 0, t(0));
        m.record_task_completion(TaskId::new(0), 0, t(1), d(5), true);
        assert_eq!(m.min_completed(), 0);
        m.record_first_release(TaskId::new(1), 0, t(0));
        m.record_task_completion(TaskId::new(1), 0, t(2), d(5), true);
        assert_eq!(m.min_completed(), 1);
    }

    #[test]
    fn running_min_resolved_follows_the_slowest_task() {
        // Three tasks resolve at uneven paces, by completion and by loss;
        // after every step the running minimum equals a fresh scan (the
        // debug assertion inside `min_resolved` checks that too).
        let mut m = Metrics::new(3);
        let scan = |m: &Metrics| {
            m.tasks()
                .iter()
                .map(|t| t.completed() + t.lost())
                .min()
                .unwrap()
        };
        let mut next = [0u64; 3]; // first releases per task
        for (step, &task) in [0, 0, 1, 2, 2, 2, 1, 0, 1, 1, 2, 0].iter().enumerate() {
            let id = TaskId::new(task);
            if step % 3 == 2 {
                m.record_instance_lost(id);
            } else {
                m.record_first_release(id, next[task], t(step as i64));
                m.record_task_completion(id, next[task], t(step as i64 + 1), d(5), true);
                next[task] += 1;
            }
            assert_eq!(m.min_resolved(), scan(&m), "after step {step}");
        }
        assert_eq!(m.min_resolved(), 4);
        assert_eq!(
            Metrics::new(0).min_resolved(),
            0,
            "no tasks: nothing to wait for"
        );
    }

    #[test]
    fn lost_instances_resolve_but_do_not_complete() {
        let mut m = Metrics::new(2);
        let t0 = TaskId::new(0);
        let t1 = TaskId::new(1);
        m.record_first_release(t0, 0, t(0));
        m.record_task_completion(t0, 0, t(7), d(8), true);
        m.record_first_release(t1, 0, t(0));
        m.record_instance_lost(t1);
        assert_eq!(m.min_completed(), 0, "t1 never completed");
        assert_eq!(m.min_resolved(), 1, "but its instance is resolved");
        assert_eq!(m.total_lost(), 1);
        let s = m.task(t1);
        assert_eq!(s.lost(), 1);
        assert_eq!(s.avg_eer(), None, "lost instances carry no EER");
        assert_eq!(s.miss_or_loss_ratio(), Some(1.0));
        // A task with one timely completion and one loss: ratio 1/2.
        m.record_first_release(t1, 1, t(10));
        m.record_task_completion(t1, 1, t(13), d(8), true);
        assert_eq!(m.task(t1).miss_or_loss_ratio(), Some(0.5));
        assert_eq!(m.task(t0).miss_or_loss_ratio(), Some(0.0));
        assert_eq!(m.task(t0).first_release_time(0), Some(t(0)));
        assert_eq!(m.task(t0).first_release_time(9), None);
    }

    #[test]
    fn empty_stats_are_none() {
        let m = Metrics::new(1);
        let s = m.task(TaskId::new(0));
        assert_eq!(s.avg_eer(), None);
        assert_eq!(s.max_eer(), None);
        assert_eq!(s.min_eer(), None);
        assert_eq!(s.max_output_jitter(), Dur::ZERO);
        assert_eq!(m.tasks().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_release_panics() {
        let mut m = Metrics::new(1);
        m.record_first_release(TaskId::new(0), 1, t(0));
    }

    #[test]
    fn completion_without_release_counts_as_orphan() {
        let mut m = Metrics::new(1);
        let verdict = m.record_task_completion(TaskId::new(0), 0, t(1), d(5), true);
        assert_eq!(verdict, None, "orphans carry no miss verdict");
        let s = m.task(TaskId::new(0));
        assert_eq!(s.orphan_completions(), 1);
        assert_eq!(s.completed(), 0);
        assert_eq!(s.avg_eer(), None);
        assert_eq!(s.deadline_misses(), 0);
    }
}
