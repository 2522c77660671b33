//! Effective-priority profiles for the Highest Locker protocol.
//!
//! While a job executes a critical section on resource `R` it runs at
//! `R`'s priority ceiling. A [`PriorityProfile`] captures this as a
//! piecewise-constant function of the job's *executed* ticks: ceilings
//! apply on `[cs.start, cs.end)`, the base priority elsewhere. Locks are
//! acquired by *executing* up to the section start — a job that has never
//! run holds nothing and must queue at its **base** priority (queueing
//! fresh jobs at a ceiling would let arbitrarily many lower-priority jobs
//! jump a queue and would break the blocked-at-most-once analysis).

use std::sync::Arc;

use rtsync_core::task::{Priority, Subtask, TaskSet};
use rtsync_core::time::Dur;

/// Piecewise-constant effective priority over executed ticks.
///
/// The change points are shared: every job released with a subtask's
/// profile clones it, and a clone bumps a reference count instead of
/// copying the points, so a release allocates nothing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PriorityProfile {
    /// The subtask's own (no-locks-held) priority — what a never-started
    /// job queues at.
    base: Priority,
    /// `(offset, priority)`: the job runs at `priority` from `offset`
    /// until the next point. The first point is at offset 0.
    points: Arc<[(Dur, Priority)]>,
}

impl PriorityProfile {
    /// A constant profile (no critical sections).
    pub fn flat(priority: Priority) -> PriorityProfile {
        PriorityProfile {
            base: priority,
            points: Arc::new([(Dur::ZERO, priority)]),
        }
    }

    /// Builds the HLP profile of a subtask: its base priority, raised to
    /// each resource's ceiling inside the corresponding critical section
    /// (only where the ceiling is strictly higher than the base).
    pub fn for_subtask(set: &TaskSet, sub: &Subtask) -> PriorityProfile {
        let base = sub.priority();
        let mut points = vec![(Dur::ZERO, base)];
        let mut sections: Vec<_> = sub.critical_sections().to_vec();
        sections.sort_by_key(|cs| cs.start);
        for cs in sections {
            let ceiling = set
                .resource_ceiling(cs.resource)
                .expect("a resource with a section has a ceiling");
            if !ceiling.is_higher_than(base) {
                continue; // the base already dominates; no visible change
            }
            push_point(&mut points, cs.start, ceiling);
            if cs.end() < sub.execution() {
                push_point(&mut points, cs.end(), base);
            }
        }
        PriorityProfile {
            base,
            points: points.into(),
        }
    }

    /// The subtask's own priority with no locks held — the level a job
    /// that has never executed queues at.
    pub fn base(&self) -> Priority {
        self.base
    }

    /// The effective priority after `executed` ticks of execution.
    pub fn at(&self, executed: Dur) -> Priority {
        self.points
            .iter()
            .take_while(|&&(off, _)| off <= executed)
            .last()
            .expect("profiles start at offset 0")
            .1
    }

    /// The next offset strictly beyond `executed` where the effective
    /// priority changes, if any.
    pub fn next_change_after(&self, executed: Dur) -> Option<Dur> {
        self.points
            .iter()
            .map(|&(off, _)| off)
            .find(|&off| off > executed)
    }

    /// `true` if the profile never changes (no effective sections).
    pub fn is_flat(&self) -> bool {
        self.points.len() == 1
    }
}

fn push_point(points: &mut Vec<(Dur, Priority)>, offset: Dur, priority: Priority) {
    if let Some(last) = points.last_mut() {
        if last.0 == offset {
            last.1 = priority;
            // Overwriting may have made this point redundant against the
            // one before it (back-to-back sections on one resource).
            if points.len() >= 2 && points[points.len() - 2].1 == priority {
                points.pop();
            }
            return;
        }
        if last.1 == priority {
            return; // no visible change
        }
    }
    points.push((offset, priority));
}

#[cfg(test)]
impl PriorityProfile {
    /// Test helper: append a change point.
    pub(crate) fn push_change(&mut self, offset: Dur, priority: Priority) {
        let mut points = self.points.to_vec();
        push_point(&mut points, offset, priority);
        self.points = points.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsync_core::task::{SubtaskId, TaskId, TaskSet};

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    fn system() -> TaskSet {
        TaskSet::builder(1)
            .task(d(50))
            .subtask(0, d(5), Priority::new(0))
            .critical_section(0, d(1), d(2))
            .finish_task()
            .task(d(80))
            .subtask(0, d(10), Priority::new(2))
            .critical_section(0, d(2), d(6))
            .finish_task()
            .build()
            .unwrap()
    }

    #[test]
    fn flat_profile() {
        let p = PriorityProfile::flat(Priority::new(3));
        assert!(p.is_flat());
        assert_eq!(p.base(), Priority::new(3));
        assert_eq!(p.at(d(0)), Priority::new(3));
        assert_eq!(p.at(d(100)), Priority::new(3));
        assert_eq!(p.next_change_after(d(0)), None);
    }

    #[test]
    fn low_priority_user_is_raised_inside_its_section() {
        let set = system();
        let low = set.subtask(SubtaskId::new(TaskId::new(1), 0));
        let p = PriorityProfile::for_subtask(&set, low);
        assert_eq!(p.base(), Priority::new(2));
        assert_eq!(p.at(d(0)), Priority::new(2));
        assert_eq!(p.at(d(1)), Priority::new(2));
        // Ceiling (priority 0, from the high-priority user) on [2, 8).
        assert_eq!(p.at(d(2)), Priority::new(0));
        assert_eq!(p.at(d(7)), Priority::new(0));
        assert_eq!(p.at(d(8)), Priority::new(2));
        assert_eq!(p.next_change_after(d(0)), Some(d(2)));
        assert_eq!(p.next_change_after(d(2)), Some(d(8)));
        assert_eq!(p.next_change_after(d(8)), None);
        assert!(!p.is_flat());
    }

    #[test]
    fn ceiling_equal_to_base_is_invisible() {
        // The high-priority subtask IS the ceiling: its own section changes
        // nothing.
        let set = system();
        let high = set.subtask(SubtaskId::new(TaskId::new(0), 0));
        let p = PriorityProfile::for_subtask(&set, high);
        assert!(p.is_flat());
    }

    #[test]
    fn section_at_offset_zero_and_to_the_end() {
        let set = TaskSet::builder(1)
            .task(d(50))
            .subtask(0, d(4), Priority::new(0))
            .critical_section(0, d(1), d(1))
            .finish_task()
            .task(d(80))
            .subtask(0, d(6), Priority::new(1))
            .critical_section(0, d(0), d(6)) // spans the whole execution
            .finish_task()
            .build()
            .unwrap();
        let low = set.subtask(SubtaskId::new(TaskId::new(1), 0));
        let p = PriorityProfile::for_subtask(&set, low);
        // Raised from offset 0, never returns to base (section ends at c).
        assert_eq!(p.at(d(0)), Priority::new(0));
        assert_eq!(p.at(d(5)), Priority::new(0));
        assert_eq!(p.next_change_after(d(0)), None);
        // The base stays the subtask's own priority even though a section
        // overwrites the offset-0 effective level: a never-started job
        // holds no lock and must queue at its base.
        assert_eq!(p.base(), Priority::new(1));
    }

    #[test]
    fn adjacent_sections_merge_cleanly() {
        let set = TaskSet::builder(1)
            .task(d(50))
            .subtask(0, d(2), Priority::new(0))
            .critical_section(0, d(0), d(1))
            .finish_task()
            .task(d(80))
            .subtask(0, d(10), Priority::new(1))
            .critical_section(0, d(2), d(2))
            .critical_section(0, d(4), d(2)) // back-to-back on the same resource
            .finish_task()
            .build()
            .unwrap();
        let low = set.subtask(SubtaskId::new(TaskId::new(1), 0));
        let p = PriorityProfile::for_subtask(&set, low);
        assert_eq!(p.at(d(3)), Priority::new(0));
        assert_eq!(p.at(d(5)), Priority::new(0));
        assert_eq!(p.at(d(6)), Priority::new(1));
        // One raise, one drop: intermediate "drop then raise at the same
        // offset" collapses.
        assert_eq!(p.next_change_after(d(2)), Some(d(6)));
    }
}
