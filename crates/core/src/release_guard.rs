//! The release-guard state machine of the RG protocol (§3.2).
//!
//! For each subtask `T_{i,j}` (with `j > 1`) the scheduler of its host
//! processor keeps a variable `g_{i,j}`, the *release guard*: the earliest
//! instant the next instance of the subtask may be released. Two update
//! rules:
//!
//! 1. when an instance of `T_{i,j}` is released, `g_{i,j} ← now + p_i`;
//! 2. at an *idle point* of the processor (an instant by which every
//!    instance released before it has completed), `g_{i,j} ← now`.
//!
//! When the completion signal for a predecessor instance arrives at `t`,
//! the instance is released at `max(t, g_{i,j})` — immediately if the
//! guard has passed, otherwise deferred. Because predecessor completions
//! can clump (that is the whole point of the protocol), several signals may
//! arrive within one guard window; deferred instances queue FIFO and are
//! released one per guard window (or early, at idle points).
//!
//! [`ReleaseGuard`] is a pure, event-driven state machine: a simulator or a
//! real scheduler feeds it signals, guard expiries and idle points, and
//! acts on the returned decisions. The guard holds the deferred instance
//! numbers itself and hands each one back when it becomes releasable. At
//! most one expiry is ever due per guard, so the caller keeps **one**
//! deadline armed for [`ReleaseGuard::next_expiry`]: after every call that
//! defers, releases or drops an instance it re-arms that deadline, or
//! clears it when `next_expiry` is `None`. A deadline kept that way is
//! always current, so [`ReleaseGuard::take_due`] releases the head when it
//! fires.
//!
//! # Examples
//!
//! The `T_{2,2}` guard of the paper's Figure 7: first instance released at
//! 4 (guard → 10); the second signal arrives at 8 and is deferred; the
//! processor idles at 9, lowering the guard, and the deferred instance is
//! released at 9.
//!
//! ```
//! use rtsync_core::release_guard::{GuardDecision, ReleaseGuard};
//! use rtsync_core::time::{Dur, Time};
//!
//! let mut g = ReleaseGuard::new(Dur::from_ticks(6));
//! let t = Time::from_ticks;
//!
//! assert_eq!(g.offer(t(4), 0), GuardDecision::ReleaseNow);
//! g.on_release(t(4)); // rule 1: guard = 10
//! assert_eq!(g.offer(t(8), 1), GuardDecision::DeferUntil(t(10)));
//! assert_eq!(g.next_expiry(), Some(t(10)));
//! assert_eq!(g.on_idle_point(t(9)), Some(1)); // rule 2 frees instance 1 at 9
//! g.on_release(t(9));
//! assert_eq!(g.guard(), t(15));
//! assert_eq!(g.next_expiry(), None);
//! ```

use std::collections::{vec_deque, VecDeque};
use std::fmt;

use crate::time::{Dur, Time};

/// What to do with a predecessor-completion signal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GuardDecision {
    /// The guard has passed and nothing is queued: release the instance
    /// now (then call [`ReleaseGuard::on_release`]).
    ReleaseNow,
    /// The instance became the queue head; it is due at the given instant —
    /// arm the guard's deadline for it (see [`ReleaseGuard::next_expiry`]).
    DeferUntil(Time),
    /// The instance queued behind earlier deferred instances; the
    /// deadline armed for the head still stands.
    Queued,
}

/// Release-guard state for **one** subtask.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReleaseGuard {
    period: Dur,
    guard: Time,
    /// Instance numbers of deferred, not-yet-released instances (FIFO).
    pending: VecDeque<u64>,
    /// Instant of the most recent release (rule 1 application).
    armed_at: Option<Time>,
}

impl ReleaseGuard {
    /// Creates the guard for a subtask of the given period. Initially
    /// `g = 0` so the first instance is never delayed (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not strictly positive.
    pub fn new(period: Dur) -> ReleaseGuard {
        assert!(
            period.is_positive(),
            "release guard needs a positive period"
        );
        ReleaseGuard {
            period,
            guard: Time::ZERO,
            pending: VecDeque::new(),
            armed_at: None,
        }
    }

    /// The current guard value `g_{i,j}`.
    pub fn guard(&self) -> Time {
        self.guard
    }

    /// The subtask's period.
    pub fn period(&self) -> Dur {
        self.period
    }

    /// Number of deferred instances waiting on the guard.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// `true` if `instance` is deferred behind the guard.
    pub fn is_deferred(&self, instance: u64) -> bool {
        self.pending.contains(&instance)
    }

    /// When the queue head comes due: the one deadline the caller keeps
    /// armed while any instance is deferred, `None` when none is.
    pub fn next_expiry(&self) -> Option<Time> {
        (!self.pending.is_empty()).then_some(self.guard)
    }

    /// The predecessor-completion signal for `instance` arrives at `now`.
    pub fn offer(&mut self, now: Time, instance: u64) -> GuardDecision {
        if self.pending.is_empty() && now >= self.guard {
            return GuardDecision::ReleaseNow;
        }
        self.pending.push_back(instance);
        if self.pending.len() == 1 {
            GuardDecision::DeferUntil(self.guard)
        } else {
            GuardDecision::Queued
        }
    }

    /// Rule 1: an instance was released at `now`; `g ← now + period`.
    /// The head, if any, now comes due at the new guard.
    pub fn on_release(&mut self, now: Time) {
        self.guard = now + self.period;
        self.armed_at = Some(now);
    }

    /// Rule 2: `now` is an idle point of the host processor; `g ← now`
    /// (the paper's literal rule — raising a guard that is already in the
    /// past is harmless, since future signals arrive at ≥ `now`). Returns
    /// the deferred head if it becomes releasable *now*: the caller must
    /// release it and call [`ReleaseGuard::on_release`].
    ///
    /// When an instance of this subtask was released at this very instant,
    /// rule 1 wins and the idle point leaves the guard armed: the two
    /// rules' outcome is then independent of the order the instant's
    /// events are processed in, and releases inside one busy period stay
    /// at least a period apart — the property the SA/PM bounds (Theorem 1)
    /// rest on. (The busy period around `now` begins *with* that release;
    /// the idle point marks the end of the previous one.)
    pub fn on_idle_point(&mut self, now: Time) -> Option<u64> {
        if self.armed_at == Some(now) {
            return None; // rule 1 at the same instant takes precedence
        }
        self.guard = now;
        self.pending.pop_front()
    }

    /// Fail-stop crash of the host processor: every deferred signal dies
    /// with the node. Returns the deferred instances, oldest first, so the
    /// caller can account each one and clear the guard's deadline. The
    /// guard value itself is left alone — it is re-derived at recovery by
    /// [`ReleaseGuard::reinitialize`].
    pub fn on_crash(&mut self) -> vec_deque::Drain<'_, u64> {
        self.armed_at = None;
        self.pending.drain(..)
    }

    /// Recovery rule: `g ← now`. A processor that just rejoined holds no
    /// released-incomplete instances, so the recovery instant is an idle
    /// point in the paper's sense and rule 2 applies literally — the guard
    /// must not carry a pre-crash value forward (a stale `g` in the future
    /// would delay the first post-recovery release for no reason; one in
    /// the past is merely raised to `now`, which is harmless because
    /// future signals arrive at ≥ `now`).
    pub fn reinitialize(&mut self, now: Time) {
        self.guard = now;
        self.pending.clear();
        self.armed_at = None;
    }

    /// The guard's deadline fired at `now`. Returns the deferred head if
    /// one is due: the caller releases it and calls
    /// [`ReleaseGuard::on_release`]. `None` if nothing is deferred or the
    /// guard has not passed yet.
    pub fn take_due(&mut self, now: Time) -> Option<u64> {
        if now < self.guard {
            return None;
        }
        self.pending.pop_front()
    }
}

impl fmt::Display for ReleaseGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "guard@{}", self.guard.ticks())?;
        if !self.pending.is_empty() {
            write!(f, " ({} pending)", self.pending.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    fn guard6() -> ReleaseGuard {
        ReleaseGuard::new(Dur::from_ticks(6))
    }

    #[test]
    fn first_instance_is_never_delayed() {
        let mut g = guard6();
        assert_eq!(g.guard(), Time::ZERO);
        assert_eq!(g.offer(t(0), 0), GuardDecision::ReleaseNow);
        assert_eq!(g.offer(t(3), 1), GuardDecision::ReleaseNow);
        assert_eq!(g.next_expiry(), None);
    }

    #[test]
    fn rule1_spaces_releases_by_the_period() {
        let mut g = guard6();
        g.on_release(t(4));
        assert_eq!(g.guard(), t(10));
        // Early signal at 8 is deferred to 10.
        assert_eq!(g.offer(t(8), 1), GuardDecision::DeferUntil(t(10)));
        assert_eq!(g.next_expiry(), Some(t(10)));
        // The deferral becomes due at 10.
        assert_eq!(g.take_due(t(10)), Some(1));
        g.on_release(t(10));
        assert_eq!(g.guard(), t(16));
        assert_eq!(g.next_expiry(), None);
    }

    #[test]
    fn figure7_idle_point_releases_pending_early() {
        // The exact §3.2 walk-through: release at 4 → guard 10; signal at 8
        // deferred; idle point at 9 lowers the guard and frees the pending
        // instance at 9.
        let mut g = guard6();
        assert_eq!(g.offer(t(4), 0), GuardDecision::ReleaseNow);
        g.on_release(t(4));
        let d = g.offer(t(8), 1);
        assert_eq!(d, GuardDecision::DeferUntil(t(10)));
        assert_eq!(g.on_idle_point(t(9)), Some(1));
        g.on_release(t(9));
        assert_eq!(g.guard(), t(15));
        // Nothing is left for the deadline once armed for 10: the caller
        // clears it, and a late firing finds nothing to release.
        assert_eq!(g.next_expiry(), None);
        assert_eq!(g.take_due(t(10)), None);
    }

    #[test]
    fn clumped_signals_queue_fifo() {
        let mut g = guard6();
        g.on_release(t(0)); // guard 6
        assert_eq!(g.offer(t(1), 1), GuardDecision::DeferUntil(t(6)));
        assert_eq!(g.offer(t(2), 2), GuardDecision::Queued);
        assert_eq!(g.offer(t(3), 3), GuardDecision::Queued);
        assert_eq!(g.pending_len(), 3);
        // Head due at 6.
        assert_eq!(g.next_expiry(), Some(t(6)));
        assert_eq!(g.take_due(t(6)), Some(1));
        g.on_release(t(6));
        // Guard 12: the next head waits for the *new* guard.
        assert_eq!(g.next_expiry(), Some(t(12)));
        assert_eq!(g.take_due(t(12)), Some(2));
        g.on_release(t(12));
        assert_eq!(g.pending_len(), 1);
        // Idle point releases the last one early.
        assert_eq!(g.on_idle_point(t(14)), Some(3));
        g.on_release(t(14));
        assert_eq!(g.pending_len(), 0);
        assert_eq!(g.next_expiry(), None);
    }

    #[test]
    fn idle_point_sets_guard_to_now() {
        let mut g = guard6();
        g.on_release(t(0)); // guard 6
        assert_eq!(g.on_idle_point(t(3)), None);
        assert_eq!(g.guard(), t(3));
        assert_eq!(g.on_idle_point(t(5)), None);
        assert_eq!(g.guard(), t(5)); // rule 2 is literal: g := now

        // Raising a past guard to now is harmless.
        let mut g2 = guard6();
        g2.on_release(t(10)); // guard 16
        g2.on_idle_point(t(20));
        assert_eq!(g2.guard(), t(20));
        assert_eq!(g2.offer(t(20), 0), GuardDecision::ReleaseNow);
    }

    #[test]
    fn rule1_wins_over_a_same_instant_idle_point() {
        let mut g = guard6();
        g.on_release(t(4)); // guard 10
        assert_eq!(g.offer(t(4), 1), GuardDecision::DeferUntil(t(10)));
        assert_eq!(g.on_idle_point(t(4)), None, "rule 1 at 4 stands");
        assert_eq!(g.guard(), t(10));
        assert_eq!(g.next_expiry(), Some(t(10)));
    }

    #[test]
    fn late_signal_releases_immediately() {
        let mut g = guard6();
        g.on_release(t(0)); // guard 6
        assert_eq!(g.offer(t(7), 1), GuardDecision::ReleaseNow);
        assert_eq!(g.offer(t(6), 2), GuardDecision::ReleaseNow, "boundary");
    }

    #[test]
    fn signal_behind_nonempty_queue_defers_even_after_guard() {
        let mut g = guard6();
        g.on_release(t(0)); // guard 6
        let _ = g.offer(t(1), 1); // deferred head

        // Guard passes, head not yet taken (deadline pending); a new signal
        // at 7 must queue behind, not jump ahead.
        assert_eq!(g.offer(t(7), 2), GuardDecision::Queued);
        assert_eq!(g.pending_len(), 2);
        assert!(g.is_deferred(1) && g.is_deferred(2) && !g.is_deferred(3));
        assert_eq!(g.take_due(t(7)), Some(1), "the head goes first");
    }

    #[test]
    fn take_due_respects_guard_time_and_emptiness() {
        let mut g = guard6();
        g.on_release(t(0));
        let _ = g.offer(t(1), 1);
        assert_eq!(g.take_due(t(5)), None, "not due yet");
        assert_eq!(g.take_due(t(6)), Some(1));
        assert_eq!(g.take_due(t(6)), None, "head consumed");
        let mut empty = guard6();
        assert_eq!(empty.take_due(t(0)), None, "nothing pending");
    }

    #[test]
    #[should_panic(expected = "positive period")]
    fn zero_period_rejected() {
        let _ = ReleaseGuard::new(Dur::ZERO);
    }

    #[test]
    fn display_mentions_pending() {
        let mut g = guard6();
        g.on_release(t(0));
        assert_eq!(g.to_string(), "guard@6");
        let _ = g.offer(t(2), 1);
        let _ = g.offer(t(3), 2);
        assert!(g.to_string().contains("2 pending"));
    }

    #[test]
    fn crash_drops_deferred_signals() {
        let mut g = guard6();
        g.on_release(t(0)); // guard 6
        let _ = g.offer(t(1), 1);
        let _ = g.offer(t(2), 2);
        assert_eq!(g.next_expiry(), Some(t(6)));
        assert_eq!(g.on_crash().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(g.pending_len(), 0);
        assert_eq!(g.next_expiry(), None);
        assert_eq!(g.take_due(t(6)), None, "nothing survives the crash");
    }

    #[test]
    fn reinitialize_sets_guard_to_recovery_instant() {
        // Future guard is pulled back: a signal right after recovery
        // releases immediately (the recovery instant is an idle point).
        let mut g = guard6();
        g.on_release(t(100)); // guard 106
        let _ = g.offer(t(101), 1); // deferred, dies with the crash
        g.reinitialize(t(103));
        assert_eq!(g.guard(), t(103));
        assert_eq!(g.pending_len(), 0);
        assert_eq!(g.offer(t(103), 2), GuardDecision::ReleaseNow);
        // Past guard is raised to now (harmless, same as rule 2).
        let mut g2 = guard6();
        g2.reinitialize(t(50));
        assert_eq!(g2.guard(), t(50));
        // Rule-1-wins bookkeeping does not leak across the crash: an idle
        // point at the recovery instant still applies rule 2.
        let mut g3 = guard6();
        g3.on_release(t(10));
        assert_eq!(g3.on_crash().count(), 0);
        assert_eq!(g3.on_idle_point(t(10)), None, "nothing pending to free");
        assert_eq!(g3.guard(), t(10));
    }

    #[test]
    fn inter_release_separation_invariant() {
        // Drive a long signal sequence; consecutive releases must never be
        // closer than the period unless an idle point intervened (rule 2),
        // and instances must release in the order they were offered.
        let mut g = guard6();
        let mut releases: Vec<(Time, bool, u64)> = Vec::new(); // (time, via idle, instance)
        let mut now = Time::ZERO;
        for step in 0..60u64 {
            now += Dur::from_ticks(1 + (step as i64 % 5));
            match g.offer(now, step) {
                GuardDecision::ReleaseNow => {
                    g.on_release(now);
                    releases.push((now, false, step));
                }
                GuardDecision::DeferUntil(_) | GuardDecision::Queued => {
                    if step % 3 == 0 {
                        let idle = now + Dur::from_ticks(1);
                        if let Some(m) = g.on_idle_point(idle) {
                            g.on_release(idle);
                            releases.push((idle, true, m));
                        }
                    } else if let Some(due) = g.next_expiry() {
                        if due <= now + Dur::from_ticks(2) {
                            let at = due.max(now);
                            let m = g.take_due(at).expect("an armed deadline is due");
                            g.on_release(at);
                            releases.push((at, false, m));
                        }
                    }
                }
            }
        }
        assert!(releases.len() > 5, "scenario exercised releases");
        for pair in releases.windows(2) {
            let (prev, _, first) = pair[0];
            let (next, via_idle, second) = pair[1];
            assert!(
                next - prev >= Dur::from_ticks(6) || via_idle,
                "release at {next:?} too close to {prev:?} without an idle point"
            );
            assert!(first < second, "instance {second} released after {first}");
        }
    }
}
