//! **Algorithm SA/PM** (§4.1): schedulability analysis for the PM and MPM
//! protocols — and, by Theorem 1 of the paper, for the RG protocol.
//!
//! Under these protocols every subtask is (inside any busy period) a
//! periodic subtask, so Lehoczky's busy-period analysis applies on each
//! processor independently:
//!
//! 1. bound the duration `D_{i,j}` of a `φ_{i,j}`-level busy period;
//! 2. bound the number `M_{i,j} = ⌈D_{i,j}/p_i⌉` of instances inside it;
//! 3. bound the completion time `C_{i,j}(m)` of each instance
//!    `m = 1..M_{i,j}` and its response time
//!    `R_{i,j}(m) = C_{i,j}(m) − (m−1)p_i`;
//! 4. `R_{i,j} = max_m R_{i,j}(m)`;
//! 5. the end-to-end bound is `R_i = Σ_j R_{i,j}`.
//!
//! # Examples
//!
//! Example 2 of the paper: `R_{2,1} = 4`, so PM sets `f_{2,2} = 4`, and
//! `T₃`'s bound is 5 ≤ its deadline 6.
//!
//! ```
//! use rtsync_core::analysis::sa_pm::analyze_pm;
//! use rtsync_core::analysis::AnalysisConfig;
//! use rtsync_core::examples::example2;
//! use rtsync_core::task::{SubtaskId, TaskId};
//! use rtsync_core::time::Dur;
//!
//! let system = example2();
//! let bounds = analyze_pm(&system, &AnalysisConfig::default())?;
//! assert_eq!(bounds.response(SubtaskId::new(TaskId::new(1), 0)), Dur::from_ticks(4));
//! assert_eq!(bounds.task_bound(TaskId::new(2)), Dur::from_ticks(5));
//! # Ok::<(), rtsync_core::error::AnalyzeError>(())
//! ```

use std::fmt;
use std::fmt::Write as _;

use crate::analysis::busy_period::{
    fixed_point_with_hint_counted, utilization_ppm, DemandTerm, FixedPointFailure, FixedPointLimits,
};
use crate::analysis::AnalysisConfig;
use crate::error::AnalyzeError;
use crate::task::{SubtaskId, TaskId, TaskSet};
use crate::time::Dur;

/// Per-subtask response-time bounds produced by [`analyze_pm`], plus the
/// end-to-end bounds derived from them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PmBounds {
    /// `responses[i][j] = R_{i,j}`.
    responses: Vec<Vec<Dur>>,
}

impl PmBounds {
    /// The response-time bound `R_{i,j}` of one subtask.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a subtask of the analyzed set.
    pub fn response(&self, id: SubtaskId) -> Dur {
        self.responses[id.task().index()][id.index()]
    }

    /// The end-to-end bound `R_i = Σ_j R_{i,j}` of one task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a task of the analyzed set.
    pub fn task_bound(&self, id: TaskId) -> Dur {
        self.responses[id.index()].iter().copied().sum()
    }

    /// `Σ_{k<j} R_{i,k}` — the phase offset the PM protocol gives subtask
    /// `T_{i,j}` relative to its parent task's phase.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a subtask of the analyzed set.
    pub fn cumulative_before(&self, id: SubtaskId) -> Dur {
        self.responses[id.task().index()][..id.index()]
            .iter()
            .copied()
            .sum()
    }

    /// End-to-end bounds for every task, indexed by [`TaskId::index`].
    pub fn task_bounds(&self) -> Vec<Dur> {
        (0..self.responses.len())
            .map(|i| self.task_bound(TaskId::new(i)))
            .collect()
    }

    /// Raw per-subtask bounds, `[task][chain index]`.
    pub fn responses(&self) -> &[Vec<Dur>] {
        &self.responses
    }
}

/// Runs Algorithm SA/PM over the whole system.
///
/// # Errors
///
/// * [`AnalyzeError::Overload`] if some priority level's busy period is
///   unbounded (equal-and-higher demand ≥ processor capacity);
/// * [`AnalyzeError::BoundExceedsCap`] if a response bound exceeds
///   `failure_factor × period`;
/// * [`AnalyzeError::IterationLimit`] / [`AnalyzeError::ArithmeticOverflow`]
///   on pathological inputs.
pub fn analyze_pm(set: &TaskSet, cfg: &AnalysisConfig) -> Result<PmBounds, AnalyzeError> {
    let mut responses: Vec<Vec<Dur>> = Vec::with_capacity(set.num_tasks());
    for task in set.tasks() {
        let mut row = Vec::with_capacity(task.chain_len());
        for sub in task.subtasks() {
            row.push(subtask_response_memo(set, sub.id(), cfg, None)?.response);
        }
        responses.push(row);
    }
    Ok(PmBounds { responses })
}

/// Convergence record for one subtask of an [`analyze_pm_traced`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SubtaskConvergence {
    /// The analyzed subtask.
    pub subtask: SubtaskId,
    /// `D_{i,j}`: the level busy-period duration (step 1).
    pub busy_period: Dur,
    /// `M_{i,j}`: instances examined inside the busy period (step 2).
    pub instances: i64,
    /// Fixed-point iterations burned across steps 1 and 3–4.
    pub iterations: u64,
    /// The resulting response-time bound `R_{i,j}`.
    pub response: Dur,
}

/// Convergence instrumentation for a whole [`analyze_pm_traced`] run:
/// per-subtask busy-period sizes, instance counts and fixed-point
/// iteration totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BusyPeriodReport {
    /// One record per subtask, in task/chain order.
    pub rows: Vec<SubtaskConvergence>,
}

impl BusyPeriodReport {
    /// Fixed-point iterations summed over every subtask.
    pub fn total_iterations(&self) -> u64 {
        self.rows.iter().map(|r| r.iterations).sum()
    }

    /// The costliest single subtask (by iterations), if any.
    pub fn worst_subtask(&self) -> Option<&SubtaskConvergence> {
        self.rows.iter().max_by_key(|r| r.iterations)
    }

    /// Renders the report as a plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SA/PM convergence: {} subtasks, {} fixed-point iterations",
            self.rows.len(),
            self.total_iterations()
        );
        let _ = writeln!(
            out,
            "{:<10}{:>12}{:>11}{:>8}{:>10}",
            "subtask", "busy period", "instances", "iters", "response"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<10}{:>12}{:>11}{:>8}{:>10}",
                r.subtask.to_string(),
                r.busy_period.ticks(),
                r.instances,
                r.iterations,
                r.response.ticks()
            );
        }
        out
    }
}

impl fmt::Display for BusyPeriodReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// [`analyze_pm`] plus convergence instrumentation: how large each level
/// busy period was, how many instances it spanned and how many fixed-point
/// iterations the Lehoczky recurrences burned.
///
/// # Errors
///
/// Identical to [`analyze_pm`].
pub fn analyze_pm_traced(
    set: &TaskSet,
    cfg: &AnalysisConfig,
) -> Result<(PmBounds, BusyPeriodReport), AnalyzeError> {
    let mut responses: Vec<Vec<Dur>> = Vec::with_capacity(set.num_tasks());
    let mut rows = Vec::with_capacity(set.num_subtasks());
    for task in set.tasks() {
        let mut row = Vec::with_capacity(task.chain_len());
        for sub in task.subtasks() {
            let memo = subtask_response_memo(set, sub.id(), cfg, None)?;
            row.push(memo.response);
            rows.push(SubtaskConvergence {
                subtask: sub.id(),
                busy_period: memo.busy_period,
                instances: memo.instances,
                iterations: memo.iterations,
                response: memo.response,
            });
        }
        responses.push(row);
    }
    Ok((PmBounds { responses }, BusyPeriodReport { rows }))
}

/// Memoized convergence state of one SA/PM subtask analysis: every
/// fixed point the analysis solved, recorded so a later re-analysis of a
/// *grown* system can seed its searches from them via
/// [`fixed_point_with_hint_counted`].
///
/// The hint contract (see [`fixed_point_with_hint_counted`]): a memo
/// taken on system `S` is a valid warm start for the same subtask on
/// system `S′` whenever `S′`'s demand dominates `S`'s — i.e. `S′` only *adds*
/// interference (admission) and leaves this subtask's own period,
/// execution and blocking unchanged. Demand growth moves every least
/// fixed point up, so each memoized value is ≤ its new counterpart.
/// After *removing* interference (retirement) the memo may overshoot and
/// must be discarded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubtaskMemo {
    /// `D_{i,j}`: the converged level busy-period duration (step 1).
    pub busy_period: Dur,
    /// `M_{i,j}`: instances examined inside the busy period (step 2).
    pub instances: i64,
    /// Converged completion time of instance `m` at index `m − 1`
    /// (steps 3–4).
    pub completions: Vec<Dur>,
    /// The response-time bound `R_{i,j}`.
    pub response: Dur,
    /// Fixed-point iterations burned producing this memo.
    pub iterations: u64,
}

/// Steps 1–4 of SA/PM for one subtask, warm-started from a previous
/// run's [`SubtaskMemo`] when one is given.
///
/// With `warm = None` the searches start cold; this is the per-subtask
/// body of [`analyze_pm`] and [`analyze_pm_traced`]. With a memo, the
/// step-1 busy-period search starts from the memoized duration and each
/// step-3 instance search from the memoized completion — valid only
/// under the monotone-growth contract documented on [`SubtaskMemo`]; the
/// result is bit-identical either way, only the iteration count changes.
///
/// # Errors
///
/// Same failure modes as [`analyze_pm`].
pub fn subtask_response_memo(
    set: &TaskSet,
    id: SubtaskId,
    cfg: &AnalysisConfig,
    warm: Option<&SubtaskMemo>,
) -> Result<SubtaskMemo, AnalyzeError> {
    let me = set.subtask(id);
    let period = set.task(id.task()).period();
    // One buffer of demand terms: the interference set, then the subtask
    // itself; the interference is its prefix.
    let above = set.interference_set(id);
    let mut with_self: Vec<DemandTerm> = Vec::with_capacity(above.len() + 1);
    with_self.extend(
        above.map(|s| DemandTerm::periodic(set.task(s.id().task()).period(), s.execution())),
    );
    let n_interfering = with_self.len();
    with_self.push(DemandTerm::periodic(period, me.execution()));
    let interference = &with_self[..n_interfering];

    // Blocking by lower-priority non-preemptive work (zero in the paper's
    // fully preemptive base model).
    let blocking = set.blocking_bound(id);

    // Step 1: D_{i,j} — level busy period duration, interference plus self
    // plus the blocking head start.
    let busy_cap = busy_period_cap(&with_self, cfg);
    let limits = FixedPointLimits::new(busy_cap, cfg.max_fixed_point_iterations);
    let duration_hint = warm.map_or(Dur::ZERO, |w| w.busy_period);
    let (duration, mut iterations) =
        fixed_point_with_hint_counted(duration_hint, blocking, &with_self, limits).map_err(
            |f| match f {
                // An unbounded busy period means the level is overloaded.
                FixedPointFailure::ExceedsCap => AnalyzeError::Overload {
                    subtask: id,
                    utilization_ppm: utilization_ppm(&with_self),
                },
                other => map_failure(other, id, busy_cap),
            },
        )?;

    // Step 2: M_{i,j} = ⌈D_{i,j}/p_i⌉.
    let instances = duration.ceil_div(period).max(1);

    // Steps 3–4: per-instance completion times; responses; maximum.
    let limits = FixedPointLimits::new(duration, cfg.max_fixed_point_iterations);
    let mut worst = Dur::ZERO;
    let mut prev_completion = Dur::ZERO;
    let mut completions = Vec::with_capacity(instances.max(0) as usize);
    for m in 1..=instances {
        let offset = me
            .execution()
            .checked_mul(m)
            .and_then(|x| x.checked_add(blocking))
            .ok_or(AnalyzeError::ArithmeticOverflow { subtask: id })?;
        // The previous instance's completion is always a valid hint
        // (C(m−1) ≤ C(m)); a warm memo's C(m) from the smaller system is
        // another — take whichever is larger.
        let hint = warm
            .and_then(|w| w.completions.get((m - 1) as usize).copied())
            .unwrap_or(Dur::ZERO)
            .max(prev_completion);
        let (completion, iters) = fixed_point_with_hint_counted(hint, offset, interference, limits)
            .map_err(|f| map_failure(f, id, duration))?;
        iterations += iters;
        prev_completion = completion;
        completions.push(completion);
        let response = completion - period * (m - 1);
        worst = worst.max(response);
    }

    let cap = cfg.cap_for_period(period);
    if worst > cap {
        return Err(AnalyzeError::BoundExceedsCap { subtask: id, cap });
    }
    Ok(SubtaskMemo {
        busy_period: duration,
        instances,
        completions,
        response: worst,
        iterations,
    })
}

/// A generous upper limit for busy-period searches: exceeding it means the
/// level demand cannot drain (utilization ≥ 1 up to rounding).
fn busy_period_cap(terms: &[DemandTerm], cfg: &AnalysisConfig) -> Dur {
    let total_period: Dur = terms.iter().map(|t| t.period).sum();
    total_period.saturating_mul(cfg.failure_factor)
}

pub(crate) fn map_failure(f: FixedPointFailure, id: SubtaskId, cap: Dur) -> AnalyzeError {
    match f {
        FixedPointFailure::ExceedsCap => AnalyzeError::BoundExceedsCap { subtask: id, cap },
        FixedPointFailure::IterationLimit => AnalyzeError::IterationLimit {
            subtask: id,
            limit: u64::MAX,
        },
        FixedPointFailure::Overflow => AnalyzeError::ArithmeticOverflow { subtask: id },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::busy_period::fixed_point;
    use crate::examples::example2;
    use crate::task::{Priority, TaskSet};
    use crate::time::{Dur, Time};

    fn d(t: i64) -> Dur {
        Dur::from_ticks(t)
    }

    fn sid(t: usize, j: usize) -> SubtaskId {
        SubtaskId::new(TaskId::new(t), j)
    }

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn example2_bounds_match_paper() {
        let set = example2();
        let b = analyze_pm(&set, &cfg()).unwrap();
        // T1 runs alone at top priority on P0.
        assert_eq!(b.response(sid(0, 0)), d(2));
        // R_{2,1} = 4 (paper §3.1: "The bound on the response time of T2,1
        // is 4 time units, and therefore the phase of T2,2 is 4").
        assert_eq!(b.response(sid(1, 0)), d(4));
        // T2,2 is top priority on P1.
        assert_eq!(b.response(sid(1, 1)), d(3));
        // T3 suffers one T2,2 instance per period: R = 5 (paper §2).
        assert_eq!(b.response(sid(2, 0)), d(5));
        // End-to-end bounds.
        assert_eq!(b.task_bound(TaskId::new(0)), d(2));
        assert_eq!(b.task_bound(TaskId::new(1)), d(7));
        assert_eq!(b.task_bound(TaskId::new(2)), d(5));
        // Phase offsets for the PM protocol.
        assert_eq!(b.cumulative_before(sid(1, 1)), d(4));
        assert_eq!(b.cumulative_before(sid(1, 0)), Dur::ZERO);
        assert_eq!(b.task_bounds(), vec![d(2), d(7), d(5)]);
    }

    #[test]
    fn multiple_instances_in_busy_period_are_considered() {
        // Lehoczky's point: with D > p, the first instance is not always
        // the worst. T0 (p=70,c=26), T1 (p=100,c=62) on one processor.
        // Level-1 busy period: t = ⌈t/70⌉26 + ⌈t/100⌉62 → t0=88, W(88)=2*26+62=114,
        // W(114)=2*26+2*62=176, W(176)=3*26+2*62=202, W(202)=3*26+3*62=264,
        // W(264)=4*26+3*62=290, W(290)=5*26+3*62=316, W(316)=5*26+4*62=378,
        // W(378)=6*26+4*62=404, W(404)=6*26+5*62=466, W(466)=7*26+5*62=492,
        // W(492)=8*26+5*62=518, W(518)=8*26+6*62=580, W(580)=9*26+6*62=606,
        // W(606)=9*26+7*62=668, W(668)=10*26+7*62=694, W(694)=10*26+7*62=694 ✓
        // M = ⌈694/100⌉ = 7 instances of T1 inside the busy period.
        let set = TaskSet::builder(1)
            .task(d(70))
            .subtask(0, d(26), Priority::new(0))
            .finish_task()
            .task(d(100))
            .subtask(0, d(62), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        let b = analyze_pm(&set, &cfg()).unwrap();
        // C(1) = 62+2*26 = 114 → R(1) = 114.
        // C(2): t = 124 + ⌈t/70⌉26 → 124+52=176, 124+78=202, 202+?⌈202/70⌉=3 → 202 ✓
        //   R(2) = 202-100 = 102.
        // C(3): t = 186+⌈t/70⌉26 → 238?.. iterate: 186+78=264, 186+104=290,
        //   290: ⌈290/70⌉=5 → 316, ⌈316/70⌉=5 → 316 ✓ R(3)=316-200=116.
        // C(4): 248+⌈t/70⌉26: 248+130=378, ⌈378/70⌉=6→404, ⌈404/70⌉=6→404 ✓
        //   R(4)=404-300=104.
        // C(5): 310+⌈t/70⌉: 310+156=466, ⌈466/70⌉=7→492, ⌈492/70⌉=8→518,
        //   ⌈518/70⌉=8→518 ✓ R(5)=518-400=118.
        // C(6): 372+: 372+208=580, ⌈580/70⌉=9→606, ⌈606/70⌉=9→606 ✓
        //   R(6)=606-500=106.
        // C(7): 434+: 434+234=668, ⌈668/70⌉=10→694, ✓ R(7)=694-600=94.
        // Worst = R(5) = 118 — strictly larger than R(1)=114: naive
        // first-instance analysis would be unsound here.
        assert_eq!(b.response(sid(1, 0)), d(118));
    }

    /// The **naive, unsound** variant that examines only the first instance of
    /// each busy period (`m = 1`), i.e. the classic Joseph–Pandya equation
    /// without Lehoczky's multi-instance correction.
    ///
    /// For `D ≤ p` workloads it coincides with SA/PM; when a busy period
    /// spans several instances it can **underestimate** (118 vs 114 below).
    fn subtask_response_first_instance_only(
        set: &TaskSet,
        id: SubtaskId,
        cfg: &AnalysisConfig,
    ) -> Result<Dur, AnalyzeError> {
        let me = set.subtask(id);
        let interference: Vec<DemandTerm> = set
            .interference_set(id)
            .map(|s| DemandTerm::periodic(set.task(s.id().task()).period(), s.execution()))
            .collect();
        let blocking = set.blocking_bound(id);
        let cap = cfg.cap_for_period(set.task(id.task()).period());
        let limits = FixedPointLimits::new(cap, cfg.max_fixed_point_iterations);
        let offset = me
            .execution()
            .checked_add(blocking)
            .ok_or(AnalyzeError::ArithmeticOverflow { subtask: id })?;
        fixed_point(offset, &interference, limits).map_err(|f| match f {
            FixedPointFailure::ExceedsCap => AnalyzeError::Overload {
                subtask: id,
                utilization_ppm: utilization_ppm(&interference),
            },
            other => map_failure(other, id, cap),
        })
    }

    #[test]
    fn first_instance_only_underestimates() {
        // The DESIGN.md ablation: on the (70,26)/(100,62) system the worst
        // instance inside the level-1 busy period is the 5th (R = 118),
        // while the naive first-instance equation stops at 114 — an
        // *unsound* bound that Lehoczky's correction fixes.
        let set = TaskSet::builder(1)
            .task(d(70))
            .subtask(0, d(26), Priority::new(0))
            .finish_task()
            .task(d(100))
            .subtask(0, d(62), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        let naive = subtask_response_first_instance_only(&set, sid(1, 0), &cfg()).unwrap();
        let correct = analyze_pm(&set, &cfg()).unwrap().response(sid(1, 0));
        assert_eq!(naive, d(114));
        assert_eq!(correct, d(118));
        assert!(naive < correct, "the naive equation is optimistic here");
        // Where D ≤ p, the two agree (Example 2).
        let set = example2();
        let b = analyze_pm(&set, &cfg()).unwrap();
        for task in set.tasks() {
            for sub in task.subtasks() {
                assert_eq!(
                    subtask_response_first_instance_only(&set, sub.id(), &cfg()).unwrap(),
                    b.response(sub.id())
                );
            }
        }
    }

    #[test]
    fn overload_is_reported() {
        let set = TaskSet::builder(1)
            .task(d(4))
            .subtask(0, d(3), Priority::new(0))
            .finish_task()
            .task(d(8))
            .subtask(0, d(4), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        // Utilization 0.75 + 0.5 = 1.25: level-1 busy period unbounded.
        let err = analyze_pm(&set, &cfg()).unwrap_err();
        match err {
            AnalyzeError::Overload {
                subtask,
                utilization_ppm,
            } => {
                assert_eq!(subtask, sid(1, 0));
                assert!((1_249_000..=1_251_000).contains(&utilization_ppm));
            }
            other => panic!("expected overload, got {other:?}"),
        }
    }

    #[test]
    fn highest_priority_overloaded_alone() {
        // A single subtask with c > p overloads its own level.
        let set = TaskSet::builder(1)
            .task(d(4))
            .subtask(0, d(5), Priority::new(0))
            .finish_task()
            .build()
            .unwrap();
        let err = analyze_pm(&set, &cfg()).unwrap_err();
        assert!(matches!(err, AnalyzeError::Overload { .. }));
    }

    #[test]
    fn full_utilization_exactly_one_converges() {
        // c = p for a single top-priority subtask: busy period = p exactly,
        // every instance completes exactly at its deadline.
        let set = TaskSet::builder(1)
            .task(d(4))
            .subtask(0, d(4), Priority::new(0))
            .finish_task()
            .build()
            .unwrap();
        let b = analyze_pm(&set, &cfg()).unwrap();
        assert_eq!(b.response(sid(0, 0)), d(4));
    }

    #[test]
    fn independent_processors_do_not_interfere() {
        let set = TaskSet::builder(2)
            .task(d(10))
            .subtask(0, d(9), Priority::new(0))
            .finish_task()
            .task(d(10))
            .subtask(1, d(2), Priority::new(0))
            .finish_task()
            .build()
            .unwrap();
        let b = analyze_pm(&set, &cfg()).unwrap();
        assert_eq!(b.response(sid(1, 0)), d(2));
    }

    #[test]
    fn chain_bound_is_sum_of_subtask_bounds() {
        let set = TaskSet::builder(3)
            .task(d(100))
            .subtask(0, d(10), Priority::new(0))
            .subtask(1, d(20), Priority::new(0))
            .subtask(2, d(30), Priority::new(0))
            .finish_task()
            .build()
            .unwrap();
        let b = analyze_pm(&set, &cfg()).unwrap();
        assert_eq!(b.task_bound(TaskId::new(0)), d(60));
        assert_eq!(b.cumulative_before(sid(0, 2)), d(30));
    }

    #[test]
    fn phase_does_not_affect_bounds() {
        // SA/PM is a worst-case (critical instant) analysis: phases are
        // irrelevant to the bounds.
        let mk = |phase| {
            TaskSet::builder(1)
                .task(d(4))
                .subtask(0, d(2), Priority::new(0))
                .finish_task()
                .task(d(6))
                .phase(Time::from_ticks(phase))
                .subtask(0, d(2), Priority::new(1))
                .finish_task()
                .build()
                .unwrap()
        };
        let b0 = analyze_pm(&mk(0), &cfg()).unwrap();
        let b5 = analyze_pm(&mk(5), &cfg()).unwrap();
        assert_eq!(b0, b5);
    }

    #[test]
    fn warm_memo_is_bit_identical_to_cold_on_a_grown_system() {
        // Analyze T1 (p=100,c=62) under interference from T0 (p=70,c=26),
        // memoize, then grow the system with a third, higher-priority
        // interferer and re-analyze warm-started from the stale memo. The
        // hint contract guarantees the warm result equals the cold one
        // bit for bit, in no more fixed-point iterations.
        let small = TaskSet::builder(1)
            .task(d(70))
            .subtask(0, d(26), Priority::new(0))
            .finish_task()
            .task(d(100))
            .subtask(0, d(62), Priority::new(2))
            .finish_task()
            .build()
            .unwrap();
        let stale = subtask_response_memo(&small, sid(1, 0), &cfg(), None).unwrap();
        let grown = TaskSet::builder(1)
            .task(d(70))
            .subtask(0, d(26), Priority::new(0))
            .finish_task()
            .task(d(100))
            .subtask(0, d(62), Priority::new(2))
            .finish_task()
            .task(d(1000))
            .subtask(0, d(5), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        let cold = subtask_response_memo(&grown, sid(1, 0), &cfg(), None).unwrap();
        let warm = subtask_response_memo(&grown, sid(1, 0), &cfg(), Some(&stale)).unwrap();
        assert_eq!(warm.response, cold.response);
        assert_eq!(warm.busy_period, cold.busy_period);
        assert_eq!(warm.instances, cold.instances);
        assert_eq!(warm.completions, cold.completions);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        // A same-system warm start converges almost immediately: every
        // search starts at its own fixed point.
        let rewarm = subtask_response_memo(&grown, sid(1, 0), &cfg(), Some(&cold)).unwrap();
        assert_eq!(rewarm.completions, cold.completions);
        assert!(rewarm.iterations <= warm.iterations);
    }

    #[test]
    fn memo_matches_traced_convergence() {
        let set = example2();
        let (_, report) = analyze_pm_traced(&set, &cfg()).unwrap();
        assert_eq!(report.rows.len(), set.num_subtasks());
        for (traced, sub) in report.rows.iter().zip(set.subtasks()) {
            let memo = subtask_response_memo(&set, sub.id(), &cfg(), None).unwrap();
            assert_eq!(traced.subtask, sub.id());
            assert_eq!(memo.response, traced.response);
            assert_eq!(memo.busy_period, traced.busy_period);
            assert_eq!(memo.instances, traced.instances);
            assert_eq!(memo.iterations, traced.iterations);
            assert_eq!(memo.completions.len(), memo.instances as usize);
        }
    }

    #[test]
    fn monotone_in_execution_time() {
        // Increasing an execution time never decreases any bound.
        let mk = |c: i64| {
            TaskSet::builder(1)
                .task(d(10))
                .subtask(0, d(c), Priority::new(0))
                .finish_task()
                .task(d(20))
                .subtask(0, d(4), Priority::new(1))
                .finish_task()
                .build()
                .unwrap()
        };
        let small = analyze_pm(&mk(2), &cfg()).unwrap();
        let large = analyze_pm(&mk(3), &cfg()).unwrap();
        assert!(large.response(sid(1, 0)) >= small.response(sid(1, 0)));
        assert!(large.response(sid(0, 0)) >= small.response(sid(0, 0)));
    }
}
