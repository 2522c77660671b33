//! **Algorithm SA/DS** (Figure 11 of the paper): schedulability analysis
//! for the Direct Synchronization protocol.
//!
//! Seeds the IEER bounds optimistically at `R_{i,j} = Σ_{k≤j} c_{i,k}` and
//! repeats [`IEERT`](crate::analysis::ieert) sweeps until the bounds stop
//! changing. Because the sweep operator is monotone and the seed lies below
//! every fixed point, the iteration converges to the **least** fixed point
//! when one exists; when the bounds instead grow past
//! `failure_factor × period` (300× by default) the analysis declares a
//! *failure* — the paper's "bound is infinite for all practical purposes".
//!
//! The sweeps are needed because under an arbitrary priority assignment a
//! subtask's release jitter can come from a subtask analysed after it.
//! The admission engine ([`crate::analysis::admission`]) assigns
//! chain-major priorities, under which every jitter source precedes the
//! subtask that reads it, and reaches the same least fixed point in one
//! ordered pass (see [`crate::analysis::ieert`]). The Jacobi sweeps here
//! stay the only solver for [`analyze_ds`], [`analyze_ds_traced`] and the
//! engine's memo-off oracle: they take any priority assignment, and the
//! traced run reports the per-sweep trajectory.
//!
//! # Examples
//!
//! Example 2: the DS bound of `T₂` (the paper's `T₃`) exceeds its deadline
//! of 6, so its schedulability cannot be asserted — and indeed Figure 3
//! shows it missing a deadline.
//!
//! ```
//! use rtsync_core::analysis::sa_ds::analyze_ds;
//! use rtsync_core::analysis::AnalysisConfig;
//! use rtsync_core::examples::example2;
//! use rtsync_core::task::TaskId;
//! use rtsync_core::time::Dur;
//!
//! let system = example2();
//! let bounds = analyze_ds(&system, &AnalysisConfig::default())?;
//! assert!(bounds.task_bound(TaskId::new(2)) > Dur::from_ticks(6));
//! # Ok::<(), rtsync_core::error::AnalyzeError>(())
//! ```
//!
//! > **Fidelity note.** The paper's prose reports the Example-2 bound of
//! > `T₃` as 7; the formulas of Figure 10, as written, give 8 — and the
//! > paper's own Figure 3 schedule exhibits an *actual* response of 8
//! > (release at 4, completion at 12), so any sound bound must be ≥ 8.
//! > We reproduce the algorithm, which here is also tight.

use std::fmt;
use std::fmt::Write as _;

use crate::analysis::ieert::{IeerBounds, IeertKernel};
use crate::analysis::AnalysisConfig;
use crate::error::AnalyzeError;
use crate::task::{SubtaskId, TaskId, TaskSet};
use crate::time::Dur;

/// The result of Algorithm SA/DS: converged IEER bounds plus iteration
/// accounting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DsBounds {
    bounds: IeerBounds,
    sweeps: u64,
}

impl DsBounds {
    /// The IEER bound of one subtask: release of `T_{i,1}(m)` to completion
    /// of `T_{i,j}(m)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ieer(&self, id: SubtaskId) -> Dur {
        self.bounds.get(id)
    }

    /// The end-to-end response-time bound of a task (the IEER bound of its
    /// last subtask).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task_bound(&self, id: TaskId) -> Dur {
        self.bounds.task_bound(id)
    }

    /// End-to-end bounds for every task, indexed by [`TaskId::index`].
    pub fn task_bounds(&self) -> Vec<Dur> {
        (0..self.bounds.as_slices().len())
            .map(|i| self.task_bound(TaskId::new(i)))
            .collect()
    }

    /// The converged bound set.
    pub fn bounds(&self) -> &IeerBounds {
        &self.bounds
    }

    /// Number of IEERT sweeps performed (including the one that verified
    /// the fixed point).
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }
}

/// Runs Algorithm SA/DS with the literal Jacobi sweeps of Figure 11.
///
/// # Errors
///
/// Errors for which [`AnalyzeError::is_failure`] holds are the paper's
/// *failure* outcome — no finite bound below the cap. Other errors indicate
/// pathological inputs (overflow).
pub fn analyze_ds(set: &TaskSet, cfg: &AnalysisConfig) -> Result<DsBounds, AnalyzeError> {
    analyze_ds_seeded(set, cfg, IeerBounds::seed(set))
}

/// Runs Algorithm SA/DS from a caller-supplied seed instead of the
/// optimistic one: a warm start from the converged bounds of a smaller
/// system (build the seed with [`IeerBounds::seed_with`]).
///
/// The caller must guarantee the seed lies at or below the least fixed
/// point of the IEERT sweep on `set` (entry-wise); any seed between the
/// optimistic one and the least fixed point converges to the *same*
/// least fixed point, in no more sweeps. Seeds above it would be
/// confirmed as-is and silently overestimate.
///
/// # Errors
///
/// See [`analyze_ds`].
pub fn analyze_ds_seeded(
    set: &TaskSet,
    cfg: &AnalysisConfig,
    seed: IeerBounds,
) -> Result<DsBounds, AnalyzeError> {
    sweep_to_fixed_point(&mut IeertKernel::new(set, cfg), set, seed, None)
}

/// The SA/DS outer loop behind every entry point: Jacobi IEERT sweeps of
/// `kernel`, a kernel of `set`, from `seed` until the bounds repeat,
/// recording each sweep into `trace` when one is given. The admission
/// engine runs it on a cold kernel when memoization is off, when the
/// sweep budget is too small for its ordered pass, and to report the
/// error of a pass that failed.
pub(crate) fn sweep_to_fixed_point(
    kernel: &mut IeertKernel,
    set: &TaskSet,
    seed: IeerBounds,
    mut trace: Option<&mut IeertReport>,
) -> Result<DsBounds, AnalyzeError> {
    let task_bounds = |b: &IeerBounds| -> Vec<Dur> {
        (0..set.num_tasks())
            .map(|i| b.task_bound(TaskId::new(i)))
            .collect()
    };
    let cfg = *kernel.cfg();
    let mut bounds = seed;
    let mut next = bounds.clone();
    if let Some(report) = trace.as_deref_mut() {
        report.trajectory.push(task_bounds(&bounds));
    }
    for sweep in 1..=cfg.max_outer_iterations {
        let swept = kernel.jacobi(&bounds, &mut next);
        if let Some(report) = trace.as_deref_mut() {
            report.sweeps = sweep;
            report.solved = kernel.solved();
        }
        swept?;
        if let Some(report) = trace.as_deref_mut() {
            let delta = set
                .subtasks()
                .map(|s| next.get(s.id()) - bounds.get(s.id()))
                .max()
                .unwrap_or(Dur::ZERO);
            report.deltas.push(delta);
            report.trajectory.push(task_bounds(&next));
        }
        if next == bounds {
            if let Some(report) = trace {
                report.converged = true;
            }
            return Ok(DsBounds {
                bounds,
                sweeps: sweep,
            });
        }
        std::mem::swap(&mut bounds, &mut next);
    }
    // Still growing after the sweep budget: treat as the failure outcome,
    // attributed to the subtask with the largest bound-to-period ratio.
    let worst = worst_ratio_subtask(set, &bounds);
    Err(AnalyzeError::IterationLimit {
        subtask: worst,
        limit: cfg.max_outer_iterations,
    })
}

/// Convergence instrumentation for an [`analyze_ds_traced`] run: the
/// trajectory of the end-to-end bounds across IEERT sweeps and the
/// per-sweep convergence deltas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IeertReport {
    /// IEERT sweeps performed (including the one that verified the fixed
    /// point when `converged`).
    pub sweeps: u64,
    /// `true` if the bounds reached a fixed point; `false` is the paper's
    /// *failure* outcome (diverging bounds or sweep budget exhausted).
    pub converged: bool,
    /// `trajectory[s][i]`: the end-to-end bound of task `i` after sweep
    /// `s`, with `trajectory[0]` the optimistic seed `Σ_k c_{i,k}`.
    pub trajectory: Vec<Vec<Dur>>,
    /// `deltas[s]`: the largest single-subtask bound growth during sweep
    /// `s + 1` (zero only on the verifying sweep).
    pub deltas: Vec<Dur>,
    /// Subtask evaluations that ran IEERT's fixed points. The others
    /// (at most `sweeps × subtasks` in all) saw exactly the jitters of the
    /// subtask's previous evaluation and returned its value (see the
    /// "unchanged inputs" rule in [`crate::analysis::ieert`]).
    pub solved: u64,
}

impl IeertReport {
    /// The bound trajectory of one task across sweeps.
    pub fn task_trajectory(&self, id: TaskId) -> Vec<Dur> {
        self.trajectory.iter().map(|row| row[id.index()]).collect()
    }

    /// Renders the report as a plain-text table (one row per sweep).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SA/DS convergence: {} sweeps, {}",
            self.sweeps,
            if self.converged {
                "converged"
            } else {
                "FAILED (no finite fixed point)"
            }
        );
        let tasks = self.trajectory.first().map_or(0, Vec::len);
        let _ = write!(out, "{:<7}", "sweep");
        for i in 0..tasks {
            let _ = write!(out, "{:>9}", format!("T{i}"));
        }
        let _ = writeln!(out, "{:>10}", "max delta");
        for (s, row) in self.trajectory.iter().enumerate() {
            let _ = write!(
                out,
                "{:<7}",
                if s == 0 { "seed".into() } else { s.to_string() }
            );
            for b in row {
                let _ = write!(out, "{:>9}", b.ticks());
            }
            match s.checked_sub(1).and_then(|i| self.deltas.get(i)) {
                Some(delta) => {
                    let _ = writeln!(out, "{:>10}", delta.ticks());
                }
                None => {
                    let _ = writeln!(out, "{:>10}", "-");
                }
            }
        }
        out
    }
}

impl fmt::Display for IeertReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// [`analyze_ds`] plus convergence instrumentation.
///
/// Unlike [`analyze_ds`], the paper's *failure* outcome (bounds growing
/// past the cap, or the sweep budget running out) is not an error here:
/// it returns `(None, report)` with `report.converged == false` and the
/// trajectory recorded up to the point the divergence was detected.
///
/// # Errors
///
/// Only pathological inputs (arithmetic overflow) error.
pub fn analyze_ds_traced(
    set: &TaskSet,
    cfg: &AnalysisConfig,
) -> Result<(Option<DsBounds>, IeertReport), AnalyzeError> {
    let mut report = IeertReport::default();
    let mut kernel = IeertKernel::new(set, cfg);
    match sweep_to_fixed_point(&mut kernel, set, IeerBounds::seed(set), Some(&mut report)) {
        Ok(bounds) => Ok((Some(bounds), report)),
        // The failure criterion fired (the bounds grew past
        // `failure_factor × period`) or the sweep budget ran out: the
        // report holds what was seen up to that point.
        Err(e) if e.is_failure() => Ok((None, report)),
        Err(e) => Err(e),
    }
}

fn worst_ratio_subtask(set: &TaskSet, bounds: &IeerBounds) -> SubtaskId {
    let mut best = SubtaskId::new(TaskId::new(0), 0);
    let mut best_key = (i64::MIN, i64::MAX); // maximize bound/period exactly
    for task in set.tasks() {
        for sub in task.subtasks() {
            let b = bounds.get(sub.id()).ticks();
            let p = task.period().ticks();
            // Compare b/p > best via cross multiplication on i128.
            let lhs = b as i128 * best_key.1 as i128;
            let rhs = best_key.0 as i128 * p as i128;
            if lhs > rhs {
                best_key = (b, p);
                best = sub.id();
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::sa_pm::analyze_pm;
    use crate::examples::example2;
    use crate::task::{Priority, TaskSet};
    use crate::time::Dur;

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
    fn example2_converges_to_documented_fixpoint() {
        let set = example2();
        let b = analyze_ds(&set, &cfg()).unwrap();
        assert_eq!(b.ieer(sid(0, 0)), d(2));
        assert_eq!(b.ieer(sid(1, 0)), d(4));
        assert_eq!(b.ieer(sid(1, 1)), d(7));
        // ≥ 8 is required for soundness (Figure 3 exhibits response 8);
        // the Figure-10 formulas give exactly 8.
        assert_eq!(b.ieer(sid(2, 0)), d(8));
        assert_eq!(b.task_bounds(), vec![d(2), d(7), d(8)]);
        assert!(b.sweeps() >= 3);
        // T3's bound exceeds its deadline of 6: not schedulable under DS,
        // matching the paper's §4.3 conclusion.
        assert!(b.task_bound(TaskId::new(2)) > set.task(TaskId::new(2)).deadline());
    }

    #[test]
    fn ds_bounds_dominate_pm_bounds() {
        // §4.3: "Algorithm SA/DS always yields larger upper bounds on the
        // task EER times than Algorithm SA/PM."
        let set = example2();
        let ds = analyze_ds(&set, &cfg()).unwrap();
        let pm = analyze_pm(&set, &cfg()).unwrap();
        for task in set.tasks() {
            assert!(
                ds.task_bound(task.id()) >= pm.task_bound(task.id()),
                "task {}",
                task.id()
            );
        }
    }

    #[test]
    fn single_subtask_tasks_match_pm_exactly() {
        // Without chains there is no clumping: SA/DS degenerates to SA/PM.
        let set = TaskSet::builder(1)
            .task(d(10))
            .subtask(0, d(3), Priority::new(0))
            .finish_task()
            .task(d(14))
            .subtask(0, d(4), Priority::new(1))
            .finish_task()
            .task(d(20))
            .subtask(0, d(5), Priority::new(2))
            .finish_task()
            .build()
            .unwrap();
        let ds = analyze_ds(&set, &cfg()).unwrap();
        let pm = analyze_pm(&set, &cfg()).unwrap();
        for task in set.tasks() {
            assert_eq!(ds.task_bound(task.id()), pm.task_bound(task.id()));
        }
    }

    #[test]
    fn seeded_run_matches_cold_run() {
        // Seeding from the converged bounds of a *smaller* system (valid:
        // growth only raises the least fixed point) reaches the same
        // fixed point as the cold optimistic seed, in fewer sweeps.
        let set = example2();
        let cold = analyze_ds(&set, &cfg()).unwrap();
        // Warm seed = the converged bounds themselves: one verifying sweep.
        let warm = analyze_ds_seeded(
            &set,
            &cfg(),
            IeerBounds::seed_with(&set, |id| Some(cold.ieer(id))),
        )
        .unwrap();
        assert_eq!(warm.bounds(), cold.bounds());
        assert_eq!(warm.sweeps(), 1);
        // A partial prior (only T1's chain) also converges identically.
        let partial = analyze_ds_seeded(
            &set,
            &cfg(),
            IeerBounds::seed_with(&set, |id| {
                (id.task() == TaskId::new(1)).then(|| cold.ieer(id))
            }),
        )
        .unwrap();
        assert_eq!(partial.bounds(), cold.bounds());
        assert!(partial.sweeps() <= cold.sweeps());
    }

    #[test]
    fn failure_on_saturated_chain_feedback() {
        // Two chains ping-ponging across two processors at 100% load: the
        // clumping feedback diverges and the failure criterion fires.
        let set = TaskSet::builder(2)
            .task(d(10))
            .subtask(0, d(5), Priority::new(0))
            .subtask(1, d(5), Priority::new(1))
            .finish_task()
            .task(d(10))
            .subtask(1, d(5), Priority::new(0))
            .subtask(0, d(5), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        let err = analyze_ds(&set, &cfg()).unwrap_err();
        assert!(err.is_failure(), "{err:?}");
    }

    #[test]
    fn sweep_count_is_reported() {
        let set = example2();
        let b = analyze_ds(&set, &cfg()).unwrap();
        // Seed → pass1 → pass2 → pass3 (fixpoint check): at least 3 sweeps.
        assert!(b.sweeps() >= 3 && b.sweeps() < 10, "{}", b.sweeps());
    }

    #[test]
    fn traced_run_matches_untraced_and_records_trajectory() {
        let set = example2();
        let plain = analyze_ds(&set, &cfg()).unwrap();
        let (bounds, report) = analyze_ds_traced(&set, &cfg()).unwrap();
        let bounds = bounds.expect("example 2 converges");
        assert_eq!(bounds.bounds(), plain.bounds());
        assert_eq!(bounds.sweeps(), plain.sweeps());
        assert!(report.converged);
        assert_eq!(report.sweeps, plain.sweeps());
        // Seed row + one row per sweep.
        assert_eq!(report.trajectory.len() as u64, report.sweeps + 1);
        assert_eq!(report.deltas.len() as u64, report.sweeps);
        // The final trajectory row is the fixed point.
        assert_eq!(*report.trajectory.last().unwrap(), plain.task_bounds());
        // Bounds grow monotonically sweep over sweep.
        for pair in report.trajectory.windows(2) {
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                assert!(a <= b);
            }
        }
        // The verifying sweep has delta zero; earlier sweeps grew.
        assert_eq!(*report.deltas.last().unwrap(), Dur::ZERO);
        assert!(report.deltas[0] > Dur::ZERO);
        let rendered = report.render();
        assert!(rendered.contains("converged"), "{rendered}");
        assert!(rendered.contains("seed"), "{rendered}");
    }

    #[test]
    fn traced_run_reports_failure_without_error() {
        let set = TaskSet::builder(2)
            .task(d(10))
            .subtask(0, d(5), Priority::new(0))
            .subtask(1, d(5), Priority::new(1))
            .finish_task()
            .task(d(10))
            .subtask(1, d(5), Priority::new(0))
            .subtask(0, d(5), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        let (bounds, report) = analyze_ds_traced(&set, &cfg()).unwrap();
        assert!(bounds.is_none());
        assert!(!report.converged);
        assert!(report.sweeps >= 1);
        assert!(report.render().contains("FAILED"));
    }

    #[test]
    fn a_run_from_converged_bounds_solves_each_subtask_once() {
        let set = example2();
        let cold = analyze_ds(&set, &cfg()).unwrap();
        let mut report = IeertReport::default();
        let seed = IeerBounds::seed_with(&set, |id| Some(cold.ieer(id)));
        let mut kernel = IeertKernel::new(&set, &cfg());
        let warm = sweep_to_fixed_point(&mut kernel, &set, seed, Some(&mut report)).unwrap();
        assert_eq!(warm.bounds(), cold.bounds());
        assert_eq!(report.sweeps, 1);
        assert_eq!(report.solved, set.num_subtasks() as u64);
    }

    #[test]
    fn task_trajectory_projects_one_task() {
        let set = example2();
        let (_, report) = analyze_ds_traced(&set, &cfg()).unwrap();
        let t3 = report.task_trajectory(TaskId::new(2));
        assert_eq!(t3.len(), report.trajectory.len());
        assert_eq!(*t3.last().unwrap(), d(8));
    }
}
