//! Differential tests of the SA/DS IEERT kernel against a literal
//! transcription of the paper's Figure 10.
//!
//! The production kernel reads `H_{i,j}` from the task set's priority
//! index, hoists per-subtask constants, warms both fixed points from the
//! previous sweep, stops each instance loop early and skips subtasks whose
//! jitters did not move. The oracle below does none of that: it finds
//! `H_{i,j}` and the blocking term by its own scan over every subtask,
//! every fixed point starts cold and every one of the `M` instances is
//! examined. Every SA/DS entry point must return exactly what the
//! oracle-driven loop returns — bounds, sweep count, and the error variant
//! with its payload — and a traced run must count as solved exactly the
//! evaluations whose jitters differ from the subtask's previous ones.

use std::collections::HashMap;

use proptest::prelude::*;
use rtsync::core::analysis::busy_period::{
    fixed_point, utilization_ppm, DemandTerm, FixedPointFailure, FixedPointLimits,
};
use rtsync::core::analysis::ieert::{ieert_pass, IeerBounds};
use rtsync::core::analysis::sa_ds::{
    analyze_ds, analyze_ds_seeded, analyze_ds_traced, IeertReport,
};
use rtsync::core::error::AnalyzeError;
use rtsync::core::examples::example2;
use rtsync::core::task::{Priority, SubtaskId, TaskId, TaskSet};
use rtsync::core::time::Dur;
use rtsync::core::AnalysisConfig;
use rtsync::workload::{generate_seeded, WorkloadSpec};

fn d(t: i64) -> Dur {
    Dur::from_ticks(t)
}

fn sid(t: usize, j: usize) -> SubtaskId {
    SubtaskId::new(TaskId::new(t), j)
}

/// The `AnalyzeError` a failed fixed-point search maps to.
fn failure(f: FixedPointFailure, id: SubtaskId, cap: Dur) -> AnalyzeError {
    match f {
        FixedPointFailure::ExceedsCap => AnalyzeError::BoundExceedsCap { subtask: id, cap },
        FixedPointFailure::IterationLimit => AnalyzeError::IterationLimit {
            subtask: id,
            limit: u64::MAX,
        },
        FixedPointFailure::Overflow => AnalyzeError::ArithmeticOverflow { subtask: id },
    }
}

/// `H_{i,j}`: every subtask on `id`'s processor with a priority equal to
/// or higher than `id`'s, other than `id`, in (task, chain) order.
fn oracle_interference(set: &TaskSet, id: SubtaskId) -> Vec<SubtaskId> {
    let me = set.subtask(id);
    set.subtasks()
        .filter(|s| {
            s.id() != id
                && s.processor() == me.processor()
                && s.priority().is_at_least(me.priority())
        })
        .map(|s| s.id())
        .collect()
}

/// The blocking term: the longest non-preemptive execution less one tick,
/// or the longest critical section on a resource whose ceiling reaches
/// `id`'s priority, among lower-priority subtasks on `id`'s processor.
fn oracle_blocking(set: &TaskSet, id: SubtaskId) -> Dur {
    let me = set.subtask(id);
    let ceiling = |r| {
        set.subtasks()
            .filter(|s| s.critical_sections().iter().any(|cs| cs.resource == r))
            .map(|s| s.priority())
            .min()
    };
    set.subtasks()
        .filter(|s| s.processor() == me.processor() && me.priority().is_higher_than(s.priority()))
        .flat_map(|s| {
            let np = (!s.is_preemptible()).then(|| (s.execution() - d(1)).max(Dur::ZERO));
            let sections = s
                .critical_sections()
                .iter()
                .filter(|cs| ceiling(cs.resource).is_some_and(|c| c.is_at_least(me.priority())))
                .map(|cs| cs.len);
            np.into_iter().chain(sections)
        })
        .max()
        .unwrap_or(Dur::ZERO)
}

/// The jitters `id`'s IEERT evaluation reads: those of `H_{i,j}`, then its
/// own.
fn oracle_inputs(set: &TaskSet, id: SubtaskId, bound: &dyn Fn(SubtaskId) -> Dur) -> Vec<Dur> {
    let jitter = |s: SubtaskId| s.predecessor().map_or(Dur::ZERO, bound);
    oracle_interference(set, id)
        .into_iter()
        .chain([id])
        .map(jitter)
        .collect()
}

/// Figure 10, steps 1–4, for one subtask: cold fixed points and all `M`
/// instances. `bound(s)` is the current IEER bound of subtask `s`.
/// Returns the per-instance IEERs `R(1..=M)`.
fn oracle_instances(
    set: &TaskSet,
    id: SubtaskId,
    bound: &dyn Fn(SubtaskId) -> Dur,
    cfg: &AnalysisConfig,
) -> Result<Vec<Dur>, AnalyzeError> {
    let jitter = |s: SubtaskId| s.predecessor().map_or(Dur::ZERO, bound);
    let period = set.task(id.task()).period();
    let own_jitter = jitter(id);
    let interference: Vec<DemandTerm> = oracle_interference(set, id)
        .into_iter()
        .map(|s| {
            DemandTerm::jittered(
                set.task(s.task()).period(),
                set.subtask(s).execution(),
                jitter(s),
            )
        })
        .collect();
    let blocking = oracle_blocking(set, id);

    // Step 1: D = least t with t = B + Σ_{H ∪ self} ⌈(t + J)/p⌉·c.
    let mut with_self = interference.clone();
    with_self.push(DemandTerm::jittered(
        period,
        set.subtask(id).execution(),
        own_jitter,
    ));
    let busy_cap = with_self
        .iter()
        .map(|t| t.period)
        .sum::<Dur>()
        .saturating_mul(cfg.failure_factor)
        .saturating_add(with_self.iter().map(|t| t.jitter).sum());
    let limits = FixedPointLimits::new(busy_cap, cfg.max_fixed_point_iterations);
    let busy = fixed_point(blocking, &with_self, limits).map_err(|f| match f {
        FixedPointFailure::ExceedsCap if utilization_ppm(&with_self) >= 1_000_000 => {
            AnalyzeError::Overload {
                subtask: id,
                utilization_ppm: utilization_ppm(&with_self),
            }
        }
        other => failure(other, id, busy_cap),
    })?;

    // Step 2: M = ⌈(D + J)/p⌉.
    let overflow = || AnalyzeError::ArithmeticOverflow { subtask: id };
    let instances = busy
        .checked_add(own_jitter)
        .ok_or_else(overflow)?
        .ceil_div(period)
        .max(1);

    // Step 3: R(m) = C(m) + J − (m−1)p for every m ≤ M.
    let limits = FixedPointLimits::new(busy, cfg.max_fixed_point_iterations);
    (1..=instances)
        .map(|m| {
            let offset = set
                .subtask(id)
                .execution()
                .checked_mul(m)
                .and_then(|x| x.checked_add(blocking))
                .ok_or_else(overflow)?;
            let completion =
                fixed_point(offset, &interference, limits).map_err(|f| failure(f, id, busy))?;
            Ok(completion.checked_add(own_jitter).ok_or_else(overflow)? - period * (m - 1))
        })
        .collect()
}

/// Step 4 plus the failure criterion: `R′ = max_m R(m)`, a failure when it
/// exceeds `failure_factor × period`.
fn oracle_ieer(
    set: &TaskSet,
    id: SubtaskId,
    bound: &dyn Fn(SubtaskId) -> Dur,
    cfg: &AnalysisConfig,
) -> Result<Dur, AnalyzeError> {
    let worst = oracle_instances(set, id, bound, cfg)?
        .into_iter()
        .max()
        .expect("M ≥ 1");
    let cap = cfg.cap_for_period(set.task(id.task()).period());
    if worst > cap {
        return Err(AnalyzeError::BoundExceedsCap { subtask: id, cap });
    }
    Ok(worst)
}

/// One oracle Jacobi sweep. `last_inputs` holds each subtask's jitters at
/// its previous evaluation; `solved` counts the evaluations whose jitters
/// differ from those (or that have none).
fn oracle_sweep(
    set: &TaskSet,
    current: &IeerBounds,
    cfg: &AnalysisConfig,
    last_inputs: &mut HashMap<SubtaskId, Vec<Dur>>,
    solved: &mut u64,
) -> Result<IeerBounds, AnalyzeError> {
    let mut next = current.as_slices().to_vec();
    for sub in set.subtasks() {
        let id = sub.id();
        let inputs = oracle_inputs(set, id, &|s| current.get(s));
        if last_inputs.get(&id) != Some(&inputs) {
            *solved += 1;
        }
        last_inputs.insert(id, inputs);
        next[id.task().index()][id.index()] = oracle_ieer(set, id, &|s| current.get(s), cfg)?;
    }
    Ok(IeerBounds::from_raw(next))
}

fn task_bounds(set: &TaskSet, b: &IeerBounds) -> Vec<Dur> {
    (0..set.num_tasks())
        .map(|i| b.task_bound(TaskId::new(i)))
        .collect()
}

/// The subtask with the largest bound-to-period ratio (first on ties).
fn worst_ratio_subtask(set: &TaskSet, bounds: &IeerBounds) -> SubtaskId {
    let ratio = |s: SubtaskId| {
        (
            i128::from(bounds.get(s).ticks()),
            i128::from(set.task(s.task()).period().ticks()),
        )
    };
    set.subtasks()
        .map(|s| s.id())
        .fold(None, |best: Option<SubtaskId>, s| match best {
            Some(b) => {
                let ((nb, pb), (ns, ps)) = (ratio(b), ratio(s));
                Some(if ns * pb > nb * ps { s } else { b })
            }
            None => Some(s),
        })
        .expect("non-empty set")
}

/// Figure 11 driven by the oracle sweep: `(bounds, sweeps)` or the error,
/// plus the convergence report `analyze_ds_traced` must reproduce.
fn oracle_ds(
    set: &TaskSet,
    cfg: &AnalysisConfig,
    seed: IeerBounds,
) -> (Result<(IeerBounds, u64), AnalyzeError>, IeertReport) {
    let mut report = IeertReport {
        trajectory: vec![task_bounds(set, &seed)],
        ..IeertReport::default()
    };
    let mut bounds = seed;
    let mut last_inputs = HashMap::new();
    for sweep in 1..=cfg.max_outer_iterations {
        report.sweeps = sweep;
        let swept = oracle_sweep(set, &bounds, cfg, &mut last_inputs, &mut report.solved);
        let next = match swept {
            Ok(next) => next,
            Err(e) => return (Err(e), report),
        };
        report.deltas.push(
            set.subtasks()
                .map(|s| next.get(s.id()) - bounds.get(s.id()))
                .max()
                .unwrap_or(Dur::ZERO),
        );
        report.trajectory.push(task_bounds(set, &next));
        if next == bounds {
            report.converged = true;
            return (Ok((bounds, sweep)), report);
        }
        bounds = next;
    }
    let err = AnalyzeError::IterationLimit {
        subtask: worst_ratio_subtask(set, &bounds),
        limit: cfg.max_outer_iterations,
    };
    (Err(err), report)
}

/// Asserts that the kernel-driven SA/DS run from `seed` returns exactly
/// what the oracle-driven loop returns.
fn assert_matches_oracle(set: &TaskSet, cfg: &AnalysisConfig, seed: IeerBounds) {
    let (expected, _) = oracle_ds(set, cfg, seed.clone());
    let got = analyze_ds_seeded(set, cfg, seed).map(|b| (b.bounds().clone(), b.sweeps()));
    assert_eq!(got, expected, "on\n{set:?}");
}

/// The first `k` tasks of `set`, with their priorities unchanged.
fn prefix(set: &TaskSet, k: usize) -> TaskSet {
    let mut builder = TaskSet::builder(set.num_processors());
    for task in &set.tasks()[..k] {
        let mut chain = builder.task(task.period()).deadline(task.deadline());
        for sub in task.subtasks() {
            let (proc, exec, prio) = (sub.processor().index(), sub.execution(), sub.priority());
            chain = if sub.is_preemptible() {
                chain.subtask(proc, exec, prio)
            } else {
                chain.nonpreemptive_subtask(proc, exec, prio)
            };
        }
        builder = chain.finish_task();
    }
    builder.build().expect("a prefix of a valid set is valid")
}

const UTILIZATIONS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];

/// Cases per property: `PROPTEST_CASES` when set, else 16 (about 25 s in
/// a debug build).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// §5.1 systems across N = 2..8 × U = 0.5..0.9 (failing cells
    /// included): a cold run, a traced run, a run whose sweep budget runs
    /// out, and a run warm-started from the converged bounds of a prefix
    /// system (the admission path) all equal the oracle-driven loop.
    #[test]
    fn kernel_matches_the_figure_10_oracle(
        n in 2usize..=8,
        u in 0usize..5,
        seed in 0u64..1_000_000,
        nonpreemptive in 0u8..4,
        keep in 1usize..12,
    ) {
        let mut spec = WorkloadSpec::paper(n, UTILIZATIONS[u]);
        if nonpreemptive == 0 {
            spec = spec.with_nonpreemptive_fraction(0.25);
        }
        let set = generate_seeded(&spec, seed).expect("paper spec generates");
        let cfg = AnalysisConfig::default();

        let (jacobi, report) = oracle_ds(&set, &cfg, IeerBounds::seed(&set));
        let got = analyze_ds(&set, &cfg)
            .map(|b| (b.bounds().clone(), b.sweeps()));
        prop_assert_eq!(&got, &jacobi);
        let traced = analyze_ds_traced(&set, &cfg)
            .map(|(b, r)| (b.map(|b| (b.bounds().clone(), b.sweeps())), r));
        let expected = match jacobi {
            Ok(b) => Ok((Some(b), report)),
            Err(e) if e.is_failure() => Ok((None, report)),
            Err(e) => Err(e),
        };
        prop_assert_eq!(traced, expected);

        // A sweep budget too small to converge: the IterationLimit payload
        // names the same subtask.
        let short = AnalysisConfig { max_outer_iterations: 2, ..cfg };
        assert_matches_oracle(&set, &short, IeerBounds::seed(&set));

        // Admission-style priors: the retained chains' converged bounds in
        // the smaller system seed the grown one.
        let k = keep % set.num_tasks();
        if k > 0 {
            let small = prefix(&set, k);
            if let (Ok((prior, _)), _) =
                oracle_ds(&small, &cfg, IeerBounds::seed(&small))
            {
                let seed = IeerBounds::seed_with(&set, |s| {
                    (s.task().index() < k).then(|| prior.get(s))
                });
                assert_matches_oracle(&set, &cfg, seed);
            }
        }
    }
}

/// A two-processor system in which the analyzed subtask `T0.1` inherits a
/// release jitter of several of its periods and its worst instance is the
/// fifth, not the first.
///
/// `P1` hosts `T0.0` (c = 1) under `T2.0` (period 1000, c = 290), so
/// `R_{0,0} = 291`: up to ~3 periods of `T0` clump together at `T0.1`.
/// `P0` hosts Lehoczky's pair: `T1.0` (period 70, c = 26) above `T0.1`
/// (period 100, c = 62), U ≈ 0.99, whose level-i busy period holds several
/// instances with the fifth completing latest relative to its release.
fn clumped_lehoczky_pair() -> TaskSet {
    TaskSet::builder(2)
        .task(d(100))
        .subtask(1, d(1), Priority::new(2))
        .subtask(0, d(62), Priority::new(1))
        .finish_task()
        .task(d(70))
        .subtask(0, d(26), Priority::new(0))
        .finish_task()
        .task(d(1000))
        .subtask(1, d(290), Priority::new(0))
        .finish_task()
        .build()
        .expect("valid set")
}

#[test]
fn early_stop_is_exact_when_the_worst_instance_is_late() {
    let set = clumped_lehoczky_pair();
    let cfg = AnalysisConfig::default();
    let (expected, _) = oracle_ds(&set, &cfg, IeerBounds::seed(&set));
    let (fixed, _) = expected.clone().expect("the system converges");

    // At the fixed point T0.1's jitter spans several periods and its worst
    // instance is not the first.
    let subject = sid(0, 1);
    let jitter = fixed.get(sid(0, 0));
    assert!(jitter > d(2 * 100), "own jitter {jitter:?}");
    let instances = oracle_instances(&set, subject, &|s| fixed.get(s), &cfg).unwrap();
    let worst = *instances.iter().max().unwrap();
    let first_worst = instances.iter().position(|&r| r == worst).unwrap() + 1;
    assert!(
        first_worst > 1,
        "worst instance {first_worst} of {instances:?}"
    );
    assert!(worst > instances[0]);

    // One kernel sweep from the fixed point and the SA/DS run agree with
    // the oracle.
    assert_eq!(ieert_pass(&set, &fixed, &cfg).unwrap(), fixed);
    assert_matches_oracle(&set, &cfg, IeerBounds::seed(&set));
    assert_eq!(fixed.get(subject), worst);
}

#[test]
fn lowered_priors_still_match_the_oracle() {
    // Seeds whose first sweep *lowers* an entry: Example 2's `T1.0`
    // converges to 4, so a prior above that shrinks the jitter `T2.0` sees
    // from its interferer `T1.1` after one sweep. The kernel must drop the
    // fixed points it solved under the higher jitter instead of carrying
    // them into later sweeps as hints.
    let set = example2();
    let cfg = AnalysisConfig::default();
    for prior in 5..=12 {
        let seed = IeerBounds::seed_with(&set, |s| (s == sid(1, 0)).then_some(d(prior)));
        assert_matches_oracle(&set, &cfg, seed);
    }
}

#[test]
fn unchanged_jitters_are_not_solved_again() {
    // Large §5.1 systems take tens to hundreds of sweeps to converge, and
    // each sweep after the first re-solves only the subtasks that see a
    // bound that moved.
    let cfg = AnalysisConfig::default();
    let mut multi_sweep = 0;
    for seed in 0..4 {
        let set =
            generate_seeded(&WorkloadSpec::paper(8, 0.7), seed).expect("paper spec generates");
        let (bounds, report) = analyze_ds_traced(&set, &cfg).expect("no overflow");
        if bounds.is_none() || report.sweeps < 2 {
            continue;
        }
        multi_sweep += 1;
        let evaluations = report.sweeps * set.num_subtasks() as u64;
        assert!(
            report.solved < evaluations,
            "seed {seed}: {} of {evaluations} evaluations solved",
            report.solved
        );
        assert!(report.solved >= set.num_subtasks() as u64);
    }
    assert!(multi_sweep > 0, "no converging multi-sweep system drawn");
}

#[test]
fn dropped_jitters_still_match_the_oracle() {
    // Seeds that raise every chain's first subtask above its first-sweep
    // value: the first sweep lowers those bounds, so the jitters of their
    // successors and of everything those interfere with drop in sweep 2.
    // The kernel discards the fixed points solved under the higher
    // jitters, and a skipped evaluation may only repeat a value solved
    // under the current ones.
    let cfg = AnalysisConfig::default();
    for (n, u, seed) in [(4, 0.7, 11), (6, 0.8, 12), (8, 0.6, 13), (3, 0.9, 14)] {
        let set = generate_seeded(&WorkloadSpec::paper(n, u), seed).expect("paper spec generates");
        let first = oracle_sweep(
            &set,
            &IeerBounds::seed(&set),
            &cfg,
            &mut HashMap::new(),
            &mut 0,
        )
        .expect("first sweep succeeds");
        let seed = IeerBounds::seed_with(&set, |s| {
            s.is_first()
                .then(|| first.get(s) + set.task(s.task()).period() / 4)
        });
        let lowered = oracle_sweep(&set, &seed, &cfg, &mut HashMap::new(), &mut 0)
            .expect("the raised sweep succeeds");
        assert!(
            set.subtasks()
                .any(|s| s.id().is_first() && lowered.get(s.id()) < seed.get(s.id())),
            "no first-sweep bound dropped"
        );
        assert_matches_oracle(&set, &cfg, seed);
    }
}
