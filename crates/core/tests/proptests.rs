//! Property-based tests of the core primitives: tick arithmetic, the
//! busy-period solver, priority keys, the release-guard machine, the text
//! format, the task set's priority index, and basic analysis laws.

use proptest::prelude::*;
use rtsync_core::analysis::admission::{
    AdmissionConfig, AdmissionMode, AdmissionState, ChainRequest, RejectReason, RetireError,
};
use rtsync_core::analysis::busy_period::{
    fixed_point, fixed_point_with_hint_counted, DemandTerm, FixedPointLimits,
};
use rtsync_core::analysis::sa_ds::analyze_ds;
use rtsync_core::analysis::sa_pm::analyze_pm;
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::error::{AnalyzeError, ValidateTaskSetError};
use rtsync_core::priority::{
    build_with_policy, ChainSpec, PriorityKey, ProportionalDeadlineMonotonic,
};
use rtsync_core::release_guard::{GuardDecision, ReleaseGuard};
use rtsync_core::task::{Priority, ProcessorId, SubtaskId, TaskId, TaskSet};
use rtsync_core::textfmt;
use rtsync_core::time::{Dur, Time};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `ceil_div` agrees with the mathematical ceiling of the rational.
    #[test]
    fn ceil_div_is_mathematical_ceiling(num in -10_000i64..10_000, den in 1i64..500) {
        let got = Dur::from_ticks(num).ceil_div(Dur::from_ticks(den));
        let expect = (num as f64 / den as f64).ceil() as i64;
        prop_assert_eq!(got, expect);
        // And floor_div likewise.
        let got = Dur::from_ticks(num).floor_div(Dur::from_ticks(den));
        let expect = (num as f64 / den as f64).floor() as i64;
        prop_assert_eq!(got, expect);
    }

    /// Time/Dur arithmetic laws.
    #[test]
    fn time_arithmetic_laws(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let t = Time::from_ticks(a);
        let d = Dur::from_ticks(b);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!(t - t, Dur::ZERO);
        prop_assert_eq!(d + (-d), Dur::ZERO);
    }

    /// The busy-period solver returns the *least* fixed point of the
    /// demand equation.
    #[test]
    fn fixed_point_is_least(
        offset in 1i64..20,
        terms in prop::collection::vec((2i64..30, 1i64..6, 0i64..40), 0..4),
    ) {
        let terms: Vec<DemandTerm> = terms
            .into_iter()
            .map(|(p, c, j)| DemandTerm::jittered(
                Dur::from_ticks(p),
                Dur::from_ticks(c.min(p)), // keep utilization ≤ 1 per term
                Dur::from_ticks(j),
            ))
            .collect();
        let limits = FixedPointLimits::new(Dur::from_ticks(1_000_000), 1_000_000);
        let Ok(t) = fixed_point(Dur::from_ticks(offset), &terms, limits) else {
            return Ok(()); // genuinely unbounded (utilization ≥ 1)
        };
        let demand = |x: Dur| -> Dur {
            Dur::from_ticks(offset)
                + terms.iter().map(|term| term.demand(x).unwrap()).sum::<Dur>()
        };
        // Fixed point…
        prop_assert_eq!(demand(t), t);
        // …and least: every smaller positive instant violates the equation
        // from below (demand exceeds the candidate).
        for x in 1..t.ticks() {
            let x = Dur::from_ticks(x);
            prop_assert!(demand(x) > x, "{x:?} would be an earlier fixed point");
        }
    }

    /// Seeding the solver with any valid hint (≤ least fixed point) does
    /// not change the answer.
    #[test]
    fn hinted_fixed_point_agrees(
        offset in 1i64..20,
        terms in prop::collection::vec((2i64..30, 1i64..6, 0i64..40), 0..4),
        hint_frac in 0.0f64..1.0,
    ) {
        let terms: Vec<DemandTerm> = terms
            .into_iter()
            .map(|(p, c, j)| DemandTerm::jittered(
                Dur::from_ticks(p),
                Dur::from_ticks(c.min(p)),
                Dur::from_ticks(j),
            ))
            .collect();
        let limits = FixedPointLimits::new(Dur::from_ticks(1_000_000), 1_000_000);
        let Ok(t) = fixed_point(Dur::from_ticks(offset), &terms, limits) else {
            return Ok(());
        };
        let hint = Dur::from_ticks((t.ticks() as f64 * hint_frac) as i64);
        let hint_at = |hint| {
            fixed_point_with_hint_counted(hint, Dur::from_ticks(offset), &terms, limits)
                .unwrap()
                .0
        };
        prop_assert_eq!(hint_at(hint), t);
        // Near-lfp hints drive the "demand does not grow past the
        // iterate" early return: a hint of exactly the least fixed point
        // (and one tick under it) must still land on the same answer.
        prop_assert_eq!(hint_at(t), t);
        prop_assert_eq!(hint_at(Dur::from_ticks((t.ticks() - 1).max(0))), t);
    }

    /// PriorityKey's exact rational order agrees with cross-multiplication
    /// (and is antisymmetric / transitive by construction of `Ord`).
    #[test]
    fn priority_key_orders_like_rationals(
        a in -10_000i128..10_000, b in 1i128..10_000,
        c in -10_000i128..10_000, d in 1i128..10_000,
    ) {
        let left = PriorityKey::ratio(a, b);
        let right = PriorityKey::ratio(c, d);
        let expect = (a * d).cmp(&(c * b));
        prop_assert_eq!(left.cmp(&right), expect);
    }

    /// Release-guard conservation: every offered signal is eventually
    /// released exactly once (by ReleaseNow, expiry or idle point), never
    /// while an earlier signal still waits, and in the order offered.
    #[test]
    fn guard_conserves_signals(
        period in 2i64..12,
        script in prop::collection::vec((1i64..6, 0u8..3), 1..40),
    ) {
        let mut g = ReleaseGuard::new(Dur::from_ticks(period));
        let mut now = Time::ZERO;
        let mut offered = 0u64;
        let mut released = Vec::new();
        for (advance, action) in script {
            now += Dur::from_ticks(advance);
            match action {
                // A predecessor completion arrives.
                0 => {
                    if let GuardDecision::ReleaseNow = g.offer(now, offered) {
                        g.on_release(now);
                        released.push(offered);
                    }
                    offered += 1;
                }
                // The pending head comes due (if it is).
                1 => {
                    if let Some(due) = g.next_expiry() {
                        if now >= due {
                            let m = g.take_due(now);
                            prop_assert!(m.is_some(), "a due head is released");
                            g.on_release(now);
                            released.extend(m);
                        }
                    }
                }
                // An idle point.
                _ => {
                    if let Some(m) = g.on_idle_point(now) {
                        g.on_release(now);
                        released.push(m);
                    }
                }
            }
            prop_assert_eq!(offered as usize, released.len() + g.pending_len());
            prop_assert!(
                released.iter().copied().eq(0..released.len() as u64),
                "released out of offer order: {:?}",
                released
            );
        }
    }

    /// SA/PM basics on random two-processor systems: every subtask bound
    /// is at least its execution time, and every task bound at least the
    /// chain's total execution.
    #[test]
    fn sa_pm_bounds_dominate_execution(
        chains in prop::collection::vec(
            (5i64..50, prop::collection::vec((0usize..2, 1i64..4), 1..3)),
            1..4,
        ),
    ) {
        let specs: Vec<ChainSpec> = chains
            .into_iter()
            .map(|(p, subs)| {
                let mut prev = usize::MAX;
                let subs = subs
                    .into_iter()
                    .map(|(proc, c)| {
                        let proc = if proc == prev { (proc + 1) % 2 } else { proc };
                        prev = proc;
                        (proc, Dur::from_ticks(c))
                    })
                    .collect();
                ChainSpec::new(Dur::from_ticks(p), subs)
            })
            .collect();
        let set = build_with_policy(2, &specs, &ProportionalDeadlineMonotonic).unwrap();
        let Ok(bounds) = analyze_pm(&set, &AnalysisConfig::default()) else {
            return Ok(());
        };
        for task in set.tasks() {
            prop_assert!(bounds.task_bound(task.id()) >= task.total_execution());
            for sub in task.subtasks() {
                prop_assert!(bounds.response(sub.id()) >= sub.execution());
            }
        }
    }

    /// The text format round-trips every valid system it can print.
    #[test]
    fn textfmt_roundtrip(
        chains in prop::collection::vec(
            (2i64..60, 0i64..10, prop::collection::vec((0usize..3, 1i64..5), 1..4)),
            1..5,
        ),
    ) {
        let specs: Vec<ChainSpec> = chains
            .into_iter()
            .map(|(p, phase, subs)| {
                let mut prev = usize::MAX;
                let subs = subs
                    .into_iter()
                    .map(|(proc, c)| {
                        let proc = if proc == prev { (proc + 1) % 3 } else { proc };
                        prev = proc;
                        (proc, Dur::from_ticks(c))
                    })
                    .collect();
                ChainSpec::new(Dur::from_ticks(p), subs).with_phase(Time::from_ticks(phase))
            })
            .collect();
        let set: TaskSet =
            build_with_policy(3, &specs, &ProportionalDeadlineMonotonic).unwrap();
        let text = textfmt::to_text(&set);
        let parsed = textfmt::parse(&text).unwrap();
        prop_assert_eq!(parsed, set);
    }

    /// Incremental admission control with memoization on is bit-identical
    /// to a from-scratch batch re-analysis (memoization off) across
    /// arbitrary admit/retire sequences, in both analysis modes: same
    /// verdicts, same bounds, same reject reasons, same resident state.
    /// With the utilization gate off, overloaded candidates reach SA/PM
    /// and SA/DS, so the overload verdict is compared too. A failure
    /// factor of 1..=5 (0 keeps the default 300) makes both kernel caps
    /// (busy period and per-instance) trip, so their payloads are
    /// compared as well.
    #[test]
    fn incremental_admission_matches_batch(
        direct_sync in prop::bool::ANY,
        quick_gate in prop::bool::ANY,
        tight_cap in 0i64..6,
        ops in prop::collection::vec(
            (
                0u8..4,                                       // 0 = retire, else admit
                2i64..40,                                     // period
                1i64..4,                                      // deadline = period × this
                0u32..6,                                      // rank
                prop::collection::vec((0usize..2, 1i64..4), 1..3), // subtasks
            ),
            1..16,
        ),
    ) {
        let mode = if direct_sync {
            AdmissionMode::DirectSync
        } else {
            AdmissionMode::PmFamily
        };
        let mut cfg = AdmissionConfig::new(mode).with_quick_gate(quick_gate);
        if tight_cap > 0 {
            cfg.analysis.failure_factor = tight_cap;
        }
        replay_warm_and_cold(cfg, ops)?;
    }
}

/// One drawn subtask: `(processor, execution, non-preemptive if 0,
/// priority draw, (critical section if 0, start, length, resource slot))`.
type SubtaskDraw = (usize, i64, u8, u32, (u8, i64, i64, usize));

/// A valid task set from raw draws: consecutive subtasks move to the next
/// processor when they would repeat one, priorities are made unique by a
/// per-subtask tie-break, and resource `proc + procs·slot` is used only on
/// processor `proc`, so every resource stays on one processor.
fn drawn_set(procs: usize, chains: Vec<(i64, Vec<SubtaskDraw>)>) -> TaskSet {
    let mut builder = TaskSet::builder(procs);
    let mut serial = 0;
    for (period, subtasks) in chains {
        let mut chain = builder.task(Dur::from_ticks(period));
        let mut prev = usize::MAX;
        let len = if procs == 1 { 1 } else { subtasks.len() };
        for (proc, exec, np, prio, (cs, start, cs_len, slot)) in subtasks.into_iter().take(len) {
            let proc = if proc % procs == prev {
                (prev + 1) % procs
            } else {
                proc % procs
            };
            prev = proc;
            let prio = Priority::new(prio * 64 + serial);
            serial += 1;
            let exec = Dur::from_ticks(exec);
            chain = if np == 0 {
                chain.nonpreemptive_subtask(proc, exec, prio)
            } else {
                chain.subtask(proc, exec, prio)
            };
            if cs == 0 && start < exec.ticks() {
                let cs_len = cs_len.min(exec.ticks() - start);
                chain = chain.critical_section(
                    proc + procs * slot,
                    Dur::from_ticks(start),
                    Dur::from_ticks(cs_len),
                );
            }
        }
        builder = chain.finish_task();
    }
    builder.build().expect("drawn sets are valid")
}

/// `set` rebuilt through the builder from its public parts.
fn rebuilt(set: &TaskSet) -> TaskSet {
    let mut builder = TaskSet::builder(set.num_processors());
    for task in set.tasks() {
        let mut chain = builder
            .task(task.period())
            .phase(task.phase())
            .deadline(task.deadline());
        for sub in task.subtasks() {
            let (proc, exec, prio) = (sub.processor().index(), sub.execution(), sub.priority());
            chain = if sub.is_preemptible() {
                chain.subtask(proc, exec, prio)
            } else {
                chain.nonpreemptive_subtask(proc, exec, prio)
            };
            for cs in sub.critical_sections() {
                chain = chain.critical_section(cs.resource.index(), cs.start, cs.len);
            }
        }
        builder = chain.finish_task();
    }
    builder.build().expect("a valid set rebuilds")
}

/// `B_{i,j}` by a full scan: the longest non-preemptive execution less one
/// tick, or the longest critical section on a resource whose ceiling
/// reaches `id`'s priority, among lower-priority subtasks on `id`'s
/// processor.
fn scanned_blocking(set: &TaskSet, id: SubtaskId) -> Dur {
    let me = set.subtask(id);
    set.subtasks()
        .filter(|s| s.processor() == me.processor() && me.priority().is_higher_than(s.priority()))
        .flat_map(|s| {
            let np =
                (!s.is_preemptible()).then(|| (s.execution() - Dur::from_ticks(1)).max(Dur::ZERO));
            let sections = s
                .critical_sections()
                .iter()
                .filter(|cs| {
                    set.subtasks()
                        .filter(|u| {
                            u.critical_sections()
                                .iter()
                                .any(|c| c.resource == cs.resource)
                        })
                        .any(|u| u.priority().is_at_least(me.priority()))
                })
                .map(|cs| cs.len);
            np.into_iter().chain(sections)
        })
        .max()
        .unwrap_or(Dur::ZERO)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The priority index answers what a scan over every subtask answers:
    /// the subtasks on each processor (highest priority first), each
    /// interference set `H_{i,j}`, and each blocking bound, over sets with
    /// non-preemptive subtasks and critical sections. Equality and `Debug`
    /// see only the processors and the tasks.
    #[test]
    fn priority_index_matches_a_full_scan(
        procs in 1usize..4,
        chains in prop::collection::vec(
            (
                2i64..200,
                prop::collection::vec(
                    (0usize..4, 1i64..12, 0u8..4, 0u32..40, (0u8..3, 0i64..12, 1i64..6, 0usize..2)),
                    1..4,
                ),
            ),
            1..7,
        ),
    ) {
        let set = drawn_set(procs, chains);
        let sorted = |mut ids: Vec<SubtaskId>| {
            ids.sort();
            ids
        };
        for p in 0..=procs {
            let proc = ProcessorId::new(p);
            let indexed: Vec<_> = set.subtasks_on(proc).collect();
            prop_assert!(indexed.windows(2).all(|w| w[0].priority().is_higher_than(w[1].priority())));
            let scanned: Vec<_> = set
                .subtasks()
                .filter(|s| s.processor() == proc)
                .map(|s| s.id())
                .collect();
            prop_assert_eq!(sorted(indexed.iter().map(|s| s.id()).collect()), scanned);
        }
        for sub in set.subtasks() {
            let id = sub.id();
            let scanned: Vec<_> = set
                .subtasks()
                .filter(|s| {
                    s.id() != id
                        && s.processor() == sub.processor()
                        && s.priority().is_at_least(sub.priority())
                })
                .map(|s| s.id())
                .collect();
            prop_assert_eq!(sorted(set.interference_set(id).map(|s| s.id()).collect()), scanned);
            prop_assert_eq!(set.blocking_bound(id), scanned_blocking(&set, id));
        }
        prop_assert_eq!(
            format!("{set:?}"),
            format!(
                "TaskSet {{ num_processors: {}, tasks: {:?} }}",
                set.num_processors(),
                set.tasks()
            )
        );
        let copy = rebuilt(&set);
        prop_assert_eq!(format!("{copy:?}"), format!("{set:?}"));
        prop_assert_eq!(copy, set);
    }
}

/// One admission-control step: `(op, period, deadline factor, rank,
/// subtasks)`, where op 0 retires and anything else admits.
type AdmissionOp = (u8, i64, i64, u32, Vec<(usize, i64)>);

/// One request to both engines of a replay.
enum Step {
    Admit(ChainRequest),
    Retire(u64),
}

/// The chain `(period, deadline factor, rank, subtasks)` draws describe.
fn drawn_request(
    id: u64,
    period: i64,
    dfac: i64,
    rank: u32,
    subs: Vec<(usize, i64)>,
) -> ChainRequest {
    let subtasks = subs
        .into_iter()
        .map(|(proc, c)| (proc, Dur::from_ticks(c)))
        .collect();
    ChainRequest::new(id, Dur::from_ticks(period), subtasks)
        .with_deadline(Dur::from_ticks(period * dfac))
        .with_rank(rank)
}

/// Replays `ops` on a memoized and a from-scratch admission state over two
/// processors and checks that every verdict and the resident state agree.
/// Returns the from-scratch reject reason of each step (`None` for admits
/// and retires).
fn replay_warm_and_cold(
    cfg: AdmissionConfig,
    ops: Vec<AdmissionOp>,
) -> Result<Vec<Option<RejectReason>>, TestCaseError> {
    let steps = ops
        .into_iter()
        .enumerate()
        .map(|(i, (op, period, dfac, rank, subs))| {
            // A small id space so retires hit residents and duplicate
            // admits genuinely occur.
            let id = (i % 5) as u64;
            if op == 0 {
                Step::Retire(id)
            } else {
                Step::Admit(drawn_request(id, period, dfac, rank, subs))
            }
        })
        .collect();
    replay_steps(cfg, 2, steps)
}

/// The task set the builder makes of `chains` in priority order, the
/// chain at position `pos` with priorities `pos·stride + j` (`stride` the
/// longest chain), as the admission engine orders them.
fn built_from_chains(
    procs: usize,
    chains: &[ChainRequest],
) -> Result<TaskSet, ValidateTaskSetError> {
    let stride = chains
        .iter()
        .map(|c| c.subtasks.len())
        .max()
        .unwrap_or(1)
        .max(1);
    let mut b = TaskSet::builder(procs);
    for (pos, c) in chains.iter().enumerate() {
        let mut tb = b.task(c.period).deadline(c.deadline);
        for (j, &(proc, exec)) in c.subtasks.iter().enumerate() {
            tb = tb.subtask(proc, exec, Priority::new((pos * stride + j) as u32));
        }
        b = tb.finish_task();
    }
    b.build()
}

/// The reject the builder's grown set predicts before any analysis runs:
/// the builder's error for an invalid candidate, else with the gate on the
/// first processor whose floor-rounded utilization exceeds 100%.
fn predicted_reject(
    cfg: AdmissionConfig,
    procs: usize,
    chains: &[ChainRequest],
    req: &ChainRequest,
) -> Option<RejectReason> {
    if chains.iter().any(|c| c.id == req.id) {
        return Some(RejectReason::DuplicateId);
    }
    let mut grown = chains.to_vec();
    grown.insert(chains.partition_point(|c| c.rank <= req.rank), req.clone());
    match built_from_chains(procs, &grown) {
        Err(e) => Some(RejectReason::Invalid(e)),
        Ok(set) => (0..procs).filter(|_| cfg.quick_gate).find_map(|p| {
            let ppm = set.processor_utilization_ppm(ProcessorId::new(p));
            (ppm > 1_000_000).then_some(RejectReason::UtilizationGate {
                processor: ProcessorId::new(p),
                utilization_ppm: ppm,
            })
        }),
    }
}

/// What batch SA/DS decides for an admit that grows `chains` (priority
/// order) to `grown`, the candidate at `pos`: the first analysis error,
/// else the first chain past its deadline, else the candidate's bound.
fn batch_ds_verdict(
    cfg: &AnalysisConfig,
    procs: usize,
    grown: &[ChainRequest],
    pos: usize,
) -> Result<Dur, RejectReason> {
    let set = built_from_chains(procs, grown).expect("a valid grown set");
    let ds = analyze_ds(&set, cfg).map_err(RejectReason::Analysis)?;
    for (i, chain) in grown.iter().enumerate() {
        let bound = ds.task_bound(TaskId::new(i));
        if bound > chain.deadline {
            return Err(RejectReason::DeadlineMiss {
                chain: chain.id,
                bound,
                deadline: chain.deadline,
            });
        }
    }
    Ok(ds.task_bound(TaskId::new(pos)))
}

/// Replays `steps` on a memoized and a from-scratch admission state over
/// `procs` processors. After every step the verdicts, bounds, reject
/// payloads and resident state must agree, a rejected admit must leave
/// the memoized state's resident bounds and task set as they were, and
/// the memoized state's task set, which it edits in place, must equal the
/// builder's set of the residents' chains, priority index included.
/// Duplicate, invalid and gated admits must carry the reject the
/// builder's grown set predicts, and no other admit may be gated. In DS
/// mode every admit that reaches the analysis must also carry the verdict
/// batch [`analyze_ds`] gives on the builder's grown set, and every
/// retire the outcome and bounds it gives on the shrunk set.
fn replay_steps(
    cfg: AdmissionConfig,
    procs: usize,
    steps: Vec<Step>,
) -> Result<Vec<Option<RejectReason>>, TestCaseError> {
    let mut warm = AdmissionState::new(procs, cfg);
    let mut cold = AdmissionState::new(procs, cfg.with_memoization(false));
    let direct_sync = cfg.mode == AdmissionMode::DirectSync;
    let mut rejects = Vec::new();
    // The residents' chains in priority order: rank, then seniority.
    let mut chains: Vec<ChainRequest> = Vec::new();
    for step in steps {
        match step {
            Step::Retire(id) => {
                // The reanalyzed/skipped work counters legitimately differ
                // between the two configurations; the verdicts must not.
                let a = warm.retire(id);
                let b = cold.retire(id);
                prop_assert_eq!(a.is_ok(), b.is_ok());
                // A retire that fails its re-analysis has still removed
                // the chain.
                if !matches!(a, Err(RetireError::UnknownChain(_))) {
                    chains.retain(|c| c.id != id);
                    if direct_sync && !chains.is_empty() {
                        let set = built_from_chains(procs, &chains).expect("a valid set");
                        match analyze_ds(&set, &cfg.analysis) {
                            Ok(ds) => {
                                prop_assert!(a.is_ok());
                                let bounds: Vec<Dur> =
                                    warm.resident_bounds().iter().map(|r| r.1).collect();
                                prop_assert_eq!(bounds, ds.task_bounds());
                            }
                            Err(e) => {
                                prop_assert_eq!(a.as_ref().err(), Some(&RetireError::Analysis(e)))
                            }
                        }
                    }
                }
                prop_assert_eq!(a.err(), b.err());
                rejects.push(None);
            }
            Step::Admit(req) => {
                let before = warm.resident_bounds();
                let set_before = warm.task_set().cloned();
                let predicted = predicted_reject(cfg, procs, &chains, &req);
                let a = warm.admit(req.clone());
                let b = cold.admit(req.clone());
                match &predicted {
                    Some(reason) => prop_assert_eq!(a.reject.as_ref(), Some(reason)),
                    None => prop_assert!(!matches!(
                        a.reject,
                        Some(
                            RejectReason::DuplicateId
                                | RejectReason::Invalid(_)
                                | RejectReason::UtilizationGate { .. }
                        )
                    )),
                }
                prop_assert_eq!(a.admitted, b.admitted);
                prop_assert_eq!(a.bound, b.bound);
                prop_assert_eq!(&a.reject, &b.reject);
                prop_assert_eq!(a.residents, b.residents);
                let pos = chains.partition_point(|c| c.rank <= req.rank);
                if direct_sync && predicted.is_none() {
                    let mut grown = chains.clone();
                    grown.insert(pos, req.clone());
                    let verdict = batch_ds_verdict(&cfg.analysis, procs, &grown, pos);
                    prop_assert_eq!(a.bound, verdict.as_ref().ok().copied());
                    prop_assert_eq!(a.reject.as_ref(), verdict.as_ref().err());
                }
                if a.admitted {
                    chains.insert(pos, req);
                } else {
                    prop_assert_eq!(warm.resident_bounds(), before);
                    prop_assert_eq!(warm.task_set(), set_before.as_ref());
                }
                rejects.push(b.reject);
            }
        }
        prop_assert_eq!(warm.resident_bounds(), cold.resident_bounds());
        prop_assert_eq!(warm.residents(), cold.residents());
        let built = (!chains.is_empty())
            .then(|| built_from_chains(procs, &chains).expect("residents form a valid set"));
        prop_assert_eq!(warm.task_set(), built.as_ref());
        if let (Some(edited), Some(built)) = (warm.task_set(), &built) {
            for p in 0..procs {
                let on = |set: &TaskSet| -> Vec<SubtaskId> {
                    set.subtasks_on(ProcessorId::new(p))
                        .map(|s| s.id())
                        .collect()
                };
                prop_assert_eq!(on(edited), on(built));
            }
            for sub in built.subtasks() {
                let h = |set: &TaskSet| -> Vec<SubtaskId> {
                    set.interference_set(sub.id()).map(|s| s.id()).collect()
                };
                prop_assert_eq!(h(edited), h(built));
            }
        }
    }
    Ok(rejects)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// DS admission on the resident IEERT kernel is bit-identical to the
    /// from-scratch engine over long mixed admit/retire sequences on three
    /// processors. Ranks share a small range with the residents', so
    /// candidates land above, between and below them and dirty anything
    /// from no resident subtask to all of them; chains of up to four
    /// subtasks revisit processors. Tight failure factors make warm runs
    /// diverge, and rejected admits are followed by further steps on the
    /// rolled-back state. A sweep budget of 2, or of about the resident
    /// subtask count, puts systems on both sides of the bound past which
    /// the engine's one ordered pass could converge where the batch
    /// sweeps run out.
    #[test]
    fn resident_ds_kernel_matches_batch(
        quick_gate in prop::bool::ANY,
        tight_cap in 0i64..6,
        sweeps in (0u8..3, 4u64..24), // default, 2, or 4..24 sweeps
        ops in prop::collection::vec(
            (
                0u8..4,                                            // 0 = retire, else admit
                0u64..8,                                           // chain id
                (4i64..80, 1i64..4),                               // period, deadline factor
                0u32..8,                                           // rank
                prop::collection::vec((0usize..3, 1i64..8), 1..5), // subtasks
            ),
            1..33,
        ),
    ) {
        let mut cfg = AdmissionConfig::new(AdmissionMode::DirectSync).with_quick_gate(quick_gate);
        if tight_cap > 0 {
            cfg.analysis.failure_factor = tight_cap;
        }
        match sweeps {
            (0, _) => {}
            (1, _) => cfg.analysis.max_outer_iterations = 2,
            (_, n) => cfg.analysis.max_outer_iterations = n,
        }
        let steps = ops
            .into_iter()
            .map(|(op, id, (period, dfac), rank, subs)| {
                if op == 0 {
                    return Step::Retire(id);
                }
                // Consecutive subtasks move on when they would repeat a
                // processor.
                let mut prev = usize::MAX;
                let subs = subs
                    .into_iter()
                    .map(|(proc, c)| {
                        let proc = if proc == prev { (proc + 1) % 3 } else { proc };
                        prev = proc;
                        (proc, c)
                    })
                    .collect();
                Step::Admit(drawn_request(id, period, dfac, rank, subs))
            })
            .collect();
        replay_steps(cfg, 3, steps)?;
    }
}

/// A DS admission whose sweeps diverge under a failure factor of 2 trips
/// the busy-period cap, which includes the jitters of the failing sweep.
/// Warm-seeded, the sweep trips at 57 ticks where the cold run trips at
/// 55; the memoized path must still report the cold run's cap.
#[test]
fn warm_ds_divergence_reports_the_cold_cap() {
    let mut cfg = AdmissionConfig::new(AdmissionMode::DirectSync);
    cfg.analysis.failure_factor = 2;
    let ops: Vec<AdmissionOp> = vec![
        (0, 28, 1, 2, vec![(1, 3)]),
        (1, 32, 2, 2, vec![(1, 2)]),
        (2, 32, 2, 1, vec![(1, 2), (1, 2)]),
        (3, 8, 2, 2, vec![(1, 1), (0, 2)]),
        (1, 6, 3, 3, vec![(0, 3), (1, 1)]),
        (3, 13, 3, 1, vec![(0, 3), (1, 3)]),
    ];
    let rejects = replay_warm_and_cold(cfg, ops).unwrap_or_else(|e| panic!("{e:?}"));
    assert!(
        matches!(
            rejects[5],
            Some(RejectReason::Analysis(AnalyzeError::BoundExceedsCap { .. }))
        ),
        "{rejects:?}"
    );
}
