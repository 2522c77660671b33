//! Property-based invariants over randomly structured systems — the
//! paper's theorems exercised far beyond its running examples.

use proptest::prelude::*;
use rtsync::core::analysis::sa_ds::analyze_ds;
use rtsync::core::analysis::sa_pm::analyze_pm;
use rtsync::core::priority::{build_with_policy, ChainSpec, ProportionalDeadlineMonotonic};
use rtsync::core::task::{SubtaskId, TaskId, TaskSet};
use rtsync::core::time::{Dur, Time};
use rtsync::core::{AnalysisConfig, Protocol};
use rtsync::sim::{
    simulate, simulate_observed, ClockModel, FaultConfig, GrayConfig, InvariantKind,
    InvariantObserver, JobId, NonidealConfig, OverloadPolicy, SimConfig, SlowSchedule,
    StallSchedule,
};

/// A random small system: 2–3 processors, 2–4 tasks, chains of 1–3,
/// integer periods 8–60 ticks, executions kept small so most (not all)
/// systems are analyzable. Roughly one subtask in five is non-preemptive
/// and one in five carries a critical section (on its processor's local
/// resource), exercising the blocking-aware extensions everywhere.
fn arb_system() -> impl Strategy<Value = TaskSet> {
    let chain = (1usize..=3).prop_flat_map(|len| {
        (
            8i64..=60, // period
            // (proc, exec, np-die, cs-die, cs-start-seed, cs-len-seed)
            prop::collection::vec((0usize..3, 1i64..=4, 0u8..5, 0u8..5, 0i64..4, 1i64..4), len),
            0i64..=10, // phase
        )
    });
    prop::collection::vec(chain, 2..=4).prop_map(|chains| {
        // Priorities come from PDM below; build chains first.
        let mut specs: Vec<ChainSpec> = Vec::with_capacity(chains.len());
        let mut sections: Vec<Vec<(usize, usize, i64, i64)>> = Vec::new(); // (si, proc, start, len)
        for (period, subs, phase) in chains {
            // Repair the placement constraint: consecutive subtasks must
            // sit on different processors.
            let mut prev = usize::MAX;
            let mut nonpreemptive = Vec::new();
            let mut chain_sections = Vec::new();
            let subs: Vec<(usize, Dur)> = subs
                .into_iter()
                .enumerate()
                .map(|(si, (proc, exec, np_die, cs_die, start_seed, len_seed))| {
                    let proc = if proc == prev { (proc + 1) % 3 } else { proc };
                    prev = proc;
                    if np_die == 0 {
                        nonpreemptive.push(si);
                    }
                    if cs_die == 0 {
                        // One section on the processor-local resource
                        // (resource id = processor index keeps every
                        // resource on a single processor).
                        let start = start_seed % exec;
                        let len = 1 + len_seed % (exec - start);
                        chain_sections.push((si, proc, start, len));
                    }
                    (proc, Dur::from_ticks(exec))
                })
                .collect();
            specs.push(
                ChainSpec::new(Dur::from_ticks(period), subs)
                    .with_phase(Time::from_ticks(phase))
                    .with_nonpreemptive(nonpreemptive),
            );
            sections.push(chain_sections);
        }
        let prioritized = build_with_policy(3, &specs, &ProportionalDeadlineMonotonic)
            .expect("repaired chains are valid");
        // Rebuild with the critical sections attached (the priority pass
        // ignores them; the effective-priority machinery is downstream).
        let mut builder = TaskSet::builder(3);
        for (task, chain_sections) in prioritized.tasks().iter().zip(&sections) {
            let mut tb = builder
                .task(task.period())
                .phase(task.phase())
                .deadline(task.deadline());
            for (si, sub) in task.subtasks().iter().enumerate() {
                tb = if sub.is_preemptible() {
                    tb.subtask(sub.processor().index(), sub.execution(), sub.priority())
                } else {
                    tb.nonpreemptive_subtask(
                        sub.processor().index(),
                        sub.execution(),
                        sub.priority(),
                    )
                };
                for &(csi, proc, start, len) in chain_sections {
                    if csi == si {
                        tb =
                            tb.critical_section(proc, Dur::from_ticks(start), Dur::from_ticks(len));
                    }
                }
            }
            builder = tb.finish_task();
        }
        builder.build().expect("sections fit inside executions")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Precedence is never violated by the signal-driven protocols, on any
    /// system, schedulable or not.
    #[test]
    fn signal_driven_protocols_preserve_precedence(set in arb_system()) {
        for protocol in [Protocol::DirectSync, Protocol::ReleaseGuard] {
            let out = simulate(
                &set,
                &SimConfig::new(protocol).with_instances(10),
            ).unwrap();
            prop_assert!(out.violations.is_empty(), "{protocol:?}");
        }
    }

    /// Releases and completions of every subtask come in instance order,
    /// and each release follows the predecessor's completion (DS).
    #[test]
    fn ds_chain_ordering_in_the_trace(set in arb_system()) {
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::DirectSync).with_instances(8).with_trace(),
        ).unwrap();
        let trace = out.trace.unwrap();
        for task in set.tasks() {
            for sub in task.subtasks() {
                let rels = trace.releases_of(sub.id());
                for w in rels.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
                if let Some(pred) = sub.id().predecessor() {
                    let pred_comps = trace.completions_of(pred);
                    for (m, rel) in rels.iter().enumerate() {
                        prop_assert!(
                            pred_comps.get(m).is_some_and(|c| c == rel),
                            "DS releases exactly at predecessor completion"
                        );
                    }
                }
            }
        }
    }

    /// Theorem 1 + SA/PM soundness: simulated EER under RG (and PM/MPM)
    /// never exceeds the SA/PM bound.
    #[test]
    fn sa_pm_bound_holds_for_rg_and_pm(set in arb_system()) {
        let cfg = AnalysisConfig::default();
        let Ok(bounds) = analyze_pm(&set, &cfg) else {
            return Ok(()); // overloaded system: nothing to check
        };
        for protocol in [
            Protocol::ReleaseGuard,
            Protocol::PhaseModification,
            Protocol::ModifiedPhaseModification,
        ] {
            let out = simulate(&set, &SimConfig::new(protocol).with_instances(12)).unwrap();
            for task in set.tasks() {
                if let Some(max) = out.metrics.task(task.id()).max_eer() {
                    prop_assert!(
                        max <= bounds.task_bound(task.id()),
                        "{protocol:?} task {}: {} > {}",
                        task.id(), max, bounds.task_bound(task.id())
                    );
                }
            }
        }
    }

    /// SA/DS soundness on whatever the simulator observes.
    #[test]
    fn sa_ds_bound_holds_for_ds(set in arb_system()) {
        let cfg = AnalysisConfig::default();
        let Ok(bounds) = analyze_ds(&set, &cfg) else {
            return Ok(());
        };
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::DirectSync).with_instances(12),
        ).unwrap();
        for task in set.tasks() {
            if let Some(max) = out.metrics.task(task.id()).max_eer() {
                prop_assert!(
                    max <= bounds.task_bound(task.id()),
                    "task {}: {} > {}",
                    task.id(), max, bounds.task_bound(task.id())
                );
            }
        }
    }

    /// §4.3: SA/DS bounds dominate SA/PM bounds task by task.
    #[test]
    fn ds_bounds_dominate_pm(set in arb_system()) {
        let cfg = AnalysisConfig::default();
        let (Ok(pm), Ok(ds)) = (analyze_pm(&set, &cfg), analyze_ds(&set, &cfg)) else {
            return Ok(());
        };
        for task in set.tasks() {
            prop_assert!(ds.task_bound(task.id()) >= pm.task_bound(task.id()));
        }
    }

    /// IEER bounds are monotone along each chain (a later subtask's IEER
    /// includes its predecessors').
    #[test]
    fn ieer_monotone_along_chains(set in arb_system()) {
        let cfg = AnalysisConfig::default();
        let Ok(ds) = analyze_ds(&set, &cfg) else { return Ok(()); };
        for task in set.tasks() {
            for j in 1..task.chain_len() {
                let a = ds.ieer(SubtaskId::new(task.id(), j - 1));
                let b = ds.ieer(SubtaskId::new(task.id(), j));
                prop_assert!(b >= a, "task {} link {j}", task.id());
            }
        }
    }

    /// RG inter-release separation: consecutive releases of the same
    /// non-first subtask are at least one period apart, unless its host
    /// processor hit an *idle point* in between (rule 2). An idle point at
    /// `t` means every job released on the processor strictly before `t`
    /// has completed by `t` — it can be instantaneous (the processor may
    /// refill at the same instant), so we check release/completion
    /// backlogs, not busy segments.
    #[test]
    fn rg_inter_release_separation(set in arb_system()) {
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::ReleaseGuard).with_instances(10).with_trace(),
        ).unwrap();
        let trace = out.trace.unwrap();
        for task in set.tasks() {
            let period = task.period();
            for sub in task.subtasks().iter().skip(1) {
                let proc = sub.processor();
                // All release/completion instants on this processor.
                let on_proc = |id: rtsync::sim::JobId| {
                    set.subtask(id.subtask()).processor() == proc
                };
                let releases: Vec<Time> = trace
                    .releases()
                    .iter()
                    .filter(|&&(j, _)| on_proc(j))
                    .map(|&(_, t)| t)
                    .collect();
                let completions: Vec<Time> = trace
                    .completions()
                    .iter()
                    .filter(|&&(j, _)| on_proc(j))
                    .map(|&(_, t)| t)
                    .collect();
                let is_idle_point = |t: Time| {
                    let released_before = releases.iter().filter(|&&r| r < t).count();
                    let completed_by = completions.iter().filter(|&&c| c <= t).count();
                    released_before == completed_by
                };
                let rels = trace.releases_of(sub.id());
                for w in rels.windows(2) {
                    if w[1] - w[0] >= period {
                        continue;
                    }
                    // Closer than the period ⇒ rule 2 fired at some idle
                    // point in (w0, w1]. The backlog can only drain to zero
                    // at a completion instant — but the rule may also fire
                    // at the release instant itself (a signal landing on an
                    // already-idle processor), so w1 is a candidate too.
                    let found = completions
                        .iter()
                        .copied()
                        .filter(|&cmp| cmp > w[0] && cmp <= w[1])
                        .chain([w[1]])
                        .any(is_idle_point);
                    prop_assert!(
                        found,
                        "{} released {} then {} with no idle point between",
                        sub.id(), w[0].ticks(), w[1].ticks()
                    );
                }
            }
        }
    }

    /// The schedule checker finds no defect in any engine output, for any
    /// protocol, on any system: no overlap, exact budgets, honest
    /// completions, no priority inversion, precedence intact.
    #[test]
    fn schedules_validate_clean_under_every_protocol(set in arb_system()) {
        let analyzable = analyze_pm(&set, &AnalysisConfig::default()).is_ok();
        for protocol in Protocol::ALL {
            if protocol.busy_period_analysis_applies()
                && protocol != Protocol::ReleaseGuard
                && !analyzable
            {
                continue; // PM/MPM need SA/PM bounds; overloaded system
            }
            let mut obs = InvariantObserver::default();
            let out = simulate_observed(
                &set,
                &SimConfig::new(protocol).with_instances(8),
                &mut obs,
            ).unwrap();
            obs.check_outcome(&out);
            prop_assert!(obs.is_clean(), "{protocol:?}: {:?}", obs.violations());
            // Periodic sources: even PM must preserve precedence, so the
            // engine reports no early release for the checker to accept.
            prop_assert!(out.violations.is_empty(), "{protocol:?}: {:?}", out.violations);
        }
    }

    /// Determinism: identical configurations yield identical outcomes.
    #[test]
    fn simulation_is_deterministic(set in arb_system()) {
        let cfg = SimConfig::new(Protocol::DirectSync).with_instances(6).with_trace();
        let a = simulate(&set, &cfg).unwrap();
        let b = simulate(&set, &cfg).unwrap();
        prop_assert_eq!(a.trace, b.trace);
        prop_assert_eq!(a.events, b.events);
    }

    /// An all-ideal nonideal config (zero offset, zero drift, no channel)
    /// is bit-for-bit the seed engine: same trace, same event count, on
    /// any system under every protocol.
    #[test]
    fn ideal_nonideal_config_is_bit_identical(set in arb_system()) {
        let analyzable = analyze_pm(&set, &AnalysisConfig::default()).is_ok();
        for protocol in Protocol::ALL {
            if protocol.busy_period_analysis_applies()
                && protocol != Protocol::ReleaseGuard
                && !analyzable
            {
                continue; // PM/MPM need SA/PM bounds; overloaded system
            }
            let plain = SimConfig::new(protocol).with_instances(6).with_trace();
            let dressed = plain.clone().with_nonideal(NonidealConfig::default());
            let a = simulate(&set, &plain).unwrap();
            let b = simulate(&set, &dressed).unwrap();
            prop_assert_eq!(a.trace, b.trace, "{:?}", protocol);
            prop_assert_eq!(a.events, b.events, "{:?}", protocol);
        }
    }

    /// The fault domain enabled with an empty crash schedule is bit-for-bit
    /// the seed engine: same trace, same event count, on any system under
    /// every protocol.
    #[test]
    fn empty_fault_schedule_is_bit_identical(set in arb_system()) {
        let analyzable = analyze_pm(&set, &AnalysisConfig::default()).is_ok();
        for protocol in Protocol::ALL {
            if protocol.busy_period_analysis_applies()
                && protocol != Protocol::ReleaseGuard
                && !analyzable
            {
                continue; // PM/MPM need SA/PM bounds; overloaded system
            }
            let plain = SimConfig::new(protocol).with_instances(6).with_trace();
            let faulted = plain.clone().with_faults(FaultConfig::explicit(Vec::new()));
            let a = simulate(&set, &plain).unwrap();
            let b = simulate(&set, &faulted).unwrap();
            prop_assert_eq!(a.trace, b.trace, "{:?}", protocol);
            prop_assert_eq!(a.events, b.events, "{:?}", protocol);
            prop_assert_eq!(a.end_time, b.end_time, "{:?}", protocol);
        }
    }

    /// Seeded crash/recovery on random systems: every run terminates with
    /// all instances resolved, upholds the chaos invariants (precedence
    /// order, guard spacing, no down-processor activity, signal
    /// conservation, bounded backlog), and is bit-for-bit deterministic.
    #[test]
    fn faulted_runs_uphold_invariants(
        set in arb_system(),
        mean_uptime in 20i64..=200,
        restart in 2i64..=30,
        seed in 0u64..1_000,
    ) {
        let analyzable = analyze_pm(&set, &AnalysisConfig::default()).is_ok();
        let policy = OverloadPolicy::ALL[(seed % 3) as usize];
        for protocol in Protocol::ALL {
            if protocol.busy_period_analysis_applies()
                && protocol != Protocol::ReleaseGuard
                && !analyzable
            {
                continue; // PM/MPM need SA/PM bounds; overloaded system
            }
            let cfg = SimConfig::new(protocol).with_instances(6).with_faults(
                FaultConfig::random(
                    Dur::from_ticks(mean_uptime),
                    Dur::from_ticks(restart),
                    seed,
                )
                .with_policy(policy),
            );
            let mut obs = InvariantObserver::default();
            let a = simulate_observed(&set, &cfg, &mut obs).unwrap();
            obs.check_outcome(&a);
            prop_assert!(
                obs.is_clean(),
                "{protocol:?}/{policy:?}: {:?}",
                obs.violations()
            );
            prop_assert!(a.reached_target, "{protocol:?}: every instance resolves");
            let b = simulate(&set, &cfg).unwrap();
            prop_assert_eq!(a.events, b.events, "{:?}", protocol);
            prop_assert_eq!(a.end_time, b.end_time, "{:?}", protocol);
            prop_assert_eq!(a.fault_stats, b.fault_stats, "{:?}", protocol);
        }
    }

    /// Crashes composed with random stalls and slowdowns keep every
    /// schedule legal: slices never overlap or leave their job's window,
    /// budgets and completions are exact (slowed jobs excepted), priority
    /// is honoured up to non-preemption and Highest Locker ceilings, and
    /// precedence holds. The backlog bound and the guard-spacing waivers
    /// budget crash outages only, so under gray faults those two kinds
    /// are recorded but not fatal, as in the gray campaign. A slowed
    /// overloaded system may not finish by the horizon; that is load,
    /// not an illegal schedule, so it is not checked here.
    #[test]
    fn composed_faults_keep_schedules_legal(
        set in arb_system(),
        mean_uptime in 20i64..=200,
        restart in 2i64..=30,
        stall_span in 1i64..=12,
        slow_factor in 2u32..=4,
        seed in 0u64..1_000,
    ) {
        let analyzable = analyze_pm(&set, &AnalysisConfig::default()).is_ok();
        let gray = GrayConfig::new()
            .with_stalls(StallSchedule::Random {
                mean_healthy: Dur::from_ticks(40),
                span: Dur::from_ticks(stall_span),
                seed: seed ^ 0x57a1,
            })
            .with_slow(SlowSchedule::Random {
                mean_healthy: Dur::from_ticks(60),
                span: Dur::from_ticks(25),
                factor: slow_factor,
                seed: seed ^ 0x510e,
            });
        for protocol in Protocol::ALL {
            if protocol.busy_period_analysis_applies()
                && protocol != Protocol::ReleaseGuard
                && !analyzable
            {
                continue; // PM/MPM need SA/PM bounds; overloaded system
            }
            let cfg = SimConfig::new(protocol).with_instances(6).with_faults(
                FaultConfig::random(
                    Dur::from_ticks(mean_uptime),
                    Dur::from_ticks(restart),
                    seed,
                )
                .with_gray(gray.clone()),
            );
            let mut obs = InvariantObserver::default();
            let out = simulate_observed(&set, &cfg, &mut obs).unwrap();
            obs.check_outcome(&out);
            let fatal: Vec<_> = obs
                .violations()
                .iter()
                .filter(|v| {
                    !matches!(v.kind, InvariantKind::UnboundedBacklog | InvariantKind::GuardSpacing)
                })
                .collect();
            prop_assert!(fatal.is_empty(), "{protocol:?}: {fatal:?}");
        }
    }

    /// Theorem 1 under bounded drift: RG's guards are durations on the
    /// local clock, so a drift rate of at most ε stretches each guard by
    /// at most a factor 1/(1-ε) — the SA/PM bound stays valid up to the
    /// proportional slack the stretch can accumulate over the horizon
    /// (persistently guard-limited chains fall behind by ε·p per period
    /// until an idle point resets them).
    #[test]
    fn sa_pm_bound_degrades_gracefully_under_drift(
        set in arb_system(),
        max_drift_ppm in 0i64..=5_000,
        seed in 0u64..1_000,
    ) {
        let cfg = AnalysisConfig::default();
        let Ok(bounds) = analyze_pm(&set, &cfg) else {
            return Ok(()); // overloaded system: nothing to check
        };
        let instances = 12u64;
        let clocks = ClockModel::Random {
            max_offset: Dur::from_ticks(10),
            max_drift_ppm,
            seed,
        };
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::ReleaseGuard)
                .with_instances(instances)
                .with_nonideal(NonidealConfig::default().with_clocks(clocks)),
        ).unwrap();
        prop_assert!(out.violations.is_empty(), "RG never violates precedence");
        let eps = max_drift_ppm as f64 / 1e6;
        for task in set.tasks() {
            if let Some(max) = out.metrics.task(task.id()).max_eer() {
                let bound = bounds.task_bound(task.id()).ticks() as f64;
                // Accumulated stretch over the whole horizon, doubled for
                // margin, plus one tick of integer rounding per instance.
                let slack = instances as f64 * task.period().ticks() as f64 * 2.0 * eps
                    + instances as f64;
                prop_assert!(
                    (max.ticks() as f64) <= bound + slack,
                    "task {} under {} ppm: {} > {} + {}",
                    task.id(), max_drift_ppm, max, bound, slack
                );
            }
        }
    }
}

proptest! {
    // Whole-campaign determinism is expensive per case; a few seeds with
    // differing thread counts pin the byte-identical contract.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A chaos campaign is a pure function of its config: the same seed
    /// and grid produce byte-identical verdicts, cell aggregates and
    /// minimized schedules regardless of the worker-thread count.
    #[test]
    fn chaos_campaigns_are_byte_deterministic(seed in 0u64..1_000_000_000) {
        use rtsync::experiments::chaos::{records, run_chaos, ChaosConfig};
        let cfg = ChaosConfig {
            protocols: vec![Protocol::DirectSync, Protocol::ReleaseGuard],
            mean_uptimes: vec![5_000_000, 1_000_000],
            runs_per_cell: 2,
            instances_per_task: 5,
            threads: 1,
            seed,
            ..ChaosConfig::default()
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&ChaosConfig { threads: 4, ..cfg });
        prop_assert_eq!(records(&a), records(&b));
        prop_assert_eq!(a.failures.len(), b.failures.len());
        for (fa, fb) in a.failures.iter().zip(&b.failures) {
            prop_assert_eq!(&fa.minimized, &fb.minimized);
            prop_assert_eq!(fa.verdict.fault_seed, fb.verdict.fault_seed);
        }
    }
}

#[test]
fn jobid_api_smoke() {
    let j = JobId::new(SubtaskId::new(TaskId::new(0), 1), 2);
    assert_eq!(j.instance(), 2);
}
