//! Integration tests for the nonideal-conditions subsystem: the paper's
//! qualitative robustness claims, measured.

use rtsync_core::analysis::sa_pm::analyze_pm;
use rtsync_core::examples::{example1, example2};
use rtsync_core::protocol::Protocol;
use rtsync_core::time::{Dur, Time};
use rtsync_core::AnalysisConfig;
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig};
use rtsync_sim::nonideal::{ChannelModel, ClockModel, LocalClock, NonidealConfig};
use rtsync_sim::{InvariantObserver, TransportConfig, ViolationKind};

fn d(x: i64) -> Dur {
    Dur::from_ticks(x)
}

/// With every knob at zero, the nonideal config takes the exact legacy
/// code path: traces and even event counts are bit-for-bit identical.
#[test]
fn default_nonideal_is_bit_identical_to_plain_engine() {
    for set in [example1(), example2()] {
        for protocol in Protocol::ALL {
            let plain = SimConfig::new(protocol).with_instances(20).with_trace();
            let nonideal = plain.clone().with_nonideal(NonidealConfig::default());
            let a = simulate(&set, &plain).unwrap();
            let b = simulate(&set, &nonideal).unwrap();
            assert_eq!(a.trace, b.trace, "{protocol:?}");
            assert_eq!(a.events, b.events, "{protocol:?}");
            assert_eq!(b.channel_stats.sent, 0, "{protocol:?}");
        }
    }
}

/// A zero-latency channel routes every cross-processor signal through
/// `SignalSend`/`SignalDeliver` events but must reproduce the ideal
/// schedule: same releases, completions and executed segments.
#[test]
fn zero_latency_channel_reproduces_ideal_schedule() {
    for set in [example1(), example2()] {
        for protocol in [
            Protocol::DirectSync,
            Protocol::ModifiedPhaseModification,
            Protocol::ReleaseGuard,
        ] {
            let ideal_cfg = SimConfig::new(protocol).with_instances(20).with_trace();
            let routed_cfg = ideal_cfg
                .clone()
                .with_channel(ChannelModel::constant(Dur::ZERO));
            let ideal = simulate(&set, &ideal_cfg).unwrap();
            let routed = simulate(&set, &routed_cfg).unwrap();
            let (it, rt) = (ideal.trace.unwrap(), routed.trace.unwrap());
            for task in set.tasks() {
                for sub in task.subtasks() {
                    assert_eq!(
                        it.releases_of(sub.id()),
                        rt.releases_of(sub.id()),
                        "{protocol:?} {} releases",
                        sub.id()
                    );
                    assert_eq!(
                        it.completions_of(sub.id()),
                        rt.completions_of(sub.id()),
                        "{protocol:?} {} completions",
                        sub.id()
                    );
                }
            }
            for p in 0..set.num_processors() {
                let proc = rtsync_core::task::ProcessorId::new(p);
                assert_eq!(it.segments_on(proc), rt.segments_on(proc), "{protocol:?}");
            }
            assert!(
                routed.channel_stats.sent > 0,
                "{protocol:?} used the channel"
            );
            assert_eq!(routed.channel_stats.applied, routed.channel_stats.sent);
        }
    }
}

/// The smallest gap PM's ideal schedule leaves between a predecessor's
/// completion and its successor's clock-driven release.
fn pm_slack(set: &rtsync_core::task::TaskSet) -> Dur {
    let out = simulate(
        set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(20)
            .with_trace(),
    )
    .unwrap();
    let trace = out.trace.unwrap();
    let mut slack = Dur::MAX;
    for task in set.tasks() {
        for sub in task.subtasks().iter().skip(1) {
            let pred = sub.id().predecessor().unwrap();
            let comps = trace.completions_of(pred);
            for (m, rel) in trace.releases_of(sub.id()).iter().enumerate() {
                if let Some(&c) = comps.get(m) {
                    slack = slack.min(*rel - c);
                }
            }
        }
    }
    assert!(slack < Dur::MAX, "PM schedule has cross-subtask releases");
    slack
}

/// The acceptance scenario: once clock offsets exceed PM's schedule
/// slack, PM releases a successor before its predecessor completed — a
/// detected precedence `Violation` — while RG under the *same clocks*
/// stays violation-free and within its SA/PM bound (RG never reads
/// absolute local time, so offsets cancel out of its guard durations).
#[test]
fn pm_offset_beyond_slack_violates_precedence_rg_does_not() {
    let set = example2();
    let slack = pm_slack(&set);
    // Every processor clock runs *fast* by slack + 1: PM's local release
    // phases are reached that much earlier in true time, but the external
    // sources (and everything else) live in true time.
    let offset = Dur::from_ticks(slack.ticks() + 1);
    let clocks = ClockModel::Explicit(vec![LocalClock::with_offset(offset); 2]);
    let ni = NonidealConfig::default().with_clocks(clocks);

    let pm = simulate(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(20)
            .with_nonideal(ni.clone()),
    )
    .unwrap();
    assert!(
        pm.violations
            .iter()
            .any(|v| v.kind == ViolationKind::PrecedenceViolated),
        "PM with offset {} > slack {} must violate precedence",
        offset,
        slack
    );

    let rg = simulate(
        &set,
        &SimConfig::new(Protocol::ReleaseGuard)
            .with_instances(20)
            .with_nonideal(ni),
    )
    .unwrap();
    assert!(rg.violations.is_empty(), "RG is offset-immune");
    let bounds = analyze_pm(&set, &AnalysisConfig::default()).unwrap();
    for task in set.tasks() {
        if let Some(max) = rg.metrics.task(task.id()).max_eer() {
            assert!(
                max <= bounds.task_bound(task.id()),
                "RG task {} exceeded its SA/PM bound: {} > {}",
                task.id(),
                max,
                bounds.task_bound(task.id())
            );
        }
    }
}

/// The engine reports every precedence break a clock offset beyond the
/// slack causes, and the schedule checker agrees: it sees each early
/// release arrive with the engine's report, and nothing else wrong.
#[test]
fn checker_confirms_every_pm_precedence_break() {
    let set = example2();
    let slack = pm_slack(&set);
    let offset = Dur::from_ticks(slack.ticks() + 1);
    let clocks = ClockModel::Explicit(vec![LocalClock::with_offset(offset); 2]);
    let mut checker = InvariantObserver::default();
    let out = simulate_observed(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(20)
            .with_nonideal(NonidealConfig::default().with_clocks(clocks)),
        &mut checker,
    )
    .unwrap();
    let engine_count = out
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::PrecedenceViolated)
        .count();
    assert!(engine_count > 0);
    checker.check_outcome(&out);
    assert!(
        checker.is_clean(),
        "checker and engine agree on every break: {:?}",
        checker.violations()
    );
}

/// Offsets *below* the slack leave PM intact: the boundary is sharp.
#[test]
fn pm_tolerates_offsets_within_slack() {
    let set = example2();
    let slack = pm_slack(&set);
    if slack == Dur::ZERO {
        return; // schedule is tight; nothing to tolerate
    }
    let clocks = ClockModel::Explicit(vec![LocalClock::with_offset(slack); 2]);
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(20)
            .with_nonideal(NonidealConfig::default().with_clocks(clocks)),
    )
    .unwrap();
    assert!(
        out.violations.is_empty(),
        "offset == slack still meets every release exactly at completion"
    );
}

/// MPM degrades additively: constant signal latency `L` delays each
/// cross-processor hop by exactly `L`, so a task's end-to-end response
/// grows by at most `(chain length - 1) * L`, and never shrinks.
#[test]
fn mpm_latency_degrades_additively() {
    let set = example2();
    let base = simulate(
        &set,
        &SimConfig::new(Protocol::ModifiedPhaseModification).with_instances(50),
    )
    .unwrap();
    for latency in 1..=4i64 {
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::ModifiedPhaseModification)
                .with_instances(50)
                .with_channel(ChannelModel::constant(d(latency))),
        )
        .unwrap();
        for task in set.tasks() {
            let hops = (task.chain_len() - 1) as f64;
            let stats = out.metrics.task(task.id());
            let (Some(ideal), Some(seen)) =
                (base.metrics.task(task.id()).avg_eer(), stats.avg_eer())
            else {
                continue;
            };
            assert!(
                seen <= ideal + hops * latency as f64 + 1e-9,
                "task {}: avg EER {} exceeds additive bound {} at L={}",
                task.id(),
                seen,
                ideal + hops * latency as f64,
                latency
            );
            // The chain that actually rides the channel can only get
            // slower; single-subtask tasks may speed up as interference
            // shifts away from them, so the lower bound applies to
            // multi-hop chains alone.
            if task.chain_len() > 1 {
                assert!(
                    seen + 1e-9 >= ideal,
                    "task {}: delayed hops cannot shrink EER ({} < {}) at L={}",
                    task.id(),
                    seen,
                    ideal,
                    latency
                );
            }
        }
    }
}

/// Randomized channels are seeded: identical configs give bit-identical
/// runs, and with the endpoint transport attached every dropped signal is
/// recovered even under drops, duplicates and reordering.
#[test]
fn faulty_channel_is_deterministic_and_lossless() {
    let set = example2();
    let channel = ChannelModel::uniform(Dur::ZERO, d(3))
        .with_seed(42)
        .with_endpoint_drops(0.4)
        .with_duplicates(0.3);
    let cfg = SimConfig::new(Protocol::DirectSync)
        .with_instances(60)
        .with_trace()
        .with_channel(channel)
        .with_transport(TransportConfig::new(d(8)));
    let mut checker = InvariantObserver::default();
    let a = simulate_observed(&set, &cfg, &mut checker).unwrap();
    let b = simulate(&set, &cfg).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.events, b.events);
    assert_eq!(a.channel_stats, b.channel_stats);

    let stats = a.channel_stats;
    assert!(stats.dropped > 0, "p=0.4 over {} sends", stats.sent);
    assert!(stats.duplicates_injected > 0);
    // The endpoint transport recovers every drop: nothing is lost, no
    // `SignalLost` is ever reported.
    assert_eq!(a.transport_stats.gave_up, 0);
    assert_eq!(a.metrics.total_lost(), 0);
    assert!(
        !a.violations
            .iter()
            .any(|v| v.kind == ViolationKind::SignalLost),
        "{:?}",
        a.violations
    );
    // The schedule checker agrees: the delayed schedule is still a
    // correct preemptive fixed-priority schedule with precedence intact.
    checker.check_outcome(&a);
    assert!(checker.is_clean(), "{:?}", checker.violations());
}

/// Even heavy loss (`p = 0.7`) cannot wedge the simulation: the endpoint
/// transport retransmits until every signal lands and the run completes
/// with releases in order.
#[test]
fn heavy_loss_still_delivers_via_endpoint_retransmission() {
    let set = example2();
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::ReleaseGuard)
            .with_instances(30)
            .with_channel(
                ChannelModel::constant(d(1))
                    .with_endpoint_drops(0.7)
                    .with_seed(3),
            )
            .with_transport(TransportConfig::new(d(3))),
    )
    .unwrap();
    assert!(out.reached_target);
    let stats = out.channel_stats;
    assert!(stats.dropped > 0);
    assert!(
        out.transport_stats.retransmissions > 0,
        "recovery is the endpoints' job now"
    );
    assert_eq!(out.transport_stats.gave_up, 0);
    assert_eq!(out.metrics.total_lost(), 0);
}

/// Drifting clocks leave the signal-driven protocols' correctness alone:
/// RG and DS preserve precedence under any bounded drift (their timers
/// measure durations, so rates only stretch the guards).
#[test]
fn rg_and_ds_preserve_precedence_under_drift() {
    let set = example2();
    let clocks = ClockModel::Random {
        max_offset: d(5),
        max_drift_ppm: 50_000, // up to 5% fast or slow
        seed: 7,
    };
    for protocol in [Protocol::DirectSync, Protocol::ReleaseGuard] {
        let out = simulate(
            &set,
            &SimConfig::new(protocol)
                .with_instances(40)
                .with_nonideal(NonidealConfig::default().with_clocks(clocks.clone())),
        )
        .unwrap();
        assert!(out.violations.is_empty(), "{protocol:?}");
    }
}

/// EER inflation: the robustness metric reads 1.0 for an identical run
/// and grows once latency delays completions.
#[test]
fn eer_inflation_reads_one_for_identical_runs() {
    let set = example2();
    let cfg = SimConfig::new(Protocol::ReleaseGuard).with_instances(30);
    let ideal = simulate(&set, &cfg).unwrap();
    let same = simulate(&set, &cfg).unwrap();
    for ratio in rtsync_sim::nonideal::eer_inflation(&ideal.metrics, &same.metrics)
        .into_iter()
        .flatten()
    {
        assert!((ratio - 1.0).abs() < 1e-12);
    }
    let delayed = simulate(
        &set,
        &cfg.clone().with_channel(ChannelModel::constant(d(3))),
    )
    .unwrap();
    let inflations = rtsync_sim::nonideal::eer_inflation(&ideal.metrics, &delayed.metrics);
    assert!(
        inflations.iter().flatten().any(|&r| r > 1.0),
        "3-tick latency must inflate some task's EER: {inflations:?}"
    );
}

/// PM under drift-only clocks (no offset) on a long horizon: local
/// timers slide relative to true-time sources, eventually past the
/// slack — the drift analogue of the offset scenario.
#[test]
fn pm_drift_accumulates_into_violation() {
    let set = example2();
    // 2% fast on both processors: after ~t=100 the accumulated advance
    // exceeds example2's PM slack.
    let clocks = ClockModel::Explicit(vec![
        LocalClock::with_drift_ppm(20_000),
        LocalClock::with_drift_ppm(20_000),
    ]);
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(100)
            .with_nonideal(NonidealConfig::default().with_clocks(clocks)),
    )
    .unwrap();
    assert!(
        out.violations
            .iter()
            .any(|v| v.kind == ViolationKind::PrecedenceViolated),
        "accumulated drift must eventually break PM"
    );
}

/// Sanity on the clock conversions the engine depends on, at the
/// integration surface: a round trip through local time is lossless
/// within one tick over a long span.
#[test]
fn clock_round_trip_is_tight() {
    let clock = LocalClock {
        offset: d(-7),
        drift_ppm: 12_345,
    };
    for t in (0..1_000_000).step_by(9_973) {
        let t = Time::from_ticks(t);
        let back = clock.true_of_local(clock.local_of(t));
        let err = (back - t).ticks().abs();
        assert!(err <= 1, "round trip error {err} at {t}");
    }
}
