//! Integration tests for the endpoint-driven reliable signaling stack:
//! ack/retransmit transport, heartbeat failure detection and graceful
//! degradation — plus the equivalence guarantees that keep the ideal
//! path bit-for-bit unchanged when the transport is disabled.

use proptest::prelude::*;
use rtsync_core::examples::{example1, example2};
use rtsync_core::protocol::Protocol;
use rtsync_core::time::{Dur, Time};
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig};
use rtsync_sim::nonideal::{ChannelModel, NonidealConfig};
use rtsync_sim::{
    CrashWindow, Degradation, DetectorConfig, FaultConfig, Note, Observer, ProtocolCounters, Tee,
    TransportConfig, ViolationKind,
};

fn d(x: i64) -> Dur {
    Dur::from_ticks(x)
}

/// A transport over a perfect zero-latency channel with instant acks
/// reproduces the ideal schedule exactly: same releases, completions and
/// executed segments, for every protocol.
#[test]
fn perfect_transport_reproduces_ideal_schedule() {
    for set in [example1(), example2()] {
        for protocol in Protocol::ALL {
            let ideal_cfg = SimConfig::new(protocol).with_instances(20).with_trace();
            let routed_cfg = ideal_cfg
                .clone()
                .with_channel(ChannelModel::constant(Dur::ZERO))
                .with_transport(TransportConfig::new(d(4)));
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
            assert!(routed.violations.is_empty(), "{protocol:?}");
            // Every frame acked on first transmission: no retries, no dups.
            let ts = &routed.transport_stats;
            assert_eq!(ts.retransmissions, 0, "{protocol:?}");
            assert_eq!(ts.gave_up, 0, "{protocol:?}");
            assert_eq!(ts.dup_deliveries, 0, "{protocol:?}");
            assert_eq!(ts.dup_acks, 0, "{protocol:?}");
            if protocol != Protocol::PhaseModification {
                assert!(ts.sent > 0, "{protocol:?} signals ride the transport");
                assert_eq!(ts.delivered, ts.sent, "{protocol:?}");
                assert_eq!(ts.acks, ts.sent, "{protocol:?}");
            }
        }
    }
}

/// Counts the transport and detector observer hooks, to check that each
/// fires once per frame, ack and heartbeat the layers record.
#[derive(Default)]
struct TransportHooks {
    sends: u64,
    retransmits: u64,
    acks: u64,
    dup_acks: u64,
    heartbeats: u64,
}

impl Observer for TransportHooks {
    fn on(&mut self, _now: Time, note: Note) {
        match note {
            Note::TransportSend { retransmit, .. } => {
                self.sends += 1;
                self.retransmits += u64::from(retransmit);
            }
            Note::TransportAck { dup, .. } => {
                self.acks += 1;
                self.dup_acks += u64::from(dup);
            }
            Note::Heartbeat { .. } => self.heartbeats += 1,
            _ => {}
        }
    }
}

/// Transport runs are seeded end to end: identical configs (lossy
/// channel, crashes, detector) give bit-identical outcomes, observed or
/// not. The transport and detector hooks fire once per frame, ack
/// (duplicates included) and heartbeat the layer stats hold, and the
/// counters' transport line prints every ack a sender received.
#[test]
fn transport_runs_are_deterministic() {
    let set = example2();
    let channel = ChannelModel::uniform(Dur::ZERO, d(3))
        .with_seed(42)
        .with_endpoint_drops(0.4)
        .with_duplicates(0.2);
    let faults = FaultConfig::explicit(vec![vec![CrashWindow {
        at: Time::from_ticks(150),
        restart_delay: d(300),
    }]]);
    let cfg = SimConfig::new(Protocol::ReleaseGuard)
        .with_instances(40)
        .with_trace()
        .with_channel(channel)
        .with_faults(faults)
        .with_transport(
            TransportConfig::new(d(4))
                .with_ack_drops(0.1)
                .with_seed(7)
                .with_detector(DetectorConfig::new(d(10))),
        );
    let a = simulate(&set, &cfg).unwrap();
    let mut counters = ProtocolCounters::default();
    let mut hooks = TransportHooks::default();
    let b = simulate_observed(&set, &cfg, &mut Tee(&mut counters, &mut hooks)).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.events, b.events);
    assert_eq!(a.transport_stats, b.transport_stats);
    assert_eq!(a.detect_stats, b.detect_stats);
    assert_eq!(a.degradations, b.degradations);
    assert_eq!(a.violations, b.violations);

    let ts = &b.transport_stats;
    assert!(ts.retransmissions > 0);
    assert!(ts.dup_acks > 0, "the channel duplicates frames: {ts:?}");
    assert_eq!(hooks.sends, ts.sent + ts.retransmissions);
    assert_eq!(hooks.retransmits, ts.retransmissions);
    assert_eq!(hooks.acks, ts.acks + ts.dup_acks);
    assert_eq!(hooks.dup_acks, ts.dup_acks);
    assert!(hooks.heartbeats > 0);
    assert_eq!(hooks.heartbeats, b.detect_stats.heartbeats_delivered);
    let rendered = counters.render(&b);
    let line = format!(
        "transport: {} frames ({} retx), {} acks ({} dup), {} heartbeats",
        hooks.sends, hooks.retransmits, hooks.acks, hooks.dup_acks, hooks.heartbeats
    );
    assert!(rendered.contains(&line), "want {line:?} in\n{rendered}");
}

/// With an unbounded retry budget, heavy random loss (drops on both the
/// data and the ack direction) loses nothing: every instance resolves,
/// no `SignalLost` is ever reported.
#[test]
fn unbounded_retries_survive_heavy_loss() {
    let set = example2();
    for protocol in Protocol::ALL {
        let channel = ChannelModel::constant(d(1))
            .with_seed(11)
            .with_endpoint_drops(0.7);
        let out = simulate(
            &set,
            &SimConfig::new(protocol)
                .with_instances(50)
                .with_channel(channel)
                .with_transport(TransportConfig::new(d(3)).with_ack_drops(0.3).with_seed(5)),
        )
        .unwrap();
        assert!(out.reached_target, "{protocol:?}");
        assert!(
            out.violations.is_empty(),
            "{protocol:?}: {:?}",
            out.violations
        );
        assert_eq!(out.transport_stats.gave_up, 0, "{protocol:?}");
        assert_eq!(out.metrics.total_lost(), 0, "{protocol:?}");
        if protocol != Protocol::PhaseModification {
            assert!(out.transport_stats.retransmissions > 0, "{protocol:?}");
            // Frames still in flight when the target is reached stay
            // unclosed; nothing is ever delivered that was not sent.
            assert!(
                out.transport_stats.delivered <= out.transport_stats.sent,
                "{protocol:?}"
            );
            assert!(out.transport_stats.delivered > 0, "{protocol:?}");
        }
    }
}

/// A bounded retry budget under total loss abandons every frame: each
/// abandonment is a `SignalLost` violation plus a structured
/// `SignalAbandoned` degradation event, and the doomed instances are
/// resolved so the run still terminates.
#[test]
fn bounded_budget_abandons_under_total_loss() {
    let set = example2();
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::DirectSync)
            .with_instances(20)
            .with_channel(
                ChannelModel::constant(d(1))
                    .with_endpoint_drops(1.0)
                    .with_seed(3),
            )
            .with_transport(TransportConfig::new(d(2)).with_retry_budget(3)),
    )
    .unwrap();
    let ts = &out.transport_stats;
    assert!(ts.gave_up > 0);
    assert_eq!(ts.delivered, 0, "total loss delivers nothing");
    // Budget 3 = original + 3 retries per abandoned frame; frames still
    // mid-schedule when the run stops add a few more.
    assert!(ts.retransmissions >= 3 * ts.gave_up);
    let lost = out
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::SignalLost)
        .count() as u64;
    assert_eq!(lost, ts.gave_up);
    let abandoned = out
        .degradations
        .iter()
        .filter(|e| matches!(e.kind, Degradation::SignalAbandoned { .. }))
        .count() as u64;
    assert_eq!(abandoned, ts.gave_up);
    assert!(out.metrics.total_lost() > 0);
}

/// The detector sees a long crash for what it is — no false positives —
/// and RG/MPM keep releasing from local information while the
/// predecessor's host is down; DS has no local release rule and stalls.
#[test]
fn detector_drives_degraded_releases_through_a_crash() {
    let set = example2();
    // Crash long enough for the detector (period 10, dead after 60) to
    // declare death and force releases, short enough that the run is
    // still going when the node comes back — so revival is observed too.
    let crash = || {
        FaultConfig::explicit(vec![vec![CrashWindow {
            at: Time::from_ticks(200),
            restart_delay: d(150),
        }]])
    };
    for protocol in [Protocol::ReleaseGuard, Protocol::ModifiedPhaseModification] {
        let out = simulate(
            &set,
            &SimConfig::new(protocol)
                .with_instances(80)
                .with_channel(
                    ChannelModel::constant(d(1))
                        .with_endpoint_drops(0.3)
                        .with_seed(7),
                )
                .with_faults(crash())
                .with_transport(
                    TransportConfig::new(d(4)).with_detector(DetectorConfig::new(d(10))),
                ),
        )
        .unwrap();
        let ds = &out.detect_stats;
        assert!(ds.deads >= 1, "{protocol:?} declared the crashed node dead");
        assert_eq!(ds.false_deads, 0, "{protocol:?}");
        assert_eq!(ds.false_positive_rate(), Some(0.0), "{protocol:?}");
        assert!(
            ds.forced_releases > 0,
            "{protocol:?} released without the lost signals"
        );
        // RG absorbs both the outage and the recovery backlog cleanly.
        // MPM's recovery burst overloads its timers (a pre-existing
        // ReleaseAll artifact, present without any transport); the
        // transport itself must still never lose a signal.
        if protocol == Protocol::ReleaseGuard {
            assert!(
                out.violations.is_empty(),
                "{protocol:?}: {:?}",
                out.violations
            );
        } else {
            assert!(
                !out.violations
                    .iter()
                    .any(|v| v.kind == ViolationKind::SignalLost),
                "{protocol:?}"
            );
        }
        assert!(out.degradations.iter().any(|e| matches!(
            e.kind,
            Degradation::PeerDead {
                false_positive: false,
                ..
            }
        )));
        assert!(out
            .degradations
            .iter()
            .any(|e| matches!(e.kind, Degradation::ForcedRelease { .. })));
        assert!(
            out.degradations
                .iter()
                .any(|e| matches!(e.kind, Degradation::PeerRevived { .. })),
            "{protocol:?} noticed the recovery"
        );
    }
    // DS: detection fires but there is no fallback to force releases.
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::DirectSync)
            .with_instances(50)
            .with_channel(ChannelModel::constant(d(1)))
            .with_faults(crash())
            .with_transport(TransportConfig::new(d(4)).with_detector(DetectorConfig::new(d(10)))),
    )
    .unwrap();
    assert!(out.detect_stats.deads >= 1);
    assert_eq!(out.detect_stats.forced_releases, 0);
}

/// A healthy network with sane thresholds never raises a suspicion.
#[test]
fn quiet_network_has_no_false_positives() {
    let set = example2();
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::ReleaseGuard)
            .with_instances(60)
            .with_transport(TransportConfig::new(d(4)).with_detector(DetectorConfig::new(d(10)))),
    )
    .unwrap();
    let ds = &out.detect_stats;
    assert!(ds.heartbeats_sent > 0);
    assert_eq!(ds.suspects, 0);
    assert_eq!(ds.deads, 0);
    assert_eq!(ds.false_positive_rate(), None);
    assert!(out.degradations.is_empty());
}

/// Thresholds shorter than the heartbeat period manufacture false
/// positives on a perfectly healthy system — and the ground-truth
/// accounting calls every one of them out.
#[test]
fn aggressive_thresholds_produce_accounted_false_positives() {
    let set = example2();
    let detector = DetectorConfig::new(d(40))
        .with_thresholds(d(10), d(20))
        .with_degradation(false);
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::ReleaseGuard)
            .with_instances(40)
            .with_transport(TransportConfig::new(d(4)).with_detector(detector)),
    )
    .unwrap();
    let ds = &out.detect_stats;
    assert!(ds.false_suspects > 0, "{ds:?}");
    assert!(ds.false_deads > 0, "{ds:?}");
    assert_eq!(ds.false_suspects, ds.suspects);
    assert_eq!(ds.false_deads, ds.deads);
    assert_eq!(ds.false_positive_rate(), Some(1.0));
    // Degradation disabled: detection alone must not touch the schedule.
    assert_eq!(ds.forced_releases, 0);
    assert!(out.violations.is_empty());
}

/// The deadline watchdog trips exactly when measured end-to-end misses
/// occur (threshold 1), and stays quiet on a clean run.
#[test]
fn watchdog_trips_track_deadline_misses() {
    let set = example2();
    // With threshold 1, trips fire exactly when measured misses exist
    // (RG's deferred releases can miss deadlines even on an ideal run —
    // the paper's worst-case-EER trade-off — so assert the iff, not
    // zero misses).
    let clean = simulate(
        &set,
        &SimConfig::new(Protocol::ReleaseGuard)
            .with_instances(40)
            .with_transport(
                TransportConfig::new(d(4))
                    .with_detector(DetectorConfig::new(d(10)).with_watchdog(1)),
            ),
    )
    .unwrap();
    assert_eq!(
        clean.detect_stats.watchdog_trips == 0,
        clean.metrics.total_deadline_misses() == 0
    );
    // Heavy loss stretches releases past deadlines: trips must follow.
    let lossy = simulate(
        &set,
        &SimConfig::new(Protocol::DirectSync)
            .with_instances(60)
            .with_channel(
                ChannelModel::constant(d(1))
                    .with_endpoint_drops(0.8)
                    .with_seed(13),
            )
            .with_transport(
                TransportConfig::new(d(6))
                    .with_detector(DetectorConfig::new(d(10)).with_watchdog(1)),
            ),
    )
    .unwrap();
    assert!(
        lossy.metrics.total_deadline_misses() > 0,
        "80% loss with RTO 6 must miss deadlines on example2"
    );
    assert!(lossy.detect_stats.watchdog_trips > 0);
    assert!(lossy
        .degradations
        .iter()
        .any(|e| matches!(e.kind, Degradation::WatchdogTrip { .. })));
}

fn crash_strategy() -> impl Strategy<Value = Vec<Vec<CrashWindow>>> {
    prop::collection::vec(prop::collection::vec((0i64..300, 1i64..80), 0..2), 2..=2).prop_map(
        |procs| {
            procs
                .into_iter()
                .map(|ws| {
                    ws.into_iter()
                        .map(|(at, dt)| CrashWindow {
                            at: Time::from_ticks(at),
                            restart_delay: d(dt),
                        })
                        .collect()
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance property: transport-enabled under random drops with an
    /// unbounded retry budget loses zero instances on a crash-free system,
    /// for every protocol.
    #[test]
    fn random_drops_lose_nothing_with_unbounded_budget(
        drop_p in 0.0f64..0.6,
        ack_p in 0.0f64..0.3,
        seed in 0u64..u64::MAX,
        timeout in 1i64..8,
        proto_idx in 0usize..4,
    ) {
        let set = example2();
        let protocol = Protocol::ALL[proto_idx];
        let channel = ChannelModel::constant(d(1))
            .with_seed(seed)
            .with_endpoint_drops(drop_p);
        let out = simulate(
            &set,
            &SimConfig::new(protocol)
                .with_instances(25)
                .with_channel(channel)
                .with_transport(
                    TransportConfig::new(d(timeout))
                        .with_ack_drops(ack_p)
                        .with_seed(seed ^ 0x9e3779b97f4a7c15),
                ),
        )
        .unwrap();
        prop_assert!(out.reached_target, "{protocol:?}");
        prop_assert_eq!(out.metrics.total_lost(), 0, "{:?}", protocol);
        prop_assert_eq!(out.transport_stats.gave_up, 0, "{:?}", protocol);
        prop_assert!(out.violations.is_empty(), "{protocol:?}: {:?}", out.violations);
    }

    /// Under random drops *and* random crashes, an unbounded retry budget
    /// never reports `SignalLost`: the journaled send queue rides out
    /// sender outages, receiver outages are covered by retransmission.
    #[test]
    fn random_drops_and_crashes_never_lose_signals(
        drop_p in 0.0f64..0.7,
        seed in 0u64..u64::MAX,
        timeout in 1i64..8,
        proto_idx in 0usize..4,
        windows in crash_strategy(),
        with_detector in prop::bool::ANY,
    ) {
        let set = example2();
        let protocol = Protocol::ALL[proto_idx];
        let channel = ChannelModel::constant(d(1))
            .with_seed(seed)
            .with_endpoint_drops(drop_p);
        let mut transport = TransportConfig::new(d(timeout)).with_seed(seed.rotate_left(17));
        if with_detector {
            transport = transport.with_detector(DetectorConfig::new(d(10)));
        }
        let out = simulate(
            &set,
            &SimConfig::new(protocol)
                .with_instances(25)
                .with_channel(channel)
                .with_faults(FaultConfig::explicit(windows))
                .with_transport(transport),
        )
        .unwrap();
        prop_assert_eq!(out.transport_stats.gave_up, 0, "{:?}", protocol);
        prop_assert!(
            !out.violations.iter().any(|v| v.kind == ViolationKind::SignalLost),
            "{protocol:?}: {:?}",
            out.violations
        );
    }

    /// Equivalence guarantee, randomized: with the transport disabled the
    /// engine takes the exact legacy path — a default `NonidealConfig`
    /// run is bit-for-bit identical to the plain engine for any protocol
    /// and instance target.
    #[test]
    fn transport_disabled_path_is_bit_identical(
        proto_idx in 0usize..4,
        instances in 5u64..30,
    ) {
        let set = example2();
        let protocol = Protocol::ALL[proto_idx];
        let plain = SimConfig::new(protocol)
            .with_instances(instances)
            .with_trace();
        let nonideal = plain.clone().with_nonideal(NonidealConfig::default());
        let a = simulate(&set, &plain).unwrap();
        let b = simulate(&set, &nonideal).unwrap();
        prop_assert_eq!(a.trace, b.trace, "{:?}", protocol);
        prop_assert_eq!(a.events, b.events, "{:?}", protocol);
        prop_assert_eq!(a.transport_stats.sent, 0);
        prop_assert_eq!(b.detect_stats.heartbeats_sent, 0);
    }
}
