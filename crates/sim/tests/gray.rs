//! Integration tests for the gray-failure machinery: slowdown windows
//! stretch service without fail-stopping, stalls freeze a node without
//! killing its in-flight work (unlike a crash), degraded links inflate
//! latency and drop lossy frames while the wire stays live — and the
//! adaptive φ-accrual detector absorbs a merely-slow peer that a
//! fixed-timeout cliff falsely declares dead. With every gray knob in
//! its neutral position the engine is bit-identical to the pre-gray
//! path.

use std::ops::RangeInclusive;

use proptest::prelude::*;
use rtsync_core::examples::example2;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::{SubtaskId, TaskId};
use rtsync_core::time::{Dur, Time};
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig, SimOutcome};
use rtsync_sim::{
    CrashWindow, DetectorConfig, FaultConfig, GrayConfig, InvariantObserver, LinkDegradeWindow,
    LinkSchedule, Note, Observer, PhiConfig, SlowSchedule, SlowWindow, StallSchedule, StallWindow,
    Tee, TransportConfig,
};

fn d(x: i64) -> Dur {
    Dur::from_ticks(x)
}

fn t(x: i64) -> Time {
    Time::from_ticks(x)
}

/// A heartbeat detector riding the endpoint transport; `phi` arms the
/// adaptive mode.
fn detector(phi: bool) -> TransportConfig {
    let mut det = DetectorConfig::new(d(5));
    if phi {
        det = det.with_phi(PhiConfig::new());
    }
    TransportConfig::new(d(8)).with_seed(3).with_detector(det)
}

/// One long 8x slowdown of P0 — far past the fixed detector's 6-period
/// death cliff (heartbeats land every 40 ticks against a 30-tick
/// `dead_after`), but short of φ's dead threshold (9.2 x the observed
/// mean, which only grows as the slow intervals feed the window).
fn slow_p0() -> FaultConfig {
    FaultConfig::gray_only(GrayConfig::new().with_slow(SlowSchedule::Explicit(vec![
        vec![SlowWindow {
            at: t(40),
            span: d(600),
            factor: 8,
        }],
        Vec::new(),
    ])))
}

/// A slowed processor stays live at reduced rate: the run completes
/// later than the healthy twin, the φ-accrual observer sees the peer as
/// Degraded (gray ground truth confirms), and nobody is ever declared
/// dead. The whole run is bit-deterministic.
#[test]
fn slowdown_stretches_completion_and_phi_holds_degraded() {
    let set = example2();
    let healthy = SimConfig::new(Protocol::DirectSync)
        .with_instances(40)
        .with_transport(detector(true));
    let slowed = healthy.clone().with_faults(slow_p0());
    let a = simulate(&set, &healthy).unwrap();
    let b = simulate(&set, &slowed).unwrap();
    assert_eq!(b.fault_stats.slowdowns, 1, "{:?}", b.fault_stats);
    assert!(
        b.end_time > a.end_time,
        "an 8x slowdown must stretch completion ({} vs {})",
        b.end_time.ticks(),
        a.end_time.ticks()
    );
    let dt = &b.detect_stats;
    assert!(dt.degradeds > 0, "φ must notice the slow peer: {dt:?}");
    assert!(dt.gray_hits > 0, "ground truth must confirm gray: {dt:?}");
    assert_eq!(dt.deads, 0, "nobody actually died: {dt:?}");
    assert_eq!(dt.false_deads, 0, "{dt:?}");
    assert!(b.reached_target, "the horizon must absorb the stretch");
    let c = simulate(&set, &slowed).unwrap();
    assert_eq!(b.events, c.events);
    assert_eq!(b.detect_stats, c.detect_stats);
    assert_eq!(b.fault_stats, c.fault_stats);
}

/// The same slow peer under the fixed suspect/dead cliff: every stretched
/// heartbeat gap walks the observer to a false Dead verdict on a node
/// that is up the whole time — the headline gray-failure mode — while
/// the adaptive arm holds at Degraded with zero false deads.
#[test]
fn fixed_cliff_false_deads_where_phi_survives() {
    let set = example2();
    let run = |phi: bool| {
        simulate(
            &set,
            &SimConfig::new(Protocol::DirectSync)
                .with_instances(40)
                .with_transport(detector(phi))
                .with_faults(slow_p0()),
        )
        .unwrap()
        .detect_stats
    };
    let fixed = run(false);
    let adaptive = run(true);
    assert!(fixed.false_deads > 0, "{fixed:?}");
    assert!(
        fixed.false_dead_gray > 0,
        "the false deads must be charged to gray ground truth: {fixed:?}"
    );
    assert_eq!(adaptive.false_deads, 0, "{adaptive:?}");
    assert!(
        adaptive.false_deads < fixed.false_deads,
        "adaptive must strictly dominate fixed on false deads"
    );
}

/// A stall freezes the node but, unlike a crash of the same span, kills
/// nothing: every in-flight job survives with its partial execution and
/// every instance completes.
#[test]
fn stall_preserves_in_flight_work_unlike_a_crash() {
    let set = example2();
    let base = SimConfig::new(Protocol::DirectSync).with_instances(40);
    let stalled = base
        .clone()
        .with_faults(FaultConfig::gray_only(GrayConfig::new().with_stalls(
            StallSchedule::Explicit(vec![
                vec![StallWindow {
                    at: t(50),
                    span: d(120),
                }],
                Vec::new(),
            ]),
        )));
    let crashed = base.clone().with_faults(FaultConfig::explicit(vec![
        vec![CrashWindow {
            at: t(50),
            restart_delay: d(120),
        }],
        Vec::new(),
    ]));
    let healthy = simulate(&set, &base).unwrap();
    let a = simulate(&set, &stalled).unwrap();
    let b = simulate(&set, &crashed).unwrap();
    assert_eq!(a.fault_stats.stalls, 1, "{:?}", a.fault_stats);
    assert_eq!(a.fault_stats.killed_jobs, 0, "{:?}", a.fault_stats);
    assert_eq!(a.fault_stats.cancelled_instances, 0, "{:?}", a.fault_stats);
    assert!(
        b.fault_stats.killed_jobs > 0,
        "the crash twin must kill the in-flight job: {:?}",
        b.fault_stats
    );
    assert!(
        a.end_time > healthy.end_time,
        "the freeze must delay completion"
    );
    assert!(a.reached_target, "the drain-aware horizon must absorb it");
    for task in set.tasks() {
        assert!(
            a.metrics.task(task.id()).completed() >= 40,
            "a stall must not lose instances ({})",
            task.id()
        );
    }
}

/// The stall and slowdown notes of a run, with their instants.
#[derive(Default)]
struct GrayNotes(Vec<(i64, Note)>);

impl Observer for GrayNotes {
    fn on(&mut self, now: Time, note: Note) {
        if matches!(note, Note::Stall { .. } | Note::Slowdown { .. }) {
            self.0.push((now.ticks(), note));
        }
    }
}

/// Example 2 under DS with one P0 outage over `[at, at + delay)` and
/// `gray` on top, checked online by the invariant observer. Returns the
/// outcome, the gray notes and P0's completions of `T0` inside `window`.
fn p0_outage_under(
    at: i64,
    delay: i64,
    gray: GrayConfig,
    window: RangeInclusive<i64>,
) -> (SimOutcome, Vec<(i64, Note)>, Vec<i64>) {
    let outage = vec![
        vec![CrashWindow {
            at: t(at),
            restart_delay: d(delay),
        }],
        Vec::new(),
    ];
    let cfg = SimConfig::new(Protocol::DirectSync)
        .with_instances(40)
        .with_trace()
        .with_faults(FaultConfig::explicit(outage).with_gray(gray));
    let (mut checker, mut notes) = (InvariantObserver::default(), GrayNotes::default());
    let out = simulate_observed(&example2(), &cfg, &mut Tee(&mut checker, &mut notes)).unwrap();
    checker.check_outcome(&out);
    assert!(checker.is_clean(), "{:?}", checker.violations());
    let t0 = SubtaskId::new(TaskId::new(0), 0);
    let trace = out.trace.as_ref().unwrap();
    let done = trace.completions_of(t0).into_iter().map(|c| c.ticks());
    let done = done.filter(|c| window.contains(c)).collect();
    (out, notes.0, done)
}

fn p0_stall(at: i64, span: i64) -> GrayConfig {
    GrayConfig::new().with_stalls(StallSchedule::Explicit(vec![
        vec![StallWindow {
            at: t(at),
            span: d(span),
        }],
        Vec::new(),
    ]))
}

/// A stall that opens while its processor is down is absorbed by the
/// outage: no stall note, no stall counted, and the run matches the bare
/// outage but for the two edges it popped.
#[test]
fn a_stall_opening_on_a_down_processor_is_absorbed() {
    let (bare, _, bare_done) = p0_outage_under(50, 40, GrayConfig::new(), 40..=100);
    let (out, notes, done) = p0_outage_under(50, 40, p0_stall(60, 10), 40..=100);
    assert_eq!(out.fault_stats.stalls, 0, "{:?}", out.fault_stats);
    assert_eq!(notes, [], "a swallowed stall sends no note");
    assert_eq!(done, [42, 46, 92, 94, 96, 98, 100]);
    assert_eq!(done, bare_done);
    assert_eq!(out.events, bare.events + 2);
}

/// A crash in the middle of a stall ends it: the stall's own end is a
/// no-op, and the recovery restarts the node before that end.
#[test]
fn a_crash_mid_stall_makes_its_end_a_no_op() {
    let (out, notes, done) = p0_outage_under(60, 20, p0_stall(50, 40), 40..=100);
    assert_eq!(out.fault_stats.stalls, 1, "{:?}", out.fault_stats);
    assert_eq!(out.fault_stats.recoveries, 1, "{:?}", out.fault_stats);
    let stalled = Note::Stall {
        proc: 0,
        stalled: true,
    };
    assert_eq!(
        notes,
        [(50, stalled)],
        "the end at 90 finds no stall to close"
    );
    // P0 runs again from the recovery at 80, not from the stall's end.
    assert_eq!(done, [42, 46, 82, 84, 86, 88, 90, 92, 94, 96, 98, 100]);
}

/// A slowdown that starts while its processor is down still sets the
/// rate, so the recovery resumes the node slowed.
#[test]
fn a_recovery_mid_slowdown_resumes_slowed() {
    let slow = GrayConfig::new().with_slow(SlowSchedule::Explicit(vec![
        vec![SlowWindow {
            at: t(60),
            span: d(100),
            factor: 4,
        }],
        Vec::new(),
    ]));
    let (_, _, nominal) = p0_outage_under(50, 20, GrayConfig::new(), 60..=110);
    let (out, notes, done) = p0_outage_under(50, 20, slow, 60..=110);
    assert_eq!(out.fault_stats.slowdowns, 1, "{:?}", out.fault_stats);
    let slowed = |at, factor| (at, Note::Slowdown { proc: 0, factor });
    assert_eq!(notes, [slowed(60, 4), slowed(160, 1)]);
    // T0 runs 2 ticks a job: 8 at a quarter of the rate, from the
    // recovery at 70 on.
    assert_eq!(done, [78, 86, 94, 102, 110]);
    assert_eq!(
        nominal,
        [72, 74, 76, 78, 80, 82, 84, 86, 88, 90, 94, 98, 102, 106, 110]
    );
}

/// A degraded link is live but lossy: heartbeats crossing it pay extra
/// latency and a seeded drop rate, both counted — and the run stays
/// bit-deterministic under the per-frame jitter stream.
#[test]
fn degraded_link_inflates_latency_and_drops_frames() {
    let set = example2();
    let window = |from: usize, to: usize| LinkDegradeWindow {
        at: t(20),
        span: d(2_000),
        from,
        to,
        extra_latency: d(3),
        jitter: d(2),
        drop_permille: 400,
    };
    let cfg = SimConfig::new(Protocol::ReleaseGuard)
        .with_instances(60)
        .with_transport(detector(true))
        .with_faults(FaultConfig::gray_only(
            GrayConfig::new()
                .with_links(LinkSchedule::Explicit(vec![window(0, 1), window(1, 0)]))
                .with_frame_seed(29),
        ));
    let a = simulate(&set, &cfg).unwrap();
    let fs = &a.fault_stats;
    assert_eq!(fs.link_degrades, 2, "{fs:?}");
    assert!(fs.gray_dropped_heartbeats > 0, "{fs:?}");
    assert!(fs.gray_extra_latency_ticks > 0, "{fs:?}");
    let b = simulate(&set, &cfg).unwrap();
    assert_eq!(a.events, b.events);
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.detect_stats, b.detect_stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Gray knobs in their neutral position are exact no-ops: empty
    /// explicit schedules for every persona (and any frame seed) leave
    /// every protocol's schedule bit-identical on the ideal path and on
    /// the transport-plus-detector path alike.
    #[test]
    fn neutral_gray_knobs_are_bit_identical(
        proto_idx in 0usize..4,
        instances in 5u64..25,
        frame_seed in 0u64..u64::MAX,
    ) {
        let set = example2();
        let n = set.num_processors();
        let protocol = Protocol::ALL[proto_idx];
        let neutral = GrayConfig::new()
            .with_slow(SlowSchedule::Explicit(vec![Vec::new(); n]))
            .with_stalls(StallSchedule::Explicit(vec![Vec::new(); n]))
            .with_links(LinkSchedule::Explicit(Vec::new()))
            .with_frame_seed(frame_seed);
        prop_assert!(!neutral.is_inert(), "explicit empties are armed but neutral");

        // Ideal path.
        let plain = SimConfig::new(protocol)
            .with_instances(instances)
            .with_trace();
        let a = simulate(&set, &plain).unwrap();
        let b = simulate(
            &set,
            &plain.clone().with_faults(FaultConfig::gray_only(neutral.clone())),
        )
        .unwrap();
        prop_assert_eq!(&a.trace, &b.trace, "{:?}", protocol);
        prop_assert_eq!(a.events, b.events, "{:?}", protocol);

        // Transport + fixed-detector path: heartbeats, suspicion timers
        // and retransmissions all run; the neutral gray domain must not
        // perturb a single draw or delivery.
        let detected = plain.clone().with_transport(detector(false));
        let c = simulate(&set, &detected).unwrap();
        let e = simulate(
            &set,
            &detected.clone().with_faults(FaultConfig::gray_only(neutral)),
        )
        .unwrap();
        prop_assert_eq!(&c.trace, &e.trace, "{:?}", protocol);
        prop_assert_eq!(c.events, e.events, "{:?}", protocol);
        prop_assert_eq!(c.detect_stats, e.detect_stats, "{:?}", protocol);
    }
}
