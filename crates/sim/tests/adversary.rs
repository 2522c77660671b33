//! Integration tests for the adversarial-time machinery: network
//! partitions sever and heal deterministically without leaking protocol
//! signals across the cut, Byzantine timeserver personas corrupt samples
//! without defeating a minority-tolerant Marzullo intersection (and
//! visibly defeat it at a colluding majority), per-link asymmetry widens
//! the advertised uncertainty honestly, and sync-over-transport retries
//! dropped frames.

use rtsync_core::examples::{example1, example2};
use rtsync_core::protocol::Protocol;
use rtsync_core::time::{Dur, Time};
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig};
use rtsync_sim::nonideal::{ChannelModel, ClockModel, LinkAsymmetry, NonidealConfig};
use rtsync_sim::{
    FaultConfig, InvariantObserver, PartitionSchedule, PartitionWindow, Persona, SyncConfig,
};

fn d(x: i64) -> Dur {
    Dur::from_ticks(x)
}

fn t(x: i64) -> Time {
    Time::from_ticks(x)
}

/// One explicit cut isolating P0 from P1 over `[10, 10 + span)`.
fn one_cut(span: i64) -> FaultConfig {
    FaultConfig::explicit(vec![Vec::new(), Vec::new()]).with_partitions(
        PartitionSchedule::Explicit(vec![PartitionWindow {
            at: t(10),
            heal_delay: d(span),
            island: vec![0],
        }]),
    )
}

/// Random clocks hostile enough that sync corrections matter.
fn bad_clocks(seed: u64) -> ClockModel {
    ClockModel::Random {
        max_offset: d(50),
        max_drift_ppm: 20_000,
        seed,
    }
}

/// A cut severs cross-processor signals, parks them, and replays every
/// one at the heal; the whole run is bit-deterministic.
#[test]
fn partition_severs_parks_and_replays_signals() {
    let set = example2();
    let cfg = SimConfig::new(Protocol::DirectSync)
        .with_instances(40)
        .with_trace()
        .with_channel(ChannelModel::constant(d(1)).with_seed(5))
        .with_faults(one_cut(30));
    let a = simulate(&set, &cfg).unwrap();
    let fs = &a.fault_stats;
    assert_eq!(fs.partitions, 1, "{fs:?}");
    assert_eq!(fs.heals, 1, "{fs:?}");
    assert!(fs.severed_signals > 0, "the cut crossed T1's chain: {fs:?}");
    assert_eq!(
        fs.partition_replayed, fs.severed_signals,
        "every parked signal replays at the heal: {fs:?}"
    );
    let b = simulate(&set, &cfg).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.events, b.events);
    assert_eq!(a.fault_stats, b.fault_stats);
}

/// The online invariants hold through a cut and its heal for every
/// protocol: nothing crosses the partition, conservation closes, and the
/// run ends clean.
#[test]
fn partition_invariants_hold_for_every_protocol() {
    let set = example2();
    for protocol in Protocol::ALL {
        let mut obs = InvariantObserver::default();
        let out = simulate_observed(
            &set,
            &SimConfig::new(protocol)
                .with_instances(40)
                .with_channel(ChannelModel::constant(d(1)).with_seed(5))
                .with_faults(one_cut(25)),
            &mut obs,
        )
        .unwrap();
        obs.check_outcome(&out);
        assert!(
            obs.is_clean(),
            "{protocol:?}: {:?}",
            obs.violations().first()
        );
    }
}

/// A single large-offset liar among three timeservers corrupts samples
/// but cannot move the Marzullo intersection: every settled estimate
/// still brackets the true offset and the armed invariant stays clean.
#[test]
fn minority_liar_cannot_defeat_the_bracket() {
    let set = example1();
    let mut obs = InvariantObserver::default();
    let out = simulate_observed(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(150)
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(3)))
            .with_sync(SyncConfig::new(d(8)).with_personas(vec![
                Persona::Honest,
                Persona::FixedLiar { offset: d(8000) },
                Persona::Honest,
            ])),
        &mut obs,
    )
    .unwrap();
    let s = &out.sync_stats;
    assert!(s.corrupted_samples > 0, "the liar answered: {s:?}");
    assert!(s.bracket_samples > 0, "{s:?}");
    assert_eq!(
        s.bracket_misses, 0,
        "minority liar defeated Marzullo: {s:?}"
    );
    assert!(obs.is_clean(), "{:?}", obs.violations().first());
}

/// Two colluders out of three agree on a fake offset: past n/2 their
/// mutually-consistent intervals out-vote the reference and the settled
/// estimates stop bracketing the true offset — the documented failure
/// mode of intersection-based sync under a Byzantine majority.
#[test]
fn colluding_majority_defeats_the_bracket() {
    let set = example1();
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(150)
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(3)))
            .with_sync(SyncConfig::new(d(8)).with_personas(vec![
                Persona::Colluder { target: d(-6000) },
                Persona::Colluder { target: d(-6000) },
                Persona::Honest,
            ])),
    )
    .unwrap();
    let s = &out.sync_stats;
    assert!(s.corrupted_samples > 0, "{s:?}");
    assert!(
        s.bracket_misses > 0,
        "a colluding majority must break uncertainty honesty: {s:?}"
    );
}

/// Asymmetric links bias NTP's midpoint; the advertised asymmetry bound
/// widens every sample, so the estimate stays honest — with strictly
/// wider raw samples than the symmetric run (the settled Marzullo
/// half-width itself stays pinned by the tight reference interval).
#[test]
fn asymmetry_widens_uncertainty_but_stays_honest() {
    let set = example1();
    let base = SimConfig::new(Protocol::PhaseModification)
        .with_instances(150)
        .with_sync(SyncConfig::new(d(8)));
    let symmetric = simulate(
        &set,
        &base
            .clone()
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(7))),
    )
    .unwrap();
    let skewed = simulate(
        &set,
        &base.clone().with_nonideal(
            NonidealConfig::default()
                .with_clocks(bad_clocks(7))
                .with_asymmetry(LinkAsymmetry::random(3, d(6), 11)),
        ),
    )
    .unwrap();
    assert_eq!(symmetric.sync_stats.bracket_misses, 0);
    assert_eq!(
        skewed.sync_stats.bracket_misses, 0,
        "the asymmetry bound must keep the bracket honest: {:?}",
        skewed.sync_stats
    );
    assert!(
        skewed.sync_stats.max_sample_width > symmetric.sync_stats.max_sample_width,
        "biased links must widen the raw samples ({:?} vs {:?})",
        skewed.sync_stats.max_sample_width,
        symmetric.sync_stats.max_sample_width
    );
}

/// Sync-over-transport mode retries frames the channel drops: the lossy
/// run records losses and retransmissions, and recovers more exchanges
/// than the fire-and-forget mode under the same seeds.
#[test]
fn sync_over_transport_retries_dropped_frames() {
    let set = example2();
    let lossy = |over: bool| {
        simulate(
            &set,
            &SimConfig::new(Protocol::ReleaseGuard)
                .with_instances(80)
                .with_channel(
                    ChannelModel::constant(d(1))
                        .with_seed(9)
                        .with_endpoint_drops(0.3),
                )
                .with_sync(SyncConfig::new(d(10)).with_over_transport(over)),
        )
        .unwrap()
        .sync_stats
    };
    let plain = lossy(false);
    let acked = lossy(true);
    assert!(plain.frames_lost > 0, "{plain:?}");
    assert_eq!(plain.retransmits, 0, "{plain:?}");
    assert!(acked.retransmits > 0, "{acked:?}");
    assert!(
        acked.exchanges > plain.exchanges,
        "retries must recover exchanges ({} vs {})",
        acked.exchanges,
        plain.exchanges
    );
}

/// Partition-window cadence also severs sync frames: the sync layer's
/// `frames_severed` is the one count of them.
#[test]
fn cut_severs_sync_frames_too() {
    let set = example2();
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::ReleaseGuard)
            .with_instances(60)
            .with_channel(ChannelModel::constant(d(1)).with_seed(5))
            .with_faults(one_cut(40))
            .with_sync(SyncConfig::new(d(6))),
    )
    .unwrap();
    assert!(out.fault_stats.partitions > 0, "{:?}", out.fault_stats);
    assert!(out.sync_stats.frames_severed > 0, "{:?}", out.sync_stats);
}
