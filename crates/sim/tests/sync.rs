//! Integration tests for the clock-synchronization layer: sync rounds
//! genuinely tame nonideal clocks for the clock-driven PM protocol, the
//! correction policies behave as documented, runs stay deterministic,
//! and — the equivalence guarantee — the sync-disabled path is
//! bit-for-bit the legacy engine for every protocol, ideal or nonideal.

use proptest::prelude::*;
use rtsync_core::examples::example2;
use rtsync_core::protocol::Protocol;
use rtsync_core::time::{Dur, Time};
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig};
use rtsync_sim::nonideal::LinkAsymmetry;
use rtsync_sim::nonideal::{eer_inflation, ChannelModel, ClockModel, NonidealConfig};
use rtsync_sim::{
    FaultConfig, Note, Observer, PartitionSchedule, Persona, ProtocolCounters, SyncConfig,
    SyncPolicy, SyncStats, Tee,
};

fn d(x: i64) -> Dur {
    Dur::from_ticks(x)
}

/// Clocks with offsets up to ±50 ticks and up to 5% drift — hostile
/// territory for PM on a task set whose periods are 4–6 ticks.
fn bad_clocks(seed: u64) -> ClockModel {
    ClockModel::Random {
        max_offset: d(50),
        max_drift_ppm: 50_000,
        seed,
    }
}

/// Mean distance of the per-task EER inflation ratios from 1.0. Offset
/// clocks can shift PM releases early as well as late, so raw inflation
/// can deflate below 1 while the schedule is still badly wrong — the
/// deviation from the ideal ratio is the honest distortion measure.
fn mean_eer_distortion(ideal: &rtsync_sim::Metrics, observed: &rtsync_sim::Metrics) -> f64 {
    let ratios: Vec<f64> = eer_inflation(ideal, observed)
        .into_iter()
        .flatten()
        .collect();
    assert!(!ratios.is_empty());
    ratios.iter().map(|r| (r - 1.0).abs()).sum::<f64>() / ratios.len() as f64
}

/// Sync rounds run, produce Marzullo estimates with bounded uncertainty,
/// and drive every node's true clock error well below its initial offset.
#[test]
fn sync_rounds_estimate_and_correct_offsets() {
    let set = example2();
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(200)
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(7)))
            .with_sync(SyncConfig::new(d(8))),
    )
    .unwrap();
    let s = &out.sync_stats;
    assert!(s.rounds > 0, "{s:?}");
    assert!(s.estimates > 0, "{s:?}");
    assert!(s.frames > 0, "sync frames rode the channel: {s:?}");
    assert!(!s.corrections.is_empty(), "step policy corrected: {s:?}");
    // Offsets start at up to 50 ticks; after correction the residual is
    // drift·period + RTT/2, i.e. a couple of ticks.
    let mean_err = s.mean_true_error().unwrap();
    assert!(mean_err < 10.0, "mean true error {mean_err} (stats {s:?})");
}

/// The acceptance property in miniature: under drifting, offset clocks,
/// PM with sync is far closer to its ideal-clock schedule than PM
/// without sync.
#[test]
fn synced_pm_beats_unsynced_pm_under_bad_clocks() {
    let set = example2();
    let base = SimConfig::new(Protocol::PhaseModification).with_instances(200);
    let ideal = simulate(&set, &base).unwrap();
    let unsynced = simulate(
        &set,
        &base
            .clone()
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(7))),
    )
    .unwrap();
    let synced = simulate(
        &set,
        &base
            .clone()
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(7)))
            .with_sync(SyncConfig::new(d(8))),
    )
    .unwrap();
    let raw = mean_eer_distortion(&ideal.metrics, &unsynced.metrics);
    let corrected = mean_eer_distortion(&ideal.metrics, &synced.metrics);
    assert!(
        raw > 0.1,
        "50-tick offsets must visibly distort unsynced PM (got {raw})"
    );
    assert!(
        corrected < raw / 2.0,
        "sync must reclaim most of the distortion ({corrected} vs {raw})"
    );
    // Offset clocks also break PM's precedence guarantees outright; sync
    // must not make that worse.
    assert!(
        synced.violations.len() <= unsynced.violations.len(),
        "synced {} vs unsynced {}",
        synced.violations.len(),
        unsynced.violations.len()
    );
}

/// `Observe` measures without touching the clocks: no corrections are
/// ever applied, and the true error stays an order of magnitude above
/// the `Step` policy's under the same seeds.
#[test]
fn observe_policy_measures_but_never_corrects() {
    let set = example2();
    let run = |policy: SyncPolicy| {
        simulate(
            &set,
            &SimConfig::new(Protocol::PhaseModification)
                .with_instances(200)
                .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(9)))
                .with_sync(SyncConfig::new(d(8)).with_policy(policy)),
        )
        .unwrap()
        .sync_stats
    };
    let observed = run(SyncPolicy::Observe);
    let stepped = run(SyncPolicy::Step);
    assert!(observed.corrections.is_empty());
    assert!(observed.estimates > 0, "it still estimates");
    let (o, s) = (
        observed.mean_true_error().unwrap(),
        stepped.mean_true_error().unwrap(),
    );
    assert!(s * 4.0 < o, "step {s} must beat observe {o}");
}

/// `Slew` clamps every single correction to the configured bound.
#[test]
fn slew_corrections_are_bounded() {
    let set = example2();
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(200)
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(11)))
            .with_sync(SyncConfig::new(d(8)).with_policy(SyncPolicy::Slew { max_step: d(2) })),
    )
    .unwrap();
    let corrections = &out.sync_stats.corrections;
    assert!(!corrections.is_empty());
    // The 0.01-quantile reaches the most-negative bucket of a sample
    // this small; together with the max these bound every correction.
    assert!(corrections.quantile(0.01).unwrap() >= d(-2));
    assert!(corrections.quantile(1.0).unwrap() <= d(2));
}

/// Sync runs are seeded end to end: identical configs give bit-identical
/// outcomes, including the sync statistics.
#[test]
fn sync_runs_are_deterministic() {
    let set = example2();
    let cfg = SimConfig::new(Protocol::ReleaseGuard)
        .with_instances(60)
        .with_trace()
        .with_nonideal(
            NonidealConfig::default()
                .with_clocks(bad_clocks(5))
                .with_channel(ChannelModel::uniform(Dur::ZERO, d(2)).with_seed(21)),
        )
        .with_sync(SyncConfig::new(d(10)));
    let a = simulate(&set, &cfg).unwrap();
    let b = simulate(&set, &cfg).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.events, b.events);
    assert_eq!(a.sync_stats, b.sync_stats);
    assert_eq!(a.channel_stats, b.channel_stats);
}

/// Counts the sync layer's observer hooks, to check that each one fires
/// once per round, estimate and correction the layer records.
#[derive(Default)]
struct SyncHooks {
    rounds: u64,
    estimates: u64,
    max_uncertainty: Dur,
    corrections: u64,
}

impl Observer for SyncHooks {
    fn on(&mut self, _now: Time, note: Note) {
        match note {
            Note::SyncRound { .. } => self.rounds += 1,
            Note::SyncEstimate { uncertainty, .. } => {
                self.estimates += 1;
                self.max_uncertainty = self.max_uncertainty.max(uncertainty);
            }
            Note::SyncCorrection { .. } => self.corrections += 1,
            _ => {}
        }
    }
}

/// Sync frames share the wire with real protocol signals and are visible
/// through the observer: the hooks fire once per round, estimate and
/// correction, and counters see frames and a nonzero share of the channel
/// traffic.
#[test]
fn sync_traffic_shares_the_channel_and_reaches_observers() {
    let set = example2();
    let mut counters = ProtocolCounters::default();
    let mut hooks = SyncHooks::default();
    let out = simulate_observed(
        &set,
        &SimConfig::new(Protocol::ReleaseGuard)
            .with_instances(60)
            .with_nonideal(
                NonidealConfig::default()
                    .with_clocks(bad_clocks(5))
                    .with_channel(ChannelModel::constant(d(1)).with_seed(3)),
            )
            .with_sync(SyncConfig::new(d(10))),
        &mut Tee(&mut counters, &mut hooks),
    )
    .unwrap();
    let sync = &out.sync_stats;
    assert!(sync.rounds > 0);
    assert!(!sync.corrections.is_empty());
    assert_eq!(hooks.rounds, sync.rounds);
    assert_eq!(hooks.estimates, sync.estimates);
    assert_eq!(hooks.max_uncertainty, sync.max_uncertainty);
    assert_eq!(hooks.corrections, sync.corrections.len());
    assert!(counters.sync_frames > 0);
    assert!(counters.sync_traffic_share(&out).unwrap() > 0.0);
    // Every sync frame that left a node went through the shared channel:
    // the channel saw strictly more sends than the protocol's signals.
    assert!(out.channel_stats.sent > counters.signal_sends);
    let rendered = counters.render(&out);
    assert!(
        rendered.contains(&format!("sync: {} rounds", sync.rounds)),
        "{rendered}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equivalence guarantee, randomized: with sync disabled the engine
    /// takes the exact legacy path for every protocol — on the ideal
    /// path a default `NonidealConfig` stays bit-identical to the plain
    /// engine, and on the nonideal path a seeded lossy channel run is
    /// bit-deterministic with zero sync activity (no extra RNG draw ever
    /// hits the shared channel generator).
    #[test]
    fn sync_disabled_path_is_bit_identical(
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
        prop_assert_eq!(&a.trace, &b.trace, "{:?}", protocol);
        prop_assert_eq!(a.events, b.events, "{:?}", protocol);
        prop_assert_eq!(&a.sync_stats, &SyncStats::default());
        prop_assert_eq!(&b.sync_stats, &SyncStats::default());

        let lossy = plain
            .clone()
            .with_channel(ChannelModel::uniform(Dur::ZERO, d(3)).with_seed(17));
        let c = simulate(&set, &lossy).unwrap();
        let e = simulate(&set, &lossy).unwrap();
        prop_assert_eq!(&c.trace, &e.trace, "{:?}", protocol);
        prop_assert_eq!(c.events, e.events, "{:?}", protocol);
        prop_assert_eq!(&c.sync_stats, &SyncStats::default());
    }

    /// Adversary knobs in their neutral position are exact no-ops: all-
    /// honest personas, an all-zero asymmetry matrix and an empty
    /// partition schedule leave every protocol's schedule bit-identical
    /// on the ideal path, the nonideal path and the synced path alike.
    #[test]
    fn neutral_adversary_knobs_are_bit_identical(
        proto_idx in 0usize..4,
        instances in 5u64..25,
    ) {
        let set = example2();
        let n = set.num_processors();
        let protocol = Protocol::ALL[proto_idx];
        let zero_asym = LinkAsymmetry::explicit(vec![vec![Dur::ZERO; n]; n]);
        let no_cut = FaultConfig::explicit(vec![Vec::new(); n])
            .with_partitions(PartitionSchedule::Explicit(Vec::new()));

        // Ideal path: a plain run vs the same with every knob neutral.
        let plain = SimConfig::new(protocol)
            .with_instances(instances)
            .with_trace();
        let neutral_plain = plain
            .clone()
            .with_nonideal(NonidealConfig::default().with_asymmetry(zero_asym.clone()))
            .with_faults(no_cut.clone());
        let a = simulate(&set, &plain).unwrap();
        let b = simulate(&set, &neutral_plain).unwrap();
        prop_assert_eq!(&a.trace, &b.trace, "{:?}", protocol);
        prop_assert_eq!(a.events, b.events, "{:?}", protocol);

        // Nonideal + synced path: a lossy, drifting, synced run vs the
        // same with honest personas, zero asymmetry and an empty cut.
        let nonideal = NonidealConfig::default()
            .with_clocks(bad_clocks(5))
            .with_channel(ChannelModel::uniform(Dur::ZERO, d(2)).with_seed(21));
        let synced = SimConfig::new(protocol)
            .with_instances(instances)
            .with_trace()
            .with_nonideal(nonideal.clone())
            .with_sync(SyncConfig::new(d(10)));
        let neutral_synced = SimConfig::new(protocol)
            .with_instances(instances)
            .with_trace()
            .with_nonideal(nonideal.with_asymmetry(zero_asym))
            .with_sync(
                SyncConfig::new(d(10))
                    .with_personas(vec![Persona::Honest; n])
                    .with_persona_seed(41),
            )
            .with_faults(no_cut);
        let c = simulate(&set, &synced).unwrap();
        let e = simulate(&set, &neutral_synced).unwrap();
        prop_assert_eq!(&c.trace, &e.trace, "{:?}", protocol);
        prop_assert_eq!(c.events, e.events, "{:?}", protocol);
        prop_assert_eq!(&c.sync_stats, &e.sync_stats, "{:?}", protocol);
    }
}
